import numpy as np
import pytest

from spinefe.errors import MeshError
from spinefe.mesh import (EDGE_PAIRS, FACES, Mesh, Part, PartRole, PhantomSpec, Region,
                          _row_keys, build_phantom, check_edge_lengths,
                          extract_surface, face_node_ids, partition_rois)


def tiny_spec(**kw) -> PhantomSpec:
    base = dict(width_mm=1.0, depth_mm=1.0, vertebra_height_mm=1.0,
                disc_height_mm=1.0, pot_height_mm=1.0, n_vertebrae=1,
                nx=1, ny=1, nz_vertebra=1, nz_pot=1)
    base.update(kw)
    return PhantomSpec(**base)


def unit_tet10() -> Mesh:
    corners = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
    pairs = [(0, 1), (1, 2), (2, 0), (0, 3), (1, 3), (2, 3)]
    mids = np.array([(corners[i] + corners[j]) / 2 for i, j in pairs])
    nodes = np.vstack([corners, mids])
    return Mesh(nodes=nodes, elements=np.arange(10)[None, :],
                parts=np.zeros(1, dtype=int),
                part_table={0: Part("v", PartRole.VERTEBRA)})


PHANTOMS = [dict(n_vertebrae=2, nx=2, ny=2),
            dict(n_vertebrae=2, nx=5, ny=4, nz_vertebra=4, nz_disc=2, nz_pot=2),
            dict(n_vertebrae=3, nx=3, ny=2, nz_vertebra=1, nz_disc=1, nz_pot=1)]


class TestRowKeys:
    """The int64 row keys give what row-wise ``np.unique`` gives."""

    @pytest.mark.parametrize("kw", PHANTOMS)
    def test_midside_nodes_match_rowwise_unique(self, kw):
        mesh = build_phantom(PhantomSpec(**kw))
        corners4 = mesh.elements[:, :4]
        n_corners = int(corners4.max()) + 1
        edges = np.sort(corners4[:, EDGE_PAIRS].reshape(-1, 2), axis=1)
        unique_edges, inverse = np.unique(edges, axis=0, return_inverse=True)
        mids = 0.5 * (mesh.nodes[unique_edges[:, 0]] + mesh.nodes[unique_edges[:, 1]])
        assert mesh.nodes[n_corners:].tobytes() == mids.tobytes()
        assert np.array_equal(mesh.elements[:, 4:], n_corners + inverse.reshape(-1, 6))

    @pytest.mark.parametrize("kw", PHANTOMS)
    def test_surface_matches_rowwise_unique(self, kw):
        mesh = build_phantom(PhantomSpec(**kw))
        parts = sorted(mesh.part_table)
        for selection in (parts, parts[1:2], parts[:-1]):
            surf = extract_surface(mesh, selection)
            sel = np.flatnonzero(np.isin(mesh.parts, selection))
            flat = mesh.elements[sel][:, :4][:, FACES].reshape(-1, 3)
            _, inverse, counts = np.unique(np.sort(flat, axis=1), axis=0,
                                           return_inverse=True, return_counts=True)
            on_boundary = counts[inverse.ravel()] == 1
            assert np.array_equal(surf.owners, np.repeat(sel, 4)[on_boundary])
            assert np.array_equal(np.sort(surf.triangles, axis=1),
                                  np.sort(flat[on_boundary], axis=1))

    def test_keys_past_int64_rejected(self):
        rows = np.zeros((1, 3), dtype=np.int64)
        assert _row_keys(rows, 2 ** 21 - 1).dtype == np.int64
        with pytest.raises(MeshError, match="int64"):
            _row_keys(rows, 2 ** 21)


class TestMeshValidation:
    def test_unit_tet_is_valid(self):
        mesh = unit_tet10()
        assert mesh.n_nodes == 10
        assert mesh.corner_volumes()[0] == pytest.approx(1.0 / 6.0)

    def test_negative_jacobian_rejected(self):
        mesh = unit_tet10()
        elements = mesh.elements.copy()
        elements[0, [1, 2]] = elements[0, [2, 1]]  # swap two corners
        elements[0, [4, 9]] = elements[0, [9, 4]]  # keep midsides on edges
        elements[0, [5, 8]] = elements[0, [8, 5]]
        with pytest.raises(MeshError, match="Jacobian"):
            Mesh(nodes=mesh.nodes, elements=elements, parts=mesh.parts,
                 part_table=mesh.part_table)

    def test_midside_off_midpoint_rejected(self):
        mesh = unit_tet10()
        nodes = mesh.nodes.copy()
        nodes[4] += 1e-6
        with pytest.raises(MeshError, match="midside"):
            Mesh(nodes=nodes, elements=mesh.elements, parts=mesh.parts,
                 part_table=mesh.part_table)

    def test_repeated_node_rejected(self):
        mesh = unit_tet10()
        elements = mesh.elements.copy()
        elements[0, 5] = elements[0, 4]
        with pytest.raises(MeshError, match="repeats"):
            Mesh(nodes=mesh.nodes, elements=elements, parts=mesh.parts,
                 part_table=mesh.part_table)

    def test_missing_part_entry_rejected(self):
        mesh = unit_tet10()
        with pytest.raises(MeshError, match="part table"):
            Mesh(nodes=mesh.nodes, elements=mesh.elements,
                 parts=np.array([3]), part_table=mesh.part_table)

    def test_out_of_range_connectivity_rejected(self):
        mesh = unit_tet10()
        elements = mesh.elements.copy()
        elements[0, 9] = 99
        with pytest.raises(MeshError, match="out of range"):
            Mesh(nodes=mesh.nodes, elements=elements, parts=mesh.parts,
                 part_table=mesh.part_table)


class TestBuildPhantom:
    def test_minimal_stack_structure(self):
        cube = build_phantom(tiny_spec())
        assert cube.n_elements == 3 * 6
        assert len(cube.part_table) == 3
        assert [cube.part_table[i].role for i in range(3)] == [
            PartRole.POT, PartRole.VERTEBRA, PartRole.POT]

    def test_single_hex_oracle_27_nodes(self):
        # oracle: one hex cell splits into 6 tets; unique edges of the
        # six-tet split are 12 cube edges + 6 face diagonals + 1 main
        # diagonal = 19 midside nodes, plus 8 corners -> 27 nodes
        mesh = _single_part_cube()
        assert mesh.n_elements == 6
        assert mesh.n_nodes == 27

    def test_volume_matches_block(self):
        spec = PhantomSpec(width_mm=40, depth_mm=30, vertebra_height_mm=25,
                           disc_height_mm=8, pot_height_mm=10, n_vertebrae=2,
                           nx=3, ny=2, nz_vertebra=2, nz_disc=1, nz_pot=1)
        mesh = build_phantom(spec)
        height = 2 * 10 + 2 * 25 + 8
        assert mesh.corner_volumes().sum() == pytest.approx(40 * 30 * height, rel=1e-12)

    def test_part_stack_order_and_names(self):
        mesh = build_phantom(PhantomSpec(n_vertebrae=3))
        names = [mesh.part_table[i].name for i in sorted(mesh.part_table)]
        assert names == ["pot_inferior", "vertebra_1", "disc_1", "vertebra_2",
                         "disc_2", "vertebra_3", "pot_superior"]
        # parts are stacked bottom-up along z
        z_means = [mesh.nodes[np.unique(mesh.elements[mesh.parts == p])][:, 2].mean()
                   for p in sorted(mesh.part_table)]
        assert z_means == sorted(z_means)

    def test_interfaces_share_nodes(self):
        mesh = build_phantom(tiny_spec())
        # conforming stack: total face census must show every interior face
        # exactly twice and no duplicated coordinates
        coords = mesh.nodes
        rounded = np.round(coords, 9)
        assert len(np.unique(rounded, axis=0)) == len(coords)

    def test_deterministic_bitwise(self):
        a = build_phantom(PhantomSpec(n_vertebrae=2, nx=2, ny=2))
        b = build_phantom(PhantomSpec(n_vertebrae=2, nx=2, ny=2))
        assert a.nodes.tobytes() == b.nodes.tobytes()
        assert a.elements.tobytes() == b.elements.tobytes()
        assert a.parts.tobytes() == b.parts.tobytes()

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError):
            PhantomSpec(width_mm=-1)
        with pytest.raises(ValueError):
            PhantomSpec(n_vertebrae=0)
        with pytest.raises(ValueError):
            PhantomSpec(nx=0)


def _single_part_cube(n: int = 1) -> Mesh:
    # a one-part unit cube: take the phantom builder's vertebra block only
    spec = PhantomSpec(width_mm=1, depth_mm=1, vertebra_height_mm=1,
                       disc_height_mm=1, pot_height_mm=1, n_vertebrae=1,
                       nx=n, ny=n, nz_vertebra=n, nz_pot=1)
    mesh = build_phantom(spec)
    sel = np.flatnonzero(mesh.parts == 1)
    used = np.unique(mesh.elements[sel])
    remap = np.full(mesh.n_nodes, -1, dtype=np.int64)
    remap[used] = np.arange(used.size)
    return Mesh(nodes=mesh.nodes[used], elements=remap[mesh.elements[sel]],
                parts=np.zeros(sel.size, dtype=np.int64),
                part_table={0: Part("cube", PartRole.VERTEBRA)})


class TestExtractSurface:
    def test_unit_cube_has_12_boundary_triangles(self):
        mesh = _single_part_cube()
        surf = extract_surface(mesh, [0])
        assert surf.n_triangles == 12  # 6 faces x 2 triangles
        assert surf.areas.sum() == pytest.approx(6.0, rel=1e-12)

    def test_normals_unit_and_outward(self):
        mesh = _single_part_cube(2)
        surf = extract_surface(mesh, [0])
        assert np.allclose(np.linalg.norm(surf.normals, axis=1), 1.0, atol=1e-12)
        center = 0.5 * (mesh.nodes.min(axis=0) + mesh.nodes.max(axis=0))
        out = np.einsum("td,td->t", surf.normals, surf.centroids - center)
        assert (out > 0).all()

    def test_winding_matches_normals(self):
        mesh = _single_part_cube(2)
        surf = extract_surface(mesh, [0])
        pts = surf.vertex_coords()
        cross = np.cross(pts[:, 1] - pts[:, 0], pts[:, 2] - pts[:, 0])
        cross /= np.linalg.norm(cross, axis=1)[:, None]
        assert np.allclose(cross, surf.normals, atol=1e-12)

    def test_watertight_edge_census(self):
        mesh = _single_part_cube(2)
        surf = extract_surface(mesh, [0])
        edges = np.vstack([surf.triangles[:, [0, 1]], surf.triangles[:, [1, 2]],
                           surf.triangles[:, [2, 0]]])
        edges = np.sort(edges, axis=1)
        _, counts = np.unique(edges, axis=0, return_counts=True)
        assert (counts == 2).all()

    def test_interface_faces_appear_for_part_selection(self):
        mesh = build_phantom(tiny_spec())
        surf_mid = extract_surface(mesh, [1])   # vertebra alone: a closed box
        assert surf_mid.areas.sum() == pytest.approx(6.0, rel=1e-12)
        surf_all = extract_surface(mesh, [0, 1, 2])
        # the stack's exterior: 2 caps + 4 sides of a 1x1x3 block
        assert surf_all.areas.sum() == pytest.approx(2 * 1 + 4 * 3.0, rel=1e-12)
        # interface triangles are not part of the union boundary
        z_mid = surf_all.centroids[:, 2]
        assert not np.any(np.isclose(z_mid, 1.0) & (np.abs(surf_all.normals[:, 2]) > 0.5))

    def test_unknown_part_rejected(self):
        mesh = _single_part_cube()
        with pytest.raises(MeshError, match="unknown part"):
            extract_surface(mesh, [7])

    def test_owner_parts_recorded(self):
        mesh = build_phantom(tiny_spec())
        surf = extract_surface(mesh, [0, 1, 2])
        assert set(np.unique(surf.tri_parts)) == {0, 1, 2}
        assert (mesh.parts[surf.owners] == surf.tri_parts).all()


class TestFaceNodeIds:
    def test_unit_cube_face_collects_all_nodes_on_plane(self):
        mesh = _single_part_cube(2)
        surf = extract_surface(mesh, [0])
        z = mesh.nodes[:, 2]
        bottom = np.isclose(surf.centroids[:, 2], z.min())
        got = face_node_ids(surf, bottom)
        want = np.flatnonzero(np.isclose(z, z.min()))
        assert np.array_equal(got, np.sort(want))

    def test_superset_of_corner_ids(self):
        mesh = _single_part_cube(2)
        surf = extract_surface(mesh, [0])
        all_ids = face_node_ids(surf)
        assert np.isin(surf.corner_node_ids(), all_ids).all()
        assert all_ids.size > surf.corner_node_ids().size

    def test_midside_nodes_lie_on_selected_faces(self):
        mesh = _single_part_cube(2)
        surf = extract_surface(mesh, [0])
        x = mesh.nodes[:, 0]
        side = np.isclose(surf.centroids[:, 0], x.max())
        got = face_node_ids(surf, side)
        assert np.allclose(x[got], x.max())

    def test_empty_selection(self):
        mesh = _single_part_cube()
        surf = extract_surface(mesh, [0])
        got = face_node_ids(surf, np.zeros(surf.n_triangles, dtype=bool))
        assert got.size == 0 and got.dtype == np.int64


class TestRoIPartition:
    def test_thirds_on_unit_cube_areas(self):
        # oracle for nx=ny=nz=3 on the unit cube, split axis x, fractions
        # (1/3, 2/3): triangles on x=0 / x=1 faces have centroids at t=0 / 1;
        # side-face triangles fall in the x-bin of their cell; per-bin areas
        # hand-count: left = 1/3-slab sides (4 faces x 1/3) + the whole x=0
        # face 1 = 7/3; central = 4/3; right = 7/3
        mesh = _single_part_cube(3)
        surf = extract_surface(mesh, [0])
        rois = partition_rois(surf, axis=(1, 0, 0), fractions=(1 / 3, 2 / 3))
        areas = {r: surf.areas[rois.labels == r].sum() for r in Region}
        assert areas[Region.LEFT] == pytest.approx(7 / 3, rel=1e-12)
        assert areas[Region.CENTRAL] == pytest.approx(4 / 3, rel=1e-12)
        assert areas[Region.RIGHT] == pytest.approx(7 / 3, rel=1e-12)

    def test_partition_is_total(self):
        mesh = build_phantom(PhantomSpec(nx=3, ny=2, nz_vertebra=2))
        surf = extract_surface(mesh, sorted(mesh.part_table))
        rois = partition_rois(surf)
        counts = rois.counts()
        assert sum(counts.values()) == surf.n_triangles

    def test_labels_ordered_along_axis(self):
        mesh = _single_part_cube(3)
        surf = extract_surface(mesh, [0])
        rois = partition_rois(surf, axis=(1, 0, 0))
        x = surf.centroids[:, 0]
        assert x[rois.labels == Region.LEFT].max() < x[rois.labels == Region.RIGHT].min()

    def test_invalid_inputs(self):
        mesh = _single_part_cube()
        surf = extract_surface(mesh, [0])
        with pytest.raises(ValueError):
            partition_rois(surf, axis=(0, 0, 0))
        with pytest.raises(ValueError):
            partition_rois(surf, fractions=(0.7, 0.3))

    def test_axis_is_normalized(self):
        mesh = _single_part_cube(3)
        surf = extract_surface(mesh, [0])
        a = partition_rois(surf, axis=(1, 0, 0))
        b = partition_rois(surf, axis=(10, 0, 0))
        assert (a.labels == b.labels).all()
        assert np.allclose(b.axis, [1, 0, 0])


class TestEdgeLengths:
    def test_kuhn_diagonal_oracle(self):
        # every tet of the six-tet split contains the cube's main diagonal,
        # so a 2 mm cell yields a longest edge of 2*sqrt(3) in all elements
        spec = PhantomSpec(width_mm=2, depth_mm=2, vertebra_height_mm=2,
                           disc_height_mm=2, pot_height_mm=2, n_vertebrae=1,
                           nx=1, ny=1, nz_vertebra=1, nz_pot=1)
        mesh = build_phantom(spec)
        bad = check_edge_lengths(mesh, 2.0)
        assert len(bad) == mesh.n_elements
        for _, length in bad:
            assert length == pytest.approx(2 * np.sqrt(3), rel=1e-12)

    def test_no_violations_above_diagonal(self):
        mesh = build_phantom(tiny_spec())
        assert check_edge_lengths(mesh, np.sqrt(3) + 1e-9) == []

    def test_invalid_threshold(self):
        mesh = _single_part_cube()
        with pytest.raises(ValueError):
            check_edge_lengths(mesh, 0.0)

import dataclasses
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spinefe.errors import FormatError, SpineFEError
from fixture_writers import write_markers, write_voxel_grid
from spinefe.io import (SPLICED, ReportGeometry, json_text, read_cloud, read_markers, read_mesh,
                        read_voxel_grid, write_cloud, write_displacements,
                        write_materials, write_mesh, write_strains,
                        write_vtk_mesh, write_vtk_surface)
from spinefe.materials import MaterialField, Provenance, VoxelGrid
from spinefe.mesh import (EDGE_PAIRS, Mesh, Part, PartRole, PhantomSpec,
                          build_phantom, extract_surface)
from spinefe.metrics import MeasurementCloud
from spinefe.strain import SurfaceStrainField


def phantom():
    return build_phantom(PhantomSpec(nx=2, ny=2, nz_vertebra=1))


def report_geometry(mesh, roi=None):
    """The report geometry of ``mesh`` and its whole boundary surface."""
    surf = extract_surface(mesh, sorted(mesh.part_table))
    return ReportGeometry.of(surf, np.zeros(surf.n_triangles) if roi is None else roi)


class TestMeshFormat:
    def test_roundtrip_bitwise(self, tmp_path):
        mesh = phantom()
        p = tmp_path / "mesh.txt"
        write_mesh(mesh, p)
        back = read_mesh(p)
        assert back.nodes.tobytes() == mesh.nodes.tobytes()
        assert (back.elements == mesh.elements).all()
        assert (back.parts == mesh.parts).all()
        assert back.part_table == mesh.part_table

    def test_comments_and_blanks_ignored(self, tmp_path):
        mesh = phantom()
        p = tmp_path / "mesh.txt"
        write_mesh(mesh, p)
        text = p.read_text()
        p.write_text("# leading comment\n\n" + text.replace(
            "NODES", "NODES  # begin nodes", 1))
        back = read_mesh(p)
        assert back.n_nodes == mesh.n_nodes

    def test_data_before_section_rejected(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("0 0.0 0.0 0.0\nNODES\n")
        with pytest.raises(FormatError, match="bad.txt:1"):
            read_mesh(p)

    def test_wrong_column_count_rejected(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("NODES\n0 1.0 2.0\n")
        with pytest.raises(FormatError, match="id x y z"):
            read_mesh(p)

    def test_non_consecutive_ids_rejected(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("NODES\n1 0.0 0.0 0.0\n")
        with pytest.raises(FormatError, match="consecutive"):
            read_mesh(p)

    def test_unknown_role_rejected(self, tmp_path):
        mesh = phantom()
        p = tmp_path / "mesh.txt"
        write_mesh(mesh, p)
        p.write_text(p.read_text().replace(" VERTEBRA", " FEMUR"))
        with pytest.raises(FormatError, match="unknown part role"):
            read_mesh(p)

    def test_duplicate_part_id_rejected(self, tmp_path):
        mesh = phantom()
        p = tmp_path / "mesh.txt"
        write_mesh(mesh, p)
        lines = p.read_text().splitlines()
        idx = lines.index("PARTS")
        lines.append(lines[idx + 1])
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match="duplicate part id"):
            read_mesh(p)

    @pytest.mark.parametrize("name", [SPLICED, "vertebra\x1b"], ids=["spliced", "escape"])
    def test_unprintable_part_name_rejected(self, tmp_path, name):
        # a part name reaches report.json, where SPLICED marks a value to splice
        p = tmp_path / "mesh.txt"
        write_mesh(phantom(), p)
        lines = p.read_text().splitlines()
        lineno = lines.index("PARTS") + 3      # vertebra_1, one-based
        lines[lineno - 1] = lines[lineno - 1].replace("vertebra_1", name)
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match=f"mesh.txt:{lineno}: part name .* is not printable"):
            read_mesh(p)

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "empty.txt"
        p.write_text("# nothing here\n")
        with pytest.raises(FormatError, match="lacks"):
            read_mesh(p)


class TestVoxelGridFormat:
    def grid(self):
        rng = np.random.default_rng(40)
        vals = rng.uniform(-100, 1500, 3 * 4 * 5).astype(np.float32)
        return VoxelGrid(dims=(3, 4, 5), spacing_mm=(1.0, 1.5, 2.0),
                         origin_mm=(-1.0, 0.5, 2.0), values=vals)

    def test_roundtrip_bitwise(self, tmp_path):
        g = self.grid()
        p = tmp_path / "grid.json"
        write_voxel_grid(g, p)
        back = read_voxel_grid(p)
        assert back.dims == g.dims
        assert back.spacing_mm == g.spacing_mm
        assert back.origin_mm == g.origin_mm
        assert back.values.tobytes() == g.values.tobytes()

    def test_invalid_json_rejected(self, tmp_path):
        p = tmp_path / "grid.json"
        p.write_text("{not json")
        with pytest.raises(FormatError, match="JSON"):
            read_voxel_grid(p)

    def test_header_nested_past_the_parser_rejected(self, tmp_path):
        p = tmp_path / "grid.json"
        p.write_text("[" * 200_000 + "]" * 200_000)
        with pytest.raises(FormatError, match="invalid JSON"):
            read_voxel_grid(p)

    def test_missing_key_rejected(self, tmp_path):
        p = tmp_path / "grid.json"
        write_voxel_grid(self.grid(), p)
        header = json.loads(p.read_text())
        del header["spacing_mm"]
        p.write_text(json.dumps(header))
        with pytest.raises(FormatError, match="spacing_mm"):
            read_voxel_grid(p)

    def test_wrong_dtype_rejected(self, tmp_path):
        p = tmp_path / "grid.json"
        write_voxel_grid(self.grid(), p)
        header = json.loads(p.read_text())
        header["dtype"] = "f64"
        p.write_text(json.dumps(header))
        with pytest.raises(FormatError, match="dtype"):
            read_voxel_grid(p)

    def test_missing_data_file_rejected(self, tmp_path):
        p = tmp_path / "grid.json"
        write_voxel_grid(self.grid(), p)
        (tmp_path / "grid.raw").unlink()
        with pytest.raises(FormatError, match="not found"):
            read_voxel_grid(p)

    def test_size_mismatch_rejected(self, tmp_path):
        p = tmp_path / "grid.json"
        write_voxel_grid(self.grid(), p)
        raw = tmp_path / "grid.raw"
        raw.write_bytes(raw.read_bytes()[:-8])
        with pytest.raises(FormatError, match="voxels"):
            read_voxel_grid(p)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_value_rejected(self, tmp_path, bad):
        p = tmp_path / "grid.json"
        write_voxel_grid(self.grid(), p)
        raw = tmp_path / "grid.raw"
        values = np.fromfile(raw, dtype="<f4")
        values[[7, 11]] = bad
        values.tofile(raw)
        with pytest.raises(FormatError, match=f"voxel value 7 \\(x-fastest\\) is {bad}"):
            read_voxel_grid(p)


class TestMarkerFormat:
    def test_roundtrip_bitwise(self, tmp_path):
        ref = np.array([[0.0, 0, 0], [10, 0, 0], [0, 10, 0], [1, 2, 3]])
        dfm = ref + np.array([0.5, -0.25, 0.125])
        p = tmp_path / "markers.csv"
        write_markers(["m1", "m2", "m3", "m4"], ref, dfm, p)
        back_ref, back_dfm = read_markers(p)
        assert back_ref.tobytes() == ref.tobytes()
        assert back_dfm.tobytes() == dfm.tobytes()

    def test_arrays_follow_step_0_label_order(self, tmp_path):
        p = tmp_path / "markers.csv"
        p.write_text("label,step,x,y,z\nb,0,1,1,1\na,1,2,2,2\na,0,0,0,0\nb,1,3,3,3\n")
        ref, dfm = read_markers(p)
        assert ref.tolist() == [[1, 1, 1], [0, 0, 0]]
        assert dfm.tolist() == [[3, 3, 3], [2, 2, 2]]

    def test_bad_header_rejected(self, tmp_path):
        p = tmp_path / "markers.csv"
        p.write_text("label,x,y,z\n")
        with pytest.raises(FormatError, match="header"):
            read_markers(p)

    def test_bad_step_rejected(self, tmp_path):
        p = tmp_path / "markers.csv"
        p.write_text("label,step,x,y,z\nm1,2,0,0,0\n")
        with pytest.raises(FormatError, match="step"):
            read_markers(p)

    def test_unpaired_marker_rejected(self, tmp_path):
        p = tmp_path / "markers.csv"
        p.write_text("label,step,x,y,z\nm1,0,0,0,0\nm2,1,1,1,1\n")
        with pytest.raises(FormatError, match="both steps"):
            read_markers(p)

    def test_duplicate_marker_rejected(self, tmp_path):
        p = tmp_path / "markers.csv"
        p.write_text("label,step,x,y,z\nm1,0,0,0,0\nm1,0,1,1,1\n")
        with pytest.raises(FormatError, match="duplicate"):
            read_markers(p)


class TestCloudFormat:
    def test_roundtrip_bitwise(self, tmp_path):
        rng = np.random.default_rng(41)
        cloud = MeasurementCloud(rng.uniform(0, 50, (20, 3)),
                                 rng.normal(0, 0.1, (20, 3)))
        p = tmp_path / "cloud.csv"
        write_cloud(cloud, p)
        back = read_cloud(p)
        assert back.points.tobytes() == cloud.points.tobytes()
        assert back.values.tobytes() == cloud.values.tobytes()

    def test_malformed_row_rejected(self, tmp_path):
        p = tmp_path / "cloud.csv"
        p.write_text("x,y,z,ux,uy,uz\n1,2,3,4,5,banana\n")
        with pytest.raises(FormatError, match="malformed"):
            read_cloud(p)

    def test_empty_cloud_rejected(self, tmp_path):
        p = tmp_path / "cloud.csv"
        p.write_text("x,y,z,ux,uy,uz\n")
        with pytest.raises(FormatError, match="no cloud rows"):
            read_cloud(p)

    def test_scalar_cloud_write_rejected(self, tmp_path):
        # a cloud holds (p, 3) displacements, so no scalar cloud reaches the writer
        with pytest.raises(ValueError, match=r"\(p, 3\) displacement rows"):
            write_cloud(MeasurementCloud(np.zeros((2, 3)), np.ones(2)), tmp_path / "cloud.csv")
        assert not (tmp_path / "cloud.csv").exists()


def read_displacements(path):
    """(node ids, (n, 3) displacements) of a displacement CSV."""
    lines = path.read_text().splitlines()
    assert lines[0] == "node_id,x,y,z,ux,uy,uz"
    ids, disp = [], []
    for lineno, line in enumerate(lines[1:], start=2):
        tok = line.split(",")
        try:
            ids.append(int(tok[0]))
            disp.append([float(t) for t in tok[4:7]])
        except ValueError:
            raise FormatError(f"{path}:{lineno}: malformed displacement row") from None
    return np.array(ids), np.array(disp)


class TestDisplacementFormat:
    def test_roundtrip_bitwise(self, tmp_path):
        mesh = phantom()
        rng = np.random.default_rng(42)
        disp = rng.normal(0, 0.01, (mesh.n_nodes, 3))
        p = tmp_path / "disp.csv"
        write_displacements(report_geometry(mesh), disp, p)
        ids, back = read_displacements(p)
        assert (ids == np.arange(mesh.n_nodes)).all()
        assert back.tobytes() == disp.tobytes()

    def test_row_count_must_match_mesh(self, tmp_path):
        mesh = phantom()
        with pytest.raises(ValueError, match="row count"):
            write_displacements(report_geometry(mesh), np.zeros((3, 3)), tmp_path / "d.csv")

    def test_malformed_row_rejected(self, tmp_path):
        p = tmp_path / "disp.csv"
        p.write_text("node_id,x,y,z,ux,uy,uz\nzero,0,0,0,0,0,0\n")
        with pytest.raises(FormatError, match="malformed"):
            read_displacements(p)


class TestStrainFormat:
    def test_golden_rows(self, tmp_path):
        mesh = one_tet10_mesh()
        surf = dataclasses.replace(
            extract_surface(mesh, [0]),
            centroids=np.array([[0.5, 1.0, 2.0], [1.5, 2.5, 3.5], [0, 0, 0], [-1, 0, 1e-3]]))
        geometry = ReportGeometry.of(surf, np.array([0, 2, 1, 0], dtype=np.int8))
        field = SurfaceStrainField(tensors=np.zeros((4, 2, 2)),
                                   eps_max_ue=np.array([12.5, 100.0, 0.0, 1.0]),
                                   eps_min_ue=np.array([-3.25, -40.0, 0.0, -1.0]))
        p = tmp_path / "strains.csv"
        write_strains(geometry, field, p)
        assert p.read_text().splitlines() == [
            "tri_id,cx,cy,cz,roi,eps_max_ue,eps_min_ue",
            "0,0.5,1,2,left,12.5,-3.25",
            "1,1.5,2.5,3.5,right,100,-40",
            "2,0,0,0,central,0,0",
            "3,-1,0,0.001,left,1,-1"]


class TestMaterialFormat:
    def test_golden_rows(self, tmp_path):
        one = one_tet10_mesh()
        mesh = Mesh(nodes=np.vstack([one.nodes + [2.0 * i, 0, 0] for i in range(3)]),
                    elements=np.arange(30).reshape(3, 10), parts=np.array([4, 7, 4]),
                    part_table={4: Part("l1", PartRole.VERTEBRA),
                                7: Part("disc_l1_l2", PartRole.DISC)})
        materials = MaterialField(
            e_mpa=np.array([12000.0, np.nan, 123456.789012345]),
            nu=np.array([0.3, 0.45, np.nan]),
            provenance=np.array([Provenance.MAPPED, Provenance.UNSET, Provenance.UNIFORM],
                                dtype=np.int8))
        p = tmp_path / "materials.csv"
        write_materials(mesh, materials, p)
        assert p.read_text().splitlines() == [
            "element_id,part,role,e_mpa,nu,provenance",
            "0,l1,VERTEBRA,12000,0.3,MAPPED",
            "1,disc_l1_l2,DISC,,0.45,UNSET",
            "2,l1,VERTEBRA,123456.789,,UNIFORM"]


class TestVtkFormats:
    def test_mesh_structure(self, tmp_path):
        mesh = phantom()
        disp = np.full((mesh.n_nodes, 3), 0.25)
        e = np.arange(mesh.n_elements, dtype=float)
        p = tmp_path / "mesh.vtk"
        write_vtk_mesh(report_geometry(mesh), p, point_vectors={"displacement_mm": disp},
                       cell_scalars={"e_mpa": e})
        lines = p.read_text().splitlines()
        assert lines[0].startswith("# vtk DataFile Version")
        assert "DATASET UNSTRUCTURED_GRID" in lines
        assert f"POINTS {mesh.n_nodes} double" in lines
        m = mesh.n_elements
        assert f"CELLS {m} {m * 11}" in lines
        idx = lines.index(f"CELL_TYPES {m}")
        assert lines[idx + 1:idx + 1 + m] == ["24"] * m
        assert f"POINT_DATA {mesh.n_nodes}" in lines
        assert "VECTORS displacement_mm double" in lines
        assert f"CELL_DATA {m}" in lines
        assert "SCALARS e_mpa double 1" in lines
        assert "LOOKUP_TABLE default" in lines

    def test_surface_structure(self, tmp_path):
        geometry = report_geometry(phantom())
        p = tmp_path / "surf.vtk"
        write_vtk_surface(geometry, p, cell_scalars={"eps": np.ones(geometry.surface.n_triangles)})
        lines = p.read_text().splitlines()
        t = geometry.surface.n_triangles
        assert f"CELLS {t} {t * 4}" in lines
        idx = lines.index(f"CELL_TYPES {t}")
        assert lines[idx + 1:idx + 1 + t] == ["5"] * t
        assert f"CELL_DATA {t}" in lines
        assert lines.index("SCALARS eps double 1") < lines.index("SCALARS roi double 1")

    def test_surface_roi_comes_from_the_geometry(self, tmp_path):
        geometry = report_geometry(phantom())
        with pytest.raises(ValueError, match="roi"):
            write_vtk_surface(geometry, tmp_path / "surf.vtk",
                              cell_scalars={"roi": np.ones(geometry.surface.n_triangles)})

    def test_attribute_names_sorted(self, tmp_path):
        mesh = phantom()
        p = tmp_path / "mesh.vtk"
        write_vtk_mesh(report_geometry(mesh), p, cell_scalars={
            "zeta": np.zeros(mesh.n_elements),
            "alpha": np.ones(mesh.n_elements)})
        text = p.read_text()
        assert text.index("SCALARS alpha") < text.index("SCALARS zeta")

    def test_deterministic_output(self, tmp_path):
        geometry = report_geometry(phantom())
        a, b = tmp_path / "a.vtk", tmp_path / "b.vtk"
        write_vtk_mesh(geometry, a)
        write_vtk_mesh(geometry, b)
        assert a.read_bytes() == b.read_bytes()


def one_tet10_mesh():
    corners = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
    nodes = np.vstack([corners, corners[EDGE_PAIRS].mean(axis=1)])
    return Mesh(nodes=nodes, elements=np.arange(10)[None], parts=np.zeros(1, dtype=np.int64),
                part_table={0: Part("body", PartRole.VERTEBRA)})


# hostile doubles: any float, plus signed zeros, subnormals and the extremes
DOUBLES = st.floats() | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e300, -1e-300, 1e-300,
     math.inf, -math.inf, math.nan, 0.1, 1 / 3])


@settings(max_examples=200, deadline=None)
@given(values=st.lists(DOUBLES, min_size=60, max_size=60))
def test_written_numbers_match_per_value_format(fuzz_dir, values):
    """Every value a writer formats through one block template reads as its
    own per-value format: ``format(v, ".17g")`` in the CSVs that a reader
    recovers, ``format(v, ".10g")`` in the reports and VTK files, ``str``
    for integers and the text itself for labels."""
    def g17(*row):
        return [format(v, ".17g") for v in row]

    def g10(*row):
        return [format(v, ".10g") for v in row]

    def block(lines, header, n):
        start = lines.index(header) + 1
        return lines[start:start + n]

    mesh = one_tet10_mesh()
    a = np.array(values[:30]).reshape(10, 3)
    b = np.array(values[30:]).reshape(10, 3)
    p = fuzz_dir / "numbers"
    # the surface's centroids carry fuzzed values too, for the strain rows
    surf = dataclasses.replace(extract_surface(mesh, [0]), centroids=a[:4])
    roi = np.array([2, 0, 1, 2], dtype=np.int8)
    geometry = ReportGeometry.of(surf, roi)

    write_displacements(geometry, a, p)
    assert p.read_text().splitlines() == ["node_id,x,y,z,ux,uy,uz"] + [
        ",".join([str(i)] + g17(*x, *u)) for i, (x, u) in enumerate(zip(mesh.nodes, a))]

    # a cloud refuses non-finite entries, so its writer sees the finite ones
    fa, fb = (np.where(np.isfinite(x), x, 0.0) for x in (a, b))
    write_cloud(MeasurementCloud(fa, fb), p)
    assert p.read_text().splitlines() == ["x,y,z,ux,uy,uz"] + [
        ",".join(g17(*x, *u)) for x, u in zip(fa, fb)]

    write_vtk_mesh(geometry, p, point_vectors={"u": b}, cell_scalars={"s": a[0, :1]})
    lines = p.read_text().splitlines()
    assert block(lines, "POINTS 10 double", 10) == [" ".join(g10(*x)) for x in mesh.nodes]
    assert block(lines, "CELLS 1 11", 1) == [" ".join(["10"] + [str(i) for i in range(10)])]
    assert block(lines, "VECTORS u double", 10) == [" ".join(g10(*u)) for u in b]
    assert lines[-1] == g10(a[0, 0])[0]

    write_vtk_surface(geometry, p, cell_scalars={"s": b[:4, 1]})
    lines = p.read_text().splitlines()
    assert block(lines, "POINTS 10 double", 10) == [" ".join(g10(*x)) for x in mesh.nodes]
    assert block(lines, "CELLS 4 16", 4) == [
        " ".join(["3"] + [str(i) for i in tri]) for tri in surf.triangles.tolist()]
    assert block(lines, "SCALARS roi double 1", 5)[1:] == ["2", "0", "1", "2"]
    assert block(lines, "SCALARS s double 1", 5)[1:] == g10(*b[:4, 1])

    names = {0: "left", 1: "central", 2: "right"}
    write_strains(geometry, SurfaceStrainField(
        tensors=np.zeros((4, 2, 2)), eps_max_ue=b[:4, 0], eps_min_ue=b[:4, 1]), p)
    assert p.read_text().splitlines()[1:] == [
        ",".join([str(i)] + g10(*c) + [names[r]] + g10(e1, e2))
        for i, (c, r, e1, e2) in enumerate(zip(a[:4], roi.tolist(), b[:4, 0], b[:4, 1]))]

    # '%' in a label is text, not a conversion spec
    labels = ["m%d", "%s", "100%", "a b"]
    write_markers(labels, a[:4], b[:4], p)
    assert p.read_text().splitlines()[1:] == [
        ",".join([label, str(step)] + g17(*x))
        for step, xs in ((0, a[:4]), (1, b[:4])) for label, x in zip(labels, xs)]

    write_mesh(mesh, p)
    lines = p.read_text().splitlines()
    assert block(lines, "NODES", 10) == [
        " ".join([str(i)] + g17(*x)) for i, x in enumerate(mesh.nodes)]
    assert block(lines, "ELEMENTS", 1) == [" ".join(str(i) for i in [0, 0, *range(10)])]
    assert block(lines, "PARTS", 1) == ["0 body VERTEBRA"]

    e_mpa, nu = a[:3, 2], b[:3, 2]
    write_materials(Mesh(nodes=np.vstack([mesh.nodes + [2.0 * i, 0, 0] for i in range(3)]),
                         elements=np.arange(30).reshape(3, 10), parts=np.zeros(3, dtype=int),
                         part_table=mesh.part_table),
                    MaterialField(e_mpa=e_mpa, nu=nu,
                                  provenance=np.full(3, Provenance.UNIFORM, dtype=np.int8)), p)
    assert p.read_text().splitlines()[1:] == [
        ",".join([str(i), "body", "VERTEBRA"]
                 + ["" if math.isnan(v) else g10(v)[0] for v in (e, n)] + ["UNIFORM"])
        for i, (e, n) in enumerate(zip(e_mpa, nu))]


@pytest.mark.parametrize("label", [-1, 3, 0.5, math.nan])
def test_report_geometry_refuses_labels_that_are_not_regions(label):
    mesh = phantom()
    surf = extract_surface(mesh, sorted(mesh.part_table))
    roi = np.zeros(surf.n_triangles)
    roi[5] = label
    with pytest.raises(ValueError, match="roi labels must be Region values"):
        ReportGeometry.of(surf, roi)


def test_zero_row_tables_write_headers_only(tmp_path):
    p = tmp_path / "empty.csv"
    write_cloud(MeasurementCloud(np.zeros((0, 3)), np.zeros((0, 3))), p)
    assert p.read_text() == "x,y,z,ux,uy,uz\n"
    write_markers([], np.zeros((0, 3)), np.zeros((0, 3)), p)
    assert p.read_text() == "label,step,x,y,z\n"


# reader, file name, a writer of one valid file, and the returned value's
# arrays that must hold only finite numbers
READERS = {
    "mesh": (read_mesh, "mesh.txt", lambda p: write_mesh(one_tet10_mesh(), p),
             lambda mesh: (mesh.nodes,)),
    "voxel_grid": (read_voxel_grid, "grid.json", lambda p: write_voxel_grid(
        VoxelGrid(dims=(2, 1, 1), spacing_mm=(1.0, 1.0, 1.0), origin_mm=(0.0, 0.0, 0.0),
                  values=np.array([0.0, 800.0])), p),
        lambda grid: (grid.spacing_mm, grid.origin_mm, grid.values)),
    "cloud": (read_cloud, "cloud.csv", lambda p: write_cloud(
        MeasurementCloud(np.eye(3), 0.01 * np.eye(3)), p),
        lambda cloud: (cloud.points, cloud.values)),
    "markers": (read_markers, "markers.csv", lambda p: write_markers(
        ["a", "b", "c"], np.eye(3), np.eye(3) + 0.5, p), lambda arrays: arrays),
}
ODD_TOKENS = ["", "-1", "0", "1.5", "1e999", "nan", "-inf", "99999999999999999999",
              "a", "\xff", "null", "true", "[]", "{}", "[1, 1]", '"x"', "..", "NODES",
              "PARTS", "#"]
_DELIMITERS = re.compile(r"([\s,:\[\]{}\"]+)")


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def mutate_one_token(text: str, index: int, token: str) -> str:
    pieces = _DELIMITERS.split(text)
    slots = [i for i in range(0, len(pieces), 2) if pieces[i]]
    pieces[slots[index % len(slots)]] = token
    return "".join(pieces)


@pytest.mark.parametrize("kind", sorted(READERS))
@settings(max_examples=250, deadline=None)
@given(fuzz=st.binary(max_size=200)
       | st.tuples(st.integers(0, 10_000), st.sampled_from(ODD_TOKENS) | st.text(max_size=6)))
def test_fuzzed_file_reads_or_format_error(fuzz_dir, kind, fuzz):
    """Random bytes, or a valid file with one token replaced, read as a
    value with finite numbers or raise a SpineFEError, never anything else."""
    reader, name, write, finite = READERS[kind]
    path = fuzz_dir / name
    write(path)
    if isinstance(fuzz, bytes):
        path.write_bytes(fuzz)
    else:
        path.write_text(mutate_one_token(path.read_text(), *fuzz), encoding="utf-8")
    try:
        value = reader(path)
    except SpineFEError:
        return
    for i, array in enumerate(finite(value)):
        assert np.isfinite(array).all(), i


@pytest.mark.parametrize("kind", sorted(READERS))
def test_missing_and_non_utf8_files_are_format_errors(tmp_path, kind):
    reader, name, _, _ = READERS[kind]
    with pytest.raises(FormatError):
        reader(tmp_path / name)
    (tmp_path / name).write_bytes(b"\xff\xfe\x00NODES\n")
    with pytest.raises(FormatError):
        reader(tmp_path / name)


@pytest.mark.parametrize("dims", [["a", 1, 1], [1, 1], 2, [1.5, 1, 1]])
def test_malformed_grid_dims_are_format_errors(tmp_path, dims):
    p = tmp_path / "grid.json"
    READERS["voxel_grid"][2](p)
    header = json.loads(p.read_text())
    header["dims"] = dims
    p.write_text(json.dumps(header))
    with pytest.raises(FormatError, match="dims must be an array of 3 integers"):
        read_voxel_grid(p)


@pytest.mark.parametrize("value", [{"b": [1.5, {"c": None}], "a": "x"}, {}, [], [3, [4.25]], "s"],
                         ids=["nested", "empty_dict", "empty_list", "list", "string"])
def test_spliced_text_is_the_whole_encoding(value):
    # a value encoded alone and spliced at its depth, under a key and in
    # lists, gives the text of the tree that holds it
    def tree(v):
        return {"z": 1, "entries": [{"report": v, "k": 2}, [v, 0]]}
    got = json_text(tree(SPLICED), [json_text(value)] * 2)
    assert got == json.dumps(tree(value), indent=2, sort_keys=True)


def test_splice_counts_must_match():
    with pytest.raises(ValueError, match="2 values to splice, 1 texts"):
        json_text([SPLICED, SPLICED], ["1"])
    with pytest.raises(ValueError, match="0 values to splice, 1 texts"):
        json_text({"a": "spliced"}, ["1"])

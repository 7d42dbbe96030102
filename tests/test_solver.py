import re
import warnings
from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components, reverse_cuthill_mckee

import spinefe.solver as solver
from spinefe.errors import ConvergenceError, MaterialError, MeshError, SolverError
from spinefe.materials import MaterialField, assign_uniform
from keast_rule import KEAST_RULE
from spinefe.mesh import EDGE_PAIRS, TET_RULE, Mesh, Part, PartRole, PhantomSpec, build_phantom
from spinefe.registration import RigidMotion
from spinefe.solver import (PCG_TOL, BoundaryConditionSet, apply_bcs, assemble, reaction_force,
                            reaction_rows, solve_pcg)


ORIGIN = (0.0, 0.0, 0.0)


# ---------------------------------------------------------------- oracles

def shape_values(bary4):
    """Tet10 shape functions at one barycentric point (independent oracle)."""
    l0, l1, l2, l3 = bary4
    corner = [l * (2 * l - 1) for l in (l0, l1, l2, l3)]
    edges = [4 * l0 * l1, 4 * l1 * l2, 4 * l2 * l0,
             4 * l0 * l3, 4 * l1 * l3, 4 * l2 * l3]
    return np.array(corner + edges)


def shape_gradients_fd(xi, eta, zeta, h=1e-5):
    """Central differences in reference coordinates; exact for quadratics."""
    def at(x, e, z):
        return shape_values((1 - x - e - z, x, e, z))

    g = np.empty((10, 3))
    g[:, 0] = (at(xi + h, eta, zeta) - at(xi - h, eta, zeta)) / (2 * h)
    g[:, 1] = (at(xi, eta + h, zeta) - at(xi, eta - h, zeta)) / (2 * h)
    g[:, 2] = (at(xi, eta, zeta + h) - at(xi, eta, zeta - h)) / (2 * h)
    return g


def k_via_bmatrix(coords, e_mpa, nu):
    """Reference stiffness through an explicit B-matrix formulation,
    integrated with the 11-point Keast rule."""
    bary, wts = KEAST_RULE
    lam = e_mpa * nu / ((1 + nu) * (1 - 2 * nu))
    mu = e_mpa / (2 * (1 + nu))
    dmat = np.zeros((6, 6))
    dmat[:3, :3] = lam
    dmat[np.arange(3), np.arange(3)] += 2 * mu
    dmat[3:, 3:] = np.eye(3) * mu

    k = np.zeros((30, 30))
    for q in range(len(wts)):
        dn_ref = shape_gradients_fd(bary[q, 1], bary[q, 2], bary[q, 3])
        jac = dn_ref.T @ coords        # jac[a, b] = d x_b / d xi_a
        det = np.linalg.det(jac)
        dn = dn_ref @ np.linalg.inv(jac).T
        b = np.zeros((6, 30))
        for i in range(10):
            dx, dy, dz = dn[i]
            b[0, 3 * i] = dx
            b[1, 3 * i + 1] = dy
            b[2, 3 * i + 2] = dz
            b[3, 3 * i], b[3, 3 * i + 1] = dy, dx
            b[4, 3 * i + 1], b[4, 3 * i + 2] = dz, dy
            b[5, 3 * i], b[5, 3 * i + 2] = dz, dx
        k += wts[q] * det * (b.T @ dmat @ b)
    return k


def unit_tet_coords():
    corners = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
    pairs = [(0, 1), (1, 2), (2, 0), (0, 3), (1, 3), (2, 3)]
    mids = np.array([(corners[i] + corners[j]) / 2 for i, j in pairs])
    return np.vstack([corners, mids])


def single_tet_mesh():
    return Mesh(nodes=unit_tet_coords(), elements=np.arange(10)[None, :],
                parts=np.zeros(1, dtype=int),
                part_table={0: Part("t", PartRole.VERTEBRA)})


def uniform_field(mesh, e=1000.0, nu=0.3):
    field = MaterialField.unset_for(mesh)
    for pid in mesh.part_table:
        field = assign_uniform(mesh, field, pid, e, nu)
    return field


def assemble_all(mesh, materials):
    """``assemble`` over every part of ``mesh``."""
    return assemble(mesh, materials, list(mesh.part_table))


def element_stiffness(coords, e_mpa, nu):
    """30x30 stiffness of one affine tet10 element: ``assemble`` on a
    one-element mesh, whose DOFs are the element's."""
    mesh = single_tet_mesh()
    # set after the mesh's own checks, so that an inverted element reaches the kernel
    mesh.nodes = np.asarray(coords, dtype=np.float64)
    return assemble_all(mesh, uniform_field(mesh, e=e_mpa, nu=nu)).toarray()


def assert_bitwise_symmetric(k):
    """``k`` (CSR) and its transpose store the same entries, bit for bit."""
    k = k.tocsr(copy=True)
    k.sort_indices()
    t = k.T.tocsr()
    t.sort_indices()
    assert np.array_equal(t.indptr, k.indptr) and np.array_equal(t.indices, k.indices)
    assert t.data.tobytes() == k.data.tobytes()


def sliced_reduction(k_full, bcs):
    """Free DOFs, prescribed DOFs and values, K_ff and the right-hand side
    of ``k_full`` under ``bcs``, by plain scipy slicing of its CSR form."""
    k = k_full.tocsr()
    order = np.argsort(bcs.nodes)
    pres = (3 * bcs.nodes[order, None] + np.arange(3)).ravel()
    u_p = bcs.values[order].ravel()
    free = np.setdiff1d(np.arange(k.shape[0]), pres)
    k_rows = k[free]
    return free, pres, u_p, k_rows[:, free], k_rows[:, pres] @ -u_p


def nonzero_entries(m):
    """CSR ``m`` without its explicit zeros."""
    m = m.tocsr(copy=True)
    m.eliminate_zeros()
    return m


def assert_owns_its_entries(got, want):
    """CSR ``got`` stores exactly the nonzero entries of ``want``, bit for
    bit, in arrays of their own size: no view of a longer buffer."""
    assert_same_csr(got, nonzero_entries(want))
    assert (got.data != 0).all()
    for a in (got.data, got.indices):
        while isinstance(a.base, np.ndarray):
            a = a.base
        assert a.size == got.nnz


def held_bytes(value):
    """Every array that ``value`` holds, through its dataclass fields,
    tuples and sparse buffers, as bytes; any other value as it is."""
    if is_dataclass(value):
        return {f.name: held_bytes(getattr(value, f.name)) for f in fields(value)}
    if sp.issparse(value):
        return [held_bytes(a) for a in (value.data, value.indices, value.indptr)]
    if isinstance(value, tuple):
        return [held_bytes(v) for v in value]
    return value.tobytes() if isinstance(value, np.ndarray) else value


def coarse_of(restriction, k_ff):
    """The upper triangle of R K_ff R^T, as canonical CSR."""
    return sp.triu(restriction @ k_ff @ restriction.T, format="csr")


def superdiagonals(upper):
    """The band of upper triangular ``upper``: how far its farthest entry
    lies from the diagonal, as ``solve_pcg`` reads it off the coarse operator."""
    upper = upper.tocoo()
    return int((upper.col - upper.row).max(initial=0))


def band_of(upper, band):
    """Upper triangular ``upper`` in LAPACK upper band storage with ``band`` superdiagonals."""
    upper = upper.tocoo()
    ab = np.zeros((band + 1, upper.shape[0]), order="F")
    ab[band + upper.row - upper.col, upper.col] = upper.data
    return ab


def formed_factor(system, monkeypatch):
    """The band Cholesky factor of the coarse operator that ``solve_pcg``'s
    preconditioner forms for ``system``."""
    factors = []
    cholesky = solver._band_cholesky

    def recorded(ab):
        factors.append(cholesky(ab))
        return factors[-1]
    with monkeypatch.context() as patch:
        patch.setattr(solver, "_band_cholesky", recorded)
        solver._two_level_preconditioner(system)
    return factors[0]


def assert_same_csr(got, want):
    """Two CSR matrices store the same entries in the same order, bit for bit."""
    assert got.shape == want.shape
    for part in ("data", "indices", "indptr"):
        assert getattr(got, part).tobytes() == getattr(want, part).tobytes(), part


def dense_from_band(ab):
    """The symmetric matrix held in LAPACK upper band storage ``ab``."""
    band, n = ab.shape[0] - 1, ab.shape[1]
    upper = sp.dia_matrix((ab, band - np.arange(band + 1)), shape=(n, n)).toarray()
    return upper + np.triu(upper, 1).T


# ------------------------------------------------------- element stiffness

class TestElementStiffness:
    def test_matches_bmatrix_oracle_unit_tet(self):
        # through assemble on a one-element mesh, whose DOFs are the element's
        mesh = single_tet_mesh()
        k = assemble_all(mesh, uniform_field(mesh, e=1200.0, nu=0.3)).toarray()
        ref = k_via_bmatrix(unit_tet_coords(), 1200.0, 0.3)
        assert np.allclose(k, ref, rtol=1e-9, atol=1e-9 * np.abs(ref).max())

    def test_matches_bmatrix_oracle_random_tets(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            corners = rng.uniform(0, 1, (4, 3))
            if np.linalg.det(corners[1:] - corners[0]) < 0.05:
                corners[[1, 2]] = corners[[2, 1]]
            if np.linalg.det(corners[1:] - corners[0]) < 0.05:
                continue
            pairs = [(0, 1), (1, 2), (2, 0), (0, 3), (1, 3), (2, 3)]
            coords = np.vstack([corners] + [(corners[i] + corners[j]) / 2
                                            for i, j in pairs])
            e, nu = rng.uniform(500, 5000), rng.uniform(0.1, 0.45)
            k = element_stiffness(coords, e, nu)
            ref = k_via_bmatrix(coords, e, nu)
            assert np.allclose(k, ref, rtol=1e-9, atol=1e-9 * np.abs(ref).max())

    def test_gradient_convention_reproduces_affine_field(self):
        # For f(x) = c . x sampled at the nodes, the interpolant gradient
        # must equal c on any element, whatever the Jacobian handedness.
        rng = np.random.default_rng(3)
        corners = np.array([[0.1, 0.0, 0.2], [1.3, 0.2, -0.1],
                            [0.2, 1.1, 0.3], [0.4, 0.3, 1.5]])
        pairs = [(0, 1), (1, 2), (2, 0), (0, 3), (1, 3), (2, 3)]
        coords = np.vstack([corners] + [(corners[i] + corners[j]) / 2
                                        for i, j in pairs])
        c = rng.standard_normal(3)
        f = coords @ c
        # grad L_1..3 are the rows of the inverse corner edge matrix; grad L_0 is minus their sum
        inv = np.linalg.inv((corners[1:] - corners[0]).T)
        grad_l = np.vstack([-inv.sum(axis=0), inv])
        for bary in (*TET_RULE[0], *KEAST_RULE[0]):
            coeffs = solver._gradient_coefficients(bary[None])[0]
            assert np.allclose((coeffs @ grad_l).T @ f, c, atol=1e-12)

    def test_exactly_symmetric(self):
        k = element_stiffness(unit_tet_coords(), 800.0, 0.25)
        assert (k == k.T).all()

    def test_rigid_motions_produce_no_force(self):
        coords = unit_tet_coords()
        k = element_stiffness(coords, 1000.0, 0.3)
        u_t = np.tile([1.0, -2.0, 0.5], 10)
        assert np.abs(k @ u_t).max() < 1e-9 * np.abs(k).max()
        omega = np.array([0.3, -0.2, 0.1])
        u_r = np.cross(omega, coords).ravel()
        assert np.abs(k @ u_r).max() < 1e-9 * np.abs(k).max()

    def test_uniform_strain_energy_oracle(self):
        # E=1, nu=0 -> lambda=0, mu=1/2; uniform eps_zz = d on the unit tet
        # (volume 1/6): energy = (lambda+2 mu)/2 * d^2 * V = d^2 / 12
        coords = unit_tet_coords()
        k = element_stiffness(coords, 1.0, 0.0)
        d = 1e-3
        u = np.zeros((10, 3))
        u[:, 2] = d * coords[:, 2]
        energy = 0.5 * u.ravel() @ k @ u.ravel()
        assert energy == pytest.approx(d * d / 12.0, rel=1e-12)

    def test_translation_invariance(self):
        coords = unit_tet_coords()
        k0 = element_stiffness(coords, 900.0, 0.2)
        k1 = element_stiffness(coords + np.array([3.0, -7.0, 11.0]), 900.0, 0.2)
        assert np.allclose(k0, k1, rtol=1e-12, atol=1e-9)

    def test_rotation_invariance_of_energy(self):
        coords = unit_tet_coords()
        rot = RigidMotion.about_axis((1, 2, 3), 37.0, ORIGIN, ORIGIN).rotation
        k0 = element_stiffness(coords, 900.0, 0.2)
        k1 = element_stiffness(coords @ rot.T, 900.0, 0.2)
        rng = np.random.default_rng(5)
        u = rng.standard_normal((10, 3))
        e0 = u.ravel() @ k0 @ u.ravel()
        e1 = (u @ rot.T).ravel() @ k1 @ (u @ rot.T).ravel()
        assert e1 == pytest.approx(e0, rel=1e-10)

    def test_inverted_element_rejected(self):
        # a Mesh refuses such an element too; the kernel keeps its own guard
        coords = unit_tet_coords().copy()
        coords[3, 2] = -1.0  # flip apex below the base
        pairs = [(0, 1), (1, 2), (2, 0), (0, 3), (1, 3), (2, 3)]
        coords[4:] = [(coords[i] + coords[j]) / 2 for i, j in pairs]
        with pytest.raises(SolverError, match="Jacobian"):
            element_stiffness(coords, 100.0, 0.3)


# --------------------------------------------------------------- assembly

class TestAssembly:
    def test_assembled_matrix_symmetric_and_deterministic(self):
        mesh = build_phantom(PhantomSpec(nx=2, ny=2, nz_vertebra=1))
        field = uniform_field(mesh)
        k1 = assemble_all(mesh, field)
        k2 = assemble_all(mesh, field)
        assert isinstance(k1, sp.bsr_matrix) and k1.blocksize == (3, 3)
        assert k1.data.tobytes() == k2.data.tobytes()
        assert_bitwise_symmetric(k1)

    def test_part_split_equals_full_assembly(self):
        mesh = build_phantom(PhantomSpec(nx=2, ny=2, nz_vertebra=1))
        field = uniform_field(mesh)
        full = assemble_all(mesh, field)
        pids = sorted(mesh.part_table)
        combined = assemble(mesh, field, part_ids=pids[:1])
        combined = combined + assemble(mesh, field, part_ids=pids[1:])
        delta = np.abs((full - combined).data)
        assert delta.max() < 1e-10 * np.abs(full.data).max() if delta.size else True

    def test_uncovered_elements_rejected(self):
        mesh = build_phantom(PhantomSpec(nx=1, ny=1, nz_vertebra=1))
        field = MaterialField.unset_for(mesh)
        field = assign_uniform(mesh, field, 0, 100.0, 0.3)
        with pytest.raises(MaterialError, match="no material"):
            assemble_all(mesh, field)

    def test_unknown_part_is_a_mesh_error(self):
        mesh = build_phantom(PhantomSpec(nx=1, ny=1, nz_vertebra=1))
        with pytest.raises(MeshError, match=r"^unknown part ids \[99\]$"):
            assemble(mesh, uniform_field(mesh), part_ids=[99])

    def test_mesh_without_elements_is_a_mesh_error(self):
        mesh = Mesh(nodes=np.zeros((0, 3)), elements=np.zeros((0, 10)), parts=np.zeros(0),
                    part_table={})
        with pytest.raises(MeshError, match="no elements"):
            assemble_all(mesh, MaterialField.unset_for(mesh))

    def test_chunking_changes_nothing(self, monkeypatch):
        # each component is summed element by element in order, whatever the
        # chunk: chunks of 7, the default, and one chunk of all 120 elements,
        # on every part and on a selection of parts
        mesh = build_phantom(PhantomSpec(nx=2, ny=2, nz_vertebra=1))
        field = uniform_field(mesh)
        selections = (list(mesh.part_table), [2, 3])
        wants = [assemble(mesh, field, part_ids=part_ids) for part_ids in selections]
        assert all(want.data.flags.c_contiguous for want in wants)
        for chunk in (7, mesh.elements.shape[0]):
            monkeypatch.setattr(solver, "ASSEMBLY_CHUNK", chunk)
            for part_ids, want in zip(selections, wants):
                got = assemble(mesh, field, part_ids=part_ids)
                for part in ("data", "indices", "indptr"):
                    assert getattr(got, part).tobytes() == getattr(want, part).tobytes(), part

    # None: every part
    @pytest.mark.parametrize("part_ids, element", [([2], 15), ([2, 3], 21), (None, 21)])
    def test_inverted_element_named_by_mesh_id(self, monkeypatch, part_ids, element):
        # parts hold 6 elements each; with chunks of 7, element 21 is the
        # third of the second chunk of parts 2 and 3
        mesh = build_phantom(PhantomSpec(nx=1, ny=1, nz_vertebra=1))
        part_ids = list(mesh.part_table) if part_ids is None else part_ids
        field = uniform_field(mesh)
        # swapped after the mesh's own checks, so that the kernel sees it
        mesh.elements[element, :2] = mesh.elements[element, 1::-1]
        monkeypatch.setattr(solver, "ASSEMBLY_CHUNK", 7)
        with pytest.raises(SolverError, match=rf"^element {element} has non-positive Jacobian$"):
            assemble(mesh, field, part_ids=part_ids)

    @pytest.mark.parametrize("overflowing, element", [(slice(None), 0), ([21], 21), ([9, 21], 9)],
                             ids=["every", "one", "two"])
    def test_overflowing_stiffness_is_one_error_naming_its_element(self, overflowing, element):
        # a 1e308 MPa modulus takes an element's stiffness past float64: one
        # SolverError and no numpy warning; it names the element itself, not a
        # neighbour whose node pairs it shares, and the first of two
        mesh = build_phantom(PhantomSpec(nx=1, ny=1, nz_vertebra=1))
        field = uniform_field(mesh)
        field.e_mpa[overflowing] = 1e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SolverError, match=rf"^element {element} has a stiffness "
                                                  r"that overflows float64$"):
                assemble_all(mesh, field)

    UNIQUE_KEYS = {
        "empty": np.zeros(0, dtype=np.int64),
        "one": np.array([7], dtype=np.int64),
        "all_equal": np.full(9, 5, dtype=np.int64),
        "random": np.random.default_rng(1).integers(0, 2 ** 40, 10_000),
        "repeated": np.random.default_rng(2).integers(0, 50, 10_000),
        # 3 positions take 2 bits: 2**61 is the first key they overflow
        "widest": np.array([2 ** 61 - 1, 5, 2 ** 61 - 1], dtype=np.int64),
        "wide": np.array([2 ** 61, 5, 2 ** 62, 2 ** 61], dtype=np.int64),
    }

    @pytest.mark.parametrize("name", list(UNIQUE_KEYS))
    def test_value_sort_is_np_unique(self, name):
        # one value sort of key << s | position gives np.unique's keys and
        # inverse, the inverse as int32; keys too wide for the shift fall back
        keys = self.UNIQUE_KEYS[name]
        want, want_inverse = np.unique(keys, return_inverse=True)
        got, inverse = solver._unique_inverse(keys.copy())
        assert got.dtype == np.int64 and got.tobytes() == want.tobytes()
        assert inverse.dtype == np.int32 and np.array_equal(inverse, want_inverse)


@pytest.fixture(scope="module")
def trend_model():
    from spinefe.pipeline import build_model, load_config
    from test_acceptance import trend_config
    return build_model(load_config(trend_config()))


class TestTrendAssembly:
    def test_matrix_equals_its_transpose_bit_for_bit(self, trend_model):
        # the system at a modulus multiplies by both free-free blocks: each is
        assert_bitwise_symmetric(assemble_all(trend_model.mesh, trend_model.materials))
        for block in (trend_model.system.static, trend_model.system.blocks[0]):
            assert_bitwise_symmetric(block.k_ff)

    def test_two_assemblies_give_identical_bytes(self, trend_model):
        a, b = (assemble_all(trend_model.mesh, trend_model.materials) for _ in range(2))
        for part in ("data", "indices", "indptr"):
            assert getattr(a, part).tobytes() == getattr(b, part).tobytes(), part

    def test_reduced_matrix_stores_no_round_off_for_exact_zeros(self, trend_model):
        # entries that cancel exactly leave the static block; a kernel that
        # turns them into round-off slows every product
        assert trend_model.system.static.k_ff.nnz <= 481_467


# ----------------------------------------------------- constraints, solve

def cube_mesh(n=1, size=1.0):
    spec = PhantomSpec(width_mm=size, depth_mm=size, vertebra_height_mm=size,
                       disc_height_mm=size, pot_height_mm=size, n_vertebrae=1,
                       nx=n, ny=n, nz_vertebra=n, nz_pot=1)
    mesh = build_phantom(spec)
    sel = np.flatnonzero(mesh.parts == 1)
    used = np.unique(mesh.elements[sel])
    remap = np.full(mesh.n_nodes, -1, dtype=np.int64)
    remap[used] = np.arange(used.size)
    nodes = mesh.nodes[used].copy()
    nodes[:, 2] -= nodes[:, 2].min()
    return Mesh(nodes=nodes, elements=remap[mesh.elements[sel]],
                parts=np.zeros(sel.size, dtype=np.int64),
                part_table={0: Part("cube", PartRole.VERTEBRA)})


def clamp_and_drive(mesh, fixed, driven, motion):
    """``fixed`` held at zero, ``driven`` following the strain-free
    linearisation of ``motion``: the constraints of a potted specimen."""
    return BoundaryConditionSet(
        np.concatenate([fixed, driven]),
        np.concatenate([np.zeros((fixed.size, 3)),
                        motion.small_displacement(mesh.nodes[driven])]))


class TestBoundaryConditions:
    def test_node_constrained_twice_rejected(self):
        with pytest.raises(SolverError, match="twice"):
            BoundaryConditionSet([0, 1, 2, 1], np.zeros((4, 3)))

    def test_empty_constraints_rejected(self):
        with pytest.raises(SolverError, match="at least one"):
            BoundaryConditionSet([], np.zeros((0, 3)))

    def test_out_of_range_node_rejected(self):
        mesh = cube_mesh()
        field = uniform_field(mesh)
        k_full = assemble_all(mesh, field)
        bcs = BoundaryConditionSet([10_000], np.zeros((1, 3)))
        with pytest.raises(SolverError, match="out of range"):
            apply_bcs(k_full, bcs, mesh)

    @pytest.mark.parametrize("nodes", [[0.9, 2.2], [True, False], [0.0, 2.0]],
                             ids=["fractional", "bool", "integral-float"])
    def test_non_integer_node_ids_rejected(self, nodes):
        with pytest.raises(SolverError, match="node ids must be integers"):
            BoundaryConditionSet(nodes, np.zeros((2, 3)))

    def test_matrix_of_another_mesh_size_rejected(self):
        # 99 nodes need a 297 x 297 matrix; a 30 x 30 corner of it is refused
        mesh = build_phantom(PhantomSpec(nx=1, ny=1, nz_vertebra=1))
        corner = assemble_all(mesh, uniform_field(mesh)).tocsr()[:30, :30]
        bcs = BoundaryConditionSet([0, 1], np.zeros((2, 3)))
        with pytest.raises(SolverError, match=r"\(30, 30\).*\(297, 297\)"):
            apply_bcs(corner, bcs, mesh)
        # and so is a second block reduced under the constraints of the first
        reduced = apply_bcs(assemble_all(mesh, uniform_field(mesh)), bcs, mesh)
        with pytest.raises(SolverError, match=r"\(30, 30\).*\(297, 297\)"):
            reduced.reduce(corner)

    def test_prescribed_values_shape_checked(self):
        with pytest.raises(SolverError, match="shape"):
            BoundaryConditionSet([0, 1], np.zeros((3, 3)))

    @pytest.mark.parametrize("bad", [np.inf, np.nan], ids=["inf", "nan"])
    def test_non_finite_values_rejected(self, bad):
        values = np.zeros((2, 3))
        values[1, 2] = bad
        with pytest.raises(SolverError, match="non-finite"):
            BoundaryConditionSet([0, 1], values)

    def test_rigid_motion_driven_bc_recovers_motion_displacements(self):
        mesh = cube_mesh(1)
        field = uniform_field(mesh)
        k_full = assemble_all(mesh, field)
        motion = RigidMotion.about_axis((0, 1, 0), 1.5, (0.5, 0.5, 0.5), ORIGIN)
        all_nodes = np.arange(mesh.n_nodes)
        bcs = BoundaryConditionSet(all_nodes, motion.small_displacement(mesh.nodes))
        reduced = apply_bcs(k_full, bcs, mesh)
        u, stats = solve_pcg(reduced, tol=PCG_TOL)
        want = motion.small_displacement(mesh.nodes)
        assert np.allclose(u, want, atol=1e-14)
        assert stats.iterations == 0

    def test_driven_bc_drives_a_strain_free_field(self):
        # a finite rotation prescribed verbatim would imprint an apparent
        # strain of theta^2/2; the linearized drive must leave a fully
        # driven body unstrained and unloaded
        mesh = cube_mesh(2)
        field = uniform_field(mesh, e=5000.0, nu=0.3)
        k_full = assemble_all(mesh, field)
        motion = RigidMotion.about_axis((1, 0, 0), 4.0, pivot=(0.3, 0.7, 0.1),
                                        extra_translation=(0.0, 0.0, -0.2))
        bcs = BoundaryConditionSet(np.arange(mesh.n_nodes),
                                   motion.small_displacement(mesh.nodes))
        reduced = apply_bcs(k_full.copy(), bcs, mesh)     # the reduction consumes its block
        u, _ = solve_pcg(reduced, tol=PCG_TOL)
        forces = k_full @ u.ravel()
        scale = 5000.0 * np.abs(u).max()
        assert np.abs(forces).max() <= 1e-12 * scale


class TestSolvePCG:
    def test_matches_dense_solve(self):
        # small constrained system: bottom fixed, top driven
        mesh = cube_mesh(2)
        field = uniform_field(mesh, e=5000.0, nu=0.3)
        k_full = assemble_all(mesh, field)
        bottom = np.flatnonzero(np.isclose(mesh.nodes[:, 2], 0.0))
        top = np.flatnonzero(np.isclose(mesh.nodes[:, 2], 1.0))
        motion = RigidMotion(np.eye(3), [0.01, 0.0, -0.02])
        bcs = clamp_and_drive(mesh, bottom, top, motion)
        reduced = apply_bcs(k_full, bcs, mesh)
        u, stats = solve_pcg(reduced, tol=1e-12)
        dense = np.linalg.solve(reduced.k_ff.toarray(), reduced.rhs)
        assert np.linalg.norm(u.ravel()[reduced.free] - dense) <= \
            1e-8 * np.linalg.norm(dense)
        assert stats.iterations > 0
        assert stats.residual <= 1e-12

    def test_prescribed_values_exact(self):
        mesh = cube_mesh(2)
        field = uniform_field(mesh)
        k_full = assemble_all(mesh, field)
        bottom = np.flatnonzero(np.isclose(mesh.nodes[:, 2], 0.0))
        top = np.flatnonzero(np.isclose(mesh.nodes[:, 2], 1.0))
        motion = RigidMotion(np.eye(3), [0.0, 0.0, -0.05])
        bcs = clamp_and_drive(mesh, bottom, top, motion)
        u, _ = solve_pcg(apply_bcs(k_full, bcs, mesh), tol=PCG_TOL)
        assert (u[bottom] == 0.0).all()
        assert np.allclose(u[top], [0.0, 0.0, -0.05], atol=0.0)

    def test_solve_before_apply_bcs_rejected(self):
        mesh = cube_mesh(1)
        k_full = assemble_all(mesh, uniform_field(mesh))
        with pytest.raises(SolverError, match="apply_bcs"):
            solve_pcg(k_full, tol=PCG_TOL)

    def test_iteration_budget_enforced(self, monkeypatch):
        mesh = cube_mesh(2)
        k_full = assemble_all(mesh, uniform_field(mesh))
        bottom = np.flatnonzero(np.isclose(mesh.nodes[:, 2], 0.0))
        top = np.flatnonzero(np.isclose(mesh.nodes[:, 2], 1.0))
        bcs = clamp_and_drive(mesh, bottom, top, RigidMotion(np.eye(3), [0, 0, -0.1]))
        reduced = apply_bcs(k_full, bcs, mesh)
        monkeypatch.setattr(solver, "pcg_max_iter", lambda n: 2)
        with pytest.raises(ConvergenceError, match="after 2 iterations"):
            solve_pcg(reduced, tol=PCG_TOL)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e200])
    def test_non_finite_rhs_rejected(self, bad):
        # a NaN norm fails "bnorm > 0.0"; unchecked, the zero field would pass as
        # converged.  A finite entry whose square overflows gives an infinite norm:
        # unchecked, the starting residual would read inf / inf = NaN
        mesh = cube_mesh(2)
        k_full = assemble_all(mesh, uniform_field(mesh))
        bottom = np.flatnonzero(np.isclose(mesh.nodes[:, 2], 0.0))
        top = np.flatnonzero(np.isclose(mesh.nodes[:, 2], 1.0))
        bcs = clamp_and_drive(mesh, bottom, top, RigidMotion(np.eye(3), [0, 0, -0.1]))
        reduced = apply_bcs(k_full, bcs, mesh)
        reduced.rhs[0] = bad
        match = "non-finite" if not np.isfinite(bad) else "norm of the right-hand side"
        with pytest.raises(SolverError, match=match):
            solve_pcg(reduced, tol=PCG_TOL)

    @pytest.mark.parametrize("loading", ["displacement", "load"])
    def test_single_node_constraint_rejected(self, loading):
        # one pinned node leaves the rotations free: the solution is not
        # unique, whether or not the right-hand side happens to be consistent
        mesh = build_phantom(PhantomSpec())
        k_full = assemble_all(mesh, uniform_field(mesh, e=1000.0, nu=0.3))
        value = np.zeros((1, 3))
        if loading == "displacement":
            value[0] = [0.01, -0.02, 0.03]
        reduced = apply_bcs(k_full, BoundaryConditionSet([0], value), mesh)
        if loading == "load":
            rhs = np.random.default_rng(0).normal(size=reduced.rhs.shape)
            reduced = replace(reduced, rhs=rhs)
        with pytest.raises(SolverError):
            solve_pcg(reduced, tol=PCG_TOL)

    def test_all_corner_nodes_prescribed_matches_dense(self):
        # the coarse space is then empty and only the midside DOFs are free
        mesh = cube_mesh(2)
        k_full = assemble_all(mesh, uniform_field(mesh, e=5000.0, nu=0.3))
        corners = np.unique(mesh.elements[:, :4])
        values = np.random.default_rng(3).normal(0.0, 1e-3, (corners.size, 3))
        bcs = BoundaryConditionSet(corners, values)
        reduced = apply_bcs(k_full, bcs, mesh)
        assert reduced.restriction.T.shape == (reduced.free.size, 0)
        u, _ = solve_pcg(reduced, tol=1e-12)
        dense = np.linalg.solve(reduced.k_ff.toarray(), reduced.rhs)
        assert np.linalg.norm(u.ravel()[reduced.free] - dense) <= \
            1e-8 * np.linalg.norm(dense)

    def _bar(self):
        mesh = cube_mesh(2)
        k_full = assemble_all(mesh, uniform_field(mesh, e=5000.0, nu=0.3))
        bottom = np.flatnonzero(np.isclose(mesh.nodes[:, 2], 0.0))
        top = np.flatnonzero(np.isclose(mesh.nodes[:, 2], 1.0))
        motion = RigidMotion.about_axis((1, 0, 0), 0.5, pivot=(0.5, 0.5, 1.0),
                                        extra_translation=(0.0, 0.0, -0.02))
        bcs = clamp_and_drive(mesh, bottom, top, motion)
        return apply_bcs(k_full, bcs, mesh)

    def test_exact_guess_returns_without_factoring(self, monkeypatch):
        reduced = self._bar()
        u, _ = solve_pcg(reduced, tol=1e-13)

        def no_factor(*args, **kwargs):
            raise AssertionError("coarse operator factored")
        monkeypatch.setattr(solver, "dpbtrf", no_factor)
        x0 = u.ravel()[reduced.free]
        again, stats = solve_pcg(reduced, tol=1e-9, x0=x0)
        assert stats.iterations == 0
        assert stats.residual == stats.true_residual <= 1e-9
        assert again.ravel()[reduced.free].tobytes() == x0.tobytes()

    def test_exact_guess_costs_one_product(self):
        reduced = self._bar()
        u, _ = solve_pcg(reduced, tol=1e-13)
        products = []

        class Counting(type(reduced.k_ff)):
            def __matmul__(self, other):
                products.append(1)
                return super().__matmul__(other)

        reduced.k_ff = Counting(reduced.k_ff)
        _, stats = solve_pcg(reduced, tol=1e-9, x0=u.ravel()[reduced.free])
        assert stats.iterations == 0
        assert stats.true_residual == stats.residual
        assert len(products) == 1

    def test_poor_guess_meets_the_same_stop(self):
        reduced = self._bar()
        cold, cold_stats = solve_pcg(reduced, tol=1e-10)
        x0 = np.random.default_rng(2).normal(0.0, 1.0, reduced.free.size)
        warm, stats = solve_pcg(reduced, tol=1e-10, x0=x0)
        assert stats.iterations > 0
        assert stats.residual <= 1e-10
        assert stats.true_residual <= 2e-10
        assert np.abs(warm - cold).max() <= 1e-8 * np.abs(cold).max()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("start", ["cold", "warm"])
    def test_non_finite_starting_residual_rejected(self, bad, start):
        # an overflowed K_ff entry makes rhs - K_ff x0 non-finite (inf * 0 is
        # NaN); a NaN residual fails "resid > tol", so unchecked a cold start
        # would return the zero field as converged
        reduced = self._bar()
        reduced.k_ff = reduced.k_ff.copy()
        reduced.k_ff.data[0] = bad
        x0 = None if start == "cold" else np.ones(reduced.free.size)
        with pytest.raises(SolverError, match="starting residual is (nan|inf)"):
            solve_pcg(reduced, tol=PCG_TOL, x0=x0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_guess_rejected(self, bad):
        reduced = self._bar()
        x0 = np.zeros(reduced.free.size)
        x0[3] = bad
        with pytest.raises(SolverError, match="initial guess"):
            solve_pcg(reduced, tol=PCG_TOL, x0=x0)

    def test_zero_rhs_ignores_the_guess(self):
        reduced = self._bar()
        reduced.rhs[:] = 0.0
        u, stats = solve_pcg(reduced, tol=PCG_TOL, x0=np.ones(reduced.free.size))
        assert (u.ravel()[reduced.free] == 0.0).all()
        assert stats.iterations == 0

    def test_misshapen_guess_rejected(self):
        reduced = self._bar()
        with pytest.raises(SolverError, match="initial guess"):
            solve_pcg(reduced, tol=PCG_TOL, x0=np.zeros(reduced.free.size + 1))

    def test_coarse_operator_is_galerkin_product(self):
        # the upper triangle, within the band, of P^T K_ff P
        reduced = self._bar()
        p = reduced.restriction.T
        want = (p.T @ reduced.k_ff @ p).toarray()
        upper = reduced.k_coarse.tocoo()
        assert (upper.col - upper.row).min() >= 0
        assert np.abs(dense_from_band(band_of(upper, superdiagonals(upper))) - want).max() <= \
            1e-12 * np.abs(want).max()

    def test_coarse_term_is_the_dense_coarse_solve(self):
        reduced = self._bar()
        precondition = solver._two_level_preconditioner(reduced)
        r = np.random.default_rng(6).normal(size=reduced.free.size)
        coarse = precondition(r) - r / reduced.k_ff.diagonal()
        p = reduced.restriction.T
        band = superdiagonals(reduced.k_coarse)
        want = p @ np.linalg.solve(dense_from_band(band_of(reduced.k_coarse, band)), p.T @ r)
        assert np.linalg.norm(coarse - want) <= 1e-12 * np.linalg.norm(want)

    def test_factoring_leaves_the_coarse_operator_as_it_is(self, trend_model):
        # a system may be solved again, so forming and factoring its coarse
        # operator writes none of its arrays, k_coarse included: a system of
        # apply_bcs, and one formed at a modulus, each solve twice to the
        # same field, byte for byte, and leave the parametric system as it is
        parametric = trend_model.system
        held = held_bytes(parametric)
        for reduced in (self._bar(), parametric.at((25.0,))):
            before = held_bytes(reduced)
            u, stats = solve_pcg(reduced, tol=PCG_TOL)
            assert stats.iterations > 0
            assert held_bytes(reduced) == before
            assert solve_pcg(reduced, tol=PCG_TOL)[0].tobytes() == u.tobytes()
        assert held_bytes(parametric) == held

    def test_formed_system_factors_its_own_band(self, trend_model, monkeypatch):
        # a system formed at a modulus factors its own coarse operator, in
        # an array that shares no memory with it or the parametric system:
        # the factor of the static band plus the modulus times the unit one
        parametric, e = trend_model.system, 25.0
        formed = parametric.at((e,))
        factor = formed_factor(formed, monkeypatch)
        assert not any(np.shares_memory(factor, m.k_coarse.data)
                       for m in (parametric.static, parametric.blocks[0], formed))
        band = superdiagonals(formed.k_coarse)
        want = solver.dpbtrf(band_of(parametric.blocks[0].k_coarse, band) * e
                             + band_of(parametric.static.k_coarse, band))[0]
        assert factor.tobytes() == want.tobytes()

    @pytest.mark.parametrize("spread, cause", [(1.0, "rigid-body motion free"),
                                               (1e20, r"stiffness contrast of 1.0e\+20")])
    def test_in_place_failure_reads_the_saved_diagonal(self, trend_model, spread, cause):
        # the factor's dpbtrf overwrites the band it is given, so the message
        # reads the diagonal saved before it: a singular band of ones, or a
        # diagonal band whose 1e20 spread puts its pivots below
        # COARSE_PIVOT_RTOL (its factor's diagonal spreads only 1e10)
        formed = trend_model.system.at((25.0,))
        n = formed.k_coarse.shape[0]
        diagonal = np.ones(n)
        diagonal[0] = spread
        upper = sp.diags([diagonal, np.full(n - 1, 1.0 if spread == 1.0 else 0.0)], [0, 1],
                         format="csr")
        with pytest.raises(SolverError, match=f"singular or indefinite: .*{cause}"):
            solve_pcg(replace(formed, k_coarse=upper), tol=PCG_TOL)

    def test_indefinite_coarse_operator_rejected(self):
        # K_ff keeps its positive diagonal, so the band Cholesky is the
        # first to meet the negated A_c
        reduced = self._bar()
        with pytest.raises(SolverError, match="singular or indefinite"):
            solve_pcg(replace(reduced, k_coarse=-reduced.k_coarse), tol=PCG_TOL)

    def test_node_renumbering_keeps_the_band_narrow(self):
        # the trend phantom, solved as built and with its nodes shuffled
        mesh = build_phantom(PhantomSpec(nx=5, ny=4, nz_vertebra=4, nz_disc=2, nz_pot=2))
        perm = np.random.default_rng(8).permutation(mesh.n_nodes)
        nodes = np.empty_like(mesh.nodes)
        nodes[perm] = mesh.nodes
        shuffled = Mesh(nodes=nodes, elements=perm[mesh.elements], parts=mesh.parts,
                        part_table=mesh.part_table)
        z = mesh.nodes[:, 2]
        bottom = np.flatnonzero(np.isclose(z, z.min()))
        top = np.flatnonzero(np.isclose(z, z.max()))
        motion = RigidMotion.about_axis((1, 0, 0), 2.0, pivot=mesh.nodes[top].mean(axis=0),
                                        extra_translation=(0.0, 0.0, -0.5))
        solved = []
        for m, fixed, driven in ((mesh, bottom, top), (shuffled, perm[bottom], perm[top])):
            reduced = apply_bcs(assemble_all(m, uniform_field(m)),
                                clamp_and_drive(m, fixed, driven, motion), m)
            u, _ = solve_pcg(reduced, tol=1e-12)
            solved.append((superdiagonals(reduced.k_coarse), u))
        (band, u), (shuffled_band, shuffled_u) = solved
        assert shuffled_band <= 1.5 * band
        assert np.abs(shuffled_u[perm] - u).max() <= 1e-9 * np.abs(u).max()

    def test_coarse_space_interpolates_affine_fields_exactly(self):
        # tet10 contains P1: interpolating an affine field from the corner
        # nodes reproduces it at every node
        mesh = cube_mesh(2)
        k_full = assemble_all(mesh, uniform_field(mesh))
        midside = int(mesh.elements[0, 4])
        reduced = apply_bcs(k_full, BoundaryConditionSet([midside], np.zeros((1, 3))), mesh)
        corners = np.unique(mesh.elements[:, :4])
        corner_dofs = (3 * corners[:, None] + np.arange(3)).ravel()
        p = reduced.restriction.T
        assert p.shape == (reduced.free.size, corner_dofs.size)
        # a coarse column is the corner DOF whose row of P holds its lone 1
        p = p.tocoo()
        own = p.data == 1.0
        column_dofs = np.full(corner_dofs.size, -1)
        column_dofs[p.col[own]] = reduced.free[p.row[own]]
        assert np.array_equal(np.sort(column_dofs), corner_dofs)
        a = np.random.default_rng(5).normal(size=(3, 3))
        field = (mesh.nodes @ a.T + [0.1, -0.2, 0.3]).ravel()
        got = reduced.restriction.T @ field[column_dofs]
        assert np.abs(got - field[reduced.free]).max() <= 1e-14 * np.abs(field).max()


def corner_graph(mesh):
    """The graph of corner nodes that share an element, as ``_corner_restriction``
    builds it."""
    corners = np.unique(mesh.elements[:, :4])
    local = np.searchsorted(corners, mesh.elements[:, :4])
    return sp.csr_matrix((np.ones(local.size * 4), (np.repeat(local, 4, axis=1).ravel(),
                                                    np.tile(local, (1, 4)).ravel())),
                         shape=(corners.size, corners.size))


def kron_restriction(mesh, free):
    """P^T built as scipy builds it: P on the nodes from COO, its Kronecker
    product with I_3, sliced to the free DOFs, transposed to CSR, on
    scipy's reverse Cuthill-McKee order of the corner graph."""
    elem_corners = mesh.elements[:, :4]
    corners = np.unique(elem_corners)
    corners = corners[reverse_cuthill_mckee(corner_graph(mesh), symmetric_mode=True)]
    coarse_id = np.full(mesh.n_nodes, -1)
    coarse_id[corners] = np.arange(corners.size)
    mids, first = np.unique(mesh.elements[:, 4:], return_index=True)
    ends = elem_corners[:, EDGE_PAIRS].reshape(-1, 2)[first]
    rows = np.concatenate([corners, mids, mids])
    cols = np.concatenate([coarse_id[corners], coarse_id[ends[:, 0]], coarse_id[ends[:, 1]]])
    vals = np.concatenate([np.ones(corners.size), np.full(2 * mids.size, 0.5)])
    p_nodes = sp.csr_matrix((vals, (rows, cols)), shape=(mesh.n_nodes, corners.size))
    p_dofs = sp.kron(p_nodes, sp.identity(3), format="csr")
    corner_dofs = (3 * corners[:, None] + np.arange(3)).ravel()
    return p_dofs[free][:, np.flatnonzero(np.isin(corner_dofs, free))].T.tocsr()


def random_symmetric_graph(seed):
    """A seeded symmetric graph; one in two stores the diagonal of about half
    its nodes, and sparse ones fall into several components."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 60))
    i, j = rng.integers(0, n, size=(2, int(rng.integers(0, 3 * n))))
    if seed % 2:
        d = np.flatnonzero(rng.random(n) < 0.5)
        i, j = np.concatenate([i, d]), np.concatenate([j, d])
    else:
        i, j = i[i != j], j[i != j]
    return sp.csr_matrix((np.ones(2 * i.size), (np.concatenate([i, j]), np.concatenate([j, i]))),
                         shape=(n, n))


class TestReverseCuthillMcKee:
    """The in-package ordering against scipy's reverse_cuthill_mckee, which
    the package no longer imports, permutation for permutation."""

    @staticmethod
    def assert_same_order(graph):
        got = solver._reverse_cuthill_mckee(graph.indptr, graph.indices)
        want = reverse_cuthill_mckee(graph, symmetric_mode=True)
        assert got.dtype == want.dtype
        assert got.tolist() == want.tolist()

    @pytest.mark.parametrize("spec", [
        PhantomSpec(nx=5, ny=4, nz_vertebra=4, nz_disc=2, nz_pot=2),
        PhantomSpec(nx=9, ny=7, nz_vertebra=9, nz_disc=4, nz_pot=3),
        PhantomSpec(nx=3, ny=3, nz_vertebra=2, nz_disc=1, nz_pot=1, n_vertebrae=3)],
        ids=["trend", "large", "three_vertebrae"])
    def test_phantom_corner_graphs(self, spec):
        self.assert_same_order(corner_graph(build_phantom(spec)))

    def test_random_symmetric_graphs(self):
        graphs = [random_symmetric_graph(seed) for seed in range(200)]
        assert any(0 < np.count_nonzero(g.diagonal()) < g.shape[0] for g in graphs[1::2])
        assert not any(g.diagonal().any() for g in graphs[::2])
        # several components: a BFS from every unvisited seed, in degree order
        assert sum(connected_components(g)[0] > 1 for g in graphs) > 50
        for graph in graphs:
            self.assert_same_order(graph)

    def test_int64_indices(self):
        graph = random_symmetric_graph(7)
        graph.indptr, graph.indices = graph.indptr.astype(np.int64), graph.indices.astype(np.int64)
        self.assert_same_order(graph)

    @pytest.mark.parametrize("spec", [
        PhantomSpec(nx=5, ny=4, nz_vertebra=4, nz_disc=2, nz_pot=2),
        PhantomSpec(nx=11, ny=9, nz_vertebra=10, nz_disc=4, nz_pot=3)], ids=["trend", "ci"])
    def test_restriction_orders_the_coo_graph(self, spec, monkeypatch):
        # _corner_restriction builds the corner graph from its unique keys:
        # the graph it orders is the COO-built one, index dtype included, and
        # the restriction is the one that graph's ordering gives, bit for bit
        mesh = build_phantom(spec)
        z = mesh.nodes[:, 2]
        free = np.setdiff1d(np.arange(3 * mesh.n_nodes),
                            node_dofs(np.flatnonzero((z == z.min()) | (z == z.max()))))
        oracle, ordered = corner_graph(mesh), []
        rcm = solver._reverse_cuthill_mckee

        def of_oracle(indptr, indices):
            ordered.append((indptr, indices))
            return rcm(oracle.indptr, oracle.indices)
        with monkeypatch.context() as patch:
            patch.setattr(solver, "_reverse_cuthill_mckee", of_oracle)
            want = solver._corner_restriction(mesh, free)
        (indptr, indices), = ordered
        assert indices.dtype == oracle.indices.dtype
        assert indptr.tobytes() == oracle.indptr.tobytes()
        assert indices.tobytes() == oracle.indices.tobytes()
        assert_same_csr(solver._corner_restriction(mesh, free), want)

    @pytest.mark.parametrize("spec", [
        PhantomSpec(nx=5, ny=4, nz_vertebra=4, nz_disc=2, nz_pot=2),
        PhantomSpec(nx=11, ny=9, nz_vertebra=10, nz_disc=4, nz_pot=3)], ids=["trend", "ci"])
    def test_restriction_is_the_kron_product(self, spec):
        # built straight from the corner and midside lists, R is scipy's
        # Kronecker-and-slice construction, bit for bit:
        # under the pots' constraints, and under 40 random constrained nodes,
        # which leave midsides with one or both ends prescribed
        mesh = build_phantom(spec)
        z = mesh.nodes[:, 2]
        rng = np.random.default_rng(12)
        for nodes in (np.flatnonzero((z == z.min()) | (z == z.max())),
                      rng.choice(mesh.n_nodes, size=40, replace=False)):
            free = np.setdiff1d(np.arange(3 * mesh.n_nodes), node_dofs(nodes))
            assert_same_csr(solver._corner_restriction(mesh, free), kron_restriction(mesh, free))


def node_dofs(nodes):
    """The DOF ids of the nodes ``nodes``, three a node, in their order."""
    return (3 * np.asarray(nodes)[:, None] + np.arange(3)).ravel()


def dense_coarse(restriction, k_ff, width=128):
    """The dense R K_ff R^T (R = ``restriction``), formed ``width`` coarse
    columns at a time by sparse-dense products: an oracle summed in another
    order than any sparse product of the three."""
    out = np.empty((restriction.shape[0],) * 2)
    for j in range(0, out.shape[1], width):
        out[:, j:j + width] = restriction @ (k_ff @ restriction[j:j + width].T.toarray())
    return out


class TestNodeBlockReduction:
    """The reduction on 3x3 node blocks against plain scipy slicing of the
    CSR matrix, less its zeros, bit for bit."""

    # (rows, cols) node slices: unsorted rows with a node that has no block,
    # then sorted columns, all or some of them
    SLICES = (([5, 0, 4, 2], None), ([0, 1, 3, 5], [1, 2, 4, 5]), ([0, 1, 3, 5], [0, 3]))

    @staticmethod
    def random_blocks():
        """6 nodes' blocks; node 4 has none, and a third of the entries are
        zeros, +0.0 or -0.0 as the sign of the value they replace."""
        rng = np.random.default_rng(3)
        row, col = np.divmod(np.sort(rng.choice(36, size=20, replace=False)), 6)
        keep = row != 4
        row, col = row[keep], col[keep]
        data = rng.normal(size=(row.size, 3, 3)) * (rng.random((row.size, 3, 3)) < 0.67)
        return sp.bsr_matrix((data, col, np.searchsorted(row, np.arange(7))), shape=(18, 18))

    def test_node_rows_are_the_sliced_dofs(self):
        # each slice's nonzero entries, bit for bit and in order, in arrays of
        # their own size; the zeros of either sign that the slice stores go
        k = self.random_blocks()
        zeros = np.signbit(k.data[k.data == 0.0])
        assert zeros.any() and not zeros.all()
        csr = k.tocsr()
        for rows, cols in self.SLICES:
            want = csr[node_dofs(rows)]
            if cols is not None:
                want = want[:, node_dofs(cols)]
            assert (want.data == 0.0).any()
            got = solver._node_rows(k, np.array(rows), None if cols is None else np.array(cols))
            assert_owns_its_entries(got, want)

    def test_nonzero_entries_own_their_arrays(self):
        # node 0's diagonal block stores a +0.0 and a -0.0 and its middle
        # row is zero, its block with node 1 is all -0.0; node 1's diagonal
        # block is nonzero only at its corners
        d00 = [[1.5, 0.0, -0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 2.0]]
        d11 = [[4.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, -3.0]]
        k = sp.bsr_matrix((np.array([d00, np.full((3, 3), -0.0), d11]), [0, 1, 1], [0, 2, 3]),
                          shape=(6, 6))
        before = [a.copy() for a in (k.data, k.indices, k.indptr)]
        got = solver._node_rows(k, np.array([0, 1]))
        assert got.data.tolist() == [1.5, 2.0, 4.0, -3.0]
        assert got.indices.tolist() == [0, 2, 3, 5]
        assert got.indptr.tolist() == [0, 1, 1, 2, 3, 3, 4]
        assert_owns_its_entries(got, k.tocsr())
        # a slice of zeros alone stores nothing
        empty = solver._node_rows(k, np.array([0]), np.array([1]))
        assert empty.shape == (3, 3) and empty.nnz == 0
        assert empty.indptr.tolist() == [0, 0, 0, 0]
        # the argument is only read
        for old, new in zip(before, (k.data, k.indices, k.indptr)):
            assert new.tobytes() == old.tobytes()

    def test_node_rows_do_not_depend_on_the_step(self, trend_model, monkeypatch):
        # steps of one block, of fewer blocks than a trend block row, and the
        # default give the same arrays
        m = trend_model
        k = assemble(m.mesh, m.materials, [p for p in m.mesh.part_table
                                           if p not in m.disc_part_ids])
        free = m.system.static.free[::3] // 3
        assert np.diff(k.indptr).max() > 16
        cases = [(self.random_blocks(), np.array(rows), None if cols is None else np.array(cols),
                  1) for rows, cols in self.SLICES] + [(k, free, free, 16)]
        for matrix, rows, cols, step in cases:
            want = solver._node_rows(matrix, rows, cols)
            with monkeypatch.context() as patch:
                patch.setattr(solver, "EXPANSION_CHUNK", step)
                got = solver._node_rows(matrix, rows, cols)
            assert_same_csr(got, want)

    @staticmethod
    def picked_rhs(k, reduced):
        """-K_fp u_p, with K_fp picked node block by node block: the product
        that the reduction's one product of the whole matrix replaces."""
        free, pres = reduced.free[::3] // 3, reduced.prescribed[::3] // 3
        return solver._node_rows(k, free, pres) @ -reduced.prescribed_u

    def test_rhs_is_the_picked_blocks_product(self, trend_model):
        # (K v)[free], v = -u_p on the prescribed DOFs and +0.0 elsewhere, is
        # the product with the picked free-prescribed block bit for bit: on
        # both trend blocks, on one constrained midside, and on random nodes
        # whose values hold -0.0 and +0.0; a free row that meets no
        # prescribed DOF sums to +0.0
        m = trend_model
        static_parts = [p for p in m.mesh.part_table if p not in m.disc_part_ids]
        for part, ids in ((m.system.static, static_parts), (m.system.blocks[0], m.disc_part_ids)):
            k = assemble(m.mesh, m.materials, ids)
            assert part.rhs.tobytes() == self.picked_rhs(k, part).tobytes()
        mesh = cube_mesh(2)
        k = assemble_all(mesh, uniform_field(mesh))
        rng = np.random.default_rng(11)
        nodes = rng.choice(mesh.n_nodes, size=40, replace=False)
        values = rng.normal(size=(40, 3))
        values[rng.random((40, 3)) < 0.3] = -0.0
        values[rng.random((40, 3)) < 0.1] = 0.0
        assert np.signbit(values[values == 0.0]).any() and not np.signbit(values).all()
        midside = int(mesh.elements[0, 4])
        wants = []
        for bcs in (BoundaryConditionSet([midside], rng.normal(size=(1, 3))),
                    BoundaryConditionSet(nodes, values)):
            reduced = apply_bcs(k.copy(), bcs, mesh)
            wants.append(self.picked_rhs(k, reduced))
            assert reduced.rhs.tobytes() == wants[-1].tobytes()
        zeros = wants[0][wants[0] == 0.0]
        assert zeros.size and not np.signbit(zeros).any()

    def test_coarse_operator_does_not_depend_on_the_step(self, trend_model, monkeypatch):
        # steps of one coarse row and of a few dozen give the one-shot
        # upper triangle of R K_ff R^T, array for array
        for part in (trend_model.system.static, trend_model.system.blocks[0]):
            r = part.restriction
            want = coarse_of(r, part.k_ff)
            assert_same_csr(part.k_coarse, want)
            for step in (1, 500):
                with monkeypatch.context() as patch:
                    patch.setattr(solver, "EXPANSION_CHUNK", step)
                    steps = solver._steps(r.indptr)
                    assert_same_csr(solver._coarse_operator(r, part.k_ff), want)
                single = steps == [(c, c + 1) for c in range(r.shape[0])]
                assert single if step == 1 else 1 < len(steps) < r.shape[0] / 10

    def test_blocks_own_exactly_their_entries(self, trend_model):
        # a block compacted in place keeps a view of its longer buffer; each
        # block is held on its nonzero entries, in arrays of their size
        system = trend_model.system
        for part in (system.static, system.blocks[0]):
            for m in (part.k_ff, part.k_coarse):
                assert_owns_its_entries(m, m)
            assert_bitwise_symmetric(part.k_ff)

    @staticmethod
    def copy_path(k, bcs, mesh):
        """The reduction into arrays of its own, ``k`` left whole: K_ff, the
        right-hand side (k v)[free], R and R K_ff R^T from plain scipy."""
        free, pres, u_p, k_ff, _ = sliced_reduction(k, bcs)
        k_ff = nonzero_entries(k_ff)
        v = np.zeros(k.shape[1])
        v[pres] = -u_p
        restriction = kron_restriction(mesh, free)
        return k_ff, (k @ v)[free], restriction, coarse_of(restriction, k_ff)

    def test_in_place_reduction_is_the_copy_path(self, trend_model):
        # reduced inside the block's own buffer, each trend block and the
        # trend phantom under 40 random constrained nodes give the copy
        # path's K_ff, right-hand side, restriction and coarse operator, and
        # the reaction rows taken before it, bit for bit
        m = trend_model
        static_parts = [p for p in m.mesh.part_table if p not in m.disc_part_ids]
        rng = np.random.default_rng(13)
        nodes = rng.choice(m.mesh.n_nodes, size=40, replace=False)
        random_bcs = BoundaryConditionSet(nodes, rng.normal(size=(40, 3)))
        pots = clamp_and_drive(m.mesh, m.fixed_nodes, m.driven_nodes, m.motion)
        for ids, bcs in ((static_parts, pots), (m.disc_part_ids, pots), (static_parts, random_bcs)):
            k = assemble(m.mesh, m.materials, ids)
            want = self.copy_path(k.copy(), bcs, m.mesh)
            rows = reaction_rows(k, m.driven_nodes)
            assert_owns_its_entries(rows, k.tocsr()[node_dofs(m.driven_nodes)])
            reduced = apply_bcs(k, bcs, m.mesh)
            assert k.data is None
            assert_same_csr(reduced.k_ff, want[0])
            assert_owns_its_entries(reduced.k_ff, want[0])
            assert reduced.rhs.tobytes() == want[1].tobytes()
            assert_same_csr(reduced.restriction, want[2])
            assert_same_csr(reduced.k_coarse, want[3])

    def test_in_place_node_rows_are_the_read_ones(self):
        # sorted rows written into the block's own buffer are the rows read
        # into new arrays, at any step, and a step of one block row writes
        # over the blocks it has read
        k = self.random_blocks()
        for rows, cols in self.SLICES[1:]:
            cols = None if cols is None else np.array(cols)
            want = solver._node_rows(k, np.array(rows), cols)
            for step in (1, 4096):
                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr(solver, "EXPANSION_CHUNK", step)
                    consumed = k.copy()
                    got = solver._node_rows(consumed, np.array(rows), cols, consume=True)
                assert consumed.data is None
                assert_owns_its_entries(got, want)

    def test_consumed_block_is_refused(self):
        # a block's reduction takes its values: reducing it again, taking its
        # rows or multiplying by it is a SolverError, not a silent product
        mesh = cube_mesh(2)
        k = assemble_all(mesh, uniform_field(mesh))
        bcs = BoundaryConditionSet([0, 1, 2], np.zeros((3, 3)))
        reduced = apply_bcs(k, bcs, mesh)
        u = np.zeros(3 * mesh.n_nodes)
        for call in (lambda: apply_bcs(k, bcs, mesh), lambda: reduced.reduce(k),
                     lambda: reaction_rows(k, [0]), lambda: reaction_force(k, u, [0])):
            with pytest.raises(SolverError, match="consumed by its reduction"):
                call()

    def test_shared_values_are_left_intact(self, monkeypatch):
        # the reduction writes into a block's values only when nothing else
        # holds them: a matrix sharing them and a caller's reference to them
        # are left as they were, and the reduction is the same either way
        mesh = cube_mesh(2)
        bcs = BoundaryConditionSet([0, 1, 2], np.zeros((3, 3)))
        want = apply_bcs(assemble_all(mesh, uniform_field(mesh)), bcs, mesh)
        reused = []

        def taken(k):
            address = k.data.ctypes.data
            values = solver_taken(k)
            reused.append(values.ctypes.data == address)
            return values
        solver_taken = solver._taken
        monkeypatch.setattr(solver, "_taken", taken)
        for holder in (lambda k: None, sp.bsr_matrix, lambda k: k.data):
            k = assemble_all(mesh, uniform_field(mesh))
            held, before = holder(k), k.data.copy()
            got = apply_bcs(k, bcs, mesh)
            assert k.data is None
            assert_owns_its_entries(got.k_ff, want.k_ff)
            assert got.rhs.tobytes() == want.rhs.tobytes()
            assert_same_csr(got.k_coarse, want.k_coarse)
            if held is not None:
                assert (held.data if sp.issparse(held) else held).tobytes() == before.tobytes()
            del held
        assert reused == [True, False, False]

    @staticmethod
    def sliced_blocks(m):
        """The full static and unit-disc blocks of model ``m``, each reduced
        by plain slicing (``sliced_reduction``) to its nonzero entries, with
        the coarse operator formed from them."""
        static_parts = [p for p in m.mesh.part_table if p not in m.disc_part_ids]
        k_s = assemble(m.mesh, m.materials, part_ids=static_parts)
        k_d = assemble(m.mesh, m.materials, part_ids=m.disc_part_ids)
        bcs = clamp_and_drive(m.mesh, m.fixed_nodes, m.driven_nodes, m.motion)
        (free, pres, u_p, ff_s, rhs_s), (_, _, _, ff_d, rhs_d) = (
            sliced_reduction(k, bcs) for k in (k_s, k_d))
        ff_s, ff_d = nonzero_entries(ff_s), nonzero_entries(ff_d)
        restriction = kron_restriction(m.mesh, free)
        k_coarse = tuple(coarse_of(restriction, ff) for ff in (ff_s, ff_d))
        return dict(k_s=k_s, k_d=k_d, free=free, pres=pres, u_p=u_p, ff=(ff_s, ff_d),
                    rhs=(rhs_s, rhs_d), restriction=restriction, k_coarse=k_coarse,
                    band=max(superdiagonals(c) for c in k_coarse))

    def test_trend_system_is_the_sliced_reduction(self, trend_model):
        m, want = trend_model, self.sliced_blocks(trend_model)
        system = m.system
        for part, ff, rhs in zip((system.static, system.blocks[0]), want["ff"], want["rhs"]):
            assert part.free.tobytes() == want["free"].tobytes()
            assert part.prescribed.tobytes() == want["pres"].tobytes()
            assert part.prescribed_u.tobytes() == want["u_p"].tobytes()
            # the diagonal and the coarse product are each block's own
            assert part.diagonal.tobytes() == ff.diagonal().tobytes()
            assert part.rhs.tobytes() == rhs.tobytes()
            assert_same_csr(part.restriction, want["restriction"])
        # the band of both coarse patterns, the half-bandwidth README quotes
        assert max(superdiagonals(c.k_coarse) for c in (system.static, system.blocks[0])) == \
            want["band"] == 110
        # each block on its own nonzero entries: the free-free blocks and the
        # coarse operators alike; K_d holds under a quarter of their union
        for name, ff in (("k_ff", want["ff"]), ("k_coarse", want["k_coarse"])):
            static, unit = getattr(system.static, name), getattr(system.blocks[0], name)
            assert_owns_its_entries(static, ff[0])
            assert_owns_its_entries(unit, ff[1])
            assert 0 < unit.nnz < (abs(static) + abs(unit)).nnz / 4
        # the reaction rows: each block's own rows, on their nonzero entries
        rows = node_dofs(m.driven_nodes)
        for got, k in zip(system.reaction_rows, (want["k_s"], want["k_d"])):
            assert_owns_its_entries(got, k.tocsr()[rows])

    def test_trend_system_at_a_modulus_is_the_dense_oracle(self, trend_model, monkeypatch):
        # the free-free block at e multiplies by both sliced blocks, and
        # agrees with the product of their sum to round-off
        want = self.sliced_blocks(trend_model)
        (ff_s, ff_d), (rhs_s, rhs_d), band = want["ff"], want["rhs"], want["band"]
        x = np.random.default_rng(5).normal(size=ff_s.shape[0])
        dense_s, dense_d = (np.triu(dense_coarse(want["restriction"], ff)) for ff in want["ff"])
        for e in (4.15, 25.0, 50.0, 1e5):
            got = trend_model.system.at((e,))
            product = got.k_ff @ x
            assert product.tobytes() == (e * (ff_d @ x) + ff_s @ x).tobytes()
            summed = (ff_s + e * ff_d) @ x
            assert np.linalg.norm(product - summed) <= 1e-15 * np.linalg.norm(summed)
            assert got.rhs.tobytes() == (rhs_d * e + rhs_s).tobytes()
            assert got.diagonal.tobytes() == (ff_d.diagonal() * e + ff_s.diagonal()).tobytes()
            # the coarse operator at e: the sum of each block's, formed from
            # its zero-free free-free block, the dense product's to
            # round-off, and the factor its band gives
            coarse_s, coarse_d = want["k_coarse"]
            assert_same_csr(got.k_coarse, coarse_s + e * coarse_d)
            dense = dense_s + e * dense_d
            assert np.linalg.norm(got.k_coarse.toarray() - dense) <= 1e-15 * np.linalg.norm(dense)
            assert formed_factor(got, monkeypatch).tobytes() == \
                solver.dpbtrf(band_of(coarse_d, band) * e + band_of(coarse_s, band))[0].tobytes()

    def test_trend_system_overflow_rejected(self, trend_model):
        with pytest.raises(SolverError, match=r"^modulus 1e\+308 overflows the reduced system$"):
            trend_model.system.at((1e308,))


def in_block_order(theta, pieces):
    """theta_1 pieces[1] + theta_2 pieces[2] + ... + pieces[0], summed left
    to right: the order the system at theta sums each of its pieces in."""
    return sum((t * p for t, p in zip(theta[1:], pieces[2:])), theta[0] * pieces[1]) + pieces[0]


class TestAffineBlocks:
    """K(theta) with the trend disc cut side by side into k = 2 and 3 blocks,
    and dealt element by element into 3, against its per-block sums, bit for
    bit, and against the directly assembled K(theta).  Where a cut meets a
    vertebra a DOF holds the static block and two disc blocks, so the order
    of each sum shows there; dealt elements put all three disc blocks on
    one DOF, so the order of the disc blocks shows too.  A block per disc of
    a stack would show neither, as no node touches two discs."""

    THETAS = [(4.15, 50.0, 25.0), (25.0, 25.0, 25.0), (1e3, 10.0, 0.5)]

    @pytest.fixture(scope="class", params=[(2, False), (3, False), (3, True)],
                    ids=["k2", "k3", "k3_dealt"])
    def stack(self, request):
        k, dealt = request.param
        mesh = build_phantom(PhantomSpec(nx=5, ny=4, nz_vertebra=4, nz_disc=2, nz_pot=2))
        (disc,) = mesh.part_ids_with_role(PartRole.DISC)
        ids = mesh.elements_in(disc)
        x = mesh.nodes[mesh.elements[ids, :4], 0].mean(axis=1)
        cut = [disc, *(max(mesh.part_table) + np.arange(1, k))]
        parts = mesh.parts.copy()
        parts[ids] = np.take(cut, np.arange(ids.size) % k if dealt else
                             np.searchsorted(np.quantile(x, np.arange(1, k) / k), x))
        mesh = Mesh(nodes=mesh.nodes, elements=mesh.elements, parts=parts, part_table={
            **mesh.part_table, **{int(p): Part(f"disc_{p}", PartRole.DISC) for p in cut[1:]}})
        discs = mesh.part_ids_with_role(PartRole.DISC)
        assert discs == cut
        materials = assign_uniform(mesh, uniform_field(mesh, e=3000.0), discs, 1.0, 0.45)
        z = mesh.nodes[:, 2]
        fixed, driven = np.flatnonzero(z == z.min()), np.flatnonzero(z == z.max())
        bcs = BoundaryConditionSet(np.concatenate([fixed, driven]), np.concatenate(
            [np.zeros((fixed.size, 3)), np.tile([0.02, 0.0, -0.5], (driven.size, 1))]))
        # the reaction through the first block's nodes, whose rows every block fills
        nodes = np.unique(mesh.elements[mesh.elements_in(discs[0])])
        groups = [[p for p in mesh.part_table if p not in discs], *([d] for d in discs)]
        from spinefe.pipeline import parametric_system
        system = parametric_system(mesh, materials, groups, bcs, nodes)
        assert len(system.blocks) == k
        return mesh, materials, bcs, discs, system

    def thetas(self, system):
        return [theta[:len(system.blocks)] for theta in self.THETAS]

    def test_system_at_theta_is_the_per_block_sum(self, stack, monkeypatch):
        mesh, _, _, _, system = stack
        pieces = (system.static, *system.blocks)
        rng = np.random.default_rng(3)
        x, u = rng.normal(size=system.static.free.size), rng.normal(size=3 * mesh.n_nodes)
        for theta in self.thetas(system):
            got = system.at(theta)
            # every block is multiplied by, never summed, and shared with the system
            assert all(a is b.k_ff for a, b in zip(got.k_ff.blocks, system.blocks))
            assert got.k_ff.static is system.static.k_ff
            product = got.k_ff @ x
            assert product.tobytes() == in_block_order(theta, [b.k_ff @ x for b in pieces]).tobytes()
            summed = in_block_order(theta, [b.k_ff for b in pieces]) @ x
            assert np.linalg.norm(product - summed) <= 1e-15 * np.linalg.norm(summed)
            for name in ("rhs", "diagonal"):
                want = in_block_order(theta, [getattr(b, name) for b in pieces])
                assert getattr(got, name).tobytes() == want.tobytes(), name
            assert_same_csr(got.k_coarse, in_block_order(theta, [b.k_coarse for b in pieces]))
            reaction = in_block_order(theta, [rows @ u for rows in system.reaction_rows])
            assert system.reaction(theta, u).tobytes() == \
                reaction.reshape(-1, 3).sum(axis=0).tobytes()

    def test_system_at_theta_is_the_assembled_system(self, stack):
        # K(theta) assembled with each disc at its own modulus and reduced
        mesh, materials, bcs, discs, system = stack
        x = np.random.default_rng(4).normal(size=system.static.free.size)
        for theta in self.thetas(system):
            at_theta = materials
            for disc, e in zip(discs, theta):
                at_theta = assign_uniform(mesh, at_theta, disc, e, 0.45)
            direct = apply_bcs(assemble_all(mesh, at_theta), bcs, mesh)
            got = system.at(theta)
            want = direct.k_ff @ x
            assert np.linalg.norm(got.k_ff @ x - want) <= 1e-15 * np.linalg.norm(want)
            for name in ("rhs", "diagonal"):
                want = getattr(direct, name)
                assert np.linalg.norm(getattr(got, name) - want) <= 1e-15 * np.linalg.norm(want)

    def test_solved_field_joins_the_basis_at_theta(self, stack):
        # the basis sums its pieces as the system does: a solved field lies
        # in its span, so its Galerkin field is the solved one, and its
        # reaction is the system's on that field
        _, _, _, _, system = stack
        basis, theta = solver.ReducedBasis(system), self.thetas(system)[0]
        assert len(basis.k_ff) == len(basis.rhs) == len(system.blocks) + 1
        u, _ = solve_pcg(system.at(theta), tol=PCG_TOL)
        solved = u.reshape(-1)[system.static.free]
        basis.add(solved)
        field = basis.field(theta)
        np.testing.assert_allclose(field, solved, rtol=0.0, atol=1e-10 * np.abs(solved).max())
        assert basis.reaction(theta).tobytes() == \
            system.reaction(theta, system.static.full(field)).tobytes()

    def test_theta_of_another_length_rejected(self, stack):
        _, _, _, _, system = stack
        k, basis = len(system.blocks), solver.ReducedBasis(system)
        u = np.zeros(system.static.free.size + system.static.prescribed.size)
        for theta in ((25.0,) * (k - 1), (25.0,) * (k + 1), 25.0, [[25.0] * k]):
            shape = np.shape(theta)
            for call in (lambda: system.at(theta), lambda: system.reaction(theta, u),
                         lambda: basis.field(theta)):
                with pytest.raises(SolverError, match=re.escape(f"theta has shape {shape}, "
                                                                f"not ({k},)")):
                    call()

    def test_overflowing_theta_rejected(self, stack):
        _, _, _, _, system = stack
        theta = (*(25.0,) * (len(system.blocks) - 1), 1e308)
        moduli = ", ".join(f"{t:g}" for t in theta)
        with pytest.raises(SolverError, match=f"^modulus {re.escape(moduli)} overflows "
                                              f"the reduced system$"):
            system.at(theta)


class TestReactions:
    def test_equilibrium_fixed_vs_driven(self):
        mesh = cube_mesh(2)
        field = uniform_field(mesh, e=3000.0, nu=0.3)
        k_full = assemble_all(mesh, field)
        bottom = np.flatnonzero(np.isclose(mesh.nodes[:, 2], 0.0))
        top = np.flatnonzero(np.isclose(mesh.nodes[:, 2], 1.0))
        motion = RigidMotion.about_axis((1, 0, 0), 0.5, pivot=(0.5, 0.5, 1.0),
                                        extra_translation=(0, 0, -0.02))
        bcs = clamp_and_drive(mesh, bottom, top, motion)
        reduced = apply_bcs(k_full.copy(), bcs, mesh)     # the reduction consumes its block
        u, _ = solve_pcg(reduced, tol=1e-11)
        r_fixed = reaction_force(k_full, u, bottom)
        r_driven = reaction_force(k_full, u, top)
        scale = max(np.linalg.norm(r_fixed), np.linalg.norm(r_driven))
        assert np.linalg.norm(r_fixed + r_driven) < 1e-6 * scale

    def test_uniaxial_bar_force_oracle(self):
        # nu = 0 bar: uniform compression gives F = E * A * strain exactly
        mesh = cube_mesh(2)
        e_mod, strain = 2000.0, 1e-3
        field = uniform_field(mesh, e=e_mod, nu=0.0)
        k_full = assemble_all(mesh, field)
        bottom = np.flatnonzero(np.isclose(mesh.nodes[:, 2], 0.0))
        top = np.flatnonzero(np.isclose(mesh.nodes[:, 2], 1.0))
        motion = RigidMotion(np.eye(3), [0.0, 0.0, -strain * 1.0])
        bcs = clamp_and_drive(mesh, bottom, top, motion)
        reduced = apply_bcs(k_full.copy(), bcs, mesh)     # the reduction consumes its block
        u, _ = solve_pcg(reduced, tol=1e-12)
        r_top = reaction_force(k_full, u, top)
        assert r_top[2] == pytest.approx(-e_mod * 1.0 * strain, rel=1e-7)
        assert abs(r_top[0]) < 1e-7 * abs(r_top[2])
        assert abs(r_top[1]) < 1e-7 * abs(r_top[2])


class TestPatchTest:
    def test_affine_field_reproduced(self):
        mesh = cube_mesh(2)
        rng = np.random.default_rng(0)
        a = rng.standard_normal((3, 3))
        a *= 1e-3 / np.linalg.norm(a, 2)
        b = np.array([2e-4, -1e-4, 3e-4])
        k_full = assemble_all(mesh, uniform_field(mesh, e=1500.0, nu=0.3))

        from spinefe.mesh import extract_surface
        surf = extract_surface(mesh, [0])
        boundary = surf.corner_node_ids()
        interior = np.setdiff1d(np.arange(mesh.n_nodes), boundary)
        # midside nodes on the boundary are also boundary nodes: collect all
        # nodes lying on the cube faces
        on_face = np.zeros(mesh.n_nodes, dtype=bool)
        for axis in range(3):
            on_face |= np.isclose(mesh.nodes[:, axis], 0.0)
            on_face |= np.isclose(mesh.nodes[:, axis], 1.0)
        boundary = np.flatnonzero(on_face)
        interior = np.flatnonzero(~on_face)
        assert interior.size > 0

        values = mesh.nodes[boundary] @ a.T + b
        bcs = BoundaryConditionSet(boundary, values)
        u, _ = solve_pcg(apply_bcs(k_full, bcs, mesh), tol=1e-13)
        want = mesh.nodes @ a.T + b
        assert np.abs(u[interior] - want[interior]).max() < 1e-10


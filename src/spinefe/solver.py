"""Linear elastostatics on tet10 meshes.

Element maps are affine, so the kernel takes one Jacobian per element from
its corners and integrates exactly with the 4-point rule.  ``apply_bcs``
reduces an assembled system to its free block and its corner-node coarse
block.  Reduction is linear, so ``ParametricSystem`` reduces a static and
a unit-modulus system once, under the same constraints, and keeps each
block of K(E) = K_s + E K_d on one sparsity pattern: a modulus then costs
one axpy per block, written into buffers it owns.  Reduced systems are
solved with CG from an optional initial guess under a two-level
preconditioner: Jacobi on the tet10 DOFs plus an exact solve on the tet4
corner-node (P1) field, which tet10 contains, so iteration counts barely
grow as the mesh is refined.  Reactions are recovered from the stiffness
rows of the constrained DOFs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .errors import BracketError, ConvergenceError, MaterialError, SolverError
from .materials import MaterialField, Provenance
from .mesh import EDGE_PAIRS, MIDSIDE_TOL, Mesh, midside_offsets
from .quadrature import tet_rule
from .registration import RigidMotion

__all__ = [
    "BoundaryConditionSet",
    "ElasticitySystem",
    "ReducedSystem",
    "ParametricSystem",
    "SolveStats",
    "tet10_stiffness",
    "assemble",
    "apply_bcs",
    "solve_pcg",
    "reaction_force",
    "fit_disc_modulus",
]

PCG_TOL = 1e-9

# Smallest coarse pivot, relative to the largest, of a positive definite
# system.  Rigid-body modes left free by the constraints give pivots at
# round-off (~1e-14); a 1e-3 MPa disc between 3e3 MPa vertebrae gives ~5e-8.
COARSE_PIVOT_RTOL = 1e-12

# barycentric gradients of (L0, L1, L2, L3) wrt reference coords
_DL = np.array([[-1.0, -1.0, -1.0],
                [1.0, 0.0, 0.0],
                [0.0, 1.0, 0.0],
                [0.0, 0.0, 1.0]])


def _shape_gradients(bary: np.ndarray) -> np.ndarray:
    """Reference-space gradients of the 10 tet10 shape functions.

    bary: (q, 4) quadrature points.  Returns (q, 10, 3).
    """
    q = bary.shape[0]
    grads = np.zeros((q, 10, 3))
    for i in range(4):
        grads[:, i] = (4.0 * bary[:, i] - 1.0)[:, None] * _DL[i]
    for k, (i, j) in enumerate(EDGE_PAIRS):
        grads[:, 4 + k] = 4.0 * (bary[:, i][:, None] * _DL[j] + bary[:, j][:, None] * _DL[i])
    return grads


# the degree-2 rule integrates the quadratic integrand of an affine tet10
# element exactly; its reference gradients are the same for every element
_W4 = tet_rule(4)[1]
_DN4 = _shape_gradients(tet_rule(4)[0])                   # (4, 10, 3)


def _element_stiffness_batch(coords: np.ndarray, e_mpa: np.ndarray,
                             nu: np.ndarray) -> np.ndarray:
    """(m, 30, 30) stiffness matrices for a batch of affine tet10 elements."""
    m = coords.shape[0]
    # jac[a, b] = d x_a / d xi_b, constant over an affine element, so that
    # inv(jac) maps reference gradients to physical ones
    jac = (coords[:, 1:4] - coords[:, :1]).transpose(0, 2, 1)
    det = np.linalg.det(jac)
    if (det <= 0.0).any():
        bad = int(np.flatnonzero(det <= 0.0)[0])
        raise SolverError(f"element {bad} has non-positive Jacobian")
    g = np.einsum("qia,mab->mqib", _DN4, np.linalg.inv(jac)).reshape(m, 4, 30)
    # gram[m, i, a, j, b] = sum_q w_q det (d N_i / d x_a)(d N_j / d x_b)
    gw = g * (det[:, None] * _W4)[:, :, None]
    gram = np.matmul(gw.transpose(0, 2, 1), g).reshape(m, 10, 3, 10, 3)

    lam = e_mpa * nu / ((1.0 + nu) * (1.0 - 2.0 * nu))
    mu = e_mpa / (2.0 * (1.0 + nu))
    k = (lam[:, None, None, None, None] * gram
         + mu[:, None, None, None, None] * gram.transpose(0, 1, 4, 3, 2))
    div = mu[:, None, None] * np.einsum("miaja->mij", gram)
    for a in range(3):
        k[:, :, a, :, a] += div
    k = k.reshape(m, 30, 30)
    return 0.5 * (k + k.transpose(0, 2, 1))


def tet10_stiffness(coords: np.ndarray, e_mpa: float, nu: float) -> np.ndarray:
    """30x30 stiffness of one tet10 element (coords: (10, 3), mm/MPa)."""
    coords = np.asarray(coords, dtype=np.float64).reshape(1, 10, 3)
    # the kernel reads the element map off the corners alone, so a curved
    # element (unlike those of a validated Mesh) must be refused here
    if (midside_offsets(coords) > MIDSIDE_TOL).any():
        raise SolverError(f"midside node off its edge midpoint by more than "
                          f"{MIDSIDE_TOL}: the element map must be affine")
    return _element_stiffness_batch(coords, np.array([e_mpa]), np.array([nu]))[0]


@dataclass
class BoundaryConditionSet:
    """Kinematic constraints on node sets.

    fixed: node ids held at zero displacement.
    driven: node ids following ``motion`` through its strain-free
    linearization (``motion.small_displacement``), consistent with the
    small-strain kinematics of the solver.
    prescribed_nodes/prescribed_values: optional explicit per-node vectors
    for general kinematic fields.  The three groups must be disjoint and
    at least one node must be constrained.
    """

    fixed: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    driven: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    motion: RigidMotion | None = None
    prescribed_nodes: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    prescribed_values: np.ndarray = field(default_factory=lambda: np.empty((0, 3)))

    def __post_init__(self) -> None:
        self.fixed = np.unique(np.asarray(self.fixed, dtype=np.int64))
        self.driven = np.unique(np.asarray(self.driven, dtype=np.int64))
        self.prescribed_nodes = np.asarray(self.prescribed_nodes, dtype=np.int64)
        self.prescribed_values = np.asarray(self.prescribed_values, dtype=np.float64).reshape(-1, 3)
        if len(np.unique(self.prescribed_nodes)) != len(self.prescribed_nodes):
            raise SolverError("prescribed node list repeats a node")
        if self.prescribed_nodes.shape[0] != self.prescribed_values.shape[0]:
            raise SolverError("prescribed nodes and values disagree in length")
        groups = [set(self.fixed.tolist()), set(self.driven.tolist()),
                  set(self.prescribed_nodes.tolist())]
        for i in range(3):
            for j in range(i + 1, 3):
                if groups[i] & groups[j]:
                    raise SolverError("constraint groups overlap")
        if self.driven.size and self.motion is None:
            raise SolverError("driven nodes require a rigid motion")
        if not (self.fixed.size or self.driven.size or self.prescribed_nodes.size):
            raise SolverError("at least one node must be constrained")


@dataclass
class ElasticitySystem:
    """Assembled stiffness matrix and load vector over all DOFs."""

    k_full: sp.csr_matrix
    f: np.ndarray


@dataclass
class ReducedSystem:
    """An assembled system with its constraints eliminated (``apply_bcs``,
    ``ParametricSystem.at``): what ``solve_pcg`` solves."""

    free: np.ndarray                  # free DOF ids
    prescribed: np.ndarray            # prescribed DOF ids
    prescribed_u: np.ndarray          # values of the prescribed DOFs
    k_ff: sp.csr_matrix               # free-free block
    rhs: np.ndarray                   # f[free] - K_fp @ prescribed_u
    coarse: sp.csr_matrix             # tet10 <- tet4 prolongation P: free x free-corner DOFs
    k_coarse: sp.csr_matrix           # coarse operator P^T K_ff P


@dataclass
class SolveStats:
    iterations: int
    residual: float                   # recursive PCG residual, relative to ||rhs||
    true_residual: float              # ||rhs - K_ff x|| / ||rhs|| recomputed at exit
    wall_time_s: float


def assemble(mesh: Mesh, materials: MaterialField, part_ids=None,
             chunk: int = 4096) -> ElasticitySystem:
    """Assemble the global stiffness matrix.

    ``part_ids`` restricts assembly (and the material-coverage check) to
    the elements of those parts; the matrix keeps the full DOF layout.
    Elements are processed in fixed-order chunks and summed through a
    COO->CSR conversion, so the result is bitwise reproducible.
    """
    if part_ids is None:
        sel = np.arange(mesh.n_elements)
    else:
        part_ids = sorted(set(int(p) for p in np.atleast_1d(part_ids)))
        unknown = [p for p in part_ids if p not in mesh.part_table]
        if unknown:
            raise MaterialError(f"unknown part ids {unknown}")
        sel = np.flatnonzero(np.isin(mesh.parts, part_ids))
    if sel.size == 0:
        raise MaterialError("no elements selected for assembly")

    covered = materials.provenance != Provenance.UNSET
    gap = sel[~covered[sel]]
    if gap.size:
        raise MaterialError(f"element {int(gap[0])} has no material assigned "
                            f"({gap.size} elements uncovered)")
    if not (np.isfinite(materials.e_mpa[sel]).all()
            and np.isfinite(materials.nu[sel]).all()):
        raise MaterialError("material field contains non-finite values")

    ndof = 3 * mesh.n_nodes
    elements = mesh.elements[sel]
    # scipy stores the indices of a matrix this size as int32, so building
    # them so spares it a conversion of every COO index
    idx = np.int32 if ndof <= np.iinfo(np.int32).max else np.int64
    edof = (3 * elements[:, :, None] + np.arange(3)).reshape(-1, 30).astype(idx)

    blocks = []
    for start in range(0, len(sel), chunk):
        stop = min(start + chunk, len(sel))
        coords = mesh.nodes[elements[start:stop]]
        ke = _element_stiffness_batch(coords, materials.e_mpa[sel[start:stop]],
                                      materials.nu[sel[start:stop]])
        ed = edof[start:stop]
        rows = np.repeat(ed, 30, axis=1).ravel()
        cols = np.tile(ed, (1, 30)).ravel()
        blocks.append(sp.coo_matrix((ke.ravel(), (rows, cols)),
                                    shape=(ndof, ndof)).tocsr())
    k_full = blocks[0]
    for b in blocks[1:]:
        k_full = k_full + b
    k_full.sum_duplicates()
    return ElasticitySystem(k_full=k_full, f=np.zeros(ndof))


def _corner_prolongation(mesh: Mesh, free: np.ndarray) -> sp.csr_matrix:
    """Interpolation from the tet4 corner-node field to the tet10 DOFs.

    A corner node takes its own value and a midside node the mean of its
    edge ends, so P maps a P1 field onto its exact tet10 representation.
    Rows are the free DOFs; columns are the free DOFs of the corner nodes.
    """
    corners = np.unique(mesh.elements[:, :4])
    mids, first = np.unique(mesh.elements[:, 4:], return_index=True)
    ends = mesh.elements[:, :4][:, EDGE_PAIRS].reshape(-1, 2)[first]
    coarse_id = np.full(mesh.n_nodes, -1, dtype=np.int64)
    coarse_id[corners] = np.arange(corners.size)
    rows = np.concatenate([corners, mids, mids])
    cols = np.concatenate([coarse_id[corners], coarse_id[ends[:, 0]], coarse_id[ends[:, 1]]])
    vals = np.concatenate([np.ones(corners.size), np.full(2 * mids.size, 0.5)])
    p_nodes = sp.csr_matrix((vals, (rows, cols)), shape=(mesh.n_nodes, corners.size))
    p_dofs = sp.kron(p_nodes, sp.identity(3), format="csr")
    # coarse DOF 3c + a interpolates fine DOF 3 corners[c] + a exactly
    corner_dofs = (3 * corners[:, None] + np.arange(3)).ravel()
    free_mask = np.zeros(p_dofs.shape[0], dtype=bool)
    free_mask[free] = True
    return p_dofs[free][:, np.flatnonzero(free_mask[corner_dofs])].tocsr()


def apply_bcs(system: ElasticitySystem, bcs: BoundaryConditionSet,
              mesh: Mesh) -> ReducedSystem:
    """Reduce the system to its free DOFs.

    Driven nodes get the linearized rigid displacement of ``motion``;
    fixed nodes get zero; explicit prescriptions are taken verbatim.
    Prescribed columns move to the right-hand side.  The coarse space of
    ``solve_pcg`` depends only on the mesh and the constraints, so it is
    built here.
    """
    n = system.f.size // 3
    for group in (bcs.fixed, bcs.driven, bcs.prescribed_nodes):
        if group.size and (group.min() < 0 or group.max() >= n):
            raise SolverError("constrained node id out of range")

    nodes = np.concatenate([bcs.fixed, bcs.driven, bcs.prescribed_nodes])
    values = np.zeros((nodes.size, 3))
    if bcs.driven.size:
        x = mesh.nodes[bcs.driven]
        values[bcs.fixed.size:bcs.fixed.size + bcs.driven.size] = \
            bcs.motion.small_displacement(x)
    if bcs.prescribed_nodes.size:
        values[bcs.fixed.size + bcs.driven.size:] = bcs.prescribed_values

    order = np.argsort(nodes, kind="stable")
    nodes, values = nodes[order], values[order]
    pres = (3 * nodes[:, None] + np.arange(3)).ravel()
    u_p = values.ravel()

    mask = np.ones(3 * n, dtype=bool)
    mask[pres] = False
    free = np.flatnonzero(mask)
    return _reduce(system, free, pres, u_p, _corner_prolongation(mesh, free))


def _reduce(system: ElasticitySystem, free: np.ndarray, pres: np.ndarray,
            u_p: np.ndarray, prol: sp.csr_matrix) -> ReducedSystem:
    k_rows = system.k_full[free]
    k_ff = k_rows[:, free].tocsr()
    rhs = system.f[free] - k_rows[:, pres] @ u_p
    return ReducedSystem(free=free, prescribed=pres, prescribed_u=u_p, k_ff=k_ff, rhs=rhs,
                         coarse=prol, k_coarse=(prol.T.tocsr() @ k_ff @ prol).tocsr())


@dataclass(frozen=True)
class _Affine:
    """``out = static + e * unit``, written in place by ``at(e)``."""

    out: np.ndarray
    static: np.ndarray
    unit: np.ndarray

    def at(self, e: float) -> None:
        # (e * unit) + static rounds as the sum static + e * unit does
        np.multiply(self.unit, e, out=self.out)
        np.add(self.out, self.static, out=self.out)


def _affine_csr(static: sp.csr_matrix, unit: sp.csr_matrix) -> tuple[sp.csr_matrix, _Affine]:
    """A CSR buffer on the entries where ``static`` or ``unit`` is nonzero,
    and the axpy that writes ``static + e * unit`` into it.

    The complex sum ``static + 1j * unit`` is one sparse merge that keeps
    both values of every such entry, its real part from ``static`` and its
    imaginary part from ``unit``, each copied exactly.
    """
    both = (static + 1j * unit).tocsr()
    both.sum_duplicates()
    matrix = sp.csr_matrix((np.zeros(both.nnz), both.indices, both.indptr), shape=both.shape)
    return matrix, _Affine(matrix.data, both.data.real.copy(), both.data.imag.copy())


@dataclass(frozen=True)
class ParametricSystem:
    """The reduced system of K(E) = K_s + E K_d for every modulus E.

    The constraints do not depend on E and reduction is linear, so each
    reduced block, the right-hand side and the stiffness rows of the
    reaction DOFs are affine in E.  Each keeps its static and unit values
    on one pattern, and ``at`` and ``reaction`` splice E into buffers this
    object owns: one axpy per block, no sparse sum, no allocation.  Every
    spliced entry is bitwise the value of the sum ``static + E * unit``;
    where that sum cancels to zero, the buffer holds an explicit zero.
    """

    system: ReducedSystem             # k_ff, rhs, k_coarse: buffers that ``at`` fills
    reaction_rows: sp.csr_matrix      # buffer: K(E) rows of the reaction DOFs
    reaction_loads: np.ndarray        # buffer: f(E) at the reaction DOFs
    system_terms: tuple[_Affine, ...]     # the axpys of ``at``
    reaction_terms: tuple[_Affine, ...]   # the axpys of ``reaction``

    @classmethod
    def of(cls, static: ElasticitySystem, unit: ElasticitySystem, reduced: ReducedSystem,
           reaction_nodes: np.ndarray) -> ParametricSystem:
        """K_s = ``static`` and K_d = ``unit`` on the same DOFs, with
        ``reduced`` = ``apply_bcs(static, ...)``; ``unit`` is reduced under
        its constraints.  ``reaction`` sums over ``reaction_nodes``."""
        disc = _reduce(unit, reduced.free, reduced.prescribed, reduced.prescribed_u,
                       reduced.coarse)
        k_ff, ff = _affine_csr(reduced.k_ff, disc.k_ff)
        k_coarse, coarse = _affine_csr(reduced.k_coarse, disc.k_coarse)
        rhs = _Affine(np.empty_like(reduced.rhs), reduced.rhs, disc.rhs)
        dofs = (3 * np.asarray(reaction_nodes, dtype=np.int64)[:, None] + np.arange(3)).ravel()
        rows, k_rows = _affine_csr(static.k_full[dofs], unit.k_full[dofs])
        loads = _Affine(np.empty(dofs.size), static.f[dofs], unit.f[dofs])
        system = replace(reduced, k_ff=k_ff, rhs=rhs.out, k_coarse=k_coarse)
        return cls(system=system, reaction_rows=rows, reaction_loads=loads.out,
                   system_terms=(ff, rhs, coarse), reaction_terms=(k_rows, loads))

    def at(self, e: float) -> ReducedSystem:
        """The reduced system at modulus ``e``, spliced into this object's
        buffers: the next ``at`` overwrites it."""
        for term in self.system_terms:
            term.at(e)
        return self.system

    def reaction(self, e: float, u: np.ndarray) -> np.ndarray:
        """Net reaction (3,) through the reaction nodes of a field ``u``
        solved at ``e``: bitwise ``reaction_force`` on the full K(E)."""
        for term in self.reaction_terms:
            term.at(e)
        f_int = self.reaction_rows @ np.asarray(u, dtype=np.float64).reshape(-1)
        return (f_int - self.reaction_loads).reshape(-1, 3).sum(axis=0)


def _two_level_preconditioner(system: ReducedSystem):
    """M^-1 r = D^-1 r + P A_c^-1 P^T r, with A_c = ``system.k_coarse`` factored.

    Jacobi damps the oscillatory error; the exact corner-node solve removes
    the smooth error that Jacobi leaves, whose share grows as h shrinks.
    """
    diag = system.k_ff.diagonal()
    if (diag <= 0.0).any():
        raise SolverError("reduced matrix has a non-positive diagonal entry")
    inv_diag = 1.0 / diag
    prol = system.coarse
    restrict = prol.T.tocsr()
    # the fill-reducing ordering reads the pattern, so a spliced operator's
    # explicit zeros go first: it then factors as the sparse sum would
    k_coarse = system.k_coarse.tocsc()
    k_coarse.eliminate_zeros()
    # diagonal pivots make the factorisation a Cholesky one, stable for an
    # SPD A_c, and its pivots then certify that A_c is positive definite
    try:
        lu = splu(k_coarse, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0)
    except RuntimeError as exc:
        raise SolverError(f"coarse corner-node operator is singular: {exc}") from exc
    pivots = lu.U.diagonal()
    if not (pivots > COARSE_PIVOT_RTOL * pivots.max(initial=0.0)).all():
        raise SolverError("coarse corner-node operator is singular or indefinite: "
                          "the constraints leave a rigid-body motion free")
    return lambda r: inv_diag * r + prol @ lu.solve(restrict @ r)


def solve_pcg(system: ReducedSystem, tol: float = PCG_TOL,
              max_iter: int | None = None,
              x0: np.ndarray | None = None) -> tuple[np.ndarray, SolveStats]:
    """Solve the reduced system with two-level preconditioned CG.

    The preconditioner adds Jacobi on every free DOF to an exact solve on
    the corner-node coarse space of ``system.coarse``, whose operator
    ``system.k_coarse`` is factored once per call, and only when the
    starting guess misses the tolerance.  ``x0`` is an initial guess for
    the free DOFs (default zero).  Returns the full (n_nodes, 3)
    displacement field (prescribed values exact) and solve statistics.
    Convergence is relative: ||r|| <= tol * ||rhs||, with r starting as
    the true residual rhs - K_ff x0; the true residual
    ||rhs - K_ff x|| / ||rhs|| is recomputed at exit after any iteration
    (a guess that meets the tolerance keeps the one it started with).
    """
    if not isinstance(system, ReducedSystem):
        raise SolverError("apply_bcs must run before solve_pcg")
    a = system.k_ff
    b = system.rhs
    n = b.size
    if max_iter is None:
        max_iter = int(20.0 * np.sqrt(n)) + 1000

    if not np.isfinite(b).all():
        raise SolverError("right-hand side contains non-finite values")
    x = np.zeros(n) if x0 is None else np.array(x0, dtype=np.float64)
    if x.shape != (n,):
        raise SolverError(f"initial guess has shape {x.shape}, expected ({n},)")
    if not np.isfinite(x).all():
        raise SolverError("initial guess contains non-finite values")
    t0 = time.perf_counter()
    bnorm = float(np.linalg.norm(b))
    iterations = 0
    resid = true_resid = 0.0
    if bnorm > 0.0 and n > 0:
        r = b - a @ x
        resid = true_resid = float(np.linalg.norm(r)) / bnorm
        if resid > tol:
            precondition = _two_level_preconditioner(system)
            z = precondition(r)
            p = z.copy()
            rz = float(r @ z)
        while resid > tol:
            if iterations >= max_iter:
                raise ConvergenceError(
                    f"PCG stalled at relative residual {resid:.3e} "
                    f"after {iterations} iterations")
            ap = a @ p
            pap = float(p @ ap)
            if not np.isfinite(pap) or pap <= 0.0:
                raise SolverError("matrix is not positive definite on the free DOFs")
            alpha = rz / pap
            x += alpha * p
            r -= alpha * ap
            z = precondition(r)
            rz_new = float(r @ z)
            beta = rz_new / rz
            p = z + beta * p
            rz = rz_new
            iterations += 1
            resid = float(np.linalg.norm(r)) / bnorm
        if iterations:
            if not np.isfinite(x).all():
                raise SolverError("solution contains non-finite values")
            true_resid = float(np.linalg.norm(b - a @ x)) / bnorm
    else:
        x[:] = 0.0                        # K_ff x = 0 has only the zero solution

    u = np.zeros(system.free.size + system.prescribed.size)
    u[system.free] = x
    u[system.prescribed] = system.prescribed_u
    stats = SolveStats(iterations=iterations, residual=resid,
                       true_residual=true_resid, wall_time_s=time.perf_counter() - t0)
    return u.reshape(-1, 3), stats


def reaction_force(system: ElasticitySystem, u: np.ndarray,
                   node_ids: np.ndarray) -> np.ndarray:
    """Net reaction (3,) transmitted through a node set.

    Computed from the full stiffness matrix: internal force minus applied
    load, summed over the set.
    """
    node_ids = np.asarray(node_ids, dtype=np.int64)
    f_int = system.k_full @ np.asarray(u, dtype=np.float64).reshape(-1) - system.f
    dofs = (3 * node_ids[:, None] + np.arange(3)).ravel()
    return f_int[dofs].reshape(-1, 3).sum(axis=0)


def fit_disc_modulus(force_fn, target: float,
                     bracket: tuple[float, float],
                     tol_rel: float = 1e-4,
                     max_solves: int = 30) -> float:
    """Find the disc modulus whose reaction magnitude matches ``target``.

    ``force_fn(e_mpa)`` must be monotone over the bracket.  Secant steps
    with bisection fallback; stops when ``|force - target| <= tol_rel *
    target``.  Raises BracketError (reporting both endpoint forces) when
    the target is outside the bracket.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    if not 0.0 < lo < hi:
        raise BracketError(f"invalid bracket ({lo}, {hi})")
    if not 0.0 < target < np.inf:
        raise BracketError(f"target force must be positive and finite, got {target}")

    tol_abs = tol_rel * abs(target)
    f_lo = float(force_fn(lo)) - target
    if abs(f_lo) <= tol_abs:
        return lo
    f_hi = float(force_fn(hi)) - target
    if abs(f_hi) <= tol_abs:
        return hi
    if f_lo * f_hi > 0.0:
        raise BracketError(
            f"target {target:.6g} N not bracketed: force({lo:.6g} MPa) = "
            f"{f_lo + target:.6g} N, force({hi:.6g} MPa) = {f_hi + target:.6g} N")

    solves = 2
    a, fa, b, fb = lo, f_lo, hi, f_hi
    x_prev, f_prev = a, fa
    x_cur, f_cur = b, fb
    while solves < max_solves:
        denom = f_cur - f_prev
        if denom != 0.0:
            x_next = x_cur - f_cur * (x_cur - x_prev) / denom
        else:
            x_next = 0.5 * (a + b)
        if not a < x_next < b:
            x_next = 0.5 * (a + b)
        f_next = float(force_fn(x_next)) - target
        solves += 1
        if abs(f_next) <= tol_abs:
            return x_next
        if fa * f_next < 0.0:
            b, fb = x_next, f_next
        else:
            a, fa = x_next, f_next
        x_prev, f_prev = x_cur, f_cur
        x_cur, f_cur = x_next, f_next
    raise ConvergenceError(
        f"modulus fit did not reach tolerance within {max_solves} solves")

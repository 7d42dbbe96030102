"""Linear elastostatics on tet10 meshes.

Element maps are affine, so the kernel forms each element's 3x3 node-pair
blocks in closed form: a tensor of its constant barycentric gradients,
contracted with one constant matrix that the 4-point rule integrates
exactly.  ``assemble`` sums the blocks on a node-pair pattern into the
global stiffness matrix; there are no applied loads, only Dirichlet
constraints, each a node with its prescribed displacement.
``apply_bcs`` reduces a matrix under them to its free block, its
right-hand side and its corner-node coarse block.  Reduction is linear,
so ``ParametricSystem`` is a static and a unit-modulus reduced system,
reduced once under the same constraints with each block of both in one
layout (a sparsity pattern or a band): the system at a modulus is then
formed with one axpy per block, the Jacobi diagonal included.  Reduced
systems are solved with CG from an optional initial guess under a
two-level preconditioner: Jacobi on the tet10 DOFs plus an exact solve on
the tet4 corner-node (P1) field, which tet10 contains, so iteration counts
barely grow as the mesh is refined.  The corner nodes are numbered by
reverse Cuthill-McKee of the mesh, so the coarse operator is banded, kept
as LAPACK band storage; a solve reports counts and residuals, no times.
Reactions are recovered from the stiffness rows of the constrained DOFs,
and ``fit_disc_modulus`` returns a modulus with its count of solves.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dpbtrf, dpbtrs
from scipy.sparse.csgraph import reverse_cuthill_mckee

from .errors import BracketError, ConvergenceError, MaterialError, SolverError
from .materials import MaterialField, Provenance
from .mesh import EDGE_PAIRS, Mesh
from .quadrature import tet_rule

__all__ = [
    "BoundaryConditionSet",
    "ReducedSystem",
    "ParametricSystem",
    "SolveStats",
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

# Elements per kernel call.  It bounds the kernel's working memory at large
# size: each (chunk, 55, 9) block array takes 16 MB at 4096.
ASSEMBLY_CHUNK = 4096


def _gradient_coefficients(bary: np.ndarray) -> np.ndarray:
    """c[q, i, k] with grad N_i = sum_k c_ik grad L_k at the barycentric
    points ``bary`` (q, 4), for the tet10 shape functions N_i = L_i (2 L_i - 1)
    at the corners and N_4+e = 4 L_i L_j on edge e = (i, j)."""
    c = np.zeros((bary.shape[0], 10, 4))
    for i in range(4):
        c[:, i, i] = 4.0 * bary[:, i] - 1.0
    for e, (i, j) in enumerate(EDGE_PAIRS):
        c[:, 4 + e, i] = 4.0 * bary[:, j]
        c[:, 4 + e, j] = 4.0 * bary[:, i]
    return c


# an element's node pairs (i, j), i <= j, the 10 with i = j first; its 100
# ordered pairs add the 45 below the diagonal, whose blocks are transposes
_PAIRS = np.hstack([np.tile(np.arange(10), (2, 1)), np.triu_indices(10, 1)])
_ROWS, _COLS = np.hstack([_PAIRS, _PAIRS[::-1, 10:]])
# _GATHER[3a + b]: where component (a, b) of each ordered pair's block lies
# in a row of the kernel's (m, 55 * 9) output
_GATHER = np.hstack([9 * np.arange(55) + np.arange(9).reshape(9, 1),
                     9 * np.arange(10, 55) + np.arange(9).reshape(3, 3).T.reshape(9, 1)])


def _pair_weights(bary: np.ndarray, w: np.ndarray) -> np.ndarray:
    """(55, 16): sum_q w_q c_ik c_jl at the row of pair (i, j) in
    ``_PAIRS`` and column 4k + l.  On an affine element the c are linear,
    so the 4-point (degree-2) rule integrates their products exactly."""
    c = _gradient_coefficients(bary)
    return np.einsum("q,qpk,qpl->pkl", w, c[:, _PAIRS[0]], c[:, _PAIRS[1]]).reshape(55, 16)


_PAIR_WEIGHTS = _pair_weights(*tet_rule(4))


def _node_pair_blocks(mesh: Mesh, ids: np.ndarray, materials: MaterialField) -> np.ndarray:
    """The 3x3 stiffness blocks of the node pairs of ``_PAIRS`` for the
    affine tet10 elements ``ids`` of ``mesh``, (m, 55, 9): component (a, b)
    of pair p at [:, p, 3a + b].  The diagonal blocks are exactly symmetric."""
    coords = mesh.nodes[mesh.elements[ids]]
    e1, e2, e3 = (coords[:, 1:4] - coords[:, :1]).transpose(1, 0, 2)
    cof = np.stack([np.cross(e2, e3), np.cross(e3, e1), np.cross(e1, e2)], axis=1)
    det = np.einsum("ma,ma->m", e1, cof[:, 0])
    if (det <= 0.0).any():
        bad = int(ids[np.flatnonzero(det <= 0.0)[0]])
        raise SolverError(f"element {bad} has non-positive Jacobian")
    grad = cof / det[:, None, None]          # grad[:, k, a] = d L_k / d x_a
    grad = np.concatenate([-grad.sum(axis=1, keepdims=True), grad], axis=1)

    # t[:, k, l, a, b] = det (lam G_ka G_lb + mu G_kb G_la + mu delta_ab G_k . G_l)
    e_mpa, nu = materials.e_mpa[ids], materials.nu[ids]
    lam = det * e_mpa * nu / ((1.0 + nu) * (1.0 - 2.0 * nu))
    mu = det * e_mpa / (2.0 * (1.0 + nu))
    gg = grad[:, :, None, :, None] * grad[:, None, :, None, :]
    t = (lam[:, None, None, None, None] * gg
         + mu[:, None, None, None, None] * gg.transpose(0, 1, 2, 4, 3))
    dots = mu[:, None, None] * (gg[..., 0, 0] + gg[..., 1, 1] + gg[..., 2, 2])
    for a in range(3):
        t[..., a, a] += dots
    # one small product per element: a single large one would start BLAS threads
    blocks = np.matmul(_PAIR_WEIGHTS, t.reshape(-1, 16, 9))
    diag = blocks.reshape(-1, 55, 3, 3)[:, :10]
    diag[...] = 0.5 * (diag + diag.transpose(0, 1, 3, 2))
    return blocks


@dataclass
class BoundaryConditionSet:
    """Dirichlet constraints: node ``nodes[i]`` is displaced by ``values[i]``
    (mm).  The nodes are distinct, at least one is given and the values
    are finite."""

    nodes: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        self.nodes = np.asarray(self.nodes, dtype=np.int64).reshape(-1)
        self.values = np.asarray(self.values, dtype=np.float64)
        if not self.nodes.size:
            raise SolverError("at least one node must be constrained")
        if np.unique(self.nodes).size != self.nodes.size:
            raise SolverError("a node is constrained twice")
        if self.values.shape != (self.nodes.size, 3):
            raise SolverError(f"values have shape {self.values.shape}, "
                              f"expected ({self.nodes.size}, 3)")
        if not np.isfinite(self.values).all():
            raise SolverError("prescribed displacements contain non-finite values")


@dataclass
class ReducedSystem:
    """An assembled system with its constraints eliminated (``apply_bcs``,
    ``ParametricSystem.at``): what ``solve_pcg`` solves."""

    free: np.ndarray                  # free DOF ids
    prescribed: np.ndarray            # prescribed DOF ids
    prescribed_u: np.ndarray          # values of the prescribed DOFs
    k_ff: sp.csr_matrix               # free-free block
    diagonal: np.ndarray              # k_ff.diagonal(), what the Jacobi smoother divides by
    rhs: np.ndarray                   # -K_fp @ prescribed_u
    restriction: sp.csr_matrix        # P^T: free-corner x free DOFs; P (tet10 <- tet4) is its .T
    k_coarse: np.ndarray              # P^T K_ff P, LAPACK upper band storage (band + 1, n)


@dataclass
class SolveStats:
    iterations: int
    residual: float                   # recursive PCG residual, relative to ||rhs||
    true_residual: float              # ||rhs - K_ff x|| / ||rhs|| recomputed at exit


def assemble(mesh: Mesh, materials: MaterialField, part_ids=None) -> sp.csr_matrix:
    """Assemble the global stiffness matrix.

    ``part_ids`` restricts assembly (and the material-coverage check) to
    the elements of those parts; the matrix keeps the full DOF layout.
    Each element gives the 3x3 blocks of its 100 ordered node pairs.  The
    node-pair keys are sorted once into slots, and each block component is
    summed per slot by ``np.bincount`` over fixed-order chunks of elements
    (``ASSEMBLY_CHUNK``), always in element order, so the result is bitwise
    reproducible.  A lower block is the transpose of its upper one and sums
    in the same order, so the matrix is bitwise symmetric.
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

    n = mesh.n_nodes
    elements = mesh.elements[sel]
    keys = (elements[:, _ROWS] * n + elements[:, _COLS]).ravel()
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    first = np.concatenate([[True], keys[1:] != keys[:-1]])
    slot = np.empty_like(order)
    slot[order] = np.cumsum(first) - 1
    pairs = keys[first]                       # row node * n + column node, sorted

    values = np.zeros((pairs.size, 9))
    for start in range(0, len(sel), ASSEMBLY_CHUNK):
        chunk = slice(start, start + ASSEMBLY_CHUNK)
        blocks = _node_pair_blocks(mesh, sel[chunk], materials).reshape(-1, 55 * 9)
        slots = slot.reshape(-1, 100)[chunk].ravel()
        for c, gather in enumerate(_GATHER):
            weights = np.take(blocks, gather, axis=1).ravel()
            values[:, c] += np.bincount(slots, weights=weights, minlength=pairs.size)
    indptr = np.searchsorted(pairs, n * np.arange(n + 1))
    return sp.bsr_matrix((values.reshape(-1, 3, 3), pairs % n, indptr),
                         shape=(3 * n, 3 * n)).tocsr()


def _corner_restriction(mesh: Mesh, free: np.ndarray) -> tuple[sp.csr_matrix, int]:
    """The transpose P^T of the interpolation P from the tet4 corner-node
    field to the tet10 DOFs, and the half-bandwidth of the coarse
    operators it makes.

    A corner node takes its own value and a midside node the mean of its
    edge ends, so P maps a P1 field onto its exact tet10 representation.
    Rows of P are the free DOFs; columns are the free DOFs of the corner
    nodes, numbered by reverse Cuthill-McKee of the graph of corners that
    share an element, with each node's DOFs kept together.  An entry of
    P^T K P couples two corners of one element, so for any stiffness K
    on this mesh it lies within the returned band of the diagonal.
    """
    elem_corners = mesh.elements[:, :4]
    corners = np.unique(elem_corners)
    coarse_id = np.full(mesh.n_nodes, -1, dtype=np.int64)
    coarse_id[corners] = np.arange(corners.size)
    local = coarse_id[elem_corners]
    graph = sp.csr_matrix((np.ones(local.size * 4), (np.repeat(local, 4, axis=1).ravel(),
                                                     np.tile(local, (1, 4)).ravel())),
                          shape=(corners.size, corners.size))
    corners = corners[reverse_cuthill_mckee(graph, symmetric_mode=True)]
    coarse_id[corners] = np.arange(corners.size)

    mids, first = np.unique(mesh.elements[:, 4:], return_index=True)
    ends = elem_corners[:, EDGE_PAIRS].reshape(-1, 2)[first]
    rows = np.concatenate([corners, mids, mids])
    cols = np.concatenate([coarse_id[corners], coarse_id[ends[:, 0]], coarse_id[ends[:, 1]]])
    vals = np.concatenate([np.ones(corners.size), np.full(2 * mids.size, 0.5)])
    p_nodes = sp.csr_matrix((vals, (rows, cols)), shape=(mesh.n_nodes, corners.size))
    p_dofs = sp.kron(p_nodes, sp.identity(3), format="csr")
    # coarse DOF 3c + a interpolates fine DOF 3 corners[c] + a exactly
    corner_dofs = (3 * corners[:, None] + np.arange(3)).ravel()
    free_mask = np.zeros(p_dofs.shape[0], dtype=bool)
    free_mask[free] = True
    kept = free_mask[corner_dofs]
    # column of each coarse DOF, -1 where it is prescribed; an element's
    # band is the spread of its columns
    column = np.where(kept, np.cumsum(kept) - 1, -1)
    elem_cols = column[(3 * coarse_id[elem_corners][:, :, None] + np.arange(3)).reshape(-1, 12)]
    spread = (elem_cols.max(axis=1)
              - np.where(elem_cols >= 0, elem_cols, corner_dofs.size).min(axis=1))
    return p_dofs[free][:, np.flatnonzero(kept)].T.tocsr(), int(spread.max(initial=0))


def apply_bcs(k_full: sp.csr_matrix, bcs: BoundaryConditionSet,
              mesh: Mesh) -> ReducedSystem:
    """Reduce the stiffness matrix to its free DOFs.

    Prescribed columns move to the right-hand side.  The coarse space of
    ``solve_pcg`` depends only on the mesh and the constraints, so it is
    built here.
    """
    n = k_full.shape[0] // 3
    if bcs.nodes.min() < 0 or bcs.nodes.max() >= n:
        raise SolverError("constrained node id out of range")
    order = np.argsort(bcs.nodes)
    pres = (3 * bcs.nodes[order, None] + np.arange(3)).ravel()
    u_p = bcs.values[order].ravel()

    mask = np.ones(3 * n, dtype=bool)
    mask[pres] = False
    free = np.flatnonzero(mask)
    return _reduce(k_full, free, pres, u_p, *_corner_restriction(mesh, free))


def _reduce(k_full: sp.csr_matrix, free: np.ndarray, pres: np.ndarray,
            u_p: np.ndarray, restriction: sp.csr_matrix, band: int) -> ReducedSystem:
    """The free blocks of ``k_full``, R K_ff R^T (R = ``restriction``) in band storage."""
    k_rows = k_full[free]
    k_ff = k_rows[:, free].tocsr()
    # negating u_p rather than the product keeps an empty sum +0.0
    rhs = k_rows[:, pres] @ -u_p
    upper = sp.triu(restriction @ k_ff @ restriction.T, format="coo")
    if (upper.col - upper.row).max(initial=0) > band:
        raise SolverError("coarse operator has entries outside its band")
    k_coarse = np.zeros((band + 1, restriction.shape[0]), order="F")
    k_coarse[band + upper.row - upper.col, upper.col] = upper.data
    return ReducedSystem(free=free, prescribed=pres, prescribed_u=u_p, k_ff=k_ff,
                         diagonal=k_ff.diagonal(), rhs=rhs, restriction=restriction,
                         k_coarse=k_coarse)


def _one_pattern(a: sp.csr_matrix, b: sp.csr_matrix) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """``a`` and ``b`` on the entries where either is nonzero, sharing one
    ``indices``/``indptr`` pair.

    The complex sum ``a + 1j * b`` is one sparse merge that keeps both
    values of every such entry, its real part from ``a`` and its imaginary
    part from ``b``, each copied exactly.
    """
    both = (a + 1j * b).tocsr()
    both.sum_duplicates()
    return tuple(sp.csr_matrix((np.ascontiguousarray(part), both.indices, both.indptr),
                               shape=both.shape) for part in (both.data.real, both.data.imag))


def _axpy(static, unit, e: float):
    """``static + e * unit`` in new values, rounded as that sum is; two
    CSR matrices keep the pattern they share."""
    if sp.issparse(static):
        return sp.csr_matrix((_axpy(static.data, unit.data, e), static.indices, static.indptr),
                             shape=static.shape)
    out = unit * e
    out += static
    return out


@dataclass(frozen=True)
class ParametricSystem:
    """The reduced system of K(E) = K_s + E K_d for every modulus E.

    The constraints do not depend on E and reduction is linear, so each
    reduced block, the right-hand side and the stiffness rows of the
    reaction DOFs are affine in E: the system at E is ``static`` plus E
    times ``unit``, formed per modulus by ``at`` and ``reaction`` with one
    axpy per block.  Every formed entry is bitwise the value of the sum
    ``static + E * unit``; where that sum cancels to zero, a sparse block
    holds an explicit zero.
    """

    static: ReducedSystem             # K_s reduced; k_ff on the merged pattern of every K_ff(E)
    unit: ReducedSystem               # K_d reduced under the same constraints, on the same layouts
    reaction_static: sp.csr_matrix    # K_s rows of the reaction DOFs
    reaction_unit: sp.csr_matrix      # K_d rows of the reaction DOFs, on the same pattern

    @classmethod
    def of(cls, static: sp.csr_matrix, unit: sp.csr_matrix, reduced: ReducedSystem,
           reaction_nodes: np.ndarray) -> ParametricSystem:
        """K_s = ``static`` and K_d = ``unit`` on the same DOFs, with
        ``reduced`` = ``apply_bcs(static, ...)``; ``unit`` is reduced under
        its constraints.  ``reaction`` sums over ``reaction_nodes``."""
        disc = _reduce(unit, reduced.free, reduced.prescribed, reduced.prescribed_u,
                       reduced.restriction, reduced.k_coarse.shape[0] - 1)
        k_s, k_d = _one_pattern(reduced.k_ff, disc.k_ff)
        dofs = (3 * np.asarray(reaction_nodes, dtype=np.int64)[:, None] + np.arange(3)).ravel()
        rows_s, rows_d = _one_pattern(static[dofs], unit[dofs])
        return cls(static=replace(reduced, k_ff=k_s), unit=replace(disc, k_ff=k_d),
                   reaction_static=rows_s, reaction_unit=rows_d)

    def at(self, e: float) -> ReducedSystem:
        """The reduced system at modulus ``e``, formed in new arrays."""
        s, d = self.static, self.unit
        return replace(s, k_ff=_axpy(s.k_ff, d.k_ff, e),
                       diagonal=_axpy(s.diagonal, d.diagonal, e), rhs=_axpy(s.rhs, d.rhs, e),
                       k_coarse=_axpy(s.k_coarse, d.k_coarse, e))

    def reaction(self, e: float, u: np.ndarray) -> np.ndarray:
        """Net reaction (3,) through the reaction nodes of a field ``u``
        solved at ``e``: bitwise ``reaction_force`` on the full K(E)."""
        rows = _axpy(self.reaction_static, self.reaction_unit, e)
        f_int = rows @ np.asarray(u, dtype=np.float64).reshape(-1)
        return f_int.reshape(-1, 3).sum(axis=0)


def _band_cholesky(ab: np.ndarray) -> np.ndarray:
    """Upper Cholesky factor, in LAPACK band storage, of a symmetric
    matrix A given in that storage.

    Its squared diagonal holds the pivots of A = U^T U, which certify that
    A is positive definite.
    """
    factor, info = dpbtrf(ab)               # into a copy: ``ab`` is read again
    pivots = factor[-1] ** 2
    if info != 0 or not (pivots > COARSE_PIVOT_RTOL * pivots.max(initial=0.0)).all():
        raise SolverError("coarse corner-node operator is singular or indefinite: "
                          "the constraints leave a rigid-body motion free")
    return factor


def _two_level_preconditioner(system: ReducedSystem):
    """M^-1 r = D^-1 r + P A_c^-1 P^T r, with A_c = ``system.k_coarse``.

    Jacobi damps the oscillatory error; the exact corner-node solve removes
    the smooth error that Jacobi leaves, whose share grows as h shrinks.
    The coarse DOFs are numbered by reverse Cuthill-McKee of the mesh, so
    A_c is banded and factored as a band Cholesky.
    """
    diag = system.diagonal
    if (diag <= 0.0).any():
        raise SolverError("reduced matrix has a non-positive diagonal entry")
    inv_diag = 1.0 / diag
    restrict = system.restriction
    prolong = restrict.T
    factor = _band_cholesky(system.k_coarse)
    return lambda r: inv_diag * r + prolong @ dpbtrs(factor, restrict @ r, overwrite_b=1)[0]


def solve_pcg(system: ReducedSystem, tol: float = PCG_TOL,
              max_iter: int | None = None,
              x0: np.ndarray | None = None) -> tuple[np.ndarray, SolveStats]:
    """Solve the reduced system with two-level preconditioned CG.

    The preconditioner adds Jacobi on every free DOF to an exact solve on
    the corner-node coarse space of ``system.restriction``, whose operator
    ``system.k_coarse`` is factored once per call, and only when the
    starting guess misses the tolerance.  ``x0`` is an initial guess for
    the free DOFs (default zero).  Returns the full (n_nodes, 3)
    displacement field (prescribed values exact) and solve statistics.
    Convergence is relative: ||r|| <= tol * ||rhs||, with r starting as
    the true residual rhs - K_ff x0, which must be finite; the true residual
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
    bnorm = float(np.linalg.norm(b))
    iterations = 0
    resid = true_resid = 0.0
    if bnorm > 0.0 and n > 0:
        r = b - a @ x
        resid = true_resid = float(np.linalg.norm(r)) / bnorm
        if not np.isfinite(resid):
            raise SolverError(f"starting residual is {resid}: K_ff x0 is not finite")
        if resid > tol:
            precondition = _two_level_preconditioner(system)
            z = precondition(r)
            p = z.copy()
            rz = float(r @ z)
        while not resid <= tol:           # written so that NaN fails it
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
    return u.reshape(-1, 3), SolveStats(iterations=iterations, residual=resid,
                                        true_residual=true_resid)


def reaction_force(k_full: sp.csr_matrix, u: np.ndarray,
                   node_ids: np.ndarray) -> np.ndarray:
    """Net reaction (3,) transmitted through a node set: the internal force
    ``k_full @ u`` summed over the set."""
    node_ids = np.asarray(node_ids, dtype=np.int64)
    f_int = k_full @ np.asarray(u, dtype=np.float64).reshape(-1)
    dofs = (3 * node_ids[:, None] + np.arange(3)).ravel()
    return f_int[dofs].reshape(-1, 3).sum(axis=0)


def fit_disc_modulus(force_fn, target: float,
                     bracket: tuple[float, float],
                     tol_rel: float = 1e-4,
                     max_solves: int = 30) -> tuple[float, int]:
    """Find the disc modulus whose reaction magnitude matches ``target``.

    ``force_fn(e_mpa)`` must be monotone over the bracket.  Secant steps
    with bisection fallback; stops when ``|force - target| <= tol_rel *
    target``.  Returns the modulus and its count of ``force_fn`` calls
    (1 or 2 at an endpoint).  Raises BracketError (reporting both endpoint
    forces) when the target is outside the bracket.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    if not 0.0 < lo < hi:
        raise BracketError(f"invalid bracket ({lo}, {hi})")
    if not 0.0 < target < np.inf:
        raise BracketError(f"target force must be positive and finite, got {target}")

    tol_abs = tol_rel * abs(target)
    f_lo = float(force_fn(lo)) - target
    if abs(f_lo) <= tol_abs:
        return lo, 1
    f_hi = float(force_fn(hi)) - target
    if abs(f_hi) <= tol_abs:
        return hi, 2
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
            return x_next, solves
        if fa * f_next < 0.0:
            b, fb = x_next, f_next
        else:
            a, fa = x_next, f_next
        x_prev, f_prev = x_cur, f_cur
        x_cur, f_cur = x_next, f_next
    raise ConvergenceError(
        f"modulus fit did not reach tolerance within {max_solves} solves")

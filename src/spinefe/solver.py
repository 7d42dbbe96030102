"""Linear elastostatics on tet10 meshes.

Element maps are affine, so the kernel forms each element's 3x3 node-pair
blocks in closed form: a tensor of its constant barycentric gradients,
contracted with one constant matrix that the 4-point rule ``mesh.TET_RULE``
integrates exactly.  ``assemble`` sums the blocks on a node-pair pattern into
the global stiffness matrix, which it keeps as those 3x3 node blocks; there
are no applied loads, only Dirichlet constraints, each a node with its
prescribed displacement.  ``apply_bcs`` reduces a matrix under them to
its free block, its right-hand side, its corner-node coarse space and
the coarse operator on it.  A constraint holds a whole node, so the
free-free and free-prescribed blocks and the reaction rows are chosen
node block by node block, and only they are expanded to CSR, a bounded
step of blocks at a time, straight onto their nonzero entries; the full
matrix is never expanded or sliced, and the coarse operator is formed
from the zero-free free-free block.  Reduction is linear, so
``ParametricSystem`` is a static and a unit-modulus reduced system, each
block reduced once under the same constraints (``ReducedSystem.reduce``).
The system at a modulus never sums the free-free blocks: its
product streams both (``AffineOperator``).  Its coarse operator is one
sparse sum of the two, held as their upper triangles, and its right-hand
side and Jacobi diagonal one axpy each.  Each stage holds its inputs,
its outputs and one chunk of work, one assembled block at a time.
Reduced systems are solved with CG from an optional initial guess under a
two-level preconditioner: Jacobi on the tet10 DOFs plus an exact solve on
the tet4 corner-node (P1) field, which tet10 contains, so iteration counts
barely grow as the mesh is refined.  The corner nodes are numbered by reverse
Cuthill-McKee of the mesh, computed here to equal scipy's, so the coarse operator is
banded: a solve factors it in LAPACK band storage of its own, as wide as its entries
reach, and writes none of its system.  It reports counts and residuals, no times.
Reactions are recovered from each block's stiffness rows of the
constrained DOFs (``ParametricSystem.reaction``), for solved and reduced
fields alike.  ``ReducedBasis`` holds the system on an orthonormal basis
of solved fields, appended one at a time, so its field at a modulus costs
a k x k solve.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dpbtrf, dpbtrs

from .errors import ConvergenceError, MaterialError, SolverError
from .materials import MaterialField, Provenance
from .mesh import EDGE_PAIRS, TET_RULE, Mesh

__all__ = [
    "BoundaryConditionSet",
    "ReducedSystem",
    "AffineOperator",
    "ParametricSystem",
    "ReducedBasis",
    "SolveStats",
    "assemble",
    "apply_bcs",
    "solve_pcg",
    "reaction_rows",
    "reaction_force",
]

PCG_TOL = 1e-9

# Largest true residual, as a multiple of the tolerance, of a solve that is
# reported as met.  CG's recursive residual drifts from the true one as the
# disc-to-bone contrast grows: every solve of the trend sweep and fit ends
# within 0.994 tol, a 3x3 phantom at 1e10 and 1e11 MPa within 8.2 and 66 tol,
# and at 1e12 and 1e14 MPa at 622-666 and 6.7e4-7.0e4 tol.
TRUE_RESIDUAL_FACTOR = 100.0

# Smallest coarse pivot, relative to the largest, of a positive definite
# system.  Rigid-body modes left free by the constraints give pivots at
# round-off (~1e-14) under a diagonal that spans little; a stiffness contrast
# spreads pivots as far as the diagonal: a 1e-3 or 1e15 MPa disc between 3e3
# MPa vertebrae gives ~5e-8 or ~5e-13.
COARSE_PIVOT_RTOL = 1e-12

# Elements per kernel call.  It bounds the kernel's working memory: each
# (chunk, 55, 9) block array takes 2 MB at 512.  The sums do not depend on it.
ASSEMBLY_CHUNK = 512

# Node blocks per step of ``_node_rows``, which takes whole block rows.  It
# bounds the step's working memory: a step's blocks and their CSR expansion
# take under 1 MB at 4096.  The matrices do not depend on it.
EXPANSION_CHUNK = 4096


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


_PAIR_WEIGHTS = _pair_weights(*TET_RULE)


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
    (mm).  The nodes are distinct integer ids, at least one is given and
    the values are finite."""

    nodes: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        nodes = np.asarray(self.nodes).reshape(-1)
        self.values = np.asarray(self.values, dtype=np.float64)
        if not nodes.size:
            raise SolverError("at least one node must be constrained")
        if nodes.dtype.kind not in "iu":
            raise SolverError(f"constrained node ids must be integers, not {nodes.dtype}")
        self.nodes = nodes.astype(np.int64)
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
    ``reduce``, ``ParametricSystem.at``): what ``solve_pcg`` solves, which
    only multiplies by its free-free block."""

    free: np.ndarray                  # free DOF ids
    prescribed: np.ndarray            # prescribed DOF ids
    prescribed_u: np.ndarray          # values of the prescribed DOFs
    # free-free block: CSR from a reduction, or K_s + e K_d as a product from ParametricSystem.at
    k_ff: sp.csr_matrix | AffineOperator
    diagonal: np.ndarray              # the free-free block's diagonal, what Jacobi divides by
    rhs: np.ndarray                   # -K_fp @ prescribed_u
    restriction: sp.csr_matrix        # P^T: free-corner x free DOFs; P (tet10 <- tet4) is its .T
    k_coarse: sp.csr_matrix           # upper triangle of P^T K_ff P, banded by the RCM numbering

    def reduce(self, k_full: sp.bsr_matrix) -> ReducedSystem:
        """``k_full``, another matrix assembled on the same DOFs, reduced
        under these constraints onto this coarse space."""
        n = self.free.size + self.prescribed.size
        if k_full.shape != (n, n):
            raise SolverError(f"stiffness matrix has shape {k_full.shape}, "
                              f"but the reduced system's DOFs need {(n, n)}")
        return _reduce(k_full, self.free, self.prescribed, self.prescribed_u, self.restriction)

    def full(self, x: np.ndarray) -> np.ndarray:
        """The full DOF vector: ``x`` on the free DOFs, the prescribed values on the rest."""
        u = np.zeros(self.free.size + self.prescribed.size)
        u[self.free], u[self.prescribed] = x, self.prescribed_u
        return u


@dataclass
class SolveStats:
    iterations: int
    residual: float                   # recursive PCG residual, relative to ||rhs||
    true_residual: float              # ||rhs - K_ff x|| / ||rhs|| recomputed at exit


def assemble(mesh: Mesh, materials: MaterialField, part_ids) -> sp.bsr_matrix:
    """Assemble the global stiffness matrix in 3x3 node blocks.

    ``part_ids`` selects the elements assembled and checked for material
    coverage (``Mesh.elements_in``); the matrix keeps the full DOF layout.
    Each element gives the 3x3 blocks of its 100 ordered node pairs.  The
    node-pair keys are sorted once into slots by ``np.unique``, and each
    block component is added per slot by ``np.add.at`` into its column of
    one (pairs, 9) array, element by element in element order, so the
    result is bitwise reproducible and the same for any chunk of elements
    (``ASSEMBLY_CHUNK``) the kernel is called on.  A lower block is the transpose of its upper one and sums in the
    same order, so the matrix is bitwise symmetric.  That array is the
    matrix's data: one block per node pair, sorted by row, then column node.
    A sum past float64 is a SolverError naming the element with most such sums.
    """
    sel = mesh.elements_in(part_ids)

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
    # pairs: row node * n + column node, sorted; slot: each ordered pair's row in them
    pairs, slot = np.unique((elements[:, _ROWS] * n + elements[:, _COLS]).ravel(),
                            return_inverse=True)

    values = np.zeros((pairs.size, 9))
    slot = slot.reshape(-1, 100)
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, len(sel), ASSEMBLY_CHUNK):
            chunk = slice(start, start + ASSEMBLY_CHUNK)
            blocks = _node_pair_blocks(mesh, sel[chunk], materials).reshape(-1, 55 * 9)
            slots = slot[chunk].ravel()
            for c, gather in enumerate(_GATHER):
                np.add.at(values[:, c], slots, np.take(blocks, gather, axis=1).ravel())
            del blocks                # one chunk's blocks at a time
    if not np.isfinite(values).all():
        # an overflowing element spoils all of its pairs, a neighbour only the shared ones
        bad = np.flatnonzero(~np.isfinite(values).all(axis=1))
        element = int(sel[np.isin(slot, bad).sum(axis=1).argmax()])
        raise SolverError(f"element {element} has a stiffness that overflows float64")
    indptr = np.searchsorted(pairs, n * np.arange(n + 1))
    return sp.bsr_matrix((values.reshape(-1, 3, 3), pairs % n, indptr), shape=(3 * n, 3 * n))


def _reverse_cuthill_mckee(indptr: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """The permutation that ``scipy.sparse.csgraph.reverse_cuthill_mckee(graph,
    symmetric_mode=True)`` gives the symmetric CSR graph ``indptr``/``indices``
    (no duplicate entries), computed here so that no run imports ``csgraph``.

    A stored diagonal counts twice in a node's degree.  Unvisited nodes seed
    breadth-first searches in ``np.argsort`` order of degree; each node appends
    its unvisited neighbours in CSR order, sorted stably by degree.
    """
    degree = np.diff(indptr).astype(indices.dtype)
    rows = np.repeat(np.arange(degree.size), degree)
    degree[rows[indices == rows]] += 1
    ptr, ind, deg = indptr.tolist(), indices.tolist(), degree.tolist()
    seen, order, head = set(), [], 0
    for seed in np.argsort(degree).tolist():
        if seed not in seen:
            seen.add(seed)
            order.append(seed)
        while head < len(order):
            node, head = order[head], head + 1
            new = [j for j in ind[ptr[node]:ptr[node + 1]] if j not in seen]
            seen.update(new)
            order += sorted(new, key=deg.__getitem__)
    return np.array(order[::-1], dtype=indices.dtype)


def _corner_restriction(mesh: Mesh, free: np.ndarray) -> sp.csr_matrix:
    """The transpose P^T of the interpolation P from the tet4 corner-node
    field to the tet10 DOFs.

    A corner node takes its own value and a midside node the mean of its
    edge ends, so P maps a P1 field onto its exact tet10 representation.
    Rows of P are the free DOFs; columns are the free DOFs of the corner nodes,
    numbered by reverse Cuthill-McKee (in-package, equal to scipy's) of the graph of
    corners that share an element, with each node's DOFs kept together.  An entry of
    P^T K P couples two corners of one element, so it lies near the diagonal.
    """
    elem_corners = mesh.elements[:, :4]
    corners = np.unique(elem_corners)
    coarse_id = np.full(mesh.n_nodes, -1, dtype=np.int64)
    coarse_id[corners] = np.arange(corners.size)
    local = coarse_id[elem_corners]
    graph = sp.csr_matrix((np.ones(local.size * 4), (np.repeat(local, 4, axis=1).ravel(),
                                                     np.tile(local, (1, 4)).ravel())),
                          shape=(corners.size, corners.size))
    corners = corners[_reverse_cuthill_mckee(graph.indptr, graph.indices)]
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
    return p_dofs[free][:, np.flatnonzero(np.isin(corner_dofs, free))].T.tocsr()


def apply_bcs(k_full: sp.bsr_matrix, bcs: BoundaryConditionSet,
              mesh: Mesh) -> ReducedSystem:
    """Reduce the stiffness matrix of ``mesh`` (``assemble``) to its free DOFs.

    Prescribed columns move to the right-hand side.  The coarse space of
    ``solve_pcg`` depends only on the mesh and the constraints, so it is
    built here.
    """
    n = mesh.n_nodes
    if k_full.shape != (3 * n, 3 * n):
        raise SolverError(f"stiffness matrix has shape {k_full.shape}, "
                          f"but the mesh's {n} nodes need {(3 * n, 3 * n)}")
    if bcs.nodes.min() < 0 or bcs.nodes.max() >= n:
        raise SolverError("constrained node id out of range")
    order = np.argsort(bcs.nodes)
    pres = (3 * bcs.nodes[order, None] + np.arange(3)).ravel()
    u_p = bcs.values[order].ravel()

    mask = np.ones(3 * n, dtype=bool)
    mask[pres] = False
    free = np.flatnonzero(mask)
    return _reduce(k_full, free, pres, u_p, _corner_restriction(mesh, free))


def _node_rows(k: sp.spmatrix, rows: np.ndarray, cols: np.ndarray | None = None) -> sp.csr_matrix:
    """The DOF rows of the nodes ``rows`` of ``k``, in the DOF columns of the
    sorted nodes ``cols`` (default: every node), as CSR on their nonzero
    entries.

    Constraints act on whole nodes, so the rows and columns are chosen per
    3x3 node block.  The chosen blocks are read in steps of whole block
    rows, about ``EXPANSION_CHUNK`` blocks each, twice: once to count their
    nonzero entries, which sizes the result's arrays exactly, and once to
    expand each step to CSR and write its nonzero entries and row ends into
    them.  The result stores the nonzero entries of ``k.tocsr()`` sliced by
    those DOFs, in the same order, for any step size; zeros of either sign
    are dropped, and ``k`` is only read.
    """
    k = sp.bsr_matrix(k, blocksize=(3, 3))          # no copy of an ``assemble`` result
    count = np.diff(k.indptr)[rows]
    indptr = np.concatenate([[0], np.cumsum(count)])
    picked = np.repeat(k.indptr[rows] - indptr[:-1], count) + np.arange(indptr[-1])
    col = k.indices[picked]
    n_cols = k.shape[1] // 3
    if cols is not None:
        rank = np.full(n_cols, -1)
        rank[cols] = np.arange(cols.size)
        col = rank[col]
        kept = col >= 0
        indptr = np.concatenate([[0], np.cumsum(kept)])[indptr]
        picked, col, n_cols = picked[kept], col[kept], cols.size
    # each step ends at the first block row end at or past a multiple of EXPANSION_CHUNK
    edges = np.unique(np.concatenate([[0], np.searchsorted(
        indptr, np.arange(EXPANSION_CHUNK, indptr[-1], EXPANSION_CHUNK)), [len(rows)]]))
    steps = [(r0, r1, indptr[r0], indptr[r1]) for r0, r1 in zip(edges[:-1], edges[1:])]

    total = sum(np.count_nonzero(k.data[picked[b0:b1]]) for _, _, b0, b1 in steps)
    index = np.int32 if max(total, 3 * n_cols) <= np.iinfo(np.int32).max else np.int64
    data = np.empty(total)
    indices = np.empty(total, dtype=index)
    dof_indptr = np.zeros(3 * len(rows) + 1, dtype=index)
    for r0, r1, b0, b1 in steps:
        step = sp.bsr_matrix((k.data[picked[b0:b1]], col[b0:b1], indptr[r0:r1 + 1] - b0),
                             shape=(3 * (r1 - r0), 3 * n_cols)).tocsr()
        step.eliminate_zeros()
        start = dof_indptr[3 * r0]
        dof_indptr[3 * r0 + 1:3 * r1 + 1] = step.indptr[1:] + start
        out = slice(start, dof_indptr[3 * r1])
        data[out], indices[out] = step.data, step.indices
        del step                      # one step's entries at a time
    return sp.csr_matrix((data, indices, dof_indptr), shape=(3 * len(rows), 3 * n_cols))


def _reduce(k_full: sp.bsr_matrix, free: np.ndarray, pres: np.ndarray,
            u_p: np.ndarray, restriction: sp.csr_matrix) -> ReducedSystem:
    """The free blocks of ``k_full``, the right-hand side of ``u_p`` and
    the upper triangle of R K_ff R^T (R = ``restriction``)."""
    free_nodes, pres_nodes = free[::3] // 3, pres[::3] // 3
    k_ff = _node_rows(k_full, free_nodes, free_nodes)
    # negating u_p rather than the product keeps an empty sum +0.0
    rhs = _node_rows(k_full, free_nodes, pres_nodes) @ -u_p
    return ReducedSystem(free=free, prescribed=pres, prescribed_u=u_p, k_ff=k_ff,
                         diagonal=k_ff.diagonal(), rhs=rhs, restriction=restriction,
                         k_coarse=sp.triu(restriction @ k_ff @ restriction.T, format="csr"))


def _axpy(static: np.ndarray, unit: np.ndarray, e: float) -> np.ndarray:
    """``static + e * unit`` in a new array, rounded as that sum is."""
    out = unit * e
    out += static
    return out


@contextmanager
def _in_range(e: float):
    """An overflow while the system at modulus ``e`` is formed is a SolverError."""
    try:
        with np.errstate(over="raise"):
            yield
    except FloatingPointError:
        raise SolverError(f"modulus {e:g} overflows the reduced system") from None


@dataclass(frozen=True)
class AffineOperator:
    """The free-free block K_s + e K_d of the system at modulus ``e``, as
    a product only: ``op @ x`` is ``e * (K_d @ x) + K_s @ x``.  The sum is
    never formed, so each product streams both blocks, which it shares
    with the ``ParametricSystem`` it came from and never writes."""

    static: sp.csr_matrix             # K_s free-free block
    unit: sp.csr_matrix               # K_d free-free block
    e: float

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        out = self.unit @ x
        out *= self.e
        out += self.static @ x
        return out


@dataclass(frozen=True)
class ParametricSystem:
    """The reduced system of K(E) = K_s + E K_d for every modulus E.

    The constraints do not depend on E and reduction is linear, so each
    reduced block, the right-hand side and the stiffness rows of the
    reaction DOFs are affine in E: the system at E is ``static`` plus E
    times ``unit``, formed per modulus by ``at``: the right-hand side and
    the Jacobi diagonal are one axpy each, the coarse operator one sparse
    sum, and the free-free block is never summed: the system at E
    multiplies by both blocks (``AffineOperator``).  Its pieces are built
    as the reduction forms them, every sparse one on its own nonzero
    entries: ``static`` by ``apply_bcs``, ``unit`` by ``static.reduce``
    and the rows by ``reaction_rows``.
    """

    static: ReducedSystem             # K_s reduced under the constraints
    unit: ReducedSystem               # K_d reduced under the same constraints
    reaction_rows: tuple[sp.csr_matrix, sp.csr_matrix]   # K_s and K_d rows of the reaction DOFs

    def at(self, e: float) -> ReducedSystem:
        """The reduced system at modulus ``e``: its free-free block is the
        product with both blocks, its other blocks are formed in new
        arrays.  A modulus that overflows an entry is a SolverError."""
        s, d = self.static, self.unit
        with _in_range(e):
            return replace(s, k_ff=AffineOperator(s.k_ff, d.k_ff, e),
                           k_coarse=s.k_coarse + e * d.k_coarse,
                           rhs=_axpy(s.rhs, d.rhs, e), diagonal=_axpy(s.diagonal, d.diagonal, e))

    def reaction(self, e: float, u: np.ndarray) -> np.ndarray:
        """Net reaction (3,) through the reaction nodes of a full field ``u``
        at ``e``: the K_s rows' internal force plus ``e`` times the K_d
        rows'.  Bitwise ``reaction_force`` on K(E) where the K_d rows are
        empty, as they are at the driven pot, which touches no disc."""
        u = np.asarray(u, dtype=np.float64).reshape(-1)
        rows_s, rows_d = self.reaction_rows
        return _axpy(rows_s @ u, rows_d @ u, e).reshape(-1, 3).sum(axis=0)


class ReducedBasis:
    """A ``ParametricSystem`` on an orthonormal basis Q of free-DOF fields,
    grown one field at a time from k = 0 columns.

    Each piece is a pair, its static part and its unit-modulus part, so at
    modulus E it is the first plus E times the second, as the full system
    is.  The Galerkin field at E is Q y(E) with (Q^T K(E) Q) y = Q^T b(E), a
    k x k solve, and its reaction is the system's on that field.  ``add``
    takes a field's part orthogonal to Q by classical Gram-Schmidt done
    twice, which keeps Q orthonormal to working precision, and borders each
    piece with the new column: one product with each block's ``k_ff``.
    """

    def __init__(self, system: ParametricSystem) -> None:
        self.system = system
        self.q = np.zeros((system.static.free.size, 0))   # Q (free DOFs, k)
        self.k_ff = (np.zeros((0, 0)),) * 2                 # Q^T K_ff Q (k, k)
        self.rhs = (np.zeros(0),) * 2                       # Q^T b (k,)

    def add(self, field: np.ndarray) -> None:
        """Append the part of the free-DOF ``field`` orthogonal to Q, as a
        unit column.  ``field`` must not lie in the span of Q, as a field
        that PCG moved off a seed from this basis does not."""
        v = np.array(field, dtype=np.float64)
        for _ in range(2):
            v -= self.q @ (self.q.T @ v)
        v /= np.linalg.norm(v)
        self.q = np.column_stack([self.q, v])
        blocks = (self.system.static, self.system.unit)
        border = [self.q.T @ (b.k_ff @ v) for b in blocks]      # a new row and column
        self.k_ff = tuple(np.block([[m, c[:-1, None]], [c]]) for m, c in zip(self.k_ff, border))
        self.rhs = tuple(np.append(r, v @ b.rhs) for r, b in zip(self.rhs, blocks))

    def field(self, e: float) -> np.ndarray | None:
        """The Galerkin field at ``e`` on the free DOFs; None while the basis is empty."""
        if not self.q.shape[1]:
            return None
        return self.q @ np.linalg.solve(_axpy(*self.k_ff, e), _axpy(*self.rhs, e))

    def reaction(self, e: float) -> np.ndarray:
        """Net reaction (3,) through the reaction nodes of the Galerkin field
        at ``e``; an empty basis has none, a SolverError."""
        x = self.field(e)
        if x is None:
            raise SolverError("the reduced basis is empty: it has no field to react")
        return self.system.reaction(e, self.system.static.full(x))


def _band_cholesky(ab: np.ndarray) -> np.ndarray:
    """Upper Cholesky factor, in LAPACK band storage, of a symmetric
    matrix A given in that storage, formed in ``ab`` itself (F-contiguous).

    Its squared diagonal holds the pivots of A = U^T U, which certify that
    A is positive definite.  If they do not, a diagonal of A spanning more
    than sqrt(``COARSE_PIVOT_RTOL``) names a stiffness contrast as the cause.
    """
    diagonal = ab[-1].copy()                # what a failure reports
    factor, info = dpbtrf(ab, overwrite_ab=True)
    roots = factor[-1]                      # unsquared: a failed factor's squares overflow
    if info == 0 and (roots > np.sqrt(COARSE_PIVOT_RTOL) * roots.max(initial=0.0)).all():
        return factor
    lo, hi = float(diagonal.min()), float(diagonal.max())
    cause = (f"a stiffness contrast of {hi / lo:.1e} across its diagonal spreads its pivots "
             f"past COARSE_PIVOT_RTOL ({COARSE_PIVOT_RTOL:g})"
             if 0.0 < lo < np.sqrt(COARSE_PIVOT_RTOL) * hi
             else "the constraints leave a rigid-body motion free")
    raise SolverError(f"coarse corner-node operator is singular or indefinite: {cause}")


def _two_level_preconditioner(system: ReducedSystem):
    """M^-1 r = D^-1 r + P A_c^-1 P^T r, with A_c = P^T K_ff P.

    Jacobi damps the oscillatory error; the exact corner-node solve removes
    the smooth error that Jacobi leaves, whose share grows as h shrinks.
    The coarse DOFs are numbered by reverse Cuthill-McKee of the mesh, so
    A_c is banded: ``system.k_coarse`` is scattered into LAPACK band
    storage of its own, as wide as its entries reach, and factored there.
    """
    diag = system.diagonal
    if (diag <= 0.0).any():
        raise SolverError("reduced matrix has a non-positive diagonal entry")
    if (diag < np.finfo(np.float64).tiny).any():
        raise SolverError(f"reduced matrix has a subnormal diagonal entry ({diag.min():.2g}): "
                          f"the stiffness underflows, and Jacobi cannot divide by it")
    inv_diag, restrict, prolong = 1.0 / diag, system.restriction, system.restriction.T
    upper = system.k_coarse.tocoo()
    band = int((upper.col - upper.row).max(initial=0))
    ab = np.zeros((band + 1, upper.shape[0]), order="F")
    ab[band + upper.row - upper.col, upper.col] = upper.data
    factor = _band_cholesky(ab)
    return lambda r: inv_diag * r + prolong @ dpbtrs(factor, restrict @ r, overwrite_b=1)[0]


def pcg_max_iter(n: int) -> int:
    """PCG's iteration budget on ``n`` free DOFs; ``solve_pcg`` reads it by
    this module-level name at each call."""
    return int(20.0 * np.sqrt(n)) + 1000


def solve_pcg(system: ReducedSystem, tol: float,
              x0: np.ndarray | None = None) -> tuple[np.ndarray, SolveStats]:
    """Solve the reduced system with two-level preconditioned CG.

    The preconditioner adds Jacobi on every free DOF to an exact solve on
    the corner-node coarse space of ``system.restriction``, whose operator
    ``system.k_coarse`` it factors in an array of its own once per call,
    only when the starting guess misses the tolerance.  The system is
    never written, so it solves again to the same field.
    ``x0`` is an initial guess for the free DOFs (default zero).  Returns
    the full (n_nodes, 3) displacement field (prescribed values exact) and
    solve statistics.
    Convergence is relative: ||r|| <= tol * ||rhs||, where ||rhs|| must not
    overflow and r starts as the true residual rhs - K_ff x0, which must be
    finite; the true residual is recomputed at exit after any iteration (a
    guess that meets the tolerance keeps the one it started with), and one
    above ``TRUE_RESIDUAL_FACTOR * tol`` is a ConvergenceError, as is a
    solve that needs more than ``pcg_max_iter(n)`` iterations.
    """
    if not isinstance(system, ReducedSystem):
        raise SolverError("apply_bcs must run before solve_pcg")
    a = system.k_ff
    b = system.rhs
    n = b.size
    max_iter = pcg_max_iter(n)

    if not np.isfinite(b).all():
        raise SolverError("right-hand side contains non-finite values")
    with np.errstate(over="ignore"):
        bnorm = float(np.linalg.norm(b))
    if not np.isfinite(bnorm):
        raise SolverError("the norm of the right-hand side -K_fp u_p overflows")
    x = np.zeros(n) if x0 is None else np.array(x0, dtype=np.float64)
    if x.shape != (n,):
        raise SolverError(f"initial guess has shape {x.shape}, expected ({n},)")
    if not np.isfinite(x).all():
        raise SolverError("initial guess contains non-finite values")
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
            if true_resid > TRUE_RESIDUAL_FACTOR * tol:
                raise ConvergenceError(
                    f"PCG reached recursive residual {resid:.3e}, but the true residual "
                    f"{true_resid:.3e} exceeds {TRUE_RESIDUAL_FACTOR:g} x tol {tol:.1e}")
    else:
        x[:] = 0.0                        # K_ff x = 0 has only the zero solution

    return system.full(x).reshape(-1, 3), SolveStats(iterations=iterations, residual=resid,
                                                     true_residual=true_resid)


def _node_ids(ids, n_nodes: int) -> np.ndarray:
    """``ids`` as int64 node ids, checked as ``BoundaryConditionSet`` checks
    its nodes: an id that is not an integer, a repeated id or one outside
    [0, ``n_nodes``) is a SolverError."""
    ids = np.asarray(ids).reshape(-1)
    if ids.size and ids.dtype.kind not in "iu":
        raise SolverError(f"reaction node ids must be integers, not {ids.dtype}")
    ids = ids.astype(np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= n_nodes):
        raise SolverError(f"reaction node id out of range [0, {n_nodes})")
    if np.unique(ids).size != ids.size:
        raise SolverError("a reaction node is given twice")
    return ids


def reaction_rows(k_full: sp.bsr_matrix, node_ids: np.ndarray) -> sp.csr_matrix:
    """The rows of ``k_full`` at the DOFs of the nodes ``node_ids``, as CSR on
    their nonzero entries: what ``ParametricSystem.reaction`` sums the
    internal force over."""
    return _node_rows(k_full, _node_ids(node_ids, k_full.shape[0] // 3))


def reaction_force(k_full: sp.bsr_matrix, u: np.ndarray,
                   node_ids: np.ndarray) -> np.ndarray:
    """Net reaction (3,) transmitted through a node set: the internal force
    ``k_full @ u`` summed over the set."""
    node_ids = _node_ids(node_ids, k_full.shape[0] // 3)
    f_int = k_full @ np.asarray(u, dtype=np.float64).reshape(-1)
    dofs = (3 * node_ids[:, None] + np.arange(3)).ravel()
    return f_int[dofs].reshape(-1, 3).sum(axis=0)

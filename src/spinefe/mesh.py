"""Quadratic tetrahedral meshes of stacked spine segments.

Element connectivity convention: corner nodes 0-3, midside nodes 4-9 on
edges 01, 12, 20, 03, 13, 23 (in that order).  A ``Mesh`` refuses nodes outside the
input domain, non-positive corner volumes and midside nodes off their edge midpoints,
so every element's geometric map is affine and ``FACES`` winds its faces outward.
``TET_RULE`` is the one quadrature rule: the kernel integrates with it, the HU are sampled at it.
``Mesh.elements_in`` selects elements by part; a ``SurfaceMesh`` keeps each
triangle's owner, its local face and its unit outward normal.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum, IntEnum
from numbers import Real

import numpy as np

from .domain import COORD_MM, LENGTH_MIN_MM, direction, within
from .errors import MeshError

__all__ = [
    "PartRole",
    "Part",
    "Mesh",
    "SurfaceMesh",
    "Region",
    "PhantomSpec",
    "build_phantom",
    "extract_surface",
    "face_node_ids",
    "partition_rois",
]

# midside node k+4 bisects edge EDGE_PAIRS[k]; they are all six corner edges
EDGE_PAIRS = np.array([(0, 1), (1, 2), (2, 0), (0, 3), (1, 3), (2, 3)])

# corner faces of a positively oriented tet, wound so normals point outward,
# and the midside nodes of its edges (FACES[f][i], FACES[f][(i + 1) % 3])
FACES = np.array([(0, 2, 1), (0, 1, 3), (1, 2, 3), (0, 3, 2)])
FACE_MIDS = np.array([(6, 5, 4), (4, 8, 7), (5, 9, 8), (7, 9, 6)])

# the 4-point (degree-2) rule, the (5 +/- sqrt(5)) pair: barycentric points, weights summing to 1/6
TET_RULE = (np.where(np.eye(4, dtype=bool), (5.0 + 3.0 * np.sqrt(5.0)) / 20.0,
                     (5.0 - np.sqrt(5.0)) / 20.0), np.full(4, 1.0 / 24.0))

MIDSIDE_TOL = 1e-9

# Most elements a phantom may have: a CLI solve holds ~21 kB per element
# (peak RSS 228-232 MB at 10,584 elements, 368 MB at 17,820), so 1e5 stay
# near 2 GB.
PHANTOM_MAX_ELEMENTS = 10 ** 5


def midside_offsets(coords: np.ndarray) -> np.ndarray:
    """Distance of each midside node from its edge midpoint.

    coords: (m, 10, 3) element node coordinates.  Returns (m, 6).
    """
    gap = coords[:, 4:] - coords[:, EDGE_PAIRS].mean(axis=2)
    return np.sqrt((gap ** 2).sum(axis=2))


class PartRole(Enum):
    VERTEBRA = "VERTEBRA"
    DISC = "DISC"
    POT = "POT"


@dataclass(frozen=True)
class Part:
    """A named part; the name is one token of the mesh text and one CSV cell (``io``)."""

    name: str
    role: PartRole

    def __post_init__(self) -> None:
        name = self.name
        if not (isinstance(name, str) and name.isprintable() and name.split() == [name]
                and "#" not in name and "," not in name):
            raise MeshError(f"part name {name!r} is not printable as one token "
                            f"without whitespace, '#' or ','")


@dataclass
class Mesh:
    """Tet10 mesh with per-element part labels.

    nodes: (n_nodes, 3) float64 coordinates in mm.
    elements: (n_elements, 10) int node indices, convention above.
    parts: (n_elements,) int part id per element.
    part_table: part id -> Part.
    """

    nodes: np.ndarray
    elements: np.ndarray
    parts: np.ndarray
    part_table: dict[int, Part]

    def __post_init__(self) -> None:
        self.nodes = np.ascontiguousarray(self.nodes, dtype=np.float64)
        self.elements = np.ascontiguousarray(self.elements, dtype=np.int64)
        self.parts = np.ascontiguousarray(self.parts, dtype=np.int64)
        self._validate()

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_elements(self) -> int:
        return self.elements.shape[0]

    def part_ids_with_role(self, role: PartRole) -> list[int]:
        return [pid for pid, part in sorted(self.part_table.items()) if part.role is role]

    def elements_in(self, part_ids) -> np.ndarray:
        """Ids, in element order, of the elements of the parts ``part_ids``;
        an id that is not an integer, an unknown part or a selection without
        elements is a MeshError."""
        part_ids = np.atleast_1d(np.asarray(part_ids, dtype=object)).ravel()
        odd = [p for p in part_ids if isinstance(p, bool) or not isinstance(p, (int, np.integer))]
        if odd:
            raise MeshError(f"part ids must be integers, not {odd[0]!r}")
        part_ids = sorted(set(int(p) for p in part_ids))
        unknown = [p for p in part_ids if p not in self.part_table]
        if unknown:
            raise MeshError(f"unknown part ids {unknown}")
        sel = np.flatnonzero(np.isin(self.parts, part_ids))
        if sel.size == 0:
            raise MeshError(f"no elements in parts {part_ids}")
        return sel

    def corner_volumes(self) -> np.ndarray:
        """Signed volume of each element's corner tetrahedron."""
        c = self.nodes[self.elements[:, :4]]
        v = c[:, 1:] - c[:, :1]
        return np.linalg.det(v) / 6.0

    def _validate(self) -> None:
        if self.nodes.ndim != 2 or self.nodes.shape[1] != 3:
            raise MeshError("nodes must be an (n, 3) array")
        if self.elements.ndim != 2 or self.elements.shape[1] != 10:
            raise MeshError("elements must be an (m, 10) array")
        if self.parts.shape != (self.elements.shape[0],):
            raise MeshError("parts must hold one part id per element")
        within(self.nodes, "node {i} coordinate", -COORD_MM, COORD_MM, MeshError)
        if self.elements.size:
            if self.elements.min() < 0 or self.elements.max() >= self.n_nodes:
                raise MeshError("element connectivity references nodes out of range")
            srt = np.sort(self.elements, axis=1)
            repeats = (srt[:, 1:] == srt[:, :-1]).any(axis=1)
            if repeats.any():
                raise MeshError(f"element {int(np.flatnonzero(repeats)[0])} repeats a node")
            vol, gap = self.corner_volumes(), midside_offsets(self.nodes[self.elements])
            if (vol <= 0.0).any():
                bad = int(np.flatnonzero(vol <= 0.0)[0])
                raise MeshError(f"element {bad} has non-positive corner Jacobian")
            if (gap > MIDSIDE_TOL).any():
                bad = int(np.flatnonzero((gap > MIDSIDE_TOL).any(axis=1))[0])
                raise MeshError(
                    f"element {bad} midside node off the edge midpoint by more than {MIDSIDE_TOL}"
                )
        missing = set(np.unique(self.parts).tolist()) - set(self.part_table)
        if missing:
            raise MeshError(f"part table lacks entries for part ids {sorted(missing)}")


@dataclass
class SurfaceMesh:
    """Oriented boundary triangles of a part selection.

    triangles: (t, 3) corner node ids, wound so normals point outward.
    owners: (t,) owning element index in the parent mesh.
    faces: (t,) local face (row of ``FACES``) of each triangle in its owner.
    tri_parts: (t,) part id per triangle.
    normals: (t, 3) unit outward normals.
    """

    mesh: Mesh
    triangles: np.ndarray
    owners: np.ndarray
    faces: np.ndarray
    tri_parts: np.ndarray
    normals: np.ndarray
    areas: np.ndarray
    centroids: np.ndarray

    @property
    def n_triangles(self) -> int:
        return self.triangles.shape[0]

    def corner_node_ids(self) -> np.ndarray:
        """Sorted unique node ids used by the surface triangles."""
        return np.unique(self.triangles)

    def vertex_coords(self) -> np.ndarray:
        """(t, 3, 3) triangle vertex coordinates."""
        return self.mesh.nodes[self.triangles]


class Region(IntEnum):
    LEFT = 0
    CENTRAL = 1
    RIGHT = 2


REGION_NAMES = {Region.LEFT: "left", Region.CENTRAL: "central", Region.RIGHT: "right"}
# the RoIs a report lists, in its order: each region, then all of them
ROI_NAMES = (*REGION_NAMES.values(), "total")


@dataclass
class PhantomSpec:
    """Geometry of a potted multi-segment stack phantom.

    The stack runs bottom-up along z: inferior pot, then vertebrae with a
    disc between each consecutive pair, then the superior pot.  x is the
    mediolateral direction, y the anteroposterior one.
    """

    width_mm: float = 40.0
    depth_mm: float = 30.0
    vertebra_height_mm: float = 25.0
    disc_height_mm: float = 8.0
    pot_height_mm: float = 10.0
    n_vertebrae: int = 2
    nx: int = 4
    ny: int = 3
    nz_vertebra: int = 3
    nz_disc: int = 1
    nz_pot: int = 1

    def __post_init__(self) -> None:
        for name in ("width_mm", "depth_mm", "vertebra_height_mm",
                     "disc_height_mm", "pot_height_mm"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Real):
                raise ValueError(f"{name} must be a finite number > 0, not {value!r}")
            within(value, name, LENGTH_MIN_MM, COORD_MM)
        for name in ("n_vertebrae", "nx", "ny", "nz_vertebra", "nz_disc", "nz_pot"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
                raise ValueError(f"{name} must be an integer >= 1, not {value!r}")
        n = 6 * self.nx * self.ny * (self.n_vertebrae * self.nz_vertebra + 2 * self.nz_pot
                                     + (self.n_vertebrae - 1) * self.nz_disc)
        if n > PHANTOM_MAX_ELEMENTS:
            raise ValueError(f"{n:.3g} elements exceed PHANTOM_MAX_ELEMENTS "
                             f"({PHANTOM_MAX_ELEMENTS})")


def _kuhn_template() -> np.ndarray:
    """Six-tet split of the unit cube sharing the (0,0,0)-(1,1,1) diagonal.

    Returns (6, 4) indices into the cube corner numbering
    ``dx + 2*dy + 4*dz``.  All tets come out positively oriented, and two
    face-adjacent cubes triangulate their shared face identically, so
    meshes built from this template are conforming.
    """
    eye = np.eye(3, dtype=np.int64)
    tets = []
    for perm in itertools.permutations(range(3)):
        inversions = sum(perm[i] > perm[j] for i in range(3) for j in range(i + 1, 3))
        p0 = np.zeros(3, dtype=np.int64)
        p1 = p0 + eye[perm[0]]
        p2 = p1 + eye[perm[1]]
        p3 = np.ones(3, dtype=np.int64)
        quad = [p0, p1, p2, p3] if inversions % 2 == 0 else [p0, p1, p3, p2]
        tets.append([int(q[0] + 2 * q[1] + 4 * q[2]) for q in quad])
    return np.array(tets, dtype=np.int64)


_KUHN = _kuhn_template()


def _row_keys(rows: np.ndarray, n: int) -> np.ndarray:
    """One int64 per row of ids in [0, n), ordered as the rows sort
    lexicographically, so ``np.unique`` on the keys matches its row-wise
    (``axis=0``) result without sorting rows as records."""
    if n ** rows.shape[1] > np.iinfo(np.int64).max:
        raise MeshError(f"{n} nodes are too many for {rows.shape[1]}-node int64 keys")
    keys = rows[:, 0].astype(np.int64)
    for column in rows[:, 1:].T:
        keys = keys * n + column
    return keys


def build_phantom(spec: PhantomSpec) -> Mesh:
    """Mesh the stack phantom described by ``spec``.

    Parts share their interface nodes, each hex cell is split into six
    tets with consistent diagonals, and midside nodes are inserted once
    per unique edge.  Deterministic: equal specs give bitwise-equal meshes.
    """
    bands: list[tuple[Part, float, int]] = [
        (Part("pot_inferior", PartRole.POT), spec.pot_height_mm, spec.nz_pot)
    ]
    for v in range(1, spec.n_vertebrae + 1):
        if v > 1:
            bands.append((Part(f"disc_{v - 1}", PartRole.DISC),
                          spec.disc_height_mm, spec.nz_disc))
        bands.append((Part(f"vertebra_{v}", PartRole.VERTEBRA),
                      spec.vertebra_height_mm, spec.nz_vertebra))
    bands.append((Part("pot_superior", PartRole.POT), spec.pot_height_mm, spec.nz_pot))

    part_table = {pid: part for pid, (part, _, _) in enumerate(bands)}
    zs = [np.array([0.0])]
    layer_part = []
    z0 = 0.0
    for pid, (_, height, nlayers) in enumerate(bands):
        zs.append(np.linspace(z0, z0 + height, nlayers + 1)[1:])
        layer_part.extend([pid] * nlayers)
        z0 += height
    z_levels = np.concatenate(zs)
    layer_part = np.array(layer_part, dtype=np.int64)

    xs = np.linspace(0.0, spec.width_mm, spec.nx + 1)
    ys = np.linspace(0.0, spec.depth_mm, spec.ny + 1)
    nxn, nyn, nzn = len(xs), len(ys), len(z_levels)

    # corner node id = ix + nxn * (iy + nyn * iz)
    corner = np.empty((nzn, nyn, nxn, 3))
    corner[..., 0] = xs[None, None, :]
    corner[..., 1] = ys[None, :, None]
    corner[..., 2] = z_levels[:, None, None]
    corner_nodes = corner.reshape(-1, 3)

    ix, iy, iz = np.meshgrid(np.arange(spec.nx), np.arange(spec.ny),
                             np.arange(nzn - 1), indexing="ij")
    ix, iy, iz = ix.ravel(order="F"), iy.ravel(order="F"), iz.ravel(order="F")
    base = ix + nxn * (iy + nyn * iz)
    offsets = np.array([dx + nxn * (dy + nyn * dz)
                        for dz in (0, 1) for dy in (0, 1) for dx in (0, 1)])
    # cube corner numbering dx + 2*dy + 4*dz matches the offsets order
    cells = base[:, None] + offsets[None, :]
    cell_parts = layer_part[iz]

    corners4 = cells[:, _KUHN].reshape(-1, 4)
    elem_parts = np.repeat(cell_parts, 6)

    edges = corners4[:, EDGE_PAIRS]
    edges = np.sort(edges.reshape(-1, 2), axis=1)
    n_corners = corner_nodes.shape[0]
    keys, inverse = np.unique(_row_keys(edges, n_corners), return_inverse=True)
    unique_edges = np.stack(np.divmod(keys, n_corners), axis=1)
    mid_nodes = 0.5 * (corner_nodes[unique_edges[:, 0]] + corner_nodes[unique_edges[:, 1]])
    midside = n_corners + inverse.reshape(-1, 6)

    nodes = np.vstack([corner_nodes, mid_nodes])
    elements = np.hstack([corners4, midside])
    return Mesh(nodes=nodes, elements=elements, parts=elem_parts, part_table=part_table)


def extract_surface(mesh: Mesh, part_ids) -> SurfaceMesh:
    """Boundary triangles of the union of the given parts.

    A corner face belongs to the boundary iff it appears in exactly one
    selected element.  Triangles keep the outward winding that ``FACES``
    gives the owning element; normals point away from it.
    """
    sel = mesh.elements_in(part_ids)
    flat = mesh.elements[sel][:, FACES].reshape(-1, 3)       # (4 s, 3) oriented
    keys = _row_keys(np.sort(flat, axis=1), mesh.n_nodes)
    _, inverse, counts = np.unique(keys, return_inverse=True, return_counts=True)
    on_boundary = counts[inverse] == 1

    triangles = flat[on_boundary]
    owners = np.repeat(sel, 4)[on_boundary]
    faces = np.tile(np.arange(4), sel.size)[on_boundary]

    pts = mesh.nodes[triangles]
    cross = np.cross(pts[:, 1] - pts[:, 0], pts[:, 2] - pts[:, 0])
    norm = np.linalg.norm(cross, axis=1)
    if (norm <= 1e-12).any():
        raise MeshError("degenerate boundary triangle")
    return SurfaceMesh(mesh=mesh, triangles=triangles, owners=owners, faces=faces,
                       tri_parts=mesh.parts[owners], normals=cross / norm[:, None],
                       areas=0.5 * norm, centroids=pts.mean(axis=1))


def face_node_ids(surface: SurfaceMesh, mask: np.ndarray) -> np.ndarray:
    """All mesh node ids on the boundary triangles where ``mask`` holds.

    Unlike ``corner_node_ids`` this includes the midside nodes of the
    triangle edges, i.e. the complete tet10 face, which is what a clamp
    or a rigid drive acting on those faces must constrain.
    """
    mids = surface.mesh.elements[surface.owners[mask, None], FACE_MIDS[surface.faces[mask]]]
    return np.unique(np.concatenate([surface.triangles[mask].ravel(), mids.ravel()]))


def partition_rois(surface: SurfaceMesh, axis) -> np.ndarray:
    """The int8 ``Region`` label of every surface triangle, left/central/
    right along ``axis``.

    The centroid of each triangle is projected onto the axis and scaled by
    the owning part's own node extent to t in [0, 1], so each part is split
    into thirds independently: left below t = 1/3, right from t = 2/3 on.
    """
    axis = direction(axis, "axis")
    proj_c = surface.centroids @ axis
    labels = np.empty(surface.n_triangles, dtype=np.int8)
    for pid in np.unique(surface.tri_parts):
        tri_sel = surface.tri_parts == pid
        node_proj = surface.mesh.nodes[np.unique(surface.triangles[tri_sel])] @ axis
        lo, hi = node_proj.min(), node_proj.max()
        if hi - lo <= 1e-12:
            raise MeshError(f"part {int(pid)} has no extent along the split axis")
        t = (proj_c[tri_sel] - lo) / (hi - lo)
        lab = np.full(t.shape, Region.CENTRAL, dtype=np.int8)
        lab[t < 1.0 / 3.0] = Region.LEFT
        lab[t >= 2.0 / 3.0] = Region.RIGHT
        labels[tri_sel] = lab
    return labels

"""CT-derived material properties.

The chain is HU -> apparent density -> elastic modulus:

    rho = correction * (intercept + slope * hu)      clamped at 0
    E   = clamp(c * rho ** d, e_min, e_max)

Vertebra elements get a per-element modulus by sampling the voxel grid at
quadrature points and averaging the resulting moduli with the quadrature
weights.  Discs and pots are assigned uniform properties.  A MaterialField
is in its mesh's element order, and the mesh's ``parts`` label the elements.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import IntEnum

import numpy as np

from .errors import MaterialError
from .mesh import Mesh, PartRole
from .quadrature import tet_rule

__all__ = [
    "VoxelGrid",
    "CalibrationLaw",
    "DensityElasticityLaw",
    "Provenance",
    "MaterialField",
    "calibrate_density",
    "density_to_modulus",
    "trilinear_sample",
    "map_materials",
    "assign_uniform",
]


@dataclass
class VoxelGrid:
    """Scalar HU field on a regular grid.

    values: flat float32 array, x-fastest: value(i,j,k) = values[i + nx*(j + ny*k)].
    origin_mm is the center of voxel (0, 0, 0).
    """

    dims: tuple[int, int, int]
    spacing_mm: tuple[float, float, float]
    origin_mm: tuple[float, float, float]
    values: np.ndarray

    def __post_init__(self) -> None:
        self.dims = tuple(int(d) for d in self.dims)
        self.spacing_mm = tuple(float(s) for s in self.spacing_mm)
        self.origin_mm = tuple(float(o) for o in self.origin_mm)
        if any(d < 1 for d in self.dims):
            raise ValueError("grid dims must be >= 1")
        if any(s <= 0.0 for s in self.spacing_mm):
            raise ValueError("grid spacing must be positive")
        self.values = np.ascontiguousarray(self.values, dtype=np.float32).reshape(-1)
        if self.values.size != self.dims[0] * self.dims[1] * self.dims[2]:
            raise ValueError("value count does not match dims")
        bad = np.flatnonzero(~np.isfinite(self.values))
        if bad.size:
            raise ValueError(f"voxel value {bad[0]} (x-fastest) is {self.values[bad[0]]}")

    def as_3d(self) -> np.ndarray:
        """View shaped (nz, ny, nx) so that [k, j, i] is voxel (i, j, k)."""
        nx, ny, nz = self.dims
        return self.values.reshape(nz, ny, nx)


@dataclass(frozen=True)
class CalibrationLaw:
    """HU to apparent density (g/cm^3), with a site correction factor."""

    slope: float = 1e-3
    intercept: float = 0.0
    correction: float = 1.0


@dataclass(frozen=True)
class DensityElasticityLaw:
    """Power law density (g/cm^3) to modulus (MPa), clamped to a range."""

    coefficient: float = 4730.0
    exponent: float = 1.56
    e_min_mpa: float = 1.0
    e_max_mpa: float = 20000.0

    def __post_init__(self) -> None:
        if self.e_min_mpa <= 0.0 or self.e_max_mpa < self.e_min_mpa:
            raise ValueError("modulus clamp must satisfy 0 < e_min <= e_max")


class Provenance(IntEnum):
    UNSET = 0
    MAPPED = 1
    UNIFORM = 2


@dataclass
class MaterialField:
    """Per-element modulus (MPa), Poisson ratio, and provenance tag."""

    e_mpa: np.ndarray
    nu: np.ndarray
    provenance: np.ndarray

    @classmethod
    def unset_for(cls, mesh: Mesh) -> "MaterialField":
        m = mesh.n_elements
        return cls(e_mpa=np.full(m, np.nan),
                   nu=np.full(m, np.nan),
                   provenance=np.zeros(m, dtype=np.int8))

    def copy(self) -> "MaterialField":
        return MaterialField(self.e_mpa.copy(), self.nu.copy(), self.provenance.copy())

    def coverage_gaps(self) -> np.ndarray:
        """Element indices still lacking material properties."""
        return np.flatnonzero(self.provenance == Provenance.UNSET)


def calibrate_density(hu: np.ndarray, law: CalibrationLaw) -> np.ndarray:
    """Apparent density in g/cm^3; negative values clamp to zero."""
    rho = law.correction * (law.intercept + law.slope * np.asarray(hu, dtype=np.float64))
    return np.maximum(rho, 0.0)


def density_to_modulus(rho: np.ndarray, law: DensityElasticityLaw) -> np.ndarray:
    """Modulus in MPa from the clamped power law."""
    rho = np.maximum(np.asarray(rho, dtype=np.float64), 0.0)
    e = law.coefficient * rho ** law.exponent
    return np.clip(e, law.e_min_mpa, law.e_max_mpa)


def trilinear_sample(grid: VoxelGrid, points_mm: np.ndarray) -> np.ndarray:
    """Trilinear interpolation between voxel centers, clamped at the edges.

    Points outside the voxel-center hull take the value of the clamped
    position, i.e. the field extends constantly past the boundary centers.
    """
    pts = np.atleast_2d(np.asarray(points_mm, dtype=np.float64))
    nx, ny, nz = grid.dims
    dims = np.array(grid.dims)
    g = (pts - np.array(grid.origin_mm)) / np.array(grid.spacing_mm)
    g = np.clip(g, 0.0, dims.astype(np.float64) - 1.0)
    i0 = np.minimum(g.astype(np.int64), np.maximum(dims - 2, 0))
    frac = g - i0
    v3 = grid.as_3d()

    def gather(dx: int, dy: int, dz: int) -> np.ndarray:
        i = np.minimum(i0[:, 0] + dx, nx - 1)
        j = np.minimum(i0[:, 1] + dy, ny - 1)
        k = np.minimum(i0[:, 2] + dz, nz - 1)
        return v3[k, j, i].astype(np.float64)

    fx, fy, fz = frac[:, 0], frac[:, 1], frac[:, 2]
    c00 = gather(0, 0, 0) * (1 - fx) + gather(1, 0, 0) * fx
    c10 = gather(0, 1, 0) * (1 - fx) + gather(1, 1, 0) * fx
    c01 = gather(0, 0, 1) * (1 - fx) + gather(1, 0, 1) * fx
    c11 = gather(0, 1, 1) * (1 - fx) + gather(1, 1, 1) * fx
    c0 = c00 * (1 - fy) + c10 * fy
    c1 = c01 * (1 - fy) + c11 * fy
    return c0 * (1 - fz) + c1 * fz


def _grid_center_bounds(grid: VoxelGrid) -> tuple[np.ndarray, np.ndarray]:
    lo = np.array(grid.origin_mm)
    hi = lo + (np.array(grid.dims) - 1) * np.array(grid.spacing_mm)
    return lo, hi


def map_materials(mesh: Mesh, grid: VoxelGrid,
                  calibration: CalibrationLaw,
                  elasticity: DensityElasticityLaw,
                  nu: float = 0.3,
                  field: MaterialField | None = None) -> MaterialField:
    """Assign CT-mapped moduli to every VERTEBRA element.

    HU is sampled at the points of the 4-point rule the stiffness kernel
    integrates with, converted pointwise to modulus, and averaged with the
    rule's weights.  The weights are positive, so the element modulus is a
    convex combination of the pointwise moduli and stays inside the law's
    clamp range.  Elements of other roles are left untouched.  An element
    lying entirely outside the grid's voxel-center hull is an error.
    """
    if not 0.0 <= nu < 0.5:
        raise MaterialError(f"invalid Poisson ratio {nu}")
    out = field.copy() if field is not None else MaterialField.unset_for(mesh)
    vert_parts = mesh.part_ids_with_role(PartRole.VERTEBRA)
    sel = np.flatnonzero(np.isin(mesh.parts, vert_parts))
    if sel.size == 0:
        return out

    bary, wts = tet_rule(4)
    corners = mesh.nodes[mesh.elements[sel][:, :4]]          # (m, 4, 3)
    qp = np.einsum("qc,mcd->mqd", bary, corners)             # (m, q, 3)

    lo, hi = _grid_center_bounds(grid)
    outside = ((qp < lo) | (qp > hi)).any(axis=2).all(axis=1)
    if outside.any():
        bad = int(sel[np.flatnonzero(outside)[0]])
        raise MaterialError(f"element {bad} lies entirely outside the voxel grid")

    hu = trilinear_sample(grid, qp.reshape(-1, 3)).reshape(qp.shape[:2])
    e_pts = density_to_modulus(calibrate_density(hu, calibration), elasticity)
    e_elem = (e_pts * wts).sum(axis=1) / wts.sum()

    out.e_mpa[sel] = e_elem
    out.nu[sel] = nu
    out.provenance[sel] = Provenance.MAPPED
    return out


def assign_uniform(mesh: Mesh, field: MaterialField, part_id: int,
                   e_mpa: float, nu: float) -> MaterialField:
    """Copy of ``field`` with part ``part_id`` of ``mesh`` set to uniform properties."""
    if e_mpa <= 0.0:
        raise MaterialError(f"modulus must be positive, got {e_mpa}")
    if not 0.0 <= nu < 0.5:
        raise MaterialError(f"invalid Poisson ratio {nu}")
    sel = np.flatnonzero(mesh.parts == part_id)
    if sel.size == 0:
        raise MaterialError(f"no elements in part {part_id}")
    out = field.copy()
    out.e_mpa[sel] = float(e_mpa)
    out.nu[sel] = float(nu)
    out.provenance[sel] = Provenance.UNIFORM
    return out

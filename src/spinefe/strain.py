"""In-plane surface strains recovered from corner-node displacements.

Each boundary triangle is treated as a constant-strain element in its own
orthonormal plane basis (e1 along the first edge, e2 in-plane normal to
it).  Principal values are reported in microstrain, tension positive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MeshError
from .mesh import SurfaceMesh

__all__ = [
    "SurfaceStrainField",
    "triangle_strain",
    "principal_strains",
    "surface_strain_field",
]

_AREA_TOL = 1e-12


@dataclass
class SurfaceStrainField:
    """Per-triangle in-plane strain over (a subset of) a surface.

    tri_ids indexes into the parent surface's triangle list; triangles
    whose corner displacements were missing are excluded and counted.
    eps_max_ue/eps_min_ue are principal strains in microstrain.
    """

    tri_ids: np.ndarray
    tensors: np.ndarray
    eps_max_ue: np.ndarray
    eps_min_ue: np.ndarray
    centroids: np.ndarray
    areas: np.ndarray
    parts: np.ndarray
    roi: np.ndarray
    n_missing: int

    @property
    def n_triangles(self) -> int:
        return self.tri_ids.shape[0]


def _plane_strains(p: np.ndarray, u: np.ndarray) -> np.ndarray:
    # p, u: (t, 3, 3) corner coordinates / displacements
    t01 = p[:, 1] - p[:, 0]
    t02 = p[:, 2] - p[:, 0]
    normal = np.cross(t01, t02)
    two_area = np.linalg.norm(normal, axis=1)
    if (two_area <= _AREA_TOL).any():
        raise MeshError("degenerate triangle in strain evaluation")
    nhat = normal / two_area[:, None]
    e1 = t01 / np.linalg.norm(t01, axis=1)[:, None]
    e2 = np.cross(nhat, e1)

    def proj(vec: np.ndarray) -> np.ndarray:
        return np.stack([np.einsum("td,td->t", vec, e1),
                         np.einsum("td,td->t", vec, e2)], axis=-1)

    a = np.stack([proj(t01), proj(t02)], axis=1)            # (t, 2, 2) edge rows
    b = np.stack([proj(u[:, 1] - u[:, 0]), proj(u[:, 2] - u[:, 0])], axis=1)

    det = a[:, 0, 0] * a[:, 1, 1] - a[:, 0, 1] * a[:, 1, 0]
    inv = np.empty_like(a)
    inv[:, 0, 0] = a[:, 1, 1]
    inv[:, 0, 1] = -a[:, 0, 1]
    inv[:, 1, 0] = -a[:, 1, 0]
    inv[:, 1, 1] = a[:, 0, 0]
    inv /= det[:, None, None]

    # grad u = B^T A^-T; symmetrize for the small-strain tensor
    grad = np.einsum("tij,tkj->tik", b.transpose(0, 2, 1), inv)
    return 0.5 * (grad + grad.transpose(0, 2, 1))


def triangle_strain(coords: np.ndarray, disp: np.ndarray) -> np.ndarray:
    """In-plane strain tensor (2, 2) of one triangle."""
    p = np.asarray(coords, dtype=np.float64).reshape(1, 3, 3)
    u = np.asarray(disp, dtype=np.float64).reshape(1, 3, 3)
    return _plane_strains(p, u)[0]


def principal_strains(tensors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(eps_max, eps_min) of 2x2 symmetric tensors, eps_max >= eps_min."""
    t = np.asarray(tensors, dtype=np.float64)
    mean = 0.5 * (t[..., 0, 0] + t[..., 1, 1])
    radius = np.sqrt((0.5 * (t[..., 0, 0] - t[..., 1, 1])) ** 2 + t[..., 0, 1] ** 2)
    return mean + radius, mean - radius


def surface_strain_field(surface: SurfaceMesh, disp: np.ndarray,
                         rois: np.ndarray | None = None) -> SurfaceStrainField:
    """Strains on every surface triangle with complete corner data.

    ``disp`` is the (n_nodes, 3) displacement field; rows may carry NaN
    for nodes without data, which drops the triangles using them.
    ``rois`` is the Region label of each surface triangle (as from
    ``partition_rois``); without it every kept triangle is labelled -1.
    """
    disp = np.asarray(disp, dtype=np.float64)
    if disp.shape != (surface.mesh.n_nodes, 3):
        raise ValueError("displacement array must be (n_nodes, 3)")
    u = disp[surface.triangles]
    keep = np.isfinite(u).all(axis=(1, 2))
    tri_ids = np.flatnonzero(keep)

    tensors = _plane_strains(surface.vertex_coords()[keep], u[keep])
    eps_max, eps_min = principal_strains(tensors)
    roi = (rois[tri_ids] if rois is not None
           else np.full(tri_ids.shape, -1, dtype=np.int8))
    return SurfaceStrainField(
        tri_ids=tri_ids,
        tensors=tensors,
        eps_max_ue=eps_max * 1e6,
        eps_min_ue=eps_min * 1e6,
        centroids=surface.centroids[keep],
        areas=surface.areas[keep],
        parts=surface.tri_parts[keep],
        roi=roi,
        n_missing=int((~keep).sum()),
    )

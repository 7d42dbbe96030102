"""In-plane surface strains recovered from corner-node displacements.

Each boundary triangle is a constant-strain element in its own orthonormal
plane basis (``plane_axes``: e1 along the first edge, e2 = n x e1 for the
surface's unit normal n); principal values are in microstrain, tension
positive.  A field has one row per surface triangle in the surface's order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import SurfaceMesh

__all__ = [
    "SurfaceStrainField",
    "plane_axes",
    "principal_strains",
    "surface_strain_field",
]


@dataclass(frozen=True)
class SurfaceStrainField:
    """In-plane strain of each surface triangle, in the surface's order.

    eps_max_ue/eps_min_ue are principal strains in microstrain.
    """

    tensors: np.ndarray
    eps_max_ue: np.ndarray
    eps_min_ue: np.ndarray


def plane_axes(p: np.ndarray, nhat: np.ndarray) -> np.ndarray:
    """(t, 2, 3) orthonormal in-plane axes e1, e2 of triangles with corners
    ``p`` (t, 3, 3) and unit normals ``nhat``: e1 along the first edge,
    e2 = n x e1."""
    e1 = (p[:, 1] - p[:, 0]) / np.linalg.norm(p[:, 1] - p[:, 0], axis=1)[:, None]
    return np.stack([e1, np.cross(nhat, e1)], axis=1)


def _plane_strains(p: np.ndarray, u: np.ndarray, nhat: np.ndarray) -> np.ndarray:
    # p, u: (t, 3, 3) corner coordinates / displacements; nhat: (t, 3) unit normals
    t01 = p[:, 1] - p[:, 0]
    t02 = p[:, 2] - p[:, 0]
    e1, e2 = plane_axes(p, nhat).transpose(1, 0, 2)

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


def principal_strains(tensors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(eps_max, eps_min) of 2x2 symmetric tensors, eps_max >= eps_min."""
    t = np.asarray(tensors, dtype=np.float64)
    mean = 0.5 * (t[..., 0, 0] + t[..., 1, 1])
    radius = np.sqrt((0.5 * (t[..., 0, 0] - t[..., 1, 1])) ** 2 + t[..., 0, 1] ** 2)
    return mean + radius, mean - radius


def surface_strain_field(surface: SurfaceMesh, disp: np.ndarray) -> SurfaceStrainField:
    """Strains on every surface triangle, in the surface's triangle order.

    ``disp`` is the (n_nodes, 3) displacement field.
    """
    disp = np.asarray(disp, dtype=np.float64)
    if disp.shape != (surface.mesh.n_nodes, 3):
        raise ValueError("displacement array must be (n_nodes, 3)")
    tensors = _plane_strains(surface.vertex_coords(), disp[surface.triangles], surface.normals)
    eps_max, eps_min = principal_strains(tensors)
    return SurfaceStrainField(tensors=tensors, eps_max_ue=eps_max * 1e6,
                              eps_min_ue=eps_min * 1e6)

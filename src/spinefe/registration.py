"""Rigid-body kinematics and marker-based rigid fits.

RigidMotion is the driving motion of the superior pot; fit_rigid_motion
is the SVD (Kabsch) least-squares fit with a reflection guard, which
recovers that motion from fiducial markers: the reference and deformed
positions that ``io.read_markers`` returns, paired by label.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import RegistrationError

__all__ = [
    "RigidMotion",
    "fit_rigid_motion",
    "rotation_angle",
]

ORTHO_TOL = 1e-10


@dataclass(eq=False)
class RigidMotion:
    """Proper rigid motion x -> R x + t (rotation (3,3), translation (3,))."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self) -> None:
        self.rotation = np.asarray(self.rotation, dtype=np.float64).reshape(3, 3)
        self.translation = np.asarray(self.translation, dtype=np.float64).reshape(3)
        # each check is written so that NaN fails it
        if not (np.isfinite(self.rotation).all() and np.isfinite(self.translation).all()):
            raise RegistrationError("rotation and translation must be finite")
        err = np.abs(self.rotation.T @ self.rotation - np.eye(3)).max()
        if not err <= ORTHO_TOL:
            raise RegistrationError(f"rotation is not orthonormal (error {err:.2e})")
        det = np.linalg.det(self.rotation)
        if not abs(det - 1.0) <= ORTHO_TOL:
            raise RegistrationError(f"rotation determinant {det} is not +1")

    @classmethod
    def about_axis(cls, axis, angle_deg: float, pivot=(0.0, 0.0, 0.0),
                   extra_translation=(0.0, 0.0, 0.0)) -> "RigidMotion":
        """Rotation by ``angle_deg`` about an axis through ``pivot``."""
        axis = np.asarray(axis, dtype=np.float64).reshape(3)
        pivot = np.asarray(pivot, dtype=np.float64).reshape(3)
        shift = np.asarray(extra_translation, dtype=np.float64).reshape(3)
        norm = np.linalg.norm(axis)
        if not 0.0 < norm < np.inf:
            raise RegistrationError("rotation axis must be nonzero and finite")
        if not (np.isfinite(angle_deg) and np.isfinite(pivot).all() and np.isfinite(shift).all()):
            raise RegistrationError("rotation angle, pivot and translation must be finite")
        k = axis / norm
        th = np.radians(angle_deg)
        kx = np.array([[0.0, -k[2], k[1]], [k[2], 0.0, -k[0]], [-k[1], k[0], 0.0]])
        rot = np.eye(3) + np.sin(th) * kx + (1.0 - np.cos(th)) * (kx @ kx)
        return cls(rot, pivot - rot @ pivot + shift)

    def apply(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=np.float64)
        return pts @ self.rotation.T + self.translation

    def small_displacement(self, points: np.ndarray) -> np.ndarray:
        """Displacement of ``points`` under the linearized motion.

        Small-strain kinematics regard only the skew part of the rotation
        as strain free; prescribing finite-rotation displacements on a
        linear model imprints a spurious strain of order theta^2/2.  The
        symmetric second-order part is dropped here and its mean over
        ``points`` folded into the translation, so the net drive of the
        set matches the finite motion.
        """
        pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
        skew = 0.5 * (self.rotation - self.rotation.T)
        deficit = self.rotation - np.eye(3) - skew
        return pts @ skew.T + (self.translation + deficit @ pts.mean(axis=0))


def rotation_angle(motion: RigidMotion) -> float:
    """Rotation magnitude in degrees.

    atan2 of sin and cos of the angle: the skew part of R is sin(theta)
    times the unit axis, and (tr R - 1) / 2 is cos(theta).  Unlike arccos
    of the trace alone, this stays accurate at small angles.
    """
    r = motion.rotation
    sin = 0.5 * np.linalg.norm([r[2, 1] - r[1, 2], r[0, 2] - r[2, 0], r[1, 0] - r[0, 1]])
    cos = 0.5 * (np.trace(r) - 1.0)
    return float(np.degrees(np.arctan2(sin, cos)))


def fit_rigid_motion(source: np.ndarray, target: np.ndarray
                     ) -> tuple[RigidMotion, float]:
    """Least-squares rigid motion taking ``source`` onto ``target``.

    Returns the motion and the per-DOF rms residual
    sqrt(sum |R s_i + t - t_i|^2 / (3 n)).  Requires >= 3 points with a
    non-degenerate (non-collinear) spread; the SVD reflection guard keeps
    the result a proper rotation.
    """
    src = np.asarray(source, dtype=np.float64)
    dst = np.asarray(target, dtype=np.float64)
    if src.shape != dst.shape or src.ndim != 2 or src.shape[1] != 3:
        raise RegistrationError("point sets must share an (n, 3) shape")
    if not (np.isfinite(src).all() and np.isfinite(dst).all()):
        raise RegistrationError("point coordinates must be finite")
    n = src.shape[0]
    if n < 3:
        raise RegistrationError(f"need at least 3 points, got {n}")

    c_src = src.mean(axis=0)
    c_dst = dst.mean(axis=0)
    h = (src - c_src).T @ (dst - c_dst)
    u, s, vt = np.linalg.svd(h)
    if s[1] < 1e-12 * max(s[0], np.finfo(float).tiny):
        raise RegistrationError("degenerate point cloud: points are "
                                "collinear or coincident")
    v = vt.T
    d = np.sign(np.linalg.det(v @ u.T))
    rot = v @ np.diag([1.0, 1.0, d]) @ u.T
    t = c_dst - rot @ c_src
    motion = RigidMotion(rot, t)
    res = motion.apply(src) - dst
    rms = float(np.sqrt((res ** 2).sum() / (3.0 * n)))
    return motion, rms


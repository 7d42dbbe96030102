"""Gauss quadrature rules on the reference tetrahedron.

Points are stored as barycentric coordinates (4 per point); weights sum to
the reference volume 1/6, so an integral over an element is
``sum(w_q * det(J_q) * f_q)`` without further volume factors.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["tet_rule"]


def _rule_4() -> tuple[np.ndarray, np.ndarray]:
    # degree-2 rule, the classic (5 +/- sqrt(5)) pair
    a = (5.0 - math.sqrt(5.0)) / 20.0
    b = (5.0 + 3.0 * math.sqrt(5.0)) / 20.0
    pts = np.full((4, 4), a)
    np.fill_diagonal(pts, b)
    wts = np.full(4, 1.0 / 24.0)
    return pts, wts


def _rule_11() -> tuple[np.ndarray, np.ndarray]:
    # degree-4 Keast rule: centroid + 4 corner-biased + 6 edge-midpoint-biased
    pts = np.empty((11, 4))
    wts = np.empty(11)

    pts[0] = 0.25
    wts[0] = -74.0 / 5625.0

    a, b = 1.0 / 14.0, 11.0 / 14.0
    for i in range(4):
        pts[1 + i] = a
        pts[1 + i, i] = b
    wts[1:5] = 343.0 / 45000.0

    c = (1.0 + math.sqrt(5.0 / 14.0)) / 4.0
    d = (1.0 - math.sqrt(5.0 / 14.0)) / 4.0
    pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    for k, (i, j) in enumerate(pairs):
        pts[5 + k] = d
        pts[5 + k, i] = c
        pts[5 + k, j] = c
    wts[5:] = 28.0 / 1125.0

    return pts, wts


_RULES = {4: _rule_4, 11: _rule_11}


def tet_rule(points: int) -> tuple[np.ndarray, np.ndarray]:
    """Return ``(bary, weights)`` for a rule with the given point count.

    ``bary`` has shape ``(points, 4)``; weights sum to 1/6.  Supported point
    counts: 4 (degree 2), which the stiffness kernel and material sampling
    use, and 11 (degree 4), the reference the tests integrate against.
    """
    try:
        return _RULES[points]()
    except KeyError:
        raise ValueError(f"no tetrahedron rule with {points} points") from None

"""The degree-4, 11-point Keast rule on the reference tetrahedron, the
independent reference that the tests integrate against: the package
itself integrates only with the 4-point ``mesh.TET_RULE``.

Points are barycentric coordinates (11, 4); the weights sum to the
reference volume 1/6, one of them negative (the centroid's).
"""

import math

import numpy as np


def _keast_rule() -> tuple[np.ndarray, np.ndarray]:
    # centroid + 4 corner-biased + 6 edge-midpoint-biased points
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


KEAST_RULE = _keast_rule()

import math

import numpy as np
import pytest

from keast_rule import KEAST_RULE
from spinefe.mesh import TET_RULE

# each rule by its point count, the ids the cases below run under
RULES = {4: TET_RULE, 11: KEAST_RULE}
DEGREE = {4: 2, 11: 4}


def monomial_integral(a: int, b: int, c: int, d: int) -> float:
    # exact integral of L0^a L1^b L2^c L3^d over the reference tet
    # (volume 1/6): a! b! c! d! * 3! * V / (a+b+c+d+3)!
    num = math.factorial(a) * math.factorial(b) * math.factorial(c) * math.factorial(d)
    return num * math.factorial(3) * (1.0 / 6.0) / math.factorial(a + b + c + d + 3)


def rule_integral(points: int, powers: tuple[int, int, int, int]) -> float:
    bary, wts = RULES[points]
    vals = np.prod(bary ** np.array(powers, dtype=float), axis=1)
    return float((wts * vals).sum())


@pytest.mark.parametrize("points", [4, 11])
def test_weights_sum_to_reference_volume(points):
    _, wts = RULES[points]
    assert wts.sum() == pytest.approx(1.0 / 6.0, abs=1e-15)


@pytest.mark.parametrize("points", [4, 11])
def test_barycentric_coordinates_sum_to_one(points):
    bary, _ = RULES[points]
    assert np.allclose(bary.sum(axis=1), 1.0, atol=1e-15)


@pytest.mark.parametrize("points", [4, 11])
def test_exact_for_monomials_up_to_design_degree(points):
    deg = DEGREE[points]
    for a in range(deg + 1):
        for b in range(deg + 1 - a):
            for c in range(deg + 1 - a - b):
                for d in range(deg + 1 - a - b - c):
                    exact = monomial_integral(a, b, c, d)
                    got = rule_integral(points, (a, b, c, d))
                    assert got == pytest.approx(exact, abs=1e-14), (a, b, c, d)


def test_eleven_point_rule_is_degree_four_not_five():
    # L1^5 is degree 5; the rule must not integrate it exactly
    exact = monomial_integral(0, 5, 0, 0)
    got = rule_integral(11, (0, 5, 0, 0))
    assert abs(got - exact) > 1e-9

"""The error estimate against exact values: it must bound the actual error.

Oracles: the depth-2 closed form log((m1 + m2)/m1)/m2 of zeta_{m1,m2}(1,2),
evaluated in mpmath for bounds from 1e-300 to 1e300; mpmath.quad for shifted
depth-3 values; and a tensor Gauss-Legendre rule on the unit-cube form of
zeta(1,...,1,2), whose integrand is analytic on the closed cube.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from cmzv import quad
from cmzv.quad import ShiftedCMZV, eval_numeric, eval_unit_cube_ones

mpmath = pytest.importorskip("mpmath")

_EXTREMES = [Fraction(10) ** e for e in (-300, -10, 0, 10, 300)]


def _mpf(q: Fraction):
    return mpmath.mpf(q.numerator) / q.denominator


def _check(res, exact: float, tol: float) -> None:
    actual = abs(res.value - exact)
    assert actual <= res.error_estimate, (res, exact)
    if res.error_estimate <= tol:
        assert res.converged, res


@pytest.mark.parametrize("m1", _EXTREMES, ids=lambda m: f"{float(m):.0e}")
@pytest.mark.parametrize("m2", _EXTREMES, ids=lambda m: f"{float(m):.0e}")
def test_depth2_closed_form_at_extreme_bounds(m1, m2):
    # once 34.758 +- 1.846 at bounds (1e-300, 1), where the value is 690.78
    quad.clear_caches()
    res = eval_numeric(ShiftedCMZV((m1, m2), (1, 2)))
    with mpmath.workdps(30):
        exact = float(mpmath.log1p(_mpf(m2 / m1)) / _mpf(m2))
    assert math.isfinite(res.value) and math.isfinite(res.error_estimate)
    _check(res, exact, 1e-8)


@pytest.mark.parametrize(
    "parts, bounds",
    [
        ((1, 1, 2), (Fraction(1, 7), Fraction(3), Fraction(7, 2))),
        ((2, 1, 3), (Fraction(5), Fraction(1, 3), Fraction(2))),
        ((1, 2, 2), (Fraction(7), Fraction(7), Fraction(1, 7))),
    ],
)
def test_shifted_depth3_against_mpmath_quad(parts, bounds):
    k1, k2, k3 = parts
    with mpmath.workdps(20):
        m1, m2, m3 = (_mpf(b) for b in bounds)
        exact = float(
            mpmath.quad(
                lambda x1, x2: x1**-k1 * (x1 + x2) ** -k2 * (x1 + x2 + m3) ** (1 - k3) / (k3 - 1),
                [m1, mpmath.inf],
                [m2, mpmath.inf],
            )
        )
    for tol in (1e-6, 1e-9):
        quad.clear_caches()
        _check(eval_numeric(ShiftedCMZV(bounds, parts), tol), exact, tol)


def _cube_oracle(r: int, nodes: int = 24) -> float:
    """zeta(1,...,1,2) at depth r by the tensor Gauss-Legendre rule on the
    unit-cube form, one node of the first variable at a time."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    y, w = 0.5 * (x + 1.0), 0.5 * w
    tail = np.array(1.0)  # 1 + y_2 (1 + y_3 (...)) over the inner variables
    for _ in range(r - 2):
        tail = 1.0 + np.multiply.outer(y, tail)
    total = 0.0
    for y1, w1 in zip(y, w):
        vals = 1.0 / (1.0 + y1 * tail)
        for _ in range(r - 2):
            vals = w @ vals
        total += w1 * float(vals)
    return total


@pytest.fixture(scope="module")
def cube_values():
    return {r: _cube_oracle(r) for r in range(3, 7)}


@pytest.mark.parametrize("tol", [1e-6, 1e-9, 1e-12])
def test_estimate_bounds_error_on_depth2_grid(tol):
    for m1 in range(1, 8):
        for m2 in range(1, 8):
            quad.clear_caches()
            res = eval_numeric(ShiftedCMZV((m1, m2), (1, 2)), tol)
            assert abs(res.value - math.log((m1 + m2) / m1) / m2) <= res.error_estimate, (m1, m2)


@pytest.mark.parametrize("tol", [1e-5, 1e-8])
@pytest.mark.parametrize("r", [3, 4, 5, 6])
def test_estimate_bounds_error_on_unit_cube(cube_values, r, tol):
    quad.clear_caches()
    _check(eval_unit_cube_ones(r, tol), cube_values[r], tol)


@pytest.mark.parametrize("tol", [1e-5, 1e-8])
@pytest.mark.parametrize("r", [3, 4, 5])
def test_estimate_bounds_error_on_semi_infinite_ones(cube_values, r, tol):
    quad.clear_caches()
    _check(eval_numeric((1,) * (r - 1) + (2,), tol), cube_values[r], tol)

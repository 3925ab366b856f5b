"""The error estimate against exact values: it must bound the actual error.

Oracles: the depth-2 closed form log((m1 + m2)/m1)/m2 of zeta_{m1,m2}(1,2),
evaluated in mpmath for bounds from 1e-300 to 1e300; mpmath.quad for shifted
depth-3 values; a tensor Gauss-Legendre rule on the unit-cube form of
zeta(1,...,1,2), whose integrand is analytic on the closed cube; and closed
forms of one-dimensional integrals over [lower, oo).
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from cmzv import quad
from cmzv.errors import DomainError
from cmzv.quad import ShiftedCMZV, eval_numeric, eval_unit_cube_ones, integrate_semi_infinite

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
    # at 20 digits the first case's oracle is 1.5e-12 off its dilogarithm closed form
    with mpmath.workdps(30):
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
    # depth 7 with 14 nodes: 3.7e-14 off in 0.04 s
    return {**{r: _cube_oracle(r) for r in range(2, 7)}, 7: _cube_oracle(7, 14)}


@pytest.mark.parametrize("tol", [1e-6, 1e-9, 1e-12])
def test_estimate_bounds_error_on_depth2_grid(tol):
    for m1 in range(1, 8):
        for m2 in range(1, 8):
            quad.clear_caches()
            res = eval_numeric(ShiftedCMZV((m1, m2), (1, 2)), tol)
            assert abs(res.value - math.log((m1 + m2) / m1) / m2) <= res.error_estimate, (m1, m2)


@pytest.mark.parametrize("tol", [1e-5, 1e-8, 1e-12])
@pytest.mark.parametrize("r", [2, 3, 4, 5, 6, 7])
def test_estimate_bounds_error_on_unit_cube(cube_values, r, tol):
    quad.clear_caches()
    _check(eval_unit_cube_ones(r, tol, depth_cap=7), cube_values[r], tol)


@pytest.mark.parametrize("tol", [1e-5, 1e-8])
@pytest.mark.parametrize("r", [3, 4, 5])
def test_estimate_bounds_error_on_semi_infinite_ones(cube_values, r, tol):
    quad.clear_caches()
    _check(eval_numeric((1,) * (r - 1) + (2,), tol), cube_values[r], tol)


def _semi_infinite_cases():
    """(name, f, lower, exact) for integrals over [lower, oo) with closed forms."""
    for p in (1.05, 1.1, 1.3, 1.5, 2.0, 3.0, 4.5, 8.0):
        for lower in (0.5, 1.0, 3.0):
            yield f"x^-{p} from {lower}", lambda x, p=p: x**-p, lower, lower ** (1 - p) / (p - 1)
    yield "1/(1+x^2)", lambda x: 1.0 / (1.0 + x * x), 0.0, math.pi / 2
    yield "e^-x cos x", lambda x: np.exp(-x) * np.cos(x), 0.0, 0.5
    yield "1/(x(x+1))", lambda x: 1.0 / (x * (x + 1.0)), 1.0, math.log(2.0)
    yield "e^-x^2", lambda x: np.exp(-x * x), 0.0, math.sqrt(math.pi) / 2
    yield "e^-x/sqrt(x)", lambda x: np.exp(-x) / np.sqrt(x), 0.0, math.sqrt(math.pi)
    for lower in (1e10, 1e100, 1e150):
        yield f"x^-2 from {lower:.0e}", lambda x: x**-2.0, lower, 1.0 / lower


@pytest.mark.parametrize("tol", [1e-4, 1e-8, 1e-12])
@pytest.mark.parametrize(
    "name, f, lower, exact", [pytest.param(*case, id=case[0]) for case in _semi_infinite_cases()]
)
def test_integrate_semi_infinite_estimate_is_honest(name, f, lower, exact, tol):
    # x^-1.05 needs E = exp(pi sinh s) past the float range at 1e-12: there
    # the honest answers are converged=False and DomainError, never a claim.
    try:
        res = integrate_semi_infinite(f, lower, tol)
    except DomainError as exc:
        assert name.startswith("x^-1.05") and tol == 1e-12, name
        assert "exp-sinh map overflowed" in str(exc)
        return
    actual = abs(res.value - exact)
    assert actual <= res.error_estimate, (res, exact)
    if res.converged:
        assert actual <= tol, (res, exact)
    if name.startswith("x^-1.05") and tol == 1e-12:
        assert not res.converged, res


def test_integrate_semi_infinite_far_lower_bound_at_tight_tolerance():
    # once about 7e-18 with converged=True; the value is 1e-10
    res = integrate_semi_infinite(lambda x: x**-2.0, 1e10, 1e-20)
    assert abs(res.value - 1e-10) <= res.error_estimate <= 1e-20
    assert res.converged

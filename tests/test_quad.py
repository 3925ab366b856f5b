"""The numeric routes: the chain of one-variable antiderivatives over
products of tails [m_i, oo), the unit-cube recursion, and the exp-sinh rule
of integrate_semi_infinite."""

import itertools
import math
import random
import sys
import time
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest

from cmzv import quad
from cmzv.compositions import Composition, admissible_compositions, admissible_target, convergence_bound
from cmzv.errors import CapacityError, DivergenceError, DomainError
from cmzv.etaspace import sum_formula_lhs_terms
from cmzv.memo import Memo
from cmzv.quad import (
    ShiftedCMZV,
    check_tolerance,
    default_tolerance,
    eval_basis_generator,
    eval_numeric,
    eval_unit_cube_ones,
    integrate_semi_infinite,
)
from cmzv.verify import term_tolerance, verify_identity

LOG2 = math.log(2.0)


def test_depth1_is_exact():
    # 1/(k-1) rounded once: the estimate is 0 where the float is exact, else its ulp
    for k in range(2, 10):
        res = eval_numeric(Composition((k,)))
        error = abs(Fraction(res.value) - Fraction(1, k - 1))
        assert error <= Fraction(res.error_estimate) <= Fraction(math.ulp(res.value))
        assert (res.error_estimate == 0.0) == (k in (2, 3, 5, 9)), k
        assert res.evaluations == 0
        assert res.converged


def test_depth1_shifted_exact():
    res = eval_numeric(ShiftedCMZV((Fraction(3),), Composition((4,))))
    # int_3^oo x^-4 dx = 3^-3 / 3
    assert res.value == pytest.approx(1.0 / 81.0, abs=1e-15)


@pytest.mark.parametrize(
    "target, message",
    [
        # int_{1e-400}^oo x^-2 dx = 1e400
        pytest.param(ShiftedCMZV((Fraction("1e-400"),), (2,)), "exceeds the float range", id="depth1-1e400"),
        # about 1e-600 and 1e-900: once 0 with estimate 0 and converged=True
        pytest.param(ShiftedCMZV((10**300,) * 2, (1, 3)), "below the normal float range", id="depth2-1e-600"),
        pytest.param(ShiftedCMZV((10**300,) * 3, (1, 1, 3)), "below the normal float range", id="depth3-1e-900"),
    ],
)
def test_value_outside_float_range_is_domain_error(target, message):
    quad.clear_caches()
    with pytest.raises(DomainError, match=message):
        eval_numeric(target, 1e-10)


@pytest.mark.parametrize(
    "bounds",
    [
        (Fraction("1e-450"), Fraction("1e250")),
        (1, Fraction("1e301")),
        (Fraction("1e-301"), 1, 1),
        (1, Fraction(10**300) + Fraction(1, 10**9)),  # just above the upper edge
        (Fraction(1, 10**300) - Fraction(1, 10**310), 1),  # just below the lower edge
    ],
)
def test_bound_outside_numeric_range_is_domain_error(bounds):
    # the true zeta_{1e-450,1e250}(1,2) is log1p(1e700)/1e250 = 1.612e-247
    parts = (1,) * (len(bounds) - 1) + (2,)
    with pytest.raises(DomainError, match=r"outside \[1e-300, 1e300\]"):
        eval_numeric(ShiftedCMZV(bounds, parts))


@pytest.mark.parametrize("k", [1030, 2000])
def test_large_first_exponent_matches_digamma(k):
    # s^p and x^(p+1) in the step matrices once overflowed once p = k - 1
    # passed 1023, and the NaN was reported as a value beyond the float range
    mpmath = pytest.importorskip("mpmath")
    quad.clear_caches()
    res = eval_numeric((k, 2))
    with mpmath.workdps(30):
        exact = float((mpmath.digamma(mpmath.mpf(k + 1) / 2) - mpmath.digamma(mpmath.mpf(k) / 2)) / 2)
    assert res.converged and abs(res.value - exact) <= res.error_estimate, (res, exact)


def test_step_memory_does_not_grow_with_the_power():
    # (20000, 2) once asked for a 1.49 GiB cosine table; the largest step the
    # weight cap admits, p = 4032 at n = 64, builds in blocks
    quad._STEPS.clear()
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="Fejer points"):
            eval_numeric((20000, 2))
        quad._step(64, quad._MAX_FEJER - 64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 << 20, peak


def _later_exponent_value(parts):
    """mpmath's value of (k1, k) or (1, 1, k) at unit bounds, as a 1-D integral
    whose inner integrals are in closed form."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        k = mpmath.mpf(parts[-1])
        if len(parts) == 2:
            f = lambda x: x ** -parts[0] * (x + 1) ** (1 - k) / (k - 1)
        else:  # int_{x+1}^oo u^-1 (u+1)^(1-k) du / (k-1), with u = 1/t
            f = lambda x: (x + 1) ** (1 - k) / (x * (k - 1) ** 2) * mpmath.hyp2f1(k - 1, k - 1, k, -1 / (x + 1))
        return float(mpmath.quad(f, [1] + [1 + mpmath.mpf(4) ** i / k for i in range(8)] + [mpmath.inf]))


@pytest.mark.parametrize("parts", [(2, 160), (2, 581), (2, 700), (1, 1, 90), (1, 1, 200)])
def test_large_later_exponent_is_right_or_a_domain_error(parts):
    # once an untyped ValueError from log(B) with B <= 0, or a NaN reported
    # as a value beyond the float range; (2, 581), 1.49e-180, goes
    # nonpositive at n = 8 alone, and its later runs agree on 3.4e-113
    quad.clear_caches()
    try:
        res = eval_numeric(parts)
    except DomainError as exc:
        assert "nonpositive" in str(exc), exc
    else:
        exact = _later_exponent_value(parts)
        assert abs(res.value - exact) <= res.error_estimate, (res, exact)


def test_a_nonpositive_interpolant_in_any_run_fails_the_call(monkeypatch):
    # the runs at n >= 16 are sound here, but one that went nonpositive is
    # evidence against them all
    interpolate = quad._interpolate

    def first_run_oscillates(scale, coeffs, geometry):
        out = interpolate(scale, coeffs, geometry)
        if scale.shape[1] == 2:  # the pass of n = 8 and 16; its run 0 is n = 8
            out[np.flatnonzero(geometry.piece % 2 == 0)[0]] = math.nan  # the log of an interpolated B below 0
        return out

    monkeypatch.setattr(quad, "_interpolate", first_run_oscillates)
    quad.clear_caches()
    with pytest.raises(DomainError, match="interpolant went nonpositive"):
        eval_numeric((2, 3, 4))
    quad.clear_caches()


@pytest.mark.xfail(strict=True, reason="the chain's pieces ignore sigma: ROADMAP item 2")
@pytest.mark.parametrize("parts, tol", [((2, 150), 1e-10), ((5, 144), 1e-8), ((1, 56), 1e-300)])
def test_large_later_exponent_estimate_bounds_the_error(parts, tol):
    # psi carries (U + m w')^-sigma, which falls by about e^(0.29 sigma)
    # across the top piece; its interpolant there oscillates, yet stays positive
    quad.clear_caches()
    res = eval_numeric(parts, tol)
    exact = _later_exponent_value(parts)
    assert abs(res.value - exact) <= res.error_estimate, (res, exact)


def test_depth1_outside_numeric_range_stays_exact():
    res = eval_numeric(ShiftedCMZV((Fraction("1e310"),), (2,)))
    assert res.value == float(Fraction("1e-310")) and res.converged
    # 1e-600 / 2 rounds to 0, within the ulp of 0
    res = eval_numeric(ShiftedCMZV((10**300,), (3,)))
    assert (res.value, res.error_estimate, res.converged) == (0.0, 5e-324, True)


def test_log2_value():
    res = eval_numeric(Composition((1, 2)), tol=1e-10)
    assert abs(res.value - LOG2) < 1e-10
    assert res.converged
    assert res.evaluations > 0
    assert res.error_estimate >= 0.0


def test_depth2_shifted_closed_form_grid():
    for m1 in range(1, 5):
        for m2 in range(1, 5):
            got = eval_numeric(ShiftedCMZV((m1, m2), Composition((1, 2))), tol=1e-9)
            want = math.log((m1 + m2) / m1) / m2
            assert abs(got.value - want) < 1e-9, (m1, m2)


def test_known_depth2_values():
    assert abs(eval_numeric(Composition((2, 2)), tol=1e-10).value - (1 - LOG2)) < 1e-9
    assert abs(eval_numeric(Composition((1, 3)), tol=1e-10).value - (LOG2 / 2 - 0.25)) < 1e-9


def test_unit_cube_matches_semi_infinite():
    for r in (2, 3):
        cube = eval_unit_cube_ones(r, tol=1e-9)
        semi = eval_numeric(Composition((1,) * (r - 1) + (2,)), tol=1e-9)
        assert abs(cube.value - semi.value) < 1e-8, r
        assert cube.converged and semi.converged


def test_unit_cube_depth2_is_log2():
    assert abs(eval_unit_cube_ones(2, tol=1e-10).value - LOG2) < 1e-9


def test_rejects_non_admissible():
    with pytest.raises(DivergenceError):
        eval_numeric(Composition((1,)))
    with pytest.raises(DivergenceError):
        eval_numeric(Composition((2, 1)))


def test_depth_cap():
    with pytest.raises(CapacityError):
        eval_numeric(Composition((1,) * 6 + (2,)), depth_cap=6)
    with pytest.raises(CapacityError):
        eval_unit_cube_ones(9, depth_cap=6)


def test_shifted_cmzv_validation():
    with pytest.raises(DomainError):
        ShiftedCMZV((0,), Composition((2,)))
    with pytest.raises(DomainError):
        ShiftedCMZV((1, 1), Composition((2,)))


def test_default_tolerance_tiers():
    assert default_tolerance(1) == default_tolerance(3) == 1e-8
    assert default_tolerance(4) == default_tolerance(6) == 1e-5


def test_values_positive_and_below_bound():
    for w in range(2, 6):
        for c in admissible_compositions(w):
            val = eval_numeric(c, tol=1e-8).value
            bound = convergence_bound(tuple(float(k) for k in c.parts))
            assert 0.0 < val, c
            if c.depth >= 2:
                assert val < bound, c
            else:
                assert val == pytest.approx(bound, abs=1e-15)


def test_every_composition_up_to_weight_12_converges_below_its_bound():
    # depths 2-6 at every node count the runs reach, with warnings raised as
    # errors: no interpolant goes negative and no log of it is taken
    quad.clear_caches()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for w in range(3, 13):
            for c in admissible_compositions(w):
                if 2 <= c.depth <= 6:
                    res = eval_numeric(c, tol=1e-10)
                    bound = convergence_bound(tuple(float(k) for k in c.parts))
                    assert res.converged and 0.0 < res.value <= bound, c


def test_monotone_in_exponents():
    # raising any exponent shrinks the integrand pointwise on [1,oo) products
    v12 = eval_numeric(Composition((1, 2)), tol=1e-9).value
    v13 = eval_numeric(Composition((1, 3)), tol=1e-9).value
    v22 = eval_numeric(Composition((2, 2)), tol=1e-9).value
    assert v13 < v12
    assert v22 < v12


def test_monotone_in_bounds():
    rng = random.Random(17)
    for _ in range(10):
        m1, m2 = rng.randint(1, 4), rng.randint(1, 4)
        base = eval_numeric(ShiftedCMZV((m1, m2), Composition((1, 2))), tol=1e-9).value
        bumped = eval_numeric(ShiftedCMZV((m1 + 1, m2), Composition((1, 2))), tol=1e-9).value
        assert bumped < base


def test_cache_returns_consistent_results():
    a = eval_numeric(Composition((1, 1, 2)), tol=1e-8)
    b = eval_numeric(Composition((1, 1, 2)), tol=1e-8)
    assert a == b
    # looser request is served from the tighter cached result
    c = eval_numeric(Composition((1, 1, 2)), tol=1e-6)
    assert c.value == a.value


def _count_runs(monkeypatch) -> list:
    """The node counts of the chain runs made after the call."""
    calls = []
    chain = quad._chain

    def counted(plan, ns):
        calls.extend(ns)
        return chain(plan, ns)

    monkeypatch.setattr(quad, "_chain", counted)
    return calls


def test_memo_serves_every_tol_at_or_above_the_achieved_estimate(monkeypatch):
    quad.clear_caches()
    first = eval_numeric(Composition((1, 1, 3)), tol=1e-6)
    assert first.converged and first.error_estimate < 1e-6
    runs = _count_runs(monkeypatch)
    estimate = first.error_estimate
    for tol in (estimate, (estimate + 1e-6) / 2, 1e-6, 1e-2):
        assert eval_numeric(Composition((1, 1, 3)), tol=tol) is first
    assert runs == []
    tighter = eval_numeric(Composition((1, 1, 3)), tol=estimate / 2)
    assert runs and tighter is not first
    assert tighter.converged and tighter.error_estimate <= estimate / 2
    # the tighter result now serves the looser request too
    assert eval_numeric(Composition((1, 1, 3)), tol=1e-6) is tighter


def test_memo_unconverged_result_serves_only_its_own_tol_and_above(monkeypatch):
    quad.clear_caches()
    # below the rounding allowance of the chain, no node count can converge
    stuck = eval_numeric(Composition((1, 1, 2)), tol=1e-20)
    assert not stuck.converged and stuck.error_estimate > 1e-20
    runs = _count_runs(monkeypatch)
    assert eval_numeric(Composition((1, 1, 2)), tol=1e-20) is stuck
    assert eval_numeric(Composition((1, 1, 2)), tol=1e-19) is stuck
    assert runs == []
    again = eval_numeric(Composition((1, 1, 2)), tol=1e-21)
    assert runs and again is not stuck and not again.converged


def test_memo_hit_is_converged_when_its_estimate_meets_the_request(monkeypatch):
    quad.clear_caches()
    stuck = eval_numeric(Composition((1, 1, 2)), tol=1e-20)
    assert not stuck.converged and stuck.error_estimate <= 1e-10
    runs = _count_runs(monkeypatch)
    served = eval_numeric(Composition((1, 1, 2)), tol=1e-10)
    assert runs == []
    assert served.converged
    assert (served.value, served.error_estimate, served.evaluations) == (
        stuck.value, stuck.error_estimate, stuck.evaluations
    )
    # a cold call at the looser tolerance converges too
    quad.clear_caches()
    assert eval_numeric(Composition((1, 1, 2)), tol=1e-10).converged


@pytest.mark.parametrize("tol", [1e-1, 1e-2, 1e-3, 1e-4])
def test_values_that_stop_at_level2_stay_within_their_estimate(tol):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        depth3 = float(mpmath.polylog(2, -1) - mpmath.polylog(2, -2))
    depth4 = eval_unit_cube_ones(4, 1e-12)
    assert depth4.converged
    cases = (((1, 1, 2), depth3, 0.0), ((1, 1, 1, 2), depth4.value, depth4.error_estimate))
    for parts, oracle, slack in cases:
        quad.clear_caches()
        res = eval_numeric(Composition(parts), tol)
        assert abs(res.value - oracle) <= res.error_estimate + slack, parts
        assert res.error_estimate <= tol and res.converged, parts


@pytest.mark.parametrize("tol", [math.inf, math.nan, 0.0, -1e-6])
def test_tolerance_must_be_finite_and_positive(tol):
    with pytest.raises(DomainError, match="^tolerance must be"):
        check_tolerance(tol)
    with pytest.raises(DomainError, match="^tolerance must be"):
        eval_numeric(Composition((1, 2)), tol)
    with pytest.raises(DomainError, match="^tolerance must be"):
        eval_numeric(Composition((3,)), tol)
    with pytest.raises(DomainError, match="^tolerance must be"):
        eval_unit_cube_ones(3, tol)
    with pytest.raises(DomainError, match="^tolerance must be"):
        integrate_semi_infinite(lambda x: x**-2.0, 1.0, tol)


def test_end_whose_ratio_rounds_to_1_is_unbounded():
    # back exceeds last by one ulp over 59 nodes: rho rounds to 1, which
    # once divided by zero
    m = [1.0] * 59 + [1.0 + 2**-52]
    assert quad._tail(m, 2048) is None


def test_semi_infinite_at_a_small_node_range_cap_ends_unconverged(monkeypatch):
    # x^-1.05 needs the range past |s| = 4 at 1e-12: capped there, the
    # unbounded tail counts as the value, so the call stops unconverged
    monkeypatch.setattr(quad, "_S_CAP", 4)
    quad._exp_sinh_nodes.cache_clear()
    try:
        res = integrate_semi_infinite(lambda x: x**-1.05, 1.0, 1e-12)
    finally:
        quad._exp_sinh_nodes.cache_clear()
    assert not res.converged, res
    assert math.isfinite(res.error_estimate) and abs(res.value - 20.0) <= res.error_estimate, res
    assert res.evaluations <= 17 * (8 * (8 + 16 + 32 + 64) + 4), res


def test_semi_infinite_evaluations_stay_within_the_stated_bound():
    # integrate_semi_infinite's docstring: runs at n = 8, 16, 32 and 64, each
    # of at most 17 sweeps of at most 14 n + 1 nodes
    from test_quad_calibration import _semi_infinite_cases

    for name, f, lower, _ in _semi_infinite_cases():
        for tol in (1e-4, 1e-8, 1e-12):
            try:
                res = integrate_semi_infinite(f, lower, tol)
            except DomainError:
                continue
            assert res.evaluations <= 17 * (14 * (8 + 16 + 32 + 64) + 4), (name, tol, res)


def test_clear_caches_empties_both_memos():
    quad.clear_caches()
    eval_numeric(Composition((1, 1, 2)), tol=1e-6)
    cube = eval_unit_cube_ones(3, tol=1e-6)
    # one memo holds both routes; a hit returns the stored object itself
    assert set(quad._RESULTS.entries) == {((Fraction(1),) * 3, (1, 1, 2)), ("cube", 3)}
    assert eval_unit_cube_ones(3, tol=1e-5) is cube
    quad.clear_caches()
    assert len(quad._RESULTS.entries) == 0


def test_a_stored_result_is_replaced_only_by_one_that_serves_more(monkeypatch):
    # a miss that ends after another caller stored a tighter result for the
    # same key (as threads may) leaves the tighter one in place
    monkeypatch.setattr(quad, "_RESULTS", Memo(8))
    tight, loose = quad.NumericResult(1.0, 1e-12, 10, True), quad.NumericResult(1.0, 1e-6, 5, True)

    def run(tol):
        assert quad._memoized("key", 1e-12, lambda tol: tight) is tight
        return loose

    assert quad._memoized("key", 1e-5, run) is loose
    assert quad._memoized("key", 1e-11, run) is tight


# Rows computed cold by the nested adaptive Gauss-Kronrod engine that the
# tensor rule replaced: (kind, exponents or depth, bounds, tol, its value,
# its error estimate), each value within about 1e-11 of the truth; then the
# evaluations of today's routes, captured cold (on the chain, the node values
# of psi formed over the node counts n tried; on the cube, (r - 1) n^2 summed
# over them).
_PINNED = [
    ("semi", (1, 2), None, 1e-7, 0.6931471805599454, 2.5169205873843144e-13, 72),
    ("semi", (1, 1, 2), None, 1e-7, 0.6142793334595685, 2.427561666629779e-09, 144),
    ("semi", (2, 1, 3), None, 1e-4, 0.01813857202455389, 7.217660106945705e-08, 144),
    ("semi", (1, 1, 1, 2), None, 1e-4, 0.5849770520591736, 2.97342650325648e-06, 216),
    ("semi", (1, 2), (2, 3), 1e-6, 0.3054302439580521, 1.0944020674315767e-09, 96),
    ("semi", (1, 1, 2), (3, 1, 2), 1e-6, 0.2567169534681611, 1.38799733759164e-08, 144),
    ("cube", 3, None, 1e-6, 0.6142793334595676, 2.1152178015973951e-10, 640),
    ("cube", 4, None, 1e-9, 0.5849770520487971, 2.2968101393910006e-13, 4032),
]


@pytest.mark.parametrize("kind, arg, bounds, tol, value, error, evaluations", _PINNED)
def test_nested_engine_pinned_table(kind, arg, bounds, tol, value, error, evaluations):
    quad.clear_caches()
    if kind == "cube":
        res = eval_unit_cube_ones(arg, tol)
    else:
        res = eval_numeric(ShiftedCMZV(bounds, arg) if bounds else Composition(arg), tol)
    assert res.converged
    assert res.error_estimate <= tol
    assert abs(res.value - value) <= res.error_estimate + error
    assert res.evaluations == evaluations


# The chain targets of _PINNED, and the 20 depth-4 sum-formula terms of the
# benchmark's numeric workload (weight 7, per-term tolerance 4.76e-9).
_FUSED = [ShiftedCMZV(b, arg) if b else Composition(arg) for kind, arg, b, *_ in _PINNED if kind == "semi"]
_FUSED += [c for c, _ in sum_formula_lhs_terms(4, 7)]


@pytest.mark.parametrize("target", _FUSED, ids=str)
def test_fused_pass_agrees_with_a_run_per_node_count(target):
    # n = 8 and 16 share one pass; each run keeps its own value, count and allowance
    plan = quad._chain_plan(admissible_target(target, 6))
    for n, (value, evaluations, allowance) in zip((8, 16), quad._chain(plan, (8, 16))):
        ((alone, count, own),) = quad._chain(plan, (n,))
        assert evaluations == count, n
        assert abs(value - alone) <= own, n
        assert abs(allowance - own) <= 1e-9 * own, n


def test_runs_take_8_and_16_then_double(monkeypatch):
    runs = _count_runs(monkeypatch)
    quad.clear_caches()
    assert eval_numeric(Composition((1, 1, 2)), tol=1e-6).converged
    assert runs == [8, 16]
    runs.clear()
    quad.clear_caches()
    eval_numeric((1, 56), 1e-300)  # reaches the node cap
    assert runs == [8, 16, 32, 64]
    quad.clear_caches()


def test_depth2_is_one_closed_form_evaluation():
    quad.clear_caches()
    res = eval_numeric(Composition((2, 2)), tol=1e-14)
    assert res.converged
    assert abs(res.value - (1.0 - LOG2)) <= res.error_estimate <= 1e-14


def test_depth3_generators_match_dilogarithm_closed_form():
    # B(m1, m2, m3) = (Li2(-m2/m1) - Li2(-(m2+m3)/m1)) / m3
    mpmath = pytest.importorskip("mpmath")
    grid = (Fraction(1), Fraction(2), Fraction(3), Fraction(1, 2))
    far = (Fraction(1, 10**6), Fraction(10**6))
    for ids in itertools.product(grid + far, repeat=3):
        m1, m2, m3 = (mpmath.mpf(m.numerator) / m.denominator for m in ids)
        with mpmath.workdps(30):
            exact = float((mpmath.polylog(2, -m2 / m1) - mpmath.polylog(2, -(m2 + m3) / m1)) / m3)
        # values reach 6.1e5 with bounds 1e-6; with a far bound the tolerance is relative
        tol = 1e-12 * max(1.0, exact) if set(ids) & set(far) else 1e-12
        quad.clear_caches()
        res = eval_basis_generator(ids, tol=tol)
        assert abs(res.value - exact) <= res.error_estimate <= tol, ids


def test_tolerance_far_below_rounding_stops_early_at_extreme_bounds():
    # once 233,991,290 points at depth 3 and 247,485,318 at depth 4 before
    # each stopped unconverged
    bounds = (Fraction(1, 10**300), Fraction(10**10), Fraction(10**300))
    for target in (ShiftedCMZV(bounds, (2, 1, 2)), ShiftedCMZV(bounds + (1,), (2, 1, 1, 2))):
        quad.clear_caches()
        res = eval_numeric(target, 1e-300)
        assert not res.converged and res.evaluations < 10**6, target


def test_multi_scale_bounds_do_not_claim_a_wrong_value():
    # once converged=True with value 7.66e-8 and estimate 7.66e-8 after 217
    # points; the oracle is mpmath's value
    quad.clear_caches()
    bounds = (Fraction(1, 10**300), Fraction(10**10), Fraction(10**300))
    res = eval_numeric(ShiftedCMZV(bounds, (2, 1, 2)), 1e-6)
    assert not res.converged or abs(res.value - 667.74967696827325) <= res.error_estimate


def test_depth6_ones_at_1e9_agrees_with_unit_cube():
    quad.clear_caches()
    semi = eval_numeric(Composition((1, 1, 1, 1, 1, 2)), 1e-9)
    cube = eval_unit_cube_ones(6, 1e-9)
    assert semi.converged and cube.converged
    assert semi.evaluations <= 10**7 and cube.evaluations < 10**6
    assert abs(semi.value - cube.value) <= semi.error_estimate + cube.error_estimate
    # the benchmark's cube value: once 1,931,079 points
    quad.clear_caches()
    cube = eval_unit_cube_ones(6, 1e-5)
    assert cube.converged and cube.evaluations < 10**5
    assert abs(semi.value - cube.value) <= semi.error_estimate + cube.error_estimate


def test_unit_cube_depth3_matches_its_dilogarithm_closed_form():
    # -pi^2/12 - Li2(-2), at 30 digits
    mpmath = pytest.importorskip("mpmath")
    quad.clear_caches()
    res = eval_unit_cube_ones(3, tol=1e-13)
    assert res.converged and res.error_estimate <= 1e-13
    with mpmath.workdps(30):
        exact = -mpmath.pi**2 / 12 - mpmath.polylog(2, -2)
    assert abs(res.value - float(exact)) <= res.error_estimate
    assert eval_unit_cube_ones(3, tol=1e-6) is res


def test_unit_cube_depths_2_to_8_raise_no_warning():
    # every step matrix built afresh: at the node u = 0 every t is the
    # interpolation node 0, and its exact row divides by nothing
    quad._cube_step.cache_clear()
    quad.clear_caches()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = [eval_unit_cube_ones(r, 1e-12, depth_cap=8) for r in range(2, 9)]
    assert all(res.converged for res in values)
    assert quad._cube_step.cache_info().currsize == 4  # n = 8, 16, 32 and 64
    # depth 8 against the semi-infinite route, 0.9 s
    semi = eval_numeric(Composition((1,) * 7 + (2,)), 1e-4, depth_cap=8)
    assert semi.converged
    assert abs(values[-1].value - semi.value) <= values[-1].error_estimate + semi.error_estimate


def test_gauss_legendre_rule_is_exact_to_degree_2n_minus_1():
    # oracles: the integrals 2/(d + 1) and 0 of x^d over [-1, 1], and
    # numpy's eigenvalue rule, whose weights are themselves up to 1.8e-12
    # off the rule at 40 digits
    leggauss = np.polynomial.legendre.leggauss
    for n in range(8, 65):
        x, w = quad._gauss_legendre(n)
        d = np.arange(2 * n)
        exact = np.where(d % 2 == 0, 2.0 / (d + 1), 0.0)
        assert np.abs((w[:, None] * x[:, None] ** d).sum(axis=0) - exact).max() <= 4 * math.ulp(2.0), n
        lx, lw = leggauss(n)
        assert np.abs(x - lx).max() <= 2.0**-52 and np.abs(w / lw - 1.0).max() <= 1e-11, n


def test_chain_tables_stay_within_their_cap():
    # each first exponent k needs its own step matrices (p = k - 1 at n = 8
    # and 16), so these calls once kept 1,998 of them; counted from the arrays
    for k in range(2, 1001):
        eval_numeric((k, 2))
    steps = quad._STEPS
    assert 0 < sum(a.size for table in steps.entries.values() for a in table) <= steps.held <= steps.cap
    quad.clear_caches()


def test_results_memo_stays_within_its_cap(monkeypatch):
    targets = [ShiftedCMZV((m, 1), (1, 2)) for m in range(1, 31)]
    cold = []
    for t in targets:
        quad.clear_caches()
        cold.append(eval_numeric(t, 1e-8))
    monkeypatch.setattr(quad, "_RESULTS", Memo(8))
    sizes = []
    for t, expected in zip(targets, cold):
        assert eval_numeric(t, 1e-8) == expected, t
        sizes.append(len(quad._RESULTS.entries))
        assert sizes[-1] <= quad._RESULTS.held <= 8
    # a store past the cap emptied the memo, and what it keeps is served
    assert any(b < a for a, b in zip(sizes, sizes[1:]))
    last = eval_numeric(targets[-1], 1e-8)
    assert eval_numeric(targets[-1], 1e-7) is last


def test_geometry_memo_is_transparent_and_bounded():
    # the chain's values do not depend on which step shapes the memo holds:
    # cold before each call, warm in one order, warm in the other
    far = (Fraction(1, 10**6), Fraction(10**6))
    grid = (Fraction(1), Fraction(2), Fraction(3), Fraction(1, 2)) + far
    bounds = (Fraction(1, 10**300), Fraction(10**10), Fraction(10**300))
    calls = [(c, 1e-10) for w in range(3, 10) for c in admissible_compositions(w) if 2 <= c.depth <= 6]
    calls += [(ShiftedCMZV(ids, (1, 1, 2)), 1e-12) for ids in itertools.product(grid, repeat=3)]
    calls.append((ShiftedCMZV(bounds, (2, 1, 2)), 1e-6))

    def values(order, cold):
        out = {}
        for target, tol in order:
            quad.clear_caches()
            if cold:
                quad._GEOMETRY.clear()
            out[target] = eval_numeric(target, tol).to_json()
        return out

    def held():
        # counted from the arrays themselves, not from the memo's own sizes
        return sum(a.size for g in quad._GEOMETRY.entries.values() for a in (g.lz, g.piece, *(b for _, b in g.blocks)))

    expected = values(calls, cold=True)
    # the multi-scale target's steps are mostly too large to store
    assert held() <= quad._GEOMETRY.cap
    assert values(calls, cold=False) == expected
    assert values(calls[::-1], cold=False) == expected
    assert 0 < held() <= quad._GEOMETRY.cap


def test_geometry_memo_under_threads(monkeypatch):
    grid = (Fraction(1), Fraction(2), Fraction(1, 2), Fraction(10**6))
    targets = [ShiftedCMZV(ids, (1, 1, 2)) for ids in itertools.product(grid, repeat=3)]
    targets += [c for w in range(3, 8) for c in admissible_compositions(w) if 2 <= c.depth <= 5]
    quad.clear_caches()
    serial = [eval_numeric(t, 1e-10).to_json() for t in targets]
    # a cap this small empties the memo while other runs read from it, and
    # leaves the larger geometries (n = 64, and the far bound's from n = 16)
    # to be built per run; a short switch interval interleaves the threads
    monkeypatch.setattr(quad, "_GEOMETRY", Memo(4096))
    quad.clear_caches()
    order = list(range(len(targets)))
    random.Random(5).shuffle(order)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            got = list(pool.map(lambda i: eval_numeric(targets[i], 1e-10).to_json(), order, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert got == [serial[i] for i in order]
    assert quad._GEOMETRY.held == sum(g.size for g in quad._GEOMETRY.entries.values()) <= 4096


def test_depth6_default_tolerance_returns_promptly():
    # no numeric input may hang: converged or not, the work cap ends the call
    quad.clear_caches()
    t0 = time.monotonic()
    res = eval_numeric(Composition((1, 1, 1, 1, 1, 2)))
    assert time.monotonic() - t0 < 60.0
    assert res.converged == (res.error_estimate <= default_tolerance(6))


def test_integrate_semi_infinite_basics():
    res = integrate_semi_infinite(lambda x: x**-2.0, 1.0, tol=1e-12)
    assert abs(res.value - 1.0) < 1e-11
    res = integrate_semi_infinite(lambda x: np.exp(-x), 2.0, tol=1e-12)
    assert abs(res.value - math.exp(-2.0)) < 1e-11
    assert res.error_estimate >= 0.0
    assert res.converged


@pytest.mark.parametrize("lower", [math.inf, -math.inf, math.nan])
def test_integrate_semi_infinite_lower_bound_must_be_finite(lower):
    # inf once returned 0.0 as converged; -inf and nan said the value left the float range
    with pytest.raises(DomainError, match="^the lower bound must be finite"):
        integrate_semi_infinite(lambda x: x**-2.0, lower)


@pytest.mark.parametrize(
    "f, lower",
    [(lambda x: x**-2.0, 1e300), (lambda x: np.exp(-x), 800.0)],
    ids=["x^-2 from 1e300", "e^-x from 800"],
)
def test_integrate_semi_infinite_underflow_is_domain_error(f, lower):
    # once 0.0 with estimate 0 and converged=True; the integrals are 1e-300 and e^-800
    with pytest.raises(DomainError, match="^every integrand value was 0"):
        integrate_semi_infinite(f, lower)


def test_integrate_semi_infinite_non_integer_exponent():
    res = integrate_semi_infinite(lambda x: x**-4.5, 1.0, tol=1e-12)
    assert abs(res.value - 1.0 / 3.5) < 1e-10


def test_symmetrized_double_integral_oracle():
    # 1/(x(x+y)^2) + 1/(y(x+y)^2) = 1/(x y (x+y)), so integrating the
    # symmetric kernel over [1,oo)^2 with the generic 1d integrator alone
    # must give exactly twice the (1,2) value: log 4.  The inner integral is
    # prescaled by x^2 so its absolute tolerance stays meaningful after the
    # outer change of variables blows up the far tail.
    def inner_scaled(x):
        return integrate_semi_infinite(
            lambda y: x / (y * (x + y)), 1.0, tol=1e-11
        ).value

    def outer(xs):
        return np.array([inner_scaled(x) / (x * x) for x in xs])

    total = integrate_semi_infinite(outer, 1.0, tol=1e-9).value
    assert abs(total - 2.0 * LOG2) < 1e-7
    assert abs(total - 2.0 * eval_numeric(Composition((1, 2)), tol=1e-10).value) < 1e-7


def test_verify_identity_passes_and_fails():
    ok = verify_identity([(Composition((2,)), Fraction(1))], rhs_constant=Fraction(1))
    assert ok["passed"]
    assert ok["difference"] <= ok["tolerance"]
    bad = verify_identity([(Composition((2,)), Fraction(1))], rhs_constant=Fraction(2))
    assert not bad["passed"]


def test_verify_identity_embedding_instance():
    # zeta(3) = zeta(2,2) + zeta(3,2)
    res = verify_identity(
        [(Composition((3,)), Fraction(1))],
        rhs=[(Composition((2, 2)), Fraction(1)), (Composition((3, 2)), Fraction(1))],
        tol=1e-8,
    )
    assert res["passed"]
    assert res["converged"]


def test_verify_identity_skips_zero_coefficients(monkeypatch):
    seen = []
    real = quad.eval_numeric

    def recording(target, *args, **kwargs):
        seen.append(target)
        return real(target, *args, **kwargs)

    monkeypatch.setattr(quad, "eval_numeric", recording)
    res = verify_identity(
        [(Composition((2,)), Fraction(1)), (Composition((1, 1, 1, 1, 2)), 0)],
        rhs_constant=Fraction(1),
    )
    assert res["passed"]
    assert [t.exponents.parts for t in seen] == [(2,)]


def test_verify_identity_counts_evaluations_of_nonzero_terms():
    lhs = [(Composition((1, 2)), Fraction(1)), (Composition((1, 1, 1, 1, 2)), 0)]
    rhs = [(Composition((2, 2)), Fraction(2)), (Composition((1, 3)), Fraction(-1))]
    res = verify_identity(lhs, rhs, tol=1e-6)
    per_term = term_tolerance(1e-6, [Fraction(1), Fraction(2), Fraction(-1)])
    nonzero = [(1, 2), (2, 2), (1, 3)]
    want = sum(eval_numeric(Composition(c), per_term).evaluations for c in nonzero)
    assert res["evaluations"] == want > 0


def test_verify_identity_without_terms_or_tol_is_domain_error():
    with pytest.raises(DomainError, match="no terms"):
        verify_identity([])
    # with an explicit tolerance the empty identity 0 == 0 holds
    assert verify_identity([], tol=1e-6)["passed"]


def test_term_tolerance_splits_by_mass():
    assert term_tolerance(1e-6, [Fraction(3), Fraction(-2)]) == 1e-6 / 10.0
    # a mass below 1 does not loosen the per-term tolerance
    assert term_tolerance(1e-6, [Fraction(1, 4)]) == 1e-6 / 2.0
    assert term_tolerance(1e-6, []) == 1e-6 / 2.0


def test_basis_generator_is_all_ones_then_two():
    # B(1,1) = zeta(1,2) = log 2
    res = eval_basis_generator((1, 1), tol=1e-10)
    assert abs(res.value - LOG2) < 1e-10
    shifted = eval_basis_generator((2, 1, 3), tol=1e-6)
    assert shifted is eval_numeric(ShiftedCMZV((2, 1, 3), Composition((1, 1, 2))), tol=1e-6)


def test_numeric_result_json():
    res = eval_numeric(Composition((1, 2)), tol=1e-8)
    payload = res.to_json()
    assert set(payload) == {"value", "error_estimate", "evaluations", "converged"}
    assert payload["converged"] is True


def test_depth4_converges_at_default_tolerance():
    res = eval_numeric(Composition((1, 1, 1, 2)))
    assert res.converged
    assert res.error_estimate <= default_tolerance(4)
    # independent cube route agrees far below the reported estimate
    cube = eval_unit_cube_ones(4, tol=1e-9)
    assert abs(res.value - cube.value) < 1e-6

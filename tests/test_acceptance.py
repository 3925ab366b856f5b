"""End-to-end acceptance checks, one test per headline guarantee.

Each test prints a single summary line (visible on failure, or with -s) and
asserts the guarantee at its stated tolerance and runtime limit.  Heavier
numeric values are cached process-wide, so later suites reuse earlier work.
"""

import math
import time
from fractions import Fraction

from cmzv.compositions import Composition
from cmzv.etaspace import sum_formula_lhs_terms, sum_formula_rhs
from cmzv.poles import Hyperplane, perm_min_sequence, pole_hyperplanes
from cmzv.quad import ShiftedCMZV, eval_numeric
from cmzv.reduce import SymbolicConstant, reduce_to_basis
from cmzv.shuffle import shuffle, z_map
from cmzv.verify import (
    suite_bounds,
    suite_embedding,
    suite_reduction,
    suite_shuffle,
    suite_unitcube,
)

from itertools import permutations


def _report(name: str, ok: bool, detail: str = "") -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}  {detail}")
    assert ok, f"{name}: {detail}"


def _run_all(results):
    failed = [r for r in results if not r.passed]
    return results, failed


def test_criterion_1_depth1_exactness():
    t0 = time.monotonic()
    worst = 0.0
    for k in range(1, 9):
        res = eval_numeric(Composition((1 + k,)), tol=1e-12)
        worst = max(worst, abs(res.value - 1.0 / k))
        assert res.converged
    elapsed = time.monotonic() - t0
    _report(
        "criterion 1: depth-1 values equal 1/k for k=1..8",
        worst <= 1e-9 and elapsed < 1.0,
        f"worst={worst:.2e} elapsed={elapsed:.2f}s",
    )


def test_criterion_2_depth2_closed_forms():
    diff_log2 = abs(eval_numeric(Composition((1, 2)), tol=1e-10).value - math.log(2.0))
    worst = diff_log2
    for m1 in range(1, 6):
        for m2 in range(1, 6):
            if m1 + m2 > 6:
                continue
            got = eval_numeric(
                ShiftedCMZV((m1, m2), Composition((1, 2))), tol=1e-10
            ).value
            want = math.log((m1 + m2) / m1) / m2
            worst = max(worst, abs(got - want))
    _report(
        "criterion 2: (1,2) = log 2 and shifted closed forms, m1+m2 <= 6",
        worst <= 1e-8,
        f"worst={worst:.2e}",
    )


def test_criterion_3_unit_cube_agreement():
    t0 = time.monotonic()
    results, failed = _run_all(suite_unitcube(4, 1e-6))
    elapsed = time.monotonic() - t0
    _report(
        "criterion 3: unit-cube integrals match semi-infinite form, r=2,3,4",
        not failed and elapsed < 60.0,
        f"{len(results) - len(failed)}/{len(results)} elapsed={elapsed:.1f}s",
    )


def _numeric_lhs(r: int, k: int, tol: float) -> float:
    terms = sum_formula_lhs_terms(r, k)
    mass = float(sum(abs(w) for _, w in terms)) or 1.0
    total = 0.0
    for comp, weight in terms:
        if weight == 0:
            continue
        total += float(weight) * eval_numeric(comp, tol=tol / (2.0 * mass)).value
    return total


def test_criterion_4_sum_formulas():
    t0 = time.monotonic()
    # frozen closed forms for the weighted sums at depths 2, 3, 4
    for k in range(3, 13):
        assert sum_formula_rhs(2, k) == 1 - Fraction(1, 2 ** (k - 2)), k
    for k in range(5, 13):
        want = Fraction(1, 2) - Fraction(1, 2 ** (k - 4)) + Fraction(1, 2 * 3 ** (k - 4))
        assert sum_formula_rhs(3, k) == want, k
    for k in range(7, 13):
        want = (
            Fraction(1, 6)
            - Fraction(1, 2 * 2 ** (k - 6))
            + Fraction(1, 2 * 3 ** (k - 6))
            - Fraction(1, 6 * 4 ** (k - 6))
        )
        assert sum_formula_rhs(4, k) == want, k

    worst_tight = 0.0
    for r, k in ((2, 4), (2, 6), (3, 7), (3, 9)):
        diff = abs(_numeric_lhs(r, k, 1e-6) - float(sum_formula_rhs(r, k)))
        worst_tight = max(worst_tight, diff)
    diff_49 = abs(_numeric_lhs(4, 9, 1e-3) - float(sum_formula_rhs(4, 9)))
    elapsed = time.monotonic() - t0
    _report(
        "criterion 4: sum formula closed forms exact to k=12, numeric spot checks",
        worst_tight <= 1e-6 and diff_49 <= 1e-3 and elapsed < 600.0,
        f"worst={worst_tight:.2e} (4,9)={diff_49:.2e} elapsed={elapsed:.1f}s",
    )


def test_criterion_5_shuffle_homomorphism():
    results, failed = _run_all(suite_shuffle(7, 1e-5))
    # exact symbolic instance: value(yx)^2 = 2*value(2,2) + 4*value(1,3) = 1
    image = z_map(shuffle("yx", "yx"))
    assert dict((c.parts, q) for c, q in image) == {(2, 2): 2, (1, 3): 4}
    combo = reduce_to_basis(Composition((2, 2))).scaled(2) + reduce_to_basis(
        Composition((1, 3))
    ).scaled(4)
    exact = combo == SymbolicConstant(1)
    _report(
        "criterion 5: shuffle product rule, all word pairs of weight <= 7",
        not failed and exact,
        f"{len(results) - len(failed)}/{len(results)} exact_instance={exact}",
    )


def test_criterion_6_depth_embedding():
    results, failed = _run_all(suite_embedding(5, 1e-6))
    _report(
        "criterion 6: one-step depth embedding, weight <= 5",
        not failed,
        f"{len(results) - len(failed)}/{len(results)}",
    )


def test_criterion_7_reduction_oracle():
    results, failed = _run_all(suite_reduction(6, 1e-6))
    _report(
        "criterion 7: exact reductions match quadrature, weight <= 6",
        not failed,
        f"{len(results) - len(failed)}/{len(results)}",
    )


def test_criterion_8_convergence_bound():
    results, failed = _run_all(suite_bounds(6, 1e-6))
    _report(
        "criterion 8: numeric values inside the a-priori bounds, weight <= 6",
        not failed,
        f"{len(results) - len(failed)}/{len(results)}",
    )


def test_criterion_9_pole_combinatorics():
    family = pole_hyperplanes(1, 12)
    expected = frozenset(Hyperplane((1,), 1 - j) for j in range(12))
    ok = family == expected
    for r in range(1, 7):
        for sigma in permutations(range(1, r + 1)):
            mins = perm_min_sequence(sigma)
            ok = ok and mins[0] == sigma[0] and mins[-1] == 1
            ok = ok and all(a >= b for a, b in zip(mins, mins[1:]))
            ok = ok and all(m >= 1 for m in mins)
    _report(
        "criterion 9: depth-1 pole family exact, running minima well formed r <= 6",
        ok,
        f"depth1={len(family)} planes",
    )

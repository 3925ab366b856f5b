"""Tests for the exact reduction pipeline: term rewriting, partial
fractions, tail integration, and full reduction to the graded basis."""

import math
import random
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmzv import (
    CapacityError,
    Composition,
    DivergenceError,
    DomainError,
    GenTerm,
    RewriteError,
    ShiftedCMZV,
    SymbolicConstant,
    absorb_shifts,
    basis_ids,
    compositions_of,
    depth2_closed_form,
    depth_embedding,
    eval_numeric,
    ibp_step,
    integrate_tail,
    partial_fractions,
    reduce_to_basis,
    sum_formula_lhs_terms,
    sum_formula_rhs,
)
from cmzv import reduce as reduce_module
from cmzv.reduce import _factored_log, _ibp_at, _split_multi_factor, clear_caches

F = Fraction


def admissible_upto(max_weight):
    for w in range(2, max_weight + 1):
        for c in compositions_of(w):
            if c.parts[-1] >= 2:
                yield c


def basis_num(ids):
    """Numeric value of the depth-s generator with bound tuple ids."""
    s = len(ids)
    comp = Composition((1,) * (s - 1) + (2,))
    return eval_numeric(ShiftedCMZV(ids, comp), tol=1e-10).value


# ---------------------------------------------------------------- GenTerm


def test_genterm_from_composition():
    t = GenTerm.of(Composition((2, 3)))
    assert t.bounds == (F(1), F(1))
    assert t.factors == ((1, F(0), 2), (2, F(0), 3))
    assert t.depth == 2
    assert t.weight == 5
    assert t.pure_exponents() == (2, 3)


def test_genterm_custom_bounds_and_scaling():
    t = GenTerm.of(ShiftedCMZV((F(1, 2), 3), Composition((1, 2))))
    assert t.bounds == (F(1, 2), F(3))


def test_genterm_is_its_own_key():
    # factors are sorted on construction, so the order they come in does
    # not matter: equal terms hash alike and share one dict key
    a = GenTerm((1, 1), [(1, 0, 1), (2, F(1, 2), 2), (2, 0, 1)])
    b = GenTerm((F(1), 1), [(2, 0, 1), (1, F(0), 1), (2, F(1, 2), 2)])
    assert a == b and hash(a) == hash(b)
    assert len({a: 1, b: 2}) == 1
    assert a != GenTerm((1, 2), [(1, 0, 1), (2, F(1, 2), 2), (2, 0, 1)])


def test_genterm_hash_is_the_fields_hash_on_every_path():
    # one term from a target, a rewrite, a shift absorption and by hand
    (_, boundary), (_, deriv) = ibp_step(GenTerm.of(Composition((2, 2))))
    built = [
        (GenTerm.of(ShiftedCMZV((2,), Composition((2,)))), boundary, absorb_shifts(GenTerm((1,), [(1, 1, 2)]))),
        (GenTerm.of(Composition((1, 3))), deriv, GenTerm([1, F(2, 2)], [[2, F(0), 3], (1.0, 0, 1)])),
    ]
    for terms in built:
        assert len(set(terms)) == 1
        assert len({hash(t) for t in terms}) == 1
        assert all(hash(t) == hash((t.bounds, t.factors)) for t in terms)


def test_genterm_pure_exponents_none_for_shifted_or_multi():
    shifted = GenTerm((1,), [(1, 1, 2)])
    assert shifted.pure_exponents() is None
    multi = GenTerm((1,), [(1, 0, 1), (1, 1, 2)])
    assert multi.pure_exponents() is None


def test_genterm_validation_errors():
    with pytest.raises(DomainError, match=r"^lower bounds must be positive, got \(Fraction\(0, 1\),\)$"):
        GenTerm((0,), [(1, 0, 2)])  # bound not positive
    with pytest.raises(DomainError, match=r"^factor index 2 outside 1\.\.1$"):
        GenTerm((1,), [(2, 0, 2)])  # index out of range
    with pytest.raises(DomainError, match=r"^factor shift must be >= 0, got -1$"):
        GenTerm((1,), [(1, -1, 2)])  # negative shift
    with pytest.raises(DomainError, match=r"^factor exponent must be >= 1, got 0$"):
        GenTerm((1,), [(1, 0, 0)])  # exponent < 1
    with pytest.raises(DomainError, match=r"^every variable index needs at least one factor$"):
        GenTerm((1, 1), [(2, 0, 3)])  # index 1 uncovered
    diverges = "; the represented integral diverges$"
    with pytest.raises(DivergenceError, match=r"^suffix exponent sum 1 at index 1 needs > 1" + diverges):
        GenTerm((1,), [(1, 0, 1)])  # suffix sum 1 not > 1
    with pytest.raises(DivergenceError, match=r"^suffix exponent sum 1 at index 2 needs > 1" + diverges):
        GenTerm((1, 1), [(1, 0, 3), (2, 0, 1)])  # bad last suffix


def first_divergent_index(s, factors):
    """The least j with sum(exponents at indices >= j) <= s - j + 1, summed
    afresh for each j as the convergence condition reads; None if none."""
    for j in range(1, s + 1):
        if not sum(a for i, _, a in factors if i >= j) > s - j + 1:
            return j
    return None


@st.composite
def covered_factor_lists(draw):
    """(bounds, factors): depth <= 5, one to three factors at every index."""
    s = draw(st.integers(1, 5))
    factors = [
        (i, draw(st.sampled_from([0, 1, F(1, 2), 3])), draw(st.integers(1, 4)))
        for i in range(1, s + 1)
        for _ in range(draw(st.integers(1, 3)))
    ]
    return (1,) * s, draw(st.permutations(factors))


@settings(max_examples=300, deadline=None, database=None)
@given(covered_factor_lists())
def test_genterm_suffix_check_matches_its_definition(case):
    bounds, factors = case
    s = len(bounds)
    j = first_divergent_index(s, factors)
    if j is None:
        assert GenTerm(bounds, factors).depth == s
        return
    suffix = sum(a for i, _, a in factors if i >= j)
    expected = (
        f"suffix exponent sum {suffix} at index {j} needs > {s - j + 1}; "
        "the represented integral diverges"
    )
    with pytest.raises(DivergenceError) as info:
        GenTerm(bounds, factors)
    assert str(info.value) == expected


# ----------------------------------------------------------- absorb_shifts


def test_absorb_shifts_identity_when_clean():
    t = GenTerm.of(Composition((2, 2)))
    assert absorb_shifts(t) is t


def test_absorb_shifts_single_variable():
    t = GenTerm((1,), [(1, 1, 2)])
    out = absorb_shifts(t)
    assert out.bounds == (F(2),)
    assert out.factors == ((1, F(0), 2),)


def test_absorb_shifts_chained_indices():
    t = GenTerm((1, 1), [(1, 1, 2), (2, 3, 2)])
    out = absorb_shifts(t)
    assert out.bounds == (F(2), F(3))
    assert out.factors == ((1, F(0), 2), (2, F(0), 2))


def test_absorb_shifts_partial_minimum():
    t = GenTerm((1,), [(1, 1, 1), (1, 2, 2)])
    out = absorb_shifts(t)
    assert out.bounds == (F(2),)
    assert out.factors == ((1, F(0), 1), (1, F(1), 2))


def test_absorb_shifts_skipped_when_bound_would_vanish():
    t = GenTerm((1, 1), [(1, 2, 1), (2, 1, 3)])
    assert absorb_shifts(t) is t  # second bound would become 0


def test_absorb_shifts_preserves_numeric_value():
    # zeta_{1,1}(exp with shifts) before/after absorption, via quadrature of
    # the absorbed (plain shifted) form against a tiny manual reduction.
    t = GenTerm((1, 1), [(1, 1, 2), (2, 2, 2)])
    out = absorb_shifts(t)
    assert out.bounds == (F(2), F(2))
    num = eval_numeric(ShiftedCMZV(out.bounds, Composition((2, 2))), tol=1e-10).value
    # independent check by direct 2d formula: int over x>=2 of x^-2 * 1/(x+2)
    # ... = handled by the shifted evaluator itself; just pin positivity and
    # a coarse bracket here, exact agreement is covered in the quad tests.
    assert 0.0 < num < 0.25


# ----------------------------------------------------------------- ibp_step


def test_ibp_step_depth1_terminates_to_scalar():
    ((q, only),) = ibp_step(GenTerm.of(Composition((3,))))
    assert only.depth == 0
    assert q == F(1, 2)


def test_ibp_step_two_two_structure():
    (qb, boundary), (qd, deriv) = ibp_step(GenTerm.of(Composition((2, 2))))
    # boundary: the bound 1 is absorbed into the follower, giving the
    # shifted depth-1 value with bound 2
    assert qb == 1
    assert boundary.bounds == (F(2),)
    assert boundary.factors == ((1, F(0), 2),)
    # derivative: -2 times the (1,3) integral
    assert qd == -2
    assert deriv.bounds == (F(1), F(1))
    assert deriv.factors == ((1, F(0), 1), (2, F(0), 3))


def test_ibp_step_value_is_conserved():
    # 1 - log 2 = 1/2 - 2 * (-1/4 + (1/2) log 2) exactly
    lhs = reduce_to_basis(Composition((2, 2)))
    assert lhs == SymbolicConstant(1, {2: F(-1)})


def test_ibp_step_preconditions():
    with pytest.raises(RewriteError):
        ibp_step(GenTerm.of(Composition((1, 2))))  # exponent 1
    with pytest.raises(RewriteError):
        ibp_step(GenTerm((1, 1), [(1, 1, 2), (2, 0, 2)]))  # nonzero shift
    with pytest.raises(RewriteError):
        ibp_step(GenTerm((1,), [(1, 0, 2), (1, 1, 2)]))  # two factors


# --------------------------------------------------------- partial fractions


def test_partial_fractions_textbook_example():
    # 1/(u (u+1)^2) = 1/u - 1/(u+1) - 1/(u+1)^2
    pieces = partial_fractions([(0, 1), (1, 2)])
    assert pieces == (
        (F(0), 1, F(1)),
        (F(1), 1, F(-1)),
        (F(1), 2, F(-1)),
    )


def test_partial_fractions_merges_repeated_shifts():
    assert partial_fractions([(F(1, 2), 2), (F(1, 2), 3)]) == ((F(1, 2), 5, F(1)),)


def test_partial_fractions_two_simple_poles():
    # 1/((u+a)(u+b)) = (1/(b-a)) (1/(u+a) - 1/(u+b))
    pieces = partial_fractions([(0, 1), (3, 1)])
    assert pieces == ((F(0), 1, F(1, 3)), (F(3), 1, F(-1, 3)))


def test_partial_fractions_rejects_bad_input():
    with pytest.raises(DomainError):
        partial_fractions([])
    with pytest.raises(DomainError):
        partial_fractions([(0, 0)])


def test_partial_fractions_random_recombination():
    # evaluating both sides at random rational points away from the poles
    # must agree exactly in Fraction arithmetic
    rng = random.Random(20240816)
    for _ in range(50):
        n = rng.randint(2, 4)
        shifts = rng.sample(range(0, 9), n)
        factors = [(F(c), rng.randint(1, 3)) for c in shifts]
        pieces = partial_fractions(factors)
        for _ in range(4):
            u = F(rng.randint(1, 60), rng.randint(1, 7))
            if any(u + c == 0 for c, _ in factors):
                continue
            direct = F(1)
            for c, a in factors:
                direct /= (u + c) ** a
            expanded = sum(beta / (u + c) ** e for c, e, beta in pieces)
            assert expanded == direct


# ------------------------------------------------------------ integrate_tail


def test_integrate_tail_log_pair():
    # int_1^oo (1/u - 1/(u+1)) du = log 2
    out = integrate_tail([(0, 1, 1), (1, 1, -1)], 1)
    assert out == SymbolicConstant(0, {2: F(1)})


def test_integrate_tail_pure_power():
    assert integrate_tail([(0, 2, 1)], 3) == SymbolicConstant(F(1, 3))


def test_integrate_tail_mixed():
    # int_2^oo (1/u - 1/(u+2) + 1/(u+2)^2) du = log 2 + 1/4
    out = integrate_tail([(0, 1, 1), (2, 1, -1), (2, 2, 1)], 2)
    assert out == SymbolicConstant(F(1, 4), {2: F(1)})


def test_integrate_tail_divergent_residue():
    with pytest.raises(DivergenceError):
        integrate_tail([(0, 1, 1)], 1)
    with pytest.raises(DivergenceError):
        integrate_tail([(0, 1, 1), (1, 1, -2)], 1)


def test_integrate_tail_rejects_bad_bound():
    with pytest.raises(DomainError):
        integrate_tail([(0, 2, 1)], 0)


# --------------------------------------------------------- SymbolicConstant


def test_symbolic_constant_normalization():
    a = SymbolicConstant(1, [(2, F(1, 2)), (2, F(1, 2))], [((1, 1, 1), F(1))])
    b = SymbolicConstant(1, {2: F(1)}, {(1, 1, 1): F(1)})
    assert a == b
    assert a.logs == ((2, F(1)),)


def test_symbolic_constant_zero_terms_dropped():
    sc = SymbolicConstant(0, [(2, F(1)), (2, F(-1))], [((1, 1), F(0))])
    assert sc == SymbolicConstant()
    assert sc.logs == ()
    assert sc.basis == ()


def test_symbolic_constant_add_and_scale():
    a = SymbolicConstant(1, {2: F(1)})
    b = SymbolicConstant(F(1, 2), {2: F(-1)}, {(1, 1, 1): F(2)})
    total = a + b
    assert total == SymbolicConstant(F(3, 2), {}, {(1, 1, 1): F(2)})
    assert total.scaled(F(1, 2)) == SymbolicConstant(F(3, 4), {}, {(1, 1, 1): F(1)})


def test_symbolic_constant_evaluate():
    sc = SymbolicConstant(F(3, 4), {2: F(-1)})
    assert abs(sc.evaluate() - (0.75 - math.log(2))) < 1e-15
    with_b = SymbolicConstant(0, {}, {(1, 1, 1): F(2)})
    assert abs(with_b.evaluate(lambda ids: 0.25) - 0.5) < 1e-15
    with pytest.raises(DomainError):
        with_b.evaluate()


def test_symbolic_constant_beyond_float_range_is_domain_error():
    # a rational, a coefficient, and a product, 1e308 * log 7, past the range
    rational, coeff, product = 10**400, {2: F(10**400)}, {7: F(10**308)}
    for sc in (SymbolicConstant(rational), SymbolicConstant(0, coeff), SymbolicConstant(0, product)):
        with pytest.raises(DomainError, match="exceeds the float range"):
            sc.evaluate()


def test_symbolic_constant_json_shape():
    sc = SymbolicConstant(F(-1, 4), {2: F(1, 2)}, {(1, 1, 1): F(1)})
    assert sc.to_json() == {
        "rational": "-1/4",
        "logs": {"2": "1/2"},
        "basis": {"1,1,1": "1"},
    }


def test_symbolic_constant_rejects_bad_basis_ids():
    with pytest.raises(DomainError):
        SymbolicConstant(0, {}, {(0, 1): F(1)})


# ----------------------------------------------------------- reduce_to_basis


FROZEN = {
    (2,): SymbolicConstant(1),
    (3,): SymbolicConstant(F(1, 2)),
    (1, 2): SymbolicConstant(0, {2: F(1)}),
    (4,): SymbolicConstant(F(1, 3)),
    (1, 3): SymbolicConstant(F(-1, 4), {2: F(1, 2)}),
    (2, 2): SymbolicConstant(1, {2: F(-1)}),
    (1, 1, 2): SymbolicConstant(0, {}, {(1, 1, 1): F(1)}),
    (5,): SymbolicConstant(F(1, 4)),
    (1, 4): SymbolicConstant(F(-5, 24), {2: F(1, 3)}),
    (2, 3): SymbolicConstant(F(3, 4), {2: F(-1)}),
    (3, 2): SymbolicConstant(F(-1, 2), {2: F(1)}),
    (1, 1, 3): SymbolicConstant(0, {3: F(-1, 4)}, {(1, 1, 1): F(1, 2)}),
    (1, 2, 2): SymbolicConstant(0, {2: F(1)}, {(1, 1, 1): F(-1)}),
    (2, 1, 2): SymbolicConstant(0, {2: F(-2), 3: F(3, 2)}),
    (1, 1, 1, 2): SymbolicConstant(0, {}, {(1, 1, 1, 1): F(1)}),
}


def test_reduce_frozen_values():
    for parts, expected in FROZEN.items():
        assert reduce_to_basis(Composition(parts)) == expected, parts


def test_reduce_matches_quadrature_below_weight_six():
    for c in admissible_upto(5):
        sym = reduce_to_basis(c).evaluate(basis_num)
        num = eval_numeric(c, tol=1e-10).value
        assert abs(sym - num) < 1e-8, c


def test_reduce_basis_weights_are_conserved():
    # the bound tuple of every emitted generator consists of positive
    # integers summing to the depth of the input (rewrites shuffle the
    # lower bounds around but never create or destroy mass), and each
    # generator has depth >= 3 and weight depth+1 <= input weight
    for c in admissible_upto(6):
        sc = reduce_to_basis(c)
        for ids, _ in sc.basis:
            assert all(m == int(m) and m >= 1 for m in ids)
            assert sum(ids) == c.depth
            assert len(ids) >= 3
            assert len(ids) + 1 <= c.weight


def test_reduce_accepts_plain_sequences():
    assert reduce_to_basis((2, 2)) == FROZEN[(2, 2)]


def test_reduce_rejects_non_admissible():
    with pytest.raises(DivergenceError):
        reduce_to_basis(Composition((2, 1)))


def test_reduce_depth_cap():
    with pytest.raises(CapacityError):
        reduce_to_basis(Composition((1,) * 6 + (2,)), depth_cap=6)


def plain_stack_reduce(c, bounds=None):
    """Reference reduction: the same rewrite rules expanded on a plain stack,
    every produced term kept separately, with no merging of like terms."""
    rational = F(0)
    logs, basis = {}, {}
    stack = [(F(1), GenTerm.of(ShiftedCMZV(bounds, c) if bounds else c))]
    while stack:
        coeff, t = stack.pop()
        if coeff == 0:
            continue
        s = t.depth
        if s == 0:
            rational += coeff
            continue
        exps = t.pure_exponents()
        if exps is None:
            kept, resolved = _split_multi_factor(t)
            rational += coeff * resolved.rational
            for p, q in resolved.logs:
                logs[p] = logs.get(p, F(0)) + coeff * q
            for ids, q in resolved.basis:
                basis[ids] = basis.get(ids, F(0)) + coeff * q
            stack.extend((coeff * q, u) for q, u in kept)
            continue
        if s == 1:
            rational += coeff * t.bounds[0] ** (1 - exps[0]) / (exps[0] - 1)
            continue
        if s >= 3 and exps == (1,) * (s - 1) + (2,):
            basis[t.bounds] = basis.get(t.bounds, F(0)) + coeff
            continue
        p = next(i for i, k in enumerate(exps, start=1) if k >= 2)
        stack.extend((coeff * q, u) for q, u in _ibp_at(t, p))
    return SymbolicConstant(rational, logs, basis)


def test_reduce_equals_plain_stack_reference():
    # exact arithmetic on both sides, so the constants must be identical;
    # the memo is emptied afterwards so that later budget tests stay cold
    for c in admissible_upto(7):
        assert reduce_to_basis(c) == plain_stack_reduce(c), c
    shifted = [((2, 2, 2), (F(17, 5), 1, 1)), ((1, 2), (F(1, 2), 3))]
    shifted += [((1, 2), (m1, m2)) for m1 in range(1, 4) for m2 in range(1, 4)]
    for parts, bounds in shifted:
        got = reduce_to_basis(ShiftedCMZV(bounds, parts))
        assert got == plain_stack_reduce(parts, bounds), (parts, bounds)
    clear_caches()


def test_reduce_weight_nine_within_budget():
    # the plain stack takes over 10,000 terms (the default budget) for each
    # of these, but merged each needs fewer than 200 distinct terms
    clear_caches()
    for parts in [(4, 1, 1, 1, 2), (5, 1, 1, 2), (4, 2, 1, 2)]:
        got = reduce_to_basis(Composition(parts), step_budget=200)
        assert got == plain_stack_reduce(parts), parts


def test_reduce_step_budget_exhaustion():
    # a cold memo, since memo hits, subterms shared with earlier calls
    # included, cost no budget
    clear_caches()
    with pytest.raises(CapacityError):
        reduce_to_basis(ShiftedCMZV((F(17, 5), 1, 1), Composition((2, 2, 2))), step_budget=2)


# ---------------------------------------------------------------- term memo


def memo_inputs(max_weight):
    return [c for c in admissible_upto(max_weight) if c.depth <= 6]


def test_term_memo_is_order_independent():
    inputs = memo_inputs(8)
    expected = {c: plain_stack_reduce(c) for c in inputs}
    clear_caches()
    for c in inputs:
        assert reduce_to_basis(c) == expected[c], c
    random.Random(11).shuffle(inputs)
    for c in inputs:
        assert reduce_to_basis(c) == expected[c], c
    clear_caches()


def test_term_memo_stays_within_its_cap(monkeypatch):
    monkeypatch.setattr(reduce_module, "_MAX_TERMS", 8)
    inputs = memo_inputs(7)
    random.Random(5).shuffle(inputs)
    clear_caches()
    sizes = []
    for c in inputs[:30]:
        assert reduce_to_basis(c) == plain_stack_reduce(c), c
        sizes.append(len(reduce_module._TERMS))
        assert sizes[-1] <= 8, c
    # entries were stored, and a merge past the cap emptied the memo
    assert max(sizes) > 0
    assert any(b < a for a, b in zip(sizes, sizes[1:]))
    clear_caches()


def test_term_memo_under_threads(monkeypatch):
    inputs = memo_inputs(7)
    clear_caches()
    serial = [reduce_to_basis(c) for c in inputs]
    # a cap this small empties the memo while other calls are running, and
    # a short switch interval interleaves the threads finely
    monkeypatch.setattr(reduce_module, "_MAX_TERMS", 16)
    clear_caches()
    order = inputs * 3
    random.Random(3).shuffle(order)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            got = list(pool.map(reduce_to_basis, order, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert got == [serial[inputs.index(c)] for c in order]
    assert len(reduce_module._TERMS) <= 16
    clear_caches()


def test_term_memo_hits_cost_no_budget():
    c, bounds = Composition((2, 2, 2)), (F(17, 5), 1, 1)
    clear_caches()
    with pytest.raises(CapacityError):
        reduce_to_basis(ShiftedCMZV(bounds, c), step_budget=2)
    assert not reduce_module._TERMS  # a call that raises stores nothing
    warm = reduce_to_basis(ShiftedCMZV(bounds, c))
    assert reduce_to_basis(ShiftedCMZV(bounds, c), step_budget=2) == warm
    # without the root, only the root is rewritten: its subterms are hits
    del reduce_module._TERMS[GenTerm.of(ShiftedCMZV(bounds, c))]
    assert reduce_to_basis(ShiftedCMZV(bounds, c), step_budget=1) == warm
    clear_caches()


def test_sum_formulas_hold_exactly():
    # sum over f != 0 of f * reduce(target) = sum_formula_rhs(r, k): every
    # log and generator coefficient cancels, with no quadrature
    for r in range(2, 5):
        for k in range(2 * r - 1, 12):
            total = SymbolicConstant()
            for c, f in sum_formula_lhs_terms(r, k):
                if f:
                    total = total + reduce_to_basis(c).scaled(f)
            assert total.logs == () and total.basis == (), (r, k)
            assert total.rational == sum_formula_rhs(r, k), (r, k)


def test_sum_formulas_hold_exactly_at_depths_five_and_six():
    # the same exact identity one and two depths further, through k = 12
    for r in (5, 6):
        for k in range(2 * r - 1, 13):
            total = SymbolicConstant()
            for c, f in sum_formula_lhs_terms(r, k):
                if f:
                    total = total + reduce_to_basis(c).scaled(f)
            assert total.logs == () and total.basis == (), (r, k)
            assert total.rational == sum_formula_rhs(r, k), (r, k)


def test_reduce_shifted_closed_form_grid():
    for m1 in range(1, 4):
        for m2 in range(1, 4):
            got = reduce_to_basis(ShiftedCMZV((m1, m2), Composition((1, 2))))
            assert got == depth2_closed_form(m1, m2), (m1, m2)


def test_reduce_random_shifted_against_quadrature():
    rng = random.Random(7)
    for _ in range(6):
        parts = rng.choice([(2, 2), (1, 3), (3, 2), (1, 2)])
        bounds = (rng.randint(1, 3), rng.randint(1, 3))
        c = Composition(parts)
        sym = reduce_to_basis(ShiftedCMZV(bounds, c)).evaluate(basis_num)
        num = eval_numeric(ShiftedCMZV(bounds, c), tol=1e-10).value
        assert abs(sym - num) < 1e-8, (parts, bounds)


def test_factored_log_large_prime_and_composites():
    p, q = 1000000000000000003, 1000000007
    assert _factored_log(F(p)) == [(p, F(1))]
    assert dict(_factored_log(F(p + 1))) == {2: 2, 1801: 1, 246809: 1, 562425889: 1}
    assert dict(_factored_log(F(q * q * 998244353, 12))) == {q: 2, 998244353: 1, 2: -2, 3: -1}
    # keyed by prime: log(p q^2) = log p + 2 log q however it is reached
    assert SymbolicConstant(0, _factored_log(F(p * q * q))) == SymbolicConstant(
        0, {p: F(1), q: F(2)}
    )


# -------------------------------------------------------------- derived maps


def test_depth2_closed_form_values():
    assert depth2_closed_form(1, 1) == SymbolicConstant(0, {2: F(1)})
    # (1/3) log(5/2) with the log split over primes
    assert depth2_closed_form(2, 3) == SymbolicConstant(0, {2: F(-1, 3), 5: F(1, 3)})
    with pytest.raises(DomainError):
        depth2_closed_form(0, 1)


def test_depth_embedding_structure():
    lo, hi = depth_embedding(Composition((3,)))
    assert lo == Composition((2, 2))
    assert hi == Composition((3, 2))
    with pytest.raises(DivergenceError):
        depth_embedding(Composition((2, 1)))


def test_depth_embedding_exact_symbolic_identity():
    # through weight 3 both sides land on identical basis generators, so the
    # identity holds syntactically; at weight 4 the right side reaches
    # weight-6 reductions whose shifted generators differ from the left
    # side's, so compare numerically there instead
    for c in admissible_upto(3):
        lo, hi = depth_embedding(c)
        assert reduce_to_basis(c) == reduce_to_basis(lo) + reduce_to_basis(hi), c
    for c in admissible_upto(4):
        lo, hi = depth_embedding(c)
        left = reduce_to_basis(c).evaluate(basis_num)
        right = (reduce_to_basis(lo) + reduce_to_basis(hi)).evaluate(basis_num)
        assert abs(left - right) < 1e-8, c


def test_basis_ids_counts():
    for depth in range(1, 11):
        ids = list(basis_ids(depth))
        assert len(ids) == 2 ** (depth - 1)
        assert all(sum(t) == depth for t in ids)
        assert len(set(ids)) == len(ids)


def test_basis_ids_are_the_parts_of_compositions_of():
    for depth in range(1, 11):
        assert list(basis_ids(depth)) == [c.parts for c in compositions_of(depth)]

"""Composition arithmetic, word codecs, convergence-domain predicates, and
the one check of each input rule."""

import random
from fractions import Fraction

import pytest

from cmzv.compositions import (
    Composition,
    ShiftedCMZV,
    admissible_compositions,
    admissible_target,
    as_target,
    check_word,
    composition_from_word,
    compositions_of,
    convergence_bound,
    in_convergence_domain,
    is_admissible,
    is_admissible_word,
    positive_bounds,
    word_from_composition,
)
from cmzv.errors import CapacityError, DivergenceError, DomainError, WordEncodingError
from cmzv.quad import eval_numeric, eval_unit_cube_ones
from cmzv.reduce import (
    GenTerm,
    SymbolicConstant,
    depth2_closed_form,
    depth_embedding,
    integrate_tail,
    reduce_to_basis,
)
from cmzv.shuffle import FormalWordSum, shuffle
from cmzv.verify import _Values


def test_composition_basics():
    c = Composition((1, 2))
    assert c.weight == 3
    assert c.depth == 2
    assert tuple(c) == (1, 2)
    assert len(c) == 2
    assert str(c) == "(1,2)"
    assert c == Composition((1, 2))
    assert c != Composition((2, 1))
    assert c.to_json() == [1, 2]


def test_composition_is_hashable_and_frozen():
    c = Composition((2, 3))
    assert {c: 1}[Composition((2, 3))] == 1
    with pytest.raises(Exception):
        c.parts = (1,)


@pytest.mark.parametrize("bad", [(), (0,), (-1, 2), (1.5, 2), ("2",)])
def test_composition_rejects_bad_parts(bad):
    with pytest.raises(DomainError):
        Composition(bad)


def test_admissibility():
    assert is_admissible(Composition((2,)))
    assert is_admissible(Composition((1, 1, 2)))
    assert not is_admissible(Composition((1,)))
    assert not is_admissible(Composition((2, 1)))


def test_word_encoding_examples():
    assert word_from_composition(Composition((2,))) == "yx"
    assert word_from_composition(Composition((1, 2))) == "yyx"
    assert word_from_composition(Composition((3, 1, 2))) == "yxxyyx"
    assert composition_from_word("yx") == Composition((2,))
    assert composition_from_word("yyx") == Composition((1, 2))
    assert composition_from_word("yxy") == Composition((2, 1))


def test_word_round_trip_all_small():
    for w in range(1, 8):
        for c in compositions_of(w):
            assert composition_from_word(word_from_composition(c)) == c


@pytest.mark.parametrize("bad", ["", "x", "xy", "xyx", "yz", "y x"])
def test_bad_words_rejected(bad):
    with pytest.raises(WordEncodingError):
        composition_from_word(bad)


def test_is_admissible_word():
    assert is_admissible_word("")
    assert is_admissible_word("yx")
    assert is_admissible_word("yyxyx")
    assert not is_admissible_word("yxy")
    assert not is_admissible_word("xyx")
    assert not is_admissible_word("y")
    assert not is_admissible_word("yzx")


def test_admissible_word_iff_admissible_composition():
    for w in range(1, 8):
        for c in compositions_of(w):
            assert is_admissible_word(word_from_composition(c)) == is_admissible(c)


def test_convergence_domain():
    assert in_convergence_domain((2.0,))
    assert in_convergence_domain((1.0, 2.0))
    assert in_convergence_domain((0.5, 2.6))
    assert not in_convergence_domain((2.0, 1.0))
    assert not in_convergence_domain((1.0, 1.0))
    # boundary is excluded: the suffix inequality is strict
    assert not in_convergence_domain((1.0, 2.0, 1.0))
    with pytest.raises(DomainError):
        in_convergence_domain((float("nan"), 2.0))
    with pytest.raises(DomainError):
        in_convergence_domain((float("inf"),))


def test_admissible_composition_lies_in_domain():
    for w in range(2, 9):
        for c in admissible_compositions(w):
            assert in_convergence_domain(tuple(float(k) for k in c.parts))


def test_convergence_bound_examples():
    assert convergence_bound((2.0,)) == pytest.approx(1.0)
    assert convergence_bound((2.0, 2.0)) == pytest.approx(0.5)
    assert convergence_bound((1.0, 2.0)) == pytest.approx(1.0)
    with pytest.raises(DomainError):
        convergence_bound((2.0, 1.0))


def test_convergence_bound_positive_on_random_domain_points():
    rng = random.Random(7)
    for _ in range(50):
        r = rng.randint(1, 5)
        # build a point safely inside the domain, coordinates not all integral
        s = tuple(1.0 + rng.random() * 3.0 + 0.5 for _ in range(r))
        assert in_convergence_domain(s)
        assert convergence_bound(s) > 0.0


def test_compositions_of_counts_and_order():
    assert [c.parts for c in compositions_of(3)] == [(1, 1, 1), (1, 2), (2, 1), (3,)]
    for n in range(1, 11):
        assert sum(1 for _ in compositions_of(n)) == 2 ** (n - 1)
        assert all(c.weight == n for c in compositions_of(n))


def test_admissible_compositions_counts():
    # exactly the compositions whose last part is >= 2
    for w in range(2, 11):
        comps = list(admissible_compositions(w))
        assert len(comps) == 2 ** (w - 2)
        assert all(is_admissible(c) and c.weight == w for c in comps)


# ------------------------------------------------------------ the target


def test_shifted_target_reads_like_its_composition():
    c = Composition((3, 1, 2))
    t = ShiftedCMZV((2, Fraction(1, 2), 1), c)
    assert (t.parts, t.weight, t.depth) == (c.parts, c.weight, c.depth)
    assert t.bounds == (Fraction(2), Fraction(1, 2), Fraction(1))
    assert as_target(t) is t
    assert as_target(c) == as_target((3, 1, 2)) == ShiftedCMZV((1, 1, 1), c)
    assert admissible_target(c, 3) == as_target(c)


def test_unit_bounds_give_the_composition_term():
    for w in range(2, 8):
        for c in admissible_compositions(w):
            assert GenTerm.of(c) == GenTerm.of(ShiftedCMZV((1,) * c.depth, c)), c


# ------------------------------------------------- one check per input rule


@pytest.mark.parametrize(
    "call, shown",
    [
        (lambda: ShiftedCMZV((1, 0), (1, 2)), (1, 0)),
        (lambda: GenTerm((Fraction(-1, 2),), [(1, 0, 2)]), (Fraction(-1, 2),)),
        (lambda: SymbolicConstant(basis={(1, 0, 2): 1}), (1, 0, 2)),
        (lambda: integrate_tail([(0, 2, 1)], 0), (0,)),
        (lambda: depth2_closed_form(1, -3), (1, -3)),
    ],
    ids=["ShiftedCMZV", "GenTerm", "SymbolicConstant basis", "integrate_tail", "depth2_closed_form"],
)
def test_every_lower_bound_has_one_check(call, shown):
    with pytest.raises(DomainError) as info:
        call()
    expected = tuple(Fraction(b) for b in shown)
    assert str(info.value) == f"lower bounds must be positive, got {expected}"


def test_positive_bounds_keeps_fractions_and_takes_iterators():
    half = Fraction(1, 2)
    assert positive_bounds([half])[0] is half
    assert positive_bounds(iter([2, half])) == (Fraction(2), half)
    assert ShiftedCMZV(iter([2, half]), (1, 2)).bounds == (Fraction(2), half)
    # the count is reported before the sign
    with pytest.raises(DomainError, match=r"^3 bounds for depth-2 exponents$"):
        ShiftedCMZV((1, 1, 0), (2, 2))


@pytest.mark.parametrize("call", [eval_numeric, reduce_to_basis, depth_embedding])
def test_every_admissibility_check_says_the_same(call):
    message = r"^\(2,1\) is non-admissible \(last part < 2\); the integral diverges$"
    with pytest.raises(DivergenceError, match=message):
        call(Composition((2, 1)))


@pytest.mark.parametrize(
    "call, depth, cap",
    [
        (lambda: eval_numeric((1,) * 6 + (2,)), 7, 6),
        (lambda: reduce_to_basis((1,) * 6 + (2,)), 7, 6),
        (lambda: eval_unit_cube_ones(7), 7, 6),
        (lambda: _Values(3).cube(4, 1e-6), 4, 3),
    ],
    ids=["eval_numeric", "reduce_to_basis", "eval_unit_cube_ones", "verify cube"],
)
def test_every_depth_cap_check_says_the_same(call, depth, cap):
    with pytest.raises(CapacityError, match=f"^depth {depth} exceeds the configured cap {cap}$"):
        call()


@pytest.mark.parametrize(
    "call, word",
    [
        (lambda: check_word("yz"), "yz"),
        (lambda: shuffle("yz", "yx"), "yz"),
        (lambda: shuffle("yx", "y x"), "y x"),
        (lambda: FormalWordSum({"ab": 1}), "ab"),
        (lambda: composition_from_word("yz"), "yz"),
    ],
    ids=["check_word", "shuffle", "shuffle second word", "FormalWordSum", "composition_from_word"],
)
def test_every_word_has_one_letter_check(call, word):
    with pytest.raises(WordEncodingError) as info:
        call()
    assert str(info.value) == f"word {word!r} uses letters outside {{x, y}}"


def test_check_word_passes_words_over_x_and_y():
    for w in ("", "x", "yxxy"):
        assert check_word(w) == w

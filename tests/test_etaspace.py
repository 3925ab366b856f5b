"""The averaging operator on span{1/(x+n)^l} and the exact sum formulas."""

import random
import time
from fractions import Fraction

import pytest

from cmzv.compositions import Composition, compositions_of
from cmzv.errors import DomainError
from cmzv.etaspace import (
    VElement,
    composition_weight,
    eta,
    eta_power,
    eval_at,
    sum_formula_lhs_terms,
    sum_formula_rhs,
    telescoping_sides,
)


def test_velement_basics():
    v = VElement.basis(0, 2)
    assert v.coefficient(0, 2) == 1
    assert v.coefficient(3, 2) == 0
    w = v + v.scaled(Fraction(1, 2))
    assert w.coefficient(0, 2) == Fraction(3, 2)
    assert v.to_json() == [{"n": 0, "l": 2, "coeff": "1"}]


def test_velement_rejects_bad_keys():
    with pytest.raises(DomainError):
        VElement({(-1, 2): Fraction(1)})
    with pytest.raises(DomainError):
        VElement({(0, 0): Fraction(1)})


def test_eta_on_basis_element():
    # eta(1/(x+n)^l) = (1/(n+1)) (1/x^l - 1/(x+n+1)^l)
    v = eta(VElement.basis(2, 3))
    assert v.coefficient(0, 3) == Fraction(1, 3)
    assert v.coefficient(3, 3) == Fraction(-1, 3)
    assert len(v) == 2


def test_eta_is_linear():
    a = VElement.basis(0, 2)
    b = VElement.basis(1, 4)
    combo = a.scaled(3) + b.scaled(Fraction(-1, 2))
    assert eta(combo) == eta(a).scaled(3) + eta(b).scaled(Fraction(-1, 2))


def test_eta_power_matches_iteration():
    v = VElement.basis(0, 5)
    w = v
    for j in range(4):
        assert eta_power(v, j) == w
        w = eta(w)


def test_eval_at_exact():
    v = VElement.basis(1, 2)  # 1/(x+1)^2
    assert eval_at(v, 1) == Fraction(1, 4)
    assert eval_at(v, Fraction(1, 2)) == Fraction(4, 9)
    with pytest.raises(DomainError):
        eval_at(v, 0)


def test_eval_at_functional_identity():
    # evaluating eta(v) agrees with the defining formula pointwise
    rng = random.Random(2)
    for _ in range(20):
        n = rng.randint(0, 4)
        l = rng.randint(1, 5)
        x = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        v = VElement.basis(n, l)
        lhs = eval_at(eta(v), x)
        rhs = Fraction(1, n + 1) * (Fraction(1) / x**l - Fraction(1) / (x + n + 1) ** l)
        assert lhs == rhs


def test_telescoping_sides_agree():
    rng = random.Random(4)
    for _ in range(20):
        K = rng.randint(2, 6)
        c = Fraction(rng.randint(1, 8), rng.randint(1, 8))
        x = Fraction(rng.randint(1, 8), rng.randint(1, 8))
        lhs, rhs = telescoping_sides(K, c, x)
        assert lhs == rhs


def test_composition_weight_examples():
    # f = prod_j (k_j + ... + k_r - 2(r-j)); depth 1 weight is just k
    assert composition_weight(Composition((4,))) == 4
    # depth 2, (k1,k2): (k1+k2-2) * k2
    assert composition_weight(Composition((1, 3))) == (1 + 3 - 2) * 3
    # depth 3, (1,2,2): (5-4)(4-2)(2) = 4
    assert composition_weight(Composition((1, 2, 2))) == 4


def test_sum_formula_rhs_requires_positive_exponent():
    # the left-hand side has the same domain, checked by the same helper
    for side in (sum_formula_rhs, sum_formula_lhs_terms):
        with pytest.raises(DomainError, match=r"^need k > 2\(r-1\); got r=2, k=2$"):
            side(2, 2)
        with pytest.raises(DomainError, match=r"^need k > 2\(r-1\); got r=3, k=4$"):
            side(3, 4)
        with pytest.raises(DomainError, match=r"^depth must be an integer >= 1, got 0$"):
            side(0, 4)


def test_sum_formula_rhs_depth1_is_plain_power():
    for k in range(1, 8):
        assert sum_formula_rhs(1, k) == 1


def test_sum_formula_rhs_closed_forms():
    # frozen closed forms, exact at every valid weight up to 12
    for k in range(3, 13):
        assert sum_formula_rhs(2, k) == 1 - Fraction(1, 2 ** (k - 2))
    for k in range(5, 13):
        assert sum_formula_rhs(3, k) == Fraction(1, 2) - Fraction(1, 2 ** (k - 4)) + Fraction(
            1, 2 * 3 ** (k - 4)
        )
    for k in range(7, 13):
        assert sum_formula_rhs(4, k) == (
            Fraction(1, 6)
            - Fraction(1, 2 * 2 ** (k - 6))
            + Fraction(1, 2 * 3 ** (k - 6))
            - Fraction(1, 6 * 4 ** (k - 6))
        )


def test_sum_formula_lhs_terms_structure():
    terms = sum_formula_lhs_terms(2, 4)
    assert [(c.parts, w) for c, w in terms] == [
        ((1, 4), Fraction(6)),
        ((2, 3), Fraction(4)),
        ((3, 2), Fraction(2)),
    ]
    # every term is depth r, weight k+1, admissible (last part raised by 1)
    for r, k in ((2, 5), (3, 7), (4, 9)):
        terms = sum_formula_lhs_terms(r, k)
        assert len(terms) == sum(1 for c in compositions_of(k) if c.depth == r)
        for c, w in terms:
            assert c.depth == r
            assert c.weight == k + 1
            assert c.parts[-1] >= 2
            assert w == composition_weight(Composition(c.parts[:-1] + (c.parts[-1] - 1,)))


def test_lhs_weights_match_product_formula():
    rng = random.Random(8)
    for _ in range(25):
        r = rng.randint(2, 4)
        k = rng.randint(2 * r - 1, 12)
        terms = sum_formula_lhs_terms(r, k)
        c, w = terms[rng.randrange(len(terms))]
        base = c.parts[:-1] + (c.parts[-1] - 1,)
        expected = Fraction(1)
        for j in range(r):
            expected *= sum(base[j:]) - 2 * (r - 1 - j)
        assert w == expected


def _filtered_lhs_terms(r, k):
    """Reference: walk all 2^(k-1) compositions of k and keep those with r parts."""
    return tuple(
        (Composition(c.parts[:-1] + (1 + c.parts[-1],)), composition_weight(c))
        for c in compositions_of(k)
        if c.depth == r
    )


def test_lhs_terms_match_filtered_enumeration():
    for r in range(1, 5):
        for k in range(2 * r - 1, 15):
            assert sum_formula_lhs_terms(r, k) == _filtered_lhs_terms(r, k)


def test_lhs_terms_at_large_weight_are_quick():
    start = time.perf_counter()
    terms = sum_formula_lhs_terms(2, 60)
    assert time.perf_counter() - start < 0.5
    assert [c.parts for c, _ in terms] == [(j, 61 - j) for j in range(1, 60)]

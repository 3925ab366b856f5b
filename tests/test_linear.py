"""The one normal form of every exact linear combination (cmzv.linear).

SymbolicConstant (logs and basis), VElement and FormalWordSum all build
their terms with linear.normal_form: coefficients of equal keys summed,
zeros dropped, keys sorted, every key checked even when its coefficient
is 0.  z_map builds its composition terms the same way.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmzv.compositions import word_from_composition
from cmzv.errors import DomainError
from cmzv.etaspace import VElement
from cmzv.reduce import SymbolicConstant
from cmzv.shuffle import FormalWordSum, z_map

_FRACTIONS = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 4))
_IDS = st.lists(st.builds(Fraction, st.integers(1, 6), st.integers(1, 2)), min_size=1, max_size=4)

# name -> (key strategy, constructor from (key, coefficient) pairs or a
# mapping, the stored terms of a constructed value)
_CASES = {
    "logs": (
        st.sampled_from([2, 3, 5, 7, 11]),
        lambda items: SymbolicConstant(0, items),
        lambda v: v.logs,
    ),
    "basis": (
        _IDS.map(tuple),
        lambda items: SymbolicConstant(0, (), items),
        lambda v: v.basis,
    ),
    "velement": (
        st.tuples(st.integers(0, 5), st.integers(1, 4)),
        VElement,
        lambda v: v.terms,
    ),
    "words": (
        st.text(alphabet="xy", max_size=5),
        FormalWordSum,
        lambda v: v.terms,
    ),
}


@pytest.mark.parametrize("name", sorted(_CASES))
@settings(max_examples=60, deadline=None, database=None)
@given(data=st.data())
def test_normal_form_is_canonical(name, data):
    keys, build, stored = _CASES[name]
    mapping = data.draw(st.dictionaries(keys, _FRACTIONS, max_size=6))
    items = []
    for k, q in mapping.items():
        pieces = data.draw(st.lists(_FRACTIONS, max_size=3))
        items += [(k, p) for p in pieces] + [(k, q - sum(pieces))]
    items += [(k, 0) for k in data.draw(st.lists(keys, max_size=3))]
    items = data.draw(st.permutations(items))

    value = build(items)
    assert value == build(mapping)
    terms = stored(value)
    assert terms == tuple(sorted((k, q) for k, q in mapping.items() if q))
    assert all(a < b for (a, _), (b, _) in zip(terms, terms[1:]))
    assert all(type(q) is Fraction and q != 0 for _, q in terms)


_BAD_KEYS = [
    ("velement", (-1, 1)),
    ("words", "yzx"),
    ("basis", (1, 0, 2)),
]


@pytest.mark.parametrize("name, bad", _BAD_KEYS)
@settings(max_examples=30, deadline=None, database=None)
@given(data=st.data())
def test_bad_key_with_zero_coefficient_raises(name, bad, data):
    keys, build, _ = _CASES[name]
    items = data.draw(st.lists(st.tuples(keys, _FRACTIONS), max_size=5))
    items.insert(data.draw(st.integers(0, len(items))), (bad, 0))
    with pytest.raises(DomainError):
        build(items)


_ADMISSIBLE_WORDS = st.text(alphabet="xy", max_size=6).map(lambda w: "y" + w + "x")


@settings(max_examples=100, deadline=None, database=None)
@given(st.dictionaries(st.one_of(st.just(""), _ADMISSIBLE_WORDS), _FRACTIONS, max_size=8))
def test_z_map_terms_sorted_by_parts(mapping):
    image = z_map(FormalWordSum(mapping))
    parts = [c.parts for c, _ in image]
    assert all(a < b for a, b in zip(parts, parts[1:]))
    assert image.constant == mapping.get("", 0)
    assert {word_from_composition(c): q for c, q in image} == {
        w: q for w, q in mapping.items() if w and q
    }

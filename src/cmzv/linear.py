"""Finite rational linear combinations in one normal form.

Every exact combination in the package (word sums, elements of V, the logs
and generators of a reduction, the terms of a Z image) stores its terms as
a tuple of (key, coefficient) pairs with the coefficients of equal keys
summed as Fractions, zero coefficients dropped and the keys sorted.  Equal
combinations therefore have equal terms, and compare equal.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Callable, Iterable, Iterator, Mapping, TypeVar

Terms = tuple[tuple[Any, Fraction], ...]


def normal_form(
    items: Mapping[Any, Fraction | int] | Iterable[tuple[Any, Fraction | int]],
    key: Callable[[Any], Any] | None = None,
) -> Terms:
    """Sum the coefficients of equal keys, drop zeros and sort by key.

    key, when given, checks and converts every key before it is used, also
    the keys whose coefficient is 0, so a bad key raises whatever its
    coefficient.
    """
    if isinstance(items, Mapping):
        items = items.items()
    acc: dict = {}
    for k, q in items:
        if key is not None:
            k = key(k)
        if type(q) is not Fraction:
            q = Fraction(q)
        if q:
            acc[k] = acc.get(k, 0) + q
    return tuple(sorted((k, q) for k, q in acc.items() if q))


_L = TypeVar("_L", bound="LinearCombination")


class LinearCombination:
    """Shared methods of a frozen dataclass whose one field, terms, is in
    normal form and whose constructor takes such pairs or a mapping."""

    terms: Terms

    def coefficient(self, key: Any) -> Fraction:
        for k, q in self.terms:
            if k == key:
                return q
        return Fraction(0)

    def __iter__(self) -> Iterator[tuple[Any, Fraction]]:
        return iter(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def __add__(self: _L, other: _L) -> _L:
        return type(self)(self.terms + other.terms)

    def scaled(self: _L, q: Fraction | int) -> _L:
        q = Fraction(q)
        return type(self)([(k, c * q) for k, c in self.terms])

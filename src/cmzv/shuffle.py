"""Shuffle algebra on words over {x, y} and its evaluation on compositions.

The shuffle product interleaves two words in all order-preserving ways:

    1 sh w = w sh 1 = w
    (u w1) sh (v w2) = u (w1 sh w2) + v ((u w1) sh w2)

with u, v single letters.  Evaluating a word sum term by term on the
corresponding compositions (the Z map) is an algebra homomorphism into the
reals; that multiplicativity is checked numerically elsewhere, never assumed.
All coefficients are exact rationals.  Every word a product or a word sum
takes in is checked by compositions.check_word, so a letter other than x
and y raises WordEncodingError.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping

from .compositions import Composition, check_word, composition_from_word, is_admissible_word
from .errors import CapacityError, WordEncodingError
from .linear import LinearCombination, normal_form


@dataclass(frozen=True)
class FormalWordSum(LinearCombination):
    """Finite rational linear combination of words, in the normal form of
    linear.normal_form: zero coefficients dropped, terms sorted by word
    (lexicographic), so iteration order and equality are canonical.
    """

    terms: tuple[tuple[str, Fraction], ...]

    def __init__(self, terms: Mapping[str, Fraction] | Iterable[tuple[str, Fraction]] = ()):
        object.__setattr__(self, "terms", normal_form(terms, check_word))

    @classmethod
    def of(cls, word: str, coeff: Fraction | int = 1) -> "FormalWordSum":
        return cls([(word, Fraction(coeff))])

    def words(self) -> tuple[str, ...]:
        return tuple(w for w, _ in self.terms)

    def __sub__(self, other: "FormalWordSum") -> "FormalWordSum":
        return self + other.scaled(-1)

    def total_mass(self) -> Fraction:
        return sum((q for _, q in self.terms), Fraction(0))

    def to_json(self) -> dict[str, str]:
        return {w: str(q) for w, q in self.terms}


_MAX_WORDS = 10**6  # cap on the distinct words of any partial product


def _shuffle_words(w1: str, w2: str) -> tuple[tuple[str, int], ...]:
    """Words of w1 sh w2 with their multiplicities, sorted by word.

    Built bottom-up over suffix pairs, one row of w2 suffixes at a time:
    row[j] holds w1[i:] sh w2[j:].  A partial product of more than _MAX_WORDS
    distinct words raises CapacityError.
    """
    n2 = len(w2)
    row = [{w2[j:]: 1} for j in range(n2 + 1)]
    for i in range(len(w1) - 1, -1, -1):
        new = [None] * n2 + [{w1[i:]: 1}]
        for j in range(n2 - 1, -1, -1):
            acc = {w1[i] + tail: n for tail, n in row[j].items()}
            row[j] = None  # read once: free it before the row is done
            for tail, n in new[j + 1].items():
                word = w2[j] + tail
                acc[word] = acc.get(word, 0) + n
            if len(acc) > _MAX_WORDS:
                raise CapacityError(
                    f"shuffle of words of lengths {len(w1)} and {n2} passes {_MAX_WORDS} words"
                )
            new[j] = acc
        row = new
    return tuple(sorted(row[0].items()))


def shuffle(w1: str, w2: str) -> FormalWordSum:
    """Shuffle product of two plain words (integer coefficients)."""
    check_word(w1)
    check_word(w2)
    return FormalWordSum([(w, Fraction(n)) for w, n in _shuffle_words(w1, w2)])


def shuffle_sum(a: FormalWordSum, b: FormalWordSum) -> FormalWordSum:
    """Bilinear extension of the shuffle product to word sums."""
    acc: list[tuple[str, Fraction]] = []
    for w1, c1 in a:
        for w2, c2 in b:
            c = c1 * c2
            acc.extend((w, c * n) for w, n in _shuffle_words(w1, w2))
    return FormalWordSum(acc)


@dataclass(frozen=True)
class ZImage:
    """Evaluation of a word sum: a rational constant (from the empty word)
    plus a rational combination of admissible compositions.

    Iterating yields the (Composition, coefficient) terms sorted by parts.
    """

    constant: Fraction
    terms: tuple[tuple[Composition, Fraction], ...]

    def __iter__(self) -> Iterator[tuple[Composition, Fraction]]:
        return iter(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def to_json(self) -> dict:
        return {
            "constant": str(self.constant),
            "terms": [{"composition": c.to_json(), "coeff": str(q)} for c, q in self.terms],
        }


def _admissible_composition(w: str) -> Composition:
    if not is_admissible_word(w):
        raise WordEncodingError(f"word {w!r} is non-admissible (y...x) and has no value")
    return composition_from_word(w)


def z_map(a: FormalWordSum | str) -> ZImage:
    """Map each word to its composition; the empty word maps to the scalar 1.

    Every word in the sum must be admissible (empty, or y...x); a
    non-admissible word raises WordEncodingError naming the offender.
    """
    if isinstance(a, str):
        a = FormalWordSum.of(a)
    terms = normal_form(((w, q) for w, q in a if w), _admissible_composition)
    return ZImage(a.coefficient(""), terms)

"""Integer compositions, convergence domain tests, and the word encoding.

A composition (k_1, ..., k_r) indexes the iterated tail integral

    zeta_C(k_1, ..., k_r) = int_{[1,oo)^r} dx_1...dx_r /
                            (x_1^{k_1} (x_1+x_2)^{k_2} ... (x_1+...+x_r)^{k_r}),

which converges exactly when the last part is >= 2 ("admissible").  For real
exponent tuples the region of absolute convergence is cut out by strict
conditions on every suffix sum.  Compositions are also encoded as words over
the alphabet {x, y}: each part k contributes the block "y" + "x"*(k-1), so
admissible compositions correspond to words that start with y and end with x.

A ShiftedCMZV is the target of every route, numeric or exact: exponents with
one positive rational lower bound per variable (the integral above has all
bounds 1).  as_target turns a composition or a plain tuple of parts into the
unit-bound target, and admissible_target adds the checks every route runs
before it starts: the integral converges and its depth fits the cap.

Each input rule of the package is checked by one function here:
positive_bounds (lower bounds, also those of reduction terms and basis
ids), is_admissible (the last part is >= 2), admissible_target (an
admissible target within the depth cap) and check_word (a word uses only
the letters x and y).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .errors import CapacityError, DivergenceError, DomainError, WordEncodingError


@dataclass(frozen=True, order=True)
class Composition:
    """A nonempty tuple of positive integers."""

    parts: tuple[int, ...]

    def __init__(self, parts: Sequence[int]):
        parts = tuple(parts)
        if not parts:
            raise DomainError("composition must have at least one part")
        for p in parts:
            if not isinstance(p, int) or isinstance(p, bool) or p < 1:
                raise DomainError(f"composition parts must be integers >= 1, got {p!r}")
        object.__setattr__(self, "parts", parts)

    @property
    def weight(self) -> int:
        return sum(self.parts)

    @property
    def depth(self) -> int:
        return len(self.parts)

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __str__(self) -> str:
        return "(" + ",".join(str(p) for p in self.parts) + ")"

    def to_json(self) -> list[int]:
        return list(self.parts)


def positive_bounds(bounds: Iterable[Fraction | int]) -> tuple[Fraction, ...]:
    """bounds as a tuple of Fractions, each > 0 (DomainError otherwise).
    Bounds that are already Fractions are kept as they are."""
    bt = tuple(b if type(b) is Fraction else Fraction(b) for b in bounds)
    if any(b.numerator <= 0 for b in bt):  # a Fraction's denominator is positive
        raise DomainError(f"lower bounds must be positive, got {bt}")
    return bt


def is_admissible(c: Composition) -> bool:
    """True when the defining integral converges, i.e. the last part is >= 2."""
    return c.parts[-1] >= 2


@dataclass(frozen=True)
class ShiftedCMZV:
    """An iterated tail integral with per-variable lower bounds.

    bounds are positive rationals (positive_bounds), one per part of the
    exponents, a Composition.  parts, weight and depth read as the
    exponents' do.
    """

    bounds: tuple[Fraction, ...]
    exponents: Composition

    def __init__(self, bounds: Sequence[Fraction | int], exponents: Composition | Sequence[int]):
        exponents = exponents if isinstance(exponents, Composition) else Composition(exponents)
        bt = tuple(bounds)
        if len(bt) != exponents.depth:
            raise DomainError(f"{len(bt)} bounds for depth-{exponents.depth} exponents")
        object.__setattr__(self, "bounds", positive_bounds(bt))
        object.__setattr__(self, "exponents", exponents)

    @property
    def parts(self) -> tuple[int, ...]:
        return self.exponents.parts

    @property
    def weight(self) -> int:
        return self.exponents.weight

    @property
    def depth(self) -> int:
        return self.exponents.depth

    def __str__(self) -> str:
        bounds = ",".join(str(b) for b in self.bounds)
        return f"zeta_{{{bounds}}}{self.exponents}"

    def to_json(self) -> dict:
        return {
            "bounds": [str(b) for b in self.bounds],
            "exponents": self.exponents.to_json(),
        }


def as_target(target: ShiftedCMZV | Composition | Sequence[int]) -> ShiftedCMZV:
    """target itself, or the unit-bound target of a composition or parts."""
    if isinstance(target, ShiftedCMZV):
        return target
    return ShiftedCMZV((Fraction(1),) * len(target), target)


def admissible_target(target: ShiftedCMZV | Composition | Sequence[int], depth_cap: int) -> ShiftedCMZV:
    """as_target(target), checked for every route: DivergenceError if the
    integral diverges, CapacityError if its depth exceeds depth_cap."""
    t = as_target(target)
    if not is_admissible(t.exponents):
        raise DivergenceError(f"{t.exponents} is non-admissible (last part < 2); the integral diverges")
    if t.depth > depth_cap:
        raise CapacityError(f"depth {t.depth} exceeds the configured cap {depth_cap}")
    return t


def _checked_reals(s: Sequence[float]) -> tuple[float, ...]:
    t = tuple(float(v) for v in s)
    if not t:
        raise DomainError("exponent tuple must be nonempty")
    if not all(math.isfinite(v) for v in t):
        raise DomainError(f"exponent tuple must be finite, got {t}")
    return t


def in_convergence_domain(s: Sequence[float]) -> bool:
    """Strict suffix conditions for absolute convergence.

    (s_1, ..., s_r) qualifies iff for every j: s_j + ... + s_r > r - j + 1.
    The comparisons are strict with no epsilon slack; boundary tuples fail.
    """
    t = _checked_reals(s)
    acc = 0.0
    for count, v in enumerate(reversed(t), start=1):
        acc += v
        if not acc > count:
            return False
    return True


def convergence_bound(s: Sequence[float]) -> float:
    """Product upper bound prod_j 1/(s_j + ... + s_r - (r - j + 1)).

    Only defined inside the open convergence domain; the true integral is
    strictly below this bound.
    """
    t = _checked_reals(s)
    if not in_convergence_domain(t):
        raise DomainError(f"{t} is outside the open convergence domain")
    bound = 1.0
    acc = 0.0
    for count, v in enumerate(reversed(t), start=1):
        acc += v
        bound /= acc - count
    return bound


def word_from_composition(c: Composition) -> str:
    """Encode (k_1, ..., k_r) as the word y x^{k_1-1} y x^{k_2-1} ... y x^{k_r-1}.

    Defined for every composition; only evaluation (the Z map) requires the
    admissible shape "starts with y, ends with x".
    """
    return "".join("y" + "x" * (k - 1) for k in c.parts)


_LETTERS = frozenset("xy")


def check_word(w: str) -> str:
    """w itself if it uses only the letters x and y; WordEncodingError
    otherwise.  The empty word passes."""
    if not _LETTERS.issuperset(w):
        raise WordEncodingError(f"word {w!r} uses letters outside {{x, y}}")
    return w


def composition_from_word(w: str) -> Composition:
    """Decode a word produced by word_from_composition.

    Accepts any nonempty word over {x, y} that starts with y (each y opens a
    new part, each x increments the current part).  Anything else cannot be a
    composition encoding and raises WordEncodingError.
    """
    if not w:
        raise WordEncodingError("empty word encodes no composition")
    check_word(w)
    if w[0] != "y":
        raise WordEncodingError(f"word {w!r} does not start with y")
    parts: list[int] = []
    for ch in w:
        if ch == "y":
            parts.append(1)
        else:
            parts[-1] += 1
    return Composition(parts)


def is_admissible_word(w: str) -> bool:
    """Words evaluable by the Z map: empty, or starting with y and ending with x."""
    return w == "" or (_LETTERS.issuperset(w) and w[0] == "y" and w[-1] == "x")


def admissible_compositions(weight: int) -> Iterator[Composition]:
    """All compositions of the given weight whose last part is >= 2."""
    if weight < 2:
        return
    yield from filter(is_admissible, compositions_of(weight))


def compositions_of(total: int) -> Iterator[Composition]:
    """All 2^(total-1) compositions of a positive integer, lexicographic."""
    return map(Composition, _parts_of(total))


def _parts_of(total: int) -> Iterator[tuple[int, ...]]:
    """The parts tuples of compositions_of(total), in its order, unchecked
    and without building a Composition."""
    if total < 1:
        raise DomainError(f"need a positive total, got {total}")

    def rec(rest: int, acc: list[int]) -> Iterator[tuple[int, ...]]:
        if rest == 0:
            yield tuple(acc)
            return
        for first in range(1, rest + 1):
            acc.append(first)
            yield from rec(rest - first, acc)
            acc.pop()

    yield from rec(total, [])

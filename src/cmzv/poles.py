"""Candidate pole hyperplanes of the continued multi-variable integral.

Permuting the integration variables and integrating one at a time shows the
analytic continuation in (s_1,...,s_r) can only have poles on the affine
hyperplanes

    m_1 s_1 + ... + m_i s_i = (i + 1) - k,    1 <= i <= r,  k >= 1,

where (m_1,...,m_i) is a prefix of the running minima of some permutation of
1..r.  Only the candidates are enumerable; which of them carry genuine poles
is not decided here.  The depth-1 case is exact: the function is 1/(s-1),
with its single pole s = 1 among the candidates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import CapacityError, DomainError

# Depth cap: the Catalan(r+1) - 1 prefixes are listed before the _MAX_PLANES
# check can run (4,861 at r = 8, 16,795 at r = 9, 742,899 at r = 12).
_MAX_R = 8
_MAX_PLANES = 10**6  # cap on prefixes * k_max, checked before any plane is built


@dataclass(frozen=True)
class Hyperplane:
    """The locus m_1 s_1 + ... + m_i s_i = constant.

    Coefficients are positive, non-increasing integers (running minima of a
    permutation are non-increasing).
    """

    coefficients: tuple[int, ...]
    constant: int

    def __init__(self, coefficients: Sequence[int], constant: int):
        ct = tuple(map(int, coefficients))
        if not ct:
            raise DomainError("a hyperplane needs at least one coefficient")
        if min(ct) < 1:
            raise DomainError(f"coefficients must be positive, got {ct}")
        if list(ct) != sorted(ct, reverse=True):
            raise DomainError(f"coefficients must be non-increasing, got {ct}")
        object.__setattr__(self, "coefficients", ct)
        object.__setattr__(self, "constant", int(constant))

    def __str__(self) -> str:
        lhs = " + ".join(
            f"s{i}" if m == 1 else f"{m}*s{i}" for i, m in enumerate(self.coefficients, start=1)
        )
        return f"{lhs} = {self.constant}"

    def evaluate(self, point: Sequence[float]) -> float:
        """Left side minus right side at the given point (0 means on the plane)."""
        if len(point) < len(self.coefficients):
            raise DomainError(
                f"need at least {len(self.coefficients)} coordinates, got {len(point)}"
            )
        return sum(m * x for m, x in zip(self.coefficients, point)) - self.constant

    def to_json(self) -> dict:
        return {"coeffs": list(self.coefficients), "constant": self.constant}


def perm_min_sequence(sigma: Sequence[int]) -> tuple[int, ...]:
    """Running minima (min of the first i entries) of a permutation of 1..r.

    The result is non-increasing and always ends at 1.
    """
    r = len(sigma)
    if r == 0 or sorted(sigma) != list(range(1, r + 1)):
        raise DomainError(f"{tuple(sigma)} is not a permutation of 1..r for any r >= 1")
    out = []
    cur = sigma[0]
    for v in sigma:
        cur = min(cur, v)
        out.append(cur)
    return tuple(out)


def pole_hyperplanes(r: int, k_max: int) -> frozenset[Hyperplane]:
    """All candidate pole hyperplanes at depth r with constants down to (i+1)-k_max.

    Union over every permutation sigma of 1..r, every prefix length i, and
    every k in 1..k_max of the plane with coefficients perm_min_sequence(sigma)[:i]
    and constant (i+1)-k.  The distinct prefixes are listed directly instead
    of through the r! permutations: they are exactly the non-increasing
    positive sequences with m_t <= r - t + 1.  (The first t entries of a
    permutation are t distinct values, so their minimum is at most
    r - t + 1; and any such sequence is realised by placing m_t at step t
    where the minimum drops, and an unused larger value where it does not.)
    The prefixes are counted first: more than _MAX_PLANES planes raise
    CapacityError before any is built.  Each prefix then passes the public
    Hyperplane check once, as its k = 1 plane; its other k_max - 1 planes
    share that plane's checked coefficient tuple and are not checked again.
    """
    if r < 1:
        raise DomainError(f"depth must be >= 1, got {r}")
    if k_max < 1:
        raise DomainError(f"k_max must be >= 1, got {k_max}")
    if r > _MAX_R:
        raise CapacityError(f"depth {r} exceeds the permutation enumeration cap {_MAX_R}")
    prefixes = []
    level = [(m,) for m in range(1, r + 1)]
    while level:
        prefixes += level
        level = [p + (m,) for p in level for m in range(1, min(p[-1], r - len(p)) + 1)]
    if len(prefixes) * k_max > _MAX_PLANES:
        raise CapacityError(
            f"{len(prefixes)} prefixes times k_max {k_max} exceeds the plane cap {_MAX_PLANES}"
        )
    planes = []
    for mins in prefixes:
        top = Hyperplane(mins, len(mins))  # k = 1, through the public check
        ct = top.coefficients
        planes.append(top)
        planes += [_checked_plane(ct, len(ct) + 1 - k) for k in range(2, k_max + 1)]
    return frozenset(planes)


def _checked_plane(coefficients: tuple[int, ...], constant: int) -> Hyperplane:
    """The plane over the coefficients of a Hyperplane that has already been
    built, and so checked, with a different constant; __init__ does not rerun."""
    h = object.__new__(Hyperplane)
    object.__setattr__(h, "coefficients", coefficients)
    object.__setattr__(h, "constant", constant)
    return h


def depth1_value(s):
    """Exact depth-1 tail integral: int_1^oo x^(-s) dx = 1/(s-1) for s > 1.

    Exact over the rationals when given int or Fraction, float otherwise.
    """
    if isinstance(s, (int, Fraction)):
        if s <= 1:
            raise DomainError(f"requires s > 1, got {s}")
        return 1 / (Fraction(s) - 1)
    s = float(s)
    if not s > 1:
        raise DomainError(f"requires s > 1, got {s}")
    return 1.0 / (s - 1.0)

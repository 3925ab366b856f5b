"""The rational-function space V = span{ 1/(x+n)^l : n >= 0, l >= 1 } and the
averaging operator eta behind the exact sum formulas.

eta acts on basis elements by

    eta( 1/(x+n)^l ) = (1/(n+1)) * ( 1/x^l - 1/(x+n+1)^l )

and extends linearly.  Powers of eta applied to 1/x^l, evaluated at x = 1,
give closed forms for weighted sums of the iterated tail integrals: with
l = k - 2(r-1) > 0,

    sum over compositions (k_1,...,k_r) of k of
        f(k_1,...,k_r) * zeta_C(k_1, ..., k_{r-1}, 1 + k_r)
      = eta^(r-1)( 1/x^l ) evaluated at x = 1,

where f is the product of shifted suffix sums, f = prod_j (k_j + ... + k_r
- 2(r-j)).  Everything here is exact rational arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Mapping

from .compositions import Composition
from .errors import DomainError
from .linear import LinearCombination, normal_form


def _check_basis_key(key: tuple[int, int]) -> tuple[int, int]:
    n, l = key
    if not (isinstance(n, int) and n >= 0):
        raise DomainError(f"shift must be an integer >= 0, got {n!r}")
    if not (isinstance(l, int) and l >= 1):
        raise DomainError(f"exponent must be an integer >= 1, got {l!r}")
    return (n, l)


@dataclass(frozen=True)
class VElement(LinearCombination):
    """Rational combination of basis functions 1/(x+n)^l, keyed by (n, l),
    in the normal form of linear.normal_form: terms sorted by (shift n,
    exponent l), zero coefficients dropped.
    """

    terms: tuple[tuple[tuple[int, int], Fraction], ...]

    def __init__(
        self,
        terms: Mapping[tuple[int, int], Fraction] | Iterable[tuple[tuple[int, int], Fraction]] = (),
    ):
        object.__setattr__(self, "terms", normal_form(terms, _check_basis_key))

    @classmethod
    def basis(cls, n: int, l: int) -> "VElement":
        return cls([((n, l), Fraction(1))])

    def coefficient(self, n: int, l: int) -> Fraction:
        return super().coefficient((n, l))

    def to_json(self) -> list[dict]:
        return [{"n": n, "l": l, "coeff": str(q)} for (n, l), q in self.terms]


def eta(v: VElement) -> VElement:
    """Apply the averaging operator once (linear in v)."""
    acc: list[tuple[tuple[int, int], Fraction]] = []
    for (n, l), c in v:
        w = c / (n + 1)
        acc.append(((0, l), w))
        acc.append(((n + 1, l), -w))
    return VElement(acc)


def eta_power(v: VElement, j: int) -> VElement:
    """j-fold application of eta, j >= 0."""
    if not (isinstance(j, int) and j >= 0):
        raise DomainError(f"power must be an integer >= 0, got {j!r}")
    for _ in range(j):
        v = eta(v)
    return v


def eval_at(v: VElement, t: Fraction | int) -> Fraction:
    """Exact value of v at a rational point t > 0."""
    t = Fraction(t)
    if t <= 0:
        raise DomainError(f"evaluation point must be > 0, got {t}")
    total = Fraction(0)
    for (n, l), c in v:
        total += c / (t + n) ** l
    return total


def composition_weight(c: Composition) -> Fraction:
    """The weight f(k_1,...,k_r) = prod_j (k_j + ... + k_r - 2(r-j)).

    May be zero or negative for individual compositions; the weighted sum
    formula holds regardless.
    """
    r = c.depth
    suffix = 0
    factors = Fraction(1)
    for j in range(r - 1, -1, -1):
        suffix += c.parts[j]
        factors *= suffix - 2 * (r - 1 - j)
    return factors


def _start_exponent(r: int, k: int) -> int:
    """l = k - 2(r-1), the exponent a depth-r, weight-k sum formula starts
    from; DomainError unless r >= 1 and l > 0."""
    if not (isinstance(r, int) and r >= 1):
        raise DomainError(f"depth must be an integer >= 1, got {r!r}")
    l = k - 2 * (r - 1)
    if l <= 0:
        raise DomainError(f"need k > 2(r-1); got r={r}, k={k}")
    return l


def sum_formula_rhs(r: int, k: int) -> Fraction:
    """Exact right-hand side eta^(r-1)(1/x^(k-2(r-1))) at x = 1.

    Requires r >= 1 and k > 2(r-1) so the starting exponent is positive.
    """
    return eval_at(eta_power(VElement.basis(0, _start_exponent(r, k)), r - 1), 1)


def sum_formula_lhs_terms(r: int, k: int) -> tuple[tuple[Composition, Fraction], ...]:
    """All C(k-1, r-1) left-hand-side terms for depth r and total k.

    Each composition (k_1, ..., k_r) of k contributes the target composition
    (k_1, ..., k_{r-1}, 1 + k_r) with weight f(k_1, ..., k_r).  Zero-weight
    terms are reported too, so callers see the full enumeration.  The domain
    is sum_formula_rhs's.
    """
    _start_exponent(r, k)
    out: list[tuple[Composition, Fraction]] = []
    # r-part compositions of k are the (r-1)-subsets of cut points 1..k-1,
    # and lexicographic order on the cuts is lexicographic order on the parts
    for cuts in combinations(range(1, k), r - 1):
        ends = (0,) + cuts + (k,)
        c = Composition(tuple(b - a for a, b in zip(ends, ends[1:])))
        target = Composition(c.parts[:-1] + (1 + c.parts[-1],))
        out.append((target, composition_weight(c)))
    return tuple(out)


def telescoping_sides(K: int, c: Fraction | int, x: Fraction | int) -> tuple[Fraction, Fraction]:
    """Both sides of the telescoping identity, exactly, at a rational point.

    sum_{n1+n2=K, ni>=1} x^(-n1) (x+c)^(-n2)
        = (1/c) * ( x^(1-K) - (x+c)^(1-K) )

    for K >= 2, c > 0, x > 0.  Returns (lhs, rhs) so callers can assert equality.
    """
    if not (isinstance(K, int) and K >= 2):
        raise DomainError(f"need integer K >= 2, got {K!r}")
    c = Fraction(c)
    x = Fraction(x)
    if c <= 0 or x <= 0:
        raise DomainError("need c > 0 and x > 0")
    lhs = Fraction(0)
    for n1 in range(1, K):
        n2 = K - n1
        lhs += Fraction(1) / (x**n1 * (x + c) ** n2)
    rhs = (x ** (1 - K) - (x + c) ** (1 - K)) / c
    return lhs, rhs

"""Exact reduction of iterated tail integrals to a depth-graded basis.

A GenTerm is a convergent iterated integral over v_i in [m_i, oo),
i = 1..s, whose integrand is a product of factors

    (c + v_1 + ... + v_i)^(-a)        encoded as (index i, shift c, exponent a).

The target zeta_{m_1,...,m_r}(k_1,...,k_r) (compositions.ShiftedCMZV) is the
GenTerm with bounds m_i and one shift-0 factor (i, 0, k_i) per index,
GenTerm.of(target).  Each rewrite returns (coefficient, term) pairs whose
sum is its input, plus a constant it resolved.
Repeated integration by parts on the leftmost index with exponent >= 2
rewrites any admissible term, exactly over Q, into the span of

    1                                      (depth-0 rationals),
    log p  for primes p                    (from the one-variable tails), and
    B_(m_1,...,m_s) = zeta_{m_1,...,m_s}(1,...,1,2), s >= 3  (opaque basis).

Depth-2 terms resolve in closed form: zeta_{m1,m2}(1,2) = (1/m2) log((m1+m2)/m1).
Logs are stored factored over primes, so e.g. log 4 and 2 log 2 are identical.

One step of the rewrite, at position p (sole factor (p, 0, a), a >= 2):

    boundary:   variable p is integrated out at its lower bound; every deeper
                factor's shift grows by m_p, and (for p >= 2) a new factor
                (p-1, m_p, a-1) appears; its coefficient is m_p^(1-a)/(a-1)
                when p = 1, else 1/(a-1).
    derivative: one term per deeper factor j, with exponent a-1 at p,
                a_j + 1 at j, and coefficient -a_j/(a - 1).

Boundary terms acquire one index carrying two factors; an exact partial
fraction expansion splits it again.  At the last index, where exponent-1
pieces would individually diverge, matched pairs 1/(w+c) - 1/(w+c') are
instead converted exactly via

    1/((w+c)(w+c')) = int_{c'-c}^oo (w + c + t)^(-2) dt      (c < c')

into one-variable-longer all-ones-then-2 terms, which is precisely how the
basis elements arise.  Every intermediate term stays convergent and the
total bound mass sum(m_i) is conserved, which is why basis ids emitted for a
depth-r input always satisfy sum(m_i) = r.
"""

from __future__ import annotations

import itertools
import math
import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping, Sequence

from .compositions import (
    Composition,
    ShiftedCMZV,
    admissible_target,
    _parts_of,
    as_target,
    positive_bounds,
)
from .errors import CapacityError, DivergenceError, DomainError, RewriteError
from .linear import normal_form

Factor = tuple[int, Fraction, int]  # (index, shift, exponent)
_ZERO = Fraction(0)


@dataclass(frozen=True)
class GenTerm:
    """A convergent iterated tail integral (see module docstring).

    Invariants enforced here: bounds positive (compositions.positive_bounds,
    the one check of every lower bound); shifts >= 0; exponents >= 1;
    every variable index carries at least one factor; and the suffix
    conditions sum(exponents at indices >= j) > s - j + 1 hold for every j,
    so the represented integral converges.  Every construction runs these
    checks, also of the new terms a rewrite builds from valid ones; only the
    conversion to Fraction and int is skipped for values already of that
    type, and the suffix sums come from one pass over per-index totals.
    Equal bounds and factors make equal terms with equal hashes, so a term
    is its own key in the reduction's term memo; the hash of the fields is
    computed once, in __init__, and equality compares the fields.
    GenTerm.of builds the term of a target; the target's own checks (bound
    count, admissibility, depth cap) live with ShiftedCMZV in compositions.
    """

    bounds: tuple[Fraction, ...]
    factors: tuple[Factor, ...]

    def __init__(
        self,
        bounds: Sequence[Fraction | int],
        factors: Sequence[tuple[int, Fraction | int, int]],
    ):
        bt = positive_bounds(bounds)
        ft = tuple(
            sorted(
                (
                    i if type(i) is int else int(i),
                    c if type(c) is Fraction else Fraction(c),
                    a if type(a) is int else int(a),
                )
                for i, c, a in factors
            )
        )
        s = len(bt)
        totals = [0] * s  # totals[i - 1]: the exponent sum at index i
        for i, c, a in ft:
            if not 1 <= i <= s:
                raise DomainError(f"factor index {i} outside 1..{s}")
            if c < 0:
                raise DomainError(f"factor shift must be >= 0, got {c}")
            if a < 1:
                raise DomainError(f"factor exponent must be >= 1, got {a}")
            totals[i - 1] += a
        if 0 in totals:  # exponents are >= 1, so 0 means no factor
            raise DomainError("every variable index needs at least one factor")
        suffix = sum(totals)  # the exponent sum at indices >= j, for j = 1
        for j, total in enumerate(totals, start=1):
            if not suffix > s - j + 1:
                raise DivergenceError(
                    f"suffix exponent sum {suffix} at index {j} needs > {s - j + 1}; "
                    "the represented integral diverges"
                )
            suffix -= total
        object.__setattr__(self, "bounds", bt)
        object.__setattr__(self, "factors", ft)
        object.__setattr__(self, "_hash", hash((bt, ft)))

    def __hash__(self) -> int:  # the fields' hash, computed once per term
        return self._hash

    @classmethod
    def of(cls, target: ShiftedCMZV | Composition | Sequence[int]) -> "GenTerm":
        """The term of a target (compositions.as_target): its bounds, and one
        shift-0 factor (i, 0, k_i) per index."""
        t = as_target(target)
        return cls(t.bounds, [(i, _ZERO, k) for i, k in enumerate(t.parts, start=1)])

    @property
    def depth(self) -> int:
        return len(self.bounds)

    @property
    def weight(self) -> int:
        return sum(a for _, _, a in self.factors)

    def pure_exponents(self) -> tuple[int, ...] | None:
        """Exponent vector when this is a plain shifted value: one factor per
        index, all shifts zero.  None otherwise."""
        if len(self.factors) != self.depth:
            return None
        exps = []
        for pos, (i, c, a) in enumerate(self.factors, start=1):
            if i != pos or c != 0:
                return None
            exps.append(a)
        return tuple(exps)


@dataclass(frozen=True)
class SymbolicConstant:
    """Exact value: rational + sum(q_p log p) + sum(q_m B_m).

    logs are keyed by prime so equal reals have equal representations;
    basis ids are the bound tuples of all-ones-then-2 generators of depth >= 3,
    checked as lower bounds (compositions.positive_bounds).  Both are kept
    in the normal form of linear.normal_form.
    """

    rational: Fraction
    logs: tuple[tuple[int, Fraction], ...]
    basis: tuple[tuple[tuple[Fraction, ...], Fraction], ...]

    def __init__(
        self,
        rational: Fraction | int = 0,
        logs: Mapping[int, Fraction] | Sequence[tuple[int, Fraction]] = (),
        basis: Mapping[tuple, Fraction] | Sequence[tuple[tuple, Fraction]] = (),
    ):
        object.__setattr__(self, "rational", Fraction(rational))
        object.__setattr__(self, "logs", normal_form(logs, int))
        object.__setattr__(self, "basis", normal_form(basis, positive_bounds))

    def __add__(self, other: "SymbolicConstant") -> "SymbolicConstant":
        return SymbolicConstant(
            self.rational + other.rational,
            tuple(self.logs) + tuple(other.logs),
            tuple(self.basis) + tuple(other.basis),
        )

    def scaled(self, q: Fraction | int) -> "SymbolicConstant":
        q = Fraction(q)
        return SymbolicConstant(
            self.rational * q,
            [(p, c * q) for p, c in self.logs],
            [(k, c * q) for k, c in self.basis],
        )

    def evaluate(self, basis_values=None) -> float:
        """Float value; basis_values maps an id tuple to a float and is only
        needed when opaque basis terms are present.  A value, or a
        coefficient, beyond the float range raises DomainError."""
        try:
            total = float(self.rational)
            for p, q in self.logs:
                total += float(q) * math.log(p)
            for ids, q in self.basis:
                if basis_values is None:
                    raise DomainError(f"no evaluator supplied for basis id {ids}")
                total += float(q) * basis_values(ids)
        except OverflowError:
            total = math.inf
        if not math.isfinite(total):
            raise DomainError("the value exceeds the float range of the numeric route")
        return total

    def to_json(self) -> dict:
        return {
            "rational": str(self.rational),
            "logs": {str(p): str(q) for p, q in self.logs},
            "basis": {",".join(str(m) for m in ids): str(q) for ids, q in self.basis},
        }


# Trial division covers factors below this; larger cofactors go to
# Miller-Rabin and Pollard-Brent rho, so a large prime bound cannot hang.
_TRIAL_LIMIT = 1000
# Miller-Rabin witnesses: exact for every n below 3317044064679887385961981,
# the least composite that passes all of them.  A larger cofactor that
# passes is taken to be prime.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# Pollard-Brent iterations allowed per cofactor of up to 128 bits before
# giving up.  A step costs a multiplication modulo the cofactor, so beyond
# 128 bits the cap shrinks by (128/bits)^2 to keep the work bounded.
_RHO_STEPS = 1 << 20


def _is_prime(n: int) -> bool:
    """Miller-Rabin over _MR_BASES, for odd n with no factor below _TRIAL_LIMIT."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho_factor(n: int) -> int:
    """A proper factor of the odd composite n by Pollard-Brent rho."""
    bits = n.bit_length()
    cap = _RHO_STEPS if bits <= 128 else _RHO_STEPS * 128 * 128 // (bits * bits)
    steps = 0
    for c in itertools.count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += 128
            r *= 2
            steps += r
            if g == 1 and steps > cap:
                raise CapacityError(f"no factor of a {bits}-bit cofactor found within {cap} rho steps")
        if g == n:
            # the batched product overshot: retrace the last batch one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def _prime_factors(n: int) -> dict[int, int]:
    """Prime factorisation {p: multiplicity} of the positive integer n."""
    out: dict[int, int] = {}
    d = 2
    while d < _TRIAL_LIMIT and d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n == 1:
        return out
    if d * d > n:
        out[n] = out.get(n, 0) + 1
        return out
    pending = [n]
    while pending:
        m = pending.pop()
        if _is_prime(m):
            out[m] = out.get(m, 0) + 1
        else:
            f = _rho_factor(m)
            pending += [f, m // f]
    return out


def _factored_log(value: Fraction) -> list[tuple[int, Fraction]]:
    """log(value) as a Z-combination of logs of primes; value must be > 0."""
    if value <= 0:
        raise DomainError(f"log argument must be positive, got {value}")
    # numerator and denominator are coprime, so no prime appears twice
    return [
        (p, Fraction(sign * mult))
        for n, sign in ((value.numerator, 1), (value.denominator, -1))
        for p, mult in _prime_factors(n).items()
    ]


def absorb_shifts(t: GenTerm) -> GenTerm:
    """Push the minimal shift at each index into the lower bounds.

    Substitutes y_i = v_i + d_i - d_{i-1} with d_i = min shift at index i,
    which lowers every shift at index i by d_i and moves the difference into
    the bounds.  Applied only when all resulting bounds stay positive;
    otherwise the term is returned unchanged.
    """
    s = t.depth
    if s == 0:
        return t
    d = [Fraction(0)] * (s + 1)
    for i in range(1, s + 1):
        d[i] = min(c for idx, c, _ in t.factors if idx == i)
    if all(di == 0 for di in d):
        return t
    new_bounds = tuple(t.bounds[i - 1] + d[i] - d[i - 1] for i in range(1, s + 1))
    if any(b <= 0 for b in new_bounds):
        return t
    new_factors = [(i, c - d[i], a) for i, c, a in t.factors]
    return GenTerm(new_bounds, new_factors)


def _ibp_at(t: GenTerm, p: int) -> tuple[tuple[Fraction, GenTerm], ...]:
    """One integration-by-parts step on variable p (see module docstring).

    Requires index p to carry exactly one factor, with shift 0 and exponent
    >= 2.  Factors at indices < p do not involve v_p and ride along; every
    factor at an index > p contributes one derivative term.  Returns
    (coefficient, term) pairs whose sum is t: the boundary term
    (shift-absorbed) followed by the derivative terms.
    """
    s = t.depth
    if not 1 <= p <= s:
        raise RewriteError(f"no variable {p} in a depth-{s} term")
    at_p = [(i, c, a) for i, c, a in t.factors if i == p]
    if len(at_p) != 1:
        raise RewriteError(f"index {p} must carry exactly one factor, has {len(at_p)}")
    _, shift_p, a_p = at_p[0]
    if shift_p != 0:
        raise RewriteError(f"factor at index {p} must have shift 0, has {shift_p}")
    if a_p < 2:
        raise RewriteError(f"factor at index {p} needs exponent >= 2, has {a_p}")
    m_p = t.bounds[p - 1]
    scale = Fraction(1, a_p - 1)

    boundary_factors: list[tuple[int, Fraction, int]] = []
    for i, c, a in t.factors:
        if i < p:
            boundary_factors.append((i, c, a))
        elif i > p:
            boundary_factors.append((i - 1, c + m_p, a))
    boundary_coeff = scale
    if p == 1:
        boundary_coeff *= m_p ** (1 - a_p)
    else:
        boundary_factors.append((p - 1, m_p, a_p - 1))
    boundary_bounds = t.bounds[: p - 1] + t.bounds[p:]
    boundary = absorb_shifts(GenTerm(boundary_bounds, boundary_factors))

    derivatives = []
    base = [(i, c, a) for i, c, a in t.factors if i != p]
    for j, (i, c, a) in enumerate(base):
        if i <= p:
            continue
        new_factors = list(base)
        new_factors[j] = (i, c, a + 1)
        new_factors.append((p, Fraction(0), a_p - 1))
        derivatives.append((scale * -a, GenTerm(t.bounds, new_factors)))
    return ((boundary_coeff, boundary), *derivatives)


def ibp_step(t: GenTerm) -> tuple[tuple[Fraction, GenTerm], ...]:
    """Integration by parts on the first variable.

    Precondition: the first variable carries a single shift-0 factor with
    exponent a_1 >= 2.  Returns (coefficient, term) pairs whose sum is t:
    the boundary term (bound m_1 merged into its successor after shift
    absorption, coefficient m_1^(1-a_1)/(a_1-1)) plus one derivative term
    per remaining factor (exponent a_1 - 1 at index 1, a_j + 1 at factor j,
    coefficient -a_j/(a_1-1)).
    """
    return _ibp_at(t, 1)


def partial_fractions(
    factors: Sequence[tuple[Fraction | int, int]],
) -> tuple[tuple[Fraction, int, Fraction], ...]:
    """Exact expansion of prod 1/(u+c_i)^{a_i} into sum beta/(u+c)^e pieces.

    Repeated shifts are merged (exponents added) first.  Returns
    (shift, exponent, coefficient) triples sorted by shift then exponent.
    """
    merged: dict[Fraction, int] = {}
    for c, a in factors:
        c = Fraction(c)
        a = int(a)
        if a < 1:
            raise DomainError(f"exponents must be >= 1, got {a}")
        merged[c] = merged.get(c, 0) + a
    if not merged:
        raise DomainError("need at least one factor")
    if len(merged) == 1:
        ((c, a),) = merged.items()
        return ((c, a, Fraction(1)),)

    out: list[tuple[Fraction, int, Fraction]] = []
    for c_i, a_i in merged.items():
        # Coefficients at shift c_i come from the Taylor expansion, in
        # t = u + c_i, of prod_{j != i} (t + (c_j - c_i))^(-a_j) up to t^(a_i-1).
        series = [Fraction(0)] * a_i
        series[0] = Fraction(1)
        for c_j, a_j in merged.items():
            if c_j == c_i:
                continue
            d = c_j - c_i
            expand = [
                Fraction((-1) ** n * math.comb(a_j + n - 1, n), 1) / d ** (a_j + n)
                for n in range(a_i)
            ]
            series = [
                sum(series[k] * expand[n - k] for k in range(n + 1)) for n in range(a_i)
            ]
        for e in range(1, a_i + 1):
            beta = series[a_i - e]
            if beta:
                out.append((c_i, e, beta))
    return tuple(sorted(out))


def integrate_tail(
    pieces: Sequence[tuple[Fraction | int, int, Fraction | int]], m: Fraction | int
) -> SymbolicConstant:
    """Exact integral over [m, oo) of sum beta/(u+c)^e.

    Exponent-1 coefficients must cancel exactly (otherwise the tail
    diverges); their combined contribution is -sum beta log(m+c), stored
    factored over primes.  Exponents >= 2 integrate to rationals
    beta (m+c)^(1-e)/(e-1).
    """
    (m,) = positive_bounds((m,))
    rational = Fraction(0)
    logs: list[tuple[int, Fraction]] = []
    residue = Fraction(0)
    for c, e, beta in pieces:
        c = Fraction(c)
        beta = Fraction(beta)
        e = int(e)
        if e == 1:
            residue += beta
            logs.extend((p, -beta * mult) for p, mult in _factored_log(m + c))
        else:
            rational += beta * (m + c) ** (1 - e) / (e - 1)
    if residue != 0:
        raise DivergenceError(
            f"exponent-1 coefficients sum to {residue}, not 0; the tail integral diverges"
        )
    return SymbolicConstant(rational, logs)


def depth_embedding(c: Composition) -> tuple[Composition, Composition]:
    """The exact identity zeta(k_1..k_r) = zeta(..., k_r - 1, 2) + zeta(..., k_r, 2).

    Both right-hand targets are admissible, one depth higher.  c itself
    must be admissible (compositions.admissible_target).
    """
    k = admissible_target(c, c.depth).parts
    return (
        Composition(k[:-1] + (k[-1] - 1, 2)),
        Composition(k + (2,)),
    )


def basis_ids(depth: int) -> Iterator[tuple[int, ...]]:
    """All 2^(depth-1) bound tuples (m_1,...,m_s), sum m_i = depth, that can
    label a generator zeta_{m_1..m_s}(1,..,1,2) at this depth."""
    return _parts_of(depth)


def depth2_closed_form(m1: Fraction | int, m2: Fraction | int) -> SymbolicConstant:
    """zeta_{m1,m2}(1,2) = (1/m2) log((m1+m2)/m1), factored over primes."""
    m1, m2 = positive_bounds((m1, m2))
    return SymbolicConstant(0, [(p, Fraction(mult, 1) / m2) for p, mult in _factored_log((m1 + m2) / m1)])


# The term memo: the value of each finished term, keyed by the term, for
# every reduction in the process.  A call that succeeds merges its terms in;
# a merge past _MAX_TERMS empties it first.
_MAX_TERMS = 1 << 14
_TERMS: dict[GenTerm, SymbolicConstant] = {}
_reduce_lock = threading.Lock()


def clear_caches() -> None:
    """Empty the term memo, so that the next reduction starts cold and its
    step budget counts every term it needs, not only the ones not memoized."""
    with _reduce_lock:
        _TERMS.clear()


def _split_multi_factor(t: GenTerm) -> tuple[list[tuple[Fraction, GenTerm]], SymbolicConstant]:
    """Resolve the unique index of t carrying two or more factors.

    Inner indices split by plain partial fractions (every piece converges on
    its own).  If the multi-factor index is the last one, exponent-1 pieces
    are pairwise combined into one-variable-longer all-ones-then-2 terms as
    described in the module docstring.  Depth-1 terms integrate out exactly.
    Returns ((coefficient, term) pairs to keep rewriting, immediately
    resolved constant part), whose sum is t.
    """
    s = t.depth
    multi = [i for i in range(1, s + 1) if sum(1 for f in t.factors if f[0] == i) > 1]
    if len(multi) != 1:
        raise RewriteError(f"expected exactly one multi-factor index, found {multi}")
    q_idx = multi[0]
    group = [(c, a) for i, c, a in t.factors if i == q_idx]
    rest = [f for f in t.factors if f[0] != q_idx]
    pieces = partial_fractions(group)

    if s == 1:
        return [], integrate_tail(pieces, t.bounds[0])

    # Exponent >= 2 pieces, and every piece at an inner index, stand alone;
    # at the last index exponent-1 pieces would diverge individually and
    # telescope into paired differences instead.
    out = [
        (beta, absorb_shifts(GenTerm(t.bounds, rest + [(q_idx, c, e)])))
        for c, e, beta in pieces
        if q_idx < s or e >= 2
    ]
    if q_idx < s:
        return out, SymbolicConstant()
    singles = sorted((c, beta) for c, e, beta in pieces if e == 1)
    if singles:
        if sum(beta for _, beta in singles) != 0:
            raise RewriteError("unpaired exponent-1 pieces at the last index")
        running = Fraction(0)
        for (c_lo, beta), (c_hi, _) in zip(singles, singles[1:]):
            running += beta
            if running == 0:
                continue
            # 1/((w+c_lo)(w+c_hi)) = int_{c_hi-c_lo}^oo (w + c_lo + v)^(-2) dv
            gap = c_hi - c_lo
            paired = GenTerm(t.bounds + (gap,), rest + [(q_idx, c_lo, 1), (q_idx + 1, c_lo, 2)])
            out.append((running * gap, absorb_shifts(paired)))
    return out, SymbolicConstant()


def _rewrite(t: GenTerm) -> tuple[Sequence[tuple[Fraction, GenTerm]], SymbolicConstant]:
    """One rewrite of t: ((coefficient, term) pairs still to reduce, constant
    resolved now), whose sum is t.

    Terms that are already rationals, depth-1 powers or basis generators
    resolve completely; otherwise a multi-factor index is split, or the
    leftmost exponent >= 2 is integrated by parts.
    """
    s = t.depth
    if s == 0:
        return (), SymbolicConstant(1)
    exps = t.pure_exponents()
    if exps is None:
        return _split_multi_factor(t)
    if s == 1:
        k = exps[0]
        if k < 2:
            raise RewriteError(f"divergent depth-1 term with exponent {k}")
        return (), SymbolicConstant(t.bounds[0] ** (1 - k) / (k - 1))
    if s >= 3 and exps == (1,) * (s - 1) + (2,):
        return (), SymbolicConstant(0, (), [(t.bounds, 1)])
    p = next(i for i, k in enumerate(exps, start=1) if k >= 2)
    return _ibp_at(t, p), SymbolicConstant()


def reduce_to_basis(
    target: ShiftedCMZV | Composition | Sequence[int],
    *,
    step_budget: int = 10_000,
    depth_cap: int = 6,
) -> SymbolicConstant:
    """Exact value of an admissible iterated tail integral in the graded basis.

    target is a ShiftedCMZV, or a composition or tuple of parts for unit
    bounds; compositions.admissible_target checks it, as eval_numeric does
    (DivergenceError, CapacityError).  Rewrites by integration by parts at
    the leftmost exponent >= 2 until every term is rational, a prime log,
    or an all-ones-then-2 generator of depth >= 3.  Like terms are merged:
    each distinct term is rewritten once, and its value, kept in the term
    memo (see clear_caches), is reused by every rewrite of this or a later
    call that produces it, scaled by the coefficient that rewrite gives it.
    The step budget bounds the distinct terms this call rewrites; a memo
    hit costs none.
    """
    target = admissible_target(target, depth_cap)
    initial = GenTerm.of(target)

    # Post-order over the DAG of distinct terms.  A stack entry is
    # [term, rewrite]; on the first visit the term is rewritten and the
    # terms it produced are pushed above it, so by the second visit every
    # one of them has a value.  A term produced twice is rewritten once: its
    # second entry finds the value in `values` or in the memo (one dict read
    # is atomic, so no lock), and memo hits are copied into `values`, where
    # no concurrent clear can reach them.  A rewrite that reproduced an
    # unfinished term would rewrite it again, so the budget stops any cycle.
    values: dict[GenTerm, SymbolicConstant] = {}
    fresh: list[tuple[GenTerm, SymbolicConstant]] = []
    rewrites = 0
    stack = [[initial, None]]
    while stack:
        entry = stack[-1]
        t, node = entry
        if node is None:
            hit = values.get(t) or _TERMS.get(t)
            if hit is not None:
                values[t] = hit
                stack.pop()
                continue
            rewrites += 1
            if rewrites > step_budget:
                raise CapacityError(f"step budget {step_budget} exhausted reducing {target.exponents}")
            kept, resolved = entry[1] = _rewrite(t)
            if kept:
                stack.extend([u, None] for _, u in kept)
                continue
        stack.pop()
        kept, resolved = entry[1]
        if kept:
            scaled = [(q, values[u]) for q, u in kept]
            resolved = SymbolicConstant(
                resolved.rational + sum(q * sc.rational for q, sc in scaled),
                [*resolved.logs, *((p, q * x) for q, sc in scaled for p, x in sc.logs)],
                [*resolved.basis, *((ids, q * x) for q, sc in scaled for ids, x in sc.basis)],
            )
        values[t] = resolved
        fresh.append((t, resolved))

    # only the terms rewritten here are merged: hashing a key of Fractions
    # costs more than the rest of a memo hit
    with _reduce_lock:
        if len(_TERMS) + len(fresh) > _MAX_TERMS:
            _TERMS.clear()
        if len(fresh) <= _MAX_TERMS:
            _TERMS.update(fresh)
    return values[initial]

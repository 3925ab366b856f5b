"""Numeric evaluation of iterated tail integrals by a tensor double-exponential rule.

One rule, `_tensor`, computes every integral of the package.  It integrates
over every variable at once with the tensor trapezoidal rule in the
variables s of a double-exponential substitution (Takahasi & Mori 1974;
Bailey, Jeyabalan & Li 2005).  The integrands are analytic inside their
domains and singular only at the ends, so the rule converges
double-exponentially in the step h.  Three integral forms feed it, each as a
`_Form`:

  * the semi-infinite form.  The depth-r integral over prod_i [m_i, oo) of
    1 / (x_1^{k_1} (x_1+x_2)^{k_2} ... (x_1+...+x_r)^{k_r}) integrates the
    innermost variable analytically,
        int_{m_r}^oo (T + x_r)^{-k_r} dx_r = (T + m_r)^(1-k_r) / (k_r - 1),
    and maps each other half-line by exp-sinh, x_j = m_j + sigma exp(pi sinh s),
    with the Jacobian taken from the same exponential, so nothing is computed
    as 1 - t.  The scale sigma follows the state; the integrand is formed in
    logarithms, so bounds from 1e-300 to 1e300 neither overflow nor lose the
    scale (`_semi_infinite_form`);
  * the unit-cube form of zeta(1, ..., 1, 2), whose integrand
    1 / (1 + y_1 + y_1 y_2 + ...) lives on (0, 1)^(r-1).  The innermost y is
    integrated in closed form and each other y maps by tanh-sinh,
    y = 1 / (1 + exp(-pi sinh s)) (`_unit_cube_form`);
  * a caller's one-dimensional integrand over [lower, oo), mapped by
    exp-sinh, x = lower + exp(pi sinh s) (`integrate_semi_infinite`).

The rule.  h halves from 1/2 down to 2^-11.  A level sums the integrand over
the grid s = n h inside per-dimension node ranges.  It walks the outer
dimensions in chunks of node prefixes and contracts the last one in blocks,
so no temporary array exceeds 2^15 elements; a prefix whose weight times an
analytic bound on the rest of the integral is below tol / (8 * prefixes) is
dropped and its bound counted.  Each range starts at |s| <= 3, grows by half
a unit (up to |s| <= 7) while an end's tail exceeds tol / (16 * dims), and
sheds end nodes that lie far below it.

The error estimate of the value I_h is
    |I_h - I_2h| + tails + dropped + 1e-13 |I_h|:
the tails bound the truncated nodes at both ends of every dimension from the
marginal sum at the end node and its per-node decay over the last half unit
of s (a geometric series; the true decay is faster), and the last term
allows for rounding through logarithms of size up to about 700.  The rule
stops at the first level whose estimate is <= tol.  `evaluations` counts
integrand points over all levels, first-level regrowth included.  A call
that would pass _MAX_POINTS points, reaches the finest step, or finds its
rounding allowance alone above tol returns converged=False with the
estimate it has.  Results that miss their tolerance are flagged, never
silently truncated; a sum that is not finite raises DomainError.  The two
zeta forms share one memo.
"""

from __future__ import annotations

import math
import sys
import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

import numpy as np

from .compositions import Composition, is_admissible
from .errors import CapacityError, DivergenceError, DomainError

@dataclass(frozen=True)
class NumericResult:
    """Value with a conservative absolute error estimate and work counters."""

    value: float
    error_estimate: float
    evaluations: int
    converged: bool

    def to_json(self) -> dict:
        return {
            "value": self.value,
            "error_estimate": self.error_estimate,
            "evaluations": self.evaluations,
            "converged": self.converged,
        }


@dataclass(frozen=True)
class ShiftedCMZV:
    """An iterated tail integral with per-variable lower bounds.

    bounds are positive rationals (all 1 for the standard value); exponents
    form a Composition of the same length.
    """

    bounds: tuple[Fraction, ...]
    exponents: Composition

    def __init__(self, bounds: Sequence[Fraction | int], exponents: Composition | Sequence[int]):
        if not isinstance(exponents, Composition):
            exponents = Composition(exponents)
        bt = tuple(Fraction(b) for b in bounds)
        if len(bt) != exponents.depth:
            raise DomainError(
                f"{len(bt)} bounds for depth-{exponents.depth} exponents"
            )
        if any(b <= 0 for b in bt):
            raise DomainError(f"lower bounds must be positive, got {bt}")
        object.__setattr__(self, "bounds", bt)
        object.__setattr__(self, "exponents", exponents)

    @classmethod
    def standard(cls, c: Composition | Sequence[int]) -> "ShiftedCMZV":
        if not isinstance(c, Composition):
            c = Composition(c)
        return cls((Fraction(1),) * c.depth, c)

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


# The tensor double-exponential rule (module docstring).
_CHUNK = 1 << 12  # points per block; a longer last dimension is one block
_MAX_POINTS = 1 << 28  # integrand points per call; a call that would pass it stops
_MAX_LEVEL = 11  # finest step h = 2^-11, so one dimension has under 2^15 nodes
_S_START, _S_STEP, _S_CAP = 3.0, 0.5, 7.0  # node ranges in s: start, growth, |s| cap
_ROUND = 1e-13  # relative rounding allowance of a value


@dataclass(frozen=True)
class _Form:
    """An integrand of the tensor rule, built level by level from a state.

    state holds the values before the first level.  nodes(s) maps the nodes
    of one dimension to a tuple of per-node arrays; expand(j, state, nodes)
    is the state after level j at those nodes; leaf(state) is the integrand
    after the last level, Jacobians included.  Both work elementwise and
    broadcast.  bound(state), before the last level, bounds the accumulated
    weight times the integral over the remaining variables.
    """

    state: tuple
    nodes: Callable
    expand: Callable
    leaf: Callable
    bound: Callable


def _sweep(form: _Form, dims: int, h: float, lo: np.ndarray, hi: np.ndarray, drop_tol: float):
    """One level of the tensor rule over the nodes s = n h, lo <= n <= hi.

    The outer dims - 1 dimensions are walked in chunks of flattened node
    prefixes; a prefix whose bound is below drop_tol / (number of prefixes)
    is dropped and its bound kept.  The last dimension is contracted in
    blocks of at most _CHUNK points.  Returns (sum, the marginal sums of each
    dimension at each of its nodes, dropped bound, points evaluated), the
    sums scaled by h^dims.
    """
    sizes = [int(n) for n in hi - lo + 1]
    tables = [form.nodes(np.arange(a, b + 1) * h) for a, b in zip(lo, hi)]
    outer = sizes[:-1]
    n_outer = math.prod(outer)
    threshold = drop_tol / n_outer
    marginals = [np.zeros(n) for n in sizes]
    total = dropped = 0.0
    points = 0
    block = max(1, _CHUNK // sizes[-1])
    for start in range(0, n_outer, _CHUNK):
        flat = np.arange(start, min(start + _CHUNK, n_outer))
        idx = np.unravel_index(flat, outer) if outer else ()
        state = tuple(np.full(flat.size, v) for v in form.state)
        for j, i in enumerate(idx):
            state = form.expand(j, state, tuple(col[i] for col in tables[j]))
        if idx:
            bound = form.bound(state) * h ** (dims - 1)
            keep = bound >= threshold
            dropped += float(bound[~keep].sum())
            state = tuple(a[keep] for a in state)
            idx = tuple(i[keep] for i in idx)
        for p in range(0, state[0].size, block):
            rows_state = tuple(a[p : p + block, None] for a in state)
            f = form.leaf(form.expand(dims - 1, rows_state, tables[-1]))
            points += f.size
            rows = f.sum(axis=1)
            total += float(rows.sum())
            marginals[-1] += f.sum(axis=0)
            for j, i in enumerate(idx):
                marginals[j] += np.bincount(i[p : p + block], rows, minlength=sizes[j])
    scale = h**dims
    return total * scale, [m * scale for m in marginals], dropped, points


def _end(m: np.ndarray, h: float, share: float, room: int) -> tuple[float | None, int]:
    """Tail bound beyond the last node of m, the marginal sums of one
    dimension ordered towards one end, and how many nodes to add (> 0) or
    drop (< 0) at that end; room is how many may still be added.

    Over the last half unit of s (k nodes) the end sum fell by a per-node
    ratio rho; the decay is double-exponential, so the omitted nodes sum to
    at most last * rho / (1 - rho).  A tail that does not fall is unbounded
    (None).  Only nodes of the falling run are dropped, while they and the
    tail stay below share / 16, keeping k falling nodes behind the new end.
    """
    k = min(len(m) - 1, max(1, round(0.5 / h)))
    last, back = float(m[-1]), float(m[-1 - k])
    if last == 0.0:
        tail = 0.0
    elif back > last:
        rho = (last / back) ** (1.0 / k)
        tail = last * rho / (1.0 - rho)
    else:
        tail = None
    if tail is None or tail > share:
        return tail, min(room, round(_S_STEP / h))
    rising = np.flatnonzero(m[:-1] <= m[1:])  # m[i] <= m[i + 1]: not falling there
    run = len(m) - 1 - (rising[-1] + 1 if rising.size else 0)  # falling steps at the end
    acc = tail + np.cumsum(m[::-1])
    n = min(int(np.searchsorted(acc, share / 16.0, side="right")), run - k)
    return (float(acc[n - 1]) if n > 0 else tail), -max(n, 0)


def _tensor(form: _Form, dims: int, tol: float) -> tuple[float, float, int, bool]:
    """(value, error estimate, evaluations, converged) of the integral of
    form over R^dims by the tensor double-exponential rule."""
    if dims == 0:
        value = float(form.leaf(tuple(np.array(v) for v in form.state)))
        return value, _ROUND * abs(value), 1, True
    lo = np.full(dims, -round(2 * _S_START))  # node indices at h = 1/2
    hi = -lo
    share = tol / (16 * dims)  # per end of each dimension; all ends: tol/8
    evaluations = 0
    prev = value = error = 0.0
    converged = False
    for level in range(1, _MAX_LEVEL + 1):
        h = 0.5**level
        cap = round(_S_CAP / h)
        if level > 1:
            lo, hi = 2 * lo, 2 * hi
            if evaluations + points * 2**dims > _MAX_POINTS:
                break
        while True:
            total, marginals, dropped, points = _sweep(form, dims, h, lo, hi, tol / 8)
            evaluations += points
            if not math.isfinite(total):
                raise DomainError("the value exceeds the float range of the numeric route")
            tails = 0.0
            moves = np.zeros((2, dims), dtype=int)  # nodes to add below lo and above hi
            unbounded = np.zeros((2, dims), dtype=bool)
            for j, m in enumerate(marginals):
                for end, ms, room in ((0, m[::-1], cap + lo[j]), (1, m, cap - hi[j])):
                    tail, moves[end, j] = _end(ms, h, share, int(room))
                    unbounded[end, j] = tail is None
                    tails += abs(total) if tail is None else tail
            # The first level grows its ranges until every tail is within
            # its share; later levels only until every tail is bounded.
            grow = np.where(unbounded | (level == 1), np.maximum(moves, 0), 0)
            if not grow.any():
                break
            lo, hi = lo - grow[0], hi + grow[1]
        lo, hi = lo - moves[0], hi + moves[1]
        if level == 1:
            value, error = total, abs(total) + tails + dropped
        else:
            value = total
            rule = abs(total - prev) + tails + dropped
            error = rule + _ROUND * abs(total)
            if error <= tol:
                converged = True
                break
            if rule <= _ROUND * abs(total):
                break  # rounding alone misses tol; a finer step cannot help
        prev = total
    return value, error, evaluations, converged


def default_tolerance(depth: int) -> float:
    """1e-8 through depth 3, 1e-5 beyond (matching the documented defaults)."""
    return 1e-8 if depth <= 3 else 1e-5


# One memo for both routes, keyed (bounds, parts) or ("cube", r); each entry
# keeps the tightest tolerance computed so far and its result.
_cache: dict[tuple, tuple[float, NumericResult]] = {}
_cache_lock = threading.Lock()


def clear_caches() -> None:
    """Drop memoized numeric results (mainly for benchmarking in tests)."""
    with _cache_lock:
        _cache.clear()


def _memoized(key: tuple, tol: float, form: _Form, dims: int) -> NumericResult:
    """The memoized result for key if it was computed at tol or tighter,
    else a fresh run of the tensor rule, stored if tol is the tightest seen."""
    with _cache_lock:
        hit = _cache.get(key)
    if hit is not None and hit[0] <= tol:
        return hit[1]
    result = NumericResult(*_tensor(form, dims, tol))
    with _cache_lock:
        prev = _cache.get(key)
        if prev is None or tol < prev[0]:
            _cache[key] = (tol, result)
    return result


def _as_target(target: ShiftedCMZV | Composition | Sequence[int]) -> ShiftedCMZV:
    if isinstance(target, ShiftedCMZV):
        return target
    return ShiftedCMZV.standard(target)


def _semi_infinite_form(t: ShiftedCMZV) -> _Form:
    """The depth-r tail integral as a _Form over r - 1 exp-sinh dimensions.

    Level j integrates x_j from the state (log c, log W): c = x_1 + ... +
    x_{j-1} + m_j is the least value of u = x_1 + ... + x_j, and W the
    weight so far.  With rho^2 = 1 + m_{j+1}/c and E = exp(pi sinh s), the
    map x_j = m_j + c rho E gives u = c (1 + rho E), and the next state is
    c' = u + m_{j+1} = c rho (rho + E): x_j spans the scales c and
    c + m_{j+1} symmetrically in log E.  The level's weight is
    u^(-k_j) dx_j/ds = c^(1-k_j) (1 + rho E)^(-k_j) rho E pi cosh s.  The
    leaf is the innermost integral (u + m_r)^(1-k_r) / (k_r - 1) = c'^(1-k_r)
    / (k_r - 1).  Everything before the final exp is a logarithm.
    """
    k = t.exponents.parts
    lm = [math.log(b.numerator) - math.log(b.denominator) for b in t.bounds]
    lead = 1.0 / (k[-1] - 1)
    # int_c^oo v^(-k_{r-1}) v^(1-k_r) dv / (k_r - 1), dropping m_r: the bound
    # on the last two integrals from the state before the last level.
    bound_power = 2 - k[-2] - k[-1]
    bound_scale = lead / (k[-2] + k[-1] - 2)

    def log1pexp(x: np.ndarray) -> np.ndarray:  # log(1 + exp(x)) without overflow
        out = np.exp(-np.abs(x))
        np.log1p(out, out=out)
        out += np.maximum(x, 0.0)
        return out

    def nodes(s: np.ndarray) -> tuple:
        return np.pi * np.sinh(s), np.log(np.pi * np.cosh(s))

    def expand(j: int, state: tuple, node: tuple) -> tuple:
        lc, lw = state
        ps, lj = node
        lrho = 0.5 * log1pexp(lm[j + 1] - lc)
        lt = lrho + ps  # log(rho E)
        lw = (lw + (1 - k[j]) * lc) + (lt + lj) - k[j] * log1pexp(lt)
        lc = (lc + 2.0 * lrho) + log1pexp(ps - lrho)
        return lc, lw

    def leaf(state: tuple) -> np.ndarray:
        lc, lw = state
        with np.errstate(over="ignore"):
            return np.exp(lw + (1 - k[-1]) * lc) * lead

    def bound(state: tuple) -> np.ndarray:
        lc, lw = state
        with np.errstate(over="ignore"):
            return np.exp(lw + bound_power * lc) * bound_scale

    return _Form((lm[0], 0.0), nodes, expand, leaf, bound)


def _unit_cube_form() -> _Form:
    """The all-ones unit-cube integrand as a _Form over tanh-sinh dimensions.

    Writing the denominator as 1 + y_1 (1 + y_2 (1 + ...)) gives the level
    recursion A' = A + B y, B' = B y from A = B = 1, with the weight W
    multiplied by dy/ds = pi cosh s y (1 - y).  The leaf integrates the last
    y in closed form, int_0^1 dy / (A + B y) = log1p(B/A) / B.  Every
    integrand value is at most W / A.
    """

    def nodes(s: np.ndarray) -> tuple:
        ps = np.pi * np.sinh(s)
        e = np.exp(-np.abs(ps))
        near_end = e / (1.0 + e)  # the smaller of y and 1 - y
        far_end = 1.0 / (1.0 + e)
        y = np.where(ps >= 0.0, far_end, near_end)
        return y, np.pi * np.cosh(s) * near_end * far_end

    def expand(j: int, state: tuple, node: tuple) -> tuple:
        a, b, w = state
        y, jac = node
        by = b * y
        return a + by, by, w * jac

    def leaf(state: tuple) -> np.ndarray:
        a, b, w = state
        x = b / a
        ratio = np.divide(np.log1p(x), x, out=np.ones_like(x), where=x > 0.0)
        return w * ratio / a

    def bound(state: tuple) -> np.ndarray:
        a, b, w = state
        return w / a

    return _Form((1.0, 1.0, 1.0), nodes, expand, leaf, bound)


def eval_numeric(
    target: ShiftedCMZV | Composition | Sequence[int],
    tol: float | None = None,
    depth_cap: int = 6,
) -> NumericResult:
    """Numeric value of an admissible iterated tail integral.

    Depth 1 is returned exactly (m^(1-k)/(k-1)); deeper targets run the
    tensor rule on the semi-infinite form described in the module
    docstring.  Results are memoized per (bounds, exponents) at the tightest
    tolerance seen.
    """
    t = _as_target(target)
    if not is_admissible(t.exponents):
        raise DivergenceError(f"{t.exponents} is non-admissible (last part < 2); the integral diverges")
    if t.depth > depth_cap:
        raise CapacityError(f"depth {t.depth} exceeds the configured cap {depth_cap}")
    if tol is None:
        tol = default_tolerance(t.depth)
    if not (tol > 0.0):
        raise DomainError(f"tolerance must be positive, got {tol}")

    k = t.exponents.parts
    if t.depth == 1:
        exact = t.bounds[0] ** (1 - k[0]) / (k[0] - 1)
        return NumericResult(float(exact), 0.0, 0, True)
    if any(b > sys.float_info.max for b in t.bounds):
        raise DomainError("a lower bound exceeds the float range of the numeric route")
    return _memoized((t.bounds, k), tol, _semi_infinite_form(t), t.depth - 1)


def eval_unit_cube_ones(r: int, tol: float | None = None, depth_cap: int = 6) -> NumericResult:
    """Unit-cube form of the all-ones-then-2 value at depth r >= 2:

        zeta_C(1, ..., 1, 2)  (r-1 ones)
            = int_{[0,1]^{r-1}} dy / (1 + y_1 + y_1 y_2 + ... + y_1...y_{r-1}).

    An independent route from eval_numeric: bounded domain, no
    compactification, different integrand shape.
    """
    if not (isinstance(r, int) and r >= 2):
        raise DomainError(f"need integer depth r >= 2, got {r!r}")
    if r > depth_cap:
        raise CapacityError(f"depth {r} exceeds the configured cap {depth_cap}")
    if tol is None:
        tol = default_tolerance(r)
    if not (tol > 0.0):
        raise DomainError(f"tolerance must be positive, got {tol}")
    return _memoized(("cube", r), tol, _unit_cube_form(), r - 2)


def integrate_semi_infinite(
    f: Callable[[np.ndarray], np.ndarray], lower: float, tol: float = 1e-10
) -> NumericResult:
    """Integral of a vectorized integrand over [lower, oo), for
    one-dimensional cross-checks against closed forms.

    The tensor rule of the module docstring runs in one dimension on the
    exp-sinh map x = lower + E, E = exp(pi sinh s), whose Jacobian is
    pi cosh s * E; f receives flat 1-D arrays of x.  The estimate is the
    rule's, |I_h - I_2h| + end tails + 1e-13 |I_h|, and a call stops
    unconverged at the rule's cap of _MAX_POINTS evaluations.  An integrand
    that decays so slowly that the node range grows past s ~ 6.1, where E
    overflows, raises DomainError rather than counting those nodes as 0.
    """
    if not (tol > 0.0):
        raise DomainError(f"tolerance must be positive, got {tol}")
    return NumericResult(*_adaptive_unit(f, float(lower), tol))


def _adaptive_unit(f: Callable[[np.ndarray], np.ndarray], lower: float, tol: float) -> tuple:
    """The 1-D run of the tensor rule for integrate_semi_infinite.

    perfbench/worker.py traces this name as the 1-D rule layer
    (quad.rule_calls, quad.rule_self_s), so the run keeps it until the
    benchmark traces the rule's level sweep instead.
    """

    def nodes(s: np.ndarray) -> tuple:
        with np.errstate(over="ignore"):
            e = np.exp(np.pi * np.sinh(s))
        if not np.isfinite(e).all():
            raise DomainError(
                "the exp-sinh map overflowed before the tail was bounded; "
                "the integrand decays too slowly"
            )
        return e, np.pi * np.cosh(s) * e

    def expand(j: int, state: tuple, node: tuple) -> tuple:
        e, jac = node
        return state[0] + e, jac

    def leaf(state: tuple) -> np.ndarray:
        x, jac = state
        fx = f(x.ravel()).reshape(x.shape)
        with np.errstate(invalid="ignore"):
            return fx * jac

    form = _Form((lower,), nodes, expand, leaf, None)  # bound: unread at dims = 1
    return _tensor(form, 1, tol)


def eval_basis_generator(
    ids: Sequence[Fraction | int], tol: float | None = None, depth_cap: int = 6
) -> NumericResult:
    """Numeric value of the basis generator B(ids) = zeta_{ids}(1, ..., 1, 2),
    the tail integral with lower bounds ids and exponents (1, ..., 1, 2)."""
    exps = Composition((1,) * (len(ids) - 1) + (2,))
    return eval_numeric(ShiftedCMZV(ids, exps), tol=tol, depth_cap=depth_cap)


def term_tolerance(tol: float, coefficients: Iterable[Fraction | int]) -> float:
    """Per-term tolerance tol / (2 * max(sum |q|, 1)) for a sum of terms with
    rational coefficients q: if every term is within it, the sum is within
    tol/2."""
    mass = sum(abs(q) for q in coefficients)
    return tol / (2.0 * float(max(mass, 1)))


def verify_identity(
    lhs: Sequence[tuple[ShiftedCMZV | Composition | Sequence[int], Fraction | int]],
    rhs: Sequence[tuple[ShiftedCMZV | Composition | Sequence[int], Fraction | int]] = (),
    rhs_constant: Fraction | int = 0,
    tol: float | None = None,
    depth_cap: int = 6,
) -> dict:
    """Numerically check sum(lhs) == sum(rhs) + rhs_constant.

    Each side is a list of (target, rational coefficient) terms; terms with
    coefficient 0 are never evaluated.  The tolerance is split across terms
    by term_tolerance, so the reported difference is comparable against tol
    directly.
    """
    lhs_terms = [(_as_target(t), Fraction(q)) for t, q in lhs]
    rhs_terms = [(_as_target(t), Fraction(q)) for t, q in rhs]
    if tol is None:
        max_depth = max(t.depth for t, _ in lhs_terms + rhs_terms)
        tol = default_tolerance(max_depth)
    per_term = term_tolerance(tol, (q for _, q in lhs_terms + rhs_terms))

    def side(terms: list[tuple[ShiftedCMZV, Fraction]]) -> tuple[float, bool, int]:
        total = 0.0
        ok = True
        evals = 0
        for t, q in terms:
            if q == 0:
                continue
            res = eval_numeric(t, per_term, depth_cap=depth_cap)
            total += float(q) * res.value
            ok = ok and res.converged
            evals += res.evaluations
        return total, ok, evals

    lhs_value, lhs_ok, lhs_evals = side(lhs_terms)
    rhs_value, rhs_ok, rhs_evals = side(rhs_terms)
    rhs_value += float(Fraction(rhs_constant))
    difference = abs(lhs_value - rhs_value)
    return {
        "lhs_value": lhs_value,
        "rhs_value": rhs_value,
        "difference": difference,
        "tolerance": tol,
        "passed": bool(difference <= tol),
        "converged": bool(lhs_ok and rhs_ok),
        "evaluations": lhs_evals + rhs_evals,
    }

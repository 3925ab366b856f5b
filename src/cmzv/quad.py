"""Numeric evaluation of iterated tail integrals by a tensor double-exponential rule.

One rule, `_tensor`, computes every integral of the package.  It integrates
over every variable at once with the tensor trapezoidal rule in the
variables s of a double-exponential substitution (Takahasi & Mori 1974;
Bailey, Jeyabalan & Li 2005).  The integrands are analytic inside their
domains and singular only at the ends, so the rule converges
double-exponentially in the step h.  Three integral forms feed it, each as a
`_Form`:

  * the semi-infinite form of a target, compositions.ShiftedCMZV (eval_numeric
    takes it checked by compositions.admissible_target).  The depth-r
    integral over prod_i [m_i, oo) of
    1 / (x_1^{k_1} (x_1+x_2)^{k_2} ... (x_1+...+x_r)^{k_r}) integrates the
    innermost variable analytically,
        int_{m_r}^oo (T + x_r)^{-k_r} dx_r = (T + m_r)^(1-k_r) / (k_r - 1),
    and maps each other half-line by exp-sinh, x_j = m_j + sigma exp(pi sinh s),
    with the Jacobian taken from the same exponential, so nothing is computed
    as 1 - t.  The scale sigma follows the state.  The outer levels are
    formed in logarithms; the last level and the leaf share one closed form
    that takes two exps per row of the last dimension and only arithmetic
    per point.  Lower bounds from 1e-300 to 1e300 neither overflow nor lose
    the scale, and bounds outside that range raise DomainError
    (`_semi_infinite_form`);
  * the unit-cube form of zeta(1, ..., 1, 2), whose integrand
    1 / (1 + y_1 + y_1 y_2 + ...) lives on (0, 1)^(r-1).  The innermost y is
    integrated in closed form and each other y maps by tanh-sinh,
    y = 1 / (1 + exp(-pi sinh s)); the last level and the leaf share one
    log1p per point (`_unit_cube_form`);
  * a caller's one-dimensional integrand over [lower, oo), mapped by
    exp-sinh, x = lower + exp(pi sinh s) (`integrate_semi_infinite`).

The rule.  h halves from 1/2 down to 2^-11.  A level sums the integrand over
the grid s = n h inside per-dimension node ranges.  It walks the outer
dimensions in chunks of node prefixes and contracts the last one in blocks,
so no temporary array exceeds 2^15 elements; a prefix whose weight times an
analytic bound on the rest of the integral is below tol / (8 * prefixes) is
dropped and its bound counted.  Each range starts at |s| <= 3, grows by half
a unit (up to |s| <= 7) while an end's tail exceeds tol / (16 * dims), and
sheds end nodes that lie far below it.  Each map's node arrays at a step
are computed once per process, over |s| <= 7 on first use, and every sweep
at that step slices them.

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
zeta forms share one memo: a stored result serves every tolerance at or
above its error estimate if it converged, else every tolerance at or above
the one it was computed at, and a served result is converged when its
estimate meets the request.  A tolerance is a finite positive number
(check_tolerance).
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .compositions import Composition, ShiftedCMZV, admissible_target
from .errors import DomainError

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


# The tensor double-exponential rule (module docstring).
_CHUNK = 1 << 12  # points per block; a longer last dimension is one block
_MAX_POINTS = 1 << 28  # integrand points per call; a call that would pass it stops
_MAX_LEVEL = 11  # finest step h = 2^-11, so one dimension has under 2^15 nodes
_S_START, _S_STEP, _S_CAP = 3.0, 0.5, 7.0  # node ranges in s: start, growth, |s| cap
_ROUND = 1e-13  # relative rounding allowance of a value
_MIN_BOUND, _MAX_BOUND = Fraction(1, 10**300), Fraction(10**300)  # lower bounds at depth >= 2


@dataclass(frozen=True)
class _Form:
    """An integrand of the tensor rule, built level by level from a state.

    state holds the values before the first level.  nodes(level) is the
    table of per-node arrays of the form's map at step h = 2^-level, over
    the nodes s = n h with |n| <= _S_CAP / h; expand(j, state, nodes) is the
    state after level j < dims - 1 at the given nodes, elementwise;
    last(rows, nodes) integrates the last level and the closed-form leaf
    together, returning the integrand, Jacobians included, on the block of
    rows (each state array shaped (rows, 1)) times nodes.  bound(state),
    before the last level, bounds the accumulated weight times the integral
    over the remaining variables.
    """

    state: tuple
    nodes: Callable
    expand: Callable
    last: Callable
    bound: Callable


def _sweep(form: _Form, dims: int, level: int, lo: np.ndarray, hi: np.ndarray, drop_tol: float):
    """One level of the tensor rule over the nodes s = n h, lo <= n <= hi,
    h = 2^-level.

    The outer dims - 1 dimensions are walked in chunks of flattened node
    prefixes; a prefix whose bound is below drop_tol / (number of prefixes)
    is dropped and its bound kept.  The last dimension is contracted in
    blocks of at most _CHUNK points.  Returns (sum, the marginal sums of each
    dimension at each of its nodes, dropped bound, points evaluated), the
    sums scaled by h^dims.
    """
    h = 0.5**level
    table = form.nodes(level)
    cap = round(_S_CAP / h)  # the table's index of the node s = 0
    sizes = [int(n) for n in hi - lo + 1]
    tables = [tuple(col[a + cap : b + cap + 1] for col in table) for a, b in zip(lo, hi)]
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
            f = form.last(tuple(a[p : p + block, None] for a in state), tables[-1])
            points += f.size
            rows = f.sum(axis=1)
            total += float(rows.sum())
            marginals[-1] += f.sum(axis=0)
            for j, i in enumerate(idx):
                marginals[j] += np.bincount(i[p : p + block], rows, minlength=sizes[j])
    scale = h**dims
    return total * scale, [m * scale for m in marginals], dropped, points


def _end(m: list, h: float, share: float, room: int) -> tuple[float | None, int]:
    """Tail bound beyond the end node of one dimension, and how many nodes
    to add (> 0) or drop (< 0) at that end; m is the dimension's marginal
    sums from that end inward, and room is how many nodes may still be
    added.

    Over the last half unit of s (k nodes) the end sum fell by a per-node
    ratio rho; the decay is double-exponential, so the omitted nodes sum to
    at most last * rho / (1 - rho).  A tail that does not fall is unbounded
    (None).  Only nodes of the falling run are dropped, while they and the
    tail stay below share / 16, keeping k falling nodes behind the new end.
    """
    k = min(len(m) - 1, max(1, round(0.5 / h)))
    last, back = m[0], m[k]
    if last == 0.0:
        tail = 0.0
    elif back > last:
        rho = (last / back) ** (1.0 / k)
        tail = last * rho / (1.0 - rho)
    else:
        tail = None
    if tail is None or tail > share:
        return tail, min(room, round(_S_STEP / h))
    # Node n may go when the steps from the end through node n + k all fall
    # and tail + m[0] + ... + m[n] (summed from the end) stays within share / 16.
    n, summed = 0, 0.0
    if all(m[t + 1] > m[t] for t in range(k)):
        while n + k + 1 < len(m) and m[n + k + 1] > m[n + k]:
            more = summed + m[n]
            if tail + more > share / 16.0:
                break
            n, summed = n + 1, more
    return (tail + summed if n > 0 else tail), -n


def _tensor(form: _Form, dims: int, tol: float) -> tuple[float, float, int, bool]:
    """(value, error estimate, evaluations, converged) of the integral of
    form over R^dims, dims >= 1, by the tensor double-exponential rule."""
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
            total, marginals, dropped, points = _sweep(form, dims, level, lo, hi, tol / 8)
            evaluations += points
            if not math.isfinite(total):
                raise DomainError("the value exceeds the float range of the numeric route")
            tails = 0.0
            moves = np.zeros((2, dims), dtype=int)  # nodes to add below lo and above hi
            unbounded = np.zeros((2, dims), dtype=bool)
            for j, m in enumerate(marginals):
                ms = m.tolist()
                for end, ends, room in ((0, ms, cap + lo[j]), (1, ms[::-1], cap - hi[j])):
                    tail, moves[end, j] = _end(ends, h, share, int(room))
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


def check_tolerance(tol: float) -> float:
    """tol itself if it is a finite positive number; DomainError otherwise."""
    if not tol > 0.0:
        raise DomainError(f"tolerance must be positive, got {tol}")
    if tol == math.inf:
        raise DomainError(f"tolerance must be finite, got {tol}")
    return tol


def _tolerance(tol: float | None, depth: int) -> float:
    """tol, checked by check_tolerance, or the default at depth if it is None."""
    return default_tolerance(depth) if tol is None else check_tolerance(tol)


# One memo for both routes, keyed (bounds, parts) or ("cube", r).  Each
# entry holds its result and the least tolerance that result serves: its
# error estimate if it converged, else the tolerance it was computed at.
_cache: dict[tuple, tuple[float, NumericResult]] = {}
_cache_lock = threading.Lock()


def clear_caches() -> None:
    """Drop memoized numeric results (mainly for benchmarking in tests)."""
    with _cache_lock:
        _cache.clear()


def _memoized(key: tuple, tol: float, form: _Form, dims: int) -> NumericResult:
    """The stored result for key if it serves tol, else a fresh run of the
    tensor rule, which is stored if it serves more tolerances than the entry.

    A result that converged serves every tol at or above its error
    estimate, which is at most the tolerance it was computed at; one that
    did not converge serves only tolerances at or above its own.  A hit is
    converged exactly when its estimate meets tol, so the answer does not
    depend on which request came first.
    """
    with _cache_lock:
        hit = _cache.get(key)
    if hit is not None and hit[0] <= tol:
        result = hit[1]
        if not result.converged and result.error_estimate <= tol:
            result = replace(result, converged=True)
        return result
    result = NumericResult(*_tensor(form, dims, tol))
    serves = result.error_estimate if result.converged else tol
    with _cache_lock:
        prev = _cache.get(key)
        if prev is None or serves < prev[0]:
            _cache[key] = (serves, result)
    return result


def _node_table(nodes: Callable[[np.ndarray], tuple]) -> Callable[[int], tuple]:
    """A map's node arrays per level: nodes(s) over s = n h, |n| <= _S_CAP / h,
    h = 2^-level, computed on first use and kept read-only for the process."""

    @functools.cache
    def table(level: int) -> tuple:
        h = 0.5**level
        cap = round(_S_CAP / h)
        cols = nodes(np.arange(-cap, cap + 1) * h)
        for col in cols:
            col.flags.writeable = False
        return cols

    return table


@_node_table
def _exp_sinh_nodes(s: np.ndarray) -> tuple:
    """pi sinh s, log(pi cosh s), E = exp(pi sinh s), 1/E and pi cosh s.

    E overflows beyond s ~ 6.1 and 1/E below s ~ -6.1; the nodes are
    symmetric about s = 0, so 1/E at s is E at -s.
    """
    ps, pc = np.pi * np.sinh(s), np.pi * np.cosh(s)
    with np.errstate(over="ignore"):
        e = np.exp(ps)
    return ps, np.log(pc), e, e[::-1], pc


@_node_table
def _tanh_sinh_nodes(s: np.ndarray) -> tuple:
    """y = 1 / (1 + exp(-pi sinh s)) and pi cosh s (1 - y), both ends of
    (0, 1) taken from the same exponential so that neither is 1 - t."""
    ps = np.pi * np.sinh(s)
    e = np.exp(-np.abs(ps))
    near_end = e / (1.0 + e)  # the smaller of y and 1 - y
    far_end = 1.0 / (1.0 + e)
    up = ps >= 0.0
    return np.where(up, far_end, near_end), np.pi * np.cosh(s) * np.where(up, near_end, far_end)


def _semi_infinite_form(t: ShiftedCMZV) -> _Form:
    """The depth-r tail integral as a _Form over r - 1 exp-sinh dimensions.

    Level j integrates x_j from the state (log c, log W): c = x_1 + ... +
    x_{j-1} + m_j is the least value of u = x_1 + ... + x_j, and W the
    weight so far.  With rho^2 = 1 + m_{j+1}/c and E = exp(pi sinh s), the
    map x_j = m_j + c rho E gives u = c (1 + rho E), and the next state is
    c' = u + m_{j+1} = c rho (rho + E): x_j spans the scales c and
    c + m_{j+1} symmetrically in log E.  The level's weight is
    u^(-k_j) dx_j/ds = c^(1-k_j) (1 + rho E)^(-k_j) rho E pi cosh s, and
    every level but the last is formed in logarithms.

    The last level and the leaf, the innermost integral (u + m_r)^(1-k_r) /
    (k_r - 1) = c'^(1-k_r) / (k_r - 1), combine into one closed form.  With
    x = rho E, a = 1/(1 + x), g = 1/(1 + 1/x) and b = 1/(1 + 1/(rho/E)),
    the integrand is R pi cosh s g a^(k_{r-1}-1) b^(k_r-1), where the row
    scale R = W c^(1-k_{r-1}) (c + m_r)^(1-k_r) / (k_r - 1) and rho take
    two exps per row and the nodes none.  Where x, E or 1/E leaves the
    float range, a factor in [0, 1] goes to its limit, off by at most
    rho 2^-1074 + 2^-1022; bounds in [1e-300, 1e300] keep rho <= 1e300.
    The integral of a row over the last variable is at least
    R / (k_{r-1} + k_r - 2), so a row whose scale overflows raises
    DomainError.
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

    def expand(j: int, state: tuple, node: tuple) -> tuple:
        lc, lw = state
        ps, lj = node[:2]
        lrho = 0.5 * log1pexp(lm[j + 1] - lc)
        lt = lrho + ps  # log(rho E)
        lw = (lw + (1 - k[j]) * lc) + (lt + lj) - k[j] * log1pexp(lt)
        lc = (lc + 2.0 * lrho) + log1pexp(ps - lrho)
        return lc, lw

    def last(rows: tuple, node: tuple) -> np.ndarray:
        lc, lw = rows
        _, _, e, inv_e, pc = node
        lrho = 0.5 * log1pexp(lm[-1] - lc)
        lcm = lc + 2.0 * lrho  # log(c + m_r)
        with np.errstate(over="ignore"):
            scale = np.exp((lw + (1 - k[-2]) * lc) + (1 - k[-1]) * lcm) * lead
        if not np.isfinite(scale).all():
            raise DomainError("the value exceeds the float range of the numeric route")
        rho = np.exp(lrho)
        with np.errstate(over="ignore", divide="ignore"):
            x = rho * e
            a = 1.0 / (1.0 + x)
            b = 1.0 / (1.0 + 1.0 / (rho * inv_e))
            f = scale / (1.0 + 1.0 / x)  # R g
            for _ in range(k[-1] - 1):
                f *= b
            for _ in range(k[-2] - 1):
                f *= a
            f *= pc
        return f

    def bound(state: tuple) -> np.ndarray:
        lc, lw = state
        with np.errstate(over="ignore"):
            return np.exp(lw + bound_power * lc) * bound_scale

    return _Form((lm[0], 0.0), _exp_sinh_nodes, expand, last, bound)


def _unit_cube_form() -> _Form:
    """The all-ones unit-cube integrand as a _Form over tanh-sinh dimensions.

    Writing the denominator as 1 + y_1 (1 + y_2 (1 + ...)) gives the level
    recursion A' = A + B y, B' = B y from A = B = 1, with the weight W
    multiplied by dy/ds = pi cosh s y (1 - y).  The state carries
    (A, B, W/B), whose last entry is multiplied by pi cosh s (1 - y).  The
    last level and the leaf, int_0^1 dy / (A + B y) = log1p(B/A) / B, give
    the integrand (W/B) pi cosh s (1 - y) log1p(B y / (A + B y)), with one
    log1p per point.  Every integrand value is at most W / A.
    """

    def expand(j: int, state: tuple, node: tuple) -> tuple:
        a, b, r = state
        y, q = node
        by = b * y
        return a + by, by, r * q

    def last(rows: tuple, node: tuple) -> np.ndarray:
        a, b, r = rows
        y, q = node
        by = b * y
        return np.log1p(by / (a + by)) * q * r

    def bound(state: tuple) -> np.ndarray:
        a, b, r = state
        return r * b / a

    return _Form((1.0, 1.0, 1.0), _tanh_sinh_nodes, expand, last, bound)


def eval_numeric(
    target: ShiftedCMZV | Composition | Sequence[int],
    tol: float | None = None,
    depth_cap: int = 6,
) -> NumericResult:
    """Numeric value of an admissible iterated tail integral.

    target is a ShiftedCMZV, or a composition or tuple of parts for unit
    bounds; compositions.admissible_target checks it, as reduce_to_basis
    does (DivergenceError, CapacityError).  Depth 1 is returned exactly (m^(1-k)/(k-1)); deeper targets run the
    tensor rule on the semi-infinite form described in the module
    docstring, and need every lower bound in [1e-300, 1e300] (DomainError
    otherwise).  Results are memoized per (bounds, exponents): a stored
    result serves every tol at or above its error estimate if it converged,
    else at or above the tol it was computed at, and is converged when its
    estimate meets tol.
    """
    t = admissible_target(target, depth_cap)
    tol = _tolerance(tol, t.depth)

    k = t.exponents.parts
    if t.depth == 1:
        exact = t.bounds[0] ** (1 - k[0]) / (k[0] - 1)
        try:
            value = float(exact)
        except OverflowError:
            raise DomainError("the value exceeds the float range of the numeric route") from None
        return NumericResult(value, 0.0, 0, True)
    if not all(_MIN_BOUND <= b <= _MAX_BOUND for b in t.bounds):
        raise DomainError("a lower bound lies outside [1e-300, 1e300], the range of the numeric route")
    return _memoized((t.bounds, k), tol, _semi_infinite_form(t), t.depth - 1)


def eval_unit_cube_ones(r: int, tol: float | None = None, depth_cap: int = 6) -> NumericResult:
    """Unit-cube form of the all-ones-then-2 value at depth r >= 2:

        zeta_C(1, ..., 1, 2)  (r-1 ones)
            = int_{[0,1]^{r-1}} dy / (1 + y_1 + y_1 y_2 + ... + y_1...y_{r-1}).

    An independent route from eval_numeric: bounded domain, no
    compactification, different integrand shape.  Depth 2 has no tensor
    level and is the closed form log 2; deeper values share eval_numeric's
    memo.  The depth cap is checked on that target, by
    compositions.admissible_target, as eval_numeric does.
    """
    if not (isinstance(r, int) and r >= 2):
        raise DomainError(f"need integer depth r >= 2, got {r!r}")
    admissible_target((1,) * (r - 1) + (2,), depth_cap)
    tol = _tolerance(tol, r)
    if r == 2:  # no tensor level: the closed form int_0^1 dy / (1 + y)
        value = math.log1p(1.0)
        return NumericResult(value, _ROUND * value, 1, True)
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
    return NumericResult(*_adaptive_unit(f, float(lower), _tolerance(tol, 1)))


def _adaptive_unit(f: Callable[[np.ndarray], np.ndarray], lower: float, tol: float) -> tuple:
    """The 1-D run of the tensor rule for integrate_semi_infinite.

    perfbench/worker.py traces this name as the 1-D rule layer
    (quad.rule_calls, quad.rule_self_s), so the run keeps it until the
    benchmark traces the rule's level sweep instead.
    """

    def last(rows: tuple, node: tuple) -> np.ndarray:
        _, _, e, _, pc = node
        if not np.isfinite(e).all():
            raise DomainError(
                "the exp-sinh map overflowed before the tail was bounded; "
                "the integrand decays too slowly"
            )
        x = rows[0] + e
        fx = f(x.ravel()).reshape(x.shape)
        with np.errstate(invalid="ignore"):
            return fx * (pc * e)

    form = _Form((lower,), _exp_sinh_nodes, None, last, None)  # expand, bound: unread at dims = 1
    return _tensor(form, 1, tol)


def eval_basis_generator(
    ids: Sequence[Fraction | int], tol: float | None = None, depth_cap: int = 6
) -> NumericResult:
    """Numeric value of the basis generator B(ids) = zeta_{ids}(1, ..., 1, 2),
    the tail integral with lower bounds ids and exponents (1, ..., 1, 2)."""
    exps = (1,) * (len(ids) - 1) + (2,)
    return eval_numeric(ShiftedCMZV(ids, exps), tol=tol, depth_cap=depth_cap)

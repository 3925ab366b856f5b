"""Numeric evaluation of iterated tail integrals.

Two routes compute the integrals of the package.

The tensor double-exponential rule, `_tensor`, integrates over every mapped
variable at once with the tensor trapezoidal rule in the variables s of the
exp-sinh substitution (Takahasi & Mori 1974; Bailey, Jeyabalan & Li 2005).
The integrands are analytic inside their domains and singular only at the
ends, so the rule converges double-exponentially in the step h.  Two integral
forms feed it, each as a `_Form`: a state, one level step per mapped variable
(expand), and the leaf, the closed form of the integrals that remain after
the last level.

  * the semi-infinite form of a target, compositions.ShiftedCMZV (eval_numeric
    takes it checked by compositions.admissible_target).  The depth-r
    integral over prod_i [m_i, oo) of
    1 / (x_1^{k_1} (x_1+x_2)^{k_2} ... (x_1+...+x_r)^{k_r}) integrates the
    last two variables analytically: with C = x_1 + ... + x_{r-2} + m_{r-1},
    a = k_{r-1} and b = k_r - 1 they give
        C^(1-a-b) J(a, b; m_r / C) / (k_r - 1),
        J(a, b; z) = int_1^oo v^(-a) (v + z)^(-b) dv,
    one function of one ratio, taken in logarithms by log_j (the Pfaff
    series up to z = 4, exact partial fractions above): the form's leaf.
    Depth 2 is that closed form alone, counted as one evaluation (_depth2,
    with its own proven estimate).  Each of the other r - 2 half-lines maps
    by exp-sinh, x_j = m_j + sigma exp(pi sinh s), with the Jacobian taken
    from the same exponential, so nothing is computed as 1 - t.  The scale
    sigma follows the state, and every level is formed in logarithms.
    Lower bounds from 1e-300 to 1e300 neither overflow nor lose the scale,
    and bounds outside that range raise DomainError (`_semi_infinite_form`);
  * a caller's one-dimensional integrand over [lower, oo), mapped by
    exp-sinh, x = lower + exp(pi sinh s), whose leaf applies the integrand
    (`integrate_semi_infinite`).

The unit-cube form of zeta(1, ..., 1, 2) takes a route of its own, a
one-variable recursion with one Nystrom step per depth (`_cube_step`,
eval_unit_cube_ones), so that it stays an independent check of the tensor
rule.

The rule.  h halves from 1/2 down to 2^-11.  A level sums the integrand over
the grid s = n h inside per-dimension node ranges.  It walks the outer
dimensions in chunks of node prefixes and contracts the last one in blocks,
the leaf of the last level per block, so no temporary array exceeds 2^15
elements; a prefix whose weight times an analytic bound on the rest of the
integral is below tol / (8 * prefixes) is dropped and its bound counted.
Each range starts at |s| <= 3, grows by half a unit (up to |s| <= 7) while
an end's tail exceeds tol / (16 * dims), and sheds end nodes that lie far
below it.  When level 2's starting grid is one block (over one or two
dimensions), the first sweep is level 2 and level 1 is read off its even
nodes, which are level 1's nodes; level 2 keeps the range that sweep
covered, so a run that stops at level 2 sweeps once.  The node arrays of
the map at a step are computed once per process, over |s| <= 7 on first
use, and every sweep at that step slices them.

The error estimate of the value I_h is
    |I_h - I_2h| + tails + dropped + rounding |I_h|:
the tails bound the truncated nodes at both ends of every dimension from the
marginal sum at the end node and its per-node decay over the last half unit
of s (a geometric series; the true decay is faster); dropped sums the
analytic bounds of the dropped prefixes (on the semi-infinite form, the
integral of the last three variables over c <= u_1 <= u_2 <= u_3).  The
rounding allowance is 1e-13, for rounding through logarithms of size up to
about 700, plus, on the semi-infinite form, the proven relative error bound
delta_J of log_j over the z that the form reaches.  Every integrand value is
positive, so a relative error of at most delta in each moves the value by
at most delta |I|.  The same allowance sets the two rounding stops below.
The rule stops at the first level whose estimate is <= tol; level 1 never
does, its sum serving as level 2's I_2h.  `evaluations` counts the integrand
points of every sweep, regrowth included; a level read off another sweep
adds none.  A call that would pass _MAX_POINTS points, reaches the finest
step, finds its rounding allowance alone above tol, or finds tol below
rounding (|I_h| - rule), rule = |I_h - I_2h| + tails + dropped, at a level
whose rule did not fall returns converged=False with the estimate it has:
every estimate includes rounding |I|, so once |I| >= |I_h| - rule no level
can meet such a tol, and a rule that did not fall gives no sign that the
next level, at 2^dims times the points, would narrow the estimate.  Results
that miss their tolerance are flagged, never silently truncated; a sum that
is not finite raises DomainError.  The values of eval_numeric at depth >= 2,
the tensor rule's and _depth2's, leave through one float-range check
(_in_float_range): a value above the float range, or below its least normal
number (an exp that underflowed), raises DomainError rather than pass as
exact.  The two zeta routes share one memo: a stored result serves every
tolerance at or above its error estimate if it converged, else every
tolerance at or above the one it was computed at, and a served result is
converged when its estimate meets the request.  A tolerance is a finite
positive number (check_tolerance).
"""

from __future__ import annotations

import functools
import math
import sys
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

    state holds the values before the first level.  expand(j, state, nodes)
    is the state after level j at the given nodes of the exp-sinh map (a
    slice of each array of _exp_sinh_nodes), elementwise and broadcasting
    (the last level gets a block of rows, each state array shaped (rows, 1),
    against the row of nodes); leaf(state) is the closed form of the
    integrals that remain after the last level, the accumulated weight
    included, elementwise: the integrand of the rule.  bound(state), before
    the last level, bounds the accumulated weight times the integral over
    the remaining variables.  rounding is the relative rounding allowance of
    a value of the form.
    """

    state: tuple
    expand: Callable
    leaf: Callable
    bound: Callable
    rounding: float = _ROUND


def _sweep(
    form: _Form, dims: int, level: int, lo: np.ndarray, hi: np.ndarray, drop_tol: float, coarse: bool = False
):
    """One level of the tensor rule over the nodes s = n h, lo <= n <= hi,
    h = 2^-level.

    The outer dims - 1 dimensions are walked in chunks of flattened node
    prefixes; a prefix whose bound is below drop_tol / (number of prefixes)
    is dropped and its bound kept.  The last dimension is contracted in
    blocks of at most _CHUNK points, each the leaf of the last level of
    expand.  Returns (sum, the marginal sums of each dimension at each of its
    nodes, dropped bound, points evaluated, coarse), the sums scaled by
    h^dims.  coarse is None, or with coarse=True and lo, hi even, the level
    of step 2h over lo/2 .. hi/2 read off this sweep's even nodes, which are
    its nodes: (sum, marginals, the bound of the dropped prefixes whose nodes
    are all even), each at the weight of step 2h.  Its prefixes are dropped
    by this level's threshold, which keeps at most those a sweep at step 2h
    would keep, and whatever it drops is in its dropped bound.
    """
    h = 0.5**level
    table = _exp_sinh_nodes(level)
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
    if coarse:  # the sums of the level of step 2h
        c_marginals = [np.zeros((n + 1) // 2) for n in sizes]
        c_total = c_dropped = 0.0
    for start in range(0, n_outer, _CHUNK):
        flat = np.arange(start, min(start + _CHUNK, n_outer))
        idx = np.unravel_index(flat, outer) if outer else ()
        state = tuple(np.full(flat.size, v) for v in form.state)
        for j, i in enumerate(idx):
            state = form.expand(j, state, tuple(col[i] for col in tables[j]))
        if coarse:  # the prefixes whose nodes are all even, nodes of step 2h
            even = np.ones(flat.size, dtype=bool)
            for i in idx:
                even &= i % 2 == 0
        if idx:
            bound = form.bound(state) * h ** (dims - 1)
            keep = bound >= threshold
            dropped += float(bound[~keep].sum())
            if coarse:
                c_dropped += float(bound[~keep & even].sum()) * 2.0 ** (dims - 1)
                even = even[keep]
            state = tuple(a[keep] for a in state)
            idx = tuple(i[keep] for i in idx)
        for p in range(0, state[0].size, block):
            f = form.leaf(form.expand(dims - 1, tuple(a[p : p + block, None] for a in state), tables[-1]))
            points += f.size
            rows = slice(p, p + block)
            total += _add(marginals, f, tuple(i[rows] for i in idx))
            if coarse:
                e = even[rows]
                c_total += _add(c_marginals, f[e, ::2], tuple(i[rows][e] // 2 for i in idx))
    scale = h**dims
    result = total * scale, [m * scale for m in marginals], dropped, points
    if not coarse:
        return *result, None
    c_scale = (2 * h) ** dims
    return *result, (c_total * c_scale, [m * c_scale for m in c_marginals], c_dropped)


def _add(marginals: list, f: np.ndarray, idx: tuple) -> float:
    """Adds a block f of the rule, its rows at the outer node indices idx,
    to each dimension's marginal sums; returns the block's sum."""
    rows = f.sum(axis=1)
    marginals[-1] += f.sum(axis=0)
    for m, i in zip(marginals, idx):
        m += np.bincount(i, rows, minlength=m.size)
    return float(rows.sum())


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


def _tensor(form: _Form, dims: int, tol: float) -> NumericResult:
    """The integral of form over R^dims, dims >= 1, by the tensor
    double-exponential rule.

    When level 2's grid over the starting ranges, (4 round(2 _S_START) +
    1)^dims points, fits one block (dims <= 2), the first sweep is level 2
    over twice level 1's ranges, and level 1 is read off its even nodes
    (_sweep with coarse=True).  Level 1's tails still grow its ranges, each
    growth sweeping level 2 again, and its sum is level 2's I_2h; level 2
    then takes the last of those sweeps as it stands, over the range it
    covered, without level 1's shedding.  Every later level, and every level
    over three or more dimensions, is a sweep of its own.
    """
    lo = np.full(dims, -round(2 * _S_START))  # node indices at h = 1/2
    hi = -lo
    paired = (4 * round(2 * _S_START) + 1) ** dims <= _CHUNK
    fine = None  # the level-2 sweep that level 1 was read off, until level 2 takes it
    share = tol / (16 * dims)  # per end of each dimension; all ends: tol/8
    evaluations = 0
    prev = value = error = 0.0
    prev_rule = math.inf
    converged = False
    for level in range(1, _MAX_LEVEL + 1):
        h = 0.5**level
        cap = round(_S_CAP / h)
        if level > 1:
            lo, hi = 2 * lo, 2 * hi
            if not fine and evaluations + points * 2**dims > _MAX_POINTS:
                break
        while True:
            if level == 1 and paired:  # level 2, with level 1 read off its even nodes
                *fine, coarse = _sweep(form, dims, 2, 2 * lo, 2 * hi, tol / 8, coarse=True)
                total, marginals, dropped = coarse
                evaluations += fine[3]
            elif fine:
                (total, marginals, dropped, points), fine = fine, None
            else:
                total, marginals, dropped, points, _ = _sweep(form, dims, level, lo, hi, tol / 8)
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
        if not fine:  # level 2 keeps the range its sweep covered
            lo, hi = lo - moves[0], hi + moves[1]
        if level == 1:
            value, error = total, abs(total) + tails + dropped
        else:
            value = total
            rule = abs(total - prev) + tails + dropped
            error = rule + form.rounding * abs(total)
            if error <= tol:
                converged = True
                break
            if rule <= form.rounding * abs(total):
                break  # rounding alone misses tol; a finer step cannot help
            if tol < form.rounding * (abs(total) - rule) and rule >= prev_rule:
                break  # no level can meet tol, and this one did not narrow the rule
            prev_rule = rule
        prev = total
    return NumericResult(value, error, evaluations, converged)


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


def _memoized(key: tuple, tol: float, run: Callable[[float], NumericResult]) -> NumericResult:
    """The stored result for key if it serves tol, else run(tol), which is
    stored if it serves more tolerances than the entry.

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
    result = run(tol)
    serves = result.error_estimate if result.converged else tol
    with _cache_lock:
        prev = _cache.get(key)
        if prev is None or serves < prev[0]:
            _cache[key] = (serves, result)
    return result


@functools.cache
def _exp_sinh_nodes(level: int) -> tuple:
    """The exp-sinh map's node arrays at step h = 2^-level, over s = n h,
    |n| <= _S_CAP / h: pi sinh s, log(pi cosh s), E = exp(pi sinh s) and
    pi cosh s, computed on first use and kept read-only for the process; E
    overflows beyond s ~ 6.1."""
    h = 0.5**level
    cap = round(_S_CAP / h)
    s = np.arange(-cap, cap + 1) * h
    ps, pc = np.pi * np.sinh(s), np.pi * np.cosh(s)
    with np.errstate(over="ignore"):
        e = np.exp(ps)
    cols = ps, np.log(pc), e, pc
    for col in cols:
        col.flags.writeable = False
    return cols


# J(a, b; z) = int_1^oo v^(-a) (v + z)^(-b) dv, in logarithms (log_j).
_U = 2.0**-53  # unit roundoff
_J_SPLIT = math.log(4.0)  # log z above which log_j leaves the Pfaff series
_J_TAIL = 2.0**-56  # relative truncation of the Pfaff series
_J_TERMS = 256  # Pfaff coefficients kept; w <= 4/5 needs under 190 terms


@dataclass(frozen=True)
class _JTable:
    """The per-(a, b) constants of log_j: the Pfaff coefficients (b)_n/(a+b)_n
    for n <= _J_TERMS, the partial-fraction polynomial in y = 1/(1+z) with
    its log(1+z) coefficient, and the two regimes' error bounds in units of
    _U (the large one without its 3 b log z part)."""

    pfaff: tuple
    poly: np.ndarray
    log_coeff: float
    eps_small: float
    eps_large: float


@functools.cache
def _j_table(a: int, b: int) -> _JTable:
    n = a + b - 2
    steps = np.arange(_J_TERMS)
    pfaff = tuple(np.cumprod(np.concatenate(([1.0], (b + steps) / (a + b + steps)))).tolist())
    # u^n (1+u)^(-b) = sum_j C(n,j) (-1)^(n-j) (1+u)^(j-b); integrated over
    # [0, z] and scaled by (1+z)^(1-a), each term with e = j-b+1 != 0 gives
    # (y^(a-1-e) - y^(a-1)) / e and the term with e = 0 gives log(1+z) y^(a-1).
    q, log_coeff = [Fraction(0)] * (n + 1), 0
    for j in range(n + 1):
        c, e = math.comb(n, j) * (-1) ** (n - j), j - b + 1
        if e == 0:
            log_coeff = c
        else:
            q[a - 1 - e] += Fraction(c, e)
            q[a - 1] -= Fraction(c, e)
    # The Pfaff sum S >= 1 has positive terms.  Horner's rule perturbs term n
    # by at most (2n + 1) u, its coefficient (a running product) carries 2n u
    # and w^n n 4u, and under weights P_n w^n the mean n is at most
    # w/(1-w) <= 4: S is within 33u, its truncation within u/8.  With
    # log1p(z) <= log 5 within 4u, the logarithms and the two subtractions
    # add at most (6 + 11.3 b + 3 log(a+b)) u.
    eps_small = 56.0 + 12.0 * b + 3.0 * math.log(a + b)
    # V = (1+z)^(1-a) int_0^z u^n (1+u)^(-b) du rises with z (for a >= 2,
    # since (a-1) int_0^z <= z^n (1+z)^(1-b)), so V(4) bounds it below; the
    # negative terms, largest at z = 4, bound what cancels, so the sum of
    # |terms| is at most kappa V.  Horner's rule over the signed terms is
    # within (2n + 2) u of that sum, the coefficients (q within u, the log
    # term within 3u) and y^d (d <= n, y within 4u) add (4n + 3) u.  log V is
    # at most |log V(4)| + 7.3 in size and (a-1) log1p(1/z) at most 0.23 (a-1),
    # each within 5u; the product b log z and the two sums add 3 b log z u.
    terms = _pfaff_terms(pfaff, 0.8)
    s4 = pfaff[terms - 1]  # _pfaff_sum at w = 0.8, as scalars: the same operations
    for d in range(terms - 2, -1, -1):
        s4 = s4 * 0.8 + pfaff[d]
    v4 = 0.8 ** (n + 1) * s4 / (n + 1)
    negative = sum(-float(c) * 0.2**d for d, c in enumerate(q) if c < 0)
    if log_coeff < 0:  # then a >= 2, and log(1+z) y^(a-1) falls from z = 4 on
        negative += -log_coeff * math.log(5.0) * 0.2 ** (a - 1)
    kappa = (1.0 + 2.0 * negative / v4) * 1.001
    eps_large = (6 * n + 5) * kappa + 3.0 * abs(math.log(v4)) + 2.0 * a + 24.0
    poly = np.array([float(c) for c in q])
    return _JTable(pfaff, poly, float(log_coeff), eps_small, eps_large)


def _pfaff_terms(coeffs: tuple, wmax: float) -> int:
    """The least count N whose tail bound coeffs[N] w^N / (1 - w) is within
    _J_TAIL at w = wmax, for coeffs falling from 1 and 0 <= wmax <= 4/5."""
    bound = _J_TAIL * (1.0 - wmax)
    terms, power = 1, wmax
    while coeffs[terms] * power > bound:
        terms, power = terms + 1, power * wmax
    return terms


def _pfaff_sum(coeffs: tuple, w: np.ndarray) -> np.ndarray:
    """sum_{n < N} coeffs[n] w^n elementwise by Horner's rule, with N from
    _pfaff_terms at the largest w."""
    terms = _pfaff_terms(coeffs, float(w.max()))
    s = np.full(w.shape, coeffs[terms - 1])
    for d in range(terms - 2, -1, -1):
        s *= w
        s += coeffs[d]
    return s


def _j_error(a: int, b: int, z_max: Fraction) -> float:
    """log_j's bound delta_J over 0 < z <= z_max, as a relative error of J
    (the 1 allows for rounding in log z_max)."""
    table = _j_table(a, b)
    if z_max <= 4:
        return table.eps_small * _U
    lz = math.log(z_max.numerator) - math.log(z_max.denominator)
    return max(table.eps_small, table.eps_large + 3.0 * b * lz + 1.0) * _U


def log_j(a: int, b: int, lz: np.ndarray) -> np.ndarray:
    """log J(a, b; z) at log z = lz, elementwise, for integers a, b >= 1.

    J(a, b; z) = int_1^oo v^(-a) (v + z)^(-b) dv.  Up to z = 4 it is the
    Pfaff form (1+z)^(-b) sum_n P_n w^n / (a+b-1), P_n = (b)_n/(a+b)_n and
    w = z/(1+z) <= 4/5, whose terms are positive and falling; the sum stops
    at the first term N whose tail bound P_N w^N / (1 - w) is within 2^-56
    at the largest w.  Above 4 it is z^(1-a-b) (1+z)^(a-1) V, where
    V = (1+z)^(1-a) int_0^z u^(a+b-2) (1+u)^(-b) du in exact partial
    fractions is a polynomial in y = 1/(1+z) plus a multiple of
    log(1+z) y^(a-1), evaluated by Horner's rule.  The result is within
    delta_J = (eps + 3 b max(0, log z)) 2^-53 of the exact log J at the given
    lz, with eps = eps_small up to z = 4 and eps_large above (_j_table,
    which derives both); eps_large carries the cancellation of the partial
    fractions, which is largest at z = 4.
    """
    table = _j_table(a, b)
    small = lz <= _J_SPLIT
    if small.all():
        return _log_j_pfaff(table, a, b, lz)
    if not small.any():
        return _log_j_large(table, a, b, lz)
    out = np.empty(lz.shape)
    out[small] = _log_j_pfaff(table, a, b, lz[small])
    out[~small] = _log_j_large(table, a, b, lz[~small])
    return out


def _log_j_pfaff(table: _JTable, a: int, b: int, lz: np.ndarray) -> np.ndarray:
    z = np.exp(lz)
    s = _pfaff_sum(table.pfaff, z / (1.0 + z))
    return np.log(s) - b * np.log1p(z) - math.log(a + b - 1)


def _log_j_large(table: _JTable, a: int, b: int, lz: np.ndarray) -> np.ndarray:
    t = np.exp(-lz)  # 1/z <= 1/4
    y = t / (1.0 + t)
    l1 = np.log1p(t)
    log_term = table.log_coeff * (lz + l1)
    v = np.zeros(lz.shape)
    for d in range(table.poly.size - 1, -1, -1):
        v *= y
        v += table.poly[d]
        if d == a - 1:
            v += log_term
    return np.log(v) + (a - 1) * l1 - b * lz


def _semi_infinite_form(t: ShiftedCMZV) -> _Form:
    """The depth-r tail integral, r >= 3, as a _Form over r - 2 exp-sinh
    dimensions.

    Level j integrates x_j from the state (log c, log W): c = x_1 + ... +
    x_{j-1} + m_j is the least value of u = x_1 + ... + x_j, and W the
    weight so far.  With rho^2 = 1 + m_{j+1}/c and E = exp(pi sinh s), the
    map x_j = m_j + c rho E gives u = c (1 + rho E), and the next state is
    c' = u + m_{j+1} = c rho (rho + E): x_j spans the scales c and
    c + m_{j+1} symmetrically in log E.  The level's weight is
    u^(-k_j) dx_j/ds = c^(1-k_j) (1 + rho E)^(-k_j) rho E pi cosh s, and
    every level is formed in logarithms.

    The last two integrals are one closed form in C = x_1 + ... + x_{r-2} +
    m_{r-1}, the state c' of the last level:
        C^(1-a-b) J(a, b; m_r / C) / (k_r - 1),  a = k_{r-1}, b = k_r - 1,
    with log J from log_j: the leaf.  On the last level, expand forms the row
    factors (rho and the row's part of the logarithm) once per row of the
    block, and the leaf takes log_j and one exp per point, all in
    logarithms, so no node leaves the float range on the way.  A point
    whose value overflows makes the sum infinite, which _tensor reports as
    DomainError.  The form's rounding allowance is _ROUND plus log_j's
    bound over the z this form reaches, z <= m_r / (m_1 + ... + m_{r-1})
    (_j_error).
    """
    k = t.exponents.parts
    lm = [math.log(b.numerator) - math.log(b.denominator) for b in t.bounds]
    a, b = k[-2], k[-1] - 1
    log_lead = -math.log(b)
    # int over c <= u_1 <= u_2 <= u_3 of u_1^(-k_{r-2}) u_2^(-k_{r-1}) u_3^(-k_r),
    # dropping m_{r-1} and m_r: the bound on the last three integrals from the
    # state before the last level.
    weight = sum(k[-3:])
    bound_power = 3 - weight
    bound_scale = 1.0 / (b * (a + b - 1) * (weight - 3))
    z_max = t.bounds[-1] / sum(t.bounds[:-1])

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

    def leaf(state: tuple) -> np.ndarray:
        lc, lw = state  # log C and the weight
        lw += (1 - a - b) * lc + log_lead
        lw += log_j(a, b, lm[-1] - lc)
        with np.errstate(over="ignore"):
            return np.exp(lw, out=lw)

    def bound(state: tuple) -> np.ndarray:
        lc, lw = state
        with np.errstate(over="ignore"):
            return np.exp(lw + bound_power * lc) * bound_scale

    return _Form((lm[0], 0.0), expand, leaf, bound, _ROUND + _j_error(a, b, z_max))


def eval_numeric(
    target: ShiftedCMZV | Composition | Sequence[int],
    tol: float | None = None,
    depth_cap: int = 6,
) -> NumericResult:
    """Numeric value of an admissible iterated tail integral.

    target is a ShiftedCMZV, or a composition or tuple of parts for unit
    bounds; compositions.admissible_target checks it, as reduce_to_basis
    does (DivergenceError, CapacityError).  Depth 1 is m^(1-k)/(k-1)
    rounded once, with estimate 0 if the float is exact and its ulp
    otherwise (a subnormal value too); depth 2 is its closed form through
    log_j (_depth2); deeper targets run the tensor rule on the semi-infinite
    form described in the module docstring.  Depths >= 2 need every lower
    bound in [1e-300, 1e300], and a value that is a finite normal float
    (_in_float_range); DomainError otherwise.  Results are memoized per
    (bounds, exponents): a stored result serves every tol at or above its
    error estimate if it converged, else at or above the tol it was computed
    at, and is converged when its estimate meets tol.
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
        error = 0.0 if Fraction(value) == exact else math.ulp(value)
        return NumericResult(value, error, 0, error <= tol)
    if not all(_MIN_BOUND <= b <= _MAX_BOUND for b in t.bounds):
        raise DomainError("a lower bound lies outside [1e-300, 1e300], the range of the numeric route")

    def run(tol: float) -> NumericResult:
        result = _depth2(t, tol) if t.depth == 2 else _tensor(_semi_infinite_form(t), t.depth - 2, tol)
        return _in_float_range(result)

    return _memoized((t.bounds, k), tol, run)


def _in_float_range(result: NumericResult) -> NumericResult:
    """result if its value is a finite normal float; DomainError otherwise.

    The numeric route forms its values at depth >= 2 in logarithms, and exp
    leaves the float range silently: above it the value is infinite, below
    it a subnormal or 0 whose lost digits no estimate counts.
    """
    if not abs(result.value) <= sys.float_info.max:
        raise DomainError("the value exceeds the float range of the numeric route")
    if abs(result.value) < sys.float_info.min:
        raise DomainError("the value lies below the normal float range of the numeric route")
    return result


def _depth2(t: ShiftedCMZV, tol: float) -> NumericResult:
    """zeta_m(k1, k2) = m_1^(2-k1-k2) J(k1, k2 - 1; m_2/m_1) / (k2 - 1), in
    logarithms, as one evaluation.

    The estimate bounds the rounding of every logarithm on the way (each
    within 2^-53 of its size, a log of a bound within 2^-53 of the logs of
    its numerator and denominator) and log_j's error at z = m_2/m_1.
    """
    (k1, k2), (m1, m2) = t.exponents.parts, t.bounds
    a, b = k1, k2 - 1
    logs = [(math.log(m.numerator), math.log(m.denominator)) for m in (m1, m2)]
    lm1, lm2 = (n - d for n, d in logs)
    size1, size2 = (abs(n) + abs(d) for n, d in logs)
    lz = lm2 - lm1
    lv = (1 - a - b) * lm1 + float(log_j(a, b, np.array([lz]))[0]) - math.log(b)
    try:
        value = math.exp(lv)
    except OverflowError:  # _in_float_range reports it
        value = math.inf
    # absolute errors of lm1 and lz, then of lv, in units of 2^-53
    d1 = 2.0 * size1
    dz = d1 + 2.0 * size2 + abs(lz)
    dv = _j_error(a, b, m2 / m1) / _U + b * dz + (a + b) * (d1 + abs(lm1)) + 2.0 * abs(lv) + 4.0
    error = 2.0 * dv * _U * value
    return NumericResult(value, error, 1, error <= tol)


# The unit-cube recursion (eval_unit_cube_ones).
_CUBE_NODES, _CUBE_MAX_NODES = 8, 64  # node counts n: the first, and the cap
_CUBE_ROUND = 2.0**-51  # rounding allowance of one step, per node: delta_n = n 2^-51


@functools.cache
def _cube_step(n: int) -> np.ndarray:
    """The n x n matrix of one step F_{k-1} -> F_k of the unit-cube
    recursion (eval_unit_cube_ones), built on first use and kept read-only
    for the process.

    F is held at the Chebyshev-Lobatto nodes u_i = (1 - cos(pi i/(n-1)))/2
    of [0, 1].  Row i integrates F_{k-1}(t) / (1 + u_i y), t = u_i y/(1 + u_i y),
    by the n-point Gauss-Legendre rule in y, with F_{k-1}(t) interpolated
    from the nodes in the barycentric form.  The node u = 0 has the exact row
    F_k(0) = F_{k-1}(0); every other t lies in (0, 1/2), and off the nodes,
    as checked for every n up to _CUBE_MAX_NODES.  The temporaries hold n^3 numbers.
    """
    from numpy.polynomial.legendre import leggauss  # loaded on first use: it costs milliseconds

    u = 0.5 - 0.5 * np.cos(np.pi * np.arange(n) / (n - 1))
    weights = np.resize([1.0, -1.0], n)
    weights[[0, -1]] *= 0.5
    y, w = leggauss(n)
    y, w = 0.5 + 0.5 * y, 0.5 * w
    uy = np.multiply.outer(u[1:], y)
    t = uy / (1.0 + uy)
    basis = weights / (t[:, :, None] - u)
    basis /= basis.sum(axis=2, keepdims=True)
    step = np.zeros((n, n))
    step[0, 0] = 1.0
    step[1:] = np.einsum("iq,iqj->ij", w / (1.0 + uy), basis)
    step.flags.writeable = False
    return step


def eval_unit_cube_ones(r: int, tol: float | None = None, depth_cap: int = 6) -> NumericResult:
    """Unit-cube form of the all-ones-then-2 value at depth r >= 2:

        zeta_C(1, ..., 1, 2)  (r-1 ones)
            = int_{[0,1]^{r-1}} dy / (1 + y_1 + y_1 y_2 + ... + y_1...y_{r-1}).

    An independent route from eval_numeric: bounded domain, no
    compactification, different integrand shape, and no tensor rule.  The
    integrand is homogeneous: with k variables left and the denominator
    A + B y_1 + B y_1 y_2 + ..., the integral is F_k(B/A)/A, where F_0 = 1 and
        F_k(u) = int_0^1 F_{k-1}(u y/(1 + u y)) dy / (1 + u y),  0 <= u <= 1,
    and the value is F_{r-1}(1): r - 1 Nystrom steps (Atkinson 1997) of one
    variable each, each a product by the matrix of _cube_step(n).  A run
    starts from F = 1 at n = 8 nodes, doubles n, and returns F_2n(1) with
    the estimate |F_2n(1) - F_n(1)| + (r - 1) delta_2n, once that is <= tol.

    The rounding allowance (r - 1) delta_2n sums one bound per step, delta_n
    = n 2^-51: every F_k lies in (0, 1], and the rows of the step's matrix
    have absolute sums below 1.24 for every n <= 64, so the product's own
    rounding at a node is within 1.24 n 2^-53, and the entries, each a
    Gauss sum of barycentric quotients, add about as much again.  The
    allowance takes the steps' errors as not growing through later steps:
    the exact step is positive and of norm 1 (its row at u = 0 carries F
    unchanged, the others integrate 1/(1 + u y) < 1).  Measured, n = 32 and
    n = 64 agree within 1e-15 up to depth 1000, where the allowance is
    2.8e-11.  A run stops with converged=False once the difference is
    within the allowance (more nodes cannot narrow the estimate) or at
    n = _CUBE_MAX_NODES.  evaluations = sum over the n tried of (r - 1) n^2.

    Results share eval_numeric's memo, keyed ("cube", r).  The depth cap is
    checked on the target (1, ..., 1, 2), by compositions.admissible_target,
    as eval_numeric does.
    """
    if not (isinstance(r, int) and r >= 2):
        raise DomainError(f"need integer depth r >= 2, got {r!r}")
    admissible_target((1,) * (r - 1) + (2,), depth_cap)
    tol = _tolerance(tol, r)

    def value(n: int) -> float:
        step, f = _cube_step(n), np.ones(n)
        for _ in range(r - 1):
            f = step @ f
        return float(f[-1])

    def run(tol: float) -> NumericResult:
        n, prev = _CUBE_NODES, value(_CUBE_NODES)
        evaluations = (r - 1) * n * n
        while True:
            n *= 2
            total = value(n)
            evaluations += (r - 1) * n * n
            diff, allowance = abs(total - prev), (r - 1) * n * _CUBE_ROUND
            error = diff + allowance
            if error <= tol or diff <= allowance or n == _CUBE_MAX_NODES:
                return NumericResult(total, error, evaluations, error <= tol)
            prev = total

    return _memoized(("cube", r), tol, run)


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
    So does a lower bound that is not a finite float, and a run whose value
    and estimate are both 0: every integrand value it saw was 0 (barring
    exact cancellation), which an integral that underflowed, such as x^-2
    from 1e300, gives as well as one that is 0.
    """
    lower = float(lower)
    if not math.isfinite(lower):
        raise DomainError(f"the lower bound must be finite, got {lower}")
    result = _adaptive_unit(f, lower, _tolerance(tol, 1))
    if result.value == 0.0 and result.error_estimate == 0.0:
        raise DomainError("every integrand value was 0: the integral underflowed or is 0, which the rule cannot tell")
    return result


def _adaptive_unit(f: Callable[[np.ndarray], np.ndarray], lower: float, tol: float) -> NumericResult:
    """The 1-D run of the tensor rule for integrate_semi_infinite: its
    level maps x = lower + E with weight pi cosh s * E, and its leaf is f.

    perfbench/worker.py traces this name as the 1-D rule layer
    (quad.rule_calls, quad.rule_self_s), so the run keeps it until the
    benchmark traces the rule's level sweep instead.
    """

    def expand(j: int, state: tuple, node: tuple) -> tuple:
        _, _, e, pc = node
        if not np.isfinite(e).all():
            raise DomainError(
                "the exp-sinh map overflowed before the tail was bounded; "
                "the integrand decays too slowly"
            )
        return state[0] + e, pc * e

    def leaf(state: tuple) -> np.ndarray:
        x, w = state
        fx = f(x.ravel()).reshape(x.shape)
        with np.errstate(invalid="ignore"):
            return fx * w

    form = _Form((lower,), expand, leaf, None)  # bound: unread at dims = 1
    return _tensor(form, 1, tol)


def eval_basis_generator(
    ids: Sequence[Fraction | int], tol: float | None = None, depth_cap: int = 6
) -> NumericResult:
    """Numeric value of the basis generator B(ids) = zeta_{ids}(1, ..., 1, 2),
    the tail integral with lower bounds ids and exponents (1, ..., 1, 2)."""
    exps = (1,) * (len(ids) - 1) + (2,)
    return eval_numeric(ShiftedCMZV(ids, exps), tol=tol, depth_cap=depth_cap)

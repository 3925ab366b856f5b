"""Numeric evaluation of iterated tail integrals by nested adaptive quadrature.

One engine, `_nested`, integrates over the unit cube (0, 1)^d by nesting one
adaptive Gauss-Kronrod (G7/K15) integrator per dimension.  Two integrands
feed it:

  * the semi-infinite form.  The depth-r integral over prod_i [m_i, oo) of
    1 / (x_1^{k_1} (x_1+x_2)^{k_2} ... (x_1+...+x_r)^{k_r}) integrates the
    innermost variable analytically,
        int_{m_r}^oo (T + x_r)^{-k_r} dx_r = (T + m_r)^(1-k_r) / (k_r - 1),
    and maps each remaining half-line to the unit interval with
        x = m + t/(1-t),  dx = dt/(1-t)^2;
  * the unit-cube form of zeta(1, ..., 1, 2), whose integrand
    1 / (1 + y_1 + y_1 y_2 + ...) already lives on (0, 1)^(r-1).

Error accounting is deliberately simple and auditable: each panel's own error
is the rule difference |K15 - G7| (scaled by the usual (200d)^1.5 sharpening),
panels are summed without cancellation, and every inner integral's error
estimate is integrated alongside its value through the positive Kronrod
weights, so uncertainty propagates outward conservatively.  The per-level
budget splits the requested tolerance as tol/2 for the outermost level and
tol/(2*d) for each inner level.  Results that miss their budget are
flagged converged=False, never silently truncated.  Both forms share one
memo.
"""

from __future__ import annotations

import heapq
import itertools
import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

import numpy as np

from .compositions import Composition, is_admissible
from .errors import CapacityError, DivergenceError, DomainError

# Gauss-Kronrod 7-15 rule on [-1, 1]; Gauss nodes are the odd-indexed entries.
_NODES = np.array(
    [
        -0.9914553711208126,
        -0.9491079123427585,
        -0.8648644233597691,
        -0.7415311855993944,
        -0.5860872354676911,
        -0.4058451513773972,
        -0.2077849550078985,
        0.0,
        0.2077849550078985,
        0.4058451513773972,
        0.5860872354676911,
        0.7415311855993944,
        0.8648644233597691,
        0.9491079123427585,
        0.9914553711208126,
    ]
)
_WEIGHTS_K = np.array(
    [
        0.02293532201052922,
        0.06309209262997855,
        0.1047900103222502,
        0.1406532597155259,
        0.1690047266392679,
        0.1903505780647854,
        0.2044329400752989,
        0.2094821410847278,
        0.2044329400752989,
        0.1903505780647854,
        0.1690047266392679,
        0.1406532597155259,
        0.1047900103222502,
        0.06309209262997855,
        0.02293532201052922,
    ]
)
_WEIGHTS_G = np.array(
    [
        0.1294849661688697,
        0.2797053914892767,
        0.3818300505051189,
        0.4179591836734694,
        0.3818300505051189,
        0.2797053914892767,
        0.1294849661688697,
    ]
)

_MAX_PANELS = 400


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


class _Stats:
    __slots__ = ("evaluations", "exhausted")

    def __init__(self) -> None:
        self.evaluations = 0
        self.exhausted = False


def _adaptive_unit(
    f: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
    tol: float,
    rel: float = float("inf"),
) -> tuple[float, float, float, bool]:
    """Adaptive G7/K15 integration of f over [0, 1].

    f maps an array of interior points to (values, errors); the error channel
    carries absolute uncertainties of the values and is integrated with the
    same positive weights.  Splits the worst panel until the summed rule
    error meets min(tol, rel*|integral|) or the panel cap is hit.  The
    relative leg keeps inner-level errors proportional to inner-level values,
    which stops small-magnitude inner integrals from polluting outer rule
    differences with a constant noise floor.

    Returns (value, own_error, inherited_error, exhausted).
    """

    counter = itertools.count()

    def panel(a: float, b: float) -> tuple[float, float, float]:
        half = 0.5 * (b - a)
        mid = 0.5 * (a + b)
        vals, errs = f(mid + half * _NODES)
        vk = half * float(_WEIGHTS_K @ vals)
        vg = half * float(_WEIGHTS_G @ vals[1::2])
        inh = half * float(_WEIGHTS_K @ errs)
        diff = abs(vk - vg)
        own = min(diff, (200.0 * diff) ** 1.5) if diff > 0.0 else 0.0
        return own, vk, inh

    # Panels whose rule difference is dominated by inherited (inner-level)
    # uncertainty or machine noise are parked in `done`: splitting them
    # cannot reduce the reported error, only burn evaluations.
    done: list[tuple[float, float, float]] = []
    heap: list[tuple[float, int, float, float, float, float]] = []
    total_own = 0.0
    total_val = 0.0

    def add(a: float, b: float) -> None:
        nonlocal total_own, total_val
        own, vk, inh = panel(a, b)
        total_own += own
        total_val += vk
        noise_floor = max(0.5 * inh, 1e-16 * abs(vk))
        if own <= noise_floor or (b - a) < 1e-12:
            done.append((own, vk, inh))
        else:
            heapq.heappush(heap, (-own, next(counter), a, b, vk, inh))

    add(0.0, 1.0)
    n_panels = 1
    exhausted = False
    while heap:
        threshold = min(tol, rel * abs(total_val))
        if total_own <= threshold:
            break
        if n_panels >= _MAX_PANELS:
            exhausted = True  # stopped by the cap with refinable work left
            break
        neg_own, _, a, b, vk, _ = heapq.heappop(heap)
        total_own += neg_own
        total_val -= vk
        mid = 0.5 * (a + b)
        add(a, mid)
        add(mid, b)
        n_panels += 1
    value = sum(entry[4] for entry in heap) + sum(d[1] for d in done)
    inherited = sum(entry[5] for entry in heap) + sum(d[2] for d in done)
    return value, total_own, inherited, exhausted


def _nested(
    dims: int, tol: float, step: Callable, leaf: Callable, state
) -> tuple[float, float, int, bool]:
    """Nested adaptive quadrature over (0, 1)^dims, one _adaptive_unit per dimension.

    Level j integrates over its node t from a state handed down by the level
    above, starting from `state` at level 0.  Above the innermost level,
    step(j, state, ts) lists one (child state, weight) pair per node; the
    node's value is weight * (level j+1 at the child state), and its error is
    weight * (that level's own + inherited error).  The innermost level
    integrates the vectorized leaf(state, ts) directly.  The outermost level
    gets tol/2, each inner level tol/(2*dims), also as a relative stop.

    Returns (value, error, evaluations, exhausted).
    """
    stats = _Stats()
    inner_tol = 0.5 * tol / dims

    def level(j: int, state) -> tuple[float, float]:
        budget = 0.5 * tol if j == 0 else inner_tol
        rel = float("inf") if j == 0 else budget
        if j == dims - 1:

            def integrand(ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
                stats.evaluations += ts.size
                vals = leaf(state, ts)
                return vals, np.zeros_like(vals)

        else:

            def integrand(ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
                vals = []
                errs = []
                for child, w in step(j, state, ts):
                    sub_val, sub_err = level(j + 1, child)
                    vals.append(w * sub_val)
                    errs.append(w * sub_err)
                stats.evaluations += ts.size
                return np.array(vals), np.array(errs)

        val, own, inh, exhausted = _adaptive_unit(integrand, budget, rel)
        if exhausted:
            stats.exhausted = True
        return val, own + inh

    value, err = level(0, state)
    return value, err, stats.evaluations, stats.exhausted


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


def _memoized(
    key: tuple, tol: float, dims: int, step: Callable, leaf: Callable, state
) -> NumericResult:
    """The memoized result for key if it was computed at tol or tighter,
    else a fresh _nested run, stored if tol is the tightest seen."""
    with _cache_lock:
        hit = _cache.get(key)
    if hit is not None and hit[0] <= tol:
        return hit[1]
    value, err, evaluations, exhausted = _nested(dims, tol, step, leaf, state)
    result = NumericResult(value, err, evaluations, (not exhausted) and err <= tol)
    with _cache_lock:
        prev = _cache.get(key)
        if prev is None or tol < prev[0]:
            _cache[key] = (tol, result)
    return result


def _as_target(target: ShiftedCMZV | Composition | Sequence[int]) -> ShiftedCMZV:
    if isinstance(target, ShiftedCMZV):
        return target
    return ShiftedCMZV.standard(target)


def eval_numeric(
    target: ShiftedCMZV | Composition | Sequence[int],
    tol: float | None = None,
    depth_cap: int = 6,
) -> NumericResult:
    """Numeric value of an admissible iterated tail integral.

    Depth 1 is returned exactly (m^(1-k)/(k-1)); deeper targets run the
    nested quadrature described in the module docstring.  Results are
    memoized per (bounds, exponents) at the tightest tolerance seen.
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

    try:
        m = [float(b) for b in t.bounds]
    except OverflowError:
        raise DomainError("a lower bound exceeds the float range of the numeric route") from None
    kf = [float(kj) for kj in k]
    # The innermost x_r integral is analytic:
    #     int_{m_r}^oo (T + x_r)^{-k_r} dx_r = (T + m_r)^(1-k_r) / (k_r - 1).
    tail_scale = 1.0 / (kf[-1] - 1.0)
    k_in, m_in, k_last, m_last = kf[-2], m[-2], kf[-1], m[-1]

    # Level j maps t to x_j = m_j + t/(1-t).  The state T is x_1 + ... +
    # x_{j-1}, so the child state is u = T + x_j, weighted u^(-k_j) dx_j/dt.
    # The weight's power is taken per node in scalar arithmetic: numpy's
    # vectorized power takes shortcuts for some exponents (squaring for 2)
    # that round differently.
    def step(j: int, T: float, ts: np.ndarray) -> list:
        one_minus = 1.0 - ts
        u = (T + m[j] + ts / one_minus).tolist()
        jac = (1.0 / (one_minus * one_minus)).tolist()
        kj = kf[j]
        return [(ui, ui ** (-kj) * jaci) for ui, jaci in zip(u, jac)]

    def leaf(T: float, ts: np.ndarray) -> np.ndarray:
        one_minus = 1.0 - ts
        u = T + m_in + ts / one_minus
        jac = 1.0 / (one_minus * one_minus)
        return u ** (-k_in) * (tail_scale * (u + m_last) ** (1.0 - k_last)) * jac

    return _memoized((t.bounds, k), tol, t.depth - 1, step, leaf, 0.0)


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

    # Writing the denominator as 1 + y_1 (1 + y_2 (1 + ...)) gives the level
    # recursion A' = A + B*y, B' = B*y starting from A = B = 1.
    def step(j: int, AB: tuple[float, float], ys: np.ndarray) -> list:
        A, B = AB
        return [((A + B * y, B * y), 1.0) for y in ys.tolist()]

    def leaf(AB: tuple[float, float], ys: np.ndarray) -> np.ndarray:
        A, B = AB
        return 1.0 / (A + B * ys)

    return _memoized(("cube", r), tol, r - 1, step, leaf, (1.0, 1.0))


def integrate_semi_infinite(
    f: Callable[[np.ndarray], np.ndarray], lower: float, tol: float = 1e-10
) -> NumericResult:
    """Adaptive integral of a vectorized integrand over [lower, oo).

    Same compactifying map and rule as the nested evaluator; exposed for
    one-dimensional cross-checks against closed forms.
    """
    if not (tol > 0.0):
        raise DomainError(f"tolerance must be positive, got {tol}")
    stats = _Stats()

    def integrand(ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        one_minus = 1.0 - ts
        x = lower + ts / one_minus
        stats.evaluations += ts.size
        vals = f(x) / (one_minus * one_minus)
        return vals, np.zeros_like(vals)

    val, own, inh, exhausted = _adaptive_unit(integrand, tol)
    err = own + inh
    return NumericResult(val, err, stats.evaluations, (not exhausted) and err <= tol)


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

"""Numeric evaluation of iterated tail integrals.

Three numeric routes compute the integrals of the package.

The chain (eval_numeric at depth r >= 2).  The integrand of
zeta_m(k) = int over prod_j [m_j, oo) of prod_j u_j^(-k_j), u_j = x_1 + ... + x_j,
depends on x only through the partial sums, so the integral is r
one-variable steps: R_r = 1, R_{j-1}(u) = int_{u+m_j}^oo v^(-k_j) R_j(v) dv,
and zeta_m(k) = R_0(0) (the continuous form of nested partial sums;
Borwein, Bradley, Broadhurst & Lisonek 2001).  With U_j = m_1 + ... + m_j,
w = U_j / v in (0, 1] and sigma_j = sum_{i>j} (k_i - 1), the function
    psi_j(w) = R_j(U_j / w) / w^sigma_j
is positive and analytic on [0, 1]; its only singularities lie on the
negative axis, the nearest at -U_j / (m_{j+1} + ... + m_r).  One step takes
psi_j to the average
    B_j(t) = int_0^1 s^p psi_j(t s) ds,   p = k_j - 2 + sigma_j,
and then
    psi_{j-1}(w') = U_j^sigma_j (U_{j-1} + m_j w')^(-sigma_{j-1}) B_j(phi(w')),
    phi(w') = U_j w' / (U_{j-1} + m_j w') <= 1,
down to the value U_1^(1-k_1) B_1(1); B_r = 1/(k_r - 1) is constant.  The
factors U_j^sigma_j U_{j-1}^(-sigma_{j-1}) telescope, so the run carries
them as the one factor m_1^(r - weight) at the end.

psi_j is held on graded pieces [2^-(i+1), 2^-i], i < P_j, and a bottom piece
[0, 2^-P_j], P_j = max(0, ceil(log2(max_{i>j} m_i / U_j))) + 2, so that every
piece lies at least its own width away from the singularities (unit bounds
need 3 pieces, bounds 1e-300, 1e10, 1e300 about 3,000).  Each piece holds n
values at the first-kind Chebyshev nodes, in logarithms split into one scale
per piece and values of at most 1, so bounds from 1e-300 to 1e300 stay in
the float range.  B is formed piecewise from the bottom up: on the bottom
piece by one cached matrix per (n, p), Fejer's first rule at n + p points on
the interpolant (exact), and on a graded piece [a, 2a] as
    B(a x) = B(a) x^-(p+1) + x^-(p+1) int_1^x s^p psi(a s) ds (scaled),
so every term is positive and no antiderivative near 0 is formed by
difference.  B(phi(w')) is read off B's Chebyshev coefficients on the piece
holding phi(w'), which phi reaches in logarithms with the powers of 2
carried as integers (_chain).

A process keeps what depends on node counts and bounds alone, never a
result: the Chebyshev nodes and coefficient matrix per n (_chebyshev), the
antiderivative matrices per (n, p) (_step), the geometry memo of the chain's
step shapes (_geometry: the points phi(w'), their pieces and the Chebyshev
basis there, per (n, pieces, ratios of the bounds), capped at _MAX_GEOMETRY
elements and emptied when an insert would pass the cap), the unit cube's
step matrix per n (_cube_step) and the exp-sinh nodes per level
(_exp_sinh_nodes).  clear_caches drops the results alone.

A run of the chain at n nodes returns its value, the node values of psi it
formed (summed over the steps, the `evaluations` of the call), and its
rounding allowance (_chain).  The doubling driver (_doubling) runs n = 8,
16, ... up to 64 and returns v_2n with the estimate |v_2n - v_n| + the
allowance of v_2n once that is <= tol; it stops unconverged once the
difference is within the allowance (more nodes cannot narrow the estimate)
or at n = 64.  Like the difference of two rule levels, the estimate is
a-posteriori: every piece lies a fixed ratio of its width away from the
singularities, so the interpolants converge geometrically in n, and v_n's
error dominates v_2n's.  The node cap and the bound range bound the work:
one run forms at most 64 (r - 1) (P + 1) node values, P <= 2,000.

The unit-cube form of zeta(1, ..., 1, 2) takes a route of its own, a
one-variable Nystrom recursion on [0, 1] (_cube_step, eval_unit_cube_ones),
under the same doubling driver, so that it stays an independent check of
the chain.

integrate_semi_infinite integrates a caller's one-dimensional integrand over
[lower, oo) by the exp-sinh trapezoidal rule (Takahasi & Mori 1974), level
by level (_adaptive_unit).

Results that miss their tolerance are flagged, never silently truncated.
The values of eval_numeric at depth >= 2 leave through one float-range check
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
import itertools
import math
import sys
import threading
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Iterable, NamedTuple, Sequence

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


_MIN_BOUND, _MAX_BOUND = Fraction(1, 10**300), Fraction(10**300)  # lower bounds at depth >= 2


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


# The doubling driver of the chain and the unit cube.
_NODES, _MAX_NODES = 8, 64  # node counts n: the first, and the cap


def _doubling(run: Callable[[int], tuple[float, int, float]], tol: float) -> NumericResult:
    """run(n) -> (value, evaluations, rounding allowance) for n = 8, 16, ...
    until |v_2n - v_n| + the allowance of v_2n is <= tol (converged), the
    difference is within the allowance, or n = _MAX_NODES; returns v_2n with
    that estimate and the evaluations of every run."""
    n = _NODES
    prev, evaluations, _ = run(n)
    while True:
        n *= 2
        total, count, allowance = run(n)
        evaluations += count
        diff = abs(total - prev)
        error = diff + allowance
        if error <= tol or diff <= allowance or n == _MAX_NODES:
            return NumericResult(total, error, evaluations, error <= tol)
        prev = total


# The chain (module docstring).
_LOG2 = math.log(2.0)
_EPS = 2.0**-53  # unit roundoff
_BLOCK = 1 << 15  # elements of one interpolation temporary


@functools.cache
def _chebyshev(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n first-kind Chebyshev nodes cos((i + 1/2) pi / n) of [-1, 1],
    and the matrix from values at them to the coefficients of their
    interpolant in T_0, ..., T_{n-1}."""
    theta = (np.arange(n) + 0.5) * (np.pi / n)
    to_coeffs = np.cos(np.multiply.outer(np.arange(n), theta)) * (2.0 / n)
    to_coeffs[0] *= 0.5
    return np.cos(theta), to_coeffs


def _basis(xhat: np.ndarray, n: int) -> np.ndarray:
    """T_0, ..., T_{n-1} at xhat, clipped to [-1, 1], along a new last axis."""
    return np.cos(np.multiply.outer(np.arccos(np.clip(xhat, -1.0, 1.0)), np.arange(n)))


@functools.cache
def _step(n: int, p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The matrices of one antiderivative step at n nodes and power p,
    built on first use and kept for the process: (graded, bottom, edge).

    On [lo, lo + 1], lo = 1 (graded) or 0 (bottom), the matrix maps the
    values of psi at the nodes to the Chebyshev coefficients of
    F(x) = x^-(p+1) int_lo^x s^p psi~(s) ds, psi~ the interpolant (rows
    0..n-1), and to F(lo + 1) (row n).  Each integral is Fejer's first rule
    at n + p points, exact for a polynomial of degree n - 1 + p.  edge holds
    the coefficients of x^-(p+1) on [1, 2].  The temporaries hold
    (n + 1) (n + p) n numbers.
    """
    nodes, to_coeffs = _chebyshev(n)
    m = n + p
    theta = (np.arange(m) + 0.5) * (np.pi / m)
    j = np.arange(1, m // 2 + 1)
    weights = (1.0 - 2.0 * (np.cos(np.multiply.outer(theta, 2 * j)) / (4 * j * j - 1)).sum(axis=1)) / m
    fejer = 0.5 - 0.5 * np.cos(theta)  # Fejer's points on [0, 1], with weights summing to 1
    matrices = []
    for lo in (1.0, 0.0):
        ends = np.append(lo + 0.5 + 0.5 * nodes, lo + 1.0)
        s = lo + np.multiply.outer(ends - lo, fejer)
        lagrange = _basis(2.0 * (s - lo) - 1.0, n) @ to_coeffs
        f = np.einsum("iq,iqk->ik", (ends - lo)[:, None] * weights * s**p, lagrange) / ends[:, None] ** (p + 1)
        matrices.append(np.vstack((to_coeffs @ f[:n], f[n:])))
    edge = to_coeffs @ (1.5 + 0.5 * nodes) ** -(p + 1)
    return *matrices, edge


class _Geometry(NamedTuple):
    """The points of one step of the chain, which depend on its step shape
    alone, never on the exponents or on psi (_geometry)."""

    lz: np.ndarray  # log(1 + m_j w' / U_{j-1}) at the nodes w' of psi_{j-1}
    piece: np.ndarray  # the piece of psi_j holding phi(w'); empty at the first step
    blocks: Iterable[tuple[slice, np.ndarray]]  # (rows, T_0..T_{n-1} at their x^), each of at most _BLOCK elements
    size: int  # the elements of lz, piece and the basis


# The geometry memo: the geometry of each step shape, for every chain run in
# the process.  It holds no results, only points; an insert that would pass
# _MAX_GEOMETRY elements empties it first.
_MAX_GEOMETRY = 1 << 17
_GEOMETRY: dict[tuple, _Geometry] = {}
_geometry_held = 0  # the elements of the geometries in _GEOMETRY
_geometry_lock = threading.Lock()


def _clear_geometry() -> None:
    """Empty the geometry memo, so that the next runs build every step."""
    global _geometry_held
    with _geometry_lock:
        _GEOMETRY.clear()
        _geometry_held = 0


def _geometry(n: int, below: int | None, pieces: int, em: int, lfm: float, eu: int, lfu: float) -> _Geometry:
    """The geometry of a step of the chain at n nodes per piece: psi_{j-1}
    on pieces + 1 pieces (the nodes w' = 2^-q x, the bottom piece last) and
    psi_j on below + 1 pieces (None at the first step, which interpolates
    nothing), with m_j / U_{j-1} = 2^em e^lfm and U_j / U_{j-1} = 2^eu e^lfu.

    The point phi(w') = 2^-(q - eu) e^lt, lt = lfu + log x - lz, lies on
    psi_j's piece i, where it is x^ in [-1, 1], and the basis is
    T_0, ..., T_{n-1} at x^.  A geometry of (pieces + 1) n (n + 2) elements
    at most _MAX_GEOMETRY is stored in the memo and kept read-only; a larger
    one is built for its run alone and yields its basis block by block.
    """
    global _geometry_held
    key = n, below, pieces, em, lfm, eu, lfu
    with _geometry_lock:
        hit = _GEOMETRY.get(key)
    if hit is not None:
        return hit
    nodes, _ = _chebyshev(n)
    x = 0.5 + 0.5 * nodes
    q = np.arange(1.0, pieces + 2)[:, None]  # w' = 2^-q x, one row per piece, the bottom piece last
    q[-1] = pieces
    lx = np.empty((pieces + 1, n))
    lx[:-1], lx[-1] = np.log1p(x), np.log(x)
    lz = np.logaddexp(0.0, (em - q) * _LOG2 + (lfm + lx))
    if below is None:
        piece, xhat = np.empty(0, int), np.empty(0)
    else:
        shift, lt = q - eu, (lfu + lx) - lz
        i = np.clip(np.floor(shift - lt * (1.0 / _LOG2)), 0, below)  # phi(w')'s piece
        graded = i < below
        # x^ maps phi(w') 2^(i+1) on a graded piece, phi(w') 2^P on the bottom one, to [-1, 1]
        xhat = (2.0 * np.exp(lt + (i + graded - shift) * _LOG2) - np.where(graded, 3.0, 1.0)).ravel()
        piece = i.astype(int).ravel()
    rows = max(1, _BLOCK // n)
    blocks = ((slice(a, a + rows), _basis(xhat[a : a + rows], n)) for a in range(0, xhat.size, rows))
    geometry = _Geometry(lz.ravel(), piece, blocks, lz.size + piece.size * (n + 1))
    if geometry.size > _MAX_GEOMETRY:
        return geometry
    geometry = geometry._replace(blocks=tuple(blocks))
    for a in (geometry.lz, piece, *(basis for _, basis in geometry.blocks)):
        a.flags.writeable = False
    with _geometry_lock:
        if _geometry_held + geometry.size > _MAX_GEOMETRY:
            _GEOMETRY.clear()
            _geometry_held = 0
        if _GEOMETRY.setdefault(key, geometry) is geometry:
            _geometry_held += geometry.size
    return geometry


def _ratio(a: float, b: float) -> tuple[int, float]:
    """a / b = 2^e f, f in [1/2, 1), for positive normal floats: (e, log f)."""
    (fa, ea), (fb, eb) = math.frexp(a), math.frexp(b)
    f, e = math.frexp(fa / fb)
    return ea - eb + e, math.log(f)


def _chain_plan(t: ShiftedCMZV) -> tuple[list, float, float, float]:
    """The constants of the chain runs on t, formed once per call: the
    steps j = r, ..., 2, each (pieces of psi_{j-1}, then m_j / U_{j-1} and
    U_j / U_{j-1} as _ratio gives them, sigma_{j-1}, p_{j-1}); log B_r; the
    log of the final factor m_1^(r - weight); and the part of the rounding
    allowance that does not depend on n (_chain)."""
    k = t.exponents.parts
    r = len(k)
    bounds = [float(b) for b in t.bounds]
    sums = list(itertools.accumulate(bounds))
    sigma = [sum(k[i] - 1 for i in range(j + 1, r)) for j in range(r)]
    steps, size = [], 0.0
    for j in range(r - 1, 0, -1):
        em, lfm = _ratio(bounds[j], sums[j - 1])
        eu, lfu = _ratio(sums[j], sums[j - 1])
        e, lf = _ratio(max(bounds[j:]), sums[j - 1])
        pieces = max(0, math.ceil(e + lf / _LOG2)) + 2
        lz_max = eu * _LOG2 + lfu  # log(U_j / U_{j-1}), the largest log(1 + m_j w' / U_{j-1})
        steps.append((pieces, em, lfm, eu, lfu, sigma[j - 1], k[j - 1] - 2 + sigma[j - 1]))
        size += (t.weight + sigma[j - 1] + 2) * lz_max + (pieces + 2) * _LOG2
    lead = (r - t.weight) * math.log(bounds[0])
    return steps, -math.log(k[-1] - 1), lead, size + 2.0 * abs(lead)


def _chain(plan: tuple, n: int) -> tuple[float, int, float]:
    """One run of the chain at n nodes per piece: (value, node values of psi
    formed, rounding allowance of the value).

    Each step reaches its nodes w' = 2^-q x and the points phi(w') =
    2^-(q - e_u) e^lt in logarithms whose powers of 2 stay integers, so
    log(1 + m_j w' / U_{j-1}) is formed without cancelling large logs.
    Those points depend on the step's shape alone and come from the
    geometry memo (_geometry); the run itself does only the work that
    depends on psi: per step, a gather of B's coefficients at the points'
    pieces, one product with the stored basis, a log, and the next
    antiderivative (_interpolate, _antiderivative).  The
    relative allowance is twice, in units of 2^-53, n + 16 per step for the
    rounding of the matrix products and interpolants (whose Lebesgue
    constants stay below 4 at n <= 64), plus the sizes of the logarithms
    formed: the scales of psi, (weight + sigma + 2) log(U_j / U_{j-1}) for
    the points phi(w') (B moves by at most weight times their relative
    error) and psi's factor, the powers of 2 of the pieces, and the final
    factor and log B_1(1).  Measured against mpmath at n = 32 and 64, over
    depth-2 targets with bounds from 1e-300 to 1e300 and the depth-3
    generators, the rounding error stayed below a sixth of it.
    """
    steps, log_b, lead, size = plan
    formed = 0
    below = None
    for pieces, em, lfm, eu, lfu, sigma, p in steps:
        geometry = _geometry(n, below, pieces, em, lfm, eu, lfu)
        lpsi = -sigma * geometry.lz
        lpsi += log_b if below is None else _interpolate(scale, coeffs, geometry)
        scale, coeffs, log_b = _antiderivative(lpsi.reshape(pieces + 1, n), p)
        below = pieces
        formed += lpsi.size
        size += n + 16 + float(np.abs(scale).max())
    log_value = lead + log_b
    size += abs(log_value)
    with np.errstate(over="ignore"):  # _in_float_range reports an infinite value
        value = float(np.exp(log_value))
    return value, formed, 2.0 * size * _EPS * value


def _antiderivative(lpsi: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray, float]:
    """B(t) = int_0^1 s^p psi(t s) ds on psi's pieces, from log psi at the
    nodes (one row per piece, the bottom piece last): (scale, coeffs,
    log B(1)), with B = e^scale[i] sum_m coeffs[i, m] T_m on piece i.

    beta_i = B(2^-i) e^-scale[i] runs from the bottom piece up: B(2a) =
    B(a) 2^-(p+1) + e^scale F(2), each term positive (_step).
    """
    pieces, n = lpsi.shape[0] - 1, lpsi.shape[1]
    graded, bottom, edge = _step(n, p)
    scale = lpsi.max(axis=1)
    y = np.exp(lpsi - scale[:, None])
    coeffs = np.empty_like(y)
    low = bottom @ y[-1]
    coeffs[-1] = low[:n]
    up = y[:-1] @ graded.T
    rise = np.exp(scale[1:] - scale[:-1]).tolist()  # e^(scale[i+1] - scale[i])
    tops = up[:, n].tolist()
    half = 0.5 ** (p + 1)
    beta, carried = float(low[n]), [0.0] * pieces
    for i in range(pieces - 1, -1, -1):
        carried[i] = beta * rise[i]  # B(2^-(i+1)) e^-scale[i]
        beta = carried[i] * half + tops[i]
    coeffs[:-1] = up[:, :n] + np.multiply.outer(carried, edge)
    return scale, coeffs, float(scale[0]) + math.log(beta)


def _interpolate(scale: np.ndarray, coeffs: np.ndarray, geometry: _Geometry) -> np.ndarray:
    """log B at the points phi(w') of geometry from its pieces (scale, coeffs
    of _antiderivative), one block of the basis at a time."""
    piece = geometry.piece
    out = np.empty(piece.shape)
    for block, basis in geometry.blocks:
        out[block] = (basis * coeffs[piece[block]]).sum(axis=1)
    np.log(out, out=out)
    out += scale[piece]
    return out


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
    otherwise (a subnormal value too).  Depth r >= 2 runs the chain of the
    module docstring under the doubling driver: r - 1 one-variable steps
    per run, n = 8, 16, ... up to 64 nodes per piece.  The estimate is
    |v_2n - v_n| plus the rounding allowance of v_2n, which grows with n,
    the depth and the sizes of the logarithms the run formed (_chain), and
    `evaluations` counts the node values of psi formed over every run.  The
    node cap and the bound range bound the work: a run forms at most
    64 (r - 1) (P + 1) node values, with P <= 2,000 pieces per step.
    Depths >= 2 need every lower bound in [1e-300, 1e300], and a value that
    is a finite normal float (_in_float_range); DomainError otherwise.
    Results are memoized per (bounds, exponents): a stored result serves
    every tol at or above its error estimate if it converged, else at or
    above the tol it was computed at, and is converged when its estimate
    meets tol.
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
        plan = _chain_plan(t)
        return _in_float_range(_doubling(lambda n: _chain(plan, n), tol))

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


# The unit-cube recursion (eval_unit_cube_ones).
_CUBE_ROUND = 2.0**-51  # rounding allowance of one step, per node: delta_n = n 2^-51


@functools.cache
def _cube_step(n: int) -> np.ndarray:
    """The n x n matrix of one step F_{k-1} -> F_k of the unit-cube
    recursion (eval_unit_cube_ones), built on first use and kept read-only
    for the process.

    F is held at the Chebyshev-Lobatto nodes u_i = (1 - cos(pi i/(n-1)))/2
    of [0, 1].  Row i integrates F_{k-1}(t) / (1 + u_i y), t = u_i y/(1 + u_i y),
    by the n-point Gauss-Legendre rule in y (_gauss_legendre), with
    F_{k-1}(t) interpolated from the nodes in the barycentric form.  The
    node u = 0 has the exact row F_k(0) = F_{k-1}(0); every other t lies in
    (0, 1/2), and off the nodes, as checked for every n up to _MAX_NODES.
    The temporaries hold n^3 numbers.
    """
    u = 0.5 - 0.5 * np.cos(np.pi * np.arange(n) / (n - 1))
    weights = np.resize([1.0, -1.0], n)
    weights[[0, -1]] *= 0.5
    y, w = _gauss_legendre(n)
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


def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss-Legendre rule on [-1, 1]: nodes in ascending order,
    and weights.

    Newton's method on P_n, from the three-term recurrence, refines the
    nonnegative nodes from cos(pi (i + 3/4) / (n + 1/2)) until no node moves
    by more than 2^-52, and the negative ones mirror them.  With
    P_n'(x) = n (P_{n-1} - x P_n) / (1 - x^2), the weights are
    2 (1 - x^2) / (n (P_{n-1} - x P_n))^2, with 1 - x^2 formed as
    (1 - x)(1 + x).  Against the rule at 40 digits, for n = 8..64, the
    weights are within 7e-14 relative (9e-14 with 1 - x^2 as written;
    numpy's leggauss, 1.8e-12), and every x^d, d < 2n, integrates within
    6 2^-52 of 2/(d + 1) or 0 (leggauss, 51 2^-52).
    """
    x = np.cos(np.pi * (np.arange((n + 1) // 2) + 0.75) / (n + 0.5))
    for _ in range(10):  # 5 iterations at most for every n <= 128
        prev, p = _legendre(n, x)
        dx = p * ((1.0 - x) * (1.0 + x)) / (n * (prev - x * p))
        x = x - dx
        if np.abs(dx).max() <= 2.0**-52:
            break
    prev, p = _legendre(n, x)
    w = 2.0 * ((1.0 - x) * (1.0 + x)) / (n * (prev - x * p)) ** 2
    half = n // 2
    return np.concatenate((-x[:half], x[::-1])), np.concatenate((w[:half], w[::-1]))


def _legendre(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_{n-1}(x) and P_n(x), n >= 1, by the three-term recurrence."""
    prev, p = np.ones_like(x), x
    for k in range(2, n + 1):
        prev, p = p, ((2 * k - 1) * x * p - (k - 1) * prev) / k
    return prev, p


def eval_unit_cube_ones(r: int, tol: float | None = None, depth_cap: int = 6) -> NumericResult:
    """Unit-cube form of the all-ones-then-2 value at depth r >= 2:

        zeta_C(1, ..., 1, 2)  (r-1 ones)
            = int_{[0,1]^{r-1}} dy / (1 + y_1 + y_1 y_2 + ... + y_1...y_{r-1}).

    An independent route from eval_numeric: bounded domain, a different
    variable and integrand, and its own matrices.  The integrand is
    homogeneous: with k variables left and the denominator
    A + B y_1 + B y_1 y_2 + ..., the integral is F_k(B/A)/A, where F_0 = 1 and
        F_k(u) = int_0^1 F_{k-1}(u y/(1 + u y)) dy / (1 + u y),  0 <= u <= 1,
    and the value is F_{r-1}(1): r - 1 Nystrom steps (Atkinson 1997) of one
    variable each, each a product by the matrix of _cube_step(n).  A run
    starts from F = 1 and reads F_{r-1}(1); the doubling driver that the
    chain uses (_doubling) runs n = 8, 16, ... and returns F_2n(1) with the
    estimate |F_2n(1) - F_n(1)| + (r - 1) delta_2n, once that is <= tol.

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
    n = _MAX_NODES.  evaluations = sum over the n tried of (r - 1) n^2.

    Results share eval_numeric's memo, keyed ("cube", r).  The depth cap is
    checked on the target (1, ..., 1, 2), by compositions.admissible_target,
    as eval_numeric does.
    """
    if not (isinstance(r, int) and r >= 2):
        raise DomainError(f"need integer depth r >= 2, got {r!r}")
    admissible_target((1,) * (r - 1) + (2,), depth_cap)
    tol = _tolerance(tol, r)

    def run(n: int) -> tuple[float, int, float]:
        step, f = _cube_step(n), np.ones(n)
        for _ in range(r - 1):
            f = step @ f
        return float(f[-1]), (r - 1) * n * n, (r - 1) * n * _CUBE_ROUND

    return _memoized(("cube", r), tol, lambda tol: _doubling(run, tol))


# The exp-sinh rule of integrate_semi_infinite.
_MAX_POINTS = 1 << 28  # integrand points per call; a call that would pass it stops
_MAX_LEVEL = 11  # finest step h = 2^-11, so the rule has under 2^15 nodes
_S_START, _S_STEP, _S_CAP = 3.0, 0.5, 7.0  # node range in s: start, growth, |s| cap
_ROUND = 1e-13  # relative rounding allowance of a value


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


def _end(m: list, h: float, share: float, room: int) -> tuple[float | None, int]:
    """Tail bound beyond the end node of the rule, and how many nodes to add
    (> 0) or drop (< 0) at that end; m is the weighted integrand values from
    that end inward, and room is how many nodes may still be added.

    Over the last half unit of s (k nodes) the end value fell by a per-node
    ratio rho; the decay is double-exponential, so the omitted nodes sum to
    at most last * rho / (1 - rho).  A tail that does not fall is unbounded
    (None).  Only nodes of the falling run are dropped, while they and the
    tail stay below share / 16, keeping k falling nodes behind the new end.
    """
    k = min(len(m) - 1, max(1, round(0.5 / h)))
    last, back = m[0], m[k]
    rho = (last / back) ** (1.0 / k) if back > last else 1.0
    if last == 0.0:
        tail = 0.0
    elif rho < 1.0:
        tail = last * rho / (1.0 - rho)
    else:
        tail = None  # the end does not fall, or by too little for rho to round below 1
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


def integrate_semi_infinite(
    f: Callable[[np.ndarray], np.ndarray], lower: float, tol: float = 1e-10
) -> NumericResult:
    """Integral of a vectorized integrand over [lower, oo), for
    one-dimensional cross-checks against closed forms.

    The exp-sinh rule (_adaptive_unit) maps x = lower + sigma E,
    E = exp(pi sinh s), sigma = max(1, |lower|), whose Jacobian is
    sigma pi cosh s E; f receives flat 1-D arrays of x.  The estimate is
    |I_h - I_2h| + end tails + 1e-13 |I_h|, and a call stops unconverged at
    _MAX_POINTS evaluations.  An integrand that decays so slowly that the
    node range grows past s ~ 6.1, where E overflows, raises DomainError
    rather than counting those nodes as 0.  So does a lower bound that is
    not a finite float, and a run whose value and estimate are both 0: every
    integrand value it saw was 0 (barring exact cancellation), which an
    integral that underflowed, such as x^-2 from 1e300, gives as well as one
    that is 0.
    """
    lower = float(lower)
    if not math.isfinite(lower):
        raise DomainError(f"the lower bound must be finite, got {lower}")
    result = _adaptive_unit(f, lower, _tolerance(tol, 1))
    if result.value == 0.0 and result.error_estimate == 0.0:
        raise DomainError("every integrand value was 0: the integral underflowed or is 0, which the rule cannot tell")
    return result


def _adaptive_unit(f: Callable[[np.ndarray], np.ndarray], lower: float, tol: float) -> NumericResult:
    """The exp-sinh level loop of integrate_semi_infinite.

    h halves from 1/2 down to 2^-_MAX_LEVEL; a level sums the weighted
    integrand over s = n h inside a node range.  The range starts at
    |s| <= 3; on the first level it grows by half a unit (up to |s| <= 7)
    while an end's tail (_end) exceeds tol / 16, on later levels while a
    tail is unbounded, and between levels it sheds end nodes far below that
    share.  An integrand value of 0 contributes 0, also where the weight
    overflows.  The run stops at the first level whose estimate
    |I_h - I_2h| + tails + _ROUND |I_h| is <= tol; it stops unconverged once
    the rule part is within the rounding part, once tol is below rounding
    at a level that did not narrow the rule, at the finest step, or before
    passing _MAX_POINTS points.

    perfbench/worker.py traces this name as the 1-D rule layer
    (quad.rule_calls, quad.rule_self_s).
    """
    sigma = max(1.0, abs(lower))
    lo = hi = round(2 * _S_START)  # nodes below and above s = 0, at h = 1/2
    share = tol / 16
    evaluations = points = 0
    prev = value = error = 0.0
    prev_rule = math.inf
    converged = False
    for level in range(1, _MAX_LEVEL + 1):
        h = 0.5**level
        cap = round(_S_CAP / h)
        if level > 1:
            lo, hi = 2 * lo, 2 * hi
            if evaluations + 2 * points > _MAX_POINTS:
                break
        while True:
            _, _, e, pc = (col[cap - lo : cap + hi + 1] for col in _exp_sinh_nodes(level))
            if not np.isfinite(e).all():
                raise DomainError(
                    "the exp-sinh map overflowed before the tail was bounded; "
                    "the integrand decays too slowly"
                )
            with np.errstate(over="ignore", invalid="ignore"):
                fx = f(lower + sigma * e)
                m = np.where(fx == 0.0, 0.0, fx * (sigma * pc * e)) * h
            points = m.size
            evaluations += points
            total = float(m.sum())
            if not math.isfinite(total):
                raise DomainError("the value exceeds the float range of the numeric route")
            ms = m.tolist()
            ends = _end(ms, h, share, cap - lo), _end(ms[::-1], h, share, cap - hi)
            tails = sum(abs(total) if tail is None else tail for tail, _ in ends)
            # The first level grows its range until both tails are within
            # their share; later levels only until both are bounded.
            grow = [max(move, 0) if tail is None or level == 1 else 0 for tail, move in ends]
            if not any(grow):
                break
            lo, hi = lo + grow[0], hi + grow[1]
        lo, hi = lo + ends[0][1], hi + ends[1][1]
        value = total
        if level == 1:
            error = abs(total) + tails
        else:
            rule = abs(total - prev) + tails
            error = rule + _ROUND * abs(total)
            if error <= tol:
                converged = True
                break
            if rule <= _ROUND * abs(total):
                break  # rounding alone misses tol; a finer step cannot help
            if tol < _ROUND * (abs(total) - rule) and rule >= prev_rule:
                break  # no level can meet tol, and this one did not narrow the rule
            prev_rule = rule
        prev = total
    return NumericResult(value, error, evaluations, converged)


def eval_basis_generator(
    ids: Sequence[Fraction | int], tol: float | None = None, depth_cap: int = 6
) -> NumericResult:
    """Numeric value of the basis generator B(ids) = zeta_{ids}(1, ..., 1, 2),
    the tail integral with lower bounds ids and exponents (1, ..., 1, 2)."""
    exps = (1,) * (len(ids) - 1) + (2,)
    return eval_numeric(ShiftedCMZV(ids, exps), tol=tol, depth_cap=depth_cap)

"""Cross-verification suites: every exact identity is re-checked numerically.

Each suite produces an ordered list of CheckResult rows.  Suites:

    shuffle    product rule: value(w1 shuffled w2) == value(w1) * value(w2)
    embedding  zeta(k_1..k_r) == zeta(..., k_r - 1, 2) + zeta(..., k_r, 2)
    unitcube   all-ones unit-cube integral == zeta(1,..,1,2) at each depth
    bounds     0 < numeric value < the a-priori convergence bound, strictly
    reduction  exact reduction output re-evaluates to the quadrature value;
               emitted basis ids sum to the depth; generator counts are 2^(r-1)

Each row also says whether every numeric value it rests on converged.
Each suite lists only checks whose values fit the depth cap.  Checks run in
order in the calling thread, so results come in construction order.  The
corrupt flag deliberately mis-states one expected constant so callers can
watch the harness fail; it must never pass.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import quad
from .compositions import (
    Composition,
    admissible_compositions,
    composition_from_word,
    convergence_bound,
    word_from_composition,
)
from .errors import DomainError
from .quad import NumericResult, ShiftedCMZV, default_tolerance, term_tolerance
from .reduce import SymbolicConstant, basis_ids, reduce_to_basis
from .shuffle import shuffle, z_map

SUITES = ("shuffle", "embedding", "unitcube", "bounds", "reduction")


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    passed: bool
    detail: str
    converged: bool = True  # every numeric value the check rests on converged

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "name": self.name,
            "passed": self.passed,
            "detail": self.detail,
            "converged": self.converged,
        }


class _Values:
    """Numeric values for one check, remembering whether all converged."""

    def __init__(self, depth_cap: int):
        self.depth_cap = depth_cap
        self.converged = True

    def _take(self, res: NumericResult) -> float:
        self.converged = self.converged and res.converged
        return res.value

    def semi(self, target, tol: float | None) -> float:
        return self._take(quad.eval_numeric(target, tol=tol, depth_cap=self.depth_cap))

    def cube(self, r: int, tol: float) -> float:
        return self._take(quad.eval_unit_cube_ones(r, tol=tol))

    def generator(self, ids, tol: float | None) -> float:
        return self._take(quad.eval_basis_generator(ids, tol, self.depth_cap))


def _compare(
    suite: str, name: str, la: str, lb: str, a: float, b: float, tol: float, converged: bool,
    note: str = "",
) -> CheckResult:
    """The check |a - b| <= tol, with a and b labelled la and lb in the
    detail, on values that all converged or not; a non-empty note is
    appended and fails the check outright."""
    diff = abs(a - b)
    detail = f"{la}={a:.10f} {lb}={b:.10f} diff={diff:.3e} tol={tol:.1e}{note}"
    return CheckResult(suite, name, diff <= tol and not note, detail, converged)


def reduction_residual(
    sc: SymbolicConstant, target: ShiftedCMZV | Composition, tol: float | None, depth_cap: int
) -> tuple[float, float, bool]:
    """(float value of a reduction sc with its basis generators evaluated
    at tol, quadrature value of target at the same tol, whether every one
    of those values converged)."""
    values = _Values(depth_cap)
    symbolic = sc.evaluate(lambda ids: values.generator(ids, tol))
    return symbolic, values.semi(target, tol), values.converged


def _compositions(max_weight: int, max_depth: int) -> list[Composition]:
    """The admissible compositions of weight <= max_weight and depth <= max_depth."""
    return [
        c
        for w in range(2, max_weight + 1)
        for c in admissible_compositions(w)
        if c.depth <= max_depth
    ]


def suite_shuffle(max_weight: int = 5, tol: float = 1e-5, depth_cap: int = 6) -> list:
    """Numeric product rule for every unordered pair of admissible words with
    total weight <= max_weight and total depth <= depth_cap."""

    words = [word_from_composition(c) for c in _compositions(max_weight - 2, depth_cap)]
    pairs = [
        (w1, w2)
        for i, w1 in enumerate(words)
        for w2 in words[i:]
        if len(w1) + len(w2) <= max_weight and w1.count("y") + w2.count("y") <= depth_cap
    ]

    def run(pair):
        w1, w2 = pair
        values = _Values(depth_cap)
        image = z_map(shuffle(w1, w2))
        per_term = term_tolerance(tol, (q for _, q in image))
        lhs = float(image.constant)
        for c, q in image:
            lhs += float(q) * values.semi(c, per_term)
        rhs = values.semi(composition_from_word(w1), tol / 8.0) * values.semi(
            composition_from_word(w2), tol / 8.0
        )
        return _compare(
            "shuffle", f"{w1} shuffled {w2}", "lhs", "rhs", lhs, rhs, tol, values.converged
        )

    return [(f"{w1}|{w2}", run, (w1, w2)) for w1, w2 in pairs]


def suite_embedding(max_weight: int = 5, tol: float = 1e-6, depth_cap: int = 6) -> list:
    """One-step depth raising for every admissible composition up to
    max_weight whose raised depth fits depth_cap."""
    from .reduce import depth_embedding

    comps = _compositions(max_weight, depth_cap - 1)

    def run(c):
        lo, hi = depth_embedding(c)
        values = _Values(depth_cap)
        lhs = values.semi(c, tol / 4.0)
        rhs = values.semi(lo, tol / 4.0) + values.semi(hi, tol / 4.0)
        return _compare(
            "embedding", f"{c} = {lo} + {hi}", "lhs", "rhs", lhs, rhs, tol, values.converged
        )

    return [(str(c), run, c) for c in comps]


def suite_unitcube(max_depth: int = 4, tol: float = 1e-6, depth_cap: int = 6) -> list:
    """Unit-cube all-ones integral against the semi-infinite form, r = 2..max_depth."""

    def run(r):
        values = _Values(depth_cap)
        cube = values.cube(r, tol / 4.0)
        semi = values.semi(Composition((1,) * (r - 1) + (2,)), tol / 4.0)
        return _compare("unitcube", f"depth {r}", "cube", "semi", cube, semi, tol, values.converged)

    return [(f"r={r}", run, r) for r in range(2, max_depth + 1)]


def suite_bounds(max_weight: int = 5, tol: float = 1e-6, depth_cap: int = 6) -> list:
    """Numeric value strictly inside (0, convergence_bound) for every
    admissible composition up to max_weight and depth_cap."""
    comps = _compositions(max_weight, depth_cap)

    def run(c):
        bound = float(convergence_bound(tuple(float(k) for k in c.parts)))
        values = _Values(depth_cap)
        val = values.semi(c, default_tolerance(c.depth))
        # depth 1 saturates the bound exactly (the bound IS the value there)
        ok = 0.0 < val < bound if c.depth >= 2 else 0.0 < val <= bound
        return CheckResult(
            "bounds", str(c), ok, f"value={val:.10f} bound={bound:.10f} ok={ok}", values.converged
        )

    return [(str(c), run, c) for c in comps]


def suite_reduction(
    max_weight: int = 5,
    tol: float = 1e-6,
    depth_cap: int = 6,
    seed: int = 0,
) -> list:
    """Exact reduction vs quadrature for the admissible compositions up to
    max_weight and depth_cap, basis-id bookkeeping, generator counts, and
    seeded random shifted-bound spot checks of depth 2 when the cap allows."""
    comps = _compositions(max_weight, depth_cap)

    def run_comp(c):
        sc = reduce_to_basis(c, depth_cap=depth_cap)
        bad_ids = [ids for ids, _ in sc.basis if sum(ids) != c.depth or any(m != int(m) for m in ids)]
        sym, num, converged = reduction_residual(sc, c, tol / 4.0, depth_cap)
        note = f" bad_ids={bad_ids}" if bad_ids else ""
        return _compare("reduction", str(c), "symbolic", "numeric", sym, num, tol, converged, note)

    def run_counts(r):
        n = sum(1 for _ in basis_ids(r))
        return CheckResult(
            "reduction",
            f"generator count depth {r}",
            n == 2 ** (r - 1),
            f"count={n} expected={2 ** (r - 1)}",
        )

    def run_shifted(args):
        m1, m2 = args
        sc = reduce_to_basis(Composition((1, 2)), (m1, m2))
        target = ShiftedCMZV((m1, m2), Composition((1, 2)))
        sym, num, converged = reduction_residual(sc, target, tol / 4.0, depth_cap)
        name = f"shifted (1,2) bounds ({m1},{m2})"
        return _compare("reduction", name, "symbolic", "numeric", sym, num, tol, converged)

    checks = [(str(c), run_comp, c) for c in comps]
    checks.extend((f"count r={r}", run_counts, r) for r in range(1, 11))
    if depth_cap >= 2:
        rng = random.Random(seed)
        for _ in range(5):
            m1, m2 = rng.randint(1, 6), rng.randint(1, 6)
            checks.append((f"shifted {m1},{m2}", run_shifted, (m1, m2)))
    return checks


# Each suite's builder (max weight, tol, depth cap, seed) -> checks, default
# max weight and default tolerance.
_SUITE_TABLE = {
    "shuffle": (lambda mw, t, cap, seed: suite_shuffle(mw, t, cap), 5, 1e-5),
    "embedding": (lambda mw, t, cap, seed: suite_embedding(mw, t, cap), 5, 1e-6),
    "unitcube": (lambda mw, t, cap, seed: suite_unitcube(min(mw, 4, cap), t, cap), 4, 1e-6),
    "bounds": (lambda mw, t, cap, seed: suite_bounds(mw, t, cap), 5, 1e-6),
    "reduction": (lambda mw, t, cap, seed: suite_reduction(mw, t, cap, seed=seed), 5, 1e-6),
}


def run_suite(
    name: str,
    max_weight: int | None = None,
    tol: float | None = None,
    depth_cap: int = 6,
    jobs: int = 1,
    seed: int = 0,
    corrupt: bool = False,
) -> list[CheckResult]:
    """Run one suite (or 'all') in order in the calling thread.  jobs is
    accepted for compatibility and has no effect."""
    names = SUITES if name == "all" else (name,)
    checks = []
    for n in names:
        if n not in _SUITE_TABLE:
            raise DomainError(f"unknown suite {name!r}; choose from {('all',) + SUITES}")
        build, mw, dtol = _SUITE_TABLE[n]
        mw = max_weight if max_weight is not None else mw
        t = tol if tol is not None else dtol
        checks.extend(build(mw, t, depth_cap, seed))

    if corrupt:
        # harness self-test: a deliberately wrong constant must be caught
        def run_corrupt(_):
            wrong = 0.6941471805599453  # log 2 corrupted in the third digit
            res = quad.eval_numeric(Composition((1, 2)), tol=1e-9)
            diff = abs(res.value - wrong)
            return CheckResult(
                "self-test",
                "corrupted constant for (1,2)",
                diff <= 1e-6,
                f"value={res.value:.10f} claimed={wrong:.10f} diff={diff:.3e}",
                res.converged,
            )

        checks.append(("corrupt", run_corrupt, None))

    return [fn(arg) for _, fn, arg in checks]

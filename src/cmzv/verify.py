"""Cross-verification suites: every exact identity is re-checked numerically.

Each suite produces an ordered list of CheckResult rows.  Suites:

    shuffle    product rule: value(w1 shuffled w2) == value(w1) * value(w2)
    embedding  zeta(k_1..k_r) == zeta(..., k_r - 1, 2) + zeta(..., k_r, 2)
    unitcube   all-ones unit-cube integral == zeta(1,..,1,2) at each depth
    bounds     0 < numeric value < the a-priori convergence bound, strictly
    reduction  exact reduction output re-evaluates to the quadrature value;
               emitted basis ids sum to the depth; generator counts are 2^(r-1)

Each row also says whether every numeric value it rests on converged.
Each suite runs, in order in the calling thread, only the checks whose
values fit the depth cap and returns their rows; run_suite concatenates the
suites in the order above.  The corrupt flag appends a last row that
deliberately mis-states one expected constant so callers can watch the
harness fail; it must never pass.  term_tolerance and _Values.weighted are
the one policy for checking a weighted sum, in the suites and verify_identity.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from . import quad
from .compositions import (
    Composition,
    ShiftedCMZV,
    admissible_compositions,
    as_target,
    composition_from_word,
    convergence_bound,
    word_from_composition,
)
from .errors import DomainError
from .quad import NumericResult, default_tolerance
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
    """Numeric values for one check, remembering whether all converged and
    how many integrand evaluations they cost."""

    def __init__(self, depth_cap: int):
        self.depth_cap = depth_cap
        self.converged = True
        self.evaluations = 0

    def _take(self, res: NumericResult) -> float:
        self.converged = self.converged and res.converged
        self.evaluations += res.evaluations
        return res.value

    def weighted(self, terms, tol: float | None, start: float = 0.0) -> float:
        """start + sum of q * value(target) over (target, q) terms, each value
        at tol; terms with coefficient 0 are never evaluated."""
        total = start
        for target, q in terms:
            if q != 0:
                total += float(q) * self.semi(target, tol)
        return total

    def semi(self, target, tol: float | None) -> float:
        return self._take(quad.eval_numeric(target, tol=tol, depth_cap=self.depth_cap))

    def cube(self, r: int, tol: float) -> float:
        return self._take(quad.eval_unit_cube_ones(r, tol, self.depth_cap))

    def generator(self, ids, tol: float | None) -> float:
        return self._take(quad.eval_basis_generator(ids, tol, self.depth_cap))


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
    directly.  Without tol, the default tolerance of the deepest term is
    used, so an identity with no terms needs an explicit tol.
    """
    lhs_terms = [(as_target(t), Fraction(q)) for t, q in lhs]
    rhs_terms = [(as_target(t), Fraction(q)) for t, q in rhs]
    terms = lhs_terms + rhs_terms
    if tol is None:
        if not terms:
            raise DomainError("an identity with no terms has no default tolerance; give tol")
        tol = default_tolerance(max(t.depth for t, _ in terms))
    per_term = term_tolerance(tol, (q for _, q in terms))
    values = _Values(depth_cap)
    lhs_value = values.weighted(lhs_terms, per_term)
    rhs_value = values.weighted(rhs_terms, per_term) + float(Fraction(rhs_constant))
    difference = abs(lhs_value - rhs_value)
    return {
        "lhs_value": lhs_value,
        "rhs_value": rhs_value,
        "difference": difference,
        "tolerance": tol,
        "passed": bool(difference <= tol),
        "converged": bool(values.converged),
        "evaluations": values.evaluations,
    }


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

    def run(w1, w2):
        values = _Values(depth_cap)
        image = z_map(shuffle(w1, w2))
        per_term = term_tolerance(tol, (q for _, q in image))
        lhs = values.weighted(image, per_term, float(image.constant))
        rhs = values.semi(composition_from_word(w1), tol / 8.0) * values.semi(
            composition_from_word(w2), tol / 8.0
        )
        return _compare(
            "shuffle", f"{w1} shuffled {w2}", "lhs", "rhs", lhs, rhs, tol, values.converged
        )

    return [run(w1, w2) for w1, w2 in pairs]


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

    return [run(c) for c in comps]


def suite_unitcube(max_depth: int = 4, tol: float = 1e-6, depth_cap: int = 6) -> list:
    """Unit-cube all-ones integral against the semi-infinite form, r = 2..max_depth."""

    def run(r):
        values = _Values(depth_cap)
        cube = values.cube(r, tol / 4.0)
        semi = values.semi(Composition((1,) * (r - 1) + (2,)), tol / 4.0)
        return _compare("unitcube", f"depth {r}", "cube", "semi", cube, semi, tol, values.converged)

    return [run(r) for r in range(2, max_depth + 1)]


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

    return [run(c) for c in comps]


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

    def run_shifted(m1, m2):
        target = ShiftedCMZV((m1, m2), Composition((1, 2)))
        sc = reduce_to_basis(target, depth_cap=depth_cap)
        sym, num, converged = reduction_residual(sc, target, tol / 4.0, depth_cap)
        name = f"shifted (1,2) bounds ({m1},{m2})"
        return _compare("reduction", name, "symbolic", "numeric", sym, num, tol, converged)

    results = [run_comp(c) for c in comps]
    results.extend(run_counts(r) for r in range(1, 11))
    if depth_cap >= 2:
        rng = random.Random(seed)
        for _ in range(5):
            results.append(run_shifted(rng.randint(1, 6), rng.randint(1, 6)))
    return results


# Each suite's runner (max weight, tol, depth cap, seed) -> results, default
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
    """Run one suite (or 'all') in order in the calling thread and return
    its rows, with the corrupt self-test row last.  A run whose suites list
    no check raises DomainError.  jobs is ignored; it stays because
    perfbench/worker.py passes jobs=1."""
    names = SUITES if name == "all" else (name,)
    results = []
    for n in names:
        if n not in _SUITE_TABLE:
            raise DomainError(f"unknown suite {name!r}; choose from {('all',) + SUITES}")
        run, mw, dtol = _SUITE_TABLE[n]
        mw = max_weight if max_weight is not None else mw
        results.extend(run(mw, tol if tol is not None else dtol, depth_cap, seed))
    if not results:
        # only a single suite can be empty: 'all' always has the generator counts
        raise DomainError(
            f"verify {name} selects no checks at max weight {mw} and depth cap {depth_cap}"
        )

    if corrupt:
        # harness self-test: a deliberately wrong constant must be caught
        wrong = 0.6941471805599453  # log 2 corrupted in the third digit
        res = quad.eval_numeric(Composition((1, 2)), tol=1e-9)
        diff = abs(res.value - wrong)
        detail = f"value={res.value:.10f} claimed={wrong:.10f} diff={diff:.3e}"
        label = "corrupted constant for (1,2)"
        results.append(CheckResult("self-test", label, diff <= 1e-6, detail, res.converged))
    return results

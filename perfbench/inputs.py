"""Workload inputs, made from the seed alone.

Nothing here imports cmzv: the benchmark enumerates its own sum-formula
targets and weights, so the checks in reference.py do not rest on the code
they check.  The seed fixes the order of operations in a pass (and the
spot-check seed of the verify suites); the set of operations is the same
for every seed.

Every operation is a dict with an "id" and a "kind":
  semi    quad.eval_numeric of a composition at a tolerance
  cube    quad.eval_unit_cube_ones at a depth and a tolerance
  suite   verify.run_suite of one suite (jobs = 1)
  reduce  reduce.reduce_to_basis of a composition
  poles   poles.pole_hyperplanes(r, k_max)
"""

from __future__ import annotations

import random

WORKLOADS = ("numeric", "exact")

# Tolerance on the weighted sum of one sum-formula instance; the per-term
# tolerance tol / (2 * sum |f|) is the split `cmzv sumformula` uses.
SUM_TOL = 1e-6


def compositions(k: int, r: int):
    """All compositions of k into r positive parts."""
    if r == 1:
        yield (k,)
        return
    for first in range(1, k - r + 2):
        for rest in compositions(k - first, r - 1):
            yield (first,) + rest


def sum_formula_weight(parts: tuple[int, ...]) -> int:
    """f(k_1..k_r) = prod_j (k_j + ... + k_r - 2(r - j))."""
    r = len(parts)
    suffix, f = 0, 1
    for j in range(r - 1, -1, -1):
        suffix += parts[j]
        f *= suffix - 2 * (r - 1 - j)
    return f


def sum_formula_terms(r: int, k: int) -> list[tuple[tuple[int, ...], int]]:
    """Left-hand targets (k_1, .., k_{r-1}, 1 + k_r) of the depth-r, total-k
    sum formula, each with its weight f (zero weights included)."""
    return [(p[:-1] + (p[-1] + 1,), sum_formula_weight(p)) for p in compositions(k, r)]


def _numeric(smoke: bool) -> tuple[list, list, dict]:
    """Cold values first, in seed order, then the verify suites in a fixed
    order: later suites reuse values the earlier ones memoized, so
    reordering them would change the work in a pass."""
    r, k = (3, 5) if smoke else (4, 7)
    terms = sum_formula_terms(r, k)
    per_term = SUM_TOL / (2.0 * sum(abs(f) for _, f in terms))
    values = [{"id": f"sf{p}", "kind": "semi", "parts": p, "tol": per_term} for p, _ in terms]
    # Deep values checked against the unit-cube oracle: the semi-infinite
    # route at depth 5 and the unit-cube route at depth 6.
    deep, deep_tol, cube, cube_tol = (3, 1e-6, 3, 1e-6) if smoke else (5, 1e-2, 6, 1e-5)
    values.append({"id": f"zeta1^{deep - 1}2", "kind": "semi", "parts": (1,) * (deep - 1) + (2,),
                   "tol": deep_tol, "oracle_depth": deep})
    values.append({"id": f"cube{cube}", "kind": "cube", "depth": cube, "tol": cube_tol,
                   "oracle_depth": cube})

    weights = (4, 3, 3, 3, 3) if smoke else (6, 4, None, 5, 5)
    names = ("shuffle", "embedding", "unitcube", "bounds", "reduction")
    suites = [{"id": f"verify-{n}", "kind": "suite", "suite": n, "max_weight": w, "corrupt": False}
              for n, w in zip(names, weights)]
    suites[-1]["corrupt"] = True
    return values, suites, {"instances": [{"r": r, "k": k, "terms": terms, "tol": SUM_TOL}]}


def _exact(smoke: bool) -> tuple[list, list, dict]:
    depths, weights = ((2, 3), range(3, 6)) if smoke else ((2, 3, 4), range(3, 9))
    instances = [
        {"r": r, "k": k, "terms": sum_formula_terms(r, k)}
        for r in depths
        for k in weights
        if k > 2 * (r - 1)
    ]
    ops = [{"id": str(p), "kind": "reduce", "parts": p} for inst in instances for p, _ in inst["terms"]]
    cases = ((3, 2), (4, 2), (5, 2)) if smoke else ((6, 3), (7, 3), (8, 3))
    ops += [{"id": f"poles-r{r}k{k}", "kind": "poles", "r": r, "k_max": k} for r, k in cases]
    return ops, [], {"instances": instances}


def build(workload: str, seed: int, smoke: bool = False) -> dict:
    """The inputs of one pass of `workload` for `seed`: {"seed", "ops",
    "instances"}, with "ops" in the order a pass runs them."""
    shuffled, fixed, spec = {"numeric": _numeric, "exact": _exact}[workload](smoke)
    random.Random(seed).shuffle(shuffled)
    spec["ops"] = shuffled + fixed
    spec["seed"] = seed
    return spec

"""Oracles computed apart from cmzv, and the checks of each workload's outputs.

Oracles:
  * sum-formula right-hand sides from the benchmark's own eta recursion in
    Fraction arithmetic;
  * zeta(1,..,1,2) at depths 2..6 from a tensor Gauss-Legendre rule on the
    unit-cube form int_{[0,1]^{r-1}} dy / (1 + y_1 + y_1 y_2 + ...);
  * candidate pole sets {(m, i + 1 - k)} over non-increasing m of length
    i <= r with m_t <= r - t + 1, and 1 <= k <= k_max.

A check returns a list of problems; an empty list means the outputs are right.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations

import numpy as np

CUBE_NODES = 20  # at depth 5, 20 and 30 nodes agree to 4e-16


def eta_rhs(r: int, k: int) -> Fraction:
    """eta^(r-1)(1/x^(k-2(r-1))) at x = 1, where
    eta(1/(x+n)^l) = (1/(n+1)) (1/x^l - 1/(x+n+1)^l)."""
    v = {(0, k - 2 * (r - 1)): Fraction(1)}
    for _ in range(r - 1):
        out: dict[tuple[int, int], Fraction] = {}
        for (n, l), c in v.items():
            w = c / (n + 1)
            out[(0, l)] = out.get((0, l), Fraction(0)) + w
            out[(n + 1, l)] = out.get((n + 1, l), Fraction(0)) - w
        v = out
    return sum((c / Fraction(1 + n) ** l for (n, l), c in v.items()), Fraction(0))


def unit_cube_ones(r: int, nodes: int = CUBE_NODES) -> float:
    """zeta(1,..,1,2) at depth r >= 2 by an r-1 dimensional tensor
    Gauss-Legendre rule; the integrand is analytic on the closed cube."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    y, w = 0.5 * (x + 1.0), 0.5 * w
    # Denominator 1 + y_1 (1 + y_2 (1 + ...)), built from the innermost
    # variable out; the first variable is looped over to bound memory.
    tail = np.array(1.0)
    for _ in range(r - 2):
        tail = 1.0 + np.multiply.outer(y, tail)
    total = 0.0
    for y1, w1 in zip(y, w):
        vals = 1.0 / (1.0 + y1 * tail)
        for _ in range(r - 2):
            vals = w @ vals
        total += w1 * float(vals)
    return total


def nonincreasing_prefixes(r: int):
    """Non-increasing m of length 1..r with m_t <= r - t + 1."""
    def grow(prefix):
        yield prefix
        t = len(prefix) + 1
        if t <= r:
            for m in range(1, min(prefix[-1], r - t + 1) + 1):
                yield from grow(prefix + (m,))

    for m1 in range(1, r + 1):
        yield from grow((m1,))


def pole_set(r: int, k_max: int) -> set[tuple[tuple[int, ...], int]]:
    return {
        (m, len(m) + 1 - k)
        for m in nonincreasing_prefixes(r)
        for k in range(1, k_max + 1)
    }


def pole_set_brute_force(r: int, k_max: int) -> set[tuple[tuple[int, ...], int]]:
    """Running-minima prefixes of every permutation; for the self-test."""
    out = set()
    for sigma in permutations(range(1, r + 1)):
        mins = tuple(min(sigma[: i + 1]) for i in range(r))
        for i in range(1, r + 1):
            out.update((mins[:i], i + 1 - k) for k in range(1, k_max + 1))
    return out


def build(workload: str, spec: dict) -> dict:
    """Everything the checks of `workload` compare against."""
    rhs = {(i["r"], i["k"]): eta_rhs(i["r"], i["k"]) for i in spec["instances"]}
    if workload == "numeric":
        return {"rhs": rhs, "cube": {op["id"]: unit_cube_ones(op["oracle_depth"])
                                     for op in spec["ops"] if "oracle_depth" in op}}
    return {"rhs": rhs, "planes": {op["id"]: pole_set(op["r"], op["k_max"])
                                   for op in spec["ops"] if op["kind"] == "poles"}}


# Budget exhaustion is a documented outcome (ROADMAP aim 3): it counts as a
# failed operation, not as a wrong answer.  Any other exception is wrong.
EXPECTED_FAILURE = "CapacityError"


def _failure_problems(outputs: dict) -> list[str]:
    return [
        f"{op_id}: raised {out['error']}: {out['message']}"
        for op_id, out in outputs.items()
        if "error" in out and out["error"] != EXPECTED_FAILURE
    ]


def _ok_outputs(spec: dict, outputs: dict, kinds: tuple[str, ...]):
    """(op, output) of the operations of `kinds` that did not fail."""
    for op in spec["ops"]:
        out = outputs.get(op["id"], {"error": "missing"})
        if op["kind"] in kinds and "error" not in out:
            yield op, out


def check_values(spec: dict, ref: dict, outputs: dict) -> list[str]:
    problems = []
    for op, out in _ok_outputs(spec, outputs, ("semi", "cube")):
        op_id = op["id"]
        if not out["converged"]:
            problems.append(f"{op_id}: not converged (estimate {out['error_estimate']:.3e})")
        if op_id in ref["cube"]:
            actual = abs(out["value"] - ref["cube"][op_id])
            tol = op["tol"]
            if not actual <= out["error_estimate"] <= tol:
                problems.append(
                    f"{op_id}: |value - oracle| {actual:.3e}, estimate "
                    f"{out['error_estimate']:.3e}, tol {tol:.1e}"
                )
    for inst in spec["instances"]:
        ids = [f"sf{p}" for p, _ in inst["terms"]]
        if any("error" in outputs.get(i, {"error": "missing"}) for i in ids):
            continue
        lhs = sum(f * outputs[i]["value"] for i, (_, f) in zip(ids, inst["terms"]))
        diff = abs(lhs - float(ref["rhs"][(inst["r"], inst["k"])]))
        if not diff <= inst["tol"]:
            problems.append(f"sum formula r={inst['r']} k={inst['k']}: off by {diff:.3e}")
    return problems


def _basis_id_problems(op_id: str, depth: int, result: dict) -> list[str]:
    problems = []
    for ids in result["basis"]:
        parts = [Fraction(m) for m in ids.split(",")]
        if any(m.denominator != 1 or m <= 0 for m in parts) or sum(parts) != depth:
            problems.append(f"{op_id}: basis id ({ids}) is not positive integers summing to {depth}")
    return problems


def check_reductions(spec: dict, ref: dict, outputs: dict) -> list[str]:
    problems = []
    for inst in spec["instances"]:
        rational = Fraction(0)
        rest: dict[str, Fraction] = {}
        complete = True
        for parts, f in inst["terms"]:
            out = outputs.get(str(parts), {"error": "missing"})
            if "error" in out:
                complete = False
                continue
            res = out["result"]
            problems += _basis_id_problems(str(parts), len(parts), res)
            rational += f * Fraction(res["rational"])
            for kind in ("logs", "basis"):
                for key, q in res[kind].items():
                    rest[f"{kind}:{key}"] = rest.get(f"{kind}:{key}", Fraction(0)) + f * Fraction(q)
        if not complete:
            continue
        expected = ref["rhs"][(inst["r"], inst["k"])]
        left = sorted(k for k, q in rest.items() if q)
        if rational != expected or left:
            problems.append(
                f"sum formula r={inst['r']} k={inst['k']}: rational {rational} vs {expected}, "
                f"terms left {left}"
            )
    return problems


def check_suites(spec: dict, ref: dict, outputs: dict) -> list[str]:
    problems = []
    self_tests = 0
    for op, out in _ok_outputs(spec, outputs, ("suite",)):
        call_id = op["id"]
        for check in out["checks"]:
            if check["suite"] == "self-test":
                self_tests += 1
                if check["passed"]:
                    problems.append(f"{call_id}: the corrupted self-test passed")
            elif not check["passed"]:
                problems.append(f"{call_id}: {check['suite']} {check['name']} failed")
    if self_tests != sum(1 for op in spec["ops"] if op.get("corrupt")):
        problems.append(f"expected one corrupted self-test per corrupt call, saw {self_tests}")
    return problems


def check_poles(spec: dict, ref: dict, outputs: dict) -> list[str]:
    problems = []
    for op, out in _ok_outputs(spec, outputs, ("poles",)):
        op_id = op["id"]
        got = {
            (tuple(int(m) for m in coeffs.split(",")), int(const))
            for coeffs, const in (plane.split(":") for plane in out["planes"].split(";"))
        }
        want = ref["planes"][op_id]
        if got != want:
            problems.append(
                f"{op_id}: {len(want - got)} planes missing, {len(got - want)} unexpected"
            )
    return problems


CHECKS = {"numeric": (check_values, check_suites), "exact": (check_reductions, check_poles)}


def check(workload: str, spec: dict, ref: dict, outputs: dict) -> list[str]:
    """Every problem in the outputs of one pass; none when they are right."""
    problems = _failure_problems(outputs)
    problems += [f"{op['id']}: no output" for op in spec["ops"] if op["id"] not in outputs]
    for fn in CHECKS[workload]:
        problems += fn(spec, ref, outputs)
    return problems

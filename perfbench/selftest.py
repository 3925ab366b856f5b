"""Self-test of the benchmark: its oracles, its checks, and a smoke run of
every workload.

    python3 perfbench/selftest.py

Each check of program outputs must accept real outputs and reject each
perturbed copy: a sum-formula value off by 10 * tol, a basis id that does
not sum to the depth, one pole plane dropped, one verify check flipped.
Exits 0 when everything behaves, 1 otherwise.
"""

from __future__ import annotations

import copy
import json
import math
import sys

import inputs
import reference
import run

failures: list[str] = []


def expect(what: str, ok: bool) -> None:
    print(f"[{'ok' if ok else 'FAIL'}] {what}")
    if not ok:
        failures.append(what)


def oracles() -> None:
    five20, five30 = reference.unit_cube_ones(5, 20), reference.unit_cube_ones(5, 30)
    expect(f"unit-cube oracle, depth 5: 20 and 30 nodes agree ({abs(five20 - five30):.1e})",
           abs(five20 - five30) <= 1e-14)
    expect("unit-cube oracle, depth 2, is log 2", abs(reference.unit_cube_ones(2) - math.log(2)) <= 1e-15)
    for r in range(1, 7):
        expect(f"pole oracle equals brute force over permutations, r={r}",
               reference.pole_set(r, 3) == reference.pole_set_brute_force(r, 3))


def benchmark_json() -> None:
    path = run.CHECKOUT / "BENCHMARK.json"
    if not path.is_file():
        return
    spec = json.loads(path.read_text())
    for key, units in (("end_to_end", run.END_TO_END_UNITS), ("per_layer", run.PER_LAYER_UNITS)):
        listed = {m["name"]: m["unit"] for m in spec[key]}
        expect(f"BENCHMARK.json {key} metrics and units match run.py", listed == units)
    expect("BENCHMARK.json workloads match inputs.py",
           tuple(w["name"] for w in spec["workloads"]) == inputs.WORKLOADS)


def rejects(workload: str, what: str, spec: dict, ref: dict, outputs: dict, perturb) -> None:
    bad = copy.deepcopy(outputs)
    perturb(bad)
    expect(f"{workload}: rejects {what}", bool(reference.check(workload, spec, ref, bad)))


def flip(suite: str):
    """Flip the first check of `suite` ("self-test" or any other suite)."""
    def go(o):
        for out in o.values():
            for check in out.get("checks", []):
                if (check["suite"] == "self-test") == (suite == "self-test"):
                    check["passed"] = not check["passed"]
                    return
    return go


def checks() -> None:
    for workload in inputs.WORKLOADS:
        spec = inputs.build(workload, 0, smoke=True)
        ref = reference.build(workload, spec)
        outputs = run.spawn(workload, 0, "pass", smoke=True, timeout=run.RUN_LIMIT_S)["outputs"]
        problems = reference.check(workload, spec, ref, outputs)
        expect(f"{workload}: accepts real outputs {problems or ''}", not problems)
        rejects(workload, "a missing output", spec, ref, outputs, lambda o: o.pop(next(iter(o))))

        if workload == "numeric":
            inst = spec["instances"][0]
            parts = next(p for p, f in inst["terms"] if f)
            deep = next(op["id"] for op in spec["ops"] if "oracle_depth" in op)

            def off(o, key=f"sf{parts}", by=10 * inst["tol"]):
                o[key]["value"] += by
            rejects(workload, "a sum-formula value off by 10*tol", spec, ref, outputs, off)
            rejects(workload, "a value not converged", spec, ref, outputs,
                    lambda o: o[deep].update(converged=False))
            rejects(workload, "a deep value outside its estimate", spec, ref, outputs,
                    lambda o: o[deep].update(value=o[deep]["value"] + 2 * o[deep]["error_estimate"] + 1e-12))
            rejects(workload, "one verify check flipped", spec, ref, outputs, flip("shuffle"))
            rejects(workload, "the corrupted self-test passing", spec, ref, outputs, flip("self-test"))
        else:
            with_basis = next(k for k, o in outputs.items() if o.get("result", {}).get("basis"))

            def bad_id(o):
                basis = o[with_basis]["result"]["basis"]
                ids, q = next(iter(basis.items()))
                del basis[ids]
                basis[ids + ",1"] = q
            rejects(workload, "a basis id that does not sum to the depth", spec, ref, outputs, bad_id)
            rejects(workload, "a wrong rational part", spec, ref, outputs,
                    lambda o: o[with_basis]["result"].update(rational="12345/7"))
            rejects(workload, "a failure other than CapacityError", spec, ref, outputs,
                    lambda o: o.update({with_basis: {"error": "RewriteError", "message": ""}}))
            enum = next(op["id"] for op in spec["ops"] if op["kind"] == "poles")
            rejects(workload, "one pole plane dropped", spec, ref, outputs,
                    lambda o: o[enum].update(planes=o[enum]["planes"].rsplit(";", 1)[0]))


def smoke() -> None:
    for workload in inputs.WORKLOADS:
        for trace in (False, True):
            result = run.run(workload, seed=1, seconds=0, trace=trace, smoke=True)
            names = run.PER_LAYER_UNITS if trace else run.END_TO_END_UNITS
            expect(
                f"smoke {workload} trace={int(trace)}: correct, {result['attempted']} attempted, "
                "every metric present",
                result["correct"] and result["attempted"] >= 1 and set(result["metrics"]) == set(names),
            )


if __name__ == "__main__":
    benchmark_json()
    oracles()
    checks()
    smoke()
    print(f"{len(failures)} self-test failures")
    sys.exit(1 if failures else 0)

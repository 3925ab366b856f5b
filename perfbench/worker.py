"""One cold pass of one workload, in a fresh process.

    python3 perfbench/worker.py --workload W --seed N --mode setup|pass|traced [--smoke]

A fresh process is what a `cmzv` invocation starts from: it empties the
memos that the public clear_caches() functions miss (the unit-cube memo and
the shuffle word memo).  The worker times the import of cmzv and the input
preparation (set-up), then every operation of the pass, one at a time, and
prints one JSON object on its last line.  In `traced` mode it also records
spans around every call into the measured modules and reports the per-layer
figures of the pass.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import inputs  # noqa: E402  (the benchmark's own module, next to this file)
import tracing  # noqa: E402

RESULTS = HERE / "results"


def _peak_rss_mb() -> float:
    """Peak resident memory of this process image.  VmHWM starts afresh at
    exec, unlike ru_maxrss, which keeps the parent's size from the fork."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def _prepare(cmzv, spec: dict) -> list:
    """[(op, call)]: each call goes through the module attribute at call
    time, so that traced wrappers see it."""
    quad, reduce, poles, verify = cmzv.quad, cmzv.reduce, cmzv.poles, cmzv.verify
    Composition = cmzv.Composition
    calls = {
        "semi": lambda op: lambda c=Composition(op["parts"]): quad.eval_numeric(c, op["tol"]),
        "cube": lambda op: lambda: quad.eval_unit_cube_ones(op["depth"], op["tol"]),
        "suite": lambda op: lambda: verify.run_suite(
            op["suite"], max_weight=op["max_weight"], jobs=1, seed=spec["seed"], corrupt=op["corrupt"]),
        "reduce": lambda op: lambda c=Composition(op["parts"]): reduce.reduce_to_basis(c),
        "poles": lambda op: lambda: poles.pole_hyperplanes(op["r"], op["k_max"]),
    }
    return [(op, calls[op["kind"]](op)) for op in spec["ops"]]


def _serialize(kind: str, result) -> dict:
    if kind in ("semi", "cube"):
        return result.to_json()
    if kind == "reduce":
        return {"result": result.to_json()}
    if kind == "suite":
        return {"checks": [{"suite": c.suite, "name": c.name, "passed": c.passed} for c in result]}
    # One string, so that the outputs held through the pass stay small next
    # to the program's own memory and do not depend on the order of the ops.
    planes = sorted(",".join(map(str, h.coefficients)) + f":{h.constant}" for h in result)
    return {"planes": ";".join(planes), "count": len(planes)}


class _LayerProbe:
    """Per-layer counts gathered through the tracer's spans and observers."""

    def __init__(self, cmzv, tracer: tracing.Tracer):
        self.tracer = tracer
        self.has_rule = hasattr(cmzv.quad, "_adaptive_unit")
        self.quad_calls: list[tuple[int, str, int, bool, int]] = []
        self._seen: dict[int, object] = {}
        self.reductions: list[tuple[int, int]] = []  # (span, weight)
        self.suites: list[tuple[int, str]] = []
        self.enumerations: list[tuple[int, int]] = []  # (span, r)
        self.terms = 0
        self.term_keys: set = set()
        self.planes_built = 0

        def on_quad(kind):
            def observe(idx, args, result):
                if result is None:
                    return
                target = args[0]
                depth = target if kind == "cube" else getattr(target, "depth", None) or len(target)
                hit = id(result) in self._seen
                self._seen.setdefault(id(result), result)
                self.quad_calls.append((idx, kind, depth, hit, result.evaluations))
            return observe

        tracer.observe("quad.eval_numeric", on_quad("semi"))
        tracer.observe("quad.eval_unit_cube_ones", on_quad("cube"))
        tracer.observe("reduce.reduce_to_basis",
                       lambda idx, args, result: self.reductions.append((idx, sum(args[0].parts))))
        tracer.observe("verify.run_suite", lambda idx, args, result: self.suites.append((idx, args[0])))
        tracer.observe("poles.pole_hyperplanes",
                       lambda idx, args, result: self.enumerations.append((idx, args[0])))

        for module in (cmzv.quad, cmzv.reduce, cmzv.verify, cmzv.shuffle, cmzv.poles):
            tracer.instrument(module)

        gen_init = cmzv.reduce.GenTerm.__init__
        plane_init = cmzv.poles.Hyperplane.__init__

        def counting_gen_init(term, *args, **kwargs):
            gen_init(term, *args, **kwargs)
            self.terms += 1
            self.term_keys.add((term.bounds, term.factors))

        def counting_plane_init(plane, *args, **kwargs):
            plane_init(plane, *args, **kwargs)
            self.planes_built += 1

        cmzv.reduce.GenTerm.__init__ = counting_gen_init
        cmzv.poles.Hyperplane.__init__ = counting_plane_init

    def metrics(self) -> dict:
        tr = self.tracer
        spans = tr.spans

        def dur(idx):
            return spans[idx][2] - spans[idx][1]

        def median(xs):
            return statistics.median(xs) if xs else 0.0

        misses = [c for c in self.quad_calls if not c[3]]
        miss_s = sum(dur(c[0]) for c in misses)
        evaluations = sum(c[4] for c in misses)
        hits = len(self.quad_calls) - len(misses)
        run_suite_s = sum(dur(i) for i, _ in self.suites)
        out = {
            "quad.evaluations": evaluations,
            "quad.evals_per_s": evaluations / miss_s if miss_s else 0.0,
            "quad.d4_value_s": median([dur(c[0]) for c in misses if c[1] == "semi" and c[2] == 4]),
            "quad.d5_value_s": median([dur(c[0]) for c in misses if c[1] == "semi" and c[2] == 5]),
            "quad.cube6_value_s": median([dur(c[0]) for c in misses if c[1] == "cube" and c[2] == 6]),
            "quad.calls": len(self.quad_calls),
            "quad.cache_hits": hits,
            "quad.hit_ratio": hits / len(self.quad_calls) if self.quad_calls else 0.0,
            "quad.miss_s": miss_s,
            "reduce.s": sum(dur(i) for i, _ in self.reductions),
            "reduce.w9_s": sum(dur(i) for i, w in self.reductions if w == 9),
            "reduce.w4_8_s": sum(dur(i) for i, w in self.reductions if 4 <= w <= 8),
            "reduce.terms": self.terms,
            "reduce.distinct_ratio": len(self.term_keys) / self.terms if self.terms else 0.0,
            "reduce.budget_exhausted": sum(1 for i, _ in self.reductions if spans[i][4] == "CapacityError"),
            "reduce.partial_fractions_s": sum(tr.durations("reduce.partial_fractions")),
            "reduce.integrate_tail_s": sum(tr.durations("reduce.integrate_tail")),
            "verify.quad_share": (tr.layer_entry_time("quad", under="verify.run_suite") / run_suite_s
                                  if run_suite_s else 0.0),
            "shuffle.s": tr.layer_entry_time("shuffle"),
            "poles.constructed": self.planes_built,
        }
        for suite in ("shuffle", "embedding", "unitcube", "bounds", "reduction"):
            out[f"verify.{suite}_s"] = sum(dur(i) for i, s in self.suites if s == suite)
        for r in (6, 7, 8):
            out[f"poles.r{r}_s"] = sum(dur(i) for i, rr in self.enumerations if rr == r)
        if self.has_rule:
            out["quad.rule_calls"] = len(tr.durations("quad._adaptive_unit"))
            out["quad.rule_self_s"] = tr.self_time("quad._adaptive_unit")
        return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=inputs.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "pass", "traced"), required=True)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    spec = inputs.build(args.workload, args.seed, args.smoke)

    t0 = time.perf_counter()
    import cmzv.cli  # as a `cmzv` invocation does: the package and every module

    ops = _prepare(cmzv, spec)
    setup_s = time.perf_counter() - t0
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    probe = _LayerProbe(cmzv, tracing.Tracer()) if args.mode == "traced" else None
    cmzv.quad.clear_caches()
    cmzv.reduce.clear_caches()

    outputs, op_times, failed = {}, [], 0
    for op, call in ops:
        t = time.perf_counter()
        try:
            result = call()
        except Exception as exc:  # a failed operation is counted, not fatal
            op_times.append(time.perf_counter() - t)
            outputs[op["id"]] = {"error": type(exc).__name__, "message": str(exc)}
            failed += 1
            continue
        op_times.append(time.perf_counter() - t)
        outputs[op["id"]] = _serialize(op["kind"], result)
        del result  # not alive while the next operation runs

    report = {
        "setup_s": setup_s,
        "op_times": op_times,
        "attempted": len(op_times),
        "failed": failed,
        "rss_mb": _peak_rss_mb(),
        "outputs": outputs,
    }
    if probe is not None:
        report["layers"] = probe.metrics()
        report["layers"]["poles.planes"] = sum(o.get("count", 0) for o in outputs.values())
        probe.tracer.write(RESULTS / f"spans-{args.workload}-seed{args.seed}-{time.time_ns()}.jsonl.gz")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())

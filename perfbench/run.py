"""The cmzv benchmark: one workload per run, end to end or per layer.

    python3 perfbench/run.py --workload numeric|exact \
        --seed N --seconds S --trace 0|1 [--smoke]

One closed-loop client runs one operation at a time, single-threaded, with
BLAS threads fixed to one.  Every pass runs in a fresh worker process
(worker.py) and is cold.  Passes repeat, whole, while another one is expected
to end within --seconds; at least one pass runs.  The outputs of every pass
are checked against oracles computed here, in this process, apart from cmzv
and outside the workers' timed code and memory.

--trace 0 reports the end-to-end metrics; --trace 1 runs pairs of an
untraced and a traced pass and reports the per-layer metrics plus the
tracing overhead.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
SINGLE_THREAD = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(SINGLE_THREAD)  # before numpy loads, for the oracles here

import inputs  # noqa: E402
import reference  # noqa: E402

SETUP_PROBES = 8  # extra set-up-only processes per run, for a median
RUN_LIMIT_S = 170  # a worker still running this long after the run began is killed

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "quad.evaluations": "count",
    "quad.evals_per_s": "1/s",
    "quad.d4_value_s": "s",
    "quad.d5_value_s": "s",
    "quad.cube6_value_s": "s",
    "quad.rule_calls": "count",
    "quad.rule_self_s": "s",
    "quad.estimate_over_actual": "ratio",
    "quad.calls": "count",
    "quad.cache_hits": "count",
    "quad.hit_ratio": "ratio",
    "quad.miss_s": "s",
    "reduce.s": "s",
    "reduce.w9_s": "s",
    "reduce.w4_8_s": "s",
    "reduce.terms": "count",
    "reduce.distinct_ratio": "ratio",
    "reduce.budget_exhausted": "count",
    "reduce.partial_fractions_s": "s",
    "reduce.integrate_tail_s": "s",
    "verify.shuffle_s": "s",
    "verify.embedding_s": "s",
    "verify.unitcube_s": "s",
    "verify.bounds_s": "s",
    "verify.reduction_s": "s",
    "verify.quad_share": "ratio",
    "shuffle.s": "s",
    "poles.r6_s": "s",
    "poles.r7_s": "s",
    "poles.r8_s": "s",
    "poles.constructed": "count",
    "poles.planes": "count",
    "trace.overhead": "ratio",
}


class BenchmarkError(RuntimeError):
    pass


def spawn(workload: str, seed: int, mode: str, smoke: bool, timeout: float) -> dict:
    """Run one worker process to its end and return its report."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode] + (["--smoke"] if smoke else [])
    env = dict(os.environ, PYTHONHASHSEED="0", **SINGLE_THREAD)
    # Set-up is timed as a user meets it: with bytecode cached after the
    # first import, whatever the calling environment says.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=CHECKOUT,
                          timeout=max(timeout, 1.0))
    if proc.returncode != 0:
        raise BenchmarkError(f"worker {mode} exited {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def central_p50(times: list[float]) -> float:
    """The median, estimated as the mean of the times between the 40th and
    60th percentile.  Operation costs come in clusters with gaps between
    them; a single middle value jumps across a gap when noise reorders the
    two operations next to it."""
    xs = sorted(times)
    lo = int(0.4 * len(xs))
    return statistics.fmean(xs[lo:max(lo + 1, math.ceil(0.6 * len(xs)))])


def mean_op_times(passes: list[dict]) -> list[float]:
    """Each operation's mean time over the passes of a run.  Every pass of a
    run runs the same operations in the same order, so position i is the
    same operation in each pass.  The host's speed swings between a slow and
    a fast state within seconds; a mean over passes weighs both states by
    the time spent in them, where a median would jump between them."""
    times = [p["op_times"] for p in passes]
    if len({len(t) for t in times}) != 1:
        raise BenchmarkError("passes of one run timed different numbers of operations")
    return [statistics.fmean(ts) for ts in zip(*times)]


def ops_per_s(passes: list[dict]) -> float:
    """Operations attempted per second of operation time, over the run."""
    return sum(p["attempted"] for p in passes) / sum(sum(p["op_times"]) for p in passes)


def estimate_over_actual(spec: dict, ref: dict, passes: list[dict]) -> float:
    """Median of error_estimate / |value - oracle| over values with an oracle."""
    ratios = []
    for p in passes:
        for op_id, oracle in ref.get("cube", {}).items():
            out = p["outputs"][op_id]
            if "error" not in out:
                actual = abs(out["value"] - oracle)
                ratios.append(out["error_estimate"] / actual if actual else float("inf"))
    return statistics.median(ratios) if ratios else 0.0


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    deadline = time.perf_counter() + RUN_LIMIT_S
    if not (CHECKOUT / "src" / "cmzv" / "__init__.py").is_file():
        raise BenchmarkError(f"no cmzv sources under {CHECKOUT / 'src'}")
    spec = inputs.build(workload, seed, smoke)
    ref = reference.build(workload, spec)

    def worker(mode: str) -> dict:
        return spawn(workload, seed, mode, smoke, deadline - time.perf_counter())

    setups = [worker("setup")["setup_s"] for _ in range(SETUP_PROBES)]
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        begun = time.perf_counter()
        plain.append(worker("pass"))
        if trace:
            traced.append(worker("traced"))
        now = time.perf_counter()
        if now - start + (now - begun) > seconds:
            break

    passes = plain + traced
    problems = []
    for p in passes:
        problems += reference.check(workload, spec, ref, p["outputs"])
    for msg in sorted(set(problems)):
        print(f"check failed: {msg}", file=sys.stderr)

    if trace:
        names = [n for n in PER_LAYER_UNITS if all(n in p["layers"] for p in traced)]
        values = {n: statistics.median(p["layers"][n] for p in traced) for n in names}
        values["quad.estimate_over_actual"] = estimate_over_actual(spec, ref, passes)
        values["trace.overhead"] = ops_per_s(traced) / ops_per_s(plain)
        metrics = {n: {"value": values[n], "unit": PER_LAYER_UNITS[n]}
                   for n in PER_LAYER_UNITS if n in values}
    else:
        values = {
            "setup_s": statistics.median(setups + [p["setup_s"] for p in plain]),
            "ops_per_s": ops_per_s(plain),
            "op_p50_s": central_p50(mean_op_times(plain)),
            "peak_rss_mb": max(p["rss_mb"] for p in plain),
        }
        metrics = {n: {"value": v, "unit": END_TO_END_UNITS[n]} for n, v in values.items()}
    return {
        "correct": not problems,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": metrics,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=inputs.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="small inputs, for a quick end-to-end try")
    args = ap.parse_args()
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    except (BenchmarkError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

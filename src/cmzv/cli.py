"""Command line front end.

Subcommands: eval, reduce, shuffle, sumformula, poles, verify.  Output is a
human table by default, or machine JSON / CSV via --format.  Every flag can
be preset through an environment variable with the CMZV_ prefix (CMZV_TOL,
CMZV_DEPTH_CAP, CMZV_STEP_BUDGET, CMZV_FORMAT, CMZV_JOBS, CMZV_SEED);
explicit flags win.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 numeric
non-convergence (for verify: every check passed, but some rests on a value
that did not converge).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import __version__
from .compositions import Composition
from .errors import CmzvError
from .etaspace import sum_formula_lhs_terms, sum_formula_rhs
from .poles import pole_hyperplanes
from .quad import ShiftedCMZV, eval_numeric, verify_identity
from .reduce import SymbolicConstant, reduce_to_basis
from .shuffle import FormalWordSum, shuffle
from .verify import SUITES, reduction_residual, run_suite

_ENV_PREFIX = "CMZV_"
_FORMATS = ("table", "json", "csv")


@dataclass(frozen=True)
class RunConfig:
    tolerance: float | None = None  # None: per-depth default
    depth_cap: int = 6
    step_budget: int = 10_000
    fmt: str = "table"
    seed: int = 0
    jobs: int = 1

    def __post_init__(self):
        if self.tolerance is not None and not self.tolerance > 0:
            raise ValueError(f"tolerance must be positive, got {self.tolerance}")
        if self.depth_cap < 1 or self.step_budget < 1 or self.jobs < 1:
            raise ValueError("depth cap, step budget, and jobs must all be >= 1")
        if self.fmt not in _FORMATS:
            raise ValueError(f"format must be one of {_FORMATS}, got {self.fmt!r}")


def _env(name: str, cast, fallback):
    raw = os.environ.get(_ENV_PREFIX + name)
    if raw is None:
        return fallback
    try:
        return cast(raw)
    except ValueError:
        raise ValueError(f"cannot parse environment variable {_ENV_PREFIX}{name}={raw!r}")


def _parse_composition(text: str) -> Composition:
    try:
        parts = tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise ValueError(f"composition must be comma-separated integers, got {text!r}")
    return Composition(parts)


def _parse_bounds(text: str) -> tuple[Fraction, ...]:
    try:
        return tuple(Fraction(tok) for tok in text.split(","))
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"bounds must be comma-separated rationals, got {text!r}")


def _emit(fmt: str, payload, header: list[str], rows, table_lines) -> None:
    """The one writer of output: payload as JSON, header and rows as CSV, or
    table_lines as plain lines."""
    if fmt == "json":
        print(json.dumps(payload, indent=2))
    elif fmt == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(header)
        writer.writerows(rows)
    else:
        for line in table_lines:
            print(line)


def _emit_pairs(fmt: str, payload, pairs: list[tuple[str, object]]) -> None:
    """Key/value pairs as an aligned two-column table or key,value CSV rows."""
    width = max((len(k) for k, _ in pairs), default=0)
    _emit(fmt, payload, ["key", "value"], pairs, (f"{k:<{width}}  {v}" for k, v in pairs))


def render_symbolic(sc: SymbolicConstant) -> str:
    """Human form: '1 - log 2', '1/2*B(1,1,1) - 1/4*log 3', '0', ..."""
    pieces: list[tuple[Fraction, str]] = []
    if sc.rational != 0:
        pieces.append((sc.rational, ""))
    pieces.extend((q, f"log {p}") for p, q in sc.logs)
    pieces.extend((q, "B(" + ",".join(str(m) for m in ids) + ")") for ids, q in sc.basis)
    if not pieces:
        return "0"
    out = []
    for i, (q, sym) in enumerate(pieces):
        sign = "-" if q < 0 else "+"
        mag = abs(q)
        if sym == "":
            text = str(mag)
        elif mag == 1:
            text = sym
        else:
            text = f"{mag}*{sym}"
        if i == 0:
            out.append(text if sign == "+" else f"-{text}")
        else:
            out.append(f" {sign} {text}")
    return "".join(out)


def render_word_sum(a: FormalWordSum) -> str:
    parts = []
    for word, coeff in a:
        shown = word if word else "1"
        parts.append(shown if coeff == 1 else f"{coeff}*{shown}")
    return " + ".join(parts) if parts else "0"


def cmd_eval(args, cfg: RunConfig) -> int:
    comp = _parse_composition(args.composition)
    target = ShiftedCMZV(_parse_bounds(args.bounds), comp) if args.bounds else comp
    res = eval_numeric(target, tol=cfg.tolerance, depth_cap=cfg.depth_cap)
    rows = [
        ("value", f"{res.value:.15g}"),
        ("error_estimate", f"{res.error_estimate:.3e}"),
        ("evaluations", res.evaluations),
        ("converged", res.converged),
    ]
    _emit_pairs(cfg.fmt, res.to_json(), rows)
    return 0 if res.converged else 3


def cmd_reduce(args, cfg: RunConfig) -> int:
    comp = _parse_composition(args.composition)
    bounds = _parse_bounds(args.bounds) if args.bounds else None
    sc = reduce_to_basis(comp, bounds, step_budget=cfg.step_budget, depth_cap=cfg.depth_cap)
    target = ShiftedCMZV(bounds, comp) if bounds else comp
    symbolic, num, converged = reduction_residual(sc, target, cfg.tolerance, cfg.depth_cap)
    residual = abs(symbolic - num)
    rows = [
        ("symbolic", render_symbolic(sc)),
        ("numeric", f"{num:.15g}"),
        ("residual", f"{residual:.3e}"),
    ]
    payload = dict(sc.to_json())
    payload["rendered"] = render_symbolic(sc)
    payload["residual"] = residual
    _emit_pairs(cfg.fmt, payload, rows)
    return 0 if converged else 3


def cmd_shuffle(args, cfg: RunConfig) -> int:
    result = shuffle(args.word1, args.word2)
    rows = ([word if word else "1", str(coeff)] for word, coeff in result)
    _emit(cfg.fmt, result.to_json(), ["word", "coefficient"], rows, [render_word_sum(result)])
    return 0


def cmd_sumformula(args, cfg: RunConfig) -> int:
    r, k = args.depth, args.weight
    rhs = sum_formula_rhs(r, k)
    tol = cfg.tolerance if cfg.tolerance is not None else 1e-6
    check = verify_identity(
        sum_formula_lhs_terms(r, k), rhs_constant=rhs, tol=tol, depth_cap=cfg.depth_cap
    )
    lhs, diff = check["lhs_value"], check["difference"]
    passed, converged = check["passed"], check["converged"]
    rows = [
        ("depth", r),
        ("weight", k),
        ("rhs_exact", str(rhs)),
        ("rhs_float", f"{float(rhs):.15g}"),
        ("lhs_numeric", f"{lhs:.15g}"),
        ("difference", f"{diff:.3e}"),
        ("tolerance", f"{tol:.1e}"),
        ("passed", passed),
        ("converged", converged),
    ]
    payload = {
        "depth": r,
        "weight": k,
        "rhs_exact": str(rhs),
        "rhs_float": float(rhs),
        "lhs_numeric": lhs,
        "difference": diff,
        "tolerance": tol,
        "passed": passed,
        "converged": converged,
        "evaluations": check["evaluations"],
    }
    _emit_pairs(cfg.fmt, payload, rows)
    if not converged:
        return 3
    return 0 if passed else 1


def cmd_poles(args, cfg: RunConfig) -> int:
    planes = sorted(
        pole_hyperplanes(args.depth, args.k_max),
        key=lambda h: (len(h.coefficients), h.coefficients, -h.constant),
    )
    rows = ([" ".join(str(m) for m in h.coefficients), h.constant] for h in planes)
    _emit(cfg.fmt, [h.to_json() for h in planes], ["coefficients", "constant"], rows, planes)
    return 0


def cmd_verify(args, cfg: RunConfig) -> int:
    results = run_suite(
        args.suite,
        max_weight=args.max_weight,
        tol=cfg.tolerance,
        depth_cap=cfg.depth_cap,
        seed=cfg.seed,
        corrupt=args.corrupt,
    )
    passed = sum(1 for r in results if r.passed)
    unconverged = sum(1 for r in results if not r.converged)
    payload = {
        "results": [r.to_json() for r in results],
        "passed": passed,
        "total": len(results),
        "ok": passed == len(results),
    }
    rows = ([r.suite, r.name, r.passed, r.detail] for r in results)
    lines = [f"[{'PASS' if r.passed else 'FAIL'}] {r.suite}: {r.name}  {r.detail}" for r in results]
    summary = f"{passed}/{len(results)} checks passed"
    if unconverged:
        summary += f"; {unconverged} rest on values that did not converge"
    lines.append(summary)
    _emit(cfg.fmt, payload, ["suite", "name", "passed", "detail"], rows, lines)
    if passed < len(results):
        return 1
    return 3 if unconverged else 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--tol", type=float, default=_env("TOL", float, None),
        help="absolute tolerance (default: per-depth heuristic)",
    )
    common.add_argument(
        "--depth-cap", type=int, default=_env("DEPTH_CAP", int, 6),
        help="maximum depth accepted (default 6)",
    )
    common.add_argument(
        "--step-budget", type=int, default=_env("STEP_BUDGET", int, 10_000),
        help="maximum distinct terms a reduction rewrites; a term memoized by an "
        "earlier reduction in the process costs nothing (default 10000)",
    )
    common.add_argument(
        "--format", choices=_FORMATS, default=_env("FORMAT", str, "table"),
        help="output format (default table)",
    )
    common.add_argument(
        "--jobs", type=int, default=_env("JOBS", int, 1),
        help="accepted and has no effect: verify runs its checks in order (must be >= 1)",
    )
    common.add_argument(
        "--seed", type=int, default=_env("SEED", int, 0),
        help="seed for randomized spot checks (default 0)",
    )

    p = argparse.ArgumentParser(
        prog="cmzv",
        description="Iterated tail integrals: numeric evaluation, exact reduction, "
        "word algebra, sum formulas, pole candidates, and cross-verification.",
    )
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("eval", parents=[common], help="numeric value of zeta(k1,...,kr)")
    pe.add_argument("composition", help="comma-separated positive integers, e.g. 1,2")
    pe.add_argument("--bounds", help="comma-separated lower bounds, e.g. 2,3 (default all 1)")
    pe.set_defaults(fn=cmd_eval)

    pr = sub.add_parser("reduce", parents=[common], help="exact reduction to the graded basis")
    pr.add_argument("composition", help="comma-separated positive integers, e.g. 2,2")
    pr.add_argument("--bounds", help="comma-separated lower bounds (default all 1)")
    pr.set_defaults(fn=cmd_reduce)

    ps = sub.add_parser("shuffle", parents=[common], help="shuffle product of two words over {x,y}")
    ps.add_argument("word1")
    ps.add_argument("word2")
    ps.set_defaults(fn=cmd_shuffle)

    pf = sub.add_parser("sumformula", parents=[common], help="weighted depth-r sum formula at weight k")
    pf.add_argument("depth", type=int)
    pf.add_argument("weight", type=int)
    pf.set_defaults(fn=cmd_sumformula)

    pp = sub.add_parser("poles", parents=[common], help="candidate pole hyperplanes at a given depth")
    pp.add_argument("depth", type=int)
    pp.add_argument("k_max", type=int)
    pp.set_defaults(fn=cmd_poles)

    pv = sub.add_parser("verify", parents=[common], help="run a cross-verification suite")
    pv.add_argument("suite", choices=("all",) + SUITES)
    pv.add_argument("--max-weight", type=int, default=None, help="override the suite weight cap")
    pv.add_argument(
        "--corrupt", action="store_true",
        help="inject a deliberately wrong constant (harness self-test; must fail)",
    )
    pv.set_defaults(fn=cmd_verify)
    return p


def main(argv=None) -> int:
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        cfg = RunConfig(
            tolerance=args.tol,
            depth_cap=args.depth_cap,
            step_budget=args.step_budget,
            fmt=args.format,
            seed=args.seed,
            jobs=args.jobs,
        )
        return args.fn(args, cfg)
    except (CmzvError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

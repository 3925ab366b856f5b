"""Command line tests running main(argv) in-process, plus one subprocess
check of the installed entry point."""

import csv
import dataclasses
import io
import json
import math
import subprocess
import sys
import time

import pytest

from cmzv import (
    CapacityError,
    Composition,
    DivergenceError,
    DomainError,
    NumericResult,
    ShiftedCMZV,
    eval_numeric,
    quad,
    reduce,
    reduce_to_basis,
)
from cmzv.cli import main, render_symbolic, render_word_sum
from cmzv.reduce import SymbolicConstant
from cmzv.verify import run_suite
from fractions import Fraction

F = Fraction


# ------------------------------------------------------------- rendering


def test_render_symbolic_forms():
    assert render_symbolic(SymbolicConstant()) == "0"
    assert render_symbolic(SymbolicConstant(1, {2: F(-1)})) == "1 - log 2"
    assert render_symbolic(SymbolicConstant(F(-1, 4), {2: F(1, 2)})) == "-1/4 + 1/2*log 2"
    assert (
        render_symbolic(SymbolicConstant(0, {3: F(-1, 4)}, {(1, 1, 1): F(1, 2)}))
        == "-1/4*log 3 + 1/2*B(1,1,1)"
    )
    assert render_symbolic(SymbolicConstant(0, {2: F(1)})) == "log 2"


def test_render_word_sum_empty_word():
    from cmzv import FormalWordSum

    assert render_word_sum(FormalWordSum({"": 1})) == "1"
    assert render_word_sum(FormalWordSum({})) == "0"


# ------------------------------------------------------------------ eval


def test_eval_table(capsys):
    assert main(["eval", "2"]) == 0
    out = capsys.readouterr().out
    assert "value" in out and "converged" in out and "True" in out


def test_eval_json(capsys):
    assert main(["eval", "1,2", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"value", "error_estimate", "evaluations", "converged"}
    assert abs(payload["value"] - math.log(2)) < 1e-8
    assert payload["converged"] is True


def test_eval_with_bounds(capsys):
    assert main(["eval", "1,2", "--bounds", "2,3", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert abs(payload["value"] - math.log(2.5) / 3.0) < 1e-8


def test_eval_bounds_beyond_float_range_is_usage_error(capsys):
    assert main(["eval", "1,2", "--bounds", "1e400,1"]) == 2
    assert "error:" in capsys.readouterr().err


def test_eval_non_admissible_is_usage_error(capsys):
    assert main(["eval", "2,1"]) == 2
    assert "error:" in capsys.readouterr().err


def test_eval_depth_over_cap(capsys):
    assert main(["eval", "1,1,1,1,1,1,2"]) == 2
    assert "error:" in capsys.readouterr().err


def test_eval_unparsable_composition(capsys):
    assert main(["eval", "2,a"]) == 2
    assert "comma-separated" in capsys.readouterr().err


def test_eval_value_beyond_float_range_is_usage_error(capsys):
    # zeta_{1e-300,1}(3,2) is about 1e600 / 4
    assert main(["eval", "3,2", "--bounds", "1e-300,1"]) == 2
    assert "float range" in capsys.readouterr().err


def test_eval_value_below_float_range_is_usage_error(capsys):
    # zeta_{1e300,1e300}(1,3) is about 1e-600: once 0, estimate 0 and exit 0
    assert main(["eval", "1,3", "--bounds", "1e300,1e300"]) == 2
    err = capsys.readouterr().err
    assert err == "error: the value lies below the normal float range of the numeric route\n"


# 1 is exact; 1/3 rounds, and its ulp 2^-54 misses the tolerance (exit 3)
@pytest.mark.parametrize("parts, estimate, code", [("2", 0.0, 0), ("4", 2.0**-54, 3)])
def test_eval_depth1_estimate_is_the_rounding_of_its_value(capsys, parts, estimate, code):
    assert main(["eval", parts, "--tol", "1e-20", "--format", "json"]) == code
    assert json.loads(capsys.readouterr().out)["error_estimate"] == estimate


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "5", "--bounds", "1e-100"],
        ["eval", "2", "--bounds", "1e-400"],
        ["reduce", "2", "--bounds", "1e-400"],
    ],
)
def test_depth1_value_beyond_float_range_is_usage_error(capsys, argv):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "error: the value exceeds the float range of the numeric route" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "1,2", "--bounds", "1e-450,1e250"],
        # the reduction's residual runs the numeric route
        ["reduce", "2,2", "--bounds", "1e301,1e301"],
    ],
)
def test_numeric_bound_outside_range_is_usage_error(capsys, argv):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "error: a lower bound lies outside [1e-300, 1e300], the range of the numeric route" in err
    assert "Traceback" not in err


def test_eval_nonconverged_exit_code(monkeypatch, capsys):
    fake = NumericResult(0.5, 1e-2, 7, False)
    monkeypatch.setattr("cmzv.cli.eval_numeric", lambda *a, **k: fake)
    assert main(["eval", "2,3"]) == 3
    assert "False" in capsys.readouterr().out


# ---------------------------------------------------------------- reduce


def test_reduce_table(capsys):
    assert main(["reduce", "2,2"]) == 0
    out = capsys.readouterr().out
    assert "1 - log 2" in out
    assert "residual" in out


def test_reduce_json(capsys):
    assert main(["reduce", "1,1,3", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["rendered"] == "-1/4*log 3 + 1/2*B(1,1,1)"
    assert payload["rational"] == "0"
    assert payload["logs"] == {"3": "-1/4"}
    assert payload["basis"] == {"1,1,1": "1/2"}
    assert payload["residual"] < 1e-6


def test_reduce_csv_rows(capsys):
    assert main(["reduce", "2,2", "--format", "csv"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows[0] == ["key", "value"]
    assert [row[0] for row in rows[1:]] == ["symbolic", "numeric", "residual"]
    assert rows[1][1] == "1 - log 2"


def test_reduce_with_bounds(capsys):
    assert main(["reduce", "1,2", "--bounds", "2,3", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["rendered"] == "-1/3*log 2 + 1/3*log 5"
    assert payload["residual"] < 1e-6


def test_reduce_step_budget_exhaustion(capsys):
    # a cold memo, since memo hits, subterms shared with earlier calls
    # included, cost no budget
    reduce.clear_caches()
    assert main(["reduce", "2,2,2", "--bounds", "3,1,1", "--step-budget", "1"]) == 2
    assert "budget" in capsys.readouterr().err


@pytest.mark.parametrize("bounds", ["1,1,1", "1"])
def test_reduce_bound_count_must_match_depth(capsys, bounds):
    assert main(["reduce", "2,2", "--bounds", bounds]) == 2
    n = len(bounds.split(","))
    assert f"{n} bounds for depth-2 exponents" in capsys.readouterr().err
    assert main(["eval", "2,2", "--bounds", bounds]) == 2
    assert f"{n} bounds for depth-2 exponents" in capsys.readouterr().err


# (command line arguments, the same target built in code, its error)
_BAD_TARGETS = [
    (["2,1"], lambda: Composition((2, 1)), DivergenceError),
    (["2,2", "--bounds", "1,1,1"], lambda: ShiftedCMZV((1, 1, 1), (2, 2)), DomainError),
    (["2,2", "--bounds", "0,1"], lambda: ShiftedCMZV((0, 1), (2, 2)), DomainError),
    (["1,1,1,1,1,1,2"], lambda: Composition((1,) * 6 + (2,)), CapacityError),
]


@pytest.mark.parametrize("argv, build, error", _BAD_TARGETS)
def test_bad_target_fails_alike_on_every_route(capsys, argv, build, error):
    messages = set()
    for route in (eval_numeric, reduce_to_basis):
        with pytest.raises(error) as info:
            route(build())
        assert type(info.value) is error
        messages.add(str(info.value))
    for command in ("eval", "reduce"):
        assert main([command, *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        messages.add(err[len("error: ") : -1])
    assert len(messages) == 1, messages


def test_reduce_large_prime_bound_finishes():
    proc = subprocess.run(
        [sys.executable, "-m", "cmzv", "reduce", "1,2", "--bounds", "1000000000000000003,1"],
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert proc.returncode == 0
    assert "log 1000000000000000003" in proc.stdout


def test_reduce_huge_bound_gives_up_promptly():
    # the log argument 10^400 + 1 leaves a ~1200-bit cofactor for rho
    proc = subprocess.run(
        [sys.executable, "-m", "cmzv", "reduce", "1,2", "--bounds", "1e400,1"],
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert proc.returncode == 2
    assert "rho steps" in proc.stderr


def test_reduce_weight_nine_depth_five_at_default_budget(capsys):
    assert main(["reduce", "4,1,1,1,2", "--tol", "1e-2", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["basis"]["2,1,1,1"] == "2/3"


def test_reduce_rejects_zero_step_budget(capsys):
    assert main(["reduce", "2,2", "--step-budget", "0"]) == 2
    assert "error:" in capsys.readouterr().err


# --------------------------------------------------------------- shuffle


def test_shuffle_table_exact(capsys):
    assert main(["shuffle", "yx", "yx"]) == 0
    assert capsys.readouterr().out.strip() == "2*yxyx + 4*yyxx"


def test_shuffle_empty_words(capsys):
    assert main(["shuffle", "", ""]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_shuffle_bad_letters(capsys):
    assert main(["shuffle", "yx", "ab"]) == 2
    assert "error:" in capsys.readouterr().err


def test_shuffle_json(capsys):
    assert main(["shuffle", "y", "x", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"yx": "1", "xy": "1"}


@pytest.mark.parametrize(
    "fmt, expected",
    [
        ("table", "2*yxyx + 4*yyxx\n"),
        ("json", '{\n  "yxyx": "2",\n  "yyxx": "4"\n}\n'),
        ("csv", "word,coefficient\r\nyxyx,2\r\nyyxx,4\r\n"),
    ],
)
def test_shuffle_output_pinned(capsys, fmt, expected):
    assert main(["shuffle", "yx", "yx", "--format", fmt]) == 0
    assert capsys.readouterr().out == expected


def test_shuffle_long_word_has_no_recursion_limit(capsys):
    # y^1200 x sh yx: one interleaving per choice of 2 of the 1203 positions
    assert main(["shuffle", "y" * 1200 + "x", "yx", "--format", "csv"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows[0] == ["word", "coefficient"]
    assert sum(int(coeff) for _, coeff in rows[1:]) == math.comb(1203, 2) == 723_003


# ------------------------------------------------------------ sumformula


def test_sumformula_pass(capsys):
    assert main(["sumformula", "2", "4", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["rhs_exact"] == "3/4"
    assert payload["passed"] is True
    assert payload["difference"] <= payload["tolerance"]


def test_sumformula_reports_convergence(capsys):
    assert main(["sumformula", "2", "4", "--format", "csv"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert ["converged", "True"] in rows


def test_sumformula_nonconverged_exit_code(monkeypatch, capsys):
    fake = NumericResult(0.25, 1e-2, 7, False)
    monkeypatch.setattr("cmzv.quad.eval_numeric", lambda *a, **k: fake)
    assert main(["sumformula", "2", "4", "--format", "json"]) == 3
    payload = json.loads(capsys.readouterr().out)
    assert payload["converged"] is False


def test_sumformula_domain_error(capsys):
    assert main(["sumformula", "2", "2"]) == 2
    assert "error:" in capsys.readouterr().err


# ----------------------------------------------------------------- poles


def test_poles_table(capsys):
    assert main(["poles", "1", "3"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines == ["s1 = 1", "s1 = 0", "s1 = -1"]


def test_poles_json(capsys):
    assert main(["poles", "2", "1", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert {"coeffs": [2, 1], "constant": 2} in payload
    assert len(payload) == 4


_POLES_2_3 = [
    ((1,), 1), ((1,), 0), ((1,), -1),
    ((2,), 1), ((2,), 0), ((2,), -1),
    ((1, 1), 2), ((1, 1), 1), ((1, 1), 0),
    ((2, 1), 2), ((2, 1), 1), ((2, 1), 0),
]


def test_poles_output_pinned(capsys):
    assert main(["poles", "2", "3"]) == 0
    assert capsys.readouterr().out == (
        "s1 = 1\ns1 = 0\ns1 = -1\n2*s1 = 1\n2*s1 = 0\n2*s1 = -1\n"
        "s1 + s2 = 2\ns1 + s2 = 1\ns1 + s2 = 0\n"
        "2*s1 + s2 = 2\n2*s1 + s2 = 1\n2*s1 + s2 = 0\n"
    )
    assert main(["poles", "2", "3", "--format", "json"]) == 0
    payload = [{"coeffs": list(m), "constant": c} for m, c in _POLES_2_3]
    assert capsys.readouterr().out == json.dumps(payload, indent=2) + "\n"
    assert main(["poles", "2", "3", "--format", "csv"]) == 0
    rows = "".join(f"{' '.join(map(str, m))},{c}\r\n" for m, c in _POLES_2_3)
    assert capsys.readouterr().out == "coefficients,constant\r\n" + rows


def test_poles_capacity(capsys):
    assert main(["poles", "9", "1"]) == 2
    assert "error:" in capsys.readouterr().err


def test_poles_huge_k_max_is_capped_before_building(capsys):
    start = time.perf_counter()
    assert main(["poles", "8", "1000000000"]) == 2
    assert time.perf_counter() - start < 1.0
    assert "cap" in capsys.readouterr().err


# ---------------------------------------------------------------- verify


def test_verify_unitcube_passes(capsys):
    assert main(["verify", "unitcube"]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out and "checks passed" in out
    assert "[FAIL]" not in out


def test_verify_corrupt_self_test_fails(capsys):
    assert main(["verify", "unitcube", "--corrupt"]) == 1
    assert "[FAIL]" in capsys.readouterr().out


def test_verify_json_shape(capsys):
    assert main(["verify", "unitcube", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    assert payload["passed"] == payload["total"] > 0
    assert all({"suite", "name", "passed", "detail"} <= set(r) for r in payload["results"])


def test_verify_unitcube_respects_depth_cap(capsys):
    assert main(["verify", "unitcube", "--depth-cap", "3"]) == 0
    assert "2/2 checks passed" in capsys.readouterr().out


@pytest.mark.parametrize("cap", [1, 2, 3, 4, 5, 6])
def test_verify_all_fits_every_depth_cap(capsys, cap):
    # each suite lists only the checks whose values fit the cap
    assert main(["verify", "all", "--depth-cap", str(cap)]) == 0
    assert "checks passed" in capsys.readouterr().out


def test_verify_embedding_past_default_weight_fits_cap(capsys):
    assert main(["verify", "embedding", "--max-weight", "7", "--depth-cap", "4"]) == 0
    assert "checks passed" in capsys.readouterr().out


def test_verify_jobs_is_not_an_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "all", "--jobs", "2"])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["shuffle", "--max-weight", "1"],
        ["embedding", "--depth-cap", "1"],
        ["unitcube", "--max-weight", "1"],
    ],
)
def test_verify_selecting_no_checks_is_usage_error(capsys, argv):
    assert main(["verify", *argv]) == 2
    err = capsys.readouterr().err
    assert f"verify {argv[0]} selects no checks" in err
    assert "max weight" in err and "depth cap" in err


def test_run_suite_puts_the_failing_self_test_last():
    results = run_suite("all", corrupt=True)
    assert [r.suite for r in results[:-1]] == [r.suite for r in run_suite("all")]
    assert results[-1].suite == "self-test" and not results[-1].passed
    assert all(r.passed for r in results[:-1])


def test_verify_csv_rows(capsys):
    assert main(["verify", "unitcube", "--depth-cap", "3", "--format", "csv"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows[0] == ["suite", "name", "passed", "detail"]
    assert [row[:3] for row in rows[1:]] == [
        ["unitcube", "depth 2", "True"],
        ["unitcube", "depth 3", "True"],
    ]


def _unconverged(monkeypatch):
    """Every semi-infinite value keeps its number but reports converged=False."""
    real = quad.eval_numeric
    monkeypatch.setattr(
        "cmzv.quad.eval_numeric",
        lambda *a, **k: dataclasses.replace(real(*a, **k), converged=False),
    )


def test_verify_exits_3_when_a_passing_check_rests_on_unconverged_values(monkeypatch, capsys):
    _unconverged(monkeypatch)
    assert main(["verify", "unitcube", "--format", "json"]) == 3
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    assert [r["converged"] for r in payload["results"]] == [False, False, False]
    assert main(["verify", "unitcube"]) == 3
    assert "3/3 checks passed; 3 rest on values that did not converge" in capsys.readouterr().out


def test_verify_failure_outranks_non_convergence(monkeypatch, capsys):
    _unconverged(monkeypatch)
    assert main(["verify", "unitcube", "--corrupt"]) == 1


def test_reduce_exits_3_on_unconverged_generator(monkeypatch, capsys):
    # (1,1,3) reduces to -1/4*log 3 + 1/2*B(1,1,1); only the generator misses
    real = quad.eval_basis_generator
    monkeypatch.setattr(
        "cmzv.quad.eval_basis_generator",
        lambda *a, **k: dataclasses.replace(real(*a, **k), converged=False),
    )
    assert main(["reduce", "1,1,3"]) == 3


def test_verify_rejects_unknown_suite():
    with pytest.raises(SystemExit):
        main(["verify", "nonsense"])


# ---------------------------------------------------- env and format wiring


def test_env_sets_format(monkeypatch, capsys):
    monkeypatch.setenv("CMZV_FORMAT", "json")
    assert main(["eval", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == 1.0


def test_flag_overrides_env(monkeypatch, capsys):
    monkeypatch.setenv("CMZV_FORMAT", "json")
    assert main(["eval", "2", "--format", "csv"]) == 0
    first = capsys.readouterr().out.splitlines()[0]
    assert first == "key,value"


def test_bad_env_value_is_usage_error(monkeypatch, capsys):
    monkeypatch.setenv("CMZV_DEPTH_CAP", "many")
    assert main(["eval", "2"]) == 2
    assert "CMZV_DEPTH_CAP" in capsys.readouterr().err


def test_bad_env_value_breaks_only_commands_that_read_it(monkeypatch, capsys):
    monkeypatch.setenv("CMZV_DEPTH_CAP", "many")
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    monkeypatch.delenv("CMZV_DEPTH_CAP")
    monkeypatch.setenv("CMZV_SEED", "x")
    assert main(["shuffle", "yx", "yx"]) == 0
    assert main(["poles", "2", "2"]) == 0
    capsys.readouterr()
    assert main(["verify", "shuffle", "--max-weight", "3"]) == 2
    assert "CMZV_SEED" in capsys.readouterr().err
    monkeypatch.setenv("CMZV_TOL", "abc")
    assert main(["eval", "1,2", "--depth-cap", "3"]) == 2
    assert capsys.readouterr().err == "error: cannot parse environment variable CMZV_TOL='abc'\n"


def test_every_subcommand_accepts_every_shared_flag(capsys):
    shared = ["--tol", "1e-6", "--depth-cap", "6", "--step-budget", "100", "--seed", "1",
              "--format", "json"]
    assert main(["shuffle", "yx", "yx", *shared]) == 0
    assert main(["poles", "2", "2", *shared]) == 0
    assert main(["eval", "2", *shared]) == 0
    # a given flag is checked even where the subcommand does not read it
    assert main(["shuffle", "yx", "yx", "--depth-cap", "0"]) == 2


def test_bad_tolerance_flag(capsys):
    assert main(["eval", "2", "--tol", "-1"]) == 2
    assert "tolerance" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["verify", "all"], ["sumformula", "2", "4"]])
def test_negative_tolerance_is_reported_as_given(capsys, argv):
    # checked once, before a suite or identity splits it into per-term shares
    assert main([*argv, "--tol", "-1"]) == 2
    assert capsys.readouterr().err == "error: tolerance must be positive, got -1.0\n"


def test_bad_format_from_env_is_usage_error(monkeypatch, capsys):
    # argparse does not apply choices to a default, so main checks it
    monkeypatch.setenv("CMZV_FORMAT", "bogus")
    assert main(["eval", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: format must be one of ('table', 'json', 'csv'), got 'bogus'\n"


@pytest.mark.parametrize("argv", [["verify", "all"], ["reduce", "1,2"], ["eval", "1,2"]])
def test_infinite_tolerance_is_usage_error(monkeypatch, capsys, argv):
    assert main([*argv, "--tol", "inf"]) == 2
    assert capsys.readouterr().err == "error: tolerance must be finite, got inf\n"
    monkeypatch.setenv("CMZV_TOL", "inf")
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: tolerance must be finite, got inf\n"


def test_csv_output_parses(capsys):
    assert main(["eval", "1,2", "--format", "csv"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows[0] == ["key", "value"]
    keys = {row[0] for row in rows[1:]}
    assert {"value", "error_estimate", "evaluations", "converged"} <= keys


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "cmzv" in capsys.readouterr().out


# ------------------------------------------------------------- entry point


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "cmzv", "eval", "2", "--format", "json"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["value"] == 1.0


def test_import_leaves_numpy_polynomial_unloaded():
    # it costs about 2.9 ms and 1.3 MB of a process; the unit cube forms its
    # Gauss-Legendre rule without it
    code = (
        "import sys, cmzv.cli; print('numpy.polynomial' in sys.modules); "
        "cmzv.quad.eval_unit_cube_ones(6, 1e-5); print('numpy.polynomial' in sys.modules)"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout) == (0, "False\nFalse\n")

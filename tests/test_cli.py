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

from cmzv import NumericResult, quad, reduce
from cmzv.cli import main, render_symbolic, render_word_sum
from cmzv.reduce import SymbolicConstant
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


@pytest.mark.parametrize("cap", [2, 3, 4, 5])
def test_verify_all_fits_every_depth_cap(capsys, cap):
    # each suite lists only the checks whose values fit the cap
    assert main(["verify", "all", "--depth-cap", str(cap)]) == 0
    assert "checks passed" in capsys.readouterr().out


def test_verify_embedding_past_default_weight_fits_cap(capsys):
    assert main(["verify", "embedding", "--max-weight", "7", "--depth-cap", "4"]) == 0
    assert "checks passed" in capsys.readouterr().out


def test_verify_jobs_has_no_effect(capsys):
    outputs = []
    for jobs in ("1", "2"):
        quad.clear_caches()
        reduce.clear_caches()
        assert main(["verify", "all", "--jobs", jobs, "--format", "csv"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_verify_jobs_must_be_positive(capsys, monkeypatch):
    assert main(["verify", "unitcube", "--jobs", "0"]) == 2
    assert "jobs must all be >= 1" in capsys.readouterr().err
    monkeypatch.setenv("CMZV_JOBS", "0")
    assert main(["verify", "unitcube"]) == 2


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


def test_bad_tolerance_flag(capsys):
    assert main(["eval", "2", "--tol", "-1"]) == 2
    assert "tolerance" in capsys.readouterr().err


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

"""Fuzzed command lines: every one ends in exit code 0, 1, 2 or 3.

hypothesis drives cli.main in-process with five kinds of input: shuffle on
two short words over {x, y, z}, poles over a range of depths and k_max that
includes invalid ones, each subcommand with one malformed argument, eval
of a valid composition of depth 3 to 6 and weight at most 8, and eval and
reduce of a depth-1 value with one bound between 1e-400 and 1e400.  The
first three may only end in 0 (an answer, or --help) or 2 (a usage error):
none verifies or integrates anything.  eval may end in 0 or 3 (an answer
that did not converge within the numeric work cap), and a depth-1 value
also in 2 (beyond the float range).  Any other code, an escaping
exception, or a traceback on stderr fails the test.
"""

import contextlib
import io
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from cmzv.cli import main
from cmzv.compositions import admissible_compositions
from cmzv.verify import SUITES

_SETTINGS = settings(max_examples=60, deadline=None, database=None)

# a cheap valid command line per subcommand, to carry one malformed argument
_BASE = {
    "eval": ["eval", "1,2"],
    "reduce": ["reduce", "1,2"],
    "shuffle": ["shuffle", "yx", "yx"],
    "sumformula": ["sumformula", "2", "4"],
    "poles": ["poles", "2", "3"],
    "verify": ["verify", "unitcube"],
}


def _run(argv: list[str]) -> int:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert "Traceback" not in err.getvalue(), argv
    return code


def _parses(cast, text: str) -> bool:
    try:
        cast(text)
    except (ValueError, ZeroDivisionError):
        return False
    return True


_non_int = st.text(max_size=6).filter(lambda t: "," not in t and not _parses(int, t))
_non_float = st.text(max_size=6).filter(lambda t: not _parses(float, t))
_non_positive = st.floats(max_value=0.0).map(repr) | st.just("nan")
_bad_bounds = st.text(max_size=8).filter(
    lambda t: not all(_parses(Fraction, tok) for tok in t.split(","))
)
_bad_suite = st.text(max_size=10).filter(lambda t: t not in ("all",) + SUITES)


@_SETTINGS
@given(
    st.text(alphabet="xyz", max_size=8),
    st.text(alphabet="xyz", max_size=8),
    st.sampled_from(["table", "json", "csv"]),
)
def test_fuzz_shuffle(w1, w2, fmt):
    assert _run(["shuffle", w1, w2, "--format", fmt]) in {0, 2}


@settings(max_examples=30, deadline=None, database=None)
@given(st.integers(-2, 10), st.integers(-2, 30), st.sampled_from(["table", "json", "csv"]))
def test_fuzz_poles(r, k_max, fmt):
    assert _run(["poles", str(r), str(k_max), "--format", fmt]) in {0, 2}


@_SETTINGS
@given(
    st.one_of(
        st.tuples(st.sampled_from(["eval", "reduce"]), _non_int).map(
            lambda a: [a[0], "1," + a[1]]
        ),
        st.tuples(st.sampled_from(sorted(_BASE)), _non_float | _non_positive).map(
            lambda a: _BASE[a[0]] + [f"--tol={a[1]}"]
        ),
        st.tuples(st.sampled_from(["eval", "reduce"]), _bad_bounds).map(
            lambda a: [a[0], "1,2", f"--bounds={a[1]}"]
        ),
        st.tuples(st.sampled_from(["sumformula", "poles"]), _non_int).map(
            lambda a: [a[0], a[1], "3"]
        ),
        _bad_suite.map(lambda s: ["verify", s]),
    )
)
def test_fuzz_malformed_argument(argv):
    assert _run(argv) in {0, 2}


_DEEP = [
    ",".join(map(str, c.parts))
    for w in range(4, 9)
    for c in admissible_compositions(w)
    if 3 <= c.depth <= 6
]


@_SETTINGS
@given(st.sampled_from(_DEEP), st.sampled_from(["table", "json", "csv"]))
def test_fuzz_deep_eval(composition, fmt):
    assert _run(["eval", composition, "--format", fmt]) in {0, 3}


@_SETTINGS
@given(
    st.sampled_from(["eval", "reduce"]),
    st.integers(2, 8),
    st.sampled_from(["-", ""]),
    st.integers(1, 400),
)
def test_fuzz_extreme_depth1_bound(command, k, sign, e):
    assert _run([command, str(k), f"--bounds=1e{sign}{e}"]) in {0, 2, 3}

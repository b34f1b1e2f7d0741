"""Fuzz of the command line: every argv and job file is either answered
(exit 0) or refused with exit 1 or 2 and an error message, never with an
uncaught exception or a traceback."""

import contextlib
import io
import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from schuprod.cli import main

TYPES = ["A1", "A2", "A3", "B2", "G2"]

small_ints = st.integers(min_value=-2, max_value=5)
# Letters 1 and 2 exist in every group but A1; the odd lists reach past
# the rank and below 1.
letter_lists = st.lists(st.integers(min_value=1, max_value=2), max_size=4)
odd_letter_lists = st.lists(st.integers(min_value=-1, max_value=4), max_size=7)
word_texts = st.one_of(
    letter_lists.map(lambda w: ",".join(map(str, w))),
    odd_letter_lists.map(lambda w: ",".join(map(str, w))),
    st.sampled_from(["", "e", " 2 ", "1,,2", "x", "1.5", "99999999999999999999"]),
)
parabolic_texts = st.one_of(st.sampled_from(["", "1", "2", "1,3"]), word_texts)

CARTAN = [
    [[2]],
    [[2, 0], [0, 2]],
    [[2, -1], [-1, 2]],
    [[2, -1], [-2, 2]],
    [[2, -3], [-1, 2]],
    [[2, -1, 0], [-1, 2, -1], [0, -1, 2]],
    [[2, -1, 0], [-1, 2, -2], [0, -1, 2]],
    [[2, -1, 0], [-1, 2, -1], [0, -2, 2]],
]


def square_matrices():
    """Square matrices of rank 1 to 3 with entries near the allowed ones:
    finite types, affine and indefinite ones, and shape violations."""
    return st.integers(min_value=1, max_value=3).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(min_value=-4, max_value=3), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )


# JSON values of every kind, for fields that expect something else.
json_values = st.recursive(
    st.none() | st.booleans() | small_ints | st.floats(allow_nan=False) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=6,
)
matrices = st.one_of(st.sampled_from(CARTAN), square_matrices(), json_values)
# Misspelled job-file keys, which must be refused rather than dropped, and
# jobs that are answered without them, so that no other error masks them.
MISSPELLED = ["parbolic", "include_zero", "tabel"]
ANSWERED_JOBS = [
    {"group": "A3", "parabolic": [1, 3], "mode": "table", "table": [1, 1]},
    {"group": "G2", "mode": "expand", "u": "2,1,2", "v": [1, 2], "include_zeros": True},
    {"group": "B2", "u": "1", "v": "2", "w": [1, 2]},
]


def one_in(n):
    """True about once in n draws.  Hypothesis favours the ends of an
    integer range, so the rare value is one from the middle."""
    return st.integers(min_value=0, max_value=n - 1).map(lambda k: k == n // 2)


def mostly(plausible, other=json_values):
    """plausible three times in four, otherwise other (any JSON value by
    default)."""
    return one_in(4).flatmap(lambda odd: other if odd else plausible)


@st.composite
def argvs(draw):
    if draw(one_in(8)):
        # Selftest with output flags only: the report is JSON under --json,
        # and --verbose, --echo-matrix and --show-matrix are refused.
        flags = ("--json", "--verbose", "--echo-matrix", "--show-matrix")
        return ["--selftest", *(flag for flag in flags if draw(st.booleans()))]
    if draw(st.booleans()):
        # Ranks past the bound must be refused before any matrix is built.
        argv = ["--type", draw(st.sampled_from(TYPES + ["X2", "A0", "A501", "D1000000", "B1000000000000"]))]
    else:
        # A JSON string, type name or not, is never a matrix.
        matrix = draw(one_in(8).flatmap(lambda odd: st.sampled_from(TYPES) if odd else matrices))
        argv = ["--matrix=" + json.dumps(matrix)]
    if draw(st.booleans()):
        argv.append("--parabolic=" + draw(parabolic_texts))
    mode = draw(st.sampled_from(["constant", "expand", "table"]))
    if mode == "table":
        argv += ["--table", str(draw(small_ints)), str(draw(small_ints))]
    else:
        argv += ["--u=" + draw(word_texts), "--v=" + draw(word_texts)]
        argv += ["--expand"] if mode == "expand" else []
    if mode == "constant" or draw(st.booleans()):
        argv.append("--w=" + draw(word_texts))
    for flag in ("--json", "--verbose", "--include-zeros", "--show-matrix", "--echo-matrix"):
        if draw(st.booleans()):
            argv.append(flag)
    if draw(st.booleans()):
        bound = draw(mostly(st.integers(min_value=1, max_value=1000), st.integers(min_value=-1, max_value=0)))
        argv.append(f"--max-group-order={bound}")
    return argv


@st.composite
def jobs(draw):
    """A job file's text: each field present five times in six, mostly
    plausible, and one file in ten cut short.  One in eight is instead an
    answered job with a misspelled key added."""
    words = st.one_of(word_texts, letter_lists)
    fields = {
        "group": mostly(st.sampled_from(TYPES + CARTAN), matrices),
        "mode": mostly(st.sampled_from(["constant", "expand", "table", "inspect"])),
        "u": mostly(words),
        "v": mostly(words),
        "w": mostly(words),
        "table": mostly(st.lists(st.integers(min_value=0, max_value=4), min_size=2, max_size=2)),
        "parabolic": mostly(st.one_of(parabolic_texts, letter_lists)),
        "include_zeros": mostly(st.booleans()),
    }
    job = {key: draw(values) for key, values in fields.items() if not draw(one_in(6))}
    if draw(one_in(8)):
        job = dict(draw(st.sampled_from(ANSWERED_JOBS)))
        job[draw(st.sampled_from(MISSPELLED))] = draw(json_values)
    text = json.dumps(job)
    return text[:-1] if draw(one_in(10)) else text


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def check_outcome(argv, code, out, err):
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if any(arg.startswith('--matrix="') for arg in argv):
        assert code == 1
    if code:
        assert "error: " in err
    elif "--json" in argv:
        json.loads(out)


@given(argvs())
@settings(max_examples=150, deadline=None)
def test_fuzzed_argv_is_answered_or_refused(argv):
    check_outcome(argv, *run_main(argv))


@given(jobs(), st.sampled_from([[], ["--json"], ["--verbose"], ["--max-group-order", "7"]]))
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_fuzzed_job_file_is_answered_or_refused(tmp_path, job, flags):
    path = tmp_path / "job.json"
    path.write_text(job)
    argv = ["--job", str(path), *flags]
    code, out, err = run_main(argv)
    check_outcome(argv, code, out, err)
    if any(f'"{key}":' in job for key in MISSPELLED):
        assert code == 1

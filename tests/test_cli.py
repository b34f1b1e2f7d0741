import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from schuprod import (
    cartan_matrix_by_name,
    cli,
    oracles,
    product_expansion,
    relmat,
    schubert,
    structure_constant,
    structure_constant_for_word,
    triop,
    weyl,
)
from schuprod.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_constant_mode(capsys):
    code, out, _ = run_cli(
        capsys, "--type", "G2", "--u", "2,1,2", "--v", "1,2", "--w", "2,1,2,1,2"
    )
    assert code == 0
    assert out.strip() == "1"


def test_constant_mode_verbose(capsys):
    code, out, _ = run_cli(
        capsys, "--type", "G2", "--u", "2,1,2", "--v", "1,2", "--w", "2,1,2,1,2",
        "--verbose",
    )
    assert code == 0
    assert "(1, 2, 3), (1, 2, 5), (1, 4, 5), (3, 4, 5)" in out
    assert "(2, 3), (2, 5), (4, 5)" in out
    assert out.strip().endswith("1")


def test_expand_mode_text(capsys):
    code, out, _ = run_cli(capsys, "--type", "G2", "--u", "2,1,2", "--v", "1,2", "--expand")
    assert code == 0
    assert out.strip() == "P[2,1,2] * P[1,2] = P[2,1,2,1,2]"


def test_expand_empty(capsys):
    code, out, _ = run_cli(capsys, "--type", "A1", "--u", "1", "--v", "1", "--expand")
    assert code == 0
    assert out.strip() == "P[1] * P[1] = 0"


def test_expand_identity_factor(capsys):
    code, out, _ = run_cli(capsys, "--type", "A2", "--u", "", "--v", "1,2", "--expand")
    assert code == 0
    assert out.strip() == "P[e] * P[1,2] = P[1,2]"


def test_verbose_json_detail(capsys):
    code, out, _ = run_cli(
        capsys, "--type", "G2", "--u", "2,1,2", "--v", "1,2", "--w", "2,1,2,1,2",
        "--verbose", "--json",
    )
    assert code == 0
    detail = json.loads(out)["detail"]
    assert detail["u_solutions"] == [[1, 2, 3], [1, 2, 5], [1, 4, 5], [3, 4, 5]]
    assert detail["relative_matrix"][0] == [0, 3, -2, 3, -2]
    assert {"exponents": [0, 1, 1, 0, 0], "coefficient": 1} in detail["v_sum"]
    assert len(detail["u_sum"]) == 4 and len(detail["v_sum"]) == 3


@pytest.mark.parametrize(
    "argv, job",
    [
        (["--type", "G2", "--u", "1", "--v", "2", "--expand"], {"group": "G2", "mode": "expand", "u": "1", "v": "2"}),
        (["--type", "A3", "--parabolic", "1,3", "--table", "1", "1"],
         {"group": "A3", "parabolic": [1, 3], "mode": "table", "table": [1, 1]}),
        (["--type", "G2", "--w", "2,1", "--show-matrix"], {"group": "G2", "mode": "inspect", "w": "2,1"}),
        (["--selftest"], {"mode": "selftest"}),
    ],
    ids=["expand", "table", "inspect", "selftest"],
)
def test_verbose_outside_constant_mode_is_refused(tmp_path, capsys, argv, job):
    mode = job["mode"]
    expected = (1, "", f"error: --verbose applies to constant mode only, not {mode} mode\n")
    assert run_cli(capsys, *argv, "--verbose") == expected
    output = ["--show-matrix"] if mode == "inspect" else []
    assert run_cli(capsys, *_job_argv(tmp_path, job), *output, "--verbose") == expected


@pytest.mark.parametrize(
    "argv, job, output, refusal",
    [
        (["--type", "A2", "--table", "1", "1", "--u", "1"],
         {"group": "A2", "mode": "table", "table": [1, 1], "u": "1"}, [], "table mode takes no u"),
        (["--type", "A2", "--u", "1", "--v", "2", "--w", "1,2", "--table", "1", "1"],
         {"group": "A2", "mode": "table", "table": [1, 1], "u": "1", "v": "2", "w": "1,2"}, [],
         "table mode takes no u, v, w"),
        (["--type", "A2", "--u", "1", "--v", "2", "--expand", "--w", "1,2"],
         {"group": "A2", "mode": "expand", "u": "1", "v": "2", "w": "1,2"}, [], "expand mode takes no w"),
        (None, {"group": "A2", "mode": "expand", "u": "1", "v": "2", "table": [1, 1]}, [],
         "expand mode takes no table"),
        (None, {"group": "A2", "mode": "constant", "u": "1", "v": "2", "w": "1,2", "table": [1, 1]}, [],
         "constant mode takes no table"),
        (["--type", "A2", "--u", "1"], {"group": "A2", "mode": "inspect", "u": "1"}, ["--echo-matrix"],
         "inspect mode takes no u"),
        (["--type", "A2", "--u", "1", "--v", "2", "--w", "1,2", "--include-zeros"],
         {"group": "A2", "u": "1", "v": "2", "w": "1,2", "include_zeros": False}, [],
         "constant mode takes no include_zeros"),
        (["--type", "A2", "--w", "1,2", "--include-zeros"],
         {"group": "A2", "mode": "inspect", "w": "1,2", "include_zeros": True}, ["--echo-matrix"],
         "inspect mode takes no include_zeros"),
    ],
    ids=[
        "table-u", "table-words", "expand-w", "expand-table", "constant-table", "inspect-u",
        "constant-include-zeros", "inspect-include-zeros",
    ],
)
def test_a_mode_refuses_inputs_it_does_not_read(tmp_path, capsys, argv, job, output, refusal):
    expected = (1, "", f"error: {refusal}\n")
    if argv is not None:
        assert run_cli(capsys, *argv, *output) == expected
    assert run_cli(capsys, *_job_argv(tmp_path, job), *output) == expected


def test_json_report_matches_text(capsys):
    code, out_json, _ = run_cli(
        capsys, "--type", "G2", "--u", "2,1,2", "--v", "1,2", "--expand", "--json",
        "--include-zeros",
    )
    assert code == 0
    report = json.loads(out_json)
    values = {tuple(r["w_word"]): r["value"] for r in report["records"]}
    assert values == {(2, 1, 2, 1, 2): 1, (1, 2, 1, 2, 1): 0}
    code, out_text, _ = run_cli(
        capsys, "--type", "G2", "--u", "2,1,2", "--v", "1,2", "--expand",
        "--include-zeros",
    )
    assert "P[2,1,2,1,2]" in out_text
    # identical numeric content in both renderings
    assert sum(values.values()) == out_text.count("P[2,1,2,1,2]")


def test_expand_all_zero_terms_rendering(capsys):
    # s1 pairs with s1s2 at the top degree, so against s2s1 every candidate
    # coefficient is zero; with zeros kept the text shows the candidate.
    code, out, _ = run_cli(
        capsys, "--type", "A2", "--u", "1", "--v", "2,1", "--expand",
        "--include-zeros",
    )
    assert code == 0
    assert out.strip() == "P[1] * P[2,1] = 0*P[1,2,1]"
    code, out, _ = run_cli(capsys, "--type", "A2", "--u", "1", "--v", "2,1", "--expand")
    assert code == 0
    assert out.strip() == "P[1] * P[2,1] = 0"


def test_table_mode_matches_oracle(capsys):
    code, out, _ = run_cli(
        capsys, "--type", "A3", "--parabolic", "1,3", "--table", "1", "1"
    )
    assert code == 0
    assert out.strip() == "P[2] * P[2] = P[1,2] + P[3,2]"
    # JSON twin carries the same numbers
    code, out_json, _ = run_cli(
        capsys, "--type", "A3", "--parabolic", "1,3", "--table", "1", "1", "--json"
    )
    assert code == 0
    records = json.loads(out_json)["records"]
    assert {tuple(r["w_word"]): r["value"] for r in records} == {
        (1, 2): 1,
        (3, 2): 1,
    }


def test_table_identity_degrees(capsys):
    code, out, _ = run_cli(capsys, "--type", "A2", "--table", "0", "0")
    assert code == 0
    assert out.strip() == "P[e] * P[e] = P[e]"


def test_parabolic_index_out_of_range(capsys):
    code, _, err = run_cli(
        capsys, "--type", "A2", "--parabolic", "5", "--table", "1", "1"
    )
    assert code == 1 and "out of range" in err


def test_inspect_mode_checks_the_subset_range(capsys):
    expected = (1, "", "error: parabolic indices [9] out of range 1..2\n")
    assert run_cli(capsys, "--type", "G2", "--parabolic", "9", "--echo-matrix") == expected


def test_job_file_table_mode(tmp_path, capsys):
    path = tmp_path / "job.json"
    path.write_text(
        json.dumps({"group": "A3", "parabolic": [1, 3], "mode": "table", "table": [1, 1]})
    )
    code, out, _ = run_cli(capsys, "--job", str(path))
    assert code == 0
    assert out.strip() == "P[2] * P[2] = P[1,2] + P[3,2]"
    path.write_text(json.dumps({"group": "A3", "mode": "table"}))
    code, _, err = run_cli(capsys, "--job", str(path))
    assert code == 1 and "degree levels" in err


def test_table_mode_json_deterministic(capsys):
    args = ("--type", "B2", "--table", "1", "1", "--json", "--include-zeros")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second
    report = json.loads(first)
    assert len(report["records"]) == 8  # 2 u's, 2 v's, 2 targets each


def test_echo_matrix(capsys):
    code, out, _ = run_cli(capsys, "--type", "G2", "--echo-matrix")
    assert code == 0
    assert out.strip() == "[[2,-3],[-1,2]]"
    code, out, _ = run_cli(capsys, "--matrix", "[[2,-1],[-3,2]]", "--echo-matrix")
    assert code == 0
    assert out.strip() == "[[2,-1],[-3,2]]"


def test_show_matrix(capsys):
    code, out, _ = run_cli(
        capsys, "--type", "G2", "--w", "2,1,2,1,2", "--show-matrix", "--json"
    )
    assert code == 0
    assert json.loads(out)["relative_matrix"] == [
        [0, 3, -2, 3, -2],
        [0, 0, 1, -2, 1],
        [0, 0, 0, 3, -2],
        [0, 0, 0, 0, 1],
        [0, 0, 0, 0, 0],
    ]
    code, out, _ = run_cli(capsys, "--type", "G2", "--show-matrix")
    assert code == 1  # show-matrix needs a word
    code, out, _ = run_cli(capsys, "--type", "G2", "--show-matrix", "--w", "2,1")
    assert code == 0
    assert json.loads(out) == [[0, 3], [0, 0]]


G2_MATRIX_W_TEXT = "[[0,3,-2,3,-2],[0,0,1,-2,1],[0,0,0,3,-2],[0,0,0,0,1],[0,0,0,0,0]]"


@pytest.mark.parametrize(
    "argv, result",
    [
        (["--u", "2,1,2", "--v", "1,2"], ["1"]),
        (["--u", "2,1,2", "--v", "1,2", "--expand"], ["P[2,1,2] * P[1,2] = P[2,1,2,1,2]"]),
        (["--table", "1", "1"],
         ["P[1] * P[1] = 3*P[2,1]", "P[1] * P[2] = P[1,2] + P[2,1]",
          "P[2] * P[1] = P[1,2] + P[2,1]", "P[2] * P[2] = P[1,2]"]),
    ],
    ids=["constant", "expand", "table"],
)
def test_show_matrix_text_in_every_mode(capsys, argv, result):
    # The relative matrix of the --w word comes first, as in inspect mode.
    out = "\n".join([G2_MATRIX_W_TEXT, *result]) + "\n"
    assert run_cli(capsys, "--type", "G2", "--w", "2,1,2,1,2", "--show-matrix", *argv) == (0, out, "")


def test_selftest_passes(capsys):
    code, out, _ = run_cli(capsys, "--selftest")
    assert code == 0
    assert "FAIL" not in out
    assert out.count("PASS") >= 10


def test_selftest_failure_exit_code(capsys, monkeypatch):
    from schuprod import selftest as selftest_mod

    def broken():
        return [selftest_mod.CheckResult("made-up-check", False, "forced")]

    monkeypatch.setattr(selftest_mod, "run_selftest", broken)
    code, out, _ = run_cli(capsys, "--selftest")
    assert code == 3
    assert "FAIL made-up-check: forced" in out


def test_selftest_json_report(capsys, monkeypatch):
    code, out, err = run_cli(capsys, "--selftest", "--json")
    report = json.loads(out)
    assert (code, err) == (0, "")
    assert sorted(report) == ["checks", "format_version", "mode"]
    assert (report["format_version"], report["mode"]) == (1, "selftest")
    assert len(report["checks"]) >= 10 and all(check["passed"] for check in report["checks"])
    assert cli.render_text(report) == run_cli(capsys, "--selftest")[1].rstrip("\n")

    from schuprod import selftest as selftest_mod

    failed = [selftest_mod.CheckResult("made-up-check", False, "forced")]
    monkeypatch.setattr(selftest_mod, "run_selftest", lambda: failed)
    code, out, _ = run_cli(capsys, "--selftest", "--json")
    assert code == 3
    assert json.loads(out)["checks"] == [{"name": "made-up-check", "passed": False, "detail": "forced"}]


@pytest.mark.parametrize("flag", ["--echo-matrix", "--show-matrix"])
def test_selftest_refuses_matrix_output(tmp_path, capsys, flag):
    expected = (1, "", "error: selftest mode has no matrix or word to show\n")
    assert run_cli(capsys, "--selftest", flag) == expected
    assert run_cli(capsys, *_job_argv(tmp_path, {"mode": "selftest"}), flag) == expected


def test_input_errors(capsys):
    code, _, err = run_cli(capsys, "--type", "Q9", "--expand", "--u", "1", "--v", "1")
    assert code == 1 and "error" in err
    code, _, err = run_cli(capsys, "--matrix", "[[2,-1],[-1", "--expand", "--u", "1", "--v", "1")
    assert code == 1 and "line" in err
    code, _, err = run_cli(capsys, "--type", "A2")
    assert code == 1
    code, _, err = run_cli(capsys, "--type", "A2", "--u", "1,5", "--v", "1", "--expand")
    assert code == 1
    code, _, err = run_cli(
        capsys, "--type", "G2", "--u", "1,1", "--v", "2", "--w", "1,2,1"
    )
    assert code == 1  # l(u)+l(v) mismatch: u word is not reduced


def test_group_too_large_exit_code(capsys):
    code, _, err = run_cli(
        capsys, "--type", "A3", "--u", "1", "--v", "2", "--expand",
        "--max-group-order", "3",
    )
    assert code == 2


def test_expand_checks_factors_before_walking(capsys):
    # A factor that is not coset-minimal is refused before W/W' is walked,
    # as in constant mode and product_expansion, so the bound is not reached.
    code, out, err = run_cli(
        capsys, "--type", "A3", "--parabolic", "1", "--u", "1", "--v", "2", "--expand",
        "--max-group-order", "3",
    )
    assert (code, out, err) == (1, "", "error: u is not minimal in its coset for [1]\n")


def test_job_file(tmp_path, capsys):
    job = {
        "group": "G2",
        "mode": "expand",
        "u": "2,1,2",
        "v": [1, 2],
        "include_zeros": True,
    }
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    code, out, _ = run_cli(capsys, "--job", str(path), "--json")
    assert code == 0
    report = json.loads(out)
    assert {tuple(r["w_word"]): r["value"] for r in report["records"]} == {
        (2, 1, 2, 1, 2): 1,
        (1, 2, 1, 2, 1): 0,
    }
    code, _, err = run_cli(capsys, "--job", str(path), "--type", "G2")
    assert code == 1  # job file excludes the input flags


def test_job_file_errors(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run_cli(capsys, "--job", str(path))
    assert code == 1 and "line" in err
    path.write_text(json.dumps({"mode": "expand"}))
    code, _, err = run_cli(capsys, "--job", str(path))
    assert code == 1 and "group" in err


# Every degree pair up to 2 on these spaces, after the first four cases.
TABLE_CASES = [("A3", "", (1, 2)), ("B3", "2,3", (1, 2)), ("C3", "", (2, 2)), ("G2", "", (2, 3))] + [
    (name, parabolic, (d1, d2))
    for name, parabolic in [("G2", ""), ("B3", ""), ("B3", "2,3"), ("A3", "1,3"), ("D4", "1")]
    for d1 in range(3)
    for d2 in range(3)
]


@pytest.mark.parametrize("name, parabolic, degrees", TABLE_CASES)
def test_table_matches_per_triple_constants(capsys, name, parabolic, degrees):
    # Each record is the library's constant, and constant mode gives it
    # too on the lexicographically last reduced word of w, equal to the
    # constant evaluated on exactly that word.
    d1, d2 = degrees
    code, out, _ = run_cli(
        capsys, "--type", name, "--parabolic", parabolic, "--table", str(d1), str(d2),
        "--json", "--include-zeros",
    )
    assert code == 0
    c = cartan_matrix_by_name(name)
    indices = weyl.parse_word(parabolic)
    reps = weyl.minimal_coset_reps(c, indices)
    triples = [
        (u, v, w)
        for u in reps if u.length == d1
        for v in reps if v.length == d2
        for w in reps if w.length == d1 + d2
    ]
    expected = [
        {
            "u_word": list(weyl.reduced_word(u, c)),
            "v_word": list(weyl.reduced_word(v, c)),
            "w_word": list(weyl.reduced_word(w, c)),
            "value": structure_constant(u, v, w, c, indices or None),
        }
        for u, v, w in triples
    ]
    records = json.loads(out)["records"]
    assert records == expected
    assert any(r["value"] for r in records)
    for (u, v, w), record in zip(triples, records):
        w_word = max(oracles.all_reduced_words(w, c))
        words = {key: weyl.format_word(record[key]) for key in ("u_word", "v_word")}
        code, out, _ = run_cli(
            capsys, "--type", name, "--parabolic", parabolic, "--u", words["u_word"],
            "--v", words["v_word"], "--w", weyl.format_word(w_word), "--json",
        )
        assert code == 0
        assert json.loads(out)["record"] == dict(record, w_word=list(w_word))
        assert record["value"] == structure_constant_for_word(w_word, u, v, c)


def test_negative_constant_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(schubert, "eliminate", lambda rows, polys: [-1] * len(polys))
    code, out, err = run_cli(capsys, "--type", "A2", "--u", "1", "--v", "2", "--expand")
    assert code == 2 and out == ""
    assert err.startswith("error: negative structure constant -1")
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err


def test_out_of_memory_exits_2(capsys, monkeypatch):
    def exhausted(self, pairs, include_zeros=False):
        raise MemoryError

    monkeypatch.setattr(schubert.FlagManifold, "expand", exhausted)
    assert run_cli(capsys, "--type", "A2", "--table", "1", "1") == (2, "", "error: out of memory\n")


@pytest.mark.parametrize("letter", [1.7, True])
def test_job_file_rejects_non_integer_letters(tmp_path, capsys, letter):
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"group": "A2", "u": [letter], "v": [2], "w": [1, 2]}))
    code, out, err = run_cli(capsys, "--job", str(path))
    assert code == 1 and out == ""
    assert "job file u must be a string like '2,1,2' or a list of integers" in err


def test_job_file_rejects_short_table(tmp_path, capsys):
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"group": "A3", "mode": "table", "table": [1]}))
    code, _, err = run_cli(capsys, "--job", str(path))
    assert code == 1 and "table must be two integer degree levels, got [1]" in err


def test_job_file_parabolic_string_parses_like_the_flag(tmp_path, capsys):
    path = tmp_path / "job.json"
    job = {"group": "A3", "mode": "table", "table": [1, 1], "parabolic": "1,3"}
    path.write_text(json.dumps(job))
    code, out, _ = run_cli(capsys, "--job", str(path))
    assert code == 0
    assert out.strip() == "P[2] * P[2] = P[1,2] + P[3,2]"
    for bad in ([1.5], 3):
        path.write_text(json.dumps(dict(job, parabolic=bad)))
        code, _, err = run_cli(capsys, "--job", str(path))
        assert code == 1 and "job file parabolic must be" in err
    path.write_text(json.dumps(dict(job, include_zeros="no")))
    code, _, err = run_cli(capsys, "--job", str(path))
    assert code == 1 and "include_zeros must be true or false" in err


@pytest.mark.parametrize("bound", ["0", "-5"])
def test_max_group_order_must_be_positive(tmp_path, capsys, bound):
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"group": "A2", "mode": "expand", "u": "1", "v": "2"}))
    for argv in (["--type", "A2", "--u", "1", "--v", "2", "--expand"], ["--job", str(path)]):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--max-group-order", bound])
        captured = capsys.readouterr()
        assert exc.value.code == 1 and captured.out == ""
        assert f"--max-group-order: expected a positive integer, got {bound}" in captured.err


@pytest.mark.parametrize(
    "argv",
    [["--bogus"], ["--type", "A2", "--table", "x", "1"], ["--cache-dir", "D"]],
    ids=["unknown-flag", "bad-table-degree", "removed-cache-dir"],
)
def test_usage_errors_exit_1(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert "usage: schuprod" in capsys.readouterr().err


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "usage: schuprod" in capsys.readouterr().out


G2_VERBOSE = ("--type", "G2", "--u", "2,1,2", "--v", "1,2", "--w", "2,1,2,1,2", "--verbose")
G2_VERBOSE_TEXT = """\
w word: 2,1,2,1,2
relative matrix:
    0   3  -2   3  -2
    0   0   1  -2   1
    0   0   0   3  -2
    0   0   0   0   1
    0   0   0   0   0
u solutions: (1, 2, 3), (1, 2, 5), (1, 4, 5), (3, 4, 5)
v solutions: (2, 3), (2, 5), (4, 5)
1
"""


def _monomials(*exponents):
    return [{"coefficient": 1, "exponents": list(e)} for e in exponents]


G2_VERBOSE_REPORT = {
    "detail": {
        "relative_matrix": [
            [0, 3, -2, 3, -2],
            [0, 0, 1, -2, 1],
            [0, 0, 0, 3, -2],
            [0, 0, 0, 0, 1],
            [0, 0, 0, 0, 0],
        ],
        "u_solutions": [[1, 2, 3], [1, 2, 5], [1, 4, 5], [3, 4, 5]],
        "u_sum": _monomials((0, 0, 1, 1, 1), (1, 0, 0, 1, 1), (1, 1, 0, 0, 1), (1, 1, 1, 0, 0)),
        "v_solutions": [[2, 3], [2, 5], [4, 5]],
        "v_sum": _monomials((0, 0, 0, 1, 1), (0, 1, 0, 0, 1), (0, 1, 1, 0, 0)),
        "w_word": [2, 1, 2, 1, 2],
    },
    "format_version": 1,
    "group": [[2, -3], [-1, 2]],
    "mode": "constant",
    "parabolic": [],
    "record": {"u_word": [2, 1, 2], "v_word": [1, 2], "value": 1, "w_word": [2, 1, 2, 1, 2]},
}


@pytest.mark.parametrize(
    "argv, calls, expected",
    [
        (G2_VERBOSE, 3, G2_VERBOSE_TEXT),
        (G2_VERBOSE + ("--json",), 3, json.dumps(G2_VERBOSE_REPORT, indent=2, sort_keys=True) + "\n"),
        (
            ("--type", "B3", "--parabolic", "2,3", "--u", "1", "--v", "2,1", "--w", "3,2,1",
             "--verbose"),
            3,
            "w word: 3,2,1\nrelative matrix:\n    0   2   0\n    0   0   1\n    0   0   0\n"
            "u solutions: (3,)\nv solutions: (2, 3)\n2\n",
        ),
        (
            ("--type", "G2", "--u", "2,1,2", "--v", "1,2", "--w", "2,1,2,1,2", "--show-matrix"),
            3,
            G2_MATRIX_W_TEXT + "\n1\n",
        ),
    ],
    ids=["G2-text", "G2-json", "B3-parabolic-text", "G2-show-matrix"],
)
def test_constant_mode_spells_each_word_once(capsys, monkeypatch, argv, calls, expected):
    # u, v and w once each, where they enter: the coset-minimality check,
    # the constant, the matrix and the working reuse the checked words.
    seen = []
    original = weyl.element_of_word

    def counting(word, c):
        seen.append(tuple(word))
        return original(word, c)

    for module in (weyl, relmat):
        monkeypatch.setattr(module, "element_of_word", counting)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and out == expected
    assert len(seen) == calls


F4_MATRIX = "[[2,-1,0,0],[-1,2,-2,0],[0,-1,2,-1],[0,0,-1,2]]"


@pytest.mark.parametrize(
    "argv, evaluation",
    [
        (("--matrix", F4_MATRIX, "--parabolic", "1,2,3", "--table", "7", "7"), ("dual_u", 8)),
        (("--type", "E7", "--parabolic", "1,2,3,4,5,6", "--table", "7", "7"), ("direct", 14)),
        (("--type", "E6", "--table", "1", "2"), ("direct", 3)),
    ],
    ids=["F4-P123-table-7-7", "E7-P123456-table-7-7", "E6-flag-table-1-2"],
)
def test_json_report_names_the_evaluation_orientation(capsys, argv, evaluation):
    code, out, _ = run_cli(capsys, *argv, "--json")
    assert code == 0
    orientation, word_length = evaluation
    assert json.loads(out)["evaluation"] == {"orientation": orientation, "word_length": word_length}


def test_evaluation_is_null_without_a_class_of_that_degree(capsys):
    # A3/P{1,3} has dimension 4: no class of degree 5 to evaluate on.
    code, out, _ = run_cli(capsys, "--type", "A3", "--parabolic", "1,3", "--table", "3", "2", "--json")
    report = json.loads(out)
    assert code == 0 and report["records"] == [] and report["evaluation"] is None


E7_P7 = ("--type", "E7", "--parabolic", "1,2,3,4,5,6")
E7_P7_DEGREE_13 = ("2,4,3,1,6,5,4,2,3,4,5,6,7", "4,3,1,7,6,5,4,2,3,4,5,6,7")


def test_e7_p7_degree_13_squared_runs_on_the_dual_word(capsys):
    # The direct word has length 26, where the operator did not finish in
    # a minute; the u∨ word has length 27 - 13 = 14.
    expansions = []
    for u, v in (E7_P7_DEGREE_13, E7_P7_DEGREE_13[::-1]):
        code, out, _ = run_cli(capsys, *E7_P7, "--u", u, "--v", v, "--expand", "--json")
        assert code == 0
        report = json.loads(out)
        assert report["evaluation"] == {"orientation": "dual_u", "word_length": 14}
        expansions.append([(r["w_word"], r["value"]) for r in report["records"]])
    assert expansions[0] == expansions[1]
    assert [value for _, value in expansions[0]] == [1]


def test_e7_p7_degree_13_squared_constant_runs_on_the_dual_word(capsys, monkeypatch):
    # Constant mode evaluates like --expand, on the length-14 word of u∨,
    # not on the caller's length-26 word of w; an elimination of more than
    # 14 rows is refused here rather than left to run.
    original = schubert.eliminate

    def bounded(rows, polys):
        if len(rows) > 14:
            raise AssertionError(f"eliminating {len(rows)} rows")
        return original(rows, polys)

    monkeypatch.setattr(schubert, "eliminate", bounded)
    u, v = E7_P7_DEGREE_13
    w = "6,5,4,2,3,1,4,3,5,4,2,6,5,4,3,1,7,6,5,4,2,3,4,5,6,7"
    code, out, _ = run_cli(capsys, *E7_P7, "--u", u, "--v", v, "--w", w, "--json")
    assert code == 0
    record = json.loads(out)["record"]
    code, out, _ = run_cli(capsys, *E7_P7, "--u", u, "--v", v, "--expand", "--json")
    assert code == 0
    assert json.loads(out)["records"] == [record] and record["value"] == 1


@pytest.mark.parametrize(
    "matrix",
    ["5", "[5]", "null", '{"a":1}', "[" * 100000],
    ids=["number", "flat-array", "null", "object", "nested-100000-deep"],
)
@pytest.mark.parametrize("form", ["flag", "job-file"])
def test_malformed_matrix_is_an_input_error(tmp_path, capsys, matrix, form):
    if form == "flag":
        argv = ["--matrix", matrix, "--table", "1", "1"]
    else:
        path = tmp_path / "job.json"
        path.write_text('{"mode": "table", "table": [1, 1], "group": ' + matrix + "}")
        argv = ["--job", str(path)]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert len(err.strip().splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err


def _job_argv(tmp_path, job):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    return ["--job", str(path)]


@pytest.mark.parametrize("form", ["flag", "job-file", "inspect"])
def test_repeated_parabolic_index_is_an_input_error(tmp_path, capsys, form):
    if form == "flag":
        argv = ["--type", "A3", "--parabolic", "1,1", "--table", "1", "1", "--json"]
    elif form == "inspect":
        # Inspect mode refuses the subset too.
        argv = ["--type", "A3", "--parabolic", "1,1", "--echo-matrix"]
    else:
        argv = _job_argv(tmp_path, {"group": "A3", "mode": "table", "table": [1, 1], "parabolic": [2, 2]})
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("error: parabolic indices must be distinct")


@pytest.mark.parametrize("factor", ["u", "v"])
@pytest.mark.parametrize("mode", ["constant", "expand"])
@pytest.mark.parametrize("form", ["flag", "job-file"])
def test_non_reduced_factor_word_is_an_input_error(tmp_path, capsys, factor, mode, form):
    # s1·s1 is the identity: the word 1,1 is not a reduced word of anything.
    words = {"u": "2", "v": "2", **({"w": "2"} if mode == "constant" else {})}
    words[factor] = "1,1"
    if form == "flag":
        argv = ["--type", "A3", *(f"--{k}={x}" for k, x in words.items())]
        argv += ["--expand"] if mode == "expand" else []
    else:
        argv = _job_argv(tmp_path, {"group": "A3", "mode": mode, **words})
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err == "error: word (1, 1) is not reduced\n"


def test_table_and_expansion_build_no_polynomial_objects(capsys, monkeypatch):
    # Products go straight into the operator's merged form; no HomogPoly is
    # made on the table, expand or product_expansion paths, in any orientation.
    def refuse(*args, **kwargs):
        raise AssertionError("HomogPoly built")

    monkeypatch.setattr(triop.HomogPoly, "__init__", refuse)
    g2 = cartan_matrix_by_name("G2")
    for u_word, v_word, expected in [
        ((1,), (2,), {(1, 2): 1, (2, 1): 1}),  # direct
        ((1, 2, 1, 2), (1,), {(1, 2, 1, 2, 1): 1, (2, 1, 2, 1, 2): 3}),  # dual_u
        ((1,), (2, 1, 2, 1), {(1, 2, 1, 2, 1): 1}),  # dual_v
    ]:
        u, v = weyl.element_of_word(u_word, g2), weyl.element_of_word(v_word, g2)
        terms = product_expansion(u, v, g2)
        assert {weyl.reduced_word(t.w, g2): t.value for t in terms} == expected
    code, out, _ = run_cli(capsys, "--type", "B3", "--parabolic", "2,3", "--table", "1", "2")
    assert code == 0 and out == "P[1] * P[2,1] = 2*P[3,2,1]\n"
    code, out, _ = run_cli(capsys, "--type", "G2", "--u", "2,1,2", "--v", "1,2", "--expand")
    assert code == 0 and out == "P[2,1,2] * P[1,2] = P[2,1,2,1,2]\n"


def _a400_quotient():
    return ["--type", "A400", "--parabolic", ",".join(map(str, range(2, 401)))]


def test_a400_long_word_constant(capsys):
    # sigma_150^2 = sigma_300 on CP^400: words of 150 and 300 letters go
    # through poincare_dual, multiply, reduced_word and is_minimal_rep.
    def down(k):
        return ",".join(map(str, range(k, 0, -1)))

    code, out, _ = run_cli(capsys, *_a400_quotient(), "--u", down(150), "--v", down(150), "--w", down(300))
    assert (code, out) == (0, "1\n")


def test_a400_thousand_letter_word_constant(capsys):
    # a^w_{e,w} = 1 on the first 1,000 letters of (1..400)(1..399)...: past
    # the depth at which a walk recursing per letter overflowed.
    word = ",".join(map(str, [i for m in range(400, 0, -1) for i in range(1, m + 1)][:1000]))
    assert run_cli(capsys, "--type", "A400", "--u", "", "--v", word, "--w", word) == (0, "1\n", "")


def test_a63_thousand_letter_word_constant(capsys):
    # a^w_{e,w} = 1 on the first 1,000 letters of the reduced word of w0.
    # A column of its relative matrix has 43 nonzero entries on average;
    # the operator once rebuilt each level's tails in O(k * column) shifts,
    # about 7 s of this constant.
    c = cartan_matrix_by_name("A63")
    word = ",".join(map(str, weyl.reduced_word(weyl.longest_element(c), c)[:1000]))
    assert run_cli(capsys, "--type", "A63", "--u", "", "--v", word, "--w", word) == (0, "1\n", "")


def test_tables_need_no_longest_element_without_a_dual(capsys, monkeypatch):
    # dim comes from the climb on lambda_P; w0 and w0_P wait for a dual.
    def refuse(*args, **kwargs):
        raise AssertionError("longest_element called")

    monkeypatch.setattr(schubert, "longest_element", refuse)
    code, out, _ = run_cli(capsys, "--type", "A3", "--parabolic", "1,3", "--table", "1", "1")
    assert code == 0 and out == "P[2] * P[2] = P[1,2] + P[3,2]\n"
    code, out, _ = run_cli(capsys, *_a400_quotient(), "--table", "1", "1")
    assert code == 0 and out == "P[1] * P[1] = P[2,1]\n"


def test_dual_orientation_computes_w0_and_w0_p_once(capsys, monkeypatch):
    # w0 enters as the opposition involution, from one climb per run.
    calls = []

    def counting(name):
        original = getattr(schubert, name)

        def count(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        return count

    for name in ("longest_element", "opposition"):
        monkeypatch.setattr(schubert, name, counting(name))
    code, out, _ = run_cli(capsys, "--type", "F4", "--parabolic", "1,2,3", "--table", "7", "7", "--json")
    assert code == 0
    assert json.loads(out)["evaluation"] == {"orientation": "dual_u", "word_length": 8}
    assert sorted(calls) == ["longest_element", "opposition"]


@pytest.mark.parametrize(
    "argv, count",
    [
        (["--type", "B3", "--parabolic", "2,3", "--table", "1", "2"], 1),
        (["--type", "B3", "--table", "2", "2", "--include-zeros"], 1),
        (["--type", "G2", "--u", "2,1,2", "--v", "1,2", "--expand"], 1),
        (["--type", "A3", "--parabolic", "1,3", "--u", "2", "--v", "2", "--expand"], 1),
        (["--type", "A3", "--parabolic", "1,3", "--u", "2", "--v", "2", "--w", "1,2"], 0),
        (["--type", "G2", "--u", "2,1,2", "--v", "1,2", "--w", "2,1,2,1,2"], 0),
    ],
)
def test_each_run_walks_the_representatives_at_most_once(capsys, walks, argv, count):
    code, _, _ = run_cli(capsys, *argv)
    assert code == 0 and len(walks) == count


def test_library_walks_only_for_expansions(walks):
    b3 = cartan_matrix_by_name("B3")
    h, x, top = (weyl.element_of_word(word, b3) for word in [(1,), (2, 1), (3, 2, 1)])
    assert structure_constant(h, x, top, b3, (2, 3)) == 2
    assert walks == []
    assert [t.value for t in product_expansion(h, x, b3, (2, 3))] == [2]
    assert len(walks) == 1


@pytest.mark.parametrize(
    "argv, sizes",
    [
        (["--type", "E6", "--table", "1", "2"], [1, 6, 20, 50]),
        (["--type", "A3", "--parabolic", "1,3", "--table", "1", "1"], [1, 1, 2]),
    ],
)
def test_table_walks_only_to_the_deepest_level_asked(capsys, walks, argv, sizes):
    # A table of degrees d1, d2 needs levels d1, d2 and d1 + d2: the walk
    # builds levels 0..d1+d2 and stops, 77 of the E6 flag's 51,840
    # elements and 4 of Gr(2,4)'s 6 cells.
    code, _, _ = run_cli(capsys, *argv)
    assert code == 0 and walks == [sizes]


def test_e7_flag_table_answers(capsys):
    # The whole-group walk passed the default bound of 10^6 here (exit 2).
    code, out, err = run_cli(capsys, "--type", "E7", "--table", "1", "1")
    assert code == 0 and err == ""
    assert len(out.splitlines()) == 7 * 7


def test_e7_flag_degree_one_products_match_chevalley(capsys):
    e7 = cartan_matrix_by_name("E7")
    code, out, _ = run_cli(capsys, "--type", "E7", "--table", "1", "2", "--json")
    assert code == 0
    products: dict = {}
    for rec in json.loads(out)["records"]:
        v, w = (weyl.element_of_word(rec[key], e7) for key in ("v_word", "w_word"))
        products.setdefault((rec["u_word"][0], v), {})[w] = rec["value"]
    space = schubert.FlagManifold(e7)
    assert len(products) == len(space.level(1)) * len(space.level(2))
    for (i, v), product in products.items():
        assert oracles.chevalley(i, v, e7) == product


def test_product_past_the_top_degree_walks_nothing(capsys, walks):
    # l(w0) + 1 exceeds dim G/B, so the product is 0 without a walk; the
    # whole-group walk refused it at the default bound (exit 2).
    e7 = cartan_matrix_by_name("E7")
    w0 = weyl.format_word(weyl.reduced_word(weyl.longest_element(e7), e7))
    code, out, err = run_cli(capsys, "--type", "E7", "--u", w0, "--v", "1", "--expand")
    assert (code, out, err) == (0, f"P[{w0}] * P[1] = 0\n", "")
    assert walks == []


@pytest.mark.parametrize("argv", [["--type", "A100000", "--table", "1", "1"], ["--type", "B1000000000000", "--echo-matrix"]])
def test_named_rank_past_the_bound_is_an_input_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: rank ") and len(err.splitlines()) == 1


def test_matrix_rank_past_the_bound_is_an_input_error(capsys):
    n = 501
    rows = [[2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(n)] for i in range(n)]
    code, out, err = run_cli(capsys, "--matrix", json.dumps(rows), "--echo-matrix")
    assert code == 1 and out == ""
    assert err == "error: rank 501 exceeds the bound 500\n"


def _spec(*argv):
    return cli.job_from_args(cli.build_parser().parse_args(list(argv)))


@pytest.mark.parametrize(
    "argv, job",
    [
        (["--type", "G2", "--u", "2,1,2", "--v", "1,2", "--w", "2,1,2,1,2"],
         {"group": "G2", "u": [2, 1, 2], "v": "1,2", "w": "2,1,2,1,2"}),
        (["--matrix", "[[2,-1],[-3,2]]", "--u", "1", "--v", "2", "--expand", "--include-zeros"],
         {"group": [[2, -1], [-3, 2]], "mode": "expand", "u": "1", "v": [2], "include_zeros": True}),
        (["--type", "A3", "--parabolic", "3,1", "--table", "1", "1"],
         {"group": "A3", "parabolic": [3, 1], "mode": "table", "table": [1, 1]}),
        (["--type", "G2", "--w", "2,1", "--show-matrix"], {"group": "G2", "mode": "inspect", "w": "2,1"}),
        (["--selftest"], {"mode": "selftest"}),
    ],
    ids=["constant", "expand-matrix", "table-parabolic", "inspect", "selftest"],
)
def test_flags_and_job_files_build_the_same_spec(tmp_path, argv, job):
    # --verbose applies to constant mode only.
    verbose = ["--verbose"] if job.get("mode", "constant") == "constant" else []
    output = [*verbose, "--max-group-order", "99", "--show-matrix"]
    assert _spec(*argv, *output) == _spec(*_job_argv(tmp_path, job), *output)


def test_job_file_refuses_unknown_keys(tmp_path, capsys):
    job = {"group": "A3", "parbolic": [1, 3], "mode": "table", "table": [1, 1], "tabel": 0}
    code, out, err = run_cli(capsys, *_job_argv(tmp_path, job))
    assert code == 1 and out == ""
    assert err.startswith("error: unknown job file keys 'parbolic', 'tabel' (known: group, parabolic,")


@pytest.mark.parametrize("flag", [["--parabolic", "1,3"], ["--include-zeros"], ["--u", ""]])
def test_job_file_refuses_every_input_flag(tmp_path, capsys, flag):
    job = {"group": "A3", "parabolic": [1, 3], "mode": "table", "table": [1, 1]}
    code, out, err = run_cli(capsys, *_job_argv(tmp_path, job), *flag)
    assert code == 1 and out == ""
    assert err == "error: --job replaces the input flags; combine only with output flags\n"


@pytest.mark.parametrize(
    "argv, job",
    [
        (["--type", "A3", "--parabolic", "1,3", "--table", "1", "1"],
         {"group": "A3", "parabolic": [1, 3], "mode": "table", "table": [1, 1]}),
        (["--type", "G2", "--u", "2,1,2", "--v", "1,2", "--w", "2,1,2,1,2"],
         {"group": "G2", "u": "2,1,2", "v": "1,2", "w": "2,1,2,1,2"}),
        (["--type", "G2", "--w", "2,1"], {"group": "G2", "mode": "inspect", "w": "2,1"}),
    ],
    ids=["table", "constant", "inspect"],
)
@pytest.mark.parametrize(
    "output", [["--echo-matrix"], ["--show-matrix", "--json"], ["--echo-matrix", "--show-matrix"]],
    ids=["echo", "show-json", "echo-and-show"],
)
def test_output_flags_apply_to_job_files(tmp_path, capsys, argv, job, output):
    from_flags = run_cli(capsys, *argv, *output)
    assert run_cli(capsys, *_job_argv(tmp_path, job), *output) == from_flags
    if output == ["--echo-matrix"]:
        assert from_flags[0] == 0 and from_flags[1].startswith("[[2,")


@pytest.mark.parametrize(
    "argv, error",
    [
        (["--type", "A2", "--u", "1", "--v", "2", "--table", "1", "1", "--expand"],
         "error: a request names one mode, got --table and --expand\n"),
        (["--selftest", "--table", "1", "1"], "error: a request names one mode, got --selftest and --table\n"),
        (["--type", "B3", "--selftest"], "error: selftest mode takes no input, got group\n"),
        (["--selftest", "--parabolic", "1", "--include-zeros"],
         "error: selftest mode takes no input, got parabolic, include_zeros\n"),
    ],
    ids=["table-and-expand", "selftest-and-table", "selftest-with-type", "selftest-with-inputs"],
)
def test_a_request_names_one_mode(capsys, argv, error):
    assert run_cli(capsys, *argv) == (1, "", error)


def test_selftest_job_file_takes_no_input(tmp_path, capsys):
    code, out, _ = run_cli(capsys, *_job_argv(tmp_path, {"mode": "selftest"}))
    assert code == 0 and "FAIL" not in out and out.count("PASS") >= 10
    code, out, err = run_cli(capsys, *_job_argv(tmp_path, {"mode": "selftest", "group": "G2"}))
    assert (code, out, err) == (1, "", "error: selftest mode takes no input, got group\n")


@pytest.mark.parametrize("extra", [["--table", "1", "1"], ["--echo-matrix"]])
@pytest.mark.parametrize("name", ['"G2"', '"[[2]]"'])
def test_matrix_given_as_a_json_string_is_an_input_error(capsys, name, extra):
    # A JSON string is a malformed matrix, never a type name.
    code, out, err = run_cli(capsys, "--matrix", name, *extra)
    assert (code, out, err) == (1, "", "error: matrix must be an array of arrays of integers\n")


@pytest.mark.parametrize(
    "job, error",
    [
        ({"group": 5, "mode": "table", "table": [1, 1]}, "job file group must be a type name or a matrix, got 5"),
        ({"mode": "table", "table": [1, 1]}, "job file needs a 'group' entry (type name or matrix)"),
    ],
)
def test_job_file_group_is_named_when_wrong_typed_and_missing_when_absent(tmp_path, capsys, job, error):
    code, out, err = run_cli(capsys, *_job_argv(tmp_path, job))
    assert (code, out, err) == (1, "", f"error: {error}\n")


def test_closed_pipe_exits_1_without_a_traceback():
    # About 300 KB of JSON, several pipe buffers, written into a pipe whose
    # read end is closed before the child writes.
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen(
        [sys.executable, "-m", "schuprod.cli", "--type", "A4", "--table", "2", "2", "--json", "--include-zeros"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert (proc.wait(timeout=60), err) == (1, "")

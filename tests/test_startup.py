"""Start-up contract: importing the package, setting up a quotient and
running a command-line job each load only the code they run, and a job
builds only what the operator reads.

Each check runs a fresh interpreter on the package sources, so that the
modules the test session has already imported do not count."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# Test oracles, the selftest, the dataclasses machinery and exact fractions
# (the symmetrizer is in integers): no job runs them.
UNUSED_BY_JOBS = {"dataclasses", "inspect", "schuprod.oracles", "schuprod.selftest", "fractions", "decimal"}

SHOW_MODULES = "import sys; print(__import__('json').dumps(sorted(sys.modules)))"


def _run(code, *args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, env=env, timeout=120,
    )


def _python(code, *args):
    result = _run(code, *args)
    assert result.returncode == 0, result.stderr
    return result.stdout


def _loaded(code, *args):
    """The modules an interpreter holds after running code, from the last
    line of its stdout (the listing itself imports json, in every run)."""
    return set(json.loads(_python(f"{code}\n{SHOW_MODULES}", *args).splitlines()[-1]))


@pytest.mark.parametrize("argv", [
    [],
    ["--type", "E6", "--table", "1", "2"],
    ["--type", "F4", "--parabolic", "1,2,3", "--table", "7", "7", "--json"],
    ["--type", "G2", "--u", "2,1,2", "--v", "1,2", "--w", "2,1,2,1,2", "--verbose"],
    ["--type", "B3", "--u", "1", "--v", "2,1", "--expand", "--include-zeros"],
    ["--type", "G2", "--w", "2,1,2", "--echo-matrix", "--show-matrix"],
], ids=["import", "table", "table-json", "constant", "expand", "inspect"])
def test_a_job_loads_no_oracle_selftest_or_dataclasses(argv):
    bare = _loaded("")
    run = "import schuprod.cli\nif sys.argv[1:]: assert schuprod.cli.main(sys.argv[1:]) == 0"
    new = _loaded(f"import sys\n{run}", *argv) - bare
    assert "schuprod.cli" in new
    assert new & UNUSED_BY_JOBS == set()


def test_selftest_still_passes_in_a_fresh_process():
    out = _python("import sys, schuprod.cli; sys.exit(schuprod.cli.main(['--selftest']))")
    assert "PASS" in out and "FAIL" not in out


# What a caller who only sets up a quotient never runs: the constants, the
# operator, the relative matrix, the command line and the second routes.
UNUSED_BY_SETUP = {f"schuprod.{name}" for name in ("schubert", "triop", "relmat", "cli", "oracles", "selftest")}

SUBMODULES = sorted(path.stem for path in (SRC / "schuprod").glob("*.py") if path.stem != "__init__")


@pytest.mark.parametrize("matrix, parabolic", [
    ("[[2, -1, 0], [-1, 2, -1], [0, -1, 2]]", "[2]"),
    ("[[2, -1, 0, 0], [-1, 2, -2, 0], [0, -1, 2, -1], [0, 0, -1, 2]]", "[1, 2, 3]"),
], ids=["A3/P2", "F4/P4"])
def test_a_set_up_loads_only_the_matrix_and_the_walk(matrix, parabolic):
    setup = (
        "import json, sys, schuprod\n"
        "c = schuprod.validate_cartan(json.loads(sys.argv[1]))\n"
        "assert schuprod.minimal_coset_reps(c, json.loads(sys.argv[2]))"
    )
    loaded = _loaded(setup, matrix, parabolic)
    assert {"schuprod.rootsys", "schuprod.weyl"} <= loaded
    assert loaded & UNUSED_BY_SETUP == set()


def test_every_export_and_submodule_resolves_from_a_fresh_import():
    code = (
        "import json, sys, types, schuprod\n"
        "names, submodules = schuprod.__all__, json.loads(sys.argv[1])\n"
        "undirected = sorted({*names, *submodules} - set(dir(schuprod)))\n"
        "unresolved = [n for n in names if getattr(schuprod, n, None) is None]\n"
        "not_modules = [n for n in submodules if not isinstance(getattr(schuprod, n, None), types.ModuleType)]\n"
        "star = {}\n"
        "exec('from schuprod import *', star)\n"
        "unbound = [n for n in names if star.get(n) is not getattr(schuprod, n)]\n"
        "print(json.dumps([len(names), unresolved, not_modules, unbound, undirected]))"
    )
    # dir() is read first, before any name is bound.
    count, *missing = json.loads(_python(code, json.dumps(SUBMODULES)))
    assert count > 0 and missing == [[], [], [], []]


def test_oracles_load_on_first_use_from_the_package():
    code = (
        "import sys, schuprod\n"
        "assert 'schuprod.oracles' not in sys.modules\n"
        "from schuprod import lr_coefficient\n"
        "print(lr_coefficient((1,), (1,), (2,)), 'schuprod.oracles' in sys.modules)"
    )
    assert _python(code) == "1 True\n"


# Runs the CLI with the dense relative matrix and the exponent-tuple
# polynomial refused wherever the package binds them.
WITHOUT_DENSE_FORMS = """
import sys
import schuprod.cli
from schuprod.triop import HomogPoly

def refuse(*args):
    raise RuntimeError("dense form built")

for module in [m for name, m in sys.modules.items() if name.startswith("schuprod")]:
    if hasattr(module, "relative_matrix_of_letters"):
        module.relative_matrix_of_letters = refuse
HomogPoly.__init__ = refuse
sys.exit(schuprod.cli.main(sys.argv[1:]))
"""


@pytest.mark.parametrize("argv", [
    ["--type", "E6", "--table", "1", "2"],
    ["--type", "F4", "--parabolic", "1,2,3", "--table", "7", "7", "--json"],
    ["--type", "B3", "--u", "1", "--v", "2,1", "--expand", "--include-zeros"],
    ["--type", "G2", "--u", "2,1,2", "--v", "1,2", "--w", "2,1,2,1,2"],
], ids=["table", "table-dual", "expand", "constant"])
def test_a_job_builds_no_dense_matrix_or_exponent_tuple(argv):
    # The pipeline hands the operator sparse columns and monomial keys.
    plain = "import sys, schuprod.cli\nsys.exit(schuprod.cli.main(sys.argv[1:]))"
    assert _python(WITHOUT_DENSE_FORMS, *argv) == _python(plain, *argv)


@pytest.mark.parametrize("extra", [["--show-matrix"], ["--verbose"]])
def test_only_the_matrix_and_working_output_build_the_dense_matrix(extra):
    # The guard above bites where the dense matrix is printed.
    argv = ["--type", "G2", "--u", "2,1,2", "--v", "1,2", "--w", "2,1,2,1,2", *extra]
    refused = _run(WITHOUT_DENSE_FORMS, *argv)
    assert refused.returncode != 0 and "dense form built" in refused.stderr

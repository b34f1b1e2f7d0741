"""The benchmark's tracer (perfbench/tracer.py) wraps schuprod functions by
module and name, so a rename breaks `perfbench/run.py --trace 1` with an
AttributeError.  Every name it looks up must resolve, and a traced run must
finish with the CLI's output unchanged."""

import ast
import importlib
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import schuprod
from schuprod.cli import main

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
RUNNER = TRACER.with_name("run.py")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves():
    spans = _load_tracer().SPANS
    missing = [
        f"{module}.{function}"
        for _, module, function, _, _ in spans
        if not callable(getattr(importlib.import_module(module), function, None))
    ]
    assert spans and missing == []


def test_traced_table_run_completes(capsys, walks):
    argv = ["--type", "A3", "--parabolic", "1,3", "--table", "1", "1"]
    src = str(Path(schuprod.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, str(TRACER), *argv], capture_output=True, text=True, env=env, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "P[2] * P[2] = P[1,2] + P[3,2]\n"
    summary = json.loads(result.stderr.splitlines()[-1])
    assert summary["cli.expand"]["calls"] == 1
    # A table walks levels 0..d1+d2 through weyl.coset_levels, which the
    # tracer's weyl.enumerate span (minimal_coset_reps, the whole walk)
    # does not see: the levels built are counted here instead, 4 of the 6
    # representatives.
    assert "weyl.enumerate" not in summary
    assert main(argv) == 0 and capsys.readouterr().out == result.stdout
    assert walks == [[1, 1, 2]]


def test_benchmark_setup_calls_resolve_on_the_package():
    # The benchmark's set-up process imports schuprod and calls these
    # top-level names, so trimming the package's exports must keep them.
    (setup,) = [
        ast.literal_eval(node.value)
        for node in ast.parse(RUNNER.read_text()).body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["SETUP_CODE"]
    ]
    names = re.findall(r"\bschuprod\.(\w+)\(", setup)
    missing = [name for name in names if not callable(getattr(schuprod, name, None))]
    assert names and missing == []

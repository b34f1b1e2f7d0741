"""The benchmark's tracer (perfbench/tracer.py) wraps schuprod functions by
module and name, so a rename breaks `perfbench/run.py --trace 1` with an
AttributeError.  Every name it looks up must resolve, and a traced run must
finish with the CLI's output unchanged."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import schuprod

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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


def test_traced_table_run_completes():
    src = str(Path(schuprod.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, str(TRACER), "--type", "A3", "--parabolic", "1,3", "--table", "1", "1"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "P[2] * P[2] = P[1,2] + P[3,2]\n"
    summary = json.loads(result.stderr.splitlines()[-1])
    assert summary["cli.expand"]["calls"] == 1 and summary["weyl.enumerate"]["elements"] == 6
    assert summary["weyl.enumerate"]["calls"] == 1

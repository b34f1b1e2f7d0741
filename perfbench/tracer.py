"""Run the schuprod CLI with a span around each layer's public functions.

Usage: python3 perfbench/tracer.py <schuprod CLI arguments>

The CLI's own output goes to stdout unchanged.  After it returns, one JSON
line with the per-span totals is written as the last line of stderr.

Spans are recorded only here, by rebinding each wrapped function under every
name a schuprod module binds it to (``schubert`` imports ``triangular_eval``,
``element_of_word`` and friends by name, ``relmat`` imports
``element_of_word``, ``cli`` imports ``cartan_matrix_of_word``).  Table mode
fans out on a thread pool, so every thread keeps its own span stack.  A span
records wall time and the thread's CPU time; its self time is that minus the
part its child spans cover.  Finished spans stay in memory until the end.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
from time import perf_counter, thread_time

import schuprod.cli


def _elements(args, result):
    return {"elements": len(result)}


def _nonzero(args, result):
    return {"nonzero": int(result != 0)}


def _solutions(args, result):
    return {"solutions": len(result)}


def _eval_input(args, result):
    poly = args[1]
    return {"input_terms": len(poly.terms), "k_sum": poly.k}


# (span name, module, function, counters of one call, parent span required)
SPANS = [
    ("rootsys.validate", "schuprod.rootsys", "validate_cartan", None, None),
    ("weyl.enumerate", "schuprod.weyl", "enumerate_group", _elements, None),
    ("weyl.enumerate", "schuprod.weyl", "minimal_coset_reps", _elements, None),
    ("weyl.element_of_word", "schuprod.weyl", "element_of_word", None, None),
    ("weyl.reduced_word", "schuprod.weyl", "reduced_word", None, None),
    ("relmat.matrix", "schuprod.relmat", "cartan_matrix_of_word", None, None),
    ("schubert.constant", "schuprod.schubert", "structure_constant_for_word", _nonzero, None),
    ("schubert.solve", "schuprod.schubert", "subword_solutions", _solutions, None),
    ("schubert.sum", "schuprod.schubert", "subword_sum", None, None),
    ("triop.eval", "schuprod.triop", "triangular_eval", _eval_input, None),
    # poly_mul also runs inside the operator's elimination; only the
    # product of the two solution sums is its own span.
    ("triop.product", "schuprod.triop", "poly_mul", None, "schubert.constant"),
    ("cli.main", "schuprod.cli", "main", None, None),
    ("cli.parse", "schuprod.cli", "job_from_args", None, None),
    ("cli.run", "schuprod.cli", "run", None, None),
    ("cli.expand", "schuprod.cli", "_expansion_records", None, None),
]


class Tracer:
    """Spans per thread; a record is (name, wall, cpu, child wall, child cpu, counters)."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[list[tuple]] = []

    def _thread_state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = ([], [])
            with self._lock:
                self._threads.append(state[1])
        return state

    def wrap(self, name, fn, counters=None, parent=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, done = self._thread_state()
            if parent is not None and (not stack or stack[-1][0] != parent):
                return fn(*args, **kwargs)
            frame = [name, 0.0, 0.0]
            stack.append(frame)
            w0, c0 = perf_counter(), thread_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                wall, cpu = perf_counter() - w0, thread_time() - c0
                stack.pop()
                if stack:
                    stack[-1][1] += wall
                    stack[-1][2] += cpu
            # A span directly inside one of the same name reports the same
            # work as its parent (minimal_coset_reps -> enumerate_group).
            nested = bool(stack) and stack[-1][0] == name
            counted = counters(args, result) if counters and not nested else None
            done.append((name, wall, cpu, frame[1], frame[2], counted))
            return result

        return traced

    def summary(self) -> dict:
        """Per span name: calls, wall, busy (thread CPU), self busy, self
        wait (self wall minus self busy) and summed counters."""
        out: dict[str, dict] = {}
        with self._lock:
            threads = list(self._threads)
        for records in threads:
            for name, wall, cpu, child_wall, child_cpu, counted in records:
                s = out.setdefault(
                    name, {"calls": 0, "wall": 0.0, "busy": 0.0, "self_busy": 0.0, "self_wait": 0.0}
                )
                s["calls"] += 1
                s["wall"] += wall
                s["busy"] += cpu
                s["self_busy"] += cpu - child_cpu
                s["self_wait"] += (wall - child_wall) - (cpu - child_cpu)
                for key, value in (counted or {}).items():
                    s[key] = s.get(key, 0) + value
        return out


def install(tracer: Tracer) -> None:
    """Rebind every SPANS function, under each name a schuprod module binds it to."""
    modules = [m for n, m in sys.modules.items() if n == "schuprod" or n.startswith("schuprod.")]
    for name, module, function, counters, parent in SPANS:
        original = getattr(sys.modules[module], function)
        traced = tracer.wrap(name, original, counters, parent)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, traced)


def main(argv) -> int:
    tracer = Tracer()
    install(tracer)
    code = schuprod.cli.main(argv)
    sys.stdout.flush()
    print(json.dumps(tracer.summary(), sort_keys=True), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

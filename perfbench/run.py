"""Benchmark of the schuprod command line on three --table workloads.

Usage:
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each job is one fresh ``python -m schuprod.cli --matrix ... --table d1 d2
--json`` process, run one after another from this single process (a closed
loop with one client).  Every job's constants are mapped back to the
standard labels and compared with the workload's golden file.

--trace 0 measures the end-to-end metrics for about S seconds, in whole
blocks of `rank` relabellings (at least two blocks): for each relabelling, a
set-up process (import schuprod, validate the matrix, enumerate the coset
representatives), then a job.  Seed 0 runs the standard labels; any other
seed gives each set-up and job pair its own relabelling of the simple roots,
so a run averages over labellings.

--trace 1 alternates untraced jobs with jobs run under perfbench/tracer.py,
all on the seed's first relabelling, and reports per-layer metrics: times
are medians over the traced jobs, counts must repeat exactly from job to job.

The last line of stdout is one JSON object:
  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""

from __future__ import annotations

import argparse
import json
import os
import random
import selectors
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN_DIR = HERE / "golden"
TRACER = HERE / "tracer.py"

# A --trace 0 run measures at least MIN_BLOCKS blocks of `rank` relabellings.
MIN_BLOCKS = 2
JOB_TIMEOUT_S = 60.0

# Standard node orders, as printed by `schuprod --type E6/E7/F4 --echo-matrix`.
E6 = (
    (2, 0, -1, 0, 0, 0),
    (0, 2, 0, -1, 0, 0),
    (-1, 0, 2, -1, 0, 0),
    (0, -1, -1, 2, -1, 0),
    (0, 0, 0, -1, 2, -1),
    (0, 0, 0, 0, -1, 2),
)
E7 = (
    (2, 0, -1, 0, 0, 0, 0),
    (0, 2, 0, -1, 0, 0, 0),
    (-1, 0, 2, -1, 0, 0, 0),
    (0, -1, -1, 2, -1, 0, 0),
    (0, 0, 0, -1, 2, -1, 0),
    (0, 0, 0, 0, -1, 2, -1),
    (0, 0, 0, 0, 0, -1, 2),
)
F4 = (
    (2, -1, 0, 0),
    (-1, 2, -2, 0),
    (0, -1, 2, -1),
    (0, 0, -1, 2),
)


@dataclass(frozen=True)
class Workload:
    name: str
    matrix: tuple[tuple[int, ...], ...]
    parabolic: tuple[int, ...]
    degrees: tuple[int, int]

    @property
    def rank(self) -> int:
        return len(self.matrix)


# Why these three (see README.md): E6 full flag is dominated by enumerating
# 51,840 elements and by per-constant overhead on short words; E7/P7 7x7 by the
# triangular operator on words already in their shortest dual orientation;
# F4/P4 7x7 (multiply-laced) by the operator on words the dual orientation
# would shorten from 14 to 8.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("table_e6_flag", E6, (), (1, 2)),
        Workload("table_e7p7_low", E7, (1, 2, 3, 4, 5, 6), (7, 7)),
        Workload("table_f4p4_top", F4, (1, 2, 3), (7, 7)),
    )
}


# -- inputs ----------------------------------------------------------------


def relabellings(seed: int, rank: int):
    """Endless stream of relabellings; perm[i] is the standard (0-based)
    label of relabelled node i.  Seed 0 keeps the standard labels.

    Other seeds draw a random base labelling and then rotate it through all
    rank cyclic shifts, so that within each block of rank jobs every node
    takes every label once: a run's median then rests on whole blocks rather
    than on a few labellings (one labelling alone can cost 30% more or less
    than another)."""
    rng = random.Random(seed)
    while True:
        base = list(range(rank)) if seed == 0 else rng.sample(range(rank), rank)
        for shift in range(1 if seed == 0 else rank):
            yield tuple(base[(i + shift) % rank] for i in range(rank))


def relabelled_group(w: Workload, perm) -> tuple[list[list[int]], list[int]]:
    """The workload's Cartan matrix and parabolic indices in the new labels."""
    new_label = {old: new for new, old in enumerate(perm)}
    matrix = [[w.matrix[a][b] for b in perm] for a in perm]
    parabolic = sorted(new_label[i - 1] + 1 for i in w.parabolic)
    return matrix, parabolic


def cli_args(w: Workload, perm) -> list[str]:
    matrix, parabolic = relabelled_group(w, perm)
    args = ["--matrix", json.dumps(matrix, separators=(",", ":"))]
    if parabolic:
        args += ["--parabolic", ",".join(map(str, parabolic))]
    return args + ["--table", str(w.degrees[0]), str(w.degrees[1]), "--json"]


# -- correctness -------------------------------------------------------------


def _reflect(i: int, v: list[int], matrix) -> list[int]:
    vi, row = v[i], matrix[i]
    return [v[j] - vi * row[j] for j in range(len(v))]


def standard_word(word, perm, matrix) -> tuple[int, ...]:
    """Map a relabelled word to the standard labels and return the reduced
    word of its element that peels the smallest left descent first.

    Elements are compared through their image of rho, the same canonical
    form schuprod uses, computed here independently of the package."""
    v = [1] * len(matrix)
    for letter in reversed(word):
        v = _reflect(perm[letter - 1], v, matrix)
    out = []
    while True:
        descents = [i for i, x in enumerate(v) if x < 0]
        if not descents:
            return tuple(out)
        out.append(descents[0] + 1)
        v = _reflect(descents[0], v, matrix)


def _key(word) -> str:
    return ",".join(map(str, word))


def load_golden(w: Workload) -> dict[tuple[str, str, str], int]:
    raw = json.loads((GOLDEN_DIR / f"{w.name}.json").read_text())
    return {(r["u"], r["v"], r["w"]): r["value"] for r in raw["records"]}


def standard_records(report, w: Workload, perm) -> tuple[dict, list[str]]:
    """The report's records keyed by (u, v, w) in standard labels, plus a
    list of problems with the records themselves."""
    got: dict[tuple[str, str, str], int] = {}
    problems = []
    records = report.get("records") if isinstance(report, dict) else None
    if not isinstance(records, list):
        return got, ["report has no records list"]
    for rec in records:
        try:
            words = [rec["u_word"], rec["v_word"], rec["w_word"]]
            value = rec["value"]
        except (KeyError, TypeError):
            problems.append(f"malformed record {rec!r}")
            continue
        letters_ok = (isinstance(x, list) and all(isinstance(i, int) and 1 <= i <= w.rank for i in x) for x in words)
        if not all(letters_ok):
            problems.append(f"malformed record {rec!r}")
            continue
        std = [standard_word(x, perm, w.matrix) for x in words]
        if any(len(s) != len(x) for s, x in zip(std, words)):
            problems.append(f"non-reduced word in {rec!r}")
        key = tuple(_key(s) for s in std)
        if key in got:
            problems.append(f"duplicate record {key}")
        got[key] = value
    return got, problems


def check_records(got: dict, w: Workload, golden: dict) -> list[str]:
    """Differences from the golden constants (differing, missing or extra
    records) and, when d1 = d2, products u*v that differ from v*u."""
    problems = []
    for key in sorted(golden.keys() | got.keys()):
        if golden.get(key) != got.get(key):
            problems.append(f"{key}: expected {golden.get(key)}, got {got.get(key)}")
    if w.degrees[0] == w.degrees[1]:
        for (u, v, x), value in got.items():
            if got.get((v, u, x)) != value:
                problems.append(f"u*v != v*u at {(u, v, x)}")
    return problems


# -- processes ---------------------------------------------------------------


@dataclass
class Proc:
    returncode: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    cpu_s: float
    maxrss_mb: float


def run_process(cmd: list[str]) -> Proc:
    """Run cmd from the checkout root; wall time from spawn to exit, CPU time
    and peak RSS from the child's own rusage.  Killed past the timeout."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    chunks = {proc.stdout: [], proc.stderr: []}
    deadline = t0 + JOB_TIMEOUT_S
    with selectors.DefaultSelector() as sel:
        for f in chunks:
            sel.register(f, selectors.EVENT_READ)
        while sel.get_map():
            remaining = deadline - perf_counter()
            if remaining <= 0:
                proc.kill()
                remaining = None
            for key, _ in sel.select(remaining):
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return Proc(
        returncode=proc.returncode,
        stdout=b"".join(chunks[proc.stdout]),
        stderr=b"".join(chunks[proc.stderr]),
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        maxrss_mb=usage.ru_maxrss / 1024.0,
    )


SETUP_CODE = (
    "import json, sys\n"
    "import schuprod\n"
    "c = schuprod.validate_cartan(json.loads(sys.argv[1]))\n"
    "schuprod.minimal_coset_reps(c, json.loads(sys.argv[2]))\n"
)


def run_setup(w: Workload, perm) -> Proc:
    matrix, parabolic = relabelled_group(w, perm)
    return run_process([sys.executable, "-c", SETUP_CODE, json.dumps(matrix), json.dumps(parabolic)])


@dataclass
class Job:
    proc: Proc
    problems: list[str]
    trace: dict | None = None
    records: dict | None = None


def run_job(w: Workload, perm, golden, traced: bool = False) -> Job:
    entry = [str(TRACER)] if traced else ["-m", "schuprod.cli"]
    proc = run_process([sys.executable, *entry, *cli_args(w, perm)])
    if proc.returncode != 0:
        tail = proc.stderr.decode(errors="replace").strip().splitlines()[-1:]
        return Job(proc, [f"exit code {proc.returncode}: {' '.join(tail)}"])
    try:
        report = json.loads(proc.stdout)
    except json.JSONDecodeError as exc:
        return Job(proc, [f"stdout is not JSON: {exc}"])
    records, problems = standard_records(report, w, perm)
    problems += check_records(records, w, golden)
    trace = None
    if traced:
        try:
            trace = json.loads(proc.stderr.decode().strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError) as exc:
            problems.append(f"no trace summary: {exc}")
    return Job(proc, problems, trace, records)


# -- metrics -------------------------------------------------------------------


def tail(values: list[float]) -> tuple[float, int]:
    """The highest sample with at least ten samples beyond it, and that
    count.  Below 21 samples, fewer than ten lie beyond it: it is then the
    upper middle sample, never below the median."""
    ordered = sorted(values)
    beyond = min(10, (len(ordered) - 1) // 2)
    return ordered[len(ordered) - 1 - beyond], beyond


def layer_metrics(trace: dict) -> tuple[dict[str, float], dict[str, int]]:
    """One traced job's per-layer times (seconds) and counts."""

    def get(span, field):
        return trace.get(span, {}).get(field, 0)

    def busy(*spans):
        return sum(get(s, "self_busy") for s in spans)

    cli = ("cli.main", "cli.parse", "cli.run", "cli.expand")
    times = {
        "rootsys.validate_s": busy("rootsys.validate"),
        "weyl.enumerate_s": busy("weyl.enumerate"),
        "weyl.element_of_word_s": busy("weyl.element_of_word"),
        "weyl.reduced_word_s": busy("weyl.reduced_word"),
        "relmat.matrix_s": busy("relmat.matrix"),
        "schubert.solve_s": busy("schubert.solve"),
        "schubert.self_s": busy("schubert.constant", "schubert.sum"),
        "triop.eval_s": busy("triop.eval"),
        "triop.eval_wait_s": get("triop.eval", "self_wait"),
        "triop.product_s": busy("triop.product"),
        "cli.run_s": busy("cli.run"),
        "cli.self_s": busy(*cli),
        "cli.render_s": busy("cli.main"),
        "cli.wait_s": sum(get(s, "self_wait") for s in cli),
    }
    counts = {
        "weyl.elements": get("weyl.enumerate", "elements"),
        "weyl.element_of_word_calls": get("weyl.element_of_word", "calls"),
        "weyl.reduced_word_calls": get("weyl.reduced_word", "calls"),
        "relmat.matrix_calls": get("relmat.matrix", "calls"),
        "schubert.constants": get("schubert.constant", "calls"),
        "schubert.nonzero": get("schubert.constant", "nonzero"),
        "schubert.solve_calls": get("schubert.solve", "calls"),
        "schubert.solutions": get("schubert.solve", "solutions"),
        "triop.eval_calls": get("triop.eval", "calls"),
        "triop.input_terms": get("triop.eval", "input_terms"),
        "triop.k_sum": get("triop.eval", "k_sum"),
    }
    return times, counts


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(w: Workload, seed: int, seconds: float, golden) -> tuple[list[Job], dict, list[str]]:
    """Set-ups and jobs in whole blocks of rank relabellings, each set-up
    just before the job on the same labelling, so both sample the same
    moments of a run.  A new block starts while at least half a block's
    time is left, so a run lasts about `seconds` on average."""
    problems = []
    setups, jobs = [], []
    perms = relabellings(seed, w.rank)
    start = perf_counter()
    blocks = 0
    while True:
        for _ in range(w.rank):
            perm = next(perms)
            proc = run_setup(w, perm)
            setups.append(proc.wall_s)
            if proc.returncode != 0:
                problems.append(f"set-up exit code {proc.returncode}: {proc.stderr.decode(errors='replace')[-300:]}")
            jobs.append(run_job(w, perm, golden))
        blocks += 1
        elapsed = perf_counter() - start
        if blocks >= MIN_BLOCKS and seconds - elapsed < elapsed / blocks / 2:
            break
    walls = [j.proc.wall_s for j in jobs]
    tail_value, beyond = tail(walls)
    metrics = {
        "job_s": metric(statistics.median(walls), "s"),
        "job_s_tail": metric(tail_value, "s"),
        "job_cpu_s": metric(statistics.median(j.proc.cpu_s for j in jobs), "s"),
        "setup_s": metric(statistics.median(setups), "s"),
        "peak_rss_mb": metric(statistics.median(j.proc.maxrss_mb for j in jobs), "MB"),
    }
    print(f"job_s_tail has {beyond} of {len(walls)} samples beyond it "
          f"(p{100 * (len(walls) - beyond) / len(walls):.0f}); "
          f"setup_s is the median of {len(setups)} set-ups")
    return jobs, metrics, problems


def measure_traced(w: Workload, seed: int, seconds: float, golden) -> tuple[list[Job], dict, list[str]]:
    perm = next(relabellings(seed, w.rank))
    plain, traced = [], []
    deadline = perf_counter() + seconds
    while not traced or perf_counter() < deadline:
        plain.append(run_job(w, perm, golden))
        traced.append(run_job(w, perm, golden, traced=True))
    problems = []
    per_job = [layer_metrics(j.trace) for j in traced if j.trace is not None]
    if not per_job:
        return plain + traced, {}, ["no traced job produced a trace"]
    counts = per_job[0][1]
    for _, other in per_job[1:]:
        if other != counts:
            problems.append(f"counts differ between traced jobs: {counts} vs {other}")
    if any(j.records != plain[0].records for j in plain + traced):
        problems.append("traced and untraced jobs gave different constants")
    metrics = {
        name: metric(statistics.median(t[name] for t, _ in per_job), "s") for name in per_job[0][0]
    }
    for name, value in counts.items():
        if name != "schubert.nonzero":
            metrics[name] = metric(value, "count")
    metrics["schubert.nonzero_ratio"] = metric(
        counts["schubert.nonzero"] / counts["schubert.constants"] if counts["schubert.constants"] else 0.0,
        "ratio",
    )
    metrics["trace.overhead_frac"] = metric(
        statistics.median(j.proc.wall_s for j in traced)
        / statistics.median(j.proc.wall_s for j in plain) - 1.0,
        "ratio",
    )
    print(f"per-layer times are medians of {len(per_job)} traced jobs; "
          f"trace.overhead_frac compares them with {len(plain)} untraced jobs")
    return plain + traced, metrics, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "schuprod" / "cli.py").is_file():
        print(f"error: no schuprod sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    golden = load_golden(w)
    run = measure_traced if args.trace else measure
    jobs, metrics, problems = run(w, args.seed, args.seconds, golden)

    failed = [j for j in jobs if j.problems]
    for j in failed[:3]:
        print(f"failed job: {'; '.join(j.problems[:5])}", file=sys.stderr)
    for p in problems:
        print(f"problem: {p}", file=sys.stderr)
    print(f"workload {w.name}, seed {args.seed}: {len(jobs)} jobs, {len(failed)} failed, "
          f"failed_frac {len(failed) / len(jobs):.4f}")
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:.6g} {m['unit']}")
    result = {
        "correct": not failed and not problems,
        "attempted": len(jobs),
        "failed": len(failed),
        "metrics": metrics,
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Checks of the benchmark itself: deterministic counts, tracing that does not
change constants, a golden check that catches a corrupted record, the tail
statistic and the blocks of relabellings.

Run with: python3 -m pytest perfbench/tests -q
"""

import statistics
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402

W = run.WORKLOADS["table_e7p7_low"]
PERM = next(run.relabellings(1, W.rank))


@pytest.fixture(scope="module")
def golden():
    return run.load_golden(W)


@pytest.fixture(scope="module")
def traced_jobs(golden):
    return [run.run_job(W, PERM, golden, traced=True) for _ in range(2)]


def test_relabelling_is_not_the_identity():
    assert PERM != tuple(range(W.rank))


def test_counts_repeat_across_traced_runs(traced_jobs):
    first, second = (run.layer_metrics(job.trace)[1] for job in traced_jobs)
    assert [job.problems for job in traced_jobs] == [[], []]
    assert first == second
    assert first["schubert.constants"] == 12
    assert first["triop.k_sum"] == 12 * 14


def test_traced_and_untraced_runs_give_the_same_constants(golden, traced_jobs):
    plain = run.run_job(W, PERM, golden)
    assert plain.problems == []
    assert plain.records == traced_jobs[0].records == traced_jobs[1].records == golden


def test_corrupted_golden_record_is_caught(golden, traced_jobs):
    got = traced_jobs[0].records
    assert run.check_records(got, W, golden) == []
    key = sorted(golden)[0]

    changed = dict(golden)
    changed[key] += 1
    assert run.check_records(got, W, changed)

    missing = dict(golden)
    del missing[key]
    assert run.check_records(got, W, missing)


def test_asymmetric_square_is_caught(golden):
    u, v, w = next(k for k in sorted(golden) if k[0] != k[1])
    got = dict(golden)
    got[(u, v, w)] += 1
    problems = run.check_records(got, W, {**golden, (u, v, w): got[(u, v, w)]})
    assert sorted(problems) == sorted([f"u*v != v*u at {(u, v, w)}", f"u*v != v*u at {(v, u, w)}"])


@pytest.mark.parametrize("n", range(1, 30))
def test_tail_is_never_below_the_median(n):
    values = [float(i) for i in range(n)]
    value, beyond = run.tail(values)
    assert value >= statistics.median(values)
    assert sum(v > value for v in values) == beyond == min(10, (n - 1) // 2)


def test_each_block_gives_every_node_every_label():
    perms = run.relabellings(7, W.rank)
    for _ in range(3):
        block = [next(perms) for _ in range(W.rank)]
        for node in range(W.rank):
            assert sorted(p[node] for p in block) == list(range(W.rank))

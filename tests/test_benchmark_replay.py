"""Replay the benchmark's default-seed pass against its recorded digests.

Every output of every workload in perfbench/workloads.py -- the stdout,
stderr and exit code of each CLI call, and each library result -- must pass
the workload's own check and match the digest recorded in
perfbench/digests.json, which this test only reads.  It is the in-process
twin of perfbench/record_digests.py, without the timing.
"""
from __future__ import annotations

import importlib
import json
import sys
from pathlib import Path

import pytest

import gonalslope
import gonalslope.cli  # noqa: F401  (the workloads reach cli and verify as attributes)

#: perfbench is a directory of scripts, not a package: load its modules by path
BENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(BENCH))
run = importlib.import_module("run")
workloads = importlib.import_module("workloads")


class _Untimed:
    """Stands in for hostspeed.Meter: no timer signal, every call timed as 0."""

    def mark(self):
        return None

    def since(self, mark):
        return 0.0, 0.0


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_default_seed_pass_matches_recorded_digests(name):
    expected = json.loads(run.DIGESTS.read_text())[name]
    workload = workloads.WORKLOADS[name](gonalslope, run.DEFAULT_SEED)
    results = workload.run_pass(_Untimed())
    assert len(results) == len(expected)
    problems = []
    for i, (*_, result) in enumerate(results):
        problem = workload.check(i, result)
        if problem is None and workloads.digest(workload.render(result)) != expected[i]:
            problem = "output differs from the recorded digest"
        if problem is not None:
            problems.append(f"item {i}: {problem}")
    assert not problems, problems[:5]

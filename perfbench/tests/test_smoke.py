"""Smoke test of the benchmark itself: every workload at a tiny size.

    python3 -m pytest -q perfbench/tests
"""
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_reported_and_no_error(workload, trace):
    result, notes = run.measure(workload, seed=7, seconds=0, trace=bool(trace), size=9,
                                setup_repeats=1)
    assert result["attempted"] >= 1
    assert (result["failed"], result["correct"]) == (0, True), notes
    assert any(note.startswith("error_rate: 0.0 ") for note in notes)
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == wanted
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_missing_sources_refused(tmp_path):
    with pytest.raises(SystemExit, match="no gonalslope sources"):
        run.load_program(tmp_path)

"""Benchmark for gonalslope: one workload per run, timed from outside the package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
With ``--trace 0`` the run measures set-up time in fresh interpreters, then
repeats passes over the workload's inputs for ``--seconds`` seconds and
reports end-to-end metrics.  With ``--trace 1`` it alternates untraced and
traced passes and reports per-layer counts, self times and the tracing
overhead.  Times are in reference seconds: wall time scaled by the host's
speed at the time (see ``hostspeed.py``).  The run pins itself to one CPU.
Every output is checked; the last stdout line is one JSON object.
"""
from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
from tracer import COUNTERS, LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS, digest  # noqa: E402

DEFAULT_SEED = 1
DIGESTS = HERE / "digests.json"
SETUP_CODE = "import gonalslope.cli as cli; cli.build_parser()"
MODULES = ("ratcalc", "chow", "chern", "grr", "slope", "bounds", "verify", "cli")


def load_program(root: Path):
    """Import gonalslope from the checkout's sources, never from anywhere else.

    Also clears every ``GONAL_SLOPE_*`` knob, here and for the set-up
    subprocesses, so the program runs with its defaults.
    """
    src = (root / "src").resolve()
    if not (src / "gonalslope" / "__init__.py").is_file():
        raise SystemExit(f"error: no gonalslope sources under {src}")
    sys.path.insert(0, str(src))
    for key in [k for k in os.environ if k.startswith("GONAL_SLOPE_")]:
        del os.environ[key]
    gs = importlib.import_module("gonalslope")
    if not Path(gs.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"error: imported gonalslope from {gs.__file__}, not {src}")
    for mod in MODULES:
        importlib.import_module(f"gonalslope.{mod}")
    return gs


def measure_setup(root: Path, repeats: int) -> tuple[list[float], list[float]]:
    """Wall and reference times of fresh interpreters, run one at a time, each
    importing the package and building the parser.  Each is scaled by the
    mean start time of a bare interpreter just before and just after it."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def wall(code: str) -> float:
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, cwd=root, check=True,
                       stdout=subprocess.DEVNULL)
        return perf_counter() - t0

    wall(SETUP_CODE)  # may compile bytecode; not timed
    walls, refs, before = [], [], wall("pass")
    for _ in range(repeats):
        setup, after = wall(SETUP_CODE), wall("pass")
        walls.append(setup)
        refs.append(setup * hostspeed.REF_BARE_S / ((before + after) / 2))
        before = after
    return walls, refs


class Tally:
    """Checks every call's output; counts attempts and failures."""

    def __init__(self, workload, expected: list[str] | None):
        self.workload = workload
        self.expected = expected
        self.verdicts: dict[tuple[int, str], str | None] = {}
        self.attempted = self.failed = 0
        self.problems: list[str] = []

    def add(self, results) -> list[str]:
        texts = []
        for i, (*_, result) in enumerate(results):
            text = self.workload.render(result)
            texts.append(text)
            key = (i, text)
            if key not in self.verdicts:
                problem = self.workload.check(i, result)
                if problem is None and self.expected is not None and i < len(self.expected) \
                        and digest(text) != self.expected[i]:
                    problem = "stdout differs from the recorded default-seed digest"
                self.verdicts[key] = problem
            self.fail(self.verdicts[key], f"item {i}")
        return texts

    def fail(self, problem: str | None, where: str) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.append(f"{where}: {problem}")


def run_untraced(workload, tally: Tally, seconds: float) -> list[list[tuple[float, float]]]:
    """(wall, reference) time of each call of each pass; passes repeat while
    another fits in ``seconds``."""
    passes, start, last = [], perf_counter(), 0.0
    with hostspeed.Meter() as meter:
        while not passes or perf_counter() - start + last <= seconds:
            t0 = perf_counter()
            results = workload.run_pass(meter)
            passes.append([(wall, ref) for wall, ref, _ in results])
            tally.add(results)
            last = perf_counter() - t0
    return passes


def end_to_end(workload, tally: Tally, seconds: float, root: Path, setup_repeats: int):
    setup_walls, setup_refs = measure_setup(root, setup_repeats)
    passes = run_untraced(workload, tally, seconds)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Each call at its median reference time over the passes.  Wall times of
    # the same pass moved by 20-33% between runs a few minutes apart as the
    # host changed speed; reference times moved by about 1%.
    calls = [statistics.median(ref for _, ref in times) for times in zip(*passes)]
    metrics = {
        "setup_s": (statistics.median(setup_refs), "s"),
        "pass_s": (sum(calls), "s"),
        "call_p50_ms": (1000 * statistics.median(calls), "ms"),
        "call_p90_ms": (1000 * statistics.quantiles(calls, n=10, method="inclusive")[8], "ms"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }
    walls = [sum(wall for wall, _ in p) for p in passes]
    speeds = [sum(ref for _, ref in p) / wall for p, wall in zip(passes, walls)]
    notes = [f"setup: median of {len(setup_refs)} fresh interpreters; "
             f"wall median {statistics.median(setup_walls):.4f} s",
             f"passes: {len(passes)} of {len(calls)} calls; call times are per-call "
             f"medians over the passes in reference seconds",
             f"wall pass times {min(walls):.3f}..{max(walls):.3f} s; host speed "
             f"{min(speeds):.3f}..{max(speeds):.3f} of the reference"]
    return metrics, notes


def per_layer(workload, tally: Tally, seconds: float):
    tracer = Tracer()
    plain, traced, selfs, per_check = [], [], [], []
    counts = derived = bytes_out = None
    start, last = perf_counter(), 0.0
    with hostspeed.Meter() as meter:
        while not traced or perf_counter() - start + last <= seconds:
            t_pair = perf_counter()
            results = workload.run_pass(meter)
            plain.append(sum(ref for _, ref, _ in results))
            per_check.append([ref for _, ref, _ in results])
            bytes_out = workload.stdout_bytes(results)
            untraced_texts = tally.add(results)

            tracer.install()
            try:
                results = workload.run_pass(meter)
            finally:
                broken = tracer.restore()
            traced.append(sum(ref for _, ref, _ in results))
            speed = traced[-1] / sum(wall for wall, _, _ in results)
            tally.fail(f"patches not restored: {broken}" if broken else None, "tracer")
            same = tally.add(results) == untraced_texts
            tally.fail(None if same else "traced output differs from untraced output", "tracer")
            pass_counts = {key: tracer.counts()[key] for key in COUNTERS}
            if counts is None:
                counts, derived = pass_counts, len(tracer.derived)
            tally.fail(None if pass_counts == counts else "counts differ between traced passes",
                       "tracer")
            selfs.append({k: v * speed for k, v in tracer.self_times().items()})
            last = perf_counter() - t_pair

    metrics = {key: (counts[key], "count") for key in COUNTERS}
    derive_n = counts["bounds.derive_n"]
    metrics["bounds.derive_distinct_n"] = (derived, "count")
    metrics["bounds.derive_useful_ratio"] = (derived / derive_n if derive_n else 0.0, "ratio")
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (statistics.median(s[layer] for s in selfs), "s")
    metrics["cli.bytes_out"] = (bytes_out, "bytes")
    timed_checks = workload.name == "verify-suite"
    for i, (_, fn) in enumerate(workload.gs.verify.CHECKS):
        value = statistics.median(p[i] for p in per_check) if timed_checks else 0.0
        metrics[f"verify.{fn.__name__}_s"] = (value, "s")
    overhead = statistics.median(traced) / statistics.median(plain) - 1
    metrics["trace.overhead_pct"] = (100 * overhead, "%")
    notes = [f"passes: {len(plain)} untraced, {len(traced)} traced; counts are per pass",
             f"derive useful ratio base: {derived} distinct of {derive_n} derivations"]
    return metrics, notes


def measure(name: str, seed: int, seconds: float, trace: bool, size: int | None = None,
            setup_repeats: int = 11) -> tuple[dict, list[str]]:
    """Run one workload; return the result object and human-readable notes."""
    gs = load_program(ROOT)
    workload = WORKLOADS[name](gs, seed, size)
    expected = None
    if seed == DEFAULT_SEED and size is None and DIGESTS.is_file():
        expected = json.loads(DIGESTS.read_text()).get(name)
    tally = Tally(workload, expected)
    if trace:
        metrics, notes = per_layer(workload, tally, seconds)
    else:
        metrics, notes = end_to_end(workload, tally, seconds, ROOT, setup_repeats)
    notes.append(f"error_rate: {tally.failed / tally.attempted} "
                 f"({tally.failed} failed of {tally.attempted} attempted)")
    notes += tally.problems
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    return result, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # One CPU for the whole run, so that the calibration units run where the
    # program's threads run: the two CPUs of a shared host slow down
    # separately.  The sweep pool's threads take turns under the interpreter
    # lock either way.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    result, notes = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for note in notes:
        print(f"  {note}")
    for key, m in result["metrics"].items():
        print(f"  {key:<52} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

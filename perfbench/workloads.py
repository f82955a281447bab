"""The benchmark workloads: seeded inputs, one timed pass, output checks.

Each workload turns its seed into a fixed list of inputs, and a pass makes
one public call per input, timing each call in wall seconds and, scaled by
the host's speed during it, in reference seconds (see ``hostspeed``).  The
program sees only the generated inputs.  Checks run after a pass, outside
the timed region, and recompute every output by an independent route:
numeric ``Fraction`` arithmetic through the slope layer, never ``RatFunc``.
"""
from __future__ import annotations

import hashlib
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import hostspeed

FORMATS = ("table", "csv", "jsonl")

#: the eight (degree, case) families of the CLI
FAMILIES = ((3, "index-only"), (3, "general-odd"), (3, "general-even"),
            (4, "index-only"), (4, "general-odd"), (4, "general-even"),
            (4, "nonfactorizing"), (4, "factorizing"))

SWEEP_COLUMNS = ["g", "derived", "stated", "discrepancy", "reference", "strict", "tag"]

#: admissible genera per sweep window: each family gets this multiset once
#: per 13 rounds, in a seeded order, so that a pass does the same amount of
#: work for every seed
SWEEP_WINDOWS = (1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 4, 36)

#: c1^2 grid points per report, given to each family the same way
BLOWUP_GRIDS = (2, 4, 6, 8, 10, 12, 16, 20, 24, 32, 40, 48, 64)

REPORT_COLUMNS = ["c1sq", "c2_bound", "kf2", "chif", "slope", "verdict"]


class CallFailed:
    """Stands in for the result of a call that raised."""

    def __init__(self, exc: BaseException):
        self.text = f"raised {type(exc).__name__}: {exc}"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# -- numeric oracle: the case rules at a concrete genus, over Fraction ------


def family_plan(rng: random.Random, size: int, per_family: tuple[int, ...]):
    """(degree, case, value) per item: families in turn, each drawing its own
    seeded permutation of ``per_family``."""
    orders = [rng.sample(per_family, len(per_family)) for _ in FAMILIES]
    return [(*FAMILIES[i % len(FAMILIES)],
             orders[i % len(FAMILIES)][i // len(FAMILIES) % len(per_family)])
            for i in range(size)]


def genus_floor(n: int, case: str, gamma: int | None) -> int:
    floor = 5 if n == 3 else 10
    return max(floor, 6 * gamma + 4) if case == "factorizing" else floor


def admits(case: str, gamma: int | None, g: int) -> bool:
    if case == "general-odd":
        return g % 2 == 1
    if case == "general-even":
        return g % 2 == 0
    if case == "factorizing":
        return 6 * gamma + 3 < g
    return True


def splitting(n: int, case: str, gamma: int | None, g: int):
    """(alpha, beta, is_floor) of the case at genus g; None for trigonal index-only."""
    g = Fraction(g)
    if case == "index-only":
        return None if n == 3 else (Fraction(4), g - 1, True)
    if case == "general-odd":
        return ((g + 1) / 2, (g + 3) / 2, False) if n == 3 else ((g + 3) / 2, (g + 3) / 2, False)
    if case == "general-even":
        return ((g + 2) / 2, (g + 2) / 2, False) if n == 3 else ((g + 2) / 2, (g + 4) / 2, False)
    if case == "nonfactorizing":
        return (g + 3) / 3, 2 * (g + 3) / 3, True
    return Fraction(2 * gamma + 2), g + 1 - 2 * gamma, False


def c2_coefficient(n: int, case: str, gamma: int | None, g: int) -> Fraction:
    split = splitting(n, case, gamma, g)
    if split is None:
        return (2 - Fraction(4, 3)) / 3
    alpha, beta, _ = split
    return alpha / (2 * (alpha + beta))


def strict(n: int, case: str, gamma: int | None, g: int) -> bool:
    split = splitting(n, case, gamma, g)
    return split is not None and not split[2] and split[1] > split[0]


def derived_at(gs, n: int, case: str, gamma: int | None, g: int) -> Fraction:
    """The derived bound at g: the c2 bound substituted into the numeric slope."""
    c1sq = Fraction(14)  # any nonzero value; c1^2 cancels
    c2 = c2_coefficient(n, case, gamma, g) * c1sq
    if n == 3:
        return gs.slope.slope_trigonal(g, c1sq, c2).slope
    return gs.slope.slope_fourgonal(g, c1sq, (c1sq + c2) / 4, c2).slope


def reference(n: int, g: int) -> Fraction:
    return 6 - Fraction(2, n - 1) - Fraction(2 * n, g)


# -- output parsing ------------------------------------------------------------


def _cell(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def parse_rows(fmt: str, lines: list[str], columns: list[str]) -> list[dict[str, str]]:
    """Rows of a table, csv or jsonl listing as dicts of cell text."""
    if fmt == "jsonl":
        return [{k: _cell(json.loads(line)[k]) for k in columns} for line in lines]
    split = (lambda line: line.split(",")) if fmt == "csv" else str.split
    header = split(lines[0])
    if header != columns:
        raise ValueError(f"header {header} != {columns}")
    rows = []
    for line in lines[1:]:
        cells = split(line)
        cells += [""] * (len(columns) - len(cells))  # a table drops an empty last cell
        rows.append(dict(zip(columns, cells)))
    return rows


# -- workloads -------------------------------------------------------------------


class Workload:
    """A fixed, seeded list of inputs; a pass makes one timed call per input.

    A pass runs under an entered ``hostspeed.Meter`` and returns one
    ``(wall_s, ref_s, result)`` per input.
    """

    name = ""
    size = 0

    def __init__(self, gs, seed: int, size: int | None = None):
        self.gs = gs
        self.items = self.generate(random.Random(seed), size or self.size)

    def generate(self, rng: random.Random, size: int) -> list:
        raise NotImplementedError

    def call(self, item):
        raise NotImplementedError

    def run_pass(self, meter: hostspeed.Meter) -> list[tuple[float, float, object]]:
        out = []
        for item in self.items:
            mark = meter.mark()
            try:
                result = self.call(item)
            except Exception as exc:  # a failed item is counted, never fatal
                result = CallFailed(exc)
            out.append((*meter.since(mark), result))
        return out

    def render(self, result) -> str:
        """The text a user would see; digested and compared between passes."""
        return result.text if isinstance(result, CallFailed) else self._render(result)

    def _render(self, result) -> str:
        raise NotImplementedError

    def check(self, index: int, result) -> str | None:
        """None when the output is correct, else what is wrong."""
        if isinstance(result, CallFailed):
            return result.text
        try:
            return self._check(self.items[index], result)
        except (ValueError, KeyError, IndexError, ZeroDivisionError) as exc:
            return f"unreadable output: {type(exc).__name__}: {exc}"

    def _check(self, item, result) -> str | None:
        raise NotImplementedError

    def stdout_bytes(self, results) -> int:
        return 0


class VerifySuite(Workload):
    """The shipped ``verify.run``; one call is one check, timed between its
    report lines."""

    name = "verify-suite"

    def generate(self, rng, size):
        return [name for name, _ in self.gs.verify.CHECKS]  # its checks carry their own seed

    def run_pass(self, meter):
        results = []
        mark = meter.mark()

        def out(line: str) -> None:
            nonlocal mark
            results.append((*meter.since(mark), line))
            mark = meter.mark()

        try:
            self.gs.verify.run(out=out)
        except Exception as exc:
            out(CallFailed(exc).text)
        return results + [(0.0, 0.0, "no report line")] * (len(self.items) - len(results))

    def _render(self, result):
        return result

    def _check(self, item, line):
        return None if line == f"ok   {item}" else line


def _run_cli(gs, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = gs.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


class CliWorkload(Workload):
    """One ``cli.main`` call per input, in process, with stdout and stderr captured."""

    def call(self, item):
        return _run_cli(self.gs, item["argv"])

    def _render(self, result):
        rc, out, err = result
        return f"{out}\x00{err}\x00{rc}"

    def stdout_bytes(self, results):
        return sum(len(r[1].encode()) for *_, r in results if isinstance(r, tuple))


class GenusSweep(CliWorkload):
    """``sweep`` over all eight case families, windows of 1 to 36 admissible
    genera, so the work shared between genera varies."""

    name = "genus-sweep"
    size = 8 * len(SWEEP_WINDOWS)

    def generate(self, rng, size):
        items = []
        for n, case, length in family_plan(rng, size, SWEEP_WINDOWS):
            gamma = rng.randint(1, 4) if case == "factorizing" else None
            g_min = genus_floor(n, case, gamma) + rng.randint(0, 300)
            genera, g = [], g_min
            while len(genera) < length:
                if admits(case, gamma, g):
                    genera.append(g)
                g += 1
            fmt = rng.choice(FORMATS)
            argv = ["sweep", "--n", str(n), "--case", case]
            if gamma is not None:
                argv += ["--gamma", str(gamma)]
            argv += ["--g-min", str(g_min), "--g-max", str(genera[-1]), "--format", fmt]
            items.append({"argv": argv, "n": n, "case": case, "gamma": gamma,
                          "genera": genera, "format": fmt})
        return items

    def _check(self, item, result):
        rc, out, err = result
        if rc != 0 or err:
            return f"exit {rc}: {err.strip()}"
        n, case, gamma = item["n"], item["case"], item["gamma"]
        rows = parse_rows(item["format"], out.splitlines(), SWEEP_COLUMNS)
        if [int(r["g"]) for r in rows] != item["genera"]:
            return f"rows for genera {[r['g'] for r in rows]}, expected {item['genera']}"
        for r in rows:
            g = int(r["g"])
            derived = Fraction(r["derived"])
            if derived != derived_at(self.gs, n, case, gamma, g):
                return f"g={g}: derived {derived} != {derived_at(self.gs, n, case, gamma, g)}"
            if Fraction(r["discrepancy"]) != Fraction(r["stated"]) - derived:
                return f"g={g}: discrepancy is not stated - derived"
            if Fraction(r["reference"]) != reference(n, g):
                return f"g={g}: reference {r['reference']}"
            if r["strict"] != _cell(strict(n, case, gamma, g)) or r["tag"]:
                return f"g={g}: strict/tag {r['strict']!r} {r['tag']!r}"
        return None


class BlowupGrid(CliWorkload):
    """``report`` over blow-up scenarios (t > 0, and s > 0 in degree 4) on
    seeded c1^2 grids of 2 to 64 points, over all eight case families.
    Every grid point rebuilds the case's symbolic c2 chain today, so
    hoisting the chain shows here: many small re-derivations, where
    ``genus-sweep`` makes a few large ones."""

    name = "blowup-grid"
    size = 8 * len(BLOWUP_GRIDS)

    def generate(self, rng, size):
        items = []
        for n, case, points in family_plan(rng, size, BLOWUP_GRIDS):
            gamma = rng.randint(1, 4) if case == "factorizing" else None
            g = genus_floor(n, case, gamma) + rng.randint(0, 200)
            while not admits(case, gamma, g):
                g += 1
            s = rng.randint(1, 12) if n == 4 else 0
            t = rng.randint(1, 12)
            grid = {Fraction(rng.randint(1000, 5000))}  # large c1^2 is always admissible
            while len(grid) < points:
                grid.add(Fraction(rng.randint(-200, 5000), rng.randint(1, 12)))
            grid = sorted(grid)
            fmt = rng.choice(FORMATS)
            argv = ["report", "--n", str(n), "--g", str(g), "--case", case]
            if gamma is not None:
                argv += ["--gamma", str(gamma)]
            if n == 4:
                argv += ["--s", str(s)]
            argv += ["--t", str(t), "--c1sq-grid=" + ",".join(map(str, grid)),
                     "--format", fmt]
            items.append({"argv": argv, "n": n, "case": case, "gamma": gamma, "g": g,
                          "s": s, "t": t, "grid": grid, "format": fmt})
        return items

    def _check(self, item, result):
        rc, out, err = result
        if rc != 0 or err:
            return f"exit {rc}: {err.strip()}"
        n, case, gamma, g, s, t = (item[k] for k in ("n", "case", "gamma", "g", "s", "t"))
        lines = out.splitlines()
        baseline = derived_at(self.gs, n, case, gamma, g)
        if item["format"] == "table":
            lines = lines[lines.index("") + 1:]
        elif item["format"] == "jsonl":
            meta = json.loads(lines.pop(0))
            if Fraction(meta["baseline_at_g"]) != baseline:
                return f"baseline at g {meta['baseline_at_g']} != {baseline}"
        rows = parse_rows(item["format"], lines, REPORT_COLUMNS)
        if [Fraction(r["c1sq"]) for r in rows] != item["grid"]:
            return "rows are not the c1^2 grid"
        coeff = c2_coefficient(n, case, gamma, g)
        corr = (0 if case == "index-only" else 4 * t) if n == 3 else 9 * s + 4 * t
        for r in rows:
            c1sq = Fraction(r["c1sq"])
            c2 = coeff * (c1sq + corr)
            if Fraction(r["c2_bound"]) != c2:
                return f"c1sq={c1sq}: c2 bound {r['c2_bound']} != {c2}"
            if n == 3:
                kf2, chif = self.gs.slope.trigonal_blowup_parts(g, c1sq, c2, t)
            else:
                kf2, chif = self.gs.slope.fourgonal_blowup_parts(
                    g, c1sq, (c1sq + c2) / 4, c2, s, t)
            if (Fraction(r["kf2"]), Fraction(r["chif"])) != (kf2, chif):
                return f"c1sq={c1sq}: K_f^2, chi_f {r['kf2']}, {r['chif']} != {kf2}, {chif}"
            if chif <= 0:
                want = ("-", "inadmissible")
            else:
                slope = kf2 / chif
                want = (str(slope), "below" if slope < baseline else
                        "equal" if slope == baseline else "above")
            if (r["slope"], r["verdict"]) != want:
                return f"c1sq={c1sq}: slope, verdict {r['slope']}, {r['verdict']} != {want}"
        return None


class SurfaceInvariants(Workload):
    """Library calls on concrete covers: blown-up c1, the R^2 routes through
    sym2/whitney_quotient, chi of the total space, and the slope by two routes.
    The blow-up counts s and t, which set the size of every class vector, run
    through seeded permutations of 0..60, so a pass costs the same for every
    seed; 366 covers take each value of t six times and of s three times.
    Short passes give each cover many repeats in a run."""

    name = "surface-invariants"
    size = 6 * 61

    def generate(self, rng, size):
        perm_s, perm_t = list(range(61)), list(range(61))
        rng.shuffle(perm_s)
        rng.shuffle(perm_t)
        items = []
        for i in range(size):
            n = 3 + i % 2
            g = rng.randint(5 if n == 3 else 10, 60)
            b = rng.randint(0, 60)
            s = 0 if n == 3 else perm_s[i // 2 % 61]
            t = perm_t[i % 61]
            c1sq = Fraction(rng.randint(1, 4000), rng.randint(1, 12))
            c2f = Fraction(rng.randint(-500, 500), rng.randint(1, 12))
            while True:  # the slope is undefined where chi_f = 0
                c2 = Fraction(rng.randint(-500, 500), rng.randint(1, 12))
                if Fraction(g + n - 2, 2 * (g + n - 1)) * c1sq != c2:
                    break
            items.append((n, g, b, s, t, c1sq, c2, c2f))
        return items

    def call(self, item):
        n, g, b, s, t, c1sq, c2, c2f = item
        gs = self.gs
        c1 = gs.grr.blownup_c1(g, n, c1sq, gs.chow.SurfaceModel(b, s, t))
        back = gs.chow.self_intersection(c1)
        e = gs.chern.BundleData(n - 1, c1, c2)
        kernel = None
        if n == 3:
            rsq = gs.grr.trigonal_rsq(e)
        else:
            rsq = gs.grr.fourgonal_rsq(e, gs.chern.BundleData(2, c1, c2f))
            kernel = gs.grr.conics_kernel(e, rsq)
        chi = gs.grr.chi_total_space(n, e)
        closed = gs.slope.slope_general(g, n, c1sq, c2, rsq)
        via = gs.slope.slope_general_via_surface(g, n, c1sq, c2, rsq, b)
        return back, rsq, kernel, chi, closed, via

    def _render(self, result):
        back, rsq, kernel, chi, closed, via = result
        kern = "-" if kernel is None else f"{kernel.c1} {kernel.c2}"
        return (f"{back} {rsq} {kern} {chi} {closed.kf2} {closed.chif} {closed.slope} "
                f"{via.kf2} {via.chif} {via.slope}")

    def _check(self, item, result):
        n, g, b, s, t, c1sq, c2, c2f = item
        back, rsq, kernel, chi, closed, via = result
        if back != c1sq:
            return f"c1 self-intersects to {back}, not {c1sq}"
        want = 2 * c1sq - 3 * c2 if n == 3 else 2 * c1sq - 4 * c2 + c2f
        if rsq != want:
            return f"R^2 = {rsq}, closed form gives {want}"
        if kernel is not None and kernel.c2 != c2f:
            return f"conics kernel c2 {kernel.c2} != c2(F) {c2f}"
        if (closed.kf2, closed.chif, closed.slope) != (via.kf2, via.chif, via.slope):
            return "slope_general and slope_general_via_surface disagree"
        return None


WORKLOADS = {cls.name: cls for cls in (VerifySuite, GenusSweep, BlowupGrid,
                                          SurfaceInvariants)}

"""Command-line surface: flags, scenario files, formats, exit codes, determinism."""
from __future__ import annotations

import argparse
import ast
import csv
import importlib.metadata
import io
import json
import re
import shlex
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import gonalslope
from gonalslope import bounds, cli, grr, verify
from gonalslope.bounds import ScenarioSpec, c2_bounds_blowup, derived_slope_bound

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"
README = PYPROJECT.with_name("README.md")
WORKFLOW = PYPROJECT.with_name(".github") / "workflows" / "tier1.yml"
GOLDEN = Path(__file__).resolve().parent / "golden"
SLOPE_EXAMPLE = ["slope", "--n", "3", "--g", "5", "--c1sq", "14", "--c2", "28/9"]

#: stdout of each run in every format is recorded in tests/golden/<name>.<format>
GOLDEN_RUNS = {
    "slope_n3_g6_t1": ["slope", "--n", "3", "--g", "6", "--c1sq", "14", "--c2", "59/10",
                       "--t", "1"],
    "slope_n4_g11_s1_t2": ["slope", "--n", "4", "--g", "11", "--c1sq", "20", "--c2e", "9",
                           "--c2f", "6", "--s", "1", "--t", "2"],
    "bound_n4_general_odd_11": ["bound", "--n", "4", "--g", "11", "--case", "general-odd"],
    "bound_n4_factorizing_2_20": ["bound", "--n", "4", "--g", "20", "--case", "factorizing",
                                  "--gamma", "2"],
    "report_n3_general_odd_5_t1": ["report", "--n", "3", "--g", "5", "--case",
                                   "general-odd", "--t", "1"],
    # a value that starts with '-' and is no plain integer needs the '=' form
    "report_n4_general_even_12_s1_t1_grid": ["report", "--n", "4", "--g", "12", "--case",
                                             "general-even", "--s", "1", "--t", "1",
                                             "--c1sq-grid=-1/2,14"],
    "sweep_n4_general_even_10_60": ["sweep", "--n", "4", "--case", "general-even",
                                    "--g-min", "10", "--g-max", "60"],
    "bound_n3_general_even_4_oor": ["bound", "--n", "3", "--g", "4", "--case",
                                    "general-even", "--allow-out-of-range"],
    "report_n3_general_even_4_t1_oor": ["report", "--n", "3", "--g", "4", "--case",
                                        "general-even", "--t", "1", "--allow-out-of-range"],
    # two notes: two `note =` table lines, one csv cell joined by "; "
    "slope_n3_g4_oor_notes": ["slope", "--n", "3", "--g", "4", "--c1sq", "1", "--c2", "5",
                              "--allow-out-of-range"],
    # the tag column, set on the row below the floor and empty on the others
    "sweep_n3_general_odd_3_7_oor": ["sweep", "--n", "3", "--case", "general-odd",
                                     "--g-min", "3", "--g-max", "7", "--allow-out-of-range"],
}


def run_cli(argv, capsys):
    """Invoke main() in-process; argparse SystemExit is folded into the code."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- slope --------------------------------------------------------------------


def test_slope_trigonal_example(capsys):
    code, out, _ = run_cli(["slope", "--n", "3", "--g", "5",
                            "--c1sq", "14", "--c2", "28/9"], capsys)
    assert code == 0
    assert "slope   = 48/13 (~ 3.692308)" in out
    assert "kf2     = 32/3 (~ 10.666667)" in out
    assert "s_B     = 108/13" in out


def test_slope_fourgonal_example(capsys):
    code, out, _ = run_cli(["slope", "--n", "4", "--g", "13", "--c1sq", "6",
                            "--c2e", "7/4", "--c2f", "1", "--format", "jsonl"], capsys)
    assert code == 0
    rec = json.loads(out)
    assert rec["slope"] == "72/17"
    assert rec["kf2"] == "9/2"
    assert rec["chif"] == "17/16"
    assert rec["slope_approx"] == "4.235294"
    assert rec["notes"] == []


def test_slope_csv_round_trip(capsys):
    code, out, _ = run_cli(["slope", "--n", "3", "--g", "5", "--c1sq", "14",
                            "--c2", "28/9", "--format", "csv"], capsys)
    assert code == 0
    header, row = out.strip().splitlines()
    cells = dict(zip(header.split(","), row.split(",")))
    assert Fraction(cells["slope"]) == Fraction(48, 13)
    assert cells["delta_B"] == "24"


def test_slope_missing_flag_exits_1_with_usage(capsys):
    code, _, err = run_cli(["slope", "--n", "3", "--g", "5", "--c1sq", "14"], capsys)
    assert code == 1
    assert "usage:" in err and "--c2" in err


def test_degree_3_total_ramification_refused_alike(capsys):
    base = ["--n", "3", "--g", "5", "--s", "1"]
    errors = []
    for argv in (["slope", *base, "--c1sq", "14", "--c2", "3"],
                 ["report", *base, "--case", "general-odd"]):
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (1, "")
        errors.append(err)
    assert errors == ["error: degree 3 admits no total-ramification blow-ups\n"] * 2


@pytest.mark.parametrize("argv,hint", [
    (["slope", "--g", "5", "--c1sq", "14", "--c2", "3"], "missing --n (or degree=)"),
    (["bound", "--n", "3", "--case", "index-only"], "missing --g (or genus=)"),
    (["report", "--n", "3", "--g", "5"], "missing --case (or case=)"),
    (["sweep", "--n", "3", "--case", "index-only", "--g-max", "9"],
     "missing --g-min (or genus= or genus-range=)"),
    (["sweep", "--n", "3", "--case", "index-only", "--g-min", "5"],
     "missing --g-max (or genus= or genus-range=)"),
    (["slope", "--n", "3", "--g", "5", "--c2", "3"], "missing --c1sq\n"),
])
def test_missing_option_names_its_scenario_keys(argv, hint, capsys):
    code, _, err = run_cli(argv, capsys)
    assert code == 1
    assert hint in err


def test_slope_rejects_mixed_degree_flags(capsys):
    code, _, err = run_cli(["slope", "--n", "3", "--g", "5", "--c1sq", "14",
                            "--c2", "1", "--c2f", "1"], capsys)
    assert code == 1
    assert "--c2e/--c2f" in err


def test_slope_rejects_degree_3_flag_in_degree_4(capsys):
    code, out, err = run_cli(["slope", "--n", "4", "--g", "11", "--c1sq", "20",
                              "--c2", "3"], capsys)
    assert (code, out) == (1, "")
    assert err.endswith("error: --c2 applies to --n 3; degree 4 takes --c2e and --c2f\n")


def test_slope_rejects_inexact_literal(capsys):
    code, _, err = run_cli(["slope", "--n", "3", "--g", "5",
                            "--c1sq", "1.5", "--c2", "1"], capsys)
    assert code == 1


#: more digits than int() converts, so every option below rejects it
LONG_LITERAL = "9" * 5000


@pytest.mark.parametrize("argv", [
    ["slope", "--n", "3", "--g", "5", "--c1sq", LONG_LITERAL, "--c2", "1"],
    ["slope", "--n", "3", "--g", LONG_LITERAL, "--c1sq", "14", "--c2", "1"],
    ["report", "--n", "3", "--g", "5", "--case", "general-odd", "--c1sq-grid", LONG_LITERAL],
], ids=["c1sq", "g", "c1sq-grid"])
def test_long_rejected_value_is_echoed_truncated(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (1, "")
    assert len(err.encode()) < 1000
    assert err.endswith(f" value: '{'9' * 40}...' (5000 characters)\n")


def test_long_scenario_file_value_is_echoed_truncated(tmp_path, capsys):
    sc = tmp_path / "sc.txt"
    sc.write_text(f"genus={LONG_LITERAL}\n")
    code, out, err = run_cli(["bound", "--scenario", str(sc)], capsys)
    assert (code, out) == (1, "")
    assert len(err.encode()) < 1000
    assert err.endswith(f"genus: expected an integer, got '{'9' * 40}...' "
                        "(5000 characters)\n")


@pytest.mark.parametrize("value", ["abc", "x" * 80])
def test_short_rejected_value_is_echoed_in_full(value, capsys):
    code, _, err = run_cli(["slope", "--n", "3", "--g", "5", "--c1sq", value, "--c2", "1"],
                           capsys)
    assert code == 1
    assert err.endswith(f"error: argument --c1sq: not an exact rational literal: '{value}'\n")


@pytest.mark.parametrize("argv,reason", [
    (["slope", "--n", "3", "--g", "5", "--c1sq", "1/0", "--c2", "1"],
     "argument --c1sq: zero denominator in '1/0'"),
    (["report", "--n", "3", "--g", "5", "--case", "general-odd", "--c1sq-grid", "1,,2"],
     "argument --c1sq-grid: empty entry in '1,,2'"),
    (["report", "--n", "3", "--g", "5", "--case", "general-odd", "--c1sq-grid", "1,2/0"],
     "argument --c1sq-grid: zero denominator in '2/0'"),
], ids=["c1sq", "grid-empty", "grid-zero"])
def test_rejected_option_value_gives_the_reason(argv, reason, capsys):
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (1, "")
    assert err.endswith(f"error: {reason}\n")


def test_slope_zero_denominator_is_a_usage_error(child_env):
    proc = subprocess.run([sys.executable, "-m", "gonalslope", "slope", "--n", "3",
                           "--g", "5", "--c1sq", "1/0", "--c2", "1"],
                          capture_output=True, text=True, env=child_env)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("usage: gonal-slope slope")
    assert proc.stderr.count("usage:") == 1 and proc.stderr.count("error:") == 1
    assert proc.stderr.splitlines()[-1].startswith("gonal-slope slope: error: argument --c1sq")


@pytest.mark.parametrize("fmt", ["table", "csv", "jsonl"])
def test_slope_beyond_float_range(fmt, child_env):
    # c1^2 = 10^401 - 1: K_f^2, chi_f and delta_B overflow a float, the slope does not
    proc = subprocess.run([sys.executable, "-m", "gonalslope", "slope", "--n", "3",
                           "--g", "5", "--c1sq", "9" * 401, "--c2", "1", "--format", fmt],
                          capture_output=True, text=True, env=child_env)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    for approx in ("1.428571e+401", "4.285714e+400", "3.333333", "3.714286e+401"):
        assert approx in proc.stdout


def test_approx_switches_to_scientific_only_beyond_float():
    big = Fraction(10) ** 308
    assert cli._approx(big) == f"{float(big):.6f}"
    assert cli._approx(Fraction(-2, 3)) == "-0.666667"
    assert cli._approx(-(Fraction(10) ** 401) + 1) == "-1.000000e+401"
    assert cli._approx(Fraction(123456789 * 10 ** 400, 7)) == "1.763668e+407"


def test_slope_zero_chi_exits_3(capsys):
    code, _, err = run_cli(["slope", "--n", "3", "--g", "5",
                            "--c1sq", "14", "--c2", "6"], capsys)
    assert code == 3
    assert "chi_f" in err


def test_slope_genus_floor_and_override(capsys):
    code, _, err = run_cli(["slope", "--n", "3", "--g", "4",
                            "--c1sq", "14", "--c2", "28/9"], capsys)
    assert code == 1 and "floor" in err
    code, out, _ = run_cli(["slope", "--n", "3", "--g", "4", "--c1sq", "14",
                            "--c2", "28/9", "--allow-out-of-range"], capsys)
    assert code == 0
    assert "out-of-range" in out


def test_slope_warning_note_on_absurd_slope(capsys):
    # chif = 1/10 here, so the quotient lands at 23: flagged, not rejected
    code, out, _ = run_cli(["slope", "--n", "3", "--g", "5",
                            "--c1sq", "14", "--c2", "59/10"], capsys)
    assert code == 0
    assert "slope   = 23" in out
    assert "outside (0, 12]" in out


def test_slope_csv_quotes_note_with_comma(capsys):
    code, out, err = run_cli(["slope", "--n", "3", "--g", "5", "--c1sq", "14",
                              "--c2", "59/10", "--format", "csv"], capsys)
    assert code == 0, err
    header, row = csv.reader(io.StringIO(out))
    assert dict(zip(header, row))["notes"] == "slope 23 outside (0, 12]"
    assert out.splitlines()[1].endswith(',"slope 23 outside (0, 12]"')


@pytest.mark.parametrize("fmt,line", [
    ("table", "note    = chi_f -1 is negative"),
    ("csv", "-1,-1,1,11,-11,-1.000000,-1.000000,1.000000,11.000000,-11.000000,"
            "chi_f -1 is negative"),
], ids=("table", "csv"))
def test_slope_note_on_negative_chi(fmt, line, capsys):
    # K_f^2 = chi_f = -1: the slope 1 lies in (0, 12], the sign of chi_f does not
    code, out, err = run_cli(["slope", "--n", "3", "--g", "5", "--c1sq", "14",
                              "--c2", "7", "--format", fmt], capsys)
    assert code == 0, err
    assert out.splitlines()[-1] == line


def test_slope_rearranged_self_check_exits_4(capsys, monkeypatch):
    monkeypatch.setattr(gonalslope.slope, "fourgonal_rearranged", lambda *args: Fraction(-1))
    code, out, err = run_cli(["slope", "--n", "4", "--g", "11", "--c1sq", "20",
                              "--c2e", "6", "--c2f", "4"], capsys)
    assert code == 4
    assert out == ""
    assert "internal check failed: rearranged quadruple-cover slope disagrees" in err


@pytest.mark.parametrize("argv,g", [
    (["slope", "--n", "3", "--g", "-3", "--c1sq", "14", "--c2", "1"], -3),
    (["slope", "--n", "3", "--g", "-2", "--c1sq", "14", "--c2", "1"], -2),
    (["bound", "--n", "3", "--g", "0", "--case", "general-even"], 0),
    (["sweep", "--n", "3", "--case", "general-even", "--g-min", "0", "--g-max", "12"], 0),
    # no genus below 1 is swept, but the range still starts below 1
    (["sweep", "--n", "3", "--case", "general-odd", "--g-min", "0", "--g-max", "12"], 0),
    (["report", "--n", "3", "--g", "0", "--case", "index-only", "--t", "1"], 0),
    (["report", "--n", "4", "--g", "-3", "--case", "general-odd"], -3),
], ids=["slope", "slope-pole", "bound", "sweep", "sweep-odd", "report", "report-pole"])
def test_genus_below_one_exits_1(argv, g, capsys):
    code, out, err = run_cli(argv + ["--allow-out-of-range"], capsys)
    assert (code, out) == (1, "")
    assert err == f"error: genus must be positive, got {g}\n"


@pytest.mark.parametrize("allow", [[], ["--allow-out-of-range"]], ids=["floor", "allow"])
@pytest.mark.parametrize("argv", [
    ["slope", "--n", "3", "--g", "0", "--c1sq", "1", "--c2", "1"],
    ["bound", "--n", "3", "--g", "0", "--case", "general-even"],
    ["sweep", "--n", "3", "--case", "general-even", "--g-min", "0", "--g-max", "12"],
    ["report", "--n", "3", "--g", "0", "--case", "index-only", "--t", "1"],
], ids=lambda argv: argv[0])
def test_genus_below_one_gets_no_floor_hint(argv, allow, capsys):
    """A genus below 1 is refused for itself, with or without --allow-out-of-range."""
    code, out, err = run_cli(argv + allow, capsys)
    assert (code, out, err) == (1, "", "error: genus must be positive, got 0\n")


# -- bound --------------------------------------------------------------------


def test_bound_fourgonal_odd_discrepancy(capsys):
    code, out, _ = run_cli(["bound", "--n", "4", "--g", "11",
                            "--case", "general-odd", "--format", "jsonl"], capsys)
    assert code == 0
    rec = json.loads(out)
    assert rec["derived_at_g"] == "80/17"
    assert rec["stated_at_g"] == "88/17"
    assert rec["discrepancy_at_g"] == "8/17"
    assert rec["derived"] == "(16g - 16)/(3g + 1)"
    assert rec["discrepancy"] == "16/(3g + 1)"
    assert rec["strict"] is False
    assert any("c2(E) >= (c1^2 + c2(F))/4" in line for line in rec["chain"])


def test_bound_trigonal_even_match(capsys):
    code, out, _ = run_cli(["bound", "--n", "3", "--g", "12",
                            "--case", "general-even"], capsys)
    assert code == 0
    assert "derived at g=12     = 9/2" in out
    assert "discrepancy         = 0" in out


def test_bound_factorizing_example(capsys):
    code, out, _ = run_cli(["bound", "--n", "4", "--case", "factorizing",
                            "--gamma", "2", "--g", "20", "--format", "jsonl"], capsys)
    assert code == 0
    rec = json.loads(out)
    assert rec["derived_at_g"] == "38/9"
    assert rec["discrepancy"] == "0"
    assert rec["strict"] is True


def test_bound_checks_degree_before_genus_floor(capsys):
    code, _, err = run_cli(["bound", "--n", "5", "--g", "3", "--case", "index-only"], capsys)
    assert code == 1
    assert err == "error: degree must be 3 or 4, got 5\n"


@pytest.mark.parametrize("case,message", [
    ("index-only", "index_only splitting needs alpha <= beta, got (4, 2)"),
    ("general-odd", "degree-4 splitting needs alpha >= 4, got 3"),
])
def test_bound_refuses_impossible_splitting_out_of_range(case, message, capsys):
    code, out, err = run_cli(["bound", "--n", "4", "--g", "3", "--case", case,
                              "--allow-out-of-range"], capsys)
    assert (code, out, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("argv", [
    ["bound", "--n", "3", "--g", "5", "--case", "general-odd", "--t", "1"],
    ["sweep", "--n", "4", "--case", "general-odd", "--g-min", "11", "--g-max", "13",
     "--s", "1"],
], ids=["bound", "sweep"])
def test_blowups_point_to_the_report_subcommand(argv, capsys):
    """bound and sweep refuse s, t > 0 with one error line that names `report`."""
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (1, "")
    assert err == ("error: c1^2 does not cancel once s or t is positive; "
                   "use blowup_bound_report, or the report subcommand\n")


def test_bound_invalid_case_choice(capsys):
    code, _, err = run_cli(["bound", "--n", "3", "--g", "5",
                            "--case", "sporadic"], capsys)
    assert code == 1
    assert "usage:" in err


def test_bound_csv_fields_have_no_commas(capsys):
    code, out, _ = run_cli(["bound", "--n", "4", "--g", "20", "--case",
                            "factorizing", "--gamma", "2", "--format", "csv"], capsys)
    assert code == 0
    header, row = out.strip().splitlines()
    assert len(row.split(",")) == len(header.split(","))


# -- sweep --------------------------------------------------------------------


def test_sweep_trigonal_odd_matches_closed_form(capsys):
    code, out, _ = run_cli(["sweep", "--n", "3", "--case", "general-odd",
                            "--g-min", "5", "--g-max", "99", "--format", "csv"],
                           capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "g,derived,stated,discrepancy,reference,strict,tag"
    assert sum(1 for ln in lines if ln.startswith("g,")) == 1  # header once
    rows = [ln.split(",") for ln in lines[1:]]
    assert [int(r[0]) for r in rows] == list(range(5, 100, 2))
    for r in rows:
        g = int(r[0])
        assert Fraction(r[1]) == Fraction(5 * g - 3, g + 1)
        assert r[3] == "0"
        assert Fraction(r[4]) == 5 - Fraction(6, g)


def test_sweep_fourgonal_nonfactorizing_g9_row(capsys):
    code, _, err = run_cli(["sweep", "--n", "4", "--case", "nonfactorizing",
                            "--g-min", "9", "--g-max", "11"], capsys)
    assert code == 1 and "floor" in err
    code, out, _ = run_cli(["sweep", "--n", "4", "--case", "nonfactorizing",
                            "--g-min", "9", "--g-max", "11", "--format", "csv",
                            "--allow-out-of-range"], capsys)
    assert code == 0
    rows = [ln.split(",") for ln in out.strip().splitlines()[1:]]
    assert rows[0][0] == "9" and Fraction(rows[0][1]) == 4
    assert rows[0][6] == "out-of-range"
    assert rows[1][6] == "" and rows[2][6] == ""


def _floor_error(n, g) -> str:
    return (f"error: genus {g} below floor {grr.GENUS_FLOOR[int(n)]} for degree {n}; "
            "pass --allow-out-of-range to compute anyway\n")


@pytest.mark.parametrize("n,case,g_min,g", [("3", "general-odd", 4, 3),
                                            ("4", "general-even", 9, 8)],
                         ids=["3-general-odd-4", "4-general-even-9"])
def test_sweep_below_floor_uses_the_genus_gate(n, case, g_min, g, capsys):
    """sweep refuses a range below the floor with the words of slope, bound and report.

    The sweep skips genera its case refuses, so it meets the floor at any g_min;
    bound meets it at a genus of the case's parity."""
    code, out, err = run_cli(["sweep", "--n", n, "--case", case, "--g-min", str(g_min),
                              "--g-max", "20"], capsys)
    assert (code, out, err) == (1, "", _floor_error(n, g_min))
    code, out, err = run_cli(["bound", "--n", n, "--case", case, "--g", str(g)], capsys)
    assert (code, out, err) == (1, "", _floor_error(n, g))


@pytest.mark.parametrize("allow", [[], ["--allow-out-of-range"]], ids=["floor", "allow"])
@pytest.mark.parametrize("argv,message", [
    (["bound", "--n", "3", "--g", "4", "--case", "general-odd"], "general_odd needs odd g, got 4"),
    (["bound", "--n", "4", "--g", "3", "--case", "general-odd"],
     "degree-4 splitting needs alpha >= 4, got 3"),
    (["bound", "--n", "4", "--g", "9", "--case", "general-even"],
     "general_even needs even g, got 9"),
    (["report", "--n", "4", "--g", "8", "--case", "factorizing", "--gamma", "1", "--t", "1"],
     "factorizing needs gamma < (g-3)/6: gamma=1, g=8"),
], ids=["parity-3", "alpha-4", "parity-4", "gamma"])
def test_case_rules_come_before_the_floor(argv, message, allow, capsys):
    """A genus no flag rescues gets its case rule, not a hint to pass the flag."""
    code, out, err = run_cli(argv + allow, capsys)
    assert (code, out, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("argv,g", [
    (["slope", "--n", "3", "--g", "4", "--c1sq", "14", "--c2", "3"], 4),
    (["report", "--n", "4", "--g", "9", "--case", "general-odd", "--t", "1"], 9),
], ids=["slope", "report"])
def test_floor_only_refusal_names_the_flag(argv, g, capsys):
    """slope and report refuse a genus below the floor, and only there, as sweep and bound do."""
    code, out, err = run_cli(argv, capsys)
    assert (code, out, err) == (1, "", _floor_error(argv[2], g))


def test_sweep_empty_range_exits_1(capsys):
    code, _, err = run_cli(["sweep", "--n", "3", "--case", "general-odd",
                            "--g-min", "6", "--g-max", "6"], capsys)
    assert code == 1 and "empty sweep range" in err
    code, _, err = run_cli(["sweep", "--n", "3", "--case", "index-only",
                            "--g-min", "9", "--g-max", "7"], capsys)
    assert code == 1


def test_sweep_refuses_a_range_too_wide_before_any_row(capsys, monkeypatch):
    def no_rows(*args, **kwargs):
        raise AssertionError("a row was computed")

    monkeypatch.setattr(cli, "derived_slope_bound", no_rows)
    monkeypatch.setattr(ScenarioSpec, "genus_problem", no_rows)
    sweep = ["sweep", "--n", "3", "--case", "general-odd", "--g-min", "5", "--g-max"]
    for g_max in (5 + cli.MAX_SWEEP_GENERA, 100_000_000):
        code, out, err = run_cli(sweep + [str(g_max)], capsys)
        assert code == 1 and out == ""
        assert f"sweep range too wide: 5..{g_max} spans {g_max - 4} genera" in err
    # the widest accepted range gets past the width check to the genus rule
    monkeypatch.setattr(ScenarioSpec, "genus_problem", lambda *args, **kwargs: "odd")
    code, _, err = run_cli(sweep + [str(4 + cli.MAX_SWEEP_GENERA)], capsys)
    assert code == 1 and "no admissible g" in err


def test_sweep_factorizing_filters_small_genus(capsys):
    code, out, _ = run_cli(["sweep", "--n", "4", "--case", "factorizing",
                            "--gamma", "2", "--g-min", "10", "--g-max", "18",
                            "--format", "csv"], capsys)
    assert code == 0
    rows = [ln.split(",") for ln in out.strip().splitlines()[1:]]
    assert [int(r[0]) for r in rows] == [16, 17, 18]  # needs 6*gamma+3 < g


def test_sweep_derives_once(capsys, monkeypatch):
    calls = []

    def counted(spec, **kwargs):
        calls.append(spec)
        return derived_slope_bound(spec, **kwargs)

    monkeypatch.setattr(cli, "derived_slope_bound", counted)
    code, out, _ = run_cli(GOLDEN_RUNS["sweep_n4_general_even_10_60"] + ["--format", "csv"],
                           capsys)
    assert code == 0 and len(out.splitlines()) == 1 + 26
    assert len(calls) == 1


@pytest.mark.parametrize("n,case,g_min,g_max,below,strict", [
    ("3", "general-odd", 1, 7, [1, 3], True),
    ("4", "nonfactorizing", 8, 11, [8, 9], False),
])
def test_sweep_rows_below_floor(n, case, g_min, g_max, below, strict, capsys):
    code, out, _ = run_cli(["sweep", "--n", n, "--case", case, "--g-min", str(g_min),
                            "--g-max", str(g_max), "--allow-out-of-range",
                            "--format", "jsonl"], capsys)
    assert code == 0
    rows = [json.loads(ln) for ln in out.splitlines()]
    assert [r["g"] for r in rows if r["tag"] == "out-of-range"] == below
    assert all(r["tag"] == "" for r in rows if r["g"] not in below)
    for r in rows:
        assert r["strict"] is strict
        # each row agrees with a derivation at its own genus
        code, bound, _ = run_cli(["bound", "--n", n, "--case", case, "--g", str(r["g"]),
                                  "--allow-out-of-range", "--format", "jsonl"], capsys)
        assert code == 0
        rec = json.loads(bound)
        assert (r["derived"], r["stated"], r["strict"]) == (
            rec["derived_at_g"], rec["stated_at_g"], rec["strict"])


@pytest.mark.parametrize("case,first", [("general-odd", 5), ("nonfactorizing", 7)])
def test_sweep_skips_impossible_splittings(case, first, capsys):
    code, out, _ = run_cli(["sweep", "--n", "4", "--case", case, "--g-min", "1",
                            "--g-max", "12", "--allow-out-of-range", "--format", "csv"],
                           capsys)
    assert code == 0
    assert out.splitlines()[1].split(",")[0] == str(first)


@pytest.mark.parametrize("n,case,gamma", [
    (3, "index_only", None), (3, "general_odd", None), (3, "general_even", None),
    (4, "index_only", None), (4, "general_odd", None), (4, "general_even", None),
    (4, "nonfactorizing", None), (4, "factorizing", 1), (4, "factorizing", 3),
])
def test_sweep_strict_matches_per_genus_c2_bound(n, case, gamma, capsys):
    """One derivation's strictness flag holds for every admissible genus of the sweep."""
    argv = ["sweep", "--n", str(n), "--case", case.replace("_", "-"), "--g-min", "3",
            "--g-max", "120", "--allow-out-of-range", "--format", "jsonl"]
    if gamma is not None:
        argv += ["--gamma", str(gamma)]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    rows = [json.loads(ln) for ln in out.splitlines()]
    specs = [ScenarioSpec(n, g, case, gamma) for g in range(3, 121)]
    admissible = [sp for sp in specs if sp.genus_problem() is None]
    assert [r["g"] for r in rows] == [sp.g for sp in admissible]
    for r, sp in zip(rows, admissible):
        assert r["strict"] is c2_bounds_blowup(sp, 0).strict, sp


# -- report -------------------------------------------------------------------


def test_report_criterion_point(capsys):
    code, out, _ = run_cli(["report", "--n", "3", "--g", "5", "--case",
                            "general-odd", "--t", "1", "--c1sq-grid",
                            "14,20,100", "--format", "jsonl"], capsys)
    assert code == 0
    records = [json.loads(ln) for ln in out.strip().splitlines()]
    meta = records[0]
    assert meta["record"] == "meta"
    assert meta["baseline_at_g"] == "11/3"
    assert meta["minimum"] == "59/20"
    assert meta["limit"] == "11/3"
    rows = {r["c1sq"]: r for r in records[1:]}
    assert rows["14"]["slope"] == "59/20"
    assert rows["14"]["verdict"] == "below"


def test_report_table_contains_grid(capsys):
    code, out, _ = run_cli(["report", "--n", "3", "--g", "5", "--case",
                            "general-odd", "--t", "1",
                            "--c1sq-grid", "14,1/2"], capsys)
    assert code == 0
    assert "minimum over grid     = 59/20" in out
    assert "inadmissible" in out


def test_report_default_grid_deterministic(capsys):
    argv = ["report", "--n", "4", "--g", "11", "--case", "general-odd",
            "--t", "2", "--format", "csv"]
    code, out1, _ = run_cli(argv, capsys)
    code2, out2, _ = run_cli(argv, capsys)
    assert code == code2 == 0
    assert out1 == out2
    assert len(out1.strip().splitlines()) == 1 + len(cli.DEFAULT_GRID)


def test_report_empty_admissible_grid(capsys):
    code, _, err = run_cli(["report", "--n", "3", "--g", "5", "--case",
                            "general-odd", "--t", "1", "--c1sq-grid", "1/2"],
                           capsys)
    assert code == 1 and "admissible" in err


# -- scenario files -----------------------------------------------------------


def test_scenario_file_drives_bound(tmp_path, capsys):
    sc = tmp_path / "sc.txt"
    sc.write_text("# fourgonal odd case\ndegree=4\ngenus=11\ncase=general-odd\n"
                  "format=jsonl\n")
    code, out, _ = run_cli(["bound", "--scenario", str(sc)], capsys)
    assert code == 0
    assert json.loads(out)["derived_at_g"] == "80/17"


def test_scenario_file_flag_precedence(tmp_path, capsys):
    sc = tmp_path / "sc.txt"
    sc.write_text("degree=4\ngenus=11\ncase=general-odd\n")
    code, out, _ = run_cli(["bound", "--scenario", str(sc), "--g", "13",
                            "--format", "jsonl"], capsys)
    assert code == 0
    assert json.loads(out)["g"] == 13


def test_scenario_file_genus_range_sweep(tmp_path, capsys):
    sc = tmp_path / "sc.txt"
    sc.write_text("degree=4\ncase=nonfactorizing\ngenus-range=10..14\n")
    code, out, _ = run_cli(["sweep", "--scenario", str(sc), "--format", "csv"],
                           capsys)
    assert code == 0
    rows = out.strip().splitlines()[1:]
    assert [int(r.split(",")[0]) for r in rows] == [10, 11, 12, 13, 14]


@pytest.mark.parametrize("content", ["genus=7\ngenus-range=10..12\n",
                                     "genus-range=10..12\ngenus=7\n"],
                         ids=["genus-first", "range-first"])
def test_scenario_file_genus_range_beats_genus_in_sweep(content, tmp_path, capsys):
    sc = tmp_path / "sc.txt"
    sc.write_text("degree=4\ncase=nonfactorizing\n" + content)
    code, out, _ = run_cli(["sweep", "--scenario", str(sc), "--format", "csv"], capsys)
    assert code == 0
    assert [int(r.split(",")[0]) for r in out.strip().splitlines()[1:]] == [10, 11, 12]


def test_scenario_file_single_genus_sweep(tmp_path, capsys):
    sc = tmp_path / "sc.txt"
    sc.write_text("degree=3\ncase=index-only\ngenus=7\n")
    code, out, _ = run_cli(["sweep", "--scenario", str(sc), "--format", "csv"],
                           capsys)
    assert code == 0
    rows = out.strip().splitlines()[1:]
    assert len(rows) == 1 and rows[0].startswith("7,")


def test_scenario_file_grid_for_report(tmp_path, capsys):
    sc = tmp_path / "sc.txt"
    sc.write_text("degree=3\ngenus=5\ncase=general-odd\nt=1\nc1sq-grid=14,20\n")
    code, out, _ = run_cli(["report", "--scenario", str(sc), "--format", "csv"],
                           capsys)
    assert code == 0
    assert len(out.strip().splitlines()) == 3


@pytest.mark.parametrize("content,fragment", [
    ("bogus=1\n", "unknown key"),
    ("degree=4\ndegree=3\n", "duplicate key"),
    ("degree four\n", "expected key=value"),
    ("degree=4.0\n", "expected an integer"),
    ("format=yaml\n", "format"),
    ("genus-range=10-14\n", "genus-range"),
    ("c1sq-grid=14,,20\n", "empty entry"),
    (b"# caf\xe9\ndegree=3\n", "sc.txt: 'utf-8' codec can't decode byte 0xe9"),
])
def test_scenario_file_rejects_bad_content(tmp_path, capsys, content, fragment):
    sc = tmp_path / "sc.txt"
    sc.write_bytes(content if isinstance(content, bytes) else content.encode())
    argv = ["sweep", "--scenario", str(sc), "--n", "3", "--case", "index-only",
            "--g-min", "5", "--g-max", "6"]
    code, _, err = run_cli(argv, capsys)
    assert code == 1
    assert fragment in err


def test_scenario_file_with_byte_order_mark(tmp_path, capsys):
    """A UTF-8 file saved with a byte-order mark reads as the same file without one."""
    text = "degree=3\ngenus=5\ncase=general-odd\n"
    runs = []
    for name, data in (("plain.ini", text.encode()), ("bom.ini", text.encode("utf-8-sig"))):
        (tmp_path / name).write_bytes(data)
        code, out, err = run_cli(["bound", "--scenario", str(tmp_path / name)], capsys)
        runs.append((code, out))
    assert data.startswith(b"\xef\xbb\xbf")
    assert runs[0] == runs[1] and runs[0][0] == 0, err


def test_scenario_file_missing(capsys):
    code, _, err = run_cli(["bound", "--scenario", "/nonexistent/sc.txt"], capsys)
    assert code == 1


def test_scenario_file_golden_output(capsys):
    code, out, _ = run_cli(["report", "--scenario", str(GOLDEN / "scenario_report.ini")],
                           capsys)
    assert code == 0
    assert out == (GOLDEN / "scenario_report.csv").read_text(encoding="utf-8")


# -- golden outputs -----------------------------------------------------------


@pytest.mark.parametrize("fmt", cli.FORMATS)
@pytest.mark.parametrize("name", GOLDEN_RUNS)
def test_golden_output(name, fmt, capsys):
    """stdout byte for byte against tests/golden/<name>.<fmt>."""
    code, out, _ = run_cli(GOLDEN_RUNS[name] + ["--format", fmt], capsys)
    assert code == 0
    assert out == (GOLDEN / f"{name}.{fmt}").read_text(encoding="utf-8")


# -- the formats agree ----------------------------------------------------------

#: csv cell of a list by its key; csv carries no other list
CSV_JOINS = {"chain": " | ", "notes": "; "}


def _csv_cells(record: dict) -> dict[str, str]:
    """A jsonl record as csv writes it: each value as its cell, without the record tag."""
    cells = {}
    for key, value in record.items():
        if isinstance(value, list):
            if key in CSV_JOINS:
                cells[key] = CSV_JOINS[key].join(value)
        elif isinstance(value, bool):
            cells[key] = str(value).lower()
        elif key != "record":
            cells[key] = "-" if value is None else str(value)
    return cells


def _table_parts(out: str, has_rows: bool):
    """(label, text) pairs, {title: lines} blocks and the row table, from table stdout.

    A row cell is read at its column's offset in the header, so an empty
    cell reads as "".
    """
    meta, _, table = out.rpartition("\n\n") if has_rows else (out, "", "")
    pairs, blocks = [], {}
    for line in meta.splitlines():
        if line.startswith("  "):
            blocks[title].append(line[2:])
        elif line.endswith(":"):
            title = line[:-1]
            blocks[title] = []
        else:
            label, _, text = line.partition(" = ")
            pairs.append((label.rstrip(), text))
    header, *lines = table.splitlines() or [""]
    starts = [m.start() for m in re.finditer(r"\S+", header)]
    spans = list(zip(starts, starts[1:] + [None]))
    rows = [[line[a:b].strip() for a, b in spans] for line in [header, *lines]] if starts else []
    return pairs, blocks, rows


#: jsonl key of each labelled table field of bound and report, by label; {n}
#: and {g} are the run's --n and --g
TABLE_KEYS = {
    "bound": {"scenario": "scenario", "derived bound": "derived",
              "derived at g={g}": "derived_at_g", "stated bound": "stated",
              "stated at g={g}": "stated_at_g", "discrepancy": "discrepancy",
              "discrepancy at g={g}": "discrepancy_at_g", "strict": "strict",
              "c2 coefficient at g": "c2_coefficient", "correction": "correction",
              "reference F_{n}({g})": "reference_at_g"},
    "report": {"scenario": "scenario", "baseline (s=t=0)": "baseline",
               "baseline at g={g}": "baseline_at_g", "minimum over grid": "minimum",
               "limit c1sq -> oo": "limit", "admissible for c1sq >": "admissible_from",
               "strict": "strict"},
}
#: fields whose table text is followed by its decimal, as "value (~ decimal)"
APPROX_KEYS = {"derived_at_g", "stated_at_g", "reference_at_g"}


def _check_table_fields(argv: list[str], pairs, meta: dict) -> None:
    """Each labelled bound and report field of the table is its jsonl key's value."""
    opt = lambda flag: argv[argv.index(flag) + 1]
    keys = {label.format(n=opt("--n"), g=opt("--g")): key
            for label, key in TABLE_KEYS[argv[0]].items()}
    if argv[0] == "bound":  # jsonl carries bound's scenario line as its parts
        meta = dict(meta, scenario=" ".join(f"{k}={meta[k]}" for k in ("n", "g", "case", "gamma")
                                            if meta[k] is not None))
    labelled = [(label, text) for label, text in pairs if label != "note"]
    assert [label for label, _ in labelled] == list(keys)
    for label, text in labelled:
        key = keys[label]
        cell = _csv_cells({key: meta[key]})[key]
        if key in APPROX_KEYS:
            text, _, approx = text.partition(" (~ ")
            assert float(approx.removesuffix(")")) == pytest.approx(float(Fraction(cell)),
                                                                    abs=1e-6)
        assert text == cell, label


def _check_formats_agree(argv: list[str], capsys) -> None:
    """csv and jsonl carry the same facts; the table's rows, fields, chain and notes are theirs."""
    outs = {}
    for fmt in cli.FORMATS:
        code, outs[fmt], err = run_cli(argv + ["--format", fmt], capsys)
        assert code == 0, err
    has_meta, has_rows = argv[0] != "sweep", argv[0] in ("sweep", "report")
    records = [json.loads(line) for line in outs["jsonl"].splitlines()]
    assert all(("record" in rec) == (has_meta and has_rows) for rec in records)
    meta = records[0] if has_meta else {}
    # csv prints the rows, or the meta record where no rows follow it
    assert list(csv.DictReader(io.StringIO(outs["csv"]))) == \
        [_csv_cells(rec) for rec in records if rec.get("record") != "meta"]
    pairs, blocks, rows = _table_parts(outs["table"], has_rows)
    if has_rows:
        assert rows == list(csv.reader(io.StringIO(outs["csv"])))
    assert blocks.get("chain", []) == meta.get("chain", [])
    notes = [text for label, text in pairs if label == "note"] + blocks.get("notes", [])
    assert notes == meta.get("notes", [])
    if argv[0] == "slope":
        assert pairs == [(k, f"{meta[k]} (~ {meta[k + '_approx']})") for k, _ in pairs[:5]] \
            + [("note", note) for note in meta["notes"]]
    elif argv[0] in TABLE_KEYS:
        _check_table_fields(argv, pairs, meta)


@pytest.mark.parametrize("name", GOLDEN_RUNS)
def test_formats_agree(name, capsys):
    _check_formats_agree(GOLDEN_RUNS[name], capsys)


#: (degree, case) of each case family
FAMILIES = [(3, "index-only"), (3, "general-odd"), (3, "general-even"), (4, "index-only"),
            (4, "general-odd"), (4, "general-even"), (4, "nonfactorizing"), (4, "factorizing")]
_rats = st.builds(Fraction, st.integers(-40, 80), st.integers(1, 6))


@st.composite
def admissible_scenarios(draw):
    """(spec, s, t, flags) of an admissible scenario from FAMILIES: the spec at
    s = t = 0, and the flags naming its family with the floor relaxed."""
    n, case = draw(st.sampled_from(FAMILIES))
    gamma = draw(st.integers(1, 3)) if case == "factorizing" else None
    spec = ScenarioSpec(n, draw(st.integers(3, 40)), case.replace("-", "_"), gamma)
    assume(spec.genus_problem() is None)
    family = ["--n", str(n), "--case", case] + (["--gamma", str(gamma)] if gamma else [])
    family.append("--allow-out-of-range")
    s, t = draw(st.integers(0, 2)) if n == 4 else 0, draw(st.integers(0, 2))
    return spec, s, t, family


@st.composite
def admissible_runs(draw):
    """argv of slope, bound, sweep and report at one admissible scenario, floors relaxed."""
    spec, s, t, family = draw(admissible_scenarios())
    n, g = spec.n, spec.g
    c2 = ["--c2"] if n == 3 else ["--c2e", "--c2f"]
    # 1000 keeps chi_f > 0 somewhere on the grid, as a report needs
    grid = ",".join(map(str, draw(st.lists(_rats, max_size=3)) + [1000]))
    return [
        ["slope", "--n", str(n), "--g", str(g), "--allow-out-of-range",
         f"--c1sq={draw(_rats)}", *(f"{flag}={draw(_rats)}" for flag in c2),
         "--s", str(s), "--t", str(t)],
        ["bound", *family, "--g", str(g)],
        ["sweep", *family, "--g-min", str(g), "--g-max", str(g + draw(st.integers(0, 8)))],
        ["report", *family, "--g", str(g), "--s", str(s), "--t", str(t),
         f"--c1sq-grid={grid}"],
    ]


@settings(max_examples=100, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(admissible_runs())
def test_formats_agree_on_drawn_scenarios(capsys, runs):
    assume(run_cli(runs[0], capsys)[0] != cli.EXIT_DEGENERATE)  # chi_f = 0: slope prints nothing
    for argv in runs:
        _check_formats_agree(argv, capsys)


# -- the subcommands agree --------------------------------------------------------


def _jsonl(argv: list[str], capsys) -> list[dict]:
    code, out, err = run_cli(argv + ["--format", "jsonl"], capsys)
    assert code == 0, err
    return [json.loads(line) for line in out.splitlines()]


#: sweep column -> the bound field it repeats at the sweep's genus
SWEEP_AT_G = {"derived": "derived_at_g", "stated": "stated_at_g",
              "discrepancy": "discrepancy_at_g", "reference": "reference_at_g",
              "strict": "strict"}


@settings(max_examples=50, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(admissible_scenarios(), st.lists(_rats, max_size=4))
def test_subcommands_agree_on_drawn_scenarios(capsys, scenario, grid):
    """bound, sweep, report and slope state one value per scenario alike."""
    spec, s, t, family = scenario
    g = spec.g
    bound = _jsonl(["bound", *family, "--g", str(g)], capsys)[0]
    sweep = {row["g"]: row for row in
             _jsonl(["sweep", *family, "--g-min", str(g), "--g-max", str(g + 200)], capsys)}
    assert {col: sweep[g][col] for col in SWEEP_AT_G} == \
        {col: bound[key] for col, key in SWEEP_AT_G.items()}
    for sample in bound["samples"][1:]:  # at g+2, g+20 and g+200
        if sample["g"] in sweep:
            row = sweep[sample["g"]]
            assert (row["derived"], row["stated"]) == (sample["derived"], sample["stated"])
        else:
            assert spec.genus_problem(sample["g"]) is not None

    meta, *rows = _jsonl(["report", *family, "--g", str(g), "--s", str(s), "--t", str(t),
                          f"--c1sq-grid={','.join(map(str, grid + [1000]))}"], capsys)
    assert meta["limit"] == meta["baseline_at_g"]
    for row in rows:
        if row["verdict"] == "inadmissible":
            continue
        c1sq, c2 = Fraction(row["c1sq"]), Fraction(row["c2_bound"])
        chern = [f"--c2={c2}"] if spec.n == 3 else [f"--c2e={(c1sq + c2) / 4}", f"--c2f={c2}"]
        [inv] = _jsonl(["slope", "--n", str(spec.n), "--g", str(g), "--allow-out-of-range",
                        f"--c1sq={c1sq}", *chern, "--s", str(s), "--t", str(t)], capsys)
        assert (inv["kf2"], inv["chif"], inv["slope"]) == (row["kf2"], row["chif"], row["slope"])


# -- no input ends in a traceback --------------------------------------------------


def _subcommands() -> dict[str, list[argparse.Action]]:
    """Subcommand -> its options but --help and --scenario, from build_parser()."""
    parser = cli.build_parser()
    [sub] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return {name: [a for a in sp._actions if a.option_strings and a.dest not in ("help", "scenario")]
            for name, sp in sub.choices.items()}


SUBCOMMANDS = _subcommands()
#: option dest -> its action, in any subcommand
ACTIONS = {action.dest: action for options in SUBCOMMANDS.values() for action in options}
_FLOORS = sorted({f + d for f in grr.GENUS_FLOOR.values() for d in (-1, 0, 1)})
#: malformed and boundary values, and grids of at most 64 points
_ODD_VALUES = st.one_of(
    st.sampled_from([str(v) for v in (0, -1, 10**18, -10**18, *_FLOORS)]),
    st.builds("{}/{}".format, st.integers(-40, 80), st.integers(0, 6)),
    st.sampled_from(["", " ", "abc", "1.5", "1e3", "-", "1..2", "x" * 81, "9" * 100,
                     "1/" + "7" * 90, "general-odd", "jsonl"]),
    st.lists(st.sampled_from(["1", "7/3", "-1/2", "0", str(10**18), "", "2/0"]),
             min_size=1, max_size=64).map(",".join),
    st.text(max_size=90),
)
#: arguments no subcommand takes, or an option left without its value
_JUNK = ["--bogus", "extra", "--n", "--format"]


def _valid(action: argparse.Action) -> st.SearchStrategy[str]:
    """Values the option accepts: its choices, small ints, rationals or a short grid."""
    if action.choices:
        return st.sampled_from(action.choices)
    if action.type is int:
        return st.sampled_from(["3", "4"]) | st.integers(0, 60).map(str)
    if action.metavar == "RAT":
        return _rats.map(str)
    return st.lists(_rats.map(str), min_size=1, max_size=4).map(",".join)


def _value(draw, action: argparse.Action) -> str:
    """A value the option accepts, or a malformed or boundary one."""
    return draw(_valid(action) | _ODD_VALUES)


def _span(draw, lo: int) -> int:
    """The end of a sweep from lo: at most 200 genera on, or one past MAX_SWEEP_GENERA."""
    return lo + draw(st.integers(0, 200) | st.just(cli.MAX_SWEEP_GENERA))


def _groups(argv: list[str]) -> list[list[str]]:
    """An option list as one group per option: `--x=v`, `--x v` or a bare `--x`."""
    groups = []
    for arg in argv:
        if arg.startswith("--") or not groups:
            groups.append([arg])
        else:
            groups[-1].append(arg)
    return groups


@st.composite
def _mutated_runs(draw) -> list[str]:
    """A valid slope, bound, sweep or report run, with an option dropped now and then,
    up to two of the subcommand's options given again after it (the last one wins),
    a sweep's end moved half the time, and now and then an argument it does not take."""
    command, *args = draw(st.sampled_from(draw(admissible_runs())))
    argv = [command, *(arg for group in _groups(args) if draw(st.integers(0, 15))
                       for arg in group)]
    for _ in range(draw(st.integers(0, 2))):
        action = draw(st.sampled_from(SUBCOMMANDS[command]))
        flag = action.option_strings[0]
        if action.nargs == 0:
            argv.append(flag)
            continue
        value = _value(draw, action)
        argv += [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]
    if command == "sweep" and draw(st.booleans()):
        argv += ["--g-max", str(_span(draw, int(args[args.index("--g-min") + 1])))]
    return argv + ([] if draw(st.integers(0, 7)) else [draw(st.sampled_from(_JUNK))])


#: option dest -> the scenario-file key that sets it: the key that fills it alone,
#: or for g `genus`, which fills a sweep's bounds too
_KEY_OF = {dests[0]: key for key, (dests, _) in cli._FILE_KEYS.items() if len(dests) == 1} \
    | {"g": "genus"}


def _file_line(draw, key: str) -> str:
    """key=value: a value the key's first option accepts, or a malformed or boundary
    one; a genus range mostly spans what _span draws."""
    if key == "genus-range" and draw(st.integers(0, 3)):
        lo = draw(st.integers(0, 60))
        return f"{key}={lo}..{_span(draw, lo)}"
    return f"{key}={_value(draw, ACTIONS[cli._FILE_KEYS[key][0][0]])}"


@st.composite
def _scenario_runs(draw) -> tuple[list[str], list[str]]:
    """(argv, scenario-file lines): a valid run with some options moved to the keys
    of _FILE_KEYS that fill them, then up to two lines of any key redrawn or added,
    and a malformed line now and then."""
    command, *args = draw(st.sampled_from(draw(admissible_runs())))
    groups, lines = _groups(args), []
    if command == "sweep" and draw(st.booleans()):
        bounds = {group[0]: group[1] for group in groups if group[0] in ("--g-min", "--g-max")}
        groups = [group for group in groups if group[0] not in bounds]
        lines.append(f"genus-range={bounds['--g-min']}..{bounds['--g-max']}")
    argv = [command]
    for group in groups:
        flag, _, value = group[0].partition("=")
        dest = flag[2:].replace("-", "_")
        if dest in _KEY_OF and draw(st.booleans()):
            lines.append(f"{_KEY_OF[dest]}={group[-1] if len(group) > 1 else value}")
        else:
            argv += group
    for _ in range(draw(st.integers(0, 2))):
        key = draw(st.sampled_from(list(cli._FILE_KEYS)))
        if draw(st.booleans()):  # redrawn; else a second line of the key, refused
            lines = [line for line in lines if not line.startswith(f"{key}=")]
        lines.append(_file_line(draw, key))
    if not draw(st.integers(0, 7)):
        lines.append(draw(st.sampled_from(["", "# note", "genus", "unknown=1", "=", " = 3"])))
    return argv, draw(st.permutations(lines))


def _check_no_traceback(argv: list[str], capsys) -> None:
    code, out, err = run_cli(argv, capsys)
    assert code in (cli.EXIT_OK, cli.EXIT_INPUT, cli.EXIT_DEGENERATE), (argv, err)
    assert "Traceback" not in out + err
    if code:
        lines = err.splitlines()
        assert "error: " in lines[-1] and sum("error:" in line for line in lines) == 1, (argv, err)


@settings(max_examples=300, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_mutated_runs())
# the extremes, whatever the draws reach: a span one past the widest, a genus, a
# blow-up count and 64 grid points of 10^18, and values of 90 and 100 characters
@example(["sweep", "--n", "3", "--case", "general-odd", "--g-min", "5",
          "--g-max", str(5 + cli.MAX_SWEEP_GENERA)])
@example(["bound", "--n", "4", "--case", "factorizing", "--gamma", "3", "--g", str(10**18)])
@example(["report", "--n", "4", "--g", "12", "--case", "general-even", "--s", str(10**18),
          "--t", "1", "--c1sq-grid=" + ",".join([str(10**18)] + [f"{k}/7" for k in range(63)])])
@example(["slope", "--n", "3", "--g", "9" * 100, "--c1sq", "1/" + "7" * 90, "--c2", "3"])
@example(["slope", "--n", "3", "--g", "5", "--c1sq", "14", "--c2", "x" * 100])
def test_no_drawn_argv_ends_in_a_traceback(capsys, argv):
    """Valid, malformed and boundary values of every subcommand's options exit 0, 1
    or 3; an error is the last line of stderr, and the only one."""
    _check_no_traceback(argv, capsys)


@pytest.mark.parametrize("junk", _JUNK)
def test_verify_with_an_argument_is_a_usage_error(junk, capsys):
    """verify takes no options; run without any it is the whole suite (golden test)."""
    _check_no_traceback(["verify", junk], capsys)


@settings(max_examples=200, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_scenario_runs())
def test_no_drawn_scenario_file_ends_in_a_traceback(tmp_path, capsys, run):
    """A scenario file fills the options a run leaves out; whatever it holds, the run
    ends as a drawn argv does."""
    argv, lines = run
    path = tmp_path / "scenario.txt"
    path.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")
    _check_no_traceback([argv[0], "--scenario", str(path), *argv[1:]], capsys)


@pytest.mark.xfail(strict=True, reason="report csv prints its rows without the meta "
                                       "record; ROADMAP item 1 adds it")
def test_report_csv_carries_the_meta_record(capsys):
    argv = GOLDEN_RUNS["report_n3_general_even_4_t1_oor"]
    _, jsonl, _ = run_cli(argv + ["--format", "jsonl"], capsys)
    _, out, _ = run_cli(argv + ["--format", "csv"], capsys)
    meta = _csv_cells(json.loads(jsonl.splitlines()[0]))
    assert any(meta.items() <= rec.items() for rec in csv.DictReader(io.StringIO(out)))


@pytest.mark.parametrize("command", ["", "slope", "bound", "sweep", "report", "verify"],
                         ids=lambda command: command or "gonal-slope")
def test_help_golden_output(command, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
    code, out, _ = run_cli([command, "--help"] if command else ["--help"], capsys)
    assert code == 0
    assert out == (GOLDEN / f"help_{command or 'gonal-slope'}.txt").read_text(encoding="utf-8")


def test_verify_golden_output(capsys):
    """The check names and the summary line, byte for byte."""
    code, out, _ = run_cli(["verify"], capsys)
    assert code == 0
    assert out == (GOLDEN / "verify.txt").read_text(encoding="utf-8")


def _readme_examples():
    """(argv, lines shown) for each `$ gonal-slope` line in the README's console blocks."""
    examples = []
    for block in re.findall(r"^```console\n(.*?)^```$", README.read_text(encoding="utf-8"),
                            flags=re.M | re.S):
        for chunk in re.split(r"^\$ gonal-slope ", block, flags=re.M)[1:]:
            command, *shown = chunk.splitlines()
            examples.append((shlex.split(command), shown))
    return examples


def _fits(shown, lines):
    """Whether lines read as shown, where a '...' line stands for any number of lines."""
    if not shown:
        return not lines
    if shown[0] == "...":
        return any(_fits(shown[1:], lines[i:]) for i in range(len(lines) + 1))
    return bool(lines) and lines[0] == shown[0] and _fits(shown[1:], lines[1:])


README_EXAMPLES = _readme_examples()


@pytest.mark.parametrize("argv,shown", README_EXAMPLES,
                         ids=[" ".join(argv) for argv, _ in README_EXAMPLES])
def test_readme_console_examples(argv, shown, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 0, err
    assert _fits(shown, out.splitlines()), out


def test_readme_shows_every_subcommand():
    assert {argv[0] for argv, _ in README_EXAMPLES} == set(cli._COMMANDS)


def test_negative_fraction_value_needs_equals_form(capsys):
    argv = GOLDEN_RUNS["report_n4_general_even_12_s1_t1_grid"][:-1]
    code, out, err = run_cli(argv + ["--c1sq-grid", "-1/2,14"], capsys)
    assert (code, out) == (1, "")
    assert err.endswith("error: argument --c1sq-grid: expected one argument\n")


# -- cross-command plumbing ----------------------------------------------------


def test_byte_identical_reruns(capsys):
    argv = ["bound", "--n", "4", "--g", "11", "--case", "general-odd"]
    _, out1, _ = run_cli(argv, capsys)
    _, out2, _ = run_cli(argv, capsys)
    assert out1 == out2


def test_parser_reuse_keeps_no_state(tmp_path, capsys, monkeypatch, child_env):
    """A sequence of main calls in one process on one parser, each as if run alone."""
    parser = cli._parser()
    assert cli.build_parser() is not cli.build_parser() is not parser
    sc = tmp_path / "sc.txt"
    sc.write_text("degree=4\ngenus=11\ncase=general-odd\nformat=jsonl\n")
    slope = SLOPE_EXAMPLE
    bound = ["bound", "--n", "4", "--g", "11", "--case", "general-odd"]
    sweep = ["sweep", "--n", "3", "--case", "general-even", "--g-min", "5", "--g-max", "12"]
    report = ["report", "--n", "3", "--g", "5", "--case", "general-odd", "--t", "1"]
    calls = [  # (argv, COLUMNS)
        *((cmd + ["--format", fmt], "80") for cmd in (slope, bound, sweep, report)
          for fmt in cli.FORMATS),
        (["verify"], "80"),
        (["bound", "--scenario", str(sc)], "80"),
        (["bound", "--scenario", str(sc), "--g", "13", "--format", "csv"], "80"),
        (["sweep", "--n", "3", "--case", "general-even", "--g-min", "x"], "80"),
        (sweep, "80"),
        (["report", "--help"], "60"),
        (["report", "--help"], "120"),
        (slope, "80"),
    ]
    in_process = []
    for argv, columns in calls:
        monkeypatch.setenv("COLUMNS", columns)
        in_process.append(run_cli(argv, capsys))
    for (argv, columns), result in zip(calls, in_process):
        alone = subprocess.run([sys.executable, "-m", "gonalslope", *argv],
                               capture_output=True, text=True,
                               env=dict(child_env, COLUMNS=columns))
        assert result == (alone.returncode, alone.stdout, alone.stderr), argv
    codes = [code for code, _, _ in in_process]
    assert codes.count(1) == 1 and codes.count(0) == len(calls) - 1
    assert in_process[-3] != in_process[-2]  # help wraps to each call's own width
    assert cli._parser() is parser


def test_verify_exit_codes_via_stub(capsys, monkeypatch):
    monkeypatch.setattr(verify, "run", lambda out=print: [])
    code, out, _ = run_cli(["verify"], capsys)
    assert code == 0 and "checks passed" in out
    monkeypatch.setattr(verify, "run",
                        lambda out=print: ["stub identity"])
    code, _, err = run_cli(["verify"], capsys)
    assert code == 2
    assert "stub identity" in err


def test_verify_run_reports_a_raising_check(monkeypatch):
    def broken():
        raise AssertionError("identity refuted")

    monkeypatch.setattr(verify, "CHECKS",
                        [("stub ok", lambda: None), ("stub identity", broken)])
    lines = []
    assert verify.run(out=lines.append) == ["stub identity"]
    assert lines == ["ok   stub ok", "FAIL stub identity: AssertionError: identity refuted"]


@pytest.mark.parametrize("flags, optimize", [(["-O"], {}), ([], {"PYTHONOPTIMIZE": "1"})],
                         ids=["-O", "PYTHONOPTIMIZE"])
def test_verify_refuses_to_run_without_asserts(flags, optimize, child_env):
    """python -O strips the suite's asserts, so a pass there would prove nothing."""
    proc = subprocess.run([sys.executable, *flags, "-m", "gonalslope", "verify"],
                          env={**child_env, **optimize}, capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == ("verification failed: python -O (or PYTHONOPTIMIZE) "
                           "strips the checks' asserts; run without it\n")


def test_internal_check_failure_exits_4(capsys, monkeypatch):
    def broken(spec, **kwargs):
        raise AssertionError("c1^2 failed to cancel: constant terms (1,)")

    monkeypatch.setattr(cli, "derived_slope_bound", broken)
    code, out, err = run_cli(GOLDEN_RUNS["sweep_n4_general_even_10_60"], capsys)
    assert (code, out) == (4, "")
    assert err == "error: internal check failed: c1^2 failed to cancel: constant terms (1,)\n"


@pytest.mark.parametrize("n", ["3", "4"])
def test_cancellation_certificate_exits_4(n, capsys, kf2_constant_term):
    code, out, err = run_cli(["bound", "--n", n, "--g", "11", "--case", "general-odd"],
                             capsys)
    assert (code, out) == (4, "")
    assert err.startswith("error: internal check failed: c1^2 failed to cancel for ")


def test_version_is_written_once(capsys):
    """--version prints the package version, which pyproject.toml reads, not repeats."""
    code, out, _ = run_cli(["--version"], capsys)
    assert (code, out) == (0, f"gonal-slope {gonalslope.__version__}\n")
    assert out == "gonal-slope 0.1.0\n"
    toml = pytest.importorskip("tomllib" if sys.version_info >= (3, 11) else "tomli")
    with PYPROJECT.open("rb") as fh:
        config = toml.load(fh)
    assert "version" not in config["project"]
    assert config["project"]["dynamic"] == ["version"]
    assert config["tool"]["setuptools"]["dynamic"]["version"] == {
        "attr": "gonalslope.__version__"}


def test_ci_runs_readmes_tier1_command_from_the_python_floor():
    """CI's lowest matrix Python is pyproject's requires-python floor, and its
    pytest step runs README's tier-1 command, -q --continue-on-collection-errors,
    and adds only --durations=10, which lists the slowest tests in the log."""
    workflow = WORKFLOW.read_text(encoding="utf-8")
    [floor] = re.findall(r'^requires-python = ">=([\d.]+)"$',
                         PYPROJECT.read_text(encoding="utf-8"), re.M)
    [matrix] = re.findall(r"^ +python-version: \[(.*)\]$", workflow, re.M)
    versions = [tuple(map(int, v.strip(' "').split("."))) for v in matrix.split(",")]
    assert ".".join(map(str, min(versions))) == floor == "3.10"
    [ci] = re.findall(r"^ +run: .*python -m pytest(.*)$", workflow, re.M)
    readme = re.findall(r"^PYTHONPATH=src python -m pytest(.*)$",
                        README.read_text(encoding="utf-8"), re.M)
    assert ci == readme[0] + " --durations=10"
    assert readme[0] == " -q --continue-on-collection-errors"


def test_closed_stdout_exits_0_quietly(child_env):
    # 123,820 bytes of rows, more than a pipe buffer holds: the writes outlive the reader
    argv = ["sweep", "--n", "4", "--case", "general-odd", "--g-min", "11", "--g-max", "4001"]
    proc = subprocess.Popen([sys.executable, "-m", "gonalslope", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            env=child_env)
    head = [proc.stdout.readline() for _ in range(2)]
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 0
    assert err == ""
    assert head[0].split()[:2] == ["g", "derived"] and head[1].split()[0] == "11"


def test_missing_subcommand_exits_1(capsys):
    code, _, err = run_cli([], capsys)
    assert code == 1 and "usage:" in err


def test_module_entrypoint_subprocess(child_env):
    proc = subprocess.run([sys.executable, "-m", "gonalslope", *SLOPE_EXAMPLE],
                          capture_output=True, text=True, env=child_env)
    assert proc.returncode == 0
    assert "48/13" in proc.stdout


def test_console_script_installed(tmp_path, child_env):
    """pyproject.toml declares a `gonal-slope` script that runs cli.main.

    The script is written here the way an installer writes a console_scripts
    wrapper, so the check needs no install.
    """
    toml = pytest.importorskip("tomllib" if sys.version_info >= (3, 11) else "tomli")
    with PYPROJECT.open("rb") as fh:
        scripts = toml.load(fh)["project"]["scripts"]
    assert scripts == {"gonal-slope": "gonalslope.cli:main"}
    entry = importlib.metadata.EntryPoint(name="gonal-slope",
                                          value=scripts["gonal-slope"],
                                          group="console_scripts")
    assert entry.load() is cli.main

    wrapper = tmp_path / entry.name
    wrapper.write_text(f"#!{sys.executable}\nimport sys\n"
                       f"from {entry.module} import {entry.attr}\n"
                       f"sys.exit({entry.attr}())\n")
    wrapper.chmod(0o755)
    script = shutil.which("gonal-slope", path=str(tmp_path))
    assert script is not None

    proc = subprocess.run([script, *SLOPE_EXAMPLE],
                          capture_output=True, text=True, env=child_env)
    assert proc.returncode == 0, proc.stderr
    assert "48/13" in proc.stdout
    proc = subprocess.run([script, "slope"],
                          capture_output=True, text=True, env=child_env)
    assert proc.returncode == 1
    assert proc.stderr.startswith("usage: gonal-slope")


def test_test_extra_lists_what_the_tests_import():
    """`pip install .[test]` brings every third-party module a test module imports."""
    toml = pytest.importorskip("tomllib" if sys.version_info >= (3, 11) else "tomli")
    with PYPROJECT.open("rb") as fh:
        extra = toml.load(fh)["project"]["optional-dependencies"]["test"]
    declared = {re.match(r"[\w.-]+", req).group() for req in extra}
    imported = set()
    for path in Path(__file__).resolve().parent.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"gonalslope"}
    assert third_party <= declared, sorted(third_party - declared)


def _installed_distribution():
    try:
        return importlib.metadata.distribution("gonalslope")
    except importlib.metadata.PackageNotFoundError:
        return None


@pytest.mark.skipif(_installed_distribution() is None,
                    reason="no installed gonalslope distribution "
                           "(importlib.metadata.PackageNotFoundError); only an "
                           "install puts gonal-slope on PATH")
def test_console_script_on_path():
    scripts = _installed_distribution().entry_points.select(group="console_scripts")
    assert scripts["gonal-slope"].value == "gonalslope.cli:main"
    script = shutil.which("gonal-slope")
    assert script is not None
    proc = subprocess.run([script, *SLOPE_EXAMPLE], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "48/13" in proc.stdout


@pytest.mark.parametrize("argv", [
    ["bound", "--n", "4", "--g", "13", "--case", "nonfactorizing"],
    ["report", "--n", "4", "--g", "13", "--case", "nonfactorizing", "--t", "1"],
    ["sweep", "--n", "3", "--case", "general-odd", "--g-min", "5", "--g-max", "15"],
], ids=lambda argv: argv[0])
def test_one_validation_per_call(argv, capsys, monkeypatch):
    calls = []
    validate = ScenarioSpec.validate
    monkeypatch.setattr(ScenarioSpec, "validate",
                        lambda spec, *args, **kw: calls.append(spec) or validate(spec, *args, **kw))
    code, _, err = run_cli(argv, capsys)
    assert (code, err, len(calls)) == (0, "", 1)


def test_report_runs_one_c2_chain_and_no_derivation(capsys, monkeypatch):
    calls = []
    chain = bounds._c2_chain
    monkeypatch.setattr(bounds, "_c2_chain",
                        lambda spec: calls.append("chain") or chain(spec))
    for module in (bounds, cli):
        monkeypatch.setattr(module, "derived_slope_bound",
                            lambda *args, **kw: calls.append("derive"))
    code, out, err = run_cli(["report", "--n", "4", "--g", "13", "--case", "nonfactorizing",
                              "--s", "2", "--t", "1", "--c1sq-grid=-3,14,1000"], capsys)
    assert (code, err, calls) == (0, "", ["chain"])
    assert "baseline" in out

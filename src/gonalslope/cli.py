"""Command line surface: slope evaluation, bound derivation, sweeps, reports.

Commands: slope, bound, sweep, verify, report.  Everything printed is an
exact rational (or a rational function of g); decimal columns are labelled
approximations.  Identical invocations produce byte-identical output, with
rows in sorted order.

Exit codes: 0 success, 1 input error, 2 verification failure, 3 degenerate
denominator (chi_f = 0).
"""
from __future__ import annotations

import argparse
import csv
import json
import re
import sys
from dataclasses import replace
from decimal import Decimal, localcontext
from fractions import Fraction

from . import verify as verify_suite
from .bounds import (CASES, ScenarioError, ScenarioSpec, blowup_bound_report,
                     compare, derived_slope_bound)
from .grr import GENUS_FLOOR
from .ratcalc import parse_rat
from .slope import (ZeroChiError, check_genus, harris_stankova_reference,
                    moduli_conversion, slope_fourgonal_blowup, slope_trigonal_blowup)

EXIT_OK, EXIT_INPUT, EXIT_VERIFY, EXIT_DEGENERATE = 0, 1, 2, 3

FORMATS = ("table", "csv", "jsonl")
CLI_CASES = tuple(c.replace("_", "-") for c in CASES)

#: grid used by `report` when none is given; wide enough to cross the
#: admissibility edge of every supported scenario
DEFAULT_GRID = tuple(Fraction(x) for x in (1, 2, 4, 14, 100, 1000))


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; 2 is reserved for verification here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


# -- value parsing and formatting -------------------------------------------


def _norm_case(text: str) -> str:
    return text.strip().replace("-", "_")


def _parse_int(key: str, value: str) -> int:
    try:
        return int(value.strip(), 10)
    except ValueError:
        raise ScenarioError(f"{key}: expected an integer, got {value!r}") from None


def _parse_grid(value: str) -> tuple[Fraction, ...]:
    toks = [tok.strip() for tok in value.split(",")]
    if not toks or any(not tok for tok in toks):
        raise ScenarioError(f"c1sq-grid: empty entry in {value!r}")
    return tuple(parse_rat(tok) for tok in toks)


def _parse_format(value: str) -> str:
    value = value.strip()
    if value not in FORMATS:
        raise ScenarioError(f"format: expected one of {FORMATS}, got {value!r}")
    return value


def _parse_range(value: str) -> tuple[int, int]:
    m = re.fullmatch(r"\s*(\d+)\s*\.\.\s*(\d+)\s*", value)
    if not m:
        raise ScenarioError(f"genus-range: expected 'lo..hi', got {value!r}")
    return int(m.group(1)), int(m.group(2))


def _fmt(x) -> str:
    """Cell text: exact fractions as p/q, functions via RatFunc, None as '-'."""
    if x is None:
        return "-"
    if isinstance(x, bool):
        return "true" if x else "false"
    return str(x)


def _approx(x) -> str:
    try:
        return f"{float(x):.6f}"
    except OverflowError:  # beyond float range: 7 significant digits, exactly
        with localcontext() as ctx:
            ctx.prec = 7
            return f"{Decimal(x.numerator) / Decimal(x.denominator):.6e}"


# -- scenario files ----------------------------------------------------------

#: scenario-file key -> (the options it fills, parser of its value); a key
#: that fills several options parses to one value per option
_FILE_KEYS = {
    "degree": (("n",), lambda v: _parse_int("degree", v)),
    "genus": (("g", "g_min", "g_max"), lambda v: (_parse_int("genus", v),) * 3),
    "genus-range": (("g_min", "g_max"), _parse_range),
    "case": (("case",), _norm_case),
    "gamma": (("gamma",), lambda v: _parse_int("gamma", v)),
    "s": (("s",), lambda v: _parse_int("s", v)),
    "t": (("t",), lambda v: _parse_int("t", v)),
    "c1sq-grid": (("c1sq_grid",), _parse_grid),
    "format": (("format",), _parse_format),
}


def load_scenario_file(path: str) -> dict[str, tuple]:
    """Read key=value lines into parsed values, one per option the key fills.

    '#' comments and blank lines are skipped.  Every value must parse, even
    where the subcommand has no use for its key.
    """
    data: dict[str, tuple] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, eq, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if not eq:
                raise ScenarioError(f"{path}:{lineno}: expected key=value, got {line!r}")
            if key not in _FILE_KEYS:
                raise ScenarioError(f"{path}:{lineno}: unknown key {key!r} "
                                    f"(known: {' '.join(_FILE_KEYS)})")
            if key in data:
                raise ScenarioError(f"{path}:{lineno}: duplicate key {key!r}")
            dests, parse = _FILE_KEYS[key]
            try:
                parsed = parse(value)
            except (ScenarioError, ValueError) as exc:
                raise ScenarioError(f"{path}:{lineno}: {exc}") from None
            data[key] = parsed if len(dests) > 1 else (parsed,)
    return data


def _merge_scenario(args: argparse.Namespace, data: dict[str, tuple]) -> None:
    """Fill unset options from the file; explicit flags always win.

    Options a subcommand lacks are left alone, so one file can drive slope,
    bound and report runs alike.  Where two keys fill one option, the later
    key in _FILE_KEYS wins: genus-range over genus for a sweep's bounds.
    """
    unset = {dest for dest, value in vars(args).items() if value is None}
    for key, (dests, _) in _FILE_KEYS.items():
        for dest, value in zip(dests, data.get(key, ())):
            if dest in unset:
                setattr(args, dest, value)


def _require(args: argparse.Namespace, attr: str, what: str):
    val = getattr(args, attr)
    if val is None:
        args._sp.error(f"missing {what}")
    return val


def _genus_note(n: int, g: int, allow: bool) -> str | None:
    """The genus gate: None from the degree's floor up.

    Below the floor it refuses, or under --allow-out-of-range returns the note
    to print, once check_genus has refused a genus below 1.
    """
    floor = GENUS_FLOOR[n]
    if g >= floor:
        return None
    if not allow:
        raise ScenarioError(f"genus {g} below floor {floor} for degree {n}; "
                            "pass --allow-out-of-range to compute anyway")
    check_genus(g)
    return f"out-of-range: genus {g} below floor {floor}"


# -- output writers ----------------------------------------------------------


def _print_kv(pairs: list[tuple[str, str]]) -> None:
    width = max(len(k) for k, _ in pairs)
    for key, value in pairs:
        print(f"{key.ljust(width)} = {value}")


def _print_block(title: str, lines) -> None:
    print(f"{title}:")
    for line in lines:
        print(f"  {line}")


def _print_table(columns: list[str], rows: list[list[str]]) -> None:
    widths = [max(len(col), max((len(r[i]) for r in rows), default=0))
              for i, col in enumerate(columns)]
    print("  ".join(col.ljust(w) for col, w in zip(columns, widths)).rstrip())
    for row in rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())


def _print_csv(columns: list[str], rows: list[list[str]]) -> None:
    out = csv.writer(sys.stdout, lineterminator="\n")
    out.writerow(columns)
    out.writerows(rows)


def _print_jsonl(records) -> None:
    for rec in records:
        print(json.dumps(rec, sort_keys=True, default=str))


def _emit_rows(fmt: str, columns: list[str], rows: list[list], **fixed) -> None:
    """One line per row; a jsonl record also carries the fixed fields."""
    if fmt == "csv":
        _print_csv(columns, [[_fmt(c) for c in row] for row in rows])
    elif fmt == "jsonl":
        _print_jsonl({**fixed, **dict(zip(columns, row))} for row in rows)
    else:
        _print_table(columns, [[_fmt(c) for c in row] for row in rows])


# -- subcommands -------------------------------------------------------------


def cmd_slope(args: argparse.Namespace) -> int:
    n = _require(args, "n", "--n (or degree= in the scenario file)")
    g = _require(args, "g", "--g (or genus=)")
    if n not in (3, 4):
        raise ScenarioError(f"degree must be 3 or 4, got {n}")
    s, t = args.s or 0, args.t or 0
    if s < 0 or t < 0:
        raise ScenarioError("blow-up counts must be nonnegative")
    c1sq = _require(args, "c1sq", "--c1sq")
    notes = []
    note = _genus_note(n, g, args.allow_out_of_range)
    if note:
        notes.append(note)
    if n == 3:
        if args.c2e is not None or args.c2f is not None:
            args._sp.error("--c2e/--c2f apply to --n 4; degree 3 takes --c2")
        if s:
            args._sp.error("--s applies to --n 4 only")
        c2 = _require(args, "c2", "--c2")
        inv = slope_trigonal_blowup(g, c1sq, c2, t)
    else:
        if args.c2 is not None:
            args._sp.error("--c2 applies to --n 3; degree 4 takes --c2e and --c2f")
        c2e = _require(args, "c2e", "--c2e")
        c2f = _require(args, "c2f", "--c2f")
        inv = slope_fourgonal_blowup(g, c1sq, c2e, c2f, s, t)
    md = moduli_conversion(inv)
    warn = inv.warning()
    if warn:
        notes.append(warn)
    fields = [("kf2", inv.kf2), ("chif", inv.chif), ("slope", inv.slope),
              ("s_B", md.s_b), ("delta_B", md.delta_b)]

    fmt = args.format or "table"
    if fmt == "table":
        pairs = [(k, f"{_fmt(v)} (~ {_approx(v)})") for k, v in fields]
        pairs += [("note", line) for line in notes]
        _print_kv(pairs)
    else:
        columns = [k for k, _ in fields] + [f"{k}_approx" for k, _ in fields] + ["notes"]
        values = [v for _, v in fields] + [_approx(v) for _, v in fields]
        if fmt == "csv":
            _print_csv(columns, [[_fmt(v) for v in values] + ["; ".join(notes)]])
        else:
            _print_jsonl([dict(zip(columns, values + [notes]))])
    return EXIT_OK


def _scenario_from_args(args: argparse.Namespace) -> ScenarioSpec:
    n = _require(args, "n", "--n (or degree= in the scenario file)")
    g = _require(args, "g", "--g (or genus=)")
    case = _require(args, "case", "--case (or case=)")
    spec = ScenarioSpec(n, g, _norm_case(case), args.gamma,
                        getattr(args, "s", None) or 0, getattr(args, "t", None) or 0)
    spec.validate_form()
    return spec


def cmd_bound(args: argparse.Namespace) -> int:
    spec = _scenario_from_args(args)
    notes = []
    oor = _genus_note(spec.n, spec.g, args.allow_out_of_range)
    res = compare(spec, allow_out_of_range=args.allow_out_of_range)
    if oor:
        notes.append(oor)
    notes.extend(res.notes)
    g = spec.g
    dvg, svg = res.derived_bound(g), res.stated_bound(g)
    disc_g = res.discrepancy(g)
    ref = harris_stankova_reference(spec.n, g)
    scalars = [
        ("n", spec.n), ("g", g), ("case", spec.case), ("gamma", spec.gamma),
        ("derived", res.derived_bound), ("derived_at_g", dvg),
        ("stated", res.stated_bound), ("stated_at_g", svg),
        ("discrepancy", res.discrepancy), ("discrepancy_at_g", disc_g),
        ("strict", res.strict), ("c2_coefficient", res.c2_coefficient),
        ("correction", res.correction), ("reference_at_g", ref),
    ]
    fmt = args.format or "table"
    if fmt == "table":
        head = f"n={spec.n} g={g} case={spec.case}"
        if spec.gamma is not None:
            head += f" gamma={spec.gamma}"
        pairs = [("scenario", head),
                 ("derived bound", _fmt(res.derived_bound)),
                 (f"derived at g={g}", f"{_fmt(dvg)} (~ {_approx(dvg)})"),
                 ("stated bound", _fmt(res.stated_bound)),
                 (f"stated at g={g}", f"{_fmt(svg)} (~ {_approx(svg)})"),
                 ("discrepancy", _fmt(res.discrepancy)),
                 (f"discrepancy at g={g}", _fmt(disc_g)),
                 ("strict", _fmt(res.strict)),
                 ("c2 coefficient at g", _fmt(res.c2_coefficient)),
                 ("correction", _fmt(res.correction)),
                 (f"reference F_{spec.n}({g})", f"{_fmt(ref)} (~ {_approx(ref)})")]
        _print_kv(pairs)
        _print_block("chain", res.chain)
        if notes:
            _print_block("notes", notes)
        _print_block("samples (g derived stated)",
                     (f"{gv}  {_fmt(dv)}  {_fmt(sv)}" for gv, dv, sv in res.samples))
    elif fmt == "csv":
        columns = [k for k, _ in scalars] + ["chain", "notes"]
        row = [_fmt(v) for _, v in scalars] + [" | ".join(res.chain), "; ".join(notes)]
        _print_csv(columns, [row])
    else:
        samples = [{"g": gv, "derived": _fmt(dv), "stated": _fmt(sv)}
                   for gv, dv, sv in res.samples]
        _print_jsonl([dict(scalars, chain=res.chain, notes=notes, samples=samples)])
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    n = _require(args, "n", "--n (or degree=)")
    case = _norm_case(_require(args, "case", "--case (or case=)"))
    g_min = _require(args, "g_min", "--g-min (or genus-range=)")
    g_max = _require(args, "g_max", "--g-max (or genus-range=)")
    if g_min > g_max:
        raise ScenarioError(f"empty sweep range: {g_min}..{g_max}")
    spec = ScenarioSpec(n, g_min, case, args.gamma, args.s or 0, args.t or 0)
    spec.validate_form()
    floor = GENUS_FLOOR[n]
    if g_min < floor and not args.allow_out_of_range:
        raise ScenarioError(f"sweep range starts below the genus floor {floor} "
                            f"for degree {n}; pass --allow-out-of-range")
    specs = [replace(spec, g=g) for g in range(g_min, g_max + 1)]
    specs = [sp for sp in specs if sp.genus_problem(enforce_floor=False) is None]
    if not specs:
        raise ScenarioError(f"empty sweep range: no admissible g in {g_min}..{g_max}")
    check_genus(specs[0].g)  # rows ascend, so this is the least genus

    # the bound is one function of g per case: derive it once, evaluate per row;
    # so is strictness, as beta - alpha is 0, 1 or g - 4*gamma - 1 > 0 here
    res = derived_slope_bound(specs[0], allow_out_of_range=True)
    rows = [[sp.g, res.derived_bound(sp.g), res.stated_bound(sp.g), res.discrepancy(sp.g),
             harris_stankova_reference(n, sp.g), res.strict,
             "" if sp.g >= floor else "out-of-range"] for sp in specs]

    columns = ["g", "derived", "stated", "discrepancy", "reference", "strict", "tag"]
    _emit_rows(args.format or "table", columns, rows)
    return EXIT_OK


def cmd_report(args: argparse.Namespace) -> int:
    spec = _scenario_from_args(args)
    oor = _genus_note(spec.n, spec.g, args.allow_out_of_range)
    grid = args.c1sq_grid if args.c1sq_grid is not None else DEFAULT_GRID
    rep = blowup_bound_report(spec, grid, allow_out_of_range=args.allow_out_of_range)
    columns = ["c1sq", "c2_bound", "kf2", "chif", "slope", "verdict"]
    rows = [[r.c1sq, r.c2_bound, r.kf2, r.chif, r.slope, r.verdict] for r in rep.rows]
    scen = f"n={spec.n} g={spec.g} case={spec.case}"
    if spec.gamma is not None:
        scen += f" gamma={spec.gamma}"
    scen += f" s={spec.s} t={spec.t}"

    fmt = args.format or "table"
    if fmt == "table":
        pairs = [("scenario", scen),
                 ("baseline (s=t=0)", _fmt(rep.baseline)),
                 (f"baseline at g={spec.g}", _fmt(rep.baseline_at_g)),
                 ("minimum over grid", _fmt(rep.minimum)),
                 ("limit c1sq -> oo", _fmt(rep.limit)),
                 ("admissible for c1sq >", _fmt(rep.admissible_from)),
                 ("strict", _fmt(rep.strict))]
        if oor:
            pairs.append(("note", oor))
        _print_kv(pairs)
        _print_block("chain", rep.chain)
        print()
    elif fmt == "jsonl":
        _print_jsonl([{"record": "meta", "scenario": scen, "baseline": rep.baseline,
                       "baseline_at_g": rep.baseline_at_g, "minimum": rep.minimum,
                       "limit": rep.limit, "admissible_from": rep.admissible_from,
                       "strict": rep.strict, "chain": rep.chain,
                       "notes": [oor] if oor else []}])
    _emit_rows(fmt, columns, rows, record="row")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    failures = verify_suite.run()
    if failures:
        print(f"verification failed: {failures[0]}", file=sys.stderr)
        return EXIT_VERIFY
    print(f"all {len(verify_suite.CHECKS)} checks passed")
    return EXIT_OK


# -- parser wiring ------------------------------------------------------------


#: every subcommand option, declared once
_OPTIONS = {
    "--n": dict(type=int, help="cover degree (3 or 4)"),
    "--g": dict(type=int, help="fibre genus"),
    "--case": dict(choices=CLI_CASES, help="scenario case"),
    "--gamma": dict(type=int, help="factorizing discriminant genus"),
    "--g-min": dict(type=int, help="first genus"),
    "--g-max": dict(type=int, help="last genus"),
    "--c1sq": dict(type=parse_rat, metavar="RAT", help="c1(E)^2"),
    "--c2": dict(type=parse_rat, metavar="RAT", help="c2(E) (degree 3)"),
    "--c2e": dict(type=parse_rat, metavar="RAT", help="c2(E) (degree 4)"),
    "--c2f": dict(type=parse_rat, metavar="RAT", help="c2(F) (degree 4)"),
    "--s": dict(type=int, help="total-ramification blow-ups (degree 4 only)"),
    "--t": dict(type=int, help="index-three blow-ups"),
    "--c1sq-grid": dict(type=_parse_grid, metavar="RAT,RAT,...",
                        help="comma-separated c1^2 grid"),
}

_ZERO_ONLY = "must stay 0 here"

#: subcommand -> (help, handler, options in --help order); an option given as
#: (flag, help) takes that help in this subcommand
_COMMANDS = {
    "slope": ("evaluate K_f^2, chi_f, slope and moduli data", cmd_slope,
              ("--n", "--g", "--c1sq", "--c2", "--c2e", "--c2f", "--s", "--t")),
    "bound": ("derive the case's slope bound and compare with the stated closed form",
              cmd_bound,
              ("--n", "--g", "--case", "--gamma", ("--s", _ZERO_ONLY), ("--t", _ZERO_ONLY))),
    "sweep": ("tabulate derived vs stated bounds over a genus range", cmd_sweep,
              ("--n", "--case", "--gamma", "--g-min", "--g-max",
               ("--s", _ZERO_ONLY), ("--t", _ZERO_ONLY))),
    "report": ("blow-up report: substituted slope over a c1^2 grid against the s=t=0 bound",
               cmd_report,
               ("--n", "--g", "--case", "--gamma", "--s", "--t", "--c1sq-grid")),
    "verify": ("run the full identity suite over every module", cmd_verify, ()),
}


def build_parser() -> _Parser:
    parser = _Parser(prog="gonal-slope",
                     description="Exact slope lower bounds for trigonal and "
                                 "fourgonal fibred surfaces.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, (help_, handler, options) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_, description=help_)
        sp.set_defaults(func=handler, _sp=sp)
        sp.add_argument("--scenario", metavar="FILE",
                        help="key=value scenario file; explicit flags win")
        if options:  # verify takes no options and prints no table
            sp.add_argument("--format", choices=FORMATS,
                            help="output format (default: table)")
            sp.add_argument("--allow-out-of-range", action="store_true",
                            help="compute below the genus floor, tagging the output")
        for option in options:
            if isinstance(option, tuple):
                flag, own_help = option
                sp.add_argument(flag, **dict(_OPTIONS[flag], help=own_help))
            else:
                sp.add_argument(option, **_OPTIONS[option])
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.scenario:
            _merge_scenario(args, load_scenario_file(args.scenario))
        return args.func(args)
    except ZeroChiError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (ScenarioError, ValueError, ZeroDivisionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())

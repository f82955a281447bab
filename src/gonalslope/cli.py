"""Command line surface: slope evaluation, bound derivation, sweeps, reports.

Commands: slope, bound, sweep, verify, report.  Everything printed is an
exact rational (or a rational function of g); decimal columns are labelled
approximations.  Identical invocations produce byte-identical output, with
rows in sorted order.

Exit codes: 0 success, 1 input error, 2 verification failure, 3 degenerate
denominator (chi_f = 0), 4 internal check failed (a bug, not bad input).

Start-up is most of a single call's cost, so the verify suite, csv and json
are imported by the code that uses them, not when this module loads.
"""
from __future__ import annotations

import argparse
import functools
import os
import re
import sys
from decimal import Decimal, localcontext
from fractions import Fraction

from . import __version__
from .bounds import (CASES, ScenarioError, ScenarioSpec, blowup_bound_report,
                     compare, derived_slope_bound)
from .grr import GENUS_FLOOR, check_blowups
from .ratcalc import parse_rat
from .slope import (ZeroChiError, check_genus, harris_stankova_reference,
                    moduli_conversion, slope_fourgonal_blowup, slope_trigonal_blowup)

EXIT_OK, EXIT_INPUT, EXIT_VERIFY, EXIT_DEGENERATE, EXIT_INTERNAL = 0, 1, 2, 3, 4

FORMATS = ("table", "csv", "jsonl")
CLI_CASES = tuple(c.replace("_", "-") for c in CASES)

#: grid used by `report` when none is given; wide enough to cross the
#: admissibility edge of every supported scenario
DEFAULT_GRID = tuple(Fraction(x) for x in (1, 2, 4, 14, 100, 1000))

#: widest genus range `sweep` accepts; its rows are all built before printing
MAX_SWEEP_GENERA = 100_000


#: a value quoted in an error message, if longer than 80 characters; it is
#: echoed as its first 40 characters and its length
_LONG_QUOTED = re.compile(r"'([^']{81,})'|\"([^\"]{81,})\"")


def _shorten(match: re.Match) -> str:
    quote, value = match[0][0], match[1] or match[2]
    return f"{quote}{value[:40]}...{quote} ({len(value)} characters)"


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; 2 is reserved for verification here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        message = _LONG_QUOTED.sub(_shorten, message)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


# -- value parsing and formatting -------------------------------------------


def _norm_case(text: str) -> str:
    return text.strip().replace("-", "_")


def _parse_int(value: str) -> int:
    try:
        return int(value.strip(), 10)
    except ValueError:
        raise ScenarioError(f"expected an integer, got {value!r}") from None


def _parse_grid(value: str) -> tuple[Fraction, ...]:
    toks = [tok.strip() for tok in value.split(",")]
    if not toks or any(not tok for tok in toks):
        raise ScenarioError(f"empty entry in {value!r}")
    return tuple(parse_rat(tok) for tok in toks)


def _parse_format(value: str) -> str:
    value = value.strip()
    if value not in FORMATS:
        raise ScenarioError(f"expected one of {FORMATS}, got {value!r}")
    return value


def _parse_range(value: str) -> tuple[int, int]:
    m = re.fullmatch(r"\s*(\d+)\s*\.\.\s*(\d+)\s*", value)
    if not m:
        raise ScenarioError(f"expected 'lo..hi', got {value!r}")
    return int(m.group(1)), int(m.group(2))


def _option_type(parse):
    """parse as an argparse type: the text of a ValueError it raises is the usage error."""
    def typed(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(exc) from None
    return typed


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
    "degree": (("n",), _parse_int),
    "genus": (("g", "g_min", "g_max"), lambda v: (_parse_int(v),) * 3),
    "genus-range": (("g_min", "g_max"), _parse_range),
    "case": (("case",), _norm_case),
    "gamma": (("gamma",), _parse_int),
    "s": (("s",), _parse_int),
    "t": (("t",), _parse_int),
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
        try:
            lines = fh.readlines()
        except UnicodeDecodeError as exc:
            raise ScenarioError(f"{path}: {exc}") from None
    for lineno, raw in enumerate(lines, 1):
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
            raise ScenarioError(f"{path}:{lineno}: {key}: {exc}") from None
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


def _require(args: argparse.Namespace, attr: str):
    """The option's value; a usage error naming the flag and any file keys if unset."""
    val = getattr(args, attr)
    if val is None:
        keys = [f"{key}=" for key, (dests, _) in _FILE_KEYS.items() if attr in dests]
        hint = f" (or {' or '.join(keys)})" if keys else ""
        args._sp.error(f"missing --{attr.replace('_', '-')}{hint}")
    return val


def _genus_notes(n: int, g: int, allow: bool) -> list[str]:
    """The genus gate: check_genus refuses a genus below 1 first; then no notes
    from the degree's floor up.

    Below the floor it refuses, or under --allow-out-of-range returns the note
    to print.
    """
    check_genus(g)
    floor = GENUS_FLOOR[n]
    if g >= floor:
        return []
    if not allow:
        raise ScenarioError(f"genus {g} below floor {floor} for degree {n}; "
                            "pass --allow-out-of-range to compute anyway")
    return [f"out-of-range: genus {g} below floor {floor}"]


# -- output writers ----------------------------------------------------------


def _print_kv(pairs: list[tuple[str, str]]) -> None:
    width = max(len(k) for k, _ in pairs)
    for key, value in pairs:
        print(f"{key.ljust(width)} = {value}")


def _labelled(fields) -> list[tuple[str, str]]:
    """Table pairs from a command's fields: (key, table label, value, with decimal)."""
    return [(label, f"{_fmt(v)} (~ {_approx(v)})" if approx else _fmt(v))
            for _, label, v, approx in fields]


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
    import csv

    out = csv.writer(sys.stdout, lineterminator="\n")
    out.writerow(columns)
    out.writerows(rows)


def _print_jsonl(records) -> None:
    import json

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
    n = _require(args, "n")
    g = _require(args, "g")
    s, t = args.s or 0, args.t or 0
    check_blowups(n, s, t)
    c1sq = _require(args, "c1sq")
    notes = _genus_notes(n, g, args.allow_out_of_range)
    if n == 3:
        if args.c2e is not None or args.c2f is not None:
            args._sp.error("--c2e/--c2f apply to --n 4; degree 3 takes --c2")
        c2 = _require(args, "c2")
        inv = slope_trigonal_blowup(g, c1sq, c2, t)
    else:
        if args.c2 is not None:
            args._sp.error("--c2 applies to --n 3; degree 4 takes --c2e and --c2f")
        c2e = _require(args, "c2e")
        c2f = _require(args, "c2f")
        inv = slope_fourgonal_blowup(g, c1sq, c2e, c2f, s, t)
    md = moduli_conversion(inv)
    warn = inv.warning()
    if warn:
        notes.append(warn)
    fields = [("kf2", inv.kf2), ("chif", inv.chif), ("slope", inv.slope),
              ("s_B", md.s_b), ("delta_B", md.delta_b)]

    fmt = args.format or "table"
    if fmt == "table":
        _print_kv(_labelled((k, k, v, True) for k, v in fields)
                  + [("note", line) for line in notes])
    else:
        columns = [k for k, _ in fields] + [f"{k}_approx" for k, _ in fields] + ["notes"]
        values = [v for _, v in fields] + [_approx(v) for _, v in fields]
        if fmt == "csv":
            _print_csv(columns, [[_fmt(v) for v in values] + ["; ".join(notes)]])
        else:
            _print_jsonl([dict(zip(columns, values + [notes]))])
    return EXIT_OK


def _scenario_from_args(args: argparse.Namespace,
                        genus: str = "g") -> tuple[ScenarioSpec, list[str]]:
    """The scenario the options name, at the genus option given, and its genus notes."""
    n = _require(args, "n")
    g = _require(args, genus)
    case = _require(args, "case")
    spec = ScenarioSpec(n, g, _norm_case(case), args.gamma, args.s or 0, args.t or 0)
    return spec, _genus_notes(n, g, args.allow_out_of_range)


def _scenario_fields(spec: ScenarioSpec, *keys: str) -> list[tuple[str, object]]:
    """(key, value) of n, g, case, gamma and then the given keys of the spec."""
    return [(k, getattr(spec, k)) for k in ("n", "g", "case", "gamma", *keys)]


def _scenario_text(spec: ScenarioSpec, *keys: str) -> str:
    """'n=... g=... case=...' with gamma where it is set, then the given keys."""
    return " ".join(f"{k}={v}" for k, v in _scenario_fields(spec, *keys) if v is not None)


def cmd_bound(args: argparse.Namespace) -> int:
    spec, notes = _scenario_from_args(args)
    res = compare(spec, allow_out_of_range=args.allow_out_of_range)
    notes += res.notes
    g = spec.g
    ref = harris_stankova_reference(spec.n, g)
    fields = [
        ("derived", "derived bound", res.derived_bound, False),
        ("derived_at_g", f"derived at g={g}", res.derived_bound(g), True),
        ("stated", "stated bound", res.stated_bound, False),
        ("stated_at_g", f"stated at g={g}", res.stated_bound(g), True),
        ("discrepancy", "discrepancy", res.discrepancy, False),
        ("discrepancy_at_g", f"discrepancy at g={g}", res.discrepancy(g), False),
        ("strict", "strict", res.strict, False),
        ("c2_coefficient", "c2 coefficient at g", res.c2_coefficient, False),
        ("correction", "correction", res.correction, False),
        ("reference_at_g", f"reference F_{spec.n}({g})", ref, True),
    ]
    values = _scenario_fields(spec) + [(k, v) for k, _, v, _ in fields]
    fmt = args.format or "table"
    if fmt == "table":
        _print_kv([("scenario", _scenario_text(spec))] + _labelled(fields))
        _print_block("chain", res.chain)
        if notes:
            _print_block("notes", notes)
        _print_block("samples (g derived stated)",
                     (f"{gv}  {_fmt(dv)}  {_fmt(sv)}" for gv, dv, sv in res.samples))
    elif fmt == "csv":
        _print_csv([k for k, _ in values] + ["chain", "notes"],
                   [[_fmt(v) for _, v in values] + [" | ".join(res.chain), "; ".join(notes)]])
    else:
        samples = [{"g": gv, "derived": _fmt(dv), "stated": _fmt(sv)}
                   for gv, dv, sv in res.samples]
        _print_jsonl([dict(values, chain=res.chain, notes=notes, samples=samples)])
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    g_min, g_max = _require(args, "g_min"), _require(args, "g_max")
    if g_min > g_max:
        raise ScenarioError(f"empty sweep range: {g_min}..{g_max}")
    if g_max - g_min + 1 > MAX_SWEEP_GENERA:
        raise ScenarioError(f"sweep range too wide: {g_min}..{g_max} spans "
                            f"{g_max - g_min + 1} genera, at most {MAX_SWEEP_GENERA}")
    spec, _ = _scenario_from_args(args, "g_min")  # rows tag out-of-range themselves
    n = spec.n
    genera = [g for g in range(g_min, g_max + 1)
              if spec.genus_problem(enforce_floor=False, g=g) is None]
    if not genera:
        raise ScenarioError(f"empty sweep range: no admissible g in {g_min}..{g_max}")

    # the bound is one function of g per case: derive it once, evaluate per row;
    # so is strictness, as beta - alpha is 0, 1 or g - 4*gamma - 1 > 0 here
    res = derived_slope_bound(spec.replace(g=genera[0]), allow_out_of_range=True)
    rows = [[g, res.derived_bound(g), res.stated_bound(g), res.discrepancy(g),
             harris_stankova_reference(n, g), res.strict,
             "" if g >= GENUS_FLOOR[n] else "out-of-range"] for g in genera]

    columns = ["g", "derived", "stated", "discrepancy", "reference", "strict", "tag"]
    _emit_rows(args.format or "table", columns, rows)
    return EXIT_OK


def cmd_report(args: argparse.Namespace) -> int:
    spec, notes = _scenario_from_args(args)
    grid = args.c1sq_grid if args.c1sq_grid is not None else DEFAULT_GRID
    rep = blowup_bound_report(spec, grid, allow_out_of_range=args.allow_out_of_range)
    columns = ["c1sq", "c2_bound", "kf2", "chif", "slope", "verdict"]
    rows = [[r.c1sq, r.c2_bound, r.kf2, r.chif, r.slope, r.verdict] for r in rep.rows]
    fields = [
        ("scenario", "scenario", _scenario_text(spec, "s", "t"), False),
        ("baseline", "baseline (s=t=0)", rep.baseline, False),
        ("baseline_at_g", f"baseline at g={spec.g}", rep.baseline_at_g, False),
        ("minimum", "minimum over grid", rep.minimum, False),
        ("limit", "limit c1sq -> oo", rep.limit, False),
        ("admissible_from", "admissible for c1sq >", rep.admissible_from, False),
        ("strict", "strict", rep.strict, False),
    ]

    fmt = args.format or "table"
    if fmt == "table":
        _print_kv(_labelled(fields) + [("note", note) for note in notes])
        _print_block("chain", rep.chain)
        print()
    elif fmt == "jsonl":
        _print_jsonl([{"record": "meta", **{k: v for k, _, v, _ in fields},
                       "chain": rep.chain, "notes": notes}])
    _emit_rows(fmt, columns, rows, record="row")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    from . import verify

    failures = verify.run()
    if failures:
        print(f"verification failed: {failures[0]}", file=sys.stderr)
        return EXIT_VERIFY
    print(f"all {len(verify.CHECKS)} checks passed")
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
    "--c1sq": dict(type=_option_type(parse_rat), metavar="RAT", help="c1(E)^2"),
    "--c2": dict(type=_option_type(parse_rat), metavar="RAT", help="c2(E) (degree 3)"),
    "--c2e": dict(type=_option_type(parse_rat), metavar="RAT", help="c2(E) (degree 4)"),
    "--c2f": dict(type=_option_type(parse_rat), metavar="RAT", help="c2(F) (degree 4)"),
    "--s": dict(type=int, help="total-ramification blow-ups (degree 4 only)"),
    "--t": dict(type=int, help="index-three blow-ups"),
    "--c1sq-grid": dict(type=_option_type(_parse_grid), metavar="RAT,RAT,...",
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
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
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


@functools.cache
def _parser() -> _Parser:
    """The parser main uses; parse_args leaves no state on it."""
    return build_parser()


def _error(message, code: int) -> int:
    print(_LONG_QUOTED.sub(_shorten, f"error: {message}"), file=sys.stderr)
    return code


def main(argv: list[str] | None = None) -> int:
    """Run one command; the exit code is returned, or raised by argparse as SystemExit.

    The parser is built once per process: every call gets a fresh Namespace,
    and help text is formatted, at the terminal width of the moment, when it
    is printed.
    """
    args = _parser().parse_args(argv)
    try:
        if args.scenario:
            _merge_scenario(args, load_scenario_file(args.scenario))
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # `... | head` closed stdout: no input error; devnull takes the exit flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except ZeroChiError as exc:
        return _error(exc, EXIT_DEGENERATE)
    except (ScenarioError, ValueError, ZeroDivisionError, OSError) as exc:
        return _error(exc, EXIT_INPUT)
    except AssertionError as exc:
        return _error(f"internal check failed: {exc}", EXIT_INTERNAL)


if __name__ == "__main__":
    sys.exit(main())

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
                     compare, derived_slope_bound, genus_notes)
from .grr import check_blowups
from .ratcalc import parse_rat
from .slope import (ZeroChiError, harris_stankova_reference, moduli_conversion,
                    slope_fourgonal_blowup, slope_trigonal_blowup)

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
    with open(path, encoding="utf-8-sig") as fh:
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


# -- output ------------------------------------------------------------------

#: csv cell of a list-valued block, by key: its items joined; csv leaves out a
#: block not named here (samples), and jsonl alone carries it
_CSV_JOIN = {"chain": " | ", "notes": "; "}


def _emit(fmt: str | None, fields=(), blocks=(), columns=(), rows=()) -> None:
    """Print a command's output in fmt, table when None: a meta record, and rows.

    fields are (key, label, value, approx) and blocks (key, title, items,
    lines).  The table prints each field that has a label, as `label = value`
    with the decimal where approx is set, then the lines of each titled block
    that has any, then the rows, after a blank line if a meta record came
    first.  csv and jsonl carry the fields and blocks that have a key.  csv
    prints the rows, or the meta record when there are none; jsonl tags each
    record `meta` or `row` when it prints both.
    """
    meta = {key: v for key, _, v, _ in fields if key}
    if fmt == "csv":
        import csv

        if not rows:
            meta.update((key, _CSV_JOIN[key].join(items))
                        for key, _, items, _ in blocks if key in _CSV_JOIN)
            columns, rows = list(meta), [meta.values()]
        out = csv.writer(sys.stdout, lineterminator="\n")
        out.writerow(columns)
        out.writerows([_fmt(c) for c in row] for row in rows)
    elif fmt == "jsonl":
        import json

        meta.update((key, items) for key, _, items, _ in blocks)
        records = [dict(zip(columns, row)) for row in rows]
        if meta and records:
            meta["record"] = "meta"
            for rec in records:
                rec["record"] = "row"
        for rec in [meta, *records] if meta else records:
            print(json.dumps(rec, sort_keys=True, default=str))
    else:
        pairs = [(label, f"{_fmt(v)} (~ {_approx(v)})" if approx else _fmt(v))
                 for _, label, v, approx in fields if label]
        width = max((len(label) for label, _ in pairs), default=0)
        for label, text in pairs:
            print(f"{label.ljust(width)} = {text}")
        for _, title, _, lines in blocks:
            if title and lines:
                print(f"{title}:")
                for line in lines:
                    print(f"  {line}")
        if columns:
            if pairs:
                print()
            cells = [[_fmt(c) for c in row] for row in rows]
            widths = [max(map(len, column)) for column in zip(columns, *cells)]
            for row in [columns, *cells]:
                print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())


# -- subcommands -------------------------------------------------------------


def cmd_slope(args: argparse.Namespace) -> int:
    n = _require(args, "n")
    g = _require(args, "g")
    s, t = args.s or 0, args.t or 0
    check_blowups(n, s, t)
    c1sq = _require(args, "c1sq")
    notes = genus_notes(n, g, args.allow_out_of_range)
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
    values = [("kf2", inv.kf2), ("chif", inv.chif), ("slope", inv.slope),
              ("s_B", md.s_b), ("delta_B", md.delta_b)]
    _emit(args.format,
          [(k, k, v, True) for k, v in values]
          + [(f"{k}_approx", None, _approx(v), False) for k, v in values]
          + [(None, "note", line, False) for line in notes],
          [("notes", None, notes, ())])
    return EXIT_OK


def _scenario_from_args(args: argparse.Namespace, genus: str = "g") -> ScenarioSpec:
    """The scenario the options name, at the genus option given."""
    n = _require(args, "n")
    g = _require(args, genus)
    case = _require(args, "case")
    return ScenarioSpec(n, g, _norm_case(case), args.gamma, args.s or 0, args.t or 0)


def _scenario_fields(spec: ScenarioSpec, *keys: str) -> list[tuple[str, object]]:
    """(key, value) of n, g, case, gamma and then the given keys of the spec."""
    return [(k, getattr(spec, k)) for k in ("n", "g", "case", "gamma", *keys)]


def _scenario_text(spec: ScenarioSpec, *keys: str) -> str:
    """'n=... g=... case=...' with gamma where it is set, then the given keys."""
    return " ".join(f"{k}={v}" for k, v in _scenario_fields(spec, *keys) if v is not None)


def cmd_bound(args: argparse.Namespace) -> int:
    spec = _scenario_from_args(args)
    res = compare(spec, allow_out_of_range=args.allow_out_of_range)
    g = spec.g
    ref = harris_stankova_reference(spec.n, g)
    fields = [
        (None, "scenario", _scenario_text(spec), False),
        *((k, None, v, False) for k, v in _scenario_fields(spec)),
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
    samples = [(gv, _fmt(dv), _fmt(sv)) for gv, dv, sv in res.samples]
    _emit(args.format, fields, [
        ("chain", "chain", res.chain, res.chain),
        ("notes", "notes", res.notes, res.notes),
        ("samples", "samples (g derived stated)",
         [{"g": gv, "derived": dv, "stated": sv} for gv, dv, sv in samples],
         [f"{gv}  {dv}  {sv}" for gv, dv, sv in samples]),
    ])
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    g_min, g_max = _require(args, "g_min"), _require(args, "g_max")
    if g_min > g_max:
        raise ScenarioError(f"empty sweep range: {g_min}..{g_max}")
    if g_max - g_min + 1 > MAX_SWEEP_GENERA:
        raise ScenarioError(f"sweep range too wide: {g_min}..{g_max} spans "
                            f"{g_max - g_min + 1} genera, at most {MAX_SWEEP_GENERA}")
    spec = _scenario_from_args(args, "g_min")
    n = spec.n
    genus_notes(n, g_min, args.allow_out_of_range)  # rows tag out-of-range themselves
    genera = [g for g in range(g_min, g_max + 1) if spec.genus_problem(g) is None]
    if not genera:
        raise ScenarioError(f"empty sweep range: no admissible g in {g_min}..{g_max}")

    # the bound is one function of g per case: derive it once, evaluate per row;
    # so is strictness, as beta - alpha is 0, 1 or g - 4*gamma - 1 > 0 here
    res = derived_slope_bound(spec.replace(g=genera[0]), allow_out_of_range=True)
    rows = [[g, res.derived_bound(g), res.stated_bound(g), res.discrepancy(g),
             harris_stankova_reference(n, g), res.strict,
             "out-of-range" if genus_notes(n, g, True) else ""] for g in genera]

    _emit(args.format, columns=["g", "derived", "stated", "discrepancy", "reference",
                                "strict", "tag"], rows=rows)
    return EXIT_OK


def cmd_report(args: argparse.Namespace) -> int:
    spec = _scenario_from_args(args)
    grid = args.c1sq_grid if args.c1sq_grid is not None else DEFAULT_GRID
    rep = blowup_bound_report(spec, grid, allow_out_of_range=args.allow_out_of_range)
    fields = [
        ("scenario", "scenario", _scenario_text(spec, "s", "t"), False),
        ("baseline", "baseline (s=t=0)", rep.baseline, False),
        ("baseline_at_g", f"baseline at g={spec.g}", rep.baseline_at_g, False),
        ("minimum", "minimum over grid", rep.minimum, False),
        ("limit", "limit c1sq -> oo", rep.limit, False),
        ("admissible_from", "admissible for c1sq >", rep.admissible_from, False),
        ("strict", "strict", rep.strict, False),
        *((None, "note", note, False) for note in rep.notes),
    ]
    # csv prints the rows alone, without this meta record
    _emit(args.format, fields,
          [("chain", "chain", rep.chain, rep.chain), ("notes", None, rep.notes, ())],
          ["c1sq", "c2_bound", "kf2", "chif", "slope", "verdict"],
          [[r.c1sq, r.c2_bound, r.kf2, r.chif, r.slope, r.verdict] for r in rep.rows])
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

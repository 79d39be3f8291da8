"""Command-line front end.

Subcommands:

* analyze  -- full invariant report for one curve (text or JSON)
* sample   -- seeded random-quartic eta frequency experiment
* ec       -- direct access to the exact elliptic-curve arithmetic

Exit codes: 0 success, 2 parse/usage error, 3 hypothesis violation
(non-square-free input, singular conic, off-curve point), 4 internal
inconsistency: a failed self-check (should never fire).  A reader that
closes stdout before the output is written, as `| head -1` does, is no
error: the command did its work, so it exits 0 with nothing on stderr.

The command line is read by one table, `_COMMANDS`, of each
subcommand's positionals and options.  An option takes its value as
`--opt value` or `--opt=value`, anywhere after the subcommand; a value
that starts with `--` is missing, and a repeated option keeps its last
value.  `--` ends the options.  A word that starts with a single `-`
is a positional, unless it is `-h`, so `analyze '-x^2-y^2+1=0'`,
`ec multiple -1 "(0,1)"` and `sample --seed -5` read as they look.
`-h` and `--help` print the usage and exit 0.  Every usage error is a
ParseError, so it exits 2.

Expressions are read by the grammar of `parser`; every other number
the command line takes is read by `rationals`: --coeffs, `ec --curve`
and `ec` points by `read_rationals`, to the grammar's digit limit, and
`ec multiple`'s n, the --units entries and the integer options by
`read_integer`, in the ASCII digits 0-9 only.

At the top this module imports only the standard library, `errors` and
`rationals`; each subcommand imports the modules it runs, so a cold
call compiles no others, and `json` is imported only for --json.  What
a cold call runs beside this module, `errors` and `rationals`:

* `ec`: `elliptic` and `_record`, and `fractions`, but not the curve
  grammar;
* `sample`: `sampling`, `eta`, `eta_rules`, `elliptic`, `polys` and
  `_record`, but no curve spec, so not `curves`;
* `analyze` on an input that does not parse: `parser`, and nothing
  more, as `parser` reaches `curves` and `polys` only for a parsed
  curve;
* `analyze` on a conic: `parser`, `curves` and the report's modules
  (`report`, `eta_rules`, `cohomology`, `witt`, `picard`, `groups`,
  `_format` and `_record`), but not `polys`, which only y^2 = Q runs;
* `analyze` on y^2 = Q: `polys` too; a Q that is not square-free stops
  before the report.  Only a quartic runs `eta` and `elliptic`, which
  import `fractions`: any other curve with integer coefficients runs
  without it.

Output is deterministic: identical input and seed give byte-identical
output.  JSON layouts are documented in docs/schema.json.
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace

from .errors import (HypothesisError, InternalInconsistencyError, OffCurveError,
                     ParseError, SingularCurveError)
from .rationals import (MAX_COEFFICIENT_DIGITS, TOO_LONG, bounded_rational, read_integer,
                        read_rationals)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_HYPOTHESIS = 3
EXIT_INTERNAL = 4


def _integer(text: str) -> int:
    """The reader of the integer options."""
    try:
        return read_integer(text, "integer")
    except ParseError:
        raise ValueError(f"invalid integer value: {text!r}") from None


def _choice(read, *choices):
    """A reader that takes what `read` reads if it is one of `choices`."""
    def reader(text: str):
        value = read(text)
        if value not in choices:
            raise ValueError(f"invalid choice: {value!r} "
                             f"(choose from {', '.join(map(repr, choices))})")
        return value
    return reader


# each ec op's number of arguments, and the usage error when it differs
_EC_ARITY = {
    "add": (2, "add needs two points"),
    "double": (1, "double needs one point"),
    "multiple": (2, "multiple needs n and a point"),
    "torsion": (1, "torsion needs one point"),
}

_REQUIRED = object()
_FLAG = (None, False)

# Each subcommand's positionals, named by their attribute, in order, and
# its options, each with (reader, default).  A default of _REQUIRED
# makes one required.  An option read by None is a flag, which takes no
# value; the positional read by None takes every word left.
_COMMANDS = {
    "analyze": {"expression": (str, None), "--coeffs": (str, None),
                "--units": (str, "2"), "--json": _FLAG},
    "sample": {"--count": (_integer, _REQUIRED), "--seed": (_integer, 1),
               "--k": (_choice(_integer, 0, 2, 4), None), "--amax": (_integer, 50),
               "--bmax": (_integer, 50), "--cmax": (_integer, 50),
               "--pin": (_choice(str, "b=0", "a=c"), None), "--json": _FLAG},
    "ec": {"op": (_choice(str, *_EC_ARITY), _REQUIRED), "args": (None, ()),
           "--curve": (str, _REQUIRED), "--bound": (_integer, 12), "--json": _FLAG},
}

# each subcommand's usage and what it does, for -h and --help
_HELP = {
    "analyze": ("[EXPRESSION] [--coeffs a0,a1,...,ad] [--units N,...] [--json]",
                "full report for one curve, '<poly in x,y> = 0' or 'y^2 = <poly in x>',\n"
                "  or y^2 = a0 + a1*x + ... + ad*x^d by --coeffs: invariants, cohomology,\n"
                "  Witt group, eta, Pic_tors, the unit groups mod each --units entry\n"
                "  (default 2) and the level"),
    "sample": ("--count N [--seed N] [--k {0,2,4}] [--amax N] [--bmax N] [--cmax N]\n"
               "       [--pin {b=0,a=c}] [--json]",
               "eta frequencies over seeded random quartics; --pin forces a\n"
               "  coincidence locus instead of avoiding it"),
    "ec": ("--curve c2,c1,c0 {add,double,multiple,torsion} ARG... [--bound N] [--json]",
           "arithmetic on u^2 = v^3 + c2*v^2 + c1*v + c0; points are '(v,u)' or\n"
           "  'inf', multiple takes n first, torsion searches up to --bound (default 12)"),
}


def _usage(commands) -> str:
    return "\n".join(f"usage: realcurves {name} {_HELP[name][0]}\n  {_HELP[name][1]}"
                      for name in commands)


def _read(name: str, reader, text: str):
    try:
        return reader(text)
    except ValueError as err:
        raise ParseError(f"argument {name}: {err}", 0) from None


def _parse_args(argv: list[str]) -> SimpleNamespace | None:
    """The subcommand and its values read off `argv` by `_COMMANDS`, as
    attributes named without dashes; None once `-h` or `--help` has
    printed the usage."""
    if argv[:1] in (["-h"], ["--help"]):
        print(_usage(_HELP))
        return None
    if not argv or argv[0] not in _COMMANDS:
        given = f"invalid subcommand {argv[0]!r}" if argv else "missing subcommand"
        raise ParseError(f"{given} (choose from analyze, sample, ec)", 0)
    command, words = argv[0], iter(argv[1:])
    table = _COMMANDS[command]
    values = {name: default for name, (_, default) in table.items()}
    positionals: list[str] = []
    for word in words:
        if word == "--":
            positionals.extend(words)
        elif word in ("-h", "--help"):
            print(_usage([command]))
            return None
        elif word.startswith("--"):
            name, has_value, text = word.partition("=")
            if name not in table:
                raise ParseError(f"unknown option {name!r}", 0)
            reader = table[name][0]
            if reader is None:
                if has_value:
                    raise ParseError(f"{name} takes no value", 0)
                values[name] = True
                continue
            if not has_value:
                text = next(words, None)
            if text is None or text.startswith("--"):
                raise ParseError(f"{name} needs a value", 0)
            values[name] = _read(name, reader, text)
        else:
            positionals.append(word)
    for name, (reader, _) in table.items():
        if name.startswith("--") or not positionals:
            continue
        if reader is None:
            values[name], positionals = positionals, []
        else:
            values[name] = _read(name, reader, positionals.pop(0))
    if positionals:
        raise ParseError(f"unrecognized arguments: {' '.join(positionals)}", 0)
    missing = [name for name, value in values.items() if value is _REQUIRED]
    if missing:
        raise ParseError(f"the following arguments are required: {', '.join(missing)}", 0)
    return SimpleNamespace(command=command,
                           **{name.lstrip("-"): value for name, value in values.items()})


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
        code = EXIT_OK if args is None else {
            "analyze": _cmd_analyze, "sample": _cmd_sample, "ec": _cmd_ec,
        }[args.command](args)
        sys.stdout.flush()  # a closed pipe shows here, not at the exit
        return code
    except BrokenPipeError:
        # the reader stopped; the interpreter's own flush at exit would
        # fail again ("Exception ignored", exit 120), so it goes nowhere
        with open(os.devnull, "wb") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return EXIT_OK
    except ParseError as err:
        print(f"parse error: {err}", file=sys.stderr)
        return EXIT_PARSE
    except (HypothesisError, OffCurveError, SingularCurveError) as err:
        print(f"hypothesis violation: {err}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except InternalInconsistencyError as err:
        print(f"internal inconsistency: {err}", file=sys.stderr)
        return EXIT_INTERNAL


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def _cmd_analyze(args) -> int:
    # here, so that `ec` and `sample` skip it
    from .parser import parse_coefficient_list, parse_curve

    if (args.expression is None) == (args.coeffs is None):
        raise ParseError("provide exactly one of an expression or --coeffs", 0)
    if args.coeffs is not None:
        spec = parse_coefficient_list(args.coeffs)
    else:
        spec = parse_curve(args.expression)
    units = _parse_units(args.units)
    # after the parse, so that a rejected input compiles no report
    from .report import full_report

    report = full_report(spec, units=units)
    if args.json:
        import json  # here, so that text output and every error exit skip it

        print(json.dumps({"command": "analyze", **report}, indent=2))
    else:
        _print_analyze_text(report)
    return EXIT_OK


def _parse_units(text: str) -> list[int]:
    units = [read_integer(p, "--units entry") for p in text.split(",") if p.strip()]
    if not units or any(n < 2 for n in units):
        raise ParseError("--units entries must be integers >= 2", 0)
    return units


def _print_analyze_text(report: dict) -> None:
    curve = report["curve"]
    label = curve["kind"]
    if "conic_class" in curve:
        label += f" ({curve['conic_class'].replace('_', ' ')})"
    print(f"curve:          {label}: {curve['display']}")
    inv = report["invariants"]
    parts = [f"g={inv['g']}", f"r={inv['r']}", f"c={inv['c']}",
             f"s={inv['s']}", f"t={inv['t']}"]
    if inv["d"] is not None:
        parts = [f"d={inv['d']}", f"k={inv['k']}"] + parts
    flags = "complete" if inv["complete"] else "non-complete"
    if not inv["geometrically_connected"]:
        flags += ", not geometrically connected"
    print(f"invariants:     {' '.join(parts)}  ({flags})")
    print(f"field level:    {inv['function_field_level']}")
    et, qt = report["etale_cohomology"], report["quotient_cohomology"]
    print(f"etale H^i:      h0={et['h0']} h1={et['h1']} h2={et['h2']} "
          f"(stable {et['h_stable']})")
    print(f"quotient H^i:   h0={qt['h0']} h1={qt['h1']} h2={qt['h2']}")
    print(f"W(X):           {report['witt']['display']}")
    print(f"eta:            {_eta_text(report['eta'])}")
    if report["eta_complex"] is not None:
        print(f"eta over C:     {_eta_text(report['eta_complex'])}")
    print(f"Pic_tors(X):    {_group_or_candidates(report['pic_tors'])}")
    for entry in report["units"]:
        label = f"U_{entry['n']}(X):"
        print(f"{label:<15} {_group_or_candidates(entry)}")
    level = report["level"]
    print(f"ring level:     {level['ring_level']}  ({level['reason']})")


def _eta_text(eta_json: dict) -> str:
    cert = eta_json["certificate"]
    if eta_json["eta"] is None:
        return f"undetermined  [{cert['kind']}]"
    detail = cert["kind"]
    if cert["relation"] is not None:
        detail = f"{cert['relation']}, order {cert['order']}"
    return f"{eta_json['eta']}  [{detail}]"


def _group_or_candidates(entry: dict) -> str:
    if entry.get("eta_undetermined"):
        cands = entry["candidates"]
        return (f"eta undetermined: {cands['eta_0']['display']} (eta=0) or "
                f"{cands['eta_1']['display']} (eta=1)")
    return entry["display"]


# ---------------------------------------------------------------------------
# sample
# ---------------------------------------------------------------------------

def _cmd_sample(args) -> int:
    from .sampling import SampleBox, run_sample  # here, so that `ec` skips it

    if args.count < 1:
        raise ParseError("--count must be >= 1", 0)
    try:
        box = SampleBox(k=args.k, amax=args.amax, bmax=args.bmax,
                        cmax=args.cmax, pin=args.pin)
    except ValueError as err:
        raise ParseError(str(err), 0) from None
    summary = run_sample(args.count, args.seed, box)
    if args.json:
        import json

        print(json.dumps({"command": "sample", **summary.to_json()}, indent=2))
        return EXIT_OK
    freq = summary.to_json()["frequencies"]
    total = summary.count
    print(f"samples:        {total} (seed {summary.seed})")
    for key in ("known0", "known1", "undetermined"):
        n = freq[key]
        print(f"{key + ':':<15} {n}  ({100.0 * n / total:.2f}%)")
    if summary.known1_certificates:
        print("known1 certificates:")
        for cert in summary.known1_certificates:
            print(f"  #{cert['index']}: k={cert['k']} a={cert['a']} "
                  f"b={cert['b']} c={cert['c']}  {cert['relation']} "
                  f"(order {cert['order']})")
    return EXIT_OK


# ---------------------------------------------------------------------------
# ec
# ---------------------------------------------------------------------------

def _parse_point(text: str):
    from .elliptic import INFINITY, ECPoint

    cleaned = text.strip()
    if cleaned.lower() in ("inf", "infinity", "o"):
        return INFINITY
    if not (cleaned.startswith("(") and cleaned.endswith(")")):
        raise ParseError(f"point must be '(v,u)' or 'inf', got {text!r}", 0)
    body = cleaned[1:-1]
    if body.count(",") != 1:
        raise ParseError(f"point must have two coordinates, got {text!r}", 0)
    return ECPoint(*read_rationals(body, "point coordinate"))


def _parse_curve_coeffs(text: str):
    from .elliptic import WeierstrassCurve

    if text.count(",") != 2:
        raise ParseError("--curve needs exactly c2,c1,c0", 0)
    c2, c1, c0 = read_rationals(text, "curve coefficient")
    return WeierstrassCurve(c2=c2, c1=c1, c0=c0)


def _point_json(point) -> dict | str:
    """The point's JSON form; a coordinate with a part of more than
    MAX_COEFFICIENT_DIGITS digits, which could not be printed, is a
    ParseError."""
    if point.is_infinity:
        return "infinity"
    return {"v": str(bounded_rational(point.v)), "u": str(bounded_rational(point.u))}


def _cmd_ec(args) -> int:
    # here, as each subcommand imports what it runs
    from .elliptic import ec_add, ec_double, multiple, torsion_order_bounded

    curve = _parse_curve_coeffs(args.curve)
    op = args.op
    count, usage = _EC_ARITY[op]
    if len(args.args) != count:
        raise ParseError(usage, 0)
    if op == "torsion":
        if args.bound < 1:
            raise ParseError("--bound must be >= 1", 0)
        order = torsion_order_bounded(curve, _parse_point(args.args[0]), args.bound)
        if order is None:
            payload = {"not_torsion_within": args.bound}
            text = f"NotTorsionWithin({args.bound})"
        else:
            payload = {"order": order}
            text = f"order {order}"
    else:
        if op == "add":
            result = ec_add(curve, *map(_parse_point, args.args))
        elif op == "double":
            result = ec_double(curve, _parse_point(args.args[0]))
        else:
            n = read_integer(args.args[0], "multiplier")
            point = _parse_point(args.args[1])
            try:
                result = multiple(curve, n, point, max_digits=MAX_COEFFICIENT_DIGITS)
            except OverflowError:  # too long to print, as `_point_json` would find
                raise ParseError(TOO_LONG, 0) from None
        payload = {"point": _point_json(result)}
        text = str(result)
    if args.json:
        import json

        print(json.dumps({"command": "ec", "curve": {"c2": str(curve.c2),
                                                     "c1": str(curve.c1),
                                                     "c0": str(curve.c0)},
                          "op": op, "result": payload}, indent=2))
    else:
        print(text)
    return EXIT_OK


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

"""Command-line front end.

Subcommands:

* analyze  -- full invariant report for one curve (text or JSON)
* sample   -- seeded random-quartic eta frequency experiment
* ec       -- direct access to the exact elliptic-curve arithmetic

Exit codes: 0 success, 2 parse/usage error, 3 hypothesis violation
(non-square-free input, singular conic, off-curve point), 4 internal
inconsistency: a failed self-check (should never fire).

Output is deterministic: identical input and seed give byte-identical
output.  JSON layouts are documented in docs/schema.json.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .curves import HypothesisError, InternalInconsistencyError
from .elliptic import (ECPoint, INFINITY, OffCurveError, SingularCurveError,
                       WeierstrassCurve, ec_add, ec_double, multiple,
                       torsion_order_bounded)
from .parser import ParseError, _bounded, parse_coefficient_list, parse_curve
from .report import full_report
from .sampling import SampleBox, run_sample

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_HYPOTHESIS = 3
EXIT_INTERNAL = 4


def build_arg_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="realcurves",
        description="Exact invariants of smooth real affine plane curves.")
    sub = top.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser(
        "analyze", help="full report: invariants, cohomology dimensions, "
        "Witt group, eta, torsion Picard group, unit groups, level")
    analyze.add_argument("expression", nargs="?",
                         help="curve as '<poly in x,y> = 0' or 'y^2 = <poly in x>'")
    analyze.add_argument("--coeffs",
                         help="hyperelliptic coefficients a0,a1,...,ad (ascending)")
    analyze.add_argument("--units", default="2",
                         help="comma-separated modulis for unit groups (default 2)")
    analyze.add_argument("--json", action="store_true", help="emit JSON")

    sample = sub.add_parser(
        "sample", help="random-quartic eta frequency experiment")
    sample.add_argument("--count", type=int, required=True)
    sample.add_argument("--seed", type=int, default=1)
    sample.add_argument("--k", type=int, choices=(0, 2, 4))
    sample.add_argument("--amax", type=int, default=50)
    sample.add_argument("--bmax", type=int, default=50)
    sample.add_argument("--cmax", type=int, default=50)
    sample.add_argument("--pin", choices=("b=0", "a=c"),
                        help="force a coincidence locus instead of avoiding it")
    sample.add_argument("--json", action="store_true", help="emit JSON")

    ec = sub.add_parser(
        "ec", help="debug arithmetic on u^2 = v^3 + c2*v^2 + c1*v + c0")
    ec.add_argument("--curve", required=True, metavar="c2,c1,c0",
                    help="comma-separated rational coefficients")
    ec.add_argument("op", choices=("add", "double", "multiple", "torsion"))
    ec.add_argument("args", nargs="*",
                    help="points as '(v,u)' or 'inf'; multiple takes n first")
    ec.add_argument("--bound", type=int, default=12,
                    help="torsion search bound (default 12)")
    ec.add_argument("--json", action="store_true", help="emit JSON")
    return top


def main(argv: list[str] | None = None) -> int:
    args = build_arg_parser().parse_args(argv)
    try:
        _require_single_values(args)
        if args.command == "analyze":
            return _cmd_analyze(args)
        if args.command == "sample":
            return _cmd_sample(args)
        return _cmd_ec(args)
    except ParseError as err:
        print(f"parse error: {err}", file=sys.stderr)
        return EXIT_PARSE
    except (HypothesisError, OffCurveError, SingularCurveError) as err:
        print(f"hypothesis violation: {err}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except InternalInconsistencyError as err:
        print(f"internal inconsistency: {err}", file=sys.stderr)
        return EXIT_INTERNAL


def _require_single_values(args) -> None:
    """argparse parses "--opt=--" into an empty list, not the string "--";
    every destination but the ec point list takes a single value."""
    for name, value in vars(args).items():
        if isinstance(value, list) and name != "args":
            raise ParseError(f"--{name} needs a value", 0)


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def _cmd_analyze(args) -> int:
    if (args.expression is None) == (args.coeffs is None):
        raise ParseError("provide exactly one of an expression or --coeffs", 0)
    if args.coeffs is not None:
        spec = parse_coefficient_list(args.coeffs)
    else:
        spec = parse_curve(args.expression)
    units = _parse_units(args.units)
    report = full_report(spec, units=units)
    if args.json:
        print(json.dumps({"command": "analyze", **report}, indent=2))
    else:
        _print_analyze_text(report)
    return EXIT_OK


def _parse_units(text: str) -> list[int]:
    try:
        units = [int(p) for p in text.split(",") if p.strip()]
    except ValueError:
        raise ParseError(f"bad --units list {text!r}", 0) from None
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
        print(f"U_{entry['n']}(X):         {_group_or_candidates(entry)}")
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
    if args.count < 1:
        raise ParseError("--count must be >= 1", 0)
    try:
        box = SampleBox(k=args.k, amax=args.amax, bmax=args.bmax,
                        cmax=args.cmax, pin=args.pin)
    except ValueError as err:
        raise ParseError(str(err), 0) from None
    summary = run_sample(args.count, args.seed, box)
    if args.json:
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

def _parse_point(text: str) -> ECPoint:
    cleaned = text.strip()
    if cleaned.lower() in ("inf", "infinity", "o"):
        return INFINITY
    if not (cleaned.startswith("(") and cleaned.endswith(")")):
        raise ParseError(f"point must be '(v,u)' or 'inf', got {text!r}", 0)
    body = cleaned[1:-1].split(",")
    if len(body) != 2:
        raise ParseError(f"point must have two coordinates, got {text!r}", 0)
    try:
        return ECPoint.affine(Fraction(body[0].strip()), Fraction(body[1].strip()))
    except (ValueError, ZeroDivisionError) as err:
        raise ParseError(f"bad point coordinate: {err}", 0) from None


def _parse_curve_coeffs(text: str) -> WeierstrassCurve:
    parts = text.split(",")
    if len(parts) != 3:
        raise ParseError("--curve needs exactly c2,c1,c0", 0)
    try:
        c2, c1, c0 = (Fraction(p.strip()) for p in parts)
    except (ValueError, ZeroDivisionError) as err:
        raise ParseError(f"bad curve coefficient: {err}", 0) from None
    return WeierstrassCurve(c2=c2, c1=c1, c0=c0)


def _point_json(point: ECPoint) -> dict | str:
    """The point's JSON form; a coordinate with a part of more than
    MAX_COEFFICIENT_DIGITS digits, which could not be printed, is a
    ParseError."""
    if point.is_infinity:
        return "infinity"
    for c in (point.v, point.u):
        _bounded(({(0, 0): c.numerator}, c.denominator), 0)
    return {"v": str(point.v), "u": str(point.u)}


def _cmd_ec(args) -> int:
    curve = _parse_curve_coeffs(args.curve)
    op = args.op
    if op == "add":
        if len(args.args) != 2:
            raise ParseError("add needs two points", 0)
        result = ec_add(curve, _parse_point(args.args[0]), _parse_point(args.args[1]))
        payload = {"point": _point_json(result)}
        text = str(result)
    elif op == "double":
        if len(args.args) != 1:
            raise ParseError("double needs one point", 0)
        result = ec_double(curve, _parse_point(args.args[0]))
        payload = {"point": _point_json(result)}
        text = str(result)
    elif op == "multiple":
        if len(args.args) != 2:
            raise ParseError("multiple needs n and a point", 0)
        try:
            n = int(args.args[0])
        except ValueError:
            raise ParseError(f"bad multiplier {args.args[0]!r}", 0) from None
        result = multiple(curve, n, _parse_point(args.args[1]))
        payload = {"point": _point_json(result)}
        text = str(result)
    else:
        if len(args.args) != 1:
            raise ParseError("torsion needs one point", 0)
        if args.bound < 1:
            raise ParseError("--bound must be >= 1", 0)
        order = torsion_order_bounded(curve, _parse_point(args.args[0]), args.bound)
        if order is None:
            payload = {"not_torsion_within": args.bound}
            text = f"NotTorsionWithin({args.bound})"
        else:
            payload = {"order": order}
            text = f"order {order}"
    if args.json:
        print(json.dumps({"command": "ec", "curve": {"c2": str(curve.c2),
                                                     "c1": str(curve.c1),
                                                     "c0": str(curve.c0)},
                          "op": op, "result": payload}, indent=2))
    else:
        print(text)
    return EXIT_OK


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

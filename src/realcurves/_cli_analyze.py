"""`realcurves analyze`: the full report for one curve, as text or as
JSON.  Only this subcommand imports this module."""

from __future__ import annotations

from .errors import ParseError
from .parser import parse_coefficient_list, parse_curve
from .rationals import read_integer


def run(args) -> None:
    if (args.expression is None) == (args.coeffs is None):
        raise ParseError("provide exactly one of an expression or --coeffs")
    if args.coeffs is not None:
        spec = parse_coefficient_list(args.coeffs)
    else:
        spec = parse_curve(args.expression)
    units = _parse_units(args.units)
    # after the parse, so that a rejected input compiles no report
    from .report import full_report

    report = full_report(spec, units=units)
    if args.json:
        from ._format import format_json  # here, so that text output skips it

        print(format_json({"command": "analyze", **report}))
    else:
        _print_text(report)


def _parse_units(text: str) -> list[int]:
    units = [read_integer(p, "--units entry") for p in text.split(",") if p.strip()]
    if not units or any(n < 2 for n in units):
        raise ParseError("--units entries must be integers >= 2")
    return units


def _print_text(report: dict) -> None:
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
    flags = "non-complete"
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

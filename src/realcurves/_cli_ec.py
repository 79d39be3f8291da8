"""`realcurves ec`: one operation of the exact elliptic-curve
arithmetic, as text or as JSON.  Only this subcommand imports this
module.

This module owns the ops: `ARITY` names each one and its number of
arguments, and `run` rejects any other op, before it reads --curve, as
a usage error that names the ops.

Every op reads its points as `weierstrass.Point`s, with their
coordinates as read, ints or Fractions.  `torsion` walks the point in
integers on the curve's integral model (`weierstrass`), so an integral
curve and point run without `fractions`.  Only `add`, `double` and
`multiple` import `elliptic`, whose group law computes on Fractions."""

from __future__ import annotations

from .errors import ParseError
from .rationals import (MAX_COEFFICIENT_DIGITS, TOO_LONG, bounded_rational, read_integer,
                        read_rationals)
from .weierstrass import Point, WeierstrassCurve, torsion_order_bounded

# each op's number of arguments, and the usage error when it differs
ARITY = {
    "add": (2, "add needs two points"),
    "double": (1, "double needs one point"),
    "multiple": (2, "multiple needs n and a point"),
    "torsion": (1, "torsion needs one point"),
}


def _parse_point(text: str) -> Point:
    """The point `text`, with its coordinates as read."""
    cleaned = text.strip()
    if cleaned.lower() in ("inf", "infinity", "o"):
        return Point(None, None)
    if not (cleaned.startswith("(") and cleaned.endswith(")")):
        raise ParseError(f"point must be '(v,u)' or 'inf', got {text!r}")
    body = cleaned[1:-1]
    if body.count(",") != 1:
        raise ParseError(f"point must have two coordinates, got {text!r}")
    return Point(*read_rationals(body, "point coordinate"))


def _parse_curve_coeffs(text: str) -> WeierstrassCurve:
    if text.count(",") != 2:
        raise ParseError("--curve needs exactly c2,c1,c0")
    c2, c1, c0 = read_rationals(text, "curve coefficient")
    return WeierstrassCurve(c2=c2, c1=c1, c0=c0)


def _point_json(point: Point) -> dict | str:
    """The point's JSON form; a coordinate with a part of more than
    MAX_COEFFICIENT_DIGITS digits, which could not be printed, is a
    ParseError."""
    if point.is_infinity:
        return "infinity"
    return {"v": str(bounded_rational(point.v)), "u": str(bounded_rational(point.u))}


def run(args) -> None:
    op = args.op
    if op not in ARITY:
        raise ParseError(f"unknown op {op!r} (choose from {', '.join(ARITY)})")
    curve = _parse_curve_coeffs(args.curve)
    count, usage = ARITY[op]
    if len(args.args) != count:
        raise ParseError(usage)
    if op == "torsion":
        if args.bound < 1:
            raise ParseError("--bound must be >= 1")
        order = torsion_order_bounded(curve, _parse_point(args.args[0]), args.bound)
        if order is None:
            payload = {"not_torsion_within": args.bound}
            text = f"NotTorsionWithin({args.bound})"
        else:
            payload = {"order": order}
            text = f"order {order}"
    else:
        from .elliptic import ec_add, ec_double, multiple

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
                raise ParseError(TOO_LONG) from None
        payload = {"point": _point_json(result)}
        text = str(result)
    if args.json:
        from ._format import format_json  # here, so that text output skips it

        print(format_json({"command": "ec", "curve": {"c2": str(curve.c2),
                                                      "c1": str(curve.c1),
                                                      "c0": str(curve.c0)},
                           "op": op, "result": payload}))
    else:
        print(text)

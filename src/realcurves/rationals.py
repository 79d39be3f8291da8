"""Exact rationals: their one type check, their integer form, and the
command line's readers of numbers.

A rational is an int or a Fraction throughout the package; a bool is
neither.  `integer_form` brings a list of them to integer numerators
over the lcm of their denominators, the form that `UniPoly`,
`eta.QuarticParams`, `weierstrass.WeierstrassCurve` and
`curves.ConicSpec` compute on, and rejects any other value with a
TypeError (a string is not parsed here).

The command line's numbers outside the curve grammar are read here:
`read_rationals` reads --coeffs, `ec --curve` and `ec` points, and
`read_integer` reads `ec multiple`'s n, the --units entries and the
integer options, both in the ASCII digits 0-9 only.  `bounded_rational`
holds a value to MAX_COEFFICIENT_DIGITS digits, the limit that the
grammar keeps too.  This module needs only the standard library and
`errors`, so a command that reads numbers compiles no polynomial code.

`fractions`, which imports `decimal` and `numbers`, is imported where
`read_rationals` builds its first Fraction, not at the top, and an
integer entry is read as an int, so a call that reads and computes on
integers only never imports it.  No Fraction can exist before
`fractions` has run, so `integer_form` takes the class from
`sys.modules`, and until then every value but an int is a TypeError.
"""

from __future__ import annotations

import sys
from collections.abc import Sequence
from math import lcm

from .errors import ParseError

# an int or a fractions.Fraction, for annotations; a string, as the
# class is not imported here
Rational = "int | Fraction"

# the default int-string digit limit: larger coefficients cannot be printed
MAX_COEFFICIENT_DIGITS = 4300
_COEFFICIENT_BOUND = 10 ** MAX_COEFFICIENT_DIGITS
TOO_LONG = f"coefficient of more than {MAX_COEFFICIENT_DIGITS} digits"


def integer_form(values: Sequence[Rational]) -> tuple[int, list[int]]:
    """(D, numerators) with values[i] = numerators[i] / D, over the lcm D
    of the denominators of the given ints and Fractions; any other value,
    a bool too, is a TypeError."""
    # no Fraction exists before `fractions` has run
    fraction = getattr(sys.modules.get("fractions"), "Fraction", int)
    den = 1
    for v in values:
        if type(v) is not int:  # an int's denominator is 1
            if type(v) is bool or not isinstance(v, (int, fraction)):
                raise TypeError(f"cannot interpret {v!r} as an exact rational")
            den = lcm(den, v.denominator)
    if den == 1:  # all integers
        return den, [v.numerator for v in values]
    return den, [v.numerator * (den // v.denominator) for v in values]


def bounded_rational(value: Rational, position: int | None = None) -> Rational:
    """`value` itself, or a ParseError at `position`, if any, when its
    numerator or denominator has more than MAX_COEFFICIENT_DIGITS
    digits, too many to print."""
    if (value.denominator >= _COEFFICIENT_BOUND
            or not -_COEFFICIENT_BOUND < value.numerator < _COEFFICIENT_BOUND):
        raise ParseError(TOO_LONG, position)
    return value


def read_rationals(text: str, what: str) -> list[Rational]:
    """The comma-separated rationals of `text`, in Fraction's syntax
    with ASCII digits and without exponent notation, and checked by
    `bounded_rational`.  An entry of an optional sign and digits is read
    as an int, every other one as a Fraction.  An entry that does not
    read is a ParseError "bad <what>: ...", in the reader's own words:
    an empty entry, a zero denominator, an entry too long to quote, or
    "not a rational: <entry>"."""
    parts = [p.strip() for p in text.split(",")]
    for p in parts:
        if not p.isascii():  # Fraction's syntax takes any \d, such as '١'
            raise ParseError(f"bad {what}: non-ASCII character in {p!r}")
        if "e" in p.lower():  # Fraction would expand 1e<n> to n digits
            raise ParseError(f"bad {what}: exponent notation in {p!r}")
    values = []
    for p in parts:
        if (p[1:] if p[:1] in ("+", "-") else p).isdigit():
            try:
                values.append(int(p))
                continue
            except ValueError:  # past int()'s digit limit: Fraction says so
                pass
        values.append(_read_fraction(p, what))
    for value in values:
        bounded_rational(value)
    return values


def _read_fraction(entry: str, what: str) -> Fraction:
    """The Fraction `entry`, or the ParseError of `read_rationals`."""
    from fractions import Fraction  # here, not at the top: only this reader builds one

    try:
        return Fraction(entry)
    except ZeroDivisionError:
        raise ParseError(f"bad {what}: zero denominator in {entry!r}") from None
    except ValueError:  # malformed, or a digit run past int()'s limit
        if not entry:
            reason = "empty entry"
        elif len(entry) > MAX_COEFFICIENT_DIGITS:
            reason = f"entry of {len(entry)} characters is too long"
        else:
            reason = f"not a rational: {entry!r}"
        raise ParseError(f"bad {what}: {reason}") from None


def read_integer(text: str, what: str) -> int:
    """The integer `text`: an optional sign and the ASCII digits 0-9,
    with surrounding spaces dropped, as int() drops them.  int() also
    takes any Unicode decimal digit, such as '١', and '_' between digits;
    those, every other form and a literal beyond the interpreter's
    int-string digit limit are a ParseError "bad <what>: ..."."""
    body = text.strip()
    digits = body[1:] if body[:1] in ("+", "-") else body
    if not (digits.isascii() and digits.isdigit()):
        raise ParseError(f"bad {what}: {text!r} is not an integer")
    try:
        return int(body)
    except ValueError:
        raise ParseError(f"bad {what}: integer literal of {len(digits)} digits "
                         "is too long") from None

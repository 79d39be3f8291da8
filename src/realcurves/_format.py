"""The display of exact rationals held as integer numerators over a
denominator: `format_rational` writes one, `format_terms` a sum of
terms, for `UniPoly`, the conic display and the report's coefficient
list.  No Fraction is built.  `format_json` writes the command line's
--json output, whose strs need no escape.

It needs only `math`, so a conic's display and report run no polynomial
code, and a cold `ec` call, which displays no polynomial, compiles none
of it, nor the standard library's JSON package.
"""

from __future__ import annotations

from collections.abc import Iterable
from math import gcd


def format_rational(num: int, den: int) -> str:
    """str(Fraction(num, den)) for den > 0, without building the Fraction:
    'n/d' in lowest terms, or 'n' when the denominator reduces to 1."""
    if den != 1:
        g = gcd(num, den)
        if g != den:
            return f"{num // g}/{den // g}"
        num //= g
    return str(num)


def format_terms(terms: Iterable[tuple[int, str]], den: int) -> str:
    """The sum of (numerator, monomial) pairs over the denominator `den`,
    in the given order, e.g. 'x^2 - 3*x*y + 1/2': each coefficient is
    written in lowest terms, zero terms are left out, a coefficient of
    magnitude 1 is dropped except on the constant, whose monomial is
    '', and the first term carries a bare sign."""
    parts: list[str] = []
    for num, mono in terms:
        if not num:
            continue
        mag = abs(num)
        if not mono:
            body = format_rational(mag, den)
        else:
            body = mono if mag == den else f"{format_rational(mag, den)}*{mono}"
        if not parts:
            parts.append(body if num > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if num > 0 else f"- {body}")
    return " ".join(parts)


def _json_string(text: str) -> str:
    if text.isascii() and text.isprintable() and '"' not in text and "\\" not in text:
        return '"' + text + '"'
    raise ValueError(f"not printable ASCII without quote or backslash: {text!r}")


def format_json(value) -> str:
    """json.dumps(value, indent=2), byte for byte, for dicts with str
    keys, lists, strs, ints, bools and None.  A str must be printable
    ASCII with no '"' or '\\', which needs no escape, as every str the
    command line prints is; any other str is a ValueError.  Any other
    type is a TypeError, so that no float or Fraction reaches the output
    by its repr."""
    return _json(value, "\n")


def _json(value, indent: str) -> str:
    """`value` written with `indent`, the line break and indentation
    before its closing bracket."""
    if isinstance(value, str):
        return _json_string(value)
    if value is None or isinstance(value, bool):
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = indent + "  "
    if isinstance(value, dict):
        if not all(isinstance(key, str) for key in value):
            raise TypeError("keys must be str")
        brackets = "{}"
        items = [_json_string(key) + ": " + _json(item, inner) for key, item in value.items()]
    elif isinstance(value, list):
        brackets = "[]"
        items = [_json(item, inner) for item in value]
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    if not items:
        return brackets
    return brackets[0] + inner + ("," + inner).join(items) + indent + brackets[1]

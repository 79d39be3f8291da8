"""The display of exact rationals held as integer numerators over a
denominator: `format_rational` writes one, `format_terms` a sum of
terms, for `UniPoly`, the conic display and the report's coefficient
list.  No Fraction is built.

It needs only `math`, so a conic's display and report run no polynomial
code, and a cold `ec` call, which displays no polynomial, compiles none
of it.
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

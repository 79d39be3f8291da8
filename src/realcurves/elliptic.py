"""Exact elliptic-curve arithmetic over Q on curves u^2 = v^3 + c2*v^2 + c1*v + c0.

The cubic keeps its v^2 term (no depression to short form) because the
models built downstream arrive as products of three explicit v-factors
and their marked points should stay bit-identical to those expressions.

All arithmetic is exact rational chord-and-tangent; there is no
tolerance parameter anywhere.  The public functions check their point
arguments once on entry, rejecting an off-curve point with the exact
residual of the curve equation, and then iterate with the unchecked
group law `_add`.

The curve, `WeierstrassCurve`, with its discriminant and membership
tests on integers, and the bounded torsion search, which walks the
integral model in integers, live in `weierstrass`, which never imports
`fractions`; this module re-exports both.  This module adds the points
with Fraction coordinates, `ECPoint` and `INFINITY`, and the Fraction
group law: `_add`, and `ec_add`, `ec_double` and `multiple`, which
check their points first.
"""

from __future__ import annotations

from fractions import Fraction

from .rationals import Rational
# the curve and the torsion search, re-exported as `elliptic.<name>`
from .weierstrass import Point, WeierstrassCurve, torsion_order_bounded


def as_fraction(x: Rational) -> Fraction:
    """An int or a Fraction as a Fraction; anything else, a bool too, is
    a TypeError, as in `rationals.integer_form`."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and type(x) is not bool:
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


class ECPoint(Point):
    """A `weierstrass.Point` with Fraction coordinates, the point of the
    group law: int coordinates become Fractions, and any other type is a
    TypeError."""

    __slots__ = ()

    def __init__(self, v: Rational | None, u: Rational | None):
        if not ((isinstance(v, Fraction) and isinstance(u, Fraction))
                or (v is None and u is None)):
            v, u = as_fraction(v), as_fraction(u)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "u", u)


INFINITY = ECPoint(None, None)


def ec_add(curve: WeierstrassCurve, p: ECPoint, q: ECPoint) -> ECPoint:
    """Chord-and-tangent sum; the identity is the point at infinity and
    -(v, u) = (v, -u).  Both operands are checked to lie on the curve."""
    curve.require(p)
    curve.require(q)
    return _add(curve, p, q)


def ec_double(curve: WeierstrassCurve, p: ECPoint) -> ECPoint:
    """2P via the tangent line; 2P is the identity exactly when u = 0."""
    curve.require(p)
    return _add(curve, p, p)


def _add(curve: WeierstrassCurve, p: ECPoint, q: ECPoint) -> ECPoint:
    """The group law with no membership check: p and q must lie on the
    curve, and then so does the result."""
    if p.is_infinity:
        return q
    if q.is_infinity:
        return p
    if p.v == q.v:
        if p.u == -q.u:  # inverse pair, or a 2-torsion point doubled
            return INFINITY
        slope = (3 * p.v * p.v + 2 * curve.c2 * p.v + curve.c1) / (2 * p.u)
    else:
        slope = (q.u - p.u) / (q.v - p.v)
    v3 = slope * slope - curve.c2 - p.v - q.v
    return ECPoint(v3, slope * (p.v - v3) - p.u)


def multiple(curve: WeierstrassCurve, n: int, p: ECPoint,
             max_digits: int | None = None) -> ECPoint:
    """nP by double-and-add; (-n)P = -(nP).

    With max_digits, an OverflowError as soon as an intermediate multiple
    jP shows that nP has a coordinate with a numerator or denominator of
    more than max_digits digits.  Every jP here has j <= |n|, so its
    canonical height is at most nP's, and the naive height h(v) of a
    point differs from twice its canonical height by at most 8b plus a
    few bits, b the largest bit length of L, N2, N1 and N0: Silverman's
    bound (Math. Comp. 55, 1990) on the model (L^2 v, L^3 u), whose
    coefficients have weighted sizes up to 6b, gives 6b, and the scaling
    by L^2 two more.  So h(v) of jP exceeds nP's by at most 16b plus a
    few bits, and a v with more than twice the limit's bits plus 16b
    bits rules out every printable nP.
    """
    curve.require(p)
    if n < 0:
        n, p = -n, -p
    cap = None
    if max_digits is not None:
        cap = (2 * (10 ** max_digits).bit_length()
               + 16 * max(x.bit_length() for x in curve._integral))
    acc = INFINITY
    while n:
        if n & 1:
            acc = _add(curve, acc, p)
        n >>= 1
        if n:
            p = _add(curve, p, p)
        if cap is not None and max(_height_bits(acc), _height_bits(p)) > cap:
            raise OverflowError(f"the multiple has parts of more than {max_digits} digits")
    return acc


def _height_bits(point: ECPoint) -> int:
    """The bit length of the larger part of v, 0 at infinity."""
    if point.is_infinity:
        return 0
    return max(point.v.numerator.bit_length(), point.v.denominator.bit_length())

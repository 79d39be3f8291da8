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
tests on integers, the point, `Point`, and the bounded torsion search,
which walks the integral model in integers, live in `weierstrass`,
which never imports `fractions`; this module re-exports the curve and
the search.  This module adds the Fraction group law: `_add`, and
`ec_add`, `ec_double` and `multiple`, which check their points first.
It takes the points as given, ints or Fractions: each slope is built as
`Fraction(num, den)`, so every sum it computes has Fraction
coordinates, and a mix of int and Fraction inputs stays exact.
"""

from __future__ import annotations

from fractions import Fraction

# the curve and the torsion search, re-exported as `elliptic.<name>`
from .weierstrass import Point, WeierstrassCurve, torsion_order_bounded


INFINITY = Point(None, None)


def ec_add(curve: WeierstrassCurve, p: Point, q: Point) -> Point:
    """Chord-and-tangent sum; the identity is the point at infinity and
    -(v, u) = (v, -u).  Both operands are checked to lie on the curve."""
    curve.require(p)
    curve.require(q)
    return _add(curve, p, q)


def ec_double(curve: WeierstrassCurve, p: Point) -> Point:
    """2P via the tangent line; 2P is the identity exactly when u = 0."""
    curve.require(p)
    return _add(curve, p, p)


def _add(curve: WeierstrassCurve, p: Point, q: Point) -> Point:
    """The group law with no membership check: p and q must lie on the
    curve, and then so does the result."""
    if p.is_infinity:
        return q
    if q.is_infinity:
        return p
    if p.v == q.v:
        if p.u == -q.u:  # inverse pair, or a 2-torsion point doubled
            return INFINITY
        slope = Fraction(3 * p.v * p.v + 2 * curve.c2 * p.v + curve.c1, 2 * p.u)
    else:
        slope = Fraction(q.u - p.u, q.v - p.v)
    v3 = slope * slope - curve.c2 - p.v - q.v
    return Point(v3, slope * (p.v - v3) - p.u)


def multiple(curve: WeierstrassCurve, n: int, p: Point,
             max_digits: int | None = None) -> Point:
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


def _height_bits(point: Point) -> int:
    """The bit length of the larger part of v, 0 at infinity."""
    if point.is_infinity:
        return 0
    return max(point.v.numerator.bit_length(), point.v.denominator.bit_length())

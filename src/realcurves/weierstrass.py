"""Curves u^2 = v^3 + c2*v^2 + c1*v + c0 over Q, their points, and the
bounded torsion search, all computed on integers.

A curve keeps its coefficients as given, ints or Fractions, and beside
them their integer form (L, N2, N1, N0) from `rationals.integer_form`,
with c_i = N_i / L over L, the lcm of their denominators.  The
discriminant and the membership test run on those integers.  A point,
`Point`, the package's only point class, keeps its coordinates as given
too, and `elliptic`'s Fraction group law takes and returns it.

v = V / L^2 and u = U / L^3 take the curve to its integral model

    U^2 = V^3 + N2*L*V^2 + N1*L^3*V + N0*L^5,

on which every rational torsion point has integer coordinates
(Nagell-Lutz; Silverman-Tate, Rational Points on Elliptic Curves,
ch. II), so the torsion search walks the multiples of a point there in
integers.

This module never imports `fractions`: it reads a Fraction only through
its `numerator` and `denominator`, takes the class from `sys.modules`
only to let a `Point` of ints and Fractions skip its check, and builds one
only for the residual of an off-curve error whose curve or point holds
a Fraction already.
So a call on integers, such as `ec torsion` on an integral curve and
point, runs without `fractions`, `decimal` and `numbers`.
"""

from __future__ import annotations

import sys

from ._record import Record
from .errors import OffCurveError, SingularCurveError
from .rationals import Rational, integer_form


class Point(Record):
    """Either the point at infinity (both coordinates None) or an affine
    point (v, u) with int or Fraction coordinates, kept as given.  A
    coordinate of exactly type int or Fraction, as the group law and
    the eta model build, passes as it is; any other value, a bool or a
    None beside a number too, goes to `rationals.integer_form`, whose
    TypeError rejects it."""

    __slots__ = _fields = ("v", "u")

    def __init__(self, v: Rational | None, u: Rational | None):
        # no Fraction exists before `fractions` has run
        exact = (int, getattr(sys.modules.get("fractions"), "Fraction", None))
        if (v is not None or u is not None) and not (type(v) in exact and type(u) in exact):
            integer_form((v, u))  # the type check
        self._init(v, u)

    @property
    def is_infinity(self) -> bool:
        return self.v is None

    def __neg__(self) -> "Point":
        if self.is_infinity:
            return self
        return self.__class__(self.v, -self.u)

    def __str__(self) -> str:
        if self.is_infinity:
            return "Infinity"
        return f"({self.v}, {self.u})"


class WeierstrassCurve(Record):
    """u^2 = v^3 + c2*v^2 + c1*v + c0 with rational coefficients, kept
    as given, and nonzero discriminant."""

    _fields = ("c2", "c1", "c0")
    __slots__ = _fields + ("_integral",)

    def __init__(self, c2: Rational, c1: Rational, c0: Rational):
        scale, numerators = integer_form((c2, c1, c0))
        # _integral is (L, N2, N1, N0) with c_i = N_i / L
        self._init(c2, c1, c0, (scale, *numerators))
        if self._scaled_discriminant() == 0:
            raise SingularCurveError(f"cubic has a repeated root: {self}")

    def _scaled_discriminant(self) -> int:
        """The discriminant of the cubic times L^4."""
        scale, n2, n1, n0 = self._integral
        return (18 * n2 * n1 * n0 * scale - 4 * n2 ** 3 * n0 + n2 * n2 * n1 * n1
                - 4 * n1 ** 3 * scale - 27 * n0 * n0 * scale * scale)

    def _scaled_residual(self, point: Point) -> tuple[int, int]:
        """u^2 - (v^3 + c2 v^2 + c1 v + c0) as an integer numerator over
        a positive denominator: for v = a/d and u = e/f that is
        e^2 d^3 L - f^2 (a^3 L + N2 a^2 d + N1 a d^2 + N0 d^3) over
        f^2 d^3 L, not reduced."""
        if point.is_infinity:
            return 0, 1
        scale, n2, n1, n0 = self._integral
        a, d = point.v.numerator, point.v.denominator
        e, f = point.u.numerator, point.u.denominator
        d2 = d * d
        d3 = d2 * d
        ff = f * f
        num = e * e * d3 * scale - ff * (((a * scale + n2 * d) * a + n1 * d2) * a
                                          + n0 * d3)
        return num, ff * d3 * scale

    def contains(self, point: Point) -> bool:
        return self._scaled_residual(point)[0] == 0

    def require(self, point: Point) -> None:
        """Nothing, or an OffCurveError with the residual: an int when
        the curve and the point hold ints only, else a Fraction."""
        num, den = self._scaled_residual(point)
        if num:
            if all(type(x) is int for x in (self.c2, self.c1, self.c0, point.v, point.u)):
                raise OffCurveError(point, num)  # den is 1
            # a Fraction is held, so `fractions` has run
            raise OffCurveError(point, sys.modules["fractions"].Fraction(num, den))

    def __str__(self) -> str:
        return f"u^2 = v^3 + ({self.c2})*v^2 + ({self.c1})*v + ({self.c0})"


def torsion_order_bounded(curve: WeierstrassCurve, p: Point,
                          bound: int) -> int | None:
    """Smallest n <= bound with nP = Infinity, or None if there is none.

    By Mazur's theorem no rational point has finite order above 12, so
    the search stops at min(bound, 12).  Every multiple of a torsion
    point is torsion, so its image on the integral model has integer
    coordinates, and the search walks the images of P, 2P, ... there in
    integers.  It returns None at the first multiple that is not
    integral: P itself, or the sum at the first chord or tangent slope
    that is not an integer.  A rational slope s gives V = s^2 - N2*L -
    V1 - V2, so an integer V makes s^2, and then s, an integer.
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    curve.require(p)
    if p.is_infinity:
        return 1
    scale, n2, n1, _ = curve._integral
    scale2 = scale * scale
    scale3 = scale2 * scale
    v, u = p.v, p.u
    if scale2 % v.denominator or scale3 % u.denominator:
        return None
    # P on the integral model, and the V^2 and V coefficients of the model
    v1, u1 = scale2 // v.denominator * v.numerator, scale3 // u.denominator * u.numerator
    a2, a1 = n2 * scale, n1 * scale3
    x, y = v1, u1  # nP, from n = 1
    for n in range(2, min(bound, 12) + 1):
        if x == v1:
            if y == -u1:  # (n-1)P = -P
                return n
            num, den = (3 * x + 2 * a2) * x + a1, 2 * y  # the tangent at P
        else:
            num, den = y - u1, x - v1
        slope, rest = divmod(num, den)
        if rest:
            return None
        x3 = slope * slope - a2 - x - v1
        x, y = x3, slope * (x - x3) - y
    return None

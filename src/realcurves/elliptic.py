"""Exact elliptic-curve arithmetic over Q on curves u^2 = v^3 + c2*v^2 + c1*v + c0.

The cubic keeps its v^2 term (no depression to short form) because the
models built downstream arrive as products of three explicit v-factors
and their marked points should stay bit-identical to those expressions.

All arithmetic is exact rational chord-and-tangent; there is no
tolerance parameter anywhere.  The public functions check their point
arguments once on entry, rejecting an off-curve point with the exact
residual of the curve equation, and then iterate with the unchecked
group law `_add`.

A curve keeps its coefficients as Fractions and, beside them, as
integers N2, N1, N0 over L, the lcm of their denominators, from
`rationals.integer_form`.  The discriminant and the membership test run
on those integers; a Fraction is built only for the residual that an
`OffCurveError` carries.  The same L gives the integral model
v -> L^2 v, u -> L^3 u, on which every rational torsion point has
integer coordinates (Nagell-Lutz), so the torsion search stops at the
first multiple without them.
"""

from __future__ import annotations

from fractions import Fraction

from ._record import Record
from .errors import OffCurveError, SingularCurveError
from .rationals import Rational, integer_form


def as_fraction(x: Rational) -> Fraction:
    """An int or a Fraction as a Fraction; anything else is a TypeError."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


class ECPoint(Record):
    """Either the point at infinity (both coordinates None) or an affine
    point (v, u) with Fraction coordinates; int coordinates become
    Fractions, and any other type is a TypeError."""

    __slots__ = _fields = ("v", "u")

    def __init__(self, v: Rational | None, u: Rational | None):
        if not ((isinstance(v, Fraction) and isinstance(u, Fraction))
                or (v is None and u is None)):
            v, u = as_fraction(v), as_fraction(u)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "u", u)

    @property
    def is_infinity(self) -> bool:
        return self.v is None

    def __neg__(self) -> "ECPoint":
        if self.is_infinity:
            return self
        return ECPoint(self.v, -self.u)

    def __str__(self) -> str:
        if self.is_infinity:
            return "Infinity"
        return f"({self.v}, {self.u})"


INFINITY = ECPoint(None, None)


class WeierstrassCurve(Record):
    """u^2 = v^3 + c2*v^2 + c1*v + c0 with rational coefficients and
    nonzero discriminant."""

    _fields = ("c2", "c1", "c0")
    __slots__ = _fields + ("_integral",)

    def __init__(self, c2: Rational, c1: Rational, c0: Rational):
        c2, c1, c0 = as_fraction(c2), as_fraction(c1), as_fraction(c0)
        object.__setattr__(self, "c2", c2)
        object.__setattr__(self, "c1", c1)
        object.__setattr__(self, "c0", c0)
        scale, numerators = integer_form((c2, c1, c0))
        # (L, N2, N1, N0) with c_i = N_i / L
        object.__setattr__(self, "_integral", (scale, *numerators))
        if self._scaled_discriminant() == 0:
            raise SingularCurveError(f"cubic has a repeated root: {self}")

    def _scaled_discriminant(self) -> int:
        """The discriminant of the cubic times L^4."""
        scale, n2, n1, n0 = self._integral
        return (18 * n2 * n1 * n0 * scale - 4 * n2 ** 3 * n0 + n2 * n2 * n1 * n1
                - 4 * n1 ** 3 * scale - 27 * n0 * n0 * scale * scale)

    def _scaled_residual(self, point: ECPoint) -> tuple[int, int]:
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

    def contains(self, point: ECPoint) -> bool:
        return self._scaled_residual(point)[0] == 0

    def require(self, point: ECPoint) -> None:
        num, den = self._scaled_residual(point)
        if num:
            raise OffCurveError(point, Fraction(num, den))

    def __str__(self) -> str:
        return f"u^2 = v^3 + ({self.c2})*v^2 + ({self.c1})*v + ({self.c0})"


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


def torsion_order_bounded(curve: WeierstrassCurve, p: ECPoint,
                          bound: int) -> int | None:
    """Smallest n <= bound with nP = Infinity, or None if there is none.

    By Mazur's theorem no rational point has finite order above 12, so
    the search stops at min(bound, 12).  Every multiple of a torsion
    point is torsion, and by Nagell-Lutz its image (L^2 v, L^3 u) on the
    integral model has integer coordinates; the search returns None at
    the first multiple whose image does not.
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    curve.require(p)
    scale = curve._integral[0]
    scale2 = scale * scale
    scale3 = scale2 * scale
    acc = INFINITY
    for n in range(1, min(bound, 12) + 1):
        acc = _add(curve, acc, p)
        if acc.is_infinity:
            return n
        if scale2 % acc.v.denominator or scale3 % acc.u.denominator:
            return None
    return None

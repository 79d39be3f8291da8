"""Exact elliptic-curve arithmetic over Q on curves u^2 = v^3 + c2*v^2 + c1*v + c0.

The cubic keeps its v^2 term (no depression to short form) because the
models built downstream arrive as products of three explicit v-factors
and their marked points should stay bit-identical to those expressions.

All arithmetic is exact rational chord-and-tangent; there is no
tolerance parameter anywhere.  The public functions check their point
arguments once on entry, rejecting an off-curve point with the exact
residual of the curve equation, and then iterate with the unchecked
group law `_add`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .polys import as_fraction


class SingularCurveError(ValueError):
    """The cubic has a repeated root (discriminant zero)."""


class OffCurveError(ValueError):
    def __init__(self, point: "ECPoint", residual: Fraction):
        super().__init__(f"point {point} is not on the curve; residual {residual}")
        self.point = point
        self.residual = residual


@dataclass(frozen=True)
class ECPoint:
    """Either the point at infinity (both coordinates None) or an affine
    point (v, u)."""

    v: Fraction | None
    u: Fraction | None

    @classmethod
    def affine(cls, v, u) -> "ECPoint":
        return cls(as_fraction(v), as_fraction(u))

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


@dataclass(frozen=True)
class WeierstrassCurve:
    """u^2 = v^3 + c2*v^2 + c1*v + c0 with rational coefficients and
    nonzero discriminant."""

    c2: Fraction
    c1: Fraction
    c0: Fraction

    def __post_init__(self):
        object.__setattr__(self, "c2", as_fraction(self.c2))
        object.__setattr__(self, "c1", as_fraction(self.c1))
        object.__setattr__(self, "c0", as_fraction(self.c0))
        if self.discriminant() == 0:
            raise SingularCurveError(f"cubic has a repeated root: {self}")

    def discriminant(self) -> Fraction:
        a, b, c = self.c2, self.c1, self.c0
        return (18 * a * b * c - 4 * a ** 3 * c + a ** 2 * b ** 2
                - 4 * b ** 3 - 27 * c ** 2)

    def rhs(self, v: Fraction) -> Fraction:
        return ((v + self.c2) * v + self.c1) * v + self.c0

    def residual(self, point: ECPoint) -> Fraction:
        if point.is_infinity:
            return Fraction(0)
        return point.u * point.u - self.rhs(point.v)

    def contains(self, point: ECPoint) -> bool:
        return self.residual(point) == 0

    def require(self, point: ECPoint) -> None:
        res = self.residual(point)
        if res != 0:
            raise OffCurveError(point, res)

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


def multiple(curve: WeierstrassCurve, n: int, p: ECPoint) -> ECPoint:
    """nP by double-and-add; (-n)P = -(nP)."""
    curve.require(p)
    if n < 0:
        n, p = -n, -p
    acc = INFINITY
    while n:
        if n & 1:
            acc = _add(curve, acc, p)
        n >>= 1
        if n:
            p = _add(curve, p, p)
    return acc


def torsion_order_bounded(curve: WeierstrassCurve, p: ECPoint,
                          bound: int) -> int | None:
    """Smallest n <= bound with nP = Infinity, or None if there is none.

    Callers interested in rational torsion pass bound 12, which covers
    every order allowed by Mazur's theorem.
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    curve.require(p)
    acc = INFINITY
    for n in range(1, bound + 1):
        acc = _add(curve, acc, p)
        if acc.is_infinity:
            return n
    return None

"""Exact univariate polynomial algebra over the rationals.

Coefficients are `fractions.Fraction` throughout and every operation is
exact; there is no floating point anywhere in this module.  The case
analysis downstream (component counts, group structures) is discrete, so
a single wrong sign would flip an entire output group -- hence the hard
exactness requirement.

Real-root counting uses Sturm's theorem: the number of distinct real
roots of a square-free polynomial p in (a, b] equals V(a) - V(b), where
V(x) counts sign changes in the Sturm sequence evaluated at x.  The
whole real line is covered by evaluating at -(M+1) and M+1 for the
Cauchy bound M = 1 + max|a_i / a_d|, which avoids symbolic infinities.

Integer roots of the resolvent cubic need no Sturm chain: its critical
points split the line into monotone runs, each searched by integer
bisection on the sign of the cubic itself.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import Iterable, Sequence, Union

Rational = Union[int, Fraction]


def as_fraction(x: Union[int, str, Fraction]) -> Fraction:
    """Coerce ints, Fractions, and 'p/q' strings to an exact Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x.strip())
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def rational_sqrt(x: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None if irrational.

    A fraction in lowest terms is a square iff numerator and denominator
    are both perfect squares.
    """
    if x < 0:
        return None
    n, d = x.numerator, x.denominator
    rn, rd = isqrt(n), isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


class UniPoly:
    """Immutable univariate polynomial with Fraction coefficients.

    Coefficients are stored in ascending degree order with the trailing
    zeros trimmed, so the leading coefficient is nonzero unless the
    polynomial is zero.  The zero polynomial has degree -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coefficients: Iterable[Rational]):
        coeffs = [as_fraction(c) if not isinstance(c, Fraction) else c
                  for c in coefficients]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("UniPoly is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "UniPoly":
        return cls(())

    @classmethod
    def constant(cls, c: Rational) -> "UniPoly":
        return cls((c,))

    @classmethod
    def x(cls) -> "UniPoly":
        return cls((0, 1))

    @classmethod
    def monomial(cls, c: Rational, exponent: int) -> "UniPoly":
        if exponent < 0:
            raise ValueError("negative exponent")
        return cls([0] * exponent + [c])

    # -- basic queries -------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> Fraction:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coefficient(self, exponent: int) -> Fraction:
        if 0 <= exponent < len(self.coeffs):
            return self.coeffs[exponent]
        return Fraction(0)

    def __eq__(self, other) -> bool:
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"UniPoly({list(self.coeffs)!r})"

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "UniPoly") -> "UniPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, cb in enumerate(b):
            out[i] += cb
        return UniPoly(out)

    def __neg__(self) -> "UniPoly":
        return UniPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        return self + (-other)

    def __mul__(self, other) -> "UniPoly":
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return UniPoly.zero()
            return UniPoly(tuple(c * other for c in self.coeffs))
        if not isinstance(other, UniPoly):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return UniPoly.zero()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, ca in enumerate(self.coeffs):
            if ca == 0:
                continue
            for j, cb in enumerate(other.coeffs):
                out[i + j] += ca * cb
        return UniPoly(out)

    __rmul__ = __mul__

    def __divmod__(self, other: "UniPoly") -> tuple["UniPoly", "UniPoly"]:
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(self.coeffs) - len(other.coeffs)
        if dq < 0:
            return UniPoly.zero(), self
        quot = [Fraction(0)] * (dq + 1)
        lead = other.leading
        db = other.degree
        for i in range(dq, -1, -1):
            coef = rem[i + db] / lead
            if coef == 0:
                continue
            quot[i] = coef
            for j, cb in enumerate(other.coeffs):
                rem[i + j] -= coef * cb
        return UniPoly(quot), UniPoly(rem)

    def __floordiv__(self, other: "UniPoly") -> "UniPoly":
        return divmod(self, other)[0]

    def __mod__(self, other: "UniPoly") -> "UniPoly":
        return divmod(self, other)[1]

    def __call__(self, v: Rational) -> Fraction:
        v = as_fraction(v) if not isinstance(v, Fraction) else v
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * v + c
        return acc

    def derivative(self) -> "UniPoly":
        return UniPoly(tuple(i * c for i, c in enumerate(self.coeffs) if i > 0))

    def monic(self) -> "UniPoly":
        if self.is_zero:
            return self
        lead = self.leading
        if lead == 1:
            return self
        return UniPoly(tuple(c / lead for c in self.coeffs))

    def shift(self, h: Rational) -> "UniPoly":
        """Return p(x + h)."""
        h = as_fraction(h)
        acc = UniPoly.zero()
        xh = UniPoly((h, 1))
        for c in reversed(self.coeffs):
            acc = acc * xh + UniPoly.constant(c)
        return acc

    def __str__(self) -> str:
        return format_poly(self)


def format_poly(p: UniPoly, var: str = "x") -> str:
    """Human-readable descending-order form, e.g. 'x^4 - 10*x^2 + 9'."""
    if p.is_zero:
        return "0"
    parts: list[str] = []
    for e in range(p.degree, -1, -1):
        c = p.coefficient(e)
        if c == 0:
            continue
        mag = abs(c)
        if e == 0:
            body = str(mag)
        else:
            v = var if e == 1 else f"{var}^{e}"
            body = v if mag == 1 else f"{mag}*{v}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


def poly_gcd(p: UniPoly, q: UniPoly) -> UniPoly:
    """Monic greatest common divisor; gcd(p, 0) = monic(p)."""
    a, b = p, q
    while not b.is_zero:
        a, b = b, a % b
    return a.monic()


def is_square_free(p: UniPoly) -> bool:
    """True iff p has no repeated roots, i.e. gcd(p, p') is constant."""
    if p.is_zero:
        raise ValueError("zero polynomial is not admissible")
    return poly_gcd(p, p.derivative()).degree <= 0


def sturm_sequence(p: UniPoly) -> list[UniPoly]:
    """Canonical Sturm chain: p, p', then negated remainders."""
    seq = [p, p.derivative()]
    while not seq[-1].is_zero:
        rem = seq[-2] % seq[-1]
        if rem.is_zero:
            break
        seq.append(-rem)
    return [q for q in seq if not q.is_zero]


def sign_variations(values: Sequence[Fraction]) -> int:
    """Sign changes in a sequence, zeros skipped."""
    signs = [v > 0 for v in values if v != 0]
    return sum(1 for i in range(len(signs) - 1) if signs[i] != signs[i + 1])


def cauchy_bound(p: UniPoly) -> Fraction:
    """Every real root of p lies in (-M, M) with M = 1 + max|a_i/a_d|."""
    if p.is_zero:
        raise ValueError("zero polynomial has no root bound")
    lead = abs(p.leading)
    if p.degree == 0:
        return Fraction(1)
    return 1 + max(abs(c) / lead for c in p.coeffs[:-1])


def _variations_at(seq: Sequence[UniPoly], x: Fraction) -> int:
    return sign_variations([q(x) for q in seq])


def sturm_count(seq: Sequence[UniPoly], a: Fraction, b: Fraction) -> int:
    """Distinct real roots of seq[0] in the half-open interval (a, b]."""
    return _variations_at(seq, a) - _variations_at(seq, b)


def count_real_roots(p: UniPoly) -> int:
    """Exact number of distinct real roots of a square-free polynomial.

    Repeated roots are rejected rather than silently miscounted.  The
    last element of the Sturm chain is gcd(p, p') up to a constant, so
    the chain itself decides square-freeness.
    """
    if p.is_zero:
        raise ValueError("zero polynomial rejected")
    if p.degree == 0:
        return 0
    seq = sturm_sequence(p)
    if seq[-1].degree > 0:
        raise ValueError("polynomial is not square-free")
    bound = cauchy_bound(p) + 1
    return sturm_count(seq, -bound, bound)


def integer_roots_monic(p: UniPoly) -> list[int]:
    """All integer roots of a monic integer polynomial of degree at most 3.

    Every rational root of such a polynomial is an integer (rational
    root theorem).  The critical points, (-c2 +- sqrt(c2^2 - 3*c1))/3
    for degree 3 and -c1/2 for degree 2, are bracketed between integers
    (through isqrt) where p is evaluated directly; each monotone run
    between the brackets and the Cauchy bound +-(1 + max|c_i|) is
    searched by integer bisection on the sign of p.  Degree above 3
    raises ValueError.
    """
    if p.is_zero:
        raise ValueError("zero polynomial")
    if p.leading != 1:
        raise ValueError("polynomial must be monic")
    if any(c.denominator != 1 for c in p.coeffs):
        raise ValueError("polynomial must have integer coefficients")
    if p.degree > 3:
        raise ValueError("polynomial must have degree at most 3")
    coeffs = [c.numerator for c in reversed(p.coeffs)]  # descending

    def value_at(n: int) -> int:
        acc = 0
        for c in coeffs:
            acc = acc * n + c
        return acc

    bound = 1 + max((abs(c) for c in coeffs[1:]), default=0)
    points = {-bound, bound}
    if p.degree == 2:
        c1 = coeffs[1]
        points.update(range(-c1 // 2, -(c1 // 2) + 1))
    elif p.degree == 3:
        c2, c1 = coeffs[1], coeffs[2]
        disc = c2 * c2 - 3 * c1
        if disc >= 0:
            s = isqrt(disc)
            # each critical point lies in ((centre - 1)/3, (centre + 1)/3)
            for centre in (-c2 - s, -c2 + s):
                points.update(range((centre - 1) // 3, -((-centre - 1) // 3) + 1))
    ends = sorted(points)
    values = [value_at(n) for n in ends]
    roots = [n for n, v in zip(ends, values) if v == 0]
    # no critical point lies strictly between consecutive ends, so p is
    # strictly monotone there and a sign change brackets exactly one root
    for lo, hi, v_lo, v_hi in zip(ends, ends[1:], values, values[1:]):
        if hi - lo < 2 or v_lo * v_hi >= 0:
            continue
        while hi - lo > 1:
            mid = (lo + hi) // 2
            v_mid = value_at(mid)
            if v_mid == 0:
                roots.append(mid)
                break
            if (v_mid < 0) == (v_lo < 0):
                lo = mid
            else:
                hi = mid
    return sorted(roots)

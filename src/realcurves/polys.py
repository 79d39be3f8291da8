"""Exact univariate polynomial algebra over the rationals.

`UniPoly` holds integer numerators over one positive common denominator
coprime to their content, and every operation is exact; there is no
floating point anywhere in this module.
The case analysis downstream (component counts, group structures) is
discrete, so a single wrong sign would flip an entire output group --
hence the hard exactness requirement.

`UniPoly` takes its coefficients through `rationals.integer_form`,
and `exact_isqrt` is the package's one test of an integer for being a
square.  `str(UniPoly)` writes its numerators over its denominator with
`_format.format_terms` and builds no Fraction; only `coeffs` builds
Fractions.  Each imports what it uses where it runs, so `sample`, which
displays no polynomial, loads neither `_format` nor `fractions` for this
module.  A conic needs none of it: `parser` and `curves` reach it
through `from . import polys`, so a conic's analysis never executes it.

The only polynomial division is an integer pseudo-remainder, and one
remainder chain built on it gives the Sturm chain, square-freeness and
the gcd.  The chain is a primitive polynomial remainder sequence
(Brown-Traub; Cohen, GTM 138, 3.3): every element is scaled by a
positive constant to a primitive integer polynomial, kept as a tuple of
its coefficients, which keeps the signs of the Euclidean chain and the
coefficients small.  It starts from a polynomial's numerators over
their content, and its last element is the gcd up to a constant.

Real-root counting uses Sturm's theorem: the number of distinct real
roots of a square-free polynomial p in (a, b] equals V(a) - V(b), where
V(x) counts sign changes in the Sturm sequence evaluated at x.  The
whole real line is covered by reading V at -oo and +oo, where each
element has the sign of its leading coefficient, times (-1)^degree at
-oo, so nothing is evaluated.

Integer roots of the resolvent cubic need no Sturm chain.  Its roots lie
inside Fujiwara's bound 2*max(|c2|, |c1|^(1/2), |c0|^(1/3)), rounded up
to a power of two from the coefficients' bit lengths, and its critical
points split that bracket into monotone runs, searched from the right
by integer bisection on the sign of the cubic itself.  The first
integer root deflates the cubic to a quadratic, whose roots come from
`exact_isqrt` of its discriminant, so no other run is searched.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from math import gcd, isqrt

from ._record import Record
from .rationals import Rational, integer_form


def exact_isqrt(n: int) -> int | None:
    """The square root of n when n is the square of an integer, else None."""
    if n < 0:
        return None
    root = isqrt(n)
    return root if root * root == n else None


class UniPoly(Record):
    """Immutable univariate polynomial with rational coefficients.

    It is held in one canonical form: integer `numerators` in ascending
    degree order, trailing zeros trimmed, over a positive `denominator`
    coprime to their content, so equal polynomials have equal fields.
    The zero polynomial is ((), 1) and has degree -1.  `coeffs` is the
    derived tuple of Fraction coefficients.
    """

    __slots__ = _fields = ("numerators", "denominator")

    def __init__(self, coefficients: Iterable[Rational]):
        den, numerators = integer_form(list(coefficients))
        self._reduce(numerators, den)

    @classmethod
    def from_integers(cls, numerators: Iterable[int], denominator: int = 1) -> UniPoly:
        """sum(numerators[i] * x^i) / denominator."""
        p = cls.__new__(cls)
        p._reduce(numerators, denominator)
        return p

    def _reduce(self, numerators: Iterable[int], denominator: int) -> None:
        if not denominator:
            raise ZeroDivisionError("zero denominator")
        nums = list(numerators)
        while nums and nums[-1] == 0:
            nums.pop()
        g = gcd(denominator, *nums)
        if denominator < 0:
            g = -g
        if g != 1:
            nums, denominator = [c // g for c in nums], denominator // g
        object.__setattr__(self, "numerators", tuple(nums))
        object.__setattr__(self, "denominator", denominator)

    # -- basic queries -------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        from fractions import Fraction  # here, its one use in this module

        den = self.denominator
        return tuple(Fraction(c, den) for c in self.numerators)

    @property
    def degree(self) -> int:
        return len(self.numerators) - 1

    @property
    def is_zero(self) -> bool:
        return not self.numerators

    def __repr__(self) -> str:
        return f"UniPoly({list(self.coeffs)!r})"

    # -- arithmetic ----------------------------------------------------

    def __neg__(self) -> UniPoly:
        return UniPoly.from_integers([-c for c in self.numerators], self.denominator)

    def monic(self) -> UniPoly:
        if self.is_zero:
            return self
        return UniPoly.from_integers(self.numerators, self.numerators[-1])

    def __str__(self) -> str:
        """Descending-order form, e.g. 'x^4 - 10*x^2 + 9'."""
        from ._format import format_terms  # here, so that `sample` skips it

        nums = self.numerators
        return format_terms(((nums[e], f"x^{e}" if e > 1 else "x" if e else "")
                             for e in range(len(nums) - 1, -1, -1)),
                            self.denominator) or "0"


def _primitive(coeffs: Sequence[int]) -> list[int]:
    """Integer coefficients divided by their positive content."""
    content = gcd(*coeffs)
    return list(coeffs) if content == 1 else [c // content for c in coeffs]


def _pseudo_remainder(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """A positive integer multiple of a mod b, for integer polynomials in
    ascending order with b nonzero.

    Each step scales the remainder by |lc(b)| / g and cancels its top
    term with a multiple of b, where g = gcd(top, lc(b)); the factors are
    positive, so the signs of a mod b are kept.
    """
    rem = list(a)
    lead = b[-1]
    sign = 1 if lead > 0 else -1
    db = len(b) - 1
    while len(rem) > db:
        top = rem.pop()
        if top:
            g = gcd(top, lead)
            scale, factor = abs(lead) // g, sign * top // g
            shift = len(rem) - db
            if scale != 1:
                rem = [scale * c for c in rem]
            for j in range(db):
                rem[shift + j] -= factor * b[j]
    while rem and rem[-1] == 0:
        rem.pop()
    return rem


def _remainder_chain(a: Sequence[int], b: Sequence[int]) -> list[tuple[int, ...]]:
    """a, b, then the negated primitive pseudo-remainders, up to the
    first zero remainder.

    Element i is a positive rational multiple of the element of the
    Euclidean chain (a, b, -(a mod b), ...), so the last element is
    gcd(a, b) up to a nonzero constant.
    """
    chain = [tuple(a)]
    while b:
        chain.append(tuple(b))
        a, b = b, [-c for c in _primitive(_pseudo_remainder(a, b))]
    return chain


def sturm_sequence(p: UniPoly) -> list[tuple[int, ...]]:
    """Sturm chain of p up to positive constants: p, p', then negated
    remainders, each a primitive integer polynomial given as its tuple
    of coefficients in ascending order.

    Element i is a positive rational multiple of the canonical element
    (p, p', -(p mod p'), ...), so signs, degrees and the length of the
    chain are those of the canonical chain; the last element is
    gcd(p, p') up to a nonzero constant.
    """
    if p.is_zero:
        return []
    a = _primitive(p.numerators)
    return _remainder_chain(a, _primitive([i * c for i, c in enumerate(a) if i > 0]))


def poly_gcd(p: UniPoly, q: UniPoly) -> UniPoly:
    """Monic greatest common divisor; gcd(p, 0) = monic(p).

    It is the last element of the remainder chain on (p, q), made monic.
    """
    chain = _remainder_chain(_primitive(p.numerators), _primitive(q.numerators))
    return UniPoly.from_integers(chain[-1]).monic()


def is_square_free(p: UniPoly) -> bool:
    """True iff p has no repeated roots, i.e. the last element of its
    Sturm chain, gcd(p, p') up to a constant, is constant."""
    if p.is_zero:
        raise ValueError("zero polynomial is not admissible")
    return len(sturm_sequence(p)[-1]) == 1


def sign_variations(values: Sequence[Rational]) -> int:
    """Sign changes in a sequence, zeros skipped."""
    signs = [v > 0 for v in values if v != 0]
    return sum(1 for i in range(len(signs) - 1) if signs[i] != signs[i + 1])


def count_real_roots(p: UniPoly) -> int:
    """Exact number of distinct real roots of a square-free polynomial.

    Repeated roots are rejected rather than silently miscounted.  The
    last element of the Sturm chain is gcd(p, p') up to a constant, so
    the chain itself decides square-freeness.  The count is
    V(-oo) - V(+oo), read off the leading coefficients and the lengths
    of the chain's coefficient tuples.
    """
    if p.is_zero:
        raise ValueError("zero polynomial rejected")
    if p.degree == 0:
        return 0
    chain = sturm_sequence(p)
    if len(chain[-1]) > 1:
        raise ValueError("polynomial is not square-free")
    at_plus = [q[-1] for q in chain]
    # an element of odd degree has an even number of coefficients
    at_minus = [-q[-1] if len(q) % 2 == 0 else q[-1] for q in chain]
    return sign_variations(at_minus) - sign_variations(at_plus)


def integer_roots_monic(coeffs: Sequence[int]) -> list[int]:
    """All integer roots of a monic integer polynomial of degree at most 3,
    given by its coefficients in ascending order.

    Every rational root of such a polynomial is an integer (rational
    root theorem).  A quadratic's roots are read off `exact_isqrt` of
    its discriminant.  A cubic's roots lie inside Fujiwara's bound
    2*max(|c2|, |c1|^(1/2), |c0|^(1/3)), taken as the power of two 2^(e+1)
    with every term below 2^e, read off `bit_length()`.  Its critical
    points, (-c2 +- sqrt(c2^2 - 3*c1))/3, are bracketed between integers
    (through isqrt) where p is evaluated directly, and the monotone runs
    between the brackets and +-2^(e+1) are searched by integer bisection
    on the sign of p, the rightmost first.  The first integer root r
    found deflates the cubic to the quadratic p/(z - r), which gives the
    other roots; the remaining runs are not searched.  Degree above 3
    raises ValueError.
    """
    if not coeffs:
        raise ValueError("zero polynomial")
    if coeffs[-1] != 1:
        raise ValueError("polynomial must be monic")
    if not all(isinstance(c, int) for c in coeffs):
        raise ValueError("polynomial must have integer coefficients")
    degree = len(coeffs) - 1
    if degree > 3:
        raise ValueError("polynomial must have degree at most 3")
    if degree == 2:
        return _quadratic_roots(coeffs[1], coeffs[0])
    if degree < 2:
        return [-coeffs[0]] if degree else []
    c0, c1, c2 = coeffs[0], coeffs[1], coeffs[2]

    def value_at(n: int) -> int:
        return ((n + c2) * n + c1) * n + c0

    def deflated(root: int) -> list[int]:
        # p = (z - root)(z^2 + q1 z + q0) with p(root) = 0
        q1 = c2 + root
        return sorted({root, *_quadratic_roots(q1, c1 + root * q1)})

    # |c2| < 2^e, |c1| < 2^(2e) and |c0| < 2^(3e), so every root has
    # |z| < 2^(e+1); the critical points lie inside too (Gauss-Lucas)
    exponent = max(abs(c2).bit_length(), -(-abs(c1).bit_length() // 2),
                   -(-abs(c0).bit_length() // 3))
    bound = 2 << exponent
    points = {-bound, bound}
    disc = c2 * c2 - 3 * c1
    if disc >= 0:
        s = isqrt(disc)
        # each critical point lies in ((centre - 1)/3, (centre + 1)/3)
        for centre in (-c2 - s, -c2 + s):
            points.update(range((centre - 1) // 3, -((-centre - 1) // 3) + 1))
    # no critical point lies strictly between consecutive ends, so p is
    # strictly monotone there and a sign change brackets exactly one root;
    # the ends are read from the right, from the largest, beyond every root
    ends = sorted(points, reverse=True)
    hi, v_hi = ends[0], value_at(ends[0])
    for lo in ends[1:]:
        v_lo = value_at(lo)
        if v_lo == 0:
            return deflated(lo)
        if hi - lo > 1 and (v_lo < 0) != (v_hi < 0):
            left, right = lo, hi
            while right - left > 1:
                mid = (left + right) // 2
                v_mid = value_at(mid)
                if v_mid == 0:
                    return deflated(mid)
                if (v_mid < 0) == (v_lo < 0):
                    left = mid
                else:
                    right = mid
        hi, v_hi = lo, v_lo
    return []


def _quadratic_roots(c1: int, c0: int) -> list[int]:
    """The integer roots of z^2 + c1*z + c0, in ascending order: both are
    integers when the discriminant is an integer square, whose root then
    has the parity of c1, and neither is rational otherwise."""
    s = exact_isqrt(c1 * c1 - 4 * c0)
    if s is None:
        return []
    return sorted({(-c1 - s) // 2, (-c1 + s) // 2})

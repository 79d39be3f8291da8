"""Curve specifications and their topological/geometric invariant tuples.

Two kinds of smooth affine plane curve are modeled:

* conics -- zero sets of a degree-<=2 polynomial P(x, y), classified into
  six types (ellipse, parabola, hyperbola, imaginary ellipse, line, and
  the pair of conjugate complex lines, which is smooth and connected but
  not geometrically connected);
* hyperelliptic curves y^2 = Q(x) with Q nonconstant and square-free.

The invariant tuple records, for the smooth completion of the
complexified curve: the genus, the numbers of real and complex points at
infinity, the count of semi-algebraic connected components of the real
locus and how many of those are complete (circles rather than open
intervals).  For a curve with real points the components satisfy
s = t + r.

Conic classification works from exact signatures of the quadratic-form
matrices (the 2x2 affine part and the 3x3 projective matrix), scaled to
integer matrices from the conic's integer form.  The signatures are
read off the signs of the coefficients of the characteristic
polynomials, by Descartes' rule of signs, which is exact for
polynomials with all roots real.

A conic keeps its coefficients, ints or Fractions as the parser or the
caller gives them, beside their integer form over one common
denominator; classification and display run on the integers.  Only a
hyperelliptic curve needs `polys`, which this module reaches through
`from . import polys`, so a conic never executes it.
"""

from __future__ import annotations

from . import polys
from ._format import format_terms
from ._record import Record
from .errors import HypothesisError
from .rationals import Rational, integer_form


# ---------------------------------------------------------------------------
# Curve specifications
# ---------------------------------------------------------------------------

class ConicSpec(Record):
    """Coefficients of P(x,y) = xx*x^2 + xy*x*y + yy*y^2 + x1*x + y1*y + c0.

    The six coefficients are ints or Fractions, kept as given.  Beside
    them the spec keeps their integer form (D, numerators) from
    `rationals.integer_form`, the numerators over the lcm D of their
    denominators (a private slot, not part of equality or the repr);
    `classify_conic` and `display` read it.
    """

    _fields = ("xx", "xy", "yy", "x1", "y1", "c0")
    __slots__ = _fields + ("_integral",)

    def __init__(self, xx: Rational, xy: Rational, yy: Rational,
                 x1: Rational, y1: Rational, c0: Rational):
        values = (xx, xy, yy, x1, y1, c0)
        den, numerators = integer_form(values)
        if not any(numerators[:5]):
            raise HypothesisError("conic has no degree >= 1 terms")
        self._init(*values, (den, tuple(numerators)))

    def display(self) -> str:
        den, numerators = self._integral
        return format_terms(zip(numerators, _CONIC_MONOMIALS), den) + " = 0"


_CONIC_MONOMIALS = ("x^2", "x*y", "y^2", "x", "y", "")


class HyperellipticSpec(Record):
    """The curve y^2 = q(x) with q nonconstant and square-free."""

    # real_roots is k, from the Sturm chain that decides square-freeness
    __slots__ = ("q", "real_roots")
    _fields = ("q",)

    def __init__(self, q: polys.UniPoly):
        if q.is_zero or q.degree < 1:
            raise HypothesisError("right-hand side must be nonconstant")
        try:
            real_roots = polys.count_real_roots(q)
        except ValueError:
            raise HypothesisError("right-hand side must be square-free") from None
        self._init(q, real_roots)

    def display(self) -> str:
        return f"y^2 = {self.q}"


CurveSpec = ConicSpec | HyperellipticSpec


# ---------------------------------------------------------------------------
# Invariants
# ---------------------------------------------------------------------------

class CurveInvariants(Record):
    """Invariant tuple of a smooth connected non-complete real curve.

    genus is the genus of the completed complexification (of one
    component, when the complexification is disconnected).  For affine
    hyperelliptic input the degree and real-root count of Q are kept as
    well; they are None for conics and abstract tuples.  Every curve
    here is affine, so `to_json` writes "complete": false.
    """

    __slots__ = _fields = ("genus", "real_at_infinity", "complex_at_infinity",
                           "components", "compact_components",
                           "geometrically_connected", "degree", "real_roots")

    def __init__(self, genus: int,
                 real_at_infinity: int,     # real points of the completion outside the curve
                 complex_at_infinity: int,  # complex (conjugate-pair) points outside the curve
                 components: int,           # connected components of the real locus
                 compact_components: int,   # how many of those are circles
                 geometrically_connected: bool = True,
                 degree: int | None = None,  # degree of Q (hyperelliptic only)
                 real_roots: int | None = None):
        g, r, c, s, t = (genus, real_at_infinity, complex_at_infinity,
                         components, compact_components)
        if min(g, r, c, s, t) < 0:
            raise ValueError("invariants must be nonnegative")
        if s > 0 and s != t + r:
            raise ValueError(f"component count must satisfy s = t + r, got s={s}, t={t}, r={r}")
        if s == 0 and (t != 0 or r != 0):
            raise ValueError("empty real locus forces t = r = 0")
        if r + c == 0:
            raise ValueError("non-complete curve needs at least one point at infinity")
        if not geometrically_connected:
            if s != 0:
                raise ValueError("geometrically disconnected curves have no real points")
        if degree is not None and real_roots is not None:
            if real_roots > degree:
                raise ValueError("cannot have more real roots than the degree")
        self._init(g, r, c, s, t, geometrically_connected, degree, real_roots)

    @property
    def function_field_level(self) -> int | None:
        """Level of the function field: 1 iff geometrically disconnected,
        2 iff the real locus is empty (Pfister), None meaning infinite."""
        if not self.geometrically_connected:
            return 1
        if self.components == 0:
            return 2
        return None

    def to_json(self) -> dict:
        level = self.function_field_level
        d, k = self.degree, self.real_roots
        return {
            "d": d,
            "d_prime": None if d is None else d // 2,
            "k": k,
            "k_prime": None if k is None else k // 2,
            "g": self.genus,
            "r": self.real_at_infinity,
            "c": self.complex_at_infinity,
            "s": self.components,
            "t": self.compact_components,
            "complete": False,
            "geometrically_connected": self.geometrically_connected,
            "function_field_level": "infinite" if level is None else level,
        }


# ---------------------------------------------------------------------------
# Conic classification
# ---------------------------------------------------------------------------

ELLIPSE = "ellipse"
PARABOLA = "parabola"
HYPERBOLA = "hyperbola"
IMAGINARY_ELLIPSE = "imaginary_ellipse"
LINE = "line"
GEOM_DISCONNECTED = "geometrically_disconnected"


class ConicClass(Record):
    __slots__ = _fields = ("kind", "invariants")

    def __init__(self, kind: str, invariants: CurveInvariants):
        self._init(kind, invariants)


def _genus_zero(kind: str, r: int, c: int, s: int, t: int, **flags) -> ConicClass:
    return ConicClass(kind, CurveInvariants(
        genus=0, real_at_infinity=r, complex_at_infinity=c,
        components=s, compact_components=t, **flags))


# the six classes are records, built once
_LINE = _genus_zero(LINE, 1, 0, 1, 0)
_HYPERBOLA = _genus_zero(HYPERBOLA, 2, 0, 2, 0)
_IMAGINARY_ELLIPSE = _genus_zero(IMAGINARY_ELLIPSE, 0, 1, 0, 0)
_ELLIPSE = _genus_zero(ELLIPSE, 0, 1, 1, 1)
_PARABOLA = _genus_zero(PARABOLA, 1, 0, 1, 0)
_GEOM_DISCONNECTED = _genus_zero(GEOM_DISCONNECTED, 0, 1, 0, 0,
                                 geometrically_connected=False)


def classify_conic(spec: ConicSpec) -> ConicClass:
    """Sort a smooth conic into one of the six types with its invariants.

    Singular or really-reducible inputs (crossing lines, double lines,
    real parallel line pairs) are rejected: they are not smooth
    connected curves.

    The quadratic-form matrices are scaled by twice the spec's common
    denominator, a positive integer, which makes them integer matrices
    with the same signatures.  Their eigenvalues are real, so the signs
    of the coefficients of the characteristic polynomials decide the
    signatures (Descartes' rule is exact there).
    """
    _, (a, b, c, d, e, f) = spec._integral

    if a == 0 and b == 0 and c == 0:
        return _LINE

    # the quadratic part Q = [[2a, b], [b, 2c]] is definite when its
    # determinant is positive, indefinite when negative and of rank 1
    # when zero
    det2 = 4 * a * c - b * b
    # the projective matrix M = [[2a, b, d], [b, 2c, e], [d, e, 2f]] has
    # characteristic polynomial z^3 - trace z^2 + minors z - det; with
    # det = 0 and minors != 0 its rank is 2, and its two nonzero
    # eigenvalues have the sign of each other exactly when minors > 0
    aa, cc, ff = 2 * a, 2 * c, 2 * f
    minors = (aa * cc - b * b) + (aa * ff - d * d) + (cc * ff - e * e)
    det = aa * (cc * ff - e * e) - b * (b * ff - e * d) + d * (b * e - cc * d)
    if det != 0:
        if det2 < 0:
            return _HYPERBOLA
        if det2 > 0:
            # M is definite when its eigenvalues are all of one sign:
            # minors > 0 and trace and det of one sign
            if minors > 0 and (aa + cc + ff > 0) == (det > 0):
                return _IMAGINARY_ELLIPSE
            return _ELLIPSE
        # rank-1 quadratic part with full projective rank
        return _PARABOLA

    if minors > 0:
        # Two conjugate complex lines.  Their real intersection point is
        # the kernel direction k of the projective matrix M; the affine
        # curve is smooth iff k lies at infinity.  The adjugate of M is
        # a nonzero multiple of k k^T, so k_z^2 is a nonzero multiple of
        # the quadratic part's determinant.
        if det2 == 0:
            return _GEOM_DISCONNECTED
        raise HypothesisError(
            "not a smooth connected curve: conjugate lines meeting at a real affine point")
    if minors < 0:
        raise HypothesisError(
            "not a smooth connected curve: really-reducible conic (two real lines)")
    raise HypothesisError("not a smooth connected curve: double line")


# ---------------------------------------------------------------------------
# Hyperelliptic invariants
# ---------------------------------------------------------------------------

def hyperelliptic_invariants(spec: HyperellipticSpec) -> CurveInvariants:
    """Invariant tuple of y^2 = Q(x) from (deg Q, sign of leading
    coefficient, number of real roots of Q).

    Writing d' = floor(d/2) and k' = floor(k/2):

    * d odd: one real point at infinity, genus d', k = 2k'+1 real roots,
      s = k'+1 components of which t = k' are circles;
    * d even with negative leading coefficient: one complex point at
      infinity, genus d'-1, k = 2k' and s = t = k' (all components are
      ovals; the real locus is empty when k = 0);
    * d even with positive leading coefficient: two real points at
      infinity, genus d'-1, k = 2k'; two unbounded branches give
      s = k'+1, t = k'-1 for k > 0 and s = 2, t = 0 for k = 0.

    The curve is always geometrically connected (Q is square-free and
    nonconstant), so the function field has level 2 exactly when the
    real locus is empty and infinite level otherwise.
    """
    q = spec.q
    d = q.degree
    k = spec.real_roots
    kp = k // 2
    dp = d // 2
    if d % 2 == 1:
        g, r, c, s, t = dp, 1, 0, kp + 1, kp
    elif q.numerators[-1] < 0:
        g, r, c, s, t = dp - 1, 0, 1, kp, kp
    elif k > 0:
        g, r, c, s, t = dp - 1, 2, 0, kp + 1, kp - 1
    else:
        g, r, c, s, t = dp - 1, 2, 0, 2, 0
    return CurveInvariants(g, r, c, s, t, degree=d, real_roots=k)

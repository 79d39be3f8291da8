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
matrices (the 2x2 affine part and the 3x3 projective matrix).  The
signature is read off the characteristic polynomial by Descartes' rule
of signs, which is exact for polynomials with all roots real.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .polys import UniPoly, count_real_roots, sign_variations


class HypothesisError(ValueError):
    """Input violates a smoothness/connectedness hypothesis."""


class InternalInconsistencyError(RuntimeError):
    """A self-check failed; this should never fire."""


# ---------------------------------------------------------------------------
# Curve specifications
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConicSpec:
    """Coefficients of P(x,y) = xx*x^2 + xy*x*y + yy*y^2 + x1*x + y1*y + c0."""

    xx: Fraction
    xy: Fraction
    yy: Fraction
    x1: Fraction
    y1: Fraction
    c0: Fraction

    def __post_init__(self):
        if all(v == 0 for v in (self.xx, self.xy, self.yy, self.x1, self.y1)):
            raise HypothesisError("conic has no degree >= 1 terms")

    def display(self) -> str:
        terms = [
            (self.xx, "x^2"), (self.xy, "x*y"), (self.yy, "y^2"),
            (self.x1, "x"), (self.y1, "y"), (self.c0, ""),
        ]
        parts: list[str] = []
        for coef, mono in terms:
            if coef == 0:
                continue
            mag = abs(coef)
            if mono == "":
                body = str(mag)
            elif mag == 1:
                body = mono
            else:
                body = f"{mag}*{mono}"
            if not parts:
                parts.append(body if coef > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if coef > 0 else f"- {body}")
        return " ".join(parts) + " = 0"


@dataclass(frozen=True)
class HyperellipticSpec:
    """The curve y^2 = q(x) with q nonconstant and square-free."""

    q: UniPoly
    # k, counted on the Sturm chain that also decides square-freeness
    real_roots: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.q.is_zero or self.q.degree < 1:
            raise HypothesisError("right-hand side must be nonconstant")
        try:
            object.__setattr__(self, "real_roots", count_real_roots(self.q))
        except ValueError:
            raise HypothesisError("right-hand side must be square-free") from None

    def display(self) -> str:
        return f"y^2 = {self.q}"


CurveSpec = ConicSpec | HyperellipticSpec


# ---------------------------------------------------------------------------
# Invariants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CurveInvariants:
    """Invariant tuple of a smooth connected real curve.

    genus is the genus of the completed complexification (of one
    component, when the complexification is disconnected).  For affine
    hyperelliptic input the degree and real-root count of Q are kept as
    well; they are None for conics and abstract tuples.
    """

    genus: int
    real_at_infinity: int       # real points of the completion outside the curve
    complex_at_infinity: int    # complex (conjugate-pair) points outside the curve
    components: int             # connected components of the real locus
    compact_components: int     # how many of those are circles
    complete: bool = False
    geometrically_connected: bool = True
    degree: int | None = None   # degree of Q (hyperelliptic only)
    real_roots: int | None = None

    def __post_init__(self):
        g, r, c, s, t = (self.genus, self.real_at_infinity,
                         self.complex_at_infinity, self.components,
                         self.compact_components)
        if min(g, r, c, s, t) < 0:
            raise ValueError("invariants must be nonnegative")
        if s > 0 and s != t + r:
            raise ValueError(f"component count must satisfy s = t + r, got s={s}, t={t}, r={r}")
        if s == 0 and (t != 0 or r != 0):
            raise ValueError("empty real locus forces t = r = 0")
        if self.complete:
            if r != 0 or c != 0:
                raise ValueError("complete curve has no points at infinity")
            if t != s:
                raise ValueError("every component of a complete curve is a circle")
        elif r + c == 0:
            raise ValueError("non-complete curve needs at least one point at infinity")
        if not self.geometrically_connected:
            if s != 0:
                raise ValueError("geometrically disconnected curves have no real points")
        if self.degree is not None and self.real_roots is not None:
            if self.real_roots > self.degree:
                raise ValueError("cannot have more real roots than the degree")

    @property
    def half_degree(self) -> int | None:
        return None if self.degree is None else self.degree // 2

    @property
    def root_pairs(self) -> int | None:
        return None if self.real_roots is None else self.real_roots // 2

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
        return {
            "d": self.degree,
            "d_prime": self.half_degree,
            "k": self.real_roots,
            "k_prime": self.root_pairs,
            "g": self.genus,
            "r": self.real_at_infinity,
            "c": self.complex_at_infinity,
            "s": self.components,
            "t": self.compact_components,
            "complete": self.complete,
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


@dataclass(frozen=True)
class ConicClass:
    kind: str
    invariants: CurveInvariants


def _char_poly_signature(matrix: list[list[Fraction]]) -> tuple[int, int, int]:
    """(positive, negative, zero) eigenvalue counts of a symmetric matrix.

    Descartes' rule of signs is exact on the characteristic polynomial
    because all eigenvalues of a symmetric matrix are real.
    """
    n = len(matrix)
    if n == 2:
        (a, b), (_, c) = matrix
        tr = a + c
        det = a * c - b * b
        coeffs = [det, -tr, Fraction(1)]
    elif n == 3:
        (a, b, d), (_, c, e), (_, _, f) = (matrix[0], matrix[1], matrix[2])
        tr = a + c + f
        m2 = (a * c - b * b) + (a * f - d * d) + (c * f - e * e)
        det = (a * (c * f - e * e) - b * (b * f - e * d) + d * (b * e - c * d))
        coeffs = [-det, m2, -tr, Fraction(1)]
    else:
        raise ValueError("only 2x2 and 3x3 supported")
    zero = 0
    while coeffs[zero] == 0:
        zero += 1
    body = coeffs[zero:]
    pos = sign_variations(list(body))
    neg = sign_variations([c * (-1) ** i for i, c in enumerate(body)])
    return pos, neg, zero


def classify_conic(spec: ConicSpec) -> ConicClass:
    """Sort a smooth conic into one of the six types with its invariants.

    Singular or really-reducible inputs (crossing lines, double lines,
    real parallel line pairs) are rejected: they are not smooth
    connected curves.
    """
    a, b, c = spec.xx, spec.xy, spec.yy
    d, e, f = spec.x1, spec.y1, spec.c0
    h = Fraction(1, 2)

    if a == 0 and b == 0 and c == 0:
        inv = CurveInvariants(genus=0, real_at_infinity=1, complex_at_infinity=0,
                              components=1, compact_components=0)
        return ConicClass(LINE, inv)

    quad = [[a, h * b], [h * b, c]]
    proj = [[a, h * b, h * d],
            [h * b, c, h * e],
            [h * d, h * e, f]]
    pos2, neg2, _ = _char_poly_signature(quad)
    pos3, neg3, zero3 = _char_poly_signature(proj)
    rank3 = 3 - zero3

    if rank3 == 3:
        if pos2 == 1 and neg2 == 1:
            inv = CurveInvariants(genus=0, real_at_infinity=2, complex_at_infinity=0,
                                  components=2, compact_components=0)
            return ConicClass(HYPERBOLA, inv)
        if pos2 + neg2 == 2:  # definite quadratic part
            if pos3 == 3 or neg3 == 3:
                inv = CurveInvariants(genus=0, real_at_infinity=0, complex_at_infinity=1,
                                      components=0, compact_components=0)
                return ConicClass(IMAGINARY_ELLIPSE, inv)
            inv = CurveInvariants(genus=0, real_at_infinity=0, complex_at_infinity=1,
                                  components=1, compact_components=1)
            return ConicClass(ELLIPSE, inv)
        # rank-1 quadratic part with full projective rank
        inv = CurveInvariants(genus=0, real_at_infinity=1, complex_at_infinity=0,
                              components=1, compact_components=0)
        return ConicClass(PARABOLA, inv)

    if rank3 == 2:
        if pos3 == 2 or neg3 == 2:
            # Two conjugate complex lines.  Their real intersection point is
            # the kernel direction of the projective matrix; the affine curve
            # is smooth iff that point lies at infinity.
            kx, ky, kz = _kernel_vector_3x3(proj)
            if kz == 0:
                inv = CurveInvariants(genus=0, real_at_infinity=0,
                                      complex_at_infinity=1, components=0,
                                      compact_components=0,
                                      geometrically_connected=False)
                return ConicClass(GEOM_DISCONNECTED, inv)
            raise HypothesisError(
                "not a smooth connected curve: conjugate lines meeting at a real affine point")
        raise HypothesisError(
            "not a smooth connected curve: really-reducible conic (two real lines)")

    raise HypothesisError("not a smooth connected curve: double line")


def _kernel_vector_3x3(m: list[list[Fraction]]) -> tuple[Fraction, Fraction, Fraction]:
    """A nonzero kernel vector of a rank-2 symmetric 3x3 matrix (cross
    product of two independent rows)."""
    rows = [tuple(r) for r in m]
    for i in range(3):
        for j in range(i + 1, 3):
            r1, r2 = rows[i], rows[j]
            cx = r1[1] * r2[2] - r1[2] * r2[1]
            cy = r1[2] * r2[0] - r1[0] * r2[2]
            cz = r1[0] * r2[1] - r1[1] * r2[0]
            if cx != 0 or cy != 0 or cz != 0:
                return (cx, cy, cz)
    raise ValueError("matrix has rank < 2")


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
        return CurveInvariants(genus=dp, real_at_infinity=1, complex_at_infinity=0,
                               components=kp + 1, compact_components=kp,
                               degree=d, real_roots=k)
    if q.leading < 0:
        return CurveInvariants(genus=dp - 1, real_at_infinity=0, complex_at_infinity=1,
                               components=kp, compact_components=kp,
                               degree=d, real_roots=k)
    if k > 0:
        return CurveInvariants(genus=dp - 1, real_at_infinity=2, complex_at_infinity=0,
                               components=kp + 1, compact_components=kp - 1,
                               degree=d, real_roots=k)
    return CurveInvariants(genus=dp - 1, real_at_infinity=2, complex_at_infinity=0,
                           components=2, compact_components=0,
                           degree=d, real_roots=k)


def curve_invariants(spec: CurveSpec) -> CurveInvariants:
    if isinstance(spec, ConicSpec):
        return classify_conic(spec).invariants
    return hyperelliptic_invariants(spec)

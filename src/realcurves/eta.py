"""The boundary-divisor invariant eta of a smooth affine curve, with
machine-checkable certificates.

eta(X) is the rank of the group of degree-zero cycles supported on the
points at infinity that die in the Picard group of the completion.  It
is bounded by r + c - 1 and controls both the torsion Picard group and
the unit groups of the coordinate ring.

Closed rules settle most cases: a single point at infinity forces
eta = 0, and on a genus-zero curve every degree-zero boundary cycle is
principal, so eta = r + c - 1.  The interesting case is a quartic
y^2 = Q(x) with a rational square leading coefficient l (y -> y/sqrt(l)
makes Q monic): the difference p of the two points at infinity lives
in the Jacobian, an elliptic curve with an explicit Weierstrass model
built from a factorization Q = ((x+b)^2 +- a^2)((x-b)^2 +- c^2) with
a, b, c rational and a, c > 0; the number k of real roots of Q is read
off the two signs.  eta = 1 exactly when p is a torsion point, and
Mazur's theorem on rational torsion bounds the possible orders.  The
decision procedure checks, exactly and in this order, the relation lists

    k = 0: (2n-1)p = p1, (2n-1)p = p2, 2np = p3 for n <= 2   (6 cases)
    k = 2: np = p1 for n <= 6, 2np = -p for n <= 4           (10 cases)
    k = 4: np = p3 (or p1, depending on which 2-torsion point
           shares the identity component with p) for n <= 4,
           the even-order coincidences                       (4 cases)

Every Known(1) answer carries the satisfied relation, re-verified by
recomputing np through double-and-add (`multiple`) and the order of p
through `torsion_order_bounded`; every Known(0) answer carries the full
list of relations that were excluded, so both are independently
re-checkable.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from ._record import Record
from .curves import (CurveInvariants, CurveSpec, HyperellipticSpec,
                     InternalInconsistencyError)
from .elliptic import (ECPoint, INFINITY, WeierstrassCurve, _add, multiple,
                       torsion_order_bounded)
from .polys import (Rational, UniPoly, exact_isqrt, integer_form,
                    integer_roots_monic, rational_sqrt)

# certificate kinds
RULE_ONE_POINT_AT_INFINITY = "rule-one-point-at-infinity"
RULE_CONIC_TABLE = "rule-conic-table"
TORSION_COINCIDENCE = "torsion-coincidence"
TORSION_EXHAUSTED = "torsion-exhausted"
NON_RATIONAL_FACTORIZATION = "non-rational-factorization"
GENUS_TOO_HIGH = "genus-too-high"


class Certificate(Record):
    __slots__ = _fields = ("kind", "relation", "order", "cases_checked")

    def __init__(self, kind: str, relation: str | None = None,
                 order: int | None = None,
                 cases_checked: tuple[str, ...] | None = None):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "relation", relation)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "cases_checked", cases_checked)

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "relation": self.relation,
            "order": self.order,
            "cases_checked": None if self.cases_checked is None
            else list(self.cases_checked),
        }


class EtaResult(Record):
    """value 0 or 1 when decided, None when undetermined."""

    __slots__ = _fields = ("value", "certificate")

    def __init__(self, value: int | None, certificate: Certificate):
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "certificate", certificate)

    def to_json(self) -> dict:
        return {"eta": self.value, "certificate": self.certificate.to_json()}


# bound once: every sampler draw builds a QuarticParams
_set = object.__setattr__


class QuarticParams(Record):
    """Parameters of the normal form of a monic rational quartic:

        k = 0:  ((x+b)^2 + a^2)((x-b)^2 + c^2)
        k = 2:  ((x+b)^2 + a^2)((x-b)^2 - c^2)
        k = 4:  ((x+b)^2 - a^2)((x-b)^2 - c^2)

    with a, c > 0.  k is the number of real roots of the quartic.

    a, b and c are ints or Fractions, kept as given.  Beside them the
    constructor keeps their integer form (D, A, B, C) from
    `polys.integer_form`, with a, b, c = A/D, B/D, C/D over the lcm D of
    their denominators (a private slot, not part of equality or the
    repr); the validity checks run on it, and `quartic` and
    `build_quartic_model` read it.
    """

    _fields = ("k", "a", "b", "c")
    __slots__ = _fields + ("_integral",)

    def __init__(self, k: int, a: Rational, b: Rational, c: Rational):
        if k not in (0, 2, 4):
            raise ValueError("k must be 0, 2, or 4")
        for x in (a, b, c):
            if not isinstance(x, (int, Fraction)):
                raise TypeError(f"cannot interpret {x!r} as an exact rational")
        den, (big_a, big_b, big_c) = integer_form((a, b, c))
        if big_a <= 0 or big_c <= 0:
            raise ValueError("a and c must be positive")
        # square-freeness of the induced quartic
        if k == 0 and big_b == 0 and big_a == big_c:
            raise ValueError("repeated complex roots (b = 0 with a = c)")
        if k == 4 and 2 * abs(big_b) in (abs(big_c - big_a), big_c + big_a):
            raise ValueError("repeated real roots (2b in {+-(c-a), +-(c+a)})")
        _set(self, "k", k)
        _set(self, "a", a)
        _set(self, "b", b)
        _set(self, "c", c)
        _set(self, "_integral", (den, big_a, big_b, big_c))

    def quartic(self) -> UniPoly:
        """Expand the normal form back into the quartic polynomial

            x^4 + (m + n - 4b^2) x^2 + 2b(n - m) x + mn

        with m = b^2 +- a^2 and n = b^2 +- c^2, in integers over D^4."""
        den, a, b, c = self._integral
        m = b * b + (a * a if self.k != 4 else -a * a)
        n = b * b + (c * c if self.k == 0 else -c * c)
        return UniPoly.from_integers([m * n, 2 * b * (n - m) * den,
                                      (m + n - 4 * b * b) * den * den, 0, den ** 4],
                                     den ** 4)

    def to_json(self) -> dict:
        return {"k": self.k, "a": str(self.a), "b": str(self.b), "c": str(self.c)}


class SearchStats(Record, frozen=False):
    """Instrumentation for the bounded torsion search.

    k is the root count of the normal form that was searched; it stays
    None when the quartic has no rational normal form.
    """

    __slots__ = _fields = ("k", "relations_checked", "max_multiple", "case_list")

    def __init__(self, k: int | None = None, relations_checked: int = 0,
                 max_multiple: int = 0, case_list: tuple[str, ...] = ()):
        self.k = k
        self.relations_checked = relations_checked
        self.max_multiple = max_multiple
        self.case_list = case_list


class QuarticModel(Record):
    """Weierstrass model of the Jacobian with the marked points.

    p is the class of the difference of the two points at infinity.  For
    k = 4 `neutral_two_torsion` names whichever of p1/p3 lies on the
    identity component together with p (decided by 4b^2 vs (c-a)^2);
    it is None for k = 0 and k = 2.
    """

    __slots__ = _fields = ("curve", "p", "two_torsion", "neutral_two_torsion")

    def __init__(self, curve: WeierstrassCurve, p: ECPoint,
                 two_torsion: dict[str, ECPoint],
                 neutral_two_torsion: str | None):
        object.__setattr__(self, "curve", curve)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "two_torsion", two_torsion)
        object.__setattr__(self, "neutral_two_torsion", neutral_two_torsion)


# ---------------------------------------------------------------------------
# Closed rules
# ---------------------------------------------------------------------------

def eta_closed_rules(inv: CurveInvariants) -> EtaResult | None:
    """Decide eta without any curve arithmetic, or return None.

    r + c = 1 forces eta = 0 (a single boundary point carries no
    degree-zero cycles): this covers odd-degree hyperelliptic curves,
    parabolas, lines, ellipses, imaginary ellipses, the non
    geometrically connected conic, and every y^2 = Q with negative
    leading coefficient and even degree.  A genus-zero curve with two
    boundary points (the hyperbola case) has eta = 1: the completion is
    a projective line, where every degree-zero divisor is principal.
    """
    r, c = inv.real_at_infinity, inv.complex_at_infinity
    if inv.complete:
        return None
    if r + c == 1:
        return EtaResult(0, Certificate(RULE_ONE_POINT_AT_INFINITY))
    if inv.genus == 0 and inv.geometrically_connected and r + c == 2:
        return EtaResult(1, Certificate(RULE_CONIC_TABLE))
    return None


# ---------------------------------------------------------------------------
# Quartic normal form
# ---------------------------------------------------------------------------

def quartic_normal_form(q: UniPoly) -> QuarticParams | None:
    """Match a monic rational quartic against the normal form, or return
    None when no factorization with rational a, b, c exists.

    The substitution x = h + y/s with h = -coeff(x^3)/4 turns s^4 q into
    an integral depressed quartic y^4 + Py^2 + Cy + R, with s the least
    of D, 2D and 4D (D the common denominator of the coefficients) that
    makes s*h integral.  Removing the cubic term is exactly the
    condition that the two quadratic factors have opposite linear
    coefficients.  All factorizations (y^2+uy+v)(y^2-uy+w) are then
    found through the monic integer resolvent cubic z^3 + 2Pz^2 + (P^2-4R)z - C^2 in z = u^2; its roots
    z = (r1 + r2)^2 differ by products of two root differences of the
    quartic, so its discriminant is the discriminant of the quartic and
    decides square-freeness.  Rational candidates need z an integer
    square, and then u, v, w are integers (Gauss's lemma).  When several
    parameterizations exist (a fully split k = 4 quartic has three), the
    one with the largest b^2 is chosen, preferring b >= 0 and then
    lexicographically smaller (a, c); the choice never changes the model
    or eta, only which labels the certificates carry.

    k is read off the factors (y +- sb)^2 + s^2 d: each has two real
    roots iff d < 0.  A candidate with d+ < 0 < d- is skipped, as its
    twin (-b, the factors exchanged) is a candidate too.  Candidates are
    kept as the integers 2sa, 2sb, 2sc; the chosen one must reproduce P,
    C and R exactly before it is scaled back by 1/(2s).
    """
    if q.degree != 4:
        raise ValueError("polynomial must have degree 4")
    n0, n1, n2, n3, n4 = q.numerators
    den = q.denominator
    if n4 != den:
        raise ValueError("polynomial must be monic")
    # a_i = n_i / den; every A_i = s^(4-i) a_i is an integer, and A3 = 4t
    s = den * (4 // gcd(n3, 4))
    t = n3 // gcd(n3, 4)
    big_a2 = n2 * (s * s // den)
    big_a1 = n1 * (s ** 3 // den)
    big_a0 = n0 * (s ** 4 // den)
    big_p = big_a2 - 6 * t * t
    big_c = big_a1 - 2 * t * big_a2 + 8 * t ** 3
    big_r = big_a0 - t * big_a1 + t * t * big_a2 - 3 * t ** 4
    c2, c1, c0 = 2 * big_p, big_p * big_p - 4 * big_r, -big_c * big_c
    if (c2 * c2 * c1 * c1 - 4 * c1 ** 3 - 4 * c2 ** 3 * c0 - 27 * c0 * c0
            + 18 * c2 * c1 * c0) == 0:
        raise ValueError("polynomial must be square-free")

    # (u = 2sb, constant of the (y+sb) factor, constant of the (y-sb) factor)
    assignments: list[tuple[int, int, int]] = []
    if big_c == 0:
        sq = exact_isqrt(c1)
        if sq is not None:
            # sq = P mod 2, so both constants are integers
            v = (big_p - sq) // 2
            w = (big_p + sq) // 2
            assignments.append((0, v, w))
            if v != w:
                assignments.append((0, w, v))
    for z in integer_roots_monic((c0, c1, c2, 1)):
        u = exact_isqrt(z)
        if not u:
            continue
        v = (big_p + z - big_c // u) // 2
        w = (big_p + z + big_c // u) // 2
        assignments.append((u, v, w))
        assignments.append((-u, w, v))

    # (2sa, 2sb, 2sc, k) with 4 s^2 d = 4m - u^2 for the factor constant m
    candidates: set[tuple[int, int, int, int]] = set()
    for u, m_plus, m_minus in assignments:
        d_plus = 4 * m_plus - u * u
        d_minus = 4 * m_minus - u * u
        if d_plus < 0 < d_minus:
            continue
        a, c = exact_isqrt(abs(d_plus)), exact_isqrt(abs(d_minus))
        if not a or not c:
            continue
        candidates.add((a, u, c, 2 * (d_plus < 0) + 2 * (d_minus < 0)))

    if not candidates:
        return None
    a, u, c, k = min(candidates, key=lambda t: (-t[1] * t[1], t[1] < 0, t[0], t[2]))
    m4 = u * u + (a * a if k != 4 else -a * a)
    n4 = u * u + (c * c if k == 0 else -c * c)
    if (m4 + n4 - 4 * u * u, u * (n4 - m4), m4 * n4) != \
            (4 * big_p, 4 * big_c, 16 * big_r):
        raise InternalInconsistencyError("normal form failed to reproduce the quartic")
    return QuarticParams(k=k, a=Fraction(a, 2 * s), b=Fraction(u, 2 * s),
                         c=Fraction(c, 2 * s))


# ---------------------------------------------------------------------------
# Weierstrass models
# ---------------------------------------------------------------------------

def build_quartic_model(params: QuarticParams) -> QuarticModel:
    """Exact Jacobian model for the quartic with the marked points.

        k = 0: u^2 = (v + 4b^2)(v - (c-a)^2)(v - (c+a)^2)
        k = 2: u^2 = (v + 4b^2)(v^2 - 2(c^2-a^2)v + (c^2+a^2)^2)
        k = 4: u^2 = (v + 4b^2)(v + (c-a)^2)(v + (c+a)^2)

    p = (0, 2b(c^2-a^2)) for k in {0, 4} and (0, 2b(c^2+a^2)) for k = 2.
    The model is computed in integers from the params' integer form
    a, b, c = A/D, B/D, C/D: v-values (the roots and c2) are integers
    over D^2, c1 over D^4, c0 over D^6 and u-values over D^3, and each
    coordinate becomes a Fraction once.  Every marked point is
    verified to lie on the curve; configurations with vanishing
    discriminant (non-square-free quartics) are rejected by the curve
    constructor.
    """
    den, big_a, big_b, big_c = params._integral
    den2 = den * den
    den3 = den2 * den
    four_b2 = 4 * big_b * big_b
    cc, aa = big_c * big_c, big_a * big_a
    if params.k == 2:
        norm2 = (cc + aa) ** 2
        c2 = four_b2 - 2 * (cc - aa)
        c1 = norm2 - 2 * four_b2 * (cc - aa)
        c0 = four_b2 * norm2
        p_u = 2 * big_b * (cc + aa)
        roots = {"p1": -four_b2}
        neutral = None
    else:
        minus2, plus2 = (big_c - big_a) ** 2, (big_c + big_a) ** 2
        if params.k == 0:
            roots = {"p1": -four_b2, "p2": minus2, "p3": plus2}
            neutral = None
        else:
            roots = {"p1": -four_b2, "p2": -plus2, "p3": -minus2}
            neutral = "p3" if four_b2 > minus2 else "p1"
        r1, r2, r3 = roots.values()
        c2 = -(r1 + r2 + r3)
        c1 = r1 * r2 + r1 * r3 + r2 * r3
        c0 = -(r1 * r2 * r3)
        p_u = 2 * big_b * (cc - aa)
    zero = Fraction(0)
    curve = WeierstrassCurve(Fraction(c2, den2), Fraction(c1, den2 * den2),
                             Fraction(c0, den3 * den3))
    p = ECPoint(zero, Fraction(p_u, den3))
    torsion = {name: ECPoint(Fraction(root, den2), zero)
               for name, root in roots.items()}
    for point in (p, *torsion.values()):
        curve.require(point)
    return QuarticModel(curve=curve, p=p, two_torsion=torsion,
                        neutral_two_torsion=neutral)


# ---------------------------------------------------------------------------
# Bounded torsion search
# ---------------------------------------------------------------------------

def _case_list(params: QuarticParams, model: QuarticModel) -> list[tuple[int, str]]:
    if params.k == 0:
        return [(1, "p1"), (1, "p2"), (2, "p3"),
                (3, "p1"), (3, "p2"), (4, "p3")]
    if params.k == 2:
        return [(n, "p1") for n in range(1, 7)] + \
               [(2 * n, "-p") for n in range(1, 5)]
    return [(n, model.neutral_two_torsion) for n in range(1, 5)]


def _relation_string(n: int, target: str) -> str:
    return f"{'' if n == 1 else n}p = {target}"


def quartic_eta(q: UniPoly, stats: SearchStats | None = None) -> EtaResult:
    """Decide eta for y^2 = Q with Q a monic square-free rational quartic.

    Runs the normal-form search; without a rational factorization the
    answer is Undetermined.  Otherwise the finite torsion case list is
    checked with exact arithmetic, multiples of p computed incrementally
    so that nothing beyond the listed relations is ever touched.  They
    come from the unchecked group law, as the model's points are checked;
    an exhausted search checks once that its last multiple is on the curve.
    """
    params = quartic_normal_form(q)
    if params is None:
        return EtaResult(None, Certificate(NON_RATIONAL_FACTORIZATION))
    return eta_from_params(params, stats=stats)


def eta_from_params(params: QuarticParams,
                    stats: SearchStats | None = None) -> EtaResult:
    model = build_quartic_model(params)
    cases = _case_list(params, model)
    multiples: list[ECPoint] = [INFINITY]  # multiples[i] = i * p

    def multiple_of_p(n: int) -> ECPoint:
        while len(multiples) <= n:
            multiples.append(_add(model.curve, multiples[-1], model.p))
        return multiples[n]

    checked: list[str] = []
    for n, target_name in cases:
        checked.append(_relation_string(n, target_name))
        target = -model.p if target_name == "-p" else model.two_torsion[target_name]
        if multiple_of_p(n) == target:
            break
    else:
        target = None
    if stats is not None:
        stats.k = params.k
        stats.case_list = tuple(_relation_string(m, t) for m, t in cases)
        stats.relations_checked = len(checked)
        stats.max_multiple = len(multiples) - 1
    if target is None:
        if not model.curve.contains(multiples[-1]):
            raise InternalInconsistencyError(
                f"exhausted search left the curve at {len(multiples) - 1}p")
        return EtaResult(0, Certificate(TORSION_EXHAUSTED,
                                        cases_checked=tuple(checked)))
    # re-verify: np again by double-and-add, then the order of p by the
    # bounded torsion search (both use the same group law as the search)
    if multiple(model.curve, n, model.p) != target:
        raise InternalInconsistencyError(
            f"certificate {checked[-1]!r} failed re-verification")
    order = torsion_order_bounded(model.curve, model.p, 12)
    if order is None:
        raise InternalInconsistencyError(
            "certified relation without bounded torsion")
    return EtaResult(1, Certificate(TORSION_COINCIDENCE,
                                    relation=checked[-1], order=order))


# ---------------------------------------------------------------------------
# Full dispatch and level bounds
# ---------------------------------------------------------------------------

class EtaAnalysis(Record):
    """eta of the curve itself and, when it can be reported, eta of its
    complexification (which drives the level bound when the real locus
    is empty)."""

    __slots__ = _fields = ("eta", "eta_complex")

    def __init__(self, eta: EtaResult, eta_complex: EtaResult | None):
        object.__setattr__(self, "eta", eta)
        object.__setattr__(self, "eta_complex", eta_complex)

    def to_json(self) -> dict:
        return {
            "eta": self.eta.to_json(),
            "eta_complex": None if self.eta_complex is None
            else self.eta_complex.to_json(),
        }


def eta_full(spec: CurveSpec, inv: CurveInvariants) -> EtaAnalysis:
    """Closed rules first; the elliptic pipeline for quartics with a
    square leading coefficient; the twin quartic y^2 = -Q for the
    negative-leading-coefficient form (the complexifications of the two
    forms are isomorphic, so eta transfers); Undetermined for even
    degree >= 6, which has no finite decision procedure here.
    """
    closed = eta_closed_rules(inv)
    q = spec.q if isinstance(spec, HyperellipticSpec) else None
    eta = closed if closed is not None else _quartic_dispatch(q)
    eta_complex = _eta_complex(q, inv, eta)
    return EtaAnalysis(eta=eta, eta_complex=eta_complex)


def _quartic_dispatch(q: UniPoly | None) -> EtaResult:
    """eta of y^2 = q for q with positive leading coefficient l.  When q
    is a quartic and l a rational square, y -> y/sqrt(l) maps the curve
    onto y^2 = q/l over Q, which runs the monic pipeline; anything else
    is Undetermined."""
    if q is None or q.degree != 4:
        return EtaResult(None, Certificate(GENUS_TOO_HIGH))
    if rational_sqrt(q.leading) is None:
        return EtaResult(None, Certificate(NON_RATIONAL_FACTORIZATION))
    return quartic_eta(q.monic())


def _eta_complex(q: UniPoly | None, inv: CurveInvariants,
                 eta: EtaResult) -> EtaResult | None:
    if inv.complete:
        return None
    if not inv.geometrically_connected:
        # the curve is isomorphic to one complex component, which here
        # has a single point at infinity
        return EtaResult(0, Certificate(RULE_ONE_POINT_AT_INFINITY))
    if inv.complex_at_infinity == 0:
        # only real points at infinity: eta over C equals eta over R
        return eta
    if inv.genus == 0:
        # two conjugate boundary points on a genus-zero completion
        return EtaResult(1, Certificate(RULE_CONIC_TABLE))
    if q is not None and q.degree % 2 == 0 and q.numerators[-1] < 0:
        return _quartic_dispatch(-q)
    return None


class LevelReport(Record):
    """Level of the coordinate ring.  'infinite' when the real locus is
    nonempty (the ring is formally real); otherwise the level is 2 or 3,
    pinned to exactly 3 when eta of the complexification vanishes
    (a positive lower bound on the anti-invariant boundary rank is
    necessary for level 2)."""

    __slots__ = _fields = ("value", "reason")

    def __init__(self, value: str, reason: str):
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "reason", reason)

    def to_json(self) -> dict:
        return {"ring_level": self.value, "reason": self.reason}


def level_bounds(inv: CurveInvariants,
                 eta_complex: EtaResult | None) -> LevelReport:
    if inv.complete or not inv.geometrically_connected:
        raise ValueError("level bounds apply to non-complete geometrically "
                         "connected curves")
    if inv.components > 0:
        return LevelReport("infinite",
                           "real points exist, so the coordinate ring is formally real")
    if eta_complex is not None and eta_complex.value == 0:
        return LevelReport("3",
                           "eta of the complexification is 0, which rules out level 2")
    if eta_complex is not None and eta_complex.value == 1:
        return LevelReport("2 or 3",
                           "eta of the complexification is 1, which is necessary "
                           "but not sufficient for level 2")
    return LevelReport("2 or 3",
                       "eta of the complexification is undetermined")

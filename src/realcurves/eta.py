"""eta of a quartic y^2 = Q(x): the normal form, the Jacobian model and
the bounded torsion search.

The closed rules, the dispatch over all curves and the level bounds
live in `eta_rules`, which reads this module only for a quartic with a
positive leading coefficient l.  y -> y/sqrt(l) is an isomorphism
over R onto y^2 = Q/l, whose monic Q/l has rational coefficients, and
eta is an invariant of the real curve, so Q is taken monic: the
difference p of the two points at infinity lives in the Jacobian.  A
factorization Q = ((x+b)^2 +- a^2)((x-b)^2 +- c^2)
with a, b, c rational and a, c > 0 names the marked points; the number
k of real roots of Q is read off the two signs.  With Q moved to
x^4 + Px^2 + Cx + R, the Jacobian is the resolvent cubic of the
quartic, u^2 = v^3 - 2Pv^2 + (P^2 - 4R)v + C^2, for every k, and
p = (0, +-C), built in ints, on the integral model of the integer form
of a, b and c.  eta = 1 exactly when p is a torsion point, and
Mazur's theorem on rational torsion bounds the possible orders.

The decision walks the multiples np of p once, by the group law, up to
half the largest order that k admits: 4p, 6p and 4p for k = 0, 2 and
4.  It stops at the first np that is either a 2-torsion point (u = 0),
so that p has order 2n and the relation np = T names that point T by
its v, or -(n-1)p, so that p has order 2n - 1 and the relation reads
(2n-2)p = -p.  A torsion point of order N is thus decided at
ceil(N/2) p and never reaches O.  The relation lists

    k = 0: (2n-1)p = p1, (2n-1)p = p2, 2np = p3 for n <= 2   (6 cases)
    k = 2: np = p1 for n <= 6, 2np = -p for n <= 4           (10 cases)
    k = 4: np = T for n <= 4, T the 2-torsion point on the
           identity component, the largest root             (4 cases)

are labels only: an exhausted walk, a Known(0) answer, carries its
k's list as the cases it excluded, and a relation that the walk finds
must be on that list, or, for k = 4, be 2p = -p: beside full rational
2-torsion Mazur allows one odd order, 3 (Z/2 x Z/6).  Any other
relation is an InternalInconsistencyError.  Every Known(1) answer
carries the relation and the order of p, so both answers are
independently re-checkable.  Either way the last multiple of the walk
is checked to lie on the curve.

Only the normal form and `QuarticParams.quartic` compute on polynomials.
This module reaches `polys` through `from . import polys`, which binds
the package's unexecuted module, so a decision on params, such as
`build_quartic_model` and `eta_from_params`, never compiles it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from . import polys
from ._certificates import (NON_RATIONAL_FACTORIZATION, TORSION_COINCIDENCE,
                            TORSION_EXHAUSTED, Certificate, EtaResult)
from ._record import Record
from .elliptic import INFINITY, Point, WeierstrassCurve, _add
from .errors import InternalInconsistencyError
from .rationals import Rational, integer_form

# k -> the signs of a^2 and c^2 in the normal form's two factors
_SIGNS = {0: (1, 1), 2: (1, -1), 4: (-1, -1)}


def _expand(k: int, a: int, b: int, c: int) -> tuple[int, int, int]:
    """(P, C, R) of x^4 + Px^2 + Cx + R = (x^2 + 2bx + m)(x^2 - 2bx + n),
    the normal form of root count k, with m = b^2 +- a^2 and
    n = b^2 +- c^2 as `_SIGNS` gives: P = m + n - 4b^2, C = 2b(n - m)
    and R = mn."""
    sign_a, sign_c = _SIGNS[k]
    bb = b * b
    m = bb + sign_a * a * a
    n = bb + sign_c * c * c
    return m + n - 4 * bb, 2 * b * (n - m), m * n


class QuarticParams(Record):
    """Parameters of the normal form of a monic rational quartic:

        k = 0:  ((x+b)^2 + a^2)((x-b)^2 + c^2)
        k = 2:  ((x+b)^2 + a^2)((x-b)^2 - c^2)
        k = 4:  ((x+b)^2 - a^2)((x-b)^2 - c^2)

    with a, c > 0.  k is the number of real roots of the quartic.  The
    signs are `_SIGNS[k]`, and `_expand` multiplies the factors out.

    a, b and c are ints or Fractions, kept as given.  Beside them the
    constructor keeps their integer form (D, A, B, C) from
    `rationals.integer_form`, with a, b, c = A/D, B/D, C/D over the lcm D
    of their denominators (a private slot, not part of equality or the
    repr); the validity checks run on it, and `quartic` and
    `build_quartic_model` read it.  Three ints, as the sampler draws
    them, are their own integer form (1, a, b, c) and skip the call.
    A k that is not an int, a bool too, is a TypeError.
    """

    _fields = ("k", "a", "b", "c")
    __slots__ = _fields + ("_integral",)

    def __init__(self, k: int, a: Rational, b: Rational, c: Rational):
        if type(k) is not int:  # a bool too
            raise TypeError(f"k must be an int, not {k!r}")
        if k not in _SIGNS:
            raise ValueError("k must be 0, 2, or 4")
        if type(a) is int and type(b) is int and type(c) is int:  # no bool
            den, big_a, big_b, big_c = 1, a, b, c
        else:
            den, (big_a, big_b, big_c) = integer_form((a, b, c))
        if big_a <= 0 or big_c <= 0:
            raise ValueError("a and c must be positive")
        # square-freeness of the induced quartic
        if k == 0 and big_b == 0 and big_a == big_c:
            raise ValueError("repeated complex roots (b = 0 with a = c)")
        if k == 4 and 2 * abs(big_b) in (abs(big_c - big_a), big_c + big_a):
            raise ValueError("repeated real roots (2b in {+-(c-a), +-(c+a)})")
        self._init(k, a, b, c, (den, big_a, big_b, big_c))

    def quartic(self) -> polys.UniPoly:
        """The normal form multiplied out, x^4 + Px^2 + Cx + R, in
        integers over D^4 (`_expand` of A, B, C gives P, C and R over
        D^2, D^3 and D^4)."""
        den, a, b, c = self._integral
        big_p, big_c, big_r = _expand(self.k, a, b, c)
        return polys.UniPoly.from_integers(
            [big_r, big_c * den, big_p * den * den, 0, den ** 4], den ** 4)

    def to_json(self) -> dict:
        return {"k": self.k, "a": str(self.a), "b": str(self.b), "c": str(self.c)}


class SearchStats(Record, frozen=False):
    """Instrumentation for the bounded torsion search, filled in by
    `eta_from_params`.

    case_list is the relation list of the params' k.  relations_checked
    is the place of the matched relation in that list, read as if the
    list were checked in order, with the k = 4 relation 2p = -p fifth,
    or the length of the list for an exhausted search.  max_multiple is
    n of the walk's last multiple np.
    """

    __slots__ = _fields = ("relations_checked", "max_multiple", "case_list")

    def __init__(self, relations_checked: int = 0, max_multiple: int = 0,
                 case_list: tuple[str, ...] = ()):
        self._init(relations_checked, max_multiple, case_list)


class QuarticModel(Record):
    """Weierstrass model of the Jacobian with the marked points.

    p is the class of the difference of the two points at infinity, and
    two_torsion maps the names p1, p2, p3 (p1 alone for k = 2) to the
    rational 2-torsion points.  Coefficients and coordinates are ints,
    on the integral model (`build_quartic_model`).
    """

    __slots__ = _fields = ("curve", "p", "two_torsion")

    def __init__(self, curve: WeierstrassCurve, p: Point,
                 two_torsion: dict[str, Point]):
        self._init(curve, p, two_torsion)


# ---------------------------------------------------------------------------
# Quartic normal form
# ---------------------------------------------------------------------------

def quartic_normal_form(q: polys.UniPoly) -> QuarticParams | None:
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
        sq = polys.exact_isqrt(c1)
        if sq is not None:
            # sq = P mod 2, so both constants are integers
            v = (big_p - sq) // 2
            w = (big_p + sq) // 2
            assignments.append((0, v, w))
            if v != w:
                assignments.append((0, w, v))
    for z in polys.integer_roots_monic((c0, c1, c2, 1)):
        u = polys.exact_isqrt(z)
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
        a, c = polys.exact_isqrt(abs(d_plus)), polys.exact_isqrt(abs(d_minus))
        if not a or not c:
            continue
        candidates.add((a, u, c, 2 * (d_plus < 0) + 2 * (d_minus < 0)))

    if not candidates:
        return None
    a, u, c, k = min(candidates, key=lambda t: (-t[1] * t[1], t[1] < 0, t[0], t[2]))
    if _expand(k, a, u, c) != (4 * big_p, 8 * big_c, 16 * big_r):
        raise InternalInconsistencyError("normal form failed to reproduce the quartic")
    return QuarticParams(k, Fraction(a, 2 * s), Fraction(u, 2 * s), Fraction(c, 2 * s))


# ---------------------------------------------------------------------------
# Weierstrass models
# ---------------------------------------------------------------------------

def build_quartic_model(params: QuarticParams) -> QuarticModel:
    """Exact Jacobian model for the quartic with the marked points.

    With (P, C, R) = `_expand` of the params, the curve is the quartic's
    resolvent cubic (z^3 + 2Pz^2 + (P^2-4R)z - C^2 of
    `quartic_normal_form` under v = -z), the same for every k:

        u^2 = v^3 - 2Pv^2 + (P^2 - 4R)v + C^2

            k = 0: = (v + 4b^2)(v - (c-a)^2)(v - (c+a)^2)
            k = 2: = (v + 4b^2)(v^2 - 2(a^2-c^2)v + (c^2+a^2)^2)
            k = 4: = (v + 4b^2)(v + (c-a)^2)(v + (c+a)^2)

    p = (0, +-C), with the sign of c^2 in the normal form:
    (0, 2b(c^2-a^2)) for k in {0, 4} and (0, 2b(c^2+a^2)) for k = 2.
    p1 = -4b^2, and for k != 2 the rational two-torsion points p2 < p3
    are +-(c-a)^2 and +-(c+a)^2, with the sign of a^2.
    The model is built on ints, on the integral model: with the params'
    integer form a, b, c = A/D, B/D, C/D, (P, C, R) and the roots above
    are taken of A, B and C.  That is the model of a, b, c under
    v -> D^2 v, u -> D^3 u, an isomorphism over Q that keeps the order
    of p, the names of the 2-torsion points and the order of their v.
    Int params, as the sampler draws them, have D = 1.  Every marked
    point is verified to lie on the curve; configurations with
    vanishing discriminant (non-square-free quartics) are rejected by
    the curve constructor.
    """
    _, a, b, c = params._integral
    sign_a, sign_c = _SIGNS[params.k]
    big_p, big_c, big_r = _expand(params.k, a, b, c)
    roots = {"p1": -4 * b * b}
    if params.k != 2:
        roots["p2"], roots["p3"] = sorted((sign_a * (c - a) ** 2, sign_a * (c + a) ** 2))
    curve = WeierstrassCurve(-2 * big_p, big_p * big_p - 4 * big_r, big_c * big_c)
    p = Point(0, sign_c * big_c)
    torsion = {name: Point(root, 0) for name, root in roots.items()}
    for point in (p, *torsion.values()):
        curve.require(point)
    return QuarticModel(curve, p, torsion)


# ---------------------------------------------------------------------------
# Bounded torsion search
# ---------------------------------------------------------------------------

# k -> the last multiple of the walk, half the largest order k admits
_LAST_MULTIPLE = {0: 4, 2: 6, 4: 4}


def _case_list(k: int, model: QuarticModel) -> tuple[str, ...]:
    """The labels of k's relation list.  For k = 4 the target is the
    2-torsion point on the identity component, the largest root."""
    if k == 0:
        cases = [(1, "p1"), (1, "p2"), (2, "p3"), (3, "p1"), (3, "p2"), (4, "p3")]
    elif k == 2:
        cases = [(n, "p1") for n in range(1, 7)] + [(2 * n, "-p") for n in range(1, 5)]
    else:
        torsion = model.two_torsion
        cases = [(n, max(torsion, key=lambda name: torsion[name].v)) for n in range(1, 5)]
    return tuple(_relation_string(n, target) for n, target in cases)


def _relation_string(n: int, target: str) -> str:
    return f"{'' if n == 1 else n}p = {target}"


def quartic_eta(q: polys.UniPoly) -> EtaResult:
    """Decide eta for y^2 = Q with Q a monic square-free rational quartic.

    Runs the normal-form search; without a rational factorization the
    answer is Undetermined.  Otherwise the multiples np of p are walked
    in exact arithmetic up to half the largest order that k admits, and
    the walk stops at the first np that is 2-torsion (p has order 2n)
    or equal to -(n-1)p (order 2n - 1), so no multiple past
    ceil(order/2) p is computed.  The multiples come from the unchecked
    group law, as the model's points are checked once, when the model is
    built.  The walk checks once that its last multiple is on the curve,
    and that a relation it finds is on k's relation list (or is 2p = -p
    for k = 4); a failure is an InternalInconsistencyError.
    """
    params = quartic_normal_form(q)
    if params is None:
        return EtaResult(None, Certificate(NON_RATIONAL_FACTORIZATION))
    return eta_from_params(params)


def eta_from_params(params: QuarticParams,
                    stats: SearchStats | None = None) -> EtaResult:
    model = build_quartic_model(params)
    curve, p = model.curve, model.p
    cases = _case_list(params.k, model)
    last = _LAST_MULTIPLE[params.k]
    previous, point, n = INFINITY, p, 1  # (n-1)p and np
    # on to the first np with 2np = O or (2n-1)p = O; p is affine, so
    # the v of O never equals that of p and -O is never formed
    while point.u and (point.v != previous.v or point.u != -previous.u) and n < last:
        previous, point, n = point, _add(curve, point, p), n + 1
    if not point.u:
        order = 2 * n
    elif point.v == previous.v and point.u == -previous.u:
        order = 2 * n - 1
    else:
        order = None
    if stats is not None:
        stats.case_list = cases
        stats.max_multiple = n
        stats.relations_checked = len(cases)
    if not curve.contains(point):
        search = "exhausted search" if order is None else "certified relation"
        raise InternalInconsistencyError(f"{search} left the curve at {n}p")
    if order is None:
        return EtaResult(0, Certificate(TORSION_EXHAUSTED, cases_checked=cases))
    if order % 2:
        relation = _relation_string(order - 1, "-p")
    else:
        relation = _relation_string(n, next(
            name for name, marked in model.two_torsion.items() if marked.v == point.v))
    # k = 4 admits order 3 beside its full 2-torsion (Mazur's Z/2 x Z/6)
    listed = cases + ("2p = -p",) if params.k == 4 else cases
    if relation not in listed:
        raise InternalInconsistencyError(
            f"relation {relation!r} is not on the k = {params.k} relation list")
    if stats is not None:
        stats.relations_checked = listed.index(relation) + 1
    return EtaResult(1, Certificate(TORSION_COINCIDENCE, relation=relation, order=order))


def __getattr__(name: str):
    # the benchmark's tracer names the dispatch `eta.eta_full`; it lives in
    # `eta_rules`, which a sampler draw does not run, so it is imported at
    # this first read only (until ROADMAP item 1(b) renames the span)
    if name == "eta_full":
        from .eta_rules import eta_full
        return eta_full
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

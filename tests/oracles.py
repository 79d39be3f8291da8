"""Independent oracles used by the test suite.

Everything here recomputes results along a *different* algorithmic path
from the library: polynomial division by Fraction long division and the
gcd by Fraction Euclid (the library has only an integer
pseudo-remainder chain), resultants by Sylvester determinant, real-root
counts by Descartes/bisection isolation and by the Fraction Sturm chain
evaluated at the Cauchy bound, integer roots by Sturm bisection on
half-integer endpoints, the quartic normal form on Fraction shifts with
a Euclid gcd square-free test, the parser with Fraction coefficients
normalized after every sum and product (the library keeps one integer
common denominator), conic classification on Fraction matrices with the
kernel direction by cross products (the library scales to integer
matrices and reads the direction off a determinant), elliptic addition
by explicit chord substitution and Vieta, the discriminant and the
membership residual of a Weierstrass cubic in Fractions (the library
works on integers over one common denominator), curve display by
formatting Fraction coefficients (the library formats integer
numerators over one denominator), the torsion order by
adding the point to itself up to Mazur's bound with no Nagell-Lutz
exit, the Jacobian model of a quartic in Fractions (the library builds
it in integers), the j-invariant of that model from the classical
invariants I and J of the quartic (the library never computes j), and a
Nagell-Lutz integrality screen for non-torsion, and the order of the
boundary class as the least degree of a polynomial Pell unit (the
library decides it on the Jacobian).
Polynomial sums, products, evaluation and derivatives, which `UniPoly`
does not have, are here as plain functions.  None of it calls the library routine it is checking.
"""

from __future__ import annotations

import random
import re
from fractions import Fraction
from math import gcd, isqrt, lcm

from realcurves import (ConicSpec, CurveInvariants, ECPoint, GroupDescriptor,
                        HypothesisError, INFINITY, ParseError, QuarticParams,
                        UniPoly, WeierstrassCurve)
from realcurves.eta import QuarticModel
from realcurves.curves import (ELLIPSE, GEOM_DISCONNECTED, HYPERBOLA,
                               IMAGINARY_ELLIPSE, LINE, PARABOLA, ConicClass)
from realcurves.parser import MAX_DEGREE
from realcurves.polys import sign_variations
from realcurves.rationals import MAX_COEFFICIENT_DIGITS


# ---------------------------------------------------------------------------
# Fraction polynomial arithmetic: sums, products, evaluation, derivative
# ---------------------------------------------------------------------------

def _add_lists(a, b) -> list:
    """Sum of two ascending coefficient sequences."""
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, cb in enumerate(b):
        out[i] += cb
    return out


def _mul_lists(a, b) -> list:
    """Product of two nonempty ascending coefficient sequences."""
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return out


def coefficient(p: UniPoly, exponent: int) -> Fraction:
    """The coefficient of x^exponent in p, 0 above its degree."""
    return p.coeffs[exponent] if exponent <= p.degree else Fraction(0)


def poly_add(p: UniPoly, q: UniPoly) -> UniPoly:
    return UniPoly(_add_lists(p.coeffs, q.coeffs))


def poly_mul(p: UniPoly, q) -> UniPoly:
    """p * q for a polynomial or a rational q."""
    if isinstance(q, (int, Fraction)):
        return UniPoly(tuple(c * q for c in p.coeffs))
    if p.is_zero or q.is_zero:
        return UniPoly(())
    return UniPoly(_mul_lists(p.coeffs, q.coeffs))


def poly_eval(p: UniPoly, v) -> Fraction:
    """p(v) by Horner's rule."""
    acc = Fraction(0)
    for c in reversed(p.coeffs):
        acc = acc * v + c
    return acc


def derivative(p: UniPoly) -> UniPoly:
    return UniPoly(tuple(i * c for i, c in enumerate(p.coeffs) if i > 0))


# ---------------------------------------------------------------------------
# Fraction long division, Euclid gcd, shift and root bound
# ---------------------------------------------------------------------------

def poly_divmod(a: UniPoly, b: UniPoly) -> tuple[UniPoly, UniPoly]:
    """Quotient and remainder of Fraction long division."""
    if b.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    rem, divisor = list(a.coeffs), b.coeffs
    dq = len(rem) - len(divisor)
    if dq < 0:
        return UniPoly(()), a
    quot = [Fraction(0)] * (dq + 1)
    lead = b.coeffs[-1]
    db = b.degree
    for i in range(dq, -1, -1):
        coef = rem[i + db] / lead
        if coef == 0:
            continue
        quot[i] = coef
        for j, cb in enumerate(divisor):
            rem[i + j] -= coef * cb
    return UniPoly(quot), UniPoly(rem)


def fraction_poly_gcd(p: UniPoly, q: UniPoly) -> UniPoly:
    """Monic gcd by Fraction Euclid; gcd(p, 0) = monic(p)."""
    a, b = p, q
    while not b.is_zero:
        a, b = b, poly_divmod(a, b)[1]
    return a.monic()


def shift(p: UniPoly, h) -> UniPoly:
    """Return p(x + h)."""
    acc = UniPoly(())
    xh = UniPoly((h, 1))
    for c in reversed(p.coeffs):
        acc = poly_add(poly_mul(acc, xh), UniPoly((c,)))
    return acc


def cauchy_bound(p: UniPoly) -> Fraction:
    """Every real root of p lies in (-M, M) with M = 1 + max|a_i/a_d|."""
    if p.is_zero:
        raise ValueError("zero polynomial has no root bound")
    lead = abs(p.coeffs[-1])
    if p.degree == 0:
        return Fraction(1)
    return 1 + max(abs(c) / lead for c in p.coeffs[:-1])


# ---------------------------------------------------------------------------
# Exact linear algebra
# ---------------------------------------------------------------------------

def exact_determinant(matrix: list[list[Fraction]]) -> Fraction:
    """Gaussian elimination with exact fractions."""
    m = [row[:] for row in matrix]
    n = len(m)
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            factor = m[r][col] * inv
            if factor == 0:
                continue
            for c in range(col, n):
                m[r][c] -= factor * m[col][c]
    return det


def solve_linear(matrix: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    n = len(matrix)
    m = [row[:] + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if m[r][col] != 0)
        m[col], m[pivot] = m[pivot], m[col]
        inv = 1 / m[col][col]
        m[col] = [v * inv for v in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[col])]
    return [m[r][n] for r in range(n)]


def sylvester_resultant(p: UniPoly, q: UniPoly) -> Fraction:
    """res(p, q) by the Sylvester determinant."""
    if p.is_zero or q.is_zero:
        return Fraction(0)
    dp, dq = p.degree, q.degree
    if dq == 0:
        return q.coeffs[-1] ** dp
    if dp == 0:
        return p.coeffs[-1] ** dq
    size = dp + dq
    rows: list[list[Fraction]] = []
    pc = list(reversed(p.coeffs))  # descending
    qc = list(reversed(q.coeffs))
    for i in range(dq):
        rows.append([Fraction(0)] * i + pc + [Fraction(0)] * (size - dp - 1 - i))
    for i in range(dp):
        rows.append([Fraction(0)] * i + qc + [Fraction(0)] * (size - dq - 1 - i))
    return exact_determinant(rows)


# ---------------------------------------------------------------------------
# Descartes/bisection real-root isolation (independent of Sturm)
# ---------------------------------------------------------------------------

def descartes_count_roots(p: UniPoly) -> int:
    """Number of distinct real roots of a square-free polynomial, by
    Descartes' rule on Moebius-transformed coefficients with interval
    bisection (the Vincent-Collins-Akritas scheme)."""
    if p.is_zero:
        raise ValueError("zero polynomial")
    if p.degree == 0:
        return 0
    bound = cauchy_bound(p)
    lo, hi = -bound - 1, bound + 1
    assert poly_eval(p, lo) != 0 and poly_eval(p, hi) != 0
    return _vca_count(p, lo, hi)


def _vca_count(p: UniPoly, lo: Fraction, hi: Fraction) -> int:
    variations = _mobius_variations(p, lo, hi)
    if variations == 0:
        return 0
    if variations == 1:
        return 1
    mid = (lo + hi) / 2
    at_mid = 1 if poly_eval(p, mid) == 0 else 0
    return _vca_count(p, lo, mid) + at_mid + _vca_count(p, mid, hi)


def _mobius_variations(p: UniPoly, lo: Fraction, hi: Fraction) -> int:
    """Sign variations of (1+x)^d p((lo + hi*x)/(1+x)), an upper bound
    (exact at 0 and 1) for the number of roots of p in (lo, hi)."""
    d = p.degree
    num_pows, den_pows = [[Fraction(1)]], [[Fraction(1)]]
    for _ in range(d):
        num_pows.append(_mul_lists(num_pows[-1], (lo, hi)))
        den_pows.append(_mul_lists(den_pows[-1], (1, 1)))
    acc = []
    for i, c in enumerate(p.coeffs):
        if c != 0:
            acc = _add_lists(acc, _mul_lists(_mul_lists(num_pows[i], den_pows[d - i]), (c,)))
    return sign_variations(acc)


# ---------------------------------------------------------------------------
# The Fraction Sturm chain (independent of the integer primitive chain)
# ---------------------------------------------------------------------------

def fraction_sturm_sequence(p: UniPoly) -> list[UniPoly]:
    """Canonical Sturm chain by Fraction Euclid: p, p', then negated
    remainders."""
    seq = [p, derivative(p)]
    while not seq[-1].is_zero:
        rem = poly_divmod(seq[-2], seq[-1])[1]
        if rem.is_zero:
            break
        seq.append(-rem)
    return [q for q in seq if not q.is_zero]


def fraction_count_real_roots(p: UniPoly,
                              seq: list[UniPoly] | None = None) -> int:
    """Distinct real roots of a square-free polynomial: the Fraction
    Sturm chain (``seq`` when the caller has built it already) evaluated
    by Horner's rule at -(M+1) and M+1 for the Cauchy bound
    M = 1 + max|a_i/a_d|.  Same errors as the library."""
    if p.is_zero:
        raise ValueError("zero polynomial rejected")
    if p.degree == 0:
        return 0
    if seq is None:
        seq = fraction_sturm_sequence(p)
    if seq[-1].degree > 0:
        raise ValueError("polynomial is not square-free")
    bound = cauchy_bound(p) + 1

    def variations(x: Fraction) -> int:
        signs = [v > 0 for v in (poly_eval(q, x) for q in seq) if v != 0]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    return variations(-bound) - variations(bound)


# ---------------------------------------------------------------------------
# Integer roots by Sturm bisection (independent of monotone-run bisection)
# ---------------------------------------------------------------------------

def sturm_integer_roots(p: UniPoly) -> list[int]:
    """All integer roots of a monic integer polynomial of any degree.

    The square-free part is isolated by Sturm bisection on half-integer
    endpoints (never roots of a monic integer polynomial) down to
    width-one windows, each holding one integer candidate.  The chain is
    rescaled to integer coefficients and evaluated at x = m/2 through
    the homogenized form sum c_i m^i 2^(d-i).
    """
    assert p.coeffs[-1] == 1 and all(c.denominator == 1 for c in p.coeffs)
    if p.degree == 0:
        return []
    sq = poly_divmod(p, fraction_poly_gcd(p, derivative(p)))[0]
    chain = []
    for q in fraction_sturm_sequence(sq):
        scale = 1
        for c in q.coeffs:
            scale = scale * c.denominator // gcd(scale, c.denominator)
        chain.append(tuple(int(c * scale) for c in q.coeffs))

    def variations_at_half(num: int) -> int:
        signs = []
        for coeffs in chain:
            acc = coeffs[-1]
            p2 = 1
            for c in reversed(coeffs[:-1]):
                p2 *= 2
                acc = acc * num + c * p2
            if acc:
                signs.append(acc > 0)
        return sum(1 for i in range(len(signs) - 1) if signs[i] != signs[i + 1])

    bound = int(cauchy_bound(sq)) + 1
    roots: list[int] = []
    stack = [(-2 * bound - 1, 2 * bound + 1)]
    while stack:
        lo_num, hi_num = stack.pop()
        if variations_at_half(lo_num) == variations_at_half(hi_num):
            continue
        width = (hi_num - lo_num) // 2
        if width == 1:
            cand = (lo_num + 1) // 2
            if poly_eval(sq, cand) == 0:
                roots.append(cand)
            continue
        mid_num = lo_num + 2 * (width // 2)
        stack.append((lo_num, mid_num))
        stack.append((mid_num, hi_num))
    return sorted(roots)


# ---------------------------------------------------------------------------
# Quartic normal form in Fraction polynomials (independent of the integer
# depressed form)
# ---------------------------------------------------------------------------

def fraction_normal_form_quartic(params: QuarticParams) -> UniPoly:
    """The normal form ((x+b)^2 +- a^2)((x-b)^2 +- c^2) multiplied out as
    a product of two Fraction quadratics."""
    a, b, c = Fraction(params.a), Fraction(params.b), Fraction(params.c)
    sa = 1 if params.k in (0, 2) else -1
    sc = 1 if params.k == 0 else -1
    left = UniPoly([b * b + sa * a * a, 2 * b, 1])
    right = UniPoly([b * b + sc * c * c, -2 * b, 1])
    return poly_mul(left, right)


def fraction_build_quartic_model(params: QuarticParams) -> QuarticModel:
    """build_quartic_model in Fraction arithmetic: the model from its
    roots (or, for k = 2, from the real root and the norm of the complex
    pair) and the marked points, each checked by `fraction_residual`."""
    a, b, c = params.a, params.b, params.c
    four_b2 = 4 * b * b
    if params.k == 0:
        curve = _fraction_curve_from_roots([-four_b2, (c - a) ** 2, (c + a) ** 2])
        p = ECPoint(0, 2 * b * (c * c - a * a))
        torsion = {
            "p1": ECPoint(-four_b2, 0),
            "p2": ECPoint((c - a) ** 2, 0),
            "p3": ECPoint((c + a) ** 2, 0),
        }
        neutral = None
    elif params.k == 2:
        aa_cc = a * a - c * c
        norm2 = (c * c + a * a) ** 2
        curve = WeierstrassCurve(
            c2=four_b2 - 2 * aa_cc,
            c1=norm2 - 2 * four_b2 * aa_cc,
            c0=four_b2 * norm2,
        )
        p = ECPoint(0, 2 * b * (c * c + a * a))
        torsion = {"p1": ECPoint(-four_b2, 0)}
        neutral = None
    else:
        curve = _fraction_curve_from_roots(
            [-four_b2, -((c - a) ** 2), -((c + a) ** 2)])
        p = ECPoint(0, 2 * b * (c * c - a * a))
        torsion = {
            "p1": ECPoint(-four_b2, 0),
            "p2": ECPoint(-((c + a) ** 2), 0),
            "p3": ECPoint(-((c - a) ** 2), 0),
        }
        neutral = "p3" if four_b2 > (c - a) ** 2 else "p1"
    assert fraction_discriminant(curve.c2, curve.c1, curve.c0) != 0
    for point in (p, *torsion.values()):
        assert fraction_residual(curve, point) == 0
    return QuarticModel(curve=curve, p=p, two_torsion=torsion,
                        neutral_two_torsion=neutral)


def _fraction_curve_from_roots(roots: list[Fraction]) -> WeierstrassCurve:
    r1, r2, r3 = roots
    return WeierstrassCurve(
        c2=-(r1 + r2 + r3),
        c1=r1 * r2 + r1 * r3 + r2 * r3,
        c0=-(r1 * r2 * r3),
    )


def fraction_quartic_normal_form(q: UniPoly) -> QuarticParams | None:
    """quartic_normal_form on Fraction polynomials.

    Square-freeness by gcd(q, q'); the cubic term removed by the shift
    x -> x - coeff(x^3)/4; the resolvent cubic rescaled by the common
    denominator of its coefficients before its integer roots are found
    by Sturm bisection; the chosen parameters checked by multiplying the
    two quadratic factors back out.  Same selection rule and same errors
    as the library routine.
    """
    if q.degree != 4:
        raise ValueError("polynomial must have degree 4")
    if q.coeffs[-1] != 1:
        raise ValueError("polynomial must be monic")
    if fraction_poly_gcd(q, derivative(q)).degree > 0:
        raise ValueError("polynomial must be square-free")

    qt = shift(q, -coefficient(q, 3) / 4)
    big_p, big_c, big_r = coefficient(qt, 2), coefficient(qt, 1), coefficient(qt, 0)

    assignments: list[tuple[Fraction, Fraction, Fraction]] = []
    if big_c == 0:
        sq = _rational_sqrt(big_p * big_p - 4 * big_r)
        if sq is not None:
            v = (big_p - sq) / 2
            w = (big_p + sq) / 2
            assignments.append((Fraction(0), v, w))
            if v != w:
                assignments.append((Fraction(0), w, v))
    c2 = 2 * big_p
    c1 = big_p * big_p - 4 * big_r
    c0 = -big_c * big_c
    m = lcm(c2.denominator, c1.denominator, c0.denominator)
    scaled = [c0 * m ** 3, c1 * m ** 2, c2 * m]
    assert all(c.denominator == 1 for c in scaled)
    for root in sturm_integer_roots(UniPoly(scaled + [1])):
        if root <= 0:
            continue
        z = Fraction(root, m)
        u = _rational_sqrt(z)
        if u is None or u == 0:
            continue
        v = (big_p + z - big_c / u) / 2
        w = (big_p + z + big_c / u) / 2
        assignments.append((u / 2, v, w))
        assignments.append((-u / 2, w, v))

    candidates: set[tuple[Fraction, Fraction, Fraction, int]] = set()
    for b, m_plus, m_minus in assignments:
        d_plus = m_plus - b * b
        d_minus = m_minus - b * b
        if d_plus < 0 < d_minus:
            continue
        a, c = _rational_sqrt(abs(d_plus)), _rational_sqrt(abs(d_minus))
        if not a or not c:
            continue
        candidates.add((a, b, c, 2 * (d_plus < 0) + 2 * (d_minus < 0)))

    if not candidates:
        return None
    a, b, c, k = min(candidates, key=lambda t: (-t[1] * t[1], t[1] < 0, t[0], t[2]))
    params = QuarticParams(k=k, a=a, b=b, c=c)
    assert fraction_normal_form_quartic(params) == qt
    return params


# ---------------------------------------------------------------------------
# The parser on Fraction coefficients (independent of the common denominator)
# ---------------------------------------------------------------------------

def _fraction_tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "0123456789":
            j = i
            while j < n and text[j] in "0123456789":
                j += 1
            tokens.append(("int", text[i:j], i))
            i = j
            continue
        if ch in ("x", "y"):
            tokens.append(("var", ch, i))
            i += 1
            continue
        if ch in "+-*^()/=":
            tokens.append((ch, ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    return tokens


def _bipoly_add(p: dict, q: dict) -> dict:
    out = dict(p)
    for m, c in q.items():
        out[m] = out[m] + c if m in out else c
    return {m: c for m, c in out.items() if c != 0}


def _bipoly_mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for (i1, j1), c1 in p.items():
        for (i2, j2), c2 in q.items():
            m = (i1 + i2, j1 + j2)
            out[m] = out[m] + c1 * c2 if m in out else c1 * c2
    return {m: c for m, c in out.items() if c != 0}


def _bipoly_neg(p: dict) -> dict:
    return {m: -c for m, c in p.items()}


def _degree_checked(p: dict, position: int) -> dict:
    if p and max(map(sum, p)) > MAX_DEGREE:
        raise ParseError(f"degree above the limit of {MAX_DEGREE}", position)
    return p


def _size_checked(p: dict, position: int) -> dict:
    _degree_checked(p, position)
    bound = 10 ** MAX_COEFFICIENT_DIGITS
    for c in p.values():
        if abs(c.numerator) >= bound or c.denominator >= bound:
            raise ParseError("coefficient of more than "
                             f"{MAX_COEFFICIENT_DIGITS} digits", position)
    return p


def _literal(tok: tuple[str, str, int]) -> int:
    try:
        return int(tok[1])
    except ValueError:
        raise ParseError(f"integer literal of {len(tok[1])} digits is too long",
                         tok[2]) from None


class _FractionParser:
    """Recursive descent over dicts of Fraction coefficients, each sum and
    product normalized coefficient by coefficient."""

    def __init__(self, tokens: list[tuple[str, str, int]], length: int):
        self.tokens = tokens
        self.pos = 0
        self.length = length

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", self.length)
        self.pos += 1
        return tok

    def expect(self, kind: str):
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok

    def expr(self) -> dict:
        acc = self.term()
        while True:
            tok = self.peek()
            if tok is None or tok[0] not in ("+", "-"):
                return acc
            self.next()
            term = self.term()
            acc = _bipoly_add(acc, _bipoly_neg(term) if tok[0] == "-" else term)

    def term(self) -> dict:
        acc = self.factor()
        while True:
            tok = self.peek()
            if tok is None:
                return acc
            if tok[0] == "*":
                self.next()
            elif tok[0] not in ("int", "var", "("):
                return acc
            acc = _degree_checked(_bipoly_mul(acc, self.factor()), tok[2])

    def factor(self) -> dict:
        tok = self.peek()
        if tok is not None and tok[0] in ("+", "-"):
            # the sign takes the whole signed factor, its power included
            self.next()
            signed = self.factor()
            return _bipoly_neg(signed) if tok[0] == "-" else signed
        base = self.base()
        tok = self.peek()
        if tok is not None and tok[0] == "^":
            self.next()
            etok = self.expect("int")
            e = _literal(etok)
            if e > MAX_DEGREE:
                raise ParseError(f"exponent above the limit of {MAX_DEGREE}", etok[2])
            power = {(0, 0): Fraction(1)}
            for _ in range(e):
                power = _size_checked(_bipoly_mul(power, base), etok[2])
            return power
        return base

    def base(self) -> dict:
        tok = self.next()
        kind, value, pos = tok
        if kind == "int":
            num = _literal(tok)
            nxt = self.peek()
            if nxt is not None and nxt[0] == "/":
                self.next()
                dtok = self.expect("int")
                den = _literal(dtok)
                if den == 0:
                    raise ParseError("zero denominator", dtok[2])
                return {(0, 0): Fraction(num, den)}
            return {(0, 0): Fraction(num)}
        if kind == "var":
            return {(1, 0) if value == "x" else (0, 1): Fraction(1)}
        if kind == "(":
            inner = self.expr()
            self.expect(")")
            return inner
        raise ParseError(f"unexpected token {value!r}", pos)


def fraction_parse_polynomial(text: str, offset: int = 0) -> dict:
    """parse_polynomial with Fraction arithmetic throughout: the same
    grammar, results, errors and positions."""
    try:
        parser = _FractionParser(_fraction_tokenize(text), len(text))
        poly = _size_checked(parser.expr(), 0)
        tok = parser.peek()
        if tok is not None:
            raise ParseError(f"trailing input {tok[1]!r}", tok[2])
    except ParseError as err:
        raise ParseError(str(err).rsplit(" (at", 1)[0], err.position + offset) from None
    return {m: c for m, c in poly.items() if c != 0}


def fraction_format_terms(terms) -> str:
    """The term formatter on Fraction coefficients, the form the library
    used before it formatted integer numerators over a denominator:
    (coefficient, monomial) pairs in the given order, zero terms left
    out, a coefficient of magnitude 1 dropped except on the constant,
    and a bare sign on the first term."""
    parts: list[str] = []
    for coef, mono in terms:
        if coef == 0:
            continue
        mag = abs(coef)
        if not mono:
            body = str(mag)
        else:
            body = mono if mag == 1 else f"{mag}*{mono}"
        if not parts:
            parts.append(body if coef > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if coef > 0 else f"- {body}")
    return " ".join(parts)


# ---------------------------------------------------------------------------
# Conic classification on Fraction matrices (independent of the integer
# scaling)
# ---------------------------------------------------------------------------

def _fraction_signature(matrix: list[list[Fraction]]) -> tuple[int, int, int]:
    """(positive, negative, zero) eigenvalue counts by Descartes' rule on
    the characteristic polynomial."""
    if len(matrix) == 2:
        (a, b), (_, c) = matrix
        coeffs = [a * c - b * b, -(a + c), Fraction(1)]
    else:
        (a, b, d), (_, c, e), (_, _, f) = matrix
        m2 = (a * c - b * b) + (a * f - d * d) + (c * f - e * e)
        det = a * (c * f - e * e) - b * (b * f - e * d) + d * (b * e - c * d)
        coeffs = [-det, m2, -(a + c + f), Fraction(1)]
    zero = 0
    while coeffs[zero] == 0:
        zero += 1
    body = coeffs[zero:]
    return (sign_variations(body),
            sign_variations([c * (-1) ** i for i, c in enumerate(body)]), zero)


def fraction_classify_conic(spec: ConicSpec) -> ConicClass:
    """classify_conic on the Fraction matrices of the quadratic form:
    the same classes, invariants and errors."""
    a, b, c = Fraction(spec.xx), Fraction(spec.xy), Fraction(spec.yy)
    d, e, f = Fraction(spec.x1), Fraction(spec.y1), Fraction(spec.c0)
    h = Fraction(1, 2)
    if a == 0 and b == 0 and c == 0:
        return ConicClass(LINE, CurveInvariants(
            genus=0, real_at_infinity=1, complex_at_infinity=0,
            components=1, compact_components=0))
    proj = [[a, h * b, h * d], [h * b, c, h * e], [h * d, h * e, f]]
    pos2, neg2, _ = _fraction_signature([[a, h * b], [h * b, c]])
    pos3, neg3, zero3 = _fraction_signature(proj)
    if zero3 == 0:
        if pos2 == 1 and neg2 == 1:
            return ConicClass(HYPERBOLA, CurveInvariants(
                genus=0, real_at_infinity=2, complex_at_infinity=0,
                components=2, compact_components=0))
        if pos2 + neg2 == 2:
            if pos3 == 3 or neg3 == 3:
                return ConicClass(IMAGINARY_ELLIPSE, CurveInvariants(
                    genus=0, real_at_infinity=0, complex_at_infinity=1,
                    components=0, compact_components=0))
            return ConicClass(ELLIPSE, CurveInvariants(
                genus=0, real_at_infinity=0, complex_at_infinity=1,
                components=1, compact_components=1))
        return ConicClass(PARABOLA, CurveInvariants(
            genus=0, real_at_infinity=1, complex_at_infinity=0,
            components=1, compact_components=0))
    if zero3 == 1:
        if pos3 == 2 or neg3 == 2:
            # the kernel of proj, by the cross product of two independent rows
            kz = next(r1[0] * r2[1] - r1[1] * r2[0]
                      for i, r1 in enumerate(proj) for r2 in proj[i + 1:]
                      if any(r1[k] * r2[l] != r1[l] * r2[k]
                             for k, l in ((1, 2), (2, 0), (0, 1))))
            if kz == 0:
                return ConicClass(GEOM_DISCONNECTED, CurveInvariants(
                    genus=0, real_at_infinity=0, complex_at_infinity=1,
                    components=0, compact_components=0,
                    geometrically_connected=False))
            raise HypothesisError("not a smooth connected curve: conjugate "
                                  "lines meeting at a real affine point")
        raise HypothesisError(
            "not a smooth connected curve: really-reducible conic (two real lines)")
    raise HypothesisError("not a smooth connected curve: double line")


# ---------------------------------------------------------------------------
# Independent elliptic-curve arithmetic
# ---------------------------------------------------------------------------

def chord_add(curve: WeierstrassCurve, p: ECPoint, q: ECPoint) -> ECPoint:
    """Addition by explicit chord substitution: write the chord as
    u = m*v + q0, substitute into the curve equation, and divide the
    resulting cubic in v exactly by the two known intersection roots;
    the quotient is linear and hands over the third abscissa.  The zero
    remainders double as a check that both points really do lie on the
    chord and the curve."""
    if p.is_infinity:
        return q
    if q.is_infinity:
        return p
    if p.v == q.v:
        if p.u == -q.u:
            return INFINITY
        return tangent_double(curve, p)
    m = (q.u - p.u) / (q.v - p.v)
    q0 = p.u - m * p.v
    cubic = _intersection_cubic(curve, m, q0)
    quot1, rem1 = poly_divmod(cubic, UniPoly([-p.v, 1]))
    assert rem1.is_zero
    quot2, rem2 = poly_divmod(quot1, UniPoly([-q.v, 1]))
    assert rem2.is_zero
    v3 = -coefficient(quot2, 0)
    return ECPoint(v3, -(m * v3 + q0))


def tangent_double(curve: WeierstrassCurve, p: ECPoint) -> ECPoint:
    """Doubling via the implicit-derivative tangent slope
    m = (3v^2 + 2 c2 v + c1)/(2u); tangency makes p.v a double root of
    the intersection cubic, so dividing by (v - p.v)^2 exposes the third
    abscissa."""
    if p.is_infinity or p.u == 0:
        return INFINITY
    m = (3 * p.v * p.v + 2 * curve.c2 * p.v + curve.c1) / (2 * p.u)
    q0 = p.u - m * p.v
    cubic = _intersection_cubic(curve, m, q0)
    quot, rem = poly_divmod(cubic, UniPoly([p.v * p.v, -2 * p.v, 1]))
    assert rem.is_zero
    v3 = -coefficient(quot, 0)
    return ECPoint(v3, -(m * v3 + q0))


def _intersection_cubic(curve: WeierstrassCurve, m: Fraction,
                        q0: Fraction) -> UniPoly:
    """v^3 + (c2 - m^2) v^2 + (c1 - 2 m q0) v + (c0 - q0^2), whose roots
    are the abscissas of the line-curve intersections."""
    return UniPoly([curve.c0 - q0 * q0, curve.c1 - 2 * m * q0,
                    curve.c2 - m * m, 1])


def fraction_discriminant(c2: Fraction, c1: Fraction, c0: Fraction) -> Fraction:
    """The discriminant of v^3 + c2 v^2 + c1 v + c0 in Fractions."""
    return (18 * c2 * c1 * c0 - 4 * c2 ** 3 * c0 + c2 ** 2 * c1 ** 2
            - 4 * c1 ** 3 - 27 * c0 ** 2)


def weierstrass_j_invariant(curve: WeierstrassCurve) -> Fraction:
    """j of u^2 = v^3 + c2 v^2 + c1 v + c0: c4^3 / Delta with
    c4 = 16 (c2^2 - 3 c1) and Delta = 16 disc, i.e.
    256 (c2^2 - 3 c1)^3 / disc."""
    c2, c1, c0 = curve.c2, curve.c1, curve.c0
    return 256 * (c2 * c2 - 3 * c1) ** 3 / fraction_discriminant(c2, c1, c0)


def quartic_j_invariant(q: UniPoly) -> Fraction:
    """j of the Jacobian of y^2 = q, q a square-free quartic
    a x^4 + b x^3 + c x^2 + d x + e, from its classical invariants
    I = 12ae - 3bd + c^2 and J = 72ace + 9bcd - 27ad^2 - 27eb^2 - 2c^3:
    the Jacobian is Y^2 = X^3 - 27 I X - 27 J, so j = 6912 I^3 / (4 I^3 - J^2)
    (Cremona, Classical invariants and 2-descent on elliptic curves,
    J. Symbolic Comput. 31, 2001).  It shares no formula with the
    library's Jacobian model, which is built from the normal form."""
    e, d, c, b, a = q.coeffs
    big_i = 12 * a * e - 3 * b * d + c * c
    big_j = 72 * a * c * e + 9 * b * c * d - 27 * a * d * d - 27 * e * b * b - 2 * c ** 3
    return 6912 * big_i ** 3 / (4 * big_i ** 3 - big_j ** 2)


def fraction_residual(curve: WeierstrassCurve, point: ECPoint) -> Fraction:
    """u^2 - (v^3 + c2 v^2 + c1 v + c0) in Fractions; 0 at infinity."""
    if point.is_infinity:
        return Fraction(0)
    v, u = point.v, point.u
    return u * u - (((v + curve.c2) * v + curve.c1) * v + curve.c0)


def stepwise_torsion_order(curve: WeierstrassCurve, p: ECPoint,
                           bound: int) -> int | None:
    """The smallest n <= min(bound, 12) with nP = Infinity, by adding P
    to itself with `chord_add` up to that bound and nothing else."""
    acc = INFINITY
    for n in range(1, min(bound, 12) + 1):
        acc = chord_add(curve, acc, p)
        if acc.is_infinity:
            return n
    return None


# ---------------------------------------------------------------------------
# Nagell-Lutz screening
# ---------------------------------------------------------------------------

def nagell_lutz_excludes_torsion(curve: WeierstrassCurve, p: ECPoint) -> bool:
    """True when the point is certainly NOT torsion.

    Scaling (v, u) -> (L^2 v, L^3 u) with L the lcm of the coefficient
    denominators yields an integral model u^2 = v^3 + Av^2 + Bv + C on
    which torsion points have integer coordinates (Nagell-Lutz).  A
    non-integral image therefore rules torsion out; an integral one is
    inconclusive.
    """
    if p.is_infinity:
        return False
    scale = lcm(curve.c2.denominator, curve.c1.denominator,
                curve.c0.denominator)
    v_int = p.v * scale ** 2
    u_int = p.u * scale ** 3
    return v_int.denominator != 1 or u_int.denominator != 1


# ---------------------------------------------------------------------------
# Polynomial Pell units (independent of the Jacobian and its group law)
# ---------------------------------------------------------------------------

def _sqrt_laurent(q: UniPoly, count: int) -> list[Fraction]:
    """t_0, ..., t_(count-1) with sqrt(q) = sum t_m x^(2-m), the branch
    at infinity with t_0 = 1, for a monic quartic q: squaring gives
    2 t_m = [x^(4-m)]q - sum_{0<j<m} t_j t_(m-j)."""
    target = list(reversed(q.coeffs)) + [Fraction(0)] * count
    t = [Fraction(1)]
    for m in range(1, count):
        t.append((target[m] - sum(t[j] * t[m - j] for j in range(1, m))) / 2)
    return t


def pell_torsion_order(q: UniPoly, bound: int = 12) -> int | None:
    """The least n <= bound for which y^2 = q has a unit f + g*y with
    f^2 - q*g^2 a nonzero constant, deg f = n and deg g = n - 2, or None.

    q must be a monic square-free rational quartic.  Such a unit has
    divisor n times the difference of the two points at infinity (Abel;
    Platonov 2014), so the least n is the order of that class in the
    Jacobian, which the library calls p.  No elliptic arithmetic is used.

    With sqrt(q) = sum t_m x^(2-m), f is the polynomial part of g*sqrt(q)
    and f - g*sqrt(q) = O(x^-n), so the coefficients of x^-1 .. x^-(n-1)
    of g*sqrt(q) vanish: sum_j g_j t_(2+i+j) = 0 for i = 1 .. n-1.  That
    Hankel system in the n - 1 coefficients of g has a solution g != 0
    exactly when its determinant is 0, and then deg g = n - 2 (a lower
    degree would make f^2 - q*g^2 = O(x^-1), so 0, and q a square).  With
    g monic, the first n - 2 rows are the previous n's matrix, which was
    not singular, so `solve_linear` takes them.  The unit is then checked
    with the two products f^2 and q*g^2.
    """
    if q.degree != 4 or q.coeffs[-1] != 1:
        raise ValueError("monic quartic required")
    if fraction_poly_gcd(q, derivative(q)).degree > 0:
        raise ValueError("square-free quartic required")
    t = _sqrt_laurent(q, 2 * bound + 1)
    for n in range(2, bound + 1):
        hankel = [[t[2 + i + j] for j in range(n - 1)] for i in range(1, n)]
        if exact_determinant(hankel) != 0:
            continue
        head = [row[:-1] for row in hankel[:-1]]
        g = solve_linear(head, [-row[-1] for row in hankel[:-1]]) + [Fraction(1)]
        f = [sum(g[j] * t[2 + j - e] for j in range(max(0, e - 2), n - 1))
             for e in range(n + 1)]
        q_g2 = _mul_lists(q.coeffs, _mul_lists(g, g))
        norm = _add_lists(_mul_lists(f, f), [-c for c in q_g2])
        assert norm[0] != 0 and not any(norm[1:]), (q, n, norm)
        return n
    return None


# ---------------------------------------------------------------------------
# Brute-force rational quadratic factor search (independent of resolvents)
# ---------------------------------------------------------------------------

def has_rational_quadratic_split(q: UniPoly) -> bool:
    """Whether a monic integer-coefficient quartic splits into two monic
    quadratics over Q, by undetermined coefficients.

    Gauss's lemma puts any such factorization in Z[x], so
    (x^2 + px + r)(x^2 + sx + t) needs integer r*t = c0 and p + s = c3;
    enumerating divisors of c0 makes the search finite.
    """
    if q.degree != 4 or q.coeffs[-1] != 1:
        raise ValueError("monic quartic required")
    if any(c.denominator != 1 for c in q.coeffs):
        raise ValueError("integer coefficients required")
    c0 = int(coefficient(q, 0))
    c1 = int(coefficient(q, 1))
    c2 = int(coefficient(q, 2))
    c3 = int(coefficient(q, 3))
    if c0 == 0:
        # x divides q; pair it with each rational linear factor
        rest = UniPoly([coefficient(q, 1), coefficient(q, 2), coefficient(q, 3), 1])
        return any(poly_eval(rest, n) == 0
                   for n in _divisor_candidates(int(coefficient(rest, 0)))) \
            if coefficient(rest, 0) != 0 else True
    for r in _divisor_candidates(c0):
        if c0 % r != 0:
            continue
        t = c0 // r
        # p + s = c3, r + t + p*s = c2, p*t + r*s = c1
        # p*s = c2 - r - t and p + s = c3: p, s are roots of
        # z^2 - c3 z + (c2 - r - t)
        disc = c3 * c3 - 4 * (c2 - r - t)
        if disc < 0:
            continue
        root = _isqrt_exact(disc)
        if root is None:
            continue
        for pp in ((c3 + root) // 2, (c3 - root) // 2):
            if 2 * pp != c3 + root and 2 * pp != c3 - root:
                continue
            ss = c3 - pp
            if pp * t + r * ss == c1 and pp * ss == c2 - r - t:
                return True
    return False


def _divisor_candidates(n: int):
    n = abs(n)
    divisors = set()
    d = 1
    while d * d <= n:
        if n % d == 0:
            divisors.update({d, -d, n // d, -(n // d)})
        d += 1
    return sorted(divisors)


def _isqrt_exact(n: int) -> int | None:
    r = isqrt(n)
    return r if r * r == n else None


def _rational_sqrt(x: Fraction) -> Fraction | None:
    """The square root of x when x is the square of a rational, else None:
    numerator and denominator in lowest terms must both be squares."""
    if x < 0:
        return None
    num, den = _isqrt_exact(x.numerator), _isqrt_exact(x.denominator)
    return None if num is None or den is None else Fraction(num, den)


# ---------------------------------------------------------------------------
# Random generators
# ---------------------------------------------------------------------------

def random_squarefree_poly(rng: random.Random, max_degree: int = 8,
                           coeff_bound: int = 20) -> UniPoly:
    while True:
        degree = rng.randint(1, max_degree)
        coeffs = [rng.randint(-coeff_bound, coeff_bound) for _ in range(degree)]
        coeffs.append(rng.choice([c for c in range(-coeff_bound, coeff_bound + 1)
                                  if c != 0]))
        p = UniPoly(coeffs)
        if fraction_poly_gcd(p, derivative(p)).degree == 0:
            return p


def random_invariants(rng: random.Random, family: str | None = None,
                      gmax: int = 8) -> CurveInvariants:
    """A random consistent invariant tuple of a non-complete curve from
    one of the three case families (real points, empty and connected,
    not geometrically connected)."""
    if family is None:
        family = rng.choice(["open_real", "open_empty", "open_disconnected"])
    g = rng.randint(0, gmax)
    if family == "open_real":
        t = rng.randint(0, 4)
        r = rng.randint(0 if t > 0 else 1, 4)
        c = rng.randint(1 if r == 0 else 0, 4)
        return CurveInvariants(genus=g, real_at_infinity=r, complex_at_infinity=c,
                               components=t + r, compact_components=t)
    if family == "open_empty":
        return CurveInvariants(genus=g, real_at_infinity=0,
                               complex_at_infinity=rng.randint(1, 4),
                               components=0, compact_components=0)
    if family == "open_disconnected":
        return CurveInvariants(genus=g, real_at_infinity=0,
                               complex_at_infinity=rng.randint(1, 4),
                               components=0, compact_components=0,
                               geometrically_connected=False)
    raise ValueError(f"unknown family {family!r}")


def curve_through(points: list[tuple[Fraction, Fraction]]) -> WeierstrassCurve:
    """The curve u^2 = v^3 + c2 v^2 + c1 v + c0 through three affine
    points with distinct abscissas (linear solve for c2, c1, c0)."""
    assert len(points) == 3
    matrix = [[v * v, v, Fraction(1)] for v, _ in points]
    rhs = [u * u - v ** 3 for v, u in points]
    c2, c1, c0 = solve_linear(matrix, rhs)
    return WeierstrassCurve(c2=c2, c1=c1, c0=c0)


def random_curve_with_points(rng: random.Random, span: int = 9):
    """A random smooth curve with three independently chosen rational
    points on it."""
    from realcurves import SingularCurveError
    while True:
        vs = rng.sample(range(-span, span + 1), 3)
        points = []
        for v in vs:
            num = rng.randint(1, 2 * span)
            den = rng.randint(1, 4)
            points.append((Fraction(v), Fraction(num, den)))
        try:
            curve = curve_through(points)
        except SingularCurveError:
            continue
        return curve, [ECPoint(v, u) for v, u in points]


# ---------------------------------------------------------------------------
# Group-string parser (round-trip check for the formatter)
# ---------------------------------------------------------------------------

_SUMMAND = re.compile(r"^\(?(?P<base>Z(?:/(?P<n>\d+))?|Q/Z)\)?(?:\^(?P<e>\d+))?$")


def parse_group_string(text: str) -> GroupDescriptor:
    if text == "0":
        return GroupDescriptor()
    free = qz = z4 = z2 = 0
    zn = None
    for chunk in text.split(" (+) "):
        m = _SUMMAND.match(chunk)
        if not m:
            raise ValueError(f"unparseable summand {chunk!r}")
        count = int(m.group("e") or 1)
        base = m.group("base")
        if base == "Z":
            free += count
        elif base == "Q/Z":
            qz += count
        elif base == "Z/4":
            z4 += count
        elif base == "Z/2":
            z2 += count
        else:
            n = int(m.group("n"))
            if zn is not None and zn[0] != n:
                raise ValueError("mixed Z/n moduli")
            zn = (n, count if zn is None else zn[1] + count)
    return GroupDescriptor(free_rank=free, qz=qz, z4=z4, zn=zn, z2=z2)

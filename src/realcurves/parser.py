"""Parser for curve input expressions.

Grammar (UTF-8 text):

* conic form:          "<poly in x,y> = 0"
* hyperelliptic form:  "y^2 = <poly in x>"

Coefficients are integers or p/q rationals, '*' is optional between a
coefficient and a variable, '^' denotes a nonnegative integer power, and
parenthesized subexpressions with + - * are allowed, so inputs like
"y^2 = (x^2-1)*(x^2-9)" parse directly.  Syntax errors carry the
character position at which they were detected.

While it is parsed, a polynomial is a pair: integer numerators by
monomial over one positive common denominator that is coprime to their
content.  A p/q literal is reduced on entry, a sum goes over the lcm of
the two denominators and a product multiplies integers.  That is the
form a `UniPoly` holds, so the right-hand side of y^2 = Q becomes one
with no Fractions; `parse_polynomial` builds Fractions once, for the
finished polynomial.

The work an input can ask for is bounded: exponents and degrees above
MAX_DEGREE and coefficients (in lowest terms) of more than
MAX_COEFFICIENT_DIGITS digits are parse errors.  Degrees are checked
after every product, the steps of a power included; coefficients after
every step of a power, where they can grow exponentially in the input
length, and once for the whole polynomial, reported at its start.  The
other numbers the command line takes (--coeffs, `ec --curve`, `ec`
points) are read by `read_rationals`, and held to the same digit limit.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .curves import ConicSpec, CurveSpec, HyperellipticSpec
from .polys import UniPoly

Monomial = tuple[int, int]              # (x exponent, y exponent)
BiPoly = dict[Monomial, Fraction]       # sparse bivariate polynomial
Poly = tuple[dict[Monomial, int], int]  # (numerators, common denominator)

# The slowest short input found at degree 18, a product of linear
# factors with 4- to 6-digit rational roots (about 360 characters), takes
# about 0.07 s to analyze on one Intel Xeon core (Python 3.11); the cost
# grows with about the fifth power of the degree.
MAX_DEGREE = 18
# the default int-string digit limit: larger coefficients cannot be printed
MAX_COEFFICIENT_DIGITS = 4300
_COEFFICIENT_BOUND = 10 ** MAX_COEFFICIENT_DIGITS
_TOO_LONG = f"coefficient of more than {MAX_COEFFICIENT_DIGITS} digits"


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

_KINDS = {"x": "var", "y": "var", **{c: c for c in "+-*^()/="}}


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """Produce (kind, value, position) triples; kinds are 'int', 'var', or
    a literal operator character."""
    tokens = []
    end = 0  # end of the last integer literal
    for i, ch in enumerate(text):
        if i < end:
            continue
        kind = _KINDS.get(ch)
        if kind is not None:
            tokens.append((kind, ch, i))
        elif ch.isdigit():
            end = i + 1
            while end < len(text) and text[end].isdigit():
                end += 1
            tokens.append(("int", text[i:end], i))
        elif not ch.isspace():
            raise ParseError(f"unexpected character {ch!r}", i)
    return tokens


# ---------------------------------------------------------------------------
# Recursive-descent parser over bivariate polynomials
# ---------------------------------------------------------------------------

_ZERO: Poly = ({}, 1)


def _poly_add(p: Poly, q: Poly) -> Poly:
    """p + q over the lcm of den p and den q, den p * den q / g, then
    cancelled by gcd(content, g): a prime of one denominator only cannot
    divide the content of the sum (Henrici's rule for Fraction sums)."""
    (pn, pd), (qn, qd) = p, q
    g = gcd(pd, qd)
    sp, sq = qd // g, pd // g
    out = {m: c * sp for m, c in pn.items()}
    for m, c in qn.items():
        out[m] = out[m] + c * sq if m in out else c * sq
    out = {m: c for m, c in out.items() if c}
    if not out:
        return _ZERO
    g = gcd(g, *out.values())
    if g == 1:
        return out, pd * sp
    return {m: c // g for m, c in out.items()}, pd * sp // g


def _poly_mul(p: Poly, q: Poly) -> Poly:
    """p * q with each content first cancelled against the other
    denominator; by Gauss's lemma the product is then content-reduced."""
    (pn, pd), (qn, qd) = p, q
    if qd != 1 and (g := gcd(qd, *pn.values())) != 1:
        pn, qd = {m: c // g for m, c in pn.items()}, qd // g
    if pd != 1 and (g := gcd(pd, *qn.values())) != 1:
        qn, pd = {m: c // g for m, c in qn.items()}, pd // g
    out: dict[Monomial, int] = {}
    for (i1, j1), c1 in pn.items():
        for (i2, j2), c2 in qn.items():
            m = (i1 + i2, j1 + j2)
            out[m] = out[m] + c1 * c2 if m in out else c1 * c2
    out = {m: c for m, c in out.items() if c}
    return (out, pd * qd) if out else _ZERO


def _poly_neg(p: Poly) -> Poly:
    return {m: -c for m, c in p[0].items()}, p[1]


def _degree_bounded(p: dict[Monomial, object], position: int) -> None:
    if p and max(map(sum, p)) > MAX_DEGREE:
        raise ParseError(f"degree above the limit of {MAX_DEGREE}", position)


def _bounded(p: Poly, position: int) -> Poly:
    """p itself, or a ParseError at `position` when its degree is too
    high or a coefficient, in lowest terms, too long.

    A denominator and numerators below the bound bound every coefficient
    in lowest terms; past it, c/den is too long in lowest terms when |c|
    or den reaches the bound times gcd(c, den)."""
    terms, den = p
    _degree_bounded(terms, position)
    bound, values = _COEFFICIENT_BOUND, terms.values()
    if den >= bound or not -bound < min(values, default=0) <= max(values, default=0) < bound:
        for c in values:
            least = bound * gcd(c, den)
            if not -least < c < least or den >= least:
                raise ParseError(_TOO_LONG, position)
    return p


def _int(tok: tuple[str, str, int]) -> int:
    try:
        return int(tok[1])
    except ValueError:  # beyond the interpreter's int-string digit limit
        raise ParseError(f"integer literal of {len(tok[1])} digits is too long",
                         tok[2]) from None


class _Parser:
    def __init__(self, tokens: list[tuple[str, str, int]], length: int):
        # an end token ends the list, so looking ahead never runs off it
        self.tokens = tokens + [("end", "", length)]
        self.pos = 0

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        if tok[0] == "end":
            raise ParseError("unexpected end of input", tok[2])
        self.pos += 1
        return tok

    def expect(self, kind: str) -> tuple[str, str, int]:
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok

    def parse_expr(self) -> Poly:
        tok = self.tokens[self.pos]
        if tok[0] == "+" or tok[0] == "-":
            self.pos += 1
            acc = self.parse_term()
            if tok[0] == "-":
                acc = _poly_neg(acc)
        else:
            acc = self.parse_term()
        while True:
            tok = self.tokens[self.pos]
            if tok[0] != "+" and tok[0] != "-":
                return acc
            self.pos += 1
            term = self.parse_term()
            acc = _poly_add(acc, _poly_neg(term) if tok[0] == "-" else term)

    def parse_term(self) -> Poly:
        acc = self.parse_factor()
        while True:
            tok = self.tokens[self.pos]
            if tok[0] == "*":
                self.pos += 1
            elif tok[0] not in ("int", "var", "("):
                return acc
            # "*" or implicit multiplication, e.g. "2x" or "(x-1)(x+1)"
            acc = _poly_mul(acc, self.parse_factor())
            _degree_bounded(acc[0], tok[2])

    def parse_factor(self) -> Poly:
        base = self.parse_base()
        if self.tokens[self.pos][0] != "^":
            return base
        self.pos += 1
        etok = self.expect("int")
        e = _int(etok)
        if e > MAX_DEGREE:
            raise ParseError(f"exponent above the limit of {MAX_DEGREE}", etok[2])
        terms, den = base
        if den == 1 and len(terms) == 1:
            [((i, j), c)] = terms.items()
            if c == 1 or c == -1:
                # the degree grows with each step and no coefficient can,
                # so the steps' checks come down to the degree of the last
                power = {(i * e, j * e): c ** e}
                _degree_bounded(power, etok[2])
                return power, 1
        power: Poly = ({(0, 0): 1}, 1)
        for _ in range(e):
            power = _bounded(_poly_mul(power, base), etok[2])
        return power

    def parse_base(self) -> Poly:
        tok = self.next()
        kind, value, pos = tok
        if kind == "int":
            num = _int(tok)
            if self.tokens[self.pos][0] == "/":
                self.pos += 1
                dtok = self.expect("int")
                den = _int(dtok)
                if den == 0:
                    raise ParseError("zero denominator", dtok[2])
                g = gcd(num, den)
                return ({(0, 0): num // g}, den // g) if num else _ZERO
            return ({(0, 0): num}, 1) if num else _ZERO
        if kind == "var":
            return {(1, 0) if value == "x" else (0, 1): 1}, 1
        if kind == "(":
            inner = self.parse_expr()
            self.expect(")")
            return inner
        if kind == "-":
            return _poly_neg(self.parse_factor())
        if kind == "+":
            return self.parse_factor()
        raise ParseError(f"unexpected token {value!r}", pos)


def _parse(text: str, offset: int) -> Poly:
    """The polynomial as it was parsed.

    `offset` is the position of `text` inside the whole input; it is
    added once here to the position of every error, end of input
    included.
    """
    try:
        parser = _Parser(_tokenize(text), len(text))
        p = _bounded(parser.parse_expr(), 0)
        tok = parser.tokens[parser.pos]
        if tok[0] != "end":
            raise ParseError(f"trailing input {tok[1]!r}", tok[2])
    except ParseError as err:
        raise ParseError(str(err).rsplit(" (at", 1)[0], err.position + offset) from None
    return p


def parse_polynomial(text: str, offset: int = 0) -> BiPoly:
    """Parse a polynomial in x, y into sparse form, errors shifted by
    `offset`."""
    terms, den = _parse(text, offset)
    return {m: Fraction(c, den) for m, c in terms.items()}


# ---------------------------------------------------------------------------
# Curve-level parsing
# ---------------------------------------------------------------------------

def _to_unipoly_in_x(p: Poly, position: int) -> UniPoly:
    terms, den = p
    if any(j for _, j in terms):
        raise ParseError("right-hand side must involve x only", position)
    numerators = [0] * (max((i for i, _ in terms), default=-1) + 1)
    for (i, _), c in terms.items():
        numerators[i] = c
    return UniPoly.from_integers(numerators, den)


def parse_curve(text: str) -> CurveSpec:
    """Parse a curve expression into a normalized CurveSpec.

    "<poly in x,y> = 0" takes the conic path (total degree <= 2
    enforced); "y^2 = <poly in x>" takes the hyperelliptic path with the
    right-hand side stored exactly.
    """
    if text.count("=") != 1:
        raise ParseError("expected exactly one '='", len(text))
    lhs_text, rhs_text = text.split("=")
    rhs_offset = len(lhs_text) + 1
    lhs = parse_polynomial(lhs_text)
    rhs = _parse(rhs_text, rhs_offset)

    if not rhs[0]:  # "... = 0"
        return conic_from_bipoly(lhs)
    if lhs == {(0, 2): Fraction(1)}:
        q = _to_unipoly_in_x(rhs, rhs_offset)
        return hyperelliptic_from_unipoly(q, position=rhs_offset)
    raise ParseError(
        "left-hand side must be y^2, or the right-hand side must be 0", 0)


def conic_from_bipoly(p: BiPoly) -> ConicSpec:
    if not p:
        raise ParseError("polynomial is identically zero", 0)
    for (i, j) in p:
        if i + j > 2:
            raise ParseError("total degree > 2 on the conic path", 0)
    g = lambda m: p.get(m, Fraction(0))
    return ConicSpec(xx=g((2, 0)), xy=g((1, 1)), yy=g((0, 2)),
                     x1=g((1, 0)), y1=g((0, 1)), c0=g((0, 0)))


def hyperelliptic_from_unipoly(q: UniPoly, position: int = 0) -> HyperellipticSpec:
    if q.is_zero or q.degree < 1:
        raise ParseError("right-hand side must be a nonconstant polynomial", position)
    return HyperellipticSpec(q)


def parse_coefficient_list(text: str) -> HyperellipticSpec:
    """Parse the --coeffs form: 'a0,a1,...,ad' ascending, rationals allowed."""
    coeffs = read_rationals(text, "coefficient list")
    # the degree first: the common denominator of a long list is costly
    _degree_bounded({(i, 0): c for i, c in enumerate(coeffs) if c}, 0)
    return hyperelliptic_from_unipoly(UniPoly(coeffs))


def read_rationals(text: str, what: str) -> list[Fraction]:
    """The comma-separated rationals of `text`, in Fraction's syntax
    without exponent notation and checked by `bounded_rational`; any
    other entry is a ParseError "bad <what>: ..."."""
    parts = [p.strip() for p in text.split(",")]
    for p in parts:
        if "e" in p.lower():  # Fraction would expand 1e<n> to n digits
            raise ParseError(f"bad {what}: exponent notation in {p!r}", 0)
    try:
        values = [Fraction(p) for p in parts]
    except (ValueError, ZeroDivisionError) as err:
        raise ParseError(f"bad {what}: {err}", 0) from None
    for value in values:
        bounded_rational(value)
    return values


def bounded_rational(value: Fraction) -> Fraction:
    """`value` itself, or a ParseError when its numerator or denominator
    has more than MAX_COEFFICIENT_DIGITS digits, too many to print."""
    if (value.denominator >= _COEFFICIENT_BOUND
            or not -_COEFFICIENT_BOUND < value.numerator < _COEFFICIENT_BOUND):
        raise ParseError(_TOO_LONG, 0)
    return value

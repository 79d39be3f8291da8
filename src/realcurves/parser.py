"""Parser for curve input expressions.

Grammar (UTF-8 text):

* conic form:          "<poly in x,y> = 0"
* hyperelliptic form:  "y^2 = <poly in x>"

Coefficients are integers or p/q rationals, '*' is optional between a
coefficient and a variable, '^' denotes a nonnegative integer power, and
parenthesized subexpressions with + - * are allowed, so inputs like
"y^2 = (x^2-1)*(x^2-9)" parse directly.  Syntax errors carry the
character position at which they were detected.

The work an input can ask for is bounded: exponents and degrees above
MAX_DEGREE and coefficients of more than MAX_COEFFICIENT_DIGITS digits
are parse errors.  Degrees are checked after every product, the steps
of a power included; coefficients after every step of a power, where
they can grow exponentially in the input length, and once for the whole
polynomial, reported at its start.
"""

from __future__ import annotations

from fractions import Fraction

from .curves import ConicSpec, CurveSpec, HyperellipticSpec
from .polys import UniPoly

Monomial = tuple[int, int]          # (x exponent, y exponent)
BiPoly = dict[Monomial, Fraction]   # sparse bivariate polynomial

# The slowest short input found at degree 18, a product of linear
# factors with 4- to 6-digit rational roots (about 360 characters), takes
# about 0.07 s to analyze on one Intel Xeon core (Python 3.11); the cost
# grows with about the fifth power of the degree.
MAX_DEGREE = 18
# the default int-string digit limit: larger coefficients cannot be printed
MAX_COEFFICIENT_DIGITS = 4300
_COEFFICIENT_BOUND = 10 ** MAX_COEFFICIENT_DIGITS


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

_SINGLE = {"+", "-", "*", "^", "(", ")", "/", "="}


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """Produce (kind, value, position) triples; kinds are 'int', 'var', or
    a literal operator character."""
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("int", text[i:j], i))
            i = j
            continue
        if ch in ("x", "y"):
            tokens.append(("var", ch, i))
            i += 1
            continue
        if ch in _SINGLE:
            tokens.append((ch, ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    return tokens


# ---------------------------------------------------------------------------
# Recursive-descent parser over bivariate polynomials
# ---------------------------------------------------------------------------

def _poly_add(p: BiPoly, q: BiPoly) -> BiPoly:
    out = dict(p)
    for m, c in q.items():
        out[m] = out[m] + c if m in out else c
    return {m: c for m, c in out.items() if c != 0}


def _poly_mul(p: BiPoly, q: BiPoly) -> BiPoly:
    out: BiPoly = {}
    for (i1, j1), c1 in p.items():
        for (i2, j2), c2 in q.items():
            m = (i1 + i2, j1 + j2)
            c = c1 * c2
            out[m] = out[m] + c if m in out else c
    return {m: c for m, c in out.items() if c != 0}


def _poly_neg(p: BiPoly) -> BiPoly:
    return {m: -c for m, c in p.items()}


def _degree_bounded(p: BiPoly, position: int) -> BiPoly:
    """p itself, or a ParseError at `position` when its degree is too high."""
    if p and max(map(sum, p)) > MAX_DEGREE:
        raise ParseError(f"degree above the limit of {MAX_DEGREE}", position)
    return p


def _bounded(p: BiPoly, position: int) -> BiPoly:
    """p itself, or a ParseError at `position` when its degree is too
    high or a coefficient too long."""
    _degree_bounded(p, position)
    for c in p.values():
        if abs(c.numerator) >= _COEFFICIENT_BOUND or c.denominator >= _COEFFICIENT_BOUND:
            raise ParseError("coefficient of more than "
                             f"{MAX_COEFFICIENT_DIGITS} digits", position)
    return p


def _int(tok: tuple[str, str, int]) -> int:
    try:
        return int(tok[1])
    except ValueError:  # beyond the interpreter's int-string digit limit
        raise ParseError(f"integer literal of {len(tok[1])} digits is too long",
                         tok[2]) from None


class _Parser:
    def __init__(self, tokens: list[tuple[str, str, int]], length: int):
        self.tokens = tokens
        self.pos = 0
        self.length = length

    def peek(self) -> tuple[str, str, int] | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> tuple[str, str, int]:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", self.length)
        self.pos += 1
        return tok

    def expect(self, kind: str) -> tuple[str, str, int]:
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok

    def parse_expr(self) -> BiPoly:
        tok = self.peek()
        if tok is not None and tok[0] in ("+", "-"):
            self.next()
            acc = self.parse_term()
            if tok[0] == "-":
                acc = _poly_neg(acc)
        else:
            acc = self.parse_term()
        while True:
            tok = self.peek()
            if tok is None or tok[0] not in ("+", "-"):
                return acc
            self.next()
            term = self.parse_term()
            acc = _poly_add(acc, _poly_neg(term) if tok[0] == "-" else term)

    def parse_term(self) -> BiPoly:
        acc = self.parse_factor()
        while True:
            tok = self.peek()
            if tok is None:
                return acc
            if tok[0] == "*":
                self.next()
            elif tok[0] not in ("int", "var", "("):
                return acc
            # "*" or implicit multiplication, e.g. "2x" or "(x-1)(x+1)"
            acc = _degree_bounded(_poly_mul(acc, self.parse_factor()), tok[2])

    def parse_factor(self) -> BiPoly:
        base = self.parse_base()
        tok = self.peek()
        if tok is not None and tok[0] == "^":
            self.next()
            etok = self.expect("int")
            e = _int(etok)
            if e > MAX_DEGREE:
                raise ParseError(f"exponent above the limit of {MAX_DEGREE}", etok[2])
            power: BiPoly = {(0, 0): Fraction(1)}
            for _ in range(e):
                power = _bounded(_poly_mul(power, base), etok[2])
            return power
        return base

    def parse_base(self) -> BiPoly:
        tok = self.next()
        kind, value, pos = tok
        if kind == "int":
            num = _int(tok)
            nxt = self.peek()
            if nxt is not None and nxt[0] == "/":
                self.next()
                dtok = self.expect("int")
                den = _int(dtok)
                if den == 0:
                    raise ParseError("zero denominator", dtok[2])
                return {(0, 0): Fraction(num, den)}
            return {(0, 0): Fraction(num)}
        if kind == "var":
            return {(1, 0) if value == "x" else (0, 1): Fraction(1)}
        if kind == "(":
            inner = self.parse_expr()
            self.expect(")")
            return inner
        if kind == "-":
            return _poly_neg(self.parse_factor())
        if kind == "+":
            return self.parse_factor()
        raise ParseError(f"unexpected token {value!r}", pos)


def parse_polynomial(text: str, offset: int = 0) -> BiPoly:
    """Parse a polynomial in x, y into sparse form.

    `offset` is the position of `text` inside the whole input; it is
    added once here to the position of every error, end of input
    included.
    """
    try:
        parser = _Parser(_tokenize(text), len(text))
        poly = _bounded(parser.parse_expr(), 0)
        tok = parser.peek()
        if tok is not None:
            raise ParseError(f"trailing input {tok[1]!r}", tok[2])
    except ParseError as err:
        raise ParseError(str(err).rsplit(" (at", 1)[0], err.position + offset) from None
    return {m: c for m, c in poly.items() if c != 0}


# ---------------------------------------------------------------------------
# Curve-level parsing
# ---------------------------------------------------------------------------

def _is_y_squared(p: BiPoly) -> bool:
    return p == {(0, 2): Fraction(1)}


def _to_unipoly_in_x(p: BiPoly, position: int) -> UniPoly:
    coeffs: dict[int, Fraction] = {}
    for (i, j), c in p.items():
        if j != 0:
            raise ParseError("right-hand side must involve x only", position)
        coeffs[i] = c
    if not coeffs:
        return UniPoly.zero()
    out = [Fraction(0)] * (max(coeffs) + 1)
    for i, c in coeffs.items():
        out[i] = c
    return UniPoly(out)


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
    rhs = parse_polynomial(rhs_text, offset=rhs_offset)

    if rhs == {}:  # "... = 0"
        return conic_from_bipoly(lhs, position=0)
    if _is_y_squared(lhs):
        q = _to_unipoly_in_x(rhs, rhs_offset)
        return hyperelliptic_from_unipoly(q, position=rhs_offset)
    raise ParseError(
        "left-hand side must be y^2, or the right-hand side must be 0", 0)


def conic_from_bipoly(p: BiPoly, position: int = 0) -> ConicSpec:
    if not p:
        raise ParseError("polynomial is identically zero", position)
    for (i, j) in p:
        if i + j > 2:
            raise ParseError("total degree > 2 on the conic path", position)
    g = lambda m: p.get(m, Fraction(0))
    return ConicSpec(xx=g((2, 0)), xy=g((1, 1)), yy=g((0, 2)),
                     x1=g((1, 0)), y1=g((0, 1)), c0=g((0, 0)))


def hyperelliptic_from_unipoly(q: UniPoly, position: int = 0) -> HyperellipticSpec:
    if q.is_zero or q.degree < 1:
        raise ParseError("right-hand side must be a nonconstant polynomial", position)
    return HyperellipticSpec(q)


def parse_coefficient_list(text: str) -> HyperellipticSpec:
    """Parse the --coeffs form: 'a0,a1,...,ad' ascending, rationals allowed."""
    parts = [p.strip() for p in text.split(",")]
    for p in parts:
        if "e" in p.lower():  # Fraction would expand 1e<n> to n digits
            raise ParseError(f"bad coefficient list: exponent notation in {p!r}", 0)
    try:
        coeffs = [Fraction(p) for p in parts]
    except (ValueError, ZeroDivisionError) as err:
        raise ParseError(f"bad coefficient list: {err}", 0) from None
    _bounded({(i, 0): c for i, c in enumerate(coeffs) if c}, 0)
    q = UniPoly(coeffs)
    return hyperelliptic_from_unipoly(q)

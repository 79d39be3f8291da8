"""Parser for curve input expressions.

Grammar (UTF-8 text):

* conic form:          "<poly in x,y> = 0"
* hyperelliptic form:  "y^2 = <poly in x>"

Coefficients are integers or p/q rationals, '*' is optional between a
coefficient and a variable, '^' denotes a nonnegative integer power, and
parenthesized subexpressions with + - * are allowed, so inputs like
"y^2 = (x^2-1)*(x^2-9)" parse directly.  A unary + or - takes the
factor after it, its power included, wherever it stands: "-x^2" and
"2*-x^2" are -(x^2) and 2*(-(x^2)), and "-x^2^3" is an error, as
"x^2^3" is.  Syntax errors carry the character position at which they
were detected.

While it is parsed, a polynomial is a dict from monomial to its nonzero
coefficient in lowest terms.  An integer literal is an int, and sums and
products of ints stay ints; a p/q literal is a Fraction, and so is what
it is added to or multiplied with.  `parse_curve` hands the coefficients
to `UniPoly` or `ConicSpec`, which bring them to integer numerators over
one denominator with `polys.integer_form`, so a curve with integer
coefficients builds no Fraction.

The work an input can ask for is bounded: exponents and degrees above
MAX_DEGREE and coefficients (in lowest terms) of more than
MAX_COEFFICIENT_DIGITS digits are parse errors.  Degrees are checked
after every product by a nonconstant factor, the steps of a power
included; coefficients after every step of a power, where they can grow
exponentially in the input length, and once for the whole polynomial,
reported at its start.  The other numbers the command line takes
(--coeffs, `ec --curve`, `ec` points) are read by `read_rationals`, and
held to the same digit limit.
"""

from __future__ import annotations

from fractions import Fraction

from .curves import ConicSpec, CurveSpec, HyperellipticSpec
from .polys import Rational, UniPoly

Monomial = tuple[int, int]              # (x exponent, y exponent)
Poly = dict[Monomial, Rational]         # nonzero coefficients in lowest terms

# The slowest short input found at degree 18, a product of linear
# factors with 4- to 6-digit rational roots (about 360 characters), takes
# about 0.07 s to analyze on one Intel Xeon core (Python 3.11); the cost
# grows with about the fifth power of the degree.
MAX_DEGREE = 18
# the default int-string digit limit: larger coefficients cannot be printed
MAX_COEFFICIENT_DIGITS = 4300
_COEFFICIENT_BOUND = 10 ** MAX_COEFFICIENT_DIGITS
TOO_LONG = f"coefficient of more than {MAX_COEFFICIENT_DIGITS} digits"


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

_KINDS = {"x": "var", "y": "var", **{c: c for c in "+-*^()/="}}


def _tokenize(text: str, offset: int) -> list[tuple[str, str, int]]:
    """Produce (kind, value, position) triples; kinds are 'int', 'var', or
    a literal operator character.  Positions count from the start of the
    whole input, of which `text` begins at `offset`."""
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        kind = _KINDS.get(ch)
        if kind is not None:
            tokens.append((kind, ch, i + offset))
        elif "0" <= ch <= "9":  # ASCII only: str.isdigit takes '²' and '١'
            end = i + 1
            while end < n and "0" <= text[end] <= "9":
                end += 1
            tokens.append(("int", text[i:end], i + offset))
            i = end
            continue
        elif not ch.isspace():
            raise ParseError(f"unexpected character {ch!r}", i + offset)
        i += 1
    return tokens


# ---------------------------------------------------------------------------
# Recursive-descent parser over bivariate polynomials
# ---------------------------------------------------------------------------

_CONSTANT: Monomial = (0, 0)


def _poly_add(p: Poly, q: Poly, sign: int = 1) -> Poly:
    """p + sign*q, sign 1 or -1."""
    out = dict(p)
    for m, c in q.items():
        if sign < 0:
            c = -c
        if m not in out:
            out[m] = c
        elif total := out[m] + c:
            out[m] = total
        else:
            del out[m]
    return out


def _poly_mul(p: Poly, q: Poly) -> Poly:
    """p * q; a constant factor scales the other's coefficients."""
    if len(p) == 1 and _CONSTANT in p:
        p, q = q, p
    if len(q) == 1 and _CONSTANT in q:
        k = q[_CONSTANT]
        return {m: c * k for m, c in p.items()}
    out = {}
    for (i1, j1), c1 in p.items():
        for (i2, j2), c2 in q.items():
            m = (i1 + i2, j1 + j2)
            out[m] = out[m] + c1 * c2 if m in out else c1 * c2
    return {m: c for m, c in out.items() if c} if 0 in out.values() else out


def _poly_neg(p: Poly) -> Poly:
    return {m: -c for m, c in p.items()}


def _degree_bounded(p: Poly, position: int) -> None:
    if p and max(map(sum, p)) > MAX_DEGREE:
        raise ParseError(f"degree above the limit of {MAX_DEGREE}", position)


def _bounded(p: Poly, position: int) -> Poly:
    """p, or a ParseError at `position` when its degree is too high or a
    coefficient, in lowest terms, too long."""
    _degree_bounded(p, position)
    bound, values = _COEFFICIENT_BOUND, p.values()
    if Fraction not in map(type, values):  # ints only
        if -bound < min(values, default=0) and max(values, default=0) < bound:
            return p
        raise ParseError(TOO_LONG, position)
    for c in values:
        bounded_rational(c, position)
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
        tokens = self.tokens
        acc = self.parse_term()
        while True:
            kind = tokens[self.pos][0]
            if kind != "+" and kind != "-":
                return acc
            self.pos += 1
            acc = _poly_add(acc, self.parse_term(), 1 if kind == "+" else -1)

    def parse_term(self) -> Poly:
        tokens = self.tokens
        acc = self.parse_factor()
        while True:
            tok = tokens[self.pos]
            if tok[0] == "*":
                self.pos += 1
            elif tok[0] not in ("int", "var", "("):
                return acc
            # "*" or implicit multiplication, e.g. "2x" or "(x-1)(x+1)"
            factor = self.parse_factor()
            acc = _poly_mul(acc, factor)
            # a constant factor keeps the degree, which was checked
            if len(factor) != 1 or _CONSTANT not in factor:
                _degree_bounded(acc, tok[2])

    def parse_factor(self) -> Poly:
        # a sign applies to the signed factor, power included: -x^2 is
        # -(x^2), and no "^" may follow it, as none may follow x^2
        kind = self.tokens[self.pos][0]
        if kind == "-" or kind == "+":
            self.pos += 1
            factor = self.parse_factor()
            return _poly_neg(factor) if kind == "-" else factor
        base = self.parse_base()
        if self.tokens[self.pos][0] != "^":
            return base
        self.pos += 1
        etok = self.expect("int")
        e = _int(etok)
        if e > MAX_DEGREE:
            raise ParseError(f"exponent above the limit of {MAX_DEGREE}", etok[2])
        if len(base) == 1:
            [((i, j), c)] = base.items()
            if c == 1 or c == -1:
                # the degree grows with each step and no coefficient can,
                # so the steps' checks come down to the degree of the last
                power = {(i * e, j * e): c ** e}
                _degree_bounded(power, etok[2])
                return power
        if e == 0:
            return {_CONSTANT: 1}
        power = _bounded(base, etok[2])
        for _ in range(e - 1):
            power = _bounded(_poly_mul(power, base), etok[2])
        return power

    def parse_base(self) -> Poly:
        tok = self.tokens[self.pos]
        kind, value, pos = tok
        if kind == "end":
            raise ParseError("unexpected end of input", pos)
        self.pos += 1
        if kind == "int":
            num = _int(tok)
            if self.tokens[self.pos][0] == "/":
                self.pos += 1
                dtok = self.expect("int")
                den = _int(dtok)
                if den == 0:
                    raise ParseError("zero denominator", dtok[2])
                return {_CONSTANT: Fraction(num, den)} if num else {}
            return {_CONSTANT: num} if num else {}
        if kind == "var":
            return {(1, 0) if value == "x" else (0, 1): 1}
        if kind == "(":
            inner = self.parse_expr()
            self.expect(")")
            return inner
        raise ParseError(f"unexpected token {value!r}", pos)


def _parse(text: str, offset: int) -> Poly:
    """The polynomial as it was parsed.

    `offset` is the position of `text` inside the whole input; the
    tokens carry their positions in the whole input, end of input
    included, and a polynomial that is too large is reported at
    `offset`.
    """
    parser = _Parser(_tokenize(text, offset), offset + len(text))
    p = _bounded(parser.parse_expr(), offset)
    tok = parser.tokens[parser.pos]
    if tok[0] != "end":
        raise ParseError(f"trailing input {tok[1]!r}", tok[2])
    return p


# ---------------------------------------------------------------------------
# Curve-level parsing
# ---------------------------------------------------------------------------

def _to_unipoly_in_x(p: Poly, position: int) -> UniPoly:
    if any(j for _, j in p):
        raise ParseError("right-hand side must involve x only", position)
    coefficients = [0] * (max((i for i, _ in p), default=-1) + 1)
    for (i, _), c in p.items():
        coefficients[i] = c
    return UniPoly(coefficients)


def parse_curve(text: str) -> CurveSpec:
    """Parse a curve expression into a normalized CurveSpec.

    "<poly in x,y> = 0" takes the conic path (total degree <= 2
    enforced); "y^2 = <poly in x>" takes the hyperelliptic path with the
    right-hand side stored exactly.  Both build the spec from the
    parsed coefficients.
    """
    if text.count("=") != 1:
        raise ParseError("expected exactly one '='", len(text))
    lhs_text, rhs_text = text.split("=")
    rhs_offset = len(lhs_text) + 1
    lhs = _parse(lhs_text, 0)
    rhs = _parse(rhs_text, rhs_offset)

    if not rhs:  # "... = 0"
        return _conic(lhs)
    if lhs == _Y_SQUARED:
        q = _to_unipoly_in_x(rhs, rhs_offset)
        return hyperelliptic_from_unipoly(q, position=rhs_offset)
    raise ParseError(
        "left-hand side must be y^2, or the right-hand side must be 0", 0)


_Y_SQUARED = {(0, 2): 1}
# the monomials of ConicSpec's fields, in their order
_CONIC_MONOMIALS = ((2, 0), (1, 1), (0, 2), (1, 0), (0, 1), _CONSTANT)


def _conic(p: Poly) -> ConicSpec:
    if not p:
        raise ParseError("polynomial is identically zero", 0)
    for (i, j) in p:
        if i + j > 2:
            raise ParseError("total degree > 2 on the conic path", 0)
    return ConicSpec(*[p.get(m, 0) for m in _CONIC_MONOMIALS])


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
    with ASCII digits and without exponent notation, and checked by
    `bounded_rational`; any other entry is a ParseError "bad <what>: ..."."""
    parts = [p.strip() for p in text.split(",")]
    for p in parts:
        if not p.isascii():  # Fraction's syntax takes any \d, such as '١'
            raise ParseError(f"bad {what}: non-ASCII character in {p!r}", 0)
        if "e" in p.lower():  # Fraction would expand 1e<n> to n digits
            raise ParseError(f"bad {what}: exponent notation in {p!r}", 0)
    try:
        values = [Fraction(p) for p in parts]
    except (ValueError, ZeroDivisionError) as err:
        raise ParseError(f"bad {what}: {err}", 0) from None
    for value in values:
        bounded_rational(value)
    return values


def bounded_rational(value: Rational, position: int = 0) -> Rational:
    """`value` itself, or a ParseError at `position` when its numerator
    or denominator has more than MAX_COEFFICIENT_DIGITS digits, too many
    to print."""
    if (value.denominator >= _COEFFICIENT_BOUND
            or not -_COEFFICIENT_BOUND < value.numerator < _COEFFICIENT_BOUND):
        raise ParseError(TOO_LONG, position)
    return value

import math
import random
import sys
import time
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from realcurves import (ConicSpec, HyperellipticSpec, HypothesisError,
                        ParseError, UniPoly, parse_coefficient_list,
                        parse_curve)
from realcurves.parser import MAX_DEGREE, MAX_NESTING, _parse
from realcurves.polys import sturm_sequence
from realcurves.rationals import MAX_COEFFICIENT_DIGITS, read_integer, read_rationals

from oracles import fraction_parse_polynomial


def parse_polynomial(text: str, offset: int = 0) -> dict:
    """`_parse`'s result as the oracle's dict of Fractions, checked to be
    in its one form: nonzero ints and Fractions, in lowest terms."""
    terms = _parse(text, offset)
    assert all(type(c) in (int, Fraction) and c != 0 for c in terms.values()), text
    return {m: Fraction(c) for m, c in terms.items()}


class TestConicPath:
    def test_unit_circle(self):
        spec = parse_curve("x^2 + y^2 - 1 = 0")
        assert isinstance(spec, ConicSpec)
        assert (spec.xx, spec.xy, spec.yy) == (1, 0, 1)
        assert (spec.x1, spec.y1, spec.c0) == (0, 0, -1)

    def test_degree_three_rejected(self):
        with pytest.raises(ParseError):
            parse_curve("x^3 + y - 1 = 0")
        with pytest.raises(ParseError):
            parse_curve("y^2 + x^4 - 1 = 0")

    def test_identically_zero_rejected(self):
        with pytest.raises(ParseError):
            parse_curve("x - x = 0")


class TestHyperellipticPath:
    def test_direct_parse(self):
        spec = parse_curve("y^2 = x^4 - 1")
        assert isinstance(spec, HyperellipticSpec)
        assert spec.q == UniPoly([-1, 0, 0, 0, 1])

    def test_constant_rhs_rejected(self):
        with pytest.raises(ParseError):
            parse_curve("y^2 = 1/2")

    def test_lhs_must_be_y_squared(self):
        with pytest.raises(ParseError):
            parse_curve("y^3 = x")
        with pytest.raises(ParseError):
            parse_curve("y = x^2")

    def test_rhs_must_be_x_only(self):
        with pytest.raises(ParseError):
            parse_curve("y^2 = x + y")

    def test_square_free_enforced_at_construction(self):
        with pytest.raises(HypothesisError):
            parse_curve("y^2 = (x-1)^2")

    def test_product_form(self):
        spec = parse_curve("y^2 = (x^2-1)*(x^2-9)")
        assert spec.q == UniPoly([9, 0, -10, 0, 1])

    def test_implicit_multiplication(self):
        spec = parse_curve("y^2 = (x^2-1)(x^2-9)")
        assert spec.q == UniPoly([9, 0, -10, 0, 1])
        conic = parse_curve("2x^2 + 3y - 1 = 0")
        assert (conic.xx, conic.y1, conic.c0) == (2, 3, -1)

    def test_rational_coefficients(self):
        spec = parse_curve("y^2 = 1/2*x^3 - 3/4*x + 2")
        assert spec.q == UniPoly([2, Fraction(-3, 4), 0, Fraction(1, 2)])

    def test_unary_minus_and_nesting(self):
        spec = parse_curve("y^2 = -(x^6+1)")
        assert spec.q == UniPoly([-1, 0, 0, 0, 0, 0, -1])


class TestErrors:
    def test_position_reported(self):
        with pytest.raises(ParseError) as exc:
            parse_curve("x^2 + @ = 0")
        assert "position 6" in str(exc.value)

    def test_positions_count_from_the_whole_input(self):
        cases = {"y^2 = x^3 + 2*x +* 3": 17, "y^2 = (x + 1": 12}
        for text, position in cases.items():
            with pytest.raises(ParseError) as exc:
                parse_curve(text)
            assert exc.value.position == position
            assert str(exc.value).endswith(f"(at position {position})")

    def test_missing_equals(self):
        with pytest.raises(ParseError):
            parse_curve("x^2 + y^2 - 1")

    def test_double_equals(self):
        with pytest.raises(ParseError):
            parse_curve("y^2 = x = 0")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_curve("y^2 = x^3 )")

    def test_zero_denominator(self):
        with pytest.raises(ParseError):
            parse_curve("y^2 = 1/0*x^3")

    @pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                        reason="the interpreter has no int-string digit limit")
    def test_overlong_literal_position(self):
        huge = "1" * (sys.get_int_max_str_digits() + 1)
        with pytest.raises(ParseError) as exc:
            parse_polynomial(f"x^2 + {huge}*y")
        assert exc.value.position == 6
        with pytest.raises(ParseError) as exc:
            parse_polynomial(f"(x+1)^{huge}")
        assert exc.value.position == 6


class TestReadInteger:
    @pytest.mark.parametrize("text, value", [
        ("0", 0), ("-12", -12), ("+7", 7), (" 3 ", 3), ("007", 7)])
    def test_sign_and_ascii_digits(self, text, value):
        assert read_integer(text, "n") == value

    @pytest.mark.parametrize("text", [
        "١", "١٢", "1_0", "²", "+", "-", "", " ", "1 0", "--1", "+-1", "1.0", "1e3"])
    def test_every_other_form_is_a_parse_error(self, text):
        # int() takes the first four
        with pytest.raises(ParseError, match=r"^bad n: .* is not an integer"):
            read_integer(text, "n")


class TestWorkBounds:
    def test_degree_limit_is_inclusive(self):
        spec = parse_curve(f"y^2 = (x+1)^{MAX_DEGREE} + x")
        assert spec.q.degree == MAX_DEGREE
        assert parse_coefficient_list(",".join(["1"] * (MAX_DEGREE + 1))).q.degree \
            == MAX_DEGREE

    def test_exponent_rejected_before_expanding(self):
        for text, position in (("(x+1)^2000", 6), (f"2^{MAX_DEGREE + 1}", 2),
                               (f"1^{10 ** 50}", 2)):
            with pytest.raises(ParseError, match="exponent above") as exc:
                parse_polynomial(text)
            assert exc.value.position == position

    def test_degree_of_powers_and_products(self):
        for text, position in (("(x^2+1)^10", 8), ("x^10*x^9", 4),
                               ("x^10 (x+1)^9", 5), ("(x*y)^10", 6)):
            with pytest.raises(ParseError, match="degree above") as exc:
                parse_polynomial(text)
            assert exc.value.position == position
        with pytest.raises(ParseError, match="degree above") as exc:
            parse_curve("y^2 = " + "x*" * MAX_DEGREE + "x + 1")
        assert exc.value.position == 6 + 2 * MAX_DEGREE - 1
        with pytest.raises(ParseError, match="degree above"):
            parse_coefficient_list(",".join(["1"] * (MAX_DEGREE + 2)))

    def test_coefficient_size(self):
        big = "9" * (MAX_COEFFICIENT_DIGITS // 2 + 1)
        for text, position in ((f"{big}*{big}*x", 0),
                               (f"x^2 + 1/{big}*x + 1/{big}7*x", 0),
                               ("x + ((9^18)^18)^18*x", 16)):
            with pytest.raises(ParseError, match="coefficient of more") as exc:
                parse_polynomial(text)
            assert exc.value.position == position
        assert parse_polynomial(f"{big}*{big[2:]}*x")  # 4300 digits

    @staticmethod
    def coprime_numbers(seed: int, count: int, digits: int) -> list[int]:
        rng = random.Random(seed)
        numbers: list[int] = []
        while len(numbers) < count:
            n = rng.randrange(10 ** (digits - 1), 10 ** digits)
            if all(gcd(n, m) == 1 for m in numbers):
                numbers.append(n)
        return numbers

    def test_common_denominator_beyond_the_limit(self):
        # five 4000-digit denominators: their product, the common
        # denominator, has 20000 digits, but every coefficient in lowest
        # terms is inside the limit
        dens = self.coprime_numbers(5, 5, 4000)
        rhs = " + ".join(f"{i + 2}/{d}*x^{4 - i}" for i, d in enumerate(dens))
        poly = parse_polynomial(rhs)
        assert poly == fraction_parse_polynomial(rhs)
        assert poly == {(4 - i, 0): Fraction(i + 2, d) for i, d in enumerate(dens)}
        spec = parse_curve(f"y^2 = {rhs}")
        assert spec.q.coeffs == tuple(Fraction(i + 2, d)
                                      for i, d in reversed(list(enumerate(dens))))

    def test_cube_of_a_reduced_sum_too_long(self):
        # the square of 1/A*x + 1/B has coefficients of 4200 digits; the
        # cube's 1/A^3 has 6300, so the power fails at its exponent
        a, b, c = self.coprime_numbers(7, 3, 2100)
        text = f"y^2 = (1/{a}*x + 1/{b})^4 + 1/{c}"
        with pytest.raises(ParseError, match="coefficient of more") as exc:
            parse_curve(text)
        assert exc.value.position == 4218 == text.index("^4") + 1
        with pytest.raises(ParseError) as oracle:
            fraction_parse_polynomial(text[6:], 6)
        assert (str(oracle.value), oracle.value.position) == \
            (str(exc.value), exc.value.position)

    def test_power_past_the_common_denominator_bound(self, monkeypatch):
        # the common denominator of (a/b*x + b/c*y + c/a)^e with 230-digit
        # a, b, c passes the bound at e = 7, long before a coefficient in
        # lowest terms does; the parser holds every coefficient in lowest
        # terms, so no gcd has two operands past the bound
        a, b, c = self.coprime_numbers(11, 3, 230)
        base = f"({a}/{b}*x + {b}/{c}*y + {c}/{a})"
        bound = 10 ** MAX_COEFFICIENT_DIGITS
        past_the_bound = []

        def checked_gcd(*integers, gcd=math.gcd):
            if sum(abs(n) >= bound for n in integers) >= 2:
                past_the_bound.append([n.bit_length() for n in integers])
            return gcd(*integers)

        monkeypatch.setattr(math, "gcd", checked_gcd)  # for Fraction
        for text in (f"{base}^18 = 0", f"{base}^18 + 1 = 0", f"-2*{base}^18 = 0"):
            past_the_bound.clear()
            started = time.perf_counter()
            with pytest.raises(ParseError) as exc:
                parse_curve(text)
            assert time.perf_counter() - started < 10.0
            assert (str(exc.value), exc.value.position) == \
                ("total degree > 2 on the conic path (at position 0)", 0)
            assert past_the_bound == [], text
        monkeypatch.undo()
        assert len(fraction_parse_polynomial(f"{base}^7")) == 36
        assert parse_polynomial(f"{base}^18") == fraction_parse_polynomial(f"{base}^18")
        # one step past the bound that passes, then a sum
        a, b = self.coprime_numbers(13, 2, 800)
        text = f"({a}/{b}*x - {b}/{a}*y + 1)^3 + 1/{a}"
        assert parse_polynomial(text) == fraction_parse_polynomial(text)

    def test_lowest_terms_past_the_common_denominator_bound(self):
        # A and B have 1500 digits and C 3000, so the common denominator
        # AB is inside the bound and AC past it, while each coefficient in
        # lowest terms is inside it: the digit checks of a power ^1 and of
        # the whole polynomial pass over AC, the sums and products after
        # the power and the specs built from them agree with the oracle,
        # and only a coefficient past the bound in lowest terms fails
        a, b, c = self.coprime_numbers(17, 3, 1500)
        c = c ** 2

        def outcome(parse, text):
            try:
                return parse(text)
            except ParseError as err:
                return str(err), err.position

        accepted = [
            f"1/{a}*x + 1/{b}*y + 1/{c}",
            f"(1/{a}*x + 1/{b}*y + 1/{c})^1*(x*y - 1) + 1/{c} - 1/{a}*x^2*y",
            f"(1/{a}*x + 1/{c})^1*{a}*x - x^2",
            f"-(1/{a}*x + 1/{c})^1*({b}*y - 1) + 2/{a}*x*y",
        ]
        # a product over AC after the power, a power with 1/C^2, and a
        # whole polynomial with 1/(AC)
        rejected = [f"(1/{a}*x + 1/{b}*y + 1/{c})^1*(x - 1)",
                    f"(1/{a}*x + 1/{c})^2", f"x + 1/{a}*1/{c}"]
        for text in accepted + rejected:
            ours = outcome(parse_polynomial, text)
            assert ours == outcome(fraction_parse_polynomial, text), text
            assert isinstance(ours, dict) == (text in accepted), text
        # a left-hand side y^2 after a cancellation in lowest terms
        lhs = f"(y^2 + 1/{a}*x + 1/{c})^1 - 1/{a}*x - 1/{c}"
        assert parse_curve(f"{lhs} = x^3 - x") == parse_curve("y^2 = x^3 - x")
        spec = parse_curve(f"(1/{a}*x^2 + 1/{c}*y^2)^1 - 1 = 0")
        assert spec == ConicSpec(Fraction(1, a), 0, Fraction(1, c), 0, 0, -1)
        assert spec.display() == f"1/{a}*x^2 + 1/{c}*y^2 - 1 = 0"
        assert spec == parse_curve(f"1/{a}*x^2 + 1/{c}*y^2 - 1 = 0")
        spec = parse_curve(f"y^2 = (1/{a}*x^3 - 1/{c})^1")
        assert spec == parse_curve(f"y^2 = 1/{a}*x^3 - 1/{c}")
        assert spec.q == UniPoly([Fraction(-1, c), 0, 0, Fraction(1, a)])

    def test_coefficient_list_rejects_exponent_notation(self):
        for entry in ("1e3", "2.5E-2", "1e20000000"):
            with pytest.raises(ParseError, match="exponent notation"):
                parse_coefficient_list(f"{entry},0,1")
        assert parse_coefficient_list("0.5,-3/4,1").q == \
            UniPoly([Fraction(1, 2), Fraction(-3, 4), 1])


class TestCoefficientList:
    def test_ascending_list(self):
        spec = parse_coefficient_list("-1,0,0,0,1")
        assert spec.q == UniPoly([-1, 0, 0, 0, 1])

    def test_rationals_allowed(self):
        spec = parse_coefficient_list("2, -3/4, 0, 1/2")
        assert spec.q == UniPoly([2, Fraction(-3, 4), 0, Fraction(1, 2)])

    def test_bad_entries(self):
        with pytest.raises(ParseError):
            parse_coefficient_list("1,oops,3")
        with pytest.raises(ParseError):
            parse_coefficient_list("5")  # constant


_limit = MAX_COEFFICIENT_DIGITS
_rational_parts = st.one_of(
    st.text("0123456789-+/._e ", max_size=8),
    # decimals about the digit limit: 10^-4299 fits, 10^-4300 does not
    st.builds("0.{}1".format, st.integers(_limit - 2, _limit).map(lambda n: "0" * n)),
    # integer and decimal parts within the int-string limit, whose
    # numerator in lowest terms may pass the digit limit
    st.builds("{}.{}".format, st.integers(0, 2300).map(lambda n: "9" * n),
              st.integers(1, 2300).map(lambda n: "9" * n)),
    st.builds("1/{}".format, st.integers(_limit - 1, _limit + 1).map(lambda n: "9" * n)))


def _fraction_oracle(parts: list[str]) -> list[Fraction] | None:
    """Fraction's values for the parts, or None where the reader must
    refuse them: an 'e', a part Fraction refuses, or a numerator or
    denominator of more than MAX_COEFFICIENT_DIGITS digits."""
    if any("e" in part.lower() for part in parts):
        return None
    values = []
    for part in parts:
        try:
            value = Fraction(part.strip())
        except (ValueError, ZeroDivisionError):
            return None
        if max(abs(value.numerator), value.denominator) >= 10 ** _limit:
            return None
        values.append(value)
    return values


class TestReadRationals:
    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(parts=st.lists(_rational_parts, min_size=1, max_size=4))
    def test_against_fraction(self, parts):
        expected = _fraction_oracle(parts)
        if expected is None:
            with pytest.raises(ParseError):
                read_rationals(",".join(parts), "entry")
        else:
            assert read_rationals(",".join(parts), "entry") == expected

    @pytest.mark.parametrize("text, expected", [
        ("+5", [5]), ("007", [7]), ("-0", [0]), (" 3 ", [3]),
        ("1/2", [Fraction(1, 2)]), ("1.5", [Fraction(3, 2)]), ("1_000", [Fraction(1000)]),
        ("+" + "9" * MAX_COEFFICIENT_DIGITS, [10 ** MAX_COEFFICIENT_DIGITS - 1]),
        ("-" + "9" * MAX_COEFFICIENT_DIGITS, [1 - 10 ** MAX_COEFFICIENT_DIGITS]),
        (" 4 , -2/4 ,+0.25", [4, Fraction(-1, 2), Fraction(1, 4)]),
    ])
    def test_integer_entries_read_as_ints(self, text, expected):
        # an optional sign and digits make an int; every other entry,
        # "1_000" too, is read by Fraction, as all entries were before
        values = read_rationals(text, "entry")
        assert values == expected
        assert [type(v) for v in values] == [type(v) for v in expected]

    @pytest.mark.parametrize("text, message", [
        ("9" * 4301, "entry of 4301 characters is too long"),
        ("1" + "0" * 4300, "entry of 4301 characters is too long"),
        ("", "empty entry"),
        ("2, ", "empty entry"),
        ("1/0", "zero denominator in '1/0'"),
        ("+", "not a rational: '+'"),
        ("--3", "not a rational: '--3'"),
        ("3/-1", "not a rational: '3/-1'"),
        ("3, x", "not a rational: 'x'"),
    ])
    def test_errors_read_as_before(self, text, message):
        # the messages of the Fraction reader, which every error still takes
        with pytest.raises(ParseError) as exc:
            read_rationals(text, "entry")
        assert str(exc.value) == f"bad entry: {message}"


_coefficients = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6), st.integers(1, 10 ** 4)))
_nonzero = _coefficients.filter(bool)


class TestDisplayRoundTrip:
    """parse_curve(spec.display()) == spec for every curve spec."""

    @settings(max_examples=80, derandomize=True, database=None, deadline=None)
    @given(lower=st.lists(_coefficients, min_size=1, max_size=10), lead=_nonzero)
    def test_hyperelliptic(self, lower, lead):
        try:
            spec = HyperellipticSpec(UniPoly(lower + [lead]))
        except HypothesisError:
            assume(False)
        assert parse_curve(spec.display()) == spec

    @settings(max_examples=80, derandomize=True, database=None, deadline=None)
    @given(coeffs=st.tuples(*[_coefficients] * 6))
    def test_conic(self, coeffs):
        try:
            spec = ConicSpec(*coeffs)
        except HypothesisError:
            assume(False)
        assert parse_curve(spec.display()) == spec


def random_literal(rng: random.Random) -> str:
    """Integers and p/q literals from one digit to past the coefficient
    limit, zero denominators included."""
    digits = rng.choice((1, 1, 1, 2, 3, 8, 20))
    if rng.random() < 0.01:
        digits = rng.choice((1500, 2200, MAX_COEFFICIENT_DIGITS + 1))
    num = "".join(rng.choices("0123456789", k=digits))
    if rng.random() < 0.4:
        return f"{num}/{rng.randint(0 if rng.random() < 0.02 else 1, 10 ** rng.choice((1, 2, 6)))}"
    return num


def random_factor(rng: random.Random, depth: int) -> str:
    r = rng.random()
    if depth < 3 and r < 0.25:
        base = f"({random_expression(rng, depth + 1)})"
    elif r < 0.55:
        base = rng.choice("xy")
    elif r < 0.65:
        base = rng.choice(("-", "+", "- ")) + random_factor(rng, depth + 1)
    else:
        base = random_literal(rng)
    if rng.random() < 0.3:
        top = MAX_DEGREE + 1 if depth > 0 or "(" not in base else 4
        base += "^" + str(rng.choice((0, 1, 2, 2, 3, rng.randint(0, top))))
    return base


def random_term(rng: random.Random, depth: int) -> str:
    out = random_factor(rng, depth)
    for _ in range(rng.randint(0, 2)):
        # "*" or an implicit product, e.g. "2x", "x y" or "(x-1)(x+1)";
        # digits on both sides of "" would run into one literal
        factor = random_factor(rng, depth)
        glue = rng.choice(("*", " * ", "", " "))
        if not glue and out[-1].isdigit() and factor[0].isdigit():
            glue = " "
        out += glue + factor
    return out


def random_expression(rng: random.Random, depth: int = 0) -> str:
    out = rng.choice(("", "", "-", "+ ")) + random_term(rng, depth)
    for _ in range(rng.randint(0, 3 - depth)):
        out += rng.choice((" + ", " - ", "+", "-")) + random_term(rng, depth)
    return out


def mutated(rng: random.Random, text: str) -> str:
    """text with one character deleted, inserted or replaced, or cut short."""
    i = rng.randrange(len(text) + 1)
    ch = rng.choice("xy+-*^()/= 0123456789@z.")
    return rng.choice((text[:i] + ch + text[i:], text[:i] + text[i + 1:],
                       text[:i] + ch + text[i + 1:], text[:i]))


def parse_outcome(parse, text: str, offset: int):
    try:
        poly = parse(text, offset)
    except ParseError as err:
        return type(err), str(err), err.position
    assert all(type(c) is Fraction and c != 0 for c in poly.values()), text
    return poly


class TestAgainstFractionOracle:
    """The parser against the Fraction parser: equal polynomials, or the
    same error at the same position."""

    def test_random_expressions(self):
        rng = random.Random(9001)
        errors = 0
        for _ in range(2000):
            text = random_expression(rng)
            if rng.random() < 0.15:
                text = mutated(rng, text)
            offset = rng.choice((0, 0, 6, 11))
            got = parse_outcome(parse_polynomial, text, offset)
            assert got == parse_outcome(fraction_parse_polynomial, text, offset), text
            errors += isinstance(got, tuple)
        # both outcomes are well represented
        assert 200 < errors < 1500

    def test_curves_carry_their_primitive_polynomial(self):
        # the UniPoly that parse_curve builds from the parsed coefficients
        # has the Sturm chain and root count of a fresh one
        rng = random.Random(9013)
        checked = 0
        while checked < 150:
            text = "y^2 = " + random_expression(rng).replace("y", "x")
            if len(text) > 600:  # Sturm chains of long literals are slow
                continue
            try:
                spec = parse_curve(text)
            except (ParseError, HypothesisError):
                continue
            if isinstance(spec, ConicSpec):  # "y^2 = 0"
                continue
            fresh = UniPoly(spec.q.coeffs)
            assert sturm_sequence(spec.q) == sturm_sequence(fresh), text
            assert spec.real_roots == HyperellipticSpec(fresh).real_roots, text
            checked += 1

    def test_a_sign_takes_its_factor_with_the_power(self):
        # one rule wherever the sign stands: the signed factor ends after
        # its power, so a second "^" is trailing input, as after x^2
        for rhs in ("1 - x^2^3", "-x^2^3", "x^2^3", "1 + -x^2^3", "2*-x^2^2"):
            text = "y^2 = " + rhs
            with pytest.raises(ParseError) as exc:
                parse_curve(text)
            assert str(exc.value) == \
                f"trailing input '^' (at position {text.rindex('^')})", text
            assert parse_outcome(parse_polynomial, rhs, 6) == \
                parse_outcome(fraction_parse_polynomial, rhs, 6), rhs
        for rhs, same in (("1 + -x^2", "1 - x^2"), ("2*-x^2", "-2*x^2"),
                          ("2*-(x+1)^2", "-2*(x+1)^2"), ("-+-x^3", "x^3")):
            assert parse_polynomial(rhs) == parse_polynomial(same) == \
                fraction_parse_polynomial(rhs), rhs

    def test_rational_powers_near_the_limits(self):
        rng = random.Random(9011)
        for _ in range(200):
            num = rng.randint(1, 10 ** rng.choice((20, 80, 250)))
            den = rng.randint(1, 10 ** rng.choice((1, 40, 150)))
            e = rng.randint(1, MAX_DEGREE)
            text = (f"({num}/{den}*x{rng.choice('+-')}{den}/{num}*y)^{e}"
                    f" {rng.choice('+-')} {rng.randint(0, 9)}/{den}")
            assert parse_outcome(parse_polynomial, text, 0) == \
                parse_outcome(fraction_parse_polynomial, text, 0), text

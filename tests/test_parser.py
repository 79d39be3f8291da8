import sys
from fractions import Fraction

import pytest

from realcurves import (ConicSpec, HyperellipticSpec, HypothesisError,
                        ParseError, UniPoly, parse_coefficient_list,
                        parse_curve)
from realcurves.parser import parse_polynomial


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

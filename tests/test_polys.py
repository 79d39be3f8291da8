import copy
import pickle
import random
from fractions import Fraction
from math import gcd, isqrt, lcm

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from realcurves import (HyperellipticSpec, HypothesisError, ParseError,
                        QuarticParams, UniPoly, count_real_roots, is_square_free,
                        parse_curve, poly_gcd, quartic_normal_form)
from realcurves import polys as polys_module
from realcurves._format import format_rational, format_terms
from realcurves.parser import parse_coefficient_list
from realcurves.polys import (exact_isqrt, integer_roots_monic, sign_variations,
                              sturm_sequence)
from realcurves.rationals import MAX_COEFFICIENT_DIGITS, integer_form
from realcurves.sampling import SampleBox, draw_params

from oracles import (cauchy_bound, derivative, descartes_count_roots,
                     fraction_count_real_roots, fraction_format_terms,
                     fraction_poly_gcd,
                     fraction_sturm_sequence, poly_add, poly_divmod, poly_eval,
                     poly_mul, random_squarefree_poly, shift, sturm_integer_roots,
                     sylvester_resultant)


def P(*coeffs):
    """ascending-degree shorthand"""
    return UniPoly(coeffs)


class TestGcd:
    def test_common_factor_by_construction(self):
        assert poly_gcd(P(-1, 0, 1), P(-1, 1)) == P(-1, 1)  # gcd(x^2-1, x-1) = x-1

    def test_distinct_irreducibles_are_coprime(self):
        assert poly_gcd(P(1, 0, 1), P(2, 0, 1)) == P(1)

    def test_coprime_confirmed_by_resultant_oracle(self):
        p, q = P(0, -1, 0, 1), P(-1, 0, 3)  # x^3 - x, 3x^2 - 1
        assert sylvester_resultant(p, q) != 0
        assert poly_gcd(p, q) == P(1)

    def test_gcd_with_zero_is_monic(self):
        assert poly_gcd(P(0, 0, 3), UniPoly(())) == P(0, 0, 1)
        assert poly_gcd(UniPoly(()), UniPoly(())).is_zero

    def test_divides_both_exactly(self):
        rng = random.Random(11)
        for _ in range(200):
            g = random_squarefree_poly(rng, max_degree=3, coeff_bound=6)
            a = random_squarefree_poly(rng, max_degree=3, coeff_bound=6)
            b = random_squarefree_poly(rng, max_degree=3, coeff_bound=6)
            p, q = poly_mul(g, a), poly_mul(g, b)
            d = poly_gcd(p, q)
            assert not d.is_zero and d.coeffs[-1] == 1
            assert d == fraction_poly_gcd(p, q)
            assert poly_divmod(p, d)[1].is_zero and poly_divmod(q, d)[1].is_zero
            # the injected factor must divide the gcd
            assert poly_divmod(d, g.monic())[1].is_zero


class TestSquareFree:
    def test_irreducible_over_r(self):
        assert is_square_free(P(1, 0, 1))

    def test_repeated_root(self):
        assert not is_square_free(P(1, -2, 1))  # (x-1)^2

    def test_product_of_distinct_irreducibles(self):
        p = poly_mul(P(1, 0, 1), P(4, 0, 1))
        assert is_square_free(p)
        assert sylvester_resultant(p, derivative(p)) != 0

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            is_square_free(UniPoly(()))

    def test_matches_resultant_oracle(self):
        rng = random.Random(23)
        for _ in range(300):
            degree = rng.randint(1, 6)
            coeffs = [rng.randint(-9, 9) for _ in range(degree)]
            coeffs.append(rng.choice([c for c in range(-9, 10) if c]))
            p = UniPoly(coeffs)
            assert is_square_free(p) == (sylvester_resultant(p, derivative(p)) != 0)


class TestCountRealRoots:
    def test_positive_definite(self):
        assert count_real_roots(P(1, 0, 1)) == 0

    def test_four_roots_by_construction(self):
        assert count_real_roots(P(9, 0, -10, 0, 1)) == 4  # (x^2-1)(x^2-9)

    def test_quintic_frozen_oracle_value(self):
        p = P(-1, 2, 0, -4, 0, 1)  # x^5 - 4x^3 + 2x - 1
        assert descartes_count_roots(p) == 3  # oracle, computed once and frozen
        assert count_real_roots(p) == 3

    def test_rejects_zero_and_non_square_free(self):
        with pytest.raises(ValueError):
            count_real_roots(UniPoly(()))
        with pytest.raises(ValueError):
            count_real_roots(P(1, -2, 1))

    def test_additive_on_coprime_products(self):
        rng = random.Random(37)
        done = 0
        while done < 200:
            p = random_squarefree_poly(rng, max_degree=4, coeff_bound=8)
            q = random_squarefree_poly(rng, max_degree=4, coeff_bound=8)
            if poly_gcd(p, q).degree != 0:
                continue
            assert count_real_roots(poly_mul(p, q)) == \
                count_real_roots(p) + count_real_roots(q)
            done += 1

    def test_agrees_with_bisection_oracle(self):
        rng = random.Random(41)
        for _ in range(250):
            p = random_squarefree_poly(rng)
            assert count_real_roots(p) == descartes_count_roots(p)

    def test_all_roots_inside_cauchy_bound(self):
        rng = random.Random(43)
        for _ in range(50):
            p = random_squarefree_poly(rng, max_degree=5)
            bound = cauchy_bound(p)
            seq = fraction_sturm_sequence(p)
            inside = (sign_variations([poly_eval(q, -bound) for q in seq])
                      - sign_variations([poly_eval(q, bound) for q in seq]))
            assert inside == count_real_roots(p)


def random_rational(rng: random.Random, digits: int, den_digits: int = 1) -> Fraction:
    return Fraction(rng.randint(-10 ** digits, 10 ** digits),
                    rng.randint(1, 10 ** den_digits))


def random_rational_poly(rng: random.Random, degree: int, digits: int,
                         den_digits: int = 1) -> UniPoly:
    """Rational coefficients, often zero, with a leading coefficient of
    either sign."""
    coeffs = [random_rational(rng, digits, den_digits) if rng.random() < 0.8
              else Fraction(0) for _ in range(degree)]
    lead = Fraction(0)
    while lead == 0:
        lead = random_rational(rng, digits, den_digits)
    return UniPoly(coeffs + [lead])


class TestSturmAgainstFractionOracle:
    """The integer primitive Sturm chain and the count read at +-oo against
    the Fraction chain evaluated at the Cauchy bound."""

    @staticmethod
    def assert_agrees(p):
        chain, oracle = sturm_sequence(p), fraction_sturm_sequence(p)
        try:
            count = count_real_roots(p)
        except ValueError as err:
            with pytest.raises(ValueError, match=f"^{err}$"):
                fraction_count_real_roots(p, oracle)
        else:
            assert count == fraction_count_real_roots(p, oracle), p
        assert len(chain) == len(oracle), p
        for q, r in zip(chain, oracle):
            assert type(q) is tuple and all(type(c) is int for c in q), p
            ratio = q[-1] / r.coeffs[-1]
            assert ratio > 0 and q == poly_mul(r, ratio).coeffs, p

    def test_random_rational_degrees_1_to_18(self):
        # the Fraction oracle slows steeply with the degree, so degrees
        # above 10 get a tenth of the draws
        rng = random.Random(4111)
        for _ in range(1000):
            degree = rng.randint(11, 18) if rng.random() < 0.1 else rng.randint(1, 10)
            self.assert_agrees(random_rational_poly(rng, degree, rng.choice((1, 2, 4))))

    def test_repeated_factors_rejected_alike(self):
        rng = random.Random(4127)
        for _ in range(400):
            factor = random_rational_poly(rng, rng.randint(1, 2), 1)
            power = rng.randint(2, 3)
            p = random_rational_poly(rng, rng.randint(0, 12 - power * factor.degree), 2)
            for _ in range(power):
                p = poly_mul(p, factor)
            with pytest.raises(ValueError, match="not square-free"):
                count_real_roots(p)
            self.assert_agrees(p)

    def test_many_real_roots(self):
        rng = random.Random(4133)
        for _ in range(400):
            p = random_rational_poly(rng, 0, 1)
            for _ in range(rng.randint(1, 18) if rng.random() < 0.1 else rng.randint(1, 8)):
                p = poly_mul(p, UniPoly([random_rational(rng, 2),
                                         rng.choice((1, -1, 2, 3))]))
            self.assert_agrees(p)

    def test_coefficients_of_300_digits(self):
        rng = random.Random(4139)
        for _ in range(200):
            self.assert_agrees(random_rational_poly(
                rng, rng.randint(1, 4), 300, rng.choice((0, 2, 300))))

    def test_canonical_chain_of_a_quartic(self):
        # 16x^4 - 40x^2 + 9 = (4x^2 - 1)(4x^2 - 9); the Fraction chain is
        # p, 64x^3 - 80x, 20x^2 - 9, 256/5 x, 9
        chain = sturm_sequence(P(9, 0, -40, 0, 16))
        assert chain == [(9, 0, -40, 0, 16), (0, -5, 0, 4), (-9, 0, 20),
                         (0, 1), (1,)]
        assert count_real_roots(P(9, 0, -40, 0, 16)) == 4


def integer_coeffs(p: UniPoly) -> tuple[int, ...]:
    """The ascending integer coefficients of a UniPoly over Z."""
    assert all(c.denominator == 1 for c in p.coeffs)
    return tuple(c.numerator for c in p.coeffs)


class TestIntegerRoots:
    def test_fixed_cubics(self):
        # z(z-4)(z-16): resolvent shape that actually occurs
        assert integer_roots_monic((0, 64, -20, 1)) == [0, 4, 16]
        assert integer_roots_monic((-2, 0, 0, 1)) == []  # z^3 = 2
        assert integer_roots_monic((-6, 11, -6, 1)) == [1, 2, 3]

    def test_large_coefficients(self):
        n = 10 ** 14
        p = poly_mul(P(-n * n, 0, 1), P(-7, 1))  # roots +-10^14 and 7
        assert integer_roots_monic(integer_coeffs(p)) == [-n, 7, n]

    def test_repeated_roots_deduplicated(self):
        p = poly_mul(poly_mul(P(-1, 1), P(-1, 1)), P(5, 1))
        assert integer_roots_monic(integer_coeffs(p)) == [-5, 1]

    def test_requires_monic_integer(self):
        with pytest.raises(ValueError):
            integer_roots_monic((1, 2))
        with pytest.raises(ValueError):
            integer_roots_monic((Fraction(1, 2), 0, 1))
        with pytest.raises(ValueError):
            integer_roots_monic(())

    def test_degree_above_three_rejected(self):
        with pytest.raises(ValueError, match="degree"):
            integer_roots_monic((-1, 0, 0, 0, 1))


def random_monic(rng: random.Random, degree: int, magnitude: int) -> UniPoly:
    """A monic integer polynomial of the given degree, often with integer
    roots, repeated roots and a zero root."""
    if rng.random() < 0.25:
        return P(*[rng.randint(-magnitude, magnitude) for _ in range(degree)], 1)
    roots = [rng.randint(-magnitude, magnitude)
             for _ in range(rng.randint(0, degree))]
    if roots and rng.random() < 0.3:
        roots[-1] = roots[0]
    if roots and rng.random() < 0.2:
        roots[0] = 0
    p = P(1)
    for r in roots:
        p = poly_mul(p, P(-r, 1))
    while p.degree < degree:
        if degree - p.degree >= 2 and rng.random() < 0.5:
            p = poly_mul(p, P(rng.randint(-magnitude, magnitude),
                              rng.randint(-magnitude, magnitude), 1))
        else:
            p = poly_mul(p, P(rng.randint(-magnitude, magnitude), 1))
    return p


def recorded_resolvents(monkeypatch) -> list[tuple[int, ...]]:
    """The list that collects every cubic `quartic_normal_form` hands to
    `integer_roots_monic` from now on; `eta` reads the function off
    `polys` at each call."""
    cubics = []

    def recorded(p, _original=integer_roots_monic):
        cubics.append(p)
        return _original(p)

    monkeypatch.setattr(polys_module, "integer_roots_monic", recorded)
    return cubics


class TestIntegerRootsAgainstOracle:
    """integer_roots_monic (monotone runs) against Sturm bisection on
    half-integers."""

    def test_random_low_degree(self):
        rng = random.Random(2029)
        for _ in range(1000):
            magnitude = 10 ** rng.choice((1, 3, 8, 15, 30))
            p = random_monic(rng, rng.randint(1, 3), magnitude)
            assert integer_roots_monic(integer_coeffs(p)) == sturm_integer_roots(p), p

    def test_resolvent_cubics_of_sampler_quartics(self, monkeypatch):
        cubics = recorded_resolvents(monkeypatch)
        rng = random.Random(3067)
        ks = set()
        for pin, draws in ((None, 1000), ("b=0", 500), ("a=c", 500)):
            box = SampleBox(pin=pin)
            for _ in range(draws):
                params = draw_params(rng, box)
                ks.add(params.k)
                t = rng.randint(1, 6)
                scaled = QuarticParams(k=params.k, a=Fraction(params.a, t),
                                       b=Fraction(params.b, t),
                                       c=Fraction(params.c, t))
                h = Fraction(rng.randint(-30, 30), rng.randint(1, 7))
                assert quartic_normal_form(shift(scaled.quartic(), h)) is not None
        assert len(cubics) == 2000 and ks == {0, 2, 4}
        for p in cubics:
            assert len(p) == 4 and all(type(c) is int for c in p), p
            assert integer_roots_monic(p) == sturm_integer_roots(UniPoly(p)), p


def cubic_with_roots(*roots: int) -> UniPoly:
    p = P(1)
    for r in roots:
        p = poly_mul(p, P(-r, 1))
    return p


class TestIntegerRootsByShape:
    """integer_roots_monic (Fujiwara bracket, deflation at the first root)
    against Sturm bisection on cubics of each shape the deflation meets:
    the first root found may be any of three, the only one, or none."""

    def test_three_integer_roots(self):
        # repeated roots, 0 and +-10^k among them
        rng = random.Random(4409)
        for _ in range(400):
            pool = [0, rng.randint(-10 ** 6, 10 ** 6)] + \
                [sign * 10 ** rng.randint(0, 60) for sign in (1, -1)]
            roots = [rng.choice(pool) for _ in range(3)]
            p = cubic_with_roots(*roots)
            found = integer_roots_monic(integer_coeffs(p))
            assert found == sturm_integer_roots(p) == sorted(set(roots)), roots

    def test_only_root_near_the_bound(self):
        # (z - 2r)((z + r)^2 + 1): c2 = 0, c1 = -3r^2 + 1, c0 = -2r^3 - 2r,
        # so the one real root 2r is about 2/sqrt(3) times Fujiwara's max
        # and no second integer root can stand in for it
        rng = random.Random(4417)
        for r in [*range(1, 300), *(rng.randint(1, 10 ** 40) for _ in range(100))]:
            for sign in (1, -1):
                p = poly_mul(P(-2 * sign * r, 1), P(r * r + 1, 2 * sign * r, 1))
                assert integer_roots_monic(integer_coeffs(p)) == sturm_integer_roots(p) \
                    == [2 * sign * r], p

    def test_one_integer_root_times_irreducible_quadratic(self):
        rng = random.Random(4421)
        shapes = 0
        while shapes < 400:
            magnitude = 10 ** rng.choice((1, 3, 8, 20, 40))
            c1, c0 = rng.randint(-magnitude, magnitude), rng.randint(-magnitude, magnitude)
            disc = c1 * c1 - 4 * c0
            if disc >= 0 and isqrt(disc) ** 2 == disc:
                continue  # the quadratic splits over Q
            root = rng.choice((0, rng.randint(-magnitude, magnitude),
                               -(10 ** rng.randint(0, 40)), 10 ** rng.randint(0, 40)))
            p = poly_mul(P(c0, c1, 1), P(-root, 1))
            assert integer_roots_monic(integer_coeffs(p)) == sturm_integer_roots(p) \
                == [root], p
            shapes += 1

    def test_no_integer_root(self):
        rng = random.Random(4423)
        cubics = []
        # three real roots, none an integer: prod(z - r_i) = -1 needs
        # |z - r_i| = 1 for three distinct r_i, and a spacing of 2 keeps
        # both local extrema away from -1
        while len(cubics) < 150:
            magnitude = 10 ** rng.choice((1, 3, 8, 20))
            roots = sorted(rng.randint(-magnitude, magnitude) for _ in range(3))
            if roots[1] - roots[0] >= 2 and roots[2] - roots[1] >= 2:
                cubics.append(poly_add(cubic_with_roots(*roots), P(1)))
        # irreducible z^3 - n, and random cubics with no integer root
        cubics += [P(-n, 0, 0, 1) for n in (2, 3, 10 ** 30 + 1, -(10 ** 45) + 7)]
        while len(cubics) < 400:
            magnitude = 10 ** rng.choice((1, 3, 8, 20))
            p = P(*[rng.randint(-magnitude, magnitude) for _ in range(3)], 1)
            if not sturm_integer_roots(p):
                cubics.append(p)
        for p in cubics:
            assert integer_roots_monic(integer_coeffs(p)) == sturm_integer_roots(p) \
                == [], p

    def test_resolvents_of_300_digit_normal_forms(self, monkeypatch):
        cubics = recorded_resolvents(monkeypatch)
        rng = random.Random(4447)
        for k in (0, 2, 4):
            a, b, c = (Fraction(rng.randrange(10 ** 299, 10 ** 300), rng.randint(1, 6))
                       for _ in range(3))
            params = QuarticParams(k, a, b, c)
            h = Fraction(rng.randint(-30, 30), rng.randint(1, 7))
            assert quartic_normal_form(shift(params.quartic(), h)) is not None
        assert len(cubics) == 3
        for p in cubics:
            assert min(len(str(abs(c))) for c in p[:3]) > 600
            found = integer_roots_monic(p)
            assert found and found == sturm_integer_roots(UniPoly(p)), p


class TestIntegerForm:
    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(values=st.lists(st.one_of(st.integers(-10 ** 30, 10 ** 30),
                                     st.fractions(max_denominator=10 ** 12)),
                           max_size=8))
    def test_against_fraction_arithmetic(self, values):
        den, numerators = integer_form(values)
        assert type(den) is int and den > 0
        assert all(type(n) is int for n in numerators)
        assert [Fraction(n, den) for n in numerators] == [Fraction(v) for v in values]
        # a common denominator is the least one iff it is coprime to the
        # numerators over it
        assert gcd(den, *numerators) == 1

    def test_small_cases(self):
        assert integer_form((Fraction(1, 6), 2, Fraction(-3, 4))) == (12, [2, 24, -9])
        assert integer_form([Fraction(5), 0, -7]) == (1, [5, 0, -7])
        assert integer_form(()) == (1, [])


class TestExactIsqrt:
    def test_against_brute_force(self):
        roots = {r * r: r for r in range(120)}
        for n in range(-60, 120 * 120):
            assert exact_isqrt(n) == roots.get(n), n

    def test_near_squares_up_to_4300_digits(self):
        rng = random.Random(15)
        roots = [2, 3, 10 ** 4300 - 1, 10 ** 4300]
        roots += [10 ** k + d for k in range(1, 4300, 97) for d in (-1, 0, 1)]
        roots += [rng.randrange(2, 10 ** rng.randint(1, 4300)) for _ in range(150)]
        for r in roots:
            assert exact_isqrt(r * r) == r
            # (r - 1)^2 < r^2 - 1 and r^2 + 1 < (r + 1)^2 for r >= 2
            assert exact_isqrt(r * r - 1) is None
            assert exact_isqrt(r * r + 1) is None
            assert exact_isqrt(-r * r) is None


class TestUniPolyAlgebra:
    def test_divmod_is_exact(self):
        rng = random.Random(53)
        for _ in range(100):
            a = random_squarefree_poly(rng, max_degree=5, coeff_bound=9)
            b = random_squarefree_poly(rng, max_degree=3, coeff_bound=9)
            q, r = poly_divmod(a, b)
            assert poly_add(poly_mul(q, b), r) == a
            assert r.degree < b.degree

    def test_shift(self):
        p = P(9, 0, -10, 0, 1)
        shifted = shift(p, Fraction(3))
        for x in (-2, 0, Fraction(1, 2), 5):
            assert poly_eval(shifted, x) == poly_eval(p, Fraction(x) + 3)

    def test_zero_degree_conventions(self):
        assert UniPoly(()).degree == -1
        assert P(5).degree == 0
        assert P(0, 0, 0).is_zero

    def test_display(self):
        assert str(P(9, 0, -10, 0, 1)) == "x^4 - 10*x^2 + 9"
        assert str(P(Fraction(-1, 2), 1)) == "x - 1/2"
        assert str(UniPoly(())) == "0"


def _random_part(rng: random.Random) -> int:
    """A positive integer of 1 to MAX_COEFFICIENT_DIGITS digits."""
    digits = rng.choice((1, 1, 1, 2, 3, 20, MAX_COEFFICIENT_DIGITS))
    return rng.randrange(10 ** (digits - 1), 10 ** digits)


def _fraction_str(p: UniPoly) -> str:
    """str(p) by the Fraction formatter on p's coefficients."""
    return fraction_format_terms(
        (c, f"x^{e}" if e > 1 else "x" if e else "")
        for e, c in reversed(list(enumerate(p.coeffs)))) or "0"


class TestFormatAgainstFractionOracle:
    """format_terms and format_rational on integer numerators over a
    denominator against the Fraction formatter and str(Fraction), byte
    for byte."""

    MONOMIALS = ("x^3", "x^2", "x*y", "y^2", "x", "y", "")

    def test_random_term_lists(self):
        rng = random.Random(6007)
        for _ in range(3000):
            den = rng.choice((1, 1, 2, 6, rng.randint(1, 10 ** 6), _random_part(rng)))
            terms = []
            for mono in rng.sample(self.MONOMIALS, rng.randint(0, len(self.MONOMIALS))):
                r = rng.random()
                if r < 0.15:
                    num = 0
                elif r < 0.35:  # magnitude 1
                    num = rng.choice((den, -den))
                elif r < 0.5:  # an integer in lowest terms
                    num = rng.choice((1, -1)) * den * rng.randint(2, 9)
                else:  # negative rationals too
                    num = rng.choice((1, -1)) * _random_part(rng)
                terms.append((num, mono))
            fractions = [(Fraction(c, den), m) for c, m in terms]
            assert format_terms(terms, den) == fraction_format_terms(fractions)
            for c, _ in terms:
                assert format_rational(c, den) == str(Fraction(c, den))

    def test_small_cases(self):
        assert format_terms([], 1) == ""
        assert format_terms([(0, "x"), (0, "")], 5) == ""
        assert format_terms([(-4, "x^2"), (4, "y"), (-4, "")], 4) == "-x^2 + y - 1"
        assert format_terms([(-6, "x"), (3, "")], 4) == "-3/2*x + 3/4"
        assert format_rational(-10, 4) == "-5/2" and format_rational(0, 7) == "0"

    def test_unipoly_display(self):
        rng = random.Random(6011)
        for _ in range(600):
            den = rng.choice((1, 1, 3, rng.randint(1, 10 ** 4), _random_part(rng)))
            coeffs = [Fraction(rng.choice((0, 0, 1, -1, rng.randint(-9, 9),
                                           _random_part(rng))), den)
                      for _ in range(rng.randint(1, 8))]
            p = UniPoly(coeffs)
            assert str(p) == _fraction_str(p), coeffs

    def test_coefficient_list_display(self):
        # the --coeffs reader, on small parts: its Sturm chain is costly
        rng = random.Random(6029)
        checked = 0
        while checked < 150:
            den = rng.choice((1, 2, rng.randint(1, 10 ** 4)))
            coeffs = [Fraction(rng.choice((0, 1, -1, rng.randint(-10 ** 6, 10 ** 6))), den)
                      for _ in range(rng.randint(2, 7))]
            try:
                q = parse_coefficient_list(",".join(map(str, coeffs))).q
            except (HypothesisError, ParseError):
                continue
            assert str(q) == _fraction_str(UniPoly(coeffs)), coeffs
            checked += 1


_rationals = st.fractions(max_denominator=60).filter(lambda r: abs(r) < 10 ** 6)
_positive = st.fractions(min_value=Fraction(1, 60), max_value=60, max_denominator=60)
_rational_lists = st.lists(st.one_of(_rationals, st.integers(-50, 50)), max_size=7)


class TestCanonicalForm:
    """Every way of building a UniPoly ends in one form: integer
    numerators, trailing zeros trimmed, over a positive denominator
    coprime to their content, equal to UniPoly(p.coeffs)."""

    @staticmethod
    def assert_canonical(p):
        nums, den = p.numerators, p.denominator
        assert type(nums) is tuple and all(type(c) is int for c in nums), p
        assert type(den) is int and den > 0, p
        assert not nums or nums[-1] != 0, p
        assert gcd(den, *nums) == 1, p
        # the least common denominator of the Fraction coefficients
        coeffs = p.coeffs
        assert den == lcm(*(c.denominator for c in coeffs))
        assert nums == tuple(int(c * den) for c in coeffs)
        rebuilt = UniPoly(coeffs)
        assert (rebuilt.numerators, rebuilt.denominator) == (nums, den)
        assert rebuilt == p and hash(rebuilt) == hash(p)

    @settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @given(coeffs=_rational_lists)
    def test_rational_lists(self, coeffs):
        p = UniPoly(coeffs)
        self.assert_canonical(p)
        assert p.coeffs == tuple(Fraction(c) for c in coeffs)[:p.degree + 1]
        assert all(c == 0 for c in coeffs[p.degree + 1:])
        self.assert_canonical(-p)
        assert (-p).coeffs == tuple(-c for c in p.coeffs)
        self.assert_canonical(p.monic())
        if not p.is_zero:
            assert p.monic().coeffs == tuple(c / p.coeffs[-1] for c in p.coeffs)
        assert copy.deepcopy(p) == p == pickle.loads(pickle.dumps(p))

    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @given(numerators=st.lists(st.integers(-10 ** 9, 10 ** 9), max_size=7),
           denominator=st.integers(-10 ** 6, 10 ** 6).filter(bool))
    def test_integer_constructor(self, numerators, denominator):
        p = UniPoly.from_integers(numerators, denominator)
        self.assert_canonical(p)
        assert p == UniPoly([Fraction(c, denominator) for c in numerators])

    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @given(factors=st.lists(_rational_lists.filter(any), min_size=1, max_size=3),
           constant=_rationals)
    def test_parse_curve(self, factors, constant):
        # y^2 = P1*P2*... + c, so that the parser sums and multiplies
        text = "y^2 = " + "*".join(f"({UniPoly(f)})" for f in factors) + f" + ({constant})"
        try:
            spec = parse_curve(text)
        except (HypothesisError, ParseError):  # not square-free, or constant
            assume(False)
        assume(isinstance(spec, HyperellipticSpec))  # not "y^2 = 0"
        q = spec.q
        self.assert_canonical(q)
        product = UniPoly([1])
        for f in factors:
            product = poly_mul(product, UniPoly(f))
        assert q == poly_add(product, UniPoly([constant])), text

    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @given(k=st.sampled_from((0, 2, 4)), a=_positive, b=_rationals, c=_positive)
    def test_quartic_of_params(self, k, a, b, c):
        try:
            params = QuarticParams(k, a, b, c)
        except ValueError:  # not square-free
            assume(False)
        q = params.quartic()
        self.assert_canonical(q)
        m = b * b + (a * a if k != 4 else -a * a)
        n = b * b + (c * c if k == 0 else -c * c)
        assert q == UniPoly([m * n, 2 * b * (n - m), m + n - 4 * b * b, 0, 1])

    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @given(common=_rational_lists, p=_rational_lists, q=_rational_lists)
    def test_poly_gcd(self, common, p, q):
        p = poly_mul(UniPoly(common), UniPoly(p))
        q = poly_mul(UniPoly(common), UniPoly(q))
        g = poly_gcd(p, q)
        self.assert_canonical(g)
        assert g == fraction_poly_gcd(p, q)

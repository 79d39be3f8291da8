import random
from fractions import Fraction

import pytest

from realcurves import (QuarticParams, UniPoly, count_real_roots,
                        is_square_free, poly_gcd, quartic_normal_form,
                        rational_sqrt)
from realcurves import eta as eta_module
from realcurves.polys import integer_roots_monic, sign_variations, sturm_sequence
from realcurves.sampling import SampleBox, draw_params

from oracles import (cauchy_bound, derivative, descartes_count_roots,
                     fraction_count_real_roots, fraction_poly_gcd,
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
        assert poly_gcd(P(0, 0, 3), UniPoly.zero()) == P(0, 0, 1)
        assert poly_gcd(UniPoly.zero(), UniPoly.zero()).is_zero

    def test_divides_both_exactly(self):
        rng = random.Random(11)
        for _ in range(200):
            g = random_squarefree_poly(rng, max_degree=3, coeff_bound=6)
            a = random_squarefree_poly(rng, max_degree=3, coeff_bound=6)
            b = random_squarefree_poly(rng, max_degree=3, coeff_bound=6)
            p, q = poly_mul(g, a), poly_mul(g, b)
            d = poly_gcd(p, q)
            assert not d.is_zero and d.leading == 1
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
            is_square_free(UniPoly.zero())

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
            count_real_roots(UniPoly.zero())
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
            ratio = q[-1] / r.leading
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

    def test_chain_starts_from_a_given_primitive_polynomial(self):
        q = UniPoly([Fraction(9, 16), 0, Fraction(-5, 2), 0, 1], primitive=(9, 0, -40, 0, 16))
        assert sturm_sequence(q) == sturm_sequence(UniPoly(q.coeffs))
        assert sturm_sequence(q)[0] == (9, 0, -40, 0, 16)

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
        cubics = []

        def recorded(p, _original=integer_roots_monic):
            cubics.append(p)
            return _original(p)

        monkeypatch.setattr(eta_module, "integer_roots_monic", recorded)
        rng = random.Random(3067)
        for pin, draws in ((None, 1000), ("b=0", 500), ("a=c", 500)):
            box = SampleBox(pin=pin)
            for _ in range(draws):
                params = draw_params(rng, box)
                t = rng.randint(1, 6)
                scaled = QuarticParams(k=params.k, a=Fraction(params.a, t),
                                       b=Fraction(params.b, t),
                                       c=Fraction(params.c, t))
                h = Fraction(rng.randint(-30, 30), rng.randint(1, 7))
                assert quartic_normal_form(shift(scaled.quartic(), h)) is not None
        assert len(cubics) == 2000
        for p in cubics:
            assert len(p) == 4 and all(type(c) is int for c in p), p
            assert integer_roots_monic(p) == sturm_integer_roots(UniPoly(p)), p


class TestRationalSqrt:
    def test_squares(self):
        assert rational_sqrt(Fraction(225, 16)) == Fraction(15, 4)
        assert rational_sqrt(Fraction(0)) == 0
        assert rational_sqrt(Fraction(4)) == 2

    def test_non_squares(self):
        assert rational_sqrt(Fraction(2)) is None
        assert rational_sqrt(Fraction(1, 3)) is None
        assert rational_sqrt(Fraction(-4)) is None


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
        assert UniPoly.zero().degree == -1
        assert P(5).degree == 0
        assert P(0, 0, 0).is_zero

    def test_display(self):
        assert str(P(9, 0, -10, 0, 1)) == "x^4 - 10*x^2 + 9"
        assert str(P(Fraction(-1, 2), 1)) == "x - 1/2"
        assert str(UniPoly.zero()) == "0"

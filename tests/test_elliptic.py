import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from realcurves import (ECPoint, INFINITY, OffCurveError, SingularCurveError,
                        WeierstrassCurve, ec_add, ec_double, multiple,
                        torsion_order_bounded)

from oracles import (chord_add, fraction_discriminant, fraction_residual,
                     nagell_lutz_excludes_torsion, random_curve_with_points,
                     stepwise_torsion_order, tangent_double)

F = Fraction

# u^2 = v(v-1)(v+4) = v^3 + 3v^2 - 4v
CURVE_014 = WeierstrassCurve(c2=3, c1=-4, c0=0)
TWO_TORSION_014 = [ECPoint(0, 0), ECPoint(1, 0), ECPoint(-4, 0)]


class TestBasicLaw:
    def test_identity(self):
        p = TWO_TORSION_014[0]
        assert ec_add(CURVE_014, p, INFINITY) == p
        assert ec_add(CURVE_014, INFINITY, p) == p

    def test_inverse_pair(self):
        curve, pts = random_curve_with_points(random.Random(3))
        p = pts[0]
        assert ec_add(curve, p, -p) == INFINITY

    def test_two_torsion_addition_closes(self):
        a, b, c = TWO_TORSION_014
        assert ec_add(CURVE_014, a, b) == c  # chord through the roots
        assert chord_add(CURVE_014, a, b) == c
        assert ec_add(CURVE_014, a, c) == b
        assert ec_add(CURVE_014, b, c) == a

    def test_double_of_two_torsion_is_identity(self):
        for p in TWO_TORSION_014:
            assert ec_double(CURVE_014, p) == INFINITY
        assert ec_double(CURVE_014, INFINITY) == INFINITY

    def test_multiple_conventions(self):
        curve, pts = random_curve_with_points(random.Random(5))
        p = pts[0]
        assert multiple(curve, 0, p) == INFINITY
        assert multiple(curve, 1, p) == p
        assert multiple(curve, -3, p) == -multiple(curve, 3, p)
        assert multiple(curve, 3, p) == ec_add(curve, p, ec_double(curve, p))


class TestOracleAgreement:
    def test_add_matches_chord_oracle(self):
        rng = random.Random(13)
        for _ in range(40):
            curve, pts = random_curve_with_points(rng)
            mixed = pts + [ec_add(curve, pts[0], pts[1]),
                           -pts[2], ec_double(curve, pts[1])]
            for _ in range(10):
                a, b = rng.choice(mixed), rng.choice(mixed)
                assert ec_add(curve, a, b) == chord_add(curve, a, b)

    def test_double_matches_tangent_oracle_on_100_points(self):
        rng = random.Random(17)
        checked = 0
        while checked < 100:
            curve, pts = random_curve_with_points(rng)
            for p in pts:
                assert ec_double(curve, p) == tangent_double(curve, p)
                checked += 1


class TestIntCoordinates:
    """Int coordinates become Fractions in `ECPoint`, so the group law
    never divides an int by an int and its results are exact."""

    CURVE = WeierstrassCurve(0, -1, 1)  # u^2 = v^3 - v + 1

    @staticmethod
    def assert_fractions(point):
        assert type(point.v) is Fraction and type(point.u) is Fraction, point

    def test_group_law_returns_fractions(self):
        curve, p, q = self.CURVE, ECPoint(0, 1), ECPoint(1, 1)
        self.assert_fractions(p)
        total = ec_add(curve, p, q)
        self.assert_fractions(total)
        assert total == chord_add(curve, p, q) == ECPoint(F(-1), F(-1))
        double = ec_double(curve, p)
        self.assert_fractions(double)
        assert double == chord_add(curve, p, p)
        for n in (2, 3, 5, -4):
            expected = INFINITY
            for _ in range(abs(n)):
                expected = chord_add(curve, expected, p if n > 0 else -p)
            got = multiple(curve, n, p)
            self.assert_fractions(got)
            assert got == expected, n

    def test_torsion_search_on_int_points(self):
        # (2, 3) on u^2 = v^3 + 1 has order 6; (0, 1) above has infinite order
        for curve, point in ((WeierstrassCurve(0, 0, 1), ECPoint(2, 3)),
                             (self.CURVE, ECPoint(0, 1)),
                             (CURVE_014, ECPoint(-4, 0))):
            assert torsion_order_bounded(curve, point, 12) == \
                stepwise_torsion_order(curve, point, 12)
        assert torsion_order_bounded(WeierstrassCurve(0, 0, 1), ECPoint(2, 3), 12) == 6


class TestGroupAxioms:
    def test_associativity_commutativity_on_random_triples(self):
        rng = random.Random(19)
        for _ in range(4):
            curve, base = random_curve_with_points(rng)
            pool = list(base)
            for p in base:
                pool.append(-p)
                pool.append(ec_double(curve, p))
            pool.append(ec_add(curve, base[0], base[1]))
            pool.append(INFINITY)
            for _ in range(60):
                a, b, c = (rng.choice(pool) for _ in range(3))
                assert ec_add(curve, a, b) == ec_add(curve, b, a)
                left = ec_add(curve, ec_add(curve, a, b), c)
                right = ec_add(curve, a, ec_add(curve, b, c))
                assert left == right

    def test_multiple_is_additive(self):
        rng = random.Random(23)
        curve, pts = random_curve_with_points(rng)
        p = pts[0]
        for _ in range(40):
            m = rng.randint(-8, 8)
            n = rng.randint(-8, 8)
            assert multiple(curve, m + n, p) == \
                ec_add(curve, multiple(curve, m, p), multiple(curve, n, p))

    def test_digit_limit_refuses_no_printable_multiple(self):
        # max_digits may stop the loop before nP is reached, but never
        # when nP's coordinates have parts of at most max_digits digits;
        # 121(0,1) on u^2 = v^3 - v + 1 is the last multiple that fits 4300
        rng = random.Random(41)
        cases = [(WeierstrassCurve(0, -1, 1), ECPoint(0, 1), 4300, range(100, 131))]
        for _ in range(8):
            curve, pts = random_curve_with_points(rng)
            cases += [(curve, p, 20, range(-30, 31)) for p in pts]
        fitted = refused = 0
        for curve, p, digits, multipliers in cases:
            bound = 10 ** digits
            for n in multipliers:
                expected = multiple(curve, n, p)
                fits = expected.is_infinity or all(
                    x.denominator < bound and -bound < x.numerator < bound
                    for x in (expected.v, expected.u))
                try:
                    assert multiple(curve, n, p, max_digits=digits) == expected
                except OverflowError:
                    assert not fits, (curve, p, n)
                    refused += 1
                fitted += fits
        assert fitted > 100 and refused > 100


class TestTorsion:
    def test_infinity_has_order_one(self):
        assert torsion_order_bounded(CURVE_014, INFINITY, 12) == 1

    def test_two_torsion_has_order_two(self):
        for p in TWO_TORSION_014:
            assert torsion_order_bounded(CURVE_014, p, 12) == 2

    def test_generic_point_is_not_torsion(self):
        # integral curves through an integer point; doubling generically
        # produces denominators, which the Nagell-Lutz screen turns into
        # a definite non-torsion verdict
        rng = random.Random(29)
        confirmed = 0
        for _ in range(60):
            v0, u0 = rng.randint(-9, 9), rng.randint(1, 9)
            c2, c1 = rng.randint(-5, 5), rng.randint(-5, 5)
            c0 = u0 ** 2 - v0 ** 3 - c2 * v0 ** 2 - c1 * v0
            try:
                curve = WeierstrassCurve(c2=c2, c1=c1, c0=c0)
            except SingularCurveError:
                continue
            q = multiple(curve, 2, ECPoint(v0, u0))
            if q.is_infinity:
                continue
            if nagell_lutz_excludes_torsion(curve, q):
                assert torsion_order_bounded(curve, q, 12) is None
                confirmed += 1
        assert confirmed >= 10

    def test_reported_orders_reverify(self):
        rng = random.Random(31)
        for _ in range(20):
            curve, pts = random_curve_with_points(rng)
            for p in pts + [INFINITY]:
                order = torsion_order_bounded(curve, p, 12)
                if order is not None:
                    assert multiple(curve, order, p) == INFINITY
                    for smaller in range(1, order):
                        assert multiple(curve, smaller, p) != INFINITY

    def test_matches_stepwise_search(self):
        # torsion points of every order Mazur allows, their multiples,
        # points of infinite order, all on rational curves; the
        # Nagell-Lutz exit must never change the answer
        cases = [(CURVE_014, INFINITY)]
        cases += [(CURVE_014, p) for p in TWO_TORSION_014]
        for a1, a3 in ((F(1), F(1)), (F(1, 2), F(-3)), (F(-4, 3), F(5, 7))):
            # y^2 + a1 xy + a3 y = x^3: (0, 0) has order 3
            curve = WeierstrassCurve(a1 * a1 / 4, a1 * a3 / 2, a3 * a3 / 4)
            cases.append((curve, ECPoint(F(0), a3 / 2)))
        # L = 3, and the order-3 point's v-denominator 9 divides L^2 but
        # not L: an exit that tested L*v for integrality would stop at 1p
        cases.append((WeierstrassCurve(F(47, 3), F(1, 3), F(0)), ECPoint(F(1, 9), F(13, 27))))
        for order in (4, 5, 6, 7, 8, 9, 10, 12):
            for t in (F(2), F(-2, 3), F(5, 4), F(7, 3)):
                curve, p = _tate_normal_form(*_kubert(order, t))
                assert stepwise_torsion_order(curve, p, 12) == order
                cases += [(curve, multiple(curve, m, p)) for m in range(1, order)]
        rng = random.Random(37)
        for _ in range(30):
            curve, pts = random_curve_with_points(rng)
            cases += [(curve, p) for p in pts]
        orders = set()
        for curve, p in cases:
            for bound in (1, 3, 12, 40):
                expected = stepwise_torsion_order(curve, p, bound)
                assert torsion_order_bounded(curve, p, bound) == expected
            orders.add(stepwise_torsion_order(curve, p, 12))
        assert orders == {None, *range(1, 11), 12}

    def test_bound_must_be_positive(self):
        with pytest.raises(ValueError):
            torsion_order_bounded(CURVE_014, INFINITY, 0)


def _kubert(order: int, t: Fraction) -> tuple[Fraction, Fraction]:
    """Kubert's (b, c) for which (0, 0) on the Tate normal form has the
    given order, 4 <= order <= 12 and order != 11."""
    if order == 4:
        return t, F(0)
    if order == 5:
        return t, t
    if order == 6:
        return t + t * t, t
    if order == 7:
        return t ** 3 - t ** 2, t * t - t
    if order == 8:
        b = (2 * t - 1) * (t - 1)
        return b, b / t
    if order == 9:
        c = t * t * (t - 1)
        return c * (t * t - t + 1), c
    if order == 10:
        d = t * t / (t - (t - 1) ** 2)
    else:
        m = (3 * t - 3 * t * t - 1) / (t - 1)
        d = m + t
        t = m / (1 - t)
    c = t * d - t
    return c * d, c


def _tate_normal_form(b: Fraction, c: Fraction) -> tuple[WeierstrassCurve, ECPoint]:
    """y^2 + (1-c)xy - by = x^3 - bx^2 with u = y + ((1-c)x - b)/2, and
    the image of (0, 0)."""
    a1 = 1 - c
    curve = WeierstrassCurve(-b + a1 * a1 / 4, -a1 * b / 2, b * b / 4)
    return curve, ECPoint(F(0), -b / 2)


_rationals = st.fractions(min_value=-30, max_value=30, max_denominator=16)


@st.composite
def _curves_and_points(draw):
    """Coefficients (c2, c1, c0) and a point: random coefficients, a
    cubic from roots that often coincide, or a cubic through the point;
    the point is affine or, now and then, infinity."""
    v, u = draw(_rationals), draw(_rationals)
    form = draw(st.sampled_from(("coefficients", "roots", "through")))
    if form == "coefficients":
        c2, c1, c0 = draw(_rationals), draw(_rationals), draw(_rationals)
    elif form == "roots":
        r1, r2, r3 = draw(st.lists(st.sampled_from((F(-2), F(0), F(1, 2), F(3))),
                                   min_size=3, max_size=3))
        c2, c1, c0 = -(r1 + r2 + r3), r1 * r2 + r1 * r3 + r2 * r3, -(r1 * r2 * r3)
    else:
        c2, c1 = draw(_rationals), draw(_rationals)
        c0 = u * u - ((v + c2) * v + c1) * v
    point = INFINITY if draw(st.integers(0, 9)) == 0 else ECPoint(v, u)
    return (c2, c1, c0), point


class TestIntegerChecks:
    """The curve's discriminant and membership tests run on integers;
    they must agree with the Fraction formulas exactly."""

    @settings(max_examples=400, derandomize=True, database=None, deadline=None)
    @given(case=_curves_and_points())
    def test_matches_fraction_formulas(self, case):
        (c2, c1, c0), point = case
        disc = fraction_discriminant(c2, c1, c0)
        if disc == 0:
            with pytest.raises(SingularCurveError):
                WeierstrassCurve(c2, c1, c0)
            return
        curve = WeierstrassCurve(c2, c1, c0)
        scale = curve._integral[0]
        assert Fraction(curve._scaled_discriminant(), scale ** 4) == disc
        residual = fraction_residual(curve, point)
        assert curve.contains(point) == (residual == 0)
        if residual == 0:
            curve.require(point)
            return
        with pytest.raises(OffCurveError) as exc:
            curve.require(point)
        assert type(exc.value.residual) is Fraction
        assert exc.value.residual == residual
        assert str(exc.value) == f"point {point} is not on the curve; residual {residual}"


class TestGuards:
    def test_off_curve_rejected_with_residual(self):
        bad = ECPoint(2, 2)
        with pytest.raises(OffCurveError) as exc:
            ec_add(CURVE_014, bad, INFINITY)
        # u^2 - (v^3 + 3v^2 - 4v) at (2, 2)
        assert exc.value.residual == 4 - (8 + 12 - 8)

    def test_singular_curve_rejected(self):
        with pytest.raises(SingularCurveError):
            WeierstrassCurve(c2=0, c1=0, c0=0)  # u^2 = v^3
        with pytest.raises(SingularCurveError):
            WeierstrassCurve(c2=-2, c1=1, c0=0)  # double root at v=1

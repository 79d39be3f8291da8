import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import realcurves
from realcurves import (INFINITY, OffCurveError, Point, SampleBox, SingularCurveError,
                        WeierstrassCurve, build_quartic_model, ec_add, ec_double, multiple,
                        torsion_order_bounded)
from realcurves import elliptic, weierstrass
from realcurves.sampling import PIN_A_EQ_C, PIN_B_ZERO, draw_params

from oracles import (chord_add, fraction_discriminant, fraction_residual,
                     nagell_lutz_excludes_torsion, random_curve_with_points,
                     stepwise_torsion_order, tangent_double)

F = Fraction

# u^2 = v(v-1)(v+4) = v^3 + 3v^2 - 4v
CURVE_014 = WeierstrassCurve(c2=3, c1=-4, c0=0)
TWO_TORSION_014 = [Point(0, 0), Point(1, 0), Point(-4, 0)]


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
    """A `Point` keeps int coordinates as ints, and the group law builds
    each slope as a Fraction of its numerator and denominator, so it
    never divides an int by an int and its sums are exact Fractions."""

    CURVE = WeierstrassCurve(0, -1, 1)  # u^2 = v^3 - v + 1

    @staticmethod
    def assert_fractions(point):
        assert type(point.v) is Fraction and type(point.u) is Fraction, point

    def test_group_law_returns_fractions(self):
        curve, p, q = self.CURVE, Point(0, 1), Point(1, 1)
        assert type(p.v) is int and type(p.u) is int
        total = ec_add(curve, p, q)
        self.assert_fractions(total)
        assert total == chord_add(curve, p, q) == Point(F(-1), F(-1))
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

    def test_mixed_int_and_fraction_coordinates(self):
        # (0, 1) with ints and (1, 1) with one Fraction, on a curve with a
        # Fraction coefficient: every sum equals the all-Fraction one
        curve = WeierstrassCurve(0, F(-1), 1)
        mixed = (Point(0, 1), Point(F(1), 1))
        fractions = (Point(F(0), F(1)), Point(F(1), F(1)))
        assert ec_add(curve, *mixed) == ec_add(curve, *fractions) == Point(F(-1), F(-1))
        for n in (2, 3, -5):
            got = multiple(curve, n, mixed[1])
            self.assert_fractions(got)
            assert got == multiple(curve, n, fractions[1]), n

    def test_torsion_search_on_int_points(self):
        # (2, 3) on u^2 = v^3 + 1 has order 6; (0, 1) above has infinite order
        for curve, point in ((WeierstrassCurve(0, 0, 1), Point(2, 3)),
                             (self.CURVE, Point(0, 1)),
                             (CURVE_014, Point(-4, 0))):
            assert torsion_order_bounded(curve, point, 12) == \
                stepwise_torsion_order(curve, point, 12)
        assert torsion_order_bounded(WeierstrassCurve(0, 0, 1), Point(2, 3), 12) == 6


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
        cases = [(WeierstrassCurve(0, -1, 1), Point(0, 1), 4300, range(100, 131))]
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
            q = multiple(curve, 2, Point(v0, u0))
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
            cases.append((curve, Point(F(0), a3 / 2)))
        # L = 3, and the order-3 point's v-denominator 9 divides L^2 but
        # not L: an exit that tested L*v for integrality would stop at 1p
        cases.append((WeierstrassCurve(F(47, 3), F(1, 3), F(0)), Point(F(1, 9), F(13, 27))))
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
            # at every bound up to 12 and past it, given and as read
            expected = _oracle_by_bound(curve, p)
            expected[40] = stepwise_torsion_order(curve, p, 40)
            _assert_walk_matches(curve, p, expected)
            orders.add(expected[12])
        assert orders == {None, *range(1, 11), 12}

    def test_bound_must_be_positive(self):
        with pytest.raises(ValueError):
            torsion_order_bounded(CURVE_014, INFINITY, 0)


def test_moved_names_resolve_through_elliptic_and_the_package():
    # the curve and the torsion search live in `weierstrass`; `elliptic`
    # and the package hand out the same objects
    for name in ("WeierstrassCurve", "torsion_order_bounded"):
        moved = getattr(weierstrass, name)
        assert getattr(elliptic, name) is moved and getattr(realcurves, name) is moved
    assert elliptic.WeierstrassCurve.require is weierstrass.WeierstrassCurve.require
    # one point class, `weierstrass.Point`, which `elliptic` defines no
    # subclass of
    assert type(INFINITY) is Point and realcurves.Point is Point
    assert not [value for value in vars(elliptic).values()
                if isinstance(value, type) and value.__module__ == elliptic.__name__]


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


def _tate_normal_form(b: Fraction, c: Fraction) -> tuple[WeierstrassCurve, Point]:
    """y^2 + (1-c)xy - by = x^3 - bx^2 with u = y + ((1-c)x - b)/2, and
    the image of (0, 0)."""
    a1 = 1 - c
    curve = WeierstrassCurve(-b + a1 * a1 / 4, -a1 * b / 2, b * b / 4)
    return curve, Point(F(0), -b / 2)


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
    point = INFINITY if draw(st.integers(0, 9)) == 0 else Point(v, u)
    return (c2, c1, c0), point


def _as_read(x: Fraction) -> int | Fraction:
    """x as `read_rationals` reads its text: an int when it is one."""
    return x.numerator if x.denominator == 1 else x


def _walk_cases(curve: WeierstrassCurve, p: Point):
    """The curve and point as given, and as the command line reads them:
    coefficients and coordinates that are integers as ints, in a
    `weierstrass.Point`."""
    read = WeierstrassCurve(*map(_as_read, (curve.c2, curve.c1, curve.c0)))
    as_read = Point(None, None) if p.is_infinity else Point(_as_read(p.v), _as_read(p.u))
    return (curve, p), (read, as_read)


def _integral_image(curve: WeierstrassCurve, p: Point) -> bool:
    scale = curve._integral[0]
    return (p.is_infinity or (scale ** 2 % p.v.denominator == 0
                              and scale ** 3 % p.u.denominator == 0))


def _scaled_cases(rng: random.Random):
    """Curves with L > 1: the image under v -> s^2 v, u -> s^3 u, s < 1, of
    integral curves through integer points (torsion and not) and of
    random rational curves, with each point and its double."""
    bases = [(WeierstrassCurve(0, 0, 1), Point(2, 3)),      # order 6
             (WeierstrassCurve(0, 4, 0), Point(2, 4)),      # order 4
             (WeierstrassCurve(0, 0, -432), Point(12, 36)),  # order 3
             (CURVE_014, Point(-4, 0)),                     # order 2
             (WeierstrassCurve(0, -1, 1), Point(0, 1))]     # infinite order
    for _ in range(6):
        curve, pts = random_curve_with_points(rng)
        bases += [(curve, p) for p in pts]
    for curve, p in bases:
        for s in (F(1, 2), F(1, 3), F(2, 3), F(1, 6)):
            moved = WeierstrassCurve(curve.c2 * s ** 2, curve.c1 * s ** 4,
                                     curve.c0 * s ** 6)
            image = Point(p.v * s ** 2, p.u * s ** 3)
            yield from ((moved, multiple(moved, m, image)) for m in (1, 2))


def _oracle_by_bound(curve: WeierstrassCurve, p: Point) -> dict:
    """`stepwise_torsion_order` at every bound from 1 to 12.  Its loop at
    a bound is the first part of its loop at 12, so a point with no
    order up to 12 has none at any bound; a torsion point is searched
    again at each bound."""
    order = stepwise_torsion_order(curve, p, 12)
    return {bound: order if order is None else stepwise_torsion_order(curve, p, bound)
            for bound in range(1, 13)}


def _assert_walk_matches(curve: WeierstrassCurve, p: Point, expected_by_bound: dict):
    """The integer walk gives the oracle's answer at each bound, on the
    curve and point as given and as the command line reads them."""
    for case in _walk_cases(curve, p):
        for bound, expected in expected_by_bound.items():
            assert torsion_order_bounded(*case, bound) == expected, (curve, p, bound)


class TestTorsionWalkCensus:
    """The integer walk of `weierstrass.torsion_order_bounded` against
    `oracles.stepwise_torsion_order`, which adds the point to itself in
    Fractions with no Nagell-Lutz exit, at every bound from 1 to 12.
    `TestTorsion.test_matches_stepwise_search` holds the Tate normal
    forms of every order."""

    def test_sampler_models(self):
        rng = random.Random(43)
        orders = []
        for k in (0, 2, 4):
            for pin in (None, PIN_B_ZERO, PIN_A_EQ_C):
                box = SampleBox(k=k, pin=pin)
                for _ in range(334):
                    model = build_quartic_model(draw_params(rng, box))
                    expected = _oracle_by_bound(model.curve, model.p)
                    _assert_walk_matches(model.curve, model.p, expected)
                    orders.append(expected[12])
        assert len(orders) >= 3000
        assert set(orders) >= {None, 2}

    def test_curves_with_denominators(self):
        # L > 1 on every curve, with points whose images on the integral
        # model are integral (their denominators divide L^2 and L^3) and
        # points whose images are not
        integral = fractional = 0
        orders = set()
        for curve, p in _scaled_cases(random.Random(47)):
            assert curve._integral[0] > 1
            expected = _oracle_by_bound(curve, p)
            _assert_walk_matches(curve, p, expected)
            orders.add(expected[12])
            if _integral_image(curve, p):
                integral += 1
            else:
                fractional += 1
        assert integral >= 100 and fractional >= 40
        assert orders == {None, 1, 2, 3, 4, 6}


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
        bad = Point(2, 2)
        with pytest.raises(OffCurveError) as exc:
            ec_add(CURVE_014, bad, INFINITY)
        # u^2 - (v^3 + 3v^2 - 4v) at (2, 2)
        assert exc.value.residual == 4 - (8 + 12 - 8)

    def test_residual_is_an_int_on_ints_only(self):
        # as the walk reads the command line's integers: no Fraction built
        curve = WeierstrassCurve(0, -1, 1)
        with pytest.raises(OffCurveError) as exc:
            torsion_order_bounded(curve, Point(0, 2), 12)
        assert (type(exc.value.residual), exc.value.residual) == (int, 3)
        assert str(exc.value) == "point (0, 2) is not on the curve; residual 3"
        # the group law reads the points as given, so its checks give the same
        for call in (lambda: ec_add(curve, Point(0, 2), INFINITY),
                     lambda: ec_double(curve, Point(0, 2)),
                     lambda: multiple(curve, 3, Point(0, 2))):
            with pytest.raises(OffCurveError) as exc:
                call()
            assert (type(exc.value.residual), exc.value.residual) == (int, 3)
            assert str(exc.value) == "point (0, 2) is not on the curve; residual 3"
        for other_curve, point in ((curve, Point(0, F(2))),
                                   (WeierstrassCurve(0, F(-1), 1), Point(0, 2))):
            with pytest.raises(OffCurveError) as exc:
                other_curve.require(point)
            assert (type(exc.value.residual), exc.value.residual) == (Fraction, 3)
            assert str(exc.value) == "point (0, 2) is not on the curve; residual 3"

    def test_singular_curve_rejected(self):
        with pytest.raises(SingularCurveError):
            WeierstrassCurve(c2=0, c1=0, c0=0)  # u^2 = v^3
        with pytest.raises(SingularCurveError):
            WeierstrassCurve(c2=-2, c1=1, c0=0)  # double root at v=1

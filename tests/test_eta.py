import itertools
import random
import time
from collections import Counter
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from realcurves import (INFINITY, QuarticParams, SearchStats,
                        UniPoly, WeierstrassCurve, build_quartic_model, classify_conic,
                        count_real_roots, curves, eta_closed_rules,
                        eta_from_params, eta_full, full_report,
                        hyperelliptic_invariants, level_bounds, multiple,
                        parse_curve, polys, quartic_eta, quartic_normal_form)
from realcurves import eta as eta_module
from realcurves.eta_rules import (GENUS_TOO_HIGH, NON_RATIONAL_FACTORIZATION,
                                  RULE_CONIC_TABLE, RULE_ONE_POINT_AT_INFINITY,
                                  TORSION_COINCIDENCE, TORSION_EXHAUSTED)
from realcurves.sampling import SampleBox, draw_params, run_sample

from oracles import (chord_add, fraction_build_quartic_model,
                     fraction_normal_form_quartic, fraction_quartic_normal_form,
                     has_rational_quadratic_split, neutral_two_torsion,
                     pell_torsion_order, poly_mul, quartic_j_invariant, shift,
                     stepwise_torsion_order, weierstrass_j_invariant)


def conic_inv(expr):
    return classify_conic(parse_curve(expr + " = 0")).invariants


def hyp(expr):
    spec = parse_curve(expr)
    return spec, hyperelliptic_invariants(spec)


F = Fraction


class TestClosedRules:
    def test_parabola_is_zero(self):
        res = eta_closed_rules(conic_inv("x^2 + y"))
        assert res.value == 0
        assert res.certificate.kind == RULE_ONE_POINT_AT_INFINITY

    def test_hyperbola_is_one(self):
        res = eta_closed_rules(conic_inv("x^2 - y^2 - 1"))
        assert res.value == 1
        assert res.certificate.kind == RULE_CONIC_TABLE

    def test_quartic_falls_through(self):
        _, inv = hyp("y^2 = x^4 - 2")
        assert eta_closed_rules(inv) is None

    def test_single_point_cases(self):
        for expr in ("x^2 + y^2 - 1", "x^2 + y^2 + 1", "x", "x^2 + 1"):
            assert eta_closed_rules(conic_inv(expr)).value == 0
        for expr in ("y^2 = x^3 - x", "y^2 = -(x^6+1)"):
            _, inv = hyp(expr)
            assert eta_closed_rules(inv).value == 0


class TestNormalForm:
    def test_two_complex_quadratics(self):
        params = quartic_normal_form(UniPoly([4, 0, 5, 0, 1]))  # (x^2+1)(x^2+4)
        assert params == QuarticParams(k=0, a=F(1), b=F(0), c=F(2))

    def test_fully_split_prefers_largest_shift(self):
        params = quartic_normal_form(UniPoly([9, 0, -10, 0, 1]))  # (x^2-1)(x^2-9)
        assert params == QuarticParams(k=4, a=F(1), b=F(2), c=F(1))

    def test_irreducible_quartic_has_no_rational_form(self):
        q = UniPoly([1, 1, 0, 0, 1])  # x^4 + x + 1
        assert not has_rational_quadratic_split(q)  # independent oracle
        assert quartic_normal_form(q) is None

    def test_rational_quadratic_split_but_irrational_parameters(self):
        # (x^2+2)(x^2+3) splits over Q, but a = sqrt(2) is not rational
        assert quartic_normal_form(UniPoly([6, 0, 5, 0, 1])) is None

    def test_shifted_input_recovers_parameters(self):
        base = QuarticParams(k=2, a=F(3), b=F(5, 4), c=F(1))
        shifted = shift(base.quartic(), F(-7, 2))  # translate x
        params = quartic_normal_form(shifted)
        assert params == base

    def test_thousand_digit_parameters_recovered_quickly(self):
        rng = random.Random(1009)
        a, b, c = (rng.randrange(10 ** 999, 10 ** 1000) for _ in range(3))
        params = QuarticParams(2, a, b, c)
        q = params.quartic()
        started = time.perf_counter()
        assert quartic_normal_form(q) == params
        assert time.perf_counter() - started < 10.0

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            quartic_normal_form(UniPoly([1, 0, 0, 1]))  # degree 3
        with pytest.raises(ValueError):
            quartic_normal_form(UniPoly([4, 0, 5, 0, 2]))  # non-monic
        with pytest.raises(ValueError):
            quartic_normal_form(poly_mul(UniPoly([1, -2, 1]), UniPoly([1, 2, 1])))


def normal_form_outcome(find, q):
    """The params (or None) of a normal-form search, or its ValueError text."""
    try:
        return find(q)
    except ValueError as err:
        return f"ValueError: {err}"


class TestNormalFormAgainstFractionOracle:
    """The integer normal form against the Fraction-polynomial oracle:
    identical params, None results and errors."""

    @staticmethod
    def assert_same(q):
        found = normal_form_outcome(quartic_normal_form, q)
        assert found == normal_form_outcome(fraction_quartic_normal_form, q), q
        return found

    def test_scaled_and_shifted_sampler_quartics(self):
        rng = random.Random(4099)
        for pin, draws in ((None, 600), ("b=0", 300), ("a=c", 300)):
            box = SampleBox(pin=pin)
            for _ in range(draws):
                params = draw_params(rng, box)
                t = rng.randint(1, 9)
                scaled = QuarticParams(k=params.k, a=F(params.a, t),
                                       b=F(params.b, t), c=F(params.c, t))
                h = F(rng.randint(-50, 50), rng.randint(1, 12))
                found = self.assert_same(shift(scaled.quartic(), h))
                assert isinstance(found, QuarticParams)

    def test_repeated_roots_raise_the_same_error(self):
        rng = random.Random(4111)
        for _ in range(300):
            roots = [F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(3)]
            q = UniPoly([1])
            for r in roots + [rng.choice(roots)]:
                q = poly_mul(q, UniPoly([-r, 1]))
            assert self.assert_same(q) == "ValueError: polynomial must be square-free"

    def test_random_monic_quartics(self):
        rng = random.Random(4127)
        for _ in range(600):
            self.assert_same(UniPoly([F(rng.randint(-20, 20), rng.randint(1, 6))
                                      for _ in range(4)] + [1]))

    def test_squares_of_quadratics(self):
        rng = random.Random(4129)
        for _ in range(200):
            quad = UniPoly([F(rng.randint(-20, 20), rng.randint(1, 6)),
                            F(rng.randint(-20, 20), rng.randint(1, 6)), 1])
            assert self.assert_same(poly_mul(quad, quad)) == \
                "ValueError: polynomial must be square-free"

    def test_expansion_matches_fraction_product(self):
        rng = random.Random(4133)
        for pin in (None, "b=0", "a=c"):
            box = SampleBox(pin=pin)
            for _ in range(100):
                params = draw_params(rng, box)
                t = rng.randint(1, 9)
                for p in (params, QuarticParams(k=params.k, a=F(params.a, t),
                                                b=F(params.b, rng.randint(1, 9)),
                                                c=F(params.c, t))):
                    assert p.quartic() == fraction_normal_form_quartic(p)


_rationals = st.builds(F, st.integers(1, 60), st.integers(1, 12))


class TestEtaInvariance:
    """eta is invariant under x -> x + h and under y -> y/l."""

    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(k=st.sampled_from((0, 2, 4)), a=_rationals, c=_rationals,
           b=st.builds(F, st.integers(-60, 60), st.integers(1, 12)),
           h=st.builds(F, st.integers(-90, 90), st.integers(1, 12)),
           scale=_rationals)
    def test_shift_and_square_scaling(self, k, a, b, c, h, scale):
        try:
            params = QuarticParams(k=k, a=a, b=b, c=c)
        except ValueError:
            assume(False)
        q = params.quartic()
        moved = shift(q, h)
        assert quartic_normal_form(moved) == quartic_normal_form(q)
        base, shifted = quartic_eta(q), quartic_eta(moved)
        assert (shifted.value, shifted.certificate.kind) == \
            (base.value, base.certificate.kind)
        spec = curves.HyperellipticSpec(poly_mul(moved, scale * scale))
        scaled = eta_full(spec, hyperelliptic_invariants(spec)).eta
        assert (scaled.value, scaled.certificate.kind) == \
            (base.value, base.certificate.kind)

    def test_real_rescaling_of_sampler_draws(self):
        """Q = a sampler draw moved by x -> x + h: eta of y^2 = l*Q is
        quartic_eta(Q) for every l > 0, a rational square or not, and so is
        eta over C of the twin y^2 = -l*Q.  On each draw the order of p
        (None for eta 0) is also the Pell oracle's order of Q."""
        scales = (2, 3, 5, 6, 7, F(1, 2), F(2, 3))
        rng = random.Random(4243)
        seen = set()
        for k in (0, 2, 4):
            for pin in (None, "b=0", "a=c"):
                box = SampleBox(k=k, pin=pin)
                for l in scales:
                    params = draw_params(rng, box)
                    q = shift(params.quartic(), F(rng.randint(-9, 9), rng.randint(1, 4)))
                    base = quartic_eta(q)
                    spec = curves.HyperellipticSpec(poly_mul(q, l))
                    scaled = eta_full(spec, hyperelliptic_invariants(spec)).eta
                    assert scaled == base, (params, l)
                    twin = curves.HyperellipticSpec(poly_mul(q, -l))
                    assert eta_full(twin, hyperelliptic_invariants(twin)).eta_complex \
                        == base, (params, l)
                    order = pell_torsion_order(q)
                    seen.add(order)
                    assert order == scaled.certificate.order, (params, l)
        assert {None, 2} <= seen


class TestPellOracle:
    """`oracles.pell_torsion_order`, which reads the order of p off the
    least degree of a unit f + g*y, against orders known by construction."""

    @staticmethod
    def moved(params, rng):
        return shift(params.quartic(), F(rng.randint(-20, 20), rng.randint(1, 6)))

    def test_order_two_on_the_coincidence_loci(self):
        # b = 0 makes p = p1; a = c makes p = (0, 0), which for k = 0 and
        # k = 4 is the 2-torsion point p2
        rng = random.Random(4253)
        boxes = [SampleBox(k=k, pin="b=0") for k in (0, 2, 4)] + \
                [SampleBox(k=k, pin="a=c") for k in (0, 4)]
        for box in boxes:
            for _ in range(6):
                assert pell_torsion_order(self.moved(draw_params(rng, box), rng)) == 2

    def test_k2_three_torsion_family(self):
        for a, c in ((F(1), F(1)), (F(2), F(3)), (F(5), F(2)), (F(1), F(6))):
            params = QuarticParams(k=2, a=a, b=(a * a + c * c) / (4 * c), c=c)
            assert pell_torsion_order(params.quartic()) == 3

    def test_double_coincidences_have_order_four(self):
        for params in (QuarticParams(k=0, a=F(8), b=F(15, 4), c=F(2)),
                       QuarticParams(k=2, a=F(1), b=F(5, 4), c=F(3)),
                       QuarticParams(k=0, a=F(1), b=F(20, 3), c=F(9))):
            assert pell_torsion_order(params.quartic()) == 4

    def test_k4_order_three_point(self):
        # (x+1)(x+11)(x-5)(x-7): f = -x^3-7x^2+49x+199, g = x+7 has norm
        # 20736
        q = QuarticParams(k=4, a=F(5), b=F(6), c=F(1)).quartic()
        assert pell_torsion_order(q) == 3
        assert pell_torsion_order(UniPoly([385, -288, -98, 0, 1])) == 3

    def test_census_of_small_params(self):
        """Every normal-form parameter with k in {0, 2, 4}, 1 <= a, c <= 5
        and |b| <= 6 that QuarticParams accepts: quartic_eta's eta and
        order are the Pell oracle's, with no case forgiven.  The box holds
        the k = 4 points of order 3, (a, b, c) = (1, +-6, 5) and (5, +-6, 1)."""
        census = []
        for k in (0, 2, 4):
            for a in range(1, 6):
                for b in range(-6, 7):
                    for c in range(1, 6):
                        try:
                            census.append(QuarticParams(k, a, b, c))
                        except ValueError:
                            continue
        assert len(census) == 923
        for params in census:
            q = params.quartic()
            order = pell_torsion_order(q)
            res = quartic_eta(q)
            assert (res.value, res.certificate.order) == \
                (0 if order is None else 1, order), params

    def test_census_of_small_monic_quartics(self):
        """Every monic x^4 + a3 x^3 + a2 x^2 + a1 x + a0 with |a_i| <= 5:
        the 64 square-free ones with a rational normal form get the Pell
        oracle's eta and order.  The other square-free ones stay
        undetermined; their count is pinned, and falls once quartics with
        no normal form are decided."""
        tally = Counter()
        for a3, a2, a1, a0 in itertools.product(range(-5, 6), repeat=4):
            q = UniPoly([a0, a1, a2, a3, 1])
            try:
                res = quartic_eta(q)
            except ValueError:  # not square-free
                tally["not square-free"] += 1
                continue
            if res.value is None:
                tally["undetermined"] += 1
                continue
            order = pell_torsion_order(q)
            assert (res.value, res.certificate.order) == \
                (0 if order is None else 1, order), q
            tally[order] += 1
        assert tally == {"not square-free": 215, "undetermined": 14362,
                         None: 50, 2: 10, 3: 4}

    def test_non_torsion_and_no_normal_form(self):
        assert pell_torsion_order(QuarticParams(k=0, a=1, b=1, c=2).quartic()) is None
        assert pell_torsion_order(UniPoly([1, 1, 0, 0, 1])) is None  # x^4 + x + 1
        assert pell_torsion_order(UniPoly([1, 0, 0, 0, 1])) == 2  # x^4 + 1
        with pytest.raises(ValueError):
            pell_torsion_order(UniPoly([2, 0, 0, 0, 2]))


class TestModelBuilder:
    def test_k0_with_b_zero_makes_p_two_torsion(self):
        model = build_quartic_model(QuarticParams(k=0, a=F(1), b=F(0), c=F(2)))
        assert model.p == model.two_torsion["p1"]
        assert model.p.v == 0 and model.p.u == 0

    def test_k4_with_equal_parameters_marks_p3(self):
        params = QuarticParams(k=4, a=F(1), b=F(2), c=F(1))
        model = build_quartic_model(params)
        assert model.p == model.two_torsion["p3"]
        stats = SearchStats()
        eta_from_params(params, stats=stats)
        assert stats.case_list[0] == "p = p3" == f"p = {neutral_two_torsion(params)}"

    def test_k2_marked_points_on_curve(self):
        model = build_quartic_model(QuarticParams(k=2, a=F(1), b=F(1), c=F(1)))
        # u^2 = (v+4)(v^2+4)
        assert model.p.v == 0 and model.p.u == 4
        assert model.two_torsion["p1"].v == -4
        assert model.curve.contains(model.p)
        assert model.curve.contains(model.two_torsion["p1"])

    def test_all_marked_points_verified(self):
        rng = random.Random(61)
        for _ in range(50):
            k = rng.choice((0, 2, 4))
            a, b, c = rng.randint(1, 9), rng.randint(-9, 9), rng.randint(1, 9)
            try:
                params = QuarticParams(k=k, a=F(a), b=F(b), c=F(c))
                model = build_quartic_model(params)
            except ValueError:
                continue
            for pt in [model.p, *model.two_torsion.values()]:
                assert model.curve.contains(pt)

    def test_matches_fraction_oracle(self):
        # sampler draws from every box, the same draws over a common
        # denominator t, and the normal forms of shifted sampler quartics
        rng = random.Random(89)
        params = []
        for k in (0, 2, 4):
            for pin in (None, "b=0", "a=c"):
                box = SampleBox(k=k, pin=pin)
                for _ in range(170):
                    drawn = draw_params(rng, box)
                    t = rng.randint(2, 9)
                    params += [drawn, QuarticParams(k, F(drawn.a, t), F(drawn.b, t),
                                                    F(drawn.c, t))]
                for _ in range(40):
                    h = F(rng.randint(-30, 30), rng.randint(1, 7))
                    params.append(quartic_normal_form(
                        shift(draw_params(rng, box).quartic(), h)))
        assert len(params) >= 3000
        for param in params:
            model, oracle = build_quartic_model(param), fraction_build_quartic_model(param)
            assert model == oracle
            assert repr(model) == repr(oracle)

    def test_j_invariant_matches_the_quartic(self):
        # the model's j against j from the quartic's invariants I and J,
        # which also holds for the quartic moved by x -> l*x + h and scaled
        # by mu, and for the model of that quartic's normal form
        rng = random.Random(97)
        for k in (0, 2, 4):
            for pin in (None, "b=0", "a=c"):
                box = SampleBox(k=k, pin=pin)
                for _ in range(100 if pin is None else 20):
                    params = draw_params(rng, box)
                    q = params.quartic()
                    j = weierstrass_j_invariant(build_quartic_model(params).curve)
                    assert j == quartic_j_invariant(q), params
                    h = F(rng.randint(-9, 9), rng.randint(1, 5))
                    l = F(rng.randint(1, 9), rng.randint(1, 9))
                    mu = F(rng.choice((1, -1)) * rng.randint(1, 9), rng.randint(1, 9))
                    moved = shift(q, h)
                    moved = UniPoly([mu * c * l ** i for i, c in enumerate(moved.coeffs)])
                    assert quartic_j_invariant(moved) == j, (params, h, l, mu)
                    nf = quartic_normal_form(shift(q, h))
                    assert weierstrass_j_invariant(build_quartic_model(nf).curve) == j

    def test_inexact_parameters_rejected(self):
        with pytest.raises(TypeError):
            build_quartic_model(QuarticParams(k=0, a=0.5, b=F(1), c=F(2)))

    @pytest.mark.parametrize("a, b, c", [(0.5, 1, 2), (1, 0.5, 2), (1, 1, 2.0),
                                         ("1/2", 1, 2), (None, 1, 2)])
    def test_constructor_rejects_non_rational_parameters(self, a, b, c):
        with pytest.raises(TypeError):
            QuarticParams(0, a, b, c)

    def test_integer_form_matches_parameters(self):
        # equal params over ints and Fractions share one integer form
        for args in ((4, 7, -3, 5), (0, F(1, 2), F(1, 3), F(3, 2)),
                     (2, 6, F(5, 4), 1), (4, F(10, 2), 0, F(3))):
            params = QuarticParams(*args)
            den, big_a, big_b, big_c = params._integral
            assert (F(big_a, den), F(big_b, den), F(big_c, den)) == args[1:]
            assert den == lcm(*(F(x).denominator for x in args[1:]))
            assert params == QuarticParams(args[0], *map(F, args[1:]))
            assert params.quartic() == fraction_normal_form_quartic(params)

    def test_neutral_component_flips_with_inequality(self):
        # the k = 4 label is the largest root: p3 = -(c-a)^2 when
        # 4b^2 > (c-a)^2, else p1 = -4b^2
        for params, target in ((QuarticParams(k=4, a=F(1), b=F(5), c=F(2)), "p3"),  # 100 > 1
                               (QuarticParams(k=4, a=F(1), b=F(1), c=F(8)), "p1")):  # 4 < 49
            stats = SearchStats()
            eta_from_params(params, stats=stats)
            assert stats.case_list == tuple(f"{n}p = {target}" for n in ("", 2, 3, 4))
            assert neutral_two_torsion(params) == target


class TestQuarticEta:
    def test_b_zero_certificate(self):
        res = quartic_eta(UniPoly([4, 0, 5, 0, 1]))
        assert res.value == 1
        assert res.certificate.relation == "p = p1"
        assert res.certificate.order == 2

    def test_equal_parameters_certificate(self):
        res = quartic_eta(UniPoly([9, 0, -10, 0, 1]))
        assert res.value == 1
        assert res.certificate.relation == "p = p3"
        assert res.certificate.order == 2

    def test_double_coincidence_certificate(self):
        # b solved from b^2 = (c^2-a^2)^2 / (16 a c) with a=8, c=2
        params = QuarticParams(k=0, a=F(8), b=F(15, 4), c=F(2))
        assert params.b ** 2 == (params.c ** 2 - params.a ** 2) ** 2 / (16 * params.a * params.c)
        res = quartic_eta(params.quartic())
        assert res.value == 1
        assert res.certificate.relation == "2p = p3"
        assert res.certificate.order == 4

    def test_k2_double_coincidence(self):
        # b^2 = (a^2+c^2)^2 / (8(c^2-a^2)) with a=1, c=3
        params = QuarticParams(k=2, a=F(1), b=F(5, 4), c=F(3))
        res = quartic_eta(params.quartic())
        assert res.value == 1
        assert res.certificate.relation == "2p = p1"
        assert res.certificate.order == 4

    def test_second_double_coincidence_instance(self):
        params = QuarticParams(k=0, a=F(1), b=F(20, 3), c=F(9))
        res = quartic_eta(params.quartic())
        assert (res.value, res.certificate.relation) == (1, "2p = p3")

    def test_k2_three_torsion_family(self):
        # b = (a^2+c^2)/(4c) puts the boundary class at order 3, hitting
        # the "2p = -p" branch of the k=2 case list
        for a, c in ((F(1), F(1)), (F(2), F(3)), (F(5), F(2)), (F(1), F(6))):
            b = (a * a + c * c) / (4 * c)
            params = QuarticParams(k=2, a=a, b=b, c=c)
            model = build_quartic_model(params)
            assert multiple(model.curve, 3, model.p).is_infinity
            res = quartic_eta(params.quartic())
            assert (res.value, res.certificate.relation) == (1, "2p = -p")
            assert res.certificate.order == 3

    def test_k4_odd_order_point_exhausts_case_list(self):
        # (a,b,c) = (5,6,1) gives y^2 = (x+1)(x+11)(x-5)(x-7), where the
        # boundary class has order 3: div(-x^3-7x^2+49x+199+(x+7)y) works
        # out to 3*P1 - 3*P2 (its norm is the constant 20736).  The walk
        # finds 2p = -p at 2p, which is fifth after the four np = p3
        # relations of the k = 4 list
        params = QuarticParams(k=4, a=F(5), b=F(6), c=F(1))
        model = build_quartic_model(params)
        from realcurves import torsion_order_bounded
        assert torsion_order_bounded(model.curve, model.p, 12) == 3
        stats = SearchStats()
        res = eta_from_params(params, stats=stats)
        assert (res.value, res.certificate.kind) == (1, TORSION_COINCIDENCE)
        assert (res.certificate.relation, res.certificate.order) == ("2p = -p", 3)
        assert stats.case_list == ("p = p3", "2p = p3", "3p = p3", "4p = p3")
        assert stats.relations_checked == 5

    def test_known1_reverified_through_group_law(self):
        for params in (QuarticParams(k=0, a=F(8), b=F(15, 4), c=F(2)),
                       QuarticParams(k=2, a=F(1), b=F(5, 4), c=F(3))):
            model = build_quartic_model(params)
            res = eta_from_params(params)
            assert res.value == 1
            n_str, target = res.certificate.relation.split("p = ")
            n = int(n_str) if n_str else 1
            goal = -model.p if target == "-p" else model.two_torsion[target]
            assert multiple(model.curve, n, model.p) == goal

    def test_known1_order_and_relation_match_stepwise_oracle(self):
        """Every eta = 1 answer: the order is the oracle's stepwise order
        of p and `chord_add` reproduces the relation, for orders 2, 3 and
        4, k = 4 with p of order 3 included.  The other direction, eta = 0
        against an order of the Pell oracle, is the census in
        `TestPellOracle`."""
        rng = random.Random(101)
        params = [QuarticParams(2, 2, -1, 2),  # 2p = -p
                  quartic_normal_form(UniPoly([4, 0, 5, 0, 1])),
                  quartic_normal_form(UniPoly([9, 0, -10, 0, 1])),
                  QuarticParams(k=0, a=F(8), b=F(15, 4), c=F(2)),
                  QuarticParams(k=2, a=F(1), b=F(5, 4), c=F(3)),
                  QuarticParams(k=0, a=F(1), b=F(20, 3), c=F(9)),
                  QuarticParams(k=4, a=F(5), b=F(6), c=F(1))]  # 2p = -p
        params += [QuarticParams(k=2, a=a, b=(a * a + c * c) / (4 * c), c=c)
                   for a, c in ((F(1), F(1)), (F(2), F(3)), (F(5), F(2)), (F(1), F(6)))]
        for k in (0, 2, 4):
            for pin, draws in ((None, 60), ("b=0", 20), ("a=c", 20)):
                box = SampleBox(k=k, pin=pin)
                params += [draw_params(rng, box) for _ in range(draws)]
        orders = set()
        for param in params:
            res = eta_from_params(param)
            if res.value != 1:
                continue
            model = build_quartic_model(param)
            assert res.certificate.order == \
                stepwise_torsion_order(model.curve, model.p, 12), param
            n_str, target = res.certificate.relation.split("p = ")
            acc = INFINITY
            for _ in range(int(n_str) if n_str else 1):
                acc = chord_add(model.curve, acc, model.p)
            assert acc == (-model.p if target == "-p" else model.two_torsion[target])
            orders.add(res.certificate.order)
        assert orders == {2, 3, 4}

    def test_known0_lists_all_cases_and_they_all_fail(self):
        params = QuarticParams(k=0, a=F(1), b=F(1), c=F(2))
        model = build_quartic_model(params)
        res = eta_from_params(params)
        assert res.value == 0
        cases = res.certificate.cases_checked
        assert cases == ("p = p1", "p = p2", "2p = p3",
                         "3p = p1", "3p = p2", "4p = p3")
        for relation in cases:
            n_str, target = relation.split("p = ")
            n = int(n_str) if n_str else 1
            goal = -model.p if target == "-p" else model.two_torsion[target]
            assert multiple(model.curve, n, model.p) != goal

    def test_k2_search_matches_literal_relation_check(self):
        """The k = 2 walk computes nothing beyond 6p; a literal check of
        the ten relations, in list order, on multiples up to 8p built with
        `chord_add` must give the same eta, relation, order and
        cases_checked."""
        relations = [(n, "p1") for n in range(1, 7)] + [(2 * n, "-p") for n in range(1, 5)]
        labels = tuple(f"{'' if n == 1 else n}p = {target}" for n, target in relations)
        rng = random.Random(211)
        params = [QuarticParams(2, 2, -1, 2),
                  QuarticParams(k=2, a=F(1), b=F(5, 4), c=F(3))]
        params += [QuarticParams(k=2, a=a, b=(a * a + c * c) / (4 * c), c=c)
                   for a, c in ((F(1), F(1)), (F(2), F(3)), (F(5), F(2)), (F(1), F(6)))]
        for pin, draws in ((None, 60), ("b=0", 20), ("a=c", 20)):
            box = SampleBox(k=2, pin=pin)
            params += [draw_params(rng, box) for _ in range(draws)]
        seen = set()
        for param in params:
            model = build_quartic_model(param)
            multiples = [INFINITY]
            while len(multiples) <= 8:
                multiples.append(chord_add(model.curve, multiples[-1], model.p))
            expected = (0, None, None, labels)
            for (n, target), label in zip(relations, labels):
                goal = -model.p if target == "-p" else model.two_torsion[target]
                if multiples[n] == goal:
                    expected = (1, label, stepwise_torsion_order(model.curve, model.p, 12),
                                None)
                    break
            res = eta_from_params(param)
            cert = res.certificate
            assert (res.value, cert.relation, cert.order, cert.cases_checked) == \
                expected, param
            seen.add(expected[1])
        assert {None, "p = p1", "2p = p1", "2p = -p"} <= seen

    def test_labels_and_orders_of_raw_draws(self):
        """3060 sampler draws, 340 of each k and pin, decided on their
        params: eta and the order are the stepwise oracle's, an exhausted
        search lists k's relations, and the k = 4 label is the 2-torsion
        point of the old rule, p3 when 4b^2 > (c-a)^2, else p1.  The
        draws include k = 4 ones whose label is p1: exhausted generic
        ones and all of b = 0, where p = p1."""
        lists = {0: ("p = p1", "p = p2", "2p = p3", "3p = p1", "3p = p2", "4p = p3"),
                 2: tuple(f"{'' if n == 1 else n}p = p1" for n in range(1, 7))
                 + ("2p = -p", "4p = -p", "6p = -p", "8p = -p")}
        rng = random.Random(5003)
        tally = Counter()
        for k in (0, 2, 4):
            for pin in (None, "b=0", "a=c"):
                box = SampleBox(k=k, pin=pin)
                for _ in range(340):
                    params = draw_params(rng, box)
                    stats = SearchStats()
                    res = eta_from_params(params, stats=stats)
                    model = build_quartic_model(params)
                    order = stepwise_torsion_order(model.curve, model.p, 12)
                    cert = res.certificate
                    assert (res.value, cert.order) == \
                        (0 if order is None else 1, order), params
                    label = neutral_two_torsion(params) if k == 4 else None
                    expected = lists.get(k) or tuple(
                        f"{'' if n == 1 else n}p = {label}" for n in range(1, 5))
                    assert stats.case_list == expected, params
                    if res.value == 0:
                        assert cert.cases_checked == expected
                        assert stats.relations_checked == len(expected)
                        assert stats.max_multiple == {0: 4, 2: 6, 4: 4}[k]
                    else:
                        assert cert.relation in expected + ("2p = -p",) * (k == 4)
                        assert stats.max_multiple == (order + 1) // 2
                    tally[k, pin, cert.relation, label] += 1
        assert tally == {
            (0, None, None, None): 340, (0, "b=0", "p = p1", None): 340,
            (0, "a=c", "p = p2", None): 340,
            (2, None, None, None): 340, (2, "b=0", "p = p1", None): 340,
            (2, "a=c", None, None): 334, (2, "a=c", "p = p1", None): 2,
            (2, "a=c", "2p = -p", None): 4,
            (4, None, None, "p1"): 51, (4, None, None, "p3"): 289,
            (4, "b=0", "p = p1", "p1"): 340, (4, "a=c", "p = p3", "p3"): 340}

    @pytest.mark.parametrize("params, adds, outcome", [
        (QuarticParams(0, 5, 2, 9), 3, (0, None, None)),
        (QuarticParams(2, 1, 5, 4), 5, (0, None, None)),
        (QuarticParams(4, 1, -4, 2), 3, (0, None, None)),
        (QuarticParams(0, 1, 0, 2), 0, (1, "p = p1", 2)),
        (QuarticParams(k=4, a=F(5), b=F(6), c=F(1)), 1, (1, "2p = -p", 3)),
        (QuarticParams(k=0, a=F(8), b=F(15, 4), c=F(2)), 1, (1, "2p = p3", 4)),
        (QuarticParams(2, 1, F(5, 4), 3), 1, (1, "2p = p1", 4))],
        ids=("k0-exhausted", "k2-exhausted", "k4-exhausted", "order-2", "order-3",
             "k0-order-4", "k2-order-4"))
    def test_walk_stops_at_half_the_order(self, monkeypatch, params, adds, outcome):
        # an exhausted walk adds p up to 4p, 6p or 4p; a torsion point of
        # order N is decided at ceil(N/2) p, with no step past it
        calls = []
        monkeypatch.setattr(eta_module, "_add",
                            lambda curve, p, q, add=eta_module._add:
                            calls.append(q) or add(curve, p, q))
        res = eta_from_params(params)
        assert (res.value, res.certificate.relation, res.certificate.order) == outcome
        assert len(calls) == adds

    def test_case_list_sizes_and_multiple_bounds(self):
        expected = {0: (6, 4), 2: (10, 6), 4: (4, 4)}
        rng = random.Random(67)
        seen = {0: 0, 2: 0, 4: 0}
        while min(seen.values()) < 10:
            k = rng.choice((0, 2, 4))
            a, b, c = rng.randint(1, 30), rng.randint(1, 30), rng.randint(1, 30)
            try:
                params = QuarticParams(k=k, a=F(a), b=F(b), c=F(c))
                stats = SearchStats()
                res = eta_from_params(params, stats=stats)
            except ValueError:
                continue
            size, max_mult = expected[k]
            assert len(stats.case_list) == size
            assert stats.max_multiple <= max_mult
            if res.value == 0:
                assert stats.relations_checked == size
            seen[k] += 1

    def test_eta_bounded_by_boundary_points(self):
        rng = random.Random(71)
        for _ in range(30):
            a, b, c = rng.randint(1, 20), rng.randint(1, 20), rng.randint(1, 20)
            k = rng.choice((0, 2, 4))
            try:
                params = QuarticParams(k=k, a=F(a), b=F(b), c=F(c))
            except ValueError:
                continue
            res = eta_from_params(params)
            assert res.value in (0, 1)  # r + c - 1 = 1 here


class TestEtaFull:
    def test_positive_quartic(self):
        spec, inv = hyp("y^2 = (x^2-1)*(x^2-9)")
        analysis = eta_full(spec, inv)
        assert analysis.eta.value == 1
        assert analysis.eta_complex.value == 1  # only real points at infinity

    def test_negative_quartic_reports_twin(self):
        spec, inv = hyp("y^2 = -(x^2+1)*(x^2+4)")
        analysis = eta_full(spec, inv)
        assert analysis.eta.value == 0
        assert analysis.eta.certificate.kind == RULE_ONE_POINT_AT_INFINITY
        assert analysis.eta_complex.value == 1
        assert analysis.eta_complex.certificate.relation == "p = p1"

    def test_high_genus_undetermined(self):
        spec, inv = hyp("y^2 = x^6 - 2")
        analysis = eta_full(spec, inv)
        assert analysis.eta.value is None
        assert analysis.eta.certificate.kind == GENUS_TOO_HIGH

    def test_irreducible_quartic_undetermined(self):
        spec, inv = hyp("y^2 = x^4 + x + 1")
        analysis = eta_full(spec, inv)
        assert analysis.eta.value is None
        assert analysis.eta.certificate.kind == NON_RATIONAL_FACTORIZATION

    def test_non_monic_quartic_undetermined(self):
        spec, inv = hyp("y^2 = 2*x^4 + 2")
        analysis = eta_full(spec, inv)
        assert analysis.eta.value is None
        assert analysis.eta.certificate.kind == NON_RATIONAL_FACTORIZATION

    def test_negative_sextic_twin_undetermined(self):
        spec, inv = hyp("y^2 = -(x^6+1)")
        analysis = eta_full(spec, inv)
        assert analysis.eta.value == 0
        assert analysis.eta_complex.value is None
        assert analysis.eta_complex.certificate.kind == GENUS_TOO_HIGH

    def test_twin_transfer_matches_direct_computation(self):
        rng = random.Random(73)
        for _ in range(25):
            k = rng.choice((0, 2, 4))
            a, b, c = rng.randint(1, 15), rng.randint(1, 15), rng.randint(1, 15)
            try:
                params = QuarticParams(k=k, a=F(a), b=F(b), c=F(c))
            except ValueError:
                continue
            q = params.quartic()
            direct = quartic_eta(q)
            from realcurves.curves import HyperellipticSpec
            twin_spec = HyperellipticSpec(-q)
            analysis = eta_full(twin_spec, hyperelliptic_invariants(twin_spec))
            assert analysis.eta.value == 0
            assert analysis.eta_complex.value == direct.value
            assert analysis.eta_complex.certificate == direct.certificate


class TestLevelBounds:
    def test_real_points_infinite(self):
        spec, inv = hyp("y^2 = x^3 - x")
        analysis = eta_full(spec, inv)
        assert level_bounds(inv, analysis.eta_complex).value == "infinite"

    def test_twin_zero_pins_level_three(self):
        # twin quartic (x+1)^2+1)((x-1)^2+4) exhausts its torsion list
        base = QuarticParams(k=0, a=F(1), b=F(1), c=F(2))
        assert quartic_eta(base.quartic()).value == 0
        from realcurves.curves import HyperellipticSpec
        spec = HyperellipticSpec(-base.quartic())
        inv = hyperelliptic_invariants(spec)
        analysis = eta_full(spec, inv)
        report = level_bounds(inv, analysis.eta_complex)
        assert report.value == "3"

    def test_twin_one_leaves_level_open(self):
        spec, inv = hyp("y^2 = -(x^2+1)*(x^2+4)")
        analysis = eta_full(spec, inv)
        assert level_bounds(inv, analysis.eta_complex).value == "2 or 3"

    def test_undetermined_twin_leaves_level_open(self):
        spec, inv = hyp("y^2 = -(x^4+1)")
        analysis = eta_full(spec, inv)
        assert analysis.eta_complex.certificate.kind == NON_RATIONAL_FACTORIZATION
        assert level_bounds(inv, analysis.eta_complex).value == "2 or 3"

    def test_disconnected_curve_has_level_one(self):
        spec = parse_curve("x^2 + 1 = 0")
        inv = classify_conic(spec).invariants
        assert level_bounds(inv, eta_full(spec, inv).eta_complex).value == "1"


class TestSquareLeadingQuartics:
    """y^2 = l*Q0 with l > 0 is y^2 = Q0 after y -> y/sqrt(l), an
    isomorphism over R whether or not l is the square of a rational."""

    def test_scaled_quartics_match_monic(self):
        monic = eta_full(*hyp("y^2 = x^4 - 1")).eta
        assert (monic.value, monic.certificate.relation) == (1, "p = p1")
        for expr in ("y^2 = 4*x^4 - 4", "y^2 = 1/4*x^4 - 1/4"):
            assert eta_full(*hyp(expr)).eta == monic

    def test_scaled_negative_twin(self):
        analysis = eta_full(*hyp("y^2 = -4*x^4 + 4"))
        assert analysis.eta.value == 0
        assert analysis.eta_complex.value == 1
        assert analysis.eta_complex == eta_full(*hyp("y^2 = -x^4 + 1")).eta_complex

    def test_non_square_leading_runs_the_rescaled_quartic(self):
        direct = eta_full(*hyp("y^2 = 2*x^4 - 2")).eta
        cert = direct.certificate
        assert (direct.value, cert.relation, cert.order) == (1, "p = p1", 2)
        assert direct == eta_full(*hyp("y^2 = x^4 - 1")).eta
        twin = eta_full(*hyp("y^2 = -3*x^4 + 3"))
        assert twin.eta.certificate.kind == RULE_ONE_POINT_AT_INFINITY
        assert twin.eta_complex == direct
        assert twin.eta_complex == eta_full(*hyp("y^2 = -x^4 + 1")).eta_complex
        # x^4 + 1, the monic quartic of 2*x^4 + 2, has no rational normal form
        assert quartic_normal_form(UniPoly([1, 0, 0, 0, 1])) is None
        res = eta_full(*hyp("y^2 = 2*x^4 + 2")).eta
        assert (res.value, res.certificate.kind) == (None, NON_RATIONAL_FACTORIZATION)


class TestEachFactOnce:
    """Square-freeness and k of Q are computed once per curve; the
    normal form decides square-freeness from its resolvent's
    discriminant, with no gcd.  Curve membership is checked once per
    marked point, plus one self-check on the highest multiple of p that
    the search computed, whether it ends in a coincidence or exhausts
    the case list."""

    @staticmethod
    def count_calls(monkeypatch, *names):
        calls = {}
        for name in names:
            original = getattr(polys, name)
            seen = calls[name] = []

            def counted(p, *rest, _original=original, _seen=seen):
                _seen.append(p)
                return _original(p, *rest)

            for module in (polys, curves, eta_module):
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counted)
        return calls

    def test_full_report_on_monic_quartic(self, monkeypatch):
        calls = self.count_calls(monkeypatch, "is_square_free",
                                 "count_real_roots", "sturm_sequence")
        spec = parse_curve("y^2 = (x^2-1)*(x^2-9)")
        report = full_report(spec)
        assert report["eta"]["certificate"]["relation"] == "p = p3"
        assert len(calls["is_square_free"]) == 0
        assert len(calls["count_real_roots"]) == 1
        assert sum(p == spec.q for p in calls["sturm_sequence"]) == 1

    def test_one_sample_draw(self, monkeypatch):
        calls = self.count_calls(monkeypatch, "is_square_free", "count_real_roots",
                                 "poly_gcd")
        run_sample(1, 1, SampleBox())
        assert len(calls["is_square_free"]) == 0
        assert len(calls["count_real_roots"]) == 0
        assert len(calls["poly_gcd"]) == 0

    def test_undetermined_quartic_leaves_k_unset(self, monkeypatch):
        # no normal form, so no k: the search never runs
        calls = self.count_calls(monkeypatch, "count_real_roots", "sturm_sequence")
        searched = []
        monkeypatch.setattr(eta_module, "eta_from_params",
                            lambda *args, **kwargs: searched.append(args))
        result = quartic_eta(UniPoly([1, 1, 0, 0, 1]))  # x^4 + x + 1
        assert result.certificate.kind == NON_RATIONAL_FACTORIZATION
        assert searched == []
        assert calls == {"count_real_roots": [], "sturm_sequence": []}

    @staticmethod
    def count_membership_checks(monkeypatch):
        calls = {"require": 0, "contains": 0}
        for name in calls:
            def counted(curve, point, _original=getattr(WeierstrassCurve, name),
                        _name=name):
                calls[_name] += 1
                return _original(curve, point)

            monkeypatch.setattr(WeierstrassCurve, name, counted)
        return calls

    @pytest.mark.parametrize("k, a, b, c, marked", [
        (0, 5, 2, 9, 4), (2, 1, 5, 4, 2), (4, 1, -4, 2, 4)])
    def test_exhausted_search_checks_membership_once(self, monkeypatch,
                                                     k, a, b, c, marked):
        calls = self.count_membership_checks(monkeypatch)
        result = eta_from_params(QuarticParams(k=k, a=a, b=b, c=c))
        assert result.certificate.kind == TORSION_EXHAUSTED
        assert calls == {"require": marked, "contains": 1}

    @pytest.mark.parametrize("k, a, b, c, marked", [
        (0, 1, 0, 2, 4), (2, 1, 0, 2, 2), (4, 1, 0, 2, 4)])
    def test_coincidence_checks_membership_once(self, monkeypatch,
                                                k, a, b, c, marked):
        calls = self.count_membership_checks(monkeypatch)
        result = eta_from_params(QuarticParams(k=k, a=a, b=b, c=c))
        cert = result.certificate
        assert (result.value, cert.relation, cert.order) == (1, "p = p1", 2)
        assert calls == {"require": marked, "contains": 1}

    def test_normal_form_k_matches_sturm_count(self):
        rng = random.Random(83)
        for pin in (None, "b=0", "a=c"):
            box = SampleBox(pin=pin)
            for _ in range(40):
                params = draw_params(rng, box)
                h = F(rng.randint(-30, 30), rng.randint(1, 7))
                q = shift(params.quartic(), h)
                found = quartic_normal_form(q)
                assert found is not None
                assert found.k == params.k == count_real_roots(q)

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from realcurves import (QuarticParams, SearchStats, UniPoly,
                        build_quartic_model, classify_conic, count_real_roots,
                        curves, eta_closed_rules, eta_from_params, eta_full,
                        full_report, hyperelliptic_invariants, level_bounds,
                        multiple, parse_curve, polys, quartic_eta,
                        quartic_normal_form)
from realcurves import eta as eta_module
from realcurves.eta import (GENUS_TOO_HIGH, NON_RATIONAL_FACTORIZATION,
                            RULE_CONIC_TABLE, RULE_ONE_POINT_AT_INFINITY)
from realcurves.sampling import SampleBox, draw_params, run_sample

from oracles import (fraction_normal_form_quartic, fraction_quartic_normal_form,
                     has_rational_quadratic_split, shift)


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

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            quartic_normal_form(UniPoly([1, 0, 0, 1]))  # degree 3
        with pytest.raises(ValueError):
            quartic_normal_form(UniPoly([4, 0, 5, 0, 2]))  # non-monic
        with pytest.raises(ValueError):
            quartic_normal_form(UniPoly([1, -2, 1]) * UniPoly([1, 2, 1]))


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
                q = q * UniPoly([-r, 1])
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
            assert self.assert_same(quad * quad) == \
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
        spec = curves.HyperellipticSpec(moved * (scale * scale))
        scaled = eta_full(spec, hyperelliptic_invariants(spec)).eta
        assert (scaled.value, scaled.certificate.kind) == \
            (base.value, base.certificate.kind)


class TestModelBuilder:
    def test_k0_with_b_zero_makes_p_two_torsion(self):
        model = build_quartic_model(QuarticParams(k=0, a=F(1), b=F(0), c=F(2)))
        assert model.p == model.two_torsion["p1"]
        assert model.p.v == 0 and model.p.u == 0

    def test_k4_with_equal_parameters_marks_p3(self):
        model = build_quartic_model(QuarticParams(k=4, a=F(1), b=F(2), c=F(1)))
        assert model.p == model.two_torsion["p3"]
        assert model.neutral_two_torsion == "p3"

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

    def test_neutral_component_flips_with_inequality(self):
        wide = build_quartic_model(QuarticParams(k=4, a=F(1), b=F(5), c=F(2)))
        assert wide.neutral_two_torsion == "p3"  # 4b^2 = 100 > 1
        narrow = build_quartic_model(QuarticParams(k=4, a=F(1), b=F(1), c=F(8)))
        assert narrow.neutral_two_torsion == "p1"  # 4 < 49


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
        # b^2 = (a^2+c^2)^2 / (8(a^2-c^2)) with a=3, c=1
        params = QuarticParams(k=2, a=F(3), b=F(5, 4), c=F(1))
        res = quartic_eta(params.quartic())
        assert res.value == 1
        assert res.certificate.relation == "2p = p1"
        assert res.certificate.order == 4

    def test_second_double_coincidence_instance(self):
        params = QuarticParams(k=0, a=F(1), b=F(20, 3), c=F(9))
        res = quartic_eta(params.quartic())
        assert (res.value, res.certificate.relation) == (1, "2p = p3")

    def test_k2_three_torsion_family(self):
        # b = (a^2+c^2)/(4a) puts the boundary class at order 3, hitting
        # the "2p = -p" branch of the k=2 case list
        for a, c in ((F(1), F(1)), (F(2), F(3)), (F(5), F(2)), (F(1), F(6))):
            b = (a * a + c * c) / (4 * a)
            params = QuarticParams(k=2, a=a, b=b, c=c)
            model = build_quartic_model(params)
            assert multiple(model.curve, 3, model.p).is_infinity
            res = quartic_eta(params.quartic())
            assert (res.value, res.certificate.relation) == (1, "2p = -p")
            assert res.certificate.order == 3

    def test_k4_odd_order_point_exhausts_case_list(self):
        # (a,b,c) = (5,6,1) gives y^2 = (x+1)(x+11)(x-5)(x-7), where the
        # boundary class has order 3: div(-x^3-7x^2+49x+199+(x+7)y) works
        # out to 3*P1 - 3*P2 (its norm is the constant 20736).  The k=4
        # search contract checks the four np = p3 relations and nothing
        # else, so an odd-order marked point exhausts the list.
        params = QuarticParams(k=4, a=F(5), b=F(6), c=F(1))
        model = build_quartic_model(params)
        from realcurves import torsion_order_bounded
        assert torsion_order_bounded(model.curve, model.p, 12) == 3
        res = quartic_eta(params.quartic())
        assert res.value == 0
        assert res.certificate.cases_checked == ("p = p3", "2p = p3",
                                                 "3p = p3", "4p = p3")

    def test_known1_reverified_through_group_law(self):
        for params in (QuarticParams(k=0, a=F(8), b=F(15, 4), c=F(2)),
                       QuarticParams(k=2, a=F(3), b=F(5, 4), c=F(1))):
            model = build_quartic_model(params)
            res = eta_from_params(params)
            assert res.value == 1
            n_str, target = res.certificate.relation.split("p = ")
            n = int(n_str) if n_str else 1
            goal = -model.p if target == "-p" else model.two_torsion[target]
            assert multiple(model.curve, n, model.p) == goal

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

    def test_case_list_sizes_and_multiple_bounds(self):
        expected = {0: (6, 4), 2: (10, 8), 4: (4, 4)}
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

    def test_rejects_wrong_hypotheses(self):
        inv = conic_inv("x^2 + 1")
        with pytest.raises(ValueError):
            level_bounds(inv, None)


class TestSquareLeadingQuartics:
    """y^2 = l*Q0 with l a rational square is y^2 = Q0 after y -> y/sqrt(l)."""

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

    def test_non_square_leading_stays_undetermined(self):
        direct = eta_full(*hyp("y^2 = 2*x^4 - 2")).eta
        twin = eta_full(*hyp("y^2 = -3*x^4 + 3")).eta_complex
        for res in (direct, twin):
            assert (res.value, res.certificate.kind) == (None, NON_RATIONAL_FACTORIZATION)


class TestEachFactOnce:
    """Square-freeness and k of Q are computed once per curve; the
    normal form decides square-freeness from its resolvent's
    discriminant, with no gcd."""

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
        calls = self.count_calls(monkeypatch, "count_real_roots", "sturm_sequence")
        stats = SearchStats()
        result = quartic_eta(UniPoly([1, 1, 0, 0, 1]), stats=stats)  # x^4 + x + 1
        assert result.certificate.kind == NON_RATIONAL_FACTORIZATION
        assert stats.k is None
        assert calls == {"count_real_roots": [], "sturm_sequence": []}

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

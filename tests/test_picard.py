import pytest

from realcurves import (CurveInvariants, GroupDescriptor, classify_conic, eta_full, hyperelliptic_invariants,
                        parse_curve, pic_tors, pic_tors_complex, quartic_eta,
                        units_mod_n)


def conic_inv(expr):
    return classify_conic(parse_curve(expr + " = 0")).invariants


class TestPicTors:
    def test_ellipse(self):
        assert pic_tors(conic_inv("x^2 + y^2 - 1"), 0) == \
            GroupDescriptor(z2=1)

    def test_four_root_quartic(self):
        spec = parse_curve("y^2 = (x^2-1)*(x^2-9)")
        inv = hyperelliptic_invariants(spec)
        analysis = eta_full(spec, inv)
        assert pic_tors(inv, analysis.eta.value) == GroupDescriptor(qz=1, z2=1)

    def test_negative_sextic(self):
        inv = hyperelliptic_invariants(parse_curve("y^2 = -(x^6+1)"))
        assert pic_tors(inv, 0) == GroupDescriptor(qz=2)

    def test_undetermined_gives_both_candidates(self):
        inv = hyperelliptic_invariants(parse_curve("y^2 = x^6 - 2"))
        assert pic_tors(inv, 0) == GroupDescriptor(qz=3)
        assert pic_tors(inv, 1) == GroupDescriptor(qz=2)

    def test_disconnected_curve_is_complex(self):
        # x^2 + 1 = 0 is a line over C: genus 0, one point at infinity
        assert pic_tors(conic_inv("x^2 + 1"), 0) == GroupDescriptor()

    def test_eta_beyond_bound_rejected(self):
        with pytest.raises(ValueError):
            pic_tors(conic_inv("x^2 + y^2 - 1"), 1)  # r + c - 1 = 0

    def test_accepts_plain_ints(self):
        assert pic_tors(conic_inv("x^2 + y"), 0) == GroupDescriptor()


class TestPicTorsComplex:
    def test_formula(self):
        assert pic_tors_complex(1, 2, 1) == GroupDescriptor(qz=2)

    def test_trivial_at_genus_zero(self):
        assert pic_tors_complex(0, 1, 0) == GroupDescriptor()

    def test_twin_pipeline_value(self):
        eta_c = quartic_eta(parse_curve("y^2 = (x^2+1)*(x^2+4)").q)
        assert eta_c.value == 1
        assert pic_tors_complex(1, 2, eta_c.value) == GroupDescriptor(qz=2)

    def test_guards(self):
        with pytest.raises(ValueError):
            pic_tors_complex(1, 0, 0)
        with pytest.raises(ValueError):
            pic_tors_complex(1, 2, 2)


class TestUnits:
    # a connected curve, whose constants carry a sign
    CONNECTED = CurveInvariants(genus=1, real_at_infinity=2, complex_at_infinity=0,
                                components=2, compact_components=0)

    def test_even_without_boundary_units(self):
        assert units_mod_n(self.CONNECTED, 0, 2) == GroupDescriptor(z2=1)

    def test_odd_with_one_unit(self):
        assert units_mod_n(self.CONNECTED, 1, 3) == GroupDescriptor(zn=(3, 1))

    def test_even_with_one_unit(self):
        assert units_mod_n(self.CONNECTED, 1, 4) == GroupDescriptor(z4=1, z2=1)

    def test_bigger_moduli(self):
        assert units_mod_n(self.CONNECTED, 1, 6) == GroupDescriptor(zn=(6, 1), z2=1)
        assert units_mod_n(self.CONNECTED, 0, 7) == GroupDescriptor()

    def test_disconnected_curve_has_no_sign(self):
        # the constants of a complex curve are divisible
        inv = conic_inv("x^2 + 1")
        for n in (2, 3, 4):
            assert units_mod_n(inv, 0, n) == GroupDescriptor()

    def test_n_below_two_rejected(self):
        with pytest.raises(ValueError):
            units_mod_n(self.CONNECTED, 0, 1)


class TestTableConsistency:
    def test_even_positive_table_matches_general_formula(self):
        # (Q/Z)^(d'-eta) + (Z/2)^(k'-1) against the general statement with
        # g = d'-1, r = 2, c = 0, t = k'-1, for all d' <= 10, 1 <= k' <= d'
        for dp in range(1, 11):
            for kp in range(1, dp + 1):
                inv = CurveInvariants(genus=dp - 1, real_at_infinity=2,
                                      complex_at_infinity=0,
                                      components=kp + 1,
                                      compact_components=kp - 1)
                for eta in (0, 1):
                    expected = GroupDescriptor(qz=dp - eta, z2=kp - 1)
                    assert pic_tors(inv, eta) == expected

    def test_qz_rank_never_negative(self):
        # the eta <= r + c - 1 precondition keeps the exponent >= 0
        inv = CurveInvariants(genus=0, real_at_infinity=2, complex_at_infinity=0,
                              components=2, compact_components=0)
        assert pic_tors(inv, 1) == GroupDescriptor()
        with pytest.raises(ValueError):
            pic_tors(inv, 2)

import random

import pytest

from realcurves import (CurveInvariants, CohomologyDims, etale_dims,
                        quotient_space_dims, parse_curve,
                        hyperelliptic_invariants, classify_conic)

from oracles import random_invariants


def abstract(g, r, c, s, t, connected=True):
    return CurveInvariants(genus=g, real_at_infinity=r, complex_at_infinity=c,
                           components=s, compact_components=t,
                           geometrically_connected=connected)


class TestEtaleDims:
    def test_ellipse(self):
        inv = classify_conic(parse_curve("x^2 + y^2 - 1 = 0")).invariants
        dims = etale_dims(inv)
        assert dims == CohomologyDims(2, 2)
        assert dims.to_json() == {"h0": 1, "h1": 2, "h2": 2, "h_stable": 2}

    def test_open_empty_connected(self):
        dims = etale_dims(abstract(2, 0, 1, 0, 0))
        assert (dims.h1, dims.h2) == (3, 0)

    def test_open_disconnected(self):
        dims = etale_dims(abstract(0, 0, 1, 0, 0, connected=False))
        assert (dims.h1, dims.h2) == (0, 0)


class TestQuotientDims:
    def test_open_empty_connected(self):
        dims = quotient_space_dims(abstract(1, 0, 1, 0, 0))
        assert dims.h1 == 2

    def test_open_disconnected_trivial_h1(self):
        dims = quotient_space_dims(abstract(0, 0, 1, 0, 0, connected=False))
        assert dims.h1 == 0

    @pytest.mark.parametrize("inv, dims", [
        (abstract(3, 1, 1, 2, 1), CohomologyDims(4, 0)),
        (abstract(2, 0, 1, 0, 0), CohomologyDims(3, 0)),
        (abstract(2, 0, 3, 0, 0, connected=False), CohomologyDims(6, 0)),
    ], ids=("real-points", "empty-connected", "disconnected"))
    def test_branches_whole_record(self, inv, dims):
        # h2 included: it is 0 in every row
        assert quotient_space_dims(inv) == dims


class TestCrossRelations:
    def test_quotient_h1_is_etale_h1_minus_s(self):
        rng = random.Random(101)
        for _ in range(300):
            inv = random_invariants(rng)
            et, qt = etale_dims(inv), quotient_space_dims(inv)
            assert qt.h1 == et.h1 - inv.components

    def test_disconnected_counts_match_component_curve(self):
        rng = random.Random(107)
        for _ in range(100):
            inv = random_invariants(rng, family="open_disconnected")
            et = etale_dims(inv)
            g, c = inv.genus, inv.complex_at_infinity
            assert et.h1 == 2 * g + c - 1
            # H^1 of the complexification doubles it
            assert et.h1 == (2 * (2 * g + c - 1)) // 2

    def test_h0_always_one(self):
        # and H^i is stable from i = 2 on
        rng = random.Random(109)
        for _ in range(100):
            inv = random_invariants(rng)
            for dims in (etale_dims(inv), quotient_space_dims(inv)):
                written = dims.to_json()
                assert (written["h0"], written["h_stable"]) == (1, dims.h2)


class TestValidation:
    def test_hyperelliptic_pipeline_values(self):
        inv = hyperelliptic_invariants(parse_curve("y^2 = -(x^6+1)"))
        assert etale_dims(inv).h1 == 3  # g=2, c=1, s=0
        inv = hyperelliptic_invariants(parse_curve("y^2 = x^3 - x"))
        assert etale_dims(inv).h1 == 3  # g=1, c=0, s=2
        assert etale_dims(inv).h2 == 3  # s + t

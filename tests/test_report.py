"""full_report's defaults and the self-checks of report._cross_check.

The self-checks never fire on correct code, so each is fed here the
values of a real curve with one identity broken, and must raise
InternalInconsistencyError with its own message; the same values left
consistent must pass, on every branch of the tables."""

import pytest

from realcurves import (Certificate, CurveInvariants, EtaAnalysis, EtaResult,
                        GroupDescriptor, InternalInconsistencyError, UniPoly,
                        classify_conic, etale_dims, eta_full, full_report,
                        hyperelliptic_invariants, level_bounds, parse_curve,
                        pic_tors, quotient_space_dims, units_mod_n)
from realcurves.curves import HyperellipticSpec
from realcurves.report import _cross_check
from realcurves.witt import witt_from_h1

from oracles import poly_mul


def test_full_report_defaults_to_the_units_mod_2():
    spec = parse_curve("y^2 = x^3 - x")
    report = full_report(spec)
    assert [entry["n"] for entry in report["units"]] == [2]
    assert report == full_report(spec, units=(2,))


def _abstract(g, r, c, s, t, connected=True):
    return CurveInvariants(genus=g, real_at_infinity=r, complex_at_infinity=c,
                           components=s, compact_components=t,
                           geometrically_connected=connected)


def _consistent(inv, eta):
    """The arguments of _cross_check as full_report computes them, with
    eta of the curve `eta`."""
    etale, quotient = etale_dims(inv), quotient_space_dims(inv)
    result = EtaResult(eta, Certificate("test"))
    return {"inv": inv, "u": etale.h1, "quotient_h1": quotient.h1,
            "witt": witt_from_h1(inv, etale.h1),
            "analysis": EtaAnalysis(result, result)}


# (invariants, eta): every row of the tables, eta at its bound r + c - 1
# or undetermined
CONSISTENT = {
    "hyperbola": (_abstract(0, 2, 0, 2, 0), 1),
    "ellipse": (_abstract(0, 0, 1, 1, 1), 0),
    "quartic-two-branches": (_abstract(1, 2, 0, 3, 1), 1),
    "empty-quartic": (_abstract(1, 0, 1, 0, 0), 0),
    "undetermined": (_abstract(2, 2, 0, 2, 0), None),
    "disconnected": (_abstract(0, 0, 1, 0, 0, connected=False), 0),
}


@pytest.mark.parametrize("inv, eta", CONSISTENT.values(), ids=list(CONSISTENT))
def test_consistent_values_pass(inv, eta):
    _cross_check(**_consistent(inv, eta))


@pytest.mark.parametrize("step", [1, -1])
def test_quotient_h1_off_etale_h1_minus_s(step):
    args = _consistent(_abstract(0, 0, 1, 1, 1), 0)
    args["quotient_h1"] += step
    with pytest.raises(InternalInconsistencyError, match="^quotient h1 = "):
        _cross_check(**args)


@pytest.mark.parametrize("step", [1, -1])
def test_witt_free_rank_off_component_count(step):
    args = _consistent(_abstract(1, 2, 0, 3, 1), 1)
    args["witt"] = GroupDescriptor(free_rank=3 + step, z2=1)
    with pytest.raises(InternalInconsistencyError, match="^Witt free rank "):
        _cross_check(**args)


@pytest.mark.parametrize("step", [1, -1])
def test_h1_off_genus_plus_complex_points(step):
    # u and quotient h1 move together, so only u - s = g + c breaks
    args = _consistent(_abstract(1, 2, 0, 3, 1), 1)
    args["u"] += step
    args["quotient_h1"] += step
    with pytest.raises(InternalInconsistencyError, match=r"^u - s = \d+ but g \+ c = 1$"):
        _cross_check(**args)


def test_eta_one_above_its_bound():
    # one point at infinity: r + c - 1 = 0
    args = _consistent(_abstract(1, 1, 0, 2, 1), 1)
    with pytest.raises(InternalInconsistencyError,
                       match="^eta exceeds its bound r \\+ c - 1$"):
        _cross_check(**args)


# one conic of each of the six classes
CONICS = ("x^2 + y^2 - 1", "y - x^2", "x^2 - y^2 - 1", "x^2 + y^2 + 1",
          "x + y", "x^2 + 1")


def _with_roots(d, k, sign):
    """sign * (x - 1)...(x - k) * (x^2 + 1)...(x^2 + (d - k)/2): square-free
    of degree d with k real roots."""
    q = UniPoly([sign])
    for i in range(1, k + 1):
        q = poly_mul(q, UniPoly([-i, 1]))
    for j in range(1, (d - k) // 2 + 1):
        q = poly_mul(q, UniPoly([j, 0, 1]))
    return q


def _reachable_curves():
    """Every kind of curve `parse_curve` can build, with its invariant
    tuple: each conic class, and y^2 = Q for each degree 1..18, each
    sign of the leading coefficient and each root count k = d mod 2 up
    to d."""
    curves = []
    for expr in CONICS:
        spec = parse_curve(expr + " = 0")
        curves.append((spec, classify_conic(spec).invariants))
    for d in range(1, 19):
        for sign in (1, -1):
            for k in range(d % 2, d + 1, 2):
                spec = HyperellipticSpec(_with_roots(d, k, sign))
                assert spec.real_roots == k
                curves.append((spec, hyperelliptic_invariants(spec)))
    return curves


def test_every_reachable_tuple_runs_every_formula():
    """Each formula module and the report's self-checks answer every
    reachable tuple with every admissible eta, and `eta_full` answers
    eta over C for every curve, so no identity of the paper's table
    rests on a sample."""
    curves = _reachable_curves()
    tuples = [inv for _, inv in curves]
    # 6 conics and 198 polynomials Q; a parabola has the tuple of a line, and
    # the sign of an odd degree's leading coefficient does not show
    assert (len(tuples), len(set(tuples))) == (204, 158)
    for spec, inv in curves:
        assert isinstance(eta_full(spec, inv).eta_complex, EtaResult), spec
        etale, quotient = etale_dims(inv), quotient_space_dims(inv)
        assert quotient.to_json() == {"h0": 1, "h1": quotient.h1, "h2": 0,
                                      "h_stable": 0}, inv
        witt = witt_from_h1(inv, etale.h1)
        for eta in range(inv.real_at_infinity + inv.complex_at_infinity):
            result = EtaResult(eta, Certificate("test"))
            pic_tors(inv, eta)
            units_mod_n(inv, eta, 2)
            units_mod_n(inv, eta, 3)
            level_bounds(inv, result)
            _cross_check(inv, etale.h1, quotient.h1, witt,
                         EtaAnalysis(result, result))

"""full_report's defaults and the self-checks of report._cross_check.

The self-checks never fire on correct code, so each is fed here the
values of a real curve with one identity broken, and must raise
InternalInconsistencyError with its own message; the same values left
consistent must pass, on every branch of the tables."""

import pytest

from realcurves import (Certificate, CurveInvariants, EtaAnalysis, EtaResult,
                        GroupDescriptor, InternalInconsistencyError, etale_dims,
                        full_report, parse_curve, quotient_space_dims)
from realcurves.report import _cross_check
from realcurves.witt import witt_from_h1


def test_full_report_defaults_to_the_units_mod_2():
    spec = parse_curve("y^2 = x^3 - x")
    report = full_report(spec)
    assert [entry["n"] for entry in report["units"]] == [2]
    assert report == full_report(spec, units=(2,))


def _abstract(g, r, c, s, t, complete=False, connected=True):
    return CurveInvariants(genus=g, real_at_infinity=r, complex_at_infinity=c,
                           components=s, compact_components=t,
                           complete=complete, geometrically_connected=connected)


def _consistent(inv, eta):
    """The arguments of _cross_check as full_report computes them, with
    eta of the curve `eta`."""
    etale, quotient = etale_dims(inv), quotient_space_dims(inv)
    return {"inv": inv, "u": etale.h1, "quotient_h1": quotient.h1,
            "quotient_h2": quotient.h2, "etale_h2": etale.h2,
            "witt": witt_from_h1(inv, etale.h1),
            "analysis": EtaAnalysis(EtaResult(eta, Certificate("test")), None)}


# (invariants, eta): every row of the tables, eta at its bound r + c - 1
# where there is one; a complete curve has no such bound
CONSISTENT = {
    "hyperbola": (_abstract(0, 2, 0, 2, 0), 1),
    "ellipse": (_abstract(0, 0, 1, 1, 1), 0),
    "quartic-two-branches": (_abstract(1, 2, 0, 3, 1), 1),
    "empty-quartic": (_abstract(1, 0, 1, 0, 0), 0),
    "undetermined": (_abstract(2, 2, 0, 2, 0), None),
    "disconnected": (_abstract(0, 0, 1, 0, 0, connected=False), 0),
    "complete-real": (_abstract(3, 0, 0, 1, 1, complete=True), 1),
    "complete-empty": (_abstract(1, 0, 0, 0, 0, complete=True), 1),
    "complete-disconnected": (_abstract(2, 0, 0, 0, 0, complete=True,
                                        connected=False), 1),
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
def test_complete_quotient_h2_off(step):
    args = _consistent(_abstract(3, 0, 0, 2, 2, complete=True), None)
    args["quotient_h2"] += step
    with pytest.raises(InternalInconsistencyError,
                       match="^complete-case h2 identity failed$"):
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

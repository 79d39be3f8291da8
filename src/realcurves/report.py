"""Full-analysis assembly: one curve in, one JSON-ready report out.

The report carries the parsed curve echo, the invariant tuple, both
cohomology tables, the Witt group, eta with its certificate, the torsion
Picard group (or both candidates when eta is undetermined), the
requested unit groups, and the level report.  Group outputs appear both
as structured descriptors and as display strings; consumers that need
stability should read the structured form.

Before returning, theorem-level identities that tie the modules together
are re-checked; a failure signals an internal inconsistency (a
transcription bug, not bad input) and is raised as its own error type so
the command line can distinguish it from user errors.
"""

from __future__ import annotations

from collections.abc import Sequence

from .cohomology import etale_dims, quotient_space_dims
from .curves import (ConicSpec, CurveInvariants, CurveSpec, classify_conic,
                     hyperelliptic_invariants)
from .errors import InternalInconsistencyError
from .eta import EtaAnalysis, LevelReport, eta_full, level_bounds
from .groups import GroupDescriptor, group_json
from .picard import TwoCandidates, pic_tors, pic_tors_complex, units_mod_n
from .polys import format_rational
from .witt import witt_from_h1


def full_report(spec: CurveSpec, units: Sequence[int] = (2,)) -> dict:
    if isinstance(spec, ConicSpec):
        klass = classify_conic(spec)
        inv = klass.invariants
        curve_json = {
            "kind": "conic",
            "conic_class": klass.kind,
            "display": spec.display(),
        }
    else:
        inv = hyperelliptic_invariants(spec)
        curve_json = {
            "kind": "hyperelliptic",
            "display": spec.display(),
            "q_coefficients": [format_rational(c, spec.q.denominator)
                               for c in spec.q.numerators],
        }

    analysis = eta_full(spec, inv)
    etale = etale_dims(inv)
    quotient = quotient_space_dims(inv)
    witt = witt_from_h1(inv, etale.h1)
    _cross_check(inv, etale.h1, quotient.h1, quotient.h2, etale.h2,
                 witt, analysis)

    report = {
        "curve": curve_json,
        "invariants": inv.to_json(),
        "etale_cohomology": etale.to_json(),
        "quotient_cohomology": quotient.to_json(),
        "witt": group_json(witt),
        **analysis.to_json(),
        "pic_tors": _pic_json(inv, analysis),
        "units": [_units_json(inv, analysis, n) for n in units],
        "level": _level_json(inv, analysis),
    }
    return report


def _pic_json(inv: CurveInvariants, analysis: EtaAnalysis) -> dict:
    if not inv.geometrically_connected:
        # the curve is isomorphic to one component of its
        # complexification; compute there
        eta_c = analysis.eta_complex
        if eta_c is None or eta_c.value is None:
            raise InternalInconsistencyError("no eta over C for a disconnected curve")
        group = pic_tors_complex(inv.genus, inv.complex_at_infinity, eta_c.value)
        return {"eta_undetermined": False, **group_json(group)}
    result = pic_tors(inv, analysis.eta.value)
    if isinstance(result, TwoCandidates):
        return result.to_json()
    return {"eta_undetermined": False, **group_json(result)}


def _units_json(inv: CurveInvariants, analysis: EtaAnalysis, n: int) -> dict:
    if not inv.geometrically_connected:
        # over C the constants are divisible, so U_n is (Z/n)^eta with no
        # sign contribution; eta vanishes here (single point at infinity)
        return {"n": n, "eta_undetermined": False,
                **group_json(GroupDescriptor(zn=(n, 0)))}
    value = analysis.eta.value
    if value is None:
        return {"n": n, **TwoCandidates(units_mod_n(0, n), units_mod_n(1, n)).to_json()}
    return {"n": n, "eta_undetermined": False, **group_json(units_mod_n(value, n))}


def _level_json(inv: CurveInvariants, analysis: EtaAnalysis) -> dict:
    if not inv.geometrically_connected:
        return {"ring_level": "1",
                "reason": "the complexification is disconnected, so -1 is a square"}
    report: LevelReport = level_bounds(inv, analysis.eta_complex)
    return report.to_json()


def _cross_check(inv: CurveInvariants, u: int, quotient_h1: int,
                 quotient_h2: int, etale_h2: int, witt: GroupDescriptor,
                 analysis: EtaAnalysis) -> None:
    s, t = inv.components, inv.compact_components
    g, r, c = inv.genus, inv.real_at_infinity, inv.complex_at_infinity
    if quotient_h1 != u - s:
        raise InternalInconsistencyError(
            f"quotient h1 = {quotient_h1} but etale h1 - s = {u - s}")
    if inv.complete and quotient_h2 != etale_h2 - s - t:
        raise InternalInconsistencyError("complete-case h2 identity failed")
    if witt.free_rank != s:
        raise InternalInconsistencyError(
            f"Witt free rank {witt.free_rank} != component count {s}")
    if not inv.complete and s > 0 and inv.geometrically_connected:
        if u - s != g + c:
            raise InternalInconsistencyError(
                f"u - s = {u - s} but g + c = {g + c}")
    value = analysis.eta.value
    if value is not None and not inv.complete and value > r + c - 1:
        raise InternalInconsistencyError("eta exceeds its bound r + c - 1")

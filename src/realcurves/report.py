"""Full-analysis assembly: one curve in, one JSON-ready report out.

The report carries the parsed curve echo, the invariant tuple, both
cohomology tables, the Witt group, eta with its certificate, the torsion
Picard group (or both candidates when eta is undetermined), the
requested unit groups, and the level report.  Group outputs appear both
as structured descriptors and as display strings; consumers that need
stability should read the structured form.  `picard` and
`eta_rules.level_bounds` answer for every curve accepted here, the curves
that are not geometrically connected included, so the report has no
case of its own: `_entry` asks a group function for eta, or for eta = 0
and eta = 1 when eta is undetermined.

Before returning, theorem-level identities that tie the modules together
are re-checked; a failure signals an internal inconsistency (a
transcription bug, not bad input) and is raised as its own error type so
the command line can distinguish it from user errors.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

from ._format import format_rational
from .cohomology import etale_dims, quotient_space_dims
from .curves import (ConicSpec, CurveInvariants, CurveSpec, HyperellipticSpec,
                     classify_conic, hyperelliptic_invariants)
from .errors import InternalInconsistencyError
from .eta_rules import EtaAnalysis, eta_full, level_bounds
from .groups import GroupDescriptor, group_json
from .picard import pic_tors, units_mod_n
from .witt import witt_from_h1


def full_report(spec: CurveSpec, units: Sequence[int] = (2,)) -> dict:
    inv, curve_json = _DESCRIBE[type(spec)](spec)
    analysis = eta_full(spec, inv)
    etale = etale_dims(inv)
    quotient = quotient_space_dims(inv)
    witt = witt_from_h1(inv, etale.h1)
    _cross_check(inv, etale.h1, quotient.h1, witt, analysis)

    eta = analysis.eta.value
    return {
        "curve": curve_json,
        "invariants": inv.to_json(),
        "etale_cohomology": etale.to_json(),
        "quotient_cohomology": quotient.to_json(),
        "witt": group_json(witt),
        **analysis.to_json(),
        "pic_tors": _entry(eta, lambda e: pic_tors(inv, e)),
        "units": [{"n": n, **_entry(eta, lambda e: units_mod_n(inv, e, n))}
                  for n in units],
        "level": level_bounds(inv, analysis.eta_complex).to_json(),
    }


def _entry(eta: int | None,
           group_of: Callable[[int], GroupDescriptor]) -> dict:
    """The report entry of the group `group_of(eta)`, or of both
    candidates, for eta = 0 and eta = 1, when eta is undetermined."""
    if eta is not None:
        return {"eta_undetermined": False, **group_json(group_of(eta))}
    return {"eta_undetermined": True,
            "candidates": {"eta_0": group_json(group_of(0)),
                           "eta_1": group_json(group_of(1))}}


def _describe_conic(spec: ConicSpec) -> tuple[CurveInvariants, dict]:
    klass = classify_conic(spec)
    return klass.invariants, {
        "kind": "conic",
        "conic_class": klass.kind,
        "display": spec.display(),
    }


def _describe_hyperelliptic(spec: HyperellipticSpec) -> tuple[CurveInvariants, dict]:
    return hyperelliptic_invariants(spec), {
        "kind": "hyperelliptic",
        "display": spec.display(),
        "q_coefficients": [format_rational(c, spec.q.denominator)
                           for c in spec.q.numerators],
    }


# the invariants and the curve echo of each kind of spec `parse_curve` returns
_DESCRIBE = {ConicSpec: _describe_conic, HyperellipticSpec: _describe_hyperelliptic}


def _cross_check(inv: CurveInvariants, u: int, quotient_h1: int,
                 witt: GroupDescriptor, analysis: EtaAnalysis) -> None:
    s = inv.components
    g, r, c = inv.genus, inv.real_at_infinity, inv.complex_at_infinity
    if quotient_h1 != u - s:
        raise InternalInconsistencyError(
            f"quotient h1 = {quotient_h1} but etale h1 - s = {u - s}")
    if witt.free_rank != s:
        raise InternalInconsistencyError(
            f"Witt free rank {witt.free_rank} != component count {s}")
    if s > 0 and inv.geometrically_connected:
        if u - s != g + c:
            raise InternalInconsistencyError(
                f"u - s = {u - s} but g + c = {g + c}")
    value = analysis.eta.value
    if value is not None and value > r + c - 1:
        raise InternalInconsistencyError("eta exceeds its bound r + c - 1")

"""Mod-2 cohomology dimension tables for smooth real curves.

`etale_dims` gives dim_{Z/2} H^i_et(X, Z/2) and `quotient_space_dims`
gives dim H^i(X(C)/G, Z/2) for G the conjugation action, both as closed
functions of the invariant tuple (genus g, points at infinity r and c,
component counts s and t, completeness, geometric connectedness).

The tables, with u := dim H^1:

etale, complete:      real points:    (1, g+s,    2s,  2s)
                      empty, conn:    (1, g+1,    1,   0)
                      disconnected:   (1, 2g,     1,   0)
etale, non-complete:  real points:    (1, g+c+s,  s+t, s+t)
                      empty, conn:    (1, g+c,    0,   0)
                      disconnected:   (1, 2g+c-1, 0,   0)

quotient, complete:      (1, g, 0), (1, g+1, 1), (1, 2g, 1)
quotient, non-complete:  (1, g+c, 0), (1, g+c, 0), (1, 2g+c-1, 0)

In every case dim H^1 of the quotient surface equals dim H^1_et minus s,
and in the complete cases dim H^2 of the quotient equals dim H^2_et
minus s+t; these identities are what the test suite checks.

The disconnected non-complete row of the etale table leaves H^2
unstated in the usual formulation; the exact sequence computing H^1
forces H^2(X) = 0, which is what this module returns.

Abstract invariant tuples (not tied to a parsed curve) are accepted so
the complete-curve formulas stay reachable even though the parser only
builds affine curves.
"""

from __future__ import annotations

from ._record import Record
from .curves import CurveInvariants


class CohomologyDims(Record):
    """h_stable is the common dimension for i >= 3 (and i >= 2 where the
    table is already stable there)."""

    __slots__ = _fields = ("h0", "h1", "h2", "h_stable")

    def __init__(self, h0: int, h1: int, h2: int, h_stable: int):
        if h0 != 1:
            raise ValueError("connected curves have h0 = 1")
        if min(h1, h2, h_stable) < 0:
            raise ValueError("dimensions must be nonnegative")
        object.__setattr__(self, "h0", h0)
        object.__setattr__(self, "h1", h1)
        object.__setattr__(self, "h2", h2)
        object.__setattr__(self, "h_stable", h_stable)

    def to_json(self) -> dict:
        return {"h0": self.h0, "h1": self.h1, "h2": self.h2,
                "h_stable": self.h_stable}


def etale_dims(inv: CurveInvariants) -> CohomologyDims:
    g, c = inv.genus, inv.complex_at_infinity
    s, t = inv.components, inv.compact_components
    if inv.complete:
        if not inv.geometrically_connected:
            return CohomologyDims(1, 2 * g, 1, 0)
        if s > 0:
            return CohomologyDims(1, g + s, 2 * s, 2 * s)
        return CohomologyDims(1, g + 1, 1, 0)
    if not inv.geometrically_connected:
        return CohomologyDims(1, 2 * g + c - 1, 0, 0)
    if s > 0:
        return CohomologyDims(1, g + c + s, s + t, s + t)
    return CohomologyDims(1, g + c, 0, 0)


def quotient_space_dims(inv: CurveInvariants) -> CohomologyDims:
    g, c = inv.genus, inv.complex_at_infinity
    s = inv.components
    if inv.complete:
        if not inv.geometrically_connected:
            return CohomologyDims(1, 2 * g, 1, 0)
        if s > 0:
            return CohomologyDims(1, g, 0, 0)
        return CohomologyDims(1, g + 1, 1, 0)
    if not inv.geometrically_connected:
        return CohomologyDims(1, 2 * g + c - 1, 0, 0)
    return CohomologyDims(1, g + c, 0, 0)

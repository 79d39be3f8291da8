"""Mod-2 cohomology dimension tables for smooth non-complete real curves.

`etale_dims` gives dim_{Z/2} H^i_et(X, Z/2) and `quotient_space_dims`
gives dim H^i(X(C)/G, Z/2) for G the conjugation action, both as closed
functions of the invariant tuple (genus g, points at infinity r and c,
component counts s and t, geometric connectedness).

The curves are connected, so h0 = 1, and on every row H^i is stable
from i = 2 on: dim H^i = h2 for all i >= 2.  The tables give (h1, h2),
with u := h1:

etale:     real points:    (g+c+s,  s+t)
           empty, conn:    (g+c,    0)
           disconnected:   (2g+c-1, 0)

quotient:  (g+c, 0), (g+c, 0), (2g+c-1, 0)

In every case dim H^1 of the quotient surface equals dim H^1_et minus s;
this identity is what the test suite checks.

The disconnected row of the etale table leaves H^2 unstated in the usual
formulation; the exact sequence computing H^1 forces H^2(X) = 0, which
is what this module returns.

Complete curves are Knebusch's case, which the paper cites rather than
computes; the parser builds only affine curves, and neither table has
rows for them.
"""

from __future__ import annotations

from ._record import Record
from .curves import CurveInvariants


class CohomologyDims(Record):
    """h1 and h2 of a table row.  h0 is 1, and H^i is stable from i = 2
    on, so `to_json` writes "h0": 1 and "h_stable": h2."""

    __slots__ = _fields = ("h1", "h2")

    def __init__(self, h1: int, h2: int):
        if min(h1, h2) < 0:
            raise ValueError("dimensions must be nonnegative")
        self._init(h1, h2)

    def to_json(self) -> dict:
        return {"h0": 1, "h1": self.h1, "h2": self.h2, "h_stable": self.h2}


def etale_dims(inv: CurveInvariants) -> CohomologyDims:
    g, c = inv.genus, inv.complex_at_infinity
    s, t = inv.components, inv.compact_components
    if not inv.geometrically_connected:
        return CohomologyDims(2 * g + c - 1, 0)
    if s > 0:
        return CohomologyDims(g + c + s, s + t)
    return CohomologyDims(g + c, 0)


def quotient_space_dims(inv: CurveInvariants) -> CohomologyDims:
    g, c = inv.genus, inv.complex_at_infinity
    if not inv.geometrically_connected:
        return CohomologyDims(2 * g + c - 1, 0)
    return CohomologyDims(g + c, 0)

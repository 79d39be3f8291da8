"""Torsion Picard groups and unit groups from invariants and eta.

For a non-complete geometrically connected curve,

    Pic_tors(X) = (Q/Z)^(g + r + c - eta - 1) + (Z/2)^t,

with t = 0, r = 0 when the real locus is empty.  Complete curves have
(Q/Z)^g + (Z/2)^(s-1) with real points and (Q/Z)^g without.  A
non-complete complex curve of genus g with k points at infinity has
(Q/Z)^(2g + k - eta - 1).

Unit groups of the coordinate ring modulo n-th powers:

    U_n(X) = (Z/n)^eta + Z/2   (n even; the extra Z/2 is the sign of a
                                constant)
    U_n(X) = (Z/n)^eta         (n odd)

When eta is undetermined both candidate groups are emitted rather than
guessing.
"""

from __future__ import annotations

from ._record import Record
from .curves import CurveInvariants
from .groups import GroupDescriptor, group_json


class TwoCandidates(Record):
    """Both candidate groups when eta could be 0 or 1."""

    __slots__ = _fields = ("eta0", "eta1")

    def __init__(self, eta0: GroupDescriptor, eta1: GroupDescriptor):
        object.__setattr__(self, "eta0", eta0)
        object.__setattr__(self, "eta1", eta1)

    def to_json(self) -> dict:
        return {
            "eta_undetermined": True,
            "candidates": {
                "eta_0": group_json(self.eta0),
                "eta_1": group_json(self.eta1),
            },
        }


def pic_tors(inv: CurveInvariants, eta: int | None) -> GroupDescriptor | TwoCandidates:
    """Torsion subgroup of the Picard group; `eta` is None when
    undetermined, and is ignored for complete curves.

    Geometrically disconnected curves are rejected: the formulas need
    geometric connectedness (the disconnected case is handled through
    `pic_tors_complex` on one component).
    """
    if not inv.geometrically_connected:
        raise ValueError("torsion Picard formula requires a geometrically "
                         "connected curve")
    g, s, t = inv.genus, inv.components, inv.compact_components
    if inv.complete:
        if s > 0:
            return GroupDescriptor(qz=g, z2=s - 1)
        return GroupDescriptor(qz=g)
    r, c = inv.real_at_infinity, inv.complex_at_infinity

    def descriptor(e: int) -> GroupDescriptor:
        rank = g + r + c - e - 1
        if rank < 0:
            raise ValueError(f"eta = {e} exceeds the bound r + c - 1 = {r + c - 1}")
        return GroupDescriptor(qz=rank, z2=t)

    if eta is None:
        return TwoCandidates(eta0=descriptor(0), eta1=descriptor(1))
    return descriptor(eta)


def pic_tors_complex(genus: int, points_at_infinity: int,
                     eta_complex: int) -> GroupDescriptor:
    """Torsion Picard group of a non-complete complex curve."""
    if points_at_infinity < 1:
        raise ValueError("a non-complete curve has at least one point at infinity")
    if not 0 <= eta_complex <= points_at_infinity - 1:
        raise ValueError("eta must lie between 0 and k - 1")
    return GroupDescriptor(qz=2 * genus + points_at_infinity - eta_complex - 1)


def units_mod_n(eta: int, n: int) -> GroupDescriptor:
    """O(X)*/O(X)*^n for a geometrically connected real curve."""
    if n < 2:
        raise ValueError("n must be >= 2")
    if eta < 0:
        raise ValueError("eta must be nonnegative")
    return GroupDescriptor(zn=(n, eta), z2=1 if n % 2 == 0 else 0)

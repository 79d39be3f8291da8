"""Torsion Picard groups and unit groups from invariants and eta.

For a non-complete geometrically connected curve,

    Pic_tors(X) = (Q/Z)^(g + r + c - eta - 1) + (Z/2)^t,

with t = 0, r = 0 when the real locus is empty.  A non-complete
complex curve of genus g with k points at infinity has
(Q/Z)^(2g + k - eta - 1).  A curve that is not geometrically connected
is isomorphic to one component of its complexification, a complex curve
with k = c, and `pic_tors` answers for it by that formula.

Unit groups of the coordinate ring modulo n-th powers:

    U_n(X) = (Z/n)^eta + Z/2   (n even, X geometrically connected; the
                                extra Z/2 is the sign of a constant)
    U_n(X) = (Z/n)^eta         (otherwise: n odd, or the constants are
                                complex and so divisible)

Both take eta as an int; when eta is undetermined the report asks for
eta = 0 and eta = 1 and shows both candidate groups.
"""

from __future__ import annotations

from .curves import CurveInvariants
from .groups import GroupDescriptor


def pic_tors(inv: CurveInvariants, eta: int) -> GroupDescriptor:
    """Torsion subgroup of the Picard group."""
    g, t = inv.genus, inv.compact_components
    r, c = inv.real_at_infinity, inv.complex_at_infinity
    if not inv.geometrically_connected:
        return pic_tors_complex(g, c, eta)
    rank = g + r + c - eta - 1
    if rank < 0:
        raise ValueError(f"eta = {eta} exceeds the bound r + c - 1 = {r + c - 1}")
    return GroupDescriptor(qz=rank, z2=t)


def pic_tors_complex(genus: int, points_at_infinity: int,
                     eta_complex: int) -> GroupDescriptor:
    """Torsion Picard group of a non-complete complex curve."""
    if points_at_infinity < 1:
        raise ValueError("a non-complete curve has at least one point at infinity")
    if not 0 <= eta_complex <= points_at_infinity - 1:
        raise ValueError("eta must lie between 0 and k - 1")
    return GroupDescriptor(qz=2 * genus + points_at_infinity - eta_complex - 1)


def units_mod_n(inv: CurveInvariants, eta: int, n: int) -> GroupDescriptor:
    """O(X)*/O(X)*^n."""
    if n < 2:
        raise ValueError("n must be >= 2")
    if eta < 0:
        raise ValueError("eta must be nonnegative")
    sign = n % 2 == 0 and inv.geometrically_connected
    return GroupDescriptor(zn=(n, eta), z2=1 if sign else 0)

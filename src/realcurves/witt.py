"""Abstract structure of the Witt group W(X) of a smooth connected real
curve, computed from the invariant tuple.

With u = dim_{Z/2} H^1_et(X, Z/2) and l the level of the function field:

* real points present:        W(X) = Z^s + (Z/2)^(u-s)
* no real points, level 2:    W(X) = Z/4 + (Z/2)^(u-1)
* no real points, level 1:    W(X) = (Z/2)^(u+1)

u is taken from the cohomology module rather than re-derived inline, so
the closed-form specializations (for instance u - s = g + c on
non-complete curves with real points) act as genuine cross-module
consistency checks in the tests.
"""

from __future__ import annotations

from .cohomology import etale_dims
from .curves import CurveInvariants
from .groups import GroupDescriptor


def witt_group(inv: CurveInvariants) -> GroupDescriptor:
    """W(X) from the invariant tuple alone."""
    return witt_from_h1(inv, etale_dims(inv).h1)


def witt_from_h1(inv: CurveInvariants, u: int) -> GroupDescriptor:
    """W(X) from the invariant tuple and u = dim H^1_et(X, Z/2), for a
    caller that already holds the etale dimensions."""
    level = inv.function_field_level
    if level is None:
        s = inv.components
        return GroupDescriptor(free_rank=s, z2=u - s)
    if level == 2:
        return GroupDescriptor(z4=1, z2=u - 1)
    return GroupDescriptor(z2=u + 1)

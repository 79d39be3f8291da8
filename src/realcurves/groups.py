"""Canonical descriptors for the finitely described abelian groups that
the invariant formulas emit: Z^a + (Q/Z)^q + (Z/4)^c + (Z/n)^m + (Z/2)^b.

Q/Z is kept as an opaque summand count and never expanded into its
p-primary parts, since the torsion Picard results are stated directly in
terms of (Q/Z)^m.  Z/2 is tracked separately from generic Z/n so that
parity-sensitive unit-group formulas stay exact.
"""

from __future__ import annotations

from ._record import Record


class GroupDescriptor(Record):
    """A direct sum Z^free_rank + (Q/Z)^qz + (Z/4)^z4 + (Z/n)^count + (Z/2)^z2.

    Equality is field-wise.  The zn summand, given as (n, count), is
    normalized so that a zero count collapses to None and n in {2, 4}
    folds into the dedicated fields, keeping the representation canonical.
    """

    __slots__ = _fields = ("free_rank", "qz", "z4", "zn", "z2")

    def __init__(self, free_rank: int = 0, qz: int = 0, z4: int = 0,
                 zn: tuple[int, int] | None = None, z2: int = 0):
        for name, value in zip(("free_rank", "qz", "z4", "z2"), (free_rank, qz, z4, z2)):
            if value < 0:
                raise ValueError(f"{name} must be nonnegative")
        if zn is not None:
            n, count = zn
            if n < 2:
                raise ValueError("zn modulus must be >= 2")
            if count < 0:
                raise ValueError("zn count must be nonnegative")
            if count == 0 or n in (2, 4):
                zn = None
            if n == 2:
                z2 += count
            elif n == 4:
                z4 += count
        object.__setattr__(self, "free_rank", free_rank)
        object.__setattr__(self, "qz", qz)
        object.__setattr__(self, "z4", z4)
        object.__setattr__(self, "zn", zn)
        object.__setattr__(self, "z2", z2)

    def format(self) -> str:
        """Deterministic display, summands in the fixed order
        Z, Q/Z, Z/4, Z/n, Z/2; the trivial group prints '0'."""
        parts: list[str] = []
        parts.extend(_summand("Z", self.free_rank, bare=True))
        parts.extend(_summand("Q/Z", self.qz))
        parts.extend(_summand("Z/4", self.z4))
        if self.zn is not None:
            n, count = self.zn
            parts.extend(_summand(f"Z/{n}", count))
        parts.extend(_summand("Z/2", self.z2))
        if not parts:
            return "0"
        return " (+) ".join(parts)

    def to_json(self) -> dict:
        return {
            "free_rank": self.free_rank,
            "qz": self.qz,
            "z4": self.z4,
            "zn": None if self.zn is None else {"n": self.zn[0], "count": self.zn[1]},
            "z2": self.z2,
        }

    def __str__(self) -> str:
        return self.format()


def group_json(g: GroupDescriptor) -> dict:
    """A group as it appears in a report: the structured descriptor and
    its display string."""
    return {"group": g.to_json(), "display": g.format()}


def _summand(symbol: str, count: int, bare: bool = False) -> list[str]:
    if count == 0:
        return []
    if count == 1:
        return [symbol]
    if bare:
        return [f"{symbol}^{count}"]
    return [f"({symbol})^{count}"]


TRIVIAL_GROUP = GroupDescriptor()

"""The certificate that comes with every value of eta: its kind, and
the relation and order of a torsion coincidence or the relations that a
torsion search excluded.

`eta` and `eta_rules` both import this module, so a sampler draw, which
runs `eta` alone, executes no closed rule.
"""

from __future__ import annotations

from ._record import Record

# certificate kinds
RULE_ONE_POINT_AT_INFINITY = "rule-one-point-at-infinity"
RULE_CONIC_TABLE = "rule-conic-table"
TORSION_COINCIDENCE = "torsion-coincidence"
TORSION_EXHAUSTED = "torsion-exhausted"
NON_RATIONAL_FACTORIZATION = "non-rational-factorization"
GENUS_TOO_HIGH = "genus-too-high"


class Certificate(Record):
    __slots__ = _fields = ("kind", "relation", "order", "cases_checked")

    def __init__(self, kind: str, relation: str | None = None,
                 order: int | None = None,
                 cases_checked: tuple[str, ...] | None = None):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "relation", relation)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "cases_checked", cases_checked)

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "relation": self.relation,
            "order": self.order,
            "cases_checked": None if self.cases_checked is None
            else list(self.cases_checked),
        }


class EtaResult(Record):
    """value 0 or 1 when decided, None when undetermined."""

    __slots__ = _fields = ("value", "certificate")

    def __init__(self, value: int | None, certificate: Certificate):
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "certificate", certificate)

    def to_json(self) -> dict:
        return {"eta": self.value, "certificate": self.certificate.to_json()}

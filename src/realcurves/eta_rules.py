"""The boundary-divisor invariant eta of a smooth affine curve, with
machine-checkable certificates: the closed rules, the dispatch and the
level bounds.

eta(X) is the rank of the group of degree-zero cycles supported on the
points at infinity that die in the Picard group of the completion.  It
is bounded by r + c - 1 and controls both the torsion Picard group and
the unit groups of the coordinate ring.

Closed rules settle most cases: a single point at infinity forces
eta = 0, and on a genus-zero curve every degree-zero boundary cycle is
principal, so eta = r + c - 1.  Only a quartic y^2 = Q(x) needs the
Jacobian and the torsion search of `eta`.  This module reaches them
through `from . import eta`, which binds the package's unexecuted
module, so a curve that the closed rules decide never compiles `eta`
or `elliptic`: the first quartic does.  It reaches `curves` and `polys`
the same way, for `eta_full`'s one type check and for annotations.
The certificate records and their kinds live in `_certificates`, which
`eta` imports too, so a `sample` draw, which runs `eta` and builds no
curve spec, executes neither this module nor `curves`.
"""

from __future__ import annotations

from . import curves, eta, polys
# all six kinds, which callers read from this module too
from ._certificates import (GENUS_TOO_HIGH, NON_RATIONAL_FACTORIZATION, RULE_CONIC_TABLE,
                            RULE_ONE_POINT_AT_INFINITY, TORSION_COINCIDENCE,
                            TORSION_EXHAUSTED, Certificate, EtaResult)
from ._record import Record


# ---------------------------------------------------------------------------
# Closed rules
# ---------------------------------------------------------------------------

def eta_closed_rules(inv: curves.CurveInvariants) -> EtaResult | None:
    """Decide eta without any curve arithmetic, or return None.

    r + c = 1 forces eta = 0 (a single boundary point carries no
    degree-zero cycles): this covers odd-degree hyperelliptic curves,
    parabolas, lines, ellipses, imaginary ellipses, the non
    geometrically connected conic, and every y^2 = Q with negative
    leading coefficient and even degree.  A genus-zero curve with two
    boundary points (the hyperbola case) has eta = 1: the completion is
    a projective line, where every degree-zero divisor is principal.
    """
    r, c = inv.real_at_infinity, inv.complex_at_infinity
    if r + c == 1:
        return EtaResult(0, Certificate(RULE_ONE_POINT_AT_INFINITY))
    if inv.genus == 0 and inv.geometrically_connected and r + c == 2:
        return EtaResult(1, Certificate(RULE_CONIC_TABLE))
    return None


# ---------------------------------------------------------------------------
# Full dispatch and level bounds
# ---------------------------------------------------------------------------

class EtaAnalysis(Record):
    """eta of the curve itself and, when it can be reported, eta of its
    complexification (which drives the level bound when the real locus
    is empty)."""

    __slots__ = _fields = ("eta", "eta_complex")

    def __init__(self, eta: EtaResult, eta_complex: EtaResult | None):
        object.__setattr__(self, "eta", eta)
        object.__setattr__(self, "eta_complex", eta_complex)

    def to_json(self) -> dict:
        return {
            "eta": self.eta.to_json(),
            "eta_complex": None if self.eta_complex is None
            else self.eta_complex.to_json(),
        }


def eta_full(spec: curves.CurveSpec, inv: curves.CurveInvariants) -> EtaAnalysis:
    """Closed rules first; the elliptic pipeline for quartics with a
    positive leading coefficient; the twin quartic y^2 = -Q for the
    negative-leading-coefficient form (the complexifications of the two
    forms are isomorphic, so eta transfers); Undetermined for even
    degree >= 6, which has no finite decision procedure here.
    """
    closed = eta_closed_rules(inv)
    q = spec.q if isinstance(spec, curves.HyperellipticSpec) else None
    real = closed if closed is not None else _quartic_dispatch(q)
    return EtaAnalysis(eta=real, eta_complex=_eta_complex(q, inv, real))


def _quartic_dispatch(q: polys.UniPoly | None) -> EtaResult:
    """eta of y^2 = q for q with positive leading coefficient l.  When q
    is a quartic, y -> y/sqrt(l) maps the curve onto y^2 = q/l over R,
    and q/l has rational coefficients, so it runs the monic pipeline;
    non-rational-factorization then means that q/l has no rational
    normal form.  Any other degree is Undetermined."""
    if q is None or q.degree != 4:
        return EtaResult(None, Certificate(GENUS_TOO_HIGH))
    return eta.quartic_eta(q.monic())


def _eta_complex(q: polys.UniPoly | None, inv: curves.CurveInvariants,
                 real: EtaResult) -> EtaResult | None:
    if not inv.geometrically_connected:
        # the curve is isomorphic to one complex component, which here
        # has a single point at infinity
        return EtaResult(0, Certificate(RULE_ONE_POINT_AT_INFINITY))
    if inv.complex_at_infinity == 0:
        # only real points at infinity: eta over C equals eta over R
        return real
    if inv.genus == 0:
        # two conjugate boundary points on a genus-zero completion
        return EtaResult(1, Certificate(RULE_CONIC_TABLE))
    if q is not None and q.degree % 2 == 0 and q.numerators[-1] < 0:
        return _quartic_dispatch(-q)
    return None


class LevelReport(Record):
    """Level of the coordinate ring.  '1' when the curve is not
    geometrically connected (its constants hold a square root of -1);
    'infinite' when the real locus is nonempty (the ring is formally
    real); otherwise the level is 2 or 3, pinned to exactly 3 when eta
    of the complexification vanishes (a positive lower bound on the
    anti-invariant boundary rank is necessary for level 2)."""

    __slots__ = _fields = ("value", "reason")

    def __init__(self, value: str, reason: str):
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "reason", reason)

    def to_json(self) -> dict:
        return {"ring_level": self.value, "reason": self.reason}


def level_bounds(inv: curves.CurveInvariants,
                 eta_complex: EtaResult | None) -> LevelReport:
    """The level of the curve, from its invariants and eta of its
    complexification."""
    if not inv.geometrically_connected:
        return LevelReport("1", "the complexification is disconnected, so -1 is a square")
    if inv.components > 0:
        return LevelReport("infinite",
                           "real points exist, so the coordinate ring is formally real")
    if eta_complex is not None and eta_complex.value == 0:
        return LevelReport("3",
                           "eta of the complexification is 0, which rules out level 2")
    if eta_complex is not None and eta_complex.value == 1:
        return LevelReport("2 or 3",
                           "eta of the complexification is 1, which is necessary "
                           "but not sufficient for level 2")
    return LevelReport("2 or 3",
                       "eta of the complexification is undetermined")

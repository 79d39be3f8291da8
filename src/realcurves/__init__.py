"""Exact invariants of smooth real affine plane curves.

Given a conic or a hyperelliptic curve y^2 = Q(x), this package computes
the invariant tuple (genus, points at infinity, real components), the
mod-2 etale cohomology dimensions, the Witt group, the boundary
invariant eta with a machine-checkable certificate, the torsion Picard
group, unit groups modulo n, and level bounds -- all in exact rational
arithmetic.
"""

from .cohomology import CohomologyDims, etale_dims, quotient_space_dims
from .curves import (ConicClass, ConicSpec, CurveInvariants, CurveSpec,
                     HyperellipticSpec, HypothesisError, classify_conic,
                     hyperelliptic_invariants)
from .elliptic import (ECPoint, INFINITY, OffCurveError, SingularCurveError,
                       WeierstrassCurve, ec_add, ec_double, multiple,
                       torsion_order_bounded)
from .eta import (Certificate, EtaAnalysis, EtaResult, LevelReport,
                  QuarticParams, SearchStats, build_quartic_model,
                  eta_closed_rules, eta_from_params, eta_full, level_bounds,
                  quartic_eta, quartic_normal_form)
from .groups import GroupDescriptor, TRIVIAL_GROUP
from .parser import ParseError, parse_coefficient_list, parse_curve
from .picard import TwoCandidates, pic_tors, pic_tors_complex, units_mod_n
from .polys import UniPoly, count_real_roots, is_square_free, poly_gcd
from .report import InternalInconsistencyError, full_report
from .sampling import SampleBox, SampleSummary, run_sample
from .witt import witt_group

__version__ = "0.1.0"

__all__ = [
    "CohomologyDims", "etale_dims", "quotient_space_dims",
    "ConicClass", "ConicSpec", "CurveInvariants", "CurveSpec",
    "HyperellipticSpec", "HypothesisError", "classify_conic",
    "hyperelliptic_invariants",
    "ECPoint", "INFINITY", "OffCurveError", "SingularCurveError",
    "WeierstrassCurve", "ec_add", "ec_double", "multiple",
    "torsion_order_bounded",
    "Certificate", "EtaAnalysis", "EtaResult", "LevelReport",
    "QuarticParams", "SearchStats", "build_quartic_model",
    "eta_closed_rules", "eta_from_params", "eta_full", "level_bounds",
    "quartic_eta", "quartic_normal_form",
    "GroupDescriptor", "TRIVIAL_GROUP",
    "ParseError", "parse_coefficient_list", "parse_curve",
    "TwoCandidates", "pic_tors", "pic_tors_complex", "units_mod_n",
    "UniPoly", "count_real_roots", "is_square_free", "poly_gcd",
    "InternalInconsistencyError", "full_report",
    "SampleBox", "SampleSummary", "run_sample",
    "witt_group",
]

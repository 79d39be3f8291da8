"""Exact invariants of smooth real affine plane curves.

Given a conic or a hyperelliptic curve y^2 = Q(x), this package computes
the invariant tuple (genus, points at infinity, real components), the
mod-2 etale cohomology dimensions, the Witt group, the boundary
invariant eta with a machine-checkable certificate, the torsion Picard
group, unit groups modulo n, and level bounds -- all in exact rational
arithmetic.

Importing the package executes none of its modules.  Each one in
`_EXPORTS` is put in `sys.modules` and on the package through
`importlib.util.LazyLoader`, which compiles and runs it when one of its
attributes is first read, so a command compiles only the modules it
uses.  The public names resolve through `__getattr__`, on every access:
the package namespace holds the modules, never the objects in them.
"""

import os
import sys
from importlib.machinery import SourceFileLoader
from importlib.util import LazyLoader, module_from_spec, spec_from_file_location

__version__ = "0.1.0"

# each module and the public names it defines
_EXPORTS = {
    "cohomology": ("CohomologyDims", "etale_dims", "quotient_space_dims"),
    "curves": ("ConicClass", "ConicSpec", "CurveInvariants", "CurveSpec",
               "HyperellipticSpec", "classify_conic", "hyperelliptic_invariants"),
    "elliptic": ("INFINITY", "ec_add", "ec_double", "multiple"),
    "errors": ("HypothesisError", "InternalInconsistencyError", "OffCurveError",
               "ParseError", "SingularCurveError"),
    "eta": ("QuarticParams", "SearchStats", "build_quartic_model", "eta_from_params",
            "quartic_eta", "quartic_normal_form"),
    "eta_rules": ("Certificate", "EtaAnalysis", "EtaResult", "LevelReport",
                  "eta_closed_rules", "eta_full", "level_bounds"),
    "groups": ("GroupDescriptor", "TRIVIAL_GROUP"),
    "parser": ("parse_coefficient_list", "parse_curve"),
    "picard": ("pic_tors", "pic_tors_complex", "units_mod_n"),
    "polys": ("UniPoly", "count_real_roots", "is_square_free", "poly_gcd"),
    "rationals": (),
    "report": ("full_report",),
    "sampling": ("SampleBox", "SampleSummary", "run_sample"),
    "weierstrass": ("Point", "WeierstrassCurve", "torsion_order_bounded"),
    "witt": ("witt_group",),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_HOME)


def _lazy_submodule(module: str):
    """The submodule `module`, registered unexecuted; its spec is built
    from the package directory, with no search of sys.path.  One already
    in sys.modules, as on a re-import of the package, is kept, so that no
    module runs twice."""
    name = f"{__name__}.{module}"
    if name in sys.modules:
        return sys.modules[name]
    path = os.path.join(__path__[0], f"{module}.py")
    loader = LazyLoader(SourceFileLoader(name, path))
    lazy = module_from_spec(spec_from_file_location(name, path, loader=loader))
    sys.modules[name] = lazy
    loader.exec_module(lazy)
    return lazy


for _module in _EXPORTS:
    globals()[_module] = _lazy_submodule(_module)
del _module


def __getattr__(name: str):
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(globals()[module], name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})

"""The benchmark's per-layer tracer names functions of the package by
dotted path; a refactor that removes or renames one must fail here
rather than break a traced benchmark run."""

import importlib
import runpy
import sys
import types
from pathlib import Path

import realcurves
from realcurves import HyperellipticSpec, Point, QuarticParams, UniPoly, WeierstrassCurve

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_name_resolves():
    traced = runpy.run_path(str(SPANS), run_name="perfbench_spans")["TRACED"]
    assert traced
    for dotted in traced:
        module_name, *attributes = dotted.split(".")
        target = importlib.import_module(f"realcurves.{module_name}")
        for attribute in attributes:
            assert hasattr(target, attribute), f"{dotted} does not resolve"
            target = getattr(target, attribute)
        assert callable(target), f"{dotted} is not callable"



def _package_namespaces() -> dict:
    """Every attribute of the package's modules and of their classes."""
    names = {}
    for module_name, module in list(sys.modules.items()):
        if module_name.partition(".")[0] != "realcurves":
            continue
        for name, value in vars(module).items():
            names[module_name, name] = value
            if isinstance(value, type) and value.__module__ == module_name:
                for attribute, member in vars(value).items():
                    names[module_name, name, attribute] = member
    return names


def test_tracer_counts_constructor_and_methods_and_restores_them():
    before = _package_namespaces()
    tracer = runpy.run_path(str(SPANS), run_name="perfbench_spans")["Tracer"]()
    tracer.install(types.SimpleNamespace())
    try:
        spec = HyperellipticSpec(UniPoly([-1, 0, 1]))
        WeierstrassCurve(0, -1, 0).require(Point(0, 0))
    finally:
        tracer.remove()
    assert spec.real_roots == 2
    for dotted in ("curves.HyperellipticSpec", "polys.count_real_roots",
                   "elliptic.WeierstrassCurve.require"):
        assert tracer.calls[dotted] == 1, dotted
    after = _package_namespaces()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []


def test_tracer_sums_the_search_stats_of_each_decision():
    # the tracer hands eta_from_params a SearchStats and reads back its
    # relations_checked and max_multiple; the name is read through the
    # package after install, so the call reaches the wrapper
    tracer = runpy.run_path(str(SPANS), run_name="perfbench_spans")["Tracer"]()
    tracer.install(types.SimpleNamespace())
    try:
        # exhausted: all 6 relations of k = 0, the walk ends at 4p
        exhausted = realcurves.eta_from_params(QuarticParams(0, 1, 2, 3))
        # 2p = -p, order 3: the fifth relation of k = 4, found at 2p
        order_three = realcurves.eta_from_params(QuarticParams(4, 5, 6, 1))
    finally:
        tracer.remove()
    assert exhausted.value == 0
    assert (order_three.certificate.relation, order_three.certificate.order) == ("2p = -p", 3)
    assert tracer.calls["eta.eta_from_params"] == tracer.decisions == 2
    assert tracer.relations_checked == 6 + 5
    assert tracer.max_multiple_total == 4 + 2

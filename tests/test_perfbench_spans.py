"""The benchmark's per-layer tracer names functions of the package by
dotted path; a refactor that removes or renames one must fail here
rather than break a traced benchmark run."""

import importlib
import runpy
from pathlib import Path

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

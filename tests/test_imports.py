"""What importing the package loads, checked in a fresh interpreter run
with -S, so that nothing a site hook imports is counted."""

import os
import runpy
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"


def _modules_after(statement: str) -> set[str]:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run(
        [sys.executable, "-S", "-c",
         f"import sys\n{statement}\nprint('\\n'.join(sys.modules))"],
        env=env, capture_output=True, text=True, check=True, timeout=60).stdout
    return set(out.split())


def test_cli_import_loads_no_dataclasses_inspect_or_typing():
    loaded = _modules_after("import realcurves.cli")
    assert "realcurves.cli" in loaded
    assert not loaded & {"dataclasses", "inspect", "typing", "argparse", "gettext"}


def test_package_import_loads_every_traced_module():
    # the benchmark's tracer reads sys.modules["realcurves.<module>"]
    # right after `import realcurves`
    traced = runpy.run_path(str(SPANS), run_name="perfbench_spans")["TRACED"]
    loaded = _modules_after("import realcurves")
    for dotted in traced:
        assert f"realcurves.{dotted.split('.')[0]}" in loaded, dotted

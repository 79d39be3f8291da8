"""tools/cold_modules.py: the cold-start probe of one command line."""

import runpy
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "cold_modules.py"
PACKAGE = ROOT / "src" / "realcurves"


def _source_bytes(module: str) -> int:
    return (PACKAGE / f"{module.partition('.')[2]}.py").stat().st_size


def test_cold_call_reports_the_modules_of_one_ec_call():
    found = runpy.run_path(str(TOOL))["cold_call"](
        ["ec", "--curve", "0,-1,1", "double", "(0,1)"])
    assert (found["exit"], found["stdout"], found["stderr"]) == (0, "(1/4, -7/8)\n", "")
    assert found["executed"] == ["realcurves._cli_ec", "realcurves._record",
                                 "realcurves.cli", "realcurves.elliptic",
                                 "realcurves.errors", "realcurves.rationals",
                                 "realcurves.weierstrass"]
    assert "realcurves.report" in found["unexecuted"]
    assert "fractions" in found["stdlib"] and "realcurves" not in found["stdlib"]
    assert found["source_bytes"] == {name: _source_bytes(name)
                                     for name in found["executed"]}


def test_prints_exit_code_and_module_lists():
    out = subprocess.run([sys.executable, str(TOOL), "analyze", "x^2 + @ = 0"],
                         check=True, capture_output=True, text=True).stdout
    lines = out.splitlines()
    assert lines[0] == "exit 2"
    executed = ["realcurves._cli_analyze", "realcurves.cli", "realcurves.errors",
                "realcurves.parser", "realcurves.rationals"]
    assert lines[1] == f"executed (5): {' '.join(executed)}"
    assert lines[2].startswith("unexecuted (12): realcurves.cohomology ")
    assert lines[3].startswith("stdlib (")
    # the bytes of source of each executed module, right-aligned, then the total
    sizes = [_source_bytes(name) for name in executed]
    assert lines[4:] == ["source bytes of the executed modules:",
                         *(f"{size:8d}  {name}" for size, name in zip(sizes, executed)),
                         f"{sum(sizes):8d}  total"]

"""tools/cold_modules.py: the cold-start probe of one command line."""

import runpy
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "cold_modules.py"


def test_cold_call_reports_the_modules_of_one_ec_call():
    found = runpy.run_path(str(TOOL))["cold_call"](
        ["ec", "--curve", "0,-1,1", "double", "(0,1)"])
    assert (found["exit"], found["stdout"], found["stderr"]) == (0, "(1/4, -7/8)\n", "")
    assert found["executed"] == ["realcurves._record", "realcurves.cli",
                                 "realcurves.elliptic", "realcurves.errors",
                                 "realcurves.rationals"]
    assert "realcurves.report" in found["unexecuted"]
    assert "fractions" in found["stdlib"] and "realcurves" not in found["stdlib"]


def test_prints_exit_code_and_module_lists():
    out = subprocess.run([sys.executable, str(TOOL), "analyze", "x^2 + @ = 0"],
                         check=True, capture_output=True, text=True).stdout
    lines = out.splitlines()
    assert lines[0] == "exit 2"
    assert lines[1] == ("executed (7): realcurves._record realcurves.cli "
                        "realcurves.curves realcurves.errors realcurves.parser "
                        "realcurves.polys realcurves.rationals")
    assert lines[2].startswith("unexecuted (9): realcurves.cohomology ")
    assert lines[3].startswith("stdlib (")

"""tools/layer_times.py: per-call times of the layers of a sampler draw."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "layer_times.py"

LAYERS = ["draw_params", "QuarticParams.quartic", "quartic_normal_form",
          "build_quartic_model (draws)", "build_quartic_model (normal forms)",
          "eta_from_params (draws)", "eta_from_params (normal forms)",
          "run_sample(1, ...)"]


def test_prints_a_positive_time_for_each_layer():
    out = subprocess.run([sys.executable, str(TOOL), "3"],
                         check=True, capture_output=True, text=True, timeout=60).stdout
    lines = out.splitlines()
    assert [line[:36].rstrip() for line in lines] == LAYERS
    for line in lines:
        micros, unit = line[36:].split()
        assert unit == "us" and float(micros) > 0


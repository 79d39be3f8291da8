"""The output rule: a change that does not mean to change output leaves
the benchmark's seed-1 output digests as they are.

Each digest is the sha256 that `perfbench/run.py --seed 1` prints for
its workload: the canonical output of every input of the first pass
over the pool, one line each.  It is recomputed here from
`perfbench/workloads.py` and `run.canonical`, without a timed run.  A
change that alters output on purpose updates the pinned value."""

import hashlib
import runpy
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

SEED_1_DIGESTS = {
    "sample": "86a26e797aa4c579f48e5d320ef29cae95a63764771fdbaf3423326ebd3cf9a8",
    "jacobian": "3d30e5e6efe23dc66b51b77d2f8625d28143062cf241aaab3541d92803d10df5",
    "analyze": "fed562155bebdfa9eb9ea50c4d060c654ec3097ec39abc7da293b91f32af5284",
}


@pytest.mark.parametrize("name", list(SEED_1_DIGESTS))
def test_seed_1_pool_digest(name):
    workloads = runpy.run_path(str(PERFBENCH / "workloads.py"), run_name="perfbench_workloads")
    canonical = runpy.run_path(str(PERFBENCH / "run.py"), run_name="perfbench_run")["canonical"]
    workload = workloads["WORKLOADS"][name](1)
    digest = hashlib.sha256()
    for i in range(workload.pool_size):
        item = workload.item(i)
        digest.update(canonical(workload, item, workload.run(item)).encode() + b"\n")
    assert digest.hexdigest() == SEED_1_DIGESTS[name]

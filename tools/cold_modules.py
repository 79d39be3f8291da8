"""What a cold command-line call runs: the cold-start probe.

    python3 tools/cold_modules.py ARGUMENT...

runs `realcurves.cli.main(ARGUMENT...)` once, in a fresh interpreter
started with -S (so that nothing a site hook imports counts) on this
repository's src/, and prints its exit code, the `realcurves` modules
that executed and those left unexecuted, and the other modules that the
import of `realcurves.cli` and the call loaded: the standard library's.
A module that `import realcurves` registered through `LazyLoader` and
that no call has read yet is unexecuted.  Last it prints the bytes of
source of each executed module, then their total: what a cold call
with no bytecode cache compiles beside the package's `__init__`, a
fixed stand-in for its compile time, which varies from run to run.
For example

    python3 tools/cold_modules.py analyze --json "x^2 + y^2 - 1 = 0"

`cold_call(argv)` returns the same as a dict, with the call's stdout and
stderr; the tests use it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# run with -S: the modules loaded before the probe's import are the
# interpreter's own, and a module is executed once its type is no longer
# the lazy loader's
_CHILD = """\
import io, sys
before = set(sys.modules)
import realcurves.cli
streams = sys.stdout, sys.stderr
sys.stdout, sys.stderr = io.StringIO(), io.StringIO()
try:
    code = realcurves.cli.main(sys.argv[1:])
finally:
    out, err = sys.stdout.getvalue(), sys.stderr.getvalue()
    sys.stdout, sys.stderr = streams
loaded = sorted(set(sys.modules) - before)
package = [name for name in sorted(sys.modules) if name.startswith("realcurves.")]
executed = [name for name in package if type(sys.modules[name]) is type(sys)]
import json, os
print(json.dumps({
    "exit": code,
    "executed": executed,
    "unexecuted": [name for name in package if name not in executed],
    "source_bytes": {name: os.path.getsize(sys.modules[name].__file__)
                     for name in executed},
    "stdlib": [name for name in loaded if name.partition(".")[0] != "realcurves"],
    "stdout": out,
    "stderr": err,
}))
"""


def cold_call(argv: list[str]) -> dict:
    """The exit code, the executed and unexecuted `realcurves` modules,
    the other modules loaded, the bytes of source of each executed
    module, and the stdout and stderr of one `realcurves.cli.main(argv)`
    in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-S", "-c", _CHILD, *argv], env=env,
                          capture_output=True, text=True, check=True, timeout=120)
    return json.loads(proc.stdout)


def main(argv: list[str]) -> int:
    found = cold_call(argv)
    print(f"exit {found['exit']}")
    for key in ("executed", "unexecuted", "stdlib"):
        print(f"{key} ({len(found[key])}): {' '.join(found[key])}")
    sizes = found["source_bytes"]
    print("source bytes of the executed modules:")
    for name, size in sizes.items():
        print(f"{size:8d}  {name}")
    print(f"{sum(sizes.values()):8d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""realcurves benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload sample|jacobian|analyze \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its `src/`.
One process, one thread, a closed loop with a single caller: each
operation starts only after the previous one returned and was checked.

--trace 0 prints the end-to-end metrics: set-up time (median of fresh
processes), throughput, median and tail latency of one operation, peak
memory, and the median wall time of a cold CLI call.  --trace 1 prints
the per-layer metrics from a run with spans around the public functions
(see spans.py) and the tracing overhead against an untraced pass made
after the wrappers were removed.  The last line of standard output is
the JSON result; the lines before it repeat every metric with its unit,
the unscaled timings, the run environment, the output digest and any
failed check.  A copy of everything goes to .perfbench_out/ in the
checkout.

Timings are given in nominal seconds.  A shared 2-CPU VM was measured
changing speed by up to a factor of two for seconds to minutes at a time,
which no run length averages away.  So the run also times a fixed
integer loop (`reference_seconds`) every REF_EVERY_S seconds, and each
operation time is multiplied by REF_NOMINAL_S over the median of the
REF_WINDOW loop timings nearest to it: a nominal second is the time in
which that loop runs 1000 times.  The loop is plain interpreter work that
no change to the package can touch.  Each set-up probe scales its own
set-up by the loop timed around it.  Process start-up did not follow the
loop's speed, so the wall times of whole processes (CLI calls, imports)
are scaled instead by PROC_NOMINAL_S over the time of a bare
`python -c pass` started just before each of them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from bisect import bisect_left
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCHEMA = ROOT / "docs" / "schema.json"
OUT_DIR = ROOT / ".perfbench_out"

CLI_SHARE = 1 / 3       # share of --seconds spent on cold CLI calls (--trace 0)
MIN_CLI_CALLS = 5
SLICES = 32             # throughput and median latency: medians over slices
SETUP_REPEATS = 11      # set-up is timed in this many fresh processes
SETUP_REFS = 5          # reference loop timings before and after each set-up
IMPORT_REPEATS = 5
# The tail is TAIL_PERCENTILE of the operation times in each of
# TAIL_GROUPS contiguous parts of the run; the value is the median over the
# parts.  The percentile is fixed, so that every commit is measured on the
# same one whatever its speed.  p99 spread by 0.105 between six `jacobian`
# runs, and p95 by 0.106 between ten `sample` runs; p90 stayed within 0.06
# on every workload (perfbench/README.md).
TAIL_PERCENTILE = 90
TAIL_GROUPS = 3
MEMORY_OPS = 500        # operations run by the peak-memory probe
PROC_NOMINAL_S = 0.065  # a bare interpreter's start-up on the nominal machine
SUBPROCESS_TIMEOUT = 120
REF_NOMINAL_S = 1e-3    # the reference loop's time on the nominal machine
REF_EVERY_S = 0.02      # time the reference loop this often during a run
# An operation is scaled by the median of this many nearest loop timings
# (about half a second).  With 5, the noise of the median itself widened
# the tail: its spread between runs rose from 0.05 unscaled to 0.16.
REF_WINDOW = 25


def reference_seconds() -> float:
    """Time one pass of a fixed loop of 64-bit LCG steps and Euclid's
    algorithm: big-integer interpreter work like the package's own."""
    start = perf_counter()
    x = 1
    for i in range(1, 350):
        x = (x * 6364136223846793005 + 1442695040888963407) % 18446744073709551557
        a, b = x * x, i * 7919 + x
        while b:
            a, b = b, a % b
    return perf_counter() - start


def to_nominal(refs: list[float]) -> float:
    """Factor from measured to nominal seconds, given reference timings
    taken in the same stretch of time."""
    return REF_NOMINAL_S / statistics.median(refs)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("sample", "jacobian", "analyze"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)  # time one set-up and exit
    parser.add_argument("--memory-probe", action="store_true",
                        help=argparse.SUPPRESS)  # peak memory of a bare run
    return parser.parse_args(argv)


def spawn(argv: list[str]):
    """Run the interpreter on `argv` from the checkout root with the
    package on its path; returns the finished process and its seconds."""
    start = perf_counter()
    proc = subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          cwd=ROOT, env={**os.environ, "PYTHONPATH": str(SRC)},
                          timeout=SUBPROCESS_TIMEOUT)
    return proc, perf_counter() - start


def bare_start() -> float:
    """Seconds of a bare `python -c pass`: the reference for timings of
    other processes, scaled to PROC_NOMINAL_S."""
    return spawn(["-c", "pass"])[1]


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def set_up(name: str, seed: int):
    """Import the package, generate the inputs and warm up; returns the
    workload and the seconds it took."""
    start = perf_counter()
    import workloads  # imports realcurves: the first import in this process

    workload = workloads.WORKLOADS[name](seed)
    for item in workload.warm_up_items():
        workload.run(item)
    return workload, perf_counter() - start


def nominal_set_up(name: str, seed: int) -> float:
    """Nominal seconds of one set-up, scaled by the reference loop timed
    SETUP_REFS times before it and as often after it."""
    refs = [reference_seconds() for _ in range(SETUP_REFS)]
    seconds = set_up(name, seed)[1]
    refs += [reference_seconds() for _ in range(SETUP_REFS)]
    return seconds * to_nominal(refs)


def probe(args, flag: str) -> float:
    """Run this script with a probe flag in a fresh process; returns the
    number it prints."""
    proc = spawn([str(Path(__file__).resolve()), flag,
                  "--workload", args.workload, "--seed", str(args.seed),
                  "--seconds", str(args.seconds), "--trace", "0"])[0]
    if proc.returncode != 0:
        raise RuntimeError(f"{flag} failed: {proc.stderr[-500:]}")
    return float(proc.stdout)


def bare_run_peak_mb(workload) -> float:
    """Peak memory of a process that only sets up and runs the first
    MEMORY_OPS operations, dropping their outputs: no checks, digest or
    timing lists of the measuring process count in it."""
    for i in range(MEMORY_OPS):
        workload.run(workload.item(i))
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

class Run:
    """Outcome of one measured loop over a workload."""

    def __init__(self):
        self.times: list[float] = []   # measured seconds per timed operation
        self.ok: list[bool] = []
        self.refs: list[tuple[int, float]] = []  # (op index, reference seconds)
        self.attempted = 0
        self.failures: list[tuple[str, str]] = []  # (input, reason)
        self.digest = ""

    def record(self, item, reason) -> bool:
        self.attempted += 1
        if reason is not None:
            self.failures.append((repr(item)[:300], reason))
        return reason is None

    def factor(self) -> float:
        return to_nominal([r for _, r in self.refs])

    def nominal_times(self) -> list[float]:
        """Each operation's time scaled by the REF_WINDOW reference
        timings nearest to it."""
        at = [i for i, _ in self.refs]
        refs = [r for _, r in self.refs]
        last = max(len(refs) - REF_WINDOW, 0)
        factors = [to_nominal(refs[w:w + REF_WINDOW]) for w in range(last + 1)]
        return [t * factors[min(max(bisect_left(at, i) - REF_WINDOW // 2, 0), last)]
                for i, t in enumerate(self.times)]

    def slices(self):
        """(nominal op times, ok flags) of SLICES equal slices of the run."""
        nominal = self.nominal_times()
        n = len(nominal)
        for k in range(SLICES):
            lo, hi = k * n // SLICES, (k + 1) * n // SLICES
            yield nominal[lo:hi], self.ok[lo:hi]

    def throughput(self) -> float:
        """Median over the slices of correct ops per nominal second spent
        inside the operation."""
        return statistics.median(sum(ok) / math.fsum(times)
                                 for times, ok in self.slices() if times)

    def median_ms(self) -> float:
        """Median over the slices of the median nominal operation time."""
        return statistics.median(statistics.median(times)
                                 for times, _ in self.slices() if times) * 1e3


def measure(workload, seconds: float, between=None) -> Run:
    """Run operations for `seconds`; `between(elapsed)` is called after
    each one, outside its timing."""
    run = Run()
    digest = hashlib.sha256()  # canonical outputs of the first pass
    begin = perf_counter()
    next_ref = 0.0
    i = 0
    while i < SLICES or perf_counter() < begin + seconds:
        if perf_counter() >= next_ref:
            run.refs.append((i, reference_seconds()))
            next_ref = perf_counter() + REF_EVERY_S
        item = workload.item(i)
        start = perf_counter()
        out = workload.run(item)
        elapsed = perf_counter() - start
        run.times.append(elapsed)
        run.ok.append(run.record(item, workload.check(item, out)))
        if i < workload.pool_size:
            digest.update(canonical(workload, item, out).encode() + b"\n")
        if between is not None:
            between(perf_counter() - begin)
        i += 1
    # finish the first pass untimed, so the digest covers the whole pool
    for j in range(i, workload.pool_size):
        item = workload.item(j)
        out = workload.run(item)
        run.record(item, workload.check(item, out))
        digest.update(canonical(workload, item, out).encode() + b"\n")
    run.digest = digest.hexdigest()
    return run


def canonical(workload, item, out) -> str:
    if isinstance(out, Exception):
        return json.dumps([repr(item), type(out).__name__, str(out)])
    return workload.canonical(item, out)


class CliSampler:
    """Cold CLI calls spread over a run: after an operation, one call is
    made whenever the calls so far took less than CLI_SHARE of the time,
    so that they sample the same stretches of machine speed as the
    operations do.  Each call follows a bare `python -c pass`, whose
    start-up time plays the part of the reference loop for processes."""

    def __init__(self, workload):
        self.workload = workload
        self.run = Run()             # attempts and failures of the calls
        self.times: list[float] = []  # measured seconds per call
        self.starts: list[float] = []  # measured seconds per bare start-up

    def __call__(self, elapsed: float) -> None:
        if math.fsum(self.times) + math.fsum(self.starts) < CLI_SHARE * elapsed:
            self.call()

    def call(self) -> None:
        argv, context = self.workload.cli_argv(len(self.times))
        self.starts.append(bare_start())
        proc, seconds = spawn(["-m", "realcurves.cli", *argv])
        self.times.append(seconds)
        self.run.record(["realcurves", *argv], self.workload.check_cli(context, proc))

    def median_ms(self) -> float:
        """Median call time in nominal ms."""
        return proc_nominal(self.times, self.starts) * 1e3


def proc_nominal(times: list[float], starts: list[float]) -> float:
    """Median nominal seconds of processes: each one's time is scaled by
    PROC_NOMINAL_S over the bare start-up timed just before it."""
    return statistics.median(t / s for t, s in zip(times, starts)) * PROC_NOMINAL_S


def import_seconds():
    """Measured seconds of `import realcurves.cli` in fresh interpreters,
    and the bare start-up seconds timed before each."""
    code = ("import time; t = time.perf_counter(); import realcurves.cli; "
            "print(time.perf_counter() - t)")
    times, starts = [], []
    for _ in range(IMPORT_REPEATS):
        starts.append(bare_start())
        proc = spawn(["-c", code])[0]
        if proc.returncode != 0:
            raise RuntimeError(f"import probe failed: {proc.stderr[-500:]}")
        times.append(float(proc.stdout))
    return times, starts


def tail(times: list[float]):
    """(value, samples beyond it per group): the median of TAIL_PERCENTILE
    over TAIL_GROUPS contiguous groups, so that one burst of machine noise
    moves one group only."""
    size = len(times) // TAIL_GROUPS
    rank = max(math.ceil(TAIL_PERCENTILE / 100 * size), 1)
    groups = [sorted(times[g * size:(g + 1) * size]) for g in range(TAIL_GROUPS)]
    return statistics.median(g[rank - 1] for g in groups), size - rank


# ---------------------------------------------------------------------------
# environment and output
# ---------------------------------------------------------------------------

def environment(seed: int) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=60)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {"python": platform.python_version(), "cpu": cpu,
            "nproc": len(os.sched_getaffinity(0)), "seed": seed, "commit": commit}


def end_to_end(args, workload, own_setup: float):
    setups = [probe(args, "--setup-probe") for _ in range(SETUP_REPEATS)]
    cli = CliSampler(workload)
    run = measure(workload, args.seconds, between=cli)
    while len(cli.times) < MIN_CLI_CALLS:
        cli.call()
    tail_s, beyond = tail(run.nominal_times())
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "throughput_per_s": (run.throughput(), "1/s"),
        "op_ms_p50": (run.median_ms(), "ms"),
        "op_ms_tail": (tail_s * 1e3, "ms"),
        "peak_rss_mb": (probe(args, "--memory-probe"), "MB"),
        "cli_ms_p50": (cli.median_ms(), "ms"),
    }
    refs = [r for _, r in run.refs]
    notes = [
        f"setup_s: median of {len(setups)} fresh processes, nominal "
        f"{[round(s, 4) for s in setups]}; this process measured {own_setup:.4f} s",
        f"peak_rss_mb: ru_maxrss of a fresh process that set up and ran "
        f"{MEMORY_OPS} operations without checks",
        f"op_ms_tail: median over {TAIL_GROUPS} thirds of the run of their "
        f"p{TAIL_PERCENTILE}; "
        f"n={len(run.times)} operations, {beyond} beyond it in each third",
        f"cli_ms_p50: median of {len(cli.times)} cold "
        f"`realcurves {workload.cli_argv(0)[0][0]}` calls, measured "
        f"{statistics.median(cli.times) * 1e3:.4f} ms; bare start-up measured "
        f"{statistics.median(cli.starts) * 1e3:.4f} ms, nominal {PROC_NOMINAL_S * 1e3:g} ms",
        f"reference loop: median {statistics.median(refs) * 1e3:.4f} ms over "
        f"{len(refs)} timings (min {min(refs) * 1e3:.4f}, max {max(refs) * 1e3:.4f});"
        f" nominal {REF_NOMINAL_S * 1e3:g} ms",
        f"measured, unscaled: throughput_per_s {sum(run.ok) / math.fsum(run.times):.4f}"
        f" (all ops), op_ms_p50 {statistics.median(run.times) * 1e3:.4f},"
        f" op_ms_tail {tail(run.times)[0] * 1e3:.4f}",
    ]
    return metrics, notes, [run, cli.run]


def per_layer(args, workload):
    from spans import Tracer

    tracer = Tracer()
    tracer.install(workload)
    try:
        traced = measure(workload, args.seconds / 2)
    finally:
        tracer.remove()
    untraced = measure(workload, args.seconds / 2)
    if traced.digest != untraced.digest:
        traced.failures.append(("<digest>", "traced and untraced outputs differ"))
    ops = max(len(traced.times), workload.pool_size)
    metrics = tracer.per_op_metrics(ops, traced.factor())
    imports, starts = import_seconds()
    metrics["cli.import_ms"] = (proc_nominal(imports, starts) * 1e3, "ms")
    ratio = traced.throughput() / untraced.throughput()
    metrics["trace.throughput_ratio"] = (ratio, "ratio")
    notes = [
        f"tracing overhead: traced/untraced throughput_per_s = {ratio:.4f} (base: "
        f"untraced {untraced.throughput():.2f} 1/s over {len(untraced.times)} ops; "
        f"traced {traced.throughput():.2f} 1/s over {len(traced.times)} ops)",
        f"self_ms are nominal: measured x {traced.factor():.4f}",
        f"cli.import_ms: median of {len(imports)} fresh interpreters, measured "
        f"{statistics.median(imports) * 1e3:.4f} ms; bare start-up measured "
        f"{statistics.median(starts) * 1e3:.4f} ms",
    ]
    return metrics, notes, [traced, untraced]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "realcurves" / "__init__.py").is_file() or not SCHEMA.is_file():
        print(f"perfbench: {ROOT} has no src/realcurves package or docs/schema.json;"
              " run from the root of a realcurves checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        print(nominal_set_up(args.workload, args.seed))
        return 0
    if args.memory_probe:
        print(bare_run_peak_mb(set_up(args.workload, args.seed)[0]))
        return 0

    env = environment(args.seed)
    workload, own_setup = set_up(args.workload, args.seed)
    import realcurves

    if not Path(realcurves.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: realcurves was imported from {realcurves.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    if args.trace == 0:
        metrics, notes, runs = end_to_end(args, workload, own_setup)
    else:
        metrics, notes, runs = per_layer(args, workload)

    attempted = sum(r.attempted for r in runs)
    failures = [f for r in runs for f in r.failures]
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print("# environment " + json.dumps(env))
    print(f"# digest {args.workload} seed={args.seed} pool={workload.pool_size} "
          f"sha256={runs[0].digest}")
    for note in notes:
        print(f"# {note}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")
    print(f"failed_ratio = {len(failures)}/{attempted} = "
          f"{len(failures) / attempted} ratio")
    for text, reason in failures:
        print(f"FAILED {text}: {reason}")
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"environment": env, "digest": runs[0].digest, "notes": notes,
                    "failures": failures, **result}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

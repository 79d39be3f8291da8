"""Repeat the benchmark over consecutive seeds and summarize each metric.

    python3 perfbench/record.py [--workloads sample,jacobian,analyze]
        [--runs 10] [--first-seed 1] [--traced] [--append LABEL]

Run from the root of a checkout.  For every workload it makes `--runs`
untraced runs of `run.py`, one seed each, with `run_seconds` from
BENCHMARK.json, and prints per end-to-end metric the median, the
quartiles (statistics.quantiles, n=4) and the spread (q3 - q1) / median
next to the metric's bound.  `--traced` adds one traced run per workload
at the first seed.  `--append LABEL` adds the summary as a new entry of
perfbench/trajectory.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TRAJECTORY = HERE / "trajectory.json"


def one_run(config: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = [*config["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(config["run_seconds"]), "--trace", str(trace)]
    cmd[0] = sys.executable if cmd[0] == "python3" else cmd[0]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-800:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    details = json.loads((ROOT / ".perfbench_out" /
                          f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return {**result, "digest": details["digest"], "notes": details["notes"],
            "failures": details["failures"], "environment": details["environment"]}


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf"),
            "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--append", metavar="LABEL")
    args = parser.parse_args(argv)

    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in config["workloads"]])
    seeds = range(args.first_seed, args.first_seed + args.runs)
    entry = {"label": args.append, "run_seconds": config["run_seconds"],
             "seeds": list(seeds), "workloads": {}}
    steady = True
    for workload in names:
        runs = [one_run(config, workload, seed, 0) for seed in seeds]
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        summary = {
            "end_to_end": {name: summarize([r["metrics"][name]["value"] for r in runs])
                           for name in bounds},
            "attempted": attempted, "failed": failed,
            "failed_ratio": failed / attempted,
            "failures": [f for r in runs for f in r["failures"]],
            "digests": {str(seed): r["digest"] for seed, r in zip(seeds, runs)},
            "notes": runs[0]["notes"],
        }
        entry["environment"] = runs[0]["environment"]
        print(f"{workload}: failed_ratio {failed}/{attempted}")
        for name, s in summary["end_to_end"].items():
            ok = s["spread"] < bounds[name] / 3
            steady &= ok
            print(f"  {name:18} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}"
                  f"  spread {s['spread']:.4f}  bound {bounds[name]}"
                  f"  {'ok' if ok else 'WIDE'}")
        if args.traced:
            traced = one_run(config, workload, args.first_seed, 1)
            summary["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
            summary["trace_notes"] = traced["notes"]
            summary["failed"] += traced["failed"]
            summary["attempted"] += traced["attempted"]
            summary["failures"] += traced["failures"]
        entry["workloads"][workload] = summary
        sys.stdout.flush()

    if args.append:
        history = json.loads(TRAJECTORY.read_text()) if TRAJECTORY.exists() else []
        history.append(entry)
        TRAJECTORY.write_text(json.dumps(history, indent=1) + "\n")
    print("steady: every spread is under a third of its bound"
          if steady else "NOT steady")
    return 0


if __name__ == "__main__":
    sys.exit(main())

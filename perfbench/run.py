"""Simulator benchmark: one workload per call, or every workload with --all.

    python3 perfbench/run.py --workload wide_fleet --seed 1 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 5

Workloads and metrics are the ones ``BENCHMARK.json`` lists.  For each call
the benchmark first runs the workload once on the exact event loop in its
own process to get the reference output digest (fleet workloads only), then
measures the workload in a fresh process: untraced for the end-to-end
metrics (``--trace 0``), or alternating traced and untraced iterations for
the per-layer metrics (``--trace 1``).  Every measured run is checked; one
``run`` line per run records its timings, engine path and any error.  The
last line of output is the JSON result.  All times are host wall seconds;
simulated time is never a metric.

The program is imported from ``src/`` next to this directory, never from an
installed copy; without it the benchmark exits non-zero and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Every call must end within this many seconds, children included.
BUDGET_S = 170.0


def _child(mode: str, workload: str, seed: int, seconds: float, deadline: float,
           reference: str | None = None) -> dict:
    cmd = [
        sys.executable,
        str(ROOT / "perfbench" / "measure.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--mode", mode,
    ]
    if reference is not None:
        cmd += ["--reference", reference]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        cmd,
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        timeout=max(1.0, deadline - time.monotonic()),
        check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(spec: dict, workload: str, seed: int, seconds: float, trace: bool,
            deadline: float) -> dict:
    """One benchmark call: the result object plus every run's record."""
    reference = _child("reference", workload, seed, seconds, deadline)["digest"]
    mode = "traced" if trace else "timed"
    out = _child(mode, workload, seed, seconds, deadline, reference)
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in out["metrics"]]
    if missing:
        raise RuntimeError(f"{workload}: measurement lacks metrics {missing}")
    failed = sum("error" in run for run in out["runs"])
    return {
        "result": {
            "correct": failed == 0,
            "attempted": len(out["runs"]),
            "failed": failed,
            "metrics": {
                m["name"]: {"value": out["metrics"][m["name"]], "unit": m["unit"]}
                for m in wanted
            },
        },
        "runs": out["runs"],
    }


def _load_spec() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (ROOT / "src" / "repro" / "traffic").is_dir():
        sys.exit(f"no simulator source under {ROOT / 'src'}; nothing to measure")
    return spec


def _print_runs(workload: str, runs: list[dict]) -> None:
    for run in runs:
        print("run", json.dumps({"workload": workload, **run}))


def run_all(spec: dict, seed: int, seconds: float) -> bool:
    """Every workload, untraced then traced, as one table; True when all pass."""
    rows = []
    attempted = failed = 0
    for w in spec["workloads"]:
        runs = []
        for trace in (False, True):
            out = measure(
                spec, w["name"], seed, seconds, trace, time.monotonic() + BUDGET_S
            )
            _print_runs(w["name"], out["runs"])
            runs += out["runs"]
            for name, m in out["result"]["metrics"].items():
                rows.append((w["name"], name, m["value"], m["unit"]))
        errors = sum("error" in run for run in runs)
        rows.append((w["name"], "error_rate", errors / len(runs), "ratio"))
        attempted += len(runs)
        failed += errors
    width = max(len(r[1]) for r in rows)
    for workload, name, value, unit in rows:
        print(f"{workload:<20} {name:<{width}} {value:>16.6g} {unit}")
    print(json.dumps({"attempted": attempted, "failed": failed}))
    return failed == 0


def main() -> None:
    parser = argparse.ArgumentParser(description="Simulator benchmark.")
    parser.add_argument("--workload")
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, help="measuring time per call (default: run_seconds)"
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec = _load_spec()
    seconds = args.seconds or spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    if args.all:
        sys.exit(0 if run_all(spec, args.seed, seconds) else 1)
    if args.workload not in names:
        parser.error(f"--workload must be one of {names}")
    out = measure(
        spec, args.workload, args.seed, seconds, bool(args.trace),
        time.monotonic() + BUDGET_S,
    )
    _print_runs(args.workload, out["runs"])
    result = out["result"]
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()

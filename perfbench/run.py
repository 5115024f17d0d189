"""cvwerner benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload eval_points --seed 1 --seconds 15 --trace 0

Run from the repository root. Each run starts its workload in a fresh
process (so peak memory is the workload's own) with the BLAS/OpenMP thread
count pinned to one. Untraced runs (``--trace 0``) print the end-to-end
metrics; ``setup_s`` is the median over SETUP_SAMPLES fresh processes,
each importing cvwerner and finishing one warm-up call. Traced runs
(``--trace 1``) print the per-layer metrics instead and write their spans.
Every run writes its full result, with the machine and library versions,
to ``perfbench/results/``. The exit code is 0 only when a result was
measured and every output passed its checks.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 3
RUN_TIMEOUT_S = 170  # every child together; a run must end within 180 s
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"), ("op_p50_ms", "ms"))


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(args, extra: list[str], deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=max(deadline - time.monotonic(), 1.0))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "cvwerner" / "__init__.py").is_file():
        print(f"cvwerner sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    results = HERE / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    extra = ["--spans", str(results / f"{stem}-spans.json")] if args.trace else []
    deadline = time.monotonic() + RUN_TIMEOUT_S
    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(run_worker(args, ["--setup-only"], deadline)["setup_s"])
    result = run_worker(args, extra, deadline)
    setups.append(result["setup_s"])
    result["setup_samples"] = setups
    result["setup_s"] = statistics.median(setups)

    if args.trace:
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in result["layers"].items()}
    else:
        metrics = {name: {"value": result[name], "unit": unit} for name, unit in END_TO_END}
    named = {name: {"value": value, "unit": unit} for name, (value, unit) in result["named"].items()}
    with open(results / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({**result, "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "metrics": metrics, "named": named}, fh, indent=1)
    print("env: " + json.dumps(result["env"]))
    print("named: " + json.dumps(named))
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

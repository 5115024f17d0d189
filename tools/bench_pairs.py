"""Run the benchmark on two checkouts in alternating pairs and compare them.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --pairs 10 --workload spectrum_oracle

For each workload and each pair i, it runs the command that
``BENCHMARK.json`` (read from CHANGE_DIR) declares, with
``--workload W --seed S+i --seconds T --trace 0``, once in each checkout,
both on the same seed; T is the file's ``run_seconds``. The parent runs
first in even pairs and the change in odd ones, so a drift in the host's
speed does not favour one side.
Each run is a fresh process from the checkout's own root and writes its
record under that checkout's ``perfbench/results/``; nothing else is
written.

For every end-to-end metric it prints each side's median and quartiles,
the ratio of the medians (change over parent), the pairs the change won
(ties count for neither), whether the change's median is worse than the
parent's by more than the metric's bound, and whether a gain could be
claimed: at least ten pairs ran, the change wins at least nine tenths of
them, its median is better by more than the distance between the parent's
quartiles, and no larger share of its operations failed.
Below them come ungated rows for the per-op sample medians that a run
prints on its ``named:`` line (SAMPLE_METRICS): each side's median and
quartiles and their ratio, with no bound and no claim, so that the median
op time can be read next to the p90-based ``wall_s``. A last ungated row
gives the ops each run attempted, because a run that completes more ops
in its fixed time keeps more latencies and so reads a higher
``peak_rss_mb``.
Only the standard library is used.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SAMPLE_METRICS = ("validate_pass_s", "spectrum_p50_ms", "eval_p50_ms")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), by linear interpolation
    between the sorted values; a single value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(parent: list[float], change: list[float], better: str, bound: float,
              failed: tuple[float, float]) -> dict:
    """Compare one metric over pairs: ``parent[i]`` and ``change[i]`` ran on
    the same seed. ``better`` is "lower" or "higher"; ``bound`` is the
    relative worsening of the median that counts as a regression;
    ``failed`` is the share of failed operations over all runs of the
    parent and of the change."""
    if len(parent) != len(change) or not parent:
        raise ValueError(f"need equal, nonempty run lists, got {len(parent)} and {len(change)}")
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    sign = 1.0 if better == "lower" else -1.0
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    wins = sum(sign * (c - p) < 0.0 for p, c in zip(parent, change))
    gain = sign * (p_med - c_med)  # > 0 when the change's median is better
    return {
        "pairs": len(parent),
        "parent": (p_q1, p_med, p_q3),
        "change": (c_q1, c_med, c_q3),
        "ratio": c_med / p_med if p_med else float("nan"),
        "wins": wins,
        "breach": -gain > bound * abs(p_med),
        "claimable": (len(parent) >= 10 and wins >= 0.9 * len(parent)
                      and gain > p_q3 - p_q1 and failed[1] <= failed[0]),
    }


def _side(q: tuple[float, float, float]) -> str:
    return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"


def format_row(name: str, unit: str, s: dict) -> str:
    return (f"  {name} ({unit}): parent {_side(s['parent'])}  change {_side(s['change'])}"
            f"  ratio {s['ratio']:.3f}  wins {s['wins']}/{s['pairs']}"
            f"  {'BREACH' if s['breach'] else 'within bound'}"
            f"{'  claimable' if s['claimable'] else ''}")


def format_sample_row(name: str, unit: str, parent: list[float], change: list[float]) -> str:
    """The ungated row of a ``named:`` sample metric over the pairs."""
    p, c = quartiles(parent), quartiles(change)
    ratio = c[1] / p[1] if p[1] else float("nan")
    return (f"  {name} ({unit}, not gated): parent {_side(p)}  change {_side(c)}"
            f"  ratio {ratio:.3f}")


def run_once(command: list[str], root: Path, workload: str, seed: int, seconds: int) -> dict:
    """One untraced run in ``root``: its last stdout line, parsed, with the
    metrics of its ``named:`` line (none if it printed none) under "named"."""
    cmd = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {root} printed nothing (exit {proc.returncode})")
    result = json.loads(lines[-1])
    named = [line.removeprefix("named: ") for line in lines if line.startswith("named: ")]
    result["named"] = json.loads(named[-1]) if named else {}
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable); default: every one in BENCHMARK.json")
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    bench = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    ok = True
    for workload in workloads:
        runs = {"parent": [], "change": []}
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                root = args.parent if side == "parent" else args.change
                result = run_once(bench["command"], root, workload, args.first_seed + i, seconds)
                runs[side].append(result)
                print(f"{workload} pair {i + 1} {side}: "
                      + json.dumps({k: v["value"] for k, v in result["metrics"].items()}),
                      file=sys.stderr, flush=True)
        print(f"{workload} ({args.pairs} pairs, {seconds:g} s runs, seeds "
              f"{args.first_seed}-{args.first_seed + args.pairs - 1}):")
        shares = []
        for side, results in runs.items():
            bad = [r for r in results if not r["correct"] or r["failed"]]
            ok &= not bad
            failed = sum(r["failed"] for r in results)
            attempted = sum(r["attempted"] for r in results)
            shares.append(failed / attempted if attempted else 0.0)
            print(f"  {side}: {len(results) - len(bad)}/{len(results)} runs correct, "
                  f"{failed} of {attempted} ops failed")
        for metric in bench["end_to_end"]:
            name = metric["name"]
            summary = summarize([r["metrics"][name]["value"] for r in runs["parent"]],
                                [r["metrics"][name]["value"] for r in runs["change"]],
                                metric["better"], metric["bound"], tuple(shares))
            ok &= not summary["breach"]
            print(format_row(name, metric["unit"], summary))
        for name in SAMPLE_METRICS:
            if all(name in r["named"] for r in runs["parent"] + runs["change"]):
                print(format_sample_row(name, runs["change"][0]["named"][name]["unit"],
                                        [r["named"][name]["value"] for r in runs["parent"]],
                                        [r["named"][name]["value"] for r in runs["change"]]))
        print(format_sample_row("attempted", "ops per run",
                                [r["attempted"] for r in runs["parent"]],
                                [r["attempted"] for r in runs["change"]]))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

"""One workload in one process; prints one JSON object as its last line.

Started by ``run.py`` with cvwerner's ``src`` on PYTHONPATH and the BLAS
thread count pinned. ``--setup-only`` measures set-up and exits; otherwise
the worker runs one untimed warm-up round, then whole timed rounds until
``--seconds`` have passed, then checks the outputs of the first timed
round against the oracles and requires every later round to repeat them.
With ``--trace 1`` untraced and traced rounds alternate, which gives
per-layer times and the tracing overhead.
"""

import time

T0 = time.perf_counter()  # before numpy and cvwerner are imported

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import workloads  # noqa: E402


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__, "blas": blas,
            "cpu": cpu, "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


def same(a, b) -> bool:
    if hasattr(a, "shape"):
        return a.shape == b.shape and bool((a == b).all())
    return a == b


def run_rounds(workload, ops, seconds, first=None, tracer=None):
    """Whole rounds until ``seconds`` have passed; returns the round records.

    Only the outputs of the first round are kept; every later round is
    compared with them as it ends, so memory does not grow with the rounds.
    """
    rounds = []
    start = time.perf_counter()
    while True:
        latencies, outputs, failures = [], [], []
        for op in ops:
            t = time.perf_counter()
            try:
                if tracer is None:
                    out = workload.run(op)
                else:
                    with tracer.span(f"bench.{op.kind}"):
                        out = workload.run(op)
            except (Exception, SystemExit) as exc:  # a failed operation is counted, not fatal
                out = None
                failures.append(f"{op.kind} {op.args}: {type(exc).__name__}: {exc}")
            latencies.append(time.perf_counter() - t)
            outputs.append(out)
        if first is None:
            first = outputs
        differs = [f"{op.kind} {op.args}: output differs between rounds"
                   for op, a, b in zip(ops, first, outputs)
                   if a is not None and b is not None and not same(a, b)]
        rounds.append({"latencies": latencies, "failures": failures, "differs": differs,
                       "outputs": outputs if outputs is first else None})
        if time.perf_counter() - start >= seconds:
            return rounds


def percentile(values, q):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def summarize(workload, ops, rounds) -> dict:
    """Figures of a run, in ms unless named _s.

    Each operation's time is the 90th percentile of its repeats. The host's
    CPU speed changes by up to 2x over tens of seconds (README.md); its
    slowest level shows up in nearly every run while its faster bursts come
    and go, so a median of repeats flips between levels from run to run and
    the 90th percentile does not. ``wall_s`` sums these times over one round
    and ``op_p50_ms`` is their median over the operations that feed it.
    """
    per_op = [percentile([rd["latencies"][i] * 1e3 for rd in rounds], 90) for i in range(len(ops))]
    timed = [ms for ms, op in zip(per_op, ops) if op.kind == workload.latency_kind]
    samples = [rd["latencies"][i] * 1e3 for rd in rounds for i, op in enumerate(ops)
               if op.kind == workload.latency_kind]
    return {"wall_s": sum(per_op) / 1e3, "op_p50_ms": statistics.median(timed),
            "sample_p50_ms": statistics.median(samples), "sample_p90_ms": percentile(samples, 90),
            "op_samples": len(samples), "rounds": len(rounds)}


def check_rounds(workload, ops, rounds) -> list[str]:
    errors = [e for rd in rounds for e in rd["differs"]]
    for op, out in zip(ops, rounds[0]["outputs"]):
        if out is not None:
            errors += workload.check(op, out)
    return errors


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", default=None, help="where the traced run writes its spans")
    args = parser.parse_args()

    import cvwerner  # noqa: F401  (the import is part of set-up)

    workload = workloads.WORKLOADS[args.workload]
    workload.warmup()
    setup_s = time.perf_counter() - T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    ops = workload.ops(args.seed)
    run_rounds(workload, ops, 0.0)  # untimed warm-up round
    result = {"setup_s": setup_s, "env": environment(), "ops_per_round": len(ops),
              "points_per_round": sum(op.points for op in ops)}
    if args.trace:
        from tracer import Tracer

        # Untraced and traced rounds alternate, so that both see the same
        # machine conditions and their difference is the tracing overhead.
        tracer, plain, traced = Tracer(), [], []
        first = None
        start = time.perf_counter()
        while not plain or time.perf_counter() - start < args.seconds:
            plain += run_rounds(workload, ops, 0.0, first)
            first = plain[0]["outputs"]
            result["wrapped_functions"] = tracer.install()
            traced += run_rounds(workload, ops, 0.0, first, tracer)
            tracer.uninstall()
        rounds = plain + traced
        result["layers"] = tracer.layer_metrics(len(traced))
        plain_wall = summarize(workload, ops, plain)["wall_s"]
        overhead = summarize(workload, ops, traced)["wall_s"] - plain_wall
        result["layers"]["trace.overhead_s"] = (overhead, "s")
        result["trace_overhead_pct"] = 100.0 * overhead / plain_wall
        result["spans"] = len(tracer.spans)
        if args.spans:
            tracer.write(args.spans)
    else:
        rounds = run_rounds(workload, ops, args.seconds)
    stats = summarize(workload, ops, rounds)
    failures = [f for rd in rounds for f in rd["failures"]]
    errors = check_rounds(workload, ops, rounds)
    result.update(stats)
    result.update({
        "attempted": len(ops) * len(rounds), "failed": len(failures),
        "failures": failures[:10], "errors": errors[:10], "correct": not errors,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "named": workload.named_metrics(ops, stats),
        "latencies_ms": [[1e3 * rd["latencies"][i] for rd in rounds] for i in range(len(ops))],
    })
    for line in errors[:10] + failures[:10]:
        print(line, file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(3)

"""The benchmark harness still runs against the library.

A few operations of each gated workload in ``perfbench/`` go through the
workload's own ``run`` and ``check``, once untraced and once with the
span tracer installed, so a rename or signature change that breaks the
harness or one of its tracer probes fails here rather than in a
benchmark run.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, PERFBENCH)
    try:
        import tracer
        import workloads
    finally:
        sys.path.remove(PERFBENCH)
    return workloads, tracer


def sample_ops(workload):
    """The first two operations of the seed-1 round; for eval_points also
    its first r = s point, which runs the teleport quadrature oracle."""
    ops = workload.ops(1)
    if workload.name == "eval_points":
        equal = next(op for op in ops if op.args[1][2:] == op.args[2][2:])
        return ops[:2] + [equal]
    return ops[:2]


@pytest.mark.parametrize("traced", [False, True], ids=["plain", "traced"])
@pytest.mark.parametrize("name", ["eval_points", "validate_suite", "spectrum_oracle"])
def test_workload_runs_and_checks(bench, name, traced):
    workloads, tracer = bench
    workload = workloads.WORKLOADS[name]
    ops = sample_ops(workload)
    spans = tracer.Tracer()
    if traced:
        spans.install()
    try:
        errors = [error for op in ops for error in workload.check(op, workload.run(op))]
    finally:
        spans.uninstall()
    assert errors == []
    if traced:
        layers = spans.layer_metrics(1)
        assert spans.spans
        if name == "eval_points":
            assert layers["teleport.oracle_calls"][0] == 1

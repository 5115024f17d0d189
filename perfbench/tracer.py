"""Span tracing of cvwerner from outside the package.

``Tracer.install`` replaces every public function of the traced modules
with a wrapper that records a span (name, start, end, parent) and, for a
few functions, a work counter. The wrapper is bound at every cvwerner
namespace that holds the original, because modules import functions by
name (``criteria`` binds ``hermitian_eigenvalues``, ``cli`` binds
``werner_state``, the package binds nearly everything).

Self time is a span's duration minus the durations of its direct
children. Each span is charged to one per-layer bucket: its function's
own bucket if it has one, else its parent's bucket when the parent lies
in the same module (so helpers such as ``ppt_spectrum_analytic`` count
towards the bisection or enumeration that called them), else its
module's default bucket.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time

MODULES = ("cli", "criteria", "qubit_map", "teleport", "states", "fock_core", "numerics")

BUCKETS = {
    "cli": "cli.self",
    "criteria.direct_entanglement_threshold": "criteria.threshold",
    "criteria.largest_separable_p": "criteria.threshold",
    "criteria.squeezing_threshold": "criteria.threshold",
    "qubit_map.mapped_entanglement_threshold": "qubit_map.threshold",
    "qubit_map.nonlocality_threshold": "qubit_map.threshold",
    "teleport.fidelity_report": "teleport.oracle",
    "teleport.fidelity_numeric_oracle": "teleport.oracle",
    "teleport.teleportation_kernel": "teleport.oracle",
    "numerics.integrate_grid": "numerics.integrate",
    "criteria.squeezing_criterion": "criteria.squeezing",
    "criteria.squeezing_variance_direct": "criteria.squeezing",
    "criteria.quadrature_x": "criteria.squeezing",
    "qubit_map.map_to_qubits": "qubit_map.map",
    "fock_core.expectation": "fock_core.expectation",
    "fock_core.tensor_product": "fock_core.tensor_product",
    "criteria.reconstruct_from_cells": "criteria.cells",
    "criteria.bisect_direct_threshold": "criteria.bisect",
    "qubit_map.mapped_threshold_bisection": "qubit_map.bisection",
    "states.werner_state": "states.werner_state",
    "states.select_cutoff": "states.select_cutoff",
    "numerics.hermitian_eigenvalues": "numerics.eig",
    "fock_core.partial_transpose_A": "fock_core.partial_transpose",
    "criteria.ppt_spectrum_bruteforce": "criteria.ppt_bruteforce",
    "criteria.enumerate_ppt_spectrum": "criteria.enumerate",
}

# Per-layer metrics. Times are self time per round, in ms.
TIME_METRICS = (
    "cli.self", "criteria.threshold", "qubit_map.threshold", "teleport.oracle",
    "numerics.integrate", "criteria.squeezing", "qubit_map.map", "fock_core.expectation",
    "fock_core.tensor_product", "criteria.cells", "criteria.bisect", "qubit_map.bisection",
    "states.werner_state", "states.select_cutoff", "numerics.eig",
    "fock_core.partial_transpose", "criteria.ppt_bruteforce", "criteria.enumerate",
)
CALL_METRICS = {
    "teleport.oracle_calls": "teleport.fidelity_numeric_oracle",
    "qubit_map.map_calls": "qubit_map.map_to_qubits",
    "fock_core.expectation_calls": "fock_core.expectation",
    "states.werner_state_calls": "states.werner_state",
    "numerics.eig_calls": "numerics.hermitian_eigenvalues",
}


def _count_levels(counters, args, kwargs, result):
    counters["criteria.moment_levels"] += args[0] if args else kwargs["n_max"]


def _count_points(counters, args, kwargs, result):
    grid = args[0] if args else kwargs["grid"]
    counters["numerics.integrate_points"] += grid.values.size


def _record_eig(counters, args, kwargs, result):
    a = args[0] if args else kwargs["a"]
    counters["numerics.eig_dim_max"] = max(counters["numerics.eig_dim_max"], len(a))
    counters["numerics.eig_residual_max"] = max(counters["numerics.eig_residual_max"],
                                                result.max_residual)


PROBES = {
    "criteria.quadrature_x": _count_levels,
    "numerics.integrate_grid": _count_points,
    "numerics.hermitian_eigenvalues": _record_eig,
}
SUMMED_COUNTERS = ("criteria.moment_levels", "numerics.integrate_points")
MAX_COUNTERS = {"numerics.eig_dim_max": "count", "numerics.eig_residual_max": "norm"}


class Tracer:
    """In-memory span recorder; spans are [name, start_ns, end_ns, parent]."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters = {name: 0 for name in (*SUMMED_COUNTERS, *MAX_COUNTERS)}
        self.bindings: list[tuple] = []  # (module, attribute, original, wrapper)

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        probe, counters = PROBES.get(name), self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()
            if probe is not None:
                probe(counters, args, kwargs, result)
            return result

        return traced

    def install(self) -> int:
        """Wrap the public functions at every binding; returns the count."""
        if not self.bindings:
            wrapped = {}
            for short in MODULES:
                module = importlib.import_module(f"cvwerner.{short}")
                for attr, obj in vars(module).items():
                    if (not attr.startswith("_") and callable(obj) and not isinstance(obj, type)
                            and getattr(obj, "__module__", None) == module.__name__):
                        wrapped[id(obj)] = (obj, self._wrap(f"{short}.{attr}", obj))
            for modname, module in list(sys.modules.items()):
                if modname != "cvwerner" and not modname.startswith("cvwerner."):
                    continue
                for attr, obj in list(vars(module).items()):
                    hit = wrapped.get(id(obj))
                    if hit is not None and hit[0] is obj:
                        self.bindings.append((module, attr, obj, hit[1]))
        for module, attr, _, wrapper in self.bindings:
            setattr(module, attr, wrapper)
        return len({id(original) for _, _, original, _ in self.bindings})

    def uninstall(self) -> None:
        """Put the original functions back at every binding."""
        for module, attr, original, _ in self.bindings:
            setattr(module, attr, original)

    @contextlib.contextmanager
    def span(self, name: str):
        """A root span opened by the benchmark itself around one operation."""
        index = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), 0, self.stack[-1] if self.stack else -1])
        self.stack.append(index)
        try:
            yield
        finally:
            self.stack.pop()
            self.spans[index][2] = time.perf_counter_ns()

    def layer_metrics(self, rounds: int) -> dict[str, tuple[float, str]]:
        """Per-round self times, call counts and work counters."""
        spans = self.spans
        child_ns = [0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        bucket: list[str] = []
        self_ns: dict[str, int] = {}
        calls: dict[str, int] = {}
        for i, (name, start, end, parent) in enumerate(spans):
            module = name.split(".", 1)[0]
            own = BUCKETS.get(name)
            if own is None and parent >= 0 and spans[parent][0].split(".", 1)[0] == module:
                own = bucket[parent]
            own = own or BUCKETS.get(module) or f"{module}.other"
            bucket.append(own)
            self_ns[own] = self_ns.get(own, 0) + (end - start - child_ns[i])
            calls[name] = calls.get(name, 0) + 1
        out = {f"{b}_ms": (self_ns.get(b, 0) / 1e6 / rounds, "ms") for b in TIME_METRICS}
        out.update({m: (calls.get(fn, 0) / rounds, "count") for m, fn in CALL_METRICS.items()})
        out.update({m: (self.counters[m] / rounds, "count") for m in SUMMED_COUNTERS})
        out.update({m: (float(self.counters[m]), unit) for m, unit in MAX_COUNTERS.items()})
        return out

    def write(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent"], "names": names,
                       "spans": [[index[n], a, b, p] for n, a, b, p in self.spans]}, fh)


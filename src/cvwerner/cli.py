"""Command-line front end: point evaluation, CSV sweeps and cross-validation.

Three subcommands:

* ``eval`` prints every requested criterion verdict at one (p, r, s) point,
* ``sweep`` writes a two-axis CSV of threshold/fidelity surfaces,
* ``validate`` runs the full analytic-vs-brute-force consistency suite on a
  parameter grid and exits nonzero if any check fails.

Every number the CLI prints is produced by exactly one library operation;
the CLI only parses, dispatches and formats.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import criteria as cr
from . import qubit_map as qm
from . import teleport as tp
from . import tolerances as tol
from .errors import CvWernerError, ParameterRangeError
from .fock_core import FockCutoff
from .states import WernerParams, select_cutoff, werner_state

AXES = ("p", "r", "s")
OUTPUT_NAMES = (
    "p_min_entangled_direct",
    "p_min_entangled_mapped",
    "p_max_separable",
    "p_min_nonlocal",
    "p_min_squeezed",
    "fidelity_w",
)

R_EQUALS_S = "r_equals_s"

# Cutoffs used by the validation suite's dense-matrix checks; small enough
# to keep validate well under its time budget, large enough that truncation
# effects stay below the stated tolerances (the qubit-map comparison is
# tolerant of the trace deficit by construction).
VALIDATE_SPECTRUM_N_MAX = 12
VALIDATE_MAP_N_MAX = 16


def _output_value(name: str, params: WernerParams) -> float:
    if name == "p_min_entangled_direct":
        return cr.direct_entanglement_threshold(params.r, params.s).threshold
    if name == "p_min_entangled_mapped":
        return qm.mapped_entanglement_threshold(params.r, params.s)
    if name == "p_max_separable":
        return cr.largest_separable_p(params.r, params.s)
    if name == "p_min_nonlocal":
        return qm.nonlocality_threshold(params.r, params.s)
    if name == "p_min_squeezed":
        return cr.squeezing_threshold(params.r, params.s)
    if name == "fidelity_w":
        if params.r != params.s:
            raise ParameterRangeError("fidelity_w requires r = s")
        return tp.fidelity_werner(params.p, params.r).fidelity_closed_form
    raise ValueError(f"unknown output {name!r}")


# ---------------------------------------------------------------------------
# Sweep specification
# ---------------------------------------------------------------------------

_AXIS_RE = re.compile(r"^([prs])\[([^,\]]+),([^,\]]+),(\d+)\]$")


@dataclass(frozen=True)
class AxisSpec:
    name: str
    minimum: float
    maximum: float
    steps: int

    def __post_init__(self):
        if self.name not in AXES:
            raise ValueError(f"axis must be one of {AXES}, got {self.name!r}")
        if self.steps < 2:
            raise ValueError(f"axis {self.name}: steps must be >= 2, got {self.steps}")
        if not self.minimum < self.maximum:
            raise ValueError(f"axis {self.name}: need min < max, got "
                             f"[{self.minimum}, {self.maximum}]")

    def values(self) -> np.ndarray:
        return np.linspace(self.minimum, self.maximum, self.steps)


@dataclass(frozen=True)
class SweepSpec:
    """Two-axis parameter sweep: which axes vary, what is fixed, what to emit."""

    axis1: AxisSpec
    axis2: AxisSpec
    fixed: float | str  # value of the remaining parameter, or "r_equals_s"
    outputs: tuple[str, ...]
    tail_bound: float
    output_path: str

    def __post_init__(self):
        if self.axis1.name == self.axis2.name:
            raise ValueError("axis1 and axis2 must differ")
        if not self.outputs:
            raise ValueError("at least one output column is required")
        for name in self.outputs:
            if name not in OUTPUT_NAMES:
                raise ValueError(f"unknown output {name!r}; choose from {OUTPUT_NAMES}")
        rest = self.remaining_axis()
        if self.fixed == R_EQUALS_S:
            if rest == "p":
                raise ValueError("r_equals_s requires that p is a sweep axis")
        else:
            value = float(self.fixed)
            if rest == "p" and not 0.0 <= value <= 1.0:
                raise ValueError(f"fixed p must lie in [0, 1], got {value}")
            if rest in ("r", "s") and value < 0.0:
                raise ValueError(f"fixed {rest} must be >= 0, got {value}")

    def remaining_axis(self) -> str:
        return next(a for a in AXES if a not in (self.axis1.name, self.axis2.name))

    def point(self, v1: float, v2: float) -> WernerParams:
        values = {self.axis1.name: float(v1), self.axis2.name: float(v2)}
        rest = self.remaining_axis()
        if self.fixed == R_EQUALS_S:
            values[rest] = values["r" if rest == "s" else "s"]
        else:
            values[rest] = float(self.fixed)
        values.setdefault("p", 0.0)
        return WernerParams(p=values["p"], r=values["r"], s=values["s"])


def run_sweep(spec: SweepSpec) -> str:
    """Evaluate the sweep and return the CSV text (also written to the path)."""
    lines = [
        f"# command=sweep",
        f"# axis1={spec.axis1.name}[{spec.axis1.minimum:.12g},"
        f"{spec.axis1.maximum:.12g},{spec.axis1.steps}]",
        f"# axis2={spec.axis2.name}[{spec.axis2.minimum:.12g},"
        f"{spec.axis2.maximum:.12g},{spec.axis2.steps}]",
        f"# fixed={spec.remaining_axis()}="
        + (spec.fixed if spec.fixed == R_EQUALS_S else f"{float(spec.fixed):.12g}"),
        f"# tail_bound={spec.tail_bound:.12g}",
        f"# outputs={','.join(spec.outputs)}",
        ",".join([spec.axis1.name, spec.axis2.name, *spec.outputs]),
    ]
    for v1 in spec.axis1.values():
        for v2 in spec.axis2.values():
            params = spec.point(v1, v2)
            row = [f"{float(v1):.12g}", f"{float(v2):.12g}"]
            row += [f"{_output_value(name, params):.12g}" for name in spec.outputs]
            lines.append(",".join(row))
    text = "\n".join(lines) + "\n"
    if spec.output_path != "-":
        with open(spec.output_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    return text


# ---------------------------------------------------------------------------
# Point evaluation
# ---------------------------------------------------------------------------

EVAL_CRITERIA = (
    cr.ENTANGLED_PPT_DIRECT,
    cr.ENTANGLED_PPT_MAPPED,
    cr.SEPARABLE_SUFFICIENT,
    cr.NONLOCAL,
    cr.SQUEEZED,
    "fidelity_w",
)


def run_eval(params: WernerParams, names: tuple[str, ...], tail_bound: float,
             n_max: int | None) -> str:
    """Textual report with one verdict line per requested criterion."""
    if n_max is not None:
        cutoff = FockCutoff(n_max=n_max, tail_bound=1.0 - 1e-15)
    else:
        try:
            cutoff = select_cutoff(params, tail_bound)
        except ParameterRangeError:
            cutoff = None
    lines = [f"point: p={params.p:.12g} r={params.r:.12g} s={params.s:.12g}"]
    if cutoff is not None:
        lines.append(f"n_max: {cutoff.n_max} (tail_bound {cutoff.tail_bound:.3g})")
    else:
        lines.append("n_max: dense truncation out of range for this tail bound; "
                     "analytic paths only")
    for name in names:
        if name == "fidelity_w":
            if params.r != params.s:
                lines.append("fidelity_w: requires r = s, skipped")
                continue
            report = tp.fidelity_report(params)
            lines.append(
                f"fidelity_w: closed_form={report.fidelity_closed_form:.12g} "
                f"numeric={report.fidelity_numeric:.12g} "
                f"agreement={report.method_agreement:.3e}"
            )
            continue
        if name == cr.ENTANGLED_PPT_DIRECT:
            verdict = cr.direct_entanglement_criterion(params)
        elif name == cr.ENTANGLED_PPT_MAPPED:
            verdict = cr.mapped_entanglement_criterion(params)
        elif name == cr.SEPARABLE_SUFFICIENT:
            verdict = cr.separability_sufficient(params)
        elif name == cr.NONLOCAL:
            verdict = cr.nonlocality_criterion(params)
        elif name == cr.SQUEEZED:
            verdict = cr.squeezing_criterion(params)
        else:
            raise ValueError(f"unknown criterion {name!r}")
        lines.append(
            f"{verdict.criterion}: {str(verdict.decision).lower()} "
            f"threshold_p={verdict.threshold_p:.12g} "
            f"margin={verdict.margin:.12g} method={verdict.method}"
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Validation suite
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    worst_deviation: float
    worst_point: WernerParams | None
    detail: str = ""

    def line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        where = ""
        if self.worst_point is not None:
            w = self.worst_point
            where = f" at (p={w.p:.6g}, r={w.r:.6g}, s={w.s:.6g})"
        extra = f" [{self.detail}]" if self.detail else ""
        return f"{self.name}: {status} worst_deviation={self.worst_deviation:.3e}{where}{extra}"


def _validation_grid(grid_density: int):
    p_values = np.linspace(0.2, 0.9, grid_density)
    rs_values = np.linspace(0.5, 2.0, grid_density)
    return p_values, rs_values


def run_validation(grid_density: int, closed_form_fn=None) -> tuple[list[CheckResult], bool]:
    """Run every cross-module consistency check on a grid_density^3 grid.

    ``closed_form_fn`` replaces the closed-form 4x4 used in the qubit-map
    check; the tests inject a corrupted version to confirm the suite
    detects it. Returns the per-check results and the overall verdict.
    """
    if grid_density < 2:
        raise ValueError(f"grid_density must be >= 2, got {grid_density}")
    closed_form_fn = closed_form_fn or qm.closed_form_two_qubit
    p_values, rs_values = _validation_grid(grid_density)
    results: list[CheckResult] = []

    def run_check(name, points, deviation_fn, tolerance_fn, detail=""):
        worst, worst_pt = -math.inf, None
        passed = True
        for params in points:
            dev = deviation_fn(params)
            slack = dev - tolerance_fn(params)
            if slack > 0:
                passed = False
            if dev > worst:
                worst, worst_pt = dev, params
        results.append(CheckResult(name=name, passed=passed, worst_deviation=worst,
                                   worst_point=worst_pt, detail=detail))

    grid3 = [WernerParams(p=float(p), r=float(r), s=float(s))
             for p in p_values for r in rs_values for s in rs_values]
    grid_rs = [WernerParams(p=0.5, r=float(r), s=float(s))
               for r in rs_values for s in rs_values]
    grid_rr = [WernerParams(p=float(p), r=float(r), s=float(r))
               for p in p_values for r in rs_values]

    spectrum_cutoff = FockCutoff(n_max=VALIDATE_SPECTRUM_N_MAX, tail_bound=1.0 - 1e-15)

    def spectrum_dev(params):
        brute = cr.ppt_spectrum_bruteforce(params, spectrum_cutoff)
        analytic = cr.enumerate_ppt_spectrum(params, VALIDATE_SPECTRUM_N_MAX)
        return float(np.abs(brute - analytic).max())

    run_check("ppt_spectrum (analytic vs brute force)", grid3,
              spectrum_dev, lambda _: tol.ORACLE_TOL)

    map_cutoff = FockCutoff(n_max=VALIDATE_MAP_N_MAX, tail_bound=1.0 - 1e-15)

    def map_dev(params):
        rho = werner_state(params, map_cutoff)
        mapped = qm.map_to_qubits(rho)  # chi vs moments checked internally
        return float(np.abs(mapped.rho4 - closed_form_fn(params)).max())

    def map_tol(params):
        rho = werner_state(params, map_cutoff)
        return tol.MAP_CONSISTENCY_TOL + rho.trace_deficit

    run_check("qubit_map consistency (contraction vs closed form)", grid3,
              map_dev, map_tol)

    def fidelity_dev(params):
        report = tp.fidelity_report(params)
        return report.method_agreement

    run_check("teleport fidelity (closed form vs numeric)", grid_rr,
              fidelity_dev, lambda _: 1e-3)

    def ordering_dev(params):
        direct = cr.direct_entanglement_threshold(params.r, params.s).threshold
        mapped = qm.mapped_entanglement_threshold(params.r, params.s)
        nonloc = qm.nonlocality_threshold(params.r, params.s)
        return max(direct - mapped, mapped - nonloc)

    run_check("threshold ordering (direct <= mapped <= nonlocal)", grid_rs,
              ordering_dev, lambda _: 0.0)

    def mapped_bisect_dev(params):
        closed = qm.mapped_entanglement_threshold(params.r, params.s)
        brute = qm.mapped_threshold_bisection(params.r, params.s)
        return abs(closed - brute)

    run_check("mapped threshold (closed form vs bisection)", grid_rs,
              mapped_bisect_dev, lambda _: 1e-6)

    def direct_bisect_dev(params):
        # Bisection explores the same finite eigenvalue horizon, so it is
        # compared against the enumerated threshold, not the analytic limit.
        closed = cr.enumerated_entanglement_threshold(params.r, params.s)
        brute = cr.bisect_direct_threshold(params.r, params.s)
        return abs(closed - brute)

    run_check("direct threshold (enumeration vs bisection)", grid_rs,
              direct_bisect_dev, lambda _: 1e-6)

    def squeezing_dev(params):
        analytic = cr.squeezing_variance_analytic(params)
        direct = cr.squeezing_variance_direct(params)
        return abs(analytic - direct)

    run_check("squeezing variance (closed form vs matrix)", grid3,
              squeezing_dev, lambda _: cr.SQUEEZING_CONSISTENCY_TOL)

    def cells_dev(params):
        rho = werner_state(params, spectrum_cutoff)
        rebuilt = cr.reconstruct_from_cells(params, spectrum_cutoff)
        return float(np.abs(rebuilt - rho.data).max())

    run_check("cell decomposition (reconstruction)", grid3,
              cells_dev, lambda _: tol.MAP_CONSISTENCY_TOL)

    ok = all(result.passed for result in results)
    return results, ok


# ---------------------------------------------------------------------------
# Argument plumbing
# ---------------------------------------------------------------------------

def parse_config(path: str) -> dict[str, str]:
    """Plain key=value config file; '#' starts a comment, blank lines ignored."""
    values: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
            key, value = line.split("=", 1)
            values[key.strip()] = value.strip()
    return values


def _parse_axis(token: str) -> AxisSpec:
    match = _AXIS_RE.match(token)
    if not match:
        raise ValueError(
            f"bad axis spec {token!r}; expected e.g. r[0.1,2,20]"
        )
    name, lo, hi, steps = match.groups()
    return AxisSpec(name=name, minimum=float(lo), maximum=float(hi), steps=int(steps))


def _collect_tokens(tokens: list[str]) -> dict[str, str]:
    pairs = {}
    for token in tokens:
        if "=" not in token:
            raise ValueError(f"expected key=value token, got {token!r}")
        key, value = token.split("=", 1)
        pairs[key] = value
    return pairs


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cvwerner",
        description="Continuous-variable Werner state analysis",
    )
    parser.add_argument("--tail-bound", type=float, default=None,
                        help="truncation tail bound (default 1e-10)")
    parser.add_argument("--n-max", type=int, default=None,
                        help="override the automatic Fock cutoff")
    parser.add_argument("--config", default=None,
                        help="key=value config file; flags take precedence")
    parser.add_argument("--output", default=None,
                        help="output path (CSV for sweep, report otherwise); '-' for stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate criteria at one (p, r, s) point")
    p_eval.add_argument("point", nargs="+", metavar="k=v",
                        help="parameter assignments, e.g. p=0.5 r=1 s=1")
    p_eval.add_argument("--criteria", default="all",
                        help="comma-separated criterion names or 'all'")

    p_sweep = sub.add_parser("sweep", help="write a two-axis CSV sweep")
    p_sweep.add_argument("spec", nargs="+", metavar="k=v",
                         help="axis1=r[0.1,2,20] axis2=s[0.1,2,20] "
                              "outputs=p_min_entangled_direct,... "
                              "[fixed=0.5 | fixed=r_equals_s]")

    p_val = sub.add_parser("validate", help="run the cross-validation suite")
    p_val.add_argument("grid_density", type=int)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    config = {}
    if args.config:
        try:
            config = parse_config(args.config)
        except (OSError, ValueError) as exc:
            parser.error(str(exc))

    tail_bound = args.tail_bound
    if tail_bound is None:
        tail_bound = float(config.get("tail_bound", tol.DEFAULT_TAIL_BOUND))
    n_max = args.n_max
    if n_max is None and "n_max" in config:
        n_max = int(config["n_max"])
    output = args.output or config.get("output")

    try:
        if args.command == "eval":
            pairs = _collect_tokens(args.point)
            unknown = set(pairs) - set(AXES)
            if unknown:
                parser.error(f"unknown parameters {sorted(unknown)}; expected p, r, s")
            params = WernerParams(
                p=float(pairs.get("p", 0.0)),
                r=float(pairs.get("r", 0.0)),
                s=float(pairs.get("s", 0.0)),
            )
            names = EVAL_CRITERIA if args.criteria == "all" else tuple(
                args.criteria.split(","))
            text = run_eval(params, names, tail_bound, n_max)
            _emit(text, output)
            return 0

        if args.command == "sweep":
            pairs = _collect_tokens(args.spec)
            required = {"axis1", "axis2", "outputs"}
            missing = required - set(pairs)
            if missing:
                parser.error(f"sweep spec missing {sorted(missing)}")
            fixed = pairs.get("fixed", R_EQUALS_S)
            spec = SweepSpec(
                axis1=_parse_axis(pairs["axis1"]),
                axis2=_parse_axis(pairs["axis2"]),
                fixed=fixed if fixed == R_EQUALS_S else float(fixed),
                outputs=tuple(pairs["outputs"].split(",")),
                tail_bound=tail_bound,
                output_path=output or "-",
            )
            text = run_sweep(spec)
            if spec.output_path == "-":
                sys.stdout.write(text)
            return 0

        if args.command == "validate":
            start = time.time()
            results, ok = run_validation(args.grid_density)
            lines = [result.line() for result in results]
            lines.append(f"elapsed: {time.time() - start:.1f} s")
            lines.append("validation: " + ("PASS" if ok else "FAIL"))
            _emit("\n".join(lines) + "\n", output)
            return 0 if ok else 1
    except (ValueError, CvWernerError) as exc:
        parser.error(str(exc))
    return 2


def _emit(text: str, output: str | None) -> None:
    if output and output != "-":
        with open(output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    raise SystemExit(main())

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
import re
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import criteria as cr
from . import numerics as nm
from . import qubit_map as qm
from . import teleport as tp
from . import tolerances as tol
from .errors import CvWernerError
from .fock_core import FockCutoff
from .states import WernerParams, werner_state

AXES = ("p", "r", "s")
R_EQUALS_S = "r_equals_s"

# Cutoff of the validation suite's one state per grid point, which
# the PPT spectrum, qubit-map and cell checks all read, and of the direct
# threshold's pencil; small enough to keep validate well under its time
# budget, and even, as the qubit map needs. Each check compares with the
# closed form of the same truncated state, so no truncation slack enters
# its tolerance.
VALIDATE_N_MAX = 12

# ---------------------------------------------------------------------------
# Criterion table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Criterion:
    """One criterion: its eval name, its sweep column and what each prints."""

    name: str
    column: str
    value: Callable[[WernerParams], float]  # the sweep column's number
    line: Callable[[WernerParams], str]  # the eval report line


def _verdict_line(verdict: cr.CriterionVerdict) -> str:
    return (f"{verdict.criterion}: {str(verdict.decision).lower()} "
            f"threshold_p={verdict.threshold_p:.12g} "
            f"margin={verdict.margin:.12g} method={verdict.method}")


def _threshold_criterion(name: str, column: str,
                         value: Callable[[WernerParams], float]) -> Criterion:
    def line(params: WernerParams) -> str:
        return _verdict_line(cr.threshold_verdict(name, params, value(params)))

    return Criterion(name, column, value, line)


def _fidelity_line(params: WernerParams) -> str:
    # perfbench's EvalPoints.check requires this line at r != s (ROADMAP item 1(a)).
    if params.r != params.s:
        return "fidelity_w: requires r = s, skipped"
    report = tp.fidelity_report(params)
    return (f"fidelity_w: closed_form={report.fidelity_closed_form:.12g} "
            f"numeric={report.fidelity_numeric:.12g} "
            f"agreement={report.method_agreement:.3e}")


# In eval report order. The threshold functions are looked up on their
# modules at call time, so rebinding a module attribute (as perfbench's
# tracer does) reaches the table.
CRITERIA = {criterion.name: criterion for criterion in (
    _threshold_criterion(cr.ENTANGLED_PPT_DIRECT, "p_min_entangled_direct",
                         lambda w: cr.direct_entanglement_threshold(w.r, w.s)),
    _threshold_criterion(cr.ENTANGLED_PPT_MAPPED, "p_min_entangled_mapped",
                         lambda w: qm.mapped_entanglement_threshold(w.r, w.s)),
    _threshold_criterion(cr.SEPARABLE_SUFFICIENT, "p_max_separable",
                         lambda w: cr.largest_separable_p(w.r, w.s)),
    _threshold_criterion(cr.NONLOCAL, "p_min_nonlocal",
                         lambda w: qm.nonlocality_threshold(w.r, w.s)),
    Criterion(cr.SQUEEZED, "p_min_squeezed",
              lambda w: cr.squeezing_threshold(w.r, w.s),
              lambda w: _verdict_line(cr.squeezing_criterion(w))),
    Criterion("fidelity_w", "fidelity_w", lambda w: tp.fidelity_werner(w.p, w.r, w.s),
              _fidelity_line),
)}
COLUMNS = {criterion.column: criterion for criterion in CRITERIA.values()}


def _check_names(kind: str, names: tuple[str, ...], known: dict[str, Criterion]) -> None:
    """The one rule for a list of criterion or column names: at least one,
    each of them in ``known`` and none given twice."""
    if not names:
        raise ValueError(f"at least one {kind} is required")
    for i, name in enumerate(names):
        if name not in known:
            raise ValueError(f"unknown {kind} {name!r}; choose from {tuple(known)}")
        if name in names[:i]:
            raise ValueError(f"{kind} {name!r} given more than once")


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

    def __post_init__(self):
        if self.axis1.name == self.axis2.name:
            raise ValueError("axis1 and axis2 must differ")
        _check_names("output", self.outputs, COLUMNS)
        if self.fixed == R_EQUALS_S and self.remaining_axis() == "p":
            raise ValueError("r_equals_s requires that p is a sweep axis")
        # Each range rule of WernerParams is an interval per parameter and
        # the grid ends are exact, so its two corners hold every grid point.
        self.point(self.axis1.minimum, self.axis2.minimum)
        self.point(self.axis1.maximum, self.axis2.maximum)

    def remaining_axis(self) -> str:
        return next(a for a in AXES if a not in (self.axis1.name, self.axis2.name))

    def point(self, v1: float, v2: float) -> WernerParams:
        values = {self.axis1.name: float(v1), self.axis2.name: float(v2)}
        rest = self.remaining_axis()
        if self.fixed == R_EQUALS_S:
            values[rest] = values["r" if rest == "s" else "s"]
        else:
            values[rest] = float(self.fixed)
        return WernerParams(p=values["p"], r=values["r"], s=values["s"])


def run_sweep(spec: SweepSpec) -> str:
    """Evaluate the sweep and return the CSV text."""
    lines = [
        f"# command=sweep",
        f"# axis1={spec.axis1.name}[{spec.axis1.minimum:.12g},"
        f"{spec.axis1.maximum:.12g},{spec.axis1.steps}]",
        f"# axis2={spec.axis2.name}[{spec.axis2.minimum:.12g},"
        f"{spec.axis2.maximum:.12g},{spec.axis2.steps}]",
        f"# fixed={spec.remaining_axis()}="
        + (spec.fixed if spec.fixed == R_EQUALS_S else f"{float(spec.fixed):.12g}"),
        f"# outputs={','.join(spec.outputs)}",
        ",".join([spec.axis1.name, spec.axis2.name, *spec.outputs]),
    ]
    columns = [COLUMNS[name].value for name in spec.outputs]
    for v1 in spec.axis1.values():
        text1 = f"{float(v1):.12g}"
        for v2 in spec.axis2.values():
            params = spec.point(v1, v2)
            row = [text1, f"{float(v2):.12g}"]
            row += [f"{value(params):.12g}" for value in columns]
            lines.append(",".join(row))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Point evaluation
# ---------------------------------------------------------------------------

def run_eval(params: WernerParams, names: tuple[str, ...]) -> str:
    """Textual report: two header lines, then one line per requested criterion."""
    lines = [f"point: p={params.p:.12g} r={params.r:.12g} s={params.s:.12g}",
             "thresholds: closed forms in (p, r, s), no Fock truncation"]
    _check_names("criterion", names, CRITERIA)
    lines += [CRITERIA[name].line(params) for name in names]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Validation suite
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    worst_deviation: float
    worst_point: WernerParams
    tolerance: float

    def line(self) -> str:
        """The check's report line; it ends with the tolerance and its slack
        (tolerance - worst deviation), both as deterministic as the check."""
        status, w = "pass" if self.passed else "FAIL", self.worst_point
        return (f"{self.name}: {status} worst_deviation={self.worst_deviation:.3e}"
                f" at (p={w.p:.6g}, r={w.r:.6g}, s={w.s:.6g})"
                f" tol={self.tolerance:.1e} slack={self.tolerance - self.worst_deviation:.3e}")


def _check(name: str, points: list[WernerParams], deviations, tolerance: float) -> CheckResult:
    """The check passes only if every deviation is <= tolerance, so a NaN
    fails; a NaN is reported as the worst deviation."""
    devs = np.array(deviations, dtype=np.float64)
    worst = int(np.argmax(devs))  # the first NaN, else the first maximum
    return CheckResult(name=name, passed=bool((devs <= tolerance).all()),
                       worst_deviation=float(devs[worst]), worst_point=points[worst],
                       tolerance=tolerance)


def _matrix_deviations(params: WernerParams) -> tuple[float, float, float]:
    """Deviations of one VALIDATE_N_MAX-level state, dropped on return: its
    brute-force PPT spectrum from the enumerated one, its pair-index trace
    from the truncated closed form and from the pseudo-spin moment route,
    and its cell reconstruction from the state itself."""
    rho = werner_state(params, FockCutoff(n_max=VALIDATE_N_MAX, tail_bound=1.0 - 1e-15))
    rho4 = qm.map_to_qubits(rho)
    spectrum = cr._ppt_spectrum(rho) - cr.enumerate_ppt_spectrum(params, VALIDATE_N_MAX)
    truncated = qm.closed_form_two_qubit(params, n_max=VALIDATE_N_MAX)
    qubit = np.maximum(np.abs(rho4 - truncated).max(),
                       np.abs(rho4 - qm._map_via_moments(rho)).max())
    # Each pattern's entries against the other's at the same flat key, so an
    # entry that one of them lacks counts at its full value.
    (keys, values), (cell_keys, cell_values) = (
        (rows * rho.cutoff.dim + cols, values) for rows, cols, values in
        (rho.pattern, cr.reconstruct_from_cells(params, VALIDATE_N_MAX)))
    cells = np.maximum(np.abs(cell_values - nm._at_keys(keys, values, cell_keys)).max(),
                       np.abs(values - nm._at_keys(cell_keys, cell_values, keys)).max())
    return float(np.abs(spectrum).max()), float(qubit), float(cells)


def _ordering_deviation(params: WernerParams) -> float:
    names = (cr.SEPARABLE_SUFFICIENT, cr.ENTANGLED_PPT_DIRECT, cr.ENTANGLED_PPT_MAPPED,
             cr.NONLOCAL)
    thresholds = [CRITERIA[name].value(params) for name in names]
    return float(np.subtract(thresholds[:-1], thresholds[1:]).max())


def run_validation(grid_density: int) -> tuple[list[CheckResult], bool]:
    """Run every cross-module consistency check on a grid_density^3 grid.

    Returns the per-check results and the overall verdict.
    """
    if grid_density < 2:
        raise ValueError(f"grid_density must be >= 2, got {grid_density}")
    p_values = np.linspace(0.2, 0.9, grid_density)
    rs_values = np.linspace(0.5, 2.0, grid_density)
    grid3 = [WernerParams(p=float(p), r=float(r), s=float(s))
             for p in p_values for r in rs_values for s in rs_values]
    grid_rs = [WernerParams(p=0.5, r=float(r), s=float(s))
               for r in rs_values for s in rs_values]
    spectrum, qubit, cells = zip(*map(_matrix_deviations, grid3))

    checks = [
        ("ppt_spectrum (analytic vs brute force)", grid3, spectrum, tol.PPT_SPECTRUM_TOL),
        ("qubit_map consistency (pair trace vs moments vs closed form)", grid3, qubit,
         tol.MAP_CONSISTENCY_TOL),
        ("teleport fidelity (closed form vs numeric)", grid3,
         [tp.fidelity_report(w).method_agreement for w in grid3],
         tol.FIDELITY_AGREEMENT_TOL),
        ("threshold ordering (separable <= direct <= mapped <= nonlocal)", grid_rs,
         [_ordering_deviation(w) for w in grid_rs], 0.0),
        ("mapped threshold (closed form vs pencil)", grid_rs,
         [abs(qm.mapped_entanglement_threshold(w.r, w.s) - qm.mapped_threshold_pencil(w.r, w.s))
          for w in grid_rs], tol.PENCIL_THRESHOLD_TOL),
        # The truncation's closed form against the pencil of the same truncation.
        ("direct threshold (closed form vs pencil)", grid_rs,
         [abs(cr.direct_entanglement_threshold(w.r, w.s, VALIDATE_N_MAX)
              - cr.direct_threshold_pencil(w.r, w.s, VALIDATE_N_MAX)) for w in grid_rs],
         tol.PENCIL_THRESHOLD_TOL),
        # The banded variance against the closed form of the same truncation.
        ("squeezing variance (closed form vs matrix)", grid3,
         [abs(cr.squeezing_variance_direct(w)
              - cr._truncated_squeezing_variance(w, cr.SQUEEZING_CHECK_LEVELS)) for w in grid3],
         tol.SQUEEZING_CONSISTENCY_TOL),
        ("cell decomposition (reconstruction)", grid3, cells, tol.MAP_CONSISTENCY_TOL),
    ]
    results = [_check(*check) for check in checks]
    return results, all(result.passed for result in results)


# ---------------------------------------------------------------------------
# Argument plumbing
# ---------------------------------------------------------------------------

def _parse_axis(token: str) -> AxisSpec:
    match = _AXIS_RE.match(token)
    if not match:
        raise ValueError(
            f"bad axis spec {token!r}; expected e.g. r[0.1,2,20]"
        )
    name, lo, hi, steps = match.groups()
    return AxisSpec(name=name, minimum=float(lo), maximum=float(hi), steps=int(steps))


def _collect_tokens(tokens: list[str], allowed: tuple[str, ...],
                    required: tuple[str, ...] = ()) -> dict[str, str]:
    """key=value tokens as a dict; a key that is not ``allowed``, given
    twice, or ``required`` and absent is an error that names it."""
    pairs = {}
    for token in tokens:
        if "=" not in token:
            raise ValueError(f"expected key=value token, got {token!r}")
        key, value = token.split("=", 1)
        if key not in allowed:
            raise ValueError(f"unknown key {key!r}; expected one of {', '.join(allowed)}")
        if key in pairs:
            raise ValueError(f"key {key!r} given more than once")
        pairs[key] = value
    for key in required:
        if key not in pairs:
            raise ValueError(f"key {key!r} is required")
    return pairs


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cvwerner",
        description="Continuous-variable Werner state analysis",
    )
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


def _unknown_leading_option(argv: list[str]) -> str | None:
    """The first option ahead of the subcommand other than (a prefix of)
    --output or --help; argparse would name its value, read as the subcommand."""
    i = 0
    while i < len(argv) and argv[i].startswith("-") and argv[i] not in ("-", "--"):
        name = argv[i].split("=", 1)[0]
        if name == "-h" or len(name) > 2 and "--help".startswith(name):
            return None
        if len(name) <= 2 or not "--output".startswith(name):
            return name
        i += 1 if "=" in argv[i] else 2


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    if unknown := _unknown_leading_option(argv):
        parser.error(f"unrecognized option {unknown!r}")
    args = parser.parse_args(argv)

    try:
        if args.command == "eval":
            pairs = _collect_tokens(args.point, AXES, required=AXES)
            params = WernerParams(p=float(pairs["p"]), r=float(pairs["r"]), s=float(pairs["s"]))
            names = tuple(CRITERIA) if args.criteria == "all" else tuple(
                args.criteria.split(","))
            text, code = run_eval(params, names), 0

        elif args.command == "sweep":
            pairs = _collect_tokens(args.spec, ("axis1", "axis2", "outputs", "fixed"),
                                    required=("axis1", "axis2", "outputs"))
            fixed = pairs.get("fixed", R_EQUALS_S)
            spec = SweepSpec(
                axis1=_parse_axis(pairs["axis1"]),
                axis2=_parse_axis(pairs["axis2"]),
                fixed=fixed if fixed == R_EQUALS_S else float(fixed),
                outputs=tuple(pairs["outputs"].split(",")),
            )
            text, code = run_sweep(spec), 0

        else:
            start = time.perf_counter()
            results, ok = run_validation(args.grid_density)
            lines = [result.line() for result in results]
            lines.append(f"elapsed: {(time.perf_counter() - start) * 1e3:.1f} ms")
            lines.append("validation: " + ("PASS" if ok else "FAIL"))
            text, code = "\n".join(lines) + "\n", 0 if ok else 1
    except (ValueError, CvWernerError) as exc:
        parser.error(str(exc))

    try:
        _emit(text, args.output)
    except (OSError, ValueError) as exc:
        # The --output path cannot be opened or written (open() raises
        # ValueError on a path with a NUL byte).
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 2
    return code


def _emit(text: str, output: str | None) -> None:
    if output and output != "-":
        with open(output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    raise SystemExit(main())

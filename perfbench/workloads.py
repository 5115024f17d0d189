"""The four benchmark workloads: seeded inputs, operations and output checks.

A workload turns a seed into a fixed list of operations (one *round*).
The runner repeats whole rounds, so every run attempts the same
operations in the same proportions. Operations go through cvwerner's
public API: ``cli.main`` for ``eval``, ``sweep`` and ``validate`` (the
parse-dispatch-format path users run) and the package functions for the
brute-force spectrum. Checks compare outputs with ``oracles``, which is
computed apart from the program, never with stored output.

Strata are chosen along the cost structure measured at the commit that
introduced the benchmark, so that seeds move inputs but not the share of
each cost class, and no reported percentile sits on a step between
classes (see README.md).
"""

from __future__ import annotations

import contextlib
import io
import math
import random
import re
from dataclasses import dataclass

import oracles

THRESHOLD_COLUMNS = ("p_min_entangled_direct", "p_min_entangled_mapped", "p_max_separable",
                     "p_min_nonlocal", "p_min_squeezed")


@dataclass(frozen=True)
class Op:
    kind: str  # operations of the workload's latency kind feed op_p50_ms
    args: tuple
    points: int = 1  # parameter points the operation evaluates


def run_cli(argv: list[str], exit_codes=(0,)) -> str:
    """Run the cvwerner CLI in-process and return its standard output."""
    from cvwerner import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code not in exit_codes:
        raise RuntimeError(f"cvwerner {' '.join(argv)} exited with {code}")
    return buf.getvalue()


# ---------------------------------------------------------------------------
# sweep_phase
# ---------------------------------------------------------------------------

class SweepPhase:
    """Four r x s threshold sweeps at fixed p and one p x r fidelity sweep."""

    name = "sweep_phase"
    latency_kind = "sweep"
    steps = 20

    def warmup(self) -> None:
        run_cli(["sweep", "axis1=r[0.1,2,20]", "axis2=s[0.1,2,20]", "fixed=0.5",
                 "outputs=" + ",".join(THRESHOLD_COLUMNS)])

    def ops(self, seed: int) -> list[Op]:
        rng = random.Random(seed)
        n = self.steps
        ops = []
        for _ in range(4):
            r_lo, r_hi = rng.uniform(0.05, 0.2), rng.uniform(1.8, 2.1)
            s_lo, s_hi = rng.uniform(0.05, 0.2), rng.uniform(1.8, 2.1)
            argv = ["sweep", f"axis1=r[{r_lo:.4f},{r_hi:.4f},{n}]",
                    f"axis2=s[{s_lo:.4f},{s_hi:.4f},{n}]", f"fixed={rng.uniform(0.2, 0.8):.4f}",
                    "outputs=" + ",".join(THRESHOLD_COLUMNS)]
            ops.append(Op("sweep", (argv, rng.randrange(n * n), rng.randrange(n * n)), n * n))
        p_lo, p_hi = rng.uniform(0.0, 0.1), rng.uniform(0.9, 1.0)
        r_lo, r_hi = rng.uniform(0.05, 0.2), rng.uniform(1.8, 2.1)
        argv = ["sweep", f"axis1=p[{p_lo:.4f},{p_hi:.4f},{n}]", f"axis2=r[{r_lo:.4f},{r_hi:.4f},{n}]",
                "fixed=r_equals_s", "outputs=fidelity_w"]
        ops.append(Op("sweep", (argv,), n * n))
        return ops

    def run(self, op: Op) -> str:
        return run_cli(op.args[0])

    def check(self, op: Op, out: str) -> list[str]:
        argv = op.args[0]
        lines = [ln for ln in out.splitlines() if not ln.startswith("#")]
        header, rows = lines[0].split(","), [list(map(float, ln.split(","))) for ln in lines[1:]]
        errors = []
        if len(rows) != self.steps ** 2:
            errors.append(f"{len(rows)} rows, expected {self.steps ** 2}")
        if "outputs=fidelity_w" in argv:
            for p, r, fid in rows:
                if abs(fid - oracles.fidelity(p, r, r)) > 1e-10:
                    errors.append(f"fidelity_w at p={p} r={r}: {fid} vs {oracles.fidelity(p, r, r)}")
            return errors
        col = {name: header.index(name) for name in THRESHOLD_COLUMNS}
        for row in rows:
            r, s = row[0], row[1]
            errors.append(oracles.check_ordering(
                row[col["p_max_separable"]], row[col["p_min_entangled_direct"]],
                row[col["p_min_entangled_mapped"]], row[col["p_min_nonlocal"]]))
            errors.append(oracles.check_squeezing_threshold(r, s, row[col["p_min_squeezed"]]))
        for index in op.args[1:]:
            row = rows[index]
            r, s = row[0], row[1]
            errors.append(oracles.check_direct(r, s, row[col["p_min_entangled_direct"]]))
            errors.append(oracles.check_mapped(r, s, row[col["p_min_entangled_mapped"]]))
            errors.append(oracles.check_nonlocal(r, s, row[col["p_min_nonlocal"]]))
        return [e for e in errors if e]

    def named_metrics(self, ops, stats) -> dict:
        points = sum(op.points for op in ops)
        return {"sweep_points_per_s": (points / stats["wall_s"], "1/s")}


# ---------------------------------------------------------------------------
# eval_points
# ---------------------------------------------------------------------------

# Strata of one eval round: (count, r = s?, lower, upper bound of u), where
# u = max(r, s) sets the squeezing moment cutoff. The bounds keep clear of
# the values of u at which that cutoff doubles (0.51, 0.83, 1.16, 1.49,
# 1.82, 2.16) and of u >= 2.49, where it hits its 2048-level cap. The r = s
# points also run the teleport quadrature oracle, whose grid, and so its
# cost, grows steeply with r; their strata are narrow so that seeds do not
# move the cost of a round. Single-thread costs at the introducing commit,
# r != s by cutoff class: 2.5, 2.5, 3, 5, 16, 100, 620 ms; r = s at
# u = 0.3, 1, 1.32, 1.65, 1.9, 2.28: 5, 17, 40, 110, 310, 930 ms. Of the 30
# points, 11 cost less than the eight-point 128-level class and 11 more,
# so p50 falls in the middle of that class; p90 falls among the three
# r != s points of the 1024-level class, below the one r = s point there.
EVAL_STRATA = (
    (4, False, 0.10, 0.48),
    (4, False, 0.54, 0.80),
    (3, False, 0.86, 1.13),
    (8, False, 1.19, 1.46),
    (1, True, 0.28, 0.32),
    (1, True, 0.98, 1.02),
    (1, True, 1.30, 1.34),
    (1, True, 1.63, 1.67),
    (1, True, 1.88, 1.92),
    (1, True, 2.26, 2.30),
    (1, False, 1.52, 1.79),
    (1, False, 1.85, 2.13),
    (3, False, 2.19, 2.38),
)

_VERDICT = re.compile(r"^(\w+): (true|false) threshold_p=(\S+) margin=(\S+) method=(\w+)$")
_FIDELITY = re.compile(r"^fidelity_w: closed_form=(\S+) numeric=(\S+) agreement=(\S+)$")


class EvalPoints:
    name = "eval_points"
    latency_kind = "eval"

    def warmup(self) -> None:
        run_cli(["eval", "p=0.5", "r=1", "s=1"])

    def ops(self, seed: int) -> list[Op]:
        rng = random.Random(seed)
        ops = []
        for count, equal, lo, hi in EVAL_STRATA:
            for _ in range(count):
                u = round(rng.uniform(lo, hi), 6)
                v = u if equal else round(rng.uniform(0.05, 0.9 * u), 6)
                r, s = (u, v) if rng.random() < 0.5 else (v, u)
                p = round(rng.uniform(0.1, 0.9), 6)
                ops.append(Op("eval", (f"p={p}", f"r={r}", f"s={s}")))
        # Kept in strata order: a cheap eval right after a 1024-level one runs
        # on cold caches and costs up to 40 % more, so a seeded order would
        # move p50 from seed to seed.
        return ops

    def run(self, op: Op) -> str:
        return run_cli(["eval", *op.args])

    def check(self, op: Op, out: str) -> list[str]:
        p, r, s = (float(a.split("=")[1]) for a in op.args)
        verdicts, fidelity_line = {}, None
        for line in out.splitlines()[2:]:
            match = _VERDICT.match(line)
            if match:
                verdicts[match[1]] = (match[2] == "true", float(match[3]), float(match[4]))
            elif line.startswith("fidelity_w:"):
                fidelity_line = line
        expected = {"entangled_ppt_direct", "entangled_ppt_mapped", "separable_sufficient",
                    "nonlocal", "squeezed"}
        if set(verdicts) != expected or fidelity_line is None:
            return [f"eval {op.args}: missing lines in {out!r}"]
        errors = []
        for name, (decision, thr, margin) in verdicts.items():
            holds = margin >= 0.0 if name == "separable_sufficient" else margin > 0.0
            if decision != holds:
                errors.append(f"{name} decision {decision} disagrees with margin {margin}")
            if name != "squeezed" and math.isfinite(thr):
                signed = thr - p if name == "separable_sufficient" else p - thr
                if abs(signed - margin) > 1e-11:
                    errors.append(f"{name} margin {margin} is not p - threshold {signed}")
        direct, mapped = verdicts["entangled_ppt_direct"][1], verdicts["entangled_ppt_mapped"][1]
        bell, sep = verdicts["nonlocal"][1], verdicts["separable_sufficient"][1]
        errors += [oracles.check_direct(r, s, direct), oracles.check_mapped(r, s, mapped),
                   oracles.check_nonlocal(r, s, bell), oracles.check_ordering(sep, direct, mapped, bell),
                   oracles.check_squeezing_threshold(r, s, verdicts["squeezed"][1])]
        squeeze_margin = 1.0 - oracles.squeezing_variance(p, r, s)
        if abs(verdicts["squeezed"][2] - squeeze_margin) > 1e-6:
            errors.append(f"squeezing margin {verdicts['squeezed'][2]} vs {squeeze_margin}")
        if r == s:
            match = _FIDELITY.match(fidelity_line)
            exact = oracles.fidelity(p, r, s)
            if not match or abs(float(match[1]) - exact) > 1e-10 or abs(float(match[2]) - exact) > 1e-3:
                errors.append(f"fidelity line {fidelity_line!r} vs closed form {exact}")
        elif fidelity_line != "fidelity_w: requires r = s, skipped":
            errors.append(f"unexpected fidelity line {fidelity_line!r}")
        return [e for e in errors if e]

    def named_metrics(self, ops, stats) -> dict:
        return {"eval_p50_ms": (stats["sample_p50_ms"], "ms"), "eval_p90_ms": (stats["sample_p90_ms"], "ms"),
                "eval_samples": (float(stats["op_samples"]), "count")}


# ---------------------------------------------------------------------------
# validate_suite
# ---------------------------------------------------------------------------

class ValidateSuite:
    """``validate 2`` passes: 8-point grid, every cross-check the CLI has.

    The validate grid is fixed by the CLI, so the seed changes nothing here.
    """

    name = "validate_suite"
    latency_kind = "validate"
    density = 2
    checks = 8

    def warmup(self) -> None:
        self.run(self.ops(0)[0])

    def ops(self, seed: int) -> list[Op]:
        return [Op("validate", (str(self.density),), self.density ** 3)]

    def run(self, op: Op) -> str:
        # Exit code 1 means a check failed; the output says which, and check()
        # reports it. The elapsed line differs from pass to pass; drop it so
        # that rounds compare equal.
        out = run_cli(["validate", *op.args], exit_codes=(0, 1))
        return "\n".join(ln for ln in out.splitlines() if not ln.startswith("elapsed:"))

    def check(self, op: Op, out: str) -> list[str]:
        lines = out.splitlines()
        errors = [] if lines[-1:] == ["validation: PASS"] else [f"no PASS line: {lines[-1:]}"]
        checks = lines[:-1]
        if len(checks) != self.checks:
            errors.append(f"{len(checks)} check lines, expected {self.checks}")
        for line in checks:
            match = re.match(r"^.+: (\w+) worst_deviation=(\S+)", line)
            if not match or match[1] != "pass" or not math.isfinite(float(match[2])):
                errors.append(f"check line {line!r}")
        return errors

    def named_metrics(self, ops, stats) -> dict:
        return {"validate_pass_s": (stats["sample_p50_ms"] / 1e3, "s")}


# ---------------------------------------------------------------------------
# spectrum_oracle
# ---------------------------------------------------------------------------

class SpectrumOracle:
    """Brute-force partial-transpose spectra next to the enumerated ones.

    Seven cutoffs, equally represented, so the median spectrum time is the
    middle cutoff's (n_max = 18, dimension 324) and not a step between two.
    """

    name = "spectrum_oracle"
    latency_kind = "bruteforce"
    cutoffs = (12, 14, 16, 18, 20, 22, 24)

    def warmup(self) -> None:
        self.run(Op("bruteforce", (0.5, 1.0, 1.0, 12)))
        self.run(Op("enumerate", (0.5, 1.0, 1.0, 12)))

    def ops(self, seed: int) -> list[Op]:
        rng = random.Random(seed)
        ops = []
        for n in self.cutoffs:
            for _ in range(2):
                point = (round(rng.uniform(0.1, 0.9), 6), round(rng.uniform(0.2, 1.5), 6),
                         round(rng.uniform(0.2, 1.5), 6), n)
                ops += [Op("bruteforce", point), Op("enumerate", point)]
        return ops

    def run(self, op: Op):
        import cvwerner

        p, r, s, n = op.args
        params = cvwerner.WernerParams(p=p, r=r, s=s)
        if op.kind == "enumerate":
            return cvwerner.enumerate_ppt_spectrum(params, n)
        return cvwerner.ppt_spectrum_bruteforce(params, cvwerner.FockCutoff(n_max=n, tail_bound=1.0 - 1e-15))

    def check(self, op: Op, out) -> list[str]:
        p, r, s, n = op.args
        reference = oracles.ppt_spectrum(p, r, s, n)
        errors = []
        if len(out) != n * n:
            return [f"{op.kind} at {op.args}: {len(out)} eigenvalues, expected {n * n}"]
        worst = float(abs(out - reference).max())
        if worst > 1e-10:
            errors.append(f"{op.kind} at {op.args}: off eigvalsh by {worst:.3e}")
        trace = 1.0 - oracles.truncation_deficit(p, r, s, n)
        if abs(float(out.sum()) - trace) > 1e-12:
            errors.append(f"{op.kind} at {op.args}: sums to {out.sum()}, expected {trace}")
        return errors

    def named_metrics(self, ops, stats) -> dict:
        return {"spectrum_p50_ms": (stats["sample_p50_ms"], "ms")}


WORKLOADS = {w.name: w for w in (SweepPhase(), EvalPoints(), ValidateSuite(), SpectrumOracle())}

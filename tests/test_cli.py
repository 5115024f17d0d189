"""Tests for the command-line front end: eval, sweep, validate, the
README's examples, the removed flags (--tail-bound, --n-max, --config) and
an --output path that cannot be written, which exit 2."""

import math
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from cvwerner import cli
from cvwerner import criteria as cr
from cvwerner import numerics
from cvwerner import qubit_map as qm
from cvwerner import teleport as tp
from cvwerner import tolerances as tol
from cvwerner.cli import (
    AxisSpec,
    SweepSpec,
    main,
    run_sweep,
    run_validation,
)
from cvwerner.fock_core import FockCutoff
from cvwerner.states import WernerParams
from densify import dense
from test_teleport import closed_form_fidelity


class TestAxisSpec:
    def test_values(self):
        axis = AxisSpec(name="r", minimum=0.0, maximum=1.0, steps=5)
        assert np.allclose(axis.values(), [0, 0.25, 0.5, 0.75, 1.0])

    def test_invalid(self):
        with pytest.raises(ValueError):
            AxisSpec(name="x", minimum=0.0, maximum=1.0, steps=5)
        with pytest.raises(ValueError):
            AxisSpec(name="r", minimum=0.0, maximum=1.0, steps=1)
        with pytest.raises(ValueError):
            AxisSpec(name="r", minimum=1.0, maximum=0.5, steps=3)


class TestSweepSpec:
    def make(self, **overrides):
        kwargs = dict(
            axis1=AxisSpec(name="r", minimum=0.1, maximum=2.0, steps=3),
            axis2=AxisSpec(name="s", minimum=0.1, maximum=2.0, steps=3),
            fixed=0.5,
            outputs=("p_min_entangled_direct",),
        )
        kwargs.update(overrides)
        return SweepSpec(**kwargs)

    def test_point_with_fixed_value(self):
        spec = self.make()
        params = spec.point(0.7, 1.1)
        assert params == WernerParams(p=0.5, r=0.7, s=1.1)

    def test_point_with_r_equals_s(self):
        spec = self.make(
            axis1=AxisSpec(name="p", minimum=0.0, maximum=1.0, steps=3),
            axis2=AxisSpec(name="r", minimum=0.0, maximum=2.0, steps=3),
            fixed="r_equals_s",
            outputs=("fidelity_w",),
        )
        params = spec.point(0.5, 1.5)
        assert params.s == params.r == 1.5

    def test_duplicate_axes_rejected(self):
        with pytest.raises(ValueError):
            self.make(axis2=AxisSpec(name="r", minimum=0.0, maximum=1.0, steps=3))

    def test_unknown_output_rejected(self):
        with pytest.raises(ValueError):
            self.make(outputs=("not_a_column",))

    def test_empty_outputs_rejected(self):
        with pytest.raises(ValueError, match="at least one output is required"):
            self.make(outputs=())

    def test_repeated_output_rejected(self):
        with pytest.raises(ValueError, match="output 'p_min_squeezed' given more than once"):
            self.make(outputs=("p_min_squeezed", "p_max_separable", "p_min_squeezed"))

    def test_r_equals_s_requires_p_axis(self):
        with pytest.raises(ValueError):
            self.make(fixed="r_equals_s")  # remaining axis is p


class TestRunSweep:
    def test_header_and_shape(self, tmp_path):
        out = tmp_path / "sweep.csv"
        outputs = ("p_min_entangled_direct", "p_min_entangled_mapped", "p_min_nonlocal")
        spec = SweepSpec(
            axis1=AxisSpec(name="r", minimum=0.1, maximum=2.0, steps=4),
            axis2=AxisSpec(name="s", minimum=0.1, maximum=2.0, steps=4),
            fixed=0.5,
            outputs=outputs,
        )
        text = run_sweep(spec)
        assert main(["--output", str(out), "sweep", "axis1=r[0.1,2,4]", "axis2=s[0.1,2,4]",
                     "fixed=0.5", "outputs=" + ",".join(outputs)]) == 0
        assert out.read_bytes() == text.encode("utf-8")
        lines = text.split("\n")
        comments = [l for l in lines if l.startswith("#")]
        assert [c.split("=")[0] for c in comments] == [
            "# command", "# axis1", "# axis2", "# fixed", "# outputs"]
        header = next(l for l in lines if l and not l.startswith("#"))
        assert header == "r,s,p_min_entangled_direct,p_min_entangled_mapped,p_min_nonlocal"
        rows = [l for l in lines if l and not l.startswith("#")][1:]
        assert len(rows) == 16

    def test_threshold_ordering_invariant(self):
        spec = SweepSpec(
            axis1=AxisSpec(name="r", minimum=0.1, maximum=2.0, steps=5),
            axis2=AxisSpec(name="s", minimum=0.1, maximum=2.0, steps=5),
            fixed=0.5,
            outputs=("p_min_entangled_direct", "p_min_entangled_mapped",
                     "p_min_nonlocal"),
        )
        rows = [l for l in run_sweep(spec).split("\n") if l and not l.startswith("#")][1:]
        for row in rows:
            _, _, direct, mapped, nonlocal_ = map(float, row.split(","))
            assert direct <= mapped <= nonlocal_

    def test_nonlocal_threshold_range(self):
        # All nonlocality thresholds sit in (1/3, 1/sqrt(2)] territory or above.
        spec = SweepSpec(
            axis1=AxisSpec(name="r", minimum=0.5, maximum=4.0, steps=6),
            axis2=AxisSpec(name="s", minimum=0.5, maximum=4.0, steps=6),
            fixed=0.5,
            outputs=("p_min_nonlocal",),
        )
        rows = [l for l in run_sweep(spec).split("\n") if l and not l.startswith("#")][1:]
        values = [float(row.split(",")[2]) for row in rows]
        assert all(v >= 1.0 / 3.0 for v in values)

    def test_fidelity_surface_approaches_p(self):
        spec = SweepSpec(
            axis1=AxisSpec(name="p", minimum=0.0, maximum=1.0, steps=3),
            axis2=AxisSpec(name="r", minimum=0.0, maximum=6.0, steps=4),
            fixed="r_equals_s",
            outputs=("fidelity_w",),
        )
        rows = [l for l in run_sweep(spec).split("\n") if l and not l.startswith("#")][1:]
        for row in rows:
            p, r, f = map(float, row.split(","))
            if r == 6.0:
                assert f == pytest.approx(p, abs=1e-4) or p == 1.0

    def test_byte_determinism(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (out1, out2):
            main(["--output", str(out), "sweep",
                  "axis1=r[0.1,2,5]", "axis2=s[0.1,2,5]",
                  "outputs=p_min_entangled_direct,p_max_separable", "fixed=0.5"])
        assert out1.read_bytes() == out2.read_bytes()

    def test_fidelity_column_off_diagonal(self, tmp_path):
        # The fidelity_w column holds at r != s: each value is the closed
        # form to rounding, the numeric oracle agrees with it, and the CSV
        # cell is the value to 12 digits.
        out = tmp_path / "fidelity.csv"
        assert main(["--output", str(out), "sweep", "axis1=r[0.1,2,3]", "axis2=s[0.1,2,3]",
                     "fixed=0.5", "outputs=fidelity_w"]) == 0
        rows = [l for l in out.read_text().splitlines() if not l.startswith("#")][1:]
        assert len(rows) == 9
        for row in rows:
            r, s, fidelity = map(float, row.split(","))
            params = WernerParams(p=0.5, r=r, s=s)
            value = cli.COLUMNS["fidelity_w"].value(params)
            assert abs(value - closed_form_fidelity(0.5, r, s)) <= 1e-15
            assert abs(value - tp.fidelity_numeric_oracle(params)) <= tol.FIDELITY_AGREEMENT_TOL
            assert row.split(",")[2] == f"{value:.12g}"

    def test_repeated_key_exits_2_and_names_it(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["sweep", "axis1=r[0.5,1,2]", "axis2=s[0.5,1,2]",
                  "outputs=p_min_squeezed", "fixed=0.5", "fixed=0.7"])
        assert info.value.code == 2
        assert "key 'fixed' given more than once" in capsys.readouterr().err

    @pytest.mark.parametrize("spec, message", [
        (["fixed=0.5", "outputs=p_min_squeezed", "fixd=0.9"], "unknown key 'fixd'"),
        (["fixed=0.5"], "key 'outputs' is required"),
        (["outputs=p_min_squeezed", "outputs=p_min_nonlocal"], "key 'outputs' given more than once"),
    ], ids=["unknown", "missing", "repeated"])
    def test_key_rule_exits_2_and_names_the_key(self, capsys, spec, message):
        # One key rule for eval and sweep: a misspelt fixed= must not fall
        # back to r_equals_s.
        with pytest.raises(SystemExit) as info:
            main(["sweep", "axis1=r[0.1,2,2]", "axis2=s[0.1,2,2]", *spec])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert f"error: {message}" in captured.err
        assert captured.out == ""

    def test_repeated_output_exits_2_and_names_it(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["sweep", "axis1=r[0.5,1,2]", "axis2=s[0.5,1,2]", "fixed=0.5",
                  "outputs=p_min_squeezed,p_min_squeezed"])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert "output 'p_min_squeezed' given more than once" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("axis, value, message", [
        ("p", "-1", "p must lie in [0, 1], got -1.0"),
        ("p", "nan", "p must lie in [0, 1], got nan"),
        ("p", "1.5", "p must lie in [0, 1], got 1.5"),
        ("r", "-2", "r and s must be >= 0"),
        ("r", "nan", "r and s must be finite"),
        ("r", "inf", "r and s must be finite"),
    ])
    def test_fixed_value_out_of_range_exits_2(self, capsys, axis, value, message):
        # The fixed value meets the same range rule as every point:
        # WernerParams's.
        axes = [a for a in ("p", "r", "s") if a != axis]
        with pytest.raises(SystemExit) as info:
            main(["sweep", f"axis1={axes[0]}[0.5,1,2]", f"axis2={axes[1]}[0.5,1,2]",
                  f"fixed={value}", "outputs=p_min_squeezed"])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert f"error: {message}" in captured.err
        assert captured.out == ""

    def test_out_of_range_axis_exits_2_before_any_row(self, monkeypatch, capsys):
        # The grid's two corners hold every point to WernerParams's range
        # rules, so p up to 2 fails before the rows with p <= 1 are computed.
        calls = []
        monkeypatch.setattr(cr, "direct_entanglement_threshold",
                            lambda r, s: calls.append((r, s)) or 0.5)
        with pytest.raises(SystemExit) as info:
            main(["sweep", "axis1=p[0,2,200]", "axis2=r[0.1,2,200]", "fixed=0.5",
                  "outputs=p_min_entangled_direct,p_min_nonlocal"])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert "error: p must lie in [0, 1], got 2.0" in captured.err
        assert captured.out == ""
        assert calls == []


class TestOutputPath:
    @pytest.mark.parametrize("command", [
        ["eval", "p=0.5", "r=1", "s=1"],
        ["sweep", "axis1=r[0.5,1,2]", "axis2=s[0.5,1,2]", "fixed=0.5", "outputs=p_min_squeezed"],
        ["validate", "2"],
    ], ids=["eval", "sweep", "validate"])
    def test_unopenable_output_exits_2_with_one_line(self, tmp_path, capsys, command):
        path = tmp_path / "missing" / "x.csv"
        assert main(["--output", str(path), *command]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"cvwerner: error: [Errno 2] No such file or directory: '{path}'"]


class TestEval:
    def test_report_contents(self, capsys):
        code = main(["eval", "p=0.5", "r=1", "s=1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "entangled_ppt_direct: true" in out
        assert "entangled_ppt_mapped: true" in out
        assert "nonlocal: false" in out
        assert "squeezed: false" in out
        assert "fidelity_w: closed_form=0.545392" in out
        assert out.splitlines()[1] == "thresholds: closed forms in (p, r, s), no Fock truncation"

    def test_product_state_point(self, capsys):
        main(["eval", "p=0", "r=1", "s=1"])
        out = capsys.readouterr().out
        assert "entangled_ppt_direct: false" in out
        assert "entangled_ppt_mapped: false" in out
        assert "nonlocal: false" in out
        assert "separable_sufficient: true" in out

    def test_vacuum_point(self, capsys):
        main(["eval", "p=1", "r=0", "s=0"])
        out = capsys.readouterr().out
        assert "entangled_ppt_direct: false" in out
        assert "fidelity_w: closed_form=0.5 " in out

    def test_vacuum_is_not_squeezed(self, capsys):
        assert main(["eval", "p=1", "r=0", "s=0"]) == 0
        assert "squeezed: false threshold_p=1 margin=0 method=both" in capsys.readouterr().out

    def test_large_squeezing_cross_check_passes(self, capsys):
        assert main(["eval", "p=0.5", "r=3", "s=2"]) == 0
        assert "squeezed: false" in capsys.readouterr().out

    @pytest.mark.parametrize("rs", ["3", "5"])
    def test_numeric_fidelity_matches_closed_form_at_large_squeezing(self, capsys, rs):
        assert main(["eval", "p=0.5", f"r={rs}", f"s={rs}", "--criteria", "fidelity_w"]) == 0
        match = re.search(r"fidelity_w: closed_form=(\S+) numeric=(\S+) ", capsys.readouterr().out)
        closed, numeric = float(match.group(1)), float(match.group(2))
        assert abs(numeric - closed) <= 1e-9

    @pytest.mark.parametrize("r, s, expected", [
        ("1e-100", "1e-100", 1e-100),
        ("1e-17", "1e-9", 0.0909090909090909091),
        ("1e-15", "1e-9", 0.000999000999000999001),
    ])
    def test_squeezing_threshold_at_tiny_parameters(self, capsys, r, s, expected):
        # 50-digit values of (cosh 2s - 1) / (cosh 2s - e^{-2r}); the naive
        # double-precision form divides 0 by 0 or returns 0 here.
        assert main(["eval", "p=0.5", f"r={r}", f"s={s}", "--criteria", "squeezed"]) == 0
        threshold = re.search(r"squeezed: \w+ threshold_p=(\S+) ", capsys.readouterr().out)
        assert float(threshold.group(1)) == pytest.approx(expected, rel=1e-11)

    def test_vacuum_verdicts_are_finite(self, capsys):
        assert main(["eval", "p=1", "r=0", "s=0"]) == 0
        verdicts = re.findall(r"^\w+: (?:true|false) threshold_p=(\S+) margin=(\S+) ",
                              capsys.readouterr().out, flags=re.MULTILINE)
        assert len(verdicts) == 5
        for threshold, margin in verdicts:
            assert math.isfinite(float(threshold)) and math.isfinite(float(margin))

    @pytest.mark.parametrize(
        "point, message",
        [
            (("p=0.5", "r=nan", "s=1"), "must be finite"),
            (("p=0.5", "r=inf", "s=1"), "must be finite"),
            (("p=0.5", "r=20", "s=20"), "tanh saturates"),
        ],
    )
    def test_out_of_range_point_exits_2(self, capsys, point, message):
        with pytest.raises(SystemExit) as info:
            main(["eval", *point])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err

    def test_large_squeezing_gives_finite_verdicts(self, capsys):
        # The squeezing verdict is the closed form, so no cutoff bounds r.
        assert main(["eval", "p=0.5", "r=9", "s=1"]) == 0
        verdicts = re.findall(r"^\w+: (?:true|false) threshold_p=(\S+) margin=(\S+) ",
                              capsys.readouterr().out, flags=re.MULTILINE)
        assert len(verdicts) == 5
        assert all(math.isfinite(float(v)) for verdict in verdicts for v in verdict)

    @pytest.mark.parametrize("s", ["1e-100", "1e-200"])
    def test_vanishing_noise_gives_finite_verdicts(self, capsys, s):
        # tanh(s)^4, then tanh(s)^2 and tanh(2s)^2, underflow to 0 here.
        assert main(["eval", "p=0.5", "r=1", f"s={s}"]) == 0
        verdicts = re.findall(r"^\w+: (?:true|false) threshold_p=(\S+) margin=(\S+) ",
                              capsys.readouterr().out, flags=re.MULTILINE)
        assert len(verdicts) == 5
        for threshold, margin in verdicts:
            assert math.isfinite(float(threshold)) and math.isfinite(float(margin))

    def test_invalid_parameter_rejected(self):
        with pytest.raises(SystemExit):
            main(["eval", "p=1.5", "r=1", "s=1"])
        with pytest.raises(SystemExit):
            main(["eval", "q=0.5"])

    def test_repeated_key_exits_2_and_names_it(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["eval", "r=1", "s=1", "p=0.5", "p=0.7"])
        assert info.value.code == 2
        assert "key 'p' given more than once" in capsys.readouterr().err

    def test_unknown_key_exits_2_and_names_it(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["eval", "p=0.5", "r=1", "q=1"])
        assert info.value.code == 2
        assert "error: unknown key 'q'" in capsys.readouterr().err

    @pytest.mark.parametrize("point, key", [(["r=1", "s=1"], "p"), (["p=0.5", "s=1"], "r"),
                                            (["p=0.5", "r=1"], "s")])
    def test_missing_key_exits_2_and_names_it(self, capsys, point, key):
        # A missing parameter is an error, not 0.
        with pytest.raises(SystemExit) as info:
            main(["eval", *point, "--criteria", "fidelity_w,squeezed"])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert f"error: key '{key}' is required" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("names, message", [
        ((), "at least one criterion is required"),
        (("squeezed", "nonlocal", "squeezed"), "criterion 'squeezed' given more than once"),
        (("nonlocal", "bell"), "unknown criterion 'bell'"),
    ])
    def test_name_rule(self, monkeypatch, names, message):
        # eval's criteria and sweep's outputs meet one rule; a bad name
        # anywhere in the list raises before any line is computed.
        calls = []
        monkeypatch.setattr(qm, "nonlocality_threshold", lambda r, s: calls.append(r) or 0.5)
        with pytest.raises(ValueError, match=re.escape(message)):
            cli.run_eval(WernerParams(p=0.5, r=1.0, s=1.0), names)
        assert calls == []

    def test_repeated_criterion_exits_2_and_names_it(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["eval", "p=0.5", "r=1", "s=1", "--criteria", "nonlocal,squeezed,squeezed"])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert "criterion 'squeezed' given more than once" in captured.err
        assert captured.out == ""


def readme_commands():
    """Each `cvwerner ...` command of README.md's sh blocks, continuation
    lines joined."""
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```sh\n(.*?)^```", text, flags=re.MULTILINE | re.DOTALL)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [line.strip() for line in lines if line.strip().startswith("cvwerner ")]


class TestReadmeExamples:
    def test_every_subcommand_has_an_example(self):
        words = {word for command in readme_commands() for word in shlex.split(command)}
        assert {"eval", "sweep", "validate"} <= words

    @pytest.mark.parametrize("command", readme_commands())
    def test_runs(self, tmp_path, command):
        argv = shlex.split(command)[1:]
        if "--output" in argv:
            argv[argv.index("--output") + 1] = str(tmp_path / argv[argv.index("--output") + 1])
        else:
            argv = ["--output", str(tmp_path / "out.txt"), *argv]
        assert main(argv) == 0


class TestRemovedFlags:
    @pytest.mark.parametrize("flag", [["--tail-bound", "1e-9"], ["--n-max", "6"],
                                      ["--config", "run.cfg"]])
    def test_removed_flags_exit_2(self, flag, capsys):
        with pytest.raises(SystemExit) as info:
            main([*flag, "eval", "p=0.5", "r=1", "s=1"])
        assert info.value.code == 2
        assert f"unrecognized option '{flag[0]}'" in capsys.readouterr().err


def corrupted_closed_form(fault, where=lambda params: True):
    """closed_form_two_qubit with ``fault`` moved from |00><00| to |01><01|
    at the points ``where`` accepts."""
    closed_form = qm.closed_form_two_qubit

    def corrupted(params, n_max=None):
        m = closed_form(params, n_max=n_max).copy()
        if where(params):
            m[0, 0] += fault
            m[1, 1] -= fault
        return m

    return corrupted


def faulty_block_weights(weight, fault):
    """criteria._block_weights with the NOPA coherence c_k, the thermal pair
    weight t_k or the thermal cell weight b_k scaled by 1 + ``fault``."""
    table = cr._block_weights

    def faulty(l1, l2, k, cell=False, **scales):
        thermal, coherence = table(l1, l2, k, cell, **scales)
        if weight == "c":
            coherence = coherence * (1 + fault)
        elif cell == (weight == "b"):
            thermal = thermal * (1 + fault)
        return thermal, coherence

    return faulty


class TestValidate:
    def test_passes_on_clean_build(self, capsys):
        code = main(["validate", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "validation: PASS" in out

    def test_fault_injection_is_detected(self, monkeypatch):
        monkeypatch.setattr(qm, "closed_form_two_qubit", corrupted_closed_form(0.05))
        results, ok = run_validation(2)
        assert not ok
        failing = [r for r in results if not r.passed]
        assert any("qubit_map" in r.name for r in failing)

    def test_small_fault_is_detected_where_truncation_is_largest(self, monkeypatch):
        # At r = s = 2 the 12-level state misses about half of its trace;
        # the check compares with the truncated closed form, so no slack of
        # that size is left to hide the fault. The mapped threshold's pencil
        # reads the untruncated closed form at p = 1 and p = 0, where the
        # fault moves its threshold by ~1e-9, so that line fails too.
        fault = corrupted_closed_form(1e-9, where=lambda w: w.r == w.s == 2.0)
        monkeypatch.setattr(qm, "closed_form_two_qubit", fault)
        results, ok = run_validation(2)
        assert not ok
        failing = [r.name for r in results if not r.passed]
        assert failing == ["qubit_map consistency (pair trace vs moments vs closed form)",
                           "mapped threshold (closed form vs pencil)"]

    def test_moment_route_fault_is_detected(self, monkeypatch):
        # The pseudo-spin moment route is the qubit-map check's second
        # partner: a 1e-9 error in it alone fails that check.
        moment_route = qm._map_via_moments

        def faulty(rho):
            m = moment_route(rho).copy()
            m[0, 0] += 1e-9
            return m

        monkeypatch.setattr(qm, "_map_via_moments", faulty)
        results, ok = run_validation(2)
        assert not ok
        failing = [r.name for r in results if not r.passed]
        assert failing == ["qubit_map consistency (pair trace vs moments vs closed form)"]

    def test_squeezing_fault_is_detected(self, monkeypatch, capsys):
        # The banded variance is checked against the closed form of the same
        # truncation, so a 1e-9 offset in it alone fails the squeezing check.
        banded = cr.squeezing_variance_direct
        monkeypatch.setattr(cr, "squeezing_variance_direct",
                            lambda *args, **kwargs: banded(*args, **kwargs) + 1e-9)
        assert main(["validate", "2"]) == 1
        failing = [line.split(":")[0] for line in capsys.readouterr().out.splitlines()
                   if ": FAIL worst_deviation" in line]
        assert failing == ["squeezing variance (closed form vs matrix)"]

    def test_fidelity_oracle_fault_is_detected(self, monkeypatch, capsys):
        # The oracle agrees with the closed form to rounding, so a 1e-9
        # offset in it alone fails the fidelity check and the command.
        oracle = tp.fidelity_numeric_oracle
        monkeypatch.setattr(tp, "fidelity_numeric_oracle",
                            lambda *args, **kwargs: oracle(*args, **kwargs) + 1e-9)
        assert main(["validate", "2"]) == 1
        failing = [line.split(":")[0] for line in capsys.readouterr().out.splitlines()
                   if ": FAIL worst_deviation" in line]
        assert failing == ["teleport fidelity (closed form vs numeric)"]

    @pytest.mark.parametrize("weight", ["c", "t", "b"])
    def test_block_weight_fault_is_detected(self, monkeypatch, capsys, weight):
        # The cell reconstruction compares the weight table's NOPA coherence
        # c_k, thermal pair weight t_k and thermal cell weight b_k with the
        # brute-force state, so a 1e-9 relative fault in any one of them
        # fails the cell check and the command.
        monkeypatch.setattr(cr, "_block_weights", faulty_block_weights(weight, 1e-9))
        assert main(["validate", "2"]) == 1
        failing = [line.split(":")[0] for line in capsys.readouterr().out.splitlines()
                   if ": FAIL worst_deviation" in line]
        assert "cell decomposition (reconstruction)" in failing

    def test_small_thermal_pair_weight_fault_is_detected(self, monkeypatch, capsys):
        # A 1e-10 relative fault in t_k moves the enumerated spectrum by
        # ~5e-11, below ORACLE_TOL; the spectrum check's own tolerance,
        # PPT_SPECTRUM_TOL, catches it.
        monkeypatch.setattr(cr, "_block_weights", faulty_block_weights("t", 1e-10))
        assert main(["validate", "2"]) == 1
        failing = [line.split(":")[0] for line in capsys.readouterr().out.splitlines()
                   if ": FAIL worst_deviation" in line]
        assert "ppt_spectrum (analytic vs brute force)" in failing

    def test_cell_fault_off_the_pattern_is_detected(self, monkeypatch):
        # |0,0><0,1| is zero in the Werner state, so it is not in its
        # pattern; an extra reconstruction entry there alone still fails
        # the cell check.
        reconstruct = cr.reconstruct_from_cells

        def faulty(params, n_max):
            rows, cols, values = reconstruct(params, n_max)
            return np.insert(rows, 1, 0), np.insert(cols, 1, 1), np.insert(values, 1, 1e-9)

        monkeypatch.setattr(cr, "reconstruct_from_cells", faulty)
        results, ok = run_validation(2)
        assert not ok
        failing = [r.name for r in results if not r.passed]
        assert failing == ["cell decomposition (reconstruction)"]

    def test_cell_missing_from_the_reconstruction_is_detected(self, monkeypatch):
        # The reconstruction lacks the state's first entry, the weight on
        # |0,0>: it counts at its full value.
        reconstruct = cr.reconstruct_from_cells
        monkeypatch.setattr(cr, "reconstruct_from_cells",
                            lambda params, n_max: tuple(part[1:] for part in
                                                        reconstruct(params, n_max)))
        results, ok = run_validation(2)
        assert not ok
        failing = [r for r in results if not r.passed]
        assert [r.name for r in failing] == ["cell decomposition (reconstruction)"]
        assert failing[0].worst_deviation > tol.MAP_CONSISTENCY_TOL

    def test_cell_deviation_is_the_dense_difference(self):
        # At s = 1e-20 the state drops its underflowed thermal entries; the
        # keyed comparison still gives the dense matrix difference bit for bit.
        params = WernerParams(p=0.5, r=1.0, s=1e-20)
        n_max = cli.VALIDATE_N_MAX
        rho = cli.werner_state(params, FockCutoff(n_max=n_max, tail_bound=1.0 - 1e-15))
        assert rho.pattern[0].size < 2 * n_max ** 2 - n_max
        cells = dense(cr.reconstruct_from_cells(params, n_max), rho.cutoff.dim)
        rows, cols, values = rho.pattern
        cells[rows, cols] -= values
        assert cli._matrix_deviations(params)[2] == float(np.abs(cells).max())

    def test_nan_deviation_fails(self, monkeypatch, capsys):
        # dev > tolerance is false for NaN; the check must still fail and
        # report the NaN as its worst deviation.
        monkeypatch.setattr(cr, "enumerate_ppt_spectrum",
                            lambda params, n_max: np.full(n_max * n_max, np.nan))
        results, ok = run_validation(2)
        assert not ok
        failing = [r.line() for r in results if not r.passed]
        assert len(failing) == 1
        assert failing[0].startswith(
            "ppt_spectrum (analytic vs brute force): FAIL worst_deviation=nan ")
        assert main(["validate", "2"]) == 1
        assert "validation: FAIL" in capsys.readouterr().out

    def test_one_spectrum_state_per_point(self, monkeypatch):
        # The spectrum, qubit-map and cell checks share each n_max = 12
        # state: eight builds on the eight points of validate 2. The direct
        # threshold's pencil builds the two components, p = 1 and p = 0, at
        # each of the four (r, s) points, and no other state is built.
        built = []
        build = cli.werner_state

        def counted(params, cutoff):
            built.append((params.p, cutoff.n_max))
            return build(params, cutoff)

        monkeypatch.setattr(cli, "werner_state", counted)
        monkeypatch.setattr(cr, "werner_state", counted)
        _, ok = run_validation(2)
        assert ok
        shared = [entry for entry in built if entry[0] not in (0.0, 1.0)]
        assert shared == [(p, cli.VALIDATE_N_MAX) for p in (0.2,) * 4 + (0.9,) * 4]
        assert sorted(built) == sorted(shared + [(0.0, cli.VALIDATE_N_MAX),
                                                 (1.0, cli.VALIDATE_N_MAX)] * 4)

    def test_rejects_small_grid(self):
        with pytest.raises(ValueError):
            run_validation(1)

    def test_check_lines_report_their_tolerance_and_slack(self):
        tolerances = {
            "ppt_spectrum (analytic vs brute force)": tol.PPT_SPECTRUM_TOL,
            "qubit_map consistency (pair trace vs moments vs closed form)":
                tol.MAP_CONSISTENCY_TOL,
            "teleport fidelity (closed form vs numeric)": tol.FIDELITY_AGREEMENT_TOL,
            "threshold ordering (separable <= direct <= mapped <= nonlocal)": 0.0,
            "mapped threshold (closed form vs pencil)": tol.PENCIL_THRESHOLD_TOL,
            "direct threshold (closed form vs pencil)": tol.PENCIL_THRESHOLD_TOL,
            "squeezing variance (closed form vs matrix)": tol.SQUEEZING_CONSISTENCY_TOL,
            "cell decomposition (reconstruction)": tol.MAP_CONSISTENCY_TOL,
        }
        results, _ = run_validation(2)
        assert [r.name for r in results] == list(tolerances)
        for result in results:
            match = re.search(r" tol=(\S+) slack=(\S+)$", result.line())
            assert match, result.line()
            assert match[1] == f"{tolerances[result.name]:.1e}"
            assert match[2] == f"{tolerances[result.name] - result.worst_deviation:.3e}"

    def test_elapsed_line_in_milliseconds(self, capsys):
        main(["validate", "2"])
        elapsed = [line for line in capsys.readouterr().out.splitlines()
                   if line.startswith("elapsed:")]
        assert len(elapsed) == 1
        assert re.fullmatch(r"elapsed: \d+\.\d ms", elapsed[0])

    def test_each_threshold_partner_is_one_eigensolve(self, monkeypatch):
        # Each pencil partner makes exactly one eigensolve per (r, s) point:
        # four points in validate 2, no search in p.
        active, solves = [], {"mapped": [], "direct": []}
        solve = numerics._pattern_eigenvalues

        def recorded(n, *pattern):
            if active:
                solves[active[-1]].append(n)
            return solve(n, *pattern)

        def partner(name, f):
            def wrapper(*args):
                active.append(name)
                try:
                    return f(*args)
                finally:
                    active.pop()
            return wrapper

        monkeypatch.setattr(numerics, "_pattern_eigenvalues", recorded)
        monkeypatch.setattr(qm, "mapped_threshold_pencil",
                            partner("mapped", qm.mapped_threshold_pencil))
        monkeypatch.setattr(cr, "direct_threshold_pencil",
                            partner("direct", cr.direct_threshold_pencil))
        _, ok = run_validation(2)
        assert ok
        assert solves == {"mapped": [4] * 4, "direct": [cli.VALIDATE_N_MAX ** 2] * 4}

    @pytest.mark.parametrize("shift", [1, -1], ids=["2n_max-2", "2n_max-4"])
    def test_wrong_largest_pair_block_is_detected(self, monkeypatch, shift):
        # The truncation's closed form reads p_K at K = 2 n_max - 3. Read one
        # block too far (2 n_max - 2 is only the 1x1 block |n_max-1, n_max-1>)
        # or one too short, it misses the truncated state's pencil by ~1e-3.
        p_k = cr._entanglement_p_k
        last = 2 * cli.VALIDATE_N_MAX - 3
        monkeypatch.setattr(cr, "_entanglement_p_k",
                            lambda l1, l2, k: p_k(l1, l2, k + shift if k == last else k))
        results, ok = run_validation(2)
        assert not ok
        failing = [r.name for r in results if not r.passed]
        assert failing == ["direct threshold (closed form vs pencil)"]

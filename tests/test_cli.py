"""Tests for the command-line front end: eval, sweep, validate, config."""

import math
import re

import numpy as np
import pytest

from cvwerner.cli import (
    AxisSpec,
    SweepSpec,
    main,
    parse_config,
    run_sweep,
    run_validation,
)
from cvwerner.states import WernerParams


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
            tail_bound=1e-10,
            output_path="-",
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

    def test_r_equals_s_requires_p_axis(self):
        with pytest.raises(ValueError):
            self.make(fixed="r_equals_s")  # remaining axis is p


class TestRunSweep:
    def test_header_and_shape(self, tmp_path):
        out = tmp_path / "sweep.csv"
        spec = SweepSpec(
            axis1=AxisSpec(name="r", minimum=0.1, maximum=2.0, steps=4),
            axis2=AxisSpec(name="s", minimum=0.1, maximum=2.0, steps=4),
            fixed=0.5,
            outputs=("p_min_entangled_direct", "p_min_entangled_mapped",
                     "p_min_nonlocal"),
            tail_bound=1e-10,
            output_path=str(out),
        )
        text = run_sweep(spec)
        assert out.read_text(encoding="utf-8") == text
        lines = text.split("\n")
        comments = [l for l in lines if l.startswith("#")]
        assert any("tail_bound=1e-10" in c for c in comments)
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
            tail_bound=1e-10,
            output_path="-",
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
            tail_bound=1e-10,
            output_path="-",
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
            tail_bound=1e-10,
            output_path="-",
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

    def test_fidelity_requires_r_equals_s(self):
        spec = SweepSpec(
            axis1=AxisSpec(name="r", minimum=0.1, maximum=1.0, steps=3),
            axis2=AxisSpec(name="s", minimum=0.1, maximum=1.0, steps=3),
            fixed=0.5,
            outputs=("fidelity_w",),
            tail_bound=1e-10,
            output_path="-",
        )
        with pytest.raises(Exception):
            run_sweep(spec)


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
        assert "n_max: 44" in out

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
            (("p=0.5", "r=9", "s=1"), "above the ceiling"),
        ],
    )
    def test_out_of_range_point_exits_2(self, capsys, point, message):
        with pytest.raises(SystemExit) as info:
            main(["eval", *point])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err

    def test_invalid_parameter_rejected(self):
        with pytest.raises(SystemExit):
            main(["eval", "p=1.5", "r=1", "s=1"])
        with pytest.raises(SystemExit):
            main(["eval", "q=0.5"])


class TestConfig:
    def test_parse_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment\ntail_bound = 1e-8\nn_max=12 # inline\n\n")
        values = parse_config(str(cfg))
        assert values == {"tail_bound": "1e-8", "n_max": "12"}

    def test_malformed_config(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("just a line\n")
        with pytest.raises(ValueError):
            parse_config(str(cfg))

    def test_flags_take_precedence(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("tail_bound=1e-6\n")
        out = tmp_path / "o.csv"
        main(["--config", str(cfg), "--tail-bound", "1e-9", "--output", str(out),
              "sweep", "axis1=r[0.5,1,2]", "axis2=s[0.5,1,2]",
              "outputs=p_min_squeezed", "fixed=0.5"])
        text = out.read_text(encoding="utf-8")
        assert "# tail_bound=1e-09" in text or "# tail_bound=1e-9" in text

    def test_config_supplies_tail_bound(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("tail_bound=1e-6\n")
        out = tmp_path / "o.csv"
        main(["--config", str(cfg), "--output", str(out),
              "sweep", "axis1=r[0.5,1,2]", "axis2=s[0.5,1,2]",
              "outputs=p_min_squeezed", "fixed=0.5"])
        assert "# tail_bound=1e-06" in out.read_text(encoding="utf-8")


class TestValidate:
    def test_passes_on_clean_build(self, capsys):
        code = main(["validate", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "validation: PASS" in out

    def test_fault_injection_is_detected(self):
        def corrupted(params):
            from cvwerner.qubit_map import closed_form_two_qubit

            m = closed_form_two_qubit(params).copy()
            m[0, 0] += 0.05
            m[1, 1] -= 0.05
            return m

        results, ok = run_validation(2, closed_form_fn=corrupted)
        assert not ok
        failing = [r for r in results if not r.passed]
        assert any("qubit_map" in r.name for r in failing)

    def test_rejects_small_grid(self):
        with pytest.raises(ValueError):
            run_validation(1)

"""The summary of ``tools/bench_pairs.py`` on synthetic run figures; no
benchmark is run."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
NO_FAILURES = (0.0, 0.0)
PARENT = [13.0, 14.0, 13.5, 13.8, 14.2, 13.6, 13.9, 13.7, 14.1, 13.4]
CHANGE = [8.2, 8.4, 8.1, 8.3, 8.5, 8.0, 8.6, 8.2, 8.3, 8.4]


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_quartiles_interpolate(bench_pairs):
    assert bench_pairs.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == (2.0, 3.0, 4.0)
    assert bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0]) == (1.75, 2.5, 3.25)
    assert bench_pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_clear_gain_is_claimable(bench_pairs):
    s = bench_pairs.summarize(PARENT, CHANGE, "lower", 0.25, NO_FAILURES)
    assert s["pairs"] == 10 and s["wins"] == 10
    assert s["parent"][1] == pytest.approx(13.75) and s["change"][1] == pytest.approx(8.3)
    assert s["ratio"] == pytest.approx(8.3 / 13.75)
    assert s["claimable"] and not s["breach"]


def test_ties_count_for_neither_side(bench_pairs):
    s = bench_pairs.summarize([1.0, 1.0, 1.0, 2.0], [1.0, 1.0, 0.5, 3.0], "lower", 0.25,
                              NO_FAILURES)
    assert s["wins"] == 1
    assert not s["claimable"]


def test_eight_wins_of_ten_is_no_claim(bench_pairs):
    parent = [10.0] * 10
    change = [5.0] * 8 + [11.0, 12.0]
    s = bench_pairs.summarize(parent, change, "lower", 0.25, NO_FAILURES)
    assert s["wins"] == 8 and not s["claimable"]


def test_gain_within_parent_spread_is_no_claim(bench_pairs):
    # Every pair won, but the medians differ by less than the parent's
    # interquartile range.
    parent = [10.0, 12.0, 14.0, 16.0, 18.0] * 2
    change = [9.5, 11.5, 13.5, 15.5, 17.5] * 2
    s = bench_pairs.summarize(parent, change, "lower", 0.25, NO_FAILURES)
    assert s["wins"] == 10 and not s["claimable"]


def test_fewer_than_ten_pairs_is_no_claim(bench_pairs):
    # Three of three pairs won far outside the parent's spread, and a single
    # pair, whose interquartile range is 0, are still too few to claim.
    s = bench_pairs.summarize(PARENT[:3], CHANGE[:3], "lower", 0.25, NO_FAILURES)
    assert s["wins"] == 3 and not s["claimable"]
    assert not bench_pairs.summarize([14.0], [8.0], "lower", 0.25, NO_FAILURES)["claimable"]


def test_more_failed_ops_is_no_claim(bench_pairs):
    assert bench_pairs.summarize(PARENT, CHANGE, "lower", 0.25, (1e-3, 1e-3))["claimable"]
    s = bench_pairs.summarize(PARENT, CHANGE, "lower", 0.25, (0.0, 1e-5))
    assert s["wins"] == 10 and not s["claimable"]


def test_breach_follows_the_bound_and_direction(bench_pairs):
    # peak_rss_mb, bound 0.1: +6 % is inside, +12 % breaches.
    assert not bench_pairs.summarize([46.6] * 3, [49.4] * 3, "lower", 0.1, NO_FAILURES)["breach"]
    assert bench_pairs.summarize([46.6] * 3, [52.2] * 3, "lower", 0.1, NO_FAILURES)["breach"]
    # A higher-is-better metric breaches when it falls by more than its bound.
    higher = bench_pairs.summarize([100.0] * 3, [70.0] * 3, "higher", 0.25, NO_FAILURES)
    assert higher["breach"] and higher["wins"] == 0
    assert bench_pairs.summarize([100.0] * 3, [130.0] * 3, "higher", 0.25, NO_FAILURES)["wins"] == 3


def test_rejects_unpaired_runs(bench_pairs):
    with pytest.raises(ValueError):
        bench_pairs.summarize([1.0, 2.0], [1.0], "lower", 0.25, NO_FAILURES)
    with pytest.raises(ValueError):
        bench_pairs.summarize([1.0], [1.0], "faster", 0.25, NO_FAILURES)


def test_sample_medians_are_read_and_printed_ungated(bench_pairs, tmp_path):
    # A stand-in for perfbench/run.py: the named line, then the result line.
    script = ("print('named: {\"validate_pass_s\": {\"value\": 0.0061, \"unit\": \"s\"}}');"
              "print('{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {}}')")
    result = bench_pairs.run_once([sys.executable, "-c", script], tmp_path, "validate_suite", 1, 34)
    assert result["named"] == {"validate_pass_s": {"value": 0.0061, "unit": "s"}}
    assert result["correct"] and result["metrics"] == {}
    row = bench_pairs.format_sample_row("validate_pass_s", "s", [6.0, 6.2, 6.1], [5.0, 5.2, 5.1])
    assert row == ("  validate_pass_s (s, not gated): parent 6.1 [6.05, 6.15]"
                   "  change 5.1 [5.05, 5.15]  ratio 0.836")


def test_ops_attempted_row_is_printed_ungated(bench_pairs, tmp_path, capsys):
    # A stand-in benchmark whose runs attempt the ops count stored in their
    # checkout: the last row of the summary gives each side's count.
    script = ("import json, pathlib; print(json.dumps({'correct': True, 'failed': 0,"
              " 'attempted': int(pathlib.Path('ops').read_text()),"
              " 'metrics': {'wall_s': {'value': 1.0}}}))")
    bench = {"command": [sys.executable, "-c", script], "run_seconds": 1,
             "workloads": [{"name": "stand_in"}],
             "end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25}]}
    roots = {}
    for side, ops in (("parent", 110), ("change", 220)):
        roots[side] = tmp_path / side
        roots[side].mkdir()
        (roots[side] / "ops").write_text(str(ops))
    (roots["change"] / "BENCHMARK.json").write_text(json.dumps(bench))
    assert bench_pairs.main([str(roots["parent"]), str(roots["change"]), "--pairs", "2"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[-1] == ("  attempted (ops per run, not gated): parent 110 [110, 110]"
                        "  change 220 [220, 220]  ratio 2.000")

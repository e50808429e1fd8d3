"""tools/bench_pairs.py: the statistics it writes for each metric."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_quartiles_are_numpy_linear_percentiles(bench_pairs):
    rng = np.random.default_rng(5)
    for n in (1, 2, 5, 10):
        runs = rng.random(n).tolist()
        assert bench_pairs.quartiles(runs) == pytest.approx(
            np.percentile(runs, [25, 50, 75]).tolist(), abs=1e-12)


RSS = {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.05}


def test_summary_of_a_resolved_gain(bench_pairs):
    parent = [31.6, 31.5, 31.6, 31.55, 31.6, 31.58, 31.62, 31.57, 31.6, 31.59]
    change = [p - 0.4 for p in parent]
    change[3] = 31.6  # one pair the change loses
    got = bench_pairs.summarize(RSS, parent, change)
    assert (got["change_lower_pairs"], got["change_higher_pairs"]) == (9, 1)
    assert got["verdict"] == "within bound"
    assert got["resolved_gain"]
    assert got["parent"]["runs"] == parent


def test_summary_verdicts(bench_pairs):
    parent = [1.0, 1.1, 1.2, 1.3]
    worse = bench_pairs.summarize(RSS, parent, [p + 0.2 for p in parent])
    assert worse["verdict"] == "worse than bound"
    assert not worse["resolved_gain"]
    # Parent IQR 0.15 is wider than the 0.05 allowance.
    noisy = bench_pairs.summarize(RSS, parent, [p + 0.01 for p in parent])
    assert noisy["verdict"] == "unresolved, change median higher"
    # Every change run below every parent run resolves even so.
    lower = bench_pairs.summarize(RSS, parent, [p - 0.5 for p in parent])
    assert lower["verdict"] == "within bound"
    assert lower["resolved_gain"]


PIPELINE = {"name": "pipeline_s", "unit": "s", "better": "lower", "bound": 0.25}


def test_pair_differences_see_a_gain_under_drift(bench_pairs):
    # The host runs slow in pairs 1-5 and fast after; in pair 6 the change
    # ran before the speed-up.  The change is 0.04 s faster in 9 of 10
    # pairs, yet its median over runs is the higher one.
    parent = [1.82, 1.80, 1.78, 1.81, 1.79, 1.42, 1.40, 1.41, 1.39, 1.43]
    change = [p - 0.04 for p in parent]
    change[5] = 1.83
    got = bench_pairs.summarize(PIPELINE, parent, change)
    assert got["change_lower_pairs"] == 9
    assert got["change"]["median"] > got["parent"]["median"]
    assert not got["resolved_gain"]
    paired = got["pair_differences"]
    assert paired["values"] == pytest.approx(
        [c - p for p, c in zip(parent, change)], abs=1e-9)
    assert [paired["q1"], paired["median"], paired["q3"]] == pytest.approx(
        np.percentile(np.subtract(change, parent), [25, 50, 75]).tolist(),
        abs=1e-4)
    assert paired["median"] == pytest.approx(-0.04)


@pytest.mark.parametrize("spec,message", [
    ("cluster-scale:42:0", "PAIRS must be >= 1"),
    ("cluster-scale:-1:10", "SEED must be >= 0"),
], ids=["no-pairs", "negative-seed"])
def test_bad_set_exits_2_before_any_run(bench_pairs, monkeypatch, tmp_path,
                                        capsys, spec, message):
    def no_run(*args):
        raise AssertionError("ran the benchmark")

    monkeypatch.setattr(bench_pairs, "run_side", no_run)
    monkeypatch.setattr(bench_pairs, "cpu_check", no_run)
    out = tmp_path / "bench.json"
    with pytest.raises(SystemExit) as done:
        bench_pairs.main(["--parent", str(tmp_path), "--change", str(tmp_path),
                          "--set", spec, "--out", str(out)])
    assert done.value.code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()

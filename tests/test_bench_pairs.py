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

"""Metric suite, cross-validation protocol, and comparison matrices."""

import csv
import math
import os
import re
import warnings

import numpy as np
import pytest

from blademl import classifiers
from blademl.classifiers import TrainConfig, cross_entropy_loss
from blademl.dataset import FoldAssignment, LabeledDataset, stratified_kfold
from blademl.evaluation import (
    COMPARISON_METRICS,
    METRIC_NAMES,
    ConfusionMatrix,
    FoldScores,
    ModelSpec,
    ProtocolError,
    RSquaredUndefinedError,
    _rank_auc,
    auc,
    classification_metrics,
    compare_models,
    confusion_matrix,
    cross_validate,
    mean_log_loss,
    regression_errors,
    train_folds,
    write_comparison_csv,
    write_confusion_csv,
    write_report_csv,
)
from blademl.features import FeatureMatrix

from oracles import (
    accuracy_ref,
    auc_pairs_ref,
    auc_trapezoid_ref,
    confusion_ref,
    log_loss_ref,
    mcc_binary_textbook,
    mcc_cov_ref,
    regression_ref,
    splitmix64_stream,
    uniform_from_u64,
    weighted_auc_ref,
    weighted_prf_ref,
)
from tracing import traced_peak


def _uniforms(seed, count):
    return [uniform_from_u64(v) for v in splitmix64_stream(seed, count)]


def _dataset(X, labels):
    X = np.asarray(X, dtype=np.float64)
    m = FeatureMatrix(
        [f"r{i}" for i in range(X.shape[0])], list(labels),
        [f"c{j}" for j in range(X.shape[1])], X,
    )
    return LabeledDataset.from_matrix(m)


# ---------------------------------------------------------------------------
# Confusion matrix and scalar metrics


def test_confusion_matrix_counts():
    cm = confusion_matrix(
        ["a", "a", "b", "b", "b"], ["a", "b", "b", "b", "a"], ["a", "b"]
    )
    np.testing.assert_array_equal(cm.counts, [[1, 1], [1, 2]])
    assert cm.n == 5
    np.testing.assert_allclose(cm.proportions, [[0.5, 0.5], [1 / 3, 2 / 3]])
    with pytest.raises(ValueError):
        confusion_matrix(["a"], ["z"], ["a", "b"])
    with pytest.raises(ValueError):
        confusion_matrix(["z"], ["a"], ["a", "b"])
    with pytest.raises(ValueError):
        confusion_matrix(["a", "a"], ["a"], ["a"])


def test_confusion_matrix_validation():
    with pytest.raises(ValueError, match="square over the class list"):
        ConfusionMatrix(["a", "b"], np.ones((2, 3)))
    with pytest.raises(ValueError, match="square over the class list"):
        ConfusionMatrix(["a", "b", "c"], np.ones((2, 2)))
    with pytest.raises(ValueError, match="nonnegative"):
        ConfusionMatrix(["a", "b"], np.array([[1, -1], [0, 2]]))


def test_confusion_empty_row_proportions():
    cm = ConfusionMatrix(["a", "b"], np.array([[3, 1], [0, 0]]))
    np.testing.assert_array_equal(cm.proportions[1], [0.0, 0.0])


def test_metrics_hand_case_vs_oracles():
    counts = [[2, 1], [0, 3]]
    cm = ConfusionMatrix(["a", "b"], np.array(counts))
    m = classification_metrics(cm)
    assert m.ca == accuracy_ref(counts)
    p, r, s, f1 = weighted_prf_ref(counts)
    assert m.precision == pytest.approx(p, abs=1e-15)
    assert m.recall == pytest.approx(r, abs=1e-15)
    assert m.specificity == pytest.approx(s, abs=1e-15)
    assert m.f1 == pytest.approx(f1, abs=1e-15)
    assert m.mcc == pytest.approx(mcc_cov_ref(counts), abs=1e-15)
    # Binary MCC also equals the textbook form (class 0 = positive).
    tp, fn, fp, tn = 2, 1, 0, 3
    assert m.mcc == pytest.approx(mcc_binary_textbook(tp, fp, fn, tn), abs=1e-12)


def test_metrics_zero_denominators():
    # Predicting a single class for everything: the absent class scores
    # precision 0, and the MCC denominator vanishes, so MCC = 0.
    cm = ConfusionMatrix(["a", "b"], np.array([[2, 0], [3, 0]]))
    m = classification_metrics(cm)
    assert m.mcc == 0.0
    assert m.ca == 0.4
    with pytest.raises(ValueError):
        classification_metrics(ConfusionMatrix(["a"], np.array([[0]])))


def test_metrics_random_matrices_match_oracles():
    u = _uniforms(41, 4000)
    pos = 0
    for _ in range(60):
        k = 2 + int(u[pos] * 4) % 4
        pos += 1
        counts = [[int(u[pos + i * k + j] * 6) for j in range(k)] for i in range(k)]
        pos += k * k
        if sum(map(sum, counts)) == 0:
            counts[0][0] = 1
        cm = ConfusionMatrix([f"k{i}" for i in range(k)], np.array(counts))
        m = classification_metrics(cm)
        p, r, s, f1 = weighted_prf_ref(counts)
        assert m.ca == pytest.approx(accuracy_ref(counts), abs=1e-12)
        assert m.precision == pytest.approx(p, abs=1e-12)
        assert m.recall == pytest.approx(r, abs=1e-12)
        assert m.specificity == pytest.approx(s, abs=1e-12)
        assert m.f1 == pytest.approx(f1, abs=1e-12)
        assert m.mcc == pytest.approx(mcc_cov_ref(counts), abs=1e-12)


# ---------------------------------------------------------------------------
# AUC and log loss


def _binary_probs(scores):
    scores = np.asarray(scores)
    return np.column_stack([scores, 1.0 - scores])


def test_auc_perfect_and_reversed():
    probs = _binary_probs([0.9, 0.8, 0.2, 0.1])
    assert auc(probs, ["a", "a", "b", "b"], ["a", "b"]) == 1.0
    assert auc(probs, ["b", "b", "a", "a"], ["a", "b"]) == 0.0


def test_auc_all_ties_is_half():
    probs = _binary_probs([0.5, 0.5, 0.5, 0.5])
    assert auc(probs, ["a", "b", "a", "b"], ["a", "b"]) == 0.5


def test_auc_matches_pair_and_trapezoid_oracles():
    u = _uniforms(43, 1200)
    pos = 0
    inputs = []
    for _ in range(30):
        n = 6 + int(u[pos] * 20)
        pos += 1
        scores = [round(u[pos + i], 2) for i in range(n)]  # force some ties
        pos += n
        labels = ["p" if u[pos + i] > 0.4 else "n" for i in range(n)]
        pos += n
        inputs.append((scores, labels))
    # Long runs of ties over three scores, two of them the equal 0.0, -0.0.
    u = _uniforms(46, 80)
    inputs.append(([(0.0, -0.0, 1.0)[int(v * 3)] for v in u[:40]],
                   ["p" if v > 0.5 else "n" for v in u[40:]]))
    for scores, labels in inputs:
        if len(set(labels)) < 2:
            labels[0] = "p" if labels[0] == "n" else "n"
        probs = _binary_probs(scores)
        got = auc(probs, labels, ["p", "n"])
        flags = [lab == "p" for lab in labels]
        ref_pairs = weighted_auc_ref(probs.tolist(), labels, ["p", "n"])
        assert got == pytest.approx(ref_pairs, abs=1e-12)
        one = auc_pairs_ref(scores, flags)
        assert _rank_auc(np.array(scores), np.array(flags)) == one
        trap = auc_trapezoid_ref(scores, flags)
        assert one == pytest.approx(trap, abs=1e-12)


def test_auc_increasing_transform_invariance():
    u = _uniforms(44, 40)
    scores = np.array(u[:20])
    labels = ["p" if v > 0.5 else "n" for v in u[20:40]]
    if len(set(labels)) < 2:
        labels[0] = "p"

    def squash(s):
        return 1.0 / (1.0 + np.exp(-(3.0 * s + 1.0)))

    a = auc(_binary_probs(scores), labels, ["p", "n"])
    b = auc(_binary_probs(squash(scores)), labels, ["p", "n"])
    assert a == pytest.approx(b, abs=1e-12)


def test_auc_flipped_labels_complement():
    u = _uniforms(45, 24)
    scores = np.array(u[:12])
    labels = ["p"] * 6 + ["n"] * 6
    flipped = ["n"] * 6 + ["p"] * 6
    probs = _binary_probs(scores)
    total = auc(probs, labels, ["p", "n"]) + auc(probs, flipped, ["p", "n"])
    assert total == pytest.approx(1.0, abs=1e-12)


def test_auc_validation():
    with pytest.raises(ValueError, match="sum to 1"):
        auc(np.array([[0.5, 0.4]]), ["a"], ["a", "b"])
    with pytest.raises(ValueError, match="one label"):
        auc(_binary_probs([0.5, 0.6]), ["a", "a"], ["a", "b"])


def test_auc_rejects_unknown_label():
    probs = _binary_probs([0.9, 0.2, 0.6])
    with pytest.raises(ValueError, match="unknown actual label 'z'"):
        auc(probs, ["p", "z", "n"], ["p", "n"])


@pytest.mark.parametrize("metric", [auc, mean_log_loss])
def test_score_table_width_must_match_classes(metric):
    narrow = np.array([[1.0], [1.0], [1.0]])
    with pytest.raises(ValueError, match=r"shape \(3, 1\) needs one column "
                       r"per class \(3\)"):
        metric(narrow, ["a", "b", "c"], ["a", "b", "c"])
    with pytest.raises(ValueError, match=r"shape \(2,\) needs"):
        metric(np.array([0.5, 0.5]), ["a", "b"], ["a", "b"])
    with pytest.raises(ValueError, match="scores and labels must have equal"):
        metric(np.full((2, 2), 0.5), ["a", "b", "a"], ["a", "b"])


def _row_losses(scores, actual, classes):
    return [cross_entropy_loss(row, label, classes)
            for row, label in zip(scores, actual)]


@pytest.mark.parametrize("metric", [auc, mean_log_loss, _row_losses],
                         ids=["auc", "mean_log_loss", "cross_entropy_loss"])
def test_nan_probability_row_is_rejected(metric):
    # abs(NaN - 1) > tol is False, so a check written that way lets the
    # row through: auc returned 0.8333 and the log losses nan.
    scores = np.array([[math.nan, math.nan], [0.9, 0.1], [0.2, 0.8]])
    with pytest.raises(ValueError, match="sum to 1"):
        metric(scores, ["a", "a", "b"], ["a", "b"])


def test_mean_log_loss_hand_case():
    probs = np.array([[1.0, 0.0], [0.5, 0.5], [0.25, 0.75]])
    actual = ["a", "a", "a"]
    got = mean_log_loss(probs, actual, ["a", "b"])
    assert got == pytest.approx(math.log(2.0), abs=1e-12)
    assert got == pytest.approx(
        log_loss_ref(probs.tolist(), actual, ["a", "b"]), abs=1e-15
    )


def test_mean_log_loss_matches_the_row_helper_bit_for_bit():
    # mean_log_loss checks the table once; its value is the mean of
    # cross_entropy_loss over the rows, to the last bit, clipped rows too.
    rng = np.random.default_rng(20)
    for n, c in [(1, 2), (9, 3), (60, 4), (300, 7)]:
        scores = rng.random((n, c)) ** 4
        scores /= scores.sum(axis=1, keepdims=True)
        scores[rng.random(n) < 0.2] = np.eye(c)[0]
        classes = [f"c{j}" for j in range(c)]
        actual = [classes[j] for j in rng.integers(0, c, n)]
        want = float(np.mean(_row_losses(scores, actual, classes)))
        assert mean_log_loss(scores, actual, classes) == want


@pytest.mark.parametrize("rows,actual", [
    ([[0.5, 0.5], [0.5, 0.4], [0.5, 0.5]], ["a", "a", "z"]),
    ([[0.5, 0.5], [0.5, 0.4], [0.5, 0.5]], ["a", "z", "a"]),
    ([[0.5, 0.5], [0.5, 0.5], [0.5, 0.4]], ["a", "z", "a"]),
    ([[0.5, 0.5], [math.nan, 0.5]], ["a", "b"]),
], ids=["sum-first", "same-row", "label-first", "nan"])
def test_mean_log_loss_raises_what_the_first_bad_row_raises(rows, actual):
    # auc shares the table check, so it raises the same first error.
    with pytest.raises(ValueError) as want:
        _row_losses(np.array(rows), actual, ["a", "b"])
    for metric in (mean_log_loss, auc):
        with pytest.raises(ValueError,
                           match=f"^{re.escape(str(want.value))}$"):
            metric(np.array(rows), actual, ["a", "b"])


@pytest.mark.parametrize("metric", [mean_log_loss, auc])
def test_mean_log_loss_of_an_empty_table_raises(metric):
    with pytest.raises(ValueError, match="empty table"):
        metric(np.empty((0, 2)), [], ["a", "b"])


_THIRDS = np.full((2, 3), 1.0 / 3.0)


@pytest.mark.parametrize("call", [
    lambda c: confusion_matrix(["a", "b"], ["a", "a"], c),
    lambda c: auc(_THIRDS, ["a", "b"], c),
    lambda c: mean_log_loss(_THIRDS, ["a", "b"], c),
    lambda c: cross_entropy_loss(_THIRDS[0], "a", c),
    lambda c: LabeledDataset(FeatureMatrix(
        ["r0", "r1"], ["a", "b"], ["c0"], np.zeros((2, 1))), c),
], ids=["confusion_matrix", "auc", "mean_log_loss", "cross_entropy_loss",
        "LabeledDataset"])
def test_repeated_class_names_are_rejected(call):
    # A repeated name would give a label two columns to choose from.
    with pytest.raises(ValueError, match="class names must be unique"):
        call(["a", "b", "a"])


def test_mean_log_loss_uniform_binary():
    probs = np.array([[0.5, 0.5]] * 4)
    got = mean_log_loss(probs, ["a", "b", "a", "b"], ["a", "b"])
    assert got == pytest.approx(0.6931, abs=1e-4)


# ---------------------------------------------------------------------------
# Regression errors


def test_regression_hand_cases():
    sse, sst, r2 = regression_errors([1.0, 2.0, 3.0], [1.0, 2.0, 5.0])
    assert (sse, sst, r2) == (4.0, 2.0, -1.0)
    assert regression_ref([1.0, 2.0, 3.0], [1.0, 2.0, 5.0]) == (4.0, 2.0, -1.0)
    sse, sst, r2 = regression_errors([1.0, 2.0], [1.0, 2.0])
    assert sse == 0.0 and r2 == 1.0
    mean_pred = [2.0, 2.0, 2.0]
    sse, sst, r2 = regression_errors([1.0, 2.0, 3.0], mean_pred)
    assert sse == sst and r2 == 0.0


def test_regression_sst_zero_is_signaled():
    with pytest.raises(RSquaredUndefinedError) as err:
        regression_errors([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])
    assert err.value.sse == 2.0
    assert err.value.sst == 0.0
    with pytest.raises(ValueError):
        regression_errors([1.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        regression_errors([], [])
    # A NaN would make all three values NaN without a word.
    with pytest.raises(ValueError, match="^actual values must be finite$"):
        regression_errors([1.0, math.nan, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="^predicted values must be finite$"):
        regression_errors([1.0, 2.0, 3.0], [1.0, math.inf, 3.0])


# ---------------------------------------------------------------------------
# Model comparison


def test_compare_models_hand_case():
    a = FoldScores("A", "ca", np.array([0.8, 0.9, 0.7]))
    b = FoldScores("B", "ca", np.array([0.6, 0.9, 0.8]))
    names, matrix = compare_models([a, b])
    assert names == ["A", "B"]
    assert matrix[0, 1] == 0.5
    assert matrix[1, 0] == 0.5
    assert np.isnan(matrix[0, 0]) and np.isnan(matrix[1, 1])


def test_compare_models_identical_scores():
    a = FoldScores("A", "ca", np.array([0.5, 0.5]))
    b = FoldScores("B", "ca", np.array([0.5, 0.5]))
    _, matrix = compare_models([a, b])
    assert matrix[0, 1] == 0.5 and matrix[1, 0] == 0.5


def test_compare_models_complementarity_exact():
    u = _uniforms(47, 40)
    scores = [
        FoldScores(f"m{i}", "auc", np.array(u[10 * i : 10 * i + 10]))
        for i in range(4)
    ]
    _, matrix = compare_models(scores)
    for i in range(4):
        for j in range(4):
            if i != j:
                assert matrix[i, j] + matrix[j, i] == 1.0


def test_compare_models_validation():
    a = FoldScores("A", "ca", np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        compare_models([a, FoldScores("B", "auc", np.array([0.5, 0.5]))])
    with pytest.raises(ValueError):
        compare_models([a, FoldScores("B", "ca", np.array([0.5]))])
    with pytest.raises(ValueError, match="no fold scores"):
        compare_models([])
    with pytest.raises(ValueError, match="no folds"):
        compare_models([FoldScores("A", "auc", []), FoldScores("B", "auc", [])])
    with pytest.raises(ValueError):
        FoldScores("A", "ca", np.array([np.nan]))


# ---------------------------------------------------------------------------
# cross_validate protocol


FAST_SPECS = [
    ModelSpec("tree", "tree"),
    ModelSpec("nb", "nb"),
    ModelSpec("logreg", "logreg", TrainConfig(limit=60)),
    ModelSpec("mlp", "mlp", TrainConfig(limit=5, hidden=(4,), seed=1)),
]


def _blob_dataset(per_class=8):
    u = _uniforms(55, per_class * 4)
    X = np.empty((2 * per_class, 2))
    labels = []
    for i in range(2 * per_class):
        center = -2.0 if i < per_class else 2.0
        X[i] = [center + u[2 * i] - 0.5, center + u[2 * i + 1] - 0.5]
        labels.append("neg" if i < per_class else "pos")
    return _dataset(X, labels)


def test_cross_validate_pooled_ca_matches_recompute():
    ds = _blob_dataset()
    folds = stratified_kfold(ds, 4, seed=2)
    report = cross_validate(ds, FAST_SPECS, folds)
    for name in report.model_names:
        probs = report.oof_probs[name]
        predicted = [
            report.class_names[int(np.argmax(row))] for row in probs
        ]
        matches = sum(p == a for p, a in zip(predicted, report.actual))
        assert report.suites[name].ca == matches / ds.n
        counts = confusion_ref(report.actual, predicted, report.class_names)
        np.testing.assert_array_equal(report.confusions[name].counts, counts)


def test_cross_validate_single_class_fold_raises():
    ds = _dataset([[0.0], [1.0], [2.0], [3.0]], ["a", "a", "b", "b"])
    folds = FoldAssignment(2, np.array([0, 0, 1, 1]), seed=0)
    with pytest.raises(ProtocolError, match=r"fold 0 .*'a'"):
        cross_validate(ds, [ModelSpec("nb", "nb")], folds)


def test_cross_validate_constant_features():
    labels = ["a", "b"] * 4
    ds = _dataset(np.full((8, 3), 2.5), labels)
    folds = stratified_kfold(ds, 2, seed=0)
    report = cross_validate(ds, FAST_SPECS, folds)
    for name in ("tree", "nb", "logreg"):
        suite = report.suites[name]
        assert suite.ca == 0.5
        assert suite.auc == 0.5
        assert suite.mcc == 0.0
    assert report.suites["mlp"].ca == 0.5
    for name in report.model_names:
        s = report.suites[name]
        for metric in METRIC_NAMES:
            assert np.isfinite(getattr(s, metric))


def test_cross_validate_rejects_nan_cell():
    ds = _blob_dataset()
    X = ds.X.copy()
    X[4, 1] = np.nan
    bad = _dataset(X, list(ds.matrix.labels))
    folds = stratified_kfold(bad, 4, seed=2)
    with pytest.raises(ValueError, match="column 1: mean and sd must be finite"):
        cross_validate(bad, FAST_SPECS, folds)


def test_cross_validate_affine_feature_invariance():
    # Per-fold z-scoring makes every model invariant to positive affine
    # rescaling of the raw feature columns.
    ds = _blob_dataset()
    scaled = _dataset(ds.X * np.array([3.0, 0.25]) + np.array([100.0, -7.0]),
                      list(ds.matrix.labels))
    folds = stratified_kfold(ds, 4, seed=3)
    a = cross_validate(ds, FAST_SPECS, folds)
    b = cross_validate(scaled, FAST_SPECS, folds)
    for name in a.model_names:
        np.testing.assert_allclose(
            a.oof_probs[name], b.oof_probs[name], atol=1e-9
        )


def test_cross_validate_determinism():
    ds = _blob_dataset()
    folds = stratified_kfold(ds, 4, seed=2)
    a = cross_validate(ds, FAST_SPECS, folds)
    b = cross_validate(ds, FAST_SPECS, folds)
    for name in a.model_names:
        np.testing.assert_array_equal(a.oof_probs[name], b.oof_probs[name])


@pytest.mark.parametrize("cpus", [{0}, {0, 1}], ids=["one-cpu", "two-cpus"])
def test_cross_validate_peak_memory(monkeypatch, cpus):
    # 1,000 x 37 rows in 10 folds: one float64 copy of the training parts
    # is 9 x 1,000 x 37 x 8 bytes (2.7 MB).  Each fold half gathers and
    # z-scores only its own parts, which every model of the half reads, so
    # the halves run one after the other here or the second in the worker.
    n, p = 1000, 37
    X = np.array(_uniforms(56, n * p)).reshape(n, p)
    ds = _dataset(X, [("a", "b", "c")[i % 3] for i in range(n)])
    folds = stratified_kfold(ds, 10, seed=3)
    specs = [ModelSpec("nb", "nb"),
             ModelSpec("logreg", "logreg", TrainConfig(limit=20))]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    _, peak = traced_peak(lambda: cross_validate(ds, specs, folds))
    assert peak <= (folds.k - 1) * X.nbytes


def _fail_nb_on_fold(monkeypatch, ds, folds, fold):
    """Make the naive Bayes core raise `no fit` on the z-scored training
    part of `fold`, found by its rows."""
    rows = ds.X[folds.train_indices(fold)]
    part = (rows - rows.mean(axis=0)) / rows.std(axis=0)
    fit = classifiers.fit_naive_bayes

    def fit_naive_bayes(X, y, class_names):
        if X.shape == part.shape and np.allclose(X, part):
            raise ValueError("no fit")
        return fit(X, y, class_names)

    monkeypatch.setattr(classifiers, "fit_naive_bayes", fit_naive_bayes)


@pytest.mark.parametrize("cpus", [{0}, {0, 1}], ids=["one-cpu", "two-cpus"])
def test_cross_validate_names_failed_fold_of_second_half(monkeypatch, cpus):
    # Folds 2 and 3 train as the second half, which names them 0 and 1;
    # the error still names fold 3, as training fold by fold does.
    ds = _blob_dataset()
    folds = stratified_kfold(ds, 4, seed=2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    _fail_nb_on_fold(monkeypatch, ds, folds, 3)
    with pytest.raises(ValueError, match="^model 'nb': fold 3: no fit$") as e:
        cross_validate(ds, FAST_SPECS, folds)
    assert str(e.value.__cause__) == "fold 3: no fit"


@pytest.mark.parametrize("cpus", [{0}, {0, 1}], ids=["one-cpu", "two-cpus"])
@pytest.mark.parametrize("fold", [2, 4])
def test_cross_validate_names_failed_fold_of_unsorted_sizes(
    monkeypatch, cpus, fold
):
    # Folds hold 2, 3, 2, 3, 3 and 3 rows, so the training parts of 14, 13,
    # 14, 13, 13 and 13 rows go down, up and down again.  The first half
    # trains as three one-part blocks, the second as one block of three.
    # The failed fold is still named by its own number.
    ds = _blob_dataset()
    folds = FoldAssignment(6, np.repeat(range(6), [2, 3, 2, 3, 3, 3]), seed=0)
    assert ([folds.train_indices(f).size for f in range(6)]
            == [14, 13, 14, 13, 13, 13])
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    _fail_nb_on_fold(monkeypatch, ds, folds, fold)
    with pytest.raises(ValueError, match=f"^model 'nb': fold {fold}: no fit$"):
        cross_validate(ds, FAST_SPECS, folds)


def test_cross_validate_rejects_empty_fold():
    ds = _blob_dataset(per_class=6)
    folds = FoldAssignment(3, [0, 1] * 6, seed=0)
    with pytest.raises(ProtocolError, match="^fold 2 holds no rows$"):
        cross_validate(ds, FAST_SPECS, folds)


def test_cross_validate_validation():
    ds = _blob_dataset()
    folds = stratified_kfold(ds, 4, seed=2)
    with pytest.raises(ValueError, match="unique"):
        cross_validate(ds, [ModelSpec("nb", "nb"), ModelSpec("nb", "nb")], folds)
    short = FoldAssignment(2, np.array([0, 1]), seed=0)
    with pytest.raises(ValueError, match="match"):
        cross_validate(ds, [ModelSpec("nb", "nb")], short)
    single = _dataset([[0.0], [1.0]], ["a", "a"])
    with pytest.raises(ValueError, match="2 classes"):
        cross_validate(single, [ModelSpec("nb", "nb")],
                       FoldAssignment(2, np.array([0, 1]), seed=0))
    with pytest.raises(ValueError):
        ModelSpec("x", "svm")


def test_fold_scores_align_with_comparisons():
    ds = _blob_dataset()
    folds = stratified_kfold(ds, 4, seed=2)
    report = cross_validate(ds, FAST_SPECS, folds)
    assert set(COMPARISON_METRICS) < set(METRIC_NAMES)
    assert "mcc" not in COMPARISON_METRICS
    for metric in COMPARISON_METRICS:
        scores = [report.fold_scores[(n, metric)] for n in report.model_names]
        names, matrix = compare_models(scores)
        assert names == report.model_names
        off_diag = matrix + matrix.T
        for i in range(len(names)):
            for j in range(len(names)):
                if i != j:
                    assert off_diag[i, j] == 1.0


# ---------------------------------------------------------------------------
# CSV writers


def test_report_csv_column_order(tmp_path):
    ds = _blob_dataset()
    folds = stratified_kfold(ds, 4, seed=2)
    report = cross_validate(ds, FAST_SPECS[:2], folds)
    path = tmp_path / "report.csv"
    write_report_csv(report, path, metadata={"k": 4})
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    assert lines[0] == (
        "model,auc,ca,f1,precision,recall,mcc,specificity,log_loss"
    )
    assert len(lines) == 3
    # Values round-trip: the CA cell parses back to the exact suite value.
    row = next(csv.reader([lines[1]]))
    assert float(row[2]) == report.suites[row[0]].ca


def test_confusion_csv_layout(tmp_path):
    cm = ConfusionMatrix(["a", "b"], np.array([[2, 0], [1, 1]]))
    path = tmp_path / "confusion.csv"
    write_confusion_csv(cm, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "counts,a,b"
    assert lines[1] == "a,2,0"
    assert lines[2] == "b,1,1"
    assert lines[3] == "proportions,a,b"
    assert lines[4].startswith("a,1,0")


def test_comparison_csv_empty_diagonal(tmp_path):
    names, matrix = compare_models([
        FoldScores("A", "ca", np.array([0.1, 0.9])),
        FoldScores("B", "ca", np.array([0.2, 0.8])),
    ])
    path = tmp_path / "cmp.csv"
    write_comparison_csv(names, matrix, path)
    rows = list(csv.reader(path.read_text().splitlines()))
    assert rows[0] == ["model", "A", "B"]
    assert rows[1][1] == ""
    assert rows[2][2] == ""
    assert float(rows[1][2]) + float(rows[2][1]) == 1.0


def test_train_folds_names_nonfinite_naive_bayes_fold():
    X = np.array([[1.0], [-1.0], [3.0], [2.0]])
    block = (np.stack([X, X * 1e200]), np.array([[0, 0, 1, 1]] * 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match="^fold 1: naive Bayes mean or "
                           "variance of feature 0 for class 'a' is not finite$"):
            train_folds(ModelSpec("nb", "nb"), [block], ["a", "b"])

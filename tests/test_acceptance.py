"""Acceptance gate: eight pinned criteria, one PASS/FAIL line each.

conftest.py turns each test_a<n>_* result into an 'A<n>: PASS/FAIL'
verdict line on the real stdout.  Every criterion has a hard runtime
budget and compares against the independent references in oracles.py.
"""

import csv
import filecmp
import math
import os
import shutil
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from blademl import cli
from blademl.classifiers import (
    TrainConfig,
    init_mlp,
    logistic_gradient,
    logistic_objective,
    mlp_gradients,
    mlp_loss,
    model_to_json,
    train_mlp,
    train_naive_bayes,
    train_tree,
)
from blademl.clustering import DistanceMatrix, agglomerate
from blademl.dataset import FoldAssignment, LabeledDataset, load_labeled_csv, stratified_kfold
from blademl.evaluation import (
    METRIC_NAMES,
    ConfusionMatrix,
    ModelSpec,
    ProtocolError,
    RSquaredUndefinedError,
    auc,
    classification_metrics,
    confusion_matrix,
    cross_validate,
    mean_log_loss,
    regression_errors,
)
from blademl.features import FeatureMatrix
from blademl.rng import SplitMix64

from digests import artefact_digests, read_pinned
from oracles import (
    accuracy_ref,
    auc_pairs_ref,
    auc_trapezoid_ref,
    best_root_split_ref,
    confusion_ref,
    cut_ref,
    fold_win_ref,
    linkage_oracle,
    log_loss_ref,
    mcc_cov_ref,
    parse_newick,
    prim_mst_weights,
    purity_ref,
    regression_ref,
    splitmix64_stream,
    uniform_from_u64,
    weighted_auc_ref,
    weighted_prf_ref,
    zscore_euclidean_ref,
)
from test_cli import pipeline  # noqa: F401  (the small CLI run's fixture)

REPORT_HEADER = ["model", "auc", "ca", "f1", "precision", "recall", "mcc",
                 "specificity", "log_loss"]
TABLE_COLUMNS = ("auc", "ca", "f1", "precision", "recall", "mcc")
COMPARISON_FILES = ("auc", "ca", "f1", "precision", "recall", "specificity",
                    "log_loss")
MODELS = ("tree", "nb", "logreg", "mlp")
# sha256 of every artefact of the acceptance run (gen seed 42, evaluate
# seed 7), pinned by the benchmark; the test only reads it.
GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden" / \
    "acceptance.sha256"


def _uniforms(seed, count):
    return [uniform_from_u64(v) for v in splitmix64_stream(seed, count)]


def _dataset(X, labels):
    X = np.asarray(X, dtype=np.float64)
    m = FeatureMatrix(
        [f"r{i}" for i in range(X.shape[0])], list(labels),
        [f"c{j}" for j in range(X.shape[1])], X,
    )
    return LabeledDataset.from_matrix(m)


def _read_rows(path):
    with open(path, newline="") as handle:
        return list(
            csv.reader(line for line in handle if not line.startswith("#"))
        )


def _run_pipeline(root):
    """gen(seed 42, 34/33/33) -> features -> evaluate(k=10, seed 7) ->
    cluster(average, normalized euclidean, cut 3); returns paths+timings."""
    paths = SimpleNamespace(
        images=root / "images",
        features=root / "features.csv",
        reports=root / "reports",
        clusters=root / "clusters",
        timings={},
    )
    stages = [
        ("gen", ["gen", "--out", str(paths.images),
                 "--counts", "34,33,33", "--seed", "42"]),
        ("features", ["features", "--images", str(paths.images),
                      "--labels", str(paths.images / "labels.csv"),
                      "--out", str(paths.features)]),
        ("evaluate", ["evaluate", "--features", str(paths.features),
                      "--out-dir", str(paths.reports),
                      "--k", "10", "--seed", "7"]),
        ("cluster", ["cluster", "--features", str(paths.features),
                     "--out-dir", str(paths.clusters), "--cut-count", "3"]),
    ]
    for stage, argv in stages:
        start = time.perf_counter()
        code = cli.main(argv)
        paths.timings[stage] = time.perf_counter() - start
        assert code == 0, f"{stage} exited {code}"
    return paths


@pytest.fixture(scope="session")
def corpus(tmp_path_factory):
    return _run_pipeline(tmp_path_factory.mktemp("acceptance"))


# ---------------------------------------------------------------------------
# A1: classification/ranking/regression metrics match brute-force oracles.


def test_a1_metric_oracles():
    start = time.perf_counter()

    for i in range(500):
        stream = splitmix64_stream(1000 + i, 2)
        k = 2 + stream[0] % 4
        n = 1 + stream[1] % 50
        draws = splitmix64_stream(5000 + i, n)
        counts = np.zeros((k, k), dtype=np.int64)
        for v in draws:
            counts[v % k, (v >> 8) % k] += 1
        cm = ConfusionMatrix([f"c{j}" for j in range(k)], counts)
        got = classification_metrics(cm)
        rows = counts.tolist()
        precision, recall, specificity, f1 = weighted_prf_ref(rows)
        assert abs(got.ca - accuracy_ref(rows)) <= 1e-12
        assert abs(got.precision - precision) <= 1e-12
        assert abs(got.recall - recall) <= 1e-12
        assert abs(got.specificity - specificity) <= 1e-12
        assert abs(got.f1 - f1) <= 1e-12
        assert abs(got.mcc - mcc_cov_ref(rows)) <= 1e-12

    for i in range(200):
        head = splitmix64_stream(9000 + i, 2)
        k = 2 + head[0] % 3
        n = 4 + head[1] % 17
        classes = [f"c{j}" for j in range(k)]
        u = _uniforms(9500 + i, n * (k + 1))
        scores = []
        actual = []
        for r in range(n):
            row = [u[r * (k + 1) + c] + 1e-9 for c in range(k)]
            total = sum(row)
            row = [v / total for v in row]
            if r and r % 3 == 0:
                row = list(scores[0])  # duplicate rows force score ties
            scores.append(row)
            actual.append(classes[int(u[r * (k + 1) + k] * k) % k])
        actual[0] = classes[0]
        actual[1] = classes[1]
        scores = np.array(scores)

        got_auc = auc(scores, actual, classes)
        ref_auc = weighted_auc_ref(scores.tolist(), actual, classes)
        assert abs(got_auc - ref_auc) <= 1e-12
        for c, name in enumerate(classes):
            flags = [a == name for a in actual]
            pairs = auc_pairs_ref(scores[:, c].tolist(), flags)
            trap = auc_trapezoid_ref(scores[:, c].tolist(), flags)
            if pairs is not None:
                assert abs(pairs - trap) <= 1e-12

        got_ll = mean_log_loss(scores, actual, classes)
        assert abs(got_ll - log_loss_ref(scores.tolist(), actual, classes)) <= 1e-12

        target = [v * 10.0 for v in u[: n // 2 + 2]]
        fitted = [v * 10.0 + 1.0 for v in u[n // 2 : n + 2][: len(target)]]
        sse, sst, r2 = regression_errors(target, fitted)
        ref_sse, ref_sst, ref_r2 = regression_ref(target, fitted)
        assert abs(sse - ref_sse) <= 1e-12 * max(1.0, abs(ref_sse))
        assert abs(sst - ref_sst) <= 1e-12 * max(1.0, abs(ref_sst))
        assert abs(r2 - ref_r2) <= 1e-12 * max(1.0, abs(ref_r2))

    assert time.perf_counter() - start < 10.0


# ---------------------------------------------------------------------------
# A2: analytic gradients match central finite differences.


def test_a2_gradient_checks():
    start = time.perf_counter()
    h = 1e-5

    def rel(a, b):
        return abs(a - b) / max(abs(b), 1e-6)

    for t in range(20):
        u = _uniforms(300 + t, 6 * 3 + 6 + 4)
        X = (np.array(u[:18]).reshape(6, 3) - 0.5) * 4.0
        targets = np.array([1.0 if v > 0.5 else 0.0 for v in u[18:24]])
        intercept = (u[24] - 0.5) * 2.0
        weights = (np.array(u[25:28]) - 0.5) * 2.0
        l2 = 0.1 if t % 2 else 0.0
        g0, gw = logistic_gradient(intercept, weights, X, targets, l2)
        fd0 = (
            logistic_objective(intercept + h, weights, X, targets, l2)
            - logistic_objective(intercept - h, weights, X, targets, l2)
        ) / (2.0 * h)
        assert rel(g0, fd0) < 1e-5
        for j in range(3):
            bumped = weights.copy()
            bumped[j] += h
            up = logistic_objective(intercept, bumped, X, targets, l2)
            bumped[j] -= 2.0 * h
            down = logistic_objective(intercept, bumped, X, targets, l2)
            assert rel(gw[j], (up - down) / (2.0 * h)) < 1e-5

    for t in range(20):
        model = init_mlp(["a", "b"], [3, 4, 2], "tanh", SplitMix64(900 + t))
        u = _uniforms(950 + t, 3)
        x = (np.array(u) - 0.5) * 3.0
        class_index = t % 2
        l2 = 0.01
        grads_w, grads_b = mlp_gradients(model, x, class_index, l2)
        for layer, grad in enumerate(grads_w):
            for idx in np.ndindex(grad.shape):
                model.weights[layer][idx] += h
                up = mlp_loss(model, x, class_index, l2)
                model.weights[layer][idx] -= 2.0 * h
                down = mlp_loss(model, x, class_index, l2)
                model.weights[layer][idx] += h
                assert rel(grad[idx], (up - down) / (2.0 * h)) < 1e-4
        for layer, grad in enumerate(grads_b):
            for idx in np.ndindex(grad.shape):
                model.biases[layer][idx] += h
                up = mlp_loss(model, x, class_index, l2)
                model.biases[layer][idx] -= 2.0 * h
                down = mlp_loss(model, x, class_index, l2)
                model.biases[layer][idx] += h
                assert rel(grad[idx], (up - down) / (2.0 * h)) < 1e-4

    assert time.perf_counter() - start < 10.0


# ---------------------------------------------------------------------------
# A3: tree root splits equal exhaustive search; cube-transform invariance.


def test_a3_tree_splits():
    start = time.perf_counter()

    for i in range(50):
        head = splitmix64_stream(400 + i, 1)
        n = 4 + head[0] % 9
        kc = 2 + i % 2
        u = _uniforms(450 + i, 3 * n)
        X = (np.array(u[: 2 * n]).reshape(n, 2) - 0.5) * 4.0
        y = [int(v * kc) % kc for v in u[2 * n : 3 * n]]
        if len(set(y)) == 1:
            y[0] = (y[0] + 1) % kc
        labels = [f"k{v}" for v in y]
        ds = _dataset(X, labels)
        model = train_tree(ds, TrainConfig(max_depth=1, min_leaf=1))
        ref = best_root_split_ref(
            X.tolist(), list(ds.y), len(ds.class_names), 1
        )
        if ref is None:
            assert model.root.is_leaf
        else:
            assert not model.root.is_leaf
            assert model.root.feature == ref[0]
            assert model.root.threshold == pytest.approx(ref[1], abs=1e-12)

    for i in range(8):
        u = _uniforms(480 + i, 36)
        X = (np.array(u[:24]).reshape(12, 2) - 0.5) * 4.0
        labels = ["p" if v > 0.5 else "q" for v in u[24:36]]
        if len(set(labels)) == 1:
            labels[0] = "p" if labels[0] == "q" else "q"
        m1 = train_tree(_dataset(X, labels))
        m2 = train_tree(_dataset(X**3, labels))
        np.testing.assert_array_equal(m1.predict_proba(X),
                                      m2.predict_proba(X**3))

    assert time.perf_counter() - start < 10.0


# ---------------------------------------------------------------------------
# A4: end-to-end pipeline quality, report schema, comparison complementarity.


def test_a4_pipeline(corpus):
    t = corpus.timings
    assert t["gen"] + t["features"] + t["evaluate"] < 60.0

    rows = _read_rows(corpus.reports / "report.csv")
    assert rows[0] == REPORT_HEADER
    assert tuple(rows[0][1:7]) == TABLE_COLUMNS
    by_model = {r[0]: r for r in rows[1:]}
    assert set(by_model) == set(MODELS)
    for name in MODELS:
        record = dict(zip(rows[0], by_model[name]))
        assert float(record["ca"]) >= 0.85, (name, record["ca"])
        assert float(record["auc"]) >= 0.90, (name, record["auc"])

    for metric in COMPARISON_FILES:
        table = _read_rows(corpus.reports / f"comparison_{metric}.csv")
        names = table[0][1:]
        cells = {}
        for row in table[1:]:
            for j, name_b in enumerate(names):
                cells[(row[0], name_b)] = row[1 + j]
        for a in names:
            assert cells[(a, a)] == ""
            for b in names:
                if a == b:
                    continue
                assert float(cells[(a, b)]) + float(cells[(b, a)]) == 1.0


def test_acceptance_golden_digests(corpus):
    # features.csv is compared with its `# images:`/`# labels:` lines set
    # to the relative paths the benchmark pinned.
    got = artefact_digests(corpus.features, {
        "corpus": corpus.images, "reports": corpus.reports,
        "clusters": corpus.clusters,
    })
    assert got == read_pinned(GOLDEN)


# ---------------------------------------------------------------------------
# A5: agglomeration equals a naive O(n^3) oracle for all four linkages.


def test_a5_clustering_oracles():
    start = time.perf_counter()

    for i in range(50):
        n = 8
        condensed = np.array(
            _uniforms(700 + i, n * (n - 1) // 2)
        ) * 10.0 + 0.1
        d = DistanceMatrix(n, condensed, "euclidean", False)
        full = d.full().tolist()
        for linkage in ("single", "complete", "average", "ward"):
            dg = agglomerate(d, linkage)
            ref = linkage_oracle(full, linkage)
            assert len(dg.merges) == n - 1
            for merge, (left, right, height, new_id) in zip(dg.merges, ref):
                assert (merge.left, merge.right, merge.new_id) == \
                    (left, right, new_id)
                assert abs(merge.height - height) <= 1e-9
            heights = [m.height for m in dg.merges]
            assert all(
                a <= b + 1e-12 for a, b in zip(heights, heights[1:])
            )

    for i in range(5):
        n = 10
        condensed = np.array(
            _uniforms(760 + i, n * (n - 1) // 2)
        ) * 10.0 + 0.1
        d = DistanceMatrix(n, condensed, "euclidean", False)
        dg = agglomerate(d, "single")
        heights = sorted(m.height for m in dg.merges)
        np.testing.assert_allclose(
            heights, prim_mst_weights(d.full().tolist()), atol=1e-9
        )

    assert time.perf_counter() - start < 10.0


# ---------------------------------------------------------------------------
# A6: 3-way cluster cut recovers the synthetic classes with purity >= 0.90.


def test_a6_cluster_recovery(corpus):
    assert corpus.timings["cluster"] < 30.0
    labels_by_id = dict(
        (r[0], r[1]) for r in _read_rows(corpus.images / "labels.csv")[1:]
    )
    rows = _read_rows(corpus.clusters / "clusters.csv")
    assert rows[0] == ["id", "cluster"]
    clusters = [int(r[1]) for r in rows[1:]]
    classes = [labels_by_id[r[0]] for r in rows[1:]]
    assert len(clusters) == 100
    purity = purity_ref(clusters, classes)
    assert purity >= 0.90, f"purity {purity:.4f}"


# ---------------------------------------------------------------------------
# A7: reruns are byte-identical; seeded MLP training serializes identically.


def test_a7_determinism(corpus, tmp_path_factory):
    # Rerun the exact same invocations at the exact same paths: snapshot
    # the first pass, wipe it, run again, then compare byte for byte.
    root = tmp_path_factory.mktemp("determinism")
    work = root / "work"
    _run_pipeline(work)
    snapshot = root / "snapshot"
    shutil.copytree(work, snapshot)
    shutil.rmtree(work)
    _run_pipeline(work)

    def assert_dirs_equal(a, b):
        names = sorted(os.listdir(a))
        assert names == sorted(os.listdir(b))
        match, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
        assert not mismatch and not errors, (mismatch, errors)

    assert_dirs_equal(work / "images", snapshot / "images")
    assert (work / "features.csv").read_bytes() == \
        (snapshot / "features.csv").read_bytes()
    assert_dirs_equal(work / "reports", snapshot / "reports")
    assert_dirs_equal(work / "clusters", snapshot / "clusters")

    ds = load_labeled_csv(corpus.features)
    cfg = TrainConfig(limit=3, hidden=(8,), seed=11)
    first = model_to_json(train_mlp(ds, cfg))
    second = model_to_json(train_mlp(ds, cfg))
    assert first == second


# ---------------------------------------------------------------------------
# A8: degenerate inputs follow documented conventions without crashes.


def test_a8_degenerate_inputs():
    X = np.full((8, 3), 2.5)
    labels = ["a", "b"] * 4
    ds = _dataset(X, labels)
    folds = stratified_kfold(ds, 2, 0)
    specs = [
        ModelSpec("tree", "tree"),
        ModelSpec("nb", "nb"),
        ModelSpec("logreg", "logreg", TrainConfig(limit=60)),
        ModelSpec("mlp", "mlp", TrainConfig(limit=5, hidden=(4,), seed=1)),
    ]
    report = cross_validate(ds, specs, folds)
    for name in ("tree", "nb", "logreg"):
        suite = report.suites[name]
        assert suite.ca == 0.5
        assert suite.auc == 0.5
        assert suite.mcc == 0.0
    assert report.suites["mlp"].ca == 0.5
    for name in ("tree", "nb", "logreg", "mlp"):
        suite = report.suites[name]
        for metric in METRIC_NAMES:
            assert math.isfinite(getattr(suite, metric)), (name, metric)

    ds4 = _dataset([[0.0], [1.0], [2.0], [3.0]], ["a", "a", "b", "b"])
    lopsided = FoldAssignment(2, np.array([0, 0, 1, 1]), seed=0)
    with pytest.raises(ProtocolError, match=r"fold 0 .*'a'"):
        cross_validate(ds4, [ModelSpec("nb", "nb")], lopsided)

    flat = _dataset(
        [[1.0, 0.0], [1.0, 1.0], [1.0, 4.0], [1.0, 5.0]],
        ["a", "a", "b", "b"],
    )
    nb = train_naive_bayes(flat)
    for x in ([1.0, 2.0], [1.0, 100.0], [-50.0, 2.0]):
        p = nb.predict_proba([x])[0]
        assert np.all(np.isfinite(p))
        assert abs(float(p.sum()) - 1.0) <= 1e-12

    tied = auc(np.full((6, 2), 0.5), ["a", "b"] * 3, ["a", "b"])
    assert tied == 0.5

    cm = confusion_matrix(
        ["a", "a", "b", "b", "b"], ["a"] * 5, ["a", "b"]
    )
    assert classification_metrics(cm).mcc == 0.0

    with pytest.raises(RSquaredUndefinedError) as info:
        regression_errors([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])
    assert info.value.sse == 2.0
    assert info.value.sst == 0.0


# ---------------------------------------------------------------------------
# Every evaluate and cluster artefact of both pipeline runs against the
# oracles.  The checking side reads files only and shares no package code.


def _metadata(path):
    with open(path) as handle:
        return dict(line[2:].rstrip("\n").split(": ", 1)
                    for line in handle if line.startswith("# "))


def _oracle_suite(rows, classes):
    """The metric suite of (actual, predicted, probabilities) rows."""
    actual = [r[0] for r in rows]
    probs = [r[2] for r in rows]
    counts = confusion_ref(actual, [r[1] for r in rows], classes)
    precision, recall, specificity, f1 = weighted_prf_ref(counts)
    return {
        "auc": weighted_auc_ref(probs, actual, classes),
        "ca": accuracy_ref(counts), "f1": f1, "precision": precision,
        "recall": recall, "specificity": specificity,
        "mcc": mcc_cov_ref(counts),
        "log_loss": log_loss_ref(probs, actual, classes),
    }


def _check_reports(features, reports):
    labels = {r[0]: r[1] for r in _read_rows(features)[1:]}
    folds = _read_rows(reports / "folds.csv")
    assert folds[0] == ["id", "fold"]
    assert [r[0] for r in folds[1:]] == list(labels)
    fold_of = [int(r[1]) for r in folds[1:]]
    scores = _read_rows(reports / "fold_scores.csv")
    k = len(scores[0]) - 2
    by_class = {}
    for label, fold in zip(labels.values(), fold_of):
        by_class.setdefault(label, [0] * k)[fold] += 1
    for per_fold in by_class.values():
        assert max(per_fold) - min(per_fold) <= 1, per_fold
    fold_scores = {(r[0], r[1]): [float(v) for v in r[2:]] for r in scores[1:]}
    report = _read_rows(reports / "report.csv")
    assert report[0] == REPORT_HEADER

    for row in report[1:]:
        model = row[0]
        table = _read_rows(reports / f"predictions_{model}.csv")
        classes = [c[2:] for c in table[0][4:]]
        assert table[0] == ["id", "fold", "actual", "predicted",
                            *(f"p_{c}" for c in classes)]
        assert [r[:3] for r in table[1:]] == [
            [i, str(f), labels[i]] for i, f in zip(labels, fold_of)]
        rows = [(r[2], r[3], [float(v) for v in r[4:]]) for r in table[1:]]
        for _, predicted, probs in rows:
            assert predicted == classes[probs.index(max(probs))]

        pooled = _oracle_suite(rows, classes)
        for name, cell in zip(REPORT_HEADER[1:], row[1:]):
            assert abs(float(cell) - pooled[name]) <= 1e-12, (model, name)
        per_fold = [_oracle_suite([r for r, f in zip(rows, fold_of) if f == j],
                                  classes) for j in range(k)]
        for name in pooled:
            got = fold_scores[(model, name)]
            for j, suite in enumerate(per_fold):
                assert abs(got[j] - suite[name]) <= 1e-12, (model, name, j)

        counts = confusion_ref([r[0] for r in rows], [r[1] for r in rows],
                               classes)
        confusion = _read_rows(reports / f"confusion_{model}.csv")
        assert confusion[0] == ["counts", *classes]
        assert confusion[len(classes) + 1] == ["proportions", *classes]
        for c, name in enumerate(classes):
            assert confusion[1 + c] == [name, *map(str, counts[c])]
            total = sum(counts[c])
            proportions = confusion[len(classes) + 2 + c]
            assert proportions[0] == name
            assert [float(v) for v in proportions[1:]] == [
                v / total if total else 0.0 for v in counts[c]]

    models = [r[0] for r in report[1:]]
    for metric in COMPARISON_FILES:
        table = _read_rows(reports / f"comparison_{metric}.csv")
        assert table[0] == ["model", *models]
        for a, row in zip(models, table[1:]):
            assert row[0] == a
            for b, cell in zip(models, row[1:]):
                if a == b:
                    assert cell == ""
                    continue
                want = fold_win_ref(fold_scores[(a, metric)],
                                    fold_scores[(b, metric)])
                assert abs(float(cell) - want) <= 1e-12, (metric, a, b)


def _check_clusters(features, clusters):
    table = _read_rows(features)
    ids = [r[0] for r in table[1:]]
    n = len(ids)
    meta = _metadata(clusters / "distances.csv")
    assert (meta["metric"], meta["normalize"]) == ("euclidean", "true")
    want = zscore_euclidean_ref([[float(v) for v in r[2:]] for r in table[1:]])
    rows = _read_rows(clusters / "distances.csv")
    assert rows[0] == ["id", *ids]
    assert [r[0] for r in rows[1:]] == ids
    dist = [[float(v) for v in r[1:]] for r in rows[1:]]
    for i in range(n):
        for j in range(n):
            assert abs(dist[i][j] - want[i][j]) <= 1e-12 * max(1.0, want[i][j])

    merges = linkage_oracle(dist, meta["linkage"])
    members = {i: frozenset([i]) for i in range(n)}
    height = {frozenset([i]): 0.0 for i in range(n)}
    children = {}
    for left, right, h, new_id in merges:
        members[new_id] = members[left] | members[right]
        height[members[new_id]] = h
        children[members[new_id]] = (members[left], members[right])

    # Every Newick node is an oracle merge with the same ordered children,
    # and each branch is the drop in oracle height, to its six decimals.
    position = {name: i for i, name in enumerate(ids)}
    seen = []

    def leaves(node):
        payload, _ = node
        if isinstance(payload, str):
            return frozenset([position[payload]])
        sides = tuple(leaves(child) for child in payload)
        whole = frozenset().union(*sides)
        assert children[whole] == sides
        for side, (_, length) in zip(sides, payload):
            assert abs(length - (height[whole] - height[side])) <= 5e-7 + 1e-9
        seen.append(whole)
        return whole

    tree = parse_newick((clusters / "dendrogram.nwk").read_text())
    assert leaves(tree) == frozenset(range(n)) and tree[1] is None
    assert len(seen) == n - 1

    assigned = _read_rows(clusters / "clusters.csv")
    assert [r[0] for r in assigned[1:]] == ids
    count = int(_metadata(clusters / "clusters.csv")["clusters"])
    assert [int(r[1]) for r in assigned[1:]] == cut_ref(merges, n, count)


@pytest.mark.parametrize("run", ["pipeline", "corpus"])
def test_artefacts_match_the_oracles(run, request):
    paths = request.getfixturevalue(run)
    if run == "pipeline":
        paths = SimpleNamespace(features=paths / "features.csv",
                                reports=paths / "reports",
                                clusters=paths / "clusters")
    start = time.perf_counter()
    _check_reports(paths.features, paths.reports)
    _check_clusters(paths.features, paths.clusters)
    assert time.perf_counter() - start < 10.0

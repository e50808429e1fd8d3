"""Classifier unit tests: activations, gradients, trees, NB, MLP, I/O."""

import hashlib
import itertools
import json
import math
import warnings

import numpy as np
import pytest

from blademl import classifiers
from blademl.classifiers import (
    LOGISTIC_DEFAULTS,
    MLP_DEFAULTS,
    TREE_DEFAULTS,
    MlpModel,
    TrainConfig,
    cross_entropy_loss,
    init_mlp,
    logistic_gradient,
    logistic_objective,
    mlp_gradients,
    mlp_loss,
    model_to_json,
    sigmoid,
    train_logistic,
    train_logistics,
    train_mlp,
    train_mlps,
    train_naive_bayes,
    train_tree,
)
from blademl.dataset import LabeledDataset
from blademl.features import FeatureMatrix
from blademl.rng import SplitMix64, shuffled_indices

from oracles import (
    LogisticDivergence,
    best_root_split_ref,
    logistic_descent,
    sigmoid_sign_split,
    splitmix64_stream,
    tree_walk_ref,
    uniform_from_u64,
)

SIGMOID_2 = 0.8807970779778823


def _dataset(X, labels):
    X = np.asarray(X, dtype=np.float64)
    m = FeatureMatrix(
        [f"r{i}" for i in range(X.shape[0])], list(labels),
        [f"c{j}" for j in range(X.shape[1])], X,
    )
    return LabeledDataset.from_matrix(m)


def _uniforms(seed, count):
    return [uniform_from_u64(v) for v in splitmix64_stream(seed, count)]


def _predict_row(model, x):
    return model.predict_proba(np.array([x]))[0]


# ---------------------------------------------------------------------------
# Activations


def test_sigmoid_fixed_points():
    assert sigmoid(0.0) == 0.5
    assert sigmoid(2.0) == pytest.approx(SIGMOID_2, abs=1e-6)
    assert sigmoid(2.0) == pytest.approx(1.0 / (1.0 + math.exp(-2.0)), abs=1e-15)


def test_sigmoid_antisymmetry_and_extremes():
    for z in np.linspace(-30.0, 30.0, 61):
        assert sigmoid(-z) == pytest.approx(1.0 - sigmoid(z), abs=1e-15)
    assert sigmoid(1000.0) == 1.0
    assert 0.0 < sigmoid(-700.0) < 1e-300
    # Far below the subnormal range the value underflows cleanly to 0.
    assert sigmoid(-1000.0) == 0.0


def test_sigmoid_shapes():
    assert isinstance(sigmoid(1.0), float)
    out = sigmoid(np.array([-1.0, 0.0, 1.0]))
    assert out.shape == (3,)
    assert out[1] == 0.5


def test_sigmoid_matches_sign_split_reference():
    u = np.array(_uniforms(64, 3000))
    z = (u[:1000] - 0.5) * 10.0 ** (u[1000:2000] * 6.0 - 3.0)
    z[:10] = [0.0, -0.0, np.inf, -np.inf, 745.2, -745.2, 36.7, -800.0,
              -1e-17, -5e-324]
    for shaped in (z, z.reshape(10, 4, 25), z[::3]):
        assert sigmoid(shaped).tobytes() == sigmoid_sign_split(shaped).tobytes()


# ---------------------------------------------------------------------------
# Logistic regression


def test_logistic_objective_at_zero():
    X = np.array([[1.0], [2.0], [3.0], [4.0]])
    targets = np.array([0.0, 1.0, 0.0, 1.0])
    value = logistic_objective(0.0, np.zeros(1), X, targets, l2=0.0)
    assert value == pytest.approx(math.log(2.0), abs=1e-12)


def test_logistic_gradient_matches_finite_differences():
    u = _uniforms(31, 64)
    X = (np.array(u[:40]).reshape(10, 4) - 0.5) * 4.0
    targets = (np.array(u[40:50]) > 0.5).astype(np.float64)
    intercept = u[50] - 0.5
    weights = (np.array(u[51:55]) - 0.5) * 2.0
    l2 = 0.3
    h = 1e-6

    g0, gw = logistic_gradient(intercept, weights, X, targets, l2)
    fd0 = (
        logistic_objective(intercept + h, weights, X, targets, l2)
        - logistic_objective(intercept - h, weights, X, targets, l2)
    ) / (2.0 * h)
    assert g0 == pytest.approx(fd0, rel=1e-6, abs=1e-9)
    for j in range(4):
        up = weights.copy()
        up[j] += h
        down = weights.copy()
        down[j] -= h
        fd = (
            logistic_objective(intercept, up, X, targets, l2)
            - logistic_objective(intercept, down, X, targets, l2)
        ) / (2.0 * h)
        assert gw[j] == pytest.approx(fd, rel=1e-6, abs=1e-9)


def test_logistic_separable_training():
    ds = _dataset([[-2.0], [-1.0], [1.0], [2.0]], ["a", "a", "b", "b"])
    model = train_logistic(ds)
    probs = model.predict_proba(ds.X)
    assert [model.class_names[int(i)] for i in probs.argmax(axis=1)] == [
        "a", "a", "b", "b",
    ]
    # One-vs-rest coefficient signs: class b scores grow with x.
    assert model.coefficients[1, 0] > 0.0
    assert model.coefficients[0, 0] < 0.0


def test_logistic_zero_feature_fallback():
    ds = _dataset(np.empty((4, 0)), ["a", "b", "a", "b"])
    model = train_logistic(ds)
    probs = model.predict_proba(np.empty((2, 0)))
    np.testing.assert_allclose(probs, 0.5, atol=1e-9)


@pytest.mark.parametrize("g0, gw", [
    (float("nan"), [0.5]), (0.5, [float("nan")]), (0.5, [float("inf")]),
])
def test_logistic_checks_both_gradient_parts(monkeypatch, g0, gw):
    # max(finite, nan) is the finite value, so each part needs its own check.
    monkeypatch.setattr(
        classifiers, "_stack_logistic_gradients",
        lambda intercepts, weights, *args: (
            np.full(intercepts.shape, g0),
            np.broadcast_to(np.array(gw), weights.shape),
        ),
    )
    ds = _dataset([[-2.0], [-1.0], [1.0], [2.0]], ["a", "a", "b", "b"])
    with pytest.raises(ValueError, match="class 'a' became non-finite in "
                       "iteration 1 of 1000"):
        train_logistic(ds)


def _training_parts(n, k, classes, p, seed):
    """The k cross-validation training parts of n rows, fold f holding out
    the rows i with i % k == f; labels cycle through `classes` and shift
    the first feature by the class index."""
    X = (np.array(_uniforms(seed, n * p)).reshape(n, p) - 0.5) * 4.0
    labels = [classes[i % len(classes)] for i in range(n)]
    if p:
        X[:, 0] += [classes.index(label) for label in labels]
    ds = _dataset(X, labels)
    return [ds.subset([i for i in range(n) if i % k != f]) for f in range(k)]


def _blocks(sets):
    """The training sets as (X, y) blocks, one per run of consecutive sets
    of one row count, as cross-validation hands them over."""
    runs = [list(run) for _, run in itertools.groupby(sets, key=lambda ds: ds.n)]
    return [(np.stack([ds.X for ds in run]), np.stack([ds.y for ds in run]))
            for run in runs]


def _descend(ds, cfg):
    return logistic_descent(ds.X, ds.y, len(ds.class_names), cfg.learning_rate,
                            cfg.limit, cfg.tolerance, cfg.l2)


# Configs are TrainConfig(learning_rate, limit, tolerance, l2).
@pytest.mark.parametrize("n, k, classes, p, cfg", [
    # Equal training-set sizes, one stack.
    (40, 4, ["a", "b"], 3, TrainConfig(0.5, 200, 1e-6, 1e-3)),
    # Training sets of 90 and 91 rows, two stacks.
    (101, 10, ["a", "b", "c"], 4, TrainConfig(0.5, 60, 1e-6, 1e-3)),
    (101, 10, ["a", "b"], 0, TrainConfig(0.5, 60, 1e-6, 1e-3)),
    (101, 10, ["a", "b", "c"], 2, TrainConfig(0.5, 1, 1e-6, 1e-3)),
    # Classes of one fold stop at different iterations (27, 26 and 39).
    (24, 4, ["a", "b", "c"], 3, TrainConfig(0.5, 300, 1e-2, 1e-3)),
], ids=["equal", "unequal-3-classes", "no-features", "limit-1", "tolerance"])
def test_train_logistics_lockstep_matches_solo(n, k, classes, p, cfg):
    sets = _training_parts(n, k, classes, p, seed=71)
    models = train_logistics(_blocks(sets), classes, cfg)
    if cfg.tolerance == 1e-2:
        steps = _descend(sets[0], cfg)[2]
        assert len(set(steps)) == len(classes) and max(steps) < cfg.limit
    for ds, model in zip(sets, models):
        intercepts, coefficients, _ = _descend(ds, cfg)
        assert model.intercepts.tobytes() == intercepts.tobytes()
        assert model.coefficients.tobytes() == coefficients.tobytes()
        assert model_to_json(train_logistic(ds, cfg)) == model_to_json(model)


def test_train_logistics_reports_divergence_in_sequential_order():
    X = (np.array(_uniforms(72, 40)).reshape(20, 2) - 0.5) * 4.0
    labels = ["a", "b"] * 10
    # Fold 0 diverges late; folds 1 and 2 (the latter in its own stack of
    # 19 rows) overflow far earlier in lockstep time.
    sets = [_dataset(X, labels), _dataset(X * 1e150, labels),
            _dataset(X[:19] * 1e150, labels[:19])]
    cfg = TrainConfig(learning_rate=50.0, limit=500, tolerance=0.0, l2=1.0)
    first = []
    for ds in sets:
        with pytest.raises(LogisticDivergence) as caught:
            _descend(ds, cfg)
        first.append(caught.value)
    assert first[0].iteration > max(f.iteration for f in first[1:])
    expected = (f"fold 0: logistic gradient for class "
                f"{sets[0].class_names[first[0].class_index]!r} became "
                f"non-finite in iteration {first[0].iteration} of 500")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError) as caught:
            train_logistics(_blocks(sets), ["a", "b"], cfg)
    assert str(caught.value) == expected


def _rejects_bad_blocks(train):
    X = np.zeros((2, 3, 1))
    y = np.array([[0, 1, 0], [1, 0, 1]])
    with pytest.raises(ValueError, match="at least one"):
        train([], ["p", "q"])
    with pytest.raises(ValueError, match="at least one"):
        train([(X[:0], y[:0])], ["p", "q"])
    with pytest.raises(ValueError, match="at least 2 classes"):
        train([(X, y)], ["p"])
    with pytest.raises(ValueError, match="arrays of one p"):
        train([(X[0], y[0])], ["p", "q"])
    with pytest.raises(ValueError, match="arrays of one p"):
        train([(X, y), (np.zeros((1, 3, 2)), y[:1])], ["p", "q"])
    with pytest.raises(ValueError, match=r"\(m, n\) array of class indices"):
        train([(X, y[:, :2])], ["p", "q"])
    with pytest.raises(ValueError, match=r"\(m, n\) array of class indices"):
        train([(X, y * 1.0)], ["p", "q"])
    with pytest.raises(ValueError, match=r"lie in \[0, 2\)"):
        train([(X, y + 1)], ["p", "q"])
    with pytest.raises(ValueError, match=r"lie in \[0, 2\)"):
        train([(X, y - 1)], ["p", "q"])
    X[1, 2, 0] = np.inf
    with pytest.raises(ValueError, match="finite"):
        train([(X, y)], ["p", "q"])


def test_train_logistics_validation():
    _rejects_bad_blocks(train_logistics)


def test_logistic_requires_two_classes():
    with pytest.raises(ValueError):
        train_logistic(_dataset([[0.0], [1.0]], ["a", "a"]))


# ---------------------------------------------------------------------------
# Trees


def test_tree_hand_case():
    ds = _dataset([[0.0], [1.0], [2.0], [3.0]], ["A", "A", "B", "B"])
    model = train_tree(ds, TrainConfig(min_leaf=1))
    root = model.root
    assert root.feature == 0
    assert root.threshold == 1.5
    assert root.left.is_leaf and root.right.is_leaf
    np.testing.assert_array_equal(root.left.probs, [1.0, 0.0])
    np.testing.assert_array_equal(root.right.probs, [0.0, 1.0])
    np.testing.assert_array_equal(_predict_row(model, [0.5]), [1.0, 0.0])
    np.testing.assert_array_equal(_predict_row(model, [2.5]), [0.0, 1.0])


def test_tree_threshold_routes_left():
    ds = _dataset([[0.0], [1.0]], ["A", "B"])
    model = train_tree(ds, TrainConfig(min_leaf=1))
    assert model.root.threshold == 0.5
    # A point landing exactly on the threshold follows the left child.
    np.testing.assert_array_equal(_predict_row(model, [0.5]), [1.0, 0.0])


@pytest.mark.parametrize("a,b", [
    (2.0**52 + 1, 2.0**52 + 2),
    (1e-300, math.nextafter(1e-300, 1.0)),
    (1.7e308, 1.79e308),
    (-1.79e308, -1.7e308),
], ids=["adjacent-2**52", "adjacent-1e-300", "overflow-up", "overflow-down"])
def test_tree_splits_where_the_midpoint_fails(a, b):
    # (a + b) / 2 rounds onto b or overflows to +-inf, so the threshold is
    # a itself; the classes still split at the root, with no warning.
    ds = _dataset([[a], [a], [b], [b]], ["x", "x", "y", "y"])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model = train_tree(ds, TrainConfig(min_leaf=1))
    assert model.root.threshold == a
    np.testing.assert_array_equal(model.root.left.probs, [1.0, 0.0])
    np.testing.assert_array_equal(model.root.right.probs, [0.0, 1.0])


def test_tree_tie_prefers_lowest_feature():
    # Both features separate the classes perfectly; feature 0 must win.
    ds = _dataset([[0.0, 10.0], [1.0, 11.0]], ["A", "B"])
    model = train_tree(ds, TrainConfig(min_leaf=1))
    assert model.root.feature == 0


def test_tree_root_matches_bruteforce():
    for seed in range(12):
        u = _uniforms(seed + 100, 40)
        n = 5 + seed % 6
        X = np.array(u[: 2 * n]).reshape(n, 2)
        y = np.array([int(v * 3) % 3 for v in u[2 * n : 3 * n]])
        labels = [f"k{v}" for v in y]
        ds = _dataset(X, labels)
        model = train_tree(ds, TrainConfig(max_depth=1, min_leaf=1))
        ref = best_root_split_ref(
            X.tolist(), list(ds.y), len(ds.class_names), 1
        )
        if ref is None:
            assert model.root.is_leaf
        else:
            assert model.root.feature == ref[0]
            assert model.root.threshold == pytest.approx(ref[1], abs=1e-12)


def test_tree_cube_transform_invariance():
    u = _uniforms(77, 60)
    X = (np.array(u[:40]).reshape(20, 2) - 0.5) * 4.0
    labels = ["p" if v > 0.5 else "q" for v in u[40:60]]
    ds1 = _dataset(X, labels)
    ds2 = _dataset(X**3, labels)
    m1 = train_tree(ds1)
    m2 = train_tree(ds2)
    np.testing.assert_array_equal(m1.predict_proba(X), m2.predict_proba(X**3))


def test_tree_min_leaf_blocks_splits():
    ds = _dataset([[0.0], [1.0], [2.0]], ["A", "A", "B"])
    model = train_tree(ds, TrainConfig(min_leaf=2))
    assert model.root.is_leaf
    np.testing.assert_allclose(model.root.probs, [2.0 / 3.0, 1.0 / 3.0])


def test_tree_max_depth_one_is_a_stump():
    u = _uniforms(5, 30)
    X = np.array(u[:20]).reshape(10, 2)
    labels = ["a" if v > 0.5 else "b" for v in u[20:30]]
    model = train_tree(_dataset(X, labels), TrainConfig(max_depth=1, min_leaf=1))
    root = model.root
    if not root.is_leaf:
        assert root.left.is_leaf and root.right.is_leaf


def test_tree_pure_node_stops():
    ds = _dataset([[0.0], [1.0], [2.0]], ["A", "A", "A"])
    with pytest.raises(ValueError):
        train_tree(ds)  # single class rejected
    ds2 = _dataset([[0.0], [1.0], [2.0], [3.0]], ["A", "A", "A", "B"])
    model = train_tree(ds2, TrainConfig(min_leaf=1))
    # The A-side child is pure and must be a leaf.
    assert model.root.left.is_leaf


def _depth(node):
    return 0 if node.is_leaf else 1 + max(_depth(node.left), _depth(node.right))


@pytest.mark.parametrize("seed", range(4))
def test_tree_predict_matches_reference_walk(seed):
    # Integer features put every midpoint threshold on a half-integer, so
    # the grid of halves lands rows exactly on thresholds; NaN goes right.
    u = np.array(_uniforms(900 + seed, 1200))
    X = np.floor(u[:900] * 6.0).reshape(300, 3)
    labels = [f"k{int(v * 3.0)}" for v in u[900:]]
    model = train_tree(_dataset(X, labels),
                       TrainConfig(max_depth=12, min_leaf=1))
    assert _depth(model.root) >= 8
    grid = np.arange(-1, 14) / 2.0
    rows = np.stack(np.meshgrid(grid, grid, grid), axis=-1).reshape(-1, 3)
    rows = np.vstack([rows, [[np.nan, 2.5, 1.0], [2.5, np.inf, np.nan],
                             [-np.inf, np.nan, 4.5]]])
    np.testing.assert_array_equal(model.predict_proba(rows),
                                  tree_walk_ref(model.root, rows))


# ---------------------------------------------------------------------------
# Gaussian naive Bayes


def test_nb_equal_distributions_return_priors():
    ds = _dataset([[1.0], [1.0], [1.0], [1.0]], ["a", "a", "a", "b"])
    model = train_naive_bayes(ds)
    np.testing.assert_allclose(_predict_row(model, [1.0]), [0.75, 0.25],
                               atol=1e-12)
    # Far outside the (floored-variance) distributions the log-likelihoods
    # are astronomically negative; the result must still be a finite
    # probability row even though the tiny prior term is absorbed.
    far = _predict_row(model, [57.0])
    assert np.all(np.isfinite(far))
    assert far.sum() == pytest.approx(1.0, abs=1e-12)


def test_nb_symmetric_midpoint():
    ds = _dataset([[-2.0], [0.0], [0.0], [2.0]], ["a", "a", "b", "b"])
    model = train_naive_bayes(ds)
    np.testing.assert_allclose(_predict_row(model, [0.0]), [0.5, 0.5],
                               atol=1e-12)


def test_nb_hand_posterior_matches_density_ratio():
    # Class a: {-1, 1} (mean 0, population variance 1); class b: {1, 3}
    # (mean 2, variance 1).  At x = 0 the posterior odds are exp(2), so
    # P(a | x=0) = sigmoid(2).
    ds = _dataset([[-1.0], [1.0], [1.0], [3.0]], ["a", "a", "b", "b"])
    model = train_naive_bayes(ds)
    probs = _predict_row(model, [0.0])
    assert probs[0] == pytest.approx(SIGMOID_2, abs=1e-9)

    def density(x, mean, var):
        return math.exp(-((x - mean) ** 2) / (2.0 * var)) / math.sqrt(
            2.0 * math.pi * var
        )

    ratio = density(0.0, 0.0, 1.0) * 0.5
    total = ratio + density(0.0, 2.0, 1.0) * 0.5
    assert probs[0] == pytest.approx(ratio / total, abs=1e-12)


def test_nb_variance_floor():
    ds = _dataset(
        [[0.0, 1.0], [0.0, 3.0], [0.0, 5.0], [0.0, 7.0]], ["a", "a", "b", "b"]
    )
    model = train_naive_bayes(ds)
    total_var_max = float(ds.X.var(axis=0).max())
    assert model.eps_var == pytest.approx(1e-9 * total_var_max, rel=1e-12)
    assert np.all(model.variances >= model.eps_var)
    probs = _predict_row(model, [0.0, 2.0])
    assert np.all(np.isfinite(probs))
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_nb_all_constant_features():
    ds = _dataset([[4.0], [4.0], [4.0], [4.0]], ["a", "a", "b", "b"])
    model = train_naive_bayes(ds)
    assert model.eps_var == pytest.approx(1e-21, rel=1e-9)
    probs = _predict_row(model, [4.0])
    assert np.all(np.isfinite(probs))
    np.testing.assert_allclose(probs, [0.5, 0.5], atol=1e-12)


def test_nb_validation():
    with pytest.raises(ValueError):
        train_naive_bayes(_dataset([[0.0]], ["a"]))
    ds = _dataset([[0.0], [1.0]], ["a", "b"])
    model = train_naive_bayes(ds)
    with pytest.raises(ValueError):
        model.predict_proba([[0.0, 1.0]])
    with pytest.raises(ValueError, match="features must be finite"):
        train_naive_bayes(_dataset([[0.0], [np.nan]], ["a", "b"]))
    with pytest.raises(ValueError, match="every class needs at least one"):
        train_naive_bayes(LabeledDataset(ds.matrix, ["a", "b", "c"]))


def test_nb_nonfinite_statistics_raise():
    # Finite features whose squares overflow: without the check the model
    # holds infinite variances and predicts all-NaN rows.
    big = _dataset([[1e200], [-1e200], [3e200], [2e200]], ["a", "a", "b", "b"])
    # Per-class variances fit, the variance over both classes does not.
    apart = _dataset([[1e155], [1e155], [-1e155], [-1e155]], ["a", "a", "b", "b"])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match="^naive Bayes mean or variance of "
                           "feature 0 for class 'a' is not finite$"):
            train_naive_bayes(big)
        with pytest.raises(ValueError, match="^naive Bayes variance of feature 0 "
                           "over all classes is not finite$"):
            train_naive_bayes(apart)


def test_nb_overflowing_row_raises():
    # A finite held-out row far from every class mean: each squared
    # deviation overflows, so without the check the row is all NaN.
    model = train_naive_bayes(_dataset([[0], [1], [2], [3]], ["p", "p", "q", "q"]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^naive Bayes class log-likelihoods "
                           "of row 1 are not finite$"):
            model.predict_proba([[0.5], [1e200]])
        # Class p's variance is floored to 1.5e-9, so x = 1e150 overflows
        # only p's log-likelihood, and the row keeps q's probability.
        model = train_naive_bayes(
            _dataset([[0], [0], [1], [3]], ["p", "p", "q", "q"])
        )
        assert model.predict_proba([[1e150]]).tolist() == [[0.0, 1.0]]


# ---------------------------------------------------------------------------
# MLP


def _mlp_2_2_2():
    model = MlpModel(
        class_names=["a", "b"],
        layer_sizes=[2, 2, 2],
        weights=[
            np.array([[1.0, 0.0], [0.0, 1.0]]),
            np.array([[1.0, -1.0], [-1.0, 1.0]]),
        ],
        biases=[np.array([0.5, -0.25]), np.array([0.1, -0.1])],
        activation="relu",
    )
    return model


def test_mlp_forward_hand_case():
    model = _mlp_2_2_2()
    # x = (0.3, -0.2): z1 = (0.8, -0.45), relu -> (0.8, 0), z2 = (0.9, -0.9).
    probs = _predict_row(model, [0.3, -0.2])
    expected0 = 1.0 / (1.0 + math.exp(-1.8))
    assert probs[0] == pytest.approx(expected0, abs=1e-12)
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_mlp_zero_network_is_uniform():
    model = MlpModel(
        ["a", "b", "c"], [2, 2, 3],
        [np.zeros((2, 2)), np.zeros((3, 2))],
        [np.zeros(2), np.zeros(3)], "relu",
    )
    np.testing.assert_array_equal(_predict_row(model, [5.0, -3.0]),
                                  [1 / 3, 1 / 3, 1 / 3])


def test_mlp_dead_relu_passes_output_bias():
    model = MlpModel(
        ["a", "b"], [1, 2, 2],
        [np.array([[-1.0], [-2.0]]), np.array([[1.0, 1.0], [1.0, 1.0]])],
        [np.zeros(2), np.array([math.log(3.0), 0.0])], "relu",
    )
    probs = _predict_row(model, [4.0])
    np.testing.assert_allclose(probs, [0.75, 0.25], atol=1e-12)


def test_mlp_forward_validation():
    with pytest.raises(ValueError, match="feature count mismatch"):
        _predict_row(_mlp_2_2_2(), [1.0])


def test_mlp_gradients_match_finite_differences():
    # Smooth activation so central differences are clean everywhere.
    rng = SplitMix64(17)
    model = init_mlp(["a", "b"], [3, 4, 2], "tanh", rng)
    x = np.array([0.4, -1.2, 0.7])
    l2 = 0.01
    h = 1e-5
    grads_w, grads_b = mlp_gradients(model, x, 1, l2)
    for l, grad in enumerate(grads_w):
        for idx in np.ndindex(grad.shape):
            model.weights[l][idx] += h
            up = mlp_loss(model, x, 1, l2)
            model.weights[l][idx] -= 2 * h
            down = mlp_loss(model, x, 1, l2)
            model.weights[l][idx] += h
            fd = (up - down) / (2.0 * h)
            assert grad[idx] == pytest.approx(fd, rel=1e-4, abs=1e-8)
    for l, grad in enumerate(grads_b):
        for idx in np.ndindex(grad.shape):
            model.biases[l][idx] += h
            up = mlp_loss(model, x, 1, l2)
            model.biases[l][idx] -= 2 * h
            down = mlp_loss(model, x, 1, l2)
            model.biases[l][idx] += h
            fd = (up - down) / (2.0 * h)
            assert grad[idx] == pytest.approx(fd, rel=1e-4, abs=1e-8)


def test_init_mlp_draw_order_and_bounds():
    seed = 5
    model = init_mlp(["a", "b"], [3, 4, 2], "relu", SplitMix64(seed))
    u = _uniforms(seed, 20)
    first = (2.0 * np.array(u[:12]) - 1.0) / math.sqrt(3.0)
    second = (2.0 * np.array(u[12:20]) - 1.0) / math.sqrt(4.0)
    np.testing.assert_array_equal(model.weights[0].reshape(-1), first)
    np.testing.assert_array_equal(model.weights[1].reshape(-1), second)
    assert np.abs(model.weights[0]).max() <= 1.0 / math.sqrt(3.0)
    assert all(np.all(b == 0.0) for b in model.biases)


def test_cross_entropy_values():
    assert cross_entropy_loss([1 / 3, 1 / 3, 1 / 3], "b", ["a", "b", "c"]) == (
        pytest.approx(math.log(3.0), abs=1e-12)
    )
    clipped = cross_entropy_loss([1.0, 0.0], "b", ["a", "b"])
    assert clipped == pytest.approx(34.5388, abs=1e-3)
    with pytest.raises(ValueError):
        cross_entropy_loss([0.5, 0.4], "a", ["a", "b"])
    with pytest.raises(ValueError):
        cross_entropy_loss([0.5, 0.5], "z", ["a", "b"])


def _blobs():
    u = _uniforms(23, 80)
    X = np.empty((40, 2))
    labels = []
    for i in range(40):
        center = -2.0 if i < 20 else 2.0
        X[i] = [center + u[2 * i] - 0.5, center + u[2 * i + 1] - 0.5]
        labels.append("neg" if i < 20 else "pos")
    return _dataset(X, labels)


def test_train_mlp_separates_blobs():
    ds = _blobs()
    model = train_mlp(ds, TrainConfig(limit=50, seed=3))
    probs = model.predict_proba(ds.X)
    predicted = [model.class_names[int(i)] for i in probs.argmax(axis=1)]
    accuracy = np.mean([p == a for p, a in zip(predicted, ds.matrix.labels)])
    assert accuracy >= 0.95


def test_train_mlp_seed_determinism():
    ds = _blobs()
    a = train_mlp(ds, TrainConfig(limit=5, seed=11))
    b = train_mlp(ds, TrainConfig(limit=5, seed=11))
    assert model_to_json(a) == model_to_json(b)
    c = train_mlp(ds, TrainConfig(limit=5, seed=12))
    assert model_to_json(a) != model_to_json(c)


def _per_sample_reference(ds, cfg):
    """One network at a time, one unstacked forward pass, backprop and
    descent step per row: the loop the lockstep trainer must reproduce."""
    activate = {"relu": lambda z: np.maximum(z, 0.0), "sigmoid": sigmoid,
                "tanh": np.tanh}[cfg.activation]

    def slope(z, a):
        if cfg.activation == "relu":
            return (z > 0.0).astype(np.float64)
        if cfg.activation == "sigmoid":
            return a * (1.0 - a)
        return 1.0 - a ** 2

    rng = SplitMix64(cfg.seed)
    sizes = [ds.X.shape[1], *cfg.hidden, len(ds.class_names)]
    model = init_mlp(list(ds.class_names), sizes, cfg.activation, rng)
    for _ in range(cfg.limit):
        for i in shuffled_indices(ds.n, rng):
            W, b = model.weights, model.biases
            activations, pre = [ds.X[i]], []
            for l in range(len(W) - 1):
                pre.append(W[l] @ activations[-1] + b[l])
                activations.append(activate(pre[-1]))
            z = W[-1] @ activations[-1] + b[-1]
            e = np.exp(z - z.max())
            delta = e / e.sum()
            delta[ds.y[i]] -= 1.0
            grads_w, grads_b = [None] * len(W), [None] * len(W)
            for l in range(len(W) - 1, -1, -1):
                grads_w[l] = np.outer(delta, activations[l]) + cfg.l2 * W[l]
                grads_b[l] = delta
                if l > 0:
                    delta = (W[l].T @ delta) * slope(pre[l - 1], activations[l])
            rate = cfg.learning_rate
            model.weights = [w - rate * g for w, g in zip(W, grads_w)]
            model.biases = [v - rate * g for v, g in zip(b, grads_b)]
    return model


@pytest.mark.parametrize("activation,hidden", [
    ("relu", (5,)), ("sigmoid", (5,)), ("tanh", (5,)), ("relu", (5, 4)),
])
def test_train_mlps_lockstep_matches_solo(activation, hidden):
    u = _uniforms(61, 40 * 3)
    X = (np.array(u).reshape(40, 3) - 0.5) * 4.0
    labels = ["a", "b", "c", "d"] * 10
    # Unequal row counts, one repeated, in no particular order.
    sets = [_dataset(X[rows], labels[:len(rows)]) for rows in (
        range(0, 20), range(20, 39), range(3, 20), range(10, 30),
    )]
    cfg = TrainConfig(learning_rate=0.05, limit=4, l2=1e-3, hidden=hidden,
                      activation=activation, seed=8)
    lockstep = train_mlps(_blocks(sets), ["a", "b", "c", "d"], cfg)
    for ds, model in zip(sets, lockstep):
        text = model_to_json(model)
        assert text == model_to_json(train_mlp(ds, cfg))
        assert text == model_to_json(_per_sample_reference(ds, cfg))


def test_train_mlps_validation():
    _rejects_bad_blocks(train_mlps)


def test_train_mlps_nonfinite_names_fold_and_epoch():
    u = _uniforms(62, 20)
    # Only the larger second set diverges: its features overflow the
    # first forward passes.
    sets = [
        _dataset(np.array(u[:8]).reshape(4, 2), ["p", "q"] * 2),
        _dataset(np.array(u[8:]).reshape(6, 2) * 1e200, ["p", "q"] * 3),
    ]
    with pytest.raises(ValueError, match=r"^fold 1: .* non-finite in epoch 1 of 3$"):
        train_mlps(_blocks(sets), ["p", "q"], TrainConfig(limit=3, seed=1))


def test_train_config_defaults_frozen():
    assert LOGISTIC_DEFAULTS == {
        "learning_rate": 0.1, "limit": 1000, "tolerance": 1e-6, "l2": 1e-4,
    }
    assert TREE_DEFAULTS == {"max_depth": 10, "min_leaf": 2}
    assert MLP_DEFAULTS == {
        "learning_rate": 0.01, "limit": 200, "l2": 1e-4,
        "hidden": (20,), "activation": "relu",
    }
    cfg = TrainConfig()
    assert cfg.resolved("limit", MLP_DEFAULTS) == 200
    assert TrainConfig(limit=7).resolved("limit", MLP_DEFAULTS) == 7


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        TrainConfig(limit=0)
    with pytest.raises(ValueError):
        TrainConfig(tolerance=-1.0)
    with pytest.raises(ValueError):
        TrainConfig(l2=-0.1)
    for field in ("learning_rate", "tolerance", "l2"):
        for value in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                TrainConfig(**{field: value})
    with pytest.raises(ValueError):
        TrainConfig(hidden=())
    with pytest.raises(ValueError):
        TrainConfig(hidden=(0,))
    with pytest.raises(ValueError):
        TrainConfig(activation="softsign")
    with pytest.raises(ValueError):
        TrainConfig(max_depth=0)
    with pytest.raises(ValueError):
        TrainConfig(min_leaf=0)


# ---------------------------------------------------------------------------
# Prediction contract, shared by all four models


@pytest.fixture(scope="module")
def fitted():
    u = np.array(_uniforms(41, 96))
    X = (u[:72].reshape(24, 3) - 0.5) * 4.0
    ds = _dataset(X, [f"k{int(v * 3.0)}" for v in u[72:]])
    return X, {
        "tree": train_tree(ds),
        "nb": train_naive_bayes(ds),
        "logreg": train_logistic(ds, TrainConfig(limit=50)),
        "mlp": train_mlp(ds, TrainConfig(limit=3, hidden=(4,))),
    }


@pytest.mark.parametrize("name", ["tree", "nb", "logreg", "mlp"])
def test_predict_proba_contract(fitted, name):
    X, models = fitted
    model = models[name]
    for bad in (X[0], X[:, :2], np.zeros((2, 4))):
        with pytest.raises(ValueError, match="feature count mismatch"):
            model.predict_proba(bad)
    assert model.predict_proba(np.zeros((0, 3))).shape == (0, 3)
    batch = model.predict_proba(X)
    np.testing.assert_allclose(batch.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    one_at_a_time = np.array([_predict_row(model, x) for x in X])
    if name in ("tree", "nb"):
        assert batch.tobytes() == one_at_a_time.tobytes()
    else:
        # BLAS computes a one-row X @ W.T as a gemv and a table as a gemm,
        # which may round the last bit of a dot product differently.
        np.testing.assert_allclose(one_at_a_time, batch, rtol=1e-14, atol=0)


# ---------------------------------------------------------------------------
# JSON export


# sha256 of model_to_json for the seeded fits below, pinned when the JSON
# reader was removed: the documents are the only record of a model's bits.
MODEL_JSON_PINS = {
    "train_tree":
        "a8efeb964bf9784cbe6dc1680a1fc3a88b18819684971caf6c5f7aa31bb62a5b",
    "train_naive_bayes":
        "7577d8b3f53d79728a9ec659dc06dcb5bf63f6861bc0574ec926b6bd80a6b9bd",
    "train_logistic":
        "187cec70c444eb15cc14cdd188003aaa148881de6d52096aaa19b988c8e82166",
    "train_mlp":
        "239389fcdbcf2a727eb60167185dd082084998729c948ca618d4cff6288ce96a",
}


@pytest.mark.parametrize("trainer,cfg", [
    (train_tree, TrainConfig(min_leaf=1)),
    (train_naive_bayes, None),
    (train_logistic, TrainConfig(limit=50)),
    (train_mlp, TrainConfig(limit=5)),
])
def test_model_json_round_trip(trainer, cfg):
    ds = _dataset(
        [[0.0, 1.0], [0.2, 0.9], [1.0, 0.1], [0.8, 0.0]], ["a", "a", "b", "b"]
    )
    model = trainer(ds, cfg) if cfg is not None else trainer(ds)
    text = model_to_json(model)
    assert model_to_json(model) == text
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == MODEL_JSON_PINS[trainer.__name__]
    json.loads(text)  # valid JSON document

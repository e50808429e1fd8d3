"""Four classifiers built from first principles.

All training is deterministic: fixed data, config, and seed produce
bit-identical models.  Each model's `predict_proba` maps a row table to
class probabilities in the dataset's class order (nonnegative, rows sum to 1).

  - Logistic regression: one-vs-rest, full-batch gradient descent on the
    mean negative log-likelihood plus an L2 penalty on the non-intercept
    coefficients, zero initialization.
  - Decision tree: greedy recursive partitioning on midpoint thresholds by
    Gini impurity, `x <= threshold` routed left.
  - Gaussian naive Bayes: class priors times per-feature Gaussian
    likelihoods with a variance floor, evaluated in log space.
  - Multilayer perceptron: configurable hidden layers, softmax output,
    per-sample stochastic gradient descent with seeded initialization and
    seeded epoch shuffles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import LabeledDataset, class_indices
from .fmt import render_json
from .rng import SplitMix64, shuffled_indices

PROB_CLIP = 1e-15
ACTIVATIONS = ("relu", "sigmoid", "tanh")

LOGISTIC_DEFAULTS = {
    "learning_rate": 0.1, "limit": 1000, "tolerance": 1e-6, "l2": 1e-4,
}
TREE_DEFAULTS = {"max_depth": 10, "min_leaf": 2}
MLP_DEFAULTS = {
    "learning_rate": 0.01, "limit": 200, "l2": 1e-4,
    "hidden": (20,), "activation": "relu",
}


@dataclass
class TrainConfig:
    """Shared hyperparameter record; fields left as None fall back to the
    per-model defaults above."""

    learning_rate: float | None = None
    limit: int | None = None
    tolerance: float | None = None
    l2: float | None = None
    seed: int = 0
    hidden: tuple[int, ...] | None = None
    activation: str | None = None
    max_depth: int | None = None
    min_leaf: int | None = None

    def __post_init__(self):
        rate = self.learning_rate
        if rate is not None and not 0 < rate < math.inf:
            raise ValueError("learning rate must be positive and finite")
        if self.limit is not None and self.limit < 1:
            raise ValueError("iteration/epoch limit must be at least 1")
        if self.tolerance is not None and not 0 <= self.tolerance < math.inf:
            raise ValueError("tolerance must be nonnegative and finite")
        if self.l2 is not None and not 0 <= self.l2 < math.inf:
            raise ValueError("L2 strength must be nonnegative and finite")
        if self.hidden is not None:
            self.hidden = tuple(int(h) for h in self.hidden)
            if not self.hidden or any(h < 1 for h in self.hidden):
                raise ValueError("hidden layer sizes must all be at least 1")
        if self.activation is not None and self.activation not in ACTIVATIONS:
            raise ValueError(f"activation must be one of {ACTIVATIONS}")
        if self.max_depth is not None and self.max_depth < 1:
            raise ValueError("max depth must be at least 1")
        if self.min_leaf is not None and self.min_leaf < 1:
            raise ValueError("min leaf must be at least 1")

    def resolved(self, name: str, defaults: dict):
        value = getattr(self, name)
        return defaults[name] if value is None else value


def sigmoid(z):
    """Numerically stable 1 / (1 + exp(-z)); exponentiates only -|z|."""
    out = np.atleast_1d(np.array(z, dtype=np.float64))
    _sigmoid_inplace(out, np.empty_like(out), np.empty_like(out))
    return float(out[0]) if np.ndim(z) == 0 else out


def _sigmoid_inplace(z, e, pos):
    """Overwrite float64 z with sigmoid(z); e and pos are float64 scratch."""
    np.greater_equal(z, 0.0, out=pos)
    np.exp(np.negative(np.abs(z, out=e), out=e), out=e)
    # 1 / (1 + exp(-z)) for z >= 0, exp(z) / (1 + exp(z)) below: e <= 1, so
    # the numerator max(e, z >= 0) is 1 above and e below (NaN stays NaN).
    np.maximum(e, pos, out=z)
    z /= np.add(e, 1.0, out=e)


def _rows(X, width: int) -> np.ndarray:
    """X as a float64 table of rows with `width` features each."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != width:
        raise ValueError("feature count mismatch")
    return X


def _check_finite(X: np.ndarray) -> None:
    if not np.all(np.isfinite(X)):
        raise ValueError("features must be finite")


def _training_blocks(blocks, class_names: list[str], model: str) -> list:
    """The (X, y) blocks of one lockstep fit: each X a finite, C-contiguous
    float64 (m, n, p) array of m training sets, p shared by all blocks, and
    y their (m, n) class indices into class_names."""
    if len(class_names) < 2:
        raise ValueError(f"{model} training requires at least 2 classes")
    checked = [(np.ascontiguousarray(X, dtype=np.float64), np.asarray(y))
               for X, y in blocks]
    for X, y in checked:
        if X.ndim != 3 or X.shape[2] != checked[0][0].shape[2]:
            raise ValueError("training blocks must be (m, n, p) arrays of one p")
        if y.shape != X.shape[:2] or y.dtype.kind not in "iu":
            raise ValueError("each block needs an (m, n) array of class indices")
        if y.size and not 0 <= y.min() <= y.max() < len(class_names):
            raise ValueError(f"class indices must lie in [0, {len(class_names)})")
        _check_finite(X)
    if not any(len(X) for X, _ in checked):
        raise ValueError(f"{model} training needs at least one training set")
    return checked


# ---------------------------------------------------------------------------
# Logistic regression


@dataclass
class LogisticModel:
    """One-vs-rest coefficient rows: P(class c | x) before renormalization is
    sigmoid(intercepts[c] + coefficients[c] . x)."""

    class_names: list[str]
    intercepts: np.ndarray
    coefficients: np.ndarray

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Per-class one-vs-rest sigmoid scores renormalized to sum 1; an
        all-zero score row falls back to the uniform distribution."""
        X = _rows(X, self.coefficients.shape[1])
        scores = sigmoid(X @ self.coefficients.T + self.intercepts)
        totals = scores.sum(axis=1, keepdims=True)
        uniform = totals[:, 0] == 0.0
        scores[uniform] = 1.0
        totals[uniform] = float(len(self.class_names))
        return scores / totals


def logistic_objective(
    intercept: float, weights: np.ndarray, X: np.ndarray, targets: np.ndarray,
    l2: float,
) -> float:
    """Mean negative log-likelihood plus (l2 / 2) * ||weights||^2.

    The intercept is unpenalized.  Computed via logaddexp for stability:
    nll_i = log(1 + exp(z_i)) - t_i * z_i.
    """
    z = intercept + X @ weights
    nll = np.logaddexp(0.0, z) - targets * z
    return float(nll.mean() + 0.5 * l2 * float(weights @ weights))


# One-vs-rest problems descend as stacks: X has shape (m, 1, n, p), weights
# (m, classes, p) and targets (m, classes, n).  np.matmul with a trailing
# unit axis makes one BLAS gemv per problem, the same call as an unstacked
# X @ w or X.T @ r (one gemm X @ W.T would round differently), and every
# other op is elementwise or reduces within one problem, so each problem in
# a stack gets exactly the bits it would get alone.


def _stack_logistic_gradients(intercepts, weights, X, targets, l2, scratch):
    """Gradients of logistic_objective in (intercepts, weights) for a stack;
    the per-row arrays live in `scratch`, float64 (3, *targets.shape, 1)."""
    n = targets.shape[-1]
    residual = np.matmul(X, weights[..., None], out=scratch[0])[..., 0]
    residual += intercepts[..., None]
    _sigmoid_inplace(residual, scratch[1, ..., 0], scratch[2, ..., 0])
    residual -= targets
    gw = (X.swapaxes(-1, -2) @ residual[..., None])[..., 0]
    return residual.sum(axis=-1) / n, gw / n + l2 * weights


def logistic_gradient(
    intercept: float, weights: np.ndarray, X: np.ndarray, targets: np.ndarray,
    l2: float,
) -> tuple[float, np.ndarray]:
    """Analytic gradient of logistic_objective in (intercept, weights)."""
    g0, gw = _stack_logistic_gradients(
        np.full((1, 1), intercept, dtype=np.float64),
        np.asarray(weights, dtype=np.float64)[None, None],
        np.asarray(X, dtype=np.float64)[None, None],
        np.asarray(targets, dtype=np.float64)[None, None], l2,
        np.empty((3, 1, 1, len(X), 1)),
    )
    return float(g0[0, 0]), gw[0, 0]


def train_logistics(
    blocks: list, class_names: list[str], cfg: TrainConfig | None = None
) -> list[LogisticModel]:
    """Fit the one-vs-rest models of several training sets in one full-batch
    gradient-descent loop.

    `blocks` holds (X, y) pairs, X a float64 (m, n, p) array of m training
    sets and y their (m, n) class indices.  Each block descends as one
    stack; cross_validate passes one per consecutive run of folds of one
    training size.  Each (training set, class) problem descends exactly as
    it would alone: coefficients start at zero and take fixed steps until
    the gradient infinity-norm drops below the tolerance or the iteration
    limit is reached.  A problem whose gradient becomes non-finite stops;
    ValueError then names the first such problem in (training set, class)
    order at its own iteration, as fitting them one at a time would, as
    `fold F`, F the set's number in order across the blocks.
    """
    cfg = cfg or TrainConfig()
    blocks = _training_blocks(blocks, class_names, "logistic")
    rate = cfg.resolved("learning_rate", LOGISTIC_DEFAULTS)
    limit = cfg.resolved("limit", LOGISTIC_DEFAULTS)
    tolerance = cfg.resolved("tolerance", LOGISTIC_DEFAULTS)
    l2 = cfg.resolved("l2", LOGISTIC_DEFAULTS)

    k = len(class_names)
    # Per stack: its first set's number, X, targets, gradient scratch (reused,
    # as freeing ~100 KB arrays makes glibc trim the heap and fault it back
    # in each iteration), intercepts, weights and the problems descending.
    stacks = []
    firsts = np.cumsum([0] + [len(X) for X, _ in blocks])
    for first, (X, y) in zip(firsts, blocks):
        m, n, width = X.shape
        stacks.append((
            first,
            X[:, None],
            (y[:, None, :] == np.arange(k)[:, None]).astype(np.float64),
            np.empty((3, m, k, n, 1)),
            np.zeros((m, k)),
            np.zeros((m, k, width)),
            np.ones((m, k), dtype=bool),
        ))
    failures = []
    # Divergence is reported by the gradient check, not numpy warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        for iteration in range(limit):
            for first, X, targets, scratch, intercepts, weights, active in stacks:
                if not active.any():
                    continue
                g0, gw = _stack_logistic_gradients(
                    intercepts, weights, X, targets, l2, scratch
                )
                norm = np.maximum(
                    np.abs(g0), np.abs(gw).max(axis=-1, initial=0.0)
                )
                finite = np.isfinite(norm)
                for s, c in zip(*np.nonzero(active & ~finite)):
                    failures.append((first + s, c, iteration + 1))
                active &= finite & (norm >= tolerance)
                # x - 0.0 is x, so stopped problems keep their bits.
                intercepts -= np.where(active, rate * g0, 0.0)
                weights -= np.where(active[..., None], rate * gw, 0.0)
            if not any(stack[-1].any() for stack in stacks):
                break
    if failures:
        fold, c, iteration = min(failures)
        raise ValueError(
            f"fold {fold}: logistic gradient for class {class_names[c]!r} "
            f"became non-finite in iteration {iteration} of {limit}"
        )

    return [LogisticModel(list(class_names), b.copy(), w.copy())
            for *_, intercepts, weights, _ in stacks
            for b, w in zip(intercepts, weights)]


def train_logistic(ds: LabeledDataset, cfg: TrainConfig | None = None) -> LogisticModel:
    """Fit one-vs-rest logistic coefficients by full-batch gradient descent
    from zero, stopping at the gradient tolerance or the iteration limit."""
    return train_logistics([(ds.X[None], ds.y[None])], ds.class_names, cfg)[0]


# ---------------------------------------------------------------------------
# Decision tree


@dataclass
class TreeNode:
    """Internal nodes carry (feature, threshold, left, right); leaves carry
    the class-count/probability tables; every node carries its sample count."""

    n: int
    feature: int | None = None
    threshold: float | None = None
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    counts: np.ndarray | None = None
    probs: np.ndarray | None = None

    @property
    def is_leaf(self) -> bool:
        return self.feature is None


@dataclass
class TreeModel:
    class_names: list[str]
    feature_count: int
    root: TreeNode
    max_depth: int
    min_leaf: int

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Each row's leaf class-probability table.  The rows descend as
        index sets: `x[feature] <= threshold` goes left, NaN goes right."""
        X = _rows(X, self.feature_count)
        out = np.empty((len(X), len(self.class_names)))
        stack = [(self.root, np.arange(len(X)))]
        while stack:
            node, rows = stack.pop()
            if node.is_leaf:
                out[rows] = node.probs
            else:
                left = X[rows, node.feature] <= node.threshold
                stack += [(node.left, rows[left]), (node.right, rows[~left])]
        return out


def _gini_children(counts, sizes):
    """Gini impurity 1 - sum((count / size)^2) per candidate child."""
    return 1.0 - ((counts / sizes[:, None]) ** 2).sum(axis=1)


def _best_split(X, y, counts, min_leaf, parent_impurity):
    """Best (decrease, feature, threshold) over all midpoint candidates.

    A threshold is the midpoint of the two sorted values it separates, or
    the lower value when the midpoint rounds onto the upper one (adjacent
    doubles) or overflows, so `x <= threshold` always splits them.

    counts holds the node's class counts.  For each feature, the left
    children's class counts are prefix sums of one-hot rows in sorted order
    and the right children's are counts minus those, exact integers either
    way; _gini_children scores them all.
    decrease = parent - (n_l / n) * impurity_l - (n_r / n) * impurity_r.
    Ties: lowest feature index, then lowest threshold (strict > acceptance
    over ascending candidates).  Splits leaving a child below min_leaf are
    invalid.
    """
    n = X.shape[0]
    onehot = np.eye(len(counts))[y]
    best_decrease = 0.0
    best_feature = None
    best_threshold = None
    sizes_left = np.arange(1, n, dtype=np.float64)
    sizes_right = n - sizes_left
    for j in range(X.shape[1]):
        order = np.argsort(X[:, j], kind="mergesort")
        xs = X[order, j]
        distinct = xs[1:] > xs[:-1]
        valid = distinct & (sizes_left >= min_leaf) & (sizes_right >= min_leaf)
        if not valid.any():
            continue
        prefix = np.cumsum(onehot[order], axis=0)[:-1]
        decrease = (
            parent_impurity
            - (sizes_left / n) * _gini_children(prefix, sizes_left)
            - (sizes_right / n) * _gini_children(counts - prefix, sizes_right)
        )
        decrease[~valid] = -np.inf
        i = int(np.argmax(decrease))
        if decrease[i] > best_decrease:
            best_decrease = float(decrease[i])
            best_feature = j
            lo, hi = float(xs[i]), float(xs[i + 1])
            mid = (lo + hi) / 2.0
            best_threshold = mid if lo <= mid < hi else lo
    return best_decrease, best_feature, best_threshold


def _grow(X, y, k, depth, max_depth, min_leaf):
    n = X.shape[0]
    counts = np.bincount(y, minlength=k)
    leaf = TreeNode(n=n, counts=counts, probs=counts / n)
    if depth >= max_depth or int(counts.max()) == n or n < 2 * min_leaf:
        return leaf
    impurity = 1.0 - ((counts / n) ** 2).sum()
    decrease, feature, threshold = _best_split(X, y, counts, min_leaf, impurity)
    if feature is None or decrease <= 0.0:
        return leaf
    mask = X[:, feature] <= threshold
    return TreeNode(
        n=n,
        feature=feature,
        threshold=threshold,
        left=_grow(X[mask], y[mask], k, depth + 1, max_depth, min_leaf),
        right=_grow(X[~mask], y[~mask], k, depth + 1, max_depth, min_leaf),
    )


def train_tree(ds: LabeledDataset, cfg: TrainConfig | None = None) -> TreeModel:
    """Grow a classification tree by greedy Gini-decrease splitting."""
    return fit_tree(ds.X, ds.y, ds.class_names, cfg)


def fit_tree(X, y, class_names: list[str], cfg: TrainConfig | None = None) -> TreeModel:
    """train_tree on the float64 rows X and their class indices y."""
    cfg = cfg or TrainConfig()
    if len(class_names) < 2:
        raise ValueError("tree classification requires at least 2 classes")
    _check_finite(X)
    max_depth = cfg.resolved("max_depth", TREE_DEFAULTS)
    min_leaf = cfg.resolved("min_leaf", TREE_DEFAULTS)
    root = _grow(X, y, len(class_names), 0, max_depth, min_leaf)
    return TreeModel(list(class_names), X.shape[1], root, max_depth, min_leaf)


# ---------------------------------------------------------------------------
# Gaussian naive Bayes


@dataclass
class NaiveBayesModel:
    class_names: list[str]
    priors: np.ndarray
    means: np.ndarray
    variances: np.ndarray
    eps_var: float

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        X = _rows(X, self.means.shape[1])
        # log P(C) + sum_i log N(x_i; mu, var), normalized in log space.
        # Overflow is reported by the finite check below, not numpy warnings.
        with np.errstate(over="ignore", invalid="ignore"):
            log_like = -0.5 * (
                np.log(2.0 * np.pi * self.variances)[None, :, :]
                + (X[:, None, :] - self.means[None, :, :]) ** 2
                / self.variances[None, :, :]
            ).sum(axis=2)
        bad = np.flatnonzero(~np.isfinite(log_like.max(axis=1)))
        if bad.size:
            raise ValueError(
                f"naive Bayes class log-likelihoods of row {bad[0]} are not finite"
            )
        log_post = np.log(self.priors)[None, :] + log_like
        log_post -= log_post.max(axis=1, keepdims=True)
        post = np.exp(log_post)
        return post / post.sum(axis=1, keepdims=True)


def train_naive_bayes(ds: LabeledDataset) -> NaiveBayesModel:
    """Estimate priors and per-class per-feature Gaussians.

    Variances are population (divisor n) and floored at
    eps_var = 1e-9 * max over features of the total population variance
    (that maximum itself floored at 1e-12), so constant features never
    produce degenerate densities.  A mean or variance that overflows raises
    ValueError naming the feature and class.
    """
    return fit_naive_bayes(ds.X, ds.y, ds.class_names)


def fit_naive_bayes(X, y, class_names: list[str]) -> NaiveBayesModel:
    """train_naive_bayes on the float64 rows X and their class indices y."""
    if len(class_names) < 2:
        raise ValueError("naive Bayes requires at least 2 classes")
    _check_finite(X)
    k = len(class_names)
    n, p = X.shape
    counts = np.bincount(y, minlength=k)
    if int(counts.min()) == 0:
        raise ValueError("every class needs at least one sample")
    means = np.empty((k, p))
    variances = np.empty((k, p))
    # Overflow is reported by the finite checks below, not numpy warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        spread = X.var(axis=0)
        for c in range(k):
            rows = X[y == c]
            means[c] = rows.mean(axis=0)
            variances[c] = rows.var(axis=0)
    bad = np.argwhere(~(np.isfinite(means) & np.isfinite(variances)))
    if bad.size:
        c, j = bad[0]
        raise ValueError(
            f"naive Bayes mean or variance of feature {j} for class "
            f"{class_names[c]!r} is not finite"
        )
    bad = np.flatnonzero(~np.isfinite(spread))
    if bad.size:
        raise ValueError(
            f"naive Bayes variance of feature {bad[0]} over all classes is "
            "not finite"
        )
    eps_var = 1e-9 * max(float(spread.max()), 1e-12)
    variances = np.maximum(variances, eps_var)
    return NaiveBayesModel(list(class_names), counts / n, means, variances,
                           eps_var)


# ---------------------------------------------------------------------------
# Multilayer perceptron


@dataclass
class MlpModel:
    """Feed-forward network; weights[l] has shape (out, in) so layer l maps
    a_prev -> activation(weights[l] @ a_prev + biases[l])."""

    class_names: list[str]
    layer_sizes: list[int]
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    activation: str

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        a = _rows(X, self.layer_sizes[0])
        for l in range(len(self.weights) - 1):
            a = _activate(a @ self.weights[l].T + self.biases[l], self.activation)
        z = a @ self.weights[-1].T + self.biases[-1]
        z -= z.max(axis=1, keepdims=True)
        e = np.exp(z)
        return e / e.sum(axis=1, keepdims=True)


def _activate(z, kind):
    if kind == "relu":
        return np.maximum(z, 0.0)
    if kind == "sigmoid":
        return sigmoid(z)
    return np.tanh(z)


def _activation_grad(z, a, kind):
    # Derivative expressed from pre-activation z and activation a.
    if kind == "relu":
        return (z > 0.0).astype(np.float64)
    if kind == "sigmoid":
        return a * (1.0 - a)
    return 1.0 - a ** 2


def init_mlp(
    class_names: list[str], layer_sizes: list[int], activation: str,
    rng: SplitMix64,
) -> MlpModel:
    """Seeded initialization: each layer's weights are drawn row-major as
    (2 u - 1) / sqrt(fan_in) from the shared SplitMix64 stream; biases 0."""
    weights = []
    biases = []
    for fan_in, fan_out in zip(layer_sizes, layer_sizes[1:]):
        draws = rng.uniforms(fan_out * fan_in).reshape(fan_out, fan_in)
        weights.append((2.0 * draws - 1.0) / math.sqrt(fan_in))
        biases.append(np.zeros(fan_out))
    return MlpModel(class_names, list(layer_sizes), weights, biases, activation)


# Networks train and backpropagate as stacks: weights[l] has shape
# (m, out, in), and biases and activations are column stacks (m, size, 1).
# np.matmul makes one BLAS gemv per network, the same call as an unstacked
# W @ a, and every other op is elementwise or reduces within one network,
# so each network in a stack gets exactly the bits it would get alone.


def _stack_forward(weights, biases, x, kind):
    """Layer inputs, hidden pre-activations and softmax outputs (row max
    subtracted for stability) of a stack for the column stack `x`."""
    activations = [x]
    pre_activations = []
    a = x
    for l in range(len(weights) - 1):
        z = weights[l] @ a + biases[l]
        a = _activate(z, kind)
        pre_activations.append(z)
        activations.append(a)
    z = weights[-1] @ a + biases[-1]
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return activations, pre_activations, e / e.sum(axis=1, keepdims=True)


def _stack_gradients(weights, activations, pre_activations, delta, l2, kind):
    """Backpropagate the output delta (softmax output minus one-hot target)
    through a stack; each weight gradient adds the l2 * W penalty term."""
    grads_w = [None] * len(weights)
    grads_b = [None] * len(weights)
    for l in range(len(weights) - 1, -1, -1):
        grads_w[l] = delta * activations[l].transpose(0, 2, 1)
        grads_w[l] += l2 * weights[l]
        grads_b[l] = delta
        if l > 0:
            delta = (weights[l].transpose(0, 2, 1) @ delta) * _activation_grad(
                pre_activations[l - 1], activations[l], kind
            )
    return grads_w, grads_b


def _sample_forward(model: MlpModel, x):
    """`model`'s weights as a one-network stack of views, and that stack's
    `_stack_forward` outputs for the single sample x."""
    weights = [w[None] for w in model.weights]
    biases = [b[None, :, None] for b in model.biases]
    x = np.asarray(x, dtype=np.float64)
    return weights, *_stack_forward(weights, biases, x[None, :, None],
                                    model.activation)


def mlp_loss(model: MlpModel, x, class_index: int, l2: float) -> float:
    """Per-sample objective: cross-entropy of the softmax output plus
    (l2 / 2) * sum of squared weights (biases unpenalized)."""
    *_, probs = _sample_forward(model, x)
    p = probs[0, class_index, 0]
    ce = -math.log(float(np.clip(p, PROB_CLIP, 1.0 - PROB_CLIP)))
    penalty = 0.5 * l2 * sum(float((w ** 2).sum()) for w in model.weights)
    return ce + penalty


def mlp_gradients(model: MlpModel, x, class_index: int, l2: float):
    """Backpropagated gradient of mlp_loss at one sample.

    Softmax + cross-entropy gives output delta = probs - onehot; hidden
    deltas chain through the activation derivative; each weight gradient
    adds the l2 * W penalty term.
    """
    weights, activations, pre_activations, probs = _sample_forward(model, x)
    delta = probs.copy()
    delta[0, class_index, 0] -= 1.0
    grads_w, grads_b = _stack_gradients(
        weights, activations, pre_activations, delta, l2, model.activation
    )
    return [g[0] for g in grads_w], [g[0, :, 0] for g in grads_b]


def cross_entropy_loss(predicted, actual: str, class_names: list[str]) -> float:
    """-log of the probability assigned to the actual class, clipped to
    [1e-15, 1 - 1e-15]."""
    return cross_entropy_losses([predicted], [actual], class_names)[0]


def cross_entropy_losses(table, actual, class_names: list[str]) -> list:
    """cross_entropy_loss of each row of a probability_table."""
    p, y = probability_table(table, actual, class_names)
    return [-math.log(min(max(v, PROB_CLIP), 1.0 - PROB_CLIP))
            for v in p[np.arange(y.size), y].tolist()]


def probability_table(table, actual, class_names: list[str]):
    """(p, y): table as float64 rows, one per actual label and one column
    per class, and each label's column.  The first row whose sum is off 1
    or whose label is unknown raises, its sum checked first."""
    p = np.asarray(table, dtype=np.float64)
    if p.ndim != 2 or p.shape[1] != len(class_names):
        raise ValueError(f"score table of shape {p.shape} needs one column "
                         f"per class ({len(class_names)})")
    if len(actual) != p.shape[0]:
        raise ValueError("scores and labels must have equal length")
    y = class_indices(actual, class_names)
    # Written as `not <=`, so a NaN row fails the check too.
    bad_sum = ~(np.abs(p.sum(axis=1) - 1.0) <= 1e-9)
    bad = np.flatnonzero(bad_sum | (y < 0))
    if bad.size and bad_sum[bad[0]]:
        raise ValueError("probability rows must sum to 1")
    if bad.size:
        raise ValueError(f"unknown actual label {actual[bad[0]]!r}")
    return p, y


def train_mlps(
    blocks: list, class_names: list[str], cfg: TrainConfig | None = None
) -> list[MlpModel]:
    """Train one network per training set, all in one per-sample SGD loop.

    `blocks` are (X, y) pairs as for train_logistics.  Each network trains
    exactly as it would alone: seeded init, per-epoch Fisher-Yates shuffle
    from the same SplitMix64 stream, one backprop update per row.  Every
    step updates all networks that still have a row left in the current
    epoch with one batched op per layer.  The weights are checked once per
    epoch: a non-finite value raises ValueError naming the epoch and the
    first diverged training set as `fold F`, F its number across the blocks.
    """
    cfg = cfg or TrainConfig()
    blocks = _training_blocks(blocks, class_names, "MLP")
    sets = [pair for X, y in blocks for pair in zip(X, y)]
    rate = cfg.resolved("learning_rate", MLP_DEFAULTS)
    limit = cfg.resolved("limit", MLP_DEFAULTS)
    l2 = cfg.resolved("l2", MLP_DEFAULTS)
    hidden = cfg.resolved("hidden", MLP_DEFAULTS)
    activation = cfg.resolved("activation", MLP_DEFAULTS)

    sizes = [blocks[0][0].shape[2], *hidden, len(class_names)]
    rng = SplitMix64(cfg.seed)
    init = init_mlp(list(class_names), sizes, activation, rng)

    # Slots hold the networks largest training set first, so the networks
    # with a row left at step t of an epoch are always slots [:m].
    order = sorted(range(len(sets)), key=lambda i: -len(sets[i][1]))
    counts = [len(sets[i][1]) for i in order]
    k = len(order)
    longest = counts[0]
    # A network's shuffles depend only on its row count, so networks of
    # equal size share one stream, each starting where init left the rng.
    streams = {n: SplitMix64(rng.state) for n in counts}
    # Runs of steps [start, stop) over which m networks are active.
    segments = []
    for t in range(longest):
        m = sum(n > t for n in counts)
        if segments and segments[-1][0] == m:
            segments[-1][2] = t + 1
        else:
            segments.append([m, t, t + 1])

    weights = [np.repeat(w[None], k, axis=0) for w in init.weights]
    biases = [np.repeat(b[None, :, None], k, axis=0) for b in init.biases]
    # inputs[t, s] and targets[t, s] hold slot s's row at step t of an epoch.
    inputs = np.zeros((longest, k, sizes[0], 1))
    targets = np.zeros((longest, k, len(class_names), 1))
    onehot = np.eye(len(class_names))
    # Divergence is reported by the per-epoch check, not numpy warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(limit):
            shuffles = {n: shuffled_indices(n, s) for n, s in streams.items()}
            for slot, (X, y) in enumerate(sets[i] for i in order):
                rows = shuffles[counts[slot]]
                inputs[:counts[slot], slot, :, 0] = X[rows]
                targets[:counts[slot], slot, :, 0] = onehot[y[rows]]
            for m, start, stop in segments:
                ws = [w[:m] for w in weights]
                bs = [b[:m] for b in biases]
                steps = zip(inputs[start:stop, :m], targets[start:stop, :m])
                for x, target in steps:
                    activations, pre_activations, probs = _stack_forward(
                        ws, bs, x, activation
                    )
                    grads_w, grads_b = _stack_gradients(
                        ws, activations, pre_activations, probs - target, l2,
                        activation,
                    )
                    for w, g in zip(ws, grads_w):
                        g *= rate
                        w -= g
                    for b, g in zip(bs, grads_b):
                        b -= rate * g
            finite = np.ones(k, dtype=bool)
            for p in (*weights, *biases):
                finite &= np.isfinite(p).all(axis=(1, 2))
            if not finite.all():
                fold = min(order[s] for s in np.flatnonzero(~finite))
                raise ValueError(
                    f"fold {fold}: MLP weights became non-finite in epoch "
                    f"{epoch + 1} of {limit}"
                )

    models = [None] * k
    for slot, i in enumerate(order):
        models[i] = MlpModel(
            list(class_names), list(sizes), [w[slot].copy() for w in weights],
            [b[slot, :, 0].copy() for b in biases], activation,
        )
    return models


def train_mlp(ds: LabeledDataset, cfg: TrainConfig | None = None) -> MlpModel:
    """Train by per-sample SGD: seeded init, per-epoch Fisher-Yates shuffle
    from the same SplitMix64 stream, one backprop update per row."""
    return train_mlps([(ds.X[None], ds.y[None])], ds.class_names, cfg)[0]


# ---------------------------------------------------------------------------
# JSON export


def _node_to_dict(node: TreeNode) -> dict:
    if node.is_leaf:
        return {
            "n": node.n,
            "counts": [int(c) for c in node.counts],
            "probs": [float(p) for p in node.probs],
        }
    return {
        "n": node.n,
        "feature": int(node.feature),
        "threshold": float(node.threshold),
        "left": _node_to_dict(node.left),
        "right": _node_to_dict(node.right),
    }


def model_to_json(model) -> str:
    """Self-describing JSON for any trained model; reals carry 17
    significant digits, so the document holds every bit of the model."""
    if isinstance(model, LogisticModel):
        doc = {
            "kind": "logistic",
            "classes": model.class_names,
            "intercepts": model.intercepts.tolist(),
            "coefficients": model.coefficients.tolist(),
        }
    elif isinstance(model, TreeModel):
        doc = {
            "kind": "tree",
            "criterion": "gini",
            "classes": model.class_names,
            "feature_count": model.feature_count,
            "max_depth": model.max_depth,
            "min_leaf": model.min_leaf,
            "root": _node_to_dict(model.root),
        }
    elif isinstance(model, NaiveBayesModel):
        doc = {
            "kind": "naive_bayes",
            "classes": model.class_names,
            "priors": model.priors.tolist(),
            "means": model.means.tolist(),
            "variances": model.variances.tolist(),
            "eps_var": float(model.eps_var),
        }
    elif isinstance(model, MlpModel):
        doc = {
            "kind": "mlp",
            "classes": model.class_names,
            "activation": model.activation,
            "layer_sizes": model.layer_sizes,
            "weights": [w.tolist() for w in model.weights],
            "biases": [b.tolist() for b in model.biases],
        }
    else:
        raise TypeError(f"unknown model type {type(model).__name__}")
    return render_json(doc) + "\n"

"""Cross-validated metric suite, confusion matrices, pairwise comparisons.

The evaluator trains every requested model on the identical fold assignment
and pools out-of-fold probability predictions.  Pooled predictions feed the
confusion matrix and the headline metric suite; per-fold scores feed the
pairwise model-comparison matrices (fraction of folds where the row model's
value is higher, ties counted half; for log loss, higher is worse).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby

import numpy as np

from . import classifiers
from .classifiers import TrainConfig
from .dataset import FoldAssignment, LabeledDataset, class_indices
from .features import NormalizationParams
from .fmt import csv_line, fmt17, write_csv
from .parallel import split_map

METRIC_NAMES = (
    "auc", "ca", "f1", "precision", "recall", "specificity", "mcc", "log_loss"
)

# Metrics that get a pairwise fold-win comparison table.
COMPARISON_METRICS = (
    "auc", "ca", "f1", "precision", "recall", "specificity", "log_loss"
)

MODEL_KINDS = ("tree", "nb", "logreg", "mlp")


class ProtocolError(ValueError):
    """A fold holds no rows or its training part is missing a class, so the
    fold cannot be evaluated under the shared protocol."""


class RSquaredUndefinedError(ValueError):
    """SST is zero: R^2 has no defined value.  SSE/SST are attached."""

    def __init__(self, sse: float, sst: float):
        super().__init__("R^2 undefined: total sum of squares is zero")
        self.sse = sse
        self.sst = sst


@dataclass
class ConfusionMatrix:
    """counts[i][j] = examples of actual class i predicted as class j."""

    classes: list[str]
    counts: np.ndarray

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.int64)
        k = len(self.classes)
        if self.counts.shape != (k, k):
            raise ValueError("counts must be square over the class list")
        if np.any(self.counts < 0):
            raise ValueError("counts must be nonnegative")

    @property
    def n(self) -> int:
        return int(self.counts.sum())

    @property
    def proportions(self) -> np.ndarray:
        """Rows normalized to sum 1; empty rows stay all zero."""
        totals = self.counts.sum(axis=1, keepdims=True)
        out = np.zeros(self.counts.shape)
        nonzero = totals[:, 0] > 0
        out[nonzero] = self.counts[nonzero] / totals[nonzero]
        return out


def confusion_matrix(actual, predicted, classes: list[str]) -> ConfusionMatrix:
    if len(actual) != len(predicted):
        raise ValueError("actual and predicted must have equal length")
    a = class_indices(actual, classes)
    p = class_indices(predicted, classes)
    bad = np.flatnonzero((a < 0) | (p < 0))
    if bad.size and a[bad[0]] < 0:
        raise ValueError(f"unknown actual label {actual[bad[0]]!r}")
    if bad.size:
        raise ValueError(f"unknown predicted label {predicted[bad[0]]!r}")
    k = len(classes)
    counts = np.bincount(a * k + p, minlength=k * k).reshape(k, k)
    return ConfusionMatrix(list(classes), counts)


@dataclass
class ClassificationMetrics:
    ca: float
    precision: float
    recall: float
    f1: float
    specificity: float
    mcc: float


def classification_metrics(cm: ConfusionMatrix) -> ClassificationMetrics:
    """Support-weighted one-vs-rest metrics plus the multiclass MCC.

    Per class: precision TP/(TP+FP), recall TP/(TP+FN), specificity
    TN/(TN+FP), F1 the harmonic mean of precision and recall; every
    zero-denominator case scores 0.  The reported values weight each class
    by its actual count.  MCC uses the covariance (R_K) form with an exact
    integer numerator; a zero denominator scores 0.
    """
    counts = cm.counts
    n = int(counts.sum())
    if n < 1:
        raise ValueError("metrics of an empty confusion matrix are undefined")
    k = len(cm.classes)
    trace = int(np.trace(counts))
    ca = trace / n

    actual_totals = counts.sum(axis=1)
    predicted_totals = counts.sum(axis=0)
    precision = recall = f1 = specificity = 0.0
    for c in range(k):
        tp = int(counts[c, c])
        fp = int(predicted_totals[c]) - tp
        fn = int(actual_totals[c]) - tp
        tn = n - tp - fp - fn
        prec_c = tp / (tp + fp) if tp + fp > 0 else 0.0
        rec_c = tp / (tp + fn) if tp + fn > 0 else 0.0
        spec_c = tn / (tn + fp) if tn + fp > 0 else 0.0
        f1_c = (
            2.0 * prec_c * rec_c / (prec_c + rec_c)
            if prec_c + rec_c > 0 else 0.0
        )
        weight = int(actual_totals[c]) / n
        precision += weight * prec_c
        recall += weight * rec_c
        specificity += weight * spec_c
        f1 += weight * f1_c

    # R_K covariance form, numerator in exact integer arithmetic.
    numerator = trace * n - int(
        sum(int(predicted_totals[c]) * int(actual_totals[c]) for c in range(k))
    )
    d_pred = n * n - int(sum(int(t) ** 2 for t in predicted_totals))
    d_actual = n * n - int(sum(int(t) ** 2 for t in actual_totals))
    if d_pred == 0 or d_actual == 0:
        mcc = 0.0
    else:
        mcc = numerator / (math.sqrt(d_pred) * math.sqrt(d_actual))
    return ClassificationMetrics(ca, precision, recall, f1, specificity, mcc)


def _rank_auc(scores: np.ndarray, positive: np.ndarray) -> float:
    """One-vs-rest AUC via the rank statistic with average ranks for ties;
    equals (concordant pairs + 0.5 * tied pairs) / (P * N) exactly."""
    order = np.argsort(scores, kind="mergesort")
    sorted_scores = scores[order]
    # Each run of tied scores, first..last, shares the rank (first+last)/2+1.
    first = np.flatnonzero(np.r_[True, sorted_scores[1:] != sorted_scores[:-1]])
    last = np.r_[first[1:], scores.size] - 1
    ranks = np.empty(scores.size)
    ranks[order] = np.repeat((first + last) / 2.0 + 1.0, last - first + 1)
    p = int(positive.sum())
    n_neg = scores.size - p
    rank_sum = float(ranks[positive].sum())
    return (rank_sum - p * (p + 1) / 2.0) / (p * n_neg)


def auc(scores, actual, classes: list[str]) -> float:
    """Support-weighted mean of per-class one-vs-rest AUCs.

    Classes lacking either a positive or a negative example are skipped;
    if no class is valid the AUC is undefined and an error is raised.
    """
    scores, y = classifiers.probability_table(scores, actual, classes)
    if not y.size:
        raise ValueError("AUC of an empty table is undefined")
    total_support = 0
    weighted = 0.0
    for c in range(len(classes)):
        positive = y == c
        p = int(positive.sum())
        if p == 0 or p == y.size:
            continue
        weighted += p * _rank_auc(scores[:, c], positive)
        total_support += p
    if total_support == 0:
        raise ValueError("AUC undefined: all examples carry one label")
    return weighted / total_support


def mean_log_loss(scores, actual, classes: list[str]) -> float:
    """Mean clipped cross-entropy of the actual class probabilities."""
    losses = classifiers.cross_entropy_losses(scores, actual, classes)
    if not losses:
        raise ValueError("log loss of an empty table is undefined")
    return float(np.mean(losses))


def regression_errors(actual, predicted) -> tuple[float, float, float]:
    """SSE, SST, and R^2 = 1 - SSE/SST.

    SST = 0 (constant actuals) makes R^2 undefined and raises
    RSquaredUndefinedError carrying the SSE/SST values.
    """
    y = np.asarray(actual, dtype=np.float64)
    yhat = np.asarray(predicted, dtype=np.float64)
    if y.size == 0 or y.shape != yhat.shape:
        raise ValueError("actual and predicted must be nonempty equal-length")
    for name, values in (("actual", y), ("predicted", yhat)):
        if not np.all(np.isfinite(values)):
            raise ValueError(f"{name} values must be finite")
    sse = float(((y - yhat) ** 2).sum())
    sst = float(((y - y.mean()) ** 2).sum())
    if sst == 0.0:
        raise RSquaredUndefinedError(sse, sst)
    return sse, sst, 1.0 - sse / sst


@dataclass
class MetricSuite:
    auc: float
    ca: float
    f1: float
    precision: float
    recall: float
    specificity: float
    mcc: float
    log_loss: float


@dataclass
class FoldScores:
    """One model's per-fold values for one metric."""

    model: str
    metric: str
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if not np.all(np.isfinite(self.values)):
            raise ValueError("fold scores must be finite")


@dataclass
class ModelSpec:
    """A learner to evaluate: display name, kind tag, hyperparameters."""

    name: str
    kind: str
    config: TrainConfig | None = None

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")


def train_folds(spec: ModelSpec, blocks: list, class_names: list[str]) -> list:
    """One model per training set of the (X, y) blocks, which cross_validate
    makes of consecutive runs of folds; the networks of an mlp spec train in
    one lockstep loop, and the one-vs-rest problems of a logreg spec descend
    as one stack per block.  A training error names `fold F`, F the set's
    number across the blocks."""
    if spec.kind == "mlp":
        return classifiers.train_mlps(blocks, class_names, spec.config)
    if spec.kind == "logreg":
        return classifiers.train_logistics(blocks, class_names, spec.config)
    models = []
    slots = (pair for X, y in blocks for pair in zip(X, y))
    for f, (X, y) in enumerate(slots):
        try:
            if spec.kind == "tree":
                models.append(classifiers.fit_tree(X, y, class_names, spec.config))
            else:
                models.append(classifiers.fit_naive_bayes(X, y, class_names))
        except ValueError as exc:
            raise ValueError(f"fold {f}: {exc}") from exc
    return models


@dataclass
class EvaluationReport:
    """Everything cmd-level output needs: pooled suites and confusions,
    per-fold scores, and the raw out-of-fold probabilities."""

    model_names: list[str]
    class_names: list[str]
    ids: list[str]
    actual: list[str]
    folds: FoldAssignment
    suites: dict
    confusions: dict
    fold_scores: dict
    oof_probs: dict
    predicted: dict


def _score(probs, actual, predicted, classes: list[str]):
    """The metric suite and confusion matrix of one set of rows."""
    cm = confusion_matrix(actual, predicted, classes)
    m = classification_metrics(cm)
    return MetricSuite(
        auc=auc(probs, actual, classes),
        ca=m.ca, f1=m.f1, precision=m.precision, recall=m.recall,
        specificity=m.specificity, mcc=m.mcc,
        log_loss=mean_log_loss(probs, actual, classes),
    ), cm


def cross_validate(
    ds: LabeledDataset, specs: list[ModelSpec], folds: FoldAssignment
) -> EvaluationReport:
    """Train/predict every model over the shared fold assignment.

    For each fold: columns are z-scored with statistics fitted on the
    training part only (reused on the held-out rows, so no information
    leaks across the split), every model trains on the standardized
    training part, and probabilities are predicted on the standardized
    fold.  Argmax ties resolve to the earliest class.  Raises
    ProtocolError naming the fold if it holds no rows or its training part
    misses a class, and ValueError naming the model if its training fails.
    """
    if len(ds.class_names) < 2:
        raise ValueError("cross-validation requires at least 2 classes")
    if folds.fold_of.size != ds.n:
        raise ValueError("fold assignment does not match dataset size")
    names = [spec.name for spec in specs]
    if len(set(names)) != len(names):
        raise ValueError("model names must be unique")

    train_idx = [folds.train_indices(f) for f in range(folds.k)]
    test_idx = [folds.test_indices(f) for f in range(folds.k)]
    for f, idx in enumerate(train_idx):
        if not test_idx[f].size:
            raise ProtocolError(f"fold {f} holds no rows")
        counts = np.bincount(ds.y[idx], minlength=len(ds.class_names))
        missing = np.flatnonzero(counts == 0)
        if missing.size:
            raise ProtocolError(
                f"fold {f} training part is missing class "
                f"{ds.class_names[missing[0]]!r}"
            )

    def fold_probabilities(fold_range):
        """Per model, the held-out probability table of each fold in
        fold_range.  Each consecutive run of folds with training parts of one
        size is one (parts, n, p) block, its slots z-scored in place: the one
        copy that every model reads and one stack of train_logistics.  Each
        model trains on every part and then predicts."""
        blocks = []
        held_out = []
        for _, run in groupby(fold_range, key=lambda f: train_idx[f].size):
            run = list(run)
            rows = np.array([train_idx[f] for f in run])
            blocks.append((np.take(ds.X, rows, axis=0), ds.y[rows]))
            for f, slot in zip(run, blocks[-1][0]):
                params = NormalizationParams(slot.mean(axis=0), slot.std(axis=0))
                params.apply(slot, out=slot)
                test = ds.X[test_idx[f]]
                held_out.append(params.apply(test, out=test))
        tables = []
        for spec in specs:
            try:
                models = train_folds(spec, blocks, ds.class_names)
            except ValueError as exc:
                raise ValueError(f"model {spec.name!r}: {exc}") from exc
            tables.append([model.predict_proba(rows)
                           for model, rows in zip(models, held_out)])
        return tables

    # The two fold halves run in split_map's worker and here, so neither
    # process holds the other's training parts.  A failed half names its
    # folds from 0, so the folds then rerun here in full.
    half = folds.k // 2
    try:
        first, second = split_map(
            fold_probabilities, [range(half), range(half, folds.k)])
        tables = [a + b for a, b in zip(first, second)]
    except ValueError:
        tables = fold_probabilities(range(folds.k))

    classes = list(ds.class_names)
    actual = list(ds.matrix.labels)
    suites = {}
    confusions = {}
    fold_scores = {}
    oof = {}
    predicted_labels = {}
    for spec, fold_tables in zip(specs, tables):
        probs = np.zeros((ds.n, len(classes)))
        for idx, table in zip(test_idx, fold_tables):
            probs[idx] = table
        predicted = [classes[c] for c in probs.argmax(axis=1)]
        suites[spec.name], confusions[spec.name] = _score(
            probs, actual, predicted, classes)
        oof[spec.name] = probs
        predicted_labels[spec.name] = predicted

        per_fold = [_score(probs[idx], [actual[i] for i in idx],
                           [predicted[i] for i in idx], classes)[0]
                    for idx in test_idx]
        for name in METRIC_NAMES:
            fold_scores[(spec.name, name)] = FoldScores(
                spec.name, name, [getattr(suite, name) for suite in per_fold]
            )

    return EvaluationReport(
        model_names=names, class_names=classes, ids=list(ds.matrix.ids),
        actual=actual, folds=folds, suites=suites, confusions=confusions,
        fold_scores=fold_scores, oof_probs=oof, predicted=predicted_labels,
    )


def compare_models(fold_scores: list[FoldScores]) -> tuple[list[str], np.ndarray]:
    """Pairwise fold-win matrix: entry (A, B) = (wins + 0.5 ties) / k.

    A wins a fold when its value is higher than B's, whatever the metric:
    for log loss, entry (A, B) counts the folds where A did worse.
    Computed once per unordered pair and mirrored as 1 - p, so
    entry(A, B) + entry(B, A) = 1 holds exactly.  Diagonal entries are NaN
    (rendered empty in CSV output).
    """
    if not fold_scores:
        raise ValueError("no fold scores given")
    metric = fold_scores[0].metric
    k = fold_scores[0].values.size
    for fs in fold_scores:
        if fs.metric != metric:
            raise ValueError("all models must share the compared metric")
        if fs.values.size != k:
            raise ValueError("all models must share the fold count k")
    if k == 0:
        raise ValueError("fold scores hold no folds")
    names = [fs.model for fs in fold_scores]
    matrix = np.full((len(names), len(names)), np.nan)
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            a = fold_scores[i].values
            b = fold_scores[j].values
            wins = int((a > b).sum())
            ties = int((a == b).sum())
            p = (wins + 0.5 * ties) / k
            matrix[i, j] = p
            matrix[j, i] = 1.0 - p
    return names, matrix


# ---------------------------------------------------------------------------
# CSV writers


def write_report_csv(report: EvaluationReport, path, metadata=None) -> None:
    """`model,auc,ca,f1,precision,recall,mcc,specificity,log_loss` rows."""
    header = ["model", "auc", "ca", "f1", "precision", "recall", "mcc",
              "specificity", "log_loss"]
    lines = (
        csv_line([name], [getattr(report.suites[name], metric)
                          for metric in header[1:]])
        for name in report.model_names
    )
    write_csv(path, header, lines, metadata)


def write_confusion_csv(cm: ConfusionMatrix, path, metadata=None) -> None:
    """Counts block then row-proportion block, class names as headers."""
    proportions = cm.proportions
    lines = [
        *(csv_line([name, *cm.counts[i].tolist()])
          for i, name in enumerate(cm.classes)),
        csv_line(["proportions", *cm.classes]),
        *(csv_line([name], proportions[i])
          for i, name in enumerate(cm.classes)),
    ]
    write_csv(path, ["counts", *cm.classes], lines, metadata)


def write_predictions_csv(
    report: EvaluationReport, model_name: str, path, metadata=None
) -> None:
    """`id,fold,actual,predicted,p_<class>...` pooled out-of-fold rows."""
    probs = report.oof_probs[model_name]
    predicted = report.predicted[model_name]
    header = ["id", "fold", "actual", "predicted",
              *(f"p_{c}" for c in report.class_names)]
    lines = (
        csv_line([row_id, int(report.folds.fold_of[i]), report.actual[i],
                  predicted[i]], probs[i])
        for i, row_id in enumerate(report.ids)
    )
    write_csv(path, header, lines, metadata)


def write_fold_scores_csv(report: EvaluationReport, path, metadata=None) -> None:
    """One row per (model, metric) with k per-fold value columns."""
    header = ["model", "metric", *(f"fold{j}" for j in range(report.folds.k))]
    lines = (
        csv_line([name, metric], report.fold_scores[(name, metric)].values)
        for name in report.model_names for metric in METRIC_NAMES
    )
    write_csv(path, header, lines, metadata)


def write_comparison_csv(
    names: list[str], matrix: np.ndarray, path, metadata=None
) -> None:
    """Square fold-win table; the diagonal is left empty."""
    rows = (
        [name, *("" if i == j else fmt17(matrix[i, j])
                 for j in range(len(names)))]
        for i, name in enumerate(names)
    )
    write_csv(path, ["model", *names], map(csv_line, rows), metadata)

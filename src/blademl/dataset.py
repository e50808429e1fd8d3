"""Labeled feature datasets and deterministic stratified k-fold splitting."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .features import FeatureMatrix, read_features_csv
from .fmt import write_csv
from .rng import SplitMix64, shuffled_indices


def class_indices(labels, class_names: list[str]) -> np.ndarray:
    """Each label's column in class_names, or -1 if it names none."""
    column = {name: c for c, name in enumerate(class_names)}
    if len(column) != len(class_names):
        raise ValueError("class names must be unique")
    return np.array([column.get(a, -1) for a in labels], dtype=np.intp)


@dataclass
class LabeledDataset:
    """Feature matrix with labels plus the class-name order used everywhere
    downstream (first-appearance order unless given explicitly)."""

    matrix: FeatureMatrix
    class_names: list[str]

    def __post_init__(self):
        labels = self.matrix.labels
        if labels is None:
            raise ValueError("labeled dataset requires a label column")
        self._y = class_indices(labels, self.class_names)
        unknown = np.flatnonzero(self._y < 0)
        if unknown.size:
            i = unknown[0]
            raise ValueError(f"row {i} label {labels[i]!r} not in class names")

    @classmethod
    def from_matrix(cls, m: FeatureMatrix) -> "LabeledDataset":
        if "" in (m.labels or ()):
            raise ValueError("labeled dataset requires nonempty labels")
        return cls(m, list(dict.fromkeys(m.labels or ())))

    @property
    def n(self) -> int:
        return self.matrix.n

    @property
    def X(self) -> np.ndarray:
        return self.matrix.values

    @property
    def y(self) -> np.ndarray:
        """Integer class index per row, aligned with class_names."""
        return self._y

    def subset(self, indices: np.ndarray) -> "LabeledDataset":
        """Row subset preserving this dataset's class-name order."""
        indices = np.asarray(indices)
        m = self.matrix
        sub = FeatureMatrix(
            [m.ids[i] for i in indices],
            [m.labels[i] for i in indices],
            m.columns,
            m.values[indices],
        )
        return LabeledDataset(sub, self.class_names)


def load_labeled_csv(path, value_columns: bool = True) -> LabeledDataset:
    """Load a features CSV whose label column is fully populated.

    read_features_csv(path, value_columns) checks the file; rows keep file
    order, and class names are recorded in first-appearance order.
    """
    m = read_features_csv(path, value_columns)
    if m.labels is None:
        raise ValueError(f"{path}: empty label column")
    if "" in m.labels:
        raise ValueError(f"{path}: empty label on data row {m.labels.index('') + 1}")
    return LabeledDataset.from_matrix(m)


@dataclass
class FoldAssignment:
    """Fold index per row for k-fold cross-validation."""

    k: int
    fold_of: np.ndarray
    seed: int

    def __post_init__(self):
        self.fold_of = np.asarray(self.fold_of, dtype=np.int64)
        if self.k < 2:
            raise ValueError("fold count must be at least 2")
        if self.fold_of.size and (
            self.fold_of.min() < 0 or self.fold_of.max() >= self.k
        ):
            raise ValueError("fold indices must lie in [0, k)")

    def test_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.fold_of == fold)

    def train_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.fold_of != fold)


def stratified_kfold(ds: LabeledDataset, k: int, seed: int) -> FoldAssignment:
    """Deterministic stratified split: per class (in class-name order), row
    indices are Fisher-Yates shuffled with one shared SplitMix64 stream and
    dealt round-robin to folds 0..k-1, so per-fold class counts differ from
    class_total / k by at most 1."""
    counts = np.bincount(ds.y, minlength=len(ds.class_names))
    smallest = int(counts.min())
    if k < 2:
        raise ValueError("fold count must be at least 2")
    if k > smallest:
        raise ValueError(
            f"k={k} exceeds the smallest class count ({smallest})"
        )
    rng = SplitMix64(seed)
    fold_of = np.empty(ds.n, dtype=np.int64)
    for c in range(len(ds.class_names)):
        class_rows = np.flatnonzero(ds.y == c)
        perm = shuffled_indices(len(class_rows), rng)
        for position, p in enumerate(perm):
            fold_of[class_rows[p]] = position % k
    return FoldAssignment(k, fold_of, seed)


def write_folds_csv(
    assignment: FoldAssignment, ids: list[str], path, metadata: dict | None = None
) -> None:
    """Export `id,fold` rows for auditability."""
    if len(ids) != assignment.fold_of.size:
        raise ValueError("ids and fold assignment must have equal length")
    rows = ([row_id, int(fold)] for row_id, fold in zip(ids, assignment.fold_of))
    write_csv(path, ["id", "fold"], rows, metadata)

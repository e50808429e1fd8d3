"""Labeled dataset loading and stratified k-fold behavior."""

import numpy as np
import pytest

from blademl.dataset import (
    FoldAssignment,
    LabeledDataset,
    load_labeled_csv,
    stratified_kfold,
    write_folds_csv,
)
from blademl.features import FeatureMatrix

from oracles import splitmix64_stream, uniform_from_u64


def _matrix(labels, values=None):
    n = len(labels)
    if values is None:
        values = np.arange(n, dtype=np.float64)[:, None]
    return FeatureMatrix(
        [f"r{i}" for i in range(n)], list(labels), ["c0"], values
    )


def _dataset(labels, values=None):
    return LabeledDataset.from_matrix(_matrix(labels, values))


def test_first_appearance_class_order():
    ds = _dataset(["b", "a", "b", "c", "a"])
    assert ds.class_names == ["b", "a", "c"]
    assert list(ds.y) == [0, 1, 0, 2, 1]


def test_explicit_class_order_respected():
    ds = LabeledDataset(_matrix(["b", "a"]), ["a", "b"])
    assert list(ds.y) == [1, 0]


def test_single_class_dataset_is_loadable():
    ds = _dataset(["only", "only", "only"])
    assert ds.class_names == ["only"]


def test_dataset_validation():
    with pytest.raises(ValueError, match="nonempty labels"):
        _dataset(["a", ""])
    with pytest.raises(ValueError, match="not in class names"):
        LabeledDataset(_matrix(["a", "b"]), ["a"])
    with pytest.raises(ValueError, match="unique"):
        LabeledDataset(_matrix(["a", "a"]), ["a", "a"])
    unlabeled = FeatureMatrix(["r0"], None, ["c0"], np.ones((1, 1)))
    with pytest.raises(ValueError, match="label column"):
        LabeledDataset(unlabeled, ["a"])
    with pytest.raises(ValueError, match="label column"):
        LabeledDataset.from_matrix(unlabeled)


def test_subset_preserves_class_order():
    ds = _dataset(["b", "a", "b", "a"])
    sub = ds.subset(np.array([1, 3]))
    assert sub.class_names == ["b", "a"]
    assert list(sub.y) == [1, 1]
    assert sub.matrix.ids == ["r1", "r3"]


def test_load_labeled_csv_errors(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("id,label,c0\n,a,1.0\n")
    with pytest.raises(ValueError, match="missing id"):
        load_labeled_csv(path)
    path.write_text("id,label,c0\nr0,a,1.0\nr0,b,2.0\n")
    with pytest.raises(ValueError, match="duplicate id"):
        load_labeled_csv(path)
    path.write_text("id,label,c0\nr0,a,1.0\nr1,,2.0\n")
    with pytest.raises(ValueError, match="empty label on data row 2"):
        load_labeled_csv(path)
    path.write_text("id,label,c0\nr0,,1.0\nr1,,2.0\n")
    with pytest.raises(ValueError, match=r"f\.csv: empty label column"):
        load_labeled_csv(path)


def test_load_labeled_csv_round_trip(tmp_path):
    from blademl.features import write_features_csv

    m = _matrix(["x", "y", "x"])
    path = tmp_path / "f.csv"
    write_features_csv(m, path)
    ds = load_labeled_csv(path)
    assert ds.class_names == ["x", "y"]
    assert ds.n == 3


def test_exact_stratification_four_rows():
    ds = _dataset(["a", "a", "b", "b"])
    folds = stratified_kfold(ds, 2, seed=0)
    for f in range(2):
        test_labels = [ds.matrix.labels[i] for i in folds.test_indices(f)]
        assert sorted(test_labels) == ["a", "b"]


def test_fold_counts_within_one():
    labels = ["h"] * 34 + ["c"] * 33 + ["e"] * 33
    ds = _dataset(labels)
    folds = stratified_kfold(ds, 10, seed=7)
    for f in range(10):
        test_idx = folds.test_indices(f)
        per_class = {}
        for i in test_idx:
            per_class[labels[i]] = per_class.get(labels[i], 0) + 1
        for name, total in (("h", 34), ("c", 33), ("e", 33)):
            share = per_class.get(name, 0)
            assert abs(share - total / 10) <= 1.0


def test_folds_partition_rows():
    ds = _dataset(["a"] * 6 + ["b"] * 6)
    folds = stratified_kfold(ds, 3, seed=1)
    seen = np.concatenate([folds.test_indices(f) for f in range(3)])
    assert sorted(seen.tolist()) == list(range(12))
    for f in range(3):
        train = set(folds.train_indices(f).tolist())
        test = set(folds.test_indices(f).tolist())
        assert not train & test
        assert train | test == set(range(12))


@pytest.mark.parametrize("mix, k, seed", [
    ({"a": 50, "b": 50}, 10, 7),
    ({"h": 34, "c": 33, "e": 33}, 10, 7),
    ({"a": 5, "b": 17, "c": 9}, 4, 3),
    ({"a": 3, "b": 3}, 3, 0),
    ({"x": 13, "y": 2, "z": 29, "w": 7}, 2, 11),
])
def test_training_part_sizes_never_decrease(mix, k, seed):
    # Each class is dealt round-robin from fold 0, so a later fold never
    # holds out more rows and its training part is never smaller.
    labels = [label for label, count in mix.items() for _ in range(count)]
    folds = stratified_kfold(_dataset(labels), k, seed)
    sizes = [folds.train_indices(f).size for f in range(k)]
    assert sizes == sorted(sizes)


def test_kfold_determinism_and_seed_sensitivity():
    ds = _dataset(["a"] * 20 + ["b"] * 20)
    a = stratified_kfold(ds, 4, seed=9)
    b = stratified_kfold(ds, 4, seed=9)
    assert np.array_equal(a.fold_of, b.fold_of)
    distinct = {
        tuple(stratified_kfold(ds, 4, seed=s).fold_of.tolist())
        for s in range(10)
    }
    assert len(distinct) > 1


def test_kfold_matches_shared_stream_reference():
    # Per class in class-name order: backward Fisher-Yates over the class's
    # rows, consuming one shared uniform stream; position in the permutation
    # determines the fold (position mod k).
    labels = ["a", "b", "a", "b", "a", "b", "a", "b"]
    seed, k = 5, 2
    ds = _dataset(labels)
    folds = stratified_kfold(ds, k, seed)

    stream = [uniform_from_u64(v) for v in splitmix64_stream(seed, 16)]
    draw = 0
    expected = np.empty(len(labels), dtype=int)
    for name in ds.class_names:
        rows = [i for i, lab in enumerate(labels) if lab == name]
        perm = list(range(len(rows)))
        for i in range(len(rows) - 1, 0, -1):
            j = int(stream[draw] * (i + 1))
            draw += 1
            if j > i:
                j = i
            perm[i], perm[j] = perm[j], perm[i]
        for position, p in enumerate(perm):
            expected[rows[p]] = position % k
    assert np.array_equal(folds.fold_of, expected)


def test_kfold_validation():
    ds = _dataset(["a", "a", "a", "b", "b"])
    with pytest.raises(ValueError, match="smallest class count"):
        stratified_kfold(ds, 3, seed=0)
    with pytest.raises(ValueError, match="at least 2"):
        stratified_kfold(ds, 1, seed=0)
    folds = stratified_kfold(ds, 2, seed=0)
    assert folds.k == 2


def test_fold_assignment_validation():
    with pytest.raises(ValueError):
        FoldAssignment(2, np.array([0, 2]), seed=0)
    with pytest.raises(ValueError):
        FoldAssignment(1, np.array([0, 0]), seed=0)
    with pytest.raises(ValueError):
        FoldAssignment(2, np.array([-1, 0]), seed=0)


def test_write_folds_csv(tmp_path):
    folds = FoldAssignment(2, np.array([0, 1, 0]), seed=3)
    path = tmp_path / "folds.csv"
    write_folds_csv(folds, ["x", "y", "z"], path, metadata={"k": 2})
    text = path.read_text()
    assert text == "# k: 2\nid,fold\nx,0\ny,1\nz,0\n"
    with pytest.raises(ValueError):
        write_folds_csv(folds, ["x"], tmp_path / "bad.csv")

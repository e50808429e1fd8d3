"""The package's public surface and its dependencies."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import blademl

# Every name `from blademl import *` exports.  A new export, or a removed
# one, is a deliberate edit to this list.
EXPORTS = [
    "ClusterAssignment", "ConfusionMatrix", "Dendrogram", "DistanceMatrix",
    "EvaluationReport", "FeatureMatrix", "FoldAssignment", "FoldScores",
    "GenConfig", "LabeledDataset", "LogisticModel", "MetricSuite", "MlpModel",
    "ModelSpec", "NaiveBayesModel", "NormalizationParams", "PpmParseError",
    "ProtocolError", "RSquaredUndefinedError", "Raster", "SplitMix64",
    "TrainConfig", "TreeModel", "agglomerate", "auc", "classification_metrics",
    "classifiers", "clustering", "compare_models", "confusion_matrix",
    "cross_entropy_loss", "cross_validate", "cut_dendrogram", "dataset",
    "evaluation", "export_dendrogram", "extract_features", "features", "fmt",
    "generate_dataset", "generate_image", "load_labeled_csv", "load_ppm",
    "mean_log_loss", "pairwise_distances", "parallel", "raster",
    "read_features_csv", "regression_errors", "rng", "shuffled_indices",
    "sigmoid", "stratified_kfold", "synthgen", "train_logistic",
    "train_logistics", "train_mlp", "train_mlps", "train_naive_bayes",
    "train_tree", "write_features_csv", "write_ppm", "zscore_normalize",
]


def test_public_exports_are_pinned():
    assert sorted(blademl.__all__) == EXPORTS


def test_imports_stay_within_stdlib_and_numpy():
    # numpy is the only third-party dependency; a relative import
    # (level > 0) stays inside the package.
    allowed = set(sys.stdlib_module_names) | {"numpy", "blademl"}
    outside = []
    for path in sorted(Path(blademl.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}:{node.lineno}: {name}" for name in names
                        if name.split(".")[0] not in allowed]
    assert outside == []


def test_import_leaves_numpy_one_blas_thread():
    # A fresh interpreter, so numpy loads after blademl; a value set
    # beforehand is kept.
    script = ("import os, blademl\n"
              "status = open('/proc/self/status').read()\n"
              "print(os.environ['OPENBLAS_NUM_THREADS'],"
              " status.split('Threads:')[1].split()[0])\n")
    src = str(Path(blademl.__file__).resolve().parents[1])
    env = {key: value for key, value in os.environ.items()
           if key != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, env=env, check=True).stdout
    assert out == "1 1\n"
    env["OPENBLAS_NUM_THREADS"] = "2"
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, env=env, check=True).stdout
    assert out.split()[0] == "2"

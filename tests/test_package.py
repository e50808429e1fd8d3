"""The package's public surface and its dependencies."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def _package_nodes():
    """(file name, node) for every AST node of every package module."""
    for path in sorted(Path(blademl.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            yield path.name, node


def _top_imports(node):
    """The top-level names of the modules an import node imports; none for
    any other node or a relative import (level > 0), which stays inside the
    package."""
    if isinstance(node, ast.Import):
        return [alias.name.split(".")[0] for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        return [node.module.split(".")[0]]
    return []


def test_imports_stay_within_stdlib_and_numpy():
    # numpy is the only third-party dependency.
    allowed = set(sys.stdlib_module_names) | {"numpy", "blademl"}
    outside = [f"{name}:{node.lineno}: {module}"
               for name, node in _package_nodes()
               for module in _top_imports(node) if module not in allowed]
    assert outside == []


def test_csv_is_written_in_fmt_alone():
    # fmt.csv_line writes every CSV line: no other module imports csv or
    # holds the `17g` real format, so no second writer can come back.
    found = [f"{name}:{node.lineno}" for name, node in _package_nodes()
             if name != "fmt.py" and (
                 "csv" in _top_imports(node)
                 or isinstance(node, ast.Constant) and "17g" in str(node.value))]
    assert found == []


def test_no_function_calls_itself():
    # A recursive walk fails on input deeper than Python's recursion limit
    # (a chained tree or dendrogram is as deep as it has rows), so every
    # walk over a tree or document keeps its own stack.
    found = [f"{name}:{call.lineno}: {node.name}"
             for name, node in _package_nodes()
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
             for call in ast.walk(node)
             if isinstance(call, ast.Call)
             and isinstance(call.func, ast.Name) and call.func.id == node.name]
    assert found == []


def _fresh_python(script, env=None):
    """stdout of `script` run by a fresh interpreter that imports the
    package from this source tree."""
    src = str(Path(blademl.__file__).resolve().parents[1])
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, check=True).stdout


def test_import_loads_no_submodule_and_no_numpy():
    out = _fresh_python(
        "import sys, blademl\n"
        "print(*sorted(m for m in sys.modules"
        " if m.split('.')[0] in ('blademl', 'numpy')))\n")
    assert out == "blademl\n"


def test_exports_load_on_first_access():
    # Each export is its defining module's object, and `import *` loads
    # them all.
    out = _fresh_python(
        "import blademl\n"
        "from blademl import *\n"
        "from blademl import features, raster\n"
        "assert blademl.extract_features is features.extract_features\n"
        "assert blademl.load_ppm is raster.load_ppm\n"
        "assert set(blademl.__all__) <= set(dir(blademl))\n"
        "print(all(getattr(blademl, name) is globals()[name]"
        " for name in blademl.__all__))\n")
    assert out == "True\n"
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        blademl.nope


def test_import_leaves_numpy_one_blas_thread():
    # A fresh interpreter, so numpy loads after blademl: `import blademl`
    # alone loads no numpy, so the script imports numpy itself.  A value set
    # beforehand is kept.
    script = ("import os, blademl\n"
              "import numpy\n"
              "status = open('/proc/self/status').read()\n"
              "print(os.environ['OPENBLAS_NUM_THREADS'],"
              " status.split('Threads:')[1].split()[0])\n")
    env = {key: value for key, value in os.environ.items()
           if key != "OPENBLAS_NUM_THREADS"}
    assert _fresh_python(script, env) == "1 1\n"
    env["OPENBLAS_NUM_THREADS"] = "2"
    assert _fresh_python(script, env).split()[0] == "2"

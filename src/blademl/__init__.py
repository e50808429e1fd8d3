"""blademl: deterministic blade-image fault detection.

PPM decoding, hand-crafted 37-dimensional features, four from-scratch
classifiers with cross-validated evaluation, agglomerative hierarchical
clustering, and a seeded synthetic corpus generator.

Every exported name and submodule loads on first access (PEP 562), so
`import blademl` loads neither numpy nor any submodule, and each CLI stage
holds only the modules it runs.
"""

__version__ = "0.1.0"

import importlib as _importlib
import os as _os

# numpy's OpenBLAS starts one helper thread per further CPU as it loads.
# Every product here is small; on a 2-vCPU host that thread slowed each
# stage by 10-30% and took the CPU that split_map's worker needs.  With one
# BLAS thread per process the stage and its worker each keep a CPU.  The
# bytes do not depend on it; a value set beforehand is kept.  It holds for
# a numpy loaded later, since numpy reads it as it loads.
_os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

# The names each submodule exports from the package.
_EXPORTS = {
    "classifiers": (
        "LogisticModel", "MlpModel", "NaiveBayesModel", "TrainConfig",
        "TreeModel", "cross_entropy_loss", "sigmoid", "train_logistic",
        "train_logistics", "train_mlp", "train_mlps", "train_naive_bayes",
        "train_tree",
    ),
    "clustering": (
        "ClusterAssignment", "Dendrogram", "DistanceMatrix", "agglomerate",
        "cut_dendrogram", "export_dendrogram", "pairwise_distances",
    ),
    "dataset": (
        "FoldAssignment", "LabeledDataset", "load_labeled_csv",
        "stratified_kfold",
    ),
    "evaluation": (
        "ConfusionMatrix", "EvaluationReport", "FoldScores", "MetricSuite",
        "ModelSpec", "ProtocolError", "RSquaredUndefinedError", "auc",
        "classification_metrics", "compare_models", "confusion_matrix",
        "cross_validate", "mean_log_loss", "regression_errors",
    ),
    "features": (
        "FeatureMatrix", "NormalizationParams", "extract_features",
        "read_features_csv", "write_features_csv", "zscore_normalize",
    ),
    "fmt": (),
    "parallel": (),
    "raster": ("PpmParseError", "Raster", "load_ppm", "write_ppm"),
    "rng": ("SplitMix64", "shuffled_indices"),
    "synthgen": ("GenConfig", "generate_dataset", "generate_image"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items()
           for name in (module, *names)}

__all__ = sorted(_SOURCE)


def __getattr__(name):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = _importlib.import_module(f".{module}", __name__)
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))

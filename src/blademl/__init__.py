"""blademl: deterministic blade-image fault detection.

PPM decoding, hand-crafted 37-dimensional features, four from-scratch
classifiers with cross-validated evaluation, agglomerative hierarchical
clustering, and a seeded synthetic corpus generator.
"""

__version__ = "0.1.0"

import os as _os

# numpy's OpenBLAS starts one helper thread per further CPU as it loads.
# Every product here is small; on a 2-vCPU host that thread slowed each
# stage by 10-30% and took the CPU that split_map's worker needs.  With one
# BLAS thread per process the stage and its worker each keep a CPU.  The
# bytes do not depend on it; a value set beforehand is kept.
_os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .classifiers import (
    LogisticModel, MlpModel, NaiveBayesModel, TrainConfig, TreeModel,
    cross_entropy_loss, sigmoid, train_logistic, train_logistics, train_mlp,
    train_mlps, train_naive_bayes, train_tree,
)
from .clustering import (
    ClusterAssignment, Dendrogram, DistanceMatrix, agglomerate,
    cut_dendrogram, export_dendrogram, pairwise_distances,
)
from .dataset import (
    FoldAssignment, LabeledDataset, load_labeled_csv, stratified_kfold,
)
from .evaluation import (
    ConfusionMatrix, EvaluationReport, FoldScores, MetricSuite, ModelSpec,
    ProtocolError, RSquaredUndefinedError, auc, classification_metrics,
    compare_models, confusion_matrix, cross_validate, mean_log_loss,
    regression_errors,
)
from .features import (
    FeatureMatrix, NormalizationParams, extract_features, read_features_csv,
    write_features_csv, zscore_normalize,
)
from .raster import PpmParseError, Raster, load_ppm, write_ppm
from .rng import SplitMix64, shuffled_indices
from .synthgen import GenConfig, generate_dataset, generate_image

__all__ = [name for name in dir() if not name.startswith("_")]

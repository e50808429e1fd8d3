"""blademl: deterministic blade-image fault detection.

PPM decoding, hand-crafted 37-dimensional features, four from-scratch
classifiers with cross-validated evaluation, agglomerative hierarchical
clustering, and a seeded synthetic corpus generator.
"""

__version__ = "0.1.0"

from .classifiers import (
    LogisticModel, MlpModel, NaiveBayesModel, TrainConfig, TreeModel,
    cross_entropy_loss, gini_impurity, load_model, logit, mlp_forward,
    mse_impurity, predict_logistic, predict_naive_bayes, predict_tree,
    save_model, sgd_update, sigmoid, train_logistic, train_logistics,
    train_mlp, train_mlps, train_naive_bayes, train_regression_tree,
    train_tree,
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
    FeatureMatrix, NormalizationParams, PcaModel, extract_features,
    pca_fit_transform, read_features_csv, write_features_csv,
    zscore_normalize,
)
from .raster import (
    PpmParseError, Raster, load_ppm, quantization_params, to_grayscale,
    write_ppm,
)
from .rng import SplitMix64, shuffled_indices
from .synthgen import GenConfig, generate_dataset, generate_image

__all__ = [name for name in dir() if not name.startswith("_")]

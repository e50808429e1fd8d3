"""The package's public surface."""

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
    "mean_log_loss", "pairwise_distances", "raster", "read_features_csv",
    "regression_errors", "rng", "shuffled_indices", "sigmoid",
    "stratified_kfold", "synthgen", "train_logistic", "train_logistics",
    "train_mlp", "train_mlps", "train_naive_bayes", "train_tree",
    "write_features_csv", "write_ppm", "zscore_normalize",
]


def test_public_exports_are_pinned():
    assert sorted(blademl.__all__) == EXPORTS

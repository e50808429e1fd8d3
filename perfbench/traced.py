"""In-process replay of the four `blademl` CLI stages with one span per call.

Each `stage_*` function mirrors the matching `cmd_*` in `blademl/cli.py`
call for call, but calls the package's functions directly and wraps each
call in a span named `<module>.<operation>`.  The replay must write the same
bytes as the CLI; run.py compares the two after every traced iteration, so
a drift between this file and the CLI shows up as a failed check rather than
as silently different work.

Spans live in memory (`Tracer.spans`) and are written as JSON lines by
`Tracer.write_jsonl` once the run has ended.
"""

from __future__ import annotations

import csv
import json
import os
import time
from contextlib import contextmanager

import numpy as np

from blademl import (
    FeatureMatrix, LabeledDataset, MetricSuite, SplitMix64, agglomerate, auc,
    classification_metrics, compare_models, confusion_matrix,
    cut_dendrogram, export_dendrogram, extract_features, generate_image,
    load_labeled_csv, load_ppm, mean_log_loss, pairwise_distances,
    read_features_csv, stratified_kfold, train_logistic, train_mlp,
    train_naive_bayes, train_tree, write_features_csv, write_ppm,
    zscore_normalize,
)
from blademl.cli import build_parser
from blademl.clustering import write_assignment_csv, write_distance_csv
from blademl.dataset import write_folds_csv
from blademl.evaluation import (
    COMPARISON_METRICS, METRIC_NAMES, EvaluationReport, FoldScores, ModelSpec,
    write_comparison_csv, write_confusion_csv, write_fold_scores_csv,
    write_predictions_csv, write_report_csv,
)
from blademl.features import FEATURE_COLUMNS
from blademl.synthgen import CLASS_NAMES, GenConfig
from blademl.classifiers import TrainConfig


class Tracer:
    """Nested spans with a name, start, end, parent and run id."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {
            "run": self.run_id, "id": len(self.spans), "name": name,
            "parent": self._open[-1] if self._open else None,
            "start_ns": time.perf_counter_ns(), "end_ns": None,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield
        finally:
            record["end_ns"] = time.perf_counter_ns()
            self._open.pop()

    def write_jsonl(self, path) -> None:
        with open(path, "w") as handle:
            for record in self.spans:
                handle.write(json.dumps(record) + "\n")


def self_times(spans: list[dict]) -> dict:
    """Seconds per span id: duration minus the part its children cover.

    Children of one span run one after another, so their coverage is the
    sum of their durations.
    """
    covered = {record["id"]: 0 for record in spans}
    for record in spans:
        if record["parent"] is not None:
            covered[record["parent"]] += record["end_ns"] - record["start_ns"]
    return {
        record["id"]:
            (record["end_ns"] - record["start_ns"] - covered[record["id"]]) / 1e9
        for record in spans
    }


# ---------------------------------------------------------------------------
# Stage replays (mirror blademl/cli.py)


def stage_gen(tr: Tracer, args) -> None:
    cfg = GenConfig(args.counts, args.seed, args.width, args.height)
    os.makedirs(args.out, exist_ok=True)
    total = sum(cfg.counts)
    pad = max(3, len(str(total - 1)))
    entries = []
    index = 0
    for label, count in zip(CLASS_NAMES, cfg.counts):
        for _ in range(count):
            child = SplitMix64(cfg.seed ^ index)
            with tr.span("synthgen.generate_image"):
                raster = generate_image(label, child, cfg.width, cfg.height)
            name = f"{label}_{index:0{pad}d}.ppm"
            with tr.span("raster.write_ppm"):
                data = write_ppm(raster)
            with open(os.path.join(args.out, name), "wb") as handle:
                handle.write(data)
            entries.append((name, label))
            index += 1
    with open(os.path.join(args.out, "labels.csv"), "w", newline="") as handle:
        handle.write(f"# counts: {','.join(str(c) for c in cfg.counts)}\n")
        handle.write(f"# seed: {cfg.seed}\n")
        handle.write(f"# size: {cfg.width}x{cfg.height}\n")
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["id", "label"])
        writer.writerows(entries)


def read_labels(path) -> list[tuple[str, str]]:
    with open(path, "r", newline="") as handle:
        rows = list(csv.reader(line for line in handle if not line.startswith("#")))
    return [(row[0], row[1]) for row in rows[1:]]


def stage_features(tr: Tracer, args) -> None:
    ids, labels, vectors = [], [], []
    for name, label in read_labels(args.labels):
        with open(os.path.join(args.images, name), "rb") as handle:
            data = handle.read()
        with tr.span("raster.load_ppm"):
            raster = load_ppm(data)
        with tr.span("features.extract"):
            vectors.append(extract_features(raster))
        ids.append(name)
        labels.append(label)
    matrix = FeatureMatrix(ids, labels, list(FEATURE_COLUMNS), vectors)
    with tr.span("features.write_csv"):
        write_features_csv(
            matrix, args.out,
            metadata={"images": args.images, "labels": args.labels},
        )


TRAINERS = {
    "tree": train_tree,
    "nb": lambda ds, cfg: train_naive_bayes(ds),
    "logreg": train_logistic,
    "mlp": train_mlp,
}


def model_specs(args) -> list[ModelSpec]:
    configs = {
        "tree": TrainConfig(
            max_depth=args.tree_max_depth, min_leaf=args.tree_min_leaf
        ),
        "nb": None,
        "logreg": TrainConfig(
            learning_rate=args.logreg_rate, limit=args.logreg_limit,
            tolerance=args.logreg_tolerance, l2=args.logreg_l2,
        ),
        "mlp": TrainConfig(
            learning_rate=args.mlp_rate, limit=args.mlp_epochs,
            l2=args.mlp_l2, hidden=args.mlp_hidden,
            activation=args.mlp_activation, seed=args.seed,
        ),
    }
    return [ModelSpec(name, name, configs[name]) for name in args.models.split(",")]


def hyper_metadata(args) -> dict:
    return {
        "k": args.k,
        "seed": args.seed,
        "models": args.models,
        "logreg": (
            f"rate={args.logreg_rate} limit={args.logreg_limit} "
            f"tolerance={args.logreg_tolerance} l2={args.logreg_l2}"
        ),
        "tree": (
            f"max_depth={args.tree_max_depth} min_leaf={args.tree_min_leaf}"
        ),
        "mlp": (
            f"rate={args.mlp_rate} epochs={args.mlp_epochs} l2={args.mlp_l2} "
            f"hidden={','.join(str(h) for h in args.mlp_hidden)} "
            f"activation={args.mlp_activation} seed={args.seed}"
        ),
    }


def _suite(tr: Tracer, probs, actual, classes) -> MetricSuite:
    with tr.span("evaluation.metrics"):
        predicted = [classes[int(np.argmax(row))] for row in probs]
        m = classification_metrics(confusion_matrix(actual, predicted, classes))
        return MetricSuite(
            auc=auc(probs, actual, classes),
            ca=m.ca, f1=m.f1, precision=m.precision, recall=m.recall,
            specificity=m.specificity, mcc=m.mcc,
            log_loss=mean_log_loss(probs, actual, classes),
        )


def cross_validate(tr: Tracer, ds, specs, folds) -> EvaluationReport:
    """evaluation.cross_validate with a span around each call it makes.

    The argument checks at its top are left out; the CLI run makes them.
    """
    classes = list(ds.class_names)
    actual = list(ds.matrix.labels)
    suites, confusions, fold_scores, oof, predicted_labels = {}, {}, {}, {}, {}
    for spec in specs:
        probs = np.zeros((ds.n, len(classes)))
        for f in range(folds.k):
            train_idx = folds.train_indices(f)
            test_idx = folds.test_indices(f)
            with tr.span("dataset.subset"):
                train_ds = ds.subset(train_idx)
            with tr.span("features.zscore"):
                norm_matrix, params = zscore_normalize(train_ds.matrix)
            with tr.span("dataset.subset"):
                fold_ds = LabeledDataset(norm_matrix, train_ds.class_names)
            with tr.span(f"classifiers.train_{spec.kind}"):
                model = TRAINERS[spec.kind](fold_ds, spec.config)
            with tr.span("features.zscore"):
                held_out = params.apply(ds.X[test_idx])
            with tr.span("classifiers.predict"):
                probs[test_idx] = model.predict_proba(held_out)
        with tr.span("evaluation.metrics"):
            predicted = [classes[int(np.argmax(row))] for row in probs]
            confusions[spec.name] = confusion_matrix(actual, predicted, classes)
        suites[spec.name] = _suite(tr, probs, actual, classes)
        oof[spec.name] = probs
        predicted_labels[spec.name] = predicted

        per_metric = {name: [] for name in METRIC_NAMES}
        for f in range(folds.k):
            test_idx = folds.test_indices(f)
            fold_suite = _suite(
                tr, probs[test_idx], [actual[i] for i in test_idx], classes
            )
            for name in METRIC_NAMES:
                per_metric[name].append(getattr(fold_suite, name))
        for name in METRIC_NAMES:
            fold_scores[(spec.name, name)] = FoldScores(
                spec.name, name, per_metric[name]
            )
    return EvaluationReport(
        model_names=[spec.name for spec in specs], class_names=classes,
        ids=list(ds.matrix.ids), actual=actual, folds=folds, suites=suites,
        confusions=confusions, fold_scores=fold_scores, oof_probs=oof,
        predicted=predicted_labels,
    )


def stage_evaluate(tr: Tracer, args) -> None:
    with tr.span("dataset.load"):
        ds = load_labeled_csv(args.features)
    specs = model_specs(args)
    with tr.span("dataset.kfold"):
        folds = stratified_kfold(ds, args.k, args.seed)
    report = cross_validate(tr, ds, specs, folds)
    os.makedirs(args.out_dir, exist_ok=True)
    meta = hyper_metadata(args)

    def out(name):
        return os.path.join(args.out_dir, name)

    with tr.span("evaluation.write"):
        write_report_csv(report, out("report.csv"), meta)
    with tr.span("evaluation.write"):
        write_folds_csv(folds, report.ids, out("folds.csv"), meta)
    with tr.span("evaluation.write"):
        write_fold_scores_csv(report, out("fold_scores.csv"), meta)
    for name in report.model_names:
        with tr.span("evaluation.write"):
            write_confusion_csv(
                report.confusions[name], out(f"confusion_{name}.csv"), meta
            )
        with tr.span("evaluation.write"):
            write_predictions_csv(
                report, name, out(f"predictions_{name}.csv"), meta
            )
    if len(report.model_names) >= 2:
        for metric in COMPARISON_METRICS:
            scores = [
                report.fold_scores[(name, metric)]
                for name in report.model_names
            ]
            with tr.span("evaluation.compare"):
                names, matrix = compare_models(scores)
            with tr.span("evaluation.write"):
                write_comparison_csv(
                    names, matrix, out(f"comparison_{metric}.csv"),
                    {**meta, "metric": metric},
                )


def stage_cluster(tr: Tracer, args) -> None:
    with tr.span("features.read_csv"):
        matrix = read_features_csv(args.features)
    with tr.span("clustering.distances"):
        distances = pairwise_distances(matrix, args.metric, args.normalize)
    with tr.span("clustering.agglomerate"):
        dendrogram = agglomerate(distances, args.linkage, matrix.ids)
    os.makedirs(args.out_dir, exist_ok=True)
    meta = {
        "metric": args.metric,
        "normalize": str(args.normalize).lower(),
        "linkage": args.linkage,
    }
    with tr.span("clustering.write"):
        write_distance_csv(
            distances, matrix.ids,
            os.path.join(args.out_dir, "distances.csv"), meta,
        )
    with tr.span("clustering.export"):
        text = export_dendrogram(dendrogram, "text")
    with tr.span("clustering.write"):
        with open(os.path.join(args.out_dir, "dendrogram.txt"), "w") as handle:
            for key, value in meta.items():
                handle.write(f"# {key}: {value}\n")
            handle.write(text)
    with tr.span("clustering.export"):
        newick = export_dendrogram(dendrogram, "newick")
    with tr.span("clustering.write"):
        with open(os.path.join(args.out_dir, "dendrogram.nwk"), "w") as handle:
            handle.write(newick + "\n")
    if args.cut_count is not None or args.cut_height is not None:
        with tr.span("clustering.cut"):
            assignment = cut_dendrogram(
                dendrogram, count=args.cut_count, height=args.cut_height
            )
        with tr.span("clustering.write"):
            write_assignment_csv(
                assignment, matrix.ids,
                os.path.join(args.out_dir, "clusters.csv"),
                {**meta, "clusters": assignment.count},
            )


STAGES = {
    "gen": stage_gen, "features": stage_features,
    "evaluate": stage_evaluate, "cluster": stage_cluster,
}


def run_stages(tr: Tracer, stage_argvs: list[list[str]], cwd) -> dict:
    """Replay each CLI argv in order inside `cwd`; returns stage walls (s)."""
    parser = build_parser()
    walls = {}
    home = os.getcwd()
    os.chdir(cwd)
    try:
        for argv in stage_argvs:
            args = parser.parse_args(argv)
            start = time.perf_counter()
            with tr.span(f"stage.{args.command}"):
                STAGES[args.command](tr, args)
            walls[args.command] = time.perf_counter() - start
    finally:
        os.chdir(home)
    return walls

"""Command-line pipeline: gen -> features -> evaluate / cluster.

Every subcommand is a pure function of its input files and flags, so
rerunning a command writes byte-identical outputs.  All results are CSV or
text files whose leading `# key: value` lines record the configuration that
produced them.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import __version__
from .classifiers import (
    LOGISTIC_DEFAULTS, MLP_DEFAULTS, TREE_DEFAULTS, TrainConfig,
)
from .clustering import (
    LINKAGES, METRICS, agglomerate, cut_dendrogram, export_dendrogram,
    pairwise_distances, write_assignment_csv, write_distance_csv,
)
from .dataset import load_labeled_csv, stratified_kfold, write_folds_csv
from .evaluation import (
    COMPARISON_METRICS, MODEL_KINDS, ModelSpec, compare_models, cross_validate,
    write_comparison_csv, write_confusion_csv, write_fold_scores_csv,
    write_predictions_csv, write_report_csv,
)
from .features import FeatureMatrix, extract_features, read_features_csv, \
    write_features_csv, FEATURE_COLUMNS
from .fmt import metadata_lines, read_csv
from .raster import load_ppm
from .synthgen import CLASS_NAMES, GenConfig, generate_dataset


def _parse_counts(text: str) -> tuple[int, int, int]:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            "--counts needs three comma-separated values (healthy,crack,erosion)"
        )
    try:
        counts = tuple(int(p) for p in parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"--counts: {exc}") from exc
    if any(c < 0 for c in counts):
        raise argparse.ArgumentTypeError("--counts values must be nonnegative")
    return counts


def _parse_hidden(text: str) -> tuple[int, ...]:
    try:
        sizes = tuple(int(p) for p in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"--mlp-hidden: {exc}") from exc
    if not sizes or any(s < 1 for s in sizes):
        raise argparse.ArgumentTypeError("--mlp-hidden sizes must be >= 1")
    return sizes


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blademl",
        description="Deterministic blade-image fault detection pipeline",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser(
        "gen", help="generate a seeded synthetic blade-image corpus",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    gen.add_argument("--out", required=True, help="output directory")
    gen.add_argument(
        "--counts", type=_parse_counts, default=(34, 33, 33),
        help="images per class: healthy,crack,erosion",
    )
    gen.add_argument("--seed", type=int, default=0, help="corpus seed")
    gen.add_argument("--width", type=int, default=128, help="image width")
    gen.add_argument("--height", type=int, default=128, help="image height")

    feats = sub.add_parser(
        "features", help="extract feature vectors from a labeled image set",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    feats.add_argument("--images", required=True, help="image directory")
    feats.add_argument("--labels", required=True, help="id,label CSV")
    feats.add_argument("--out", required=True, help="output features CSV")

    ev = sub.add_parser(
        "evaluate", help="cross-validate classifiers over a features CSV",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    ev.add_argument("--features", required=True, help="labeled features CSV")
    ev.add_argument("--out-dir", required=True, help="report directory")
    ev.add_argument("--k", type=int, default=10, help="fold count")
    ev.add_argument("--seed", type=int, default=0,
                    help="seed for fold shuffling and network init")
    ev.add_argument("--models", default="tree,nb,logreg,mlp",
                    help="comma list from tree,nb,logreg,mlp")
    ev.add_argument("--logreg-rate", type=float,
                    default=LOGISTIC_DEFAULTS["learning_rate"],
                    help="logistic learning rate")
    ev.add_argument("--logreg-limit", type=int,
                    default=LOGISTIC_DEFAULTS["limit"],
                    help="logistic iteration limit")
    ev.add_argument("--logreg-tolerance", type=float,
                    default=LOGISTIC_DEFAULTS["tolerance"],
                    help="logistic gradient stop tolerance")
    ev.add_argument("--logreg-l2", type=float,
                    default=LOGISTIC_DEFAULTS["l2"],
                    help="logistic L2 strength")
    ev.add_argument("--tree-max-depth", type=int,
                    default=TREE_DEFAULTS["max_depth"], help="tree depth cap")
    ev.add_argument("--tree-min-leaf", type=int,
                    default=TREE_DEFAULTS["min_leaf"],
                    help="minimum samples per leaf")
    ev.add_argument("--mlp-rate", type=float,
                    default=MLP_DEFAULTS["learning_rate"],
                    help="MLP learning rate")
    ev.add_argument("--mlp-epochs", type=int, default=MLP_DEFAULTS["limit"],
                    help="MLP epoch count")
    ev.add_argument("--mlp-l2", type=float, default=MLP_DEFAULTS["l2"],
                    help="MLP L2 strength")
    ev.add_argument("--mlp-hidden", type=_parse_hidden,
                    default=MLP_DEFAULTS["hidden"],
                    help="comma list of hidden layer sizes")
    ev.add_argument("--mlp-activation", choices=("relu", "sigmoid", "tanh"),
                    default=MLP_DEFAULTS["activation"],
                    help="hidden activation")

    cl = sub.add_parser(
        "cluster", help="hierarchical clustering over a features CSV",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    cl.add_argument("--features", required=True, help="features CSV")
    cl.add_argument("--out-dir", required=True, help="output directory")
    cl.add_argument("--metric", choices=METRICS, default="euclidean",
                    help="row distance metric")
    cl.add_argument("--linkage", choices=LINKAGES, default="average",
                    help="cluster linkage")
    cl.add_argument("--normalize", action=argparse.BooleanOptionalAction,
                    default=True, help="z-score columns before distances")
    cl.add_argument("--cut-count", type=int, default=None,
                    help="flatten to this many clusters")
    cl.add_argument("--cut-height", type=float, default=None,
                    help="flatten at this merge height")
    return parser


def cmd_gen(args) -> int:
    try:
        cfg = GenConfig(args.counts, args.seed, args.width, args.height)
    except ValueError as exc:
        print(f"error: --counts/--width/--height: {exc}", file=sys.stderr)
        return 2
    entries = generate_dataset(cfg, args.out)
    for name, count in zip(CLASS_NAMES, cfg.counts):
        print(f"{name}: {count} images")
    print(f"wrote {len(entries)} files + labels.csv to {args.out}")
    return 0


def _read_labels(path) -> list[tuple[str, str]]:
    rows = read_csv(path)
    if not rows or rows[0][:2] != ["id", "label"]:
        raise ValueError(f"{path}: expected id,label header")
    entries = []
    seen: dict[str, int] = {}
    for i, row in enumerate(rows[1:]):
        if len(row) != 2 or not row[0] or not row[1]:
            raise ValueError(f"{path}: malformed row {i + 1}")
        if seen.setdefault(row[0], i + 1) != i + 1:
            raise ValueError(f"{path}: {row[0]!r} on rows {seen[row[0]]} and {i + 1}")
        entries.append((row[0], row[1]))
    if not entries:
        raise ValueError(f"{path}: no labeled rows")
    return entries


def cmd_features(args) -> int:
    entries = _read_labels(args.labels)
    ids = []
    labels = []
    vectors = []
    for name, label in entries:
        path = os.path.join(args.images, name)
        try:
            with open(path, "rb") as handle:
                raster = load_ppm(handle.read())
            vectors.append(extract_features(raster))
        except (OSError, ValueError) as exc:
            print(f"error: {path}: {exc}", file=sys.stderr)
            return 1
        ids.append(name)
        labels.append(label)
    matrix = FeatureMatrix(ids, labels, list(FEATURE_COLUMNS), vectors)
    write_features_csv(
        matrix, args.out,
        metadata={"images": args.images, "labels": args.labels},
    )
    print(f"wrote {matrix.n} rows x {matrix.width} features to {args.out}")
    return 0


def _model_specs(args) -> list[ModelSpec]:
    names = [name.strip() for name in args.models.split(",") if name.strip()]
    if not names:
        raise ValueError("--models must name at least one model")
    for name in names:
        if name not in MODEL_KINDS:
            raise ValueError(f"--models: unknown model {name!r}")
    if len(set(names)) != len(names):
        raise ValueError("--models entries must be unique")
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
    return [ModelSpec(name, name, configs[name]) for name in names]


def _hyper_metadata(args) -> dict:
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


def cmd_evaluate(args) -> int:
    ds = load_labeled_csv(args.features)
    specs = _model_specs(args)
    folds = stratified_kfold(ds, args.k, args.seed)
    report = cross_validate(ds, specs, folds)
    os.makedirs(args.out_dir, exist_ok=True)
    meta = _hyper_metadata(args)

    write_report_csv(report, os.path.join(args.out_dir, "report.csv"), meta)
    write_folds_csv(
        folds, report.ids, os.path.join(args.out_dir, "folds.csv"), meta
    )
    write_fold_scores_csv(
        report, os.path.join(args.out_dir, "fold_scores.csv"), meta
    )
    for name in report.model_names:
        write_confusion_csv(
            report.confusions[name],
            os.path.join(args.out_dir, f"confusion_{name}.csv"), meta,
        )
        write_predictions_csv(
            report, name,
            os.path.join(args.out_dir, f"predictions_{name}.csv"), meta,
        )
    if len(report.model_names) >= 2:
        for metric in COMPARISON_METRICS:
            scores = [
                report.fold_scores[(name, metric)]
                for name in report.model_names
            ]
            names, matrix = compare_models(scores)
            write_comparison_csv(
                names, matrix,
                os.path.join(args.out_dir, f"comparison_{metric}.csv"),
                {**meta, "metric": metric},
            )

    print(f"evaluated {len(report.model_names)} models over k={args.k} folds")
    for name in report.model_names:
        s = report.suites[name]
        print(
            f"  {name}: auc={s.auc:.4f} ca={s.ca:.4f} f1={s.f1:.4f} "
            f"mcc={s.mcc:.4f}"
        )
    return 0


def cmd_cluster(args) -> int:
    matrix = read_features_csv(args.features)
    if matrix.n < 2:
        print("error: --features: clustering needs at least 2 rows",
              file=sys.stderr)
        return 2
    if args.cut_count is not None and args.cut_height is not None:
        print("error: give only one of --cut-count/--cut-height",
              file=sys.stderr)
        return 2
    if args.cut_count is not None and not 1 <= args.cut_count <= matrix.n:
        print(f"error: --cut-count must lie in [1, {matrix.n}]",
              file=sys.stderr)
        return 2
    if args.cut_height is not None and not args.cut_height >= 0.0:
        print("error: --cut-height must be nonnegative", file=sys.stderr)
        return 2
    distances = pairwise_distances(matrix, args.metric, args.normalize)
    dendrogram = agglomerate(distances, args.linkage, matrix.ids)
    os.makedirs(args.out_dir, exist_ok=True)
    meta = {
        "metric": args.metric,
        "normalize": str(args.normalize).lower(),
        "linkage": args.linkage,
    }
    write_distance_csv(
        distances, matrix.ids, os.path.join(args.out_dir, "distances.csv"),
        meta,
    )
    text = export_dendrogram(dendrogram, "text")
    with open(os.path.join(args.out_dir, "dendrogram.txt"), "w") as handle:
        handle.write(metadata_lines(meta) + text)
    with open(os.path.join(args.out_dir, "dendrogram.nwk"), "w") as handle:
        handle.write(export_dendrogram(dendrogram, "newick") + "\n")

    print(f"{matrix.n} rows, {len(dendrogram.merges)} merges "
          f"({args.linkage} linkage, {args.metric} distances)")
    if args.cut_count is not None or args.cut_height is not None:
        assignment = cut_dendrogram(
            dendrogram, count=args.cut_count, height=args.cut_height
        )
        write_assignment_csv(
            assignment, matrix.ids,
            os.path.join(args.out_dir, "clusters.csv"),
            {**meta, "clusters": assignment.count},
        )
        print(f"cut into {assignment.count} clusters -> clusters.csv")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "gen":
            return cmd_gen(args)
        if args.command == "features":
            return cmd_features(args)
        if args.command == "evaluate":
            return cmd_evaluate(args)
        return cmd_cluster(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

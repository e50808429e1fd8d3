"""Command-line pipeline: gen -> features -> evaluate / cluster.

Every subcommand is a pure function of its input files and flags, so
rerunning a command writes byte-identical outputs.  All results are CSV or
text files whose leading `# key: value` lines record the configuration that
produced them.

Exit codes: 0 on success; 2 when a flag is wrong, including `--k` or
`--cut-count` out of range for the input; 1 for a bad input file, training
divergence or an I/O error.  A failed stage removes the `--out`/`--out-dir`
path it created, and never deletes one that existed before it started.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import os
import shutil
import sys
from functools import partial

from . import __version__

# Each stage imports the package modules it runs inside its own cmd_* and
# flag builder, so a stage process loads no module of another stage.


class UsageError(ValueError):
    """A flag value is wrong; `main` exits with code 2."""


def _parse_counts(text: str) -> tuple[int, int, int]:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            "needs three comma-separated values (healthy,crack,erosion)"
        )
    try:
        counts = tuple(int(p) for p in parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    if any(c < 0 for c in counts):
        raise argparse.ArgumentTypeError("values must be nonnegative")
    return counts


def _parse_hidden(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


# evaluate's hyperparameters.  Per model and `--<model>-<key>` flag:
# (TrainConfig field, type, help); the flag's default is the classifiers
# default of its field.  The `# <model>:` metadata line lists
# `<key>=<value>` in this order.
MODEL_FLAGS = {
    "logreg": {
        "rate": ("learning_rate", float, "logistic learning rate"),
        "limit": ("limit", int, "logistic iteration limit"),
        "tolerance": ("tolerance", float, "logistic gradient stop tolerance"),
        "l2": ("l2", float, "logistic L2 strength"),
    },
    "tree": {
        "max_depth": ("max_depth", int, "tree depth cap"),
        "min_leaf": ("min_leaf", int, "minimum samples per leaf"),
    },
    "mlp": {
        "rate": ("learning_rate", float, "MLP learning rate"),
        "epochs": ("limit", int, "MLP epoch count"),
        "l2": ("l2", float, "MLP L2 strength"),
        "hidden": ("hidden", _parse_hidden, "comma list of hidden layer sizes"),
        "activation": ("activation", str, "hidden activation"),
    },
}


class _StageParser(argparse.ArgumentParser):
    """One stage's parser.  `add_flags(parser)` adds its flags as it first
    parses, so only the stage that runs imports what its flags need."""

    def __init__(self, *args, add_flags=None, **kwargs):
        super().__init__(*args, **kwargs)
        self._add_flags = add_flags

    def parse_known_args(self, args=None, namespace=None):
        if self._add_flags is not None:
            add_flags, self._add_flags = self._add_flags, None
            add_flags(self)
        return super().parse_known_args(args, namespace)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blademl",
        description="Deterministic blade-image fault detection pipeline",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_StageParser)
    for name, run, add_flags, text in (
        ("gen", cmd_gen, _gen_flags,
         "generate a seeded synthetic blade-image corpus"),
        ("features", cmd_features, _features_flags,
         "extract feature vectors from a labeled image set"),
        ("evaluate", cmd_evaluate, _evaluate_flags,
         "cross-validate classifiers over a features CSV"),
        ("cluster", cmd_cluster, _cluster_flags,
         "hierarchical clustering over a features CSV"),
    ):
        sub.add_parser(
            name, help=text, add_flags=add_flags,
            formatter_class=argparse.ArgumentDefaultsHelpFormatter,
        ).set_defaults(run=run)
    return parser


def _gen_flags(gen) -> None:
    gen.add_argument("--out", required=True, help="output directory")
    gen.add_argument(
        "--counts", type=_parse_counts, default=(34, 33, 33),
        help="images per class: healthy,crack,erosion",
    )
    gen.add_argument("--seed", type=int, default=0, help="corpus seed")
    gen.add_argument("--width", type=int, default=128, help="image width")
    gen.add_argument("--height", type=int, default=128, help="image height")


def _features_flags(feats) -> None:
    feats.add_argument("--images", required=True, help="image directory")
    feats.add_argument("--labels", required=True, help="id,label CSV")
    feats.add_argument("--out", required=True, help="output features CSV")


def _evaluate_flags(ev) -> None:
    from .classifiers import (
        ACTIVATIONS, LOGISTIC_DEFAULTS, MLP_DEFAULTS, TREE_DEFAULTS,
    )

    defaults = {"logreg": LOGISTIC_DEFAULTS, "tree": TREE_DEFAULTS,
                "mlp": MLP_DEFAULTS}
    ev.add_argument("--features", required=True, help="labeled features CSV")
    ev.add_argument("--out-dir", required=True, help="report directory")
    ev.add_argument("--k", type=int, default=10, help="fold count")
    ev.add_argument("--seed", type=int, default=0,
                    help="seed for fold shuffling and network init")
    ev.add_argument("--models", default="tree,nb,logreg,mlp",
                    help="comma list from tree,nb,logreg,mlp")
    for model, flags in MODEL_FLAGS.items():
        for key, (field, kind, text) in flags.items():
            ev.add_argument(
                f"--{model}-{key.replace('_', '-')}", type=kind,
                default=defaults[model][field], help=text,
                choices=ACTIVATIONS if field == "activation" else None,
            )


def _cluster_flags(cl) -> None:
    from .clustering import LINKAGES, METRICS

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


def _make_out_dir(flag, directory, file=None) -> None:
    """Create the output `directory` and check that the output `file` in
    it is no directory, before any input is read, so that a bad path fails
    at once and the error names its flag."""
    try:
        os.makedirs(directory, exist_ok=True)
        if file is not None and os.path.isdir(file):
            raise IsADirectoryError(
                errno.EISDIR, os.strerror(errno.EISDIR), file)
    except OSError as exc:
        raise OSError(f"{flag}: {exc}") from exc


def cmd_gen(args) -> None:
    from .synthgen import CLASS_NAMES, GenConfig, generate_dataset

    try:
        cfg = GenConfig(args.counts, args.seed, args.width, args.height)
    except ValueError as exc:
        raise UsageError(f"--counts/--width/--height: {exc}") from exc
    _make_out_dir("--out", args.out)
    entries = generate_dataset(cfg, args.out)
    for name, count in zip(CLASS_NAMES, cfg.counts):
        print(f"{name}: {count} images")
    print(f"wrote {len(entries)} files + labels.csv to {args.out}")


def _image_features(images, name):
    from .features import extract_features
    from .raster import load_ppm

    path = os.path.join(images, name)
    try:
        with open(path, "rb") as handle:
            return extract_features(load_ppm(handle.read()))
    except (OSError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from exc


def cmd_features(args) -> None:
    # _image_features decodes with raster: load it once, before the fork.
    from . import raster  # noqa: F401
    from .dataset import load_labeled_csv
    from .features import FEATURE_COLUMNS, FeatureMatrix, write_features_csv
    from .parallel import split_map

    _make_out_dir("--out", os.path.dirname(args.out) or ".", args.out)
    table = load_labeled_csv(args.labels, value_columns=False).matrix
    vectors = list(split_map(partial(_image_features, args.images), table.ids))
    matrix = FeatureMatrix(table.ids, table.labels, list(FEATURE_COLUMNS), vectors)
    write_features_csv(
        matrix, args.out,
        metadata={"images": args.images, "labels": args.labels},
    )
    print(f"wrote {matrix.n} rows x {matrix.width} features to {args.out}")


def _model_specs(args) -> list:
    """One ModelSpec per `--models` entry; every model flag is checked, each
    on its own so the error names it."""
    from .classifiers import TrainConfig
    from .evaluation import ModelSpec

    configs = {"nb": None}
    for model, flags in MODEL_FLAGS.items():
        values = {}
        for key, (field, _, _) in flags.items():
            values[field] = getattr(args, f"{model}_{key}")
            try:
                TrainConfig(**{field: values[field]})
            except ValueError as exc:
                flag = f"--{model}-{key.replace('_', '-')}"
                raise UsageError(f"{flag}: {exc}") from exc
        configs[model] = TrainConfig(**values, seed=args.seed)
    names = [name.strip() for name in args.models.split(",") if name.strip()]
    if not names:
        raise UsageError("--models must name at least one model")
    if len(set(names)) != len(names):
        raise UsageError("--models entries must be unique")
    try:
        return [ModelSpec(name, name, configs.get(name)) for name in names]
    except ValueError as exc:
        raise UsageError(f"--models: {exc}") from exc


def _hyper_metadata(args) -> dict:
    meta = {"k": args.k, "seed": args.seed, "models": args.models}
    for model, flags in MODEL_FLAGS.items():
        values = [getattr(args, f"{model}_{key}") for key in flags]
        meta[model] = " ".join(
            f"{key}={','.join(map(str, v)) if isinstance(v, tuple) else v}"
            for key, v in zip(flags, values))
    meta["mlp"] += f" seed={args.seed}"
    return meta


def cmd_evaluate(args) -> None:
    from .dataset import load_labeled_csv, stratified_kfold, write_folds_csv
    from .evaluation import (
        COMPARISON_METRICS, MODEL_KINDS, compare_models, cross_validate,
        write_comparison_csv, write_confusion_csv, write_fold_scores_csv,
        write_predictions_csv, write_report_csv,
    )

    specs = _model_specs(args)
    if args.k < 2:
        raise UsageError("--k: fold count must be at least 2")
    _make_out_dir("--out-dir", args.out_dir)
    ds = load_labeled_csv(args.features)
    if len(ds.class_names) < 2:
        raise ValueError(f"{args.features}: evaluation needs at least 2 classes")
    try:
        folds = stratified_kfold(ds, args.k, args.seed)
    except ValueError as exc:
        raise UsageError(f"--k: {exc}") from exc
    report = cross_validate(ds, specs, folds)
    compared = COMPARISON_METRICS if len(report.model_names) >= 2 else ()
    out = _prepare_out_dir(
        args.out_dir, _model_files(MODEL_KINDS, COMPARISON_METRICS),
        _model_files(report.model_names, compared))
    meta = _hyper_metadata(args)

    write_report_csv(report, out("report.csv"), meta)
    write_folds_csv(folds, report.ids, out("folds.csv"), meta)
    write_fold_scores_csv(report, out("fold_scores.csv"), meta)
    for name in report.model_names:
        write_confusion_csv(
            report.confusions[name], out(f"confusion_{name}.csv"), meta
        )
        write_predictions_csv(report, name, out(f"predictions_{name}.csv"), meta)
    for metric in compared:
        scores = [
            report.fold_scores[(name, metric)] for name in report.model_names
        ]
        names, matrix = compare_models(scores)
        write_comparison_csv(
            names, matrix, out(f"comparison_{metric}.csv"),
            {**meta, "metric": metric},
        )

    print(f"evaluated {len(report.model_names)} models over k={args.k} folds")
    for name in report.model_names:
        s = report.suites[name]
        print(
            f"  {name}: auc={s.auc:.4f} ca={s.ca:.4f} f1={s.f1:.4f} "
            f"mcc={s.mcc:.4f}"
        )


def cmd_cluster(args) -> None:
    from .clustering import (
        agglomerate, cut_dendrogram, export_dendrogram, pairwise_distances,
        write_assignment_csv, write_distance_csv,
    )
    from .features import read_features_csv
    from .fmt import metadata_lines

    if args.cut_count is not None and args.cut_height is not None:
        raise UsageError("give only one of --cut-count/--cut-height")
    if args.cut_height is not None and not args.cut_height >= 0.0:
        raise UsageError("--cut-height must be nonnegative")
    _make_out_dir("--out-dir", args.out_dir)
    matrix = read_features_csv(args.features)
    if matrix.n < 2:
        raise ValueError(f"{args.features}: clustering needs at least 2 rows")
    if args.cut_count is not None and not 1 <= args.cut_count <= matrix.n:
        raise UsageError(f"--cut-count must lie in [1, {matrix.n}]")
    try:
        distances = pairwise_distances(matrix, args.metric, args.normalize)
    except ValueError as exc:
        raise ValueError(f"{args.features}: {exc}") from exc
    dendrogram = agglomerate(distances, args.linkage, matrix.ids)
    assignment = None
    if args.cut_count is not None or args.cut_height is not None:
        assignment = cut_dendrogram(
            dendrogram, count=args.cut_count, height=args.cut_height
        )
    out = _prepare_out_dir(args.out_dir, ["clusters.csv"],
                           ["clusters.csv"] if assignment is not None else [])
    meta = {"metric": args.metric, "normalize": str(args.normalize).lower(),
            "linkage": args.linkage}
    write_distance_csv(distances, matrix.ids, out("distances.csv"), meta)
    text = export_dendrogram(dendrogram, "text")
    with open(out("dendrogram.txt"), "w") as handle:
        handle.write(metadata_lines(meta))
        handle.write(text)
    with open(out("dendrogram.nwk"), "w") as handle:
        handle.write(export_dendrogram(dendrogram, "newick") + "\n")

    print(f"{matrix.n} rows, {len(dendrogram.merges)} merges "
          f"({args.linkage} linkage, {args.metric} distances)")
    if assignment is not None:
        write_assignment_csv(
            assignment, matrix.ids, out("clusters.csv"),
            {**meta, "clusters": assignment.count},
        )
        print(f"cut into {assignment.count} clusters -> clusters.csv")


def _model_files(models, metrics) -> list[str]:
    """evaluate's per-model and per-comparison artefact names."""
    return [f"{kind}_{model}.csv" for model in models
            for kind in ("confusion", "predictions")] + [
        f"comparison_{metric}.csv" for metric in metrics]


def _prepare_out_dir(out_dir, family, written):
    """Remove the artefacts of `family` in out_dir that this run does not
    write, so none is left from an earlier run, and return a joiner of
    paths in out_dir."""
    for name in sorted(set(family) - set(written)):
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(out_dir, name))
    return partial(os.path.join, out_dir)


def _missing_root(path) -> str | None:
    """The outermost directory or file on `path` that does not exist yet,
    or None if `path` exists."""
    path, root = os.path.abspath(path), None
    while not os.path.lexists(path):
        path, root = os.path.dirname(path), path
    return root


def main(argv=None) -> int:
    """Run one stage; the only place that turns an error into an exit code."""
    args = build_parser().parse_args(argv)
    created = _missing_root(args.out if "out" in args else args.out_dir)
    try:
        args.run(args)
    except BaseException as exc:
        if created is not None and os.path.isdir(created):
            shutil.rmtree(created, ignore_errors=True)
        elif created is not None and os.path.lexists(created):
            os.remove(created)
        if not isinstance(exc, (OSError, ValueError)):
            raise
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, UsageError) else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""End-to-end command-line pipeline checks.

Everything runs in process through cli.main(argv) so exit codes and
stdout/stderr are observable without spawning subprocesses; only the
import check, which needs a fresh interpreter, spawns one.
"""

import csv
import filecmp
import importlib.util
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from blademl import __version__
from blademl import cli, synthgen
from blademl.features import read_features_csv
from digests import artefact_digests, read_pinned

# sha256 of every artefact of the `pipeline` fixture run.
GOLDEN = Path(__file__).resolve().parent / "golden" / "cli.sha256"
TRACED = Path(__file__).resolve().parents[1] / "perfbench" / "traced.py"


def run(*argv):
    return cli.main([str(a) for a in argv])


def _pipeline_argvs(root):
    """The four stage argvs of the `pipeline` run, writing under root."""
    images, feats = root / "images", root / "features.csv"
    return [[str(a) for a in argv] for argv in (
        ("gen", "--out", images, "--counts", "6,6,6", "--seed", 3,
         "--width", 32, "--height", 32),
        ("features", "--images", images, "--labels", images / "labels.csv",
         "--out", feats),
        ("evaluate", "--features", feats, "--out-dir", root / "reports",
         "--k", 2, "--seed", 5, "--logreg-limit", 20, "--mlp-epochs", 2),
        ("cluster", "--features", feats, "--out-dir", root / "clusters",
         "--cut-count", 3),
    )]


def _pipeline_digests(root):
    return artefact_digests(root / "features.csv", {
        "images": root / "images", "reports": root / "reports",
        "clusters": root / "clusters",
    })


def _read_rows(path):
    with open(path, newline="") as handle:
        return list(
            csv.reader(line for line in handle if not line.startswith("#"))
        )


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One full gen -> features -> evaluate -> cluster run, shared."""
    root = tmp_path_factory.mktemp("pipeline")
    for argv in _pipeline_argvs(root):
        assert cli.main(argv) == 0
    return root


def test_gen_artifacts(pipeline):
    images = pipeline / "images"
    names = sorted(os.listdir(images))
    assert "labels.csv" in names
    ppms = [n for n in names if n.endswith(".ppm")]
    assert len(ppms) == 18
    assert "healthy_000.ppm" in ppms and "erosion_017.ppm" in ppms


def test_features_artifact(pipeline):
    rows = _read_rows(pipeline / "features.csv")
    assert rows[0][:2] == ["id", "label"]
    assert len(rows[0]) == 2 + 37
    assert len(rows) == 1 + 18


def test_evaluate_artifacts(pipeline):
    reports = pipeline / "reports"
    names = set(os.listdir(reports))
    expected = {"report.csv", "folds.csv", "fold_scores.csv"}
    for model in ("tree", "nb", "logreg", "mlp"):
        expected.add(f"confusion_{model}.csv")
        expected.add(f"predictions_{model}.csv")
    for metric in ("auc", "ca", "f1", "precision", "recall",
                   "specificity", "log_loss"):
        expected.add(f"comparison_{metric}.csv")
    assert names == expected


def test_report_layout(pipeline):
    rows = _read_rows(pipeline / "reports" / "report.csv")
    assert rows[0] == ["model", "auc", "ca", "f1", "precision", "recall",
                       "mcc", "specificity", "log_loss"]
    assert [r[0] for r in rows[1:]] == ["tree", "nb", "logreg", "mlp"]
    for row in rows[1:]:
        for cell in row[1:]:
            float(cell)


def test_predictions_reproduce_reported_ca(pipeline):
    report = {r[0]: r for r in _read_rows(pipeline / "reports" / "report.csv")}
    for model in ("tree", "nb", "logreg", "mlp"):
        rows = _read_rows(pipeline / "reports" / f"predictions_{model}.csv")
        assert rows[0][:4] == ["id", "fold", "actual", "predicted"]
        hits = sum(1 for r in rows[1:] if r[2] == r[3])
        ca = float(report[model][2])
        assert hits / (len(rows) - 1) == ca


def test_cluster_artifacts(pipeline):
    clusters = pipeline / "clusters"
    names = set(os.listdir(clusters))
    assert names == {"distances.csv", "dendrogram.txt", "dendrogram.nwk",
                     "clusters.csv"}
    rows = _read_rows(clusters / "clusters.csv")
    assert rows[0] == ["id", "cluster"]
    assert len(rows) == 1 + 18
    assert {r[1] for r in rows[1:]} == {"0", "1", "2"}
    newick = (clusters / "dendrogram.nwk").read_text()
    assert newick.endswith(";\n") and newick.count(":") >= 18


def test_pipeline_golden_digests(pipeline):
    assert _pipeline_digests(pipeline) == read_pinned(GOLDEN)


def test_traced_replay_writes_cli_bytes(tmp_path):
    # The benchmark's `--trace 1` replay parses the CLI's argv with
    # cli.build_parser() and restates each stage; it must write what
    # cli.main writes.
    spec = importlib.util.spec_from_file_location("traced", TRACED)
    traced = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced)
    tracer = traced.Tracer("test")
    walls = traced.run_stages(tracer, _pipeline_argvs(tmp_path), tmp_path)
    assert set(walls) == {"gen", "features", "evaluate", "cluster"}
    assert _pipeline_digests(tmp_path) == read_pinned(GOLDEN)


def test_gen_evaluate_and_cluster_skip_numpy_ma(pipeline, tmp_path):
    # A fresh interpreter, so no other test has imported numpy.ma already.
    gen = ["gen", "--out", str(tmp_path / "g"), "--counts", "2,2,2",
           "--width", "32", "--height", "32"]
    feats = str(pipeline / "features.csv")
    evaluate = ["evaluate", "--features", feats, "--out-dir", str(tmp_path / "r"),
                "--k", "2", "--seed", "5", "--logreg-limit", "20",
                "--mlp-epochs", "2"]
    cluster = ["cluster", "--features", feats, "--out-dir", str(tmp_path / "c"),
               "--cut-count", "3"]
    script = (
        "import sys\n"
        "from blademl import cli\n"
        f"assert cli.main({gen!r}) == 0\n"
        f"assert cli.main({evaluate!r}) == 0\n"
        f"assert cli.main({cluster!r}) == 0\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, check=True)
    assert done.stdout.splitlines()[-1] == "False"


@pytest.mark.parametrize("cpus", [{0}, {0, 1}], ids=["one-cpu", "two-cpus"])
def test_pipeline_bytes_do_not_depend_on_cpu_count(tmp_path, monkeypatch,
                                                   cpus):
    # split_map forks only with two or more CPUs in the affinity, so the
    # two runs take the in-process path and the forked one on any host.
    forks = []
    fork = os.fork

    def counted_fork():
        forks.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    monkeypatch.setattr(os, "fork", counted_fork)
    for argv in _pipeline_argvs(tmp_path):
        assert cli.main(argv) == 0
    assert _pipeline_digests(tmp_path) == read_pinned(GOLDEN)
    # One split each in gen, features, evaluate and cluster.
    assert len(forks) == (4 if len(cpus) > 1 else 0)


def test_failing_worker_leaves_the_stage_whole(pipeline, tmp_path,
                                               monkeypatch, capsys):
    # The worker fails on its first image and delivers nothing; the stage
    # renders every image itself, and no cleanup of cli.main runs in the
    # worker to remove the fresh --out.
    parent, render = os.getpid(), synthgen.generate_image

    def generate_image(*args):
        if os.getpid() != parent:
            raise OSError("worker failure")
        return render(*args)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(synthgen, "generate_image", generate_image)
    images = tmp_path / "new" / "images"
    assert cli.main(_pipeline_argvs(tmp_path / "new")[0]) == 0
    assert capsys.readouterr().err == ""
    match, mismatch, errors = filecmp.cmpfiles(
        pipeline / "images", images, os.listdir(pipeline / "images"),
        shallow=False)
    assert not mismatch and not errors
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_failed_image_write_leaves_no_worker(tmp_path, monkeypatch, capsys):
    out = tmp_path / "images"
    (out / "crack_008.ppm").mkdir(parents=True)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    assert cli.main(_pipeline_argvs(tmp_path)[0]) == 1
    assert "crack_008.ppm" in capsys.readouterr().err
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert (out / "crack_007.ppm").exists()


def test_rerun_byte_identical(pipeline, tmp_path):
    for argv in _pipeline_argvs(tmp_path):
        assert cli.main(argv) == 0
    for sub in ("images", "reports", "clusters"):
        base = pipeline / sub
        match, mismatch, errors = filecmp.cmpfiles(
            base, tmp_path / sub, os.listdir(base), shallow=False
        )
        assert not mismatch and not errors, (sub, mismatch, errors)


def test_single_model_skips_comparisons(pipeline, tmp_path):
    out = tmp_path / "solo"
    assert run("evaluate", "--features", pipeline / "features.csv",
               "--out-dir", out, "--k", 2, "--seed", 5,
               "--models", "nb") == 0
    names = os.listdir(out)
    assert not [n for n in names if n.startswith("comparison_")]
    rows = _read_rows(out / "report.csv")
    assert len(rows) == 2 and rows[1][0] == "nb"


def test_rerun_removes_stale_artefacts(pipeline, tmp_path):
    # An artefact of an earlier run into the same --out-dir that this run
    # does not write is removed before the first write; other files stay.
    feats = pipeline / "features.csv"
    reports, clusters = tmp_path / "reports", tmp_path / "clusters"
    evaluate = ("evaluate", "--features", feats, "--out-dir", reports,
                "--k", 2, "--seed", 5, "--logreg-limit", 20, "--mlp-epochs", 2)
    assert run(*evaluate) == 0
    (reports / "notes.txt").write_text("kept\n")
    assert run(*evaluate, "--models", "nb") == 0
    assert set(os.listdir(reports)) == {
        "report.csv", "folds.csv", "fold_scores.csv", "confusion_nb.csv",
        "predictions_nb.csv", "notes.txt"}
    assert run("cluster", "--features", feats, "--out-dir", clusters,
               "--cut-count", 3) == 0
    assert run("cluster", "--features", feats, "--out-dir", clusters) == 0
    assert set(os.listdir(clusters)) == {
        "distances.csv", "dendrogram.txt", "dendrogram.nwk"}
    # A failed run removes nothing.
    assert run(*evaluate, "--models", "nb,tree") == 0
    assert run(*evaluate, "--models", "nb", "--mlp-l2", "nan") == 2
    assert run(*evaluate, "--models", "nb", "--features", clusters /
               "distances.csv") == 1
    assert "confusion_tree.csv" in os.listdir(reports)
    assert "comparison_auc.csv" in os.listdir(reports)


def test_cluster_linkage_choice(pipeline, tmp_path):
    feats = pipeline / "features.csv"
    for linkage in ("single", "complete"):
        out = tmp_path / linkage
        assert run("cluster", "--features", feats, "--out-dir", out,
                   "--linkage", linkage, "--no-normalize") == 0

    def root_height(path):
        for line in path.read_text().splitlines():
            if line.startswith("node "):
                return float(line.split()[1])
        raise AssertionError("no root line")

    single = root_height(tmp_path / "single" / "dendrogram.txt")
    complete = root_height(tmp_path / "complete" / "dendrogram.txt")
    assert complete >= single


def test_gen_rejects_empty_corpus(tmp_path, capsys):
    assert run("gen", "--out", tmp_path / "x", "--counts", "0,0,0") == 2
    assert "error: --counts/--width/--height: corpus must contain at least " \
        "one image" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_gen_rejects_small_width(tmp_path, capsys):
    assert run("gen", "--out", tmp_path / "x", "--counts", "1,1,1",
               "--width", 8) == 2
    assert "error: --counts/--width/--height: image size must be at least " \
        "16x16" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_counts_parse_errors(tmp_path, capsys):
    with pytest.raises(SystemExit):
        run("gen", "--out", tmp_path / "x", "--counts", "1,2")
    with pytest.raises(SystemExit):
        run("gen", "--out", tmp_path / "x", "--counts", "1,2,oops")
    with pytest.raises(SystemExit):
        run("gen", "--out", tmp_path / "x", "--counts", "1,2,-3")
    capsys.readouterr()


def test_missing_inputs_exit_1(tmp_path, capsys):
    assert run("features", "--images", tmp_path, "--labels",
               tmp_path / "nope.csv", "--out", tmp_path / "f.csv") == 1
    assert run("evaluate", "--features", tmp_path / "nope.csv",
               "--out-dir", tmp_path / "r") == 1
    assert run("cluster", "--features", tmp_path / "nope.csv",
               "--out-dir", tmp_path / "c") == 1
    err = capsys.readouterr().err
    assert err.count("error") == 3
    assert os.listdir(tmp_path) == []


def test_features_missing_image_exit_1(pipeline, tmp_path, capsys):
    labels = tmp_path / "labels.csv"
    labels.write_text("id,label\nghost.ppm,healthy\n")
    assert run("features", "--images", tmp_path, "--labels", labels,
               "--out", tmp_path / "f.csv") == 1
    assert "ghost.ppm" in capsys.readouterr().err
    assert not (tmp_path / "f.csv").exists()


def test_features_rejects_repeated_image(pipeline, tmp_path, capsys):
    # A repeated image would repeat its id in features.csv, clusters.csv
    # and the dendrogram leaves.
    labels = tmp_path / "labels.csv"
    labels.write_text("id,label\nhealthy_000.ppm,healthy\ncrack_006.ppm,crack\n"
                      "healthy_000.ppm,healthy\n")
    out = tmp_path / "f.csv"
    assert run("features", "--images", pipeline / "images", "--labels", labels,
               "--out", out) == 1
    assert f"error: {labels}: duplicate id 'healthy_000.ppm' on data rows 1 " \
        "and 3" in capsys.readouterr().err
    assert not out.exists()


def test_features_undersized_image_exit_1(pipeline, tmp_path, capsys):
    # A 2x2 P6 decodes but has no Sobel interior; the error names its path
    # even after an earlier image was extracted.
    (tmp_path / "healthy_000.ppm").write_bytes(
        (pipeline / "images" / "healthy_000.ppm").read_bytes())
    (tmp_path / "tiny.ppm").write_bytes(b"P6\n2 2\n255\n" + bytes(range(12)))
    labels = tmp_path / "labels.csv"
    labels.write_text("id,label\nhealthy_000.ppm,healthy\ntiny.ppm,crack\n")
    out = tmp_path / "features.csv"
    assert run("features", "--images", tmp_path, "--labels", labels,
               "--out", out) == 1
    err = capsys.readouterr().err
    assert f"error: {tmp_path / 'tiny.ppm'}: image smaller than 3x3" in err
    assert not out.exists()


def test_features_keeps_hash_prefixed_image(pipeline, tmp_path):
    # Only the `#` lines before the header are metadata.
    images = pipeline / "images"
    labels = (images / "labels.csv").read_text()
    assert "crack_006.ppm" in labels
    for name in os.listdir(images):
        target = "#crack_006.ppm" if name == "crack_006.ppm" else name
        (tmp_path / target).write_bytes((images / name).read_bytes())
    (tmp_path / "labels.csv").write_text(
        labels.replace("crack_006.ppm", "#crack_006.ppm")
    )
    feats = tmp_path / "f.csv"
    assert run("features", "--images", tmp_path,
               "--labels", tmp_path / "labels.csv", "--out", feats) == 0
    ids = read_features_csv(feats).ids
    assert len(ids) == 18 and "#crack_006.ppm" in ids


def test_nonfinite_features_exit_1(pipeline, tmp_path, capsys):
    lines = (pipeline / "features.csv").read_text().splitlines(keepends=True)
    header = next(i for i, line in enumerate(lines) if line.startswith("id,"))
    cells = lines[header + 5].split(",")
    cells[7] = "nan"
    lines[header + 5] = ",".join(cells)
    feats = tmp_path / "f.csv"
    feats.write_text("".join(lines))
    out = tmp_path / "r"
    assert run("evaluate", "--features", feats, "--out-dir", out,
               "--k", 2, "--models", "tree") == 1
    assert f"error: {feats}: non-finite value on data row 5" in \
        capsys.readouterr().err
    assert not out.exists()
    assert run("cluster", "--features", feats,
               "--out-dir", tmp_path / "c") == 1
    assert f"error: {feats}: non-finite value on data row 5" in \
        capsys.readouterr().err
    assert not (tmp_path / "c").exists()


def test_cluster_rejects_both_cut_flags(pipeline, tmp_path, capsys):
    assert run("cluster", "--features", pipeline / "features.csv",
               "--out-dir", tmp_path / "c",
               "--cut-count", 2, "--cut-height", 1.0) == 2
    assert "only one" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [
    ("--cut-count", 0), ("--cut-count", 19), ("--cut-height", -1.0),
])
def test_cluster_bad_cut_writes_nothing(pipeline, tmp_path, capsys, flags):
    out = tmp_path / "c"
    assert run("cluster", "--features", pipeline / "features.csv",
               "--out-dir", out, *flags) == 2
    assert flags[0] in capsys.readouterr().err
    assert not out.exists()


def test_evaluate_diverging_mlp_exit_1(pipeline, tmp_path, capsys):
    out = tmp_path / "r"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = run("evaluate", "--features", pipeline / "features.csv",
                   "--out-dir", out, "--k", 2, "--models", "mlp",
                   "--mlp-epochs", 2, "--mlp-rate", 1e300)
    assert code == 1
    err = capsys.readouterr().err
    assert "error: model 'mlp': fold 0: MLP weights became non-finite " \
        "in epoch 1 of 2" in err
    assert not out.exists()


def test_evaluate_diverging_logreg_exit_1(pipeline, tmp_path, capsys):
    out = tmp_path / "r"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = run("evaluate", "--features", pipeline / "features.csv",
                   "--out-dir", out, "--k", 2, "--models", "logreg",
                   "--logreg-rate", 1e300)
    assert code == 1
    err = capsys.readouterr().err
    assert "error: model 'logreg': fold 0: logistic gradient for class " \
        "'healthy' became non-finite in iteration " in err
    assert err.rstrip().endswith("of 1000")
    assert not out.exists()


def test_evaluate_rejects_unknown_model(pipeline, tmp_path, capsys):
    assert run("evaluate", "--features", pipeline / "features.csv",
               "--out-dir", tmp_path / "r", "--models", "tree,svm") == 2
    assert "svm" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


def test_help_and_version(capsys):
    with pytest.raises(SystemExit) as info:
        run("--version")
    assert info.value.code == 0
    assert __version__ in capsys.readouterr().out
    with pytest.raises(SystemExit) as info:
        run("evaluate", "--help")
    assert info.value.code == 0
    text = capsys.readouterr().out
    for flag in ("--features", "--out-dir", "--k", "--seed", "--models",
                 "--logreg-rate", "--tree-max-depth", "--mlp-hidden"):
        assert flag in text


# ---------------------------------------------------------------------------
# Exit codes: 2 for a wrong flag, 1 for a bad input file, a training
# divergence or an I/O error.  A failed stage leaves nothing at an output
# path that did not exist before it started.


def _fails_after(writer):
    """`writer` that raises OSError once it has written its artefact."""
    def write(*args, **kwargs):
        writer(*args, **kwargs)
        raise OSError("injected write failure")
    return write


@pytest.fixture(scope="module")
def bad(tmp_path_factory):
    """Directory of broken inputs; `nope.csv` in it does not exist."""
    root = tmp_path_factory.mktemp("bad")
    (root / "header.csv").write_text("name,label\nx.ppm,healthy\n")
    (root / "malformed.csv").write_text("id,label\nx.ppm\n")
    (root / "no-rows.csv").write_text("id,label\n")
    (root / "one-row.csv").write_text("id,label,c0\nr0,a,1\n")
    (root / "dup.csv").write_text("id,label,c0,c0\nr0,a,1,2\nr1,b,3,4\n")
    (root / "one-class.csv").write_text(
        "id,label,c0\n" + "".join(f"r{i},a,{i}\n" for i in range(4)))
    # Each defect once, in a file that every reader (labels.csv too) reads
    # up to it.
    (root / "missing-id.csv").write_text("id,label,c0\nr0,a,1\n,b,2\n")
    (root / "dup-id.csv").write_text("id,label,c0\nr0,a,1\nr1,b,2\nr0,a,3\n")
    (root / "short-row.csv").write_text("id,label,c0\nr0,a,1\nr1,b\n")
    (root / "non-numeric.csv").write_text("id,label,c0\nr0,a,1\nr1,b,x\n")
    (root / "no-values.csv").write_text("id,label\nr0,a\nr1,b\n")
    (root / "huge-cell.csv").write_text(
        "id,label,c0,f003\nr0,a,0,0\nr1,b,1,0.5\nr2,a,2,1\nr3,b,3,1e200\n")
    (root / "huge-column.csv").write_text("id,label,c0,f003\n" + "".join(
        f"r{i},{'ab'[i % 2]},{i},1e308\n" for i in range(4)))
    # 2 rows of 37 cells at +-0.99 of the reader's magnitude bound: each
    # column's statistics are finite, the rows' euclidean distance is not.
    cell = 0.99 * math.sqrt(sys.float_info.max / 16)
    (root / "overflow.csv").write_text(
        "id,label," + ",".join(f"c{j}" for j in range(37)) + "\n"
        + "".join(f"r{i},a," + ",".join([repr(sign * cell)] * 37) + "\n"
                  for i, sign in enumerate((1, -1))))
    return root


GEN = ("gen", "--out", "{out}", "--counts", "1,1,1", "--width", 16,
       "--height", 16)
EVALUATE = ("evaluate", "--features", "{feats}", "--out-dir", "{out}",
            "--k", 2)
CLUSTER = ("cluster", "--features", "{feats}", "--out-dir", "{out}")
MISSING = "{bad}/nope.csv"

# (id, argv, exit code, message, (module, writer) made to fail).
# A flag given twice takes its last value.  The flag errors given MISSING
# as input show that the flag is checked before the input is read.
EXIT_CASES = [
    ("gen-write-fails", GEN, 1, "error: injected write failure",
     (synthgen, "write_csv")),
    ("gen-non-integer-counts", GEN + ("--counts", "1,2,oops"), 2,
     "\nblademl gen: error: argument --counts: invalid literal for int() "
     "with base 10: 'oops'\n"),
    ("features-bad-header", ("features", "--images", "{bad}", "--labels",
                             "{bad}/header.csv", "--out", "{csv}"), 1,
     "error: {bad}/header.csv: header must start with id,label"),
    ("features-malformed-label-row",
     ("features", "--images", "{bad}", "--labels", "{bad}/malformed.csv",
      "--out", "{csv}"), 1, "error: {bad}/malformed.csv: wrong column count "
     "on data row 1 (1 cells, expected 2)"),
    ("features-no-label-rows",
     ("features", "--images", "{bad}", "--labels", "{bad}/no-rows.csv",
      "--out", "{csv}"), 1, "error: {bad}/no-rows.csv: no data rows"),
    ("features-write-fails", ("features", "--images", "{images}", "--labels",
                              "{images}/labels.csv", "--out", "{csv}"), 1,
     "error: injected write failure", (cli, "write_features_csv")),
    ("evaluate-no-models", EVALUATE + ("--features", MISSING, "--models", ","),
     2, "error: --models must name at least one model"),
    ("evaluate-repeated-model", EVALUATE + ("--models", "tree,tree"), 2,
     "error: --models entries must be unique"),
    ("evaluate-k-1", EVALUATE + ("--k", 1), 2,
     "error: --k: fold count must be at least 2"),
    ("evaluate-k-1-missing-features", EVALUATE + ("--features", MISSING,
                                                   "--k", 1), 2,
     "error: --k: fold count must be at least 2"),
    ("evaluate-k-above-class-count", EVALUATE + ("--k", 7), 2,
     "error: --k: k=7 exceeds the smallest class count (6)"),
    ("evaluate-nan-tolerance",
     EVALUATE + ("--features", MISSING, "--logreg-tolerance", "nan"),
     2, "error: --logreg-tolerance: tolerance must be nonnegative and finite"),
    ("evaluate-nan-l2",
     EVALUATE + ("--features", MISSING, "--logreg-l2", "nan"), 2,
     "error: --logreg-l2: L2 strength must be nonnegative and finite"),
    ("evaluate-inf-mlp-l2",
     EVALUATE + ("--features", MISSING, "--mlp-l2", "inf"), 2,
     "error: --mlp-l2: L2 strength must be nonnegative and finite"),
    ("evaluate-zero-hidden",
     EVALUATE + ("--features", MISSING, "--mlp-hidden", "4,0"), 2,
     "error: --mlp-hidden: hidden layer sizes must all be at least 1"),
    ("evaluate-non-integer-hidden",
     EVALUATE + ("--features", MISSING, "--mlp-hidden", "4,x"), 2,
     "\nblademl evaluate: error: argument --mlp-hidden: invalid literal for "
     "int() with base 10: 'x'\n"),
    ("evaluate-one-class", EVALUATE + ("--features", "{bad}/one-class.csv"),
     1, "error: {bad}/one-class.csv: evaluation needs at least 2 classes"),
    ("evaluate-write-fails", EVALUATE + ("--models", "tree,nb"), 1,
     "error: injected write failure", (cli, "write_fold_scores_csv")),
    ("cluster-both-cuts",
     CLUSTER + ("--features", MISSING, "--cut-count", 2, "--cut-height", 1.0),
     2, "error: give only one of --cut-count/--cut-height"),
    ("cluster-negative-height",
     CLUSTER + ("--features", MISSING, "--cut-height", -1.0), 2,
     "error: --cut-height must be nonnegative"),
    ("cluster-one-row", CLUSTER + ("--features", "{bad}/one-row.csv"), 1,
     "error: {bad}/one-row.csv: clustering needs at least 2 rows\n"),
    ("cluster-no-normalize-overflow",
     CLUSTER + ("--features", "{bad}/overflow.csv", "--no-normalize"), 1,
     "error: {bad}/overflow.csv: euclidean distance between data rows 1 and "
     "2 overflows\n"),
    ("cluster-duplicate-columns", CLUSTER + ("--features", "{bad}/dup.csv"),
     1, "error: {bad}/dup.csv: duplicate column names in header"),
    ("cluster-write-fails", CLUSTER + ("--cut-count", 3), 1,
     "error: injected write failure", (cli, "write_assignment_csv")),
]

# One reader checks labels.csv and every features file: each defect exits 1
# with the same message, naming the file and the row or rows, in each stage.
READ_DEFECTS = [
    ("missing-id", "missing id on data row 2"),
    ("dup-id", "duplicate id 'r0' on data rows 1 and 3"),
    ("short-row", "wrong column count on data row 2 (2 cells, expected 3)"),
    ("non-numeric", "non-numeric value on data row 2"),
    ("no-values", "header row has no value column after id,label"),
    ("huge-cell", "column f003: a magnitude of 2.37e+153 or more can overflow "
     "the mean or sd of 4 rows"),
    ("huge-column", "column f003: a magnitude of 2.37e+153 or more can "
     "overflow the mean or sd of 4 rows"),
]
# A labels.csv has no value columns, so only the row defects apply to it.
EXIT_CASES += [
    (f"{stage}-{defect}", argv + (f"{{bad}}/{defect}.csv",), 1,
     f"error: {{bad}}/{defect}.csv: {message}\n")
    for stage, argv, defects in [
        ("features", ("features", "--images", "{bad}", "--out", "{csv}",
                      "--labels"), READ_DEFECTS[:4]),
        ("evaluate", EVALUATE + ("--features",), READ_DEFECTS),
        ("cluster", CLUSTER + ("--features",), READ_DEFECTS),
    ]
    for defect, message in defects
]


@pytest.mark.parametrize("argv,code,message,writer",
                         [pytest.param(*case[1:4], case[4] if len(case) > 4
                                       else None, id=case[0])
                          for case in EXIT_CASES])
def test_exit_codes(pipeline, bad, tmp_path, capsys, monkeypatch,
                    argv, code, message, writer):
    paths = {"out": tmp_path / "new" / "out", "csv": tmp_path / "f.csv",
             "feats": pipeline / "features.csv",
             "images": pipeline / "images", "bad": bad}
    if writer is not None:
        module, name = writer
        monkeypatch.setattr(module, name, _fails_after(getattr(module, name)))
    try:
        got = run(*(str(a).format(**paths) for a in argv))
    except SystemExit as exc:  # argparse rejects a flag's value itself
        got = exc.code
    assert got == code
    assert message.format(**paths) in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_failed_stage_keeps_existing_output(pipeline, tmp_path, monkeypatch,
                                            capsys):
    out = tmp_path / "reports"
    out.mkdir()
    (out / "notes.txt").write_text("kept\n")
    monkeypatch.setattr(cli, "write_fold_scores_csv",
                        _fails_after(cli.write_fold_scores_csv))
    assert run("evaluate", "--features", pipeline / "features.csv",
               "--out-dir", out, "--k", 2, "--models", "nb") == 1
    assert (out / "notes.txt").read_text() == "kept\n"
    assert (out / "report.csv").exists()
    assert run("evaluate", "--features", pipeline / "features.csv",
               "--out-dir", out, "--k", 1) == 2
    feats = tmp_path / "features.csv"
    feats.write_text("kept\n")
    assert run("features", "--images", tmp_path, "--labels",
               tmp_path / "nope.csv", "--out", feats) == 1
    assert feats.read_text() == "kept\n"
    assert (out / "notes.txt").read_text() == "kept\n"
    assert capsys.readouterr().err.count("error: ") == 3


def test_interrupted_stage_removes_fresh_output(pipeline, tmp_path,
                                                monkeypatch):
    def interrupt(*args, **kwargs):
        raise KeyboardInterrupt
    monkeypatch.setattr(cli, "write_distance_csv", interrupt)
    with pytest.raises(KeyboardInterrupt):
        run("cluster", "--features", pipeline / "features.csv",
            "--out-dir", tmp_path / "new" / "out")
    assert os.listdir(tmp_path) == []

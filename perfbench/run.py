"""Benchmark of the blademl gen -> features -> evaluate -> cluster pipeline.

    python3 perfbench/run.py --workload acceptance --seed 42 --seconds 60 --trace 0

Run from the root of a source checkout; the package is imported from `src/`.
One client runs the CLI stages in order, one process at a time (a closed
loop), and repeats the whole pipeline until `--seconds` would be exceeded.
`--trace 0` prints the end-to-end metrics; `--trace 1` also replays every
stage in-process with spans (see traced.py) and prints the per-layer
metrics.  The last stdout line is the JSON result.  Work files, run records
and traces go under `.perfbench_work/`.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import compileall
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
GOLDEN = os.path.join(ROOT, "perfbench", "golden")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")

# At seed 42 the acceptance workload is the README/A4 run: gen --seed 42,
# evaluate --seed 7 (= 42 // 6).  Digests are pinned at this seed.
DEFAULT_SEED = 42
K = 10
CUT_COUNT = 3
MLP_EPOCHS = 200
# A hung stage is killed early enough for the run to end within 3 minutes.
STAGE_TIMEOUT_S = 90
# Argument that runs this file as the stage launcher (see serve_stages).
SERVE_STAGES = "--serve-stages"
STARTUP_PROBES = 5
# A4's floors, checked on every acceptance run.
A4_MIN_CA = 0.85
A4_MIN_AUC = 0.90
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


@dataclass(frozen=True)
class Workload:
    counts: tuple[int, int, int]
    size: int
    models: str
    linkage: str
    # The corpus is re-encoded as P3 during set-up and the gen stage is not
    # run, so the features stage reads the set-up corpus.
    ascii: bool = False


WORKLOADS = {
    # The README/ROADMAP run: per-sample MLP SGD dominates.
    "acceptance": Workload((34, 33, 33), 128, "tree,nb,logreg,mlp", "average"),
    # 450 rows: agglomeration dominates, distance temporaries set peak RSS;
    # the MLP is left out so tree/logreg/metric work at larger n shows.
    "cluster-scale": Workload((150, 150, 150), 64, "tree,nb,logreg", "ward"),
    # Large P6 images: feature extraction dominates, later stages are cheap.
    "image-ingest": Workload((50, 50, 50), 256, "tree,nb", "average"),
    # ASCII P3 images: the pure-Python P3 tokenizer dominates.
    "ascii-ingest": Workload((10, 10, 10), 128, "tree,nb", "average", ascii=True),
}

# Spans summed into the per-layer `<span>_s` metrics.
SPAN_METRICS = (
    "synthgen.generate_image", "raster.load_ppm", "raster.write_ppm",
    "features.extract", "features.zscore", "features.write_csv",
    "features.read_csv", "dataset.load", "dataset.kfold", "dataset.subset",
    "classifiers.train_tree", "classifiers.train_nb",
    "classifiers.train_logreg", "classifiers.train_mlp",
    "classifiers.predict", "evaluation.metrics", "evaluation.compare",
    "evaluation.write", "clustering.distances", "clustering.agglomerate",
    "clustering.cut", "clustering.export", "clustering.write",
)
# Spans whose per-call distribution is reported as `<span>_p50_ms` and
# `<span>_tail_ms`.
PER_CALL = ("raster.load_ppm", "features.extract")
LAYERS = ("synthgen", "raster", "features", "dataset", "classifiers",
          "evaluation", "clustering")
STAGES = ("gen", "features", "evaluate", "cluster")


def stage_argvs(w: Workload, seed: int) -> list[list[str]]:
    """CLI argv per stage, with paths relative to the stage's working dir."""
    images = "../inputs/corpus" if w.ascii else "corpus"
    argvs = [] if w.ascii else [[
        "gen", "--out", "corpus", "--counts", ",".join(map(str, w.counts)),
        "--seed", str(seed), "--width", str(w.size), "--height", str(w.size),
    ]]
    return argvs + [
        ["features", "--images", images, "--labels", f"{images}/labels.csv",
         "--out", "features.csv"],
        ["evaluate", "--features", "features.csv", "--out-dir", "reports",
         "--k", str(K), "--seed", str(seed // 6), "--models", w.models],
        ["cluster", "--features", "features.csv", "--out-dir", "clusters",
         "--linkage", w.linkage, "--cut-count", str(CUT_COUNT)],
    ]


def work_counts(w: Workload, cli_dir: str, inputs_dir: str) -> dict:
    """Machine-independent work per pipeline, from the config and files."""
    corpus = os.path.join(inputs_dir if w.ascii else cli_dir, "corpus")
    decoded = sum(
        os.path.getsize(os.path.join(corpus, name))
        for name in os.listdir(corpus) if name.endswith(".ppm")
    )
    models = w.models.split(",")
    n = sum(w.counts)
    return {
        "synthgen.images": 0 if w.ascii else n,
        "raster.bytes_decoded": decoded,
        "features.rows": n,
        "classifiers.fits": len(models) * K,
        # Each row sits in k - 1 training parts; one SGD step per row/epoch.
        "classifiers.mlp_sgd_steps":
            MLP_EPOCHS * (K - 1) * n if "mlp" in models else 0,
        "clustering.pairs": n * (n - 1) // 2,
        "fmt.bytes_written": sum(
            os.path.getsize(os.path.join(d, name))
            for d, _, names in os.walk(cli_dir) for name in names
        ),
    }


def digests(root: str, prefix: str = "") -> dict[str, str]:
    out = {}
    for d, _, names in os.walk(root):
        for name in names:
            path = os.path.join(d, name)
            with open(path, "rb") as handle:
                digest = hashlib.sha256(handle.read()).hexdigest()
            out[prefix + os.path.relpath(path, root).replace(os.sep, "/")] = digest
    return dict(sorted(out.items()))


def read_golden(path: str) -> dict[str, str]:
    with open(path) as handle:
        return dict(
            (rel, digest) for digest, rel in
            (line.split(None, 1) for line in handle.read().splitlines())
        )


def a4_failures(report_path: str) -> list[str]:
    with open(report_path, newline="") as handle:
        rows = list(csv.DictReader(
            line for line in handle if not line.startswith("#")
        ))
    return [
        f"{row['model']}: ca={row['ca']} auc={row['auc']}"
        for row in rows
        if not (float(row["ca"]) >= A4_MIN_CA and float(row["auc"]) >= A4_MIN_AUC)
    ]


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def tail_percentile(n: int) -> float:
    """Highest of the usual percentiles with at least 10 samples beyond it."""
    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (1.0 - p / 100.0) >= 10:
            return p
    return 50.0


def child_env() -> dict:
    """Environment that makes child interpreters import the package from
    this checkout's src/."""
    return dict(os.environ, PYTHONPATH=SRC)


def run_stage(argv: list[str], cwd: str, log: str) -> tuple[int, float, float]:
    """Spawn one stage; returns exit code, wall seconds, peak RSS (MB)."""
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "blademl", *argv], cwd=cwd,
            env=child_env(), stdout=out, stderr=subprocess.STDOUT,
        )
        timer = threading.Timer(STAGE_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def serve_stages() -> int:
    """Stage launcher: runs the stage given on each stdin line as JSON
    `[argv, cwd, log]` and answers with `[code, wall, rss_mb]`.

    On Linux a child's ru_maxrss also counts the peak RSS of the process
    that spawned it, because exec records the old address space's high-water
    mark.  The benchmark process holds numpy and the set-up corpus, so the
    stages are spawned from this small process, which imports neither.
    """
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    for line in sys.stdin:
        print(json.dumps(run_stage(*json.loads(line))), flush=True)
    return 0


def start_launcher() -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), SERVE_STAGES],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    )


def reset_dir(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)


class Bench:
    """One benchmark run of one workload: its work directory, the counts
    of attempted and failed operations, and the measurement loop."""

    def __init__(self, args, w: Workload, launcher: subprocess.Popen):
        self.args = args
        self.w = w
        self.launcher = launcher
        self.argvs = stage_argvs(w, args.seed)
        self.run_id = (
            f"{args.workload}-s{args.seed}-t{args.trace}-"
            f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
        )
        self.work = os.path.join(WORK_ROOT, self.run_id)
        self.inputs = os.path.join(self.work, "inputs")
        self.cli_dir = os.path.join(self.work, "cli")
        self.traced_dir = os.path.join(self.work, "traced")
        self.attempted = 0
        self.failures: list[str] = []
        self.first_digests: dict | None = None
        self.golden: dict | None = None
        self.iterations: list[dict] = []
        self.trace_path: str | None = None

    def check(self, ok: bool, what: str) -> bool:
        """Count one operation; a failed one is recorded and reported."""
        self.attempted += 1
        if not ok:
            self.failures.append(what)
            print(f"FAILED: {what}", file=sys.stderr)
        return ok

    # -- set-up -----------------------------------------------------------

    def build_inputs(self) -> float:
        """Render the workload's corpus in-process into inputs/corpus.

        For P6 workloads it is the expected output of the gen stage; for
        the ASCII workload it is the stage input, re-encoded as P3.
        """
        from blademl import GenConfig, generate_dataset, load_ppm, write_ppm

        shutil.rmtree(self.inputs, ignore_errors=True)
        corpus = os.path.join(self.inputs, "corpus")
        start = time.perf_counter()
        generate_dataset(
            GenConfig(self.w.counts, self.args.seed, self.w.size, self.w.size),
            corpus,
        )
        if self.w.ascii:
            for name in os.listdir(corpus):
                if name.endswith(".ppm"):
                    path = os.path.join(corpus, name)
                    with open(path, "rb") as handle:
                        raster = load_ppm(handle.read())
                    with open(path, "wb") as handle:
                        handle.write(write_ppm(raster, binary=False))
        return time.perf_counter() - start

    # -- CLI stages -------------------------------------------------------

    def run_stage(self, argv: list[str]) -> tuple[int, float, float]:
        """Run one stage through the launcher; returns exit code, wall
        seconds and peak RSS (MB)."""
        log = os.path.join(self.work, f"{argv[0]}.log")
        self.launcher.stdin.write(json.dumps([argv, self.cli_dir, log]) + "\n")
        self.launcher.stdin.flush()
        reply = self.launcher.stdout.readline()
        if not reply:
            raise RuntimeError("stage launcher exited")
        code, wall, rss = json.loads(reply)
        if code != 0:
            with open(log, errors="replace") as handle:
                sys.stderr.write(handle.read()[-2000:])
        return code, wall, rss

    def cli_iteration(self) -> dict | None:
        """Set-up, one untraced pipeline, and its output checks.

        Set-up runs once per iteration, so its samples spread over the run
        like the pipeline's do.
        """
        setup_s = self.build_inputs()
        reset_dir(self.cli_dir)
        walls = {}
        rss = 0.0
        for argv in self.argvs:
            code, wall, mb = self.run_stage(argv)
            if not self.check(code == 0, f"stage {argv[0]} exited {code}"):
                return None
            walls[argv[0]] = wall
            rss = max(rss, mb)
        got = self.pinned_digests()
        if not self.w.ascii:
            self.check(
                digests(os.path.join(self.cli_dir, "corpus"))
                == digests(os.path.join(self.inputs, "corpus")),
                "gen output differs from the in-process corpus",
            )
        if self.first_digests is None:
            self.first_digests = got
        else:
            self.check(got == self.first_digests,
                       "artefacts differ from the first iteration")
        if self.golden is not None:
            self.check(got == self.golden,
                       "artefacts differ from the pinned digests")
        if self.args.workload == "acceptance":
            bad = a4_failures(os.path.join(self.cli_dir, "reports", "report.csv"))
            self.check(not bad, f"A4 floors missed: {bad}")
        return {"walls": walls, "rss_mb": rss, "setup_s": setup_s}

    def pinned_digests(self) -> dict[str, str]:
        """Digests of the CLI run's artefacts, plus the P3 set-up inputs."""
        out = digests(self.cli_dir)
        if self.w.ascii:
            out.update(digests(self.inputs, "inputs/"))
        return out

    def startup_probe(self) -> float:
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import blademl"], cwd=self.work,
            env=child_env(), check=True, timeout=STAGE_TIMEOUT_S,
        )
        return time.perf_counter() - start

    # -- traced replay ----------------------------------------------------

    def traced_iteration(self, tracer) -> dict:
        import traced

        reset_dir(self.traced_dir)
        first = len(tracer.spans)
        with tracer.span("trace.iteration"):
            walls = traced.run_stages(tracer, self.argvs, self.traced_dir)
        self.check(digests(self.traced_dir) == digests(self.cli_dir),
                   "traced artefacts differ from the CLI run")
        return {"walls": walls, "spans": tracer.spans[first:]}

    # -- measurement loop -------------------------------------------------

    def measure(self, iteration) -> list:
        """Repeat `iteration` while one as slow as the slowest so far still
        fits in --seconds."""
        results = []
        slowest = 0.0
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            result = iteration()
            if result is None:
                break
            results.append(result)
            slowest = max(slowest, time.perf_counter() - t0)
            if time.perf_counter() - start + slowest > self.args.seconds:
                break
        return results

    def run(self) -> dict:
        os.makedirs(self.work)
        golden_path = os.path.join(GOLDEN, f"{self.args.workload}.sha256")
        if self.args.seed == DEFAULT_SEED and not self.args.pin:
            if self.check(os.path.exists(golden_path),
                          f"no pinned digests at {golden_path}"):
                self.golden = read_golden(golden_path)

        if self.args.pin:
            if self.cli_iteration() is not None and not self.failures:
                pinned = self.pinned_digests()
                with open(golden_path, "w") as handle:
                    handle.writelines(f"{d}  {rel}\n" for rel, d in pinned.items())
                print(f"pinned {len(pinned)} digests to {golden_path}",
                      file=sys.stderr)
            return {}

        if not self.args.trace:
            runs = self.measure(self.cli_iteration)
            if not runs:
                return {}
            self.iterations = runs
            return {
                "pipeline_s": (statistics.median(
                    sum(r["walls"].values()) for r in runs), "s"),
                "peak_rss_mb": (max(r["rss_mb"] for r in runs), "MB"),
                "setup_s": (statistics.median(r["setup_s"] for r in runs), "s"),
            }

        import traced

        tracer = traced.Tracer(self.run_id)
        startup = [self.startup_probe() for _ in range(STARTUP_PROBES)]

        def pair():
            cli = self.cli_iteration()
            return None if cli is None else (cli, self.traced_iteration(tracer))

        runs = self.measure(pair)
        if not runs:
            return {}
        self.iterations = [cli for cli, _ in runs]
        os.makedirs(os.path.join(WORK_ROOT, "traces"), exist_ok=True)
        self.trace_path = os.path.join(WORK_ROOT, "traces", f"{self.run_id}.jsonl")
        tracer.write_jsonl(self.trace_path)
        return self.layer_metrics(runs, startup, traced.self_times(tracer.spans))

    def layer_metrics(self, runs, startup, self_s) -> dict:
        """Per-layer metrics from (CLI iteration, traced iteration) pairs;
        `self_s` maps span id to self time."""
        def med(values):
            return statistics.median(list(values))

        def seconds(span):
            return (span["end_ns"] - span["start_ns"]) / 1e9

        traces = [tr["spans"] for _, tr in runs]
        metrics = {}
        for stage in STAGES:
            metrics[f"cli.{stage}_s"] = (
                med(cli["walls"].get(stage, 0.0) for cli, _ in runs), "s")
        metrics["cli.startup_s"] = (med(startup), "s")
        for name in SPAN_METRICS:
            metrics[f"{name}_s"] = (med(
                sum(seconds(s) for s in spans if s["name"] == name)
                for spans in traces), "s")
        for name in PER_CALL:
            calls = [seconds(s) * 1e3 for spans in traces for s in spans
                     if s["name"] == name] or [0.0]
            metrics[f"{name}_p50_ms"] = (percentile(calls, 50.0), "ms")
            metrics[f"{name}_tail_ms"] = (
                percentile(calls, tail_percentile(len(calls))), "ms")
        metrics["classifiers.train_fold_tail_s"] = (med(
            max([seconds(s) for s in spans
                 if s["name"].startswith("classifiers.train_")], default=0.0)
            for spans in traces), "s")
        for layer in LAYERS:
            metrics[f"{layer}.self_s"] = (med(
                sum(self_s[s["id"]] for s in spans
                    if s["name"].startswith(layer + "."))
                for spans in traces), "s")
        cli_wall = med(sum(cli["walls"].values()) for cli, _ in runs)
        traced_wall = med(sum(tr["walls"].values()) for _, tr in runs)
        metrics["trace.overhead_s"] = (traced_wall - cli_wall, "s")
        metrics["trace.unattributed_s"] = (med(
            sum(self_s[s["id"]] for s in spans
                if s["name"].startswith("stage."))
            for spans in traces), "s")
        for name, value in work_counts(self.w, self.cli_dir, self.inputs).items():
            metrics[name] = (value, "bytes" if "bytes" in name else "count")
        return metrics


def source_digest() -> str:
    h = hashlib.sha256()
    package = os.path.join(SRC, "blademl")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as handle:
                h.update(name.encode() + b"\0" + handle.read())
    return h.hexdigest()


def git_sha() -> str | None:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv == [SERVE_STAGES]:
        return serve_stages()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true",
                        help="write golden/<workload>.sha256 (default seed only)")
    args = parser.parse_args(argv)
    # Keep the benchmark's own directory free of bytecode caches.
    sys.dont_write_bytecode = True
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if args.pin and args.seed != DEFAULT_SEED:
        parser.error(f"--pin needs --seed {DEFAULT_SEED}")

    if not os.path.isfile(os.path.join(SRC, "blademl", "__init__.py")):
        print(f"error: no blademl package under {SRC}", file=sys.stderr)
        return 2
    # On SIGTERM, unwind so that the launcher and its stage are stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    launcher = start_launcher()
    try:
        return run_benchmark(args, launcher)
    finally:
        launcher.stdin.close()
        try:
            launcher.wait(timeout=5)
        except subprocess.TimeoutExpired:
            # Still running a stage: its SIGTERM handler kills the stage.
            launcher.terminate()
            launcher.wait()


def run_benchmark(args, launcher: subprocess.Popen) -> int:
    sys.path.insert(0, SRC)
    import numpy
    import blademl

    if os.path.dirname(os.path.abspath(blademl.__file__)) != os.path.join(SRC, "blademl"):
        print(f"error: blademl imported from {blademl.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    # Byte-compile the whole package now, so no stage pays for it later.
    compileall.compile_dir(os.path.join(SRC, "blademl"), quiet=1)

    bench = Bench(args, WORKLOADS[args.workload], launcher)
    record = {
        "run_id": bench.run_id, "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "argv": bench.argvs,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "git_sha": git_sha(), "source_sha256": source_digest(),
        "thread_env": {v: os.environ[v] for v in THREAD_VARS if v in os.environ},
        "loadavg_before": os.getloadavg(),
    }
    metrics = bench.run()
    record["loadavg_after"] = os.getloadavg()
    record["attempted"] = bench.attempted
    record["failures"] = bench.failures
    record["iterations"] = bench.iterations
    record["work_counts"] = (
        work_counts(bench.w, bench.cli_dir, bench.inputs)
        if record["iterations"] else {}
    )
    record["trace_file"] = bench.trace_path
    record["metrics"] = {name: value for name, (value, _) in metrics.items()}
    os.makedirs(os.path.join(WORK_ROOT, "records"), exist_ok=True)
    record_path = os.path.join(WORK_ROOT, "records", f"{bench.run_id}.json")
    with open(record_path, "w") as handle:
        json.dump(record, handle, indent=1)
    print(f"run record: {record_path}", file=sys.stderr)
    if not bench.failures:
        shutil.rmtree(bench.work, ignore_errors=True)
    if args.pin:
        return 1 if bench.failures else 0
    if not metrics:
        print("error: no pipeline iteration completed", file=sys.stderr)
        return 1

    print(json.dumps({
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

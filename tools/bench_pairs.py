"""Alternating parent/change pairs of the repository's benchmark.

    python3 tools/bench_pairs.py --parent ../parent --change ../change \
        --set cluster-scale:42:10 --set acceptance:42:10 --out BENCH_N.json

Each `--parent`/`--change` directory is a checkout holding `src/` and an
unchanged `perfbench/run.py`.  Each `--set WORKLOAD:SEED:PAIRS` runs PAIRS
pairs of the `BENCHMARK.json` command with `--workload WORKLOAD --seed SEED
--seconds S --trace 0`, S being `BENCHMARK.json`'s `run_seconds`, once in
each checkout, the side that runs first alternating per pair.  Before each
pair a fixed two-process CPU check runs.
Per set and end-to-end metric the output holds each side's runs, median,
quartiles (numpy's linear percentiles) and IQR, the pairs each side won,
the per-pair differences (change - parent) with their median and
quartiles, and a verdict against the metric's bound.  The JSON file is
rewritten after every pair, so an interrupted run keeps what it measured.
Nothing under either checkout is changed beyond what run.py writes there
itself (`.perfbench_work/`, bytecode caches).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")
CPU_CHECK_ITEMS = 3_000_000

WHAT = (
    "Alternating parent/change pairs of `python3 perfbench/run.py --workload "
    "W --seed S --seconds {seconds} --trace 0`, each side run from its own "
    "checkout; the side that runs first alternates per pair. Each run's "
    "value is the run's own median over its pipeline iterations (its "
    "maximum for peak_rss_mb); medians and quartiles below are over runs "
    "(numpy linear percentiles). Before each pair, a fixed two-process CPU "
    "check ran (cpu_check). Written by tools/bench_pairs.py."
)
CPU_CHECK = (
    "Before each pair: a script that forks k processes each summing "
    f"range({CPU_CHECK_ITEMS:,}) in pure Python, for k = 1 and k = 2, best "
    "of 3 each; speedup = 2 * t(1) / t(2). 2.0 means both vCPUs ran the two "
    "processes at once; 1.0 means they shared one."
)
NOTES = [
    "bound_limit_relative is the parent median times (1 + bound) and "
    "bound_limit_absolute the parent median plus bound (for a metric where "
    "lower is better), the bound taken from BENCHMARK.json; verdict compares "
    "the change median with the tighter of the two. 'unresolved' means the "
    "parent's own IQR is wider than that allowance and the change's runs do "
    "not all read better than the parent's.",
    "change_lower_pairs / change_higher_pairs count pairs in which the "
    "change's run read lower / higher than the parent's; ties count for "
    "neither.",
    "resolved_gain: the change read better in at least nine tenths of the "
    "pairs and its median differs from the parent's in the better direction "
    "by more than the parent's IQR.",
    "pair_differences lists change minus parent for each pair, in pair "
    "order, with the median and quartiles of those differences. Host drift "
    "within a set moves both runs of a pair alike, so the paired median can "
    "show a change that the medians over runs hide; no verdict uses it.",
]


def cpu_check() -> float:
    """2 * t(1) / t(2) for k forked processes each summing a fixed range."""
    def run(k):
        start = time.perf_counter()
        pids = []
        for _ in range(k):
            pid = os.fork()
            if pid == 0:
                try:
                    sum(range(CPU_CHECK_ITEMS))
                finally:
                    os._exit(0)
            pids.append(pid)
        for pid in pids:
            os.waitpid(pid, 0)
        return time.perf_counter() - start
    one = min(run(1) for _ in range(3))
    two = min(run(2) for _ in range(3))
    return round(2.0 * one / two, 3)


def run_side(checkout, command, workload, seed, seconds) -> dict:
    """One benchmark run in `checkout`: its JSON result and run record."""
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    if argv[0] in ("python", "python3"):
        argv[0] = sys.executable
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: {' '.join(argv)} exited "
                           f"{done.returncode}:\n{done.stderr[-2000:]}")
    result = json.loads(lines[-1])
    match = re.search(r"^run record: (.+)$", done.stderr, re.MULTILINE)
    record = {}
    if match:
        with open(match.group(1)) as handle:
            record = json.load(handle)
    return {"result": result, "record": record}


def quartiles(values) -> tuple[float, float, float]:
    """q1, median, q3 as numpy's default (linear) percentiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def summarize(metric: dict, parent: list, change: list) -> dict:
    """One end-to-end metric of one set: both sides and the verdict."""
    lower = metric["better"] == "lower"
    bound = metric["bound"]
    out = {"unit": metric["unit"]}
    stats = {}
    for side, runs in zip(SIDES, (parent, change)):
        q1, med, q3 = quartiles(runs)
        stats[side] = (q1, med, q3)
        out[side] = {"median": round(med, 4), "q1": round(q1, 4),
                     "q3": round(q3, 4), "iqr": round(q3 - q1, 4),
                     "runs": [round(v, 4) for v in runs]}
    p_q1, p_med, p_q3 = stats["parent"]
    c_med = stats["change"][1]
    pairs = list(zip(parent, change))
    differences = [c - p for p, c in pairs]
    d_q1, d_med, d_q3 = quartiles(differences)
    out["pair_differences"] = {
        "median": round(d_med, 4), "q1": round(d_q1, 4), "q3": round(d_q3, 4),
        "values": [round(d, 4) for d in differences]}
    lower_pairs = sum(c < p for p, c in pairs)
    higher_pairs = sum(c > p for p, c in pairs)
    sign = 1.0 if lower else -1.0
    relative = p_med * (1.0 + sign * bound)
    absolute = p_med + sign * bound
    limit = min(relative, absolute) if lower else max(relative, absolute)
    allowance = abs(limit - p_med)
    gap = c_med - p_med
    better = (lambda a, b: a < b) if lower else (lambda a, b: a > b)
    all_better = all(better(c, p) for c in change for p in parent)
    if better(limit, c_med):
        verdict = "worse than bound"
    elif p_q3 - p_q1 > allowance and not all_better:
        verdict = "unresolved, change median " + (
            "lower" if gap < 0 else "higher" if gap > 0 else "equal")
    else:
        verdict = "within bound"
    better_pairs = lower_pairs if lower else higher_pairs
    out.update({
        "change_lower_pairs": lower_pairs,
        "change_higher_pairs": higher_pairs,
        "median_change_pct": round(100.0 * gap / p_med, 2) if p_med else None,
        "median_gap": round(gap, 4),
        "bound": bound,
        "bound_limit_relative": round(relative, 4),
        "bound_limit_absolute": round(absolute, 4),
        "parent_iqr_over_median": (round((p_q3 - p_q1) / p_med, 4)
                                   if p_med else None),
        "verdict": verdict,
        "resolved_gain": (better_pairs >= math.ceil(0.9 * len(pairs))
                          and better(c_med, p_med)
                          and abs(gap) > p_q3 - p_q1),
    })
    return out


def run_set(spec, sides, bench, sets, write) -> None:
    """Run one set's pairs, appending its entry to `sets` at once and
    calling `write` after every pair."""
    workload, seed, pairs = spec
    seconds = bench["run_seconds"]
    entry = {"workload": workload, "seed": seed, "seconds": seconds,
             "pairs": 0, "first_side_per_pair": [],
             "cpu_check_speedup_per_pair": [], "all_correct": True,
             "failed": dict.fromkeys(SIDES, 0),
             "attempted": dict.fromkeys(SIDES, 0),
             "source_sha256": {}, "metrics": {}}
    sets.append(entry)
    values = {side: {} for side in SIDES}
    for i in range(pairs):
        entry["cpu_check_speedup_per_pair"].append(cpu_check())
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        entry["first_side_per_pair"].append(order[0])
        for side in order:
            got = run_side(sides[side], bench["command"], workload, seed,
                           seconds)
            result = got["result"]
            entry["all_correct"] &= bool(result["correct"])
            entry["failed"][side] += result["failed"]
            entry["attempted"][side] += result["attempted"]
            if got["record"].get("source_sha256"):
                entry["source_sha256"][side] = got["record"]["source_sha256"]
            for metric in bench["end_to_end"]:
                value = result["metrics"][metric["name"]]["value"]
                values[side].setdefault(metric["name"], []).append(value)
            print(f"{workload} seed {seed} pair {i + 1}/{pairs} {side}: "
                  + " ".join(f"{m['name']}={values[side][m['name']][-1]}"
                             for m in bench["end_to_end"]),
                  file=sys.stderr, flush=True)
        entry["pairs"] = i + 1
        entry["metrics"] = {
            metric["name"]: summarize(metric, values["parent"][metric["name"]],
                                      values["change"][metric["name"]])
            for metric in bench["end_to_end"]}
        write()


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as handle:
            found = re.search(r"^model name\s*:\s*(.+)$", handle.read(),
                              re.MULTILINE)
        cpu = found.group(1) if found else cpu
    except OSError:
        pass
    numpy = subprocess.run(
        [sys.executable, "-c", "import numpy; print(numpy.__version__)"],
        capture_output=True, text=True).stdout.strip()
    return {"cpu": cpu, "vcpus": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy,
            "os": platform.platform()}


def parse_set(text: str) -> tuple[str, int, int]:
    try:
        workload, seed, pairs = text.split(":")
        seed, pairs = int(seed), int(pairs)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            "needs WORKLOAD:SEED:PAIRS, for example cluster-scale:42:10"
        ) from exc
    if seed < 0:
        raise argparse.ArgumentTypeError(f"SEED must be >= 0, got {seed}")
    if pairs < 1:
        raise argparse.ArgumentTypeError(f"PAIRS must be >= 1, got {pairs}")
    return workload, seed, pairs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="parent checkout")
    parser.add_argument("--change", required=True, help="change checkout")
    parser.add_argument("--set", dest="sets", type=parse_set, action="append",
                        required=True, help="WORKLOAD:SEED:PAIRS (repeatable)")
    parser.add_argument("--claim", default="",
                        help="one sentence: what the change claims")
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    sides = {side: os.path.abspath(getattr(args, side)) for side in SIDES}
    for side, path in sides.items():
        if not os.path.isfile(os.path.join(path, "perfbench", "run.py")):
            parser.error(f"--{side}: no perfbench/run.py under {path}")

    doc = {"what": WHAT.format(seconds=bench["run_seconds"]),
           "claim": args.claim, "machine": machine(), "cpu_check": CPU_CHECK,
           "sets": [], "notes": NOTES}

    def write():
        with open(args.out, "w") as handle:
            json.dump(doc, handle, indent=1)
            handle.write("\n")

    for spec in args.sets:
        run_set(spec, sides, bench, doc["sets"], write)
    return 0


if __name__ == "__main__":
    sys.exit(main())

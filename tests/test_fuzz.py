"""Seeded fuzz of the command-line error contract.

Each case mutates one input of a small valid run (a PPM image, labels.csv
or a features file), or gives `gen` an odd flag value, and runs the stage
that reads it through cli.main in-process with warnings raised as errors.
Every case must exit 0, 1 or 2.  Exit 1 names an input file, exit 2 names a
flag, and a failed case leaves no new path behind.
"""

import contextlib
import io
import os
import random
import re
import shutil
import warnings

import pytest

from blademl import cli
from blademl.clustering import LINKAGES, METRICS

SEED = 2026
CASES = 300

# Replacement cells: non-finite, overflowing, empty, quoted and CR values.
CELLS = ["nan", "NaN", "inf", "-inf", "1e308", "-1e308", "1e400", "1e200",
         "", " ", '"', 'a"b', '"q"', "\r", "x\ry", "0x1", "1,5", "healthy"]
# Replacement PPM header tokens: magic, dimension and maxval faults.
TOKENS = [b"P3", b"P5", b"P7", b"p6", b"0", b"-1", b"2", b"3", b"99999",
          b"65535", b"256", b"1e3", b"x", b"#", b"", b"18446744073709551617"]
GEN_FLAGS = {
    "--counts": ["0,0,0", "1,0,0", "1,2", "1,2,oops", "-1,2,3", "1,,2",
                 "1,1,1"],
    "--width": ["0", "2", "15", "17", "-5", "x", "1e3"],
    "--height": ["0", "3", "15", "17", "-5", "x"],
    "--seed": ["-1", "x", "18446744073709551616", "0"],
}
# Flags that name an input file: a fault in the file itself exits 1.
FILE_FLAGS = ("--images", "--labels", "--features")


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """A valid 9-image corpus and its features file."""
    root = tmp_path_factory.mktemp("corpus")
    images = root / "images"
    argvs = [
        ["gen", "--out", images, "--counts", "3,3,3", "--width", 16,
         "--height", 16],
        ["features", "--images", images, "--labels", images / "labels.csv",
         "--out", root / "features.csv"],
    ]
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in argvs:
            assert cli.main([str(a) for a in argv]) == 0
    return root


def _mutate_csv(rng, text: str) -> str:
    """One or two row, column or cell faults, or a truncation."""
    for _ in range(rng.choice([1, 1, 2])):
        lines = text.splitlines()
        meta = [line for line in lines if line.startswith("#")]
        rows = [line.split(",") for line in lines if not line.startswith("#")]
        kind = rng.choice(["cell", "cell", "cell", "dup-row", "del-row",
                           "dup-col", "del-col", "one-class", "truncate"])
        if kind == "truncate" or not rows:
            return text[:rng.randrange(len(text) + 1)]
        r = rng.randrange(len(rows))
        c = rng.randrange(len(rows[r])) if rows[r] else 0
        if kind == "cell" and rows[r]:
            rows[r][c] = rng.choice(CELLS)
        elif kind == "dup-row":
            rows.insert(r, list(rows[r]))
        elif kind == "del-row":
            del rows[r]
        elif kind == "dup-col":
            for row in rows:
                row.insert(c, row[c] if c < len(row) else "")
        elif kind == "del-col":
            for row in rows:
                del row[c:c + 1]
        elif kind == "one-class":
            for row in rows[2:]:
                if len(row) > 1 and len(rows[1]) > 1:
                    row[1] = rows[1][1]
        text = "".join(f"{line}\n" for line in meta)
        text += "".join(",".join(row) + "\n" for row in rows)
    return text


def _mutate_ppm(rng, data: bytes) -> bytes:
    """A header token, payload or length fault."""
    kind = rng.choice(["token", "token", "truncate", "append", "flip",
                       "empty"])
    if kind == "token":
        spans = [m.span() for m in re.finditer(rb"\S+", data[:16])][:4]
        start, stop = rng.choice(spans)
        return data[:start] + rng.choice(TOKENS) + data[stop:]
    if kind == "truncate":
        return data[:rng.randrange(len(data))]
    if kind == "append":
        return data + bytes(rng.randrange(256) for _ in range(rng.randint(1, 9)))
    if kind == "flip":
        at = rng.randrange(len(data))
        return data[:at] + bytes([rng.randrange(256)]) + data[at + 1:]
    return b""


def _case(rng, corpus, case):
    """Write one mutated input under case and return (argv, input paths)."""
    out = case / "out"
    images, labels = corpus / "images", corpus / "images" / "labels.csv"
    features = corpus / "features.csv"
    target = rng.choice(["image", "image", "labels", "evaluate", "evaluate",
                         "cluster", "cluster", "gen"])
    if target == "gen":
        flag = rng.choice(list(GEN_FLAGS))
        values = {"--counts": "1,1,1", "--width": "16", "--height": "16",
                  "--seed": "3", flag: rng.choice(GEN_FLAGS[flag])}
        argv = ["gen", "--out", out]
        for key, value in values.items():
            argv += [key, value]
        return argv, []
    if target == "image":
        images = case / "images"
        shutil.copytree(corpus / "images", images)
        name = rng.choice(sorted(p.name for p in images.glob("*.ppm")))
        if rng.random() < 0.1:
            os.remove(images / name)
        else:
            path = images / name
            path.write_bytes(_mutate_ppm(rng, path.read_bytes()))
        labels = images / "labels.csv"
    elif target == "labels":
        labels = case / "labels.csv"
        labels.write_text(_mutate_csv(rng, (corpus / "images" /
                                            "labels.csv").read_text()),
                          newline="")
    else:
        features = case / "features.csv"
        features.write_text(_mutate_csv(rng, (corpus /
                                              "features.csv").read_text()),
                            newline="")
    if target in ("image", "labels"):
        return (["features", "--images", images, "--labels", labels,
                 "--out", case / "features.out.csv"], [images, labels])
    if target == "evaluate":
        return (["evaluate", "--features", features, "--out-dir", out,
                 "--k", rng.choice([2, 3]), "--seed", 1, "--logreg-limit", 5,
                 "--mlp-epochs", 1, "--mlp-hidden", 3], [features])
    return (["cluster", "--features", features, "--out-dir", out,
             "--metric", rng.choice(METRICS),
             "--linkage", rng.choice(LINKAGES),
             rng.choice(["--normalize", "--no-normalize"]),
             "--cut-count", 2], [features])


def _paths(root):
    return sorted(os.path.join(top, name) for top, dirs, files in os.walk(root)
                  for name in dirs + files)


def _violation(argv, inputs, case):
    """What the run of argv breaks of the contract, or None."""
    before = _paths(case)
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("error")
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    err = err.getvalue()
    flags = [a for a in argv if a.startswith("--") and a not in FILE_FLAGS]
    if code not in (0, 1, 2):
        return f"exit {code}: {err}"
    if code == 1 and not any(str(path) in err for path in inputs):
        return f"exit 1 names no input file: {err}"
    if code == 2 and not any(flag in err for flag in flags):
        return f"exit 2 names no flag: {err}"
    if code and _paths(case) != before:
        return f"exit {code} left {set(_paths(case)) - set(before)}"
    return None


def test_every_stage_keeps_its_error_contract(corpus, tmp_path):
    rng = random.Random(SEED)
    violations = []
    for i in range(CASES):
        case = tmp_path / f"case{i}"
        case.mkdir()
        argv, inputs = _case(rng, corpus, case)
        argv = [str(a) for a in argv]
        try:
            problem = _violation(argv, inputs, case)
        except Exception as exc:  # a warning raised as an error, say
            problem = f"raised {type(exc).__name__}: {exc}"
        if problem:
            violations.append((argv, problem))
        shutil.rmtree(case)
    assert violations == []

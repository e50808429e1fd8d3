"""sha256 digests of pipeline artefacts, for comparison with pinned files.

A pinned file holds `<sha256>  <relative path>` lines, as `sha256sum`
writes them.  `features.csv` records the `--images` and `--labels` paths of
the run that wrote it; the pins were taken with `--images corpus --labels
corpus/labels.csv`, so a run with other paths is compared after those two
lines are set back to the pinned paths.
"""

import hashlib
import os

PINNED_PATH_LINES = (b"# images: corpus\n", b"# labels: corpus/labels.csv\n")


def read_pinned(path) -> dict:
    """{relative path: digest} from a pinned sha256 file."""
    with open(path) as handle:
        return {rel: digest for digest, rel in
                (line.split(None, 1) for line in handle.read().splitlines())}


def normalized_features(data: bytes) -> bytes:
    """features.csv bytes with its `# images:`/`# labels:` lines replaced
    by the pinned relative paths."""
    lines = data.splitlines(keepends=True)
    assert lines[0].startswith(b"# images: "), lines[0]
    assert lines[1].startswith(b"# labels: "), lines[1]
    return b"".join(PINNED_PATH_LINES) + b"".join(lines[2:])


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def artefact_digests(features, directories: dict) -> dict:
    """Digests keyed like the pinned files: `features.csv`, normalized,
    plus `<prefix>/<name>` for every file of each {prefix: directory}."""
    with open(features, "rb") as handle:
        got = {"features.csv": sha256(normalized_features(handle.read()))}
    for prefix, directory in directories.items():
        for name in os.listdir(directory):
            with open(os.path.join(directory, name), "rb") as handle:
                got[f"{prefix}/{name}"] = sha256(handle.read())
    return got

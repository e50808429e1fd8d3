"""Row-distance matrices and agglomerative hierarchical clustering.

Distances default to euclidean on column-wise z-scored features.  The
agglomeration keeps cluster-to-cluster distances current with the
Lance-Williams recurrences, so single, complete, average, and Ward linkage
share one merge loop.  Ward operates on squared euclidean distances and
reports each merge height as the square root of the merge cost, keeping all
four linkages height-monotone.

The loop works on one n x n matrix in which slot s always holds the active
cluster whose smallest leaf is s; retired slots and the diagonal are +inf.
The first minimum in row-major order is then the documented tie-break, so
each merge is one numpy argmin plus one vector Lance-Williams update.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .features import FeatureMatrix, zscore_normalize
from .fmt import write_csv, write_float_rows

METRICS = ("euclidean", "cosine")
LINKAGES = ("single", "complete", "average", "ward")


@dataclass
class DistanceMatrix:
    """Condensed upper-triangular pairwise distances over n rows."""

    n: int
    condensed: np.ndarray
    metric: str
    normalized: bool

    def __post_init__(self):
        self.condensed = np.asarray(self.condensed, dtype=np.float64)
        expected = self.n * (self.n - 1) // 2
        if self.condensed.shape != (expected,):
            raise ValueError(f"condensed length must be {expected}")
        if not np.all(np.isfinite(self.condensed)):
            raise ValueError("distances must be finite")
        if np.any(self.condensed < 0.0):
            raise ValueError("distances must be nonnegative")

    def index(self, i: int, j: int) -> int:
        if i > j:
            i, j = j, i
        return self.n * i - i * (i + 1) // 2 + (j - i - 1)

    def get(self, i: int, j: int) -> float:
        if i == j:
            return 0.0
        return float(self.condensed[self.index(i, j)])

    def full(self) -> np.ndarray:
        out = np.zeros((self.n, self.n))
        rows, cols = np.triu_indices(self.n, k=1)
        out[rows, cols] = self.condensed
        out[cols, rows] = self.condensed
        return out


def pairwise_distances(
    m: FeatureMatrix, metric: str = "euclidean", normalize: bool = True
) -> DistanceMatrix:
    """All-pairs row distances, z-scoring columns first by default.

    euclidean: sqrt(sum of squared differences).  cosine: 1 - cosine
    similarity, defined as 1 whenever either row has zero norm; tiny
    negative rounding residues are clamped to 0.
    """
    if metric not in METRICS:
        raise ValueError(f"metric must be one of {METRICS}")
    if m.n < 2:
        raise ValueError("pairwise distances require at least 2 rows")
    values = m.values
    if not np.all(np.isfinite(values)):
        raise ValueError("features must be finite")
    if normalize:
        values = zscore_normalize(m)[0].values
    if metric == "euclidean":
        def row(i):
            return np.sqrt(((values[i] - values[i + 1:]) ** 2).sum(axis=1))
    else:
        norms = np.sqrt((values ** 2).sum(axis=1))

        def row(i):
            with np.errstate(divide="ignore", invalid="ignore"):
                similarity = (values[i] * values[i + 1:]).sum(axis=1) / (
                    norms[i] * norms[i + 1:]
                )
            out = 1.0 - similarity
            out[(norms[i] == 0.0) | (norms[i + 1:] == 0.0)] = 1.0
            return np.maximum(out, 0.0)
    condensed = np.concatenate([row(i) for i in range(m.n - 1)])
    return DistanceMatrix(m.n, condensed, metric, normalize)


@dataclass
class Merge:
    left: int
    right: int
    height: float
    new_id: int


@dataclass
class Dendrogram:
    """n leaves and n - 1 merges; merge i creates cluster id n + i."""

    n: int
    merges: list[Merge]
    linkage: str
    leaf_names: list[str]

    def __post_init__(self):
        if len(self.merges) != self.n - 1:
            raise ValueError("a dendrogram over n leaves needs n - 1 merges")
        if len(self.leaf_names) != self.n:
            raise ValueError("leaf names must cover every leaf")


@dataclass
class ClusterAssignment:
    """Cluster index per leaf; indices ordered by each cluster's smallest
    leaf id."""

    labels: np.ndarray
    count: int

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.count < 1 or self.labels.size == 0:
            raise ValueError("assignment must cover at least one cluster")
        if self.labels.min() < 0 or self.labels.max() >= self.count:
            raise ValueError("cluster indices must lie in [0, count)")
        if np.bincount(self.labels, minlength=self.count).min() == 0:
            raise ValueError("every cluster must be nonempty")


def agglomerate(
    d: DistanceMatrix, linkage: str = "average",
    leaf_names: list[str] | None = None,
) -> Dendrogram:
    """Merge the closest pair repeatedly, updating by Lance-Williams.

    Tie-breaking is deterministic: among minimal-distance pairs, pick the
    one with the lexicographically smallest (min leaf of the left cluster,
    min leaf of the right cluster), where the left cluster is the one
    holding the smaller minimum leaf id.

    Slot s of the n x n working matrix holds the active cluster whose
    smallest leaf is s: a merge keeps the left (smaller) slot and sets the
    right slot's row and column to +inf, as is the diagonal.  Because the
    matrix is symmetric, the first minimum in row-major order lies above
    the diagonal at the smallest (row, column), which is exactly the
    (distance, left min leaf, right min leaf) order above.  Each update is
    written in the operation order of the scalar recurrence, so every
    element gets the same IEEE operations.
    """
    if linkage not in LINKAGES:
        raise ValueError(f"linkage must be one of {LINKAGES}")
    n = d.n
    if leaf_names is None:
        leaf_names = [str(i) for i in range(n)]
    if len(leaf_names) != n:
        raise ValueError("leaf names must cover every leaf")

    work = d.full()
    if linkage == "ward":
        work = work ** 2
    np.fill_diagonal(work, np.inf)
    size = np.ones(n)
    ids = list(range(n))
    merges: list[Merge] = []

    for step in range(n - 1):
        left, right = divmod(int(np.argmin(work)), n)
        dist = work[left, right]
        height = float(np.sqrt(dist)) if linkage == "ward" else float(dist)
        merges.append(Merge(ids[left], ids[right], height, n + step))

        dp, dq = work[left], work[right]
        p, q = size[left], size[right]
        if linkage == "single":
            # np.where, not np.minimum: keep Python min's pick between
            # equal-comparing signed zeros.
            up = np.where(dq < dp, dq, dp)
        elif linkage == "complete":
            up = np.where(dq > dp, dq, dp)
        elif linkage == "average":
            up = (p * dp + q * dq) / (p + q)
        else:
            up = (
                (p + size) * dp + (q + size) * dq - size * dist
            ) / (p + q + size)
        up[left] = up[right] = np.inf
        work[left] = work[:, left] = up
        work[right] = work[:, right] = np.inf
        size[left] = p + q
        ids[left] = n + step

    return Dendrogram(n, merges, linkage, list(leaf_names))


def cut_dendrogram(
    dg: Dendrogram, count: int | None = None, height: float | None = None
) -> ClusterAssignment:
    """Flatten the dendrogram into clusters.

    Count mode undoes the last count - 1 merges; height mode keeps exactly
    the merges with height <= the threshold.  Cluster indices follow each
    cluster's smallest leaf id.
    """
    if (count is None) == (height is None):
        raise ValueError("give exactly one of count or height")
    if count is not None:
        if not 1 <= count <= dg.n:
            raise ValueError(f"cluster count must lie in [1, {dg.n}]")
        kept = dg.merges[: dg.n - count]
    else:
        if not height >= 0.0:
            raise ValueError("height threshold must be a nonnegative number")
        kept = [m for m in dg.merges if m.height <= height]

    parent = list(range(2 * dg.n - 1))

    def find(c: int) -> int:
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    for merge in kept:
        parent[find(merge.left)] = merge.new_id
        parent[find(merge.right)] = merge.new_id

    roots: dict[int, int] = {}
    labels = np.empty(dg.n, dtype=np.int64)
    for leaf in range(dg.n):
        root = find(leaf)
        if root not in roots:
            roots[root] = len(roots)
        labels[leaf] = roots[root]
    return ClusterAssignment(labels, len(roots))


def export_dendrogram(dg: Dendrogram, fmt: str = "text") -> str:
    """Render as an indented text tree or a Newick string.

    Text: two-space indent per level, `node <height>` lines for merges and
    `leaf <name>` lines, children ordered smaller-min-leaf first (the stored
    left/right order).  Newick: branch length = parent merge height - child
    merge height (leaves sit at height 0), six decimals, `;`-terminated,
    names passed through verbatim.
    """
    if fmt not in ("text", "newick"):
        raise ValueError("format must be text or newick")
    root = dg.merges[-1].new_id if dg.merges else 0
    # Neither format recurses: a chained tree is n - 1 levels deep, past
    # Python's recursion limit.
    if fmt == "text":
        by_id = {m.new_id: m for m in dg.merges}
        lines: list[str] = []
        stack = [(root, 0)]
        while stack:
            node, depth = stack.pop()
            pad = "  " * depth
            if node < dg.n:
                lines.append(f"{pad}leaf {dg.leaf_names[node]}")
                continue
            merge = by_id[node]
            lines.append(f"{pad}node {merge.height:.6f}")
            stack += [(merge.right, depth + 1), (merge.left, depth + 1)]
        return "\n".join(lines) + "\n"

    # Newick bottom-up: a merge's children are complete before it, and
    # each subtree's text is consumed by its parent exactly once.
    text = dict(enumerate(dg.leaf_names))
    height = dict.fromkeys(text, 0.0)
    for m in dg.merges:
        a, b = m.left, m.right
        text[m.new_id] = (f"({text.pop(a)}:{m.height - height[a]:.6f},"
                          f"{text.pop(b)}:{m.height - height[b]:.6f})")
        height[m.new_id] = m.height
    return text[root] + ";"


def write_distance_csv(
    d: DistanceMatrix, ids: list[str], path, metadata=None
) -> None:
    """Full square matrix with id header row and column."""
    if len(ids) != d.n:
        raise ValueError("ids must cover every row")
    write_float_rows(path, ["id", *ids], ([i] for i in ids), d.full(), metadata)


def write_assignment_csv(
    assignment: ClusterAssignment, ids: list[str], path, metadata=None
) -> None:
    """`id,cluster` rows."""
    if len(ids) != assignment.labels.size:
        raise ValueError("ids must cover every row")
    rows = ([row_id, int(label)] for row_id, label in zip(ids, assignment.labels))
    write_csv(path, ["id", "cluster"], rows, metadata)

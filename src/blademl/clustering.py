"""Row-distance matrices and agglomerative hierarchical clustering.

Distances default to euclidean on column-wise z-scored features.  The
agglomeration keeps cluster-to-cluster distances current with the
Lance-Williams recurrences, so single, complete, average, and Ward linkage
share one merge loop.  Ward operates on squared euclidean distances and
reports each merge height as the square root of the merge cost, keeping all
four linkages height-monotone.

Nothing here builds an n x n array except `DistanceMatrix.full`, which is
kept for library callers.  Distances live in the condensed upper triangle:
entry (i, j), i < j, sits at start[i] + j - i - 1, row i's segment
start[i]:start[i + 1] holds columns i + 1 .. n - 1, and column j's entries
above the diagonal are gathered at above[:j] + j (see `_layout`).  Square
rows for the Lance-Williams update, `distances.csv` and `full` are
assembled one at a time from those two parts.
"""

from __future__ import annotations

from contextlib import closing
from dataclasses import dataclass

import numpy as np

from .features import FeatureMatrix, zscore_normalize
from .fmt import float_line, write_csv, write_lines
from .parallel import split_map

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

    def get(self, i: int, j: int) -> float:
        if not (0 <= i < self.n and 0 <= j < self.n):
            raise IndexError(f"row pair ({i}, {j}) out of range for {self.n} rows")
        if i == j:
            return 0.0
        i, j = min(i, j), max(i, j)
        return float(self.condensed[self.n * i - i * (i + 1) // 2 + j - i - 1])

    def full(self) -> np.ndarray:
        """The symmetric n x n matrix with a zero diagonal."""
        start, above = _layout(self.n)
        return np.reshape([_square_row(self.condensed, start, above, i, 0.0)
                           for i in range(self.n)], (self.n, self.n))


def _layout(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Offsets into a condensed vector over n rows.

    Row i's segment (columns i + 1 .. n - 1) is start[i]:start[i + 1], and
    entry (i, j), i < j, sits at above[i] + j = start[i] + j - i - 1.
    """
    rows = np.arange(n + 1)
    start = n * rows - rows * (rows + 1) // 2
    return start, start[:-1] - rows[:-1] - 1


def _square_row(condensed, start, above, i: int, diagonal: float) -> np.ndarray:
    """Row i of the symmetric matrix stored in condensed, with diagonal at i."""
    out = np.empty(above.size)
    out[:i] = condensed[above[:i] + i]
    out[i] = diagonal
    out[i + 1:] = condensed[start[i]:start[i + 1]]
    return out


# Huge features overflow to inf, which the finite checks reject.
@np.errstate(over="ignore")
def pairwise_distances(
    m: FeatureMatrix, metric: str = "euclidean", normalize: bool = True
) -> DistanceMatrix:
    """All-pairs row distances, z-scoring columns first by default.

    euclidean: sqrt(sum of squared differences).  cosine: 1 - cosine
    similarity, defined as 1 whenever either row has zero norm; tiny
    negative rounding residues are clamped to 0.  A euclidean distance
    that overflows raises ValueError naming the first such pair of data
    rows, counted from 1.
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
        # A nonzero row whose squared norm overflows or leaves the normal
        # range is divided by its largest magnitude; cosine ignores scale.
        squares = (values ** 2).sum(axis=1)
        peaks = np.abs(values).max(axis=1)
        normal = (squares >= np.finfo(np.float64).tiny) & (squares < np.inf)
        scaled = ~normal & (peaks > 0.0)
        if scaled.any():
            values = values.copy()
            values[scaled] /= peaks[scaled, None]
            squares[scaled] = (values[scaled] ** 2).sum(axis=1)
        norms = np.sqrt(squares)

        def row(i):
            with np.errstate(divide="ignore", invalid="ignore"):
                similarity = (values[i] * values[i + 1:]).sum(axis=1) / (
                    norms[i] * norms[i + 1:]
                )
            out = 1.0 - similarity
            out[(norms[i] == 0.0) | (norms[i + 1:] == 0.0)] = 1.0
            return np.maximum(out, 0.0)
    start, _ = _layout(m.n)
    condensed = np.empty(start[-1])
    for i in range(m.n - 1):
        condensed[start[i]:start[i + 1]] = row(i)
    if condensed.max() == np.inf:
        first = int(condensed.argmax())
        i = int(np.searchsorted(start, first, side="right")) - 1
        raise ValueError(f"{metric} distance between data rows {i + 1} and "
                         f"{first - start[i] + i + 2} overflows")
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


# Overflow leaves +inf: a pair that is never the closest, or a ValueError.
@np.errstate(over="ignore")
def agglomerate(
    d: DistanceMatrix, linkage: str = "average",
    leaf_names: list[str] | None = None,
) -> Dendrogram:
    """Merge the closest pair repeatedly, updating by Lance-Williams.

    Tie-breaking is deterministic: among minimal-distance pairs, pick the
    one with the lexicographically smallest (min leaf of the left cluster,
    min leaf of the right cluster), where the left cluster is the one
    holding the smaller minimum leaf id.

    The loop works on one condensed copy of the distances (squared for
    Ward) in which slot s holds the active cluster whose smallest leaf is
    s: a merge keeps the left (smaller) slot and sets every entry of the
    right slot to +inf.  Each row i caches least[i] and nearest[i], the
    minimum of its segment (columns i + 1 ..) and the first column holding
    it.  The first row with the smallest cached minimum, and then its
    cached column, is the first minimum in row-major order of the
    symmetric matrix: it lies above the diagonal at the smallest (row,
    column), which is exactly the (distance, left min leaf, right min leaf)
    order above.

    After a merge of slots left < right only rows up to right can change:
    row left is rescanned, as is every row whose cached column was right
    (now +inf) or was left with a distance that grew.  Any other row
    i < left compares its new distance to left with least[i]; on a tie the
    smaller column wins.  Each update is written in the operation order of
    the scalar recurrence, so every element gets the same IEEE operations.

    Raises ValueError when the closest remaining distance is not finite,
    as when Ward's squared distances overflow.
    """
    if linkage not in LINKAGES:
        raise ValueError(f"linkage must be one of {LINKAGES}")
    n = d.n
    if leaf_names is None:
        leaf_names = [str(i) for i in range(n)]
    if len(leaf_names) != n:
        raise ValueError("leaf names must cover every leaf")

    start, above = _layout(n)
    work = d.condensed.copy()
    if linkage == "ward":
        np.square(work, out=work)
    least = np.full(n, np.inf)
    # -1 names no slot, so no merge rescans row n - 1 (it has no segment)
    # or a retired row (all +inf).
    nearest = np.full(n, -1)

    def rescan(i):
        segment = work[start[i]:start[i + 1]]
        j = int(segment.argmin())
        least[i] = segment[j]
        nearest[i] = i + 1 + j

    for i in range(n - 1):
        rescan(i)
    size = np.ones(n)
    ids = list(range(n))
    merges: list[Merge] = []

    for step in range(n - 1):
        left = int(least.argmin())
        right = int(nearest[left])
        dp = _square_row(work, start, above, left, np.inf)
        dq = _square_row(work, start, above, right, np.inf)
        dist = dp[right]
        if not np.isfinite(dist):
            raise ValueError(
                f"{linkage} linkage: no finite distance left at merge "
                f"{step + 1} of {n - 1}"
            )
        height = float(np.sqrt(dist)) if linkage == "ward" else float(dist)
        merges.append(Merge(ids[left], ids[right], height, n + step))

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
        work[above[:left] + left] = up[:left]
        work[start[left]:start[left + 1]] = up[left + 1:]
        work[above[:right] + right] = np.inf
        work[start[right]:start[right + 1]] = np.inf
        size[left] = p + q
        ids[left] = n + step

        # Rows i < left get a new distance to left and lose right; rows
        # between left and right lose right only; later rows are unchanged.
        new, cached, column = up[:left], least[:left], nearest[:left]
        closer = (new < cached) | ((new == cached) & (column >= left))
        rows = np.flatnonzero(((column == left) & ~closer) | (column == right))
        cached[closer] = new[closer]
        column[closer] = left
        between = left + 1 + np.flatnonzero(nearest[left + 1:right] == right)
        for i in [*rows.tolist(), left, *between.tolist()]:
            rescan(i)
        least[right] = np.inf
        nearest[right] = -1

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
    """Full square matrix with id header row and column, one row at a time;
    split_map's worker formats every other row."""
    if len(ids) != d.n:
        raise ValueError("ids must cover every row")
    start, above = _layout(d.n)

    def line(i):
        row = _square_row(d.condensed, start, above, i, 0.0)
        return float_line([ids[i]], row)

    with closing(split_map(line, range(d.n))) as lines:
        write_lines(path, ["id", *ids], lines, metadata)


def write_assignment_csv(
    assignment: ClusterAssignment, ids: list[str], path, metadata=None
) -> None:
    """`id,cluster` rows."""
    if len(ids) != assignment.labels.size:
        raise ValueError("ids must cover every row")
    rows = ([row_id, int(label)] for row_id, label in zip(ids, assignment.labels))
    write_csv(path, ["id", "cluster"], rows, metadata)

"""Distance matrices, agglomeration vs naive oracle, cuts, exports."""

import sys

import numpy as np
import pytest

from blademl.clustering import (
    ClusterAssignment,
    Dendrogram,
    DistanceMatrix,
    Merge,
    agglomerate,
    cut_dendrogram,
    export_dendrogram,
    pairwise_distances,
    write_assignment_csv,
    write_distance_csv,
)
from blademl.features import FeatureMatrix

from oracles import (
    agglomerate_full_matrix,
    float_rows_csv_ref,
    lance_williams_scan,
    linkage_oracle,
    parse_newick,
    prim_mst_weights,
    purity_ref,
    splitmix64_stream,
    uniform_from_u64,
)
from tracing import traced_peak

LINKAGES = ("single", "complete", "average", "ward")


def _matrix(values, labels=None, ids=None):
    values = np.asarray(values, dtype=np.float64)
    if ids is None:
        ids = [f"r{i}" for i in range(values.shape[0])]
    columns = [f"c{j}" for j in range(values.shape[1])]
    return FeatureMatrix(ids, labels, columns, values)


def _random_distance_matrix(seed, n):
    u = [uniform_from_u64(v) for v in splitmix64_stream(seed, n * (n - 1) // 2)]
    condensed = np.array(u) * 10.0 + 0.1
    return DistanceMatrix(n, condensed, "euclidean", False)


def _tied_distance_matrix(seed, n):
    """Integer distances in {1, 2, 3}: most pairs tie with many others."""
    u = [uniform_from_u64(v) for v in splitmix64_stream(seed, n * (n - 1) // 2)]
    condensed = np.array([1.0 + int(x * 3.0) for x in u])
    return DistanceMatrix(n, condensed, "euclidean", False)


def _grid_distance_matrix(seed, n):
    """n points on the 3 x 3 integer grid: repeated points and tied pairs."""
    u = [uniform_from_u64(v) for v in splitmix64_stream(seed, 2 * n)]
    points = np.array([int(x * 3.0) for x in u], dtype=np.float64).reshape(n, 2)
    return pairwise_distances(_matrix(points), "euclidean", normalize=False)


def _signed_zero_distance_matrix(seed, n):
    """Distances in {0, 1, 2} with about half the zeros stored as -0.0."""
    u = [uniform_from_u64(v) for v in splitmix64_stream(seed, n * (n - 1) // 2)]
    condensed = np.array([float(int(x * 3.0)) for x in u])
    condensed[(condensed == 0.0) & (np.array(u) < 1.0 / 6.0)] = -0.0
    return DistanceMatrix(n, condensed, "euclidean", False)


def _normal_rows(seed, n, width=37):
    return _matrix(np.random.default_rng(seed).standard_normal((n, width)))


def _merge_bits(merges):
    return [(m.left, m.right, m.height.hex(), m.new_id) for m in merges]


def _scan_bits(ref):
    return [(left, right, height.hex(), new_id) for left, right, height, new_id in ref]


# ---------------------------------------------------------------------------
# Distances


def test_euclidean_raw_345():
    m = _matrix([[0.0, 0.0], [3.0, 4.0]])
    d = pairwise_distances(m, "euclidean", normalize=False)
    assert d.get(0, 1) == 5.0
    assert d.get(1, 0) == 5.0
    assert d.get(1, 1) == 0.0


def test_distance_get_rejects_out_of_range_rows():
    d = DistanceMatrix(3, np.array([1.0, 2.0, 3.0]), "euclidean", False)
    assert [d.get(0, 1), d.get(0, 2), d.get(1, 2), d.get(2, 2)] == [1.0, 2.0, 3.0, 0.0]
    for i, j in ((0, 3), (3, 0), (-1, 0), (0, -1), (3, 3), (-1, -1)):
        with pytest.raises(IndexError, match="out of range for 3 rows"):
            d.get(i, j)


def test_normalization_changes_distances():
    m = _matrix([[0.0, 0.0], [3.0, 4.0], [6.0, 8.0]])
    raw = pairwise_distances(m, "euclidean", normalize=False)
    normed = pairwise_distances(m, "euclidean", normalize=True)
    assert raw.get(0, 1) != normed.get(0, 1)
    assert normed.normalized and not raw.normalized


def test_cosine_conventions():
    m = _matrix([[1.0, 0.0], [0.0, 2.0], [0.0, 0.0], [3.0, 0.0]])
    d = pairwise_distances(m, "cosine", normalize=False)
    assert d.get(0, 1) == 1.0          # orthogonal
    assert d.get(0, 2) == 1.0          # zero-norm convention
    assert d.get(1, 2) == 1.0
    assert d.get(0, 3) == 0.0          # same direction, clamped at 0


def test_distance_validation():
    with pytest.raises(ValueError):
        pairwise_distances(_matrix([[1.0]]), "euclidean")
    with pytest.raises(ValueError):
        pairwise_distances(_matrix([[1.0], [2.0]]), "manhattan")
    with pytest.raises(ValueError):
        pairwise_distances(_matrix([[np.nan], [1.0]]), "euclidean")
    with pytest.raises(ValueError):
        DistanceMatrix(3, np.array([1.0, 2.0]), "euclidean", False)
    with pytest.raises(ValueError):
        DistanceMatrix(2, np.array([-1.0]), "euclidean", False)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            DistanceMatrix(2, np.array([bad]), "euclidean", False)


def test_distance_full_matrix_keeps_signed_zeros():
    d = _signed_zero_distance_matrix(5, 40)
    rows, cols = np.triu_indices(d.n, k=1)
    ref = np.zeros((d.n, d.n))
    ref[rows, cols] = ref[cols, rows] = d.condensed
    full = d.full()
    assert np.array_equal(full, ref)
    assert np.array_equal(np.signbit(full), np.signbit(ref))
    assert np.signbit(d.condensed).any()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("metric", ["euclidean", "cosine"])
def test_distance_overflow_raises_without_warning(metric):
    m = _matrix([[0.0, 1e200], [1e200, -1e200], [2.0, 3.0]])
    if metric == "euclidean":
        with pytest.raises(ValueError, match="^euclidean distance between "
                           "data rows 1 and 2 overflows$"):
            pairwise_distances(m, metric, normalize=False)
    else:
        # Cosine ignores scale, so the two huge rows give finite distances.
        d = pairwise_distances(m, metric, normalize=False)
        assert d.condensed == pytest.approx([
            1.0 + 1.0 / np.sqrt(2.0), 1.0 - 3.0 / np.sqrt(13.0),
            1.0 + 1.0 / np.sqrt(26.0),
        ], rel=1e-15)
    with pytest.raises(ValueError, match="finite"):
        pairwise_distances(m, metric, normalize=True)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [1e200, 1e-200, 1e-160])
def test_cosine_rescales_only_out_of_range_rows(scale):
    # A row whose squared norm overflows, underflows to 0 or is subnormal is
    # divided by its largest magnitude; a row with a normal squared norm
    # keeps its bits, so the result equals that of the divided rows.
    m = _matrix([[scale, scale], [2 * scale, 2 * scale], [0.0, scale],
                 [3.0, 4.0], [0.0, 0.0]])
    d = pairwise_distances(m, "cosine", normalize=False)
    ref = pairwise_distances(_matrix([[1.0, 1.0], [1.0, 1.0], [0.0, 1.0],
                                      [3.0, 4.0], [0.0, 0.0]]),
                             "cosine", normalize=False)
    assert np.array_equal(d.condensed, ref.condensed)
    assert d.get(0, 1) == pytest.approx(0.0, abs=1e-15)
    assert d.get(0, 4) == d.get(3, 4) == 1.0


# n = 1,000 rows: the condensed vector is 499,500 doubles (4.0 MB), and an
# n x n matrix would be 8.0 MB on its own.
def test_pairwise_distances_peak_memory():
    m = _normal_rows(1000, 1000)
    d, peak = traced_peak(lambda: pairwise_distances(m))
    assert peak <= 1.25 * d.condensed.nbytes


@pytest.mark.parametrize("linkage", LINKAGES)
def test_agglomerate_peak_memory(linkage):
    d = pairwise_distances(_normal_rows(1000, 1000))
    _, peak = traced_peak(lambda: agglomerate(d, linkage))
    assert peak <= 1.25 * d.condensed.nbytes


def test_write_distance_csv_peak_memory(tmp_path):
    d = pairwise_distances(_normal_rows(1000, 1000))
    ids = [f"r{i}" for i in range(d.n)]
    path = tmp_path / "distances.csv"
    _, peak = traced_peak(lambda: write_distance_csv(d, ids, path))
    assert peak <= 0.1 * d.condensed.nbytes
    with open(path) as handle:
        handle.readline()
        first = handle.readline()
    assert first == "r0,0," + ",".join(
        format(d.get(0, j), ".17g") for j in range(1, d.n)) + "\n"


def test_distance_full_matrix():
    d = _random_distance_matrix(3, 5)
    full = d.full()
    assert np.array_equal(full, full.T)
    assert np.all(np.diag(full) == 0.0)
    for i in range(5):
        for j in range(5):
            assert full[i, j] == d.get(i, j)


# ---------------------------------------------------------------------------
# Agglomeration


def test_two_point_merge():
    d = DistanceMatrix(2, np.array([1.5]), "euclidean", False)
    dg = agglomerate(d, "average", ["a", "b"])
    assert dg.merges == [Merge(0, 1, 1.5, 2)]


def test_line_single_linkage():
    m = _matrix([[0.0], [1.0], [10.0]])
    d = pairwise_distances(m, "euclidean", normalize=False)
    dg = agglomerate(d, "single")
    assert dg.merges[0] == Merge(0, 1, 1.0, 3)
    assert dg.merges[1] == Merge(3, 2, 9.0, 4)
    cut = cut_dendrogram(dg, count=2)
    assert list(cut.labels) == [0, 0, 1]
    assert cut.count == 2
    by_height = cut_dendrogram(dg, height=1.0)
    assert list(by_height.labels) == [0, 0, 1]
    fine = cut_dendrogram(dg, height=0.5)
    assert fine.count == 3


def test_ward_two_singletons_equals_euclidean():
    m = _matrix([[0.0], [2.0]])
    d = pairwise_distances(m, "euclidean", normalize=False)
    dg = agglomerate(d, "ward")
    assert dg.merges[0].height == pytest.approx(2.0, abs=1e-12)


def test_equidistant_tie_breaking():
    # Three mutually equidistant points: the first merge must be (0, 1),
    # then the merged cluster (leading leaf 0) absorbs leaf 2.
    d = DistanceMatrix(3, np.array([1.0, 1.0, 1.0]), "euclidean", False)
    for linkage in ("single", "complete", "average"):
        dg = agglomerate(d, linkage)
        assert (dg.merges[0].left, dg.merges[0].right) == (0, 1)
        assert (dg.merges[1].left, dg.merges[1].right) == (3, 2)


@pytest.mark.parametrize("linkage", LINKAGES)
def test_agglomerate_matches_oracle(linkage):
    for seed in range(6):
        d = _random_distance_matrix(seed + 60, 7)
        dg = agglomerate(d, linkage)
        ref = linkage_oracle(d.full().tolist(), linkage)
        assert len(dg.merges) == len(ref)
        for merge, (left, right, height, new_id) in zip(dg.merges, ref):
            assert (merge.left, merge.right, merge.new_id) == (left, right, new_id)
            assert merge.height == pytest.approx(height, abs=1e-9)


FAMILIES = {
    "uniform": _random_distance_matrix,
    "ties": _tied_distance_matrix,
    "grid": _grid_distance_matrix,
    "signed-zeros": _signed_zero_distance_matrix,
}


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("linkage", LINKAGES)
def test_agglomerate_equals_scalar_scan(linkage, family):
    # Same merges, same tie order and the same height bits as the scalar
    # pair scan, on inputs where most candidate pairs tie.
    for n in range(2, 61):
        d = FAMILIES[family](n + 300, n)
        ref = lance_williams_scan(d.full(), linkage)
        assert _merge_bits(agglomerate(d, linkage).merges) == _scan_bits(ref), n


@pytest.mark.parametrize("linkage", LINKAGES)
def test_agglomerate_equals_scalar_scan_150_rows(linkage):
    d = pairwise_distances(_normal_rows(150, 150))
    ref = lance_williams_scan(d.full(), linkage)
    assert _merge_bits(agglomerate(d, linkage).merges) == _scan_bits(ref)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("linkage", LINKAGES)
def test_agglomerate_equals_full_matrix(linkage, family):
    # The cached row minima pick the same cell as the full-matrix argmin,
    # through runs of ties and equal-comparing signed zeros.
    for n in [*range(2, 40), 61, 100, 150, 200]:
        d = FAMILIES[family](n + 500, n)
        ref = agglomerate_full_matrix(d.full(), linkage)
        assert _merge_bits(agglomerate(d, linkage).merges) == _scan_bits(ref), n


@pytest.mark.parametrize("linkage", LINKAGES)
def test_agglomerate_equals_full_matrix_1000_rows(linkage):
    d = pairwise_distances(_normal_rows(1000, 1000))
    ref = agglomerate_full_matrix(d.full(), linkage)
    assert _merge_bits(agglomerate(d, linkage).merges) == _scan_bits(ref)


@pytest.mark.filterwarnings("error")
def test_agglomerate_rejects_overflowing_ward():
    # Every squared distance overflows to +inf: there is no closest pair.
    d = DistanceMatrix(4, np.array([1e200, 2e200, 3e200, 1e200, 2e200, 1e200]),
                       "euclidean", False)
    with pytest.raises(ValueError, match="ward linkage.* merge 1 of 3"):
        agglomerate(d, "ward")
    # Only the far pairs overflow: the close pairs merge first, and the
    # first merge that would need an infinite distance raises.
    d = DistanceMatrix(3, np.array([1.0, 1e200, 1e200]), "euclidean", False)
    with pytest.raises(ValueError, match="ward linkage.* merge 2 of 2"):
        agglomerate(d, "ward")
    for linkage in ("single", "complete", "average"):
        assert agglomerate(d, linkage).merges[1].height == 1e200


@pytest.mark.parametrize("linkage", LINKAGES)
def test_agglomerate_1000_rows(linkage):
    d = pairwise_distances(_normal_rows(1000, 1000))
    heights = [m.height for m in agglomerate(d, linkage).merges]
    assert all(a <= b + 1e-12 for a, b in zip(heights, heights[1:]))
    if linkage == "single":
        mst = prim_mst_weights(d.full().tolist())
        np.testing.assert_allclose(heights, mst, atol=1e-9)


@pytest.mark.parametrize("linkage", LINKAGES)
def test_heights_monotone(linkage):
    for seed in range(4):
        d = _random_distance_matrix(seed + 80, 8)
        dg = agglomerate(d, linkage)
        heights = [m.height for m in dg.merges]
        assert all(a <= b + 1e-12 for a, b in zip(heights, heights[1:]))


def test_single_linkage_equals_mst():
    for seed in range(4):
        d = _random_distance_matrix(seed + 90, 9)
        dg = agglomerate(d, "single")
        heights = sorted(m.height for m in dg.merges)
        mst = prim_mst_weights(d.full().tolist())
        np.testing.assert_allclose(heights, mst, atol=1e-9)


def test_agglomerate_validation():
    d = _random_distance_matrix(1, 4)
    with pytest.raises(ValueError):
        agglomerate(d, "centroid")
    with pytest.raises(ValueError):
        agglomerate(d, "single", ["a", "b"])


def test_separated_groups_recovered():
    u = [uniform_from_u64(v) for v in splitmix64_stream(71, 36)]
    points = []
    labels = []
    for g, center in enumerate([0.0, 50.0, 100.0]):
        for i in range(6):
            points.append([center + u[g * 12 + 2 * i],
                           center + u[g * 12 + 2 * i + 1]])
            labels.append(f"g{g}")
    d = pairwise_distances(_matrix(points), "euclidean", normalize=False)
    dg = agglomerate(d, "average")
    cut = cut_dendrogram(dg, count=3)
    assert purity_ref(list(cut.labels), labels) == 1.0


# ---------------------------------------------------------------------------
# Cutting


def test_cut_identity_and_all():
    d = _random_distance_matrix(5, 6)
    dg = agglomerate(d, "complete")
    each = cut_dendrogram(dg, count=6)
    assert list(each.labels) == list(range(6))
    one = cut_dendrogram(dg, count=1)
    assert set(each.labels.tolist()) == set(range(6))
    assert list(one.labels) == [0] * 6


def test_cut_validation():
    d = _random_distance_matrix(6, 4)
    dg = agglomerate(d, "average")
    with pytest.raises(ValueError):
        cut_dendrogram(dg)
    with pytest.raises(ValueError):
        cut_dendrogram(dg, count=2, height=1.0)
    with pytest.raises(ValueError):
        cut_dendrogram(dg, count=0)
    with pytest.raises(ValueError):
        cut_dendrogram(dg, count=5)
    with pytest.raises(ValueError):
        cut_dendrogram(dg, height=-0.5)


def test_cut_height_nan_rejected():
    d = DistanceMatrix(3, np.array([1.0, 2.0, 3.0]), "euclidean", False)
    dg = agglomerate(d, "single")
    with pytest.raises(ValueError, match="nonnegative"):
        cut_dendrogram(dg, height=float("nan"))


def test_cuts_are_nested_refinements():
    d = _random_distance_matrix(7, 8)
    dg = agglomerate(d, "average")
    coarse = cut_dendrogram(dg, count=3).labels
    fine = cut_dendrogram(dg, count=5).labels
    # Every fine cluster lies inside exactly one coarse cluster.
    for fine_id in set(fine.tolist()):
        members = np.flatnonzero(fine == fine_id)
        assert len(set(coarse[members].tolist())) == 1


def test_cluster_ids_ordered_by_smallest_leaf():
    d = _random_distance_matrix(8, 7)
    dg = agglomerate(d, "average")
    cut = cut_dendrogram(dg, count=3)
    firsts = {}
    for leaf, label in enumerate(cut.labels.tolist()):
        firsts.setdefault(label, leaf)
    assert list(firsts.keys()) == sorted(firsts.keys())
    assert sorted(firsts.values()) == list(firsts.values())
    assert cut.labels[0] == 0


def test_cluster_assignment_validation():
    with pytest.raises(ValueError):
        ClusterAssignment(np.array([0, 2]), 2)
    with pytest.raises(ValueError):
        ClusterAssignment(np.array([0, 0]), 2)
    with pytest.raises(ValueError):
        ClusterAssignment(np.array([]), 1)


# ---------------------------------------------------------------------------
# Exports


def test_newick_two_leaves_frozen():
    d = DistanceMatrix(2, np.array([1.5]), "euclidean", False)
    dg = agglomerate(d, "average", ["a", "b"])
    assert export_dendrogram(dg, "newick") == "(a:1.500000,b:1.500000);"


def test_newick_names_verbatim():
    d = DistanceMatrix(2, np.array([2.0]), "euclidean", False)
    dg = agglomerate(d, "average", ["Blade 3", "Blade 5.jpg"])
    out = export_dendrogram(dg, "newick")
    assert out == "(Blade 3:2.000000,Blade 5.jpg:2.000000);"


def test_newick_quotes_names_with_metacharacters():
    names = ["a,b", "c(d)", "e:f", "g h", "it's", "x;y[z]", "two\nlines"]
    d = DistanceMatrix(len(names), np.arange(1.0, 22.0), "euclidean", False)
    out = export_dendrogram(agglomerate(d, "average", names), "newick")
    assert "'a,b'" in out and "'it''s'" in out and "g h:" in out
    leaves, stack = [], [parse_newick(out)]
    while stack:
        payload, _ = stack.pop()
        if isinstance(payload, tuple):
            stack += payload
        else:
            leaves.append(payload)
    assert sorted(leaves) == sorted(names)


def test_newick_reparses_ultrametric():
    d = _random_distance_matrix(9, 8)
    dg = agglomerate(d, "average")
    tree = parse_newick(export_dendrogram(dg, "newick"))
    root_height = dg.merges[-1].height

    leaves = []

    def walk(node, depth_total):
        payload, length = node
        if isinstance(payload, str):
            leaves.append((payload, depth_total + length))
            return
        for child in payload:
            walk(child, depth_total + (length or 0.0))

    walk((tree[0], 0.0), 0.0)
    assert sorted(name for name, _ in leaves) == sorted(dg.leaf_names)
    for _, total in leaves:
        assert total == pytest.approx(root_height, abs=5e-6)


def test_text_export_layout():
    m = _matrix([[0.0], [1.0], [10.0]])
    d = pairwise_distances(m, "euclidean", normalize=False)
    dg = agglomerate(d, "single", ["x", "y", "z"])
    lines = export_dendrogram(dg, "text").splitlines()
    assert lines[0] == "node 9.000000"
    assert lines[1] == "  node 1.000000"
    assert lines[2] == "    leaf x"
    assert lines[3] == "    leaf y"
    assert lines[4] == "  leaf z"


def test_export_deep_chain():
    # A chained tree (each merge adds one leaf) is n - 1 levels deep, past
    # the default recursion limit.
    n = 1500
    names = [f"r{i}" for i in range(n)]
    merges = [Merge(0, 1, 1.0, n)]
    merges += [Merge(n + i - 2, i, float(i), n + i - 1) for i in range(2, n)]
    dg = Dendrogram(n, merges, "single", names)

    lines = export_dendrogram(dg, "text").splitlines()
    assert len(lines) == 2 * n - 1
    leaves = [line.strip()[len("leaf "):] for line in lines if "leaf" in line]
    assert leaves == names
    assert lines[0] == f"node {n - 1:.6f}"
    assert lines[-1] == "  leaf r1499"
    assert lines[n - 1] == "  " * (n - 1) + "leaf r0"

    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + 2 * n)
    try:
        tree = parse_newick(export_dendrogram(dg, "newick"))
    finally:
        sys.setrecursionlimit(limit)
    # Walk down the left spine: each level holds the chain so far and the
    # leaf merged at that height.
    found = []
    node, depth = tree, 0.0
    while not isinstance(node[0], str):
        left, right = node[0]
        depth += node[1] or 0.0
        found.append((right[0], depth + right[1]))
        node = left
    found.append((node[0], depth + node[1]))
    assert [name for name, _ in found] == names[::-1]
    assert all(total == float(n - 1) for _, total in found)


def test_dendrogram_validation():
    merges = [Merge(0, 1, 1.0, 3), Merge(2, 3, 2.0, 4)]
    with pytest.raises(ValueError, match="n - 1 merges"):
        Dendrogram(3, merges[:1], "single", ["a", "b", "c"])
    with pytest.raises(ValueError, match="leaf names must cover every leaf"):
        Dendrogram(3, merges, "single", ["a", "b"])
    assert Dendrogram(3, merges, "single", ["a", "b", "c"]).n == 3


def test_export_single_leaf():
    dg = Dendrogram(1, [], "average", ["only"])
    assert export_dendrogram(dg, "newick") == "only;"
    assert export_dendrogram(dg, "text") == "leaf only\n"
    with pytest.raises(ValueError):
        export_dendrogram(dg, "svg")


def test_write_distance_csv(tmp_path):
    d = DistanceMatrix(2, np.array([3.0]), "euclidean", False)
    path = tmp_path / "d.csv"
    write_distance_csv(d, ["p", "q"], path, metadata={"metric": "euclidean"})
    lines = path.read_text().splitlines()
    assert lines[0] == "# metric: euclidean"
    assert lines[1] == "id,p,q"
    assert lines[2] == "p,0,3"
    assert lines[3] == "q,3,0"
    with pytest.raises(ValueError):
        write_distance_csv(d, ["p"], tmp_path / "bad.csv")


@pytest.mark.parametrize("ids", [
    ["a,b", 'say "hi"', "two\nlines", "#hash", " lead", ""], [""],
], ids=["awkward", "lone-empty"])
def test_distance_csv_matches_csv_writer_reference(tmp_path, ids):
    n = len(ids)
    condensed = np.abs(np.random.default_rng(3).normal(size=n * (n - 1) // 2))
    specials = [0.0, 5e-324, 2.2250738585072014e-308, 1e308, 0.1, 1.0 / 3.0]
    condensed[:len(specials)] = specials[:condensed.size]
    d = DistanceMatrix(n, condensed, "euclidean", True)
    meta = {"metric": "euclidean", "linkage": "ward"}
    write_distance_csv(d, ids, tmp_path / "got.csv", metadata=meta)
    float_rows_csv_ref(tmp_path / "want.csv", ["id", *ids], [[i] for i in ids],
                       d.full(), meta)
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_write_assignment_csv(tmp_path):
    assignment = ClusterAssignment(np.array([0, 1, 0]), 2)
    path = tmp_path / "c.csv"
    write_assignment_csv(assignment, ["a", "b", "c"], path)
    assert path.read_text() == "id,cluster\na,0\nb,1\nc,0\n"
    with pytest.raises(ValueError):
        write_assignment_csv(assignment, ["a"], tmp_path / "bad.csv")

"""Independent reference implementations used to cross-check the package.

Everything here is written from the underlying definitions in the plainest
possible style (scalar loops, exact integer or Fraction arithmetic where it
matters) and deliberately shares no code with the package.  Tests compare
package outputs against these oracles, never the other way around.
"""

from __future__ import annotations

import csv
import math
from fractions import Fraction

import numpy as np

MASK64 = (1 << 64) - 1


# ---------------------------------------------------------------------------
# SplitMix64 reference (scalar, pure int)


def splitmix64_stream(seed: int, count: int) -> list[int]:
    """First `count` raw 64-bit outputs for the given seed."""
    state = seed & MASK64
    out = []
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & MASK64
        z = state
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & MASK64
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB & MASK64
        out.append(z ^ (z >> 31))
    return out


def uniform_from_u64(x: int) -> float:
    return (x >> 11) * 2.0 ** -53


def fisher_yates_reference(n: int, seed: int) -> list[int]:
    """Backward Fisher-Yates driven by the SplitMix64 uniform stream."""
    stream = [uniform_from_u64(x) for x in splitmix64_stream(seed, max(n - 1, 0))]
    order = list(range(n))
    draw = 0
    for i in range(n - 1, 0, -1):
        j = int(stream[draw] * (i + 1))
        draw += 1
        if j > i:
            j = i
        order[i], order[j] = order[j], order[i]
    return order


# ---------------------------------------------------------------------------
# Scalar corpus painters: one uniform() per draw, in the documented order.
# The package draws the same stream in blocks; `rng` is any object with a
# scalar uniform(), and the constants are the generator's recipe.


def rand_int_scalar(rng, lo: int, hi: int) -> int:
    span = hi - lo + 1
    j = int(rng.uniform() * span)
    if j >= span:
        j = span - 1
    return lo + j


def paint_crack_scalar(gray: np.ndarray, rng) -> None:
    height, width = gray.shape
    x = rng.uniform() * width
    y = rng.uniform() * height
    angle = rng.uniform() * (2.0 * math.pi)
    steps = rand_int_scalar(rng, 30, 60)
    moves = [(rng.uniform(), rand_int_scalar(rng, 1, 3)) for _ in range(steps)]

    painted: set[tuple[int, int]] = set()

    def stamp(px: float, py: float, stroke: int) -> None:
        cx = math.floor(px)
        cy = math.floor(py)
        lo = -(stroke // 2)
        for dy in range(lo, lo + stroke):
            for dx in range(lo, lo + stroke):
                row, col = cy + dy, cx + dx
                if 0 <= row < height and 0 <= col < width:
                    painted.add((row, col))

    for turn, stroke in moves:
        angle += (turn * 2.0 - 1.0) * (math.pi / 16.0)
        x += math.cos(angle)
        y += math.sin(angle)
        x = min(max(x, 0.0), width - 1.0)
        y = min(max(y, 0.0), height - 1.0)
        stamp(x, y, stroke)

    for row, col in sorted(painted):
        gray[row, col] = rand_int_scalar(rng, 30, 60)


def paint_erosion_scalar(gray: np.ndarray, rng) -> None:
    height, width = gray.shape
    patches = rand_int_scalar(rng, 3, 8)
    params = []
    slot = width / patches
    for i in range(patches):
        radius = rand_int_scalar(rng, 5, 15)
        cx = (i + 0.5) * slot + (rng.uniform() - 0.5) * (slot * 0.5)
        cy = rng.uniform() * (height * 0.125)
        params.append((cx, cy, radius))
    for cx, cy, radius in params:
        row_lo = max(0, math.floor(cy - radius))
        row_hi = min(height - 1, math.ceil(cy + radius))
        col_lo = max(0, math.floor(cx - radius))
        col_hi = min(width - 1, math.ceil(cx + radius))
        rr = radius * radius
        for row in range(row_lo, row_hi + 1):
            for col in range(col_lo, col_hi + 1):
                if (col - cx) ** 2 + (row - cy) ** 2 <= rr:
                    if rng.uniform() < 0.4:
                        amount = rand_int_scalar(rng, 40, 80)
                        gray[row, col] = max(int(gray[row, col]) - amount, 0)


def skewness_direct(grid: np.ndarray) -> np.ndarray:
    """Features [6:9] of an (h, w, 3) uint8 grid, cubing every pixel's
    deviation in numpy as the package once did."""
    rgb = grid.astype(np.float64)
    means = rgb.mean(axis=(0, 1))
    sds = rgb.std(axis=(0, 1))
    m3 = ((rgb - means) ** 3).mean(axis=(0, 1))
    out = np.zeros(3)
    nonzero = sds > 0.0
    out[nonzero] = m3[nonzero] / sds[nonzero] ** 3
    return out


# ---------------------------------------------------------------------------
# Reference PPM writers (independent of the package writer)


def ppm_p3_bytes(width: int, height: int, samples: list[int]) -> bytes:
    body = "\n".join(
        " ".join(str(v) for v in samples[i : i + 3])
        for i in range(0, len(samples), 3)
    )
    return f"P3\n{width} {height}\n255\n{body}\n".encode("ascii")


def ppm_p6_bytes(width: int, height: int, samples: list[int]) -> bytes:
    return f"P6\n{width} {height}\n255\n".encode("ascii") + bytes(samples)


# ---------------------------------------------------------------------------
# Grayscale reference: exact round-half-up via Fraction


def grayscale_ref(r: int, g: int, b: int) -> int:
    exact = Fraction(299 * r + 587 * g + 114 * b, 1000)
    return math.floor(exact + Fraction(1, 2))


# ---------------------------------------------------------------------------
# Straight-line 37-feature reference


def features_ref(width: int, height: int, samples: list[int]) -> list[float]:
    """Recompute the whole feature vector with plain per-pixel loops."""
    n = width * height
    channels = [[samples[3 * p + c] for p in range(n)] for c in range(3)]
    gray = [
        grayscale_ref(samples[3 * p], samples[3 * p + 1], samples[3 * p + 2])
        for p in range(n)
    ]

    out: list[float] = []
    sds = []
    for c in range(3):
        vals = channels[c]
        mean = sum(vals) / n
        var = sum((v - mean) ** 2 for v in vals) / n
        sds.append(math.sqrt(var))
        out.append(mean / 255.0)
    for sd in sds:
        out.append(sd / 255.0)
    for c in range(3):
        vals = channels[c]
        mean = sum(vals) / n
        sd = sds[c]
        if sd == 0.0:
            out.append(0.0)
        else:
            m3 = sum((v - mean) ** 3 for v in vals) / n
            out.append(m3 / sd**3)

    hist = [0] * 16
    for v in gray:
        hist[min(v // 16, 15)] += 1
    out.extend(h / n for h in hist)

    # Sobel over interior pixels of the grayscale image.
    def g_at(row, col):
        return gray[row * width + col]

    mags = []
    strong = 0
    for row in range(1, height - 1):
        for col in range(1, width - 1):
            gx = (
                -g_at(row - 1, col - 1) + g_at(row - 1, col + 1)
                - 2 * g_at(row, col - 1) + 2 * g_at(row, col + 1)
                - g_at(row + 1, col - 1) + g_at(row + 1, col + 1)
            )
            gy = (
                -g_at(row - 1, col - 1) - 2 * g_at(row - 1, col) - g_at(row - 1, col + 1)
                + g_at(row + 1, col - 1) + 2 * g_at(row + 1, col) + g_at(row + 1, col + 1)
            )
            mag = math.sqrt(gx * gx + gy * gy)
            mags.append(mag)
            if mag > 100.0:
                strong += 1
    interior = (height - 2) * (width - 2)
    out.append(sum(mags) / interior / (255.0 * math.sqrt(32.0)))
    out.append(strong / interior)

    gmean = sum(gray) / n
    gvar = sum((v - gmean) ** 2 for v in gray) / n
    gsd = math.sqrt(gvar)
    if gsd == 0.0:
        out.append(0.0)
    else:
        cut = gmean - 2.0 * gsd
        out.append(sum(1 for v in gray if v < cut) / n)

    base_h = height // 3
    base_w = width // 3
    for cell_row in range(3):
        row_lo = cell_row * base_h
        row_hi = (cell_row + 1) * base_h if cell_row < 2 else height
        for cell_col in range(3):
            col_lo = cell_col * base_w
            col_hi = (cell_col + 1) * base_w if cell_col < 2 else width
            total = 0
            count = 0
            for row in range(row_lo, row_hi):
                for col in range(col_lo, col_hi):
                    total += g_at(row, col)
                    count += 1
            out.append(total / count / 255.0)
    return out


def extract_features_numpy(grid: np.ndarray) -> np.ndarray:
    """The 37 features of an (h, w, 3) uint8 grid as the package once
    computed them: float64 numpy reductions over the whole grid, one per
    statistic.  Bit-exact reference for the package's extractor."""
    height, width = grid.shape[:2]
    rgb = grid.astype(np.float64)
    out = np.zeros(37)

    means = rgb.mean(axis=(0, 1))
    sds = rgb.std(axis=(0, 1))
    out[0:3] = means / 255.0
    out[3:6] = sds / 255.0
    cubes = (np.arange(256.0)[:, None] - means) ** 3
    m3 = cubes[grid, np.arange(3)].mean(axis=(0, 1))
    nonzero = sds > 0.0
    out[6:9][nonzero] = m3[nonzero] / sds[nonzero] ** 3

    wide = grid.astype(np.int64)
    gray = (299 * wide[..., 0] + 587 * wide[..., 1] + 114 * wide[..., 2] + 500) // 1000
    gray = gray.astype(np.float64)
    n_pixels = gray.size

    bins = (gray.astype(np.int64) // 16).reshape(-1)
    out[9:25] = np.bincount(bins, minlength=16) / n_pixels

    gx = (
        gray[:-2, 2:] + 2.0 * gray[1:-1, 2:] + gray[2:, 2:]
        - gray[:-2, :-2] - 2.0 * gray[1:-1, :-2] - gray[2:, :-2]
    )
    gy = (
        gray[2:, :-2] + 2.0 * gray[2:, 1:-1] + gray[2:, 2:]
        - gray[:-2, :-2] - 2.0 * gray[:-2, 1:-1] - gray[:-2, 2:]
    )
    magnitude = np.sqrt(gx * gx + gy * gy)
    out[25] = magnitude.mean() / (255.0 * np.sqrt(32.0))
    out[26] = float(np.mean(magnitude > 100.0))

    g_mean = gray.mean()
    g_sd = gray.std()
    if g_sd > 0.0:
        out[27] = float(np.mean(gray < g_mean - 2.0 * g_sd))

    row_base = height // 3
    col_base = width // 3
    row_edges = [0, row_base, 2 * row_base, height]
    col_edges = [0, col_base, 2 * col_base, width]
    for gi in range(3):
        for gj in range(3):
            cell = gray[row_edges[gi]:row_edges[gi + 1],
                        col_edges[gj]:col_edges[gj + 1]]
            out[28 + 3 * gi + gj] = cell.mean() / 255.0
    return out


# ---------------------------------------------------------------------------
# Reference CSV writer for rows of key cells followed by reals


def float_rows_csv_ref(path, header, keys, values, metadata=None) -> None:
    """The csv.writer row path the feature and distance writers once took:
    every value becomes its own `format(v, ".17g")` cell."""
    with open(path, "w", newline="") as handle:
        for key, value in (metadata or {}).items():
            handle.write(f"# {key}: {value}\n")
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for key, row in zip(keys, values):
            writer.writerow([*key, *(format(float(v), ".17g") for v in row)])


# ---------------------------------------------------------------------------
# Metric references


def confusion_ref(actual, predicted, classes):
    index = {c: i for i, c in enumerate(classes)}
    counts = [[0] * len(classes) for _ in classes]
    for a, p in zip(actual, predicted):
        counts[index[a]][index[p]] += 1
    return counts


def accuracy_ref(counts):
    total = sum(sum(row) for row in counts)
    return sum(counts[i][i] for i in range(len(counts))) / total


def _one_vs_rest(counts, c):
    k = len(counts)
    tp = counts[c][c]
    fn = sum(counts[c][j] for j in range(k)) - tp
    fp = sum(counts[i][c] for i in range(k)) - tp
    tn = sum(sum(row) for row in counts) - tp - fn - fp
    return tp, fp, fn, tn


def weighted_prf_ref(counts):
    """(precision, recall, specificity, f1), support-weighted, 0 conventions."""
    k = len(counts)
    total = sum(sum(row) for row in counts)
    precision = recall = specificity = f1 = 0.0
    for c in range(k):
        support = sum(counts[c])
        tp, fp, fn, tn = _one_vs_rest(counts, c)
        p = tp / (tp + fp) if tp + fp > 0 else 0.0
        r = tp / (tp + fn) if tp + fn > 0 else 0.0
        s = tn / (tn + fp) if tn + fp > 0 else 0.0
        f = 2.0 * p * r / (p + r) if p + r > 0 else 0.0
        w = support / total
        precision += w * p
        recall += w * r
        specificity += w * s
        f1 += w * f
    return precision, recall, specificity, f1


def mcc_cov_ref(counts):
    """Multiclass MCC from the covariance definition, exact integers inside."""
    k = len(counts)
    n = sum(sum(row) for row in counts)
    trace = sum(counts[i][i] for i in range(k))
    pred_tot = [sum(counts[i][j] for i in range(k)) for j in range(k)]
    act_tot = [sum(counts[i]) for i in range(k)]
    numer = trace * n - sum(p * a for p, a in zip(pred_tot, act_tot))
    d_pred = n * n - sum(p * p for p in pred_tot)
    d_act = n * n - sum(a * a for a in act_tot)
    if d_pred == 0 or d_act == 0:
        return 0.0
    return numer / (math.sqrt(d_pred) * math.sqrt(d_act))


def mcc_binary_textbook(tp, fp, fn, tn):
    denom = math.sqrt(tp + fp) * math.sqrt(tp + fn) * math.sqrt(tn + fp) * math.sqrt(tn + fn)
    if denom == 0.0:
        return 0.0
    return (tp * tn - fp * fn) / denom


def auc_pairs_ref(scores, positive_flags):
    """Pair-counting AUC with half credit for score ties."""
    pos = [s for s, f in zip(scores, positive_flags) if f]
    neg = [s for s, f in zip(scores, positive_flags) if not f]
    if not pos or not neg:
        return None
    num = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                num += 1.0
            elif p == q:
                num += 0.5
    return num / (len(pos) * len(neg))


def auc_trapezoid_ref(scores, positive_flags):
    """Trapezoidal area under the ROC curve swept over distinct thresholds."""
    pos_total = sum(1 for f in positive_flags if f)
    neg_total = len(positive_flags) - pos_total
    if pos_total == 0 or neg_total == 0:
        return None
    pairs = sorted(zip(scores, positive_flags), key=lambda t: -t[0])
    area = 0.0
    tp = fp = 0
    prev_tpr = prev_fpr = 0.0
    i = 0
    while i < len(pairs):
        j = i
        while j < len(pairs) and pairs[j][0] == pairs[i][0]:
            if pairs[j][1]:
                tp += 1
            else:
                fp += 1
            j += 1
        tpr = tp / pos_total
        fpr = fp / neg_total
        area += (fpr - prev_fpr) * (tpr + prev_tpr) / 2.0
        prev_tpr, prev_fpr = tpr, fpr
        i = j
    return area


def weighted_auc_ref(score_rows, actual, classes):
    """Support-weighted one-vs-rest AUC over classes with both outcomes."""
    total = len(actual)
    acc = 0.0
    weight = 0.0
    for c, name in enumerate(classes):
        flags = [a == name for a in actual]
        one = auc_pairs_ref([row[c] for row in score_rows], flags)
        if one is None:
            continue
        support = sum(flags) / total
        acc += support * one
        weight += support
    if weight == 0.0:
        return None
    return acc / weight


def log_loss_ref(score_rows, actual, classes):
    index = {c: i for i, c in enumerate(classes)}
    total = 0.0
    for row, a in zip(score_rows, actual):
        p = row[index[a]]
        p = min(max(p, 1e-15), 1.0 - 1e-15)
        total += -math.log(p)
    return total / len(actual)


def regression_ref(actual, predicted):
    mean = sum(actual) / len(actual)
    sse = sum((a - p) ** 2 for a, p in zip(actual, predicted))
    sst = sum((a - mean) ** 2 for a in actual)
    r2 = None if sst == 0.0 else 1.0 - sse / sst
    return sse, sst, r2


def fold_win_ref(a_values, b_values):
    """Fraction of folds where model A's value exceeds B's, ties half."""
    wins = sum(1 for a, b in zip(a_values, b_values) if a > b)
    ties = sum(1 for a, b in zip(a_values, b_values) if a == b)
    return (wins + 0.5 * ties) / len(a_values)


# ---------------------------------------------------------------------------
# Finite differences


def central_difference(f, x: float, h: float = 1e-5) -> float:
    return (f(x + h) - f(x - h)) / (2.0 * h)


# ---------------------------------------------------------------------------
# One-vs-rest logistic descent, one class at a time


class LogisticDivergence(ValueError):
    """The gradient of class `class_index` became non-finite in the 1-based
    iteration `iteration`."""

    def __init__(self, class_index: int, iteration: int):
        super().__init__(f"class {class_index}: iteration {iteration}")
        self.class_index = class_index
        self.iteration = iteration


def sigmoid_sign_split(z):
    """1 / (1 + exp(-z)) on the entries z >= 0 and exp(z) / (1 + exp(z))
    on the others, each branch evaluated on its own subset."""
    z = np.asarray(z, dtype=np.float64)
    s = np.empty_like(z)
    pos = z >= 0
    s[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    s[~pos] = ez / (1.0 + ez)
    return s


def logistic_descent(X, y, class_count, rate, limit, tolerance, l2):
    """Full-batch gradient descent on each one-vs-rest problem in turn, with
    an unstacked gemv forward (X @ w) and backward (X.T @ r) pass and the
    sign-split stable sigmoid: the arithmetic the lockstep trainer must
    reproduce bit for bit.  A class stops before its step once
    max(|g0|, max |gw|) < tolerance.

    Returns (intercepts, coefficients, steps taken per class); raises
    LogisticDivergence at the first non-finite gradient.
    """
    X = np.asarray(X, dtype=np.float64)
    n, p = X.shape
    intercepts = np.zeros(class_count)
    coefficients = np.zeros((class_count, p))
    steps = []
    with np.errstate(over="ignore", invalid="ignore"):
        for c in range(class_count):
            targets = (np.asarray(y) == c).astype(np.float64)
            intercept = 0.0
            weights = np.zeros(p)
            taken = limit
            for iteration in range(limit):
                residual = sigmoid_sign_split(intercept + X @ weights) - targets
                g0 = float(residual.mean())
                gw = X.T @ residual / n + l2 * weights
                gw_max = float(np.abs(gw).max()) if p else 0.0
                if not (math.isfinite(g0) and math.isfinite(gw_max)):
                    raise LogisticDivergence(c, iteration + 1)
                if max(abs(g0), gw_max) < tolerance:
                    taken = iteration
                    break
                intercept -= rate * g0
                weights -= rate * gw
            intercepts[c] = intercept
            coefficients[c] = weights
            steps.append(taken)
    return intercepts, coefficients, steps


# ---------------------------------------------------------------------------
# Brute-force tree root split


def gini_from_counts(counts):
    size = sum(counts)
    return 1.0 - sum((c / size) ** 2 for c in counts if size)


def best_root_split_ref(X, y, class_count, min_leaf):
    """Exhaustive search over per-feature midpoints of consecutive distinct
    sorted values; decrease computed with the same arithmetic shape as the
    implementation (parent - fracL*giniL - fracR*giniR)."""
    n = len(y)
    parent_counts = [0] * class_count
    for label in y:
        parent_counts[label] += 1
    parent = gini_from_counts(parent_counts)
    best = None
    for f in range(len(X[0])):
        values = sorted(set(row[f] for row in X))
        for lo, hi in zip(values, values[1:]):
            threshold = (lo + hi) / 2.0
            left = [i for i in range(n) if X[i][f] <= threshold]
            right = [i for i in range(n) if X[i][f] > threshold]
            if len(left) < min_leaf or len(right) < min_leaf:
                continue
            lc = [0] * class_count
            rc = [0] * class_count
            for i in left:
                lc[y[i]] += 1
            for i in right:
                rc[y[i]] += 1
            decrease = (
                parent
                - (len(left) / n) * gini_from_counts(lc)
                - (len(right) / n) * gini_from_counts(rc)
            )
            if decrease <= 0.0:
                continue
            if best is None or decrease > best[2]:
                best = (f, threshold, decrease)
    return best


def tree_walk_ref(root, X):
    """Per-row tree prediction: each row follows `x[feature] <= threshold`
    to the left child (NaN compares false, so it goes right) down to a leaf
    and takes a copy of that leaf's probs."""
    out = []
    for x in np.asarray(X, dtype=np.float64):
        node = root
        while node.feature is not None:
            node = node.left if x[node.feature] <= node.threshold else node.right
        out.append(node.probs.copy())
    return np.array(out)


# ---------------------------------------------------------------------------
# Naive agglomerative clustering oracle


def linkage_oracle(dist, linkage):
    """Recompute-from-scratch agglomeration over an explicit member list.

    dist: full symmetric matrix (list of lists).  Returns merge records
    (left_id, right_id, height, new_id) with leaf ids 0..n-1 and merged ids
    n, n+1, ...  Ward distances come from the closed form on squared
    original distances:
        d_w(A,B)^2 = (2|A||B|/(|A|+|B|)) * (M_AB - M_AA/2 - M_BB/2)
    where M_XY is the mean of squared distances between X and Y members.
    """
    n = len(dist)
    clusters = {i: [i] for i in range(n)}
    next_id = n
    merges = []

    def mean_sq(a_members, b_members):
        total = 0.0
        for i in a_members:
            for j in b_members:
                total += dist[i][j] ** 2
        return total / (len(a_members) * len(b_members))

    def cluster_distance(a, b):
        am, bm = clusters[a], clusters[b]
        if linkage == "single":
            return min(dist[i][j] for i in am for j in bm)
        if linkage == "complete":
            return max(dist[i][j] for i in am for j in bm)
        if linkage == "average":
            return sum(dist[i][j] for i in am for j in bm) / (len(am) * len(bm))
        p, q = len(am), len(bm)
        value = (2.0 * p * q / (p + q)) * (
            mean_sq(am, bm) - mean_sq(am, am) / 2.0 - mean_sq(bm, bm) / 2.0
        )
        return math.sqrt(max(value, 0.0))

    while len(clusters) > 1:
        best = None
        for a in clusters:
            for b in clusters:
                if a == b:
                    continue
                la, lb = min(clusters[a]), min(clusters[b])
                if la > lb:
                    continue
                d = cluster_distance(a, b)
                key = (d, la, lb)
                if best is None or key < best[0]:
                    best = (key, a, b)
        key, a, b = best
        height = key[0]
        merges.append((a, b, height, next_id))
        clusters[next_id] = clusters.pop(a) + clusters.pop(b)
        next_id += 1
    return merges


def zscore_euclidean_ref(rows):
    """Full euclidean distance matrix of the rows after z-scoring every
    column by its mean and population standard deviation; a column whose
    values are all equal becomes all zeros."""
    n = len(rows)
    columns = []
    for col in zip(*rows):
        if min(col) == max(col):
            columns.append([0.0] * n)
            continue
        mean = math.fsum(col) / n
        sd = math.sqrt(math.fsum((v - mean) ** 2 for v in col) / n)
        columns.append([(v - mean) / sd for v in col])
    z = list(zip(*columns))
    return [[math.sqrt(math.fsum((a - b) ** 2 for a, b in zip(z[i], z[j])))
             for j in range(n)] for i in range(n)]


def cut_ref(merges, n, count):
    """Cluster index per leaf after undoing the last count - 1 of the
    (left, right, height, new_id) merges; clusters are numbered in order of
    their smallest leaf."""
    members = {i: [i] for i in range(n)}
    for left, right, _, new_id in merges[: n - count]:
        members[new_id] = members.pop(left) + members.pop(right)
    labels = [0] * n
    for c, group in enumerate(sorted(members.values(), key=min)):
        for leaf in group:
            labels[leaf] = c
    return labels


def lance_williams_scan(dist, linkage):
    """Scalar pair-scan agglomeration: an exact-equality reference for the
    package's vectorised Lance-Williams loop (same merges, same height bits).

    dist: full symmetric numpy matrix.  At each step every active pair is
    scanned for the smallest (distance, left min leaf, right min leaf) key,
    and the merged cluster's distances are updated one scalar at a time by
    Lance-Williams on a (2n - 1)^2 matrix.  Returns merge records
    (left_id, right_id, height, new_id) like linkage_oracle.
    """
    n = len(dist)
    total = 2 * n - 1
    work = np.zeros((total, total))
    base = np.asarray(dist, dtype=np.float64)
    if linkage == "ward":
        base = base ** 2
    work[:n, :n] = base

    min_leaf = list(range(n)) + [0] * (n - 1)
    size = [1] * n + [0] * (n - 1)
    active = list(range(n))
    merges = []

    for step in range(n - 1):
        best = None
        best_key = None
        for ai in range(len(active)):
            for bi in range(ai + 1, len(active)):
                p, q = active[ai], active[bi]
                if min_leaf[p] <= min_leaf[q]:
                    key = (work[p, q], min_leaf[p], min_leaf[q])
                    pair = (p, q)
                else:
                    key = (work[p, q], min_leaf[q], min_leaf[p])
                    pair = (q, p)
                if best_key is None or key < best_key:
                    best_key = key
                    best = pair
        left, right = best
        dist_lr = work[left, right]
        height = float(np.sqrt(dist_lr)) if linkage == "ward" else float(dist_lr)
        new_id = n + step
        merges.append((left, right, height, new_id))

        p_size, q_size = size[left], size[right]
        active = [c for c in active if c not in (left, right)]
        for other in active:
            dp = work[left, other]
            dq = work[right, other]
            if linkage == "single":
                updated = min(dp, dq)
            elif linkage == "complete":
                updated = max(dp, dq)
            elif linkage == "average":
                updated = (p_size * dp + q_size * dq) / (p_size + q_size)
            else:
                r_size = size[other]
                updated = (
                    (p_size + r_size) * dp
                    + (q_size + r_size) * dq
                    - r_size * dist_lr
                ) / (p_size + q_size + r_size)
            work[new_id, other] = updated
            work[other, new_id] = updated
        min_leaf[new_id] = min_leaf[left]
        size[new_id] = p_size + q_size
        active.append(new_id)
    return merges


def agglomerate_full_matrix(dist, linkage):
    """The package's former full-matrix agglomeration: an exact-equality
    reference for the condensed loop at sizes the scalar scan cannot reach.

    dist: full symmetric numpy matrix.  Slot s of the n x n working matrix
    holds the active cluster whose smallest leaf is s; a merge keeps the
    left slot and sets the right slot's row and column to +inf, as is the
    diagonal, so each merge is the first row-major np.argmin plus one
    vector Lance-Williams update.  Returns merge records (left_id,
    right_id, height, new_id) like linkage_oracle.
    """
    n = len(dist)
    work = np.array(dist, dtype=np.float64)
    if linkage == "ward":
        work = work ** 2
    np.fill_diagonal(work, np.inf)
    size = np.ones(n)
    ids = list(range(n))
    merges = []

    for step in range(n - 1):
        left, right = divmod(int(np.argmin(work)), n)
        dist_lr = work[left, right]
        height = float(np.sqrt(dist_lr)) if linkage == "ward" else float(dist_lr)
        merges.append((ids[left], ids[right], height, n + step))

        dp, dq = work[left], work[right]
        p, q = size[left], size[right]
        if linkage == "single":
            up = np.where(dq < dp, dq, dp)
        elif linkage == "complete":
            up = np.where(dq > dp, dq, dp)
        elif linkage == "average":
            up = (p * dp + q * dq) / (p + q)
        else:
            up = (
                (p + size) * dp + (q + size) * dq - size * dist_lr
            ) / (p + q + size)
        up[left] = up[right] = np.inf
        work[left] = work[:, left] = up
        work[right] = work[:, right] = np.inf
        size[left] = p + q
        ids[left] = n + step
    return merges


def prim_mst_weights(dist):
    """Sorted edge weights of a minimum spanning tree."""
    n = len(dist)
    in_tree = [False] * n
    in_tree[0] = True
    best = [dist[0][i] for i in range(n)]
    weights = []
    for _ in range(n - 1):
        pick = min(
            (i for i in range(n) if not in_tree[i]), key=lambda i: best[i]
        )
        weights.append(best[pick])
        in_tree[pick] = True
        for i in range(n):
            if not in_tree[i] and dist[pick][i] < best[i]:
                best[i] = dist[pick][i]
    return sorted(weights)


# ---------------------------------------------------------------------------
# Newick parsing (round-trip checks)


def parse_newick(text: str):
    """Parse a Newick string into (topology, branch_length) nests.

    Leaves parse to (name, length); internal nodes to (children_tuple,
    length).  Only the subset emitted by the package is supported.
    """
    text = text.strip()
    if not text.endswith(";"):
        raise ValueError("newick must end with ';'")
    pos = 0

    def node():
        nonlocal pos
        if text[pos] == "(":
            pos += 1
            children = [node()]
            while text[pos] == ",":
                pos += 1
                children.append(node())
            if text[pos] != ")":
                raise ValueError(f"expected ')' at {pos}")
            pos += 1
            payload = tuple(children)
        else:
            start = pos
            while text[pos] not in ":,();":
                pos += 1
            payload = text[start:pos]
        length = None
        if text[pos] == ":":
            pos += 1
            start = pos
            while text[pos] not in ",();":
                pos += 1
            length = float(text[start:pos])
        return (payload, length)

    root = node()
    if text[pos] != ";":
        raise ValueError("trailing content after root")
    return root


def purity_ref(cluster_labels, class_labels):
    groups = {}
    for c, lab in zip(cluster_labels, class_labels):
        groups.setdefault(c, []).append(lab)
    top = 0
    for members in groups.values():
        top += max(members.count(x) for x in set(members))
    return top / len(class_labels)

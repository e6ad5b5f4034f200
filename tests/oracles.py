"""Independent reference implementations the test suite checks against.

Every oracle here favors directness over speed: exact dynamic programming,
scalar loops, bit-by-bit arithmetic. None share code with the package, so an
agreement between the two is evidence, not tautology.
"""

import math
from fractions import Fraction
from itertools import accumulate

import numpy as np


def optimal_kmeans_sse(values, k: int) -> float:
    """Exact minimum SSE over all k-cluster quantizations of 1-D data.

    In one dimension the optimal clusters are contiguous runs of the sorted
    values, so dynamic programming over split points is exact:
    D[c][j] = min over m of D[c-1][m-1] + cost(m, j), with segment costs from
    prefix sums. O(n^2 k) time, O(n^2) memory.
    """
    vals = np.sort(np.asarray(values, dtype=np.float64).reshape(-1))
    n = vals.size
    if n == 0:
        raise ValueError("values must be non-empty")
    k = min(int(k), n)
    ps = np.concatenate(([0.0], np.cumsum(vals)))
    ps2 = np.concatenate(([0.0], np.cumsum(vals * vals)))

    start = np.arange(n)[:, None]
    stop = np.arange(n)[None, :]
    count = stop - start + 1
    seg_sum = ps[stop + 1] - ps[start]
    seg_sq = ps2[stop + 1] - ps2[start]
    with np.errstate(divide="ignore", invalid="ignore"):
        cost = seg_sq - seg_sum * seg_sum / count
    # cancellation can leave tiny negatives on constant segments
    cost = np.where(count >= 1, np.maximum(cost, 0.0), np.inf)

    best = cost[0].copy()
    for _ in range(1, k):
        prev = np.concatenate(([np.inf], best[:-1]))
        best = np.min(prev[:, None] + cost, axis=0)
    return float(best[n - 1])


def lloyd_1d_reference(values, k, init="linspace", seed=0, max_iters=300, tol=1e-6):
    """1-D Lloyd as the package first shipped it: one math.fsum over each
    whole segment per sweep, np.unique for the distinct values.

    The "SSE increased" check compares exact SSEs: Σ(x - c)² over the
    values of the non-empty segments, in Fractions, rounded once to float64
    (inf past its range, nan where such a segment's centroid is not
    finite). Each segment's share is Σx² - 2cΣx + nc², from exact prefix
    sums of x and x² taken once.

    Returns (fp32 centroids, uint32 assignments) in the original value order
    and, like CentroidTable, rejects centroids that overflow fp32.
    """
    vals = np.asarray(values, dtype=np.float64).reshape(-1)
    if vals.size == 0:
        raise ValueError("values must be non-empty")
    if not np.all(np.isfinite(vals)):
        raise ValueError("values must be finite")
    if k < 1:
        raise ValueError("k must be >= 1")

    def init_centroids(values):
        if init == "linspace":
            return np.linspace(values.min(), values.max(), k)
        rng = np.random.default_rng(seed)
        centroids = np.empty(k, dtype=np.float64)
        centroids[0] = values[rng.integers(values.size)]
        d2 = np.square(values - centroids[0])
        for i in range(1, k):
            total = d2.sum()
            if total <= 0.0:
                centroids[i:] = centroids[i - 1]
                break
            centroids[i] = values[rng.choice(values.size, p=d2 / total)]
            d2 = np.minimum(d2, np.square(values - centroids[i]))
        return np.sort(centroids)

    def segment_bounds(sorted_values, centroids):
        mids = (centroids[:-1] + centroids[1:]) / 2.0
        inner = np.searchsorted(sorted_values, mids, side="right")
        return np.concatenate(([0], inner, [sorted_values.size]))

    def segment_means(sorted_values, bounds):
        means = []
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            if hi > lo:
                means.append(math.fsum(sorted_values[lo:hi]) / (hi - lo))
            else:
                means.append(None)
        return means

    order = np.argsort(vals, kind="stable")
    svals = vals[order]
    exact = [Fraction(x) for x in svals.tolist()]
    sum_x = list(accumulate(exact, initial=Fraction(0)))
    sum_x2 = list(accumulate((x * x for x in exact), initial=Fraction(0)))

    def exact_sse(centroids, bounds):
        total = Fraction(0)
        for c, lo, hi in zip(centroids.tolist(), bounds[:-1].tolist(), bounds[1:].tolist()):
            if hi == lo:
                continue
            if not math.isfinite(c):
                return math.nan
            c = Fraction(c)
            total += sum_x2[hi] - sum_x2[lo] - 2 * c * (sum_x[hi] - sum_x[lo]) + (hi - lo) * c * c
        try:
            return float(total)
        except OverflowError:
            return math.inf

    distinct = np.unique(svals)
    if distinct.size <= k:
        centroids = np.concatenate(
            (distinct, np.full(k - distinct.size, distinct[-1]))
        )
        assign_sorted = np.searchsorted(distinct, svals).astype(np.uint32)
    else:
        centroids = np.sort(init_centroids(svals))
        prev_sse = math.inf
        for _ in range(max_iters):
            bounds = segment_bounds(svals, centroids)
            means = segment_means(svals, bounds)
            reseeded = False
            filled = np.array(
                [m if m is not None else np.nan for m in means], dtype=np.float64
            )
            if any(m is None for m in means):
                reseeded = True
                assign = np.repeat(
                    np.arange(k), np.diff(bounds).astype(np.int64)
                )
                dist = np.abs(svals - np.where(np.isnan(filled), 0.0, filled)[assign])
                for i in range(k):
                    if means[i] is None:
                        far = int(np.argmax(dist))
                        filled[i] = svals[far]
                        dist[far] = -1.0
            new_centroids = np.sort(filled)
            movement = float(np.max(np.abs(new_centroids - centroids)))
            centroids = new_centroids
            bounds = segment_bounds(svals, centroids)
            assign_sorted = np.repeat(
                np.arange(k, dtype=np.uint32), np.diff(bounds).astype(np.int64)
            )
            sse = exact_sse(centroids, bounds)
            if not reseeded and sse > prev_sse * (1.0 + 1e-9):
                raise RuntimeError("k-means SSE increased")
            prev_sse = sse
            if movement <= tol and not reseeded:
                break

    assignments = np.empty(vals.size, dtype=np.uint32)
    assignments[order] = assign_sorted
    table = centroids.astype(np.float32)
    if not np.all(np.isfinite(table)):
        raise ValueError("centroids must be finite")
    return table, assignments


def gemm_nn_reference(m, n, k, alpha, a, lda, b, ldb, c, ldc):
    """Scalar-loop fp32 GEMM: C[i,j] += alpha * A[i,k] * B[k,j].

    Accumulates in (i, k, j) order with one float32 rounding per multiply and
    per add. Returns a fresh flat array; inputs are untouched.
    """
    a = np.asarray(a, dtype=np.float32).reshape(-1)
    b = np.asarray(b, dtype=np.float32).reshape(-1)
    out = np.asarray(c, dtype=np.float32).reshape(-1).copy()
    alpha = np.float32(alpha)
    for i in range(m):
        for kk in range(k):
            a_part = alpha * a[i * lda + kk]
            for j in range(n):
                out[i * ldc + j] = out[i * ldc + j] + a_part * b[kk * ldb + j]
    return out


def conv_forward_reference(layer, x, kernel, biases):
    """Direct sliding-window convolution with scalar fp32 accumulation.

    Taps are added channel-major, then kernel row, then kernel column -- the
    same order an im2col GEMM accumulates -- so a correct engine matches this
    bitwise. Zero-padding taps are skipped; adding an exact 0.0 to a float32
    accumulator never changes it, so skipping is equivalent.
    """
    spec = layer.conv
    in_c, in_h, in_w = x.shape
    oh, ow = layer.out_shape.h, layer.out_shape.w
    w = np.asarray(kernel, dtype=np.float32).reshape(
        spec.filters, in_c, spec.kernel, spec.kernel
    )
    x = np.asarray(x, dtype=np.float32)
    biases = np.asarray(biases, dtype=np.float32)
    out = np.zeros((spec.filters, oh, ow), dtype=np.float32)
    for f in range(spec.filters):
        for oy in range(oh):
            for ox in range(ow):
                acc = np.float32(0.0)
                for ch in range(in_c):
                    for kr in range(spec.kernel):
                        for kc in range(spec.kernel):
                            iy = oy * spec.stride + kr - spec.pad
                            ix = ox * spec.stride + kc - spec.pad
                            if 0 <= iy < in_h and 0 <= ix < in_w:
                                acc = acc + w[f, ch, kr, kc] * x[ch, iy, ix]
                out[f, oy, ox] = acc + biases[f]
    if spec.activation == "leaky":
        out = np.where(out > 0, out, np.float32(0.1) * out)
    return out


def pack_indices_reference(indices, bits: int) -> list[int]:
    """Bit-by-bit little-endian packer.

    Index j occupies bits [(j % f) * bits, (j % f) * bits + bits) of word
    j // f where f = 32 // bits; indexes never span a word boundary.
    """
    per_word = 32 // bits
    words = [0] * (-(-len(indices) // per_word))
    for j, idx in enumerate(indices):
        idx = int(idx)
        if not 0 <= idx < (1 << bits):
            raise ValueError(f"index {idx} does not fit in {bits} bits")
        words[j // per_word] |= idx << ((j % per_word) * bits)
    return words


def conv_stream_counts(in_h, in_w, in_c, filters, kernel, stride=1):
    """Enumerate the row-streaming schedule access by access.

    Stride 1: the modeled engine computes one output row per kernel-height
    window position over the unpadded input (interior positions only for
    3x3); each position re-streams the full filter set and fetches the
    window's input rows.

    Stride 2 (3x3 only): the window still visits every interior position
    of the unpadded input and fetches its three rows, each one element
    wider than the map, for the padded column that the last window of a
    row reaches. The filter set is re-streamed once per computed output row
    of the padded map's (in_h - 1) // 2 + 1, but for its first and last.

    Returns (weight_reads, input_reads) element counts.
    """
    if (kernel, stride) == (3, 1):
        positions = range(in_h - 2)
    elif (kernel, stride) == (1, 1):
        positions = range(in_h)
    elif (kernel, stride) == (3, 2):
        out_h = (in_h - 1) // 2 + 1
        weight_reads = input_reads = 0
        for out_row in range(out_h):
            if 0 < out_row < out_h - 1:
                for _f in range(filters):
                    for _c in range(in_c):
                        weight_reads += kernel * kernel
        for _ in range(in_h - 2):
            for _r in range(kernel):
                for _c in range(in_c):
                    input_reads += in_w + 1
        return weight_reads, input_reads
    else:
        raise ValueError(f"no schedule for kernel {kernel} stride {stride}")
    weight_reads = 0
    input_reads = 0
    for _ in positions:
        for _f in range(filters):
            for _c in range(in_c):
                weight_reads += kernel * kernel
        for _r in range(kernel):
            for _c in range(in_c):
                input_reads += in_w
    return weight_reads, input_reads

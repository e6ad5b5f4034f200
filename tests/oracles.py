"""Independent reference implementations the test suite checks against.

Every oracle here favors directness over speed: exact dynamic programming,
scalar loops, bit-by-bit arithmetic. None share code with the package, so an
agreement between the two is evidence, not tautology.
"""

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


def conv_stream_counts(in_h, in_w, in_c, filters, kernel):
    """Enumerate the stride-1 row-streaming schedule access by access.

    The modeled engine computes one output row per kernel-height window
    position over the unpadded input (interior positions only for 3x3);
    each position re-streams the full filter set and fetches the window's
    input rows. Returns (weight_reads, input_reads) element counts.
    """
    if kernel == 3:
        positions = range(in_h - 2)
    elif kernel == 1:
        positions = range(in_h)
    else:
        raise ValueError(f"no schedule for kernel {kernel}")
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

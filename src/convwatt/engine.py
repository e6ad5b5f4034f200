"""Reference inference engine for verifying clustered execution.

The point is reproducible arithmetic. All three GEMM variants share one
core that walks k in increasing order and at step k updates all M x N
outputs at once with the products A[i,k] * B[k,j]: the output-stationary
order, vectorized over (i, j) only. Products and sums are separate fp32
operations, never fused or reassociated, so each output element gets the
same rounding sequence as a scalar (i, k, j) loop. That makes "bitwise
equal" a meaningful, testable contract between plain weights, dequantized
weights, and on-the-fly codebook indirection.
"""

from __future__ import annotations

import numpy as np

from .cluster import (
    SCOPE_ALL_LAYERS,
    ClusteredModel,
    ConvParams,
    DarknetWeights,
    unpack_indices,
)
from .netdef import (
    CONVOLUTIONAL,
    ROUTE,
    SHORTCUT,
    UPSAMPLE,
    YOLO,
    LayerSpec,
    NetworkDef,
    infer_shapes,
)

LEAKY_SLOPE = np.float32(0.1)


def _as_f32(name: str, arr, inout: bool = False) -> np.ndarray:
    out = np.asarray(arr)
    if out.dtype != np.float32:
        raise TypeError(f"{name} must be float32, got {out.dtype}")
    flat = out.reshape(-1)
    if inout and not np.shares_memory(flat, out):
        raise ValueError(f"{name} must be a contiguous buffer (updated in place)")
    return flat


def _check_extent(name: str, size: int, rows: int, ld: int, cols: int):
    if ld < cols:
        raise ValueError(f"{name}: leading dimension {ld} < row width {cols}")
    needed = (rows - 1) * ld + cols if rows else 0
    if size < needed:
        raise ValueError(f"{name}: {size} elements, need at least {needed}")


def _rows(flat: np.ndarray, rows: int, cols: int, ld: int) -> np.ndarray:
    """(rows, cols) view of a flat buffer whose rows start ld elements apart.

    Callers check the extent first, so the view never reaches past flat.
    """
    step = flat.strides[0]
    return np.lib.stride_tricks.as_strided(
        flat, shape=(rows, cols), strides=(ld * step, step)
    )


def _accumulate(M, N, K, columns, b, ldb, c, ldc):
    """The GEMM core: C[:M, :N] += A[:, k, None] * B[k, :N] for k in order.

    columns yields A's columns, already scaled by alpha, as (M, 1) fp32
    arrays; the variants differ only in how they produce them. Each step
    rounds its M*N products to fp32 and then adds them to C, so every C
    element sees the same sequence of fp32 roundings as a scalar (i, k, j)
    loop.
    """
    out = _rows(c, M, N, ldc)
    prod = np.empty((M, N), dtype=np.float32)
    for column, row in zip(columns, _rows(b, K, N, ldb)):
        np.multiply(column, row, out=prod)
        out += prod


def gemm_nn(M, N, K, alpha, A, lda, B, ldb, C, ldc):
    """C[i,j] += alpha * A[i,k] * B[k,j], accumulated over k in order.

    Flat row-major fp32 buffers with explicit leading dimensions; C is
    updated in place and returned. Step k updates all of C at once and no
    two steps are fused, so each element still gets one fp32 rounding per
    multiply and per add, in increasing k.
    """
    a = _as_f32("A", A)
    b = _as_f32("B", B)
    c = _as_f32("C", C, inout=True)
    _check_extent("A", a.size, M, lda, K)
    _check_extent("B", b.size, K, ldb, N)
    _check_extent("C", c.size, M, ldc, N)
    scaled = np.float32(alpha) * _rows(a, M, K, lda)
    _accumulate(M, N, K, scaled.T[:, :, None], b, ldb, c, ldc)
    return C


def gemm_nn_centroids(M, N, K, alpha, centroids, indexes, lda, B, ldb, C, ldc):
    """gemm_nn with A[i,k] looked up as centroids[indexes[i*lda + k]].

    Column k of A is gathered from the table only when step k needs it.
    """
    table = _as_f32("centroids", centroids)
    idx = np.asarray(indexes).reshape(-1)
    b = _as_f32("B", B)
    c = _as_f32("C", C, inout=True)
    _check_extent("indexes", idx.size, M, lda, K)
    _check_extent("B", b.size, K, ldb, N)
    _check_extent("C", c.size, M, ldc, N)
    if idx.size and (int(idx.min()) < 0 or int(idx.max()) >= table.size):
        raise ValueError(
            f"index out of range for {table.size}-entry centroid table"
        )
    # alpha * table[i] is the same fp32 product whichever weight uses it
    scaled = np.float32(alpha) * table
    idx2d = _rows(idx, M, K, lda)
    columns = (scaled[idx2d[:, k, None]] for k in range(K))
    _accumulate(M, N, K, columns, b, ldb, c, ldc)
    return C


def _packed_columns(scaled, packed, M, K, lda, base):
    """Yield scaled[A_index[:, k, None]] for k = 0 .. K-1, decoding only
    column k's M indexes at step k.

    Index j sits in word j // per_word at bit (j % per_word) * bits, so
    column k + per_word reads the words one past column k's, at the same
    bits: the word and shift of the first per_word columns serve them all.
    """
    per_word = 32 // packed.bits
    mask = np.uint32((1 << packed.bits) - 1)
    starts = base + np.arange(M, dtype=np.int64)[:, None] * lda
    first = starts + np.arange(min(per_word, K))[:, None, None]
    word, lane = np.divmod(first, per_word)
    shift = (lane * packed.bits).astype(np.uint32)
    for k in range(K):
        q, r = divmod(k, per_word)
        index = (packed.words[word[r] + q] >> shift[r]) & mask
        try:
            column = scaled[index]
        except IndexError:
            raise ValueError(
                f"index {int(index.max())} out of range for {scaled.size}-entry table"
            ) from None
        yield column


def gemm_nn_packed(M, N, K, alpha, centroids, packed, lda, B, ldb, C, ldc, base=0):
    """gemm_nn_centroids with indexes decoded from packed words on the fly.

    base offsets into the packed stream, so one global stream can serve many
    layers. Step k decodes only column k's indexes, so the stream is never
    materialized.
    """
    table = _as_f32("centroids", centroids)
    b = _as_f32("B", B)
    c = _as_f32("C", C, inout=True)
    _check_extent("B", b.size, K, ldb, N)
    _check_extent("C", c.size, M, ldc, N)
    if base < 0 or (M and base + (M - 1) * lda + K > packed.count):
        raise ValueError("packed stream too short for requested extent")
    scaled = np.float32(alpha) * table
    columns = _packed_columns(scaled, packed, M, K, lda, base)
    _accumulate(M, N, K, columns, b, ldb, c, ldc)
    return C


def im2col(x: np.ndarray, kernel: int, stride: int, pad: int) -> np.ndarray:
    """Unfold a CHW fp32 tensor into a (c*k*k, out_h*out_w) matrix.

    Row (c*kernel + kr)*kernel + kc holds the input values that kernel cell
    (kr, kc) of channel c sees at each output position.
    """
    if x.ndim != 3:
        raise ValueError(f"expected CHW input, got shape {x.shape}")
    c, h, w = x.shape
    out_h = (h - kernel + 2 * pad) // stride + 1
    out_w = (w - kernel + 2 * pad) // stride + 1
    if out_h < 1 or out_w < 1:
        raise ValueError("kernel does not fit the padded input")
    padded = np.zeros((c, h + 2 * pad, w + 2 * pad), dtype=np.float32)
    padded[:, pad : pad + h, pad : pad + w] = x
    # windows[ch, kr, kc] is the (out_h, out_w) grid that kernel cell (kr, kc)
    # sees; out_h and out_w keep it inside padded. The reshape is the one copy.
    sc, sh, sw = padded.strides
    windows = np.lib.stride_tricks.as_strided(
        padded,
        shape=(c, kernel, kernel, out_h, out_w),
        strides=(sc, sh, sw, sh * stride, sw * stride),
    )
    return windows.reshape(c * kernel * kernel, out_h * out_w)


def leaky(x: np.ndarray) -> np.ndarray:
    """Darknet leaky activation: x if x > 0 else 0.1*x."""
    return np.where(x > 0, x, LEAKY_SLOPE * x)


def _conv_common(layer: LayerSpec, x: np.ndarray):
    if layer.kind != CONVOLUTIONAL:
        raise ValueError(f"conv forward called on {layer.kind} layer")
    if layer.in_shape is None or layer.out_shape is None:
        raise ValueError("layer shapes not inferred")
    expected = (layer.in_shape.c, layer.in_shape.h, layer.in_shape.w)
    if x.shape != expected:
        raise ValueError(f"input shape {x.shape} does not match layer {expected}")
    spec = layer.conv
    cols = im2col(x, spec.kernel, spec.stride, spec.pad)
    m = spec.filters
    kdim = layer.in_shape.c * spec.kernel * spec.kernel
    n = layer.out_shape.h * layer.out_shape.w
    out = np.zeros(m * n, dtype=np.float32)
    return spec, cols, m, kdim, n, out


def _finish_conv(layer: LayerSpec, out_flat, biases):
    spec = layer.conv
    out = out_flat.reshape(spec.filters, layer.out_shape.h, layer.out_shape.w)
    out += biases.reshape(-1, 1, 1)
    if spec.activation == "leaky":
        out = leaky(out)
    return out


def conv_forward(layer: LayerSpec, x: np.ndarray, params: ConvParams) -> np.ndarray:
    """One convolution layer: im2col, gemm, bias, activation."""
    if params.batch_normalized:
        raise ValueError("fold batch norm into the weights before inference")
    spec, cols, m, kdim, n, out = _conv_common(layer, x)
    if params.kernel.size != m * kdim:
        raise ValueError(
            f"kernel holds {params.kernel.size} weights, layer needs {m * kdim}"
        )
    gemm_nn(m, n, kdim, 1.0, params.kernel, kdim, cols.reshape(-1), n, out, n)
    return _finish_conv(layer, out, params.biases)


def conv_forward_clustered(
    layer: LayerSpec,
    x: np.ndarray,
    biases: np.ndarray,
    centroids: np.ndarray,
    packed,
    base: int = 0,
    on_the_fly: bool = False,
    indexes: np.ndarray | None = None,
) -> np.ndarray:
    """Convolution with codebook-indirected weights.

    packed is a PackedIndices stream; base selects this layer's span within
    it. With on_the_fly the indexes are decoded inside the GEMM loop,
    otherwise they are unpacked up front. Both paths produce bitwise
    identical results. indexes, when given, is unpack_indices(packed)
    already computed by the caller, so that a stream shared by many layers
    is decoded once rather than once per layer.
    """
    spec, cols, m, kdim, n, out = _conv_common(layer, x)
    if base + m * kdim > packed.count:
        raise ValueError(
            f"index stream ends at {packed.count}, layer needs {base + m * kdim}"
        )
    if on_the_fly:
        gemm_nn_packed(
            m, n, kdim, 1.0, centroids, packed, kdim, cols.reshape(-1), n, out, n,
            base=base,
        )
    else:
        if indexes is None:
            indexes = unpack_indices(packed)
        idx = indexes[base : base + m * kdim]
        gemm_nn_centroids(
            m, n, kdim, 1.0, centroids, idx, kdim, cols.reshape(-1), n, out, n
        )
    return _finish_conv(layer, out, biases)


def _clustered_lookup(
    net: NetworkDef, weights: DarknetWeights, model: ClusteredModel, decode: bool
):
    """Map conv layer index -> (centroids, packed, base, indexes) for either
    scope.

    With decode, indexes is each table's whole decoded stream, unpacked once
    and shared by every layer the table serves; otherwise it is None.
    """
    lookup = {}
    if model.scope == SCOPE_ALL_LAYERS:
        entry = model.entries[0]
        if entry.packed.count != sum(c.n_weights for c in weights.convs):
            raise ValueError(
                "global index stream length does not cover the model's weights"
            )
        indexes = unpack_indices(entry.packed) if decode else None
        base = 0
        for conv in weights.convs:
            lookup[conv.layer_index] = (
                entry.table.centroids, entry.packed, base, indexes
            )
            base += conv.n_weights
    else:
        by_layer = {e.layer_id: e for e in model.entries}
        for conv in weights.convs:
            entry = by_layer.get(conv.layer_index)
            if entry is None:
                raise ValueError(f"no codebook table for conv layer {conv.layer_index}")
            if entry.packed.count != conv.n_weights:
                raise ValueError(
                    f"layer {conv.layer_index}: table covers {entry.packed.count} "
                    f"weights, layer holds {conv.n_weights}"
                )
            indexes = unpack_indices(entry.packed) if decode else None
            lookup[conv.layer_index] = (entry.table.centroids, entry.packed, 0, indexes)
    return lookup


def run_network(
    net: NetworkDef,
    weights: DarknetWeights,
    x: np.ndarray,
    clustered: ClusteredModel | None = None,
    on_the_fly: bool = False,
) -> list[np.ndarray]:
    """Execute a toy network, returning every layer's output tensor.

    Convolutions use plain weights, or codebook indirection when a clustered
    model is given. Yolo layers pass their input through unchanged; decoding
    beyond raw activations is out of scope here.
    """
    if any(layer.in_shape is None for layer in net.layers):
        net = infer_shapes(net)
    x = np.asarray(x, dtype=np.float32)
    expected = (net.input.c, net.input.h, net.input.w)
    if x.shape != expected:
        raise ValueError(f"input shape {x.shape} does not match network {expected}")
    lookup = None
    if clustered:
        lookup = _clustered_lookup(net, weights, clustered, decode=not on_the_fly)
    outputs: list[np.ndarray] = []
    for index, layer in enumerate(net.layers):
        current = outputs[index - 1] if index else x
        if layer.kind == CONVOLUTIONAL:
            params = weights.conv_for_layer(index)
            if params.batch_normalized:
                raise ValueError(
                    f"layer {index} still carries batch-norm statistics; fold first"
                )
            if lookup is None:
                out = conv_forward(layer, current, params)
            else:
                centroids, packed, base, indexes = lookup[index]
                out = conv_forward_clustered(
                    layer, current, params.biases, centroids, packed,
                    base=base, on_the_fly=on_the_fly, indexes=indexes,
                )
        elif layer.kind == SHORTCUT:
            out = current + outputs[layer.from_index]
        elif layer.kind == ROUTE:
            out = np.concatenate([outputs[s] for s in layer.sources], axis=0)
        elif layer.kind == UPSAMPLE:
            out = np.repeat(np.repeat(current, layer.factor, axis=1), layer.factor, axis=2)
        elif layer.kind == YOLO:
            out = current
        else:
            raise ValueError(f"cannot execute layer kind {layer.kind!r}")
        shape = layer.out_shape
        if out.shape != (shape.c, shape.h, shape.w):
            raise RuntimeError(
                f"layer {index} produced {out.shape}, inference said "
                f"{(shape.c, shape.h, shape.w)}"
            )
        outputs.append(out)
    return outputs

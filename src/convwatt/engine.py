"""Reference inference engine for verifying clustered execution.

The point is reproducible arithmetic. All three GEMM variants share one
core, _accumulate, that keeps the output-stationary order: every output
element starts from C and adds its products A[i,k] * B[k,j] one at a time,
in increasing k. Products and sums are separate fp32 operations, never
fused or reassociated, so each element gets the same rounding sequence as a
scalar (i, k, j) loop. That makes "bitwise equal" a meaningful, testable
contract between plain weights, dequantized weights, and on-the-fly
codebook indirection.

Only the bookkeeping is vectorized. Steps with many outputs go over tiles
of C's rows, each small enough to stay in cache, and update a tile once per
k. Steps with few outputs sum a chunk of k at a time with one np.add.reduce
over an axis that is never the innermost one, which numpy adds slice by
slice in index order (_accumulate says why that is exact). Where C's rows
are short, both build their products in place, by copying A and
multiplying by B, which numpy runs faster than a broadcast multiply.

The GEMMs take an (M, K) A or index matrix, a (K, N) B and an (M, N) C
that is updated in place. Any of them may be a view whose rows lie apart,
such as one band's view of a convolution's output. B may also have more
leading axes that multiply to K, as a convolution's unfold read in place
has: its rows, in C order, are B's K rows.

Memory is bounded by the live set, not by the depth of the network.
run_network yields one layer's output at a time and forgets each output
after its last reader (the next layer, a route or a shortcut). A
convolution runs its GEMM on bands of whole output rows, once per band on
that band's columns of the output. A stride-1 conv whose GEMM step is wide
reads each band's unfold from the padded input in place, as a strided view
(implicit GEMM, as in Chetlur et al., arXiv 1410.0759): its output rows are
as wide as the padded input's, and the extra "wrap" columns at the end of
each row, whose products mix two input rows, are dropped before bias and
activation. Other convs copy each band through im2col, at most _BAND fp32
elements, except a 1x1/s1/p0 conv, whose one band is a view of its input.
Each output column's k-ordered sum depends on no other column, so neither
banding nor the wrap columns change an output bit. A clustered convolution
decodes only its own span of the packed index stream, while it runs: in
one piece before its first band, or a block at a time inside the GEMM;
cluster.dequantize decodes the same span for the dequantized pass.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from functools import partial

import numpy as np

from .cluster import ClusteredModel, ConvParams, DarknetWeights, unpack_indices
from .netdef import CONVOLUTIONAL, ROUTE, SHORTCUT, UPSAMPLE, YOLO, LayerSpec, NetworkDef

LEAKY_SLOPE = np.float32(0.1)


def _fp32(name: str, arr, shape: tuple[int, ...]):
    """Raise TypeError unless arr is an fp32 array, ValueError unless it has
    the given shape."""
    dtype = getattr(arr, "dtype", None)
    if dtype != np.float32:
        raise TypeError(f"{name} must be float32, got {dtype}")
    _shaped(name, arr, shape)


def _table(centroids):
    """Raise as _fp32 does unless centroids is a 1-D fp32 table."""
    _fp32("centroids", centroids, np.shape(centroids))
    if centroids.ndim != 1:
        raise ValueError(f"centroids must be a 1-D table, got shape {centroids.shape}")


def _shaped(name: str, arr, shape: tuple[int, ...]):
    if arr.shape != shape:
        raise ValueError(f"{name} has shape {arr.shape}, (M, N, K) ask for {shape}")


# Steps with fewer outputs (M*N) than this are summed a chunk at a time in
# one numpy reduction; wider steps pay little for one update per k.
_NARROW = 16384
# fp32 elements in the narrow path's scratch buffer (1 MB); the wide path's
# row tile and its products take half of it each
_SCRATCH = 1 << 18
# columns of A the wide path asks a variant for at once
_BLOCK = 64
# numpy's buffer, in elements. A broadcast multiply goes through it unless
# the output's rows hold more than a third of it (the wide path's 2-D
# products) or half of it (the narrow path's 3-D ones), and then takes
# several times as long per element; _multiply builds such products in place.
_BUFFER = np.getbufsize()
# fp32 elements in one band of a convolution's im2col matrix (4 MB), for the
# convs that copy their unfold (narrow steps and stride 2); a band is at
# least one output row. An unfold read in place costs no memory, and its
# bands are sized by _SCRATCH instead.
_BAND = 1 << 20


def _multiply(a, b, out):
    """out = a * b, a broadcast along out's last axis and b along its first.

    Rows too short to leave numpy's buffer (see _BUFFER) copy a into out and
    multiply by b in place. An IEEE multiply is commutative, so the products
    have the same bits either way.
    """
    if out.shape[-1] > _BUFFER // (3 if out.ndim == 2 else 2):
        np.multiply(a, b, out=out)
    else:
        np.copyto(out, a)
        out *= b


def _accumulate(M, N, K, block, b, c):
    """The GEMM core: c += A[:, k, None] * b[k] for k in order.

    b is a (K, N) and c an (M, N) fp32 array, c updated in place; either may
    be a view whose rows lie apart, and b may instead have leading axes that
    multiply to K, whose C-order rows are its K rows (an unfold read in
    place, _unfold). block(k0, k1) returns A[:, k0:k1] as an
    (M, k1 - k0) fp32 array; the variants differ only in how they produce
    it, and each reads every element of A once per call, when it is asked
    for. Every product is rounded to fp32 on its own, and each C element adds
    its products one at a time in increasing k, so it sees the same sequence
    of fp32 roundings as a scalar (i, k, j) loop.

    Wide steps (M*N >= _NARROW) go a tile of C's rows at a time, each tile
    about _SCRATCH // 2 elements (512 KB), so that it stays in cache across
    all of k. A tile multiplies and adds in place, one k at a time, taking
    its rows of A from block in _BLOCK columns; A is read once per tile,
    and b's rows are 1-D views, whatever b's shape.
    When c's rows lie apart (as for a band's view of a convolution's output)
    each tile adds into a contiguous copy that is written back after its
    last k: numpy adds a strided 2-D view row by row, which is slower.

    Narrow steps take b as one (K, N) array, a copy if b is an unfold read
    in place, and go a chunk of w columns at a time, w as large as _SCRATCH
    allows: the chunk's products fill slots 1..w of an (M, w + 1, N')
    buffer, slot 0 holds C, and one np.add.reduce over axis 1 writes the
    sums back. The exactness rests on how numpy reduces an axis that is not
    the innermost one: it adds whole slices in index order, element by
    element, so C[i, j] becomes ((C[i, j] + p0) + p1) + ... as in the loop.
    An innermost reduced axis is summed pairwise instead, which rounds
    differently, so N' = max(N, 2) keeps a zero column after the reduced
    axis even when N = 1. The reduction starts from -0.0, which adding
    leaves every value unchanged; numpy's default start, +0.0, would turn a
    -0.0 in C into +0.0.

    Both paths build their products with _multiply: in place when C's rows
    are short, which numpy runs faster than the broadcast multiply.
    """
    dtype = getattr(b, "dtype", None)
    if dtype != np.float32:
        raise TypeError(f"B must be float32, got {dtype}")
    if b.ndim < 2 or b.shape[-1] != N or math.prod(b.shape[:-1]) != K:
        raise ValueError(
            f"B has shape {b.shape}, (M, N, K) ask for {(K, N)} or leading axes "
            f"that multiply to {K}"
        )
    _fp32("C", c, (M, N))
    if not (M and N and K):
        return
    if M * N >= _NARROW:
        b_rows = [b[i] for i in np.ndindex(b.shape[:-1])]
        rows = max(1, _SCRATCH // (2 * N))
        prod = np.empty((min(rows, M), N), dtype=np.float32)
        for i0 in range(0, M, rows):
            part = c[i0 : i0 + rows]
            tile = np.ascontiguousarray(part)
            p = prod[: len(tile)]
            for k0 in range(0, K, _BLOCK):
                k1 = min(k0 + _BLOCK, K)
                columns = block(k0, k1)[i0 : i0 + rows].T[:, :, None]
                for column, row in zip(columns, b_rows[k0:k1]):
                    _multiply(column, row, p)
                    tile += p
            if tile is not part:
                part[...] = tile
        return
    b = b.reshape(K, N)  # a copy, if b is an unfold read in place
    padded = max(N, 2)
    width = max(1, min(K, _SCRATCH // (M * padded) - 1))
    shape = (M, width + 1, padded)
    if padded == N:
        steps, total = np.empty(shape, dtype=np.float32), c
    else:  # the padding column is never written and must read zero
        steps = np.zeros(shape, dtype=np.float32)
        total = np.empty((M, padded), dtype=np.float32)
    for k0 in range(0, K, width):
        k1 = min(k0 + width, K)
        chunk = steps[:, : k1 - k0 + 1]
        chunk[:, 0, :N] = c
        _multiply(block(k0, k1)[:, :, None], b[k0:k1], chunk[:, 1:, :N])
        np.add.reduce(chunk, axis=1, out=total, initial=-0.0)
        if total is not c:
            c[...] = total[:, :N]


def gemm_nn(M, N, K, A, B, C):
    """C[i,j] += A[i,k] * B[k,j], accumulated over k in order.

    A is an (M, K), B a (K, N) and C an (M, N) fp32 array; any of them may
    be a view whose rows lie apart, and B may have more leading axes that
    multiply to K (_accumulate). A B that is not fp32 raises TypeError, and
    a shape that disagrees with M, N and K ValueError. C is updated in
    place and returned. Each
    element gets one fp32 rounding per multiply and per add, in increasing
    k, as in a scalar loop; _accumulate says how whole chunks of k are summed
    at once without changing that.
    """
    _fp32("A", A, (M, K))
    _accumulate(M, N, K, lambda k0, k1: A[:, k0:k1], B, C)
    return C


def gemm_nn_centroids(M, N, K, centroids, indexes, B, C):
    """gemm_nn with A[i,k] looked up as centroids[indexes[i, k]].

    indexes is an (M, K) integer array; any other dtype raises TypeError.
    A's columns are gathered from the table one block at a time, when the
    core asks for them. An index past the table's end is caught by that
    gather, so C may be partly updated when the ValueError is raised.
    """
    _table(centroids)
    idx = np.asarray(indexes)
    if idx.dtype.kind not in "iu":
        raise TypeError(f"indexes must be integers, got {idx.dtype}")
    _shaped("indexes", idx, (M, K))
    # numpy would wrap a negative index; unsigned ones, as unpack_indices
    # returns, cannot be negative and need no scan
    if idx.dtype.kind != "u" and idx.size and int(idx.min()) < 0:
        raise ValueError(
            f"index {int(idx.min())} out of range for {centroids.size}-entry table"
        )
    _accumulate(M, N, K, lambda k0, k1: _gather(centroids, idx[:, k0:k1]), B, C)
    return C


def _gather(table: np.ndarray, index: np.ndarray) -> np.ndarray:
    """table[index], raising ValueError for an index past the table's end."""
    try:
        return table[index]
    except IndexError:
        raise ValueError(
            f"index {int(index.max())} out of range for {table.size}-entry table"
        ) from None


def gemm_nn_packed(M, N, K, centroids, packed, B, C, base=0):
    """gemm_nn_centroids with indexes decoded from packed words on the fly.

    Row i of the index matrix starts at index base + i*K of the packed
    stream, so one global stream can serve many layers. Each block of
    columns decodes only its own M x (k1 - k0) indexes (PackedIndices.take),
    so the stream is never materialized.
    """
    _table(centroids)
    if base < 0 or (M and base + M * K > packed.count):
        raise ValueError("packed stream too short for requested extent")
    starts = base + np.arange(M, dtype=np.int64)[:, None] * K

    def block(k0, k1):
        return _gather(centroids, packed.take(starts + np.arange(k0, k1)))

    _accumulate(M, N, K, block, B, C)
    return C


def _padded(x: np.ndarray, pad: int) -> np.ndarray:
    """x as a C-contiguous fp32 array with pad zeros around each channel; x
    itself if it is one already and pad is 0."""
    if not pad:
        return np.ascontiguousarray(x, dtype=np.float32)
    c, h, w = x.shape
    out = np.zeros((c, h + 2 * pad, w + 2 * pad), dtype=np.float32)
    out[:, pad : pad + h, pad : pad + w] = x
    return out


def _unfold(src: np.ndarray, r0: int, r1: int, kernel: int, out_w: int) -> np.ndarray:
    """Output rows r0..r1-1 of a stride-1 conv's unfold, read from src in
    place: a read-only (c, kernel, kernel, n) view of the padded, contiguous
    src, n = (r1 - r0 - 1) * W' + out_w for src's width W'.

    Row (ch, kr, kc) starts at src[ch, r0 + kr, kc] and runs on through the
    channel's flattened rows, so column (r - r0) * W' + j holds what kernel
    cell (kr, kc) sees at output (r, j) for j < out_w. The other W' - out_w
    columns of each output row wrap into the next input row; the output
    columns they feed are dropped. The last element read is the channel's
    last, src[ch, r1 - 1 + kernel - 1, W' - 1], as r1 <= out_h.
    """
    c, _, width = src.shape
    sc, sh, sw = src.strides
    return np.lib.stride_tricks.as_strided(
        src[:, r0],
        shape=(c, kernel, kernel, (r1 - r0 - 1) * width + out_w),
        strides=(sc, sh, sw, sw),
        writeable=False,
    )


def im2col(x: np.ndarray, kernel: int, stride: int) -> np.ndarray:
    """Unfold a CHW tensor, padded already, into a (c*k*k, out_h*out_w) fp32
    matrix.

    Row (c*kernel + kr)*kernel + kc holds the input values that kernel cell
    (kr, kc) of channel c sees at each output position. For a 1x1 kernel at
    stride 1 that is x itself, so a float32 x comes back as a view that
    shares its memory.
    """
    if x.ndim != 3:
        raise ValueError(f"expected CHW input, got shape {x.shape}")
    c, h, w = x.shape
    out_h = (h - kernel) // stride + 1
    out_w = (w - kernel) // stride + 1
    if out_h < 1 or out_w < 1:
        raise ValueError("kernel does not fit the input")
    src = np.asarray(x, dtype=np.float32)
    if kernel == 1 and stride == 1:
        # every row is one channel as it is: a view of x, no copy
        return src.reshape(c, h * w)
    # windows[ch, kr, kc] is the (out_h, out_w) grid that kernel cell (kr, kc)
    # sees; out_h and out_w keep it inside src. The reshape is the one copy.
    sc, sh, sw = src.strides
    windows = np.lib.stride_tricks.as_strided(
        src,
        shape=(c, kernel, kernel, out_h, out_w),
        strides=(sc, sh, sw, sh * stride, sw * stride),
    )
    return windows.reshape(c * kernel * kernel, out_h * out_w)


def leaky(x: np.ndarray) -> np.ndarray:
    """Darknet leaky activation in place: x if x > 0 else 0.1*x. Returns x.

    As 0 < 0.1 < 1, the larger of x and 0.1*x is x for x > 0 and 0.1*x
    otherwise, bit for bit: zeros keep their sign and a NaN stays NaN.
    """
    return np.maximum(x, LEAKY_SLOPE * x, out=x)


def _convolve(layer: LayerSpec, x: np.ndarray, biases, gemm) -> np.ndarray:
    """Unfold x in bands of whole output rows and convolve band by band.

    gemm(b, c) runs the variant's GEMM on one band: b is the band's unfold,
    K rows of n columns, and c the band's (filters, n) view of the output
    buffer, whose rows lie apart. The input is padded once for all bands.

    A stride-1 conv whose GEMM step is wide (filters * n >= _NARROW, the
    rule _accumulate uses) reads its unfold in place (_unfold): the output
    buffer's rows are as wide as the padded input's, W', and each band holds
    up to _SCRATCH // 2 columns, or one output row if that is more. The
    W' - out_w wrap columns of each output row are dropped before bias and
    activation; being columns of their own, they change no other column's
    sum. Other convs go through im2col, in bands of at most _BAND fp32
    elements or one output row, except a 1x1/s1/p0 conv: one band, a view
    of x. Narrow steps keep im2col because on a 10x10 or 20x20 map their
    wrap columns cost more than the copy saves.
    """
    spec, shape = layer.conv, layer.out_shape
    kernel, stride, pad = spec.kernel, spec.stride, spec.pad
    filters, h, w = spec.filters, shape.h, shape.w
    src = _padded(x, pad)
    width = src.shape[2]
    rows = max(1, _SCRATCH // (2 * width))
    in_place = (
        stride == 1
        and (kernel, pad) != (1, 0)
        and filters * ((min(rows, h) - 1) * width + w) >= _NARROW
    )
    if not in_place:
        width = w
        pointwise = (kernel, stride, pad) == (1, 1, 0)
        rows = h if pointwise else max(1, _BAND // (layer.kernel_shape[1] * w))
    out = np.zeros((filters, h * width), dtype=np.float32)
    for r0 in range(0, h, rows):
        r1 = min(r0 + rows, h)
        if in_place:
            band = _unfold(src, r0, r1, kernel, w)
        else:
            band = im2col(src[:, r0 * stride : (r1 - 1) * stride + kernel], kernel, stride)
        start = r0 * width
        gemm(band, out[:, start : start + band.shape[-1]])
        del band  # freed before the next band is unfolded
    bias = biases.reshape(-1, 1, 1)
    if width == w:
        out = out.reshape(filters, h, w)
        out += bias
    else:
        # each filter's rows, without their wrap columns, move to the front
        # of the buffer: a filter's new place ends before the next one's old
        # place, and numpy computes a ufunc whose output overlaps its input
        # as if from a copy of that input
        wide = out.reshape(filters, h, width)
        out = out.reshape(-1)[: filters * h * w].reshape(filters, h, w)
        for f in range(filters):
            np.add(wide[f, :, :w], bias[f], out=out[f])
    if spec.activation == "leaky":
        leaky(out)
    return out


def conv_forward(layer: LayerSpec, x: np.ndarray, params: ConvParams) -> np.ndarray:
    """One convolution layer: unfold by bands, gemm, bias, activation.

    x must have layer.in_shape, and params hold batch-norm-free weights of
    layer.kernel_shape with one bias per filter, as run_network checks.
    """
    m, kdim = layer.kernel_shape
    kernel = params.kernel.reshape(m, kdim)

    def gemm(b, c):
        gemm_nn(m, b.shape[-1], kdim, kernel, b, c)

    return _convolve(layer, x, params.biases, gemm)


def conv_forward_clustered(
    layer: LayerSpec,
    x: np.ndarray,
    biases: np.ndarray,
    centroids: np.ndarray,
    packed,
    base: int = 0,
    on_the_fly: bool = False,
) -> np.ndarray:
    """Convolution with codebook-indirected weights.

    packed is a PackedIndices stream; base selects this layer's span within
    it, and only that span is decoded. With on_the_fly the indexes are
    decoded inside the GEMM loop, a block of columns at a time; otherwise
    the span is unpacked before the first band and dropped when the layer
    is done. Both paths produce bitwise identical results. A span that runs
    past the stream's end raises ValueError from its decode.
    """
    m, kdim = layer.kernel_shape
    if on_the_fly:

        def gemm(b, c):
            gemm_nn_packed(m, b.shape[-1], kdim, centroids, packed, b, c, base=base)

    else:
        idx = unpack_indices(packed, base, m * kdim).reshape(m, kdim)

        def gemm(b, c):
            gemm_nn_centroids(m, b.shape[-1], kdim, centroids, idx, b, c)

    return _convolve(layer, x, biases, gemm)


def _runner(layer: LayerSpec, conv: ConvParams, span, on_the_fly: bool):
    """Layer's conv as a function of its input, once conv is known to fit it:
    batch norm folded, a kernel of layer.kernel_shape and one bias per
    filter. span is the conv's (centroids, packed, base) in a clustered pass,
    None in a plain one."""
    where, (filters, kdim) = f"layer {layer.index}", layer.kernel_shape
    if conv.batch_normalized:
        raise ValueError(f"{where} still carries batch-norm statistics; fold first")
    if conv.kernel.size != filters * kdim:
        raise ValueError(
            f"{where}: kernel holds {conv.kernel.size} weights, "
            f"its {filters}x{kdim} shape needs {filters * kdim}"
        )
    if conv.biases.size != filters:
        raise ValueError(f"{where}: {conv.biases.size} biases for {filters} filters")
    if span is None:
        return partial(conv_forward, layer, params=conv)
    centroids, packed, base = span
    return partial(
        conv_forward_clustered, layer, biases=conv.biases, centroids=centroids,
        packed=packed, base=base, on_the_fly=on_the_fly,
    )


def run_network(
    net: NetworkDef,
    weights: DarknetWeights,
    x: np.ndarray,
    clustered: ClusteredModel | None = None,
    on_the_fly: bool = False,
) -> Iterator[np.ndarray]:
    """Execute a toy network; return an iterator over each layer's output.

    net is a network as parse_config returns it, with its shapes. Every
    check is made here, once, so errors surface at the call, before any
    layer runs: the input's shape, that weights holds parameters for
    exactly the network's conv layers, the clustered model's spans
    (ClusteredModel.spans), and each conv's weights against its layer.
    Each conv is resolved into one runner: conv_forward over its weights,
    or conv_forward_clustered over its (centroids, packed, base) span.

    The layers run as the iterator is advanced. It keeps only the live set:
    an output is dropped after its last reader, the next layer or a route or
    shortcut that names it. list(run_network(...)) holds every output.
    Convolutions unfold their input in bands (see _convolve), and a
    clustered conv decodes its own span of indexes when it runs, with
    on_the_fly inside its GEMM. Yolo layers pass their input through
    unchanged; decoding beyond raw activations is out of scope here.
    """
    x = np.asarray(x, dtype=np.float32)
    expected = (net.input.c, net.input.h, net.input.w)
    if x.shape != expected:
        raise ValueError(f"input shape {x.shape} does not match network {expected}")
    held = {conv.layer_index for conv in weights.convs}
    convs = {layer.index for layer in net.layers if layer.kind == CONVOLUTIONAL}
    if held != convs:
        raise ValueError(
            f"weights do not match the network's convs: missing layers "
            f"{sorted(convs - held)}, extra layers {sorted(held - convs)}"
        )
    spans = {}
    if clustered is not None:
        spans = {
            conv.layer_index: (entry.table.centroids, entry.packed, base)
            for entry, layers in clustered.spans(weights)
            for conv, base in layers
        }
    runners = {
        layer.index: _runner(
            layer, weights.conv_for_layer(layer.index), spans.get(layer.index), on_the_fly
        )
        for layer in net.layers
        if layer.kind == CONVOLUTIONAL
    }
    return _layer_outputs(net, x, runners)


def _layer_outputs(net, x, runners) -> Iterator[np.ndarray]:
    """Run net's layers on x, each conv through its runner in runners."""
    # each map's last reader: a later layer overwrites an earlier one's entry
    last_reader = {source: layer.index for layer in net.layers for source in layer.sources}
    live = {-1: x}  # outputs that a later layer still reads
    del x  # the input goes when its last reader is done with it
    for layer in net.layers:
        index = layer.index
        inputs = [live[source] for source in layer.sources]
        if layer.kind == CONVOLUTIONAL:
            out = runners[index](inputs[0])
        elif layer.kind == SHORTCUT:
            out = inputs[0] + inputs[1]
        elif layer.kind == ROUTE:
            out = np.concatenate(inputs, axis=0)
        elif layer.kind == UPSAMPLE:
            factor = layer.factor
            out = np.repeat(np.repeat(inputs[0], factor, axis=1), factor, axis=2)
        elif layer.kind == YOLO:
            out = inputs[0]
        else:
            raise ValueError(f"cannot execute layer kind {layer.kind!r}")
        del inputs  # a map read for the last time goes before the yield
        shape = layer.out_shape
        if out.shape != (shape.c, shape.h, shape.w):
            raise RuntimeError(
                f"layer {index} produced {out.shape}, inference said "
                f"{(shape.c, shape.h, shape.w)}"
            )
        for source in layer.sources:
            if last_reader[source] == index:
                live.pop(source, None)
        if index in last_reader:
            live[index] = out
        yield out

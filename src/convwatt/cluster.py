"""Post-training weight clustering and the binary formats around it.

Convolution kernels are quantized with 1-D k-means into a small codebook of
fp32 centroids plus a stream of bit-packed indexes; biases and folded
batch-norm parameters are never clustered. Clustering runs either globally
over all conv kernels at once or separately per layer.

Also implements the Darknet ``.weights`` layout and the ``CWTS`` clustered
container (little-endian, CRC-protected).
"""

from __future__ import annotations

import math
import struct
import zlib
from dataclasses import dataclass, replace

import numpy as np

from .netdef import CONVOLUTIONAL, NetworkDef, infer_shapes

SCOPE_ALL_LAYERS = "all_layers"
SCOPE_PER_LAYER = "per_layer"
SCOPES = (SCOPE_ALL_LAYERS, SCOPE_PER_LAYER)

INIT_LINSPACE = "linspace"
INIT_KMEANS_PP = "kmeans_pp"
INITS = (INIT_LINSPACE, INIT_KMEANS_PP)

WORD_BITS = 32
GLOBAL_TABLE_ID = 0xFFFFFFFF

CWTS_MAGIC = b"CWTS"
CWTS_VERSION = 1
_SCOPE_CODES = {SCOPE_ALL_LAYERS: 0, SCOPE_PER_LAYER: 1}
_CODE_SCOPES = {code: scope for scope, code in _SCOPE_CODES.items()}


class WeightsFormatError(ValueError):
    """Malformed Darknet weights payload."""


class ClusterFormatError(ValueError):
    """Malformed CWTS clustered-model payload."""


@dataclass(frozen=True)
class ClusterConfig:
    """Clustering run parameters.

    bits sets the codebook size K = 2**bits. Widths 5..8 correspond to the
    hardware lookup tables the energy model prices; smaller widths are
    accepted for storage experiments. Convergence stops when no centroid
    moves more than tol, or after max_iters sweeps.
    """

    scope: str = SCOPE_ALL_LAYERS
    bits: int = 8
    max_iters: int = 300
    tol: float = 1e-6
    seed: int = 0
    init: str = INIT_LINSPACE

    def __post_init__(self):
        if self.scope not in SCOPES:
            raise ValueError(f"scope must be one of {SCOPES}, got {self.scope!r}")
        if not 1 <= self.bits <= 8:
            raise ValueError("bits must lie in 1..8")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.tol < 0:
            raise ValueError("tol must be >= 0")
        if self.init not in INITS:
            raise ValueError(f"init must be one of {INITS}, got {self.init!r}")

    @property
    def k(self) -> int:
        return 1 << self.bits


@dataclass(frozen=True, eq=False)
class CentroidTable:
    """Codebook of fp32 centroids, sorted ascending."""

    centroids: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.centroids, dtype=np.float32)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("centroids must be a non-empty 1-D array")
        if not np.all(np.isfinite(arr)):
            raise ValueError("centroids must be finite")
        object.__setattr__(self, "centroids", arr)

    @property
    def k(self) -> int:
        return int(self.centroids.size)

    def __eq__(self, other):
        if not isinstance(other, CentroidTable):
            return NotImplemented
        return np.array_equal(self.centroids, other.centroids)


@dataclass(frozen=True, eq=False)
class PackedIndices:
    """Bit-packed index stream; no index spans a 32-bit word boundary."""

    bits: int
    count: int
    words: np.ndarray

    def __post_init__(self):
        if not 1 <= self.bits <= WORD_BITS:
            raise ValueError("bits must lie in 1..32")
        if self.count < 0:
            raise ValueError("count must be >= 0")
        words = np.asarray(self.words, dtype=np.uint32)
        if words.ndim != 1:
            raise ValueError("words must be a 1-D array")
        per_word = WORD_BITS // self.bits
        expected = -(-self.count // per_word)
        if words.size != expected:
            raise ValueError(
                f"{self.count} indexes at {self.bits} bits need {expected} words, "
                f"got {words.size}"
            )
        used = per_word * self.bits
        if used < WORD_BITS and words.size and int(words.max()) >> used:
            raise ValueError("unused high bits of packed words must be zero")
        object.__setattr__(self, "words", words)

    def __eq__(self, other):
        if not isinstance(other, PackedIndices):
            return NotImplemented
        return (
            self.bits == other.bits
            and self.count == other.count
            and np.array_equal(self.words, other.words)
        )


@dataclass(frozen=True)
class ClusterEntry:
    """One codebook with its index stream; layer_id None means global."""

    layer_id: int | None
    table: CentroidTable
    packed: PackedIndices


@dataclass(frozen=True)
class ClusteredModel:
    """Clustered conv kernels: codebook tables plus packed index streams.

    Biases and folded batch-norm parameters stay with the original weights
    object; only kernel weights are clustered.
    """

    scope: str
    bits: int
    entries: tuple[ClusterEntry, ...]

    def __post_init__(self):
        if self.scope not in SCOPES:
            raise ValueError(f"scope must be one of {SCOPES}")
        if not 1 <= self.bits <= 8:
            raise ValueError("bits must lie in 1..8")
        if not self.entries:
            raise ValueError("model must hold at least one table")
        if self.scope == SCOPE_ALL_LAYERS:
            if len(self.entries) != 1 or self.entries[0].layer_id is not None:
                raise ValueError("all_layers scope stores exactly one global table")
        else:
            if any(entry.layer_id is None for entry in self.entries):
                raise ValueError("per_layer scope requires a layer id on every table")
        for entry in self.entries:
            if entry.packed.bits != self.bits:
                raise ValueError("index stream width disagrees with model bits")
            if entry.table.k > (1 << self.bits):
                raise ValueError("table larger than 2**bits")

    @property
    def total_count(self) -> int:
        return sum(entry.packed.count for entry in self.entries)


def pack_indices(indices, bits: int) -> PackedIndices:
    """Pack indexes little-endian within 32-bit words.

    Index j occupies bits [(j mod f)*bits, (j mod f)*bits + bits) of word
    j // f, where f = floor(32/bits). Indexes never span words; unused high
    bits stay zero.
    """
    if not 1 <= bits <= WORD_BITS:
        raise ValueError("bits must lie in 1..32")
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 1:
        raise ValueError("indices must be 1-D")
    if idx.size and (idx.min() < 0 or idx.max() >= (1 << bits)):
        raise ValueError(f"indexes must lie in 0..{(1 << bits) - 1}")
    per_word = WORD_BITS // bits
    n_words = -(-idx.size // per_word)
    padded = np.zeros(n_words * per_word, dtype=np.uint32)
    padded[: idx.size] = idx.astype(np.uint32)
    lanes = padded.reshape(n_words, per_word) if n_words else padded.reshape(0, per_word)
    shifts = (np.arange(per_word, dtype=np.uint32) * np.uint32(bits)).astype(np.uint32)
    words = np.bitwise_or.reduce(lanes << shifts, axis=1).astype(np.uint32)
    return PackedIndices(bits=bits, count=int(idx.size), words=words)


def unpack_indices(packed: PackedIndices) -> np.ndarray:
    """Inverse of pack_indices; returns uint32 indexes of length count."""
    per_word = WORD_BITS // packed.bits
    shifts = (np.arange(per_word, dtype=np.uint32) * np.uint32(packed.bits)).astype(
        np.uint32
    )
    mask = np.uint32((1 << packed.bits) - 1)
    lanes = (packed.words[:, None] >> shifts) & mask
    return lanes.reshape(-1)[: packed.count].astype(np.uint32)


def dequantize(table: CentroidTable, packed: PackedIndices) -> np.ndarray:
    """Reconstruct fp32 values: value j = centroids[index j]."""
    idx = unpack_indices(packed)
    if idx.size and int(idx.max()) >= table.k:
        raise ClusterFormatError(
            f"index {int(idx.max())} out of range for {table.k}-entry table"
        )
    return table.centroids[idx]


def quantization_sse(values, table: CentroidTable, assignments) -> float:
    """Sum of squared quantization residuals, accumulated in float64."""
    vals = np.asarray(values, dtype=np.float64)
    rec = table.centroids.astype(np.float64)[np.asarray(assignments)]
    d = vals - rec
    return float(np.dot(d, d))


def _init_centroids(values: np.ndarray, k: int, cfg: ClusterConfig) -> np.ndarray:
    if cfg.init == INIT_LINSPACE:
        return np.linspace(values.min(), values.max(), k)
    rng = np.random.default_rng(cfg.seed)
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


def _segment_bounds(sorted_values: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Boundaries of each centroid's contiguous segment in the sorted data.

    A value exactly on a midpoint between two centroids joins the lower one.
    """
    mids = (centroids[:-1] + centroids[1:]) / 2.0
    inner = np.searchsorted(sorted_values, mids, side="right")
    return np.concatenate(([0], inner, [sorted_values.size]))


def _segment_means(sorted_values: np.ndarray, bounds: np.ndarray) -> list[float | None]:
    means: list[float | None] = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        if hi > lo:
            # fsum keeps the mean exactly rounded, pinning results across
            # platforms regardless of summation order optimizations
            means.append(math.fsum(sorted_values[lo:hi]) / (hi - lo))
        else:
            means.append(None)
    return means


def kmeans_1d(values, k: int, cfg: ClusterConfig | None = None):
    """Lloyd's algorithm in one dimension.

    Returns (CentroidTable, assignments) with centroids sorted ascending and
    assignments indexing them in the original value order. When the data has
    no more than k distinct values the quantization is exact (SSE 0), with
    surplus table slots repeating the largest value.
    """
    cfg = cfg or ClusterConfig()
    vals = np.asarray(values, dtype=np.float64).reshape(-1)
    if vals.size == 0:
        raise ValueError("values must be non-empty")
    if not np.all(np.isfinite(vals)):
        raise ValueError("values must be finite")
    if k < 1:
        raise ValueError("k must be >= 1")

    order = np.argsort(vals, kind="stable")
    svals = vals[order]

    distinct = np.unique(svals)
    if distinct.size <= k:
        centroids = np.concatenate(
            (distinct, np.full(k - distinct.size, distinct[-1]))
        )
        assign_sorted = np.searchsorted(distinct, svals).astype(np.uint32)
    else:
        centroids = np.sort(_init_centroids(svals, k, cfg))
        prev_sse = math.inf
        for _ in range(cfg.max_iters):
            bounds = _segment_bounds(svals, centroids)
            means = _segment_means(svals, bounds)
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
            bounds = _segment_bounds(svals, centroids)
            assign_sorted = np.repeat(
                np.arange(k, dtype=np.uint32), np.diff(bounds).astype(np.int64)
            )
            d = svals - centroids[assign_sorted]
            sse = float(np.dot(d, d))
            if not reseeded and sse > prev_sse * (1.0 + 1e-9):
                raise RuntimeError("k-means SSE increased")
            prev_sse = sse
            if movement <= cfg.tol and not reseeded:
                break

    assignments = np.empty(vals.size, dtype=np.uint32)
    assignments[order] = assign_sorted
    return CentroidTable(centroids.astype(np.float32)), assignments


@dataclass(frozen=True, eq=False)
class ConvParams:
    """Parameters of one convolution layer as stored in a weights file."""

    layer_index: int
    biases: np.ndarray
    kernel: np.ndarray
    scales: np.ndarray | None = None
    rolling_mean: np.ndarray | None = None
    rolling_var: np.ndarray | None = None

    def __post_init__(self):
        for name in ("biases", "kernel", "scales", "rolling_mean", "rolling_var"):
            arr = getattr(self, name)
            if arr is not None:
                object.__setattr__(self, name, np.asarray(arr, dtype=np.float32))
        bn_fields = (self.scales, self.rolling_mean, self.rolling_var)
        if any(a is None for a in bn_fields) != all(a is None for a in bn_fields):
            raise ValueError("batch-norm arrays must be given together")

    @property
    def batch_normalized(self) -> bool:
        return self.scales is not None

    @property
    def n_weights(self) -> int:
        return int(self.kernel.size)

    def __eq__(self, other):
        if not isinstance(other, ConvParams):
            return NotImplemented

        def same(a, b):
            if a is None or b is None:
                return a is b
            return np.array_equal(a, b)

        return (
            self.layer_index == other.layer_index
            and same(self.biases, other.biases)
            and same(self.kernel, other.kernel)
            and same(self.scales, other.scales)
            and same(self.rolling_mean, other.rolling_mean)
            and same(self.rolling_var, other.rolling_var)
        )


@dataclass(frozen=True)
class DarknetWeights:
    """Contents of a Darknet .weights file: header plus per-conv parameters."""

    major: int
    minor: int
    revision: int
    seen: int
    convs: tuple[ConvParams, ...]

    def conv_for_layer(self, layer_index: int) -> ConvParams:
        for conv in self.convs:
            if conv.layer_index == layer_index:
                return conv
        raise KeyError(f"no conv parameters for layer {layer_index}")


def _ensure_shapes(net: NetworkDef) -> NetworkDef:
    if any(layer.in_shape is None for layer in net.layers):
        return infer_shapes(net)
    return net


class _Cursor:
    def __init__(self, data: bytes, error):
        self.data = data
        self.offset = 0
        self.error = error

    def take(self, n: int, what: str) -> bytes:
        if self.offset + n > len(self.data):
            raise self.error(
                f"truncated file: needed {n} bytes for {what} at offset {self.offset}, "
                f"{len(self.data) - self.offset} available"
            )
        chunk = self.data[self.offset : self.offset + n]
        self.offset += n
        return chunk

    def f32(self, count: int, what: str) -> np.ndarray:
        raw = self.take(4 * count, what)
        return np.frombuffer(raw, dtype="<f4").astype(np.float32)

    def u32(self, count: int, what: str) -> np.ndarray:
        raw = self.take(4 * count, what)
        return np.frombuffer(raw, dtype="<u4").copy()


def _seen_format(major: int, minor: int) -> str:
    """struct format of the seen counter: Darknet's load_weights reads 64
    bits when major*10 + minor >= 2 and both are below 1000, else 32."""
    if major * 10 + minor >= 2 and major < 1000 and minor < 1000:
        return "<Q"
    return "<I"


def read_darknet_weights(data: bytes, net: NetworkDef) -> DarknetWeights:
    """Parse a Darknet weights payload against a network definition.

    Layout: header of major/minor/revision (i32) and the seen counter, then
    for each conv layer in network order biases[f]; if batch-normalized also
    scales[f], rolling_mean[f], rolling_var[f]; then kernel[f*c*k*k]. All
    fields little-endian 32-bit except seen, which is 64-bit in headers of
    version 0.2 and later (see _seen_format).
    """
    net = _ensure_shapes(net)
    cur = _Cursor(data, WeightsFormatError)
    major, minor, revision = struct.unpack("<3i", cur.take(12, "header"))
    seen_format = _seen_format(major, minor)
    (seen,) = struct.unpack(
        seen_format, cur.take(struct.calcsize(seen_format), "seen counter")
    )
    convs = []
    for index, layer in enumerate(net.layers):
        if layer.kind != CONVOLUTIONAL:
            continue
        spec = layer.conv
        f = spec.filters
        where = f"layer {index} "
        biases = cur.f32(f, where + "biases")
        scales = mean = var = None
        if spec.batch_normalize:
            scales = cur.f32(f, where + "scales")
            mean = cur.f32(f, where + "rolling mean")
            var = cur.f32(f, where + "rolling variance")
        n = f * layer.in_shape.c * spec.kernel * spec.kernel
        kernel = cur.f32(n, where + "kernel")
        convs.append(
            ConvParams(
                layer_index=index,
                biases=biases,
                kernel=kernel,
                scales=scales,
                rolling_mean=mean,
                rolling_var=var,
            )
        )
    if cur.offset != len(data):
        raise WeightsFormatError(
            f"{len(data) - cur.offset} trailing bytes after last kernel "
            f"(offset {cur.offset})"
        )
    return DarknetWeights(major, minor, revision, seen, tuple(convs))


def write_darknet_weights(weights: DarknetWeights) -> bytes:
    out = bytearray()
    out += struct.pack("<3i", weights.major, weights.minor, weights.revision)
    out += struct.pack(_seen_format(weights.major, weights.minor), weights.seen)
    for conv in weights.convs:
        out += conv.biases.astype("<f4").tobytes()
        if conv.batch_normalized:
            out += conv.scales.astype("<f4").tobytes()
            out += conv.rolling_mean.astype("<f4").tobytes()
            out += conv.rolling_var.astype("<f4").tobytes()
        out += conv.kernel.astype("<f4").tobytes()
    return bytes(out)


def fold_batch_norm(weights: DarknetWeights, eps: float = 1e-6) -> DarknetWeights:
    """Fold batch-norm statistics into kernels and biases.

    y = scale*(conv - mean)/sqrt(var + eps) + bias becomes a plain conv with
    kernel' = kernel*scale/sqrt(var+eps) and bias' = bias - scale*mean/sqrt(var+eps).
    """
    folded = []
    for conv in weights.convs:
        if not conv.batch_normalized:
            folded.append(conv)
            continue
        f = conv.biases.size
        factor = conv.scales.astype(np.float64) / np.sqrt(
            conv.rolling_var.astype(np.float64) + eps
        )
        kernel = conv.kernel.astype(np.float64).reshape(f, -1) * factor[:, None]
        bias = conv.biases.astype(np.float64) - factor * conv.rolling_mean.astype(
            np.float64
        )
        folded.append(
            ConvParams(
                layer_index=conv.layer_index,
                biases=bias.astype(np.float32),
                kernel=kernel.reshape(-1).astype(np.float32),
            )
        )
    return replace(weights, convs=tuple(folded))


def cluster_model(weights: DarknetWeights, cfg: ClusterConfig) -> ClusteredModel:
    """Quantize all conv kernels into codebooks per the configured scope."""
    if not weights.convs:
        raise ValueError("weights hold no conv layers to cluster")
    if cfg.scope == SCOPE_ALL_LAYERS:
        stream = np.concatenate([conv.kernel for conv in weights.convs])
        table, assignments = kmeans_1d(stream, cfg.k, cfg)
        entries = (
            ClusterEntry(None, table, pack_indices(assignments, cfg.bits)),
        )
    else:
        entries = []
        for conv in weights.convs:
            table, assignments = kmeans_1d(conv.kernel, cfg.k, cfg)
            entries.append(
                ClusterEntry(
                    conv.layer_index, table, pack_indices(assignments, cfg.bits)
                )
            )
        entries = tuple(entries)
    return ClusteredModel(scope=cfg.scope, bits=cfg.bits, entries=entries)


def model_sse(model: ClusteredModel, weights: DarknetWeights) -> list[float]:
    """Per-table SSE of the clustered model against the original kernels."""
    out = []
    for entry in model.entries:
        if entry.layer_id is None:
            original = np.concatenate([conv.kernel for conv in weights.convs])
        else:
            original = weights.conv_for_layer(entry.layer_id).kernel
        if entry.packed.count != original.size:
            raise ValueError(
                f"table covers {entry.packed.count} weights, layer holds {original.size}"
            )
        d = original.astype(np.float64) - dequantize(entry.table, entry.packed).astype(
            np.float64
        )
        out.append(float(np.dot(d, d)))
    return out


def write_clustered(model: ClusteredModel) -> bytes:
    """Serialize to the CWTS container (little-endian, CRC32-terminated)."""
    out = bytearray(CWTS_MAGIC)
    out += struct.pack(
        "<HBBI", CWTS_VERSION, _SCOPE_CODES[model.scope], model.bits, len(model.entries)
    )
    for entry in model.entries:
        layer_id = GLOBAL_TABLE_ID if entry.layer_id is None else entry.layer_id
        out += struct.pack("<II", layer_id, entry.table.k)
        out += entry.table.centroids.astype("<f4").tobytes()
        out += struct.pack("<Q", entry.packed.count)
        out += entry.packed.words.astype("<u4").tobytes()
    out += struct.pack("<I", zlib.crc32(bytes(out)) & 0xFFFFFFFF)
    return bytes(out)


def read_clustered(data: bytes) -> ClusteredModel:
    """Parse a CWTS payload, verifying checksum then structure.

    The checksum is verified before any structural field is trusted, so a
    flipped byte anywhere in the payload reports as a checksum mismatch.
    """
    if len(data) < 4 or data[:4] != CWTS_MAGIC:
        raise ClusterFormatError(f"bad magic {data[:4]!r} at offset 0")
    if len(data) < 16:
        raise ClusterFormatError(
            f"truncated file: {len(data)} bytes is too short for header and checksum"
        )
    (stored_crc,) = struct.unpack("<I", data[-4:])
    actual = zlib.crc32(data[:-4]) & 0xFFFFFFFF
    if actual != stored_crc:
        raise ClusterFormatError(
            f"checksum mismatch: stored {stored_crc:#010x}, computed {actual:#010x} "
            f"(corrupt or truncated file)"
        )
    cur = _Cursor(data, ClusterFormatError)
    cur.take(4, "magic")
    version, scope_code, bits, n_tables = struct.unpack(
        "<HBBI", cur.take(8, "container header")
    )
    if version != CWTS_VERSION:
        raise ClusterFormatError(f"unsupported version {version}")
    if scope_code not in _CODE_SCOPES:
        raise ClusterFormatError(f"unknown scope code {scope_code}")
    if not 1 <= bits <= 8:
        raise ClusterFormatError(f"bits {bits} out of range 1..8")
    scope = _CODE_SCOPES[scope_code]
    entries = []
    for t in range(n_tables):
        what = f"table {t} "
        layer_id, k = struct.unpack("<II", cur.take(8, what + "header"))
        if k < 1 or k > (1 << bits):
            raise ClusterFormatError(
                f"table {t} size {k} invalid for {bits}-bit indexes"
            )
        centroids = cur.f32(k, what + "centroids")
        if not np.all(np.isfinite(centroids)):
            raise ClusterFormatError(f"table {t} holds non-finite centroids")
        (count,) = struct.unpack("<Q", cur.take(8, what + "index count"))
        per_word = WORD_BITS // bits
        n_words = -(-count // per_word)
        words = cur.u32(n_words, what + "packed indexes")
        try:
            packed = PackedIndices(bits=bits, count=count, words=words)
        except ValueError as exc:
            raise ClusterFormatError(f"table {t}: {exc}") from exc
        idx = unpack_indices(packed)
        if idx.size and int(idx.max()) >= k:
            raise ClusterFormatError(
                f"table {t}: index {int(idx.max())} out of range for {k} centroids"
            )
        entries.append(
            ClusterEntry(
                None if layer_id == GLOBAL_TABLE_ID else int(layer_id),
                CentroidTable(centroids),
                packed,
            )
        )
    cur.take(4, "checksum")
    if cur.offset != len(data):
        raise ClusterFormatError(
            f"{len(data) - cur.offset} trailing bytes after checksum "
            f"(offset {cur.offset})"
        )
    try:
        return ClusteredModel(scope=scope, bits=bits, entries=tuple(entries))
    except ValueError as exc:
        raise ClusterFormatError(str(exc)) from exc

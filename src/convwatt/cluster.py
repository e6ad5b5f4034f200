"""Post-training weight clustering and the binary formats around it.

Convolution kernels are quantized with 1-D k-means into a small codebook of
fp32 centroids plus a stream of bit-packed indexes; biases and folded
batch-norm parameters are never clustered. Clustering runs either globally
over all conv kernels at once or separately per layer.

dequantize is the one way back to fp32 weights: each conv looks up its own
span of its table's index stream, as the engine's indirect pass decodes it.
model_sse rebuilds the same weights for itself, a block of a stream at a
time, and keeps none of them.

Also implements the Darknet ``.weights`` layout and the ``CWTS`` clustered
container (little-endian, CRC-protected).
"""

from __future__ import annotations

import math
import operator
import struct
import zlib
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .netdef import CONVOLUTIONAL, NetworkDef

SCOPE_ALL_LAYERS = "all_layers"
SCOPE_PER_LAYER = "per_layer"
SCOPES = (SCOPE_ALL_LAYERS, SCOPE_PER_LAYER)

INIT_LINSPACE = "linspace"
INIT_KMEANS_PP = "kmeans_pp"
INITS = (INIT_LINSPACE, INIT_KMEANS_PP)

BN_EPS = 1e-6  # the variance epsilon of fold_batch_norm

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

    init INIT_KMEANS_PP costs O(n*k) before the first sweep: each of the k
    picks builds an n-value probability array. On 4 M values at 8 bits, a
    one-sweep run took 24 s with it against 1.0 s with INIT_LINSPACE (2-core
    x86_64 host), so full-size networks should use INIT_LINSPACE.
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
        if not (math.isfinite(self.tol) and self.tol >= 0):
            raise ValueError(f"tol must be a finite number >= 0, got {self.tol!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed!r}")
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


def indexes_per_word(bits: int) -> int:
    """Packed indexes per 32-bit word: floor(32/bits), as no index spans a
    word boundary."""
    if not 1 <= bits <= WORD_BITS:
        raise ValueError("bits must lie in 1..32")
    return WORD_BITS // bits


@dataclass(frozen=True, eq=False)
class PackedIndices:
    """Bit-packed index stream; no index spans a 32-bit word boundary."""

    bits: int
    count: int
    words: np.ndarray

    def __post_init__(self):
        per_word = indexes_per_word(self.bits)
        if self.count < 0:
            raise ValueError("count must be >= 0")
        words = np.asarray(self.words, dtype=np.uint32)
        if words.ndim != 1:
            raise ValueError("words must be a 1-D array")
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
        object.__setattr__(self, "_per_word", per_word)
        object.__setattr__(self, "_mask", np.uint32((1 << self.bits) - 1))

    def take(self, positions: np.ndarray) -> np.ndarray:
        """The uint32 indexes at the given stream positions, an integer array
        of any shape, reading only the words that hold them.

        Index j sits in word j // per_word, at bit (j % per_word) * bits,
        where per_word = floor(32/bits). The positions must lie in
        0..count - 1; they are not checked, so a caller that reads one span
        block by block checks the span once.
        """
        word, lane = np.divmod(positions, self._per_word)
        shift = (lane * self.bits).astype(np.uint32)
        return (self.words[word] >> shift) & self._mask

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
    """One codebook with its index stream; layer_id None means global.

    Every index of the stream is below table.k, checked here once: a table
    of 2**bits entries takes every bits-wide index, and the stream of a
    smaller one is decoded and scanned.
    """

    layer_id: int | None
    table: CentroidTable
    packed: PackedIndices

    def __post_init__(self):
        k, bits = self.table.k, self.packed.bits
        if k > 1 << bits:
            raise ValueError(f"{k}-entry table is larger than 2**{bits}")
        if k < 1 << bits:
            idx = unpack_indices(self.packed, 0, self.packed.count)
            if idx.size and int(idx.max()) >= k:
                raise ValueError(f"index {int(idx.max())} out of range for {k}-entry table")


@dataclass(frozen=True)
class ClusteredModel:
    """Clustered conv kernels: codebook tables plus packed index streams.

    Biases and folded batch-norm parameters stay with the original weights
    object; only kernel weights are clustered. bits is checked where a width
    enters the program (ClusterConfig, read_clustered); every stream must
    have it.
    """

    scope: str
    bits: int
    entries: tuple[ClusterEntry, ...]

    def __post_init__(self):
        if self.scope not in SCOPES:
            raise ValueError(f"scope must be one of {SCOPES}")
        if not self.entries:
            raise ValueError("model must hold at least one table")
        if self.scope == SCOPE_ALL_LAYERS:
            if len(self.entries) != 1 or self.entries[0].layer_id is not None:
                raise ValueError("all_layers scope stores exactly one global table")
        else:
            if any(entry.layer_id is None for entry in self.entries):
                raise ValueError("per_layer scope requires a layer id on every table")
            ids = [entry.layer_id for entry in self.entries]
            if len(set(ids)) != len(ids):
                raise ValueError("per_layer scope holds two tables for one layer")
        for entry in self.entries:
            if entry.packed.bits != self.bits:
                raise ValueError("index stream width disagrees with model bits")

    @property
    def total_count(self) -> int:
        return sum(entry.packed.count for entry in self.entries)

    def spans(
        self, weights: DarknetWeights
    ) -> list[tuple[ClusterEntry, list[tuple[ConvParams, int]]]]:
        """The conv layers each table's index stream covers, and where.

        One (entry, layers) pair per table in stream order; layers lists
        (conv, base) in stream order, base being the offset of the conv's
        first kernel weight in the entry's stream. Raises ValueError unless
        every conv layer of weights is covered exactly once, every table
        names a conv layer, and each stream holds exactly its layers' weights.
        """
        if self.scope == SCOPE_ALL_LAYERS:
            groups = [(self.entries[0], weights.convs)]
        else:
            convs = {conv.layer_index: conv for conv in weights.convs}
            unknown = [e.layer_id for e in self.entries if e.layer_id not in convs]
            if unknown:
                raise ValueError(f"tables for layers {unknown} name no conv layer")
            missing = sorted(convs.keys() - {e.layer_id for e in self.entries})
            if missing:
                raise ValueError(f"no codebook table for conv layers {missing}")
            groups = [(e, (convs[e.layer_id],)) for e in self.entries]
        out = []
        for entry, convs in groups:
            layers, base = [], 0
            for conv in convs:
                layers.append((conv, base))
                base += conv.n_weights
            if entry.packed.count != base:
                name = "global" if entry.layer_id is None else f"layer {entry.layer_id}"
                raise ValueError(
                    f"{name} table covers {entry.packed.count} weights, its conv "
                    f"layers hold {base}: the index stream does not cover them"
                )
            out.append((entry, layers))
        return out


def pack_indices(indices, bits: int) -> PackedIndices:
    """Pack indexes little-endian within 32-bit words.

    Index j occupies bits [(j mod f)*bits, (j mod f)*bits + bits) of word
    j // f, where f = floor(32/bits). Indexes never span words; unused high
    bits stay zero. indices must have an integer dtype, unless it is empty.
    """
    per_word = indexes_per_word(bits)
    idx = np.asarray(indices)
    if idx.ndim != 1:
        raise ValueError("indices must be 1-D")
    if idx.size and idx.dtype.kind not in "iu":
        raise ValueError(f"indexes must be integers, got dtype {idx.dtype}")
    if idx.size and (int(idx.min()) < 0 or int(idx.max()) >= (1 << bits)):
        raise ValueError(f"indexes must lie in 0..{(1 << bits) - 1}")
    lanes = np.zeros((-(-idx.size // per_word), per_word), dtype=np.uint32)
    lanes.reshape(-1)[: idx.size] = idx
    lanes <<= np.arange(0, per_word * bits, bits, dtype=np.uint32)
    words = np.bitwise_or.reduce(lanes, axis=1)
    return PackedIndices(bits=bits, count=int(idx.size), words=words)


def unpack_indices(packed: PackedIndices, start: int, count: int) -> np.ndarray:
    """Inverse of pack_indices over one span: the uint32 indexes start ..
    start + count - 1 of the stream.

    Only the words that hold the span are decoded. Raises ValueError unless
    the span lies within 0..packed.count.
    """
    if start < 0 or count < 0 or start + count > packed.count:
        raise ValueError(
            f"span {start}..{start + count} lies outside the stream's "
            f"0..{packed.count}"
        )
    per_word = packed._per_word
    first, skip = divmod(start, per_word)
    shifts = np.arange(0, per_word * packed.bits, packed.bits, dtype=np.uint32)
    lanes = packed.words[first : -(-(start + count) // per_word), None] >> shifts
    lanes &= packed._mask
    return lanes.reshape(-1)[skip : skip + count]


def _init_centroids(views, k: int, cfg: ClusterConfig) -> np.ndarray:
    """k starting centroids in ascending order for each sorted table of
    views, one row each.

    linspace runs from each table's first value to its last, its min and
    max, for every row at once: np.linspace forms each row as it forms a
    table of its own, from the row's own step, which is never 0 here (the
    tables hold more than one distinct value, and float32 ones differ by at
    least 2**-149). Of zeros of both signs, which one ends a row never
    shows: the first sweep replaces every centroid, and a zero's sign moves
    neither a midpoint nor a movement.
    """
    if cfg.init == INIT_LINSPACE:
        return np.linspace([v[0] for v in views], [v[-1] for v in views], k, axis=-1)
    return np.array([_kmeans_pp(values, k, cfg.seed) for values in views])


def _kmeans_pp(values: np.ndarray, k: int, seed: int) -> np.ndarray:
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


def _segment_bounds(views, centroids: np.ndarray) -> np.ndarray:
    """Boundaries of each centroid's contiguous segment in the sorted data,
    one row of centroids and of bounds per sorted table of views.

    A value exactly on a midpoint between two centroids joins the lower one.
    """
    bounds = np.empty((len(views), centroids.shape[1] + 1), dtype=np.int64)
    bounds[:, 0] = 0
    mids = centroids[:, :-1] + centroids[:, 1:]
    mids /= 2.0
    for row, values, m in zip(bounds, views, mids):
        row[1:-1] = values.searchsorted(m, side="right")
        row[-1] = values.size
    return bounds


# _SegmentSums keeps its exact prefix sums at every _STEP-th sorted value, 2 B
# per value, but at every value of a table of at most _DENSE values, 16 B per
# value and so at most 1 MB: on a small table, the block correction of a
# sweep's k + 1 bounds costs more than reading them off a whole prefix. It
# builds them _CHUNK values at a time, which bounds its temporaries.
# kmeans_1d runs tables of at most _DENSE values in lockstep batches of at
# most _BATCH values (a larger table runs alone); a batch holds its sorted
# copy, argsort orders and prefixes, 26 B per value and so at most 3.4 MB,
# besides its sweeps' (tables, k) arrays
_STEP = 8
_DENSE = 1 << 16
_BATCH = 1 << 17
_OFFSETS = np.arange(_STEP)[:, None]
_CHUNK = 1 << 16
_LOW = (1 << 31) - 1
_LIMB = (1 << 21) - 1
# every finite float32 is a whole multiple of 2**_FINE, and its square, exact
# in float64, one of 2**(2 * _FINE)
_FINE = -149


def _units(values: np.ndarray, unit: int):
    """Each value as the integer multiple of 2**unit that it is, exactly:
    the caller's values are such multiples, and scaling them by 2**-unit
    neither overflows nor rounds."""
    return map(int, np.ldexp(values, -unit).tolist())


def _square_sum(m: np.ndarray) -> int:
    """Σ m**2, exact, over at most _CHUNK int64 values below 2**62 in
    magnitude: each |m| splits into three 21-bit limbs, and every sum of
    limb products over the chunk stays below 2**58, exact in int64. m is
    overwritten."""
    l2 = np.abs(m, out=m)
    l0 = l2 & _LIMB
    l2 >>= 21
    l1 = l2 & _LIMB
    l2 >>= 21

    def dot(x, y):
        return int(np.einsum("i,i->", x, y))

    return (
        dot(l0, l0)
        + (dot(l0, l1) << 22)
        + ((dot(l1, l1) + 2 * dot(l0, l2)) << 42)
        + (dot(l1, l2) << 64)
        + (dot(l2, l2) << 84)
    )


def _rounded(num: int, exp: int) -> float:
    """num * 2**exp, num >= 0, rounded once to float64."""
    return float(num << exp) if exp >= 0 else num / (1 << -exp)


def _rounded_runs(limbs: np.ndarray, high, grid, n: int) -> np.ndarray:
    """Each run's exact sum, hi * 2**31 + lo units of grid = 2**e, rounded
    once to float64, for runs of a table of at most n values whose prefix
    _SegmentSums keeps; limbs holds hi and lo, and high is 2**(e + 31).
    grid and high may be columns of one unit per row of hi and lo.

    A run's hi is the sum of its values' m >> 31, at most 2**31 each in
    magnitude, and of at most n + 1 carries, and |lo| < 2**35.
    """
    hi, lo = limbs
    if n < 1 << 21:
        # |hi| < 2**53: hi * 2**(e + 31) and lo * 2**e are exact float64s,
        # so the one addition rounds the sum
        runs = hi * high
        runs += lo * grid
        return runs
    # the exact sum over 2**e is t * 2**52 + u with |t| < 2**42 and
    # |u| < 2**53: both are exact float64s, so the one addition rounds it
    t, u = hi >> 21, ((hi & (1 << 21) - 1) << 31) + lo
    return t * (high * 2.0**21) + u * grid


class _SegmentSums:
    """math.fsum of the runs between bounds of a sorted array, bit for bit,
    and the exact sums that the SSE check reads.

    The values are float32 ones held in float64, as kmeans_1d sorts them:
    each is a whole multiple of 2**_FINE = 2**-149 and below 2**128 in
    magnitude. So no sum or square of them, exact or rounded, leaves the
    float64 range, and a nonzero one is at least 2**-298 in magnitude: far
    from both ends of it, so nothing here overflows or underflows.

    The grid: every value is m * 2**e for one e, the frexp exponent of the
    largest magnitude less 62, so |m| < 2**62 splits into 31-bit limbs
    m = hi * 2**31 + lo, 0 <= lo < 2**31 (hi is m >> 31, rounded toward
    -inf). Column j of prefix holds the sums of hi (row 0) and lo (row 1)
    over values[:j * step], exact in int64, with lo's carry moved into hi;
    step is 1 for at most _DENSE values, else _STEP. A run's exact sum is
    the difference of the prefixes at its bounds, each completed by the at
    most step - 1 values past its column, and is rounded to float64 once:
    it is fsum's correctly rounded sum. A zero one is +0.0, as fsum gives.

    prefix is None off the grid: where some value is no multiple of 2**e
    (its values span more than 62 bits), or where 2**32 values or more
    could overflow the int64 limb sums. Runs are then summed with fsum one
    by one. A caller may hand in the zeroed (2, n // step + 1) int64 array
    to build prefix in: kmeans_1d lays a batch's prefixes side by side.

    exact gives the runs' sums, and squares the sum of every value's
    square, exactly, as Python ints in units of 2**unit and 2**(2 * unit).
    On the grid unit is e: exact reads the prefix in O(k), and squares is
    summed from the m of each chunk as the prefix is built. Off the grid
    unit is _FINE, and both are summed value by value in O(n), squares once.
    """

    def __init__(self, sorted_values: np.ndarray, prefix: np.ndarray | None = None):
        self.values = sorted_values
        self.prefix = None
        self.unit, self._squares = _FINE, None
        self.step = 1 if sorted_values.size <= _DENSE else _STEP
        n = sorted_values.size
        if n >> 32:
            return
        peak = max(-float(sorted_values[0]), float(sorted_values[-1]))
        e = math.frexp(peak)[1] - 62
        self.grid, self.high = math.ldexp(1.0, e), math.ldexp(1.0, e + 31)
        self.scale = math.ldexp(1.0, -e)
        step = self.step
        if prefix is None:
            prefix = np.zeros((2, n // step + 1), dtype=np.int64)
        squares = 0
        for i in range(0, n, _CHUNK):
            # scaling a float32 value by 2**-e neither overflows nor
            # underflows, so it is exact: the value is a multiple of 2**e
            # where its part is an integer, m
            part = sorted_values[i : i + _CHUNK] * self.scale
            m = part.astype(np.int64)
            if not (m == part).all():
                return
            del part  # _square_sum's limbs take its place
            j = i // step + 1
            if step == 1:
                np.right_shift(m, 31, out=prefix[0, j : j + m.size])
                np.bitwise_and(m, _LOW, out=prefix[1, j : j + m.size])
            else:
                # einsum sums the short rows several times faster than sum
                blocks = m[: m.size - m.size % step].reshape(-1, step)
                prefix[0, j : j + len(blocks)] = np.einsum("ij->i", blocks >> 31)
                prefix[1, j : j + len(blocks)] = np.einsum("ij->i", blocks & _LOW)
            squares += _square_sum(m)
        np.cumsum(prefix, axis=1, out=prefix)
        prefix[0] += prefix[1] >> 31
        prefix[1] &= _LOW
        self.prefix = prefix
        self.unit, self._squares = e, squares

    def _limbs(self, bounds: np.ndarray) -> np.ndarray:
        """Rows hi and lo of each run on the grid: its exact sum over 2**e
        is hi * 2**31 + lo."""
        if self.step == 1:
            limbs = self.prefix.take(bounds, axis=1)
        else:
            # column i holds the values of bound i's block below it, as m
            column, r = np.divmod(bounds, _STEP)
            at = _OFFSETS + (bounds - r)
            m = (self.values.take(at, mode="clip") * self.scale).astype(np.int64)
            m *= _OFFSETS < r
            limbs = self.prefix.take(column, axis=1)
            limbs += np.add.reduce(np.divmod(m, 1 << 31), axis=1)
        return limbs[:, 1:] - limbs[:, :-1]

    def totals(self, bounds: np.ndarray) -> np.ndarray:
        """math.fsum(values[bounds[i]:bounds[i + 1]]) for each i."""
        if self.prefix is None:
            return self.fsums(bounds)
        return _rounded_runs(self._limbs(bounds), self.high, self.grid, self.values.size)

    def fsums(self, bounds: np.ndarray) -> np.ndarray:
        """totals off the grid: math.fsum of each run."""
        edges = bounds.tolist()
        return np.array(
            [math.fsum(self.values[lo:hi].tolist()) for lo, hi in zip(edges, edges[1:])]
        )

    def exact(self, bounds: np.ndarray) -> list[int]:
        """The exact sum of each run between bounds, in units of 2**unit."""
        if self.prefix is None:
            edges = bounds.tolist()
            return [sum(_units(self.values[lo:hi], _FINE)) for lo, hi in zip(edges, edges[1:])]
        hi, lo = self._limbs(bounds)
        return [(h << 31) + l for h, l in zip(hi.tolist(), lo.tolist())]

    @property
    def squares(self) -> int:
        """Σ x**2 over every value, exact, in units of 2**(2 * unit)."""
        if self._squares is None:
            self._squares = sum(
                sum(_units(np.square(self.values[i : i + _CHUNK]), 2 * _FINE))
                for i in range(0, self.values.size, _CHUNK)
            )
        return self._squares

    @cached_property
    def square_sum(self) -> float:
        """Σ x**2 in float64: squares, rounded once."""
        return _rounded(self.squares, 2 * self.unit)


def _segment_means(totals: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Mean of each segment, its sum in totals (_SegmentSums.totals, so
    math.fsum) over its length; NaN if empty, as an empty sum is 0.0. The
    last axis runs over one table's segments, row by row.

    fsum keeps the mean exactly rounded, pinning results across platforms
    regardless of summation order optimizations.
    """
    with np.errstate(invalid="ignore", divide="ignore"):
        return totals / (bounds[..., 1:] - bounds[..., :-1])


def _farthest(dist: np.ndarray, e: int) -> np.ndarray:
    """Indexes of the e largest distances, ties going to the lowest index.

    These are the picks of e rounds of argmax that each retire their pick,
    found in O(n). They come in index order, not pick order; the centroids
    are sorted next, so that order never shows.
    """
    threshold = np.partition(dist, dist.size - e)[dist.size - e]
    above = np.flatnonzero(dist > threshold)
    tied = np.flatnonzero(dist == threshold)[: e - above.size]
    return np.concatenate((above, tied))


# the unit roundoff of float64
_EPS = 2.0**-53


def _sse_bracket(square_sum, centroids, bounds, totals):
    """Floats lo <= hi around the SSE of centroids over bounds, as
    _SweepSSE defines it, one of each per table: centroids, bounds and
    totals hold one row per table, and square_sum each table's Σx², its
    _SegmentSums.square_sum.

    The SSE is Σx² - 2 Σ c·S + Σ n·c², c being a segment's centroid, S its
    sum and n its count. It is evaluated once in float64 from
    square_sum and totals, each correctly rounded, in at most k + 10
    roundings along any path, k being the number of segments. In the
    standard model of rounding (Higham, "Accuracy and Stability of
    Numerical Algorithms", ch. 3) its error is then at most
    γ(m) (Σx² + Σ (n·c² + 2 |c·S|)), γ(m) = m u / (1 - m u), u = 2**-53,
    for m = k + 10; the bound takes m = 2k + 16, which also covers the
    rounding of the bound itself. This is the filter of Shewchuk's adaptive
    predicates (1997): decide from a float evaluation where its error bound
    allows it.

    The model needs no term for overflow or underflow. The values are
    float32 ones (see _SegmentSums), and every centroid kmeans_1d checks is
    a mean of values, a value, or a linspace point between two values: below
    2**129 in magnitude and, when nonzero, at least about 2**-210. So every
    nonzero square, product and sum here lies between about 2**-420 and
    2**300, inside float64's normal range.
    """
    # Σ c·S, Σ |c·S| and Σ n·c² of each row
    term = centroids * totals
    cross = np.add.reduce(term, axis=1)
    magnitude = np.add.reduce(np.abs(term, out=term), axis=1)
    np.multiply(centroids, centroids, out=term)
    term *= bounds[:, 1:] - bounds[:, :-1]
    spread = np.add.reduce(term, axis=1)
    m = 2 * term.shape[1] + 16
    gamma = m * _EPS / (1.0 - m * _EPS)
    # the rest is a few float operations per table, cheaper in Python
    # floats than in numpy calls on a batch's few rows
    lo, hi = [], []
    for c_s, abs_c_s, n_cc, squares in zip(cross.tolist(), magnitude.tolist(),
                                           spread.tolist(), square_sum.tolist()):
        estimate = squares + (n_cc - 2.0 * c_s)
        error = gamma * (squares + (n_cc + 2.0 * abs_c_s))
        lo.append(math.nextafter(estimate - error, -math.inf))
        hi.append(math.nextafter(estimate + error, math.inf))
    return np.array(lo), np.array(hi)


def _exact_sse(sums: _SegmentSums, centroids, bounds) -> float:
    """The SSE of centroids over bounds as _SweepSSE defines it, formed from
    sums' exact integers and each centroid's as_integer_ratio."""
    counts = bounds[1:] - bounds[:-1]
    held = counts > 0
    ratios = [c.as_integer_ratio() for c in centroids[held].tolist()]
    # everything in units of 2**fine, the finer of the sums' unit and the
    # centroids' lowest bits; the SSE in units of 2**(2 * fine)
    fine = min([sums.unit] + [1 - den.bit_length() for _, den in ratios])
    shift = sums.unit - fine
    total = sums.squares << (2 * shift)
    held_sums = (s for s, h in zip(sums.exact(bounds), held.tolist()) if h)
    for (num, den), sj, nj in zip(ratios, held_sums, counts[held].tolist()):
        cj = num << (1 - fine - den.bit_length())
        total += cj * (nj * cj - (sj << (shift + 1)))
    return _rounded(total, 2 * fine)


class _SweepSSE:
    """The SSEs of one sweep, one per live table of a batch: each the exact
    Σ (x - c)**2 over the values of every non-empty segment of its table,
    rounded once to float64.

    Row r holds the sweep's centroids and bounds of tables' row r. totals
    are the segments' sums, which the next sweep's means divide; lo and hi
    bracket each SSE, from _sse_bracket and totals in O(k). exact(r) is row
    r's SSE itself, from _exact_sse: in O(k) on the grid, in O(n) off it.
    It is formed when first read, once: a sweep that reseeds reads none,
    unless the next sweep checks against it.
    """

    def __init__(self, tables: _Tables, centroids, bounds):
        self.tables, self.centroids, self.bounds = tables, centroids, bounds
        self.totals = tables.totals(bounds)
        self.lo, self.hi = _sse_bracket(tables.square_sum, centroids, bounds, self.totals)
        self._exact = {}

    def exact(self, row: int) -> float:
        if row not in self._exact:
            self._exact[row] = _exact_sse(
                self.tables.sums[row], self.centroids[row], self.bounds[row]
            )
        return self._exact[row]

    def exceeds(self, prev: _SweepSSE, checked: np.ndarray | None = None) -> bool:
        """Whether the "SSE increased" test, sse > prev_sse * (1.0 + 1e-9),
        holds on the exact SSEs of some row that checked selects (every row
        when None); it reads them only where the brackets leave it open.
        prev is the sweep before, on the same rows."""
        # the rows that may have increased; above them, those that did
        maybe = self.hi > prev.lo * (1.0 + 1e-9)
        if checked is not None:
            maybe &= checked
        if not np.count_nonzero(maybe):
            return False
        if np.count_nonzero(maybe & (self.lo > prev.hi * (1.0 + 1e-9))):
            return True
        return any(
            self.exact(row) > prev.exact(row) * (1.0 + 1e-9)
            for row in np.flatnonzero(maybe).tolist()
        )

    def keep(self, rows: np.ndarray) -> None:
        """Keep the rows that the boolean mask rows selects, as tables.keep
        does."""
        self.centroids, self.bounds = self.centroids[rows], self.bounds[rows]
        self.totals, self.lo, self.hi = self.totals[rows], self.lo[rows], self.hi[rows]
        kept = np.flatnonzero(rows).tolist()
        self._exact = {new: self._exact[old] for new, old in enumerate(kept)
                       if old in self._exact}


class _Tables:
    """The sorted tables of a lockstep batch, and each sweep's segment sums
    of every live table at once.

    views holds each live table's sorted values and sums its _SegmentSums,
    one row each; keep drops the tables that stop. Where every table keeps
    its prefix at every value, as every table of at most _DENSE values
    does, their prefixes lie side by side in prefix, row r's from column
    columns[r] on, each on its own grid: one take reads a sweep's bounds of
    every table, and high and grid round each row's runs in its own units
    (_rounded_runs). A table off the grid sums its own runs with fsum. A
    larger table runs alone and reads its own sums.
    """

    def __init__(self, views):
        self.views = views
        sizes = [v.size for v in views]
        self.prefix = None
        if max(sizes) <= _DENSE:
            columns = np.cumsum([0] + [n + 1 for n in sizes[:-1]])
            self.prefix = np.zeros((2, sum(sizes) + len(sizes)), dtype=np.int64)
            self.sums = [
                _SegmentSums(v, self.prefix[:, c : c + v.size + 1])
                for v, c in zip(views, columns.tolist())
            ]
            self.columns = columns[:, None]
        else:
            (table,) = views
            self.sums = [_SegmentSums(table)]
        self.n = max(sizes)
        self.off_grid = np.array([s.prefix is None for s in self.sums])
        self.high = np.array([[0.0 if s.prefix is None else s.high] for s in self.sums])
        self.grid = np.array([[0.0 if s.prefix is None else s.grid] for s in self.sums])
        self.square_sum = np.array([s.square_sum for s in self.sums])

    def keep(self, rows: np.ndarray) -> None:
        """Keep the tables that the boolean mask rows selects."""
        kept = np.flatnonzero(rows).tolist()
        self.views = [self.views[r] for r in kept]
        self.sums = [self.sums[r] for r in kept]
        if self.prefix is not None:
            self.columns = self.columns[rows]
        self.off_grid, self.high, self.grid = self.off_grid[rows], self.high[rows], self.grid[rows]
        self.square_sum = self.square_sum[rows]

    def totals(self, bounds: np.ndarray) -> np.ndarray:
        """math.fsum(views[r][bounds[r, i]:bounds[r, i + 1]]) for each row r
        and segment i."""
        if self.prefix is None:
            return self.sums[0].totals(bounds[0])[None]
        limbs = self.prefix.take(bounds + self.columns, axis=1)
        limbs = limbs[..., 1:] - limbs[..., :-1]
        totals = _rounded_runs(limbs, self.high, self.grid, self.n)
        if self.off_grid.any():
            for row in np.flatnonzero(self.off_grid).tolist():
                totals[row] = self.sums[row].fsums(bounds[row])
        return totals


def _stable_zeros(svals: np.ndarray, vals: np.ndarray) -> None:
    """Give the run of zeros in svals, vals sorted by an unstable sort, the
    signs those zeros have in vals, in vals's order.

    Equal finite floats have equal bits except for the sign of zero, so
    svals is then bitwise what a stable sort gives.
    """
    lo = np.searchsorted(svals, 0.0, side="left")
    hi = np.searchsorted(svals, 0.0, side="right")
    negative = np.signbit(svals[lo:hi])
    if negative.any() and not negative.all():
        svals[lo:hi] = vals[vals == 0]


def kmeans_1d(values, k: int, cfg: ClusterConfig | None = None, lengths=None):
    """Lloyd's algorithm in one dimension, on float32 values.

    values are taken as float32, as ConvParams holds kernels: wider ones are
    rounded to float32 first, and any that is not finite as float32 (nan,
    ±inf, or beyond ±3.4e38) raises ValueError. The sweeps then run in
    float64, where nothing that float32 values give can overflow or
    underflow (see _SegmentSums and _sse_bracket).

    Returns (CentroidTable, assignments) with centroids sorted ascending and
    assignments indexing them in the original value order. When the data has
    no more than k distinct values the quantization is exact (SSE 0), with
    surplus table slots repeating the largest value; of -0.0 and 0.0, the
    first one in the input stands for both.

    lengths, when given, splits values into consecutive tables of those
    lengths, each clustered on its own: the call returns (list of
    CentroidTable, assignments), each table's assignments in its own span.
    Each table's centroids and assignments are bitwise those of a call on
    that table alone. Tables of at most _DENSE values run in lockstep, in
    batches of consecutive tables that hold at most _BATCH values in all:
    one sweep of a batch makes one set of numpy calls on (tables, k)
    arrays, where a table alone would make the same set on k-element ones.
    A larger table runs alone.

    Results are bitwise those of a Lloyd that stable-sorts the values and
    recomputes every segment each sweep, by these invariants:

    - svals, the values in numpy's default (unstable) argsort order, is
      bitwise the stable sort: equal finite floats have equal bits except
      for the sign of zero, and _stable_zeros puts the zeros' signs back in
      input order. Assignments depend only on values, so the order of ties
      in the argsort never shows.
    - A segment's mean is math.fsum of its values over their count, bit for
      bit. Where the sorted values lie on one integer grid m * 2**e with
      |m| < 2**62, _SegmentSums reads each sweep's k sums off exact int64
      prefix sums in O(k) numpy work; where they span more bits, it runs
      fsum on each segment. A table of at most _DENSE values keeps the
      prefix at every value and reads each bound off it; a larger one keeps
      it at every _STEP-th value and adds the at most _STEP - 1 values past
      a bound's column. Both form the same integers, rounded once, so the
      layout never shows in a mean.
    - The "SSE increased" check compares _SweepSSE's SSE: the exact
      Σ(x - c)² over the non-empty segments, rounded once to float64. A
      sweep evaluates Σx² - 2 Σ c·S + Σ n·c² in O(k) float work, from the
      sum of squares _SegmentSums takes once per table and the segment sums
      S that the next sweep's means divide, and brackets the SSE with a
      rigorous error bound. Only where the brackets of two sweeps leave the
      check open are their SSEs formed exactly, from exact integer sums:
      in O(k) on the grid, in O(n) off it. So a sweep of a table on the
      grid that does not reseed does no O(n) work.
    - A sweep that did not reseed and left every bound where it was is a
      fixed point: the next sweep would compute the same means, move no
      centroid and stop. The loop stops there instead.
    - In a batch, each row of a sweep's arrays is one table, and every step
      acts on a row as it would on the table alone: elementwise arithmetic,
      np.sort along the row (the 1-D sort of each row), and max and the
      SSE bracket's sums along it (the bracket bounds any summation order).
      Reseeds and exact SSEs run table by table, and each table stops on
      its own tests (tol, fixed point) and leaves the batch.
    """
    cfg = cfg or ClusterConfig()
    # past the float32 range the cast gives ±inf, rejected below
    with np.errstate(over="ignore"):
        vals = np.asarray(values, dtype=np.float32).reshape(-1)
    if vals.size == 0:
        raise ValueError("values must be non-empty")
    if not np.all(np.isfinite(vals)):
        raise ValueError("values must be finite")
    if k < 1:
        raise ValueError("k must be >= 1")
    sizes = [vals.size] if lengths is None else [operator.index(n) for n in lengths]
    if sum(sizes) != vals.size:
        raise ValueError(f"lengths add up to {sum(sizes)}, not to the {vals.size} values")
    if min(sizes) < 1:
        raise ValueError("values must be non-empty")

    centroids, assignments, start = [], [], 0
    for batch in _batches(sizes):
        stop = start + sum(batch)
        rows, assigned = _lloyd(vals[start:stop], batch, k, cfg)
        centroids.extend(rows)
        assignments.append(assigned)
        start = stop
    tables = [CentroidTable(row.astype(np.float32)) for row in centroids]
    assignments = assignments[0] if len(assignments) == 1 else np.concatenate(assignments)
    return (tables[0] if lengths is None else tables), assignments


def _batches(sizes: list[int]):
    """sizes, the lengths of consecutive tables, in runs that share a
    lockstep batch: tables of at most _DENSE values, at most _BATCH values
    in all, or a larger table alone."""
    batch, total = [], 0
    for n in sizes:
        if batch and (n > _DENSE or batch[0] > _DENSE or total + n > _BATCH):
            yield batch
            batch, total = [], 0
        batch.append(n)
        total += n
    yield batch


def _lloyd(vals: np.ndarray, sizes: list[int], k: int,
           cfg: ClusterConfig) -> tuple[np.ndarray, np.ndarray]:
    """kmeans_1d on one batch: vals holds its tables end to end, sizes their
    lengths. Returns the float64 centroids, one row per table, and each
    value's assignment."""
    edges = np.cumsum([0] + sizes).tolist()
    svals = np.empty(vals.size)
    views, orders = [], []
    for lo, hi in zip(edges, edges[1:]):
        # float32 values compare as their float64 ones do
        order = np.argsort(vals[lo:hi])
        svals[lo:hi] = vals[lo:hi][order]
        views.append(svals[lo:hi])
        # held until the end, each in the narrowest type that indexes its
        # table: 2 bytes per value for a table of at most _DENSE values
        orders.append(order.astype(np.min_scalar_type(hi - lo - 1)))
    del order
    if (svals == 0).any():
        for lo, view in zip(edges, views):
            _stable_zeros(view, vals[lo : lo + view.size])

    # each value that differs from its sorted predecessor starts a new one,
    # and so does the first of each table
    starts = np.empty(svals.size, dtype=bool)
    np.not_equal(svals[1:], svals[:-1], out=starts[1:])
    starts[edges[:-1]] = True
    distinct = {}
    for t, (lo, view) in enumerate(zip(edges, views)):
        if np.count_nonzero(starts[lo : lo + view.size]) <= k:
            distinct[t] = np.flatnonzero(starts[lo : lo + view.size])
    del starts
    iterate = [t for t in range(len(sizes)) if t not in distinct]
    swept = _sweeps([views[t] for t in iterate], k, cfg) if iterate else []

    centroids = np.empty((len(sizes), k))
    bounds = np.empty((len(sizes), k + 1), dtype=np.int64)
    iterate = np.array(iterate)
    for rows, row_centroids, row_bounds in swept:
        centroids[iterate[rows]], bounds[iterate[rows]] = row_centroids, row_bounds
    del swept
    for t, first in distinct.items():
        # each distinct value is a centroid, the largest also in the
        # surplus slots, which hold no value
        bounds[t, : first.size], bounds[t, first.size :] = first, sizes[t]
        centroids[t, : first.size], centroids[t, first.size :] = (
            views[t][first], views[t][first[-1]]
        )
    del svals, views
    assign_sorted = np.repeat(
        np.tile(np.arange(k, dtype=np.uint32), len(sizes)), np.diff(bounds).reshape(-1)
    )
    assignments = np.empty(vals.size, dtype=np.uint32)
    for lo, hi, order in zip(edges, edges[1:], orders):
        assignments[lo:hi][order] = assign_sorted[lo:hi]
    return centroids, assignments


def _sweeps(views, k: int, cfg: ClusterConfig) -> list:
    """Lloyd's sweeps in lockstep over sorted tables that each hold more
    than k distinct values: (rows, centroids, bounds) of the tables as they
    stop, rows indexing views."""
    tables = _Tables(views)
    done = []  # (rows, centroids, bounds) of the tables as they stop
    live = np.arange(len(views))
    centroids = _init_centroids(views, k, cfg)
    bounds = _segment_bounds(views, centroids)
    totals = tables.totals(bounds)
    sse = None
    for _ in range(cfg.max_iters):
        means = _segment_means(totals, bounds)
        empty = np.isnan(means)
        # the rows that reseed, or None where none does
        reseeded = empty.any(axis=1) if np.count_nonzero(empty) else None
        if reseeded is not None:
            for row in np.flatnonzero(reseeded).tolist():
                svals, gaps = tables.views[row], empty[row]
                dist = np.repeat(means[row], np.diff(bounds[row]))
                np.abs(np.subtract(svals, dist, out=dist), out=dist)
                means[row, gaps] = svals[_farthest(dist, np.count_nonzero(gaps))]
                del dist
        means.sort(axis=1)
        new_centroids = means
        # no centroid moved more than tol
        still = (np.abs(new_centroids - centroids) <= cfg.tol).all(axis=1)
        new_bounds = _segment_bounds(tables.views, new_centroids)
        new_sse = _SweepSSE(tables, new_centroids, new_bounds)
        steady = None if reseeded is None else ~reseeded
        if sse is not None and new_sse.exceeds(sse, steady):
            raise RuntimeError("k-means SSE increased")
        stop = still | (new_bounds == bounds).all(axis=1)
        if steady is not None:
            stop &= steady
        centroids, bounds, sse = new_centroids, new_bounds, new_sse
        if np.count_nonzero(stop):
            done.append((live[stop], centroids[stop], bounds[stop]))
            going = ~stop
            live, centroids, bounds = live[going], centroids[going], bounds[going]
            if not live.size:
                return done
            tables.keep(going)
            sse.keep(going)
        totals = sse.totals
    done.append((live, centroids, bounds))
    return done


@dataclass(frozen=True, eq=False)
class ConvParams:
    """Parameters of one convolution layer as stored in a weights file.

    There is one bias per filter, and so one of each batch-norm statistic;
    the kernel holds a whole number of filters.
    """

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
        filters = self.biases.size
        if any(a is not None and a.size != filters for a in bn_fields):
            raise ValueError(f"batch-norm arrays must hold {filters} values, one per bias")
        if self.kernel.size % filters if filters else self.kernel.size:
            raise ValueError(
                f"kernel of {self.kernel.size} weights is no whole number of {filters} filters"
            )

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
    """Contents of a Darknet .weights file: header plus per-conv parameters,
    at most one set per layer."""

    major: int
    minor: int
    revision: int
    seen: int
    convs: tuple[ConvParams, ...]

    def __post_init__(self):
        layers = set()
        for conv in self.convs:
            if conv.layer_index in layers:
                raise ValueError(f"two parameter sets for conv layer {conv.layer_index}")
            layers.add(conv.layer_index)

    def conv_for_layer(self, layer_index: int) -> ConvParams:
        try:
            return self._by_layer[layer_index]
        except KeyError:
            raise KeyError(f"no conv parameters for layer {layer_index}") from None

    @cached_property
    def _by_layer(self) -> dict[int, ConvParams]:
        return {conv.layer_index: conv for conv in self.convs}


class _Cursor:
    def __init__(self, data: bytes, error):
        self.data = data
        self.offset = 0
        self.error = error

    def _skip(self, n: int, what: str) -> int:
        """Move past the next n bytes and return where they start."""
        if self.offset + n > len(self.data):
            raise self.error(
                f"truncated file: needed {n} bytes for {what} at offset {self.offset}, "
                f"{len(self.data) - self.offset} available"
            )
        self.offset += n
        return self.offset - n

    def take(self, n: int, what: str) -> bytes:
        start = self._skip(n, what)
        return self.data[start : start + n]

    def _fields(self, dtype: str, count: int, what: str) -> np.ndarray:
        """The next count 4-byte fields, read in place from the data."""
        start = self._skip(4 * count, what)
        return np.frombuffer(self.data, dtype=dtype, count=count, offset=start)

    def f32(self, count: int, what: str) -> np.ndarray:
        return self._fields("<f4", count, what).astype(np.float32)

    def u32(self, count: int, what: str) -> np.ndarray:
        return self._fields("<u4", count, what).astype(np.uint32)


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
    cur = _Cursor(data, WeightsFormatError)
    major, minor, revision = struct.unpack("<3i", cur.take(12, "header"))
    seen_format = _seen_format(major, minor)
    (seen,) = struct.unpack(
        seen_format, cur.take(struct.calcsize(seen_format), "seen counter")
    )
    convs = []
    for layer in net.layers:
        if layer.kind != CONVOLUTIONAL:
            continue
        spec = layer.conv
        f = spec.filters
        where = f"layer {layer.index} "
        biases = cur.f32(f, where + "biases")
        scales = mean = var = None
        if spec.batch_normalize:
            scales = cur.f32(f, where + "scales")
            mean = cur.f32(f, where + "rolling mean")
            var = cur.f32(f, where + "rolling variance")
        kernel = cur.f32(math.prod(layer.kernel_shape), where + "kernel")
        convs.append(
            ConvParams(
                layer_index=layer.index,
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


def fold_batch_norm(weights: DarknetWeights) -> DarknetWeights:
    """Fold batch-norm statistics into kernels and biases.

    y = scale*(conv - mean)/sqrt(var + eps) + bias becomes a plain conv with
    kernel' = kernel*scale/sqrt(var+eps) and bias' = bias - scale*mean/sqrt(var+eps),
    eps being BN_EPS.
    """
    folded = []
    for conv in weights.convs:
        if not conv.batch_normalized:
            folded.append(conv)
            continue
        f = conv.biases.size
        factor = conv.scales.astype(np.float64) / np.sqrt(
            conv.rolling_var.astype(np.float64) + BN_EPS
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


def dequantize(model: ClusteredModel, weights: DarknetWeights) -> DarknetWeights:
    """weights with each conv kernel rebuilt as centroids[index] over the
    conv's own span of its table's stream. ClusterEntry holds every index in
    range of its table."""
    kernels = {
        conv.layer_index: entry.table.centroids[
            unpack_indices(entry.packed, base, conv.n_weights)
        ]
        for entry, layers in model.spans(weights)
        for conv, base in layers
    }
    return replace(
        weights,
        convs=tuple(replace(c, kernel=kernels[c.layer_index]) for c in weights.convs),
    )


def cluster_model(weights: DarknetWeights, cfg: ClusterConfig) -> ClusteredModel:
    """Quantize all conv kernels into codebooks per the configured scope.

    Both scopes make one kmeans_1d call on the kernels end to end. The
    per-layer one passes each conv's length, so each conv's table is
    bitwise what a call on its kernel alone gives, and the convs of at most
    _DENSE weights run their sweeps in lockstep, in batches of at most
    _BATCH weights; each table's span of the assignments is packed on its
    own.
    """
    if not weights.convs:
        raise ValueError("weights hold no conv layers to cluster")
    stream = np.concatenate([conv.kernel.reshape(-1) for conv in weights.convs])
    if cfg.scope == SCOPE_ALL_LAYERS:
        table, assignments = kmeans_1d(stream, cfg.k, cfg)
        entries = (
            ClusterEntry(None, table, pack_indices(assignments, cfg.bits)),
        )
    else:
        sizes = [conv.n_weights for conv in weights.convs]
        tables, assignments = kmeans_1d(stream, cfg.k, cfg, lengths=sizes)
        edges = np.cumsum([0] + sizes).tolist()
        entries = tuple(
            ClusterEntry(conv.layer_index, table, pack_indices(assignments[lo:hi], cfg.bits))
            for conv, table, lo, hi in zip(weights.convs, tables, edges, edges[1:])
        )
    return ClusteredModel(scope=cfg.scope, bits=cfg.bits, entries=entries)


# model_sse decodes this many indexes of a stream at a time; a block's
# decoded indexes and centroids take about 8 bytes per index
_SSE_BLOCK = 1 << 15


def model_sse(model: ClusteredModel, weights: DarknetWeights) -> list[float]:
    """Per-table SSE of the model's reconstruction against the kernels of
    weights.

    A table's kernels are copied into one float64 array in stream order, 8
    bytes per weight, and centroids[index] is subtracted in place one block
    of the stream at a time, across conv boundaries. The subtraction is
    elementwise, so the difference is bitwise the one against dequantize's
    kernels, and no fp32 copy of the kernels is made.
    einsum sums in one thread, unlike a BLAS dot, whose rounding depends on
    its thread count and so on the host.
    """
    sses = []
    for entry, layers in model.spans(weights):
        d = np.concatenate([conv.kernel for conv, _ in layers], dtype=np.float64)
        for lo in range(0, d.size, _SSE_BLOCK):
            n = min(_SSE_BLOCK, d.size - lo)
            d[lo : lo + n] -= entry.table.centroids[unpack_indices(entry.packed, lo, n)]
        sses.append(float(np.einsum("i,i->", d, d)))
    return sses


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
    Each table is checked where it is built: CentroidTable, PackedIndices
    and ClusterEntry raise the ValueError that is reported for it.
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
        centroids = cur.f32(k, what + "centroids")
        (count,) = struct.unpack("<Q", cur.take(8, what + "index count"))
        words = cur.u32(-(-count // indexes_per_word(bits)), what + "packed indexes")
        try:
            entries.append(
                ClusterEntry(
                    None if layer_id == GLOBAL_TABLE_ID else int(layer_id),
                    CentroidTable(centroids),
                    PackedIndices(bits=bits, count=count, words=words),
                )
            )
        except ValueError as exc:
            raise ClusterFormatError(f"table {t}: {exc}") from exc
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

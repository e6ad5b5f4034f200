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
import numbers
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
        _check_integers(self, "bits", "max_iters", "seed")
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


def _check_integers(obj, *names: str) -> None:
    """Raise ValueError unless each named field of obj is an integer."""
    for name in names:
        value = getattr(obj, name)
        if not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")


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
    bits stay zero. indices must have an integer dtype, unless it is empty:
    any other raises TypeError, as gemm_nn_centroids does. An index outside
    0..2**bits - 1 raises ValueError.
    """
    per_word = indexes_per_word(bits)
    idx = np.asarray(indices)
    if idx.ndim != 1:
        raise ValueError("indices must be 1-D")
    if idx.size and idx.dtype.kind not in "iu":
        raise TypeError(f"indexes must be integers, got dtype {idx.dtype}")
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


# A batch of at most _BATCH values in all keeps its tables' exact prefix sums
# at every value, 16 B per value; a larger table runs alone and keeps them at
# every _STEP-th value, 2 B per value: on a small table, the block correction
# of a sweep's k + 1 bounds costs more than reading them off a whole prefix.
# Prefixes are built _CHUNK values at a time, which bounds their temporaries
# at about 32 B per value of a chunk. A batch holds its sorted copy,
# positions and prefixes, 28 B per value and so at most 3.5 MB, besides its
# sweeps' (tables, k) arrays and 24 B per value off level 0
_STEP = 8
_BATCH = 1 << 17
_OFFSETS = np.arange(_STEP)[:, None]
_CHUNK = 1 << 14
_LOW = (1 << 31) - 1
_LEVEL = 38  # bits between the levels' grids
# totals' place values of t and u, from those of hi and lo
_WIDER = np.array([[[2.0**21]], [[1.0]]])


def _square_sums(part: np.ndarray, cuts) -> list[int]:
    """Σ part**2 over each run of part from one of cuts to the next (the
    last to the end), exactly, as Python ints. part is overwritten.

    part holds float32 values scaled onto their level's grid: integers
    below 2**62 in magnitude with at most 24 significant bits. So each
    square is exact in float64, and splits exactly into parts below 2**42
    at bits 42 and 84, whose int64 sums over at most _CHUNK values stay
    below 2**56.
    """
    q = np.square(part, out=part)
    top = np.floor(q * 2.0**-84)
    q -= top * 2.0**84
    mid = np.floor(q * 2.0**-42)
    q -= mid * 2.0**42
    sums = [np.add.reduceat(x.astype(np.int64), cuts).tolist() for x in (q, mid, top)]
    return [a + (b << 42) + (c << 84) for a, b, c in zip(*sums)]


def _rounded(num: int, exp: int) -> float:
    """num * 2**exp rounded once to float64; 0 gives +0.0."""
    return float(num << exp) if exp >= 0 else num / (1 << -exp)


class _SegmentSums:
    """math.fsum of the runs between bounds of a lockstep batch's sorted
    tables, bit for bit, and the exact sums that the SSE check reads.

    svals holds the tables' sorted values end to end, table t's sizes[t]
    from column starts[t] (_sorted); rows index the tables that iterate,
    one row each, and views holds their values. keep drops the rows of
    tables that stop.

    The values are float32 ones held in float64: each is a whole multiple
    of 2**-149 and below 2**128 in magnitude. So no sum or square of them,
    exact or rounded, leaves the float64 range, and a nonzero one is at
    least 2**-298 in magnitude: far from both ends of it, so nothing here
    overflows or underflows.

    The levels: a table's level 0 is the grid 2**e, e the frexp exponent p
    of its largest magnitude less 62, and holds each value m * 2**e with m
    an integer, |m| < 2**62. Any other value, of frexp exponent x, is such
    an m on the grid 2**(e - 38 * l) of level l = (p - x) // 38 >= 1 (38 is
    62 less float32's 24 significant bits); float32 spans 2**128 to
    2**-149, so l <= 7. levels lists each row's, units its finest's 2**.

    The sums: m is hi * 2**31 + lo, 0 <= lo < 2**31. prefix holds the
    level-0 sums of hi (row 0) and lo (row 1) over svals's first values,
    exact in int64 (a batch holds fewer than 2**32 values); finer holds,
    for each finer level of the batch, the columns of svals on it and the
    sums of their limbs before each. A run's sum on a level is the
    difference of its sums at the run's bounds, which lie in one table.
    totals rounds the level-0 sums of every row at once, each in its own
    units (places: 2**(e + 31) and 2**e), and what exact gives for the
    tables on more than one level. Each is the exact sum rounded once,
    fsum's, and +0.0 where it is zero, as fsum gives. exact adds a row's
    levels on its finest one's grid in O(k * levels), and squares holds
    each row's Σx², summed in the pass: Python ints in units of
    2**units[row] and 2**(2 * units[row]).

    The layout: column j of prefix holds the sums over svals[:j * step].
    A batch of at most _BATCH values has step 1, so row r's bound b is
    column columns[r] + b, and one take reads a sweep's bounds of every
    table. A larger table (step _STEP) runs alone; a bound's sum adds the
    at most _STEP - 1 level-0 values past its column, and lo's carries move
    into hi (see totals). Both form the same integers, so the layout never
    shows. One pass over svals builds every table's sums: it scales each
    table's run of a chunk by its 2**-e, puts each value on its level,
    writes the limbs and sums the squares, and one cumsum over the batch
    then gives the prefix.
    """

    def __init__(self, svals: np.ndarray, starts: np.ndarray, sizes: np.ndarray, rows):
        self.svals = svals
        size = svals.size
        self.step = 1 if size <= _BATCH else _STEP
        e = np.frexp(np.maximum(-svals[starts], svals[starts + sizes - 1]))[1] - 62
        scale = np.ldexp(1.0, -e)
        # runs of one table within one chunk
        cuts = np.zeros(size, dtype=bool)
        cuts[starts] = cuts[::_CHUNK] = True
        cuts = np.flatnonzero(cuts)
        owner = np.searchsorted(starts, cuts, side="right") - 1
        lengths = np.diff(cuts, append=size)
        chunks = np.searchsorted(cuts, range(0, size + _CHUNK, _CHUNK)).tolist()
        # by level, each run's sum of squares and, past level 0, the columns
        # and integers of its values
        squares, finer = {0: [0] * cuts.size}, {}
        prefix = np.zeros((2, (size if self.step == 1 else size // _STEP) + 1), dtype=np.int64)
        for a, i, j in zip(range(0, size, _CHUNK), chunks, chunks[1:]):
            runs = cuts[i:j] - a
            # scaling a float32 value by 2**-e neither overflows nor
            # underflows, so it is exact: the value lies on level 0 where
            # its part is an integer, m
            part = np.repeat(scale[owner[i:j]], lengths[i:j])
            part *= svals[a : a + _CHUNK]
            m = part.astype(np.int64)
            stray = m != part
            if np.count_nonzero(stray):
                # a part of level l times 2**(38 * l) is its integer on that
                # level, below 2**62 and nonzero: at least 2**-215, so exact
                levels = np.where(stray, (62 - np.frexp(part)[1]) // _LEVEL, 0)
                np.ldexp(part, _LEVEL * levels, out=part)
                for level in np.unique(levels[stray]).tolist():
                    on = levels == level
                    finer.setdefault(level, []).append((a + np.flatnonzero(on), part[on]))
                    squares.setdefault(level, [0] * cuts.size)[i:j] = _square_sums(part * on, runs)
                m *= ~stray
                part *= ~stray
            if self.step == 1:
                np.right_shift(m, 31, out=prefix[0, a + 1 : a + 1 + m.size])
                np.bitwise_and(m, _LOW, out=prefix[1, a + 1 : a + 1 + m.size])
            else:
                # einsum sums the short rows several times faster than sum
                m = m[: m.size - m.size % _STEP].reshape(-1, _STEP)
                at = a // _STEP + 1
                np.einsum("ij->i", m >> 31, out=prefix[0, at : at + len(m)])
                np.einsum("ij->i", m & _LOW, out=prefix[1, at : at + len(m)])
            del m  # _square_sums' parts take its place
            squares[0][i:j] = _square_sums(part, runs)
        np.cumsum(prefix, axis=1, out=prefix)
        if self.step != 1:
            prefix[0] += prefix[1] >> 31
            prefix[1] &= _LOW
        self.prefix, self.finer = prefix, {}
        for level, parts in finer.items():
            at, m = (np.concatenate(arrays) for arrays in zip(*parts))
            m, sums = m.astype(np.int64), np.zeros((2, m.size + 1), dtype=np.int64)
            np.cumsum((m >> 31, m & _LOW), axis=1, out=sums[:, 1:])
            self.finer[level] = at, sums
        edges = np.searchsorted(cuts, starts).tolist() + [cuts.size]
        rows = rows.tolist()
        self.views = [svals[starts[r] : starts[r] + sizes[r]] for r in rows]
        self.levels, self.units, self.squares = [], [], []
        for r in rows:
            # a finer level that holds a value of the table holds a square
            sums = {level: sum(runs[edges[r] : edges[r + 1]]) for level, runs in squares.items()}
            levels = sorted(level for level, q in sums.items() if q or not level)
            self.levels.append(levels)
            self.units.append(int(e[r]) - _LEVEL * levels[-1])
            self.squares.append(sum(sums[level] << 2 * _LEVEL * (levels[-1] - level)
                                    for level in levels))
        self.columns, self.scale = starts[rows, None], scale[0]
        grid = np.ldexp(1.0, e[rows])[:, None]
        self.places = np.stack((grid * 2.0**31, grid))
        self.square_sum = np.array([_rounded(q, 2 * unit)
                                    for q, unit in zip(self.squares, self.units)])

    def keep(self, rows: np.ndarray) -> None:
        """Keep the tables that the boolean mask rows selects."""
        kept = np.flatnonzero(rows).tolist()
        self.views = [self.views[r] for r in kept]
        self.levels = [self.levels[r] for r in kept]
        self.units = [self.units[r] for r in kept]
        self.squares = [self.squares[r] for r in kept]
        self.columns, self.places = self.columns[rows], self.places[:, rows]
        self.square_sum = self.square_sum[rows]

    def _limbs(self, bounds: np.ndarray, columns: np.ndarray, level: int = 0) -> np.ndarray:
        """Rows hi and lo of each run between bounds on level, one row of
        bounds per table of columns: its exact sum over the level's grid is
        hi * 2**31 + lo."""
        if level:
            at, sums = self.finer[level]
            limbs = sums.take(at.searchsorted(bounds + columns, side="left"), axis=1)
        elif self.step == 1:
            limbs = self.prefix.take(bounds + columns, axis=1)
        else:
            # one table, so a bound is its end in svals
            ends = bounds[0]
            column, r = np.divmod(ends, _STEP)
            # column i holds end i's level-0 values below it in its block
            part = self.svals.take(_OFFSETS + (ends - r), mode="clip") * self.scale
            m = part.astype(np.int64)
            m *= (_OFFSETS < r) & (m == part)
            limbs = self.prefix.take(column, axis=1) + np.add.reduce(np.divmod(m, 1 << 31), axis=1)
            limbs = limbs[:, None]
        return limbs[..., 1:] - limbs[..., :-1]

    def totals(self, bounds: np.ndarray) -> np.ndarray:
        """math.fsum(views[r][bounds[r, i]:bounds[r, i + 1]]) for each row r
        and segment i.

        The dense layout sums at most _BATCH values' hi, each at most 2**31
        in magnitude, and lo, below 2**31: both stay below 2**53 while
        _BATCH is at most 2**22, and so does any difference of two prefix
        columns within a table. The blocked layout moves lo's carries into
        hi, so |lo| < 2**35, and hi sums fewer than 2**32 values and carries.
        """
        limbs, places = self._limbs(bounds, self.columns), self.places
        if self.step != 1:
            # the exact sum over 2**e is t * 2**52 + u with |t| < 2**42 and
            # |u| < 2**53
            hi, lo = limbs
            limbs = np.stack((hi >> 21, ((hi & (1 << 21) - 1) << 31) + lo))
            places = places * _WIDER
        # each limb times its place is an exact float64, so the one addition,
        # the reduce over the two, rounds each row's level-0 sums
        totals = np.add.reduce(limbs * places, axis=0)
        for row, (levels, unit) in enumerate(zip(self.levels, self.units)):
            if len(levels) > 1:
                totals[row] = [_rounded(s, unit) for s in self.exact(row, bounds[row])]
        return totals

    def exact(self, row: int, bounds: np.ndarray) -> list[int]:
        """The exact sum of each run of row between bounds, in units of
        2**units[row]."""
        levels, sums = self.levels[row], [0] * (bounds.size - 1)
        for level in levels:
            hi, lo = self._limbs(bounds[None], self.columns[row], level)[:, 0].tolist()
            shift = _LEVEL * (levels[-1] - level)
            sums = [s + (((h << 31) + l) << shift) for s, h, l in zip(sums, hi, lo)]
        return sums


def _segment_means(totals: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Mean of each segment, its sum in totals (_SegmentSums.totals, so
    math.fsum) over its length; NaN if empty, as an empty sum is 0.0: the
    caller holds np.errstate for that 0/0. The last axis runs over one
    table's segments, row by row.

    fsum keeps the mean exactly rounded, pinning results across platforms
    regardless of summation order optimizations.
    """
    return totals / (bounds[..., 1:] - bounds[..., :-1])


def _farthest(dist: np.ndarray, e: int, bounds: np.ndarray) -> np.ndarray:
    """Indexes of the e largest distances, ties going to the lowest index.

    These are the picks of e rounds of argmax that each retire their pick,
    found in O(n). They come in index order, not pick order; the centroids
    are sorted next, so that order never shows.

    dist holds sorted values' distances to their segments' centroids, the
    segments lying between bounds: along a segment the distance falls, then
    rises (rounding keeps that order), so its e largest lie among its first
    e and its last e. The e-th largest of those candidates is therefore the
    e-th largest of all; where they are few, it is found without a copy of
    dist.
    """
    lo, hi = bounds[:-1], bounds[1:]
    candidates = dist
    if 2 * e * lo.size < dist.size:
        # each segment's first e values, then those of its last e past them
        starts = np.concatenate((lo, np.maximum(hi - e, lo + e)))
        lengths = np.maximum(np.concatenate((np.minimum(lo + e, hi), hi)) - starts, 0)
        ends = np.cumsum(lengths)
        candidates = dist[np.repeat(starts + lengths - ends, lengths) + np.arange(ends[-1])]
    threshold = np.partition(candidates, candidates.size - e)[candidates.size - e]
    above = np.flatnonzero(dist > threshold)
    tied = np.flatnonzero(dist == threshold)[: e - above.size]
    return np.concatenate((above, tied))


# the unit roundoff of float64, and the signs of the bracket's ends
_EPS = 2.0**-53
_SIGNS = np.array([[-1.0], [1.0]])
_TWICE, _OUTWARD = 2.0 * _SIGNS, _SIGNS * np.inf


def _sse_bracket(square_sum, centroids, bounds, totals):
    """Floats lo <= hi around the SSE of centroids over bounds, as _sweeps
    checks it, one of each per table: centroids, bounds and totals hold one
    row per table, and square_sum each table's Σx²,
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
    terms = np.empty((3, *centroids.shape))
    np.multiply(centroids, totals, out=terms[0])
    np.abs(terms[0], out=terms[1])
    np.multiply(centroids, centroids, out=terms[2])
    terms[2] *= bounds[:, 1:] - bounds[:, :-1]
    sums = np.add.reduce(terms, axis=2)
    # Σx² + (Σ n·c² - 2 Σ c·S), the estimate, and Σx² + (Σ n·c² + 2 Σ |c·S|)
    sums[:2] *= _TWICE
    parts = sums[2] + sums[:2]
    parts += square_sum
    # the error, then the estimate less and plus it, each rounded outward
    m = 2 * centroids.shape[1] + 16
    parts[1] *= m * _EPS / (1.0 - m * _EPS)
    return np.nextafter(parts[0] + parts[1] * _SIGNS, _OUTWARD)


def _exact_sse(sums: _SegmentSums, row: int, centroids, bounds) -> float:
    """The SSE of row's centroids over its bounds as _sweeps checks it,
    formed from sums' exact integers and each centroid's
    as_integer_ratio."""
    unit = sums.units[row]
    counts = bounds[1:] - bounds[:-1]
    held = counts > 0
    ratios = [c.as_integer_ratio() for c in centroids[held].tolist()]
    # everything in units of 2**fine, the finer of the sums' unit and the
    # centroids' lowest bits; the SSE in units of 2**(2 * fine)
    fine = min([unit] + [1 - den.bit_length() for _, den in ratios])
    shift = unit - fine
    total = sums.squares[row] << (2 * shift)
    held_sums = (s for s, h in zip(sums.exact(row, bounds), held.tolist()) if h)
    for (num, den), sj, nj in zip(ratios, held_sums, counts[held].tolist()):
        cj = num << (1 - fine - den.bit_length())
        total += cj * (nj * cj - (sj << (shift + 1)))
    return _rounded(total, 2 * fine)


def _increased(sums: _SegmentSums, now: tuple, before: tuple, steady, live) -> bool:
    """Whether the "SSE increased" test, sse > prev_sse * (1.0 + 1e-9),
    holds on the exact SSEs of some row that steady selects (every row when
    None).

    now and before are the states (centroids, bounds, lo, hi, exact) of a
    sweep and of the one before it, on the same rows, whose tables live
    numbers. The SSE is the exact Σ (x - c)**2 over the values of every
    non-empty segment of a row's table, rounded once to float64; lo and hi
    bracket each row's (_sse_bracket), and exact holds the SSEs formed so
    far, by table (_exact_sse, in O(k * levels)). The test reads them only
    where the brackets leave it open, and forms each once.
    """
    # the rows that may have increased; above them, those that did
    maybe = now[3] > before[2] * (1.0 + 1e-9)
    if steady is not None:
        maybe &= steady
    if not np.count_nonzero(maybe):
        return False
    if np.count_nonzero(maybe & (now[2] > before[3] * (1.0 + 1e-9))):
        return True
    for row in np.flatnonzero(maybe).tolist():
        table = live[row]
        for centroids, bounds, _, _, exact in (now, before):
            if table not in exact:
                exact[table] = _exact_sse(sums, row, centroids[row], bounds[row])
        if now[4][table] > before[4][table] * (1.0 + 1e-9):
            return True
    return False


def kmeans_1d(values, k: int, cfg: ClusterConfig | None = None, lengths=None):
    """Lloyd's algorithm in one dimension, on float32 values.

    values are taken as float32, as ConvParams holds kernels: wider ones are
    rounded to float32 first, and any that is not finite as float32 (nan,
    ±inf, or beyond ±3.4e38) raises ValueError. The sweeps then run in
    float64, where nothing that float32 values give can overflow or
    underflow (see _SegmentSums and _sse_bracket). k must be an integer, a
    numpy one too, and at least 1: a float or a bool raises TypeError before
    any work is done.

    Returns (CentroidTable, assignments) with centroids sorted ascending and
    assignments indexing them in the original value order. When the data has
    no more than k distinct values the quantization is exact (SSE 0), with
    surplus table slots repeating the largest value; of -0.0 and 0.0, the
    first one in the input stands for both.

    lengths, when given, splits values into consecutive tables of those
    lengths, each clustered on its own: the call returns (list of
    CentroidTable, assignments), each table's assignments in its own span.
    Each table's centroids and assignments are bitwise those of a call on
    that table alone. Tables run in lockstep, in batches of consecutive
    tables that hold at most _BATCH values in all (_batches): one sweep of a
    batch makes one set of numpy calls on (tables, k) arrays, where a table
    alone would make the same set on k-element ones. A larger table runs
    alone. A table holds fewer than 2**32 values.

    Results are bitwise those of a Lloyd that stable-sorts the values and
    recomputes every segment each sweep, by these invariants:

    - The sorted values and each one's position are bitwise a stable
      sort's: one np.sort of unique packed keys (table, float32 order bits,
      position) orders each batch, ties by position (_sorted). Zeros of
      both signs share one key, so their positions order them. No order
      depends on numpy's sort algorithm or its SIMD level.
    - A segment's mean is math.fsum of its values over their count, bit for
      bit: their exact sum rounded once. Each value lies on one of at most 8
      integer grids m * 2**e, |m| < 2**62, its table's levels, each with
      exact int64 prefix sums that one pass builds for a batch
      (_SegmentSums): at every value up to _BATCH values, where one take
      reads a sweep's bounds of every table, and at every _STEP-th value
      above, where a bound adds the values past its column. A sweep reads
      the k sums of the tables on one level in O(k) numpy work, and adds
      those of a table on more in O(k * levels).
    - The "SSE increased" check compares the exact Σ(x - c)² over the
      non-empty segments, rounded once to float64. A sweep evaluates
      Σx² - 2 Σ c·S + Σ n·c² in O(k) float work, from the sum of squares
      taken once per table and the segment sums S that the next sweep's
      means divide, and brackets the SSE with a rigorous error bound. Only
      where the brackets of two sweeps leave the check open are their SSEs
      formed exactly, from exact integer sums, in O(k * levels)
      (_increased). So a sweep that does not reseed does no O(n) work.
    - A sweep that did not reseed and left every bound where it was is a
      fixed point: the next sweep would compute the same means, move no
      centroid and stop. The loop stops there instead.
    - In a batch, each row of a sweep's arrays is one table, and every step
      acts on a row as it would on the table alone: elementwise arithmetic,
      np.sort along the row (the 1-D sort of each row), and max and the
      SSE bracket's sums along it (the bracket bounds any summation order).
      Bounds, reseeds and exact SSEs run table by table, and each table
      stops on its own tests (tol, fixed point) and leaves the batch.
    """
    if isinstance(k, bool) or not isinstance(k, numbers.Integral):
        raise TypeError(f"k must be an integer, got {k!r}")
    if k < 1:
        raise ValueError("k must be >= 1")
    cfg = cfg or ClusterConfig()
    # past the float32 range the cast gives ±inf, rejected below
    with np.errstate(over="ignore"):
        vals = np.asarray(values, dtype=np.float32).reshape(-1)
    if vals.size == 0:
        raise ValueError("values must be non-empty")
    if not np.all(np.isfinite(vals)):
        raise ValueError("values must be finite")
    sizes = [vals.size] if lengths is None else [operator.index(n) for n in lengths]
    if sum(sizes) != vals.size:
        raise ValueError(f"lengths add up to {sum(sizes)}, not to the {vals.size} values")
    if min(sizes) < 1:
        raise ValueError("values must be non-empty")
    if max(sizes) >> 32:
        raise ValueError("a table must hold fewer than 2**32 values")

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
    lockstep batch: at most _BATCH values in all, or one larger table alone,
    and few enough tables and values that a table number and a position
    (below the batch's size) fit the 32 low bits of a sort key
    (_sorted)."""
    batch, total = [], 0
    for n in sizes:
        if batch and (total + n > _BATCH
                      or len(batch).bit_length() + (total + n).bit_length() > 32):
            yield batch
            batch, total = [], 0
        batch.append(n)
        total += n
    yield batch


def _sorted(vals: np.ndarray, sizes: list[int]):
    """Each table of a batch sorted stably, by one np.sort of packed keys.

    vals holds the batch's float32 tables end to end. A value's uint64 key
    holds, from the top bit down, its table's number, its float32 bits made
    to order as unsigned integers (~u where the sign bit is set, else
    u | 2**31), and its position in vals. Keys are unique, so the sorted
    order, ties included, does not depend on numpy's sort algorithm.

    Returns svals, the float64 values in that order, which holds the sorted
    tables end to end, and positions, each one's position in vals, uint32.
    -0.0 takes the key bits of 0.0, so a table's zeros sort by position, as
    a stable sort leaves them, and then take back their signs from vals.
    """
    n, count = vals.size, len(sizes)
    shift = n.bit_length()
    tags = np.arange(count, dtype=np.uint64) << (shift + 32)
    # -0.0 + 0.0 is 0.0, and every other value is itself
    bits = (vals + np.float32(0.0)).view(np.uint32)
    keys = ((bits.view(np.int32) >> 31).view(np.uint32) | 1 << 31).astype(np.uint64)
    keys ^= bits
    keys <<= shift
    keys |= np.arange(n, dtype=np.uint64)
    if count > 1:
        keys |= np.repeat(tags, sizes)
    keys.sort()
    positions = keys.astype(np.uint32) & (1 << shift) - 1
    keys >>= shift
    bits = keys.astype(np.uint32)
    del keys
    bits ^= (bits >> 31) - 1 | 1 << 31
    svals = bits.view(np.float32).astype(np.float64)
    zeros = svals == 0
    svals[zeros] = vals[positions[zeros]]
    return svals, positions


def _lloyd(vals: np.ndarray, sizes: list[int], k: int,
           cfg: ClusterConfig) -> tuple[np.ndarray, np.ndarray]:
    """kmeans_1d on one batch: vals holds its tables end to end, sizes their
    lengths. Returns the float64 centroids, one row per table, and each
    value's assignment."""
    svals, positions = _sorted(vals, sizes)
    starts = np.cumsum([0] + sizes[:-1])
    sizes = np.array(sizes)
    # each value that differs from its sorted predecessor starts a new
    # distinct one, and so does each table's first
    first = np.empty(svals.size, dtype=bool)
    np.not_equal(svals[1:], svals[:-1], out=first[1:])
    first[starts] = True
    distinct = np.add.reduceat(first, starts)
    done = []  # (rows, centroids, bounds) of tables
    rows = np.flatnonzero(distinct <= k)
    if rows.size:
        # each distinct value is a centroid, the largest also in the
        # surplus entries, which hold no value
        count, entry = distinct[rows, None], np.arange(k + 1)
        at = (np.cumsum(distinct) - distinct)[rows, None] + np.minimum(entry, count - 1)
        at = np.flatnonzero(first)[at]
        done.append((rows, svals[at[:, :k]],
                     np.where(entry < count, at - starts[rows, None], sizes[rows, None])))
    del first
    rows = np.flatnonzero(distinct > k)
    if rows.size:
        sums = _SegmentSums(svals, starts, sizes, rows)
        done += [(rows[swept], *result) for swept, *result in _sweeps(sums, k, cfg)]
        del sums
    del svals
    centroids = np.empty((sizes.size, k))
    bounds = np.empty((sizes.size, k + 1), dtype=np.int64)
    for rows, row_centroids, row_bounds in done:
        centroids[rows], bounds[rows] = row_centroids, row_bounds
    # in sorted order, each table's segments' indexes
    labels = np.tile(np.arange(k, dtype=np.uint32), sizes.size)
    assignments = np.empty(vals.size, dtype=np.uint32)
    # numpy scatters through intp indexes faster than it converts uint32 ones
    assignments[positions.astype(np.intp)] = np.repeat(labels, np.diff(bounds).reshape(-1))
    return centroids, assignments


def _sweeps(tables: _SegmentSums, k: int, cfg: ClusterConfig) -> list:
    """Lloyd's sweeps in lockstep over the rows of tables, each a table of
    more than k distinct values: (rows, centroids, bounds) of the tables as
    they stop, rows indexing them."""
    done = []  # (rows, centroids, bounds) of the tables as they stop
    live = np.arange(len(tables.views))
    centroids = _init_centroids(tables.views, k, cfg)
    bounds = _segment_bounds(tables.views, centroids)
    totals = tables.totals(bounds)
    state = None  # (centroids, bounds, lo, hi, exact) of the last sweep
    # the mean of an empty segment is 0/0, NaN, which marks it for a reseed
    with np.errstate(invalid="ignore", divide="ignore"):
        for _ in range(cfg.max_iters):
            means = _segment_means(totals, bounds)
            empty = np.isnan(means)
            steady = None  # the rows that did not reseed, or None for all
            if np.count_nonzero(empty):
                reseeded = empty.any(axis=1)
                steady = ~reseeded
                for row in np.flatnonzero(reseeded).tolist():
                    svals, gaps = tables.views[row], empty[row]
                    dist = np.repeat(means[row], np.diff(bounds[row]))
                    np.abs(np.subtract(svals, dist, out=dist), out=dist)
                    means[row, gaps] = svals[_farthest(dist, np.count_nonzero(gaps), bounds[row])]
                    del dist
            means.sort(axis=1)
            # no centroid moved more than tol
            still = np.maximum.reduce(np.abs(means - centroids), axis=1) <= cfg.tol
            new_bounds = _segment_bounds(tables.views, means)
            totals = tables.totals(new_bounds)
            new_state = (means, new_bounds,
                         *_sse_bracket(tables.square_sum, means, new_bounds, totals), {})
            if state is not None and _increased(tables, new_state, state, steady, live):
                raise RuntimeError("k-means SSE increased")
            stop = still | np.logical_and.reduce(new_bounds == bounds, axis=1)
            if steady is not None:
                stop &= steady
            centroids, bounds, state = means, new_bounds, new_state
            if np.count_nonzero(stop):
                done.append((live[stop], centroids[stop], bounds[stop]))
                going = ~stop
                live, totals = live[going], totals[going]
                if not live.size:
                    return done
                tables.keep(going)
                state = (*(part[going] for part in state[:4]), state[4])
                centroids, bounds = state[:2]
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

    Both scopes make one kmeans_1d call on the kernels end to end, with
    the lengths of their tables: the global one the whole stream, the
    per-layer one each conv's, so that each conv's table is bitwise what a
    call on its kernel alone gives, and the convs run their sweeps in
    lockstep, in batches of at most _BATCH weights (a larger conv alone).
    Each table's span of the assignments is packed on its own.
    """
    if not weights.convs:
        raise ValueError("weights hold no conv layers to cluster")
    stream = np.concatenate([conv.kernel.reshape(-1) for conv in weights.convs])
    if cfg.scope == SCOPE_ALL_LAYERS:
        ids, sizes = [None], [stream.size]
    else:
        ids = [conv.layer_index for conv in weights.convs]
        sizes = [conv.n_weights for conv in weights.convs]
    tables, assignments = kmeans_1d(stream, cfg.k, cfg, lengths=sizes)
    edges = np.cumsum([0] + sizes).tolist()
    entries = tuple(
        ClusterEntry(layer_id, table, pack_indices(assignments[lo:hi], cfg.bits))
        for layer_id, table, lo, hi in zip(ids, tables, edges, edges[1:])
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

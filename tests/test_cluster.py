"""Weight clustering, bit packing and the binary file formats."""

import math
import os
import struct
import subprocess
import sys
import tracemalloc
import warnings
import zlib
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from convwatt import cluster
from convwatt.cluster import (
    INITS,
    CentroidTable,
    ClusterConfig,
    ClusterEntry,
    ClusteredModel,
    ClusterFormatError,
    ConvParams,
    DarknetWeights,
    PackedIndices,
    WeightsFormatError,
    cluster_model,
    dequantize,
    fold_batch_norm,
    kmeans_1d,
    model_sse,
    pack_indices,
    read_clustered,
    read_darknet_weights,
    unpack_indices,
    write_clustered,
    write_darknet_weights,
)
from convwatt.engine import run_network
from convwatt.netdef import parse_config

from conftest import weights_blob
from oracles import lloyd_1d_reference, optimal_kmeans_sse, pack_indices_reference


def residual_sse(values, table: CentroidTable, assignments) -> float:
    """Sum of squared quantization residuals, accumulated in float64."""
    d = np.asarray(values, dtype=np.float64) - table.centroids.astype(np.float64)[
        np.asarray(assignments)
    ]
    return float(np.dot(d, d))


def recrc(data: bytes) -> bytes:
    """Recompute the trailing CRC32 after patching container bytes."""
    body = data[:-4]
    return body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)


# The Lloyd and segment-sum properties call kmeans_1d or the fsum oracle on
# up to 1,500 values per example, so shrinking a failure could run for over
# 5 minutes. They generate the same examples but report the first failing
# one as found.
UNSHRUNK = tuple(phase for phase in Phase if phase is not Phase.shrink)

FLOAT32_MAX = float(np.finfo(np.float32).max)


@pytest.fixture(scope="module")
def toy_weights(toy_net, toy_weights_bytes):
    return read_darknet_weights(toy_weights_bytes, toy_net)


@pytest.fixture(scope="module")
def folded(toy_weights):
    return fold_batch_norm(toy_weights)


class TestPacking:
    def test_bytes_in_order(self):
        packed = pack_indices([1, 2, 3, 4], 8)
        assert packed.words.tolist() == [0x04030201]
        assert packed.count == 4
        assert packed.bits == 8

    def test_five_bit_lanes(self):
        packed = pack_indices([31] * 6, 5)
        assert packed.words.tolist() == [0x3FFFFFFF]

    def test_partial_last_word(self):
        packed = pack_indices([0xAB] * 5, 8)
        assert packed.words.tolist() == [0xABABABAB, 0x000000AB]

    def test_empty_stream(self):
        packed = pack_indices([], 6)
        assert packed.count == 0
        assert packed.words.size == 0
        assert unpack_indices(packed, 0, 0).size == 0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="0..31"):
            pack_indices([32], 5)
        with pytest.raises(ValueError, match="0..255"):
            pack_indices([-1], 8)

    def test_rejects_non_integer_dtypes(self):
        # a float index used to be truncated without a word; the error's type
        # is gemm_nn_centroids' for the same fault
        with pytest.raises(TypeError, match="integers, got dtype float64"):
            pack_indices([1.7, 2.9], 2)
        with pytest.raises(TypeError, match="integers, got dtype float64"):
            pack_indices(np.array([0.5]), 5)
        with pytest.raises(TypeError, match="integers, got dtype bool"):
            pack_indices(np.array([True, False]), 1)
        with pytest.raises(TypeError, match="integers"):
            pack_indices(np.array([1.0], dtype=np.float32), 8)

    @pytest.mark.parametrize(
        "dtype", ["int8", "uint8", "int16", "uint16", "int32", "uint32", "int64", "uint64"]
    )
    def test_every_integer_dtype_packs_alike(self, dtype):
        rng = np.random.default_rng(5)
        for bits in (1, 3, 5, 7):
            indices = rng.integers(0, 1 << bits, 100).tolist()
            packed = pack_indices(np.array(indices, dtype=dtype), bits)
            assert packed.words.dtype == np.uint32
            assert packed.words.tolist() == pack_indices_reference(indices, bits)
        # the range check runs on the input's own dtype
        top = np.iinfo(dtype).max
        with pytest.raises(ValueError, match="0..63"):
            pack_indices(np.array([0, top], dtype=dtype), 6)
        if np.iinfo(dtype).min < 0:
            with pytest.raises(ValueError, match="0..63"):
                pack_indices(np.array([np.iinfo(dtype).min, 0], dtype=dtype), 6)

    def test_packs_without_widening_copies(self):
        # the padded uint32 lanes and the words, shifted in place: about
        # 5 bytes per 8-bit index
        indices = np.random.default_rng(2).integers(0, 256, 1 << 20).astype(np.uint8)
        tracemalloc.start()
        try:
            packed = pack_indices(indices, 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(unpack_indices(packed, 0, indices.size), indices)
        assert peak / indices.size < 6

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError, match="1-D"):
            pack_indices([[1, 2]], 8)
        with pytest.raises(ValueError, match="bits"):
            pack_indices([0], 0)
        with pytest.raises(ValueError, match="bits"):
            pack_indices([0], 33)

    def test_container_validation(self):
        with pytest.raises(ValueError, match="words"):
            PackedIndices(bits=8, count=5, words=np.zeros(1, dtype=np.uint32))
        with pytest.raises(ValueError, match="high bits"):
            PackedIndices(bits=5, count=6, words=np.array([1 << 30], dtype=np.uint32))
        with pytest.raises(ValueError, match="1-D"):
            PackedIndices(bits=8, count=4, words=np.zeros((1, 1), dtype=np.uint32))

    def test_equality(self):
        a = pack_indices([1, 2, 3], 5)
        b = pack_indices([1, 2, 3], 5)
        c = pack_indices([1, 2, 4], 5)
        assert a == b
        assert a != c

    @given(
        data=st.data(),
        bits=st.integers(min_value=1, max_value=16),
    )
    def test_matches_reference_and_roundtrips(self, data, bits):
        indices = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=(1 << bits) - 1),
                min_size=0,
                max_size=40,
            )
        )
        packed = pack_indices(indices, bits)
        assert packed.words.tolist() == pack_indices_reference(indices, bits)
        assert unpack_indices(packed, 0, len(indices)).tolist() == indices

    @given(data=st.data(), bits=st.integers(min_value=1, max_value=32))
    def test_spans_are_slices_of_the_whole_decode(self, data, bits):
        # spans may be empty and may start or end inside a word
        indices = data.draw(
            st.lists(st.integers(0, (1 << bits) - 1), max_size=3 * (32 // bits) + 2)
        )
        packed = pack_indices(indices, bits)
        whole = unpack_indices(packed, 0, len(indices))
        start = data.draw(st.integers(0, len(indices)), label="start")
        count = data.draw(st.integers(0, len(indices) - start), label="count")
        span = unpack_indices(packed, start, count)
        assert span.dtype == np.uint32
        assert np.array_equal(span, whole[start : start + count])
        assert np.array_equal(
            packed.take(np.arange(start, start + count)), whole[start : start + count]
        )

    @pytest.mark.parametrize("start, count", [(-1, 2), (0, 11), (10, 1), (11, 0),
                                              (3, -1), (-1, 0)])
    def test_span_outside_the_stream_is_rejected(self, start, count):
        packed = pack_indices(list(range(10)), 5)
        with pytest.raises(ValueError, match="outside the stream's 0..10"):
            unpack_indices(packed, start, count)


class TestKmeans:
    def test_two_tight_groups(self):
        table, assignments = kmeans_1d([0, 0, 0, 10, 10, 10], 2)
        assert table.centroids.tolist() == [0.0, 10.0]
        assert assignments.tolist() == [0, 0, 0, 1, 1, 1]
        assert residual_sse([0, 0, 0, 10, 10, 10], table, assignments) == 0.0

    def test_single_centroid_is_mean(self):
        table, assignments = kmeans_1d([0.0, 1.0], 1)
        assert table.centroids.tolist() == [0.5]
        assert residual_sse([0.0, 1.0], table, assignments) == 0.5

    def test_few_distinct_values_quantize_exactly(self):
        table, assignments = kmeans_1d([3.0, 1.0, 2.0, 1.0], 4)
        assert table.centroids.tolist() == [1.0, 2.0, 3.0, 3.0]
        assert assignments.tolist() == [2, 0, 1, 0]
        assert residual_sse([3.0, 1.0, 2.0, 1.0], table, assignments) == 0.0

    def test_midpoint_joins_lower_centroid(self):
        # 1.0 sits exactly between the initial centroids 0 and 2; grouping it
        # low yields means (0.5, 2.0) rather than (0.0, 1.5)
        table, assignments = kmeans_1d([0.0, 1.0, 2.0], 2)
        assert table.centroids.tolist() == [0.5, 2.0]
        assert assignments.tolist() == [0, 0, 1]

    def test_assignments_follow_original_order(self):
        values = [5.0, -5.0, 5.0, -5.0]
        table, assignments = kmeans_1d(values, 2)
        assert table.centroids.tolist() == [-5.0, 5.0]
        assert assignments.tolist() == [1, 0, 1, 0]

    def test_centroids_sorted_and_float32(self):
        rng = np.random.default_rng(3)
        table, assignments = kmeans_1d(rng.normal(size=500), 8)
        assert table.centroids.dtype == np.float32
        assert np.all(np.diff(table.centroids) >= 0)
        assert assignments.max() < table.k

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        values = rng.normal(size=2000)
        for init in ("linspace", "kmeans_pp"):
            cfg = ClusterConfig(bits=4, init=init, seed=5)
            t1, a1 = kmeans_1d(values, cfg.k, cfg)
            t2, a2 = kmeans_1d(values, cfg.k, cfg)
            assert t1 == t2
            assert np.array_equal(a1, a2)

    def test_init_styles_both_converge_well(self):
        rng = np.random.default_rng(11)
        values = np.concatenate([rng.normal(c, 0.05, 300) for c in (-2, 0, 2, 5)])
        best = optimal_kmeans_sse(values, 4)
        for init in ("linspace", "kmeans_pp"):
            cfg = ClusterConfig(bits=2, init=init)
            table, assignments = kmeans_1d(values, 4, cfg)
            sse = residual_sse(values, table, assignments)
            assert sse <= best * 1.05 + 1e-12

    def test_never_worse_than_initial_grid(self):
        rng = np.random.default_rng(23)
        for trial in range(20):
            values = rng.normal(size=rng.integers(20, 400))
            k = int(rng.integers(2, 9))
            table, assignments = kmeans_1d(values, k)
            final = residual_sse(values, table, assignments)
            grid = np.linspace(values.min(), values.max(), k)
            start = float(
                np.square(values - grid[np.abs(values[:, None] - grid).argmin(1)]).sum()
            )
            assert final <= start * (1 + 1e-9)

    @given(
        values=st.lists(
            st.floats(min_value=-100, max_value=100, allow_nan=False, width=32),
            min_size=1,
            max_size=120,
        ),
        bits=st.integers(min_value=1, max_value=4),
    )
    def test_quantizer_invariants(self, values, bits):
        k = 1 << bits
        table, assignments = kmeans_1d(values, k)
        assert table.k == k
        assert len(assignments) == len(values)
        assert assignments.max() < k
        # every value maps to a centroid no farther than the nearest one,
        # up to exact midpoint ties
        arr = np.asarray(values, dtype=np.float64)
        cents = table.centroids.astype(np.float64)
        chosen = np.abs(arr - cents[assignments])
        nearest = np.abs(arr[:, None] - cents).min(axis=1)
        assert np.allclose(chosen, nearest, rtol=0, atol=1e-9)

    def test_sse_increase_raises(self, monkeypatch):
        real = cluster._segment_means
        sweeps = []

        def worse_on_second_sweep(totals, bounds):
            means = real(totals, bounds)
            sweeps.append(None)
            return means + 100.0 if len(sweeps) == 2 else means

        monkeypatch.setattr(cluster, "_segment_means", worse_on_second_sweep)
        values = np.random.default_rng(3).normal(size=500)
        with pytest.raises(RuntimeError, match="k-means SSE increased"):
            kmeans_1d(values, 4)

    def test_sse_increase_raises_in_the_exact_form(self, monkeypatch):
        real = cluster._segment_means
        sweeps = []

        def worse_on_second_sweep(totals, bounds):
            means = real(totals, bounds)
            sweeps.append(None)
            return means + 100.0 if len(sweeps) == 2 else means

        monkeypatch.setattr(cluster, "_segment_means", worse_on_second_sweep)
        monkeypatch.setattr(cluster, "_sse_bracket", no_bracket)
        values = np.random.default_rng(3).normal(size=500)
        with pytest.raises(RuntimeError, match="k-means SSE increased"):
            kmeans_1d(values, 4)

    # One table above _BATCH values: the sorted copy (8 bytes per value),
    # the positions (4) and the limb prefix sums at every _STEP-th value
    # (2), with a reseed's distances (8), about 24 bytes per value; its sort
    # keys (8) and their temporaries come and go before. A lockstep batch
    # of tables, as many as _BATCH allows: the sorted copy (8), the
    # positions (4) and the prefix at every value (16), and each sweep's
    # (tables, k) arrays, about 37 bytes per value at 2,500 values a table
    # and k = 256.
    @pytest.mark.parametrize("sizes", [[200_000], [2_500] * (cluster._BATCH // 2_500)],
                             ids=["one-table", "batch"])
    def test_peak_memory_per_value(self, sizes):
        n = sum(sizes)
        values = np.random.default_rng(5).standard_normal(n).astype(np.float32)
        lengths = None if len(sizes) == 1 else sizes
        tracemalloc.start()
        try:
            kmeans_1d(values, 256, ClusterConfig(max_iters=3), lengths=lengths)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / n < 40

    def test_prefix_layout_follows_the_table_size(self):
        # 16 B per value up to _BATCH values, the most a batch of one table
        # or of many holds, and 2 B per value above
        for n, columns in ((1, 2), (cluster._BATCH, cluster._BATCH + 1),
                           (cluster._BATCH + 1, cluster._BATCH // cluster._STEP + 1),
                           (cluster._BATCH + cluster._STEP - 1,
                            cluster._BATCH // cluster._STEP + 1)):
            prefix = one_table(np.arange(n, dtype=np.float64)).prefix
            assert prefix.shape == (2, columns)
        assert cluster._BATCH * 16 <= 1 << 21

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError, match="non-empty"):
            kmeans_1d([], 2)
        with pytest.raises(ValueError, match="finite"):
            kmeans_1d([1.0, float("nan")], 2)
        with pytest.raises(ValueError, match="k"):
            kmeans_1d([1.0], 0)

    @pytest.mark.parametrize("k", [2.5, 2.0, True, np.True_, "2", None])
    def test_rejects_a_k_that_is_not_an_integer(self, k):
        class Unread:
            """Values that fail the test if kmeans_1d reads them."""

            def __array__(self, *args, **kwargs):
                raise AssertionError("values read before k was checked")

        with pytest.raises(TypeError, match=f"k must be an integer, got {k!r}"):
            kmeans_1d(Unread(), k)

    @pytest.mark.parametrize("k", [np.int64(2), np.uint8(2), np.int32(2)])
    def test_numpy_integer_k_is_taken(self, k):
        table, assignments = kmeans_1d(np.arange(10.0), k)
        want_table, want = kmeans_1d(np.arange(10.0), 2)
        assert np.array_equal(table.centroids, want_table.centroids)
        assert np.array_equal(assignments, want)

    @pytest.mark.parametrize(
        "bad", [1e300, -1e300, 3.41e38, -1.7e308, math.nan, math.inf, -math.inf]
    )
    def test_values_not_finite_as_float32_are_rejected(self, bad):
        # one ValueError, and no numpy warning on the way to it
        for values in ([0.5, bad, 1.0], np.array([0.5, bad, 1.0])):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="^values must be finite$"):
                    kmeans_1d(values, 2)

    def test_the_largest_float32_values_are_accepted(self):
        # 3.4028235e38 is just above float32's largest, and rounds down to it
        values = [-3.4028235e38, 3.4028235e38, 3.4028235e38, 0.0, -1.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            exact, _ = kmeans_1d(values, 4)
            table, assignments = kmeans_1d(values, 2)
        assert exact.centroids.tolist() == [-FLOAT32_MAX, -1.0, 0.0, FLOAT32_MAX]
        assert table.centroids[1] == FLOAT32_MAX
        assert assignments.tolist() == [0, 1, 1, 0, 0]

    @settings(max_examples=100, phases=UNSHRUNK)
    @given(
        values=st.lists(
            st.floats(-FLOAT32_MAX, FLOAT32_MAX, width=64)
            | st.floats(-1e-30, 1e-30, width=64)
            | st.sampled_from([-3.4028235e38, 3.4028235e38, 2.0**-150, -(2.0**-150)]),
            min_size=1,
            max_size=60,
        ),
        bits=st.integers(1, 4),
        init=st.sampled_from(INITS),
    )
    def test_float64_values_cluster_as_their_float32_rounding(self, values, bits, init):
        cfg = ClusterConfig(bits=bits, init=init, max_iters=20)
        table, assignments = kmeans_1d(values, cfg.k, cfg)
        narrow = np.asarray(values, dtype=np.float32)
        want_table, want_assignments = kmeans_1d(narrow, cfg.k, cfg)
        assert np.array_equal(table.centroids.view(np.uint32),
                              want_table.centroids.view(np.uint32))
        assert np.array_equal(assignments, want_assignments)

    @pytest.mark.parametrize("style", ["normal", "exponents", "clumps"])
    def test_float64_tables_cluster_as_their_float32_rounding(self, style):
        # values with float64 significands that round to the Lloyd styles
        rng = np.random.default_rng(5)
        narrow = lloyd_values(style, 3000, 5)
        values = narrow * (1.0 + rng.uniform(-2.0**-26, 2.0**-26, narrow.size))
        assert np.array_equal(values.astype(np.float32), narrow)
        assert not np.array_equal(values, narrow)
        cfg = ClusterConfig(bits=5, max_iters=30)
        table, assignments = kmeans_1d(values, cfg.k, cfg)
        want_table, want_assignments = kmeans_1d(narrow, cfg.k, cfg)
        assert table == want_table
        assert np.array_equal(assignments, want_assignments)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="scope"):
            ClusterConfig(scope="everything")
        with pytest.raises(ValueError, match="bits"):
            ClusterConfig(bits=0)
        with pytest.raises(ValueError, match="bits"):
            ClusterConfig(bits=9)
        with pytest.raises(ValueError, match="max_iters"):
            ClusterConfig(max_iters=0)
        with pytest.raises(ValueError, match="tol"):
            ClusterConfig(tol=-1e-9)
        with pytest.raises(ValueError, match="init"):
            ClusterConfig(init="random")
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            ClusterConfig(seed=-1)
        assert ClusterConfig(bits=5).k == 32
        assert ClusterConfig(bits=np.int64(5), max_iters=np.int32(2), seed=np.uint8(1)).k == 32

    @pytest.mark.parametrize("field", ["bits", "max_iters", "seed"])
    @pytest.mark.parametrize("value", [2.5, 2.0, "2", None])
    def test_non_integer_config_rejected(self, field, value):
        # a float that passes the range checks would fail later, in .k,
        # kmeans_1d or kmeans_pp
        with pytest.raises(ValueError, match=f"{field} must be an integer, got {value!r}"):
            ClusterConfig(**{field: value})

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf])
    def test_non_finite_tol_rejected(self, tol):
        # a NaN tol would silently disable the stop rule
        with pytest.raises(ValueError, match="tol must be a finite number"):
            ClusterConfig(tol=tol)

    def test_table_validation(self):
        with pytest.raises(ValueError, match="non-empty"):
            CentroidTable(np.array([], dtype=np.float32))
        with pytest.raises(ValueError, match="finite"):
            CentroidTable(np.array([np.inf], dtype=np.float32))
        with pytest.raises(ValueError, match="1-D"):
            CentroidTable(np.zeros((2, 2), dtype=np.float32))


def one_table(svals):
    """The _SegmentSums of one sorted table, a batch of one."""
    return cluster._SegmentSums(svals, np.zeros(1, dtype=np.int64), np.array([svals.size]),
                                np.zeros(1, dtype=np.int64))


def run_total(sums, lo: int, hi: int) -> float:
    """The sum of values[lo:hi] of the one table of sums."""
    return sums.totals(np.array([[lo, hi]]))[0, 0]


def same_float(a: float, b: float) -> bool:
    """Bitwise float equality: -0.0 and 0.0 differ."""
    return float(a).hex() == float(b).hex()


def lloyd_values(style: str, n: int, seed: int) -> np.ndarray:
    """Test data for 1-D Lloyd: float32 values in float64, as kmeans_1d
    sorts them; each style aims at one kind of edge case."""
    rng = np.random.default_rng(seed)
    if style == "normal":
        values = rng.standard_normal(n)
    elif style == "grid":
        # integers and halves: many ties, and values exactly on midpoints
        values = rng.integers(-6, 7, n) * 0.5
    elif style == "zeros":
        pool = [-0.0, 0.0, -0.0, 0.0, 1.5, -2.0, 0.25, 3.0]
        values = rng.choice(pool, n) * rng.choice([1.0, 1.0, rng.standard_normal()], n)
    elif style == "subnormal":
        # float32's smallest step, 2**-149, and a few times it
        values = rng.integers(-40, 41, n) * 2.0**-149
    elif style == "exponents":
        lo, hi = sorted(rng.integers(-37, 38, 2))
        values = rng.standard_normal(n) * 10.0 ** rng.uniform(lo, hi, n)
    elif style == "clumps":
        # two tight clumps far apart leave the centroids between them empty
        side = rng.choice([-1000.0, 1000.0], n)
        values = side + rng.standard_normal(n) * 1e-3
    else:
        raise ValueError(style)
    return values.astype(np.float32).astype(np.float64)


LLOYD_STYLES = ("normal", "grid", "zeros", "subnormal", "exponents", "clumps")

# cluster._BATCH forced so that every table, of any size, keeps its prefix at
# every value, in batches as large as the key allows ("dense"), or runs alone
# and keeps it at every cluster._STEP-th value ("blocks")
LAYOUTS = {"dense": sys.maxsize, "blocks": 0}


@pytest.fixture(scope="class", params=sorted(LAYOUTS))
def layout(request):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cluster, "_BATCH", LAYOUTS[request.param])
        yield request.param


def means_of(totals, bounds):
    """cluster._segment_means under the np.errstate that its caller holds,
    so that an empty segment's 0/0 gives NaN without a warning."""
    with np.errstate(invalid="ignore", divide="ignore"):
        return cluster._segment_means(totals, bounds)


def no_bracket(square_sum, *args):
    """A stand-in for cluster._sse_bracket that never decides, so that every
    SSE check takes its exact form."""
    rows = len(square_sum)
    return np.full(rows, -math.inf), np.full(rows, math.inf)


def same_as_stable_sort(tables) -> None:
    """Assert that cluster._sorted orders float32 tables, end to end as one
    batch, bitwise as a stable argsort of each table does: the sorted values
    and each one's position in the batch, each table in its own span."""
    vals = np.concatenate(tables).astype(np.float32)
    assert np.array_equal(vals, np.concatenate(tables))
    sizes = [table.size for table in tables]
    svals, positions = cluster._sorted(vals, sizes)
    assert svals.dtype == np.float64 and positions.dtype == np.uint32
    assert svals.size == positions.size == vals.size
    edges = np.cumsum([0] + sizes).tolist()
    for lo, hi in zip(edges, edges[1:]):
        order = lo + np.argsort(vals[lo:hi], kind="stable")
        assert np.array_equal(positions[lo:hi], order)
        want = vals[order].astype(np.float64)
        assert np.array_equal(svals[lo:hi].view(np.uint64), want.view(np.uint64))


def same_as_reference(values, cfg: ClusterConfig, table: CentroidTable, assignments):
    """Assert that kmeans_1d's (table, assignments) for values are bitwise
    those of the whole-segment fsum Lloyd of tests/oracles.py. values must be
    float32 ones, so that the reference sees the values kmeans_1d
    clusters."""
    assert np.array_equal(np.asarray(values, dtype=np.float32), values)
    want_centroids, want_assignments = lloyd_1d_reference(
        values, cfg.k, cfg.init, cfg.seed, cfg.max_iters, cfg.tol
    )
    assert assignments.dtype == want_assignments.dtype == np.uint32
    assert np.array_equal(assignments, want_assignments)
    arr = np.asarray(values, dtype=np.float64)
    both_zeros = np.any((arr == 0) & np.signbit(arr)) and np.any((arr == 0) & ~np.signbit(arr))
    if both_zeros and np.unique(arr).size <= cfg.k:
        # Exact quantization: np.unique's hash table keeps either zero when
        # both occur; kmeans_1d keeps the first (see
        # test_mixed_zeros_keep_the_first_zero). Zero compares equal.
        assert np.array_equal(table.centroids, want_centroids)
    else:
        assert np.array_equal(table.centroids.view(np.uint32), want_centroids.view(np.uint32))


class TestLloydMatchesReference:
    """kmeans_1d against the whole-segment fsum Lloyd of tests/oracles.py."""

    def check(self, values, bits, init, seed, max_iters):
        """kmeans_1d twice, with the SSE check's float filter and forced to
        its exact form, against the reference."""
        cfg = ClusterConfig(bits=bits, init=init, seed=seed, max_iters=max_iters)
        same_as_reference(values, cfg, *kmeans_1d(values, cfg.k, cfg))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cluster, "_sse_bracket", no_bracket)
            same_as_reference(values, cfg, *kmeans_1d(values, cfg.k, cfg))

    @settings(max_examples=300, phases=UNSHRUNK)
    @given(
        style=st.sampled_from(LLOYD_STYLES),
        n=st.one_of(st.integers(1, 70), st.integers(120, 1500)),
        data_seed=st.integers(0, 2**32 - 1),
        bits=st.integers(1, 8),
        init=st.sampled_from(INITS),
        seed=st.integers(0, 1000),
        max_iters=st.integers(1, 30),
    )
    def test_bitwise_equal_to_the_reference(
        self, style, n, data_seed, bits, init, seed, max_iters
    ):
        self.check(lloyd_values(style, n, data_seed), bits, init, seed, max_iters)

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 9, 63, 64, 65, 128, 129, 200, 5000])
    @pytest.mark.parametrize("style", LLOYD_STYLES)
    def test_sizes_around_the_block(self, style, n, layout, monkeypatch):
        monkeypatch.setattr(cluster, "_BATCH", LAYOUTS[layout])
        for bits, init in ((1, "linspace"), (3, "kmeans_pp"), (8, "linspace")):
            self.check(lloyd_values(style, n, n), bits, init, n, 25)

    @pytest.mark.parametrize("bits", [1, 2, 5, 8])
    def test_span_of_the_float32_range(self, bits):
        # the largest float32 magnitudes, and its smallest step beside them
        for extra in ([-FLOAT32_MAX, FLOAT32_MAX],
                      [-FLOAT32_MAX, 2.0**-149, FLOAT32_MAX, FLOAT32_MAX]):
            values = np.concatenate((extra, lloyd_values("normal", 60, bits)))
            for init in INITS:
                self.check(values, bits, init, bits, 10)

    def test_reseeding_empty_clusters(self, monkeypatch):
        real = cluster._segment_means
        empties = []

        def spy(totals, bounds):
            means = real(totals, bounds)
            empties.append(int(np.isnan(means).sum()))
            return means

        monkeypatch.setattr(cluster, "_segment_means", spy)
        for init in INITS:
            self.check(lloyd_values("clumps", 3000, 5), 4, init, 5, 40)
        assert max(empties) > 0

    def test_reseeding_ties_go_to_the_lowest_index(self, monkeypatch):
        real = cluster._farthest
        decided_by_ties = []

        def spy(dist, e, bounds):
            # the tie rule matters when more distances equal the e-th
            # largest than the picks still need
            kth = np.sort(dist)[-e]
            needed = e - np.count_nonzero(dist > kth)
            decided_by_ties.append(np.count_nonzero(dist == kth) > needed > 0)
            return real(dist, e, bounds)

        monkeypatch.setattr(cluster, "_farthest", spy)
        # two clumps of a few repeated values: the segment distances repeat,
        # and a 16-entry linspace grid leaves the middle clusters empty
        rng = np.random.default_rng(8)
        values = np.concatenate(
            (rng.choice([-1000.0, -999.0, -998.5], 600), rng.choice([998.0, 1000.0], 600),
             np.linspace(-3.0, 3.0, 20, dtype=np.float32))
        )
        for init, seed in (("linspace", 0), ("kmeans_pp", 3)):
            self.check(rng.permutation(values), 4, init, seed, 40)
        assert any(decided_by_ties)

    @pytest.mark.parametrize("seed", range(40))
    def test_farthest_is_repeated_argmax(self, seed):
        # sorted values with many ties, in segments of any length, empty
        # ones included, each with a centroid of its own: the distances
        # fall and then rise along each segment, as a reseed's do
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 80))
        values = np.sort(rng.integers(-8, 9, n) * 0.5)
        bounds = np.concatenate(([0], np.sort(rng.integers(0, n + 1, rng.integers(0, 12))), [n]))
        centroids = rng.integers(-8, 9, bounds.size - 1) * 0.25
        dist = np.abs(values - np.repeat(centroids, np.diff(bounds)))
        e = int(rng.integers(1, n))
        want, left = [], dist.copy()
        for _ in range(e):
            want.append(int(np.argmax(left)))
            left[want[-1]] = -1.0
        got = cluster._farthest(dist, e, bounds)
        assert sorted(got.tolist()) == sorted(want)

    def test_mixed_zeros_keep_the_first_zero(self):
        for values, sign in (([-0.0, 1.0, 0.0], True), ([0.0, -0.0, 1.0], False)):
            table, assignments = kmeans_1d(values, 2)
            assert table.centroids.tolist() == [0.0, 1.0]
            assert np.signbit(table.centroids[0]) == sign
            assert assignments.tolist() == [0, 1, 0] if sign else [0, 0, 1]
        # -0.0 and 0.0 are one distinct value, so one centroid holds both
        table, assignments = kmeans_1d([0.0, -0.0, -0.0], 1)
        assert table.centroids.view(np.uint32).tolist() == [0]
        assert assignments.tolist() == [0, 0, 0]


    # The tests below run on 3,000 values and more: numpy's default argsort
    # sorts small arrays by insertion, which happens to be stable, so only
    # longer runs of ties would come out of an unstable sort in another order.

    @pytest.mark.parametrize("seed", range(20))
    def test_sorted_zeros_keep_their_input_order(self, seed):
        rng = np.random.default_rng(seed)
        values = rng.choice([-0.0, 0.0, -0.0, 0.0, 1.5, -2.0, 3.0], 3000)
        same_as_stable_sort([values])

    def test_zeros_of_one_sign_are_left_alone(self):
        for zero in (-0.0, 0.0):
            values = np.random.default_rng(0).choice([zero, 1.5, -2.0], 3000)
            same_as_stable_sort([values])

    @pytest.mark.parametrize("seed", range(20))
    def test_mixed_zeros_exact_path_keeps_the_first_zero(self, seed):
        rng = np.random.default_rng(seed)
        values = rng.choice([-0.0, 0.0, 1.5, -2.0, 3.0], 3000)
        table, assignments = kmeans_1d(values, 8)
        want_centroids, want_assignments = lloyd_1d_reference(values, 8)
        assert np.array_equal(assignments, want_assignments)
        assert np.array_equal(table.centroids, want_centroids)
        # the one zero in the table is the first zero of the input
        first_zero = values[values == 0][0]
        zero = table.centroids[table.centroids == 0]
        assert zero.size == 1 and np.signbit(zero[0]) == np.signbit(first_zero)

    @pytest.mark.parametrize("seed", range(10))
    def test_reseed_picking_zeros_keeps_their_signs(self, seed):
        # a few zeros of both signs below a tight clump: with the two middle
        # linspace centroids empty, the zeros are the farthest values, and
        # the tie between them goes to the first ones in sorted order
        rng = np.random.default_rng(seed)
        values = rng.permutation(
            np.concatenate((
                rng.choice([-0.0, 0.0], 8),
                1.0 + rng.standard_normal(2500) * 1e-4,
                1000.0 + rng.standard_normal(500) * 1e-4,
            )).astype(np.float32).astype(np.float64)
        )
        for max_iters in (1, 2, 5):
            self.check(values, 2, "linspace", 0, max_iters)
        # after one sweep the table still holds the two picked zeros, which
        # are the first two zeros of the input
        table, _ = kmeans_1d(values, 4, ClusterConfig(bits=2, max_iters=1))
        zeros = table.centroids[:2]
        assert np.array_equal(zeros, [0.0, 0.0])
        first_two = np.signbit(values[values == 0][:2])
        assert sorted(np.signbit(zeros).tolist()) == sorted(first_two.tolist())

    @pytest.mark.parametrize("n", [3000, 20000])
    def test_heavy_ties_with_signed_zeros(self, n):
        # integers and halves of either sign, so every value ties with
        # thousands of others and the zeros come as -0.0 and 0.0
        rng = np.random.default_rng(n)
        values = rng.integers(-6, 7, n) * 0.5 * rng.choice([-1.0, 1.0], n)
        for bits, init in ((1, "linspace"), (2, "kmeans_pp"), (3, "linspace")):
            self.check(values, bits, init, n, 30)
        # 4 bits hold all 13 distinct values: the exact path
        self.check(values, 4, "linspace", n, 30)

    def test_carried_sums_match_a_fresh_recompute(self, monkeypatch):
        # each sweep's means divide the segment sums that the previous
        # sweep took for its SSE check, or fresh ones after a reseed
        real_means, real_farthest = cluster._segment_means, cluster._farthest
        sums_of, events, runs = {}, [], []

        def means_spy(totals, bounds):
            # one table: a batch of one row
            assert totals.shape[0] == bounds.shape[0] == 1
            fresh = sums_of["table"].totals(bounds)[0]
            assert np.array_equal(totals[0].view(np.uint64), fresh.view(np.uint64))
            events.append("means")
            return real_means(totals, bounds)

        def farthest_spy(dist, e, bounds):
            events.append("reseed")
            return real_farthest(dist, e, bounds)

        monkeypatch.setattr(cluster, "_segment_means", means_spy)
        monkeypatch.setattr(cluster, "_farthest", farthest_spy)
        for style, n, bits in (("clumps", 3000, 4), ("normal", 20000, 5), ("zeros", 5000, 3)):
            values = lloyd_values(style, n, n)
            sums_of["table"] = one_table(np.sort(values, kind="stable"))
            for init in INITS:
                events = []
                self.check(values, bits, init, 7, 40)
                runs.append(events)
        # in some run, a sweep after a reseed divided carried sums
        assert any("means" in events[events.index("reseed") :]
                   for events in runs if "reseed" in events)

    def test_fixed_point_stops_early_with_the_same_result(self, monkeypatch):
        real, states = cluster._segment_bounds, []

        def spy(views, centroids):
            bounds = real(views, centroids)
            states.append((centroids.copy(), bounds.copy()))
            return bounds

        monkeypatch.setattr(cluster, "_segment_bounds", spy)
        values = lloyd_values("normal", 5000, 4)
        self.check(values, 3, "linspace", 0, 1000)
        (c1, b1), (c2, b2) = states[-2:]
        # the last sweep left every bound where it was, so the next would
        # not have moved any centroid; its own still moved, above tol = 0
        assert np.array_equal(b1, b2) and not np.array_equal(c1, c2)
        assert len(states) < 1000


def table_values(style: str, n: int, seed: int) -> np.ndarray:
    """One table of a lockstep batch: a lloyd_values style, or "off-grid",
    normal values beside one far below them, which leave _SegmentSums'
    integer grid."""
    if style == "off-grid":
        return np.concatenate((lloyd_values("normal", max(n, 2) - 1, seed), [2.0**-120]))
    if style == "extremes":
        # float32's largest magnitudes and smallest step beside normal values
        rng = np.random.default_rng(seed)
        pool = [-FLOAT32_MAX, FLOAT32_MAX, 2.0**-149, -(2.0**-149), -0.0, 0.0]
        return np.where(rng.random(n) < 0.2, rng.choice(pool, n), lloyd_values("normal", n, seed))
    return lloyd_values(style, n, seed)


def cluster_batch(tables, cfg: ClusterConfig):
    """kmeans_1d on tables end to end: (table, assignments) of each."""
    sizes = [t.size for t in tables]
    got, assignments = kmeans_1d(np.concatenate(tables), cfg.k, cfg, lengths=sizes)
    assert len(got) == len(tables)
    edges = np.cumsum([0] + sizes).tolist()
    return [(table, assignments[lo:hi]) for table, lo, hi in zip(got, edges, edges[1:])]


def same_clustering(got, want) -> None:
    (table, assignments), (want_table, want_assignments) = got, want
    assert np.array_equal(table.centroids.view(np.uint32), want_table.centroids.view(np.uint32))
    assert assignments.dtype == want_assignments.dtype == np.uint32
    assert np.array_equal(assignments, want_assignments)


class TestLockstep:
    """kmeans_1d over a batch of tables (lengths=): each table's result is
    bitwise its own run, and the reference's."""

    def check(self, tables, cfg: ClusterConfig, reference: bool = True):
        alone = [kmeans_1d(values, cfg.k, cfg) for values in tables]
        if reference:
            for values, (table, assignments) in zip(tables, alone):
                same_as_reference(values, cfg, table, assignments)
        for got, want in zip(cluster_batch(tables, cfg), alone):
            same_clustering(got, want)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cluster, "_sse_bracket", no_bracket)
            for got, want in zip(cluster_batch(tables, cfg), alone):
                same_clustering(got, want)

    @pytest.mark.parametrize("batch", [cluster._BATCH, 0], ids=["dense", "blocks"])
    @settings(max_examples=60, phases=UNSHRUNK, deadline=None)
    @given(
        tables=st.lists(
            st.tuples(
                st.sampled_from(LLOYD_STYLES + ("off-grid",)),
                # one value, up to k distinct ones, either side of a block of
                # _STEP values, and longer tables
                st.one_of(st.integers(1, 9), st.sampled_from([15, 16, 17, 255, 256, 257]),
                          st.integers(10, 400)),
                st.integers(0, 2**32 - 1),
            ),
            min_size=1,
            max_size=12,
        ),
        bits=st.integers(1, 8),
        init=st.sampled_from(INITS),
        seed=st.integers(0, 1000),
        max_iters=st.integers(1, 30),
    )
    def test_each_table_is_its_own_run(self, batch, tables, bits, init, seed, max_iters):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cluster, "_BATCH", batch)
            values = [table_values(style, max(n, 2) if style == "off-grid" else n, data_seed)
                      for style, n, data_seed in tables]
            cfg = ClusterConfig(bits=bits, init=init, seed=seed, max_iters=max_iters)
            self.check(values, cfg)

    @staticmethod
    def live_rows(monkeypatch):
        """The number of tables each sweep of a batch runs on, as a list that
        grows as kmeans_1d runs."""
        real, live = cluster._segment_means, []

        def spy(totals, bounds):
            live.append(len(totals))
            return real(totals, bounds)

        monkeypatch.setattr(cluster, "_segment_means", spy)
        return live

    @pytest.mark.parametrize("tol", [1e-3, 0.0])
    def test_tables_stop_at_different_sweeps(self, tol, monkeypatch):
        live = self.live_rows(monkeypatch)
        tables = [lloyd_values("normal", 300, 1), lloyd_values("clumps", 3000, 5),
                  lloyd_values("normal", 900, 2), lloyd_values("exponents", 2000, 3)]
        cfg = ClusterConfig(bits=4, max_iters=60, tol=tol)
        cluster_batch(tables, cfg)
        # every table ran the first sweep, and they left the batch one by one
        assert live[0] == 4
        assert live == sorted(live, reverse=True) and len(set(live)) == 4
        self.check(tables, cfg)

    def test_tol_stop_beside_a_table_that_runs_on(self, monkeypatch):
        # with tol this large a table stops at its first sweep that does not
        # reseed; the clumps go on reseeding
        live = self.live_rows(monkeypatch)
        tables = [lloyd_values("normal", 400, 7), lloyd_values("clumps", 3000, 5)]
        cfg = ClusterConfig(bits=4, max_iters=20, tol=1e9)
        cluster_batch(tables, cfg)
        assert live[0] == 2 and live[-1] == 1
        self.check(tables, cfg)

    def test_zeros_of_both_signs_in_the_means(self):
        # the reseeds pick zeros of either sign, and another table's means
        # sort beside them in the same sweep
        tables = []
        for seed in range(4):
            rng = np.random.default_rng(seed)
            tables.append(rng.permutation(np.concatenate((
                rng.choice([-0.0, 0.0], 8),
                1.0 + rng.standard_normal(700) * 1e-4,
                1000.0 + rng.standard_normal(300) * 1e-4,
            )).astype(np.float32).astype(np.float64)))
        tables.append(lloyd_values("zeros", 900, 3))
        for max_iters in (1, 2, 5):
            self.check(tables, ClusterConfig(bits=2, max_iters=max_iters))

    @pytest.mark.parametrize("k", [2, 16, 256])
    def test_row_sort_is_the_sort_of_each_row(self, k):
        # np.sort along the rows of a batch's means sorts each row as it
        # sorts that row alone, zeros of both signs included
        rng = np.random.default_rng(k)
        means = rng.choice([-0.0, 0.0, -0.0, 1.5, -2.0, 0.25], (40, k))
        means[::3] *= rng.standard_normal((len(means[::3]), k))
        rows = np.sort(means, axis=1)
        for row, alone in zip(rows, means):
            assert np.array_equal(row.view(np.uint64), np.sort(alone).view(np.uint64))
        means.sort(axis=1)
        assert np.array_equal(means.view(np.uint64), rows.view(np.uint64))

    def test_batch_split_at_the_size_cap(self, monkeypatch):
        sizes = [60, 50, 40, 200, 1, 90, 30]
        monkeypatch.setattr(cluster, "_BATCH", 100)
        # a table above _BATCH runs alone
        assert list(cluster._batches(sizes)) == [[60], [50, 40], [200], [1, 90], [30]]
        assert list(cluster._batches([100, 1])) == [[100], [1]]
        real, batches = cluster._lloyd, []

        def spy(vals, batch, *args):
            batches.append(list(batch))
            return real(vals, batch, *args)

        monkeypatch.setattr(cluster, "_lloyd", spy)
        tables = [lloyd_values(style, n, n) for style, n in
                  zip(("normal", "clumps", "grid", "normal", "zeros", "exponents", "normal"),
                      sizes)]
        cfg = ClusterConfig(bits=3, max_iters=25)
        cluster_batch(tables, cfg)
        assert batches == [[60], [50, 40], [200], [1, 90], [30]]
        self.check(tables, cfg)

    def test_one_call_for_every_conv_of_the_per_layer_scope(self, folded, monkeypatch):
        real, calls = cluster.kmeans_1d, []

        def spy(values, k, cfg=None, lengths=None):
            calls.append((values.size, lengths))
            return real(values, k, cfg, lengths)

        monkeypatch.setattr(cluster, "kmeans_1d", spy)
        cfg = ClusterConfig(scope="per_layer", bits=5)
        model = cluster_model(folded, cfg)
        sizes = [conv.n_weights for conv in folded.convs]
        assert calls == [(sum(sizes), sizes)]
        for entry, conv in zip(model.entries, folded.convs):
            table, assignments = real(conv.kernel, cfg.k, cfg)
            assert entry.table == table
            assert entry.packed == pack_indices(assignments, cfg.bits)

    def test_one_call_for_the_global_scope(self, folded, monkeypatch):
        real, calls = cluster.kmeans_1d, []

        def spy(values, k, cfg=None, lengths=None):
            calls.append((values.size, lengths))
            return real(values, k, cfg, lengths)

        monkeypatch.setattr(cluster, "kmeans_1d", spy)
        cfg = ClusterConfig(bits=5)
        model = cluster_model(folded, cfg)
        stream = np.concatenate([conv.kernel for conv in folded.convs])
        assert calls == [(stream.size, [stream.size])]
        (entry,) = model.entries
        table, assignments = real(stream, cfg.k, cfg)
        assert entry.layer_id is None and entry.table == table
        assert entry.packed == pack_indices(assignments, cfg.bits)

    def test_lengths_must_cover_the_values(self):
        with pytest.raises(ValueError, match="lengths add up to 4, not to the 5 values"):
            kmeans_1d(np.arange(5.0), 2, lengths=[1, 3])
        with pytest.raises(ValueError, match="non-empty"):
            kmeans_1d(np.arange(5.0), 2, lengths=[0, 5])
        tables, assignments = kmeans_1d(np.arange(5.0), 2, lengths=np.array([2, 3]))
        assert [t.centroids.tolist() for t in tables] == [[0.0, 1.0], [2.5, 4.0]]
        assert assignments.tolist() == [0, 1, 0, 0, 1]


class TestBatchSetUp:
    """The set-up of a batch: one sort of packed keys and one pass of
    prefix sums for all of its tables."""

    @settings(max_examples=100, phases=UNSHRUNK, deadline=None)
    @given(
        tables=st.lists(
            st.tuples(
                st.sampled_from(LLOYD_STYLES + ("off-grid", "extremes")),
                st.one_of(st.integers(1, 9), st.integers(10, 3000)),
                st.integers(0, 2**32 - 1),
            ),
            min_size=1,
            max_size=10,
        ),
    )
    def test_packed_sort_is_a_stable_sort(self, tables):
        same_as_stable_sort([table_values(*table) for table in tables])

    def test_packed_sort_of_float32_extremes(self):
        # the largest magnitudes, the smallest steps and zeros of both
        # signs, each twice: every float32 order boundary of the key
        edge = [-FLOAT32_MAX, -1.0, -(2.0**-126), -(2.0**-149), -0.0, 0.0, 2.0**-149,
                2.0**-126, 1.0, FLOAT32_MAX]
        rng = np.random.default_rng(2)
        values = np.array(edge * 2)
        same_as_stable_sort([values, rng.permutation(values), values[:1], values[::-1]])

    @settings(max_examples=60, phases=UNSHRUNK, deadline=None)
    @given(
        tables=st.lists(
            st.tuples(
                st.sampled_from(LLOYD_STYLES + ("off-grid", "extremes")),
                st.one_of(st.integers(1, 9), st.integers(10, 600)),
                st.integers(0, 2**32 - 1),
            ),
            min_size=1,
            max_size=12,
        ),
    )
    def test_one_pass_is_each_table_alone(self, tables):
        self.same_as_each_table([table_values(*table) for table in tables])

    def test_one_pass_over_a_batch_cut_at_the_key_width(self):
        # 32,768 tables of two values fill the key's 32 low bits: table
        # numbers up to 2**15 - 1 take 15 bits and positions up to 2**16 17,
        # so one more table starts the next batch
        sizes = [2] * (1 << 15) + [3]
        first = next(cluster._batches(sizes))
        assert len(first) == 1 << 15
        rng = np.random.default_rng(9)
        values = rng.standard_normal(2 * len(first)).astype(np.float32).astype(np.float64)
        values[::97] = 0.0
        values[1::89] = -0.0
        values[5] = 2.0**-120  # one table off its grid
        self.same_as_each_table(np.split(values, len(first)), sample=[2, *range(0, len(first), 61)])

    @staticmethod
    def same_as_each_table(tables, sample=None):
        """Assert that the _SegmentSums of tables, one batch, holds bitwise
        what a _SegmentSums of each table alone gives: per row its levels,
        unit, place values, Σx², and on every level the limb sums of each
        run of one value, and so of every run, for every table or those that
        sample names; on a finer level that the table lacks, its runs sum
        to zero."""
        vals = np.concatenate(tables).astype(np.float32)
        sizes = [table.size for table in tables]
        svals, _ = cluster._sorted(vals, sizes)
        starts = np.cumsum([0] + sizes[:-1])
        rows = np.arange(len(sizes))
        batch = cluster._SegmentSums(svals, starts, np.array(sizes), rows)
        assert batch.step == 1 and batch.prefix.shape == (2, svals.size + 1)
        for r in rows.tolist() if sample is None else sample:
            n = sizes[r]
            sums = one_table(np.sort(tables[r], kind="stable"))
            assert sums.step == 1
            assert np.array_equal(batch.views[r].view(np.uint64), sums.views[0].view(np.uint64))
            assert batch.levels[r] == sums.levels[0]
            assert same_float(batch.square_sum[r], sums.square_sum[0])
            assert batch.units[r] == sums.units[0] and batch.squares[r] == sums.squares[0]
            assert np.array_equal(batch.places[:, r], sums.places[:, 0])
            assert sums.finer.keys() == set(sums.levels[0][1:]) <= batch.finer.keys()
            # a run of one value's limbs are that value's integer on the
            # level, or 0 off it
            bounds = np.arange(n + 1)[None]
            for level in [0, *batch.finer]:
                got = batch._limbs(bounds, batch.columns[r], level)
                if level and level not in sums.finer:
                    assert not got.any()
                else:
                    assert np.array_equal(got, sums._limbs(bounds, sums.columns[0], level))

    def test_one_pass_for_a_batch(self, monkeypatch):
        # before its first sweep, a batch reads every table's sums off one
        # pass, one _SegmentSums, at every value up to _BATCH values: for a
        # table of 102,088 values, as many as yolov3-w24's global table
        # holds, too
        real_init, real_means = cluster._SegmentSums.__init__, cluster._segment_means
        built, at_first_sweep = [], []

        def init_spy(self, *args):
            real_init(self, *args)
            built.append(self.step)

        def means_spy(totals, bounds):
            at_first_sweep.append(len(built))
            return real_means(totals, bounds)

        monkeypatch.setattr(cluster._SegmentSums, "__init__", init_spy)
        monkeypatch.setattr(cluster, "_segment_means", means_spy)
        rng = np.random.default_rng(4)
        cfg = ClusterConfig(bits=5, max_iters=3)
        for sizes in ([102_088], [2_000, 300, 7_938, 40, 1_200]):
            at_first_sweep.clear()
            values = rng.standard_normal(sum(sizes)).astype(np.float32)
            built.clear()
            kmeans_1d(values, cfg.k, cfg, lengths=None if len(sizes) == 1 else sizes)
            assert at_first_sweep[0] == 1 and built == [1]

    def test_a_table_alone_at_the_key_width(self):
        # 65,536 tables of one value need 17 bits for positions and 16 for
        # table numbers: the first batch takes 65,535 of them
        sizes = [1] * (1 << 16) + [5]
        assert [len(batch) for batch in cluster._batches(sizes)] == [(1 << 16) - 1, 2]
        rng = np.random.default_rng(6)
        values = rng.standard_normal(sum(sizes)).astype(np.float32)
        tables, assignments = kmeans_1d(values, 2, lengths=sizes)
        ones = np.array([table.centroids for table in tables[:-1]])
        assert np.array_equal(ones, np.repeat(values[:-5, None], 2, axis=1))
        assert not assignments[:-5].any()
        table, alone = kmeans_1d(values[-5:], 2)
        assert tables[-1] == table and np.array_equal(assignments[-5:], alone)


def levels_of(svals) -> list[int]:
    """The levels of _SegmentSums that svals lie on, by their definition:
    level 0 holds every whole multiple of 2**e, e being the frexp exponent p
    of the largest magnitude less 62, and any other value, of frexp
    exponent x, lies on level (p - x) // 38."""
    p = math.frexp(max(abs(float(v)) for v in svals))[1]
    levels = {0}
    for v in svals.tolist():
        if (Fraction(v) / Fraction(2) ** (p - 62)).denominator != 1:
            levels.add((p - math.frexp(v)[1]) // 38)
    return sorted(levels)


def on_grid(svals) -> bool:
    """Whether _SegmentSums puts svals on level 0 alone, one integer grid:
    every value is m * 2**e for one e with |m| < 2**62."""
    peak = max(abs(float(v)) for v in svals)
    # the exponent of each nonzero value's lowest set bit; as_integer_ratio
    # gives an odd numerator over a power of two, or an integer over 1
    lows = [
        (num & -num).bit_length() - den.bit_length()
        for num, den in (float(v).as_integer_ratio() for v in svals if v != 0)
    ]
    if not lows:
        return True
    return Fraction(peak) / Fraction(2) ** min(lows) < 2**62


@pytest.mark.usefixtures("layout")
class TestSegmentSums:
    @settings(max_examples=200, phases=UNSHRUNK)
    @given(
        style=st.sampled_from(LLOYD_STYLES),
        n=st.integers(1, 1200),
        data_seed=st.integers(0, 2**32 - 1),
        cuts=st.lists(st.tuples(st.floats(0, 1), st.floats(0, 1)), min_size=1, max_size=20),
    )
    def test_sum_is_fsum_of_the_run(self, layout, style, n, data_seed, cuts):
        svals = np.sort(lloyd_values(style, n, data_seed), kind="stable")
        sums = one_table(svals)
        assert (sums.levels == [[0]]) == on_grid(svals)
        step = 1 if layout == "dense" else cluster._STEP
        assert sums.prefix.shape == (2, n + 1 if step == 1 else n // step + 1)
        for a, b in cuts:
            lo, hi = sorted((int(a * n), int(b * n)))
            total = run_total(sums, lo, hi)
            assert same_float(total, math.fsum(svals[lo:hi]))

    def test_wide_exponents_sum_on_many_levels(self):
        rng = np.random.default_rng(1)
        wide = rng.standard_normal(4000) * 10.0 ** rng.uniform(-37, 37, 4000)
        svals = np.sort(wide.astype(np.float32).astype(np.float64))
        sums = one_table(svals)
        # 1e37 down to 1e-37 and below: 2**123 to 2**-133 and further
        assert sums.levels == [levels_of(svals)] and len(sums.levels[0]) > 4
        for _ in range(300):
            lo, hi = sorted(rng.integers(0, svals.size + 1, 2).tolist())
            total = run_total(sums, lo, hi)
            assert same_float(total, math.fsum(svals[lo:hi]))

    @pytest.mark.parametrize("count", range(1, 9))
    def test_sums_and_squares_on_each_number_of_levels(self, count):
        # float32's largest magnitudes and normal values near them on level
        # 0, odd 24-bit significands 1 to 37 bits below each finer level's
        # top, and for the eighth level float32's smallest steps
        rng = np.random.default_rng(count)
        values = [FLOAT32_MAX, -FLOAT32_MAX, *(rng.standard_normal(50) * 2.0**120)]
        for level in range(1, min(count, 7)):
            exponents = np.maximum(128 - 38 * level - rng.integers(1, 38, 20), -125)
            significands = (rng.integers(2**23, 2**24, 20) | 1) * rng.choice([-1, 1], 20)
            values += np.ldexp(significands, exponents - 24).tolist()
        if count == 8:
            values += [2.0**-149, -(2.0**-149), 3 * 2.0**-149, -5 * 2.0**-149]
        svals = np.sort(np.array(values, dtype=np.float32).astype(np.float64), kind="stable")
        assert levels_of(svals) == list(range(count))
        sums = one_table(svals)
        assert sums.levels == [list(range(count))]
        unit, n = Fraction(2) ** sums.units[0], svals.size
        squares = sum(Fraction(x) ** 2 for x in svals.tolist())
        assert sums.squares[0] * unit**2 == squares
        assert same_float(sums.square_sum[0], float(squares))
        for _ in range(20):
            bounds = np.concatenate(([0], np.sort(rng.integers(0, n + 1, 31)), [n]))
            edges = bounds.tolist()
            totals = sums.totals(bounds[None])[0]
            for got, exact, lo, hi in zip(totals.tolist(), sums.exact(0, bounds), edges,
                                          edges[1:]):
                assert same_float(got, math.fsum(svals[lo:hi].tolist()))
                assert exact * unit == sum(map(Fraction, svals[lo:hi].tolist()))

    def test_float32_extremes_stay_in_range(self):
        # the largest float32 magnitudes, many times over, and its smallest
        # step: on levels 0 and 7, every run's sum, the exact sums and the
        # sum of squares are finite, and the squares of the smallest do not
        # vanish
        tiny = [-(2.0**-149), 2.0**-149, 3 * 2.0**-149]
        svals = np.sort([-FLOAT32_MAX] * 300 + tiny + [FLOAT32_MAX] * 500)
        sums = one_table(svals)
        assert sums.levels == [[0, 7]]
        for lo in range(0, svals.size + 1, 7):
            for hi in range(lo, svals.size + 1, 11):
                total = run_total(sums, lo, hi)
                assert same_float(total, math.fsum(svals[lo:hi]))
                assert math.isfinite(total)
        want = sum(Fraction(x) ** 2 for x in svals.tolist())
        assert sums.squares[0] * Fraction(2) ** (2 * sums.units[0]) == want
        assert sums.square_sum[0] == float(want) < math.inf
        smallest = one_table(np.array([-(2.0**-149), 0.0, 2.0**-149]))
        assert smallest.square_sum[0] == 2.0**-297

    @settings(max_examples=200, phases=UNSHRUNK)
    @given(
        style=st.sampled_from(LLOYD_STYLES),
        n=st.integers(1, 600),
        data_seed=st.integers(0, 2**32 - 1),
        cuts=st.lists(st.integers(0, 600), max_size=40),
    )
    def test_means_are_fsum_means(self, style, n, data_seed, cuts):
        svals = np.sort(lloyd_values(style, n, data_seed), kind="stable")
        # short segments are common: neighbouring cuts 0, 1 or 2 apart
        inner = sorted(min(c, n) for c in cuts)
        bounds = np.array([0, *inner, n], dtype=np.int64)
        means = means_of(one_table(svals).totals(bounds[None])[0], bounds)
        for i, (lo, hi) in enumerate(zip(bounds[:-1].tolist(), bounds[1:].tolist())):
            if hi == lo:
                assert np.isnan(means[i])
            else:
                assert same_float(float(means[i]), math.fsum(svals[lo:hi]) / (hi - lo))

    @settings(max_examples=300, phases=UNSHRUNK)
    @given(
        # float32's 24-bit significands shifted apart by up to 40 bits span
        # 24 to 64 bits, either side of the grid's 62; e reaches float32's
        # subnormals and its largest values
        parts=st.lists(
            st.tuples(st.integers(-(2**24) + 1, 2**24 - 1), st.integers(0, 40)),
            min_size=1,
            max_size=200,
        ),
        e=st.one_of(st.integers(-149, 64), st.sampled_from([-149, -126, -1, 0, 64])),
        cuts=st.lists(st.integers(0, 200), max_size=30),
    )
    def test_means_about_the_grid_edges_are_fsum_means(self, parts, e, cuts):
        svals = np.sort([math.ldexp(m, shift + e) for m, shift in parts], kind="stable")
        assert np.array_equal(svals.astype(np.float32), svals)
        n = svals.size
        sums = one_table(svals)
        assert (sums.levels == [[0]]) == on_grid(svals)
        bounds = np.array([0, *sorted(min(c, n) for c in cuts), n], dtype=np.int64)
        edges = bounds.tolist()
        want = [
            math.fsum(svals[lo:hi].tolist()) / (hi - lo) if hi > lo else None
            for lo, hi in zip(edges, edges[1:])
        ]
        means = means_of(sums.totals(bounds[None])[0], bounds)
        for got, mean in zip(means.tolist(), want):
            assert np.isnan(got) if mean is None else same_float(got, mean)

    # (values, whether they lie on level 0 of _SegmentSums alone, its
    # integer grid); every value is a float32 one, with a significand of at
    # most 24 bits
    CRAFTED = {
        # a float sum in ascending order loses each 1.0 against -2**54 and
        # gives 0.0, fsum 4.0
        "float-sum-rounds": ([-(2.0**54), 1.0, 1.0, 1.0, 1.0, 2.0**54], True),
        # every partial sum an integer below 2**53, and one bit past that
        "at-the-limit": ([-(2.0**51 - 2.0**28), 3.0, 2.0**50 + 2.0**27, 2.0**51 - 2.0**28],
                         True),
        "at-the-limit-equal": ([2.0**51 - 2.0**28] * 4, True),
        "past-the-limit-length": ([2.0**51 - 2.0**28] * 5, True),
        "past-the-limit-magnitude": ([2.0**52 - 2.0**29] * 4, True),
        "mixed-signs": ([-3.5, -1.25, -0.0, 0.0, 0.75, 2.0, 7.75], True),
        "mixed-signs-cancel": ([-(2.0**60), -1.0, 1.0, 2.0**60], True),
        "length-3": (np.array([0.1, 0.2, 0.3], dtype=np.float32), True),
        "block-of-128": (np.arange(128) * 2.0**40 - 2.0**46, True),
        "integers-129": (np.arange(129) * 1.0, True),
        # |m| < 2**62 at e = 0 on the one side, |m| = 2**62 on the other
        "span-62-bits": ([-(2.0**61 + 2.0**38), -3.0, 1.0, 2.0**61 + 2.0**39], True),
        "span-63-bits": ([-(2.0**62), -3.0, 1.0], False),
        # hi = m >> 31 rounds toward -inf, so every negative m borrows from lo
        "negative": ((-(np.arange(1, 100) ** 7 * 0.75)).astype(np.float32), True),
        "negative-small": ([-(2.0**-31), -3.0 * 2.0**-40, -(2.0**-60)], True),
        "signed-zeros": ([-0.0, -0.0, 0.0, -0.0], True),
        "negative-zeros-3": ([-0.0] * 3, True),
        "negative-zeros-128": ([-0.0] * 128, True),
        "zeros-that-cancel": ([-1.5, -0.0, -0.0, 0.0, 1.5], True),
        # float32's subnormals lie on a grid of their own, e = -206
        "subnormals": (np.arange(-20, 21) * 2.0**-149, True),
        "subnormal-beside-normal": (np.array([2.0**-149, 1e-20, 1e-20], dtype=np.float32),
                                    False),
        # the small values lie below one step of the grid, 2**38
        "tiny-beside-huge": (np.array([1e-30, 3e-30, 1e30], dtype=np.float32), False),
        # the float32 range's ends: the grid's e is 66, and no sum of the
        # values, on the grid or off it, overflows
        "largest": ([-FLOAT32_MAX] * 7 + [FLOAT32_MAX] * 129, True),
        "largest-and-smallest": ([-FLOAT32_MAX, -(2.0**-149), 2.0**-149, FLOAT32_MAX] * 9,
                                 False),
    }

    @pytest.mark.parametrize("case", sorted(CRAFTED))
    def test_crafted_runs_are_fsum_exact(self, case, monkeypatch):
        values, grid = self.CRAFTED[case]
        svals = np.sort(np.asarray(values, dtype=np.float64), kind="stable")
        assert np.array_equal(svals.astype(np.float32), svals)
        n = svals.size
        real, combined = cluster._SegmentSums.exact, []

        def spy(self, row, bounds):
            combined.append(bounds.tolist())
            return real(self, row, bounds)

        monkeypatch.setattr(cluster._SegmentSums, "exact", spy)
        sums = one_table(svals)
        assert on_grid(svals) == grid
        assert (sums.levels == [[0]]) == grid
        for lo in range(n + 1):
            for hi in range(lo, n + 1):
                total = run_total(sums, lo, hi)
                assert same_float(total, math.fsum(svals[lo:hi]))
        bounds = np.array([0, n // 3, n // 2, n])
        means = means_of(sums.totals(bounds[None])[0], bounds)
        for i in range(3):
            lo, hi = bounds[i], bounds[i + 1]
            if hi > lo:
                assert same_float(float(means[i]), math.fsum(svals[lo:hi]) / (hi - lo))
        # totals combine the levels' sums only for a table on several
        assert bool(combined) != grid

    def test_crafted_trap_defeats_a_float_sum(self):
        values, _ = self.CRAFTED["float-sum-rounds"]
        assert float(np.add.reduce(np.array(values))) != math.fsum(values)

    def test_negative_zero_pairs_mean_positive_zero(self):
        # fsum([-0.0]) and fsum([-0.0, -0.0]) are +0.0, where -0.0 + -0.0 is -0.0
        svals = np.array([-0.0, -0.0, -0.0, 1.0, 2.0, 3.0])
        bounds = np.array([0, 1, 3, 6])
        means = means_of(one_table(svals).totals(bounds[None])[0], bounds)
        assert means.tolist() == [0.0, 0.0, 2.0]
        assert not np.signbit(means).any()

    def test_limb_difference_past_2_53_rounds_once(self):
        # 2**22 values of 2**62 - 2**10 and 1, 2**31 and 2**32 sum to
        # 2**84 + 2**31 + 1, just above the tie between 2**84 and its next
        # float. With five zeros the run fills whole blocks, so its limb
        # difference is hi = 2**53 + 1, lo = 1. float64 cannot hold that hi:
        # converting it on its own rounds it to 2**53, and the sum then
        # rounds down to 2**84
        big = 2.0**62 - 2.0**10
        small = [0.0] * 5 + [1.0, 2.0**31, 2.0**32]
        svals = np.concatenate((small, np.full(1 << 22, big)))
        exact = 2**84 + 2**31 + 1
        assert divmod(exact, 2**31) == (2**53 + 1, 1)
        assert float(2**53 + 1) * 2.0**31 + 1.0 == 2.0**84 != float(exact)
        sums = one_table(svals)
        assert sums.levels == [[0]]
        n = svals.size
        assert n % cluster._STEP == 0
        for lo, hi in ((0, n), (5, n), (1, n - 5)):
            total = run_total(sums, lo, hi)
            assert same_float(total, math.fsum(svals[lo:hi].tolist()))
        assert run_total(sums, 0, n) == float(exact) == 2.0**84 + 2.0**32

    def test_fp32_normal_values_take_the_grid(self, monkeypatch):
        values = np.random.default_rng(17).standard_normal(1 << 20).astype(np.float32)
        assert one_table(np.sort(values.astype(np.float64))).levels == [[0]]
        real, levels = cluster._SegmentSums.__init__, []

        def spy(self, *args):
            real(self, *args)
            levels.extend(self.levels)

        monkeypatch.setattr(cluster._SegmentSums, "__init__", spy)
        kmeans_1d(lloyd_values("normal", 20000, 17), 256, ClusterConfig(max_iters=10))
        assert levels == [[0]]


def sweep_sse(svals, centroids, bounds):
    """The _SegmentSums of one sorted table, and the state that _sweeps keeps of
    its sweep to centroids and bounds: (centroids, bounds, lo, hi, exact
    SSEs by row) of a batch of one."""
    tables = one_table(svals)
    centroids, bounds = centroids[None], bounds[None]
    lo, hi = cluster._sse_bracket(tables.square_sum, centroids, bounds, tables.totals(bounds))
    return tables, (centroids, bounds, lo, hi, {})


def bracket(sums, centroids, bounds):
    """_sse_bracket of one table: its (lo, hi)."""
    lo, hi = cluster._sse_bracket(sums.square_sum, centroids[None], bounds[None],
                                  sums.totals(bounds[None]))
    return lo[0], hi[0]


def fraction_sse(svals, centroids, bounds) -> float:
    """The SSE as the sweeps check it, straight from its definition: the
    sum of every (x - c)**2 over the non-empty segments, in Fractions,
    rounded once to float64."""
    total = Fraction(0)
    edges = np.asarray(bounds).tolist()
    for c, lo, hi in zip(np.asarray(centroids).tolist(), edges, edges[1:]):
        total += sum((Fraction(x) - Fraction(c)) ** 2 for x in svals[lo:hi].tolist())
    return float(total)


def one_segment_sse(values, c) -> float:
    """Σ (x - c)**2 over values, exact, rounded once to float64."""
    return float(sum((Fraction(x) - Fraction(c)) ** 2 for x in values))


def sweep_state(svals, rng, k, spread):
    """Sorted centroids near the values, and bounds: the nearest-centroid
    ones or arbitrary cuts, some segments left empty."""
    picks = rng.choice(svals, k)
    centroids = np.sort(picks + spread * rng.standard_normal(k) * np.abs(picks))
    if rng.random() < 0.5:
        return centroids, cluster._segment_bounds([svals], centroids[None])[0]
    cuts = np.sort(rng.integers(0, svals.size + 1, k - 1))
    return centroids, np.concatenate(([0], cuts, [svals.size]))


@pytest.mark.usefixtures("layout")
class TestSweepSSE:
    """The sweeps' exact SSE and the bracket that their check decides from."""

    @settings(max_examples=200, phases=UNSHRUNK)
    @given(
        style=st.sampled_from(LLOYD_STYLES + ("huge", "tiny")),
        n=st.integers(1, 300),
        data_seed=st.integers(0, 2**32 - 1),
        k=st.integers(1, 40),
        spread=st.sampled_from([0.0, 1e-12, 1e-3, 1.0]),
    )
    def test_exact_and_bracket_hold_the_fraction_sse(self, style, n, data_seed, k, spread):
        rng = np.random.default_rng(data_seed)
        if style == "huge":
            # up to float32's largest: squares near 2**256, and none overflows
            values = (rng.uniform(-1.0, 1.0, n) * FLOAT32_MAX).astype(np.float32)
        elif style == "tiny":
            # a few times float32's smallest step: squares and products near
            # 2**-298, far above float64's subnormals, so the bound needs no
            # underflow term
            values = rng.integers(-(2**10), 2**10, n) * 2.0**-149
        else:
            values = lloyd_values(style, n, data_seed)
        svals = np.sort(np.asarray(values, dtype=np.float64), kind="stable")
        centroids, bounds = sweep_state(svals, rng, k, spread)
        sums = one_table(svals)
        tables, state = sweep_sse(svals, centroids, bounds)
        want = fraction_sse(svals, centroids, bounds)
        assert same_float(cluster._exact_sse(tables, 0, centroids, bounds), want)
        lo, hi = bracket(sums, centroids, bounds)
        assert lo <= want <= hi
        assert (lo, hi) == (state[2][0], state[3][0])

    # (values, centroids, bounds, the exact SSE rounded once); every value
    # is a float32 one
    CRAFTED = {
        # the float32 range's ends: (x - c)**2 reaches 2**258, and the SSE
        # stays finite
        "largest": ([-FLOAT32_MAX, FLOAT32_MAX], [0.0], [0, 2], 2 * FLOAT32_MAX**2),
        "largest-difference": ([-FLOAT32_MAX, FLOAT32_MAX], [FLOAT32_MAX], [0, 2],
                               4 * FLOAT32_MAX**2),
        # float32's smallest steps: the SSE is 2**-297, where it would be
        # 0.0 for float64's subnormals
        "subnormal": ([2.0**-149, 3 * 2.0**-149], [2.0**-148], [0, 2], 2.0**-297),
        "exact-zero": ([-0.0, 0.0, 3.0], [0.0, 3.0], [0, 2, 3], 0.0),
        # an empty segment's centroid does not count, however far it lies
        "empty-far": ([1.0, 3.0], [2.0, FLOAT32_MAX], [0, 2, 2], 2.0),
        # Σx² and 2 Σ c·S cancel to 14 digits: the SSE is 2**15 of 2**61
        "cancellation": ([2.0**30 - 2.0**7, 2.0**30 + 2.0**7], [2.0**30], [0, 2], 2.0**15),
        # centroids whose lowest bits lie far below the unit of the exact
        # sums, on the grid (2**-59) and off it (2**-149)
        "fine-centroid": ([1.0, 2.0, 4.0], [2.0**-40 / 3], [0, 3],
                          one_segment_sse([1.0, 2.0, 4.0], 2.0**-40 / 3)),
        "fine-centroid-off-the-grid": ([2.0**-149, 2.0**66], [2.0**-149 / 3, 2.0**66], [0, 1, 2],
                                       one_segment_sse([2.0**-149], 2.0**-149 / 3)),
    }

    @pytest.mark.parametrize("case", sorted(CRAFTED))
    def test_crafted_sses(self, case):
        values, centroids, bounds, want = self.CRAFTED[case]
        svals = np.asarray(values, dtype=np.float64)
        assert np.array_equal(svals.astype(np.float32), svals)
        centroids, bounds = np.asarray(centroids, dtype=np.float64), np.asarray(bounds)
        assert same_float(fraction_sse(svals, centroids, bounds), want)
        sums = one_table(svals)
        tables, state = sweep_sse(svals, centroids, bounds)
        assert same_float(cluster._exact_sse(tables, 0, centroids, bounds), want)
        lo, hi = bracket(sums, centroids, bounds)
        assert lo <= want <= hi

    def test_check_is_the_exact_comparison(self, layout, monkeypatch):
        # pairs of sweeps far apart, and pairs whose SSEs lie within the
        # 1e-9 tolerance of each other; on values near 1e6 with a small
        # spread the brackets are often too wide to decide, on the spread-out
        # ones not
        real_exact, exacts = cluster._exact_sse, []

        def spy(*args):
            exacts.append(None)
            return real_exact(*args)

        monkeypatch.setattr(cluster, "_exact_sse", spy)
        outcomes = set()
        rng = np.random.default_rng(3)
        for offset, spread in ((0.0, 1.0), (1e6, 1e-3)):
            svals = np.sort(offset + spread * rng.standard_normal(200).astype(np.float32))
            sums = one_table(svals)
            assert sums.levels == [[0]]
            for trial in range(40):
                centroids, bounds = sweep_state(svals, rng, 8, 1e-9 * (trial % 4))
                # the same bounds with one centroid moved by 0 to 8 ulp
                moved, toward = centroids.copy(), (-np.inf, np.inf)[trial % 2]
                for _ in range(trial % 9):
                    moved[trial % 8] = np.nextafter(moved[trial % 8], toward)
                states = [(centroids, bounds), (moved, bounds),
                          sweep_state(svals, rng, 8, 1e-9 * (trial % 4))]
                for i, j in ((0, 1), (1, 0), (0, 2), (2, 0)):
                    (_, first), (tables, second) = (sweep_sse(svals, *states[x]) for x in (i, j))
                    want = (fraction_sse(svals, *states[j])
                            > fraction_sse(svals, *states[i]) * (1.0 + 1e-9))
                    before = len(exacts)
                    assert cluster._increased(tables, second, first, None, [0]) == want
                    outcomes.add((want, len(exacts) > before))
        # both outcomes, each decided by the filter and by the exact form
        assert outcomes == {(False, False), (False, True), (True, False), (True, True)}

    def test_square_sum_of_extreme_limbs(self):
        # float32 values on their grid: below 2**62, 24 significant bits
        top = 2**62 - 2**38
        for m in ([top] * cluster._CHUNK, [-top] * cluster._CHUNK, [0, 1, -1, top, -top],
                  [2**24 - 1, (2**24 - 1) << 18, 2**42, -(2**21), 3 << 40, 2**61]):
            want = sum(v * v for v in m)
            assert cluster._square_sums(np.array(m, dtype=np.float64), [0]) == [want]
            cuts = [0, 1, len(m) // 2]
            edges = cuts + [len(m)]
            assert cluster._square_sums(np.array(m, dtype=np.float64), cuts) == [
                sum(v * v for v in m[a:b]) for a, b in zip(edges, edges[1:])]

    @settings(max_examples=100, phases=UNSHRUNK)
    @given(
        style=st.sampled_from(LLOYD_STYLES),
        n=st.integers(1, 400),
        data_seed=st.integers(0, 2**32 - 1),
        cuts=st.lists(st.integers(0, 400), max_size=20),
    )
    def test_exact_sums_and_squares(self, style, n, data_seed, cuts):
        svals = np.sort(lloyd_values(style, n, data_seed), kind="stable")
        sums = one_table(svals)
        unit = Fraction(2) ** sums.units[0]
        assert sums.squares[0] * unit**2 == sum(Fraction(x) ** 2 for x in svals.tolist())
        bounds = np.array([0, *sorted(min(c, n) for c in cuts), n], dtype=np.int64)
        edges = bounds.tolist()
        for got, lo, hi in zip(sums.exact(0, bounds), edges, edges[1:]):
            assert got * unit == sum(map(Fraction, svals[lo:hi].tolist()))

    @pytest.mark.parametrize("levels", [[0], [0, 1, 2]], ids=["one-level", "three-levels"])
    @pytest.mark.parametrize("form", ["filter", "exact"])
    def test_sweeps_do_no_work_per_value(self, layout, form, levels, monkeypatch):
        # Every sweep after the first, measured from one call of
        # _segment_means to the next. An O(n) step either allocates at
        # least a byte per value (a bool mask or a Python list alike), or
        # hands a numpy function an array of n values (a dot, or a ufunc
        # that writes into a buffer held across sweeps); searchsorted, which
        # reads O(k log n) of them, is the one exception.
        if form == "exact":
            monkeypatch.setattr(cluster, "_sse_bracket", no_bracket)
        real_means, real_init = cluster._segment_means, cluster._SegmentSums.__init__
        held, peaks, exacts = [], [], []
        numpy_spy = LargestArgument(exempt=("searchsorted",))

        def init_spy(self, *args):
            real_init(self, *args)
            held.extend(self.levels)

        def means_spy(totals, bounds):
            current, peak = tracemalloc.get_traced_memory()
            peaks.append((peak - current, numpy_spy.largest))
            tracemalloc.reset_peak()
            numpy_spy.largest = 0
            return real_means(totals, bounds)

        def no_reseed(dist, e, bounds):
            raise AssertionError("a sweep reseeded")

        real_exact = cluster._exact_sse

        def exact_spy(*args):
            exacts.append(None)
            return real_exact(*args)

        monkeypatch.setattr(cluster._SegmentSums, "__init__", init_spy)
        monkeypatch.setattr(cluster, "_segment_means", means_spy)
        monkeypatch.setattr(cluster, "_farthest", no_reseed)
        monkeypatch.setattr(cluster, "_exact_sse", exact_spy)
        monkeypatch.setattr(cluster, "np", numpy_spy)
        n = 1 << 18
        values = np.random.default_rng(12).standard_normal(n).astype(np.float32)
        if len(levels) > 1:
            # below the normal values' level-0 grid, 2**-59: levels 1 and 2
            values[[7, 5000, 90000]] = [1e-13, -3e-30, 2e-13]
        tracemalloc.start()
        try:
            kmeans_1d(values, 32, ClusterConfig(bits=5, max_iters=30, tol=0.0))
        finally:
            tracemalloc.stop()
        assert held == [levels]
        assert len(peaks) == 30
        # the setup, measured by the first call, does take O(n) steps
        assert peaks[0][1] >= n
        for allocated, largest in peaks[1:]:
            assert allocated < n and largest < n
        # the filter decides every check on this table; the exact form
        # takes each sweep's SSE once, the first sweep's for the second's
        # check
        assert len(exacts) == (0 if form == "filter" else 30)


class LargestArgument:
    """Stands in for numpy in a module's namespace and keeps the size of
    the largest array passed to any numpy function, ufunc or ufunc method,
    but for the functions named in exempt."""

    def __init__(self, exempt=(), target=np, owner=None):
        self.largest, self._exempt, self._target = 0, exempt, target
        self._owner = self if owner is None else owner

    def __getattr__(self, name):
        attr = getattr(self._target, name)
        if name in self._exempt or isinstance(attr, type) or not callable(attr):
            return attr
        if isinstance(attr, np.ufunc):  # called, or its reduce taken
            return LargestArgument(target=attr, owner=self._owner)

        def call(*args, **kwargs):
            for arg in (*args, *kwargs.values()):
                if isinstance(arg, np.ndarray):
                    self._owner.largest = max(self._owner.largest, arg.size)
            return attr(*args, **kwargs)

        return call

    def __call__(self, *args, **kwargs):
        return self.__getattr__("__call__")(*args, **kwargs)


class TestQuantization:
    def test_sse_by_hand(self):
        table = CentroidTable(np.array([0.0, 4.0], dtype=np.float32))
        conv = ConvParams(0, np.zeros(1), np.array([0.0, 1.0, 4.0]))
        model = ClusteredModel(
            "all_layers", 1, (ClusterEntry(None, table, pack_indices([0, 0, 1], 1)),)
        )
        weights = DarknetWeights(0, 2, 0, 0, (conv,))
        assert model_sse(model, weights) == [1.0]

    def test_dequantize_by_hand(self):
        # one global stream over two convs: each takes its own span
        table = CentroidTable(np.array([-1.5, 0.25, 3.0], dtype=np.float32))
        packed = pack_indices([2, 0, 1, 1], 2)
        model = ClusteredModel("all_layers", 2, (ClusterEntry(None, table, packed),))
        convs = (
            ConvParams(0, np.zeros(1), np.zeros(1)),
            ConvParams(2, np.ones(1), np.zeros(3)),
        )
        weights = DarknetWeights(0, 2, 0, 0, convs)
        got = dequantize(model, weights)
        assert [c.kernel.tolist() for c in got.convs] == [[3.0], [-1.5, 0.25, 0.25]]
        assert [c.layer_index for c in got.convs] == [0, 2]
        assert got.convs[1].biases.tolist() == [1.0]
        assert got.convs[0].kernel.dtype == np.float32

    def test_dequantize_matches_whole_stream_decode(self, model, folded):
        # centroids of the whole stream's decode, sliced at each conv's base
        dequantized = dequantize(model, folded)
        for entry, layers in model.spans(folded):
            stream = entry.table.centroids[
                unpack_indices(entry.packed, 0, entry.packed.count)
            ]
            for conv, base in layers:
                want = stream[base : base + conv.n_weights]
                got = dequantized.conv_for_layer(conv.layer_index).kernel
                assert got.dtype == want.dtype
                assert np.array_equal(got.view(np.uint32), want.view(np.uint32))
        assert [c.layer_index for c in dequantized.convs] == [
            c.layer_index for c in folded.convs
        ]

    def test_entry_range_check(self):
        # a 2-entry table cannot take index 3 of a 2-bit stream
        table = CentroidTable(np.array([1.0, 2.0], dtype=np.float32))
        packed = pack_indices([0, 3, 1], 2)
        with pytest.raises(ValueError, match="index 3 out of range for 2-entry table"):
            ClusterEntry(None, table, packed)


class TestWeightsIO:
    def test_roundtrip_is_byte_identical(self, toy_weights, toy_weights_bytes):
        assert write_darknet_weights(toy_weights) == toy_weights_bytes

    def test_two_parameter_sets_for_one_layer_are_rejected(self, toy_weights):
        # run_network would use the last one, and a global table cluster both
        first, second = toy_weights.convs[:2]
        twice = replace(second, layer_index=first.layer_index)
        message = f"^two parameter sets for conv layer {first.layer_index}$"
        with pytest.raises(ValueError, match=message):
            replace(toy_weights, convs=(first, twice, *toy_weights.convs[2:]))
        with pytest.raises(ValueError, match="conv layer 7"):
            DarknetWeights(0, 2, 0, 0, (replace(first, layer_index=7),) * 2)

    def test_header_and_layout(self, toy_net, toy_weights):
        assert (toy_weights.major, toy_weights.minor, toy_weights.revision) == (0, 2, 0)
        assert toy_weights.seen == 0
        conv_indexes = [
            i for i, layer in enumerate(toy_net.layers) if layer.kind == "convolutional"
        ]
        assert [c.layer_index for c in toy_weights.convs] == conv_indexes
        for conv, index in zip(toy_weights.convs, conv_indexes):
            layer = toy_net.layers[index]
            spec = layer.conv
            assert conv.batch_normalized == spec.batch_normalize
            assert conv.biases.size == spec.filters
            expected = spec.filters * layer.in_shape.c * spec.kernel**2
            assert conv.n_weights == expected

    @pytest.mark.parametrize(
        "major, minor, seen_format",
        [(0, 1, "<I"), (0, 2, "<Q"), (1, 0, "<Q"), (1000, 0, "<I"), (0, 1000, "<I")],
    )
    def test_seen_width_follows_header_version(
        self, toy_net, toy_weights, toy_weights_bytes, major, minor, seen_format
    ):
        # Darknet reads a 64-bit seen only from version 0.2 on, major and minor < 1000
        payload = (
            struct.pack("<3i", major, minor, 7)
            + struct.pack(seen_format, 123456)
            + toy_weights_bytes[20:]
        )
        parsed = read_darknet_weights(payload, toy_net)
        assert (parsed.major, parsed.minor, parsed.revision) == (major, minor, 7)
        assert parsed.seen == 123456
        assert parsed.convs == toy_weights.convs
        assert write_darknet_weights(parsed) == payload

    def test_conv_lookup(self, toy_weights):
        assert toy_weights.conv_for_layer(0).layer_index == 0
        with pytest.raises(KeyError, match="no conv parameters for layer 2"):
            toy_weights.conv_for_layer(2)

    def test_each_field_is_read_with_one_copy(self):
        # a conv of 147,456 weights: reading it allocates its kernel, 4 bytes
        # a weight, and no copy of the payload's bytes besides
        net = parse_config("[net]\nwidth=8\nheight=8\nchannels=64\n\n"
                           "[convolutional]\nbatch_normalize=1\nfilters=256\nsize=3\n"
                           "stride=1\npad=1\nactivation=leaky\n")
        data = weights_blob(net, seed=3)
        tracemalloc.start()
        try:
            weights = read_darknet_weights(data, net)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        (conv,) = weights.convs
        assert conv.n_weights == 147_456
        assert peak < 5 * conv.n_weights
        for field in (conv.biases, conv.kernel, conv.scales, conv.rolling_mean, conv.rolling_var):
            assert field.base is None and field.flags.writeable
        assert write_darknet_weights(weights) == data

    def test_truncation_names_what_is_missing(self, toy_net, toy_weights_bytes):
        with pytest.raises(WeightsFormatError, match="truncated.*kernel"):
            read_darknet_weights(toy_weights_bytes[:-8], toy_net)
        with pytest.raises(WeightsFormatError, match="truncated.*header"):
            read_darknet_weights(b"\x00" * 4, toy_net)

    @settings(max_examples=300)
    @given(data=st.data())
    def test_mutated_payload_raises_only_typed_errors(
        self, toy_net, toy_weights_bytes, data
    ):
        payload = bytearray(toy_weights_bytes)
        action = data.draw(st.sampled_from(["truncate", "overwrite", "extend"]))
        # the 20 header bytes decide how the rest is read, so aim there often
        at = data.draw(
            st.one_of(st.integers(0, 23), st.integers(0, len(payload) - 1)), label="at"
        )
        if action == "truncate":
            del payload[at:]
        elif action == "overwrite":
            patch = data.draw(st.binary(min_size=1, max_size=8), label="patch")
            payload[at : at + len(patch)] = patch
        else:
            payload += data.draw(st.binary(min_size=1, max_size=64), label="tail")
        try:
            parsed = read_darknet_weights(bytes(payload), toy_net)
        except ValueError:
            return
        # a payload that parses is read in full, never misread
        assert write_darknet_weights(parsed) == bytes(payload)

    def test_trailing_bytes_rejected(self, toy_net, toy_weights_bytes):
        with pytest.raises(WeightsFormatError, match="trailing"):
            read_darknet_weights(toy_weights_bytes + b"\x00" * 4, toy_net)

    def test_bn_arrays_all_or_nothing(self):
        with pytest.raises(ValueError, match="together"):
            ConvParams(
                layer_index=0,
                biases=np.zeros(1, dtype=np.float32),
                kernel=np.zeros(9, dtype=np.float32),
                scales=np.ones(1, dtype=np.float32),
            )

    @pytest.mark.parametrize("field", ["scales", "rolling_mean", "rolling_var"])
    def test_bn_arrays_hold_one_value_per_bias(self, field):
        # one value for four filters would broadcast silently in
        # fold_batch_norm
        arrays = {name: np.ones(4) for name in ("scales", "rolling_mean", "rolling_var")}
        arrays[field] = np.ones(1)
        with pytest.raises(ValueError, match="must hold 4 values, one per bias"):
            ConvParams(0, np.zeros(4), np.zeros(8), **arrays)

    @pytest.mark.parametrize("biases, weights", [(4, 6), (0, 1), (3, 2)])
    def test_kernel_holds_whole_filters(self, biases, weights):
        with pytest.raises(ValueError, match=f"no whole number of {biases} filters"):
            ConvParams(0, np.zeros(biases), np.zeros(weights))


class TestFoldBatchNorm:
    def test_matches_float64_formula(self, toy_weights):
        conv = toy_weights.convs[0]
        assert conv.batch_normalized
        out = fold_batch_norm(toy_weights).convs[0]
        factor = conv.scales.astype(np.float64) / np.sqrt(
            conv.rolling_var.astype(np.float64) + 1e-6
        )
        kernel = (
            conv.kernel.astype(np.float64).reshape(conv.biases.size, -1)
            * factor[:, None]
        ).reshape(-1)
        bias = conv.biases.astype(np.float64) - factor * conv.rolling_mean.astype(
            np.float64
        )
        assert np.array_equal(out.kernel, kernel.astype(np.float32))
        assert np.array_equal(out.biases, bias.astype(np.float32))
        assert not out.batch_normalized

    def test_plain_convs_untouched(self, toy_weights, folded):
        plain = [c for c in toy_weights.convs if not c.batch_normalized]
        assert plain
        for conv in plain:
            assert folded.convs[toy_weights.convs.index(conv)] == conv

    def test_fold_is_idempotent(self, folded):
        assert fold_batch_norm(folded) == folded


class TestClusterModel:
    def test_global_scope_structure(self, folded):
        model = cluster_model(folded, ClusterConfig(bits=5))
        assert model.scope == "all_layers"
        assert len(model.entries) == 1
        entry = model.entries[0]
        assert entry.layer_id is None
        assert entry.table.k == 32
        assert model.total_count == sum(c.n_weights for c in folded.convs)
        dequantized = dequantize(model, folded)
        assert [c.kernel.shape for c in dequantized.convs] == [
            c.kernel.shape for c in folded.convs
        ]

    def test_per_layer_scope_structure(self, folded):
        model = cluster_model(folded, ClusterConfig(scope="per_layer", bits=5))
        assert [e.layer_id for e in model.entries] == [
            c.layer_index for c in folded.convs
        ]
        for entry, conv in zip(model.entries, folded.convs):
            assert entry.packed.count == conv.n_weights

    def test_model_sse_matches_quantization(self, folded):
        model = cluster_model(folded, ClusterConfig(bits=5))
        [sse] = model_sse(model, folded)
        stream = np.concatenate([c.kernel for c in folded.convs])
        recon = np.concatenate([c.kernel for c in dequantize(model, folded).convs])
        d = stream.astype(np.float64) - recon.astype(np.float64)
        assert sse == pytest.approx(float(np.dot(d, d)), rel=1e-12)

    @pytest.mark.parametrize("block", [1, 7, 100, 1 << 15])
    def test_model_sse_is_bitwise_that_of_dequantize(self, model, folded, monkeypatch, block):
        # the blocks cross conv boundaries, and no bit of the SSE follows them
        rebuilt, want = dequantize(model, folded), []
        for _, layers in model.spans(folded):
            d = np.concatenate([c.kernel for c, _ in layers], dtype=np.float64)
            d -= np.concatenate(
                [rebuilt.conv_for_layer(c.layer_index).kernel for c, _ in layers]
            )
            want.append(float(np.einsum("i,i->", d, d)))
        monkeypatch.setattr(cluster, "_SSE_BLOCK", block)
        got = model_sse(model, folded)
        assert np.array(got).view(np.uint64).tolist() == np.array(want).view(np.uint64).tolist()

    def test_model_sse_peak_memory_per_weight(self):
        # one float64 difference per table, 8 bytes per weight, with the
        # reconstruction decoded and subtracted in place block by block: no
        # fp32 copy of the kernels, no BLAS buffers
        n = 1 << 20
        rng = np.random.default_rng(9)
        kernels = rng.standard_normal(n).astype(np.float32)
        quarter = n // 4
        convs = tuple(
            ConvParams(i, np.zeros(1), kernels[i * quarter : (i + 1) * quarter])
            for i in range(4)
        )
        weights = DarknetWeights(0, 2, 0, 0, convs)
        table = CentroidTable(np.linspace(-4, 4, 256, dtype=np.float32))
        idx = rng.integers(0, 256, n)
        model = ClusteredModel(
            "all_layers", 8, (ClusterEntry(None, table, pack_indices(idx, 8)),)
        )
        tracemalloc.start()
        try:
            [sse] = model_sse(model, weights)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / n <= 8.5
        d = kernels.astype(np.float64) - table.centroids[idx].astype(np.float64)
        assert sse == pytest.approx(math.fsum(d * d), rel=1e-12)

    def test_json_does_not_depend_on_blas_threads(self, tmp_path):
        # over 100 K weights, OpenBLAS splits a dot product between its
        # threads, and the rounding of the sum follows the split
        cfg = "[net]\nwidth=4\nheight=4\nchannels=128\n\n" \
              "[convolutional]\nfilters=96\nsize=3\nstride=1\npad=1\nactivation=linear\n"
        cfg_path, weights_path = tmp_path / "wide.cfg", tmp_path / "wide.weights"
        cfg_path.write_text(cfg)
        weights_path.write_bytes(weights_blob(parse_config(cfg), seed=4))
        src = os.path.dirname(os.path.dirname(cluster.__file__))
        reports = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, SOURCE_DATE_EPOCH="0",
                       PYTHONPATH=src)
            report = tmp_path / f"threads-{threads}.json"
            subprocess.run(
                [sys.executable, "-m", "convwatt.cli", "cluster", str(cfg_path),
                 str(weights_path), "--bits", "5", "--max-iters", "3",
                 "--out", str(tmp_path / "wide.cwts"), "--json", str(report)],
                env=env, check=True, capture_output=True,
            )
            reports.append(report.read_bytes())
        assert reports[0] == reports[1]

    def test_model_sse_count_mismatch(self, folded):
        model = cluster_model(folded, ClusterConfig(bits=5))
        entry = model.entries[0]
        shorter = ClusterEntry(
            None,
            entry.table,
            pack_indices(unpack_indices(entry.packed, 0, entry.packed.count - 1), 5),
        )
        broken = ClusteredModel(scope="all_layers", bits=5, entries=(shorter,))
        with pytest.raises(ValueError, match="covers"):
            model_sse(broken, folded)

    def test_needs_conv_layers(self):
        empty = DarknetWeights(0, 2, 0, 0, ())
        with pytest.raises(ValueError, match="no conv layers"):
            cluster_model(empty, ClusterConfig())

    def test_per_layer_wins_on_disjoint_ranges(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            convs = tuple(
                ConvParams(
                    layer_index=i,
                    biases=np.zeros(2, dtype=np.float32),
                    kernel=rng.normal(center, 0.05, 64).astype(np.float32),
                )
                for i, center in enumerate((-8.0, 8.0))
            )
            weights = DarknetWeights(0, 2, 0, 0, convs)
            shared = cluster_model(weights, ClusterConfig(bits=3))
            per_layer = cluster_model(weights, ClusterConfig(scope="per_layer", bits=3))
            global_sse = sum(model_sse(shared, weights))
            per_sse = sum(model_sse(per_layer, weights))
            assert per_sse <= global_sse

    def test_model_validation(self):
        table = CentroidTable(np.array([0.0], dtype=np.float32))
        packed = pack_indices([0, 0], 2)
        entry = ClusterEntry(None, table, packed)
        with pytest.raises(ValueError, match="exactly one global table"):
            ClusteredModel(scope="all_layers", bits=2, entries=(entry, entry))
        with pytest.raises(ValueError, match="layer id"):
            ClusteredModel(scope="per_layer", bits=2, entries=(entry,))
        with pytest.raises(ValueError, match="two tables for one layer"):
            ClusteredModel(scope="per_layer", bits=2, entries=(
                ClusterEntry(0, table, packed), ClusterEntry(0, table, packed)
            ))
        with pytest.raises(ValueError, match="width disagrees"):
            ClusteredModel(scope="all_layers", bits=3, entries=(entry,))
        big = CentroidTable(np.zeros(5, dtype=np.float32))
        with pytest.raises(ValueError, match="larger"):
            ClusteredModel(
                scope="all_layers", bits=2, entries=(ClusterEntry(None, big, packed),)
            )
        with pytest.raises(ValueError, match="at least one"):
            ClusteredModel(scope="all_layers", bits=2, entries=())


def per_layer_model(tables):
    """A 1-bit per-layer model with one table per (layer id, index count)."""
    table = CentroidTable(np.array([0.0, 1.0], dtype=np.float32))
    entries = tuple(
        ClusterEntry(layer_id, table, pack_indices(np.zeros(count, dtype=np.int64), 1))
        for layer_id, count in tables
    )
    return ClusteredModel("per_layer", 1, entries)


class TestSpans:
    def test_global_stream_covers_convs_in_order(self, folded):
        model = cluster_model(folded, ClusterConfig(bits=5))
        [(entry, layers)] = model.spans(folded)
        assert entry is model.entries[0]
        a, b, _ = (conv.n_weights for conv in folded.convs)
        assert [(conv.layer_index, base) for conv, base in layers] == [
            (0, 0), (1, a), (3, a + b)
        ]
        assert [conv for conv, _ in layers] == list(folded.convs)

    def test_per_layer_tables_cover_one_conv_each(self, folded):
        tables = [(conv.layer_index, conv.n_weights) for conv in folded.convs]
        model = per_layer_model(tables[::-1])
        spans = model.spans(folded)
        assert [entry for entry, _ in spans] == list(model.entries)
        assert [
            [(conv.layer_index, base) for conv, base in layers] for _, layers in spans
        ] == [[(3, 0)], [(1, 0)], [(0, 0)]]

    def test_table_for_unknown_layer_rejected(self, folded):
        tables = [(c.layer_index, c.n_weights) for c in folded.convs] + [(7, 4)]
        with pytest.raises(ValueError, match=r"layers \[7\] name no conv layer"):
            per_layer_model(tables).spans(folded)

    def test_stream_count_mismatch_rejected(self, folded):
        tables = [(c.layer_index, c.n_weights) for c in folded.convs]
        tables[1] = (1, tables[1][1] + 1)
        with pytest.raises(ValueError, match="layer 1 table covers"):
            per_layer_model(tables).spans(folded)

    # the toy net's conv layers are 0, 1 and 3; the others never hold a table
    @pytest.mark.parametrize("layer", [0, 1, 3])
    def test_missing_table_rejected(self, folded, layer):
        tables = [
            (c.layer_index, c.n_weights) for c in folded.convs if c.layer_index != layer
        ]
        message = rf"no codebook table for conv layers \[{layer}\]"
        with pytest.raises(ValueError, match=message):
            per_layer_model(tables).spans(folded)

    @pytest.mark.parametrize(
        "layer", [2, 4, 5, 6], ids=["shortcut", "upsample", "route", "yolo"]
    )
    def test_table_for_non_conv_layer_rejected(self, folded, layer):
        tables = [(c.layer_index, c.n_weights) for c in folded.convs] + [(layer, 4)]
        with pytest.raises(ValueError, match=rf"layers \[{layer}\] name no conv layer"):
            per_layer_model(tables).spans(folded)

    @pytest.mark.parametrize("delta", [-1, 1], ids=["short", "long"])
    @pytest.mark.parametrize("layer", [0, 1, 3])
    def test_per_layer_count_must_equal_layer_weights(self, folded, layer, delta):
        tables = [
            (c.layer_index, c.n_weights + (delta if c.layer_index == layer else 0))
            for c in folded.convs
        ]
        with pytest.raises(ValueError, match=rf"layer {layer} table covers"):
            per_layer_model(tables).spans(folded)

    @pytest.mark.parametrize("delta", [-1, 1], ids=["short", "long"])
    def test_global_count_must_equal_all_weights(self, folded, delta):
        total = sum(c.n_weights for c in folded.convs)
        message = rf"global table covers {total + delta} weights"
        with pytest.raises(ValueError, match=message):
            global_model(total + delta).spans(folded)

    def test_spans_tile_each_stream(self, model, folded):
        covered = []
        for entry, layers in model.spans(folded):
            end = 0
            for conv, base in layers:
                assert base == end
                end += conv.n_weights
                covered.append(conv)
            assert end == entry.packed.count
        assert covered == list(folded.convs)

    def test_spans_decode_no_stream(self, model, folded, monkeypatch):
        # validation reads only counts, so it costs nothing next to a decode
        def refuse(*_):
            raise AssertionError("spans decoded an index stream")

        monkeypatch.setattr(cluster, "unpack_indices", refuse)
        monkeypatch.setattr(cluster, "dequantize", refuse)
        assert len(model.spans(folded)) == len(model.entries)


def global_model(count):
    """A 1-bit all-layers model whose one stream holds count indexes."""
    table = CentroidTable(np.array([0.0, 1.0], dtype=np.float32))
    packed = pack_indices(np.zeros(count, dtype=np.int64), 1)
    return ClusteredModel("all_layers", 1, (ClusterEntry(None, table, packed),))


def malformed_model(defect, convs):
    """A model of the toy net's convs with one defect of DEFECT_MESSAGES."""
    n = {c.layer_index: c.n_weights for c in convs}
    if defect == "missing-table":
        return per_layer_model([(0, n[0]), (1, n[1])])
    if defect == "shortcut-table":
        return per_layer_model([(0, n[0]), (1, n[1]), (2, 4), (3, n[3])])
    if defect == "short-layer-stream":
        return per_layer_model([(0, n[0]), (1, n[1] - 1), (3, n[3])])
    return global_model(sum(n.values()) + 1)


# every path from a clustered model to its weights goes through spans
CALLERS = {
    # spans raises before model_sse decodes any index
    "model_sse": lambda model, net, folded: model_sse(model, folded),
    "dequantize": lambda model, net, folded: dequantize(model, folded),
    # run_network checks the model when it is called, before any layer runs
    "run_network_indirect": lambda model, net, folded: run_network(
        net, folded, np.zeros((3, 8, 8), dtype=np.float32), clustered=model
    ),
    "run_network_on_the_fly": lambda model, net, folded: run_network(
        net, folded, np.zeros((3, 8, 8), dtype=np.float32), clustered=model,
        on_the_fly=True,
    ),
}


# what each malformed_model defect must report
DEFECT_MESSAGES = {
    "missing-table": "no codebook table for conv layers [3]",
    "shortcut-table": "tables for layers [2] name no conv layer",
    "short-layer-stream": "layer 1 table covers",
    "long-global-stream": "global table covers",
}


class TestSpansCallers:
    @pytest.mark.parametrize("defect", list(DEFECT_MESSAGES))
    @pytest.mark.parametrize("caller", list(CALLERS))
    def test_malformed_model_raises_value_error(self, toy_net, folded, caller, defect):
        with pytest.raises(ValueError) as excinfo:
            CALLERS[caller](malformed_model(defect, folded.convs), toy_net, folded)
        assert DEFECT_MESSAGES[defect] in str(excinfo.value)


@pytest.fixture(scope="module", params=["all_layers", "per_layer"])
def model(request, folded):
    return cluster_model(folded, ClusterConfig(scope=request.param, bits=5))


class TestContainer:
    def test_roundtrip(self, model):
        restored = read_clustered(write_clustered(model))
        assert restored.scope == model.scope
        assert restored.bits == model.bits
        assert len(restored.entries) == len(model.entries)
        for a, b in zip(restored.entries, model.entries):
            assert a.layer_id == b.layer_id
            assert a.table == b.table
            assert a.packed == b.packed

    def test_serialization_is_deterministic(self, model):
        assert write_clustered(model) == write_clustered(model)

    def test_every_byte_flip_is_caught(self, folded):
        small = DarknetWeights(0, 2, 0, 0, folded.convs[:1])
        data = write_clustered(cluster_model(small, ClusterConfig(bits=5)))
        for pos in range(len(data)):
            corrupt = bytearray(data)
            corrupt[pos] ^= 0xFF
            with pytest.raises(ClusterFormatError):
                read_clustered(bytes(corrupt))

    @settings(max_examples=300)
    @given(data=st.data())
    def test_mutated_container_raises_only_typed_errors(self, folded, data):
        # the checksum is recomputed, so mutants reach the structural checks
        scope = data.draw(st.sampled_from(["all_layers", "per_layer"]), label="scope")
        small = DarknetWeights(0, 2, 0, 0, folded.convs[:2])
        model = cluster_model(small, ClusterConfig(scope=scope, bits=3))
        body = bytearray(write_clustered(model)[:-4])
        action = data.draw(st.sampled_from(["truncate", "overwrite", "extend"]))
        at = data.draw(
            st.one_of(st.integers(0, 27), st.integers(0, len(body) - 1)), label="at"
        )
        if action == "truncate":
            del body[at:]
        elif action == "overwrite":
            patch = data.draw(st.binary(min_size=1, max_size=8), label="patch")
            body[at : at + len(patch)] = patch
        else:
            body += data.draw(st.binary(min_size=1, max_size=64), label="tail")
        payload = recrc(bytes(body) + b"\x00" * 4)
        try:
            parsed = read_clustered(payload)
        except ValueError:
            return
        assert write_clustered(parsed) == payload

    def test_corruption_reports_checksum(self, model):
        data = bytearray(write_clustered(model))
        data[20] ^= 0x01
        with pytest.raises(ClusterFormatError, match="checksum mismatch"):
            read_clustered(bytes(data))

    def test_bad_magic(self, model):
        data = write_clustered(model)
        with pytest.raises(ClusterFormatError, match="magic"):
            read_clustered(b"WXYZ" + data[4:])
        with pytest.raises(ClusterFormatError, match="magic"):
            read_clustered(b"")

    def test_truncation(self, model):
        data = write_clustered(model)
        with pytest.raises(ClusterFormatError, match="too short"):
            read_clustered(data[:10])
        with pytest.raises(ClusterFormatError, match="checksum mismatch"):
            read_clustered(data[:-5])

    def test_unsupported_version(self, model):
        data = bytearray(write_clustered(model))
        data[4:6] = struct.pack("<H", 9)
        with pytest.raises(ClusterFormatError, match="version 9"):
            read_clustered(recrc(bytes(data)))

    def test_unknown_scope_code(self, model):
        data = bytearray(write_clustered(model))
        data[6] = 7
        with pytest.raises(ClusterFormatError, match="scope code 7"):
            read_clustered(recrc(bytes(data)))

    def test_bits_out_of_range(self, model):
        data = bytearray(write_clustered(model))
        data[7] = 9
        with pytest.raises(ClusterFormatError, match="out of range"):
            read_clustered(recrc(bytes(data)))

    def test_full_tables_are_not_decoded(self, model, monkeypatch):
        # every b-bit index is in range of a 2**b-entry table
        calls = []
        monkeypatch.setattr(
            cluster, "unpack_indices", lambda *args: calls.append(args) or 1 / 0
        )
        assert all(entry.table.k == 1 << model.bits for entry in model.entries)
        assert read_clustered(write_clustered(model)) == model
        assert calls == []

    def test_index_beyond_table_rejected(self):
        # one 2-entry table at 8 bits, with an index stream holding a 200
        table = CentroidTable(np.array([0.0, 1.0], dtype=np.float32))
        packed = pack_indices([0, 1], 8)
        model = ClusteredModel(
            scope="all_layers", bits=8, entries=(ClusterEntry(None, table, packed),)
        )
        data = bytearray(write_clustered(model))
        offset = len(data) - 4 - 4  # one packed word before the checksum
        data[offset:offset + 4] = struct.pack("<I", 200 | (1 << 8))
        with pytest.raises(ClusterFormatError, match="out of range"):
            read_clustered(recrc(bytes(data)))


class TestEndToEnd:
    def test_weights_blob_scales(self, toy_net):
        blob = weights_blob(toy_net, seed=3)
        weights = read_darknet_weights(blob, toy_net)
        assert len(weights.convs) == 3

    def test_clustered_pipeline_reduces_distinct_values(self, folded):
        model = cluster_model(folded, ClusterConfig(bits=5))
        recon = np.concatenate([c.kernel for c in dequantize(model, folded).convs])
        assert np.unique(recon).size <= 32

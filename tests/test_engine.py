"""Bit-exact inference engine: GEMM variants, im2col and network execution."""

import dataclasses
import gc
import re
import tracemalloc
import weakref

import numpy as np
import pytest

from convwatt import engine
from convwatt.cluster import (
    CentroidTable,
    ClusterConfig,
    ClusteredModel,
    ClusterEntry,
    ConvParams,
    DarknetWeights,
    cluster_model,
    fold_batch_norm,
    pack_indices,
    read_darknet_weights,
    unpack_indices,
)
from convwatt.engine import (
    conv_forward,
    conv_forward_clustered,
    gemm_nn,
    gemm_nn_centroids,
    gemm_nn_packed,
    im2col,
    leaky,
    run_network,
)

from conftest import weights_blob
from oracles import conv_forward_reference, gemm_nn_reference
from test_traffic import shaped_conv, shaped_net


def f32(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float32)


def same_bits(got, want) -> bool:
    """fp32 arrays of one shape with identical bit patterns (-0.0 != +0.0)."""
    got, want = np.asarray(got), np.asarray(want)
    return (
        got.dtype == want.dtype == np.float32
        and got.shape == want.shape
        and np.array_equal(got.view(np.uint32), want.view(np.uint32))
    )


def strided(flat, rows, cols, ld):
    """(rows, cols) view of the flat array flat whose rows start ld elements
    apart; writing through it writes flat."""
    step = flat.itemsize
    return np.lib.stride_tricks.as_strided(flat, (rows, cols), (ld * step, step))


def views(m, n, k, a, lda, b, ldb, c, ldc):
    """The engine's operands for gemm_nn_reference's flat buffers: 2-D views
    of a, b and c whose rows lie lda, ldb and ldc apart."""
    return strided(a, m, k, lda), strided(b, k, n, ldb), strided(c, m, n, ldc)


def reference(m, n, k, a, lda, b, ldb, c, ldc):
    return gemm_nn_reference(m, n, k, 1.0, a, lda, b, ldb, c, ldc)


def random_gemm_instance(rng, with_padding=False, max_dim=6, min_pad=0):
    m, n, k = (int(rng.integers(1, max_dim + 1)) for _ in range(3))
    if with_padding:
        lda = k + int(rng.integers(min_pad, 3))
        ldb = n + int(rng.integers(min_pad, 3))
        ldc = n + int(rng.integers(min_pad, 3))
    else:
        lda, ldb, ldc = k, n, n
    a = rng.normal(size=(m - 1) * lda + k).astype(np.float32)
    b = rng.normal(size=(k - 1) * ldb + n).astype(np.float32)
    c = rng.normal(size=(m - 1) * ldc + n).astype(np.float32)
    return m, n, k, a, lda, b, ldb, c, ldc


def gemm_cases(rng, count, with_padding=False):
    """count small random instances, then four up to 40 wide with lda > K and
    ldc > N, where a wrong row stride in the vectorized (M, N) update shows."""
    for _ in range(count):
        yield random_gemm_instance(rng, with_padding)
    for _ in range(4):
        yield random_gemm_instance(rng, True, max_dim=40, min_pad=1)


VARIANTS = ("gemm_nn", "centroids", "packed")
# M, N, K = 2, 3, 4: A (2, 4), B (4, 3) and C (2, 3); each case gives one
# operand another shape, a flat one among them.
# The packed stream has no shape, and the centroids variant's A is indexes.
BAD_SHAPES = [
    (variant, name, shape)
    for variant in VARIANTS
    for name, shape in [("A", (2, 5)), ("A", (8,)), ("B", (3, 4)), ("B", (12,)),
                        ("C", (2, 4)), ("C", (6,)), ("C", (3, 3))]
    if (variant, name) != ("packed", "A")
]


class TestGemm:
    def test_two_by_two_by_hand(self):
        c = np.zeros((2, 2), dtype=np.float32)
        gemm_nn(2, 2, 2, f32([[1, 2], [3, 4]]), f32([[5, 6], [7, 8]]), c)
        assert c.tolist() == [[19.0, 22.0], [43.0, 50.0]]

    def test_updates_in_place_and_returns_c(self):
        c = np.zeros((1, 1), dtype=np.float32)
        out = gemm_nn(1, 1, 1, f32([[2.0]]), f32([[3.0]]), c)
        assert out is c
        assert c[0, 0] == 6.0

    def test_accumulates_into_existing_c(self):
        c = f32([[100.0]])
        gemm_nn(1, 1, 1, f32([[2.0]]), f32([[3.0]]), c)
        assert c[0, 0] == 106.0

    @pytest.mark.parametrize("with_padding", [False, True])
    def test_matches_scalar_reference_bitwise(self, with_padding):
        rng = np.random.default_rng(42 + with_padding)
        for m, n, k, a, lda, b, ldb, c, ldc in gemm_cases(rng, 60, with_padding):
            expected = reference(m, n, k, a, lda, b, ldb, c, ldc)
            got = c.copy()
            gemm_nn(m, n, k, *views(m, n, k, a, lda, b, ldb, got, ldc))
            assert same_bits(got, expected)

    @pytest.mark.parametrize("m, n, k", [(0, 3, 2), (2, 0, 2), (2, 3, 0), (0, 0, 0)])
    def test_empty_dimension_leaves_c_untouched(self, m, n, k):
        rng = np.random.default_rng(5)
        lda, ldb, ldc = k + 1, n + 1, n + 1
        a = rng.normal(size=m * lda).astype(np.float32)
        b = rng.normal(size=k * ldb).astype(np.float32)
        c = rng.normal(size=max(m, 1) * ldc).astype(np.float32)
        idx = strided(np.zeros(a.size, dtype=np.int64), m, k, lda)
        table = f32([2.0])
        outs = [c.copy() for _ in range(3)]
        a2, b2, _ = views(m, n, k, a, lda, b, ldb, c, ldc)
        gemm_nn(m, n, k, a2, b2, strided(outs[0], m, n, ldc))
        gemm_nn_centroids(m, n, k, table, idx, b2, strided(outs[1], m, n, ldc))
        gemm_nn_packed(
            m, n, k, table, pack_indices(idx.reshape(-1), 5), b2,
            strided(outs[2], m, n, ldc),
        )
        for got in outs:
            assert same_bits(got, c)

    def test_rejects_float64(self):
        c = np.zeros((1, 1), dtype=np.float32)
        with pytest.raises(TypeError, match="A must be float32"):
            gemm_nn(1, 1, 1, np.ones((1, 1)), f32([[1.0]]), c)
        with pytest.raises(TypeError, match="B must be float32"):
            gemm_nn(1, 1, 1, f32([[1.0]]), [[1.0]], c)
        with pytest.raises(TypeError, match="C must be float32"):
            gemm_nn(1, 1, 1, f32([[1.0]]), f32([[1.0]]), np.zeros((1, 1)))
        with pytest.raises(TypeError, match="centroids must be float32"):
            gemm_nn_centroids(1, 1, 1, np.ones(2), [[0]], f32([[1.0]]), c)
        with pytest.raises(TypeError, match="centroids must be float32"):
            gemm_nn_packed(1, 1, 1, np.ones(2), pack_indices([0], 5), f32([[1.0]]), c)

    # numpy's gather raises IndexError for these, which would read as an
    # index out of range
    @pytest.mark.parametrize("dtype", [np.float32, np.float64, bool])
    def test_rejects_indexes_that_are_not_integers(self, dtype):
        c = np.zeros((1, 1), dtype=np.float32)
        with pytest.raises(TypeError, match=f"indexes must be integers, got {np.dtype(dtype)}"):
            gemm_nn_centroids(1, 1, 1, f32([1.0, 2.0]), np.zeros((1, 1), dtype), f32([[1.0]]), c)
        assert c[0, 0] == 0.0

    @pytest.mark.parametrize("variant, name, shape", BAD_SHAPES)
    def test_rejects_a_shape_that_disagrees_with_mnk(self, variant, name, shape):
        right = {"A": (2, 4), "B": (4, 3), "C": (2, 3)}
        operands = {**right, name: shape}
        a, b, c = (np.ones(operands[key], dtype=np.float32) for key in "ABC")
        table = f32([1.0, 2.0])
        label = "indexes" if (variant, name) == ("centroids", "A") else name
        message = f"{label} has shape {shape}, (M, N, K) ask for {right[name]}"
        with pytest.raises(ValueError, match=re.escape(message)):
            if variant == "gemm_nn":
                gemm_nn(2, 3, 4, a, b, c)
            elif variant == "centroids":
                gemm_nn_centroids(2, 3, 4, table, a.astype(np.int64), b, c)
            else:
                gemm_nn_packed(2, 3, 4, table, pack_indices([1] * 8, 5), b, c)
        assert c.min() == c.max() == 1.0

    @pytest.mark.parametrize("path", ["narrow", "wide"])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_b_may_have_leading_axes_that_multiply_to_k(self, monkeypatch, variant, path):
        # B's rows in C order, as an in-place unfold's (c, kr, kc) rows are
        rng = np.random.default_rng(10)
        m, n, k = 3, 5, 12
        a = rng.normal(size=m * k).astype(np.float32)
        b = rng.normal(size=k * n).astype(np.float32)
        c = rng.normal(size=m * n).astype(np.float32)
        want = reference(m, n, k, a, k, b, n, c, n)
        force_path(monkeypatch, path, None, m, n)
        spread = np.zeros((3, 2, 2, 2 * n), dtype=np.float32)[..., ::2]
        spread[...] = b.reshape(3, 2, 2, n)
        got = c.copy().reshape(m, n)
        if variant == "gemm_nn":
            gemm_nn(m, n, k, a.reshape(m, k), spread, got)
        else:
            table, idx = a, np.arange(m * k).reshape(m, k)
            if variant == "centroids":
                gemm_nn_centroids(m, n, k, table, idx, spread, got)
            else:
                gemm_nn_packed(m, n, k, table, pack_indices(idx.reshape(-1), 6), spread, got)
        assert same_bits(got.reshape(-1), want)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_rejects_leading_axes_that_do_not_multiply_to_k(self, variant):
        c = np.ones((2, 3), dtype=np.float32)
        table = f32([1.0, 2.0])
        for b, error, message in [
            (np.ones((2, 3, 3), dtype=np.float32), ValueError, "leading axes that multiply to 4"),
            (np.ones((4, 1, 3), dtype=np.float32)[:, :, :2], ValueError, "ask for (4, 3)"),
            (np.ones((2, 2, 3)), TypeError, "B must be float32, got float64"),
        ]:
            with pytest.raises(error, match=re.escape(message)):
                if variant == "gemm_nn":
                    gemm_nn(2, 3, 4, np.ones((2, 4), dtype=np.float32), b, c)
                elif variant == "centroids":
                    gemm_nn_centroids(2, 3, 4, table, np.ones((2, 4), dtype=np.int64), b, c)
                else:
                    gemm_nn_packed(2, 3, 4, table, pack_indices([1] * 8, 5), b, c)
        assert c.min() == c.max() == 1.0

    @pytest.mark.parametrize("shape", [(2, 1), (2, 2), ()])
    def test_rejects_a_table_that_is_not_one_dimensional(self, shape):
        c = np.zeros((1, 1), dtype=np.float32)
        table = np.ones(shape, dtype=np.float32)
        message = re.escape(f"centroids must be a 1-D table, got shape {shape}")
        with pytest.raises(ValueError, match=message):
            gemm_nn_centroids(1, 1, 1, table, [[0]], f32([[1.0]]), c)
        with pytest.raises(ValueError, match=message):
            gemm_nn_packed(1, 1, 1, table, pack_indices([0], 5), f32([[1.0]]), c)


class TestGemmCentroids:
    def test_matches_dequantized_gemm_bitwise(self):
        rng = np.random.default_rng(9)
        for m, n, k, _, lda, b, ldb, c, ldc in gemm_cases(rng, 60, True):
            table = rng.normal(size=int(rng.integers(2, 33))).astype(np.float32)
            idx = rng.integers(0, table.size, size=(m - 1) * lda + k)
            want = reference(m, n, k, table[idx], lda, b, ldb, c, ldc)
            got = c.copy()
            gemm_nn_centroids(
                m, n, k, table, strided(idx, m, k, lda), strided(b, k, n, ldb),
                strided(got, m, n, ldc),
            )
            assert same_bits(got, want)

    # -1 would read the table's last entry if numpy were left to wrap it
    @pytest.mark.parametrize("index", [1, -1])
    def test_rejects_out_of_range_index(self, index):
        c = np.zeros((1, 1), dtype=np.float32)
        with pytest.raises(ValueError, match="out of range"):
            gemm_nn_centroids(1, 1, 1, f32([1.0]), [[index]], f32([[1.0]]), c)


class TestGemmPacked:
    def test_matches_unpacked_bitwise(self):
        rng = np.random.default_rng(13)
        for bits in (5, 6, 7, 8):
            for m, n, k, _, lda, b, ldb, c, ldc in gemm_cases(rng, 20):
                table = rng.normal(size=1 << bits).astype(np.float32)
                idx = rng.integers(0, table.size, size=(m - 1) * lda + k)
                packed = pack_indices(strided(idx, m, k, lda).reshape(-1), bits)
                want = reference(m, n, k, table[idx], lda, b, ldb, c, ldc)
                got = c.copy()
                gemm_nn_packed(
                    m, n, k, table, packed, strided(b, k, n, ldb),
                    strided(got, m, n, ldc),
                )
                assert same_bits(got, want)

    @pytest.mark.parametrize("bits", [5, 6, 7])
    def test_unaligned_base_matches_scalar_reference(self, bits):
        rng = np.random.default_rng(100 + bits)
        per_word = 32 // bits
        for _ in range(4):
            m, n, k, _, lda, b, ldb, c, ldc = random_gemm_instance(
                rng, True, max_dim=40, min_pad=1
            )
            base = per_word * int(rng.integers(0, 4)) + int(rng.integers(1, per_word))
            table = rng.normal(size=1 << bits).astype(np.float32)
            stream = rng.integers(0, table.size, size=base + (m - 1) * lda + k)
            # the packed stream holds the rows of the padded index matrix,
            # each K long, from base on
            rows = strided(stream[base:], m, k, lda).reshape(-1)
            packed = pack_indices(np.concatenate((stream[:base], rows)), bits)
            want = reference(m, n, k, table[stream[base:]], lda, b, ldb, c, ldc)
            got = c.copy()
            gemm_nn_packed(
                m, n, k, table, packed, strided(b, k, n, ldb),
                strided(got, m, n, ldc), base=base,
            )
            assert same_bits(got, want)

    def test_base_offset_selects_slice(self):
        rng = np.random.default_rng(17)
        table = rng.normal(size=16).astype(np.float32)
        stream = rng.integers(0, 16, size=40)
        packed = pack_indices(stream, 4)
        b = rng.normal(size=(6, 3)).astype(np.float32)
        for base in (0, 7, 28):
            idx = stream[base : base + 12].reshape(2, 6)
            want = np.zeros((2, 3), dtype=np.float32)
            gemm_nn_centroids(2, 3, 6, table, idx, b, want)
            got = np.zeros((2, 3), dtype=np.float32)
            gemm_nn_packed(2, 3, 6, table, packed, b, got, base=base)
            assert same_bits(got, want)

    def test_stream_too_short(self):
        packed = pack_indices([0, 1, 2], 8)
        c = np.zeros((1, 1), dtype=np.float32)
        with pytest.raises(ValueError, match="too short"):
            gemm_nn_packed(
                1, 1, 2, f32([1.0, 2.0, 3.0]), packed, f32([[1.0], [1.0]]), c, base=2
            )

    def test_index_beyond_table(self):
        packed = pack_indices([5], 8)
        c = np.zeros((1, 1), dtype=np.float32)
        with pytest.raises(ValueError, match="out of range"):
            gemm_nn_packed(1, 1, 1, f32([1.0, 2.0]), packed, f32([[1.0]]), c)


# The core's private constants, set so that a small case takes a chosen path
# at a chosen chunk width (None keeps the default). "tiles1" and "tiles2" are
# the wide path one and two rows of C at a time; a "broadcast" path builds
# its products with one broadcast multiply, as for rows too long for numpy's
# buffer.
PATHS = ("narrow", "wide", "tiles1", "tiles2", "narrow-broadcast", "wide-broadcast")
WIDTHS = (1, 7, None)


def force_path(monkeypatch, path, width, m, n):
    """Send an m x n GEMM down one path of engine._accumulate, width columns
    per reduced chunk (narrow) or per decoded block (wide)."""
    kind, _, form = path.partition("-")
    if form == "broadcast":
        monkeypatch.setattr(engine, "_BUFFER", 0)
    if kind == "narrow":
        monkeypatch.setattr(engine, "_NARROW", 1 << 62)
        if width is not None:
            monkeypatch.setattr(engine, "_SCRATCH", (width + 1) * m * max(n, 2))
        return
    monkeypatch.setattr(engine, "_NARROW", 0)
    if kind != "wide":
        monkeypatch.setattr(engine, "_SCRATCH", 2 * tile_rows(path) * n)
    if width is not None:
        monkeypatch.setattr(engine, "_BLOCK", width)


def tile_rows(path):
    """Rows of C per wide tile under force_path; a default tile holds every
    row of these small cases."""
    return int(path[5:]) if path.startswith("tiles") else 1 << 62


def run_variant(variant, rng, m, n, k, a, lda, b, ldb, c, ldc):
    """C after one call of the named variant on views of the flat buffers.
    The codebook variants read A through a table that holds A's values in
    shuffled order."""
    got = c.copy()
    a2, b2, c2 = views(m, n, k, a, lda, b, ldb, got, ldc)
    if variant == "gemm_nn":
        gemm_nn(m, n, k, a2, b2, c2)
        return got
    order = rng.permutation(a.size)
    idx = np.empty(a.size, dtype=np.int64)
    idx[order] = np.arange(a.size)
    table = a[order]
    idx2 = strided(idx, m, k, lda)
    if variant == "centroids":
        gemm_nn_centroids(m, n, k, table, idx2, b2, c2)
    else:
        packed = pack_indices(idx2.reshape(-1), max(1, (a.size - 1).bit_length()))
        gemm_nn_packed(m, n, k, table, packed, b2, c2)
    return got


TRAP_K = (7, 8, 9, 127, 128, 129, 300)


def pairwise_trap(m, n, k):
    """C = 1 and every product 2**-24, half an ulp of 1. Added one at a time,
    each product rounds away and C stays 1; a pairwise sum adds products to
    each other first, and they add up to more than 1 ulp."""
    a = np.full(m * k, 2.0**-12, dtype=np.float32)
    b = np.full(k * n, 2.0**-12, dtype=np.float32)
    c = np.ones(m * n, dtype=np.float32)
    return m, n, k, a, k, b, n, c, n


def sprinkle(rng, values, share=0.2):
    """values with about share of them replaced by +-0.0 and +-inf."""
    special = f32([0.0, -0.0, np.inf, -np.inf])
    hit = rng.random(values.size) < share
    values[hit] = rng.choice(special, size=int(hit.sum()))
    return values


class TestExactnessBoundary:
    """Both paths of the GEMM core at several chunk widths, bitwise against
    the scalar (i, k, j) loop, on inputs where the order of the additions or
    the start of a reduction would show."""

    @pytest.mark.parametrize("k", TRAP_K)
    def test_trap_separates_pairwise_from_sequential(self, k):
        terms = np.concatenate((f32([1.0]), np.full(k, 2.0**-24, dtype=np.float32)))
        total = np.float32(0.0)
        for term in terms:
            total = total + term
        assert total == 1.0
        assert np.add.reduce(terms) > 1.0  # numpy sums a 1-D array pairwise

    @pytest.mark.parametrize("m, n, in_place", [
        (2, 3000, True), (2, 4096, True), (2, 4097, False),  # narrow, 3-D products
        (7, 2730, True), (7, 3000, False),  # wide, 2-D products
    ])
    def test_rows_too_short_for_the_buffer_are_built_in_place(
        self, monkeypatch, m, n, in_place
    ):
        # numpy buffers a broadcast multiply whose rows hold at most half of
        # its 8,192-element buffer (3-D) or a third (2-D), which costs about
        # three times as much per product as one that skips it
        assert engine._BUFFER == np.getbufsize() == 8192
        assert (m * n < engine._NARROW) == (m == 2)
        real, copies = np.copyto, []

        def copyto(dst, src):
            copies.append(dst.shape)
            real(dst, src)

        monkeypatch.setattr(np, "copyto", copyto)
        rng = np.random.default_rng(n)
        k = 3
        a, b, c = (rng.standard_normal(size).astype(np.float32)
                   for size in (m * k, k * n, m * n))
        want = reference(m, n, k, a, k, b, n, c, n)
        got = c.copy()
        gemm_nn(m, n, k, a.reshape(m, k), b.reshape(k, n), got.reshape(m, n))
        assert same_bits(got, want)
        assert bool(copies) == in_place

    @pytest.mark.parametrize("m, n", [(1, 1), (3, 1), (1, 3)])
    @pytest.mark.parametrize("width", WIDTHS)
    @pytest.mark.parametrize("path", PATHS)
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_pairwise_traps(self, monkeypatch, variant, path, width, m, n):
        rng = np.random.default_rng(1)
        force_path(monkeypatch, path, width, m, n)
        for k in TRAP_K:
            case = pairwise_trap(m, n, k)
            want = reference(*case)
            assert want.tolist() == [1.0] * (m * n)
            assert same_bits(run_variant(variant, rng, *case), want), k

    @pytest.mark.parametrize("width", WIDTHS)
    @pytest.mark.parametrize("path", PATHS)
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_padded_strides_and_special_values(
        self, monkeypatch, variant, path, width
    ):
        rng = np.random.default_rng(2)
        for _ in range(10):
            case = random_gemm_instance(rng, True, max_dim=12, min_pad=1)
            m, n, k, a, lda, b, ldb, c, ldc = case
            sprinkle(rng, a)
            sprinkle(rng, b)
            sprinkle(rng, c, share=0.1)
            force_path(monkeypatch, path, width, m, n)
            with np.errstate(invalid="ignore"):  # inf - inf and 0 * inf are NaN
                want = reference(*case)
                got = run_variant(variant, rng, *case)
            assert same_bits(got, want)

    @pytest.mark.parametrize("m, n", [(2, 3), (3, 1)])
    @pytest.mark.parametrize("path", PATHS)
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_negative_zero_survives(self, monkeypatch, variant, path, m, n):
        # -0.0 + -0.0 is -0.0, but +0.0 + -0.0 is +0.0: a sum that started
        # from +0.0 rather than from C would lose the sign
        rng = np.random.default_rng(3)
        k = 9
        a = np.full(m * k, -0.0, dtype=np.float32)
        b = np.full(k * n, 0.5, dtype=np.float32)
        c = np.full(m * n, -0.0, dtype=np.float32)
        force_path(monkeypatch, path, None, m, n)
        want = reference(m, n, k, a, k, b, n, c, n)
        assert np.signbit(want).all()
        got = run_variant(variant, rng, m, n, k, a, k, b, n, c, n)
        assert same_bits(got, want)

    @pytest.mark.parametrize("path", PATHS)
    def test_packed_decodes_one_block_at_a_time(self, monkeypatch, path):
        reads = []

        class Words(np.ndarray):
            """Packed words that record how many they hand out per read."""

            def __getitem__(self, key):
                reads.append(np.size(key))
                return np.asarray(self)[key]

        m, n, k, width = 3, 2, 300, 7
        lda, ldb, ldc = 302, n + 1, n + 2
        force_path(monkeypatch, path, width, m, n)
        rng = np.random.default_rng(4)
        table = rng.normal(size=32).astype(np.float32)
        stream = rng.integers(0, 32, size=(m - 1) * lda + k)
        packed = pack_indices(strided(stream, m, k, lda).reshape(-1), 5)
        object.__setattr__(packed, "words", packed.words.view(Words))
        b = rng.normal(size=(k - 1) * ldb + n).astype(np.float32)
        c = rng.normal(size=(m - 1) * ldc + n).astype(np.float32)
        got = c.copy()
        gemm_nn_packed(
            m, n, k, table, packed, strided(b, k, n, ldb), strided(got, m, n, ldc)
        )
        # the wide path asks for A's block once per tile of C's rows
        tiles = 1 if path.startswith("narrow") else -(-m // tile_rows(path))
        assert reads == tiles * [m * min(width, k - k0) for k0 in range(0, k, width)]
        want = reference(m, n, k, table[stream], lda, b, ldb, c, ldc)
        assert same_bits(got, want)

    def test_temporaries_stay_within_the_scratch_budget(self, monkeypatch):
        # narrow cases, then wide ones: C larger than the budget, in tiles of
        # 131, 2 and 1 rows, the last two of a C whose rows lie apart
        rng = np.random.default_rng(5)
        cases = []
        for m, n, k, ldc in [(1, 1, 5000, 1), (21, 100, 90, 100), (64, 255, 4000, 255),
                             (5000, 1, 40, 1), (300, 1000, 50, 1000),
                             (4, 50000, 3, 50001), (2, 200000, 3, 200003)]:
            a = rng.normal(size=(m, k)).astype(np.float32)
            b = rng.normal(size=(k, n)).astype(np.float32)
            c = np.zeros((m, ldc), dtype=np.float32)[:, :n]
            cases.append((m, n, k, a, b, c))
        sizes = []

        def recording(allocate):
            def allocate_and_record(*args, **kwargs):
                out = allocate(*args, **kwargs)
                sizes.append(out.nbytes)
                return out

            return allocate_and_record

        for name in ("empty", "zeros", "ascontiguousarray"):
            monkeypatch.setattr(engine.np, name, recording(getattr(np, name)))
        for case in cases:
            gemm_nn(*case)
        monkeypatch.undo()
        assert sizes and max(sizes) <= 4 * engine._SCRATCH
        assert 300 * 1000 * 4 > 4 * engine._SCRATCH  # the whole C would not fit

    @pytest.mark.parametrize("path", PATHS)
    def test_c_view_whose_rows_lie_apart(self, monkeypatch, path):
        # the middle columns of a wider array, as a band's view of a
        # convolution's output
        rng = np.random.default_rng(6)
        m, n, k = 5, 4, 9
        a = rng.normal(size=(m, k)).astype(np.float32)
        b = rng.normal(size=(k, n)).astype(np.float32)
        whole = rng.normal(size=(m, 3 * n)).astype(np.float32)
        before = whole.copy()
        view = whole[:, n : 2 * n]
        force_path(monkeypatch, path, None, m, n)
        assert gemm_nn(m, n, k, a, b, view) is view
        want = reference(m, n, k, a.reshape(-1), k, b.reshape(-1), n,
                         before[:, n : 2 * n].reshape(-1), n)
        assert same_bits(whole[:, n : 2 * n].reshape(-1), want)
        assert same_bits(whole[:, :n], before[:, :n])
        assert same_bits(whole[:, 2 * n :], before[:, 2 * n :])


def pad1(x):
    """x with one zero around each channel, as a conv with pad=1 reads it."""
    return np.pad(x, ((0, 0), (1, 1), (1, 1)))


class TestIm2col:
    def test_identity_for_1x1(self):
        x = np.arange(2 * 3 * 3, dtype=np.float32).reshape(2, 3, 3)
        cols = im2col(x, kernel=1, stride=1)
        assert same_bits(cols, x.reshape(2, 9))

    def test_center_row_is_the_input(self):
        x = np.arange(9, dtype=np.float32).reshape(1, 3, 3)
        cols = im2col(pad1(x), kernel=3, stride=1)
        assert cols.shape == (9, 9)
        # kernel cell (1,1) of channel 0 sees exactly the unshifted input
        assert same_bits(cols[4], x.reshape(-1))

    def test_corner_taps_hit_padding(self):
        x = np.ones((1, 3, 3), dtype=np.float32)
        cols = im2col(pad1(x), kernel=3, stride=1)
        # kernel cell (0,0) at output (0,0) reads the padded corner
        assert cols[0, 0] == 0.0
        assert cols[0, 4] == 1.0

    def test_row_order_is_channel_kr_kc(self):
        x = np.stack(
            [np.zeros((3, 3), dtype=np.float32), np.ones((3, 3), dtype=np.float32)]
        )
        cols = im2col(pad1(x), kernel=3, stride=1)
        assert cols[:9][4].max() == 0.0
        assert cols[9:][4].min() == 1.0

    def test_pointwise_is_a_view_of_the_input(self):
        x = np.random.default_rng(7).normal(size=(4, 5, 6)).astype(np.float32)
        cols = im2col(x, kernel=1, stride=1)
        assert np.shares_memory(cols, x)
        # a 3x3 unfold's centre cell sees each value of x as it is
        assert same_bits(cols, im2col(pad1(x), kernel=3, stride=1)[4::9])

    @pytest.mark.parametrize("dtype", [np.float64, np.float16, np.int32])
    def test_pointwise_output_is_float32(self, dtype):
        x = np.arange(-12, 12).reshape(2, 3, 4).astype(dtype) / 4
        cols = im2col(x, kernel=1, stride=1)
        # the centre cell of a padded 3x3 unfold sees each input value as is
        assert same_bits(cols, im2col(pad1(x), kernel=3, stride=1)[4::9])

    def test_stride_two_subsamples(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 4, 4)
        cols = im2col(x, kernel=1, stride=2)
        assert cols.reshape(-1).tolist() == [0.0, 2.0, 8.0, 10.0]

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError, match="CHW"):
            im2col(np.zeros((3, 3), dtype=np.float32), 3, 1)
        with pytest.raises(ValueError, match="does not fit"):
            im2col(np.zeros((1, 2, 2), dtype=np.float32), 5, 1)

    def test_leaky_values(self):
        x = f32([-2.0, -0.5, 0.0, 0.5, 2.0])
        out = leaky(x)
        assert out.tolist() == [
            float(np.float32(0.1) * np.float32(-2.0)),
            float(np.float32(0.1) * np.float32(-0.5)),
            0.0,
            0.5,
            2.0,
        ]

    def test_leaky_in_place_matches_where_bitwise(self):
        info = np.finfo(np.float32)
        tiny = info.smallest_subnormal
        special = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, tiny, -tiny,
                   9 * tiny, -9 * tiny, 1e-39, -1e-39, info.max, -info.max]
        nans = np.array([0x7FC12345, 0xFFC00001], dtype=np.uint32).view(np.float32)
        normal = np.random.default_rng(0).standard_normal(200).astype(np.float32)
        x = np.concatenate((f32(special), nans, normal))
        want = np.where(x > 0, x, engine.LEAKY_SLOPE * x)
        got = x.copy()
        assert leaky(got) is got
        assert same_bits(got, want)


class TestConvForward:
    @pytest.mark.parametrize(
        "kernel, stride, pad, activation",
        [
            (3, 1, 1, "leaky"),
            (3, 1, 1, "linear"),
            (3, 2, 1, "leaky"),
            (1, 1, 0, "linear"),
            (1, 1, 0, "leaky"),
            (3, 1, 0, "linear"),
        ],
    )
    def test_matches_sliding_window_reference(self, kernel, stride, pad, activation):
        rng = np.random.default_rng(kernel * 100 + stride * 10 + pad)
        layer = shaped_conv(6, 5, 2, 3, kernel, stride, pad=pad, activation=activation)
        x = rng.normal(size=(2, 6, 5)).astype(np.float32)
        weights = rng.normal(size=3 * 2 * kernel * kernel).astype(np.float32)
        biases = rng.normal(size=3).astype(np.float32)
        params = ConvParams(layer_index=0, biases=biases, kernel=weights)
        got = conv_forward(layer, x, params)
        want = conv_forward_reference(layer, x, weights, biases)
        assert got.shape == want.shape
        assert same_bits(got, want)


class TestClusteredForward:
    @pytest.mark.parametrize("on_the_fly", [False, True])
    @pytest.mark.parametrize("bits", [5, 8])
    def test_bitwise_equals_dequantized(self, bits, on_the_fly):
        rng = np.random.default_rng(bits)
        layer = shaped_conv(6, 6, 2, 4, 3, 1, activation="leaky")
        x = rng.normal(size=(2, 6, 6)).astype(np.float32)
        table = rng.normal(size=1 << bits).astype(np.float32)
        idx = rng.integers(0, table.size, size=4 * 2 * 9)
        packed = pack_indices(idx, bits)
        biases = rng.normal(size=4).astype(np.float32)
        dense = ConvParams(layer_index=0, biases=biases, kernel=table[idx])
        want = conv_forward(layer, x, dense)
        got = conv_forward_clustered(
            layer, x, biases, table, packed, on_the_fly=on_the_fly
        )
        assert same_bits(got, want)

    @pytest.mark.parametrize("on_the_fly", [False, True])
    def test_base_offset(self, on_the_fly):
        rng = np.random.default_rng(3)
        layer = shaped_conv(4, 4, 1, 2, 3, 1)
        x = rng.normal(size=(1, 4, 4)).astype(np.float32)
        table = rng.normal(size=32).astype(np.float32)
        stream = rng.integers(0, 32, size=50)
        packed = pack_indices(stream, 5)
        base = 13
        idx = stream[base : base + 18]
        biases = rng.normal(size=2).astype(np.float32)
        dense = ConvParams(layer_index=0, biases=biases, kernel=table[idx])
        want = conv_forward(layer, x, dense)
        got = conv_forward_clustered(
            layer, x, biases, table, packed, base=base, on_the_fly=on_the_fly
        )
        assert same_bits(got, want)


def spy_bands(monkeypatch):
    """Record each im2col result and the B of each GEMM call made by a conv."""
    bands, gemm_bs = [], []
    real_im2col = engine.im2col

    def im2col_spy(x, kernel, stride):
        bands.append(real_im2col(x, kernel, stride))
        return bands[-1]

    monkeypatch.setattr(engine, "im2col", im2col_spy)
    for name in ("gemm_nn", "gemm_nn_centroids", "gemm_nn_packed"):
        real = getattr(engine, name)

        def gemm_spy(*args, real=real, b_at=4 if name == "gemm_nn" else 5, **kwargs):
            gemm_bs.append(args[b_at])
            return real(*args, **kwargs)

        monkeypatch.setattr(engine, name, gemm_spy)
    return bands, gemm_bs


def conv_variant(variant, layer, x, table, idx, biases):
    """The conv of one GEMM variant, weights table[idx]."""
    if variant == "gemm_nn":
        params = ConvParams(layer_index=0, biases=biases, kernel=table[idx])
        return conv_forward(layer, x, params)
    packed = pack_indices(idx, 5)
    return conv_forward_clustered(
        layer, x, biases, table, packed, on_the_fly=variant == "packed"
    )


class TestConvBands:
    """Convolutions unfolded a few output rows at a time."""

    # 9x7 input, stride 2, pad 1: a 5x4 output; 3 channels, so 27 rows of
    # im2col and 108 elements per output row
    @pytest.mark.parametrize("path", PATHS)
    @pytest.mark.parametrize("rows, band", [(1, 1), (1, 108), (2, 2 * 108 + 107)])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_bands_match_the_scalar_conv(self, monkeypatch, variant, rows, band, path):
        rng = np.random.default_rng(rows * 7 + band)
        layer = shaped_conv(9, 7, 3, 4, 3, 2, pad=1, activation="leaky")
        out_h, out_w = layer.out_shape.h, layer.out_shape.w
        assert (out_h, out_w) == (5, 4) and out_h % rows == (0 if rows == 1 else 1)
        x = rng.normal(size=(3, 9, 7)).astype(np.float32)
        table = rng.normal(size=32).astype(np.float32)
        idx = rng.integers(0, 32, size=4 * 27)
        biases = rng.normal(size=4).astype(np.float32)
        monkeypatch.setattr(engine, "_BAND", band)
        force_path(monkeypatch, path, None, 4, rows * out_w)
        bands, gemm_bs = spy_bands(monkeypatch)
        got = conv_variant(variant, layer, x, table, idx, biases)
        assert same_bits(got, conv_forward_reference(layer, x, table[idx], biases))
        heights = [rows] * (out_h // rows) + [out_h % rows] * (out_h % rows > 0)
        assert [b.shape for b in bands] == [(27, h * out_w) for h in heights]
        # every GEMM reads one band, in order, and every band feeds a GEMM
        assert len(gemm_bs) == len(bands)
        assert all(np.shares_memory(b, g) for b, g in zip(bands, gemm_bs))

    def test_default_band_is_one_call(self, monkeypatch):
        layer = shaped_conv(9, 7, 3, 4, 3, 2, pad=1)
        bands, gemm_bs = spy_bands(monkeypatch)
        conv_forward(layer, np.zeros((3, 9, 7), dtype=np.float32),
                     ConvParams(layer_index=0, biases=np.zeros(4, dtype=np.float32),
                                kernel=np.zeros(4 * 27, dtype=np.float32)))
        assert [b.shape for b in bands] == [(27, 20)] and len(gemm_bs) == 1

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_pointwise_is_one_view_and_one_call(self, monkeypatch, variant):
        rng = np.random.default_rng(1)
        layer = shaped_conv(6, 5, 3, 4, 1, 1, pad=0)
        x = rng.normal(size=(3, 6, 5)).astype(np.float32)
        table = rng.normal(size=32).astype(np.float32)
        idx = rng.integers(0, 32, size=4 * 3)
        biases = rng.normal(size=4).astype(np.float32)
        monkeypatch.setattr(engine, "_BAND", 1)
        bands, gemm_bs = spy_bands(monkeypatch)
        got = conv_variant(variant, layer, x, table, idx, biases)
        assert same_bits(got, conv_forward_reference(layer, x, table[idx], biases))
        assert len(bands) == len(gemm_bs) == 1
        assert np.shares_memory(gemm_bs[0], x)


def byte_extent(a):
    """The first and one past the last byte address that array a reads."""
    low = high = a.__array_interface__["data"][0]
    for size, step in zip(a.shape, a.strides):
        if step > 0:
            high += (size - 1) * step
        else:
            low += (size - 1) * step
    return low, high + a.itemsize


def nan_fenced(monkeypatch):
    """Make _convolve's padded input a view into a buffer that holds NaNs
    directly before and after it; return the list of such inputs made."""
    fenced, real = [], engine._padded

    def padded(x, pad):
        src = real(x, pad)
        buffer = np.full(src.size + 64, np.nan, dtype=np.float32)
        view = buffer[32 : 32 + src.size].reshape(src.shape)
        view[...] = src
        fenced.append(view)
        return view

    monkeypatch.setattr(engine, "_padded", padded)
    return fenced


def unfold_case(rng, kernel, pad, in_w, channels=2, filters=3, in_h=6):
    """A stride-1 conv and its operands: input, table, indexes, biases."""
    layer = shaped_conv(in_h, in_w, channels, filters, kernel, 1, pad=pad,
                        activation="leaky")
    x = rng.normal(size=(channels, in_h, in_w)).astype(np.float32)
    table = rng.normal(size=32).astype(np.float32)
    idx = rng.integers(0, 32, size=filters * channels * kernel * kernel)
    biases = rng.normal(size=filters).astype(np.float32)
    return layer, x, table, idx, biases


class TestUnfoldInPlace:
    """Wide stride-1 convs read their unfold from the padded input itself:
    no im2col copy, wrap columns dropped, every output bit as the scalar
    conv's."""

    @pytest.mark.parametrize("band_rows", [1, 2, None])  # None: one band
    @pytest.mark.parametrize("in_w", [7, 8])
    @pytest.mark.parametrize("kernel, pad", [
        (1, 1), (1, 2), (3, 0), (3, 1), (3, 2), (5, 0), (5, 1), (5, 2),
    ])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_matches_the_scalar_conv(
        self, monkeypatch, variant, kernel, pad, in_w, band_rows
    ):
        rng = np.random.default_rng(kernel * 100 + pad * 10 + in_w)
        layer, x, table, idx, biases = unfold_case(rng, kernel, pad, in_w)
        out_h, out_w = layer.out_shape.h, layer.out_shape.w
        width = in_w + 2 * pad
        monkeypatch.setattr(engine, "_NARROW", 0)
        if band_rows is not None:
            monkeypatch.setattr(engine, "_SCRATCH", 2 * band_rows * width)
        fenced = nan_fenced(monkeypatch)
        bands, gemm_bs = spy_bands(monkeypatch)
        got = conv_variant(variant, layer, x, table, idx, biases)
        assert same_bits(got, conv_forward_reference(layer, x, table[idx], biases))
        assert got.flags.c_contiguous
        # no im2col; each GEMM reads rows r0..r1 of the padded input in place
        rows = band_rows or out_h
        heights = [min(rows, out_h - r0) for r0 in range(0, out_h, rows)]
        assert bands == [] and len(fenced) == 1
        assert [b.shape for b in gemm_bs] == [
            (2, kernel, kernel, (h - 1) * width + out_w) for h in heights
        ]
        low, high = byte_extent(fenced[0])
        for b in gemm_bs:
            assert np.shares_memory(b, fenced[0])
            assert low <= byte_extent(b)[0] and byte_extent(b)[1] <= high

    @pytest.mark.parametrize("band_rows", [1, None])
    @pytest.mark.parametrize("kernel, pad", [(3, 1), (5, 2), (3, 0)])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_inf_weight_at_the_centre_tap(
        self, monkeypatch, variant, kernel, pad, band_rows
    ):
        # the centre tap of a wrap column reads padding or the next row, so
        # inf * 0.0 gives NaN there; the wrap columns are dropped and the
        # output keeps the reference's bits, zeros of the input included
        rng = np.random.default_rng(kernel + pad)
        layer, x, table, idx, biases = unfold_case(rng, kernel, pad, 7)
        x[0, 2, ::3] = 0.0
        # the reference skips padding taps; only the centre tap never hits
        # padding, so only it may hold inf
        idx %= 31
        table[31] = np.inf
        idx[(kernel * kernel) // 2] = 31  # filter 0, channel 0
        monkeypatch.setattr(engine, "_NARROW", 0)
        if band_rows is not None:
            monkeypatch.setattr(engine, "_SCRATCH", 2 * band_rows * (7 + 2 * pad))
        with np.errstate(invalid="ignore"):  # inf * 0 and inf - inf are NaN
            want = conv_forward_reference(layer, x, table[idx], biases)
            got = conv_variant(variant, layer, x, table, idx, biases)
        assert np.isinf(want).any() and np.isnan(want).any()
        assert same_bits(got, want)

    @pytest.mark.parametrize("kernel, stride, pad, wide", [
        (3, 1, 1, False),  # narrow: 4 filters of 8 * 11 + 9 columns
        (3, 2, 1, True),  # stride 2
        (1, 1, 0, True),  # the pointwise view
    ])
    def test_other_convs_keep_im2col(self, monkeypatch, kernel, stride, pad, wide):
        rng = np.random.default_rng(8)
        layer = shaped_conv(9, 9, 2, 4, kernel, stride, pad=pad)
        x = rng.normal(size=(2, 9, 9)).astype(np.float32)
        weights = rng.normal(size=4 * 2 * kernel * kernel).astype(np.float32)
        biases = rng.normal(size=4).astype(np.float32)
        if wide:
            monkeypatch.setattr(engine, "_NARROW", 0)
        else:
            assert 4 * layer.out_shape.h * (9 + 2 * pad) < engine._NARROW
        bands, gemm_bs = spy_bands(monkeypatch)
        got = conv_forward(layer, x, ConvParams(layer_index=0, biases=biases, kernel=weights))
        assert same_bits(got, conv_forward_reference(layer, x, weights, biases))
        assert len(bands) == len(gemm_bs) >= 1
        assert all(b.ndim == 2 for b in gemm_bs)

    def test_input_that_is_not_contiguous(self, monkeypatch):
        # pad 0 takes x as it is, so it must be made contiguous first
        rng = np.random.default_rng(9)
        layer, x, table, idx, biases = unfold_case(rng, 3, 0, 8)
        x = np.asfortranarray(x)
        monkeypatch.setattr(engine, "_NARROW", 0)
        got = conv_variant("gemm_nn", layer, x, table, idx, biases)
        assert same_bits(got, conv_forward_reference(layer, x, table[idx], biases))


# conv, conv, route back to the first conv, conv
SKIP = """
[convolutional]
filters=4
size=3
stride=1
pad=1
activation=leaky

[convolutional]
filters=4
size=1
stride=1
activation=linear

[route]
layers=-2

[convolutional]
filters=2
size=3
stride=1
pad=1
activation=leaky
"""


# a 3x3 conv of two filters, then a 1x1 conv of three
TWO_CONVS = """
[convolutional]
filters=2
size=3
stride=1
pad=1

[convolutional]
filters=3
size=1
stride=1
"""

# (clustered, on_the_fly) of the plain, indirect and on-the-fly passes
PASSES = [(False, False), (True, False), (True, True)]


def last_conv_run(clustered, on_the_fly, **last):
    """run_network's arguments for TWO_CONVS on a 4x4x1 input, with the
    fields of the last conv's weights replaced by last. A clustered model
    is clustered from those weights."""
    net = shaped_net(TWO_CONVS, in_h=4, in_w=4, in_c=1)
    weights = read_darknet_weights(weights_blob(net), net)
    *first, conv = weights.convs
    weights = dataclasses.replace(
        weights, convs=(*first, dataclasses.replace(conv, **last))
    )
    model = cluster_model(fold_batch_norm(weights), ClusterConfig(bits=5)) if clustered else None
    return net, weights, np.zeros((1, 4, 4), dtype=np.float32), model, on_the_fly


@pytest.fixture(scope="module")
def toy_folded(toy_net, toy_weights_bytes):
    return fold_batch_norm(read_darknet_weights(toy_weights_bytes, toy_net))


@pytest.fixture(scope="module")
def toy_input(toy_net):
    rng = np.random.default_rng(99)
    return rng.normal(size=(toy_net.input.c, toy_net.input.h, toy_net.input.w)).astype(
        np.float32
    )


class TestRunNetwork:
    def test_layer_shapes_and_count(self, toy_net, toy_folded, toy_input):
        outputs = list(run_network(toy_net, toy_folded, toy_input))
        assert len(outputs) == len(toy_net.layers)
        for out, layer in zip(outputs, toy_net.layers):
            shape = layer.out_shape
            assert out.shape == (shape.c, shape.h, shape.w)
            assert out.dtype == np.float32

    def test_graph_semantics(self, toy_net, toy_folded, toy_input):
        outputs = list(run_network(toy_net, toy_folded, toy_input))
        kinds = [layer.kind for layer in toy_net.layers]
        assert kinds == [
            "convolutional",
            "convolutional",
            "shortcut",
            "convolutional",
            "upsample",
            "route",
            "yolo",
        ]
        assert same_bits(outputs[2], outputs[1] + outputs[0])
        up = np.repeat(np.repeat(outputs[3], 2, axis=1), 2, axis=2)
        assert same_bits(outputs[4], up)
        assert same_bits(outputs[5], np.concatenate([outputs[4], outputs[0]], axis=0))
        assert same_bits(outputs[6], outputs[5])

    @pytest.mark.parametrize("skip", [False, True])
    def test_outputs_are_dropped_after_their_last_reader(
        self, toy_net, toy_folded, toy_input, skip
    ):
        net, folded = toy_net, toy_folded
        if skip:  # layer 1's output has no reader: the route skips it
            net = shaped_net(SKIP, in_h=8, in_w=8, in_c=3)
            folded = fold_batch_norm(read_darknet_weights(weights_blob(net), net))
        readers = {}
        for index, layer in enumerate(net.layers):
            sources = {
                "route": layer.sources, "shortcut": (index - 1, layer.from_index)
            }.get(layer.kind, (index - 1,))
            for source in sources:
                readers.setdefault(source, set()).add(index)
        refs = []
        for index, output in enumerate(run_network(net, folded, toy_input)):
            refs.append(weakref.ref(output))
            # a yolo layer yields its input itself
            same = {i for i, ref in enumerate(refs[:index]) if ref() is output}
            del output
            gc.collect()
            alive = {i for i, ref in enumerate(refs[:index]) if ref() is not None}
            later = {i for i in range(index) if max(readers.get(i, {-1})) > index}
            assert alive - same == later

    def test_shortcut_from_minus_one_adds_the_map_to_itself(self, toy_input):
        net = shaped_net("[convolutional]\nfilters=4\nsize=1\n[shortcut]\nfrom=-1")
        weights = read_darknet_weights(weights_blob(net), net)
        conv, shortcut = run_network(net, weights, toy_input)
        assert same_bits(shortcut, conv + conv)

    def test_conv_layers_match_direct_calls(self, toy_net, toy_folded, toy_input):
        outputs = list(run_network(toy_net, toy_folded, toy_input))
        assert same_bits(
            outputs[0],
            conv_forward(toy_net.layers[0], toy_input, toy_folded.conv_for_layer(0)),
        )
        assert same_bits(
            outputs[1],
            conv_forward(toy_net.layers[1], outputs[0], toy_folded.conv_for_layer(1)),
        )

    @pytest.mark.parametrize("scope", ["all_layers", "per_layer"])
    @pytest.mark.parametrize("on_the_fly", [False, True])
    def test_clustered_run_bitwise_equals_dequantized_run(
        self, toy_net, toy_folded, toy_input, scope, on_the_fly
    ):
        model = cluster_model(toy_folded, ClusterConfig(scope=scope, bits=5))
        # whole-stream decodes, sliced by hand: a reference independent of
        # cluster.dequantize's per-span decode
        streams = [
            entry.table.centroids[unpack_indices(entry.packed, 0, entry.packed.count)]
            for entry in model.entries
        ]
        if scope == "all_layers":
            [stream] = streams
            pieces = []
            base = 0
            for conv in toy_folded.convs:
                pieces.append(stream[base : base + conv.n_weights])
                base += conv.n_weights
        else:
            pieces = streams
        dequantized = DarknetWeights(
            0,
            2,
            0,
            0,
            tuple(
                ConvParams(layer_index=c.layer_index, biases=c.biases, kernel=piece)
                for c, piece in zip(toy_folded.convs, pieces)
            ),
        )
        want = list(run_network(toy_net, dequantized, toy_input))
        got = list(run_network(
            toy_net, toy_folded, toy_input, clustered=model, on_the_fly=on_the_fly
        ))
        for a, b in zip(got, want):
            assert same_bits(a, b)

    @pytest.mark.parametrize("scope", ["all_layers", "per_layer"])
    @pytest.mark.parametrize("on_the_fly", [False, True])
    def test_each_conv_decodes_its_own_span_when_it_runs(
        self, toy_net, toy_folded, toy_input, scope, on_the_fly, monkeypatch
    ):
        model = cluster_model(toy_folded, ClusterConfig(scope=scope, bits=5))
        calls = []

        def counting(packed, start, count):
            calls.append((packed, start, count))
            return unpack_indices(packed, start, count)

        monkeypatch.setattr(engine, "unpack_indices", counting)
        outputs = run_network(
            toy_net, toy_folded, toy_input, clustered=model, on_the_fly=on_the_fly
        )
        assert calls == []  # nothing is decoded at the call
        spans = {
            conv.layer_index: (entry.packed, base, conv.n_weights)
            for entry, layers in model.spans(toy_folded)
            for conv, base in layers
        }
        for index, _ in enumerate(outputs):
            # the on-the-fly pass decodes inside the GEMM, never a whole span
            want = [spans[index]] if index in spans and not on_the_fly else []
            assert calls == want, index
            calls.clear()

    def test_indirect_pass_holds_one_conv_of_indexes(self):
        # 16 1x1 64->64 convs on a 2x2 map share one 5-bit table: its decoded
        # stream is 256 KB, one conv's span of it 16 KB. The on-the-fly pass
        # decodes a block at a time, so its peak is the floor to compare with.
        body = "[convolutional]\nfilters=64\nsize=1\nstride=1\nactivation=linear\n"
        net = shaped_net(body * 16, in_h=2, in_w=2, in_c=64)
        rng = np.random.default_rng(6)
        n = 64 * 64
        zeros = np.zeros(n, dtype=np.float32)
        weights = DarknetWeights(0, 2, 0, 0, tuple(
            ConvParams(layer_index=i, biases=zeros[:64], kernel=zeros)
            for i in range(16)
        ))
        table = CentroidTable(rng.normal(size=32).astype(np.float32))
        packed = pack_indices(rng.integers(0, 32, size=16 * n), 5)
        model = ClusteredModel("all_layers", 5, (ClusterEntry(None, table, packed),))
        x = rng.normal(size=(64, 2, 2)).astype(np.float32)

        def peak(on_the_fly):
            tracemalloc.start()
            try:
                for _ in run_network(net, weights, x, model, on_the_fly):
                    pass
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        floor = peak(True)
        assert peak(False) <= floor + 2 * n * 4, floor

    # The rejections below come from the call itself, before any layer runs:
    # the returned iterator is never advanced.
    def test_rejects_unfolded_weights(self, toy_net, toy_weights_bytes, toy_input):
        raw = read_darknet_weights(toy_weights_bytes, toy_net)
        with pytest.raises(ValueError, match="fold"):
            run_network(toy_net, raw, toy_input)

    @pytest.mark.parametrize("clustered, on_the_fly", PASSES)
    def test_rejects_unfolded_batch_norm_in_the_last_conv(self, clustered, on_the_fly):
        ones = np.ones(3, dtype=np.float32)
        args = last_conv_run(clustered, on_the_fly, scales=ones, rolling_mean=ones,
                             rolling_var=ones)
        with pytest.raises(ValueError, match="^layer 1 still carries batch-norm"):
            run_network(*args)

    @pytest.mark.parametrize("clustered, on_the_fly", PASSES)
    def test_rejects_wrong_kernel_size_in_the_last_conv(self, clustered, on_the_fly):
        # 9 weights are three whole filters, so ConvParams takes them; the
        # clustered model covers all 9, so only the layer's shape tells
        args = last_conv_run(clustered, on_the_fly, kernel=np.ones(9, dtype=np.float32))
        with pytest.raises(
            ValueError, match=r"^layer 1: kernel holds 9 weights, its 3x2 shape needs 6$"
        ):
            run_network(*args)

    @pytest.mark.parametrize("clustered, on_the_fly", PASSES)
    def test_rejects_one_bias_for_many_filters(self, clustered, on_the_fly):
        # one bias would broadcast over the conv's three filters
        args = last_conv_run(clustered, on_the_fly, biases=np.ones(1, dtype=np.float32))
        with pytest.raises(ValueError, match=r"^layer 1: 1 biases for 3 filters$"):
            run_network(*args)

    @pytest.mark.parametrize("clustered, on_the_fly", PASSES)
    @pytest.mark.parametrize("layers, missing, extra", [
        ((0, 5), "[1]", "[5]"),  # the last conv's parameters under layer 5
        ((0,), "[1]", "[]"),
        ((0, 1, 2), "[]", "[2]"),
    ])
    def test_weights_must_hold_exactly_the_network_convs(
        self, clustered, on_the_fly, layers, missing, extra
    ):
        net, weights, x, _, _ = last_conv_run(False, False)
        params = (*weights.convs, weights.convs[-1])
        weights = dataclasses.replace(weights, convs=tuple(
            dataclasses.replace(conv, layer_index=index)
            for conv, index in zip(params, layers)
        ))
        model = cluster_model(weights, ClusterConfig(bits=5)) if clustered else None
        message = (
            f"^weights do not match the network's convs: missing layers "
            f"{re.escape(missing)}, extra layers {re.escape(extra)}$"
        )
        with pytest.raises(ValueError, match=message):
            run_network(net, weights, x, model, on_the_fly)

    @pytest.mark.parametrize("on_the_fly", [False, True])
    def test_stream_must_cover_every_conv(self, on_the_fly):
        net, weights, x, _, _ = last_conv_run(False, False)
        # a stream one index short of the two convs' 18 + 6 weights
        table = CentroidTable(np.zeros(32, dtype=np.float32))
        short = ClusterEntry(None, table, pack_indices([0] * 23, 5))
        model = ClusteredModel("all_layers", 5, (short,))
        with pytest.raises(ValueError, match="covers 23 weights, .* hold 24"):
            run_network(net, weights, x, model, on_the_fly)

    def test_rejects_wrong_input_shape(self, toy_net, toy_folded):
        with pytest.raises(ValueError, match="input shape"):
            run_network(toy_net, toy_folded, np.zeros((3, 4, 4), dtype=np.float32))

    def test_rejects_mismatched_clustered_model(self, toy_net, toy_folded, toy_input):
        other = DarknetWeights(
            0,
            2,
            0,
            0,
            (
                ConvParams(
                    layer_index=0,
                    biases=np.zeros(1, dtype=np.float32),
                    kernel=np.zeros(9, dtype=np.float32),
                ),
            ),
        )
        model = cluster_model(other, ClusterConfig(bits=5))
        with pytest.raises(ValueError, match="does not cover"):
            run_network(toy_net, toy_folded, toy_input, clustered=model)

    def test_folded_network_close_to_batch_norm_semantics(
        self, toy_net, toy_weights_bytes, toy_input
    ):
        """Folding changes rounding but not meaning; outputs stay close."""
        raw = read_darknet_weights(toy_weights_bytes, toy_net)
        folded = fold_batch_norm(raw)
        outputs = list(run_network(toy_net, folded, toy_input))
        conv0 = raw.convs[0]
        spec = toy_net.layers[0].conv
        plain = shaped_conv(
            toy_net.input.h,
            toy_net.input.w,
            toy_net.input.c,
            spec.filters,
            spec.kernel,
            spec.stride,
        )
        ref = conv_forward_reference(
            plain, toy_input, conv0.kernel, np.zeros(spec.filters, dtype=np.float32)
        ).astype(np.float64)
        factor = conv0.scales.astype(np.float64) / np.sqrt(
            conv0.rolling_var.astype(np.float64) + 1e-6
        )
        bn = (
            factor[:, None, None] * (ref - conv0.rolling_mean.astype(np.float64)[:, None, None])
            + conv0.biases.astype(np.float64)[:, None, None]
        )
        bn = np.where(bn > 0, bn, 0.1 * bn)
        assert np.allclose(outputs[0], bn, rtol=1e-3, atol=1e-4)

"""Bit-exact inference engine: GEMM variants, im2col and network execution."""

import numpy as np
import pytest

from convwatt import engine
from convwatt.cluster import (
    ClusterConfig,
    ConvParams,
    DarknetWeights,
    cluster_model,
    dequantize,
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
from test_traffic import shaped_conv


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
    alpha = float(rng.choice([1.0, 0.5, -0.25]))
    return m, n, k, alpha, a, lda, b, ldb, c, ldc


def gemm_cases(rng, count, with_padding=False):
    """count small random instances, then four up to 40 wide with lda > K and
    ldc > N, where a wrong row stride in the vectorized (M, N) update shows."""
    for _ in range(count):
        yield random_gemm_instance(rng, with_padding)
    for _ in range(4):
        yield random_gemm_instance(rng, True, max_dim=40, min_pad=1)


class TestGemm:
    def test_two_by_two_by_hand(self):
        a = f32([1, 2, 3, 4])
        b = f32([5, 6, 7, 8])
        c = np.zeros(4, dtype=np.float32)
        gemm_nn(2, 2, 2, 1.0, a, 2, b, 2, c, 2)
        assert c.tolist() == [19.0, 22.0, 43.0, 50.0]

    def test_updates_in_place_and_returns_c(self):
        c = np.zeros(1, dtype=np.float32)
        out = gemm_nn(1, 1, 1, 1.0, f32([2.0]), 1, f32([3.0]), 1, c, 1)
        assert out is c
        assert c[0] == 6.0

    def test_accumulates_into_existing_c(self):
        c = f32([100.0])
        gemm_nn(1, 1, 1, 1.0, f32([2.0]), 1, f32([3.0]), 1, c, 1)
        assert c[0] == 106.0

    def test_alpha_zero_leaves_c(self):
        c = f32([5.0, -1.0])
        gemm_nn(1, 2, 3, 0.0, f32([1, 2, 3]), 3, np.ones(6, dtype=np.float32), 2, c, 2)
        assert c.tolist() == [5.0, -1.0]

    @pytest.mark.parametrize("with_padding", [False, True])
    def test_matches_scalar_reference_bitwise(self, with_padding):
        rng = np.random.default_rng(42 + with_padding)
        for m, n, k, alpha, a, lda, b, ldb, c, ldc in gemm_cases(
            rng, 60, with_padding
        ):
            expected = gemm_nn_reference(m, n, k, alpha, a, lda, b, ldb, c, ldc)
            got = c.copy()
            gemm_nn(m, n, k, alpha, a, lda, b, ldb, got, ldc)
            assert same_bits(got, expected)

    @pytest.mark.parametrize("m, n, k", [(0, 3, 2), (2, 0, 2), (2, 3, 0), (0, 0, 0)])
    def test_empty_dimension_leaves_c_untouched(self, m, n, k):
        rng = np.random.default_rng(5)
        lda, ldb, ldc = k + 1, n + 1, n + 1
        a = rng.normal(size=m * lda).astype(np.float32)
        b = rng.normal(size=k * ldb).astype(np.float32)
        c = rng.normal(size=max(m, 1) * ldc).astype(np.float32)
        idx = np.zeros(a.size, dtype=np.int64)
        table = f32([2.0])
        outs = [c.copy() for _ in range(3)]
        gemm_nn(m, n, k, 1.0, a, lda, b, ldb, outs[0], ldc)
        gemm_nn_centroids(m, n, k, 1.0, table, idx, lda, b, ldb, outs[1], ldc)
        gemm_nn_packed(
            m, n, k, 1.0, table, pack_indices(idx, 5), lda, b, ldb, outs[2], ldc
        )
        for got in outs:
            assert same_bits(got, c)

    def test_rejects_float64(self):
        c = np.zeros(1, dtype=np.float32)
        with pytest.raises(TypeError, match="float32"):
            gemm_nn(1, 1, 1, 1.0, np.ones(1), 1, f32([1.0]), 1, c, 1)
        with pytest.raises(TypeError, match="float32"):
            gemm_nn(1, 1, 1, 1.0, f32([1.0]), 1, f32([1.0]), 1, np.zeros(1), 1)

    def test_rejects_output_that_cannot_be_updated_in_place(self):
        c = np.zeros((4, 4), dtype=np.float32)[:2, :3]
        with pytest.raises(ValueError, match="contiguous"):
            gemm_nn(2, 3, 1, 1.0, f32([1.0, 1.0]), 1, f32([1.0, 2.0, 3.0]), 3, c, 3)

    def test_rejects_short_buffers(self):
        c = np.zeros(4, dtype=np.float32)
        with pytest.raises(ValueError, match="A: .*elements"):
            gemm_nn(2, 2, 2, 1.0, f32([1, 2, 3]), 2, np.ones(4, dtype=np.float32), 2, c, 2)
        with pytest.raises(ValueError, match="leading dimension"):
            gemm_nn(1, 2, 2, 1.0, f32([1, 2]), 1, np.ones(4, dtype=np.float32), 2, c, 2)


class TestGemmCentroids:
    def test_matches_dequantized_gemm_bitwise(self):
        rng = np.random.default_rng(9)
        for m, n, k, alpha, _, lda, b, ldb, c, ldc in gemm_cases(rng, 60, True):
            table = rng.normal(size=int(rng.integers(2, 33))).astype(np.float32)
            idx = rng.integers(0, table.size, size=(m - 1) * lda + k)
            dense = table[idx]
            want = gemm_nn_reference(m, n, k, alpha, dense, lda, b, ldb, c, ldc)
            got = c.copy()
            gemm_nn_centroids(m, n, k, alpha, table, idx, lda, b, ldb, got, ldc)
            assert same_bits(got, want)

    def test_rejects_out_of_range_index(self):
        c = np.zeros(1, dtype=np.float32)
        with pytest.raises(ValueError, match="out of range"):
            gemm_nn_centroids(1, 1, 1, 1.0, f32([1.0]), [1], 1, f32([1.0]), 1, c, 1)


class TestGemmPacked:
    def test_matches_unpacked_bitwise(self):
        rng = np.random.default_rng(13)
        for bits in (5, 6, 7, 8):
            for m, n, k, alpha, _, lda, b, ldb, c, ldc in gemm_cases(rng, 20):
                table = rng.normal(size=1 << bits).astype(np.float32)
                idx = rng.integers(0, table.size, size=(m - 1) * lda + k)
                packed = pack_indices(idx, bits)
                want = gemm_nn_reference(
                    m, n, k, alpha, table[idx], lda, b, ldb, c, ldc
                )
                got = c.copy()
                gemm_nn_packed(m, n, k, alpha, table, packed, lda, b, ldb, got, ldc)
                assert same_bits(got, want)

    @pytest.mark.parametrize("bits", [5, 6, 7])
    def test_unaligned_base_matches_scalar_reference(self, bits):
        rng = np.random.default_rng(100 + bits)
        per_word = 32 // bits
        for _ in range(4):
            m, n, k, alpha, _, lda, b, ldb, c, ldc = random_gemm_instance(
                rng, True, max_dim=40, min_pad=1
            )
            base = per_word * int(rng.integers(0, 4)) + int(rng.integers(1, per_word))
            table = rng.normal(size=1 << bits).astype(np.float32)
            stream = rng.integers(0, table.size, size=base + (m - 1) * lda + k)
            packed = pack_indices(stream, bits)
            want = gemm_nn_reference(
                m, n, k, alpha, table[stream[base:]], lda, b, ldb, c, ldc
            )
            got = c.copy()
            gemm_nn_packed(
                m, n, k, alpha, table, packed, lda, b, ldb, got, ldc, base=base
            )
            assert same_bits(got, want)

    def test_base_offset_selects_slice(self):
        rng = np.random.default_rng(17)
        table = rng.normal(size=16).astype(np.float32)
        stream = rng.integers(0, 16, size=40)
        packed = pack_indices(stream, 4)
        b = rng.normal(size=18).astype(np.float32)
        for base in (0, 7, 28):
            idx = stream[base : base + 12]
            want = np.zeros(6, dtype=np.float32)
            gemm_nn_centroids(2, 3, 6, 1.0, table, idx, 6, b, 3, want, 3)
            got = np.zeros(6, dtype=np.float32)
            gemm_nn_packed(2, 3, 6, 1.0, table, packed, 6, b, 3, got, 3, base=base)
            assert same_bits(got, want)

    def test_stream_too_short(self):
        packed = pack_indices([0, 1, 2], 8)
        c = np.zeros(1, dtype=np.float32)
        with pytest.raises(ValueError, match="too short"):
            gemm_nn_packed(
                1, 1, 2, 1.0, f32([1.0, 2.0, 3.0]), packed, 2, f32([1.0, 1.0]), 1, c, 1,
                base=2,
            )

    def test_index_beyond_table(self):
        packed = pack_indices([5], 8)
        c = np.zeros(1, dtype=np.float32)
        with pytest.raises(ValueError, match="out of range"):
            gemm_nn_packed(1, 1, 1, 1.0, f32([1.0, 2.0]), packed, 1, f32([1.0]), 1, c, 1)


class TestIm2col:
    def test_identity_for_1x1(self):
        x = np.arange(2 * 3 * 3, dtype=np.float32).reshape(2, 3, 3)
        cols = im2col(x, kernel=1, stride=1, pad=0)
        assert same_bits(cols, x.reshape(2, 9))

    def test_center_row_is_the_input(self):
        x = np.arange(9, dtype=np.float32).reshape(1, 3, 3)
        cols = im2col(x, kernel=3, stride=1, pad=1)
        assert cols.shape == (9, 9)
        # kernel cell (1,1) of channel 0 sees exactly the unshifted input
        assert same_bits(cols[4], x.reshape(-1))

    def test_corner_taps_hit_padding(self):
        x = np.ones((1, 3, 3), dtype=np.float32)
        cols = im2col(x, kernel=3, stride=1, pad=1)
        # kernel cell (0,0) at output (0,0) reads the padded corner
        assert cols[0, 0] == 0.0
        assert cols[0, 4] == 1.0

    def test_row_order_is_channel_kr_kc(self):
        x = np.stack(
            [np.zeros((3, 3), dtype=np.float32), np.ones((3, 3), dtype=np.float32)]
        )
        cols = im2col(x, kernel=3, stride=1, pad=1)
        assert cols[:9][4].max() == 0.0
        assert cols[9:][4].min() == 1.0

    def test_stride_two_subsamples(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 4, 4)
        cols = im2col(x, kernel=1, stride=2, pad=0)
        assert cols.reshape(-1).tolist() == [0.0, 2.0, 8.0, 10.0]

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError, match="CHW"):
            im2col(np.zeros((3, 3), dtype=np.float32), 3, 1, 1)
        with pytest.raises(ValueError, match="does not fit"):
            im2col(np.zeros((1, 2, 2), dtype=np.float32), 5, 1, 0)

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

    def test_rejects_unfolded_batch_norm(self):
        layer = shaped_conv(4, 4, 1, 1, 3, 1)
        ones = np.ones(1, dtype=np.float32)
        params = ConvParams(
            layer_index=0,
            biases=ones,
            kernel=np.ones(9, dtype=np.float32),
            scales=ones,
            rolling_mean=ones,
            rolling_var=ones,
        )
        with pytest.raises(ValueError, match="fold"):
            conv_forward(layer, np.zeros((1, 4, 4), dtype=np.float32), params)

    def test_rejects_wrong_kernel_size(self):
        layer = shaped_conv(4, 4, 1, 1, 3, 1)
        params = ConvParams(
            layer_index=0,
            biases=np.ones(1, dtype=np.float32),
            kernel=np.ones(8, dtype=np.float32),
        )
        with pytest.raises(ValueError, match="kernel holds 8"):
            conv_forward(layer, np.zeros((1, 4, 4), dtype=np.float32), params)

    def test_rejects_wrong_input_shape(self):
        layer = shaped_conv(4, 4, 1, 1, 3, 1)
        params = ConvParams(
            layer_index=0,
            biases=np.ones(1, dtype=np.float32),
            kernel=np.ones(9, dtype=np.float32),
        )
        with pytest.raises(ValueError, match="input shape"):
            conv_forward(layer, np.zeros((1, 5, 4), dtype=np.float32), params)


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

    def test_stream_must_cover_layer(self):
        layer = shaped_conv(4, 4, 1, 2, 3, 1)
        packed = pack_indices([0] * 17, 5)
        with pytest.raises(ValueError, match="stream ends"):
            conv_forward_clustered(
                layer,
                np.zeros((1, 4, 4), dtype=np.float32),
                np.zeros(2, dtype=np.float32),
                np.zeros(32, dtype=np.float32),
                packed,
            )


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
        outputs = run_network(toy_net, toy_folded, toy_input)
        assert len(outputs) == len(toy_net.layers)
        for out, layer in zip(outputs, toy_net.layers):
            shape = layer.out_shape
            assert out.shape == (shape.c, shape.h, shape.w)
            assert out.dtype == np.float32

    def test_graph_semantics(self, toy_net, toy_folded, toy_input):
        outputs = run_network(toy_net, toy_folded, toy_input)
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

    def test_conv_layers_match_direct_calls(self, toy_net, toy_folded, toy_input):
        outputs = run_network(toy_net, toy_folded, toy_input)
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
        if scope == "all_layers":
            entry = model.entries[0]
            stream = dequantize(entry.table, entry.packed)
            pieces = []
            base = 0
            for conv in toy_folded.convs:
                pieces.append(stream[base : base + conv.n_weights])
                base += conv.n_weights
        else:
            pieces = [
                dequantize(entry.table, entry.packed) for entry in model.entries
            ]
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
        want = run_network(toy_net, dequantized, toy_input)
        got = run_network(
            toy_net, toy_folded, toy_input, clustered=model, on_the_fly=on_the_fly
        )
        for a, b in zip(got, want):
            assert same_bits(a, b)

    @pytest.mark.parametrize("scope", ["all_layers", "per_layer"])
    @pytest.mark.parametrize("on_the_fly", [False, True])
    def test_each_stream_decoded_at_most_once(
        self, toy_net, toy_folded, toy_input, scope, on_the_fly, monkeypatch
    ):
        model = cluster_model(toy_folded, ClusterConfig(scope=scope, bits=5))
        calls = []

        def counting(packed):
            calls.append(packed)
            return unpack_indices(packed)

        monkeypatch.setattr(engine, "unpack_indices", counting)
        run_network(toy_net, toy_folded, toy_input, clustered=model, on_the_fly=on_the_fly)
        expected = [] if on_the_fly else [entry.packed for entry in model.entries]
        assert calls == expected

    def test_rejects_unfolded_weights(self, toy_net, toy_weights_bytes, toy_input):
        raw = read_darknet_weights(toy_weights_bytes, toy_net)
        with pytest.raises(ValueError, match="fold"):
            run_network(toy_net, raw, toy_input)

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
        outputs = run_network(toy_net, folded, toy_input)
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

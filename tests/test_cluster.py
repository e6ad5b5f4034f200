"""Weight clustering, bit packing and the binary file formats."""

import struct
import zlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from convwatt import cluster
from convwatt.cluster import (
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
    quantization_sse,
    read_clustered,
    read_darknet_weights,
    unpack_indices,
    write_clustered,
    write_darknet_weights,
)

from conftest import weights_blob
from oracles import optimal_kmeans_sse, pack_indices_reference


def recrc(data: bytes) -> bytes:
    """Recompute the trailing CRC32 after patching container bytes."""
    body = data[:-4]
    return body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)


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
        assert unpack_indices(packed).size == 0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="0..31"):
            pack_indices([32], 5)
        with pytest.raises(ValueError, match="0..255"):
            pack_indices([-1], 8)

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
        assert unpack_indices(packed).tolist() == indices


class TestKmeans:
    def test_two_tight_groups(self):
        table, assignments = kmeans_1d([0, 0, 0, 10, 10, 10], 2)
        assert table.centroids.tolist() == [0.0, 10.0]
        assert assignments.tolist() == [0, 0, 0, 1, 1, 1]
        assert quantization_sse([0, 0, 0, 10, 10, 10], table, assignments) == 0.0

    def test_single_centroid_is_mean(self):
        table, assignments = kmeans_1d([0.0, 1.0], 1)
        assert table.centroids.tolist() == [0.5]
        assert quantization_sse([0.0, 1.0], table, assignments) == 0.5

    def test_few_distinct_values_quantize_exactly(self):
        table, assignments = kmeans_1d([3.0, 1.0, 2.0, 1.0], 4)
        assert table.centroids.tolist() == [1.0, 2.0, 3.0, 3.0]
        assert assignments.tolist() == [2, 0, 1, 0]
        assert quantization_sse([3.0, 1.0, 2.0, 1.0], table, assignments) == 0.0

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
            sse = quantization_sse(values, table, assignments)
            assert sse <= best * 1.05 + 1e-12

    def test_never_worse_than_initial_grid(self):
        rng = np.random.default_rng(23)
        for trial in range(20):
            values = rng.normal(size=rng.integers(20, 400))
            k = int(rng.integers(2, 9))
            table, assignments = kmeans_1d(values, k)
            final = quantization_sse(values, table, assignments)
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

        def worse_on_second_sweep(sorted_values, bounds):
            means = real(sorted_values, bounds)
            sweeps.append(None)
            return [m + 100.0 for m in means] if len(sweeps) == 2 else means

        monkeypatch.setattr(cluster, "_segment_means", worse_on_second_sweep)
        values = np.random.default_rng(3).normal(size=500)
        with pytest.raises(RuntimeError, match="k-means SSE increased"):
            kmeans_1d(values, 4)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError, match="non-empty"):
            kmeans_1d([], 2)
        with pytest.raises(ValueError, match="finite"):
            kmeans_1d([1.0, float("nan")], 2)
        with pytest.raises(ValueError, match="k"):
            kmeans_1d([1.0], 0)

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
        assert ClusterConfig(bits=5).k == 32

    def test_table_validation(self):
        with pytest.raises(ValueError, match="non-empty"):
            CentroidTable(np.array([], dtype=np.float32))
        with pytest.raises(ValueError, match="finite"):
            CentroidTable(np.array([np.inf], dtype=np.float32))
        with pytest.raises(ValueError, match="1-D"):
            CentroidTable(np.zeros((2, 2), dtype=np.float32))


class TestQuantization:
    def test_sse_by_hand(self):
        table = CentroidTable(np.array([0.0, 4.0], dtype=np.float32))
        assert quantization_sse([0.0, 1.0, 4.0], table, [0, 0, 1]) == 1.0

    def test_dequantize_by_hand(self):
        table = CentroidTable(np.array([-1.5, 0.25, 3.0], dtype=np.float32))
        packed = pack_indices([2, 0, 1, 1], 2)
        assert dequantize(table, packed).tolist() == [3.0, -1.5, 0.25, 0.25]

    def test_dequantize_range_check(self):
        table = CentroidTable(np.array([1.0, 2.0], dtype=np.float32))
        packed = pack_indices([3], 2)
        with pytest.raises(ClusterFormatError, match="out of range"):
            dequantize(table, packed)


class TestWeightsIO:
    def test_roundtrip_is_byte_identical(self, toy_weights, toy_weights_bytes):
        assert write_darknet_weights(toy_weights) == toy_weights_bytes

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
        with pytest.raises(KeyError):
            toy_weights.conv_for_layer(2)

    def test_truncation_names_what_is_missing(self, toy_net, toy_weights_bytes):
        with pytest.raises(WeightsFormatError, match="truncated.*kernel"):
            read_darknet_weights(toy_weights_bytes[:-8], toy_net)
        with pytest.raises(WeightsFormatError, match="truncated.*header"):
            read_darknet_weights(b"\x00" * 4, toy_net)

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
        stream = np.concatenate([c.kernel for c in folded.convs])
        assert dequantize(entry.table, entry.packed).shape == stream.shape

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
        recon = dequantize(model.entries[0].table, model.entries[0].packed)
        d = stream.astype(np.float64) - recon.astype(np.float64)
        assert sse == pytest.approx(float(np.dot(d, d)), rel=1e-12)

    def test_model_sse_count_mismatch(self, folded):
        model = cluster_model(folded, ClusterConfig(bits=5))
        entry = model.entries[0]
        shorter = ClusterEntry(
            None, entry.table, pack_indices(unpack_indices(entry.packed)[:-1], 5)
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
            global_sse = sum(model_sse(cluster_model(weights, ClusterConfig(bits=3)), weights))
            per_sse = sum(
                model_sse(
                    cluster_model(weights, ClusterConfig(scope="per_layer", bits=3)),
                    weights,
                )
            )
            assert per_sse <= global_sse

    def test_model_validation(self):
        table = CentroidTable(np.array([0.0], dtype=np.float32))
        packed = pack_indices([0, 0], 2)
        entry = ClusterEntry(None, table, packed)
        with pytest.raises(ValueError, match="exactly one global table"):
            ClusteredModel(scope="all_layers", bits=2, entries=(entry, entry))
        with pytest.raises(ValueError, match="layer id"):
            ClusteredModel(scope="per_layer", bits=2, entries=(entry,))
        with pytest.raises(ValueError, match="width disagrees"):
            ClusteredModel(scope="all_layers", bits=3, entries=(entry,))
        big = CentroidTable(np.zeros(5, dtype=np.float32))
        with pytest.raises(ValueError, match="larger"):
            ClusteredModel(
                scope="all_layers", bits=2, entries=(ClusterEntry(None, big, packed),)
            )
        with pytest.raises(ValueError, match="at least one"):
            ClusteredModel(scope="all_layers", bits=2, entries=())


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
        recon = dequantize(model.entries[0].table, model.entries[0].packed)
        assert np.unique(recon).size <= 32

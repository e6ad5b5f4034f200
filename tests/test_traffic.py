"""Element-access and operation counting under the output-stationary model."""

import dataclasses
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import conv_stream_counts
from convwatt.netdef import ShapeError, parse_config
from convwatt.traffic import (
    READS_SPLIT,
    ROWS_INPUT,
    AccessProfile,
    OpProfile,
    UnsupportedLayerError,
    aggregate,
    conv_accesses,
    conv_macs,
    op_profile,
    other_layer_accesses,
)

# Ground truth for the 608x608 fixture, cross-checked against the published
# measurements this model reproduces (81.9 / 12.0 / 6.1 access split).
FIXTURE_WEIGHT_READS = 1_635_432_768
FIXTURE_INPUT_READS = 239_391_331
# of those, the reads of maps that the preceding layer wrote ("split" bucket)
FIXTURE_SPLIT_INPUT_READS = 205_567_075
FIXTURE_OUTPUT_WRITES = 121_696_710
FIXTURE_TOTAL = 1_996_520_809
FIXTURE_MACS = 70_345_950_208
FIXTURE_KERNEL_WEIGHTS = 61_895_776


def reads(profile: AccessProfile) -> int:
    return profile.weight_reads + profile.input_reads + profile.output_reads


def elements(profile: AccessProfile) -> int:
    return reads(profile) + profile.output_writes


def shaped_conv(in_h, in_w, in_c, filters, kernel, stride, pad=None, activation="linear"):
    if pad is None:
        pad = kernel // 2
    text = (
        f"[net]\nwidth={in_w}\nheight={in_h}\nchannels={in_c}\n"
        f"[convolutional]\nfilters={filters}\nsize={kernel}\nstride={stride}\n"
        f"padding={pad}\nactivation={activation}"
    )
    return parse_config(text).layers[0]


def shaped_net(body: str, in_h=8, in_w=8, in_c=3):
    return parse_config(f"[net]\nwidth={in_w}\nheight={in_h}\nchannels={in_c}\n{body}")


class TestConvAccesses:
    def test_3x3_stride1_weight_reads(self):
        layer = shaped_conv(8, 8, 3, 4, kernel=3, stride=1)
        profile = conv_accesses(layer)
        assert profile.weight_reads == 3 * 3 * 3 * 4 * (8 - 2) == 648
        assert profile.input_reads == 8 * 3 * 3 * (8 - 2) == 432
        assert profile.output_writes == 8 * 8 * 4 == 256
        assert profile.output_reads == 0

    def test_1x1_weight_reads(self):
        layer = shaped_conv(8, 8, 3, 4, kernel=1, stride=1)
        profile = conv_accesses(layer)
        assert profile.weight_reads == 1 * 1 * 3 * 4 * 8 == 96
        assert profile.input_reads == 8 * 3 * 8 == 192
        assert profile.output_writes == 256

    def test_3x3_stride2_extra_padded_column(self):
        layer = shaped_conv(608, 608, 3, 32, kernel=3, stride=2)
        profile = conv_accesses(layer)
        assert profile.input_reads == (608 + 1) * 3 * 3 * (608 - 2)
        # weights stream once per interior computed output row
        assert profile.weight_reads == 3 * 3 * 3 * 32 * (304 - 2)
        assert profile.output_writes == 304 * 304 * 32

    def test_stride2_row_convention_switch(self):
        layer = shaped_conv(608, 608, 3, 32, kernel=3, stride=2)
        literal = conv_accesses(layer, row_convention=ROWS_INPUT)
        assert literal.weight_reads == 3 * 3 * 3 * 32 * (608 - 2)
        assert literal.input_reads == conv_accesses(layer).input_reads

    def test_conventions_agree_when_output_matches_input(self):
        layer = shaped_conv(16, 16, 2, 3, kernel=3, stride=1)
        assert conv_accesses(layer) == conv_accesses(layer, row_convention=ROWS_INPUT)

    @pytest.mark.parametrize("kernel,stride", [(5, 1), (3, 3), (7, 2)])
    def test_unsupported_pair_is_named(self, kernel, stride):
        layer = shaped_conv(32, 32, 3, 4, kernel=kernel, stride=stride)
        with pytest.raises(UnsupportedLayerError) as err:
            conv_accesses(layer)
        assert f"kernel {kernel} stride {stride}" in str(err.value)

    def test_tiny_map_rejected_for_3x3(self):
        layer = shaped_conv(2, 8, 1, 1, kernel=3, stride=1)
        with pytest.raises(UnsupportedLayerError, match="too small"):
            conv_accesses(layer)

    def test_stream_enumeration_matches_for_stride1(self):
        # brute-force schedule walk, element by element
        for kernel in (3, 1):
            for in_h, in_w, in_c, filters in [(8, 8, 3, 4), (5, 9, 2, 7), (3, 3, 1, 1)]:
                layer = shaped_conv(in_h, in_w, in_c, filters, kernel=kernel, stride=1)
                profile = conv_accesses(layer)
                wr, ir = conv_stream_counts(in_h, in_w, in_c, filters, kernel)
                assert profile.weight_reads == wr
                assert profile.input_reads == ir

    def test_stream_enumeration_matches_for_stride2(self):
        # odd and even maps: the padded map's output rows are (in_h - 1) // 2 + 1
        for in_h, in_w, in_c, filters in [(8, 8, 3, 4), (9, 5, 2, 7), (5, 9, 1, 3),
                                          (6, 6, 4, 1), (7, 3, 1, 1)]:
            layer = shaped_conv(in_h, in_w, in_c, filters, kernel=3, stride=2)
            assert layer.out_shape.h == (in_h - 1) // 2 + 1
            profile = conv_accesses(layer)
            wr, ir = conv_stream_counts(in_h, in_w, in_c, filters, 3, stride=2)
            assert profile.weight_reads == wr
            assert profile.input_reads == ir

    @given(
        in_h=st.integers(min_value=5, max_value=64),
        in_w=st.integers(min_value=5, max_value=64),
        in_c=st.integers(min_value=1, max_value=8),
        filters=st.integers(min_value=1, max_value=64),
        pair=st.sampled_from([(3, 1), (3, 2), (1, 1)]),
    )
    def test_doubling_filters_doubles_weight_traffic(self, in_h, in_w, in_c, filters, pair):
        kernel, stride = pair
        single = conv_accesses(shaped_conv(in_h, in_w, in_c, filters, kernel, stride))
        double = conv_accesses(shaped_conv(in_h, in_w, in_c, 2 * filters, kernel, stride))
        assert double.weight_reads == 2 * single.weight_reads
        assert double.output_writes == 2 * single.output_writes
        assert double.input_reads == single.input_reads

    @given(
        in_h=st.integers(min_value=5, max_value=64),
        in_c=st.integers(min_value=1, max_value=8),
        filters=st.integers(min_value=1, max_value=64),
        pair=st.sampled_from([(3, 1), (3, 2), (1, 1)]),
    )
    def test_weights_stream_at_least_once(self, in_h, in_c, filters, pair):
        kernel, stride = pair
        layer = shaped_conv(in_h, in_h, in_c, filters, kernel, stride)
        params = kernel * kernel * in_c * filters
        assert conv_accesses(layer).weight_reads >= params

    def test_rejects_non_conv(self, toy_net):
        with pytest.raises(ValueError, match="conv_accesses"):
            conv_accesses(toy_net.layers[2])


class TestOtherLayerAccesses:
    def test_upsample(self):
        net = shaped_net("[convolutional]\nfilters=256\nsize=1\n[upsample]\nstride=2", 19, 19, 3)
        profile = other_layer_accesses(net.layers[1])
        assert reads(profile) == 19 * 19 * 256 == 92_416
        assert profile.output_writes == 4 * 92_416 == 369_664

    def test_route_single_source(self):
        net = shaped_net("[convolutional]\nfilters=512\nsize=1\n[route]\nlayers=-1", 19, 19, 3)
        profile = other_layer_accesses(net.layers[1])
        assert reads(profile) == profile.output_writes == 184_832

    def test_route_two_sources(self, toy_net):
        profile = other_layer_accesses(toy_net.layers[5])
        moved = 8 * 8 * 4 + 8 * 8 * 8
        assert reads(profile) == profile.output_writes == moved

    def test_yolo_map_read_and_written_once(self):
        net = shaped_net("[convolutional]\nfilters=255\nsize=1\n[yolo]\nclasses=80", 76, 76, 3)
        profile = other_layer_accesses(net.layers[1])
        assert reads(profile) == profile.output_writes == 76 * 76 * 255 == 1_472_880

    def test_shortcut_reads_both_writes_one(self, toy_net):
        profile = other_layer_accesses(toy_net.layers[2])
        each = 8 * 8 * 8
        assert profile.input_reads == 2 * each
        assert profile.output_reads == 0
        assert profile.output_writes == each

    def test_shortcut_split_bucketing(self, toy_net):
        profile = other_layer_accesses(toy_net.layers[2], read_bucket=READS_SPLIT)
        each = 8 * 8 * 8
        assert profile.input_reads == each
        assert profile.output_reads == each
        assert profile.output_writes == each

    @pytest.mark.parametrize("index, fresh, reread", [
        (4, 4 * 4 * 4, 0),  # upsample of the stride-2 conv just before it
        (5, 8 * 8 * 4, 8 * 8 * 8),  # route layers=-1,-5
        (6, 8 * 8 * 12, 0),  # yolo of the route just before it
    ])
    def test_split_reads_the_preceding_map_fresh(self, toy_net, index, fresh, reread):
        profile = other_layer_accesses(toy_net.layers[index], read_bucket=READS_SPLIT)
        assert (profile.input_reads, profile.output_reads) == (fresh, reread)
        assert profile.output_writes == toy_net.layers[index].out_shape.elements

    @pytest.mark.parametrize("bucket", ["inputs", READS_SPLIT])
    def test_shortcut_from_minus_one_reads_the_preceding_map_fresh_twice(self, bucket):
        net = shaped_net("[convolutional]\nfilters=4\nsize=1\n[shortcut]\nfrom=-1")
        each = 8 * 8 * 4
        profile = other_layer_accesses(net.layers[1], read_bucket=bucket)
        assert profile == AccessProfile(input_reads=2 * each, output_writes=each)

    def test_split_bucketing_preserves_totals(self, toy_net):
        for layer in toy_net.layers:
            if layer.kind == "convolutional":
                continue
            default = other_layer_accesses(layer)
            split = other_layer_accesses(layer, read_bucket=READS_SPLIT)
            assert reads(default) == reads(split)
            assert default.output_writes == split.output_writes

    def test_rejects_conv(self, toy_net):
        with pytest.raises(ValueError, match="conv_accesses"):
            other_layer_accesses(toy_net.layers[0])


class TestOpProfile:
    def test_single_linear_conv(self):
        net = shaped_net("[convolutional]\nfilters=1\nsize=1", 2, 2, 1)
        ops = op_profile(net)
        assert ops.macs == 4
        assert (ops.fp_add, ops.fp_sub, ops.fp_mul, ops.fp_div, ops.fp_exp, ops.fp_sqrt) == (
            0, 0, 0, 0, 0, 0,
        )

    def test_conv_macs_examples(self):
        assert conv_macs(shaped_conv(8, 8, 3, 4, kernel=3, stride=1)) == 6912
        assert conv_macs(shaped_conv(19, 19, 1024, 255, kernel=1, stride=1)) == 94_264_320
        assert conv_macs(shaped_conv(1, 1, 1, 1, kernel=1, stride=1)) == 1

    def test_leaky_costs_compare_and_scale(self):
        net = shaped_net("[convolutional]\nfilters=2\nsize=1\nactivation=leaky", 4, 4, 1)
        ops = op_profile(net)
        n = 4 * 4 * 2
        assert ops.fp_sub == n
        assert ops.fp_mul == n

    def test_shortcut_adds(self):
        body = (
            "[convolutional]\nfilters=2\nsize=1\n"
            "[convolutional]\nfilters=2\nsize=1\n"
            "[shortcut]\nfrom=-2"
        )
        ops = op_profile(shaped_net(body, 4, 4, 2))
        assert ops.fp_add == 4 * 4 * 2 == 32

    def test_yolo_head_census(self, toy_net):
        ops = op_profile(toy_net)
        cells = 8 * 8
        logistic = cells * 2 * (1 + 3)
        box = cells * 2 * 2
        assert ops.fp_div == logistic
        assert ops.fp_exp == logistic + box

    def test_yolo_channel_mismatch(self):
        net = shaped_net("[convolutional]\nfilters=13\nsize=1\n[yolo]\nmask=0,1\nclasses=1", 4, 4, 1)
        with pytest.raises(ShapeError, match="channels"):
            op_profile(net)

    def test_batch_norm_adds_no_ops(self):
        plain = shaped_net("[convolutional]\nfilters=2\nsize=3\npad=1", 8, 8, 3)
        normed = shaped_net(
            "[convolutional]\nbatch_normalize=1\nfilters=2\nsize=3\npad=1", 8, 8, 3
        )
        assert op_profile(plain) == op_profile(normed)


class TestAggregate:
    def test_single_layer_equals_aggregate(self):
        net = shaped_net("[convolutional]\nfilters=4\nsize=3\npad=1", 8, 8, 3)
        per_layer, total = aggregate(net)
        assert per_layer == [conv_accesses(net.layers[0])]
        assert total == per_layer[0]

    def test_total_is_sum_of_layers(self, toy_net):
        per_layer, total = aggregate(toy_net)
        summed = AccessProfile()
        for profile in per_layer:
            summed = summed + profile
        assert total == summed
        assert len(per_layer) == len(toy_net.layers)

    def test_dispatch_by_layer_kind(self, toy_net):
        per_layer, _ = aggregate(toy_net)
        assert per_layer[0] == conv_accesses(toy_net.layers[0])
        assert per_layer[2] == other_layer_accesses(toy_net.layers[2])


class TestFixtureTraffic:
    def test_aggregate_element_counts(self, yolov3_net):
        _, total = aggregate(yolov3_net)
        assert total.weight_reads == FIXTURE_WEIGHT_READS
        assert total.input_reads == FIXTURE_INPUT_READS
        assert total.output_reads == 0
        assert total.output_writes == FIXTURE_OUTPUT_WRITES
        assert elements(total) == FIXTURE_TOTAL

    def test_access_split_percentages(self, yolov3_net):
        _, total = aggregate(yolov3_net)
        weights = 100.0 * total.weight_reads / elements(total)
        inputs = 100.0 * total.input_reads / elements(total)
        outputs = 100.0 * (total.output_reads + total.output_writes) / elements(total)
        assert weights == pytest.approx(81.9, abs=0.05)
        assert inputs == pytest.approx(12.0, abs=0.05)
        assert outputs == pytest.approx(6.1, abs=0.05)

    def test_weight_reads_dwarf_parameter_count(self, yolov3_net):
        kernel_weights = sum(
            l.conv.kernel ** 2 * l.in_shape.c * l.conv.filters
            for l in yolov3_net.layers
            if l.kind == "convolutional"
        )
        assert kernel_weights == FIXTURE_KERNEL_WEIGHTS
        _, total = aggregate(yolov3_net)
        assert total.weight_reads > 20 * kernel_weights

    def test_mac_census(self, yolov3_net):
        ops = op_profile(yolov3_net)
        assert ops.macs == FIXTURE_MACS
        all_ops = sum(getattr(ops, f.name) for f in dataclasses.fields(ops))
        assert ops.macs / all_ops >= 0.99
        assert ops.macs / all_ops == pytest.approx(0.997160, abs=5e-6)

    def test_split_reads_follow_the_cfg_text(self, yolov3_text, yolov3_net):
        # Read from the cfg's own lines, not from parse_config: every
        # non-conv layer reads the map of layer i-1 (a fresh read) and, if it
        # is a shortcut, its from= map, or, if it is a route, exactly the
        # maps its layers= lists; any map other than layer i-1's is a re-read.
        names = re.findall(r"(?m)^\[(\w+)\]", yolov3_text)[1:]
        bodies = re.split(r"(?m)^\[\w+\]", yolov3_text)[2:]
        assert len(names) == len(bodies) == len(yolov3_net.layers)
        per_layer, total = aggregate(yolov3_net, read_bucket=READS_SPLIT)
        fresh_total = reread_total = 0
        for i, (name, body) in enumerate(zip(names, bodies)):
            if name == "convolutional":
                continue
            if name == "route":
                tokens = re.search(r"(?m)^layers\s*=(.*)$", body).group(1).split(",")
            elif name == "shortcut":
                tokens = ["-1", re.search(r"(?m)^from\s*=(.*)$", body).group(1)]
            else:
                tokens = ["-1"]
            named = [i + int(t) if int(t) < 0 else int(t) for t in tokens]
            sizes = [yolov3_net.layers[j].out_shape.elements for j in named]
            fresh = sum(n for j, n in zip(named, sizes) if j == i - 1)
            reread = sum(sizes) - fresh
            profile = per_layer[i]
            assert (profile.input_reads, profile.output_reads) == (fresh, reread), i
            fresh_total += fresh
            reread_total += reread
        conv_inputs = sum(
            p.input_reads
            for p, layer in zip(per_layer, yolov3_net.layers)
            if layer.kind == "convolutional"
        )
        assert total.input_reads == conv_inputs + fresh_total == FIXTURE_SPLIT_INPUT_READS
        assert total.output_reads == reread_total == FIXTURE_INPUT_READS - FIXTURE_SPLIT_INPUT_READS

    def test_split_bucket_totals_unchanged(self, yolov3_net):
        _, default = aggregate(yolov3_net)
        _, split = aggregate(yolov3_net, read_bucket=READS_SPLIT)
        assert elements(default) == elements(split)
        assert split.output_reads > 0


class TestProfiles:
    def test_access_profile_addition(self):
        a = AccessProfile(weight_reads=1, input_reads=2, output_reads=3, output_writes=4)
        b = AccessProfile(weight_reads=10, input_reads=20, output_reads=30, output_writes=40)
        assert a + b == AccessProfile(11, 22, 33, 44)
        assert elements(a + b) == 110

    def test_negative_counts_rejected(self):
        for record in (AccessProfile, OpProfile):
            for f in dataclasses.fields(record):
                with pytest.raises(ValueError, match=f"^{f.name} must be >= 0$"):
                    record(**{f.name: -1})

    def test_records_of_different_kinds_do_not_add(self):
        with pytest.raises(TypeError):
            AccessProfile(weight_reads=1) + OpProfile(macs=1)
        with pytest.raises(TypeError):
            OpProfile(macs=1) + AccessProfile(weight_reads=1)

    def test_op_profile_addition(self):
        a = OpProfile(macs=5, fp_add=1, fp_exp=2)
        b = OpProfile(macs=1, fp_mul=3)
        assert a + b == OpProfile(macs=6, fp_add=1, fp_mul=3, fp_exp=2)

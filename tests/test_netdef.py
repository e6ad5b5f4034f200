"""Config parsing and shape inference."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convwatt import netdef
from convwatt.netdef import (
    CONVOLUTIONAL,
    MAX_COUNT,
    ROUTE,
    SHORTCUT,
    UPSAMPLE,
    YOLO,
    ConfigError,
    ConvSpec,
    NetworkDef,
    ShapeError,
    TensorShape,
    infer_shapes,
    parse_config,
)

from conftest import TOY_CFG

MINIMAL = "[net]\nwidth=8\nheight=8\nchannels=3\n[convolutional]\nfilters=4\nsize=3\nstride=1\npad=1"


def conv_chain_cfg(width, height, channels, convs):
    lines = [f"[net]\nwidth={width}\nheight={height}\nchannels={channels}"]
    for filters, size, stride in convs:
        lines.append(
            f"[convolutional]\nfilters={filters}\nsize={size}\nstride={stride}\npad=1"
        )
    return "\n".join(lines)


def serialize_config(net: NetworkDef) -> str:
    """Configuration text that parses back to an equal NetworkDef: the
    inverse of parse_config that the round-trip tests rely on."""
    lines = [
        "[net]",
        f"width={net.input.w}",
        f"height={net.input.h}",
        f"channels={net.input.c}",
        "",
    ]
    for layer in net.layers:
        if layer.kind == CONVOLUTIONAL:
            spec = layer.conv
            lines.append("[convolutional]")
            if spec.batch_normalize:
                lines.append("batch_normalize=1")
            lines.append(f"filters={spec.filters}")
            lines.append(f"size={spec.kernel}")
            lines.append(f"stride={spec.stride}")
            lines.append(f"padding={spec.pad}")
            lines.append(f"activation={spec.activation}")
        elif layer.kind == SHORTCUT:
            lines.append("[shortcut]")
            lines.append(f"from={layer.from_index}")
        elif layer.kind == ROUTE:
            lines.append("[route]")
            lines.append("layers=" + ",".join(str(s) for s in layer.sources))
        elif layer.kind == UPSAMPLE:
            lines.append("[upsample]")
            lines.append(f"stride={layer.factor}")
        else:
            lines.append("[yolo]")
            meta = layer.meta or {}
            if "mask" in meta:
                lines.append("mask=" + ",".join(str(m) for m in meta["mask"]))
            if "anchors" in meta:
                lines.append(
                    "anchors=" + ",".join(f"{a:g}" for a in meta["anchors"])
                )
            lines.append(f"classes={meta.get('classes', 80)}")
            if "num" in meta:
                lines.append(f"num={meta['num']}")
        lines.append("")
    return "\n".join(lines)


class TestParse:
    def test_minimal_conv(self):
        net = parse_config(MINIMAL)
        assert net.input == TensorShape(h=8, w=8, c=3)
        assert len(net.layers) == 1
        layer = net.layers[0]
        assert layer.kind == CONVOLUTIONAL
        assert layer.conv == ConvSpec(
            filters=4, kernel=3, stride=1, pad=1, batch_normalize=False
        )

    def test_pad_key_means_same_padding(self):
        net = parse_config(MINIMAL.replace("size=3", "size=5"))
        assert net.layers[0].conv.pad == 2

    def test_padding_key_is_exact(self):
        net = parse_config(MINIMAL.replace("pad=1", "padding=2"))
        assert net.layers[0].conv.pad == 2

    def test_negative_shortcut_resolves_relative(self):
        convs = "\n".join("[convolutional]\nfilters=2\nsize=1" for _ in range(10))
        net = parse_config(f"[net]\nwidth=4\nheight=4\nchannels=1\n{convs}\n[shortcut]\nfrom=-3")
        assert net.layers[10].kind == SHORTCUT
        assert net.layers[10].from_index == 7

    def test_positive_route_index_is_absolute(self):
        convs = "\n".join("[convolutional]\nfilters=2\nsize=1" for _ in range(4))
        net = parse_config(f"[net]\nwidth=4\nheight=4\nchannels=1\n{convs}\n[route]\nlayers=1")
        assert net.layers[4].sources == (1,)

    def test_comments_and_blanks_ignored(self):
        text = "# header\n\n[net]\nwidth=4 \n height=4\nchannels=1\n; note\n[convolutional]\nfilters=1\nsize=1\n"
        net = parse_config(text)
        assert net.input == TensorShape(4, 4, 1)

    def test_unknown_keys_ignored(self):
        net = parse_config(MINIMAL + "\nmomentum=0.9\nlearning_rate=0.001")
        assert net.layers[0].conv.filters == 4

    def test_yolo_metadata(self):
        text = MINIMAL + "\n[yolo]\nmask=0,1,2\nanchors=10,13, 16,30\nclasses=80\nnum=9"
        meta = parse_config(text).layers[1].meta
        assert meta["mask"] == (0, 1, 2)
        assert meta["anchors"] == (10.0, 13.0, 16.0, 30.0)
        assert meta["classes"] == 80
        assert meta["num"] == 9

    @pytest.mark.parametrize(
        "text, fragment",
        [
            ("", "empty"),
            ("[convolutional]\nfilters=1", "first section"),
            ("[net]\nwidth=8\nchannels=3\n[convolutional]\nsize=1", "height"),
            (MINIMAL + "\n[maxpool]\nsize=2", "unknown section"),
            (MINIMAL.replace("size=3", "size=2"), "odd"),
            (MINIMAL.replace("stride=1", "stride=0"), "stride"),
            (MINIMAL + "\n[shortcut]\nfrom=-5", "earlier layer"),
            (MINIMAL + "\n[shortcut]\nfrom=1", "earlier layer"),
            (MINIMAL + "\n[shortcut]", "from="),
            (MINIMAL + "\n[route]\nlayers=0,0,0", "one or two"),
            (MINIMAL + "\n[route]", "layers="),
            (MINIMAL + "\n[upsample]\nstride=4", "factor-2"),
            (MINIMAL + "\n[yolo]\nclasses=0", "classes"),
            (MINIMAL.replace("filters=4", "filters=nine"), "convolutional"),
            ("width=8\n[net]", "outside any section"),
            ("[net\nwidth=8", "section header"),
            ("[net]\nwidth", "key=value"),
            (MINIMAL + "\nactivation=relu6", "activation"),
        ],
    )
    def test_rejects_malformed(self, text, fragment):
        with pytest.raises(ConfigError, match=fragment):
            parse_config(text)

    def test_no_layers_rejected(self):
        with pytest.raises(ConfigError, match="no layers"):
            parse_config("[net]\nwidth=8\nheight=8\nchannels=3")

    @pytest.mark.parametrize(
        "text, message",
        [
            (MINIMAL.replace("width=8", "width=0"),
             "[net]: tensor dimensions must be >= 1, got 8x0x3"),
            (MINIMAL.replace("channels=3", "channels=three"),
             "[net]: invalid literal for int() with base 10: 'three'"),
            (MINIMAL + "\n[convolutional]\nfilters=0",
             "layer 1 [convolutional]: filters must be >= 1, got 0"),
            (MINIMAL + "\n[shortcut]", "layer 1 [shortcut]: shortcut requires a from= key"),
            (MINIMAL + "\n[route]\nlayers=1",
             "layer 1 [route]: source index 1 does not resolve to an earlier layer"),
            (MINIMAL + "\n[yolo]\nclasses=0", "layer 1 [yolo]: yolo classes must be >= 1, got 0"),
            (MINIMAL + "\n[maxpool]", "layer 1 [maxpool]: unknown section kind"),
        ],
    )
    def test_errors_name_their_section(self, text, message):
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert str(err.value) == message


class TestInferShapes:
    def test_same_padding_identity(self):
        net = parse_config(conv_chain_cfg(608, 608, 3, [(32, 3, 1)]))
        assert net.layers[0].out_shape == TensorShape(608, 608, 32)

    def test_stride_two_halves(self):
        net = parse_config(conv_chain_cfg(608, 608, 3, [(64, 3, 2)]))
        assert net.layers[0].out_shape == TensorShape(304, 304, 64)

    def test_floor_division_on_odd_extent(self):
        net = parse_config(conv_chain_cfg(7, 7, 1, [(1, 3, 2)]))
        # (7 - 3 + 2) // 2 + 1
        assert net.layers[0].out_shape == TensorShape(4, 4, 1)

    def test_upsample_doubles(self, toy_net):
        layer = toy_net.layers[4]
        assert layer.kind == UPSAMPLE
        assert layer.in_shape == TensorShape(4, 4, 4)
        assert layer.out_shape == TensorShape(8, 8, 4)

    def test_route_concatenates_channels(self, toy_net):
        layer = toy_net.layers[5]
        assert layer.kind == ROUTE
        assert layer.out_shape == TensorShape(8, 8, 12)
        assert layer.source_shapes == (TensorShape(8, 8, 4), TensorShape(8, 8, 8))

    def test_every_layer_reads_its_sources_in_order(self, toy_net):
        layers = toy_net.layers
        assert [l.index for l in layers] == list(range(7))
        assert [l.sources for l in layers] == [(-1,), (0,), (1, 0), (2,), (3,), (4, 0), (5,)]
        assert [l.from_index for l in layers] == [None, None, 0, None, None, None, None]
        outputs = [toy_net.input] + [l.out_shape for l in layers]
        for layer in layers:
            assert layer.source_shapes == tuple(outputs[s + 1] for s in layer.sources)
            assert layer.in_shape == layer.source_shapes[0]

    def test_shortcut_of_the_preceding_layer_with_itself(self):
        text = conv_chain_cfg(4, 4, 1, [(2, 3, 1)]) + "\n[shortcut]\nfrom=-1"
        net = parse_config(text)
        assert (net.layers[1].sources, net.layers[1].from_index) == ((0, 0), 0)
        assert net.layers[1].out_shape == TensorShape(4, 4, 2)

    def test_shortcut_and_yolo_passthrough(self, toy_net):
        assert toy_net.layers[2].out_shape == toy_net.layers[1].out_shape
        assert toy_net.layers[6].out_shape == toy_net.layers[5].out_shape

    def test_unpadded_kernel_larger_than_input(self):
        text = conv_chain_cfg(2, 2, 1, []) + "\n[convolutional]\nfilters=1\nsize=3\nstride=1"
        with pytest.raises(ShapeError, match="empty output"):
            parse_config(text)

    def test_shortcut_shape_mismatch(self):
        text = conv_chain_cfg(8, 8, 1, [(2, 3, 1), (2, 3, 2)]) + "\n[shortcut]\nfrom=-2"
        with pytest.raises(ShapeError, match="operands differ, 4x4x2 vs 8x8x2 from layer 0"):
            parse_config(text)

    def test_route_spatial_mismatch(self):
        text = conv_chain_cfg(8, 8, 1, [(2, 3, 1), (2, 3, 2)]) + "\n[route]\nlayers=-1,-2"
        with pytest.raises(ShapeError, match="spatial extent"):
            parse_config(text)

    @pytest.mark.parametrize("width, ok", [(2**53, True), (2**53 + 1, False)])
    def test_input_map_of_more_than_max_count_elements(self, width, ok):
        text = conv_chain_cfg(1, width, 1, [(1, 1, 1)])
        if ok:
            assert parse_config(text).layers[0].out_shape.elements == MAX_COUNT
        else:
            with pytest.raises(ShapeError, match=r"^the \[net\] input holds more than 2\*\*53"):
                parse_config(text)

    def test_output_map_of_more_than_max_count_elements(self):
        # the conv writes 2**53 elements, the upsample after it four times as many
        text = conv_chain_cfg(1, 2**52, 1, [(2, 1, 1)]) + "\n[upsample]\nstride=2"
        with pytest.raises(ShapeError, match=r"^layer 1: its output holds more than 2\*\*53"):
            parse_config(text)

    def test_kernel_of_more_than_max_count_weights(self):
        # no map holds more than 2**27 + 1 elements; layer 0's 1x1 kernel holds
        # 2**27 * 2**26 = 2**53 weights, layer 1's 2**26 * (2**27 + 1)
        text = conv_chain_cfg(1, 1, 2**27, [(2**26, 1, 1), (2**27 + 1, 1, 1)])
        with pytest.raises(ShapeError, match=r"^layer 1: its kernel holds more than 2\*\*53"):
            parse_config(text)

    @given(
        h=st.integers(min_value=1, max_value=32),
        w=st.integers(min_value=1, max_value=32),
        c=st.integers(min_value=1, max_value=4),
        kernel=st.sampled_from([1, 3, 5]),
        filters=st.integers(min_value=1, max_value=8),
    )
    def test_same_padding_stride_one_preserves_extent(self, h, w, c, kernel, filters):
        text = (
            f"[net]\nwidth={w}\nheight={h}\nchannels={c}\n"
            f"[convolutional]\nfilters={filters}\nsize={kernel}\nstride=1\npad=1"
        )
        net = parse_config(text)
        assert net.layers[0].out_shape == TensorShape(h, w, filters)

    def test_inference_is_deterministic(self, toy_net):
        again = parse_config(serialize_config(toy_net))
        assert again == toy_net


class TestRoundtrip:
    def test_toy_roundtrip(self, toy_net):
        parsed = parse_config(serialize_config(toy_net))
        assert parse_config(serialize_config(parsed)) == parsed

    def test_shapes_do_not_leak_into_text(self, toy_net):
        assert serialize_config(toy_net) == serialize_config(
            parse_config(serialize_config(toy_net))
        )

    @given(
        dims=st.tuples(
            st.integers(min_value=3, max_value=16),
            st.integers(min_value=3, max_value=16),
            st.integers(min_value=1, max_value=3),
        ),
        convs=st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=8),
                st.sampled_from([1, 3]),
                st.sampled_from([1, 2]),
            ),
            min_size=1,
            max_size=6,
        ),
    )
    def test_random_conv_chains_roundtrip(self, dims, convs):
        h, w, c = dims
        net = parse_config(conv_chain_cfg(w, h, c, convs))
        assert parse_config(serialize_config(net)) == net


class TestFixture:
    def test_layer_census(self, yolov3_net):
        census = Counter(layer.kind for layer in yolov3_net.layers)
        assert census[CONVOLUTIONAL] == 75
        assert census[SHORTCUT] == 23
        assert census[ROUTE] == 4
        assert census[UPSAMPLE] == 2
        assert census[YOLO] == 3
        assert len(yolov3_net.layers) == 107

    def test_input_resolution(self, yolov3_net):
        assert yolov3_net.input == TensorShape(608, 608, 3)

    def test_backbone_landmmarks(self, yolov3_net):
        assert yolov3_net.layers[0].out_shape == TensorShape(608, 608, 32)
        assert yolov3_net.layers[1].out_shape == TensorShape(304, 304, 64)

    def test_detection_head_shapes(self, yolov3_net):
        heads = [l for l in yolov3_net.layers if l.kind == YOLO]
        assert [l.out_shape for l in heads] == [
            TensorShape(19, 19, 255),
            TensorShape(38, 38, 255),
            TensorShape(76, 76, 255),
        ]

    def test_upsample_stages(self, yolov3_net):
        ups = [l for l in yolov3_net.layers if l.kind == UPSAMPLE]
        assert [(l.in_shape, l.out_shape) for l in ups] == [
            (TensorShape(19, 19, 256), TensorShape(38, 38, 256)),
            (TensorShape(38, 38, 128), TensorShape(76, 76, 128)),
        ]

    def test_fixture_roundtrip(self, yolov3_net):
        assert parse_config(serialize_config(yolov3_net)) == yolov3_net

    def test_all_conv_kernels_modeled(self, yolov3_net):
        pairs = {
            (l.conv.kernel, l.conv.stride)
            for l in yolov3_net.layers
            if l.kind == CONVOLUTIONAL
        }
        assert pairs == {(3, 1), (3, 2), (1, 1)}


# Fragments that keep mutated text close to the cfg grammar, so mutants reach
# the layer and shape checks rather than all failing in the section splitter.
CFG_FRAGMENTS = st.sampled_from([
    "[", "]", "=", "\n", "-", ",", " ", "#", "0", "1", "2", "3", "-1", "-5", "99",
    "[net]", "[convolutional]", "[shortcut]", "[route]", "[upsample]", "[yolo]",
    "width", "height", "channels", "filters", "size", "stride", "pad", "padding",
    "activation", "leaky", "batch_normalize", "from", "layers", "mask", "classes",
    "anchors", "num",
])


class TestFuzz:
    @settings(max_examples=300)
    @given(data=st.data())
    def test_mutated_text_raises_only_typed_errors(self, data):
        text = TOY_CFG
        at = data.draw(st.integers(0, len(text)), label="at")
        cut = data.draw(st.integers(0, 12), label="cut")
        insert = "".join(data.draw(st.lists(CFG_FRAGMENTS, max_size=6), label="insert"))
        text = text[:at] + insert + text[at + cut:]
        try:
            parse_config(text)
        except ValueError:
            pass

    @settings(max_examples=300)
    @given(data=st.data())
    def test_line_edits_raise_only_typed_errors(self, data):
        lines = TOY_CFG.splitlines()
        for _ in range(data.draw(st.integers(1, 3), label="edits")):
            at = data.draw(st.integers(0, len(lines) - 1), label="at")
            edit = data.draw(
                st.sampled_from(["drop", "duplicate", "swap"]), label="edit"
            )
            if edit == "drop":
                del lines[at]
            elif edit == "duplicate":
                lines.insert(at, lines[at])
            else:
                other = data.draw(st.integers(0, len(lines) - 1), label="other")
                lines[at], lines[other] = lines[other], lines[at]
            if not lines:
                break
        try:
            parse_config("\n".join(lines))
        except ValueError:
            pass

    @settings(max_examples=300)
    @given(data=st.data())
    def test_mutated_values_raise_only_typed_errors(self, data):
        # every value keeps its key, so mutants pass the grammar and reach the
        # range checks and shape inference with odd numbers
        lines = TOY_CFG.splitlines()
        keyed = [i for i, line in enumerate(lines) if "=" in line]
        at = data.draw(st.sampled_from(keyed), label="at")
        value = data.draw(
            st.one_of(
                st.integers(-3, 20).map(str),
                st.lists(st.integers(-9, 9).map(str), min_size=1, max_size=4).map(
                    ",".join
                ),
                st.sampled_from(["", "x", "1.5", "1e3", "-0", "leaky", "linear"]),
            ),
            label="value",
        )
        lines[at] = lines[at].partition("=")[0] + "=" + value
        try:
            parse_config("\n".join(lines))
        except ValueError:
            pass


class TestParsedNetIsShaped:
    def test_every_layer_has_shapes(self):
        net = parse_config(TOY_CFG)
        for layer in net.layers:
            assert None not in (layer.in_shape, layer.out_shape, layer.source_shapes)

    def test_shaped_net_returned_as_is(self, toy_net):
        assert infer_shapes(toy_net) is toy_net

    def test_each_layer_spec_is_built_once(self, monkeypatch):
        # parse_config reads each layer's fields, and infer_shapes builds its
        # LayerSpec once, with its shapes
        real, built = netdef.LayerSpec.__init__, []

        def spy(self, *args, **kwargs):
            built.append(args[1] if len(args) > 1 else kwargs["index"])
            real(self, *args, **kwargs)

        monkeypatch.setattr(netdef.LayerSpec, "__init__", spy)
        net = parse_config(TOY_CFG)
        assert built == [layer.index for layer in net.layers] == list(range(len(net.layers)))

    def test_unshaped_layers_are_shaped_into_a_copy(self, toy_net):
        bare = tuple(
            netdef.LayerSpec(layer.kind, layer.index, layer.sources, layer.conv, layer.factor,
                             layer.meta)
            for layer in toy_net.layers
        )
        unshaped = NetworkDef(toy_net.input, bare)
        shaped = infer_shapes(unshaped)
        assert shaped is not unshaped and shaped == toy_net
        assert all(layer.out_shape is None for layer in unshaped.layers)

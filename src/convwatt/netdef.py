"""Darknet-style network definition parsing and tensor shape inference."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

CONVOLUTIONAL = "convolutional"
SHORTCUT = "shortcut"
ROUTE = "route"
UPSAMPLE = "upsample"
YOLO = "yolo"

LAYER_KINDS = (CONVOLUTIONAL, SHORTCUT, ROUTE, UPSAMPLE, YOLO)

ACTIVATIONS = ("linear", "leaky")

# The most elements a map, or weights a kernel, may hold: every count up to
# 2**53 is exact as a float, and the traffic and energy models scale counts
# by floats.
MAX_COUNT = 2**53


class ConfigError(ValueError):
    """Malformed or unsupported network configuration text."""


class ShapeError(ValueError):
    """Layer shapes cannot be inferred consistently."""


@dataclass(frozen=True)
class TensorShape:
    """Feature map extent: h rows, w columns, c channels."""

    h: int
    w: int
    c: int

    def __post_init__(self):
        if min(self.h, self.w, self.c) < 1:
            raise ShapeError(
                f"tensor dimensions must be >= 1, got {self.h}x{self.w}x{self.c}"
            )

    @property
    def elements(self) -> int:
        return self.h * self.w * self.c


@dataclass(frozen=True)
class ConvSpec:
    """Convolution parameters. pad is the number of zero rows/cols per border."""

    filters: int
    kernel: int
    stride: int
    pad: int
    batch_normalize: bool = False
    activation: str = "linear"

    def __post_init__(self):
        if self.filters < 1:
            raise ConfigError(f"filters must be >= 1, got {self.filters}")
        if self.kernel < 1 or self.kernel % 2 == 0:
            raise ConfigError(f"kernel size must be odd and positive, got {self.kernel}")
        if self.stride < 1:
            raise ConfigError(f"stride must be >= 1, got {self.stride}")
        if self.pad < 0:
            raise ConfigError(f"padding must be >= 0, got {self.pad}")
        if self.activation not in ACTIVATIONS:
            raise ConfigError(
                f"unsupported activation {self.activation!r}, expected one of {ACTIVATIONS}"
            )


@dataclass(frozen=True)
class LayerSpec:
    """One network layer.

    index is the layer's position in its network. sources are the absolute
    indexes of the maps it reads, in read order, -1 for the network input:
    (index - 1,) for conv, upsample and yolo layers, (index - 1, from) for a
    shortcut, and the listed layers for a route. conv, factor and meta are
    set for conv, upsample and yolo layers only. The shape fields are filled
    by infer_shapes, which parse_config runs, so every layer of a parsed
    network has them: source_shapes holds the shape of each source, so that
    access counting needs no surrounding context, and in_shape is the first.
    """

    kind: str
    index: int
    sources: tuple[int, ...]
    conv: ConvSpec | None = None
    factor: int | None = None  # upsample scale
    meta: dict | None = None  # yolo head parameters
    in_shape: TensorShape | None = None
    out_shape: TensorShape | None = None
    source_shapes: tuple[TensorShape, ...] | None = None

    def __post_init__(self):
        if self.kind not in LAYER_KINDS:
            raise ConfigError(f"unknown layer kind {self.kind!r}")

    @property
    def kernel_shape(self) -> tuple[int, int]:
        """A conv's kernel as the A of its GEMM: (filters, c*k*k), c being
        the input channels and k the kernel size."""
        spec = self.conv
        return spec.filters, self.in_shape.c * spec.kernel * spec.kernel

    @property
    def from_index(self) -> int | None:
        """A shortcut's second operand, absolute; None for other kinds."""
        return self.sources[1] if self.kind == SHORTCUT else None


@dataclass(frozen=True)
class NetworkDef:
    """Input shape plus an ordered sequence of layers."""

    input: TensorShape
    layers: tuple[LayerSpec, ...]

    def __post_init__(self):
        if not self.layers:
            raise ConfigError("network defines no layers")


class _Parsed(NamedTuple):
    """A layer's fields as parse_config reads them, before infer_shapes
    builds its LayerSpec with its shapes."""

    kind: str
    index: int
    sources: tuple[int, ...]
    conv: ConvSpec | None = None
    factor: int | None = None
    meta: dict | None = None
    out_shape: None = None

    from_index = LayerSpec.from_index


def _split_sections(text: str) -> list[tuple[str, dict[str, str]]]:
    sections: list[tuple[str, dict[str, str]]] = []
    current: dict[str, str] | None = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line[0] in "#;":
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError(f"line {lineno}: malformed section header {raw.strip()!r}")
            current = {}
            sections.append((line[1:-1].strip().lower(), current))
        else:
            if current is None:
                raise ConfigError(f"line {lineno}: key/value pair outside any section")
            if "=" not in line:
                raise ConfigError(f"line {lineno}: expected key=value, got {raw.strip()!r}")
            key, _, value = line.partition("=")
            current[key.strip()] = value.strip()
    return sections


def _resolve_index(value: int, current: int) -> int:
    # Negative indices are relative to the current position, e.g. from=-3 in
    # layer 10 refers to layer 7. Positive indices are absolute.
    absolute = current + value if value < 0 else value
    if not 0 <= absolute < current:
        raise ConfigError(f"source index {value} does not resolve to an earlier layer")
    return absolute


def _parse_int_list(value: str) -> list[int]:
    return [int(tok) for tok in value.replace(",", " ").split()]


def _parse_yolo_meta(options: dict[str, str]) -> dict:
    meta: dict = {"classes": int(options.get("classes", 80))}
    if meta["classes"] < 1:
        raise ConfigError(f"yolo classes must be >= 1, got {meta['classes']}")
    if "mask" in options:
        meta["mask"] = tuple(_parse_int_list(options["mask"]))
    if "anchors" in options:
        meta["anchors"] = tuple(float(tok) for tok in options["anchors"].replace(",", " ").split())
    if "num" in options:
        meta["num"] = int(options["num"])
    return meta


def _parse_layer(name: str, options: dict[str, str], index: int) -> _Parsed:
    previous = (index - 1,)
    if name == CONVOLUTIONAL:
        size = int(options.get("size", 1))
        # pad=1 requests same-style padding of size//2; an explicit padding=
        # key gives the exact border width.
        if int(options.get("pad", 0)):
            pad = size // 2
        else:
            pad = int(options.get("padding", 0))
        conv = ConvSpec(
            filters=int(options.get("filters", 1)),
            kernel=size,
            stride=int(options.get("stride", 1)),
            pad=pad,
            batch_normalize=bool(int(options.get("batch_normalize", 0))),
            activation=options.get("activation", "linear"),
        )
        return _Parsed(CONVOLUTIONAL, index, previous, conv=conv)
    if name == SHORTCUT:
        if "from" not in options:
            raise ConfigError("shortcut requires a from= key")
        other = _resolve_index(int(options["from"]), index)
        return _Parsed(SHORTCUT, index, previous + (other,))
    if name == ROUTE:
        if "layers" not in options:
            raise ConfigError("route requires a layers= key")
        tokens = _parse_int_list(options["layers"])
        if not 1 <= len(tokens) <= 2:
            raise ConfigError(f"route supports one or two sources, got {len(tokens)}")
        return _Parsed(ROUTE, index, tuple(_resolve_index(tok, index) for tok in tokens))
    if name == UPSAMPLE:
        factor = int(options.get("stride", 2))
        if factor != 2:
            raise ConfigError(f"only factor-2 upsampling is modeled, got {factor}")
        return _Parsed(UPSAMPLE, index, previous, factor=factor)
    if name == YOLO:
        return _Parsed(YOLO, index, previous, meta=_parse_yolo_meta(options))
    raise ConfigError("unknown section kind")


def parse_config(text: str) -> NetworkDef:
    """Parse configuration text into a NetworkDef with every layer's shapes.

    Unknown keys inside known sections are ignored; unknown section kinds are
    an error. A bad value raises ConfigError naming [net] or its layer, and
    text that parses but cannot be shaped raises ShapeError.
    """
    sections = _split_sections(text)
    if not sections:
        raise ConfigError("empty configuration")
    first_name, net_options = sections[0]
    if first_name not in ("net", "network"):
        raise ConfigError(f"first section must be [net], got [{first_name}]")
    missing = [key for key in ("width", "height", "channels") if key not in net_options]
    if missing:
        raise ConfigError(f"[net] section missing input dimensions: {', '.join(missing)}")
    try:
        input_shape = TensorShape(
            h=int(net_options["height"]),
            w=int(net_options["width"]),
            c=int(net_options["channels"]),
        )
    except ValueError as exc:
        raise ConfigError(f"[net]: {exc}") from exc
    # each layer's LayerSpec is built once, with its shapes, by infer_shapes
    layers: list[_Parsed] = []
    for name, options in sections[1:]:
        index = len(layers)
        try:
            layers.append(_parse_layer(name, options, index))
        except ValueError as exc:
            raise ConfigError(f"layer {index} [{name}]: {exc}") from exc
    return infer_shapes(NetworkDef(input=input_shape, layers=tuple(layers)))


def infer_shapes(net: NetworkDef) -> NetworkDef:
    """net itself if every layer has its shapes, else a copy of net with the
    shapes filled for every layer.

    Convolution output extent is (input - kernel + 2 * pad) // stride + 1 per
    axis (floor division). An input or layer output of more than MAX_COUNT
    elements, or a conv kernel of more than MAX_COUNT weights, raises
    ShapeError.
    """
    if all(layer.out_shape is not None for layer in net.layers):
        return net
    if net.input.elements > MAX_COUNT:
        raise ShapeError("the [net] input holds more than 2**53 elements")
    shaped: list[LayerSpec] = []
    outputs = {-1: net.input}
    for layer in net.layers:
        index = layer.index
        shapes = tuple(outputs[source] for source in layer.sources)
        first = shapes[0]
        if layer.kind == CONVOLUTIONAL:
            spec = layer.conv
            out_h = (first.h - spec.kernel + 2 * spec.pad) // spec.stride + 1
            out_w = (first.w - spec.kernel + 2 * spec.pad) // spec.stride + 1
            if out_h < 1 or out_w < 1:
                raise ShapeError(
                    f"layer {index}: kernel {spec.kernel} stride {spec.stride} "
                    f"pad {spec.pad} yields empty output from {first.h}x{first.w}"
                )
            out = TensorShape(h=out_h, w=out_w, c=spec.filters)
        elif layer.kind == SHORTCUT:
            other = shapes[1]
            if other != first:
                raise ShapeError(
                    f"layer {index}: shortcut operands differ, {first.h}x{first.w}x{first.c}"
                    f" vs {other.h}x{other.w}x{other.c} from layer {layer.from_index}"
                )
            out = first
        elif layer.kind == ROUTE:
            if len({(s.h, s.w) for s in shapes}) > 1:
                raise ShapeError(
                    f"layer {index}: route sources disagree on spatial extent, "
                    + " vs ".join(f"{s.h}x{s.w}" for s in shapes)
                )
            out = TensorShape(h=first.h, w=first.w, c=sum(s.c for s in shapes))
        elif layer.kind == UPSAMPLE:
            out = TensorShape(h=first.h * layer.factor, w=first.w * layer.factor, c=first.c)
        else:  # yolo: raw pass-through
            out = first
        layer = LayerSpec(layer.kind, index, layer.sources, layer.conv, layer.factor, layer.meta,
                          first, out, shapes)
        if layer.kind == CONVOLUTIONAL and math.prod(layer.kernel_shape) > MAX_COUNT:
            raise ShapeError(f"layer {index}: its kernel holds more than 2**53 weights")
        if out.elements > MAX_COUNT:
            raise ShapeError(f"layer {index}: its output holds more than 2**53 elements")
        shaped.append(layer)
        outputs[index] = out
    return NetworkDef(input=net.input, layers=tuple(shaped))

"""Per-layer DRAM element accesses and floating-point operation counts.

The access model follows an output-stationary dataflow: convolution partial
sums accumulate inside PE register files, so convolution outputs are written
to DRAM exactly once and never read back, while the full filter set is
re-streamed from DRAM for every computed row of output.

All counts are exact integers of 32-bit element accesses (packing into wider
bus transactions happens later, in the energy model).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .netdef import CONVOLUTIONAL, SHORTCUT, YOLO, LayerSpec, NetworkDef, ShapeError


class UnsupportedLayerError(ValueError):
    """Layer falls outside the modeled (kernel, stride) families."""


SUPPORTED_CONV = ((3, 1), (3, 2), (1, 1))

# Weight-streaming row conventions. Filters are re-streamed once per computed
# output row; 3x3 kernels skip the two border rows. "output_rows" counts the
# layer's own output rows (the convention that matches the model's published
# totals); "input_rows" counts input rows instead. The two coincide for every
# stride-1 same-padded layer and differ only under stride 2.
ROWS_OUTPUT = "output_rows"
ROWS_INPUT = "input_rows"
ROW_CONVENTIONS = (ROWS_OUTPUT, ROWS_INPUT)

# Reporting buckets for the feature-map reads of shortcut, route, upsample
# and yolo layers; other_layer_accesses states the rule.
READS_AS_INPUTS = "inputs"
READS_SPLIT = "split"
READ_BUCKETS = (READS_AS_INPUTS, READS_SPLIT)


class _Counts:
    """Integer counts, each >= 0, that add field by field. A count record
    subclasses this as a frozen dataclass and only declares its fields."""

    def __post_init__(self):
        for f in fields(self):
            if getattr(self, f.name) < 0:
                raise ValueError(f"{f.name} must be >= 0")

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._sum((self, other))

    @classmethod
    def _sum(cls, records):
        """Field-wise sum of a sequence of records, in one pass per field."""
        return cls(**{f.name: sum(getattr(r, f.name) for r in records) for f in fields(cls)})


@dataclass(frozen=True)
class AccessProfile(_Counts):
    """DRAM element accesses bucketed as weights / inputs / outputs."""

    weight_reads: int = 0
    input_reads: int = 0
    output_reads: int = 0
    output_writes: int = 0


@dataclass(frozen=True)
class OpProfile(_Counts):
    """Floating-point operation counts for one inference pass."""

    macs: int = 0
    fp_add: int = 0
    fp_sub: int = 0
    fp_mul: int = 0
    fp_div: int = 0
    fp_exp: int = 0
    fp_sqrt: int = 0


def conv_accesses(layer: LayerSpec, row_convention: str = ROWS_OUTPUT) -> AccessProfile:
    """Element accesses of one convolution layer.

    Weight reads stream the whole filter set once per computed output row
    (interior rows only for 3x3 kernels). Input rows are fetched once per
    kernel row they overlap; they are broadcast across filters, so input
    reads do not scale with the filter count. Outputs are written once.

    Two row-streaming schedules are modeled, each enumerated access by
    access in tests/oracles.conv_stream_counts:

    - stride 1: one output row per kernel-height window position over the
      unpadded input, interior positions only for 3x3;
    - stride 2 (3x3): the window visits every interior input position and
      fetches three rows of in_w + 1 elements, the extra one being the
      padded column that the stride reaches; the filter set streams once per
      interior row of the output map.

    Under row_convention ROWS_INPUT the filter set streams once per
    interior input row instead (see ROWS_OUTPUT).

    Only (kernel, stride) in {(3,1), (3,2), (1,1)} are modeled; any other
    pair raises UnsupportedLayerError.
    """
    if layer.kind != CONVOLUTIONAL:
        raise ValueError(f"conv_accesses called on {layer.kind} layer")
    if row_convention not in ROW_CONVENTIONS:
        raise ValueError(f"unknown row convention {row_convention!r}")
    spec = layer.conv
    i, o = layer.in_shape, layer.out_shape
    k, s = spec.kernel, spec.stride
    if (k, s) not in SUPPORTED_CONV:
        raise UnsupportedLayerError(
            f"no access formula for kernel {k} stride {s}; "
            f"modeled pairs are {SUPPORTED_CONV}"
        )
    base_h = o.h if row_convention == ROWS_OUTPUT else i.h
    if k == 3:
        if base_h < 3 or i.h < 3:
            raise UnsupportedLayerError(
                f"map of {base_h} rows is too small for the 3x3 access model"
            )
        weight_rows = base_h - 2
    else:
        weight_rows = base_h
    if (k, s) == (3, 1):
        input_reads = i.w * 3 * i.c * (i.h - 2)
    elif (k, s) == (3, 2):
        # stride 2 touches one extra (padded) column per fetched row
        input_reads = (i.w + 1) * 3 * i.c * (i.h - 2)
    else:
        input_reads = i.w * i.c * i.h
    return AccessProfile(
        weight_reads=math.prod(layer.kernel_shape) * weight_rows,
        input_reads=input_reads,
        output_writes=o.elements,
    )


def other_layer_accesses(layer: LayerSpec, read_bucket: str = READS_AS_INPUTS) -> AccessProfile:
    """Element accesses of shortcut/route/upsample/yolo layers.

    These layers read each map in layer.sources from DRAM once and write
    their result, out_shape.elements, once. A read of the map that the
    preceding layer has just written is a fresh read; a read of any other map
    is a re-read. A shortcut with from=-1 reads the preceding map twice, and
    both reads are fresh. read_bucket "inputs" reports every read as an input
    read; "split" reports the fresh reads as input reads and the re-reads as
    output reads. Totals are unaffected.
    """
    if layer.kind == CONVOLUTIONAL:
        raise ValueError("use conv_accesses for convolution layers")
    if read_bucket not in READ_BUCKETS:
        raise ValueError(f"unknown read bucket {read_bucket!r}")
    reads = sum(shape.elements for shape in layer.source_shapes)
    fresh = sum(
        shape.elements
        for source, shape in zip(layer.sources, layer.source_shapes)
        if source == layer.index - 1
    )
    if read_bucket == READS_AS_INPUTS:
        fresh = reads
    return AccessProfile(
        input_reads=fresh, output_reads=reads - fresh, output_writes=layer.out_shape.elements
    )


def aggregate(
    net: NetworkDef,
    row_convention: str = ROWS_OUTPUT,
    read_bucket: str = READS_AS_INPUTS,
) -> tuple[list[AccessProfile], AccessProfile]:
    """Per-layer access profiles and their element-wise sum."""
    per_layer = [
        conv_accesses(layer, row_convention=row_convention)
        if layer.kind == CONVOLUTIONAL
        else other_layer_accesses(layer, read_bucket=read_bucket)
        for layer in net.layers
    ]
    return per_layer, AccessProfile._sum(per_layer)


def conv_macs(layer: LayerSpec) -> int:
    """Multiply-accumulate count of one convolution layer."""
    if layer.kind != CONVOLUTIONAL:
        raise ValueError(f"conv_macs called on {layer.kind} layer")
    o = layer.out_shape
    return o.h * o.w * math.prod(layer.kernel_shape)


def _yolo_ops(layer: LayerSpec) -> OpProfile:
    # Each anchor predicts 2 box offsets, 2 box sizes, 1 objectness and the
    # class scores. Offsets, objectness and class scores pass through a
    # logistic (one exp, one add, one div each); box sizes are exponentiated
    # and scaled by their anchor prior (one exp, one mul each).
    meta = layer.meta or {}
    classes = meta.get("classes", 80)
    per_anchor = classes + 5
    if "mask" in meta:
        n_anchors = len(meta["mask"])
        if n_anchors * per_anchor != layer.in_shape.c:
            raise ShapeError(
                f"yolo layer expects {n_anchors * per_anchor} channels "
                f"for {n_anchors} anchors x {per_anchor}, got {layer.in_shape.c}"
            )
    else:
        if layer.in_shape.c % per_anchor:
            raise ShapeError(
                f"yolo channel count {layer.in_shape.c} is not a multiple of {per_anchor}"
            )
        n_anchors = layer.in_shape.c // per_anchor
    cells = layer.in_shape.h * layer.in_shape.w
    logistic = cells * n_anchors * (classes + 3)
    box = cells * n_anchors * 2
    return OpProfile(
        fp_add=logistic, fp_div=logistic, fp_exp=logistic + box, fp_mul=box
    )


def _layer_ops(layer: LayerSpec) -> OpProfile:
    if layer.kind == CONVOLUTIONAL:
        n = layer.out_shape.elements if layer.conv.activation == "leaky" else 0
        return OpProfile(macs=conv_macs(layer), fp_sub=n, fp_mul=n)
    if layer.kind == SHORTCUT:
        return OpProfile(fp_add=layer.out_shape.elements)
    if layer.kind == YOLO:
        return _yolo_ops(layer)
    return OpProfile()  # upsample and route: pure data movement


def op_profile(net: NetworkDef) -> OpProfile:
    """Floating-point operation census for one inference pass.

    Leaky activations cost one compare (priced as a subtraction) and one
    multiply per output element. Batch normalization is folded offline and
    adds no runtime work. Shortcuts cost one add per output element;
    upsampling and routing move data without arithmetic.
    """
    return OpProfile._sum([_layer_ops(layer) for layer in net.layers])

"""Seeded benchmark inputs: the shipped YOLOv3 cfg, its width-divided
variant, and synthetic Darknet weights of the real shapes."""

from __future__ import annotations

import re
from importlib import resources

import numpy as np

from convwatt.cluster import ConvParams, DarknetWeights, write_darknet_weights
from convwatt.netdef import CONVOLUTIONAL, NetworkDef, infer_shapes, parse_config
from convwatt.traffic import conv_macs

# The narrowest width at which 5-bit global clustering still runs into the
# 300-sweep cap for every seed tried, so its work does not change with the seed.
NARROW_DIVISOR = 24
# verify's work does not depend on the seed, and the engine's time grows with
# the weight count, so a narrower net gives many more commands per run.
VERIFY_DIVISOR = 48
NARROW_SIZE = 320

_FILTERS = re.compile(r"(?m)^(\s*filters\s*=\s*)(\d+)")
_EXTENT = re.compile(r"(?m)^(\s*(?:width|height)\s*=\s*)(\d+)")


def yolov3_path() -> str:
    return str(resources.files("convwatt").joinpath("data/yolov3.cfg"))


def yolov3_text() -> str:
    with open(yolov3_path(), encoding="utf-8") as handle:
        return handle.read()


def narrow_cfg(text: str, divisor: int = NARROW_DIVISOR, size: int = NARROW_SIZE) -> str:
    """Integer-divide every ``filters=`` (to at least 1) and set the input to
    size x size.

    Every other line, and so every layer, route, shortcut and upsample, is
    kept as it is.
    """
    text = _FILTERS.sub(
        lambda m: f"{m.group(1)}{max(1, int(m.group(2)) // divisor)}", text
    )
    return _EXTENT.sub(lambda m: f"{m.group(1)}{size}", text)


def load_net(text: str) -> NetworkDef:
    return infer_shapes(parse_config(text))


def synthetic_weights(net: NetworkDef, seed: int) -> DarknetWeights:
    """Fan-in-scaled normal kernels; batch-norm layers get scales, means and
    variances away from the identity so that folding does real work."""
    rng = np.random.default_rng(seed)
    convs = []
    for index, layer in enumerate(net.layers):
        if layer.kind != CONVOLUTIONAL:
            continue
        spec = layer.conv
        fan_in = layer.in_shape.c * spec.kernel * spec.kernel
        f = spec.filters
        kernel = rng.standard_normal(f * fan_in) * np.sqrt(1.0 / fan_in)
        biases = rng.standard_normal(f) * 0.1
        if spec.batch_normalize:
            convs.append(
                ConvParams(
                    layer_index=index,
                    biases=biases,
                    kernel=kernel,
                    scales=rng.uniform(0.5, 1.5, f),
                    rolling_mean=rng.standard_normal(f) * 0.1,
                    rolling_var=rng.uniform(0.5, 2.0, f),
                )
            )
        else:
            convs.append(ConvParams(layer_index=index, biases=biases, kernel=kernel))
    return DarknetWeights(major=0, minor=2, revision=0, seen=0, convs=tuple(convs))


def describe(name: str, net: NetworkDef, divisor: int, seed: int) -> dict:
    """The record printed with every run: what network, how big, which seed."""
    convs = [layer for layer in net.layers if layer.kind == CONVOLUTIONAL]
    return {
        "network": name,
        "width_divisor": divisor,
        "input": f"{net.input.w}x{net.input.h}x{net.input.c}",
        "layers": len(net.layers),
        "kernel_weights": sum(
            l.conv.filters * l.in_shape.c * l.conv.kernel**2 for l in convs
        ),
        "macs_per_pass": sum(conv_macs(l) for l in convs),
        "seed": seed,
    }


def write_network(directory: str, name: str, text: str, divisor: int, seed: int):
    """Write ``name``.cfg and seeded ``name``.weights into directory.

    Returns the cfg path, the weights path and the record of the inputs.
    """
    net = load_net(text)
    cfg_path = f"{directory}/{name}.cfg"
    weights_path = f"{directory}/{name}.weights"
    with open(cfg_path, "w", encoding="utf-8") as handle:
        handle.write(text)
    with open(weights_path, "wb") as handle:
        handle.write(write_darknet_weights(synthetic_weights(net, seed)))
    return cfg_path, weights_path, describe(name, net, divisor, seed)

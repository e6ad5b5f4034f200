"""Shared fixtures: the YOLOv3 fixture network, and toy networks with
generated weights."""

import struct
from importlib import resources

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from convwatt.netdef import parse_config

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=50,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def yolov3_text() -> str:
    return (
        resources.files("convwatt").joinpath("data/yolov3.cfg").read_text()
    )


@pytest.fixture(scope="session")
def yolov3_net(yolov3_text):
    return parse_config(yolov3_text)


TOY_CFG = """
[net]
width=8
height=8
channels=3

[convolutional]
batch_normalize=1
filters=8
size=3
stride=1
pad=1
activation=leaky

[convolutional]
filters=8
size=1
stride=1
activation=linear

[shortcut]
from=-2

[convolutional]
batch_normalize=1
filters=4
size=3
stride=2
pad=1
activation=leaky

[upsample]
stride=2

[route]
layers=-1,-5

[yolo]
mask=0,1
anchors=10,14, 23,27
classes=1
num=2
"""


@pytest.fixture(scope="session")
def toy_net():
    return parse_config(TOY_CFG)


def weights_blob(net, seed: int = 0, kernel_scale: float | None = None) -> bytes:
    """Serialize random parameters for every conv layer of net.

    Layout matches the Darknet weights format: 3 i32 header fields, a u64
    image counter, then per conv biases, batch-norm arrays when the layer
    declares them, and the fp32 kernel. Deterministic in seed.
    """
    rng = np.random.default_rng(seed)
    parts = [struct.pack("<3i", 0, 2, 0), struct.pack("<Q", 0)]
    for layer in net.layers:
        if layer.kind != "convolutional":
            continue
        spec = layer.conv
        f = spec.filters
        fan_in = layer.in_shape.c * spec.kernel * spec.kernel
        parts.append((rng.standard_normal(f) * 0.5).astype("<f4").tobytes())
        if spec.batch_normalize:
            parts.append(rng.uniform(0.5, 1.5, f).astype("<f4").tobytes())
            parts.append((rng.standard_normal(f) * 0.2).astype("<f4").tobytes())
            parts.append(rng.uniform(0.5, 2.0, f).astype("<f4").tobytes())
        n = f * fan_in
        scale = kernel_scale if kernel_scale is not None else fan_in ** -0.5
        parts.append((rng.standard_normal(n) * scale).astype("<f4").tobytes())
    return b"".join(parts)


@pytest.fixture(scope="session")
def toy_weights_bytes(toy_net) -> bytes:
    return weights_blob(toy_net, seed=11)

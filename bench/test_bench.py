"""Tests of the benchmark itself: tracer bindings, span coverage, the
narrowed YOLOv3 inputs, and that bad outputs count as failed commands."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bench import inputs, run, workloads
from bench.tracer import TRACED_MODULES, Tracer, layer_metrics
from convwatt import cli, cluster, engine
from convwatt.netdef import CONVOLUTIONAL

TOY = """
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


def _bindings():
    return {(m.__name__, k): v for m in TRACED_MODULES for k, v in vars(m).items()}


def test_tracer_wraps_every_binding_and_restores_them():
    before = _bindings()
    original = engine.run_network
    with Tracer():
        assert cli.run_network is engine.run_network is not original
        assert engine.unpack_indices is cluster.unpack_indices
        assert cluster.kmeans_1d.__wrapped__ is not None
    after = _bindings()
    assert before.keys() == after.keys()
    assert all(before[key] is after[key] for key in before)


def test_traced_toy_run_records_every_layer_metric(tmp_path):
    cfg, weights, _ = inputs.write_network(str(tmp_path), "toy", TOY, 1, seed=5)
    model = str(tmp_path / "toy.cwts")
    reports = [str(tmp_path / f"{scope}.json") for scope in ("all", "per")]
    commands = [
        ["analyze", inputs.yolov3_path(), "--bits", "5", "--json", reports[0]],
        ["analyze", inputs.yolov3_path(), "--bits", "5", "--scope", "per-layer",
         "--json", reports[1]],
        ["compare", *reports, "--out", str(tmp_path / "cmp.csv")],
        ["cluster", cfg, weights, "--bits", "3", "--scope", "per-layer", "--out", model],
        ["cluster", cfg, weights, "--bits", "5", "--out", model],
        ["verify", cfg, weights, model],
    ]
    tracer = Tracer()
    for argv in commands:
        with tracer:
            code, _, err, _ = workloads.run_cli(argv)
        assert code == 0, err
    names = {span[0] for span in tracer.spans}
    assert {"cli.main", "cli.cmd_verify", "engine.gemm_nn_packed",
            "engine.conv_forward_clustered", "cluster.kmeans_1d"} <= names
    metrics = layer_metrics(tracer.spans)
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expected = [m["name"] for m in spec["per_layer"] if not m["name"].startswith("trace.")]
    assert list(metrics) == expected
    assert [name for name in expected if not metrics[name] > 0] == []
    assert all(span[2] >= span[1] for span in tracer.spans)


@pytest.mark.parametrize("divisor, weights, macs", [
    (inputs.NARROW_DIVISOR, 102_088, 32_484_400),
    (inputs.VERIFY_DIVISOR, 24_103, 9_661_300),
])
def test_narrow_net_keeps_every_layer_and_kind(divisor, weights, macs):
    full = inputs.load_net(inputs.yolov3_text())
    narrow = inputs.load_net(inputs.narrow_cfg(inputs.yolov3_text(), divisor))
    assert len(full.layers) == len(narrow.layers) == 107
    assert [l.kind for l in narrow.layers] == [l.kind for l in full.layers]
    for a, b in zip(full.layers, narrow.layers):
        if a.kind == CONVOLUTIONAL:
            assert b.conv.filters == max(1, a.conv.filters // divisor)
            assert (b.conv.kernel, b.conv.stride) == (a.conv.kernel, a.conv.stride)
        else:
            assert (b.sources, b.from_index, b.factor) == (a.sources, a.from_index, a.factor)
    assert (narrow.input.w, narrow.input.h) == (320, 320)
    record = inputs.describe(f"yolov3-w{divisor}", narrow, divisor, 0)
    assert record["kernel_weights"] == weights
    assert record["macs_per_pass"] == macs


def test_synthetic_weights_follow_the_seed():
    net = inputs.load_net(TOY)
    a, b = inputs.synthetic_weights(net, 1), inputs.synthetic_weights(net, 1)
    assert a == b != inputs.synthetic_weights(net, 2)
    assert a.convs[0].batch_normalized and not a.convs[1].batch_normalized


def _toy_cluster(tmp_path):
    workload = workloads.Cluster("toy", cfg_text=TOY, net_name="toy", divisor=1)
    workload.setup(str(tmp_path), 3)
    return workload


def test_cluster_outputs_pass_their_checks(tmp_path):
    times, attempted, failures, ratios = run.measure(_toy_cluster(tmp_path), 0.0)
    assert (attempted, failures) == (2 * run.MIN_ROUNDS, [])
    for kind, *_ in workloads.CLUSTER_USES:
        assert len(times[(kind, False)]) == run.MIN_ROUNDS
    assert len(ratios[False]) == run.MIN_ROUNDS and all(r > 0 for r in ratios[False])


# Runs the toy cluster rounds in a fresh interpreter, prints the CWTS digests.
DIGESTS = """
import json, sys
from bench import run, test_bench, workloads
w = workloads.Cluster("toy", cfg_text=test_bench.TOY, net_name="toy", divisor=1)
w.setup(sys.argv[1], 3)
failures = run.measure(w, 0.0)[2]
assert not failures, failures
print(json.dumps(w.same.first))
"""


def test_cluster_digest_is_equal_across_processes(tmp_path):
    digests = []
    for hash_seed in ("1", "2"):
        directory = tmp_path / hash_seed
        directory.mkdir()
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join([str(run.ROOT / "src"), str(run.ROOT)]))
        child = subprocess.run([sys.executable, "-c", DIGESTS, str(directory)],
                               capture_output=True, text=True, env=env, timeout=120)
        assert child.returncode == 0, child.stderr
        digests.append(json.loads(child.stdout))
    assert set(digests[0]) == {kind for kind, *_ in workloads.CLUSTER_USES}
    assert digests[0] == digests[1]


def test_an_output_left_unwritten_is_a_failed_command(tmp_path, monkeypatch):
    workload = _toy_cluster(tmp_path)
    run.measure(workload, 0.0)
    monkeypatch.setattr(workloads.cli, "main", lambda argv: 0)
    _, attempted, failures, ratios = run.measure(workload, 0.0)
    assert attempted == len(failures) == 2 * run.MIN_ROUNDS
    assert ratios[False] == []  # a round with a failed command is not timed
    assert all("FileNotFoundError" in f for f in failures)


def test_flipped_cwts_byte_is_a_failed_command(tmp_path, monkeypatch):
    workload = _toy_cluster(tmp_path)
    real_main = cli.main

    def corrupting_main(argv):
        code = real_main(argv)
        path = Path(argv[argv.index("--out") + 1])
        data = bytearray(path.read_bytes())
        data[20] ^= 0x01
        path.write_bytes(bytes(data))
        return code

    monkeypatch.setattr(workloads.cli, "main", corrupting_main)
    _, attempted, failures, _ = run.measure(workload, 0.0)
    assert attempted == len(failures) == 2 * run.MIN_ROUNDS
    assert all("checksum mismatch" in f for f in failures)


def _analyze(tmp_path, pins):
    workload = workloads.Analyze("a", pins=pins)
    workload.setup(str(tmp_path), 0)
    return run.measure(workload, 0.0)


def test_analyze_pins_hold(tmp_path):
    _, attempted, failures, _ = _analyze(tmp_path, workloads.PINS)
    assert (attempted, failures) == (3 * run.MIN_ROUNDS, [])


@pytest.mark.parametrize("pin", sorted(workloads.PINS))
def test_wrong_pinned_total_is_a_failed_command(tmp_path, pin):
    pins = dict(workloads.PINS)
    value, tol = pins[pin]
    pins[pin] = (value + 10 * tol, tol)
    _, attempted, failures, _ = _analyze(tmp_path, pins)
    assert attempted == 3 * run.MIN_ROUNDS
    # the baseline pin fails every analyze call, the 5-bit pin only all-layers
    assert len(failures) == (2 if pin == "baseline_gbps" else 1) * run.MIN_ROUNDS
    assert all(f.startswith("analyze ") for f in failures)

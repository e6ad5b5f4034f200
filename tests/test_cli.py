"""End-to-end command-line behavior, including output determinism."""

import contextlib
import gc
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import weakref
from dataclasses import replace
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convwatt import cli, cluster, engine
from convwatt.cli import main
from convwatt.cluster import (
    ClusteredModel,
    ClusterEntry,
    ConvParams,
    DarknetWeights,
    dequantize,
    fold_batch_norm,
    model_sse,
    read_clustered,
    read_darknet_weights,
    write_clustered,
    write_darknet_weights,
)
from convwatt.netdef import parse_config

from conftest import TOY_CFG, weights_blob


@pytest.fixture(autouse=True)
def fixed_epoch(monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")


@pytest.fixture()
def cfg_path(tmp_path):
    path = tmp_path / "toy.cfg"
    path.write_text(TOY_CFG)
    return path


@pytest.fixture()
def weights_path(tmp_path, toy_weights_bytes):
    path = tmp_path / "toy.weights"
    path.write_bytes(toy_weights_bytes)
    return path


def run_cluster(cfg_path, weights_path, tmp_path, *extra):
    out = tmp_path / "toy.cwts"
    rc = main(
        ["cluster", str(cfg_path), str(weights_path), "--bits", "5", "--out", str(out)]
        + list(extra)
    )
    assert rc == 0
    return out


class TestAnalyze:
    def test_human_report(self, cfg_path, capsys):
        assert main(["analyze", str(cfg_path), "--bits", "8"]) == 0
        out = capsys.readouterr().out
        assert "network: toy.cfg" in out
        assert "7 layers, 3 conv" in out
        assert "element access split:" in out
        assert "baseline energy:" in out
        assert "configuration" in out
        assert "8-bit all-layers" in out
        assert "size reduction 4x word-aligned" in out
        assert "SRAM table 1024 B" in out

    def test_json_report_schema(self, cfg_path, tmp_path, capsys):
        report = tmp_path / "report.json"
        rc = main(
            ["analyze", str(cfg_path), "--bits", "5", "--bits", "8",
             "--json", str(report)]
        )
        assert rc == 0
        capsys.readouterr()
        payload = json.loads(report.read_text())
        assert payload["schema_version"] == 1
        manifest = payload["manifest"]
        assert manifest["tool"] == "convwatt"
        assert manifest["command"] == "analyze"
        assert manifest["options"]["bits"] == [5, 8]
        assert manifest["options"]["scope"] == "all_layers"
        digest = hashlib.sha256(cfg_path.read_bytes()).hexdigest()
        assert manifest["inputs"]["toy.cfg"] == digest
        assert manifest["timestamp"] == "2023-11-14T22:13:20+00:00"
        labels = [r["label"] for r in payload["reports"]]
        assert labels == ["baseline", "5-bit all-layers", "8-bit all-layers"]
        assert payload["rows"][0]["fps"] == 25.0
        assert [n["bits"] for n in payload["size_reduction"]] == [5, 8]
        assert [n["word_aligned_factor"] for n in payload["size_reduction"]] == [6.0, 4.0]

    def test_json_is_byte_deterministic(self, cfg_path, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            assert main(["analyze", str(cfg_path), "--bits", "6", "--json", str(path)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_json_keys_are_sorted(self, cfg_path, tmp_path, capsys):
        report = tmp_path / "report.json"
        assert main(["analyze", str(cfg_path), "--json", str(report)]) == 0
        capsys.readouterr()
        text = report.read_text()
        assert text.index('"manifest"') < text.index('"reports"')
        assert text.index('"command"') < text.index('"inputs"')

    def test_csv_summary(self, cfg_path, tmp_path, capsys):
        csv_path = tmp_path / "summary.csv"
        rc = main(["analyze", str(cfg_path), "--bits", "8", "--csv", str(csv_path)])
        assert rc == 0
        capsys.readouterr()
        lines = csv_path.read_text().splitlines()
        assert lines[0].startswith("# manifest: {")
        assert lines[1] == (
            "configuration,bandwidth_gbps,fps,"
            "relative_memory_energy_pct,relative_overall_energy_pct"
        )
        assert lines[2].startswith("baseline,")
        assert lines[3].startswith("8-bit all-layers,")
        assert len(lines) == 4
        # rerun writes identical bytes
        other = tmp_path / "again.csv"
        assert main(["analyze", str(cfg_path), "--bits", "8", "--csv", str(other)]) == 0
        capsys.readouterr()
        assert other.read_bytes() == csv_path.read_bytes()

    def test_per_layer_scope_label(self, cfg_path, capsys):
        assert main(["analyze", str(cfg_path), "--bits", "5", "--scope", "per-layer"]) == 0
        assert "5-bit per-layer" in capsys.readouterr().out

    def test_row_convention_flag_changes_traffic(self, cfg_path, tmp_path, capsys):
        out_rows, in_rows = tmp_path / "o.json", tmp_path / "i.json"
        assert main(["analyze", str(cfg_path), "--json", str(out_rows)]) == 0
        assert main(
            ["analyze", str(cfg_path), "--row-convention", "input-rows",
             "--json", str(in_rows)]
        ) == 0
        capsys.readouterr()
        o = json.loads(out_rows.read_text())["reports"][0]["elements"]["weight_reads"]
        i = json.loads(in_rows.read_text())["reports"][0]["elements"]["weight_reads"]
        # the toy net has a stride-2 conv, so the conventions disagree
        assert i > o

    def test_unpriced_bit_width_fails_cleanly(self, cfg_path, capsys):
        assert main(["analyze", str(cfg_path), "--bits", "4"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("convwatt: error:")
        assert "4-bit" in err

    def test_zero_denominator_in_energy_config_fails_cleanly(
        self, cfg_path, tmp_path, capsys
    ):
        energy = tmp_path / "energy.cfg"
        energy.write_text(
            "[dram]\nread_row_miss_pj = 2937\nread_row_hit_pj = 1735\n"
            "write_row_miss_pj = 2953\nwrite_row_hit_pj = 1859\n"
            "row_miss_fraction = 1/0\n"
        )
        rc = main(["analyze", str(cfg_path), "--energy-config", str(energy)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("convwatt: error: ")
        assert "zero denominator" in err

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path / "absent.cfg")]) == 1
        assert "convwatt: error:" in capsys.readouterr().err

    def test_malformed_config_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[convolutional]\nfilters=8\n")
        assert main(["analyze", str(bad)]) == 1
        assert "convwatt: error:" in capsys.readouterr().err

    @pytest.mark.parametrize("epoch", ["100000000000000000000", "-10**20", "soon", ""])
    def test_unusable_source_date_epoch_is_one_error_line(
        self, cfg_path, tmp_path, capsys, monkeypatch, epoch
    ):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", epoch)
        rc = main(["analyze", str(cfg_path), "--json", str(tmp_path / "r.json")])
        assert rc == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"convwatt: error: SOURCE_DATE_EPOCH={epoch!r} ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("epoch", ["100000000000000000000", "soon"])
    def test_source_date_epoch_is_read_only_for_an_output_file(
        self, cfg_path, capsys, monkeypatch, epoch
    ):
        assert main(["analyze", str(cfg_path), "--bits", "5"]) == 0
        usual = capsys.readouterr().out
        monkeypatch.setenv("SOURCE_DATE_EPOCH", epoch)
        assert main(["analyze", str(cfg_path), "--bits", "5"]) == 0
        assert capsys.readouterr() == (usual, "")


# sha256 of analyze's stdout, JSON and CSV on the shipped yolov3.cfg with
# --bits 5 6 7 8 and SOURCE_DATE_EPOCH=1700000000, for each (scope, read
# bucket, row convention), and of the compare CSV of the two scopes' default
# reports. Any moved count, bucket, JSON field or printed digit changes a
# digest; change one only together with an intended change of the output.
ANALYZE_SHA256 = {
    ("all-layers", "inputs", "output-rows"): (
        "7a63c93e6119f30f30efde7c0e2393dec845c1f009b79dc190442f3ca9377d0d",
        "2e6e5f4a7eccb40d240ffc7633d4f39d48ff79aeeb2e4dd3a9ad3ead263347c9",
        "3cfe39d9121ffe60a8dc6162da19c7ea5e5e6dbdfc7dd38d3b14209a6f68d505",
    ),
    ("all-layers", "inputs", "input-rows"): (
        "88f5fecbcb1d3efb9a2af8bafb5650f6baac0f31ff24b398aef4fb8cf9cca177",
        "eb7d8ce52d6c211a384557bb939fa9ecfad2ac920209090d868d767dfc1f1905",
        "d7a241dd1097e960a74de1c9de072f9e35c52d378fec06b06e168b40cef9472e",
    ),
    ("all-layers", "split", "output-rows"): (
        "ec4684539bc3cdaa97561b7399c5ea80dbb2ec5e2b8fe0a01b3104c81b09441a",
        "48b9db99f7e45232bb498c231ef2268f8cd26a929113656f4c49e755c4082539",
        "6aa172e312ae3e4d2941302269b96ce90fc1595f4ddb017297f9da16dc11da3a",
    ),
    ("all-layers", "split", "input-rows"): (
        "869f3884a219a5e1fe798b3eadc638737e5a31600d1b82fa202051622d29353c",
        "ee8c3578c689c1b68e0fe2cbd4dfd39e2281f3f4a3ebe3f06bd641905f3b086e",
        "1b2443cea2c3fef12a41bd6da1d76133ac9d627566ce2d066f06a0361c0d8ef3",
    ),
    ("per-layer", "inputs", "output-rows"): (
        "396a7f9078026159260fd145e43ade78f7d250ef1db3c3b35f7bdf5b56448502",
        "ba96254e7d19a94eba2964bda42456b0894fa74c90b5be82113b4b76aa6c5501",
        "d3b8926d5a3bb888f89b113b72579ccc570426dacda7b15408d89f74ba6181dc",
    ),
    ("per-layer", "inputs", "input-rows"): (
        "b02422b47ad6432a0076be4eb5359647a9913f41969b11a7b1e9f2a8e47a1e41",
        "743f72ad681ae0955ed222449259ae8beec2255026841e6b04a0df1bb14d1a9d",
        "dbc0f30b8ae688688d5c949602dd38d7e5904158c4fda6d395f1e56d3b1f1bbe",
    ),
    ("per-layer", "split", "output-rows"): (
        "10dc84eeb7a59732dcb6eaa64e29b21c370a9dd12ee2a2c982e3a4024597a784",
        "d1adf31dcb0ae8735112d870ec9c92c6a2cc92ffd8bc4d448962af1d5360ae2d",
        "920f885c38053385aeb12d8834875c23bc8a3684a2af65ee9e404d32bc94a6d2",
    ),
    ("per-layer", "split", "input-rows"): (
        "1da0bacb8e9f4b270e2c45420bff5691b620a10a0e39fbf27db45abed397ad4f",
        "782b131ead52f13adc5da922080916810696a11ba8efa9860801d3b0598e2f2c",
        "4b3b554b959951f7f590a0f1d528248eb08b2d1af13e778494cfa72f42d08926",
    ),
}
COMPARE_SHA256 = "313aa09a1dbc1e99dde5b61d0f3a9089dac9a98899aa31abe7fb56a77f9974d3"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def analyze_digests(tmp_path, capsys, scope, bucket, rows) -> tuple[str, str, str]:
    cfg = tmp_path / "yolov3.cfg"
    if not cfg.exists():
        cfg.write_bytes(resources.files("convwatt").joinpath("data/yolov3.cfg").read_bytes())
    stem = tmp_path / f"{scope}-{bucket}-{rows}"
    json_path, csv_path = stem.with_suffix(".json"), stem.with_suffix(".csv")
    assert main(
        ["analyze", str(cfg), "--bits", "5", "--bits", "6", "--bits", "7",
         "--bits", "8", "--scope", scope, "--read-bucket", bucket,
         "--row-convention", rows, "--json", str(json_path), "--csv", str(csv_path)]
    ) == 0
    stdout = capsys.readouterr().out.encode()
    return sha256(stdout), sha256(json_path.read_bytes()), sha256(csv_path.read_bytes())


class TestOutputBytes:
    @pytest.mark.parametrize("key", sorted(ANALYZE_SHA256), ids="/".join)
    def test_analyze_bytes_are_pinned(self, tmp_path, capsys, key):
        assert analyze_digests(tmp_path, capsys, *key) == ANALYZE_SHA256[key]

    def test_every_option_combination_is_pinned(self):
        assert set(ANALYZE_SHA256) == {
            (scope, bucket, rows)
            for scope in ("all-layers", "per-layer")
            for bucket in ("inputs", "split")
            for rows in ("output-rows", "input-rows")
        }

    def test_compare_bytes_are_pinned(self, tmp_path, capsys):
        for scope in ("all-layers", "per-layer"):
            analyze_digests(tmp_path, capsys, scope, "inputs", "output-rows")
        reports = [str(tmp_path / f"{s}-inputs-output-rows.json")
                   for s in ("all-layers", "per-layer")]
        assert main(["compare", *reports]) == 0
        assert sha256(capsys.readouterr().out.encode()) == COMPARE_SHA256


def yolov3_w24() -> str:
    """The shipped yolov3.cfg with every filters= integer-divided by 24, to
    at least 1, at 320x320: 102,088 kernel weights."""
    text = resources.files("convwatt").joinpath("data/yolov3.cfg").read_text()
    text = re.sub(
        r"(?m)^(\s*filters\s*=\s*)(\d+)",
        lambda m: f"{m[1]}{max(1, int(m[2]) // 24)}",
        text,
    )
    return re.sub(r"(?m)^(\s*(?:width|height)\s*=\s*)\d+", r"\g<1>320", text)


def off_grid_blob(text: str) -> bytes:
    """weights_blob(net, seed=11) with the first kernel weight of the
    second conv, which has no batch norm to fold, set to (1 + 2**-23) *
    2**(p - 41), p being the frexp exponent of the largest folded kernel
    weight: about 2**-40 times that weight, with its lowest bit 2**-64
    times it, below the 62-bit grid of _SegmentSums' level 0. So a table
    that holds it lies on two levels."""
    net = parse_config(text)
    weights = read_darknet_weights(weights_blob(net, seed=11), net)
    peak = max(float(np.abs(conv.kernel).max()) for conv in fold_batch_norm(weights).convs)
    second = weights.convs[1]
    kernel = second.kernel.copy()
    kernel[0] = (1 + 2.0**-23) * 2.0 ** (math.frexp(peak)[1] - 41)
    convs = list(weights.convs)
    convs[1] = replace(second, kernel=kernel)
    return write_darknet_weights(replace(weights, convs=tuple(convs)))


# (cfg, cluster options, whether the weights hold one weight off the grid)
# of each CLUSTER_SHA256 case. Every table here holds at most cluster._BATCH
# values and keeps its prefix sums at every value, the w24 net's global table
# of 102,088 too; test_blocked_layout_gives_the_same_bytes runs that table,
# and the off-grid one, again with the prefix at every cluster._STEP-th
# value, as a larger table keeps it. The off-grid case's table lies on two
# levels, and keeps a prefix for each.
CLUSTER_CASES = {
    "toy/per-layer/8": (TOY_CFG, ["--scope", "per-layer", "--bits", "8"], False),
    "toy/all-layers/5/kmeans-pp": (
        TOY_CFG, ["--bits", "5", "--init", "kmeans-pp", "--seed", "4"], False,
    ),
    "toy/all-layers/5/off-grid": (TOY_CFG, ["--bits", "5"], True),
    "w24/all-layers/5": (yolov3_w24(), ["--bits", "5", "--max-iters", "20"], False),
}
# sha256 of cluster's CWTS file, stdout and --json with
# SOURCE_DATE_EPOCH=1700000000 and weights_blob(net, seed=11) (off_grid_blob
# for the off-grid case), run in the output's directory so that only
# basenames are printed and recorded
CLUSTER_SHA256 = {
    "toy/per-layer/8": (
        "803b6b3e6308eaefcbe0a329c46e1d3349ac8873a8f1650eaec030d891f4a84f",
        "ff1d26c80412d7a9ed2a9eb363766fd54a67d717a7644e2f20675759c239fff1",
        "d7b9e8bf32794a9ab7a7a4079c634bb8188b88b9f8216190741dbec60d31e515",
    ),
    "toy/all-layers/5/kmeans-pp": (
        "770f630e5d7327c8031fd98417f314fd32be1896cab0adb4767b7779240c239b",
        "86a1438e07d1bf92af12df87a868ffbb020c7b903d1ab4f3daf342efdcc3cca7",
        "452e08497bbf2263ca4de4abca5f2643a07455aa717b88bd432ebde5d62c3027",
    ),
    "toy/all-layers/5/off-grid": (
        "fb48ba9c78f30feffd83d7a7a8ed653969c9b0bf9d0401ca1b77a80bd681d9f9",
        "44cc0c8cf502f492f84e79b3e4eb73063433815812fe9648e5f50deb3ae38a80",
        "dc677379a4c3126c55ec9c9cad515b42eba410c43dcd72a8d417c0645d0ec7b1",
    ),
    "w24/all-layers/5": (
        "6aa6cc1aefdb5896e614b3be26a0a78d93c315aa07d1237abab9ac92605b437f",
        "a3aed9c7d2821953ec38af0bd1993667903cf0ad2293e26311c3335070852503",
        "2a4c1551d96e48d343ca43ba2738da151453ee6c7886c6763d84e395cefe3a7f",
    ),
}


class TestClusterBytes:
    @pytest.mark.parametrize("case", sorted(CLUSTER_SHA256))
    def test_cluster_bytes_are_pinned(self, tmp_path, monkeypatch, capsys, case):
        self.check(tmp_path, monkeypatch, capsys, case)

    @pytest.mark.parametrize("case", ["w24/all-layers/5", "toy/all-layers/5/off-grid"])
    def test_blocked_layout_gives_the_same_bytes(self, tmp_path, monkeypatch, capsys, case):
        # every table runs alone and keeps its prefix at every _STEP-th value
        monkeypatch.setattr(cluster, "_BATCH", 0)
        built = []
        real = cluster._SegmentSums.__init__

        def spy(self, *args):
            real(self, *args)
            built.append(self.step)

        monkeypatch.setattr(cluster._SegmentSums, "__init__", spy)
        self.check(tmp_path, monkeypatch, capsys, case)
        assert built == [cluster._STEP]

    @staticmethod
    def check(tmp_path, monkeypatch, capsys, case):
        text, options, off_grid = CLUSTER_CASES[case]
        real, levels = cluster._SegmentSums.__init__, []

        def spy(self, *args):
            real(self, *args)
            levels.extend(self.levels)

        monkeypatch.setattr(cluster._SegmentSums, "__init__", spy)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "net.cfg").write_text(text)
        blob = off_grid_blob(text) if off_grid else weights_blob(parse_config(text), seed=11)
        (tmp_path / "net.weights").write_bytes(blob)
        argv = ["cluster", "net.cfg", "net.weights", *options,
                "--out", "net.cwts", "--json", "net.json"]
        assert main(argv) == 0
        stdout = capsys.readouterr().out.encode()
        digests = (
            sha256((tmp_path / "net.cwts").read_bytes()),
            sha256(stdout),
            sha256((tmp_path / "net.json").read_bytes()),
        )
        # the one table lies on level 0 alone, or on two levels
        assert levels == [[0, 1] if off_grid else [0]]
        assert digests == CLUSTER_SHA256[case]


# One strided 3x3 conv: a 13x13 input unfolds to 27 rows of 7 * 27 = 189
# elements per output row, so a _BAND of two rows runs the 7x7 output as
# bands of 2, 2, 2 and 1 rows, each one a view of the output whose rows lie
# apart.
BANDED_CFG = """
[net]
width=13
height=13
channels=3

[convolutional]
batch_normalize=1
filters=6
size=3
stride=2
pad=1
activation=leaky
"""

# sha256 of every layer output of verify's four run_network passes, with
# 5-bit models clustered from weights_blob(net, seed=11) and an input drawn
# from default_rng(99): "plain" for the folded weights, and the scope for
# the dequantized, indirect and on-the-fly passes, which must all give it.
RUN_NETWORK_SHA256 = {
    ("toy", "plain"): (
        "c6476f89d343ac5aea0ada6efa49f72f85fdff23dd08f6b97dc7dfcb5441ea0a",
        "9517cbf400e7dba13a154283223eb531d5b70f5fbb8f270dee934cf16c221cae",
        "f07b3178ca364fd9702df79fc37337421a86f99e75df2dbe5126c91c260326ff",
        "822c932bc0bee701e5b92ccb20f787f134388181b99a1bc3e492a9f01a943983",
        "e8ddaa393b7f17d0997730dd48a291096f5bbf4b933a167d987b96795e4fb71e",
        "f841d4a2fb7fadafe32d1ee6e95dcd3de396b1b09e7eb8ef70a271317535cd26",
        "f841d4a2fb7fadafe32d1ee6e95dcd3de396b1b09e7eb8ef70a271317535cd26",
    ),
    ("toy", "all_layers"): (
        "fe4b314ff9a22b2e76471381f096d4b50b150415f91d7e636cf943a32711c2f0",
        "caafa03e6bacfb720785621117400da45735ce8d14b8f37ab38b2c91f6e5807d",
        "f97796524d5bfa468abce3b70a8a327c2f4270c6eb98bd65ed47a7f2d791dc86",
        "10b144dd6dddd7856685ac19a698b7db2f9d348be2fe06cdd802f740c90ee67d",
        "6d65fe3ecf416ddae3e298fab0e74fcb63ba67072a55d525c6bdfcd7110e2e5c",
        "317f5face30730227796fae1bdbd016de854dcc06f4b1ae9a3960892d4a63a3a",
        "317f5face30730227796fae1bdbd016de854dcc06f4b1ae9a3960892d4a63a3a",
    ),
    ("toy", "per_layer"): (
        "6522e4ae318c9c60fc8d34bd8c69e33a4b49988676a944b839f49cb724fb2bbe",
        "c1c2bcc60bce6a9e0cb6becfe818610a4b515d70a9ab1ffe50b104ae876bcc0a",
        "ebdd127d9198d562f3db78232f9bebe2a31661270cfbaa40ed81b3a3cc14e436",
        "72797b7320f23122fc5984df79bd549df93e425dffd286f0afb989bc7ed24c82",
        "b7b6a5eac32404f0e388617fd7f61ea6c230487e11c40d2e9c0611a740b04b28",
        "d0523b63004467647a2800592b3e27a64a751fc65f7bee923c8436ed2b788cd2",
        "d0523b63004467647a2800592b3e27a64a751fc65f7bee923c8436ed2b788cd2",
    ),
    ("banded", "plain"): (
        "fba3b38e41bf787b75d72b98ec0a50d70aded431e4fd557618ef04d97a107f0f",
    ),
    ("banded", "all_layers"): (
        "59d0f544f73b91b961659cc417b7c9ef248e09250ce8e0f87745db82a4da9731",
    ),
    ("banded", "per_layer"): (
        "59d0f544f73b91b961659cc417b7c9ef248e09250ce8e0f87745db82a4da9731",
    ),
}


def run_network_digests(text: str, scope: str) -> dict[str, list[str]]:
    net = parse_config(text)
    folded = fold_batch_norm(read_darknet_weights(weights_blob(net, seed=11), net))
    model = cluster.cluster_model(folded, cluster.ClusterConfig(scope=scope, bits=5))
    dequantized = dequantize(model, folded)
    x = np.random.default_rng(99).standard_normal(
        (net.input.c, net.input.h, net.input.w)
    ).astype(np.float32)
    passes = {
        "plain": engine.run_network(net, folded, x),
        "dequantized": engine.run_network(net, dequantized, x),
        "indirect": engine.run_network(net, folded, x, clustered=model),
        "on_the_fly": engine.run_network(net, folded, x, clustered=model, on_the_fly=True),
    }
    return {
        name: [sha256(out.tobytes()) for out in outputs]
        for name, outputs in passes.items()
    }


class TestRunNetworkBytes:
    """The engine's output bytes end to end, on both paths of its core."""

    @pytest.mark.parametrize("path", ["narrow", "wide"])
    @pytest.mark.parametrize("name", ["toy", "banded"])
    def test_layer_output_bytes_are_pinned(self, monkeypatch, name, path):
        monkeypatch.setattr(engine, "_BAND", 2 * 189)
        if path == "wide":
            monkeypatch.setattr(engine, "_NARROW", 0)
        text = {"toy": TOY_CFG, "banded": BANDED_CFG}[name]
        for scope in ("all_layers", "per_layer"):
            digests = run_network_digests(text, scope)
            assert tuple(digests.pop("plain")) == RUN_NETWORK_SHA256[name, "plain"]
            for clustered in digests.values():
                assert tuple(clustered) == RUN_NETWORK_SHA256[name, scope]


class TestCluster:
    def test_writes_readable_container(self, cfg_path, weights_path, tmp_path, capsys):
        out = run_cluster(cfg_path, weights_path, tmp_path)
        stdout = capsys.readouterr().out
        assert "global:" in stdout
        assert "K=32" in stdout
        assert f"wrote {out}" in stdout
        model = read_clustered(out.read_bytes())
        assert model.scope == "all_layers"
        assert model.bits == 5

    # the toy net's 568 kernel weights, each table holding 2**bits fp32
    # entries: tight = 32*568 / (bits*568 + 32*entries)
    @pytest.mark.parametrize("scope, bits, sizes", [
        ("all-layers", "5", "540 bytes, 6x word-aligned reduction, 4.70x tight"),
        ("per-layer", "8", "3704 bytes, 4x word-aligned reduction, 0.62x tight"),
        ("all-layers", "1", "112 bytes, 32x word-aligned reduction, 28.76x tight"),
    ])
    def test_size_line(self, cfg_path, weights_path, tmp_path, capsys, scope, bits, sizes):
        out = run_cluster(cfg_path, weights_path, tmp_path, "--scope", scope, "--bits", bits)
        assert capsys.readouterr().out.splitlines()[-1] == f"wrote {out}: {sizes}"

    def test_output_is_byte_deterministic(self, cfg_path, weights_path, tmp_path, capsys):
        first = run_cluster(cfg_path, weights_path, tmp_path).read_bytes()
        second = run_cluster(cfg_path, weights_path, tmp_path).read_bytes()
        capsys.readouterr()
        assert first == second

    def test_per_layer_lists_each_table(self, cfg_path, weights_path, tmp_path, capsys):
        out = tmp_path / "per.cwts"
        rc = main(
            ["cluster", str(cfg_path), str(weights_path), "--bits", "5",
             "--scope", "per-layer", "--out", str(out)]
        )
        assert rc == 0
        stdout = capsys.readouterr().out
        for layer in (0, 1, 3):
            assert f"layer {layer}:" in stdout
        assert len(read_clustered(out.read_bytes()).entries) == 3

    def test_stats_json(self, cfg_path, weights_path, tmp_path, capsys):
        out = tmp_path / "toy.cwts"
        stats = tmp_path / "stats.json"
        rc = main(
            ["cluster", str(cfg_path), str(weights_path), "--bits", "5",
             "--seed", "7", "--out", str(out), "--json", str(stats)]
        )
        assert rc == 0
        capsys.readouterr()
        payload = json.loads(stats.read_text())
        assert payload["schema_version"] == 1
        assert payload["manifest"]["seed"] == 7
        assert payload["manifest"]["options"]["bits"] == 5
        [table] = payload["tables"]
        assert table["table"] == "global"
        assert table["k"] == 32
        assert table["count"] == read_clustered(out.read_bytes()).total_count
        assert payload["total_sse"] == pytest.approx(table["sse"])
        assert payload["file_bytes"] == len(out.read_bytes())

    def test_rejects_bad_width(self, cfg_path, weights_path, tmp_path, capsys):
        rc = main(
            ["cluster", str(cfg_path), str(weights_path), "--bits", "9",
             "--out", str(tmp_path / "x.cwts")]
        )
        assert rc == 1
        assert "convwatt: error:" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_rejects_non_finite_tol(self, cfg_path, weights_path, tmp_path, capsys, tol):
        out, stats = tmp_path / "x.cwts", tmp_path / "stats.json"
        rc = main(
            ["cluster", str(cfg_path), str(weights_path), "--bits", "5",
             "--tol", tol, "--out", str(out), "--json", str(stats)]
        )
        assert rc == 1
        assert "convwatt: error: tol must be a finite number" in capsys.readouterr().err
        assert not out.exists() and not stats.exists()

    def test_rejects_wrong_weights(self, cfg_path, weights_path, tmp_path, capsys):
        truncated = tmp_path / "short.weights"
        truncated.write_bytes(weights_path.read_bytes()[:-10])
        rc = main(
            ["cluster", str(cfg_path), str(truncated), "--bits", "5",
             "--out", str(tmp_path / "x.cwts")]
        )
        assert rc == 1
        assert "truncated" in capsys.readouterr().err


def snapshot(directory) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


class TestOutputCollisions:
    """An output that names an input or another output is refused before
    anything is read or written."""

    @pytest.fixture()
    def files(self, tmp_path, monkeypatch, toy_weights_bytes, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "toy.cfg").write_text(TOY_CFG)
        (tmp_path / "toy.weights").write_bytes(toy_weights_bytes)
        for scope in ("all-layers", "per-layer"):
            assert main(["analyze", "toy.cfg", "--bits", "5", "--scope", scope,
                         "--json", f"{scope}.json"]) == 0
        (tmp_path / "old.cwts").write_bytes(b"an earlier model")
        (tmp_path / "r").write_bytes(b"an earlier report")
        (tmp_path / "link.weights").symlink_to("toy.weights")
        capsys.readouterr()
        return tmp_path

    CLUSTER = ["cluster", "toy.cfg", "toy.weights", "--bits", "5"]

    CASES = {
        "cluster-out-is-weights": (
            CLUSTER + ["--out", "toy.weights"],
            "--out toy.weights names the same file as weights toy.weights",
        ),
        "cluster-json-is-out": (
            CLUSTER + ["--out", "old.cwts", "--json", "old.cwts"],
            "--json old.cwts names the same file as --out old.cwts",
        ),
        "cluster-json-is-new-out": (
            CLUSTER + ["--out", "new.cwts", "--json", "./new.cwts"],
            "--json ./new.cwts names the same file as --out new.cwts",
        ),
        "cluster-out-links-to-weights": (
            CLUSTER + ["--out", "link.weights"],
            "--out link.weights names the same file as weights toy.weights",
        ),
        "cluster-json-is-config": (
            CLUSTER + ["--out", "x.cwts", "--json", "toy.cfg"],
            "--json toy.cfg names the same file as config toy.cfg",
        ),
        "analyze-json-is-config": (
            ["analyze", "toy.cfg", "--json", "toy.cfg"],
            "--json toy.cfg names the same file as config toy.cfg",
        ),
        "analyze-csv-is-json": (
            ["analyze", "toy.cfg", "--json", "r", "--csv", "r"],
            "--csv r names the same file as --json r",
        ),
        "analyze-csv-is-energy-config": (
            ["analyze", "toy.cfg", "--energy-config", "r", "--csv", "r"],
            "--csv r names the same file as --energy-config r",
        ),
        "compare-out-is-report": (
            ["compare", "all-layers.json", "per-layer.json", "--out", "per-layer.json"],
            "--out per-layer.json names the same file as report per-layer.json",
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_is_one_error_line_and_writes_nothing(self, files, capsys, case):
        argv, message = self.CASES[case]
        before = snapshot(files)
        assert main(argv) == 1
        assert capsys.readouterr() == ("", f"convwatt: error: {message}\n")
        assert snapshot(files) == before

    def test_devices_may_take_several_outputs(self, files, capsys):
        assert main(["analyze", "toy.cfg", "--json", os.devnull, "--csv", os.devnull]) == 0

    def test_distinct_outputs_are_written(self, files, capsys):
        assert main(self.CLUSTER + ["--out", "old.cwts", "--json", "r"]) == 0
        assert read_clustered((files / "old.cwts").read_bytes()).bits == 5
        assert json.loads((files / "r").read_text())["manifest"]["command"] == "cluster"


class TestAllOrNoOutputs:
    """A command writes every output file or none: a failure after the
    first output is ready leaves no file behind and no earlier one changed."""

    @pytest.fixture()
    def files(self, tmp_path, monkeypatch, toy_weights_bytes, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "toy.cfg").write_text(TOY_CFG)
        (tmp_path / "toy.weights").write_bytes(toy_weights_bytes)
        (tmp_path / "old.cwts").write_bytes(b"an earlier model")
        return tmp_path

    CLUSTER = ["cluster", "toy.cfg", "toy.weights", "--bits", "5"]

    @pytest.mark.parametrize("argv, missing", [
        (CLUSTER + ["--out", "m.cwts", "--json", "nodir/s.json"], "nodir/s.json"),
        (CLUSTER + ["--out", "old.cwts", "--json", "nodir/s.json"], "nodir/s.json"),
        (CLUSTER + ["--out", "nodir/m.cwts", "--json", "s.json"], "nodir/m.cwts"),
        (["analyze", "toy.cfg", "--json", "r.json", "--csv", "nodir/r.csv"], "nodir/r.csv"),
        (["analyze", "toy.cfg", "--json", "nodir/r.json", "--csv", "r.csv"], "nodir/r.json"),
    ])
    def test_an_output_that_cannot_be_written_leaves_none(self, files, capsys, argv, missing):
        before = snapshot(files)
        assert main(argv) == 1
        out, err = capsys.readouterr()
        # the outputs are staged before anything is printed
        assert out == ""
        assert err == f"convwatt: error: [Errno 2] No such file or directory: '{missing}'\n"
        assert snapshot(files) == before

    @pytest.mark.parametrize("argv", [
        CLUSTER + ["--out", "old.cwts", "--json", "s.json"],
        ["analyze", "toy.cfg", "--bits", "5", "--json", "r.json", "--csv", "r.csv"],
    ])
    def test_a_failure_after_staging_leaves_none(self, files, capsys, monkeypatch, argv):
        def fail(*args, file=None, **kwargs):
            if file is None:
                raise ValueError("failed while printing")
            print(*args, file=file, **kwargs)

        real_temporary, staged = cli._temporary_beside, []

        def temporary(target):
            staged.append(target)
            return real_temporary(target)

        # both commands print to stdout only once their outputs are staged
        monkeypatch.setattr(cli, "print", fail, raising=False)
        monkeypatch.setattr(cli, "_temporary_beside", temporary)
        before = snapshot(files)
        assert main(argv) == 1
        assert capsys.readouterr().err == "convwatt: error: failed while printing\n"
        assert snapshot(files) == before
        assert len(staged) == 2

    def test_outputs_keep_their_links_and_modes(self, files, capsys):
        os.chmod(files / "old.cwts", 0o640)
        (files / "sub").mkdir()
        (files / "link.json").symlink_to("sub/s.json")
        umask = os.umask(0o022)
        try:
            assert main(self.CLUSTER + ["--out", "old.cwts", "--json", "link.json"]) == 0
        finally:
            os.umask(umask)
        assert read_clustered((files / "old.cwts").read_bytes()).bits == 5
        assert (files / "old.cwts").stat().st_mode & 0o777 == 0o640
        # the link now leads to a new file, made as open() makes one
        assert (files / "link.json").is_symlink()
        summary = json.loads((files / "sub" / "s.json").read_text())
        assert summary["manifest"]["command"] == "cluster"
        assert (files / "sub" / "s.json").stat().st_mode & 0o777 == 0o644
        assert sorted(p.name for p in files.iterdir()) == [
            "link.json", "old.cwts", "sub", "toy.cfg", "toy.weights"]
        assert [p.name for p in (files / "sub").iterdir()] == ["s.json"]


class TestNegativeSeed:
    @pytest.mark.parametrize("command", [
        ["cluster", "toy.cfg", "toy.weights", "--bits", "5", "--out", "m.cwts"],
        ["cluster", "toy.cfg", "toy.weights", "--bits", "5", "--out", "m.cwts",
         "--init", "kmeans-pp"],
        ["verify", "toy.cfg", "toy.weights", "m.cwts"],
    ], ids=["cluster-linspace", "cluster-kmeans-pp", "verify"])
    def test_is_refused_naming_the_option(
        self, tmp_path, monkeypatch, capsys, toy_weights_bytes, command
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "toy.cfg").write_text(TOY_CFG)
        (tmp_path / "toy.weights").write_bytes(toy_weights_bytes)
        if command[0] == "verify":
            assert main(["cluster", "toy.cfg", "toy.weights", "--bits", "5",
                         "--out", "m.cwts"]) == 0
        capsys.readouterr()
        before = snapshot(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(command + ["--seed", "-1"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines()[-1].endswith(
            "error: argument --seed: expected an integer >= 0, got '-1'"
        )
        assert snapshot(tmp_path) == before


def conv_chain(depth: int) -> str:
    """A cfg of depth 3x3 convs that keep 4 channels of 48x48."""
    layer = "[convolutional]\nfilters=4\nsize=3\nstride=1\npad=1\nactivation=leaky\n"
    return "[net]\nwidth=48\nheight=48\nchannels=4\n\n" + "\n".join([layer] * depth)


def verify_peak(tmp_path, depth: int) -> int:
    """tracemalloc peak in bytes of verify on a depth-conv chain."""
    text = conv_chain(depth)
    cfg, weights, model = (tmp_path / f"chain{depth}{ext}"
                           for ext in (".cfg", ".weights", ".cwts"))
    cfg.write_text(text)
    weights.write_bytes(weights_blob(parse_config(text), seed=depth))
    argv = [str(cfg), str(weights)]
    assert main(["cluster", *argv, "--bits", "3", "--max-iters", "5",
                 "--out", str(model)]) == 0
    tracemalloc.start()
    try:
        assert main(["verify", *argv, str(model)]) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def write_unchecked_model(path, model, entries):
    """Write model's container with its tables replaced by entries, skipping
    ClusteredModel's own validation so that a malformed file can be made."""
    unchecked = object.__new__(ClusteredModel)
    for name in ("scope", "bits"):
        object.__setattr__(unchecked, name, getattr(model, name))
    object.__setattr__(unchecked, "entries", tuple(entries))
    path.write_bytes(write_clustered(unchecked))


class TestVerify:
    @pytest.mark.parametrize("scope", ["all-layers", "per-layer"])
    def test_pass_on_good_model(self, cfg_path, weights_path, tmp_path, capsys, scope):
        out = run_cluster(cfg_path, weights_path, tmp_path, "--scope", scope)
        rc = main(["verify", str(cfg_path), str(weights_path), str(out)])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "PASS" in stdout
        assert "bitwise equal" in stdout
        assert "final-layer MSE:" in stdout
        assert "quantization SSE:" in stdout

    @pytest.mark.parametrize("command, seam", [("verify", "run_network"),
                                               ("cluster", "cluster_model")])
    def test_folded_away_kernels_are_released(
        self, cfg_path, weights_path, tmp_path, capsys, monkeypatch, command, seam
    ):
        model = run_cluster(cfg_path, weights_path, tmp_path)
        real_read, raw = cli.read_darknet_weights, []

        def reading(data, net):
            weights = real_read(data, net)
            raw.extend(weakref.ref(c) for c in weights.convs if c.batch_normalized)
            return weights

        real_seam, alive = getattr(cli, seam), []

        def still_alive():
            gc.collect()
            alive.append(sum(ref() is not None for ref in raw))

        def watching(*args, **kwargs):
            still_alive()
            result = real_seam(*args, **kwargs)
            if seam != "run_network":
                return result
            return (still_alive() or output for output in result)

        monkeypatch.setattr(cli, "read_darknet_weights", reading)
        monkeypatch.setattr(cli, seam, watching)
        argv = {
            "verify": ["verify", str(cfg_path), str(weights_path), str(model)],
            "cluster": ["cluster", str(cfg_path), str(weights_path), "--bits", "5",
                        "--out", str(tmp_path / "again.cwts")],
        }[command]
        assert main(argv) == 0
        # the toy net's layers 0 and 3 are batch-normalized
        assert len(raw) == 2
        assert alive and set(alive) == {0}

    def test_peak_memory_does_not_grow_with_depth(self, tmp_path, capsys):
        # one 48x48x4 output is 36,864 bytes; keeping every layer's output of
        # the four passes would add 24 * 4 of them, 3.5 MB, from 8 to 32 layers
        shallow, deep = verify_peak(tmp_path, 8), verify_peak(tmp_path, 32)
        assert deep - shallow < 256 * 1024, (shallow, deep)

    def test_peak_memory_per_kernel_weight(self, tmp_path, capsys):
        # 2**20 weights in four 512x512 1x1 convs on a 2x2 map, so that the
        # weights, not the activations, set the peak. The folded kernels (4 B
        # per weight) stay through all passes. The SSE's float64 difference
        # (8 B) is gone before the dequantized kernels (4 B) are made.
        layer = "[convolutional]\nfilters=512\nsize=1\nstride=1\nactivation=linear\n"
        text = "[net]\nwidth=2\nheight=2\nchannels=512\n\n" + "\n".join([layer] * 4)
        cfg, weights, model = (tmp_path / f"wide{ext}" for ext in (".cfg", ".weights", ".cwts"))
        cfg.write_text(text)
        weights.write_bytes(weights_blob(parse_config(text), seed=3))
        argv = [str(cfg), str(weights)]
        assert main(["cluster", *argv, "--bits", "3", "--max-iters", "2",
                     "--out", str(model)]) == 0
        tracemalloc.start()
        try:
            assert main(["verify", *argv, str(model)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / (1 << 20) <= 14, peak

    @pytest.mark.parametrize("scope", ["all-layers", "per-layer"])
    def test_decodes_each_weight_three_times(
        self, cfg_path, weights_path, tmp_path, capsys, monkeypatch, scope
    ):
        out = run_cluster(cfg_path, weights_path, tmp_path, "--scope", scope)
        model = read_clustered(out.read_bytes())
        folded = fold_batch_norm(read_darknet_weights(weights_path.read_bytes(),
                                                      cli._load_network(str(cfg_path))))
        total_sse = sum(model_sse(model, folded))
        spans = {
            (entry.packed.count, base, conv.n_weights)
            for entry, layers in model.spans(folded)
            for conv, base in layers
        }
        # streams are told apart by their lengths
        counts = [entry.packed.count for entry in model.entries]
        assert len(set(counts)) == len(counts)
        assert len(folded.convs) > 1 and all(
            entry.table.k == 1 << model.bits for entry in model.entries
        )
        capsys.readouterr()
        real, decoded = cluster.unpack_indices, []

        def spy(packed, start, count):
            decoded.append((packed.count, start, count))
            return real(packed, start, count)

        monkeypatch.setattr(cluster, "unpack_indices", spy)
        monkeypatch.setattr(engine, "unpack_indices", spy)
        # SSE blocks shorter than the toy net's 3x3 convs, so that they cross
        # conv boundaries in the global stream
        block = 100
        monkeypatch.setattr(cluster, "_SSE_BLOCK", block)
        assert main(["verify", str(cfg_path), str(weights_path), str(out)]) == 0
        # each index once in an SSE block, then in its conv's span once for
        # the dequantized weights and once in the indirect pass; reading a
        # full table decodes nothing, and no call decodes more than a block
        # or a conv's span
        times = {count: np.zeros(count, dtype=int) for count in counts}
        for count, start, n in decoded:
            assert n <= block or (count, start, n) in spans
            times[count][start : start + n] += 1
        assert all((t == 3).all() for t in times.values())
        assert f"weight quantization SSE: {total_sse:.6g}" in capsys.readouterr().out

    def test_corrupt_model_fails_with_checksum_error(
        self, cfg_path, weights_path, tmp_path, capsys
    ):
        out = run_cluster(cfg_path, weights_path, tmp_path)
        data = bytearray(out.read_bytes())
        data[len(data) // 2] ^= 0xFF
        out.write_bytes(bytes(data))
        rc = main(["verify", str(cfg_path), str(weights_path), str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "convwatt: error:" in err
        assert "checksum mismatch" in err

    def test_seed_changes_probe_input_not_verdict(
        self, cfg_path, weights_path, tmp_path, capsys
    ):
        out = run_cluster(cfg_path, weights_path, tmp_path)
        for seed in ("0", "123"):
            rc = main(
                ["verify", str(cfg_path), str(weights_path), str(out), "--seed", seed]
            )
            assert rc == 0
        assert capsys.readouterr().out.count("PASS") == 2

    @pytest.mark.parametrize(
        "change, message",
        [
            # the toy net's conv layers are 0, 1 and 3; layer 2 is a shortcut
            (lambda e: e[:-1], "no codebook table for conv layers [3]"),
            (lambda e: e + [ClusterEntry(2, e[0].table, e[0].packed)],
             "tables for layers [2] name no conv layer"),
            (lambda e: e + [e[0]], "two tables for one layer"),
        ],
        ids=["missing-table", "shortcut-table", "duplicate-table"],
    )
    def test_malformed_per_layer_model_is_a_typed_error(
        self, cfg_path, weights_path, tmp_path, capsys, change, message
    ):
        out = run_cluster(cfg_path, weights_path, tmp_path, "--scope", "per-layer")
        model = read_clustered(out.read_bytes())
        write_unchecked_model(out, model, change(list(model.entries)))
        capsys.readouterr()
        rc = main(["verify", str(cfg_path), str(weights_path), str(out)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("convwatt: error: ")
        assert message in captured.err

    @pytest.mark.parametrize(
        "scope, message",
        [("all-layers", "global table covers"), ("per-layer", "layer 3 table covers")],
    )
    def test_model_of_another_network_is_a_typed_error(
        self, cfg_path, weights_path, tmp_path, capsys, scope, message
    ):
        out = run_cluster(cfg_path, weights_path, tmp_path, "--scope", scope)
        # the same layers, with half the filters in the last conv
        other_text = TOY_CFG.replace("filters=4", "filters=2")
        assert other_text != TOY_CFG
        other_cfg = tmp_path / "other.cfg"
        other_cfg.write_text(other_text)
        other_weights = tmp_path / "other.weights"
        other_weights.write_bytes(weights_blob(parse_config(other_text), seed=4))
        capsys.readouterr()
        rc = main(["verify", str(other_cfg), str(other_weights), str(out)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("convwatt: error: ")
        assert message in captured.err


def patch_outputs(monkeypatch, change):
    """Make cli.run_network yield change(index, output, run) for each layer's
    output of the real run, where run is "original", "dequantized",
    "indirect" or "on_the_fly"; the first plain run is the original one."""
    real, plain = cli.run_network, []

    def fake(net, weights, x, clustered=None, on_the_fly=False):
        outputs = real(net, weights, x, clustered=clustered, on_the_fly=on_the_fly)
        if clustered:
            run = "on_the_fly" if on_the_fly else "indirect"
        else:
            run = "dequantized" if plain else "original"
            plain.append(run)
        return (change(index, output, run) for index, output in enumerate(outputs))

    monkeypatch.setattr(cli, "run_network", fake)


def next_up(output, deltas):
    """A copy of output with its first element one ulp higher; the step goes
    to deltas."""
    layer = output.copy()
    old = layer.flat[0]
    layer.flat[0] = np.nextafter(old, np.float32(np.inf))
    deltas.append(float(layer.flat[0]) - float(old))
    return layer


class TestVerifyVerdict:
    def test_one_ulp_names_first_differing_layer(
        self, cfg_path, weights_path, tmp_path, capsys, monkeypatch
    ):
        out = run_cluster(cfg_path, weights_path, tmp_path)
        deltas = []

        def one_ulp(index, output, run):
            if run == "on_the_fly" and index == 3:
                return next_up(output, deltas)
            return output

        patch_outputs(monkeypatch, one_ulp)
        rc = main(["verify", str(cfg_path), str(weights_path), str(out)])
        assert rc == 1
        stdout = capsys.readouterr().out
        assert "indirect-vs-dequantized execution: FAIL (outputs differ)" in stdout
        assert (
            f"first differing layer: 3 (convolutional), max |delta| {deltas[0]:.6g}"
            in stdout
        )

    def test_negative_zero_is_not_bitwise_equal(
        self, cfg_path, weights_path, tmp_path, capsys, monkeypatch
    ):
        out = run_cluster(cfg_path, weights_path, tmp_path)

        def signed_zero(index, output, run):
            if index != 1:
                return output
            layer = output.copy()
            layer.flat[0] = np.float32(-0.0 if run == "on_the_fly" else 0.0)
            return layer

        patch_outputs(monkeypatch, signed_zero)
        rc = main(["verify", str(cfg_path), str(weights_path), str(out)])
        assert rc == 1
        stdout = capsys.readouterr().out
        assert "FAIL" in stdout
        assert "first differing layer: 1 (convolutional), max |delta| 0" in stdout

    def test_indirect_difference_stops_the_comparison_not_the_passes(
        self, cfg_path, weights_path, tmp_path, capsys, monkeypatch
    ):
        out = run_cluster(cfg_path, weights_path, tmp_path)
        net = cli._load_network(str(cfg_path))
        folded = fold_batch_norm(read_darknet_weights(weights_path.read_bytes(), net))
        model = read_clustered(out.read_bytes())
        x = np.random.default_rng(0).standard_normal(
            (net.input.c, net.input.h, net.input.w)
        ).astype(np.float32)
        original = list(engine.run_network(net, folded, x))[-1]
        indirect = list(engine.run_network(net, folded, x, clustered=model))[-1]
        mse = float(
            np.mean((original.astype(np.float64) - indirect.astype(np.float64)) ** 2)
        )
        assert mse > 0
        deltas = []

        def perturb(index, output, run):
            if run == "indirect" and index == 3:
                return next_up(output, deltas)
            if run in ("dequantized", "on_the_fly") and index == 6:
                # after the first difference, and in passes the MSE must not read
                return output + np.float32(1.0)
            return output

        patch_outputs(monkeypatch, perturb)
        capsys.readouterr()
        rc = main(["verify", str(cfg_path), str(weights_path), str(out)])
        assert rc == 1
        stdout = capsys.readouterr().out
        assert (
            f"first differing layer: 3 (convolutional), max |delta| {deltas[0]:.6g}"
            in stdout
        )
        assert f"clustered-vs-original final-layer MSE: {mse:.6g}\n" in stdout


class TestCompare:
    @pytest.fixture()
    def reports(self, cfg_path, tmp_path, capsys):
        paths = []
        for bits in (5, 8):
            path = tmp_path / f"r{bits}.json"
            assert main(
                ["analyze", str(cfg_path), "--bits", str(bits), "--json", str(path)]
            ) == 0
            paths.append(path)
        capsys.readouterr()
        return paths

    def test_joins_reports(self, reports, capsys):
        assert main(["compare", str(reports[0]), str(reports[1])]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "configuration,energy_reduction_pct,quality"
        labels = [line.split(",")[0] for line in lines[1:]]
        assert labels == ["baseline", "5-bit all-layers", "baseline", "8-bit all-layers"]
        baseline_row = lines[1].split(",")
        assert float(baseline_row[1]) == 0.0

    def test_quality_column_and_warning(self, reports, capsys):
        rc = main(
            ["compare", str(reports[1]), "--quality", "8-bit all-layers=33.3"]
        )
        assert rc == 0
        captured = capsys.readouterr()
        rows = captured.out.splitlines()
        assert rows[2].endswith(",33.3")
        assert "warning: no quality value for 'baseline'" in captured.err

    def test_out_file(self, reports, tmp_path, capsys):
        target = tmp_path / "tradeoff.csv"
        assert main(["compare", str(reports[0]), "--out", str(target)]) == 0
        capsys.readouterr()
        assert target.read_text().startswith("configuration,")

    def test_out_file_holds_the_stdout_bytes(self, reports, tmp_path, capsys):
        target = tmp_path / "tradeoff.csv"
        assert main(["compare", *map(str, reports)]) == 0
        printed = capsys.readouterr().out
        assert main(["compare", *map(str, reports), "--out", str(target)]) == 0
        assert capsys.readouterr().out == ""
        assert target.read_bytes() == printed.encode()

    def test_out_to_a_device(self, reports, capsys):
        assert main(["compare", str(reports[0]), "--out", os.devnull]) == 0
        assert capsys.readouterr() == ("", "")

    def test_out_file_keeps_its_mode(self, reports, tmp_path, capsys):
        target = tmp_path / "tradeoff.csv"
        target.write_text("old\n")
        os.chmod(target, 0o640)
        assert main(["compare", str(reports[0]), "--out", str(target)]) == 0
        assert target.read_text().startswith("configuration,")
        assert target.stat().st_mode & 0o777 == 0o640
        assert [p.name for p in tmp_path.iterdir() if p.name.startswith(".")] == []

    def test_bad_quality_syntax(self, reports, capsys):
        rc = main(["compare", str(reports[0]), "--quality", "nolabel"])
        assert rc == 1
        assert "LABEL=VALUE" in capsys.readouterr().err

    def test_rejects_unknown_schema(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.json"
        bogus.write_text(json.dumps({"schema_version": 99, "reports": []}))
        assert main(["compare", str(bogus)]) == 1
        assert "schema_version" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, reason",
        [
            pytest.param("[1, 2]", "expected a JSON object, got list", id="list"),
            pytest.param('{"schema_version": 1}', "expected a list of reports",
                         id="no-reports"),
            pytest.param('{"schema_version": 1, "reports": {}}',
                         "expected a list of reports", id="reports-object"),
            pytest.param('{"schema_version": 1, "reports": [[]]}', "report 0 needs",
                         id="report-list"),
            pytest.param('{"schema_version": 1, "reports": [{"label": "a"}]}',
                         "report 0 needs", id="no-relative-pct"),
            *(
                pytest.param(
                    '{"schema_version": 1, "reports": [{"label": %s, "relative_pct": '
                    '{"overall_energy": %s}}]}' % (label, energy),
                    "report 0 needs", id=name,
                )
                for name, label, energy in [
                    ("string-energy", '"a"', '"5"'),
                    ("bool-energy", '"a"', "true"),
                    ("nan-energy", '"a"', "NaN"),
                    ("huge-energy", '"a"', "1" + "0" * 400),
                    ("list-label", '["a"]', "5"),
                ]
            ),
            pytest.param('{"schema_version": 1, "reports": [', "not a JSON report",
                         id="truncated"),
            pytest.param("\udcff", "not a JSON report", id="not-utf8"),
        ],
    )
    def test_malformed_report_is_one_error_line(self, tmp_path, capsys, text, reason):
        bad = tmp_path / "bad.json"
        bad.write_bytes(text.encode("utf-8", "surrogateescape"))
        assert main(["compare", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"convwatt: error: {bad}: ")
        assert reason in err
        assert err.count("\n") == 1

    def test_integer_energy_is_accepted(self, tmp_path, capsys):
        report = tmp_path / "int.json"
        report.write_text(json.dumps({
            "schema_version": 1,
            "reports": [{"label": "a", "relative_pct": {"overall_energy": 40}}],
        }))
        assert main(["compare", str(report)]) == 0
        assert capsys.readouterr().out.splitlines()[1] == "a,60.000,"


# Fragments that keep mutated reports close to JSON, so mutants reach the
# report checks rather than all failing in the decoder.
JSON_FRAGMENTS = st.sampled_from([
    b"{", b"}", b"[", b"]", b",", b":", b'"', b"0", b"1", b"-", b".", b"e9",
    b"1e999", b"NaN", b"-Infinity", b"true", b"null", b'""', b"[]", b"{}",
    b'"5"', b'"label"', b'"reports"', b'"relative_pct"', b'"overall_energy"',
    b'"schema_version"',
])


@pytest.fixture(scope="module")
def report_bytes(tmp_path_factory) -> bytes:
    root = tmp_path_factory.mktemp("report")
    cfg, report = root / "toy.cfg", root / "report.json"
    cfg.write_text(TOY_CFG)
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("SOURCE_DATE_EPOCH", "1700000000")
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["analyze", str(cfg), "--bits", "5", "--json", str(report)]) == 0
    return report.read_bytes()


class TestCompareFuzz:
    @settings(max_examples=300)
    @given(data=st.data())
    def test_mutated_report_exits_cleanly(self, data, report_bytes, tmp_path_factory):
        blob = report_bytes
        at = data.draw(st.integers(0, len(blob)), label="at")
        cut = data.draw(st.integers(0, 12), label="cut")
        insert = b"".join(data.draw(
            st.lists(st.one_of(JSON_FRAGMENTS, st.binary(max_size=3)), max_size=6),
            label="insert",
        ))
        path = tmp_path_factory.getbasetemp() / "mutant.json"
        path.write_bytes(blob[:at] + insert + blob[at + cut:])
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(["compare", str(path)])
        if rc == 0:
            assert err.getvalue() == ""
            assert out.getvalue().startswith("configuration,energy_reduction_pct,quality\n")
        else:
            assert rc == 1
            assert err.getvalue().startswith(f"convwatt: error: {path}: ")
            assert err.getvalue().count("\n") == 1


class TestParser:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("convwatt ")

    def test_requires_a_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_rejects_unknown_choice(self, cfg_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", str(cfg_path), "--scope", "everything"])
        assert exc.value.code == 2

    def test_parser_is_built_once(self):
        assert cli._parser() is cli._parser()

    def test_a_handler_swapped_in_later_runs(self, tmp_path, monkeypatch, capsys):
        # the parser is built by the first call; the handler is looked up
        # in the module at each call, as a tracer swaps it
        report = tmp_path / "missing.json"
        assert main(["compare", str(report)]) == 1
        capsys.readouterr()
        calls = []
        monkeypatch.setattr(cli, "cmd_compare", lambda args: calls.append(args.reports) or 0)
        assert main(["compare", str(report)]) == 0
        assert calls == [[str(report)]]


# parses, but layer 2 adds a 4x4 map to an 8x8 one
UNSHAPEABLE_CFG = """
[net]
width=8
height=8
channels=1

[convolutional]
filters=2
size=3
stride=1
pad=1

[convolutional]
filters=2
size=3
stride=2
pad=1

[shortcut]
from=-2
"""


# One 1x1 conv over a 313-digit-wide input: it parses, and every count of
# its traffic would be too large for a float.
OVERSIZED_CFG = f"""[net]
width={"9" * 313}
height=1
channels=1

[convolutional]
filters=1
size=1
stride=1
"""


# a [net] extent of 0, then a conv of 0 filters in layer 1: each range error
# names where it comes from
EMPTY_INPUT_CFG = "[net]\nwidth=0\nheight=4\nchannels=3\n[convolutional]\nfilters=1\n"
NO_FILTERS_CFG = (
    "[net]\nwidth=4\nheight=4\nchannels=3\n"
    "[convolutional]\nfilters=2\n[convolutional]\nfilters=0\n"
)


class TestUnshapeableConfig:
    @pytest.mark.parametrize(
        "text, message",
        [
            (UNSHAPEABLE_CFG,
             "layer 2: shortcut operands differ, 4x4x2 vs 8x8x2 from layer 0"),
            (OVERSIZED_CFG,
             "the [net] input holds more than 2**53 elements"),
            (EMPTY_INPUT_CFG,
             "[net]: tensor dimensions must be >= 1, got 4x0x3"),
            (NO_FILTERS_CFG,
             "layer 1 [convolutional]: filters must be >= 1, got 0"),
        ],
        ids=["unshapeable", "oversized", "empty-input", "no-filters"],
    )
    @pytest.mark.parametrize("command", ["analyze", "cluster", "verify"])
    def test_one_error_line(
        self, cfg_path, weights_path, tmp_path, capsys, command, text, message
    ):
        model = run_cluster(cfg_path, weights_path, tmp_path)
        capsys.readouterr()
        bad = tmp_path / "bad.cfg"
        bad.write_text(text)
        argv = {
            "analyze": ["analyze", str(bad)],
            "cluster": ["cluster", str(bad), str(weights_path), "--bits", "5",
                        "--out", str(tmp_path / "out.cwts")],
            "verify": ["verify", str(bad), str(weights_path), str(model)],
        }[command]
        assert main(argv) == 1
        assert capsys.readouterr() == ("", f"convwatt: error: {message}\n")


# 2**25 x 2**25 = 2**50 input elements, under MAX_COUNT, and one 1x1 conv of
# a single weight
UNALLOCATABLE_CFG = """[net]
width=33554432
height=33554432
channels=1

[convolutional]
filters=1
size=1
stride=1
activation=linear
"""

# an extent of [net] or of the conv: small, near 2**53 and the limits of the
# counts, or hundreds of digits long
EXTENT = st.one_of(
    st.integers(-1, 4), st.integers(2**20, 2**64), st.integers(1, 10**400)
)


@pytest.fixture(scope="module")
def one_weight(tmp_path_factory):
    """A 16-byte header and two floats: the bias and kernel of one 1x1 conv
    from one channel to one filter."""
    path = tmp_path_factory.mktemp("one-weight") / "one.weights"
    conv = ConvParams(0, np.full(1, 0.5), np.full(1, 0.25))
    path.write_bytes(write_darknet_weights(DarknetWeights(0, 1, 0, 0, (conv,))))
    assert path.stat().st_size == 24
    return path


class TestExtremeSizes:
    def test_unallocatable_input_is_one_error_line(self, tmp_path, one_weight):
        cfg, model = tmp_path / "huge.cfg", tmp_path / "huge.cwts"
        cfg.write_text(UNALLOCATABLE_CFG)
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["analyze", str(cfg)]) == 0
            assert main(["cluster", str(cfg), str(one_weight), "--bits", "1",
                         "--out", str(model)]) == 0
        # verify's input tensor would take 8 PiB; under a 1 GiB address-space
        # cap its allocation fails at once, whatever the host's overcommit
        src = os.path.dirname(os.path.dirname(cli.__file__))
        code = (
            "import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "from convwatt.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code, "verify", str(cfg), str(one_weight), str(model)],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1"),
        )
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.startswith("convwatt: error: ")
        assert proc.stderr.count("\n") == 1, proc.stderr
        assert proc.stdout == ""

    @settings(max_examples=100)
    @given(width=EXTENT, height=EXTENT, channels=EXTENT, filters=EXTENT)
    def test_every_command_exits_cleanly(
        self, tmp_path_factory, one_weight, width, height, channels, filters
    ):
        # the checks run on integers: nothing large is allocated. Only a conv
        # of one channel and one filter takes one_weight, and verify reads an
        # empty model next, so it never makes an activation
        root = one_weight.parent
        cfg, model = root / "extreme.cfg", root / "empty.cwts"
        cfg.write_text(
            f"[net]\nwidth={width}\nheight={height}\nchannels={channels}\n\n"
            f"[convolutional]\nfilters={filters}\nsize=1\nstride=1\n"
        )
        model.write_bytes(b"")
        for argv in (
            ["analyze", str(cfg), "--bits", "5"],
            ["cluster", str(cfg), str(one_weight), "--bits", "1",
             "--out", str(root / "out.cwts")],
            ["verify", str(cfg), str(one_weight), str(model)],
        ):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main(argv)
            if rc == 0:
                assert argv[0] != "verify" and err.getvalue() == ""
            else:
                assert rc == 1
                assert err.getvalue().startswith("convwatt: error: ")
                assert err.getvalue().count("\n") == 1


class TestBrokenPipe:
    def test_closed_stdout_exits_quietly(self):
        # the reader is gone before the first write, so every write fails
        cfg = resources.files("convwatt").joinpath("data/yolov3.cfg")
        src = os.path.dirname(os.path.dirname(cli.__file__))
        proc = subprocess.Popen(
            [sys.executable, "-m", "convwatt.cli", "analyze", str(cfg), "--bits", "5"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=src),
        )
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(timeout=60), err) == (1, b"")

"""End-to-end command-line behavior, including output determinism."""

import hashlib
import json

import numpy as np
import pytest

from convwatt import cli
from convwatt.cli import main
from convwatt.cluster import read_clustered

from conftest import TOY_CFG


@pytest.fixture(autouse=True)
def fixed_epoch(monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    monkeypatch.delenv("CONVWATT_ENERGY_CONFIG", raising=False)


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

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path / "absent.cfg")]) == 1
        assert "convwatt: error:" in capsys.readouterr().err

    def test_malformed_config_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[convolutional]\nfilters=8\n")
        assert main(["analyze", str(bad)]) == 1
        assert "convwatt: error:" in capsys.readouterr().err


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

    def test_rejects_wrong_weights(self, cfg_path, weights_path, tmp_path, capsys):
        truncated = tmp_path / "short.weights"
        truncated.write_bytes(weights_path.read_bytes()[:-10])
        rc = main(
            ["cluster", str(cfg_path), str(truncated), "--bits", "5",
             "--out", str(tmp_path / "x.cwts")]
        )
        assert rc == 1
        assert "truncated" in capsys.readouterr().err


class TestVerify:
    def test_pass_on_good_model(self, cfg_path, weights_path, tmp_path, capsys):
        out = run_cluster(cfg_path, weights_path, tmp_path)
        rc = main(["verify", str(cfg_path), str(weights_path), str(out)])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "PASS" in stdout
        assert "bitwise equal" in stdout
        assert "final-layer MSE:" in stdout
        assert "quantization SSE:" in stdout

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


def patch_outputs(monkeypatch, change):
    """Make cli.run_network pass each run's outputs through
    change(outputs, on_the_fly) after the real run."""
    real = cli.run_network

    def fake(net, weights, x, clustered=None, on_the_fly=False):
        outputs = real(net, weights, x, clustered=clustered, on_the_fly=on_the_fly)
        change(outputs, on_the_fly)
        return outputs

    monkeypatch.setattr(cli, "run_network", fake)


class TestVerifyVerdict:
    def test_one_ulp_names_first_differing_layer(
        self, cfg_path, weights_path, tmp_path, capsys, monkeypatch
    ):
        out = run_cluster(cfg_path, weights_path, tmp_path)
        deltas = []

        def one_ulp(outputs, on_the_fly):
            if on_the_fly:
                layer = outputs[3].copy()
                old = layer.flat[0]
                layer.flat[0] = np.nextafter(old, np.float32(np.inf))
                deltas.append(float(layer.flat[0]) - float(old))
                outputs[3] = layer

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

        def signed_zero(outputs, on_the_fly):
            layer = outputs[1].copy()
            layer.flat[0] = np.float32(-0.0 if on_the_fly else 0.0)
            outputs[1] = layer

        patch_outputs(monkeypatch, signed_zero)
        rc = main(["verify", str(cfg_path), str(weights_path), str(out)])
        assert rc == 1
        stdout = capsys.readouterr().out
        assert "FAIL" in stdout
        assert "first differing layer: 1 (convolutional), max |delta| 0" in stdout


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

    def test_bad_quality_syntax(self, reports, capsys):
        rc = main(["compare", str(reports[0]), "--quality", "nolabel"])
        assert rc == 1
        assert "LABEL=VALUE" in capsys.readouterr().err

    def test_rejects_unknown_schema(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.json"
        bogus.write_text(json.dumps({"schema_version": 99, "reports": []}))
        assert main(["compare", str(bogus)]) == 1
        assert "schema_version" in capsys.readouterr().err


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

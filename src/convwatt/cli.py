"""Command-line front end: analyze, cluster, verify, compare.

Every run embeds a manifest (tool version, input hashes, options, seed,
timestamp) in its outputs, and all outputs are byte-deterministic for
identical inputs: the timestamp comes from SOURCE_DATE_EPOCH when set, else
from the newest input file's mtime, never from the wall clock.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import sys
from dataclasses import replace as dc_replace
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .cluster import (
    ClusterConfig,
    ClusteredModel,
    ClusterFormatError,
    DarknetWeights,
    WeightsFormatError,
    cluster_model,
    dequantize,
    fold_batch_norm,
    model_sse,
    read_clustered,
    read_darknet_weights,
    write_clustered,
)
from .energy import (
    ClusteringChoice,
    EnergyConfigError,
    clustered_size_bits,
    frame_energy,
    load_energy_config,
    size_reduction_factor,
    sram_table_bytes,
)
from .engine import run_network
from .netdef import CONVOLUTIONAL, ConfigError, ShapeError, infer_shapes, parse_config
from .traffic import (
    READ_BUCKETS,
    ROW_CONVENTIONS,
    UnsupportedLayerError,
    aggregate,
    op_profile,
)

SCHEMA_VERSION = 1

CSV_COLUMNS = (
    "configuration",
    "bandwidth_gbps",
    "fps",
    "relative_memory_energy_pct",
    "relative_overall_energy_pct",
)


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _timestamp(paths) -> str:
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    if epoch is not None:
        stamp = int(epoch)
    else:
        stamp = max((int(os.path.getmtime(p)) for p in paths), default=0)
    return datetime.fromtimestamp(stamp, tz=timezone.utc).isoformat()


def _manifest(command: str, inputs, options: dict, seed=None) -> dict:
    return {
        "tool": "convwatt",
        "version": __version__,
        "command": command,
        "inputs": {os.path.basename(p): _sha256(p) for p in inputs},
        "options": options,
        "seed": seed,
        "timestamp": _timestamp(inputs),
    }


def _write_json(path: str, payload: dict):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, sort_keys=True, indent=2)
        handle.write("\n")


def _csv_text(manifest: dict, rows) -> str:
    out = io.StringIO()
    out.write(f"# manifest: {json.dumps(manifest, sort_keys=True)}\n")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow(
            [
                row["configuration"],
                f"{row['bandwidth_gbps']:.6g}",
                f"{row['fps']:.6g}",
                f"{row['relative_memory_energy_pct']:.6g}",
                f"{row['relative_overall_energy_pct']:.6g}",
            ]
        )
    return out.getvalue()


def _load_network(path: str):
    with open(path, encoding="utf-8") as handle:
        return infer_shapes(parse_config(handle.read()))


def _kernel_params(net) -> int:
    total = 0
    for layer in net.layers:
        if layer.kind == CONVOLUTIONAL:
            spec = layer.conv
            total += spec.filters * layer.in_shape.c * spec.kernel * spec.kernel
    return total


def _opt_value(text: str) -> str:
    """argparse choices use dashes; module constants use underscores."""
    return text.replace("-", "_")


def cmd_analyze(args) -> int:
    net = _load_network(args.config)
    config = load_energy_config(args.energy_config)
    _, total = aggregate(
        net,
        row_convention=_opt_value(args.row_convention),
        read_bucket=args.read_bucket,
        generalized=args.generalized,
    )
    ops = op_profile(net)
    n_convs = sum(1 for layer in net.layers if layer.kind == CONVOLUTIONAL)
    n_weights = _kernel_params(net)
    scope = _opt_value(args.scope)

    baseline = frame_energy(total, ops, config)
    reports = [baseline]
    for bits in args.bits or ():
        tables = 1 if scope == "all_layers" else n_convs
        reports.append(
            frame_energy(
                total,
                ops,
                config,
                ClusteringChoice(bits, tables),
                baseline=baseline,
                label=f"{bits}-bit {args.scope}",
            )
        )

    rows = []
    for report in reports:
        rows.append(
            {
                "configuration": report.label,
                "bandwidth_gbps": report.bandwidth_gbps,
                "fps": config.target_fps if report is baseline else report.max_fps,
                "relative_memory_energy_pct": report.relative_memory_energy_pct,
                "relative_overall_energy_pct": report.relative_overall_energy_pct,
            }
        )

    split = baseline.access_split_pct
    dram_share = 100.0 * baseline.dram_energy_mj / baseline.total_energy_mj
    print(f"network: {os.path.basename(args.config)}  "
          f"({len(net.layers)} layers, {n_convs} conv, {n_weights} kernel weights)")
    print(f"element access split: weights {split['weights']:.1f}%  "
          f"inputs {split['inputs']:.1f}%  outputs {split['outputs']:.1f}%")
    print(f"baseline energy: {baseline.total_energy_mj:.1f} mJ/frame  "
          f"(DRAM {dram_share:.1f}%, arithmetic {100 - dram_share:.1f}%)")
    print()
    header = f"{'configuration':<22} {'GB/s':>8} {'FPS':>7} {'mem %':>7} {'total %':>8}"
    print(header)
    print("-" * len(header))
    for row in rows:
        print(
            f"{row['configuration']:<22} {row['bandwidth_gbps']:>8.1f} "
            f"{row['fps']:>7.1f} {row['relative_memory_energy_pct']:>7.1f} "
            f"{row['relative_overall_energy_pct']:>8.1f}"
        )
    size_notes = []
    for report in reports[1:]:
        bits = report.weight_bits
        aligned = size_reduction_factor(n_weights, bits)
        tight = size_reduction_factor(
            n_weights, bits, report.table_read_elements, word_aligned=False
        )
        stored = clustered_size_bits(n_weights, bits, report.table_read_elements)
        size_notes.append(
            {
                "configuration": report.label,
                "bits": bits,
                "word_aligned_factor": aligned,
                "tight_factor": tight,
                "stored_bits_tight": stored,
                "sram_table_bytes": sram_table_bytes(bits),
            }
        )
    if size_notes:
        print()
        for note in size_notes:
            print(
                f"{note['configuration']}: size reduction {note['word_aligned_factor']:.0f}x "
                f"word-aligned, {note['tight_factor']:.2f}x tight "
                f"({note['stored_bits_tight']} bits incl. tables); "
                f"SRAM table {note['sram_table_bytes']} B"
            )

    manifest = _manifest(
        "analyze",
        [args.config] + ([args.energy_config] if args.energy_config else []),
        {
            "bits": list(args.bits or ()),
            "scope": scope,
            "row_convention": _opt_value(args.row_convention),
            "read_bucket": args.read_bucket,
            "generalized": args.generalized,
        },
    )
    if args.json:
        _write_json(
            args.json,
            {
                "schema_version": SCHEMA_VERSION,
                "manifest": manifest,
                "reports": [r.to_dict() for r in reports],
                "rows": rows,
                "size_reduction": size_notes,
            },
        )
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as handle:
            handle.write(_csv_text(manifest, rows))
    return 0


def cmd_cluster(args) -> int:
    net = _load_network(args.config)
    with open(args.weights, "rb") as handle:
        weights = read_darknet_weights(handle.read(), net)
    folded = fold_batch_norm(weights)
    cfg = ClusterConfig(
        scope=_opt_value(args.scope),
        bits=args.bits,
        max_iters=args.max_iters,
        tol=args.tol,
        seed=args.seed,
        init=_opt_value(args.init),
    )
    model = cluster_model(folded, cfg)
    payload = write_clustered(model)
    with open(args.out, "wb") as handle:
        handle.write(payload)

    sses = model_sse(model, folded)
    n_weights = model.total_count
    stored = clustered_size_bits(n_weights, cfg.bits, sum(e.table.k for e in model.entries))
    table_stats = []
    for entry, sse in zip(model.entries, sses):
        name = "global" if entry.layer_id is None else f"layer {entry.layer_id}"
        lossless = sse == 0.0
        table_stats.append(
            {
                "table": name,
                "k": entry.table.k,
                "count": entry.packed.count,
                "sse": sse,
                "lossless": lossless,
            }
        )
        flag = "  (lossless)" if lossless else ""
        print(f"{name}: {entry.packed.count} weights, K={entry.table.k}, "
              f"SSE={sse:.6g}{flag}")
    print(f"wrote {args.out}: {len(payload)} bytes, "
          f"{size_reduction_factor(n_weights, cfg.bits):.0f}x word-aligned reduction, "
          f"{32 * n_weights / stored:.2f}x tight")
    if args.json:
        manifest = _manifest(
            "cluster",
            [args.config, args.weights],
            {
                "bits": cfg.bits,
                "scope": cfg.scope,
                "init": cfg.init,
                "max_iters": cfg.max_iters,
                "tol": cfg.tol,
                "out": os.path.basename(args.out),
            },
            seed=cfg.seed,
        )
        _write_json(
            args.json,
            {
                "schema_version": SCHEMA_VERSION,
                "manifest": manifest,
                "tables": table_stats,
                "total_sse": sum(sses),
                "file_bytes": len(payload),
            },
        )
    return 0


def _dequantized_weights(model: ClusteredModel, folded: DarknetWeights) -> DarknetWeights:
    """Folded weights with kernels replaced by their codebook reconstruction."""
    if model.scope == "all_layers":
        entry = model.entries[0]
        stream = dequantize(entry.table, entry.packed)
        convs = []
        base = 0
        for conv in folded.convs:
            n = conv.n_weights
            convs.append(dc_replace(conv, kernel=stream[base : base + n].copy()))
            base += n
    else:
        by_layer = {e.layer_id: e for e in model.entries}
        convs = []
        for conv in folded.convs:
            entry = by_layer[conv.layer_index]
            convs.append(
                dc_replace(conv, kernel=dequantize(entry.table, entry.packed))
            )
    return dc_replace(folded, convs=tuple(convs))


def _bitwise_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """Same dtype, shape and raw bits, so -0.0 differs from +0.0 and a NaN
    matches only the identical NaN."""
    if a.dtype != b.dtype or a.shape != b.shape:
        return False
    raw = np.dtype(f"u{a.itemsize}")
    return np.array_equal(a.view(raw), b.view(raw))


def _first_difference(reference, *variants):
    """(layer index, max |delta|) of the first layer where a variant's output
    is not bitwise equal to reference's, or None if every layer matches.

    The delta is taken over the differing variants in float64; it is nan
    when their shapes disagree and 0 when only signs of zero differ.
    """
    for index, (want, *got) in enumerate(zip(reference, *variants)):
        differing = [g for g in got if not _bitwise_equal(want, g)]
        if differing:
            delta = max(
                float(np.max(np.abs(g.astype(np.float64) - want.astype(np.float64))))
                if g.shape == want.shape else math.nan
                for g in differing
            )
            return index, delta
    return None


def cmd_verify(args) -> int:
    net = _load_network(args.config)
    with open(args.weights, "rb") as handle:
        weights = read_darknet_weights(handle.read(), net)
    with open(args.model, "rb") as handle:
        model = read_clustered(handle.read())
    folded = fold_batch_norm(weights)

    rng = np.random.default_rng(args.seed)
    x = rng.standard_normal((net.input.c, net.input.h, net.input.w)).astype(np.float32)

    original = run_network(net, folded, x)
    dequantized = run_network(net, _dequantized_weights(model, folded), x)
    indirect = run_network(net, folded, x, clustered=model)
    on_the_fly = run_network(net, folded, x, clustered=model, on_the_fly=True)

    first = _first_difference(dequantized, indirect, on_the_fly)
    equivalent = first is None
    mse = float(
        np.mean(
            (original[-1].astype(np.float64) - indirect[-1].astype(np.float64)) ** 2
        )
    )
    total_sse = sum(model_sse(model, folded))
    status = "PASS" if equivalent else "FAIL"
    print(f"indirect-vs-dequantized execution: {status} "
          f"({'bitwise equal' if equivalent else 'outputs differ'})")
    if not equivalent:
        index, delta = first
        print(f"first differing layer: {index} ({net.layers[index].kind}), "
              f"max |delta| {delta:.6g}")
    print(f"clustered-vs-original final-layer MSE: {mse:.6g}")
    print(f"weight quantization SSE: {total_sse:.6g}"
          + ("  (lossless)" if total_sse == 0.0 else ""))
    return 0 if equivalent else 1


def cmd_compare(args) -> int:
    quality = {}
    for item in args.quality or ():
        label, _, value = item.partition("=")
        if not _:
            raise ValueError(f"--quality expects LABEL=VALUE, got {item!r}")
        quality[label] = value
    rows = []
    for path in args.reports:
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
        if payload.get("schema_version") != SCHEMA_VERSION:
            raise ValueError(
                f"{path}: expected schema_version {SCHEMA_VERSION}, "
                f"got {payload.get('schema_version')!r}"
            )
        for report in payload["reports"]:
            label = report["label"]
            reduction = 100.0 - report["relative_pct"]["overall_energy"]
            if label in quality:
                value = quality[label]
            else:
                value = ""
                if quality:
                    print(f"warning: no quality value for {label!r}", file=sys.stderr)
            rows.append((label, reduction, value))
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(("configuration", "energy_reduction_pct", "quality"))
    for label, reduction, value in rows:
        writer.writerow((label, f"{reduction:.3f}", value))
    text = out.getvalue()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        print(text, end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="convwatt",
        description="Analytical energy/bandwidth model and weight clustering "
        "for convolutional networks on an output-stationary accelerator.",
    )
    parser.add_argument("--version", action="version", version=f"convwatt {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="traffic, bandwidth and energy report")
    analyze.add_argument("config", help="network .cfg file")
    analyze.add_argument("--energy-config", help="energy configuration file")
    analyze.add_argument(
        "--bits", action="append", type=int, metavar="N",
        help="add a clustered configuration with N-bit indexes (repeatable)",
    )
    analyze.add_argument(
        "--scope", choices=("all-layers", "per-layer"), default="all-layers",
        help="codebook scope for clustered configurations",
    )
    analyze.add_argument(
        "--row-convention", choices=[c.replace("_", "-") for c in ROW_CONVENTIONS],
        default="output-rows", help="weight re-stream row counting convention",
    )
    analyze.add_argument(
        "--read-bucket", choices=READ_BUCKETS, default="inputs",
        help="reporting bucket for non-conv feature-map re-reads",
    )
    analyze.add_argument(
        "--generalized", action="store_true",
        help="allow kernel/stride pairs outside the modeled set",
    )
    analyze.add_argument("--json", help="write full JSON report here")
    analyze.add_argument("--csv", help="write summary CSV here")
    analyze.set_defaults(func=cmd_analyze)

    cluster = sub.add_parser("cluster", help="quantize weights into a codebook model")
    cluster.add_argument("config", help="network .cfg file")
    cluster.add_argument("weights", help="Darknet .weights file")
    cluster.add_argument("--bits", type=int, required=True, help="index width (1..8)")
    cluster.add_argument(
        "--scope", choices=("all-layers", "per-layer"), default="all-layers"
    )
    cluster.add_argument("--seed", type=int, default=0)
    cluster.add_argument(
        "--init", choices=("linspace", "kmeans-pp"), default="linspace"
    )
    cluster.add_argument("--max-iters", type=int, default=300)
    cluster.add_argument("--tol", type=float, default=1e-6)
    cluster.add_argument("--out", required=True, help="output .cwts path")
    cluster.add_argument("--json", help="write clustering stats JSON here")
    cluster.set_defaults(func=cmd_cluster)

    verify = sub.add_parser(
        "verify", help="check clustered execution against the original weights"
    )
    verify.add_argument("config", help="network .cfg file")
    verify.add_argument("weights", help="Darknet .weights file")
    verify.add_argument("model", help="clustered .cwts file")
    verify.add_argument("--seed", type=int, default=0, help="input tensor seed")
    verify.set_defaults(func=cmd_verify)

    compare = sub.add_parser(
        "compare", help="join analyze reports into a tradeoff CSV"
    )
    compare.add_argument("reports", nargs="+", help="analyze JSON reports")
    compare.add_argument(
        "--quality", action="append", metavar="LABEL=VALUE",
        help="quality metric for a configuration row (repeatable)",
    )
    compare.add_argument("--out", help="output CSV path (default stdout)")
    compare.set_defaults(func=cmd_compare)
    return parser


_EXPECTED_ERRORS = (
    ConfigError,
    ShapeError,
    UnsupportedLayerError,
    EnergyConfigError,
    WeightsFormatError,
    ClusterFormatError,
    ValueError,
    OSError,
)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _EXPECTED_ERRORS as exc:
        print(f"convwatt: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end: analyze, cluster, verify, compare.

Every run embeds a manifest (tool version, input hashes, options, seed,
timestamp) in its outputs, and all outputs are byte-deterministic for
identical inputs: the timestamp comes from SOURCE_DATE_EPOCH when set, else
from the newest input file's mtime, never from the wall clock.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import errno
import functools
import hashlib
import io
import json
import math
import os
import stat
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .cluster import (
    INITS,
    SCOPE_ALL_LAYERS,
    SCOPES,
    ClusterConfig,
    cluster_model,
    dequantize,
    fold_batch_norm,
    indexes_per_word,
    model_sse,
    read_clustered,
    read_darknet_weights,
    write_clustered,
)
from .energy import (
    ClusteringChoice,
    clustered_size_bits,
    frame_energy,
    load_energy_config,
    size_reduction_factor,
    sram_table_bytes,
)
from .engine import run_network
from .netdef import CONVOLUTIONAL, parse_config
from .traffic import (
    READ_BUCKETS,
    ROW_CONVENTIONS,
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
    if epoch is None:
        stamp = max((int(os.path.getmtime(p)) for p in paths), default=0)
        return datetime.fromtimestamp(stamp, tz=timezone.utc).isoformat()
    try:
        return datetime.fromtimestamp(int(epoch), tz=timezone.utc).isoformat()
    except (ValueError, OverflowError, OSError) as exc:
        raise ValueError(f"SOURCE_DATE_EPOCH={epoch!r} is not a usable timestamp: {exc}") from exc


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


def _json_bytes(payload: dict) -> bytes:
    return (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode("utf-8")


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


def _file_key(path: str):
    """What identifies the file at path: its device and inode when it
    exists, so that links to one file agree, else its resolved path. None
    for a device or pipe, which a write cannot overwrite."""
    try:
        st = os.stat(path)
    except OSError:
        return os.path.realpath(path)
    return (st.st_dev, st.st_ino) if stat.S_ISREG(st.st_mode) else None


def _check_outputs(inputs, outputs) -> None:
    """Raise ValueError when an output names the same file as an input or
    as another output: writing it would destroy what the command reads or
    has just written. Commands call it before they read anything.

    inputs and outputs are (name, path) pairs for the message; a path of
    None, an option that was not given, is skipped.
    """
    seen = {}
    for role, pairs in (("input", inputs), ("output", outputs)):
        for name, path in pairs:
            if path is None:
                continue
            key = _file_key(path)
            if key is None:
                continue
            if role == "output" and key in seen:
                raise ValueError(f"{name} {path} names the same file as {seen[key]}")
            seen.setdefault(key, f"{name} {path}")


def _temporary_beside(target: str) -> tuple[int, str]:
    """Create a new file in target's directory for writing, as open() does
    (mode 0o666 less the umask); return its descriptor and path."""
    directory, name = os.path.split(target)
    attempt = 0
    while True:
        temp = os.path.join(directory, f".{name}.{os.getpid()}-{attempt}.tmp")
        try:
            return os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666), temp
        except FileExistsError:
            attempt += 1


@contextlib.contextmanager
def _outputs(files):
    """Write a command's output files, all of them or none.

    files holds (path, bytes) pairs. Each file is first written to a
    temporary file beside its target (the target of a symbolic link), which
    takes the target's mode if it exists; a target that exists must be
    writable, and its directory must be. The with-block runs once all of
    them are written, and they are renamed onto their targets when it ends.
    Until then no target is touched: a failure removes every temporary file
    and leaves no output behind. A device or pipe, such as /dev/null,
    cannot be replaced; it is written just before the renames.
    """
    staged, direct = [], []
    try:
        for path, data in files:
            if _file_key(path) is None:
                direct.append((path, data))
                continue
            target = os.path.realpath(path) if os.path.islink(path) else path
            try:
                fd, temp = _temporary_beside(target)
            except OSError as exc:
                raise OSError(exc.errno, exc.strerror, path) from None
            staged.append((temp, target))
            with open(fd, "wb") as handle:
                handle.write(data)
            try:
                mode = stat.S_IMODE(os.stat(target).st_mode)
            except FileNotFoundError:
                continue
            if not os.access(target, os.W_OK):
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)
            os.chmod(temp, mode)
        yield
        for path, data in direct:
            with open(path, "wb") as handle:
                handle.write(data)
        while staged:
            os.replace(*staged[0])
            del staged[0]
    finally:
        for temp, _ in staged:
            with contextlib.suppress(OSError):
                os.remove(temp)


def _seed(text: str) -> int:
    """A --seed value: numpy's generators take only integers >= 0."""
    try:
        seed = int(text)
    except ValueError:
        seed = None
    if seed is None or seed < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return seed


def _load_network(path: str):
    with open(path, encoding="utf-8") as handle:
        return parse_config(handle.read())


def _opt_value(text: str) -> str:
    """argparse choices use dashes; module constants use underscores."""
    return text.replace("-", "_")


def _choices(values) -> list[str]:
    """The argparse spelling of module constants, the inverse of _opt_value."""
    return [value.replace("_", "-") for value in values]


def cmd_analyze(args) -> int:
    _check_outputs(
        [("config", args.config), ("--energy-config", args.energy_config)],
        [("--json", args.json), ("--csv", args.csv)],
    )
    net = _load_network(args.config)
    config = load_energy_config(args.energy_config)
    _, total = aggregate(
        net,
        row_convention=_opt_value(args.row_convention),
        read_bucket=args.read_bucket,
    )
    ops = op_profile(net)
    convs = [layer for layer in net.layers if layer.kind == CONVOLUTIONAL]
    n_convs = len(convs)
    n_weights = sum(math.prod(layer.kernel_shape) for layer in convs)
    scope = _opt_value(args.scope)
    # before any output, so that a failure prints only its error line
    if args.json or args.csv:
        manifest = _manifest(
            "analyze",
            [args.config] + ([args.energy_config] if args.energy_config else []),
            {
                "bits": list(args.bits or ()),
                "scope": scope,
                "row_convention": _opt_value(args.row_convention),
                "read_bucket": args.read_bucket,
            },
        )

    baseline = frame_energy(total, ops, config)
    reports = [baseline]
    for bits in args.bits or ():
        tables = 1 if scope == SCOPE_ALL_LAYERS else n_convs
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

    size_notes = []
    for report in reports[1:]:
        bits = report.weight_bits
        tight = size_reduction_factor(n_weights, bits, report.table_read_elements)
        stored = clustered_size_bits(n_weights, bits, report.table_read_elements)
        size_notes.append(
            {
                "configuration": report.label,
                "bits": bits,
                "word_aligned_factor": float(indexes_per_word(bits)),
                "tight_factor": tight,
                "stored_bits_tight": stored,
                "sram_table_bytes": sram_table_bytes(bits),
            }
        )
    files = []
    if args.json:
        payload = {
            "schema_version": SCHEMA_VERSION,
            "manifest": manifest,
            "reports": [r.to_dict() for r in reports],
            "rows": rows,
            "size_reduction": size_notes,
        }
        files.append((args.json, _json_bytes(payload)))
    if args.csv:
        files.append((args.csv, _csv_text(manifest, rows).encode("utf-8")))
    # the files are staged before the report is printed, and kept only if
    # the whole command succeeds
    with _outputs(files):
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
        if size_notes:
            print()
            for note in size_notes:
                print(
                    f"{note['configuration']}: size reduction {note['word_aligned_factor']:.0f}x "
                    f"word-aligned, {note['tight_factor']:.2f}x tight "
                    f"({note['stored_bits_tight']} bits incl. tables); "
                    f"SRAM table {note['sram_table_bytes']} B"
                )

    return 0


def cmd_cluster(args) -> int:
    _check_outputs(
        [("config", args.config), ("weights", args.weights)],
        [("--out", args.out), ("--json", args.json)],
    )
    net = _load_network(args.config)
    with open(args.weights, "rb") as handle:
        weights = read_darknet_weights(handle.read(), net)
    folded = fold_batch_norm(weights)
    del weights  # the kernels that folding replaced
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
    sses = model_sse(model, folded)
    tables = sum(e.table.k for e in model.entries)
    tight = size_reduction_factor(model.total_count, cfg.bits, tables)
    table_stats = []
    for entry, sse in zip(model.entries, sses):
        table_stats.append(
            {
                "table": "global" if entry.layer_id is None else f"layer {entry.layer_id}",
                "k": entry.table.k,
                "count": entry.packed.count,
                "sse": sse,
                "lossless": sse == 0.0,
            }
        )
    files = [(args.out, payload)]
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
        summary = {
            "schema_version": SCHEMA_VERSION,
            "manifest": manifest,
            "tables": table_stats,
            "total_sse": sum(sses),
            "file_bytes": len(payload),
        }
        files.append((args.json, _json_bytes(summary)))
    with _outputs(files):
        for stats in table_stats:
            flag = "  (lossless)" if stats["lossless"] else ""
            print(f"{stats['table']}: {stats['count']} weights, K={stats['k']}, "
                  f"SSE={stats['sse']:.6g}{flag}")
        print(f"wrote {args.out}: {len(payload)} bytes, "
              f"{indexes_per_word(cfg.bits)}x word-aligned reduction, "
              f"{tight:.2f}x tight")
    return 0


def _difference(want: np.ndarray, *got: np.ndarray) -> float | None:
    """Max |delta|, in float64, between want and the variants in got whose
    raw bits differ from it, or None if none does. So -0.0 differs from
    +0.0, with a delta of 0, and a NaN matches only the identical NaN.
    Every pass yields float32 maps of the shapes that inference gives
    (run_network checks each).
    """
    bits = want.view(np.uint32)
    differing = [g for g in got if not np.array_equal(bits, g.view(np.uint32))]
    if not differing:
        return None
    return max(
        float(np.max(np.abs(g.astype(np.float64) - want.astype(np.float64))))
        for g in differing
    )


def cmd_verify(args) -> int:
    net = _load_network(args.config)
    with open(args.weights, "rb") as handle:
        weights = read_darknet_weights(handle.read(), net)
    with open(args.model, "rb") as handle:
        model = read_clustered(handle.read())
    folded = fold_batch_norm(weights)
    del weights  # the kernels that folding replaced
    # before the dequantized kernels exist, so that they and the SSE's
    # float64 difference are never held at once
    sses = model_sse(model, folded)
    dequantized_weights = dequantize(model, folded)

    rng = np.random.default_rng(args.seed)
    x = rng.standard_normal((net.input.c, net.input.h, net.input.w)).astype(np.float32)
    passes = (
        run_network(net, folded, x),
        run_network(net, dequantized_weights, x),
        run_network(net, folded, x, clustered=model),
        run_network(net, folded, x, clustered=model, on_the_fly=True),
    )
    # The passes run layer by layer in lockstep, so only each one's live set
    # is held. Comparing stops at the first difference; every pass still runs
    # to its end, for the final outputs.
    first = None
    for index, (original, dequantized, indirect, on_the_fly) in enumerate(zip(*passes)):
        if first is None:
            delta = _difference(dequantized, indirect, on_the_fly)
            if delta is not None:
                first = index, delta
    equivalent = first is None
    mse = float(
        np.mean((original.astype(np.float64) - indirect.astype(np.float64)) ** 2)
    )
    total_sse = sum(sses)
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


def _energy_reductions(path: str) -> list[tuple[str, float]]:
    """(label, overall energy reduction %) for each report of an analyze JSON
    file. Any other content is a ValueError that names the file."""
    try:
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"{path}: not a JSON report: {exc}") from exc
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: expected a JSON object, got {type(payload).__name__}")
    if payload.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(
            f"{path}: expected schema_version {SCHEMA_VERSION}, "
            f"got {payload.get('schema_version')!r}"
        )
    reports = payload.get("reports")
    if not isinstance(reports, list):
        raise ValueError(f"{path}: expected a list of reports")
    rows = []
    for index, report in enumerate(reports):
        label = overall = None
        if isinstance(report, dict) and isinstance(report.get("relative_pct"), dict):
            label, overall = report.get("label"), report["relative_pct"].get("overall_energy")
        # type() leaves out bool, an int subclass; the bound leaves out nan,
        # +-inf and integers beyond the float range
        if not (
            isinstance(label, str)
            and type(overall) in (int, float)
            and abs(overall) <= sys.float_info.max
        ):
            raise ValueError(
                f"{path}: report {index} needs a string label and a finite "
                "relative_pct.overall_energy"
            )
        rows.append((label, 100.0 - overall))
    return rows


def cmd_compare(args) -> int:
    _check_outputs([("report", path) for path in args.reports], [("--out", args.out)])
    quality = {}
    for item in args.quality or ():
        label, _, value = item.partition("=")
        if not _:
            raise ValueError(f"--quality expects LABEL=VALUE, got {item!r}")
        quality[label] = value
    rows = []
    for path in args.reports:
        for label, reduction in _energy_reductions(path):
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
        with _outputs([(args.out, text.encode("utf-8"))]):
            pass
    else:
        print(text, end="")
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call: once per process. Each
    command records its handler's name, which main looks up at each call."""
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
        "--scope", choices=_choices(SCOPES), default="all-layers",
        help="codebook scope for clustered configurations",
    )
    analyze.add_argument(
        "--row-convention", choices=_choices(ROW_CONVENTIONS),
        default="output-rows", help="weight re-stream row counting convention",
    )
    analyze.add_argument(
        "--read-bucket", choices=READ_BUCKETS, default="inputs",
        help="reporting bucket for non-conv feature-map re-reads",
    )
    analyze.add_argument("--json", help="write full JSON report here")
    analyze.add_argument("--csv", help="write summary CSV here")
    analyze.set_defaults(handler=cmd_analyze.__name__)

    cluster = sub.add_parser("cluster", help="quantize weights into a codebook model")
    cluster.add_argument("config", help="network .cfg file")
    cluster.add_argument("weights", help="Darknet .weights file")
    cluster.add_argument("--bits", type=int, required=True, help="index width (1..8)")
    cluster.add_argument(
        "--scope", choices=_choices(SCOPES), default="all-layers"
    )
    cluster.add_argument("--seed", type=_seed, default=0)
    cluster.add_argument(
        "--init",
        choices=_choices(INITS),
        default="linspace",
        help="centroid initialization; kmeans-pp costs O(n*k) per table, "
        "about 25x linspace's time on 4 M values at 8 bits, so use linspace "
        "on full-size networks",
    )
    cluster.add_argument("--max-iters", type=int, default=300)
    cluster.add_argument("--tol", type=float, default=1e-6)
    cluster.add_argument("--out", required=True, help="output .cwts path")
    cluster.add_argument("--json", help="write clustering stats JSON here")
    cluster.set_defaults(handler=cmd_cluster.__name__)

    verify = sub.add_parser(
        "verify", help="check clustered execution against the original weights"
    )
    verify.add_argument("config", help="network .cfg file")
    verify.add_argument("weights", help="Darknet .weights file")
    verify.add_argument("model", help="clustered .cwts file")
    verify.add_argument("--seed", type=_seed, default=0, help="input tensor seed")
    verify.set_defaults(handler=cmd_verify.__name__)

    compare = sub.add_parser(
        "compare", help="join analyze reports into a tradeoff CSV"
    )
    compare.add_argument("reports", nargs="+", help="analyze JSON reports")
    compare.add_argument(
        "--quality", action="append", metavar="LABEL=VALUE",
        help="quality metric for a configuration row, such as an mAP measured "
        "by an external evaluation (repeatable)",
    )
    compare.add_argument("--out", help="output CSV path (default stdout)")
    compare.set_defaults(handler=cmd_compare.__name__)
    return parser


# every typed error of the package is a ValueError; MemoryError is an input
# too large for this host
_EXPECTED_ERRORS = (ValueError, OSError, MemoryError)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        # a handler swapped in after the parser was built, as a tracer does, runs
        status = globals()[args.handler](args)
        # a reader that left early shows here, not at interpreter exit
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # Python's SIGPIPE advice: the rest of the output goes nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except _EXPECTED_ERRORS as exc:
        print(f"convwatt: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

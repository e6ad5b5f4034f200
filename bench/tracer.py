"""Span tracer for the convwatt modules, installed from outside ``src/``.

Every public module-level function of the traced modules is wrapped once,
and the wrapper replaces the function on every module attribute that binds
it (``cli`` imports ``run_network``, ``cluster_model`` and friends by name,
``engine`` imports ``unpack_indices``), so calls are seen whichever name
they go through. Spans live in memory as ``[name, start, end, parent,
run_id, tag]`` lists and are written out only when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import json
import types
from time import perf_counter

from convwatt import cli, cluster, energy, engine, netdef, traffic

# detmetrics has no CLI caller, so no workload reaches it; it stays untraced.
TRACED_MODULES = (netdef, traffic, energy, cluster, engine, cli)

NAME, START, END, PARENT, RUN, TAG = range(6)


def _arg(args, kwargs, position, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[position] if len(args) > position else default


def _kmeans_tag(args, kwargs):
    cfg = _arg(args, kwargs, 2, "cfg")
    scope = cfg.scope if cfg is not None else cluster.SCOPE_ALL_LAYERS
    return scope, int(getattr(args[0], "size", 0))


def _gemm_tag(args, kwargs):
    return int(args[0]) * int(args[1]) * int(args[2])


def _conv_tag(args, kwargs):
    return args[0].conv.kernel


def _cmd_cluster_tag(args, kwargs):
    return args[0].scope.replace("-", "_")


def _run_network_tag(args, kwargs):
    if _arg(args, kwargs, 3, "clustered") is None:
        return "plain"
    return "on_the_fly" if _arg(args, kwargs, 4, "on_the_fly", False) else "indirect"


# Per-call details the metrics need beyond the span's name and times.
TAGGERS = {
    "cluster.kmeans_1d": _kmeans_tag,
    "cli.cmd_cluster": _cmd_cluster_tag,
    "engine.gemm_nn": _gemm_tag,
    "engine.gemm_nn_centroids": _gemm_tag,
    "engine.gemm_nn_packed": _gemm_tag,
    "engine.conv_forward": _conv_tag,
    "engine.conv_forward_clustered": _conv_tag,
    "engine.run_network": _run_network_tag,
}


def _short(module) -> str:
    return module.__name__.rsplit(".", 1)[-1]


class Tracer:
    """Context manager that wraps the public functions while active."""

    def __init__(self):
        self.spans: list[list] = []
        self.run_id = 0
        self._stack: list[int] = []
        self._saved: list[tuple[types.ModuleType, str, object]] = []

    def _wrap(self, fn, name: str):
        spans = self.spans
        stack = self._stack
        tagger = TAGGERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tag = tagger(args, kwargs) if tagger else None
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run_id, tag]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()

        return traced

    def __enter__(self):
        owners = {m.__name__: _short(m) for m in TRACED_MODULES}
        wrappers = {}
        for module in TRACED_MODULES:
            for attr, value in list(vars(module).items()):
                if not isinstance(value, types.FunctionType):
                    continue
                owner = owners.get(value.__module__)
                if owner is None or value.__name__.startswith("_"):
                    continue
                if id(value) not in wrappers:
                    wrappers[id(value)] = self._wrap(value, f"{owner}.{value.__name__}")
                self._saved.append((module, attr, value))
                setattr(module, attr, wrappers[id(value)])
        return self

    def __exit__(self, *exc):
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()
        return False

    def write(self, path: str):
        """Write every span as one JSON line, gzip-compressed."""
        fields = ("name", "start", "end", "parent", "run", "tag")
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                record = dict(zip(fields, span))
                record["id"] = index
                handle.write(json.dumps(record) + "\n")


# Span names whose call count normalizes the metrics of each command.
COMMANDS = ("cli.cmd_analyze", "cli.cmd_cluster", "cli.cmd_verify")


def _rate(work: float, seconds: float) -> float:
    return work / seconds / 1e6 if seconds > 0 else 0.0


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer metrics from spans, each per call of the traced command.

    The keys are the per-layer metrics of ``BENCHMARK.json`` but the two
    ``trace.overhead`` ones, which need untraced times too.

    Times are inclusive span durations unless named ``self``, which
    subtracts the time covered by direct child spans. The command is
    whichever of ``cmd_analyze``/``cmd_cluster``/``cmd_verify`` ran. Compare
    calls, and k-means of each scope, are normalized by their own command
    count. Layers that did not run read 0.
    """
    child = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child[span[PARENT]] += span[END] - span[START]

    total: dict[str, float] = {}
    own: dict[str, float] = {}
    calls: dict[str, int] = {}
    by_tag: dict[tuple, float] = {}
    tag_calls: dict[tuple, int] = {}
    work: dict[tuple, float] = {}
    plain_seen: dict[int, int] = {}
    for index, span in enumerate(spans):
        name, tag = span[NAME], span[TAG]
        dur = span[END] - span[START]
        total[name] = total.get(name, 0.0) + dur
        own[name] = own.get(name, 0.0) + dur - child[index]
        calls[name] = calls.get(name, 0) + 1
        if tag is None:
            continue
        if name == "cluster.kmeans_1d":
            scope, values = tag
            key = (name, scope)
            work[key] = work.get(key, 0) + values
        elif name == "engine.run_network" and tag == "plain":
            # cmd_verify runs the plain pass twice: original, then dequantized
            order = plain_seen.get(span[PARENT], 0)
            plain_seen[span[PARENT]] = order + 1
            key = (name, "original" if order == 0 else "dequantized")
        elif name.startswith("engine.gemm_nn"):
            key = (name, None)
            work[key] = work.get(key, 0) + tag
        elif name.startswith("engine.conv_forward"):
            key = ("engine.conv", tag)
        else:
            key = (name, tag)
        by_tag[key] = by_tag.get(key, 0.0) + dur
        tag_calls[key] = tag_calls.get(key, 0) + 1

    n = max(sum(calls.get(c, 0) for c in COMMANDS), 1)
    n_compare = max(calls.get("cli.cmd_compare", 0), 1)
    ms, s = 1e3 / n, 1.0 / n
    out = {
        "netdef.parse_config.ms": total.get("netdef.parse_config", 0.0) * ms,
        "netdef.infer_shapes.ms": total.get("netdef.infer_shapes", 0.0) * ms,
        "traffic.aggregate.ms": total.get("traffic.aggregate", 0.0) * ms,
        "traffic.op_profile.ms": total.get("traffic.op_profile", 0.0) * ms,
        "energy.load_energy_config.ms": total.get("energy.load_energy_config", 0.0) * ms,
        "energy.frame_energy.ms": total.get("energy.frame_energy", 0.0) * ms,
        "energy.frame_energy.calls": calls.get("energy.frame_energy", 0) / n,
        "cli.cmd_analyze.self_ms": own.get("cli.cmd_analyze", 0.0) * ms,
        "cli.cmd_compare.ms": total.get("cli.cmd_compare", 0.0) * 1e3 / n_compare,
    }
    for scope in cluster.SCOPES:
        # per cluster command of this scope, not per command of the workload
        per = max(tag_calls.get(("cli.cmd_cluster", scope), 0), 1)
        key = ("cluster.kmeans_1d", scope)
        seconds = by_tag.get(key, 0.0)
        prefix = "cluster.kmeans_1d." + ("global" if scope == cluster.SCOPE_ALL_LAYERS else scope)
        out[prefix + ".s"] = seconds / per
        out[prefix + ".calls"] = tag_calls.get(key, 0) / per
        out[prefix + ".values"] = work.get(key, 0) / per
        out[prefix + ".mvalues_per_s"] = _rate(work.get(key, 0), seconds)
    for fn in ("pack_indices", "write_clustered", "model_sse", "read_darknet_weights",
               "fold_batch_norm"):
        out[f"cluster.{fn}.s"] = total.get(f"cluster.{fn}", 0.0) * s
    out["cli.cmd_cluster.self_s"] = own.get("cli.cmd_cluster", 0.0) * s
    for variant in ("original", "dequantized", "indirect", "on_the_fly"):
        out[f"engine.run_network.{variant}.s"] = (
            by_tag.get(("engine.run_network", variant), 0.0) * s
        )
    out["engine.run_network.self_s"] = own.get("engine.run_network", 0.0) * s
    for fn in ("gemm_nn", "gemm_nn_centroids", "gemm_nn_packed"):
        seconds = total.get(f"engine.{fn}", 0.0)
        macs = work.get((f"engine.{fn}", None), 0)
        out[f"engine.{fn}.s"] = seconds * s
        out[f"engine.{fn}.macs"] = macs / n
        out[f"engine.{fn}.mmac_per_s"] = _rate(macs, seconds)
    out["engine.im2col.s"] = total.get("engine.im2col", 0.0) * s
    out["engine.conv3x3.s"] = by_tag.get(("engine.conv", 3), 0.0) * s
    out["engine.conv1x1.s"] = by_tag.get(("engine.conv", 1), 0.0) * s
    out["cluster.read_clustered.s"] = total.get("cluster.read_clustered", 0.0) * s
    out["cluster.unpack_indices.s"] = total.get("cluster.unpack_indices", 0.0) * s
    out["cluster.unpack_indices.calls"] = calls.get("cluster.unpack_indices", 0) / n
    out["cluster.dequantize.s"] = total.get("cluster.dequantize", 0.0) * s
    out["cli.cmd_verify.self_s"] = own.get("cli.cmd_verify", 0.0) * s
    return out

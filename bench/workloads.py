"""The benchmark workloads: which CLI commands they run and how each
command's output is checked.

Every command goes through ``convwatt.cli.main`` in this process, one at a
time (a closed loop with one client). A check returns None when the output
is right and a one-line reason when it is not; a reason, or any exception
the command or its check raises, counts the command as failed.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from statistics import median
from time import perf_counter
from typing import Callable, ClassVar

from convwatt import cli
from convwatt.cluster import read_clustered, write_clustered

from . import inputs

# Paper totals pinned in tests/test_energy.py: (value, absolute tolerance).
PINS = {
    "baseline_gbps": (199.652081, 1e-6),
    "five_bit_all_layers_pct": (42.66, 5e-3),
}
BITS = ("5", "6", "7", "8")
VERIFY_PASS = "indirect-vs-dequantized execution: PASS (bitwise equal)"


@dataclass
class Op:
    """One CLI command of a round, the files it writes, and the check of its
    output."""

    kind: str
    argv: list[str]
    check: Callable[[str], str | None]
    outputs: tuple[str, ...] = ()


def run_cli(argv) -> tuple[int, str, str, float]:
    """Run one command in-process; return exit code, stdout, stderr, seconds."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        seconds = perf_counter() - start
    return code, out.getvalue(), err.getvalue(), seconds


def execute(op: Op, tracer=None) -> tuple[float, str | None]:
    """Time one command and check it; return (seconds, failure reason or None).

    The command's output files are removed first, so a command that exits 0
    without writing them fails its check instead of passing on an old file.
    """
    for path in op.outputs:
        if os.path.exists(path):
            os.remove(path)
    try:
        if tracer is None:
            code, out, err, seconds = run_cli(op.argv)
        else:
            with tracer:
                code, out, err, seconds = run_cli(op.argv)
    except Exception as exc:  # a crash is a failed command, not a failed run
        return math.nan, f"{op.kind}: {type(exc).__name__}: {exc}"
    if code != 0:
        return seconds, f"{op.kind}: exit {code}: {err.strip()[:200]}"
    try:
        problem = op.check(out)
    except Exception as exc:
        problem = f"{type(exc).__name__}: {exc}"
    return seconds, None if problem is None else f"{op.kind}: {problem}"


def _read(path: str) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


class _Same:
    """Remembers the first digest seen per key and flags any later change.

    ``first`` is printed with every run, so runs of the same seed in
    separate processes can be compared too.
    """

    def __init__(self):
        self.first: dict[str, str] = {}

    def __call__(self, key: str, data: bytes) -> str | None:
        digest = hashlib.sha256(data).hexdigest()
        if self.first.setdefault(key, digest) != digest:
            return f"{key} differs from the first call (sha256 {digest[:12]})"
        return None


def _near(what: str, value: float, pin: tuple[float, float]) -> str | None:
    expected, tol = pin
    if abs(value - expected) > tol:
        return f"{what} {value!r} is not {expected} +- {tol}"
    return None


def check_analyze_report(payload: dict, scope: str, pins=PINS) -> str | None:
    """Pinned paper totals: the baseline row, and 5-bit all-layers energy."""
    reports = payload["reports"]
    problem = _near("baseline GB/s", reports[0]["dram"]["bandwidth_gbps"],
                    pins["baseline_gbps"])
    if problem or scope != "all-layers":
        return problem
    five = [r for r in reports if r["weight_bits"] == 5]
    if len(five) != 1:
        return "no 5-bit row"
    return _near("5-bit all-layers total %",
                 five[0]["relative_pct"]["overall_energy"],
                 pins["five_bit_all_layers_pct"])


def check_cwts(data: bytes, scope: str, bits: int, n_weights: int) -> str | None:
    """The container must parse and re-serialize to the same bytes."""
    model = read_clustered(data)
    if write_clustered(model) != data:
        return "CWTS does not round-trip through read_clustered"
    if (model.scope, model.bits, model.total_count) != (scope, bits, n_weights):
        return (f"CWTS holds {model.scope}/{model.bits} bits/{model.total_count} "
                f"weights, expected {scope}/{bits}/{n_weights}")
    return None


@dataclass
class Workload:
    """Base: a named loop of rounds of CLI commands over generated inputs.

    ``setup`` writes the inputs into a directory and returns their record;
    ``round`` gives the commands of round r. ``NAMED`` maps each median the
    run prints for people to the command kinds it pools and its unit.
    """

    name: str
    same: _Same = field(default_factory=_Same)

    NAMED: ClassVar[dict[str, tuple[tuple[str, ...], str]]] = {}

    def setup(self, directory: str, seed: int) -> dict:
        raise NotImplementedError

    def round(self, r: int) -> list[Op]:
        raise NotImplementedError

    def summary(self, times: dict[str, list[float]]) -> dict[str, tuple[float, str]]:
        """Named figures printed for people, beyond the contract metrics."""
        figures = {}
        for label, (kinds, unit) in self.NAMED.items():
            samples = [t for kind in kinds for t in times.get(kind, [])]
            if samples:
                figures[label] = (median(samples) * (1e3 if unit == "ms" else 1.0), unit)
        return figures


@dataclass
class Analyze(Workload):
    """analyze --bits 5..8 on the shipped YOLOv3 cfg in both codebook
    scopes, in an order that alternates, plus one compare over the two
    reports per round."""

    pins: dict = field(default_factory=lambda: dict(PINS))
    cfg_path: str = ""
    directory: str = ""
    first_scope: int = 0

    NAMED = {
        "analyze_ms": (("analyze all-layers", "analyze per-layer"), "ms"),
        "compare_ms": (("compare",), "ms"),
    }

    def setup(self, directory, seed):
        self.directory = directory
        self.cfg_path = inputs.yolov3_path()
        self.first_scope = seed % 2
        net = inputs.load_net(inputs.yolov3_text())
        return inputs.describe(os.path.basename(self.cfg_path), net, 1, seed)

    def _analyze(self, scope: str) -> Op:
        stem = f"{self.directory}/{scope}"
        argv = ["analyze", self.cfg_path, "--scope", scope,
                "--json", stem + ".json", "--csv", stem + ".csv"]
        for bits in BITS:
            argv += ["--bits", bits]

        def check(out):
            report = _read(stem + ".json")
            return (
                self.same(scope + " json", report)
                or self.same(scope + " csv", _read(stem + ".csv"))
                or check_analyze_report(json.loads(report), scope, self.pins)
            )

        return Op(f"analyze {scope}", argv, check, (stem + ".json", stem + ".csv"))

    def _compare(self) -> Op:
        out_path = f"{self.directory}/compare.csv"
        argv = ["compare", f"{self.directory}/all-layers.json",
                f"{self.directory}/per-layer.json", "--out", out_path]

        def check(out):
            text = _read(out_path)
            rows = len(text.splitlines()) - 1
            if rows != 2 * (len(BITS) + 1):
                return f"compare wrote {rows} rows"
            return self.same("compare csv", text)

        return Op("compare", argv, check, (out_path,))

    def round(self, r):
        scopes = ("all-layers", "per-layer")
        if (r + self.first_scope) % 2:
            scopes = scopes[::-1]
        return [self._analyze(scopes[0]), self._analyze(scopes[1]), self._compare()]

    def summary(self, times):
        figures = super().summary(times)
        kinds, _ = self.NAMED["analyze_ms"]
        samples = sorted(t for kind in kinds for t in times.get(kind, []))
        if len(samples) > 10:
            # highest percentile with at least ten samples beyond it
            tail = samples[-11]
            pct = 100.0 * (len(samples) - 10) / len(samples)
            figures[f"analyze_tail_ms (p{pct:.1f} of {len(samples)})"] = (tail * 1e3, "ms")
        return figures


# (command kind, --scope, --bits, --max-iters) of the two clustering uses:
# the paper's 5-bit global table, and 8-bit per-layer tables. On yolov3-w24
# the global run needs more than 300 sweeps for every seed tried, and the
# per-layer run about 18 per layer that iterates (701 to 845 in all, by
# seed). Caps below that keep a round's work nearly the same for every seed.
CLUSTER_USES = (
    ("cluster-global", "all-layers", 5, 200),
    ("cluster-per-layer", "per-layer", 8, 10),
)


@dataclass
class Cluster(Workload):
    """cluster on a generated network, one command per use in CLUSTER_USES
    each round."""

    divisor: int = inputs.NARROW_DIVISOR
    cfg_text: str = ""
    net_name: str = ""
    paths: tuple = ()
    record: dict = field(default_factory=dict)
    seed: int = 0

    NAMED = {
        "cluster_global_s": (("cluster-global",), "s"),
        "cluster_per_layer_s": (("cluster-per-layer",), "s"),
    }

    def setup(self, directory, seed):
        text = self.cfg_text or inputs.narrow_cfg(inputs.yolov3_text(), self.divisor)
        name = self.net_name or f"yolov3-w{self.divisor}"
        cfg, weights, record = inputs.write_network(directory, name, text, self.divisor, seed)
        self.paths, self.record, self.seed = (cfg, weights, directory), record, seed
        return record

    def _cluster_argv(self, out_path, scope, bits, sweeps):
        cfg, weights, _ = self.paths
        return ["cluster", cfg, weights, "--bits", str(bits), "--scope", scope,
                "--max-iters", str(sweeps), "--seed", str(self.seed), "--out", out_path]

    def _cluster(self, kind, scope, bits, sweeps) -> Op:
        out_path = f"{self.paths[2]}/{kind}.cwts"

        def check(out):
            data = _read(out_path)
            return check_cwts(
                data, scope.replace("-", "_"), bits, self.record["kernel_weights"]
            ) or self.same(kind, data)

        return Op(kind, self._cluster_argv(out_path, scope, bits, sweeps), check, (out_path,))

    def round(self, r):
        return [self._cluster(*use) for use in CLUSTER_USES]


# Lloyd sweeps for verify's model. On yolov3-w48 the default run converges
# after 118 to 300 sweeps for the seeds tried; a cap below that keeps the
# set-up's work the same for every seed. verify checks any model bit for bit.
VERIFY_MODEL_SWEEPS = 50


@dataclass
class Verify(Cluster):
    """verify against a 5-bit all-layers model clustered during set-up."""

    divisor: int = inputs.VERIFY_DIVISOR

    NAMED = {"verify_s": (("verify",), "s")}

    def setup(self, directory, seed):
        record = super().setup(directory, seed)
        argv = self._cluster_argv(f"{directory}/model.cwts", "all-layers", 5,
                                  VERIFY_MODEL_SWEEPS)
        code, _, err, _ = run_cli(argv)
        if code != 0:
            raise RuntimeError(f"set-up clustering failed: {err.strip()}")
        return record

    def round(self, r):
        cfg, weights, directory = self.paths
        argv = ["verify", cfg, weights, f"{directory}/model.cwts",
                "--seed", str(self.seed)]

        def check(out):
            return None if VERIFY_PASS in out else "verify did not report bitwise PASS"

        return [Op("verify", argv, check)]


def all_workloads() -> dict[str, Workload]:
    """The workloads by name; BENCHMARK.json says why each is there."""
    items = (
        Analyze("analyze-yolov3"),
        Cluster(f"cluster-w{inputs.NARROW_DIVISOR}"),
        Verify(f"verify-w{inputs.VERIFY_DIVISOR}"),
    )
    return {w.name: w for w in items}

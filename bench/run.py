"""Host-time benchmark of the convwatt CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Imports ``convwatt`` from ``src/`` of
that checkout, writes its inputs under ``.bench-work/`` (removed at exit),
repeats the workload's rounds of commands for S seconds, checks every
output, and prints the metrics that ``BENCHMARK.json`` names as the last
line of stdout: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``. A traced run alternates untraced and traced
rounds, so its tracing overhead is measured on the same inputs, and writes
its spans to ``.bench-out/``.

The end-to-end times are given at a fixed host speed: each round and each
set-up is timed next to ``Reference``, a fixed piece of work that does not
use the program, and its time is divided by the reference's time and
multiplied by ``REFERENCE_S`` (see bench/METRICS.md).
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
# one process, one thread: keep BLAS from starting a pool of its own
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 9
MIN_ROUNDS = 2
# Median time of one Reference() call on the machine of the recorded
# figures: the host speed that the end-to-end times are scaled to.
REFERENCE_S = 0.004
# Times a fresh import of the program, numpy already loaded, in a child
# interpreter.
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); import numpy; "
    "t = time.perf_counter(); import convwatt.cli; print(time.perf_counter() - t)"
)


def _import():
    """Import numpy and convwatt from this checkout."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import numpy  # noqa: F401

    import convwatt

    source = Path(convwatt.__file__).resolve()
    if ROOT / "src" not in source.parents:
        raise ImportError(f"convwatt imported from {source}, not from {ROOT / 'src'}")


class Reference:
    """Fixed host work that does not touch the program: two sorts of 50,000
    floats, a 20,000-step Python loop, and a copy and sum of 8 MB. Its time,
    taken next to the program's, measures how fast the host runs just then.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.sort = np.sort
        self.small = rng.standard_normal(50_000)
        self.large = rng.standard_normal(1_000_000)

    def __call__(self) -> float:
        start = perf_counter()
        self.sort(self.small)
        self.sort(self.small)
        total = 0
        for i in range(20_000):
            total += i * i
        self.large.copy().sum()
        return perf_counter() - start


def machine() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        **{var: os.environ[var] for var in THREAD_VARS},
    }


def set_up(workload, directory: Path, seed: int, reference) -> tuple[float, float, dict]:
    """Set up once; return the seconds taken, their ratio to the mean of the
    reference times before and after, and the record of the inputs.

    The seconds are those of a fresh import of convwatt in a child
    interpreter plus those of ``workload.setup`` writing the inputs.
    """
    before = reference()
    child = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src")],
        capture_output=True, text=True, check=True, timeout=60,
    )
    directory.mkdir(parents=True)
    start = perf_counter()
    record = workload.setup(str(directory), seed)
    seconds = float(child.stdout) + perf_counter() - start
    return seconds, seconds / ((before + reference()) / 2), record


def measure(workload, seconds: float, tracer=None, set_up_again=None, reference=None):
    """Run rounds for at least `seconds` and MIN_ROUNDS rounds.

    With a tracer, odd rounds are traced and even ones are not. Between
    rounds, `set_up_again` is called SETUP_REPEATS - 1 times, spread evenly
    over the run, so the set-up is not timed in one phase of the host only.
    The reference is timed before each command and after each round.
    Returns the command times by kind and traced-ness, the attempt count,
    the failures, and by traced-ness the scaled rounds: for each round whose
    commands all passed, the sum over its commands of each one's seconds
    divided by the mean of the reference times just before and after it.
    """
    from bench.workloads import execute

    reference = reference or Reference()
    times: dict[tuple[str, bool], list[float]] = {}
    attempted, failures = 0, []
    ratios: dict[bool, list[float]] = {False: [], True: []}
    start = perf_counter()
    r = setups = 0
    while r < MIN_ROUNDS or perf_counter() - start < seconds:
        due = (setups + 1) * seconds / SETUP_REPEATS
        if set_up_again and setups < SETUP_REPEATS - 1 and perf_counter() - start >= due:
            set_up_again()
            setups += 1
        traced = tracer is not None and r % 2 == 1
        if traced:
            tracer.run_id = r
        refs, elapsed_s, passed = [], [], True
        for op in workload.round(r):
            attempted += 1
            refs.append(reference())
            elapsed, problem = execute(op, tracer if traced else None)
            elapsed_s.append(elapsed)
            if problem is None:
                times.setdefault((op.kind, traced), []).append(elapsed)
            else:
                passed = False
                failures.append(problem)
        refs.append(reference())
        if passed:
            ratios[traced].append(sum(
                2 * e / (before + after) for e, before, after in zip(elapsed_s, refs, refs[1:])
            ))
        r += 1
    return times, attempted, failures, ratios


def round_seconds(workload, times) -> float:
    """One round's seconds as timed: for each of its commands, the median of
    that command's times, summed. NaN if a command never succeeded."""
    return sum(
        median(times[op.kind]) if times.get(op.kind) else math.nan
        for op in workload.round(0)
    )


def _finite(value: float):
    """NaN (no successful command to time) is written as JSON null."""
    return value if math.isfinite(value) else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        _import()
    except ImportError as exc:
        print(f"bench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    from bench.tracer import Tracer, layer_metrics
    from bench.workloads import all_workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = all_workloads()
    if args.workload not in workloads:
        print(f"bench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads)}", file=sys.stderr)
        return 2
    workload = workloads[args.workload]
    # analyze stamps its outputs with this instead of input mtimes
    os.environ["SOURCE_DATE_EPOCH"] = str(1_600_000_000 + args.seed)

    work = ROOT / ".bench-work" / f"{args.workload}-{os.getpid()}"
    reference = Reference()
    reference()  # warm-up
    setup_times, setup_ratios = [], []

    def set_up_again():
        directory = work / f"setup{len(setup_times)}"
        seconds, ratio, _ = set_up(copy.copy(workload), directory, args.seed, reference)
        setup_times.append(seconds)
        setup_ratios.append(ratio)
        shutil.rmtree(directory)

    try:
        seconds, ratio, record = set_up(workload, work / "run", args.seed, reference)
        setup_times.append(seconds)
        setup_ratios.append(ratio)
        tracer = Tracer() if args.trace else None
        times, attempted, failures, ratios = measure(
            workload, args.seconds, tracer, set_up_again, reference)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print("machine: " + json.dumps(machine(), sort_keys=True))
    print("inputs: " + json.dumps(record, sort_keys=True))
    print("setup s: " + " ".join(f"{t:.6g}" for t in setup_times))
    print(f"reference ms: median={median(reference() for _ in range(21)) * 1e3:.6g}")
    print("outputs sha256: " + json.dumps(workload.same.first, sort_keys=True))
    plain = {kind: t for (kind, traced), t in times.items() if not traced}
    for name, (value, unit) in workload.summary(plain).items():
        print(f"{name} = {value:.6g} {unit}")
    for kind, samples in sorted(plain.items()):
        samples = sorted(samples)
        if len(samples) >= 2:
            q1, q2, q3 = (q * 1e3 for q in quantiles(samples, n=4, method="inclusive"))
            print(f"{kind} ms: n={len(samples)} min={samples[0] * 1e3:.6g} q1={q1:.6g} "
                  f"median={q2:.6g} q3={q3:.6g} max={samples[-1] * 1e3:.6g}")
    print(f"round ms as timed: {round_seconds(workload, plain) * 1e3:.6g} "
          f"over {len(ratios[False])} rounds")
    for problem in failures[:10]:
        print(f"failed: {problem}", file=sys.stderr)

    if args.trace:
        metrics = layer_metrics(tracer.spans)
        untraced, traced = (median(ratios[t]) if ratios[t] else math.nan for t in (False, True))
        metrics["trace.overhead_ms"] = (traced - untraced) * REFERENCE_S * 1e3
        metrics["trace.overhead_pct"] = 100.0 * (traced - untraced) / untraced
        listed = spec["per_layer"]
        out = ROOT / ".bench-out"
        out.mkdir(exist_ok=True)
        spans_path = out / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
        tracer.write(str(spans_path))
        print(f"spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")
    else:
        # Medians of times divided by the reference's: host speed on the
        # recorded machine swings by up to 2x for fixed work, and the
        # reference slows with it (see bench/METRICS.md).
        metrics = {
            "round_ms": (median(ratios[False]) if ratios[False] else math.nan)
            * REFERENCE_S * 1e3,
            "setup_s": median(setup_ratios) * REFERENCE_S,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        listed = spec["end_to_end"]
    for m in listed:
        print(f"{m['name']} = {metrics[m['name']]:.6g} {m['unit']}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            m["name"]: {"value": _finite(metrics[m["name"]]), "unit": m["unit"]}
            for m in listed
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

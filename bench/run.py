"""Benchmark of lmroofline's own wall time and memory, end to end and per module.

Run from the root of a checkout:

    python3 bench/run.py --workload arm-decode-sweep --seed 1 --seconds 30 --trace 0

Workloads: arm-decode-sweep, dlm-block-refresh, cli-mixed (see README.md).
Everything runs in this one process on one thread: the package is imported
from ./src and called in-process, through its public functions and
lmroofline.cli.main, and timed from outside.

--trace 0 prints the end-to-end metrics: setup_s, pass_s_p50, pass_s_tail,
points_per_s, peak_alloc_mb and ok_frac.  --trace 1 alternates untraced
passes with passes in which every public function is wrapped (tracer.py),
and prints the per-module metrics and trace.overhead_frac.  The last line
of standard output is one JSON object; every line before it starts with
'#'.  Outputs of every pass are checked against reference.json.

Times are calibrated: see CalibratedClock.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import statistics
import sys
import time
import tracemalloc
from dataclasses import dataclass

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

import tracer as tracing  # noqa: E402  (bench/ is on sys.path as the script's directory)
import workloads  # noqa: E402

# The tail is the highest percentile with this many passes beyond it.
TAIL_BEYOND = 10
MIN_PASSES = TAIL_BEYOND + 1
SETUPS = 15
MIN_TRACED_PASSES = 2

# Seconds the calibration kernel takes on the reference machine (Python
# 3.11.7 on a 2-vCPU x86-64 VM, when the host is quiet).
CALIBRATION_REF_S = 0.022


def note(text: str) -> None:
    print(f"# {text}", flush=True)


@dataclass(frozen=True)
class _Item:
    key: int
    value: int
    tag: str


def calibration_kernel() -> int:
    """Fixed pure-Python work of the package's kind: frozen dataclasses, dicts, ints."""
    totals: dict[tuple[int, str], int] = {}
    items = []
    for i in range(20000):
        item = _Item(i, i * 7 % 13, "k")
        slot = (item.key % 97, item.tag)
        totals[slot] = totals.get(slot, 0) + item.value * item.key
        items.append(item)
    return sum(totals.values())


def calibration_time() -> float:
    gc.collect()
    start = time.perf_counter()
    calibration_kernel()
    return time.perf_counter() - start


class CalibratedClock:
    """Times measurements, each between two runs of the calibration kernel.

    The machine is shared with other virtual machines, and its speed drifts
    by up to 2x over minutes, slowing every process alike.  Each reported
    time is therefore the measured time multiplied by scale =
    CALIBRATION_REF_S / (mean time of the calibration kernel runs just
    before and just after it): the time on the reference machine.  The '#'
    lines also print the unscaled median.
    """

    def __init__(self) -> None:
        self._before = calibration_time()

    def measure(self, fn):
        """Return (fn(), measured seconds, scale)."""
        gc.collect()
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        after = calibration_time()
        scale = 2 * CALIBRATION_REF_S / (self._before + after)
        self._before = after
        return result, elapsed, scale


def import_package():
    """Import lmroofline from ./src afresh, dropping any copy already loaded."""
    for name in [n for n in sys.modules if n == "lmroofline" or n.startswith("lmroofline.")]:
        del sys.modules[name]
    package = importlib.import_module("lmroofline")
    importlib.import_module("lmroofline.cli")
    return package


class Checker:
    """Checks every pass's outputs and counts operations and failures."""

    def __init__(self, workload, ref):
        self.workload = workload
        self.ref = ref
        self.attempted = 0
        self.failures: dict[str, str] = {}
        self.failed = 0

    def __call__(self, outputs) -> None:
        attempted, failures = self.workload.check(outputs, self.ref)
        self.attempted += attempted
        self.failed += len(failures)
        for name, reason in failures:
            self.failures.setdefault(name, reason)

    @property
    def correct(self) -> bool:
        return set(self.failures) <= set(workloads.KNOWN_SEED_DEFECTS)


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest rank with TAIL_BEYOND passes beyond it."""
    ordered = sorted(times)
    rank = len(ordered) - TAIL_BEYOND
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def end_to_end(L, workload, check, seconds: float) -> dict:
    """Passes for `seconds`, with SETUPS set-ups spread evenly over the run.

    A set-up is a fresh import of the package plus workload.load: everything
    up to the first evaluation.  Spreading the set-ups samples them under
    the same machine conditions as the passes.
    """

    def setup():
        package = import_package()
        workload.load(package)
        return package

    clock = CalibratedClock()
    setups, passes, raw = [], [], []
    begin = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() < begin + seconds:
        if len(setups) < SETUPS and time.perf_counter() - begin >= len(setups) * seconds / SETUPS:
            L, elapsed, scale = clock.measure(setup)
            setups.append(elapsed * scale)
        outputs, elapsed, scale = clock.measure(lambda: workload.run(L))
        check(outputs)
        del outputs
        passes.append(elapsed * scale)
        raw.append(elapsed)
    p50 = statistics.median(passes)
    tail_s, tail_pct = tail(passes)
    note(f"{len(passes)} timed passes; pass_s_tail is p{tail_pct:.1f} of {len(passes)} passes")
    note(f"unscaled median pass {statistics.median(raw):.6g} s; "
         f"median scale {statistics.median(p / r for p, r in zip(passes, raw)):.4g}")

    gc.collect()
    tracemalloc.start()
    try:
        outputs = workload.run(L)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    check(outputs)
    del outputs

    failed_frac = check.failed / check.attempted
    note(f"failed_frac {failed_frac:.6g} ({check.failed} of {check.attempted} operations)")
    return {
        "setup_s": (statistics.median(setups), "s"),
        "pass_s_p50": (p50, "s"),
        "pass_s_tail": (tail_s, "s"),
        "points_per_s": (workload.points_per_pass / p50, "1/s"),
        "peak_alloc_mb": (peak / 1e6, "MB"),
        "ok_frac": (1.0 - failed_frac, "frac"),
    }


def per_layer(L, workload, check, seconds: float, work: str) -> tuple[dict, bool]:
    # Untraced and traced passes alternate, so that both see the same
    # machine conditions and their ratio gives the tracing overhead.
    tracer = tracing.Tracer()
    clock = CalibratedClock()
    plain, traced, runs = [], [], []
    begin = time.perf_counter()
    while len(runs) < MIN_TRACED_PASSES or time.perf_counter() < begin + seconds:
        outputs, elapsed, scale = clock.measure(lambda: workload.run(L))
        check(outputs)
        plain.append(elapsed * scale)
        tracer.reset()
        with tracer:
            outputs, elapsed, scale = clock.measure(lambda: workload.run(L))
        check(outputs)
        del outputs
        traced.append(elapsed * scale)
        run = tracer.metrics()
        runs.append({n: v * scale if n in tracing.TIME_METRICS else v for n, v in run.items()})
    tracer.write(os.path.join(work, "trace.tsv"))

    counts_repeat = all(
        run[name] == runs[0][name] for run in runs for name in tracing.COUNT_METRICS
    )
    if not counts_repeat:
        changed = [n for n in tracing.COUNT_METRICS if len({run[n] for run in runs}) > 1]
        note(f"exact counts differ between traced passes: {', '.join(changed)}")
    metrics = {name: (runs[0][name], "count") for name in tracing.COUNT_METRICS}
    for name in tracing.TIME_METRICS:
        metrics[name] = (statistics.median(run[name] for run in runs), "s")
    overhead = statistics.median(traced) / statistics.median(plain) - 1.0
    metrics["trace.overhead_frac"] = (overhead, "frac")

    unaccounted = 1.0 - tracer.covered_s() / elapsed
    note(f"{len(plain)} untraced and {len(runs)} traced passes; "
         f"spans cover {100 * (1 - unaccounted):.1f}% of the last traced pass")
    if unaccounted > overhead:
        note(f"span self times leave {unaccounted:.3f} of the traced pass unaccounted, "
             f"more than trace.overhead_frac {overhead:.3f}")
    return metrics, counts_repeat


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # Set-up is timed as a user meets it: importing from cached bytecode,
    # whatever PYTHONDONTWRITEBYTECODE says.  This first import writes the
    # cache if it is missing.
    sys.dont_write_bytecode = False
    sys.path.insert(0, SRC)
    try:
        L = import_package()
    except ImportError as exc:
        print(f"cannot import lmroofline from {SRC}: {exc}", file=sys.stderr)
        return 1
    if not os.path.abspath(L.__file__).startswith(SRC + os.sep):
        print(f"lmroofline was imported from {L.__file__}, not from {SRC}", file=sys.stderr)
        return 1
    variant = args.seed % workloads.VARIANTS
    with open(os.path.join(BENCH_DIR, "reference.json"), encoding="utf-8") as handle:
        reference = json.load(handle)[args.workload][variant]
    work = os.path.join(BENCH_DIR, "out", args.workload)
    os.makedirs(work, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload]()
    workload.prepare(variant, work)
    check = Checker(workload, reference)
    note(f"workload {args.workload}, seed {args.seed} -> variant {variant}, "
         f"{workload.points_per_pass} points per pass")
    note(f"python {platform.python_version()}, os.cpu_count() {os.cpu_count()}, "
         "one process on one thread")

    check(workload.run(L))  # warm-up pass, checked but not timed
    if args.trace:
        metrics, counts_repeat = per_layer(L, workload, check, args.seconds, work)
    else:
        metrics, counts_repeat = end_to_end(L, workload, check, args.seconds), True

    for name, reason in sorted(check.failures.items()):
        known = " (known defect of the reference commit)" if name in workloads.KNOWN_SEED_DEFECTS else ""
        note(f"failed: {name}: {reason}{known}")
    for name, (value, unit) in metrics.items():
        note(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": check.correct and counts_repeat,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

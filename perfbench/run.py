"""gasched benchmark: one closed-loop workload per invocation.

    python3 perfbench/run.py --workload check-grid --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from its ``src``.
With ``--trace 0`` the workload's ops run for ``--seconds`` (rounded up to
whole passes) and the last line carries the end-to-end metrics. With
``--trace 1`` each op of the first pass runs untraced and then traced, and
the last line carries the per-layer metrics. Human-readable lines (the
environment, each figure with its unit and sample count, the output
digest) come first; the last line is one JSON object. See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import reference

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 11
WORKLOAD_NAMES = ("check-grid", "check-wide", "optimize-large", "sim-stream")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"),
                        help="one workload, or all of them one after another")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_package() -> None:
    """Import gasched from this checkout's src, or exit with an error if it
    is not there."""
    if not (SRC / "gasched" / "__init__.py").is_file():
        sys.exit(f"perfbench: no gasched package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import gasched

    if Path(gasched.__file__).resolve().parent != SRC / "gasched":
        sys.exit(f"perfbench: imported gasched from {gasched.__file__}, not from {SRC}")


def environment() -> dict[str, str]:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": str(os.cpu_count()),
        "cpu": cpu,
        "commit": git_commit(),
    }


def git_commit() -> str:
    """The checkout's commit, read from .git without running git; a checkout
    that is not a git repository reports "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def set_up(workload_cls, seed: int, workdir: str, gauge):
    """Median over repeats of: import gasched afresh, then generate the
    workload and write its files, scaled to reference speed like the ops.

    Each repeat drops the gasched modules from ``sys.modules``, imports the
    package again and then puts the first import back, so the benchmark
    keeps one set of classes. Interpreter start-up and the numpy import are
    not gasched's and are not included. Returns (seconds at reference speed,
    raw seconds, workload)."""
    package = {name: module for name, module in sys.modules.items()
               if name == "gasched" or name.startswith("gasched.")}
    timed = []
    workload = None
    for i in range(SETUP_REPEATS):
        gauge.sample()
        index = len(gauge.samples) - 1
        target = os.path.join(workdir, f"setup{i}")
        started = time.perf_counter()
        for name in package:
            del sys.modules[name]
        importlib.import_module("gasched")
        sys.modules.update(package)
        os.mkdir(target)
        workload = workload_cls(seed, target)
        timed.append((time.perf_counter() - started, index))
    gauge.sample()
    calibrated = statistics.median(elapsed * gauge.scale(index) for elapsed, index in timed)
    return calibrated, statistics.median(elapsed for elapsed, _ in timed), workload


class Loop:
    """Closed-loop driver: one op at a time, each checked before the next."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0

    def step(self, op, record: bool, tracer=None, observe: bool = False) -> float | None:
        """Run and check one op; its latency in seconds, or None if it failed.
        With ``observe`` the workload also keeps the timings its call took
        inside itself."""
        self.attempted += 1
        try:
            started = time.perf_counter()
            if tracer is None:
                out = self.workload.call(op)
            else:
                with tracer.op():
                    out = self.workload.call(op)
            elapsed = time.perf_counter() - started
            self.workload.check(op, out, record)
        except Exception:  # a failed op is counted and reported, the loop goes on
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None
        if observe:
            self.workload.observe(out)
        return elapsed


def tail(values: list[float]) -> tuple[float, float]:
    """Highest order statistic with >= 10 samples beyond it, and its
    percentile; the median when there are fewer than 20 samples."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 20:
        return statistics.median(ordered), 50.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def run_untraced(loop: Loop, seconds: float, gauge) -> tuple[list[float], list[float], float]:
    """Whole passes until ``seconds`` have gone by. Returns the raw and the
    calibrated latencies of the ops that passed their checks, and the wall
    time."""
    timed = []
    started = time.perf_counter()
    pass_no = 0
    gauge.sample()
    while time.perf_counter() - started < seconds:
        for op in loop.workload.ops(pass_no):
            index = gauge.tick()
            elapsed = loop.step(op, record=pass_no == 0, observe=True)
            if elapsed is not None:
                timed.append((elapsed, index))
        pass_no += 1
    wall = time.perf_counter() - started
    gauge.sample()
    raw = [elapsed for elapsed, _ in timed]
    calibrated = [elapsed * gauge.scale(index) for elapsed, index in timed]
    return raw, calibrated, wall


def report_line(name: str, value: float, unit: str, note: str = "") -> None:
    print(f"{name:<50} {value:>14.6g} {unit:<10} {note}".rstrip())


def run_all(args) -> int:
    """Each workload in turn, each in its own process so that its peak RSS
    is its own; returns nonzero if any of them failed."""
    failed = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run([sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace)])
        failed += proc.returncode != 0
    return 1 if failed else 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    import_package()
    import workloads

    env = environment()
    print(f"# perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("# env " + " ".join(f"{k}={v!r}" for k, v in env.items()))
    print("# closed loop: one caller, one op in flight, single thread")

    workdir = tempfile.mkdtemp(prefix=".perfbench-work-", dir=ROOT)
    try:
        gauge = reference.Gauge()
        setup_s, raw_setup_s, workload = set_up(workloads.WORKLOADS[args.workload], args.seed,
                                                workdir, gauge)
        loop = Loop(workload)
        first_ops = workload.ops(0)
        loop.step(first_ops[0], record=False)  # warm-up: lazy imports, caches

        if args.trace == 0:
            raw, calibrated, wall = run_untraced(loop, args.seconds, gauge)
            metrics = end_to_end(raw, calibrated, workload, (setup_s, raw_setup_s), wall, gauge)
        else:
            metrics = traced(loop, workload, first_ops, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, value in workload.quality.figures().items():
        if name in workload.quality_names:
            report_line(name, value, workloads.QUALITY_UNITS[name], "pass 0, deterministic per seed")
    report_line("error_rate", loop.failed / max(1, loop.attempted), "ratio",
                f"{loop.failed}/{loop.attempted} ops failed")
    print(f"# digest sha256={workload.digest.hexdigest()} (pass 0 outputs)")
    result = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def end_to_end(raw: list[float], calibrated: list[float], workload, setup: tuple[float, float],
               wall: float, gauge) -> dict[str, tuple[float, str]]:
    """Timings are at reference speed (see reference.py); the raw figures
    are printed beside them."""
    setup_s, raw_setup_s = setup
    n = len(calibrated)
    p50 = 1e3 * statistics.median(calibrated)
    tail_s, pct = tail(calibrated)
    raw_tail_s, _ = tail(raw)
    ops_per_s = n / sum(calibrated)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    alias = workload.alias
    report_line("setup_s", setup_s, "s",
                f"median of {SETUP_REPEATS} set-ups; raw {raw_setup_s:.4g} s")
    report_line(f"call_ms_p50 ({alias}_ms_p50)", p50, "ms",
                f"n={n}; raw {1e3 * statistics.median(raw):.4g} ms")
    report_line(f"call_ms_tail ({alias}_ms_tail)", 1e3 * tail_s, "ms",
                f"p{pct:.1f} n={n}; raw {1e3 * raw_tail_s:.4g} ms")
    report_line("ops_per_s", ops_per_s, "1/s",
                f"n={n}; raw {n / sum(raw):.4g}/s; {wall:.1f} s wall")
    report_line("peak_rss_mb", peak_rss_mb, "MB")
    report_line("reference_kernel_ms", 1e3 * statistics.median(gauge.samples), "ms",
                f"n={len(gauge.samples)}, min {1e3 * min(gauge.samples):.3g} "
                f"max {1e3 * max(gauge.samples):.3g}; nominal {1e3 * reference.NOMINAL_S:g}")
    for name, value, unit, note in workload.extra_lines():
        report_line(name, value, unit, note)
    return {
        "setup_s": (setup_s, "s"),
        "call_ms_p50": (p50, "ms"),
        "call_ms_tail": (1e3 * tail_s, "ms"),
        "ops_per_s": (ops_per_s, "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def traced(loop: Loop, workload, ops: list, args) -> dict[str, tuple[float, str]]:
    """Each op of pass 0 runs untraced and then traced, back to back, so that
    the overhead ratio is not skewed by the host changing speed mid-run. The
    wrappers are installed only around the traced run. The two runs of an op
    keep separate digests: equal digests show the tracer changed no output."""
    import tracing
    import workloads

    tracer = tracing.Tracer()
    sides = {
        "untraced": (workloads.Quality(), hashlib.sha256()),
        "traced": (workloads.Quality(), hashlib.sha256()),
    }
    seconds = {side: 0.0 for side in sides}
    for op in ops:
        workload.quality, workload.digest = sides["untraced"]
        seconds["untraced"] += loop.step(op, record=True) or 0.0
        workload.quality, workload.digest = sides["traced"]
        tracer.install()
        try:
            seconds["traced"] += loop.step(op, record=True, tracer=tracer) or 0.0
        finally:
            tracer.uninstall()
    untraced_s, traced_s = seconds["untraced"], seconds["traced"]
    if sides["traced"][1].digest() != sides["untraced"][1].digest():
        loop.failed += 1
        print("perfbench: traced outputs differ from untraced outputs", file=sys.stderr)

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    span_file = out_dir / f"spans-{args.workload}-seed{args.seed}.npz"
    tracer.save(str(span_file))

    figures, stats = tracer.summary(len(ops))
    metrics = tracing.per_layer(tracer, figures, stats)
    metrics["trace.overhead"] = (traced_s / untraced_s, "ratio")
    for name, value in workload.quality.figures().items():
        metrics[f"quality.{name}"] = (value, workloads.QUALITY_UNITS[name])
    for name, (value, unit) in metrics.items():
        report_line(name, value, unit)
    print(f"# traced {len(ops)} ops: {traced_s:.3f} s traced vs {untraced_s:.3f} s untraced; "
          f"spans={len(tracer.name)} covering {figures['root_total_s'] / traced_s:.4f} of traced "
          f"op time; max |sum(self) - root| = {figures['self_sum_error_s'] * 1e6:.3g} us; "
          f"spans written to {span_file.relative_to(ROOT)}")
    return metrics


if __name__ == "__main__":
    sys.exit(main())

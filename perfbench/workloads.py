"""The four benchmark workloads: input generation, the timed call, and the
output checks.

Every workload is a closed loop: one caller issues one operation ("op"),
waits for it to return, checks its output, then issues the next. Ops come
in passes. Pass 0 is the fixed, seed-determined set over which quality
figures and the output digest are taken; later passes repeat the same
shapes with fresh GA or simulator seeds, so no two ops in a run are the
same call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import time
from dataclasses import dataclass

import numpy as np

# Calls into the package go through module attributes, so that the traced
# run's wrappers (installed on those attributes) see them.
from gasched import cli, schedule_matrix, scheduler_ga, simulator
from gasched.ga_core import GaConfig
from gasched.schedule_matrix import OverloadConfig
from gasched.scheduler_ga import SchedulerFitnessConfig, SchedulingProblem
from gasched.simulator import Job, SimConfig

DROP_WEIGHT = 100.0
OVERLOAD_WEIGHT = 1.0
ORACLE_SWEEP = 3

# Acceptance criterion 2's grid: J <= 7, k <= 3, m <= 3, w in {1, 2}, delta in {0, 1}.
CHECK_GRID = [
    (jobs, k, m, w, delta)
    for jobs in range(1, 8)
    for k in (1, 2, 3)
    for m in (1, 2, 3)
    for w in (1, 2)
    if w <= m
    for delta in (0, 1)
]

# One (jobs, k, m) shape, every (w, delta): 136348 capacity-respecting
# assignments (under the (k+1)^jobs = 262144 budget bound), ~0.3 s per
# oracle-check, so a run holds enough calls for a tail percentile.
# A mix of shapes would put the median on the edge between two shapes'
# clusters, which reads a different op from run to run.
CHECK_WIDE_SHAPE = (9, 3, 3)

OPT_JOBS, OPT_K, OPT_M, OPT_W, OPT_DELTA = 100, 8, 16, 12, 2
OPT_PASS = 10

SIM_HORIZON = 1000
SIM_SHAPES = (("shallow", 3, 6), ("deep", 16, 256))
SIM_FAILURE_PROB = 0.2
SIM_STREAMS = 4


def reference_optimum(jobs: int, k: int, m: int, w: int,
                      drop_weight: float = DROP_WEIGHT,
                      overload_weight: float = OVERLOAD_WEIGHT) -> float:
    """Exact optimum of the scheduling objective, in closed form.

    Holds when a drop costs more than an overload: then a job is dropped
    only when all k*m slots are full, the first k*w placed jobs fit without
    overloading any machine, and each overloaded machine absorbs up to
    m - w more.
    """
    if not drop_weight > overload_weight:
        raise ValueError("the closed form needs drop_weight > overload_weight")
    drops = max(0, jobs - k * m)
    excess = max(0, jobs - drops - k * w)
    overloads = -(-excess // (m - w)) if excess else 0
    return drop_weight * drops + overload_weight * overloads


class CheckFailed(Exception):
    """An operation returned an output that fails its check."""


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


QUALITY_UNITS = {
    "oracle_hit_rate": "ratio",
    "opt_gap": "fitness",
    "sim_completed_frac": "ratio",
    "sim_dropped_frac": "ratio",
}


@dataclass
class Quality:
    """Deterministic output figures over pass 0."""

    results: int = 0
    hits: int = 0
    gap_sum: float = 0.0
    arrivals: int = 0
    completed: int = 0
    dropped: int = 0

    def figures(self) -> dict[str, float]:
        return {
            "oracle_hit_rate": self.hits / self.results if self.results else 0.0,
            "opt_gap": self.gap_sum / self.results if self.results else 0.0,
            "sim_completed_frac": self.completed / self.arrivals if self.arrivals else 0.0,
            "sim_dropped_frac": self.dropped / self.arrivals if self.arrivals else 0.0,
        }


class Workload:
    """One named workload; ``__init__`` generates and writes its inputs."""

    name = ""
    alias = ""  # the call's name in the report, e.g. check_ms_p50
    quality_names: tuple[str, ...] = ()

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.quality = Quality()
        self.digest = hashlib.sha256()

    def rng(self, tag: str) -> random.Random:
        return random.Random(f"{self.seed}/{self.name}/{tag}")

    def ops(self, pass_no: int) -> list:
        raise NotImplementedError

    def call(self, op):
        """The timed operation; returns its raw output."""
        raise NotImplementedError

    def check(self, op, out, record: bool) -> None:
        """Raise CheckFailed on a wrong output; with ``record`` fold the
        output into the quality figures and the digest."""
        raise NotImplementedError

    def observe(self, out) -> None:
        """Keep timings that the call measured inside itself (timed runs only)."""

    def extra_lines(self) -> list[tuple[str, float, str, str]]:
        """Workload-specific figures for the human-readable report."""
        return []


class _OracleCheck(Workload):
    """``gasched oracle-check`` called in process on generated workload files."""

    alias = "check"
    quality_names = ("oracle_hit_rate", "opt_gap")

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        self.workdir = workdir
        self.config_path = os.path.join(workdir, "oracle.json")
        with open(self.config_path, "w", encoding="utf-8") as fh:
            json.dump({"oracle_sweep": ORACLE_SWEEP, "drop_weight": DROP_WEIGHT,
                       "overload_weight": OVERLOAD_WEIGHT}, fh)
        rng = self.rng("jobs")
        self.workload_paths = {}
        for count in sorted({inst[0] for inst in self.instances()}):
            ids = rng.sample(range(1000), count)
            jobs = [Job(i, rng.randint(1, 5), rng.randrange(100)) for i in ids]
            path = os.path.join(workdir, f"jobs{count}.txt")
            simulator.save_workload(jobs, path)
            self.workload_paths[count] = path

    def instances(self) -> list[tuple[int, int, int, int, int]]:
        raise NotImplementedError

    def ops(self, pass_no: int) -> list:
        rng = self.rng(f"pass{pass_no}")
        order = self.instances()
        rng.shuffle(order)
        return [inst + (rng.getrandbits(32),) for inst in order]

    def call(self, op):
        jobs, k, m, w, delta, ga_seed = op
        argv = [
            "oracle-check", "--config", self.config_path,
            "--workload", self.workload_paths[jobs],
            "--machines", str(k), "--queue-depth", str(m),
            "--w", str(w), "--delta", str(delta), "--seed", str(ga_seed),
        ]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def check(self, op, out, record: bool) -> None:
        jobs, k, m, w, _, _ = op
        code, text, err = out
        _require(code in (0, 1), f"exit code {code}: {err.strip()}")
        doc = json.loads(text)
        sweep = doc["ga_sweep"]
        optimum = doc["oracle_optimum"]
        _require(len(sweep) == ORACLE_SWEEP, "ga_sweep has the wrong length")
        _require(optimum == reference_optimum(jobs, k, m, w),
                 f"oracle_optimum {optimum} != closed form for {op[:5]}")
        _require(all(x >= optimum for x in sweep), "GA beat the exact optimum")
        _require(doc["ga_best"] == min(sweep), "ga_best is not the sweep minimum")
        _require(doc["match"] == (doc["ga_best"] == optimum), "match flag is wrong")
        _require(code == (0 if doc["match"] else 1), "exit code disagrees with match")
        if record:
            self.quality.results += len(sweep)
            self.quality.hits += sum(1 for x in sweep if x == optimum)
            self.quality.gap_sum += sum(x - optimum for x in sweep)
            # the echoed config names the workload file, whose directory differs per run
            self.digest.update(text.replace(self.workdir, "<workdir>").encode())


class CheckGrid(_OracleCheck):
    name = "check-grid"

    def instances(self):
        return list(CHECK_GRID)


class CheckWide(_OracleCheck):
    name = "check-wide"

    def instances(self):
        jobs, k, m = CHECK_WIDE_SHAPE
        return [(jobs, k, m, w, delta) for w in range(1, m + 1) for delta in range(k + 1)]


class OptimizeLarge(Workload):
    """``optimize_schedule`` on one 800-bit problem, then the text emit of
    its matrix, as ``gasched optimize`` does."""

    name = "optimize-large"
    alias = "optimize"
    quality_names = ("opt_gap", "oracle_hit_rate")

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        rng = self.rng("jobs")
        ids = rng.sample(range(10 * OPT_JOBS), OPT_JOBS)
        self.jobs = [Job(i, rng.randint(1, 5), rng.randrange(100)) for i in ids]
        self.fitness_cfg = SchedulerFitnessConfig(
            overload=OverloadConfig(w=OPT_W, delta=OPT_DELTA),
            drop_weight=DROP_WEIGHT,
            overload_weight=OVERLOAD_WEIGHT,
        )
        self.optimum = reference_optimum(OPT_JOBS, OPT_K, OPT_M, OPT_W)

    def ops(self, pass_no: int) -> list:
        rng = self.rng(f"pass{pass_no}")
        return [rng.getrandbits(32) for _ in range(OPT_PASS)]

    def call(self, op):
        problem = SchedulingProblem(
            jobs=self.jobs, k=OPT_K, m=OPT_M, fitness_cfg=self.fitness_cfg,
            ga_cfg=GaConfig(population_size=40, max_generations=200, rng_seed=op),
        )
        result = scheduler_ga.optimize_schedule(problem)
        return result, schedule_matrix.to_text(result.matrix)

    def check(self, op, out, record: bool) -> None:
        result, text = out
        matrix = result.matrix
        _require(scheduler_ga.schedule_fitness(matrix, self.fitness_cfg) == result.fitness,
                 "re-scored fitness differs from result.fitness")
        _require(int(matrix.body.sum(axis=0).max()) <= OPT_M, "a column holds more than m jobs")
        rows = np.vstack([matrix.head, matrix.body])
        _require(int(rows.sum(axis=1).max()) <= 1, "a row holds more than one 1")
        _require(result.fitness >= self.optimum, "GA beat the exact optimum")
        if record:
            self.quality.results += 1
            self.quality.hits += result.fitness == self.optimum
            self.quality.gap_sum += result.fitness - self.optimum
            self.digest.update(text.encode())
            self.digest.update(repr((result.fitness, result.history)).encode())


class SimStream(Workload):
    """``run_sim`` plus the CSV emit of its trace on one generated stream,
    at the shallow and then the deep pipeline shape."""

    name = "sim-stream"
    alias = "sim_call"
    quality_names = ("sim_completed_frac", "sim_dropped_frac")

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        rng = self.rng("streams")
        self.streams = []
        for _ in range(SIM_STREAMS):
            jobs = []
            for tick in range(SIM_HORIZON):
                for _ in range(rng.choice((0, 1, 1, 2))):  # one arrival per tick on average
                    jobs.append(Job(len(jobs), rng.randint(1, 2), tick))
            self.streams.append(jobs)
        self.us_per_tick: dict[str, list[float]] = {shape: [] for shape, _, _ in SIM_SHAPES}

    def ops(self, pass_no: int) -> list:
        rng = self.rng(f"pass{pass_no}")
        return [(i, rng.getrandbits(32)) for i in range(SIM_STREAMS)]

    def call(self, op):
        index, sim_seed = op
        outputs = []
        for shape, k, m in SIM_SHAPES:
            cfg = SimConfig(k=k, m=m, send_failure_prob=SIM_FAILURE_PROB,
                            horizon=SIM_HORIZON, seed=sim_seed)
            started = time.perf_counter()
            metrics = simulator.run_sim(cfg, self.streams[index])
            seconds = time.perf_counter() - started
            outputs.append((shape, metrics, simulator.trace_csv(metrics), seconds))
        return outputs

    def observe(self, out) -> None:
        for shape, _, _, seconds in out:
            self.us_per_tick[shape].append(1e6 * seconds / SIM_HORIZON)

    def check(self, op, out, record: bool) -> None:
        arrivals = len(self.streams[op[0]])
        for shape, metrics, csv_text, _ in out:
            _require(metrics.completed + metrics.dropped <= arrivals,
                     f"{shape}: completed + dropped exceeds arrivals")
            _require(metrics.send_failures <= arrivals, f"{shape}: send_failures exceeds arrivals")
            _require(len(metrics.trace) == SIM_HORIZON, f"{shape}: trace length != horizon")
            if record:
                self.quality.arrivals += arrivals
                self.quality.completed += metrics.completed
                self.quality.dropped += metrics.dropped
                summary = (metrics.completed, metrics.dropped, metrics.recalls,
                           metrics.send_failures, metrics.mean_load, metrics.max_load,
                           metrics.overload_ticks)
                self.digest.update(repr((shape, summary)).encode())
                self.digest.update(csv_text.encode())

    def extra_lines(self):
        return [
            (f"sim_us_per_tick.{shape}", float(np.median(values)), "us", f"n={len(values)}")
            for shape, values in self.us_per_tick.items()
            if values
        ]


WORKLOADS = {cls.name: cls for cls in (CheckGrid, CheckWide, OptimizeLarge, SimStream)}

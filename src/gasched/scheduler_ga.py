"""Binds the GA engine to the scheduling matrix.

Candidate schedules are flattened matrix bodies with one row per job;
the physical queue depth ``m`` caps how many jobs one machine's column
may hold. Decoding repairs row feasibility (leftmost 1 wins) and then
column capacity (entries beyond ``m`` per column are evicted into
dropped rows), so every genome scores as a physically realizable
schedule and the GA optimum is comparable with exhaustive search.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple, Sequence

from . import ga_core
from .errors import DimensionError
from .ga_core import GaConfig, Genome
from .schedule_matrix import (
    OverloadConfig,
    ScheduleMatrix,
    column_loads,
    from_genome,
    mutate_dropped_rows,
    rebalance_crossover,
    repair_column_capacity,
)

if TYPE_CHECKING:
    from .simulator import Job


@dataclass
class SchedulerFitnessConfig:
    """Weights of the scalar objective; dropped jobs must dominate."""

    overload: OverloadConfig
    drop_weight: float = 100.0
    overload_weight: float = 1.0

    def __post_init__(self):
        if self.drop_weight <= 0:
            raise ValueError("drop_weight must be positive")
        if self.overload_weight < 0:
            raise ValueError("overload_weight must be non-negative")


@dataclass
class SchedulingProblem:
    jobs: Sequence["Job"]
    k: int
    m: int
    fitness_cfg: SchedulerFitnessConfig
    ga_cfg: GaConfig

    def __post_init__(self):
        if self.k < 1 or self.m < 1:
            raise ValueError("need k >= 1 machines and queue depth m >= 1")
        if not self.jobs:
            raise ValueError("jobs must be nonempty")
        overload = self.fitness_cfg.overload
        if overload.w > self.m:
            raise ValueError("w must not exceed the queue depth m")
        if overload.delta > self.k:
            raise ValueError("delta must not exceed the machine count k")


def score(loads: Sequence[int], drops: int, cfg: SchedulerFitnessConfig) -> float:
    """The objective: weighted count of dropped jobs and of machines whose
    load exceeds ``w``; zero exactly when neither occurs."""
    w = cfg.overload.w
    overloads = 0
    for load in loads:  # a plain loop: a generator here is measurably slower
        if load > w:
            overloads += 1
    return cfg.drop_weight * drops + cfg.overload_weight * overloads


def schedule_fitness(matrix: ScheduleMatrix, cfg: SchedulerFitnessConfig) -> float:
    """:func:`score` of a matrix's column loads and dropped rows."""
    return score(column_loads(matrix), len(matrix.dropped_rows()), cfg)


def make_fitness(job_count: int, k: int, m: int, cfg: SchedulerFitnessConfig):
    """Fitness over flattened (job_count x k) bodies, memoized by mask.

    Scores each genome exactly as ``schedule_fitness`` applied to the
    decoded-and-repaired matrix (see :func:`decode_schedule`), but from
    per-column bit counts of the genome's mask. Job row ``r`` is the
    ``k``-bit field at ``r*k``, and its leftmost 1 is at column ``j``
    exactly when bit ``j`` of the row is set and bits ``0..j-1`` are
    clear. So column ``j`` holds the rows that have bit ``j`` set among
    those not yet placed in columns ``0..j-1``; it keeps ``min(count, m)``
    of them and evicts the rest, and rows with no 1 at all are dropped.
    Which rows a full column evicts does not change the score, only how
    many.

    One evaluation costs a few big-int operations per column (shift, mask,
    popcount) instead of a shift per job row, and stops early once every
    row is placed. It is slower than a row scan only when machines far
    outnumber jobs.
    """
    length = job_count * k
    # bit r*k set for every row r: the mask of column 0
    lanes = ((1 << length) - 1) // ((1 << k) - 1)
    cache: dict[int, float] = {}

    def fitness(genome: Genome) -> float:
        if genome.length != length:
            raise DimensionError(f"genome length {genome.length} != jobs*k = {length}")
        mask = genome.mask
        value = cache.get(mask)
        if value is None:
            loads = [0] * k
            drops = 0
            unplaced = lanes
            for j in range(k):
                if not unplaced:
                    break
                placed = (mask >> j) & unplaced  # rows whose leftmost 1 is column j
                unplaced ^= placed
                count = placed.bit_count()
                if count > m:  # full column evicts
                    drops += count - m
                    count = m
                loads[j] = count
            drops += unplaced.bit_count()  # all-zero rows
            value = score(loads, drops, cfg)
            cache[mask] = value
        return value

    return fitness


def decode_schedule(
    genome: Genome, job_ids: Sequence[int], k: int, m: int
) -> ScheduleMatrix:
    """Genome -> matrix with one body row per job, repaired for row
    feasibility and per-column capacity ``m``."""
    matrix = from_genome(genome, len(job_ids), k, list(job_ids))
    return repair_column_capacity(matrix, m)


def random_placement_genome(job_count: int, k: int, m: int, rng) -> Genome:
    """One job per row, each sent to a uniformly random machine; jobs
    landing on a machine whose column is already full stay as all-zero
    (dropped) rows."""
    length = job_count * k
    if length < 1:
        raise DimensionError("genome must have length >= 1")
    counts = [0] * k
    mask = 0
    for r in range(job_count):
        col = rng.randrange(k)
        if counts[col] < m:
            counts[col] += 1
            mask |= 1 << (r * k + col)
    return Genome._from_mask(mask, length)


class OptimizeResult(NamedTuple):
    matrix: ScheduleMatrix
    fitness: float
    history: list[float]


def optimize_schedule(problem: SchedulingProblem) -> OptimizeResult:
    """Evolve a schedule for the problem's jobs and return the best
    matrix ever seen, its fitness, and the best-fitness history."""
    job_ids = [job.id for job in problem.jobs]
    job_count = len(job_ids)
    k, m = problem.k, problem.m
    cfg = problem.fitness_cfg
    fitness = make_fitness(job_count, k, m, cfg)

    def initializer(rng):
        return random_placement_genome(job_count, k, m, rng)

    best, history = ga_core.run(initializer, fitness, problem.ga_cfg)
    matrix = decode_schedule(best.genome, job_ids, k, m)

    # final polish: spread overloaded queues, then requeue dropped jobs
    # into columns that still have physical room
    polish_rng = ga_core.stream(problem.ga_cfg.rng_seed, "polish")
    polished, _ = rebalance_crossover(matrix, cfg.overload)
    polished = mutate_dropped_rows(polished, polish_rng, max_load=m)
    polished_fitness = schedule_fitness(polished, cfg)
    if polished_fitness <= best.fitness:
        return OptimizeResult(polished, polished_fitness, history)
    return OptimizeResult(matrix, best.fitness, history)

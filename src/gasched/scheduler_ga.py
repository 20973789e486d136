"""Binds the GA engine to the scheduling matrix.

Candidate schedules are flattened matrix bodies with one row per job;
the physical queue depth ``m`` caps how many jobs one machine's column
may hold. Decoding applies both rules in one pass over the genome: a
row keeps its leftmost 1, and a column keeps its first ``m`` rows in row
order, the rest becoming dropped (all-zero) rows. So every genome scores
as a physically realizable schedule and the GA optimum is comparable
with exhaustive search.

:func:`optimize_schedule` runs the GA with a ``floor``, 0 by default:
:func:`score` is a sum of counts times weights that
:class:`SchedulerFitnessConfig` keeps positive (``drop_weight``) and
non-negative (``overload_weight``), both finite, so no schedule scores
below 0, and a run whose best reaches the floor stops there instead of
spending its stagnation window. A caller that knows the exact optimum
(``oracle-check``) passes it as the floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

from . import ga_core
from .errors import ConfigError, DimensionError, at_least, check_fields, checked
from .ga_core import GaConfig, Genome
from .schedule_matrix import (
    OverloadConfig,
    ScheduleMatrix,
    _rebalance_crossover_inplace,
    check_shape,
    column_loads,
    inverse_select,
)

if TYPE_CHECKING:
    from .simulator import Job


# an infinite weight times a zero count scores NaN
_FINITE = (math.isfinite, "must be finite")


@dataclass(frozen=True)
class SchedulerFitnessConfig:
    """Weights of the scalar objective; dropped jobs must dominate."""

    overload: OverloadConfig
    drop_weight: float = checked((lambda v: v > 0, "must be positive"), _FINITE, default=100.0)
    overload_weight: float = checked(at_least(0), _FINITE, default=1.0)

    def __post_init__(self):
        check_fields(self)

    def check_finite(self, job_count: int, k: int) -> None:
        """Raise ConfigError naming the weight unless every schedule of
        ``job_count`` jobs on ``k`` machines scores finite: no score exceeds
        ``drop_weight * job_count + overload_weight * k``."""
        if not math.isfinite(self.drop_weight * job_count):
            raise ConfigError("drop_weight", f"dropping all {job_count} jobs would score inf")
        if not math.isfinite(self.drop_weight * job_count + self.overload_weight * k):
            raise ConfigError("overload_weight", f"{k} overloaded machines could score inf")


@dataclass(frozen=True)
class SchedulingProblem:
    jobs: Sequence["Job"]
    k: int = checked(key="machines")
    m: int = checked(key="queue_depth")
    fitness_cfg: SchedulerFitnessConfig
    ga_cfg: GaConfig

    def __post_init__(self):
        check_shape(self.k, self.m, self.fitness_cfg.overload)
        if not self.jobs:
            raise ConfigError("workload", "must hold at least one job")
        ids = [job.id for job in self.jobs]
        if len(ids) != len(set(ids)):
            raise ConfigError("workload", "job ids must be unique")
        self.fitness_cfg.check_finite(len(ids), self.k)

    def _with_seed(self, seed: int) -> "SchedulingProblem":
        """Trusted copy for a seed sweep: this problem with its GA config's
        ``rng_seed`` set to ``seed``, which the caller checked; validates nothing."""
        ga_cfg = object.__new__(GaConfig)
        ga_cfg.__dict__.update(self.ga_cfg.__dict__, rng_seed=seed)
        problem = object.__new__(SchedulingProblem)
        problem.__dict__.update(self.__dict__, ga_cfg=ga_cfg)
        return problem


def score(overloads: int, drops: int, cfg: SchedulerFitnessConfig) -> float:
    """The objective: the weighted sum of ``drops`` dropped jobs and of
    ``overloads`` machines whose load exceeds ``w``, zero exactly when both
    counts are; the one place the weights are applied."""
    return cfg.drop_weight * drops + cfg.overload_weight * overloads


def schedule_fitness(matrix: ScheduleMatrix, cfg: SchedulerFitnessConfig) -> float:
    """:func:`score` of a matrix's overloaded machines and dropped rows."""
    return score(len(inverse_select(matrix, cfg.overload)), len(matrix.dropped_rows()), cfg)


def make_fitness(job_count: int, k: int, m: int, cfg: SchedulerFitnessConfig):
    """Fitness over flattened (job_count x k) bodies.

    Scores each genome exactly as ``schedule_fitness`` applied to the
    decoded matrix (see :func:`decode_schedule`), but from
    per-column bit counts of the genome's mask. Job row ``r`` is the
    ``k``-bit field at ``r*k``, and its leftmost 1 is at column ``j``
    exactly when bit ``j`` of the row is set and bits ``0..j-1`` are
    clear. So column ``j`` holds the rows that have bit ``j`` set among
    those not yet placed in columns ``0..j-1``; it keeps ``min(count, m)``
    of them, is overloaded if they exceed ``w``, and evicts the rest, and
    rows with no 1 at all are dropped. Which rows a full column evicts does
    not change the score, only how many.

    One evaluation complements the mask once; then column ``j`` costs one
    shift, one AND and one popcount: the rows still unplaced after it are
    those unplaced before it whose bit ``j`` is clear, and its count is
    how many rows that step removed. It stops early once every row is
    placed. Each popcount runs over every row still unplaced, not only the
    rows the column places, so at ``k >= 64`` those popcounts cost more
    than the saved operation: there this form is slower than popcounting
    each column's placed rows, and faster below. It is slower than a row
    scan only when machines far outnumber jobs.
    """
    length = job_count * k
    full = (1 << length) - 1
    # bit r*k set for every row r: the mask of column 0
    lanes = full // ((1 << k) - 1)
    w = cfg.overload.w

    def fitness(genome: Genome) -> float:
        if genome.length != length:
            raise DimensionError(f"genome length {genome.length} != jobs*k = {length}")
        clear = genome.mask ^ full
        overloads = drops = 0
        unplaced = lanes
        left = job_count  # unplaced.bit_count()
        for j in range(k):
            if not left:
                break
            unplaced &= clear >> j  # rows with bits 0..j all clear
            count = left - (left := unplaced.bit_count())  # rows whose leftmost 1 is column j
            if count > m:  # full column evicts
                drops += count - m
                count = m
            if count > w:
                overloads += 1
        drops += left  # all-zero rows
        return score(overloads, drops, cfg)

    return fitness


def decode_schedule(genome: Genome, job_ids: Sequence[int], k: int, m: int) -> ScheduleMatrix:
    """Genome -> matrix with one body row per job, by the rule that
    :func:`make_fitness` scores: row ``r`` keeps the lowest set bit of
    its ``k``-bit field (its leftmost 1), and each column keeps its first
    ``m`` rows in row order; every other row stays all zero (dropped).
    A field is laid out as a matrix row's mask, so a row is ``field &
    -field`` or 0. The matrix is built unchecked: its parts are valid once
    the genome length and the job ids are."""
    job_count = len(job_ids)
    if genome.length != job_count * k:
        raise DimensionError(f"genome length {genome.length} != jobs*k = {job_count * k}")
    if len(set(job_ids)) != job_count:
        raise ValueError("job labels must be unique")
    rows = [0]  # the head row
    loads = [0] * k
    width = (1 << k) - 1
    mask = genome.mask
    for _ in range(job_count):
        field = mask & width
        mask >>= k
        row = field & -field
        j = row.bit_length() - 1
        if row and loads[j] < m:
            loads[j] += 1
            rows.append(row)
        else:
            rows.append(0)  # an all-zero field, or a full column
    return ScheduleMatrix._from_parts(job_count, k, rows, [None, *job_ids])


def random_placement_genome(job_count: int, k: int, m: int, rng) -> Genome:
    """One job per row, each sent to a uniformly random machine; jobs
    landing on a machine whose column is already full stay as all-zero
    (dropped) rows."""
    length = job_count * k
    if length < 1:
        raise DimensionError("genome must have length >= 1")
    counts = [0] * k
    mask = 0
    shift = 0  # r * k for job row r
    for col in ga_core._indices_below(rng, k, job_count):
        if counts[col] < m:
            counts[col] += 1
            mask |= 1 << (shift + col)
        shift += k
    return Genome._from_mask(mask, length)


class OptimizeResult:
    """What :func:`optimize_schedule` returns: the best ``matrix``, its
    ``fitness`` and the best-fitness ``history``. A plain class, not a
    tuple. ``matrix`` may be built on its first read, and is then kept."""

    __slots__ = ("_matrix", "_build", "fitness", "history")

    def __init__(self, matrix: ScheduleMatrix | None, fitness: float, history: list[float],
                 build: Callable[[], tuple[ScheduleMatrix, float]] | None = None):
        self._matrix = matrix
        self._build = build
        self.fitness = fitness
        self.history = history

    @property
    def matrix(self) -> ScheduleMatrix:
        if self._matrix is None:
            self._matrix = self._build()[0]
            self._build = None
        return self._matrix


def optimize_schedule(problem: SchedulingProblem, *, floor: float = 0.0) -> OptimizeResult:
    """Evolve a schedule for the problem's jobs and return the best
    matrix ever seen, its fitness, and the best-fitness history, which
    ends at the first generation whose best scores ``<= floor``.

    ``floor`` must be a lower bound on every schedule's score, such as 0
    or the exact optimum; the matrix and fitness are then those of a run
    with ``floor=0.0``, and only the history can be shorter. The matrix is
    the decoded best, polished when that scores no worse. A run that ends
    at its floor reports the GA's fitness without decoding, since no polish
    can score below a lower bound, and builds its matrix on the first read
    of ``matrix``. So a floor above the optimum would also fix the reported
    fitness at the GA's unpolished best."""
    job_ids = [job.id for job in problem.jobs]
    job_count = len(job_ids)
    k, m = problem.k, problem.m
    cfg = problem.fitness_cfg
    fitness = make_fitness(job_count, k, m, cfg)

    def initializer(rng):
        return random_placement_genome(job_count, k, m, rng)

    best, history = ga_core.run(initializer, fitness, problem.ga_cfg, floor=floor)

    def build() -> tuple[ScheduleMatrix, float]:
        matrix = decode_schedule(best.genome, job_ids, k, m)
        polished, polished_fitness = _polish(matrix, m, cfg)
        if polished_fitness <= best.fitness:
            return polished, polished_fitness
        return matrix, best.fitness

    if best.fitness <= floor:
        return OptimizeResult(None, best.fitness, history, build)
    return OptimizeResult(*build(), history)


def _polish(
    matrix: ScheduleMatrix, m: int, cfg: SchedulerFitnessConfig
) -> tuple[ScheduleMatrix, float]:
    """The final polish, on one copy of ``matrix``: spread overloaded
    queues, then requeue each dropped row on the least-loaded column still
    below ``m`` (ties to the lowest index), leaving the rest dropped once
    every column is full. Returns the copy and its fitness."""
    out = matrix.copy()
    loads = column_loads(out)
    _rebalance_crossover_inplace(out, loads, cfg.overload)
    for i in out.dropped_rows():
        col = loads.index(min(loads))
        if loads[col] >= m:
            break
        out.rows[i + 1] = 1 << col
        loads[col] += 1
    return out, score(sum(load > cfg.overload.w for load in loads), len(out.dropped_rows()), cfg)

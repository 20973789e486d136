"""Exhaustive ground-truth solver for small static scheduling instances.

Enumerates every job -> machine-or-drop assignment that respects the
per-machine queue depth, scoring each with the same objective the GA
minimizes. Search is over assignments rather than raw bit matrices:
within-column slot order never changes the score, so the smaller space
is lossless.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import BudgetError
from .scheduler_ga import SchedulerFitnessConfig, schedule_fitness, score
from .schedule_matrix import ScheduleMatrix

import numpy as np

ENUMERATION_BUDGET = 10_000_000

DROP = None


@dataclass(frozen=True)
class OracleResult:
    optimum: float
    witness: tuple[int | None, ...]
    count: int


def enumerate_assignments(
    job_count: int, k: int, m: int
) -> Iterator[tuple[int | None, ...]]:
    """Yield every capacity-respecting map of jobs to machines 1..k or
    ``None`` (drop), in deterministic lexicographic order."""
    if job_count < 0 or k < 1 or m < 0:
        raise ValueError("need job_count >= 0, k >= 1, m >= 0")
    if (k + 1) ** job_count > ENUMERATION_BUDGET:
        raise BudgetError(
            f"(k+1)^jobs = {(k + 1) ** job_count} exceeds the {ENUMERATION_BUDGET} budget"
        )

    assignment: list[int | None] = [DROP] * job_count
    counts = [0] * (k + 1)

    def walk(idx: int) -> Iterator[tuple[int | None, ...]]:
        if idx == job_count:
            yield tuple(assignment)
            return
        for col in range(1, k + 1):
            if counts[col] < m:
                counts[col] += 1
                assignment[idx] = col
                yield from walk(idx + 1)
                counts[col] -= 1
        assignment[idx] = DROP
        yield from walk(idx + 1)

    yield from walk(0)


def assignment_to_matrix(
    assignment: Sequence[int | None], k: int, job_ids: Sequence[int] | None = None
) -> ScheduleMatrix:
    """Materialize an assignment as a matrix with one body row per job."""
    job_count = len(assignment)
    if job_ids is None:
        job_ids = list(range(job_count))
    body = np.zeros((job_count, k), dtype=np.int8)
    for row, col in enumerate(assignment):
        if col is not None:
            body[row, col - 1] = 1
    return ScheduleMatrix(
        job_count, k, np.zeros(k, dtype=np.int8), body, [None] + list(job_ids)
    )


def _assignment_fitness(
    assignment: Sequence[int | None], k: int, cfg: SchedulerFitnessConfig
) -> float:
    loads = [0] * k
    drops = 0
    for col in assignment:
        if col is None:
            drops += 1
        else:
            loads[col - 1] += 1
    return score(loads, drops, cfg)


def brute_force_best(
    job_count: int, k: int, m: int, cfg: SchedulerFitnessConfig
) -> OracleResult:
    """Scan the whole assignment space; returns the optimum, the first
    witness reaching it, and how many assignments attain it."""
    if job_count == 0:
        return OracleResult(optimum=0.0, witness=(), count=1)
    best: float | None = None
    witness: tuple[int | None, ...] | None = None
    count = 0
    for assignment in enumerate_assignments(job_count, k, m):
        value = _assignment_fitness(assignment, k, cfg)
        if best is None or value < best:
            best = value
            witness = assignment
            count = 1
        elif value == best:
            count += 1
    recheck = schedule_fitness(assignment_to_matrix(witness, k), cfg)
    if recheck != best:
        raise AssertionError("witness fitness does not match the reported optimum")
    return OracleResult(optimum=best, witness=witness, count=count)

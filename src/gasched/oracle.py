"""Exact ground-truth solver for static scheduling instances.

The objective depends only on each machine's load and on the drop count,
and machines are interchangeable, so the solver scans sorted load vectors
(each load at most the queue depth ``m``, summing to at most the job
count) instead of job -> machine-or-drop assignments, and counts the
assignments behind each vector with multinomials. That visits at most
C(min(m, J) + k, k) vectors for J jobs on k machines, where the
assignment space holds up to (k+1)^J maps.

:func:`enumerate_assignments` still walks the assignment space itself;
it is the independent reference that the tests check the solver against.
"""

from __future__ import annotations

import math
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


def brute_force_best(
    job_count: int, k: int, m: int, cfg: SchedulerFitnessConfig
) -> OracleResult:
    """Exact optimum over every capacity-respecting assignment, the first
    witness reaching it in :func:`enumerate_assignments` order, and how
    many assignments attain it."""
    if job_count == 0:
        return OracleResult(optimum=0.0, witness=(), count=1)
    if job_count < 0 or k < 1 or m < 0:
        raise ValueError("need job_count >= 0, k >= 1, m >= 0")
    top = min(m, job_count)
    vectors = math.comb(top + k, k)
    if vectors > ENUMERATION_BUDGET:
        raise BudgetError(
            f"C(min(m, jobs) + k, k) = {vectors} load vectors exceed the "
            f"{ENUMERATION_BUDGET} budget"
        )
    fact = [math.factorial(n) for n in range(job_count + 1)]
    numerator = math.factorial(k) * fact[job_count]
    best = math.inf
    best_loads: list[int] = []
    best_drops = count = 0
    # Non-increasing load vectors, lexicographically largest first. The
    # enumerator tries machines 1..k before the drop slot, so its first
    # optimal assignment is this scan's first optimal vector spelled out:
    # machine 1's jobs, then machine 2's, ..., then the drops.
    loads = [0] * k
    drops = job_count
    idx = 0
    while True:
        for i in range(idx, k):
            loads[i] = min(loads[i - 1] if i else top, drops)
            drops -= loads[i]
        value = score(loads, drops, cfg)
        if value < best:
            best, best_loads, best_drops, count = value, list(loads), drops, 0
        if value == best:
            # k! / prod(multiplicity!) machine orders of this vector, each
            # reached by J! / (prod(load!) * drops!) assignments
            denominator = fact[drops]
            run = 0
            for i, load in enumerate(loads):
                run = run + 1 if i and load == loads[i - 1] else 1
                denominator *= fact[load] * run
            count += numerator // denominator
        idx = k - 1
        while idx >= 0 and loads[idx] == 0:
            idx -= 1
        if idx < 0:
            break
        # the suffix after idx is all zero: lower loads[idx], refill greedily
        loads[idx] -= 1
        drops += 1
        idx += 1
    witness = tuple(
        col for col, load in enumerate(best_loads, start=1) for _ in range(load)
    ) + (DROP,) * best_drops
    recheck = schedule_fitness(assignment_to_matrix(witness, k), cfg)
    if recheck != best:
        raise AssertionError("witness fitness does not match the reported optimum")
    return OracleResult(optimum=best, witness=witness, count=count)

"""Exact ground-truth solver for static scheduling instances.

The objective depends only on each machine's load and on the drop count,
and machines are interchangeable, so the solver scans sorted load vectors
(each load at most the queue depth ``m``, summing to at most the job
count) instead of job -> machine-or-drop assignments, and counts the
assignments behind each vector with multinomials. That visits at most
C(min(m, J) + k, k) vectors for J jobs on k machines, where the
assignment space holds up to (k+1)^J maps.

The witness is one optimal assignment, as a tuple giving each job's
machine (1-based) or ``None`` for a drop: machine 1's jobs first, then
machine 2's, and so on, then the drops. Among all optimal assignments it
is the first in lexicographic order with machines 1..k ranked before the
drop, the order of a search that tries each job on machine 1, 2, ..., k
and then drops it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import BudgetError, ConfigError
from .scheduler_ga import SchedulerFitnessConfig, schedule_fitness, score
from .schedule_matrix import ScheduleMatrix, check_shape

import numpy as np

ENUMERATION_BUDGET = 10_000_000

DROP = None


@dataclass(frozen=True)
class OracleResult:
    optimum: float
    witness: tuple[int | None, ...]
    count: int


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
    """Exact optimum over every capacity-respecting assignment, how many
    assignments attain it, and a witness: machine 1's jobs, then machine
    2's, and so on, then the drops (see the module docstring)."""
    check_shape(k, m, cfg.overload)
    if job_count < 0:
        raise ConfigError("workload", "job count must be >= 0")
    if job_count == 0:
        return OracleResult(optimum=0.0, witness=(), count=1)
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
    # Non-increasing load vectors, lexicographically largest first. Ranking
    # machines 1..k before the drop, the first optimal assignment is this
    # scan's first optimal vector spelled out: machine 1's jobs, then
    # machine 2's, ..., then the drops.
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

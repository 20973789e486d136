"""Exact ground-truth solver for static scheduling instances.

The objective depends only on the drop count and on the number o of
machines loaded above ``w``. For a fixed o the best schedule places as
many jobs as fit, so each o = 0..k gives one candidate, scored from o
and its drop count alone, and the optimum is the least of them, at any
size. Per optimal o placing s jobs, the optimal assignments number
C(k, o) choices of the machines above ``w``, times C(J, s) of the placed
jobs, times the ways to spread them over the k machines' load ranges,
which a convolution counts. Only the count has size limits: it is
``None`` when the convolution exceeds ``PRODUCT_BUDGET`` or the count
reaches ``COUNT_LIMIT``.

The witness is one optimal assignment, as a tuple giving each job's
machine (1-based) or ``None`` for a drop: machine 1's jobs first, then
machine 2's, and so on, then the drops. Among all optimal assignments it
is the first in lexicographic order with machines 1..k ranked before the
drop, the order of a search that tries each job on machine 1, 2, ..., k
and then drops it: it spells out the lexicographically largest optimal
non-increasing load vector. Load vectors are spelled out only for the
optimal o.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import add, mul
from typing import Sequence

from .errors import ConfigError, DimensionError
from .scheduler_ga import SchedulerFitnessConfig, schedule_fitness, score
from .schedule_matrix import ScheduleMatrix, check_shape

# big-integer products in the count's convolution; at the limit a call
# takes a few seconds
PRODUCT_BUDGET = 3_000_000
COUNT_LIMIT = 10**4300  # json.dumps writes no int of more than 4300 digits

DROP = None


@dataclass(frozen=True)
class OracleResult:
    optimum: float
    witness: tuple[int | None, ...]
    count: int | None  # None beyond the count's size limits (module docstring)


def assignment_to_matrix(assignment: Sequence[int | None], k: int) -> ScheduleMatrix:
    """Materialize an assignment as a matrix with one body row per job,
    job ``i`` labelled ``i``; raise DimensionError naming the first job
    whose machine lies outside 1..k."""
    rows = [0]  # the head row
    for job, col in enumerate(assignment):
        if col is not None and not 1 <= col <= k:
            raise DimensionError(f"job {job}: machine {col} is outside 1..{k}")
        rows.append(0 if col is None else 1 << (col - 1))
    return ScheduleMatrix._from_parts(len(assignment), k, rows, [None, *range(len(assignment))])


def brute_force_best(
    job_count: int, k: int, m: int, cfg: SchedulerFitnessConfig
) -> OracleResult:
    """Exact optimum over every capacity-respecting assignment, a witness
    (machine 1's jobs, then machine 2's, and so on, then the drops) and how
    many assignments attain the optimum, or ``None`` (see the module docstring)."""
    check_shape(k, m, cfg.overload)
    if job_count < 0:
        raise ConfigError("workload", "job count must be >= 0")
    cfg.check_finite(job_count, k)
    if job_count == 0:
        return OracleResult(optimum=0.0, witness=(), count=1)
    w = cfg.overload.w
    top = min(m, job_count)
    low = min(w, top)
    # (score, o, placed): for each o, the first o loads are >= w + 1 and the
    # rest <= low <= w, so the score needs only the two counts
    candidates = []
    for o in range(k + 1 if top > w else 1):
        placed = min(job_count, o * top + (k - o) * low)
        if placed < o * (w + 1):
            break
        candidates.append((score(o, job_count - placed, cfg), o, placed))
    best = min(c[0] for c in candidates)
    optimal = [c for c in candidates if c[0] == best]
    products = sum(k * (placed + 1) * (top + 1) for _, _, placed in optimal)
    count = 0 if products <= PRODUCT_BUDGET else None
    best_loads = []
    for _, o, placed in optimal:
        if count is not None:
            ways = _spread_ways(placed, [(w + 1, top)] * o + [(0, low)] * (k - o))
            count += math.comb(k, o) * math.comb(job_count, placed) * ways[placed]
        # the lexicographically largest non-increasing load vector of this o
        loads, rest = [], placed
        for i in range(k):
            loads.append(min(top, rest - (o - 1 - i) * (w + 1)) if i < o else min(low, rest))
            rest -= loads[-1]
        best_loads = max(best_loads, loads)
    witness = tuple(
        col for col, load in enumerate(best_loads, start=1) for _ in range(load)
    ) + (DROP,) * (job_count - sum(best_loads))
    recheck = schedule_fitness(assignment_to_matrix(witness, k), cfg)
    if recheck != best:
        raise AssertionError("witness fitness does not match the reported optimum")
    if count is not None and count >= COUNT_LIMIT:
        count = None
    return OracleResult(optimum=best, witness=witness, count=count)


def _spread_ways(placed: int, ranges: list[tuple[int, int]]) -> list[int]:
    """``ways[t]`` for t = 0..placed: the maps of t labelled jobs onto one
    machine per ``(lo, hi)`` of ``ranges``, each loaded in ``[lo, hi]``."""
    ways = [1] + [0] * placed
    for lo, hi in ranges:
        row, new = [1] + [0] * hi, []  # row[l] = C(t, l), one Pascal step per t
        for t in range(placed + 1):
            end = min(hi, t)
            new.append(sum(map(mul, row[lo:end + 1], ways[t - end:t - lo + 1][::-1]))
                       if end >= lo else 0)
            row[1:] = map(add, row[1:], row)
        ways = new
    return ways

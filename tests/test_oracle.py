import itertools
import math

import pytest

from gasched import (
    OracleResult,
    OverloadConfig,
    SchedulerFitnessConfig,
    brute_force_best,
    schedule_fitness,
)
from gasched.errors import BudgetError
from gasched.oracle import ENUMERATION_BUDGET, assignment_to_matrix
from gasched.scheduler_ga import score


def fit_cfg(w=2, delta=0):
    return SchedulerFitnessConfig(overload=OverloadConfig(w=w, delta=delta))


# ------------------------------------------------------- reference scan
# The assignment-by-assignment search that brute_force_best replaced: an
# independent method to check the load-vector scan against on small sizes.

def enumerate_assignments(job_count, k, m):
    """Yield every capacity-respecting map of jobs to machines 1..k or
    ``None`` (drop), in lexicographic order with machines before the drop."""
    if job_count < 0 or k < 1 or m < 0:
        raise ValueError("need job_count >= 0, k >= 1, m >= 0")
    if (k + 1) ** job_count > ENUMERATION_BUDGET:
        raise BudgetError(
            f"(k+1)^jobs = {(k + 1) ** job_count} exceeds the {ENUMERATION_BUDGET} budget"
        )

    assignment = [None] * job_count
    counts = [0] * (k + 1)

    def walk(idx):
        if idx == job_count:
            yield tuple(assignment)
            return
        for col in range(1, k + 1):
            if counts[col] < m:
                counts[col] += 1
                assignment[idx] = col
                yield from walk(idx + 1)
                counts[col] -= 1
        assignment[idx] = None
        yield from walk(idx + 1)

    yield from walk(0)


def _assignment_fitness(assignment, k, cfg):
    loads = [0] * k
    drops = 0
    for col in assignment:
        if col is None:
            drops += 1
        else:
            loads[col - 1] += 1
    return score(loads, drops, cfg)


def _reference_best(job_count, k, m, cfg):
    """First optimum in enumeration order and how many assignments reach it."""
    best = witness = None
    count = 0
    for assignment in enumerate_assignments(job_count, k, m):
        value = _assignment_fitness(assignment, k, cfg)
        if best is None or value < best:
            best, witness, count = value, assignment, 1
        elif value == best:
            count += 1
    return OracleResult(optimum=best, witness=witness, count=count)


# --------------------------------------------------------------- enumeration

def test_single_job_single_machine_has_two_choices():
    assert list(enumerate_assignments(1, 1, 1)) == [(1,), (None,)]


def test_two_jobs_two_machines_depth_one():
    got = set(enumerate_assignments(2, 2, 1))
    # of the 9 raw mappings only the two same-machine ones break capacity
    raw = set(itertools.product((1, 2, None), repeat=2))
    expected = {a for a in raw if a != (1, 1) and a != (2, 2)}
    assert got == expected
    assert len(got) == 7


def test_zero_jobs_yield_one_empty_assignment():
    assert list(enumerate_assignments(0, 3, 2)) == [()]


def test_enumeration_respects_capacity_everywhere():
    for assignment in enumerate_assignments(5, 2, 2):
        for col in (1, 2):
            assert sum(1 for a in assignment if a == col) <= 2


def test_enumeration_order_is_deterministic():
    assert list(enumerate_assignments(3, 2, 3)) == list(enumerate_assignments(3, 2, 3))


def test_enumeration_budget_guard():
    with pytest.raises(BudgetError):
        list(enumerate_assignments(30, 3, 3))


# --------------------------------------------------------------- brute force

def test_pigeonhole_forces_one_drop():
    result = brute_force_best(5, 2, 2, fit_cfg(w=2))
    assert result.optimum == 100.0


def test_balanced_assignment_reaches_zero():
    result = brute_force_best(6, 3, 3, fit_cfg(w=2))
    assert result.optimum == 0.0


def test_one_column_must_exceed_threshold():
    result = brute_force_best(7, 3, 3, fit_cfg(w=2))
    assert result.optimum == 1.0


def test_optimum_bounds_every_assignment():
    cfg = fit_cfg(w=1)
    result = brute_force_best(4, 2, 2, cfg)
    for assignment in enumerate_assignments(4, 2, 2):
        assert _assignment_fitness(assignment, 2, cfg) >= result.optimum


def test_witness_recomputation_matches_optimum():
    cfg = fit_cfg(w=1)
    result = brute_force_best(5, 3, 2, cfg)
    matrix = assignment_to_matrix(result.witness, 3)
    assert schedule_fitness(matrix, cfg) == result.optimum


def test_optimum_count_is_positive_and_consistent():
    cfg = fit_cfg(w=2)
    result = brute_force_best(4, 2, 3, cfg)
    count = sum(
        1
        for a in enumerate_assignments(4, 2, 3)
        if _assignment_fitness(a, 2, cfg) == result.optimum
    )
    assert result.count == count > 0


def test_optimum_invariant_under_job_relabeling():
    # jobs are exchangeable: the job count alone fixes the optimum
    cfg = fit_cfg(w=1)
    a = brute_force_best(5, 2, 3, cfg)
    b = brute_force_best(5, 2, 3, cfg)
    assert a.optimum == b.optimum
    permuted = tuple(reversed(a.witness))
    assert _assignment_fitness(permuted, 2, cfg) == a.optimum


def test_assignment_fitness_agrees_with_matrix_route():
    cfg = fit_cfg(w=1)
    for assignment in enumerate_assignments(4, 2, 2):
        direct = _assignment_fitness(assignment, 2, cfg)
        via_matrix = schedule_fitness(assignment_to_matrix(assignment, 2), cfg)
        assert direct == via_matrix


# ------------------------------------------------- load-vector scan vs reference

def test_brute_force_matches_assignment_scan():
    for job_count, k, m in itertools.product(range(1, 8), range(1, 4), range(1, 4)):
        for w in range(m + 1):
            for drop_weight, overload_weight in ((100.0, 1.0), (100.0, 150.0), (0.5, 1.0)):
                cfg = SchedulerFitnessConfig(
                    overload=OverloadConfig(w=w, delta=0),
                    drop_weight=drop_weight,
                    overload_weight=overload_weight,
                )
                got = brute_force_best(job_count, k, m, cfg)
                assert got == _reference_best(job_count, k, m, cfg), (job_count, k, m, w, cfg)


def test_brute_force_is_exact_far_beyond_assignment_budget():
    # 7^60 assignments; 12 jobs cannot be placed and nothing overloads
    result = brute_force_best(60, 6, 8, fit_cfg(w=8))
    assert result.optimum == 1200.0
    assert result.count == math.factorial(60) // (
        math.factorial(12) * math.factorial(8) ** 6
    )
    assert result.witness == tuple(
        col for col in range(1, 7) for _ in range(8)
    ) + (None,) * 12


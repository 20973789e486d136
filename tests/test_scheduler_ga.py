import random

import pytest

from gasched import (
    GaConfig,
    Job,
    OverloadConfig,
    ScheduleMatrix,
    SchedulerFitnessConfig,
    SchedulingProblem,
    column_loads,
    decode_schedule,
    make_fitness,
    mutate_dropped_rows,
    optimize_schedule,
    random_genome,
    rebalance_crossover,
    repair_rows,
    schedule_fitness,
)
from gasched.errors import DimensionError
from gasched.scheduler_ga import random_placement_genome

from conftest import random_matrix


def fit_cfg(w=2, delta=0, **kwargs):
    return SchedulerFitnessConfig(overload=OverloadConfig(w=w, delta=delta), **kwargs)


def problem(J, k, m, w, delta, seed=0, population=40, generations=200):
    return SchedulingProblem(
        jobs=[Job(i, 1, 0) for i in range(J)],
        k=k,
        m=m,
        fitness_cfg=fit_cfg(w=w, delta=delta),
        ga_cfg=GaConfig(
            population_size=population, max_generations=generations, rng_seed=seed
        ),
    )


def count_stats(matrix, w):
    drops = len(matrix.dropped_rows())
    loads = column_loads(matrix)
    overloads = sum(1 for load in loads if load > w)
    violations = sum(
        max(0, int(row.sum()) - 1) for row in (matrix.head, *matrix.body)
    )
    return drops, overloads, violations


# --------------------------------------------------------- schedule_fitness

def test_fitness_zero_on_clean_matrix():
    m = ScheduleMatrix.empty(3, 2)
    m.body[0, 0] = 1
    m.labels[1] = 1
    assert schedule_fitness(m, fit_cfg(w=2)) == 0.0


def test_fitness_arithmetic_with_default_weights():
    # one dropped row plus two overloaded columns
    m = ScheduleMatrix.empty(5, 2)
    for i in range(3):
        m.body[i, 0] = 1
        m.labels[i + 1] = i
    m.body[3, 1] = 1
    m.body[4, 1] = 1
    m.labels[4] = 10
    m.labels[5] = 11
    dropped = ScheduleMatrix.empty(5, 2)
    dropped.body[:] = m.body
    dropped.labels = list(m.labels)
    dropped.body[0, :] = 0  # job 0 keeps its label but loses its slot
    assert count_stats(dropped, 1) == (1, 2, 0)
    assert schedule_fitness(dropped, fit_cfg(w=1)) == 102.0


def test_fitness_zero_iff_no_defects(rng):
    cfg = fit_cfg(w=1)
    for _ in range(300):
        matrix = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 4), labeled=True)
        value = schedule_fitness(matrix, cfg)
        assert value == 0.0 or count_stats(matrix, 1) != (0, 0, 0)
        if count_stats(matrix, 1) == (0, 0, 0):
            assert value == 0.0


def test_fitness_recount_oracle(rng):
    cfg = fit_cfg(w=1)
    for _ in range(300):
        matrix = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 4), labeled=True)
        drops, overloads, _ = count_stats(matrix, 1)
        expected = 100.0 * drops + 1.0 * overloads
        assert schedule_fitness(matrix, cfg) == expected


# ------------------------------------------------------------------ feasible

def feasible(matrix, cfg):
    """True iff every row waits at <= 1 machine and at most ``delta``
    machines are overloaded."""
    if any(int(row.sum()) > 1 for row in (matrix.head, *matrix.body)):
        return False
    overloads = sum(1 for load in column_loads(matrix) if load > cfg.overload.w)
    return overloads <= cfg.overload.delta


def test_feasible_on_empty_matrix():
    assert feasible(ScheduleMatrix.empty(2, 2), fit_cfg(w=1, delta=0))


def test_row_violation_is_infeasible():
    m = ScheduleMatrix.empty(1, 2)
    m.body[0] = [1, 1]
    m.labels[1] = 1
    assert not feasible(m, fit_cfg(w=1, delta=2))


def test_feasible_matches_direct_recount(rng):
    for _ in range(300):
        matrix = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 4), labeled=True)
        w = rng.randint(0, 3)
        delta = rng.randint(0, matrix.k)
        cfg = fit_cfg(w=w, delta=delta)
        rows_ok = all(int(r.sum()) <= 1 for r in (matrix.head, *matrix.body))
        over = sum(1 for load in column_loads(matrix) if load > w)
        assert feasible(matrix, cfg) == (rows_ok and over <= delta)


# -------------------------------------------------- genome decode and score

def test_make_fitness_matches_matrix_path(rng):
    for _ in range(200):
        job_count = rng.randint(1, 6)
        k = rng.randint(1, 4)
        m = rng.randint(1, 3)
        cfg = fit_cfg(w=rng.randint(1, m), delta=0)
        fitness = make_fitness(job_count, k, m, cfg)
        genome = random_genome(job_count * k, rng)
        decoded = decode_schedule(genome, list(range(job_count)), k, m)
        assert fitness(genome) == schedule_fitness(decoded, cfg)


def test_make_fitness_rejects_wrong_length():
    fitness = make_fitness(3, 2, 2, fit_cfg())
    with pytest.raises(DimensionError):
        fitness(random_genome(5, random.Random(0)))


def test_random_placement_respects_capacity(rng):
    for _ in range(200):
        job_count = rng.randint(1, 8)
        k = rng.randint(1, 4)
        m = rng.randint(1, 3)
        genome = random_placement_genome(job_count, k, m, rng)
        decoded = decode_schedule(genome, list(range(job_count)), k, m)
        assert max(column_loads(decoded)) <= m
        assert all(int(row.sum()) <= 1 for row in decoded.body)


# --------------------------------------------------------- optimize_schedule

def test_two_jobs_two_machines_is_solved_exactly():
    result = optimize_schedule(problem(J=2, k=2, m=1, w=1, delta=0))
    assert result.fitness == 0.0
    assert column_loads(result.matrix) == [1, 1]


def test_capacity_bound_forces_one_drop():
    result = optimize_schedule(problem(J=5, k=2, m=2, w=2, delta=0))
    assert result.fitness == 100.0
    assert len(result.matrix.dropped_rows()) == 1


def test_balanced_solution_found_with_seed_sweep():
    best = min(
        optimize_schedule(problem(J=6, k=3, m=3, w=2, delta=0, seed=s)).fitness
        for s in range(5)
    )
    assert best == 0.0


def test_optimizer_never_beats_initial_population_best():
    result = optimize_schedule(problem(J=7, k=3, m=3, w=1, delta=0, seed=4))
    assert result.fitness <= result.history[0]


def test_problem_rejects_w_above_queue_depth():
    with pytest.raises(ValueError):
        problem(J=2, k=2, m=1, w=2, delta=0)


def test_problem_rejects_empty_jobs():
    with pytest.raises(ValueError):
        SchedulingProblem(
            jobs=[],
            k=1,
            m=1,
            fitness_cfg=fit_cfg(w=1),
            ga_cfg=GaConfig(population_size=4, max_generations=5),
        )


# ------------------------------------------------------------- final polish

def test_polish_never_increases_fitness(rng):
    for _ in range(300):
        m_rows = rng.randint(1, 6)
        k = rng.randint(1, 4)
        cfg = fit_cfg(w=rng.randint(1, m_rows), delta=rng.randint(0, k))
        matrix = repair_rows(random_matrix(rng, m_rows, k, labeled=True))
        before = schedule_fitness(matrix, cfg)
        polish_rng = random.Random(0)
        out, _ = rebalance_crossover(matrix, cfg.overload)
        out = mutate_dropped_rows(out, polish_rng, max_load=m_rows)
        assert schedule_fitness(out, cfg) <= before

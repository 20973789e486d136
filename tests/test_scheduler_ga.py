import random
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gasched import (
    GaConfig,
    Genome,
    Job,
    OverloadConfig,
    ScheduleMatrix,
    SchedulerFitnessConfig,
    SchedulingProblem,
    brute_force_best,
    column_loads,
    decode_schedule,
    make_fitness,
    optimize_schedule,
    random_genome,
    repair_rows,
    run,
    schedule_fitness,
)
from gasched import ga_core, oracle, scheduler_ga
from gasched.errors import ConfigError, DimensionError
from gasched.schedule_matrix import _rebalance_crossover_inplace
from gasched.scheduler_ga import _polish, random_placement_genome, score

from conftest import on_copy, pack, random_matrix


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

@settings(max_examples=300)
@given(
    st.floats(), st.floats(), st.integers(0, 8),
    st.lists(st.integers(0, 2**20), max_size=8), st.integers(0, 2**20),
)
@example(float("inf"), 1.0, 1, [2], 0)  # inf * 0 drops would score NaN
@example(1.0, float("inf"), 1, [0], 0)
def test_score_is_never_negative_under_accepted_weights(drop_weight, overload_weight, w, loads, drops):
    # the premise of optimize_schedule's floor=0.0: a weight rule that let a
    # score fall below 0 would cut searches short without a word
    try:
        cfg = fit_cfg(w=w, drop_weight=drop_weight, overload_weight=overload_weight)
    except ConfigError:
        return
    assert score(sum(load > cfg.overload.w for load in loads), drops, cfg) >= 0


def test_fitness_zero_on_clean_matrix():
    m = ScheduleMatrix.empty(3, 2)
    m.rows[1] = 0b01
    m.labels[1] = 1
    assert schedule_fitness(m, fit_cfg(w=2)) == 0.0


def test_fitness_arithmetic_with_default_weights():
    # one dropped row plus two overloaded columns
    m = ScheduleMatrix.empty(5, 2)
    for i in range(3):
        m.rows[i + 1] = 0b01
        m.labels[i + 1] = i
    m.rows[4] = 0b10
    m.rows[5] = 0b10
    m.labels[4] = 10
    m.labels[5] = 11
    dropped = ScheduleMatrix.empty(5, 2)
    dropped.rows[1:] = m.rows[1:]
    dropped.labels = list(m.labels)
    dropped.rows[1] = 0  # job 0 keeps its label but loses its slot
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


def test_every_objective_caller_goes_through_score(monkeypatch):
    # score is the one place the weights are applied: each caller's score
    # must come from a score call made in its own frame
    callers = []

    def counted(*args):
        callers.append(sys._getframe(1).f_code.co_name)
        return score(*args)

    monkeypatch.setattr(scheduler_ga, "score", counted)
    monkeypatch.setattr(oracle, "score", counted)
    cfg = fit_cfg(w=1)
    genome = Genome((1, 0, 0, 1, 1, 0))
    assert make_fitness(3, 2, 2, cfg)(genome) == 1.0  # machine 1 holds 2 > w jobs
    assert callers == ["fitness"]
    callers.clear()
    assert schedule_fitness(decode_schedule(genome, [0, 1, 2], 2, 2), cfg) == 1.0
    assert callers == ["schedule_fitness"]
    callers.clear()
    optimize_schedule(problem(J=11, k=3, m=3, w=2, delta=0, generations=5))
    assert {"fitness", "_polish"} <= set(callers)
    callers.clear()
    assert brute_force_best(7, 3, 3, cfg).optimum == 2.0
    assert {"brute_force_best", "schedule_fitness"} == set(callers)


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
    m.rows[1] = 0b11
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

def two_step_decode(genome, job_ids, k, m):
    """Independent decode reference: row repair on the raw body, then the
    eviction of each column's rows beyond the first ``m``."""
    job_count = len(job_ids)
    body = np.array(genome.bits, dtype=np.int8).reshape(job_count, k)
    matrix = repair_rows(
        ScheduleMatrix(job_count, k, [0, *map(pack, body)], [None, *job_ids])
    )
    for j in range(k):
        for r in np.flatnonzero(matrix.body[:, j])[m:]:
            matrix.rows[r + 1] &= ~(1 << j)
    return matrix


@st.composite
def decode_cases(draw):
    job_count = draw(st.integers(1, 8))
    k = draw(st.integers(1, 10))  # machines may outnumber jobs
    m = draw(st.integers(1, 10))  # a column may have room for every job
    rows = draw(st.lists(st.integers(0, (1 << k) - 1), min_size=job_count,
                         max_size=job_count))  # 0 is an all-zero row
    mask = sum(row << (r * k) for r, row in enumerate(rows))
    return Genome._from_mask(mask, job_count * k), k, m


@settings(max_examples=300)
@given(decode_cases())
def test_decode_matches_two_step_reference(case):
    genome, k, m = case
    job_ids = [10 + r for r in range(genome.length // k)]
    assert decode_schedule(genome, job_ids, k, m) == two_step_decode(genome, job_ids, k, m)


def test_decode_keeps_first_m_rows_per_column():
    genome = Genome((1, 0, 1, 0, 1, 1, 0, 1))  # rows 10, 10, 11, 01
    out = decode_schedule(genome, [1, 2, 3, 4], 2, 2)
    assert out.body.tolist() == [[1, 0], [1, 0], [0, 0], [0, 1]]
    assert column_loads(out) == [2, 1]
    assert out.labels == [None, 1, 2, 3, 4]
    assert out.dropped_rows() == [2]


def test_decode_rejects_wrong_length():
    with pytest.raises(DimensionError):
        decode_schedule(Genome((1, 0, 1)), [1, 2], 2, 2)


def test_decode_rejects_repeated_job_ids():
    with pytest.raises(ValueError, match="unique"):
        decode_schedule(Genome((1, 0, 0, 1)), [1, 1], 2, 2)


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


def test_runs_that_score_zero_stop_at_that_generation():
    # criterion 2's grid; every instance with optimum 0 reaches it in
    # generation 0, so its history is that one entry
    grid = [
        (jobs, k, m, w, delta)
        for jobs in range(1, 8)
        for k in (1, 2, 3)
        for m in (1, 2, 3)
        for w in (1, 2)
        if w <= m
        for delta in (0, 1)
    ]
    zero = [inst for inst in grid if brute_force_best(*inst[:3], fit_cfg(*inst[3:])).optimum == 0]
    assert len(zero) == 84
    for jobs, k, m, w, delta in zero:
        for seed in range(3):
            assert optimize_schedule(problem(jobs, k, m, w, delta, seed=seed)).history == [0.0]


@st.composite
def small_shapes(draw):
    jobs, k, m = draw(st.integers(1, 7)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    return jobs, k, m, draw(st.integers(0, m)), draw(st.integers(0, k))


@settings(max_examples=150, deadline=None)
@given(small_shapes(), st.integers(0, 2**32 - 1), st.integers(4, 12))
def test_a_floor_at_the_optimum_only_cuts_the_history(shape, seed, population):
    # small populations make some runs evolve to the optimum, where a floor
    # above it would stop them early
    jobs, k, m, w, delta = shape
    p = problem(jobs, k, m, w, delta, seed=seed, population=population)
    optimum = brute_force_best(jobs, k, m, p.fitness_cfg).optimum
    free = optimize_schedule(p)
    floored = optimize_schedule(p, floor=optimum)
    assert floored.matrix == free.matrix
    assert floored.fitness == free.fitness
    reached = next((i for i, f in enumerate(free.history) if f <= optimum), len(free.history))
    assert floored.history == free.history[:reached + 1]


def test_a_floor_at_a_positive_optimum_skips_every_generation_step(monkeypatch):
    steps = []
    step = ga_core._breed

    def counted(*args):
        steps.append(1)
        return step(*args)

    monkeypatch.setattr(ga_core, "_breed", counted)
    p = problem(J=7, k=3, m=3, w=1, delta=0)
    optimum = brute_force_best(7, 3, 3, p.fitness_cfg).optimum
    assert optimum == 2.0
    assert optimize_schedule(p, floor=optimum).history == [optimum]
    assert steps == []
    optimize_schedule(p)
    assert steps


@pytest.mark.parametrize("shape, optimum", [((7, 3, 3, 1, 0), 2.0), ((3, 3, 3, 2, 0), 0.0)],
                         ids=["positive-optimum", "zero-optimum"])
def test_a_run_at_its_floor_decodes_and_polishes_only_on_the_first_matrix_read(
        monkeypatch, shape, optimum):
    calls = []
    for name in ("decode_schedule", "_polish"):
        def counted(*args, name=name, fn=getattr(scheduler_ga, name)):
            calls.append(name)
            return fn(*args)
        monkeypatch.setattr(scheduler_ga, name, counted)
    p = problem(*shape)
    # -1 lies below every score, so this run never ends at its floor
    free = optimize_schedule(p, floor=-1.0)
    assert calls == ["decode_schedule", "_polish"]
    calls.clear()
    floored = optimize_schedule(p, floor=optimum)
    assert floored.history == [optimum] and floored.fitness == optimum
    assert calls == []
    matrix = floored.matrix
    assert floored.matrix is matrix
    assert calls == ["decode_schedule", "_polish"]
    assert matrix == free.matrix and floored.fitness == free.fitness
    assert schedule_fitness(matrix, p.fitness_cfg) == floored.fitness


def test_optimizer_never_beats_initial_population_best():
    result = optimize_schedule(problem(J=7, k=3, m=3, w=1, delta=0, seed=4))
    assert result.fitness <= result.history[0]


def test_problem_rejects_w_above_queue_depth():
    with pytest.raises(ValueError):
        problem(J=2, k=2, m=1, w=2, delta=0)


def test_problem_rejects_repeated_job_ids():
    with pytest.raises(ConfigError, match="^workload: job ids must be unique$"):
        SchedulingProblem(
            jobs=[Job(1, 1, 0), Job(1, 1, 0), Job(2, 1, 0)],
            k=2,
            m=2,
            fitness_cfg=fit_cfg(w=1),
            ga_cfg=GaConfig(population_size=4, max_generations=5),
        )


def test_optimize_builds_at_most_two_matrices(monkeypatch):
    # one for the decoded best genome, one for the polished copy
    built = []
    check = ScheduleMatrix.__post_init__

    def counted(self):
        built.append(self)
        check(self)

    monkeypatch.setattr(ScheduleMatrix, "__post_init__", counted)
    result = optimize_schedule(problem(J=11, k=3, m=3, w=2, delta=0, generations=5))
    assert len(result.matrix.dropped_rows()) == 2  # 11 jobs, 3 x 3 queue slots
    assert len(built) <= 2


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

def capacity_requeue(matrix, m):
    """Reference requeue: each dropped row goes to the least-loaded column
    below ``m``, ties to the lowest index; rows with no room stay dropped."""
    out = matrix.copy()
    for i in out.dropped_rows():
        loads = column_loads(out)
        candidates = [j for j in range(out.k) if loads[j] < m]
        if candidates:
            out.rows[i + 1] |= 1 << min(candidates, key=lambda j: (loads[j], j))
    return out


def test_polish_requeue_respects_queue_depth():
    # two jobs queued at machine 1, two dropped
    matrix = ScheduleMatrix(4, 2, [0, 0b01, 0b01, 0, 0], [None, 1, 2, 3, 4])
    out, value = _polish(matrix, 2, fit_cfg(w=2))
    assert column_loads(out) == [2, 2]
    assert out.dropped_rows() == [] and value == 0.0  # room existed in column 2
    full = ScheduleMatrix.empty(3, 1)
    full.rows[1:3] = [1, 1]
    full.labels = [None, 1, 2, 3]
    out, value = _polish(full, 2, fit_cfg(w=2))
    assert out.dropped_rows() == [2] and value == 100.0  # no room anywhere


def test_polish_equals_rebalance_then_capacity_requeue_and_keeps_input(rng):
    for _ in range(300):
        m_rows = rng.randint(1, 6)
        k = rng.randint(1, 4)
        m = rng.randint(1, m_rows)
        cfg = fit_cfg(w=rng.randint(0, m), delta=rng.randint(0, k))
        matrix = repair_rows(random_matrix(rng, m_rows, k, labeled=True))
        before = matrix.copy()
        out, value = _polish(matrix, m, cfg)
        assert matrix == before
        rebalanced, _ = on_copy(_rebalance_crossover_inplace, matrix, cfg.overload)
        assert out == capacity_requeue(rebalanced, m)
        assert value == schedule_fitness(out, cfg)


def validated_rebuild(matrix):
    rows = [pack(row) for row in (matrix.head, *matrix.body)]
    return ScheduleMatrix(matrix.m, matrix.k, rows, list(matrix.labels))


def test_decode_and_polish_build_matrices_the_validating_constructor_accepts(rng):
    # both build their matrix unchecked; a rebuild through the public
    # constructor must accept it and equal it, with the same int8 arrays
    for _ in range(300):
        job_count, k = rng.randint(1, 8), rng.randint(1, 4)
        m = rng.randint(1, 3)
        cfg = fit_cfg(w=rng.randint(0, m), delta=rng.randint(0, k))
        decoded = decode_schedule(random_genome(job_count * k, rng), list(range(job_count)), k, m)
        polished, _ = _polish(decoded, m, cfg)
        for matrix in (decoded, polished):
            assert matrix == validated_rebuild(matrix)
            assert matrix.head.dtype == matrix.body.dtype == np.int8


def test_polish_improves_on_the_ga_best_at_a_mid_size_shape():
    # (J, k, m, w, delta) = (50, 8, 8, 6, 2), optimum 1: the GA's best
    # leaves three machines above w, and the rebalance spreads load until
    # only delta = 2 are
    prob = problem(J=50, k=8, m=8, w=6, delta=2, seed=0)
    best, _ = run(
        lambda r: random_placement_genome(50, 8, 8, r),
        make_fitness(50, 8, 8, prob.fitness_cfg),
        prob.ga_cfg,
        floor=0.0,
    )
    assert best.fitness == 3.0
    assert optimize_schedule(prob).fitness == 2.0


def test_polish_never_increases_fitness(rng):
    for _ in range(300):
        m_rows = rng.randint(1, 6)
        k = rng.randint(1, 4)
        cfg = fit_cfg(w=rng.randint(1, m_rows), delta=rng.randint(0, k))
        matrix = repair_rows(random_matrix(rng, m_rows, k, labeled=True))
        before = schedule_fitness(matrix, cfg)
        out, value = _polish(matrix, m_rows, cfg)
        assert value == schedule_fitness(out, cfg) <= before

"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines and
per-criterion timings as they complete.
"""

import itertools
import random
import time

import numpy as np

from gasched import (
    GaConfig,
    Genome,
    Job,
    OverloadConfig,
    ScheduleMatrix,
    SchedulerFitnessConfig,
    SchedulingProblem,
    SimConfig,
    brute_force_best,
    column_loads,
    crossover,
    has_converged,
    inverse_select,
    optimize_schedule,
    random_genome,
    repair_rows,
    run,
    run_sim,
)
from gasched.schedule_matrix import (
    _mutate_dropped_rows_inplace,
    _rebalance_crossover_inplace,
    _shift_up_inplace,
)

from conftest import on_copy, popcount_fitness, random_matrix


def report(number: int, description: str, ok: bool, started: float) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"criterion {number}: {verdict} - {description} ({time.time() - started:.1f}s)")
    assert ok, f"criterion {number} failed: {description}"


# ---------------------------------------------------------------- criterion 1

def test_criterion_1_crossover_reproduces_reference_example():
    started = time.time()
    parent_a = Genome((0, 0, 1, 0, 1, 0, 1, 0, 1, 0))
    parent_b = Genome((1, 0, 1, 0, 0, 0, 0, 0, 1, 1))
    agreement = {1: 0, 2: 1, 3: 0, 5: 0, 7: 0, 8: 1}
    printed_child = (0, 0, 1, 0, 1, 0, 0, 0, 1, 0)
    ok = True
    seen = set()
    for seed in range(256):
        child = crossover(parent_a, parent_b, random.Random(seed))
        seen.add(child.bits)
        ok = ok and all(child.bits[pos] == val for pos, val in agreement.items())
    ok = ok and printed_child in seen
    report(1, "agreement positions always inherited; reference child reached", ok, started)


# ---------------------------------------------------------------- criterion 2

def test_criterion_2_ga_matches_brute_force_on_full_grid():
    started = time.time()
    grid = [
        (jobs, k, m, w, delta)
        for jobs in range(1, 8)
        for k in (1, 2, 3)
        for m in (1, 2, 3)
        for w in (1, 2)
        if w <= m
        for delta in (0, 1)
    ]
    runs_per_instance = 100
    ok = True
    worst_rate = 1.0
    for jobs, k, m, w, delta in grid:
        fitness_cfg = SchedulerFitnessConfig(overload=OverloadConfig(w=w, delta=delta))
        oracle = brute_force_best(jobs, k, m, fitness_cfg)
        hits = 0
        for seed in range(runs_per_instance):
            problem = SchedulingProblem(
                jobs=[Job(i, 1, 0) for i in range(jobs)],
                k=k,
                m=m,
                fitness_cfg=fitness_cfg,
                ga_cfg=GaConfig(population_size=40, max_generations=200, rng_seed=seed),
            )
            if optimize_schedule(problem).fitness == oracle.optimum:
                hits += 1
        rate = hits / runs_per_instance
        worst_rate = min(worst_rate, rate)
        if rate < 0.95 or hits < 1:
            ok = False
            print(f"  instance J={jobs} k={k} m={m} w={w} d={delta}: {hits}/100")
    report(
        2,
        f"GA attains the exhaustive optimum on all {len(grid)} instances "
        f"(worst hit rate {worst_rate:.2f})",
        ok,
        started,
    )


# ---------------------------------------------------------------- criterion 3

def test_criterion_3_shift_equals_nilpotent_product():
    started = time.time()
    rng = random.Random(31)
    ok = True
    for _ in range(1000):
        m = rng.randint(1, 8)
        k = rng.randint(1, 8)
        matrix = random_matrix(rng, m, k)
        matrix.rows[0] = 0
        u = np.zeros((m, m), dtype=np.int8)
        for i in range(m - 1):
            u[i, i + 1] = 1
        shifted = matrix.copy()
        _shift_up_inplace(shifted)
        ok = ok and (shifted.body == u @ matrix.body).all()
        ok = ok and (shifted.head == matrix.body[0]).all()
        # m applications (with cleared heads) annihilate the body
        cleared = matrix.copy()
        for _ in range(m):
            cleared.rows[0], cleared.labels[0] = 0, None
            _shift_up_inplace(cleared)
        ok = ok and not cleared.body.any()
    report(3, "shift equals the dense superdiagonal product; m shifts zero the body", ok, started)


# ---------------------------------------------------------------- criterion 4

def test_criterion_4_row_repair_properties():
    started = time.time()
    rng = random.Random(47)
    ok = True
    for _ in range(1000):
        matrix = random_matrix(rng, rng.randint(1, 8), rng.randint(1, 8), density=0.5)
        repaired = repair_rows(matrix)
        rows_in = [matrix.head] + list(matrix.body)
        rows_out = [repaired.head] + list(repaired.body)
        ok = ok and all(int(r.sum()) <= 1 for r in rows_out)
        ok = ok and repair_rows(repaired) == repaired
        hamming = sum(int((a != b).sum()) for a, b in zip(rows_in, rows_out))
        ok = ok and hamming == sum(max(0, int(r.sum()) - 1) for r in rows_in)
    report(4, "repair yields row sums <= 1, idempotently, at minimal Hamming cost", ok, started)


# ---------------------------------------------------------------- criterion 5

def test_criterion_5_inverse_selection_and_rebalance():
    started = time.time()
    rng = random.Random(53)
    ok = True
    for _ in range(1000):
        m = rng.randint(1, 7)
        k = rng.randint(1, 6)
        matrix = repair_rows(random_matrix(rng, m, k, density=0.6))
        w = rng.randint(1, m)
        delta = rng.randint(0, k)
        cfg = OverloadConfig(w=w, delta=delta)
        loads = column_loads(matrix)
        ok = ok and inverse_select(matrix, cfg) == {
            j + 1 for j in range(k) if loads[j] > w
        }
        before = sum(1 for x in loads if x > w)
        balanced, _ = on_copy(_rebalance_crossover_inplace, matrix, cfg)
        after = sum(1 for x in column_loads(balanced) if x > w)
        ok = ok and int(balanced.body.sum()) == int(matrix.body.sum())
        ok = ok and after <= before
        if sum(loads) <= k * w:
            zeroed, _ = on_copy(_rebalance_crossover_inplace, matrix, OverloadConfig(w=w, delta=0))
            ok = ok and sum(1 for x in column_loads(zeroed) if x > w) == 0
    report(5, "inverse selection exact; rebalance conserves jobs and clears overloads", ok, started)


# ---------------------------------------------------------------- criterion 6

def test_criterion_6_dropped_row_mutation():
    started = time.time()
    rng = random.Random(59)
    ok = True
    for _ in range(300):
        matrix = repair_rows(random_matrix(rng, rng.randint(1, 6), rng.randint(1, 5), labeled=True))
        zero_rows = matrix.dropped_rows()
        mutated, _ = on_copy(_mutate_dropped_rows_inplace, matrix, rng)
        ok = ok and mutated.dropped_rows() == []
        ok = ok and all(int(mutated.body[i].sum()) == 1 for i in zero_rows)
    counts = [0, 0, 0, 0]
    trials = 10_000
    scratch = ScheduleMatrix.empty(1, 4)
    scratch.labels[1] = 1
    for _ in range(trials):
        out, _ = on_copy(_mutate_dropped_rows_inplace, scratch, rng)
        counts[int(np.argmax(out.body[0]))] += 1
    ok = ok and all(abs(c / trials - 0.25) <= 0.02 for c in counts)
    report(6, "dropped rows each gain exactly one 1; column choice uniform", ok, started)


# ---------------------------------------------------------------- criterion 7

def test_criterion_7_convergence_triggers():
    started = time.time()
    budget = GaConfig(population_size=4, max_generations=12, stagnation_window=50)
    ok = not has_converged(list(range(11)), budget)
    ok = ok and has_converged(list(range(12)), budget)
    stagnate = GaConfig(population_size=4, max_generations=1000, stagnation_window=4)
    history = [9.0, 8.0, 7.0, 6.0, 6.0, 6.0, 6.0]
    # first window of 4 unchanged steps closes at length 8, not before
    ok = ok and not has_converged(history, stagnate)
    history.append(6.0)
    ok = ok and has_converged(history, stagnate)
    report(7, "budget triggers at exactly G; stagnation at the first full window", ok, started)


# ---------------------------------------------------------------- criterion 8

def test_criterion_8_simulation_conservation_and_determinism():
    started = time.time()
    ok = True
    for q, jobs_n, horizon in itertools.product((0.0, 0.3, 1.0), (10, 50), (100, 500)):
        workload = [
            Job(i, 1 + i % 2, min(2 * i, horizon - 1)) for i in range(jobs_n)
        ]
        cfg = SimConfig(
            k=3,
            m=6,
            send_failure_prob=q,
            rebalance_interval=5,
            horizon=horizon,
            seed=17,
            overload=OverloadConfig(w=3, delta=0),
        )
        first = run_sim(cfg, workload)  # per-tick conservation audit inside
        second = run_sim(cfg, workload)
        ok = ok and first == second
        if q == 0.0 and horizon >= 2 * jobs_n + 10:
            ok = ok and first.dropped == 0
    report(8, "conservation audit clean; metrics deterministic; q=0 drops nothing", ok, started)


# ---------------------------------------------------------------- criterion 9

def test_criterion_9_elitism_keeps_history_non_increasing():
    started = time.time()
    ok = True
    fitness = popcount_fitness(14)
    for seed in range(100):
        cfg = GaConfig(
            population_size=16, max_generations=40, elite_count=2, rng_seed=seed
        )
        _, history = run(lambda r: random_genome(14, r), fitness, cfg)
        ok = ok and all(b <= a for a, b in zip(history, history[1:]))
    report(9, "best-fitness history never increases with elitism on", ok, started)

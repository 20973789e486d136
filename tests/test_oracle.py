import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gasched import (
    GaConfig,
    Job,
    OracleResult,
    OverloadConfig,
    SchedulerFitnessConfig,
    SchedulingProblem,
    brute_force_best,
    schedule_fitness,
)
from gasched import oracle
from gasched.errors import ConfigError, DimensionError
from gasched.oracle import PRODUCT_BUDGET, _spread_ways, assignment_to_matrix
from gasched.scheduler_ga import score

# the size limit of the two reference searches below
ENUMERATION_BUDGET = 10_000_000


class EnumerationBudgetError(Exception):
    """A reference search below would exceed ENUMERATION_BUDGET."""


def fit_cfg(w=2, delta=0):
    return SchedulerFitnessConfig(overload=OverloadConfig(w=w, delta=delta))


# ------------------------------------------------------- reference searches
# Two searches that brute_force_best replaced, as independent methods to
# check it against: the assignment-by-assignment search on small sizes, and
# the load-vector scan on mid sizes.

def enumerate_assignments(job_count, k, m):
    """Yield every capacity-respecting map of jobs to machines 1..k or
    ``None`` (drop), in lexicographic order with machines before the drop."""
    if job_count < 0 or k < 1 or m < 0:
        raise ValueError("need job_count >= 0, k >= 1, m >= 0")
    if (k + 1) ** job_count > ENUMERATION_BUDGET:
        raise EnumerationBudgetError(
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
    return score(sum(load > cfg.overload.w for load in loads), drops, cfg)


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


def scan_load_vectors(job_count, k, m, cfg):
    """The mid-size reference: scan every non-increasing load vector (each
    load at most min(m, J)), largest first, and count the assignments
    behind each optimal one with multinomials. The first optimal vector
    spelled out is the witness."""
    if job_count == 0:
        return OracleResult(optimum=0.0, witness=(), count=1)
    top = min(m, job_count)
    if math.comb(top + k, k) > ENUMERATION_BUDGET:
        raise EnumerationBudgetError("too many load vectors")
    fact = [math.factorial(n) for n in range(job_count + 1)]
    numerator = math.factorial(k) * fact[job_count]
    best = math.inf
    best_loads = []
    best_drops = count = 0
    loads = [0] * k
    drops = job_count
    idx = 0
    while True:
        for i in range(idx, k):
            loads[i] = min(loads[i - 1] if i else top, drops)
            drops -= loads[i]
        value = score(sum(load > cfg.overload.w for load in loads), drops, cfg)
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
    ) + (None,) * best_drops
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
    with pytest.raises(EnumerationBudgetError):
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


@pytest.mark.parametrize("machine", [0, -1, 4])
def test_assignment_to_matrix_rejects_a_machine_outside_1_to_k(machine):
    # 0 and -1 must not wrap round to machines k and k - 1 as negative indices
    with pytest.raises(DimensionError, match="job 1: machine"):
        assignment_to_matrix([3, machine, None], 3)


def test_assignment_fitness_agrees_with_matrix_route():
    cfg = fit_cfg(w=1)
    for assignment in enumerate_assignments(4, 2, 2):
        direct = _assignment_fitness(assignment, 2, cfg)
        via_matrix = schedule_fitness(assignment_to_matrix(assignment, 2), cfg)
        assert direct == via_matrix


def loop_spread_ways(placed, ranges):
    """The per-element loops of the full convolution that _spread_ways
    replaced: ways[t] for t = 0..placed, the maps of t labelled jobs onto
    one machine per (lo, hi) of ranges, each loaded in [lo, hi]; _spread_ways
    returns only ways[placed]."""
    ways = [1] + [0] * placed
    for lo, hi in ranges:
        row, new = [1] + [0] * hi, []  # row[l] = C(t, l), one Pascal step per t
        for t in range(placed + 1):
            for l in range(min(t, hi), 0, -1):
                row[l] += row[l - 1]
            new.append(sum(row[l] * ways[t - l] for l in range(lo, min(hi, t) + 1)))
        ways = new
    return ways


# ------------------------------------------------------ brute force vs references

def test_spread_ways_matches_the_per_element_loops():
    # brute_force_best's ranges: o machines in [w + 1, top], k - o in [0, low],
    # for every placed <= 40; J < m gives the ranges of m = J. o runs 0..k,
    # k = 1 makes the first machine also the last, and w = m puts lo above top
    for m, k in itertools.product(range(1, 9), range(1, 7)):
        for w, o in itertools.product(range(m + 1), range(k + 1)):
            ranges = [(w + 1, m)] * o + [(0, w)] * (k - o)
            reference = loop_spread_ways(40, ranges)
            for placed in range(41):
                assert _spread_ways(placed, ranges) == reference[placed], (m, k, w, o, placed)


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



WEIGHTS = st.sampled_from([
    (100.0, 1.0), (100.0, 150.0), (0.5, 1.0), (0.25, 100.0), (1.0, 1.0),
    (2.0, 3.0), (3.0, 2.0), (1.0, 0.0), (100.0, 0.0),
])


@settings(max_examples=300, deadline=None)
@given(
    job_count=st.integers(0, 40),
    k=st.integers(1, 6),
    m=st.integers(1, 8),
    w_frac=st.floats(0, 1),
    weights=WEIGHTS,
)
def test_brute_force_matches_load_vector_scan(job_count, k, m, w_frac, weights):
    # the weights include drop_weight < overload_weight, overload_weight 0
    # and ratios that tie two overload counts
    w = round(w_frac * m)
    cfg = SchedulerFitnessConfig(
        overload=OverloadConfig(w=w, delta=0),
        drop_weight=weights[0],
        overload_weight=weights[1],
    )
    assert brute_force_best(job_count, k, m, cfg) == scan_load_vectors(job_count, k, m, cfg)


def test_tied_overload_counts_sum_and_witness_is_the_largest_vector():
    # overload_weight 0: placing all 3 jobs as [2, 1] (o = 0) or [3, 0]
    # (o = 1) both score 0; the witness spells out [3, 0]
    cfg = SchedulerFitnessConfig(overload=OverloadConfig(w=2, delta=0), overload_weight=0.0)
    result = brute_force_best(3, 2, 3, cfg)
    assert result == OracleResult(optimum=0.0, witness=(1, 1, 1), count=8)
    assert result == scan_load_vectors(3, 2, 3, cfg)


def test_brute_force_is_exact_far_beyond_load_vector_budget():
    # C(32, 12) = 225,792,840 load vectors; every machine takes 20 jobs, all
    # 12 overload, and 60 jobs are dropped: 100*60 + 12
    assert math.comb(20 + 12, 12) > ENUMERATION_BUDGET
    result = brute_force_best(300, 12, 20, fit_cfg(w=10))
    assert result.optimum == 6012.0
    assert result.count == math.comb(300, 240) * math.factorial(240) // math.factorial(20) ** 12
    assert result.witness == tuple(
        col for col in range(1, 13) for _ in range(20)
    ) + (None,) * 60


@pytest.mark.parametrize(
    "job_count, k, m, w, optimum, count",
    [
        # nothing overloads or drops: each job takes any of the 12 machines
        (120, 12, 120, 120, 0.0, 12**120),
        # one job per machine: the orderings of the 200 jobs
        (200, 200, 1, 1, 0.0, math.factorial(200)),
        # 150 machines overload at load 1, their lo, and 50 stay empty
        (150, 200, 1, 0, 150.0, math.factorial(200) // math.factorial(50)),
    ],
    ids=["all-fit", "one-per-machine", "overloaded-at-lo"],
)
def test_brute_force_counts_closed_forms_past_the_enumerators(job_count, k, m, w,
                                                              optimum, count):
    result = brute_force_best(job_count, k, m, fit_cfg(w=w))
    assert (result.optimum, result.count) == (optimum, count)


def test_brute_force_at_the_machine_cap_scores_candidates_from_counts():
    # 1024 jobs on the CLI's 1024 machines, m = 1, w = 0: each overloaded
    # machine costs 10^4 and saves one 100 drop, so dropping all 1024 jobs
    # is the one optimal assignment
    cfg = SchedulerFitnessConfig(overload=OverloadConfig(w=0, delta=0), overload_weight=1e4)
    result = brute_force_best(1024, 1024, 1, cfg)
    assert result == OracleResult(optimum=102400.0, witness=(None,) * 1024, count=1)


def test_brute_force_over_product_budget_reports_no_count():
    # all 3000 jobs fit below w on 64 machines: counting them takes
    # 64 * 3001 * 65 products, but the optimum and witness cost O(k + J)
    assert 64 * 3001 * 65 > PRODUCT_BUDGET
    cfg = fit_cfg(w=48)
    result = brute_force_best(3000, 64, 64, cfg)
    assert result.optimum == 0.0
    assert result.count is None
    assert schedule_fitness(assignment_to_matrix(result.witness, 64), cfg) == result.optimum


def test_brute_force_reports_no_count_of_more_than_4300_digits():
    # 1500 of 5000 jobs fit on 150 machines with m = w = 10; the count of
    # optimal assignments fits the product budget but has 4456 digits, more
    # than json.dumps writes
    cfg = fit_cfg(w=10, delta=1)
    assert 150 * 1501 * 11 <= PRODUCT_BUDGET
    result = brute_force_best(5000, 150, 10, cfg)
    assert result.optimum == 100.0 * 3500 == 350000.0
    assert result.count is None
    assert result.witness == tuple(
        col for col in range(1, 151) for _ in range(10)
    ) + (None,) * 3500


def test_the_count_never_steers_the_optimum_or_witness(monkeypatch):
    # over the reference searches' sizes, with ties between overload counts
    # (overload_weight 0): with no budget for the count, the optimum and the
    # witness are unchanged and the count is None
    shapes = [
        (job_count, k, m, w, weights)
        for job_count, k, m in itertools.product(
            [*range(1, 8), *range(10, 41, 5)], range(1, 7), range(1, 9)
        )
        for w in range(m + 1)
        for weights in [(100.0, 1.0), (100.0, 150.0), (0.5, 1.0), (1.0, 0.0), (2.0, 3.0)]
    ]

    def run(job_count, k, m, w, weights):
        cfg = SchedulerFitnessConfig(
            overload=OverloadConfig(w=w, delta=0),
            drop_weight=weights[0],
            overload_weight=weights[1],
        )
        return brute_force_best(job_count, k, m, cfg)

    counted = [run(*shape) for shape in shapes]
    monkeypatch.setattr(oracle, "PRODUCT_BUDGET", 0)
    for shape, full in zip(shapes, counted):
        assert full.count is not None, shape
        got = run(*shape)
        assert (got.optimum, got.witness) == (full.optimum, full.witness), shape
        assert got.count is None, shape


@pytest.mark.parametrize(
    "job_count, k, m, w, drop_weight, overload_weight",
    [
        (1, 1, 1, 0, 100.0, 1.0),
        (5, 2, 2, 2, 100.0, 1.0),
        (6, 3, 3, 2, 100.0, 1.0),
        (7, 3, 3, 1, 100.0, 1.0),
        (9, 3, 3, 1, 100.0, 1.0),
        (11, 3, 3, 3, 100.0, 1.0),
        (12, 4, 3, 2, 100.0, 1.0),
        (20, 5, 4, 2, 100.0, 1.0),
        (30, 4, 8, 8, 100.0, 1.0),
        (40, 6, 8, 4, 100.0, 1.0),
        (7, 3, 3, 1, 1.0, 0.0),
        (10, 3, 4, 1, 100.0, 150.0),
    ],
)
def test_the_count_is_none_exactly_at_the_limit(monkeypatch, job_count, k, m, w,
                                                 drop_weight, overload_weight):
    # the lower bound that skips the convolution must never reach the limit
    # before the count does
    cfg = SchedulerFitnessConfig(
        overload=OverloadConfig(w=w, delta=0),
        drop_weight=drop_weight,
        overload_weight=overload_weight,
    )
    full = brute_force_best(job_count, k, m, cfg)
    assert full.count is not None
    monkeypatch.setattr(oracle, "COUNT_LIMIT", full.count)
    assert brute_force_best(job_count, k, m, cfg) == OracleResult(full.optimum, full.witness, None)
    monkeypatch.setattr(oracle, "COUNT_LIMIT", full.count + 1)
    assert brute_force_best(job_count, k, m, cfg) == full


@pytest.mark.parametrize(
    "drop_weight, overload_weight, key",
    [(1e308, 1e308, "drop_weight"), (1e308, 0.0, "drop_weight"),
     (1e300, 1e308, "overload_weight")],
)
def test_weights_that_overflow_a_score_raise_config_error(drop_weight, overload_weight, key):
    # 11 jobs on 3 machines: drop_weight*11 + overload_weight*3 is infinite
    cfg = SchedulerFitnessConfig(
        overload=OverloadConfig(w=2, delta=0),
        drop_weight=drop_weight,
        overload_weight=overload_weight,
    )
    with pytest.raises(ConfigError) as info:
        brute_force_best(11, 3, 3, cfg)
    assert info.value.key == key
    with pytest.raises(ConfigError) as info:
        SchedulingProblem(jobs=[Job(i, 1, 0) for i in range(11)], k=3, m=3,
                          fitness_cfg=cfg, ga_cfg=GaConfig(population_size=4, max_generations=1))
    assert info.value.key == key

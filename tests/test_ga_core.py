import dataclasses
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gasched import (
    GaConfig,
    Genome,
    Individual,
    Population,
    crossover,
    has_converged,
    random_genome,
    run,
    select_parents,
    step_generation,
)
import gasched
from gasched import ga_core
from gasched.errors import DimensionError, StateError
from gasched.ga_core import _score, stream

from conftest import flip_mask, popcount_fitness

# ten-bit parent pair whose agreement positions (0-based 1,2,3,5,7,8) must
# always survive crossover, plus one known admissible child
PARENT_A = Genome((0, 0, 1, 0, 1, 0, 1, 0, 1, 0))
PARENT_B = Genome((1, 0, 1, 0, 0, 0, 0, 0, 1, 1))
AGREEMENT = {1: 0, 2: 1, 3: 0, 5: 0, 7: 0, 8: 1}
KNOWN_CHILD = (0, 0, 1, 0, 1, 0, 0, 0, 1, 0)

genomes = st.lists(st.integers(0, 1), min_size=1, max_size=40).map(
    lambda bits: Genome(tuple(bits))
)


def scored_population(genomes_, fitness):
    return Population([Individual(g, fitness(g)) for g in genomes_])


def make_population(bit_rows, fitnesses=None):
    members = [Individual(Genome(tuple(bits))) for bits in bit_rows]
    if fitnesses is not None:
        for ind, f in zip(members, fitnesses):
            ind.fitness = f
    return Population(members)


class ScriptedRng:
    """Replays a fixed list of getrandbits draws as tournament indices;
    each value is below the population size, so none is rejected."""

    def __init__(self, draws):
        self.draws = list(draws)

    def getrandbits(self, _k):
        return self.draws.pop(0)


# -------------------------------------------------------- public surface

def test_public_surface_resolves_and_keeps_one_form_per_operator():
    assert len(set(gasched.__all__)) == len(gasched.__all__)
    assert all(hasattr(gasched, name) for name in gasched.__all__)
    namespace = {}
    exec("from gasched import *", namespace)
    assert set(gasched.__all__) <= namespace.keys()
    # mutation and scoring exist once, as the cores step_generation runs
    for name in ("mutate", "evaluate"):
        assert name not in gasched.__all__
        assert not hasattr(gasched, name)
        assert not hasattr(ga_core, name)


# ---------------------------------------------------------------- genome

def test_genome_rejects_non_binary_and_empty():
    with pytest.raises(ValueError):
        Genome((0, 2, 1))
    with pytest.raises(DimensionError):
        Genome(())


def test_random_genome_length_and_determinism():
    g1 = random_genome(16, random.Random(7))
    g2 = random_genome(16, random.Random(7))
    assert len(g1) == 16
    assert g1 == g2


# ---------------------------------------------------------------- scoring
# _score is the one form of evaluation: run scores generation 0 with it,
# and the breeding core each child as it is bred

def test_evaluate_all_zero_genomes():
    fitness = popcount_fitness(3)
    assert [_score(Genome((0, 0, 0)), fitness) for _ in range(3)] == [0.0, 0.0, 0.0]


def test_evaluate_counts_bits():
    fitness = popcount_fitness(2)
    assert [_score(Genome(bits), fitness) for bits in [(1, 1), (0, 1)]] == [2.0, 1.0]


def test_evaluate_min_matches_direct_scan(rng):
    genomes_ = [random_genome(20, rng) for _ in range(50)]
    out = [_score(g, popcount_fitness(20)) for g in genomes_]
    # independent oracle: linear scan of raw bit counts
    expected_min = min(sum(g.bits) for g in genomes_)
    assert min(out) == expected_min


def test_evaluate_preserves_order_and_genomes(rng):
    genomes_ = [random_genome(8, rng) for _ in range(10)]
    out = [_score(g, popcount_fitness(8)) for g in genomes_]
    assert out == [float(sum(g.bits)) for g in genomes_]


def test_evaluate_propagates_dimension_error():
    with pytest.raises(DimensionError):
        _score(Genome((1, 0)), popcount_fitness(3))


def test_unevaluated_individual_is_distinct_from_fitness_zero():
    ind = Individual(Genome((0,)))
    assert ind.fitness is None


def test_public_population_constructor_still_validates():
    with pytest.raises(ValueError):
        make_population([(0, 1)])
    with pytest.raises(DimensionError):
        make_population([(0, 1), (0, 1, 1)])


def test_run_validates_only_the_initial_population(monkeypatch):
    # run checks each member's length as it builds generation 0, and every
    # later generation comes from operators that keep length
    checks = []
    validate = Population.__post_init__

    def counted(self):
        checks.append(self.size)
        validate(self)

    monkeypatch.setattr(Population, "__post_init__", counted)
    cfg = GaConfig(population_size=6, max_generations=5, stagnation_window=50)
    _, history = run(lambda r: random_genome(12, r), popcount_fitness(12), cfg)
    assert len(history) == 5
    assert checks == []


# -------------------------------------------------------- select_parents

def test_select_parents_smallest_case():
    pop = make_population([(1, 1), (0, 1)], fitnesses=[5.0, 1.0])
    cfg = GaConfig(population_size=2, max_generations=10, elite_count=1)
    sel = select_parents(pop, cfg, random.Random(0))
    assert len(sel.pairs) == 1
    assert len(sel.elites) == 1
    assert sel.elites[0].fitness == 1.0


def test_select_parents_requires_evaluated_population():
    pop = make_population([(1, 1), (0, 1)])
    cfg = GaConfig(population_size=2, max_generations=10, elite_count=1)
    with pytest.raises(StateError):
        select_parents(pop, cfg, random.Random(0))


def test_select_parents_tie_breaks_to_lower_index():
    pop = make_population([(0, 0), (1, 1)], fitnesses=[3.0, 3.0])
    cfg = GaConfig(population_size=2, max_generations=10, elite_count=0)
    sel = select_parents(pop, cfg, ScriptedRng([0, 1, 1, 0, 1, 1, 0, 0]))
    winners = [m for pair in sel.pairs for m in pair]
    # draws (0,1) and (1,0) tie -> index 0; (1,1) -> 1; (0,0) -> 0
    assert [pop.members.index(w) for w in winners] == [0, 0, 1, 0]


def test_select_parents_equal_fitness_reproducible():
    pop = make_population([(0, 0)] * 4, fitnesses=[2.0] * 4)
    cfg = GaConfig(population_size=4, max_generations=10, elite_count=0)
    sel1 = select_parents(pop, cfg, random.Random(42))
    sel2 = select_parents(pop, cfg, random.Random(42))
    assert [(a.genome, b.genome) for a, b in sel1.pairs] == [
        (a.genome, b.genome) for a, b in sel2.pairs
    ]


def test_select_parents_favors_fitter_individuals(rng):
    genomes_ = [random_genome(10, rng) for _ in range(20)]
    pop = scored_population(genomes_, popcount_fitness(10))
    cfg = GaConfig(population_size=20, max_generations=10, elite_count=0)
    members = pop.members
    best = min(range(20), key=lambda i: (members[i].fitness, i))
    worst = max(range(20), key=lambda i: (members[i].fitness, -i))
    draw_rng = random.Random(99)
    best_count = worst_count = 0
    for _ in range(1000):
        sel = select_parents(pop, cfg, draw_rng)
        for a, b in sel.pairs:
            best_count += (a is members[best]) + (b is members[best])
            worst_count += (a is members[worst]) + (b is members[worst])
    assert best_count > worst_count


# ------------------------------------------------------------- crossover

def test_crossover_inherits_every_agreement_position():
    for seed in range(256):
        child = crossover(PARENT_A, PARENT_B, random.Random(seed))
        for pos, value in AGREEMENT.items():
            assert child.bits[pos] == value


def test_crossover_reaches_known_admissible_child():
    seen = set()
    for seed in range(256):
        seen.add(crossover(PARENT_A, PARENT_B, random.Random(seed)).bits)
    assert KNOWN_CHILD in seen


def test_crossover_identical_parents_is_identity():
    g = Genome((1, 0, 1))
    assert crossover(g, g, random.Random(0)) == g


def test_crossover_length_mismatch():
    with pytest.raises(DimensionError):
        crossover(Genome((1, 0)), Genome((1, 0, 1)), random.Random(0))


def test_crossover_disagreement_positions_are_fair():
    a = Genome((0, 0, 0, 0))
    b = Genome((1, 1, 1, 1))
    rng_ = random.Random(2024)
    counts = [0, 0, 0, 0]
    n = 10000
    for _ in range(n):
        child = crossover(a, b, rng_)
        for i, bit in enumerate(child.bits):
            counts[i] += bit
    for c in counts:
        assert abs(c / n - 0.5) <= 0.02


@settings(max_examples=200)
@given(genomes, genomes, st.integers(0, 2**32))
def test_crossover_closure_property(a, b, seed):
    if len(a) != len(b):
        return
    child = crossover(a, b, random.Random(seed))
    for x, y, c in zip(a.bits, b.bits, child.bits):
        assert c in (x, y)
        if x == y:
            assert c == x


@settings(max_examples=100)
@given(genomes, st.integers(0, 2**32))
def test_crossover_idempotent_on_equal_parents(g, seed):
    assert crossover(g, g, random.Random(seed)) == g


# ---------------------------------------------------------------- mutate
# mutation is the flip mask that step_generation XORs into each child

def test_mutate_rate_zero_is_identity():
    rng = random.Random(1)
    state = rng.getstate()
    assert flip_mask(32, 0.0, rng) == 0
    assert rng.getstate() == state  # and draws nothing


def test_mutate_rate_one_resamples_uniformly():
    ones = flip_mask(10000, 1.0, random.Random(77)).bit_count()
    assert abs(ones / 10000 - 0.5) <= 0.02


def test_mutate_can_reproduce_a_specific_mask():
    # with resampling at rate 0.6 any target bit pattern has positive
    # probability; a bounded seed sweep must find this ten-bit one
    target = Genome((1, 1, 0, 0, 1, 1, 0, 0, 1, 1)).mask
    for seed in range(200000):
        if PARENT_A.mask ^ flip_mask(10, 0.6, random.Random(seed)) == target:
            return
    pytest.fail("target mutation mask not reached in seed sweep")


@settings(max_examples=100)
@given(genomes, st.floats(0, 1), st.integers(0, 2**32))
@example(Genome((0, 1) * 20), 5e-324, 0)
@example(Genome((0, 1) * 20), 1e-310, 0)
def test_mutate_preserves_length(g, rate, seed):
    # no flip lands past the last position
    assert flip_mask(len(g), rate, random.Random(seed)) >> len(g) == 0


@pytest.mark.parametrize("rate", (5e-324, 1e-310, 1e-300))
@pytest.mark.parametrize("length", (1, 800))
def test_mutate_at_the_smallest_rates_flips_nothing(length, rate):
    # at 5e-324 rate/2 underflows to 0; at 1e-310 the gap before the first
    # flip overflows a float; at 1e-300 it is finite but far past the end
    for seed in range(20):
        assert flip_mask(length, rate, random.Random(seed)) == 0


# ------------------------------------------------------- step_generation

def test_config_rejects_elite_count_equal_to_population():
    with pytest.raises(ValueError):
        GaConfig(population_size=4, max_generations=10, elite_count=4)


def test_step_generation_cloning_mode():
    cfg = GaConfig(
        population_size=6,
        max_generations=10,
        crossover_rate=0.0,
        mutation_rate=0.0,
        elite_count=0,
    )
    rng_ = random.Random(5)
    genomes_ = [random_genome(10, rng_) for _ in range(6)]
    pop = scored_population(genomes_, popcount_fitness(10))
    originals = {g.bits for g in genomes_}
    nxt = step_generation(pop, popcount_fitness(10), cfg, random.Random(8))
    # children are verbatim clones of existing members
    assert all(ind.genome.bits in originals for ind in nxt.members)


def test_step_generation_rejects_an_edited_mutation_rate():
    # GaConfig checks the rate when it is built and is frozen, so no rate that
    # step_generation reads can lie outside [0, 1]
    cfg = GaConfig(population_size=4, max_generations=10)
    for rate in (1.5, -0.5, math.nan):
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.mutation_rate = rate
    assert cfg.mutation_rate == 0.05


def test_step_generation_reaches_popcount_optimum():
    cfg = GaConfig(population_size=30, max_generations=50, elite_count=2, rng_seed=11)
    fitness = popcount_fitness(16)
    best, history = run(lambda r: random_genome(16, r), fitness, cfg)
    assert best.fitness == 0.0


# --------------------------------------------------------- has_converged

def test_converged_by_stagnation():
    cfg = GaConfig(population_size=4, max_generations=100, stagnation_window=3)
    assert has_converged([5, 5, 5, 5], cfg)


def test_not_converged_while_improving():
    cfg = GaConfig(population_size=4, max_generations=100, stagnation_window=3)
    assert not has_converged([5, 4, 3, 2], cfg)


def test_converged_by_generation_budget():
    cfg = GaConfig(population_size=4, max_generations=6, stagnation_window=50)
    assert has_converged(list(range(100, 94, -1)), cfg)


def test_has_converged_requires_history():
    cfg = GaConfig(population_size=4, max_generations=6)
    with pytest.raises(ValueError):
        has_converged([], cfg)


def test_has_converged_monotone_once_budget_reached():
    cfg = GaConfig(population_size=4, max_generations=4, stagnation_window=50)
    history = [9.0, 8.0, 7.0, 6.0]
    assert has_converged(history, cfg)
    for extra in (5.0, 4.0, 3.0):
        history.append(extra)
        assert has_converged(history, cfg)


# ------------------------------------------------------------------- run

def test_run_single_generation_budget():
    cfg = GaConfig(population_size=8, max_generations=1, elite_count=1, rng_seed=3)
    _, history = run(lambda r: random_genome(6, r), popcount_fitness(6), cfg)
    assert len(history) == 1


def test_run_is_deterministic():
    cfg = GaConfig(population_size=12, max_generations=25, elite_count=1, rng_seed=21)
    out1 = run(lambda r: random_genome(10, r), popcount_fitness(10), cfg)
    out2 = run(lambda r: random_genome(10, r), popcount_fitness(10), cfg)
    assert out1[0].genome == out2[0].genome
    assert out1[0].fitness == out2[0].fitness
    assert out1[1] == out2[1]


def test_run_finds_popcount_optimum_quickly():
    cfg = GaConfig(population_size=20, max_generations=100, elite_count=2, rng_seed=5)
    best, history = run(lambda r: random_genome(12, r), popcount_fitness(12), cfg)
    assert best.fitness == 0.0
    assert len(history) < 100


def test_run_returns_best_ever_seen():
    cfg = GaConfig(population_size=10, max_generations=30, elite_count=0, rng_seed=17)
    best, history = run(lambda r: random_genome(14, r), popcount_fitness(14), cfg)
    assert best.fitness == min(history)


def test_run_with_elitism_gives_non_increasing_history():
    for seed in range(10):
        cfg = GaConfig(population_size=10, max_generations=40, elite_count=1, rng_seed=seed)
        _, history = run(lambda r: random_genome(12, r), popcount_fitness(12), cfg)
        assert all(b <= a for a, b in zip(history, history[1:]))


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 2**32),
    st.integers(1, 16),
    st.sampled_from((0, 2)),
    st.integers(-1, 16) | st.floats(-1, 16),
)
@example(seed=0, length=12, elite_count=2, floor=0)
@example(seed=0, length=12, elite_count=0, floor=0)
def test_run_with_a_floor_is_the_floorless_run_cut_at_its_first_entry_at_or_below(
    seed, length, elite_count, floor
):
    cfg = GaConfig(population_size=6, max_generations=40, elite_count=elite_count, rng_seed=seed)
    init = lambda r: random_genome(length, r)  # noqa: E731
    best, history = run(init, popcount_fitness(length), cfg)
    best_f, history_f = run(init, popcount_fitness(length), cfg, floor=floor)
    hits = [i for i, value in enumerate(history) if value <= floor]
    if floor <= 0:  # a true lower bound of popcount: nothing after the cut beats it
        assert history_f == (history[: hits[0] + 1] if hits else history)
        assert (best_f.genome, best_f.fitness) == (best.genome, best.fitness)
    else:
        # not a lower bound, so the rule is run's literal one: the first
        # generation-0 member at or below the floor, in initializer order
        init_rng = stream(seed, "init")
        generation0 = [init(init_rng) for _ in range(cfg.population_size)]
        first = next((g for g in generation0 if sum(g.bits) <= floor), None)
        if first is not None:
            assert (best_f.genome, best_f.fitness) == (first, sum(first.bits))
            assert history_f == [sum(first.bits)]
        else:
            assert history_f == (history[: hits[0] + 1] if hits else history)
            assert best_f.fitness == min(history_f)


def test_run_with_the_optimum_as_floor_draws_generation_0_up_to_its_first_optimal_member():
    # popcount over 3 bits: the optimum 0 is the all-zero genome, which a
    # uniform draw gives 1 time in 8, so generation 0 holds it at varying places
    counts = []
    for seed in range(40):
        cfg = GaConfig(population_size=20, max_generations=40, rng_seed=seed)
        init_rng = stream(seed, "init")
        values = [sum(random_genome(3, init_rng).bits) for _ in range(20)]
        if 0 not in values:
            continue
        calls = []

        def init(r):
            calls.append(1)
            return random_genome(3, r)

        best, history = run(init, popcount_fitness(3), cfg, floor=0.0)
        assert len(calls) == values.index(0) + 1
        assert (best.fitness, history) == (0.0, [0.0])
        counts.append(len(calls))
    assert len(counts) > 30 and 1 in counts and max(counts) > 5


@pytest.mark.parametrize("floor", (None, 0.0))
def test_run_rejects_a_non_finite_fitness_on_the_first_member(floor):
    cfg = GaConfig(population_size=4, max_generations=5)
    with pytest.raises(ValueError, match="finite"):
        run(lambda r: random_genome(3, r), lambda g: float("nan"), cfg, floor=floor)


@pytest.mark.parametrize("second", ((1, 1, 1, 1), (0, 0, 0, 0)))
def test_run_rejects_mixed_lengths_before_the_member_at_the_floor(second):
    # the second genome is one bit longer; the third (and, in the second
    # case, the longer one itself) scores at the floor 0
    # with no floor, this per-member check is the only length check on
    # generation 0
    cfg = GaConfig(population_size=4, max_generations=5)
    for floor in (0.0, None):
        genomes = iter([Genome((1, 1, 1)), Genome(second), Genome((0, 0, 0)),
                        Genome((1, 1, 1))])
        with pytest.raises(DimensionError, match="share one length"):
            run(lambda r: next(genomes), lambda g: float(sum(g.bits)), cfg, floor=floor)


# ------------------------------------------------------ epsilon_good_set

def epsilon_good_set(values, minima, epsilon):
    """Indices of values within ``epsilon`` of some known minimum."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    minima = list(minima)
    if not minima:
        raise ValueError("minima must be nonempty")
    return {
        i for i, v in enumerate(values) if min(abs(v - m) for m in minima) <= epsilon
    }


def test_epsilon_good_set_direct_distance():
    assert epsilon_good_set([0.1, 5.0], [0.0], 0.2) == {0}


def test_epsilon_good_set_saturates():
    values = [1.0, 2.0, 3.0]
    assert epsilon_good_set(values, [2.0], 10.0) == {0, 1, 2}


def test_epsilon_good_set_matches_brute_filter(rng):
    values = [rng.uniform(0, 10) for _ in range(100)]
    minima = [0.0, 4.0]
    eps = 0.5
    expected = {
        i for i, v in enumerate(values) if any(abs(v - m) <= eps for m in minima)
    }
    assert epsilon_good_set(values, minima, eps) == expected


def test_epsilon_good_set_rejects_bad_arguments():
    with pytest.raises(ValueError):
        epsilon_good_set([1.0], [0.0], 0.0)
    with pytest.raises(ValueError):
        epsilon_good_set([1.0], [], 0.5)

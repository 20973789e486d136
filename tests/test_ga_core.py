import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gasched import (
    GaConfig,
    Genome,
    Individual,
    Population,
    crossover,
    evaluate,
    has_converged,
    mutate,
    random_genome,
    run,
    select_parents,
    step_generation,
)
from gasched.errors import DimensionError, StateError

from conftest import popcount_fitness

# ten-bit parent pair whose agreement positions (0-based 1,2,3,5,7,8) must
# always survive crossover, plus one known admissible child
PARENT_A = Genome((0, 0, 1, 0, 1, 0, 1, 0, 1, 0))
PARENT_B = Genome((1, 0, 1, 0, 0, 0, 0, 0, 1, 1))
AGREEMENT = {1: 0, 2: 1, 3: 0, 5: 0, 7: 0, 8: 1}
KNOWN_CHILD = (0, 0, 1, 0, 1, 0, 0, 0, 1, 0)

genomes = st.lists(st.integers(0, 1), min_size=1, max_size=40).map(
    lambda bits: Genome(tuple(bits))
)


def make_population(bit_rows, fitnesses=None):
    members = [Individual(Genome(tuple(bits))) for bits in bit_rows]
    if fitnesses is not None:
        for ind, f in zip(members, fitnesses):
            ind.fitness = f
    return Population(members)


class ScriptedRng:
    """Replays a fixed list of randrange draws (tournament index tests)."""

    def __init__(self, draws):
        self.draws = list(draws)

    def randrange(self, _n):
        return self.draws.pop(0)


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


# -------------------------------------------------------------- evaluate

def test_evaluate_all_zero_genomes():
    pop = make_population([(0, 0, 0)] * 3)
    out = evaluate(pop, popcount_fitness(3))
    assert [ind.fitness for ind in out.members] == [0.0, 0.0, 0.0]


def test_evaluate_counts_bits():
    pop = make_population([(1, 1), (0, 1)])
    out = evaluate(pop, popcount_fitness(2))
    assert [ind.fitness for ind in out.members] == [2.0, 1.0]


def test_evaluate_min_matches_direct_scan(rng):
    genomes_ = [random_genome(20, rng) for _ in range(50)]
    pop = Population([Individual(g) for g in genomes_])
    out = evaluate(pop, popcount_fitness(20))
    # independent oracle: linear scan of raw bit counts
    expected_min = min(sum(g.bits) for g in genomes_)
    assert min(ind.fitness for ind in out.members) == expected_min


def test_evaluate_preserves_order_and_genomes(rng):
    genomes_ = [random_genome(8, rng) for _ in range(10)]
    pop = Population([Individual(g) for g in genomes_])
    out = evaluate(pop, popcount_fitness(8))
    assert [ind.genome for ind in out.members] == genomes_


def test_evaluate_propagates_dimension_error():
    pop = make_population([(1, 0), (0, 0)])
    with pytest.raises(DimensionError):
        evaluate(pop, popcount_fitness(3))


def test_unevaluated_individual_is_distinct_from_fitness_zero():
    ind = Individual(Genome((0,)))
    assert ind.fitness is None


def test_public_population_constructor_still_validates():
    with pytest.raises(ValueError):
        make_population([(0, 1)])
    with pytest.raises(DimensionError):
        make_population([(0, 1), (0, 1, 1)])
    with pytest.raises(ValueError):
        Population([Individual(Genome((0,))), Individual(Genome((1,)))], generation=-1)


def test_run_validates_only_the_initial_population(monkeypatch):
    checks = []
    validate = Population.__post_init__

    def counted(self):
        checks.append(self.generation)
        validate(self)

    monkeypatch.setattr(Population, "__post_init__", counted)
    cfg = GaConfig(population_size=6, max_generations=5, stagnation_window=50)
    _, history = run(lambda r: random_genome(12, r), popcount_fitness(12), cfg)
    assert len(history) == 5
    assert checks == [0]


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
    pop = evaluate(Population([Individual(g) for g in genomes_]), popcount_fitness(10))
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

def test_mutate_rate_zero_is_identity(rng):
    g = random_genome(32, rng)
    assert mutate(g, 0.0, random.Random(1)) == g


def test_mutate_rate_one_resamples_uniformly():
    g = Genome((0,) * 10000)
    out = mutate(g, 1.0, random.Random(77))
    ones = sum(out.bits)
    assert abs(ones / 10000 - 0.5) <= 0.02


def test_mutate_rejects_bad_rate():
    with pytest.raises(ValueError):
        mutate(Genome((0, 1)), 1.5, random.Random(0))


def test_mutate_can_reproduce_a_specific_mask():
    # with resampling at rate 0.6 any target bit pattern has positive
    # probability; a bounded seed sweep must find this ten-bit one
    target = (1, 1, 0, 0, 1, 1, 0, 0, 1, 1)
    for seed in range(200000):
        if mutate(PARENT_A, 0.6, random.Random(seed)).bits == target:
            return
    pytest.fail("target mutation mask not reached in seed sweep")


@settings(max_examples=100)
@given(genomes, st.floats(0, 1), st.integers(0, 2**32))
def test_mutate_preserves_length(g, rate, seed):
    assert len(mutate(g, rate, random.Random(seed))) == len(g)


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
    pop = evaluate(Population([Individual(g) for g in genomes_]), popcount_fitness(10))
    originals = {g.bits for g in genomes_}
    nxt = step_generation(pop, popcount_fitness(10), cfg, random.Random(8))
    # children are verbatim clones of existing members
    assert all(ind.genome.bits in originals for ind in nxt.members)
    assert nxt.generation == pop.generation + 1


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

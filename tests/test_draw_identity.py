"""Bounded index draws: the GA loop draws exactly what ``randrange`` draws.

``_ref_select_parents`` and ``_ref_best`` below are the selection code as
it was written over ``rng.randrange`` and per-member tuple keys. They are
kept here as an independent statement of which parents and elites are
chosen and in which order the RNG is drawn; the loop must give the same
members and leave the RNG in the same state. ``_ref_step_generation`` is
the breeding loop written over the tuple-of-bits references of crossover
and mutation in ``conftest``, which share no code with the mask cores
under test; it scores the whole next generation (elites too) at the end.
``_ref_run`` is the GA loop written over the public ``Population`` and
``step_generation``, which ``run`` must follow without building either.
"""

import random

import pytest

from gasched import (
    GaConfig, Genome, Individual, Population, has_converged, random_genome, run, select_parents,
    step_generation,
)
from gasched.ga_core import _indices_below, stream

from conftest import _ref_crossover, _ref_mutate

# powers of two and their neighbours change the rejection rate; 2**31 + 5
# needs a 32-bit draw that is rejected about half the time
BOUNDS = (1, 2, 3, 7, 8, 9, 40, 64, 65, 1000, 2**31 + 5)
COUNTS = (0, 1, 100)
SEEDS = range(50)
SIZES = (2, 3, 7, 8, 9, 40, 64, 65)
# few distinct values, so that tournaments and elite ranks tie often;
# -0.0 == 0.0 is a tie too
FITNESS_VALUES = (0.0, -0.0, 1.0, 2.0, 100.0)


# ------------------------------------------------------------ references

def _ref_tournament(members, i, j):
    fi = members[i].fitness
    fj = members[j].fitness
    if fi < fj:
        return members[i]
    if fj < fi:
        return members[j]
    return members[min(i, j)]


def _ref_select_parents(members, elite_count, rng):
    n = len(members)
    order = sorted(range(n), key=lambda i: (members[i].fitness, i))
    elites = [Individual(members[i].genome, members[i].fitness) for i in order[:elite_count]]
    pairs = []
    for _ in range(n - elite_count):
        a = _ref_tournament(members, rng.randrange(n), rng.randrange(n))
        b = _ref_tournament(members, rng.randrange(n), rng.randrange(n))
        pairs.append((a, b))
    return elites, pairs


def _ref_best(members):
    return members[min(range(len(members)), key=lambda i: (members[i].fitness, i))]


def _ref_step_generation(population, fitness, config, rng):
    selection = select_parents(population, config, rng)
    children = []
    for a, b in selection.pairs:
        if rng.random() < config.crossover_rate:
            child = _ref_crossover(a.genome.bits, b.genome.bits, rng)
        else:
            child = (a.genome if a.fitness <= b.fitness else b.genome).bits
        children.append(Genome(_ref_mutate(child, config.mutation_rate, rng)))
    genomes = [e.genome for e in selection.elites] + children
    return Population([Individual(g, fitness(g)) for g in genomes])


def _ref_run(initializer, fitness, config, floor):
    init_rng = stream(config.rng_seed, "init")
    members = []
    for _ in range(config.population_size):
        genome = initializer(init_rng)
        member = Individual(genome, fitness(genome))
        if floor is not None and member.fitness <= floor:
            return member, [member.fitness]
        members.append(member)
    population = Population(members)
    evolve_rng = stream(config.rng_seed, "evolve")
    best = _ref_best(population.members)
    history = [best.fitness]
    while (floor is None or best.fitness > floor) and not has_converged(history, config):
        population = step_generation(population, fitness, config, evolve_rng)
        top = _ref_best(population.members)
        history.append(top.fitness)
        if top.fitness < best.fitness:
            best = top
    return best, history


def _population(n, rng):
    members = [
        Individual(Genome._from_mask(i, 7), rng.choice(FITNESS_VALUES)) for i in range(n)
    ]
    return Population(members)


# ----------------------------------------------------------- equivalence

@pytest.mark.parametrize("n", BOUNDS)
def test_indices_below_draws_as_randrange(n):
    for count in COUNTS:
        for seed in SEEDS:
            rng, ref_rng = random.Random(seed), random.Random(seed)
            assert _indices_below(rng, n, count) == [ref_rng.randrange(n) for _ in range(count)]
            assert rng.getstate() == ref_rng.getstate()


def test_indices_below_rejects_empty_range():
    with pytest.raises(ValueError):
        _indices_below(random.Random(0), 0, 1)


@pytest.mark.parametrize("n", SIZES)
def test_select_parents_matches_randrange_reference(n):
    fitness_rng = random.Random(n)
    for elite_count in sorted({0, 1, n - 1}):
        cfg = GaConfig(population_size=n, max_generations=10, elite_count=elite_count)
        for seed in SEEDS:
            population = _population(n, fitness_rng)
            members = population.members
            index = {id(ind): i for i, ind in enumerate(members)}
            rng, ref_rng = random.Random(seed), random.Random(seed)
            got = select_parents(population, cfg, rng)
            elites, pairs = _ref_select_parents(members, elite_count, ref_rng)
            assert [(e.genome, e.fitness) for e in got.elites] == [
                (e.genome, e.fitness) for e in elites
            ]
            assert not any(id(e) in index for e in got.elites)  # copies
            assert [(index[id(a)], index[id(b)]) for a, b in got.pairs] == [
                (index[id(a)], index[id(b)]) for a, b in pairs
            ]
            assert rng.getstate() == ref_rng.getstate()


def _tied_fitness(genome):
    # few distinct values, so that tournaments and elite ranks tie often
    return float(genome.mask.bit_count() % 4)


@pytest.mark.parametrize("length", (1, 21, 800))
@pytest.mark.parametrize("mutation_rate", (0.0, 0.05, 1.0, 1e-310))
@pytest.mark.parametrize("crossover_rate", (0.0, 0.9, 1.0))
@pytest.mark.parametrize("n, elite_count", [(2, 0), (3, 0), (3, 2), (40, 0), (40, 2)])
def test_step_generation_matches_operator_reference(n, elite_count, crossover_rate,
                                                    mutation_rate, length):
    cfg = GaConfig(population_size=n, max_generations=10, crossover_rate=crossover_rate,
                   mutation_rate=mutation_rate, elite_count=elite_count)
    pool_rng = random.Random(length)
    for seed in range(30):
        # a pool smaller than the population, so that equal parents meet
        pool = [Genome._from_mask(pool_rng.getrandbits(length), length)
                for _ in range(n // 2 + 1)]
        genomes = [pool_rng.choice(pool) for _ in range(n)]
        population = Population([Individual(g, _tied_fitness(g)) for g in genomes])
        rng, ref_rng = random.Random(seed), random.Random(seed)
        got = step_generation(population, _tied_fitness, cfg, rng)
        expected = _ref_step_generation(population, _tied_fitness, cfg, ref_rng)
        assert [(ind.genome, ind.fitness) for ind in got.members] == [
            (ind.genome, ind.fitness) for ind in expected.members
        ]
        assert rng.getstate() == ref_rng.getstate()


@pytest.mark.parametrize("length", (1, 21, 800))
@pytest.mark.parametrize("floor", (None, 0.0, 1.0))
@pytest.mark.parametrize("n, elite_count", [(2, 0), (3, 2), (8, 0), (40, 2)])
def test_run_matches_the_population_loop(n, elite_count, floor, length):
    # tied scores make the first of the tied best matter, in every
    # generation and in the best kept across generations
    for seed in range(20):
        cfg = GaConfig(population_size=n, max_generations=30, elite_count=elite_count,
                       rng_seed=seed)
        initializer = lambda r: random_genome(length, r)  # noqa: E731
        best, history = run(initializer, _tied_fitness, cfg, floor=floor)
        expected, expected_history = _ref_run(initializer, _tied_fitness, cfg, floor)
        assert (best.genome, best.fitness) == (expected.genome, expected.fitness)
        assert history == expected_history

"""A genome is an int bit mask: value semantics, and equivalence with the
tuple-of-bits operators it replaced.

The ``_ref_*`` functions (here and in ``conftest``) are the GA operators
written over tuples of bits, one bit at a time. They are kept as an
independent statement of what each operator computes and in which order
it draws from its RNG; the mask operators must give the same bits and
leave the RNG in the same state after every call. Mutation is tested on
its one form, the mask core ``_flip_mask``. ``_per_bit_mutate`` is the
mutation rule the gap walk replaced; the distribution test holds both to
the same flip frequencies.
"""

import dataclasses
import math
import random
from types import SimpleNamespace

import numpy as np
import pytest

from gasched import (
    Genome,
    OverloadConfig,
    SchedulerFitnessConfig,
    crossover,
    make_fitness,
    random_genome,
)
from gasched.errors import DimensionError
from gasched.scheduler_ga import random_placement_genome, score

from conftest import _ref_crossover, _ref_mutate, flip_mask

# 1 and 2 are the smallest genomes; 29-31, 63-65 straddle the 30-bit
# digits of CPython ints and a 64-bit machine word; 800 is optimize-large
LENGTHS = (1, 2, 29, 30, 31, 63, 64, 65, 800)
RATES = (0.0, 0.05, 0.6, 1.0)
SEEDS = range(100)


# ------------------------------------------------------------ references

def _ref_random_genome(length, rng):
    mask = rng.getrandbits(length)
    return tuple((mask >> i) & 1 for i in range(length))


def _per_bit_mutate(bits, rate, rng):
    # the rule the gap walk replaced: one random() per position, and a
    # resampled position takes a fresh getrandbits(1) bit
    bits = list(bits)
    for i in range(len(bits)):
        if rng.random() < rate:
            bits[i] = rng.getrandbits(1)
    return tuple(bits)


def _ref_random_placement(job_count, k, m, rng):
    counts = [0] * k
    bits = [0] * (job_count * k)
    for r in range(job_count):
        col = rng.randrange(k)
        if counts[col] < m:
            counts[col] += 1
            bits[r * k + col] = 1
    return tuple(bits)


def _ref_fitness(bits, job_count, k, m, cfg):
    loads = [0] * k
    drops = 0
    for r in range(job_count):
        row = bits[r * k : r * k + k]
        for j in range(k):
            if row[j]:
                if loads[j] < m:  # leftmost 1 wins; full column evicts
                    loads[j] += 1
                else:
                    drops += 1
                break
        else:
            drops += 1
    return score(sum(load > cfg.overload.w for load in loads), drops, cfg)


def _twin_rngs(seed):
    return random.Random(seed), random.Random(seed)


def _random_bits(length, density, rng):
    return tuple(1 if rng.random() < density else 0 for _ in range(length))


# ----------------------------------------------------------- equivalence

@pytest.mark.parametrize("length", LENGTHS)
def test_random_genome_matches_tuple_reference(length):
    for seed in SEEDS:
        rng, ref_rng = _twin_rngs(seed)
        genome = random_genome(length, rng)
        assert genome.bits == _ref_random_genome(length, ref_rng)
        assert rng.getstate() == ref_rng.getstate()


@pytest.mark.parametrize("length", LENGTHS)
def test_crossover_matches_tuple_reference(length):
    parents_rng = random.Random(length)
    for seed in SEEDS:
        density = (0.0, 0.1, 0.5, 0.9, 1.0)[seed % 5]
        a = _random_bits(length, density, parents_rng)
        # every fourth pair is identical, which must return a without a draw
        b = a if seed % 4 == 0 else _random_bits(length, 0.5, parents_rng)
        rng, ref_rng = _twin_rngs(seed)
        parent_a, parent_b = Genome(a), Genome(b)
        child = crossover(parent_a, parent_b, rng)
        assert child.bits == _ref_crossover(a, b, ref_rng)
        assert rng.getstate() == ref_rng.getstate()
        if a == b:
            assert child is parent_a


@pytest.mark.parametrize("rate", RATES)
@pytest.mark.parametrize("length", LENGTHS)
def test_mutate_matches_tuple_reference(length, rate):
    genomes_rng = random.Random(length)
    for seed in SEEDS:
        bits = _random_bits(length, (0.0, 0.5, 1.0)[seed % 3], genomes_rng)
        genome = Genome(bits)
        rng, ref_rng = _twin_rngs(seed)
        flip = flip_mask(length, rate, rng)
        expected = _ref_mutate(bits, rate, ref_rng)
        assert Genome._from_mask(genome.mask ^ flip, length).bits == expected
        assert rng.getstate() == ref_rng.getstate()
        # no flip exactly when the reference leaves the bits unchanged
        assert (flip == 0) == (expected == bits)


# 5e-324 halves to 0.0 (no draw); at 1e-320 and 1e-310 a gap is usually inf,
# which math.floor cannot take; at 1e-300 and 1e-10 it is a huge but finite int
@pytest.mark.parametrize("rate", (5e-324, 1e-320, 1e-310, 1e-300, 1e-10, 1.0))
@pytest.mark.parametrize("length", (1, 2, 64, 800, 3000))
def test_mutate_matches_tuple_reference_at_edge_rates(length, rate):
    genomes_rng = random.Random(length)
    for seed in SEEDS:
        bits = _random_bits(length, 0.5, genomes_rng)
        genome = Genome(bits)
        rng, ref_rng = _twin_rngs(seed)
        flip = flip_mask(length, rate, rng)
        expected = _ref_mutate(bits, rate, ref_rng)
        assert Genome._from_mask(genome.mask ^ flip, length).bits == expected
        assert rng.getstate() == ref_rng.getstate()
        assert (flip == 0) == (expected == bits)


@pytest.mark.parametrize(
    "length, rate, draws, mask",
    [
        # log_keep = log(0.5): U = 0.0 gives the quotient -0.0 (gap 0), U = 0.75
        # exactly 2.0 (gap 2), and U = 0.999999 about 19.9, which ends the walk
        (8, 1.0, [0.0, 0.75, 0.999999], 0b1001),
        # U = 0.0 gives -0.0 (gap 0); U = 0.5 gives an inf quotient, which ends the walk
        (8, 1e-310, [0.0, 0.5], 1),
    ],
    ids=["exact-quotients", "inf-quotient"],
)
def test_flip_mask_rounds_gap_edges(length, rate, draws, mask):
    # an RNG that replays fixed random() values, so the test picks the quotients
    replay = iter(draws)
    assert flip_mask(length, rate, SimpleNamespace(random=replay.__next__)) == mask
    assert next(replay, None) is None  # every draw was used


@pytest.mark.parametrize("rate", (0.05, 0.6, 1.0))
@pytest.mark.parametrize("length", (29, 800))
@pytest.mark.parametrize("rule", ("gap-walk", "per-bit"))
def test_mutate_flips_each_position_with_half_the_rate(rule, length, rate):
    # `trials` mutations of one genome on fixed seeds. A flip is a Bernoulli(p)
    # event with p = rate/2, so each position's flip frequency must lie
    # within 5 standard errors of p (sqrt(p(1-p)/TRIALS)), and the mean
    # flip count within 4 standard errors of length*p. These bounds fail
    # a rule that flips with probability rate, or that never flips the
    # last position, and the old per-bit rule passes them too.
    trials = 2000
    p = rate / 2
    bits = _random_bits(length, 0.5, random.Random(length))
    rng = random.Random(f"{length}/{rate}")
    genome = Genome(bits)
    if rule == "gap-walk":
        rows = [Genome._from_mask(genome.mask ^ flip_mask(length, rate, rng), length).bits
                for _ in range(trials)]
    else:
        rows = [_per_bit_mutate(bits, rate, rng) for _ in range(trials)]
    flips = np.array(rows) != np.array(bits)
    freq = flips.mean(axis=0)
    assert np.abs(freq - p).max() <= 5 * math.sqrt(p * (1 - p) / trials)
    count = flips.sum(axis=1).mean()
    assert abs(count - length * p) <= 4 * math.sqrt(length * p * (1 - p) / trials)


@pytest.mark.parametrize("k", (1, 3, 8))
@pytest.mark.parametrize("job_count", (1, 10, 100))
def test_random_placement_matches_tuple_reference(job_count, k):
    for m in (1, 2, job_count):
        for seed in SEEDS:
            rng, ref_rng = _twin_rngs(seed)
            genome = random_placement_genome(job_count, k, m, rng)
            assert genome.bits == _ref_random_placement(job_count, k, m, ref_rng)
            assert rng.getstate() == ref_rng.getstate()


# k = 16 and 31 put rows across the 30-bit digits of CPython ints, as
# LENGTHS does for genomes; k = 32, 64 and 65 make the complement span
# whole 64-bit words, and at m = 1 the one-hot placements leave trailing
# all-zero rows; m = job_count lets one column take every job
@pytest.mark.parametrize("k", (1, 2, 3, 8, 16, 31, 32, 64, 65))
def test_make_fitness_matches_row_scan(k):
    rng = random.Random(k)
    for job_count in (1, 2, 10, 100):
        length = job_count * k
        for m in sorted({1, 2, 5, job_count}):
            cfg = SchedulerFitnessConfig(overload=OverloadConfig(w=rng.randint(0, m), delta=0))
            fitness = make_fitness(job_count, k, m, cfg)
            # all-zero rows only, one full column taking every job, random
            # bits, and one-hot placements that fill columns to capacity
            cases = [(0,) * length, (1,) * length]
            cases += [_random_bits(length, d, rng) for d in (0.05, 0.3, 0.5, 0.9)]
            cases += [_ref_random_placement(job_count, k, m, rng) for _ in range(20)]
            for bits in cases:
                expected = _ref_fitness(bits, job_count, k, m, cfg)
                assert fitness(Genome(bits)) == expected
                assert fitness(Genome(bits)) == expected  # no state carries over


# -------------------------------------------------------- value semantics

def test_equality_includes_length():
    short, long_ = Genome((1,)), Genome((1, 0))
    assert short.mask == long_.mask
    assert short != long_
    assert len({short, long_}) == 2


@pytest.mark.parametrize("length", LENGTHS)
def test_bits_round_trip_and_iteration(length):
    rng = random.Random(length)
    for _ in range(20):
        genome = random_genome(length, rng)
        assert Genome(genome.bits) == genome
        assert hash(Genome(genome.bits)) == hash(genome)
        assert list(genome) == list(genome.bits)
        assert len(genome) == len(genome.bits) == length


def test_bit_i_of_mask_is_position_i():
    genome = Genome((1, 1, 0, 0, 1))
    assert genome.mask == 0b10011
    assert genome.length == 5
    assert repr(genome) == "Genome(bits=(1, 1, 0, 0, 1))"


def test_fields_cannot_be_assigned():
    genome = Genome((0, 1))
    for name, value in (("bits", (1, 1)), ("mask", 3), ("length", 3)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(genome, name, value)
    assert genome.bits == (0, 1)


def test_public_constructor_still_validates():
    with pytest.raises(ValueError):
        Genome((0, 2))
    with pytest.raises(DimensionError):
        Genome(())


def test_make_fitness_checks_length_before_the_mask():
    cfg = SchedulerFitnessConfig(overload=OverloadConfig(w=1, delta=0))
    fitness = make_fitness(3, 2, 2, cfg)
    fitness(Genome((1, 0, 0, 0, 0, 0)))
    for bits in ((1, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0, 0)):  # same mask
        with pytest.raises(DimensionError):
            fitness(Genome(bits))

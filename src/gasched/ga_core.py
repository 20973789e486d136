"""Generic genetic-algorithm engine over fixed-length binary genomes.

Fitness is minimized everywhere. All stochastic operators draw from
``random.Random`` instances; :func:`run` derives one stream per concern
from the root seed (tagged string seeding), so a given ``(config, seed,
fitness)`` triple always reproduces the same output on any platform.

A :class:`Genome` is stored as one Python ``int`` bit mask plus its
length: bit ``i`` of the mask is position ``i`` of the genome (for a
flattened job x machine body, position ``r*k + j``). Bits are validated
once, at the boundary, when a caller builds ``Genome(bits)``; the
operators here (:func:`random_genome`, :func:`crossover`, :func:`mutate`)
produce genomes from masks through the trusted ``Genome._from_mask`` and
work with integer operations instead of per-bit tuples.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple

from .errors import DimensionError, StateError

FitnessFunction = Callable[["Genome"], float]
_BIT_VALUES = bytes.maketrans(b"01", b"\x00\x01")


@dataclass(frozen=True, init=False, repr=False)
class Genome:
    """Immutable fixed-length string of 0/1 values.

    Stored as ``mask``, an ``int`` whose bit ``i`` is position ``i``, and
    ``length``; equality and hashing compare both, so ``Genome((1, 0))``
    and ``Genome((1,))`` differ. ``Genome(bits)`` is the public, validating
    constructor: it accepts any iterable of values equal to 0 or 1 after
    ``int()``, rejects an empty one, and packs it into a mask once.
    ``bits`` is derived on demand as a tuple.
    """

    mask: int
    length: int

    def __init__(self, bits: Iterable[int]):
        # validation lives in __post_init__, as in the package's other public
        # classes; _from_mask bypasses both
        self.__post_init__(bits)

    def __post_init__(self, bits: Iterable[int]):
        bits = tuple(int(b) for b in bits)
        if len(bits) < 1:
            raise DimensionError("genome must have length >= 1")
        if any(b not in (0, 1) for b in bits):
            raise ValueError("genome bits must be 0 or 1")
        object.__setattr__(self, "mask", int("".join(map(str, reversed(bits))), 2))
        object.__setattr__(self, "length", len(bits))

    @classmethod
    def _from_mask(cls, mask: int, length: int) -> "Genome":
        """Trusted constructor for operators that already hold a valid
        ``0 <= mask < 2**length`` with ``length >= 1``; checks nothing."""
        genome = object.__new__(cls)
        object.__setattr__(genome, "mask", mask)
        object.__setattr__(genome, "length", length)
        return genome

    @property
    def bits(self) -> tuple[int, ...]:
        # the binary string lists position length-1 first; translating its
        # "0"/"1" bytes to 0/1 is ~12x faster than int() per character
        text = format(self.mask, f"0{self.length}b")[::-1]
        return tuple(text.encode().translate(_BIT_VALUES))

    def __len__(self) -> int:
        return self.length

    def __iter__(self):
        return iter(self.bits)

    def __repr__(self) -> str:
        return f"Genome(bits={self.bits!r})"


def random_genome(length: int, rng: random.Random) -> Genome:
    """Uniform random genome of the given length."""
    if length < 1:
        raise DimensionError("genome must have length >= 1")
    return Genome._from_mask(rng.getrandbits(length), length)


@dataclass
class Individual:
    """A genome plus its (lazily computed) fitness; ``None`` = unevaluated."""

    genome: Genome
    fitness: float | None = None


@dataclass
class Population:
    members: list[Individual]
    generation: int = 0

    def __post_init__(self):
        if len(self.members) < 2:
            raise ValueError("population size must be >= 2")
        length = len(self.members[0].genome)
        if any(len(ind.genome) != length for ind in self.members):
            raise DimensionError("all genomes in a population must share one length")
        if self.generation < 0:
            raise ValueError("generation must be non-negative")

    @classmethod
    def _from_members(cls, members: list[Individual], generation: int) -> "Population":
        """Trusted constructor for the GA loop, whose members come from a
        validated population or from operators that keep genome length;
        checks nothing."""
        population = object.__new__(cls)
        population.members = members
        population.generation = generation
        return population

    @property
    def size(self) -> int:
        return len(self.members)


@dataclass
class GaConfig:
    """Knobs for one GA run.

    ``mutation_rate`` is the per-bit probability that a position is
    resampled to a fresh uniform bit (so an actual flip happens with half
    that probability). Stagnation halts the run once the best fitness has
    moved by at most ``stagnation_tol`` over ``stagnation_window``
    consecutive steps.
    """

    population_size: int
    max_generations: int
    crossover_rate: float = 0.9
    mutation_rate: float = 0.05
    elite_count: int = 2
    stagnation_window: int = 10
    stagnation_tol: float = 0.0
    rng_seed: int = 0

    def __post_init__(self):
        if self.population_size < 2:
            raise ValueError("population_size must be >= 2")
        if self.max_generations < 1:
            raise ValueError("max_generations must be >= 1")
        for name in ("crossover_rate", "mutation_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        if not 0 <= self.elite_count < self.population_size:
            raise ValueError("elite_count must satisfy 0 <= elite_count < population_size")
        if self.stagnation_window < 1:
            raise ValueError("stagnation_window must be >= 1")
        if self.stagnation_tol < 0:
            raise ValueError("stagnation_tol must be >= 0")
        if not 0 <= self.rng_seed < 2**64:
            raise ValueError("rng_seed must be an unsigned 64-bit integer")


class ParentSelection(NamedTuple):
    elites: list[Individual]
    pairs: list[tuple[Individual, Individual]]


def stream(seed: int, tag: str) -> random.Random:
    """Deterministic child RNG stream for ``tag`` derived from ``seed``."""
    return random.Random(f"{seed}/{tag}")


def evaluate(population: Population, fitness: FitnessFunction) -> Population:
    """Return a population whose members all carry ``fitness(genome)``.

    Genome order and content are untouched; only fitness values are set.
    """
    members = []
    for ind in population.members:
        value = float(fitness(ind.genome))
        if not math.isfinite(value):
            raise ValueError("fitness values must be finite")
        members.append(Individual(ind.genome, value))
    return Population._from_members(members, population.generation)


def _require_evaluated(population: Population) -> None:
    if any(ind.fitness is None for ind in population.members):
        raise StateError("population must be evaluated first")


def _tournament(members: list[Individual], i: int, j: int) -> Individual:
    # size-2 tournament: lower fitness wins, ties go to the lower index
    fi = members[i].fitness
    fj = members[j].fitness
    if fi < fj:
        return members[i]
    if fj < fi:
        return members[j]
    return members[min(i, j)]


def select_parents(population: Population, config: GaConfig, rng: random.Random) -> ParentSelection:
    """Tournament selection plus elite marking.

    Returns the ``elite_count`` best individuals (copies, preserved
    unchanged into the next generation) and ``N - elite_count`` parent
    pairs, each parent the winner of an independent size-2 tournament.
    """
    _require_evaluated(population)
    members = population.members
    n = population.size
    if config.elite_count >= n:
        raise ValueError("elite_count must be smaller than the population size")
    order = sorted(range(n), key=lambda i: (members[i].fitness, i))
    elites = [Individual(members[i].genome, members[i].fitness) for i in order[: config.elite_count]]
    pairs = []
    for _ in range(n - config.elite_count):
        a = _tournament(members, rng.randrange(n), rng.randrange(n))
        b = _tournament(members, rng.randrange(n), rng.randrange(n))
        pairs.append((a, b))
    return ParentSelection(elites, pairs)


def crossover(a: Genome, b: Genome, rng: random.Random) -> Genome:
    """Agreement-preserving uniform crossover.

    Wherever the parents agree the child inherits that bit; at every
    disagreement it takes either parent's bit with probability 1/2: one
    ``getrandbits(length)`` draw picks ``a``'s bit where it has a 1 and
    ``b``'s where it has a 0.
    """
    if len(a) != len(b):
        raise DimensionError("parents must have equal length")
    if a.mask == b.mask:
        return a
    pick = rng.getrandbits(a.length)
    return Genome._from_mask((a.mask & pick) | (b.mask & ~pick), a.length)


def mutate(genome: Genome, rate: float, rng: random.Random) -> Genome:
    """Resample each position to a fresh uniform bit with probability ``rate``.

    A selected position keeps its value half the time; length is preserved.
    """
    if not 0.0 <= rate <= 1.0:
        raise ValueError("mutation rate must lie in [0, 1]")
    if rate == 0.0:
        return genome
    mask = genome.mask
    flips = 0
    draw = rng.random
    for i in range(genome.length):
        if draw() < rate and rng.getrandbits(1) != (mask >> i) & 1:
            flips |= 1 << i
    return Genome._from_mask(mask ^ flips, genome.length) if flips else genome


def step_generation(
    population: Population,
    fitness: FitnessFunction,
    config: GaConfig,
    rng: random.Random,
) -> Population:
    """Produce the next generation: elites survive, the rest are bred.

    Each non-elite slot takes a crossover child (with probability
    ``crossover_rate``, otherwise a clone of the better parent), then
    per-bit mutation, then evaluation.
    """
    if population.size != config.population_size:
        raise ValueError("population size does not match config.population_size")
    selection = select_parents(population, config, rng)
    children = []
    for a, b in selection.pairs:
        if rng.random() < config.crossover_rate:
            child = crossover(a.genome, b.genome, rng)
        else:
            child = a.genome if a.fitness <= b.fitness else b.genome
        child = mutate(child, config.mutation_rate, rng)
        children.append(Individual(child))
    nxt = Population._from_members(selection.elites + children, population.generation + 1)
    return evaluate(nxt, fitness)


def has_converged(best_history: list[float], config: GaConfig) -> bool:
    """True once the generation budget is spent or the best value stagnates.

    Stagnation means every one of the last ``stagnation_window`` steps
    changed the best fitness by at most ``stagnation_tol``.
    """
    if not best_history:
        raise ValueError("best_history must be nonempty")
    if len(best_history) >= config.max_generations:
        return True
    window = config.stagnation_window
    if len(best_history) >= window + 1:
        tail = best_history[-(window + 1):]
        return max(abs(tail[i + 1] - tail[i]) for i in range(window)) <= config.stagnation_tol
    return False


def _best(population: Population) -> Individual:
    members = population.members
    idx = min(range(len(members)), key=lambda i: (members[i].fitness, i))
    return members[idx]


def run(
    initializer: Callable[[random.Random], Genome],
    fitness: FitnessFunction,
    config: GaConfig,
) -> tuple[Individual, list[float]]:
    """Full GA loop; returns the best individual ever seen and the
    per-generation best-fitness history (initial generation included)."""
    init_rng = stream(config.rng_seed, "init")
    evolve_rng = stream(config.rng_seed, "evolve")
    members = [Individual(initializer(init_rng)) for _ in range(config.population_size)]
    population = evaluate(Population(members, generation=0), fitness)
    top = _best(population)
    best = Individual(top.genome, top.fitness)
    history = [top.fitness]
    while not has_converged(history, config):
        population = step_generation(population, fitness, config, evolve_rng)
        top = _best(population)
        history.append(top.fitness)
        if top.fitness < best.fitness:
            best = Individual(top.genome, top.fitness)
    return best, history

"""Generic genetic-algorithm engine over fixed-length binary genomes.

Fitness is minimized everywhere. All stochastic operators draw from
``random.Random`` instances; :func:`run` derives one stream per concern
from the root seed (tagged string seeding), so a given ``(config, seed,
fitness)`` triple always reproduces the same output.

A run stops at the first of three rules: the generation budget, a
stagnant best fitness (both in :class:`GaConfig`), and a best fitness at
or below the ``floor`` that a caller who knows a lower bound on its
fitness may pass to :func:`run`. The floor also cuts the initial
generation, which :func:`run` builds and scores one member at a time, at
its first member at or below it. That is exact only because ``floor`` is
a lower bound: such a member is the first of the tied best, so the run
returns what a run without a floor returns, with a shorter history.

A :class:`Genome` is stored as one Python ``int`` bit mask plus its
length: bit ``i`` of the mask is position ``i`` of the genome (for a
flattened job x machine body, position ``r*k + j``). Bits are validated
once, at the boundary, when a caller builds ``Genome(bits)``; the
operators here work on masks and build genomes through the trusted
``Genome._from_mask``. :func:`step_generation` breeds each child on the
mask cores of crossover and mutation, builds one genome per child and
scores it as it is bred; elites keep their score. :func:`crossover` is
the public genome form of its core.

Bounded index draws (tournament entrants, random placements) use
``getrandbits`` with rejection, which is ``randrange``'s own rule, so
runs stay reproducible draw for draw. Mutation flips each position with
probability ``mutation_rate/2`` and draws about once per flip, not once
per position: it walks the geometric gaps between flips, computed with
``math.log`` and rounded down with ``math.floor``, so bit-identical
output across platforms also rests on the platform's ``log``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple

from .errors import (
    ConfigError, DimensionError, StateError, at_least, check_fields, checked, in_range,
)

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
        genome.__dict__["mask"] = mask  # bypasses the frozen __setattr__
        genome.__dict__["length"] = length
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

    def __post_init__(self):
        if len(self.members) < 2:
            raise ValueError("population size must be >= 2")
        length = len(self.members[0].genome)
        if any(len(ind.genome) != length for ind in self.members):
            raise DimensionError("all genomes in a population must share one length")

    @classmethod
    def _from_members(cls, members: list[Individual]) -> "Population":
        """Trusted constructor for the GA loop, whose members come from a
        validated population or from operators that keep genome length;
        checks nothing."""
        population = object.__new__(cls)
        population.members = members
        return population

    @property
    def size(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class GaConfig:
    """Knobs for one GA run.

    ``mutation_rate`` is the per-bit probability that a position is
    resampled to a fresh uniform bit, so each position flips with
    probability ``mutation_rate/2``; :func:`_flip_mask` draws about once
    per flip. Stagnation halts the run once the best fitness has moved by
    at most ``stagnation_tol`` over ``stagnation_window`` consecutive steps.
    The budget and stagnation are the two stopping rules set here; the
    third, :func:`run`'s ``floor``, comes from the fitness function, so
    it is not a config field.
    """

    population_size: int = checked(at_least(2), key="population")
    max_generations: int = checked(at_least(1), key="generations")
    crossover_rate: float = checked(in_range(0, 1), default=0.9)
    mutation_rate: float = checked(in_range(0, 1), default=0.05)
    elite_count: int = checked(at_least(0), default=2)
    stagnation_window: int = checked(at_least(1), default=10)
    stagnation_tol: float = checked(at_least(0), default=0.0)
    rng_seed: int = checked(at_least(0), (lambda v: v < 2**64, "must be below 2**64"),
                            key="seed", default=0)

    def __post_init__(self):
        check_fields(self)
        if self.elite_count >= self.population_size:
            raise ConfigError("elite_count", "must be smaller than population")


class ParentSelection(NamedTuple):
    elites: list[Individual]
    pairs: list[tuple[Individual, Individual]]


def stream(seed: int, tag: str) -> random.Random:
    """Deterministic child RNG stream for ``tag`` derived from ``seed``."""
    return random.Random(f"{seed}/{tag}")


def _scored(genome: Genome, fitness: FitnessFunction) -> Individual:
    """``genome`` with its fitness; a non-finite value is a ValueError."""
    value = float(fitness(genome))
    if not math.isfinite(value):
        raise ValueError("fitness values must be finite")
    return Individual(genome, value)


def _indices_below(rng: random.Random, n: int, count: int) -> list[int]:
    """``count`` successive ``rng.randrange(n)`` values, drawn as CPython
    draws them: ``getrandbits(n.bit_length())`` until the value is below
    ``n``, without ``randrange``'s per-call Python overhead."""
    if n < 1:
        raise ValueError("n must be >= 1")
    getrandbits = rng.getrandbits
    width = n.bit_length()
    out = []
    append = out.append
    for _ in range(count):
        r = getrandbits(width)
        while r >= n:
            r = getrandbits(width)
        append(r)
    return out


def select_parents(population: Population, config: GaConfig, rng: random.Random) -> ParentSelection:
    """Tournament selection plus elite marking.

    Returns the ``elite_count`` best individuals (copies, preserved
    unchanged into the next generation) and ``N - elite_count`` parent
    pairs, each parent the winner of an independent size-2 tournament:
    lower fitness wins, a tie goes to the lower index. The entrants'
    indices are drawn as ``randrange(N)`` draws them, four per pair.
    """
    members = population.members
    fit = [ind.fitness for ind in members]
    if None in fit:
        raise StateError("population must be evaluated first")
    n = population.size
    if config.elite_count >= n:
        raise ValueError("elite_count must be smaller than the population size")
    order = sorted(range(n), key=fit.__getitem__)  # stable: ties keep index order
    elites = [Individual(members[i].genome, fit[i]) for i in order[: config.elite_count]]
    draws = _indices_below(rng, n, 4 * (n - config.elite_count))
    winners = [
        members[i] if fit[i] < fit[j] or (not fit[j] < fit[i] and i < j) else members[j]
        for i, j in zip(draws[::2], draws[1::2])
    ]
    return ParentSelection(elites, list(zip(winners[::2], winners[1::2])))


def _crossover_mask(a: int, b: int, length: int, rng: random.Random) -> int:
    """:func:`crossover` of two ``length``-bit masks; ``a`` without a draw if equal."""
    if a == b:
        return a
    pick = rng.getrandbits(length)
    return (a & pick) | (b & ~pick)


def crossover(a: Genome, b: Genome, rng: random.Random) -> Genome:
    """Agreement-preserving uniform crossover.

    Wherever the parents agree the child inherits that bit; at every
    disagreement it takes either parent's bit with probability 1/2: one
    ``getrandbits(length)`` draw picks ``a``'s bit where it has a 1 and
    ``b``'s where it has a 0. Equal parents return ``a`` without a draw.
    """
    if a.length != b.length:
        raise DimensionError("parents must have equal length")
    if a.mask == b.mask:
        return a
    return Genome._from_mask(_crossover_mask(a.mask, b.mask, a.length, rng), a.length)


def _flip_mask(length: int, log_keep: float, rng: random.Random) -> int:
    """The positions that mutation at ``rate`` flips in a ``length``-bit
    genome, as a mask, for ``log_keep = log1p(-rate/2)``.

    Mutation resamples each position to a fresh uniform bit with
    probability ``rate``; a resampled position keeps its value half the
    time, so each position flips independently with probability
    ``p = rate/2``. The flip positions are walked directly: the gap before
    the next flip is geometric, drawn by inversion as
    ``floor(log(1 - U) / log1p(-p))`` from one ``rng.random()`` (Devroye
    1986, *Non-Uniform Random Variate Generation*), so a call draws once
    per flip plus once to end the walk, not once per position. The
    quotient is never negative (``1 - U`` lies in (0, 1] and ``log_keep``
    is below 0), so it is a float >= 0, -0.0 or +inf, for which
    ``math.floor`` and truncation agree; ``math.floor`` is the cheaper
    call. 0 without a draw when ``log_keep`` is 0.0.
    """
    if log_keep == 0.0:  # rate 0, or rate/2 underflows: no position can flip
        return 0
    log = math.log
    floor = math.floor
    draw = rng.random
    flips = 0
    i = -1  # the last flipped position
    try:
        while True:
            # the gap is >= 0 (or -0.0): ends exactly when gap >= length - 1 - i
            i += floor(log(1.0 - draw()) / log_keep) + 1
            if i >= length:
                return flips
            flips |= 1 << i
    except OverflowError:  # an inf gap (a subnormal rate) ends the walk too
        return flips


def step_generation(
    population: Population,
    fitness: FitnessFunction,
    config: GaConfig,
    rng: random.Random,
) -> Population:
    """Produce the next generation: elites survive, the rest are bred.

    Each non-elite slot takes a crossover child (with probability
    ``crossover_rate``, otherwise a clone of the better parent), then
    mutation, and is scored as it is bred. Elites keep their fitness,
    which a pure ``fitness`` would only repeat.
    """
    if population.size != config.population_size:
        raise ValueError("population size does not match config.population_size")
    selection = select_parents(population, config, rng)
    log_keep = math.log1p(-config.mutation_rate / 2)
    length = population.members[0].genome.length
    draw = rng.random
    crossover_rate = config.crossover_rate
    members = selection.elites
    for a, b in selection.pairs:
        if draw() < crossover_rate:
            mask = _crossover_mask(a.genome.mask, b.genome.mask, length, rng)
        else:
            mask = (a if a.fitness <= b.fitness else b).genome.mask
        mask ^= _flip_mask(length, log_keep, rng)
        members.append(_scored(Genome._from_mask(mask, length), fitness))
    return Population._from_members(members)


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
    fit = [ind.fitness for ind in population.members]
    return population.members[fit.index(min(fit))]  # first of the tied best


def run(
    initializer: Callable[[random.Random], Genome],
    fitness: FitnessFunction,
    config: GaConfig,
    *,
    floor: float | None = None,
) -> tuple[Individual, list[float]]:
    """Full GA loop; returns the best individual ever seen and the
    per-generation best-fitness history (initial generation included).

    ``floor``, if given, is a lower bound on every fitness value. The
    initial generation is built and scored one member at a time, and the
    run stops at the first member scoring ``<= floor``, returning it with
    history ``[its fitness]``. Otherwise the run stops after the first
    generation whose best is ``<= floor``, before :func:`has_converged` is
    asked. Both cuts are exact only because ``floor`` is a lower bound:
    nothing later can beat a value at the floor strictly, and no earlier
    member reached it, so the best individual is that of a run without a
    floor and only the history is shorter.
    """
    init_rng = stream(config.rng_seed, "init")
    members = []
    for _ in range(config.population_size):
        genome = initializer(init_rng)
        if members and len(genome) != len(members[0].genome):
            raise DimensionError("all genomes in a population must share one length")
        member = _scored(genome, fitness)
        if floor is not None and member.fitness <= floor:
            return member, [member.fitness]
        members.append(member)
    population = Population._from_members(members)
    evolve_rng = stream(config.rng_seed, "evolve")
    top = _best(population)
    best = Individual(top.genome, top.fitness)
    history = [top.fitness]
    while (floor is None or best.fitness > floor) and not has_converged(history, config):
        population = step_generation(population, fitness, config, evolve_rng)
        top = _best(population)
        history.append(top.fitness)
        if top.fitness < best.fitness:
            best = Individual(top.genome, top.fitness)
    return best, history

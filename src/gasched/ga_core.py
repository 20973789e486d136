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
``Genome._from_mask``. :func:`run` carries a population as two parallel
lists, the members' masks and their scores, and breeds on the index and
mask cores of selection, crossover and mutation. It builds one genome per
child, because the fitness contract takes a :class:`Genome`, and one
:class:`Individual`, for the best it returns. :func:`select_parents`,
:func:`step_generation` and :func:`crossover` are the public forms of
those cores.

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


def _score(genome: Genome, fitness: FitnessFunction) -> float:
    """The fitness of ``genome``; a non-finite value is a ValueError."""
    value = float(fitness(genome))
    if not math.isfinite(value):
        raise ValueError("fitness values must be finite")
    return value


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


def _checked_fitness(population: Population, config: GaConfig) -> list[float]:
    """The members' fitness values, once every member is scored and the
    population is larger than ``config.elite_count``."""
    fit = [ind.fitness for ind in population.members]
    if None in fit:
        raise StateError("population must be evaluated first")
    if config.elite_count >= len(fit):
        raise ValueError("elite_count must be smaller than the population size")
    return fit


def _select(fit: list[float], elite_count: int, rng: random.Random) -> tuple[list[int], list[int]]:
    """The index core of :func:`select_parents`: the indices of the
    ``elite_count`` best members, best first, and of ``2 * (N - elite_count)``
    tournament winners, read in pairs."""
    n = len(fit)
    elites = sorted(range(n), key=fit.__getitem__)[:elite_count]  # stable: ties keep index order
    draws = _indices_below(rng, n, 4 * (n - elite_count))
    winners = [
        i if fit[i] < fit[j] or (not fit[j] < fit[i] and i < j) else j
        for i, j in zip(draws[::2], draws[1::2])
    ]
    return elites, winners


def select_parents(population: Population, config: GaConfig, rng: random.Random) -> ParentSelection:
    """Tournament selection plus elite marking.

    Returns the ``elite_count`` best individuals (copies, preserved
    unchanged into the next generation) and ``N - elite_count`` parent
    pairs, each parent the winner of an independent size-2 tournament:
    lower fitness wins, a tie goes to the lower index. The entrants'
    indices are drawn as ``randrange(N)`` draws them, four per pair.
    This is the public form of the index core that :func:`run` selects
    with, and draws exactly what it draws.
    """
    members = population.members
    fit = _checked_fitness(population, config)
    elites, winners = _select(fit, config.elite_count, rng)
    parents = [members[i] for i in winners]
    return ParentSelection([Individual(members[i].genome, fit[i]) for i in elites],
                           list(zip(parents[::2], parents[1::2])))


def _crossover_mask(a: int, b: int, length: int, rng: random.Random) -> int:
    """:func:`crossover` of two ``length``-bit masks; ``a`` without a draw if equal.
    ``b`` with its disagreeing bits flipped where ``pick`` is 1: the same
    child as ``(a & pick) | (b & ~pick)`` in three operations on
    non-negative ints."""
    if a == b:
        return a
    pick = rng.getrandbits(length)
    return b ^ ((a ^ b) & pick)


def crossover(a: Genome, b: Genome, rng: random.Random) -> Genome:
    """Agreement-preserving uniform crossover.

    Wherever the parents agree the child inherits that bit; at every
    disagreement it takes either parent's bit with probability 1/2: one
    ``getrandbits(length)`` draw ``pick`` takes ``a``'s bit where it has a
    1 and ``b``'s where it has a 0, so the child's mask is
    ``b ^ ((a ^ b) & pick)``. Equal parents return ``a`` without a draw.
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


def _breed(masks: list[int], fit: list[float], length: int, fitness: FitnessFunction,
           config: GaConfig, rng: random.Random) -> tuple[list[int], list[float]]:
    """The mask core of :func:`step_generation`: the next generation's
    ``length``-bit masks and their scores, from this one's."""
    elites, winners = _select(fit, config.elite_count, rng)
    log_keep = math.log1p(-config.mutation_rate / 2)
    draw = rng.random
    crossover_rate = config.crossover_rate
    from_mask = Genome._from_mask
    next_masks = [masks[i] for i in elites]
    next_fit = [fit[i] for i in elites]
    for a, b in zip(winners[::2], winners[1::2]):
        if draw() < crossover_rate:
            mask = _crossover_mask(masks[a], masks[b], length, rng)
        else:
            mask = masks[a] if fit[a] <= fit[b] else masks[b]
        mask ^= _flip_mask(length, log_keep, rng)
        next_masks.append(mask)
        next_fit.append(_score(from_mask(mask, length), fitness))
    return next_masks, next_fit


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
    which a pure ``fitness`` would only repeat. This is the public form
    of the mask core that :func:`run` breeds with, and draws exactly what
    it draws.
    """
    if population.size != config.population_size:
        raise ValueError("population size does not match config.population_size")
    fit = _checked_fitness(population, config)
    length = population.members[0].genome.length
    masks = [ind.genome.mask for ind in population.members]
    masks, fit = _breed(masks, fit, length, fitness, config, rng)
    return Population._from_members(
        [Individual(Genome._from_mask(mask, length), value) for mask, value in zip(masks, fit)])


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


def run(
    initializer: Callable[[random.Random], Genome],
    fitness: FitnessFunction,
    config: GaConfig,
    *,
    floor: float | None = None,
) -> tuple[Individual, list[float]]:
    """Full GA loop; returns the best individual ever seen (the first of
    the tied best, in the earliest generation that reached it) and the
    per-generation best-fitness history (initial generation included).
    Each generation is the one :func:`step_generation` breeds, carried as
    masks and scores.

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
    masks, fit = [], []
    for _ in range(config.population_size):
        genome = initializer(init_rng)
        if masks and genome.length != length:
            raise DimensionError("all genomes in a population must share one length")
        length = genome.length
        value = _score(genome, fitness)
        if floor is not None and value <= floor:
            return Individual(genome, value), [value]
        masks.append(genome.mask)
        fit.append(value)
    evolve_rng = stream(config.rng_seed, "evolve")
    best = min(fit)
    best_mask = masks[fit.index(best)]  # first of the tied best
    history = [best]
    while (floor is None or best > floor) and not has_converged(history, config):
        masks, fit = _breed(masks, fit, length, fitness, config, evolve_rng)
        top = min(fit)
        history.append(top)
        if top < best:
            best = top
            best_mask = masks[fit.index(top)]
    return Individual(Genome._from_mask(best_mask, length), best), history

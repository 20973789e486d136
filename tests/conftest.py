import math
import random

import numpy as np
import pytest

from gasched import Genome, ScheduleMatrix, column_loads
from gasched.errors import DimensionError
from gasched.ga_core import _flip_mask


def popcount_fitness(length):
    """Minimization target with known optimum 0: count of set bits."""

    def fitness(genome: Genome) -> float:
        if len(genome) != length:
            raise DimensionError(f"expected length {length}")
        return float(sum(genome.bits))

    return fitness


def flip_mask(length: int, rate: float, rng: random.Random) -> int:
    """The mask of the positions that mutation at ``rate`` flips in a
    ``length``-bit genome: ``_flip_mask`` with the ``log_keep`` that
    ``step_generation`` passes it."""
    return _flip_mask(length, math.log1p(-rate / 2), rng)


# Crossover and mutation written over tuples of bits, one bit at a time: an
# independent statement of what each operator computes and in which order it
# draws from its RNG, shared by the draw-identity and genome-mask tests.

def _ref_crossover(a, b, rng):
    if a == b:
        return a
    mask = rng.getrandbits(len(a))
    return tuple(
        x if x == y else (x if (mask >> i) & 1 else y)
        for i, (x, y) in enumerate(zip(a, b))
    )


def _ref_mutate(bits, rate, rng):
    # each position flips with probability p = rate/2; the number of kept
    # positions before the next flip is geometric, floor(log(1-U)/log(1-p))
    if rate == 0.0:
        return bits
    log_keep = math.log1p(-rate / 2)
    if log_keep == 0.0:
        return bits
    bits = list(bits)
    pos = 0  # the first position the next flip may land on
    while True:
        skip = math.log(1.0 - rng.random()) / log_keep
        if skip >= len(bits) - pos:
            return tuple(bits)
        pos += math.floor(skip)
        bits[pos] = 1 - bits[pos]
        pos += 1


def on_copy(core, matrix: ScheduleMatrix, *args):
    """Run the in-place queue operator ``core`` on a copy of ``matrix``, with
    the copy's column loads; return the copy and what the core returned."""
    out = matrix.copy()
    return out, core(out, column_loads(out), *args)


def random_matrix(rng: random.Random, m: int, k: int, density: float = 0.4,
                  labeled: bool = False) -> ScheduleMatrix:
    """Random binary matrix; with labeled=True every nonzero row gets a
    job label (plus occasional labeled all-zero rows)."""
    head, body, labels = random_parts(rng, m, k, density, labeled)
    return ScheduleMatrix(m, k, [pack(row) for row in (head, *body)], labels)


def pack(row) -> int:
    """The k-bit mask of a 0/1 row: entry j is bit j."""
    return sum(int(b) << j for j, b in enumerate(row))


def random_parts(rng: random.Random, m: int, k: int, density: float = 0.4,
                 labeled: bool = False):
    """The dense (head, body, labels) of random_matrix: int8 arrays of
    shapes (k,) and (m, k), and m + 1 labels."""
    head = np.array([1 if rng.random() < density else 0 for _ in range(k)], dtype=np.int8)
    body = np.array(
        [[1 if rng.random() < density else 0 for _ in range(k)] for _ in range(m)],
        dtype=np.int8,
    )
    labels = [None] * (m + 1)
    if labeled:
        next_id = 0
        if head.any():
            labels[0] = next_id
            next_id += 1
        for i in range(m):
            if body[i].any() or rng.random() < 0.2:
                labels[i + 1] = next_id
                next_id += 1
    return head, body, labels


@pytest.fixture
def rng():
    return random.Random(12345)

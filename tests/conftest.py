import random

import numpy as np
import pytest

from gasched import Genome, ScheduleMatrix, column_loads
from gasched.errors import DimensionError


def popcount_fitness(length):
    """Minimization target with known optimum 0: count of set bits."""

    def fitness(genome: Genome) -> float:
        if len(genome) != length:
            raise DimensionError(f"expected length {length}")
        return float(sum(genome.bits))

    return fitness


def on_copy(core, matrix: ScheduleMatrix, *args):
    """Run the in-place queue operator ``core`` on a copy of ``matrix``, with
    the copy's column loads; return the copy and what the core returned."""
    out = matrix.copy()
    return out, core(out, column_loads(out), *args)


def random_matrix(rng: random.Random, m: int, k: int, density: float = 0.4,
                  labeled: bool = False) -> ScheduleMatrix:
    """Random binary matrix; with labeled=True every nonzero row gets a
    job label (plus occasional labeled all-zero rows)."""
    return ScheduleMatrix(m, k, *random_parts(rng, m, k, density, labeled))


def random_parts(rng: random.Random, m: int, k: int, density: float = 0.4,
                 labeled: bool = False):
    """The (head, body, labels) constructor arguments of random_matrix:
    int8 arrays of shapes (k,) and (m, k), and m + 1 labels."""
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

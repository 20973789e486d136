"""Binary job/machine scheduling matrix and its constraint operators.

A :class:`ScheduleMatrix` has ``m + 1`` rows and ``k + 1`` columns.
Column 0 holds one optional job label per row; columns 1..k are machine
columns. Row 0 is the head row (the completion/recall slot); rows 1..m
are the waiting-queue body. A ``1`` in a body row means "that row's job
is queued at this machine"; a labeled all-zero body row is a job whose
send failed (a dropped job awaiting recall or repair).
The simulator retires finished jobs straight from service, so in a run
the head row is only the recall slot: a failed job's all-zero row waits
there for one tick before ``_recall_job_inplace`` puts it back in the queue.

Row i is stored as ``rows[i]``, a k-bit ``int`` mask with bit j set for
a 1 at machine j + 1 (the layout of a genome's job row), beside its label
``labels[i]``. The constructor takes these masks; 0/1 rows come in only
through a text snapshot (:func:`from_text`), which packs them. Machine
indices are 1-based on the public surface. The
``head`` and ``body`` properties build read-only int8 numpy arrays of the
rows on each access; no operator reads them, and numpy is imported only
there, so importing the package (and the CLI) does not load it.

Each queue operator exists once, as an in-place core that edits the
matrix it is given (``_shift_up_inplace``, ``_recall_job_inplace``,
``_mutate_dropped_rows_inplace``, ``_rebalance_crossover_inplace``), so the
simulator's run state and the polish of ``optimize_schedule`` build no
matrix per step; a caller that keeps its input runs a core on a copy. The
cores that read column loads take the caller's list, as ``column_loads``
returns it, and keep it equal to ``column_loads`` of the edited matrix.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from itertools import islice

from .errors import (
    CapacityError, ConfigError, DimensionError, StateError, at_least, check_fields, checked,
)

JobId = int


@dataclass
class ScheduleMatrix:
    """``ScheduleMatrix(m, k, rows, labels)`` validates the parts it stores:
    ``m, k >= 1``, ``m + 1`` row masks, each an ``int`` (not a ``bool``) with
    ``0 <= row < 2**k``, and ``m + 1`` labels, no job id twice. A wrong
    count, or a mask outside that range, is a DimensionError."""

    m: int
    k: int
    rows: list[int]
    labels: list[JobId | None]

    def __post_init__(self):
        m, k = self.m, self.k
        if m < 1 or k < 1:
            raise DimensionError("matrix needs m >= 1 queue rows and k >= 1 machines")
        if len(self.rows) != m + 1:
            raise DimensionError("rows must hold one mask per row (m + 1 total)")
        if any(type(row) is not int for row in self.rows):
            raise ValueError("row masks must be ints")
        # a row wider than k sets a bit at k or above, as every negative mask does
        if any(row >> k for row in self.rows):
            raise DimensionError(f"row masks must lie in [0, 2**{k})")
        if len(self.labels) != m + 1:
            raise DimensionError("labels must hold one entry per row (m + 1 total)")
        present = [lab for lab in self.labels if lab is not None]
        if len(present) != len(set(present)):
            raise ValueError("job labels must be unique")

    @classmethod
    def _from_parts(cls, m: int, k: int, rows: list[int], labels: list[JobId | None]):
        """Trusted constructor for valid parts: ``m, k >= 1``, ``m + 1`` masks
        below ``2**k`` and ``m + 1`` labels, no job id twice; checks nothing."""
        matrix = object.__new__(cls)
        matrix.m, matrix.k, matrix.rows, matrix.labels = m, k, rows, labels
        return matrix

    @classmethod
    def empty(cls, m: int, k: int) -> "ScheduleMatrix":
        return cls(m, k, [0] * (m + 1), [None] * (m + 1))

    def copy(self) -> "ScheduleMatrix":
        # the parts of a valid matrix are valid
        return ScheduleMatrix._from_parts(self.m, self.k, list(self.rows), list(self.labels))

    @property
    def head(self) -> np.ndarray:
        """The head row as a read-only int8 array of shape ``(k,)``."""
        return _dense(self.rows[:1], self.k)[0]

    @property
    def body(self) -> np.ndarray:
        """The body rows as a read-only int8 array of shape ``(m, k)``."""
        return _dense(self.rows[1:], self.k)

    def dropped_rows(self) -> list[int]:
        """0-based body rows holding a job whose row is all zero, ascending."""
        rows, labels = self.rows, self.labels
        return [i - 1 for i in range(1, self.m + 1) if not rows[i] and labels[i] is not None]


def _dense(rows: list[int], k: int) -> np.ndarray:
    """The masks as a read-only int8 array of shape ``(len(rows), k)``."""
    import numpy as np

    width = (k + 7) // 8
    data = b"".join(row.to_bytes(width, "little") for row in rows)
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8), bitorder="little")
    dense = bits.reshape(len(rows), 8 * width)[:, :k].astype(np.int8)
    dense.flags.writeable = False
    return dense


def _add_bits(loads: list[int], row: int, count: int) -> None:
    """Add ``count`` to ``loads[j]`` for each set bit j of ``row``."""
    while row:
        low = row & -row
        loads[low.bit_length() - 1] += count
        row ^= low


def _shift_up_inplace(matrix: ScheduleMatrix) -> None:
    """Advance every queue by one slot (the nilpotent shift).

    The old top body row becomes the head row, each body row moves up,
    and the last body row is zeroed; the label column moves in lockstep.
    The head must be fully cleared first (bits and label), since its
    content would otherwise be silently destroyed.
    """
    if matrix.rows[0] or matrix.labels[0] is not None:
        raise StateError("head row must be cleared (complete/recall) before shifting")
    del matrix.rows[0]
    matrix.rows.append(0)
    del matrix.labels[0]
    matrix.labels.append(None)


def column_loads(matrix: ScheduleMatrix) -> list[int]:
    """Per-machine body loads, index 0 = machine 1."""
    loads = [0] * matrix.k
    # equal rows are counted once: queue rows are mostly one-hot or zero
    for row, count in Counter(islice(matrix.rows, 1, None)).items():
        _add_bits(loads, row, count)
    return loads


def _recall_job_inplace(matrix: ScheduleMatrix, loads: list[int], job: JobId) -> None:
    """Reinsert a failed job as a single 1 in the last body row.

    Placement targets the least-loaded machine (ties to the lowest
    index); no random draw is made.
    """
    if matrix.labels[matrix.m] is not None:
        raise CapacityError("last queue row is occupied; job cannot be recalled now")
    col = loads.index(min(loads))
    _add_bits(loads, matrix.rows[matrix.m], -1)  # stray bits of the unlabeled row
    matrix.rows[matrix.m] = 1 << col
    loads[col] += 1
    matrix.labels[matrix.m] = job


def repair_rows(matrix: ScheduleMatrix) -> ScheduleMatrix:
    """Enforce "each job waits at no more than one machine".

    Any row with several 1s keeps only its leftmost; feasible rows pass
    through untouched, so the repair is idempotent.
    """
    rows = [row & -row for row in matrix.rows]  # each row's lowest set bit
    return ScheduleMatrix._from_parts(matrix.m, matrix.k, rows, list(matrix.labels))


def inverse_select(matrix: ScheduleMatrix, cfg: "OverloadConfig") -> set[int]:
    """Machines (1-based) whose waiting load exceeds the threshold ``w``."""
    loads = column_loads(matrix)
    return {j + 1 for j in range(matrix.k) if loads[j] > cfg.w}


@dataclass(frozen=True)
class OverloadConfig:
    """Overload thresholds: ``w`` is the tolerated per-machine waiting
    load, ``delta`` the tolerated count of machines above it."""

    w: int = checked(at_least(0))
    delta: int = checked(at_least(0))

    def __post_init__(self):
        check_fields(self)


def check_shape(k: int, m: int, overload: OverloadConfig | None) -> None:
    """Raise ConfigError unless ``k`` machines with queue depth ``m`` make a
    matrix and ``overload``, if given, fits it (``w <= m``, ``delta <= k``).
    SchedulingProblem and SimConfig share these rules."""
    if k < 1:
        raise ConfigError("machines", "must be >= 1")
    if m < 1:
        raise ConfigError("queue_depth", "must be >= 1")
    if overload is not None:
        if overload.w > m:
            raise ConfigError("w", "must not exceed queue_depth")
        if overload.delta > k:
            raise ConfigError("delta", "must not exceed machines")


def _rebalance_crossover_inplace(
    matrix: ScheduleMatrix, loads: list[int], cfg: OverloadConfig
) -> bool:
    """Move queued jobs off overloaded machines until at most ``delta``
    machines exceed ``w``.

    Each step picks the most overloaded column and the least-loaded
    column that still has room below ``w``, and moves the deepest 1 of
    the first whose row holds a 0 in the second over to the second,
    within that row; untouched entries keep their within-column order,
    and the total number of queued jobs never changes. Returns whether
    the ``delta`` target was reached (False means best effort: no
    remaining move could relieve a column above ``w``).
    """
    while True:
        over = [j for j in range(matrix.k) if loads[j] > cfg.w]
        if len(over) <= cfg.delta:
            return True
        targets = [j for j in range(matrix.k) if loads[j] < cfg.w]
        if not targets:
            return False
        src = min(over, key=lambda j: (-loads[j], j))
        tgt = min(targets, key=lambda j: (loads[j], j))
        # the deepest body row with a 1 at src and a 0 at tgt; one exists,
        # since loads[tgt] < w < loads[src] leaves some src row free at tgt
        src_bit, pair = 1 << src, (1 << src) | (1 << tgt)
        row = next(i for i in range(matrix.m, 0, -1) if matrix.rows[i] & pair == src_bit)
        matrix.rows[row] ^= pair
        loads[src] -= 1
        loads[tgt] += 1


def _mutate_dropped_rows_inplace(
    matrix: ScheduleMatrix, loads: list[int], rng: random.Random
) -> None:
    """Give every labeled all-zero body row exactly one 1, in a uniformly
    random column."""
    for i in matrix.dropped_rows():
        col = rng.randrange(matrix.k)
        matrix.rows[i + 1] = 1 << col
        loads[col] += 1


def to_text(matrix: ScheduleMatrix) -> str:
    """Plain-text snapshot: dims, one line per row, then the label line.
    Each distinct row value is formatted once per call: a decoded schedule
    has at most ``k + 1`` of them (the one-hot rows and 0)."""
    spec = f"0{matrix.k}b"
    # the binary string of a mask lists bit k-1 first
    cells = {row: " ".join(format(row, spec)[::-1]) for row in set(matrix.rows)}
    lines = [f"{matrix.m} {matrix.k}"]
    lines.extend([cells[row] for row in matrix.rows])
    lines.append(",".join(["-" if lab is None else str(lab) for lab in matrix.labels]))
    return "\n".join(lines) + "\n"


def from_text(text: str) -> ScheduleMatrix:
    """Inverse of :func:`to_text`; round-trips bit-exactly. A row of the
    wrong length is a DimensionError, an entry other than 0 or 1 a ValueError."""
    lines = [line for line in text.splitlines() if line.strip()]
    if len(lines) < 3:
        raise ValueError("matrix snapshot is truncated")
    m, k = (int(x) for x in lines[0].split())
    if len(lines) != m + 3:
        raise ValueError("matrix snapshot has the wrong number of lines")
    rows = [[int(x) for x in lines[1 + i].split()] for i in range(m + 1)]
    labels = [None if tok == "-" else int(tok) for tok in lines[m + 2].split(",")]
    if any(len(row) != k for row in rows):
        raise DimensionError(f"each matrix row must hold {k} entries")
    if any(x not in (0, 1) for row in rows for x in row):
        raise ValueError("matrix entries must be 0 or 1")
    masks = [sum(x << j for j, x in enumerate(row)) for row in rows]  # entry j is bit j
    return ScheduleMatrix(m, k, masks, labels)

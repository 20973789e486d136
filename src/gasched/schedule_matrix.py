"""Binary job/machine scheduling matrix and its constraint operators.

A :class:`ScheduleMatrix` has ``m + 1`` rows and ``k + 1`` columns.
Column 0 holds one optional job label per row; columns 1..k are machine
columns. Row 0 is the head row (the completion/recall slot); rows 1..m
are the waiting-queue body. A ``1`` in a body row means "that row's job
is queued at this machine"; a labeled all-zero body row is a job whose
send failed (a dropped job awaiting recall or repair).
The simulator retires finished jobs straight from service, so in a run
the head row is only the recall slot: a failed job's all-zero row waits
there for one tick before ``recall_job`` puts it back in the queue.

Machine indices are 1-based on the public surface, matching the column
numbering; internals are 0-based numpy arrays. The public operators are
pure: they return a new matrix and leave their input untouched, so values
may be shared freely across threads. Each queue operator the simulator
runs (``shift_up``, ``recall_job``, ``mutate_dropped_rows``,
``rebalance_crossover``) is a thin wrapper that copies its input and runs
the operator's in-place core (``_shift_up_inplace`` and so on) on the
copy. A single owner of a matrix, such as the simulator's run state or
the final polish of ``optimize_schedule``, calls the cores directly and
so builds no new matrix per step.

The cores that read column loads (``_recall_job_inplace``,
``_mutate_dropped_rows_inplace``, ``_rebalance_crossover_inplace``) take
the caller's body column loads, as ``column_loads`` returns them, instead
of summing the matrix themselves, and keep that list equal to
``column_loads`` of the edited matrix. Their pure wrappers pass
``column_loads`` of the copy, so each wrapper sums the matrix once per
call.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .errors import (
    CapacityError, ConfigError, DimensionError, StateError, at_least, check_fields, checked,
)

JobId = int


@dataclass(eq=False)
class ScheduleMatrix:
    m: int
    k: int
    head: np.ndarray
    body: np.ndarray
    labels: list[JobId | None]

    def __post_init__(self):
        if self.m < 1 or self.k < 1:
            raise DimensionError("matrix needs m >= 1 queue rows and k >= 1 machines")
        self.head = np.asarray(self.head, dtype=np.int8)
        self.body = np.asarray(self.body, dtype=np.int8)
        if self.head.shape != (self.k,):
            raise DimensionError(f"head row must have shape ({self.k},)")
        if self.body.shape != (self.m, self.k):
            raise DimensionError(f"body must have shape ({self.m}, {self.k})")
        # as uint8, every int8 value other than 0 and 1 (negatives included) is > 1
        if (self.head.view(np.uint8) > 1).any() or (self.body.view(np.uint8) > 1).any():
            raise ValueError("matrix entries must be 0 or 1")
        if len(self.labels) != self.m + 1:
            raise DimensionError("labels must hold one entry per row (m + 1 total)")
        present = [lab for lab in self.labels if lab is not None]
        if len(present) != len(set(present)):
            raise ValueError("job labels must be unique")

    @classmethod
    def _from_parts(
        cls, m: int, k: int, head: np.ndarray, body: np.ndarray, labels: list[JobId | None]
    ) -> "ScheduleMatrix":
        """Trusted constructor for parts that are valid by construction:
        ``m, k >= 1``, int8 0/1 arrays of shapes ``(k,)`` and ``(m, k)``,
        and ``m + 1`` labels with no job id twice; checks nothing."""
        matrix = object.__new__(cls)
        matrix.m, matrix.k, matrix.head, matrix.body, matrix.labels = m, k, head, body, labels
        return matrix

    @classmethod
    def empty(cls, m: int, k: int) -> "ScheduleMatrix":
        return cls(m, k, np.zeros(k, dtype=np.int8), np.zeros((m, k), dtype=np.int8), [None] * (m + 1))

    def copy(self) -> "ScheduleMatrix":
        return ScheduleMatrix(self.m, self.k, self.head.copy(), self.body.copy(), list(self.labels))

    def __eq__(self, other) -> bool:
        if not isinstance(other, ScheduleMatrix):
            return NotImplemented
        return (
            self.m == other.m
            and self.k == other.k
            and bool((self.head == other.head).all())
            and bool((self.body == other.body).all())
            and self.labels == other.labels
        )

    def dropped_rows(self) -> list[int]:
        """0-based body rows holding a job whose row is all zero, ascending."""
        empty = np.flatnonzero(~self.body.any(axis=1)).tolist()
        return [i for i in empty if self.labels[i + 1] is not None]


def shift_up(matrix: ScheduleMatrix) -> ScheduleMatrix:
    """Advance every queue by one slot (the nilpotent shift).

    The old top body row becomes the head row, each body row moves up,
    and the last body row is zeroed; the label column moves in lockstep.
    The head must be fully cleared first (bits and label), since its
    content would otherwise be silently destroyed.
    """
    out = matrix.copy()
    _shift_up_inplace(out)
    return out


def _shift_up_inplace(matrix: ScheduleMatrix) -> None:
    # row tests use np.count_nonzero: one C call (~0.4 us) against ~1.3 us for ndarray.any
    if np.count_nonzero(matrix.head) or matrix.labels[0] is not None:
        raise StateError("head row must be cleared (complete/recall) before shifting")
    matrix.head[:] = matrix.body[0]
    matrix.body[:-1] = matrix.body[1:]
    matrix.body[-1] = 0
    del matrix.labels[0]
    matrix.labels.append(None)


def complete_heads(
    matrix: ScheduleMatrix,
) -> tuple[ScheduleMatrix, list[JobId], list[JobId]]:
    """Retire the head row.

    A head job with a 1 anywhere completed and leaves the system for
    good; a head job whose whole row is zero failed its send and is
    reported for recall. Either way the head row ends empty.
    """
    out = matrix.copy()
    completed: list[JobId] = []
    to_recall: list[JobId] = []
    job = out.labels[0]
    if job is not None:
        if np.count_nonzero(out.head):  # one C call, cheaper than ndarray.any
            completed.append(job)
        else:
            to_recall.append(job)
        out.labels[0] = None
    out.head[:] = 0
    return out, completed, to_recall


def column_loads(matrix: ScheduleMatrix) -> list[int]:
    """Per-machine body loads, index 0 = machine 1."""
    return matrix.body.sum(axis=0).tolist()


def recall_job(matrix: ScheduleMatrix, job: JobId) -> ScheduleMatrix:
    """Reinsert a failed job as a single 1 in the last body row.

    Placement targets the least-loaded machine (ties to the lowest
    index); no random draw is made.
    """
    out = matrix.copy()
    _recall_job_inplace(out, column_loads(out), job)
    return out


def _recall_job_inplace(matrix: ScheduleMatrix, loads: list[int], job: JobId) -> None:
    if matrix.labels[matrix.m] is not None:
        raise CapacityError("last queue row is occupied; job cannot be recalled now")
    col = loads.index(min(loads))
    last = matrix.body[matrix.m - 1]
    for j in np.flatnonzero(last).tolist():  # stray bits of the unlabeled row
        loads[j] -= 1
    last[:] = 0
    last[col] = 1
    loads[col] += 1
    matrix.labels[matrix.m] = job


def repair_rows(matrix: ScheduleMatrix) -> ScheduleMatrix:
    """Enforce "each job waits at no more than one machine".

    Any row with several 1s keeps only its leftmost; feasible rows pass
    through untouched, so the repair is idempotent.
    """
    out = matrix.copy()
    for row in (out.head, *out.body):
        if row.sum() > 1:
            keep = int(np.argmax(row))
            row[:] = 0
            row[keep] = 1
    return out


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


def rebalance_crossover(
    matrix: ScheduleMatrix, cfg: OverloadConfig
) -> tuple[ScheduleMatrix, bool]:
    """Move queued jobs off overloaded machines until at most ``delta``
    machines exceed ``w``.

    Each step picks the most overloaded column and the least-loaded
    column that still has room below ``w``, and moves the deepest 1 of
    the first whose row holds a 0 in the second over to the second,
    within that row; untouched entries keep their within-column order,
    and the total number of queued jobs never changes. Returns the
    rebalanced matrix and whether the ``delta`` target was reached (False
    means best effort: no remaining move could relieve a column above
    ``w``).
    """
    out = matrix.copy()
    return out, _rebalance_crossover_inplace(out, column_loads(out), cfg)


def _rebalance_crossover_inplace(
    matrix: ScheduleMatrix, loads: list[int], cfg: OverloadConfig
) -> bool:
    while True:
        over = [j for j in range(matrix.k) if loads[j] > cfg.w]
        if len(over) <= cfg.delta:
            return True
        targets = [j for j in range(matrix.k) if loads[j] < cfg.w]
        if not targets:
            return False
        src = min(over, key=lambda j: (-loads[j], j))
        tgt = min(targets, key=lambda j: (loads[j], j))
        # rows with a 1 at src and a 0 at tgt; never empty, since
        # loads[tgt] < w < loads[src] leaves some src row free at tgt
        row = int(np.flatnonzero(matrix.body[:, src] > matrix.body[:, tgt])[-1])
        matrix.body[row, src] = 0
        matrix.body[row, tgt] = 1
        loads[src] -= 1
        loads[tgt] += 1


def mutate_dropped_rows(matrix: ScheduleMatrix, rng: random.Random) -> ScheduleMatrix:
    """Give every labeled all-zero body row exactly one 1, in a uniformly
    random column."""
    out = matrix.copy()
    _mutate_dropped_rows_inplace(out, column_loads(out), rng)
    return out


def _mutate_dropped_rows_inplace(
    matrix: ScheduleMatrix, loads: list[int], rng: random.Random
) -> None:
    for i in matrix.dropped_rows():
        col = rng.randrange(matrix.k)
        matrix.body[i, col] = 1
        loads[col] += 1


def to_text(matrix: ScheduleMatrix) -> str:
    """Plain-text snapshot: dims, one line per row, then the label line."""
    lines = [f"{matrix.m} {matrix.k}"]
    lines.append(" ".join(str(int(b)) for b in matrix.head))
    for i in range(matrix.m):
        lines.append(" ".join(str(int(b)) for b in matrix.body[i]))
    lines.append(",".join("-" if lab is None else str(lab) for lab in matrix.labels))
    return "\n".join(lines) + "\n"


def from_text(text: str) -> ScheduleMatrix:
    """Inverse of :func:`to_text`; round-trips bit-exactly."""
    lines = [line for line in text.splitlines() if line.strip()]
    if len(lines) < 3:
        raise ValueError("matrix snapshot is truncated")
    m, k = (int(x) for x in lines[0].split())
    if len(lines) != m + 3:
        raise ValueError("matrix snapshot has the wrong number of lines")
    rows = [[int(x) for x in lines[1 + i].split()] for i in range(m + 1)]
    labels = [None if tok == "-" else int(tok) for tok in lines[m + 2].split(",")]
    return ScheduleMatrix(
        m,
        k,
        np.array(rows[0], dtype=np.int8),
        np.array(rows[1:], dtype=np.int8),
        labels,
    )

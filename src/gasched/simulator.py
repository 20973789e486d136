"""Discrete-time simulation of k single-core machines fed by a job stream.

The waiting queues live in a :class:`ScheduleMatrix`: arriving jobs are
dispatched into the deepest free queue row (send failures leave a
labeled all-zero row instead), the whole matrix advances one slot per
tick when the head is clear, and the job reaching the head row is taken
into service by its machine. Finished jobs leave from service directly.
The head row is the recall slot: a failed job (all-zero row) shifted
into it is recalled to the back of the queue on the next tick, until its
recall budget runs out. Every ``rebalance_interval`` ticks the
mutation/rebalance operators tidy the queues.

The run state owns its matrix, so ``dispatch`` and ``tick`` edit its row
masks in place, directly or through the in-place cores of the queue
operators: after ``SimState`` builds the empty matrix, a run constructs
no further ``ScheduleMatrix``. The per-machine column loads are run state
too, kept in step with the matrix and audited against it every
``rebalance_interval`` ticks (see :class:`SimState`).

A job is always in exactly one place - queued (labeled matrix row), in
service, completed, or dropped - and the simulation checks that
conservation law after every tick by one scan of the row labels. So a tick
costs O(k) bookkeeping plus that O(m) scan; an interval tick adds the O(m)
``column_loads`` audit and the periodic pass.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .errors import (
    CapacityError, ConfigError, StateError, at_least, check_fields, checked, in_range,
)
from .ga_core import stream
from .schedule_matrix import (
    OverloadConfig,
    ScheduleMatrix,
    _mutate_dropped_rows_inplace,
    _rebalance_crossover_inplace,
    _recall_job_inplace,
    _shift_up_inplace,
    check_shape,
    column_loads,
)


@dataclass(frozen=True)
class Job:
    id: int
    service_time: int
    arrival: int

    def __post_init__(self):
        if self.id < 0:
            raise ConfigError("workload", "job id must be non-negative")
        if self.service_time < 1:
            raise ConfigError("workload", "service_time must be >= 1")
        if self.arrival < 0:
            raise ConfigError("workload", "arrival must be non-negative")


@dataclass(frozen=True)
class SimConfig:
    k: int = checked(key="machines")
    m: int = checked(key="queue_depth")
    send_failure_prob: float = checked(in_range(0, 1), default=0.0)
    rebalance_interval: int = checked(at_least(1), default=10)
    horizon: int = checked(at_least(1), default=100)
    max_recalls: int = checked(at_least(0), default=3)
    overload: OverloadConfig | None = None
    seed: int = checked(default=0)

    def __post_init__(self):
        check_fields(self)
        check_shape(self.k, self.m, self.overload)
        if self.overload is None:
            object.__setattr__(self, "overload", OverloadConfig(w=self.m, delta=self.k))


@dataclass
class SimMetrics:
    completed: int = 0
    dropped: int = 0
    recalls: int = 0
    send_failures: int = 0
    mean_load: float = 0.0
    max_load: int = 0
    overload_ticks: int = 0
    trace: list[tuple[int, int, int, float]] = field(default_factory=list)


class SimState:
    """Mutable run state; owned by one simulation loop.

    ``loads[j]`` is the number of queued jobs waiting at machine j, that
    is the body column loads of ``matrix``. It is kept in step by
    ``dispatch`` (+1 per successful send) and ``tick`` (-1 when the shift
    moves a queued job into the head row, +1 from the recall core), and
    every ``rebalance_interval`` ticks it is audited against the matrix
    and replaced by the audited sum, which the periodic pass's cores keep
    up to date. Callers therefore edit the matrix only through
    ``dispatch`` and ``tick``.
    """

    def __init__(self, cfg: SimConfig):
        self.cfg = cfg
        self.tick_count = 0
        self.matrix = ScheduleMatrix.empty(cfg.m, cfg.k)
        self.loads = [0] * cfg.k
        self.remaining = [0] * cfg.k
        self.in_service: list[int | None] = [None] * cfg.k
        self.service_time: dict[int, int] = {}
        self.recall_counts: dict[int, int] = {}
        self.arrived = 0
        self.completed = 0
        self.dropped = 0
        self.recalled = 0
        self.send_failures = 0
        self.load_sum = 0.0
        self.max_load = 0
        self.overload_ticks = 0
        self.trace: list[tuple[int, int, int, float]] = []

    def queued(self) -> int:
        # not labels.count(None), which rich-compares None with each int label
        labels = self.matrix.labels
        return len(labels) - len([lab for lab in labels if lab is None])

    def serving(self) -> int:
        return len(self.in_service) - self.in_service.count(None)

    def check_conservation(self) -> None:
        accounted = self.queued() + self.serving() + self.completed + self.dropped
        if accounted != self.arrived:
            raise StateError(
                f"job conservation violated at tick {self.tick_count}: "
                f"{accounted} accounted vs {self.arrived} arrived"
            )


def dispatch(state: SimState, arrivals: list[Job], rng: random.Random) -> SimState:
    """Place arriving jobs into the queue matrix.

    Every arrival attempts a send (one uniform draw each, so failure
    tallies scale with the failure probability regardless of queue
    state). A successful send puts a 1 in the deepest free row of the
    least-loaded machine's column; a failed send occupies the row with
    no 1 at all. Arrivals finding no free row are dropped.
    """
    q = state.cfg.send_failure_prob
    matrix = state.matrix
    labels = matrix.labels
    loads = state.loads
    # the deepest row that may still be free; rows only fill during a
    # dispatch, so the scan from the end never goes back down
    slot = matrix.m
    for job in arrivals:
        state.arrived += 1
        state.service_time[job.id] = job.service_time
        failed = rng.random() < q
        if failed:
            state.send_failures += 1
        while slot > 0 and labels[slot] is not None:
            slot -= 1
        if slot == 0:
            state.dropped += 1
            continue
        labels[slot] = job.id
        if not failed:
            col = loads.index(min(loads))
            matrix.rows[slot] |= 1 << col
            loads[col] += 1
    return state


def _recall(state: SimState, job: int) -> None:
    used = state.recall_counts.get(job, 0)
    if used >= state.cfg.max_recalls:
        state.dropped += 1
        return
    try:
        _recall_job_inplace(state.matrix, state.loads, job)
    except CapacityError:
        state.dropped += 1
    else:
        state.recall_counts[job] = used + 1
        state.recalled += 1


def tick(state: SimState, rng: random.Random) -> SimState:
    """Advance the simulation by one time step.

    Order: service countdown, where a machine whose job finishes
    retires it straight from service; recall handling for a failed job
    sitting in the head row (the recall slot); one queue shift (skipped
    while the incoming job's machine is still busy) with service intake
    for the job it moves into the head row; then, every
    ``rebalance_interval`` ticks, one ``column_loads`` sum that audits
    ``state.loads``, feeds the periodic mutation + rebalance pass and
    becomes the new ``state.loads``; then bookkeeping.
    """
    cfg = state.cfg
    matrix = state.matrix
    rows, labels = matrix.rows, matrix.labels
    remaining, in_service = state.remaining, state.in_service

    for j, left in enumerate(remaining):
        if left > 0:
            remaining[j] = left - 1
            if left == 1:
                in_service[j] = None
                state.completed += 1

    # A head row is all zero when a tick starts: the shift below clears the
    # row of a job it moves into service, and a failed send's row has no 1.
    # So a labeled head is a failed job shifted in last tick, recalled now.
    job = labels[0]
    if job is not None:
        labels[0] = None
        _recall(state, job)

    # advance the queues unless the next job's machine is still busy; the
    # shift raises StateError if the head row still holds a 1
    row = rows[1]
    machine = (row & -row).bit_length() - 1  # the row's leftmost 1
    queued = labels[1] is not None and row != 0
    if not (queued and remaining[machine] > 0):
        _shift_up_inplace(matrix)
        if queued:  # the job shifted into the head row goes into service
            job = labels[0]
            state.loads[machine] -= 1  # the job has left its machine's queue
            rows[0] = 0
            labels[0] = None
            in_service[machine] = job
            remaining[machine] = state.service_time[job]

    state.tick_count += 1
    if state.tick_count % cfg.rebalance_interval == 0:
        derived = column_loads(matrix)
        if state.loads != derived:
            raise StateError(
                f"load drift at tick {state.tick_count}: "
                f"run state {state.loads} vs matrix {derived}"
            )
        _mutate_dropped_rows_inplace(matrix, derived, rng)
        _rebalance_crossover_inplace(matrix, derived, cfg.overload)
        state.loads = derived

    loads = state.loads
    mean_load = sum(loads) / cfg.k
    state.load_sum += mean_load
    # no machine is above w unless the fullest one is, so count only then
    peak = max(loads)
    if peak > state.max_load:
        state.max_load = peak
    w = cfg.overload.w
    if peak > w:
        state.overload_ticks += sum(1 for load in loads if load > w)
    state.trace.append((state.tick_count, state.completed, state.dropped, mean_load))
    state.check_conservation()
    return state


def run_sim(config: SimConfig, workload: list[Job]) -> SimMetrics:
    """Run the full horizon and collect metrics; deterministic per seed."""
    ids = [job.id for job in workload]
    if len(ids) != len(set(ids)):
        raise ConfigError("workload", "job ids must be unique")
    if any(job.arrival >= config.horizon for job in workload):
        raise ConfigError("workload", "every arrival tick must precede the horizon")
    by_tick: dict[int, list[Job]] = {}
    for job in workload:
        by_tick.setdefault(job.arrival, []).append(job)

    dispatch_rng = stream(config.seed, "dispatch")
    tick_rng = stream(config.seed, "tick")
    state = SimState(config)
    for t in range(config.horizon):
        dispatch(state, by_tick.get(t, []), dispatch_rng)
        tick(state, tick_rng)

    return SimMetrics(
        completed=state.completed,
        dropped=state.dropped,
        recalls=state.recalled,
        send_failures=state.send_failures,
        mean_load=state.load_sum / config.horizon,
        max_load=state.max_load,
        overload_ticks=state.overload_ticks,
        trace=state.trace,
    )


def load_workload(path: str) -> list[Job]:
    """Parse a workload file: one "id arrival service_time" triple per
    line, '#' lines are comments."""
    jobs = []
    first_line: dict[int, int] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, ValueError) as exc:  # ValueError: bytes that are not UTF-8, a NUL in the path
        raise ConfigError("workload", f"cannot read {path}: {exc}") from exc
    for lineno, line in enumerate(lines, start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        parts = text.split()
        if len(parts) != 3:
            raise ConfigError("workload", f"line {lineno}: expected 'id arrival service_time'")
        try:
            job_id, arrival, service = (int(p) for p in parts)
        except ValueError:
            raise ConfigError("workload", f"line {lineno}: fields must be unsigned integers")
        try:
            job = Job(id=job_id, service_time=service, arrival=arrival)
        except ConfigError as exc:
            raise ConfigError("workload", f"line {lineno}: {exc.message}") from exc
        if job_id in first_line:
            raise ConfigError(
                "workload", f"line {lineno}: job id {job_id} repeats line {first_line[job_id]}"
            )
        first_line[job_id] = lineno
        jobs.append(job)
    return jobs


def save_workload(jobs: list[Job], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# id arrival service_time\n")
        for job in jobs:
            fh.write(f"{job.id} {job.arrival} {job.service_time}\n")


def trace_csv(metrics: SimMetrics) -> str:
    """Per-tick trace as CSV text."""
    rows = "".join(["%d,%d,%d,%.6f\n" % entry for entry in metrics.trace])
    return "tick,completed,dropped,mean_load\n" + rows

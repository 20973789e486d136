import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gasched import (
    Job,
    OverloadConfig,
    ScheduleMatrix,
    SimConfig,
    SimMetrics,
    column_loads,
    dispatch,
    load_workload,
    run_sim,
    save_workload,
    tick,
    trace_csv,
)
from gasched import simulator
from gasched.errors import CapacityError, ConfigError, StateError
from gasched.ga_core import stream
from gasched.schedule_matrix import (
    _mutate_dropped_rows_inplace,
    _rebalance_crossover_inplace,
    _recall_job_inplace,
    _shift_up_inplace,
)
from gasched.simulator import SimState


def sim_cfg(**kwargs):
    defaults = dict(k=2, m=4, send_failure_prob=0.0, horizon=50, seed=0)
    defaults.update(kwargs)
    return SimConfig(**defaults)


def paced_jobs(count, service=1, spacing=1):
    return [Job(i, service, i * spacing) for i in range(count)]


# --------------------------------------------------------- reference loop
# The simulator loop as first written, with a completion step at the head
# row and column loads recomputed from the matrix for every operator call:
# an independent statement of the dynamics that run_sim, which retires jobs
# from service and keeps its loads as run state, must reproduce.

def _complete_head(matrix):
    """Retire the head row. A head job with a 1 anywhere completed and
    leaves for good; one whose row is all zero failed its send and is
    returned for recall. Either way the head row ends empty."""
    completed, to_recall = [], []
    job = matrix.labels[0]
    if job is not None:
        (completed if matrix.rows[0] else to_recall).append(job)
    matrix.rows[0], matrix.labels[0] = 0, None
    return completed, to_recall


def _reference_dispatch(state, arrivals, rng):
    q = state.cfg.send_failure_prob
    matrix = state.matrix
    for job in arrivals:
        state.arrived += 1
        state.service_time[job.id] = job.service_time
        failed = rng.random() < q
        if failed:
            state.send_failures += 1
        free = [i for i in range(matrix.m) if matrix.labels[i + 1] is None]
        if not free:
            state.dropped += 1
            continue
        row = max(free)
        matrix.labels[row + 1] = job.id
        if not failed:
            loads = column_loads(matrix)
            col = loads.index(min(loads))
            matrix.rows[row + 1] |= 1 << col


def _reference_recalls(state, to_recall):
    for job in to_recall:
        used = state.recall_counts.get(job, 0)
        if used >= state.cfg.max_recalls:
            state.dropped += 1
            continue
        try:
            _recall_job_inplace(state.matrix, column_loads(state.matrix), job)
        except CapacityError:
            state.dropped += 1
        else:
            state.recall_counts[job] = used + 1
            state.recalled += 1


def _reference_tick(state, rng, remaining):
    cfg = state.cfg
    finishers = []
    for j in range(cfg.k):
        if remaining[j] > 0:
            remaining[j] -= 1
            if remaining[j] == 0:
                finishers.append(j)
    if state.matrix.labels[0] is not None and not state.matrix.head.any():
        _, to_recall = _complete_head(state.matrix)
        _reference_recalls(state, to_recall)
    for j in finishers:
        job = state.in_service[j]
        state.in_service[j] = None
        state.matrix.labels[0] = job
        state.matrix.rows[0] |= 1 << j
        done, _ = _complete_head(state.matrix)
        state.completed += len(done)
    if state.matrix.labels[0] is None and not state.matrix.head.any():
        blocked = False
        if state.matrix.labels[1] is not None and state.matrix.body[0].any():
            machine = int(state.matrix.body[0].argmax())
            blocked = remaining[machine] > 0
        if not blocked:
            _shift_up_inplace(state.matrix)
            job = state.matrix.labels[0]
            if job is not None and state.matrix.head.any():
                machine = int(state.matrix.head.argmax())
                state.matrix.rows[0] = 0
                state.matrix.labels[0] = None
                state.in_service[machine] = job
                remaining[machine] = state.service_time[job]
    state.tick_count += 1
    if state.tick_count % cfg.rebalance_interval == 0:
        _mutate_dropped_rows_inplace(state.matrix, column_loads(state.matrix), rng)
        _rebalance_crossover_inplace(state.matrix, column_loads(state.matrix), cfg.overload)
    loads = column_loads(state.matrix)
    mean_load = sum(loads) / cfg.k
    state.load_sum += mean_load
    state.max_load = max(state.max_load, max(loads))
    state.overload_ticks += sum(1 for load in loads if load > cfg.overload.w)
    state.trace.append((state.tick_count, state.completed, state.dropped, mean_load))
    queued = sum(1 for lab in state.matrix.labels if lab is not None)
    serving = sum(1 for job in state.in_service if job is not None)
    assert queued + serving + state.completed + state.dropped == state.arrived


def _reference_run_sim(config, workload):
    by_tick = {}
    for job in workload:
        by_tick.setdefault(job.arrival, []).append(job)
    dispatch_rng = stream(config.seed, "dispatch")
    tick_rng = stream(config.seed, "tick")
    state = SimState(config)
    remaining = [0] * config.k  # ticks of service left on each machine
    for t in range(config.horizon):
        _reference_dispatch(state, by_tick.get(t, []), dispatch_rng)
        _reference_tick(state, tick_rng, remaining)
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


def bursty_jobs(seed, horizon):
    """Random arrivals (1.4 a tick on average) with service times 1-3."""
    rng = random.Random(seed)
    jobs = []
    for t in range(horizon):
        for _ in range(rng.choice((0, 1, 1, 2, 3))):
            jobs.append(Job(len(jobs), rng.randint(1, 3), t))
    return jobs


# ------------------------------------------------------------------ dispatch

def test_dispatch_places_single_job_without_failures():
    state = SimState(sim_cfg(send_failure_prob=0.0))
    dispatch(state, [Job(0, 1, 0)], random.Random(0))
    assert int(state.matrix.body.sum()) == 1
    assert state.send_failures == 0
    assert state.matrix.labels.count(None) == state.matrix.m  # one row taken


def test_dispatch_tallies_every_failed_send():
    state = SimState(sim_cfg(k=2, m=5, send_failure_prob=1.0))
    jobs = [Job(i, 1, 0) for i in range(10000)]
    dispatch(state, jobs, random.Random(1))
    assert state.send_failures == 10000
    assert int(state.matrix.body.sum()) == 0
    state.check_conservation()


def test_dispatch_failure_fraction_tracks_probability():
    state = SimState(sim_cfg(k=2, m=11000, send_failure_prob=0.3))
    jobs = [Job(i, 1, 0) for i in range(10000)]
    dispatch(state, jobs, random.Random(7))
    assert abs(state.send_failures / 10000 - 0.3) <= 0.02


def test_dispatch_targets_least_loaded_machine():
    state = SimState(sim_cfg(k=3, m=6))
    dispatch(state, [Job(i, 1, 0) for i in range(3)], random.Random(0))
    assert column_loads(state.matrix) == [1, 1, 1]


def test_dispatch_drops_overflow_beyond_capacity():
    state = SimState(sim_cfg(k=1, m=2))
    dispatch(state, [Job(i, 1, 0) for i in range(5)], random.Random(0))
    assert state.dropped == 3
    state.check_conservation()


def test_dispatch_rejects_a_job_id_it_has_seen():
    # a repeated id would label two rows alike and take the second job's
    # service time for the first
    state = SimState(sim_cfg(k=2, m=4))
    with pytest.raises(ConfigError, match=r"^workload: job id 7 "):
        dispatch(state, [Job(7, 1, 0), Job(7, 5, 0)], random.Random(0))
    assert state.matrix.labels == [None, None, None, None, 7]
    assert state.service_time == {7: 1}
    assert state.arrived == 1
    state.check_conservation()
    with pytest.raises(ConfigError, match="job id 7 "):
        dispatch(state, [Job(7, 2, 1)], random.Random(0))
    state.check_conservation()


# ---------------------------------------------------------------------- tick

def test_tick_completes_job_whose_service_ends():
    state = SimState(sim_cfg(k=1, m=1))
    state.arrived = 1
    state.service_time[0] = 1
    state.in_service[0] = 0
    state.finishing[0] = [0]
    tick(state, random.Random(0))
    assert state.completed == 1
    assert state.in_service[0] is None


def test_sim_state_rejects_a_field_it_does_not_declare():
    state = SimState(sim_cfg())
    with pytest.raises(AttributeError):
        state.remaining = [0, 0]


def test_tick_on_empty_state_only_advances_counter():
    state = SimState(sim_cfg())
    before = state.matrix.copy()
    tick(state, random.Random(0))
    assert state.tick_count == 1
    assert state.matrix == before
    assert state.completed == state.dropped == 0


def test_tick_raises_on_a_one_in_an_unlabeled_head_row():
    # a tick starts with an all-zero head row; a 1 left there would stop
    # every shift, so the queue would freeze without a word
    state = SimState(sim_cfg())
    dispatch(state, [Job(0, 1, 0)], random.Random(0))
    state.matrix.rows[0] = 1
    with pytest.raises(StateError, match="head row"):
        tick(state, random.Random(0))


def test_all_jobs_complete_without_failures():
    # paced unit-service jobs drain completely through the queue pipeline
    jobs = paced_jobs(12)
    cfg = sim_cfg(k=3, m=4, horizon=12 + 4 + 2)
    metrics = run_sim(cfg, jobs)
    assert metrics.completed == 12
    assert metrics.dropped == 0


def test_pipeline_bound_matches_queue_depth():
    jobs = paced_jobs(20)
    cfg = SimConfig(k=4, m=5, send_failure_prob=0.0, horizon=26, seed=0,
                    overload=OverloadConfig(w=2, delta=1))
    metrics = run_sim(cfg, jobs)
    assert metrics.completed == 20
    assert metrics.dropped == 0


def test_service_times_longer_than_one_tick():
    jobs = [Job(0, 5, 0), Job(1, 3, 1)]
    cfg = sim_cfg(k=2, m=3, horizon=20)
    metrics = run_sim(cfg, jobs)
    assert metrics.completed == 2
    assert metrics.dropped == 0


def test_recall_requeues_failed_jobs_until_budget():
    cfg = sim_cfg(k=1, m=1, send_failure_prob=1.0, horizon=30, max_recalls=2)
    metrics = run_sim(cfg, [Job(0, 1, 0)])
    # the only send fails; one recall then puts the job back with a slot
    assert metrics.send_failures == 1
    assert metrics.recalls >= 1
    assert metrics.completed + metrics.dropped == 1


def test_recall_budget_zero_drops_failed_jobs():
    cfg = sim_cfg(k=1, m=1, send_failure_prob=1.0, horizon=10, max_recalls=0)
    metrics = run_sim(cfg, [Job(0, 1, 0)])
    assert metrics.completed == 0
    assert metrics.dropped == 1


# ------------------------------------------------------------------- run_sim

def test_empty_workload_gives_zero_metrics():
    metrics = run_sim(sim_cfg(horizon=25), [])
    assert metrics.completed == 0
    assert metrics.dropped == 0
    assert metrics.recalls == 0
    assert metrics.mean_load == 0.0
    assert metrics.max_load == 0
    assert len(metrics.trace) == 25


def test_same_seed_reproduces_metrics_exactly():
    jobs = paced_jobs(15)
    cfg = sim_cfg(k=2, m=4, send_failure_prob=0.4, horizon=60, seed=9)
    assert run_sim(cfg, jobs) == run_sim(cfg, jobs)


def test_conservation_audit_runs_every_tick():
    # the audit raises on violation; a clean run over a stressy config
    # is the assertion
    jobs = [Job(i, 1 + i % 3, i % 40) for i in range(50)]
    for q in (0.0, 0.3, 1.0):
        cfg = sim_cfg(k=3, m=5, send_failure_prob=q, horizon=60, seed=2,
                      rebalance_interval=7)
        metrics = run_sim(cfg, jobs)
        assert metrics.completed + metrics.dropped <= 50


def test_failure_tally_monotone_in_probability():
    jobs = paced_jobs(40)
    tallies = []
    for q in (0.0, 0.25, 0.5, 0.75, 1.0):
        total = 0
        for seed in range(10):
            cfg = sim_cfg(k=2, m=6, send_failure_prob=q, horizon=80, seed=seed)
            total += run_sim(cfg, jobs).send_failures
        tallies.append(total)
    assert all(a <= b for a, b in zip(tallies, tallies[1:]))


def test_rebalance_interval_never_breaks_conservation_or_overloads():
    jobs = [Job(i, 2, i % 30) for i in range(40)]
    cfg = sim_cfg(k=3, m=6, send_failure_prob=0.5, horizon=60, seed=4,
                  rebalance_interval=1,
                  overload=OverloadConfig(w=2, delta=0))
    metrics = run_sim(cfg, jobs)  # per-tick audit passes
    assert metrics.completed + metrics.dropped <= 40


@pytest.mark.parametrize("k,m", list(itertools.product((1, 3, 16), (1, 6, 256))))
def test_run_sim_matches_reference_loop(k, m):
    horizon = m + 100  # long enough for a job entering the deepest row to reach the head
    jobs = bursty_jobs(k * 1000 + m, horizon)
    for q, interval, max_recalls in itertools.product((0.0, 0.2, 1.0), (1, 10), (0, 3)):
        cfg = sim_cfg(k=k, m=m, send_failure_prob=q, horizon=horizon,
                      rebalance_interval=interval, max_recalls=max_recalls,
                      seed=k + m + interval, overload=OverloadConfig(w=m // k, delta=0))
        assert run_sim(cfg, jobs) == _reference_run_sim(cfg, jobs), (q, interval, max_recalls)


def stream_jobs(seed, horizon, max_service=2):
    """One arrival a tick on average, service times 1-2: the job streams
    of the sim-stream benchmark workload. A larger ``max_service`` draws
    service times up to it instead."""
    rng = random.Random(seed)
    jobs = []
    for t in range(horizon):
        for _ in range(rng.choice((0, 1, 1, 2))):
            jobs.append(Job(len(jobs), rng.randint(1, max_service), t))
    return jobs


@pytest.mark.parametrize("k,m,max_service", [
    pytest.param(3, 6, 2, id="3-6"),
    pytest.param(16, 256, 2, id="16-256"),
    pytest.param(70, 8, 2, id="70-8"),
    pytest.param(8, 6, 40, id="8-6-long"),
    pytest.param(70, 8, 40, id="70-8-long"),
])
def test_run_sim_matches_reference_loop_at_benchmark_shapes(k, m, max_service):
    # the sim-stream configurations: default interval, recalls and overload;
    # (70, 8) runs intake, service and recalls on rows wider than 64 bits.
    # Service times up to 40 finish several machines on one tick and keep
    # a head job waiting many ticks for its busy machine.
    for seed in (1, 2, 3):
        cfg = SimConfig(k=k, m=m, send_failure_prob=0.2, horizon=1000, seed=seed)
        jobs = stream_jobs(seed, 1000, max_service)
        assert run_sim(cfg, jobs) == _reference_run_sim(cfg, jobs), seed


@settings(max_examples=150, deadline=None)
@given(k=st.integers(1, 6), m=st.integers(1, 8), q=st.sampled_from((0.0, 0.2, 0.6)),
       horizon=st.integers(1, 40), interval=st.integers(1, 5), seed=st.integers(0, 2**16),
       stream_rows=st.lists(st.tuples(st.integers(0, 39), st.integers(1, 3)), max_size=120))
def test_at_most_one_job_enters_service_per_tick(k, m, q, horizon, interval, seed, stream_rows):
    # the queues share one head row, so intake is one job a tick whatever k is
    jobs = [Job(i, service, arrival % horizon) for i, (arrival, service) in enumerate(stream_rows)]
    cfg = SimConfig(k=k, m=m, send_failure_prob=q, horizon=horizon, rebalance_interval=interval,
                    seed=seed, overload=OverloadConfig(w=m // 2, delta=0))
    state = SimState(cfg)
    dispatch_rng, tick_rng = stream(seed, "dispatch"), stream(seed, "tick")
    by_tick = {}
    for job in jobs:
        by_tick.setdefault(job.arrival, []).append(job)
    entered = 0
    for t in range(horizon):
        dispatch(state, by_tick.get(t, []), dispatch_rng)
        tick(state, tick_rng)
        now = state.completed + state.serving()
        assert now - entered <= 1, t
        entered = now
    metrics = run_sim(cfg, jobs)
    assert metrics.completed == state.completed <= horizon


def test_run_sim_builds_one_matrix_per_run(monkeypatch):
    built = []
    original = ScheduleMatrix.__post_init__

    def counting(self):
        built.append(1)
        original(self)

    monkeypatch.setattr(ScheduleMatrix, "__post_init__", counting)
    cfg = sim_cfg(k=3, m=6, send_failure_prob=0.3, horizon=200, seed=1,
                  rebalance_interval=1, max_recalls=2, overload=OverloadConfig(w=2, delta=0))
    metrics = run_sim(cfg, bursty_jobs(1, 200))
    assert metrics.recalls > 0 and metrics.dropped > 0 and metrics.completed > 0
    assert len(built) == 1  # the empty matrix of SimState; every tick edits it in place


def _run_checking_loads(cfg, jobs):
    """run_sim's loop by hand, checking the loads run state after every call."""
    by_tick = {}
    for job in jobs:
        by_tick.setdefault(job.arrival, []).append(job)
    dispatch_rng = stream(cfg.seed, "dispatch")
    tick_rng = stream(cfg.seed, "tick")
    state = SimState(cfg)
    for t in range(cfg.horizon):
        dispatch(state, by_tick.get(t, []), dispatch_rng)
        assert state.loads == column_loads(state.matrix), ("dispatch", t)
        tick(state, tick_rng)
        assert state.loads == column_loads(state.matrix), ("tick", t)
    return state


@pytest.mark.parametrize("k,m", list(itertools.product((1, 3, 16), (1, 6, 256))))
def test_loads_state_equals_column_loads_after_every_call(k, m):
    horizon = m + 100
    jobs = bursty_jobs(k * 1000 + m, horizon)
    served = recalled = 0
    for q, interval, max_recalls in itertools.product((0.0, 0.2, 1.0), (1, 10), (0, 3)):
        cfg = sim_cfg(k=k, m=m, send_failure_prob=q, horizon=horizon,
                      rebalance_interval=interval, max_recalls=max_recalls,
                      seed=k + m + interval, overload=OverloadConfig(w=m // k, delta=0))
        state = _run_checking_loads(cfg, jobs)
        served += state.completed + state.serving()
        recalled += state.recalled
    assert served > 0  # queued jobs did reach the head row, each taking one off loads
    if m <= 6:
        assert recalled > 0


@pytest.mark.parametrize("corrupt", ["loads", "matrix"])
def test_load_drift_raises_at_next_interval_tick(corrupt):
    state = SimState(sim_cfg(k=3, m=6, rebalance_interval=5))
    rng = random.Random(0)
    dispatch(state, [Job(i, 3, 0) for i in range(4)], rng)
    tick(state, rng)
    if corrupt == "loads":
        state.loads[2] += 1
    else:  # an edit behind the run state's back
        row = state.matrix.labels.index(None, 1) - 1
        state.matrix.labels[row + 1] = 99
        state.matrix.rows[row + 1] |= 1
        state.arrived += 1
        state.service_time[99] = 3
    for _ in range(3):
        tick(state, rng)  # ticks 2-4: no audit of the loads yet
    with pytest.raises(StateError, match="load drift at tick 5"):
        tick(state, rng)


def test_column_loads_runs_once_per_interval_tick(monkeypatch):
    calls = []
    original = simulator.column_loads

    def counting(matrix):
        calls.append(1)
        return original(matrix)

    monkeypatch.setattr(simulator, "column_loads", counting)
    horizon, interval = 200, 5
    cfg = sim_cfg(k=3, m=4, send_failure_prob=0.3, horizon=horizon, seed=1,
                  rebalance_interval=interval, max_recalls=2,
                  overload=OverloadConfig(w=2, delta=0))
    metrics = run_sim(cfg, bursty_jobs(1, horizon))
    assert metrics.recalls > 0 and metrics.dropped > 0 and metrics.completed > 0
    assert len(calls) == horizon // interval


def test_conservation_audit_raises_on_lost_job():
    state = SimState(sim_cfg(k=2, m=4))
    dispatch(state, [Job(0, 1, 0), Job(1, 1, 0)], random.Random(0))
    state.matrix.labels[state.matrix.labels.index(0)] = None  # a job vanishes
    with pytest.raises(StateError):
        tick(state, random.Random(0))


@pytest.mark.parametrize("corrupt", ["lost-label", "invented-label"])
def test_conservation_audit_raises_on_next_tick_at_depth(corrupt):
    # the audit scans every label on every tick, not a count kept in step
    # with dispatch and tick, so an edit behind the run's back shows at once
    cfg = sim_cfg(k=16, m=256, send_failure_prob=0.2, horizon=400, seed=3)
    jobs = [Job(i, 1 + i % 2, i // 2) for i in range(800)]  # two arrivals a tick
    by_tick = {}
    for job in jobs:
        by_tick.setdefault(job.arrival, []).append(job)
    state = SimState(cfg)
    dispatch_rng, tick_rng = stream(cfg.seed, "dispatch"), stream(cfg.seed, "tick")
    for t in range(300):
        dispatch(state, by_tick.get(t, []), dispatch_rng)
        tick(state, tick_rng)
    assert (state.tick_count + 1) % cfg.rebalance_interval != 0  # tick 301 runs no interval pass
    labels = state.matrix.labels
    if corrupt == "lost-label":
        row = max(i for i, label in enumerate(labels) if label is not None)
        assert row > 128
        labels[row] = None
    else:  # a job id that never arrived
        labels[max(i for i, label in enumerate(labels) if label is None)] = 10**6
    with pytest.raises(StateError, match="^job conservation violated at tick 301:"):
        tick(state, tick_rng)


def test_run_sim_rejects_late_arrivals():
    with pytest.raises(ConfigError):
        run_sim(sim_cfg(horizon=5), [Job(0, 1, 7)])


def test_run_sim_rejects_duplicate_ids():
    with pytest.raises(ConfigError):
        run_sim(sim_cfg(), [Job(0, 1, 0), Job(0, 1, 1)])


def test_config_validation_names_offending_key():
    with pytest.raises(ConfigError) as err:
        SimConfig(k=2, m=2, overload=OverloadConfig(w=3, delta=0))
    assert "w" in str(err.value)


# ----------------------------------------------------------------- file I/O

def test_workload_round_trip(tmp_path):
    jobs = [Job(3, 4, 0), Job(5, 1, 2)]
    path = tmp_path / "jobs.txt"
    save_workload(jobs, str(path))
    assert load_workload(str(path)) == jobs


def test_workload_parser_skips_comments_and_blanks(tmp_path):
    path = tmp_path / "jobs.txt"
    path.write_text("# header\n\n1 0 2\n  # indented comment\n2 3 1\n")
    jobs = load_workload(str(path))
    assert jobs == [Job(1, 2, 0), Job(2, 1, 3)]


def test_workload_parser_rejects_bad_lines(tmp_path):
    path = tmp_path / "jobs.txt"
    path.write_text("1 2\n")
    with pytest.raises(ConfigError):
        load_workload(str(path))
    path.write_text("a b c\n")
    with pytest.raises(ConfigError):
        load_workload(str(path))


def test_job_range_error_is_a_workload_config_error(tmp_path):
    with pytest.raises(ConfigError) as err:
        Job(0, 0, 0)
    assert err.value.key == "workload"
    path = tmp_path / "jobs.txt"
    path.write_text("0 0 1\n-1 0 1\n")
    with pytest.raises(ConfigError, match="^workload: line 2: job id must be non-negative$"):
        load_workload(str(path))


def _reference_trace_csv(metrics):
    """trace_csv as first written, one f-string a row."""
    lines = ["tick,completed,dropped,mean_load"]
    for tick_no, completed, dropped, mean_load in metrics.trace:
        lines.append(f"{tick_no},{completed},{dropped},{mean_load:.6f}")
    return "\n".join(lines) + "\n"


def test_trace_csv_matches_f_string_reference():
    cfg = sim_cfg(k=16, m=256, send_failure_prob=0.2, horizon=1000, seed=3,
                  overload=OverloadConfig(w=2, delta=1))
    metrics = run_sim(cfg, [Job(i, 1 + i % 2, i) for i in range(1000)])
    assert len(metrics.trace) == 1000
    assert trace_csv(metrics) == _reference_trace_csv(metrics)
    # mean loads that round at the 6th decimal, and large tick numbers
    entries = [(1, 0, 0, 0.0000005), (2, 0, 0, 2.5e-7), (3, 1, 2, 1 / 3),
               (4, 724, 19, 13.8553755), (5, 0, 0, 0.0000015), (6, 0, 0, -0.0),
               (10**6, 10**6, 0, 255.9999995), (2**64, 10**30, 2**63, 1e-320)]
    for trace in (entries, []):
        metrics = SimMetrics(trace=trace)
        assert trace_csv(metrics) == _reference_trace_csv(metrics)


def test_trace_csv_shape():
    metrics = run_sim(sim_cfg(horizon=3), [])
    text = trace_csv(metrics)
    lines = text.strip().splitlines()
    assert lines[0] == "tick,completed,dropped,mean_load"
    assert len(lines) == 4

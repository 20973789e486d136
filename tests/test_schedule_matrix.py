import itertools
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gasched import (
    GaConfig,
    Genome,
    Job,
    OverloadConfig,
    ScheduleMatrix,
    SchedulerFitnessConfig,
    SchedulingProblem,
    SimConfig,
    brute_force_best,
    column_loads,
    decode_schedule,
    from_text,
    inverse_select,
    optimize_schedule,
    repair_rows,
    run_sim,
    schedule_fitness,
    to_text,
)
from gasched import simulator
from gasched.errors import CapacityError, DimensionError, StateError
from gasched.schedule_matrix import (
    _mutate_dropped_rows_inplace,
    _rebalance_crossover_inplace,
    _recall_job_inplace,
    _shift_up_inplace,
)
from gasched.scheduler_ga import random_placement_genome

from conftest import on_copy, pack, random_matrix, random_parts


def nilpotent_shift(m: int) -> np.ndarray:
    """Dense m x m matrix with ones on the superdiagonal."""
    u = np.zeros((m, m), dtype=np.int8)
    for i in range(m - 1):
        u[i, i + 1] = 1
    return u


def matrix_from_body(body, labels=None, head=None):
    body = np.array(body, dtype=np.int8)
    m, k = body.shape
    if head is None:
        head = np.zeros(k, dtype=np.int8)
    if labels is None:
        labels = [None] * (m + 1)
    return ScheduleMatrix(m, k, [pack(row) for row in (head, *body)], labels)


# ------------------------------------------------------------ construction

@pytest.mark.parametrize("value", [-1, 2, 127])
@pytest.mark.parametrize("where", ["head", "body"])
def test_construction_rejects_entries_other_than_zero_and_one(value, where):
    # 0/1 entries reach a matrix only through a snapshot; the constructor takes masks
    rows = [["0"] * 3 for _ in range(3)]
    rows[0 if where == "head" else 2][1] = str(value)
    text = "2 3\n" + "".join(" ".join(row) + "\n" for row in rows) + "-,-,-\n"
    with pytest.raises(ValueError, match="matrix entries must be 0 or 1"):
        from_text(text)


@pytest.mark.parametrize("rows", [
    pytest.param([0, 0, 0, 0], id="extra-row"),
    pytest.param([0, 0], id="missing-row"),
    pytest.param([0, 0, 0b1000], id="row-wider-than-k"),  # k = 3
    pytest.param([-1, 0, 0], id="negative-mask"),  # sets every bit above k
])
def test_construction_rejects_rows_of_the_wrong_shape(rows):
    with pytest.raises(DimensionError):
        ScheduleMatrix(2, 3, rows, [None] * 3)


@pytest.mark.parametrize("mask", [True, 1.0, np.int64(1)], ids=["bool", "float", "numpy-int"])
def test_construction_rejects_masks_that_are_not_ints(mask):
    with pytest.raises(ValueError, match="row masks must be ints"):
        ScheduleMatrix(2, 3, [0, mask, 0], [None] * 3)


@pytest.mark.parametrize("labels, error", [
    ([None] * 2, DimensionError),  # one label missing
    ([None] * 4, DimensionError),  # one label too many
    ([None, 4, 4], ValueError),  # a job id twice
])
def test_construction_rejects_bad_labels(labels, error):
    with pytest.raises(error):
        ScheduleMatrix(2, 3, [0, 0, 0], labels)


def test_rows_are_k_bit_masks_indexed_like_labels():
    m = matrix_from_body([[0, 1, 0], [1, 0, 1]], labels=[None, 4, 5], head=[0, 0, 1])
    assert m.rows == [0b100, 0b010, 0b101]
    assert m.labels == [None, 4, 5]


# ------------------------------------------------------------- dense views

def test_array_views_equal_the_constructor_input_and_are_read_only(rng):
    for _ in range(200):
        # k up to 70: rows wider than one 64-bit machine word
        m, k = rng.randint(1, 6), rng.randint(1, 70)
        head, body, labels = random_parts(rng, m, k, labeled=True)
        matrix = ScheduleMatrix(m, k, [pack(row) for row in (head, *body)], labels)
        assert matrix.head.dtype == matrix.body.dtype == np.int8
        assert matrix.head.shape == (k,) and matrix.body.shape == (m, k)
        assert (matrix.head == head).all() and (matrix.body == body).all()
        with pytest.raises(ValueError):
            matrix.head[0] = 1 - matrix.head[0]
        with pytest.raises(ValueError):
            matrix.body[-1, -1] = 1 - matrix.body[-1, -1]
        assert (matrix.head == head).all() and (matrix.body == body).all()


def test_cli_import_does_not_load_numpy():
    # numpy is imported only when head or body is read, in a fresh process
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import gasched.cli;"
        " print('numpy' in sys.modules); from gasched import ScheduleMatrix;"
        " body = ScheduleMatrix.empty(2, 3).body;"
        " print(body.dtype, body.shape, body.flags.writeable)"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([sys.executable, "-c", code, str(src)], capture_output=True, text=True,
                          check=True)
    assert proc.stdout.splitlines() == ["False", "int8 (2, 3) False"]


def _stream(rng, horizon):
    """About one arrival a tick, service times 1-2."""
    jobs = []
    for t in range(horizon):
        for _ in range(rng.choice((0, 1, 1, 2))):
            jobs.append(Job(len(jobs), rng.randint(1, 2), t))
    return jobs


def test_operator_paths_never_build_an_array_view(monkeypatch, rng):
    def refuse(matrix):
        raise AssertionError("an operator built a dense view")

    monkeypatch.setattr(ScheduleMatrix, "head", property(refuse))
    monkeypatch.setattr(ScheduleMatrix, "body", property(refuse))
    moved = []
    rebalance = simulator._rebalance_crossover_inplace

    def counting(matrix, loads, cfg):
        before = list(loads)
        reached = rebalance(matrix, loads, cfg)
        moved.append(loads != before)
        return reached

    monkeypatch.setattr(simulator, "_rebalance_crossover_inplace", counting)
    overload = OverloadConfig(w=2, delta=1)
    for k, m in ((3, 6), (16, 256)):
        cfg = SimConfig(k=k, m=m, send_failure_prob=0.5, horizon=300, overload=overload)
        metrics = run_sim(cfg, _stream(rng, 300))
        assert metrics.send_failures > 0 and metrics.overload_ticks > 0
    # the periodic rebalance moved queued jobs (at (3, 6) dispatch keeps the
    # columns level, so the moves come from the deep shape)
    assert any(moved)
    fitness_cfg = SchedulerFitnessConfig(overload=OverloadConfig(w=2, delta=0))
    problem = SchedulingProblem(
        jobs=[Job(i, 1, 0) for i in range(12)], k=3, m=3, fitness_cfg=fitness_cfg,
        ga_cfg=GaConfig(population_size=8, max_generations=5),
    )
    result = optimize_schedule(problem)
    assert schedule_fitness(result.matrix, fitness_cfg) == result.fitness
    assert brute_force_best(12, 3, 3, fitness_cfg).optimum <= result.fitness
    assert from_text(to_text(result.matrix)) == result.matrix


# ----------------------------------------------- in-place cores and loads
# Each case readies a random matrix for one core that reads column loads
# and returns the core and its arguments after the matrix and loads.

def _recall_case(rng, matrix):
    matrix.rows[-1] = 0
    matrix.labels[-1] = None
    return _recall_job_inplace, (999,)


def _mutate_case(rng, matrix):
    return _mutate_dropped_rows_inplace, (random.Random(rng.getrandbits(32)),)


def _rebalance_case(rng, matrix):
    cfg = OverloadConfig(w=rng.randint(0, matrix.m), delta=rng.randint(0, matrix.k))
    return _rebalance_crossover_inplace, (cfg,)


@pytest.mark.parametrize("case", [_recall_case, _mutate_case, _rebalance_case])
def test_core_keeps_the_callers_loads_equal_to_column_loads(case, rng):
    # small random shapes, then the deep pipeline shape k = 16, m = 256
    shapes = [(rng.randint(1, 6), rng.randint(1, 5)) for _ in range(200)] + [(256, 16)] * 10
    for m_rows, k in shapes:
        matrix = repair_rows(random_matrix(rng, m_rows, k, labeled=True))
        core, args = case(rng, matrix)
        loads = column_loads(matrix)
        core(matrix, loads, *args)
        assert loads == column_loads(matrix)


# ---------------------------------------------------------------- shift_up

def test_shift_moves_single_entry_with_its_label():
    out = matrix_from_body([[0], [1]], labels=[None, None, 9])
    _shift_up_inplace(out)
    assert out.body.tolist() == [[1], [0]]
    assert out.labels == [None, 9, None]
    assert not out.head.any()


def test_shift_on_zero_matrix_is_zero():
    m = ScheduleMatrix.empty(4, 3)
    out = m.copy()
    _shift_up_inplace(out)
    assert out == m


def test_shift_requires_cleared_head():
    m = ScheduleMatrix.empty(2, 2)
    m.rows[0] = 0b10
    with pytest.raises(StateError):
        _shift_up_inplace(m)
    labeled = ScheduleMatrix.empty(2, 2)
    labeled.labels[0] = 4
    with pytest.raises(StateError):
        _shift_up_inplace(labeled)


def test_shift_equals_dense_superdiagonal_product(rng):
    for _ in range(1000):
        m_rows = rng.randint(1, 8)
        k = rng.randint(1, 8)
        matrix = random_matrix(rng, m_rows, k)
        matrix.rows[0] = 0
        out = matrix.copy()
        _shift_up_inplace(out)
        expected_body = nilpotent_shift(m_rows) @ matrix.body
        assert (out.body == expected_body).all()
        assert (out.head == matrix.body[0]).all()


def test_repeated_shift_zeroes_any_body(rng):
    for _ in range(50):
        m_rows = rng.randint(1, 6)
        k = rng.randint(1, 5)
        matrix = random_matrix(rng, m_rows, k)
        matrix.rows[0] = 0
        for _ in range(m_rows):
            matrix.rows[0], matrix.labels[0] = 0, None
            _shift_up_inplace(matrix)
        assert not matrix.body.any()


# -------------------------------------------------------------- recall_job

def test_recall_targets_least_loaded_column():
    body = [[1, 0, 0], [1, 0, 1], [0, 0, 0]]
    m = matrix_from_body(body, labels=[None, 1, 2, None])
    out, _ = on_copy(_recall_job_inplace, m, 5)
    assert out.body[2].tolist() == [0, 1, 0]
    assert out.labels[3] == 5


def test_recall_breaks_ties_to_lowest_column():
    body = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 0]]
    m = matrix_from_body(body, labels=[None, 1, 2, 3, None])
    out, _ = on_copy(_recall_job_inplace, m, 9)
    assert out.body[3].tolist() == [1, 0, 0]


def test_recall_rejects_occupied_last_row():
    m = matrix_from_body([[1, 0]], labels=[None, 4])
    with pytest.raises(CapacityError):
        _recall_job_inplace(m, column_loads(m), 5)


def test_recall_places_exactly_one_bit(rng):
    for _ in range(1000):
        m_rows = rng.randint(1, 6)
        k = rng.randint(1, 5)
        matrix = random_matrix(rng, m_rows, k, labeled=True)
        matrix.rows[m_rows] = 0
        matrix.labels[m_rows] = None
        _recall_job_inplace(matrix, column_loads(matrix), 999)
        assert int(matrix.body[m_rows - 1].sum()) == 1


def test_recall_core_takes_stray_bits_of_unlabeled_last_row_off_loads():
    # the last row is unlabeled but holds bits; the recall clears them
    m = matrix_from_body([[1, 0, 0], [0, 1, 1]], labels=[None, 1, None])
    loads = column_loads(m)
    _recall_job_inplace(m, loads, 7)
    assert m.body[1].tolist() == [1, 0, 0]  # loads [1, 1, 1] before: ties to column 1
    assert loads == column_loads(m) == [2, 0, 0]


# ------------------------------------------------------------- repair_rows

def test_repair_keeps_leftmost_bit():
    m = matrix_from_body([[1, 1, 0]])
    out = repair_rows(m)
    assert out.body[0].tolist() == [1, 0, 0]


def test_repair_leaves_feasible_matrix_unchanged(rng):
    matrix = matrix_from_body([[0, 1], [1, 0], [0, 0]])
    assert repair_rows(matrix) == matrix


def test_repair_rowsums_and_hamming_distance(rng):
    for _ in range(1000):
        m_rows = rng.randint(1, 7)
        k = rng.randint(1, 7)
        matrix = random_matrix(rng, m_rows, k, density=0.5)
        out = repair_rows(matrix)
        rows_in = [matrix.head] + list(matrix.body)
        rows_out = [out.head] + list(out.body)
        assert all(int(r.sum()) <= 1 for r in rows_out)
        hamming = sum(int((a != b).sum()) for a, b in zip(rows_in, rows_out))
        expected = sum(max(0, int(r.sum()) - 1) for r in rows_in)
        assert hamming == expected
        assert repair_rows(out) == out  # idempotent


# ------------------------------------------------------------- column_load

def column_load(matrix: ScheduleMatrix, j: int) -> int:
    """Number of queued (body) jobs waiting at machine ``j`` (1-based)."""
    if not 1 <= j <= matrix.k:
        raise ValueError(f"machine index must lie in 1..{matrix.k}")
    return int(matrix.body[:, j - 1].sum())


def test_column_load_zero_column():
    assert column_load(ScheduleMatrix.empty(3, 2), 1) == 0


def test_column_load_counts_body_only():
    m = matrix_from_body([[1, 0], [1, 0], [1, 0], [0, 0]], head=[1, 0])
    assert column_load(m, 1) == 3
    assert column_load(m, 2) == 0


def test_column_loads_sum_to_body_popcount(rng):
    for _ in range(200):
        matrix = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        assert sum(column_loads(matrix)) == int(matrix.body.sum())


def test_column_load_rejects_bad_index():
    m = ScheduleMatrix.empty(2, 3)
    with pytest.raises(ValueError):
        column_load(m, 0)
    with pytest.raises(ValueError):
        column_load(m, 4)


# ---------------------------------------------------------- inverse_select

def test_inverse_select_direct_comparison():
    body = [[1, 0, 0], [1, 1, 0], [1, 0, 0]]
    m = matrix_from_body(body)
    assert inverse_select(m, OverloadConfig(w=2, delta=0)) == {1}


def test_inverse_select_saturates_at_row_count(rng):
    for _ in range(100):
        m_rows = rng.randint(1, 5)
        matrix = repair_rows(random_matrix(rng, m_rows, rng.randint(1, 4)))
        # row-feasible loads cannot exceed the row count
        assert inverse_select(matrix, OverloadConfig(w=m_rows, delta=0)) == set()


def test_inverse_select_equals_brute_filter(rng):
    for _ in range(1000):
        matrix = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        w = rng.randint(0, 4)
        cfg = OverloadConfig(w=w, delta=0)
        expected = {j for j in range(1, matrix.k + 1) if column_load(matrix, j) > w}
        assert inverse_select(matrix, cfg) == expected


# ------------------------------------------------------ rebalance_crossover

def overload_count(matrix, w):
    return sum(1 for load in column_loads(matrix) if load > w)


def min_overloads_by_redistribution(total, k, m, w):
    """Exhaustive minimum of overloaded columns over all load vectors."""
    best = k + 1
    for loads in itertools.product(range(m + 1), repeat=k):
        if sum(loads) == total:
            best = min(best, sum(1 for x in loads if x > w))
    return best


def test_rebalance_splits_single_full_column():
    body = [[1, 0], [1, 0], [1, 0], [1, 0]]
    m = matrix_from_body(body, labels=[None, 1, 2, 3, 4])
    out, reached = on_copy(_rebalance_crossover_inplace, m, OverloadConfig(w=2, delta=0))
    assert reached
    assert column_loads(out) == [2, 2]
    assert overload_count(out, 2) == 0


def test_rebalance_leaves_feasible_matrix_alone():
    body = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    m = matrix_from_body(body, labels=[None, 1, 2, 3])
    out, reached = on_copy(_rebalance_crossover_inplace, m, OverloadConfig(w=2, delta=0))
    assert reached
    assert out == m


def _check_rebalance_preserves_popcount_and_never_worsens(rng, repair):
    for _ in range(1000):
        m_rows = rng.randint(1, 7)
        k = rng.randint(1, 5)
        matrix = random_matrix(rng, m_rows, k, density=0.6)
        if repair:
            matrix = repair_rows(matrix)
        w = rng.randint(1, max(1, m_rows))
        delta = rng.randint(0, k)
        cfg = OverloadConfig(w=w, delta=delta)
        before = overload_count(matrix, w)
        out, reached = on_copy(_rebalance_crossover_inplace, matrix, cfg)
        assert int(out.body.sum()) == int(matrix.body.sum())
        after = overload_count(out, w)
        assert after <= before
        if sum(column_loads(matrix)) <= k * w:
            assert after == 0 or delta >= after
        if reached:
            assert after <= delta


def test_rebalance_preserves_popcount_and_never_worsens(rng):
    _check_rebalance_preserves_popcount_and_never_worsens(rng, repair=True)


def test_rebalance_preserves_popcount_on_rows_with_several_ones(rng):
    _check_rebalance_preserves_popcount_and_never_worsens(rng, repair=False)


def test_rebalance_moves_only_from_rows_free_at_the_target():
    # the deepest 1 of column 1 sits in a row that already has a 1 in
    # column 2; moving it there would lose a queued job
    m = matrix_from_body([[1, 0], [1, 0], [1, 1]], labels=[None, 1, 2, 3])
    out, reached = on_copy(_rebalance_crossover_inplace, m, OverloadConfig(w=2, delta=0))
    assert reached
    assert out.body.tolist() == [[1, 0], [0, 1], [1, 1]]
    assert column_loads(out) == [2, 2]


def test_rebalance_reaches_zero_under_total_capacity(rng):
    for _ in range(500):
        m_rows = rng.randint(1, 7)
        k = rng.randint(1, 5)
        matrix = repair_rows(random_matrix(rng, m_rows, k, density=0.5))
        w = rng.randint(1, m_rows)
        if sum(column_loads(matrix)) > k * w:
            continue
        out, _ = on_copy(_rebalance_crossover_inplace, matrix, OverloadConfig(w=w, delta=0))
        assert overload_count(out, w) == 0


def test_rebalance_matches_exhaustive_minimum_on_small_grids(rng):
    for _ in range(400):
        m_rows = rng.randint(1, 3)
        k = rng.randint(1, 3)
        matrix = repair_rows(random_matrix(rng, m_rows, k, density=0.7))
        w = rng.randint(1, 2)
        out, _ = on_copy(_rebalance_crossover_inplace, matrix, OverloadConfig(w=w, delta=0))
        total = int(matrix.body.sum())
        assert overload_count(out, w) == min_overloads_by_redistribution(
            total, k, m_rows, w
        )


def test_rebalance_preserves_within_column_order_of_untouched_entries():
    body = [[0, 1], [1, 0], [1, 0], [1, 0], [1, 0]]
    m = matrix_from_body(body, labels=[None, 10, 11, 12, 13, 14])
    out, _ = on_copy(_rebalance_crossover_inplace, m, OverloadConfig(w=3, delta=0))
    # the deepest entry of column 1 moved; everything else kept its row
    assert out.body[:4].tolist() == body[:4]
    assert out.body[4].tolist() == [0, 1]


# ------------------------------------------------------ mutate_dropped_rows

def test_mutate_fills_labeled_zero_row():
    m = matrix_from_body([[0, 0, 0]], labels=[None, 5])
    out, _ = on_copy(_mutate_dropped_rows_inplace, m, random.Random(0))
    assert int(out.body[0].sum()) == 1


def test_mutate_without_dropped_rows_is_identity(rng):
    matrix = matrix_from_body([[0, 1], [1, 0]], labels=[None, 1, 2])
    assert on_copy(_mutate_dropped_rows_inplace, matrix, random.Random(3))[0] == matrix


def test_mutate_column_choice_is_uniform():
    counts = [0, 0, 0, 0]
    rng_ = random.Random(616)
    n = 10000
    for _ in range(n):
        m = matrix_from_body([[0, 0, 0, 0]], labels=[None, 5])
        _mutate_dropped_rows_inplace(m, column_loads(m), rng_)
        counts[int(np.argmax(m.body[0]))] += 1
    for c in counts:
        assert abs(c / n - 0.25) <= 0.02


def test_mutate_leaves_no_labeled_zero_rows(rng):
    for _ in range(200):
        matrix = repair_rows(random_matrix(rng, rng.randint(1, 6), rng.randint(1, 5), labeled=True))
        _mutate_dropped_rows_inplace(matrix, column_loads(matrix), rng)
        assert matrix.dropped_rows() == []


# ------------------------------------------------------- genome round trip

def to_genome(matrix: ScheduleMatrix) -> Genome:
    """Row-major flattening of the body (head row excluded)."""
    return Genome(tuple(int(b) for b in matrix.body.reshape(-1)))


def test_single_cell_genome():
    m = matrix_from_body([[1]], labels=[None, 1])
    assert to_genome(m).bits == (1,)


def test_feasible_body_round_trips():
    m = matrix_from_body([[1, 0], [0, 1]], labels=[None, 1, 2])
    g = to_genome(m)
    assert g.bits == (1, 0, 0, 1)
    back = decode_schedule(g, [1, 2], 2, 2)
    assert (back.body == m.body).all()
    assert back.labels == m.labels


# ------------------------------------------------------------ text format

def test_text_snapshot_round_trip(rng):
    for _ in range(50):
        matrix = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 5), labeled=True)
        assert from_text(to_text(matrix)) == matrix


def _reference_to_text(matrix):
    """to_text as first written, one format a row."""
    lines = [f"{matrix.m} {matrix.k}"]
    lines.extend(" ".join(format(row, f"0{matrix.k}b")[::-1]) for row in matrix.rows)
    lines.append(",".join("-" if lab is None else str(lab) for lab in matrix.labels))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("k", (1, 8, 31, 64, 70, 1024))
def test_to_text_matches_per_row_reference(k):
    rng = random.Random(k)
    full = (1 << k) - 1
    pool = [0, 1, full, 1 << (k - 1)]
    distinct = []
    while len(distinct) < min(13, 1 << k):
        value = rng.getrandbits(k)
        if value not in distinct:
            distinct.append(value)
    cases = [
        [rng.choice(pool) for _ in range(13)],  # repeated rows
        [rng.getrandbits(k) | rng.getrandbits(k) for _ in range(13)],  # multi-bit rows
        [0] * 13,
        distinct,
    ]
    decoded = decode_schedule(random_placement_genome(20, k, 3, rng), list(range(20)), k, 3)
    assert len(set(decoded.rows)) <= k + 1
    matrices = [decoded]
    for rows in cases:
        unlabeled = [None] * len(rows)
        labeled = [None if rng.random() < 0.3 else i * 10**12 for i in range(len(rows))]
        matrices += [ScheduleMatrix(len(rows) - 1, k, rows, labels)
                     for labels in (unlabeled, labeled)]
    for matrix in matrices:
        text = to_text(matrix)
        assert text == _reference_to_text(matrix)
        assert from_text(text) == matrix


def test_text_snapshot_shape():
    m = matrix_from_body([[0, 1], [0, 0]], labels=[None, 3, None], head=[1, 0])
    text = to_text(m)
    assert text.splitlines()[0] == "2 2"
    assert text.splitlines()[-1] == "-,3,-"


@pytest.mark.parametrize("text, error, match", [
    ("1 2\n0 0\n", ValueError, "truncated"),
    ("1 2\n0 0\n0 0\n0 0\n-,-\n", ValueError, "wrong number of lines"),
    ("1 2\n0 0\n0\n-,-\n", DimensionError, None),  # a short row
    ("1 2\n0 0 1\n0 0\n-,-\n", DimensionError, None),  # a long row
    ("1 2\n0 0\n0 1\n3,3\n", ValueError, "job labels must be unique"),
])
def test_from_text_rejects_malformed_snapshots(text, error, match):
    with pytest.raises(error, match=match):
        from_text(text)


# ------------------------------------------------------- job conservation

def test_jobs_stay_in_exactly_one_state_across_cycles(rng):
    for trial in range(50):
        m_rows = rng.randint(2, 6)
        k = rng.randint(1, 4)
        matrix = repair_rows(random_matrix(rng, m_rows, k, labeled=True))
        all_jobs = {lab for lab in matrix.labels if lab is not None}
        completed, dropped = set(), set()
        for _ in range(m_rows + 2):
            # a head job with a 1 completed; one whose row is all zero is recalled
            job, done = matrix.labels[0], matrix.rows[0]
            matrix.rows[0], matrix.labels[0] = 0, None
            if job is not None and done:
                completed.add(job)
            elif job is not None:
                try:
                    _recall_job_inplace(matrix, column_loads(matrix), job)
                except CapacityError:
                    dropped.add(job)
            _shift_up_inplace(matrix)
            queued = {lab for lab in matrix.labels if lab is not None}
            states = [queued, completed, dropped]
            for a, b in itertools.combinations(states, 2):
                assert not (a & b)
            assert queued | completed | dropped == all_jobs

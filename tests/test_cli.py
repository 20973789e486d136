import contextlib
import hashlib
import io
import json
import math
import re
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gasched.cli import SUBCOMMANDS, RunConfig, main, parse_config
from gasched.errors import ConfigError


def write_workload(tmp_path, jobs):
    path = tmp_path / "jobs.txt"
    path.write_text("".join(f"{i} {a} {s}\n" for i, a, s in jobs))
    return str(path)


def write_config(tmp_path, values, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(values))
    return str(path)


# ------------------------------------------------------------- parse_config

def test_readme_key_table_matches_run_config():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    rows = re.findall(r"^\| `(\w+)` \| `([^`]+)` \| (`--[\w-]+`|file only) \|$", readme, re.M)
    declared = [
        (f.name, json.dumps(f.default),
         f"`--{f.name.replace('_', '-')}`" if f.metadata["flag"] else "file only")
        for f in fields(RunConfig) if f.name != "subcommand"
    ]
    assert rows == declared


def test_defaults_resolve_without_input():
    cfg = parse_config(["print-config"])
    assert cfg.seed == 0
    assert cfg.population == 40
    assert cfg.format == "json"


def test_flag_overrides_file_value(tmp_path):
    cfg_path = write_config(tmp_path, {"seed": 7})
    cfg = parse_config(["print-config", "--config", cfg_path, "--seed", "42"])
    assert cfg.seed == 42


def test_file_overrides_default(tmp_path):
    cfg_path = write_config(tmp_path, {"machines": 5, "delta": 1})
    cfg = parse_config(["print-config", "--config", cfg_path])
    assert cfg.machines == 5


def test_unknown_key_is_rejected(tmp_path):
    cfg_path = write_config(tmp_path, {"machine_count": 5})
    with pytest.raises(ConfigError) as err:
        parse_config(["print-config", "--config", cfg_path])
    assert "machine_count" in str(err.value)


def test_w_above_queue_depth_names_w(tmp_path):
    cfg_path = write_config(tmp_path, {"w": 9, "queue_depth": 3})
    with pytest.raises(ConfigError) as err:
        parse_config(["print-config", "--config", cfg_path])
    assert str(err.value).startswith("w")


def test_type_mismatch_names_key(tmp_path):
    cfg_path = write_config(tmp_path, {"population": "forty"})
    with pytest.raises(ConfigError) as err:
        parse_config(["print-config", "--config", cfg_path])
    assert "population" in str(err.value)


# --------------------------------------------------------------- exit codes

def test_print_config_exits_zero(capsys):
    assert main(["print-config"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["population"] == 40


def test_config_error_exits_two(tmp_path, capsys):
    cfg_path = write_config(tmp_path, {"w": 9, "queue_depth": 3})
    assert main(["simulate", "--config", cfg_path]) == 2
    assert "w" in capsys.readouterr().err


def test_missing_workload_for_optimize_exits_two(capsys):
    assert main(["optimize"]) == 2
    assert "workload" in capsys.readouterr().err


@pytest.mark.parametrize(
    "jobs, argv, key",
    [
        ([(0, 0, 0)], ["simulate"], "workload"),
        ([], ["optimize"], "workload"),
        ([], ["oracle-check"], "workload"),
        ([(0, 0, 1)], ["optimize", "--seed", str(2**64)], "seed"),
        ([(0, 0, 1)], ["oracle-check", "--seed", str(2**64 - 1)], "seed"),
        ([(0, 0, 1), (1, 0, 1), (0, 1, 1)], ["optimize"], "workload"),
        ([(0, 0, 1), (1, 0, 1), (0, 1, 1)], ["oracle-check"], "workload"),
        ([(0, 0, 1)], ["simulate", "--workload", "{tmp}/missing.txt"], "workload"),
        ([(0, 0, 1)], ["optimize", "--workload", "{tmp}"], "workload"),
        ([(0, 0, 1)], ["simulate", "--workload", "{tmp}/latin1.txt"], "workload"),
        ([(0, 0, 1)], ["simulate", "--out", "{tmp}"], "out"),
        ([(0, 0, 1)], ["optimize", "--out", "{tmp}/missing/best.json"], "out"),
        ([(0, 0, 1)], ["simulate", "--format", "xml"], "format"),
        ([], ["simulate", "--machines", str(10**20), "--delta", "0", "--horizon", "1"],
         "machines"),
        ([], ["simulate", "--queue-depth", str(10**20), "--delta", "0", "--horizon", "1"],
         "queue_depth"),
        ([(0, 0, 1), (1, 0, 1)], ["optimize", "--machines", str(10**20), "--delta", "0"],
         "machines"),
        ([(0, 0, 1)], ["oracle-check", "--machines", "1025"], "machines"),
        ([(0, 0, 1)], ["simulate", "--queue-depth", "4097"], "queue_depth"),
    ],
    ids=["zero-service-time", "empty-optimize", "empty-oracle-check",
         "seed-above-64-bits", "sweep-above-64-bits",
         "duplicate-id-optimize", "duplicate-id-oracle-check",
         "workload-missing", "workload-directory", "workload-not-utf-8",
         "out-directory", "out-in-missing-directory", "format-xml",
         "machines-1e20-simulate", "queue-depth-1e20-simulate", "machines-1e20-optimize",
         "machines-above-cap", "queue-depth-above-cap"],
)
def test_bad_input_exits_two_naming_key(tmp_path, capsys, jobs, argv, key):
    wl = write_workload(tmp_path, jobs)
    (tmp_path / "latin1.txt").write_bytes(b"# caf\xe9\n0 0 1\n")
    # a later flag wins, so an argv naming its own --workload overrides wl
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    assert main([argv[0], "--workload", wl, *argv[1:]]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {key}:")


def test_largest_machines_and_queue_depth_simulate(capsys):
    assert main(["simulate", "--machines", "1024", "--queue-depth", "4096", "--horizon", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["config"]["queue_depth"] == 4096


@pytest.mark.parametrize(
    "data",
    [b'{"seed": 1' + b"0" * 5000 + b"}", b"[" * 200_000, b'{"workload": "caf\xe9"}'],
    ids=["int-over-4300-digits", "nesting-beyond-recursion-limit", "not-utf-8"],
)
def test_unloadable_config_file_exits_two_naming_config(tmp_path, capsys, data):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_bytes(data)
    assert main(["print-config", "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().err.startswith("config error: config:")


@pytest.mark.parametrize("subcommand", ["optimize", "oracle-check", "simulate"])
@pytest.mark.parametrize(
    "text, key",
    [
        ('{"overload_weight": Infinity}', "overload_weight"),
        ('{"drop_weight": NaN}', "drop_weight"),
        ('{"drop_weight": Infinity}', "drop_weight"),
        ('{"stagnation_tol": NaN}', "stagnation_tol"),
        ('{"crossover_rate": 1' + "0" * 400 + '}', "crossover_rate"),
    ],
    ids=["overload-weight-inf", "drop-weight-nan", "drop-weight-inf", "stagnation-tol-nan",
         "crossover-rate-int-overflow"],
)
def test_non_finite_config_value_exits_two_naming_key(tmp_path, capsys, subcommand, text, key):
    # json.loads reads NaN, Infinity and -Infinity as floats; a huge int overflows float
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(text)
    wl = write_workload(tmp_path, [(0, 0, 1), (1, 0, 1)])
    assert main([subcommand, "--config", str(cfg_path), "--workload", wl]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {key}:")


# ----------------------------------------------------------------- simulate

def test_simulate_empty_workload_writes_zero_metrics(tmp_path):
    out = tmp_path / "metrics.json"
    code = main(["simulate", "--horizon", "10", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["completed"] == 0
    assert doc["dropped"] == 0
    assert doc["config"]["horizon"] == 10
    assert doc["seed"] == 0


def test_simulate_output_is_byte_identical_across_runs(tmp_path):
    wl = write_workload(tmp_path, [(i, i, 1) for i in range(8)])
    out = tmp_path / "a.json"
    args = ["simulate", "--workload", wl, "--horizon", "20", "--seed", "3",
            "--out", str(out)]
    assert main(args) == 0
    first = out.read_bytes()
    assert main(args) == 0
    assert out.read_bytes() == first


def test_simulate_both_formats_writes_csv_trace(tmp_path):
    wl = write_workload(tmp_path, [(0, 0, 1)])
    out = tmp_path / "m.json"
    code = main([
        "simulate", "--workload", wl, "--horizon", "5",
        "--out", str(out), "--format", "both",
    ])
    assert code == 0
    csv_text = (tmp_path / "m.json.csv").read_text()
    assert csv_text.splitlines()[0] == "tick,completed,dropped,mean_load"
    assert len(csv_text.strip().splitlines()) == 6


def test_simulate_counts_paced_workload(tmp_path):
    wl = write_workload(tmp_path, [(i, i, 1) for i in range(6)])
    out = tmp_path / "m.json"
    code = main([
        "simulate", "--workload", wl, "--machines", "2", "--queue-depth", "4",
        "--w", "2", "--delta", "1", "--horizon", "15", "--out", str(out),
    ])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["completed"] == 6
    assert doc["dropped"] == 0


# ----------------------------------------------------------------- optimize

def test_optimize_writes_matrix_and_history(tmp_path):
    wl = write_workload(tmp_path, [(0, 0, 1), (1, 0, 1)])
    out = tmp_path / "opt.json"
    code = main([
        "optimize", "--workload", wl, "--machines", "2", "--queue-depth", "1",
        "--w", "1", "--delta", "0", "--out", str(out),
    ])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["best_fitness"] == 0.0
    assert doc["history"]
    assert doc["matrix"].startswith("2 2\n")


def test_optimize_is_reproducible(tmp_path):
    wl = write_workload(tmp_path, [(i, 0, 1) for i in range(5)])
    out = tmp_path / "o1.json"
    args = [
        "optimize", "--workload", wl, "--machines", "2", "--queue-depth", "2",
        "--w", "2", "--delta", "0", "--seed", "11", "--out", str(out),
    ]
    assert main(args) == 0
    first = out.read_bytes()
    assert main(args) == 0
    assert out.read_bytes() == first


# ------------------------------------------------------------- oracle-check

def test_oracle_check_matches_on_trivial_instance(tmp_path):
    wl = write_workload(tmp_path, [(0, 0, 1), (1, 0, 1)])
    cfg_path = write_config(tmp_path, {"oracle_sweep": 3})
    out = tmp_path / "oc.json"
    code = main([
        "oracle-check", "--config", cfg_path, "--workload", wl,
        "--machines", "2", "--queue-depth", "1", "--w", "1", "--delta", "0",
        "--out", str(out),
    ])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["match"] is True
    assert doc["ga_best"] == doc["oracle_optimum"] == 0.0


def test_oracle_check_balanced_instance_with_sweep(tmp_path):
    wl = write_workload(tmp_path, [(i, 0, 1) for i in range(6)])
    cfg_path = write_config(tmp_path, {"oracle_sweep": 5})
    out = tmp_path / "oc.json"
    code = main([
        "oracle-check", "--config", cfg_path, "--workload", wl,
        "--machines", "3", "--queue-depth", "3", "--w", "2", "--delta", "0",
        "--out", str(out),
    ])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["oracle_optimum"] == 0.0
    assert doc["match"] is True


def test_oracle_check_mismatch_exits_one(tmp_path):
    # a deliberately crippled GA (no variation, one generation, one seed)
    # cannot reach the optimum on this instance
    wl = write_workload(tmp_path, [(i, 0, 1) for i in range(6)])
    cfg_path = write_config(
        tmp_path,
        {
            "population": 2,
            "generations": 1,
            "elite_count": 0,
            "mutation_rate": 0.0,
            "crossover_rate": 0.0,
            "oracle_sweep": 1,
            "seed": 3,
            "machines": 3,
            "queue_depth": 3,
            "w": 1,
            "delta": 0,
        },
    )
    out = tmp_path / "oc.json"
    code = main(["oracle-check", "--config", cfg_path, "--workload", wl, "--out", str(out)])
    assert code == 1
    doc = json.loads(out.read_text())
    assert doc["match"] is False
    assert doc["ga_best"] > doc["oracle_optimum"]


def test_oracle_check_sweep_runs_optimize_at_each_seed(tmp_path, capsys):
    # entry i of the sweep is what optimize finds at seed + i; the crippled
    # GA makes the result depend on the seed
    wl = write_workload(tmp_path, [(i, 0, 1) for i in range(6)])
    cfg_path = write_config(tmp_path, {
        "population": 2, "generations": 1, "elite_count": 0, "mutation_rate": 0.0,
        "crossover_rate": 0.0, "w": 1, "delta": 0, "oracle_sweep": 4,
    })
    args = ["--config", cfg_path, "--workload", wl]
    assert main(["oracle-check", *args, "--seed", "3"]) in (0, 1)
    sweep = json.loads(capsys.readouterr().out)["ga_sweep"]
    single = []
    for seed in range(3, 7):
        assert main(["optimize", *args, "--seed", str(seed)]) == 0
        single.append(json.loads(capsys.readouterr().out)["best_fitness"])
    assert sweep == single
    assert len(set(sweep)) > 1


def test_oracle_check_solves_beyond_assignment_budget(tmp_path):
    # 4^30 assignments; the optimum is the closed form
    # drop_weight*max(0, J-k*m) + overload_weight*ceil(max(0, S-k*w)/(m-w))
    # with S = min(J, k*m) placed jobs
    jobs, k, m, w = 30, 3, 3, 2
    wl = write_workload(tmp_path, [(i, 0, 1) for i in range(jobs)])
    cfg_path = write_config(tmp_path, {"oracle_sweep": 1, "generations": 20})
    out = tmp_path / "oc.json"
    code = main([
        "oracle-check", "--config", cfg_path, "--workload", wl,
        "--machines", str(k), "--queue-depth", str(m), "--w", str(w),
        "--delta", "0", "--out", str(out),
    ])
    assert code in (0, 1)
    placed = min(jobs, k * m)
    expected = 100.0 * max(0, jobs - k * m) + 1.0 * math.ceil(max(0, placed - k * w) / (m - w))
    assert json.loads(out.read_text())["oracle_optimum"] == expected == 2103.0


def test_oracle_check_over_budget_exits_two(tmp_path, capsys):
    # C(16 + 16, 16) load vectors exceed the oracle budget
    wl = write_workload(tmp_path, [(i, 0, 1) for i in range(40)])
    code = main([
        "oracle-check", "--workload", wl, "--machines", "16",
        "--queue-depth", "16", "--w", "2", "--delta", "1",
    ])
    assert code == 2
    assert capsys.readouterr().err.startswith("config error")


# ------------------------------------------------------------ golden output

def _normalized(out):
    """Stdout with the temporary workload path replaced by a placeholder,
    re-emitted as the CLI writes it; a trailing CSV trace is kept as is."""
    doc, end = json.JSONDecoder().raw_decode(out)
    doc["config"]["workload"] = "<workload>"
    return json.dumps(doc, sort_keys=True, indent=2) + out[end:]


@pytest.mark.parametrize(
    "jobs, argv, digest",
    [
        (
            [(i, 0, 1 + i % 3) for i in range(7)],
            ["optimize", "--machines", "3", "--queue-depth", "3", "--w", "2",
             "--delta", "0", "--seed", "5"],
            "ed304b19c691216b67971f7e4f263fb925971b85376a62a446fb14ef4d0ca9ca",
        ),
        (
            [(i, i, 1 + i % 3) for i in range(16)],
            ["simulate", "--machines", "3", "--queue-depth", "4", "--w", "1",
             "--delta", "1", "--horizon", "40", "--send-failure-prob", "0.3",
             "--rebalance-interval", "3", "--seed", "4", "--format", "both"],
            "c37fbb51a2155278a344581864f399e8e28039195b3715aa0a661f326274f2be",
        ),
        (
            [(i, 0, 1) for i in range(6)],
            ["oracle-check", "--machines", "3", "--queue-depth", "2", "--w", "1",
             "--delta", "1", "--seed", "2"],
            "b58ce1781be6c202876037ac8ebd5662fa06ebc18cb8649e2cae1f1af074142f",
        ),
        (
            # 240-bit genomes, several machine words; the GA improves
            # once (history 3.0 -> 2.0), so crossover and mutate matter
            [(i, 0, 1 + i % 4) for i in range(40)],
            ["optimize", "--machines", "6", "--queue-depth", "8", "--w", "6",
             "--delta", "1", "--seed", "2"],
            "f9f941470e7540cd10d3679b258ec7edcf67067e09be32f6e5ecd1c52703ba92",
        ),
    ],
    ids=["optimize", "simulate", "oracle-check", "optimize-240-bits"],
)
def test_stdout_matches_golden_digest(tmp_path, capsys, jobs, argv, digest):
    # a changed digest means a changed output: the objective, an RNG draw
    # order or the document layout moved
    wl = write_workload(tmp_path, jobs)
    assert main([*argv, "--workload", wl]) == 0
    text = _normalized(capsys.readouterr().out)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# ------------------------------------------------------ exit-code contract

_KNOWN_KEYS = {f.name: f.default for f in fields(RunConfig) if f.name != "subcommand"}
_NON_INT = st.one_of(
    st.none(), st.booleans(), st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=6)
)
_ANY_VALUE = _NON_INT | st.integers()
# keys that size a run stay small, so that no case allocates or runs at scale
_SIZES = {"population": 6, "generations": 4, "horizon": 20, "machines": 4, "queue_depth": 4,
          "oracle_sweep": 3}
_PATHS = {"workload": ["jobs.txt", "empty.txt", "bad.txt", "missing.txt", "."],
          "out": ["out.json", "missing/out.json", "."]}


def _key_values(tmp_path, key, default):
    """Strategies for one key's usual values and for any value it may be
    given; paths stay under tmp_path."""
    if key in _SIZES:
        other = st.integers(-1, _SIZES[key]) | _NON_INT
        if key in ("machines", "queue_depth"):  # far above the cap: exits 2 unbuilt
            other |= st.integers(min_value=10**4)
        return st.integers(1, _SIZES[key]), other
    if key in _PATHS:
        usual, *other = (str(tmp_path / name) for name in _PATHS[key])
        non_str = _NON_INT.filter(lambda v: not isinstance(v, str)) | st.integers()
        paths = st.just(usual) | st.sampled_from([usual, *other])
        return paths, paths | non_str
    if isinstance(default, bool):
        return st.booleans(), _ANY_VALUE
    if isinstance(default, int):
        return st.integers(1, 2), _ANY_VALUE
    if isinstance(default, float):
        return st.floats(0, 1), _ANY_VALUE
    return st.sampled_from(["json", "csv", "both"]), _ANY_VALUE


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_every_config_file_exits_zero_one_or_two(tmp_path, data):
    write_workload(tmp_path, [(i, i % 3, 1 + i % 2) for i in range(5)])
    (tmp_path / "empty.txt").write_text("")
    (tmp_path / "bad.txt").write_text("0 0\n")
    strategies = {key: _key_values(tmp_path, key, d) for key, d in _KNOWN_KEYS.items()}
    usual = {key: values[0] for key, values in strategies.items()}
    workload = usual.pop("workload")
    config = data.draw(st.fixed_dictionaries({"workload": workload}, optional=usual),
                       label="config")
    # then up to two keys, known or not, get any value
    for key in data.draw(st.lists(st.sampled_from(list(_KNOWN_KEYS)) | st.text(max_size=8),
                                  max_size=2), label="changed keys"):
        config[key] = data.draw(strategies[key][1] if key in strategies else _ANY_VALUE, label=key)
    subcommand = data.draw(st.sampled_from(SUBCOMMANDS), label="subcommand")
    cfg_path = write_config(tmp_path, config)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([subcommand, "--config", cfg_path])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert err.getvalue().startswith(("config error: ", "error: "))
    if code == 1:
        assert subcommand == "oracle-check"
        text = out.getvalue() if config.get("out") is None else Path(config["out"]).read_text()
        assert json.loads(text)["match"] is False

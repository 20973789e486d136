import contextlib
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import FrozenInstanceError, fields, replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gasched import (
    GaConfig,
    Job,
    OverloadConfig,
    SchedulerFitnessConfig,
    SchedulingProblem,
    SimConfig,
    brute_force_best,
    optimize_schedule,
)
from gasched import cli, ga_core, simulator
from gasched.cli import SUBCOMMANDS, RunConfig, _make_problem, main, parse_config
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
        ([(0, 0, 1)], ["print-config", "--config", "{tmp}/ga_rebalance.json"], "ga_rebalance"),
    ],
    ids=["zero-service-time", "empty-optimize", "empty-oracle-check",
         "seed-above-64-bits", "sweep-above-64-bits",
         "duplicate-id-optimize", "duplicate-id-oracle-check",
         "workload-missing", "workload-directory", "workload-not-utf-8",
         "out-directory", "out-in-missing-directory", "format-xml",
         "machines-1e20-simulate", "queue-depth-1e20-simulate", "machines-1e20-optimize",
         "machines-above-cap", "queue-depth-above-cap", "removed-key-ga-rebalance"],
)
def test_bad_input_exits_two_naming_key(tmp_path, capsys, jobs, argv, key):
    wl = write_workload(tmp_path, jobs)
    (tmp_path / "latin1.txt").write_bytes(b"# caf\xe9\n0 0 1\n")
    write_config(tmp_path, {"ga_rebalance": True}, "ga_rebalance.json")  # a key since removed
    # a later flag wins, so an argv naming its own --workload overrides wl
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    assert main([argv[0], "--workload", wl, *argv[1:]]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {key}:")


# one bad value per range and cross-key rule, with the line the CLI prints
_ERROR_LINES = [
    ("print-config", {"seed": -1}, "seed: must be >= 0"),
    ("print-config", {"seed": 2**64},
     "seed: the last seed used, 18446744073709551616, must be below 2**64"),
    ("oracle-check", {"seed": 2**64 - 20, "oracle_sweep": 21},
     "seed: the last seed used, 18446744073709551616, must be below 2**64"),
    ("print-config", {"generations": 0}, "generations: must be >= 1"),
    ("print-config", {"population": 1}, "population: must be >= 2"),
    ("print-config", {"mutation_rate": 1.5}, "mutation_rate: must lie in [0, 1]"),
    ("print-config", {"crossover_rate": -0.1}, "crossover_rate: must lie in [0, 1]"),
    ("print-config", {"elite_count": -1}, "elite_count: must be >= 0"),
    ("print-config", {"elite_count": 40}, "elite_count: must be smaller than population"),
    ("print-config", {"stagnation_window": 0}, "stagnation_window: must be >= 1"),
    ("print-config", {"stagnation_tol": -0.5}, "stagnation_tol: must be >= 0"),
    ("print-config", {"machines": 0}, "machines: must lie in [1, 1024]"),
    ("print-config", {"machines": 1025}, "machines: must lie in [1, 1024]"),
    ("print-config", {"queue_depth": 0}, "queue_depth: must lie in [1, 4096]"),
    ("print-config", {"queue_depth": 4097}, "queue_depth: must lie in [1, 4096]"),
    ("print-config", {"w": -1}, "w: must be >= 0"),
    ("print-config", {"w": 4}, "w: must not exceed queue_depth"),
    ("print-config", {"delta": -1}, "delta: must be >= 0"),
    ("print-config", {"delta": 4}, "delta: must not exceed machines"),
    ("print-config", {"send_failure_prob": 1.01}, "send_failure_prob: must lie in [0, 1]"),
    ("print-config", {"rebalance_interval": 0}, "rebalance_interval: must be >= 1"),
    ("print-config", {"horizon": 0}, "horizon: must be >= 1"),
    ("print-config", {"max_recalls": -1}, "max_recalls: must be >= 0"),
    ("print-config", {"drop_weight": 0.0}, "drop_weight: must be positive"),
    ("print-config", {"overload_weight": -1.0}, "overload_weight: must be >= 0"),
    ("print-config", {"oracle_sweep": 0}, "oracle_sweep: must be >= 1"),
    ("print-config", {"format": "xml"}, "format: must be one of json, csv, both"),
]


@pytest.mark.parametrize(
    "subcommand, values, line", _ERROR_LINES,
    ids=[f"{sub}-" + ",".join(f"{k}={v}" for k, v in values.items())
         for sub, values, _ in _ERROR_LINES],
)
def test_bad_value_prints_its_exact_error_line(tmp_path, capsys, subcommand, values, line):
    assert main([subcommand, "--config", write_config(tmp_path, values)]) == 2
    assert capsys.readouterr().err == f"config error: {line}\n"


def _ga(**kwargs):
    return GaConfig(**{"population_size": 4, "max_generations": 1, **kwargs})


def _problem(k=2, m=2, w=1, delta=0, jobs=(Job(0, 1, 0),)):
    fitness_cfg = SchedulerFitnessConfig(overload=OverloadConfig(w=w, delta=delta))
    return SchedulingProblem(jobs=list(jobs), k=k, m=m, fitness_cfg=fitness_cfg, ga_cfg=_ga())


def _fit(w=1, delta=0):
    return SchedulerFitnessConfig(overload=OverloadConfig(w=w, delta=delta))


# library configs name the CLI key a bad value comes from, whatever the field is called
_LIBRARY_ERRORS = [
    ("GaConfig.population_size", lambda: _ga(population_size=1), "population"),
    ("GaConfig.max_generations", lambda: _ga(max_generations=0), "generations"),
    ("GaConfig.crossover_rate", lambda: _ga(crossover_rate=1.5), "crossover_rate"),
    ("GaConfig.mutation_rate", lambda: _ga(mutation_rate=-0.1), "mutation_rate"),
    ("GaConfig.elite_count", lambda: _ga(elite_count=-1), "elite_count"),
    ("GaConfig.elite_count-population", lambda: _ga(elite_count=4), "elite_count"),
    ("GaConfig.stagnation_window", lambda: _ga(stagnation_window=0), "stagnation_window"),
    ("GaConfig.stagnation_tol", lambda: _ga(stagnation_tol=-1.0), "stagnation_tol"),
    ("GaConfig.rng_seed-negative", lambda: _ga(rng_seed=-1), "seed"),
    ("GaConfig.rng_seed-above-64-bits", lambda: _ga(rng_seed=2**64), "seed"),
    ("OverloadConfig.w", lambda: OverloadConfig(w=-1, delta=0), "w"),
    ("OverloadConfig.delta", lambda: OverloadConfig(w=0, delta=-1), "delta"),
    ("SchedulerFitnessConfig.drop_weight",
     lambda: SchedulerFitnessConfig(overload=OverloadConfig(w=1, delta=0), drop_weight=0.0),
     "drop_weight"),
    ("SchedulerFitnessConfig.overload_weight",
     lambda: SchedulerFitnessConfig(overload=OverloadConfig(w=1, delta=0), overload_weight=-1.0),
     "overload_weight"),
    ("SchedulerFitnessConfig.drop_weight-inf",
     lambda: SchedulerFitnessConfig(overload=OverloadConfig(w=1, delta=0), drop_weight=math.inf),
     "drop_weight"),
    ("SchedulerFitnessConfig.overload_weight-inf",
     lambda: SchedulerFitnessConfig(overload=OverloadConfig(w=1, delta=0),
                                    overload_weight=math.inf),
     "overload_weight"),
    ("SchedulingProblem.k", lambda: _problem(k=0), "machines"),
    ("SchedulingProblem.m", lambda: _problem(m=0), "queue_depth"),
    ("SchedulingProblem.w-above-m", lambda: _problem(w=3), "w"),
    ("SchedulingProblem.delta-above-k", lambda: _problem(delta=3), "delta"),
    ("SchedulingProblem.jobs", lambda: _problem(jobs=()), "workload"),
    ("SimConfig.k", lambda: SimConfig(k=0, m=2), "machines"),
    ("SimConfig.m", lambda: SimConfig(k=2, m=0), "queue_depth"),
    ("SimConfig.send_failure_prob", lambda: SimConfig(k=2, m=2, send_failure_prob=2.0),
     "send_failure_prob"),
    ("SimConfig.rebalance_interval", lambda: SimConfig(k=2, m=2, rebalance_interval=0),
     "rebalance_interval"),
    ("SimConfig.horizon", lambda: SimConfig(k=2, m=2, horizon=0), "horizon"),
    ("SimConfig.max_recalls", lambda: SimConfig(k=2, m=2, max_recalls=-1), "max_recalls"),
    ("SimConfig.w-above-m", lambda: SimConfig(k=2, m=2, overload=OverloadConfig(w=3, delta=0)),
     "w"),
    ("SimConfig.delta-above-k",
     lambda: SimConfig(k=2, m=2, overload=OverloadConfig(w=0, delta=3)), "delta"),
    ("brute_force_best.k", lambda: brute_force_best(3, 0, 2, _fit()), "machines"),
    ("brute_force_best.k-no-jobs", lambda: brute_force_best(0, 0, 2, _fit()), "machines"),
    ("brute_force_best.m", lambda: brute_force_best(3, 2, 0, _fit(w=0)), "queue_depth"),
    ("brute_force_best.w-above-m", lambda: brute_force_best(3, 2, 2, _fit(w=3)), "w"),
    ("brute_force_best.delta-above-k", lambda: brute_force_best(3, 2, 2, _fit(delta=3)), "delta"),
    ("brute_force_best.job_count", lambda: brute_force_best(-1, 2, 2, _fit()), "workload"),
]


@pytest.mark.parametrize("build, key", [case[1:] for case in _LIBRARY_ERRORS],
                         ids=[case[0] for case in _LIBRARY_ERRORS])
def test_library_config_error_names_cli_key(build, key):
    with pytest.raises(ValueError) as err:  # ConfigError is a ValueError
        build()
    assert isinstance(err.value, ConfigError)
    assert err.value.key == key
    assert str(err.value).startswith(f"{key}: ")


# an edit after the build would skip the checks above: a population of 1
# would evolve one member, and a rebalance_interval of 0 would end run_sim in
# a ZeroDivisionError
_EDITS = [
    ("GaConfig", lambda: GaConfig(population_size=4, max_generations=10),
     "population_size", 1),
    ("SchedulerFitnessConfig", _fit, "drop_weight", 0.0),
    ("SchedulingProblem", lambda: SchedulingProblem(
        jobs=[Job(0, 1, 0)], k=2, m=2, fitness_cfg=_fit(),
        ga_cfg=GaConfig(population_size=4, max_generations=10)), "k", 0),
    ("SimConfig", lambda: SimConfig(k=3, m=3), "rebalance_interval", 0),
]


@pytest.mark.parametrize("build, name, value", [case[1:] for case in _EDITS],
                         ids=[case[0] for case in _EDITS])
def test_library_configs_are_frozen(build, name, value):
    cfg = build()
    before = getattr(cfg, name)
    with pytest.raises(FrozenInstanceError):
        setattr(cfg, name, value)
    assert getattr(cfg, name) == before


# every key set apart from its default and from every other key's value
_EVERY_KEY = {
    "seed": 11, "generations": 12, "population": 13, "mutation_rate": 0.14,
    "crossover_rate": 0.15, "elite_count": 4, "stagnation_window": 17, "stagnation_tol": 0.18,
    "machines": 5, "queue_depth": 6, "w": 3, "delta": 2, "send_failure_prob": 0.19,
    "rebalance_interval": 7, "horizon": 21, "max_recalls": 8, "drop_weight": 23.0,
    "overload_weight": 0.24, "oracle_sweep": 9, "workload": "jobs.txt", "out": "out.json",
    "format": "csv",
}


def test_every_key_lands_on_its_library_field(tmp_path):
    assert _EVERY_KEY.keys() == _KNOWN_KEYS.keys()
    assert all(_EVERY_KEY[key] != default for key, default in _KNOWN_KEYS.items())
    assert len(set(_EVERY_KEY.values())) == len(_EVERY_KEY)
    cfg = parse_config(["simulate", "--config", write_config(tmp_path, _EVERY_KEY)])
    assert cfg.resolved() == _EVERY_KEY
    ga = GaConfig(population_size=13, max_generations=12, crossover_rate=0.15,
                  mutation_rate=0.14, elite_count=4, stagnation_window=17, stagnation_tol=0.18,
                  rng_seed=11)
    overload = OverloadConfig(w=3, delta=2)
    fitness = SchedulerFitnessConfig(overload=overload, drop_weight=23.0, overload_weight=0.24)
    assert cfg.ga_cfg == ga
    assert cfg.fitness_cfg == fitness
    assert cfg.sim_cfg == SimConfig(k=5, m=6, send_failure_prob=0.19, rebalance_interval=7,
                                    horizon=21, max_recalls=8, overload=overload, seed=11)
    assert cfg.sim_cfg.overload is cfg.fitness_cfg.overload  # built once
    jobs = [Job(0, 1, 0)]
    assert _make_problem(cfg, jobs) == SchedulingProblem(
        jobs=jobs, k=5, m=6, fitness_cfg=fitness, ga_cfg=ga)


def test_default_keys_build_the_library_defaults():
    cfg = parse_config(["print-config"])
    overload = OverloadConfig(w=2, delta=1)
    assert cfg.ga_cfg == GaConfig(population_size=40, max_generations=200)
    assert cfg.fitness_cfg == SchedulerFitnessConfig(overload=overload)
    assert cfg.sim_cfg == SimConfig(k=3, m=3, overload=overload)


@pytest.mark.parametrize("horizon", [10**6 + 1, 10**20], ids=["cap-plus-one", "1e20"])
@pytest.mark.parametrize("source", ["flag", "file"])
def test_horizon_above_cap_exits_two_before_any_tick(tmp_path, capsys, monkeypatch, source,
                                                     horizon):
    # an uncapped horizon would run until the trace fills memory
    def no_tick(state, rng):
        raise AssertionError("a tick ran")

    monkeypatch.setattr(simulator, "tick", no_tick)
    if source == "flag":
        argv = ["simulate", "--horizon", str(horizon)]
    else:
        argv = ["simulate", "--config", write_config(tmp_path, {"horizon": horizon})]
    assert main(argv) == 2
    assert capsys.readouterr().err == "config error: horizon: must lie in [1, 1000000]\n"


def test_horizon_cap_is_inclusive(capsys):
    assert main(["print-config", "--horizon", str(10**6)]) == 0
    assert json.loads(capsys.readouterr().out)["horizon"] == 10**6


@pytest.mark.parametrize("population", [10**5 + 1, 10**20], ids=["cap-plus-one", "1e20"])
@pytest.mark.parametrize("source", ["flag", "file"])
@pytest.mark.parametrize("subcommand", ["print-config", "optimize"])
def test_population_above_cap_exits_two_before_any_member(tmp_path, capsys, monkeypatch,
                                                          subcommand, source, population):
    # an uncapped population would build that many members
    def no_run(*args, **kwargs):
        raise AssertionError("a GA run started")

    monkeypatch.setattr(ga_core, "run", no_run)
    argv = [subcommand, "--workload", write_workload(tmp_path, [(0, 0, 1)])]
    if source == "flag":
        argv += ["--population", str(population)]
    else:
        argv += ["--config", write_config(tmp_path, {"population": population})]
    assert main(argv) == 2
    assert capsys.readouterr().err == "config error: population: must lie in [2, 100000]\n"


def test_population_cap_is_inclusive(capsys):
    assert main(["print-config", "--population", str(10**5)]) == 0
    assert json.loads(capsys.readouterr().out)["population"] == 10**5


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


def test_simulate_csv_to_stdout_writes_only_the_trace(tmp_path, capsys):
    wl = write_workload(tmp_path, [(0, 0, 1), (1, 2, 2)])
    argv = ["simulate", "--workload", wl, "--horizon", "7", "--seed", "3"]
    outs = {}
    for fmt in ("json", "csv", "both"):
        assert main([*argv, "--format", fmt]) == 0
        outs[fmt] = capsys.readouterr().out
    lines = outs["csv"].splitlines()
    assert lines[0] == "tick,completed,dropped,mean_load"
    assert len(lines) == 8  # the header and one line per tick
    # json writes the document alone, and both the document, then the trace
    doc = json.loads(outs["json"])
    assert outs["both"].endswith(outs["csv"])
    assert json.loads(outs["both"][:-len(outs["csv"])]) == doc | {
        "config": doc["config"] | {"format": "both"}}


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_closed_stdout_exits_two_with_one_error_line(fmt):
    # the reader closes the pipe at once: the csv trace fails in the write,
    # the short json document in the flush
    path = [str(Path(__file__).resolve().parent.parent / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.Popen(
        [sys.executable, "-m", "gasched", "simulate", "--horizon", "50000", "--format", fmt],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait() == 2
    assert err == "error: cannot write to stdout: [Errno 32] Broken pipe\n"


class _BrokenPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


# None is what Python makes sys.stdout when fd 1 is closed at start (`gasched ... >&-`)
@pytest.mark.parametrize("stdout", [_BrokenPipe(), None], ids=["broken-pipe", "none"])
def test_print_config_to_a_failing_stdout_exits_two(capsys, stdout):
    with contextlib.redirect_stdout(stdout):
        assert main(["print-config"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write to stdout: ") and err.count("\n") == 1


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


def test_optimize_at_a_subnormal_mutation_rate_exits_zero(tmp_path):
    wl = write_workload(tmp_path, [(0, 0, 1), (1, 0, 2), (2, 0, 1)])
    assert main(["optimize", "--workload", wl, "--machines", "3", "--queue-depth", "3",
                 "--mutation-rate", "1e-310", "--out", str(tmp_path / "o.json")]) == 0


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


@pytest.mark.parametrize("sweep", [1, 5])
def test_oracle_check_validates_each_library_object_once(tmp_path, capsys, monkeypatch, sweep):
    # the command runs on _validate's builds, and each seed of the sweep on a
    # trusted copy of one validated problem; the fitness and sim configs share
    # one OverloadConfig
    calls = {}
    for cls in (GaConfig, OverloadConfig, SchedulerFitnessConfig, SimConfig, SchedulingProblem):
        def counted(self, post_init=cls.__post_init__, name=cls.__name__):
            calls[name] = calls.get(name, 0) + 1
            post_init(self)
        monkeypatch.setattr(cls, "__post_init__", counted)
    wl = write_workload(tmp_path, [(i, 0, 1) for i in range(5)])
    cfg_path = write_config(tmp_path, {"oracle_sweep": sweep, "population": 4})
    assert main(["oracle-check", "--config", cfg_path, "--workload", wl, "--w", "1"]) in (0, 1)
    assert len(json.loads(capsys.readouterr().out)["ga_sweep"]) == sweep
    assert calls == {"GaConfig": 1, "OverloadConfig": 1, "SchedulerFitnessConfig": 1,
                     "SimConfig": 1, "SchedulingProblem": 1}


def test_oracle_check_runs_each_seed_on_the_publicly_built_problem(tmp_path, capsys,
                                                                   monkeypatch):
    problems = []

    def recording(problem, **kwargs):
        problems.append(problem)
        return optimize_schedule(problem, **kwargs)

    monkeypatch.setattr(cli, "optimize_schedule", recording)
    wl = write_workload(tmp_path, [(i, 0, 1) for i in range(6)])
    cfg_path = write_config(tmp_path, {"oracle_sweep": 4, "population": 4})
    argv = ["oracle-check", "--config", cfg_path, "--workload", wl, "--w", "1", "--seed", "7"]
    assert main(argv) in (0, 1)
    capsys.readouterr()
    cfg = parse_config(argv)
    jobs = simulator.load_workload(wl)
    assert [p.ga_cfg.rng_seed for p in problems] == [7, 8, 9, 10]
    # replace() rebuilds each config through its public, validating constructor
    ga_cfgs = [replace(cfg.ga_cfg, rng_seed=seed) for seed in range(7, 11)]
    assert [p.ga_cfg for p in problems] == ga_cfgs
    assert problems == [replace(_make_problem(cfg, jobs), ga_cfg=ga_cfg) for ga_cfg in ga_cfgs]


def test_public_entries_still_reject_what_the_sweep_copies_trust(tmp_path, capsys):
    with pytest.raises(ConfigError) as err:
        GaConfig(population_size=4, max_generations=1, rng_seed=2**64)
    assert err.value.key == "seed"
    with pytest.raises(ConfigError) as err:
        SchedulingProblem(jobs=[Job(1, 1, 0), Job(1, 2, 0)], k=3, m=3,
                          fitness_cfg=SchedulerFitnessConfig(overload=OverloadConfig(w=1, delta=0)),
                          ga_cfg=GaConfig(population_size=4, max_generations=1))
    assert str(err.value) == "workload: job ids must be unique"
    # the sweep's last seed, seed + oracle_sweep - 1, must lie below 2**64
    wl = write_workload(tmp_path, [(0, 0, 1)])
    cfg_path = write_config(tmp_path, {"oracle_sweep": 3})
    argv = ["oracle-check", "--config", cfg_path, "--workload", wl, "--seed"]
    assert main([*argv, str(2**64 - 3)]) == 0
    assert json.loads(capsys.readouterr().out)["ga_sweep"] == [0.0, 0.0, 0.0]
    assert main([*argv, str(2**64 - 2)]) == 2
    assert capsys.readouterr().err == (
        "config error: seed: the last seed used, 18446744073709551616, must be below 2**64\n")


# criterion 2's grid, then every (w, delta) at J=9, k=3, m=3
_CHECK_INSTANCES = [
    (jobs, k, m, w, delta)
    for jobs in range(1, 8)
    for k in (1, 2, 3)
    for m in (1, 2, 3)
    for w in (1, 2)
    if w <= m
    for delta in (0, 1)
] + [(9, 3, 3, w, delta) for w in range(1, 4) for delta in range(4)]


@pytest.mark.parametrize("population", [40, 8])
def test_oracle_check_sweep_equals_runs_without_the_oracle_floor(tmp_path, capsys, population):
    # oracle-check stops each run at the oracle optimum; its output must be
    # that of runs that stop only at 0. At population 40 generation 0 finds
    # the optimum; at 8 some runs evolve to it, where a floor above the
    # optimum would stop them early.
    assert len(_CHECK_INSTANCES) == 222
    cfg_path = write_config(tmp_path, {"oracle_sweep": 3, "population": population})
    workloads = {}
    for jobs in {inst[0] for inst in _CHECK_INSTANCES}:
        workloads[jobs] = tmp_path / f"jobs{jobs}.txt"
        workloads[jobs].write_text("".join(f"{i} 0 1\n" for i in range(jobs)))
    cut = 0  # runs that reach an optimum above 0 before their last generation
    for jobs, k, m, w, delta in _CHECK_INSTANCES:
        code = main([
            "oracle-check", "--config", cfg_path, "--workload", str(workloads[jobs]),
            "--machines", str(k), "--queue-depth", str(m), "--w", str(w), "--delta", str(delta),
        ])
        doc = json.loads(capsys.readouterr().out)
        fitness_cfg = SchedulerFitnessConfig(overload=OverloadConfig(w=w, delta=delta))
        optimum = brute_force_best(jobs, k, m, fitness_cfg).optimum
        sweep = []
        for seed in range(3):
            result = optimize_schedule(SchedulingProblem(
                jobs=[Job(i, 1, 0) for i in range(jobs)], k=k, m=m, fitness_cfg=fitness_cfg,
                ga_cfg=GaConfig(population_size=population, max_generations=200, rng_seed=seed)))
            sweep.append(result.fitness)
            cut += optimum > 0 and optimum in result.history[:-1]
        assert doc["oracle_optimum"] == optimum
        assert doc["ga_sweep"] == sweep
        assert doc["ga_best"] == min(sweep)
        assert doc["match"] is (min(sweep) == optimum)
        assert code == (0 if doc["match"] else 1)
    assert cut > 0


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
    # all 2000 jobs fit at or below w: counting them takes 1024 * 2001 * 65
    # products, over the oracle budget
    wl = write_workload(tmp_path, [(i, 0, 1) for i in range(2000)])
    code = main([
        "oracle-check", "--workload", wl, "--machines", "1024",
        "--queue-depth", "64", "--w", "2", "--delta", "1",
    ])
    assert code == 2
    assert capsys.readouterr().err.startswith("config error")


def test_oracle_check_answers_past_the_load_vector_budget(tmp_path):
    # C(16 + 16, 16) load vectors: a shape the load-vector scan refused
    wl = write_workload(tmp_path, [(i, 0, 1) for i in range(40)])
    cfg_path = write_config(tmp_path, {"oracle_sweep": 1, "generations": 5})
    out = tmp_path / "oc.json"
    code = main([
        "oracle-check", "--config", cfg_path, "--workload", wl, "--machines", "16",
        "--queue-depth", "16", "--w", "2", "--delta", "1", "--out", str(out),
    ])
    assert code in (0, 1)
    # 16 * 2 jobs fit at or below w, so one machine takes the other 8 above it
    assert json.loads(out.read_text())["oracle_optimum"] == 1.0


@pytest.mark.parametrize("subcommand", ["optimize", "oracle-check"])
@pytest.mark.parametrize(
    "weights, key",
    [({"drop_weight": 1e308, "overload_weight": 1e308}, "drop_weight"),
     ({"drop_weight": 1e308, "overload_weight": 0}, "drop_weight"),
     ({"drop_weight": 1e300, "overload_weight": 1e308}, "overload_weight")],
    ids=["both-huge", "drop-huge", "overload-huge"],
)
def test_weights_that_overflow_a_score_exit_two_naming_key(
    tmp_path, capsys, subcommand, weights, key
):
    # each weight is finite, but 11 dropped jobs or 3 overloaded machines
    # would score inf
    cfg_path = write_config(tmp_path, weights)
    wl = write_workload(tmp_path, [(i, 0, 1) for i in range(11)])
    code = main([subcommand, "--config", cfg_path, "--workload", wl,
                 "--machines", "3", "--queue-depth", "3"])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"config error: {key}:")


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
            "c19f3a683f1c6485c7aafdfdc988b63871e0fa3d7622ff7330159a1f2e8ba295",
        ),
        (
            [(i, i, 1 + i % 3) for i in range(16)],
            ["simulate", "--machines", "3", "--queue-depth", "4", "--w", "1",
             "--delta", "1", "--horizon", "40", "--send-failure-prob", "0.3",
             "--rebalance-interval", "3", "--seed", "4", "--format", "both"],
            "bdbd70908813ba756c2a6e4d67a28afa86ec875c3c32e962e79490b3ade0333f",
        ),
        (
            [(i, 0, 1) for i in range(6)],
            ["oracle-check", "--machines", "3", "--queue-depth", "2", "--w", "1",
             "--delta", "1", "--seed", "2"],
            "6a988ceb358056525c279809ba971da55f305748d6512e4dc5c58f0a6f67c9d8",
        ),
        (
            # 240-bit genomes, several machine words; at seed 2 the best
            # of generation 0 (fitness 3.0) is never beaten
            [(i, 0, 1 + i % 4) for i in range(40)],
            ["optimize", "--machines", "6", "--queue-depth", "8", "--w", "6",
             "--delta", "1", "--seed", "2"],
            "bec47fe23ecdd153385ea0b1c701dcba03deb27927ab267e276bab04c2a6504a",
        ),
        (
            # the same problem at seed 3, where the GA improves once
            # (history 4.0 -> 3.0), so crossover and mutate shape the output
            [(i, 0, 1 + i % 4) for i in range(40)],
            ["optimize", "--machines", "6", "--queue-depth", "8", "--w", "6",
             "--delta", "1", "--seed", "3"],
            "98578e527c1c067d39da61b8c833ce2b51fb3644ccc458bca3af7968049c3d8e",
        ),
        (
            # the CLI's machine cap: 1024-bit rows through every queue
            # operator; 1004 send failures and 106 overload ticks
            [(i, i % 120, 1 + i % 3) for i in range(2000)],
            ["simulate", "--machines", "1024", "--queue-depth", "4096",
             "--send-failure-prob", "0.5", "--rebalance-interval", "5", "--horizon", "120"],
            "f41e9423a90035e0df53f5381ecef5e11cbd34bbe9388efad4b31836275a3835",
        ),
        (
            # 70-bit rows, past one 64-bit machine word: decoding, the
            # polish and the text snapshot
            [(i, 0, 1 + i % 3) for i in range(90)],
            ["optimize", "--machines", "70", "--queue-depth", "1", "--w", "0", "--delta", "0"],
            "c57519d732c68cfe3a83d508013703d93e7ecd12ec54c3dcbace641694db2b85",
        ),
        (
            # the deep pipeline shape: 1000 CSV rows, and w = 2 puts the fullest
            # machine above w (724 completed, 19 dropped, 206 send failures,
            # max_load 18, 15376 overload ticks)
            [(i, i, 1 + i % 2) for i in range(1000)],
            ["simulate", "--machines", "16", "--queue-depth", "256", "--w", "2",
             "--delta", "1", "--send-failure-prob", "0.2", "--horizon", "1000", "--seed", "3",
             "--format", "both"],
            "8cbc06d732afb4aa4d5412811d642d6eeda8ee13f41c7b9f9a5c29c5f01d8468",
        ),
    ],
    ids=["optimize", "simulate", "oracle-check", "optimize-240-bits", "optimize-240-bits-seed-3",
         "simulate-1024-machines", "optimize-70-machines", "simulate-16x256"],
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

"""Command-line entry point: optimize, simulate, oracle-check, print-config.

Configuration is one flat key space. Flags override config-file values,
which override the documented defaults; unknown file keys are rejected.
Every output document embeds the resolved config and seed so a run can
be reproduced byte for byte.

``RunConfig`` declares each key once. A key that a library config field
reads takes its default from that field, and each library config is built
from the keys its fields name (``errors.checked``); only per-call values
(a GA run's seed, the jobs and the nested configs) are passed by hand.
Each library config is built once per call, in ``_validate``.

Exit codes: 0 success, 1 GA-vs-oracle mismatch, 2 configuration error
or a failed write to stdout (a reader that closed the pipe, say).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys
from dataclasses import dataclass, field, fields
from typing import Any

from .errors import (
    ConfigError, GaschedError, Rule, at_least, check_fields, in_range, keyed_fields,
)
from .ga_core import GaConfig
from .oracle import brute_force_best
from .schedule_matrix import OverloadConfig, to_text
from .scheduler_ga import SchedulerFitnessConfig, SchedulingProblem, optimize_schedule
from .simulator import SimConfig, load_workload, run_sim, trace_csv


def _key(default: Any, *rules: Rule, flag: bool = False):
    """Declare a run parameter: its default, whose type is the key's type
    (``str`` for a ``None`` default), the range rules that no library config
    owns, and whether it has a ``--flag``. A key that a library config field
    reads takes that field's default, as ``_key(GaConfig.mutation_rate)``."""
    return field(default=default, metadata={"flag": flag, "rules": rules})


def _one_of(*choices: str) -> Rule:
    return lambda v: v in choices, f"must be one of {', '.join(choices)}"


@dataclass
class RunConfig:
    subcommand: str
    seed: int = _key(GaConfig.rng_seed, flag=True)
    generations: int = _key(200, flag=True)
    population: int = _key(40, (lambda v: v <= 10**5, "must lie in [2, 100000]"), flag=True)
    mutation_rate: float = _key(GaConfig.mutation_rate, flag=True)
    crossover_rate: float = _key(GaConfig.crossover_rate, flag=True)
    elite_count: int = _key(GaConfig.elite_count)
    stagnation_window: int = _key(GaConfig.stagnation_window)
    stagnation_tol: float = _key(GaConfig.stagnation_tol)
    # the caps keep a simulated (queue_depth x machines) matrix at 4 MB, a genome
    # row at 1024 bits and a trace near 140 MB, rejecting a huge value up front;
    # SimConfig owns horizon's lower bound, so horizon 0 reads "must be >= 1"
    machines: int = _key(3, in_range(1, 1024), flag=True)
    queue_depth: int = _key(3, in_range(1, 4096), flag=True)
    w: int = _key(2, flag=True)
    delta: int = _key(1, flag=True)
    send_failure_prob: float = _key(SimConfig.send_failure_prob, flag=True)
    rebalance_interval: int = _key(SimConfig.rebalance_interval, flag=True)
    horizon: int = _key(SimConfig.horizon, (lambda v: v <= 10**6, "must lie in [1, 1000000]"),
                        flag=True)
    max_recalls: int = _key(SimConfig.max_recalls)
    drop_weight: float = _key(SchedulerFitnessConfig.drop_weight)
    overload_weight: float = _key(SchedulerFitnessConfig.overload_weight)
    # one GA run and one ga_sweep entry per seed
    oracle_sweep: int = _key(20, at_least(1), (lambda v: v <= 10**5, "must lie in [1, 100000]"))
    workload: str | None = _key(None, flag=True)
    out: str | None = _key(None, flag=True)
    format: str = _key("json", _one_of("json", "csv", "both"), flag=True)

    def resolved(self) -> dict[str, Any]:
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        doc.pop("subcommand")
        return doc

    def _build(self, cls: type, **given: Any) -> Any:
        """Build ``cls``, each field that names a key (``errors.checked``)
        taking that key's value, and the ``given`` fields as given."""
        return cls(**{name: getattr(self, key) for name, key, _ in keyed_fields(cls)} | given)


_KEYS = [f for f in fields(RunConfig) if f.metadata]
_KEY_TYPES: dict[str, type] = {f.name: str if f.default is None else type(f.default) for f in _KEYS}

SUBCOMMANDS = ("optimize", "simulate", "oracle-check", "print-config")


def _coerce(key: str, value: Any, provenance: str) -> Any:
    want = _KEY_TYPES[key]
    if want is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(key, f"expected an integer ({provenance})")
        return value
    if want is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(key, f"expected a number ({provenance})")
        try:
            value = float(value)
        except OverflowError:
            value = math.inf
        if not math.isfinite(value):
            raise ConfigError(key, f"expected a finite number, got {value} ({provenance})")
        return value
    if not isinstance(value, str):
        raise ConfigError(key, f"expected a string ({provenance})")
    return value


def _validate(cfg: RunConfig) -> None:
    """Check the rules no library config owns, then build the library
    configs, which check the rest, once per call: ``ga_cfg`` (seeded with
    ``seed``), ``fitness_cfg`` and ``sim_cfg``, the last two sharing one
    ``OverloadConfig``. The command uses these builds, kept on ``cfg``
    outside its fields (``resolved()`` omits them)."""
    check_fields(cfg)
    last_seed = cfg.seed + (cfg.oracle_sweep - 1 if cfg.subcommand == "oracle-check" else 0)
    if last_seed >= 2**64:
        raise ConfigError("seed", f"the last seed used, {last_seed}, must be below 2**64")
    cfg.ga_cfg = cfg._build(GaConfig, rng_seed=cfg.seed)
    overload = cfg._build(OverloadConfig)
    cfg.fitness_cfg = cfg._build(SchedulerFitnessConfig, overload=overload)
    cfg.sim_cfg = cfg._build(SimConfig, overload=overload)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on first use and then shared by every call."""
    parser = argparse.ArgumentParser(prog="gasched", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in SUBCOMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, default=None, help="JSON config file")
        for f in _KEYS:
            if f.metadata["flag"]:
                flag = "--" + f.name.replace("_", "-")
                p.add_argument(flag, dest=f.name, type=_KEY_TYPES[f.name], default=None)
    return parser


def parse_config(argv: list[str]) -> RunConfig:
    """Resolve flags over file values over defaults into a RunConfig."""
    try:
        ns = _build_parser().parse_args(argv)
    except SystemExit as exc:
        if exc.code not in (0, None):
            raise ConfigError("args", "could not parse command line") from exc
        raise
    cfg = RunConfig(subcommand=ns.subcommand)
    if ns.config is not None:
        try:
            with open(ns.config, "r", encoding="utf-8") as fh:
                file_values = json.load(fh)
        except OSError as exc:
            raise ConfigError("config", f"cannot read {ns.config}: {exc}") from exc
        except (ValueError, RecursionError) as exc:
            # ValueError: bad JSON or UTF-8, or an integer of over 4300 digits;
            # RecursionError: nesting deeper than the recursion limit
            raise ConfigError("config", f"invalid JSON in {ns.config}: {exc}") from exc
        if not isinstance(file_values, dict):
            raise ConfigError("config", "config file must hold a JSON object")
        for key, value in file_values.items():
            if key not in _KEY_TYPES:
                raise ConfigError(key, f"unknown config key (file {ns.config})")
            setattr(cfg, key, _coerce(key, value, f"file {ns.config}"))
    for key in _KEY_TYPES:
        flag_value = getattr(ns, key, None)
        if flag_value is not None:
            setattr(cfg, key, _coerce(key, flag_value, "flag"))
    _validate(cfg)
    return cfg


def _emit(doc: dict[str, Any], cfg: RunConfig, csv_text: str | None = None) -> None:
    doc = {**doc, "config": cfg.resolved(), "seed": cfg.seed}
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    json_out = cfg.format != "csv" or csv_text is None  # no trace: JSON at any format
    csv_out = csv_text is not None and cfg.format != "json"
    if cfg.out is None:
        _print((text if json_out else "") + (csv_text if csv_out else ""))
        return
    if json_out:
        _write(cfg.out, text)
    if csv_out:
        _write(cfg.out if cfg.format == "csv" else cfg.out + ".csv", csv_text)


def _print(text: str) -> None:
    """Write ``text`` to stdout and flush it. A failed write, or no stdout
    (None when fd 1 was closed at start), is an error; fd 1 then points at
    os.devnull, so the interpreter's flush at exit neither fails nor prints."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except (AttributeError, OSError, ValueError) as exc:  # ValueError: stdout is closed
        with contextlib.suppress(AttributeError, OSError, ValueError):  # no fd behind stdout
            fd, null = sys.stdout.fileno(), os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, fd)
            os.close(null)
        raise GaschedError(f"cannot write to stdout: {exc}") from None


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except (OSError, ValueError) as exc:  # ValueError: a NUL or lone surrogate in the path
        raise ConfigError("out", f"cannot write {path}: {exc}") from exc


def _load_jobs(cfg: RunConfig) -> list:
    if cfg.workload is None:
        raise ConfigError("workload", "this subcommand needs a workload file")
    jobs = load_workload(cfg.workload)
    if not jobs:
        raise ConfigError("workload", f"{cfg.workload} holds no jobs")
    return jobs


def _make_problem(cfg: RunConfig, jobs) -> SchedulingProblem:
    return cfg._build(SchedulingProblem, jobs=jobs, fitness_cfg=cfg.fitness_cfg, ga_cfg=cfg.ga_cfg)


def cmd_optimize(cfg: RunConfig) -> int:
    jobs = _load_jobs(cfg)
    result = optimize_schedule(_make_problem(cfg, jobs))
    _emit(
        {
            "best_fitness": result.fitness,
            "history": result.history,
            "matrix": to_text(result.matrix),
        },
        cfg,
    )
    return 0


def cmd_simulate(cfg: RunConfig) -> int:
    jobs = load_workload(cfg.workload) if cfg.workload is not None else []
    metrics = run_sim(cfg.sim_cfg, jobs)
    doc = {f.name: getattr(metrics, f.name) for f in fields(metrics) if f.name != "trace"}
    _emit(doc, cfg, csv_text=trace_csv(metrics))
    return 0


def cmd_oracle_check(cfg: RunConfig) -> int:
    jobs = _load_jobs(cfg)
    oracle = brute_force_best(len(jobs), cfg.machines, cfg.queue_depth, cfg.fitness_cfg)
    problem = _make_problem(cfg, jobs)
    # a run stops at the exact optimum, which no schedule beats, with the fitness of
    # a run without the floor; _validate checked the sweep's seeds lie below 2**64
    results = [optimize_schedule(problem._with_seed(seed), floor=oracle.optimum).fitness
               for seed in range(cfg.seed, cfg.seed + cfg.oracle_sweep)]
    ga_best = min(results)
    match = ga_best == oracle.optimum
    _emit(
        {
            "oracle_optimum": oracle.optimum,
            "oracle_count": oracle.count,
            "oracle_witness": [0 if c is None else c for c in oracle.witness],
            "ga_best": ga_best,
            "ga_sweep": results,
            "match": match,
        },
        cfg,
    )
    return 0 if match else 1


def cmd_print_config(cfg: RunConfig) -> int:
    _print(json.dumps(cfg.resolved(), sort_keys=True, indent=2) + "\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        cfg = parse_config(argv)
        handler = {
            "optimize": cmd_optimize,
            "simulate": cmd_simulate,
            "oracle-check": cmd_oracle_check,
            "print-config": cmd_print_config,
        }[cfg.subcommand]
        return handler(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except GaschedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()

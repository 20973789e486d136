"""Command-line entry point: optimize, simulate, oracle-check, print-config.

Configuration is one flat key space. Flags override config-file values,
which override the documented defaults; unknown file keys are rejected.
Every output document embeds the resolved config and seed so a run can
be reproduced byte for byte.

Exit codes: 0 success, 1 GA-vs-oracle mismatch, 2 configuration error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass, field, fields
from typing import Any, Callable

from .errors import BudgetError, ConfigError, GaschedError
from .ga_core import GaConfig
from .oracle import brute_force_best
from .schedule_matrix import OverloadConfig, to_text
from .scheduler_ga import SchedulerFitnessConfig, SchedulingProblem, optimize_schedule
from .simulator import SimConfig, load_workload, run_sim, trace_csv


def _key(default: Any, flag: bool = False, check: tuple[Callable[[Any], bool], str] | None = None):
    """Declare a run parameter: its default, whose type is the key's type
    (``str`` for a ``None`` default), whether it has a ``--flag`` (bool keys
    have none), and its range rule as a ``(predicate, message)`` pair."""
    return field(default=default, metadata={"flag": flag, "check": check})


def _at_least(low: int) -> tuple[Callable[[Any], bool], str]:
    return lambda v: v >= low, f"must be >= {low}"


def _in_range(low: int, high: int) -> tuple[Callable[[Any], bool], str]:
    return lambda v: low <= v <= high, f"must lie in [{low}, {high}]"


def _one_of(*choices: str) -> tuple[Callable[[Any], bool], str]:
    return lambda v: v in choices, f"must be one of {', '.join(choices)}"


_UNIT = _in_range(0, 1)


@dataclass
class RunConfig:
    subcommand: str
    seed: int = _key(0, flag=True, check=_at_least(0))
    generations: int = _key(200, flag=True, check=_at_least(1))
    population: int = _key(40, flag=True, check=_at_least(2))
    mutation_rate: float = _key(0.05, flag=True, check=_UNIT)
    crossover_rate: float = _key(0.9, flag=True, check=_UNIT)
    elite_count: int = _key(2, check=_at_least(0))
    stagnation_window: int = _key(10, check=_at_least(1))
    stagnation_tol: float = _key(0.0, check=_at_least(0))
    # the caps keep a simulated (queue_depth x machines) matrix at 4 MB and a
    # genome row at 1024 bits, and reject a huge value before anything is built
    machines: int = _key(3, flag=True, check=_in_range(1, 1024))
    queue_depth: int = _key(3, flag=True, check=_in_range(1, 4096))
    w: int = _key(2, flag=True, check=_at_least(0))
    delta: int = _key(1, flag=True, check=_at_least(0))
    send_failure_prob: float = _key(0.0, flag=True, check=_UNIT)
    rebalance_interval: int = _key(10, flag=True, check=_at_least(1))
    horizon: int = _key(100, flag=True, check=_at_least(1))
    max_recalls: int = _key(3, check=_at_least(0))
    ga_rebalance: bool = _key(False)
    drop_weight: float = _key(100.0, check=(lambda v: v > 0, "must be positive"))
    overload_weight: float = _key(1.0, check=_at_least(0))
    oracle_sweep: int = _key(20, check=_at_least(1))
    workload: str | None = _key(None, flag=True)
    out: str | None = _key(None, flag=True)
    format: str = _key("json", flag=True, check=_one_of("json", "csv", "both"))

    def resolved(self) -> dict[str, Any]:
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        doc.pop("subcommand")
        return doc

    def ga_config(self, seed: int) -> GaConfig:
        return GaConfig(
            population_size=self.population,
            max_generations=self.generations,
            crossover_rate=self.crossover_rate,
            mutation_rate=self.mutation_rate,
            elite_count=self.elite_count,
            stagnation_window=self.stagnation_window,
            stagnation_tol=self.stagnation_tol,
            rng_seed=seed,
        )

    def fitness_config(self) -> SchedulerFitnessConfig:
        return SchedulerFitnessConfig(
            overload=OverloadConfig(w=self.w, delta=self.delta),
            drop_weight=self.drop_weight,
            overload_weight=self.overload_weight,
        )

    def sim_config(self) -> SimConfig:
        return SimConfig(
            k=self.machines,
            m=self.queue_depth,
            send_failure_prob=self.send_failure_prob,
            rebalance_interval=self.rebalance_interval,
            horizon=self.horizon,
            max_recalls=self.max_recalls,
            overload=OverloadConfig(w=self.w, delta=self.delta),
            seed=self.seed,
            ga_rebalance=self.ga_rebalance,
        )


_KEYS = [f for f in fields(RunConfig) if f.metadata]
_KEY_TYPES: dict[str, type] = {f.name: str if f.default is None else type(f.default) for f in _KEYS}
_CHECKS = [(f.name, *f.metadata["check"]) for f in _KEYS if f.metadata["check"] is not None]

SUBCOMMANDS = ("optimize", "simulate", "oracle-check", "print-config")


def _coerce(key: str, value: Any, provenance: str) -> Any:
    want = _KEY_TYPES[key]
    if want is bool:
        if isinstance(value, bool):
            return value
        raise ConfigError(key, f"expected true/false ({provenance})")
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
    for key, ok, message in _CHECKS:
        if not ok(getattr(cfg, key)):
            raise ConfigError(key, message)
    if cfg.elite_count >= cfg.population:
        raise ConfigError("elite_count", "must be smaller than population")
    if cfg.w > cfg.queue_depth:
        raise ConfigError("w", "must not exceed queue_depth")
    if cfg.delta > cfg.machines:
        raise ConfigError("delta", "must not exceed machines")
    last_seed = cfg.seed + (cfg.oracle_sweep - 1 if cfg.subcommand == "oracle-check" else 0)
    if last_seed >= 2**64:
        raise ConfigError("seed", f"the last seed used, {last_seed}, must be below 2**64")


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
    doc = dict(doc)
    doc["config"] = cfg.resolved()
    doc["seed"] = cfg.seed
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if cfg.out is None:
        sys.stdout.write(text)
        if csv_text is not None and cfg.format in ("csv", "both"):
            sys.stdout.write(csv_text)
        return
    if cfg.format in ("json", "both") or csv_text is None:
        _write(cfg.out, text)
    if csv_text is not None and cfg.format in ("csv", "both"):
        _write(cfg.out if cfg.format == "csv" else cfg.out + ".csv", csv_text)


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


def _make_problem(cfg: RunConfig, jobs, seed: int) -> SchedulingProblem:
    return SchedulingProblem(
        jobs=jobs,
        k=cfg.machines,
        m=cfg.queue_depth,
        fitness_cfg=cfg.fitness_config(),
        ga_cfg=cfg.ga_config(seed),
    )


def cmd_optimize(cfg: RunConfig) -> int:
    jobs = _load_jobs(cfg)
    result = optimize_schedule(_make_problem(cfg, jobs, cfg.seed))
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
    metrics = run_sim(cfg.sim_config(), jobs)
    doc = {
        "completed": metrics.completed,
        "dropped": metrics.dropped,
        "recalls": metrics.recalls,
        "send_failures": metrics.send_failures,
        "mean_load": metrics.mean_load,
        "max_load": metrics.max_load,
        "overload_ticks": metrics.overload_ticks,
        "ga_history": metrics.ga_history,
    }
    _emit(doc, cfg, csv_text=trace_csv(metrics))
    return 0


def cmd_oracle_check(cfg: RunConfig) -> int:
    jobs = _load_jobs(cfg)
    oracle = brute_force_best(len(jobs), cfg.machines, cfg.queue_depth, cfg.fitness_config())
    results = []
    for offset in range(cfg.oracle_sweep):
        result = optimize_schedule(_make_problem(cfg, jobs, cfg.seed + offset))
        results.append(result.fitness)
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
    sys.stdout.write(json.dumps(cfg.resolved(), sort_keys=True, indent=2) + "\n")
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
    except (ConfigError, BudgetError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except GaschedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()

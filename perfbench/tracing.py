"""Span tracer installed from outside around the public names of gasched.

``Tracer.install`` replaces every public function of the six gasched
modules, and the ``__post_init__`` of every public class that has one, with
a wrapper that records a span, in every gasched namespace that binds the
name (``cli.optimize_schedule``, ``simulator.shift_up``, ...). The package
itself is not edited; ``uninstall`` puts the originals back.

A span is (name, start, end, parent, root). Spans live in flat arrays in
memory and are written out only when the run ends. The benchmark opens a
``bench.op`` root span around each top-level call, so every span of that
call shares the root's index.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import time
import types
from array import array
from collections import Counter

import numpy as np

import gasched
from gasched import cli, ga_core, oracle, schedule_matrix, scheduler_ga, simulator

MODULES = (cli, oracle, scheduler_ga, ga_core, schedule_matrix, simulator)
LAYERS = tuple(mod.__name__.rsplit(".", 1)[1] for mod in MODULES)
ROOT_SPAN = "bench.op"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.root = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.recording = False
        self.counts: Counter[str] = Counter()
        self.generations: list[int] = []
        self.fitness_seen: list[set[int]] = []
        self._patches: list[tuple[object, str, object]] = []
        self._root_id = self.intern(ROOT_SPAN)

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        idx = len(self.name)
        parent = self._stack[-1] if self._stack else -1
        self.name.append(name_id)
        self.parent.append(parent)
        self.root.append(self.root[parent] if parent >= 0 else idx)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def op(self):
        """Root span around one top-level call; records only inside it."""
        self.recording = True
        idx = self.open(self._root_id)
        try:
            yield
        finally:
            self.close(idx)
            self.recording = False

    # ------------------------------------------------------------ wrappers

    def _span(self, name: str, fn, hook=None):
        name_id = self.intern(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            idx = tracer.open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            return result if hook is None else hook(args, result)

        return traced

    def _count_yields(self, fn):
        """Counts the assignments a generator yields; no span, so the time
        stays with the caller that iterates it."""
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if not tracer.recording:
                yield from fn(*args, **kwargs)
                return
            produced = 0
            try:
                for item in fn(*args, **kwargs):
                    produced += 1
                    yield item
            finally:
                tracer.counts["oracle.assignments"] += produced

        return counted

    def _hooks(self) -> dict[str, object]:
        counts = self.counts

        def crossover(args, child):
            if child.bits != args[0].bits and child.bits != args[1].bits:
                counts["crossover.new_child"] += 1
            return child

        def mutate(args, genome):
            if genome is not args[0]:
                counts["mutate.changed"] += 1
            return genome

        def run(args, result):
            self.generations.append(len(result[1]))
            return result

        def optimize_schedule(args, result):
            if result.fitness < min(result.history):
                counts["polish.improved"] += 1
            return result

        def rebalance_crossover(args, result):
            if result[1]:
                counts["rebalance_crossover.reached"] += 1
            return result

        def dispatch(args, state):
            counts["dispatch.arrivals"] += len(args[1])
            return state

        def run_sim(args, metrics):
            counts["run_sim.ticks"] += args[0].horizon
            counts["run_sim.recalls"] += metrics.recalls
            counts["run_sim.send_failures"] += metrics.send_failures
            return metrics

        def make_fitness(args, fitness):
            seen: set[int] = set()
            self.fitness_seen.append(seen)
            spanned = self._span("scheduler_ga.fitness", fitness)

            def observed(genome):
                seen.add(hash(genome.bits))
                return spanned(genome)

            return observed

        return {
            "ga_core.crossover": crossover,
            "ga_core.mutate": mutate,
            "ga_core.run": run,
            "scheduler_ga.optimize_schedule": optimize_schedule,
            "scheduler_ga.make_fitness": make_fitness,
            "schedule_matrix.rebalance_crossover": rebalance_crossover,
            "simulator.dispatch": dispatch,
            "simulator.run_sim": run_sim,
        }

    def install(self) -> None:
        hooks = self._hooks()
        replacements: dict[types.FunctionType, object] = {}
        for mod, layer in zip(MODULES, LAYERS):
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                if inspect.isgeneratorfunction(obj):
                    replacements[obj] = self._count_yields(obj)
                elif inspect.isfunction(obj):
                    replacements[obj] = self._span(name, obj, hooks.get(name))
                elif inspect.isclass(obj) and "__post_init__" in vars(obj):
                    self._patch(obj, "__post_init__", self._span(name, obj.__post_init__))
        for mod in (gasched, *MODULES):
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in replacements:
                    self._patch(mod, attr, replacements[obj])

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------ analysis

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.intc).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.intc).copy(),
            "root": np.frombuffer(self.root, dtype=np.intc).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path: str) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def summary(self, ops: int) -> tuple[dict[str, float], dict[str, dict]]:
        """Self-time check figures plus per-name call statistics.

        Self time is a span's duration minus the durations of its direct
        children; summed over one root's spans it telescopes to the root's
        duration, which ``self_sum_error_s`` reports as a check.
        """
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = a["parent"] >= 0
        children = np.bincount(a["parent"][child], weights=dur[child], minlength=len(dur))
        self_time = dur - children
        roots = np.flatnonzero(~child)
        per_root = np.bincount(a["root"], weights=self_time, minlength=len(dur))[roots]
        root_total = float(dur[roots].sum())

        stats: dict[str, dict] = {}
        order = np.argsort(a["name"], kind="stable")
        bounds = np.flatnonzero(np.diff(a["name"][order])) + 1
        for group in np.split(order, bounds):
            if len(group) == 0:
                continue
            stats[self.names[a["name"][group[0]]]] = {
                "calls": len(group),
                "dur": dur[group],
                "self": self_time[group],
            }
        layer_self = {layer: 0.0 for layer in LAYERS}
        for name, st in stats.items():
            layer = name.split(".", 1)[0]
            if layer in layer_self:
                layer_self[layer] += float(st["self"].sum())
        figures = {
            "ops": ops,
            "root_total_s": root_total,
            "self_sum_error_s": float(np.abs(per_root - dur[roots]).max()) if len(roots) else 0.0,
            **{f"{layer}.self_share": (s / root_total if root_total else 0.0)
               for layer, s in layer_self.items()},
        }
        return figures, stats


US_FUNCTIONS = (
    "cli.parse_config",
    "scheduler_ga.fitness",
    "scheduler_ga.decode_schedule",
    "scheduler_ga.random_placement_genome",
    "ga_core.step_generation",
    "ga_core.select_parents",
    "ga_core.evaluate",
    "ga_core.crossover",
    "ga_core.mutate",
    "ga_core.Genome",
    "schedule_matrix.ScheduleMatrix",
    "schedule_matrix.shift_up",
    "schedule_matrix.complete_heads",
    "schedule_matrix.column_loads",
    "schedule_matrix.recall_job",
    "schedule_matrix.rebalance_crossover",
    "schedule_matrix.mutate_dropped_rows",
    "schedule_matrix.from_genome",
    "schedule_matrix.repair_column_capacity",
    "schedule_matrix.to_text",
    "simulator.tick",
    "simulator.load_workload",
)
CALL_COUNTS = (
    "cli.main",
    "oracle.brute_force_best",
    "scheduler_ga.fitness",
    "scheduler_ga.optimize_schedule",
    "ga_core.crossover",
    "ga_core.Genome",
    "schedule_matrix.ScheduleMatrix",
)


def per_layer(tracer: Tracer, figures: dict, stats: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics named as in perfbench/README.md. A function the
    workload never calls reads 0."""
    counts = tracer.counts
    ops = figures["ops"]

    def calls(name):
        return stats[name]["calls"] if name in stats else 0

    def median(name, key="dur"):
        return float(np.median(stats[name][key])) if name in stats else 0.0

    def total(name):
        return float(stats[name]["dur"].sum()) if name in stats else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    out: dict[str, tuple[float, str]] = {}
    for name in CALL_COUNTS:
        out[f"{name}.calls"] = (calls(name) / ops, "count/op")
    for name in US_FUNCTIONS:
        out[f"{name}.us"] = (1e6 * median(name), "us")
    oracle_calls = calls("oracle.brute_force_best")
    optimize_calls = calls("scheduler_ga.optimize_schedule")
    sim_calls = calls("simulator.run_sim")
    ticks = counts["run_sim.ticks"]
    out.update({
        "cli.main.self_ms": (1e3 * median("cli.main", "self"), "ms"),
        "oracle.brute_force_best.ms": (1e3 * median("oracle.brute_force_best"), "ms"),
        "oracle.assignments": (ratio(counts["oracle.assignments"], oracle_calls), "count/call"),
        "oracle.assignments_per_s": (
            ratio(counts["oracle.assignments"], total("oracle.brute_force_best")), "1/s"),
        "scheduler_ga.fitness.cache_hit_rate": (
            ratio(calls("scheduler_ga.fitness") - sum(len(s) for s in tracer.fitness_seen),
                  calls("scheduler_ga.fitness")), "ratio"),
        "scheduler_ga.optimize_schedule.self_us": (
            1e6 * median("scheduler_ga.optimize_schedule", "self"), "us"),
        "scheduler_ga.polish.improved_ratio": (ratio(counts["polish.improved"], optimize_calls),
                                               "ratio"),
        "ga_core.run.ms": (1e3 * median("ga_core.run"), "ms"),
        "ga_core.generations_per_run": (
            float(np.median(tracer.generations)) if tracer.generations else 0.0, "count"),
        "ga_core.crossover.new_child_ratio": (
            ratio(counts["crossover.new_child"], calls("ga_core.crossover")), "ratio"),
        "ga_core.mutate.changed_ratio": (
            ratio(counts["mutate.changed"], calls("ga_core.mutate")), "ratio"),
        "schedule_matrix.ScheduleMatrix.per_tick": (
            ratio(calls("schedule_matrix.ScheduleMatrix"), ticks), "count/tick"),
        "schedule_matrix.rebalance_crossover.reached_ratio": (
            ratio(counts["rebalance_crossover.reached"],
                  calls("schedule_matrix.rebalance_crossover")), "ratio"),
        "simulator.dispatch.us_per_arrival": (
            1e6 * ratio(total("simulator.dispatch"), counts["dispatch.arrivals"]), "us"),
        "simulator.tick.self_us": (1e6 * median("simulator.tick", "self"), "us"),
        "simulator.run_sim.recalls": (ratio(counts["run_sim.recalls"], sim_calls), "count/call"),
        "simulator.run_sim.send_failures": (
            ratio(counts["run_sim.send_failures"], sim_calls), "count/call"),
    })
    for layer in LAYERS:
        out[f"{layer}.self_share"] = (figures[f"{layer}.self_share"], "ratio")
    return out

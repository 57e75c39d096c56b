"""In-memory span aggregation for the traced benchmark run.

Spans are recorded from outside the library: every public function of the
advstab modules is replaced, at each name a caller looks it up by, with a
wrapper that opens a span. Spans are aggregated per (name, parent) into a
call count, total time and self time, where self time is the span's
duration minus the durations of the spans it directly caused.
"""

from __future__ import annotations

import importlib
import inspect
import os
import time
from typing import Callable

LIBRARY_MODULES = ("stencil", "boundary", "operators", "spectral", "simulate")
# the benchmark's own code between and around library calls
BENCH_MODULE = "perfbench"


class Tracer:
    """Span stack plus per-(name, parent) aggregates and named counters."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self._stack: list[list] = []  # [name, start, time spent in children]
        self.stats: dict[tuple[str, str | None], list] = {}  # [calls, total, self]
        self.counters: dict[str, float] = {}
        self.events = 0

    def enter(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0.0])

    def exit(self) -> None:
        name, start, children = self._stack.pop()
        duration = self.clock() - start
        parent = self._stack[-1][0] if self._stack else None
        if self._stack:
            self._stack[-1][2] += duration
        rec = self.stats.setdefault((name, parent), [0, 0.0, 0.0])
        rec[0] += 1
        rec[1] += duration
        rec[2] += duration - children
        self.events += 1

    def count(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + value

    def maximum(self, key: str, value: float) -> None:
        self.counters[key] = max(self.counters.get(key, value), value)

    def wrap(self, name: str, fn: Callable, observe: Callable | None = None) -> Callable:
        def wrapper(*args, **kwargs):
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit()
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return wrapper

    def by_name(self) -> dict[str, dict]:
        """Totals per span name over all parents (no span nests in itself)."""
        out: dict[str, dict] = {}
        for (name, _parent), (calls, total, self_s) in self.stats.items():
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += calls
            row["total_s"] += total
            row["self_s"] += self_s
        return out

    def module_self(self) -> dict[str, float]:
        """Self time per module, the prefix of each span name."""
        out: dict[str, float] = {}
        for name, row in self.by_name().items():
            module = name.split(".", 1)[0]
            out[module] = out.get(module, 0.0) + row["self_s"]
        return out

    def rows(self) -> list[dict]:
        return [
            {"name": n, "parent": p, "calls": c, "total_s": t, "self_s": s}
            for (n, p), (c, t, s) in sorted(self.stats.items(), key=lambda kv: -kv[1][2])
        ]


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return kwargs[name] if name in kwargs else args[index]


def _file_bytes(tracer: Tracer, key: str, path: str) -> None:
    tracer.count(key, os.path.getsize(path))


# extra per-layer counters, read from a call's arguments and result
OBSERVERS: dict[str, Callable] = {
    "simulate.run": lambda tr, a, kw, res: tr.count(
        "simulate.run.steps", _arg(a, kw, 4, "n_steps")
    ),
    "simulate.save_record_csv": lambda tr, a, kw, res: _file_bytes(
        tr, "simulate.save_record_csv.bytes", _arg(a, kw, 1, "path")
    ),
    "operators.save_matrix": lambda tr, a, kw, res: [
        _file_bytes(tr, "operators.save_matrix.bytes", p) for p in res
    ],
    "spectral.spectral_radius": lambda tr, a, kw, res: tr.maximum(
        "spectral.spectral_radius.residual_max", res.residual
    ),
    "spectral.power_bound_probe": lambda tr, a, kw, res: tr.count(
        "spectral.power_bound_probe.powers", _arg(a, kw, 1, "n_max")
    ),
}


# The per-layer metrics of a traced pass. A name is <span>.<field>; the
# fields calls, self_s and total_s come straight from the span aggregates,
# <module>.self_s sums a module's self time, and the rest are derived.
LAYER_METRICS = (
    "operators.step_interval.calls",
    "operators.step_interval.self_s",
    "operators.step_interval.us_per_call",
    "boundary.fill_right_ghosts.calls",
    "boundary.fill_right_ghosts.self_s",
    "simulate.run.self_s",
    "simulate.run.us_per_step",
    "simulate.growth_slope.total_s",
    "simulate.save_record_csv.total_s",
    "simulate.save_record_csv.bytes",
    "spectral.spectral_radius.calls",
    "spectral.spectral_radius.total_s",
    "spectral.spectral_radius.residual_max",
    "spectral.dense_eigen_oracle.calls",
    "spectral.dense_eigen_oracle.total_s",
    "operators.assemble_matrix.calls",
    "operators.assemble_matrix.self_s",
    "operators.save_matrix.total_s",
    "operators.save_matrix.bytes",
    "stencil.von_neumann_sup.total_s",
    "stencil.unimodular_modes.total_s",
    "spectral.power_bound_probe.total_s",
    "spectral.power_bound_probe.ms_per_power",
    "spectral.operator_norm.calls",
    "spectral.operator_norm.total_s",
    "operators.step_halfline_inflow.calls",
    "operators.step_halfline_inflow.total_s",
    "operators.step_halfline_outflow.calls",
    "operators.step_halfline_outflow.total_s",
    "simulate.lemma1_identity_residual.calls",
    "simulate.lemma1_identity_residual.total_s",
    "cli.main.self_s",
    *(f"{m}.self_s" for m in (*LIBRARY_MODULES, BENCH_MODULE)),
)
# derived from the traced pass against the untraced one by the parent
TRACE_METRICS = ("trace.wall_s", "trace.overhead_s", "trace.spans")

_UNITS = {"calls": "count", "self_s": "s", "total_s": "s", "us_per_call": "us",
          "us_per_step": "us", "ms_per_power": "ms", "bytes": "bytes",
          "residual_max": "1", "wall_s": "s", "overhead_s": "s", "spans": "count"}


def unit(metric: str) -> str:
    return _UNITS[metric.rsplit(".", 1)[1]]


def _per(total: float, count: float, scale: float) -> float:
    return total / count * scale if count else 0.0


def layer_values(tracer: Tracer) -> dict[str, float]:
    """Every LAYER_METRICS value; a layer the pass never called reads 0."""
    spans = tracer.by_name()
    modules = tracer.module_self()
    counters = tracer.counters

    def field(span: str, name: str) -> float:
        return spans.get(span, {}).get(name, 0.0)

    out: dict[str, float] = {}
    for metric in LAYER_METRICS:
        span, name = metric.rsplit(".", 1)
        if "." not in span:
            out[metric] = modules.get(span, 0.0)
        elif name in ("calls", "self_s", "total_s"):
            out[metric] = field(span, name)
        elif name == "us_per_call":
            out[metric] = _per(field(span, "total_s"), field(span, "calls"), 1e6)
        elif name == "us_per_step":
            out[metric] = _per(field(span, "total_s"), counters.get(f"{span}.steps", 0), 1e6)
        elif name == "ms_per_power":
            out[metric] = _per(field(span, "total_s"), counters.get(f"{span}.powers", 0), 1e3)
        else:
            out[metric] = counters.get(metric, 0.0)
    return out


def instrument(tracer: Tracer) -> None:
    """Wrap every public advstab function at each module name that holds it.

    A module that imported a function by name (simulate's step_interval,
    operators' fill_right_ghosts) holds its own reference, so each module
    dict is searched for the original object. cli.main is wrapped as well.
    """
    modules = {m: importlib.import_module(f"advstab.{m}") for m in LIBRARY_MODULES}
    modules["cli"] = importlib.import_module("advstab.cli")
    for short in LIBRARY_MODULES:
        mod = modules[short]
        for attr in mod.__all__:
            fn = getattr(mod, attr)
            if not inspect.isfunction(fn):
                continue
            name = f"{short}.{attr}"
            wrapped = tracer.wrap(name, fn, OBSERVERS.get(name))
            for holder in modules.values():
                if holder.__dict__.get(attr) is fn:
                    setattr(holder, attr, wrapped)
    cli = modules["cli"]
    cli.main = tracer.wrap("cli.main", cli.main)

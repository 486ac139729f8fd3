"""Span recording from outside the program.

Timing wrappers are installed on the module attributes that callers look up
(``itofourier.validation.brownian_path``, ``itofourier.cli.run_cli``, ...),
so no file of the package changes.  Spans are kept in memory as tuples
(id, parent, op, name, start_ns, end_ns) and written out when the run ends.
A span opened on a worker thread with nothing open on that thread takes the
innermost span of the thread that issued the operation as its parent, so a
threaded ``validate`` still nests under ``sample_differences``.
"""
from __future__ import annotations

import gzip
import itertools
import json
import math
import os
import sys
import threading
import time
from collections import defaultdict

# (layer, function) pairs wrapped in a traced run.  The layer is the module
# that defines the function; every itofourier module that imported the same
# function object gets the same wrapper.
TRACED = (
    ("basis", "basis_matrix"),
    ("basis", "breakpoints"),
    ("basis", "integrate_basis"),
    ("quadrature", "panel_grid"),
    ("kernel", "eval_weight"),
    ("coefficients", "coefficient_tensor"),
    ("coefficients", "parseval_residual"),
    ("coefficients", "write_coefficient_table"),
    ("coefficients", "read_coefficient_table"),
    ("partitions", "pair_partitions"),
    ("expansion", "truncated_expansion"),
    ("stochastic", "brownian_path"),
    ("stochastic", "gaussian_pool"),
    ("stochastic", "path_seed"),
    ("stochastic", "zeta_from_path"),
    ("stochastic", "path_iterated_integral"),
    ("validation", "sample_differences"),
    ("validation", "strong_error_estimate"),
    ("validation", "moment_check"),
    ("cli", "run_cli"),
)
LAYERS = ("basis", "quadrature", "kernel", "coefficients", "partitions", "expansion",
          "stochastic", "validation", "cli")
# Fixed-for-the-run work whose useful count per simulated path is zero.
PER_PATH = ("basis.breakpoints", "basis.integrate_basis", "kernel.eval_weight")
DERIVED = (
    ("stochastic.normals_drawn", "count"),
    ("stochastic.normals_per_s", "1/s"),
    ("validation.simulations_per_run", "count"),
    ("expansion.terms_evaluated", "count"),
    ("expansion.active_partitions", "count"),
    ("expansion.tensor_bytes", "bytes"),
    ("coefficients.tensor_entries", "count"),
    ("coefficients.grids_per_tensor", "count"),
    ("coefficients.table_bytes_written", "bytes"),
    ("trace_overhead_frac", "fraction"),
)


def per_layer_metrics() -> list[tuple[str, str]]:
    """Every per-layer metric a traced run reports, as (name, unit)."""
    out = []
    for layer, func in TRACED:
        name = f"{layer}.{func}"
        out += [(f"{name}.calls", "count"), (f"{name}.s", "s"), (f"{name}.self_s", "s")]
    out += [(f"{name}.calls_per_path", "count") for name in PER_PATH]
    out += [(f"{layer}.self_s", "s") for layer in LAYERS]
    out += list(DERIVED)
    return out


def active_partitions(indices) -> int:
    """Pair partitions of {1..k} whose pairs all join equal nonzero
    components (the plain product counts as one), computed from the spec."""
    total = 1
    for comp in set(indices) - {0}:
        n = list(indices).count(comp)
        total *= sum(math.comb(n, 2 * r) * math.prod(range(1, 2 * r, 2))
                     for r in range(n // 2 + 1))
    return total


class Tracer:
    """In-memory span store plus counters for one traced run."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.op = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._op_stack: list[int] = []
        self._lock = threading.Lock()
        self._originals: list[tuple] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span; the calling thread owns the operation."""
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._op_stack[-1] if self._op_stack else None
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.spans.append((sid, parent, self.op, name, start, end))

    def operation(self, op, fn, *args, **kwargs):
        """Run one closed-loop operation as a root span named after op."""
        self.op = op
        self._op_stack = self._stack()
        return self.span("request", fn, *args, **kwargs)

    def count(self, name: str, value: float) -> None:
        with self._lock:
            self.counters[name] += value

    def record_max(self, name: str, value: float) -> None:
        with self._lock:
            self.counters[name] = max(self.counters[name], value)

    def install(self) -> None:
        """Wrap every traced function on each itofourier module that holds it."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "itofourier" or n.startswith("itofourier."))]
        for layer, func in TRACED:
            original = getattr(sys.modules[f"itofourier.{layer}"], func)
            wrapper = self._wrap(f"{layer}.{func}", original)
            for mod in modules:
                if getattr(mod, func, None) is original:
                    self._originals.append((mod, func, original))
                    setattr(mod, func, wrapper)

    def uninstall(self) -> None:
        for mod, func, original in reversed(self._originals):
            setattr(mod, func, original)
        self._originals.clear()

    def _wrap(self, name: str, fn):
        observe = _OBSERVERS.get(name)

        def wrapper(*args, **kwargs):
            result = self.span(name, fn, *args, **kwargs)
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def metrics(self, overhead_frac: float) -> dict[str, float]:
        """Per-layer metrics from the recorded spans and counters."""
        calls: dict[str, int] = defaultdict(int)
        busy: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        for name, total, self_s in self._durations():
            calls[name] += 1
            busy[name] += total
            own[name] += self_s
        out: dict[str, float] = {}
        for layer, func in TRACED:
            name = f"{layer}.{func}"
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.s"] = busy[name]
            out[f"{name}.self_s"] = own[name]
        paths = calls["stochastic.brownian_path"]
        for name in PER_PATH:
            out[f"{name}.calls_per_path"] = calls[name] / paths if paths else 0.0
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(own[f"{layer}.{func}"]
                                         for lay, func in TRACED if lay == layer)
        c = self.counters
        draw_s = busy["stochastic.brownian_path"] + busy["stochastic.gaussian_pool"]
        expansions = calls["expansion.truncated_expansion"]
        tensors = calls["coefficients.coefficient_tensor"]
        validate_runs = calls["validation.strong_error_estimate"]
        out.update({
            "stochastic.normals_drawn": c["normals"],
            "stochastic.normals_per_s": c["normals"] / draw_s if draw_s else 0.0,
            "validation.simulations_per_run": (calls["validation.sample_differences"]
                                               / validate_runs if validate_runs else 0.0),
            "expansion.terms_evaluated": c["terms"],
            "expansion.active_partitions": (c["active_partitions"] / expansions
                                            if expansions else 0.0),
            "expansion.tensor_bytes": c["tensor_bytes"],
            "coefficients.tensor_entries": c["tensor_entries"],
            "coefficients.grids_per_tensor": (calls["quadrature.panel_grid"] / tensors
                                              if tensors else 0.0),
            "coefficients.table_bytes_written": c["table_bytes"],
            "trace_overhead_frac": overhead_frac,
        })
        return out

    def _durations(self):
        """(name, seconds, self seconds) per span; self time is the span
        minus the union of its children's intervals."""
        children: dict[int, list[tuple[int, int]]] = defaultdict(list)
        for _, parent, _, _, start, end in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        for sid, _, _, name, start, end in self.spans:
            covered = 0
            cursor = start
            for c_start, c_end in sorted(children.get(sid, ())):
                c_start, c_end = max(c_start, cursor), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    cursor = c_end
            yield name, (end - start) / 1e9, (end - start - covered) / 1e9

    def write(self, path: str, header: dict) -> None:
        """Spans as gzipped JSON lines after a header line."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            fh.write(json.dumps(["id", "parent", "op", "name", "start_ns", "end_ns"]) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _observe_brownian(tracer, args, kwargs, result):
    tracer.count("normals", result.increments.size)


def _observe_pool(tracer, args, kwargs, result):
    tracer.count("normals", result.m * (result.jmax + 1))


def _observe_expansion(tracer, args, kwargs, result):
    tensor = args[0] if args else kwargs["tensor"]
    tracer.count("terms", result.terms_evaluated)
    tracer.count("active_partitions", active_partitions(tensor.spec.indices))
    tracer.record_max("tensor_bytes", tensor.values.nbytes)


def _observe_tensor(tracer, args, kwargs, result):
    tracer.count("tensor_entries", result.values.size)


def _observe_write(tracer, args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    tracer.count("table_bytes", os.path.getsize(path))


_OBSERVERS = {
    "stochastic.brownian_path": _observe_brownian,
    "stochastic.gaussian_pool": _observe_pool,
    "expansion.truncated_expansion": _observe_expansion,
    "coefficients.coefficient_tensor": _observe_tensor,
    "coefficients.write_coefficient_table": _observe_write,
}

"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root with ``python -m pytest -q bench``.
"""
from __future__ import annotations

import json
import os
import hashlib
import sys
import threading
import time

import pytest

import run
import tracing
import workloads

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    DECLARED = json.load(_fh)

# Per-workload metric names printed on report lines beside the gated ones.
REPORTED = {
    "mc-legendre": {"paths_per_s"},
    "mc-walsh": {"paths_per_s"},
    "tabulate": {"coeffs_entries_per_s", "approximate_entries_per_s"},
}
REPORTED_EVERYWHERE = {"setup_s", "peak_rss_mb", "ops_failed_frac"}
LAYER_NAMES = {
    "stochastic.brownian_path.calls", "stochastic.brownian_path.s",
    "stochastic.normals_drawn", "stochastic.normals_per_s",
    "stochastic.path_iterated_integral.calls", "stochastic.path_iterated_integral.s",
    "stochastic.path_seed.calls", "stochastic.path_seed.s",
    "kernel.eval_weight.calls", "kernel.eval_weight.s",
    "stochastic.zeta_from_path.calls", "stochastic.zeta_from_path.s",
    "basis.breakpoints.calls", "basis.breakpoints.s", "basis.breakpoints.calls_per_path",
    "basis.integrate_basis.calls", "basis.integrate_basis.s",
    "basis.integrate_basis.calls_per_path",
    "validation.sample_differences.calls", "validation.sample_differences.s",
    "validation.simulations_per_run", "validation.self_s",
    "expansion.truncated_expansion.calls", "expansion.truncated_expansion.s",
    "expansion.terms_evaluated", "expansion.active_partitions", "expansion.tensor_bytes",
    "partitions.pair_partitions.calls", "partitions.pair_partitions.s",
    "coefficients.coefficient_tensor.calls", "coefficients.coefficient_tensor.s",
    "coefficients.tensor_entries", "quadrature.panel_grid.calls", "quadrature.panel_grid.s",
    "coefficients.grids_per_tensor",
    "coefficients.write_coefficient_table.calls", "coefficients.write_coefficient_table.s",
    "coefficients.table_bytes_written",
    "coefficients.read_coefficient_table.calls", "coefficients.read_coefficient_table.s",
    "coefficients.parseval_residual.calls", "coefficients.parseval_residual.s",
    "basis.basis_matrix.calls", "basis.basis_matrix.s",
    "cli.run_cli.calls", "cli.run_cli.s", "cli.self_s",
    "trace_overhead_frac",
}


def _printed(lines):
    return {line.split()[1] for line in lines if line.startswith("metric ")}


def test_benchmark_json_matches_the_runner():
    assert DECLARED["command"] == ["python3", "bench/run.py"]
    assert DECLARED["paths"] == ["bench"]
    assert {w["name"] for w in DECLARED["workloads"]} == set(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in DECLARED["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in DECLARED["per_layer"]] == \
        tracing.per_layer_metrics()
    bounds = {m["name"]: m["bound"] for m in DECLARED["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert LAYER_NAMES <= {m["name"] for m in DECLARED["per_layer"]}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_run_reports_every_end_to_end_metric(name):
    result, lines = run.run(name, seed=1, seconds=0.2, trace=False, tiny=True)
    assert result["correct"], [line for line in lines if line.startswith("failed")]
    assert result["failed"] == 0 and result["attempted"] >= 3
    declared = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert REPORTED_EVERYWHERE | REPORTED[name] | set(declared) <= _printed(lines)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_traced_run_reports_every_layer_metric(name):
    result, lines = run.run(name, seed=1, seconds=0.2, trace=True, tiny=True)
    assert result["correct"], [line for line in lines if line.startswith("failed")]
    declared = {m["name"]: m["unit"] for m in DECLARED["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for module, func in (("cli", "run_cli"), ("validation", "brownian_path"),
                         ("coefficients", "panel_grid")):
        assert not hasattr(getattr(sys.modules[f"itofourier.{module}"], func), "__wrapped__")


def test_corrupted_table_row_counts_as_failed(monkeypatch):
    real = workloads.Tabulate.request

    def corrupting(self, i):
        outcome = real(self, i)
        if i == 1:  # change one digit of the last value of the first data row
            path = self.cases[0]["table"]
            with open(path, encoding="utf-8") as fh:
                rows = fh.read().split("\n")
            last = rows[2][-1]
            rows[2] = rows[2][:-1] + ("1" if last != "1" else "2")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("\n".join(rows))
        return outcome

    monkeypatch.setattr(workloads.Tabulate, "request", corrupting)
    result, lines = run.run("tabulate", seed=1, seconds=0.2, trace=False, tiny=True)
    assert result["failed"] == 1 and not result["correct"]
    assert any("re-read table differs" in line for line in lines)
    frac = next(float(line.split()[3]) for line in lines
                if line.startswith("metric ops_failed_frac"))
    assert frac == pytest.approx(1 / result["attempted"])


def _run_leaving_a_thread_busy(monkeypatch):
    """A tiny mc-walsh run whose requests each leave a thread busy for about
    40 ms after they return, as spinning BLAS threads would."""
    real = workloads.McWalsh.request
    buffer = bytes(40_000_000)
    threads = []

    def busy(started):
        started.set()
        hashlib.sha256(buffer).digest()  # drops the GIL while it hashes

    def leaves_a_thread_busy(self, i):
        outcome = real(self, i)
        started = threading.Event()
        threads.append(threading.Thread(target=busy, args=(started,)))
        threads[-1].start()
        started.wait()
        time.sleep(0.005)  # lets the thread reach the hashing
        return outcome

    monkeypatch.setattr(workloads.McWalsh, "request", leaves_a_thread_busy)
    try:
        return run.run("mc-walsh", seed=1, seconds=1.0, trace=False, tiny=True)
    finally:
        for thread in threads:
            thread.join()


def test_probe_waits_until_other_threads_are_idle(monkeypatch):
    result, lines = _run_leaving_a_thread_busy(monkeypatch)
    assert result["correct"]
    assert not any(line.startswith("scaling off") for line in lines)


def test_scaling_is_off_when_other_threads_run_during_probes(monkeypatch):
    monkeypatch.setattr(run, "QUIET_WAIT_S", 0.0)
    result, lines = _run_leaving_a_thread_busy(monkeypatch)
    assert result["correct"]
    assert any(line.startswith("scaling off") for line in lines)


def test_same_seed_gives_same_inputs():
    assert workloads.request_seed(5, 3) == workloads.request_seed(5, 3)
    assert workloads.request_seed(5, 3) != workloads.request_seed(6, 3)


def test_tail_is_highest_percentile_with_ten_samples_above():
    values = list(range(1, 31))
    assert workloads.tail_percentile(values) == (20, pytest.approx(200 / 3))
    assert workloads.tail_percentile([1.0, 2.0]) == (2.0, 100.0)


def test_active_partitions_from_spec():
    assert tracing.active_partitions((1,) * 7) == 232
    assert tracing.active_partitions((1, 2, 1)) == 2
    assert tracing.active_partitions((1, 2)) == 1
    assert tracing.active_partitions((0, 0)) == 1


def test_self_time_subtracts_union_of_children():
    tracer = tracing.Tracer()
    # parent 0..100; two overlapping children 10..50 and 30..70 (threads)
    tracer.spans = [(1, None, 0, "a", 0, 100), (2, 1, 0, "b", 10, 50),
                    (3, 1, 0, "b", 30, 70)]
    own = [(name, total, self_s) for name, total, self_s in tracer._durations()]
    assert own[0] == ("a", pytest.approx(100e-9), pytest.approx(40e-9))
    assert own[1] == ("b", pytest.approx(40e-9), pytest.approx(40e-9))

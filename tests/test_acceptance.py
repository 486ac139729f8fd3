"""Acceptance gate: one test per criterion, each printing a PASS line with
the measured quantities when its assertions hold."""
import itertools
import json
import math
import time

import numpy as np
import pytest

from itofourier import stochastic
from itofourier.basis import BasisSystem, Interval
from itofourier.cli import run_cli
from itofourier.coefficients import CoefficientTensor, coefficient_tensor, parseval_residual
from itofourier.expansion import truncated_expansion
from itofourier.kernel import IntegralSpec, Weight, constant_spec
from itofourier.partitions import pair_partitions
from itofourier.stochastic import gaussian_pool
from itofourier.validation import (grid_allowance, moment_bound_2n, moment_check,
                                   ms_error_bound, sample_differences, strong_error_estimate)
from oracles import explicit_expansion, gram_matrix, hermite_reference

UNIT = Interval(0.0, 1.0)
LEG = BasisSystem.LEGENDRE


def _report(line):
    print(f"PASS {line}")


def test_criterion_1_partition_counts():
    start = time.perf_counter()
    assert len(pair_partitions(2, 1)) == 1
    assert len(pair_partitions(4, 2)) == 3
    assert len(pair_partitions(4, 1)) == 6
    assert len(pair_partitions(5, 1)) == 10
    assert len(pair_partitions(5, 2)) == 15
    for k in range(1, 11):
        for r in range(k // 2 + 1):
            formula = math.factorial(k) // (2**r * math.factorial(r) * math.factorial(k - 2 * r))
            assert len(pair_partitions(k, r)) == formula
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(f"criterion 1: partition counts exact for k <= 10 in {elapsed:.3f}s")


def test_criterion_2_orthonormality():
    start = time.perf_counter()
    worst = {}
    for system in (BasisSystem.LEGENDRE, BasisSystem.TRIGONOMETRIC):
        g = gram_matrix(system, 20, UNIT)
        worst[system.value] = float(np.max(np.abs(g - np.eye(21))))
        assert worst[system.value] <= 1e-10
    g = gram_matrix(BasisSystem.HAAR, 20, UNIT)
    assert np.array_equal(g, np.eye(21))
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(f"criterion 2: gram deviations {worst} (1e-10 cap), Haar exact, "
            f"{elapsed:.3f}s")


def test_criterion_3_coefficient_relations():
    worst = 0.0
    for basis in (BasisSystem.LEGENDRE, BasisSystem.TRIGONOMETRIC):
        spec2 = constant_spec(UNIT, (1, 1))
        spec3 = constant_spec(UNIT, (1, 1, 1))
        spec1 = constant_spec(UNIT, (1,))
        c2 = coefficient_tensor(spec2, basis, (10, 10)).values
        c3 = coefficient_tensor(spec3, basis, (10, 10, 10)).values
        c1 = coefficient_tensor(spec1, basis, (10,)).values
        for j1 in range(11):
            for j2 in range(11):
                worst = max(worst, abs(c2[j1, j2] + c2[j2, j1] - c1[j1] * c1[j2]))
            worst = max(worst, abs(2 * c2[j1, j1] - c1[j1] ** 2))
            worst = max(worst, abs(6 * c3[j1, j1, j1] - c1[j1] ** 3))
        for j1, j2, j3 in itertools.combinations(range(11), 3):
            six = sum(c3[p] for p in itertools.permutations((j1, j2, j3)))
            worst = max(worst, abs(six - c1[j1] * c1[j2] * c1[j3]))
    assert worst <= 1e-10
    _report(f"criterion 3: coefficient relations worst deviation {worst:.2e} <= 1e-10")


def test_criterion_4_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for k in range(1, 8):
        for _ in range(100):
            idx = tuple(int(x) for x in rng.integers(0, 4, size=k))
            orders = tuple(int(x) for x in rng.integers(0, 4, size=k))
            spec = constant_spec(UNIT, idx)
            values = rng.standard_normal(tuple(p + 1 for p in orders))
            tensor = CoefficientTensor(spec=spec, basis=LEG, orders=orders, values=values)
            pool = gaussian_pool(UNIT, LEG, 3, max(orders), seed=int(rng.integers(1 << 31)))
            a = truncated_expansion(tensor, pool).value
            b = explicit_expansion(tensor, pool).value
            rel = abs(a - b) / max(abs(a), abs(b), 1e-12)
            worst = max(worst, rel)
            assert rel <= 1e-12, (k, a, b)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(f"criterion 4: 700 random instances agree, worst rel {worst:.2e}, "
            f"{elapsed:.1f}s < 30s")


def test_criterion_5_finite_truncation_identity():
    weight = Weight((1.0, 2.0))
    worst = 0.0
    for k in range(2, 8):
        spec = IntegralSpec(iv=UNIT, k=k, indices=(1,) * k, weights=(weight,) * k)
        spec1 = IntegralSpec(iv=UNIT, k=1, indices=(1,), weights=(weight,))
        full = coefficient_tensor(spec, LEG, (6,) * k)
        c1_full = coefficient_tensor(spec1, LEG, (6,)).values
        for p in range(7):
            sl = (slice(0, p + 1),) * k
            tensor = CoefficientTensor(spec=spec, basis=LEG, orders=(p,) * k,
                                       values=full.values[sl])
            c1 = c1_full[:p + 1]
            variance = float(np.dot(c1, c1))
            for seed in range(100):
                pool = gaussian_pool(UNIT, LEG, 1, p, seed=seed)
                delta = float(np.dot(c1, pool.values[1]))
                want = hermite_reference(k, delta, variance)
                got = truncated_expansion(tensor, pool).value
                rel = abs(got - want) / max(abs(want), abs(got), 1e-12)
                worst = max(worst, rel)
                assert rel <= 1e-10, (k, p, seed, got, want)
    _report(f"criterion 5: truncation identity k=2..7, p<=6, 100 pools each, "
            f"worst rel {worst:.2e} <= 1e-10")


def test_criterion_6_parseval_residuals():
    spec = constant_spec(UNIT, (1, 2))
    res = [parseval_residual(spec, coefficient_tensor(spec, LEG, (p, p)))
           for p in range(13)]
    assert res[0] == pytest.approx(0.25, abs=1e-10)
    assert res[1] == pytest.approx(1.0 / 12.0, abs=1e-10)
    assert all(res[i + 1] <= res[i] + 1e-14 for i in range(12))
    assert res[12] < 0.025
    _report(f"criterion 6: residual(0,0)={res[0]:.12f}, residual(1,1)={res[1]:.12f}, "
            f"monotone, residual(12,12)={res[12]:.4f} < 0.025")


@pytest.fixture(scope="module")
def criterion7_report():
    spec = constant_spec(UNIT, (1, 2))
    start = time.perf_counter()
    diffs, tensor = sample_differences(spec, LEG, (0, 0), 10_000, 2**12, seed=20240809)
    report = strong_error_estimate(diffs, tensor, 2**12)
    return report, time.perf_counter() - start, diffs, tensor


def test_criterion_7_strong_mc_validation(criterion7_report):
    report, elapsed, _, _ = criterion7_report
    assert elapsed < 120.0
    window = 3.0 * report["std_error"]
    assert report["parseval"] == pytest.approx(0.25, abs=1e-12)
    assert report['mean_sq_diff'] >= 0.25 - window
    assert report['mean_sq_diff'] <= 0.25 + report['grid_allowance'] + window
    assert report["pass"]
    _report(f"criterion 7: E[D^2]={report['mean_sq_diff']:.5f} within 3SE={window:.5f} "
            f"of 0.25 (+allowance {report['grid_allowance']:.2e}), {elapsed:.1f}s < 120s")


def test_criterion_8_moment_bounds(criterion7_report):
    report, _, diffs, tensor = criterion7_report
    allowance = grid_allowance(2, 1.0, 2**12)
    assert report['mean_sq_diff'] <= ms_error_bound(2, report['parseval']) \
        + 3.0 * report["std_error"] + allowance
    # the same 10 000 paths as criterion 7, as in one `validate --n 2` run
    moment = moment_check(diffs, tensor, 2**12, 2)
    literal_bound = moment_bound_2n(2, 2, moment["parseval"]) + allowance
    assert moment["sample_moment"] <= literal_bound
    assert moment["pass"]
    # the equal-component configuration: truncation is exact, grid term only
    spec_eq = constant_spec(UNIT, (1, 1))
    diffs, tensor = sample_differences(spec_eq, LEG, (0, 0), 2000, 2**12, seed=77)
    msd = float(np.mean(diffs**2))
    residual_eq = parseval_residual(spec_eq, tensor)
    assert msd <= ms_error_bound(2, residual_eq) + allowance
    _report(f"criterion 8: E[D^2]={report['mean_sq_diff']:.4f} <= k! residual + 3SE + "
            f"allowance; E[D^4]={moment['sample_moment']:.4f} <= {literal_bound:.2f}")


def test_criterion_9_cli_determinism(tmp_path, monkeypatch):
    # what --threads once selected: the run's fill workers, none on one CPU
    # and two on three (300 paths at m = 2, N = 256 are 3 chunks of up to
    # 128); --threads is still passed, and accepted
    cfg = tmp_path / "spec.json"
    cfg.write_text(json.dumps({
        "spec": {"t": 0.0, "T": 1.0, "k": 2, "indices": [1, 2],
                 "weights": [{"poly": [1]}, {"poly": [1]}]},
        "basis": "legendre",
    }))
    commands = {
        "coeffs": ["coeffs", "--config", str(cfg), "--orders", "2,2"],
        "validate": ["validate", "--config", str(cfg), "--orders", "1,1",
                     "--paths", "300", "--steps", "256", "--seed", "42", "--n", "2"],
    }
    fills, fill = [], stochastic._Fill
    monkeypatch.setattr(stochastic, "_Fill", lambda *a: fills.append(fill(*a)) or fills[-1])
    runs = ((1, 1), (3, 8))  # (CPUs, --threads)
    for name, argv in commands.items():
        blobs = []
        for cpus, threads in runs:
            monkeypatch.setattr(stochastic, "_cpus", lambda: cpus)
            out = tmp_path / f"{name}-{cpus}.out"
            code = run_cli(["--threads", str(threads)] + argv + ["--out", str(out)])
            assert code == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1], name
    assert [len(run.workers) for run in fills] == [0, 2]  # the validate runs
    # approximate consumes the coeffs output
    table = tmp_path / "coeffs-1.out"
    vals = []
    for cpus, threads in runs:
        monkeypatch.setattr(stochastic, "_cpus", lambda: cpus)
        out = tmp_path / f"approx-{cpus}.json"
        assert run_cli(["--threads", str(threads), "approximate", "--table",
                        str(table), "--seed", "7", "--out", str(out)]) == 0
        vals.append(out.read_bytes())
    assert vals[0] == vals[1]
    _report("criterion 9: all three subcommands byte-identical on 1 CPU (--threads 1) and "
            "on 3 (--threads 8); validate's 3-chunk runs had 0 and 2 fill workers")

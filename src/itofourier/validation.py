"""Monte-Carlo harness: truncated expansion vs the pathwise grid oracle.

For every sampled path the expansion is evaluated on the pool derived from
that same path, so the difference D isolates truncation error (captured
exactly by the Parseval residual) plus a grid bias of order 1/N.  The grid
allowance uses the documented constant c = k**2, i.e.
allowance = k**2 (T-t)**2 / N; it is reported, never silently absorbed.
The reports are built from a sample drawn once by sample_differences, so
the strong-error and the moment report of one run share their paths.

Per-path seeds are counter-derived from the master seed and all aggregates
use exact summation over an index-addressed sample array, so reports are
bit-identical for any thread count.
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .basis import BasisSystem
from .coefficients import (CoefficientTensor, coefficient_tensor, moment_bound_2n,
                           ms_error_bound, parseval_residual)
from .errors import DomainError
from .expansion import truncated_expansion
from .kernel import IntegralSpec
from .stochastic import brownian_path, path_iterated_integral, path_seed, zeta_from_path


@dataclass(frozen=True)
class ValidationReport:
    """Strong-error comparison summary.

    passed holds mean_sq_diff <= parseval + 3 std_error + grid_allowance.
    """

    samples: int
    mean_sq_diff: float
    std_error: float
    parseval: float
    bound_ms: float
    bound_2n: float | None
    grid_allowance: float
    passed: bool

    def to_json(self, config: dict | None = None) -> dict:
        out = {
            "samples": self.samples,
            "mean_sq_diff": self.mean_sq_diff,
            "std_error": self.std_error,
            "parseval": self.parseval,
            "bound_ms": self.bound_ms,
            "bound_2n": self.bound_2n,
            "grid_allowance": self.grid_allowance,
            "pass": self.passed,
        }
        if config is not None:
            out["config"] = config
        return out


@dataclass(frozen=True)
class MomentReport:
    """Degree-2n moment comparison against the analytic bound."""

    samples: int
    moment_degree: int
    sample_moment: float
    std_error: float
    parseval: float
    bound_2n: float
    grid_allowance: float
    passed: bool

    def to_json(self, config: dict | None = None) -> dict:
        out = {
            "samples": self.samples,
            "moment_degree": self.moment_degree,
            "sample_moment": self.sample_moment,
            "std_error": self.std_error,
            "parseval": self.parseval,
            "bound_2n": self.bound_2n,
            "grid_allowance": self.grid_allowance,
            "pass": self.passed,
        }
        if config is not None:
            out["config"] = config
        return out


def grid_allowance(k: int, length: float, n_steps: int) -> float:
    """Engineering margin for the grid bias of the pathwise oracle."""
    return k**2 * length**2 / n_steps


def _check_inputs(spec: IntegralSpec, n_paths: int) -> None:
    if any(i < 1 for i in spec.indices):
        raise DomainError("validation requires all component indices >= 1")
    if n_paths < 100:
        raise DomainError(f"need n_paths >= 100, got {n_paths}")


def sample_differences(spec: IntegralSpec, basis: BasisSystem, orders, n_paths: int,
                       n_steps: int, seed: int, tensor: CoefficientTensor | None = None,
                       threads: int = 1) -> tuple[np.ndarray, CoefficientTensor]:
    """Per-path differences D = pathwise integral - truncated expansion.

    Each path gets its own derived seed; results land in an index-addressed
    array, making the sample independent of the thread count.  At most
    os.cpu_count() worker threads are started.
    """
    _check_inputs(spec, n_paths)
    if threads < 1:
        raise DomainError(f"threads must be >= 1, got {threads}")
    workers = min(threads, os.cpu_count() or 1)
    orders_t = tuple(int(p) for p in orders)
    if tensor is None:
        tensor = coefficient_tensor(spec, basis, orders_t)
    jmax = max(orders_t)
    m = spec.max_index
    diffs = np.empty(n_paths)

    def run_path(i: int) -> None:
        path = brownian_path(spec.iv, m, n_steps, path_seed(seed, i))
        pool = zeta_from_path(path, basis, jmax)
        approx = truncated_expansion(tensor, pool).value
        diffs[i] = path_iterated_integral(spec, path) - approx

    if workers == 1:
        for i in range(n_paths):
            run_path(i)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool_exec:
            list(pool_exec.map(run_path, range(n_paths)))
    return diffs, tensor


def _moment_stats(diffs: np.ndarray, degree: int) -> tuple[float, float]:
    """Exact-sum sample mean of D**degree and its standard error."""
    n = diffs.size
    powers = [float(d) ** degree for d in diffs]
    mean = math.fsum(powers) / n
    var = math.fsum((p - mean) ** 2 for p in powers) / (n - 1)
    return mean, math.sqrt(var / n)


def strong_error_estimate(diffs: np.ndarray, tensor: CoefficientTensor,
                          n_steps: int) -> ValidationReport:
    """Sampled E[D^2] of differences drawn by :func:`sample_differences`
    for this tensor on n_steps-step paths, against the Parseval residual
    window."""
    spec = tensor.spec
    mean_sq, se = _moment_stats(diffs, 2)
    residual = parseval_residual(spec, tensor)
    allowance = grid_allowance(spec.k, spec.iv.length, n_steps)
    return ValidationReport(
        samples=diffs.size,
        mean_sq_diff=mean_sq,
        std_error=se,
        parseval=residual,
        bound_ms=ms_error_bound(spec.k, residual),
        bound_2n=None,
        grid_allowance=allowance,
        passed=mean_sq <= residual + 3.0 * se + allowance,
    )


def moment_check(diffs: np.ndarray, tensor: CoefficientTensor, n_steps: int,
                 n: int) -> MomentReport:
    """Sampled E[D^{2n}] (n in {1, 2}) of the same differences against the
    degree-2n bound.

    The grid bias is folded in by inflating the residual with the grid
    allowance before applying the bound formula.
    """
    if n not in (1, 2):
        raise DomainError(f"moment degree parameter must be 1 or 2, got {n}")
    spec = tensor.spec
    sample_moment, se = _moment_stats(diffs, 2 * n)
    residual = parseval_residual(spec, tensor)
    allowance = grid_allowance(spec.k, spec.iv.length, n_steps)
    bound = moment_bound_2n(n, spec.k, residual + allowance)
    return MomentReport(
        samples=diffs.size,
        moment_degree=2 * n,
        sample_moment=sample_moment,
        std_error=se,
        parseval=residual,
        bound_2n=bound,
        grid_allowance=allowance,
        passed=sample_moment <= bound + 3.0 * se,
    )

"""Monte-Carlo harness: truncated expansion vs the pathwise grid oracle.

For every sampled path the expansion is evaluated on the pool derived from
that same path, so the difference D isolates truncation error plus a grid
bias of order 1/N.  The Parseval residual is the truncation error's exact
mean square only when all component indices are distinct.  The grid
allowance uses the documented constant c = k**2, i.e.
allowance = k**2 (T-t)**2 / N; it is reported, never silently absorbed.
The reports are built from a sample drawn once by sample_differences, so
the strong-error and the moment report of one run share their paths.

Per-path seeds are counter-derived from the master seed and all aggregates
use exact summation over an index-addressed sample array, so reports are
bit-identical for a fixed seed.  Chunks of paths run one after another on
the calling thread.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import stochastic
from .basis import BasisSystem
from .coefficients import (CoefficientTensor, coefficient_tensor, moment_bound_2n,
                           ms_error_bound, parseval_residual)
from .errors import CapacityError, DomainError
from .expansion import truncated_expansion
from .kernel import IntegralSpec, exact_ints
from .stochastic import brownian_path, path_iterated_integral, path_seed, zeta_from_path


# Normals budget of one chunk of paths: 2**16 is 8 paths at m = 2, N = 4096,
# about 1.3 MB of increments, pools and oracle working set
CHUNK_NORMALS = 2**16


class _Report:
    def to_json(self, config: dict | None = None) -> dict:
        """The report fields, with passed under the key "pass"."""
        out = {("pass" if k == "passed" else k): v for k, v in asdict(self).items()}
        if config is not None:
            out["config"] = config
        return out


@dataclass(frozen=True)
class ValidationReport(_Report):
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


@dataclass(frozen=True)
class MomentReport(_Report):
    """Degree-2n moment comparison against the analytic bound."""

    samples: int
    moment_degree: int
    sample_moment: float
    std_error: float
    parseval: float
    bound_2n: float
    grid_allowance: float
    passed: bool


def grid_allowance(k: int, length: float, n_steps: int) -> float:
    """Engineering margin for the grid bias of the pathwise oracle."""
    return k**2 * length**2 / n_steps


def sample_differences(spec: IntegralSpec, basis: BasisSystem, orders, n_paths: int,
                       n_steps: int, seed: int, tensor: CoefficientTensor | None = None
                       ) -> tuple[np.ndarray, CoefficientTensor]:
    """Per-path differences D = pathwise integral - truncated expansion.

    Chunks of max(1, CHUNK_NORMALS // (m N)) paths are one batched call each
    of brownian_path, zeta_from_path, path_iterated_integral and
    truncated_expansion.  Each path keeps its own derived seed, so the
    sample does not depend on how paths are grouped into chunks beyond the
    rounding of the batched contraction.  n_paths is held to
    stochastic.MAX_GRID_ENTRIES and n_steps to at least 1 before the tensor
    is built.
    """
    if any(i < 1 for i in spec.indices):
        raise DomainError("validation requires all component indices >= 1")
    if n_paths < 100:
        raise DomainError(f"need n_paths >= 100, got {n_paths}")
    if n_paths > stochastic.MAX_GRID_ENTRIES:
        raise CapacityError(f"n_paths = {n_paths} paths > cap {stochastic.MAX_GRID_ENTRIES}")
    if n_steps < 1:
        raise DomainError(f"need N >= 1 steps, got {n_steps}")
    orders_t = exact_ints("orders", orders)
    if tensor is None:
        tensor = coefficient_tensor(spec, basis, orders_t)
    jmax = max(orders_t)
    m = spec.max_index
    chunk = max(1, CHUNK_NORMALS // (m * n_steps))
    diffs = np.empty(n_paths)
    for start in range(0, n_paths, chunk):
        stop = min(start + chunk, n_paths)
        path = brownian_path(spec.iv, m, n_steps,
                             [path_seed(seed, i) for i in range(start, stop)])
        approx = truncated_expansion(tensor, zeta_from_path(path, basis, jmax)).value
        diffs[start:stop] = path_iterated_integral(spec, path) - approx
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

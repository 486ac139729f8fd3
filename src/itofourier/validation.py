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

from . import errors
from .basis import BasisSystem
from .coefficients import (CoefficientTensor, coefficient_tensor, moment_bound_2n,
                           ms_error_bound, parseval_residual)
from .errors import DomainError, read_int, read_ints
from .expansion import truncated_expansion
from .kernel import IntegralSpec
from .stochastic import MAX_SEED, brownian_path, path_iterated_integral, path_seed, zeta_from_path


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
    """Engineering margin for the grid bias of the pathwise oracle on
    n_steps steps, at most errors.MAX_ENTRIES as on any path."""
    return k**2 * length**2 / read_int("N", n_steps, 1, errors.MAX_ENTRIES)


def sample_differences(spec: IntegralSpec, basis: BasisSystem, orders, n_paths: int,
                       n_steps: int, seed: int, tensor: CoefficientTensor | None = None
                       ) -> tuple[np.ndarray, CoefficientTensor]:
    """Per-path differences D = pathwise integral - truncated expansion.

    Chunks of max(1, CHUNK_NORMALS // (m N)) paths are one batched call each
    of brownian_path, zeta_from_path, path_iterated_integral and
    truncated_expansion.  Each path keeps its own derived seed, so the
    sample does not depend on how paths are grouped into chunks beyond the
    rounding of the batched contraction.  n_paths is held to [100,
    errors.MAX_ENTRIES], n_steps to at least 1 and the seed to [0, MAX_SEED]
    before the tensor is built.
    """
    if any(i < 1 for i in spec.indices):
        raise DomainError("validation requires all component indices >= 1")
    n_paths = read_int("n_paths", n_paths, lo=100)
    errors.require_fits("the sample of n_paths", n_paths, "paths")
    n_steps = read_int("N", n_steps, lo=1)
    seed = read_int("seed", seed, 0, MAX_SEED)
    orders_t = read_ints("orders", orders, lo=0)
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
    n = read_int("n", n, 1, 2)
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

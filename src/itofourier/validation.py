"""Monte-Carlo harness and error accounting: truncated expansion vs the
pathwise grid oracle, judged against the paper's bounds.

For every sampled path the expansion is evaluated on the pool derived from
that same path, so the difference D isolates truncation error plus a grid
bias of order 1/N.  The Parseval residual is the truncation error's exact
mean square only when all component indices are distinct.  The grid
allowance uses the documented constant c = k**2, i.e.
allowance = k**2 (T-t)**2 / N; it is reported, never silently absorbed.
:func:`strong_error_estimate` builds the whole document that ``validate``
writes from one sample drawn by :func:`sample_differences`, so every bound
and pass rule of a run is stated here, once.

The paths of a run are those of stochastic.run_paths: path i from word i
of the run's stream of per-path seeds, each chunk drawn by brownian_path.
Every aggregate, the Parseval mass among them, is an exact sum rounded
once, so reports are bit-identical for a fixed seed.  Chunks of paths are
reduced one after another on the calling thread, in the order the run hands
them out, in a run opened before the tensor is built: the run's one
worker, where one starts, fills the first chunks during the build and
keeps filling ahead while each chunk is reduced.
"""
from __future__ import annotations

import math

import numpy as np

from . import errors
from .basis import BasisSystem
from .coefficients import CoefficientTensor, coefficient_tensor, parseval_residual
from .errors import CapacityError, DomainError, NumericError, int_text, read_int, read_ints
from .expansion import truncated_expansion
from .kernel import IntegralSpec
# brownian_path is not called here: the benchmark's self-tests look it up here
from .stochastic import brownian_path, path_iterated_integral, run_paths, zeta_from_path


def grid_allowance(k: int, length: float, n_steps: int) -> float:
    """Engineering margin for the grid bias of the pathwise oracle on
    n_steps steps, at most errors.MAX_ENTRIES as on any path."""
    return k**2 * length**2 / read_int("N", n_steps, 1, errors.MAX_ENTRIES)


# a D that overflows is left inf or nan: strong_error_estimate names its moment
@np.errstate(over="ignore", invalid="ignore")
def sample_differences(spec: IntegralSpec, basis: BasisSystem, orders, n_paths: int,
                       n_steps: int, seed: int, tensor: CoefficientTensor | None = None
                       ) -> tuple[np.ndarray, CoefficientTensor]:
    """Per-path differences D = pathwise integral - truncated expansion.

    Each chunk of paths of stochastic.run_paths is one batched call each of
    zeta_from_path, path_iterated_integral and truncated_expansion.  Each
    path keeps its own derived seed, so the sample does not depend on how
    paths are grouped into chunks beyond the rounding of the batched
    contraction, and each chunk's differences land at its first path's
    index, in whatever order the run hands chunks out.  A given tensor is
    held to this spec, basis and orders before the run opens, which reads
    n_steps, the seed and m n_steps before the tensor is built, while the
    run's worker fills the first chunks.
    """
    if any(i < 1 for i in spec.indices):
        raise DomainError("validation requires all component indices >= 1")
    n_paths = read_int("n_paths", n_paths, lo=100)
    orders_t = read_ints("orders", orders, lo=0)
    if tensor and (tensor.spec, tensor.basis, tensor.orders) != (spec, basis, orders_t):
        raise DomainError("tensor was built for a different integral spec, basis or orders")
    # entries per path of a chunk's widest arrays: its pools, and the expansion's head
    width = max((spec.max_index + 1) * (max(orders_t, default=0) + 1),
                math.prod(o + 1 for o in orders_t[:-1]))
    with run_paths(spec.iv, spec.max_index, n_steps, seed, n_paths, width) as paths:
        tensor = tensor or coefficient_tensor(spec, basis, orders_t)
        diffs = np.empty(n_paths)
        for start, path in paths:
            approx = truncated_expansion(tensor, zeta_from_path(path, basis, max(orders_t))).value
            diffs[start:start + len(path.increments)] = path_iterated_integral(spec, path) - approx
    return diffs, tensor


def _moment_stats(diffs: np.ndarray, degree: int) -> tuple[float, float]:
    """Exact-sum sample mean of D**degree and its standard error; a
    NumericError names the moment if either overflows a float."""
    n = diffs.size
    try:
        powers = [float(d) ** degree for d in diffs]
        mean = math.fsum(powers) / n
        se = math.sqrt(math.fsum((p - mean) ** 2 for p in powers) / (n - 1) / n)
    except OverflowError:
        se = math.inf
    if not math.isfinite(se):  # an infinite or nan mean makes se nan
        raise NumericError(f"sample moment E[D**{degree}] or its standard error overflows")
    return mean, se


def ms_error_bound(k: int, residual: float) -> float:
    """Mean-square truncation bound k! * residual; the paper proves it for
    nonzero component indices only."""
    if not residual >= 0.0:  # so a NaN fails
        raise DomainError(f"residual: must be >= 0, got {residual}")
    k = read_int("k", k, lo=1)
    if k > 20:
        raise CapacityError(f"k = {int_text(k)} exceeds the factorial guard (20)")
    return math.factorial(k) * residual


def moment_bound_2n(n: int, k: int, residual: float) -> float:
    """Degree-2n moment bound (k!)^{2n} (n(2n-1))^{n(k-1)} (2n-1)!! residual^n."""
    n, k = read_int("n", n, lo=1), read_int("k", k, lo=1)
    if not residual >= 0.0:  # so a NaN fails
        raise DomainError(f"residual: must be >= 0, got {residual}")
    overflows = f"moment bound overflows for n={int_text(n)}, k={int_text(k)}"
    # k! and (2n - 1)!! below cost big-integer work without bound in k and n.
    # Their logs at k and n clamped to 10**6 bound them below; one over 710.8
    # (the float range's 709.78 plus a margin) overflows there, so refuse it now
    j, m = min(k, 10**6), min(n, 10**6)
    if max(math.lgamma(j + 1),
           math.lgamma(2 * m + 1) - math.lgamma(m + 1) - m * math.log(2.0)) > 710.8:
        raise CapacityError(overflows)
    double_fact = math.prod(range(1, 2 * n, 2))
    try:
        bound = (float(math.factorial(k)) ** (2 * n)
                 * float(n * (2 * n - 1)) ** (n * (k - 1))
                 * double_fact * residual**n)
    except OverflowError as exc:
        raise CapacityError(overflows) from exc
    if math.isinf(bound):
        raise CapacityError(overflows)
    return bound


def strong_error_estimate(diffs: np.ndarray, tensor: CoefficientTensor, n_steps: int,
                          n: int | None = None) -> dict:
    """The document ``validate`` writes, without its config, for differences
    drawn by :func:`sample_differences` for this tensor on n_steps-step paths.

    "pass" holds mean_sq_diff <= parseval + 3 std_error + grid_allowance.
    With n in {1, 2} the document also carries bound_2n and a "moment"
    block: the sampled E[D^{2n}] against the degree-2n bound, whose residual
    is inflated by the grid allowance to fold in the grid bias.
    """
    if not isinstance(diffs, np.ndarray) or diffs.ndim != 1 or diffs.size < 2:
        raise DomainError("diffs must be a 1-D array of at least 2 differences")
    if n is not None:
        n = read_int("n", n, 1, 2)
    spec = tensor.spec
    mean_sq, se = _moment_stats(diffs, 2)
    residual = parseval_residual(spec, tensor)
    allowance = grid_allowance(spec.k, spec.iv.length, n_steps)
    doc = {"samples": diffs.size, "mean_sq_diff": mean_sq, "std_error": se,
           "parseval": residual, "bound_ms": ms_error_bound(spec.k, residual),
           "bound_2n": None, "grid_allowance": allowance,
           "pass": mean_sq <= residual + 3.0 * se + allowance}
    if n is not None:
        moment, moment_se = (mean_sq, se) if n == 1 else _moment_stats(diffs, 4)
        doc["bound_2n"] = bound = moment_bound_2n(n, spec.k, residual + allowance)
        doc["moment"] = {"samples": diffs.size, "moment_degree": 2 * n,
                         "sample_moment": moment, "std_error": moment_se,
                         "parseval": residual, "bound_2n": bound,
                         "grid_allowance": allowance, "pass": moment <= bound + 3.0 * moment_se}
    return doc


def moment_check(diffs: np.ndarray, tensor: CoefficientTensor, n_steps: int, n: int) -> dict:
    """The "moment" block of :func:`strong_error_estimate` for n in {1, 2};
    kept because the benchmark's tracer wraps it by name."""
    return strong_error_estimate(diffs, tensor, n_steps, read_int("n", n, 1, 2))["moment"]

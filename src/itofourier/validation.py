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

Per-path seeds are counter-derived from the master seed, and the stream
keys of a block of paths come from numpy's SeedSequence hash computed over
arrays in one pass, with the stream layout of one SeedSequence per stream.
All aggregates use exact summation over an index-addressed sample array, so
reports are bit-identical for a fixed seed.  Chunks of paths run one after
another on the calling thread; within a chunk the path fill splits its
normals over the CPUs the process may use (see stochastic), with the same
bits on any number of CPUs.
"""
from __future__ import annotations

import math

import numpy as np

from . import errors
from .basis import BasisSystem
from .coefficients import CoefficientTensor, coefficient_tensor, parseval_residual
from .errors import CapacityError, DomainError, int_text, read_int, read_ints
from .expansion import truncated_expansion
from .kernel import IntegralSpec
# brownian_path is unused here but kept: the benchmark's tests look it up on
# this module
from .stochastic import (MAX_SEED, _run_keys, _wiener_path, brownian_path,
                         path_iterated_integral, zeta_from_path)


# Normals budget of one chunk of paths: 2**16 is 8 paths at m = 2, N = 4096,
# about 1.3 MB of increments, pools and oracle working set
CHUNK_NORMALS = 2**16
# Streams (paths times m) whose keys are derived in one pass, in whole
# chunks: 2**15 covers the 10**4 paths at m = 2 of criterion 7
KEY_STREAMS = 2**15


def grid_allowance(k: int, length: float, n_steps: int) -> float:
    """Engineering margin for the grid bias of the pathwise oracle on
    n_steps steps, at most errors.MAX_ENTRIES as on any path."""
    return k**2 * length**2 / read_int("N", n_steps, 1, errors.MAX_ENTRIES)


def sample_differences(spec: IntegralSpec, basis: BasisSystem, orders, n_paths: int,
                       n_steps: int, seed: int, tensor: CoefficientTensor | None = None
                       ) -> tuple[np.ndarray, CoefficientTensor]:
    """Per-path differences D = pathwise integral - truncated expansion.

    Keys of about KEY_STREAMS streams are derived in one pass.  Chunks of
    max(1, CHUNK_NORMALS // (m N)) paths are one batched call each of the
    path fill, zeta_from_path, path_iterated_integral and
    truncated_expansion.  Each path keeps its own derived seed, so the
    sample does not depend on how paths are grouped into chunks beyond the
    rounding of the batched contraction.  n_paths is held to [100,
    errors.MAX_ENTRIES], n_steps to at least 1, the seed to [0, MAX_SEED]
    and a given tensor to this spec, basis and orders before any path is
    drawn.
    """
    if any(i < 1 for i in spec.indices):
        raise DomainError("validation requires all component indices >= 1")
    n_paths = read_int("n_paths", n_paths, lo=100)
    errors.require_fits("the sample of n_paths", n_paths, "paths")
    n_steps = read_int("N", n_steps, lo=1)
    seed = read_int("seed", seed, 0, MAX_SEED)
    orders_t = read_ints("orders", orders, lo=0)
    m = spec.max_index
    errors.require_fits("paths", m * n_steps, "increments (m N per path)")
    if tensor is None:
        tensor = coefficient_tensor(spec, basis, orders_t)
    elif tensor.spec != spec or tensor.basis is not basis or tensor.orders != orders_t:
        raise DomainError("tensor was built for a different integral spec, basis or orders")
    jmax = max(orders_t)
    chunk = max(1, CHUNK_NORMALS // (m * n_steps))
    block = chunk * max(1, KEY_STREAMS // (chunk * m))
    diffs = np.empty(n_paths)
    for first in range(0, n_paths, block):
        keys = _run_keys(seed, first, min(first + block, n_paths), m)
        for start in range(0, len(keys), chunk):
            path = _wiener_path(spec.iv, n_steps, keys[start:start + chunk])
            approx = truncated_expansion(tensor, zeta_from_path(path, basis, jmax)).value
            stop = first + start + len(approx)
            diffs[first + start:stop] = path_iterated_integral(spec, path) - approx
    return diffs, tensor


def _moment_stats(diffs: np.ndarray, degree: int) -> tuple[float, float]:
    """Exact-sum sample mean of D**degree and its standard error."""
    n = diffs.size
    powers = [float(d) ** degree for d in diffs]
    mean = math.fsum(powers) / n
    var = math.fsum((p - mean) ** 2 for p in powers) / (n - 1)
    return mean, math.sqrt(var / n)


def ms_error_bound(k: int, residual: float) -> float:
    """Mean-square truncation bound k! * residual; the paper proves it for
    nonzero component indices only."""
    if residual < 0.0:
        raise DomainError("residual must be >= 0")
    k = read_int("k", k, lo=1)
    if k > 20:
        raise CapacityError(f"k = {int_text(k)} exceeds the factorial guard (20)")
    return math.factorial(k) * residual


def moment_bound_2n(n: int, k: int, residual: float) -> float:
    """Degree-2n moment bound (k!)^{2n} (n(2n-1))^{n(k-1)} (2n-1)!! residual^n."""
    n, k = read_int("n", n, lo=1), read_int("k", k, lo=1)
    if residual < 0.0:
        raise DomainError("residual must be >= 0")
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

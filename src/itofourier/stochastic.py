"""Seeded Gaussian pools, Wiener paths, and the discretized pathwise oracle.

All randomness is counter-derived: every stream is keyed by the user seed
plus a (domain, index) spawn key, so any entry depends only on the seed and
its own coordinates.  Pools can be enlarged and paths generated in any
order or grouping without perturbing existing values, and identical seeds
give bit-identical results.  Paths, pools and the oracle take an
optional leading batch axis, so one call handles a chunk of paths through
the same code as one path.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.random import Generator, Philox, SeedSequence

from .basis import BasisSystem, Interval, basis_matrix, jump_depth
from .errors import CapacityError, CompatibilityError, DomainError, GridCompatibilityError
from .kernel import IntegralSpec, eval_weight

# Entries one batch of paths (B m N increments), one simulation grid
# (N (jmax + 1) basis values) or one validation sample (n_paths
# differences) may hold: the coefficient tensors' cap
MAX_GRID_ENTRIES = 10**8

_POOL_DOMAIN = 0
_PATH_DOMAIN = 1
_SUBSEED_DOMAIN = 2


def _stream(seed: int, domain: int, index: int) -> Generator:
    ss = SeedSequence(int(seed) % 2**64, spawn_key=(domain, index))
    return Generator(Philox(ss))


def path_seed(seed: int, path_index: int) -> int:
    """Derive an independent per-path seed from a master seed."""
    ss = SeedSequence(int(seed) % 2**64, spawn_key=(_SUBSEED_DOMAIN, int(path_index)))
    return int(ss.generate_state(1, np.uint64)[0])


@dataclass(frozen=True, eq=False)
class GaussianPool:
    """Basis-integral variables by component and basis index.

    Row 0 holds the deterministic time-component values (plain integrals of
    the basis functions); rows 1..m hold the Gaussian coefficients of the
    Wiener components.  values has shape (m + 1, jmax + 1) for one pool and
    (B, m + 1, jmax + 1) for a batch of B pools.
    """

    iv: Interval
    basis: BasisSystem
    m: int
    jmax: int
    values: np.ndarray

    def __post_init__(self):
        shape = (self.m + 1, self.jmax + 1)
        if self.values.ndim not in (2, 3) or self.values.shape[-2:] != shape:
            raise DomainError(f"pool values must have shape {shape} after an optional batch axis")
        if not np.all(np.isfinite(self.values)):
            raise DomainError("pool contains non-finite entries")


@dataclass(frozen=True, eq=False)
class WienerPath:
    """Increments of an m-dimensional Wiener process on a uniform grid,
    shape (m, N) for one path and (B, m, N) for a batch of B paths."""

    iv: Interval
    m: int
    N: int
    increments: np.ndarray

    def __post_init__(self):
        if self.m < 1 or self.N < 1:
            raise DomainError("path needs m >= 1 and N >= 1")
        shape = (self.m, self.N)
        if self.increments.ndim not in (2, 3) or self.increments.shape[-2:] != shape:
            raise DomainError(f"increments must have shape {shape} after an optional batch axis")

    @property
    def dt(self) -> float:
        return self.iv.length / self.N


def _time_row(iv: Interval, jmax: int) -> np.ndarray:
    """Integrals of phi_0..phi_jmax over [t, T]: sqrt(T - t), then zeros
    (every system's phi_0 is constant, see basis.integrate_basis)."""
    row = np.zeros(jmax + 1)
    row[0] = math.sqrt(iv.length)
    return row


def gaussian_pool(iv: Interval, basis: BasisSystem, m: int, jmax: int,
                  seed: int) -> GaussianPool:
    """Pool of independent standard normals for components 1..m, with the
    deterministic time-component row filled from basis integrals.

    Entry (i, j) depends only on (seed, i, j): enlarging jmax extends each
    row without changing existing entries.
    """
    if m < 1 or jmax < 0:
        raise DomainError("need m >= 1 and jmax >= 0")
    values = np.empty((m + 1, jmax + 1))
    values[0] = _time_row(iv, jmax)
    for i in range(1, m + 1):
        values[i] = _stream(seed, _POOL_DOMAIN, i).standard_normal(jmax + 1)
    values.setflags(write=False)
    return GaussianPool(iv=iv, basis=basis, m=m, jmax=jmax, values=values)


def brownian_path(iv: Interval, m: int, N: int, seed) -> WienerPath:
    """Uniform-grid Wiener increments, Normal(0, (T-t)/N) i.i.d. per entry.

    Component rows come from per-component streams, so entry (i, l) depends
    only on (seed, i, l).  A sequence of seeds gives a batch whose row b is
    bit-identical to the path of seeds[b].
    """
    if m < 1 or N < 1:
        raise DomainError("need m >= 1 and N >= 1")
    single = np.ndim(seed) == 0
    batch = 1 if single else len(seed)
    if batch * m * N > MAX_GRID_ENTRIES:
        raise CapacityError(f"paths would hold {batch * m * N} increments "
                            f"> cap {MAX_GRID_ENTRIES}")
    increments = np.empty((batch, m, N))
    for b, path_key in enumerate([seed] if single else seed):
        for i in range(1, m + 1):
            _stream(path_key, _PATH_DOMAIN, i).standard_normal(out=increments[b, i - 1])
    increments *= math.sqrt(iv.length / N)
    increments.setflags(write=False)
    return WienerPath(iv=iv, m=m, N=N, increments=increments[0] if single else increments)


@lru_cache(maxsize=1)
def _grid_plan(basis: BasisSystem, iv: Interval, n_steps: int,
               jmax: int) -> tuple[np.ndarray, np.ndarray]:
    """Basis rows at the left grid points and the exact row 0, both fixed for
    a whole run (only the latest plan is kept: one may hold MAX_GRID_ENTRIES
    values).  Raises (and so caches nothing) if a basis jump is off the grid:
    the jumps are the multiples of (T - t) / 2**D that include (T - t) / 2**D
    itself, so all lie on the grid exactly when 2**D divides N."""
    depth = jump_depth(basis, jmax)
    if n_steps % 2**depth:
        raise GridCompatibilityError(
            f"{basis.value} basis up to index {jmax} jumps on the 2**{depth} grid; "
            f"N={n_steps} is not a multiple of 2**{depth}")
    left = iv.t + np.arange(n_steps) * (iv.length / n_steps)
    phi = basis_matrix(basis, jmax, left, iv)
    row0 = _time_row(iv, jmax)
    phi.setflags(write=False)
    row0.setflags(write=False)
    return phi, row0


def zeta_from_path(path: WienerPath, basis: BasisSystem, jmax: int) -> GaussianPool:
    """Left-point discretization of the basis-integral variables along a path,
    or one pool per path of a batch.

    Row 0 is exact (plain basis integrals); rows i >= 1 are the Ito sums
    sum_l phi_j(tau_l) dW_l.  The grid must contain all basis jump points.
    """
    if jmax < 0:
        raise DomainError("jmax must be >= 0")
    if path.N * (jmax + 1) > MAX_GRID_ENTRIES:
        raise CapacityError(f"simulation grid would hold {path.N * (jmax + 1)} basis "
                            f"values > cap {MAX_GRID_ENTRIES}")
    phi, row0 = _grid_plan(basis, path.iv, path.N, jmax)
    values = np.empty(path.increments.shape[:-2] + (path.m + 1, jmax + 1))
    values[..., 0, :] = row0
    values[..., 1:, :] = path.increments @ phi.T
    values.setflags(write=False)
    return GaussianPool(iv=path.iv, basis=basis, m=path.m, jmax=jmax, values=values)


def path_iterated_integral(spec: IntegralSpec, path: WienerPath):
    """Ordered grid sum approximating the iterated integral along the path:
    a float, or a (B,) array for a batch of paths.

    Computes sum over l_k > ... > l_1 of prod psi_l(tau_{l_l}) dW^{(i_l)}
    by cumulative prefix recursion in O(k N); time components use dt in
    place of the Wiener increment.
    """
    if spec.iv != path.iv:
        raise CompatibilityError("spec and path are on different intervals")
    if spec.max_index > path.m:
        raise CompatibilityError(
            f"spec uses component {spec.max_index} but path has m = {path.m}")
    iv = spec.iv
    left = iv.t + np.arange(path.N) * path.dt
    batch = path.increments.shape[:-2]
    running = None
    for level in range(spec.k):
        i_l = spec.indices[level]
        dw = (np.full(batch + (path.N,), path.dt) if i_l == 0
              else path.increments[..., i_l - 1, :])
        factor = np.asarray(eval_weight(spec.weights[level], left, iv)) * dw
        if running is None:
            running = factor
        else:
            prefix = np.empty(running.shape)
            prefix[..., 0] = 0.0
            np.cumsum(running[..., :-1], axis=-1, out=prefix[..., 1:])
            running = factor * prefix
    return np.sum(running, axis=-1) if batch else float(np.sum(running))

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

from . import errors
from .basis import BasisSystem, Interval, basis_matrix, jump_depth
from .errors import CompatibilityError, DomainError, GridCompatibilityError, read_int
from .kernel import IntegralSpec, eval_weight

_POOL_DOMAIN = 0
_PATH_DOMAIN = 1
_SUBSEED_DOMAIN = 2
# Seeds and path indices are integers in [0, MAX_SEED]: 64 bits of entropy
MAX_SEED = 2**64 - 1


def _stream(seed: int, domain: int, index: int) -> Generator:
    return Generator(Philox(SeedSequence(seed, spawn_key=(domain, index))))


def path_seed(seed: int, path_index: int) -> int:
    """Derive an independent per-path seed from a master seed."""
    ss = SeedSequence(read_int("seed", seed, 0, MAX_SEED),
                      spawn_key=(_SUBSEED_DOMAIN, read_int("path_index", path_index, 0, MAX_SEED)))
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
        object.__setattr__(self, "m", read_int("m", self.m, 1, errors.MAX_ENTRIES))
        object.__setattr__(self, "jmax", read_int("jmax", self.jmax, 0, errors.MAX_ENTRIES))
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
        object.__setattr__(self, "m", read_int("m", self.m, 1, errors.MAX_ENTRIES))
        object.__setattr__(self, "N", read_int("N", self.N, 1, errors.MAX_ENTRIES))
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
    m, jmax = read_int("m", m, lo=1), read_int("jmax", jmax, lo=0)
    seed = read_int("seed", seed, 0, MAX_SEED)
    errors.require_fits("pool", (m + 1) * (jmax + 1), "entries ((m + 1) (jmax + 1))")
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
    m, N = read_int("m", m, lo=1), read_int("N", N, lo=1)
    single = np.ndim(seed) == 0
    seeds = [read_int("seed", s, 0, MAX_SEED) for s in ([seed] if single else seed)]
    errors.require_fits("paths", len(seeds) * m * N, "increments (m N per path)")
    increments = np.empty((len(seeds), m, N))
    for b, path_key in enumerate(seeds):
        for i in range(1, m + 1):
            _stream(path_key, _PATH_DOMAIN, i).standard_normal(out=increments[b, i - 1])
    increments *= math.sqrt(iv.length / N)
    increments.setflags(write=False)
    return WienerPath(iv=iv, m=m, N=N, increments=increments[0] if single else increments)


@lru_cache(maxsize=1)
def _grid_plan(basis: BasisSystem, iv: Interval, n_steps: int,
               jmax: int) -> tuple[np.ndarray, np.ndarray]:
    """Basis rows at the left grid points and the exact row 0, both fixed for
    a whole run (only the latest plan is kept: one may hold errors.MAX_ENTRIES
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
    jmax = read_int("jmax", jmax, lo=0)
    errors.require_fits("simulation grid", path.N * (jmax + 1), "basis values (N (jmax + 1))")
    phi, row0 = _grid_plan(basis, path.iv, path.N, jmax)
    values = np.empty(path.increments.shape[:-2] + (path.m + 1, jmax + 1))
    values[..., 0, :] = row0
    values[..., 1:, :] = path.increments @ phi.T
    values.setflags(write=False)
    return GaussianPool(iv=path.iv, basis=basis, m=path.m, jmax=jmax, values=values)


def _work_array(work: list, shape: tuple, busy) -> np.ndarray:
    """A work array of the given shape that is not busy, made on first need;
    work never holds more than two."""
    for arr in work:
        if arr is not busy:
            return arr
    work.append(np.empty(shape))
    return work[-1]


def path_iterated_integral(spec: IntegralSpec, path: WienerPath):
    """Ordered grid sum approximating the iterated integral along the path:
    a float, or a (B,) array for a batch of paths.

    Computes sum over l_k > ... > l_1 of prod psi_l(tau_{l_l}) dW^{(i_l)}
    by cumulative prefix recursion in O(k N); time components use dt in
    place of the Wiener increment.  Each level forms (psi dW) * prefix, the
    same floating-point operations as building every factor in full, but a
    unit weight is neither evaluated nor multiplied (1.0 * x is exact), a
    time component multiplies by the scalar dt, and a non-unit weight is
    evaluated once on the left grid: no batch-sized factor array is made
    for a unit weight or a time component, and a call uses at most two
    batch-sized work arrays.  A first-level unit-weight Wiener factor is the
    increment row itself.
    """
    if spec.iv != path.iv:
        raise CompatibilityError("spec and path are on different intervals")
    if spec.max_index > path.m:
        raise CompatibilityError(
            f"spec uses component {spec.max_index} but path has m = {path.m}")
    iv, dt = spec.iv, path.dt
    shape = path.increments.shape[:-2] + (path.N,)
    left = None
    work: list[np.ndarray] = []
    running = None
    for i_l, w in zip(spec.indices, spec.weights):
        if w.coeffs == (1.0,):
            weight = None  # 1.0 * x is exact: nothing to evaluate or multiply
        else:
            if left is None:
                left = iv.t + np.arange(path.N) * dt
            weight = eval_weight(w, left, iv)
        dw = dt if i_l == 0 else path.increments[..., i_l - 1, :]
        prefix = None
        if running is not None:
            prefix = _work_array(work, shape, running)
            prefix[..., 0] = 0.0
            np.cumsum(running[..., :-1], axis=-1, out=prefix[..., 1:])
        if weight is not None and i_l > 0:
            # psi dW needs an array of its own; the prefix product goes into it
            running = np.multiply(weight, dw, out=_work_array(work, shape, prefix))
            if prefix is not None:
                np.multiply(running, prefix, out=running)
        else:
            factor = dw if weight is None else weight * dt
            if prefix is not None:
                running = np.multiply(prefix, factor, out=prefix)
            elif i_l > 0:
                running = dw
            else:
                running = _work_array(work, shape, None)
                running[...] = factor
    return np.sum(running, axis=-1) if shape[:-1] else float(np.sum(running))

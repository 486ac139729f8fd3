"""Seeded Gaussian pools, Wiener paths, and the discretized pathwise oracle.

All randomness is counter-derived: every stream is Philox at counter 0 under
the key of SeedSequence(seed, spawn_key=(domain, index)), so any entry
depends only on the seed and its own coordinates.  From FEW_STREAMS on, the
keys are numpy's SeedSequence hash computed over arrays of seeds and indices;
one Philox per call is re-keyed for each stream.  Pools can be enlarged and
paths generated in any order or grouping without perturbing existing values,
and identical seeds give bit-identical results.  Paths, pools and the oracle
take an optional leading batch axis, so one call handles a chunk of paths
through the same code as one path.
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
# numpy's SeedSequence hashes a pool of four uint32 words with a running
# constant that steps the same way for any data, so the constants are fixed:
# _HASH_A for the 28 calls on up to 7 entropy words, _HASH_B for 4 state words
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
# Below this many streams a SeedSequence per stream beats the array hash
FEW_STREAMS = 8


def _hash_constants(init: int, mult: int, calls: int) -> np.ndarray:
    """Rows: what each hash call xors with, and what it multiplies by."""
    seq = np.cumprod(np.array([init] + [mult] * calls, np.uint32), dtype=np.uint32)
    return np.array([seq[:-1], seq[1:]])


_HASH_A = _hash_constants(0x43B0D7E5, 0x931E8875, 28)
_HASH_B = _hash_constants(0x8B51F9DD, 0x58F38DED, 4)


def _hashmix(value: np.ndarray, calls: slice, consts: np.ndarray = _HASH_A) -> np.ndarray:
    value = (value ^ consts[0, calls]) * consts[1, calls]
    return value ^ (value >> np.uint32(16))


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = _MIX_L * x - _MIX_R * y
    return out ^ (out >> np.uint32(16))


def _spawn_state(seeds, domain: int, indices, words: int) -> np.ndarray:
    """SeedSequence(seed, spawn_key=(domain, index)).generate_state(words,
    np.uint64) for seeds and indices in [0, MAX_SEED] broadcast together (at
    least 1-d): shape (..., words).  The entropy words are the seed's low and
    high word, two zeros, the domain, the index's low word and, for an index
    of 2**32 or more, its high word.  The pool is the last axis."""
    seeds = np.atleast_1d(np.asarray(seeds, np.uint64))
    indices = np.atleast_1d(np.asarray(indices, np.uint64))
    pairs = np.broadcast(seeds, indices)
    if pairs.size < FEW_STREAMS:
        state = [SeedSequence(int(s), spawn_key=(domain, int(i))).generate_state(words, np.uint64)
                 for s, i in pairs]
        return np.array(state, np.uint64).reshape(pairs.shape + (words,))
    pool = np.zeros(seeds.shape + (4,), np.uint32)
    pool[..., 0], pool[..., 1] = seeds, seeds >> np.uint64(32)
    pool = _hashmix(pool, slice(0, 4))
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        calls = slice(4 + 3 * src, 7 + 3 * src)
        pool[..., dst] = _mix(pool[..., dst], _hashmix(pool[..., src, None], calls))
    pool = _mix(pool, _hashmix(np.full(1, domain, np.uint32), slice(16, 20)))
    pool = _mix(pool, _hashmix(indices.astype(np.uint32)[..., None], slice(20, 24)))
    high = (indices >> np.uint64(32)).astype(np.uint32)[..., None]
    if high.any():  # only these entropies have the extra word
        pool = np.where(high != 0, _mix(pool, _hashmix(high, slice(24, 28))), pool)
    state = _hashmix(pool[..., :2 * words], slice(0, 2 * words), _HASH_B).astype(np.uint64)
    return state[..., 0::2] | (state[..., 1::2] << np.uint64(32))


def _normals(keys: np.ndarray, n: int) -> np.ndarray:
    """n standard normals from the Philox stream of each 128-bit key (the
    last axis, two uint64 words) at counter 0: shape keys.shape[:-1] + (n,).
    One Philox is reset to counter 0 and re-keyed for each stream."""
    out = np.empty(keys.shape[:-1] + (n,))
    bit_gen = Philox(seed=0)  # a fixed seed: Philox(key=0) hashes OS entropy
    gen, state = Generator(bit_gen), bit_gen.state
    for key, row in zip(keys.reshape(-1, 2).tolist(), out.reshape(-1, n)):
        state["state"]["key"] = key
        bit_gen.state = state
        gen.standard_normal(out=row)
    return out


def _component_keys(path_seeds: np.ndarray, m: int) -> np.ndarray:
    """Stream keys, shape (B, m, 2), of components 1..m of the paths whose
    seeds are the uint64 column path_seeds (B, 1)."""
    return _spawn_state(path_seeds, _PATH_DOMAIN, np.arange(1, m + 1, dtype=np.uint64), 2)


def _run_keys(seed: int, start: int, stop: int, m: int) -> np.ndarray:
    """Stream keys of components 1..m of paths start..stop-1 of the run of
    seed; path i has seed path_seed(seed, i)."""
    indices = np.arange(start, stop, dtype=np.uint64)
    return _component_keys(_spawn_state(seed, _SUBSEED_DOMAIN, indices, 1), m)


def path_seed(seed: int, path_index: int) -> int:
    """Derive an independent per-path seed from a master seed."""
    return int(_spawn_state(read_int("seed", seed, 0, MAX_SEED), _SUBSEED_DOMAIN,
                            read_int("path_index", path_index, 0, MAX_SEED), 1)[0, 0])


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
    keys = _spawn_state(seed, _POOL_DOMAIN, np.arange(1, m + 1, dtype=np.uint64), 2)
    values[1:] = _normals(keys, jmax + 1)
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
    keys = _component_keys(np.array(seeds, np.uint64).reshape(-1, 1), m)
    return _wiener_path(iv, N, keys[0] if single else keys)


def _wiener_path(iv: Interval, N: int, keys: np.ndarray) -> WienerPath:
    """The path, or batch of paths, whose component streams have these keys
    (shape (m, 2) or (B, m, 2))."""
    increments = _normals(keys, N)
    increments *= math.sqrt(iv.length / N)
    increments.setflags(write=False)
    return WienerPath(iv=iv, m=keys.shape[-2], N=N, increments=increments)


@lru_cache(maxsize=1)
def _grid_plan(basis: BasisSystem, iv: Interval, n_steps: int,
               jmax: int) -> tuple[np.ndarray, int, np.ndarray]:
    """Basis rows on the cells of the grid (a step at its left point; for
    Haar and Walsh a dyadic cell at its midpoint, which rounding keeps on the
    cell), the steps per cell and the exact row 0, all fixed for a whole run
    (only the latest plan is kept: one may hold errors.MAX_ENTRIES values).
    Raises (and so caches nothing) if a basis jump is off the grid:
    the jumps are the multiples of (T - t) / 2**D that include (T - t) / 2**D
    itself, so all lie on the grid exactly when 2**D divides N."""
    depth = jump_depth(basis, jmax)
    if n_steps % 2**depth:
        raise GridCompatibilityError(
            f"{basis.value} basis up to index {jmax} jumps on the 2**{depth} grid; "
            f"N={n_steps} is not a multiple of 2**{depth}")
    dyadic = basis in (BasisSystem.HAAR, BasisSystem.WALSH)
    cells = 2**depth if dyadic else n_steps
    points = iv.t + (np.arange(cells) + (0.5 if dyadic else 0.0)) * (iv.length / cells)
    phi = basis_matrix(basis, jmax, points, iv)
    row0 = _time_row(iv, jmax)
    phi.setflags(write=False)
    row0.setflags(write=False)
    return phi, n_steps // cells, row0


def zeta_from_path(path: WienerPath, basis: BasisSystem, jmax: int) -> GaussianPool:
    """Left-point discretization of the basis-integral variables along a path,
    or one pool per path of a batch.

    Row 0 is exact (plain basis integrals); rows i >= 1 are the Ito sums
    sum_l phi_j(tau_l) dW_l, summed by cell; the grid holds all basis jumps.
    """
    jmax = read_int("jmax", jmax, lo=0)
    errors.require_fits("simulation grid", path.N * (jmax + 1), "basis values (N (jmax + 1))")
    phi, cell, row0 = _grid_plan(basis, path.iv, path.N, jmax)
    dw = path.increments
    dw = dw.reshape(dw.shape[:-1] + (-1, cell)).sum(axis=-1) if cell > 1 else dw
    values = np.empty(path.increments.shape[:-2] + (path.m + 1, jmax + 1))
    values[..., 0, :] = row0
    values[..., 1:, :] = dw @ phi.T
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

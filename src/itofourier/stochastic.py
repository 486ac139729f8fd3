"""Seeded Gaussian pools, Wiener paths, and the discretized pathwise oracle.

All randomness is counter-based: the stream (seed, domain, index) is Philox
at counter 0 under the 128-bit key whose low word is the seed and whose high
word is domain * 2**62 + index, so any entry depends only on the seed and its
own coordinates, and nothing is hashed.  Philox streams under distinct keys
are independent.  Domain 0 holds pool rows and domain 1 path components,
with the component 1..m as the index; the per-path seeds of a run are the
64-bit words of the run seed's domain-2 stream (index 0), word i for path i,
four to a counter block, and brownian_path is the one constructor of a path
or a batch of paths from their seeds.  Each thread keeps one Philox,
re-keyed for each stream it fills and each read of the seed stream.  A
call fills its streams on the calling thread; a run (run_paths) fills each
chunk's streams whole on one thread, its own or its worker (see _Fill), and
passes them to its own brownian_path calls.  Pools can be enlarged and
paths generated in any order or grouping without perturbing existing
values, and identical seeds give bit-identical results.
Paths, pools and the oracle take an optional leading batch axis, so one
call handles a chunk of paths through the same code as one path.
"""
from __future__ import annotations

import math
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.random import Generator, Philox

from . import errors
from .basis import BasisSystem, Interval, basis_matrix, jump_depth
from .errors import CompatibilityError, DomainError, GridCompatibilityError, read_int
from .kernel import IntegralSpec, eval_weight

_POOL_DOMAIN, _PATH_DOMAIN, _SEED_DOMAIN = 0, 1, 2
# Seeds and path indices are integers in [0, MAX_SEED]: 64 bits of entropy
MAX_SEED = 2**64 - 1
# Normals budget of one chunk of a run's paths: 2**16 is 8 paths at m = 2,
# N = 4096, about 1.3 MB of increments, pools and oracle working set
CHUNK_NORMALS = 2**16
# Chunks a run's fill reads ahead: at N = 4096, three 8-path chunks, 1.5 MB;
# one where a chunk, of one path, has more than CHUNK_NORMALS normals
AHEAD = 3
# A caller with no chunk left to claim waits this many times the fill's mean
# time per chunk for the one the worker holds: a worker on a CPU as fast as
# the caller's finishes the one it holds within one
GRACE_CHUNKS = 2


def _keys(seeds, domain: int, indices) -> np.ndarray:
    """Philox keys, shape (..., 2), of the streams (seed, domain, index) for
    seeds and indices below 2**62 broadcast together: the seed, then
    domain * 2**62 + index."""
    seeds = np.asarray(seeds, np.uint64)
    high = np.asarray(indices, np.uint64) | np.uint64(domain << 62)
    keys = np.empty(np.broadcast_shapes(seeds.shape, high.shape) + (2,), np.uint64)
    keys[..., 0], keys[..., 1] = seeds, high
    return keys


_local = threading.local()


def _philox() -> tuple[Philox, Generator, dict]:
    """This thread's Philox, built on its first call, a Generator on it and
    its state at counter 0 with an empty buffer, which each stream re-keys."""
    if not hasattr(_local, "philox"):
        bit_gen = Philox(seed=0)  # a fixed seed: Philox(key=0) hashes OS entropy
        _local.philox = bit_gen, Generator(bit_gen), bit_gen.state
    return _local.philox


def _fill(streams) -> None:
    """Fill each row of the (key, row) pairs of streams with the normals of
    the Philox stream of key at counter 0, on this thread's Philox re-keyed."""
    bit_gen, gen, state = _philox()
    for key, row in streams:
        state["state"]["key"] = key
        bit_gen.state = state
        gen.standard_normal(out=row)


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class _Fill:
    """The normals, n to a stream, of a run's chunks, an iterator of
    (start, keys of the chunk's streams), each chunk filled whole by one
    thread and handed out by take, on the thread that opened the fill, in
    the order the chunks are filled.  Its worker, if it has one (a daemon
    thread, so none left by a failed opening holds the process open; numpy's
    fill releases the GIL), claims and fills the next chunk while fewer than
    ahead are filled and waiting, so it fills while the caller works."""

    def __init__(self, chunks, n: int, worker: bool, ahead: int):
        self.chunks, self.n, self.ahead, self.cond = chunks, n, ahead, threading.Condition()
        self.ready, self.held, self.spent, self.filled, self.error = [], None, 0.0, 0, None
        self.worker = threading.Thread(target=self._work, name="itofourier-normals",
                                       daemon=True) if worker else None
        if self.worker:
            self.worker.start()

    def _rows(self, keys: np.ndarray) -> np.ndarray:
        """The rows of the streams of keys, filled on this thread, timed."""
        keys, start = keys.reshape(-1, 2), time.perf_counter()
        rows = np.empty((len(keys), self.n))
        _fill(zip(keys.tolist(), rows))
        with self.cond:
            self.spent += time.perf_counter() - start
            self.filled += 1
        return rows

    def _work(self) -> None:
        """The worker: claim, fill and hand on chunks, until none is left."""
        try:
            while True:
                with self.cond:
                    self.cond.wait_for(lambda: len(self.ready) < self.ahead)
                    if not (claim := next(self.chunks, None)):
                        return
                    self.held = claim
                rows = self._rows(claim[1])
                with self.cond:
                    if self.held is claim:  # not taken over
                        self.held = None
                        self.ready.append((claim[0], rows))
                        self.cond.notify_all()
        except BaseException as exc:
            self.error = exc

    def take(self):
        """The next chunk, (start, rows), None once every chunk has been
        handed out, or the worker's error.  The chunk is one filled and
        waiting, else the next not yet claimed, filled here, else, after a
        wait of GRACE_CHUNKS times the fill's mean time per chunk, the one
        the worker still holds (its CPU taken by another process or the
        host), taken over and filled here into rows of its own: no rows are
        handed out twice, so the worker's late rows reach no one."""
        with self.cond:
            claim = None if self.ready else next(self.chunks, None)
            # the worker holds fewer chunks than there are, so one was filled
            if not (claim or self.cond.wait_for(lambda: self.ready or self.held is None,
                                                GRACE_CHUNKS * self.spent / self.filled)):
                claim, self.held = self.held, None
            chunk = self.ready.pop(0) if self.ready else None
            self.cond.notify_all()  # the worker may claim in the room made
        if claim:
            chunk = claim[0], self._rows(claim[1])
        self.check()
        return chunk

    def check(self) -> None:
        """Raise the worker's error, if it has failed."""
        if self.error is not None:
            raise self.error

    def close(self) -> None:
        """Stop the worker and wait for its thread to end: it stops after
        the chunk it holds, whose rows no one takes."""
        with self.cond:
            self.chunks, self.ready, self.held = iter(()), [], None
            self.cond.notify_all()
        if self.worker:
            self.worker.join()


def _path_seeds(seed: int, start: int, stop: int) -> np.ndarray:
    """The seeds of paths start..stop-1 of the run of seed, a uint64 vector:
    words start..stop-1 of the run's seed stream, read four to a counter
    block on this thread's Philox from block start // 4."""
    bit_gen, _, state = _philox()
    block, skip = divmod(start, 4)
    bit_gen.state = {**state, "state": {"counter": np.array([block, 0, 0, 0], np.uint64),
                                        "key": _keys(seed, _SEED_DOMAIN, 0)}}
    return bit_gen.random_raw(skip + stop - start)[skip:]


def path_seed(seed: int, path_index: int) -> int:
    """The seed of path path_index of the run of seed: word path_index of
    the run's seed stream."""
    seed = read_int("seed", seed, 0, MAX_SEED)
    path_index = read_int("path_index", path_index, 0, MAX_SEED)
    return int(_path_seeds(seed, path_index, path_index + 1)[0])


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
    keys = _keys(seed, _POOL_DOMAIN, np.arange(1, m + 1, dtype=np.uint64))
    _fill(zip(keys.tolist(), values[1:]))
    values.setflags(write=False)
    return GaussianPool(iv=iv, basis=basis, m=m, jmax=jmax, values=values)


def brownian_path(iv: Interval, m: int, N: int, seed, *, _rows=None) -> WienerPath:
    """Uniform-grid Wiener increments, Normal(0, (T-t)/N) i.i.d. per entry.

    Component rows come from per-component streams, so entry (i, l) depends
    only on (seed, i, l).  A sequence of seeds gives a batch whose row b is
    bit-identical to the path of seeds[b].  _rows is run_paths' own: the
    normals of these seeds' streams, filled by the run's fill.
    """
    m, N = read_int("m", m, lo=1), read_int("N", N, lo=1)
    single = np.ndim(seed) == 0
    seeds = [read_int("seed", s, 0, MAX_SEED) for s in ([seed] if single else seed)]
    errors.require_fits("paths", len(seeds) * m * N, "increments (m N per path)")
    increments = _rows
    if increments is None:
        keys = _keys(np.array(seeds, np.uint64)[:, None], _PATH_DOMAIN,
                     np.arange(1, m + 1, dtype=np.uint64))
        increments = np.empty((len(seeds) * m, N))
        _fill(zip(keys.reshape(-1, 2).tolist(), increments))
    increments = increments.reshape((m, N) if single else (len(seeds), m, N))
    increments *= math.sqrt(iv.length / N)
    increments.setflags(write=False)
    return WienerPath(iv=iv, m=m, N=N, increments=increments)


@contextmanager
def run_paths(iv: Interval, m: int, N: int, seed: int, n_paths: int, width: int = 1):
    """The paths 0..n_paths-1 of the run of seed, in chunks of
    max(1, min(CHUNK_NORMALS // (m N), errors.MAX_ENTRIES // width)) paths,
    width the entries per path of the consumer's widest batch array: an
    iterator of (the index of the chunk's first path, the chunk's batch of
    paths), each drawn by brownian_path from its slice of the per-path
    seeds, read once, as the block is entered.  The chunks come in the
    order the run's fill (see _Fill) hands them out, which varies between
    runs of the same seed, so a consumer places each by its index.  The
    fill reads up to AHEAD chunks ahead of the calling thread (one where a
    chunk has more than CHUNK_NORMALS normals), and starts one worker if
    the process may use more than one CPU and the run has more than one
    chunk.  The worker's error is raised with the next chunk or as the
    block exits, and the worker does not outlive the block."""
    m, N, seed = read_int("m", m, lo=1), read_int("N", N, lo=1), read_int("seed", seed, 0, MAX_SEED)
    errors.require_fits("paths", m * N, "increments (m N per path)")
    n_paths, width = read_int("n_paths", n_paths, lo=1), read_int("width", width, lo=1)
    errors.require_fits("the run of n_paths", n_paths, "paths")
    chunk = max(1, min(CHUNK_NORMALS // (m * N), errors.MAX_ENTRIES // width))
    seeds, starts = _path_seeds(seed, 0, n_paths), range(0, n_paths, chunk)
    components = np.arange(1, m + 1, dtype=np.uint64)
    ahead = AHEAD if m * N <= CHUNK_NORMALS else 1
    fill = _Fill(((i, _keys(seeds[i:i + chunk, None], _PATH_DOMAIN, components)) for i in starts),
                 N, _cpus() > 1 and len(starts) > 1, ahead)
    try:
        yield ((i, brownian_path(iv, m, N, seeds[i:i + chunk], _rows=rows))
               for i, rows in iter(fill.take, None))
    finally:
        fill.close()
    fill.check()  # not as an error leaves the block: that error wins


@lru_cache(maxsize=1)
def _grid_plan(basis: BasisSystem, iv: Interval, n_steps: int,
               jmax: int) -> tuple[np.ndarray, int]:
    """Basis rows on the cells of the grid (a step at its left point; for
    Haar and Walsh a dyadic cell at its midpoint, which rounding keeps on the
    cell) and the steps per cell, fixed for a whole run (only the latest plan
    is kept: one may hold errors.MAX_ENTRIES values).
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
    phi.setflags(write=False)
    return phi, n_steps // cells


def zeta_from_path(path: WienerPath, basis: BasisSystem, jmax: int) -> GaussianPool:
    """Left-point discretization of the basis-integral variables along a path,
    or one pool per path of a batch.

    Row 0 is exact (plain basis integrals); rows i >= 1 are the Ito sums
    sum_l phi_j(tau_l) dW_l, summed by cell; the grid holds all basis jumps.
    """
    jmax = read_int("jmax", jmax, lo=0)
    shape = path.increments.shape[:-2] + (path.m + 1, jmax + 1)
    errors.require_fits("pool", math.prod(shape), "entries (B (m + 1) (jmax + 1))")
    phi, cell = _grid_plan(basis, path.iv, path.N, jmax)
    dw = path.increments
    dw = dw.reshape(dw.shape[:-1] + (-1, cell)).sum(axis=-1) if cell > 1 else dw
    values = np.empty(shape)
    values[..., 0, :] = _time_row(path.iv, jmax)
    np.matmul(dw, phi.T, out=values[..., 1:, :])
    values.setflags(write=False)
    return GaussianPool(iv=path.iv, basis=basis, m=path.m, jmax=jmax, values=values)


@lru_cache(maxsize=1)
def _left_weights(weights: tuple, iv: Interval, n_steps: int, bits: bytes) -> tuple:
    """Each weight on the left points of the n_steps-step grid of iv, or None
    for a unit weight, read-only and fixed for a whole run (only the latest
    are kept).  bits, those of iv and every coefficient, keep a hit exact
    where == does not: -0.0 == 0.0, but the weight (-0.0,) is -0.0."""
    left = iv.t + np.arange(n_steps) * (iv.length / n_steps)
    values = [None if w.coeffs == (1.0,) else eval_weight(w, left, iv) for w in weights]
    for value in values:
        if value is not None:
            value.setflags(write=False)
    return tuple(values)


def path_iterated_integral(spec: IntegralSpec, path: WienerPath):
    """Ordered grid sum approximating the iterated integral along the path:
    a float, or a (B,) array for a batch of paths.

    Computes sum over l_k > ... > l_1 of prod psi_l(tau_{l_l}) dW^{(i_l)}
    by cumulative prefix recursion in O(k N); time components use the scalar
    dt in place of the Wiener increment.  Level l multiplies its factor
    psi dW (dW itself for a unit weight, whose 1.0 * x is exact) into the
    exclusive prefix sum of level l - 1, in place; a non-unit weight is
    evaluated on the left grid once per run (see _left_weights).  Each level
    drops the previous level before it forms its factor, so a call holds at
    most two batch-sized arrays at once.
    """
    if spec.iv != path.iv:
        raise CompatibilityError("spec and path are on different intervals")
    if spec.max_index > path.m:
        raise CompatibilityError(
            f"spec uses component {spec.max_index} but path has m = {path.m}")
    iv, dt = spec.iv, path.dt
    shape = path.increments.shape[:-2] + (path.N,)
    bits = np.array([iv.t, iv.T, *(c for w in spec.weights for c in w.coeffs)]).tobytes()
    running = None
    for i_l, weight in zip(spec.indices, _left_weights(spec.weights, iv, path.N, bits)):
        prefix = None
        if running is not None:
            prefix = np.empty(shape)
            prefix[..., 0] = 0.0
            np.cumsum(running[..., :-1], axis=-1, out=prefix[..., 1:])
            del running
        dw = dt if i_l == 0 else path.increments[..., i_l - 1, :]
        factor = dw if weight is None else weight * dw
        if prefix is not None:
            running = np.multiply(factor, prefix, out=prefix)
        else:
            running = np.full(shape, factor) if i_l == 0 else factor
        del factor
    return np.sum(running, axis=-1) if shape[:-1] else float(np.sum(running))

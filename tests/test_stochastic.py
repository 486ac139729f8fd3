import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from numpy.random import Philox
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import itofourier.basis

from itofourier import errors, stochastic, validation
from itofourier.basis import (LEGENDRE_MAX_DEGREE, BasisSystem, Interval, basis_matrix,
                              breakpoints, eval_basis, integrate_basis, jump_depth)
from itofourier.coefficients import coefficient_tensor
from itofourier.errors import (CapacityError, CompatibilityError, DomainError,
                               GridCompatibilityError)
from itofourier.kernel import IntegralSpec, Weight, constant_spec, eval_weight
from itofourier.stochastic import (MAX_SEED, WienerPath, brownian_path, gaussian_pool,
                                   path_iterated_integral, path_seed, zeta_from_path)
from itofourier.validation import sample_differences

from oracles import (brownian_path_reference, gaussian_pool_reference, grid_sum_reference, jumps,
                     key, path_seed_reference, sample_differences_reference, stream)

UNIT = Interval(0.0, 1.0)


def _rows(keys: np.ndarray, n: int) -> np.ndarray:
    """The rows stochastic._fill writes for a (streams, 2) array of keys, n
    normals to a row."""
    rows = np.empty((len(keys), n))
    stochastic._fill(zip(keys.tolist(), rows))
    return rows


def _opened_fills(monkeypatch) -> list:
    """Every fill a run opens from now on, kept as the run opens it."""
    fills, fill = [], stochastic._Fill
    monkeypatch.setattr(stochastic, "_Fill", lambda *a: fills.append(fill(*a)) or fills[-1])
    return fills


def _fill_threads() -> list[str]:
    """The names of the live threads of any fill."""
    return [t.name for t in threading.enumerate() if t.name.startswith("itofourier-normals")]


def _assert_run_is_the_reference(chunks, seed: int, paths: int, chunk: int,
                                 n_steps: int = 4096) -> None:
    """chunks, the (start, path) pairs a run of paths paths at m = 2 handed
    out, chunk paths at a time: every chunk once, in any order, each with
    the bits of the per-stream reference."""
    assert sorted(start for start, _ in chunks) == list(range(0, paths, chunk))
    drawn = np.concatenate([path.increments for _, path in sorted(chunks, key=lambda c: c[0])])
    want = brownian_path_reference(UNIT, 2, n_steps, [path_seed(seed, i) for i in range(paths)])
    assert drawn.tobytes() == want.tobytes()


class TestGaussianPool:
    def test_deterministic_and_enlargeable(self):
        a = gaussian_pool(UNIT, BasisSystem.LEGENDRE, 2, 5, seed=42)
        b = gaussian_pool(UNIT, BasisSystem.LEGENDRE, 2, 5, seed=42)
        assert np.array_equal(a.values, b.values)
        wider = gaussian_pool(UNIT, BasisSystem.LEGENDRE, 3, 9, seed=42)
        assert np.array_equal(wider.values[:3, :6], a.values)
        other = gaussian_pool(UNIT, BasisSystem.LEGENDRE, 2, 5, seed=43)
        assert not np.array_equal(other.values, a.values)

    def test_deterministic_row_zero(self):
        for basis in BasisSystem:
            pool = gaussian_pool(UNIT, basis, 1, 4, seed=0)
            expected = [integrate_basis(basis, j, UNIT) for j in range(5)]
            np.testing.assert_array_equal(pool.values[0], expected)

    def test_row_zero_legendre(self):
        pool = gaussian_pool(UNIT, BasisSystem.LEGENDRE, 1, 2, seed=1)
        np.testing.assert_allclose(pool.values[0], [1.0, 0.0, 0.0], atol=0)

    def test_covariance_is_identity_indicator(self):
        n_seeds = 100_000
        m, jmax = 2, 2
        draws = np.empty((n_seeds, m, jmax + 1))
        for seed in range(n_seeds):
            draws[seed] = gaussian_pool(UNIT, BasisSystem.LEGENDRE, m, jmax, seed).values[1:]
        flat = draws.reshape(n_seeds, -1)
        cov = flat.T @ flat / n_seeds
        se = 3.0 / math.sqrt(n_seeds)
        for a in range(flat.shape[1]):
            for b in range(flat.shape[1]):
                target = 1.0 if a == b else 0.0
                tol = 3.0 * math.sqrt(2.0 / n_seeds) if a == b else se
                assert abs(cov[a, b] - target) <= tol

    def test_validation(self):
        with pytest.raises(DomainError):
            gaussian_pool(UNIT, BasisSystem.LEGENDRE, 0, 3, seed=1)
        with pytest.raises(DomainError):
            gaussian_pool(UNIT, BasisSystem.LEGENDRE, 1, -1, seed=1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("shape, at", [((3, 4), (1, 2)), ((5, 3, 4), (2, 1, 3))])
    def test_any_non_finite_entry_is_refused(self, bad, shape, at):
        # one bad entry between finite ones, of one pool or a batch (an
        # empty batch is test_expansion's B = 0 case)
        values = np.ones(shape)
        values[at] = bad
        with pytest.raises(DomainError, match="pool contains non-finite entries"):
            stochastic.GaussianPool(iv=UNIT, basis=BasisSystem.LEGENDRE, m=2, jmax=3,
                                    values=values)


class TestBrownianPath:
    def test_deterministic(self):
        a = brownian_path(UNIT, 2, 64, seed=7)
        b = brownian_path(UNIT, 2, 64, seed=7)
        assert np.array_equal(a.increments, b.increments)
        assert a.dt == pytest.approx(1.0 / 64.0)

    def test_single_step_variance(self):
        n_seeds = 100_000
        draws = np.array([brownian_path(UNIT, 1, 1, seed=s).increments[0, 0]
                          for s in range(n_seeds)])
        # Var = T - t = 1; sample variance within 3 standard errors
        var = float(np.var(draws))
        assert abs(var - 1.0) <= 3.0 * math.sqrt(2.0 / n_seeds)
        assert abs(float(np.mean(draws))) <= 3.0 / math.sqrt(n_seeds)

    def test_components_uncorrelated(self):
        rows = brownian_path(UNIT, 2, 20_000, seed=11).increments
        corr = float(np.corrcoef(rows[0], rows[1])[0, 1])
        assert abs(corr) <= 3.0 / math.sqrt(20_000)

    def test_path_seed_derivation(self):
        assert path_seed(5, 0) != path_seed(5, 1)
        assert path_seed(5, 3) == path_seed(5, 3)


    def test_increments_are_capped_before_they_are_drawn(self, monkeypatch):
        monkeypatch.setattr(errors, "MAX_ENTRIES", 1000)
        with pytest.raises(CapacityError, match="cap 1000"):
            brownian_path(UNIT, 2, 501, seed=1)
        with pytest.raises(CapacityError):
            brownian_path(UNIT, 1, 100, [path_seed(1, i) for i in range(11)])
        assert brownian_path(UNIT, 2, 500, seed=1).increments.shape == (2, 500)


# The word edges of a 64-bit seed: one word, two words, all ones
_EDGES = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]
_WORD64 = st.sampled_from(_EDGES) | st.integers(0, 2**64 - 1)
# Stream indices take the 62 bits below the domain
_INDEX = st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**62 - 1]) | st.integers(0, 2**62 - 1)


def _words(k: int) -> list[int]:
    """A 128-bit key as Philox's state holds it: low word, high word."""
    return [k & MAX_SEED, k >> 64]


class TestStreamKeys:
    """Keys are the streams' coordinates, and streams from the re-keyed
    Philox and the seed stream are one Philox per stream, bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(seed=_WORD64, domain=st.integers(0, 2), index=_INDEX)
    def test_key_is_the_coordinate_layout(self, seed, domain, index):
        keys = stochastic._keys(seed, domain, index)
        assert keys.dtype == np.uint64 and keys.tolist() == _words(key(seed, domain, index))
        row = _rows(keys[None], 5)[0]
        assert np.array_equal(row, stream(seed, domain, index).standard_normal(5))

    @settings(max_examples=25, deadline=None)
    @given(seeds=st.lists(_WORD64, min_size=1, max_size=5),
           indices=st.lists(_INDEX, min_size=1, max_size=5), domain=st.integers(0, 2))
    def test_keys_of_a_grid_of_seeds_and_indices(self, seeds, indices, domain):
        # a column of seeds against a row of indices
        keys = stochastic._keys(np.array(seeds, np.uint64)[:, None], domain,
                                np.array(indices, np.uint64))
        assert keys.shape == (len(seeds), len(indices), 2)
        assert keys.tolist() == [[_words(key(s, domain, i)) for i in indices] for s in seeds]

    @pytest.mark.parametrize("seed", _EDGES + [20240809])
    def test_path_seed_is_the_reference(self, seed):
        # every word of a block, both words of a path index, the last index
        for index in [0, 1, 2, 3, 7, 2**32 - 1, 2**32, 2**64 - 4, 2**64 - 1]:
            assert path_seed(seed, index) == path_seed_reference(seed, index)

    @settings(max_examples=200, deadline=None)
    @given(seed=_WORD64, start=st.sampled_from([0, 1, 2, 3, 4, 2**32 - 1, MAX_SEED - 8])
           | st.integers(0, MAX_SEED), offset=st.integers(0, 3), size=st.integers(0, 9))
    def test_path_seeds_are_the_reference(self, seed, start, offset, size):
        # a range from any word of a block, empty ranges, and ranges that
        # end at the last path index
        a = min(start + offset, MAX_SEED + 1)
        b = min(a + size, MAX_SEED + 1)
        seeds = stochastic._path_seeds(seed, a, b)
        assert seeds.dtype == np.uint64
        assert seeds.tolist() == [path_seed_reference(seed, i) for i in range(a, b)]

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 9, 100, 4096, 4097])
    def test_rows_are_fresh_philox_streams(self, n):
        # every row after the first starts at counter 0 with an empty buffer
        coords = [(3, 1, 1), (3, 1, 2), (2**64 - 1, 0, 5), (3, 1, 1)]
        keys = np.array([_words(key(*coord)) for coord in coords], np.uint64)
        rows = _rows(keys, n)
        for row, coord in zip(rows, coords):
            assert np.array_equal(row, stream(*coord).standard_normal(n))

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_one_philox_per_thread(self, cpus, monkeypatch):
        # a call outside a run fills on the calling thread; a run also on its
        # one worker where the process may use more than one CPU, and on one
        # CPU on its fill with no worker.  Each thread builds one Philox on
        # its first fill and re-keys it for every later stream, and
        # path_seed borrows it
        built, fills = [], []
        monkeypatch.setattr(stochastic, "_local", threading.local(), raising=False)
        monkeypatch.setattr(stochastic, "Philox", lambda **kw: built.append(kw) or Philox(**kw))
        monkeypatch.setattr(stochastic, "_cpus", lambda: cpus)
        fill = stochastic._fill
        monkeypatch.setattr(stochastic, "_fill",
                            lambda *a: fills.append(threading.get_ident()) or fill(*a))
        brownian_path(UNIT, 3, 16, list(range(5)))
        gaussian_pool(UNIT, BasisSystem.LEGENDRE, 3, 4, seed=1)
        assert path_seed(5, 9) == path_seed_reference(5, 9)
        assert brownian_path(UNIT, 1, 9, seed=2).increments.tobytes() == \
            brownian_path_reference(UNIT, 1, 9, [2])[0].tobytes()
        assert len(built) == 1 and set(fills) == {threading.get_ident()}
        opened = _opened_fills(monkeypatch)
        # 24 paths at m = 2, N = 4096: three chunks of 16 streams each
        with stochastic.run_paths(UNIT, 2, 4096, 3, 24) as paths:
            drawn = list(paths)
        assert [run.worker is not None for run in opened] == [cpus > 1]
        assert len(built) == len(set(fills)) <= min(cpus, 2)
        _assert_run_is_the_reference(drawn, 3, 24, 8)

    def test_no_call_outside_a_run_uses_a_worker(self, monkeypatch):
        # on 4 CPUs, calls of many chunks' normals fill on the calling thread
        # alone, as small ones do, and start no thread
        monkeypatch.setattr(stochastic, "_cpus", lambda: 4)
        fills, fill = [], stochastic._fill
        monkeypatch.setattr(stochastic, "_fill",
                            lambda *a: fills.append(threading.get_ident()) or fill(*a))
        threads = threading.active_count()
        seeds = [path_seed(4, i) for i in range(64)]
        assert brownian_path(UNIT, 2, 4096, seeds).increments.tobytes() == \
            brownian_path_reference(UNIT, 2, 4096, seeds).tobytes()
        jmax = 2 * stochastic.CHUNK_NORMALS - 1
        assert gaussian_pool(UNIT, BasisSystem.LEGENDRE, 2, jmax, 9).values.tobytes() == \
            gaussian_pool_reference(UNIT, 2, jmax, 9).tobytes()
        gaussian_pool(UNIT, BasisSystem.LEGENDRE, 2, 31, seed=1)
        gaussian_pool(UNIT, BasisSystem.WALSH, 3, 1023, seed=2)
        brownian_path(UNIT, 1, 1, seed=3)
        brownian_path(UNIT, 2, 4096, seed=4)
        brownian_path(UNIT, 3, 16, list(range(5)))
        assert set(fills) == {threading.get_ident()}
        assert threading.active_count() == threads

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_brownian_path_is_the_reference(self, m):
        seeds = [0, 5, 2**32, 2**64 - 1, 5]
        batch = brownian_path(UNIT, m, 257, seeds)
        assert batch.increments.tobytes() == \
            brownian_path_reference(UNIT, m, 257, seeds).tobytes()
        iv = Interval(2.5, 7.5)
        single = brownian_path(iv, m, 64, seed=11)
        assert single.increments.tobytes() == brownian_path_reference(iv, m, 64, [11])[0].tobytes()

    @pytest.mark.parametrize("jmax", [0, 40])
    @pytest.mark.parametrize("m", [1, 3])
    def test_gaussian_pool_is_the_reference(self, m, jmax):
        for seed in (0, 7, 2**64 - 1):
            pool = gaussian_pool(UNIT, BasisSystem.LEGENDRE, m, jmax, seed)
            assert pool.values.tobytes() == gaussian_pool_reference(UNIT, m, jmax, seed).tobytes()


class TestRunFill:
    """One fill serves a whole run: one worker, started once where the
    process may use more than one CPU and the run has more than one chunk,
    claims and fills whole chunks while fewer than AHEAD are filled and
    waiting, one where a chunk has more than CHUNK_NORMALS normals; chunks
    are handed out in the order they are filled, and every chunk keeps the
    bits of the per-stream reference."""

    @staticmethod
    def _draw(monkeypatch, seed, paths, chunk):
        """The (start, path) pairs of the run of seed, paths paths at m = 2,
        N = 4096, drawn chunk paths at a time."""
        monkeypatch.setattr(stochastic, "CHUNK_NORMALS", chunk * 2 * 4096)
        with stochastic.run_paths(UNIT, 2, 4096, seed, paths) as chunks:
            return list(chunks)

    @pytest.mark.parametrize("cpus", [1, 2, 3, 6])
    @pytest.mark.parametrize("paths, chunk", [(10, 3), (10, 4), (12, 1), (6, 6), (7, 8)])
    def test_chunks_are_the_reference_paths(self, paths, chunk, cpus, monkeypatch):
        # one fill for the whole run, with one worker on more than one CPU
        # for more than one chunk; 10 paths in chunks of 3 and 4 end on a
        # short chunk, and a run of one chunk starts no worker
        monkeypatch.setattr(stochastic, "_cpus", lambda: cpus)
        opened = _opened_fills(monkeypatch)
        drawn = self._draw(monkeypatch, 5, paths, chunk)
        assert [run.worker is not None for run in opened] == [cpus > 1 and paths > chunk]
        _assert_run_is_the_reference(drawn, 5, paths, chunk)

    @pytest.mark.parametrize("paths, n_steps, cpus, workers", [
        (8, 4096, 2, 0),  # one chunk
        (16, 4096, 1, 0),  # one CPU
        (16, 4096, 2, 1),
        (16, 4096, 3, 1),
        (24, 4096, 3, 1),
        (100, 4096, 4, 1),
        (100, 4096, 8, 1),  # one worker on any number of CPUs
        (1000, 32, 2, 0),  # one chunk of 1000 paths
        (3, 2**15 + 1, 2, 1),  # one-path chunks over CHUNK_NORMALS
        (3, 2**15 + 1, 3, 1),  # read one chunk ahead
    ])
    def test_workers_follow_the_chunk_count_rule(self, paths, n_steps, cpus, workers,
                                                 monkeypatch):
        # every run opens one fill, with a worker thread or none
        monkeypatch.setattr(stochastic, "_cpus", lambda: cpus)
        opened = _opened_fills(monkeypatch)
        with stochastic.run_paths(UNIT, 2, n_steps, 4, paths) as chunks:
            drawn = list(chunks)
        [fill] = opened
        assert (fill.worker is not None) == (workers == 1)
        chunk = max(1, stochastic.CHUNK_NORMALS // (2 * n_steps))
        _assert_run_is_the_reference(drawn, 4, paths, chunk, n_steps)

    def test_six_cpus_start_one_worker_thread(self, monkeypatch):
        # the run's one worker is a plain thread of the fill's own, however
        # many CPUs the process may use
        monkeypatch.setattr(stochastic, "_cpus", lambda: 6)
        opened = _opened_fills(monkeypatch)
        with stochastic.run_paths(UNIT, 2, 4096, 6, 100) as chunks:
            [fill] = opened
            assert type(fill.worker) is threading.Thread
            assert _fill_threads() == ["itofourier-normals"]
            drawn = list(chunks)
        assert _fill_threads() == [] and not fill.worker.is_alive()
        _assert_run_is_the_reference(drawn, 6, 100, 8)

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_a_run_imports_no_executor(self, cpus):
        # concurrent.futures and its logging stay out of the process, with
        # or without the run's worker
        code = ("import sys; from itofourier import stochastic, validation, kernel, basis;"
                f"stochastic._cpus = lambda: {cpus};"
                "validation.sample_differences(kernel.constant_spec(basis.Interval(0.0, 1.0),"
                " (1, 2)), basis.BasisSystem.LEGENDRE, (0, 0), 100, 4096, 3);"
                "assert 'concurrent.futures' not in sys.modules")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)

    @pytest.mark.parametrize("n_steps, cpus, ahead", [
        (4096, 2, 3),  # 8-path chunks of CHUNK_NORMALS normals
        (20480, 2, 3),  # 1-path chunks of 40960 normals
        (2**15 + 4096, 2, 1),  # a path of more than CHUNK_NORMALS normals
        (4096, 6, 3),  # one worker fills all three
        (2**15 + 4096, 3, 1),  # the one chunk ahead
    ])
    def test_workers_fill_the_look_ahead_and_no_further(self, n_steps, cpus, ahead,
                                                         monkeypatch):
        # before the first chunk is taken the worker fills ahead chunks,
        # then waits (no one is notified, so the test polls); the run has
        # more chunks
        monkeypatch.setattr(stochastic, "_cpus", lambda: cpus)
        opened, worker_fills, fill = _opened_fills(monkeypatch), [], stochastic._fill
        monkeypatch.setattr(stochastic, "_fill", lambda streams: worker_fills.append(
            threading.current_thread() is not threading.main_thread()) or fill(streams))
        chunk = max(1, stochastic.CHUNK_NORMALS // (2 * n_steps))
        paths = (ahead + 2) * chunk
        with stochastic.run_paths(UNIT, 2, n_steps, 8, paths) as chunks:
            [run] = opened
            assert run.worker is not None
            deadline = time.monotonic() + 10
            while not (len(run.ready) == ahead and run.held is None) \
                    and time.monotonic() < deadline:
                time.sleep(0.001)
            with run.cond:
                assert len(run.ready) == ahead and run.held is None
                assert worker_fills == [True] * ahead
            drawn = list(chunks)
        _assert_run_is_the_reference(drawn, 8, paths, chunk, n_steps)

    def test_a_worker_error_is_raised_with_the_next_chunk(self, monkeypatch):
        # the worker fails on its first chunk: the first chunk handed out
        # after the failure raises it, not the end of the run
        monkeypatch.setattr(stochastic, "_cpus", lambda: 2)
        opened = _opened_fills(monkeypatch)
        fill = stochastic._fill

        def failing_fill(streams):
            if threading.current_thread() is not threading.main_thread():
                raise RuntimeError("worker")
            opened[0].worker.join(10)
            fill(streams)

        monkeypatch.setattr(stochastic, "_fill", failing_fill)
        drawn = []
        with pytest.raises(RuntimeError, match="worker"):
            with stochastic.run_paths(UNIT, 2, 4096, 3, 40) as paths:
                drawn.extend(path for _, path in paths)
        assert drawn == [] and [run.worker is not None for run in opened] == [True]
        assert _fill_threads() == []

    def test_a_worker_error_after_the_last_chunk_is_raised_as_the_block_exits(self,
                                                                               monkeypatch):
        # a run of two chunks: the worker holds one until both have been
        # handed out (the caller takes it over), then fails
        monkeypatch.setattr(stochastic, "_cpus", lambda: 2)
        took, release, fill = threading.Event(), threading.Event(), stochastic._fill

        def late_failing_fill(streams):
            if threading.current_thread() is threading.main_thread():
                assert took.wait(10)
                return fill(streams)
            took.set()
            release.wait(10)
            raise RuntimeError("late")

        monkeypatch.setattr(stochastic, "_fill", late_failing_fill)
        with pytest.raises(RuntimeError, match="late"):
            with stochastic.run_paths(UNIT, 2, 4096, 3, 16) as paths:
                drawn = list(paths)
                release.set()
        _assert_run_is_the_reference(drawn, 3, 16, 8)
        assert _fill_threads() == []

    def test_a_worker_that_cannot_start_leaves_no_thread(self, monkeypatch):
        # the worker thread's start raises, as when the system has no
        # thread to give: the error leaves the block, and no fill thread is
        # left
        monkeypatch.setattr(stochastic, "_cpus", lambda: 2)
        started = []

        def failing_start(thread):
            started.append(thread.name)
            raise RuntimeError("can't start new thread")

        monkeypatch.setattr(threading.Thread, "start", failing_start)
        with pytest.raises(RuntimeError, match="start new thread"):
            with stochastic.run_paths(UNIT, 2, 4096, 3, 40):
                pass
        assert started == ["itofourier-normals"] and _fill_threads() == []

    def test_an_error_of_the_block_wins_over_a_workers(self, monkeypatch):
        # the worker has failed when the block raises an error of its own:
        # that error leaves the run, and the worker's thread has ended
        monkeypatch.setattr(stochastic, "_cpus", lambda: 2)
        opened = _opened_fills(monkeypatch)

        def failing_fill(streams):
            raise RuntimeError("worker")

        monkeypatch.setattr(stochastic, "_fill", failing_fill)
        with pytest.raises(KeyError, match="block"):
            with stochastic.run_paths(UNIT, 2, 4096, 3, 40):
                opened[0].worker.join(10)
                assert opened[0].error is not None
                raise KeyError("block")
        assert _fill_threads() == []

    def test_the_worker_and_the_caller_on_a_short_switch_interval(self, monkeypatch):
        # the worker and the caller, the interpreter switching threads every
        # 10 us: a chunk claimed twice or by no thread, or rows handed out
        # before they are filled, break the reference bits
        monkeypatch.setattr(stochastic, "_cpus", lambda: 2)
        opened = _opened_fills(monkeypatch)
        drawn, interval = [], sys.getswitchinterval()
        run = threading.Thread(target=lambda: drawn.extend(self._draw(monkeypatch, 9, 41, 3)),
                               daemon=True)
        sys.setswitchinterval(1e-5)
        try:
            run.start()
            run.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not run.is_alive() and _fill_threads() == []
        assert [fill.worker is not None for fill in opened] == [True]
        _assert_run_is_the_reference(drawn, 9, 41, 3)

    def test_a_stalled_workers_late_rows_reach_no_chunk(self, monkeypatch):
        # the worker stalls on its first chunk until the caller has filled
        # the other three and taken the stalled one over; the worker's late
        # rows, written before the caller's last take returns, reach no
        # chunk, and no chunk is handed out twice
        monkeypatch.setattr(stochastic, "_cpus", lambda: 2)
        monkeypatch.setattr(stochastic, "CHUNK_NORMALS", 3 * 2 * 4096)
        opened = _opened_fills(monkeypatch)
        took, release, fill, caller_fills = threading.Event(), threading.Event(), \
            stochastic._fill, []

        def stalling_fill(streams):
            if threading.current_thread() is threading.main_thread():
                caller_fills.append(1)
                fill(streams)
                if len(caller_fills) == 4:  # the chunk taken over
                    release.set()
                    opened[0].worker.join(10)
                return
            streams = list(streams)
            took.set()
            release.wait(10)
            for _, row in streams:
                row[:] = np.nan
            fill(streams)

        monkeypatch.setattr(stochastic, "_fill", stalling_fill)
        with stochastic.run_paths(UNIT, 2, 4096, 6, 10) as paths:
            assert took.wait(10)
            drawn = list(paths)
        assert [run.worker is not None for run in opened] == [True] and len(caller_fills) == 4
        assert not opened[0].worker.is_alive()
        _assert_run_is_the_reference(drawn, 6, 10, 3)

    def test_the_caller_takes_the_last_chunk_over_without_waiting(self, monkeypatch):
        # the worker stalls on its first chunk until the run's last chunk
        # has been handed out: the calling thread fills the other three,
        # then takes the stalled one over at once, and never waits on the
        # fill's condition
        class CountingCondition(threading.Condition):
            """A condition that counts the waits the main thread makes on it."""
            caller_waits = 0

            def wait(self, timeout=None):
                self.caller_waits += threading.current_thread() is threading.main_thread()
                return super().wait(timeout)

            def wait_for(self, predicate, timeout=None):
                self.caller_waits += threading.current_thread() is threading.main_thread()
                return super().wait_for(predicate, timeout)

        monkeypatch.setattr(stochastic, "_cpus", lambda: 2)
        monkeypatch.setattr(stochastic, "CHUNK_NORMALS", 3 * 2 * 4096)
        monkeypatch.setattr(threading, "Condition", CountingCondition)
        opened = _opened_fills(monkeypatch)
        took, release, fill, caller_fills = threading.Event(), threading.Event(), \
            stochastic._fill, []

        def stalling_fill(streams):
            if threading.current_thread() is threading.main_thread():
                caller_fills.append(1)
            else:
                took.set()
                assert release.wait(10)
            fill(streams)

        monkeypatch.setattr(stochastic, "_fill", stalling_fill)
        with stochastic.run_paths(UNIT, 2, 4096, 6, 10) as paths:
            assert took.wait(10)
            drawn = list(paths)
            release.set()
        [run] = opened
        assert type(run.cond) is CountingCondition and run.cond.caller_waits == 0
        assert len(caller_fills) == 4 and not run.worker.is_alive()
        _assert_run_is_the_reference(drawn, 6, 10, 3)

    @pytest.mark.parametrize("failing", ["worker", "caller"])
    def test_an_error_on_any_thread_is_raised(self, failing, monkeypatch):
        # a run of two chunks and one worker: the error leaves the run's
        # block only once the other thread has stopped
        monkeypatch.setattr(stochastic, "_cpus", lambda: 2)
        fill, done, started = stochastic._fill, [], threading.Event()

        def failing_fill(streams):
            on_caller = threading.current_thread() is threading.main_thread()
            if on_caller:
                assert started.wait(10)  # a worker not yet started is never started
            else:
                started.set()
            if on_caller == (failing == "caller"):
                raise RuntimeError(failing)
            time.sleep(0.05)  # the other thread finishes after the failure
            fill(streams)
            done.append(failing)

        monkeypatch.setattr(stochastic, "_fill", failing_fill)
        with pytest.raises(RuntimeError, match=failing):
            with stochastic.run_paths(UNIT, 2, 4096, 3, 16) as paths:
                list(paths)
        assert done == [failing] and _fill_threads() == []

    def test_a_call_inside_a_run_fills_on_its_own(self, monkeypatch):
        # calls between a run's chunks, even of the seeds of another of its
        # chunks, neither take a chunk of the run nor change one; one worker
        monkeypatch.setattr(stochastic, "_cpus", lambda: 3)
        monkeypatch.setattr(stochastic, "CHUNK_NORMALS", 3 * 2 * 4096)
        seeds = [path_seed(7, i) for i in range(9)]
        want = brownian_path_reference(UNIT, 2, 4096, seeds)
        drawn = []
        with stochastic.run_paths(UNIT, 2, 4096, 7, 9) as paths:
            for args, reference in (
                    ((2, 4096, seeds[0:3]), want[0:3]),
                    ((2, 4096, seeds[0]), want[0]),
                    ((1, 4096, seeds[0:3]), want[0:3, :1]),
                    ((2, 2048, seeds[0:3]), brownian_path_reference(UNIT, 2, 2048, seeds[0:3]))):
                got = brownian_path(UNIT, *args).increments
                assert got.tobytes() == reference.tobytes(), args
            for start, path in paths:
                drawn.append((start, path))
                other = (start + 3) % 9
                got = brownian_path(UNIT, 2, 4096, seeds[other:other + 3]).increments
                assert got.tobytes() == want[other:other + 3].tobytes()
                assert gaussian_pool(UNIT, BasisSystem.WALSH, 2, 4095, start).values.tobytes() \
                    == gaussian_pool_reference(UNIT, 2, 4095, start).tobytes()
        _assert_run_is_the_reference(drawn, 7, 9, 3)

    def test_chunks_handed_out_of_order_keep_the_sample(self, monkeypatch):
        # the worker claims chunk 0 while the tensor is built and stalls on
        # it until the caller has filled three chunks of its own, so those
        # are handed out first: each chunk's differences still land at its
        # start, and the sample is the reference bit for bit
        monkeypatch.setattr(stochastic, "_cpus", lambda: 2)
        spec, seed = constant_spec(UNIT, (1, 2)), 13
        first = path_seed(seed, 0)
        claimed, release, caller_fills, order = threading.Event(), threading.Event(), [], []
        fill, build, draw = stochastic._fill, validation.coefficient_tensor, \
            stochastic.brownian_path

        def stalling_fill(streams):
            streams = list(streams)
            if threading.current_thread() is threading.main_thread():
                caller_fills.append(1)
                if len(caller_fills) == 3:
                    release.set()
            elif streams[0][0][0] == first:
                claimed.set()
                assert release.wait(10)
            fill(streams)

        monkeypatch.setattr(stochastic, "_fill", stalling_fill)
        monkeypatch.setattr(validation, "coefficient_tensor",
                            lambda *a: claimed.wait(10) and build(*a))
        monkeypatch.setattr(stochastic, "brownian_path",
                            lambda *a, **kw: order.append(int(a[3][0])) or draw(*a, **kw))
        diffs, tensor = sample_differences(spec, BasisSystem.LEGENDRE, (1, 1), 100, 4096, seed)
        starts = [[path_seed(seed, i) for i in range(100)].index(s) for s in order]
        assert sorted(starts) == list(range(0, 100, 8)) and starts.index(0) >= 3
        want = sample_differences_reference(spec, tensor, 100, 4096, seed, 8)
        assert diffs.tobytes() == want.tobytes()

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_no_fill_thread_outlives_its_run(self, cpus, monkeypatch):
        # the run's worker fills on a thread of its own, which has ended by
        # the time sample_differences returns
        monkeypatch.setattr(stochastic, "_cpus", lambda: cpus)
        opened = _opened_fills(monkeypatch)
        spec = constant_spec(UNIT, (1, 2))
        diffs, tensor = sample_differences(spec, BasisSystem.LEGENDRE, (0, 0), 100, 4096, 8)
        assert [run.worker is not None for run in opened] == [True]
        assert _fill_threads() == []
        want = sample_differences_reference(spec, tensor, 100, 4096, 8, 8)
        assert diffs.tobytes() == want.tobytes()

    def test_an_error_mid_run_closes_the_fill(self, monkeypatch):
        # the reduction raises at chunk 3 while the worker is filling: once
        # the error is out of sample_differences no thread is filling, the
        # worker's thread has ended, and the next run is the reference sample
        monkeypatch.setattr(stochastic, "_cpus", lambda: 2)
        opened = _opened_fills(monkeypatch)
        filling, lock, fill = [], threading.Lock(), stochastic._fill

        def slow_streams(streams):
            for pair in streams:
                with lock:
                    filling.append(1)
                yield pair
                time.sleep(0.005)  # the worker is likely mid-stream at the error
                with lock:
                    filling.pop()

        monkeypatch.setattr(stochastic, "_fill", lambda streams: fill(slow_streams(streams)))
        expansion, calls = validation.truncated_expansion, []

        def failing_expansion(*args):
            calls.append(1)
            if len(calls) == 4:
                raise RuntimeError("chunk 3")
            return expansion(*args)

        monkeypatch.setattr(validation, "truncated_expansion", failing_expansion)
        spec = constant_spec(UNIT, (1, 2))
        tensor = coefficient_tensor(spec, BasisSystem.LEGENDRE, (1, 1))
        with pytest.raises(RuntimeError, match="chunk 3"):
            sample_differences(spec, BasisSystem.LEGENDRE, (1, 1), 100, 4096, 8, tensor=tensor)
        assert filling == [] and [run.worker is not None for run in opened] == [True]
        assert not opened[0].worker.is_alive()
        assert _fill_threads() == []
        monkeypatch.undo()
        diffs, _ = sample_differences(spec, BasisSystem.LEGENDRE, (1, 1), 100, 4096, 8,
                                      tensor=tensor)
        want = sample_differences_reference(spec, tensor, 100, 4096, 8, 8)
        assert diffs.tobytes() == want.tobytes()

    def test_the_run_opens_before_the_tensor_is_built(self, monkeypatch):
        # sample_differences opens its run first: its worker is already
        # filling when coefficient_tensor is called.  When the build raises,
        # that error leaves the call, not the failed worker's, and the
        # worker's thread has ended
        monkeypatch.setattr(stochastic, "_cpus", lambda: 2)
        spec, seen, build = constant_spec(UNIT, (1, 2)), [], validation.coefficient_tensor
        monkeypatch.setattr(validation, "coefficient_tensor",
                            lambda *a: seen.append(_fill_threads()) or build(*a))
        diffs, tensor = sample_differences(spec, BasisSystem.LEGENDRE, (0, 0), 100, 4096, 8)
        assert len(seen) == 1 and len(seen[0]) == 1 and _fill_threads() == []
        want = sample_differences_reference(spec, tensor, 100, 4096, 8, 8)
        assert diffs.tobytes() == want.tobytes()
        opened, fill = _opened_fills(monkeypatch), stochastic._fill

        def failing_fill(streams):
            if threading.current_thread() is not threading.main_thread():
                raise RuntimeError("worker")
            fill(streams)

        def failing_build(*args):
            opened[0].worker.join(10)
            assert isinstance(opened[0].error, RuntimeError)
            raise KeyError("tensor")

        monkeypatch.setattr(stochastic, "_fill", failing_fill)
        monkeypatch.setattr(validation, "coefficient_tensor", failing_build)
        with pytest.raises(KeyError, match="tensor"):
            sample_differences(spec, BasisSystem.LEGENDRE, (0, 0), 100, 4096, 8)
        assert _fill_threads() == []

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="os.fork is POSIX only")
    def test_forked_child_draws_the_same_sample(self, monkeypatch):
        # a child forked after a run with a worker draws the same sample on
        # a fill of its own
        monkeypatch.setattr(stochastic, "_cpus", lambda: 2)
        spec = constant_spec(UNIT, (1, 2))
        want, _ = sample_differences(spec, BasisSystem.LEGENDRE, (0, 0), 100, 4096, seed=9)
        with warnings.catch_warnings():
            # Python 3.12 warns that forking a process with threads may deadlock
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
        if pid == 0:
            code = 1
            try:
                got, _ = sample_differences(spec, BasisSystem.LEGENDRE, (0, 0), 100, 4096, seed=9)
                code = 0 if got.tobytes() == want.tobytes() else 2
            finally:
                os._exit(code)
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            time.sleep(0.01)
        else:
            os.kill(pid, 9)
            os.waitpid(pid, 0)
            pytest.fail("the forked child did not finish within 60 s")
        assert os.waitstatus_to_exitcode(status) == 0


class TestZetaFromPath:
    def test_constant_member_telescopes(self):
        path = brownian_path(UNIT, 2, 256, seed=3)
        pool = zeta_from_path(path, BasisSystem.LEGENDRE, 3)
        for i in (1, 2):
            total = float(np.sum(path.increments[i - 1]))
            assert pool.values[i, 0] == pytest.approx(total, rel=1e-13)

    def test_row_zero_exact(self):
        path = brownian_path(UNIT, 1, 64, seed=4)
        pool = zeta_from_path(path, BasisSystem.TRIGONOMETRIC, 4)
        expected = [integrate_basis(BasisSystem.TRIGONOMETRIC, j, UNIT) for j in range(5)]
        np.testing.assert_array_equal(pool.values[0], expected)

    def test_deterministic_increments_hand_sum(self):
        h = 0.25
        path = WienerPath(iv=UNIT, m=1, N=4, increments=np.full((1, 4), h))
        pool = zeta_from_path(path, BasisSystem.LEGENDRE, 1)
        lefts = [0.0, 0.25, 0.5, 0.75]
        brute = h * sum(eval_basis(BasisSystem.LEGENDRE, 1, s, UNIT) for s in lefts)
        assert pool.values[1, 1] == pytest.approx(brute, rel=1e-14)

    def test_grid_must_contain_jumps(self):
        path = brownian_path(UNIT, 1, 3, seed=5)
        for _ in range(2):  # a failed check is not cached
            with pytest.raises(GridCompatibilityError):
                zeta_from_path(path, BasisSystem.HAAR, 2)
        ok = brownian_path(UNIT, 1, 8, seed=5)
        zeta_from_path(ok, BasisSystem.HAAR, 2)

    def test_pool_is_capped_before_the_grid_is_planned(self, monkeypatch):
        # 300 pools of 2 rows of 11 values; the grid's own plan is capped
        # by basis_matrix as it is planned
        batch = brownian_path(UNIT, 1, 16, seed=range(300))
        monkeypatch.setattr(errors, "MAX_ENTRIES", 1000)
        monkeypatch.setattr(stochastic, "jump_depth", None)  # planning would fail
        with pytest.raises(CapacityError, match="pool would hold 6600 entries .* cap 1000"):
            zeta_from_path(batch, BasisSystem.WALSH, 10)

    def test_a_batch_of_pools_peaks_at_the_pool(self):
        # the Wiener rows are written into the pool itself, with no product
        # array beside it, and its finiteness check makes no mask of it:
        # 8192 pools of Legendre 20 at N = 1, the grid planned before; the
        # peak is the pool
        paths = brownian_path(UNIT, 1, 1, [path_seed(3, i) for i in range(8192)])
        zeta_from_path(paths, BasisSystem.LEGENDRE, 20)
        tracemalloc.start()
        try:
            pool = zeta_from_path(paths, BasisSystem.LEGENDRE, 20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= pool.values.nbytes + 4096, (peak, pool.values.nbytes)

    def test_run_constant_basis_work_done_once(self, monkeypatch):
        calls = []
        for name in ("jump_depth", "basis_matrix"):
            original = getattr(stochastic, name)
            monkeypatch.setattr(stochastic, name,
                                lambda *a, _f=original, _n=name: calls.append(_n) or _f(*a))
        stochastic._grid_plan.cache_clear()
        zeta_from_path(brownian_path(UNIT, 2, 64, seed=8), BasisSystem.WALSH, 7)
        assert sorted(calls) == ["basis_matrix", "jump_depth"]
        calls.clear()
        zeta_from_path(brownian_path(UNIT, 2, 64, seed=9), BasisSystem.WALSH, 7)
        assert calls == []

    def test_only_the_latest_grid_plan_is_kept(self):
        # one plan may hold errors.MAX_ENTRIES values (800 MB)
        stochastic._grid_plan.cache_clear()
        zeta_from_path(brownian_path(UNIT, 1, 64, seed=1), BasisSystem.LEGENDRE, 3)
        zeta_from_path(brownian_path(UNIT, 1, 128, seed=1), BasisSystem.LEGENDRE, 5)
        assert stochastic._grid_plan.cache_info().currsize == 1
        zeta_from_path(brownian_path(UNIT, 1, 128, seed=2), BasisSystem.LEGENDRE, 5)
        assert stochastic._grid_plan.cache_info().hits == 1

    def test_walsh_grid_plan_asks_for_one_jump_set(self, monkeypatch):
        calls = []
        for module, name in ((stochastic, "jump_depth"), (itofourier.basis, "breakpoints")):
            original = getattr(module, name)
            monkeypatch.setattr(module, name,
                                lambda *a, _f=original, _n=name: calls.append((_n,) + a) or _f(*a))
        stochastic._grid_plan.cache_clear()
        zeta_from_path(brownian_path(UNIT, 1, 1024, seed=2), BasisSystem.WALSH, 300)
        assert calls == [("jump_depth", BasisSystem.WALSH, 300)]

    def test_off_grid_haar_fails_before_any_jump_is_listed(self, monkeypatch):
        # 64 (10**6 + 1) basis values pass the cap; the 2**20 jump grid does not
        # divide N = 64, which is found without listing a million wavelets' jumps
        calls = []
        monkeypatch.setattr(itofourier.basis, "breakpoints",
                            lambda *a: calls.append(a) or breakpoints(*a))
        stochastic._grid_plan.cache_clear()
        path = brownian_path(UNIT, 1, 64, seed=3)
        start = time.perf_counter()
        with pytest.raises(GridCompatibilityError, match=r"2\*\*20"):
            zeta_from_path(path, BasisSystem.HAAR, 10**6)
        assert time.perf_counter() - start < 1.0
        assert calls == []

    @settings(max_examples=300, deadline=None)
    @given(basis=st.sampled_from(list(BasisSystem)),
           jmax=st.integers(0, 12).flatmap(lambda d: st.integers(0, 2**d)),
           n_steps=st.integers(1, 2**13) | st.integers(0, 13).flatmap(
               lambda e: st.integers(1, 2 ** (13 - e)).map(lambda a: a << e)),
           iv=st.sampled_from([UNIT, Interval(0.0, 4.0), Interval(0.0, 0.25)]))
    def test_grid_plan_accepts_exactly_when_every_jump_is_a_grid_point(self, basis, jmax,
                                                                      n_steps, iv):
        assume(basis is not BasisSystem.LEGENDRE or jmax <= LEGENDRE_MAX_DEGREE)
        scale = Fraction(n_steps) / Fraction(iv.length)
        on_grid = all(((Fraction(x) - Fraction(iv.t)) * scale).denominator == 1
                      for x in jumps(basis, jmax, iv))
        # only the decision is under test: a stub stands in for the basis rows,
        # and the uncached plan keeps it out of the cache
        with mock.patch.object(stochastic, "basis_matrix", lambda *a: np.zeros((1, 1))):
            try:
                stochastic._grid_plan.__wrapped__(basis, iv, n_steps, jmax)
                accepted = True
            except GridCompatibilityError:
                accepted = False
        assert accepted == on_grid

    @staticmethod
    def _exact_left_rows(basis, jmax, iv, n_steps):
        """Haar or Walsh rows at the left points t + l (T - t) / N taken
        exactly: on [0, 1] l / N rounds to no other cell (it is exact at every
        jump), and the values on iv are those on [0, 1] over sqrt(T - t)."""
        unit = basis_matrix(basis, jmax, np.arange(n_steps) / n_steps, UNIT)
        return unit / math.sqrt(iv.length)

    @pytest.mark.parametrize("basis", [BasisSystem.HAAR, BasisSystem.WALSH])
    @pytest.mark.parametrize("iv", [UNIT, Interval(0.1, 0.7), Interval(2.5, 7.5),
                                    Interval(-1.0, 3.0)])
    def test_cell_rows_repeat_to_the_left_point_rows(self, basis, iv):
        # on [0.1, 0.7] rounded left points fall into the cell before some jumps
        for jmax in (0, 1, 5, 7, 31, 63):
            cells = 2**jump_depth(basis, jmax)
            for n_steps in (cells, 3 * cells, 4096):
                phi, cell = stochastic._grid_plan.__wrapped__(basis, iv, n_steps, jmax)
                assert (phi.shape, cell) == ((jmax + 1, cells), n_steps // cells)
                left = self._exact_left_rows(basis, jmax, iv, n_steps)
                assert np.repeat(phi, cell, axis=1).tobytes() == left.tobytes()

    @pytest.mark.parametrize("basis", [BasisSystem.HAAR, BasisSystem.WALSH])
    @pytest.mark.parametrize("iv", [UNIT, Interval(0.1, 0.7), Interval(2.5, 7.5)])
    @pytest.mark.parametrize("n_steps", [96, 4096])
    def test_dyadic_zeta_is_the_left_point_sum(self, basis, iv, n_steps):
        # Summed by cell, each product phi dW meets at most (cell - 1) + 1 +
        # (cells - 1) <= N roundings, and N at most in any order of the full
        # dot product, so the two differ by at most 2 gamma_N sum |phi dW|,
        # gamma_N = N u / (1 - N u) with u = 2**-53
        jmax = 31
        path = brownian_path(iv, 2, n_steps, [1, 2, 3])
        left = self._exact_left_rows(basis, jmax, iv, n_steps)
        full = path.increments @ left.T
        gamma = n_steps * 2.0**-53 / (1 - n_steps * 2.0**-53)
        bound = 2 * gamma * (np.abs(path.increments) @ np.abs(left).T)
        got = zeta_from_path(path, basis, jmax).values[..., 1:, :]
        assert np.all(np.abs(got - full) <= bound)

    @pytest.mark.parametrize("basis", [BasisSystem.LEGENDRE, BasisSystem.TRIGONOMETRIC])
    def test_continuous_zeta_is_one_product_over_every_step(self, basis):
        # one step per cell: the increments times the left-point rows, bit for bit
        for iv, n_steps in ((UNIT, 4096), (Interval(0.1, 0.7), 1000)):
            path = brownian_path(iv, 2, n_steps, [4, 5])
            left = iv.t + np.arange(n_steps) * (iv.length / n_steps)
            want = path.increments @ basis_matrix(basis, 16, left, iv).T
            got = zeta_from_path(path, basis, 16).values[..., 1:, :]
            assert got.tobytes() == want.tobytes()

    def test_refinement_consistency_slope(self):
        # coarse pools are derived from one fine path by block-summing
        # increments; mean-square deviation between levels decays like 1/N
        fine_n = 2**12
        levels = [2**8, 2**9, 2**10, 2**11, 2**12]
        n_paths = 160
        jmax = 3
        msd = {n: [] for n in levels[:-1]}
        for trial in range(n_paths):
            fine = brownian_path(UNIT, 1, fine_n, seed=trial)
            pools = {}
            for n in levels:
                inc = fine.increments.reshape(1, n, fine_n // n).sum(axis=2)
                pools[n] = zeta_from_path(WienerPath(iv=UNIT, m=1, N=n, increments=inc),
                                          BasisSystem.LEGENDRE, jmax).values[1]
            for n in levels[:-1]:
                msd[n].append(float(np.sum((pools[n] - pools[2 * n]) ** 2)))
        xs = np.log2(levels[:-1])
        ys = np.log2([np.mean(msd[n]) for n in levels[:-1]])
        slope = np.polyfit(xs, ys, 1)[0]
        # decays at least like 1/N; for smooth bases the observed rate is the
        # sharper 1/N**2 (left-point evaluation error is Lipschitz-squared)
        assert slope < -0.9
        assert slope > -3.0


class TestPathIteratedIntegral:
    def test_k1_telescoping(self):
        path = brownian_path(UNIT, 1, 512, seed=6)
        spec = constant_spec(UNIT, (1,))
        total = float(np.sum(path.increments[0]))
        assert path_iterated_integral(spec, path) == pytest.approx(total, rel=1e-13)

    def test_k2_two_steps_by_hand(self):
        a, b = 0.3, -0.2
        path = WienerPath(iv=UNIT, m=1, N=2, increments=np.array([[a, b]]))
        spec = constant_spec(UNIT, (1, 1))
        assert path_iterated_integral(spec, path) == pytest.approx(a * b)

    def test_k2_time_component_by_hand(self):
        b = 0.7
        path = WienerPath(iv=UNIT, m=1, N=2, increments=np.array([[0.1, b]]))
        spec = constant_spec(UNIT, (0, 1))
        # inner level contributes dt at the first grid point only
        assert path_iterated_integral(spec, path) == pytest.approx(0.5 * b)

    def test_k3_brute_oracle(self):
        rng = np.random.default_rng(20)
        inc = rng.standard_normal((2, 16)) * 0.25
        path = WienerPath(iv=UNIT, m=2, N=16, increments=inc)
        w = Weight((1.0, 1.0))
        spec = IntegralSpec(iv=UNIT, k=3, indices=(1, 2, 1), weights=(w, w, w))
        lefts = np.arange(16) / 16.0
        psi = 1.0 + lefts
        dw = {0: np.full(16, 1.0 / 16.0), 1: inc[0], 2: inc[1]}
        brute = 0.0
        for j3 in range(16):
            for j2 in range(j3):
                for j1 in range(j2):
                    brute += (psi[j1] * dw[1][j1]) * (psi[j2] * dw[2][j2]) * (psi[j3] * dw[1][j3])
        assert path_iterated_integral(spec, path) == pytest.approx(brute, rel=1e-12)

    def test_zero_mean_over_paths(self):
        spec = constant_spec(UNIT, (1, 2))
        n_paths = 10_000
        vals = np.array([path_iterated_integral(spec, brownian_path(UNIT, 2, 64, seed=s))
                         for s in range(n_paths)])
        se = float(np.std(vals)) / math.sqrt(n_paths)
        assert abs(float(np.mean(vals))) <= 3.0 * se

    @settings(max_examples=200, deadline=None)
    @given(levels=st.lists(st.tuples(st.integers(0, 2), st.one_of(
               st.just((1.0,)),
               st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=3).map(tuple))),
               min_size=1, max_size=4),
           batch=st.sampled_from([None, 1, 3]), N=st.sampled_from([1, 2, 7, 64]),
           iv=st.sampled_from([UNIT, Interval(2.5, 7.5)]), seed=st.integers(0, 2**32))
    def test_bit_identical_to_the_plain_recursion(self, levels, batch, N, iv, seed):
        spec = IntegralSpec(iv=iv, k=len(levels), indices=tuple(i for i, _ in levels),
                            weights=tuple(Weight(c) for _, c in levels))
        path = brownian_path(iv, 2, N, seed if batch is None else
                             [seed + b for b in range(batch)])
        got, want = path_iterated_integral(spec, path), grid_sum_reference(spec, path)
        assert type(got) is type(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    @pytest.mark.parametrize("indices, weights", [
        ((1, 2), ((1.0,), (1.0,))),
        ((1, 2, 1), ((1.0,), (1.0, 1.0), (1.0,))),
        ((0, 1), ((1.0,), (1.0,))),
        ((0, 1, 2), ((1.0, 1.0), (1.0,), (1.0, -1.0))),
        ((2, 0, 1, 2), ((0.5, 2.0), (1.0, -1.0), (-2.0,), (3.0, 0.25))),
    ], ids=["12", "121", "01", "012", "2012"])
    def test_batched_call_peaks_within_two_work_arrays(self, indices, weights):
        B, N = 8, 4096
        spec = IntegralSpec(iv=UNIT, k=len(indices), indices=indices,
                            weights=tuple(Weight(c) for c in weights))
        path = brownian_path(UNIT, 2, N, list(range(B)))
        path_iterated_integral(spec, path)  # one-time set-up stays out of the trace
        tracemalloc.start()
        try:
            path_iterated_integral(spec, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # two batch-sized float64 arrays, and 128 KB for the N-sized ones
        assert peak <= 2 * B * N * 8 + 128 * 1024

    def test_weights_are_evaluated_once_per_run(self, monkeypatch):
        # the non-unit weight of the mc-walsh spec is evaluated on the first
        # of 13 chunks only; a spec equal but for a -0.0 coefficient, whose
        # weight row is -0.0, is evaluated afresh
        calls = []
        monkeypatch.setattr(stochastic, "eval_weight",
                            lambda w, *a: calls.append(w.coeffs) or eval_weight(w, *a))
        stochastic._left_weights.cache_clear()
        spec = IntegralSpec(UNIT, 3, (1, 2, 1),
                            (Weight((1.0,)), Weight((1.0, 1.0)), Weight((1.0,))))
        sample_differences(spec, BasisSystem.WALSH, (3, 3, 3), 100, 4096, seed=2)
        assert calls == [(1.0, 1.0)]
        path = brownian_path(UNIT, 1, 8, seed=2)
        for coeffs, evaluated in (((0.0,), 1), ((-0.0,), 1), ((-0.0,), 0), ((0.0,), 1)):
            calls.clear()
            path_iterated_integral(IntegralSpec(UNIT, 1, (1,), (Weight(coeffs),)), path)
            assert len(calls) == evaluated, coeffs

    def test_compatibility_errors(self):
        path = brownian_path(UNIT, 1, 8, seed=1)
        with pytest.raises(CompatibilityError):
            path_iterated_integral(constant_spec(Interval(0, 2), (1,)), path)
        with pytest.raises(CompatibilityError):
            path_iterated_integral(constant_spec(UNIT, (1, 2)), path)


class TestBatchAxis:
    """A batch of paths or pools runs through the same code as one of them."""

    SEEDS = (3, 2**64 - 5, 17, 3)

    @pytest.mark.parametrize("m", [1, 2])
    def test_path_rows_are_the_single_paths(self, m):
        batch = brownian_path(UNIT, m, 256, self.SEEDS)
        assert batch.increments.shape == (len(self.SEEDS), m, 256)
        for row, seed in zip(batch.increments, self.SEEDS):
            assert np.array_equal(row, brownian_path(UNIT, m, 256, seed).increments)
        assert not batch.increments.flags.writeable

    @pytest.mark.parametrize("basis, jmax", [(BasisSystem.LEGENDRE, 6), (BasisSystem.WALSH, 31),
                                             (BasisSystem.HAAR, 17)], ids=lambda v: str(v))
    @pytest.mark.parametrize("m", [1, 2])
    def test_pool_rows_are_the_single_pools(self, basis, jmax, m):
        batch = zeta_from_path(brownian_path(UNIT, m, 512, self.SEEDS), basis, jmax)
        assert batch.values.shape == (len(self.SEEDS), m + 1, jmax + 1)
        for row, seed in zip(batch.values, self.SEEDS):
            single = zeta_from_path(brownian_path(UNIT, m, 512, seed), basis, jmax)
            assert np.array_equal(row, single.values)

    @pytest.mark.parametrize("indices", [(1,), (2, 1), (1, 0, 2), (0, 1), (0, 0), (2, 2, 1, 2)],
                             ids=str)
    def test_oracle_entries_are_the_single_sums(self, indices):
        weights = tuple(Weight((1.0, 0.5 * level, -0.25)) for level in range(len(indices)))
        spec = IntegralSpec(iv=Interval(0.5, 2.0), k=len(indices), indices=indices,
                            weights=weights)
        batch = path_iterated_integral(spec, brownian_path(spec.iv, 2, 300, self.SEEDS))
        assert batch.shape == (len(self.SEEDS),)
        for value, seed in zip(batch, self.SEEDS):
            single = path_iterated_integral(spec, brownian_path(spec.iv, 2, 300, seed))
            assert isinstance(single, float)
            assert value == single

    def test_shapes_checked(self):
        with pytest.raises(DomainError):
            WienerPath(iv=UNIT, m=1, N=4, increments=np.zeros((2, 1, 1, 4)))
        with pytest.raises(DomainError):
            WienerPath(iv=UNIT, m=1, N=4, increments=np.zeros((2, 2, 4)))
        with pytest.raises(DomainError):
            stochastic.GaussianPool(iv=UNIT, basis=BasisSystem.LEGENDRE, m=1, jmax=2,
                                    values=np.zeros((3, 2, 2)))

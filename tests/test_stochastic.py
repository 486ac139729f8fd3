import math
import os
import threading
import time
import tracemalloc
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from numpy.random import Philox, SeedSequence
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import itofourier.basis

from itofourier import errors, stochastic
from itofourier.basis import (LEGENDRE_MAX_DEGREE, BasisSystem, Interval, basis_matrix,
                              breakpoints, eval_basis, integrate_basis, jump_depth, jumps)
from itofourier.errors import (CapacityError, CompatibilityError, DomainError,
                               GridCompatibilityError)
from itofourier.kernel import IntegralSpec, Weight, constant_spec
from itofourier.stochastic import (WienerPath, brownian_path, gaussian_pool,
                                   path_iterated_integral, path_seed, zeta_from_path)

from oracles import (brownian_path_reference, gaussian_pool_reference, grid_sum_reference,
                     path_seed_reference, stream)

UNIT = Interval(0.0, 1.0)


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


# The word edges of a 64-bit seed or index: one word, two words, all ones
_EDGES = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]
_WORD64 = st.sampled_from(_EDGES) | st.integers(0, 2**64 - 1)


class TestStreamKeys:
    """Keys from the array hash and streams from the re-keyed Philox are the
    per-stream SeedSequence and Philox, bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(seed=_WORD64, domain=st.integers(0, 2), index=_WORD64, words=st.sampled_from([1, 2]))
    def test_key_is_the_seed_sequence_state(self, seed, domain, index, words):
        expected = SeedSequence(seed, spawn_key=(domain, index)).generate_state(words, np.uint64)
        assert np.array_equal(stochastic._spawn_state(seed, domain, index, words)[0], expected)

    @settings(max_examples=25, deadline=None)
    @given(seeds=st.lists(_WORD64, min_size=1, max_size=5),
           indices=st.lists(_WORD64, min_size=1, max_size=5), domain=st.integers(0, 2))
    def test_keys_of_a_grid_of_seeds_and_indices(self, seeds, indices, domain):
        # a column of seeds against a row of indices; wide and narrow
        # indices share one call
        keys = stochastic._spawn_state(np.array(seeds, np.uint64)[:, None], domain,
                                       np.array(indices, np.uint64), 2)
        assert keys.shape == (len(seeds), len(indices), 2)
        for row, seed in zip(keys, seeds):
            for key, index in zip(row, indices):
                ss = SeedSequence(seed, spawn_key=(domain, index))
                assert np.array_equal(key, ss.generate_state(2, np.uint64))

    @pytest.mark.parametrize("streams", [1, 2, stochastic.FEW_STREAMS - 1,
                                         stochastic.FEW_STREAMS, stochastic.FEW_STREAMS + 1, 40])
    def test_keys_on_both_sides_of_the_few_streams_cutoff(self, streams, monkeypatch):
        # below FEW_STREAMS one SeedSequence per stream and no array hash;
        # from it on the array hash and no SeedSequence; the same bytes either way
        routes = []
        hashmix, seed_sequence = stochastic._hashmix, stochastic.SeedSequence
        monkeypatch.setattr(stochastic, "_hashmix",
                            lambda *a: routes.append("array") or hashmix(*a))
        monkeypatch.setattr(stochastic, "SeedSequence",
                            lambda *a, **kw: routes.append("sequence") or seed_sequence(*a, **kw))
        rows = 2 if streams % 2 == 0 else 1
        seeds = np.array([7, 2**64 - 1][:rows], np.uint64)[:, None]
        indices = np.array(_EDGES * 8, np.uint64)[:streams // rows]
        for words in (1, 2):
            routes.clear()
            keys = stochastic._spawn_state(seeds, 1, indices, words)
            want = [[SeedSequence(int(s), spawn_key=(1, int(i))).generate_state(words, np.uint64)
                     for i in indices] for s in seeds[:, 0]]
            assert keys.tobytes() == np.array(want, np.uint64).tobytes()
            assert keys.shape == (rows, streams // rows, words)
            assert set(routes) == {"sequence" if streams < stochastic.FEW_STREAMS else "array"}

    @pytest.mark.parametrize("seed", _EDGES + [20240809])
    def test_path_seed_is_the_reference(self, seed):
        for index in [0, 7, 2**32 - 1, 2**32, 2**64 - 1]:
            assert path_seed(seed, index) == path_seed_reference(seed, index)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 9, 100, 4096, 4097])
    def test_rows_are_fresh_philox_streams(self, n):
        # every row after the first starts at counter 0 with an empty buffer
        coords = [(3, 1, 1), (3, 1, 2), (2**64 - 1, 0, 5), (3, 1, 1)]
        keys = np.array([SeedSequence(s, spawn_key=(d, i)).generate_state(2, np.uint64)
                         for s, d, i in coords])
        rows = stochastic._normals(keys, n)
        assert rows.shape == (len(coords), n)
        for row, coord in zip(rows, coords):
            assert np.array_equal(row, stream(*coord).standard_normal(n))

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_one_philox_per_part(self, cpus, monkeypatch):
        # below the split cutoff one Philox per call; above it one per
        # thread, a thread per CPU while each has PART_NORMALS normals
        built = []
        monkeypatch.setattr(stochastic, "Philox", lambda **kw: built.append(kw) or Philox(**kw))
        monkeypatch.setattr(stochastic, "_cpus", lambda: cpus)
        brownian_path(UNIT, 3, 16, list(range(5)))
        gaussian_pool(UNIT, BasisSystem.LEGENDRE, 3, 4, seed=1)
        assert len(built) == 2
        built.clear()
        brownian_path(UNIT, 2, 4096, list(range(8)))
        assert len(built) == cpus
        built.clear()
        brownian_path(UNIT, 2, stochastic.PART_NORMALS - 1, seed=0)
        assert len(built) == 1
        built.clear()
        brownian_path(UNIT, 2, stochastic.PART_NORMALS, seed=0)
        assert len(built) == min(cpus, 2)

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


class TestSplitFill:
    """The streams of a call filled on worker threads are the streams filled
    on the calling thread, bit for bit."""

    @pytest.mark.parametrize("cpus", [2, 3])
    @pytest.mark.parametrize("streams", [2, 3, 17])
    def test_split_rows_are_the_reference_streams(self, streams, cpus, monkeypatch):
        # a cutoff of one stream, so that every call here is split
        monkeypatch.setattr(stochastic, "PART_NORMALS", 4096)
        monkeypatch.setattr(stochastic, "_cpus", lambda: cpus)
        fills, taken = [], []
        fill = stochastic._fill

        def logged_fill(keys, rows, order):
            fills.append(threading.current_thread() is threading.main_thread())
            fill(keys, rows, (taken.append(i) or i for i in order))

        monkeypatch.setattr(stochastic, "_fill", logged_fill)
        coords = [(2**64 - 1 - s, s % 3, s) for s in range(streams)]
        keys = np.array([SeedSequence(c, spawn_key=(d, i)).generate_state(2, np.uint64)
                         for c, d, i in coords])
        rows = stochastic._normals(keys, 4096)
        assert sorted(fills) == [False] * (min(streams, cpus) - 1) + [True]
        assert sorted(taken) == list(range(streams))  # each stream filled once
        for row, coord in zip(rows, coords):
            assert np.array_equal(row, stream(*coord).standard_normal(4096))

    @pytest.mark.parametrize("failing", ["worker", "caller"])
    def test_an_error_on_any_thread_is_raised(self, failing, monkeypatch):
        monkeypatch.setattr(stochastic, "_cpus", lambda: 2)
        fill, done = stochastic._fill, []

        def failing_fill(keys, rows, streams):
            on_caller = threading.current_thread() is threading.main_thread()
            if on_caller == (failing == "caller"):
                raise RuntimeError(failing)
            time.sleep(0.05)  # the other thread finishes after the failure
            fill(keys, rows, streams)
            done.append(len(rows))

        monkeypatch.setattr(stochastic, "_fill", failing_fill)
        keys = stochastic._spawn_state(3, 1, np.arange(16, dtype=np.uint64), 2)
        with pytest.raises(RuntimeError, match=failing):
            stochastic._normals(keys, 4096)
        assert done == [16]  # raised only once the other thread had stopped

    def test_small_calls_start_no_thread(self, monkeypatch):
        monkeypatch.setattr(stochastic, "_cpus", lambda: 4)
        monkeypatch.setattr(stochastic, "_worker_pool",
                            lambda pid: pytest.fail("a pool was asked for"))
        threads = threading.active_count()
        gaussian_pool(UNIT, BasisSystem.LEGENDRE, 2, 31, seed=1)
        gaussian_pool(UNIT, BasisSystem.WALSH, 3, 1023, seed=2)
        brownian_path(UNIT, 1, 1, seed=3)
        brownian_path(UNIT, 2, 4096, seed=4)
        brownian_path(UNIT, 3, 16, list(range(5)))
        assert threading.active_count() == threads

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="os.fork is POSIX only")
    def test_forked_child_fills_on_a_pool_of_its_own(self, monkeypatch):
        # the parent's pool has a live worker; a child inherits the pool but
        # not the thread, and a submit to it would wait forever
        from itofourier.validation import sample_differences
        monkeypatch.setattr(stochastic, "_cpus", lambda: 2)
        spec = constant_spec(UNIT, (1, 2))
        want, _ = sample_differences(spec, BasisSystem.LEGENDRE, (0, 0), 100, 4096, seed=9)
        assert stochastic._worker_pool.cache_info().currsize == 1
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

    def test_grid_is_capped_before_it_is_planned(self, monkeypatch):
        path = brownian_path(UNIT, 1, 100, seed=5)
        monkeypatch.setattr(errors, "MAX_ENTRIES", 1000)
        monkeypatch.setattr(stochastic, "jump_depth", None)  # planning would fail
        with pytest.raises(CapacityError, match="cap 1000"):
            zeta_from_path(path, BasisSystem.WALSH, 10)

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
                phi, cell, _ = stochastic._grid_plan.__wrapped__(basis, iv, n_steps, jmax)
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
    ], ids=["12", "121", "01"])
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
        # two batch-sized float64 work arrays, and 128 KB for the N-sized ones
        assert peak <= 2 * B * N * 8 + 128 * 1024

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

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from itofourier import errors, stochastic, validation
from itofourier.basis import BasisSystem, Interval
from itofourier.coefficients import CoefficientTensor, coefficient_tensor
from itofourier.errors import CapacityError, DomainError, NumericError
from itofourier.kernel import IntegralSpec, Weight, constant_spec, kernel_l2_norm_sq
from itofourier.stochastic import brownian_path, path_iterated_integral, path_seed
from itofourier.validation import (grid_allowance, moment_check, sample_differences,
                                   strong_error_estimate)

from oracles import sample_differences_reference

UNIT = Interval(0.0, 1.0)
LEG = BasisSystem.LEGENDRE


class TestStrongErrorEstimate:
    def test_k1_constant_weight_has_zero_difference(self):
        # a constant weight is captured exactly at any truncation order and
        # the left-point sum telescopes, so D vanishes identically
        spec = constant_spec(UNIT, (1,))
        diffs, _ = sample_differences(spec, LEG, (2,), 200, 128, seed=1)
        assert float(np.max(np.abs(diffs))) <= 1e-12

    def test_k2_distinct_components_matches_residual(self):
        spec = constant_spec(UNIT, (1, 2))
        report = strong_error_estimate(
            *sample_differences(spec, LEG, (0, 0), 2000, 1024, seed=42), 1024)
        assert report["parseval"] == pytest.approx(0.25, abs=1e-12)
        assert report["bound_ms"] == pytest.approx(0.5, abs=1e-12)
        assert report["bound_2n"] is None
        assert "moment" not in report
        assert report["samples"] == 2000
        window = 3.0 * report["std_error"]
        assert report["mean_sq_diff"] >= report["parseval"] - window
        assert report["mean_sq_diff"] <= report["parseval"] + report["grid_allowance"] + window
        assert report["pass"]

    def test_grid_error_slope_is_minus_one(self):
        # equal components, unit weights: the truncation is exact at p = 0 and
        # D = (1 - sum dW_l^2) / 2, whose second moment scales like 1/N
        spec = constant_spec(UNIT, (1, 1))
        msds = []
        steps = [2**6, 2**8, 2**10, 2**12]
        for n_steps in steps:
            diffs, _ = sample_differences(spec, LEG, (0, 0), 400, n_steps, seed=9)
            msds.append(float(np.mean(diffs**2)))
        slope = np.polyfit(np.log2(steps), np.log2(msds), 1)[0]
        assert -1.35 < slope < -0.65

    def test_equal_component_constant_weight_invariant_in_p(self):
        # with psi constant only the j = 0 coefficient of the weight survives,
        # so the expansion value is the same at every truncation order
        spec = constant_spec(UNIT, (1, 1))
        base, _ = sample_differences(spec, LEG, (0, 0), 150, 256, seed=3)
        for p in (1, 3):
            diffs, _ = sample_differences(spec, LEG, (p, p), 150, 256, seed=3)
            np.testing.assert_allclose(diffs, base, rtol=0, atol=1e-12)

    def test_mean_square_decreases_in_p_for_linear_weight(self):
        w = Weight((0.0, 1.0))
        spec = IntegralSpec(iv=UNIT, k=2, indices=(1, 1), weights=(w, w))
        msds = []
        for p in range(7):
            diffs, _ = sample_differences(spec, LEG, (p, p), 400, 1024, seed=17)
            msds.append(float(np.mean(diffs**2)))
        assert all(msds[i + 1] <= msds[i] * 1.05 + 1e-9 for i in range(len(msds) - 1))
        assert msds[-1] < msds[0]

    def test_pathwise_error_within_residual_window_high_p(self):
        w = Weight((0.0, 1.0))
        spec = IntegralSpec(iv=UNIT, k=2, indices=(1, 1), weights=(w, w))
        report = strong_error_estimate(
            *sample_differences(spec, LEG, (12, 12), 500, 4096, seed=23), 4096)
        assert report["pass"]
        assert report["mean_sq_diff"] <= 10.0 * (report["parseval"] + report["grid_allowance"])

    def test_preconditions(self):
        spec = constant_spec(UNIT, (0, 1))
        with pytest.raises(DomainError):
            sample_differences(spec, LEG, (0, 0), 200, 64, seed=1)
        with pytest.raises(DomainError):
            sample_differences(constant_spec(UNIT, (1, 2)), LEG, (0, 0), 99, 64, seed=1)

    @pytest.mark.parametrize("n_steps, seed, error", [
        (0, 1, DomainError), (64, -1, DomainError), (64, 2**64, DomainError),
        (10**8, 1, CapacityError)])  # m N = 2 * 10**8 increments a path
    def test_run_arguments_are_read_before_the_tensor_is_built(self, n_steps, seed, error,
                                                               monkeypatch):
        monkeypatch.setattr(validation, "coefficient_tensor", None)
        with pytest.raises(error, match="^N |^seed |^paths "):
            sample_differences(constant_spec(UNIT, (1, 2)), LEG, (0, 0), 100, n_steps, seed)

    def test_reproducible_and_thread_invariant(self):
        spec = constant_spec(UNIT, (1, 2))
        a, _ = sample_differences(spec, LEG, (1, 1), 300, 128, seed=5)
        b, tensor = sample_differences(spec, LEG, (1, 1), 300, 128, seed=5)
        assert np.array_equal(a, b)
        assert strong_error_estimate(a, tensor, 128) == strong_error_estimate(b, tensor, 128)

    def test_accepts_prebuilt_tensor(self):
        spec = constant_spec(UNIT, (1, 2))
        tensor = coefficient_tensor(spec, LEG, (0, 0))
        a, same = sample_differences(spec, LEG, (0, 0), 150, 128, seed=2, tensor=tensor)
        b, built = sample_differences(spec, LEG, (0, 0), 150, 128, seed=2)
        assert same is tensor
        assert np.array_equal(a, b)
        assert strong_error_estimate(a, same, 128) == strong_error_estimate(b, built, 128)


    @pytest.mark.parametrize("value, n, degree", [(1e200, None, 2), (1e100, 2, 4),
                                                  (np.inf, 1, 2), (np.nan, None, 2)],
                             ids=["square", "fourth-power", "inf", "nan"])
    def test_overflowing_moment_is_named(self, value, n, degree):
        tensor = coefficient_tensor(constant_spec(UNIT, (1, 2)), LEG, (1, 1))
        diffs = np.full(100, value)
        with pytest.raises(NumericError, match=rf"sample moment E\[D\*\*{degree}\]"):
            strong_error_estimate(diffs, tensor, 16, n)


class TestMomentCheck:
    def test_n1_matches_strong_error_statistic(self):
        spec = constant_spec(UNIT, (1, 2))
        diffs, tensor = sample_differences(spec, LEG, (0, 0), 400, 256, seed=8)
        rep = strong_error_estimate(diffs, tensor, 256)
        mom = moment_check(diffs, tensor, 256, 1)
        assert mom["sample_moment"] == rep["mean_sq_diff"]
        assert mom["std_error"] == rep["std_error"]
        assert mom["moment_degree"] == 2
        assert mom["pass"]

    def test_n2_bound_holds(self):
        spec = constant_spec(UNIT, (1, 2))
        mom = moment_check(*sample_differences(spec, LEG, (0, 0), 1000, 1024, seed=13),
                           1024, 2)
        assert mom["moment_degree"] == 4
        assert mom["pass"]
        # Gaussian-product heuristic: the sampled fourth moment sits far
        # below the analytic bound
        assert mom["sample_moment"] < mom["bound_2n"] / 10.0

    def test_zero_tensor_recovers_kernel_norm(self):
        spec = constant_spec(UNIT, (1,))
        zero = CoefficientTensor(spec=spec, basis=LEG, orders=(0,),
                                 values=np.zeros((1,)))
        mom = moment_check(*sample_differences(spec, LEG, (0,), 2000, 512, seed=21,
                                               tensor=zero), 512, 1)
        total = kernel_l2_norm_sq(spec)
        assert abs(mom["sample_moment"] - total) <= 3.0 * mom["std_error"]
        assert mom["parseval"] == pytest.approx(total)
        assert mom["pass"]

    @pytest.mark.parametrize("n", [1, 2])
    def test_is_the_moment_block_of_the_document(self, n):
        diffs, tensor = sample_differences(constant_spec(UNIT, (1, 2)), LEG, (1, 1), 200, 64,
                                           seed=3)
        doc = strong_error_estimate(diffs, tensor, 64, n)
        assert moment_check(diffs, tensor, 64, n) == doc["moment"]
        assert doc["bound_2n"] == doc["moment"]["bound_2n"]
        assert doc["moment"]["moment_degree"] == 2 * n
        for field in ("samples", "parseval", "grid_allowance"):
            assert doc["moment"][field] == doc[field]

    def test_rejects_bad_degree(self):
        diffs, tensor = sample_differences(constant_spec(UNIT, (1, 2)), LEG, (0, 0), 200, 64,
                                           seed=1)
        for n in (0, 3, True, 2.5):
            with pytest.raises(DomainError, match="^n"):
                moment_check(diffs, tensor, 64, n)
            with pytest.raises(DomainError, match="^n"):
                strong_error_estimate(diffs, tensor, 64, n)

    @pytest.mark.parametrize("diffs", [np.zeros(0), np.zeros(1), np.zeros((2, 50)), [0.0] * 100],
                             ids=["empty", "one", "2-D", "list"])
    def test_rejects_malformed_diffs(self, diffs):
        # refused by name before any statistic: a sample of fewer than two
        # has no standard error, and a 2-D array no float per path
        tensor = coefficient_tensor(constant_spec(UNIT, (1, 2)), LEG, (0, 0))
        with pytest.raises(DomainError, match="^diffs"):
            strong_error_estimate(diffs, tensor, 64)
        for n in (1, 2):
            with pytest.raises(DomainError, match="^diffs"):
                moment_check(diffs, tensor, 64, n)


def test_grid_allowance_constant():
    assert grid_allowance(2, 1.0, 4096) == pytest.approx(4.0 / 4096.0)
    assert grid_allowance(3, 2.0, 64) == pytest.approx(9.0 * 4.0 / 64.0)


class TestChunkedEngine:
    def test_one_call_per_chunk(self, monkeypatch):
        # 100 paths at m = 2, N = 4096 are 13 chunks: 12 of 8 paths and one
        # of 4, their seeds read once from the seed stream and each chunk
        # drawn by the public path constructor
        calls = {}
        for module, name in ((stochastic, "_path_seeds"), (stochastic, "brownian_path"),
                             (validation, "zeta_from_path"),
                             (validation, "path_iterated_integral"),
                             (validation, "truncated_expansion")):
            original = getattr(module, name)
            calls[name] = []
            monkeypatch.setattr(module, name, lambda *a, _f=original, _n=name, **kw:
                                calls[_n].append((a, _f(*a, **kw))) or calls[_n][-1][1])
        spec = constant_spec(UNIT, (1, 2))
        diffs, _ = sample_differences(spec, LEG, (0, 0), 100, 4096, seed=4)
        assert [a for a, _ in calls["_path_seeds"]] == [(4, 0, 100)]
        for name in ("brownian_path", "zeta_from_path", "path_iterated_integral",
                     "truncated_expansion"):
            assert len(calls[name]) == 13, name
        assert diffs.shape == (100,)
        # chunks are handed out in the order they are filled: by its first
        # seed, chunk c is paths 8c.., and path i of the sample is the path
        # of path_seed(seed, i)
        seeds = [path_seed(4, i) for i in range(100)]
        drawn = sorted(calls["brownian_path"], key=lambda call: seeds.index(call[0][3][0]))
        assert [len(a[3]) for a, _ in drawn] == [8] * 12 + [4]
        assert [seeds.index(a[3][0]) for a, _ in drawn] == list(range(0, 100, 8))
        drawn = np.concatenate([path.increments for _, path in drawn])
        want = brownian_path(UNIT, 2, 4096, seeds)
        assert drawn.tobytes() == want.increments.tobytes()

    @pytest.mark.parametrize("chunk", [1, 3, 8])
    def test_sample_is_the_per_stream_reference(self, chunk):
        # 100 paths at m = 2, N = 4096, in chunks of 1, 3 and 8 paths (8 is
        # the default): the last chunk of 3 or 8 is short, and chunks of 3
        # read the seed stream across its blocks of four words
        spec = constant_spec(UNIT, (1, 2))
        tensor = coefficient_tensor(spec, LEG, (2, 1))
        with mock.patch.object(stochastic, "CHUNK_NORMALS", chunk * 2 * 4096):
            diffs, _ = sample_differences(spec, LEG, (2, 1), 100, 4096, 2**64 - 1, tensor=tensor)
        expected = sample_differences_reference(spec, tensor, 100, 4096, 2**64 - 1, chunk)
        assert diffs.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("basis, orders, spec", [
        (LEG, (0, 0), constant_spec(UNIT, (1, 2))),
        (BasisSystem.WALSH, (31, 31, 31),
         IntegralSpec(UNIT, 3, (1, 2, 1), (Weight((1.0,)), Weight((1.0, 1.0)), Weight((1.0,))))),
    ], ids=["mc-legendre", "mc-walsh"])
    def test_sample_does_not_depend_on_the_cpu_count(self, basis, orders, spec, monkeypatch):
        # the 13 chunks fill their normals from one fill for the whole run,
        # with one worker on more than one CPU: on one CPU none
        tensor = coefficient_tensor(spec, basis, orders)
        samples = []
        for cpus in (1, 2, 3):
            fills = []
            monkeypatch.setattr(stochastic, "_cpus", lambda: cpus)
            monkeypatch.setattr(stochastic, "_Fill", lambda *a, _f=stochastic._Fill:
                                fills.append(_f(*a)) or fills[-1])
            diffs, _ = sample_differences(spec, basis, orders, 100, 4096, 12, tensor=tensor)
            monkeypatch.undo()
            assert [fill.worker is not None for fill in fills] == [cpus > 1]
            samples.append(diffs.tobytes())
        assert samples[0] == samples[1] == samples[2]


class TestBoundedRun:
    """A chunk's pools and expansion head fit errors.MAX_ENTRIES, so a run's
    tracemalloc peak stays within the README's 2.0 times the cap's bytes at
    any number of paths; at N = 1 a chunk's increments bound neither."""

    @pytest.mark.parametrize("indices, orders, n_paths", [
        ((1,), (20,), 2000), ((1,), (20,), 65536),  # the pools bind: 42 entries a path
        ((1, 1, 1), (31, 31, 31), 200), ((1, 1, 1), (31, 31, 31), 8000),  # the head: 1024
    ], ids=["pools-2000", "pools-65536", "head-200", "head-8000"])
    def test_peak_is_bounded_by_the_cap(self, indices, orders, n_paths, monkeypatch):
        monkeypatch.setattr(errors, "MAX_ENTRIES", 10**6)
        tracemalloc.start()
        try:
            diffs, _ = sample_differences(constant_spec(UNIT, indices), LEG, orders, n_paths,
                                          1, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert diffs.shape == (n_paths,) and np.all(np.isfinite(diffs))
        assert peak <= 2.0 * 8 * errors.MAX_ENTRIES, f"{peak / 1e6:.1f} MB"


class TestPrebuiltTensor:
    """A tensor passed in must be the one the call would build."""

    SPEC = constant_spec(UNIT, (1, 2))

    @pytest.mark.parametrize("tensor, orders", [
        (coefficient_tensor(constant_spec(UNIT, (2, 1)), LEG, (2, 2)), (2, 2)),
        (coefficient_tensor(constant_spec(UNIT, (1, 2)), BasisSystem.HAAR, (2, 2)), (2, 2)),
        (coefficient_tensor(constant_spec(UNIT, (1, 2)), LEG, (2, 1)), (2, 2)),
        (coefficient_tensor(constant_spec(UNIT, (1, 2)), LEG, (2, 2)), ()),
        (coefficient_tensor(constant_spec(Interval(0.0, 2.0), (1, 2)), LEG, (2, 2)), (2, 2)),
    ], ids=["spec", "basis", "orders", "no-orders", "interval"])
    def test_foreign_tensor_named_before_any_path(self, tensor, orders, monkeypatch):
        # opening the run's paths would fail
        monkeypatch.setattr(validation, "run_paths", None)
        with pytest.raises(DomainError, match="^tensor "):
            sample_differences(self.SPEC, LEG, orders, 100, 64, seed=1, tensor=tensor)


def _spec_strategy():
    weight = st.lists(st.sampled_from([-1.0, 0.5, 1.0, 2.0]), min_size=1, max_size=2)
    return st.integers(1, 3).flatmap(lambda k: st.tuples(
        st.lists(st.integers(1, 2), min_size=k, max_size=k),
        st.lists(weight, min_size=k, max_size=k),
        st.lists(st.integers(0, 5), min_size=k, max_size=k)))


def _sample(spec, basis, orders, tensor, seed, chunk_paths):
    """The differences of 100 paths of 64 steps, chunk_paths paths per chunk
    (None: the module default)."""
    normals = stochastic.CHUNK_NORMALS if chunk_paths is None \
        else chunk_paths * spec.max_index * 64
    with mock.patch.object(stochastic, "CHUNK_NORMALS", normals):
        return sample_differences(spec, basis, orders, 100, 64, seed, tensor=tensor)[0]


class TestSampleProperties:
    @settings(max_examples=25, deadline=None)
    @given(drawn=_spec_strategy(), basis=st.sampled_from(list(BasisSystem)),
           seed=st.integers(0, 2**63))
    def test_chunk_size_changes_the_sample_by_rounding_only(self, drawn, basis, seed):
        # paths, pools and oracle values are the same bits in any chunk; only
        # the batched contraction may round differently, relative 1e-13 of
        # the size of the integral itself
        indices, weights, orders = drawn
        spec = IntegralSpec(iv=UNIT, k=len(indices), indices=tuple(indices),
                            weights=tuple(Weight(tuple(w)) for w in weights))
        tensor = coefficient_tensor(spec, basis, orders)
        paths = brownian_path(UNIT, spec.max_index, 64,
                              [path_seed(seed, i) for i in range(100)])
        scale = float(np.max(np.abs(path_iterated_integral(spec, paths))))
        default = _sample(spec, basis, orders, tensor, seed, None)
        for chunk_paths in (1, 3):
            other = _sample(spec, basis, orders, tensor, seed, chunk_paths)
            assert np.max(np.abs(other - default)) <= 1e-13 * scale

    @pytest.mark.parametrize("indices", [(1, 2), (1, 1)], ids=str)
    def test_legendre_order_zero_is_bit_identical_in_any_chunk(self, indices):
        spec = constant_spec(UNIT, indices)
        tensor = coefficient_tensor(spec, LEG, (0, 0))
        default = _sample(spec, LEG, (0, 0), tensor, 99, None)
        for chunk_paths in (1, 3, 7):
            assert np.array_equal(_sample(spec, LEG, (0, 0), tensor, 99, chunk_paths), default)

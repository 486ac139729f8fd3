import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from itofourier.basis import Interval
from itofourier.errors import ArityError, DomainError
from itofourier.kernel import IntegralSpec, Weight, constant_spec, eval_weight, kernel_l2_norm_sq
from oracles import eval_kernel, kernel_l2_norm_sq_reference

UNIT = Interval(0.0, 1.0)


class TestWeight:
    def test_horner_examples(self):
        assert eval_weight(Weight((1.0,)), 0.3, UNIT) == pytest.approx(1.0)
        assert eval_weight(Weight((0.0, 1.0)), 0.3, UNIT) == pytest.approx(0.3)
        assert eval_weight(Weight((1.0, 2.0)), 0.5, UNIT) == pytest.approx(2.0)

    def test_shifted_origin(self):
        iv = Interval(2.0, 4.0)
        # psi(s) = (s - t)^2 evaluated at s = 3.5
        assert eval_weight(Weight((0.0, 0.0, 1.0)), 3.5, iv) == pytest.approx(2.25)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            eval_weight(Weight((1.0,)), 1.5, UNIT)

    def test_empty_coeffs_rejected(self):
        with pytest.raises(DomainError):
            Weight(())

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_coeffs_named(self, bad):
        with pytest.raises(DomainError, match="^poly: coefficients must be finite"):
            Weight((1.0, bad))
        with pytest.raises(DomainError, match="poly: coefficients must be finite"):
            Weight.from_json({"poly": [bad]})

    def test_json_round_trip(self):
        w = Weight((1.0, -2.5, 0.125))
        assert Weight.from_json(w.to_json()) == w
        with pytest.raises(DomainError):
            Weight.from_json({"poly": [1.0], "extra": 2})


class TestIntegralSpec:
    def test_validation(self):
        with pytest.raises(ArityError):
            IntegralSpec(iv=UNIT, k=2, indices=(1,), weights=(Weight((1.0,)),) * 2)
        with pytest.raises(DomainError):
            IntegralSpec(iv=UNIT, k=1, indices=(-1,), weights=(Weight((1.0,)),))
        with pytest.raises(DomainError):
            IntegralSpec(iv=UNIT, k=0, indices=(), weights=())

    def test_json_round_trip(self):
        spec = IntegralSpec(iv=Interval(0.5, 2.0), k=2, indices=(0, 3),
                            weights=(Weight((1.0,)), Weight((0.0, 1.0))))
        assert IntegralSpec.from_json(spec.to_json()) == spec

    def test_json_rejects_unknown_and_missing(self):
        doc = constant_spec(UNIT, (1, 2)).to_json()
        doc["extra"] = 1
        with pytest.raises(DomainError):
            IntegralSpec.from_json(doc)
        del doc["extra"], doc["k"]
        with pytest.raises(DomainError):
            IntegralSpec.from_json(doc)


class TestKernel:
    def test_ordered_branch(self):
        spec = constant_spec(UNIT, (1, 2))
        assert eval_kernel(spec, (0.2, 0.7)) == 1.0
        assert eval_kernel(spec, (0.7, 0.2)) == 0.0
        assert eval_kernel(spec, (0.4, 0.4)) == 0.0

    def test_linear_weights(self):
        w = Weight((0.0, 1.0))
        spec = IntegralSpec(iv=UNIT, k=3, indices=(1, 1, 1), weights=(w, w, w))
        assert eval_kernel(spec, (0.1, 0.2, 0.3)) == pytest.approx(0.006)

    def test_k1_has_no_ordering(self):
        spec = constant_spec(UNIT, (1,))
        assert eval_kernel(spec, (0.9,)) == 1.0

    def test_arity_and_domain(self):
        spec = constant_spec(UNIT, (1, 2))
        with pytest.raises(ArityError):
            eval_kernel(spec, (0.1, 0.2, 0.3))
        with pytest.raises(DomainError):
            eval_kernel(spec, (0.1, 1.2))

    def test_vanishes_on_all_unordered_points(self):
        spec = constant_spec(UNIT, (1, 2, 3))
        rng = np.random.default_rng(5)
        for _ in range(200):
            pt = np.sort(rng.uniform(0, 1, size=3))
            if len(set(pt)) < 3:
                continue
            assert eval_kernel(spec, pt) > 0
            for perm in ((2, 1, 0), (0, 2, 1), (1, 0, 2)):
                assert eval_kernel(spec, pt[list(perm)]) == 0.0


class TestKernelNorm:
    def test_simplex_volumes(self):
        for k, expected in ((1, 1.0), (2, 0.5), (3, 1.0 / 6.0)):
            spec = constant_spec(UNIT, (1,) * k)
            assert kernel_l2_norm_sq(spec) == pytest.approx(expected, rel=1e-14)

    def test_unit_weights_closed_form(self):
        for iv in (UNIT, Interval(2.5, 7.5)):
            for k in range(1, 7):
                spec = constant_spec(iv, (1,) * k)
                expected = iv.length**k / math.factorial(k)
                assert kernel_l2_norm_sq(spec) == pytest.approx(expected, rel=1e-13)

    def test_scaling_ratio(self):
        for k in range(1, 6):
            a = kernel_l2_norm_sq(constant_spec(UNIT, (1,) * k))
            b = kernel_l2_norm_sq(constant_spec(Interval(0.0, 2.0), (1,) * k))
            assert b / a == pytest.approx(2.0**k, rel=1e-13)

    def test_positive_for_nonzero_weights(self):
        w = Weight((0.0, 0.0, 3.0))
        spec = IntegralSpec(iv=UNIT, k=2, indices=(1, 1), weights=(w, w))
        assert kernel_l2_norm_sq(spec) > 0

    def test_brute_force_oracle(self):
        # independent check: cumulative trapezoid over a dense grid
        w1, w2 = Weight((1.0, 2.0)), Weight((0.5, 0.0, 1.0))
        spec = IntegralSpec(iv=UNIT, k=2, indices=(1, 1), weights=(w1, w2))
        s = np.linspace(0.0, 1.0, 20001)
        inner_sq = np.asarray(eval_weight(w1, s, UNIT)) ** 2
        inner_cum = np.concatenate([[0.0], np.cumsum((inner_sq[1:] + inner_sq[:-1]) / 2)]) * (s[1] - s[0])
        outer = np.asarray(eval_weight(w2, s, UNIT)) ** 2 * inner_cum
        brute = np.trapezoid(outer, s)
        assert kernel_l2_norm_sq(spec) == pytest.approx(brute, abs=5e-8)

    @settings(max_examples=300, deadline=None)
    @given(weights=st.lists(st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=4),
                            min_size=1, max_size=8),
           t=st.floats(-3.0, 3.0), length=st.floats(0.01, 5.0))
    def test_polynomial_objects_give_the_same_bits(self, weights, t, length):
        # k <= 8, degrees <= 3, any interval: the folded coefficient arrays
        # round as the Polynomial objects do, bit for bit
        iv = Interval(t, t + length)
        spec = IntegralSpec(iv=iv, k=len(weights), indices=(1,) * len(weights),
                            weights=tuple(Weight(tuple(w)) for w in weights))
        got, want = kernel_l2_norm_sq(spec), kernel_l2_norm_sq_reference(spec)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()

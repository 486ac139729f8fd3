import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from itofourier.basis import BasisSystem, Interval
from itofourier.coefficients import CoefficientTensor, coefficient_tensor
from itofourier.errors import (CompatibilityError, DomainError,
                               UnsupportedMultiplicityError)
from itofourier.expansion import ExpansionResult, truncated_expansion
from itofourier.kernel import IntegralSpec, Weight, constant_spec
from itofourier.stochastic import GaussianPool, gaussian_pool
from oracles import brute_expansion, explicit_expansion, hermite_reference

UNIT = Interval(0.0, 1.0)
HALF_ROOT3 = 1.0 / (2.0 * math.sqrt(3.0))


def term_scale(values, idx, pool):
    """sum |C| prod max(1, |zeta|) over the index tuples: a bound on every
    Wick term of the contraction with one pool, so on the scale of what its
    sums round."""
    factors = [np.maximum(1.0, np.abs(pool.values[i, :n])) for i, n in zip(idx, values.shape)]
    return float(np.sum(np.abs(values) * functools.reduce(np.multiply.outer, factors)))


def random_instance(rng, k, allow_zero=True):
    lo = 0 if allow_zero else 1
    idx = tuple(int(x) for x in rng.integers(lo, 4, size=k))
    orders = tuple(int(x) for x in rng.integers(0, 4, size=k))
    spec = constant_spec(UNIT, idx)
    values = rng.standard_normal(tuple(p + 1 for p in orders))
    tensor = CoefficientTensor(spec=spec, basis=BasisSystem.LEGENDRE,
                               orders=orders, values=values)
    pool = gaussian_pool(UNIT, BasisSystem.LEGENDRE, 3, max(orders),
                         seed=int(rng.integers(1 << 30)))
    return tensor, pool


def pool_batch(m, jmax, seeds):
    """One GaussianPool holding the pools of the given seeds along a batch axis."""
    pools = [gaussian_pool(UNIT, BasisSystem.LEGENDRE, m, jmax, seed=s) for s in seeds]
    values = np.stack([p.values for p in pools])
    return pools, GaussianPool(iv=UNIT, basis=BasisSystem.LEGENDRE, m=m, jmax=jmax,
                               values=values)


class TestTruncatedExpansion:
    def test_k1_is_linear_form(self):
        spec = constant_spec(UNIT, (1,))
        tensor = CoefficientTensor(spec=spec, basis=BasisSystem.LEGENDRE, orders=(0,),
                                   values=np.array([math.sqrt(UNIT.length)]))
        pool = gaussian_pool(UNIT, BasisSystem.LEGENDRE, 1, 0, seed=1)
        res = truncated_expansion(tensor, pool)
        assert res.value == pytest.approx(math.sqrt(UNIT.length) * pool.values[1, 0])
        assert res.terms_evaluated == 1
        assert res.orders == (0,)

    def test_k2_equal_components_hermite_bracket(self):
        spec = constant_spec(UNIT, (1, 1))
        c = 0.7
        tensor = CoefficientTensor(spec=spec, basis=BasisSystem.LEGENDRE, orders=(0, 0),
                                   values=np.full((1, 1), c))
        pool = gaussian_pool(UNIT, BasisSystem.LEGENDRE, 1, 0, seed=2)
        z = pool.values[1, 0]
        assert truncated_expansion(tensor, pool).value == pytest.approx(c * (z * z - 1.0))

    def test_zero_tensor(self):
        spec = constant_spec(UNIT, (1, 2, 1))
        tensor = CoefficientTensor(spec=spec, basis=BasisSystem.LEGENDRE,
                                   orders=(1, 1, 1), values=np.zeros((2, 2, 2)))
        pool = gaussian_pool(UNIT, BasisSystem.LEGENDRE, 2, 1, seed=3)
        assert truncated_expansion(tensor, pool).value == 0.0

    def test_k2_distinct_components_hand_expansion(self):
        spec = constant_spec(UNIT, (1, 2))
        tensor = coefficient_tensor(spec, BasisSystem.LEGENDRE, (1, 1))
        pool = gaussian_pool(UNIT, BasisSystem.LEGENDRE, 2, 1, seed=4)
        a, b = pool.values[1]
        c, d = pool.values[2]
        hand = 0.5 * a * c + HALF_ROOT3 * a * d - HALF_ROOT3 * b * c
        assert truncated_expansion(tensor, pool).value == pytest.approx(hand, rel=1e-12)

    def test_time_component_uses_deterministic_row(self):
        # hand-computed expansion of the time-weighted single integral:
        # inner level is d-tau, so only its constant term survives
        spec = constant_spec(UNIT, (0, 1))
        tensor = coefficient_tensor(spec, BasisSystem.LEGENDRE, (1, 1))
        pool = gaussian_pool(UNIT, BasisSystem.LEGENDRE, 1, 1, seed=5)
        z0, z1 = pool.values[1]
        expected = 0.5 * z0 + HALF_ROOT3 * z1
        assert truncated_expansion(tensor, pool).value == pytest.approx(expected, rel=1e-12)

    def test_time_components_never_pair(self):
        spec = constant_spec(UNIT, (0, 0))
        tensor = CoefficientTensor(spec=spec, basis=BasisSystem.LEGENDRE, orders=(0, 0),
                                   values=np.full((1, 1), 1.0))
        pool = gaussian_pool(UNIT, BasisSystem.LEGENDRE, 1, 0, seed=6)
        # both layers deterministic: value = zeta_0^{(0)} ** 2, no -1 correction
        assert truncated_expansion(tensor, pool).value == pytest.approx(UNIT.length)

    @pytest.mark.parametrize("k, p", [(10, 2), (6, 5)])
    def test_contraction_never_copies_the_tensor(self, k, p):
        # traces are views and every contraction shrinks the tensor, so the
        # peak allocation stays below the size of the coefficient tensor
        values = np.random.default_rng(k).standard_normal((p + 1,) * k)
        tensor = CoefficientTensor(spec=constant_spec(UNIT, (1,) * k),
                                   basis=BasisSystem.LEGENDRE, orders=(p,) * k, values=values)
        pool = gaussian_pool(UNIT, BasisSystem.LEGENDRE, 1, p, seed=k)
        tracemalloc.start()
        try:
            truncated_expansion(tensor, pool)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < values.nbytes

    @pytest.mark.parametrize("idx", [(1,), (1, 1), (1, 2), (2, 1, 2)], ids=str)
    def test_empty_batch_of_pools(self, idx):
        # B = 0, as an empty brownian_path batch gives through zeta_from_path:
        # no entry, at k = 1, equal and distinct components, and k = 3
        orders = (2,) * len(idx)
        values = np.random.default_rng(len(idx)).standard_normal((3,) * len(idx))
        tensor = CoefficientTensor(spec=constant_spec(UNIT, idx), basis=BasisSystem.LEGENDRE,
                                   orders=orders, values=values)
        empty = GaussianPool(iv=UNIT, basis=BasisSystem.LEGENDRE, m=2, jmax=2,
                             values=np.empty((0, 3, 3)))
        result = truncated_expansion(tensor, empty)
        assert result.value.shape == (0,) and result.value.dtype == np.float64
        assert result.terms_evaluated == values.size

    def test_multiplicity_cap(self):
        spec = constant_spec(UNIT, (1,) * 11)
        tensor = CoefficientTensor(spec=spec, basis=BasisSystem.LEGENDRE,
                                   orders=(0,) * 11, values=np.zeros((1,) * 11))
        pool = gaussian_pool(UNIT, BasisSystem.LEGENDRE, 1, 0, seed=7)
        with pytest.raises(UnsupportedMultiplicityError):
            truncated_expansion(tensor, pool)


class TestExplicitExpansion:
    def test_k4_two_indicator_pairs(self):
        spec = constant_spec(UNIT, (1, 1, 2, 2))
        c = 2.5
        tensor = CoefficientTensor(spec=spec, basis=BasisSystem.LEGENDRE,
                                   orders=(0, 0, 0, 0), values=np.full((1, 1, 1, 1), c))
        pool = gaussian_pool(UNIT, BasisSystem.LEGENDRE, 2, 0, seed=8)
        z, e = pool.values[1, 0], pool.values[2, 0]
        expected = c * (z * z - 1.0) * (e * e - 1.0)
        for op in (explicit_expansion, truncated_expansion):
            assert op(tensor, pool).value == pytest.approx(expected, rel=1e-12)

    def test_k5_distinct_components_plain_product(self):
        rng = np.random.default_rng(9)
        spec = constant_spec(UNIT, (1, 2, 3, 4, 5))
        orders = (1, 0, 1, 0, 1)
        values = rng.standard_normal(tuple(p + 1 for p in orders))
        tensor = CoefficientTensor(spec=spec, basis=BasisSystem.LEGENDRE,
                                   orders=orders, values=values)
        pool = gaussian_pool(UNIT, BasisSystem.LEGENDRE, 5, 1, seed=10)
        rows = [pool.values[spec.indices[l], :values.shape[l]] for l in range(5)]
        labels = [[0], [1], [2], [3], [4]]
        plain = float(np.einsum(values, list(range(5)),
                                *itertools.chain(*zip(rows, labels)), []))
        assert explicit_expansion(tensor, pool).value == pytest.approx(plain, rel=1e-12)
        assert truncated_expansion(tensor, pool).value == pytest.approx(plain, rel=1e-12)

    def test_k8_unsupported(self):
        spec = constant_spec(UNIT, (1,) * 8)
        tensor = CoefficientTensor(spec=spec, basis=BasisSystem.LEGENDRE,
                                   orders=(0,) * 8, values=np.zeros((1,) * 8))
        pool = gaussian_pool(UNIT, BasisSystem.LEGENDRE, 1, 0, seed=11)
        with pytest.raises(UnsupportedMultiplicityError):
            explicit_expansion(tensor, pool)


class TestOracleAgreement:
    def test_brute_oracle_small(self):
        rng = np.random.default_rng(12)
        for k in (1, 2, 3, 4):
            for _ in range(10):
                tensor, pool = random_instance(rng, k)
                brute = brute_expansion(tensor, pool)
                t = truncated_expansion(tensor, pool).value
                e = explicit_expansion(tensor, pool).value
                assert t == pytest.approx(brute, rel=1e-11, abs=1e-11)
                assert e == pytest.approx(brute, rel=1e-11, abs=1e-11)

    def test_routes_agree_k1_to_7(self):
        rng = np.random.default_rng(13)
        for k in range(1, 8):
            for _ in range(30):
                tensor, pool = random_instance(rng, k)
                t = truncated_expansion(tensor, pool).value
                e = explicit_expansion(tensor, pool).value
                assert abs(t - e) <= 1e-12 * max(abs(t), abs(e), 1e-9)

    @settings(max_examples=150, deadline=None)
    @given(pattern=st.integers(1, 7).flatmap(lambda k: st.tuples(
               st.lists(st.integers(0, 3), min_size=k, max_size=k),
               st.lists(st.integers(0, 3), min_size=k, max_size=k))),
           seed=st.integers(0, 2**32 - 1))
    # the value -0.0095 cancels far below its terms (scale 7204): the routes
    # differ by 1.1e-12 of the value, 1.5e-18 of the terms
    @example(pattern=([3, 1, 3, 0, 1, 1, 2], [3, 3, 2, 2, 1, 3, 3]), seed=2)
    def test_route_matches_oracles(self, pattern, seed):
        # random component patterns (zeros and repeats) and orders 0..3,
        # compared on the scale of the terms as in the batched test below;
        # the tuple-by-tuple brute oracle is run up to 256 index tuples
        idx, orders = (tuple(x) for x in pattern)
        rng = np.random.default_rng(seed)
        values = rng.standard_normal(tuple(p + 1 for p in orders))
        tensor = CoefficientTensor(spec=constant_spec(UNIT, idx), basis=BasisSystem.LEGENDRE,
                                   orders=orders, values=values)
        pool = gaussian_pool(UNIT, BasisSystem.LEGENDRE, 3, max(orders), seed=seed)
        t = truncated_expansion(tensor, pool).value
        e = explicit_expansion(tensor, pool).value
        assert abs(t - e) <= 1e-12 * max(abs(e), term_scale(values, idx, pool))
        if values.size <= 256:
            assert t == pytest.approx(brute_expansion(tensor, pool), rel=1e-11, abs=1e-11)

    @settings(max_examples=60, deadline=None)
    @given(pattern=st.integers(1, 7).flatmap(lambda k: st.tuples(
               st.lists(st.integers(0, 3), min_size=k, max_size=k),
               st.lists(st.integers(0, 3), min_size=k, max_size=k))),
           seed=st.integers(0, 2**32 - 1), batch=st.integers(1, 9))
    def test_batched_route_matches_oracle_per_pool(self, pattern, seed, batch):
        # every entry of a batched contraction against the explicit oracle on
        # its own pool, and against the one-pool route.  Values that cancel
        # far below their terms are compared on the scale of the terms: the
        # tensor contracted with prod max(1, |zeta|) bounds every Wick term.
        idx, orders = (tuple(x) for x in pattern)
        rng = np.random.default_rng(seed)
        values = rng.standard_normal(tuple(p + 1 for p in orders))
        tensor = CoefficientTensor(spec=constant_spec(UNIT, idx), basis=BasisSystem.LEGENDRE,
                                   orders=orders, values=values)
        pools, stacked = pool_batch(3, max(orders), [seed + b for b in range(batch)])
        result = truncated_expansion(tensor, stacked)
        assert result.value.shape == (batch,)
        assert result.terms_evaluated == values.size
        for got, pool in zip(result.value, pools):
            terms = term_scale(values, idx, pool)
            e = explicit_expansion(tensor, pool).value
            assert abs(got - e) <= 1e-12 * max(abs(e), terms)
            one = truncated_expansion(tensor, pool).value
            assert abs(got - one) <= 1e-13 * max(abs(one), terms)

    def test_batched_values_at_larger_orders(self):
        # k = 7 and k = 3 at orders a Monte-Carlo chunk meets: within 1e-13 of
        # one call per pool
        rng = np.random.default_rng(21)
        for idx, p in (((1, 2, 1), 31), ((1, 1, 2, 1, 1, 2, 1), 4)):
            values = rng.standard_normal((p + 1,) * len(idx))
            tensor = CoefficientTensor(spec=constant_spec(UNIT, idx),
                                       basis=BasisSystem.LEGENDRE, orders=(p,) * len(idx),
                                       values=values)
            pools, stacked = pool_batch(2, p, range(8))
            batched = truncated_expansion(tensor, stacked).value
            single = np.array([truncated_expansion(tensor, pool).value for pool in pools])
            scale = np.max(np.abs(single))
            assert np.max(np.abs(batched - single)) <= 1e-13 * scale

    def test_linearity(self):
        rng = np.random.default_rng(14)
        spec = constant_spec(UNIT, (1, 1, 2))
        orders = (2, 1, 2)
        shape = tuple(p + 1 for p in orders)
        pool = gaussian_pool(UNIT, BasisSystem.LEGENDRE, 2, 2, seed=15)
        a, b = rng.standard_normal(shape), rng.standard_normal(shape)
        alpha, beta = 1.25, -0.75

        def val(arr):
            tensor = CoefficientTensor(spec=spec, basis=BasisSystem.LEGENDRE,
                                       orders=orders, values=arr)
            return truncated_expansion(tensor, pool).value

        assert val(alpha * a + beta * b) == pytest.approx(
            alpha * val(a) + beta * val(b), rel=1e-12)


class TestCompatibility:
    def test_mismatches_raise(self):
        spec = constant_spec(UNIT, (1, 2))
        tensor = coefficient_tensor(spec, BasisSystem.LEGENDRE, (1, 1))
        wrong_basis = gaussian_pool(UNIT, BasisSystem.HAAR, 2, 1, seed=1)
        wrong_iv = gaussian_pool(Interval(0.0, 2.0), BasisSystem.LEGENDRE, 2, 1, seed=1)
        small_m = gaussian_pool(UNIT, BasisSystem.LEGENDRE, 1, 1, seed=1)
        small_j = gaussian_pool(UNIT, BasisSystem.LEGENDRE, 2, 0, seed=1)
        for pool in (wrong_basis, wrong_iv, small_m, small_j):
            with pytest.raises(CompatibilityError):
                truncated_expansion(tensor, pool)
            with pytest.raises(CompatibilityError):
                explicit_expansion(tensor, pool)


class TestHermiteReference:
    def test_values(self):
        assert hermite_reference(2, 1.0, 1.0) == 0.0
        assert hermite_reference(3, 0.0, 5.0) == 0.0
        assert hermite_reference(7, 1.0, 0.0) == pytest.approx(1.0 / 5040.0)
        assert hermite_reference(1, 2.5, 9.0) == 2.5
        assert hermite_reference(4, 2.0, 1.0) == pytest.approx((16 - 24 + 3) / 24.0)

    def test_guards(self):
        with pytest.raises(UnsupportedMultiplicityError):
            hermite_reference(0, 1.0, 1.0)
        with pytest.raises(UnsupportedMultiplicityError):
            hermite_reference(8, 1.0, 1.0)
        with pytest.raises(DomainError):
            hermite_reference(2, 1.0, -0.5)


class TestFiniteTruncationIdentity:
    """With equal weights and one Wiener component, every finite truncation
    collapses to the reference polynomial in the truncated (delta, variance)."""

    @pytest.mark.parametrize("basis", [BasisSystem.LEGENDRE, BasisSystem.TRIGONOMETRIC],
                             ids=lambda b: b.value)
    def test_small_orders(self, basis):
        w = Weight((1.0, 2.0))
        for k in (2, 3, 4):
            for p in (0, 1, 3):
                spec = IntegralSpec(iv=UNIT, k=k, indices=(1,) * k, weights=(w,) * k)
                spec1 = IntegralSpec(iv=UNIT, k=1, indices=(1,), weights=(w,))
                tensor = coefficient_tensor(spec, basis, (p,) * k)
                c1 = coefficient_tensor(spec1, basis, (p,)).values
                for seed in range(5):
                    pool = gaussian_pool(UNIT, basis, 1, p, seed=seed)
                    delta = float(np.dot(c1, pool.values[1]))
                    variance = float(np.dot(c1, c1))
                    want = hermite_reference(k, delta, variance)
                    got = truncated_expansion(tensor, pool).value
                    assert got == pytest.approx(want, rel=1e-10, abs=1e-12)


def test_expansion_result_fields():
    res = ExpansionResult(value=1.5, terms_evaluated=8, orders=(1, 3))
    assert res.value == 1.5 and res.terms_evaluated == 8 and res.orders == (1, 3)

import itertools
import os
import tempfile
import tracemalloc
import warnings
import math
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import itofourier.basis
from itofourier import coefficients, errors, quadrature
from itofourier.basis import BasisSystem, Interval, breakpoints, eval_basis, jump_depth
from itofourier.coefficients import (CoefficientTensor, coefficient_tensor, parseval_residual,
                                     read_coefficient_table, sum_squared,
                                     write_coefficient_table)
from itofourier.errors import BasisIndexError, CapacityError, DomainError, NumericError
from itofourier.kernel import IntegralSpec, Weight, constant_spec, eval_weight, kernel_l2_norm_sq
from itofourier.validation import moment_bound_2n, ms_error_bound

from oracles import (exact_dyadic_coefficients, exact_legendre_coefficients, exact_ms_reference,
                     jumps, read_table_reference, sum_squared_reference,
                     trigonometric_error_bound, write_table_reference)

UNIT = Interval(0.0, 1.0)
HALF_ROOT3 = 1.0 / (2.0 * math.sqrt(3.0))


def brute_coefficient(spec, basis, jtuple, n=8000):
    """Independent oracle: iterated midpoint-rule integration on a grid whose
    cell edges contain every basis jump (n divisible by a high power of 2)."""
    h = spec.iv.length / n
    mids = spec.iv.t + (np.arange(n) + 0.5) * h
    running = np.ones(n)  # level integrand factor G_{l-1} at midpoints
    for level, j in enumerate(jtuple):
        f = np.asarray(eval_weight(spec.weights[level], mids, spec.iv)) \
            * eval_basis(basis, j, mids, spec.iv) * running
        if level == spec.k - 1:
            return float(np.sum(f) * h)
        at_edges = np.concatenate([[0.0], np.cumsum(f) * h])
        running = at_edges[:-1] + f * (h / 2.0)
    raise AssertionError


def single_coefficient(spec, basis, jtuple):
    """The coefficient of one index tuple: the last entry of the tensor
    whose orders are that tuple."""
    return coefficient_tensor(spec, basis, jtuple).values[tuple(jtuple)]


class TestFourierCoefficient:
    def test_k1_projections(self):
        spec = constant_spec(UNIT, (1,))
        assert single_coefficient(spec, BasisSystem.LEGENDRE, (0,)) == pytest.approx(1.0)
        assert single_coefficient(spec, BasisSystem.LEGENDRE, (1,)) == pytest.approx(0.0, abs=1e-14)

    def test_k2_closed_forms(self):
        spec = constant_spec(UNIT, (1, 2))
        assert single_coefficient(spec, BasisSystem.LEGENDRE, (0, 0)) == pytest.approx(0.5, rel=1e-12)
        assert single_coefficient(spec, BasisSystem.LEGENDRE, (0, 1)) == pytest.approx(HALF_ROOT3, rel=1e-12)
        assert single_coefficient(spec, BasisSystem.LEGENDRE, (1, 0)) == pytest.approx(-HALF_ROOT3, rel=1e-12)

    @pytest.mark.parametrize("basis", [BasisSystem.LEGENDRE, BasisSystem.TRIGONOMETRIC,
                                       BasisSystem.HAAR], ids=lambda b: b.value)
    def test_against_brute_oracle(self, basis):
        w = Weight((1.0, 2.0))
        spec = IntegralSpec(iv=UNIT, k=2, indices=(1, 1), weights=(w, w))
        for jt in ((0, 0), (1, 2), (3, 1), (2, 3)):
            exact = single_coefficient(spec, basis, jt)
            assert exact == pytest.approx(brute_coefficient(spec, basis, jt), abs=2e-7)

    def test_k3_brute_oracle(self):
        spec = constant_spec(UNIT, (1, 1, 1))
        for basis in (BasisSystem.LEGENDRE, BasisSystem.WALSH):
            for jt in ((0, 1, 2), (2, 0, 1)):
                exact = single_coefficient(spec, basis, jt)
                assert exact == pytest.approx(brute_coefficient(spec, basis, jt), abs=2e-7)

    def test_index_arity(self):
        spec = constant_spec(UNIT, (1, 2))
        with pytest.raises(DomainError):
            single_coefficient(spec, BasisSystem.LEGENDRE, (0,))


class TestCoefficientTensor:
    def test_k1_vector(self):
        spec = constant_spec(UNIT, (1,))
        t = coefficient_tensor(spec, BasisSystem.LEGENDRE, (2,))
        np.testing.assert_allclose(t.values, [1.0, 0.0, 0.0], atol=1e-14)

    def test_k2_matrix(self):
        spec = constant_spec(UNIT, (1, 2))
        t = coefficient_tensor(spec, BasisSystem.LEGENDRE, (1, 1))
        expected = np.array([[0.5, HALF_ROOT3], [-HALF_ROOT3, 0.0]])
        np.testing.assert_allclose(t.values, expected, atol=1e-12)

    def test_k3_constant_tuple_is_sixth_for_every_basis(self):
        spec = constant_spec(UNIT, (1, 1, 1))
        for basis in BasisSystem:
            t = coefficient_tensor(spec, basis, (0, 0, 0))
            assert t.values[0, 0, 0] == pytest.approx(1.0 / 6.0, rel=1e-12)

    def test_matches_tuplewise_calls(self):
        w = Weight((1.0, 1.0))
        spec = IntegralSpec(iv=Interval(0.5, 2.0), k=2, indices=(1, 2), weights=(w, w))
        for basis in BasisSystem:
            t = coefficient_tensor(spec, basis, (3, 2))
            for jt in np.ndindex(t.values.shape):
                single = single_coefficient(spec, basis, jt)
                assert t.values[jt] == pytest.approx(single, rel=1e-11, abs=1e-13)

    def test_memory_cap(self, monkeypatch):
        spec = constant_spec(UNIT, (1, 2))
        with pytest.raises(CapacityError):
            coefficient_tensor(spec, BasisSystem.LEGENDRE, (10**5, 10**4))
        monkeypatch.setattr(errors, "MAX_ENTRIES", 10)
        with pytest.raises(CapacityError):
            coefficient_tensor(spec, BasisSystem.LEGENDRE, (3, 3))

    def test_orders_validation(self):
        spec = constant_spec(UNIT, (1, 2))
        with pytest.raises(DomainError):
            coefficient_tensor(spec, BasisSystem.LEGENDRE, (1,))
        with pytest.raises(DomainError):
            coefficient_tensor(spec, BasisSystem.LEGENDRE, (1, -1))


class TestQuadraturePlan:
    @pytest.mark.parametrize("basis, iv", [
        pytest.param(BasisSystem.WALSH, UNIT, id="unit"),
        pytest.param(BasisSystem.WALSH, Interval(2.5, 7.5), id="shifted"),
        pytest.param(BasisSystem.HAAR, UNIT, id="haar-unit"),
        pytest.param(BasisSystem.HAAR, Interval(2.5, 7.5), id="haar-shifted"),
    ])
    def test_walsh_cuts_are_the_union_of_jumps(self, basis, iv):
        # the closed form of jumps against the jumps of one function at a time
        union: set[float] = set()
        for order in range(600):
            union.update(breakpoints(basis, order, iv))
            assert jumps(basis, order, iv) == sorted(union), order

    @pytest.mark.parametrize("basis", [BasisSystem.HAAR, BasisSystem.WALSH],
                             ids=lambda b: b.value)
    @pytest.mark.parametrize("iv", [UNIT, Interval(2.5, 7.5)], ids=["unit", "shifted"])
    @pytest.mark.parametrize("orders", [(0,), (1, 1), (7, 3), (255, 3), (5, 9), (16, 16, 16),
                                        (300,)], ids=str)
    def test_dyadic_plan_is_the_cells(self, basis, iv, orders, monkeypatch):
        # complete top levels (7, 255) and partial ones (9, 16, 300): the
        # 2**D equal panels, which hold every jump as an edge
        monkeypatch.setattr(coefficients, "panel_grid", lambda edges, nodes: np.asarray(edges))
        spec = constant_spec(iv, (1,) * len(orders))
        edges = coefficients._quad_plan(spec, basis, orders).tolist()
        cells = 2**jump_depth(basis, max(orders))
        assert edges == [iv.t + i * iv.length / cells for i in range(cells + 1)]
        assert set(jumps(basis, max(orders), iv)) <= set(edges)

    @pytest.mark.parametrize("basis, order", [(BasisSystem.WALSH, 2**20 - 1),
                                              (BasisSystem.HAAR, 2**20)],
                             ids=["walsh", "haar"])
    def test_piecewise_constant_sweep_is_capped_before_it_allocates(self, basis, order):
        spec = constant_spec(UNIT, (1,))
        start = time.perf_counter()
        with pytest.raises(CapacityError):
            coefficient_tensor(spec, basis, (order,))
        assert time.perf_counter() - start < 1.0
        # the sweep of the tabulated orders stays far below the cap
        spec3 = IntegralSpec(iv=UNIT, k=3, indices=(1, 2, 1),
                             weights=(Weight((1.0,)), Weight((1.0, 1.0)), Weight((1.0,))))
        assert coefficient_tensor(spec3, basis, (31, 31, 31)).values.shape == (32, 32, 32)

    def test_node_count_is_capped_before_any_rule_is_built(self, monkeypatch):
        # a degree-10**5 weight would need a 100 002-node rule: O(n**3) time,
        # 80 GB for its companion matrix
        monkeypatch.setattr(coefficients, "panel_grid", None)  # building a grid fails
        spec = IntegralSpec(iv=UNIT, k=1, indices=(1,),
                            weights=(Weight((0.0,) * 10**5 + (1.0,)),))
        start = time.perf_counter()
        with pytest.raises(CapacityError, match=r"weight degrees \[100000\] and orders \[0\] "
                                                r"needs 100002 nodes > cap 4096"):
            coefficient_tensor(spec, BasisSystem.LEGENDRE, (0,))
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("order", [1001, 3000])
    def test_legendre_order_is_capped_before_any_rule_is_built(self, order, monkeypatch):
        monkeypatch.setattr(coefficients, "panel_grid", None)  # building a grid fails
        start = time.perf_counter()
        with pytest.raises(BasisIndexError,
                           match=rf"orders \(legendre basis index\) must be <= 1000, got {order}"):
            coefficient_tensor(constant_spec(UNIT, (1,)), BasisSystem.LEGENDRE, (order,))
        assert time.perf_counter() - start < 0.1

    def test_rule_caches_are_bounded(self):
        # one cumulative matrix holds nodes**2 floats: unbounded caches kept
        # every node count a process ever planned
        for nodes in range(2, 40):
            quadrature.cumulative_matrix(nodes)
        for cache in (quadrature.gauss_rule, quadrature.cumulative_matrix):
            assert cache.cache_info().currsize <= 4
        # the node counts of tables over the four bases at k = 3 stay cached
        for nodes in (5, 24, 41):
            quadrature.cumulative_matrix(nodes)
        misses = quadrature.cumulative_matrix.cache_info().misses
        for nodes in (5, 24, 41, 5, 24, 41):
            quadrature.cumulative_matrix(nodes)
        assert quadrature.cumulative_matrix.cache_info().misses == misses

    @pytest.mark.parametrize("basis", [BasisSystem.HAAR, BasisSystem.WALSH])
    @pytest.mark.parametrize("polys, orders", [(((1.0,),), (0,)), (((1.0,),) * 2, (3, 3)),
                                               (((1.0,), (1.0, 1.0), (1.0,)), (31, 31, 31)),
                                               (((0.5, 0.0, 2.0), (1.0, -3.0)), (7, 1))])
    def test_dyadic_plans_integrate_the_exact_degree(self, basis, polys, orders):
        # on a cell the last level's integrand has degree sum(degrees) + k - 1
        spec = IntegralSpec(iv=UNIT, k=len(polys), indices=(1,) * len(polys),
                            weights=tuple(Weight(p) for p in polys))
        nodes = sum(len(p) - 1 for p in polys) + len(polys) + 1
        assert coefficients._quad_plan(spec, basis, orders).nodes == nodes

    def test_node_cap_admits_the_largest_legendre_orders(self, monkeypatch):
        monkeypatch.setattr(coefficients, "panel_grid", lambda edges, nodes: nodes)
        spec = constant_spec(UNIT, (1, 2))
        plan = coefficients._quad_plan(spec, BasisSystem.LEGENDRE, (1000, 1000))
        assert plan == 2003 <= coefficients.MAX_NODES

    @pytest.mark.parametrize("iv", [UNIT, Interval(2.5, 7.5), Interval(0.1, 0.7)],
                             ids=["unit", "shifted", "short"])
    def test_trigonometric_table_plans_one_grid(self, iv, monkeypatch):
        # four panels per period and four more, built and swept once
        panels, sweeps = [], []
        real_grid, real_sweep = coefficients.panel_grid, coefficients._sweep

        def recording_grid(edges, nodes):
            panels.append(len(edges) - 1)
            return real_grid(edges, nodes)

        def recording_sweep(*args):
            sweeps.append(args[-1].n_panels)
            return real_sweep(*args)

        monkeypatch.setattr(coefficients, "panel_grid", recording_grid)
        monkeypatch.setattr(coefficients, "_sweep", recording_sweep)
        weights = (Weight((1.0,)), Weight((1.0, 1.0)), Weight((1.0,)))
        for indices, orders in (((1,), (60,)), ((1, 2), (5, 8)), ((1, 2, 1), (16, 16, 16))):
            spec = IntegralSpec(iv=iv, k=len(indices), indices=indices,
                                weights=weights[:len(indices)])
            panels.clear()
            sweeps.clear()
            coefficient_tensor(spec, BasisSystem.TRIGONOMETRIC, orders)
            planned = 4 * sum((p + 1) // 2 for p in orders) + 4
            assert panels == sweeps == [planned], (orders, panels, sweeps)

    @pytest.mark.parametrize("basis, orders, cap", [
        # trigonometric (60,) plans 124 panels of 24 nodes for 61 rows:
        # 181 536 entries, over either cap
        (BasisSystem.TRIGONOMETRIC, (60,), 10**4),
        (BasisSystem.TRIGONOMETRIC, (60,), 10**5),
        # Legendre (40, 40, 40): 41**2 earlier-level rows times 124 nodes
        (BasisSystem.LEGENDRE, (40, 40, 40), 10**5),
    ], ids=["trigonometric-1e4", "trigonometric-1e5", "legendre"])
    def test_continuous_sweep_is_capped(self, basis, orders, cap, monkeypatch):
        spec = constant_spec(UNIT, (1,) * len(orders))
        monkeypatch.setattr(errors, "MAX_ENTRIES", cap)
        with pytest.raises(CapacityError, match="quadrature"):
            coefficient_tensor(spec, basis, orders)


class TestSymmetryRelations:
    """Equal-weight coefficient identities relating orders 1, 2, and 3."""

    @pytest.mark.parametrize("basis", [BasisSystem.LEGENDRE, BasisSystem.TRIGONOMETRIC],
                             ids=lambda b: b.value)
    @pytest.mark.parametrize("coeffs", [(1.0,), (1.0, 2.0)], ids=["const", "linear"])
    def test_pair_relations(self, basis, coeffs):
        w = Weight(coeffs)
        spec2 = IntegralSpec(iv=UNIT, k=2, indices=(1, 1), weights=(w, w))
        spec1 = IntegralSpec(iv=UNIT, k=1, indices=(1,), weights=(w,))
        c2 = coefficient_tensor(spec2, basis, (10, 10)).values
        c1 = coefficient_tensor(spec1, basis, (10,)).values
        for j1 in range(11):
            for j2 in range(11):
                assert c2[j1, j2] + c2[j2, j1] == pytest.approx(c1[j1] * c1[j2], abs=1e-10)
            assert 2.0 * c2[j1, j1] == pytest.approx(c1[j1] ** 2, abs=1e-10)

    @pytest.mark.parametrize("basis", [BasisSystem.LEGENDRE, BasisSystem.TRIGONOMETRIC],
                             ids=lambda b: b.value)
    def test_triple_relations(self, basis):
        w = Weight((1.0, 2.0))
        spec3 = IntegralSpec(iv=UNIT, k=3, indices=(1, 1, 1), weights=(w, w, w))
        spec1 = IntegralSpec(iv=UNIT, k=1, indices=(1,), weights=(w,))
        c3 = coefficient_tensor(spec3, basis, (6, 6, 6)).values
        c1 = coefficient_tensor(spec1, basis, (6,)).values
        for j1, j2, j3 in itertools.combinations(range(7), 3):
            six = sum(c3[p] for p in itertools.permutations((j1, j2, j3)))
            assert six == pytest.approx(c1[j1] * c1[j2] * c1[j3], abs=1e-10)
        for j1 in range(7):
            assert 6.0 * c3[j1, j1, j1] == pytest.approx(c1[j1] ** 3, abs=1e-10)
            for j3 in range(7):
                if j3 == j1:
                    continue
                three = c3[j1, j1, j3] + c3[j1, j3, j1] + c3[j3, j1, j1]
                assert 2.0 * three == pytest.approx(c1[j1] ** 2 * c1[j3], abs=1e-10)


class TestParseval:
    def test_k1_exact_capture(self):
        spec = constant_spec(UNIT, (1,))
        t = coefficient_tensor(spec, BasisSystem.LEGENDRE, (0,))
        assert parseval_residual(spec, t) == pytest.approx(0.0, abs=1e-14)

    def test_k2_values(self):
        spec = constant_spec(UNIT, (1, 2))
        r00 = parseval_residual(spec, coefficient_tensor(spec, BasisSystem.LEGENDRE, (0, 0)))
        r11 = parseval_residual(spec, coefficient_tensor(spec, BasisSystem.LEGENDRE, (1, 1)))
        assert r00 == pytest.approx(0.25, abs=1e-12)
        assert r11 == pytest.approx(1.0 / 12.0, abs=1e-12)

    def test_monotone_and_small_at_p12(self):
        spec = constant_spec(UNIT, (1, 2))
        res = [parseval_residual(spec, coefficient_tensor(spec, BasisSystem.LEGENDRE, (p, p)))
               for p in range(13)]
        assert all(res[i + 1] <= res[i] + 1e-14 for i in range(12))
        assert res[12] < res[0] / 10.0
        assert res[12] < 0.025

    def test_basis_independent_total(self):
        spec = constant_spec(UNIT, (1, 2))
        total = kernel_l2_norm_sq(spec)
        for basis, p in ((BasisSystem.LEGENDRE, 63), (BasisSystem.TRIGONOMETRIC, 63),
                         (BasisSystem.HAAR, 63)):
            t = coefficient_tensor(spec, basis, (p, p))
            assert parseval_residual(spec, t) < 0.01 * total

    def test_real_tensors_never_overshoot_beyond_roundoff(self):
        w = Weight((1.0, 2.0))
        for basis in BasisSystem:
            for indices, orders in (((1,), (15,)), ((1, 1), (7, 7)), ((1, 2, 1), (3, 3, 3))):
                spec = IntegralSpec(iv=UNIT, k=len(indices), indices=indices,
                                    weights=(w,) * len(indices))
                total = kernel_l2_norm_sq(spec)
                t = coefficient_tensor(spec, basis, orders)
                raw = total - sum_squared(t)
                assert raw >= -1e-12 * total
                with warnings.catch_warnings():
                    # a k = 1 tensor at high order captures the kernel to
                    # round-off, legitimately tripping the clamp
                    warnings.simplefilter("ignore", RuntimeWarning)
                    assert parseval_residual(spec, t) >= 0.0

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_residual_is_nonnegative_and_nonincreasing_in_each_order(self, data):
        k = data.draw(st.integers(1, 3), "k")
        coeff = st.integers(-8, 8).map(lambda n: n / 4.0)
        weights = tuple(Weight(tuple(data.draw(st.lists(coeff, min_size=1, max_size=3))))
                        for _ in range(k))
        indices = tuple(data.draw(st.lists(st.integers(1, 2), min_size=k, max_size=k)))
        orders = data.draw(st.lists(st.integers(0, 3), min_size=k, max_size=k), "orders")
        basis = data.draw(st.sampled_from(list(BasisSystem)), "basis")
        spec = IntegralSpec(iv=UNIT, k=k, indices=indices, weights=weights)
        total = kernel_l2_norm_sq(spec)
        tol = 1e-12 * total
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # round-off clamps
            tensor = coefficient_tensor(spec, basis, orders)
            assert total - sum_squared(tensor) >= -tol
            base = parseval_residual(spec, tensor)
            assert 0.0 <= base <= total + tol
            for level in range(k):
                raised = orders[:level] + [orders[level] + 1] + orders[level + 1:]
                finer = parseval_residual(spec, coefficient_tensor(spec, basis, raised))
                assert 0.0 <= finer <= base + tol, level

    def test_clamps_roundoff_with_warning(self):
        spec = constant_spec(UNIT, (1,))
        inflated = np.array([math.sqrt(1.0 + 1e-15)])
        t = CoefficientTensor(spec=spec, basis=BasisSystem.LEGENDRE, orders=(0,),
                              values=inflated)
        with pytest.warns(RuntimeWarning):
            assert parseval_residual(spec, t) == 0.0

    def test_rejects_inconsistent_tensor(self):
        spec = constant_spec(UNIT, (1,))
        t = CoefficientTensor(spec=spec, basis=BasisSystem.LEGENDRE, orders=(0,),
                              values=np.array([1.1]))
        with pytest.raises(NumericError):
            parseval_residual(spec, t)

    @pytest.mark.parametrize("T, values, named", [
        # the kernel norm T**2 / 2 and the squares overflow; 2.4e154 has
        # finite squares whose exact sum overflows in math.fsum
        (1e308, None, "kernel norm"),
        (2.4e154, None, "kernel norm"),
        (1.0, [[1e200, 0.0], [0.0, 0.0]], "coefficient mass"),
        (1.0, [[1.2e154, 1.2e154], [1.2e154, 0.0]], "coefficient mass"),
    ])
    def test_overflow_named(self, T, values, named):
        spec = constant_spec(Interval(0.0, T), (1, 2))
        if values is None:
            t = coefficient_tensor(spec, BasisSystem.LEGENDRE, (1, 1))
        else:
            t = CoefficientTensor(spec=spec, basis=BasisSystem.LEGENDRE, orders=(1, 1),
                                  values=np.array(values))
        with pytest.raises(NumericError, match=f"the {named} is not finite"):
            parseval_residual(spec, t)

    def test_spec_mismatch(self):
        spec = constant_spec(UNIT, (1, 2))
        other = constant_spec(UNIT, (1, 1))
        t = coefficient_tensor(spec, BasisSystem.LEGENDRE, (0, 0))
        with pytest.raises(DomainError):
            parseval_residual(other, t)


def _weights(*polys) -> tuple:
    return tuple(Weight(tuple(map(float, poly))) for poly in polys)


class TestExactMsReference:
    """The test oracle of the exact mean-square error for any component
    pattern, ||K||^2 - sum over G of <C, sigma C> (ROADMAP item 2)."""

    @settings(max_examples=40, deadline=None)
    @given(k=st.integers(1, 3), basis=st.sampled_from(list(BasisSystem)),
           polys=st.lists(st.lists(st.sampled_from([-1.0, 0.5, 1.0, 2.0]), min_size=1,
                                   max_size=3), min_size=3, max_size=3),
           orders=st.lists(st.integers(0, 4), min_size=3, max_size=3))
    def test_is_the_parseval_residual_when_all_components_differ(self, k, basis, polys,
                                                                 orders):
        spec = IntegralSpec(iv=UNIT, k=k, indices=tuple(range(1, k + 1)),
                            weights=_weights(*polys[:k]))
        tensor = coefficient_tensor(spec, basis, orders[:k])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # a residual clamped to 0
            parseval = parseval_residual(spec, tensor)
        assert exact_ms_reference(tensor) == pytest.approx(
            parseval, abs=1e-13 * kernel_l2_norm_sq(spec))

    @pytest.mark.parametrize("indices, polys, basis, orders, parseval, exact", [
        ((1, 1), ([1, -3], [1, -3]), BasisSystem.TRIGONOMETRIC, (4, 4), 0.14191, 0.16386),
        ((1, 1), ([0, 1], [1, -2, 3]), BasisSystem.TRIGONOMETRIC, (2, 2), 0.06241, 0.04010),
        ((1, 2, 1), ([1], [0, 1], [1]), BasisSystem.LEGENDRE, (1, 1, 1), 0.02624, 0.02580),
        ((1, 1, 1), ([1], [0, 1], [1, -2, 3]), BasisSystem.HAAR, (1, 1, 1), 0.07421, 0.01252),
        ((1, 1), ([1], [1]), BasisSystem.LEGENDRE, (0, 0), 0.25, 0.0),
    ], ids=["trig-1-3s", "trig-s-quadratic", "legendre-121", "haar-111", "legendre-unit"])
    def test_roadmap_item_2_rows(self, indices, polys, basis, orders, parseval, exact):
        # the Parseval residual misses the exact error in both directions
        spec = IntegralSpec(iv=UNIT, k=len(indices), indices=indices, weights=_weights(*polys))
        tensor = coefficient_tensor(spec, basis, orders)
        assert parseval_residual(spec, tensor) == pytest.approx(parseval, abs=5e-6)
        assert exact_ms_reference(tensor) == pytest.approx(exact, abs=5e-6)

    @pytest.mark.parametrize("basis, order, k", [
        (BasisSystem.LEGENDRE, 2, 3), (BasisSystem.TRIGONOMETRIC, 3, 4),
        (BasisSystem.HAAR, 3, 3), (BasisSystem.WALSH, 3, 2),
    ], ids=["legendre-2^3", "trigonometric-3^4", "haar-3^3", "walsh-3^2"])
    def test_equal_components_and_weights_closed_form(self, basis, order, k):
        # every component and weight equal, psi = 1 + 2s, c_j the 1-D
        # coefficients of psi: ((int psi^2)^k - (sum c_j^2)^k) / k!
        psi = _weights([1, 2])
        tensor = coefficient_tensor(IntegralSpec(UNIT, k, (1,) * k, psi * k), basis, (order,) * k)
        line = IntegralSpec(UNIT, 1, (1,), psi)
        c = coefficient_tensor(line, basis, (order,)).values
        closed = (kernel_l2_norm_sq(line) ** k - float(np.sum(c * c)) ** k) / math.factorial(k)
        assert abs(exact_ms_reference(tensor) - closed) <= 2e-14


class TestErrorBounds:
    def test_ms_bound(self):
        assert ms_error_bound(1, 0.25) == 0.25
        assert ms_error_bound(3, 0.1) == pytest.approx(0.6)
        assert ms_error_bound(2, 1.0 / 12.0) == pytest.approx(1.0 / 6.0)

    def test_ms_bound_guards(self):
        with pytest.raises(CapacityError):
            ms_error_bound(21, 0.1)
        with pytest.raises(DomainError):
            ms_error_bound(2, -0.1)

    def test_moment_bound_values(self):
        assert moment_bound_2n(1, 1, 0.37) == pytest.approx(0.37)
        assert moment_bound_2n(1, 2, 0.25) == pytest.approx(1.0)
        assert moment_bound_2n(2, 2, 0.1) == pytest.approx(17.28, rel=1e-12)

    def test_moment_bound_guards(self):
        with pytest.raises(DomainError):
            moment_bound_2n(0, 2, 0.1)
        with pytest.raises(DomainError):
            moment_bound_2n(1, 2, -0.1)
        with pytest.raises(CapacityError):
            moment_bound_2n(40, 20, 1e200)

    @pytest.mark.parametrize("n, k", [(10**5, 2), (1, 10**6)])
    def test_moment_bound_overflow_is_refused_before_big_integer_work(self, n, k):
        # forming (2n - 1)!! or k! first took 4.9 s and 10.8 s here
        start = time.perf_counter()
        with pytest.raises(CapacityError, match=f"overflows for n={n}, k={k}"):
            moment_bound_2n(n, k, 0.1)
        assert time.perf_counter() - start < 0.1

    def test_moment_bound_screen_refuses_only_overflows(self):
        # around the float range of k! (k = 171) and (2n - 1)!! (n = 151), a
        # call returns the bits of the plain formula or overflows in both
        for n, k, residual in itertools.product(range(1, 161), (1, 2, 3, 169, 170, 171, 172),
                                                (0.0, 1e-300, 0.1)):
            try:
                expected = (float(math.factorial(k)) ** (2 * n)
                            * float(n * (2 * n - 1)) ** (n * (k - 1))
                            * math.prod(range(1, 2 * n, 2)) * residual**n)
            except OverflowError:
                expected = math.inf
            if math.isinf(expected):
                with pytest.raises(CapacityError):
                    moment_bound_2n(n, k, residual)
            else:
                got = moment_bound_2n(n, k, residual)
                assert got == expected or (math.isnan(got) and math.isnan(expected))


class TestTableFormat:
    def test_round_trip_is_bit_exact(self, tmp_path):
        w = Weight((1.0, -0.375))
        spec = IntegralSpec(iv=Interval(0.25, 1.75), k=2, indices=(1, 2), weights=(w, w))
        t = coefficient_tensor(spec, BasisSystem.TRIGONOMETRIC, (3, 2))
        path = tmp_path / "table.csv"
        write_coefficient_table(path, t)
        back = read_coefficient_table(path)
        assert back.spec == t.spec
        assert back.basis is t.basis
        assert back.orders == t.orders
        assert np.array_equal(back.values, t.values)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_round_trip_property(self, data):
        # any finite values (signed zeros and subnormals included) under
        # random specs, orders and bases come back with the same bytes
        finite = st.floats(allow_nan=False, allow_infinity=False)
        k = data.draw(st.integers(1, 3), "k")
        t = data.draw(st.floats(-1e6, 1e6), "t")
        iv = Interval(t, t + data.draw(st.floats(1e-3, 1e3), "length"))
        weights = tuple(Weight(tuple(data.draw(st.lists(finite, min_size=1, max_size=3))))
                        for _ in range(k))
        indices = tuple(data.draw(st.lists(st.integers(0, 4), min_size=k, max_size=k)))
        orders = tuple(data.draw(st.lists(st.integers(0, 3), min_size=k, max_size=k)))
        basis = data.draw(st.sampled_from(list(BasisSystem)), "basis")
        values = data.draw(arrays(np.float64, tuple(p + 1 for p in orders), elements=finite))
        spec = IntegralSpec(iv=iv, k=k, indices=indices, weights=weights)
        tensor = CoefficientTensor(spec=spec, basis=basis, orders=orders, values=values)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "table.csv"
            write_coefficient_table(path, tensor)
            back = read_coefficient_table(path)
        assert back.spec == spec
        assert back.basis is basis
        assert back.orders == orders
        assert back.values.tobytes() == values.tobytes()

    def test_row_order_j1_fastest(self, tmp_path):
        spec = constant_spec(UNIT, (1, 2))
        t = coefficient_tensor(spec, BasisSystem.LEGENDRE, (1, 1))
        path = tmp_path / "table.csv"
        write_coefficient_table(path, t)
        rows = [line.split(",")[:2] for line in path.read_text().splitlines()[2:]]
        assert rows == [["0", "0"], ["1", "0"], ["0", "1"], ["1", "1"]]

    def test_blank_lines_between_rows_read_back(self, tmp_path):
        spec = constant_spec(UNIT, (1, 2))
        t = coefficient_tensor(spec, BasisSystem.HAAR, (3, 2))
        path = tmp_path / "table.csv"
        write_coefficient_table(path, t)
        text = path.read_text()
        lines = text.splitlines()
        path.write_text("\n".join(lines[:2] + [f"\n  {row}\t\n" for row in lines[2:]]) + "\n\n")
        back = read_coefficient_table(path)
        assert back.values.tobytes() == t.values.tobytes()
        write_coefficient_table(path, back)
        assert path.read_text() == text

    def test_read_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("not json\n")
        with pytest.raises(DomainError):
            read_coefficient_table(path)

    @pytest.mark.parametrize("edit, got", [
        (lambda lines: [lines[0], "this is not the column header"] + lines[2:],
         "'this is not the column header'"),
        (lambda lines: lines[:1] + lines[2:], "'0,0,"),
    ], ids=["wrong", "missing"])
    def test_read_checks_the_column_header(self, tmp_path, edit, got):
        spec = constant_spec(UNIT, (1, 2))
        path = tmp_path / "table.csv"
        write_coefficient_table(path, coefficient_tensor(spec, BasisSystem.LEGENDRE, (1, 1)))
        path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
        with pytest.raises(DomainError, match="line 2 must be the column header "
                                              f"'j1,j2,value', got {got}"):
            read_coefficient_table(path)

    def test_read_caps_the_header_orders(self, tmp_path, monkeypatch):
        spec = constant_spec(UNIT, (1, 2))
        path = tmp_path / "table.csv"
        write_coefficient_table(path, coefficient_tensor(spec, BasisSystem.LEGENDRE, (9, 9)))
        monkeypatch.setattr(errors, "MAX_ENTRIES", 99)
        with pytest.raises(CapacityError):
            read_coefficient_table(path)

    def test_read_rejects_missing_rows(self, tmp_path):
        spec = constant_spec(UNIT, (1, 2))
        t = coefficient_tensor(spec, BasisSystem.LEGENDRE, (1, 1))
        path = tmp_path / "table.csv"
        write_coefficient_table(path, t)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(DomainError):
            read_coefficient_table(path)

    # each edit of the rows (text lines after the column header) at row i,
    # as test_cli.py::test_malformed_table_named makes them on one table
    ROW_EDITS = {
        "index": lambda rows, i: rows.__setitem__(i, "1.5," + rows[i].split(",", 1)[1]),
        "value": lambda rows, i: rows.__setitem__(i, rows[i].rsplit(",", 1)[0] + ",abc"),
        "value-only": lambda rows, i: rows.__setitem__(i, rows[i].rsplit(",", 1)[1]),
        "swapped": lambda rows, i: rows.insert(i - 1 if i else 1, rows.pop(i)),
        "duplicated": lambda rows, i: rows.insert(i, rows[i]),
        "out-of-range": lambda rows, i: rows.__setitem__(i, "9" + rows[i].split(",", 1)[1]),
        "zero-padded": lambda rows, i: rows.__setitem__(i, "0" + rows[i]),
        "extra": lambda rows, i: rows.insert(i + 1, rows[i].rsplit(",", 1)[0] + ",0.5"),
        "missing": lambda rows, i: rows.pop(i),
        "ends": lambda rows, i: rows.__delitem__(slice(i, None)),
        "nan": lambda rows, i: rows.__setitem__(i, rows[i].rsplit(",", 1)[0] + ",nan"),
        "inf": lambda rows, i: rows.__setitem__(i, rows[i].rsplit(",", 1)[0] + ",-inf"),
        "overflow": lambda rows, i: rows.__setitem__(i, rows[i].rsplit(",", 1)[0] + ",1e999"),
        "blank": lambda rows, i: rows.insert(i, ""),
        "whitespace": lambda rows, i: rows.__setitem__(i, f" \t{rows[i]}  "),
    }

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_blocks_match_the_row_reference(self, data):
        # at any block size, the block writer writes the reference's bytes,
        # and on any edit of a row (the first and last rows of a block among
        # them) the block reader reads the same values or names the same row
        special = st.sampled_from([-0.0, 5e-324, 2.2250738585072014e-308, 1e-310, 1e308,
                                   -1e308, 0.1, 1 / 3])
        finite = st.one_of(special, st.floats(allow_nan=False, allow_infinity=False))
        k = data.draw(st.integers(1, 4), "k")
        orders = tuple(data.draw(st.lists(st.integers(0, 4), min_size=k, max_size=k)))
        values = data.draw(arrays(np.float64, tuple(p + 1 for p in orders), elements=finite))
        tensor = CoefficientTensor(spec=constant_spec(UNIT, (1,) * k),
                                   basis=BasisSystem.LEGENDRE, orders=orders, values=values)
        block = data.draw(st.sampled_from([1, 2, 3, 5, coefficients.BLOCK_ROWS]), "block")
        n = values.size
        edges = sorted({0, n - 1} | {j for b in range(block, n, block) for j in (b - 1, b)})
        i = data.draw(st.one_of(st.sampled_from(edges), st.integers(0, n - 1)), "row")
        edit = data.draw(st.sampled_from(sorted(self.ROW_EDITS)), "edit")
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            mp.setattr(coefficients, "BLOCK_ROWS", block)
            path, ref = Path(tmp) / "table.csv", Path(tmp) / "reference.csv"
            write_coefficient_table(path, tensor)
            write_table_reference(ref, tensor)
            text = path.read_text()
            assert text == ref.read_text()
            lines = text.splitlines()
            rows = lines[2:]
            self.ROW_EDITS[edit](rows, i)
            path.write_text("\n".join(lines[:2] + rows) + "\n")
            outcomes = []
            for read in (read_coefficient_table, read_table_reference):
                try:
                    outcomes.append(read(path).values.tobytes())
                except DomainError as exc:
                    outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]

    @pytest.mark.parametrize("orders, rows", [
        ((7,), ["0", "1", "2", "3", "4", "5", "6", "7"]),
        ((1, 3), ["0,0", "1,0", "0,1", "1,1", "0,2", "1,2", "0,3", "1,3"]),
        ((1, 1, 1), ["0,0,0", "1,0,0", "0,1,0", "1,1,0", "0,0,1", "1,0,1", "0,1,1", "1,1,1"]),
    ], ids=["k1", "k2", "k3"])
    def test_table_bytes_are_pinned(self, tmp_path, orders, rows):
        # the written text of a tensor built by hand, which no BLAS kernel
        # or numpy version can move: signed zero, the smallest subnormal and
        # normal, the largest power of ten, and values that 17 digits do not
        # end
        k = len(orders)
        values = np.array([-0.0, 5e-324, 2.2250738585072014e-308, 1e308, 0.1, 1 / 3, 2.0, 1e-05])
        tensor = CoefficientTensor(spec=constant_spec(UNIT, (1,) * k), basis=BasisSystem.LEGENDRE,
                                   orders=orders,
                                   values=values.reshape([p + 1 for p in orders], order="F"))
        weights = ", ".join(['{"poly": [1.0]}'] * k)
        header = ('{"basis": "legendre", "format_version": "1", "orders": '
                  f'{list(orders)}, "spec": {{"T": 1.0, "indices": {[1] * k}, "k": {k}, '
                  f'"t": 0.0, "weights": [{weights}]}}}}')
        texts = ["-0", "4.9406564584124654e-324", "2.2250738585072014e-308", "1e+308",
                 "0.10000000000000001", "0.33333333333333331", "2", "1.0000000000000001e-05"]
        path = tmp_path / "table.csv"
        write_coefficient_table(path, tensor)
        assert path.read_text() == "\n".join(
            [header, ",".join(f"j{l + 1}" for l in range(k)) + ",value"]
            + [f"{r},{v}" for r, v in zip(rows, texts)]) + "\n"

    @pytest.mark.parametrize("orders", [(2**16 - 1,), (2**13 - 1, 7)], ids=["k1", "k2-long-slice"])
    def test_tables_are_written_and_read_a_block_at_a_time(self, tmp_path, orders):
        # tables of 16 blocks, a k = 1 table and a k = 2 table whose j_2
        # slices are two blocks long: the writer holds at most 6 blocks'
        # text at once, and the reader 10 beyond the tensor it returns (or
        # the tensor twice, while it reshapes), so neither holds the text
        spec = constant_spec(UNIT, (1,) * len(orders))
        values = np.random.default_rng(1).standard_normal([p + 1 for p in orders])
        tensor = CoefficientTensor(spec=spec, basis=BasisSystem.LEGENDRE, orders=orders,
                                   values=values)
        path = tmp_path / "table.csv"
        tracemalloc.start()
        try:
            write_coefficient_table(path, tensor)
            _, write_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            back = read_coefficient_table(path)
            _, read_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        text = os.path.getsize(path)
        block = text / values.size * coefficients.BLOCK_ROWS
        assert text > 15 * block
        assert write_peak < 6 * block
        assert read_peak < values.nbytes + max(values.nbytes, 10 * block) < text
        assert back.values.tobytes() == values.tobytes()


# Largest error of a Haar or Walsh tensor against exact arithmetic, in eps
# times the largest entry of the tensor with |psi| and |phi|, for k <= 3,
# orders <= 7 and weights of degree <= 2: the exact-degree plan read at most
# 2.6 over 3 587 random configs on [0, 1] and [0, 4] (the 16-node plan 2.1)
DYADIC_EPS_BOUND = 4.0


class TestDyadicExact:
    def test_oracle_meets_the_closed_forms(self):
        # unit weights, k = 2: C_00 = (T - t) / 2, and the orders 2**d - 1
        # leave (T - t)**2 2**-(d + 2) of the kernel's (T - t)**2 / 2
        for basis in (BasisSystem.HAAR, BasisSystem.WALSH):
            for iv in (UNIT, Interval(0.0, 4.0)):
                exact = exact_dyadic_coefficients(constant_spec(iv, (1, 2)), basis, (7, 7))
                assert exact[0, 0] == iv.length / 2
                assert math.fsum(exact.ravel() ** 2) == pytest.approx(
                    iv.length**2 * (0.5 - 2.0**-5), rel=1e-15)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_haar_and_walsh_against_exact_arithmetic(self, data):
        k = data.draw(st.integers(1, 3))
        basis = data.draw(st.sampled_from([BasisSystem.HAAR, BasisSystem.WALSH]))
        iv = data.draw(st.sampled_from([UNIT, Interval(0.0, 4.0)]))
        orders = tuple(data.draw(st.lists(st.integers(0, 7), min_size=k, max_size=k)))
        coeff = st.builds(lambda p, q: p / q, st.integers(-4, 4),
                          st.sampled_from([1, 2, 3, 4, 8]))
        weights = tuple(Weight(tuple(data.draw(st.lists(coeff, min_size=1, max_size=3))))
                        for _ in range(k))
        spec = IntegralSpec(iv=iv, k=k, indices=(1,) * k, weights=weights)
        got = coefficient_tensor(spec, basis, orders).values
        exact = exact_dyadic_coefficients(spec, basis, orders)
        scale = np.max(exact_dyadic_coefficients(spec, basis, orders, absolute=True))
        assert np.max(np.abs(got - exact)) <= DYADIC_EPS_BOUND * np.finfo(float).eps * scale


# Largest error of a Legendre tensor against exact arithmetic, in eps times
# the L2 norm of the kernel (which bounds every coefficient), for k <= 3,
# orders <= 8 and weights of degree <= 2: 54 over 8 700 random configs on
# [0, 1] and [0, 4], 1 300 of them at k = 3 and orders 6 to 8
LEGENDRE_EPS_BOUND = 80.0


class TestLegendreExact:
    def test_oracle_meets_the_closed_forms(self):
        # unit weights, k = 2: C_00 = (T - t) / 2 and
        # C_{j,j+1} = -C_{j+1,j} = (T - t) / (2 sqrt((2j + 1) (2j + 3))), zero elsewhere
        for iv in (UNIT, Interval(0.0, 4.0)):
            exact = exact_legendre_coefficients(constant_spec(iv, (1, 2)), (8, 8))
            closed = np.zeros((9, 9))
            closed[0, 0] = iv.length / 2
            for j in range(8):
                closed[j, j + 1] = iv.length / (2 * math.sqrt((2 * j + 1) * (2 * j + 3)))
                closed[j + 1, j] = -closed[j, j + 1]
            np.testing.assert_allclose(exact, closed, rtol=4e-16, atol=0)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_legendre_against_exact_arithmetic(self, data):
        k = data.draw(st.integers(1, 3))
        iv = data.draw(st.sampled_from([UNIT, Interval(0.0, 4.0)]))
        orders = tuple(data.draw(st.lists(st.integers(0, 8), min_size=k, max_size=k)))
        coeff = st.builds(lambda p, q: p / q, st.integers(-4, 4),
                          st.sampled_from([1, 2, 3, 4, 8]))
        weights = tuple(Weight(tuple(data.draw(st.lists(coeff, min_size=1, max_size=3))))
                        for _ in range(k))
        spec = IntegralSpec(iv=iv, k=k, indices=(1,) * k, weights=weights)
        got = coefficient_tensor(spec, BasisSystem.LEGENDRE, orders).values
        exact = exact_legendre_coefficients(spec, orders)
        scale = math.sqrt(kernel_l2_norm_sq(spec))
        assert np.max(np.abs(got - exact)) <= LEGENDRE_EPS_BOUND * np.finfo(float).eps * scale


# The sweep README's trigonometric bound is checked on: four intervals,
# weights whose signs alternate, of degree 0 and 7 (the largest gaps and
# bounds of the full sweep, degree 3 included, came at degree 7), and seven
# order sets, the costly (200,) at degree 7 only
BOUND_INTERVALS = [UNIT, Interval(0.1, 0.7), Interval(2.5, 7.5), Interval(0.0, 100.0)]
BOUND_CONFIGS = [(7, (200,))] + [(degree, orders) for degree in (0, 7) for orders in
                                 ((60,), (40, 40), (10, 25), (3, 7), (16, 16, 16), (4, 4, 4, 4))]


def _alternating_weights(degree: int, k: int) -> tuple:
    """psi_l(s) = sum_q (-1)**(q + l) (q + 1) / (l + 2) (s - t)**q."""
    return tuple(Weight(tuple((-1) ** (q + l) * (q + 1) / (l + 2) for q in range(degree + 1)))
                 for l in range(k))


class TestTrigonometricBound:
    @pytest.mark.parametrize("iv", BOUND_INTERVALS, ids=["unit", "short", "shifted", "long"])
    def test_plan_meets_its_bound(self, iv):
        # the tensor on the plan and on the grid that splits each panel in
        # four differ by less than the two bounds, and the plan's is below
        # 1e-12 of the largest entry
        trig = BasisSystem.TRIGONOMETRIC
        for degree, orders in BOUND_CONFIGS:
            spec = IntegralSpec(iv=iv, k=len(orders), indices=(1,) * len(orders),
                                weights=_alternating_weights(degree, len(orders)))
            plan = coefficients._quad_plan(spec, trig, orders)
            values = coefficient_tensor(spec, trig, orders).values
            finer = quadrature.panel_grid(np.linspace(iv.t, iv.T, 4 * plan.n_panels + 1),
                                          plan.nodes)
            gap = np.max(np.abs(values - coefficients._sweep(spec, trig, orders, finer)))
            bound = trigonometric_error_bound(spec, orders, plan)
            assert gap <= bound + trigonometric_error_bound(spec, orders, finer), (degree, orders)
            assert bound < 1e-12 * np.max(np.abs(values)), (degree, orders)

    def test_bound_holds_where_quadrature_does_not_converge(self):
        # 2 to 6 panels of 16 nodes leave 30 periods unresolved: errors of
        # 1e-7 to 1, which the truncation term must still bound
        trig = BasisSystem.TRIGONOMETRIC
        spec = IntegralSpec(iv=UNIT, k=1, indices=(1,), weights=(Weight((1.0, -2.0, 3.0)),))
        fine = quadrature.panel_grid(np.linspace(0.0, 1.0, 801), 24)
        exact = coefficients._sweep(spec, trig, (60,), fine)
        for panels in range(2, 7):
            coarse = quadrature.panel_grid(np.linspace(0.0, 1.0, panels + 1), 16)
            err = np.max(np.abs(coefficients._sweep(spec, trig, (60,), coarse) - exact))
            assert 1e-8 < err <= (trigonometric_error_bound(spec, (60,), coarse)
                                  + trigonometric_error_bound(spec, (60,), fine)), panels


def test_sum_squared_matches_numpy():
    rng = np.random.default_rng(3)
    spec = constant_spec(UNIT, (1, 2))
    vals = rng.standard_normal((4, 4))
    t = CoefficientTensor(spec=spec, basis=BasisSystem.LEGENDRE, orders=(3, 3), values=vals)
    assert sum_squared(t) == pytest.approx(float(np.sum(vals**2)), rel=1e-14)
    assert sum_squared(t) == math.fsum(float(v) * float(v) for v in vals.ravel())
    # above 2**20 entries the sum stays exact (np.sum differs for seeds 3, 7, 9)
    for seed in (3, 7, 9):
        vals = np.random.default_rng(seed).standard_normal(2**20 + 1)
        big = CoefficientTensor(spec=constant_spec(UNIT, (1,)), basis=BasisSystem.LEGENDRE,
                                orders=(2**20,), values=vals)
        assert sum_squared(big) == math.fsum(float(v) * float(v) for v in vals), seed


# the largest value whose square is finite
_ROOT_MAX = math.sqrt(np.finfo(float).max)
_roots = st.one_of(
    st.floats(-_ROOT_MAX, _ROOT_MAX),  # zeros and subnormals among them
    st.sampled_from([0.0, -0.0, 5e-324, -2.5e-308, 1e-154, 1.5e-154, 1e154, -_ROOT_MAX]),
    st.floats(1e153, _ROOT_MAX),  # squares near the float range, sums past it
    st.builds(math.ldexp, st.floats(-1.0, 1.0), st.integers(-1074, 511)),  # 2**-1074..2**511
)


@settings(max_examples=400, deadline=None)
@given(values=st.lists(_roots, min_size=1, max_size=40), block=st.sampled_from([1, 3, 7, 2**20]))
def test_sum_squared_is_the_fsum_reference(values, block):
    # every square finite: the correctly rounded sum, bit for bit, or both
    # overflow; blocks of 1, 3 and 7 squares split most lists into several
    tensor = CoefficientTensor(spec=constant_spec(UNIT, (1,)), basis=BasisSystem.LEGENDRE,
                               orders=(len(values) - 1,), values=np.array(values))
    try:
        want = sum_squared_reference(tensor).hex()
    except OverflowError:
        want = "overflow"
    with mock.patch.object(coefficients, "SUM_BLOCK", block):
        try:
            got = sum_squared(tensor).hex()
        except OverflowError:
            got = "overflow"
    assert got == want


def test_an_overflowing_square_gives_inf():
    # even beside finite squares whose sum overflows
    values = np.array([1.2e154, 1.2e154, 1e200, 1.0])
    tensor = CoefficientTensor(spec=constant_spec(UNIT, (1,)), basis=BasisSystem.LEGENDRE,
                               orders=(3,), values=values)
    with np.errstate(over="ignore"):
        assert sum_squared(tensor) == math.inf

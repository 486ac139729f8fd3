import itertools
import tempfile
import warnings
import math
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import itofourier.basis
from itofourier import coefficients, errors, quadrature
from itofourier.basis import BasisSystem, Interval, breakpoints, eval_basis, jumps
from itofourier.coefficients import (CoefficientTensor, coefficient_tensor, parseval_residual,
                                     read_coefficient_table, sum_squared,
                                     write_coefficient_table)
from itofourier.errors import BasisIndexError, CapacityError, DomainError, NumericError
from itofourier.kernel import IntegralSpec, Weight, constant_spec, eval_weight, kernel_l2_norm_sq
from itofourier.validation import moment_bound_2n, ms_error_bound

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

    def test_walsh_plan_asks_for_one_jump_set(self, monkeypatch):
        calls = []
        for module, name in ((coefficients, "jumps"), (itofourier.basis, "breakpoints")):
            original = getattr(module, name)
            monkeypatch.setattr(module, name,
                                lambda *a, _f=original, _n=name: calls.append((_n,) + a) or _f(*a))
        coefficient_tensor(constant_spec(UNIT, (1, 2)), BasisSystem.WALSH, (255, 3))
        assert calls == [("jumps", BasisSystem.WALSH, 255, UNIT)]

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
        for nodes in (16, 24, 41):
            quadrature.cumulative_matrix(nodes)
        misses = quadrature.cumulative_matrix.cache_info().misses
        for nodes in (16, 24, 41, 16, 24, 41):
            quadrature.cumulative_matrix(nodes)
        assert quadrature.cumulative_matrix.cache_info().misses == misses

    def test_node_cap_admits_the_largest_legendre_orders(self, monkeypatch):
        monkeypatch.setattr(coefficients, "panel_grid", lambda edges, nodes: nodes)
        spec = constant_spec(UNIT, (1, 2))
        plan = coefficients._quad_plan(spec, BasisSystem.LEGENDRE, (1000, 1000))
        assert plan == 2003 <= coefficients.MAX_NODES

    @pytest.mark.parametrize("iv", [UNIT, Interval(2.5, 7.5), Interval(0.1, 0.7)],
                             ids=["unit", "shifted", "short"])
    def test_trigonometric_confirmation_grids_double_the_panels(self, iv, monkeypatch):
        panels = []
        real = coefficients.panel_grid

        def recording(*args, **kwargs):
            grid = real(*args, **kwargs)
            panels.append(grid.n_panels)
            return grid

        monkeypatch.setattr(coefficients, "panel_grid", recording)
        weights = (Weight((1.0,)), Weight((1.0, 1.0)), Weight((1.0,)))
        for indices, orders in (((1,), (60,)), ((1, 2), (5, 8)), ((1, 2, 1), (16, 16, 16))):
            spec = IntegralSpec(iv=iv, k=len(indices), indices=indices,
                                weights=weights[:len(indices)])
            panels.clear()
            coefficient_tensor(spec, BasisSystem.TRIGONOMETRIC, orders)
            assert len(panels) >= 2
            assert panels[1:] == [2 * n for n in panels[:-1]], (orders, panels)

    @pytest.mark.parametrize("basis, orders, cap", [
        # trigonometric (60,) plans 62 panels of 24 nodes for 61 rows:
        # 90 768 entries, over 10**4 on the planned grid and over 10**5 only
        # on the first panel-doubling grid
        (BasisSystem.TRIGONOMETRIC, (60,), 10**4),
        (BasisSystem.TRIGONOMETRIC, (60,), 10**5),
        # Legendre (40, 40, 40): 41**2 earlier-level rows times 124 nodes
        (BasisSystem.LEGENDRE, (40, 40, 40), 10**5),
    ], ids=["trigonometric-plan", "trigonometric-doubling", "legendre"])
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

    def test_spec_mismatch(self):
        spec = constant_spec(UNIT, (1, 2))
        other = constant_spec(UNIT, (1, 1))
        t = coefficient_tensor(spec, BasisSystem.LEGENDRE, (0, 0))
        with pytest.raises(DomainError):
            parseval_residual(other, t)


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

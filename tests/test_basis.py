import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from itofourier.basis import (BasisSystem, Interval, _walsh_mask, basis_matrix, basis_rows,
                              breakpoints, eval_basis, integrate_basis, jump_depth,
                              parse_basis)
from itofourier.errors import BasisIndexError, DomainError
from oracles import gram_matrix

ALL_SYSTEMS = list(BasisSystem)
UNIT = Interval(0.0, 1.0)
SHIFTED = Interval(2.5, 7.5)
PIECEWISE = (BasisSystem.HAAR, BasisSystem.WALSH)


def haar_level_position(j):
    """Reference decode of a flat Haar index j >= 1: levels are enumerated
    in blocks of 2**n indices, n = 0, 1, ..., and the position counts 1..2**n
    within the block."""
    n, first = 0, 1
    while j >= first + 2**n:
        first += 2**n
        n += 1
    return n, j - first + 1


def walsh_reference_mask(j, depth):
    """Bit depth - m set for each factor m of lex_walsh_subset(j)."""
    return sum(1 << (depth - m) for m in lex_walsh_subset(j))


def lex_walsh_subset(j):
    """Reference enumeration: the rank-th subset with maximum M = bit length
    of j, walking the lexicographic order of ascending tuples block by block."""
    m_max = j.bit_length()
    rank = j - (1 << (m_max - 1))
    subset = []
    lo = 1
    while True:
        if lo == m_max:
            subset.append(m_max)
            break
        a = lo
        while True:
            block = 1 if a == m_max else (1 << (m_max - 1 - a))
            if rank < block:
                break
            rank -= block
            a += 1
        subset.append(a)
        if a == m_max:
            break
        lo = a + 1
    return tuple(subset)


def oracle_unit(system: BasisSystem, j: int, u: np.ndarray) -> np.ndarray:
    """Haar by its support intervals and Walsh as a product of Rademacher
    factors r_m(u) = (-1)**floor(2**m u), on [0, 1]."""
    out = np.ones_like(u)
    if j == 0:
        return out
    if system is BasisSystem.HAAR:
        n, pos = haar_level_position(j)
        left, right = (pos - 1) / 2.0**n, pos / 2.0**n
        mid = (left + right) / 2.0
        amp = 2.0 ** (n / 2.0)
        return np.where((u >= left) & (u < mid), amp,
                        np.where((u >= mid) & (u < right), -amp, 0.0))
    for m in lex_walsh_subset(j):
        out = out * np.where(np.floor(2.0**m * u).astype(np.int64) % 2 == 0, 1.0, -1.0)
    return out


class TestInterval:
    def test_rejects_degenerate(self):
        with pytest.raises(DomainError):
            Interval(1.0, 1.0)
        with pytest.raises(DomainError):
            Interval(2.0, 1.0)
        with pytest.raises(DomainError):
            Interval(0.0, math.inf)

    def test_rejects_a_length_that_overflows(self):
        # both ends finite, but T - t is inf
        with pytest.raises(DomainError, match="T - t must be finite"):
            Interval(-1e308, 1e308)
        assert Interval(-1e308, 0.0).length == 1e308

    def test_length(self):
        assert Interval(2.5, 7.5).length == 5.0


class TestIndexMaps:
    def test_haar_levels(self):
        assert [haar_level_position(j) for j in (1, 2, 3, 4, 7)] == [
            (0, 1), (1, 1), (1, 2), (2, 1), (2, 4)]
        # the wavelet of level n and position pos is supported on
        # [(pos - 1) / 2**n, pos / 2**n] and jumps at its ends and midpoint
        for j in range(1, 1024):
            n, pos = haar_level_position(j)
            cuts = [(pos - 1) / 2**n, (2 * pos - 1) / 2 ** (n + 1), pos / 2**n]
            assert breakpoints(BasisSystem.HAAR, j, UNIT) == [c for c in cuts if 0 < c < 1]
            assert jump_depth(BasisSystem.HAAR, j) == n + 1

    def test_walsh_blocks_are_lex_within_increasing_max(self):
        subsets = [lex_walsh_subset(j) for j in range(1, 8)]
        assert subsets == [(1,), (1, 2), (2,), (1, 2, 3), (1, 3), (2, 3), (3,)]
        # block of max m occupies indices [2**(m-1), 2**m - 1]
        for j in range(1, 64):
            assert jump_depth(BasisSystem.WALSH, j) == lex_walsh_subset(j)[-1] == j.bit_length()

    def test_walsh_subset_matches_the_lexicographic_walk(self):
        rng = np.random.default_rng(5)
        high = [int(j) for j in rng.integers(1 << 12, 1 << 20, size=200)]
        js = list(range(1, 1 << 12)) + high + [2**19, 2**20 - 1]
        masks = _walsh_mask(np.array(js), 20).tolist()
        assert masks == [walsh_reference_mask(j, 20) for j in js]

    def test_walsh_enumeration_is_a_bijection(self):
        assert len(set(_walsh_mask(np.arange(1, 256), 8).tolist())) == 255

    def test_index_caps(self):
        with pytest.raises(BasisIndexError):
            eval_basis(BasisSystem.LEGENDRE, 2000, 0.5, UNIT)
        with pytest.raises(BasisIndexError):
            eval_basis(BasisSystem.HAAR, -1, 0.5, UNIT)
        with pytest.raises(BasisIndexError):
            breakpoints(BasisSystem.HAAR, 2**60, UNIT)

    def test_walsh_cap_is_twenty_factors(self):
        top = 2**20 - 1
        for call in (lambda j: breakpoints(BasisSystem.WALSH, j, UNIT),
                     lambda j: jump_depth(BasisSystem.WALSH, j),
                     lambda j: eval_basis(BasisSystem.WALSH, j, 0.3, UNIT),
                     lambda j: integrate_basis(BasisSystem.WALSH, j, UNIT)):
            with pytest.raises(BasisIndexError):
                call(top + 1)
        assert eval_basis(BasisSystem.WALSH, top, 0.3, UNIT) == float(oracle_unit(
            BasisSystem.WALSH, top, np.array([0.3]))[0])
        assert integrate_basis(BasisSystem.WALSH, top, UNIT) == 0.0
        # the last index of the block is the single factor r_20, which jumps at
        # every interior multiple of 2**-20
        assert lex_walsh_subset(top) == (20,)
        assert _walsh_mask(top, 20) == walsh_reference_mask(top, 20) == 1
        assert len(breakpoints(BasisSystem.WALSH, top, UNIT)) == top


class TestEval:
    def test_constant_members(self):
        assert eval_basis(BasisSystem.LEGENDRE, 0, 0.5, UNIT) == pytest.approx(1.0)
        assert eval_basis(BasisSystem.TRIGONOMETRIC, 0, 0.0, UNIT) == pytest.approx(1.0)
        for system in ALL_SYSTEMS:
            expected = 1.0 / math.sqrt(SHIFTED.length)
            assert eval_basis(system, 0, 3.25, SHIFTED) == pytest.approx(expected)

    def test_legendre_odd_vanishes_at_midpoint(self):
        for iv in (UNIT, SHIFTED):
            mid = (iv.t + iv.T) / 2
            assert eval_basis(BasisSystem.LEGENDRE, 1, mid, iv) == pytest.approx(0.0)
            assert eval_basis(BasisSystem.LEGENDRE, 5, mid, iv) == pytest.approx(0.0)

    def test_haar_first_wavelet(self):
        assert eval_basis(BasisSystem.HAAR, 1, 0.25, UNIT) == pytest.approx(1.0)
        assert eval_basis(BasisSystem.HAAR, 1, 0.75, UNIT) == pytest.approx(-1.0)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            eval_basis(BasisSystem.LEGENDRE, 0, 1.5, UNIT)
        with pytest.raises(DomainError):
            eval_basis(BasisSystem.HAAR, 1, -0.2, UNIT)

    def test_array_matches_scalar(self):
        s = np.linspace(0.0, 1.0, 17)
        for system in ALL_SYSTEMS:
            vals = eval_basis(system, 3, s, UNIT)
            scalars = [eval_basis(system, 3, float(x), UNIT) for x in s]
            np.testing.assert_allclose(vals, scalars, rtol=0, atol=0)

    def test_numpy_integer_index(self):
        for system in ALL_SYSTEMS:
            for j in (0, 3):
                want = eval_basis(system, j, 0.3, UNIT)
                for same in (np.int64(j), float(j), str(j)):  # read as every integer field
                    assert eval_basis(system, same, 0.3, UNIT) == want
            assert jump_depth(system, np.int64(3)) == jump_depth(system, 3)

    @pytest.mark.parametrize("call, named", [
        (lambda: basis_matrix(BasisSystem.TRIGONOMETRIC, 2.5, [0.3], UNIT), "2.5"),
        (lambda: eval_basis(BasisSystem.LEGENDRE, 2.7, 0.3, UNIT), "2.7"),
        (lambda: integrate_basis(BasisSystem.LEGENDRE, 0.5, UNIT), "0.5"),
        (lambda: basis_rows(BasisSystem.LEGENDRE, [0.5, 1.9], [0.3], UNIT), "0.5"),
        (lambda: basis_rows(BasisSystem.WALSH, np.array([1, 0], dtype=bool), [0.3], UNIT),
         "False"),
        (lambda: gram_matrix(BasisSystem.LEGENDRE, 1.5, UNIT), "1.5"),
        (lambda: eval_basis(BasisSystem.HAAR, 2.5, 0.3, UNIT), "2.5"),
        (lambda: breakpoints(BasisSystem.HAAR, 2.5, UNIT), "2.5"),
        (lambda: eval_basis(BasisSystem.LEGENDRE, True, 0.3, UNIT), "True"),
    ], ids=["matrix-float", "eval-float", "integrate-float", "rows-float", "rows-bool",
            "gram-float", "haar-float", "breakpoints-float", "eval-bool"])
    def test_non_integer_index_rejected(self, call, named):
        # no truncation, no booleans
        with pytest.raises(BasisIndexError, match=f"expected an integer, got .*{named}"):
            call()

    def test_basis_matrix_rows(self):
        s = np.linspace(0.1, 0.9, 9)
        for system in ALL_SYSTEMS:
            mat = basis_matrix(system, 6, s, UNIT)
            for j in range(7):
                assert np.array_equal(mat[j], eval_basis(system, j, s, UNIT))

    def test_piecewise_constant_oracle_at_breakpoints(self):
        # every jump point of every j < 256, where right-continuity decides
        pts = np.unique(np.concatenate(
            [breakpoints(system, j, UNIT) for system in PIECEWISE for j in range(256)]))
        pts = np.concatenate([[0.0, 1.0], pts])
        for system in PIECEWISE:
            mat = basis_matrix(system, 255, pts, UNIT)
            for j in range(256):
                want = oracle_unit(system, j, pts)
                assert np.array_equal(eval_basis(system, j, pts, UNIT), want)
                assert np.array_equal(mat[j], want)

    @pytest.mark.parametrize("j", [2**30 + 12345, 2**47 + 1, 2**48, 2**48 + 2**47 + 3,
                                   2**49 - 1])
    def test_haar_oracle_at_deep_jumps(self, j):
        # levels 30 to 48, at the support ends and midpoint, their float
        # neighbours, and the interval ends
        n, pos = haar_level_position(j)
        cuts = np.array([(pos - 1) / 2.0**n, (2 * pos - 1) / 2.0 ** (n + 1), pos / 2.0**n])
        pts = np.concatenate([[0.0, 1.0], cuts, np.nextafter(cuts, 0.0), np.nextafter(cuts, 1.0)])
        pts = pts[(pts >= 0.0) & (pts <= 1.0)]
        want = oracle_unit(BasisSystem.HAAR, j, pts)
        assert np.count_nonzero(want) >= 4
        assert basis_rows(BasisSystem.HAAR, [0, j], pts, UNIT)[1].tobytes() == want.tobytes()
        assert eval_basis(BasisSystem.HAAR, j, pts, UNIT).tobytes() == want.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(system=st.sampled_from(PIECEWISE), j=st.integers(0, 255),
           u=st.floats(0.0, 1.0))
    def test_piecewise_constant_oracle(self, system, j, u):
        want = oracle_unit(system, j, np.array([u]))
        assert np.array_equal(eval_basis(system, j, np.array([u]), UNIT), want)
        assert np.array_equal(basis_matrix(system, 255, [u], UNIT)[j], want)


class TestBreakpoints:
    def test_continuous_systems_have_none(self):
        assert breakpoints(BasisSystem.LEGENDRE, 5, UNIT) == []
        assert breakpoints(BasisSystem.TRIGONOMETRIC, 9, UNIT) == []

    def test_haar_level_one(self):
        assert breakpoints(BasisSystem.HAAR, 2, UNIT) == [0.25, 0.5]
        assert breakpoints(BasisSystem.HAAR, 1, UNIT) == [0.5]

    def test_walsh_single_factor(self):
        assert breakpoints(BasisSystem.WALSH, 1, UNIT) == [0.5]

    def test_walsh_jump_oracle(self):
        # brute-force oracle: compare values on both sides of every dyadic
        # candidate; listed breakpoints must be exactly the sign changes
        for j in range(1, 32):
            m_max = lex_walsh_subset(j)[-1]
            eps = 1.0 / 2.0 ** (m_max + 3)
            jumps = []
            for i in range(1, 2**m_max):
                c = i / 2.0**m_max
                if eval_basis(BasisSystem.WALSH, j, c - eps, UNIT) != \
                   eval_basis(BasisSystem.WALSH, j, c + eps, UNIT):
                    jumps.append(c)
            assert breakpoints(BasisSystem.WALSH, j, UNIT) == jumps

    def test_right_continuity_at_jumps(self):
        for system in (BasisSystem.HAAR, BasisSystem.WALSH):
            for j in range(1, 17):
                for b in breakpoints(system, j, UNIT):
                    here = eval_basis(system, j, b, UNIT)
                    right = eval_basis(system, j, b + 1e-9, UNIT)
                    assert here == pytest.approx(right, abs=1e-12)

    def test_breakpoints_scale_with_interval(self):
        pts = breakpoints(BasisSystem.HAAR, 2, SHIFTED)
        assert pts == [2.5 + 0.25 * 5.0, 2.5 + 0.5 * 5.0]


class TestIntegrate:
    def test_constant_row(self):
        for system in ALL_SYSTEMS:
            assert integrate_basis(system, 0, UNIT) == pytest.approx(1.0)
            assert integrate_basis(system, 0, SHIFTED) == pytest.approx(math.sqrt(5.0))

    def test_nonconstant_members_integrate_to_zero(self):
        for system in ALL_SYSTEMS:
            for j in range(1, 12):
                assert integrate_basis(system, j, UNIT) == pytest.approx(0.0, abs=1e-14)
                assert integrate_basis(system, j, SHIFTED) == pytest.approx(0.0, abs=1e-13)

    def test_quadrature_oracle(self):
        # dense trapezoid integration as an independent check
        s = np.linspace(0.0, 1.0, 2**16 + 1)
        for system in (BasisSystem.LEGENDRE, BasisSystem.TRIGONOMETRIC):
            for j in range(6):
                brute = np.trapezoid(eval_basis(system, j, s, UNIT), s)
                assert integrate_basis(system, j, UNIT) == pytest.approx(brute, abs=1e-8)


class TestGram:
    @pytest.mark.parametrize("system", ALL_SYSTEMS, ids=lambda s: s.value)
    @pytest.mark.parametrize("iv", [UNIT, SHIFTED], ids=["unit", "shifted"])
    def test_identity_to_1e10(self, system, iv):
        g = gram_matrix(system, 20, iv)
        assert np.max(np.abs(g - np.eye(21))) <= 1e-10

    def test_haar_walsh_exact(self):
        for system in (BasisSystem.HAAR, BasisSystem.WALSH):
            for iv in (UNIT, SHIFTED):
                g = gram_matrix(system, 20, iv)
                assert np.array_equal(g, np.eye(21))

    def test_small_cases(self):
        np.testing.assert_allclose(gram_matrix(BasisSystem.LEGENDRE, 0, UNIT),
                                   [[1.0]], atol=1e-15)
        g = gram_matrix(BasisSystem.TRIGONOMETRIC, 2, UNIT)
        assert np.max(np.abs(g - np.eye(3))) <= 1e-12

    def test_rejects_negative_p(self):
        with pytest.raises(DomainError):
            gram_matrix(BasisSystem.LEGENDRE, -1, UNIT)


class TestAffineInvariance:
    def test_legendre_and_trig(self):
        u = np.linspace(0.0, 1.0, 33)
        for system in (BasisSystem.LEGENDRE, BasisSystem.TRIGONOMETRIC):
            for j in range(13):
                on_unit = eval_basis(system, j, u, UNIT)
                s = SHIFTED.t + u * SHIFTED.length
                scaled = eval_basis(system, j, s, SHIFTED) * math.sqrt(SHIFTED.length)
                np.testing.assert_allclose(scaled, on_unit, rtol=1e-12, atol=1e-12)


class TestParseBasis:
    def test_accepted_names(self):
        assert parse_basis("Legendre") is BasisSystem.LEGENDRE
        assert parse_basis("TRIGONOMETRIC") is BasisSystem.TRIGONOMETRIC
        assert parse_basis("haar") is BasisSystem.HAAR
        assert parse_basis("walsh") is BasisSystem.WALSH
        assert parse_basis("rademacher-walsh") is BasisSystem.WALSH

    def test_unknown_name(self):
        with pytest.raises(DomainError):
            parse_basis("fourier")

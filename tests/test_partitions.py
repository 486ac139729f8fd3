import itertools
import math
import time

import pytest

from itofourier.errors import CapacityError, DomainError
from itofourier.partitions import PairPartition, pair_partitions, partition_count


def brute_involution_count(k):
    """Oracle: permutations equal to their own inverse."""
    count = 0
    for perm in itertools.permutations(range(k)):
        if all(perm[perm[i]] == i for i in range(k)):
            count += 1
    return count


class TestCounts:
    def test_worked_examples(self):
        assert partition_count(2, 1) == 1
        assert partition_count(4, 1) == 6
        assert partition_count(4, 2) == 3
        assert partition_count(5, 1) == 10
        assert partition_count(5, 2) == 15
        assert partition_count(6, 3) == 15

    def test_enumeration_matches_formula(self):
        for k in range(1, 11):
            for r in range(k // 2 + 1):
                assert len(pair_partitions(k, r)) == partition_count(k, r)

    def test_totals_are_involution_counts(self):
        for k, expected in ((4, 10), (5, 26)):
            assert brute_involution_count(k) == expected
            total = sum(partition_count(k, r) for r in range(k // 2 + 1))
            assert total == expected

    def test_huge_count_refused_before_big_integer_work(self):
        start = time.perf_counter()
        with pytest.raises(CapacityError, match=r"more than 10\*\*10000"):
            partition_count(10**6, 250000)
        assert time.perf_counter() - start < 1.0

    def test_count_cap_is_exact(self):
        # all-pairs counts (2r - 1)!! on either side of 10**10000
        below, above = math.prod(range(1, 2 * 2991, 2)), math.prod(range(1, 2 * 2992, 2))
        assert below <= 10**10000 < above
        assert partition_count(2 * 2991, 2991) == below
        with pytest.raises(CapacityError):
            partition_count(2 * 2992, 2992)

    def test_large_k_is_counted_exactly(self):
        # where log-gamma differences cancel, the screen must not misfire
        assert partition_count(10**30, 2) == math.comb(10**30, 4) * 3
        assert partition_count(10**30, 0) == 1

    def test_enumeration_screen_unchanged(self):
        parts = pair_partitions.__wrapped__(10**6, 0)  # uncached: 10**6 singles
        assert len(parts) == 1 and len(parts[0].singles) == 10**6

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            partition_count(3, 2)
        with pytest.raises(DomainError):
            pair_partitions(2, 2)
        with pytest.raises(DomainError):
            partition_count(0, 0)


class TestEnumeration:
    def test_k2_single_pair(self):
        parts = pair_partitions(2, 1)
        assert len(parts) == 1
        assert parts[0].pairs == ((1, 2),)
        assert parts[0].singles == ()

    def test_k4_two_pairs(self):
        got = [p.pairs for p in pair_partitions(4, 2)]
        assert got == [((1, 2), (3, 4)), ((1, 3), (2, 4)), ((1, 4), (2, 3))]

    def test_r0_is_all_singletons(self):
        parts = pair_partitions(5, 0)
        assert len(parts) == 1
        assert parts[0].pairs == ()
        assert parts[0].singles == (1, 2, 3, 4, 5)

    def test_canonical_form_and_coverage(self):
        for k in range(1, 9):
            for r in range(k // 2 + 1):
                parts = pair_partitions(k, r)
                assert len(set(parts)) == len(parts)
                keys = [(p.pairs, p.singles) for p in parts]
                assert keys == sorted(keys)
                for p in parts:
                    entries = sorted([g for pair in p.pairs for g in pair] + list(p.singles))
                    assert entries == list(range(1, k + 1))
                    assert all(a < b for a, b in p.pairs)
                    assert list(p.pairs) == sorted(p.pairs)


class TestPairPartitionType:
    def test_rejects_bad_forms(self):
        with pytest.raises(DomainError):
            PairPartition(pairs=((2, 1),), singles=())
        with pytest.raises(DomainError):
            PairPartition(pairs=((1, 2),), singles=(2,))
        with pytest.raises(DomainError):
            PairPartition(pairs=((1, 3), (2, 4)), singles=(6,))

    def test_format(self):
        part = PairPartition(pairs=((1, 2), (3, 4)), singles=(5,))
        assert part.format() == "(1 2)(3 4)|5"
        assert PairPartition(pairs=(), singles=(1, 2)).format() == "|1 2"

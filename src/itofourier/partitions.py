"""Partitions of {1..k} into r unordered pairs plus singletons.

These index the sign-alternating correction terms of the general expansion:
each partition selects r index pairs that must carry equal components and
equal basis indices, with the remaining k - 2r positions contributing plain
Gaussian factors.  The expansion contracts them without listing them;
acceptance criterion 1 and the benchmark's tracer call pair_partitions.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .errors import CapacityError, int_text, read_int

# Entries (partitions times k) one enumeration may hold; the largest of
# acceptance criterion 1 (k <= 10) holds 47 250
MAX_PARTITION_ENTRIES = 10**6


@dataclass(frozen=True)
class PairPartition:
    """Canonical form: pairs sorted internally and by first element,
    singles ascending; together they cover {1..k} exactly once."""

    pairs: tuple[tuple[int, int], ...]
    singles: tuple[int, ...]


def _matchings(elements: tuple[int, ...]):
    """Perfect matchings of an even-sized sorted tuple; the smallest
    unmatched element always leads the next pair."""
    if not elements:
        yield ()
        return
    head, rest = elements[0], elements[1:]
    for i, partner in enumerate(rest):
        remaining = rest[:i] + rest[i + 1:]
        for tail in _matchings(remaining):
            yield ((head, partner),) + tail


def pair_partitions(k: int, r: int) -> tuple[PairPartition, ...]:
    """All partitions of {1..k} into r pairs plus singletons, each exactly
    once in canonical form, ordered lexicographically by pair list.  Raises
    CapacityError before enumerating when they would hold more than
    MAX_PARTITION_ENTRIES entries, C(k, 2r) (2r - 1)!! k; a log-gamma
    estimate first screens out sizes too large to form exactly."""
    k = read_int("k", k, lo=1)
    r = read_int("r", r, 0, k // 2)
    cap = MAX_PARTITION_ENTRIES
    if (k > cap
            or math.lgamma(k + 1) - math.lgamma(k - 2 * r + 1) - math.lgamma(r + 1)
            - r * math.log(2.0) + math.log(k) > math.log(cap) + 1.0
            or math.comb(k, 2 * r) * math.prod(range(1, 2 * r, 2)) * k > cap):
        raise CapacityError(f"partitions of 1..k into r pairs would hold more than {cap} "
                            f"entries (k = {int_text(k)}, r = {int_text(r)})")
    out = []
    universe = tuple(range(1, k + 1))
    for paired in itertools.combinations(universe, 2 * r):
        singles = tuple(x for x in universe if x not in paired)
        for pairs in _matchings(paired):
            out.append(PairPartition(pairs=tuple(sorted(pairs)), singles=singles))
    out.sort(key=lambda p: (p.pairs, p.singles))
    return tuple(out)

"""Partitions of {1..k} into r unordered pairs plus singletons.

These index the sign-alternating correction terms of the general expansion:
each partition selects r index pairs that must carry equal components and
equal basis indices, with the remaining k - 2r positions contributing plain
Gaussian factors.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import CapacityError, DomainError

# Entries (partitions times k) one enumeration may hold; the largest of
# acceptance criterion 1 (k <= 10) holds 47 250
MAX_PARTITION_ENTRIES = 10**6
# Largest count partition_count forms (near it, a few ms of big-integer work)
MAX_PARTITION_COUNT = 10**10_000


@dataclass(frozen=True)
class PairPartition:
    """Canonical form: pairs sorted internally and by first element,
    singles ascending; together they cover {1..k} exactly once."""

    pairs: tuple[tuple[int, int], ...]
    singles: tuple[int, ...]

    def __post_init__(self):
        seen = sorted([g for p in self.pairs for g in p] + list(self.singles))
        k = len(seen)
        if seen != list(range(1, k + 1)):
            raise DomainError(f"partition entries must cover 1..{k} exactly once: {seen}")
        if any(a >= b for a, b in self.pairs):
            raise DomainError("each pair must be internally sorted")
        if list(self.pairs) != sorted(self.pairs) or list(self.singles) != sorted(self.singles):
            raise DomainError("pairs and singles must be in canonical order")

    @property
    def k(self) -> int:
        return 2 * len(self.pairs) + len(self.singles)

    def format(self) -> str:
        pairs = "".join(f"({a} {b})" for a, b in self.pairs)
        return pairs + "|" + " ".join(str(q) for q in self.singles)


def partition_count(k: int, r: int) -> int:
    """Number of partitions of {1..k} into r pairs and k-2r singletons,
    C(k, 2r) (2r - 1)!!.  Raises CapacityError when it exceeds
    MAX_PARTITION_COUNT.  Its logarithm screens first, without big-integer
    work: (2r - 1)!! by log-gamma, then C(k, 2r) as a sum over its 2r factors,
    which stays short and, unlike a log-gamma difference, exact at any k."""
    _check_kr(k, r)
    log_cap = math.log(MAX_PARTITION_COUNT) + 1.0
    log_count = math.lgamma(2 * r + 1) - math.lgamma(r + 1) - r * math.log(2.0)
    if log_count <= log_cap:
        log_count += math.fsum(math.log(k - i) - math.log(i + 1) for i in range(2 * r))
    if (log_count > log_cap or (count := math.comb(k, 2 * r) * math.prod(range(1, 2 * r, 2)))
            > MAX_PARTITION_COUNT):
        raise CapacityError(f"partitions of 1..{k} into {r} pairs number more than 10**10000")
    return count


def _check_kr(k: int, r: int) -> None:
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    if r < 0 or 2 * r > k:
        raise DomainError(f"need 0 <= 2r <= k, got k={k}, r={r}")


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


@lru_cache(maxsize=None)
def pair_partitions(k: int, r: int) -> tuple[PairPartition, ...]:
    """All partitions of {1..k} into r pairs plus singletons, each exactly
    once in canonical form, ordered lexicographically by pair list.  Raises
    CapacityError before enumerating when they would hold more than
    MAX_PARTITION_ENTRIES entries; a log-gamma estimate screens out counts
    too large to form exactly."""
    _check_kr(k, r)
    cap = MAX_PARTITION_ENTRIES
    if (k > cap
            or math.lgamma(k + 1) - math.lgamma(k - 2 * r + 1) - math.lgamma(r + 1)
            - r * math.log(2.0) + math.log(k) > math.log(cap) + 1.0
            or partition_count(k, r) * k > cap):
        raise CapacityError(f"partitions of 1..{k} into {r} pairs would hold more "
                            f"than {cap} entries")
    out = []
    universe = tuple(range(1, k + 1))
    for paired in itertools.combinations(universe, 2 * r):
        singles = tuple(x for x in universe if x not in paired)
        for pairs in _matchings(paired):
            out.append(PairPartition(pairs=tuple(sorted(pairs)), singles=singles))
    out.sort(key=lambda p: (p.pairs, p.singles))
    return tuple(out)

"""GF(2) vector helpers on integer bitmasks.

A length-r binary vector is stored as a Python int in [0, 2**r), bit i
holding coordinate i+1.  Addition is XOR.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Sequence

__all__ = [
    "vec_add",
    "rank",
    "span_set",
    "is_independent",
    "subset_sum_count",
    "subset_sum_table",
]

# Pools larger than this are counted by a meet-in-the-middle split instead
# of direct subset enumeration.
_ENUMERATION_LIMIT = 20


def vec_add(a: int, b: int) -> int:
    """Sum of two GF(2) vectors (bitwise XOR)."""
    return a ^ b


def rank(vectors: Iterable[int]) -> int:
    """Rank of a set of GF(2) vectors, by Gaussian elimination on ints."""
    pivots: dict[int, int] = {}  # leading bit position -> pivot vector
    for v in vectors:
        if v < 0:
            raise ValueError(f"GF(2) vector {v} is negative")
        while v:
            top = v.bit_length()
            p = pivots.get(top)
            if p is None:
                pivots[top] = v
                break
            v ^= p
    return len(pivots)


def span_set(vectors: Iterable[int]) -> set[int]:
    """All GF(2) combinations of `vectors` (includes 0)."""
    out = {0}
    for v in vectors:
        out |= {v ^ w for w in out}
    return out


def is_independent(vectors: Sequence[int]) -> bool:
    """True when the vectors are GF(2) linearly independent."""
    return rank(vectors) == len(vectors)


def subset_sum_count(pool: Sequence[int], targets: Iterable[int], size: int) -> int:
    """Number of `size`-subsets of `pool` whose XOR lies in `targets`.

    Convention: size 0 counts one subset (the empty one, XOR 0) when 0 is a
    target; negative sizes count nothing.  Elements of `pool` are treated as
    distinct slots even if equal as vectors.
    """
    if size < 0 or size > len(pool):
        return 0
    target_set = set(targets)
    if size == 0:
        return 1 if 0 in target_set else 0
    if len(pool) <= _ENUMERATION_LIMIT:
        total = 0
        for combo in combinations(pool, size):
            acc = 0
            for v in combo:
                acc ^= v
            if acc in target_set:
                total += 1
        return total
    return _subset_sum_mitm(pool, target_set, size)


def _xor_profiles(pool: Sequence[int], max_size: int) -> list[dict[int, int]]:
    """profiles[k][v] = number of k-subsets of `pool` with XOR v."""
    profiles: list[dict[int, int]] = [{0: 1}] + [dict() for _ in range(max_size)]
    for x in pool:
        for k in range(min(max_size, len(profiles) - 1), 0, -1):
            for v, c in profiles[k - 1].items():
                profiles[k][v ^ x] = profiles[k].get(v ^ x, 0) + c
    return profiles


def _subset_sum_mitm(pool: Sequence[int], targets: set[int], size: int) -> int:
    """Meet-in-the-middle count for large pools."""
    half = len(pool) // 2
    left = _xor_profiles(pool[:half], min(size, half))
    right = _xor_profiles(pool[half:], min(size, len(pool) - half))
    total = 0
    for a in range(max(0, size - (len(pool) - half)), min(size, half) + 1):
        b = size - a
        if b >= len(right):
            continue
        small, large = (left[a], right[b]) if len(left[a]) <= len(right[b]) else (right[b], left[a])
        for v, c in small.items():
            for t in targets:
                total += c * large.get(v ^ t, 0)
    return total


def subset_sum_table(pool: Sequence[int], r: int) -> list[list[int]]:
    """table[k][v] = number of k-subsets of `pool` with XOR v, for v < 2**r.

    Bulk companion to `subset_sum_count`; O(len(pool)**2 * 2**r).
    """
    m = len(pool)
    width = 1 << r
    table = [[0] * width for _ in range(m + 1)]
    table[0][0] = 1
    for i, x in enumerate(pool):
        for k in range(min(i + 1, m), 0, -1):
            prev = table[k - 1]
            row = table[k]
            for v in range(width):
                c = prev[v]
                if c:
                    row[v ^ x] += c
    return table

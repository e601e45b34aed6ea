"""GF(2) vector helpers on integer bitmasks.

A length-r binary vector is stored as a Python int in [0, 2**r), bit i
holding coordinate i+1.  Addition is XOR.

Subset-sum counts (how many k-subsets of a pool XOR to a given vector)
all come from one exact dynamic program, `subset_sum_layers`: each pool
element is one vectorized step over a (sizes x 2**r) count table.
`subset_sum_table` is its single-pool case, `subset_sum_count` one row.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "rank",
    "subset_sum_count",
    "subset_sum_table",
    "subset_sum_layers",
]


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


def subset_sum_count(pool: Sequence[int], targets: Iterable[int], size: int) -> int:
    """Number of `size`-subsets of `pool` whose XOR lies in `targets`.

    Convention: size 0 counts one subset (the empty one, XOR 0) when 0 is a
    target; negative sizes count nothing.  Elements of `pool` are treated as
    distinct slots even if equal as vectors.
    """
    if size < 0 or size > len(pool):
        return 0
    row = subset_sum_table(pool, max(pool, default=0).bit_length(), size)[size]
    return sum(int(row[t]) for t in set(targets) if 0 <= t < len(row))


def subset_sum_table(pool: Sequence[int], r: int, max_size: int | None = None) -> np.ndarray:
    """table[k, v] = number of k-subsets of `pool` with XOR v, for v < 2**r.

    Rows run over k = 0..top, where top is `max_size` capped at the pool
    size (the whole pool when None).  Entries are exact: int64 while the
    largest possible count fits, Python ints (dtype object) beyond.
    Costs O(len(pool) * top * 2**r).
    """
    return subset_sum_layers(pool, (), r, max_size)[0]


_TABLE_ENTRIES = 1 << 24  # the most entries `subset_sum_layers` builds (128 MiB in int64)


def subset_sum_layers(
    pool: Sequence[int], extras: Sequence[int], r: int, max_size: int | None = None
) -> np.ndarray:
    """Subset-sum tables of `pool` plus each subset of `extras`.

    layers[s] is the `subset_sum_table` of `pool` plus extras[i] for every
    bit i set in s, with rows up to the size of the largest of these
    pools (or `max_size`).  Each extra costs one step per layer it joins,
    so the pools share the steps over `pool`.  Raises ValueError before
    building anything when the layers would exceed 2**24 entries.
    """
    m = len(pool) + len(extras)
    top = m if max_size is None else max(0, min(max_size, m))
    width = 1 << r
    if not all(0 <= x < width for x in (*pool, *extras)):
        raise ValueError(f"pool elements must be vectors of GF(2)^{r}")
    entries = (1 << len(extras)) * (top + 1) * width
    if entries > _TABLE_ENTRIES:
        raise ValueError(f"subset-sum layers of {entries} entries, over their limit of 2**24")
    # the largest count any row can hold is C(m, k) for k <= top
    dtype = np.int64 if math.comb(m, min(top, m // 2)) < 1 << 63 else object
    layers = np.zeros((1 << len(extras), top + 1, width), dtype=dtype)
    layers[0, 0, 0] = 1
    index = np.arange(width)
    table = layers[0]
    for i, x in enumerate(pool):
        k = min(i + 1, top)
        # the gathered right-hand side is a copy, so the step reads the
        # counts from before x joined
        table[1 : k + 1] += table[:k, index ^ x]
    for i, x in enumerate(extras):
        low, high = layers[: 1 << i], layers[1 << i : 2 << i]
        high[...] = low
        high[:, 1:] += low[:, :-1][..., index ^ x]
    return layers

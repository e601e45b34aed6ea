import math
import random
from itertools import combinations

import numpy as np
import pytest

from condma import gf2


def test_rank():
    assert gf2.rank([1, 2, 4, 8]) == 4
    assert gf2.rank([1, 2, 3]) == 2
    # hand elimination: 15 = 1^2^4^8 adds nothing
    assert gf2.rank([1, 2, 4, 8, 15]) == 4
    assert gf2.rank([]) == 0
    assert gf2.rank([0, 0]) == 0


def test_subset_sum_count_examples():
    # 2^8^15 = 5, the single triple misses target 0
    assert gf2.subset_sum_count([2, 8, 15], [0], 3) == 0
    assert gf2.subset_sum_count([15], [5, 7, 13, 15], 1) == 1
    # empty-sum convention
    assert gf2.subset_sum_count([3, 9], [5], 0) == 0
    assert gf2.subset_sum_count([3, 9], [0], 0) == 1
    assert gf2.subset_sum_count([3], [0], -1) == 0
    assert gf2.subset_sum_count([3], [0], 2) == 0


def test_kernel_size_identity():
    # sum over l of the count hitting {0} is the kernel size 2^(m - rank)
    rng = random.Random(11)
    for _ in range(20):
        m = rng.randrange(1, 11)
        pool = [rng.randrange(1, 16) for _ in range(m)]
        total = sum(gf2.subset_sum_count(pool, [0], l) for l in range(m + 1))
        assert total == 1 << (m - gf2.rank(pool))


def test_mitm_matches_enumeration():
    # force the meet-in-the-middle path and compare with direct counting
    rng = random.Random(7)
    pool = [rng.randrange(1, 32) for _ in range(23)]
    targets = [0, 5, 17]
    for size in (0, 1, 2, 3, 21, 23):
        direct = 0
        for combo in combinations(pool, size):
            acc = 0
            for v in combo:
                acc ^= v
            direct += acc in targets
        assert gf2.subset_sum_count(pool, targets, size) == direct


def test_subset_sum_table():
    pool = [1, 2, 3, 9, 12]
    table = gf2.subset_sum_table(pool, 4)
    for k in range(len(pool) + 1):
        for v in range(16):
            assert table[k][v] == gf2.subset_sum_count(pool, [v], k)


def brute_table(pool, r, top):
    """table[k][v] by enumerating every subset of at most `top` elements."""
    table = [[0] * (1 << r) for _ in range(top + 1)]
    for k in range(top + 1):
        for combo in combinations(pool, k):
            acc = 0
            for v in combo:
                acc ^= v
            table[k][acc] += 1
    return table


@pytest.mark.parametrize("seed", range(6))
def test_table_matches_enumeration(seed):
    # repeated labels (and 0) count as separate slots
    rng = random.Random(seed)
    r = rng.randint(1, 5)
    pool = [rng.randrange(1 << r) for _ in range(rng.randint(0, 12))]
    for max_size in (None, 0, 1, 3, len(pool) + 2):
        top = len(pool) if max_size is None else min(max_size, len(pool))
        table = gf2.subset_sum_table(pool, r, max_size)
        assert table.shape == (top + 1, 1 << r)
        assert table.tolist() == brute_table(pool, r, top)


@pytest.mark.parametrize("seed", range(4))
def test_layers_extend_the_pool(seed):
    rng = random.Random(seed)
    r = rng.randint(1, 5)
    pool = [rng.randrange(1 << r) for _ in range(rng.randint(0, 9))]
    extras = [rng.randrange(1 << r) for _ in range(rng.randint(0, 3))]
    layers = gf2.subset_sum_layers(pool, extras, r)
    rows = len(pool) + len(extras) + 1
    assert layers.shape == (1 << len(extras), rows, 1 << r)
    for s in range(1 << len(extras)):
        grown = pool + [x for i, x in enumerate(extras) if s >> i & 1]
        want = brute_table(grown, r, len(grown))
        want += [[0] * (1 << r)] * (rows - len(want))
        assert layers[s].tolist() == want


def test_object_rows_are_exact_binomials():
    rng = random.Random(5)
    pool = [rng.randrange(1, 128) for _ in range(70)]
    table = gf2.subset_sum_table(pool, 7)
    assert table.dtype == object  # C(70, 35) > 2**63
    for k, row in enumerate(table.tolist()):
        assert sum(row) == math.comb(70, k)
    # a short table of the same pool still fits int64
    assert gf2.subset_sum_table(pool, 7, 4).dtype == np.int64
    # the dtype follows the largest pool, not the shared one
    assert gf2.subset_sum_table(pool[:66], 7).dtype == np.int64
    assert gf2.subset_sum_layers(pool[:66], pool[66:67], 7).dtype == object


def test_layers_over_the_entry_limit_are_refused(monkeypatch):
    # a pool of m zeros in GF(2)^0 gives an (m + 1) x 1 table
    monkeypatch.setattr(gf2, "_TABLE_ENTRIES", 40)
    assert gf2.subset_sum_table([0] * 39, 0).size == 40
    with pytest.raises(ValueError, match="41 entries"):
        gf2.subset_sum_table([0] * 40, 0)


def test_table_rejects_vectors_outside_the_space():
    with pytest.raises(ValueError):
        gf2.subset_sum_table([1, 16], 4)
    with pytest.raises(ValueError):
        gf2.subset_sum_table([1, -2], 4)
    with pytest.raises(ValueError):
        gf2.subset_sum_layers([1], [16], 4)


@pytest.mark.parametrize("seed", range(4))
def test_rank_is_permutation_invariant(seed):
    rng = random.Random(seed)
    vectors = [rng.randrange(16) for _ in range(8)]
    base = gf2.rank(vectors)
    for _ in range(5):
        rng.shuffle(vectors)
        assert gf2.rank(vectors) == base


def test_rank_matches_span_size():
    rng = random.Random(11)
    for _ in range(300):
        r = rng.randint(1, 6)
        vectors = [rng.randrange(1 << r) for _ in range(rng.randint(0, 9))]
        span = {0}
        for v in vectors:
            span |= {v ^ w for w in span}
        assert len(span) == 1 << gf2.rank(vectors)


def test_rank_rejects_negative_vectors():
    with pytest.raises(ValueError):
        gf2.rank([1, -3])

import random
from itertools import combinations
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condma import aberration
from condma.aberration import (
    FastEvaluator,
    KSequence,
    _lex_minimum,
    compare_k,
    entry_labels,
    k_sequence_direct,
    k_sequence_fast,
    q_polynomial,
    q_polynomial_table,
    q_value,
)
from condma.designs import DesignError, RegularSpec, check_conditions_regular, expand
from condma.modelmat import build_x_block
from condma.search import _histogram_classes
from condma.wordcounts import k_from_counts
from helpers import random_admissible_spec, random_valid_spec

FLAGSHIP = RegularSpec(r=4, columns=(1, 2, 4, 8, 15))
ROW6 = RegularSpec(r=4, columns=(1, 8, 2, 4, 7, 11))


def k_direct(matrix, s, l, h):
    """N**2 * K_sl(h) for one (s, l, h), straight from the X blocks."""
    gram = build_x_block(matrix, h, 1).T @ build_x_block(matrix, s, l)
    return int((gram**2).sum())


def agreement_counts(matrix):
    """c_uw: number of ordinary columns (5..n) where runs u and w agree."""
    tail = np.asarray(matrix)[:, 4:].astype(np.int64)
    return (tail.shape[1] + tail @ tail.T) // 2


def test_entry_labels_order():
    assert entry_labels(5) == [
        "K02(0)", "K02(1)", "K12(0)", "K12(1)", "K22(0)", "K22(1)",
        "K03(0)", "K03(1)", "K13(0)", "K13(1)", "K23(0)", "K23(1)",
    ]
    assert len(entry_labels(9)) == 6 * (9 - 3)


def test_ksequence_validates_length():
    KSequence(16, 5, (0,) * 12)
    with pytest.raises(ValueError):
        KSequence(16, 5, (0,) * 11)


def test_full_factorial_all_zero():
    mat = expand(RegularSpec(r=5, columns=(1, 2, 4, 8, 16)))
    assert set(k_sequence_direct(mat).values) == {0}
    assert set(k_sequence_fast(mat).values) == {0}


def test_flagship_values():
    # frozen from the direct-trace oracle; the counts route predicts the
    # same cells (K22(0) from A7[1]=1, K12(1) from 2*A52[1]=2)
    seq = k_sequence_direct(expand(FLAGSHIP))
    assert seq.alias_counts() == (0, 0, 0, 2, 1, 0, 0, 0, 0, 2, 2, 0)
    assert seq.values == tuple(256 * v for v in (0, 0, 0, 2, 1, 0, 0, 0, 0, 2, 2, 0))
    assert k_direct(expand(FLAGSHIP), 2, 2, 0) == 256
    assert k_direct(expand(FLAGSHIP), 1, 2, 1) == 512


def test_alias_counts_none_when_not_divisible():
    assert KSequence(16, 5, (1,) + (0,) * 11).alias_counts() is None


class TestQPolynomial:
    def test_base_cases(self):
        for c in range(0, 5):
            assert q_polynomial(0, c, 8) == 1
            assert q_polynomial(1, c, 8) == 2 * c - 4

    def test_frozen_value(self):
        # oracle: sum over 2-subsets of sign products with c=2 pluses of 4
        assert q_polynomial(2, 2, 8) == -2

    def test_all_agree_diagonal(self):
        for n in (6, 9, 12):
            for l in range(0, n - 3):
                assert q_polynomial(l, n - 4, n) == comb(n - 4, l)

    def test_matches_subset_product_oracle(self):
        # brute force: signs are +1 at c positions, -1 elsewhere; sum the
        # products over all l-subsets
        for n in range(5, 10):
            m = n - 4
            for c in range(0, m + 1):
                signs = [1] * c + [-1] * (m - c)
                for l in range(0, n - 1):
                    brute = 0
                    for combo in combinations(range(m), l):
                        prod = 1
                        for i in combo:
                            prod *= signs[i]
                        brute += prod
                    assert q_polynomial(l, c, n) == brute

    def test_integrality_high_n(self):
        # the recursion divides by l at every step and raises internally
        # on any remainder; completing the table is the integrality proof
        table = q_polynomial_table(20)
        assert table.dtype == np.int64
        # n=72: Q_34(n-4) = C(68, 34) > 2**63, so the table keeps Python ints
        table = q_polynomial_table(72)
        assert table.dtype == object
        assert table[34, 68] == comb(68, 34) > 2**63

    @pytest.mark.parametrize("n", [9, 20, 61, 72])
    def test_table_matches_scalar_recursion(self, n):
        # the table runs the recursion over every c at once; n=72 holds
        # Python ints
        table = q_polynomial_table(n)
        assert table.shape == (n - 1, n - 3)
        assert table.tolist() == [[q_polynomial(l, c, n) for c in range(n - 3)] for l in range(n - 1)]

    def test_table_is_shared_and_read_only(self):
        table = q_polynomial_table(9)
        assert q_polynomial_table(9) is table
        with pytest.raises(ValueError):
            table[0, 0] = 5

    def test_beyond_position_count_is_zero(self):
        # no l-subsets exist past the number of positions
        assert q_polynomial(5, 2, 8) == 0
        assert q_polynomial(7, 0, 9) == 0


class TestAgreements:
    def test_self_agreement(self):
        mat = expand(ROW6)
        counts = agreement_counts(mat)
        assert all(counts[u, u] == 2 for u in range(16))

    def test_complementary_rows(self):
        # tail labels 15 and 9 both touch bit 0, so runs 0 and 1 disagree
        # on every ordinary column
        mat = expand(RegularSpec(r=4, columns=(1, 2, 4, 8, 15, 9)))
        counts = agreement_counts(mat)
        assert np.array_equal(mat[0, 4:], -mat[1, 4:])
        assert counts[0, 1] == 0

    def test_distribution_on_benchmark_row(self):
        # frozen from the row-pair oracle
        counts = agreement_counts(expand(ROW6))
        off = [int(counts[u, w]) for u in range(16) for w in range(16) if u != w]
        hist = {v: off.count(v) for v in sorted(set(off))}
        assert hist == {0: 64, 1: 128, 2: 48}


class TestQValue:
    def test_matches_gram_matrix(self):
        rng = random.Random(41)
        for _ in range(6):
            spec = random_valid_spec(rng, 4, 6)
            mat = expand(spec)
            for s, l in ((0, 2), (1, 2), (2, 2), (1, 3), (2, 4)):
                x = build_x_block(mat, s, l)
                gram = x @ x.T
                for u, w in ((0, 0), (1, 5), (3, 14), (7, 7)):
                    assert q_value(mat, s, l, u, w) == gram[u, w]

    def test_unconditional_diagonal_is_binomial(self):
        mat = expand(ROW6)
        for l in (1, 2, 3, 4):
            assert q_value(mat, 0, l, 2, 2) == comb(ROW6.n - 2, l)

    def test_first_order_truncation_is_wrong(self):
        # dropping the second-order term of the s=1 formula undercounts:
        # the diagonal must equal the class size 4*C(n-3, l-1).  Frozen
        # minimal counterexample: n=6, l=2, u=w=0 (sign products all +1,
        # self-agreement c = n-4)
        mat = expand(ROW6)
        n, l, u = ROW6.n, 2, 0
        first_order_only = (1 * (1 + 1) + 1 * (1 + 1)) * q_polynomial(l - 1, n - 4, n)
        assert first_order_only == 8
        assert q_value(mat, 1, l, u, u) == 12 == 4 * comb(n - 3, l - 1)


class TestRouteAgreement:
    def test_fast_equals_direct_on_benchmarks(self):
        for spec in (FLAGSHIP, ROW6, RegularSpec(r=4, columns=(1, 2, 4, 8, 7, 11, 13))):
            mat = expand(spec)
            assert k_sequence_fast(mat) == k_sequence_direct(mat)

    def test_fast_equals_direct_randomized(self):
        rng = random.Random(47)
        for _ in range(25):
            spec = random_valid_spec(rng, 4, rng.choice((6, 8)))
            mat = expand(spec)
            assert k_sequence_fast(mat) == k_sequence_direct(mat)

    def test_fast_equals_direct_nonregular(self):
        # route agreement does not rely on regularity: shuffle rows of two
        # different fractions stacked together
        rng = np.random.default_rng(13)
        top = expand(RegularSpec(r=3, columns=(1, 2, 4, 7, 5)))
        bottom = expand(RegularSpec(r=3, columns=(1, 2, 4, 3, 6)))
        mat = np.vstack([top, bottom])
        rng.shuffle(mat, axis=0)
        assert k_sequence_fast(mat) == k_sequence_direct(mat)
        # 24 runs, not a power of two: a 16-run and an 8-run fraction
        top = expand(RegularSpec(r=4, columns=(1, 2, 4, 8, 15, 7)))
        bottom = expand(RegularSpec(r=3, columns=(1, 2, 4, 7, 3, 5)))
        mat = np.vstack([top, bottom])
        rng.shuffle(mat, axis=0)
        assert k_sequence_fast(mat) == k_sequence_direct(mat)

    def test_pair_histogram_split_into_row_blocks(self, monkeypatch):
        mat = expand(RegularSpec(r=5, columns=(1, 2, 4, 8, 16, 31, 7, 25, 14)))
        whole = k_sequence_fast(mat)
        monkeypatch.setattr(aberration, "_PAIR_ELEMENTS", 100)  # 3 rows per step
        ev = FastEvaluator(mat)
        assert ev.sequence() == whole == k_sequence_direct(mat)
        # the state is the pair histogram's moments, not N x N arrays
        assert all(np.size(v) < mat.shape[0] ** 2 for v in vars(ev).values())

    def test_direct_equals_k_direct_entry_by_entry(self):
        mat = expand(ROW6)
        want = [k_direct(mat, s, l, h) for l in range(2, ROW6.n - 1) for s in (0, 1, 2) for h in (0, 1)]
        assert list(k_sequence_direct(mat).values) == want

    def test_direct_refuses_oversized_blocks_at_once(self):
        # 64 runs, n=40: the largest class is (1, 19), of 4 C(37, 18) members
        labels = (1, 2, 4, 8, *[x for x in range(5, 64) if x not in (8, 12)][: 40 - 4])
        mat = expand(RegularSpec(r=6, columns=labels))
        with pytest.raises(DesignError, match=f"64 x {4 * comb(37, 18)} ="):
            k_sequence_direct(mat)

    def test_direct_evaluates_32_runs_16_factors(self):
        mat = expand(RegularSpec(r=5, columns=(1, 2, 4, 8, 16, 5, 6, 9, 10, 17, 18, 20, 24, 31, 7, 11)))
        assert k_sequence_direct(mat) == k_sequence_fast(mat)

    def test_evaluator_blocks_compose_sequence(self):
        mat = expand(ROW6)
        ev = FastEvaluator(mat)
        flat = []
        for l in range(2, ROW6.n - 1):
            flat.extend(ev.block(l))
        assert tuple(flat) == ev.sequence().values == k_sequence_fast(mat).values


@st.composite
def relabeled_designs(draw):
    """(r, labels): roles (1, 2, 4, 8) and a tail drawn from the labels
    that keep them admissible, moved by a drawn GF(2) map of the r basic
    factors.  An invertible map keeps the design admissible; about one
    draw in four makes the map singular, which collapses the design's rank
    and which `RegularSpec` refuses."""
    r = draw(st.integers(4, 7))
    pool = [x for x in range(1, 1 << r) if x not in (1, 2, 4, 8, 3, 12)]
    n = draw(st.integers(5, min(4 + len(pool), 24)))
    tail = draw(st.permutations(pool))[: n - 4]
    images = [1 << i for i in draw(st.permutations(range(r)))]
    for i, j in draw(st.lists(st.tuples(st.integers(0, r - 1), st.integers(0, r - 1)), max_size=2 * r)):
        if i != j:
            images[i] ^= images[j]
    if draw(st.integers(0, 3)) == 3:
        images[0] = images[1]

    def moved(label):
        out = 0
        for bit, image in enumerate(images):
            if label >> bit & 1:
                out ^= image
        return out

    return r, tuple(moved(x) for x in (1, 2, 4, 8, *tail))


class TestRoutesAgreeUpToR7:
    """Every drawn design with r <= 7 is either admissible and gets one K
    from the fast and the word-count routes (and, at N <= 32 and n <= 12,
    the direct route), or is refused with `DesignError`."""

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(relabeled_designs())
    def test_fast_counts_and_direct_agree(self, design):
        r, labels = design
        try:
            spec = RegularSpec(r, labels)
        except DesignError:
            return
        assert check_conditions_regular(spec).ok
        mat = expand(spec)
        want = k_from_counts(spec)
        assert k_sequence_fast(mat) == want
        if spec.runs <= 32 and spec.n <= 12:
            assert k_sequence_direct(mat) == want


def run_histograms(spec):
    """The (1, 16 (n-3)) run histogram of one spec, its labels as given."""
    labels = np.array([spec.columns], dtype=np.int64)
    hists, _ = _histogram_classes(spec.r, labels, np.arange(spec.n)[None], np.arange(1))
    return hists


def full_k(spec):
    """A spec's whole K sequence from its run histogram, by `_lex_minimum`
    on a one-row batch."""
    values, alive = _lex_minimum(spec.r, spec.n, run_histograms(spec), 1)
    assert alive.tolist() == [0]
    assert all(type(v) is int for v in values)
    return values


class TestRegularBatch:
    """The histogram route against the per-design fast and word-count routes."""

    # n stays where every K entry fits in int64 (see the 64-run n=50 bound)
    @pytest.mark.parametrize("r, sizes", [(4, (5, 7, 9, 12)), (5, (6, 10, 16)), (6, (8, 16, 30))])
    def test_matches_fast_and_counts(self, r, sizes):
        rng = random.Random(100 + r)
        for n in sizes:
            specs = [random_admissible_spec(rng, r, n) for _ in range(4)]
            for spec in specs:
                want = k_sequence_fast(expand(spec)).values
                assert full_k(spec) == want
                assert k_from_counts(spec).values == want

    # 64-run (1, 2, 4, 8, 16, 32) plus the next labels: entries pass 2**53
    # from n=40 and 2**63 from n=50, where int64 sums would wrap
    @pytest.mark.parametrize(
        "r, n, dtype",
        [(4, 9, np.float64), (5, 16, np.float64), (6, 30, np.float64), (6, 45, np.int64),
         (6, 56, object), (6, 61, object)],
    )
    def test_exact_in_every_regime(self, r, n, dtype):
        weights = aberration._block_weights(r, n)
        assert weights.dtype == dtype and weights.flags.c_contiguous
        if r == 6 and n > 30:
            basic = (1, 2, 4, 8, 16, 32)
            rest = tuple(x for x in range(1, 64) if x not in basic)
            specs = [RegularSpec(6, basic + rest[: n - 6])]
        else:
            rng = random.Random(n)
            specs = [random_admissible_spec(rng, r, n) for _ in range(3)]
        rows = [full_k(spec) for spec in specs]
        for spec, row in zip(specs, rows):
            assert row == k_from_counts(spec).values
            assert k_sequence_fast(expand(spec)).values == row
        if dtype is object:
            assert max(rows[0]) >= 1 << 63


class TestLexMinimum:
    """`_lex_minimum`'s ranking, against full sequences compared in Python."""

    @staticmethod
    def batch():
        # 32-run n=9 (six blocks); the minimum row and one other row repeat,
        # so the minimum is attained by at least two rows
        rng = random.Random(11)
        specs = [random_admissible_spec(rng, 5, 9) for _ in range(8)]
        ks = [full_k(spec) for spec in specs]
        best = min(ks)
        order = list(range(8)) + [ks.index(best), 3]
        hists = np.concatenate([run_histograms(specs[i]) for i in order])
        return hists, [ks[i] for i in order], best

    def test_no_bound_ranks_the_whole_batch(self):
        hists, ks, best = self.batch()
        values, alive = _lex_minimum(5, 9, hists, len(hists))
        assert values == best
        assert alive.tolist() == [i for i, k in enumerate(ks) if k == best]
        assert len(alive) >= 2

    def test_one_row_slices_match_one_slice(self):
        hists, _, _ = self.batch()
        values, alive = _lex_minimum(5, 9, hists, len(hists))
        sliced, sliced_alive = _lex_minimum(5, 9, hists, 1)
        assert sliced == values
        assert sliced_alive.tolist() == alive.tolist()


class TestCompare:
    def test_equal(self):
        a = KSequence(16, 5, (0,) * 12)
        assert compare_k(a, a) == 0

    def test_second_position_decides(self):
        a = KSequence(16, 5, (0, 0, 1) + (0,) * 9)
        b = KSequence(16, 5, (0, 1, 0) + (0,) * 9)
        assert compare_k(a, b) == -1
        assert compare_k(b, a) == 1

    def test_incomparable_sizes_rejected(self):
        a = KSequence(16, 5, (0,) * 12)
        b = KSequence(16, 6, (0,) * 18)
        with pytest.raises(ValueError):
            compare_k(a, b)


class TestInvariances:
    def test_traditional_column_permutation(self):
        rng = random.Random(53)
        spec = RegularSpec(r=4, columns=(1, 2, 4, 8, 5, 6, 11, 15))
        base = k_sequence_fast(expand(spec))
        tail = list(spec.columns[4:])
        for _ in range(5):
            rng.shuffle(tail)
            permuted = RegularSpec(r=4, columns=spec.columns[:4] + tuple(tail))
            assert k_sequence_fast(expand(permuted)) == base

    def test_per_column_sign_flips(self):
        rng = np.random.default_rng(59)
        mat = expand(ROW6)
        base = k_sequence_fast(mat)
        for _ in range(5):
            flips = rng.choice((-1, 1), size=mat.shape[1])
            assert k_sequence_fast(mat * flips) == base

    def test_pair_swap_symmetry(self):
        # swapping the two conditional pairs preserves the sequence; the
        # search relies on this for deduplication
        rng = random.Random(61)
        for _ in range(15):
            spec = random_valid_spec(rng, 4, rng.choice((5, 6, 7)))
            b1, b2, b3, b4 = spec.columns[:4]
            swapped = RegularSpec(r=4, columns=(b3, b4, b1, b2) + spec.columns[4:])
            assert k_sequence_fast(expand(spec)) == k_sequence_fast(expand(swapped))

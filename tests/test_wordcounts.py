import random
import tracemalloc
from itertools import combinations

import pytest

from condma.aberration import k_sequence_direct, k_sequence_fast
from condma.designs import RegularSpec, check_conditions_regular, expand
from condma.wordcounts import (
    _pools_targets,
    a_counts,
    a_reduced_sequence,
    complement_counts,
    full_wordlength,
    k_from_counts,
)
from helpers import random_admissible_spec, wide_spec

FLAGSHIP = RegularSpec(r=4, columns=(1, 2, 4, 8, 15))
ROW6 = RegularSpec(r=4, columns=(1, 8, 2, 4, 7, 11))


def brute_counts(pool, targets):
    """Subsets of each size l = 0..len(pool) whose XOR lies in `targets`."""
    counts = []
    for l in range(len(pool) + 1):
        hits = 0
        for combo in combinations(pool, l):
            acc = 0
            for v in combo:
                acc ^= v
            hits += acc in set(targets)
        counts.append(hits)
    return tuple(counts)


class TestCountFamilies:
    def test_flagship_values(self):
        # frozen from the subset enumeration oracle over the pools
        # {2,8,15}, {8,15}, {2,15}, {15}
        c = a_counts(FLAGSHIP)
        assert c.a1 == (1, 0, 0, 0)
        assert c.a2 == (0, 0, 0)
        assert c.a52 == (0, 1)
        assert c.a7 == (0, 1)
        assert c.a8 == (0, 0)

    def test_row6_a7(self):
        # both 7 and 11 land in the four-element target set {3, 11, 7, 15}
        c = a_counts(ROW6)
        assert c.a7 == (0, 2, 0)

    def test_basic_tail_has_no_defining_words(self):
        c = a_counts(RegularSpec(r=4, columns=(1, 2, 4, 8, 3)))
        assert c.a1 == (1, 0, 0, 0)

    def test_zero_size_convention(self):
        # pools whose target set contains 0 start at 1, the others at 0
        c = a_counts(ROW6)
        assert c.a1[0] == c.a31[0] == c.a32[0] == 1
        assert c.a21[0] == c.a42[0] == c.a7[0] == c.a8[0] == 0

    def test_family_accessor(self):
        c = a_counts(FLAGSHIP)
        assert c.family("a3") == c.a3
        with pytest.raises(KeyError):
            c.family("a99")

    def test_oracle_agreement_randomized(self):
        # independent re-count: enumerate subsets directly per family
        rng = random.Random(67)
        for _ in range(10):
            spec = random_admissible_spec(rng, 4, 7)
            c = a_counts(spec)
            for name, (pool, targets) in _pools_targets(spec.columns).items():
                assert c.family(name) == brute_counts(pool, targets), (name, spec.columns)

    def test_coinciding_targets_count_once(self):
        # dependent roles (b3 = b1^b2) make targets of one family coincide;
        # a target set counts each subset once
        spec = RegularSpec(r=4, columns=(1, 2, 3, 8, 4, 7, 13))
        c = a_counts(spec)
        for name, (pool, targets) in _pools_targets(spec.columns).items():
            assert c.family(name) == brute_counts(pool, targets), name


class TestSplitIdentity:
    def test_a7_splits_into_a42_and_a52(self):
        rng = random.Random(71)
        for _ in range(40):
            spec = random_admissible_spec(rng, 4, rng.randrange(5, 9))
            c = a_counts(spec)
            # role independence keeps b2 clear of the a42 targets, so the
            # single-element split holds in the a42 form
            assert c.a42[1] + c.a52[1] == c.a7[1]
            # target sets of a43 and a52 partition the a7 targets
            for l in range(len(c.a7)):
                assert c.a43[l] + c.a52[l] == c.a7[l]


class TestKFromCounts:
    def test_flagship_cells(self):
        seq = k_from_counts(FLAGSHIP)
        counts = seq.alias_counts()
        # K22(0) = 2 A7[0] + 2 A7[-1] + 1 A7[1] = 1; K12(1) = 2 A52[1] = 2
        assert counts[4] == 1
        assert counts[3] == 2
        assert counts == (0, 0, 0, 2, 1, 0, 0, 0, 0, 2, 2, 0)

    def test_matches_direct_route_on_admissible_specs(self):
        rng = random.Random(73)
        for _ in range(30):
            spec = random_admissible_spec(rng, 4, rng.randrange(5, 9))
            assert k_from_counts(spec) == k_sequence_direct(expand(spec))

    def test_past_int64_fast_route_is_exact(self):
        # 128 runs, n=70: entries pass 2**63, where the fast route sums in
        # Python ints; it must still equal the word-count route exactly
        rest = [x for x in range(5, 128) if x not in (8, 12, 16, 32, 64)]
        spec = RegularSpec(r=7, columns=(1, 2, 4, 8, 16, 32, 64, *rest[:63]))
        assert check_conditions_regular(spec).ok
        exact = k_from_counts(spec).values
        assert max(exact) >= 2**63
        assert k_sequence_fast(expand(spec)).values == exact

    def test_orthogonal_design_all_zero(self):
        spec = RegularSpec(r=5, columns=(1, 2, 4, 8, 16))
        assert set(k_from_counts(spec).values) == {0}

    def test_oversized_table_refused_before_allocating(self):
        spec = wide_spec()
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"over their limit of 2\*\*24"):
                k_from_counts(spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestReducedSequence:
    def test_examples(self):
        assert a_reduced_sequence(FLAGSHIP) == (0, 0, 1, 0, 0)
        assert a_reduced_sequence(ROW6) == (0, 0, 2, 1, 0)

    def test_prefix_is_a_function_of_k(self):
        # for admissible specs each prefix cell is recoverable from one
        # leading K entry, so K-equal designs always share the prefix;
        # it is a coarsening, never a finer criterion
        rng = random.Random(79)
        specs = [random_admissible_spec(rng, 4, 7) for _ in range(12)]
        for a in specs:
            for b in specs:
                if k_from_counts(a) == k_from_counts(b):
                    assert a_reduced_sequence(a) == a_reduced_sequence(b), (
                        a.columns,
                        b.columns,
                    )


class TestComplementIdentities:
    def pair(self, rng, n):
        a = random_admissible_spec(rng, 4, n)
        while True:
            b = random_admissible_spec(rng, 4, n)
            if b.columns != a.columns:
                return a, b

    def test_difference_identities(self):
        rng = random.Random(83)
        for _ in range(20):
            n = rng.choice((10, 11, 12))
            a, b = self.pair(rng, n)
            ca, cb = a_counts(a), a_counts(b)
            ta, tb = complement_counts(a), complement_counts(b)
            # (a) three-letter words against the complement's triples
            assert ca.a1[3] - cb.a1[3] == -(ta.a3_tilde - tb.a3_tilde)
            # (b) four-letter words
            assert ca.a1[4] - cb.a1[4] == (ta.a3_tilde + ta.a4_tilde) - (
                tb.a3_tilde + tb.a4_tilde
            )
            # (c) the paired two-counts
            assert ca.a2[2] - cb.a2[2] == (ta.a2_12 + ta.a2_34) - (tb.a2_12 + tb.a2_34)

    def test_membership_difference_identity(self):
        # the A7 lead reduces to which of the four targets escape the
        # ordinary columns; exercised on collision-free pairs only
        rng = random.Random(89)
        done = 0
        while done < 12:
            n = rng.choice((10, 11, 12))
            a, b = self.pair(rng, n)
            ca, cb = a_counts(a), a_counts(b)
            ta, tb = complement_counts(a), complement_counts(b)
            assert ca.a7[1] - cb.a7[1] == -(sum(ta.h1) - sum(tb.h1))
            done += 1

    def test_complement_cardinality(self):
        spec = random_admissible_spec(random.Random(97), 4, 12)
        t = complement_counts(spec)
        # 15 labels minus {b2, b4} and 8 ordinary columns
        assert t.r == 4 and t.n == 12
        everything = set(range(1, 16))
        tilde = everything - {spec.columns[1], spec.columns[3], *spec.columns[4:]}
        assert len(tilde) == 15 - (2 + 8)

    def test_tiny_complement_counts_are_small(self):
        # near-saturated designs leave almost nothing in the complement
        spec = random_admissible_spec(random.Random(101), 4, 12)
        t = complement_counts(spec)
        assert 0 <= t.a3_tilde <= 10
        assert 0 <= t.a4_tilde <= 5


def test_full_wordlength_flagship():
    assert full_wordlength(FLAGSHIP) == (0, 0, 1)


def test_full_wordlength_ignores_roles():
    rng = random.Random(103)
    spec = random_admissible_spec(rng, 4, 8)
    cols = list(spec.columns)
    rng.shuffle(cols)
    # any role reassignment of the same set keeps the classic pattern
    reassigned = RegularSpec(r=4, columns=tuple(cols))
    assert full_wordlength(reassigned) == full_wordlength(spec)

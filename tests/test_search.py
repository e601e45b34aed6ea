import random
from itertools import combinations, permutations

import numpy as np
import pytest

from condma import search
from condma.aberration import RegularBatchEvaluator, compare_k, k_sequence_fast
from condma.catalogs import fixtures
from condma.designs import (
    DesignError,
    RegularSpec,
    admissible_mask,
    check_conditions_regular,
    expand,
    regular_specs,
)
from condma.modelmat import optimality_check
from condma.search import (
    SearchResult,
    SearchTask,
    canonicalize,
    search_ma,
    search_within_columns,
)
from condma.wordcounts import k_from_counts


class TestTaskValidation:
    def test_defaults(self):
        task = SearchTask(runs=16, n=6)
        assert task.mode == "exhaustive"
        assert task.workers == 1
        assert task.r == 4

    def test_bad_mode(self):
        with pytest.raises(DesignError):
            SearchTask(runs=16, n=6, mode="guess")

    def test_bad_runs(self):
        with pytest.raises(DesignError):
            SearchTask(runs=24, n=6)
        with pytest.raises(DesignError):
            SearchTask(runs=8, n=6)

    def test_too_many_factors(self):
        with pytest.raises(DesignError):
            SearchTask(runs=16, n=16)

    def test_too_few_factors(self):
        with pytest.raises(DesignError):
            SearchTask(runs=16, n=4)

    def test_exhaustive_beyond_16_needs_force(self):
        with pytest.raises(DesignError):
            SearchTask(runs=32, n=6, mode="exhaustive")
        SearchTask(runs=32, n=6, mode="exhaustive", force=True)

    def test_bad_workers(self):
        with pytest.raises(DesignError):
            SearchTask(runs=16, n=6, workers=0)


def raw_labels(task):
    """Every raw candidate label tuple of a task, as one (rows, n) array."""
    count, chunks = search._raw_candidates(task)
    labels = np.concatenate([designs[:, index].reshape(-1, task.n) for designs, index in chunks])
    assert len(labels) == count
    return labels


def admissible_specs(task):
    """The raw candidates that pass the admissibility filter, as specs."""
    labels = raw_labels(task)
    return regular_specs(task.r, labels[admissible_mask(task.r, labels)])


class TestEnumeration:
    def test_exhaustive_candidate_counts(self):
        # roles pinned to the basic labels, tails drawn from the other 11;
        # every tuple builds a spec
        for n, count in ((5, 11), (12, 165)):
            labels = raw_labels(SearchTask(runs=16, n=n))
            assert len(regular_specs(4, labels)) == count

    def test_exhaustive_roles_are_basic(self):
        assert (raw_labels(SearchTask(runs=16, n=6))[:, :4] == (1, 2, 4, 8)).all()

    def test_catalog_mode_filters_conditions(self, tmp_path):
        path = tmp_path / "one.cat"
        path.write_text("16 4\n6: 1 2 4 8 3 15\n")
        task = SearchTask(runs=16, n=6, mode="catalog", catalog_path=str(path))
        specs = admissible_specs(task)
        # at most 6*5*4*3 ordered role picks, halved by pair swap, then
        # condition filtering
        assert 0 < len(specs) <= 180
        for spec in specs:
            assert check_conditions_regular(spec).ok
            assert set(spec.columns) == {1, 2, 4, 8, 3, 15}

    def test_pair_swap_dedup_halves_the_stream(self, tmp_path):
        path = tmp_path / "one.cat"
        path.write_text("16 4\n5: 1 2 4 8 15\n")
        base = dict(runs=16, n=5, mode="catalog", catalog_path=str(path))
        pruned = admissible_specs(SearchTask(**base))
        full = admissible_specs(SearchTask(**base, symmetry_pruning=False))
        assert len(full) == 2 * len(pruned)
        # every dropped candidate is the pair swap of a kept one
        kept = {s.columns for s in pruned}
        for spec in full:
            b1, b2, b3, b4 = spec.columns[:4]
            swap = (b3, b4, b1, b2) + spec.columns[4:]
            assert spec.columns in kept or swap in kept

    @pytest.mark.parametrize(
        "task",
        [
            SearchTask(runs=16, n=5),
            SearchTask(runs=16, n=12),
            SearchTask(runs=32, n=6, force=True),
            SearchTask(runs=16, n=9, mode="catalog"),
            SearchTask(runs=16, n=9, mode="catalog", symmetry_pruning=False),
            SearchTask(runs=32, n=8, mode="catalog"),
        ],
    )
    def test_raw_count_matches_stream(self, task):
        # a chunk of G designs and A index rows holds G A candidates
        count, chunks = search._raw_candidates(task)
        assert count == sum(len(designs) * len(index) for designs, index in chunks)
        res = search_ma(task)
        assert res.candidates_examined + res.pruned == count


class TestSearch16:
    def test_n5_benchmark(self):
        res = search_ma(SearchTask(runs=16, n=5))
        fixture = k_sequence_fast(expand(RegularSpec(r=4, columns=(1, 2, 4, 8, 15))))
        assert res.found
        assert compare_k(res.best_k, fixture) == 0
        assert RegularSpec(r=4, columns=(1, 2, 4, 8, 15)) in res.minimizers

    def test_n8_benchmark(self):
        res = search_ma(SearchTask(runs=16, n=8))
        fixture = k_sequence_fast(
            expand(RegularSpec(r=4, columns=(1, 2, 4, 8, 7, 11, 13, 14)))
        )
        assert compare_k(res.best_k, fixture) == 0

    def test_minimizers_are_admissible_and_optimal(self):
        for n in (5, 7, 10):
            res = search_ma(SearchTask(runs=16, n=n))
            assert res.found
            for spec in res.minimizers:
                assert check_conditions_regular(spec).ok
                assert optimality_check(expand(spec))
                assert k_sequence_fast(expand(spec)) == res.best_k

    def test_counters_split_the_stream(self):
        task = SearchTask(runs=16, n=5)
        res = search_ma(task)
        # 11 raw candidates: 9 pass the conditions, 2 are dropped
        assert res.candidates_examined == 9
        assert res.pruned == 2
        assert res.candidates_examined + res.pruned == 11


@pytest.fixture
def pool_starts(monkeypatch):
    """Worker counts of the process pools a search starts."""
    started = []

    class RecordingPool(search.ProcessPoolExecutor):
        def __init__(self, max_workers):
            started.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(search, "ProcessPoolExecutor", RecordingPool)
    return started


class TestDeterminism:
    @pytest.mark.parametrize("n", [6, 9])
    def test_worker_counts_agree(self, n):
        results = [
            search_ma(SearchTask(runs=16, n=n, workers=w)) for w in (1, 4, 8)
        ]
        head = results[0]
        for other in results[1:]:
            assert other.best_k == head.best_k
            assert other.minimizers == head.minimizers
            assert other.candidates_examined == head.candidates_examined
            assert other.pruned == head.pruned

    def test_pool_results_match_in_process(self, monkeypatch, pool_starts):
        # 462 raw candidates in chunks of 40: enough full chunks for the
        # pool to start at both worker counts
        monkeypatch.setattr(search, "_CHUNK", 40)
        head = search_ma(SearchTask(runs=16, n=9))
        assert pool_starts == []
        for w in (2, 4):
            other = search_ma(SearchTask(runs=16, n=9, workers=w))
            assert pool_starts[-1] == w
            assert other.best_k == head.best_k
            assert other.minimizers == head.minimizers
            assert other.candidates_examined == head.candidates_examined
            assert other.pruned == head.pruned

    @pytest.mark.parametrize("chunk, pooled", [(20000, False), (116, False), (115, True)])
    def test_pool_needs_two_full_chunks_per_worker(self, monkeypatch, pool_starts, chunk, pooled):
        # 462 raw candidates: chunks of 116 make three full ones, of 115 four
        monkeypatch.setattr(search, "_CHUNK", chunk)
        search_ma(SearchTask(runs=16, n=9, workers=2))
        assert pool_starts == ([2] if pooled else [])

    def test_large_designs_split_into_chunks(self, monkeypatch, pool_starts):
        # 1,512 assignments per 16-run n=9 design in chunks of 500: each
        # design spans four chunks, and the pool still gets several
        task = SearchTask(runs=16, n=9, mode="catalog")
        head = search_ma(task)
        monkeypatch.setattr(search, "_CHUNK", 500)
        count, chunks = search._raw_candidates(task)
        sizes = [len(designs) * len(index) for designs, index in chunks]
        assert sum(sizes) == count
        assert max(sizes) == 500
        assert len(sizes) == 4 * count // 1512
        for w in (1, 2):
            other = search_ma(SearchTask(runs=16, n=9, mode="catalog", workers=w))
            assert other.best_k == head.best_k
            assert other.minimizers == head.minimizers
            assert other.candidates_examined == head.candidates_examined
            assert other.pruned == head.pruned
        assert pool_starts == [2]

    def test_one_row_sub_batches_match(self, monkeypatch):
        searches = (
            lambda: search_ma(SearchTask(runs=16, n=8)),
            lambda: search_ma(SearchTask(runs=32, n=6, mode="catalog")),
            lambda: search_within_columns(32, (16, 11, 14, 19, 1, 2, 4, 8, 7, 13, 21)),
        )
        default = [run() for run in searches]
        monkeypatch.setattr(search, "_BATCH_ELEMENTS", 1)
        for run, want in zip(searches, default):
            got = run()
            assert (got.best_k, got.minimizers) == (want.best_k, want.minimizers)
            assert (got.candidates_examined, got.pruned) == (want.candidates_examined, want.pruned)

    def test_repeat_runs_identical(self):
        a = search_ma(SearchTask(runs=16, n=7))
        b = search_ma(SearchTask(runs=16, n=7))
        assert a.best_k == b.best_k and a.minimizers == b.minimizers


class TestCanonicalize:
    def test_identity(self):
        spec = RegularSpec(r=4, columns=(1, 2, 4, 8, 15))
        assert canonicalize([spec]) == (spec,)

    def test_tail_order_merges(self):
        a = RegularSpec(r=4, columns=(1, 2, 4, 8, 5, 14))
        b = RegularSpec(r=4, columns=(1, 2, 4, 8, 14, 5))
        out = canonicalize([b, a])
        assert out == (RegularSpec(r=4, columns=(1, 2, 4, 8, 5, 14)),)

    def test_distinct_minimizers_kept_in_order(self):
        a = RegularSpec(r=4, columns=(1, 2, 4, 8, 15, 5))
        b = RegularSpec(r=4, columns=(1, 2, 4, 8, 9, 6))
        assert canonicalize([a, b]) == canonicalize([b, a])
        assert len(canonicalize([a, b])) == 2

    def test_mixed_sizes_rejected(self):
        a = RegularSpec(r=4, columns=(1, 2, 4, 8, 15))
        b = RegularSpec(r=4, columns=(1, 2, 4, 8, 5, 14))
        assert canonicalize([]) == ()
        with pytest.raises(DesignError):
            canonicalize([a, b])


class TestSoundness:
    """The pruned search must match a no-assumption brute force.

    The brute force scores every ordered role 4-tuple with every tail,
    over the whole label space, using the counts route only (no search
    machinery shared).
    """

    @staticmethod
    def brute_force(n):
        best = None
        ties = []
        for subset in combinations(range(1, 16), n):
            for roles in permutations(subset, 4):
                tail = tuple(sorted(set(subset) - set(roles)))
                try:
                    spec = RegularSpec(r=4, columns=roles + tail)
                except DesignError:
                    continue
                if not check_conditions_regular(spec).ok:
                    continue
                vals = k_from_counts(spec).values
                if best is None or vals < best:
                    best, ties = vals, [spec.columns]
                elif vals == best:
                    ties.append(spec.columns)
        return best, ties

    def check(self, n):
        best, ties = self.brute_force(n)
        res = search_ma(SearchTask(runs=16, n=n))
        assert res.best_k.values == best
        # ties found under the pinned roles must agree exactly
        pinned = canonicalize(
            RegularSpec(r=4, columns=t) for t in ties if t[:4] == (1, 2, 4, 8)
        )
        assert pinned == res.minimizers

    def test_n5(self):
        self.check(5)

    @pytest.mark.slow
    def test_n6(self):
        self.check(6)

    @pytest.mark.slow
    def test_n7(self):
        self.check(7)


class TestCatalogMode:
    def test_empty_stream_reports_no_design(self, tmp_path):
        path = tmp_path / "small.cat"
        path.write_text("16 4\n5: 1 2 4 8 15\n")
        res = search_ma(
            SearchTask(runs=16, n=6, mode="catalog", catalog_path=str(path))
        )
        assert not res.found
        assert res.best_k is None
        assert res.minimizers == ()

    def test_catalog_matches_exhaustive_at_16_runs(self):
        # the bundled 16-run catalog must reach the same optimum
        for n in (5, 6, 8):
            cat = search_ma(SearchTask(runs=16, n=n, mode="catalog"))
            exh = search_ma(SearchTask(runs=16, n=n))
            assert cat.best_k == exh.best_k

    def test_force_allows_32_run_exhaustive(self):
        res = search_ma(SearchTask(runs=32, n=5, mode="exhaustive", force=True))
        assert res.found
        for spec in res.minimizers:
            assert check_conditions_regular(spec).ok


class TestWithinColumns:
    def test_within_column_search_ties_include_row(self):
        columns = (16, 11, 14, 19, 1, 2, 4, 8, 7, 13, 21)
        res = search_within_columns(32, columns)
        assert res.found
        sets = {frozenset(m.columns) for m in res.minimizers}
        assert sets == {frozenset(columns)}
        assert len(res.minimizers) >= 2
        # the row's own printed assignment attains the optimum
        row_k = k_sequence_fast(expand(RegularSpec(r=5, columns=columns)))
        assert compare_k(res.best_k, row_k) == 0

    def test_minimizers_are_every_assignment_at_the_best(self):
        # 7,920 admissible assignments share 40 run histograms; scoring each
        # distinct one once must keep every assignment tied at the optimum
        row = next(row for row in fixtures(32) if row.n == 13 and row.status == "advisory")
        res = search_within_columns(32, row.columns)
        labels = np.sort(row.columns)[search._role_index(13, True)]
        labels = labels[admissible_mask(5, labels)]
        assert res.candidates_examined == len(labels) == 7920
        ev = RegularBatchEvaluator(5, labels)
        values = np.concatenate([ev.block(l) for l in range(2, 12)], axis=1).tolist()
        best = min(map(tuple, values))
        assert res.best_k.values == best
        at_best = [columns for columns, k in zip(labels.tolist(), values) if tuple(k) == best]
        assert res.minimizers == canonicalize(RegularSpec(5, columns) for columns in at_best)

    def test_column_order_does_not_matter(self):
        columns = [16, 11, 14, 19, 1, 2, 4, 8, 7, 13, 21]
        want = search_within_columns(32, sorted(columns))
        rng = random.Random(3)
        for _ in range(2):
            rng.shuffle(columns)
            got = search_within_columns(32, columns)
            assert (got.best_k, got.minimizers) == (want.best_k, want.minimizers)
            assert (got.candidates_examined, got.pruned) == (want.candidates_examined, want.pruned)

    def test_rejects_duplicates(self):
        with pytest.raises(DesignError):
            search_within_columns(16, (1, 2, 4, 8, 8))

    def test_out_of_range_label_rejects_every_assignment(self):
        for label in (0, 16, 1 << 70):
            res = search_within_columns(16, (1, 2, 4, 8, label))
            assert not res.found
            assert (res.candidates_examined, res.pruned) == (0, 60)
        res = search_within_columns(32, (1, 2, 4, 8, 16, 40, 50))
        assert not res.found
        assert (res.candidates_examined, res.pruned) == (0, 420)

import concurrent.futures
import hashlib
import math
import os
import random
import subprocess
import sys
from itertools import combinations, permutations

import numpy as np
import pytest

from condma import gf2, search
from condma.aberration import compare_k, k_sequence_fast
from condma.catalogs import fixtures
from condma.cli import main
from condma.designs import (
    DesignError,
    RegularSpec,
    _assignment_mask,
    check_conditions_regular,
    expand,
)
from condma.modelmat import optimality_check
from condma.search import (
    SearchResult,
    SearchTask,
    search_ma,
    search_within_columns,
)
from condma.wordcounts import k_from_counts
from helpers import label_mask, random_admissible_spec


def canonicalize(specs):
    """Reference canonical form: each spec's traditional columns sorted,
    then the distinct specs in tuple order."""
    forms = {(spec.r, spec.columns[:4] + tuple(sorted(spec.columns[4:]))) for spec in specs}
    return tuple(RegularSpec(r, columns) for r, columns in sorted(forms))


def every_role_choice(columns):
    """Every ordered choice of four role columns out of one column set,
    each followed by the other columns sorted."""
    for roles in permutations(columns, 4):
        yield roles + tuple(sorted(set(columns).difference(roles)))


def role_assignments(columns):
    """Reference role assignments of one column set: of two choices that
    swap the pairs, the one whose first pair starts lower."""
    return (row for row in every_role_choice(columns) if row[0] < row[2])


def pair_swap(columns):
    b1, b2, b3, b4, *tail = columns
    return (b3, b4, b1, b2, *tail)


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

    def test_runs_beyond_max_r(self, tmp_path):
        # the 17 unit labels are admissible, but a search keeps labels in
        # designs.MAX_R = 16 bits
        path = tmp_path / "units.cat"
        path.write_text("131072 17\n17: " + " ".join(str(1 << i) for i in range(17)) + "\n")
        with pytest.raises(DesignError, match="power of two"):
            SearchTask(runs=1 << 17, n=17, mode="catalog", catalog_path=str(path))
        SearchTask(runs=1 << 16, n=17, mode="catalog")

    def test_too_many_factors(self):
        with pytest.raises(DesignError):
            SearchTask(runs=16, n=16)

    def test_too_few_factors(self):
        with pytest.raises(DesignError):
            SearchTask(runs=16, n=4)

    def test_exhaustive_at_every_run_size(self):
        # the fixed roles lose nothing at any run size (module docstring)
        assert SearchTask(32, 6).mode == SearchTask(64, 7).mode == "exhaustive"
        with pytest.raises(TypeError):
            SearchTask(runs=32, n=6, force=True)

    def test_catalog_path_needs_catalog_mode(self):
        # exhaustive mode reads no catalog, so a path given to it is refused
        # before any file is opened
        with pytest.raises(DesignError, match="catalog mode"):
            SearchTask(runs=16, n=6, catalog_path="missing.cat")
        assert SearchTask(runs=16, n=6, mode="catalog", catalog_path="missing.cat").catalog_path

    def test_bad_workers(self):
        with pytest.raises(DesignError):
            SearchTask(runs=16, n=6, workers=0)


def raw_labels(task):
    """Every candidate label tuple a task streams, as one (rows, n) array;
    the tasks here stream all of their raw candidates."""
    count, chunks = search._raw_candidates(task)
    labels = np.concatenate([designs[:, index].reshape(-1, task.n) for designs, index in chunks])
    assert len(labels) == count
    return labels


def admissible_specs(task):
    """The raw candidates that pass the admissibility filter, as specs."""
    labels = raw_labels(task)
    return [RegularSpec(task.r, tuple(row)) for row in labels[label_mask(task.r, labels)].tolist()]


class TestEnumeration:
    def test_exhaustive_candidate_counts(self):
        # roles pinned to the basic labels, tails drawn from the other 11;
        # every tuple builds a spec
        for n, count in ((5, 11), (12, 165)):
            labels = raw_labels(SearchTask(runs=16, n=n))
            assert len(labels) == count
            for row in labels.tolist():
                RegularSpec(4, tuple(row))

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
        task = SearchTask(runs=16, n=5, mode="catalog", catalog_path=str(path))
        stream = [tuple(row) for row in raw_labels(task).tolist()]
        swaps = [pair_swap(row) for row in stream]
        # the stream and its pair swaps are every ordered role choice, once
        assert not set(swaps) & set(stream)
        assert sorted(stream + swaps) == sorted(every_role_choice((1, 2, 4, 8, 15)))
        # and a swap has its row's K
        kept = admissible_specs(task)
        assert kept
        for spec in kept:
            swap = RegularSpec(spec.r, pair_swap(spec.columns))
            assert k_from_counts(swap) == k_from_counts(spec)

    @pytest.mark.parametrize(
        "task",
        [
            SearchTask(runs=16, n=5),
            SearchTask(runs=16, n=12),
            SearchTask(runs=32, n=6),
            SearchTask(runs=16, n=9, mode="catalog"),
            SearchTask(runs=32, n=8, mode="catalog"),
            SearchTask(runs=32, n=10, mode="catalog"),
        ],
    )
    def test_raw_count_matches_stream(self, task):
        # a chunk of G designs and A index rows holds G A candidates; the
        # exhaustive stream leaves out the tails short of full rank (55 of
        # the 351 at 32-run n=6), catalog entries are all of full rank
        deficient = 0
        if task.mode == "exhaustive":
            pool = [x for x in range(1, task.runs) if x not in (1, 2, 4, 8)]
            tails = combinations(pool, task.n - 4)
            deficient = sum(gf2.rank((1, 2, 4, 8) + tail) < task.r for tail in tails)
        count, chunks = search._raw_candidates(task)
        assert count == sum(len(designs) * len(index) for designs, index in chunks) + deficient


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

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers):
            started.append(max_workers)
            super().__init__(max_workers=max_workers)

    # `search` imports the pool where it starts one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
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

    def test_in_process_search_loads_no_pool(self):
        # a fresh process: the pool's modules load only when a pool starts
        code = (
            "import sys, condma\n"
            "from condma.search import SearchTask, search_ma\n"
            "assert search_ma(SearchTask(16, 9)).found\n"
            "print('concurrent.futures.process' in sys.modules)\n"
        )
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["False"]

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


class TestRoleIndex:
    def test_table_matches_reference(self):
        for n in range(5, 17):
            index = search._role_index(n)
            want = np.array(list(role_assignments(range(n))))
            assert index.dtype == np.uint8 and not index.flags.writeable
            assert len(index) == math.perm(n, 4) // 2
            assert np.array_equal(index, want)

    def test_refuses_a_table_over_its_limit(self, monkeypatch, capsys):
        # n=8 holds 840 x 8 entries; n=9 holds 1,512 x 9 = 13,608
        monkeypatch.setattr(search, "_ROLE_ENTRIES", 840 * 8)
        search._role_index.cache_clear()  # a cached table skips the check
        assert len(search._role_index(8)) == 840
        with pytest.raises(DesignError, match="n=9 needs 13608 entries"):
            search._role_index(9)
        with pytest.raises(DesignError, match="n=9"):
            search_within_columns(16, (1, 2, 4, 8, 3, 5, 6, 7, 9))
        assert main(["search", "--runs", "16", "--factors", "9", "--mode", "catalog"]) == 1
        assert "n=9 needs 13608 entries" in capsys.readouterr().err


class TestCanonicalize:
    """`_canonical_specs` against the pure-Python reference `canonicalize`."""

    @staticmethod
    def canonical(specs):
        return search._canonical_specs(specs[0].r, np.array([spec.columns for spec in specs]))

    def test_identity(self):
        spec = RegularSpec(r=4, columns=(1, 2, 4, 8, 15))
        assert self.canonical([spec]) == (spec,) == canonicalize([spec])

    def test_tail_order_merges(self):
        a = RegularSpec(r=4, columns=(1, 2, 4, 8, 5, 14))
        b = RegularSpec(r=4, columns=(1, 2, 4, 8, 14, 5))
        assert self.canonical([b, a]) == (a,) == canonicalize([b, a])

    def test_distinct_minimizers_kept_in_order(self):
        a = RegularSpec(r=4, columns=(1, 2, 4, 8, 15, 5))
        b = RegularSpec(r=4, columns=(1, 2, 4, 8, 9, 6))
        assert self.canonical([a, b]) == self.canonical([b, a]) == canonicalize([a, b])
        assert len(self.canonical([a, b])) == 2

    # labels of 4, 5 and 16 bits (16 is the widest `designs.MAX_R` allows),
    # rows of 5 to 16 labels
    @pytest.mark.parametrize("r, n", [(4, 5), (4, 15), (5, 16), (5, 13), (16, 7), (16, 11)])
    def test_packed_sort_matches_reference(self, r, n):
        rng = np.random.default_rng(r * 100 + n)
        labels = np.array([rng.permutation(np.arange(1, 1 << r))[:n] for _ in range(40)])
        # repeats: whole rows, and rows that differ only in the tail's order
        shuffled = labels[rng.integers(0, 40, size=30)].copy()
        shuffled[:, 4:] = rng.permuted(shuffled[:, 4:], axis=1)
        rows = np.concatenate([labels, labels[:10], shuffled])[rng.permutation(80)]
        got = [spec.columns for spec in search._canonical_specs(r, rows)]
        want = sorted({tuple(row[:4]) + tuple(sorted(row[4:])) for row in rows.tolist()})
        assert got == want


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

    def test_32_run_exhaustive(self):
        res = search_ma(SearchTask(runs=32, n=5, mode="exhaustive"))
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
        labels = np.sort(row.columns)[search._role_index(13)]
        labels = labels[label_mask(5, labels)].tolist()
        assert res.candidates_examined == len(labels) == 7920
        values = [k_from_counts(RegularSpec(5, tuple(columns))).values for columns in labels]
        best = min(values)
        assert res.best_k.values == best
        at_best = [columns for columns, k in zip(labels, values) if k == best]
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

    def test_rejects_what_a_search_task_rejects(self):
        # a 16-run design is no 24-run answer, and a search keeps labels in
        # designs.MAX_R = 16 bits
        for runs in (24, 8, 0, 1 << 17):
            with pytest.raises(DesignError, match="power of two"):
                search_within_columns(runs, (1, 2, 4, 8, 15))
        with pytest.raises(DesignError, match="power of two"):
            search_within_columns(1 << 17, tuple(1 << i for i in range(17)))
        with pytest.raises(DesignError, match="five factors"):
            search_within_columns(16, (1, 2, 4, 8))
        with pytest.raises(DesignError, match="workers"):
            search_within_columns(16, (1, 2, 4, 8, 15), workers=0)

    def test_out_of_range_label_rejects_every_assignment(self):
        for label in (0, 16, 1 << 70):
            res = search_within_columns(16, (1, 2, 4, 8, label))
            assert not res.found
            assert (res.candidates_examined, res.pruned) == (0, 60)
        res = search_within_columns(32, (1, 2, 4, 8, 16, 40, 50))
        assert not res.found
        assert (res.candidates_examined, res.pruned) == (0, 420)

    def test_rank_deficient_set_rejects_every_assignment(self):
        # label 3 = 1^2 leaves the five columns short of rank 5
        res = search_within_columns(32, (1, 2, 4, 8, 3))
        assert not res.found
        assert (res.candidates_examined, res.pruned) == (0, 60)


class TestEvaluateChunk:
    @pytest.mark.parametrize(
        "columns, index",
        [
            # 1..7 span only three dimensions, so no four roles are independent
            ((1, 2, 3, 4, 5, 6, 7, 8), search._role_index(8)),
            # roles (1, 2, 4, 7): 7 = 1^2^4
            ((1, 2, 4, 7, 8), np.arange(5)[None]),
        ],
    )
    def test_chunk_without_admissible_assignment(self, columns, index):
        designs = np.array([columns], dtype=np.int64)
        best, tied, examined = search._evaluate_chunk((4, designs, index))
        assert best is None
        assert tied.shape == (0, len(columns))
        assert examined == 0


def class_and_reference_histograms(r, designs, index):
    """For every admissible assignment of a (G, n) array of sorted column
    sets under `index`: the class histograms and their inverse map, and the
    assignment's own histogram, built under the identity index on its
    explicit label tuple."""
    admissible = np.flatnonzero(_assignment_mask(designs, index))
    hists, inverse = search._histogram_classes(r, designs, index, admissible)
    design, assignment = np.divmod(admissible, len(index))
    labels = designs[design[:, None], index[assignment]]
    identity = np.arange(designs.shape[1])[None]
    reference, each = search._histogram_classes(r, labels, identity, np.arange(len(labels)))
    assert np.array_equal(each, np.arange(len(labels)))
    assert np.array_equal(np.unique(inverse), np.arange(len(hists)))
    return hists, inverse, reference


class TestSignatureClasses:
    @pytest.mark.parametrize("r, n", [(4, 7), (5, 9), (6, 8), (7, 10)])
    def test_each_signature_class_is_one_histogram_class(self, monkeypatch, r, n):
        rng = random.Random(r * 10 + n)
        designs = np.sort([random_admissible_spec(rng, r, n).columns for _ in range(5)], axis=1)
        index = search._role_index(n)
        for batch in (1, 1 << 20):  # one design per step, then all in one
            monkeypatch.setattr(search, "_BATCH_ELEMENTS", batch)
            hists, inverse, reference = class_and_reference_histograms(r, designs, index)
            assert np.array_equal(hists[inverse], reference)
        # within one step the classes are exactly the histogram classes
        assert len(hists) == len(np.unique(search._opaque_rows(reference)))

    @pytest.mark.parametrize(
        "kind, n, classes, admissible",
        [
            ("own", 13, 40, 7920),
            ("own", 14, 17, 11088),
            ("own", 16, 1, 20160),
            ("catalog", 6, 18, 636),
            ("catalog", 7, 144, 2472),
            ("catalog", 8, 711, 8100),
            ("catalog", 9, 2662, 25020),
        ],
    )
    def test_pinned_class_counts(self, monkeypatch, kind, n, classes, admissible):
        if kind == "own":
            row = next(row for row in fixtures(32) if row.n == n and row.status == "advisory")
            designs = np.sort([row.columns], axis=1)
        else:
            designs = np.sort(search.bundled_catalog(32).designs_for(n), axis=1)
        monkeypatch.setattr(search, "_BATCH_ELEMENTS", 1 << 20)  # every design in one step
        hists, inverse, reference = class_and_reference_histograms(5, designs, search._role_index(n))
        assert len(inverse) == admissible
        assert len(hists) == len(np.unique(search._opaque_rows(reference))) == classes


class TestDenseRanks:
    @pytest.mark.parametrize("kinds, reranks", [(1, 0), (2, 0), (100, 1), (2**17, None)])
    def test_matches_row_unique(self, monkeypatch, kinds, reranks):
        # 16 digits: radix 1 and 2**16 stay below 2**63; 100**16 passes it
        # once, after 9 digits; 2**(17 * 16) every few digits.  Each pass
        # re-ranks with one np.unique, and the final ranking is one more.
        rng = np.random.default_rng(kinds)
        protos = rng.integers(0, kinds, size=(40, 16))
        protos[20:] = protos[:20]
        protos[np.arange(20, 40), rng.integers(0, 16, 20)] = rng.integers(0, kinds, 20)  # one digit apart
        rows = protos[rng.integers(0, 40, 600)]
        calls = []
        unique = np.unique

        def counted(*args, **kwargs):
            calls.append(args)
            return unique(*args, **kwargs)

        monkeypatch.setattr(np, "unique", counted)
        ranks, classes = search._dense_ranks((rows[:, j] for j in range(16)), kinds)
        monkeypatch.undo()
        distinct, expected = np.unique(rows, axis=0, return_inverse=True)
        assert np.array_equal(ranks, expected.ravel())
        assert classes == len(distinct)
        if reranks is None:
            assert len(calls) - 1 >= 2
        else:
            assert len(calls) - 1 == reranks


class TestRoleTwists:
    """K is invariant under the role twists b1 -> b1^b2 and b3 -> b3^b4 and
    under the pair swap; a twist of an admissible design stays admissible."""

    @staticmethod
    def maps(columns):
        b1, b2, b3, b4, *tail = columns
        yield (b1 ^ b2, b2, b3, b4, *tail)
        yield (b1, b2, b3 ^ b4, b4, *tail)
        yield (b1 ^ b2, b2, b3 ^ b4, b4, *tail)
        yield pair_swap(columns)

    @pytest.mark.parametrize("r, sizes", [(4, range(5, 13)), (5, range(5, 17, 2)), (6, range(6, 19, 3))])
    def test_k_unchanged(self, r, sizes):
        rng = random.Random(100 + r)
        for n in sizes:
            for _ in range(5):
                spec = random_admissible_spec(rng, r, n)
                counts, fast = k_from_counts(spec), k_sequence_fast(expand(spec))
                assert counts == fast
                for columns in self.maps(spec.columns):
                    image = RegularSpec(r, columns)
                    assert check_conditions_regular(image).ok
                    assert k_from_counts(image) == counts
                    assert k_sequence_fast(expand(image)) == fast


def k_digest(values):
    return hashlib.sha256(",".join(map(str, values)).encode()).hexdigest()[:16]


OWN_COLUMNS = {row.n: row.columns for row in fixtures(32) if row.status == "advisory" and row.evaluable}


class TestPinnedOutputs:
    """Outputs recorded before the signature stage existed: a digest of the
    best K, the minimizer count, the first and last minimizer, and the
    examined and pruned counts."""

    @pytest.mark.parametrize(
        "run, k, count, first, last, examined, pruned",
        [
            (lambda: search_ma(SearchTask(16, 5)), "b070d6fd423d9f4a", 4,
             (1, 2, 4, 8, 5), (1, 2, 4, 8, 15), 9, 2),
            (lambda: search_ma(SearchTask(16, 6)), "32e8912055fdb3b5", 2,
             (1, 2, 4, 8, 5, 15), (1, 2, 4, 8, 7, 13), 36, 19),
            (lambda: search_ma(SearchTask(16, 7)), "c4c5a272be8f1e73", 8,
             (1, 2, 4, 8, 5, 6, 15), (1, 2, 4, 8, 7, 13, 14), 84, 81),
            (lambda: search_ma(SearchTask(16, 8)), "f92c2a13d087f30b", 4,
             (1, 2, 4, 8, 5, 6, 11, 15), (1, 2, 4, 8, 7, 11, 13, 14), 126, 204),
            (lambda: search_ma(SearchTask(16, 9)), "15e26a9daf2b8311", 4,
             (1, 2, 4, 8, 5, 6, 10, 11, 15), (1, 2, 4, 8, 7, 10, 11, 13, 14), 126, 336),
            (lambda: search_ma(SearchTask(16, 10)), "0ab81462e450ebff", 4,
             (1, 2, 4, 8, 5, 6, 7, 9, 10, 11), (1, 2, 4, 8, 9, 10, 11, 13, 14, 15), 84, 378),
            (lambda: search_ma(SearchTask(16, 11)), "a1175ce740823f35", 8,
             (1, 2, 4, 8, 5, 6, 7, 9, 10, 11, 13), (1, 2, 4, 8, 7, 9, 10, 11, 13, 14, 15), 36, 294),
            (lambda: search_ma(SearchTask(16, 12)), "4dfa3fc83aaaa9c4", 4,
             (1, 2, 4, 8, 5, 6, 7, 9, 10, 11, 13, 14), (1, 2, 4, 8, 6, 7, 9, 10, 11, 13, 14, 15), 9, 156),
            (lambda: search_ma(SearchTask(32, 6, mode="catalog")), "1f6b4a3718d47c6c", 252,
             (1, 2, 4, 8, 16, 31), (16, 8, 31, 4, 1, 2), 636, 84),
            (lambda: search_ma(SearchTask(32, 7, mode="catalog")), "c1099f272d515ffa", 108,
             (1, 8, 4, 16, 2, 7, 27), (7, 27, 16, 2, 1, 4, 8), 2472, 888),
            (lambda: search_ma(SearchTask(32, 8, mode="catalog")), "c17bd4852aaf74da", 22,
             (1, 16, 2, 29, 4, 7, 8, 11), (11, 29, 16, 8, 1, 2, 4, 7), 8100, 4500),
            (lambda: search_ma(SearchTask(32, 9, mode="catalog")), "4046d4eca60e5922", 91,
             (1, 4, 7, 29, 2, 8, 11, 16, 19), (11, 30, 13, 16, 1, 2, 4, 7, 8), 25020, 18828),
            (lambda: search_ma(SearchTask(32, 10, mode="catalog")), "ef3bad00900e4de8", 252,
             (1, 4, 2, 8, 7, 11, 16, 19, 29, 30), (29, 19, 30, 11, 1, 2, 4, 7, 8, 16), 59916, 56004),
            (lambda: search_ma(SearchTask(16, 9, mode="catalog")), "15e26a9daf2b8311", 140,
             (1, 8, 10, 4, 2, 3, 5, 12, 15), (10, 4, 12, 5, 1, 2, 3, 8, 15), 1404, 6156),
            (lambda: search_ma(SearchTask(32, 8)), "c17bd4852aaf74da", 16,
             (1, 2, 4, 8, 16, 21, 27, 30), (1, 2, 4, 8, 19, 22, 24, 29), 12524, 5026),
            (lambda: search_within_columns(32, OWN_COLUMNS[13], workers=2), "677d0f3a23fdd223", 288,
             (1, 8, 11, 19, 2, 4, 7, 13, 14, 16, 21, 22, 25),
             (14, 22, 21, 2, 1, 4, 7, 8, 11, 13, 16, 19, 25), 7920, 660),
            (lambda: search_within_columns(32, OWN_COLUMNS[14], workers=2), "f519b88701982e0c", 672,
             (1, 4, 8, 7, 2, 11, 13, 14, 16, 19, 21, 22, 25, 26),
             (22, 14, 26, 13, 1, 2, 4, 7, 8, 11, 16, 19, 21, 25), 11088, 924),
            (lambda: search_within_columns(32, OWN_COLUMNS[16], workers=2), "b577846690b40124", 20160,
             (1, 2, 4, 8, 7, 11, 13, 14, 16, 19, 21, 22, 25, 26, 28, 31),
             (28, 26, 31, 22, 1, 2, 4, 7, 8, 11, 13, 14, 16, 19, 21, 25), 20160, 1680),
            (lambda: search_ma(SearchTask(32, 12, mode="catalog", workers=2)), "da6803e833088913", 128,
             (1, 14, 2, 16, 3, 4, 5, 8, 9, 22, 26, 29), (13, 19, 14, 1, 2, 4, 7, 8, 11, 16, 21, 25),
             215880, 312780),
        ],
        ids=[
            *(f"16-exhaustive-n{n}" for n in range(5, 13)),
            *(f"32-catalog-n{n}" for n in range(6, 11)),
            "16-catalog-n9", "32-exhaustive-n8",
            "own-columns-n13", "own-columns-n14", "own-columns-n16", "32-catalog-n12-pooled",
        ],
    )
    def test_search_output(self, run, k, count, first, last, examined, pruned):
        res = run()
        assert k_digest(res.best_k.values) == k
        assert len(res.minimizers) == count
        assert (res.minimizers[0].columns, res.minimizers[-1].columns) == (first, last)
        assert (res.candidates_examined, res.pruned) == (examined, pruned)

    def test_pair_swaps_of_the_minimizers(self):
        # a catalog search lists one orientation per pair swap; the swaps
        # of its 22 minimizers at 32-run n=8 are 22 more, of the same K
        res = search_ma(SearchTask(32, 8, mode="catalog"))
        closure = {m.columns for m in res.minimizers} | {pair_swap(m.columns) for m in res.minimizers}
        assert len(closure) == 44
        # the first and last of the 44 a search without the fold listed
        assert (min(closure), max(closure)) == ((1, 16, 2, 29, 4, 7, 8, 11), (29, 11, 8, 16, 1, 2, 4, 7))
        for columns in closure:
            assert k_digest(k_from_counts(RegularSpec(5, columns)).values) == "c17bd4852aaf74da"

import gc
import math
import random
import re
from itertools import combinations

import numpy as np
import pytest

from condma import designs, gf2, search
from condma.designs import (
    ConditionReport,
    DesignError,
    FormatError,
    RegularSpec,
    as_design_matrix,
    check_conditions,
    check_conditions_regular,
    expand,
    load_design_file,
    parse_design_text,
    projection_counts,
)
from helpers import random_valid_spec


def spec_and_conditions(r, labels):
    """The reference the vectorized mask must equal, one tuple at a time."""
    try:
        spec = RegularSpec(r=r, columns=labels)
    except DesignError:
        return False
    return check_conditions_regular(spec).ok


SIGNS = [[1, -1, 1, -1, 1], [-1, 1, 1, -1, -1]]
NOT_SIGNS = "design matrix entries must be +1 or -1"


class TestAsDesignMatrix:
    @pytest.mark.parametrize(
        "array",
        [np.array(SIGNS, np.int8), np.array(SIGNS, np.int64), np.array(SIGNS, np.float64), SIGNS],
        ids=["int8", "int64", "float", "list"],
    )
    def test_accepts_signs_as_int8(self, array):
        out = as_design_matrix(array)
        assert out.dtype == np.int8
        assert out.tolist() == SIGNS

    @pytest.mark.parametrize(
        "bad, dtype",
        [(0, np.int64), (2, np.int64), (0.5, np.float64), (np.nan, np.float64), (-128, np.int8), (False, bool)],
        ids=["zero", "two", "half", "nan", "int8_min", "bool_false"],
    )
    def test_rejects_other_entries(self, bad, dtype):
        array = np.array(SIGNS).astype(dtype)
        array[1, 2] = bad
        with pytest.raises(DesignError, match=re.escape(NOT_SIGNS)):
            as_design_matrix(array)

    def test_all_true_bool_reads_as_plus_one(self):
        # True == 1, as the +-1 test has always read it
        assert as_design_matrix(np.ones((2, 5), dtype=bool)).tolist() == [[1] * 5] * 2

    def test_shape_errors(self):
        with pytest.raises(DesignError, match=re.escape("design matrix must be 2-D, got shape (5,)")):
            as_design_matrix(np.array(SIGNS[0]))
        with pytest.raises(DesignError, match=re.escape("need at least 5 columns, got 4")):
            as_design_matrix(np.array(SIGNS)[:, :4])


class TestRegularSpec:
    def test_basic_properties(self):
        spec = RegularSpec(r=4, columns=(1, 2, 4, 8, 15))
        assert spec.n == 5
        assert spec.runs == 16

    def test_rejects_label_zero(self):
        with pytest.raises(DesignError):
            RegularSpec(r=4, columns=(0, 2, 4, 8, 15))

    def test_rejects_out_of_range_label(self):
        with pytest.raises(DesignError):
            RegularSpec(r=4, columns=(1, 2, 4, 8, 16))

    def test_rejects_duplicates(self):
        with pytest.raises(DesignError):
            RegularSpec(r=4, columns=(1, 2, 4, 8, 8))

    def test_rejects_rank_deficiency(self):
        # all five labels fit in a rank-3 space
        with pytest.raises(DesignError):
            RegularSpec(r=4, columns=(1, 2, 3, 4, 5))

    def test_rejects_too_few_columns(self):
        with pytest.raises(DesignError):
            RegularSpec(r=4, columns=(1, 2, 4, 8))


class TestExpand:
    def test_dependent_column_is_product(self):
        mat = expand(RegularSpec(r=4, columns=(1, 2, 4, 8, 3)))
        assert mat.shape == (16, 5)
        # label 3 = 1 xor 2, so the column is the product of the first two
        assert np.array_equal(mat[:, 4], mat[:, 0] * mat[:, 1])

    def test_full_factorial_rows_distinct(self):
        mat = expand(RegularSpec(r=4, columns=(1, 2, 4, 8, 15)))
        assert len({tuple(row[:4]) for row in mat}) == 16

    def test_fifth_column_is_four_way_product(self):
        mat = expand(RegularSpec(r=4, columns=(1, 2, 4, 8, 15)))
        assert np.array_equal(mat[:, 4], mat[:, :4].prod(axis=1))

    def test_entries_are_signs(self):
        mat = expand(RegularSpec(r=4, columns=(3, 5, 9, 8, 6)))
        assert set(np.unique(mat)) == {-1, 1}


class TestProjections:
    def test_full_factorial_triple(self):
        mat = expand(RegularSpec(r=4, columns=(1, 2, 4, 8, 15)))
        counts = projection_counts(mat[:, :3], (1, 2, 3))
        # 16 runs over 8 sign triples
        assert all(c == 2 for c in counts.values())

    def test_role_quadruple_equifrequent(self):
        mat = expand(RegularSpec(r=4, columns=(1, 2, 4, 8, 15)))
        counts = projection_counts(mat, (1, 2, 3, 4))
        assert all(c == 1 for c in counts.values())

    def test_single_column_balance(self):
        mat = expand(RegularSpec(r=4, columns=(7, 2, 4, 8, 15)))
        for j in range(1, 6):
            counts = projection_counts(mat, (j,))
            assert counts[(1,)] == counts[(-1,)] == 8


class TestConditions:
    def test_benchmark_row_passes(self):
        report = check_conditions(expand(RegularSpec(r=4, columns=(1, 8, 2, 4, 7, 11))))
        assert report.ok
        assert report.failures == ()

    def test_dependent_quadruple_fails(self):
        # 7 = 1^2^4
        spec = RegularSpec(r=4, columns=(1, 2, 4, 7, 8))
        report = check_conditions_regular(spec)
        assert not report.quad_1234
        assert not report.ok
        assert (1, 2, 3, 4) in report.failures

    def test_repeated_column_fails_strength_two(self):
        mat = expand(RegularSpec(r=4, columns=(1, 2, 4, 8, 15)))
        doubled = np.hstack([mat, mat[:, :1]])
        report = check_conditions(doubled)
        assert not report.strength2

    def test_triple_with_independent_labels_passes(self):
        # (b1, b2, b6) = (1, 8, 11): 1^8 = 9 != 11
        report = check_conditions_regular(RegularSpec(r=4, columns=(1, 8, 2, 4, 7, 11)))
        assert report.triples_12

    def test_regular_shortcut_matches_matrix_check(self):
        rng = random.Random(23)
        for _ in range(60):
            spec = random_valid_spec(rng, 4, rng.randrange(5, 9))
            assert check_conditions_regular(spec) == check_conditions(expand(spec))

    @pytest.mark.parametrize("r", [4, 5, 6])
    def test_regular_shortcut_matches_matrix_check_with_failures(self, r):
        # random valid specs, admissible or not: the label-space report,
        # failures included, is the matrix check's
        rng = random.Random(31 + r)
        inadmissible = 0
        for _ in range(270):
            spec = random_valid_spec(rng, r, rng.randrange(max(5, r), 12))
            report = check_conditions_regular(spec)
            assert report == check_conditions(expand(spec))
            inadmissible += not report.ok
        assert inadmissible > 0

    def test_matches_projection_count_definition(self):
        # perturbed regular matrices: flipped signs, swapped and repeated
        # columns, single flipped entries
        rng = random.Random(29)
        for _ in range(60):
            mat = expand(random_valid_spec(rng, rng.choice((4, 5)), rng.randrange(5, 10)))
            n = mat.shape[1]
            i, j = rng.sample(range(n), 2)
            kind = rng.randrange(4)
            if kind == 0:
                mat[:, i] *= -1
            elif kind == 1:
                mat[:, [i, j]] = mat[:, [j, i]]
            elif kind == 2:
                mat[:, j] = mat[:, i]
            else:
                mat[rng.randrange(mat.shape[0]), i] *= -1
            assert check_conditions(mat) == conditions_by_projection_counts(mat)

    def test_plackett_burman_12_passes_strength_two_only(self):
        # 12 runs: every pair is balanced, but 12 runs cannot cover the 8
        # sign triples equally
        gen = [1, 1, -1, 1, 1, 1, -1, -1, -1, 1, -1]
        mat = np.array([gen[-k:] + gen[:-k] for k in range(11)] + [[-1] * 11], dtype=np.int8)
        report = check_conditions(mat)
        assert report == conditions_by_projection_counts(mat)
        assert report.strength2
        assert not (report.triples_12 or report.triples_34 or report.quad_1234)


def conditions_by_projection_counts(mat):
    """The admissibility conditions straight from their definition: every
    sign combination of a projection appears equally often."""

    def flat(columns):
        counts = projection_counts(mat, columns)
        return len(set(counts.values())) == 1

    n = mat.shape[1]
    pairs = list(combinations(range(1, n + 1), 2))
    t12 = [(1, 2, j) for j in (4, *range(5, n + 1))]
    t34 = [(3, 4, j) for j in (2, *range(5, n + 1))]
    groups = [pairs, t12, t34, [(1, 2, 3, 4)]]
    bad = [[c for c in group if not flat(c)] for group in groups]
    return ConditionReport(*(not b for b in bad), tuple(c for b in bad for c in b))


class TestAdmissibleMask:
    """`_assignment_mask` on valid column sets; invalid ones are rejected
    where they enter the search."""

    @pytest.mark.parametrize("r", [4, 5, 6])
    def test_matches_reference_on_random_tuples(self, r):
        # dependent roles and pair sums among the labels all occur; every
        # row is also tried with its pairs swapped
        rng = random.Random(r)
        rows = []
        for _ in range(1500):
            row = rng.sample(range(1, 1 << r), rng.randint(max(5, r), 10))
            rows.append(tuple(row))
            rows.append(tuple(row[2:4] + row[:2] + row[4:]))
        passed = []
        for n in {len(row) for row in rows}:
            block = [row for row in rows if len(row) == n and gf2.rank(row) == r]
            got = designs._assignment_mask(np.array(block), np.arange(n)[None]).ravel().tolist()
            assert got == [spec_and_conditions(r, row) for row in block]
            passed += got
        assert 0 < sum(passed) < len(passed)

    def test_rank_deficient_tails(self):
        # 32-run exhaustive candidates: tails missing the fifth basic factor
        # leave the labels short of rank 5, and the stream leaves them out
        task = search.SearchTask(runs=32, n=7)
        pool = [x for x in range(1, 32) if x not in (1, 2, 4, 8)]
        raw = [(1, 2, 4, 8) + tail for tail in combinations(pool, 3)]
        want = [row for row in raw if gf2.rank(row) == 5]
        count, chunks = search._raw_candidates(task)
        got = [tuple(row) for labels, _ in chunks for row in labels.tolist()]
        assert got == want
        assert 0 < len(want) < len(raw) == count

    @pytest.mark.parametrize("swapped", [False, True])
    def test_per_design_mask_over_the_role_index(self, swapped):
        # valid column sets under every role assignment, in the table's
        # orientation and with each row's pairs swapped
        rng = random.Random(7)
        for r, n in ((4, 5), (4, 7), (5, 6), (5, 8)):
            sets = []
            while len(sets) < 24:
                row = sorted(rng.sample(range(1, 1 << r), n))
                if gf2.rank(row) == r:
                    sets.append(row)
            columns = np.array(sets, dtype=np.int64)
            index = search._role_index(n)
            if swapped:
                index = index[:, [2, 3, 0, 1, *range(4, n)]]
            got = designs._assignment_mask(columns, index)
            want = [[spec_and_conditions(r, row) for row in labels] for labels in columns[:, index].tolist()]
            assert got.tolist() == want
            assert 0 < got.sum() < got.size

    @pytest.mark.parametrize("n", [13, 14, 16])
    @pytest.mark.parametrize("chunk", [search._CHUNK, 500])
    @pytest.mark.parametrize("swapped", [False, True])
    def test_large_role_tables_in_slices(self, monkeypatch, n, chunk, swapped):
        # 32-run column sets under the role tables of the advisory rows'
        # sizes, cut as a search cuts them: each slice's mask is checked on
        # a seeded sample of its rows
        monkeypatch.setattr(search, "_CHUNK", chunk)
        rng = random.Random(n * 1000 + chunk + swapped)
        sets = []
        while len(sets) < 2:
            row = sorted(rng.sample(range(1, 32), n))
            if gf2.rank(row) == 5:
                sets.append(row)
        covered = 0
        for columns, index in search._assignment_chunks(np.array(sets, dtype=np.int64)):
            if swapped:
                index = index[:, [2, 3, 0, 1, *range(4, n)]]
            got = designs._assignment_mask(columns, index)
            assert got.shape == (len(columns), len(index))
            for g in range(len(columns)):
                for a in rng.sample(range(len(index)), min(40, len(index))):
                    labels = tuple(columns[g, index[a]].tolist())
                    assert got[g, a] == spec_and_conditions(5, labels)
            covered += got.size
        assert covered == len(sets) * math.perm(n, 4) // 2


class TestSpecRows:
    """`_spec_rows` builds unvalidated specs equal to validated ones."""

    @pytest.mark.parametrize("r, n", [(4, 5), (4, 9), (5, 12), (16, 16)])
    @pytest.mark.parametrize("dtype", [np.int64, ">u2"])
    def test_equals_validated_specs(self, r, n, dtype):
        # rows of 2,048 and more cross a block boundary; at r=16 the labels
        # reach past the cached small ints
        rng = random.Random(r * 100 + n)
        rows = []
        while len(rows) < 2100:
            row = tuple(rng.sample(range(1, 1 << r), n))
            if gf2.rank(row) == r:
                rows.append(row)
        got = designs._spec_rows(r, np.array(rows, dtype=dtype))
        want = tuple(RegularSpec(r, row) for row in rows)
        assert got == want
        assert all(type(x) is int for spec in got for x in spec.columns)
        if r == 16:
            assert max(max(row) for row in rows) >= 256

    def test_zero_rows(self):
        assert designs._spec_rows(5, np.zeros((0, 9), dtype=">u2")) == ()

    @pytest.mark.parametrize("enabled", [True, False])
    def test_gc_state_restored(self, enabled):
        was = gc.isenabled()
        try:
            gc.enable() if enabled else gc.disable()
            designs._spec_rows(4, np.array([[1, 2, 4, 8, 15]] * 3))
            assert gc.isenabled() is enabled
        finally:
            gc.enable() if was else gc.disable()


LABELS_TEXT = """\
# five factors in sixteen runs
16 5
labels: 1 2 4 8 15
"""


class TestDesignFiles:
    def test_labels_form(self):
        spec = parse_design_text(LABELS_TEXT)
        assert isinstance(spec, RegularSpec)
        assert spec.columns == (1, 2, 4, 8, 15)
        assert spec.runs == 16

    def test_matrix_form(self):
        mat = expand(RegularSpec(r=4, columns=(1, 2, 4, 8, 15)))
        lines = ["16 5", "matrix:"]
        lines += [" ".join(str(v) for v in row) for row in mat]
        parsed = parse_design_text("\n".join(lines))
        assert isinstance(parsed, np.ndarray)
        assert np.array_equal(parsed, mat)

    def test_load_round_trip(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text(LABELS_TEXT)
        spec = load_design_file(path)
        assert spec == RegularSpec(r=4, columns=(1, 2, 4, 8, 15))

    def test_header_mismatch(self):
        with pytest.raises(FormatError):
            parse_design_text("16 6\nlabels: 1 2 4 8 15\n")

    def test_runs_not_power_of_two(self):
        with pytest.raises(FormatError):
            parse_design_text("12 5\nlabels: 1 2 4 8 11\n")

    def test_label_zero_rejected(self):
        with pytest.raises((FormatError, DesignError)):
            parse_design_text("16 5\nlabels: 1 2 3 0 8\n")

    def test_matrix_row_count_checked(self):
        text = "4 5\nmatrix:\n1 1 1 1 1\n1 -1 1 -1 1\n"
        with pytest.raises(FormatError):
            parse_design_text(text)

    def test_garbage_rejected(self):
        with pytest.raises(FormatError):
            parse_design_text("hello\n")

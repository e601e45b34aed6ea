from collections import Counter
from itertools import combinations

import pytest

from condma.aberration import compare_k, k_sequence_fast
from condma.catalogs import (
    FIXTURES_16,
    FIXTURES_32,
    bundled_catalog,
    parse_catalog,
)
from condma.designs import (
    DesignError,
    FormatError,
    RegularSpec,
    check_conditions_regular,
    expand,
)
from condma.gf2 import rank

from helpers import load_catalog_generator

VALID = "# demo\n16 4\n5: 1 2 4 8 15\n6: 1 2 4 8 3 5\n"


def write(tmp_path, text):
    path = tmp_path / "c.cat"
    path.write_text(text)
    return path


class TestParse:
    def test_valid_file(self, tmp_path):
        cat = parse_catalog(write(tmp_path, VALID))
        assert (cat.runs, cat.r) == (16, 4)
        assert cat.designs_for(5) == ((1, 2, 4, 8, 15),)
        assert cat.designs_for(6) == ((1, 2, 4, 8, 3, 5),)
        assert cat.designs_for(7) == ()
        assert Counter(n for n, _ in cat.entries) == {5: 1, 6: 1}

    @pytest.mark.parametrize(
        "text",
        [
            "16\n5: 1 2 4 8 15\n",  # header not two fields
            "16 x\n5: 1 2 4 8 15\n",  # non-integer header
            "16 5\n5: 1 2 4 8 15\n",  # runs != 2^r
            "16 -1\n5: 1 2 4 8 15\n",  # negative r
            "16 100000000000\n5: 1 2 4 8 15\n",  # huge r
            "0 0\n5: 1 2 4 8 15\n",  # runs not positive
            "16 4\n1 2 4 8 15\n",  # entry missing the colon
            "16 4\n5: 1 2 4 8\n",  # label count mismatch
            "16 4\n5: 1 2 4 8 8\n",  # repeated label
            "16 4\n5: 1 2 4 8 16\n",  # label out of range
            "16 4\n5: 1 2 4 8 0\n",  # zero label
            "16 4\n5: 1 2 3 4 7\n",  # rank-deficient entry
            "16 4\n5: 1 2 4 8 x\n",  # non-integer label
            "16 4\n5: 1 2 4 8 15\n5: 15 8 4 2 1\n",  # duplicate entry
            "16 4\n4: 1 2 4 8\n",  # fewer than five columns
            "# only comments\n",  # no header
            "",  # empty file
        ],
    )
    def test_malformed(self, tmp_path, text):
        with pytest.raises(FormatError):
            parse_catalog(write(tmp_path, text))

    def test_error_names_the_line(self, tmp_path):
        path = write(tmp_path, "16 4\n5: 1 2 4 8 16\n")
        with pytest.raises(FormatError, match=r"c\.cat:2"):
            parse_catalog(path)

    def test_header_error_names_the_line(self, tmp_path):
        path = write(tmp_path, "# catalog\n16 x\n5: 1 2 4 8 15\n")
        with pytest.raises(FormatError, match=r"c\.cat:2: header must be 'N r'"):
            parse_catalog(path)


class TestBundled:
    def test_16_run_class_counts(self):
        cat = bundled_catalog(16)
        assert (cat.runs, cat.r) == (16, 4)
        assert Counter(n for n, _ in cat.entries) == {
            5: 3, 6: 4, 7: 5, 8: 6, 9: 5, 10: 4,
            11: 3, 12: 2, 13: 1, 14: 1, 15: 1,
        }

    def test_32_run_class_counts(self):
        cat = bundled_catalog(32)
        assert (cat.runs, cat.r) == (32, 5)
        expected = [1, 4, 8, 15, 29, 46, 64, 89, 112, 128, 144, 145]
        assert Counter(n for n, _ in cat.entries) == {n: c for n, c in zip(range(5, 17), expected)}

    def test_entries_have_full_rank(self):
        for runs in (16, 32):
            cat = bundled_catalog(runs)
            for _, labels in cat.entries:
                assert rank(labels) == cat.r

    def test_no_bundled_catalog_for_other_runs(self):
        with pytest.raises(FormatError):
            bundled_catalog(8)

    def test_parsed_once_and_shared(self):
        assert bundled_catalog(32) is bundled_catalog(32)
        assert bundled_catalog(16) is not bundled_catalog(32)


class TestCompleteness:
    """The 16-run catalog must list each equivalence class exactly once."""

    @staticmethod
    def sweep(n):
        gen = load_catalog_generator()
        cat = bundled_catalog(16)
        catalog_keys = [gen.canonical_key(labels) for labels in cat.designs_for(n)]
        assert len(set(catalog_keys)) == len(catalog_keys)
        all_keys = set()
        for subset in combinations(range(1, 16), n):
            if rank(subset) == 4:
                all_keys.add(gen.canonical_key(subset))
        assert set(catalog_keys) == all_keys

    def test_n5_classes_match_direct_enumeration(self):
        self.sweep(5)

    @pytest.mark.slow
    @pytest.mark.parametrize("n", range(6, 16))
    def test_all_16_run_classes_match_direct_enumeration(self, n):
        self.sweep(n)

    def test_32_run_small_n_classes_distinct(self):
        gen = load_catalog_generator()
        cat = bundled_catalog(32)
        keys = [
            gen.canonical_key(labels)
            for n in (5, 6, 7)
            for labels in cat.designs_for(n)
        ]
        assert len(set(keys)) == len(keys)


class TestFixtureTables:
    def test_shape(self):
        assert [row.n for row in FIXTURES_16] == list(range(5, 13))
        assert [row.n for row in FIXTURES_32] == list(range(6, 17))
        assert all(row.runs == 16 for row in FIXTURES_16)
        assert all(row.runs == 32 for row in FIXTURES_32)

    def test_statuses(self):
        assert all(row.status == "verified" for row in FIXTURES_16)
        by_n = {row.n: row for row in FIXTURES_32}
        for n in range(6, 13):
            assert by_n[n].status == "verified"
        for n in range(13, 17):
            assert by_n[n].status == "advisory"

    def test_annotations(self):
        by_n = {row.n: row for row in FIXTURES_32}
        assert by_n[11].annotation == "*2"
        assert by_n[12].annotation == "*2"
        assert all(row.annotation == "" for row in FIXTURES_16)

    def test_out_of_range_row_is_flagged_not_dropped(self):
        row = next(r for r in FIXTURES_32 if r.n == 15)
        assert not row.evaluable
        assert 32 in row.labels
        assert row.note
        with pytest.raises(DesignError):
            row.to_spec()

    def test_evaluable_rows_build_and_pass_conditions(self):
        for row in FIXTURES_16 + FIXTURES_32:
            if not row.evaluable:
                continue
            spec = row.to_spec()
            assert isinstance(spec, RegularSpec)
            assert spec.n == row.n
            assert check_conditions_regular(spec).ok

    def test_errata_are_single_misprints_with_worse_k(self):
        errata = {(row.runs, row.n): row for row in FIXTURES_16 + FIXTURES_32 if row.corrected}
        assert {key: row.labels for key, row in errata.items()} == {
            (16, 9): (2, 4, 8, 3, 1, 5, 9, 14, 15),
            (32, 6): (1, 2, 4, 8, 15, 31),
            (32, 14): (1, 4, 7, 11, 2, 8, 16, 13, 14, 19, 21, 22, 25, 26),
        }
        for row in errata.values():
            printed, fixed = row.labels, row.corrected
            assert row.note
            diff = [i for i in range(row.n) if printed[i] != fixed[i]]
            swapped = {printed[i] for i in diff} == {fixed[i] for i in diff}
            transposed = diff in ([0, 1], [2, 3]) and swapped
            assert transposed or len(diff) == 1, f"{row.runs}/n={row.n}: {diff}"
            spec = row.to_spec()
            assert spec.columns == fixed
            assert check_conditions_regular(spec).ok
            printed_k = k_sequence_fast(expand(row.to_spec(printed=True)))
            assert compare_k(printed_k, k_sequence_fast(expand(spec))) > 0

    def test_every_label_set_unique_per_table(self):
        for table in (FIXTURES_16, FIXTURES_32):
            sets = [frozenset(row.labels) for row in table]
            assert len(set(sets)) == len(sets)

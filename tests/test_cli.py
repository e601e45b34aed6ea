import dataclasses
import json

import pytest

from condma.aberration import k_sequence_fast
from condma.catalogs import FIXTURES_16
from condma.cli import _max_diagonal_deviation, main
from condma.designs import RegularSpec, expand
from condma.effects import PriorSpec, beta_index_bits, classify_effect, prior_cov_beta_diag, variance_formula
from condma.search import SearchTask, search_ma
from condma.wordcounts import a_counts

from helpers import wide_spec

FLAGSHIP_TEXT = "16 5\nlabels: 1 2 4 8 15\n"


@pytest.fixture
def flagship_file(tmp_path):
    path = tmp_path / "d.txt"
    path.write_text(FLAGSHIP_TEXT)
    return str(path)


class TestEvaluate:
    def test_json_round_trip(self, flagship_file, capsys):
        assert main(["evaluate", flagship_file, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        seq = k_sequence_fast(expand(RegularSpec(r=4, columns=(1, 2, 4, 8, 15))))
        assert doc["n"] == 5 and doc["N"] == 16
        assert doc["order"] == list(seq.labels())
        assert tuple(doc["values_times_N2"]) == seq.values
        assert tuple(doc["alias_counts"]) == seq.alias_counts()

    def test_text_output(self, flagship_file, capsys):
        assert main(["evaluate", flagship_file]) == 0
        out = capsys.readouterr().out
        assert "runs=16 factors=5" in out
        assert "K02(0)" in out

    def test_full_factorial_is_alias_free(self, tmp_path, capsys):
        path = tmp_path / "ff.txt"
        path.write_text("32 5\nlabels: 1 2 4 8 16\n")
        assert main(["evaluate", str(path), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc["values_times_N2"]) == {0}

    def test_matrix_form_accepted(self, flagship_file, tmp_path, capsys):
        mat = expand(RegularSpec(r=4, columns=(1, 2, 4, 8, 15)))
        rows = "\n".join(" ".join(str(v) for v in row) for row in mat)
        path = tmp_path / "m.txt"
        path.write_text(f"16 5\nmatrix:\n{rows}\n")
        assert main(["evaluate", str(path), "--json"]) == 0
        doc_m = json.loads(capsys.readouterr().out)
        main(["evaluate", flagship_file, "--json"])
        doc_l = json.loads(capsys.readouterr().out)
        assert doc_m == doc_l


class TestCheck:
    def test_flagship_is_optimal(self, flagship_file, capsys):
        assert main(["check", flagship_file]) == 0
        out = capsys.readouterr().out
        assert "universally optimal" in out
        assert "FAIL" not in out

    def test_json_fields(self, flagship_file, capsys):
        assert main(["check", flagship_file, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["strength2"] and doc["quad_1234"]
        assert doc["failures"] == []
        assert doc["optimal"] is True
        assert doc["max_gap"] <= 1e-9

    def test_failing_design_reported(self, tmp_path, capsys):
        # tail label 3 aliases a role triple
        path = tmp_path / "bad.txt"
        path.write_text("16 5\nlabels: 1 2 4 8 3\n")
        assert main(["check", str(path)]) == 0
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert "not certified optimal" in out


class TestCounts:
    def test_json_matches_library(self, flagship_file, capsys):
        assert main(["counts", flagship_file, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        vec = a_counts(RegularSpec(r=4, columns=(1, 2, 4, 8, 15)))
        assert tuple(doc["a1"]) == vec.a1
        assert tuple(doc["a7"]) == vec.a7
        assert doc["reduced_prefix"] == [0, 0, 1, 0, 0]

    def test_oversized_table_exits_one(self, tmp_path, capsys):
        spec = wide_spec()
        path = tmp_path / "wide.txt"
        path.write_text(f"{spec.runs} {spec.n}\nlabels: {' '.join(map(str, spec.columns))}\n")
        assert main(["counts", str(path)]) == 1
        assert "over their limit" in capsys.readouterr().err

    def test_matrix_form_rejected(self, tmp_path, capsys):
        mat = expand(RegularSpec(r=4, columns=(1, 2, 4, 8, 15)))
        rows = "\n".join(" ".join(str(v) for v in row) for row in mat)
        path = tmp_path / "m.txt"
        path.write_text(f"16 5\nmatrix:\n{rows}\n")
        assert main(["counts", str(path)]) == 1
        assert "condma:" in capsys.readouterr().err


class TestPrior:
    def test_hierarchy_json(self, capsys):
        assert main(["prior", "--n", "6", "--rho", "0.4", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["strictly_decreasing"] is True
        assert doc["max_diagonal_deviation"] < 1e-12
        variances = [v for _, _, v in doc["hierarchy"]]
        assert variances == sorted(variances, reverse=True)
        assert doc["hierarchy"][0][:2] == [0, 1]

    def test_text_output(self, capsys):
        assert main(["prior", "--n", "5", "--rho", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "strictly decreasing: yes" in out

    def test_bad_rho(self, capsys):
        assert main(["prior", "--n", "5", "--rho", "1.5"]) == 1
        assert "condma:" in capsys.readouterr().err

    def test_no_diagonal_beyond_n20_is_strict_json_null(self, capsys):
        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        assert main(["prior", "--n", "21", "--rho", "0.3", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert doc["max_diagonal_deviation"] is None
        assert main(["prior", "--n", "21", "--rho", "0.3"]) == 0
        assert "max |diagonal" not in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv, message",
        [
            # every variance underflows to 0
            (["--n", "600", "--rho", "0.5"], "n=600, rho=0.5: double precision cannot resolve"),
            # the step ratio 1/(1 - rho**2) rounds to 1
            (["--n", "8", "--rho", "1e-9"], "n=8, rho=1e-09: double precision cannot resolve"),
            (["--n", "2000", "--rho", "0.5"], "n=2000, rho=0.5: the variances overflow"),
            (["--n", "2000", "--rho", "0.5", "--json"], "n=2000, rho=0.5: the variances overflow"),
            (["--n", "6", "--rho", "0.3", "--sigma2", "inf"], "sigma2=inf must be positive and finite"),
            (["--n", "6", "--rho", "0.3", "--sigma2", "nan"], "sigma2=nan must be positive and finite"),
            (["--n", "-3", "--rho", "0.3"], "n=-3: need n >= 4"),
            (["--n", "3", "--rho", "0.3", "--json"], "n=3: need n >= 4"),
        ],
    )
    def test_unresolvable_or_invalid_ladder_exits_one(self, argv, message, capsys):
        assert main(["prior", *argv]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"condma: {message}")
        assert err.count("\n") == 1  # one line, no traceback

    def test_rho_zero_is_flat(self, capsys):
        # no hierarchy without correlation: a correct NO, not a refusal
        assert main(["prior", "--n", "8", "--rho", "0"]) == 0
        assert "strictly decreasing: NO" in capsys.readouterr().out
        assert main(["prior", "--n", "8", "--rho", "0", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["strictly_decreasing"] is False

    @pytest.mark.parametrize("n", [4, 5, 6, 9])
    def test_blockwise_deviation_matches_per_position_loop(self, n):
        for rho in (0.05, 0.3, 0.77):
            prior = PriorSpec(rho=rho, sigma2=2.5)
            diag = prior_cov_beta_diag(n, prior)
            want = 0.0
            for pos in range(1 << n):
                cls = classify_effect(beta_index_bits(pos, n))
                if cls is not None:
                    want = max(want, abs(diag[pos] - variance_formula(n, *cls, prior)))
            assert _max_diagonal_deviation(n, prior) == want


class TestSearch:
    def test_json_matches_library(self, capsys):
        rc = main(
            ["search", "--runs", "16", "--factors", "5", "--all-minima", "--json"]
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        res = search_ma(SearchTask(runs=16, n=5))
        assert doc["found"] is True
        assert tuple(doc["best_values_times_N2"]) == res.best_k.values
        assert doc["minimizer_count"] == len(res.minimizers)
        assert [tuple(m) for m in doc["minimizers"]] == [
            m.columns for m in res.minimizers
        ]
        assert doc["candidates_examined"] == res.candidates_examined

    def test_text_output(self, capsys):
        assert main(["search", "--runs", "16", "--factors", "6"]) == 0
        out = capsys.readouterr().out
        assert "best K (alias-count units):" in out
        assert "K-equal minimizers:" in out

    def test_exhaustive_beyond_16_runs(self, capsys):
        assert main(["search", "--runs", "32", "--factors", "6"]) == 0
        assert "K-equal minimizers:" in capsys.readouterr().out

    def test_32_run_exhaustive_default_json(self, capsys):
        # the values of the library's pinned 32-exhaustive-n8 search
        assert main(["search", "--runs", "32", "--factors", "8", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["mode"] == "exhaustive"
        assert (doc["minimizer_count"], doc["candidates_examined"], doc["pruned"]) == (16, 12524, 5026)

    def test_no_symmetry_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["search", "--runs", "16", "--factors", "9", "--mode", "catalog", "--no-symmetry"])
        assert exc.value.code == 1
        assert "--no-symmetry" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["search", "--runs", "32", "--factors", "6", "--force"], "--force"),
            (["fixtures", "--runs", "16", "--workers", "2"], "--workers"),
            (["check", "d.txt", "--tol", "1e-6"], "--tol"),
        ],
        ids=["search-force", "fixtures-workers", "check-tol"],
    )
    def test_retired_flags_are_usage_errors(self, argv, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert flag in capsys.readouterr().err

    def test_catalog_outside_catalog_mode_exits_one(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.cat")
        assert main(["search", "--runs", "16", "--factors", "6", "--catalog", missing]) == 1
        assert "catalog mode" in capsys.readouterr().err

    def test_runs_beyond_max_r_exit_one(self, capsys):
        rc = main(["search", "--runs", "131072", "--factors", "17", "--mode", "catalog"])
        assert rc == 1
        assert "power of two" in capsys.readouterr().err


class TestFixtures:
    def test_list_all(self, capsys):
        assert main(["fixtures"]) == 0
        out = capsys.readouterr().out
        assert out.count("runs=16") == 8
        assert out.count("runs=32") == 11
        assert "[*2]" in out
        assert "label 32 outside" in out

    def test_verify_16_run_table_reports_the_bad_row(self, capsys):
        # the printed n=9 row transposes its first pair: the corrected
        # labelling verifies, and the printed one's K stays reported
        rc = main(["fixtures", "--verify", "--runs", "16", "--json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        outcomes = {row["n"]: row["outcome"] for row in doc["rows"]}
        assert outcomes == {n: "ok" for n in range(5, 13)}
        row9 = next(row for row in doc["rows"] if row["n"] == 9)
        assert row9["labels"] == [2, 4, 8, 3, 1, 5, 9, 14, 15]
        assert row9["corrected"] == [4, 2, 8, 3, 1, 5, 9, 14, 15]
        assert row9["note"]
        assert row9["detail"].endswith("; printed labelling K03(1): 3328 vs corrected 3072")

    def test_verify_32_run_table(self, capsys):
        # n=11 and 12 (*2) are beaten by the catalog optimum and n=13 by a
        # reassignment of its own columns; n=15 prints label 32
        rc = main(["fixtures", "--verify", "--runs", "32", "--json"])
        assert rc == 1
        rows = {row["n"]: row for row in json.loads(capsys.readouterr().out)["rows"]}
        outcomes = {n: row["outcome"] for n, row in rows.items()}
        assert outcomes == {
            **{n: "ok" for n in (6, 7, 8, 9, 10, 14, 16)},
            **{n: "mismatch" for n in (11, 12, 13)},
            15: "skipped",
        }
        assert rows[6]["detail"].endswith("printed labelling K12(1): 2048 vs corrected 0")
        assert rows[14]["detail"].endswith("printed labelling K04(1): 66560 vs corrected 65536")

    def test_verify_reports_a_beaten_row(self, monkeypatch, capsys):
        # the n=9 row as printed, without its erratum, is beaten
        row9 = next(row for row in FIXTURES_16 if row.n == 9)
        printed = dataclasses.replace(row9, corrected=None, note="")
        monkeypatch.setattr("condma.cli.fixtures", lambda runs: (printed,))
        rc = main(["fixtures", "--verify", "--runs", "16", "--json"])
        assert rc == 1
        (row,) = json.loads(capsys.readouterr().out)["rows"]
        assert row["outcome"] == "mismatch"
        assert row["corrected"] is None


class TestErrors:
    def test_missing_file(self, capsys):
        assert main(["evaluate", "/no/such/file"]) == 1
        assert "condma:" in capsys.readouterr().err

    def test_malformed_file(self, tmp_path, capsys):
        path = tmp_path / "junk.txt"
        path.write_text("pure nonsense\n")
        assert main(["evaluate", str(path)]) == 1

    def test_unexpected_exception_exits_two(self, monkeypatch, capsys):
        def fail(task):
            raise RuntimeError("boom")

        monkeypatch.setattr("condma.cli.search_ma", fail)
        assert main(["search", "--runs", "16", "--factors", "6"]) == 2
        assert capsys.readouterr().err == "condma: internal error: RuntimeError: boom\n"

    def test_bad_usage_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            main(["evaluate"])
        assert exc.value.code == 1
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == 1

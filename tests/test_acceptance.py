"""End-to-end acceptance checks for the whole package.

One test per acceptance criterion, in order.  Each prints one line per
sub-check (visible with -s or on failure) and asserts with a factual
message.  The benchmark rows are checked through ``FixtureRow.to_spec()``,
so the three rows with a recorded erratum (16-run n=9, 32-run n=6 and
n=14) are checked in their corrected labelling.  Criterion 2 fails
honestly: the 32-run rows n=11, n=12 and n=13 are beaten by the searches
here and no misprint explains them; the test states the discrepancy
instead of hiding it.
"""

import random
from itertools import combinations

import numpy as np
import pytest

from condma.aberration import (
    compare_k,
    entry_labels,
    k_sequence_direct,
    k_sequence_fast,
    q_polynomial,
    q_polynomial_table,
)
from condma.catalogs import FIXTURES_16, FIXTURES_32
from condma.designs import RegularSpec, check_conditions_regular, expand
from condma.effects import (
    PriorSpec,
    beta_index_bits,
    classify_effect,
    hierarchy_sequence,
    prior_cov_beta,
    variance_formula,
)
from condma.gf2 import rank, subset_sum_table
from condma.modelmat import info_matrix, optimality_check
from condma.search import SearchTask, search_ma, search_within_columns
from condma.wordcounts import a_counts, complement_counts, k_from_counts

from helpers import random_admissible_spec, random_valid_spec


def first_difference(n, row_values, best_values):
    labels = entry_labels(n)
    for lab, rv, bv in zip(labels, row_values, best_values):
        if rv != bv:
            return f"{lab}: row {rv} vs best {bv}"
    return "sequences equal"


def test_01_16_run_benchmark_reproduction():
    # exhaustive search must reproduce each published 16-run row exactly
    bad = []
    for row in FIXTURES_16:
        res = search_ma(SearchTask(runs=16, n=row.n))
        row_k = k_sequence_fast(expand(row.to_spec()))
        cmp = compare_k(res.best_k, row_k)
        if cmp == 0:
            print(f"n={row.n:2d}: row K-minimal, {len(res.minimizers)} K-equal minimizers")
        else:
            detail = first_difference(row.n, row_k.values, res.best_k.values)
            print(f"n={row.n:2d}: row BEATEN by search ({detail})")
            bad.append(f"n={row.n} ({detail}; a better design: {res.minimizers[0].columns})")
    assert not bad, "16-run benchmark rows not K-minimal: " + "; ".join(bad)


def test_02_32_run_benchmark_reproduction():
    bad = []
    by_n = {row.n: row for row in FIXTURES_32}
    for n in range(6, 13):
        row = by_n[n]
        res = search_ma(SearchTask(runs=32, n=n, mode="catalog"))
        row_k = k_sequence_fast(expand(row.to_spec()))
        cmp = compare_k(res.best_k, row_k)
        tag = f"{len(res.minimizers)} K-equal minimizers"
        if cmp == 0:
            print(f"n={n:2d} catalog: row K-minimal, {tag}")
        else:
            detail = first_difference(n, row_k.values, res.best_k.values)
            print(f"n={n:2d} catalog: row BEATEN ({detail}), optimum has {tag}")
            bad.append(f"n={n} ({detail})")
    for n in (13, 14, 16):
        row = by_n[n]
        res = search_within_columns(32, row.labels)
        row_k = k_sequence_fast(expand(row.to_spec()))
        cmp = compare_k(res.best_k, row_k)
        if cmp == 0:
            print(f"n={n:2d} own-columns: row not beaten ({len(res.minimizers)} ties)")
        else:
            detail = first_difference(n, row_k.values, res.best_k.values)
            print(f"n={n:2d} own-columns: row BEATEN by a reassignment ({detail})")
            bad.append(f"n={n} within own columns ({detail})")
    print("n=15 excluded: label 32 outside [1, 31]")
    assert not bad, "32-run benchmark rows not reproduced: " + "; ".join(bad)


def test_03_prior_variance_closed_form():
    worst = 0.0
    for n in (5, 6, 8):
        for rho in (0.1, 0.5, 0.9):
            prior = PriorSpec(rho=rho)
            cov = prior_cov_beta(n, prior)
            for pos in range(1 << n):
                cls = classify_effect(beta_index_bits(pos, n))
                if cls is None:
                    continue
                s, l = cls
                dev = abs(cov[pos, pos] - variance_formula(n, s, l, prior))
                worst = max(worst, dev)
            print(f"n={n} rho={rho}: all {(1 << n) - 1} diagonal entries match")
    print(f"worst deviation {worst:.3g}")
    assert worst <= 1e-9, f"diagonal deviates from closed form by {worst:.3g}"


def test_04_variance_hierarchy_and_ratio():
    grid = np.linspace(0.05, 0.95, 19)
    for n in range(5, 11):
        for rho in grid:
            prior = PriorSpec(rho=float(rho))
            ladder = hierarchy_sequence(n, prior)
            values = [v for _, v in ladder]
            assert all(a > b for a, b in zip(values, values[1:])), (
                f"hierarchy not strictly decreasing at n={n}, rho={rho:.2f}"
            )
            for l in range(2, n - 1):
                ratio = variance_formula(n, 2, l, prior) / variance_formula(
                    n, 0, l + 1, prior
                )
                expect = 1.0 / (1.0 - float(rho) ** 2)
                assert ratio == pytest.approx(expect, abs=1e-12), (
                    f"step ratio wrong at n={n}, l={l}, rho={rho:.2f}"
                )
        print(f"n={n}: strictly decreasing on the 19-point grid, step ratios exact")


def test_05_three_route_agreement():
    rng = random.Random(505)
    corpus = [random_valid_spec(rng, 4, rng.randint(5, 12)) for _ in range(100)]
    corpus += [random_valid_spec(rng, 5, rng.randint(5, 16)) for _ in range(50)]
    counts_checked = 0
    counterexample = None
    for spec in corpus:
        matrix = expand(spec)
        direct = k_sequence_direct(matrix)
        fast = k_sequence_fast(matrix)
        assert direct == fast, f"direct and fast routes differ on {spec.columns}"
        from_counts = k_from_counts(spec)
        if check_conditions_regular(spec).ok:
            counts_checked += 1
            assert from_counts == direct, (
                f"counts route differs on condition-passing spec {spec.columns}"
            )
        elif from_counts != direct and counterexample is None:
            detail = first_difference(spec.n, from_counts.values, direct.values)
            counterexample = f"{spec.columns} ({detail})"
    print(f"direct == fast on all {len(corpus)} specs")
    print(f"counts route checked on {counts_checked} condition-passing specs")
    if counterexample:
        # expected: the counts route presumes the admissibility conditions
        print(f"counts route needs the conditions; first counterexample {counterexample}")
    assert counts_checked >= 10


def test_06_information_matrix_and_conditions():
    for row in FIXTURES_16:
        m = info_matrix(expand(row.to_spec()))
        side = row.n + 2
        assert m.shape == (side, side)
        gap = np.abs(m - 16.0 * np.eye(side)).max()
        assert gap <= 1e-9, f"n={row.n}: M deviates from 16*I by {gap:.3g}"
    print(f"all {len(FIXTURES_16)} benchmark designs give M = 16*I exactly")

    rng = random.Random(606)
    hits = 0
    for _ in range(200):
        spec = random_valid_spec(rng, 4, rng.randint(5, 12))
        if check_conditions_regular(spec).ok:
            hits += 1
            assert optimality_check(expand(spec)), (
                f"conditions hold but M != N*I for {spec.columns}"
            )
    print(f"conditions => optimality on {hits} of 200 random specs hitting the hypothesis")
    assert hits >= 10

    # label sums b1^b2^b3^b4 = 0: only the four-column condition fails
    engineered = [
        (1, 2, 4, 7, 8),
        (1, 2, 4, 7, 8, 11),
        (1, 2, 8, 11, 4),
    ]
    for columns in engineered:
        spec = RegularSpec(r=4, columns=columns)
        report = check_conditions_regular(spec)
        assert not report.quad_1234
        assert report.strength2 and report.triples_12 and report.triples_34
        assert not optimality_check(expand(spec)), (
            f"{columns} violates the four-column condition yet M = N*I"
        )
    print(f"{len(engineered)} engineered four-column violations all fail the optimality check")


def test_07_recursion_matches_enumeration():
    checked = 0
    for n in range(4, 13):
        m = n - 4
        for c in range(0, m + 1):
            signs = [1] * c + [-1] * (m - c)
            for l in range(0, n - 1):
                brute = sum(
                    int(np.prod([signs[i] for i in picked]))
                    for picked in combinations(range(m), l)
                )
                assert q_polynomial(l, c, n) == brute, (
                    f"recursion differs from enumeration at n={n}, c={c}, l={l}"
                )
                checked += 1
    print(f"recursion equals subset-product enumeration on {checked} cells (n <= 12)")
    table = q_polynomial_table(20)
    assert table.dtype == np.int64
    print("recursion stays integral through n=20")


def test_08_complement_difference_identities():
    rng = random.Random(808)
    for trial in range(20):
        n = rng.choice((8, 10, 12))
        a = random_admissible_spec(rng, 4, n)
        b = random_admissible_spec(rng, 4, n)
        ca, cb = a_counts(a), a_counts(b)
        ta, tb = complement_counts(a), complement_counts(b)
        assert ca.a1[3] - cb.a1[3] == -(ta.a3_tilde - tb.a3_tilde), (
            f"three-letter identity fails on {a.columns} vs {b.columns}"
        )
        assert ca.a1[4] - cb.a1[4] == (ta.a3_tilde + ta.a4_tilde) - (
            tb.a3_tilde + tb.a4_tilde
        ), f"four-letter identity fails on {a.columns} vs {b.columns}"
        assert ca.a2[2] - cb.a2[2] == (ta.a2_12 + ta.a2_34) - (
            tb.a2_12 + tb.a2_34
        ), f"paired-count identity fails on {a.columns} vs {b.columns}"
        assert ca.a7[1] - cb.a7[1] == -(sum(ta.h1) - sum(tb.h1)), (
            f"membership identity fails on {a.columns} vs {b.columns}"
        )
    print("difference identities exact on 20 condition-passing pairs")

    # the membership identity also holds for arbitrary label sets once
    # the two specs kill the same number of the four target words
    def zero_targets(spec):
        b1, b2, b3, b4 = spec.columns[:4]
        words = (b1 ^ b3, b1 ^ b2 ^ b3, b1 ^ b3 ^ b4, b1 ^ b2 ^ b3 ^ b4)
        return sum(1 for w in words if w == 0)

    done = 0
    while done < 20:
        n = rng.choice((8, 10, 12))
        a = random_valid_spec(rng, 4, n)
        b = random_valid_spec(rng, 4, n)
        if zero_targets(a) != zero_targets(b):
            continue
        ca, cb = a_counts(a), a_counts(b)
        ta, tb = complement_counts(a), complement_counts(b)
        assert ca.a7[1] - cb.a7[1] == -(sum(ta.h1) - sum(tb.h1))
        done += 1
    print("membership identity exact on 20 matched arbitrary pairs")


def test_09_search_determinism():
    for n in (6, 9):
        results = [
            search_ma(SearchTask(runs=16, n=n, workers=w)) for w in (1, 4, 8)
        ]
        head = results[0]
        for other in results[1:]:
            assert other.best_k == head.best_k, f"best K varies with workers at n={n}"
            assert other.minimizers == head.minimizers, (
                f"minimizer list varies with workers at n={n}"
            )
            assert (other.candidates_examined, other.pruned) == (
                head.candidates_examined,
                head.pruned,
            ), f"counters vary with workers at n={n}"
        print(f"n={n}: identical results for 1, 4 and 8 workers")


def test_10_aberration_criteria_overlap():
    # at least one conditional-model minimum per n is also a minimum of
    # the classic wordlength criterion over the full column set
    universal_counterexample = None
    for n in range(5, 13):
        res = search_ma(SearchTask(runs=16, n=n))
        cond_sets = {frozenset(m.columns) for m in res.minimizers}
        best_pattern = None
        trad_sets = set()
        for subset in combinations(range(1, 16), n):
            if rank(subset) != 4:
                continue
            table = subset_sum_table(subset, 4)
            pattern = tuple(table[l][0] for l in range(3, n + 1))
            if best_pattern is None or pattern < best_pattern:
                best_pattern, trad_sets = pattern, {frozenset(subset)}
            elif pattern == best_pattern:
                trad_sets.add(frozenset(subset))
        overlap = cond_sets & trad_sets
        print(
            f"n={n:2d}: {len(cond_sets)} conditional minima, "
            f"{len(trad_sets)} classic-minimum sets, overlap {len(overlap)}"
        )
        assert overlap, (
            f"n={n}: no conditional-model minimum attains the classic "
            f"minimum pattern {best_pattern}"
        )
        if universal_counterexample is None:
            outside = cond_sets - trad_sets
            if outside:
                universal_counterexample = (n, sorted(next(iter(outside))))
    # the stronger reading (every conditional minimum is a classic
    # minimum) is false; record one witness
    assert universal_counterexample is not None
    n, cols = universal_counterexample
    print(f"not every conditional minimum is a classic one: n={n}, columns {cols}")

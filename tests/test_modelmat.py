import random
from itertools import combinations
from math import comb

import numpy as np
import pytest

from condma.designs import RegularSpec, check_conditions_regular, expand
from condma.modelmat import (
    build_x_block,
    build_x_column,
    build_z_block,
    info_matrix,
    omega_members,
    optimality_check,
    optimality_gap,
)
from helpers import random_valid_spec

FLAGSHIP = RegularSpec(r=4, columns=(1, 2, 4, 8, 15))


def reference_members(n, s, l):
    """Class-(s, l) members one tuple at a time, from the class rules."""
    if l < s:
        return []
    out = []
    rest = range(4, n)
    if s == 0:
        # j1 = j3 = 0, l ones among j2, j4, j5..jn.
        for active in combinations([1, 3, *rest], l):
            out.append(tuple(int(j in active) for j in range(n)))
    elif s == 1:
        # j1 = 1 (j2 free, j3 = 0) with l-1 ones among j4..jn, plus the
        # mirrored branch with j3 = 1 (j4 free, j1 = 0).
        for lead, free, slots in ((0, 1, [3, *rest]), (2, 3, [1, *rest])):
            for jf in (0, 1):
                for active in combinations(slots, l - 1):
                    bits = [int(j in active) for j in range(n)]
                    bits[lead], bits[free] = 1, jf
                    out.append(tuple(bits))
    else:
        # j1 = j3 = 1, j2 and j4 free, l-2 ones among j5..jn.
        for j2 in (0, 1):
            for j4 in (0, 1):
                for active in combinations(rest, l - 2):
                    out.append((1, j2, 1, j4, *(int(j in active) for j in rest)))
    return sorted(out)


def reference_z_column(mat, s, bits):
    """One Z column mixed from `build_x_column`s, as the class rules say."""
    x = lambda b: build_x_column(mat, b)  # noqa: E731
    d2, d4 = 1.0 - 2.0 * bits[1], 1.0 - 2.0 * bits[3]
    if s == 0:
        return x(bits).astype(np.float64)
    if s == 1 and bits[0]:
        return (x((1, 0, *bits[2:])) + d2 * x((1, 1, *bits[2:]))) / np.sqrt(2.0)
    if s == 1:
        return (x((*bits[:3], 0, *bits[4:])) + d4 * x((*bits[:3], 1, *bits[4:]))) / np.sqrt(2.0)
    return (
        x((1, 0, 1, 0, *bits[4:]))
        + d4 * x((1, 0, 1, 1, *bits[4:]))
        + d2 * x((1, 1, 1, 0, *bits[4:]))
        + d2 * d4 * x((1, 1, 1, 1, *bits[4:]))
    ) / 2.0


def test_omega_members_match_reference():
    for n in range(4, 14):
        for s in (0, 1, 2):
            for l in range(-1, n + 2):
                got = omega_members(n, s, l)
                assert got == reference_members(n, s, l), (n, s, l)
                assert all(type(b) is int for bits in got for b in bits)
    assert omega_members(6, 0, 0) == [(0,) * 6]


def test_z_block_matches_per_member_reference():
    rng = random.Random(23)
    for r, n in ((4, 5), (4, 8), (4, 10), (5, 6), (5, 8), (5, 10)):
        mat = expand(random_valid_spec(rng, r, n))
        for s in (0, 1, 2):
            for l in range(max(s, 1), n - 1):
                members = omega_members(n, s, l)
                want = np.column_stack([reference_z_column(mat, s, b) for b in members])
                got = build_z_block(mat, s, l)
                assert got.dtype == np.float64
                assert np.array_equal(got, want), (r, n, s, l)


def test_omega_sizes():
    n = 7
    for l in range(1, n - 1):
        assert len(omega_members(n, 0, l)) == comb(n - 2, l)
        assert len(omega_members(n, 1, l)) == 4 * comb(n - 3, max(l - 1, 0))
        size2 = 4 * comb(n - 4, l - 2) if l >= 2 else 0
        assert len(omega_members(n, 2, l)) == size2
    assert omega_members(n, 2, 1) == []
    with pytest.raises(ValueError):
        omega_members(n, 3, 2)


def test_omega_members_are_disjoint():
    n = 6
    seen = set()
    for s in (0, 1, 2):
        for l in range(1, n):
            for bits in omega_members(n, s, l):
                assert bits not in seen
                seen.add(bits)
    # every pattern except the grand mean appears exactly once
    assert len(seen) == (1 << n) - 1


def test_x_block_weight_one_is_plain_columns():
    mat = expand(FLAGSHIP)
    block = build_x_block(mat, 0, 1)
    # class (0,1) members are single factors 2, 4, 5..n in some fixed order
    member_cols = [mat[:, 1], mat[:, 3], mat[:, 4]]
    got = {tuple(block[:, j]) for j in range(block.shape[1])}
    assert got == {tuple(c) for c in member_cols}


def test_x_block_is_its_columns_in_member_order():
    rng = random.Random(17)
    for r, n in ((4, 7), (5, 9)):
        mat = expand(random_valid_spec(rng, r, n))
        for s in (0, 1, 2):
            for l in range(s, n - 1):
                members = omega_members(n, s, l)
                block = build_x_block(mat, s, l)
                assert block.dtype == np.int64
                assert block.shape == (mat.shape[0], len(members))
                if members:
                    want = np.column_stack([build_x_column(mat, b) for b in members])
                    assert np.array_equal(block, want)


def test_full_factorial_blocks_orthogonal():
    mat = expand(RegularSpec(r=5, columns=(1, 2, 4, 8, 16)))
    for s, l in ((0, 2), (1, 1), (1, 2), (2, 2), (2, 3)):
        x = build_x_block(mat, s, l)
        assert np.array_equal(x.T @ x, 32 * np.eye(x.shape[1]))


def test_aliased_word_duplicates_column():
    # 15 = 1^2^4^8, so the four-way interaction matches the fifth column
    mat = expand(FLAGSHIP)
    full = build_x_column(mat, (1, 1, 1, 1, 0))
    single = build_x_column(mat, (0, 0, 0, 0, 1))
    assert np.array_equal(full, single)


def test_z_equals_x_for_unconditional_classes():
    mat = expand(FLAGSHIP)
    for l in (1, 2, 3):
        assert np.allclose(build_z_block(mat, 0, l), build_x_block(mat, 0, l))


def test_z_preserves_total_energy():
    mat = expand(random_valid_spec(random.Random(3), 4, 7))
    for s, l in ((1, 1), (1, 2), (2, 2), (2, 3)):
        z = build_z_block(mat, s, l)
        x = build_x_block(mat, s, l)
        assert np.trace(z.T @ z) == pytest.approx(np.trace(x.T @ x), abs=1e-9)
        assert np.trace(x.T @ x) == x.shape[0] * x.shape[1]


def test_z_entries_for_aliased_pair():
    # on the flagship design every s=1 contrast mixes two plain columns
    # that are either identical or opposite somewhere, so entries land in
    # {0, +-sqrt2} exactly
    mat = expand(FLAGSHIP)
    z = build_z_block(mat, 1, 1)
    allowed = {0.0, np.sqrt(2.0), -np.sqrt(2.0)}
    assert {round(abs(v), 12) for v in z.ravel()} <= {round(abs(a), 12) for a in allowed}


def test_info_matrix_flagship():
    mat = expand(FLAGSHIP)
    m = info_matrix(mat)
    assert m.shape == (7, 7)
    assert np.max(np.abs(m - 16 * np.eye(7))) < 1e-9


def test_main_effect_contrasts_are_centered():
    # conditions passing implies each Z1 column sums to zero
    rng = random.Random(17)
    for _ in range(20):
        spec = random_valid_spec(rng, 4, 6)
        if not check_conditions_regular(spec).ok:
            continue
        mat = expand(spec)
        z1 = np.hstack([build_z_block(mat, 0, 1), build_z_block(mat, 1, 1)])
        assert np.allclose(z1.sum(axis=0), 0.0, atol=1e-9)


def test_dependent_roles_break_optimality():
    # 7 = 1^2^4: the fourth role is a product of the first three
    spec = RegularSpec(r=4, columns=(1, 2, 4, 7, 8, 3))
    assert not check_conditions_regular(spec).quad_1234
    mat = expand(spec)
    assert not optimality_check(mat)
    off = info_matrix(mat) - 16 * np.eye(8)
    assert np.max(np.abs(off)) > 1


def test_conditions_imply_optimality():
    rng = random.Random(29)
    hits = 0
    for _ in range(80):
        spec = random_valid_spec(rng, 4, rng.randrange(5, 9))
        if check_conditions_regular(spec).ok:
            hits += 1
            assert optimality_check(expand(spec))
    assert hits > 10


def test_full_factorial_optimal():
    mat = expand(RegularSpec(r=5, columns=(1, 2, 4, 8, 16)))
    assert optimality_check(mat)
    assert optimality_gap(mat) < 1e-12


def test_tolerance_is_not_settable():
    with pytest.raises(TypeError):
        optimality_check(expand(FLAGSHIP), tol=1e-6)


def test_repeated_column_not_optimal():
    base = expand(FLAGSHIP)
    doubled = np.hstack([base, base[:, -1:]])
    assert not optimality_check(doubled)

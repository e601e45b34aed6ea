"""Model matrices for a design under the conditional parametrization.

X columns are plain interaction contrasts: the column for bits (j1..jn)
is the row-wise product of the design columns with j = 1.  Z columns are
the conditional-parametrization contrasts; they agree with X on effects
that involve no conditional factor and otherwise mix the two columns of a
conditional pair with weight 1/sqrt2 per active conditional factor.

The first-stage information matrix uses the class-(0,1) and class-(1,1)
blocks, centered: M = Z1^T (I - 11^T/N) Z1 with Z1 = [Z_01, Z_11], a
square matrix of side (n-2) + 4 = n+2.  For designs passing the four
admissibility conditions M equals N times the identity.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .designs import as_design_matrix

__all__ = [
    "omega_members",
    "build_x_column",
    "build_x_block",
    "build_z_block",
    "info_matrix",
    "optimality_gap",
    "optimality_check",
]


def omega_members(n: int, s: int, l: int) -> list[tuple[int, ...]]:
    """All bit tuples (j1..jn) in class (s, l), in lexicographic order.

    Class sizes: C(n-2, l) for s=0, 4*C(n-3, l-1) for s=1, and
    4*C(n-4, l-2) for s=2.
    """
    if s not in (0, 1, 2):
        raise ValueError(f"s must be 0, 1 or 2, got {s}")
    if l < s:
        # an active conditional factor contributes 1 to l, so no
        # pattern can have fewer active positions than pairs
        return []
    out: list[tuple[int, ...]] = []
    rest = range(4, n)
    if s == 0:
        # j1 = j3 = 0, l ones among j2, j4, j5..jn.
        slots = [1, 3, *rest]
        for active in combinations(slots, l):
            bits = [0] * n
            for a in active:
                bits[a] = 1
            out.append(tuple(bits))
    elif s == 1:
        # j1 = 1 (j2 free, j3 = 0) with l-1 ones among j4..jn, plus the
        # mirrored branch with j3 = 1 (j4 free, j1 = 0).
        for j2 in (0, 1):
            slots = [3, *rest]
            for active in combinations(slots, l - 1):
                bits = [0] * n
                bits[0], bits[1] = 1, j2
                for a in active:
                    bits[a] = 1
                out.append(tuple(bits))
        for j4 in (0, 1):
            slots = [1, *rest]
            for active in combinations(slots, l - 1):
                bits = [0] * n
                bits[2], bits[3] = 1, j4
                for a in active:
                    bits[a] = 1
                out.append(tuple(bits))
    else:
        # j1 = j3 = 1, j2 and j4 free, l-2 ones among j5..jn.
        for j2 in (0, 1):
            for j4 in (0, 1):
                for active in combinations(rest, l - 2):
                    bits = [0] * n
                    bits[0], bits[1], bits[2], bits[3] = 1, j2, 1, j4
                    for a in active:
                        bits[a] = 1
                    out.append(tuple(bits))
    return sorted(out)


def build_x_column(matrix: np.ndarray, bits: tuple[int, ...]) -> np.ndarray:
    """Row-wise product of the design columns with bit 1 (int64)."""
    mat = np.asarray(matrix)
    col = np.ones(mat.shape[0], dtype=np.int64)
    for j, b in enumerate(bits):
        if b:
            col *= mat[:, j]
    return col


def build_x_block(matrix: np.ndarray, s: int, l: int) -> np.ndarray:
    """N x |class| matrix of X columns for class (s, l) (int64).

    Column j is `build_x_column` of member j: its entry in run u is -1 to
    the number of the member's columns that are -1 in run u, so the whole
    block is one parity product of the 0/1 minus-sign matrix with the 0/1
    member matrix.
    """
    mat = as_design_matrix(matrix)
    n = mat.shape[1]
    members = np.array(omega_members(n, s, l), dtype=np.int64).reshape(-1, n)
    minus = (mat < 0).astype(np.int64)
    return 1 - 2 * ((minus @ members.T) & 1)


def build_z_block(matrix: np.ndarray, s: int, l: int) -> np.ndarray:
    """N x |class| matrix of Z columns for class (s, l).

    With delta(j) = 1 - 2j and writing x[...] for `build_x_column`:

      s=0:  z = x (identity)
      s=1, first pair:   z = (x[j2->0] + delta(j2) x[j2->1]) / sqrt2
      s=1, second pair:  z = (x[j4->0] + delta(j4) x[j4->1]) / sqrt2
      s=2:  quarter mix of the four (j2, j4) settings with delta weights
    """
    mat = as_design_matrix(matrix)
    n = mat.shape[1]
    members = omega_members(n, s, l)
    cols = []
    for bits in members:
        j1, j2, j3, j4 = bits[:4]
        if s == 0:
            z = build_x_column(mat, bits).astype(np.float64)
        elif s == 1 and j1 == 1:
            b0 = (bits[0], 0, *bits[2:])
            b1 = (bits[0], 1, *bits[2:])
            d2 = 1.0 - 2.0 * j2
            z = (build_x_column(mat, b0) + d2 * build_x_column(mat, b1)) / np.sqrt(2.0)
        elif s == 1:
            b0 = (*bits[:3], 0, *bits[4:])
            b1 = (*bits[:3], 1, *bits[4:])
            d4 = 1.0 - 2.0 * j4
            z = (build_x_column(mat, b0) + d4 * build_x_column(mat, b1)) / np.sqrt(2.0)
        else:
            d2 = 1.0 - 2.0 * j2
            d4 = 1.0 - 2.0 * j4
            z = (
                build_x_column(mat, (1, 0, 1, 0, *bits[4:]))
                + d4 * build_x_column(mat, (1, 0, 1, 1, *bits[4:]))
                + d2 * build_x_column(mat, (1, 1, 1, 0, *bits[4:]))
                + d2 * d4 * build_x_column(mat, (1, 1, 1, 1, *bits[4:]))
            ) / 2.0
        cols.append(z)
    return np.column_stack(cols)


def info_matrix(matrix: np.ndarray) -> np.ndarray:
    """Centered information matrix of [Z_01, Z_11], side n+2."""
    mat = as_design_matrix(matrix)
    z1 = np.hstack([build_z_block(mat, 0, 1), build_z_block(mat, 1, 1)])
    centered = z1 - z1.mean(axis=0, keepdims=True)
    return z1.T @ centered


def optimality_gap(matrix: np.ndarray) -> float:
    """Max absolute deviation of the information matrix from N * identity."""
    mat = as_design_matrix(matrix)
    m = info_matrix(mat)
    return float(np.max(np.abs(m - mat.shape[0] * np.eye(m.shape[0]))))


def optimality_check(matrix: np.ndarray, tol: float = 1e-9) -> bool:
    """True when the information matrix is N * identity within `tol`."""
    return optimality_gap(matrix) <= tol

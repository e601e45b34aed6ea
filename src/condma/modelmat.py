"""Model matrices for a design under the conditional parametrization.

X columns are plain interaction contrasts: the column for bits (j1..jn)
is the row-wise product of the design columns with j = 1.  Z columns are
the conditional-parametrization contrasts; they agree with X on effects
that involve no conditional factor and otherwise mix the two columns of a
conditional pair with weight 1/sqrt2 per active conditional factor.

Class members are listed by ascending pattern integer, j1 the most
significant bit: the lexicographic order of the bit tuples.  The class of
a pattern depends only on its role bits q = (j1..j4) and on the number of
ones among its n-4 ordinary bits, so a class is, for ascending q, the
prefix q followed by every ordinary part of weight l - base(q), ascending.
An X block is one parity product: its entry in run u is -1 to the number
of the member's columns that are -1 in run u, so with `minus` the 0/1
matrix of the design's -1 entries, X = 1 - 2 ((minus @ members^T) mod 2).

The first-stage information matrix uses the class-(0,1) and class-(1,1)
blocks, centered: M = Z1^T (I - 11^T/N) Z1 with Z1 = [Z_01, Z_11], a
square matrix of side (n-2) + 4 = n+2.  For designs passing the four
admissibility conditions M equals N times the identity.
"""

from __future__ import annotations

import numpy as np

from .designs import as_design_matrix
from .effects import classify_effect

__all__ = [
    "omega_members",
    "build_x_column",
    "build_x_block",
    "build_z_block",
    "info_matrix",
    "optimality_gap",
    "optimality_check",
]


def _role_prefixes() -> dict[int, list[tuple[tuple[int, ...], int]]]:
    """Per s, the role bits (j1, j2, j3, j4) of class s, ascending with j1
    most significant, each with its share of l: the class of the role bits
    alone (`effects.classify_effect`), (0, 0) for the grand mean's."""
    out: dict[int, list[tuple[tuple[int, ...], int]]] = {0: [], 1: [], 2: []}
    for role in np.ndindex(2, 2, 2, 2):
        s, base = classify_effect(role) or (0, 0)
        out[s].append((role, base))
    return out


_PREFIXES = _role_prefixes()

_GAP_TOL = 1e-9  # largest |M - N*I| entry certified optimal, here and by `condma check`


def _weight_rows(m: int, kmax: int) -> list[np.ndarray]:
    """0/1 rows of length m with k ones, for k = 0..min(kmax, m): each a
    uint8 array ascending as binary numbers, first column most significant."""
    rows = np.zeros((1, m), dtype=np.uint8)
    binom = np.ones(m, dtype=np.intp)  # C(t, k-1) for t < m
    out = [rows]
    for k in range(1, min(kmax, m) + 1):
        # By leading one i, descending: the C(m-1-i, k-1) rows of weight
        # k-1 that lie wholly after i, which come first, with bit i set.
        count = binom[k - 1 :]
        take = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count)
        rows = rows[take]
        rows[np.arange(len(rows)), np.repeat(np.arange(m - k, -1, -1), count)] = 1
        out.append(rows)
        binom = np.cumsum(binom) - binom  # C(t, k) = sum of C(u, k-1) over u < t
    return out


def _members(n: int, s: int, l: int, tails: list[np.ndarray] | None = None) -> np.ndarray:
    """(|class|, n) int64 0/1 matrix of the class-(s, l) members, in order.
    `tails` may hold `_weight_rows(n - 4, w)` for a w covering the class."""
    if s not in _PREFIXES:
        raise ValueError(f"s must be 0, 1 or 2, got {s}")
    chosen = [(role, l - base) for role, base in _PREFIXES[s] if 0 <= l - base <= n - 4]
    if tails is None:
        tails = _weight_rows(n - 4, max((w for _, w in chosen), default=0))
    out = np.empty((sum(len(tails[w]) for _, w in chosen), n), dtype=np.int64)
    at = 0
    for role, w in chosen:
        size = len(tails[w])
        out[at : at + size, :4] = role
        out[at : at + size, 4:] = tails[w]
        at += size
    return out


def _x_block(minus: np.ndarray, members: np.ndarray) -> np.ndarray:
    """float64 +-1 X columns of the member rows; `minus` is float64 0/1."""
    return 1.0 - 2.0 * np.fmod(minus @ members.T, 2.0)


def omega_members(n: int, s: int, l: int) -> list[tuple[int, ...]]:
    """All bit tuples (j1..jn) in class (s, l), in lexicographic order.

    Class sizes: C(n-2, l) for s=0, 4*C(n-3, l-1) for s=1, and
    4*C(n-4, l-2) for s=2.
    """
    return [tuple(bits) for bits in _members(n, s, l).tolist()]


def build_x_column(matrix: np.ndarray, bits: tuple[int, ...]) -> np.ndarray:
    """Row-wise product of the design columns with bit 1 (int64)."""
    mat = np.asarray(matrix)
    col = np.ones(mat.shape[0], dtype=np.int64)
    for j, b in enumerate(bits):
        if b:
            col *= mat[:, j]
    return col


def build_x_block(matrix: np.ndarray, s: int, l: int) -> np.ndarray:
    """N x |class| matrix of X columns for class (s, l) (int64); column j
    is `build_x_column` of member j."""
    mat = as_design_matrix(matrix)
    members = _members(mat.shape[1], s, l)
    return _x_block((mat < 0).astype(np.float64), members).astype(np.int64)


def build_z_block(matrix: np.ndarray, s: int, l: int) -> np.ndarray:
    """N x |class| matrix of Z columns for class (s, l).

    With delta(j) = 1 - 2j and writing x[...] for `build_x_column`:

      s=0:  z = x (identity)
      s=1, first pair:   z = (x[j2->0] + delta(j2) x[j2->1]) / sqrt2
      s=1, second pair:  z = (x[j4->0] + delta(j4) x[j4->1]) / sqrt2
      s=2:  quarter mix of the four (j2, j4) settings with delta weights
    """
    return _z_block(as_design_matrix(matrix), s, l)


def _z_block(mat: np.ndarray, s: int, l: int) -> np.ndarray:
    # x[j->1] = x[j->0] d_j, so each free bit j multiplies x[j->0] by the
    # integer 1 + delta(j) d_j: the mix is exact before the final scaling.
    members = _members(mat.shape[1], s, l)
    free = members[:, [0, 2]]  # j2 is free under j1, j4 under j3
    cleared = members.copy()
    cleared[:, [1, 3]] *= 1 - free
    z = _x_block((mat < 0).astype(np.float64), cleared).astype(np.int64)
    for j, f in ((1, free[:, 0]), (3, free[:, 1])):
        z *= 1 + f * (1 - 2 * members[:, j]) * mat[:, j, None]
    return z / (1.0, np.sqrt(2.0), 2.0)[s]


def info_matrix(matrix: np.ndarray) -> np.ndarray:
    """Centered information matrix of [Z_01, Z_11], side n+2."""
    return _info(as_design_matrix(matrix))


def _info(mat: np.ndarray) -> np.ndarray:
    z1 = np.hstack([_z_block(mat, 0, 1), _z_block(mat, 1, 1)])
    centered = z1 - z1.mean(axis=0, keepdims=True)
    return z1.T @ centered


def optimality_gap(matrix: np.ndarray) -> float:
    """Max absolute deviation of the information matrix from N * identity."""
    mat = as_design_matrix(matrix)
    m = _info(mat)
    return float(np.max(np.abs(m - mat.shape[0] * np.eye(m.shape[0]))))


def optimality_check(matrix: np.ndarray) -> bool:
    """True when the information matrix is N * identity within 1e-9 (`_GAP_TOL`)."""
    return optimality_gap(matrix) <= _GAP_TOL

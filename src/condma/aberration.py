"""Aliasing-severity sequences (K) for conditional two-pair models.

For effect classes (s, l) and first-order classes (h, 1), define

    K_sl(h) = N**-2 tr[X_h1^T X_sl X_sl^T X_h1],

the summed squared inner products between the class-(h,1) and class-(s,l)
interaction contrasts.  All values are computed and stored as the exact
integers N**2 * K_sl(h); for a regular design each is N**2 times an alias
count.  A design's K sequence lists, for l = 2..n-2, the six entries

    K_0l(0), K_0l(1), K_1l(0), K_1l(1), K_2l(0), K_2l(1)

and designs are ranked by lexicographic comparison of these sequences.

Two routes are provided.  The direct route materializes the X blocks.
The fast route never builds the blocks: with d_uj the (u, j) design entry
and c_uw the number of agreeing ordinary columns between runs u and w,
the Gram matrices X_sl X_sl^T have entries that are short combinations of
sign products d_ui d_wi (i <= 4) and the polynomials Q_l(c) defined by

    Q_0 = 1,  Q_1(c) = 2c - (n-4),
    Q_l(c) = [ (2c - (n-4)) Q_{l-1}(c) - (n-l-2) Q_{l-2}(c) ] / l,

which are always integral.  Both routes agree entry for entry, exactly.

So a Gram entry depends on the pair (u, w) only through the sign pattern
p of its four role products and c = c_uw, for any +-1 matrix.  Since
N**2 K_sl(h) = sum_{u,w} G_h1(u,w) G_sl(u,w),

    N**2 K_sl(h) = sum_{p,c} H_pairs[p,c] G_h1(p,c) G_sl(p,c,l),

with H_pairs[p,c] the number of ordered run pairs with pattern p and count
c.  Each product G_h1 G_sl is sum_k C[k,p,c] Q_{l-2+k}(c) for a small
integer table C (`_pattern_weights`), so `FastEvaluator` keeps only the
exact int64 moments M[k,c] = sum_p C H_pairs and sums M Q_{l-2..l} per
block: in int64 when sum |M| max|Q_{l-2..l}| < 2**63 (no partial sum of
that block can exceed it), in Python ints otherwise.

Searches rank regular designs by `_lex_minimum`.  For a regular design
the pair histogram is N times the histogram H[p,c] of the runs
v = u XOR w:
1. d_ui d_wi = chi_{b_i}(u XOR w), and runs u, w agree on ordinary
   column j exactly when <u XOR w, b_j> = 0;
2. so each Gram entry is a function of v only, through (p(v), c(v)), and
   each v arises from exactly N pairs (u, w).
Hence N**2 K_sl(h) = H @ W_l with weights W_l = N G_h1 G_sl per (p, c),
built once per (r, n) from the same table C.  The sum is exact in the
arithmetic picked by the static bound N max|W_l| (every partial sum of
H @ W_l is at most that, as H >= 0 sums to N): float64 below 2**53, where
every partial sum is an integer a double holds exactly; int64 below
2**63; Python ints (object arrays) beyond.  Equal histograms give equal
K sequences, so they tie in a search's ranking.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np

from .designs import DesignError, as_design_matrix
from .modelmat import _members, _weight_rows, _x_block

__all__ = [
    "KSequence",
    "entry_labels",
    "compare_k",
    "k_sequence_direct",
    "q_polynomial",
    "q_polynomial_table",
    "q_value",
    "FastEvaluator",
    "k_sequence_fast",
]

# (s, h) per position within one l-block of the sequence.
_BLOCK_ORDER = ((0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1))


def entry_labels(n: int) -> list[str]:
    """Sequence entry names, 'K{s}{l}({h})', for l = 2..n-2."""
    return [f"K{s}{l}({h})" for l in range(2, n - 1) for s, h in _BLOCK_ORDER]


@dataclass(frozen=True)
class KSequence:
    """Exact aliasing sequence of one design: values are N**2 * K."""

    runs: int
    n: int
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(int(v) for v in self.values))
        want = 6 * (self.n - 3)
        if len(self.values) != want:
            raise ValueError(f"expected {want} entries for n={self.n}, got {len(self.values)}")

    def labels(self) -> list[str]:
        return entry_labels(self.n)

    def alias_counts(self) -> tuple[int, ...] | None:
        """Values divided by N**2 when all are divisible (regular designs)."""
        nsq = self.runs * self.runs
        if any(v % nsq for v in self.values):
            return None
        return tuple(v // nsq for v in self.values)


def compare_k(a: KSequence, b: KSequence) -> int:
    """Lexicographic order: -1, 0 or 1.  Sequences must be comparable."""
    if a.n != b.n or a.runs != b.runs:
        raise ValueError("K sequences with different n or run size are not comparable")
    if a.values < b.values:
        return -1
    if a.values > b.values:
        return 1
    return 0


# Entries in the largest X block the direct route will build (512 MiB in float64).
_DIRECT_ENTRIES = 1 << 26


def k_sequence_direct(matrix: np.ndarray) -> KSequence:
    """Full K sequence by the direct route, one X_sl block at a time.

    Each entry is the squared Frobenius norm of [X_01, X_11]^T X_sl, split
    by h.  The products run in float64 and stay exact: a Gram entry is at
    most N, and a block's row sum of squares at most |class| N**2, below
    2**53 for any block the size limit admits.  Raises `DesignError` before
    building anything when N times the largest class size exceeds 2**26.
    """
    mat = as_design_matrix(matrix)
    runs, n = mat.shape
    size = max((4 if s else 1) * comb(n - 2 - s, (n - 2 - s) // 2) for s in (0, 1, 2))
    if runs * size > _DIRECT_ENTRIES:
        raise DesignError(
            f"the direct route needs an X block of {runs} x {size} = {runs * size} entries, "
            f"over its limit of 2**26"
        )
    minus = (mat < 0).astype(np.float64)
    tails = _weight_rows(n - 4, n - 4)
    xh = np.hstack([_x_block(minus, _members(n, h, 1, tails)) for h in (0, 1)]).T
    values: list[int] = []
    for l in range(2, n - 1):
        for s in (0, 1, 2):
            gram = xh @ _x_block(minus, _members(n, s, l, tails))
            rows = (gram * gram).sum(axis=1).astype(np.int64)
            values += [int(rows[: n - 2].sum()), int(rows[n - 2 :].sum())]
    return KSequence(runs, n, tuple(values))


def q_polynomial(l: int, c: int, n: int) -> int:
    """Q_l(c) for a design with n factors (m = n-4 ordinary columns).

    Exact integers; raises if the recursion ever fails to divide, which
    would indicate a bookkeeping bug rather than a data problem.
    """
    m = n - 4
    if l < 0:
        return 0
    if not 0 <= c <= m:
        raise ValueError(f"c={c} outside 0..{m}")
    prev, cur = 1, 2 * c - m
    if l == 0:
        return prev
    for k in range(2, l + 1):
        num = (2 * c - m) * cur - (m + 2 - k) * prev
        q, rem = divmod(num, k)
        if rem:
            raise AssertionError(f"Q recursion not integral at l={k}, c={c}, n={n}")
        prev, cur = cur, q
    return cur


@lru_cache(maxsize=64)
def q_polynomial_table(n: int) -> np.ndarray:
    """Array Q[l, c] for l = 0..n-2, c = 0..n-4, read-only: int64 when
    every entry fits, Python ints (object) otherwise.

    Cached per n: every design with n factors shares one table.
    The rows come from `q_polynomial`'s recursion run over every c at once,
    in Python ints.
    """
    m = n - 4
    first = [2 * c - m for c in range(m + 1)]
    rows = [[1] * (m + 1), first]
    for k in range(2, n - 1):
        row = []
        for c, (x, cur, prev) in enumerate(zip(first, rows[-1], rows[-2])):
            q, rem = divmod(x * cur - (m + 2 - k) * prev, k)
            if rem:
                raise AssertionError(f"Q recursion not integral at l={k}, c={c}, n={n}")
            row.append(q)
        rows.append(row)
    table = np.array(rows, dtype=object)
    if max(abs(x) for x in table.flat) < 1 << 63:
        table = table.astype(np.int64)
    table.setflags(write=False)
    return table


def q_value(matrix: np.ndarray, s: int, l: int, u: int, w: int) -> int:
    """Entry (u, w) of the Gram matrix X_sl X_sl^T, from the formulas.

    The second-order terms keep the diagonal equal to the class sizes
    (e.g. 4*C(n-3, l-1) for s=1): the free conditioning bit of each
    active conditional factor contributes one sign factor, and the count
    positions it shares with the ordinary columns split across Q_{l-1}
    and Q_{l-2}.
    """
    if s not in (0, 1, 2):
        raise ValueError(f"s must be 0, 1 or 2, got {s}")
    mat = as_design_matrix(matrix).astype(int)
    n = mat.shape[1]
    c = int(np.sum(mat[u, 4:] == mat[w, 4:]))
    terms = _role_terms(*(int(mat[u, i] * mat[w, i]) for i in range(4)))
    return _class_grams(terms, *(q_polynomial(k, c, n) for k in (l - 2, l - 1, l)))[s]


def _role_terms(s1, s2, s3, s4) -> tuple:
    """Gram coefficients (a0, a1, b1, b2, c2) from the sign products
    s_i = d_ui d_wi of the four role columns."""
    return (
        s2 * s4,
        s2 + s4,
        s1 * (1 + s2) + s3 * (1 + s4),
        s1 * s4 * (1 + s2) + s2 * s3 * (1 + s4),
        s1 * s3 * (1 + s2) * (1 + s4),
    )


def _class_grams(terms: tuple, qm2, qm1, q0) -> tuple:
    """Gram matrices of classes (0, l), (1, l) and (2, l) from Q_{l-2..l}."""
    a0, a1, b1, b2, c2 = terms
    return a0 * qm2 + a1 * qm1 + q0, b1 * qm1 + b2 * qm2, c2 * qm2


@lru_cache(maxsize=64)
def _pattern_weights(n: int) -> np.ndarray:
    """C[e, k, p, c], read-only int64: the coefficient of Q_{l-2+k}(c) in
    G_h1 G_sl (the same for every l) for block entry e = 2s + h, role-sign
    pattern p (bit i set when the sign product of role column i+1 is -1)
    and agreement count c."""
    p = np.arange(16)[:, None]
    terms = _role_terms(*(1 - 2 * ((p >> i) & 1) for i in range(4)))
    first = (terms[1] + q_polynomial_table(n)[1], terms[2])  # G_01, G_11
    table = np.zeros((6, 3, 16, n - 3), dtype=np.int64)
    for k, unit in enumerate(np.eye(3, dtype=np.int64)):
        for s, g in enumerate(_class_grams(terms, *unit)):
            for h, hg in enumerate(first):
                table[2 * s + h, k] = hg * g
    table.setflags(write=False)
    return table


# Run pairs x tail words per FastEvaluator histogram step (bounds temporaries).
_PAIR_ELEMENTS = 1 << 20


class FastEvaluator:
    """Per-design state for the fast route, evaluable one l-block at a time.

    Holds the moments M[e, k, c] = sum_p C[e, k, p, c] H_pairs[p, c] of the
    design's run-pair histogram (see the module docstring), so `block(l)`
    is one (6, 3, n-3) product with Q_{l-2..l}; the lazy shape lets a
    caller stop after a losing prefix.  Searches over regular designs rank
    run histograms by `_lex_minimum` instead; this route serves any
    explicit matrix.
    """

    def __init__(self, matrix: np.ndarray):
        mat = as_design_matrix(matrix)
        self.runs, self.n = mat.shape
        m, width = self.n - 4, self.n - 3
        roles = (mat[:, :4] < 0) @ (1 << np.arange(4))
        minus = np.zeros((self.runs, 64 * -(-m // 64)), dtype=bool)
        minus[:, :m] = mat[:, 4:] < 0
        tail = np.packbits(minus, axis=1).view(np.uint64)  # ordinary minus signs, 64 per word
        hist = np.zeros(16 * width, dtype=np.int64)
        step = max(1, _PAIR_ELEMENTS // (self.runs * tail.shape[1]))
        for lo in range(0, self.runs, step):
            differ = np.bitwise_count(tail[lo : lo + step, None] ^ tail).sum(axis=2, dtype=np.int64)
            key = (roles[lo : lo + step, None] ^ roles) * width + m - differ
            hist += np.bincount(key.ravel(), minlength=16 * width)
        self._moments = (_pattern_weights(self.n) * hist.reshape(16, width)).sum(axis=2)
        self._q = q_polynomial_table(self.n)
        self._sum = int(np.abs(self._moments).sum(axis=(1, 2)).max())
        self._qmax = [int(x) for x in np.abs(self._q).max(axis=1)]

    def block(self, l: int) -> tuple[int, int, int, int, int, int]:
        """The six sequence entries for one l, in standard order."""
        if not 2 <= l <= self.n - 2:
            raise ValueError(f"l={l} outside 2..{self.n - 2}")
        moments, q = self._moments, self._q[l - 2 : l + 1]
        if self._sum * max(self._qmax[l - 2 : l + 1]) < 1 << 63:
            q = q.astype(np.int64, copy=False)
        else:
            moments, q = moments.astype(object), q.astype(object)
        return tuple(int(x) for x in (moments * q).sum(axis=(1, 2)))

    def sequence(self) -> KSequence:
        values: list[int] = []
        for l in range(2, self.n - 1):
            values.extend(self.block(l))
        return KSequence(self.runs, self.n, tuple(values))


@lru_cache(maxsize=64)
def _block_weights(r: int, n: int) -> np.ndarray:
    """W_l for l = 2..n-2, stacked: a read-only (n-3, 16 (n-3), 6) array.

    Row p (n-3) + c of W_l holds N G_h1 G_sl = N sum_k C[:, k, p, c]
    Q_{l-2+k}(c) (see `_pattern_weights`) for role-sign pattern p and
    agreement count c, one column per sequence entry of the block.  Built
    exactly, then stored by the static bound N max|W|: float64 below 2**53,
    int64 below 2**63, Python ints (object) beyond.
    """
    runs, width = 1 << r, n - 3
    table, q = _pattern_weights(n), q_polynomial_table(n)
    if 3 * runs * int(np.abs(table).max()) * int(np.abs(q).max()) >= 1 << 63:
        table, q = table.astype(object), q.astype(object)
    w = sum(table[:, k] * q[k : k + width, None, None] for k in range(3))  # (l, e, p, c)
    w = np.ascontiguousarray((runs * w).transpose(0, 2, 3, 1)).reshape(width, 16 * width, 6)
    bound = runs * int(np.abs(w).max())
    w = w.astype(np.float64 if bound < 1 << 53 else np.int64 if bound < 1 << 63 else object)
    w.setflags(write=False)
    return w


def _lex_minimum(r: int, n: int, hists: np.ndarray, step: int) -> tuple[tuple[int, ...], np.ndarray]:
    """The least K values, in lexicographic order, over a non-empty batch
    of run histograms, and the rows attaining them.

    `hists` is a (rows, 16 (n-3)) array of H[p, c] at p (n-3) + c;
    block l of a row is `H @ W_l` with the weights of `_block_weights`,
    exact in their dtype, and a float64 block is read back as int64.  The
    products run over slices of `step` rows, which keeps each below the
    size at which BLAS starts threads.  Block 2 covers every row; after
    each block only the rows whose block equals the lexicographic minimum
    among the survivors go on, so the survivors always share their whole
    prefix, and rows with equal histograms all come back.
    """
    w = _block_weights(r, n)
    h, alive = hists, np.arange(len(hists))
    values: list[int] = []
    for l in range(2, n - 1):
        parts = [h[lo : lo + step].astype(w.dtype) @ w[l - 2] for lo in range(0, len(h), step)]
        block = np.concatenate(parts)
        if block.dtype == np.float64:
            block = block.astype(np.int64)
        keep = np.ones(len(block), dtype=bool)
        for column in block.T:
            keep &= column == column[keep].min()
        if not keep.all():
            h, alive = h[keep], alive[keep]
        values.extend(block[keep][0].tolist())
    return tuple(values), alive


def k_sequence_fast(matrix: np.ndarray) -> KSequence:
    """Full K sequence by the fast route; equals `k_sequence_direct`."""
    return FastEvaluator(matrix).sequence()

"""Two-level designs with two conditional factor pairs.

A regular design in N = 2**r runs is a list of n column labels, each a
nonzero GF(2) vector of length r encoded as an int (see `gf2`).  Columns
1..4 always play the special roles: columns 1 and 3 are the conditional
factors, columns 2 and 4 their conditioning partners.  Columns 5..n are
ordinary factors.

Run u (an r-bit integer) gets entry +1 in column j when the GF(2) inner
product of u with label b_j is 0, and -1 otherwise.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field
from itertools import product
from pathlib import Path

import numpy as np

from . import gf2

__all__ = [
    "DesignError",
    "FormatError",
    "RegularSpec",
    "ConditionReport",
    "expand",
    "as_design_matrix",
    "projection_counts",
    "check_conditions",
    "check_conditions_regular",
    "parse_design_text",
    "load_design_file",
]

MAX_R = 16


class DesignError(ValueError):
    """A design or spec violates a structural requirement."""


class FormatError(ValueError):
    """A design or catalog document cannot be parsed."""


@dataclass(frozen=True)
class RegularSpec:
    """Regular two-level design: r basic factors, n column labels.

    The first four labels are the role columns (conditional pair one,
    then pair two), the rest are ordinary factors.
    """

    r: int
    columns: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "columns", tuple(int(c) for c in self.columns))
        if not 2 <= self.r <= MAX_R:
            raise DesignError(f"r={self.r} outside supported range 2..{MAX_R}")
        n = len(self.columns)
        if n < 5:
            raise DesignError(f"need at least 5 columns, got {n}")
        top = (1 << self.r) - 1
        for c in self.columns:
            if not 1 <= c <= top:
                raise DesignError(f"label {c} outside [1, {top}]")
        if len(set(self.columns)) != n:
            raise DesignError("duplicate column labels")
        got = gf2.rank(self.columns)
        if got != self.r:
            raise DesignError(
                f"labels span rank {got} < r={self.r}; runs would collapse"
            )

    @property
    def n(self) -> int:
        return len(self.columns)

    @property
    def runs(self) -> int:
        return 1 << self.r


def expand(spec: RegularSpec) -> np.ndarray:
    """Expand a spec to its (N, n) matrix with entries +1/-1 (int8)."""
    u = np.arange(spec.runs, dtype=np.uint32)[:, None]
    labels = np.asarray(spec.columns, dtype=np.uint32)[None, :]
    parity = np.bitwise_count(u & labels) & 1
    return (1 - 2 * parity.astype(np.int8)).astype(np.int8)


def as_design_matrix(array: np.ndarray | list) -> np.ndarray:
    """Validate an explicit run matrix: 2-D, entries +1/-1, >= 5 columns."""
    mat = np.asarray(array)
    if mat.ndim != 2:
        raise DesignError(f"design matrix must be 2-D, got shape {mat.shape}")
    if mat.shape[1] < 5:
        raise DesignError(f"need at least 5 columns, got {mat.shape[1]}")
    if not ((mat == 1) | (mat == -1)).all():
        raise DesignError("design matrix entries must be +1 or -1")
    return mat.astype(np.int8)


def projection_counts(matrix: np.ndarray, columns: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    """Frequency of every sign combination on the given 1-based columns."""
    sub = matrix[:, [c - 1 for c in columns]]
    counts = {combo: 0 for combo in product((-1, 1), repeat=len(columns))}
    for row in sub:
        counts[tuple(int(v) for v in row)] += 1
    return counts


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of the four admissibility conditions.

    strength2   : every column pair is balanced over its 4 combinations
    triples_12  : (col1, col2, j) balanced for every j in 5..n and j=4
    triples_34  : (col3, col4, j) balanced for every j in 5..n and j=2
    quad_1234   : the four role columns are balanced over 16 combinations
    failures    : offending 1-based column tuples, in check order
    """

    strength2: bool
    triples_12: bool
    triples_34: bool
    quad_1234: bool
    failures: tuple[tuple[int, ...], ...] = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        return self.strength2 and self.triples_12 and self.triples_34 and self.quad_1234


def check_conditions(matrix: np.ndarray) -> ConditionReport:
    """Check the admissibility conditions on an explicit run matrix.

    A projection onto columns S is equifrequent exactly when, for every
    nonempty T in S, the product of the columns in T sums to 0 over the
    runs (the counts are then flat by Fourier inversion; when the run
    count is not divisible by 2**|S| no flat count exists and some sum is
    nonzero).  The sums are exact int64 dot products.
    """
    mat = as_design_matrix(matrix).astype(np.int64)
    n = mat.shape[1]
    sums = mat.sum(axis=0)
    gram = mat.T @ mat
    a, b = np.triu_indices(n, 1)
    pairs = (gram[a, b] == 0) & (sums[a] == 0) & (sums[b] == 0)
    with12 = np.array([4, *range(5, n + 1)])
    with34 = np.array([2, *range(5, n + 1)])
    ok12 = _balanced_with(mat, (1, 2), with12)
    ok34 = _balanced_with(mat, (3, 4), with34)
    quad_1234 = bool(_balanced_with(mat, (1, 2, 3), np.array([4]))[0])

    failures = [(int(i) + 1, int(j) + 1) for i, j in zip(a[~pairs], b[~pairs])]
    failures += [(1, 2, int(j)) for j in with12[~ok12]]
    failures += [(3, 4, int(j)) for j in with34[~ok34]]
    if not quad_1234:
        failures.append((1, 2, 3, 4))
    return ConditionReport(
        bool(pairs.all()), bool(ok12.all()), bool(ok34.all()), quad_1234, tuple(failures)
    )


def _balanced_with(mat: np.ndarray, fixed: tuple[int, ...], others: np.ndarray) -> np.ndarray:
    """Per 1-based column j in `others`: is the projection on fixed + (j,)
    equifrequent?  One product vector per subset of the fixed columns,
    then one matrix product against the other columns.
    """
    products = np.ones((1 << len(fixed), mat.shape[0]), dtype=np.int64)
    for i, c in enumerate(fixed):
        half = 1 << i
        products[half : 2 * half] = products[:half] * mat[:, c - 1]
    fixed_ok = not products[1:].sum(axis=1).any()
    return fixed_ok & ~(products @ mat[:, others - 1]).any(axis=0)


def check_conditions_regular(spec: RegularSpec) -> ConditionReport:
    """Label-space shortcut for `check_conditions` on a regular spec.

    A projection of a regular design is equifrequent exactly when its
    labels are independent, and distinct nonzero labels, which
    `RegularSpec` enforces, are dependent exactly when some of them sum to
    zero.  With the pair sums s12 = b1^b2 and s34 = b3^b4, (1, 2, j) thus
    fails exactly when b_j = s12, (3, 4, j) exactly when b_j = s34, and the
    four role columns are balanced exactly when s12 is none of b3, b4, s34
    and s34 neither b1 nor b2 (see `_assignment_mask`).  Pairs never fail.
    """
    cols, n = spec.columns, spec.n
    s12, s34 = cols[0] ^ cols[1], cols[2] ^ cols[3]
    fail12 = [(1, 2, j) for j in (4, *range(5, n + 1)) if cols[j - 1] == s12]
    fail34 = [(3, 4, j) for j in (2, *range(5, n + 1)) if cols[j - 1] == s34]
    quad_1234 = s12 not in (cols[2], cols[3], s34) and s34 not in (cols[0], cols[1])
    failures = fail12 + fail34 + ([] if quad_1234 else [(1, 2, 3, 4)])
    return ConditionReport(True, not fail12, not fail34, quad_1234, tuple(failures))


def _assignment_mask(designs: np.ndarray, index: np.ndarray) -> np.ndarray:
    """(G, A) mask over role assignments: entry (g, a) is True exactly when
    the label tuple `designs[g, index[a]]` passes `check_conditions_regular`.

    `designs` is a (G, n) int64 array of column sets and `index` an (A, n)
    array of column positions, roles first.  Every row of `designs` must
    build a `RegularSpec` (labels in range, distinct, of full rank); the
    search checks that where a column set enters.  A (rows, n) array of
    label tuples is checked row by row as `designs` under the identity
    index `np.arange(n)[None]`.

    For distinct nonzero labels with column set S, the conditions reduce
    to three tests on the role pair sums:

        b1^b2 not in S,   b3^b4 not in S,   b1^b2 != b3^b4.

    Proof: a projection of a regular design is equifrequent exactly when
    its labels are independent, and distinct nonzero labels give strength
    two.  The conditions left are that b1, b2, b3, b4 are independent and
    that neither b1^b2 nor b3^b4 is an ordinary label.  Independence of
    four distinct nonzero labels needs the four triple sums and the
    four-way sum to be nonzero: b1^b2 != b3, b1^b2 != b4, b3^b4 != b1,
    b3^b4 != b2 and b1^b2 != b3^b4.  Since b2 != 0, b1^b2 is neither b1 nor
    b2, so "b1^b2 not in S" says exactly that it is not b3, not b4 and
    not an ordinary label; likewise for b3^b4.  The four-way sum is the
    third test.

    Only the unordered position pairs that `index` puts in a role pair
    get a sum, so the identity index costs two per design.  Positions i, j
    get the pair id min(i, j) n + max(i, j); the ids present, marked in a
    length n**2 table, are numbered by a running count, with no sort.
    """
    n = designs.shape[1]
    ends = index[:, :4].astype(np.intp)  # positions: pairs 0, 1 and 2, 3
    ids = np.minimum(ends[:, 0::2], ends[:, 1::2]) * n + np.maximum(ends[:, 0::2], ends[:, 1::2])
    present = np.bincount(ids.ravel(), minlength=n * n) > 0
    used, pair = np.flatnonzero(present), (np.cumsum(present) - 1)[ids]
    sums = designs[:, used // n] ^ designs[:, used % n]  # (G, pairs)
    outside = ~np.any(sums[:, :, None] == designs[:, None, :], axis=2)
    ok = outside[:, pair[:, 0]] & outside[:, pair[:, 1]]
    return ok & (sums[:, pair[:, 0]] != sums[:, pair[:, 1]])


def _spec_rows(r: int, labels: np.ndarray) -> tuple[RegularSpec, ...]:
    """One `RegularSpec` per row, built without validation: every row must
    already pass `RegularSpec`'s checks.  `zip` cuts one flat list per block
    into tuples, with no list per row.  The cyclic GC is paused: 20,160 rows
    set off about a hundred collections, some over the whole heap, and specs
    of trusted label rows hold only ints and a tuple: they form no cycle."""
    new, put = object.__new__, object.__setattr__
    specs, enabled = [], gc.isenabled()
    gc.disable()
    try:
        for start in range(0, len(labels), 2048):  # bounds the Python list held at once
            flat = labels[start : start + 2048].ravel().tolist()
            for columns in zip(*[iter(flat)] * labels.shape[1]):
                spec = new(RegularSpec)
                put(spec, "r", r)
                put(spec, "columns", columns)
                specs.append(spec)
    finally:
        if enabled:
            gc.enable()
    return tuple(specs)


def _rank_mask(labels: np.ndarray, r: int) -> np.ndarray:
    """Per row: do the labels, all below 2**r, span GF(2)^r?

    Row-parallel Gaussian elimination, one pivot slot per leading bit.
    """
    pivots = np.zeros((labels.shape[0], r), dtype=np.int64)
    for j in range(labels.shape[1]):
        v = labels[:, j]
        for bit in range(r - 1, -1, -1):
            lead = (v >> bit) & 1 == 1
            free = lead & (pivots[:, bit] == 0)
            pivots[free, bit] = v[free]
            v = np.where(lead, v ^ pivots[:, bit], v)
    return np.all(pivots != 0, axis=1)


def parse_design_text(text: str) -> RegularSpec | np.ndarray:
    """Parse a design document.

    Line 1: `N n`.  Then either `labels: c1 .. cn` (regular spec; N must be
    a power of two) or `matrix:` followed by N rows of n entries +1/-1.
    Blank lines and `#` comments are skipped.  Mixing both forms is an
    error.
    """
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise FormatError("empty design document")
    head = lines[0].split()
    if len(head) != 2:
        raise FormatError(f"header must be 'N n', got {lines[0]!r}")
    try:
        n_runs, n_cols = int(head[0]), int(head[1])
    except ValueError as exc:
        raise FormatError(f"header must be 'N n', got {lines[0]!r}") from exc
    if len(lines) < 2:
        raise FormatError("missing 'labels:' or 'matrix:' section")

    has_labels = any(ln.startswith("labels:") for ln in lines[1:])
    has_matrix = any(ln.startswith("matrix:") for ln in lines[1:])
    if has_labels and has_matrix:
        raise FormatError("document mixes 'labels:' and 'matrix:' forms")
    if not has_labels and not has_matrix:
        raise FormatError("expected a 'labels:' or 'matrix:' section")

    if has_labels:
        if len(lines) != 2:
            raise FormatError("labels form must be exactly two lines")
        body = lines[1][len("labels:"):].split()
        try:
            labels = [int(tok) for tok in body]
        except ValueError as exc:
            raise FormatError(f"bad label in {lines[1]!r}") from exc
        if len(labels) != n_cols:
            raise FormatError(f"header says n={n_cols}, got {len(labels)} labels")
        r = n_runs.bit_length() - 1
        if n_runs <= 0 or (1 << r) != n_runs:
            raise FormatError(f"N={n_runs} is not a power of two")
        try:
            return RegularSpec(r, tuple(labels))
        except DesignError as exc:
            raise FormatError(str(exc)) from exc

    at = next(i for i, ln in enumerate(lines) if ln.startswith("matrix:"))
    rest = lines[at][len("matrix:"):].strip()
    rows = ([rest] if rest else []) + lines[at + 1:]
    if len(rows) != n_runs:
        raise FormatError(f"header says N={n_runs}, got {len(rows)} matrix rows")
    data = []
    for row in rows:
        toks = row.split()
        if len(toks) != n_cols:
            raise FormatError(f"matrix row has {len(toks)} entries, expected {n_cols}")
        try:
            data.append([int(tok) for tok in toks])
        except ValueError as exc:
            raise FormatError(f"bad matrix entry in {row!r}") from exc
    try:
        return as_design_matrix(np.array(data))
    except DesignError as exc:
        raise FormatError(str(exc)) from exc


def load_design_file(path: str | Path) -> RegularSpec | np.ndarray:
    """Read and parse a design document from disk."""
    return parse_design_text(Path(path).read_text())

"""Minimum aberration search over regular two-level designs.

Two modes:

* ``exhaustive`` (any run size): fix the four role columns at labels
  (1, 2, 4, 8) and enumerate every subset of the remaining labels as the
  traditional columns.  This loses nothing: the admissibility conditions
  force the role columns to be independent, and any independent 4-tuple
  maps onto (1, 2, 4, 8) by an invertible GF(2) relabeling of the basic
  factors, which permutes runs and therefore preserves every K entry.
* ``catalog``: walk a catalog of class representatives and try every
  ordered assignment of four of each design's columns to the roles,
  keeping assignments that satisfy the admissibility conditions.  Of two
  assignments that swap the conditional/conditioning pairs only one is
  generated: K is invariant under the swap, so swapping a minimizer's
  pairs gives the other orientation, with the same K.

The search carries candidates per design, never as one Python tuple
each.  A chunk is a pair (designs, index): a (G, n) int64 array of column
sets and an (A, n) array of column positions, roles first; it holds the
G A label tuples designs[g, index[a]].  Catalog mode sorts each design's
columns and takes `index` from one cached table of role assignments per
n (`_role_index`); with sorted columns the pair-swap rule and the sorted
tail read the same on positions as on labels.
Exhaustive mode packs `itertools.combinations` tails behind the fixed
roles, each tuple a design of its own under the identity index (A = 1).
Either way a chunk holds about `_CHUNK` assignments, and a design with
more assignments than that is split across slices of the index table.

Validity (labels in range, distinct, of full rank) is checked once per
column set, where it enters: `parse_catalog` checks catalog entries,
`search_within_columns` its column set, and the exhaustive generator
drops rank-deficient tails.  Each chunk then applies the admissibility
conditions (`designs._assignment_mask`), three tests on the role pair
sums.  K depends on an assignment only through its run histogram H[p, c]
(see `aberration`).  One walk over the chunk's designs
(`_histogram_classes`) computes each design's column parities once and
builds the histograms from them and the four role parities.  In catalog
and within-columns chunks, where a design has many assignments and few
distinct histograms, the same parities give an exact signature, read
from one Walsh-Hadamard transform of the design's run weights, and only
one histogram per signature class is built; in exhaustive chunks every
admissible assignment gets its own.  The histograms are ranked in one
call to `aberration._lex_minimum`, by exact lexicographic order on the
integer K-sequence, one l-block at a time for the whole chunk: after
each block only the rows equal to the lexicographic minimum go on.
Every assignment whose histogram attains the minimum is a chunk-level
tie, so all K-equal minima are returned.

Each chunk reports its own exact minimum, the candidates achieving it
and its examined count, so the merged result is identical for any worker
count, chunk order or step size.  Chunks go to a process pool only
when the raw candidates, counted before any is generated, fill at least
two chunks per worker; smaller searches run in-process.  The ties stay
arrays up to the end, where `_canonical_specs` sorts and dedupes them as
opaque rows of big-endian labels.  Every tie passed the filter, so
`designs._spec_rows` builds their specs unvalidated, from one flat list
per block with the cyclic GC paused (the 32-run n=16 row ties 20,160).
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

import numpy as np

from .aberration import KSequence, _lex_minimum
from .catalogs import CatalogFile, bundled_catalog, parse_catalog
from .designs import MAX_R, DesignError, RegularSpec, _assignment_mask, _rank_mask, _spec_rows

_ROLES = (1, 2, 4, 8)
_CHUNK = 20000
# Working-set bound, in rows x runs entries, of each step in
# `_evaluate_chunk`: a step's (designs, n, runs) column parities and its
# spectra, a histogram slice's (rows, 4, runs) role parities and
# (rows, runs) key, and a row slice of each H @ W_l product.  Sizing steps
# by rows x runs keeps them small at every run size, and keeps each
# product below the size at which BLAS starts threads (it did at 1 << 15
# on 2 vCPUs).
_BATCH_ELEMENTS = 1 << 13
# Entries in the largest role index table `_role_index` builds (n <= 43).
_ROLE_ENTRIES = 1 << 26
# A search starts a process pool only when its raw candidates fill at
# least this many chunks per worker.  On a 2-vCPU machine at two workers,
# pooled 32-run catalog searches broke even at two chunks (40,000 raw
# candidates), won 9 of 10 alternating pairs from three, and took 0.34 s
# against 0.44 s at n=10 (115,920 raw) and 1.26 s against 1.87 s at n=12.
_POOL_CHUNKS = 2
# (G, n) int64 designs and an (A, n) slice of a role index table, or the
# identity: the G A assignments designs[g, index[a]].
_Chunk = tuple[np.ndarray, np.ndarray]


@dataclass(frozen=True)
class SearchTask:
    """What to search: run size, factor count, mode, and parallelism.

    ``exhaustive`` mode is complete at every run size (module docstring)
    and counts C(2**r - 5, n - 4) raw candidates, known before any is built.
    ``catalog`` mode reads ``catalog_path`` (refused in any other mode) or,
    when that is None, the bundled catalog for the run size, and tries one
    of each two role assignments that swap the pairs (`_role_index`).
    """

    runs: int
    n: int
    mode: str = "exhaustive"
    catalog_path: str | None = None
    workers: int = 1

    def __post_init__(self) -> None:
        if self.mode not in ("exhaustive", "catalog"):
            raise DesignError(f"unknown search mode {self.mode!r}")
        r = self.runs.bit_length() - 1
        if not 4 <= r <= MAX_R or self.runs != 1 << r:
            raise DesignError(f"run size must be a power of two from 16 to 2**{MAX_R}, got {self.runs}")
        if self.n < 5:
            raise DesignError("need at least five factors")
        if self.n > (1 << r) - 1:
            raise DesignError(f"n={self.n} infeasible: only {(1 << r) - 1} distinct labels exist")
        if self.catalog_path is not None and self.mode != "catalog":
            raise DesignError(f"a catalog file needs catalog mode, not {self.mode!r}")
        if self.workers < 1:
            raise DesignError("workers must be >= 1")

    @property
    def r(self) -> int:
        return self.runs.bit_length() - 1


@dataclass(frozen=True)
class SearchResult:
    """Outcome of a search.

    ``best_k`` is None when no candidate satisfied the admissibility
    conditions.  ``minimizers`` holds every condition-passing candidate
    whose K-sequence equals ``best_k`` exactly, in canonical form and
    order.  ``candidates_examined`` counts every admissible candidate
    whose K was determined, shared or not: scored itself, or shared
    through an equal signature with a scored candidate, and so of the
    same K.
    ``pruned`` is the raw count less ``candidates_examined``: invalid
    column sets and inadmissible assignments.  Both counters are partition
    independent; only ``wall_time`` varies between reruns.
    """

    best_k: KSequence | None
    minimizers: tuple[RegularSpec, ...]
    candidates_examined: int
    pruned: int
    wall_time: float

    @property
    def found(self) -> bool:
        return self.best_k is not None


def _catalog_for(task: SearchTask) -> CatalogFile:
    if task.catalog_path is not None:
        cat = parse_catalog(task.catalog_path)
    else:
        cat = bundled_catalog(task.runs)
    if cat.runs != task.runs:
        raise DesignError(f"catalog is for {cat.runs} runs, task wants {task.runs}")
    return cat


@lru_cache(maxsize=16)
def _role_index(n: int) -> np.ndarray:
    """Every ordered choice of four role positions out of n, in
    `itertools.permutations(range(n), 4)` order, each followed by the other
    positions ascending: a read-only (assignments, n) array in the smallest
    dtype that holds n (the table stays cached; as intp it held 2.8 MB at
    n=16).  Of two choices that swap the pairs only the one whose first
    pair starts lower is kept (b1 < b3).

    Built from the product of four position ranges, whose lexicographic
    order the filters keep: 6 ms cold at n=16 on 2 vCPUs, where one Python
    `sorted` per `permutations` tuple took 35-57 ms.  Raises `DesignError`
    before building anything when the table would exceed 2**26 entries.
    """
    entries = math.perm(n, 4) // 2 * n
    if entries > _ROLE_ENTRIES:
        raise DesignError(f"the role table for n={n} needs {entries} entries, over its limit of 2**26")
    small = np.min_scalar_type(n)
    b1, b2, b3, b4 = np.indices((n,) * 4, dtype=small).reshape(4, -1)
    keep = (b1 != b2) & (b3 != b4) & (b1 != b4) & (b2 != b3) & (b2 != b4) & (b1 < b3)
    roles = np.stack([b1[keep], b2[keep], b3[keep], b4[keep]], axis=1)
    free = np.ones((len(roles), n), dtype=bool)
    np.put_along_axis(free, roles.astype(np.intp), False, axis=1)
    tail = np.broadcast_to(np.arange(n, dtype=small), free.shape)[free].reshape(len(roles), n - 4)
    index = np.concatenate([roles, tail], axis=1)
    index.setflags(write=False)
    return index


def _assignment_chunks(designs: np.ndarray) -> Iterator[_Chunk]:
    """Every role assignment of every row of a (designs, n) array of sorted
    column sets, as chunks of at most `_CHUNK` assignments: whole designs
    grouped with the whole index table, or one design with a slice of it."""
    index = _role_index(designs.shape[1])
    per = max(1, _CHUNK // max(1, len(index)))
    for start in range(0, len(designs), per):
        group = designs[start : start + per]
        for lo in range(0, len(index), _CHUNK):
            yield group, index[lo : lo + _CHUNK]


def _raw_candidates(task: SearchTask) -> tuple[int, Iterator[_Chunk]]:
    """The number of raw candidate label tuples, and a stream of chunks
    holding the valid ones among them."""
    if task.mode == "exhaustive":
        pool = [x for x in range(1, 1 << task.r) if x not in _ROLES]
        return math.comb(len(pool), task.n - 4), _exhaustive_chunks(pool, task.n, task.r)
    designs = _catalog_for(task).designs_for(task.n)
    columns = np.sort(np.array(designs, dtype=np.int64).reshape(-1, task.n), axis=1)
    return len(columns) * len(_role_index(task.n)), _assignment_chunks(columns)


def _exhaustive_chunks(pool: list[int], n: int, r: int) -> Iterator[_Chunk]:
    """`_ROLES` followed by each (n-4)-subset of `pool` that completes them
    to rank r, each tuple a design of its own under the identity index.
    The roles span the low four bits, so the rank is 4 + rank(tail >> 4)."""
    tails = itertools.combinations(pool, n - 4)
    identity = np.arange(n)[None]
    while True:
        flat = itertools.chain.from_iterable(itertools.islice(tails, _CHUNK))
        tail = np.fromiter(flat, dtype=np.int64).reshape(-1, n - 4)
        if not len(tail):
            return
        tail = tail[_rank_mask(tail >> 4, r - 4)]
        if len(tail):
            yield np.hstack([np.broadcast_to(np.array(_ROLES), (len(tail), 4)), tail]), identity


def _evaluate_chunk(
    args: tuple[int, np.ndarray, np.ndarray],
) -> tuple[tuple[int, ...] | None, np.ndarray, int]:
    """Evaluate one chunk of valid column sets: every `designs[g, index[a]]`.

    Returns (best K values or None, labels of chunk-level K-minima,
    examined count).  The chunk keeps every candidate tied with its own
    minimum, so merging chunk results loses no global tie.

    K depends on an assignment only through its run histogram, so the
    admissible assignments' histogram classes (`_histogram_classes`) are
    ranked in one `_lex_minimum` call; an assignment ties when its class
    does, and equal histograms tie together.
    """
    r, designs, index = args
    admissible = np.flatnonzero(_assignment_mask(designs, index))
    if not len(admissible):
        return None, designs[:0], 0
    hists, inverse = _histogram_classes(r, designs, index, admissible)
    best, alive = _lex_minimum(r, designs.shape[1], hists, max(1, _BATCH_ELEMENTS >> r))
    won = np.zeros(len(hists), dtype=bool)
    won[alive] = True
    design, assignment = np.divmod(admissible[won[inverse]], len(index))
    tied = designs[design[:, None], index[assignment]]
    return best, tied, len(admissible)


def _opaque_rows(rows: np.ndarray) -> np.ndarray:
    """A C-contiguous 2-D array as one `np.void` item per row, which
    `np.unique` compares whole: on the 25,020 assignment signatures of
    32-run catalog n=9, np.unique(axis=0) took 74 ms and this view 5 ms
    (2 vCPUs)."""
    return rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()


def _histogram_classes(
    r: int, designs: np.ndarray, index: np.ndarray, admissible: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Run histograms H[p, c] of admissible assignments, one per class of
    assignments with equal histograms.

    `designs` is a (G, n) array of valid column sets, `index` an (A, n)
    array of column positions (roles first), and `admissible` the
    ascending flat positions g A + a of the assignments
    `designs[g, index[a]]`.  Returns (hists, inverse): `hists` a
    (classes, 16 (n-3)) array in the smallest dtype that holds N, with
    H[p, c] at p (n-3) + c, and `inverse[i]` the row of admissible[i]'s
    class.  Under the identity index (A = 1) every assignment is its own
    class, `inverse` the identity.

    The histogram.  At run v, with odd(b, v) = <b, v> and w(v) the number
    of odd columns of the design, the key p (n-3) + c is

        (n-4) - w(v) + sum_t ((n-3) 2**t + 1) odd(b_t, v)
          = (n-4) - w(v) + (n-3) p(v) + popcount(p(v))

    over the four roles b_t, with p(v) = sum_t 2**t odd(b_t, v), since c
    counts the even ordinary columns.  w is a per-design quantity, so each
    assignment costs four gathered role parities per run.

    The signature.  Take the design's weight spectrum

        F[y, x] = sum_v (-1)**<y, v> [w(v) = x],   y < N, x = 0..n,

    one Walsh-Hadamard transform over the runs.  As |F| <= N it is exact in
    int64 at every r.  An assignment reads F at the 16 points
    y_u = XOR of the b_t with u_t = 1 (u = 0..15) of its role span; its
    signature is the class ids of those 16 rows of F.  With
    u . p(v) = sum_t u_t <b_t, v> = <y_u, v> mod 2,

        #{v : p(v) = p, w(v) = x} = 1/16 sum_u (-1)**(u . p) F[y_u, x],

    so H[p, c], the count at x = (n-4) - c + popcount(p), is a function of
    the 16 rows F[y_u] alone, for any design with the same n.  Conversely,
    every count with w(v) = x lies in H (popcount(p) <= w(v) <= popcount(p)
    + n-4), and the 16 points y_u are distinct (the roles are independent),
    so the transform inverts: equal H give equal rows F[y_u].  Sharing
    class ids across a step's designs therefore makes its signature
    classes exactly its histogram classes.

    Designs are walked a step at a time, and each step computes their
    column parities once.  A signature step covers the designs whose
    spectra fit in `_BATCH_ELEMENTS` entries (or one design's N (n+1)); an
    identity-index step covers `_BATCH_ELEMENTS >> r` designs.  Histograms
    are built in slices of at most `_BATCH_ELEMENTS >> r` rows.  Classes
    from different steps may hold equal histograms; ranking them apart
    still returns both, since equal histograms tie.
    """
    runs, n = 1 << r, designs.shape[1]
    width = 16 * (n - 3)
    small = np.min_scalar_type(runs - 1)  # labels and runs, for a cheap bitwise_count
    v = np.arange(runs, dtype=small)
    step = max(1, _BATCH_ELEMENTS >> r)
    per = step if len(index) == 1 else max(1, _BATCH_ELEMENTS // (runs * (n + 1)))
    design, assignment = np.divmod(admissible, len(index))
    edges = np.concatenate(([0], np.flatnonzero(design[1:] != design[:-1]) + 1, [len(design)]))
    first = edges[:-1]  # each design's first assignment
    hists, inverse, count = [], [], 0
    for lo in range(0, len(first), per):
        group = design[first[lo : lo + per]]
        start, stop = edges[lo], edges[lo + len(group)]
        local = np.searchsorted(group, design[start:stop])
        roles = index[assignment[start:stop], :4]
        odd = np.bitwise_count(designs[group].astype(small)[:, :, None] & v) & 1  # (designs, n, N)
        weight = odd.sum(axis=1, dtype=np.int64)  # w(v), (designs, N)
        classes = np.arange(stop - start)
        if len(index) > 1:
            spectrum = (weight[:, :, None] == np.arange(n + 1)).astype(np.int64)
            half = 1
            while half < runs:  # one butterfly per run bit
                pair = spectrum.reshape(len(group), -1, 2, half, n + 1)
                spectrum = np.stack([pair[:, :, 0] + pair[:, :, 1], pair[:, :, 0] - pair[:, :, 1]], axis=2)
                half *= 2
            _, ids = np.unique(_opaque_rows(spectrum.reshape(-1, n + 1)), return_inverse=True)
            ids = ids.reshape(len(group), runs)
            labels = designs[design[start:stop, None], roles].astype(small)
            span = np.zeros((stop - start, 1), dtype=small)
            for t in range(4):  # column u + 2**t is column u XOR b_t
                span = np.concatenate([span, span ^ labels[:, t : t + 1]], axis=1)
            # gathered from intp ids (faster than from narrow ones), narrowed for np.unique
            signature = ids[local[:, None], span].astype(np.min_scalar_type(len(group) * runs))
            _, reps, classes = np.unique(_opaque_rows(signature), return_index=True, return_inverse=True)
            local, roles = local[reps], roles[reps]
        inverse.append(classes + count)
        count += len(local)
        for i in range(0, len(local), step):
            g = local[i : i + step]
            b = odd[g[:, None], roles[i : i + step]]  # (rows, 4, N)
            p = b[:, 0] | b[:, 1] << 1 | b[:, 2] << 2 | b[:, 3] << 3
            key = (n - 3) * p.astype(np.int64) + np.bitwise_count(p) - weight[g]
            key += width * np.arange(len(g))[:, None] + (n - 4)
            hist = np.bincount(key.ravel(), minlength=len(g) * width).reshape(-1, width)
            hists.append(hist.astype(np.min_scalar_type(runs)))
    return np.concatenate(hists), np.concatenate(inverse)


def _canonical_specs(r: int, labels: np.ndarray) -> tuple[RegularSpec, ...]:
    """Canonical form of a (rows, n) array of labels below 2**r: sort each
    row's traditional columns, sort the rows, drop repeats, one spec per row.

    Rows are compared whole as big-endian uint16 bytes, which order as the
    labels do: every label is below 2**r <= 2**16 (`designs.MAX_R`).
    `return_index` keeps `np.unique` on its sort path: the plain call's
    first use in a process cost 9-13 ms under numpy 2.4 (2 vCPUs).
    """
    rows = labels.astype(">u2")
    rows[:, 4:].sort(axis=1)
    _, first = np.unique(_opaque_rows(rows), return_index=True)
    rows = rows[first]  # frees the sorted copy
    return _spec_rows(r, rows)


def _merge(
    results: Iterable[tuple[tuple[int, ...] | None, np.ndarray, int]],
) -> tuple[tuple[int, ...] | None, np.ndarray | None, int]:
    best: tuple[int, ...] | None = None
    ties: list[np.ndarray] = []
    examined = 0
    for cb, ct, ce in results:
        examined += ce
        if cb is None:
            continue
        if best is None or cb < best:
            best = cb
            ties = [ct]
        elif cb == best:
            ties.append(ct)
    return best, np.concatenate(ties) if ties else None, examined


def _run_chunks(
    chunks: Iterator[_Chunk], r: int, workers: int
) -> tuple[tuple[int, ...] | None, np.ndarray | None, int]:
    """Evaluate and merge every chunk, in a pool of `workers` processes
    when there is more than one."""
    if workers == 1:
        return _merge(_evaluate_chunk((r, *chunk)) for chunk in chunks)
    from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait  # loads multiprocessing
    results = []
    with ProcessPoolExecutor(max_workers=workers) as pool:
        pending = set()
        for chunk in chunks:
            pending.add(pool.submit(_evaluate_chunk, (r, *chunk)))
            if len(pending) >= workers * 2:
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                results.extend(f.result() for f in done)
        done, _ = wait(pending)
        results.extend(f.result() for f in done)
    return _merge(results)


def _search(
    runs: int, n: int, raw: int, chunks: Iterator[_Chunk], workers: int
) -> SearchResult:
    """Run `raw` candidates, given as label chunks, through the evaluation
    and assemble the result.

    The pool starts only when `raw` fills at least `_POOL_CHUNKS` chunks
    per worker; a smaller search runs in-process.
    """
    r = runs.bit_length() - 1
    if raw < _POOL_CHUNKS * workers * _CHUNK:
        workers = 1
    t0 = time.perf_counter()
    best, ties, examined = _run_chunks(chunks, r, workers)
    wall = time.perf_counter() - t0
    pruned = raw - examined
    if best is None:
        return SearchResult(None, (), examined, pruned, wall)
    return SearchResult(
        best_k=KSequence(runs=runs, n=n, values=best),
        minimizers=_canonical_specs(r, ties),
        candidates_examined=examined,
        pruned=pruned,
        wall_time=wall,
    )


def search_ma(task: SearchTask) -> SearchResult:
    """Find all minimum aberration designs for a task.

    The result is deterministic for any worker count: chunks are merged
    by exact integer comparison and the minimizer list is canonically
    sorted.  An empty admissible stream yields a result with
    ``best_k=None`` rather than an error.
    """
    return _search(task.runs, task.n, *_raw_candidates(task), task.workers)


def search_within_columns(runs: int, columns: Sequence[int], workers: int = 1) -> SearchResult:
    """Best role assignment using only the given column set.

    Catalog mode restricted to one parent design: every ordered choice of
    four role columns (pair swaps deduplicated) is evaluated.  It serves
    `fixtures --verify` on the advisory rows and perfbench's `own-columns` workload.
    The arguments must make a valid `SearchTask` and hold distinct labels;
    a set with an out-of-range label, or short of rank, admits no assignment.
    """
    task = SearchTask(runs, len(columns), mode="catalog", workers=workers)
    if len(set(columns)) != len(columns):
        raise DesignError("repeated column label")
    raw = len(_role_index(task.n))
    try:
        RegularSpec(task.r, tuple(columns))
    except DesignError:
        # Every assignment uses every column, so an invalid set admits none.
        return SearchResult(None, (), 0, raw, 0.0)
    designs = np.sort(np.array([columns], dtype=np.int64), axis=1)
    return _search(runs, task.n, raw, _assignment_chunks(designs), workers)

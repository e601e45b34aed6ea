"""Minimum aberration search over regular two-level designs.

Two modes:

* ``exhaustive`` (16 runs): fix the four role columns at labels
  (1, 2, 4, 8) and enumerate every subset of the remaining labels as the
  traditional columns.  This loses nothing: the admissibility conditions
  force the role columns to be independent, and any independent 4-tuple
  maps onto (1, 2, 4, 8) by an invertible GF(2) relabeling of the basic
  factors, which permutes runs and therefore preserves every K entry.
* ``catalog``: walk a catalog of class representatives and try every
  ordered assignment of four of each design's columns to the roles,
  keeping assignments that satisfy the admissibility conditions.  With
  symmetry pruning on, assignments that merely swap the two
  conditional/conditioning pairs are generated once (K is invariant
  under the swap).

The search carries candidates per design, never as one Python tuple
each.  A chunk is a pair (designs, index): a (G, n) int64 array of column
sets and an (A, n) array of column positions, roles first; it holds the
G A label tuples designs[g, index[a]].  Catalog mode sorts each design's
columns and takes `index` from one cached table of role assignments per
(n, symmetry_pruning) (`_role_index`); with sorted columns the pair-swap
rule and the sorted tail read the same on positions as on labels.
Exhaustive mode packs `itertools.combinations` tails behind the fixed
roles, each tuple a design of its own under the identity index (A = 1).
Either way a chunk holds about `_CHUNK` assignments, and a design with
more assignments than that is split across slices of the index table.

Each chunk is filtered per design (`designs._assignment_mask`): validity
(labels in range, distinct, of full rank) once per column set, then the
admissibility conditions as three tests on the role pair sums, b1^b2 and
b3^b4 both outside the column set and unequal.  K depends on an
assignment only through its run histogram H[p, c] (see `aberration`), so
each admissible assignment's histogram is built from its design's column
parities and its four role parities (`aberration._run_histograms`), the
chunk's histograms are deduplicated exactly, and only the distinct ones
are scored.  Candidates are compared by exact lexicographic order on the
integer K-sequence, in sub-batches of distinct histograms by
`aberration.RegularBatchEvaluator`, one l-block at a time for the whole
sub-batch.  Pruning is batch-wise: after each block only the rows equal
to the sub-batch's lexicographic minimum go on, and the sub-batch is
dropped as soon as that minimum's prefix exceeds the best sequence seen
so far.  Every assignment whose histogram attains the minimum is a
chunk-level tie, so all K-equal minima are returned.

Each chunk reports its own exact minimum and the candidates achieving
it, so the merged result is identical for any worker count, chunk order
or sub-batch size.  Chunks go to a process pool only when the raw
candidates, counted before any is generated, fill at least two chunks
per worker; smaller searches run in-process.  The ties stay arrays up to
the end, where `_canonical_specs` sorts and dedupes them with
`np.lexsort` and builds their specs without validating them again: every
tie passed the filter.
"""

from __future__ import annotations

import itertools
import math
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

import numpy as np

from .aberration import KSequence, RegularBatchEvaluator, _run_histograms
from .catalogs import CatalogFile, bundled_catalog, parse_catalog
from .designs import DesignError, RegularSpec, _assignment_mask, _spec_rows

_ROLES = (1, 2, 4, 8)
_CHUNK = 20000
# Working-set bound of an evaluation sub-batch in `_evaluate_chunk`.  A
# histogram step builds (designs, n, runs) column parities, (rows, 4, runs)
# role parities and a (rows, runs) key; sizing steps by rows x runs keeps
# that small at every run size, and keeps each H @ W_l product below the
# size at which BLAS starts threads (it did at 1 << 15 on 2 vCPUs).
_BATCH_ELEMENTS = 1 << 13
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

    ``exhaustive`` mode is intended for 16 runs, where it is fast and
    provably complete; pass ``force=True`` to run it anyway at 32 runs.
    ``catalog`` mode reads ``catalog_path`` or, when that is None, the
    bundled catalog for the run size.  ``symmetry_pruning`` generates
    each pair-swapped role assignment once; it changes nothing in the
    result and exists so the equivalence can be switched off and tested.
    """

    runs: int
    n: int
    mode: str = "exhaustive"
    catalog_path: str | None = None
    symmetry_pruning: bool = True
    workers: int = 1
    force: bool = False

    def __post_init__(self) -> None:
        if self.mode not in ("exhaustive", "catalog"):
            raise DesignError(f"unknown search mode {self.mode!r}")
        r = self.runs.bit_length() - 1
        if self.runs < 16 or self.runs != 1 << r:
            raise DesignError(f"run size must be a power of two >= 16, got {self.runs}")
        if self.n < 5:
            raise DesignError("need at least five factors")
        if self.n > (1 << r) - 1:
            raise DesignError(f"n={self.n} infeasible: only {(1 << r) - 1} distinct labels exist")
        if self.mode == "exhaustive" and self.runs != 16 and not self.force:
            raise DesignError("exhaustive mode is guarded to 16 runs; pass force=True to override")
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
    whose K was determined, shared or not: scored itself, or through
    another candidate with the same run histogram and so the same K.
    ``pruned`` counts candidates dropped beforehand by the admissibility
    filter (or rank filter).  Both counters are partition independent;
    only ``wall_time`` varies between reruns.
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


def _assignment_count(n: int, symmetry_pruning: bool) -> int:
    """How many label tuples `_role_assignments` yields for n distinct columns."""
    return math.perm(n, 4) // (2 if symmetry_pruning else 1)


def _role_assignments(
    columns: Sequence[int], symmetry_pruning: bool
) -> Iterator[tuple[int, ...]]:
    """Ordered label tuples (roles first, tail sorted) for one column set."""
    colset = set(columns)
    for roles in itertools.permutations(columns, 4):
        if symmetry_pruning and (roles[0], roles[1]) > (roles[2], roles[3]):
            continue
        tail = sorted(colset.difference(roles))
        yield roles + tuple(tail)


@lru_cache(maxsize=16)
def _role_index(n: int, symmetry_pruning: bool) -> np.ndarray:
    """`_role_assignments(range(n), ...)` as a read-only (assignments, n)
    array of column positions, in the smallest dtype that holds them: the
    table stays cached, and as intp it held 2.8 MB at n=16."""
    flat = itertools.chain.from_iterable(_role_assignments(range(n), symmetry_pruning))
    count = _assignment_count(n, symmetry_pruning) * n
    index = np.fromiter(flat, dtype=np.min_scalar_type(n), count=count).reshape(-1, n)
    index.setflags(write=False)
    return index


def _assignment_chunks(designs: np.ndarray, symmetry_pruning: bool) -> Iterator[_Chunk]:
    """Every role assignment of every row of a (designs, n) array of sorted
    column sets, as chunks of at most `_CHUNK` assignments: whole designs
    grouped with the whole index table, or one design with a slice of it."""
    index = _role_index(designs.shape[1], symmetry_pruning)
    per = max(1, _CHUNK // max(1, len(index)))
    for start in range(0, len(designs), per):
        group = designs[start : start + per]
        for lo in range(0, len(index), _CHUNK):
            yield group, index[lo : lo + _CHUNK]


def _raw_candidates(task: SearchTask) -> tuple[int, Iterator[_Chunk]]:
    """The number of candidate label tuples before the admissibility
    filter, and a stream of chunks holding them."""
    if task.mode == "exhaustive":
        pool = [x for x in range(1, 1 << task.r) if x not in _ROLES]
        return math.comb(len(pool), task.n - 4), _exhaustive_chunks(pool, task.n)
    designs = _catalog_for(task).designs_for(task.n)
    count = len(designs) * _assignment_count(task.n, task.symmetry_pruning)
    columns = np.sort(np.array(designs, dtype=np.int64).reshape(-1, task.n), axis=1)
    return count, _assignment_chunks(columns, task.symmetry_pruning)


def _exhaustive_chunks(pool: list[int], n: int) -> Iterator[_Chunk]:
    """`_ROLES` followed by each (n-4)-subset of `pool`: each label tuple
    is a design of its own, under the identity index."""
    tails = itertools.combinations(pool, n - 4)
    identity = np.arange(n)[None]
    while True:
        flat = itertools.chain.from_iterable(itertools.islice(tails, _CHUNK))
        tail = np.fromiter(flat, dtype=np.int64).reshape(-1, n - 4)
        if not len(tail):
            return
        yield np.hstack([np.broadcast_to(np.array(_ROLES), (len(tail), 4)), tail]), identity


def _evaluate_chunk(
    args: tuple[int, np.ndarray, np.ndarray],
) -> tuple[tuple[int, ...] | None, np.ndarray, int, int]:
    """Evaluate one chunk: every assignment `designs[g, index[a]]`.

    Returns (best K values or None, labels of chunk-level K-minima,
    examined count, pruned count).  The chunk keeps every candidate tied
    with its own minimum, so merging chunk results loses no global tie.

    K depends on an assignment only through its run histogram, so the
    admissible assignments' histograms are deduplicated exactly and each
    distinct one is scored once, in sub-batches; an assignment ties when
    its histogram does.  Every step works on at most `_BATCH_ELEMENTS`
    run-by-row entries.
    """
    r, designs, index = args
    n = designs.shape[1]
    admissible = np.flatnonzero(_assignment_mask(r, designs, index))
    step = max(1, _BATCH_ELEMENTS >> r)
    hists = _run_histograms(r, designs, index, admissible, step)
    # one opaque item per histogram: on the 25,020 of 32-run catalog n=9,
    # np.unique(axis=0) took 295 ms and this void view 9 ms (2 vCPUs)
    rows = hists.view(np.dtype((np.void, hists.itemsize * hists.shape[1]))).ravel()
    distinct, inverse = np.unique(rows, return_inverse=True)
    distinct = distinct.view(hists.dtype).reshape(len(distinct), hists.shape[1])
    best: tuple[int, ...] | None = None
    winners: list[np.ndarray] = []
    for start in range(0, len(distinct), step):
        got = _batch_minimum(r, n, distinct[start : start + step], best)
        if got is None:
            continue
        values, alive = got
        if best is None or values < best:
            best, winners = values, []
        winners.append(start + alive)
    won = np.zeros(len(distinct), dtype=bool)
    if winners:
        won[np.concatenate(winners)] = True
    design, assignment = np.divmod(admissible[won[inverse]], len(index))
    tied = designs[design[:, None], index[assignment]]
    return best, tied, len(admissible), designs.shape[0] * len(index) - len(admissible)


def _batch_minimum(
    r: int, n: int, hists: np.ndarray, bound: tuple[int, ...] | None
) -> tuple[tuple[int, ...], np.ndarray] | None:
    """The minimum K values over a batch of run histograms and the rows
    attaining it, or None once that minimum's prefix exceeds `bound`.

    Pruning is batch-wise: after each block only the rows whose block
    equals the lexicographic minimum among the survivors go on, so the
    survivors always share their whole prefix and ties stay exact.
    Lexicographic comparison is decided at the first differing entry,
    so a prefix that compares greater than the bound can never beat it,
    and one that compares smaller always does.
    """
    ev = RegularBatchEvaluator._of_histograms(r, n, hists)
    alive = np.arange(len(hists))
    values: list[int] = []
    decided_better = bound is None
    for l in range(2, n - 1):
        block = ev.block(l)
        keep = np.ones(len(block), dtype=bool)
        for column in block.T:
            keep &= column == column[keep].min()
        if not keep.all():
            ev.select(keep)
            alive = alive[keep]
        head = tuple(block[keep][0].tolist())
        values.extend(head)
        if decided_better:
            continue
        k = len(values)
        bound_head = bound[k - 6 : k]
        if head > bound_head:
            return None
        decided_better = head < bound_head
    return tuple(values), alive


def _canonical_specs(r: int, labels: np.ndarray) -> tuple[RegularSpec, ...]:
    """Canonical form of a (rows, n) label array: sort each row's
    traditional columns, sort the rows, drop repeats, one spec per row."""
    labels = np.concatenate([labels[:, :4], np.sort(labels[:, 4:], axis=1)], axis=1)
    labels = labels[np.lexsort(labels.T[::-1])]
    fresh = np.ones(len(labels), dtype=bool)
    fresh[1:] = np.any(labels[1:] != labels[:-1], axis=1)
    return _spec_rows(r, labels[fresh])


def canonicalize(minimizers: Iterable[RegularSpec]) -> tuple[RegularSpec, ...]:
    """Sort each spec's traditional columns, then sort and dedupe the list.

    The specs must share r and n.
    """
    specs = list(minimizers)
    if not specs:
        return ()
    if len({(spec.r, spec.n) for spec in specs}) > 1:
        raise DesignError("cannot canonicalize specs of different r or n together")
    return _canonical_specs(specs[0].r, np.array([spec.columns for spec in specs]))


def _merge(
    results: Iterable[tuple[tuple[int, ...] | None, np.ndarray, int, int]],
) -> tuple[tuple[int, ...] | None, np.ndarray | None, int, int]:
    best: tuple[int, ...] | None = None
    ties: list[np.ndarray] = []
    examined = 0
    pruned = 0
    for cb, ct, ce, cp in results:
        examined += ce
        pruned += cp
        if cb is None:
            continue
        if best is None or cb < best:
            best = cb
            ties = [ct]
        elif cb == best:
            ties.append(ct)
    return best, np.concatenate(ties) if ties else None, examined, pruned


def _run_chunks(
    chunks: Iterator[_Chunk], r: int, workers: int
) -> tuple[tuple[int, ...] | None, np.ndarray | None, int, int]:
    """Evaluate and merge every chunk, in a pool of `workers` processes
    when there is more than one."""
    if workers == 1:
        return _merge(_evaluate_chunk((r, *chunk)) for chunk in chunks)
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
    best, ties, examined, pruned = _run_chunks(chunks, r, workers)
    wall = time.perf_counter() - t0
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

    This is catalog mode restricted to a single parent design: every
    ordered choice of four role columns (pair swaps deduplicated) is
    evaluated.  Used to vet benchmark rows too large for a full search.
    """
    if len(set(columns)) != len(columns):
        raise DesignError("repeated column label")
    raw = _assignment_count(len(columns), symmetry_pruning=True)
    if not all(0 < c < runs for c in columns):
        # Every assignment uses every column, so a label outside the label
        # space rejects them all (and may not fit the filter's int64).
        return SearchResult(None, (), 0, raw, 0.0)
    designs = np.sort(np.array([columns], dtype=np.int64), axis=1)
    return _search(runs, len(columns), raw, _assignment_chunks(designs, True), workers)

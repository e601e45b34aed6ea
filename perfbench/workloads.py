"""The benchmark's workloads: inputs from the seed, one pass, output checks.

Every workload builds its inputs and the reference values its checks need
once per run, then runs passes.  A pass attempts the same operations every
time: one search (`tables`, `own-columns`) or one design or prior ladder
(`evaluate`) each.  An operation fails when any check on its output fails.

Checks are computed apart from the route under test: the benchmark's own
GF(2) arithmetic and XOR enumeration, the word-count route against the fast
route, and properties the method must have.

Under a `Tracer` a pass also replays each search through the layer functions
`search.py` calls (see `replay_search`) and records spans around every call
into a library layer; under a `NullTracer` the same code records nothing.
"""

from __future__ import annotations

import math
import random
import resource
import time
from dataclasses import dataclass, field
from itertools import combinations, islice, permutations
from typing import Iterable, Iterator

import numpy as np

from condma import search as search_module
from condma.aberration import FastEvaluator, KSequence, entry_labels, k_sequence_direct, k_sequence_fast
from condma.catalogs import bundled_catalog, fixtures
from condma.designs import DesignError, RegularSpec, check_conditions, check_conditions_regular, expand
from condma.effects import PriorSpec, hierarchy_sequence, prior_cov_beta_diag, variance_formula
from condma.modelmat import optimality_gap
from condma.search import SearchTask, search_ma, search_within_columns
from condma.wordcounts import k_from_counts

from spans import Tracer, clock

ROLES = (1, 2, 4, 8)
# Labels a tail may not use once the roles are (1, 2, 4, 8): the roles and
# the sums of each pair (the triple conditions), so every tail from the
# rest is admissible.
BLOCKED = (1, 2, 3, 4, 8, 12)
GAP_TOL = 1e-9  # `condma check --tol` default
PRIOR_RTOL = 1e-9
# search.py restarts the prefix bound in every chunk of raw candidates; the
# replay restarts it at the same places.
CHUNK = getattr(search_module, "_CHUNK", 20000)


def cpu_now() -> float:
    """CPU seconds of this process plus its reaped children (pool workers)."""
    ch = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + ch.ru_utime + ch.ru_stime


@dataclass
class Op:
    """One attempted operation and what the pass measured for it."""

    name: str
    seconds: float = 0.0  # wall time of the library calls
    cpu: float = 0.0  # CPU time of the process and its workers over them
    raw: int = 0  # raw candidates (a design counts as one)
    designs: int = 0  # designs taken through K evaluation
    problems: list[str] = field(default_factory=list)
    known_fault: bool = False

    @property
    def failed(self) -> bool:
        return bool(self.problems)


def first_difference(n: int, got: Iterable[int], want: Iterable[int]) -> str:
    for lab, a, b in zip(entry_labels(n), got, want):
        if a != b:
            return f"{lab}: {a} vs {b}"
    return "no entry differs"


# --- the benchmark's own GF(2) arithmetic ------------------------------------


def span_of(vectors: Iterable[int]) -> list[int]:
    """All XOR combinations; entry c is the sum of the vectors at c's set bits."""
    out = [0]
    for v in vectors:
        out += [w ^ v for w in out]
    return out


def rank_of(vectors: Iterable[int]) -> int:
    pivots: list[int] = []
    for v in vectors:
        for p in pivots:
            v = min(v, v ^ p)
        if v:
            pivots.append(v)
    return len(pivots)


def role_assignments(columns: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """Ordered role choices, pair swaps once, tail sorted: search.py's order."""
    colset = set(columns)
    for roles in permutations(columns, 4):
        if (roles[0], roles[1]) > (roles[2], roles[3]):
            continue
        yield roles + tuple(sorted(colset.difference(roles)))


def admissible_assignments(columns: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Role assignments passing the GF(2) independence conditions.

    With the four roles independent, a tail label breaks a triple condition
    exactly when it is the sum of a role pair.
    """
    colset = set(columns)
    return [
        labels
        for labels in role_assignments(columns)
        if rank_of(labels[:4]) == 4
        and labels[0] ^ labels[1] not in colset
        and labels[2] ^ labels[3] not in colset
    ]


def relabel_key(labels: tuple[int, ...]) -> tuple[int, ...]:
    """Tail labels in the basis (roles, smallest independent tail label).

    Two 32-run assignments with equal keys differ by an invertible GF(2)
    relabeling that fixes every role, so they have the same K.
    """
    roles, tail = labels[:4], labels[4:]
    span4 = span_of(roles)
    inside = set(span4)
    x = min(y for y in tail if y not in inside)
    coord = {v: c for c, v in enumerate(span4 + [v ^ x for v in span4])}
    return tuple(sorted(coord[y] for y in tail))


def min_wlp_sets(n: int) -> set[frozenset[int]]:
    """Rank-4 n-subsets of 1..15 with the minimum classic wordlength pattern.

    Counts words by XOR over every subset of every n-subset; a set of rank
    4 has exactly 2**(n-4) subsets summing to zero.
    """
    subsets = np.array(list(combinations(range(1, 16), n)), dtype=np.uint8)
    xors = np.zeros((len(subsets), 1), dtype=np.uint8)
    for j in range(n):
        xors = np.concatenate([xors, xors ^ subsets[:, j : j + 1]], axis=1)
    weight = np.array([bin(c).count("1") for c in range(1 << n)])
    zero = xors == 0
    words = np.stack([zero[:, weight == l].sum(axis=1) for l in range(n + 1)], axis=1)
    full = words.sum(axis=1) == 1 << (n - 4)
    wlp = [tuple(row[3:]) for row in words[full].tolist()]
    best = min(wlp)
    return {frozenset(s) for s, w in zip(subsets[full].tolist(), wlp) if w == best}


def effect_classes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(s, l) of every beta position, from the index convention in `effects`.

    Position = q * 2**(n-4) + t, q = 4*blk + 2*j2 + j4, blk encoding
    (j1, j3) as (0,0), (1,0), (0,1), (1,1).  Position 0 is the grand mean.
    """
    pos = np.arange(1 << n)
    q, t = pos >> (n - 4), pos & ((1 << (n - 4)) - 1)
    blk, j2, j4 = q >> 2, (q >> 1) & 1, q & 1
    j1 = (blk == 1) | (blk == 3)
    j3 = (blk == 2) | (blk == 3)
    wt = np.bitwise_count(t).astype(np.int64)
    s = j1.astype(np.int64) + j3
    l = np.where(
        s == 0, j2 + j4 + wt, np.where(s == 2, 2 + wt, np.where(j1, 1 + j4 + wt, 1 + j2 + wt))
    )
    return s, l


# --- layer calls shared by passes and references --------------------------------


def fast_route(tr, matrix) -> KSequence:
    """`k_sequence_fast`; traced, its mirror through FastEvaluator and block(l)."""
    if not tr.enabled:
        return k_sequence_fast(matrix)
    top = tr.open("aberration.fast")
    ev = tr.call("aberration.build", FastEvaluator, matrix)
    values: list[int] = []
    for l in range(2, ev.n - 1):
        values.extend(tr.call("aberration.block", ev.block, l))
    tr.close(top)
    return KSequence(ev.runs, ev.n, tuple(values))


def condma_check(matrix) -> tuple[bool, float]:
    """What `condma check` computes: the conditions and the optimality gap."""
    return check_conditions(matrix).ok, optimality_gap(matrix)


@dataclass
class Ladder:
    """Prior ladder inputs: n, the prior, and the benchmark's own classes."""

    n: int
    prior: PriorSpec
    s: np.ndarray
    l: np.ndarray


def make_ladder(n: int, rho: float) -> Ladder:
    return Ladder(n, PriorSpec(rho=rho), *effect_classes(n))


def prior_ladder(lad: Ladder):
    """What `condma prior` computes: the ladder, the diagonal, the closed forms."""
    ladder = hierarchy_sequence(lad.n, lad.prior)
    diag = prior_cov_beta_diag(lad.n, lad.prior)
    classes = set(zip(lad.s[1:].tolist(), lad.l[1:].tolist()))
    closed = {c: variance_formula(lad.n, c[0], c[1], lad.prior) for c in classes}
    return ladder, diag, closed


def ladder_problems(lad: Ladder, out) -> list[str]:
    ladder, diag, closed = out
    problems = []
    values = [v for _, v in ladder]
    if not all(a > b for a, b in zip(values, values[1:])):
        problems.append(f"prior n={lad.n}: ladder not strictly decreasing")
    want = np.array([closed[c] for c in zip(lad.s[1:].tolist(), lad.l[1:].tolist())])
    dev = np.max(np.abs(diag[1:] - want) / want)
    if not dev <= PRIOR_RTOL:
        problems.append(f"prior n={lad.n}: closed form off the diagonal by {dev:.3g} (relative)")
    return problems


# --- searches -------------------------------------------------------------------


@dataclass
class SearchCase:
    """One search the library is asked to run, and how to replay it."""

    runs: int
    n: int
    workers: int
    columns: tuple[int, ...] | None = None  # own-columns search when set
    raw: int = 0  # raw candidates, derived by the benchmark
    checked: dict = field(default_factory=dict)  # output signature -> problems

    @property
    def label(self) -> str:
        kind = "own columns" if self.columns is not None else "search"
        return f"{self.runs}-run n={self.n} {kind}"

    def call(self):
        if self.columns is not None:
            return search_within_columns(self.runs, self.columns, workers=self.workers)
        mode = "exhaustive" if self.runs == 16 else "catalog"
        return search_ma(SearchTask(runs=self.runs, n=self.n, mode=mode, workers=self.workers))

    def raw_candidates(self, tr) -> Iterator[tuple[int, ...]]:
        if self.columns is not None:
            return role_assignments(self.columns)
        if self.runs == 16:
            pool = [x for x in range(1, 16) if x not in ROLES]
            return (ROLES + tail for tail in combinations(pool, self.n - 4))
        cat = tr.call("catalogs.load", bundled_catalog, self.runs)
        return (a for cols in cat.designs_for(self.n) for a in role_assignments(cols))


@dataclass
class Replay:
    best: tuple[int, ...] | None
    minimizers: set[tuple[int, ...]]
    seconds: float
    layer_seconds: float


def replay_search(tr: Tracer, case: SearchCase) -> Replay:
    """Run `case` as search.py does, calling each layer function in a span.

    Same candidates, same order, same chunks, same prefix bound: RegularSpec,
    check_conditions_regular, expand, FastEvaluator, then block(l) for
    l = 2, 3, ... until the prefix exceeds the chunk's best so far.
    """
    r = case.runs.bit_length() - 1
    top = tr.open("search.replay")
    rec, name_id = tr.record, tr.name_id
    spec_id, cond_id, expand_id = name_id("designs.spec"), name_id("designs.conditions"), name_id("designs.expand")
    build_id, block_id = name_id("aberration.build"), name_id("aberration.block")
    best: tuple[int, ...] | None = None
    ties: list[tuple[int, ...]] = []
    rejected = 0
    stream = case.raw_candidates(tr)
    while chunk := list(islice(stream, CHUNK)):
        cbest: tuple[int, ...] | None = None
        cties: list[tuple[int, ...]] = []
        for labels in chunk:
            t0 = clock()
            try:
                spec = RegularSpec(r=r, columns=labels)
            except DesignError:
                rec(spec_id, t0, clock())
                rejected += 1
                continue
            rec(spec_id, t0, clock())
            t0 = clock()
            ok = check_conditions_regular(spec).ok
            rec(cond_id, t0, clock())
            if not ok:
                rejected += 1
                continue
            t0 = clock()
            matrix = expand(spec)
            rec(expand_id, t0, clock())
            t0 = clock()
            ev = FastEvaluator(matrix)
            rec(build_id, t0, clock())
            values: list[int] = []
            decided = cut = False
            for l in range(2, case.n - 1):
                t0 = clock()
                values.extend(ev.block(l))
                rec(block_id, t0, clock())
                if cbest is None or decided:
                    continue
                prefix, head = tuple(values), cbest[: len(values)]
                if prefix > head:
                    cut = True
                    break
                decided = prefix < head
            if cut:
                continue
            got = tuple(values)
            if cbest is None or got < cbest:
                cbest, cties = got, [labels]
            elif got == cbest:
                cties.append(labels)
        if cbest is not None and (best is None or cbest < best):
            best, ties = cbest, cties
        elif cbest is not None and cbest == best:
            ties.extend(cties)
    layer_ns = tr.children_ns(top)
    total_ns = tr.close(top)
    tr.count("designs.rejected", rejected)
    minimizers = {labels[:4] + tuple(sorted(labels[4:])) for labels in ties}
    return Replay(best, minimizers, total_ns / 1e9, layer_ns / 1e9)


def timed_call(tr, case: SearchCase):
    """The search call: (result, wall seconds, CPU seconds of process and workers)."""
    w0, c0 = time.perf_counter(), cpu_now()
    res = tr.call("search.call", case.call)
    return res, time.perf_counter() - w0, cpu_now() - c0


def run_search(tr, case: SearchCase) -> tuple[Op, object]:
    """One search operation: the timed call and, when traced, its replay."""
    op = Op(case.label, raw=case.raw)
    top = tr.open("op.search")
    try:
        res, op.seconds, op.cpu = timed_call(tr, case)
        op.designs = res.candidates_examined
        if tr.enabled:
            trace_search(tr, case, op, res)
    finally:
        tr.close(top)
    return op, res


def trace_search(tr: Tracer, case: SearchCase, op: Op, res) -> None:
    """Replay the search, compare it with the call, count the search layer.

    At workers=1 a second call follows the replay and the call time is the
    mean of the two, so that the machine's speed drifting between call and
    replay cancels to first order.  With a pool, the CPU time of process and
    workers is what the layers used.
    """
    replay = replay_search(tr, case)
    if replay.best != (res.best_k.values if res.found else None) or replay.minimizers != {
        m.columns for m in res.minimizers
    }:
        op.problems.append("replay reached a different best K or minimizer set than the call")
    if case.workers == 1:
        call_wall = (op.seconds + timed_call(tr, case)[1]) / 2
        call_used = call_wall
    else:
        call_wall, call_used = op.seconds, op.cpu
    tr.count("search.self_ns", round((call_used - replay.layer_seconds) * 1e9))
    tr.count("search.replay_ns", round(replay.seconds * 1e9))
    tr.count("search.call_ns", round(call_wall * 1e9))
    tr.count("search.ties", len(res.minimizers))


def checked_once(case: SearchCase, res, check) -> list[str]:
    """Run `check` for a new output; an output seen before keeps its verdict."""
    sig = (
        res.best_k.values if res.found else None,
        tuple(m.columns for m in res.minimizers),
        res.candidates_examined,
        res.pruned,
    )
    if sig not in case.checked:
        case.checked[sig] = check()
    return list(case.checked[sig])


def first_use(tr) -> None:
    """The set-up every run starts with: both catalogs, then the first search.

    The first K evaluation is the 16-run n=9 exhaustive search of the
    README's library example.  A traced run then replays and repeats that
    search, warm, so every workload reports the search layer.
    """
    tr.call("catalogs.load", bundled_catalog, 16)
    tr.call("catalogs.load", bundled_catalog, 32)
    case = SearchCase(runs=16, n=9, workers=1, raw=math.comb(11, 5))
    if not case.call().found:
        raise RuntimeError("the set-up search found no design")
    if tr.enabled:
        op, _ = run_search(tr, case)
        if op.failed:
            raise RuntimeError(f"set-up search: {'; '.join(op.problems)}")


# --- workloads ------------------------------------------------------------------


class Workload:
    """Inputs and references of a workload, built once per run from the seed."""

    name = ""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.rho = self.rng.uniform(0.05, 0.95)

    def run_pass(self, tr) -> list[Op]:
        raise NotImplementedError


class SearchWorkload(Workload):
    """Searches checked against the table rows they re-derive.

    For each row, once per run: its K by the word-count route, which the
    fast and direct routes must match; `condma check` on it; and the prior
    ladder behind the K ordering at its n.  A row whose references fail
    fails every search of that row.
    """

    def __init__(self, seed: int, tr, rows) -> None:
        super().__init__(seed)
        self.cases: list[SearchCase] = []
        self.row_k: dict[tuple[int, int], tuple[int, ...]] = {}
        self.ref_problems: dict[tuple[int, int], list[str]] = {}
        for row in rows:
            key = row.runs, row.n
            spec = row.to_spec()
            self.row_k[key] = want = tr.call("wordcounts.counts", k_from_counts, spec).values
            matrix = expand(spec)
            problems = self.ref_problems[key] = []
            for route, got in (
                ("fast", fast_route(tr, matrix).values),
                ("direct", tr.call("aberration.direct", k_sequence_direct, matrix).values),
            ):
                if got != want:
                    problems.append(f"row: {route} route vs word counts, {first_difference(row.n, got, want)}")
            ok, gap = tr.call("modelmat.check", condma_check, matrix)
            if not (ok and gap <= GAP_TOL):
                problems.append("row fails condma check")
            lad = make_ladder(row.n, self.rho)
            problems += ladder_problems(lad, tr.call("effects.prior", prior_ladder, lad))

    def check(self, tr, case: SearchCase, res) -> list[str]:
        raise NotImplementedError

    def run_pass(self, tr) -> list[Op]:
        ops = []
        for case in self.cases:
            op, res = run_search(tr, case)
            op.problems += self.ref_problems[case.runs, case.n]
            op.problems += checked_once(case, res, lambda: self.check(tr, case, res))
            ops.append(op)
        return ops


class Tables(SearchWorkload):
    """The published rows the program reproduces, searched at workers=1.

    16 runs: the exhaustive searches n=5..12.  32 runs: the catalog searches
    n=6..9; n=10 is left out for time (about 26 s a pass on its own) and
    n=11, 12 because those rows do not reproduce.
    """

    name = "tables"

    def __init__(self, seed: int, tr) -> None:
        rows = list(fixtures(16)) + [row for row in fixtures(32) if 6 <= row.n <= 9]
        super().__init__(seed, tr, rows)
        cat32 = tr.call("catalogs.load", bundled_catalog, 32)
        for row in rows:
            if row.runs == 16:
                raw = math.comb(11, row.n - 4)
            else:
                orders = math.factorial(row.n) // (2 * math.factorial(row.n - 4))
                raw = len(cat32.designs_for(row.n)) * orders
            self.cases.append(SearchCase(row.runs, row.n, workers=1, raw=raw))
        self.min_wlp = {n: min_wlp_sets(n) for n in range(5, 13)}

    def check(self, tr, case: SearchCase, res) -> list[str]:
        if not res.found:
            return ["no design found"]
        problems = []
        best = res.best_k.values
        want = self.row_k[case.runs, case.n]
        if best != want:
            problems.append(f"best K differs from the row's, {first_difference(case.n, best, want)}")
        if res.candidates_examined + res.pruned != case.raw:
            problems.append(
                f"evaluated {res.candidates_examined} + rejected {res.pruned} != {case.raw} raw candidates"
            )
        for spec in res.minimizers:
            ok, gap = tr.call("modelmat.check", condma_check, expand(spec))
            if not (ok and gap <= GAP_TOL):
                problems.append(f"minimizer {spec.columns} fails condma check")
            counted = tr.call("wordcounts.counts", k_from_counts, spec).values
            if counted != best:
                problems.append(f"minimizer {spec.columns}: word counts {first_difference(case.n, counted, best)}")
        if case.runs == 16:
            sets = {frozenset(spec.columns) for spec in res.minimizers}
            if not sets & self.min_wlp[case.n]:
                problems.append("no minimizer has the minimum classic wordlength pattern")
        return problems


class OwnColumns(SearchWorkload):
    """The evaluable 32-run advisory rows, searched within their own columns
    at workers=2."""

    name = "own-columns"
    WORKERS = 2
    SAMPLE = 16

    def __init__(self, seed: int, tr) -> None:
        rows = [row for row in fixtures(32) if row.status == "advisory" and row.evaluable]
        super().__init__(seed, tr, rows)
        self.admissible: dict[int, int] = {}
        self.sample: dict[int, list] = {}
        for row in rows:
            n = row.n
            raw = math.factorial(n) // (2 * math.factorial(n - 4))
            self.cases.append(SearchCase(32, n, workers=self.WORKERS, columns=row.columns, raw=raw))
            admissible = admissible_assignments(row.columns)
            self.admissible[n] = len(admissible)
            picks = self.rng.sample(admissible, min(self.SAMPLE, len(admissible)))
            self.sample[n] = [
                (labels, tr.call("wordcounts.counts", k_from_counts, RegularSpec(5, labels)).values)
                for labels in picks
            ]

    def check(self, tr, case: SearchCase, res) -> list[str]:
        if not res.found:
            return ["no design found"]
        problems = []
        n, best = case.n, res.best_k.values
        own = self.row_k[32, n]
        if best > own or (n == 13 and best == own):
            problems.append(f"best K not below the row's own labelling, {first_difference(n, best, own)}")
        if res.candidates_examined != self.admissible[n]:
            problems.append(f"evaluated {res.candidates_examined} != {self.admissible[n]} admissible assignments")
        if res.candidates_examined + res.pruned != case.raw:
            problems.append(f"evaluated + rejected != {case.raw} raw assignments")
        # One word-count evaluation per relabeling class of the minimizers.
        classes = {}
        for spec in res.minimizers:
            classes.setdefault(relabel_key(spec.columns), spec)
        for spec in classes.values():
            counted = tr.call("wordcounts.counts", k_from_counts, spec).values
            if counted != best:
                problems.append(f"minimizer {spec.columns}: word counts {first_difference(n, counted, best)}")
        minimizers = {spec.columns for spec in res.minimizers}
        for labels, k in self.sample[n]:
            if k < best:
                problems.append(f"sampled assignment {labels} has a smaller K than the best")
            if (k == best) != (labels in minimizers):
                problems.append(f"sampled assignment {labels}: K equal to best disagrees with the minimizer set")
        return problems


class Evaluate(Workload):
    """A seeded sample of admissible regular designs through every K route,
    plus the prior ladder for n=5..16.

    The designs are (1, 2, 4, 8) plus a random tail of the labels left
    admissible, moved by a random invertible GF(2) relabeling.  Two fixed
    64-run designs (n=56 and n=61) do not depend on the seed: the fast
    route's int64 sums wrap on them.
    """

    name = "evaluate"
    SLOTS = (
        (16, tuple(range(5, 14))),
        (32, (6, 8, 10, 12, 15, 18, 21, 25, 29)),
        (64, (8, 14, 20, 30, 40, 48)),
    )
    WRAP_N = (56, 61)
    DIRECT_MAX_N = 12  # the direct route only where its X blocks are small
    LADDER_N = tuple(range(5, 17))

    def __init__(self, seed: int, tr) -> None:
        super().__init__(seed)
        self.designs = [
            (runs, self.sample_design(runs.bit_length() - 1, n), False)
            for runs, ns in self.SLOTS
            for n in ns
        ]
        fixed = [x for x in range(1, 64) if x not in BLOCKED + (16, 32)]
        for n in self.WRAP_N:
            self.designs.append((64, ROLES + (16, 32) + tuple(fixed[: n - 6]), True))
        self.ladders = [make_ladder(n, self.rho) for n in self.LADDER_N]

    def sample_design(self, r: int, n: int) -> tuple[int, ...]:
        allowed = [x for x in range(1, 1 << r) if x not in BLOCKED]
        while True:
            labels = ROLES + tuple(self.rng.sample(allowed, n - 4))
            if rank_of(labels) == r:
                break
        while True:
            images = [self.rng.randrange(1, 1 << r) for _ in range(r)]
            if rank_of(images) == r:
                break
        move = span_of(images)
        return tuple(move[x] for x in labels)

    def design_op(self, tr, runs: int, labels: tuple[int, ...], may_wrap: bool) -> Op:
        n = len(labels)
        op = Op(f"{runs}-run n={n} design", raw=1, designs=1)
        direct = None
        top = tr.open("op.design")
        w0, c0 = time.perf_counter(), cpu_now()
        try:
            spec = tr.call("designs.spec", RegularSpec, runs.bit_length() - 1, labels)
            admissible = tr.call("designs.conditions", check_conditions_regular, spec).ok
            matrix = tr.call("designs.expand", expand, spec)
            fast = fast_route(tr, matrix).values
            counted = tr.call("wordcounts.counts", k_from_counts, spec).values
            if runs <= 32 and n <= self.DIRECT_MAX_N:
                direct = tr.call("aberration.direct", k_sequence_direct, matrix).values
            ok, gap = tr.call("modelmat.check", condma_check, matrix)
        except DesignError as exc:
            op.problems.append(f"refused: {exc}")
            op.known_fault = may_wrap
            return op
        finally:
            op.seconds, op.cpu = time.perf_counter() - w0, cpu_now() - c0
            tr.close(top)
        if not admissible:
            op.problems.append("check_conditions_regular rejects an admissible design")
        # The int64 wrap leaves every entry right modulo 2**64.
        wrapped = fast != counted and all((f - c) % 2**64 == 0 for f, c in zip(fast, counted))
        if fast != counted:
            op.problems.append(f"fast route vs word counts, {first_difference(n, fast, counted)}")
        if direct is not None and direct != counted:
            op.problems.append(f"direct route vs word counts, {first_difference(n, direct, counted)}")
        if not (ok and gap <= GAP_TOL):
            op.problems.append(f"condma check fails (conditions {ok}, gap {gap:.3g})")
        op.known_fault = may_wrap and wrapped and len(op.problems) == 1
        return op

    def ladder_op(self, tr, lad: Ladder) -> Op:
        op = Op(f"prior n={lad.n}")
        top = tr.open("op.prior")
        w0, c0 = time.perf_counter(), cpu_now()
        out = tr.call("effects.prior", prior_ladder, lad)
        op.seconds, op.cpu = time.perf_counter() - w0, cpu_now() - c0
        tr.close(top)
        op.problems += ladder_problems(lad, out)
        return op

    def run_pass(self, tr) -> list[Op]:
        ops = [self.design_op(tr, runs, labels, may_wrap) for runs, labels, may_wrap in self.designs]
        return ops + [self.ladder_op(tr, lad) for lad in self.ladders]


WORKLOADS = {cls.name: cls for cls in (Tables, OwnColumns, Evaluate)}

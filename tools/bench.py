"""Wall time of fixed end-to-end tasks and per-design cost of the K routes.

Writes BENCH.json at the repository root: the Python and numpy versions,
the core count and two sections.  Every figure is the median of 7 timed
calls after one warm-up call, in one process.

`routes`: ms per design of the fast, word-count and direct K routes and
of what `condma check` computes for a design given as a matrix, over
five seeded admissible designs (roles 1, 2, 4, 8 and a random tail) at
each of 16-run n=9, 32-run n=9 and 32-run n=13.  The script exits 1 if
the routes' K disagree on a design.

`tasks`: seconds of each search and `fixtures --verify` run named in
`tasks()`, with the fixtures' exit codes (the 32-run table exits 1 on its
rows n=11, 12 and 13).  Searches run at one worker, except
`search_32_n12_catalog_2_workers`, which starts a process pool of two
for each call, so its figure includes the pool's start-up.

Usage, from the repository root:

    python tools/bench.py [--src DIR] [--out FILE]

`--src` measures another checkout's `src/` on the same tasks and designs.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REPEATS = 7  # timed calls, after one warm-up call
SIZES = ((16, 9), (32, 9), (32, 13))
DESIGNS = 5  # per size
SEED = 0


def median_s(call):
    """Median seconds of REPEATS timed calls after one warm-up, and the
    last call's result."""
    call()
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        got = call()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), got


def routes() -> list[dict] | None:
    """Median ms per design of each route, per size; None when the K
    routes disagree on a design."""
    from condma.aberration import k_sequence_direct, k_sequence_fast
    from condma.designs import DesignError, RegularSpec, check_conditions, check_conditions_regular, expand
    from condma.modelmat import optimality_gap
    from condma.wordcounts import k_from_counts

    rng = random.Random(SEED)

    def draw(runs: int, n: int) -> RegularSpec:
        """An admissible design with roles (1, 2, 4, 8) and a random tail."""
        pool = [x for x in range(1, runs) if x not in (1, 2, 3, 4, 8, 12)]
        while True:
            try:
                spec = RegularSpec(runs.bit_length() - 1, (1, 2, 4, 8, *rng.sample(pool, n - 4)))
            except DesignError:
                continue
            if check_conditions_regular(spec).ok:
                return spec

    rows = []
    for runs, n in SIZES:
        per_route: dict[str, list[float]] = {r: [] for r in ("fast", "word_counts", "direct", "check")}
        for _ in range(DESIGNS):
            spec = draw(runs, n)
            matrix = expand(spec)
            if not k_sequence_fast(matrix) == k_from_counts(spec) == k_sequence_direct(matrix):
                print(f"routes disagree on {runs}-run {spec.columns}", file=sys.stderr)
                return None
            calls = {
                "fast": lambda: k_sequence_fast(matrix),
                "word_counts": lambda: k_from_counts(spec),
                "direct": lambda: k_sequence_direct(matrix),
                "check": lambda: (check_conditions(matrix), optimality_gap(matrix)),
            }
            for route, call in calls.items():
                per_route[route].append(median_s(call)[0] * 1e3)
        row = {"runs": runs, "n": n}
        row.update({route: round(statistics.median(ms), 3) for route, ms in per_route.items()})
        rows.append(row)
        print(json.dumps(row), file=sys.stderr)
    return rows


def tasks() -> list[dict]:
    """Median seconds of each end-to-end task, with the fixtures exit codes."""
    from condma import cli
    from condma.catalogs import fixtures
    from condma.search import SearchTask, search_ma, search_within_columns

    def fixtures_verify(runs: int):
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(["fixtures", "--verify", "--runs", str(runs)])

    row16 = next(row for row in fixtures(32) if row.n == 16)
    calls = {
        "search_16_n9_exhaustive": lambda: search_ma(SearchTask(16, 9)),
        "search_32_n9_catalog": lambda: search_ma(SearchTask(32, 9, mode="catalog")),
        "search_32_n10_catalog": lambda: search_ma(SearchTask(32, 10, mode="catalog")),
        "search_32_n10_exhaustive": lambda: search_ma(SearchTask(32, 10)),
        "search_32_n12_catalog_2_workers": lambda: search_ma(SearchTask(32, 12, mode="catalog", workers=2)),
        "within_columns_32_n16": lambda: search_within_columns(32, row16.columns),
        "fixtures_verify_16": lambda: fixtures_verify(16),
        "fixtures_verify_32": lambda: fixtures_verify(32),
    }
    rows = []
    for name, call in calls.items():
        seconds, got = median_s(call)
        row = {"task": name, "median_s": round(seconds, 6)}
        if name.startswith("fixtures"):
            row["exit_code"] = got
        rows.append(row)
        print(json.dumps(row), file=sys.stderr)
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="directory holding condma")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH.json")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    import numpy as np

    route_rows = routes()
    if route_rows is None:
        return 1
    doc = {
        "what": "median of timed calls in one process: ms per design of each K route "
        "and of condma check; wall seconds per end-to-end task, at one worker unless "
        "the task name gives two",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cores": len(os.sched_getaffinity(0)),
        "repeats": REPEATS,
        "routes": {"seed": SEED, "designs_per_size": DESIGNS, "sizes": route_rows},
        "tasks": tasks(),
    }
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

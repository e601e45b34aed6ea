"""Wall time of fixed end-to-end tasks.

Times, in one process, each task as the median of 5 runs after one
warm-up run:

    search_16_n9_exhaustive    search_ma(SearchTask(16, 9))
    search_32_n9_catalog       search_ma(SearchTask(32, 9, mode="catalog"))
    search_32_n10_catalog      search_ma(SearchTask(32, 10, mode="catalog"))
    search_32_n10_exhaustive   search_ma(SearchTask(32, 10))
    within_columns_32_n16      search_within_columns(32, <the 32-run n=16 advisory row>)
    fixtures_verify_16         cli.main(["fixtures", "--verify", "--runs", "16"])
    fixtures_verify_32         cli.main(["fixtures", "--verify", "--runs", "32"])

Searches run at one worker.  The `fixtures` tasks run with stdout
captured, and their exit codes are recorded (the 32-run table exits 1 on
its rows n=11, 12 and 13).  The median seconds go to BENCH_tasks.json at
the repository root, with the Python and numpy versions and the core
count.

Usage, from the repository root:

    python tools/bench_tasks.py [--src DIR] [--out FILE]

`--src` measures another checkout's `src/` on the same tasks.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REPEATS = 5  # timed runs per task, after one warm-up


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="directory holding condma")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_tasks.json")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    import numpy as np

    from condma import cli
    from condma.catalogs import fixtures
    from condma.search import SearchTask, search_ma, search_within_columns

    def fixtures_verify(runs: int):
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(["fixtures", "--verify", "--runs", str(runs)])

    row16 = next(row for row in fixtures(32) if row.n == 16)
    tasks = {
        "search_16_n9_exhaustive": lambda: search_ma(SearchTask(16, 9)),
        "search_32_n9_catalog": lambda: search_ma(SearchTask(32, 9, mode="catalog")),
        "search_32_n10_catalog": lambda: search_ma(SearchTask(32, 10, mode="catalog")),
        "search_32_n10_exhaustive": lambda: search_ma(SearchTask(32, 10)),
        "within_columns_32_n16": lambda: search_within_columns(32, row16.columns),
        "fixtures_verify_16": lambda: fixtures_verify(16),
        "fixtures_verify_32": lambda: fixtures_verify(32),
    }
    rows = []
    for name, task in tasks.items():
        task()
        times = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            got = task()
            times.append(time.perf_counter() - t0)
        row = {"task": name, "median_s": round(statistics.median(times), 6)}
        if name.startswith("fixtures"):
            row["exit_code"] = got
        rows.append(row)
        print(json.dumps(row), file=sys.stderr)
    doc = {
        "what": "median wall seconds per end-to-end task, one process, one worker",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cores": len(os.sched_getaffinity(0)),
        "repeats": REPEATS,
        "tasks": rows,
    }
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Per-design cost of the three K routes and of `condma check`.

For 16-run n=9, 32-run n=9 and 32-run n=13 this draws seeded admissible
regular designs (roles 1, 2, 4, 8 and a random tail), times on each design

    fast        k_sequence_fast(matrix)
    word_counts k_from_counts(spec)
    direct      k_sequence_direct(matrix)
    check       check_conditions(matrix) and optimality_gap(matrix), what
                `condma check` computes for a design given as a matrix

and writes the median milliseconds per design to BENCH_routes.json at the
repository root, with the Python and numpy versions and the core count.
Every route's K must agree on every design, or the script exits 1.

Usage, from the repository root:

    python tools/bench_routes.py [--src DIR] [--out FILE]

`--src` measures another checkout's `src/` on the same designs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIZES = ((16, 9), (32, 9), (32, 13))
DESIGNS = 5  # per size
REPEATS = 7  # timings per route and design
SEED = 0


def draw_spec(rng: random.Random, runs: int, n: int, RegularSpec, check, DesignError):
    """An admissible design with roles (1, 2, 4, 8) and a random tail."""
    pool = [x for x in range(1, runs) if x not in (1, 2, 3, 4, 8, 12)]
    while True:
        try:
            spec = RegularSpec(runs.bit_length() - 1, (1, 2, 4, 8, *rng.sample(pool, n - 4)))
        except DesignError:
            continue
        if check(spec).ok:
            return spec


def median_ms(call) -> float:
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        call()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="directory holding condma")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_routes.json")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    import numpy as np

    from condma.aberration import k_sequence_direct, k_sequence_fast
    from condma.designs import (
        DesignError,
        RegularSpec,
        check_conditions,
        check_conditions_regular,
        expand,
    )
    from condma.modelmat import optimality_gap
    from condma.wordcounts import k_from_counts

    rng = random.Random(SEED)
    sizes = []
    for runs, n in SIZES:
        per_route: dict[str, list[float]] = {r: [] for r in ("fast", "word_counts", "direct", "check")}
        for _ in range(DESIGNS):
            spec = draw_spec(rng, runs, n, RegularSpec, check_conditions_regular, DesignError)
            matrix = expand(spec)
            if not k_sequence_fast(matrix) == k_from_counts(spec) == k_sequence_direct(matrix):
                print(f"routes disagree on {runs}-run {spec.columns}", file=sys.stderr)
                return 1
            per_route["fast"].append(median_ms(lambda: k_sequence_fast(matrix)))
            per_route["word_counts"].append(median_ms(lambda: k_from_counts(spec)))
            per_route["direct"].append(median_ms(lambda: k_sequence_direct(matrix)))
            per_route["check"].append(
                median_ms(lambda: (check_conditions(matrix), optimality_gap(matrix)))
            )
        row = {"runs": runs, "n": n}
        row.update({route: round(statistics.median(ms), 3) for route, ms in per_route.items()})
        sizes.append(row)
        print(json.dumps(row), file=sys.stderr)
    doc = {
        "what": "median ms per design of each K route and of condma check",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cores": len(os.sched_getaffinity(0)),
        "seed": SEED,
        "designs_per_size": DESIGNS,
        "repeats": REPEATS,
        "sizes": sizes,
    }
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

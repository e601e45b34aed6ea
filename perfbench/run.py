"""condma benchmark: table searches, own-columns checks and K evaluation.

Run from the repository root:

    python3 perfbench/run.py --workload tables --seed 1 --seconds 35 --trace 0

Workloads: `tables`, `own-columns`, `evaluate` (see README.md).  With
`--trace 0` the run sets up, builds the workload's inputs from `--seed`,
then runs untraced passes until about `--seconds` seconds of library time
are measured (always whole passes, at least one) and reports the end-to-end
metrics.  With `--trace 1`
it runs one traced pass instead and reports the per-layer metrics; the
spans go to `perfbench/results/trace-<workload>-seed<seed>.json.gz`.

Progress goes to stderr.  The last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}.
It is printed only when the run completes; a run that cannot import condma
from this checkout's `src/` exits with status 1 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_REPEATS = 9


def log(msg: str) -> None:
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def import_library():
    """Import condma from this checkout's src/ only, then the workloads."""
    sys.path.insert(0, str(SRC))
    import condma

    if Path(condma.__file__).resolve().parent != SRC / "condma":
        raise ImportError(f"condma imported from {condma.__file__}, not from {SRC}")
    import spans
    import workloads

    return spans, workloads


def measure_setup() -> float:
    """Median set-up time over fresh processes."""
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, str(HERE / "firstuse.py")],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        times.append(float(out.stdout.split()[-1]))
    return statistics.median(times)


def summarize(ops_per_pass) -> tuple[bool, int, int]:
    ops = [op for ops in ops_per_pass for op in ops]
    correct = all(op.known_fault or not op.failed for op in ops)
    reported = set()
    for op in ops:
        if op.failed and (op.name, tuple(op.problems)) not in reported:
            reported.add((op.name, tuple(op.problems)))
            tag = "known fault" if op.known_fault else "FAILED"
            log(f"{tag}: {op.name}: {'; '.join(op.problems[:3])}")
    return correct, len(ops), sum(op.failed for op in ops)


def untraced(spans, workloads, name: str, seed: int, seconds: int) -> dict:
    tr = spans.NullTracer()
    workloads.first_use(tr)
    wl = workloads.WORKLOADS[name](seed, tr)
    # Measure about `seconds` of library time: the checks of the first pass
    # are not measurement, and later passes reuse their verdicts.
    passes = []
    measured = 0.0
    while True:
        passes.append(wl.run_pass(tr))
        library_s = sum(op.seconds for op in passes[-1])
        measured += library_s
        log(f"{name} pass {len(passes)}: {library_s:.3f} s in the library")
        if measured + library_s > seconds:
            break
    rss_kib = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    setup = measure_setup()
    # Every pass attempts the same operations: a pass's time is the sum over
    # operations of each one's median over the passes, so that a slow spell
    # of the machine during one pass weighs on fewer operations.
    per_op = list(zip(*passes))
    wall = sum(statistics.median(op.seconds for op in same_op) for same_op in per_op)
    cpu = sum(statistics.median(op.cpu for op in same_op) for same_op in per_op)
    raw = sum(op.raw for op in passes[0])
    designs = sum(op.designs for op in passes[0])
    correct, attempted, failed = summarize(passes)
    metrics = {
        "setup_s": (setup, "s"),
        "wall_s": (wall, "s"),
        "cpu_s": (cpu, "s"),
        "peak_rss_mb": (rss_kib / 1024, "MiB"),
        "candidates_per_s": (raw / wall, "1/s"),
        "designs_per_s": (designs / wall, "1/s"),
    }
    return result(correct, attempted, failed, metrics)


def layer_metrics(tr) -> dict:
    totals, counters = tr.totals(), tr.counters

    def mean(span: str, per_ns: float) -> float:
        count, ns = totals.get(span, (0, 0))
        return ns / count * per_ns if count else 0.0

    builds = totals.get("aberration.build", (0, 0))[0]
    blocks = totals.get("aberration.block", (0, 0))[0]
    return {
        "catalogs.load_ms": (mean("catalogs.load", 1e-6), "ms"),
        "designs.spec_us": (mean("designs.spec", 1e-3), "us"),
        "designs.conditions_us": (mean("designs.conditions", 1e-3), "us"),
        "designs.expand_us": (mean("designs.expand", 1e-3), "us"),
        "designs.rejected": (counters.get("designs.rejected", 0), "count"),
        "aberration.build_us": (mean("aberration.build", 1e-3), "us"),
        "aberration.block_us": (mean("aberration.block", 1e-3), "us"),
        "aberration.evaluated": (builds, "count"),
        "aberration.blocks_per_candidate": (blocks / builds, "count"),
        "aberration.fast_ms": (mean("aberration.fast", 1e-6), "ms"),
        "aberration.direct_ms": (mean("aberration.direct", 1e-6), "ms"),
        "wordcounts.counts_ms": (mean("wordcounts.counts", 1e-6), "ms"),
        "modelmat.check_ms": (mean("modelmat.check", 1e-6), "ms"),
        "effects.prior_ms": (mean("effects.prior", 1e-6), "ms"),
        "search.self_s": (counters["search.self_ns"] / 1e9, "s"),
        "search.speedup": (counters["search.replay_ns"] / counters["search.call_ns"], "ratio"),
        "search.ties": (counters["search.ties"], "count"),
    }


def traced(spans, workloads, name: str, seed: int) -> dict:
    tr = spans.Tracer()
    workloads.first_use(tr)
    wl = workloads.WORKLOADS[name](seed, tr)
    p0 = time.perf_counter()
    ops = wl.run_pass(tr)
    log(
        f"{name} traced pass: {time.perf_counter() - p0:.3f} s in all, "
        f"{sum(op.seconds for op in ops):.3f} s in the library calls, {len(tr.name)} spans"
    )
    correct, attempted, failed = summarize([ops])
    path = RESULTS / f"trace-{name}-seed{seed}.json.gz"
    tr.write(path, {"workload": name, "seed": seed})
    log(f"spans written to {path.relative_to(ROOT)}")
    return result(correct, attempted, failed, layer_metrics(tr))


def result(correct: bool, attempted: int, failed: int, metrics: dict) -> dict:
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("tables", "own-columns", "evaluate"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        spans, workloads = import_library()
    except ImportError as exc:
        log(f"cannot import condma from {SRC}: {exc}")
        return 1
    t0 = time.perf_counter()
    if args.trace:
        doc = traced(spans, workloads, args.workload, args.seed)
    else:
        doc = untraced(spans, workloads, args.workload, args.seed, args.seconds)
    log(f"run took {time.perf_counter() - t0:.1f} s")
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(doc) + "\n")
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())

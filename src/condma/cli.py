"""Command-line front end.

Subcommands: evaluate (K-sequence of a design file), check (admissibility
conditions and optimality), counts (word-count families of a regular
design), prior (variance hierarchy for given n and correlation), search
(minimum aberration search), fixtures (list or re-verify the benchmark
tables).

Exit codes: 0 success, 1 validation failure (bad input, unknown flag,
failed verification), 2 internal error.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

import numpy as np

from .aberration import compare_k, entry_labels, k_sequence_fast
from .catalogs import FixtureRow, fixtures
from .designs import (
    DesignError,
    FormatError,
    RegularSpec,
    check_conditions,
    check_conditions_regular,
    expand,
    load_design_file,
)
from .effects import (
    PriorSpec,
    beta_index_bits,
    classify_effect,
    hierarchy_sequence,
    prior_cov_beta_diag,
    variance_formula,
)
from .modelmat import _GAP_TOL, optimality_gap
from .search import SearchResult, SearchTask, search_ma, search_within_columns
from .wordcounts import _FAMILIES, a_counts, a_reduced_sequence


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage by default; 2 is reserved for
    # internal errors here, so downgrade usage problems to 1.
    def error(self, message: str):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _load(path: str) -> tuple[RegularSpec | None, np.ndarray]:
    design = load_design_file(path)
    if isinstance(design, RegularSpec):
        return design, expand(design)
    return None, design


def _print_k(seq, as_json: bool) -> None:
    labels = entry_labels(seq.n)
    aliases = seq.alias_counts()
    if as_json:
        doc = {
            "n": seq.n,
            "N": seq.runs,
            "order": list(labels),
            "values_times_N2": list(seq.values),
        }
        if aliases is not None:
            doc["alias_counts"] = list(aliases)
        print(json.dumps(doc))
        return
    print(f"runs={seq.runs} factors={seq.n}")
    if aliases is not None:
        print(f"{'entry':>8}  {'aliases':>8}  {'N^2*K':>10}")
        for lab, a, v in zip(labels, aliases, seq.values):
            print(f"{lab:>8}  {a:>8}  {v:>10}")
    else:
        print(f"{'entry':>8}  {'N^2*K':>10}")
        for lab, v in zip(labels, seq.values):
            print(f"{lab:>8}  {v:>10}")


def _cmd_evaluate(args) -> int:
    _, matrix = _load(args.file)
    _print_k(k_sequence_fast(matrix), args.json)
    return 0


def _cmd_check(args) -> int:
    spec, matrix = _load(args.file)
    report = check_conditions_regular(spec) if spec is not None else check_conditions(matrix)
    gap = optimality_gap(matrix)
    optimal = report.ok and gap <= _GAP_TOL
    if args.json:
        print(
            json.dumps(
                {
                    "strength2": report.strength2,
                    "triples_12": report.triples_12,
                    "triples_34": report.triples_34,
                    "quad_1234": report.quad_1234,
                    "failures": list(report.failures),
                    "max_gap": gap,
                    "optimal": bool(optimal),
                }
            )
        )
        return 0
    flag = lambda b: "pass" if b else "FAIL"
    print(f"strength-2 projections      {flag(report.strength2)}")
    print(f"triples (F1,F2,Fj)          {flag(report.triples_12)}")
    print(f"triples (F3,F4,Fj)          {flag(report.triples_34)}")
    print(f"quadruple (F1,F2,F3,F4)     {flag(report.quad_1234)}")
    if report.failures:
        print("failing projections:", "; ".join(str(f) for f in report.failures))
    print(f"max |M - N*I| entry: {gap:.3g}")
    print("universally optimal" if optimal else "not certified optimal")
    return 0


def _cmd_counts(args) -> int:
    spec = load_design_file(args.file)
    if not isinstance(spec, RegularSpec):
        raise DesignError("counts needs a regular design given by labels")
    vec = a_counts(spec)
    reduced = a_reduced_sequence(spec)
    if args.json:
        doc = {"n": spec.n, "runs": spec.runs}
        doc.update({name: list(vec.family(name)) for name in _FAMILIES})
        doc["reduced_prefix"] = list(reduced)
        print(json.dumps(doc))
        return 0
    print(f"runs={spec.runs} factors={spec.n}")
    for name in _FAMILIES:
        vals = " ".join(str(v) for v in vec.family(name))
        print(f"{name:>4}: {vals}")
    print("reduced prefix (A1[3], A2[2], A7[1], A1[4], A2[3]):", reduced)
    return 0


def _max_diagonal_deviation(n: int, prior: PriorSpec) -> float:
    """max |diagonal of the beta prior covariance - `variance_formula`| over
    every beta position but the grand mean's.

    Role block q holds the positions q 2**(n-4) + t.  Within a block the
    class is (s, base + popcount(t)), with (s, base) the class of the
    block's t = 0 position, or (0, 0) in block 0, whose t = 0 position is
    the grand mean; so each block needs n-3 scalar variances.
    """
    diag = prior_cov_beta_diag(n, prior).reshape(16, 1 << (n - 4))
    weight = np.bitwise_count(np.arange(1 << (n - 4)))
    want = np.empty_like(diag)
    for q in range(16):
        s, base = classify_effect(beta_index_bits(q << (n - 4), n)) or (0, 0)
        want[q] = np.array([variance_formula(n, s, base + w, prior) for w in range(n - 3)])[weight]
    want[0, 0] = diag[0, 0]  # the grand mean has no class
    return float(np.abs(diag - want).max())


def _cmd_prior(args) -> int:
    """Print the variance ladder.  It strictly decreases for rho > 0 (each
    step divides by 1 + rho, 1/(1 - rho) or 1/(1 - rho**2)), so a float
    ladder that does not is refused: double precision cannot resolve it."""
    if args.n < 4:
        raise ValueError(f"n={args.n}: need n >= 4")
    prior = PriorSpec(rho=args.rho, sigma2=args.sigma2)
    where = f"n={args.n}, rho={args.rho}"
    try:
        ladder = hierarchy_sequence(args.n, prior)
    except OverflowError:
        raise ValueError(f"{where}: the variances overflow double precision") from None
    decreasing = all(a[1] > b[1] for a, b in zip(ladder, ladder[1:]))
    if args.rho > 0 and not decreasing:
        raise ValueError(f"{where}: double precision cannot resolve the strictly decreasing ladder")
    max_dev = _max_diagonal_deviation(args.n, prior) if args.n <= 20 else None
    if args.json:
        print(
            json.dumps(
                {
                    "n": args.n,
                    "rho": args.rho,
                    "sigma2": args.sigma2,
                    "hierarchy": [[s, l, v] for (s, l), v in ladder],
                    "strictly_decreasing": decreasing,
                    "max_diagonal_deviation": max_dev,
                }
            )
        )
        return 0
    print(f"n={args.n} rho={args.rho} sigma2={args.sigma2}")
    print(f"{'class (s,l)':>12}  {'variance':>14}")
    for (s, l), v in ladder:
        print(f"{f'({s},{l})':>12}  {v:>14.10f}")
    print("strictly decreasing:", "yes" if decreasing else "NO")
    if max_dev is not None:
        print(f"max |diagonal - closed form|: {max_dev:.3g}")
    return 0


def _result_doc(res: SearchResult, all_minima: bool) -> dict:
    doc: dict = {
        "found": res.found,
        "candidates_examined": res.candidates_examined,
        "pruned": res.pruned,
        "wall_time": res.wall_time,
    }
    if res.found:
        doc["best_values_times_N2"] = list(res.best_k.values)
        doc["minimizer_count"] = len(res.minimizers)
        shown = res.minimizers if all_minima else res.minimizers[:1]
        doc["minimizers"] = [list(m.columns) for m in shown]
    return doc


def _print_result(res: SearchResult, all_minima: bool) -> None:
    if not res.found:
        print("no admissible design")
        return
    print(f"candidates examined: {res.candidates_examined}  dropped before evaluation: {res.pruned}")
    print(f"wall time: {res.wall_time:.2f}s")
    aliases = " ".join(map(str, res.best_k.alias_counts()))
    print(f"best K (alias-count units): {aliases}")
    print(f"K-equal minimizers: {len(res.minimizers)}")
    shown = res.minimizers if all_minima else res.minimizers[:1]
    for m in shown:
        print("  ", " ".join(str(c) for c in m.columns))
    if not all_minima and len(res.minimizers) > 1:
        print("   (pass --all-minima to list all)")


def _cmd_search(args) -> int:
    task = SearchTask(
        runs=args.runs,
        n=args.factors,
        mode=args.mode,
        catalog_path=args.catalog,
        workers=args.workers,
    )
    res = search_ma(task)
    if args.json:
        doc = {"runs": args.runs, "n": args.factors, "mode": args.mode}
        doc.update(_result_doc(res, args.all_minima))
        print(json.dumps(doc))
    else:
        _print_result(res, args.all_minima)
    return 0


def _printed_difference(row: FixtureRow) -> str:
    """First K entry where an erratum row's printed labelling differs."""
    printed_k, fixed_k = (k_sequence_fast(expand(row.to_spec(printed=p))) for p in (True, False))
    for lab, pv, cv in zip(entry_labels(row.n), printed_k.values, fixed_k.values):
        if pv != cv:
            return f"printed labelling {lab}: {pv} vs corrected {cv}"
    return "printed labelling has the same K"


def _verify_row(row: FixtureRow) -> tuple[str, str]:
    """(outcome, detail); outcome in {ok, mismatch, skipped}.

    An erratum row is verified in its corrected labelling.
    """
    if not row.evaluable:
        return "skipped", "row not evaluable"
    fix_k = k_sequence_fast(expand(row.to_spec()))
    if row.runs == 16:
        res = search_ma(SearchTask(runs=16, n=row.n, mode="exhaustive"))
        scope = "exhaustive search"
    elif row.status == "verified":
        res = search_ma(SearchTask(runs=32, n=row.n, mode="catalog"))
        scope = "catalog search"
    else:
        res = search_within_columns(32, row.columns)
        scope = "reassignments of its own columns"
    if not res.found:
        return "mismatch", "search found no admissible design"
    cmp = compare_k(res.best_k, fix_k)
    if cmp == 0:
        detail = f"K-minimal over {scope}; {len(res.minimizers)} K-equal minimizers"
        return "ok", detail
    side = "beaten by" if cmp < 0 else "beats"  # cmp > 0 cannot happen for a complete search
    return "mismatch", f"row {side} {scope} optimum (see best: {res.minimizers[0].columns})"


def _cmd_fixtures(args) -> int:
    tables = [fixtures(args.runs)] if args.runs else [fixtures(16), fixtures(32)]
    failed = False
    rows_out = []
    for table in tables:
        for row in table:
            line = f"runs={row.runs} n={row.n:2d} {row.labels}"
            if row.corrected is not None:
                line += f" corrected={row.corrected}"
            if row.annotation:
                line += f" [{row.annotation}]"
            line += f" status={row.status}"
            entry = {
                "runs": row.runs,
                "n": row.n,
                "labels": list(row.labels),
                "corrected": None if row.corrected is None else list(row.corrected),
                "annotation": row.annotation,
                "status": row.status,
                "note": row.note,
            }
            if args.verify:
                outcome, detail = _verify_row(row)
                if row.corrected is not None:
                    detail += f"; {_printed_difference(row)}"
                failed = failed or outcome == "mismatch"
                line += f" -> {outcome}: {detail}"
                entry.update({"outcome": outcome, "detail": detail})
            if row.note:
                line += f"  ({row.note})"
            rows_out.append(entry)
            if not args.json:
                print(line)
    if args.json:
        print(json.dumps({"rows": rows_out}))
    return 1 if failed else 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="condma", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("evaluate", help="K-sequence of a design file")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_evaluate)

    p = sub.add_parser("check", help="admissibility conditions and optimality")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("counts", help="word-count families of a regular design")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_counts)

    p = sub.add_parser("prior", help="variance hierarchy for n factors at a given correlation")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--sigma2", type=float, default=1.0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_prior)

    p = sub.add_parser("search", help="minimum aberration search")
    p.add_argument("--runs", type=int, required=True)
    p.add_argument("--factors", type=int, required=True)
    p.add_argument("--mode", choices=("exhaustive", "catalog"), default="exhaustive")
    p.add_argument("--catalog", help="catalog file for --mode catalog (default: bundled)")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--all-minima", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_search)

    p = sub.add_parser("fixtures", help="list or re-verify the benchmark tables")
    p.add_argument("--runs", type=int, choices=(16, 32))
    p.add_argument("--verify", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_fixtures)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (DesignError, FormatError, OSError, ValueError) as exc:
        print(f"condma: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"condma: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

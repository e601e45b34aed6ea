"""Ranking near-saturated designs through their complements.

When n is close to its maximum the column set covers most of the label
space, and the leading alias counts of two competing designs differ by
quantities computable from the few labels LEFT OUT.  The demo compares
designs pairwise both ways: directly, and through the complement-side
counts.  The differences must match entry for entry.

Run:  python demos/05_complement_shortcut.py
"""

from itertools import combinations

import condma
from condma.wordcounts import a_counts, complement_counts


def direct_diffs(a: condma.RegularSpec, b: condma.RegularSpec) -> tuple[int, ...]:
    ca, cb = a_counts(a), a_counts(b)
    pick = lambda c: (c.a1[3], c.a1[4], c.a2[2], c.a7[1])
    return tuple(x - y for x, y in zip(pick(ca), pick(cb)))


def complement_diffs(a: condma.RegularSpec, b: condma.RegularSpec) -> tuple[int, ...]:
    ta, tb = complement_counts(a), complement_counts(b)
    return (
        -(ta.a3_tilde - tb.a3_tilde),
        (ta.a3_tilde + ta.a4_tilde) - (tb.a3_tilde + tb.a4_tilde),
        (ta.a2_12 + ta.a2_34) - (tb.a2_12 + tb.a2_34),
        -(sum(ta.h1) - sum(tb.h1)),
    )


def main() -> None:
    # 16 runs, n = 12: only 3 of the 15 labels are left out of each design.
    runs, n = 16, 12
    pool = [x for x in range(1, runs) if x not in (1, 2, 4, 8)]
    candidates = (condma.RegularSpec(4, (1, 2, 4, 8) + tail) for tail in combinations(pool, n - 4))
    specs = [s for s in candidates if condma.check_conditions_regular(s).ok][:6]
    print(f"{len(specs)} admissible candidates at N = {runs}, n = {n}\n")

    checked = 0
    for a, b in combinations(specs, 2):
        d = direct_diffs(a, b)
        c = complement_diffs(a, b)
        assert d == c, (a.columns, b.columns, d, c)
        checked += 1
    print(f"direct and complement-side differences agree on {checked} pairs")

    a, b = specs[0], specs[1]
    print(f"\nexample pair:\n  {a.columns}\n  {b.columns}")
    print(f"  (dA1[3], dA1[4], dA2[2], dA7[1]) = {direct_diffs(a, b)}")
    few = sorted(set(range(1, runs)) - set(a.columns))
    print(f"  first design leaves out only {few}; the shortcut works off those")


if __name__ == "__main__":
    main()

"""Alias counts of regular designs from label arithmetic alone.

For a regular spec with role columns b1..b4 and ordinary columns b5..bn,
each K entry is a pure count of label subsets whose XOR hits a small
target set.  The families below are indexed by subset size l; pools and
targets (+ denotes XOR):

    A1  : pool {b2, b4, b5..bn},  target {0}
    A21 : pool {b4, b5..bn},      target {b1, b1+b2}
    A22 : pool {b2, b5..bn},      target {b3, b3+b4}
    A31 : pool {b4, b5..bn},      target {0, b2}
    A32 : pool {b2, b5..bn},      target {0, b4}
    A42 : pool {b2, b5..bn},      target {b1+b3, b1+b3+b4}
    A43 : pool {b5..bn},          target {b1+b3, b1+b3+b4}
    A52 : pool {b5..bn},          target {b1+b2+b3, b1+b2+b3+b4}
    A7  : pool {b5..bn},          target {b1+b3, b1+b2+b3, b1+b3+b4,
                                          b1+b2+b3+b4}
    A8  : pool {b5..bn},          target {b1, b3, b1+b2, b1+b4, b2+b3,
                                          b3+b4, b1+b2+b4, b2+b3+b4}

with A2 = A21 + A22 and A3 = A31 + A32.  Size-0 counts follow the
`gf2.subset_sum_count` convention: 1 exactly when 0 is a target (so A1,
A31 and A32 start at 1); sizes past the pool are 0.

The families use only four pools: the tail b5..bn with b2, b4, both or
neither added.  `a_counts` builds their subset-sum tables together
(`gf2.subset_sum_layers`) and reads every family, size and target from
them at once, so each count is exact at any size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gf2
from .aberration import KSequence
from .designs import RegularSpec

__all__ = [
    "CountVectors",
    "a_counts",
    "k_from_counts",
    "a_reduced_sequence",
    "ComplementCounts",
    "complement_counts",
    "full_wordlength",
]

_FAMILIES = ("a1", "a21", "a22", "a2", "a31", "a32", "a3", "a42", "a43", "a52", "a7", "a8")


@dataclass(frozen=True)
class CountVectors:
    """The alias-count families of one regular spec, each indexed by l."""

    n: int
    a1: tuple[int, ...]
    a21: tuple[int, ...]
    a22: tuple[int, ...]
    a31: tuple[int, ...]
    a32: tuple[int, ...]
    a42: tuple[int, ...]
    a43: tuple[int, ...]
    a52: tuple[int, ...]
    a7: tuple[int, ...]
    a8: tuple[int, ...]

    @property
    def a2(self) -> tuple[int, ...]:
        return tuple(x + y for x, y in zip(self.a21, self.a22))

    @property
    def a3(self) -> tuple[int, ...]:
        return tuple(x + y for x, y in zip(self.a31, self.a32))

    def family(self, name: str) -> tuple[int, ...]:
        if name not in _FAMILIES:
            raise KeyError(f"unknown family {name!r}")
        return getattr(self, name)


def _pools_targets(columns: tuple[int, ...]) -> dict[str, tuple[list[int], list[int]]]:
    b1, b2, b3, b4 = columns[:4]
    tail = list(columns[4:])
    return {
        "a1": ([b2, b4, *tail], [0]),
        "a21": ([b4, *tail], [b1, b1 ^ b2]),
        "a22": ([b2, *tail], [b3, b3 ^ b4]),
        "a31": ([b4, *tail], [0, b2]),
        "a32": ([b2, *tail], [0, b4]),
        "a42": ([b2, *tail], [b1 ^ b3, b1 ^ b3 ^ b4]),
        "a43": (tail, [b1 ^ b3, b1 ^ b3 ^ b4]),
        "a52": (tail, [b1 ^ b2 ^ b3, b1 ^ b2 ^ b3 ^ b4]),
        "a7": (tail, [b1 ^ b3, b1 ^ b2 ^ b3, b1 ^ b3 ^ b4, b1 ^ b2 ^ b3 ^ b4]),
        "a8": (
            tail,
            [b1, b3, b1 ^ b2, b1 ^ b4, b2 ^ b3, b3 ^ b4, b1 ^ b2 ^ b4, b2 ^ b3 ^ b4],
        ),
    }


def _family_counts(spec: RegularSpec) -> dict[str, list[int]]:
    """Each family's counts at sizes -1..n-1, size l at index l + 1.

    Sizes outside a family's pool count 0, so the K formulas index these
    lists without bounds checks.
    """
    cols = spec.columns
    layers = gf2.subset_sum_layers(cols[4:], (cols[1], cols[3]), spec.r)
    layer_of: list[int] = []
    target_of: list[int] = []
    starts: list[int] = []
    families = _pools_targets(cols)
    for pool, targets in families.values():
        targets = set(targets)
        starts.append(len(target_of))
        layer_of += [(cols[1] in pool) | (cols[3] in pool) << 1] * len(targets)
        target_of += targets
    rows = layers[layer_of, :, target_of]
    # Distinct targets count disjoint subsets, so a family's sum stays
    # within its row's total and is exact in the table's dtype.
    sums = np.add.reduceat(rows, starts).tolist()
    return {name: [0, *row, 0] for name, row in zip(families, sums)}


def a_counts(spec: RegularSpec) -> CountVectors:
    """All count families of a spec, each for l = 0..pool size."""
    counts = _family_counts(spec)
    vectors = {
        name: tuple(counts[name][1 : len(pool) + 2])
        for name, (pool, _) in _pools_targets(spec.columns).items()
    }
    return CountVectors(spec.n, **vectors)


def k_from_counts(spec: RegularSpec) -> KSequence:
    """K sequence of a regular spec assembled from the count families.

    Assumes the admissibility conditions: independence of the four role
    columns keeps every family's target set collision-free, which the
    count decomposition relies on.  Per l (counts in alias units, scaled
    by N**2 for storage):

      K_0l(0) = (l+1) A1[l+1] + (n-l-1) A1[l-1]
      K_0l(1) = A2[l-1] + A2[l]
      K_1l(0) = (n-l-1) A2[l-2] + A2[l-1] + l A2[l]
      K_1l(1) = 2 A3[l-1] + 2 (A42[l-1] + A43[l-2] + A52[l-1])
      K_2l(0) = 2 A7[l-2] + (n-l-1) A7[l-3] + (l-1) A7[l-1]
      K_2l(1) = 2 A8[l-2]
    """
    c = _family_counts(spec)
    n = spec.n
    a1, a42, a43, a52, a7, a8 = c["a1"], c["a42"], c["a43"], c["a52"], c["a7"], c["a8"]
    a2 = [x + y for x, y in zip(c["a21"], c["a22"])]
    a3 = [x + y for x, y in zip(c["a31"], c["a32"])]
    nsq = spec.runs * spec.runs
    values: list[int] = []
    for l in range(2, n - 1):
        i = l + 1  # index of size l
        values.append((l + 1) * a1[i + 1] + (n - l - 1) * a1[i - 1])
        values.append(a2[i - 1] + a2[i])
        values.append((n - l - 1) * a2[i - 2] + a2[i - 1] + l * a2[i])
        values.append(2 * a3[i - 1] + 2 * (a42[i - 1] + a43[i - 2] + a52[i - 1]))
        values.append(2 * a7[i - 2] + (n - l - 1) * a7[i - 3] + (l - 1) * a7[i - 1])
        values.append(2 * a8[i - 2])
    return KSequence(spec.runs, n, tuple(v * nsq for v in values))


def a_reduced_sequence(spec: RegularSpec) -> tuple[int, int, int, int, int]:
    """(A1[3], A2[2], A7[1], A1[4], A2[3]): the short ranking prefix.

    For admissible designs, lexicographic order on this tuple agrees with
    the K-sequence order on the leading entries; it is a cheap pre-filter,
    never the final criterion.
    """
    c = _family_counts(spec)  # size l at index l + 1
    a2 = [x + y for x, y in zip(c["a21"], c["a22"])]
    return (c["a1"][4], a2[3], c["a7"][2], c["a1"][5], a2[4])


@dataclass(frozen=True)
class ComplementCounts:
    """Variable parts of the complement-set identities for one spec.

    With D the whole label space minus the pool {b2, b4, b5..bn} (written
    tilde below), up to constants depending only on (r, n):

      A1[3] = const - a3_tilde
      A1[4] = const + a3_tilde + a4_tilde
      A2[2] = const + a2_12 + a2_34
      A7[1] = const - (h1 terms summed)

    a2_12 counts pairs in tilde minus {b1, b1+b2} hitting {b1, b1+b2};
    a2_34 the same for the second pair.  h1 flags which of the four A7
    targets avoid the ordinary columns.  Only differences between two
    specs of equal (r, n) are meaningful; the constants are never built.
    """

    r: int
    n: int
    a3_tilde: int
    a4_tilde: int
    a2_12: int
    a2_34: int
    h1: tuple[int, int, int, int]


def complement_counts(spec: RegularSpec) -> ComplementCounts:
    """Complement-side counts feeding the difference identities."""
    b1, b2, b3, b4 = spec.columns[:4]
    everything = set(range(1, spec.runs))
    tilde = sorted(everything - {b2, b4, *spec.columns[4:]})
    t12 = sorted(set(tilde) - {b1, b1 ^ b2})
    t34 = sorted(set(tilde) - {b3, b3 ^ b4})
    t_full = everything - set(spec.columns[4:])
    targets7 = [b1 ^ b3, b1 ^ b2 ^ b3, b1 ^ b3 ^ b4, b1 ^ b2 ^ b3 ^ b4]
    return ComplementCounts(
        r=spec.r,
        n=spec.n,
        a3_tilde=gf2.subset_sum_count(tilde, [0], 3),
        a4_tilde=gf2.subset_sum_count(tilde, [0], 4),
        a2_12=gf2.subset_sum_count(t12, [b1, b1 ^ b2], 2),
        a2_34=gf2.subset_sum_count(t34, [b3, b3 ^ b4], 2),
        h1=tuple(int(t in t_full) for t in targets7),
    )


def full_wordlength(spec: RegularSpec) -> tuple[int, ...]:
    """Classic wordlength pattern (A_3..A_n) over the whole column set."""
    return tuple(gf2.subset_sum_table(spec.columns, spec.r)[3:, 0].tolist())

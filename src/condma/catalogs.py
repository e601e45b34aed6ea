"""Design catalogs and the published benchmark tables.

A catalog file lists one representative per equivalence class of regular
two-level designs for a fixed run size.  Catalogs for 16 and 32 runs ship
with the package (see ``tools/gen_catalogs.py`` for how they were built);
custom catalogs in the same format can be supplied to the search engine.

Format::

    # comment
    N r            <- header: run size and number of basic factors
    n: c1 c2 ... cn

Each entry must be a valid `RegularSpec`: at least five distinct labels
in [1, 2^r - 1] that span the full r-dimensional space, with 2 <= r <= 16.

The module also carries the two benchmark tables of minimum aberration
designs (16 and 32 runs) used by the acceptance suite and the
``fixtures`` CLI command.  Rows are stored verbatim, in printed column
order, with their annotations.  A row's status says how far the package
re-verifies it: ``verified`` rows are reproduced by a fresh search,
``advisory`` rows are only checked against reassignments of their own
columns (or, for the 32-run n=15 row, not evaluable at all: it contains
the label 32, outside the valid range).

Three rows carry an erratum: a ``corrected`` labelling beside the printed
``labels``, with a ``note`` saying what the misprint is.  Each correction
is a single demonstrable slip, one within-pair transposition or one
substituted label, and the printed labelling's ``K`` is strictly worse
than the corrected one's:

* 16-run n=9 prints its first pair transposed, ``(2, 4, ...)`` for
  ``(4, 2, ...)``;
* 32-run n=6 prints label 15 for 16, which turns the resolution-VI half
  fraction into a resolution-V design;
* 32-run n=14 prints its second pair transposed, ``(7, 11)`` for ``(11, 7)``.

``labels`` always stays the printed tuple; ``columns`` and ``to_spec()``
give the labelling the package evaluates and searches.  Rows no misprint
explains (32-run n=11, 12 and 13) carry no erratum.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from importlib import resources
from pathlib import Path

from .designs import DesignError, FormatError, RegularSpec


@dataclass(frozen=True)
class CatalogFile:
    """Parsed catalog: run size, rank, and (n, labels) entries."""

    runs: int
    r: int
    entries: tuple[tuple[int, tuple[int, ...]], ...]

    def designs_for(self, n: int) -> tuple[tuple[int, ...], ...]:
        """All catalog column sets with exactly `n` columns."""
        return tuple(labels for m, labels in self.entries if m == n)


def parse_catalog(path: str | Path) -> CatalogFile:
    """Read and validate a catalog file.

    Raises FormatError naming the offending line for malformed input, a
    label count that differs from n, an entry `RegularSpec` refuses, and
    duplicated entries (same column set).
    """
    path = Path(path)
    header: tuple[int, int] | None = None
    entries: list[tuple[int, tuple[int, ...]]] = []
    seen: set[frozenset[int]] = set()
    with path.open() as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if header is None:
                parts = line.split()
                try:
                    runs, r = (int(p) for p in parts)
                except ValueError:
                    raise FormatError(f"{path}:{lineno}: header must be 'N r'") from None
                # Compare without shifting: a negative r cannot be shifted,
                # and a huge one would build a huge integer.
                if runs < 1 or runs & (runs - 1) or runs.bit_length() - 1 != r:
                    raise FormatError(f"{path}:{lineno}: run size {runs} is not 2^{r}")
                header = (runs, r)
                continue
            if ":" not in line:
                raise FormatError(f"{path}:{lineno}: expected 'n: labels'")
            left, right = line.split(":", 1)
            try:
                n = int(left)
                labels = tuple(int(tok) for tok in right.split())
            except ValueError as exc:
                raise FormatError(f"{path}:{lineno}: {exc}") from None
            if len(labels) != n:
                raise FormatError(f"{path}:{lineno}: {len(labels)} labels, expected {n}")
            try:
                RegularSpec(header[1], labels)
            except DesignError as exc:
                raise FormatError(f"{path}:{lineno}: {exc}") from None
            key = frozenset(labels)
            if key in seen:
                raise FormatError(f"{path}:{lineno}: duplicate entry")
            seen.add(key)
            entries.append((n, labels))
    if header is None:
        raise FormatError(f"{path}: empty catalog")
    return CatalogFile(runs=header[0], r=header[1], entries=tuple(entries))


_BUNDLED = {16: "n16.cat", 32: "n32.cat"}


@cache
def bundled_catalog(runs: int) -> CatalogFile:
    """Load the catalog shipped with the package for 16 or 32 runs.

    Parsed once per process and shared: a `CatalogFile` is frozen and
    holds only tuples.
    """
    try:
        name = _BUNDLED[runs]
    except KeyError:
        raise FormatError(f"no bundled catalog for {runs} runs") from None
    with resources.as_file(resources.files("condma").joinpath("data", name)) as path:
        return parse_catalog(path)


@dataclass(frozen=True)
class FixtureRow:
    """One benchmark table row, stored verbatim in printed column order.

    ``corrected`` is set only for a row with a demonstrable misprint; it
    is the labelling the package evaluates in place of ``labels``.
    """

    runs: int
    n: int
    labels: tuple[int, ...]
    annotation: str = ""
    status: str = "verified"
    note: str = ""
    corrected: tuple[int, ...] | None = None

    @property
    def columns(self) -> tuple[int, ...]:
        """The labelling evaluated: the erratum's if any, else the printed one."""
        return self.labels if self.corrected is None else self.corrected

    @property
    def evaluable(self) -> bool:
        """True exactly when `to_spec()` builds a valid design."""
        try:
            self.to_spec()
        except DesignError:
            return False
        return True

    def to_spec(self, printed: bool = False) -> RegularSpec:
        """Build the design with the first four columns in the roles.

        Uses ``columns``; ``printed=True`` builds the printed labelling.
        """
        r = self.runs.bit_length() - 1
        return RegularSpec(r=r, columns=self.labels if printed else self.columns)


FIXTURES_16: tuple[FixtureRow, ...] = (
    FixtureRow(16, 5, (1, 2, 4, 8, 15)),
    FixtureRow(16, 6, (1, 8, 2, 4, 7, 11)),
    FixtureRow(16, 7, (1, 2, 4, 8, 7, 11, 13)),
    FixtureRow(16, 8, (1, 2, 4, 8, 7, 11, 13, 14)),
    FixtureRow(
        16,
        9,
        (2, 4, 8, 3, 1, 5, 9, 14, 15),
        note="first pair printed transposed; columns 1 and 2 swapped",
        corrected=(4, 2, 8, 3, 1, 5, 9, 14, 15),
    ),
    FixtureRow(16, 10, (1, 6, 2, 8, 4, 3, 5, 9, 14, 15)),
    FixtureRow(16, 11, (4, 8, 5, 10, 1, 2, 3, 6, 9, 13, 14)),
    FixtureRow(16, 12, (2, 5, 6, 10, 1, 4, 8, 3, 9, 13, 14, 15)),
)

FIXTURES_32: tuple[FixtureRow, ...] = (
    FixtureRow(
        32,
        6,
        (1, 2, 4, 8, 15, 31),
        note="label 15 printed for 16; as printed, columns 1 to 5 form a defining word: resolution V",
        corrected=(1, 2, 4, 8, 16, 31),
    ),
    FixtureRow(32, 7, (1, 8, 16, 7, 2, 4, 27)),
    FixtureRow(32, 8, (4, 16, 7, 29, 1, 2, 8, 11)),
    FixtureRow(32, 9, (1, 4, 7, 29, 2, 8, 16, 11, 19)),
    FixtureRow(32, 10, (4, 8, 7, 19, 1, 2, 16, 11, 29, 30)),
    FixtureRow(32, 11, (16, 11, 14, 19, 1, 2, 4, 8, 7, 13, 21), annotation="*2"),
    FixtureRow(32, 12, (16, 11, 13, 19, 1, 2, 4, 8, 7, 14, 21, 22), annotation="*2"),
    FixtureRow(32, 13, (16, 11, 13, 19, 1, 2, 4, 8, 7, 14, 21, 22, 25), status="advisory"),
    FixtureRow(
        32,
        14,
        (1, 4, 7, 11, 2, 8, 16, 13, 14, 19, 21, 22, 25, 26),
        status="advisory",
        note="second pair printed transposed; columns 3 and 4 swapped",
        corrected=(1, 4, 11, 7, 2, 8, 16, 13, 14, 19, 21, 22, 25, 26),
    ),
    FixtureRow(
        32,
        15,
        (1, 2, 4, 8, 16, 32, 7, 11, 13, 14, 19, 22, 25, 26, 28),
        status="advisory",
        note="label 32 outside [1, 31]; stored verbatim, not evaluable (suspected misprint)",
    ),
    FixtureRow(32, 16, (1, 2, 4, 8, 16, 7, 11, 13, 14, 19, 21, 22, 25, 26, 28, 31), status="advisory"),
)


def fixtures(runs: int) -> tuple[FixtureRow, ...]:
    if runs == 16:
        return FIXTURES_16
    if runs == 32:
        return FIXTURES_32
    raise FormatError(f"no fixture table for {runs} runs")

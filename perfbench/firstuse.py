"""Time what a user waits for before the first result, in a fresh process.

Set-up is importing condma, parsing both bundled catalogs and the first K
evaluation (the 16-run n=9 exhaustive search).  Prints the seconds taken,
counted from the start of this script, so interpreter start-up is left out.
`run.py` starts this script several times and reports the median.
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import condma  # noqa: E402
from condma.catalogs import bundled_catalog  # noqa: E402
from condma.search import SearchTask, search_ma  # noqa: E402

if Path(condma.__file__).resolve().parent != SRC / "condma":
    sys.exit(f"condma imported from {condma.__file__}, not from {SRC}")
bundled_catalog(16)
bundled_catalog(32)
if not search_ma(SearchTask(runs=16, n=9)).found:
    sys.exit("the 16-run n=9 search found no design")
print(time.perf_counter() - T0)

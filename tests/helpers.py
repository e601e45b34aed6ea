"""Shared helpers for the test suite."""

import importlib.util
import random
from pathlib import Path

import numpy as np

from condma.designs import DesignError, RegularSpec, _assignment_mask, check_conditions_regular

TOOLS_DIR = Path(__file__).resolve().parent.parent / "tools"


def random_valid_spec(rng: random.Random, r: int, n: int) -> RegularSpec:
    """A random constructible spec: distinct labels spanning rank r."""
    labels = list(range(1, 1 << r))
    while True:
        rng.shuffle(labels)
        try:
            return RegularSpec(r=r, columns=tuple(labels[:n]))
        except DesignError:
            continue


def random_admissible_spec(rng: random.Random, r: int, n: int) -> RegularSpec:
    """A random spec passing all four admissibility conditions."""
    while True:
        spec = random_valid_spec(rng, r, n)
        if check_conditions_regular(spec).ok:
            return spec


def wide_spec() -> RegularSpec:
    """65,536 runs, n=300, roles (1, 2, 4, 8): its subset-sum layers would
    hold 4 x 299 x 2**16 (78M) entries."""
    powers = tuple(1 << i for i in range(16))
    others = [x for x in range(3, 1 << 16) if x & (x - 1)]
    return RegularSpec(r=16, columns=powers + tuple(others[: 300 - len(powers)]))


def label_mask(r: int, labels: np.ndarray) -> np.ndarray:
    """Label-level admissibility of a (rows, n) array of label tuples: each
    row builds a `RegularSpec(r, ...)` and, as its own design under the
    identity index, passes `_assignment_mask`."""
    valid = np.zeros(len(labels), dtype=bool)
    for i, row in enumerate(labels.tolist()):
        try:
            RegularSpec(r, tuple(row))
        except DesignError:
            continue
        valid[i] = True
    mask = np.zeros(len(labels), dtype=bool)
    mask[valid] = _assignment_mask(labels[valid], np.arange(labels.shape[1])[None]).ravel()
    return mask


def load_catalog_generator():
    """Import tools/gen_catalogs.py (not an installed module)."""
    path = TOOLS_DIR / "gen_catalogs.py"
    module_spec = importlib.util.spec_from_file_location("gen_catalogs", path)
    module = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(module)
    return module

"""Effect parametrizations for the conditional two-pair model.

Cell means tau live on the full 2**n grid, indexed lexicographically by
bits (i1, ..., in) with i1 slowest.  The orthogonal-component vector theta
satisfies tau = H^{(x) n} theta with H = [[1, 1], [1, -1]].

The conditional parametrization beta keeps, for each conditional factor
(columns 1 and 3), the within-level effects of its conditioning partner
(columns 2 and 4) instead of the marginal/interaction pair.  beta is
obtained from tau by a fixed 16 x 16 mixing matrix W on the first four
index positions and plain H factors on the rest:

    beta = 2**-n (W (x) H^{(x) (n-4)}) tau,       W W^T = 16 I.

Index convention for beta: position = q * 2**(n-4) + t, where t runs over
the ordinary-factor bits (j5..jn, j5 most significant) and q = 4*blk +
2*j2 + j4 with blk encoding (j1, j3) as (0,0), (1,0), (0,1), (1,1).

Effects are graded into classes (s, l): s counts conditional factors
present (j1 + j3), and l counts active non-free positions; the
conditioning bit paired with an active conditional factor is "free" and
does not add to l.  Under an exchangeable two-level prior with correlation
rho on tau, every class-(s, l) component of beta has prior variance

    sigma^2 2**-n (1+rho)^(n-l-s) (1-rho)^l,

strictly decreasing along the ladder (0,1), (1,1), (0,2), (1,2), (2,2),
(0,3), ...  The ratio across the step (2,l) -> (0,l+1) is 1/(1-rho^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "H2",
    "PriorSpec",
    "build_w",
    "classify_effect",
    "beta_index_bits",
    "tau_to_beta",
    "beta_to_theta",
    "theta_to_tau",
    "prior_cov_beta",
    "prior_cov_beta_diag",
    "variance_formula",
    "hierarchy_sequence",
]

H2 = np.array([[1.0, 1.0], [1.0, -1.0]])

_H0 = np.array([[1.0, 1.0]])
_H1 = np.array([[1.0, -1.0]])

# (j1, j3) per 4-row block of W.
_BLOCK_J13 = ((0, 0), (1, 0), (0, 1), (1, 1))


@dataclass(frozen=True)
class PriorSpec:
    """Exchangeable cell-mean prior: variance sigma2, level correlation rho."""

    rho: float
    sigma2: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.rho < 1.0:
            raise ValueError(f"rho={self.rho} outside [0, 1)")
        if not 0.0 < self.sigma2 < math.inf:
            raise ValueError(f"sigma2={self.sigma2} must be positive and finite")


def _kron_all(*mats: np.ndarray) -> np.ndarray:
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


def build_w() -> np.ndarray:
    """The 16 x 16 mixing matrix W for the four role columns.

    Row blocks, top to bottom (sqrt(2) keeps W W^T = 16 I):

        H(0) (x) H        (x) H(0) (x) H
        H(1) (x) sqrt2*I2 (x) H(0) (x) H
        H(0) (x) H        (x) H(1) (x) sqrt2*I2
        H(1) (x) sqrt2*I2 (x) H(1) (x) sqrt2*I2
    """
    s2i = np.sqrt(2.0) * np.eye(2)
    return np.vstack(
        [
            _kron_all(_H0, H2, _H0, H2),
            _kron_all(_H1, s2i, _H0, H2),
            _kron_all(_H0, H2, _H1, s2i),
            _kron_all(_H1, s2i, _H1, s2i),
        ]
    )


def classify_effect(bits: tuple[int, ...]) -> tuple[int, int] | None:
    """Class (s, l) of an effect given its bits (j1..jn); None = grand mean.

    s = number of conditional factors active (j1 + j3).  l counts active
    positions except that the conditioning bit (j2 or j4) paired with an
    active conditional factor is free: it selects a component rather than
    deepening the interaction.
    """
    if len(bits) < 4:
        raise ValueError("need at least 4 bits")
    if any(b not in (0, 1) for b in bits):
        raise ValueError("bits must be 0/1")
    if not any(bits):
        return None
    j1, j2, j3, j4 = bits[:4]
    wtail = sum(bits[4:])
    if j1 == 0 and j3 == 0:
        return 0, j2 + j4 + wtail
    if j1 == 1 and j3 == 0:
        return 1, 1 + j4 + wtail
    if j1 == 0 and j3 == 1:
        return 1, 1 + j2 + wtail
    return 2, 2 + wtail


def beta_index_bits(pos: int, n: int) -> tuple[int, ...]:
    """Bits (j1..jn) addressed by flat beta position `pos`."""
    if n < 4:
        raise ValueError("need n >= 4")
    tail_width = n - 4
    q, t = divmod(pos, 1 << tail_width)
    if not 0 <= q < 16:
        raise ValueError(f"position {pos} out of range for n={n}")
    j1, j3 = _BLOCK_J13[q >> 2]
    j2 = (q >> 1) & 1
    j4 = q & 1
    tail = tuple((t >> (tail_width - 1 - k)) & 1 for k in range(tail_width))
    return (j1, j2, j3, j4, *tail)


def _hadamard_last_axis(block: np.ndarray) -> np.ndarray:
    """Multiply by H^{(x) m} along the last axis (length 2**m)."""
    width = block.shape[-1]
    y = np.array(block, dtype=np.float64)
    h = 1
    while h < width:
        y = y.reshape(*y.shape[:-1], -1, 2, h)
        y = np.concatenate([y[..., 0:1, :] + y[..., 1:2, :], y[..., 0:1, :] - y[..., 1:2, :]], axis=-2)
        y = y.reshape(*y.shape[:-3], width)
        h *= 2
    return y


def tau_to_beta(tau: np.ndarray, n: int) -> np.ndarray:
    """Apply 2**-n (W (x) H^{(x)(n-4)}) to a cell-mean vector.

    Factor-at-a-time: one 16 x 16 product plus a fast Hadamard pass,
    O(n 2**n) time, never materializing the big Kronecker matrix.
    """
    nu = 1 << n
    vec = np.asarray(tau, dtype=np.float64).reshape(16, -1)
    if vec.size != nu:
        raise ValueError(f"tau must have length 2**{n}")
    out = _w() @ vec
    out = _hadamard_last_axis(out)
    return out.reshape(nu) / nu


def theta_to_tau(theta: np.ndarray, n: int) -> np.ndarray:
    """Apply H^{(x) n}: orthogonal components back to cell means."""
    vec = np.asarray(theta, dtype=np.float64).reshape(1, -1)
    if vec.size != 1 << n:
        raise ValueError(f"theta must have length 2**{n}")
    return _hadamard_last_axis(vec).reshape(-1)


def beta_to_theta(beta: np.ndarray, n: int) -> np.ndarray:
    """Rewrite conditional components as orthogonal components.

    Identity on effects with no conditional factor; a length-2 rotation
    by 1/sqrt2 per active conditional factor otherwise.
    """
    tail = 1 << (n - 4)
    be = np.asarray(beta, dtype=np.float64).reshape(4, 2, 2, tail)
    if be.size != 1 << n:
        raise ValueError(f"beta must have length 2**{n}")
    th = np.empty((2, 2, 2, 2, tail))
    s2 = np.sqrt(2.0)
    for j2 in (0, 1):
        d2 = 1.0 - 2.0 * j2
        for j4 in (0, 1):
            d4 = 1.0 - 2.0 * j4
            th[0, j2, 0, j4] = be[0, j2, j4]
            th[1, j2, 0, j4] = (be[1, 0, j4] + d2 * be[1, 1, j4]) / s2
            th[0, j2, 1, j4] = (be[2, j2, 0] + d4 * be[2, j2, 1]) / s2
            th[1, j2, 1, j4] = (
                be[3, 0, 0] + d4 * be[3, 0, 1] + d2 * be[3, 1, 0] + d2 * d4 * be[3, 1, 1]
            ) / 2.0
    return th.reshape(-1)


@lru_cache(maxsize=1)
def _w() -> np.ndarray:
    """`build_w()`, built once, read-only."""
    w = build_w()
    w.setflags(write=False)
    return w


@lru_cache(maxsize=32)
def _core_and_tail(prior: PriorSpec) -> tuple[np.ndarray, np.ndarray]:
    """W R4 W^T and H R H for the prior, read-only, cached per prior."""
    rho = prior.rho
    r2 = np.array([[1.0, rho], [rho, 1.0]])
    w = _w()
    core = w @ _kron_all(r2, r2, r2, r2) @ w.T
    hrh = H2 @ r2 @ H2  # = 2 diag(1+rho, 1-rho)
    core.setflags(write=False)
    hrh.setflags(write=False)
    return core, hrh


def prior_cov_beta(n: int, prior: PriorSpec) -> np.ndarray:
    """Full prior covariance of beta, sigma2 2**-2n (W R4 W^T) (x) (HRH)^{..}.

    Materializes a 2**n x 2**n matrix; guarded to n <= 12.
    """
    if n > 12:
        raise ValueError("full covariance is limited to n <= 12; use the diagonal")
    if n < 4:
        raise ValueError("need n >= 4")
    core, hrh = _core_and_tail(prior)
    out = core
    for _ in range(n - 4):
        out = np.kron(out, hrh)
    return prior.sigma2 / float(1 << n) ** 2 * out


def prior_cov_beta_diag(n: int, prior: PriorSpec) -> np.ndarray:
    """Diagonal of `prior_cov_beta`, O(n 2**n); usable to n <= 20."""
    if n > 20:
        raise ValueError("diagonal is limited to n <= 20")
    if n < 4:
        raise ValueError("need n >= 4")
    core, hrh = _core_and_tail(prior)
    diag = np.diag(core).copy()
    tail_diag = np.diag(hrh)
    for _ in range(n - 4):
        diag = np.kron(diag, tail_diag)
    return prior.sigma2 / float(1 << n) ** 2 * diag


def variance_formula(n: int, s: int, l: int, prior: PriorSpec) -> float:
    """Prior variance of a class-(s, l) beta component; OverflowError from
    n = 1024, raised by 2.0**n without building the n-bit integer 1 << n."""
    if n < 0:
        raise ValueError(f"n={n}: need n >= 0")
    rho = prior.rho
    return prior.sigma2 / 2.0**n * (1.0 + rho) ** (n - l - s) * (1.0 - rho) ** l


def hierarchy_sequence(n: int, prior: PriorSpec) -> list[tuple[tuple[int, int], float]]:
    """Class variances in ladder order (0,1), (1,1), then (0,l),(1,l),(2,l).

    The returned values are strictly decreasing for rho in (0, 1).
    """
    out = [((0, 1), variance_formula(n, 0, 1, prior)), ((1, 1), variance_formula(n, 1, 1, prior))]
    for l in range(2, n - 1):
        for s in (0, 1, 2):
            out.append(((s, l), variance_formula(n, s, l, prior)))
    return out

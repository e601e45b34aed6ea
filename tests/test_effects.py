import tracemalloc

import numpy as np
import pytest

from condma import effects
from condma.effects import (
    PriorSpec,
    beta_index_bits,
    beta_to_theta,
    build_w,
    classify_effect,
    hierarchy_sequence,
    prior_cov_beta,
    prior_cov_beta_diag,
    tau_to_beta,
    theta_to_tau,
    variance_formula,
)


def test_prior_spec_validation():
    PriorSpec(rho=0.0)
    with pytest.raises(ValueError):
        PriorSpec(rho=1.0)
    with pytest.raises(ValueError):
        PriorSpec(rho=-0.1)
    with pytest.raises(ValueError):
        PriorSpec(rho=0.5, sigma2=0.0)
    for sigma2 in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match="finite"):
            PriorSpec(rho=0.5, sigma2=sigma2)


def test_classify_effect():
    assert classify_effect((0, 0, 0, 0, 0)) is None
    assert classify_effect((0, 1, 0, 0, 0)) == (0, 1)
    assert classify_effect((1, 1, 0, 0, 0)) == (1, 1)
    # both conditional factors active, j4 free, one ordinary factor
    assert classify_effect((1, 0, 1, 1, 1)) == (2, 3)
    assert classify_effect((0, 0, 1, 0, 0)) == (1, 1)
    assert classify_effect((0, 1, 0, 1, 1)) == (0, 3)
    with pytest.raises(ValueError):
        classify_effect((1, 0, 1))
    with pytest.raises(ValueError):
        classify_effect((2, 0, 0, 0, 0))


def test_class_sizes_partition_all_effects():
    # every nonzero bit pattern lands in exactly one class; totals per
    # class match the counting formulas used by the variance statements
    from collections import Counter
    from math import comb

    n = 7
    sizes = Counter()
    for pos in range(1, 1 << n):
        sizes[classify_effect(beta_index_bits(pos, n))] += 1
    for l in range(1, n - 1):
        assert sizes[(0, l)] == comb(n - 2, l)
        assert sizes[(1, l)] == 4 * comb(n - 3, l - 1)
        if l >= 2:
            assert sizes[(2, l)] == 4 * comb(n - 4, l - 2)


def test_build_w():
    w = build_w()
    assert w.shape == (16, 16)
    assert np.array_equal(w[0], np.ones(16))
    assert np.allclose(w @ w.T, 16 * np.eye(16), atol=1e-12)


def test_constant_response_gives_pure_grand_mean():
    n = 6
    beta = tau_to_beta(np.ones(1 << n), n)
    assert beta[0] == pytest.approx(1.0)
    assert np.allclose(beta[1:], 0.0, atol=1e-12)


def test_round_trip_tau_beta_theta():
    rng = np.random.default_rng(5)
    for n in (4, 5, 7):
        tau = rng.normal(size=1 << n)
        beta = tau_to_beta(tau, n)
        theta = beta_to_theta(beta, n)
        back = theta_to_tau(theta, n)
        assert np.allclose(back, tau, atol=1e-10)


def effects_pos(bits, n):
    # inverse of beta_index_bits, for small n
    for pos in range(1 << n):
        if beta_index_bits(pos, n) == tuple(bits):
            return pos
    raise AssertionError(bits)


def theta_pos(bits):
    # theta is laid out in plain binary order, first bit slowest
    pos = 0
    for b in bits:
        pos = (pos << 1) | b
    return pos


def test_beta_to_theta_single_conditional_effect():
    # a unit effect of the first conditional factor splits equally over
    # its own main-effect component and the interaction with its
    # conditioning partner
    n = 4
    beta = np.zeros(16)
    beta[effects_pos((1, 0, 0, 0), n)] = 1.0
    theta = beta_to_theta(beta, n)
    expect = {
        theta_pos((1, 0, 0, 0)): 1 / np.sqrt(2),
        theta_pos((1, 1, 0, 0)): 1 / np.sqrt(2),
    }
    for pos in range(16):
        assert theta[pos] == pytest.approx(expect.get(pos, 0.0), abs=1e-12)


def test_unconditional_block_is_identity():
    # effects with no conditional factor pass through unchanged; only
    # the flat layout differs between the two vectors
    rng = np.random.default_rng(8)
    n = 5
    beta = rng.normal(size=1 << n)
    theta = beta_to_theta(beta, n)
    for pos in range(1 << n):
        bits = beta_index_bits(pos, n)
        if bits[0] == 0 and bits[2] == 0:
            assert theta[theta_pos(bits)] == pytest.approx(beta[pos], abs=1e-12)


def test_hrh_diagonalization():
    rho = 0.4
    r2 = np.array([[1.0, rho], [rho, 1.0]])
    hrh = effects.H2 @ r2 @ effects.H2
    assert np.allclose(hrh, 2 * np.diag([1 + rho, 1 - rho]), atol=1e-12)


def test_prior_cov_beta_structure():
    # the covariance is symmetric PSD; independence across components
    # holds only at rho=0, the formula constrains the diagonal
    cov = prior_cov_beta(5, PriorSpec(rho=0.5))
    assert np.allclose(cov, cov.T, atol=1e-12)
    assert np.linalg.eigvalsh(cov).min() > -1e-12
    flat = prior_cov_beta(5, PriorSpec(rho=0.0))
    off = flat - np.diag(np.diag(flat))
    assert np.max(np.abs(off)) < 1e-15


def test_variance_formula_matches_materialized_covariance():
    for n, rho in ((5, 0.5), (6, 0.3)):
        prior = PriorSpec(rho=rho)
        cov = prior_cov_beta(n, prior)
        for pos in range(1, 1 << n):
            s, l = classify_effect(beta_index_bits(pos, n))
            assert cov[pos, pos] == pytest.approx(variance_formula(n, s, l, prior), abs=1e-9)


def test_specific_diagonal_value():
    # n=5, rho=0.5, class (0, 1): sigma2 * 2^-5 * 1.5^4 * 0.5
    prior = PriorSpec(rho=0.5)
    assert variance_formula(5, 0, 1, prior) == pytest.approx(1.5**4 * 0.5 / 32, rel=1e-12)


def test_variance_formula_refuses_huge_n_without_the_n_bit_integer():
    # 1 << 10**7 alone holds 1.25 MB; 2.0 ** n overflows before allocating
    prior = PriorSpec(rho=0.5)
    tracemalloc.start()
    try:
        with pytest.raises(OverflowError):
            variance_formula(10**7, 0, 1, prior)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    assert variance_formula(1023, 0, 1, prior) == prior.sigma2 / float(1 << 1023) * 1.5**1022 * 0.5
    with pytest.raises(ValueError):
        variance_formula(-1, 0, 1, prior)


@pytest.mark.parametrize("n, rho, sigma2", [(4, 0.7, 1.0), (5, 0.5, 1.0), (6, 0.3, 2.0)])
def test_prior_cov_beta_is_the_transformed_cell_mean_prior(n, rho, sigma2):
    # beta = T tau with T's columns tau_to_beta(e_i), and tau has the
    # exchangeable prior sigma2 R^(x)n, so cov(beta) = T sigma2 R^(x)n T^T
    t = np.column_stack([tau_to_beta(e, n) for e in np.eye(1 << n)])
    r = np.array([[1.0, rho], [rho, 1.0]])
    cov_tau = sigma2 * effects._kron_all(*[r] * n)
    want = t @ cov_tau @ t.T
    assert np.max(np.abs(prior_cov_beta(n, PriorSpec(rho=rho, sigma2=sigma2)) - want)) < 1e-14


def test_diag_shortcut_matches_full_matrix():
    prior = PriorSpec(rho=0.7, sigma2=2.0)
    full = np.diag(prior_cov_beta(6, prior))
    fast = prior_cov_beta_diag(6, prior)
    assert np.allclose(full, fast, atol=1e-13)


def test_rho_zero_limit_is_flat():
    prior = PriorSpec(rho=0.0)
    for _, v in hierarchy_sequence(6, prior):
        assert v == pytest.approx(1.0 / 64, rel=1e-14)


def test_hierarchy_strictly_decreasing():
    for rho in np.linspace(0.05, 0.95, 19):
        ladder = hierarchy_sequence(8, PriorSpec(rho=float(rho)))
        vals = [v for _, v in ladder]
        assert all(a > b for a, b in zip(vals, vals[1:]))


def test_hierarchy_ratio_identity():
    # V_{2,l} / V_{0,l+1} = 1 / (1 - rho^2), independent of l
    for rho in (0.1, 0.5, 0.9):
        prior = PriorSpec(rho=rho)
        for n, l in ((6, 2), (8, 3), (9, 5)):
            ratio = variance_formula(n, 2, l, prior) / variance_formula(n, 0, l + 1, prior)
            assert ratio == pytest.approx(1.0 / (1.0 - rho * rho), rel=1e-12)


def test_hierarchy_label_order_fixed_across_rho():
    orders = {tuple(cls for cls, _ in hierarchy_sequence(7, PriorSpec(rho=float(r)))) for r in np.linspace(0.05, 0.95, 10)}
    assert len(orders) == 1

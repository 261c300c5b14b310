import numpy as np
import pytest

from strat2d.bands import dyadic_bank, project_band
from strat2d.estimates import (
    RatioReport,
    cancellation_check,
    commutator_bracket,
    commutator_lambda,
    commutator_smoothed,
    resolution_stability,
    transport_check,
    trial_spectrum_bounds,
    verify_bernstein,
    verify_lemma,
)
from strat2d.fields import random_field, random_spectrum
from strat2d.grid import (
    GridSpec,
    SpectralField,
    VectorField,
    advect,
    biot_savart,
    hminus1_norm,
    lp_norm,
)


@pytest.fixture(scope="module")
def grid():
    return GridSpec(64)


@pytest.fixture(scope="module")
def bank(grid):
    return dyadic_bank(grid)


def zero_vec(grid):
    z = SpectralField(grid, np.zeros(grid.shape, dtype=complex))
    return VectorField(z, z)


def test_commutators_vanish_for_zero_velocity(grid):
    g = random_field(grid, seed=1, xi_lo=0.5, xi_hi=8.0)
    for comm in (commutator_bracket, commutator_lambda, commutator_smoothed):
        out = comm(zero_vec(grid), g, 1)
        assert out.coefficient_norm() == 0.0


def test_commutator_lambda_annihilates_mean_only(grid):
    g = SpectralField(grid, np.zeros(grid.shape, dtype=complex)).with_mean(3.0)
    f = biot_savart(random_field(grid, seed=2, xi_lo=0.5, xi_hi=4.0))
    out = commutator_lambda(f, g, 1)
    assert out.coefficient_norm() < 1e-14


def test_commutator_telescoping(grid, bank):
    # summing [f.grad, Delta_j] over all resolved bands telescopes to the
    # commutator with the (identity-like) band sum, which vanishes on data
    # fully inside the covered annulus
    bounds = trial_spectrum_bounds(grid)
    omega = random_field(grid, seed=3, xi_lo=bounds[0], xi_hi=bounds[1])
    g = random_field(grid, seed=4, xi_lo=bounds[0], xi_hi=bounds[1])
    f = biot_savart(omega)
    total = np.zeros(grid.shape, dtype=complex)
    for j in bank.bands:
        total += commutator_bracket(f, g, j).coeffs
    # residual = f.grad(sum_j Delta_j g) - sum_j Delta_j (f.grad g); the first
    # factor sum is g itself, the second is the band-covered part of f.grad g
    adv = advect(f, g)
    covered = np.zeros_like(total)
    for j in bank.bands:
        covered += project_band(adv, j).coeffs
    residual = np.abs(total - (adv.coeffs - covered)).max()
    assert residual < 1e-8 * max(np.abs(adv.coeffs).max(), 1e-300)


def test_commutator_small_for_slow_velocity(grid):
    # g deep inside band 2's plateau, f at the lowest frequencies: the
    # commutator is a band-edge effect and must be small relative to the
    # advection scale
    x1, x2 = grid.meshgrid()
    from strat2d.grid import forward_transform

    g = forward_transform(grid, np.cos(4 * x1 + x2))
    omega = forward_transform(grid, np.cos(x1))
    f = biot_savart(omega)
    out = commutator_bracket(f, g, 2)
    speed = lp_norm(f.u1, np.inf) + lp_norm(f.u2, np.inf)
    grad_scale = speed * 2.0**3  # |grad g| ~ |xi| ~ 2^{j+1}
    assert lp_norm(out, 2) < 0.2 * grad_scale


def test_cancellation_identity_examples(grid):
    from strat2d.grid import forward_transform

    x1, _ = grid.meshgrid()
    omega = forward_transform(grid, np.cos(x1))
    rho = forward_transform(grid, np.sin(x1))
    res, per_band = cancellation_check(omega, rho)
    scale = lp_norm(omega, 2) * lp_norm(rho, 2) + 1.0
    assert res < 1e-12 * scale
    assert all(v < 1e-12 * scale for v in per_band.values())


def test_cancellation_zero_density(grid):
    omega = random_field(grid, seed=5, xi_lo=0.5, xi_hi=8.0)
    zero = SpectralField(grid, np.zeros_like(omega.coeffs))
    res, _ = cancellation_check(omega, zero)
    assert res == 0.0


def test_cancellation_random_pairs(grid):
    worst = 0.0
    for seed in range(100):
        omega, rho = random_spectrum(grid, seed=seed, xi_lo=0.5, xi_hi=8.0)
        res, _ = cancellation_check(omega, rho)
        scale = hminus1_norm(omega) * lp_norm(rho, 2)
        worst = max(worst, res / scale)
    assert worst < 1e-10


def test_transport_orthogonality(grid):
    for seed in range(20):
        omega, g = random_spectrum(grid, seed=seed, xi_lo=0.5, xi_hi=8.0)
        u = biot_savart(omega)
        speed = max(lp_norm(u.u1, np.inf), lp_norm(u.u2, np.inf))
        res = transport_check(u, g)
        assert res < 1e-10 * speed * lp_norm(g, 2) ** 2


def test_bernstein_rows_within_annulus(grid):
    rows = verify_bernstein(grid, trials=100, seed=11)
    assert len(rows) == 100
    for j, ratio, lo, hi in rows:
        assert lo <= ratio <= hi


def test_ratio_report_zero_velocity(grid, bank):
    rep = RatioReport(which="bracket", s=1.0, q=1.0, seed=0)
    g = random_field(grid, seed=1, xi_lo=0.5, xi_hi=4.0)
    for j in bank.bands:
        out = commutator_bracket(zero_vec(grid), g, j)
        rep.record(lp_norm(out, 2), 1.0)
    assert rep.max_ratio == 0.0


def test_ratio_report_rejects_bad_entries():
    rep = RatioReport(which="x", s=1.0, q=1.0, seed=0)
    with pytest.raises(ValueError):
        rep.record(float("nan"), 1.0)
    with pytest.raises(ValueError):
        rep.record(-1.0, 1.0)


def test_verify_commutator_validation(grid):
    with pytest.raises(ValueError):
        verify_lemma(grid, "bracket", s=-1.0, q=1.0, trials=1, seed=0)
    with pytest.raises(ValueError):
        verify_lemma(grid, "smoothed", s=-2.0, q=1.0, trials=1, seed=0)
    with pytest.raises(ValueError):
        verify_lemma(grid, "nope", s=1.0, q=1.0, trials=1, seed=0)


def test_verify_product_rule_validation(grid):
    with pytest.raises(ValueError):
        verify_lemma(grid, "product", s=0.0, q=1.0, trials=1, seed=0)


def test_commutator_ratios_finite(grid):
    for which in ("bracket", "lambda", "smoothed"):
        rep = verify_lemma(grid, which, s=1.0, q=1.0, trials=5, seed=21)
        assert np.isfinite(rep.max_ratio)
        assert rep.max_ratio > 0


def test_product_rule_ratio_bounded(grid):
    rep = verify_lemma(grid, "product", s=1.0, q=1.0, trials=5, seed=22)
    assert np.isfinite(rep.max_ratio)
    assert 0 < rep.max_ratio < 10.0


def test_resolution_stability_quick():
    rep = resolution_stability("bracket", GridSpec(32), 1.0, 1.0, trials=5, seed=33)
    assert rep.max_ratio_doubled is not None
    assert abs(rep.max_ratio_doubled - rep.max_ratio) <= 0.25 * rep.max_ratio

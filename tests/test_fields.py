import numpy as np
import pytest

from strat2d.fields import (
    _rng,
    coherent_band_field,
    gaussian_bump,
    make_initial_data,
    random_field,
    taylor_green,
)
from strat2d.grid import GridSpec, SpectralField, advect, biot_savart, dealias, lp_norm


def test_random_field_deterministic():
    g = GridSpec(64)
    a = random_field(g, seed=5, xi_lo=0.5, xi_hi=4.0)
    b = random_field(g, seed=5, xi_lo=0.5, xi_hi=4.0)
    assert np.array_equal(a.coeffs, b.coeffs)
    c = random_field(g, seed=6, xi_lo=0.5, xi_hi=4.0)
    assert not np.array_equal(a.coeffs, c.coeffs)


def test_random_field_cross_resolution():
    # fixing kmax makes the spectral content identical across grids
    coarse = GridSpec(64)
    fine = GridSpec(128)
    a = random_field(coarse, seed=9, xi_lo=0.5, xi_hi=8.0, kmax=20)
    b = random_field(fine, seed=9, xi_lo=0.5, xi_hi=8.0, kmax=20)
    # the half spectrum stores k = (3, -2) as the conjugate of (-3, 2)
    for k1, k2 in ((1, 0), (-3, 2), (8, 5)):
        ca = a.coeffs[k1 % 64, k2]
        cb = b.coeffs[k1 % 128, k2]
        assert abs(ca / lp_norm(a, 2) - cb / lp_norm(b, 2)) < 1e-14


def test_random_field_refuses_kmax_beyond_the_half_spectrum():
    grid = GridSpec(32)
    assert random_field(grid, seed=9, kmax=16).coefficient_norm() > 0
    with pytest.raises(ValueError, match=r"kmax = 17 exceeds n/2 for n = 32"):
        random_field(grid, seed=9, kmax=17)


@pytest.mark.parametrize("window", [
    {"kmax": 0}, {"kmax": -3}, {"xi_lo": 5.0, "xi_hi": 4.0}, {"xi_lo": 4.0, "xi_hi": 4.0},
    {"xi_lo": 0.5, "xi_hi": 0.9},  # between the lattice radii 0 and 1
    {"kmax": 16, "xi_lo": 15.5},  # beyond the dealias cutoff 10
])
def test_random_field_refuses_an_empty_window(window):
    # the field of no wave vector would be zero, whatever the amplitude asks
    grid = GridSpec(32)
    with pytest.raises(ValueError, match="no wave vector"):
        random_field(grid, seed=9, **window)


def test_random_field_normalization_and_mean():
    g = GridSpec(64)
    f = random_field(g, seed=1, xi_lo=0.5, xi_hi=4.0, amplitude=2.5)
    assert abs(lp_norm(f, 2) - 2.5) < 1e-12
    assert f.mean == 0.0
    assert f.hermitian_defect() < 1e-14
    # zero data asked for explicitly
    assert random_field(g, seed=1, xi_lo=0.5, xi_hi=4.0, amplitude=0.0).coefficient_norm() == 0.0


def _random_field_by_loop(grid, seed, alpha=2.5, xi_lo=0.0, xi_hi=np.inf, amplitude=1.0,
                          kmax=None, stream=0):
    """random_field written one wave vector at a time, in the draw order."""
    if kmax is None:
        kmax = int(grid.dealias_fraction * grid.n / 2)
    kvecs = [(k1, k2) for k1 in range(kmax + 1) for k2 in range(-kmax, kmax + 1)
             if k1 > 0 or k2 > 0]
    draws = _rng(seed, stream).normal(size=(len(kvecs), 2))
    coeffs = np.zeros(grid.shape, dtype=complex)
    for (k1, k2), (a, b) in zip(kvecs, draws):
        xi = np.hypot(k1, k2) / grid.box_scale
        if not (xi_lo < xi <= xi_hi):
            continue
        c = (a + 1j * b) * xi ** (-alpha)
        if k2 >= 0:
            coeffs[k1 % grid.n, k2] = c
        if k2 <= 0:
            coeffs[(-k1) % grid.n, -k2] = np.conj(c)
    f = dealias(SpectralField(grid, coeffs))
    norm = lp_norm(f, 2)
    return f * (amplitude / norm) if norm > 0 else f


@pytest.mark.parametrize("n, box_scale, fraction", [
    (16, 1.0, 2 / 3), (32, 8.0, 2 / 3), (64, 1.0, 2 / 3), (64, 2.0, 1.0), (128, 1.0, 2 / 3),
])
@pytest.mark.parametrize("kwargs", [
    {}, {"xi_lo": 0.5, "xi_hi": 4.0, "amplitude": 15.0}, {"alpha": 3, "kmax": 8},
])
def test_random_field_matches_the_per_mode_loop(n, box_scale, fraction, kwargs):
    # dealias_fraction 1 keeps the Nyquist row k1 = n/2, which k and -k both write
    grid = GridSpec(n, box_scale=box_scale, dealias_fraction=fraction)
    for seed, stream in ((0, 0), (11, 1)):
        want = _random_field_by_loop(grid, seed, stream=stream, **kwargs)
        got = random_field(grid, seed, stream=stream, **kwargs)
        assert np.array_equal(got.coeffs, want.coeffs)


def test_taylor_green_is_steady_euler():
    g = GridSpec(64)
    omega, rho = taylor_green(g)
    assert rho.coefficient_norm() == 0.0
    # the Taylor-Green cell is a steady Euler solution: u.grad omega = 0
    adv = advect(biot_savart(omega), omega)
    assert adv.coefficient_norm() < 1e-14


def test_gaussian_bump_mean_free():
    g = GridSpec(64)
    omega, rho = gaussian_bump(g, width=0.4, amplitude=2.0)
    assert abs(omega.mean) < 1e-14
    assert rho.coefficient_norm() == 0.0


def test_coherent_band_field_norm_seed_independent():
    g = GridSpec(64)
    a = coherent_band_field(g, seed=0)
    b = coherent_band_field(g, seed=1)
    assert abs(lp_norm(a, 2) - 1.0) < 1e-12
    assert abs(lp_norm(a, 2) - lp_norm(b, 2)) < 1e-12
    # seeds shift the packet, they do not change the spectrum
    assert np.abs(np.abs(a.coeffs) - np.abs(b.coeffs)).max() < 1e-12


def test_make_initial_data_dispatch():
    g = GridSpec(64)
    omega, rho = make_initial_data(g, {"name": "random-spectrum", "seed": 2,
                                       "amplitude": 1.0, "xi_lo": 0.5, "xi_hi": 4.0})
    assert lp_norm(omega, 2) > 0 and lp_norm(rho, 2) > 0
    with pytest.raises(KeyError):
        make_initial_data(g, {"name": "unknown"})

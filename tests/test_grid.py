import numpy as np
import pytest

from strat2d.errors import (
    GridMismatchError,
    HermitianSymmetryError,
    NegativePowerOnNonzeroMeanError,
)
from strat2d import grid as grid_module
from strat2d.bands import BesovSpec, DyadicBank, besov_norm
from strat2d.grid import (
    GridSpec,
    SpectralField,
    SupportSynthesis,
    VectorField,
    advect,
    biot_savart,
    dealias,
    derivative,
    forward_transform,
    gradient,
    hminus1_norm,
    inner_hminus1,
    inner_l2,
    inverse_transform,
    lambda_power,
    load_field,
    lp_norm,
    lp_norm_unchecked,
    lp_norms_unchecked,
    multiply,
    phase_multiplier,
    save_field,
)


@pytest.fixture
def grid():
    return GridSpec(64)


def random_real_field(grid, seed=0, scale=1.0):
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    samples = scale * rng.standard_normal((grid.n, grid.n))
    return dealias(forward_transform(grid, samples))


def test_grid_validation():
    with pytest.raises(ValueError):
        GridSpec(6)
    with pytest.raises(ValueError):
        GridSpec(15)
    with pytest.raises(ValueError):
        GridSpec(64, box_scale=-1.0)
    with pytest.raises(ValueError):
        GridSpec(64, dealias_fraction=0.0)


def test_transform_round_trip(grid):
    rng = np.random.Generator(np.random.Philox(key=np.uint64(1)))
    samples = rng.standard_normal((grid.n, grid.n))
    back = inverse_transform(forward_transform(grid, samples))
    assert np.abs(back - samples).max() < 1e-12


def test_pure_mode_normalization(grid):
    x1, _ = grid.meshgrid()
    f = forward_transform(grid, np.cos(3 * x1))
    assert abs(f.coeffs[3, 0] - 0.5) < 1e-14
    assert abs(f.coeffs[-3, 0] - 0.5) < 1e-14
    # everything else zero
    c = f.coeffs.copy()
    c[3, 0] = c[-3, 0] = 0.0
    assert np.abs(c).max() < 1e-14


def test_l2_norm_cosine(grid):
    x1, _ = grid.meshgrid()
    f = forward_transform(grid, np.cos(x1))
    # integral of cos^2 over [0,2pi)^2 is 2 pi^2
    assert abs(lp_norm(f, 2) - np.sqrt(2) * np.pi) < 1e-12


def test_l2_plancherel_matches_quadrature(grid):
    f = random_real_field(grid, seed=2)
    spectral = lp_norm(f, 2)
    samples = inverse_transform(f)
    cell = (2 * np.pi / grid.n) ** 2
    quad = np.sqrt(np.sum(samples**2) * cell)
    assert abs(spectral - quad) < 1e-10 * spectral


def test_lp_norm_errors(grid):
    f = random_real_field(grid)
    with pytest.raises(ValueError):
        lp_norm(f, 0.5)


def test_derivative_exact(grid):
    x1, x2 = grid.meshgrid()
    f = forward_transform(grid, np.sin(2 * x1) * np.cos(3 * x2))
    d1 = inverse_transform(derivative(f, 1))
    d2 = inverse_transform(derivative(f, 2))
    assert np.abs(d1 - 2 * np.cos(2 * x1) * np.cos(3 * x2)).max() < 1e-11
    assert np.abs(d2 + 3 * np.sin(2 * x1) * np.sin(3 * x2)).max() < 1e-11
    with pytest.raises(ValueError):
        derivative(f, 3)


def test_lambda_power_negative_mean_guard(grid):
    x1, _ = grid.meshgrid()
    f = forward_transform(grid, 1.0 + np.cos(x1))
    with pytest.raises(NegativePowerOnNonzeroMeanError):
        lambda_power(f, -1.0)
    # positive powers kill the mean and are fine
    out = lambda_power(f, 1.0)
    assert out.mean == 0.0


def test_lambda_power_composition(grid):
    f = random_real_field(grid, seed=3).drop_mean()
    once = lambda_power(lambda_power(f, 0.5), 0.5)
    direct = lambda_power(f, 1.0)
    assert np.abs(once.coeffs - direct.coeffs).max() < 1e-12


def test_biot_savart_golden(grid):
    x1, _ = grid.meshgrid()
    omega = forward_transform(grid, np.cos(x1))
    u = biot_savart(omega)
    assert np.abs(inverse_transform(u.u1)).max() < 1e-13
    assert np.abs(inverse_transform(u.u2) + np.sin(x1)).max() < 1e-12


def test_biot_savart_divergence_free(grid):
    omega = random_real_field(grid, seed=4).drop_mean()
    u = biot_savart(omega)
    assert u.divergence().coefficient_norm() < 1e-13 * omega.coefficient_norm()


def test_biot_savart_recovers_vorticity(grid):
    # with the perp-gradient convention used here, curl u = -omega;
    # this sign is what makes the coupling cancellation exact
    omega = random_real_field(grid, seed=5).drop_mean()
    u = biot_savart(omega)
    curl = derivative(u.u2, 1) - derivative(u.u1, 2)
    assert np.abs(curl.coeffs + omega.coeffs).max() < 1e-12


def test_dealias_mask(grid):
    c = np.ones(grid.shape, dtype=complex)
    f = dealias(SpectralField(grid, c))
    cut = grid.dealias_fraction * grid.n / 2
    assert f.coeffs[int(cut) + 2, 0] == 0.0
    assert f.coeffs[1, 1] == 1.0


def test_multiply_matches_pointwise(grid):
    x1, x2 = grid.meshgrid()
    f = forward_transform(grid, np.cos(x1))
    g = forward_transform(grid, np.cos(x2))
    prod = multiply(f, g)
    assert np.abs(inverse_transform(prod) - np.cos(x1) * np.cos(x2)).max() < 1e-12


def test_advect_zero_velocity(grid):
    g = random_real_field(grid, seed=6)
    zero = SpectralField(grid, np.zeros(grid.shape, dtype=complex))
    out = advect(VectorField(zero, zero), g)
    assert out.coefficient_norm() == 0.0


def test_advect_several_scalars_match_single_calls(grid):
    u = biot_savart(random_real_field(grid, seed=7).drop_mean())
    g, h = random_real_field(grid, seed=8), random_real_field(grid, seed=9)
    adv_g, adv_h = advect(u, g, h)
    assert np.array_equal(adv_g.coeffs, advect(u, g).coeffs)
    assert np.array_equal(adv_h.coeffs, advect(u, h).coeffs)


def test_advect_transforms_a_velocity_once(grid, monkeypatch):
    u = biot_savart(random_real_field(grid, seed=7).drop_mean())
    g, h = random_real_field(grid, seed=8), random_real_field(grid, seed=9)
    fresh = [advect(VectorField(u.u1, u.u2), f).coeffs for f in (g, h)]
    transformed = []
    samples = grid_module._samples

    def counted(grid_, coeffs):
        transformed.append(id(coeffs))
        return samples(grid_, coeffs)

    monkeypatch.setattr(grid_module, "_samples", counted)
    assert np.array_equal(advect(u, g).coeffs, fresh[0])
    assert np.array_equal(advect(u, h).coeffs, fresh[1])
    assert transformed.count(id(u.u1.coeffs)) == 1
    assert transformed.count(id(u.u2.coeffs)) == 1


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0, np.inf])
def test_batched_norms_match_single_fields(grid, p):
    fields = [random_real_field(grid, seed=s) for s in (10, 11, 12)]
    batch = lp_norms_unchecked(grid, np.stack([f.coeffs for f in fields]), p)
    single = [lp_norm_unchecked(f, p) for f in fields]
    assert np.allclose(batch, single, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("n", [32, 48, 128])
def test_support_synthesis_matches_irfft2(n):
    # random entries on random rows and columns, including the Nyquist row
    # k1 = -n/2 and the columns k2 = 0 and n/2, left non-Hermitian there
    g = GridSpec(n)
    rng = np.random.default_rng(n)
    rows = np.union1d([n // 2], rng.choice(n, n // 4, replace=False))
    cols = np.union1d([0, n // 2], rng.choice(n // 2 + 1, n // 8, replace=False))
    coeffs = np.zeros((3, *g.shape), dtype=complex)
    size = (3, len(rows), len(cols))
    coeffs[:, rows[:, None], cols] = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    expected = grid_module._samples(g, coeffs)
    got = SupportSynthesis(g, rows, n // 2 + 1)(coeffs[:, rows])
    assert got.shape == (3, n, n)
    assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()


def test_inner_products(grid):
    x1, _ = grid.meshgrid()
    f = forward_transform(grid, np.cos(x1))
    assert abs(inner_l2(f, f) - 2 * np.pi**2) < 1e-10
    assert abs(inner_hminus1(f, f) - 2 * np.pi**2) < 1e-10  # |xi| = 1 mode
    assert abs(hminus1_norm(f) - np.sqrt(2) * np.pi) < 1e-12


def test_grid_mismatch(grid):
    other = GridSpec(32)
    f = random_real_field(grid)
    g = random_real_field(other)
    with pytest.raises(GridMismatchError):
        f + g


def test_hermitian_defect_detection(grid):
    c = np.zeros(grid.shape, dtype=complex)
    c[1, 0] = 1.0  # missing the conjugate partner at (-1, 0), same column
    f = SpectralField(grid, c)
    with pytest.raises(HermitianSymmetryError):
        inverse_transform(f)


def test_gradient_components(grid):
    f = random_real_field(grid, seed=7)
    g = gradient(f)
    assert np.abs(g.u1.coeffs - derivative(f, 1).coeffs).max() == 0.0
    assert np.abs(g.u2.coeffs - derivative(f, 2).coeffs).max() == 0.0


def test_save_load_round_trip_bit_exact(tmp_path, grid):
    f = random_real_field(grid, seed=8)
    path = tmp_path / "field.npz"
    save_field(f, path)
    g = load_field(path)
    assert g.grid == grid
    assert np.array_equal(f.coeffs, g.coeffs)


def test_save_load_samples_kind(tmp_path, grid):
    f = random_real_field(grid, seed=9)
    path = tmp_path / "field.npz"
    save_field(f, path, kind="samples")
    g = load_field(path)
    assert np.abs(g.coeffs - f.coeffs).max() < 1e-12
    with pytest.raises(ValueError):
        save_field(f, path, kind="bogus")


def test_load_rejects_foreign_npz(tmp_path):
    path = tmp_path / "other.npz"
    np.savez(path, format=np.array("something-else"), data=np.zeros(3))
    with pytest.raises(ValueError):
        load_field(path)


def test_box_scale_frequencies():
    g = GridSpec(64, box_scale=4.0)
    assert abs(g.xi1[1, 0] - 0.25) < 1e-15
    assert abs(g.dealias_cutoff - (2.0 / 3.0 * 32) / 4.0) < 1e-12
    x1, _ = g.meshgrid()
    f = forward_transform(g, np.cos(x1 / 4.0))
    # L2 norm scales with the box: 2 pi L0 / sqrt(2)
    assert abs(lp_norm(f, 2) - 2 * np.pi * 4.0 / np.sqrt(2)) < 1e-10


def random_hermitian_coeffs(n, seed):
    """A random full n x n spectrum of a real field, every mode present."""
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (a + np.conj(np.roll(a[::-1, ::-1], 1, axis=(0, 1))))


def half(full):
    return full[:, : full.shape[0] // 2 + 1]


def relative_error(got, ref):
    return np.abs(got - ref).max() / np.abs(ref).max()


def full_wavevectors(g):
    k = np.fft.fftfreq(g.n, d=1.0 / g.n) / g.box_scale
    return k[:, None] * np.ones((1, g.n)), np.ones((g.n, 1)) * k[None, :]


@pytest.mark.parametrize("n", [32, 48])
def test_real_transforms_match_complex_reference(n):
    # full-spectrum multipliers in np.fft layout, applied to data with content
    # on the Nyquist row and column, then real(ifft2)
    g = GridSpec(n)
    c = random_hermitian_coeffs(n, seed=n)
    samples = np.real(np.fft.ifft2(c) * n**2)
    assert relative_error(forward_transform(g, samples).coeffs, half(np.fft.fft2(samples) / n**2)) < 1e-12
    assert relative_error(inverse_transform(SpectralField(g, half(c))), samples) < 1e-12

    def phys(coeffs):
        return np.real(np.fft.ifft2(coeffs) * n**2)

    xi1, xi2 = full_wavevectors(g)
    xi_sq = xi1**2 + xi2**2
    inv_sq = np.divide(1.0, xi_sq, out=np.zeros_like(xi_sq), where=xi_sq > 0)
    c_omega = c.copy()
    c_omega[0, 0] = 0.0
    c_g = random_hermitian_coeffs(n, seed=n + 1)
    u1, u2 = -1j * xi2 * inv_sq * c_omega, 1j * xi1 * inv_sq * c_omega
    omega, gfield = SpectralField(g, half(c_omega)), SpectralField(g, half(c_g))
    u = biot_savart(omega)
    assert relative_error(inverse_transform(u.u1), phys(u1)) < 1e-12
    assert relative_error(inverse_transform(u.u2), phys(u2)) < 1e-12
    for axis, xi in ((1, xi1), (2, xi2)):
        assert relative_error(inverse_transform(derivative(gfield, axis)), phys(1j * xi * c_g)) < 1e-12
    # the propagator's symbol, i xi1/|xi|
    r1 = SpectralField(g, 1j * g.xi1_over_abs * omega.coeffs)
    assert relative_error(inverse_transform(r1), phys(1j * xi1 * np.sqrt(inv_sq) * c_omega)) < 1e-12
    prod = phys(u1) * phys(1j * xi1 * c_g) + phys(u2) * phys(1j * xi2 * c_g)
    ref = np.fft.fft2(prod) / n**2 * full_dealias_mask(g)
    assert relative_error(advect(u, gfield).coeffs, half(ref)) < 1e-12


def full_dealias_mask(g):
    cut = g.dealias_fraction * g.n / 2
    k = np.abs(np.fft.fftfreq(g.n, d=1.0 / g.n))
    return (k[:, None] <= cut) & (k[None, :] <= cut)


def test_phase_multiplier_unitary_with_exact_group_law(grid):
    # the Nyquist rule makes the phase 1 on the k1 = -n/2 row: every entry is
    # unimodular and e(s) e(t) = e(s + t) holds on the whole half spectrum
    e = phase_multiplier(grid, 0.3, 40.0)
    assert np.abs(np.abs(e) - 1.0).max() < 1e-15
    assert np.abs(e[grid.n // 2] - 1.0).max() == 0.0
    both = phase_multiplier(grid, 0.3, 40.0) * phase_multiplier(grid, 0.4, 40.0)
    assert np.abs(both - phase_multiplier(grid, 0.7, 40.0)).max() < 1e-13
    # off the Nyquist row it is the full-spectrum symbol exp(i kappa t xi1/|xi|)
    xi1, xi2 = full_wavevectors(grid)
    xi_abs = np.hypot(xi1, xi2)
    ref = np.exp(1j * 40.0 * 0.3 * np.divide(xi1, xi_abs, out=np.zeros_like(xi1), where=xi_abs > 0))
    rows = np.arange(grid.n) != grid.n // 2
    assert np.abs(e[rows] - half(ref)[rows]).max() < 1e-14


def test_coefficient_norm_matches_linalg(grid):
    # the norm of the full spectrum, from the half with Plancherel weights
    c, d = random_hermitian_coeffs(grid.n, seed=3), random_hermitian_coeffs(grid.n, seed=4)
    f, g = SpectralField(grid, half(c)), SpectralField(grid, half(d))
    ref = np.linalg.norm(c)
    assert abs(f.coefficient_norm() - ref) <= 1e-14 * ref
    pairing = grid.area * np.real(np.vdot(d, c))
    assert abs(inner_l2(f, g) - pairing) <= 1e-12 * grid.area * ref * np.linalg.norm(d)
    huge = SpectralField(grid, np.full(grid.shape, 1e200 + 1e200j))
    with pytest.warns(RuntimeWarning, match="overflow"):
        assert huge.coefficient_norm() == np.inf


def test_besov_guard_scaled_by_whole_field(grid):
    bank = DyadicBank(grid)
    x1, _ = grid.meshgrid()
    c = forward_transform(grid, np.cos(x1)).coeffs
    # round-off-sized content in the top band on the self-conjugate column
    # k2 = 0, with no conjugate partner: its band projection alone is far from
    # Hermitian, the field is not
    top = np.argmax(bank.psi_hat(bank.j_max)[:, 0])
    c[top, 0] += 1e-13
    spec = BesovSpec(s=0.0, p=np.inf, q=1.0)
    assert besov_norm(SpectralField(grid, c), spec, bank) > 0
    c[top, 0] += 1e-3
    with pytest.raises(HermitianSymmetryError):
        besov_norm(SpectralField(grid, c), spec, bank)


def test_hermitian_check_reads_only_the_self_conjugate_columns(grid):
    # columns 0 < k2 < n/2 hold one of each conjugate pair: any data is real
    rng = np.random.default_rng(5)
    c = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    c[:, [0, grid.n // 2]] = 0.0
    assert SpectralField(grid, c).hermitian_defect() == 0.0
    samples = inverse_transform(SpectralField(grid, c))
    assert np.abs(forward_transform(grid, samples).coeffs - c).max() < 1e-14
    c[3, grid.n // 2] = 1.0  # partner (-3, n/2) missing
    with pytest.raises(HermitianSymmetryError):
        inverse_transform(SpectralField(grid, c))


def test_field_rejects_full_layout(grid):
    with pytest.raises(ValueError):
        SpectralField(grid, np.zeros((grid.n, grid.n), dtype=complex))


def full_snapshot(path, grid, coeffs):
    np.savez(path, format=np.array("strat2d-field-v1"), kind=np.array("coeffs"),
             n=np.array(grid.n), box_scale=np.array(grid.box_scale),
             dealias_fraction=np.array(grid.dealias_fraction), coeffs=coeffs)


def test_full_layout_snapshot_loads(tmp_path, grid):
    # a strat2d-field-v1 snapshot holds the full n x n spectrum in np.fft layout
    samples = np.random.default_rng(6).standard_normal((grid.n, grid.n))
    full = np.fft.fft2(samples) / grid.n**2
    full_snapshot(tmp_path / "v1.npz", grid, full)
    f = load_field(tmp_path / "v1.npz")
    assert np.abs(f.coeffs - half(full)).max() < 1e-15
    assert np.abs(inverse_transform(f) - samples).max() < 1e-12
    # and saving writes that layout back
    save_field(f, tmp_path / "again.npz")
    with np.load(tmp_path / "again.npz") as data:
        assert data["coeffs"].shape == (grid.n, grid.n)
        assert np.abs(data["coeffs"] - full).max() < 1e-15


def test_non_hermitian_snapshot_refused(tmp_path, grid):
    full = random_hermitian_coeffs(grid.n, seed=7)
    full[2, -3] += 1e-3  # breaks c(2, -3) = conj c(-2, 3), outside the stored half
    full_snapshot(tmp_path / "bad.npz", grid, full)
    with pytest.raises(HermitianSymmetryError):
        load_field(tmp_path / "bad.npz")

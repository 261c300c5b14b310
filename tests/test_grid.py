import numpy as np
import pytest

from strat2d.errors import (
    GridMismatchError,
    HermitianSymmetryError,
    NegativePowerOnNonzeroMeanError,
    NonzeroMeanError,
)
from strat2d.bands import BesovSpec, DyadicBank, besov_norm
from strat2d.grid import (
    GridSpec,
    SpectralField,
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
    inverse_laplacian,
    inverse_transform,
    lambda_power,
    load_field,
    lp_norm,
    lp_norm_unchecked,
    lp_norms_unchecked,
    multiply,
    riesz,
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


def test_inverse_laplacian_eigenmode(grid):
    x1, x2 = grid.meshgrid()
    f = forward_transform(grid, np.cos(2 * x1 + x2))
    g = inverse_transform(inverse_laplacian(f))
    assert np.abs(g - np.cos(2 * x1 + x2) / 5.0).max() < 1e-12


def test_inverse_laplacian_needs_mean_zero(grid):
    f = forward_transform(grid, np.ones((grid.n, grid.n)))
    with pytest.raises(NonzeroMeanError):
        inverse_laplacian(f)


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


def test_riesz_is_isometry_on_axis_mode(grid):
    x1, _ = grid.meshgrid()
    f = forward_transform(grid, np.cos(x1))
    rf = riesz(f, 1)
    # symbol i*xi1/|xi| with |xi1|/|xi| = 1 on the axis: cos -> -sin
    assert np.abs(inverse_transform(rf) + np.sin(x1)).max() < 1e-12


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
    c = np.ones((grid.n, grid.n), dtype=complex)
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
    zero = SpectralField(grid, np.zeros((grid.n, grid.n), dtype=complex))
    out = advect(VectorField(zero, zero), g)
    assert out.coefficient_norm() == 0.0


def test_advect_several_scalars_match_single_calls(grid):
    u = biot_savart(random_real_field(grid, seed=7).drop_mean())
    g, h = random_real_field(grid, seed=8), random_real_field(grid, seed=9)
    adv_g, adv_h = advect(u, g, h)
    assert np.array_equal(adv_g.coeffs, advect(u, g).coeffs)
    assert np.array_equal(adv_h.coeffs, advect(u, h).coeffs)


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0, np.inf])
def test_batched_norms_match_single_fields(grid, p):
    fields = [random_real_field(grid, seed=s) for s in (10, 11, 12)]
    batch = lp_norms_unchecked(grid, np.stack([f.coeffs for f in fields]), p)
    single = [lp_norm_unchecked(f, p) for f in fields]
    assert np.allclose(batch, single, rtol=1e-14, atol=0.0)


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
    c = np.zeros((grid.n, grid.n), dtype=complex)
    c[1, 0] = 1.0  # missing the conjugate partner at (-1, 0)
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
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (a + np.conj(np.roll(a[::-1, ::-1], 1, axis=(0, 1))))


def relative_error(got, ref):
    return np.abs(got - ref).max() / np.abs(ref).max()


@pytest.mark.parametrize("n", [32, 48])
def test_real_transforms_match_complex_reference(n):
    g = GridSpec(n)
    c = random_hermitian_coeffs(n, seed=n)
    samples = np.real(np.fft.ifft2(c) * n**2)
    assert relative_error(forward_transform(g, samples).coeffs, np.fft.fft2(samples) / n**2) < 1e-12
    assert relative_error(inverse_transform(SpectralField(g, c)), samples) < 1e-12

    def phys(coeffs):
        return np.real(np.fft.ifft2(coeffs) * n**2)

    omega = SpectralField(g, c).drop_mean()
    gfield = SpectralField(g, random_hermitian_coeffs(n, seed=n + 1))
    u = biot_savart(omega)
    prod = (phys(u.u1.coeffs) * phys(1j * g.xi1 * gfield.coeffs)
            + phys(u.u2.coeffs) * phys(1j * g.xi2 * gfield.coeffs))
    ref = np.fft.fft2(prod) / n**2 * g.dealias_mask
    assert relative_error(advect(u, gfield).coeffs, ref) < 1e-12


def test_coefficient_norm_matches_linalg(grid):
    f = SpectralField(grid, random_hermitian_coeffs(grid.n, seed=3))
    ref = np.linalg.norm(f.coeffs)
    assert abs(f.coefficient_norm() - ref) <= 1e-14 * ref
    huge = SpectralField(grid, np.full((grid.n, grid.n), 1e200 + 1e200j))
    assert huge.coefficient_norm() == np.inf


def test_besov_guard_scaled_by_whole_field(grid):
    bank = DyadicBank(grid)
    x1, _ = grid.meshgrid()
    c = forward_transform(grid, np.cos(x1)).coeffs
    # round-off-sized content in the top band, with no conjugate partner: its
    # band projection alone is far from Hermitian, the field is not
    top = np.unravel_index(np.argmax(bank.psi_hat(bank.j_max)), c.shape)
    c[top] += 1e-13
    spec = BesovSpec(s=0.0, p=np.inf, q=1.0)
    assert besov_norm(SpectralField(grid, c), spec, bank) > 0
    c[top] += 1e-3
    with pytest.raises(HermitianSymmetryError):
        besov_norm(SpectralField(grid, c), spec, bank)

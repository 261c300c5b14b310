import ast
from pathlib import Path

import numpy as np
import pytest

from strat2d.errors import (
    GridMismatchError,
    HermitianSymmetryError,
    NegativePowerOnNonzeroMeanError,
    NonzeroMeanError,
)
from strat2d import grid as grid_module
from strat2d.bands import BesovSpec, besov_norm, dyadic_bank
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
    has_nonzero_mean,
    hminus1_norm,
    inner_hminus1,
    inner_l2,
    inverse_transform,
    lambda_power,
    load_field,
    lp_norm,
    lp_norms_unchecked,
    multiply,
    phase_multiplier,
    require_mean_zero,
    sample_lp_norms,
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


def test_mean_guard_decides_as_the_full_norm(grid, monkeypatch):
    tol = grid_module.MEAN_TOL
    base = random_real_field(grid, seed=3)
    c = np.zeros(grid.shape, dtype=complex)
    c[3, 5] = 1.0 - 2.0j  # energy only off the row k1 = 0 and the column k2 = 0
    off_slice = SpectralField(grid, c)
    cases = [base, base.drop_mean(), SpectralField(grid, np.zeros(grid.shape, dtype=complex))]
    for f in (base, off_slice):
        norm = f.drop_mean().coefficient_norm()
        cases += [f.with_mean(scale * tol * norm) for scale in (1e-5, 0.5, 0.99, 1.01, 2.0)]
    for f in cases:
        assert has_nonzero_mean(f) == (abs(f.coeffs[0, 0]) > tol * f.coefficient_norm())
    with pytest.raises(NonzeroMeanError):
        require_mean_zero(off_slice.with_mean(1.01 * tol * off_slice.coefficient_norm()))

    # a round-off mean passes on the O(n) slice, without the full norm
    def forbidden(self):
        raise AssertionError("full coefficient norm computed")

    monkeypatch.setattr(SpectralField, "coefficient_norm", forbidden)
    assert not has_nonzero_mean(base.with_mean(1e-17))


@pytest.mark.parametrize("scale", [0.9999, 1.0001])
def test_mean_guard_on_a_column_array_decides_as_on_the_field(scale):
    # the column k2 = c - 1 of a column array is not the Nyquist column, and
    # the fallback norm counts it twice, as the field's norm does
    g = GridSpec(64)
    c = g.dealiased_columns
    coeffs = np.where(g.k2 == c - 1, 1.0, 0.01) * random_real_field(g, seed=4).coeffs
    f = SpectralField(g, coeffs)
    f = f.with_mean(scale * grid_module.MEAN_TOL * f.coefficient_norm())
    assert has_nonzero_mean(f.coeffs[:, :c]) == has_nonzero_mean(f) == (scale > 1)
    assert np.isclose(grid_module._coefficient_norms(f.coeffs[:, :c]), f.coefficient_norm(),
                      rtol=1e-14, atol=0.0)


def test_sample_lp_norms_at_p4_match_the_float_power(grid):
    samples = np.stack([inverse_transform(random_real_field(grid, seed=s)) for s in (10, 11)])
    cell = (2 * np.pi * grid.box_scale / grid.n) ** 2
    expected = (np.sum(np.abs(samples) ** 4.0, axis=(-2, -1)) * cell) ** 0.25
    for p in (4, 4.0):
        assert np.allclose(sample_lp_norms(grid, samples, p), expected, rtol=1e-14, atol=0.0)


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
    # both components in one call, and only in the first advect
    u = biot_savart(random_real_field(grid, seed=7).drop_mean())
    g, h = random_real_field(grid, seed=8), random_real_field(grid, seed=9)
    fresh = [advect(VectorField(u.u1, u.u2), f).coeffs for f in (g, h)]
    velocity = np.stack((u.u1.coeffs, u.u2.coeffs))
    transformed = []
    samples = grid_module._samples

    def counted(grid_, coeffs):
        transformed.append(np.array_equal(coeffs, velocity))
        return samples(grid_, coeffs)

    monkeypatch.setattr(grid_module, "_samples", counted)
    calls = {name: _counting(monkeypatch, name) for name in ("ifft", "irfft", "rfft", "fft")}
    assert np.array_equal(advect(u, g).coeffs, fresh[0])
    assert np.array_equal(advect(u, h).coeffs, fresh[1])
    # `_samples` makes the velocity's inverse, the kernel each advect's
    # inverse of the gradients and forward of the products
    assert transformed == [True]
    counts = {name: len(c) for name, c in calls.items()}
    assert counts == {"ifft": 3, "irfft": 3, "rfft": 2, "fft": 2}


def test_advect_of_fields_outside_the_dealias_set_is_irfft2_and_rfft2(grid):
    # advect takes the full half spectrum: with modes on every column, its
    # numbers are those of irfft2 / rfft2, dealiased
    rng = np.random.default_rng(3)
    u = biot_savart(random_real_field(grid, seed=7).drop_mean())
    g = forward_transform(grid, rng.standard_normal((grid.n, grid.n)))
    assert g.coeffs[:, -1].any() and g.coeffs[~grid.dealias_mask].any()
    u1, u2 = (np.fft.irfft2(c, s=(grid.n,) * 2, norm="forward") for c in (u.u1.coeffs, u.u2.coeffs))
    d1, d2 = (np.fft.irfft2(sym * g.coeffs, s=(grid.n,) * 2, norm="forward")
              for sym in (grid.i_xi1, grid.i_xi2))
    spectra = grid_module._symmetrize_columns(np.fft.rfft2(d1 * u1 + d2 * u2, norm="forward"))
    assert np.array_equal(advect(u, g).coeffs, spectra * grid.dealias_mask)


@pytest.mark.parametrize("n", [32, 64, 128, 256, 512])
def test_column_transforms_match_irfft2_and_rfft2(n):
    # the advection kernel's in-place inverse and `_spectra` on the first w
    # columns, for dealiased stacks (w = c) and any field (w = n//2 + 1).
    # The kernel's 8-slice stack is one chunk at N <= 64, 7 + 1 at N=128 and
    # one-slice chunks from N=256
    g = GridSpec(n)
    c = g.dealiased_columns
    assert c == {32: 11, 64: 22, 128: 43, 256: 86, 512: 171}[n]
    rng = np.random.default_rng(n)
    for w in (c, n // 2 + 1):
        fields = np.zeros((3,) + g.shape, dtype=complex)
        fields[..., :w] = rng.standard_normal((3, n, w)) + 1j * rng.standard_normal((3, n, w))
        fields[0, 0, 0] = 0.0  # the velocity's vorticity is mean-zero
        u1, u2 = np.fft.irfft2(g.velocity_symbol * (g.inv_xi_sq * fields[0]), s=(n, n),
                               norm="forward")
        d = np.fft.irfft2(g.grad_symbol * fields[:, None], s=(n, n), norm="forward")
        products = d[:, 0] * u1 + d[:, 1] * u2
        want = grid_module._symmetrize_columns(np.fft.rfft2(products, norm="forward"))
        got = grid_module._advection(g, fields[..., :w].copy())
        assert got.shape == (3, n, w) and np.array_equal(got, want[..., :w])
        samples = rng.standard_normal((6, n, n))
        want = grid_module._symmetrize_columns(np.fft.rfft2(samples, norm="forward"))
        assert np.array_equal(grid_module._spectra(g, samples, w), want[..., :w])


def _counting(monkeypatch, name):
    calls = []
    real = getattr(grid_module, name)

    def counted(*args, **kwargs):
        calls.append(args[0].shape[:-2])
        return real(*args, **kwargs)

    monkeypatch.setattr(grid_module, name, counted)
    return calls


def test_transforms_split_a_stack_under_the_cap(grid, monkeypatch):
    # a cap of two slices: a 5-stack takes three calls of each pass, and
    # each slice's numbers are those of a call on it alone
    coeffs = np.stack([random_real_field(grid, seed=s).coeffs for s in range(5)])
    samples = np.stack([inverse_transform(SpectralField(grid, c)) for c in coeffs])
    one_by_one = [grid_module._samples(grid, c) for c in coeffs]
    spectra = [grid_module._spectra(grid, x) for x in samples]
    monkeypatch.setattr(grid_module, "TRANSFORM_CALL_BYTES", 2 * coeffs[0].nbytes)
    inverse, forward = _counting(monkeypatch, "irfft"), _counting(monkeypatch, "rfft")
    kept = coeffs.copy()
    assert all(np.array_equal(a, b) for a, b in
               zip(grid_module._samples(grid, coeffs), one_by_one, strict=True))
    assert np.array_equal(coeffs, kept)  # the inverse leaves its input intact
    assert all(np.array_equal(a, b) for a, b in
               zip(grid_module._spectra(grid, samples), spectra, strict=True))
    assert inverse == forward == [(2,), (2,), (1,)]


@pytest.mark.parametrize("slices", [1, 2, 4, 7])
def test_advect_is_the_same_under_any_cap(grid, monkeypatch, slices):
    u = biot_savart(random_real_field(grid, seed=7).drop_mean())
    fields = [random_real_field(grid, seed=s) for s in (8, 9, 10)]
    fresh = [advect(u, f).coeffs for f in fields]
    monkeypatch.setattr(grid_module, "TRANSFORM_CALL_BYTES", slices * fields[0].coeffs.nbytes)
    u = VectorField(u.u1, u.u2)  # without the kept samples
    assert all(np.array_equal(a.coeffs, b) for a, b in zip(advect(u, *fields), fresh, strict=True))


def test_conjugate_columns_act_slice_by_slice(grid):
    rng = np.random.Generator(np.random.Philox(key=np.uint64(3)))
    stack = rng.standard_normal((3,) + grid.shape) + 1j * rng.standard_normal((3,) + grid.shape)
    cols = grid_module._self_conjugate_columns(stack)
    gaps = np.abs(cols - grid_module._partner(cols))
    for c, gap in zip(stack, gaps, strict=True):
        one = grid_module._self_conjugate_columns(c)
        assert np.array_equal(gap, np.abs(one - grid_module._partner(one)))
    symmetric = grid_module._symmetrize_columns(stack.copy())
    for c, sym in zip(stack, symmetric, strict=True):
        assert np.array_equal(sym, grid_module._symmetrize_columns(c.copy()))


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0, np.inf])
def test_batched_norms_match_single_fields(grid, p):
    fields = [random_real_field(grid, seed=s) for s in (10, 11, 12)]
    batch = lp_norms_unchecked(grid, np.stack([f.coeffs for f in fields]), p)
    single = [lp_norms_unchecked(grid, f.coeffs, p) for f in fields]
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


def test_load_rejects_foreign_npz(tmp_path):
    path = tmp_path / "other.npz"
    # a foreign format, and snapshots of no kind or of the "samples" kind no longer written
    for header in ({"format": "something-else"}, {"format": "strat2d-field-v1"},
                   {"format": "strat2d-field-v1", "kind": "samples"}):
        np.savez(path, data=np.zeros(3), **{k: np.array(v) for k, v in header.items()})
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
    # the stack is (e, conj e), and on w columns it is the first w columns
    # of the half-spectrum stack, bit for bit
    stack = phase_multiplier(grid, 40.0 * 0.3)
    assert stack.shape == (2,) + grid.shape
    assert np.array_equal(stack[1], np.conj(stack[0]))
    c = grid.dealiased_columns
    assert np.array_equal(phase_multiplier(grid, 40.0 * 0.3, c), stack[..., :c])
    # the Nyquist rule makes the phase 1 on the k1 = -n/2 row: every entry is
    # unimodular and e(s) e(t) = e(s + t) holds on the whole half spectrum,
    # for both slices
    assert np.abs(np.abs(stack) - 1.0).max() < 1e-15
    assert np.abs(stack[:, grid.n // 2] - 1.0).max() == 0.0
    both = phase_multiplier(grid, 40.0 * 0.3) * phase_multiplier(grid, 40.0 * 0.4)
    assert np.abs(both - phase_multiplier(grid, 40.0 * 0.7)).max() < 1e-13
    # off the Nyquist row it is the full-spectrum symbol exp(i kappa t xi1/|xi|)
    xi1, xi2 = full_wavevectors(grid)
    xi_abs = np.hypot(xi1, xi2)
    ref = np.exp(1j * 40.0 * 0.3 * np.divide(xi1, xi_abs, out=np.zeros_like(xi1), where=xi_abs > 0))
    rows = np.arange(grid.n) != grid.n // 2
    assert np.abs(stack[0, rows] - half(ref)[rows]).max() < 1e-14


def _readers(tree: ast.AST, name: str, scope: str = ""):
    """The qualified names of the functions and classes whose code names
    `name`: as an attribute, a variable, a string or a definition."""
    for node in ast.iter_child_nodes(tree):
        inner = scope
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = f"{scope}.{node.name}" if scope else node.name
        if name in (getattr(node, "attr", None), getattr(node, "id", None),
                    getattr(node, "value", None), getattr(node, "name", None)):
            yield inner
        yield from _readers(node, name, inner)


def test_the_stratified_phase_has_one_home():
    # e^{+-i s xi1/|xi|} is built by phase_multiplier alone, apart from the
    # strichartz nodes' gathered support (`dispersive._node_norms`)
    package = Path(grid_module.__file__).parent
    readers = {f"{path.stem}.{where}"
               for path in package.glob("*.py")
               for where in _readers(ast.parse(path.read_text()), "xi1_over_abs")}
    assert readers == {"grid.GridSpec.xi1_over_abs", "grid.phase_multiplier",
                       "dispersive._node_norms"}


def test_the_diagonal_variables_have_one_home():
    # V+- = omega +- Lambda rho and its inverse are formed from their symbols
    # by diagonal_stack and merged_stack alone
    package = Path(grid_module.__file__).parent
    readers = {f"{path.stem}.{where}"
               for path in package.glob("*.py")
               for symbol in ("signed_xi_abs", "merge_symbol")
               for where in _readers(ast.parse(path.read_text()), symbol)}
    assert readers == {"grid.GridSpec.signed_xi_abs", "grid.GridSpec.merge_symbol",
                       "grid.diagonal_stack", "grid.merged_stack"}


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
    bank = dyadic_bank(grid)
    x1, _ = grid.meshgrid()
    c = forward_transform(grid, np.cos(x1)).coeffs
    # round-off-sized content in the top band on the self-conjugate column
    # k2 = 0, with no conjugate partner: its band projection alone is far from
    # Hermitian, the field is not
    top = np.argmax(bank.psi_hat(bank.j_max)[:, 0])
    c[top, 0] += 1e-13
    spec = BesovSpec(s=0.0, p=np.inf, q=1.0)
    assert besov_norm(SpectralField(grid, c), spec) > 0
    c[top, 0] += 1e-3
    with pytest.raises(HermitianSymmetryError):
        besov_norm(SpectralField(grid, c), spec)


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

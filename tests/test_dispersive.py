import numpy as np
import pytest

from strat2d.bands import BesovSpec, besov_norm, dyadic_bank
from strat2d import dispersive
from strat2d import grid as grid_module
from strat2d.dispersive import (
    NODE_BLOCK,
    SIGNS,
    Kappa0Inputs,
    StrichartzSample,
    admissible,
    besov_strichartz_measure,
    diagonalize,
    duhamel_residual,
    fit_slope,
    kappa0_estimate,
    semigroup_apply,
    strichartz_measure,
    strichartz_measures,
)
from strat2d.errors import HermitianSymmetryError, NonzeroMeanError
from strat2d.fields import coherent_band_field, random_field, random_spectrum
from strat2d.grid import (
    GridSpec,
    SpectralField,
    dealias,
    forward_transform,
    hminus1_norm,
    inverse_transform,
    lp_norm,
    lp_norms_unchecked,
    merged_stack,
    phase_multiplier,
)
from strat2d.solver import StepperConfig, run


@pytest.fixture(scope="module")
def grid():
    return GridSpec(64)


@pytest.fixture(scope="module")
def bank(grid):
    return dyadic_bank(grid)


def test_semigroup_axis_mode_half_period(grid):
    # on the xi2 = 0 axis the phase speed is sign(xi1): at t = pi/kappa the
    # mode flips sign
    x1, _ = grid.meshgrid()
    f = forward_transform(grid, np.cos(x1))
    kappa = 8.0
    out = semigroup_apply(f, np.pi / kappa, kappa, +1)
    assert np.abs(inverse_transform(out) + np.cos(x1)).max() < 1e-12


def test_semigroup_x1_independent_data_fixed(grid):
    _, x2 = grid.meshgrid()
    f = forward_transform(grid, np.cos(3 * x2))
    out = semigroup_apply(f, 17.3, 100.0, +1)
    assert np.abs(out.coeffs - f.coeffs).max() < 1e-14


def test_semigroup_isometry_and_group_law(grid):
    f = random_field(grid, seed=1, xi_lo=0.5, xi_hi=8.0)
    kappa = 37.0
    out = semigroup_apply(f, 0.7, kappa, +1)
    assert abs(lp_norm(out, 2) - lp_norm(f, 2)) < 1e-13 * lp_norm(f, 2)
    assert abs(hminus1_norm(out) - hminus1_norm(f)) < 1e-12 * hminus1_norm(f)
    two_steps = semigroup_apply(semigroup_apply(f, 0.3, kappa, +1), 0.4, kappa, +1)
    assert np.abs(two_steps.coeffs - out.coeffs).max() < 1e-13


def test_semigroup_mean_guard(grid):
    f = forward_transform(grid, np.ones((grid.n, grid.n)))
    with pytest.raises(NonzeroMeanError):
        semigroup_apply(f, 1.0, 1.0, +1)
    with pytest.raises(ValueError):
        semigroup_apply(f.drop_mean(), 1.0, 1.0, 2)


def test_diagonalize_round_trip(grid):
    omega, rho = random_spectrum(grid, seed=2, xi_lo=0.5, xi_hi=8.0)
    rho = rho.with_mean(0.7)
    vp, vm = diagonalize(omega, rho)
    om2, rho2 = merged_stack(grid, (vp.coeffs, vm.coeffs), rho_mean=rho.mean)
    assert np.abs(om2 - omega.coeffs).max() < 1e-12
    assert np.abs(rho2 - rho.coeffs).max() < 1e-12


def test_diagonalize_examples(grid):
    x1, _ = grid.meshgrid()
    rho = forward_transform(grid, np.cos(x1))
    zero = SpectralField(grid, np.zeros_like(rho.coeffs))
    vp, vm = diagonalize(zero, rho)
    assert np.abs(inverse_transform(vp) - np.cos(x1)).max() < 1e-12
    assert np.abs(inverse_transform(vm) + np.cos(x1)).max() < 1e-12
    omega = forward_transform(grid, np.cos(x1))
    vp, vm = diagonalize(omega, zero)
    assert np.abs(vp.coeffs - omega.coeffs).max() == 0.0
    assert np.abs(vm.coeffs - omega.coeffs).max() == 0.0


def test_strichartz_admissibility():
    with pytest.raises(ValueError):
        StrichartzSample(kappa=1.0, gamma=4.0, r=2.0, t_max=1.0, nodes=10, value=1.0)


def test_strichartz_refuses_inadmissible_pair_before_any_node(grid, monkeypatch):
    def no_node(*args, **kwargs):
        raise AssertionError("a time node was evaluated")

    monkeypatch.setattr(dispersive, "sample_lp_norms", no_node)
    f = coherent_band_field(grid, seed=0)
    with pytest.raises(ValueError, match="inadmissible"):
        strichartz_measure(f, 16.0, 4.0, 4.0, 0.5)
    assert not admissible(4.0, 4.0) and admissible(4.0, np.inf) and admissible(8.0, 4.0)


def test_strichartz_r2_analytic(grid, bank):
    # at r = 2 the integrand is constant in time (unimodular multiplier),
    # and (gamma, r) = (inf, 2) is the admissible corner: the value is
    # exactly the L2 norm of the cutoff data, independent of kappa
    f = coherent_band_field(grid, seed=0, xi_center=1.15)
    cut = SpectralField(grid, bank.psi_hat(0) * f.coeffs)
    for kappa in (4.0, 64.0):
        sample = strichartz_measure(f, kappa, np.inf, 2.0, 0.5)
        assert abs(sample.value - lp_norm(cut, 2)) < 1e-12 * lp_norm(cut, 2)


def test_strichartz_node_refinement(grid):
    f = coherent_band_field(grid, seed=1)
    kappa = 32.0
    base = strichartz_measure(f, kappa, 4.0, np.inf, 0.5)
    fine = strichartz_measure(f, kappa, 4.0, np.inf, 0.5, nodes=2 * base.nodes)
    assert abs(fine.value - base.value) < 0.005 * base.value


def test_strichartz_node_spacing_guard(grid):
    f = coherent_band_field(grid, seed=2)
    with pytest.raises(ValueError):
        strichartz_measure(f, 100.0, 4.0, np.inf, 1.0, nodes=10)


def test_strichartz_gamma_infinity(grid):
    f = coherent_band_field(grid, seed=3)
    sample = strichartz_measure(f, 16.0, np.inf, np.inf, 0.5)
    # sup over nodes of a bounded quantity
    assert 0 < sample.value <= lp_norm(f, np.inf) * 1.5


@pytest.mark.parametrize("cutoff", ["band0", "ones"])
@pytest.mark.parametrize("sign", SIGNS)
@pytest.mark.parametrize("r, gamma", [(np.inf, 4.0), (4.0, 8.0)])
def test_strichartz_matches_per_node_reference(grid, bank, r, gamma, sign, cutoff):
    # white noise reaches every mode; the all-ones cutoff keeps the k1 = -n/2
    # row, whose propagated copy is not Hermitian
    noise = np.random.default_rng(11).standard_normal((grid.n, grid.n))
    f = forward_transform(grid, noise).drop_mean()
    cutoff_hat = bank.psi_hat(0) if cutoff == "band0" else np.ones(grid.shape)
    kappa, t_max, nodes = 16.0, 0.5, 35
    assert nodes % NODE_BLOCK  # the last block is partial
    sample = strichartz_measure(f, kappa, gamma, r, t_max, nodes=nodes,
                                cutoff_hat=cutoff_hat, sign=sign)
    # the per-node loop: one propagated copy of f, transformed on its own
    times = np.linspace(0.0, t_max, nodes)
    vals = np.array([
        lp_norms_unchecked(
            grid, cutoff_hat * phase_multiplier(grid, sign * kappa * t)[0] * f.coeffs, r)
        for t in times
    ])
    expected = np.trapezoid(vals**gamma, times) ** (1.0 / gamma)
    assert abs(sample.value - expected) < 1e-12 * expected


@pytest.fixture(scope="module")
def wide_grid():
    # the benchmark's box: band 0 holds enough modes to disperse
    return GridSpec(64, box_scale=8.0)


LADDER = [2.0**e for e in range(4, 8)]


@pytest.mark.parametrize("gamma, r", [(4.0, np.inf), (8.0, 4.0)])
@pytest.mark.parametrize("kappas, t_max", [
    (LADDER, 0.5),  # every kappa's phase arguments are j/4: all shared
    ([10.0, 20.0, 30.0, 45.5], 0.37),  # 4 kappa T not an integer
    ([0.0, 16.0], 0.5),  # kappa = 0: the argument 0 at every node
    ([16.0, -16.0, 32.0, 16.0], 0.5),  # +-kappa and a repeat
])
def test_strichartz_measures_equal_one_kappa_measurements(wide_grid, kappas, t_max, gamma, r):
    f = coherent_band_field(wide_grid, seed=3)
    samples = strichartz_measures(f, kappas, gamma, r, t_max)
    assert samples == [strichartz_measure(f, kappa, gamma, r, t_max)
                       for kappa in kappas]


@pytest.mark.parametrize("kappas, t_max, syntheses", [
    # the ladder's union is the largest kappa's nodes: 4 kappa_max T + 1,
    # not the 484 of the sum over kappa
    (LADDER, 0.5, 4 * max(LADDER) * 0.5 + 1),
    # of 162 nodes, 35 share an argument exactly; 13 more lie within 1e-9 of
    # another argument without being equal, and are not shared
    ([10.0, 20.0, 30.0, 45.5], 0.37, 127),
])
def test_strichartz_measures_synthesize_each_phase_argument_once(wide_grid, monkeypatch,
                                                                  kappas, t_max, syntheses):
    synthesized = []

    class Counting(grid_module.SupportSynthesis):
        def __call__(self, coeffs):
            synthesized.append(len(coeffs))
            return super().__call__(coeffs)

    monkeypatch.setattr(dispersive, "SupportSynthesis", Counting)
    f = coherent_band_field(wide_grid, seed=0)
    samples = strichartz_measures(f, kappas, 4.0, np.inf, t_max)
    assert sum(synthesized) == syntheses < sum(sample.nodes for sample in samples)


@pytest.mark.parametrize("r", [np.inf, 4.0])
def test_strichartz_empty_support_is_zero(grid, bank, r):
    # band-0 data measured under the top band's cutoff: nothing is left
    f = SpectralField(grid, bank.psi_hat(0) * coherent_band_field(grid, seed=0).coeffs)
    cutoff_hat = bank.psi_hat(bank.j_max)
    assert np.any(f.coeffs) and not np.any(cutoff_hat * f.coeffs)
    sample = strichartz_measure(f, 16.0, 8.0, r, 0.5, cutoff_hat=cutoff_hat)
    assert sample.value == 0.0


def test_strichartz_mean_guard(grid):
    f = coherent_band_field(grid, seed=8).with_mean(0.3)
    with pytest.raises(NonzeroMeanError):
        strichartz_measure(f, 16.0, 4.0, np.inf, 0.5)


def test_strichartz_hermitian_guard(grid):
    # random data is not Hermitian along the self-conjugate columns k2 = 0, n/2
    rng = np.random.default_rng(12)
    c = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    c[0, 0] = 0.0
    with pytest.raises(HermitianSymmetryError):
        strichartz_measure(SpectralField(grid, c), 16.0, 4.0, np.inf, 0.5)


def test_besov_strichartz_validation(grid):
    f = coherent_band_field(grid, seed=4)
    with pytest.raises(ValueError):
        besov_strichartz_measure(f, 16.0, 8.0, np.inf, 4.0, 0.0, 0.5)
    with pytest.raises(ValueError, match="sign"):
        besov_strichartz_measure(f, 16.0, 4.0, np.inf, 4.0, 0.0, 0.5, sign=2)


def test_besov_strichartz_refuses_inadmissible_pair_before_any_node(grid, monkeypatch):
    def no_node(*args, **kwargs):
        raise AssertionError("a time node was evaluated")

    # every L^r reduction of a node, blocked or band by band
    monkeypatch.setattr(dispersive, "sample_lp_norms", no_node)
    monkeypatch.setattr(grid_module, "sample_lp_norms", no_node)
    f = coherent_band_field(grid, seed=4)
    with pytest.raises(ValueError, match="inadmissible"):
        besov_strichartz_measure(f, 16.0, 4.0, 4.0, 4.0, 0.0, 0.5)


@pytest.mark.parametrize("data", ["packet", "noise"])
@pytest.mark.parametrize("sign", SIGNS)
@pytest.mark.parametrize("r, gamma, q", [(np.inf, 4.0, 4.0), (4.0, 8.0, 8.0),
                                         (np.inf, 4.0, np.inf)])
def test_besov_strichartz_matches_per_node_reference(grid, r, gamma, q, sign, data):
    if data == "packet":
        f = coherent_band_field(grid, seed=7)
    else:
        noise = np.random.default_rng(13).standard_normal((grid.n, grid.n))
        f = dealias(forward_transform(grid, noise)).drop_mean()
    kappa, s, t_max, nodes = 16.0, 0.5, 0.5, 35
    assert nodes % NODE_BLOCK  # the last block is partial
    sample = besov_strichartz_measure(f, kappa, gamma, r, q, s, t_max, nodes=nodes, sign=sign)
    # the per-node loop: the Besov norm of each propagated copy of f
    spec = BesovSpec(s=s, p=r, q=q, homogeneous=True)
    times = np.linspace(0.0, t_max, nodes)
    vals = np.array([besov_norm(semigroup_apply(f, t, kappa, sign), spec) for t in times])
    expected = np.trapezoid(vals**gamma, times) ** (1.0 / gamma)
    assert abs(sample.value - expected) < 1e-12 * expected


def test_besov_strichartz_sign_symmetry(grid):
    f = coherent_band_field(grid, seed=5)
    a = besov_strichartz_measure(f, 16.0, 4.0, np.inf, 4.0, 0.0, 0.5)
    b = besov_strichartz_measure(f, -16.0, 4.0, np.inf, 4.0, 0.0, 0.5)
    assert abs(a.value - b.value) < 1e-10 * a.value


def test_besov_strichartz_single_band_reduction(grid, bank):
    # r = 2 band norms are invariant under the unimodular propagator, so at
    # the admissible corner (gamma, q) = (inf, inf) the value is the Besov
    # norm of the data itself
    f = coherent_band_field(grid, seed=6)
    cut = SpectralField(grid, bank.psi_hat(0) * f.coeffs)
    a = besov_strichartz_measure(cut, 16.0, np.inf, 2.0, np.inf, 0.0, 0.5)
    expected = besov_norm(cut, BesovSpec(0.0, 2.0, np.inf))
    assert abs(a.value - expected) < 1e-10 * expected


def test_fit_slope_needs_six_points():
    with pytest.raises(ValueError):
        fit_slope([1, 2, 4], [1.0, 0.5, 0.25])
    slope = fit_slope([1, 2, 4, 8, 16, 32], [2.0 ** (-0.5 * k) for k in range(6)])
    assert abs(slope + 0.5) < 1e-12


def test_duhamel_linear_run(grid):
    omega, rho = random_spectrum(grid, seed=3, amplitude=0.05, xi_lo=0.5, xi_hi=4.0)
    kappa = 8.0
    traj = run(omega, rho, kappa, 1.0, StepperConfig(scheme="ifrk4", dt=0.005),
               n_samples=21, store_snapshots=True, nonlinear=False)
    rp = duhamel_residual(traj, kappa, +1)
    rm = duhamel_residual(traj, kappa, -1)
    assert rp.max() < 1e-10
    assert rm.max() < 1e-10
    assert np.abs(rp - rm).max() < 1e-10


def test_duhamel_snapshot_spacing_guard(grid):
    omega, rho = random_spectrum(grid, seed=3, amplitude=0.05, xi_lo=0.5, xi_hi=4.0)
    traj = run(omega, rho, 64.0, 1.0, StepperConfig(scheme="ifrk4", dt=0.005),
               n_samples=5, store_snapshots=True)
    with pytest.raises(ValueError):
        duhamel_residual(traj, 64.0)
    # a sign outside SIGNS is refused, also where the spacing passes
    for sign in (0, 2):
        with pytest.raises(ValueError, match="sign"):
            duhamel_residual(traj, 1.0, sign)


def test_kappa0_limits_and_monotonicity():
    gamma = 4.0
    tiny = kappa0_estimate(Kappa0Inputs(t=1.0, z=1e-12, c6=1.0, c7=1.0, gamma=gamma))[0]
    assert abs(tiny - 2.0**gamma) < 1e-6
    val, flag = kappa0_estimate(Kappa0Inputs(t=1.0, z=1.0, c6=1.0, c7=1.0, gamma=gamma))
    assert not flag
    assert abs(val - (2 * (1 + np.e)) ** 4) < 1e-9 * val
    # monotone in each argument
    base = Kappa0Inputs(t=1.0, z=1.0, c6=1.0, c7=1.0, gamma=gamma)
    for bumped in (
        Kappa0Inputs(t=2.0, z=1.0, c6=1.0, c7=1.0, gamma=gamma),
        Kappa0Inputs(t=1.0, z=2.0, c6=1.0, c7=1.0, gamma=gamma),
        Kappa0Inputs(t=1.0, z=1.0, c6=2.0, c7=1.0, gamma=gamma),
        Kappa0Inputs(t=1.0, z=1.0, c6=1.0, c7=2.0, gamma=gamma),
    ):
        assert kappa0_estimate(bumped)[0] > val


def test_kappa0_overflow_flag():
    val, flag = kappa0_estimate(Kappa0Inputs(t=10.0, z=100.0, c6=10.0, c7=10.0, gamma=8.0))
    assert flag
    assert val == float("inf")
    with pytest.raises(ValueError):
        Kappa0Inputs(t=-1.0, z=1.0, c6=1.0, c7=1.0, gamma=4.0)

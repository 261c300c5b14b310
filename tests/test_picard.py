import json
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from strat2d import solver
from strat2d.bands import BesovSpec, DyadicBank, besov_norm, intersection_norm
from strat2d.dispersive import diagonalize, semigroup_apply
from strat2d.errors import Strat2dError
from strat2d.fields import random_field, random_spectrum
from strat2d.grid import (
    GridSpec,
    SpectralField,
    VectorField,
    _samples,
    biot_savart,
    forward_transform,
    lp_norm,
)
from strat2d.picard import (
    FrozenVelocity,
    _CubicSpline,
    cauchy_ratios,
    linear_solve,
    mollify_initial,
    picard_run,
    uniformity_report,
)
from strat2d.solver import StepperConfig


@pytest.fixture(scope="module")
def grid():
    return GridSpec(64)


@pytest.fixture(scope="module")
def bank(grid):
    return DyadicBank(grid)


@pytest.fixture(scope="module")
def smooth_data(grid):
    omega = random_field(grid, seed=7, xi_lo=0.5, xi_hi=2.5, amplitude=1.0, stream=0)
    rho = random_field(grid, seed=7, xi_lo=0.5, xi_hi=2.5, amplitude=1.0, stream=1)
    return omega, rho


def zero_field(grid):
    return SpectralField(grid, np.zeros(grid.shape, dtype=complex))


def test_mollify_low_data_unchanged(grid, bank, smooth_data):
    omega, rho = smooth_data  # spectrum inside |xi| <= 2.5, S_2 plateau is |xi| <= 5
    om, rh = mollify_initial(omega, rho, 0, bank)
    assert np.abs(om.coeffs - omega.coeffs).max() < 1e-14
    assert np.abs(rh.coeffs - rho.coeffs).max() < 1e-14


def test_mollify_removes_high_mode(grid, bank):
    x1, _ = grid.meshgrid()
    omega = forward_transform(grid, np.cos(9 * x1))  # above the S_2 support 7/4*4 = 7
    om, _ = mollify_initial(omega, zero_field(grid), 0, bank)
    assert om.coefficient_norm() < 1e-14


def test_mollify_keeps_density_mean(grid, bank):
    rho = forward_transform(grid, np.full((grid.n, grid.n), 2.0))
    _, rh = mollify_initial(zero_field(grid), rho, 3, bank)
    assert abs(rh.mean - 2.0) < 1e-14
    with pytest.raises(ValueError):
        mollify_initial(zero_field(grid), rho, -1, bank)


def test_mollify_near_contraction(grid, bank):
    # the low-pass multiplier is in [0, 1], so the data norm cannot grow
    omega = random_field(grid, seed=13, xi_lo=0.5, xi_hi=8.0)
    rho = random_field(grid, seed=14, xi_lo=0.5, xi_hi=8.0)
    base = intersection_norm(omega, 1.0, 1.0, bank) + besov_norm(
        rho, BesovSpec(s=2.0, q=1.0, homogeneous=False), bank
    )
    for n in range(4):
        om, rh = mollify_initial(omega, rho, n, bank)
        moll = intersection_norm(om, 1.0, 1.0, bank) + besov_norm(
            rh, BesovSpec(s=2.0, q=1.0, homogeneous=False), bank
        )
        assert moll <= (1.0 + 0.01) * base


def test_frozen_velocity_interpolation(grid):
    # spline through snapshots of a linear-in-time field reproduces it
    omega = random_field(grid, seed=20, xi_lo=0.5, xi_hi=4.0)
    u = biot_savart(omega)
    times = np.linspace(0.0, 1.0, 11)
    snaps = [VectorField(u.u1 * (1.0 + t), u.u2 * (1.0 + t)) for t in times]
    frozen = FrozenVelocity(times, snaps)
    probe = frozen(0.517)
    assert np.abs(probe.u1.coeffs - (1.517) * u.u1.coeffs).max() < 1e-10
    with pytest.raises(ValueError):
        frozen(1.5)


def test_frozen_velocity_constant(grid):
    omega = random_field(grid, seed=21, xi_lo=0.5, xi_hi=4.0)
    u = biot_savart(omega)
    frozen = FrozenVelocity.constant(u)
    assert np.abs(frozen(0.3).u1.coeffs - u.u1.coeffs).max() == 0.0


def test_linear_solve_zero_velocity_matches_semigroup(grid, bank, smooth_data):
    omega0, rho0 = smooth_data
    kappa = 24.0
    frozen = FrozenVelocity.constant(
        VectorField(zero_field(grid), zero_field(grid))
    )
    cfg = StepperConfig(scheme="ifrk4", dt=0.01)
    traj = linear_solve(frozen, omega0, rho0, kappa, 1.0, cfg,
                        n_samples=3, bank=bank, store_snapshots=True)
    vp0, _ = diagonalize(omega0, rho0)
    vpT = semigroup_apply(vp0, 1.0, kappa, +1)
    vp1, _ = diagonalize(traj.snapshots[-1].omega, traj.snapshots[-1].rho)
    err = np.abs(vp1.coeffs - vpT.coeffs).max() / np.abs(vp0.coeffs).max()
    assert err < 1e-10


def test_linear_solve_steady_shear_conserves_density(grid, bank):
    # kappa = 0 with a frozen steady shear: rho is purely transported
    _, x2 = grid.meshgrid()
    shear = VectorField(forward_transform(grid, np.sin(x2)), zero_field(grid))
    frozen = FrozenVelocity.constant(shear)
    rho0 = random_field(grid, seed=30, xi_lo=0.5, xi_hi=4.0)
    cfg = StepperConfig(scheme="rk4", dt=2e-3)
    traj = linear_solve(frozen, zero_field(grid), rho0, 0.0, 0.5, cfg,
                        n_samples=3, bank=bank, store_snapshots=True)
    final = traj.snapshots[-1].rho
    assert abs(lp_norm(final, 2) - lp_norm(rho0, 2)) < 1e-8 * lp_norm(rho0, 2)


def test_picard_zero_data(grid, bank):
    cfg = StepperConfig(scheme="ifrk4", dt=0.01)
    traces = picard_run(zero_field(grid), zero_field(grid), 8.0, 0.1, 2, cfg,
                        n_samples=6, bank=bank)
    assert all(tr.sup_a == 0.0 for tr in traces)
    assert all(tr.sup_a_bar == 0.0 for tr in traces if tr.a_bar is not None)
    with pytest.raises(ValueError):
        picard_run(zero_field(grid), zero_field(grid), 8.0, 0.1, 0, cfg, bank=bank)


def test_picard_uniform_bound_and_decay(grid, bank, smooth_data):
    omega0, rho0 = smooth_data
    cfg = StepperConfig(scheme="ifrk4", dt=0.01)
    traces = picard_run(omega0, rho0, 16.0, 0.25, 6, cfg, n_samples=26, bank=bank)
    a0 = traces[0].a0
    assert max(tr.sup_a for tr in traces) <= 1.2 * a0
    ratios = cauchy_ratios(traces)
    assert np.all(ratios[2:] <= 0.6)


def test_picard_deterministic(grid, bank, smooth_data):
    omega0, rho0 = smooth_data
    cfg = StepperConfig(scheme="ifrk4", dt=0.02)
    t1 = picard_run(omega0, rho0, 4.0, 0.1, 2, cfg, n_samples=6, bank=bank)
    t2 = picard_run(omega0, rho0, 4.0, 0.1, 2, cfg, n_samples=6, bank=bank)
    for a, b in zip(t1, t2):
        assert np.array_equal(a.a, b.a)


def test_uniformity_report(grid, bank, smooth_data):
    omega0, rho0 = smooth_data
    cfg = StepperConfig(scheme="ifrk4", dt=0.01)
    traces_by_kappa = {
        kappa: picard_run(omega0, rho0, kappa, 0.2, 3, cfg, n_samples=11, bank=bank)
        for kappa in (0.0, 16.0)
    }
    rep = uniformity_report(traces_by_kappa)
    assert set(rep["sup_ratio_by_kappa"]) == {0.0, 16.0}
    assert rep["spread"] >= 1.0
    assert isinstance(rep["pass"], bool)


def test_frozen_sampling_refinement(grid, bank, smooth_data):
    # doubling the stored-velocity sampling density changes the difference
    # traces by well under 1%
    omega0, rho0 = smooth_data
    cfg = StepperConfig(scheme="ifrk4", dt=0.01)
    sups = []
    for n_samples in (11, 21):
        traces = picard_run(omega0, rho0, 16.0, 0.2, 3, cfg,
                            n_samples=n_samples, bank=bank)
        sups.append(traces[-1].sup_a_bar)
    assert abs(sups[1] - sups[0]) < 0.01 * max(sups)


with open(Path(__file__).parent / "data" / "picard_n32.json") as fh:
    PICARD_N32 = json.load(fh)


def test_picard_reproduces_recorded_iterates():
    # a_n and a_bar_n of the frozen-transport iteration, recorded as repr floats
    # before its records were cut to z: the cut must not move a single bit
    rec = PICARD_N32
    grid = GridSpec(rec["grid_n"])
    omega, rho = random_spectrum(grid, seed=rec["seed"], amplitude=rec["amplitude"],
                                 xi_lo=rec["xi_lo"], xi_hi=rec["xi_hi"], kmax=rec["kmax"])
    cfg = StepperConfig(scheme=rec["scheme"], dt=rec["dt"])
    for kappa, expected in rec["kappas"].items():
        traces = picard_run(omega, rho, float(kappa), rec["t_final"], rec["n_max"], cfg,
                            n_samples=rec["n_samples"])
        assert traces[0].a0 == expected["a0"]
        assert [tr.a.tolist() for tr in traces] == expected["a_n"]
        assert [None if tr.a_bar is None else tr.a_bar.tolist()
                for tr in traces] == expected["a_bar_n"]


def _spline_case(m, uniform, seed):
    """Times and complex samples of shape (m, 2, 6, 4), a few entries zero."""
    rng = np.random.default_rng(seed)
    if uniform:
        x = np.linspace(0.0, 0.25, m)
    else:
        x = np.cumsum(rng.uniform(0.01, 1.0, m) ** 3) - 0.3
    y = rng.standard_normal((m, 2, 6, 4)) + 1j * rng.standard_normal((m, 2, 6, 4))
    y[:, 0, 0, 0] = 0.0
    y[:, 1, 0, 0] = -0.0
    return x, y


def _spline_queries(x, seed):
    """The breakpoints and points between them."""
    rng = np.random.default_rng(seed)
    return [*x, *rng.uniform(x[0], x[-1], 12), *(0.5 * (x[1:] + x[:-1]))]


@pytest.mark.parametrize("uniform", [True, False])
@pytest.mark.parametrize("m", [4, 5, 6, 11, 21, 26])
def test_spline_matches_scipy_bit_for_bit(m, uniform):
    interpolate = pytest.importorskip("scipy.interpolate")
    x, y = _spline_case(m, uniform, seed=m)
    ours, ref = _CubicSpline(x, y), interpolate.CubicSpline(x, y, axis=0)
    # the samples and slopes at the knots; s[-1] enters the last piece's answers
    assert ours.y[:-1].view(np.uint64).tolist() == ref.c[3].view(np.uint64).tolist()
    assert ours.s[:-1].view(np.uint64).tolist() == ref.c[2].view(np.uint64).tolist()
    for t in _spline_queries(x, seed=m):
        assert np.array_equal(ours(t).view(np.uint64), ref(t).view(np.uint64)), t


@pytest.mark.parametrize("uniform", [True, False])
def test_two_and_three_sample_splines_match_scipy(uniform):
    interpolate = pytest.importorskip("scipy.interpolate")
    x, y = _spline_case(2, uniform, seed=2)
    ours, ref = _CubicSpline(x, y), interpolate.CubicSpline(x, y, axis=0)
    assert np.array_equal(ours.y[:-1], ref.c[3]) and np.array_equal(ours.s[:-1], ref.c[2])
    assert np.array_equal(ours.s[0], ours.s[1])  # the chord
    for t in _spline_queries(x, seed=2):
        assert np.array_equal(ours(t), ref(t))
    x, y = _spline_case(3, uniform, seed=3)
    ours, ref = _CubicSpline(x, y), interpolate.CubicSpline(x, y, axis=0)
    scale = np.abs(ref.c).max()
    assert np.array_equal(ours.y[:-1], ref.c[3])
    assert np.abs(ours.s[:-1] - ref.c[2]).max() <= 1e-14 * scale
    for t in _spline_queries(x, seed=3):
        want = ref(t)
        assert np.abs(ours(t) - want).max() <= 1e-14 * np.abs(want).max()


def test_spline_fit_stays_within_three_and_a_half_sample_stacks():
    # a (26, 2, 64, 22) stack, picard-n64's: the fit peaks at 2.08 sample
    # stacks and keeps its slopes, 1.00; the former form, four coefficients
    # per interval, peaked at 5.9 and kept 3.85
    rng = np.random.default_rng(26)
    shape = (26, 2, 64, 22)
    x = np.linspace(0.0, 0.25, shape[0])
    y = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    tracemalloc.start()
    try:
        spline = _CubicSpline(x, y)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * y.nbytes
    assert kept <= 1.1 * y.nbytes


def test_spline_copies_a_strided_view_of_its_samples():
    # on the support columns of a wider stack it keeps no reference to it
    x = np.linspace(0.0, 0.25, 5)
    wide = np.random.default_rng(3).standard_normal((5, 2, 6, 8)).astype(complex)
    spline = _CubicSpline(x, wide[..., :3])
    assert spline.y.flags.c_contiguous and spline.y.base is None
    assert spline.s.flags.c_contiguous and spline.s.shape == spline.y.shape
    full = _CubicSpline(x, wide)
    for t in [0.0, 0.07, 0.25]:
        assert np.array_equal(spline(t), full(t)[..., :3])


def test_spline_refuses_unordered_times():
    y = np.ones((4, 3), complex)
    with pytest.raises(ValueError):
        _CubicSpline(np.array([0.0, 0.1, 0.1, 0.2]), y)


def _counting_spline(frozen):
    """Record the times at which the frozen velocity's spline is evaluated."""
    seen = []
    spline = frozen._spline

    def counted(t):
        seen.append(t)
        return spline(t)

    frozen._spline = counted
    return seen


def test_frozen_velocity_memo(grid):
    omega = random_field(grid, seed=22, xi_lo=0.5, xi_hi=4.0)
    u = biot_savart(omega)
    times = np.linspace(0.0, 1.0, 6)
    snaps = [VectorField(u.u1 * np.cos(t), u.u2 * (1.0 + t**2)) for t in times]
    frozen = FrozenVelocity(times, snaps)
    seen = _counting_spline(frozen)
    # the stage times of two fixed-dt RK steps, then a revisit of an older time
    h = 0.1
    queries = [0.0, h / 2, h / 2, h, h, h + h / 2, h + h / 2, 2 * h, 0.0]
    answers = [frozen(t) for t in queries]
    assert seen == [0.0, h / 2, h, h + h / 2, 2 * h, 0.0]
    assert answers[1] is answers[2] and answers[3] is answers[4]
    for t, got in zip(queries, answers):
        fresh = FrozenVelocity(times, snaps)(t)
        assert np.array_equal(got.u1.coeffs, fresh.u1.coeffs)
        assert np.array_equal(got.u2.coeffs, fresh.u2.coeffs)
    with pytest.raises(ValueError):
        frozen(1.5)


def test_frozen_velocity_on_its_support_matches_the_full_width_spline(grid):
    # the spline runs on the columns some sample reaches; padded, its answers
    # and their samples are the full-width spline's bit for bit
    times = np.linspace(0.0, 0.25, 6)
    zero = SpectralField(grid, np.zeros(grid.shape, dtype=complex))
    undealiased = SpectralField(grid, np.zeros(grid.shape, dtype=complex))
    undealiased.coeffs[3, 25] = 0.5  # cos(3 x1 + 25 x2): column 25 > c = 22
    omegas = [random_field(grid, seed=50 + i, xi_lo=0.5, xi_hi=4.0 + 3 * i) for i in range(4)]
    velocities = [biot_savart(omega) for omega in omegas[:2] + [undealiased, zero] + omegas[2:]]
    frozen = FrozenVelocity(times, velocities)
    assert frozen._spline.y.shape[-1] == 26
    full = _CubicSpline(times, np.stack([np.stack([v.u1.coeffs, v.u2.coeffs])
                                         for v in velocities]))
    rng = np.random.default_rng(5)
    # the knots (the last one on the extrapolated end piece), midpoints, random times
    for t in [*times, *(0.5 * (times[1:] + times[:-1])), *rng.uniform(0.0, 0.25, 6)]:
        u, want = frozen(t), full(t)
        got = np.stack([u.u1.coeffs, u.u2.coeffs])
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), t
        assert np.array_equal(np.stack(u.samples()).view(np.uint64),
                              _samples(grid, want).view(np.uint64)), t


def test_frozen_velocity_from_trajectory_is_biot_savart_of_the_snapshots(grid, bank,
                                                                        smooth_data):
    # one batched Biot-Savart call on the vorticity columns, bit for bit
    omega0, rho0 = smooth_data
    cfg = StepperConfig(scheme="ifrk4", dt=0.01)
    traj = linear_solve(FrozenVelocity.constant(biot_savart(omega0)), omega0, rho0, 16.0, 0.05,
                        cfg, n_samples=6, bank=bank, store_snapshots=True)
    batched = FrozenVelocity.from_trajectory(traj)
    one_by_one = FrozenVelocity([s.t for s in traj.snapshots],
                                [biot_savart(s.omega) for s in traj.snapshots])
    assert batched._spline.y.shape[-1] == grid.dealiased_columns
    for key in "ys":
        assert np.array_equal(getattr(batched._spline, key).view(np.uint64),
                              getattr(one_by_one._spline, key).view(np.uint64)), key


def test_picard_run_keeps_one_frozen_velocity_alive(grid, bank, smooth_data, monkeypatch):
    # the previous iterate's spline is collected before the next one is fitted
    splines, alive = [], []
    fit = _CubicSpline.__init__

    def tracked(self, x, y):
        alive.append(sum(ref() is not None for ref in splines))
        splines.append(weakref.ref(self))
        fit(self, x, y)

    monkeypatch.setattr(_CubicSpline, "__init__", tracked)
    omega0, rho0 = smooth_data
    cfg = StepperConfig(scheme="ifrk4", dt=0.01)
    picard_run(omega0, rho0, 16.0, 0.05, 3, cfg, n_samples=3, bank=bank)
    assert len(alive) >= 2 and not any(alive)


def test_linear_solve_evaluates_each_stage_time_once(grid, bank, smooth_data):
    omega0, rho0 = smooth_data
    u = biot_savart(omega0)
    times = np.linspace(0.0, 0.1, 6)
    frozen = FrozenVelocity(times, [u] * len(times))
    seen = _counting_spline(frozen)
    cfg = StepperConfig(scheme="ifrk4", dt=0.01)
    linear_solve(frozen, omega0, rho0, 8.0, 0.1, cfg, n_samples=6, bank=bank)
    # 10 steps ask for 40 stage times; 21 of them are distinct
    assert len(seen) == len(set(seen)) == 21


def test_picard_runs_without_full_diagnostics(grid, bank, smooth_data, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("picard_run computed a functional other than z")

    for columns in solver.FUNCTIONALS:
        if columns != ("z",):
            monkeypatch.setitem(solver.FUNCTIONALS, columns, refuse)
    omega0, rho0 = smooth_data
    cfg = StepperConfig(scheme="ifrk4", dt=0.01)
    traces = picard_run(omega0, rho0, 16.0, 0.05, 2, cfg, n_samples=3, bank=bank)
    assert len(traces) == 3 and all(np.isfinite(tr.a).all() for tr in traces)


def test_picard_keeps_hermitian_symmetry_exactly(grid, bank, smooth_data):
    # the iterates and the frozen velocity interpolated between their samples
    # (a real spline of Hermitian samples) are Hermitian to the last bit
    omega0, rho0 = smooth_data
    cfg = StepperConfig(scheme="ifrk4", dt=0.01)
    _, snaps = picard_run(omega0, rho0, 16.0, 0.1, 2, cfg, n_samples=6, bank=bank,
                          return_states=True)
    frozen = FrozenVelocity([s.t for s in snaps], [biot_savart(s.omega) for s in snaps])
    velocities = [frozen(t) for t in np.linspace(0.0, 0.1, 37)]
    parts = [f for s in snaps for f in (s.omega, s.rho)]
    parts += [f for u in velocities for f in (u.u1, u.u2)]
    assert [f.hermitian_defect() for f in parts] == [0.0] * len(parts)


def test_picard_iterate_that_blows_up_raises_a_package_error():
    # rk4 at kappa = 1e4 with a coarse step leaves the guard in the first
    # iterate's linear solve: the run is refused as a Strat2dError, not a bare
    # RuntimeError, so callers can tell it from a defect
    grid = GridSpec(32)
    omega0, rho0 = random_spectrum(grid, seed=9, xi_lo=0.5, xi_hi=4.0)
    with np.errstate(invalid="ignore", over="ignore"):
        with pytest.raises(Strat2dError, match="iteration 0 ended in blowup") as info:
            picard_run(omega0, rho0, 1e4, 1.0, 2, StepperConfig(scheme="rk4", dt=0.05),
                       n_samples=3)
    assert type(info.value) is Strat2dError

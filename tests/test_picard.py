import json
import types
import weakref
from pathlib import Path

import numpy as np
import pytest

from strat2d import solver
from strat2d.bands import BesovSpec, besov_norm, intersection_norm
from strat2d import picard
from strat2d.dispersive import diagonalize, semigroup_apply
from strat2d.errors import Strat2dError
from strat2d.fields import random_field, random_spectrum
from strat2d.grid import (
    GridSpec,
    SpectralField,
    VectorField,
    biot_savart,
    forward_transform,
    lp_norm,
    merged_stack,
)
from strat2d.picard import (
    FrozenVelocity,
    _difference_norm,
    cauchy_ratios,
    linear_solve,
    mollify_initial,
    picard_run,
    uniformity_report,
)
from strat2d.solver import SimState, StepperConfig, run


@pytest.fixture(scope="module")
def grid():
    return GridSpec(64)


@pytest.fixture(scope="module")
def smooth_data(grid):
    omega = random_field(grid, seed=7, xi_lo=0.5, xi_hi=2.5, amplitude=1.0, stream=0)
    rho = random_field(grid, seed=7, xi_lo=0.5, xi_hi=2.5, amplitude=1.0, stream=1)
    return omega, rho


def zero_field(grid):
    return SpectralField(grid, np.zeros(grid.shape, dtype=complex))


def test_mollify_low_data_unchanged(grid, smooth_data):
    omega, rho = smooth_data  # spectrum inside |xi| <= 2.5, S_2 plateau is |xi| <= 5
    om, rh = mollify_initial(omega, rho, 0)
    assert np.abs(om.coeffs - omega.coeffs).max() < 1e-14
    assert np.abs(rh.coeffs - rho.coeffs).max() < 1e-14


def test_mollify_removes_high_mode(grid):
    x1, _ = grid.meshgrid()
    omega = forward_transform(grid, np.cos(9 * x1))  # above the S_2 support 7/4*4 = 7
    om, _ = mollify_initial(omega, zero_field(grid), 0)
    assert om.coefficient_norm() < 1e-14


def test_mollify_keeps_density_mean(grid):
    rho = forward_transform(grid, np.full((grid.n, grid.n), 2.0))
    _, rh = mollify_initial(zero_field(grid), rho, 3)
    assert abs(rh.mean - 2.0) < 1e-14
    with pytest.raises(ValueError):
        mollify_initial(zero_field(grid), rho, -1)


def test_mollify_near_contraction(grid):
    # the low-pass multiplier is in [0, 1], so the data norm cannot grow
    omega = random_field(grid, seed=13, xi_lo=0.5, xi_hi=8.0)
    rho = random_field(grid, seed=14, xi_lo=0.5, xi_hi=8.0)
    base = intersection_norm(omega, 1.0, 1.0) + besov_norm(
        rho, BesovSpec(s=2.0, q=1.0, homogeneous=False)
    )
    for n in range(4):
        om, rh = mollify_initial(omega, rho, n)
        moll = intersection_norm(om, 1.0, 1.0) + besov_norm(
            rh, BesovSpec(s=2.0, q=1.0, homogeneous=False)
        )
        assert moll <= (1.0 + 0.01) * base


def _frame_states(grid, kappa, times, slow):
    """SimStates whose slow variables are W+-(t) = slow(t), turned by the
    linear flow's phases exp(+-i kappa t xi1/|xi|) into the lab frame."""
    states = []
    for t in times:
        wp, wm = slow(t)
        vp, vm = semigroup_apply(wp, t, kappa, +1), semigroup_apply(wm, t, kappa, -1)
        omega, rho = merged_stack(grid, (vp.coeffs, vm.coeffs))
        states.append(SimState(SpectralField(grid, omega), SpectralField(grid, rho), t, kappa))
    return states


def _relative_gap(u, v):
    got, want = np.stack([u.u1.coeffs, u.u2.coeffs]), np.stack([v.u1.coeffs, v.u2.coeffs])
    return np.abs(got - want).max() / np.abs(want).max()


def test_frozen_velocity_interpolation(grid):
    # slow variables of degree min(m - 1, 3) in t are reproduced between the
    # knots: the chord, the parabola, the cubic through the nearest four.  At
    # kappa = 256 the lab-frame velocity turns by up to 64 radians meanwhile
    kappa = 256.0
    f = [random_field(grid, seed=20 + i, xi_lo=0.5, xi_hi=4.0) for i in range(4)]
    for m in (2, 3, 6):
        degree = min(m - 1, 3)

        def slow(t):
            return f[0] + f[1] * t ** degree, f[2] - f[3] * t ** (degree - 1)

        times = np.linspace(0.0, 0.25, m)
        frozen = FrozenVelocity(_frame_states(grid, kappa, times, slow))
        for t in [0.013, 0.1, 0.1234, 0.2409]:
            want = biot_savart(_frame_states(grid, kappa, [t], slow)[0].omega)
            assert _relative_gap(frozen(t), want) < 1e-12, (m, t)
        with pytest.raises(ValueError):
            frozen(0.3)


def test_linear_solve_zero_velocity_matches_semigroup(grid, smooth_data):
    omega0, rho0 = smooth_data
    kappa = 24.0
    still = VectorField(zero_field(grid), zero_field(grid))
    frozen = lambda t: still
    cfg = StepperConfig(scheme="ifrk4", dt=0.01)
    traj = linear_solve(frozen, omega0, rho0, kappa, 1.0, cfg,
                        n_samples=3, store_snapshots=True)
    vp0, _ = diagonalize(omega0, rho0)
    vpT = semigroup_apply(vp0, 1.0, kappa, +1)
    vp1, _ = diagonalize(traj.snapshots[-1].omega, traj.snapshots[-1].rho)
    err = np.abs(vp1.coeffs - vpT.coeffs).max() / np.abs(vp0.coeffs).max()
    assert err < 1e-10


def test_linear_solve_steady_shear_conserves_density(grid):
    # kappa = 0 with a frozen steady shear: rho is purely transported
    _, x2 = grid.meshgrid()
    shear = VectorField(forward_transform(grid, np.sin(x2)), zero_field(grid))
    frozen = lambda t: shear
    rho0 = random_field(grid, seed=30, xi_lo=0.5, xi_hi=4.0)
    cfg = StepperConfig(scheme="rk4", dt=2e-3)
    traj = linear_solve(frozen, zero_field(grid), rho0, 0.0, 0.5, cfg,
                        n_samples=3, store_snapshots=True)
    final = traj.snapshots[-1].rho
    assert abs(lp_norm(final, 2) - lp_norm(rho0, 2)) < 1e-8 * lp_norm(rho0, 2)


def test_picard_zero_data(grid):
    cfg = StepperConfig(scheme="ifrk4", dt=0.01)
    traces = picard_run(zero_field(grid), zero_field(grid), 8.0, 0.1, 2, cfg,
                        n_samples=6)
    assert all(tr.sup_a == 0.0 for tr in traces)
    assert all(tr.sup_a_bar == 0.0 for tr in traces if tr.a_bar is not None)
    with pytest.raises(ValueError):
        picard_run(zero_field(grid), zero_field(grid), 8.0, 0.1, 0, cfg)


def test_picard_uniform_bound_and_decay(grid, smooth_data):
    omega0, rho0 = smooth_data
    cfg = StepperConfig(scheme="ifrk4", dt=0.01)
    traces = picard_run(omega0, rho0, 16.0, 0.25, 6, cfg, n_samples=26)
    a0 = traces[0].a0
    assert max(tr.sup_a for tr in traces) <= 1.2 * a0
    ratios = cauchy_ratios(traces)
    assert np.all(ratios[2:] <= 0.6)


def test_picard_deterministic(grid, smooth_data):
    omega0, rho0 = smooth_data
    cfg = StepperConfig(scheme="ifrk4", dt=0.02)
    t1 = picard_run(omega0, rho0, 4.0, 0.1, 2, cfg, n_samples=6)
    t2 = picard_run(omega0, rho0, 4.0, 0.1, 2, cfg, n_samples=6)
    for a, b in zip(t1, t2):
        assert np.array_equal(a.a, b.a)


def test_uniformity_report(grid, smooth_data):
    omega0, rho0 = smooth_data
    cfg = StepperConfig(scheme="ifrk4", dt=0.01)
    traces_by_kappa = {
        kappa: picard_run(omega0, rho0, kappa, 0.2, 3, cfg, n_samples=11)
        for kappa in (0.0, 16.0)
    }
    rep = uniformity_report(traces_by_kappa)
    assert set(rep["sup_ratio_by_kappa"]) == {0.0, 16.0}
    assert rep["spread"] >= 1.0
    assert isinstance(rep["pass"], bool)


def test_frozen_sampling_refinement(grid, smooth_data):
    # doubling the stored-velocity sampling density changes the difference
    # traces by well under 1%
    omega0, rho0 = smooth_data
    cfg = StepperConfig(scheme="ifrk4", dt=0.01)
    sups = []
    for n_samples in (11, 21):
        traces = picard_run(omega0, rho0, 16.0, 0.2, 3, cfg,
                            n_samples=n_samples)
        sups.append(traces[-1].sup_a_bar)
    assert abs(sups[1] - sups[0]) < 0.01 * max(sups)


def test_frozen_sampling_refinement_at_kappa_256(grid, smooth_data):
    # the same refinement where the phases turn by up to 5 radians per sample
    # interval at 11 samples: the Lawson-frame interpolant moves sup A-bar_3
    # by 0.6%, where a lab-frame spline of (u1, u2) moved it by 61%
    omega0, rho0 = smooth_data
    cfg = StepperConfig(scheme="ifrk4", dt=0.01)
    sups = [picard_run(omega0, rho0, 256.0, 0.2, 3, cfg, n_samples=n_samples)[-1].sup_a_bar
            for n_samples in (11, 21)]
    assert abs(sups[1] - sups[0]) < 0.02 * max(sups)


def test_frozen_velocity_follows_the_linear_flow_at_large_kappa(grid, smooth_data):
    # under the linear flow W+- stay put, so between six knots the frozen
    # velocity is the Biot-Savart velocity of the semigroup-applied data to
    # the phases' round-off (kappa t eps = 2.3e-13 at t = 0.25), though it
    # turns by up to 205 radians per sample interval.  Measured: 1.6e-13; a
    # lab-frame spline of the same snapshots is off by 1.5, relative
    omega0, rho0 = smooth_data
    kappa = 4096.0
    traj = run(omega0, rho0, kappa, 0.25, StepperConfig(scheme="ifrk4", dt=0.01), n_samples=6,
               store_snapshots=True, nonlinear=False, record=("t", "z"))
    frozen = FrozenVelocity(traj.snapshots)
    vp, vm = diagonalize(traj.snapshots[0].omega, traj.snapshots[0].rho)
    for t in [0.013, 0.07, 0.1234, 0.2, 0.2409]:
        omega, _ = merged_stack(grid, (semigroup_apply(vp, t, kappa, +1).coeffs,
                                       semigroup_apply(vm, t, kappa, -1).coeffs))
        assert _relative_gap(frozen(t), biot_savart(SpectralField(grid, omega))) < 1e-11, t


@pytest.mark.parametrize("kappa", [1024.0, 4096.0])
def test_picard_agrees_with_the_solver_at_large_kappa(grid, smooth_data, kappa):
    # criterion 8's comparison (its data, T = 0.25 its measured local time,
    # 26 samples, 8 iterates) where the phases turn by 10 and 41 radians per
    # sample interval.  Measured: 1.5e-6 and 2.1e-6; a lab-frame spline of
    # (u1, u2) left 2.9e-3 and 2.4e-3
    omega0, rho0 = smooth_data
    cfg = StepperConfig(scheme="ifrk4", dt=0.01)
    _, states = picard_run(omega0, rho0, kappa, 0.25, 8, cfg, n_samples=26,
                           return_states=True)
    traj = run(omega0, rho0, kappa, 0.25, cfg, n_samples=26, store_snapshots=True,
               record=("t", "z"))
    solution = traj.snapshots[-1]
    zero = types.SimpleNamespace(omega=solution.omega * 0.0, rho=solution.rho * 0.0)
    distance = _difference_norm(states[-1], solution, 2.0, 1.0)
    assert distance < 1e-5 * _difference_norm(solution, zero, 2.0, 1.0)


with open(Path(__file__).parent / "data" / "picard_n32.json") as fh:
    PICARD_N32 = json.load(fh)


def test_picard_reproduces_recorded_iterates():
    # a_n and a_bar_n of the frozen-transport iteration, recorded as repr
    # floats by tests/data/record_picard_n32.py: a change may move them only
    # on purpose, and then re-records them
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


def test_frozen_velocity_refuses_unordered_times(grid):
    omega, rho = random_spectrum(grid, seed=4, xi_lo=0.5, xi_hi=4.0)
    with pytest.raises(ValueError):
        FrozenVelocity([SimState(omega, rho, t, 16.0) for t in (0.0, 0.1, 0.1, 0.2)])


def _counting_rephase(monkeypatch):
    """Record the phase arguments kappa t at which the frozen velocity turns
    its interpolated slow variables into the lab frame: once per evaluation
    (the fit's pull-backs come before the count starts)."""
    seen = []
    real = picard.phase_multiplier

    def counted(grid, s, w=None):
        seen.append(s)
        return real(grid, s, w)

    monkeypatch.setattr(picard, "phase_multiplier", counted)
    return seen


def _varied_states(grid, times, kappa):
    """Snapshots that differ at each time."""
    return [SimState(*random_spectrum(grid, seed=60 + k, xi_lo=0.5, xi_hi=4.0), t, kappa)
            for k, t in enumerate(times)]


def test_frozen_velocity_memo(grid, monkeypatch):
    times = np.linspace(0.0, 1.0, 6)
    snaps = _varied_states(grid, times, 16.0)
    frozen = FrozenVelocity(snaps)
    seen = _counting_rephase(monkeypatch)
    # the stage times of two fixed-dt RK steps, then a revisit of an older time
    h = 0.1
    queries = [0.0, h / 2, h / 2, h, h, h + h / 2, h + h / 2, 2 * h, 0.0]
    answers = [frozen(t) for t in queries]
    assert seen == [16.0 * t for t in (0.0, h / 2, h, h + h / 2, 2 * h, 0.0)]
    assert answers[1] is answers[2] and answers[3] is answers[4]
    for t, got in zip(queries, answers):
        fresh = FrozenVelocity(snaps)(t)
        assert np.array_equal(got.u1.coeffs, fresh.u1.coeffs)
        assert np.array_equal(got.u2.coeffs, fresh.u2.coeffs)
    with pytest.raises(ValueError):
        frozen(1.5)


def test_frozen_velocity_on_its_support_matches_the_full_width_interpolant(grid, monkeypatch):
    # the fit runs on the columns some snapshot's omega or rho reaches;
    # padded, its answers equal the full-width fit's, whose columns beyond w
    # hold zeros of either sign, and their samples are the same bit for bit
    times = np.linspace(0.0, 0.25, 6)
    zero = SpectralField(grid, np.zeros(grid.shape, dtype=complex))
    undealiased = SpectralField(grid, np.zeros(grid.shape, dtype=complex))
    undealiased.coeffs[3, 25] = 0.5  # cos(3 x1 + 25 x2): column 25 > c = 22
    fields = [random_spectrum(grid, seed=50 + i, xi_lo=0.5, xi_hi=4.0 + 3 * i) for i in range(4)]
    fields = fields[:2] + [(zero, undealiased), (zero, zero)] + fields[2:]
    snaps = [SimState(omega, rho, t, 256.0) for (omega, rho), t in zip(fields, times)]
    frozen = FrozenVelocity(snaps)
    assert frozen._w.shape[-1] == 26
    monkeypatch.setattr(picard, "_support", lambda coeffs: coeffs.shape[-1])
    full = FrozenVelocity(snaps)
    assert full._w.shape[-1] == grid.n // 2 + 1
    rng = np.random.default_rng(5)
    for t in [*times, *(0.5 * (times[1:] + times[:-1])), *rng.uniform(0.0, 0.25, 6)]:
        u, want = frozen(t), full(t)
        for a, b in ((u.u1, want.u1), (u.u2, want.u2)):
            assert np.array_equal(a.coeffs, b.coeffs), t
        assert np.array_equal(np.stack(u.samples()).view(np.uint64),
                              np.stack(want.samples()).view(np.uint64)), t


def test_frozen_velocity_from_trajectory_is_biot_savart_of_the_snapshots(grid,
                                                                        smooth_data):
    # at each knot the frame interpolant gives back the snapshot's velocity,
    # up to the round-off of turning it out of the lab frame and back
    omega0, rho0 = smooth_data
    cfg = StepperConfig(scheme="ifrk4", dt=0.01)
    u0 = biot_savart(omega0)
    traj = linear_solve(lambda t: u0, omega0, rho0, 16.0, 0.05, cfg, n_samples=6,
                        store_snapshots=True)
    frozen = FrozenVelocity(traj.snapshots)
    assert frozen._w.shape[-1] == grid.dealiased_columns
    for s in traj.snapshots:
        assert _relative_gap(frozen(s.t), biot_savart(s.omega)) < 1e-14, s.t


def test_picard_run_keeps_one_frozen_velocity_alive(grid, smooth_data, monkeypatch):
    # the previous iterate's frozen velocity is collected before the next one is fitted
    fitted, alive = [], []
    fit = FrozenVelocity.__init__

    def tracked(self, snapshots):
        alive.append(sum(ref() is not None for ref in fitted))
        fitted.append(weakref.ref(self))
        fit(self, snapshots)

    monkeypatch.setattr(FrozenVelocity, "__init__", tracked)
    omega0, rho0 = smooth_data
    cfg = StepperConfig(scheme="ifrk4", dt=0.01)
    picard_run(omega0, rho0, 16.0, 0.05, 3, cfg, n_samples=3)
    assert len(alive) >= 2 and not any(alive)


def test_linear_solve_evaluates_each_stage_time_once(grid, smooth_data, monkeypatch):
    omega0, rho0 = smooth_data
    frozen = FrozenVelocity(_varied_states(grid, np.linspace(0.0, 0.1, 6), 8.0))
    seen = _counting_rephase(monkeypatch)
    cfg = StepperConfig(scheme="ifrk4", dt=0.01)
    linear_solve(frozen, omega0, rho0, 8.0, 0.1, cfg, n_samples=6)
    # 10 steps ask for 40 stage times; 21 of them are distinct
    assert len(seen) == len(set(seen)) == 21


def test_picard_runs_without_full_diagnostics(grid, smooth_data, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("picard_run computed a functional other than z")

    for columns in solver.FUNCTIONALS:
        if columns != ("z",):
            monkeypatch.setitem(solver.FUNCTIONALS, columns, refuse)
    omega0, rho0 = smooth_data
    cfg = StepperConfig(scheme="ifrk4", dt=0.01)
    traces = picard_run(omega0, rho0, 16.0, 0.05, 2, cfg, n_samples=3)
    assert len(traces) == 3 and all(np.isfinite(tr.a).all() for tr in traces)


def test_picard_keeps_hermitian_symmetry_exactly(grid, smooth_data):
    # the iterates and the frozen velocity interpolated between their samples
    # (real weights of Hermitian slow variables, turned by phases odd in xi)
    # are Hermitian to the last bit
    omega0, rho0 = smooth_data
    cfg = StepperConfig(scheme="ifrk4", dt=0.01)
    _, snaps = picard_run(omega0, rho0, 16.0, 0.1, 2, cfg, n_samples=6,
                          return_states=True)
    frozen = FrozenVelocity(snaps)
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

import ast
import json
from pathlib import Path

import numpy as np
import pytest

from strat2d import grid as grid_module
from strat2d import solver
from strat2d.bands import DyadicBank, besov_norm
from strat2d.dispersive import diagonalize
from strat2d.errors import BlowupSuspectedError, HermitianSymmetryError, NonzeroMeanError
from strat2d.fields import random_spectrum, taylor_green
from strat2d.grid import (
    GridSpec,
    SpectralField,
    advect,
    biot_savart,
    dealias,
    derivative,
    forward_transform,
    hminus1_norm,
    inner_hminus1,
    inner_l2,
    inverse_transform,
    lp_norm,
    phase_multiplier,
)
from strat2d.picard import FrozenVelocity, picard_run
from strat2d.solver import (
    COLUMNS,
    FUNCTIONALS,
    INTEGRALS,
    SCHEMES,
    SimState,
    StepperConfig,
    cfl_dt,
    grad_inf,
    gronwall_fit,
    lifespan,
    rhs,
    run,
    step,
    z_norm,
)


@pytest.fixture(scope="module")
def grid():
    return GridSpec(64)


@pytest.fixture(scope="module")
def bank(grid):
    return DyadicBank(grid)


def zero_field(grid):
    return SpectralField(grid, np.zeros(grid.shape, dtype=complex))


def test_stepper_config_validation():
    with pytest.raises(ValueError):
        StepperConfig(scheme="euler")
    for dt in (0.0, -0.01, np.nan):
        with pytest.raises(ValueError):
            StepperConfig(dt=dt)
    assert set(SCHEMES) == {"rk4", "ifrk4"}
    for scheme in SCHEMES:
        assert StepperConfig(scheme=scheme).scheme == scheme


def test_rhs_stratified_rest_state(grid):
    # x1-independent density, no vorticity: everything is stationary
    _, x2 = grid.meshgrid()
    rho = forward_transform(grid, np.cos(x2))
    state = SimState(zero_field(grid), rho, 0.0, 7.0)
    domega, drho = rhs(state)
    assert domega.coefficient_norm() < 1e-14
    assert drho.coefficient_norm() < 1e-14


def test_rhs_reduces_to_euler(grid):
    omega, _ = taylor_green(grid)
    state = SimState(omega, zero_field(grid), 0.0, 0.0)
    domega, drho = rhs(state)
    expected = -advect(biot_savart(omega), omega).coeffs
    assert np.abs(domega.coeffs - expected).max() < 1e-14
    assert drho.coefficient_norm() < 1e-14


def test_semi_discrete_energy_identity(grid):
    for seed in range(10):
        omega, rho = random_spectrum(grid, seed=seed, xi_lo=0.5, xi_hi=8.0)
        state = SimState(omega, rho, 0.0, 64.0)
        domega, drho = rhs(state)
        resid = inner_hminus1(domega, omega) + inner_l2(drho, rho)
        scale = hminus1_norm(omega) ** 2 + lp_norm(rho, 2) ** 2
        assert abs(resid) < 1e-10 * scale


def test_step_stationary_state(grid):
    _, x2 = grid.meshgrid()
    rho = forward_transform(grid, np.cos(x2))
    state = SimState(zero_field(grid), rho, 0.0, 7.0)
    for scheme in ("rk4", "ifrk4"):
        cfg = StepperConfig(scheme=scheme, dt=0.01)
        new = step(state, 0.01, cfg)[0]
        assert abs(new.t - 0.01) < 1e-15
        assert np.abs(new.rho.coeffs - rho.coeffs).max() < 1e-13
        assert new.omega.coefficient_norm() < 1e-13


def test_ifrk4_keeps_taylor_green_steady(grid):
    # a steady Euler cell: u.grad omega is round-off, mean included, and the
    # diagonalized forcing must not trip a mean-zero guard
    omega, rho = taylor_green(grid)
    state = SimState(omega, rho, 0.0, 0.0)
    cfg = StepperConfig(scheme="ifrk4", dt=0.01)
    for _ in range(10):
        state = step(state, cfg.dt, cfg)[0]
    assert np.abs(state.omega.coeffs - omega.coeffs).max() < 1e-13
    assert state.rho.coefficient_norm() < 1e-13


def test_if_scheme_norm_preserving_per_mode(grid):
    # with the nonlinearity off, |V_hat(k)| is constant per mode
    omega, rho = random_spectrum(grid, seed=4, xi_lo=0.5, xi_hi=8.0)
    lam = grid.xi_abs
    vp0 = np.abs(omega.coeffs + lam * rho.coeffs)
    state = SimState(omega, rho, 0.0, 33.0)
    cfg = StepperConfig(scheme="ifrk4", dt=0.02)
    for _ in range(50):
        state = step(state, cfg.dt, cfg, nonlinear=False)[0]
    vp1 = np.abs(state.omega.coeffs + lam * state.rho.coeffs)
    assert np.abs(vp1 - vp0).max() < 1e-13 * max(vp0.max(), 1.0)


# rk4 steps (omega, rho) themselves, so nothing moves at all; ifrk4 passes
# through V+- = omega +- Lambda rho and back, exact only to round-off
@pytest.mark.parametrize("scheme, tol", [("rk4", 0.0), ("ifrk4", 1e-14)])
def test_linear_step_at_kappa_zero_changes_nothing(grid, scheme, tol):
    # kappa = 0 with the advection off: d/dt (omega, rho) = 0, for every scheme
    omega, rho = random_spectrum(grid, seed=4, xi_lo=0.5, xi_hi=8.0)
    state = SimState(omega, rho, 0.0, 0.0)
    new = step(state, 0.05, StepperConfig(scheme=scheme, dt=0.05), nonlinear=False)[0]
    for got, want in ((new.omega, omega), (new.rho, rho)):
        assert np.abs(got.coeffs - want.coeffs).max() <= tol * np.abs(want.coeffs).max()


def test_grad_inf_euclidean_and_frobenius(grid):
    omega, rho = random_spectrum(grid, seed=6, xi_lo=0.5, xi_hi=8.0)
    u = biot_savart(omega)

    def grad(f):
        return [inverse_transform(derivative(f, ax)) for ax in (1, 2)]

    g1, g2 = grad(rho)
    assert grad_inf(rho) == float(np.sqrt(g1**2 + g2**2).max())
    parts = grad(u.u1) + grad(u.u2)
    assert grad_inf(u.u1, u.u2) == float(np.sqrt(sum(p**2 for p in parts)).max())


def test_record_shares_its_transforms_bit_for_bit(monkeypatch, grid, bank):
    # a record transforms its six gradient slices in one call and
    # diagonalizes the state once, and reads the per-field values bit for bit
    omega, rho = random_spectrum(grid, seed=6, xi_lo=0.5, xi_hi=8.0)
    u = biot_savart(omega)
    rho_parts, u_parts = ([inverse_transform(derivative(f, ax)) for f in fields for ax in (1, 2)]
                          for fields in ((rho,), (u.u1, u.u2)))
    vplus, vminus = diagonalize(omega, rho)
    spec = solver._B0INF1
    calls = {"_samples": 0, "diagonal_stack": 0}
    for name in calls:
        def counting(*args, real=getattr(solver, name), name=name, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(solver, name, counting)
    rec = solver.diagnostics(SimState(omega, rho, 0.0, 8.0), bank, 2.0, 1.0, COLUMNS)
    assert calls == {"_samples": 1, "diagonal_stack": 1}
    assert rec["grad_rho_inf"] == float(np.sqrt(sum(p**2 for p in rho_parts)).max())
    assert rec["grad_u_inf"] == float(np.sqrt(sum(p**2 for p in u_parts)).max())
    assert rec["vplus_band_norm"] == besov_norm(vplus, spec, bank)
    assert rec["vminus_band_norm"] == besov_norm(vminus, spec, bank)


def test_a_record_keeps_nothing_on_the_state_but_its_velocity(grid, bank):
    omega, rho = random_spectrum(grid, seed=6, xi_lo=0.5, xi_hi=8.0)
    state = SimState(omega, rho, 0.0, 8.0)
    solver.diagnostics(state, bank, 2.0, 1.0, COLUMNS)
    assert set(vars(state)) == {"omega", "rho", "t", "kappa", "_own_velocity"}


def test_blowup_detection(grid):
    omega, rho = random_spectrum(grid, seed=5, amplitude=1.0, xi_lo=0.5, xi_hi=8.0)
    with np.errstate(invalid="ignore"):
        state = SimState(omega * np.inf, rho, 0.0, 0.0)
        cfg = StepperConfig(scheme="rk4", dt=0.01)
        with pytest.raises(BlowupSuspectedError):
            step(state, cfg.dt, cfg)[0]


def test_time_step_convergence_order(grid):
    # error vs a dt-refined reference shrinks at 4th order for both schemes
    omega, rho = random_spectrum(grid, seed=6, amplitude=2.0, xi_lo=0.5, xi_hi=4.0)
    t_final = 0.1
    for scheme in ("rk4", "ifrk4"):
        sols = {}
        for dt in (0.01, 0.005, 0.00125):
            cfg = StepperConfig(scheme=scheme, dt=dt)
            state = SimState(omega, rho, 0.0, 3.0)
            n = round(t_final / dt)
            for _ in range(n):
                state = step(state, dt, cfg)[0]
            sols[dt] = state
        ref = sols[0.00125]
        e1 = np.abs(sols[0.01].omega.coeffs - ref.omega.coeffs).max()
        e2 = np.abs(sols[0.005].omega.coeffs - ref.omega.coeffs).max()
        order = np.log2(e1 / e2)
        assert order >= 3.7, f"{scheme}: observed order {order}"


def test_run_zero_data(grid, bank):
    z = zero_field(grid)
    cfg = StepperConfig(scheme="rk4", dt=0.01)
    traj = run(z, z, 5.0, 0.1, cfg, n_samples=3, bank=bank)
    assert traj.status == "ok"
    assert all(r["energy"] == 0.0 for r in traj.records)
    assert all(r["z"] == 0.0 for r in traj.records)


def test_run_records_full_diagnostics_by_default(grid, bank):
    omega, rho = random_spectrum(grid, seed=7, amplitude=2.0, xi_lo=0.5, xi_hi=4.0)
    cfg = StepperConfig(scheme="ifrk4", dt=0.01)
    traj = run(omega, rho, 8.0, 0.04, cfg, n_samples=3, bank=bank)
    assert COLUMNS == ("t", *(c for columns in FUNCTIONALS for c in columns), *INTEGRALS)
    assert all(tuple(r) == COLUMNS for r in traj.records)
    for r in traj.records[1:]:
        assert all(np.isfinite(r[c]) and r[c] > 0 for c in COLUMNS)


def test_run_with_z_record(grid, bank):
    omega, rho = random_spectrum(grid, seed=7, amplitude=2.0, xi_lo=0.5, xi_hi=4.0)
    cfg = StepperConfig(scheme="ifrk4", dt=0.01)
    full = run(omega, rho, 8.0, 0.04, cfg, n_samples=3, bank=bank)
    lean = run(omega, rho, 8.0, 0.04, cfg, n_samples=3, bank=bank, record=("t", "z"),
               stop=("t", 0.01))
    assert lean.records == [{"t": r["t"], "z": r["z"]} for r in full.records[:2]]
    assert np.array_equal(lean.column("z"), full.column("z")[:2])
    assert lean.t_stop == 0.01


def test_run_records_part_of_a_row(grid, bank):
    # grad_u_inf shares its row with grad_rho_inf: selected alone, it is
    # recorded alone, bit for bit the full run's
    omega, rho = random_spectrum(grid, seed=7, amplitude=2.0, xi_lo=0.5, xi_hi=4.0)
    cfg = StepperConfig(scheme="ifrk4", dt=0.01)
    full = run(omega, rho, 8.0, 0.04, cfg, n_samples=3, bank=bank)
    record = ("t", "z", "grad_u_inf")
    part = run(omega, rho, 8.0, 0.04, cfg, n_samples=3, bank=bank, record=record)
    assert [tuple(r) for r in part.records] == [record] * 3
    for name in record:
        assert np.array_equal(part.column(name), full.column(name))


def _refuse_steps(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("run stepped before refusing its arguments")

    monkeypatch.setattr(solver, "step", forbidden)


@pytest.mark.parametrize("record, stop", [
    (("t", "z", "enstrophy"), None),  # an unknown column
    (("t", "energy"), None),  # no z, which the guard reads
    (("z",), None),  # no t
    (("t", "z", "b_integral"), None),  # an integral without its integrands
    (("t", "z", "vplus_band_norm", "m_integral"), None),
    (("t", "z"), ("b_integral", 8.0)),  # a stop rule on a column not recorded
    (COLUMNS, ("enstrophy", 1.0)),
])
def test_run_refuses_a_bad_selection_before_any_step(monkeypatch, grid, bank, record, stop):
    omega, rho = random_spectrum(grid, seed=7, amplitude=2.0, xi_lo=0.5, xi_hi=4.0)
    _refuse_steps(monkeypatch)
    with pytest.raises(ValueError):
        run(omega, rho, 8.0, 0.04, StepperConfig(scheme="ifrk4", dt=0.01), n_samples=3,
            bank=bank, record=record, stop=stop)


_DEGENERATE = {
    "one sample": lambda d, cfg, bank: run(*d, 8.0, 0.04, cfg, n_samples=1, bank=bank),
    "no samples": lambda d, cfg, bank: run(*d, 8.0, 0.04, cfg, n_samples=0, bank=bank),
    "t_final 0": lambda d, cfg, bank: run(*d, 8.0, 0.0, cfg, n_samples=3, bank=bank),
    "t_final < 0": lambda d, cfg, bank: run(*d, 8.0, -0.5, cfg, n_samples=3, bank=bank),
    "t_final nan": lambda d, cfg, bank: run(*d, 8.0, np.nan, cfg, n_samples=3, bank=bank),
    "stop nan": lambda d, cfg, bank: run(*d, 8.0, 0.04, cfg, n_samples=3, bank=bank,
                                         stop=("b_integral", np.nan)),
    "lifespan one sample": lambda d, cfg, bank: lifespan(*d, 8.0, 0.5, 8.0, cfg, n_samples=1,
                                                         bank=bank),
    "lifespan theta nan": lambda d, cfg, bank: lifespan(*d, 8.0, 0.5, np.nan, cfg, bank=bank),
    "lifespan z only": lambda d, cfg, bank: lifespan(*d, 8.0, 0.5, 8.0, cfg, bank=bank,
                                                     record=("t", "z")),
    "picard one sample": lambda d, cfg, bank: picard_run(*d, 8.0, 0.04, 1, cfg, n_samples=1,
                                                         bank=bank),
}


@pytest.mark.parametrize("case", sorted(_DEGENERATE))
def test_run_refuses_degenerate_schedules(monkeypatch, grid, bank, case):
    data = random_spectrum(grid, seed=7, amplitude=2.0, xi_lo=0.5, xi_hi=4.0)
    _refuse_steps(monkeypatch)
    with pytest.raises(ValueError):
        _DEGENERATE[case](data, StepperConfig(scheme="ifrk4", dt=0.01), bank)


def test_run_requires_mean_zero_vorticity(grid, bank):
    f = forward_transform(grid, np.ones((grid.n, grid.n)))
    cfg = StepperConfig(scheme="rk4", dt=0.01)
    with pytest.raises(NonzeroMeanError):
        run(f, zero_field(grid), 0.0, 0.1, cfg, bank=bank)


def test_running_integrals_nondecreasing(grid, bank):
    omega, rho = random_spectrum(grid, seed=7, amplitude=2.0, xi_lo=0.5, xi_hi=4.0)
    cfg = StepperConfig(scheme="ifrk4", dt=0.01)
    traj = run(omega, rho, 8.0, 0.3, cfg, n_samples=7, bank=bank)
    b = traj.column("b_integral")
    m = traj.column("m_integral")
    assert np.all(np.diff(b) >= 0)
    assert np.all(np.diff(m) >= 0)


def test_passive_scalar_conservation(grid, bank):
    # kappa = 0: 2D Euler plus passively advected density
    omega, rho = random_spectrum(grid, seed=8, amplitude=1.0, xi_lo=0.5, xi_hi=4.0)
    cfg = StepperConfig(scheme="rk4", dt=2e-3)
    traj = run(omega, rho, 0.0, 0.5, cfg, n_samples=6, bank=bank, store_snapshots=True)
    final = traj.snapshots[-1]
    assert abs(lp_norm(final.rho, 2) - lp_norm(rho, 2)) < 1e-8 * lp_norm(rho, 2)
    assert abs(lp_norm(final.omega, 2) - lp_norm(omega, 2)) < 1e-8 * lp_norm(omega, 2)


def test_blowup_guard_in_run(grid, bank):
    omega, rho = random_spectrum(grid, seed=9, amplitude=1.0, xi_lo=0.5, xi_hi=4.0)
    cfg = StepperConfig(scheme="rk4", dt=0.05)
    # enormous kappa with an explicit scheme at coarse dt is violently unstable
    with np.errstate(invalid="ignore", over="ignore"):
        traj = run(omega, rho, 1e4, 2.0, cfg, n_samples=21, bank=bank)
    assert traj.status == "blowup"
    assert traj.t_stop < 2.0


def test_run_to_the_end_stops_at_t_final(grid, bank):
    # ten steps of 0.01 sum to 0.09999999999999999: t_stop is t_final itself
    z = zero_field(grid)
    traj = run(z, z, 0.0, 0.1, StepperConfig(scheme="rk4", dt=0.01), n_samples=3, bank=bank)
    assert traj.status == "ok" and traj.records[-1]["t"] != 0.1
    assert traj.t_stop == 0.1


def test_run_refuses_a_stop_rule_the_data_meets(grid, bank):
    omega, rho = random_spectrum(grid, seed=7, amplitude=2.0, xi_lo=0.5, xi_hi=4.0)
    cfg = StepperConfig(scheme="ifrk4", dt=0.01)
    for rule in (("t", 0.0), ("b_integral", 0.0), ("z", 1e-3)):
        with pytest.raises(ValueError, match="stop rule"):
            run(omega, rho, 8.0, 0.04, cfg, n_samples=3, bank=bank, stop=rule)


def test_run_stop_rule_reproduces_the_recorded_lifespan(grid, bank):
    # criterion 9's data and step at kappa=0; the literal is the lifespan
    # that scanning the finished trajectory for the crossing gave.  It was
    # recorded with adaptive=True when that meant a CFL step capped at dt:
    # the CFL bound never bound (0 of 312 steps), so the run was this
    # fixed-step one bit for bit
    omega, rho = random_spectrum(grid, alpha=2.5, seed=11, amplitude=15.0,
                                 xi_lo=0.5, xi_hi=4.0)
    cfg = StepperConfig(scheme="ifrk4", dt=0.002)
    traj = run(omega, rho, 0.0, 1.0, cfg, n_samples=41, bank=bank, stop=("b_integral", 8.0))
    assert traj.status == "ok"
    assert traj.t_stop == 0.5777623702972501
    b = traj.column("b_integral")
    assert b[-2] < 8.0 <= b[-1]
    assert traj.records[-2]["t"] < traj.t_stop <= traj.records[-1]["t"]


@pytest.mark.parametrize("n_samples, seen_at", [
    (41, "guard"),  # z passes GUARD_FACTOR z(0) at the sample t = 0.05
    (2, "step"),  # the coefficients overflow before the only sample after t=0
])
def test_blowup_sets_t_stop(grid, bank, n_samples, seen_at):
    omega, rho = random_spectrum(grid, seed=9, amplitude=1.0, xi_lo=0.5, xi_hi=4.0)
    cfg = StepperConfig(scheme="rk4", dt=0.05)
    with np.errstate(invalid="ignore", over="ignore"):
        traj = run(omega, rho, 1e4, 2.0, cfg, n_samples=n_samples, bank=bank,
                   record=("t", "z"))
    assert traj.status == "blowup"
    assert 0.0 < traj.t_stop < 2.0
    last = traj.records[-1]
    if seen_at == "guard":
        assert traj.t_stop == last["t"]
        assert last["z"] > solver.GUARD_FACTOR * traj.records[0]["z"]
    else:
        assert len(traj.records) == 1 and traj.t_stop > last["t"]


def test_cfl_dt_caps(grid):
    omega, rho = random_spectrum(grid, seed=10, amplitude=5.0, xi_lo=0.5, xi_hi=4.0)
    state = SimState(omega, rho, 0.0, 100.0)
    cfg = StepperConfig(scheme="rk4", dt=1.0, adaptive=True)
    dt = cfl_dt(state, cfg)
    assert dt <= 0.5 / 101.0 + 1e-15
    cfg_if = StepperConfig(scheme="ifrk4", dt=1.0, adaptive=True)
    dt_if = cfl_dt(state, cfg_if)
    assert dt_if > dt  # the integrating factor drops the kappa cap


@pytest.mark.parametrize("scheme", ["ifrk4", "rk4"])
def test_adaptive_step_computes_the_states_velocity_once(monkeypatch, scheme):
    # cfl_dt and the first stage share the state's Biot-Savart velocity:
    # the law is applied 1 + 3 later stages times, not 1 + 4.  rk4's later
    # stages call biot_savart; ifrk4's compute the velocity in the
    # advection kernel, whose inverse call carries it with the gradients
    g = GridSpec(32)
    omega, rho = random_spectrum(g, seed=2, amplitude=1.0, xi_lo=0.5, xi_hi=4.0)
    state = SimState(omega, rho, 0.0, 16.0)
    cfg = StepperConfig(scheme=scheme, dt=0.01, adaptive=True)
    calls = {"biot_savart": 0, "_velocity": 0}
    for module, name in ((solver, "biot_savart"), (grid_module, "_velocity")):
        def counting(*args, real=getattr(module, name), name=name, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, counting)
    step(state, cfl_dt(state, cfg), cfg)[0]
    assert calls == {"biot_savart": {"ifrk4": 1, "rk4": 4}[scheme], "_velocity": 4}


def _count_forcings(monkeypatch):
    """Count the forcings the schemes evaluate: ifrk4's advection kernel
    calls, rk4's right-hand sides."""
    calls = {"n": 0}
    for name in ("_advection", "rhs"):
        def counting(*args, real=getattr(solver, name), **kwargs):
            calls["n"] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(solver, name, counting)
    # rk4's first stage is rhs, reached through its SCHEMES entry
    monkeypatch.setitem(solver.SCHEMES, "rk4", (solver.rhs, solver._rk4_step))
    return calls


@pytest.mark.parametrize("scheme", ["ifrk4", "rk4"])
def test_accepted_adaptive_step_makes_four_forcings(monkeypatch, scheme):
    # the error estimate's k5, the first stage at the new state, is the next
    # step's k1 (first same as last): after the data's first stage, each
    # attempt makes stages 2-4 and k5, whether it is accepted or not.  A
    # fixed step makes its four stages, no k5, and no CFL cap
    g = GridSpec(32)
    omega, rho = random_spectrum(g, seed=2, amplitude=1.0, xi_lo=0.5, xi_hi=4.0)
    calls = _count_forcings(monkeypatch)
    caps = []

    def counting_cap(state, *args, real=solver.cfl_dt):
        caps.append(state.t)
        return real(state, *args)

    monkeypatch.setattr(solver, "cfl_dt", counting_cap)
    cfg = StepperConfig(scheme=scheme, dt=0.01, adaptive=True)
    traj = run(omega, rho, 16.0, 0.2, cfg, n_samples=3, record=("t", "z"))
    assert traj.status == "ok" and traj.steps > 3
    assert calls["n"] == 1 + 4 * (traj.steps + traj.rejected)
    assert len(caps) == traj.steps
    calls["n"], caps[:] = 0, []
    traj = run(omega, rho, 16.0, 0.2, StepperConfig(scheme=scheme, dt=0.01), n_samples=3,
               record=("t", "z"))
    assert traj.status == "ok" and (traj.steps, traj.rejected) == (20, 0)
    assert (calls["n"], caps) == (4 * traj.steps, [])


def test_rejected_step_is_retried_from_the_same_state(monkeypatch):
    # a first try far too large is rejected; the retry starts from the same
    # state, with a step the controller cut by a factor in [1/2, 1), and
    # reuses that state's first stage
    g = GridSpec(32)
    omega, rho = random_spectrum(g, seed=2, amplitude=1.0, xi_lo=0.5, xi_hi=4.0)
    tries = []
    real = solver.step

    def recording(state, dt, *args, **kwargs):
        tries.append((state, dt))
        return real(state, dt, *args, **kwargs)

    monkeypatch.setattr(solver, "step", recording)
    calls = _count_forcings(monkeypatch)
    cfg = StepperConfig(scheme="ifrk4", dt=0.2, adaptive=True)
    traj = run(omega, rho, 16.0, 0.2, cfg, n_samples=3, record=("t", "z"))
    retries = [(a[1], b[1]) for a, b in zip(tries, tries[1:]) if a[0] is b[0]]
    assert traj.rejected == len(retries) >= 1
    assert len(tries) == traj.steps + traj.rejected
    assert all(0.5 * first <= again < first for first, again in retries)
    assert tries[0][0].t == 0.0 and tries[1][0] is tries[0][0]
    assert calls["n"] == 1 + 4 * len(tries)


@pytest.mark.parametrize("kappa", [0.0, 16.0, 64.0])
def test_adaptive_lifespan_keeps_the_scaling_symmetry(kappa):
    # (omega, rho, kappa, t) -> (a omega, a rho, a kappa, t / a) maps
    # solutions to solutions and keeps B: the error controller, relative to
    # |V| and with the CFL cap, must not break it
    g = GridSpec(32)
    omega, rho = random_spectrum(g, alpha=2.5, seed=11, amplitude=15.0, xi_lo=0.5, xi_hi=4.0)
    lives = []
    for a in (1.0, 2.0):
        cfg = StepperConfig(scheme="ifrk4", dt=0.002 / a, adaptive=True)
        t_life, traj = lifespan(omega * a, rho * a, a * kappa, 2.0 / a, 8.0, cfg, n_samples=41)
        assert traj.status == "ok" and t_life < 2.0 / a
        lives.append(a * t_life)
    assert abs(lives[1] - lives[0]) <= 1e-4


@pytest.mark.parametrize("reason", ["end", "threshold", "guard", "non_finite", "step_floor",
                                    "error"])
def test_run_says_why_it_stopped(monkeypatch, reason):
    # each way a run can end sets status and stop_reason, and keeps the
    # records collected until then
    g = GridSpec(32)
    omega, rho = random_spectrum(g, seed=9, amplitude=1.0, xi_lo=0.5, xi_hi=4.0)
    cfg, stop = StepperConfig(scheme="ifrk4", dt=0.01), None
    if reason == "threshold":
        stop = ("t", 0.03)
    elif reason == "guard":
        monkeypatch.setattr(solver, "GUARD_FACTOR", 0.5)
    elif reason == "non_finite":  # a step that leaves a NaN coefficient
        first_stage, scheme = solver.SCHEMES["ifrk4"]

        def poisoned(*args):
            new, error = scheme(*args)
            if new.t > 0.035:
                new.omega.coeffs[1, 1] = np.nan
            return new, error

        monkeypatch.setitem(solver.SCHEMES, "ifrk4", (first_stage, poisoned))
    elif reason == "step_floor":  # no step can meet the tolerance
        monkeypatch.setattr(solver, "STEP_RTOL", 1e-300)
        cfg = StepperConfig(scheme="ifrk4", dt=0.01, adaptive=True)
    elif reason == "error":
        real = solver.step

        def failing(state, *args, **kwargs):
            if state.t > 0.035:
                raise HermitianSymmetryError("injected")
            return real(state, *args, **kwargs)

        monkeypatch.setattr(solver, "step", failing)
    traj = run(omega, rho, 16.0, 0.08, cfg, n_samples=5, record=("t", "z"), stop=stop)
    status = {"end": "ok", "threshold": "ok", "error": "error"}.get(reason, "blowup")
    assert (traj.status, traj.stop_reason) == (status, reason)
    assert traj.error == ("HermitianSymmetryError: injected" if reason == "error" else None)
    counts = {"end": 5, "threshold": 3, "guard": 2, "non_finite": 2, "step_floor": 1, "error": 3}
    assert len(traj.records) == counts[reason]
    last = traj.records[-1]["t"]
    assert traj.t_stop == pytest.approx({"end": 0.08, "threshold": 0.03, "non_finite": 0.04,
                                         "step_floor": 0.0}.get(reason, last), abs=1e-12)


def test_runs_count_their_steps(grid, bank):
    # a fixed run counts its steps, the last before each sample cut short
    omega, rho = random_spectrum(grid, seed=3, amplitude=2.0, xi_lo=0.5, xi_hi=4.0)
    traj = run(omega, rho, 16.0, 0.1, StepperConfig(scheme="ifrk4", dt=0.03), n_samples=3,
               bank=bank, record=("t", "z"))
    assert (traj.steps, traj.rejected, traj.dt_max) == (4, 0, 0.03)
    assert traj.dt_min == pytest.approx(0.02)


@pytest.mark.parametrize("scheme, adaptive", [("ifrk4", True), ("rk4", False)])
def test_step_batches_its_transforms(monkeypatch, scheme, adaptive):
    # per stage: the gradients of omega and rho in one inverse call, their
    # two products in one forward call, and the velocity's two components in
    # one more inverse call -- or, in ifrk4's stages 2-4, in the gradients'
    # call.  One call per transform made 24 inverse and 8 forward.  An
    # inverse call is an ifft along k1 and an irfft along k2, a forward call
    # an rfft and an fft; rk4 transforms every column, ifrk4's stages the
    # dealiased ones, its adaptive step's velocity every column
    g = GridSpec(32)
    omega, rho = random_spectrum(g, seed=2, amplitude=1.0, xi_lo=0.5, xi_hi=4.0)
    calls = {name: [] for name in ("ifft", "irfft", "rfft", "fft")}
    for name in calls:
        def counting(*args, real=getattr(grid_module, name), name=name, **kwargs):
            calls[name].append(args[0].shape[-1])
            return real(*args, **kwargs)
        monkeypatch.setattr(grid_module, name, counting)
    state = SimState(omega, rho, 0.0, 16.0)
    cfg = StepperConfig(scheme=scheme, dt=0.01, adaptive=adaptive)
    step(state, cfl_dt(state, cfg) if adaptive else cfg.dt, cfg)[0]
    counts = {name: len(widths) for name, widths in calls.items()}
    assert (counts["irfft"], counts["rfft"]) == ({"ifrk4": 5, "rk4": 8}[scheme], 4)
    assert counts == {
        "ifrk4": {"ifft": 5, "irfft": 5, "rfft": 4, "fft": 4},
        "rk4": {"ifft": 8, "irfft": 8, "rfft": 4, "fft": 4},
    }[scheme]
    full, c = g.shape[1], g.dealiased_columns
    assert calls["ifft"] == {"ifrk4": [full] + [c] * 4, "rk4": [full] * 8}[scheme]
    assert calls["fft"] == {"ifrk4": [c] * 4, "rk4": [full] * 4}[scheme]


def _reference_ifrk4_step(state, dt, velocity, nonlinear):
    """The Lawson step on separate V+ and V- fields, with its own V+-
    transforms, as it stood before the stacked form: the oracle for
    `solver._ifrk4_step`."""
    grid, kappa, rho_mean = state.grid, state.kappa, state.rho.mean

    def diagonalize(omega, rho):
        lam_rho = grid.xi_abs * rho.coeffs
        return (SpectralField(grid, omega.coeffs + lam_rho),
                SpectralField(grid, omega.coeffs - lam_rho))

    def merge(vp_c, vm_c):
        rho = grid.inv_xi_abs * (0.5 * (vp_c - vm_c))
        rho[0, 0] = rho_mean
        return SpectralField(grid, 0.5 * (vp_c + vm_c)), SpectralField(grid, rho)

    vp, vm = (v.coeffs for v in diagonalize(state.omega, state.rho))
    e_half = phase_multiplier(grid, kappa * dt / 2)[0]
    e_full = e_half * e_half

    def nl(vp_c, vm_c, t, carrier=None):
        if not nonlinear:
            z = np.zeros_like(vp_c)
            return z, z
        omega, rho = merge(vp_c, vm_c)
        if carrier is None:
            carrier = SimState(omega, rho, t, kappa)
        u = carrier.own_velocity() if velocity is None else velocity(carrier.t)
        fp, fm = diagonalize(*advect(u, omega, rho))
        return -fp.coeffs, -fm.coeffs

    t = state.t
    k1p, k1m = nl(vp, vm, t, carrier=state)
    k2p, k2m = nl(e_half * (vp + dt / 2 * k1p), np.conj(e_half) * (vm + dt / 2 * k1m), t + dt / 2)
    k2p, k2m = np.conj(e_half) * k2p, e_half * k2m
    k3p, k3m = nl(e_half * (vp + dt / 2 * k2p), np.conj(e_half) * (vm + dt / 2 * k2m), t + dt / 2)
    k3p, k3m = np.conj(e_half) * k3p, e_half * k3m
    k4p, k4m = nl(e_full * (vp + dt * k3p), np.conj(e_full) * (vm + dt * k3m), t + dt)
    k4p, k4m = np.conj(e_full) * k4p, e_full * k4m
    vp1 = e_full * (vp + dt / 6 * (k1p + 2 * k2p + 2 * k3p + k4p))
    vm1 = np.conj(e_full) * (vm + dt / 6 * (k1m + 2 * k2m + 2 * k3m + k4m))
    return SimState(*merge(vp1, vm1), t + dt, kappa)


@pytest.mark.parametrize("mode", ["own", "frozen", "linear"])
@pytest.mark.parametrize("kappa", [0.0, 16.0, 256.0])
@pytest.mark.parametrize("n", [32, 64, 128, 256])
def test_ifrk4_step_matches_the_unstacked_reference(n, kappa, mode):
    # the stacked step does the same floating-point operations, so below
    # N=256 it matches bit for bit.  From N=256 the reference's
    # `phase * (temporary)` runs as `temporary *= phase` (numpy elides
    # temporaries from 256 KiB), and the swapped complex product moves last
    # bits: 2.4e-16 of the largest coefficient at most over these cases
    tol = 0.0 if n < 256 else 1e-15
    g = GridSpec(n)
    omega, rho = random_spectrum(g, seed=11, amplitude=15.0, xi_lo=0.5, xi_hi=4.0)
    velocity = None
    if mode == "frozen":
        velocity = FrozenVelocity([
            SimState(*random_spectrum(g, seed=s, amplitude=15.0, xi_lo=0.5, xi_hi=4.0), t, kappa)
            for s, t in zip((3, 4, 5, 6), (0.0, 0.004, 0.008, 0.012))])
    nonlinear = mode != "linear"
    got = want = SimState(omega, rho, 0.0, kappa)
    for _ in range(3):
        k1 = solver._lawson_first_stage(got, velocity, nonlinear)
        got = solver._ifrk4_step(got, 0.002, k1, velocity, nonlinear)[0]
        want = _reference_ifrk4_step(want, 0.002, velocity, nonlinear)
        assert got.t == want.t
        for a, b in ((got.omega, want.omega), (got.rho, want.rho)):
            assert np.abs(a.coeffs - b.coeffs).max() <= tol * np.abs(b.coeffs).max()


@pytest.mark.parametrize("mode", ["own", "frozen", "linear"])
def test_ifrk4_step_reads_only_the_dealiased_modes(mode):
    # a state with modes outside the dealias set steps as dealias(state),
    # and returns dealiased fields.  Given no velocity, stage 1 advects with
    # the state's own, so there omega is dealiased and rho is not
    g = GridSpec(64)
    omega, rho = random_spectrum(g, seed=11, amplitude=15.0, xi_lo=0.5, xi_hi=4.0)
    rng = np.random.default_rng(5)
    outside = ~g.dealias_mask
    noise = [SpectralField(g, np.where(outside, rng.standard_normal(g.shape), 0.0) + 0j)
             for _ in range(2)]
    velocity = None
    if mode == "frozen":
        velocity = FrozenVelocity([SimState(omega, rho, t, 256.0) for t in (0.0, 0.01)])
    noisy_omega = omega if mode == "own" else omega + noise[0]
    noisy = SimState(noisy_omega, rho + noise[1], 0.0, 256.0)
    clean = SimState(dealias(noisy_omega), dealias(rho + noise[1]), 0.0, 256.0)
    assert not np.array_equal(noisy.rho.coeffs, clean.rho.coeffs)
    nonlinear = mode != "linear"
    got, want = (solver._ifrk4_step(st, 0.002, solver._lawson_first_stage(st, velocity, nonlinear),
                                    velocity, nonlinear)[0] for st in (noisy, clean))
    for a, b in ((got.omega, want.omega), (got.rho, want.rho)):
        assert np.array_equal(a.coeffs, b.coeffs)
        assert not a.coeffs[outside].any()


def test_ifrk4_refuses_a_nonzero_mean_at_a_later_stage():
    # stage 1 advects with the state's kept velocity; the merged omega of
    # stage 2 keeps the mean, and the kernel's Biot-Savart guard refuses it
    g = GridSpec(32)
    omega, rho = random_spectrum(g, seed=2, amplitude=1.0, xi_lo=0.5, xi_hi=4.0)
    state = SimState(omega.with_mean(1.0), rho, 0.0, 16.0)
    state.__dict__["_own_velocity"] = biot_savart(omega)
    with pytest.raises(NonzeroMeanError):
        step(state, 0.01, StepperConfig(scheme="ifrk4", dt=0.01))[0]


def test_cfl_dt_checks_the_velocity_is_real(grid):
    omega, rho = random_spectrum(grid, seed=10, amplitude=5.0, xi_lo=0.5, xi_hi=4.0)
    c = omega.coeffs.copy()
    c[3, 0] += 1.0  # breaks c(k) = conj c(-k) on the column k2 = 0
    state = SimState(SpectralField(grid, c), rho, 0.0, 1.0)
    with pytest.raises(HermitianSymmetryError):
        cfl_dt(state, StepperConfig(scheme="ifrk4", dt=1.0, adaptive=True))


def test_lifespan_zero_data(grid, bank):
    z = zero_field(grid)
    cfg = StepperConfig(scheme="rk4", dt=0.01)
    t_life, traj = lifespan(z, z, 0.0, 0.5, 1.0, cfg, n_samples=6, bank=bank)
    assert t_life == 0.5
    with pytest.raises(ValueError):
        lifespan(z, z, 0.0, 0.5, -1.0, cfg, bank=bank)


def test_lifespan_crossing_interpolated(grid, bank):
    omega, rho = random_spectrum(grid, seed=11, amplitude=15.0, xi_lo=0.5, xi_hi=4.0)
    cfg = StepperConfig(scheme="ifrk4", dt=0.002, adaptive=True)
    t_life, traj = lifespan(omega, rho, 0.0, 1.0, 4.0, cfg, n_samples=21, bank=bank)
    assert 0.0 < t_life < 1.0
    b = traj.column("b_integral")
    assert b[-1] >= 4.0


def test_gronwall_fit(grid, bank):
    cfg = StepperConfig(scheme="rk4", dt=0.01)
    z = zero_field(grid)
    traj = run(z, z, 0.0, 0.1, cfg, n_samples=3, bank=bank)
    assert gronwall_fit(traj.records) == 0.0
    with pytest.raises(ValueError):
        gronwall_fit([])


def test_z_norm_zero(grid, bank):
    z = zero_field(grid)
    assert z_norm(z, z, bank) == 0.0


@pytest.mark.parametrize("scheme", ["ifrk4", "rk4"])
def test_step_path_calls_no_blas_norm(monkeypatch, scheme):
    g = GridSpec(32)
    omega, rho = random_spectrum(g, seed=2, amplitude=1.0, xi_lo=0.5, xi_hi=4.0)
    state = SimState(omega, rho, 0.0, 16.0)
    cfg = StepperConfig(scheme=scheme, dt=0.01)

    def forbidden(*args, **kwargs):
        raise AssertionError("numpy.linalg.norm called on the per-step path")

    monkeypatch.setattr(np.linalg, "norm", forbidden)
    new = step(state, cfl_dt(state, cfg), cfg)[0]
    assert new.t > 0 and np.isfinite(new.omega.coeffs).all()


@pytest.mark.parametrize("adaptive", [False, True])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_steps_keep_hermitian_symmetry_exactly(grid, bank, scheme, adaptive):
    # exact, not within the guard's tolerance: the forward transform
    # symmetrizes its output, every symbol is even or odd under k1 -> -k1
    # (with the Nyquist rule), and complex products commute with conjugation.
    # A change that breaks this fails here rather than as a late
    # HermitianSymmetryError.
    omega, rho = random_spectrum(grid, seed=5, amplitude=2.0)
    cfg = StepperConfig(scheme=scheme, dt=0.01, adaptive=adaptive)
    traj = run(omega, rho, 16.0, 0.1, cfg, n_samples=6, store_snapshots=True, bank=bank)
    assert traj.status == "ok" and len(traj.snapshots) == 6
    velocities = [snap.own_velocity() for snap in traj.snapshots]
    parts = [f for snap in traj.snapshots for f in (snap.omega, snap.rho)]
    parts += [f for u in velocities for f in (u.u1, u.u2)]
    assert [f.hermitian_defect() for f in parts] == [0.0] * len(parts)


with open(Path(__file__).parent / "data" / "full_layout_diagnostics.json") as fh:
    FULL_LAYOUT = json.load(fh)


@pytest.mark.parametrize("name", sorted(FULL_LAYOUT["runs"]))
def test_diagnostics_match_full_layout_recording(name):
    # the half-spectrum layout reproduces runs recorded with the full layout.
    # "ifrk4_adaptive" was recorded when adaptive meant a CFL step capped at
    # dt; the CFL bound never bound (0 of 20 steps), so it replays as a
    # fixed-step run, bit for bit
    rec = FULL_LAYOUT["runs"][name]
    data = dict(FULL_LAYOUT["initial_data"])
    data.pop("name")
    omega, rho = random_spectrum(GridSpec(FULL_LAYOUT["grid_n"]), **data)
    cfg = StepperConfig(scheme=rec["scheme"], dt=rec["dt"])
    traj = run(omega, rho, rec["kappa"], rec["t_final"], cfg, n_samples=FULL_LAYOUT["n_samples"])
    assert traj.status == rec["status"]
    for column, expected in rec["records"].items():
        assert np.allclose(traj.column(column), expected, rtol=1e-12, atol=0.0), column


def test_the_solver_core_imports_no_measurement_module():
    # solver and picard convert their own state with grid's diagonal_stack
    # and merged_stack: their package imports are the core's modules alone
    package = Path(solver.__file__).parent
    for name in ("solver", "picard"):
        tree = ast.parse((package / f"{name}.py").read_text())
        imported = {node.module or alias.name for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and node.level for alias in node.names}
        assert imported <= {"errors", "grid", "bands", "solver"}, (name, imported)

"""End-to-end acceptance battery.

Each test prints a single PASS/FAIL line with the measured quantity so the
suite doubles as a scoreboard.  Tolerances are part of the project contract;
do not loosen them here.
"""

import numpy as np
import pytest

from strat2d.bands import DyadicBank
from strat2d.dispersive import (
    diagonalize,
    duhamel_residual,
    fit_slope,
    semigroup_apply,
    strichartz_measures,
)
from strat2d.estimates import (
    cancellation_check,
    resolution_stability,
    verify_bernstein,
)
from strat2d.fields import coherent_band_field, random_field, random_spectrum
from strat2d.grid import (
    GridSpec,
    SpectralField,
    hminus1_norm,
    inner_hminus1,
    inner_l2,
    lp_norm,
)
from strat2d.picard import cauchy_ratios, picard_run, uniformity_report, _difference_norm
from strat2d.solver import (
    SimState,
    StepperConfig,
    gronwall_fit,
    lifespan,
    rhs,
    run,
    step,
)


def report(criterion, ok, detail):
    line = f"[criterion {criterion:2d}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def grid64():
    return GridSpec(64)


@pytest.fixture(scope="module")
def bank64(grid64):
    return DyadicBank(grid64)


def test_criterion_01_partition_of_unity():
    worst = max(DyadicBank(GridSpec(n)).partition_residual() for n in (64, 128, 256))
    report(1, worst < 1e-12, f"partition-of-unity residual {worst:.2e} < 1e-12 at N=64,128,256")


def test_criterion_02_bernstein_exactness(grid64, bank64):
    rows = verify_bernstein(grid64, trials=100, seed=202, bank=bank64)
    violations = sum(1 for j, ratio, lo, hi in rows if not lo <= ratio <= hi)
    report(2, len(rows) == 100 and violations == 0,
           f"gradient/field L2 ratio inside [5/8*2^j, 7/4*2^j] for {len(rows)} "
           f"band-limited fields, {violations} violations")


def test_criterion_03_cancellation_identity(grid64):
    worst = 0.0
    for seed in range(100):
        omega, rho = random_spectrum(grid64, seed=seed, xi_lo=0.5, xi_hi=8.0)
        res, _ = cancellation_check(omega, rho)
        worst = max(worst, res / (hminus1_norm(omega) * lp_norm(rho, 2)))
    report(3, worst < 1e-10,
           f"coupling cancellation residual {worst:.2e} < 1e-10 over 100 random pairs")


def test_criterion_04_energy_identity_and_conservation():
    grid = GridSpec(128)
    bank = DyadicBank(grid)
    omega0, rho0 = random_spectrum(grid, seed=4, amplitude=1.0, xi_lo=0.5, xi_hi=8.0)

    worst_identity = 0.0
    for seed in range(10):
        om, rh = random_spectrum(grid, seed=seed, xi_lo=0.5, xi_hi=8.0)
        do, dr = rhs(SimState(om, rh, 0.0, 64.0))
        resid = abs(inner_hminus1(do, om) + inner_l2(dr, rh))
        worst_identity = max(
            worst_identity, resid / (hminus1_norm(om) ** 2 + lp_norm(rh, 2) ** 2)
        )

    cfg = StepperConfig(scheme="rk4", dt=1e-3)
    drifts = {}
    rho_drift = None
    for kappa in (0.0, 64.0):
        traj = run(omega0, rho0, kappa, 1.0, cfg, n_samples=6, bank=bank,
                   store_snapshots=(kappa == 0.0))
        e = traj.column("energy")
        drifts[kappa] = abs(e - e[0]).max() / e[0]
        if kappa == 0.0:
            rho_t = lp_norm(traj.snapshots[-1].rho, 2)
            rho_drift = abs(rho_t - lp_norm(rho0, 2)) / lp_norm(rho0, 2)

    ok = worst_identity < 1e-10 and max(drifts.values()) < 1e-6 and rho_drift < 1e-6
    report(4, ok,
           f"semi-discrete identity {worst_identity:.2e} < 1e-10; energy drift "
           f"{max(drifts.values()):.2e} < 1e-6 (kappa=0,64, N=128, dt=1e-3); "
           f"passive-scalar drift {rho_drift:.2e} < 1e-6")


def test_criterion_05_exact_linear_propagator(grid64):
    omega0, rho0 = random_spectrum(grid64, seed=5, xi_lo=0.5, xi_hi=8.0)
    kappa, dt, n_steps = 32.0, 0.01, 100
    cfg = StepperConfig(scheme="ifrk4", dt=dt)
    state = SimState(omega0, rho0, 0.0, kappa)
    for _ in range(n_steps):
        state = step(state, dt, cfg, nonlinear=False)[0]
    vp0, vm0 = diagonalize(omega0, rho0)
    vp1, vm1 = diagonalize(state.omega, state.rho)
    t = dt * n_steps
    scale = np.abs(vp0.coeffs).max()
    err = max(
        np.abs(vp1.coeffs - semigroup_apply(vp0, t, kappa, +1).coeffs).max(),
        np.abs(vm1.coeffs - semigroup_apply(vm0, t, kappa, -1).coeffs).max(),
    ) / scale
    report(5, err < 1e-10,
           f"integrating factor vs exact propagator on V+- after {n_steps} steps: "
           f"relative error {err:.2e} < 1e-10")


def test_criterion_06_strichartz_kappa_scaling():
    # large box so the cutoff band holds enough modes for genuine dispersive
    # spreading before torus equidistribution sets in
    grid = GridSpec(128, box_scale=8.0)
    bank = DyadicBank(grid)
    gamma, t_max = 4.0, 0.5
    kappas = [2.0**e for e in range(4, 11)]
    # one pass per packet over every kappa; a column of the table is one kappa
    table = [strichartz_measures(coherent_band_field(grid, seed), kappas, gamma, np.inf,
                                 t_max, bank=bank) for seed in range(10)]
    means = [float(np.mean([sample.value for sample in column])) for column in zip(*table)]
    slope = fit_slope(kappas, means)
    target = -1.0 / gamma
    report(6, abs(slope - target) <= 0.08,
           f"windowed L4(L-inf) log-log slope {slope:.3f} within {target} +/- 0.08 "
           f"over kappa=2^4..2^10, 10 packets")


@pytest.fixture(scope="module")
def picard_setup(grid64, bank64):
    omega0 = random_field(grid64, seed=7, xi_lo=0.5, xi_hi=2.5, amplitude=1.0, stream=0)
    rho0 = random_field(grid64, seed=7, xi_lo=0.5, xi_hi=2.5, amplitude=1.0, stream=1)
    cfg = StepperConfig(scheme="ifrk4", dt=0.01)
    # measured local time at kappa=0: largest probe time over which the
    # nonlinear solution stays within a factor 2 of its data
    probe = run(omega0, rho0, 0.0, 0.25, cfg, n_samples=26, bank=bank64)
    z = probe.column("z")
    t = probe.column("t")
    good = t[z <= 2.0 * z[0]]
    t_local = float(good[-1])
    return omega0, rho0, cfg, t_local


def test_criterion_07_uniform_picard_bound(grid64, bank64, picard_setup):
    omega0, rho0, cfg, t_local = picard_setup
    traces_by_kappa = {
        kappa: picard_run(omega0, rho0, kappa, t_local, 8, cfg,
                          n_samples=26, bank=bank64)
        for kappa in (0.0, 16.0, 256.0)
    }
    rep = uniformity_report(traces_by_kappa, spread_limit=1.5)
    # cauchy_ratios[i] compares iterate n = i + 2 against n = i + 1, so the
    # slice [1:] covers every iterate from n = 3 on
    worst_tail_ratio = max(
        float(np.max(cauchy_ratios(traces)[1:]))
        for traces in traces_by_kappa.values()
    )
    ok = rep["pass"] and worst_tail_ratio <= 0.6
    report(7, ok,
           f"sup A_n/A_0 spread {rep['spread']:.3f} < 1.5 across kappa=0,16,256 "
           f"at T={t_local}; Cauchy ratios for n>=3 at most {worst_tail_ratio:.3f} <= 0.6")


def test_criterion_08_picard_solver_agreement(grid64, bank64, picard_setup):
    omega0, rho0, cfg, t_local = picard_setup
    kappa = 16.0
    _, states = picard_run(omega0, rho0, kappa, t_local, 8, cfg,
                           n_samples=26, bank=bank64, return_states=True)
    traj = run(omega0, rho0, kappa, t_local, cfg, n_samples=26, bank=bank64,
               store_snapshots=True)
    final_iterate, final_solution = states[-1], traj.snapshots[-1]

    class _Zero:
        omega = final_solution.omega * 0.0
        rho = final_solution.rho * 0.0

    num = _difference_norm(final_iterate, final_solution, bank64, 2.0, 1.0)
    den = _difference_norm(final_solution, _Zero, bank64, 2.0, 1.0)
    rel = num / den
    report(8, rel < 1e-3,
           f"final iterate vs nonlinear solver relative distance {rel:.2e} < 1e-3")


def test_criterion_09_stabilization_direction(grid64, bank64):
    omega0, rho0 = random_spectrum(grid64, alpha=2.5, seed=11, amplitude=15.0,
                                   xi_lo=0.5, xi_hi=4.0)
    cfg = StepperConfig(scheme="ifrk4", dt=0.002, adaptive=True)
    kappas = (0.0, 4.0, 16.0, 64.0, 256.0)
    lifespans = []
    for kappa in kappas:
        t_life, _ = lifespan(omega0, rho0, kappa, 2.0, 8.0, cfg,
                             n_samples=81, bank=bank64)
        lifespans.append(t_life)
    nondecreasing = all(b >= 0.95 * a for a, b in zip(lifespans, lifespans[1:]))

    z_ratio = {}
    for kappa in (0.0, 256.0):
        traj = run(omega0, rho0, kappa, 1.0, cfg, n_samples=41, bank=bank64)
        z = traj.column("z")
        z_ratio[kappa] = float(z.max() / z[0])
    suppressed = z_ratio[256.0] < z_ratio[0.0]

    table = ", ".join(f"{k:g}:{t:.3f}" for k, t in zip(kappas, lifespans))
    report(9, nondecreasing and suppressed,
           f"lifespan nondecreasing within 5% ({table}); max z ratio "
           f"{z_ratio[256.0]:.2f} (kappa=256) < {z_ratio[0.0]:.2f} (kappa=0)")


def test_criterion_10_estimate_battery():
    details = []
    ok = True
    for which in ("bracket", "lambda", "smoothed", "product"):
        rep = resolution_stability(which, GridSpec(64), 1.0, 1.0, trials=100, seed=42)
        change = abs(rep.max_ratio_doubled - rep.max_ratio) / rep.max_ratio
        finite = np.isfinite(rep.max_ratio) and np.isfinite(rep.max_ratio_doubled)
        ok = ok and finite and change <= 0.25
        details.append(f"{which} {rep.max_ratio:.3f} ({change:.1%})")
    report(10, ok,
           "max inequality ratios over 100 trials, change under N 64->128: "
           + "; ".join(details) + " (all <= 25%)")


def test_criterion_11_gronwall_consistency(grid64, bank64):
    omega0, rho0 = random_spectrum(grid64, alpha=2.5, seed=11, amplitude=15.0,
                                   xi_lo=0.5, xi_hi=4.0)
    details = []
    ok = True
    for kappa in (0.0, 16.0):
        fits = []
        for dt in (0.004, 0.002):
            traj = run(omega0, rho0, kappa, 0.8,
                       StepperConfig(scheme="ifrk4", dt=dt),
                       n_samples=41, bank=bank64)
            fits.append(gronwall_fit(traj.records))
        change = abs(fits[1] - fits[0]) / fits[1]
        ok = ok and np.isfinite(fits[1]) and fits[1] > 0 and change <= 0.2
        details.append(f"kappa={kappa:g}: C6={fits[1]:.4f} ({change:.2%})")
    report(11, ok, "growth-bound constant finite, dt-halving change <= 20%: "
           + "; ".join(details))


def test_criterion_12_duhamel_consistency(grid64, bank64):
    omega0, rho0 = random_spectrum(grid64, seed=3, amplitude=0.05,
                                   xi_lo=0.5, xi_hi=4.0)
    kappa = 8.0
    cfg = StepperConfig(scheme="ifrk4", dt=0.005)
    lin = run(omega0, rho0, kappa, 1.0, cfg, n_samples=41, bank=bank64,
              store_snapshots=True, nonlinear=False)
    lin_res = duhamel_residual(lin, kappa).max()

    nl_res = {}
    for n_samples in (41, 81):
        traj = run(omega0, rho0, kappa, 1.0, cfg, n_samples=n_samples,
                   bank=bank64, store_snapshots=True)
        nl_res[n_samples] = duhamel_residual(traj, kappa).max()
    reduction = nl_res[41] / nl_res[81]
    ok = lin_res < 1e-10 and nl_res[41] < 1e-4 and reduction >= 4.0
    report(12, ok,
           f"linear-run residual {lin_res:.2e} < 1e-10; nonlinear residual "
           f"{nl_res[41]:.2e} < 1e-4 with {reduction:.2f}x reduction under "
           "snapshot halving (>= 4x)")

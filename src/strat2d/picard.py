"""Frozen-transport linear iteration converging to the nonlinear solution.

Each iterate solves the LINEAR system

    d omega_{n+1}/dt + u_n.grad omega_{n+1} = kappa d1 rho_{n+1}
    d rho_{n+1}/dt   + u_n.grad rho_{n+1}   = kappa u_{2,n+1}

with mollified initial data (S_{n+2} omega_0, S_{n+2} rho_0), where u_n is
the previous iterate's velocity frozen in time: its stored snapshots,
interpolated by local cubics in the integrating-factor (Lawson 1967) frame,
where the stratified phases are divided out (`FrozenVelocity`).  The
coupling runs through the unknown's own velocity, so the quadratic energy
cancellation survives iteration by iteration.

The seed iterate (n = 0) is the linear solve transported by
u = biot_savart(S_2 omega_0) held constant in time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bands import DyadicBank, lowpass_hom, lowpass_nonhom
from .errors import Strat2dError
from .grid import (SpectralField, VectorField, _velocity, biot_savart, diagonal_stack,
                   phase_multiplier, require_mean_zero)
from .solver import StepperConfig, Trajectory, run, z_norm


@dataclass
class IterationTrace:
    n: int
    t: np.ndarray
    a: np.ndarray  # A_n(t) in the (s, q) norms
    a_bar: np.ndarray | None  # difference norm vs iterate n-1 (None for n = 0)
    kappa: float
    s: float
    q: float
    a0: float  # norm of the unmollified data

    @property
    def sup_a(self) -> float:
        return float(self.a.max())

    @property
    def sup_a_bar(self) -> float:
        return float(self.a_bar.max()) if self.a_bar is not None else np.nan


class FrozenVelocity:
    """The velocity of stored snapshots, interpolated in the Lawson frame.

    Under the linear flow V+- = omega +- Lambda rho turn by the phases
    exp(+-i kappa t xi1/|xi|), which a spline of (u1, u2) in time aliases
    once kappa dt is not small.  The slow variables W+- = exp(-+i kappa t
    xi1/|xi|) V+- change only at the advection's rate: the fit holds them at
    each knot, one (m, 2, n, w) stack on the columns k2 < w that the
    snapshots' omega and rho reach (beyond them W is zero).  A query takes
    the cubic through the four knots nearest t (one-sided at the ends; two
    knots give the chord, three the parabola), turns it back by the phases
    at t, and returns the Biot-Savart velocity of omega = (V+ + V-) / 2 as
    a column array, which `VectorField.from_stack` pads.
    """

    def __init__(self, snapshots):
        """snapshots: `SimState`s of one kappa at strictly increasing times."""
        self.times = np.array([s.t for s in snapshots], dtype=float)
        if not np.all(np.diff(self.times) > 0):
            raise ValueError("snapshot times must increase strictly")
        grid = self.grid = snapshots[0].grid
        self.kappa = snapshots[0].kappa
        w = max(_support(f.coeffs) for s in snapshots for f in (s.omega, s.rho))
        self._w = np.empty((len(snapshots), 2, grid.n, w), dtype=complex)
        for k, s in enumerate(snapshots):
            require_mean_zero(s.omega, "Biot-Savart")
            self._w[k] = diagonal_stack(grid, s.omega.coeffs[:, :w], s.rho.coeffs[:, :w])
            self._w[k] *= phase_multiplier(grid, -self.kappa * s.t, w)
        self._recent = []  # the last two (t, velocity) answers

    def __call__(self, t: float) -> VectorField:
        """The velocity at t.  The last two answers are kept: with a fixed dt
        the RK stages ask for t + dt/2 twice and the next step starts at the
        previous stage 4's time, so half the queries repeat."""
        for t_seen, u in self._recent:
            if t_seen == t:
                return u
        x = self.times
        if t < x[0] - 1e-9 or t > x[-1] + 1e-9:
            raise ValueError(f"frozen velocity queried at t={t} outside [{x[0]}, {x[-1]}]")
        tc = min(max(t, x[0]), x[-1])
        # the cubic through the four knots nearest tc, by its Lagrange weights
        k = min(4, len(x))
        first = min(max(int(np.searchsorted(x, tc, side="right")) - 2, 0), len(x) - k)
        knots = x[first:first + k].tolist()
        weights = [math.prod((tc - b) / (a - b) for b in knots if b != a) for a in knots]
        v = weights[0] * self._w[first]
        for weight, w in zip(weights[1:], self._w[first + 1:first + k]):
            v += weight * w
        v *= phase_multiplier(self.grid, self.kappa * tc, v.shape[-1])  # (W+, W-) -> (V+, V-)
        omega = v[0]
        omega += v[1]
        omega *= 0.5
        u = VectorField.from_stack(self.grid, _velocity(self.grid, omega))
        self._recent = self._recent[-1:] + [(t, u)]
        return u


def _support(coeffs: np.ndarray) -> int:
    """The last column k2 that some slice of a coefficient stack reaches,
    plus one; 1 for a stack of zeros."""
    reached = np.flatnonzero(coeffs.any(axis=tuple(range(coeffs.ndim - 1))))
    return int(reached[-1]) + 1 if reached.size else 1


# ---------------------------------------------------------------------------


def mollify_initial(omega0: SpectralField, rho0: SpectralField, n: int,
                    bank: DyadicBank):
    """(S-dot_{n+2} omega_0, S_{n+2} rho_0): omega's mean dropped, rho's kept."""
    if n < 0:
        raise ValueError("iteration index must be >= 0")
    return lowpass_hom(omega0, n + 2, bank), lowpass_nonhom(rho0, n + 2, bank)


def linear_solve(
    frozen,
    omega_init: SpectralField,
    rho_init: SpectralField,
    kappa: float,
    t_final: float,
    config: StepperConfig,
    **run_kwargs,
) -> Trajectory:
    """Time-step the frozen-transport linear system, advected by frozen(t)
    (a `FrozenVelocity` or any callable); same schemes as `run`.

    Records only (t, z): z is all the iteration reads.
    """
    return run(omega_init, rho_init, kappa, t_final, config,
               velocity=frozen, record=("t", "z"), **run_kwargs)


def _difference_norm(sa, sb, bank: DyadicBank, s: float, q: float) -> float:
    """|omega_a - omega_b| in (B^{s-2} cap H^-1) + |rho_a - rho_b| in B^{s-1}."""
    # both iterates are mean-zero in omega; the difference's mean is pure
    # round-off and would trip the homogeneous-norm mean guard
    return z_norm((sa.omega - sb.omega).drop_mean(), sa.rho - sb.rho, bank, s - 1.0, q)


def picard_run(
    omega0: SpectralField,
    rho0: SpectralField,
    kappa: float,
    t_final: float,
    n_max: int,
    config: StepperConfig,
    s: float = 2.0,
    q: float = 1.0,
    n_samples: int = 21,
    bank: DyadicBank | None = None,
    return_states: bool = False,
):
    """Iterates n = 0..n_max; returns the list of IterationTrace.

    With return_states=True also returns the final iterate's snapshots.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    grid = omega0.grid
    if bank is None:
        bank = DyadicBank(grid)
    a0 = z_norm(omega0, rho0, bank, s, q)
    times = np.linspace(0.0, t_final, n_samples)  # run's sample schedule

    traces = []
    prev_snapshots = None
    seed = biot_savart(mollify_initial(omega0, rho0, 0, bank)[0])
    frozen = lambda t: seed  # the seed iterate's velocity, held constant in time
    for n in range(n_max + 1):
        om_init, rh_init = mollify_initial(omega0, rho0, n, bank)
        traj = linear_solve(
            frozen, om_init, rh_init, kappa, t_final, config,
            n_samples=n_samples, store_snapshots=True, bank=bank, s=s, q=q,
        )
        if traj.status != "ok":  # without a stop rule, "ok" ran all n_samples
            raise Strat2dError(f"linear solve at iteration {n} ended in {traj.status} "
                               f"({traj.stop_reason}) at t = {traj.t_stop}"
                               + (f": {traj.error}" if traj.error else ""))
        a = traj.column("z")  # A_n(t) = z_{s,q}, recorded by the solve
        if prev_snapshots is None:
            a_bar = None
        else:
            a_bar = np.array([
                _difference_norm(sa, sb, bank, s, q)
                for sa, sb in zip(traj.snapshots, prev_snapshots)
            ])
        traces.append(IterationTrace(n=n, t=times.copy(), a=a, a_bar=a_bar,
                                     kappa=kappa, s=s, q=q, a0=a0))
        prev_snapshots = traj.snapshots
        if n < n_max:
            frozen = None  # freed before the next one is fitted
            frozen = FrozenVelocity(traj.snapshots)
    if return_states:
        return traces, prev_snapshots
    return traces


def cauchy_ratios(traces) -> np.ndarray:
    """sup_t A-bar_{n+1} / sup_t A-bar_n for n = 1..n_max-1."""
    sups = [tr.sup_a_bar for tr in traces if tr.a_bar is not None]
    sups = np.array(sups)
    with np.errstate(divide="ignore", invalid="ignore"):
        return sups[1:] / sups[:-1]


def uniformity_report(traces_by_kappa: dict, spread_limit: float = 1.5) -> dict:
    """Per-kappa sup_{n,t} A_n / A_0 table with a spread pass flag, which
    fails unless at least two kappa have a positive ratio: the spread over
    one kappa is 1 by construction, and over none there is nothing."""
    entries = {}
    for kappa, traces in traces_by_kappa.items():
        a0 = traces[0].a0
        sup = max(tr.sup_a for tr in traces)
        entries[float(kappa)] = sup / a0 if a0 > 0 else 0.0
    vals = [v for v in entries.values() if v > 0]
    spread = (max(vals) / min(vals)) if vals else 1.0
    return {
        "sup_ratio_by_kappa": entries,
        "spread": spread,
        "spread_limit": spread_limit,
        "pass": len(vals) >= 2 and spread < spread_limit,
    }

"""Frozen-transport linear iteration converging to the nonlinear solution.

Each iterate solves the LINEAR system

    d omega_{n+1}/dt + u_n.grad omega_{n+1} = kappa d1 rho_{n+1}
    d rho_{n+1}/dt   + u_n.grad rho_{n+1}   = kappa u_{2,n+1}

with mollified initial data (S_{n+2} omega_0, S_{n+2} rho_0), where u_n is
the previous iterate's velocity frozen in time (stored snapshots, cubic
interpolation).  The coupling runs through the unknown's own velocity, so
the quadratic energy cancellation survives iteration by iteration.

The seed iterate (n = 0) is the linear solve transported by
u = biot_savart(S_2 omega_0) held constant in time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bands import DyadicBank, lowpass_hom, lowpass_nonhom
from .errors import Strat2dError
from .grid import GridSpec, SpectralField, VectorField, biot_savart, require_mean_zero
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
    """Time-sampled divergence-free velocity with cubic interpolation.

    The spline runs on the columns k2 < w of the half spectrum, w the last
    column that some sample reaches, plus one: beyond it the spline of zero
    samples is zero.  Its answers are column arrays, which
    `VectorField.from_stack` pads.
    """

    def __init__(self, times, velocities, grid: GridSpec | None = None):
        """velocities: a VectorField per time or, from two times on, their
        (u1, u2) coefficients as one (m, 2, n, w) stack on `grid`."""
        times = np.asarray(times, dtype=float)
        if len(times) != len(velocities):
            raise ValueError("times and snapshots must align")
        self.times = times
        self.grid = velocities[0].grid if grid is None else grid
        self._spline = None
        if len(times) < 2:
            self._only = velocities[0]
        else:
            if grid is None:  # one stack for both components: axis 1 is (u1, u2)
                velocities = np.stack([np.stack([v.u1.coeffs, v.u2.coeffs]) for v in velocities])
            self._spline = _CubicSpline(times, velocities[..., : _support(velocities)])
        self._recent = []  # the last two (t, velocity) answers

    @classmethod
    def constant(cls, u: VectorField) -> "FrozenVelocity":
        return cls(np.array([0.0]), [u])

    def __call__(self, t: float) -> VectorField:
        """The velocity at t.  The last two answers are kept: with a fixed dt
        the RK stages ask for t + dt/2 twice and the next step starts at the
        previous stage 4's time, so half the queries repeat."""
        if self._spline is None:
            return self._only
        for t_seen, u in self._recent:
            if t_seen == t:
                return u
        if t < self.times[0] - 1e-9 or t > self.times[-1] + 1e-9:
            raise ValueError(f"frozen velocity queried at t={t} outside [{self.times[0]}, {self.times[-1]}]")
        tc = min(max(t, self.times[0]), self.times[-1])
        u = VectorField.from_stack(self.grid, self._spline(tc))
        self._recent = self._recent[-1:] + [(t, u)]
        return u

    @classmethod
    def from_trajectory(cls, traj: Trajectory) -> "FrozenVelocity":
        """The Biot-Savart velocities of traj's snapshots, made in one batch
        on the columns that their vorticities reach: `grid._velocity`'s
        products in its operand order, in place in one (m, 2, n, w) stack
        whose u1 slots first hold the vorticities."""
        snapshots = traj.snapshots
        for s in snapshots:
            require_mean_zero(s.omega, "Biot-Savart")
        w = max(_support(s.omega.coeffs) for s in snapshots)
        grid = traj.grid
        u = np.empty((len(snapshots), 2, grid.n, w), dtype=complex)
        omega = u[:, 0]
        for k, s in enumerate(snapshots):
            omega[k] = s.omega.coeffs[:, :w]
        np.multiply(grid.columns("inv_xi_sq", w), omega, out=omega)
        symbol = grid.columns("velocity_symbol", w)
        np.multiply(symbol[1], omega, out=u[:, 1])
        np.multiply(symbol[0], omega, out=omega)
        return cls([s.t for s in snapshots], u, grid)


def _support(coeffs: np.ndarray) -> int:
    """The last column k2 that some slice of a coefficient stack reaches,
    plus one; 1 for a stack of zeros."""
    reached = np.flatnonzero(coeffs.any(axis=tuple(range(coeffs.ndim - 1))))
    return int(reached[-1]) + 1 if reached.size else 1


class _CubicSpline:
    """Not-a-knot cubic spline of samples y[i] at increasing times x[i]:
    ``scipy.interpolate.CubicSpline(x, y, axis=0)`` ported to numpy.

    The spline holds its samples `y` and its slopes `s` at the knots, two
    contiguous arrays shaped like the samples: a cubic is fixed on each
    interval by its values and slopes at the ends (the piecewise-Hermite
    form).  `__call__` forms the queried piece's coefficients from them with
    SciPy's operations in SciPy's order and sums the terms in SciPy's `PPoly`
    order, so from four samples on the answers are SciPy's bit for bit: the
    slopes solve SciPy's tridiagonal system by LAPACK gtsv's elimination
    with partial pivoting (the matrix is real, so it runs on the float view
    of the right-hand side with scalar pivots).  Two samples give the chord,
    and three the parabola through them (a dense 3 x 3 solve, SciPy's to
    round-off).
    """

    def __init__(self, x: np.ndarray, y: np.ndarray):
        m = len(x)
        dx = np.diff(x)
        if not np.all(dx > 0):
            raise ValueError("spline times must increase strictly")
        # a strided view of a wider stack is copied, so as not to keep its base
        y = np.ascontiguousarray(y)
        dxr = dx.reshape((-1,) + (1,) * (y.ndim - 1))
        slope = np.diff(y, axis=0)
        slope /= dxr
        if m == 2:
            s = np.concatenate([slope, slope])
        elif m == 3:
            a = np.array([[1.0, 1.0, 0.0],
                          [dx[1], 2 * (dx[0] + dx[1]), dx[0]],
                          [0.0, 1.0, 1.0]])
            b = np.stack([2 * slope[0], 3 * (dxr[0] * slope[1] + dxr[1] * slope[0]),
                          2 * slope[1]])
            s = np.linalg.solve(a, b.reshape(3, -1)).reshape(b.shape)
        else:
            # rows 1 .. m-2: continuity of the second derivative; rows 0 and
            # m-1: continuity of the third across the first and last knots
            d0, d1 = x[2] - x[0], x[-1] - x[-3]
            b = np.empty(y.shape, dtype=y.dtype)
            b[0] = ((dxr[0] + 2 * d0) * dxr[1] * slope[0] + dxr[0] ** 2 * slope[1]) / d0
            b[-1] = (dxr[-1] ** 2 * slope[-2] + (2 * d1 + dxr[-1]) * dxr[-2] * slope[-1]) / d1
            # 3 (dx[1:] slope[:-1] + dx[:-1] slope[1:]), the second product
            # made in slope, which is not read again
            np.multiply(dxr[1:], slope[:-1], out=b[1:-1])
            slope[1:] *= dxr[:-1]
            b[1:-1] += slope[1:]
            b[1:-1] *= 3
            del slope
            lower = np.append(dx[1:], d1)
            diag = np.concatenate([dx[1:2], 2 * (dx[:-1] + dx[1:]), dx[-2:-1]])
            upper = np.insert(dx[:-1], 0, d0)
            s = _gtsv(lower, diag, upper, b.reshape(m, -1).view(float))
            s = s.view(y.dtype).reshape(y.shape)
        self.x, self.y, self.s = x, y, s

    def __call__(self, t: float) -> np.ndarray:
        """The spline at t, extrapolating the end pieces outside [x[0], x[-1]]."""
        x, y, s = self.x, self.y, self.s
        i = min(max(int(np.searchsorted(x, t, side="right")) - 1, 0), len(x) - 2)
        h, dx = t - x[i], x[i + 1] - x[i]
        # SciPy's piece (c0, c1, c2, c3) = (t / dx, (slope - s_i) / dx - t,
        # s_i, y_i) with t = (s_i + s_{i+1} - 2 slope) / dx, made in place,
        # c1 holding slope and c0 t until their own turn
        c1 = y[i + 1] - y[i]
        c1 /= dx
        c0 = s[i] + s[i + 1]
        c0 -= 2 * c1
        c0 /= dx
        c1 -= s[i]
        c1 /= dx
        c1 -= c0
        c0 /= dx
        # SciPy's PPoly order: ((c3 + c2 h) + c1 h^2) + c0 h^3
        out = s[i] * h
        out += y[i]
        c1 *= h * h
        out += c1
        c0 *= h * h * h
        out += c0
        return out


def _gtsv(lower: np.ndarray, diag: np.ndarray, upper: np.ndarray,
          b: np.ndarray) -> np.ndarray:
    """Solve the tridiagonal system (lower, diag, upper) x = b in place of b,
    by LAPACK gtsv's Gaussian elimination with row interchanges."""
    n = len(diag)
    dl, d, du = lower.tolist(), diag.tolist(), upper.tolist()
    for k in range(n - 1):
        if dl[k] == 0.0:
            if d[k] == 0.0:
                raise np.linalg.LinAlgError("singular tridiagonal system")
        elif abs(d[k]) >= abs(dl[k]):
            mult = dl[k] / d[k]
            d[k + 1] -= mult * du[k]
            b[k + 1] -= mult * b[k]
            if k < n - 2:
                dl[k] = 0.0
        else:  # interchange rows k and k + 1
            mult = d[k] / dl[k]
            d[k], d[k + 1], du[k] = dl[k], du[k] - mult * d[k + 1], d[k + 1]
            if k < n - 2:
                dl[k] = du[k + 1]
                du[k + 1] = -mult * dl[k]
            b[k], b[k + 1] = b[k + 1], b[k] - mult * b[k + 1]
    if d[-1] == 0.0:
        raise np.linalg.LinAlgError("singular tridiagonal system")
    b[-1] /= d[-1]
    b[-2] = (b[-2] - du[-1] * b[-1]) / d[-2]
    for k in range(n - 3, -1, -1):
        b[k] = (b[k] - du[k] * b[k + 1] - dl[k] * b[k + 2]) / d[k]
    return b


# ---------------------------------------------------------------------------


def mollify_initial(omega0: SpectralField, rho0: SpectralField, n: int,
                    bank: DyadicBank):
    """(S-dot_{n+2} omega_0, S_{n+2} rho_0): omega's mean dropped, rho's kept."""
    if n < 0:
        raise ValueError("iteration index must be >= 0")
    return lowpass_hom(omega0, n + 2, bank), lowpass_nonhom(rho0, n + 2, bank)


def linear_solve(
    frozen: FrozenVelocity,
    omega_init: SpectralField,
    rho_init: SpectralField,
    kappa: float,
    t_final: float,
    config: StepperConfig,
    **run_kwargs,
) -> Trajectory:
    """Time-step the frozen-transport linear system; same schemes as `run`.

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
    frozen = FrozenVelocity.constant(biot_savart(mollify_initial(omega0, rho0, 0, bank)[0]))
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
            frozen = None  # freed before the next spline is fitted
            frozen = FrozenVelocity.from_trajectory(traj)
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

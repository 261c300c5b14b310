"""Time integration of the stratified vorticity system on the torus.

    d omega/dt + u.grad omega = kappa * d1 rho
    d rho/dt   + u.grad rho   = kappa * u2,     u = biot_savart(omega)

Two steppers: a classical explicit 4-stage Runge-Kutta scheme on (omega, rho),
and an integrating-factor variant that works in the diagonal variables
V+- = omega +- Lambda rho, where the stratified coupling is the exact phase
multiplier exp(+-i kappa t xi1/|xi|) and only the advection terms are stepped
explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .bands import BesovSpec, DyadicBank, besov_norm, intersection_norm
from .errors import BlowupSuspectedError, Strat2dError
from .grid import (
    GridSpec,
    SpectralField,
    VectorField,
    _advection,
    _plancherel_sum,
    _samples,
    advect,
    biot_savart,
    dealias,
    derivative,
    diagonal_stack,
    hminus1_norm,
    lp_norm,
    merged_stack,
    phase_multiplier,
    require_hermitian,
    require_mean_zero,
)

GUARD_FACTOR = 1e6  # run stops as "blowup" once z exceeds this multiple of z(0)
CFL_ADVECT = 0.5  # c0 in dt <= c0 dx / |u|_inf, a cap on the adaptive step
CFL_COUPLING = 0.5  # c1 in dt <= c1 / (1 + |kappa|); rk4 only
STEP_RTOL = 3e-6  # an adaptive step's local error, relative to |V|, is at most this


@dataclass(frozen=True)
class SimState:
    """Instantaneous solver state: spectral (omega, rho) at time t.

    A state keeps one thing in its instance dict, as `VectorField.samples`
    keeps its samples: its own velocity (`own_velocity`).  Copies
    (`dataclasses.replace`, the stored snapshots) do not carry it."""

    omega: SpectralField
    rho: SpectralField
    t: float
    kappa: float

    @property
    def grid(self) -> GridSpec:
        return self.omega.grid

    def own_velocity(self) -> VectorField:
        """omega's Biot-Savart velocity, kept: `cfl_dt`, the first stage of
        the next step and `diagnostics` share it, and `_advance` frees it."""
        u = self.__dict__.get("_own_velocity")
        if u is None:
            u = self.__dict__["_own_velocity"] = biot_savart(self.omega)
        return u


@dataclass(frozen=True)
class StepperConfig:
    scheme: str = "rk4"  # a key of SCHEMES
    dt: float = 1e-2  # the step, or the first step tried when adaptive
    adaptive: bool = False  # steps set by the local error (STEP_RTOL) under the CFL cap

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; have {tuple(SCHEMES)}")
        if not self.dt > 0:
            raise ValueError("dt must be positive")


@dataclass
class Trajectory:
    grid: GridSpec
    kappa: float
    records: list = field(default_factory=list)  # dicts: column name -> value
    snapshots: list = field(default_factory=list)  # SimState at sample times
    last_state: SimState | None = None  # the state of the last record
    nonlinear: bool = True  # whether the advection terms were active
    status: str = "ok"  # "ok" | "blowup" | "error"
    # "end" | "threshold" (ok), "guard" | "non_finite" | "step_floor" (blowup), "error"
    stop_reason: str = "end"
    t_stop: float = 0.0  # t_final, the stop rule's crossing, or the time of the stop
    error: str | None = None  # the message of the error that stopped the run
    steps: int = 0  # steps taken
    rejected: int = 0  # adaptive steps whose error exceeded STEP_RTOL, retried smaller
    dt_min: float | None = None  # smallest step taken, a step cut at a sample time included
    dt_max: float | None = None  # largest step taken

    def column(self, name: str) -> np.ndarray:
        return np.array([r[name] for r in self.records])

    def took(self, dt: float) -> None:
        """Count a step of size dt."""
        dt = float(dt)
        self.steps += 1
        self.dt_min = dt if self.dt_min is None else min(self.dt_min, dt)
        self.dt_max = dt if self.dt_max is None else max(self.dt_max, dt)


# ---------------------------------------------------------------------------
# right-hand side


def _advecting(velocity, state: SimState) -> VectorField:
    """The advecting velocity at state.t: `velocity(t)`, or, when velocity is
    None, the state's own."""
    return state.own_velocity() if velocity is None else velocity(state.t)


def rhs(state: SimState, velocity=None, nonlinear: bool = True):
    """(d omega, d rho); `velocity(t)` supplies the advecting field, None
    meaning the state's own.  nonlinear=False drops the advection terms.

    The kappa * u2 coupling always uses the unknown's own Biot-Savart
    velocity, so the same routine serves the frozen-transport linear solves.
    """
    domega = state.kappa * derivative(state.rho, 1)
    drho = state.kappa * state.own_velocity().u2
    if nonlinear:
        adv_omega, adv_rho = advect(_advecting(velocity, state), state.omega, state.rho)
        domega, drho = -adv_omega + domega, -adv_rho + drho
    return domega, drho


# ---------------------------------------------------------------------------
# steppers: SCHEMES[name] = (first_stage, scheme), with
#   first_stage(state, velocity, nonlinear) -> k1
#   scheme(state, dt, k1, velocity, nonlinear) -> (new, error)
#
# Both schemes use the classical RK4 tableau.  Its free third-order
# embedding, weights (1/6, 1/3, 1/3, 0, 1/6) on (k1, k2, k3, k4, k5) with k5
# the first stage at the new state, differs from RK4 by dt/6 (k4 - k5): the
# local error that `run`'s adaptive steps control.  `error(k5)` returns it
# as a (V+, V-) stack, or None from the exact linear Lawson step.  k5 does
# not depend on the next step's size, so `run` passes it on as the next
# step's k1 (first same as last): an accepted adaptive step costs the four
# forcings of a fixed one.  A fixed run never calls `error`.


def _rk4_step(state: SimState, dt: float, k1, velocity, nonlinear: bool):
    def f(om, rh, t):
        return rhs(SimState(om, rh, t, state.kappa), velocity, nonlinear)

    om, rh, t = state.omega, state.rho, state.t
    k1o, k1r = k1
    k2o, k2r = f(om + (dt / 2) * k1o, rh + (dt / 2) * k1r, t + dt / 2)
    k3o, k3r = f(om + (dt / 2) * k2o, rh + (dt / 2) * k2r, t + dt / 2)
    k4o, k4r = f(om + dt * k3o, rh + dt * k3r, t + dt)
    om1 = om + (dt / 6) * (k1o + 2 * k2o + 2 * k3o + k4o)
    rh1 = rh + (dt / 6) * (k1r + 2 * k2r + 2 * k3r + k4r)
    new = SimState(om1, rh1, t + dt, state.kappa)

    def error(k5):  # in (omega, rho), diagonalized to be measured as V is
        k5o, k5r = k5
        return diagonal_stack(new.grid, dt / 6 * (k4o.coeffs - k5o.coeffs),
                              dt / 6 * (k4r.coeffs - k5r.coeffs))

    return new, error


def _lawson_frame(state: SimState) -> np.ndarray:
    """V = (V+, V-) of the state on the dealiased columns, masked."""
    grid, c = state.grid, state.grid.dealiased_columns
    v = diagonal_stack(grid, state.omega.coeffs[:, :c], state.rho.coeffs[:, :c])
    v *= grid.dealias_weight
    return v


def _lawson_forcing(grid: GridSpec, w: np.ndarray, rho_mean: float, u) -> np.ndarray:
    """F, not yet pulled back, for the (omega, rho) merged from w on the
    dealiased columns: the diagonal variables of the spectra of
    u . grad (omega, rho), with u the given VectorField or, when None,
    omega's own velocity, computed with the gradients."""
    samples = None if u is None else u.samples()
    return diagonal_stack(grid, *_advection(grid, merged_stack(grid, w, rho_mean), samples))


def _lawson_first_stage(state: SimState, velocity, nonlinear: bool) -> np.ndarray | None:
    """The state's F, masked (the pull-back at stage 1), or None for the
    linear step, which has none: it advects with velocity(t) or the state's
    own velocity, whose samples `cfl_dt` has usually made already, and
    differentiates the merged fields."""
    if not nonlinear:
        return None
    f = _lawson_forcing(state.grid, _lawson_frame(state), state.rho.mean,
                        _advecting(velocity, state))
    return _turn(state.grid.dealias_weight, f)


def _ifrk4_step(state: SimState, dt: float, k1, velocity, nonlinear: bool):
    """Lawson (integrating-factor) RK4 on the stacked diagonal variables
    V = (V+, V-): each stage input, the RK combination and each pull-back
    by the phase are one array operation on both.

    The step works on the first `GridSpec.dealiased_columns` columns of the
    half spectrum, the only ones the dealias mask keeps: V and every stage
    array are (2, n, c), and (omega, rho) return in full layout, zero from
    the column c on.  It reads only the dealiased modes of (omega, rho), so
    a state steps as dealias(state) does, given the same advecting velocity
    (at stage 1, the state's own: that of dealias(omega) only when omega is
    dealiased).  `run` dealiases its data, so its states are.

    A stage's forcing F is dealias(a +- Lambda b) for the spectra (a, b) of
    u . grad (omega, rho), pulled back by the phase: one product with the
    masked phase, or with the mask at stage 1.  dV/dt = -F, so the stage
    inputs and the RK combination subtract it: exactly the sums that adding
    -F makes.  The error dt/6 (k4 - k5) is taken in the Lawson frame of the
    step's start, where k5 is the new state's first stage pulled back by
    the full step's phase: the masked phases are unimodular on the dealias
    set, so its norm is that of the new state's frame.
    """
    grid, kappa, t, rho_mean = state.grid, state.kappa, state.t, state.rho.mean
    c = grid.dealiased_columns
    # the phases (e, conj e) over dt/2 and over dt, masked by the dealias
    # set: a masked phase takes a stage input to the dealias set, and
    # reversed it is the masked pull-back of a stage's advection spectra
    half = phase_multiplier(grid, kappa * dt / 2, c)
    half *= grid.dealias_weight
    full = half * half
    v = _lawson_frame(state)
    if nonlinear:
        def forcing(w, t):
            return _lawson_forcing(grid, w, rho_mean, None if velocity is None else velocity(t))

        # the pull-back by (e, conj e) is the product with (conj e, e): the
        # reversed stack, a view
        k2 = _turn(half[::-1], forcing(_turn(half, v - dt / 2 * k1), t + dt / 2))
        k3 = _turn(half[::-1], forcing(_turn(half, v - dt / 2 * k2), t + dt / 2))
        k4 = _turn(full[::-1], forcing(_turn(full, v - dt * k3), t + dt))
        v = v - dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    coeffs = np.zeros((2,) + grid.shape, dtype=complex)
    coeffs[..., :c] = merged_stack(grid, _turn(full, v), rho_mean)
    new = SimState(SpectralField(grid, coeffs[0]), SpectralField(grid, coeffs[1]), t + dt, kappa)

    def error(k5):  # None: the linear step is exact
        if not nonlinear:
            return None
        e = np.multiply(full[::-1], k5)
        return dt / 6 * np.subtract(k4, e, out=e)

    return new, error


def _turn(phase: np.ndarray, x: np.ndarray) -> np.ndarray:
    """phase * x, in place in x, with the phase as the left operand.

    numpy's complex product (fused multiply-adds) can differ in the last bit
    when its operands swap, and `phase * (temporary)` swaps them once the
    temporary reaches numpy's 256 KiB elision size, so the operand order is
    fixed here, not by the array's size."""
    return np.multiply(phase, x, out=x)


SCHEMES = {"rk4": (rhs, _rk4_step), "ifrk4": (_lawson_first_stage, _ifrk4_step)}


def step(state: SimState, dt: float, config: StepperConfig, velocity=None,
         nonlinear: bool = True, k1=None):
    """One step of config's scheme from `state`, its first stage k1 made
    when None: (new, error), where error(k5) is the step's local error."""
    first_stage, scheme = SCHEMES[config.scheme]
    if k1 is None:
        k1 = first_stage(state, velocity, nonlinear)
    new, error = scheme(state, dt, k1, velocity, nonlinear)
    if not (np.isfinite(new.omega.coeffs).all() and np.isfinite(new.rho.coeffs).all()):
        raise BlowupSuspectedError("non-finite coefficients after step", t=new.t)
    return new, error


def _weighted_norm(grid: GridSpec, v: np.ndarray) -> float:
    """The |xi|^2-weighted Plancherel norm of a (V+, V-) stack on its first
    w columns, sqrt(sum |xi|^2 (|V+|^2 + |V-|^2)) over the full spectrum."""
    weight = grid.columns("xi_sq", v.shape[-1])
    return float(np.sqrt(_plancherel_sum(weight * (v.real**2 + v.imag**2)).sum()))


def _error_ratio(new: SimState, error) -> float:
    """|error| over STEP_RTOL |V| at `new`, both in the |xi|^2-weighted
    norm, for the local error of the step that made `new` (None: exact):
    the step is accepted at <= 1."""
    if error is None:
        return 0.0
    size = _weighted_norm(new.grid, diagonal_stack(new.grid, new.omega.coeffs, new.rho.coeffs))
    err = _weighted_norm(new.grid, error)
    return 0.0 if err == 0 else err / (STEP_RTOL * size)


def _advance(state: SimState, k1, dt: float, target: float, config: StepperConfig,
             velocity, nonlinear: bool, traj: Trajectory):
    """One accepted step from `state`, whose first stage is k1 (made when
    None), toward `target`; returns (new, k1_next, dt_next).

    A fixed config steps by dt, cut at the target, and returns k1_next None
    and dt.  An adaptive one tries dt under the `cfl_dt` cap, cut at the
    target, and retries from the same state and k1 at the controller's
    smaller step while the error ratio exceeds 1.  k1_next is k5, and
    dt_next is h clip(0.9 ratio^(-1/4), 0.5, 2), or dt again after a step
    cut short at the target."""
    first_stage = SCHEMES[config.scheme][0]
    cap = cfl_dt(state, config, velocity) if config.adaptive else np.inf
    if k1 is None:
        k1 = first_stage(state, velocity, nonlinear)
    while True:
        h = min(dt, cap, target - state.t)
        new, error = step(state, h, config, velocity, nonlinear, k1=k1)
        # the state's velocity has served the cap and k1, all that a retry
        # needs: freed, it is not alive beside the new one's
        state.__dict__.pop("_own_velocity", None)
        if not config.adaptive:
            traj.took(h)
            return new, None, dt
        k5 = first_stage(new, velocity, nonlinear)
        ratio = _error_ratio(new, error(k5))
        proposal = h * (2.0 if ratio == 0 else min(2.0, max(0.5, 0.9 * ratio**-0.25)))
        if ratio <= 1.0:
            traj.took(h)
            return new, k5, (dt if h < min(dt, cap) else proposal)
        traj.rejected += 1
        if proposal <= 1e-12 * max(1.0, state.t):
            raise BlowupSuspectedError(f"adaptive step fell to {proposal:.2e}", t=state.t,
                                       reason="step_floor")
        dt = proposal


def cfl_dt(state: SimState, config: StepperConfig, velocity=None) -> float:
    """The stability cap on an adaptive step: CFL_ADVECT dx / |u|_inf, and
    for rk4 CFL_COUPLING / (1 + |kappa|); inf when neither binds."""
    u = _advecting(velocity, state)
    require_hermitian(u.u1)
    require_hermitian(u.u2)
    speed = max(np.abs(samples).max() for samples in u.samples())
    dt = np.inf
    if speed > 0:
        dt = CFL_ADVECT * state.grid.dx / speed
    if config.scheme == "rk4":
        dt = min(dt, CFL_COUPLING / (1.0 + abs(state.kappa)))
    return dt


# ---------------------------------------------------------------------------
# diagnostics


def _grad_infs(groups) -> list[float]:
    """grad_inf of each group of fields: their derivative slices, made in
    one stack and checked one by one, are transformed in one `_samples`
    call."""
    fields = [f for group in groups for f in group]
    grid = fields[0].grid
    stack = np.empty((2 * len(fields),) + grid.shape, dtype=complex)
    for f, pair in zip(fields, stack.reshape(len(fields), 2, *grid.shape)):
        np.multiply(grid.grad_symbol, f.coeffs, out=pair)
        for d in pair:
            require_hermitian(SpectralField(grid, d))
    samples = iter(_samples(grid, stack))
    del stack
    return [float(np.sqrt(sum(next(samples) ** 2 for _ in range(2 * len(group)))).max())
            for group in groups]


def grad_inf(*fields: SpectralField) -> float:
    """max over grid points of the euclidean norm of the stacked gradients:
    |grad f| for grad_inf(f), the Frobenius norm of grad u for
    grad_inf(u.u1, u.u2)."""
    return _grad_infs([fields])[0]


def z_norm(omega: SpectralField, rho: SpectralField, bank: DyadicBank,
           s: float = 2.0, q: float = 1.0) -> float:
    """z_{s,q} = |omega| in (dotted B^{s-1}_{2,q} cap H^-1) + |rho| in B^s_{2,q}."""
    return intersection_norm(omega, s - 1.0, q, bank) + besov_norm(
        rho, BesovSpec(s=s, q=q, homogeneous=False), bank
    )


_B0INF1 = BesovSpec(s=0.0, p=np.inf, q=1.0, homogeneous=True)


def _gradient_maxima(st: SimState, bank, s, q) -> tuple[float, float]:
    """(|grad u|_inf, |grad rho|_inf) at the state: one inverse call of six
    slices."""
    u = st.own_velocity()
    rho_inf, u_inf = _grad_infs([(st.rho,), (u.u1, u.u2)])
    return u_inf, rho_inf


def _band_norms(st: SimState, bank, s, q) -> list[float]:
    """(|V+|, |V-|) in dotted B^0_{inf,1}: the state diagonalized once."""
    v = diagonal_stack(st.grid, st.omega.coeffs, st.rho.coeffs)
    return [besov_norm(SpectralField(st.grid, vs), _B0INF1, bank) for vs in v]


# the functionals a record can hold, one row per shared computation: the
# columns a row fills -> values(state, bank, s, q), one value per column
FUNCTIONALS = {
    ("energy",): lambda st, bank, s, q: (hminus1_norm(st.omega) ** 2 + lp_norm(st.rho, 2) ** 2,),
    ("z",): lambda st, bank, s, q: (z_norm(st.omega, st.rho, bank, s, q),),
    ("grad_u_inf", "grad_rho_inf"): _gradient_maxima,
    ("vplus_band_norm", "vminus_band_norm"): _band_norms,
}

# the running integrals int_0^t f, which `run` adds to each record by the
# trapezoid rule over the sample times: name -> (f's columns, f)
INTEGRALS = {
    "m_integral": (("vplus_band_norm", "vminus_band_norm"), max),
    "b_integral": (("grad_rho_inf", "grad_u_inf"), lambda rho, u: rho + u),
}

COLUMNS = ("t", *(c for columns in FUNCTIONALS for c in columns), *INTEGRALS)


def diagnostics(state: SimState, bank: DyadicBank, s: float, q: float, names) -> dict:
    """The record of `state`: its time t and the FUNCTIONALS columns among
    `names`, in COLUMNS order.  Each row that fills one of them is
    evaluated once, and its columns not among `names` are dropped."""
    names, rec = set(names), {"t": state.t}
    for columns, values in FUNCTIONALS.items():
        if names.intersection(columns):
            rec.update((c, v) for c, v in zip(columns, values(state, bank, s, q)) if c in names)
    return rec


# ---------------------------------------------------------------------------
# driver


def run(
    omega0: SpectralField,
    rho0: SpectralField,
    kappa: float,
    t_final: float,
    config: StepperConfig,
    n_samples: int = 21,
    store_snapshots: bool = False,
    bank: DyadicBank | None = None,
    s: float = 2.0,
    q: float = 1.0,
    velocity=None,
    nonlinear: bool = True,
    stop=None,
    record=COLUMNS,
) -> Trajectory:
    """Integrate to t_final, recording diagnostics at n_samples >= 2 equally
    spaced times from 0 (the data, dealiased) to t_final > 0.

    `velocity(t)` supplies the advecting field, by default the state's own
    Biot-Savart velocity; nonlinear=False drops the advection terms.
    `record` selects the COLUMNS each sample's record, a dict, keeps; the
    INTEGRALS are added here, as trapezoids over the sample times.
    `stop = (name, threshold)` ends the run at the first sample whose
    column `name` reaches threshold.  A bad schedule, selection or stop
    rule, or one the data's record already meets, raises ValueError before
    any step; data with a non-finite coefficient raises Strat2dError.

    A fixed config steps by config.dt, cut at the sample times.  An
    adaptive one tries config.dt first and then sets each step by its local
    error (`_advance`); the trajectory counts the steps taken and rejected
    and the range of their sizes.

    How the run ended is decided here alone, in `status`, `stop_reason` and
    `t_stop`: "ok" at "end" (t_stop = t_final) or at "threshold" (the stop
    rule's crossing, interpolated linearly from the previous sample);
    "blowup" at "guard" (z beyond GUARD_FACTOR z(0) at a sample),
    "non_finite" (non-finite coefficients after a step, or a non-finite z)
    or "step_floor" (an adaptive step fell below 1e-12 max(1, t)), with
    t_stop the time it was seen; "error" when a step or a later record
    raised another Strat2dError, with t_stop the last state's time and the
    message in `error`.  Each keeps the records collected and, in
    `last_state`, the state of the last one.
    """
    if n_samples < 2 or not t_final > 0:
        raise ValueError(f"need n_samples >= 2 and t_final > 0, got {n_samples}, {t_final}")
    names = set(record)
    needed = {"t", "z"}.union(*(INTEGRALS[n][0] for n in names & set(INTEGRALS)))
    if not needed <= names <= set(COLUMNS):
        raise ValueError(f"record {tuple(record)} is not a selection of {COLUMNS} that "
                         "holds t, z and the integrands of its integrals")
    if stop is not None and (stop[0] not in names or np.isnan(stop[1])):
        raise ValueError(f"the stop rule {stop} reads a column not recorded, or is NaN")
    if not (np.isfinite(omega0.coeffs).all() and np.isfinite(rho0.coeffs).all()):
        raise Strat2dError("the initial data has a non-finite coefficient")
    require_mean_zero(omega0, "time integration")
    grid = omega0.grid
    omega0, rho0 = dealias(omega0), dealias(rho0)
    if bank is None:
        bank = DyadicBank(grid)

    def sample(state, prev):
        rec = diagnostics(state, bank, s, q, record)
        for name, (needs, f) in INTEGRALS.items():
            if name in record:
                f_now = f(*(rec[n] for n in needs))
                rec[name] = 0.0 if prev is None else prev[name] + 0.5 * (
                    rec["t"] - prev["t"]) * (f_now + f(*(prev[n] for n in needs)))
        return rec

    state = SimState(omega0, rho0, 0.0, kappa)
    traj = Trajectory(grid=grid, kappa=kappa, nonlinear=nonlinear, t_stop=t_final)
    rec = sample(state, None)
    if stop is not None and rec[stop[0]] >= stop[1]:
        raise ValueError(f"the data already meets the stop rule {stop[0]} >= {stop[1]}")
    traj.records.append(rec)
    traj.last_state = replace(state)  # a copy, which does not keep the velocity memo
    if store_snapshots:
        traj.snapshots.append(traj.last_state)
    z0 = rec["z"]

    dt, k1 = config.dt, None  # the next step to try, and the first stage at `state`
    for target in np.linspace(0.0, t_final, n_samples)[1:]:
        try:
            while state.t < target - 1e-12 * max(1.0, target):
                state, k1, dt = _advance(state, k1, dt, target, config, velocity, nonlinear, traj)
            prev, rec = rec, sample(state, rec)
        except BlowupSuspectedError as exc:
            traj.status, traj.stop_reason, traj.t_stop = "blowup", exc.reason, exc.t
            break
        except Strat2dError as exc:
            traj.status, traj.stop_reason, traj.t_stop = "error", "error", state.t
            traj.error = f"{type(exc).__name__}: {exc}"
            break
        traj.records.append(rec)
        traj.last_state = replace(state)
        if store_snapshots:
            traj.snapshots.append(traj.last_state)
        if not np.isfinite(rec["z"]) or (z0 > 0 and rec["z"] > GUARD_FACTOR * z0):
            traj.status, traj.t_stop = "blowup", rec["t"]
            traj.stop_reason = "guard" if np.isfinite(rec["z"]) else "non_finite"
            break
        if stop is not None and rec[stop[0]] >= stop[1]:
            # the crossing, linear inside the last sample interval
            before, after = prev[stop[0]], rec[stop[0]]
            frac = (stop[1] - before) / (after - before)
            traj.stop_reason = "threshold"
            traj.t_stop = float(prev["t"] + frac * (rec["t"] - prev["t"]))
            break
    return traj


def lifespan(
    omega0: SpectralField,
    rho0: SpectralField,
    kappa: float,
    t_max: float,
    theta: float,
    config: StepperConfig,
    **run_kwargs,
):
    """First time B(t) = int (|grad rho|_inf + |grad u|_inf) reaches theta:
    `run` to t_max with the stop rule ("b_integral", theta).

    Returns (t_life, trajectory): t_life is the run's t_stop (t_max when B
    stays below theta), or None when the run blew up or raised.
    """
    traj = run(omega0, rho0, kappa, t_max, config, stop=("b_integral", theta), **run_kwargs)
    return (traj.t_stop if traj.status == "ok" else None), traj


def gronwall_fit(records) -> float:
    """Smallest C with z(t) <= z(0) exp(C B(t)) at every sample (0 if none binds)."""
    if not records:
        raise ValueError("empty diagnostics series")
    z0 = records[0]["z"]
    best = 0.0
    for r in records[1:]:
        if r["b_integral"] > 0 and z0 > 0 and r["z"] > z0:
            best = max(best, np.log(r["z"] / z0) / r["b_integral"])
    return float(best)

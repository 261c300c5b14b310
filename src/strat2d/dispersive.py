"""Stratified linear propagator, dispersive measurements, and the kappa
threshold formula.

The linearized system diagonalizes on V+- = omega +- Lambda rho and evolves
each mode by the unimodular phase exp(+-i kappa t xi1/|xi|).  On the torus
there is no genuine time decay, so the L^gamma(0, inf) norms are truncated
to a window T_max; the kappa-scaling of the windowed quantity is the content
being measured.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bands import BesovSpec, DyadicBank, besov_norm
from .grid import (
    GridSpec,
    SpectralField,
    advect,
    biot_savart,
    lambda_power,
    lp_norm_unchecked,
    require_hermitian,
    require_mean_zero,
)

SIGNS = (+1, -1)


def _phase_multiplier(grid: GridSpec, t: float, kappa: float, sign: int) -> np.ndarray:
    return np.exp(1j * sign * kappa * t * grid.xi1_over_abs)


def semigroup_apply(f: SpectralField, t: float, kappa: float, sign: int = +1) -> SpectralField:
    """exp(+- t kappa R1) f: per-mode phase, isometric on L2-based norms."""
    require_mean_zero(f, "stratified propagator")
    if sign not in SIGNS:
        raise ValueError("sign must be +1 or -1")
    return SpectralField(f.grid, _phase_multiplier(f.grid, t, kappa, sign) * f.coeffs)


def diagonalize(omega: SpectralField, rho: SpectralField):
    """V+- = omega +- Lambda rho (rho's mean is annihilated by Lambda)."""
    require_mean_zero(omega, "diagonalization")
    lam_rho = lambda_power(rho, 1.0)
    return omega + lam_rho, omega - lam_rho


def undiagonalize(vplus: SpectralField, vminus: SpectralField, rho_mean: float = 0.0):
    omega = 0.5 * (vplus + vminus)
    lam_rho = 0.5 * (vplus - vminus)
    rho = lambda_power(lam_rho, -1.0).with_mean(rho_mean)
    return omega, rho


def g_operator(f: SpectralField, t: float, cutoff_hat: np.ndarray | None = None,
               bank: DyadicBank | None = None, sign: int = +1) -> SpectralField:
    """Frequency-localized propagator: multiplier phi_hat(xi) exp(+-i t xi1/|xi|).

    Default cutoff is the band-0 profile from the dyadic bank.
    """
    if cutoff_hat is None:
        if bank is None:
            bank = DyadicBank(f.grid)
        cutoff_hat = bank.psi_hat(0)
    phase = _phase_multiplier(f.grid, t, 1.0, sign)
    return SpectralField(f.grid, cutoff_hat * phase * f.coeffs)


# ---------------------------------------------------------------------------
# windowed space-time norms


@dataclass(frozen=True)
class StrichartzSample:
    kappa: float
    gamma: float
    r: float
    t_max: float
    nodes: int
    value: float
    space: str = "lr"  # "lr" | "besov"

    def __post_init__(self):
        if 1.0 / self.gamma + 1.0 / (2.0 * self.r) > 0.25 + 1e-12:
            raise ValueError("inadmissible (gamma, r): need 1/gamma + 1/(2r) <= 1/4")
        if self.value < 0 or not np.isfinite(self.value):
            raise ValueError("measured value must be finite and nonnegative")


def _time_nodes(kappa: float, t_max: float, nodes: int | None) -> np.ndarray:
    """Uniform nodes dense enough to resolve the kappa-fast phase."""
    needed = int(math.ceil(4.0 * max(abs(kappa), 1.0) * t_max)) + 1
    if nodes is None:
        nodes = needed
    if nodes < 2:
        raise ValueError("need at least 2 quadrature nodes")
    spacing = t_max / (nodes - 1)
    if abs(kappa) * spacing > 0.25 + 1e-12:
        raise ValueError(
            f"node spacing {spacing:.3g} too coarse for kappa={kappa}: need kappa*dt <= 1/4 "
            f"(>= {needed} nodes)"
        )
    return np.linspace(0.0, t_max, nodes)


def _lgamma_time_norm(values: np.ndarray, times: np.ndarray, gamma: float) -> float:
    if np.isinf(gamma):
        return float(values.max())
    return float(np.trapezoid(values**gamma, times) ** (1.0 / gamma))


def strichartz_measure(
    f: SpectralField,
    kappa: float,
    gamma: float,
    r: float,
    t_max: float,
    nodes: int | None = None,
    cutoff_hat: np.ndarray | None = None,
    bank: DyadicBank | None = None,
    sign: int = +1,
) -> StrichartzSample:
    """(int_0^T |G(+-kappa t) f|_{L^r}^gamma dt)^{1/gamma} on the window.

    Depends on kappa only through |kappa|; the propagation direction is the
    separate `sign` argument.
    """
    require_mean_zero(f, "dispersive measurement")
    kappa = abs(kappa)
    if bank is None:
        bank = DyadicBank(f.grid)
    if cutoff_hat is None:
        cutoff_hat = bank.psi_hat(0)
    times = _time_nodes(kappa, t_max, nodes)
    # checked once here: the radial cutoff and the phase keep f's absolute defect
    require_hermitian(f)
    vals = np.array([
        lp_norm_unchecked(g_operator(f, kappa * t, cutoff_hat=cutoff_hat, sign=sign), r)
        for t in times
    ])
    value = _lgamma_time_norm(vals, times, gamma)
    return StrichartzSample(kappa=abs(kappa), gamma=gamma, r=r, t_max=t_max,
                            nodes=len(times), value=value)


def besov_strichartz_measure(
    f: SpectralField,
    kappa: float,
    gamma: float,
    r: float,
    q: float,
    s: float,
    t_max: float,
    nodes: int | None = None,
    bank: DyadicBank | None = None,
    sign: int = +1,
) -> StrichartzSample:
    """As strichartz_measure with X = dotted B^s_{r,q} and the full propagator."""
    require_mean_zero(f, "dispersive measurement")
    kappa = abs(kappa)
    if not 4.0 <= gamma <= q:
        raise ValueError("need 4 <= gamma <= q")
    if bank is None:
        bank = DyadicBank(f.grid)
    spec = BesovSpec(s=s, p=r, q=q, homogeneous=True)
    times = _time_nodes(kappa, t_max, nodes)
    vals = np.array([
        besov_norm(semigroup_apply(f, t, kappa, sign), spec, bank) for t in times
    ])
    value = _lgamma_time_norm(vals, times, gamma)
    return StrichartzSample(kappa=abs(kappa), gamma=gamma, r=r, t_max=t_max,
                            nodes=len(times), value=value, space="besov")


def fit_slope(kappas, values) -> float:
    """Least-squares slope of log(value) vs log(kappa)."""
    kappas = np.asarray(kappas, dtype=float)
    values = np.asarray(values, dtype=float)
    if len(kappas) < 6:
        raise ValueError("slope fit needs at least 6 kappa values")
    return float(np.polyfit(np.log(kappas), np.log(values), 1)[0])


# ---------------------------------------------------------------------------
# Duhamel consistency


def duhamel_residual(traj, kappa: float, sign: int = +1) -> np.ndarray:
    """Relative L2 mismatch between the stored trajectory and its Duhamel form.

    V(t) = e^{+-kappa R1 t} V(0) - int_0^t e^{+-kappa R1 (tau - t)} (f +- Lambda g) dtau
    with f = dealias(u.grad omega), g = dealias(u.grad rho); trapezoid over
    the stored snapshots.
    """
    snaps = traj.snapshots
    if len(snaps) < 2:
        raise ValueError("trajectory must carry at least two snapshots")
    times = np.array([st.t for st in snaps])
    dt_snap = np.diff(times).max()
    if abs(kappa) * dt_snap > 0.5 + 1e-12:
        raise ValueError(
            f"snapshot spacing {dt_snap:.3g} too coarse for kappa={kappa}: need kappa*dt <= 1/2"
        )
    grid = snaps[0].grid

    vs, forcings = [], []
    for st in snaps:
        vp, vm = diagonalize(st.omega, st.rho)
        v = vp if sign == +1 else vm
        if traj.nonlinear:
            u = biot_savart(st.omega)
            fterm = advect(u, st.omega)
            gterm = lambda_power(advect(u, st.rho), 1.0)
            forcing = fterm + gterm if sign == +1 else fterm - gterm
        else:
            forcing = SpectralField(grid, np.zeros_like(v.coeffs))
        vs.append(v)
        forcings.append(forcing)

    residuals = [0.0]
    for i in range(1, len(snaps)):
        t = times[i]
        v_pred = semigroup_apply(vs[0], t, kappa, sign).coeffs
        integrand = [
            _phase_multiplier(grid, t - tau, kappa, sign) * forcings[j].coeffs
            for j, tau in enumerate(times[: i + 1])
        ]
        integral = np.trapezoid(np.stack(integrand), times[: i + 1], axis=0)
        v_pred = v_pred - integral
        denom = np.linalg.norm(vs[i].coeffs)
        num = np.linalg.norm(vs[i].coeffs - v_pred)
        residuals.append(num / denom if denom > 0 else num)
    return np.array(residuals)


# ---------------------------------------------------------------------------
# kappa threshold


@dataclass(frozen=True)
class Kappa0Inputs:
    t: float
    z: float  # size of the data in the relevant norms
    c6: float
    c7: float
    gamma: float

    def __post_init__(self):
        for name in ("t", "z", "c6", "c7", "gamma"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


def kappa0_estimate(inp: Kappa0Inputs):
    """kappa0 = [2 (1 + z T exp(C6 C7 T^{1-1/gamma} z))]^gamma.

    Returns (value, overflow_flag); value is +inf when the formula overflows.
    """
    with np.errstate(over="ignore"):
        expo = inp.c6 * inp.c7 * inp.t ** (1.0 - 1.0 / inp.gamma) * inp.z
        if expo > 700:
            return float("inf"), True
        base = 2.0 * (1.0 + inp.z * inp.t * math.exp(expo))
        try:
            val = base**inp.gamma
        except OverflowError:
            return float("inf"), True
    if not np.isfinite(val):
        return float("inf"), True
    return float(val), False

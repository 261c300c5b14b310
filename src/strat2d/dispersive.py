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

from .bands import DyadicBank, _lq
from .grid import (
    GridSpec,
    SpectralField,
    SupportSynthesis,
    _advection,
    _coefficient_norms,
    diagonal_stack,
    phase_multiplier,
    require_hermitian,
    require_mean_zero,
    sample_lp_norms,
)

SIGNS = (+1, -1)
# time nodes per block in _node_norms; a block synthesizes
# NODE_BLOCK * n * n grid samples (0.5 MB at n = 128).  Blocks of 8 ran about
# 2% faster at n = 128 but raised a sweep's peak memory by 2 MB.
NODE_BLOCK = 4


def semigroup_apply(f: SpectralField, t: float, kappa: float, sign: int = +1) -> SpectralField:
    """exp(+- t kappa R1) f: per-mode phase, isometric on L2-based norms."""
    require_mean_zero(f, "stratified propagator")
    if sign not in SIGNS:
        raise ValueError("sign must be +1 or -1")
    return SpectralField(f.grid, phase_multiplier(f.grid, sign * kappa * t)[0] * f.coeffs)


def diagonalize(omega: SpectralField, rho: SpectralField):
    """(V+, V-) as fields: `diagonal_stack` of (omega, rho)."""
    grid = omega.grid
    v = diagonal_stack(grid, omega.coeffs, rho.coeffs)
    return SpectralField(grid, v[0]), SpectralField(grid, v[1])


# ---------------------------------------------------------------------------
# windowed space-time norms


def admissible(gamma: float, r: float) -> bool:
    """(gamma, r) with 1/gamma + 1/(2r) <= 1/4: the pairs the dispersive estimate covers."""
    return gamma > 0 and r > 0 and 1.0 / gamma + 1.0 / (2.0 * r) <= 0.25 + 1e-12


def require_admissible(gamma: float, r: float) -> None:
    if not admissible(gamma, r):
        raise ValueError("inadmissible (gamma, r): need 1/gamma + 1/(2r) <= 1/4")


@dataclass(frozen=True)
class StrichartzSample:
    kappa: float
    gamma: float
    r: float
    t_max: float
    nodes: int
    value: float

    def __post_init__(self):
        require_admissible(self.gamma, self.r)
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


def _require_measurable(f: SpectralField, gamma: float, r: float, sign: int) -> None:
    """The guards of both measurements, before any node is evaluated.

    The phases and the radial cutoffs keep f's zero mode and its absolute
    Hermitian defect, so one check of f covers every node and every band.
    """
    require_admissible(gamma, r)
    if sign not in SIGNS:
        raise ValueError("sign must be +1 or -1")
    require_mean_zero(f, "dispersive measurement")
    require_hermitian(f)


def _node_norms(f: SpectralField, phases: np.ndarray, cutoff_hat: np.ndarray, r: float,
                sign: int) -> np.ndarray:
    """|cutoff_hat exp(+-i s xi1/|xi|) f|_{L^r} at each phase argument s = kappa t.

    The phases are formed only where the cutoff times f is nonzero, and each
    block of NODE_BLOCK arguments is synthesized on that support's rows and
    columns (`SupportSynthesis`).  Unchecked: callers guard f first.
    """
    amp = cutoff_hat * f.coeffs
    k1, k2 = np.nonzero(amp)
    amp, symbol = amp[k1, k2], sign * f.grid.xi1_over_abs[k1, k2]
    # the support's rows and the columns k2 = 0 .. c-1 that reach it
    rows, row = np.unique(k1, return_inverse=True)
    c = int(k2.max(initial=-1)) + 1
    synthesis = SupportSynthesis(f.grid, rows, c)
    block = np.zeros((NODE_BLOCK, len(rows), c), dtype=complex)
    vals = np.empty(len(phases))
    for start in range(0, len(phases), NODE_BLOCK):
        s = phases[start : start + NODE_BLOCK]
        coeffs = block[: len(s)]
        coeffs[:, row, k2] = amp * np.exp(1j * s[:, None] * symbol)
        vals[start : start + len(s)] = sample_lp_norms(f.grid, synthesis(coeffs), r)
    return vals


def strichartz_measures(
    f: SpectralField,
    kappas,
    gamma: float,
    r: float,
    t_max: float,
    nodes: int | None = None,
    cutoff_hat: np.ndarray | None = None,
    bank: DyadicBank | None = None,
    sign: int = +1,
) -> list[StrichartzSample]:
    """`strichartz_measure` of one f at each kappa of kappas, in their order.

    The propagator depends on kappa and t only through s = kappa t, so the
    node norms are evaluated once on the union of every kappa's phase
    arguments |kappa| * times, and each kappa integrates its own gathered
    norms over its own times.  Only exactly equal arguments are shared, so
    each value is bit for bit the one-kappa measurement's; on a dyadic
    ladder every kappa's arguments are j/4, and the union is the largest
    kappa's nodes.
    """
    _require_measurable(f, gamma, r, sign)
    kappas = [abs(kappa) for kappa in kappas]
    if cutoff_hat is None:
        cutoff_hat = (bank or DyadicBank(f.grid)).psi_hat(0)
    # every kappa's nodes are checked before any node is evaluated
    times = [_time_nodes(kappa, t_max, nodes) for kappa in kappas]
    args = [kappa * t for kappa, t in zip(kappas, times)]
    # with return_inverse np.unique sorts; without it, numpy >= 2.3 hashes,
    # which peaks at 1.1 MB against 0.18 MB for a packet's 4 071 arguments
    phases, where = np.unique(np.concatenate(args), return_inverse=True)
    norms = _node_norms(f, phases, cutoff_hat, r, sign)
    ends = np.cumsum([len(t) for t in times])
    return [StrichartzSample(kappa=kappa, gamma=gamma, r=r, t_max=t_max, nodes=len(t),
                             value=_lgamma_time_norm(norms[at], t, gamma))
            for kappa, t, at in zip(kappas, times, np.split(where, ends[:-1]))]


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
    """(int_0^T |cutoff exp(+-kappa t R1) f|_{L^r}^gamma dt)^{1/gamma} on the
    window; the cutoff defaults to band 0.

    Depends on kappa only through |kappa|; the propagation direction is the
    separate `sign` argument.  The one-kappa case of `strichartz_measures`.
    """
    return strichartz_measures(f, [kappa], gamma, r, t_max, nodes, cutoff_hat, bank, sign)[0]


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
    """As strichartz_measure with X = dotted B^s_{r,q} and the full propagator:
    at each node, the l^q sum over the bank's bands of 2^{sj} times the band's
    `_node_norms`."""
    _require_measurable(f, gamma, r, sign)
    kappa = abs(kappa)
    if not 4.0 <= gamma <= q:
        raise ValueError("need 4 <= gamma <= q")
    if bank is None:
        bank = DyadicBank(f.grid)
    times = _time_nodes(kappa, t_max, nodes)
    phases = kappa * times
    bands = np.array([2.0 ** (s * j) * _node_norms(f, phases, bank.psi_hat(j), r, sign)
                      for j in bank.bands])
    value = _lgamma_time_norm(_lq(bands, q), times, gamma)
    return StrichartzSample(kappa=kappa, gamma=gamma, r=r, t_max=t_max,
                            nodes=len(times), value=value)


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
    if sign not in SIGNS:
        raise ValueError("sign must be +1 or -1")
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

    pick = 0 if sign == +1 else 1
    v = np.array([diagonal_stack(grid, st.omega.coeffs, st.rho.coeffs)[pick] for st in snaps])
    forcing = np.zeros_like(v)
    if traj.nonlinear:
        # f +- Lambda g, with (f, g) = dealias(u.grad (omega, rho)) and u = biot_savart(omega)
        for out, st in zip(forcing, snaps):
            fg = _advection(grid, [st.omega.coeffs, st.rho.coeffs]) * grid.dealias_mask
            out[...] = diagonal_stack(grid, *fg)[pick]

    # group law: e(t - tau) = e(t) conj(e(tau)), so the Duhamel integral up to
    # t_i is e(t_i) times a running trapezoid of conj(e(tau_j)) * forcing_j
    phases = np.array([phase_multiplier(grid, kappa * t)[pick] for t in times])
    pulled = np.conj(phases) * forcing
    steps = 0.5 * np.diff(times)[:, None, None] * (pulled[:-1] + pulled[1:])
    predicted = phases[1:] * (v[0] - np.cumsum(steps, axis=0))
    denom = _coefficient_norms(v[1:])
    num = _coefficient_norms(v[1:] - predicted)
    return np.concatenate([[0.0], np.divide(num, denom, out=num.copy(), where=denom > 0)])


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

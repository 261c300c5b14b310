"""Initial-data presets and seeded random spectral fields.

Random fields are built per integer wave vector from a counter-based
(Philox) stream in a fixed ordering of |k_i| <= kmax.  That ordering
depends on kmax, so the same seed yields the same spectrum on any grid that
resolves it only with kmax pinned; the default kmax, the grid's dealias
cutoff, draws a different field on every grid.
"""

from __future__ import annotations

import math

import numpy as np

from .grid import GridSpec, SpectralField, dealias, forward_transform, lp_norm


def _rng(seed: int, stream: int = 0) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.uint64(seed), counter=[0, 0, 0, np.uint64(stream)]))


def spectral_window(grid: GridSpec, xi_lo: float = 0.0, xi_hi: float = np.inf,
                    kmax: int | None = None):
    """The wave vectors of `random_field`'s draws and its window among them.

    Returns (k1, k2, xi, kept): the half plane k1 > 0, or k1 == 0 and
    k2 > 0, of |k_i| <= kmax (default: the grid's dealias cutoff) in
    row-major (k1, k2) order, one draw each; |xi| there; and the mask of the
    window xi_lo < |xi| <= xi_hi.  Raises ValueError for a kmax above n/2,
    whose modes leave the half spectrum, and for a window that holds no wave
    vector of the dealias set, whose field would be zero.
    """
    if kmax is None:
        kmax = grid.dealiased_columns - 1  # the dealias cutoff
    if kmax > grid.n // 2:
        raise ValueError(f"kmax = {kmax} exceeds n/2 for n = {grid.n}: "
                         "its modes leave the half spectrum")
    k1, k2 = np.meshgrid(np.arange(kmax + 1), np.arange(-kmax, kmax + 1), indexing="ij")
    half = (k1 > 0) | (k2 > 0)
    k1, k2 = k1[half], k2[half]
    xi = np.hypot(k1, k2) / grid.box_scale
    kept = (xi_lo < xi) & (xi <= xi_hi)
    # the dealias mask is even in k2, and 0 <= k1 <= n/2 is its own row
    if not (kept & grid.dealias_mask[k1, np.abs(k2)]).any():
        raise ValueError(f"no wave vector with |k_i| <= {kmax} lies in the window "
                         f"{xi_lo} < |xi| <= {xi_hi} and survives dealiasing")
    return k1, k2, xi, kept


def random_field(
    grid: GridSpec,
    seed: int,
    alpha: float = 2.5,
    xi_lo: float = 0.0,
    xi_hi: float = np.inf,
    amplitude: float = 1.0,
    kmax: int | None = None,
    stream: int = 0,
) -> SpectralField:
    """Isotropic power-law spectrum |xi|^-alpha with random phases.

    The spectrum is restricted to xi_lo < |xi| <= xi_hi and to |k_i| <= kmax
    (default: the grid's dealias cutoff; at most n/2), a window that must
    hold a wave vector of the dealias set (`spectral_window`).  Mean-zero; L2 norm scaled to
    `amplitude` when nonzero.
    """
    k1, k2, xi, kept = spectral_window(grid, xi_lo, xi_hi, kmax)
    draws = _rng(seed, stream).normal(size=(k1.size, 2))
    k1, k2, draws = k1[kept], k2[kept], draws[kept]
    # libm's pow: numpy's vectorised power may differ from it in the last bit
    power = np.array([math.pow(x, -alpha) for x in xi[kept]])
    c = (draws[:, 0] + 1j * draws[:, 1]) * power
    # the half spectrum stores whichever of k, -k has k2 >= 0 (both if k2 = 0);
    # in draw order, value before conjugate, the last write to a cell wins (the
    # Nyquist row k1 = n/2 is written twice)
    writes = np.stack([k2 >= 0, k2 <= 0], axis=1)
    rows = np.stack([k1 % grid.n, -k1 % grid.n], axis=1)[writes]
    cols = np.stack([k2, -k2], axis=1)[writes]
    values = np.stack([c, np.conj(c)], axis=1)[writes]
    cells = np.ravel_multi_index((rows, cols), grid.shape)
    last = cells.size - 1 - np.unique(cells[::-1], return_index=True)[1]
    coeffs = np.zeros(grid.shape, dtype=complex)
    coeffs.flat[cells[last]] = values[last]
    f = dealias(SpectralField(grid, coeffs))
    norm = lp_norm(f, 2)
    if norm > 0:
        f = f * (amplitude / norm)
    return f


def coherent_band_field(
    grid: GridSpec,
    seed: int,
    xi_center: float = 1.15,
    width: float = 0.25,
) -> SpectralField:
    """Gaussian radial spectrum with coherent phases: a localized wave packet.

    The seed randomizes only the packet's center (a pure modulation), so the
    L2 norm and the spectrum are seed-independent.  Random-phase fields are
    already spatially equidistributed and show no dispersive spreading;
    coherent packets are the right probes for decay measurements.
    """
    x0 = _rng(seed).uniform(0.0, 2 * np.pi * grid.box_scale, size=2)
    env = np.exp(-((grid.xi_abs - xi_center) ** 2) / (2 * width**2))
    env[grid.xi_abs == 0] = 0.0
    phase = np.exp(-1j * (grid.xi1 * x0[0] + grid.xi2 * x0[1]))
    f = SpectralField(grid, env * phase)
    norm = lp_norm(f, 2)
    return f * (1.0 / norm)


# ---------------------------------------------------------------------------
# named presets for the CLI / harness


def taylor_green(grid: GridSpec, amplitude: float = 1.0):
    """omega = -2 a cos(x1)cos(x2) (vorticity of the Taylor-Green cell), rho = 0."""
    x1, x2 = grid.meshgrid()
    omega = forward_transform(grid, -2.0 * amplitude * np.cos(x1 / grid.box_scale) * np.cos(x2 / grid.box_scale))
    rho = SpectralField(grid, np.zeros_like(omega.coeffs))
    return dealias(omega), rho


def gaussian_bump(grid: GridSpec, width: float = 0.5, amplitude: float = 1.0):
    """Mean-free periodic Gaussian vorticity blob at the domain center, rho = 0."""
    x1, x2 = grid.meshgrid()
    c = np.pi * grid.box_scale
    r2 = (x1 - c) ** 2 + (x2 - c) ** 2
    blob = amplitude * np.exp(-r2 / (2 * width**2))
    omega = forward_transform(grid, blob - blob.mean())
    rho = SpectralField(grid, np.zeros_like(omega.coeffs))
    return dealias(omega), rho


def random_spectrum(
    grid: GridSpec,
    alpha: float = 2.5,
    seed: int = 0,
    amplitude: float = 1.0,
    xi_lo: float = 0.0,
    xi_hi: float = np.inf,
    kmax: int | None = None,
):
    """Seeded random-spectrum (omega, rho) pair with independent streams."""
    omega = random_field(grid, seed, alpha=alpha, xi_lo=xi_lo, xi_hi=xi_hi,
                         amplitude=amplitude, kmax=kmax, stream=0)
    rho = random_field(grid, seed, alpha=alpha, xi_lo=xi_lo, xi_hi=xi_hi,
                       amplitude=amplitude, kmax=kmax, stream=1)
    return omega, rho


PRESETS = {
    "taylor-green": taylor_green,
    "gaussian-bump": gaussian_bump,
    "random-spectrum": random_spectrum,
}


def make_initial_data(grid: GridSpec, descriptor: dict):
    """Instantiate a preset from a config descriptor {'name': ..., params...}."""
    desc = dict(descriptor)
    name = desc.pop("name")
    if name not in PRESETS:
        raise KeyError(f"unknown initial-data preset {name!r}; have {sorted(PRESETS)}")
    return PRESETS[name](grid, **desc)

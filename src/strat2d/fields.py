"""Initial-data presets and seeded random spectral fields.

Random fields are built per integer wave vector from a counter-based
(Philox) stream in a fixed ordering of |k_i| <= kmax.  That ordering
depends on kmax, so the same seed yields the same spectrum on any grid that
resolves it only with kmax pinned; the default kmax, the grid's dealias
cutoff, draws a different field on every grid.
"""

from __future__ import annotations

import numpy as np

from .grid import GridSpec, SpectralField, dealias, forward_transform, lp_norm


def _rng(seed: int, stream: int = 0) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.uint64(seed), counter=[0, 0, 0, np.uint64(stream)]))


def _half_plane_wavevectors(kmax: int):
    """Integer k with k1 > 0, or k1 == 0 and k2 > 0; fixed deterministic order."""
    out = []
    for k1 in range(0, kmax + 1):
        for k2 in range(-kmax, kmax + 1):
            if k1 == 0 and k2 <= 0:
                continue
            out.append((k1, k2))
    return out


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
    (default: the grid's dealias cutoff).  Mean-zero; L2 norm scaled to
    `amplitude` when nonzero.
    """
    if kmax is None:
        kmax = int(grid.dealias_fraction * grid.n / 2)
    kvecs = _half_plane_wavevectors(kmax)
    draws = _rng(seed, stream).normal(size=(len(kvecs), 2))
    coeffs = np.zeros(grid.shape, dtype=complex)
    for (k1, k2), (a, b) in zip(kvecs, draws):
        xi = np.hypot(k1, k2) / grid.box_scale
        if not (xi_lo < xi <= xi_hi):
            continue
        c = (a + 1j * b) * xi ** (-alpha)
        # the half spectrum stores whichever of k, -k has k2 >= 0 (both if k2 = 0)
        if k2 >= 0:
            coeffs[k1 % grid.n, k2] = c
        if k2 <= 0:
            coeffs[(-k1) % grid.n, -k2] = np.conj(c)
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
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    x0 = rng.uniform(0.0, 2 * np.pi * grid.box_scale, size=2)
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

"""Dyadic multiplier bank and Besov norms.

The radial cutoff chi is built from the standard smooth step
eta(t) = zeta(t) / (zeta(t) + zeta(1-t)) with zeta(t) = exp(-1/t) for t > 0,
so that chi == 1 for |xi| <= 5/4 and chi == 0 for |xi| >= 7/4.  The band
profile psi0(xi) = chi(|xi|) - chi(2|xi|) is then supported on the annulus
5/8 <= |xi| <= 7/4 and the shifted family telescopes to a partition of unity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError, NonzeroMeanError
from .grid import (
    GridSpec,
    SpectralField,
    has_nonzero_mean,
    hminus1_norm,
    lp_norm_unchecked,
    lp_norms_unchecked,
    require_hermitian,
)


def smooth_step(t: np.ndarray) -> np.ndarray:
    """C-infinity step: 0 for t <= 0, 1 for t >= 1."""
    t = np.asarray(t, dtype=float)
    with np.errstate(divide="ignore", over="ignore"):
        za = np.where(t > 0, np.exp(-1.0 / np.maximum(t, 1e-300)), 0.0)
        zb = np.where(1 - t > 0, np.exp(-1.0 / np.maximum(1 - t, 1e-300)), 0.0)
    return za / (za + zb)


def chi(r: np.ndarray) -> np.ndarray:
    """Radial low-pass profile: 1 on |xi| <= 5/4, 0 on |xi| >= 7/4."""
    return smooth_step((7.0 / 4.0 - np.asarray(r, dtype=float)) * 2.0)


def psi0(r: np.ndarray) -> np.ndarray:
    """Band-0 profile, supported on 5/8 <= |xi| <= 7/4."""
    r = np.asarray(r, dtype=float)
    return chi(r) - chi(2.0 * r)


@dataclass(frozen=True)
class BesovSpec:
    """Norm descriptor for B^s_{p,q} (nonhomogeneous) or the dotted version."""

    s: float
    p: float = 2.0
    q: float = 1.0
    homogeneous: bool = True

    def __post_init__(self):
        if self.p < 1 or self.q < 1:
            raise ValueError("p and q must be >= 1")


def band_range(grid: GridSpec) -> tuple[int, int]:
    """(j_min, j_max) of the bands a grid resolves; ValueError below 3 bands."""
    # top band must fit under the dealias cutoff
    j_max = math.floor(math.log2(grid.dealias_cutoff / (7.0 / 4.0)))
    # lowest band: coverage must reach the smallest nonzero frequency,
    # i.e. chi(2^{-(j_min-1)} / L0) = 0, so bands below j_min vanish on the grid
    j_min = math.floor(math.log2(8.0 / (7.0 * grid.box_scale)))
    if j_max - j_min + 1 < 3:
        raise ValueError(f"grid too small to host >= 3 dyadic bands (range [{j_min}, {j_max}])")
    return j_min, j_max


class DyadicBank:
    """Cached dyadic multipliers psi_j on a grid, j in [j_min, j_max]."""

    def __init__(self, grid: GridSpec):
        self.grid = grid
        self.j_min, self.j_max = band_range(grid)
        # psi_j for j = j_min..j_max, stacked so that L2 band norms batch
        self.psi = np.stack([psi0(grid.xi_abs / 2.0**j) for j in self.bands])
        # chi(|xi|), the S_0 low pass of every nonhomogeneous norm
        self.chi0 = chi(grid.xi_abs)

    # -- multipliers -----------------------------------------------------
    def psi_hat(self, j: int) -> np.ndarray:
        if j < self.j_min or j > self.j_max:
            raise ValueError(f"band {j} outside resolved range [{self.j_min}, {self.j_max}]")
        return self.psi[j - self.j_min]

    def lowpass_multiplier(self, k: int) -> np.ndarray:
        """chi(2^-k |xi|); value at xi=0 is 1 and is adjusted by callers."""
        if k == 0:
            return self.chi0
        return chi(self.grid.xi_abs / 2.0**k)

    @property
    def bands(self) -> range:
        return range(self.j_min, self.j_max + 1)

    def interior_bands(self) -> range:
        return range(self.j_min + 1, self.j_max)

    def partition_residual(self) -> float:
        """max |sum_j psi_j - 1| over grid frequencies in the interior annulus."""
        total = self.psi.sum(axis=0)
        lo = 5.0 / 8.0 * 2.0 ** (self.j_min + 1)
        hi = 5.0 / 8.0 * 2.0**self.j_max
        sel = (self.grid.xi_abs >= lo) & (self.grid.xi_abs <= hi)
        if not sel.any():
            return 0.0
        return float(np.abs(total[sel] - 1.0).max())


# ---------------------------------------------------------------------------
# projections


def project_band(f: SpectralField, j: int, bank: DyadicBank) -> SpectralField:
    if f.grid != bank.grid:
        raise GridMismatchError("field and bank live on different grids")
    return SpectralField(f.grid, bank.psi_hat(j) * f.coeffs)


def lowpass_hom(f: SpectralField, k: int, bank: DyadicBank) -> SpectralField:
    """S-dot_k: homogeneous low pass, zero mode annihilated."""
    c = bank.lowpass_multiplier(k) * f.coeffs
    c[0, 0] = 0.0
    return SpectralField(f.grid, c)


def lowpass_nonhom(f: SpectralField, k: int, bank: DyadicBank) -> SpectralField:
    """S_k: as S-dot_k but the zero mode is retained."""
    c = bank.lowpass_multiplier(k) * f.coeffs
    c[0, 0] = f.coeffs[0, 0]
    return SpectralField(f.grid, c)


# ---------------------------------------------------------------------------
# norms


def _lq(values: np.ndarray, q: float):
    """l^q norm of nonnegative values over the first axis; a float for 1-D values."""
    values = np.asarray(values, dtype=float)
    if np.isinf(q):
        out = values.max(axis=0, initial=0.0)
    else:
        out = np.sum(values**q, axis=0) ** (1.0 / q)
    return float(out) if out.ndim == 0 else out


def _band_norms(f: SpectralField, j_lo: int, p: float, bank: DyadicBank) -> list:
    """lp_norm_unchecked(Delta_j f) for j = j_lo..j_max; j_lo below j_min
    raises and j_lo above j_max gives no bands.  The bands are formed at
    once; p = 2 takes one batched Plancherel sum, other p transform band by
    band, because a batched inverse transform is slower per slice at
    N >= 128."""
    if f.grid != bank.grid:
        raise GridMismatchError("field and bank live on different grids")
    if j_lo < bank.j_min:
        bank.psi_hat(j_lo)
    bands = bank.psi[j_lo - bank.j_min:] * f.coeffs
    if p == 2:
        return lp_norms_unchecked(f.grid, bands, 2).tolist()
    return [float(lp_norms_unchecked(f.grid, b, p)) for b in bands]


def besov_norm(f: SpectralField, spec: BesovSpec, bank: DyadicBank) -> float:
    # the Hermitian guard is scaled by the whole field: a band holding only
    # round-off would fail it relative to its own size
    if spec.p != 2:
        require_hermitian(f)
    if spec.homogeneous:
        if spec.s <= 0 and has_nonzero_mean(f):
            raise NonzeroMeanError("homogeneous Besov norm with s <= 0 needs mean-zero data")
        j_lo, vals = bank.j_min, []
    else:
        j_lo, vals = 1, [lp_norm_unchecked(lowpass_nonhom(f, 0, bank), spec.p)]
    norms = _band_norms(f, j_lo, spec.p, bank)
    vals += [2.0 ** (spec.s * j) * v for j, v in zip(range(j_lo, bank.j_max + 1), norms)]
    return _lq(np.array(vals), spec.q)


def intersection_norm(omega: SpectralField, s: float, q: float, bank: DyadicBank) -> float:
    """|omega| in (dotted B^s_{2,q}) intersect H^-1, as the sum of both norms."""
    return besov_norm(omega, BesovSpec(s=s, q=q, homogeneous=True), bank) + hminus1_norm(omega)


# ---------------------------------------------------------------------------
# CSV dump for the `bands` CLI subcommand


def band_profile_rows(bank: DyadicBank, n_radial: int = 400):
    """Rows (|xi|, label, value): each psi_j profile plus the partition sum."""
    r_max = bank.grid.xi_max
    radii = np.linspace(0.0, r_max, n_radial)
    rows = []
    total = np.zeros_like(radii)
    for j in bank.bands:
        prof = psi0(radii / 2.0**j)
        total += prof
        rows.extend((float(r), str(j), float(v)) for r, v in zip(radii, prof))
    rows.extend((float(r), "sum", float(v)) for r, v in zip(radii, total))
    return rows

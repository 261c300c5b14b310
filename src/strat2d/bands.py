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
from functools import cache

import numpy as np

from .errors import NonzeroMeanError
from .grid import (
    GridSpec,
    SpectralField,
    has_nonzero_mean,
    hminus1_norm,
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
    """Cached dyadic multipliers on a grid, stacked as the pieces of a Besov
    norm: `psi`, psi_j for j in `bands` = j_min..j_max (homogeneous), and
    `nonhom_psi`, S_0 = chi(|xi|) then psi_j for j in `nonhom_bands` =
    0, max(1, j_min)..j_max; bands 1..j_min-1 vanish on the grid.  Both
    stacks are read-only, since `dyadic_bank` shares one bank per grid."""

    def __init__(self, grid: GridSpec):
        self.grid = grid
        self.j_min, self.j_max = band_range(grid)
        self.psi = np.stack([psi0(grid.xi_abs / 2.0**j) for j in self.bands])
        j_lo = max(1, self.j_min)
        self.nonhom_bands = [0, *range(j_lo, self.j_max + 1)]
        self.nonhom_psi = np.concatenate((chi(grid.xi_abs)[None], self.psi[j_lo - self.j_min:]))
        self.psi.flags.writeable = self.nonhom_psi.flags.writeable = False

    # -- multipliers -----------------------------------------------------
    def psi_hat(self, j: int) -> np.ndarray:
        if j < self.j_min or j > self.j_max:
            raise ValueError(f"band {j} outside resolved range [{self.j_min}, {self.j_max}]")
        return self.psi[j - self.j_min]

    def lowpass_multiplier(self, k: int) -> np.ndarray:
        """chi(2^-k |xi|); value at xi=0 is 1 and is adjusted by callers."""
        if k == 0:
            return self.nonhom_psi[0]
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


@cache
def dyadic_bank(grid: GridSpec) -> DyadicBank:
    """The DyadicBank of `grid`, built once per distinct grid: the dyadic
    partition depends on the frequency lattice alone."""
    return DyadicBank(grid)


# ---------------------------------------------------------------------------
# projections


def project_band(f: SpectralField, j: int) -> SpectralField:
    return SpectralField(f.grid, dyadic_bank(f.grid).psi_hat(j) * f.coeffs)


def lowpass_hom(f: SpectralField, k: int) -> SpectralField:
    """S-dot_k: homogeneous low pass, zero mode annihilated."""
    c = dyadic_bank(f.grid).lowpass_multiplier(k) * f.coeffs
    c[0, 0] = 0.0
    return SpectralField(f.grid, c)


def lowpass_nonhom(f: SpectralField, k: int) -> SpectralField:
    """S_k: as S-dot_k but the zero mode is retained."""
    c = dyadic_bank(f.grid).lowpass_multiplier(k) * f.coeffs
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


def besov_norm(f: SpectralField, spec: BesovSpec) -> float:
    """The l^q sum of 2^{sj} |piece_j f|_{L^p} over a stack of f's grid's bank.

    The pieces are formed at once; p = 2 takes one batched Plancherel sum,
    other p transform piece by piece, because a batched inverse transform
    was slower at N = 256 and no faster at N = 128.
    """
    # the Hermitian guard is scaled by the whole field: a band holding only
    # round-off would fail it relative to its own size
    if spec.p != 2:
        require_hermitian(f)
    bank = dyadic_bank(f.grid)
    if spec.homogeneous:
        if spec.s <= 0 and has_nonzero_mean(f):
            raise NonzeroMeanError("homogeneous Besov norm with s <= 0 needs mean-zero data")
        js, psi = bank.bands, bank.psi
    else:
        js, psi = bank.nonhom_bands, bank.nonhom_psi
    pieces = psi * f.coeffs
    norms = (lp_norms_unchecked(f.grid, pieces, 2) if spec.p == 2
             else [lp_norms_unchecked(f.grid, c, spec.p) for c in pieces])
    return _lq(np.array([2.0 ** (spec.s * j) * v for j, v in zip(js, norms)]), spec.q)


def intersection_norm(omega: SpectralField, s: float, q: float) -> float:
    """|omega| in (dotted B^s_{2,q}) intersect H^-1, as the sum of both norms."""
    return besov_norm(omega, BesovSpec(s=s, q=q, homogeneous=True)) + hminus1_norm(omega)


# ---------------------------------------------------------------------------
# CSV dump for the `bands` CLI subcommand


def band_profile_rows(grid: GridSpec, n_radial: int = 400):
    """Rows (|xi|, label, value): each psi_j profile of the grid plus the partition sum."""
    radii = np.linspace(0.0, grid.xi_max, n_radial)
    rows = []
    total = np.zeros_like(radii)
    for j in dyadic_bank(grid).bands:
        prof = psi0(radii / 2.0**j)
        total += prof
        rows.extend((float(r), str(j), float(v)) for r, v in zip(radii, prof))
    rows.extend((float(r), "sum", float(v)) for r, v in zip(radii, total))
    return rows

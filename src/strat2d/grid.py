"""Periodic-grid spectral fields and exact Fourier-multiplier operators.

The domain is the square torus [0, 2*pi*L0)^2 sampled on an n x n grid.
Coefficients are stored in numpy fft layout, indexed by the integer wave
vector k with |k_i| <= n/2; the physical frequency is xi = k / L0.
Normalization is chosen so a pure mode cos(k.x) has coefficient 1/2 at +-k.
Transforms are real-to-complex (``scipy.fft.rfft2`` / ``irfft2``); the
stored layout stays the full n x n spectrum, filled by conjugate reflection.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
from scipy.fft import irfft2, rfft2

from .errors import (
    GridMismatchError,
    HermitianSymmetryError,
    NegativePowerOnNonzeroMeanError,
    NonzeroMeanError,
)

MEAN_TOL = 1e-12
# largest Hermitian defect, relative to the field's largest coefficient, that
# the transforms accept as round-off
HERMITIAN_LIMIT = 1e-8


@dataclass(frozen=True)
class GridSpec:
    """Square periodic grid: n points per axis on [0, 2*pi*box_scale)^2."""

    n: int
    box_scale: float = 1.0
    dealias_fraction: float = 2.0 / 3.0

    def __post_init__(self):
        if self.n < 8 or self.n % 2 != 0:
            raise ValueError(f"n_per_axis must be even and >= 8, got {self.n}")
        if self.box_scale <= 0:
            raise ValueError("box_scale must be positive")
        if not 0 < self.dealias_fraction <= 1:
            raise ValueError("dealias_fraction must lie in (0, 1]")

    @cached_property
    def k(self) -> np.ndarray:
        """Integer wavenumbers along one axis in fft order."""
        return np.fft.fftfreq(self.n, d=1.0 / self.n)

    @cached_property
    def k1(self) -> np.ndarray:
        return self.k[:, None] * np.ones((1, self.n))

    @cached_property
    def k2(self) -> np.ndarray:
        return np.ones((self.n, 1)) * self.k[None, :]

    @cached_property
    def xi1(self) -> np.ndarray:
        return self.k1 / self.box_scale

    @cached_property
    def xi2(self) -> np.ndarray:
        return self.k2 / self.box_scale

    @cached_property
    def xi_sq(self) -> np.ndarray:
        return self.xi1**2 + self.xi2**2

    @cached_property
    def xi_abs(self) -> np.ndarray:
        return np.sqrt(self.xi_sq)

    # zero-mode-safe symbols: each is 0 at xi = 0
    @cached_property
    def inv_xi_abs(self) -> np.ndarray:
        """|xi|^-1."""
        return _masked_quotient(np.ones_like(self.xi_abs), self.xi_abs)

    @cached_property
    def inv_xi_sq(self) -> np.ndarray:
        """|xi|^-2."""
        return _masked_quotient(np.ones_like(self.xi_sq), self.xi_sq)

    @cached_property
    def xi1_over_abs(self) -> np.ndarray:
        """xi1 / |xi|, the symbol of -i R1."""
        return _masked_quotient(self.xi1, self.xi_abs)

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        cut = self.dealias_fraction * self.n / 2
        return (np.abs(self.k1) <= cut) & (np.abs(self.k2) <= cut)

    @property
    def dealias_cutoff(self) -> float:
        """Largest retained |xi| along an axis (inscribed-square radius)."""
        return self.dealias_fraction * (self.n / 2) / self.box_scale

    @property
    def xi_max(self) -> float:
        return (self.n / 2) / self.box_scale

    @property
    def dx(self) -> float:
        return 2 * np.pi * self.box_scale / self.n

    @property
    def area(self) -> float:
        return (2 * np.pi * self.box_scale) ** 2

    @cached_property
    def x(self) -> np.ndarray:
        return np.arange(self.n) * self.dx

    def meshgrid(self):
        return np.meshgrid(self.x, self.x, indexing="ij")


def _masked_quotient(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    return np.divide(num, den, out=np.zeros_like(num), where=den > 0)


def _coefficient_norms(coeffs: np.ndarray) -> np.ndarray:
    """Euclidean norms over the last two axes, as plain reductions (no BLAS)."""
    return np.sqrt(np.sum(coeffs.real**2, axis=(-2, -1)) + np.sum(coeffs.imag**2, axis=(-2, -1)))


def _conjugate_reflection(coeffs: np.ndarray) -> np.ndarray:
    """conj(c(-k)) in fft index layout."""
    return np.conj(np.roll(coeffs[::-1, ::-1], 1, axis=(0, 1)))


@dataclass(frozen=True)
class SpectralField:
    """Complex Fourier coefficients of a real scalar field on a GridSpec."""

    grid: GridSpec
    coeffs: np.ndarray

    def __post_init__(self):
        if self.coeffs.shape != (self.grid.n, self.grid.n):
            raise ValueError("coefficient array does not match grid")

    # -- small arithmetic helpers used throughout ------------------------
    def __add__(self, other: "SpectralField") -> "SpectralField":
        require_same_grid(self, other)
        return SpectralField(self.grid, self.coeffs + other.coeffs)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        require_same_grid(self, other)
        return SpectralField(self.grid, self.coeffs - other.coeffs)

    def __mul__(self, scalar: float) -> "SpectralField":
        return SpectralField(self.grid, self.coeffs * scalar)

    __rmul__ = __mul__

    def __neg__(self) -> "SpectralField":
        return SpectralField(self.grid, -self.coeffs)

    @property
    def mean(self) -> float:
        return float(self.coeffs[0, 0].real)

    def with_mean(self, value: float) -> "SpectralField":
        c = self.coeffs.copy()
        c[0, 0] = value
        return replace(self, coeffs=c)

    def drop_mean(self) -> "SpectralField":
        return self.with_mean(0.0)

    def coefficient_norm(self) -> float:
        """Euclidean norm of the coefficients, as a plain reduction (no BLAS)."""
        return float(_coefficient_norms(self.coeffs))

    def hermitian_defect(self) -> float:
        scale = np.abs(self.coeffs).max()
        if scale == 0.0:
            return 0.0
        return float(np.abs(self.coeffs - _conjugate_reflection(self.coeffs)).max() / scale)


@dataclass(frozen=True)
class VectorField:
    """Pair of spectral components on a common grid."""

    u1: SpectralField
    u2: SpectralField

    def __post_init__(self):
        if self.u1.grid != self.u2.grid:
            raise GridMismatchError("vector components on different grids")

    @property
    def grid(self) -> GridSpec:
        return self.u1.grid

    def divergence(self) -> SpectralField:
        return derivative(self.u1, 1) + derivative(self.u2, 2)


def require_same_grid(*fields) -> None:
    g = fields[0].grid
    for f in fields[1:]:
        if f.grid != g:
            raise GridMismatchError("fields live on different grids")


def require_mean_zero(f: SpectralField, what: str = "operator") -> None:
    if abs(f.coeffs[0, 0]) > MEAN_TOL * max(f.coefficient_norm(), abs(f.coeffs[0, 0])):
        raise NonzeroMeanError(f"{what} requires a mean-zero field")


# ---------------------------------------------------------------------------
# transforms


def forward_transform(grid: GridSpec, samples: np.ndarray) -> SpectralField:
    """Real grid samples -> spectral coefficients (pure mode amplitude 1/2)."""
    samples = np.asarray(samples, dtype=float)
    n = grid.n
    if samples.shape != (n, n):
        raise ValueError(f"expected samples of shape {(n, n)}, got {samples.shape}")
    m = n // 2
    coeffs = np.empty((n, n), dtype=complex)
    half = coeffs[:, : m + 1]
    half[...] = rfft2(samples, norm="forward")
    # c(k1, k2) = conj c(-k1, -k2) for the columns rfft2 leaves out
    np.conjugate(half[0, m - 1 : 0 : -1], out=coeffs[0, m + 1 :])
    np.conjugate(half[:0:-1, m - 1 : 0 : -1], out=coeffs[1:, m + 1 :])
    return SpectralField(grid, coeffs)


def require_hermitian(f: SpectralField) -> None:
    """Raise unless f's coefficients are those of a real field, up to round-off."""
    defect = f.hermitian_defect()
    if defect > HERMITIAN_LIMIT:
        raise HermitianSymmetryError(f"coefficients not Hermitian (defect {defect:.2e})")


def _samples(grid: GridSpec, coeffs: np.ndarray) -> np.ndarray:
    """real(ifft2(coeffs)) * n^2 over the last two axes, computed by irfft2
    from the k2 >= 0 half; leading axes are a batch.

    Exact for Hermitian coefficients and for their images under odd symbols
    such as i*xi1 (derivatives, Biot-Savart), which break the symmetry only
    in the rows and columns that are their own reflection.  irfft2 keeps the
    Hermitian part of the k2 = 0 and k2 = -n/2 columns, as real(ifft2) does;
    the k1 = -n/2 row is replaced by its Hermitian part here.
    """
    n, m = grid.n, grid.n // 2
    half = coeffs[..., :, : m + 1]
    row, partner = half[..., m, 1:m], np.conj(coeffs[..., m, :m:-1])
    if not np.array_equal(row, partner):
        half = half.copy()
        half[..., m, 1:m] = 0.5 * (row + partner)
    return irfft2(half, s=(n, n), norm="forward")


def inverse_transform(f: SpectralField) -> np.ndarray:
    """Spectral coefficients -> real grid samples; checks Hermitian symmetry."""
    require_hermitian(f)
    return _samples(f.grid, f.coeffs)


# ---------------------------------------------------------------------------
# multiplier operators


def derivative(f: SpectralField, axis: int) -> SpectralField:
    if axis not in (1, 2):
        raise ValueError("axis must be 1 or 2")
    xi = f.grid.xi1 if axis == 1 else f.grid.xi2
    return SpectralField(f.grid, 1j * xi * f.coeffs)


def gradient(f: SpectralField) -> VectorField:
    return VectorField(derivative(f, 1), derivative(f, 2))


def lambda_power(f: SpectralField, s: float) -> SpectralField:
    """Lambda^s = (-Laplacian)^(s/2); zero mode is annihilated."""
    if s < 0 and abs(f.coeffs[0, 0]) > MEAN_TOL * max(f.coefficient_norm(), 1e-300):
        raise NegativePowerOnNonzeroMeanError(
            "Lambda^s with s < 0 requires a mean-zero field"
        )
    mult = f.grid.xi_abs**s if s > 0 else f.grid.inv_xi_abs ** -s
    c = mult * f.coeffs
    c[0, 0] = 0.0  # also for s = 0, where the symbol is 1 at xi = 0
    return SpectralField(f.grid, c)


def inverse_laplacian(f: SpectralField) -> SpectralField:
    require_mean_zero(f, "(-Laplacian)^-1")
    return SpectralField(f.grid, f.grid.inv_xi_sq * f.coeffs)


def riesz(f: SpectralField, axis: int = 1) -> SpectralField:
    """Riesz transform R_axis, symbol i*xi_axis/|xi|."""
    require_mean_zero(f, "Riesz transform")
    mult = f.grid.xi1_over_abs if axis == 1 else f.grid.xi2 * f.grid.inv_xi_abs
    return SpectralField(f.grid, 1j * mult * f.coeffs)


def phase_multiplier(grid: GridSpec, t: float, kappa: float, sign: int = +1) -> np.ndarray:
    """exp(+-i kappa t xi1/|xi|), the stratified propagator's symbol on V+-."""
    return np.exp(1j * sign * kappa * t * grid.xi1_over_abs)


def biot_savart(omega: SpectralField) -> VectorField:
    """u = perp-gradient of (-Laplacian)^-1 omega; divergence-free."""
    require_mean_zero(omega, "Biot-Savart")
    g = omega.grid
    psi = g.inv_xi_sq * omega.coeffs
    return VectorField(SpectralField(g, -1j * g.xi2 * psi), SpectralField(g, 1j * g.xi1 * psi))


def dealias(f: SpectralField) -> SpectralField:
    return SpectralField(f.grid, f.coeffs * f.grid.dealias_mask)


# ---------------------------------------------------------------------------
# products, norms, pairings


def multiply(f: SpectralField, g: SpectralField, dealias_product: bool = True) -> SpectralField:
    """Pointwise product formed in physical space, optionally dealiased."""
    require_same_grid(f, g)
    prod = forward_transform(f.grid, inverse_transform(f) * inverse_transform(g))
    return dealias(prod) if dealias_product else prod


def advect(u: VectorField, *scalars: SpectralField):
    """dealias(u . grad g) via physical-space products, for each scalar g.

    The velocity is transformed once for all scalars.  Returns a field for
    one scalar and a tuple of fields, in order, for several.
    """
    require_same_grid(u.u1, *scalars)
    grid = u.grid
    u1, u2 = _samples(grid, u.u1.coeffs), _samples(grid, u.u2.coeffs)
    out = []
    for g in scalars:
        g1, g2 = _samples(grid, derivative(g, 1).coeffs), _samples(grid, derivative(g, 2).coeffs)
        out.append(dealias(forward_transform(grid, u1 * g1 + u2 * g2)))
    return out[0] if len(out) == 1 else tuple(out)


def lp_norm(f: SpectralField, p: float) -> float:
    """L^p norm; p=2 via Plancherel, p=inf grid max, else grid quadrature."""
    if p != 2:
        require_hermitian(f)
    return lp_norm_unchecked(f, p)


def lp_norm_unchecked(f: SpectralField, p: float) -> float:
    """lp_norm without the Hermitian check, for the band projections or
    propagated copies of a field the caller has checked once.

    Their symbols are symmetric under k -> -k (up to conjugation), so their
    absolute Hermitian defect is at most the checked field's; relative to
    their own size it may not be (a band holding only round-off).
    """
    return float(lp_norms_unchecked(f.grid, f.coeffs, p))


def lp_norms_unchecked(grid: GridSpec, coeffs: np.ndarray, p: float) -> np.ndarray:
    """lp_norm_unchecked over the last two axes of a batch of coefficient
    arrays: one batched inverse transform for p != 2."""
    if p < 1:
        raise ValueError("p must be >= 1")
    if p == 2:
        return 2 * np.pi * grid.box_scale * _coefficient_norms(coeffs)
    samples = np.abs(_samples(grid, coeffs))
    if np.isinf(p):
        return samples.max(axis=(-2, -1))
    cell = (2 * np.pi * grid.box_scale / grid.n) ** 2
    return (np.sum(samples**p, axis=(-2, -1)) * cell) ** (1.0 / p)


def inner_l2(f: SpectralField, g: SpectralField) -> float:
    require_same_grid(f, g)
    return float(f.grid.area * np.real(np.sum(f.coeffs * np.conj(g.coeffs))))


def inner_hminus1(f: SpectralField, g: SpectralField) -> float:
    require_mean_zero(f, "H^-1 pairing")
    require_mean_zero(g, "H^-1 pairing")
    return inner_l2(lambda_power(f, -1.0), lambda_power(g, -1.0))


def hminus1_norm(f: SpectralField) -> float:
    require_mean_zero(f, "H^-1 norm")
    return lp_norm(lambda_power(f, -1.0), 2)


# ---------------------------------------------------------------------------
# snapshot container (bit-exact round trip)


def save_field(f: SpectralField, path, kind: str = "coeffs") -> None:
    """Write a self-describing field snapshot (.npz)."""
    if kind not in ("coeffs", "samples"):
        raise ValueError("kind must be 'coeffs' or 'samples'")
    payload = {
        "format": np.array("strat2d-field-v1"),
        "kind": np.array(kind),
        "n": np.array(f.grid.n),
        "box_scale": np.array(f.grid.box_scale),
        "dealias_fraction": np.array(f.grid.dealias_fraction),
    }
    if kind == "coeffs":
        payload["coeffs"] = f.coeffs  # fft layout, k1 slow / k2 fast
    else:
        payload["samples"] = inverse_transform(f)  # row-major, x2 fastest
    np.savez(path, **payload)


def load_field(path) -> SpectralField:
    with np.load(path) as data:
        if str(data["format"]) != "strat2d-field-v1":
            raise ValueError("not a strat2d field snapshot")
        grid = GridSpec(
            n=int(data["n"]),
            box_scale=float(data["box_scale"]),
            dealias_fraction=float(data["dealias_fraction"]),
        )
        if str(data["kind"]) == "coeffs":
            return SpectralField(grid, data["coeffs"])
        return forward_transform(grid, data["samples"])

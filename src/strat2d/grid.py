"""Periodic-grid spectral fields and exact Fourier-multiplier operators.

The domain is the square torus [0, 2*pi*L0)^2 sampled on an n x n grid.
Fields are real, so only the half spectrum is stored: the ``rfft2`` layout
of shape (n, n//2 + 1), rows k1 in fft order, columns k2 = 0 .. n/2.  The
physical frequency is xi = k / L0.  Normalization is chosen so a pure mode
cos(k.x) has coefficient 1/2 at +-k.

A column array holds the first w columns k2 = 0 .. w-1 of a half spectrum
whose other columns are zero: the Lawson step works on the
`GridSpec.dealiased_columns` of dealiased fields.  The helpers that take
coefficient arrays read their width from the last axis, so a column array
has no Nyquist column unless w = n//2 + 1.

Transforms take and return one array, a field on its last two axes, and
make the two passes of irfft2 / rfft2 themselves, bit for bit, on the first
w columns only: the DFT along k1, then the real inverse along k2; the real
transform along x2, then the DFT along x1.  A batch on the leading axes goes
in chunks of at most TRANSFORM_CALL_BYTES (`_chunks`).

Each column 0 < k2 < n/2 holds one of every conjugate pair c(-k) = conj c(k),
so any data there is a real field.  The columns k2 = 0 and k2 = n/2 hold
both members of their pairs and must be Hermitian along k1; the forward
transform stores them so, and `require_hermitian` checks them.

The Nyquist rule.  An entry on the row k1 = -n/2 or on the column k2 = n/2
stands for both signs of that Nyquist wavenumber, and a multiplier acts
there by the mean of its values at the two signs.  For the symbols used
here that mean is reached by one convention: xi1 is 0 on the Nyquist row
and xi2 is 0 on the Nyquist column (`GridSpec.xi1`, `GridSpec.xi2`), while
|xi| keeps the Nyquist wavenumber.  Derivatives, the symbol xi1/|xi| and
the Biot-Savart law thus equal real(ifft2) of their full-spectrum multipliers,
and the stratified phase is 1 on the Nyquist row, which keeps it unitary
with an exact group law.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
from numpy.fft import fft, ifft, irfft, rfft

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
# largest half-spectrum stack, in bytes, that one transform call takes: 31
# slices at N=64, 7 at N=128 and 1 at N>=256, where a bigger stack outgrows
# a core's L2 cache and a batched call runs slower per slice than single ones
TRANSFORM_CALL_BYTES = 1 << 20


@dataclass(frozen=True)
class GridSpec:
    """Square periodic grid: n points per axis on [0, 2*pi*box_scale)^2."""

    n: int
    box_scale: float = 1.0
    dealias_fraction: float = 2.0 / 3.0

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or self.n < 8 or self.n % 2 != 0:
            raise ValueError(f"n_per_axis must be an even integer >= 8, got {self.n!r}")
        if not 0 < self.box_scale < np.inf:
            raise ValueError(f"box_scale must be positive and finite, got {self.box_scale!r}")
        if not 0 < self.dealias_fraction <= 1:
            raise ValueError("dealias_fraction must lie in (0, 1]")

    @property
    def shape(self) -> tuple[int, int]:
        """Shape of a coefficient array: the half spectrum."""
        return (self.n, self.n // 2 + 1)

    @cached_property
    def k1(self) -> np.ndarray:
        """Integer wavenumber k1 of each stored entry (fft order)."""
        k = np.fft.fftfreq(self.n, d=1.0 / self.n)
        return k[:, None] * np.ones((1, self.n // 2 + 1))

    @cached_property
    def k2(self) -> np.ndarray:
        """Integer wavenumber k2 = 0 .. n/2 of each stored entry."""
        return np.ones((self.n, 1)) * np.arange(self.n // 2 + 1)[None, :]

    # the Nyquist rule (module docstring): the one place it is applied
    @cached_property
    def xi1(self) -> np.ndarray:
        """xi1 as odd symbols see it: 0 on the Nyquist row k1 = -n/2."""
        xi1 = self.k1 / self.box_scale
        xi1[self.n // 2] = 0.0
        return xi1

    @cached_property
    def xi2(self) -> np.ndarray:
        """xi2 as odd symbols see it: 0 on the Nyquist column k2 = n/2."""
        xi2 = self.k2 / self.box_scale
        xi2[:, self.n // 2] = 0.0
        return xi2

    @cached_property
    def grad_symbol(self) -> np.ndarray:
        """(i*xi1, i*xi2), the gradient's symbol, as one (2, n, n//2 + 1) array."""
        return 1j * np.stack([self.xi1, self.xi2])

    @cached_property
    def i_xi1(self) -> np.ndarray:
        """i*xi1, the symbol of d/dx1."""
        return self.grad_symbol[0]

    @cached_property
    def i_xi2(self) -> np.ndarray:
        """i*xi2, the symbol of d/dx2."""
        return self.grad_symbol[1]

    @cached_property
    def velocity_symbol(self) -> np.ndarray:
        """(-i*xi2, i*xi1), the perpendicular gradient, as one (2, n, n//2 + 1)
        array: the Biot-Savart velocity is this times |xi|^-2 omega."""
        return np.stack([-self.i_xi2, self.i_xi1])

    @cached_property
    def xi_sq(self) -> np.ndarray:
        """|xi|^2, even in each wavenumber, so it keeps the Nyquist ones."""
        return (self.k1 / self.box_scale) ** 2 + (self.k2 / self.box_scale) ** 2

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

    # the diagonal variables' symbols (`diagonal_stack`, `merged_stack`),
    # complex: numpy multiplies a complex array
    # by a real one through a casting loop about twice as slow
    @cached_property
    def signed_xi_abs(self) -> np.ndarray:
        """(|xi|, -|xi|), Lambda with the signs of V+- = omega +- Lambda rho,
        as one (2, n, n//2 + 1) array."""
        return np.stack([self.xi_abs, -self.xi_abs]).astype(complex)

    @cached_property
    def merge_symbol(self) -> np.ndarray:
        """(1/2, |xi|^-1 / 2), which takes (V+ + V-, V+ - V-) to (omega, rho),
        as one (2, n, n//2 + 1) array."""
        return np.stack([np.full(self.shape, 0.5), 0.5 * self.inv_xi_abs]).astype(complex)

    @cached_property
    def xi1_over_abs(self) -> np.ndarray:
        """xi1 / |xi|, the symbol of -i R1."""
        return _masked_quotient(self.xi1, self.xi_abs)

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        cut = self.dealias_fraction * self.n / 2
        return (np.abs(self.k1) <= cut) & (np.abs(self.k2) <= cut)

    @cached_property
    def dealiased_columns(self) -> int:
        """c, the width of the column arrays of dealiased fields: the last
        column k2 that the dealias mask touches, plus one (43 of 65 at N=128)."""
        return int(np.flatnonzero(self.dealias_mask[0])[-1]) + 1

    @cached_property
    def dealias_weight(self) -> np.ndarray:
        """The dealias mask as 1.0 / 0.0 on the dealiased columns, (n, c),
        read-only: the factor that dealiases a column array."""
        weight = np.where(self.dealias_mask[:, : self.dealiased_columns], 1.0, 0.0)
        weight.flags.writeable = False
        return weight

    def columns(self, name: str, w: int) -> np.ndarray:
        """The symbol `name` (an array attribute) on the first w columns: a
        view, or on the dealiased columns a contiguous copy, kept in the
        instance dict.  numpy multiplies a strided symbol into a strided
        output about twice as slowly as a contiguous one."""
        if w != self.dealiased_columns:
            return getattr(self, name)[..., :w]
        key = "_columns_" + name
        if key not in self.__dict__:
            self.__dict__[key] = np.ascontiguousarray(getattr(self, name)[..., :w])
        return self.__dict__[key]

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


def _plancherel_sum(x: np.ndarray) -> np.ndarray:
    """Sum over the full spectrum of a quantity given on the half spectrum,
    or on a column array (last two axes), that is even under k -> -k: the
    columns k2 = 0 and k2 = n/2 count once, the others twice.  Plain
    reductions, no BLAS."""
    if x.shape[-1] <= x.shape[-2] // 2:  # a column array: no Nyquist column
        return 2 * np.sum(x[..., 1:], axis=(-2, -1)) + np.sum(x[..., 0], axis=-1)
    return (2 * np.sum(x[..., 1:-1], axis=(-2, -1))
            + np.sum(x[..., 0], axis=-1) + np.sum(x[..., -1], axis=-1))


def _coefficient_norms(coeffs: np.ndarray) -> np.ndarray:
    """Euclidean norms of the full spectra, over the last two axes."""
    return np.sqrt(_plancherel_sum(coeffs.real**2 + coeffs.imag**2))


def _partner(coeffs: np.ndarray) -> np.ndarray:
    """conj c(-k1, k2) along axis -2 (leading axes are a batch): the
    conjugate partners of a self-conjugate column; applied to the column k2,
    the full spectrum's column -k2."""
    return np.conj(np.concatenate((coeffs[..., :1, :], coeffs[..., :0:-1, :]), axis=-2))


def _self_conjugate_columns(coeffs: np.ndarray) -> np.ndarray:
    """View of the self-conjugate columns k2 = 0 and k2 = n/2 (first and last),
    or of k2 = 0 alone in a column array."""
    return coeffs[..., :: coeffs.shape[-2] // 2]


@dataclass(frozen=True)
class SpectralField:
    """Complex Fourier coefficients of a real scalar field on a GridSpec."""

    grid: GridSpec
    coeffs: np.ndarray

    def __post_init__(self):
        if self.coeffs.shape != self.grid.shape:
            raise ValueError(f"coefficient array of shape {self.coeffs.shape} does not "
                             f"match the grid's half spectrum {self.grid.shape}")

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
        """Euclidean norm of the full spectrum (Plancherel weights, no BLAS)."""
        return float(_coefficient_norms(self.coeffs))

    def hermitian_defect(self) -> float:
        """Largest |c(k) - conj c(-k)| on the self-conjugate columns k2 = 0
        and k2 = n/2, relative to the largest coefficient: O(n) when those
        columns are exactly Hermitian, as the package's own fields are."""
        cols = _self_conjugate_columns(self.coeffs)
        gap = np.abs(cols - _partner(cols)).max()
        if gap == 0.0:
            return 0.0
        return float(gap / np.abs(self.coeffs).max())


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

    @classmethod
    def from_stack(cls, grid: GridSpec, coeffs: np.ndarray) -> "VectorField":
        """The field whose components are the two slices of one (2, n, w)
        coefficient array, a half spectrum or a column array, which `samples`
        then transforms as it is.  The components of a column array are
        zero-padded copies; its samples are those of the padded field, since
        the real inverse pads with zeros too."""
        components = coeffs
        if coeffs.shape[-1] < grid.shape[1]:
            components = np.zeros((2,) + grid.shape, dtype=coeffs.dtype)
            components[..., : coeffs.shape[-1]] = coeffs
        u = cls(SpectralField(grid, components[0]), SpectralField(grid, components[1]))
        u.__dict__["_stack"] = coeffs
        return u

    def samples(self) -> tuple[np.ndarray, np.ndarray]:
        """Unchecked grid samples of (u1, u2), transformed on first use and
        kept in the instance dict (a plain memo: `cached_property` would hold
        a class-wide lock while transforming, serializing sweep threads)."""
        memo = self.__dict__.get("_samples")
        if memo is None:
            stack = self.__dict__.get("_stack")
            if stack is None:
                stack = np.stack([self.u1.coeffs, self.u2.coeffs])
            memo = self.__dict__["_samples"] = tuple(_samples(self.grid, stack))
        return memo

    def divergence(self) -> SpectralField:
        return derivative(self.u1, 1) + derivative(self.u2, 2)


def require_same_grid(*fields) -> None:
    g = fields[0].grid
    for f in fields[1:]:
        if f.grid != g:
            raise GridMismatchError("fields live on different grids")


def has_nonzero_mean(f: SpectralField | np.ndarray) -> bool:
    """Whether f's mean exceeds round-off: |c_00| above MEAN_TOL times the
    coefficient norm.  No coefficient exceeds that norm, so a mean at most
    MEAN_TOL times the largest modulus on the row k1 = 0 and the column
    k2 = 0 (O(n) entries) passes without the full norm.  f is a field or
    its coefficients, a half spectrum or a column array."""
    c = f.coeffs if isinstance(f, SpectralField) else f
    mean = abs(c[0, 0])
    if mean <= MEAN_TOL * max(np.abs(c[0]).max(), np.abs(c[:, 0]).max()):
        return False
    norm = f.coefficient_norm() if isinstance(f, SpectralField) else _coefficient_norms(c)
    return mean > MEAN_TOL * norm


def require_mean_zero(f: SpectralField | np.ndarray, what: str = "operator") -> None:
    if has_nonzero_mean(f):
        raise NonzeroMeanError(f"{what} requires a mean-zero field")


# ---------------------------------------------------------------------------
# transforms


def _symmetrize_columns(coeffs: np.ndarray) -> np.ndarray:
    """Replace the self-conjugate columns by their Hermitian part, in place;
    the real inverse reads only that part, so the samples do not change."""
    cols = _self_conjugate_columns(coeffs)
    cols[...] = 0.5 * (cols + _partner(cols))
    return coeffs


def _chunks(grid: GridSpec, count: int) -> list[slice]:
    """The chunks of a batch of `count` slices, one transform call each: at
    most TRANSFORM_CALL_BYTES of half spectra, at least one slice.  A
    slice's numbers are those of a call on it alone."""
    per = max(1, TRANSFORM_CALL_BYTES // (16 * grid.n * (grid.n // 2 + 1)))
    return [slice(start, start + per) for start in range(0, count, per)]


def _spectra(grid: GridSpec, samples: np.ndarray, w: int | None = None) -> np.ndarray:
    """Half-spectrum coefficients of real grid samples on the first w columns
    (all by default), the self-conjugate columns made exactly Hermitian:
    the forward passes leave them so only up to round-off."""
    n = grid.n
    w = n // 2 + 1 if w is None else w
    batch = samples.reshape(-1, n, n)
    out = np.empty((len(batch), n, w), dtype=complex)
    for chunk in _chunks(grid, len(batch)):
        fft(rfft(batch[chunk], axis=-1, norm="forward")[..., :w], axis=-2, norm="forward",
            out=out[chunk])
    return _symmetrize_columns(out.reshape(samples.shape[:-2] + (n, w)))


def forward_transform(grid: GridSpec, samples: np.ndarray) -> SpectralField:
    """Real grid samples -> spectral coefficients (pure mode amplitude 1/2)."""
    samples = np.asarray(samples, dtype=float)
    n = grid.n
    if samples.shape != (n, n):
        raise ValueError(f"expected samples of shape {(n, n)}, got {samples.shape}")
    return SpectralField(grid, _spectra(grid, samples))


def require_hermitian(f: SpectralField) -> None:
    """Raise unless f's coefficients are those of a real field, up to round-off."""
    defect = f.hermitian_defect()
    if defect > HERMITIAN_LIMIT:
        raise HermitianSymmetryError(f"coefficients not Hermitian (defect {defect:.2e})")


def _samples(grid: GridSpec, coeffs: np.ndarray) -> np.ndarray:
    """Grid samples of coefficient arrays, which it leaves intact.  The real
    inverse writes into the result (numpy 2.4's irfft2 ignores `out=`).  A
    chunk's DFT temporary is not kept across chunks: kept, it made a 2-slice
    call at N=512 16% slower (2-vCPU Xeon VM)."""
    n = grid.n
    batch = coeffs.reshape(-1, *coeffs.shape[-2:])
    out = np.empty((len(batch), n, n))
    for chunk in _chunks(grid, len(batch)):
        irfft(ifft(batch[chunk], axis=-2, norm="forward"), n=n, axis=-1, norm="forward",
              out=out[chunk])
    return out.reshape(coeffs.shape[:-2] + (n, n))


class SupportSynthesis:
    """`_samples` of half spectra that vanish off some rows and off the
    columns k2 >= c, as two small matrix products (BLAS) in place of a full
    inverse transform.

    Called with the (B, R, c) entries on the rows and the columns
    k2 = 0 .. c-1, it follows irfft2's rules exactly: an inverse DFT along k1,
    then a real synthesis along k2 that reads only the real part of the
    columns k2 = 0 and k2 = n/2 and weights the others twice.
    """

    def __init__(self, grid: GridSpec, rows: np.ndarray, c: int):
        n = grid.n
        j = np.arange(n)
        k2 = np.arange(c)
        # phases reduced mod n, so that the Nyquist row and column are exact
        self._e1 = np.exp(2j * np.pi / n * (np.outer(j, rows) % n))  # (n, R)
        angle = 2 * np.pi / n * (np.outer(k2, j) % n)
        self_conjugate = ((k2 == 0) | (k2 == n // 2))[:, None]
        weight = np.where(self_conjugate, 1.0, 2.0)
        # rows 2k and 2k+1 meet the real and imaginary parts of column k
        self._e2 = np.empty((2 * c, n))  # (2c, n)
        self._e2[0::2] = weight * np.cos(angle)
        self._e2[1::2] = np.where(self_conjugate, 0.0, -weight * np.sin(angle))

    def __call__(self, coeffs: np.ndarray) -> np.ndarray:
        x1 = self._e1 @ coeffs  # (B, n, c): samples along x1, still spectral in k2
        return x1.view(float) @ self._e2


def inverse_transform(f: SpectralField) -> np.ndarray:
    """Spectral coefficients -> real grid samples; checks Hermitian symmetry."""
    require_hermitian(f)
    return _samples(f.grid, f.coeffs)


# ---------------------------------------------------------------------------
# multiplier operators


def derivative(f: SpectralField, axis: int) -> SpectralField:
    if axis not in (1, 2):
        raise ValueError("axis must be 1 or 2")
    symbol = f.grid.i_xi1 if axis == 1 else f.grid.i_xi2
    return SpectralField(f.grid, symbol * f.coeffs)


def gradient(f: SpectralField) -> VectorField:
    return VectorField(derivative(f, 1), derivative(f, 2))


def lambda_power(f: SpectralField, s: float) -> SpectralField:
    """Lambda^s = (-Laplacian)^(s/2); zero mode is annihilated."""
    if s < 0 and has_nonzero_mean(f):
        raise NegativePowerOnNonzeroMeanError(
            "Lambda^s with s < 0 requires a mean-zero field"
        )
    mult = f.grid.xi_abs**s if s > 0 else f.grid.inv_xi_abs ** -s
    c = mult * f.coeffs
    c[0, 0] = 0.0  # also for s = 0, where the symbol is 1 at xi = 0
    return SpectralField(f.grid, c)


def phase_multiplier(grid: GridSpec, s: float, w: int | None = None) -> np.ndarray:
    """(e, conj e) with e = exp(i s xi1/|xi|), the stratified propagator's
    symbols on (V+, V-) at s = kappa t: the one home of the phase, as one
    (2, n, w) stack on the first w columns (the half spectrum by default)."""
    symbol = grid.xi1_over_abs if w is None else grid.columns("xi1_over_abs", w)
    out = np.empty((2,) + symbol.shape, dtype=complex)
    np.exp(1j * s * symbol, out=out[0])
    np.conjugate(out[0], out=out[1])
    return out


def diagonal_stack(grid: GridSpec, omega: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """V+- = omega +- Lambda rho on coefficients: (V+, V-) as one
    (2, n, w) array for (omega, rho) on the first w columns, a half spectrum
    or a column array (rho's mean is annihilated by Lambda).

    The one home of the diagonal variables, in the stacked form that the
    integrating-factor stepper, picard's frozen velocity and
    `duhamel_residual` work in (state and nonlinear forcing), and that the
    diagnostics' band norms read as fields.  omega's mean passes
    into both V+- and back; forcings carry a round-off mean, so the
    mean-zero guards stay with the operators that need them (Biot-Savart,
    the propagators).  One multiply by the signed symbol (|xi|, -|xi|) and
    one add: the negation is exact, so V- is omega - Lambda rho bit for
    bit.
    """
    v = np.multiply(grid.columns("signed_xi_abs", rho.shape[-1]), rho)
    v += omega
    return v


def merged_stack(grid: GridSpec, v: np.ndarray, rho_mean: float = 0.0) -> np.ndarray:
    """(omega, rho) as one (2, n, w) array from v = (V+, V-) on the first w
    columns, a stack or a pair of arrays; rho's mean, which Lambda
    annihilates, is given.  The halving and |xi|^-1 are one multiply by
    (1/2, |xi|^-1 / 2): a factor 1/2 is exact, so this is bit for bit the
    halving followed by |xi|^-1."""
    w = v[0].shape[-1]
    out = np.empty((2, grid.n, w), dtype=complex)
    np.add(v[0], v[1], out=out[0])
    np.subtract(v[0], v[1], out=out[1])
    out *= grid.columns("merge_symbol", w)
    out[1, 0, 0] = rho_mean
    return out


def _velocity(grid: GridSpec, omega: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The Biot-Savart law on coefficients, unchecked: (u1, u2) as one
    (2, n, w) array for omega on the first w columns, the perpendicular
    gradient of the stream function |xi|^-2 omega."""
    w = omega.shape[-1]
    return np.multiply(grid.columns("velocity_symbol", w),
                       grid.columns("inv_xi_sq", w) * omega, out=out)


def biot_savart(omega: SpectralField) -> VectorField:
    """u = perp-gradient of (-Laplacian)^-1 omega; divergence-free."""
    require_mean_zero(omega, "Biot-Savart")
    return VectorField.from_stack(omega.grid, _velocity(omega.grid, omega.coeffs))


def dealias(f: SpectralField) -> SpectralField:
    return SpectralField(f.grid, f.coeffs * f.grid.dealias_mask)


# ---------------------------------------------------------------------------
# products, norms, pairings


def multiply(f: SpectralField, g: SpectralField) -> SpectralField:
    """Dealiased pointwise product formed in physical space."""
    require_same_grid(f, g)
    return dealias(forward_transform(f.grid, inverse_transform(f) * inverse_transform(g)))


def _advection(grid: GridSpec, fields, u_samples=None) -> np.ndarray:
    """The spectra of u . grad g, not yet dealiased, on the same w columns,
    for each coefficient array g of `fields` (a list or a stack): the one
    advection kernel.  w = n//2 + 1 for any field, or
    `GridSpec.dealiased_columns` for dealiased ones.  u is given by its grid
    samples (u1, u2) or, when None, is the Biot-Savart velocity of
    fields[0].  All gradients (and that velocity) are one zero-tailed
    half-spectrum stack, transformed in place, and the products one stack:
    below N=256, one inverse and one forward call.  Returns one
    (len(fields), n, w) array.
    """
    n, w = grid.n, fields[0].shape[-1]
    own = 2 if u_samples is None else 0  # the velocity's slices, first in the stack
    stack = np.empty((own + 2 * len(fields),) + grid.shape, dtype=complex)
    stack[..., w:] = 0.0
    cols = stack[..., :w]
    if own:
        require_mean_zero(fields[0], "Biot-Savart")
        _velocity(grid, fields[0], out=cols[:2])
    grad = grid.columns("grad_symbol", w)
    for i, g in enumerate(fields):
        np.multiply(grad, g, out=cols[own + 2 * i : own + 2 * i + 2])
    d = np.empty((len(stack), n, n))
    for chunk in _chunks(grid, len(stack)):
        ifft(cols[chunk], axis=-2, norm="forward", out=cols[chunk])
        irfft(stack[chunk], n=n, axis=-1, norm="forward", out=d[chunk])
    u1, u2 = (d[0], d[1]) if own else u_samples
    products = np.empty((len(fields), n, n))
    for i, p in enumerate(products):
        np.add(np.multiply(d[own + 2 * i], u1, out=p), d[own + 2 * i + 1] * u2, out=p)
    return _spectra(grid, products, w)


def advect(u: VectorField, *scalars: SpectralField):
    """dealias(u . grad g) via physical-space products, for each scalar g
    (`_advection`); the velocity is transformed once per VectorField
    (`VectorField.samples`).  Returns a field for one scalar and a tuple of
    fields, in order, for several.
    """
    require_same_grid(u.u1, *scalars)
    grid = u.grid
    spectra = _advection(grid, [g.coeffs for g in scalars], u.samples())
    out = [dealias(SpectralField(grid, c)) for c in spectra]
    return out[0] if len(out) == 1 else tuple(out)


def lp_norm(f: SpectralField, p: float) -> float:
    """L^p norm; p=2 via Plancherel, p=inf grid max, else grid quadrature."""
    if p != 2:
        require_hermitian(f)
    return float(lp_norms_unchecked(f.grid, f.coeffs, p))


def lp_norms_unchecked(grid: GridSpec, coeffs: np.ndarray, p: float) -> np.ndarray:
    """lp_norm over the last two axes of a batch of coefficient arrays, one
    batched inverse transform for p != 2, without the Hermitian check: for
    the band projections or propagated copies of a field the caller has
    checked once.

    Their symbols are symmetric under k -> -k (up to conjugation), so their
    absolute Hermitian defect is at most the checked field's; relative to
    their own size it may not be (a band holding only round-off).
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    if p == 2:
        return 2 * np.pi * grid.box_scale * _coefficient_norms(coeffs)
    return sample_lp_norms(grid, _samples(grid, coeffs), p)


def sample_lp_norms(grid: GridSpec, samples: np.ndarray, p: float) -> np.ndarray:
    """L^p norms (p >= 1) of batched grid samples over the last two axes:
    the grid max for p = inf, else grid quadrature."""
    if np.isinf(p):
        # max |x| without an |x| temporary
        return np.maximum(samples.max(axis=(-2, -1)), -samples.min(axis=(-2, -1)))
    # p = 4, a Strichartz r, by two squarings: a float pow costs several times more
    powers = np.square(np.square(samples)) if p == 4 else np.abs(samples) ** p
    cell = (2 * np.pi * grid.box_scale / grid.n) ** 2
    return (np.sum(powers, axis=(-2, -1)) * cell) ** (1.0 / p)


def inner_l2(f: SpectralField, g: SpectralField) -> float:
    require_same_grid(f, g)
    return float(f.grid.area * _plancherel_sum(np.real(f.coeffs * np.conj(g.coeffs))))


def inner_hminus1(f: SpectralField, g: SpectralField) -> float:
    require_mean_zero(f, "H^-1 pairing")
    require_mean_zero(g, "H^-1 pairing")
    return inner_l2(lambda_power(f, -1.0), lambda_power(g, -1.0))


def hminus1_norm(f: SpectralField) -> float:
    require_mean_zero(f, "H^-1 norm")
    return lp_norm(lambda_power(f, -1.0), 2)


# ---------------------------------------------------------------------------
# snapshot container (bit-exact round trip)
#
# strat2d-field-v1 stores coefficients as the full n x n spectrum in fft
# layout, k1 slow / k2 fast: expanded on save, folded and checked on load.


def _full_spectrum(coeffs: np.ndarray) -> np.ndarray:
    """Half spectrum -> full n x n spectrum, c(k1, -k2) = conj c(-k1, k2)."""
    n, m = coeffs.shape[0], coeffs.shape[0] // 2
    full = np.empty((n, n), dtype=complex)
    full[:, : m + 1] = coeffs
    full[:, m + 1 :] = _partner(coeffs[:, m - 1 : 0 : -1])
    return full


def _half_spectrum(grid: GridSpec, full: np.ndarray) -> SpectralField:
    """Full spectrum -> field; raises unless it is the spectrum of a real field."""
    if full.shape != (grid.n, grid.n):
        raise ValueError(f"snapshot coefficients of shape {full.shape}, expected {(grid.n, grid.n)}")
    half = np.array(full[:, : grid.n // 2 + 1], dtype=complex)
    require_hermitian(SpectralField(grid, half))
    if np.abs(full - _full_spectrum(half)).max() > HERMITIAN_LIMIT * np.abs(full).max():
        raise HermitianSymmetryError("snapshot coefficients are not those of a real field")
    return SpectralField(grid, _symmetrize_columns(half))


def save_field(f: SpectralField, path) -> None:
    """Write a self-describing field snapshot (.npz): the full n x n spectrum
    in np.fft layout."""
    np.savez(path, format=np.array("strat2d-field-v1"), kind=np.array("coeffs"),
             n=np.array(f.grid.n), box_scale=np.array(f.grid.box_scale),
             dealias_fraction=np.array(f.grid.dealias_fraction),
             coeffs=_full_spectrum(f.coeffs))


def load_field(path) -> SpectralField:
    with np.load(path) as data:
        if str(data.get("format")) != "strat2d-field-v1":
            raise ValueError("not a strat2d field snapshot")
        if str(data.get("kind")) != "coeffs":
            raise ValueError(f"snapshot kind {str(data.get('kind'))!r} is not 'coeffs'")
        grid = GridSpec(
            n=int(data["n"]),
            box_scale=float(data["box_scale"]),
            dealias_fraction=float(data["dealias_fraction"]),
        )
        return _half_spectrum(grid, data["coeffs"])

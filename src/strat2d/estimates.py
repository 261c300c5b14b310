"""Commutator, product-rule, and cancellation checks with empirical constants.

The inequalities under test hold with some constant C independent of the
data; we measure the best constant over seeded random trials and require it
to be stable under grid doubling (same seed), which is the operational
meaning of "universal" at fixed desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bands import (
    BesovSpec,
    DyadicBank,
    _lq,
    besov_norm,
    lowpass_hom,
    project_band,
)
from .fields import random_field
from .grid import (
    SpectralField,
    VectorField,
    advect,
    biot_savart,
    derivative,
    inner_hminus1,
    inner_l2,
    inverse_transform,
    lambda_power,
    lp_norm,
    multiply,
    require_mean_zero,
    require_same_grid,
)


@dataclass
class RatioReport:
    which: str
    s: float
    q: float
    seed: int
    lhs: list = field(default_factory=list)
    rhs: list = field(default_factory=list)
    max_ratio: float = 0.0
    max_ratio_doubled: float | None = None

    def record(self, lhs: float, rhs: float) -> None:
        if not (np.isfinite(lhs) and np.isfinite(rhs)) or lhs < 0 or rhs < 0:
            raise ValueError("ratio report entries must be finite and nonnegative")
        self.lhs.append(lhs)
        self.rhs.append(rhs)
        if rhs > 0:
            self.max_ratio = max(self.max_ratio, lhs / rhs)

    def as_dict(self) -> dict:
        return {
            "which": self.which,
            "s": self.s,
            "q": self.q,
            "seed": self.seed,
            "trials": len(self.lhs),
            "max_ratio": self.max_ratio,
            "max_ratio_doubled": self.max_ratio_doubled,
        }


# ---------------------------------------------------------------------------
# commutators


def commutator_bracket(f: VectorField, g: SpectralField, j: int, bank: DyadicBank) -> SpectralField:
    """[f.grad, Delta_j] g = f.grad(Delta_j g) - Delta_j(f.grad g)."""
    require_same_grid(f.u1, g)
    return advect(f, project_band(g, j, bank)) - project_band(advect(f, g), j, bank)


def commutator_lambda(f: VectorField, g: SpectralField, j: int, bank: DyadicBank) -> SpectralField:
    """[f.grad, Lambda^-1 Delta_j] g; band projection makes Lambda^-1 safe."""

    def op(h: SpectralField) -> SpectralField:
        return lambda_power(project_band(h, j, bank).drop_mean(), -1.0)

    return advect(f, op(g)) - op(advect(f, g))


def commutator_smoothed(f: VectorField, g: SpectralField, j: int, bank: DyadicBank) -> SpectralField:
    """(S-dot_{j-2} f . grad) Delta_j g - Delta_j (f . grad g)."""
    require_same_grid(f.u1, g)
    f_low = VectorField(lowpass_hom(f.u1, j - 2, bank), lowpass_hom(f.u2, j - 2, bank))
    return advect(f_low, project_band(g, j, bank)) - project_band(advect(f, g), j, bank)


_COMMUTATORS = {
    "bracket": commutator_bracket,
    "lambda": commutator_lambda,
    "smoothed": commutator_smoothed,
}


def trial_spectrum_bounds(bank: DyadicBank) -> tuple[float, float, int]:
    """(xi_lo, xi_hi, kmax) keeping trial spectra inside the interior bands.

    Passing one grid's bounds to another grid's trials pins the spectral
    content, which is what makes coarse-vs-fine constant comparisons honest.
    """
    xi_lo = 5.0 / 8.0 * 2.0 ** (bank.j_min + 1)
    xi_hi = 5.0 / 8.0 * 2.0**bank.j_max
    kmax = int(bank.grid.dealias_fraction * bank.grid.n / 2)
    return xi_lo, xi_hi, kmax


def _random_pair(grid, seed: int, trial: int, alpha: float, bounds):
    """Divergence-free f and mean-zero scalar g with the declared spectra."""
    xi_lo, xi_hi, kmax = bounds
    omega = random_field(grid, seed, alpha=alpha, xi_lo=xi_lo, xi_hi=xi_hi,
                         kmax=kmax, stream=2 * trial)
    g = random_field(grid, seed, alpha=alpha, xi_lo=xi_lo, xi_hi=xi_hi,
                     kmax=kmax, stream=2 * trial + 1)
    return biot_savart(omega), g


def verify_commutator_lemma(
    grid,
    s: float,
    q: float,
    trials: int,
    seed: int,
    which: str = "bracket",
    alpha: float = 2.5,
    bank: DyadicBank | None = None,
    bounds=None,
) -> RatioReport:
    """Max over trials of LHS/RHS for the dyadic commutator inequality.

    LHS: l^q over bands of 2^{sj} |commutator|_{L2}.
    RHS: |grad f|_{L-inf} |g| in dotted B^s_{2,q}
         + |g|_{L-inf} |f| in dotted B^{s+1}_{2,q}  (two-term form).
    """
    if which not in _COMMUTATORS:
        raise ValueError(f"unknown commutator variant {which!r}")
    if which == "bracket" and s <= 0:
        raise ValueError("bracket variant needs s > 0")
    if which in ("lambda", "smoothed") and s <= -1:
        raise ValueError("this variant needs s > -1")
    if bank is None:
        bank = DyadicBank(grid)
    if bounds is None:
        bounds = trial_spectrum_bounds(bank)
    comm = _COMMUTATORS[which]
    report = RatioReport(which=which, s=s, q=q, seed=seed)
    spec_g = BesovSpec(s=s, q=q, homogeneous=True)
    for trial in range(trials):
        f, g = _random_pair(grid, seed, trial, alpha, bounds)
        lhs = _lq([2.0 ** (s * j) * lp_norm(comm(f, g, j, bank), 2) for j in bank.bands], q)
        grad_f_inf = max(
            np.abs(inverse_transform(derivative(comp, ax))).max()
            for comp in (f.u1, f.u2)
            for ax in (1, 2)
        )
        f_besov = besov_norm(f.u1, BesovSpec(s=s + 1, q=q, homogeneous=True), bank) + besov_norm(
            f.u2, BesovSpec(s=s + 1, q=q, homogeneous=True), bank
        )
        rhs = grad_f_inf * besov_norm(g, spec_g, bank) + lp_norm(g, np.inf) * f_besov
        report.record(lhs, rhs)
    return report


def verify_product_rule(
    grid,
    s: float,
    q: float,
    trials: int,
    seed: int,
    alpha: float = 2.5,
    bank: DyadicBank | None = None,
    bounds=None,
) -> RatioReport:
    """|fg| in dotted B^s_{2,q} vs |g|_inf |f|_{B^s_{2,q}} + |f|_inf |g|_{B^s_{2,q}}."""
    if s <= 0:
        raise ValueError("product rule needs s > 0")
    if bank is None:
        bank = DyadicBank(grid)
    if bounds is None:
        bounds = trial_spectrum_bounds(bank)
    report = RatioReport(which="product", s=s, q=q, seed=seed)
    spec = BesovSpec(s=s, q=q, homogeneous=True)
    for trial in range(trials):
        fvec, g = _random_pair(grid, seed, trial, alpha, bounds)
        f = fvec.u1  # any mean-zero scalar with the declared spectrum
        lhs = besov_norm(multiply(f, g).drop_mean(), spec, bank)
        rhs = lp_norm(g, np.inf) * besov_norm(f, spec, bank) + lp_norm(f, np.inf) * besov_norm(
            g, spec, bank
        )
        report.record(lhs, rhs)
    return report


def verify_bernstein(
    grid,
    trials: int,
    seed: int,
    alpha: float = 2.5,
    bank: DyadicBank | None = None,
):
    """For band-j fields: |grad f|_{L2} / |f|_{L2} must lie in the band annulus.

    Returns a list of (j, ratio, lo, hi) rows; the ratio is an exact weighted
    mean of |xi| over the band support, so lo = 5/8 2^j, hi = 7/4 2^j.
    """
    if bank is None:
        bank = DyadicBank(grid)
    rows = []
    inner = list(bank.interior_bands())
    for trial in range(trials):
        f = random_field(grid, seed, alpha=alpha, stream=trial)
        j = inner[trial % len(inner)]
        fj = project_band(f, j, bank)
        n2 = lp_norm(fj, 2)
        if n2 == 0:
            continue
        grad_norm = np.sqrt(
            lp_norm(derivative(fj, 1), 2) ** 2 + lp_norm(derivative(fj, 2), 2) ** 2
        )
        rows.append((j, grad_norm / n2, 5.0 / 8.0 * 2.0**j, 7.0 / 4.0 * 2.0**j))
    return rows


# ---------------------------------------------------------------------------
# cancellation and transport orthogonality


def cancellation_check(omega: SpectralField, rho: SpectralField, bank: DyadicBank | None = None):
    """|<d1 rho, omega>_{H^-1} + <u2, rho>_{L2}| with u = biot_savart(omega).

    Returns (residual, per_band_residuals); exact cancellation pins the sign
    convention of the Biot-Savart velocity.
    """
    require_mean_zero(omega, "cancellation check")
    require_same_grid(omega, rho)
    rho0 = rho.drop_mean()

    def pair(om, rh):
        # Biot-Savart is a Fourier multiplier, so band projection commutes
        # with it and the identity holds band by band.
        u2 = biot_savart(om).u2
        return inner_hminus1(derivative(rh, 1), om) + inner_l2(u2, rh)

    total = abs(pair(omega, rho0))
    per_band = {}
    if bank is not None:
        for j in bank.bands:
            per_band[j] = abs(pair(project_band(omega, j, bank), project_band(rho0, j, bank)))
    return total, per_band


def transport_check(u: VectorField, g: SpectralField) -> float:
    """|<u.grad g, g>_{L2}|: zero for divergence-free u with dealiased products."""
    return abs(inner_l2(advect(u, g), g))


# ---------------------------------------------------------------------------
# resolution-stability driver


def resolution_stability(
    which: str,
    s: float,
    q: float,
    trials: int,
    seed: int,
    n: int,
    box_scale: float = 1.0,
    alpha: float = 2.5,
) -> RatioReport:
    """Run a ratio battery at n and at 2n with identical trial fields.

    The fine grid reuses the coarse grid's spectral bounds, so the measured
    constants compare the same data at two discretizations; the doubled-grid
    max ratio lands in `max_ratio_doubled`.
    """
    from .grid import GridSpec

    coarse = GridSpec(n, box_scale=box_scale)
    fine = GridSpec(2 * n, box_scale=box_scale)
    bank_c = DyadicBank(coarse)
    bounds = trial_spectrum_bounds(bank_c)
    if which == "product":
        rep = verify_product_rule(coarse, s, q, trials, seed, alpha=alpha,
                                  bank=bank_c, bounds=bounds)
        rep_f = verify_product_rule(fine, s, q, trials, seed, alpha=alpha, bounds=bounds)
    else:
        rep = verify_commutator_lemma(coarse, s, q, trials, seed, which=which,
                                      alpha=alpha, bank=bank_c, bounds=bounds)
        rep_f = verify_commutator_lemma(fine, s, q, trials, seed, which=which,
                                        alpha=alpha, bounds=bounds)
    rep.max_ratio_doubled = rep_f.max_ratio
    return rep

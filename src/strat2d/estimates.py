"""Commutator, product-rule, and cancellation checks with empirical constants.

The inequalities under test (the table `LEMMAS`) hold with some constant C
independent of the data; we measure the best constant over seeded random
trials and require it to be stable under grid doubling (same seed), which is
the operational meaning of "universal" at fixed desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .bands import (
    BesovSpec,
    _lq,
    besov_norm,
    dyadic_bank,
    lowpass_hom,
    project_band,
)
from .fields import random_field
from .grid import (
    GridSpec,
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
        """One report's record; its keys are the columns of ratio_reports.csv, in order."""
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


def commutator_bracket(f: VectorField, g: SpectralField, j: int) -> SpectralField:
    """[f.grad, Delta_j] g = f.grad(Delta_j g) - Delta_j(f.grad g)."""
    require_same_grid(f.u1, g)
    return advect(f, project_band(g, j)) - project_band(advect(f, g), j)


def commutator_lambda(f: VectorField, g: SpectralField, j: int) -> SpectralField:
    """[f.grad, Lambda^-1 Delta_j] g; band projection makes Lambda^-1 safe."""

    def op(h: SpectralField) -> SpectralField:
        return lambda_power(project_band(h, j).drop_mean(), -1.0)

    return advect(f, op(g)) - op(advect(f, g))


def commutator_smoothed(f: VectorField, g: SpectralField, j: int) -> SpectralField:
    """(S-dot_{j-2} f . grad) Delta_j g - Delta_j (f . grad g)."""
    require_same_grid(f.u1, g)
    f_low = VectorField(lowpass_hom(f.u1, j - 2), lowpass_hom(f.u2, j - 2))
    return advect(f_low, project_band(g, j)) - project_band(advect(f, g), j)


def trial_spectrum_bounds(grid: GridSpec) -> tuple[float, float, int]:
    """(xi_lo, xi_hi, kmax) keeping trial spectra inside the grid's interior bands.

    Passing one grid's bounds to another grid's trials pins the spectral
    content, which is what makes coarse-vs-fine constant comparisons honest.
    """
    bank = dyadic_bank(grid)
    xi_lo = 5.0 / 8.0 * 2.0 ** (bank.j_min + 1)
    xi_hi = 5.0 / 8.0 * 2.0**bank.j_max
    kmax = grid.dealiased_columns - 1  # the dealias cutoff
    return xi_lo, xi_hi, kmax


def _random_pair(grid, seed: int, trial: int, alpha: float, bounds):
    """Divergence-free f and mean-zero scalar g with the declared spectra."""
    xi_lo, xi_hi, kmax = bounds
    omega = random_field(grid, seed, alpha=alpha, xi_lo=xi_lo, xi_hi=xi_hi,
                         kmax=kmax, stream=2 * trial)
    g = random_field(grid, seed, alpha=alpha, xi_lo=xi_lo, xi_hi=xi_hi,
                     kmax=kmax, stream=2 * trial + 1)
    return biot_savart(omega), g


def _commutator_terms(comm):
    """(lhs, rhs) of the dyadic commutator inequality for one commutator.

    LHS: l^q over bands of 2^{sj} |commutator|_{L2}.
    RHS: |grad f|_{L-inf} |g| in dotted B^s_{2,q}
         + |g|_{L-inf} |f| in dotted B^{s+1}_{2,q}  (two-term form).
    """

    def terms(f: VectorField, g: SpectralField, s: float, q: float):
        bands = dyadic_bank(g.grid).bands
        lhs = _lq([2.0 ** (s * j) * lp_norm(comm(f, g, j), 2) for j in bands], q)
        grad_f_inf = max(
            np.abs(inverse_transform(derivative(comp, ax))).max()
            for comp in (f.u1, f.u2)
            for ax in (1, 2)
        )
        spec_f = BesovSpec(s=s + 1, q=q, homogeneous=True)
        f_besov = besov_norm(f.u1, spec_f) + besov_norm(f.u2, spec_f)
        rhs = (grad_f_inf * besov_norm(g, BesovSpec(s=s, q=q, homogeneous=True))
               + lp_norm(g, np.inf) * f_besov)
        return lhs, rhs

    return terms


def _product_terms(fvec: VectorField, g: SpectralField, s: float, q: float):
    """|fg| in dotted B^s_{2,q} vs |g|_inf |f|_{B^s_{2,q}} + |f|_inf |g|_{B^s_{2,q}}."""
    f = fvec.u1  # any mean-zero scalar with the declared spectrum
    spec = BesovSpec(s=s, q=q, homogeneous=True)
    lhs = besov_norm(multiply(f, g).drop_mean(), spec)
    rhs = (lp_norm(g, np.inf) * besov_norm(f, spec)
           + lp_norm(f, np.inf) * besov_norm(g, spec))
    return lhs, rhs


# the inequality battery: name -> (s_floor, terms); each inequality needs
# s > s_floor, and terms(f, g, s, q) -> (lhs, rhs) for one trial pair
LEMMAS = {
    "bracket": (0.0, _commutator_terms(commutator_bracket)),
    "lambda": (-1.0, _commutator_terms(commutator_lambda)),
    "smoothed": (-1.0, _commutator_terms(commutator_smoothed)),
    "product": (0.0, _product_terms),
}


def verify_lemma(
    grid,
    which: str,
    s: float,
    q: float,
    trials: int,
    seed: int,
    alpha: float = 2.5,
    bounds=None,
) -> RatioReport:
    """Max over seeded trial pairs of LHS/RHS for the inequality `which` of LEMMAS."""
    if which not in LEMMAS:
        raise ValueError(f"unknown lemma {which!r}; have {tuple(LEMMAS)}")
    s_floor, terms = LEMMAS[which]
    if s <= s_floor:
        raise ValueError(f"lemma {which!r} needs s > {s_floor:g}")
    if bounds is None:
        bounds = trial_spectrum_bounds(grid)
    report = RatioReport(which=which, s=s, q=q, seed=seed)
    for trial in range(trials):
        f, g = _random_pair(grid, seed, trial, alpha, bounds)
        report.record(*terms(f, g, s, q))
    return report


def verify_bernstein(
    grid,
    trials: int,
    seed: int,
    alpha: float = 2.5,
):
    """For band-j fields: |grad f|_{L2} / |f|_{L2} must lie in the band annulus.

    Returns a list of (j, ratio, lo, hi) rows; the ratio is an exact weighted
    mean of |xi| over the band support, so lo = 5/8 2^j, hi = 7/4 2^j.
    """
    rows = []
    inner = list(dyadic_bank(grid).interior_bands())
    for trial in range(trials):
        f = random_field(grid, seed, alpha=alpha, stream=trial)
        j = inner[trial % len(inner)]
        fj = project_band(f, j)
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


def cancellation_check(omega: SpectralField, rho: SpectralField):
    """|<d1 rho, omega>_{H^-1} + <u2, rho>_{L2}| with u = biot_savart(omega).

    Returns (residual, {band j: residual of the band-j pieces}); exact
    cancellation pins the sign convention of the Biot-Savart velocity.
    """
    require_mean_zero(omega, "cancellation check")
    require_same_grid(omega, rho)
    rho0 = rho.drop_mean()

    def pair(om, rh):
        # Biot-Savart is a Fourier multiplier, so band projection commutes
        # with it and the identity holds band by band.
        u2 = biot_savart(om).u2
        return inner_hminus1(derivative(rh, 1), om) + inner_l2(u2, rh)

    per_band = {j: abs(pair(project_band(omega, j), project_band(rho0, j)))
                for j in dyadic_bank(omega.grid).bands}
    return abs(pair(omega, rho0)), per_band


def transport_check(u: VectorField, g: SpectralField) -> float:
    """|<u.grad g, g>_{L2}|: zero for divergence-free u with dealiased products."""
    return abs(inner_l2(advect(u, g), g))


# ---------------------------------------------------------------------------
# resolution-stability driver


def resolution_stability(
    which: str,
    grid: GridSpec,
    s: float,
    q: float,
    trials: int,
    seed: int,
    alpha: float = 2.5,
) -> RatioReport:
    """Run a ratio battery on `grid` and on its doubling with identical trial fields.

    The fine grid reuses the coarse grid's spectral bounds, so the measured
    constants compare the same data at two discretizations; the doubled-grid
    max ratio lands in `max_ratio_doubled`.
    """
    bounds = trial_spectrum_bounds(grid)
    rep = verify_lemma(grid, which, s, q, trials, seed, alpha, bounds)
    fine = replace(grid, n=2 * grid.n)
    rep.max_ratio_doubled = verify_lemma(fine, which, s, q, trials, seed, alpha,
                                         bounds=bounds).max_ratio
    return rep

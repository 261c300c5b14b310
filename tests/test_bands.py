import ast
from pathlib import Path

import numpy as np
import pytest

from strat2d import bands
from strat2d.errors import NonzeroMeanError
from strat2d.bands import (
    BesovSpec,
    DyadicBank,
    band_profile_rows,
    besov_norm,
    chi,
    dyadic_bank,
    intersection_norm,
    lowpass_hom,
    lowpass_nonhom,
    project_band,
    psi0,
    smooth_step,
)
from strat2d.fields import random_field
from strat2d.grid import (
    GridSpec,
    SpectralField,
    forward_transform,
    hminus1_norm,
    lp_norm,
)


@pytest.fixture
def grid():
    return GridSpec(128)


@pytest.fixture
def bank(grid):
    return dyadic_bank(grid)


def band_limited_random(grid, seed=0):
    """Mean-zero field supported strictly inside the resolved bands."""
    bank = dyadic_bank(grid)
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    f = forward_transform(grid, rng.standard_normal((grid.n, grid.n)))
    lo = 5.0 / 8.0 * 2.0 ** (bank.j_min + 1)
    hi = 5.0 / 8.0 * 2.0**bank.j_max
    mask = (grid.xi_abs > lo) & (grid.xi_abs <= hi)
    return SpectralField(grid, f.coeffs * mask)


def test_smooth_step_endpoints():
    assert smooth_step(np.array([-1.0, 0.0]))[0] == 0.0
    assert smooth_step(np.array([1.0, 2.0]))[1] == 1.0
    mid = smooth_step(np.array([0.5]))[0]
    assert abs(mid - 0.5) < 1e-14  # symmetric construction


def test_chi_plateau_and_support():
    r = np.array([0.0, 1.0, 5.0 / 4.0, 7.0 / 4.0, 2.0])
    v = chi(r)
    assert v[0] == 1.0 and v[1] == 1.0 and v[2] == 1.0
    assert v[3] == 0.0 and v[4] == 0.0


def test_psi0_support():
    r = np.array([0.5, 5.0 / 8.0, 1.0, 7.0 / 4.0, 2.0])
    v = psi0(r)
    assert v[0] == 0.0 and v[1] == 0.0
    assert v[2] == 1.0  # both cutoffs saturated at |xi| = 1
    assert v[3] == 0.0 and v[4] == 0.0


def test_band_range_reference_grid(bank):
    assert bank.j_min == 0
    assert bank.j_max == 4


def test_partition_of_unity(bank):
    assert bank.partition_residual() < 1e-12


def test_bank_needs_enough_bands():
    with pytest.raises(ValueError):
        DyadicBank(GridSpec(8))


def test_psi_hat_range_checked(bank):
    with pytest.raises(ValueError):
        bank.psi_hat(bank.j_max + 1)


def test_single_mode_band_membership(grid, bank):
    x1, _ = grid.meshgrid()
    f = forward_transform(grid, np.cos(4 * x1))  # |xi| = 4 sits in band 2 only
    for j in bank.bands:
        norm = lp_norm(project_band(f, j), 2)
        if j == 2:
            assert abs(norm - lp_norm(f, 2)) < 1e-12
        else:
            assert norm < 1e-14


def test_lowpass_mean_policy(grid):
    x1, _ = grid.meshgrid()
    f = forward_transform(grid, 2.0 + np.cos(x1))
    hom = lowpass_hom(f, 3)
    nonhom = lowpass_nonhom(f, 3)
    assert hom.mean == 0.0
    assert abs(nonhom.mean - 2.0) < 1e-14
    # the |xi| = 1 content passes both untouched
    assert abs(hom.coeffs[1, 0] - 0.5) < 1e-14


def test_besov_norm_single_mode(grid):
    x1, _ = grid.meshgrid()
    f = forward_transform(grid, np.cos(x1))  # lives entirely in band 0
    for s in (0.0, 1.0, 2.0):
        v = besov_norm(f, BesovSpec(s=s, q=1.0))
        assert abs(v - np.sqrt(2) * np.pi) < 1e-12  # 2^{s*0} = 1


def test_besov_q_infinity(grid, bank):
    f = band_limited_random(grid, seed=2)
    v1 = besov_norm(f, BesovSpec(s=1.0, q=np.inf))
    vals = [2.0**j * lp_norm(project_band(f, j), 2) for j in bank.bands]
    assert abs(v1 - max(vals)) < 1e-12


def test_homogeneous_norm_mean_guard(grid):
    f = forward_transform(grid, np.ones((grid.n, grid.n)))
    with pytest.raises(NonzeroMeanError):
        besov_norm(f, BesovSpec(s=0.0, q=1.0))
    # positive smoothness ignores the mean (weight 0 on the zero mode)
    besov_norm(f, BesovSpec(s=1.0, q=1.0))


def test_nonhomogeneous_norm_reads_the_cached_low_pass(grid, bank, monkeypatch):
    # S_0's multiplier chi(|xi|) is built with the bank, not on every norm
    f = band_limited_random(grid).with_mean(0.25)
    spec = BesovSpec(s=1.0, q=1.0, homogeneous=False)
    expected = besov_norm(f, spec)
    assert np.array_equal(bank.lowpass_multiplier(0), chi(grid.xi_abs))

    def no_chi(r):
        raise AssertionError("chi rebuilt")

    monkeypatch.setattr(bands, "chi", no_chi)
    assert besov_norm(f, spec) == expected
    assert besov_norm(f, BesovSpec(s=1.0, p=np.inf, homogeneous=False)) > 0


def test_nonhomogeneous_norm_keeps_mean(grid):
    f = forward_transform(grid, np.full((grid.n, grid.n), 3.0))
    v = besov_norm(f, BesovSpec(s=2.0, q=1.0, homogeneous=False))
    assert abs(v - 3.0 * 2 * np.pi) < 1e-10  # S_0 block alone: L2 of a constant


def test_intersection_norm_is_sum(grid):
    f = band_limited_random(grid, seed=3)
    v = intersection_norm(f, 1.0, 1.0)
    expected = besov_norm(f, BesovSpec(s=1.0, q=1.0)) + hminus1_norm(f)
    assert abs(v - expected) < 1e-12


def test_besov_spec_validation():
    with pytest.raises(ValueError):
        BesovSpec(s=1.0, p=0.5)
    with pytest.raises(ValueError):
        BesovSpec(s=1.0, q=0.0)


def test_band_profile_rows(grid, bank):
    rows = band_profile_rows(grid, n_radial=50)
    labels = {r[1] for r in rows}
    assert "sum" in labels
    assert str(bank.j_min) in labels and str(bank.j_max) in labels
    # partition sum close to 1 somewhere in the interior
    interior = [v for r, lab, v in rows if lab == "sum" and 2.0 < r < 8.0]
    assert max(interior) > 0.999


def test_partition_across_resolutions():
    for n in (64, 128, 256):
        assert dyadic_bank(GridSpec(n)).partition_residual() < 1e-12


def test_bank_stacks_band_multipliers():
    grid = GridSpec(64)
    bank = DyadicBank(grid)
    assert bank.psi.shape == (len(bank.bands), *grid.shape)
    for j in bank.bands:
        assert np.shares_memory(bank.psi_hat(j), bank.psi)
        assert np.array_equal(bank.psi_hat(j), psi0(grid.xi_abs / 2.0**j))


def _per_band_besov(f, spec):
    """The Besov norm band by band, as the definition reads."""
    bank = dyadic_bank(f.grid)
    if spec.homogeneous:
        vals = [2.0 ** (spec.s * j) * lp_norm(project_band(f, j), spec.p)
                for j in bank.bands]
    else:
        # a band below j_min is not resolved: read it off its profile
        def band(j):
            if j >= bank.j_min:
                return project_band(f, j)
            return SpectralField(f.grid, psi0(f.grid.xi_abs / 2.0**j) * f.coeffs)

        vals = [lp_norm(lowpass_nonhom(f, 0), spec.p)]
        vals += [2.0 ** (spec.s * j) * lp_norm(band(j), spec.p)
                 for j in range(1, bank.j_max + 1)]
    vals = np.array(vals)
    return vals.max() if np.isinf(spec.q) else np.sum(vals**spec.q) ** (1.0 / spec.q)


# (64, 8) and (32, 4) have j_max = 0: the nonhomogeneous norm is S_0 alone;
# (64, 0.25) has j_min = 2: band 1 vanishes on the grid
@pytest.mark.parametrize("n, box_scale", [(32, 1), (64, 1), (64, 8), (32, 4), (64, 0.25)])
@pytest.mark.parametrize("homogeneous", [True, False])
def test_batched_l2_besov_matches_per_band(n, box_scale, homogeneous):
    # p = 2 sums all bands in one batch; every p selects the bands at once
    grid = GridSpec(n, box_scale=box_scale)
    f = random_field(grid, seed=n, xi_lo=0.5 / box_scale, xi_hi=grid.dealias_cutoff,
                     amplitude=3.0)
    for p in (2.0, 1.0, 4.0, np.inf):
        for s in (-1.0, 0.0, 2.0):
            for q in (1.0, 2.0, np.inf):
                spec = BesovSpec(s=s, p=p, q=q, homogeneous=homogeneous)
                ref = _per_band_besov(f, spec)
                assert abs(besov_norm(f, spec) - ref) <= 1e-14 * ref


def test_the_bank_is_memoized_per_grid():
    assert dyadic_bank(GridSpec(64)) is dyadic_bank(GridSpec(64))
    assert dyadic_bank(GridSpec(64)) is not dyadic_bank(GridSpec(64, box_scale=2.0))
    bank = dyadic_bank(GridSpec(64))
    with pytest.raises(ValueError):  # shared, so read-only
        bank.psi[0, 0, 0] = 2.0


def _parse_package():
    """(module stem, syntax tree) of each module of the package."""
    return [(path.stem, ast.parse(path.read_text()))
            for path in sorted(Path(bands.__file__).parent.glob("*.py"))]


def _callers(tree: ast.AST, name: str, scope: str = ""):
    """The qualified names of the functions and classes that call `name`,
    once per call."""
    for node in ast.iter_child_nodes(tree):
        inner = scope
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, ast.Call) and name in (getattr(node.func, "id", None),
                                                   getattr(node.func, "attr", None)):
            yield inner
        yield from _callers(node, name, inner)


def test_no_function_takes_a_bank():
    # the bank is a function of the grid: each operator reads its field's
    takers = [f"{stem}:{node.lineno}"
              for stem, tree in _parse_package()
              for node in ast.walk(tree)
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
              for arg in (*node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs,
                          node.args.vararg, node.args.kwarg)
              if arg is not None and arg.arg == "bank"]
    assert takers == []


def test_the_dyadic_bank_has_one_home():
    callers = [f"{stem}.{where}" for stem, tree in _parse_package()
               for where in _callers(tree, "DyadicBank")]
    assert callers == ["bands.dyadic_bank"]

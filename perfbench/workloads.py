"""The benchmark's workloads: experiment configs made from a seed, and the
correctness check each result must pass.

A check returns what is wrong with the outputs that were produced; sweep
members that ended in an error are counted as failures by the caller.

A config is the JSON a researcher would hand to the ``strat2d`` CLI.  Checks
read only the experiment's own outputs and use the paper's tolerances, as
pinned in ``tests/test_acceptance.py``.
"""

from __future__ import annotations

import csv
import json
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

STRICHARTZ_PACKETS = 4
# differences below this share of the norm are double-precision round-off
ROUNDOFF = 1e3 * sys.float_info.epsilon


@dataclass(frozen=True)
class Workload:
    name: str
    default_seed: int
    make_config: Callable[[int], dict]
    check: Callable[[Path, dict, int], list]
    # experiments per untraced run, each on its own data: work that depends on
    # the data (when lifespans end) is averaged over more than one draw
    min_experiments: int = 1


def _load(path: Path):
    with open(path) as fh:
        return json.load(fh)


def _seed_problems(manifest: dict, seed: int) -> list:
    """The data seed must reach the program unchanged, whatever its seed rule."""
    cfg = manifest["config"]
    got = (cfg["initial_data"].get("seed"), cfg["seeds"])
    return [] if got == (seed, [seed]) else [f"config seed {got} != requested {seed}"]


# -- lifespan-n128 -------------------------------------------------------------

def lifespan_config(seed: int) -> dict:
    return {
        "kind": "lifespan-sweep",
        "grid": {"n": 128},
        "scheme": "ifrk4",
        "dt": 0.002,
        "adaptive": True,
        "initial_data": {"name": "random-spectrum", "alpha": 2.5, "seed": seed,
                         "amplitude": 15.0, "xi_lo": 0.5, "xi_hi": 4.0},
        "kappa_list": [0.0, 256.0],
        "seeds": [seed],
        "threshold": 8.0,
        "t_max": 2.0,
        "n_samples": 81,
    }


def lifespan_check(outdir: Path, manifest: dict, seed: int) -> list:
    problems = _seed_problems(manifest, seed)
    with open(outdir / "lifespan_table.csv", newline="") as fh:
        rows = sorted((float(r["kappa"]), float(r["t_life"])) for r in csv.DictReader(fh))
    completed = sorted(r["kappa"] for r in manifest["runs"] if r["status"] == "ok")
    if [k for k, _ in rows] != completed:
        problems.append(f"lifespan table rows {rows} do not match the completed members")
    lives = [t for _, t in rows]
    if not all(b >= 0.95 * a for a, b in zip(lives, lives[1:])):
        problems.append(f"lifespans not nondecreasing within 5%: {rows}")
    if not manifest["flags"].get("lifespan_nondecreasing_5pct"):
        problems.append("flag lifespan_nondecreasing_5pct failed")
    return problems


# -- strichartz-n128 -----------------------------------------------------------

def strichartz_config(seed: int) -> dict:
    return {
        "kind": "strichartz",
        "grid": {"n": 128, "box_scale": 8.0},
        "gamma": 4.0,
        "r": "inf",
        "window": 0.5,
        "kappa_list": [2.0**e for e in range(4, 11)],
        "seeds": [seed + i for i in range(STRICHARTZ_PACKETS)],
    }


def strichartz_check(outdir: Path, manifest: dict, seed: int) -> list:
    problems = []
    if manifest["config"]["seeds"] != strichartz_config(seed)["seeds"]:
        problems.append(f"config seeds {manifest['config']['seeds']} not derived from {seed}")
    slope = _load(outdir / "strichartz_fit.json")["slope"]
    if slope is None or abs(slope + 0.25) > 0.08:
        problems.append(f"Strichartz slope {slope} not within -1/4 +/- 0.08")
    return problems


# -- picard-n64 ----------------------------------------------------------------

def picard_config(seed: int) -> dict:
    return {
        "kind": "picard",
        "grid": {"n": 64},
        "scheme": "ifrk4",
        "dt": 0.01,
        "initial_data": {"name": "random-spectrum", "seed": seed, "amplitude": 1.0,
                         "xi_lo": 0.5, "xi_hi": 2.5},
        "kappa_list": [0.0, 16.0, 256.0],
        "seeds": [seed],
        "t_final": 0.25,
        "n_max": 8,
        "n_samples": 26,
    }


def _number(text: str) -> float:
    """A CSV cell; the harness writes numpy scalars by repr, as "np.float64(0.5)"."""
    match = re.fullmatch(r"np\.float64\((.*)\)", text)
    return float(match.group(1) if match else text)


def _picard_sups(outdir: Path, manifest: dict) -> dict:
    """kappa -> (sup of A_n over n and t, {n: sup_t A-bar_n}) from the iterate CSVs."""
    sups = {}
    for name in manifest["outputs"]:
        # the CSV name keeps kappa; its extension may be mangled ("picard_kappa16pcsv")
        match = re.fullmatch(r"picard_kappa(.+)[.p]csv", name)
        if match is None:
            continue
        sup_a, sup_bar = 0.0, {}
        with open(outdir / name, newline="") as fh:
            for row in csv.DictReader(fh):
                sup_a = max(sup_a, _number(row["a_n"]))
                if row["a_bar_n"]:
                    n = int(row["n"])
                    sup_bar[n] = max(sup_bar.get(n, 0.0), _number(row["a_bar_n"]))
        sups[float(match.group(1).replace("p", "."))] = (sup_a, sup_bar)
    return sups


def picard_check(outdir: Path, manifest: dict, seed: int) -> list:
    problems = _seed_problems(manifest, seed)
    spread = _load(outdir / "uniformity_report.json")["spread"]
    if not spread < 1.5:
        problems.append(f"uniformity spread {spread} not < 1.5")
    sups = _picard_sups(outdir, manifest)
    for run in manifest["runs"]:
        sup_a, sup_bar = sups[run["kappa"]]
        # cauchy_ratios[i] = sup A-bar_{i+2} / sup A-bar_{i+1}, so [1:] is n >= 3.  A
        # ratio is judged only while its denominator is above round-off: once the
        # iterates agree to ~1e-16 of the norm, the ratio of two round-off values is noise.
        judged = [r for i, r in enumerate(run["cauchy_ratios"]) if i >= 1
                  and sup_bar[i + 1] > ROUNDOFF * sup_a]
        if not judged or max(judged) > 0.6:
            problems.append(f"kappa {run['kappa']}: resolved Cauchy ratios for n>=3 "
                            f"{judged} not all <= 0.6")
    return problems


# Why each workload was chosen is recorded in BENCHMARK.json; the default
# seeds are those of acceptance criteria 9, 6 and 7.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("lifespan-n128", 11, lifespan_config, lifespan_check, min_experiments=2),
        Workload("strichartz-n128", 0, strichartz_config, strichartz_check),
        Workload("picard-n64", 7, picard_config, picard_check),
    )
}

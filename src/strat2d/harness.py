"""Experiment orchestration: config validation, deterministic sweeps,
parallel execution, and CSV/JSON emission.

Every experiment expands into a list of independent runs (the sweep
schedule).  Runs execute on a thread pool, side by side on grids of at least
SIDE_BY_SIDE_N points a side (STRAT2D_THREADS caps the width) and one at a
time below, but results are always collected and written in schedule order,
so outputs are byte-identical regardless of parallelism.
"""

from __future__ import annotations

import csv
import inspect
import json
import os
import sys
import time
import typing
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .bands import BesovSpec, band_profile_rows, band_range, dyadic_bank
from .dispersive import (
    Kappa0Inputs,
    fit_slope,
    kappa0_estimate,
    require_admissible,
    strichartz_measures,
)
from .errors import ConfigError
from .estimates import LEMMAS, resolution_stability
from .fields import PRESETS, coherent_band_field, make_initial_data, spectral_window
from .grid import GridSpec, save_field
from .picard import cauchy_ratios, picard_run, uniformity_report
from .solver import COLUMNS, StepperConfig, gronwall_fit, run


# Sweep members run side by side from this grid size on, one at a time below
# it.  A small grid's member is mostly short numpy calls, and two members'
# threads hand the GIL to each other at every one (CPython bpo-7946): on a
# 2-vCPU VM every sweep kind took more wall time and more CPU on two threads
# at n = 64 (README, STRAT2D_THREADS).
SIDE_BY_SIDE_N = 96

# Philox's key, which the seeds of random data become, is a uint64
SEED_RANGE = range(2**64)


def thread_count() -> int:
    """Worker cap from STRAT2D_THREADS (default: the cores this process may
    run on, which `taskset` or a cpuset can make fewer than the machine's)."""
    raw = os.environ.get("STRAT2D_THREADS", "")
    if raw.strip():
        try:
            value = int(raw)
        except ValueError as exc:
            raise ConfigError(f"STRAT2D_THREADS must be an integer, got {raw!r}") from exc
        if value < 1:
            raise ConfigError("STRAT2D_THREADS must be >= 1")
        return value
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# ---------------------------------------------------------------------------
# configuration


# the annotations of ExperimentConfig's keys that isinstance checks
_TYPES = {"bool": bool, "str": str, "list": list, "dict": dict}


def _names_int(annotation) -> bool:
    """Whether a preset parameter's annotation names int (`int`,
    `int | None`), written as a string or as a real type; an unannotated
    parameter takes any number."""
    if isinstance(annotation, str):
        return annotation.startswith("int")
    return annotation is int or int in typing.get_args(annotation)


def _is_number(value) -> bool:
    """An int or a float as JSON gives them: not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@dataclass
class ExperimentConfig:
    kind: str
    grid: dict = field(default_factory=lambda: {"n": 64})
    scheme: str = "ifrk4"
    dt: float = 5e-3
    adaptive: bool = False
    initial_data: dict = field(default_factory=lambda: {"name": "taylor-green"})
    kappa_list: list = field(default_factory=lambda: [0.0])
    seeds: list = field(default_factory=lambda: [0])
    s: float = 2.0
    q: float = 1.0
    t_final: float = 1.0
    n_samples: int = 41
    snapshots: bool = False
    output_dir: str = "out"
    # lifespan
    threshold: float = 8.0
    t_max: float = 2.0
    # picard
    n_max: int = 8
    spread_limit: float = 1.5
    # strichartz
    gamma: float = 4.0
    r: float = float("inf")
    window: float = 0.5
    # verify-estimates
    lemma: str = "bracket"
    trials: int = 100
    alpha: float = 2.5
    # kappa0
    kappa0_inputs: dict = field(default_factory=dict)

    def __post_init__(self):
        # JSON spells r = infinity "inf" (`as_dict`), so a manifest's config rebuilds
        try:
            self.r = float(self.r)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"r must be a number or \"inf\", got {self.r!r}") from exc

    def validate(self) -> None:
        # every key holds its annotated type: a float key a finite double
        # (+inf also for an exponent), an int key a count, and a bool, str,
        # list or dict key one of those, so that "false" is not read as true
        # nor 5 iterated
        for f in fields(self):
            value = getattr(self, f.name)
            infinite = f.name in ("q", "gamma", "r")  # exponents, whose +inf is meaningful
            if f.type == "float" and not (_is_number(value) and (
                    abs(value) <= sys.float_info.max or infinite and value == np.inf)):
                kind = "a finite number or inf" if infinite else "a finite number"
                raise ConfigError(f"{f.name} must be {kind}, got {value!r}")
            if f.type == "int" and not (_is_number(value) and isinstance(value, int)):
                raise ConfigError(f"{f.name} must be an integer, got {value!r}")
            if f.type in _TYPES and not isinstance(value, _TYPES[f.type]):
                raise ConfigError(f"{f.name} must be a {f.type}, got {value!r}")
        if self.kind not in KINDS:
            raise ConfigError(f"unknown experiment kind {self.kind!r}; have {tuple(KINDS)}")
        if not self.kappa_list:
            raise ConfigError("kappa list must be nonempty")
        if not self.seeds:
            raise ConfigError("seed list must be nonempty")
        for kappa in self.kappa_list:
            if not (_is_number(kappa) and np.isfinite(kappa)):
                raise ConfigError(f"kappa_list entries must be finite numbers, got {kappa!r}")
        tags = [_kappa_tag(kappa) for kappa in self.kappa_list]
        if self.kind == "picard" and len(set(tags)) < len(tags):  # a file per kappa's tag
            raise ConfigError(f"picard kappa_list {self.kappa_list} repeats a file tag: {tags}")
        for seed in self.seeds:
            if not (_is_number(seed) and isinstance(seed, int) and seed in SEED_RANGE):
                raise ConfigError(f"seeds must be integers in [0, 2**64), got {seed!r}")
        self._check_initial_data()
        for key in ("t_final", "threshold", "t_max", "window"):
            if getattr(self, key) <= 0:
                raise ConfigError(f"{key} must be positive, got {getattr(self, key)}")
        # the spread is a ratio max / min >= 1, so a limit <= 1 never passes
        if self.spread_limit <= 1:
            raise ConfigError(f"spread_limit must be > 1, got {self.spread_limit}")
        for key, least in (("n_samples", 2), ("n_max", 1), ("trials", 1)):
            if getattr(self, key) < least:
                raise ConfigError(f"{key} must be >= {least}, got {getattr(self, key)}")
        if self.lemma not in (*LEMMAS, "all"):
            raise ConfigError(f"unknown lemma {self.lemma!r}; have {(*LEMMAS, 'all')}")
        if self.kind == "verify-estimates":
            s_floor = max(LEMMAS[name][0] for name in self.lemmas())
            if self.s <= s_floor:
                raise ConfigError(f"lemma {self.lemma!r} needs s > {s_floor:g}, got {self.s}")
        grid = self.grid_spec()
        try:  # the objects a run builds refuse what it cannot run
            if self.initial_data["name"] == "random-spectrum":
                spectral_window(grid, **{key: value for key, value in self.initial_data.items()
                                         if key in ("xi_lo", "xi_hi", "kmax")})
            self.stepper()
            BesovSpec(s=self.s, q=self.q)
            if self.kind == "kappa0":  # the default {} is incomplete
                Kappa0Inputs(**self.kappa0_inputs)
            else:
                band_range(grid)
            if self.kind == "strichartz":
                require_admissible(self.gamma, self.r)
                dyadic_bank(grid).psi_hat(0)  # the band its packets are measured in
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{self.kind} config: {exc}") from exc

    def _check_initial_data(self) -> None:
        """The preset is known, and its keywords bind to the preset's
        signature with number values (integers for an int parameter), or
        null where the default is None."""
        params = dict(self.initial_data)
        name = params.pop("name", None)
        if name not in PRESETS:
            raise ConfigError(f"unknown initial-data preset {name!r}")
        signature = inspect.signature(PRESETS[name])
        try:
            signature.bind(None, **params)  # None stands for the grid
        except TypeError as exc:
            raise ConfigError(f"initial_data {self.initial_data}: {exc}") from exc
        for key, value in params.items():
            parameter = signature.parameters[key]
            integer = _names_int(parameter.annotation)
            number = _is_number(value) and value == value and (isinstance(value, int) or not integer)
            if not (number or value is None and parameter.default is None):
                kind = "an integer" if integer else "a number"
                raise ConfigError(f"initial_data {key} must be {kind}, got {value!r}")
        seed = params.get("seed")
        # an int first: `in` searches a range item by item for anything else
        if seed is not None and not (isinstance(seed, int) and seed in SEED_RANGE):
            raise ConfigError(f"initial_data seed must be an integer in [0, 2**64), got {seed!r}")
        width = params.get("width") if name == "gaussian-bump" else None
        # 2 width^2, the Gaussian's denominator, neither underflows nor overflows
        if width is not None and not (width > 0 and 0 < 2 * width * width < np.inf):
            raise ConfigError(f"initial_data width must be positive, with a square that is "
                              f"neither 0 nor inf in floating point, got {width}")

    def grid_spec(self) -> GridSpec:
        try:
            return GridSpec(**self.grid)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"grid {self.grid}: {exc}") from exc

    def lemmas(self) -> list[str]:
        """The LEMMAS entries a verify-estimates run measures, in table order."""
        return list(LEMMAS) if self.lemma == "all" else [self.lemma]

    def stepper(self) -> StepperConfig:
        return StepperConfig(scheme=self.scheme, dt=self.dt, adaptive=self.adaptive)

    def as_dict(self) -> dict:
        out = dict(self.__dict__)
        out["r"] = "inf" if np.isinf(self.r) else self.r
        return out


def load_config(path, overrides=()) -> ExperimentConfig:
    """The validated config of a JSON file, patched by `key=value`
    overrides; a file that cannot be read, is not JSON or is not one
    object, and an override that descends through a value that is not an
    object, raise ConfigError."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config file {path} cannot be read: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path} holds {raw!r}, not a JSON object")
    for item in overrides:
        key, _, value = item.partition("=")
        if not _:
            raise ConfigError(f"override must look like key=value, got {item!r}")
        try:
            parsed = json.loads(value)
        except json.JSONDecodeError:
            parsed = value
        node = raw
        parts = key.split(".")
        for p in parts[:-1]:
            node = node.setdefault(p, {})
            if not isinstance(node, dict):
                raise ConfigError(f"override {item!r} descends through {p} = {node!r}, "
                                  "not an object")
        node[parts[-1]] = parsed
    known = set(ExperimentConfig.__dataclass_fields__)
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    cfg = ExperimentConfig(**raw)
    cfg.validate()
    return cfg


# ---------------------------------------------------------------------------
# sweep schedule


@dataclass(frozen=True)
class RunSpec:
    index: int
    kappa: float
    seed: int
    scheme: str

    @property
    def tag(self) -> str:
        return f"run{self.index:03d}_kappa{_kappa_tag(self.kappa)}_seed{self.seed}_{self.scheme}"


def _kappa_tag(kappa: float) -> str:
    """kappa for a file name: 0.5 -> "0p5", -2 -> "m2"."""
    return f"{kappa:g}".replace(".", "p").replace("-", "m")


def sweep_schedule(config: ExperimentConfig) -> list[RunSpec]:
    """Deterministic expansion kappa x seed, in that nesting order; every
    member steps with config.scheme."""
    config.validate()
    specs = []
    idx = 0
    for kappa in config.kappa_list:
        for seed in config.seeds:
            specs.append(RunSpec(index=idx, kappa=float(kappa), seed=int(seed),
                                 scheme=config.scheme))
            idx += 1
    return specs


# ---------------------------------------------------------------------------
# writers


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def write_json(path, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON-serializable: {type(obj)}")


def diagnostics_rows(traj):
    return [[r[c] for c in COLUMNS] for r in traj.records]


# ---------------------------------------------------------------------------
# experiment drivers


@dataclass
class RunManifest:
    config: dict
    version: str
    wall_clock: float
    outputs: list
    flags: dict
    runs: list
    members_at_once: int | None  # None: the kind is not a sweep

    @property
    def passed(self) -> bool:
        return all(self.flags.values())


def _parallel_map(fn, items):
    # members run on pool threads even with one worker, so that there is one
    # code path; the page-fault churn of their freed temporaries is stopped
    # on every thread by the malloc thresholds that importing strat2d sets,
    # not by the choice of thread
    workers = min(thread_count(), max(len(items), 1))
    # np.errstate is per thread: pool threads would start from numpy's defaults
    errstate = np.geterr()

    def call(item):
        with np.errstate(**errstate):
            return fn(item)

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(call, items))


def _sweep(specs, one, grid: GridSpec, member=None):
    """Map one over the sweep's members, isolating each member's crash.

    By default each spec is a member and one(spec) is its result.  With
    member, the specs that share member(spec) form one member, and
    one(group) returns one result per spec of the group, in its order; a
    member that raises fails each of its specs.  On a grid of n >=
    SIDE_BY_SIDE_N the members go to one `_parallel_map` call, side by
    side; below it each member has a call of its own, one at a time.

    Returns (swept, members_at_once): swept holds (spec, result, entry) in
    the order of specs, where entry is the spec's manifest record and result
    is None when its member raised; members_at_once is how many members ran
    at once.
    """
    if member is None:
        return _sweep(specs, lambda group: [one(group[0])], grid, member=id)
    groups = {}
    for at, spec in enumerate(specs):
        groups.setdefault(member(spec), []).append(at)

    def run_member(group):
        grouped = [specs[at] for at in group]
        entries = [{"tag": spec.tag, "kappa": spec.kappa, "seed": spec.seed,
                    "scheme": spec.scheme, "status": "ok"} for spec in grouped]
        try:
            results = one(grouped)
        except Exception as exc:  # crash isolation: siblings keep running
            for entry in entries:
                entry.update(status="error", error=f"{type(exc).__name__}: {exc}")
            results = [None] * len(grouped)
        return list(zip(group, zip(grouped, results, entries)))

    members = list(groups.values())
    if grid.n >= SIDE_BY_SIDE_N:
        width, done = min(thread_count(), len(members)), _parallel_map(run_member, members)
    else:
        width, done = 1, [_parallel_map(run_member, [group])[0] for group in members]
    swept = [None] * len(specs)
    for results in done:
        for at, item in results:
            swept[at] = item
    return swept, width


def _member_data(config: ExperimentConfig, grid: GridSpec, spec: RunSpec):
    """A sweep member's initial data: a preset with a `seed` parameter is
    drawn from the member's seed."""
    data = dict(config.initial_data)
    if "seed" in inspect.signature(PRESETS[data["name"]]).parameters:
        data["seed"] = spec.seed
    return make_initial_data(grid, data)


def _nondecreasing_per_seed(lifespans) -> bool:
    """Lifespans (kappa, seed, t_life) grow with kappa within 5%, seed by seed."""
    by_seed = {}
    for _, seed, t_life in sorted(lifespans):
        by_seed.setdefault(seed, []).append(t_life)
    return all(b >= 0.95 * a for lives in by_seed.values() for a, b in zip(lives, lives[1:]))


def _trajectories(config: ExperimentConfig, grid: GridSpec, t_end: float, stop=None):
    """`_sweep` of the schedule's members, each `run` from its data to t_end
    under the stop rule, storing no snapshots.  Each manifest entry copies
    how its run ended and its steps (no timing, so reruns stay
    byte-identical).  Returns what `_sweep` does."""
    def one(spec: RunSpec):
        return run(*_member_data(config, grid, spec), spec.kappa, t_end, config.stepper(),
                   n_samples=config.n_samples, s=config.s, q=config.q, stop=stop)

    swept, width = _sweep(sweep_schedule(config), one, grid)
    for _, traj, entry in swept:
        if traj is not None:
            entry.update((key, getattr(traj, key)) for key in (
                "status", "stop_reason", "t_stop", "steps", "rejected", "dt_min", "dt_max"))
            if traj.error is not None:
                entry["error"] = traj.error
    return swept, width


# Each driver returns (files, flags, runs, members_at_once): files maps an
# output name to its content, written by run_experiment: (header, rows) for
# .csv, a payload for .json, a SpectralField for .npz.  members_at_once is
# `_sweep`'s for a sweep, whose runs decide all_runs_completed, and None for
# any other kind.


def _simulate(config: ExperimentConfig, grid: GridSpec):
    files, runs = {}, []
    swept, width = _trajectories(config, grid, config.t_final)
    for spec, traj, entry in swept:
        if traj is not None:
            files[f"{spec.tag}_diagnostics.csv"] = (COLUMNS, diagnostics_rows(traj))
            entry["c6"] = gronwall_fit(traj.records)
            if config.snapshots:
                files[f"{spec.tag}_final_omega.npz"] = traj.last_state.omega
        runs.append(entry)
    return files, {}, runs, width


def _lifespan_sweep(config: ExperimentConfig, grid: GridSpec):
    # the lifespan: B reaching the threshold, or t_max, on a run that ended ok
    stop = ("b_integral", config.threshold)
    files, rows, runs = {}, [], []
    swept, width = _trajectories(config, grid, config.t_max, stop)
    for spec, traj, entry in swept:
        if traj is not None:
            curve = f"{spec.tag}_bcurve.csv"
            files[curve] = (COLUMNS, diagnostics_rows(traj))
            if traj.status == "ok":
                rows.append([spec.kappa, spec.seed, traj.t_stop, curve])
        runs.append(entry)
    files["lifespan_table.csv"] = (("kappa", "seed", "t_life", "b_curve_file"), rows)
    # a member without a lifespan (blown up or raised) fails the trend
    flags = {"lifespan_nondecreasing_5pct": len(rows) == len(runs)
             and _nondecreasing_per_seed(r[:3] for r in rows)}
    return files, flags, runs, width


def _picard(config: ExperimentConfig, grid: GridSpec):
    # one member per kappa, all on the data of the one seed initial_data.seed
    specs = sweep_schedule(replace(config, seeds=[config.initial_data.get("seed", 0)]))
    omega0, rho0 = _member_data(config, grid, specs[0])

    def one(spec: RunSpec):
        return picard_run(omega0, rho0, spec.kappa, config.t_final, config.n_max, config.stepper(),
                          s=config.s, q=config.q, n_samples=config.n_samples)

    files, runs, traces_by_kappa = {}, [], {}
    swept, width = _sweep(specs, one, grid)
    for spec, traces, entry in swept:
        if traces is not None:
            traces_by_kappa[spec.kappa] = traces
            rows = [[tr.n, t, tr.a[i], tr.a_bar[i] if tr.a_bar is not None else ""]
                    for tr in traces for i, t in enumerate(tr.t)]
            name = f"picard_kappa{_kappa_tag(spec.kappa)}.csv"
            files[name] = (("n", "t", "a_n", "a_bar_n"), rows)
            # a ratio over a zero sup (0/0 for zero data) is not finite: null,
            # since strict JSON has no NaN or Infinity
            entry["cauchy_ratios"] = [float(x) if np.isfinite(x) else None
                                      for x in cauchy_ratios(traces)]
        runs.append(entry)
    report = uniformity_report(traces_by_kappa, spread_limit=config.spread_limit)
    files["uniformity_report.json"] = report
    return files, {"kappa_uniform_spread": bool(report["pass"])}, runs, width


def _strichartz(config: ExperimentConfig, grid: GridSpec):
    # one member per packet: its kappas share the time nodes of equal kappa t
    def packet(specs):
        return strichartz_measures(coherent_band_field(grid, specs[0].seed),
                                   [spec.kappa for spec in specs], config.gamma, config.r,
                                   t_max=config.window)

    rows, by_kappa, runs = [], {}, []
    swept, width = _sweep(sweep_schedule(config), packet, grid, member=lambda spec: spec.seed)
    for spec, sample, entry in swept:
        if sample is not None:
            rows.append([sample.kappa, spec.seed, sample.gamma, sample.r,
                         sample.t_max, sample.nodes, sample.value])
            # keyed by the |kappa| measured at; the fit's log kappa needs kappa > 0
            by_kappa.setdefault(sample.kappa, []).append(sample.value)
        runs.append(entry)
    kappas = sorted(by_kappa)
    means = [float(np.mean(by_kappa[k])) for k in kappas]
    fitted = [(k, m) for k, m in zip(kappas, means) if k > 0]
    slope = fit_slope(*zip(*fitted)) if len(fitted) >= 6 else None
    target = -1.0 / config.gamma
    fit = {"kappas": kappas, "mean_values": means, "slope": slope, "target_slope": target,
           "torus_note": "windowed integral; kappa-scaling is the measured content"}
    files = {"strichartz_samples.csv": (("kappa", "seed", "gamma", "r", "t_max", "nodes",
                                         "value"), rows),
             "strichartz_fit.json": fit}
    flags = {} if slope is None else {"slope_within_0p08": bool(abs(slope - target) <= 0.08)}
    return files, flags, runs, width


def _verify_estimates(config: ExperimentConfig, grid: GridSpec):
    lemmas = config.lemmas()
    reports = [resolution_stability(lemma, grid, config.s, config.q, config.trials,
                                    int(config.seeds[0]), config.alpha) for lemma in lemmas]
    records = [r.as_dict() for r in reports]
    files = {
        "ratio_reports.csv": (tuple(records[0]), [list(d.values()) for d in records]),
        "ratio_reports.json": records,
    }
    stable = all(
        r.max_ratio > 0 and abs(r.max_ratio_doubled - r.max_ratio) <= 0.25 * r.max_ratio
        for r in reports
    )
    return (files, {"ratios_resolution_stable_25pct": stable},
            [{"status": "ok", "lemmas": lemmas}], None)


def _kappa0(config: ExperimentConfig, grid: GridSpec):
    value, overflow = kappa0_estimate(Kappa0Inputs(**config.kappa0_inputs))
    files = {"kappa0.json": {"inputs": config.kappa0_inputs, "kappa0": value,
                             "overflow": overflow}}
    return files, {"kappa0_finite": not overflow}, [{"status": "ok"}], None


def _bands(config: ExperimentConfig, grid: GridSpec):
    bank = dyadic_bank(grid)
    resid = bank.partition_residual()
    files = {
        "band_profiles.csv": (("xi", "band", "value"), band_profile_rows(grid)),
        "partition.json": {"j_min": bank.j_min, "j_max": bank.j_max,
                           "partition_residual": resid},
    }
    return files, {"partition_residual_ok": resid < 1e-12}, [{"status": "ok"}], None


# kind -> (CLI verb, driver(config, grid))
KINDS = {
    "simulate": ("simulate", _simulate),
    "picard": ("picard", _picard),
    "strichartz": ("strichartz-sweep", _strichartz),
    "lifespan-sweep": ("lifespan-sweep", _lifespan_sweep),
    "verify-estimates": ("verify-estimates", _verify_estimates),
    "kappa0": ("kappa0", _kappa0),
    "bands": ("bands", _bands),
}


def run_experiment(config: ExperimentConfig) -> RunManifest:
    config.validate()
    outdir = Path(config.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    started = time.time()
    grid = config.grid_spec()
    _, driver = KINDS[config.kind]
    files, flags, runs, width = driver(config, grid)
    if width is not None:
        completed = all(r["status"] in ("ok", "blowup") for r in runs)
        flags = {"all_runs_completed": completed, **flags}
    for name, content in files.items():
        if name.endswith(".csv"):
            write_csv(outdir / name, *content)
        elif name.endswith(".json"):
            write_json(outdir / name, content)
        else:
            save_field(content, outdir / name)
    manifest = RunManifest(config=config.as_dict(), version=__version__,
                           wall_clock=time.time() - started, outputs=sorted(files),
                           flags=flags, runs=runs, members_at_once=width)
    write_json(outdir / "manifest.json", asdict(manifest))
    return manifest

import csv
import dataclasses
import json
import os
import platform
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import strat2d
from strat2d import cli, estimates, fields, harness, picard, solver
from strat2d.cli import SUBCOMMANDS
from strat2d.cli import main as cli_main
from strat2d.errors import ConfigError, HermitianSymmetryError
from strat2d.grid import GridSpec, load_field
from strat2d.harness import (
    ExperimentConfig,
    _nondecreasing_per_seed,
    load_config,
    run_experiment,
    sweep_schedule,
    thread_count,
    write_csv,
)


def write_config(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh)
    return str(path)


SIM_CONFIG = {
    "kind": "simulate",
    "grid": {"n": 64},
    "scheme": "ifrk4",
    "dt": 0.01,
    "initial_data": {"name": "random-spectrum", "seed": 3, "amplitude": 0.5,
                     "xi_lo": 0.5, "xi_hi": 4.0},
    "kappa_list": [0.0, 16.0],
    "t_final": 0.1,
    "n_samples": 3,
}


# the `simulate` example of README.md
README_SIM = {
    "kind": "simulate",
    "grid": {"n": 64},
    "scheme": "ifrk4",
    "dt": 0.01,
    "initial_data": {"name": "random-spectrum", "seed": 3,
                     "amplitude": 0.5, "xi_lo": 0.5, "xi_hi": 4.0},
    "kappa_list": [0.0, 16.0, 256.0],
    "t_final": 0.5,
    "output_dir": "out",
}


# small configs of the three sweeps and of picard
SMALL = {
    "simulate": SIM_CONFIG,
    "lifespan-sweep": {
        "kind": "lifespan-sweep", "grid": {"n": 32}, "dt": 0.01,
        "initial_data": {"name": "random-spectrum", "seed": 0, "amplitude": 4.0,
                         "xi_lo": 0.5, "xi_hi": 4.0},
        "kappa_list": [0.0, 16.0], "seeds": [1, 2], "threshold": 100.0, "t_max": 0.1,
        "n_samples": 3,
    },
    "strichartz": {"kind": "strichartz", "grid": {"n": 64, "box_scale": 8.0},
                   "kappa_list": [16.0, 32.0], "seeds": [0, 1]},
    "picard": {
        "kind": "picard", "grid": {"n": 32}, "kappa_list": [16.0, 0.5],
        "initial_data": {"name": "random-spectrum", "seed": 7, "amplitude": 1.0,
                         "xi_lo": 0.5, "xi_hi": 2.5},
        "t_final": 0.05, "n_max": 2, "n_samples": 6,
    },
}


def small_config(kind, outdir, **changes):
    return ExperimentConfig(**{**SMALL[kind], "output_dir": str(outdir), **changes})


def test_config_validation(tmp_path):
    bad = dict(SIM_CONFIG, kappa_list=[])
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path / "a.json", bad))
    bad = dict(SIM_CONFIG, initial_data={"name": "nonsense"})
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path / "b.json", bad))
    bad = dict(SIM_CONFIG, kind="nonsense")
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path / "c.json", bad))
    bad = dict(SIM_CONFIG, bogus_key=1)
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path / "d.json", bad))
    bad = dict(SIM_CONFIG, scheme="euler")
    with pytest.raises(ConfigError, match="unknown scheme"):
        load_config(write_config(tmp_path / "e.json", bad))


def test_overrides(tmp_path):
    path = write_config(tmp_path / "cfg.json", SIM_CONFIG)
    cfg = load_config(path, ["dt=0.5", "grid.n=32", "initial_data.seed=9"])
    assert cfg.dt == 0.5
    assert cfg.grid["n"] == 32
    assert cfg.initial_data["seed"] == 9
    with pytest.raises(ConfigError):
        load_config(path, ["no_equals_sign"])


def test_sweep_schedule_expansion():
    cfg = ExperimentConfig(kind="simulate", kappa_list=[0.0], seeds=[1],
                           initial_data={"name": "taylor-green"})
    assert len(sweep_schedule(cfg)) == 1
    cfg = ExperimentConfig(kind="simulate", kappa_list=[0, 1, 2, 3, 4],
                           seeds=[1, 2, 3], initial_data={"name": "taylor-green"})
    specs = sweep_schedule(cfg)
    assert len(specs) == 15
    # kappa is the slow axis, seed the fast one; indices are consecutive
    assert [s.index for s in specs] == list(range(15))
    assert specs[0].kappa == 0.0 and specs[0].seed == 1
    assert specs[1].kappa == 0.0 and specs[1].seed == 2
    assert specs[3].kappa == 1.0 and specs[3].seed == 1


def test_thread_count_env(monkeypatch):
    monkeypatch.setenv("STRAT2D_THREADS", "3")
    assert thread_count() == 3
    monkeypatch.setenv("STRAT2D_THREADS", "zero")
    with pytest.raises(ConfigError):
        thread_count()
    monkeypatch.setenv("STRAT2D_THREADS", "0")
    with pytest.raises(ConfigError):
        thread_count()
    monkeypatch.delenv("STRAT2D_THREADS")
    assert thread_count() >= 1


def test_thread_count_defaults_to_usable_cores(monkeypatch):
    monkeypatch.delenv("STRAT2D_THREADS", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
    assert thread_count() == 3
    monkeypatch.delattr(os, "sched_getaffinity")  # a platform without affinity masks
    assert thread_count() == 64


@pytest.mark.parametrize("kind", ["simulate", "lifespan-sweep", "strichartz", "picard"])
def test_sweep_reruns_byte_identical(tmp_path, monkeypatch, kind):
    outputs, runs = {}, {}
    for label, threads in (("one", "1"), ("two", "4")):
        monkeypatch.setenv("STRAT2D_THREADS", threads)
        manifest = run_experiment(small_config(kind, tmp_path / label))
        assert manifest.passed
        outputs[label] = {name: (tmp_path / label / name).read_bytes()
                          for name in manifest.outputs}
        runs[label] = manifest.runs
    assert outputs["one"] == outputs["two"]
    assert runs["one"] == runs["two"]


def test_single_worker_sweep_runs_off_the_main_thread(tmp_path, monkeypatch):
    # members run on a pool thread even alone, so that every sweep takes one
    # code path; the page faults of freed temporaries are stopped by
    # keep_freed_memory on any thread
    threads = []

    def recording(grid, seed):
        threads.append(threading.current_thread())
        return real(grid, seed)

    real = harness.coherent_band_field
    monkeypatch.setattr(harness, "coherent_band_field", recording)
    monkeypatch.setenv("STRAT2D_THREADS", "1")
    assert run_experiment(small_config("strichartz", tmp_path / "out")).passed
    assert len(threads) == 2  # one member per packet, for both its kappas
    assert threading.main_thread() not in threads


# a thread stepping at N=128, 3 warm-up steps, then three 20-step windows;
# prints each window's minor page faults
_STEPPING_SCRIPT = """
import json, resource, threading
from strat2d.fields import random_spectrum
from strat2d.grid import GridSpec, dealias
from strat2d.solver import SimState, StepperConfig, cfl_dt, step

grid = GridSpec(128)
omega, rho = random_spectrum(grid, alpha=2.5, seed=11, amplitude=15.0, xi_lo=0.5, xi_hi=4.0)
cfg = StepperConfig(scheme="ifrk4", dt=0.002, adaptive=True)
faults = []

def stepping():
    state = SimState(dealias(omega), dealias(rho), 0.0, 256.0)
    for _ in range(3):  # warm-up: plans, cached symbols, the heap itself
        state = step(state, cfl_dt(state, cfg), cfg)[0]
    for _ in range(3):
        before = resource.getrusage(resource.RUSAGE_THREAD).ru_minflt
        for _ in range(20):
            state = step(state, cfl_dt(state, cfg), cfg)[0]
        faults.append(resource.getrusage(resource.RUSAGE_THREAD).ru_minflt - before)

thread = threading.Thread(target=stepping)
thread.start()
thread.join()
print(json.dumps(faults))
"""


@pytest.mark.skipif(not (sys.platform.startswith("linux") and platform.libc_ver()[0] == "glibc"),
                    reason="glibc's malloc thresholds")
def test_stepping_thread_keeps_its_freed_memory():
    # importing strat2d alone sets the malloc thresholds: without them a
    # thread stepping at N=128 faults its freed per-step temporaries in
    # again, thousands of minor faults in 20 steps.  With them the heap may
    # still grow once by one array (33 pages), at a step that depends on the
    # process's allocation history, so the best of three 20-step windows is
    # judged.  A fresh interpreter, so that no earlier test has set them.
    src = str(Path(strat2d.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    env.pop("GLIBC_TUNABLES", None)
    done = subprocess.run([sys.executable, "-c", _STEPPING_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    faults = json.loads(done.stdout)
    assert len(faults) == 3 and min(faults) <= 20, faults


def test_cli_import_loads_no_scipy():
    # SciPy is a test oracle only: importing the CLI, which imports every
    # module of the package, must not load it.  A fresh interpreter, so that
    # no earlier test has imported it.
    src = str(Path(strat2d.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    script = ("import json, sys, strat2d.cli; "
              "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))")
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == []


def test_strichartz_manifest_config_rebuilds(tmp_path):
    # the manifest spells r = infinity "inf"; the config it records rebuilds
    manifest = run_experiment(small_config("strichartz", tmp_path / "out"))
    with open(tmp_path / "out" / "manifest.json") as fh:
        recorded = json.load(fh)["config"]
    assert recorded["r"] == "inf" and manifest.config == recorded
    cfg = ExperimentConfig(**recorded)
    cfg.validate()
    assert cfg.r == np.inf
    assert cfg.as_dict() == recorded


def test_config_r_must_be_numeric(tmp_path):
    with pytest.raises(ConfigError, match="r must be"):
        ExperimentConfig(**dict(SMALL["strichartz"], r="infinity-ish"))
    with pytest.raises(ConfigError, match="r must be"):
        load_config(write_config(tmp_path / "cfg.json", dict(SMALL["strichartz"], r=[4])))
    assert ExperimentConfig(**dict(SMALL["strichartz"], r=8)).r == 8.0


def test_manifest_written(tmp_path):
    cfg = load_config(write_config(tmp_path / "cfg.json",
                                   dict(SIM_CONFIG, output_dir=str(tmp_path / "out"))))
    manifest = run_experiment(cfg)
    with open(tmp_path / "out" / "manifest.json") as fh:
        on_disk = json.load(fh)
    assert on_disk["version"] == manifest.version
    assert on_disk["flags"] == manifest.flags
    assert sorted(on_disk["outputs"]) == manifest.outputs
    assert all(r["status"] in ("ok", "blowup") for r in on_disk["runs"])


def test_crash_isolation(tmp_path):
    # a run that blows up is recorded but does not abort its siblings
    cfg_payload = dict(
        SIM_CONFIG,
        scheme="rk4",
        dt=0.05,
        t_final=2.0,
        n_samples=11,
        initial_data={"name": "random-spectrum", "seed": 3, "amplitude": 1.0,
                      "xi_lo": 0.5, "xi_hi": 4.0},
        kappa_list=[0.0, 1e4],
        output_dir=str(tmp_path / "out"),
    )
    cfg = load_config(write_config(tmp_path / "cfg.json", cfg_payload))
    with np.errstate(invalid="ignore", over="ignore"):
        manifest = run_experiment(cfg)
    statuses = {r["kappa"]: r["status"] for r in manifest.runs}
    assert statuses[0.0] == "ok"
    assert statuses[1e4] == "blowup"


def test_sweep_members_inherit_errstate(tmp_path, monkeypatch):
    # the kappa=1e4 member of test_crash_isolation overflows: silenced by the
    # caller's np.errstate also when it runs in a pool thread
    monkeypatch.setenv("STRAT2D_THREADS", "2")
    cfg = ExperimentConfig(**dict(
        SIM_CONFIG, scheme="rk4", dt=0.05, t_final=2.0, n_samples=11,
        initial_data={"name": "random-spectrum", "seed": 3, "amplitude": 1.0,
                      "xi_lo": 0.5, "xi_hi": 4.0},
        kappa_list=[0.0, 1e4], output_dir=str(tmp_path / "out")))
    with warnings.catch_warnings(record=True) as caught, np.errstate(all="ignore"):
        warnings.simplefilter("always")
        manifest = run_experiment(cfg)
    assert {r["kappa"]: r["status"] for r in manifest.runs}[1e4] == "blowup"
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_inadmissible_strichartz_config_refused_before_work(tmp_path, monkeypatch):
    def no_member(grid, seed):
        raise AssertionError("a member started")

    monkeypatch.setattr(harness, "coherent_band_field", no_member)
    payload = dict(SMALL["strichartz"], gamma=4.0, r=4.0, output_dir=str(tmp_path / "out"))
    with pytest.raises(ConfigError, match="inadmissible"):
        run_experiment(ExperimentConfig(**payload))
    with pytest.raises(ConfigError, match="inadmissible"):
        load_config(write_config(tmp_path / "cfg.json", payload))
    assert not (tmp_path / "out").exists()


def test_bands_experiment(tmp_path):
    cfg = ExperimentConfig(kind="bands", grid={"n": 128},
                           output_dir=str(tmp_path / "out"))
    manifest = run_experiment(cfg)
    assert manifest.flags["partition_residual_ok"]
    assert (tmp_path / "out" / "band_profiles.csv").exists()


def test_kappa0_experiment(tmp_path):
    cfg = ExperimentConfig(
        kind="kappa0",
        kappa0_inputs={"t": 1.0, "z": 1.0, "c6": 1.0, "c7": 1.0, "gamma": 4.0},
        output_dir=str(tmp_path / "out"),
    )
    manifest = run_experiment(cfg)
    with open(tmp_path / "out" / "kappa0.json") as fh:
        payload = json.load(fh)
    assert abs(payload["kappa0"] - (2 * (1 + np.e)) ** 4) < 1e-6


def test_cli_exit_codes(tmp_path):
    path = write_config(tmp_path / "bands.json",
                        {"kind": "bands", "grid": {"n": 64},
                         "output_dir": str(tmp_path / "out")})
    assert cli_main(["bands", "--config", path]) == 0
    # subcommand / kind mismatch
    assert cli_main(["simulate", "--config", path]) == 2
    # missing config file
    assert cli_main(["bands", "--config", str(tmp_path / "missing.json")]) == 2


def test_cli_override(tmp_path):
    path = write_config(tmp_path / "bands.json",
                        {"kind": "bands", "grid": {"n": 64},
                         "output_dir": str(tmp_path / "out")})
    alt = str(tmp_path / "alt")
    assert cli_main(["bands", "--config", path, "--override",
                     f'output_dir="{alt}"']) == 0
    assert os.path.isdir(alt)


@pytest.mark.parametrize("change", [
    {"grid": {"n": 33}},                      # odd n
    {"grid": {"n": 6}},                       # n < 8
    {"grid": {"n": 64, "nodes": 64}},         # unknown grid key
    {"grid": {"n": 16}},                      # too small for a dyadic bank
    {"kind": "verify-estimates", "lemma": "nope"},
    {"kind": "verify-estimates", "lemma": "all", "s": 0.0},  # bracket needs s > 0
    # values that would fail only once the run is under way, or not at all
    {"kind": "simulate", "n_samples": 1},
    {"kind": "lifespan-sweep", "n_samples": 1},  # no step: t_life = t_max
    {"kind": "picard", "n_samples": 1},
    {"kind": "lifespan-sweep", "threshold": 0.0},
    {"kind": "lifespan-sweep", "t_max": 0.0},  # every t_life would read 0.0
    {"kind": "strichartz", "window": 0.0},  # fails each member at run time
    {"kind": "verify-estimates", "trials": 0},  # a flag judged on no trials
    {"kind": "picard", "n_max": 0},
    {"kind": "kappa0", "kappa0_inputs": {"t": 1.0, "z": 1.0, "c6": 1.0, "c7": 1.0}},
    {"kind": "kappa0", "kappa0_inputs": {"t": 1.0, "z": 1.0, "c6": 1.0, "c7": 1.0,
                                         "gamma": 0.0}},
    # a numeric key of the wrong type
    {"kind": "lifespan-sweep", "threshold": "abc"},
    {"kind": "lifespan-sweep", "t_max": None},
    {"kind": "simulate", "dt": "0.01"},
    {"kind": "simulate", "t_final": [1.0]},
    {"kind": "simulate", "s": True},
    {"kind": "simulate", "dt": float("nan")},
    {"kind": "strichartz", "window": {"t": 0.5}},
    # a count that is not an integer
    {"kind": "picard", "n_samples": 2.5},
    {"kind": "picard", "n_max": 1.5},
    {"kind": "verify-estimates", "trials": 10.5},
    {"kind": "verify-estimates", "trials": "10"},
    # q < 1, which BesovSpec refuses in every member
    {"kind": "simulate", "q": 0.5},
    # sweep entries: a kappa that is not a finite number, a seed not an integer
    {"kind": "lifespan-sweep", "kappa_list": ["a"]},
    {"kind": "lifespan-sweep", "kappa_list": [float("nan")]},
    {"kind": "simulate", "kappa_list": [float("inf")]},
    {"kind": "lifespan-sweep", "seeds": ["x"]},
    {"kind": "lifespan-sweep", "seeds": [1.5]},
    {"kind": "simulate", "seeds": [True]},
    # a bool, list or dict key of the wrong type: read by truthiness or iterated
    {"kind": "simulate", "adaptive": "false"},  # used to run adaptive
    {"kind": "simulate", "snapshots": "no"},  # used to write .npz files
    {"kind": "lifespan-sweep", "kappa_list": 5},  # used to exit 3 (TypeError)
    {"kind": "simulate", "initial_data": 5},  # used to exit 3 (AttributeError)
    # GridSpec inputs: n not an integer, box_scale not finite
    {"grid": {"n": 64.0}},
    {"grid": {"n": 64, "box_scale": float("nan")}},
    {"grid": {"n": 64, "box_scale": float("inf")}},
    # preset keywords the preset does not take: simulate used to exit 1 with
    # every member errored, picard to exit 3 with a TypeError
    {"kind": "simulate", "initial_data": {"name": "taylor-green", "foo": 1}},
    {"kind": "picard", "initial_data": {"name": "taylor-green", "foo": 1}},
    {"kind": "picard", "initial_data": {"name": "random-spectrum", "grid": 1}},
    # preset values that are not numbers, or null where the default is not
    {"kind": "simulate", "initial_data": {"name": "gaussian-bump", "width": "0.5"}},
    {"kind": "picard", "initial_data": {"name": "random-spectrum", "amplitude": None}},
    {"kind": "picard", "initial_data": {"name": "random-spectrum", "seed": 1.5}},
    {"kind": "simulate", "initial_data": {"name": "random-spectrum", "kmax": True}},
    # a pinned kmax above n/2: every member used to end in a ValueError
    {"kind": "simulate", "initial_data": {"name": "random-spectrum", "kmax": 40}},
    # a window that holds no wave vector: every member used to draw zero data,
    # and a lifespan sweep to pass its flag with every t_life at t_max
    {"kind": "lifespan-sweep", "initial_data": {"name": "random-spectrum", "kmax": 0}},
    {"kind": "lifespan-sweep", "initial_data": {"name": "random-spectrum", "kmax": -3}},
    {"kind": "lifespan-sweep",
     "initial_data": {"name": "random-spectrum", "xi_lo": 5.0, "xi_hi": 4.0}},
    {"kind": "simulate", "initial_data": {"name": "random-spectrum", "xi_lo": 4.0,
                                          "xi_hi": 4.0}},
    {"kind": "picard", "initial_data": {"name": "random-spectrum", "xi_lo": 0.5,
                                        "xi_hi": 0.9}},  # between the radii 0 and 1
    {"kind": "simulate", "initial_data": {"name": "random-spectrum", "kmax": 32,
                                          "xi_lo": 31.0}},  # beyond the dealias cutoff
    # seeds outside Philox's key range [0, 2**64): the sweeps used to exit 1
    # with every member in an OverflowError, picard and verify-estimates 3
    {"kind": "simulate", "seeds": [-1]},
    {"kind": "simulate", "seeds": [2**64]},
    {"kind": "lifespan-sweep", "seeds": [0, -1]},
    {"kind": "strichartz", "seeds": [2**64]},
    {"kind": "picard", "initial_data": {"name": "random-spectrum", "seed": -1}},
    {"kind": "picard", "initial_data": {"name": "random-spectrum", "seed": 2**64}},
    {"kind": "verify-estimates", "seeds": [-1]},
    # a Gaussian of no width: NaN vorticity, which simulate used to stop at
    # t = 0 as a blowup and pass all_runs_completed
    {"kind": "simulate", "initial_data": {"name": "gaussian-bump", "width": 0}},
    {"kind": "simulate", "initial_data": {"name": "gaussian-bump", "width": -0.5}},
    # widths whose square underflows (NaN data again, every member an error)
    # or overflows (an OverflowError in every member)
    {"kind": "simulate", "initial_data": {"name": "gaussian-bump", "width": 1e-200}},
    {"kind": "simulate", "initial_data": {"name": "gaussian-bump", "width": 1e200}},
])
def test_cli_config_errors_exit_2(tmp_path, capsys, change):
    path = write_config(tmp_path / "cfg.json",
                        {"kind": "bands", "grid": {"n": 64},
                         "output_dir": str(tmp_path / "out"), **change})
    command = {kind: verb for verb, kind in SUBCOMMANDS.items()}[change.get("kind", "bands")]
    assert cli_main([command, "--config", path]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "out").exists()


def test_cli_truncated_config_exits_2(tmp_path, capsys):
    text = json.dumps({"kind": "bands", "output_dir": str(tmp_path / "out"), "grid": {"n": 64}})
    (tmp_path / "cfg.json").write_text(text[:-3])
    assert cli_main(["bands", "--config", str(tmp_path / "cfg.json")]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "out").exists()


def test_cli_unexpected_exception_exits_3(tmp_path, capsys, monkeypatch):
    # exit 1 means a quality flag failed; a defect must not look like one
    def broken(config):
        raise RuntimeError("broken driver")

    monkeypatch.setattr(cli, "run_experiment", broken)
    path = write_config(tmp_path / "cfg.json", {"kind": "bands", "grid": {"n": 64},
                                                "output_dir": str(tmp_path / "out")})
    assert cli_main(["bands", "--config", path]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: RuntimeError: broken driver")
    assert "Traceback" in err


VERIFY_CONFIG = {"kind": "verify-estimates", "grid": {"n": 32}, "lemma": "all", "trials": 2}


def test_verify_estimates_experiment(tmp_path, capsys, monkeypatch):
    grids = []
    verify_lemma = estimates.verify_lemma

    def spy(grid, *args, **kwargs):
        grids.append((grid.n, grid.dealias_fraction))
        return verify_lemma(grid, *args, **kwargs)

    monkeypatch.setattr(estimates, "verify_lemma", spy)
    outputs = []
    for name in ("a", "b"):
        path = write_config(tmp_path / f"{name}.json",
                            dict(VERIFY_CONFIG, output_dir=str(tmp_path / name)))
        code = cli_main(["verify-estimates", "--config", path])
        printed = capsys.readouterr().out
        assert code in (0, 1)
        assert f"ratios_resolution_stable_25pct: {'PASS' if code == 0 else 'FAIL'}" in printed
        outputs.append([(tmp_path / name / f).read_bytes()
                        for f in ("ratio_reports.csv", "ratio_reports.json")])
    assert outputs[0] == outputs[1]
    with open(tmp_path / "a" / "ratio_reports.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["which"] for r in rows] == list(estimates.LEMMAS)
    assert all(r["trials"] == "2" for r in rows)
    assert set(grids) == {(32, 2.0 / 3.0), (64, 2.0 / 3.0)}

    # grid.dealias_fraction reaches the coarse grid and its doubling
    grids.clear()
    run_experiment(ExperimentConfig(**dict(VERIFY_CONFIG, lemma="product",
                                           grid={"n": 32, "dealias_fraction": 0.5},
                                           output_dir=str(tmp_path / "c"))))
    assert grids == [(32, 0.5), (64, 0.5)]


def test_readme_names_every_config_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Config keys", 1)[1].split("\n## ", 1)[0]
    rows = {line.split("|")[1].strip() for line in section.splitlines()
            if line.startswith("| `")}
    missing = [f.name for f in dataclasses.fields(ExperimentConfig) if f"`{f.name}`" not in rows]
    assert not missing, f"README's config-key table lacks {missing}"
    lemma_row = next(line for line in section.splitlines() if line.startswith("| `lemma`"))
    assert all(f"`{name}`" in lemma_row for name in (*estimates.LEMMAS, "all"))


def test_readme_names_every_recorded_column():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Recorded columns", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("|")[1].strip() for line in section.splitlines()
            if line.startswith("| `")]
    assert rows == [f"`{name}`" for name in solver.COLUMNS]


def test_readme_names_every_manifest_run_key(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    schema = " ".join(readme.split("manifest's `runs` as", 1)[1].split()).split("`")[1]
    documented = {key.strip(" {}?") for key in schema.split(",")}
    for kind in ("simulate", "lifespan-sweep"):
        manifest = run_experiment(small_config(kind, tmp_path / kind, grid={"n": 32},
                                               kappa_list=[0.0], seeds=[1]))
        carried = {key for entry in manifest.runs for key in entry}
        assert carried <= documented, f"README's runs schema lacks {carried - documented}"
        assert {"steps", "rejected", "dt_min", "dt_max"} <= carried


def test_readme_subcommand_table_lists_every_kind():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("| subcommand |", 1)[1].split("\n\n", 1)[0]
    verbs = [line.split("|")[1].strip().strip("`") for line in table.splitlines()
             if line.startswith("| `")]
    assert sorted(verbs) == sorted(verb for verb, *_ in harness.KINDS.values())


def test_readme_simulate_at_n128(tmp_path):
    # the diagnostics' top-band norms used to trip the Hermitian guard at N >= 96
    path = write_config(tmp_path / "sim.json",
                        dict(README_SIM, output_dir=str(tmp_path / "out")))
    assert cli_main(["simulate", "--config", path, "--override", "grid.n=128"]) == 0
    with open(tmp_path / "out" / "manifest.json") as fh:
        runs = json.load(fh)["runs"]
    assert [r["status"] for r in runs] == ["ok"] * 3


def test_picard_csv_names_keep_extension(tmp_path):
    cfg = ExperimentConfig(kind="picard", grid={"n": 32}, kappa_list=[16.0, 0.5],
                           initial_data={"name": "random-spectrum", "seed": 7,
                                         "amplitude": 1.0, "xi_lo": 0.5, "xi_hi": 2.5},
                           t_final=0.05, n_max=2, n_samples=6,
                           output_dir=str(tmp_path / "out"))
    manifest = run_experiment(cfg)
    csvs = sorted(name for name in manifest.outputs if name.startswith("picard_"))
    assert csvs == ["picard_kappa0p5.csv", "picard_kappa16.csv"]
    for name in csvs:
        assert "np." not in (tmp_path / "out" / name).read_text()


def test_csv_writes_numpy_floats_as_plain_floats(tmp_path):
    path = tmp_path / "x.csv"
    write_csv(path, ("a", "b", "c"), [[np.float64(0.1), 0.25, np.float32(0.5)]])
    assert path.read_text().splitlines() == ["a,b,c", "0.1,0.25,0.5"]


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_picard_a_n_is_the_linear_solves_z(tmp_path, monkeypatch):
    # A_n(t) is the z_{s,q} the linear solve's diagnostics already recorded
    zs = []

    def recording(*args, **kwargs):
        traj = real(*args, **kwargs)
        zs.append(traj.column("z"))
        return traj

    real = picard.linear_solve
    monkeypatch.setattr(picard, "linear_solve", recording)
    cfg = ExperimentConfig(kind="picard", grid={"n": 32}, kappa_list=[16.0],
                           initial_data={"name": "random-spectrum", "seed": 7,
                                         "amplitude": 1.0, "xi_lo": 0.5, "xi_hi": 2.5},
                           t_final=0.05, n_max=2, n_samples=6,
                           output_dir=str(tmp_path / "out"))
    run_experiment(cfg)
    rows = read_rows(tmp_path / "out" / "picard_kappa16.csv")
    assert len(zs) == 3
    for n, z in enumerate(zs):
        assert [float(r["a_n"]) for r in rows if int(r["n"]) == n] == list(z)


def test_picard_outputs_are_strict_json_when_a_ratio_is_0_over_0(tmp_path):
    # zero data make every A-bar_n zero, so each Cauchy ratio is 0/0; the
    # manifest writes null for it, not the bare NaN that strict parsers refuse
    cfg = ExperimentConfig(kind="picard", grid={"n": 32}, kappa_list=[0.0, 16.0],
                           initial_data={"name": "taylor-green", "amplitude": 0.0},
                           t_final=0.05, n_max=3, n_samples=3,
                           output_dir=str(tmp_path / "out"))
    run_experiment(cfg)

    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    for path in (tmp_path / "out").glob("*.json"):
        parsed = json.loads(path.read_text(), parse_constant=refuse)
        if path.name == "manifest.json":
            assert [run["cauchy_ratios"] for run in parsed["runs"]] == [[None, None]] * 2


def test_lifespan_sweep_draws_data_from_each_seed(tmp_path):
    cfg = ExperimentConfig(kind="lifespan-sweep", grid={"n": 32}, dt=0.01,
                           initial_data={"name": "random-spectrum", "seed": 0,
                                         "amplitude": 4.0, "xi_lo": 0.5, "xi_hi": 4.0},
                           kappa_list=[0.0], seeds=[1, 2], threshold=100.0, t_max=0.1,
                           n_samples=3, output_dir=str(tmp_path / "out"))
    manifest = run_experiment(cfg)
    rows = read_rows(tmp_path / "out" / "lifespan_table.csv")
    assert [(r["kappa"], r["seed"]) for r in rows] == [("0.0", "1"), ("0.0", "2")]
    curves = [(tmp_path / "out" / r["b_curve_file"]).read_text() for r in rows]
    assert curves[0] != curves[1]
    assert manifest.flags["lifespan_nondecreasing_5pct"]


def test_a_seeded_preset_draws_each_member_from_its_seed(tmp_path, monkeypatch):
    # the member's seed goes to any preset with a seed parameter: a preset
    # that wraps random-spectrum gives each member random-spectrum's data
    spectrum = {"amplitude": 4.0, "xi_lo": 0.5, "xi_hi": 4.0}

    def seeded(grid, seed: "int" = 0):
        return fields.random_spectrum(grid, seed=seed, **spectrum)

    monkeypatch.setitem(fields.PRESETS, "seeded", seeded)
    csvs = {}
    for data in ({"name": "seeded"}, {"name": "random-spectrum", **spectrum}):
        out = tmp_path / data["name"]
        run_experiment(ExperimentConfig(kind="simulate", grid={"n": 32}, dt=0.01,
                                        initial_data=data, kappa_list=[0.0], seeds=[1, 2],
                                        t_final=0.02, n_samples=2, output_dir=str(out)))
        csvs[data["name"]] = {p.name: p.read_text() for p in out.glob("*_diagnostics.csv")}
    assert len(csvs["seeded"]) == 2 and len(set(csvs["seeded"].values())) == 2
    assert csvs["seeded"] == csvs["random-spectrum"]


def _typed_preset(grid, seed: int = 0, kmax: int | None = None, amplitude: float = 1.0):
    return fields.random_spectrum(grid, seed=seed, amplitude=amplitude, xi_lo=0.5, xi_hi=4.0)


def _bare_preset(grid, seed=0, amplitude=1.0):
    return fields.random_spectrum(grid, seed=seed, amplitude=amplitude, xi_lo=0.5, xi_hi=4.0)


@pytest.mark.parametrize("data, ok", [
    ({"name": "typed", "seed": 3, "kmax": 8, "amplitude": 2}, True),
    ({"name": "typed", "kmax": None}, True),
    ({"name": "typed", "kmax": 8.0}, False),
    ({"name": "typed", "seed": 1.0}, False),
    ({"name": "bare", "seed": 3, "amplitude": 0.5}, True),
    ({"name": "bare", "amplitude": 2}, True),
    ({"name": "bare", "seed": 1.5}, False),
    ({"name": "bare", "seed": 1.0}, False),
])
def test_presets_with_real_or_no_annotations_validate(tmp_path, capsys, monkeypatch, data, ok):
    # string annotations (under postponed evaluation) were the only kind read:
    # a real annotation or none raised AttributeError in validate
    monkeypatch.setitem(fields.PRESETS, "typed", _typed_preset)
    monkeypatch.setitem(fields.PRESETS, "bare", _bare_preset)
    config = ExperimentConfig(kind="simulate", grid={"n": 32}, initial_data=data)
    if ok:
        config.validate()
        return
    with pytest.raises(ConfigError):
        config.validate()
    path = write_config(tmp_path / "cfg.json", {"kind": "simulate", "grid": {"n": 32},
                                                "initial_data": data,
                                                "output_dir": str(tmp_path / "out")})
    assert cli_main(["simulate", "--config", path]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_lifespan_member_that_blows_up_has_no_lifespan(tmp_path, capsys):
    # rk4 at kappa=1e4 with a coarse step goes non-finite within a few steps:
    # the member is a blow-up, not one that lived to t_max
    path = write_config(tmp_path / "cfg.json", {
        "kind": "lifespan-sweep", "grid": {"n": 32}, "scheme": "rk4", "dt": 0.05,
        "initial_data": {"name": "random-spectrum", "amplitude": 1.0,
                         "xi_lo": 0.5, "xi_hi": 4.0},
        "kappa_list": [0.0, 1e4], "seeds": [9], "n_samples": 3,
        "output_dir": str(tmp_path / "out")})
    with np.errstate(invalid="ignore", over="ignore"):
        assert cli_main(["lifespan-sweep", "--config", path]) == 1
    assert "lifespan_nondecreasing_5pct: FAIL" in capsys.readouterr().out
    with open(tmp_path / "out" / "manifest.json") as fh:
        manifest = json.load(fh)
    assert manifest["flags"]["all_runs_completed"]
    ok, blown = manifest["runs"]
    assert (ok["status"], ok["stop_reason"], ok["t_stop"]) == ("ok", "end", 2.0)
    assert blown["status"] == "blowup" and 0.0 < blown["t_stop"] < 2.0
    assert blown["stop_reason"] in ("guard", "non_finite")
    rows = read_rows(tmp_path / "out" / "lifespan_table.csv")
    assert [(r["kappa"], r["t_life"]) for r in rows] == [("0.0", "2.0")]
    assert (tmp_path / "out" / f"{blown['tag']}_bcurve.csv").exists()


def test_member_error_mid_run_keeps_its_rows_and_reason(tmp_path, monkeypatch):
    # a Strat2dError raised by a step ends the member as "error": the rows
    # recorded before it are written, and the manifest says why and when
    real = solver.step

    def failing(state, *args, **kwargs):
        if state.t > 0.075:
            raise HermitianSymmetryError("injected")
        return real(state, *args, **kwargs)

    monkeypatch.setattr(solver, "step", failing)
    manifest = run_experiment(small_config("simulate", tmp_path / "out", n_samples=5,
                                           kappa_list=[16.0]))
    (entry,) = manifest.runs
    assert (entry["status"], entry["stop_reason"]) == ("error", "error")
    assert entry["error"] == "HermitianSymmetryError: injected"
    rows = read_rows(tmp_path / "out" / f"{entry['tag']}_diagnostics.csv")
    assert [float(r["t"]) for r in rows] == pytest.approx([0.0, 0.025, 0.05, 0.075])
    assert entry["t_stop"] == float(rows[-1]["t"]) and entry["steps"] == 9
    assert manifest.flags["all_runs_completed"] is False


def test_strichartz_fit_skips_kappa_at_most_zero(tmp_path):
    # the measure reads |kappa|, so the samples are keyed by it and the
    # log-log fit takes kappa > 0 only: kappa = 0 leaves 5, no slope
    manifest = run_experiment(small_config("strichartz", tmp_path / "zero", seeds=[0],
                                           grid={"n": 32, "box_scale": 2.0},
                                           kappa_list=[0.0, 1.0, 2.0, 4.0, 8.0, 16.0]))
    with open(tmp_path / "zero" / "strichartz_fit.json") as fh:
        fit = json.load(fh)
    assert fit["kappas"] == [0.0, 1.0, 2.0, 4.0, 8.0, 16.0] and fit["slope"] is None
    assert manifest.flags == {"all_runs_completed": True}
    # kappa = -1 is measured as kappa = 1, and the six kappa > 0 are fitted
    manifest = run_experiment(small_config("strichartz", tmp_path / "neg", seeds=[0],
                                           grid={"n": 32, "box_scale": 2.0},
                                           kappa_list=[-1.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0]))
    with open(tmp_path / "neg" / "strichartz_fit.json") as fh:
        fit = json.load(fh)
    rows = read_rows(tmp_path / "neg" / "strichartz_samples.csv")
    assert rows[0]["value"] == rows[1]["value"]
    assert fit["kappas"] == [1.0, 2.0, 4.0, 8.0, 16.0, 32.0] and fit["slope"] is not None
    assert set(manifest.flags) == {"all_runs_completed", "slope_within_0p08"}


def test_config_accepts_preset_keywords(tmp_path):
    # an int where a float is expected, infinity, and null for kmax
    data = {"name": "random-spectrum", "seed": 3, "alpha": 2, "xi_hi": float("inf"),
            "kmax": None}
    small_config("simulate", tmp_path, initial_data=data).validate()
    # zero data asked for explicitly
    small_config("simulate", tmp_path, initial_data={"name": "random-spectrum",
                                                     "amplitude": 0}).validate()


@pytest.mark.parametrize("content, overrides", [
    ("config", ["dt.x=1"]),  # an override that descends through a number
    ("config", ["kappa_list.0=5"]),  # through a list
    ("config", ["grid.n.x=5"]),
    (b"5", []),  # a file that is not one object
    (b"null", []),
    (b"[]", []),
    (b"\xff{", []),  # not UTF-8
    (None, []),  # --config names a directory
], ids=["number", "list", "nested-number", "top-5", "top-null", "top-list", "bytes", "dir"])
def test_cli_config_mistakes_exit_2_without_a_traceback(tmp_path, capsys, content, overrides):
    # each used to exit 3 with an unclassified TypeError or OSError
    path = tmp_path / "cfg.json"
    if content == "config":
        write_config(path, dict(SIM_CONFIG, output_dir=str(tmp_path / "out")))
    elif content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    argv = ["simulate", "--config", str(path)]
    for item in overrides:
        argv += ["--override", item]
    assert cli_main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not (tmp_path / "out").exists()


def test_lifespan_flag_judged_within_each_seed():
    # seed 2's data lives twice as long at every kappa: nondecreasing per
    # seed, though not once the seeds are pooled by kappa
    lives = [(kappa, seed, float(seed)) for kappa in (0.0, 16.0) for seed in (1, 2)]
    assert _nondecreasing_per_seed(lives)
    assert not _nondecreasing_per_seed(lives + [(64.0, 1, 0.5)])


def test_strichartz_member_error_is_isolated(tmp_path, monkeypatch):
    # a member that raises is recorded; its siblings' rows are still written
    def failing(grid, seed):
        if seed == 1:
            raise ValueError("no packet for seed 1")
        return real(grid, seed)

    real = harness.coherent_band_field
    monkeypatch.setattr(harness, "coherent_band_field", failing)
    manifest = run_experiment(small_config("strichartz", tmp_path / "out"))
    by_seed = {(r["kappa"], r["seed"]): r for r in manifest.runs}
    assert len(by_seed) == 4
    for (kappa, seed), entry in by_seed.items():
        assert entry["status"] == ("error" if seed == 1 else "ok")
    assert by_seed[(16.0, 1)]["error"] == "ValueError: no packet for seed 1"
    rows = read_rows(tmp_path / "out" / "strichartz_samples.csv")
    assert [(r["kappa"], r["seed"]) for r in rows] == [("16.0", "0"), ("32.0", "0")]
    assert manifest.flags["all_runs_completed"] is False
    path = write_config(tmp_path / "cfg.json",
                        dict(SMALL["strichartz"], output_dir=str(tmp_path / "cli")))
    assert cli_main(["strichartz-sweep", "--config", path]) == 1


def test_picard_member_error_is_isolated(tmp_path, monkeypatch):
    # picard maps one data set over kappa, one sweep member per kappa: a kappa
    # that raises is recorded, and the other kappa's iterates are still written
    real = harness.picard_run

    def failing(omega0, rho0, kappa, *args, **kwargs):
        if kappa == 0.5:
            raise RuntimeError("iteration failed")
        return real(omega0, rho0, kappa, *args, **kwargs)

    monkeypatch.setattr(harness, "picard_run", failing)
    manifest = run_experiment(small_config("picard", tmp_path / "out"))
    by_kappa = {r["kappa"]: r for r in manifest.runs}
    assert by_kappa[0.5] == {"tag": "run001_kappa0p5_seed7_ifrk4", "kappa": 0.5, "seed": 7,
                             "scheme": "ifrk4", "status": "error",
                             "error": "RuntimeError: iteration failed"}
    assert by_kappa[16.0]["status"] == "ok" and "cauchy_ratios" in by_kappa[16.0]
    assert [name for name in manifest.outputs if name.endswith(".csv")] == ["picard_kappa16.csv"]
    assert (tmp_path / "out" / "picard_kappa16.csv").exists()
    assert manifest.flags["all_runs_completed"] is False
    path = write_config(tmp_path / "cfg.json",
                        dict(SMALL["picard"], output_dir=str(tmp_path / "cli")))
    assert cli_main(["picard", "--config", path]) == 1


def test_picard_with_no_completed_kappa_fails_uniformity(tmp_path, monkeypatch):
    # a spread over no kappa is no evidence of uniformity
    def failing(*args, **kwargs):
        raise RuntimeError("iteration failed")

    monkeypatch.setattr(harness, "picard_run", failing)
    manifest = run_experiment(small_config("picard", tmp_path / "out"))
    assert [r["status"] for r in manifest.runs] == ["error", "error"]
    assert manifest.flags == {"all_runs_completed": False, "kappa_uniform_spread": False}
    with open(tmp_path / "out" / "uniformity_report.json") as fh:
        assert json.load(fh)["pass"] is False


def test_picard_with_one_completed_kappa_fails_uniformity(tmp_path):
    # rk4 with a coarse step leaves the guard at kappa = 1e4; the spread over
    # the one kappa left is 1 by construction, no evidence of uniformity
    data = {"name": "random-spectrum", "seed": 9, "xi_lo": 0.5, "xi_hi": 4.0}
    manifest = run_experiment(small_config("picard", tmp_path / "out", scheme="rk4", dt=0.05,
                                           kappa_list=[0.0, 1e4], initial_data=data))
    assert [r["status"] for r in manifest.runs] == ["ok", "error"]
    assert manifest.flags == {"all_runs_completed": False, "kappa_uniform_spread": False}
    with open(tmp_path / "out" / "uniformity_report.json") as fh:
        report = json.load(fh)
    assert report["spread"] == 1.0 and report["pass"] is False


@pytest.mark.parametrize("kind, members", [
    ("simulate", 2), ("lifespan-sweep", 4), ("strichartz", 2), ("picard", 2),
])
def test_members_and_writes_go_through_module_bindings(tmp_path, monkeypatch, kind, members):
    # external tooling times sweeps and writes by patching these module globals
    mapped, written = [], []

    def recording_map(fn, items):
        def member(item):
            mapped.append(item)
            return fn(item)

        return real_map(member, items)

    def recording(writer, path_arg):
        def wrapper(*args):
            written.append(os.path.basename(args[path_arg]))
            return writer(*args)

        return wrapper

    real_map = harness._parallel_map
    monkeypatch.setenv("STRAT2D_THREADS", "2")
    monkeypatch.setattr(harness, "_parallel_map", recording_map)
    for name, path_arg in (("write_csv", 0), ("write_json", 0), ("save_field", 1)):
        monkeypatch.setattr(harness, name, recording(getattr(harness, name), path_arg))
    outdir = tmp_path / "out"
    manifest = run_experiment(small_config(kind, outdir, snapshots=True))
    assert len(mapped) == members
    assert sorted(written) == sorted(manifest.outputs + ["manifest.json"])
    assert sorted(written) == sorted(p.name for p in outdir.iterdir())
    if kind == "simulate":
        assert sum(name.endswith(".npz") for name in written) == members


@pytest.mark.parametrize("kappas", [[16.0, 16.0000001], [16, 16]])
def test_picard_kappas_that_share_a_file_tag_exit_2(tmp_path, capsys, kappas):
    # picard_kappa<tag>.csv keeps 6 significant digits of kappa: the second
    # member's file would overwrite the first's
    path = write_config(tmp_path / "cfg.json", dict(SMALL["picard"], kappa_list=kappas,
                                                    output_dir=str(tmp_path / "out")))
    assert cli_main(["picard", "--config", path]) == 2
    assert "repeats a file tag" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_picard_member_whose_iterate_blows_up_is_a_package_error(tmp_path):
    # rk4 at kappa = 1e4 with a coarse step: the first iterate's linear solve
    # leaves the guard, and the member's entry names the package's error
    data = {"name": "random-spectrum", "seed": 9, "amplitude": 1.0, "xi_lo": 0.5,
            "xi_hi": 4.0}
    with np.errstate(invalid="ignore", over="ignore"):
        manifest = run_experiment(small_config("picard", tmp_path / "out", scheme="rk4",
                                               dt=0.05, kappa_list=[0.0, 1e4],
                                               initial_data=data, t_final=1.0, n_samples=3))
    ok, failed = manifest.runs
    assert ok["status"] == "ok"
    assert failed["status"] == "error"
    assert failed["error"].startswith("Strat2dError: linear solve at iteration 0 ended in "
                                      "blowup (guard)")
    assert manifest.flags["all_runs_completed"] is False


def test_lifespan_sweep_is_simulate_stopped_by_the_rule(tmp_path):
    # one trajectory per member: with t_final = t_max, each B curve is the
    # leading rows of the simulate member's diagnostics, byte for byte
    cfg = small_config("lifespan-sweep", tmp_path / "life", kappa_list=[0.0, 64.0], seeds=[1],
                       t_max=1.0, threshold=1.0, n_samples=21)
    life = run_experiment(cfg)
    sim = run_experiment(dataclasses.replace(cfg, kind="simulate", t_final=cfg.t_max,
                                             output_dir=str(tmp_path / "sim")))
    for life_run, sim_run in zip(life.runs, sim.runs, strict=True):
        assert life_run["tag"] == sim_run["tag"]
        curve = (tmp_path / "life" / f"{life_run['tag']}_bcurve.csv").read_text()
        full = (tmp_path / "sim" / f"{sim_run['tag']}_diagnostics.csv").read_text()
        assert full.startswith(curve)
        assert curve.count("\n") < full.count("\n")  # the rule stopped the member
        assert life_run["stop_reason"] == "threshold"


def test_no_sweep_stores_snapshots(tmp_path, monkeypatch):
    # `snapshots` asks simulate for .npz files of the final omega, which a
    # trajectory keeps as its last state: no sweep holds its states in memory
    trajectories = []

    def recording(*args, **kwargs):
        trajectories.append(real(*args, **kwargs))
        return trajectories[-1]

    real = harness.run
    monkeypatch.setattr(harness, "run", recording)
    run_experiment(small_config("lifespan-sweep", tmp_path / "life", snapshots=True))
    assert len(trajectories) == 4 and all(not t.snapshots for t in trajectories)
    trajectories.clear()
    config = small_config("simulate", tmp_path / "sim", snapshots=True)
    run_experiment(config)
    assert len(trajectories) == 2 and all(not t.snapshots for t in trajectories)
    grid = config.grid_spec()
    for spec in sweep_schedule(config):  # the omega of a run that stores them, bit for bit
        stored = real(*harness._member_data(config, grid, spec), spec.kappa, config.t_final,
                      config.stepper(), n_samples=config.n_samples, store_snapshots=True)
        written = load_field(tmp_path / "sim" / f"{spec.tag}_final_omega.npz")
        assert np.array_equal(written.coeffs, stored.snapshots[-1].omega.coeffs)


def test_members_run_side_by_side_from_the_named_size(monkeypatch):
    # each member waits at the barrier for the other: both get past it only
    # when they run at the same time (a lone member breaks it: an error entry)
    monkeypatch.setenv("STRAT2D_THREADS", "2")
    barrier = threading.Barrier(2, timeout=20)
    specs = sweep_schedule(ExperimentConfig(kind="simulate", kappa_list=[0.0, 1.0]))
    swept, width = harness._sweep(specs, lambda spec: barrier.wait(),
                                  GridSpec(harness.SIDE_BY_SIDE_N))
    assert width == 2
    assert [entry["status"] for _, _, entry in swept] == ["ok", "ok"]


@pytest.mark.parametrize("member", [None, lambda spec: spec.seed])
def test_members_run_one_at_a_time_below_the_named_size(monkeypatch, member):
    # every member on a pool thread, never two at once, though two workers
    # are allowed
    monkeypatch.setenv("STRAT2D_THREADS", "2")
    lock, running, most, threads = threading.Lock(), [0], [0], []

    def one(spec_or_group):
        with lock:
            running[0] += 1
            most[0] = max(most[0], running[0])
            threads.append(threading.current_thread())
        time.sleep(0.02)
        with lock:
            running[0] -= 1
        return spec_or_group if member is None else [None] * len(spec_or_group)

    specs = sweep_schedule(ExperimentConfig(kind="simulate", kappa_list=[0.0, 1.0, 2.0],
                                            seeds=[0, 1]))
    swept, width = harness._sweep(specs, one, GridSpec(harness.SIDE_BY_SIDE_N - 2), member)
    assert width == 1
    assert [entry["status"] for _, _, entry in swept] == ["ok"] * len(specs)
    assert len(threads) == (6 if member is None else 2)
    assert most[0] == 1
    assert threading.main_thread() not in threads


@pytest.mark.parametrize("kind, members", [
    ("simulate", 2), ("lifespan-sweep", 4), ("strichartz", 2), ("picard", 2),
])
def test_side_by_side_members_rerun_byte_identical(tmp_path, monkeypatch, kind, members):
    # the small configs are below SIDE_BY_SIDE_N, where members run one at a
    # time on any worker count; with the size lowered they run side by side
    monkeypatch.setattr(harness, "SIDE_BY_SIDE_N", 16)
    outputs, runs, widths = {}, {}, {}
    for label, threads in (("one", "1"), ("four", "4")):
        monkeypatch.setenv("STRAT2D_THREADS", threads)
        manifest = run_experiment(small_config(kind, tmp_path / label))
        assert manifest.passed
        outputs[label] = {name: (tmp_path / label / name).read_bytes()
                          for name in manifest.outputs}
        runs[label] = manifest.runs
        on_disk = json.loads((tmp_path / label / "manifest.json").read_text())
        widths[label] = on_disk["members_at_once"]
    assert outputs["one"] == outputs["four"]
    assert runs["one"] == runs["four"]
    assert widths == {"one": 1, "four": min(4, members)}


def test_manifest_records_members_at_once(tmp_path, monkeypatch):
    # a sweep below the named size runs one member at a time on any worker
    # count; a kind that is not a sweep has no members
    monkeypatch.setenv("STRAT2D_THREADS", "4")
    assert run_experiment(small_config("lifespan-sweep", tmp_path / "life")).members_at_once == 1
    bands = ExperimentConfig(kind="bands", grid={"n": 32}, output_dir=str(tmp_path / "bands"))
    assert run_experiment(bands).members_at_once is None
    assert json.loads((tmp_path / "bands" / "manifest.json").read_text())["members_at_once"] is None


def test_readme_names_every_manifest_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    schema = " ".join(readme.split("`manifest.json` holds", 1)[1].split()).split("`")[1]
    documented = {key.strip(" {}") for key in schema.split(",")}
    assert documented == {f.name for f in dataclasses.fields(harness.RunManifest)}


def test_member_with_non_finite_data_is_an_error(tmp_path, monkeypatch):
    # a Gaussian of no width is NaN vorticity; validate refuses the config,
    # and `run` refuses such data as a package error, not as a blowup at t = 0
    monkeypatch.setattr(harness, "make_initial_data",
                        lambda grid, data: fields.gaussian_bump(grid, width=0.0))
    with np.errstate(all="ignore"):
        manifest = run_experiment(small_config("simulate", tmp_path / "out"))
    assert [r["status"] for r in manifest.runs] == ["error", "error"]
    assert all(r["error"].startswith("Strat2dError: ") for r in manifest.runs)
    assert manifest.flags["all_runs_completed"] is False

"""Tests of the benchmark itself, on scaled-down copies of its workloads.

    python3 -m pytest -q perfbench/tests
"""

import dataclasses
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def small(name: str) -> workloads.Workload:
    """The named workload at a size that runs in a second or two."""
    real = workloads.WORKLOADS[name]
    shrink = {
        "lifespan-n128": {"grid": {"n": 32}, "kappa_list": [0.0, 16.0], "t_max": 0.1,
                          "n_samples": 6},
        "strichartz-n128": {"grid": {"n": 64, "box_scale": 8.0}, "kappa_list": [16.0, 32.0]},
        "picard-n64": {"grid": {"n": 32}, "n_max": 2, "n_samples": 6, "t_final": 0.05},
    }[name]
    return dataclasses.replace(real, make_config=lambda seed: {**real.make_config(seed), **shrink},
                               check=lambda outdir, manifest, seed: [], min_experiments=1)


def deadline():
    return time.monotonic() + 120.0


@pytest.fixture(scope="module")
def traced_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("traced")


@pytest.fixture(scope="module")
def traced_runs(traced_dir):
    return {name: run.run_once(small(name), 3, traced_dir / name, deadline(), trace=True)
            for name in workloads.WORKLOADS}


def test_traced_and_untraced_runs_write_identical_outputs(tmp_path, traced_dir, traced_runs):
    for name in workloads.WORKLOADS:
        plain = run.run_once(small(name), 3, tmp_path / name, deadline())
        for sample in (plain, traced_runs[name]):
            assert sample.errors == sample.wrong == []
        plain_out = tmp_path / name / "out"
        traced_out = traced_dir / name / "out"
        # every output but the manifest, which records the wall clock; picard's
        # CSV names lose their extension (a known harness defect), so no glob
        outputs = sorted(p.name for p in plain_out.iterdir() if p.name != "manifest.json")
        assert len(outputs) >= 2, name
        assert outputs == sorted(p.name for p in traced_out.iterdir() if p.name != "manifest.json")
        for output in outputs:
            assert (plain_out / output).read_bytes() == (traced_out / output).read_bytes()


EXERCISED = {
    "lifespan-n128": ["fft.calls", "fft.ms", "fft.mb_computed", "grid.advect.calls",
                      "grid.advect.ms", "grid.biot_savart.calls", "grid.biot_savart.ms",
                      "solver.step.calls", "solver.step.ms", "solver.cfl_dt.ms", "solver.self_s",
                      "solver.diagnostics.calls", "bands.besov_norm.calls",
                      "fields.make_initial_data.s", "bands.DyadicBank.s", "harness.members",
                      "harness.member_busy_s", "harness.pool_busy_frac", "harness.write_s",
                      "linalg.norm.calls", "linalg.norm.ms"],
    "strichartz-n128": ["fft.calls", "grid.inverse_transform.calls", "grid.inverse_transform.ms",
                        "grid.hermitian_defect.calls", "grid.hermitian_defect.ms",
                        "grid.require_mean_zero.calls", "grid.require_mean_zero.ms",
                        "dispersive.g_operator.calls", "dispersive.node_ms", "harness.members",
                        "harness.member_wait_s"],
    "picard-n64": ["picard.frozen_fit.s", "picard.frozen_eval.calls", "picard.frozen_eval.ms",
                   "solver.diagnostics.calls", "solver.diagnostics.ms", "bands.besov_norm.calls",
                   "bands.besov_norm.ms", "grid.advect.calls", "solver.step.calls"],
}


def test_every_per_layer_metric_is_reported_and_spanned(traced_runs):
    listed = {m["name"] for m in SPEC["per_layer"]} - {"bench.trace_overhead_s"}
    for name, sample in traced_runs.items():
        assert set(sample.layers) == listed, name
        for metric in EXERCISED[name]:
            assert sample.layers[metric] > 0, (name, metric)
        assert all(sample.layers[f"{layer}.errors"] == 0 for layer in
                   ("fft", "grid", "bands", "fields", "solver", "picard", "dispersive", "harness"))
    exercised = set().union(*EXERCISED.values())
    spanned = {m for m in listed if not m.endswith(".errors")}
    assert spanned <= exercised


def test_call_counts_repeat_exactly(tmp_path, traced_runs):
    for name in ("lifespan-n128", "strichartz-n128"):
        again = run.run_once(small(name), 3, tmp_path / name, deadline(), trace=True)
        counts = [k for k in again.layers if run.layer_unit(k) == "count"]
        assert {k: again.layers[k] for k in counts} == \
            {k: traced_runs[name].layers[k] for k in counts}


def test_benchmark_json_lists_what_the_benchmark_prints():
    assert [m["name"] for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    for m in SPEC["end_to_end"]:
        assert m["unit"] == run.END_TO_END[m["name"]]
    for m in SPEC["per_layer"]:
        assert m["unit"] == run.layer_unit(m["name"]), m
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def _raising_picard(seed):
    return {**small("picard-n64").make_config(seed), "n_max": 0}


def _erroring_lifespan(seed):
    return {**small("lifespan-n128").make_config(seed), "threshold": -1.0}


@pytest.mark.parametrize("broken, wrong", [
    (dataclasses.replace(small("picard-n64"), make_config=_raising_picard), False),
    (dataclasses.replace(small("lifespan-n128"), make_config=_erroring_lifespan,
                         check=workloads.lifespan_check), False),
    (dataclasses.replace(small("picard-n64"), check=lambda out, manifest, seed: ["bad"]), True),
], ids=["raises", "member-error", "check-fails"])
def test_a_failing_experiment_is_counted_not_fatal(tmp_path, broken, wrong):
    report = run.measure(broken, 5, 0.0, False, tmp_path / "run")
    assert (report["attempted"], report["failed"], report["fail_frac"]) == (1, 1, 1.0)
    # a wrong result makes the run incorrect; an experiment that gave none does not
    assert (bool(report["errors"]), bool(report["wrong"])) == (not wrong, wrong)
    assert report["metrics"]["setup_s"]["value"] > 0


def test_an_exception_is_counted_in_the_layer_that_raised_it(tmp_path):
    broken = dataclasses.replace(small("picard-n64"), make_config=_raising_picard)
    sample = run.run_once(broken, 5, tmp_path / "exp", deadline(), trace=True)
    assert sample.errors
    assert sample.layers["picard.errors"] >= 1 and sample.layers["harness.errors"] >= 1


def test_seed_reaches_every_data_source():
    for seed in (0, 11, 12345):
        for name in ("lifespan-n128", "picard-n64"):
            cfg = workloads.WORKLOADS[name].make_config(seed)
            assert cfg["initial_data"]["seed"] == seed and cfg["seeds"] == [seed]
        cfg = workloads.strichartz_config(seed)
        assert cfg["seeds"] == list(range(seed, seed + workloads.STRICHARTZ_PACKETS))
    manifest = {"config": {"initial_data": {"seed": 1}, "seeds": [0]}, "runs": []}
    assert workloads._seed_problems(manifest, 1)


def test_each_experiment_of_a_run_gets_its_own_checked_data(tmp_path):
    seen = []

    def check(outdir, manifest, seed):
        seen.append(seed)
        return workloads._seed_problems(manifest, seed)

    twice = dataclasses.replace(small("lifespan-n128"), check=check, min_experiments=2)
    report = run.measure(twice, 4, 0.0, False, tmp_path / "run")
    assert report["data_seeds"] == seen == [4, 4 + run.SEED_STRIDE]
    assert (report["attempted"], report["failed"]) == (2, 0)


def test_tracer_reaches_every_binding_and_pool_threads(monkeypatch):
    import numpy as np
    import scipy.fft
    import strat2d.dispersive
    import strat2d.estimates
    import strat2d.grid
    import strat2d.harness
    import strat2d.solver

    original = strat2d.grid.advect
    originals = (np.fft.rfft2, scipy.fft.irfft2, strat2d.grid.SpectralField.hermitian_defect)
    tracer = Tracer()
    tracer.install()
    try:
        for mod in (strat2d.grid, strat2d.solver, strat2d.dispersive, strat2d.estimates):
            assert mod.advect is not original and mod.advect.__wrapped__ is original
        wrapped = (np.fft.rfft2, scipy.fft.irfft2, strat2d.grid.SpectralField.hermitian_defect)
        assert all(w.__wrapped__ is o for w, o in zip(wrapped, originals))
        monkeypatch.setenv("STRAT2D_THREADS", "2")
        grid = strat2d.grid.GridSpec(16)
        fields = [strat2d.grid.SpectralField(grid, np.zeros((16, 16), complex))] * 3
        strat2d.harness._parallel_map(strat2d.grid.inverse_transform, fields)
    finally:
        tracer.uninstall()
    assert strat2d.solver.advect is original and strat2d.dispersive.advect is original
    assert (np.fft.rfft2, scipy.fft.irfft2,
            strat2d.grid.SpectralField.hermitian_defect) == originals
    by_id = {s[0]: s for s in tracer.spans}
    pool = [s for s in tracer.spans if s[2] == "harness._parallel_map"]
    members = [s for s in tracer.spans if s[2] == "harness.member"]
    assert len(pool) == 1 and len(members) == 3
    assert all(m[1] == pool[0][0] for m in members)
    ffts = [s for s in tracer.spans if s[2] == "fft.numpy.ifft2"]
    assert len(ffts) == 3
    for span in ffts:
        chain = []
        while span[1]:
            span = by_id[span[1]]
            chain.append(span[2])
        assert chain == ["grid.inverse_transform", "harness.member", "harness._parallel_map"]
    assert len(tracer.members) == 3 and tracer.pools[0][0] == 2


def test_without_sources_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "picard-n64",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _picard_outputs(outdir, a_bar):
    """Synthetic picard outputs for one kappa with the given sup A-bar_n, n = 1.."""
    (outdir / "uniformity_report.json").write_text(json.dumps({"spread": 1.0}))
    rows = ["n,t,a_n,a_bar_n", "0,0.0,np.float64(4.0),"]
    rows += [f"{n},0.0,4.0,{value!r}" for n, value in enumerate(a_bar, start=1)]
    (outdir / "picard_kappa0pcsv").write_text("\n".join(rows) + "\n")
    ratios = [b / a for a, b in zip(a_bar, a_bar[1:])]
    return {"config": {"initial_data": {"seed": 7}, "seeds": [7]},
            "runs": [{"kappa": 0.0, "status": "ok", "cauchy_ratios": ratios}],
            "outputs": ["picard_kappa0pcsv", "uniformity_report.json"]}


def test_picard_check_judges_cauchy_ratios_only_above_roundoff(tmp_path):
    # the last ratio (5.0) compares two differences at round-off: not judged
    converged = _picard_outputs(tmp_path, [1e-3, 1e-5, 1e-7, 1e-9, 1e-18, 5e-18])
    assert workloads.picard_check(tmp_path, converged, 7) == []
    # a resolved ratio above 0.6 for n >= 3 fails
    stalled = _picard_outputs(tmp_path, [1e-3, 1e-5, 8e-6, 1e-9])
    assert workloads.picard_check(tmp_path, stalled, 7)
    # a ratio for n = 2 is not part of the criterion
    slow_start = _picard_outputs(tmp_path, [1e-3, 9e-4, 1e-5, 1e-7])
    assert workloads.picard_check(tmp_path, slow_start, 7) == []

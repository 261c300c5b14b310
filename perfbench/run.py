"""strat2d benchmark: lifespan, Strichartz and Picard sweeps timed end to end.

    python3 perfbench/run.py --workload {lifespan-n128|strichartz-n128|picard-n64|all}
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a strat2d checkout.  Each experiment runs in a fresh
process (``child.py``) through ``harness.run_experiment``, the function the
CLI calls, with STRAT2D_THREADS pinned to the number of usable cores.  After
a short warm-up of every core the loop is closed: one experiment at a time,
the next one starting when the previous one has finished, until
``--seconds`` have passed (at least one experiment; at least
``min_experiments`` untraced, each on its own data, for a workload whose
amount of work depends on the data drawn).

With ``--trace 0`` (untraced) a run reports, per workload:

  exp_s        wall seconds of one run_experiment call (median)
  cpu_s        user+sys CPU seconds of the child during that call (median)
  setup_s      child start -> package imported and config loaded (median
               over the experiments and SETUP_STARTS extra starts)
  peak_rss_mb  peak RSS of the child, read per child from os.wait4 (median)
  fail_frac    failed experiments / attempted ones

With ``--trace 1`` each untraced experiment is paired with a traced one
(``tracing.py``); the traced run gives the per-layer metrics and the
tracing overhead.  Every result is checked against the paper's tolerances
(``workloads.py``).  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
provenance and every sample go to ``.perfbench_out/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
CHILD = HERE / "child.py"
SETUP_STARTS = 3
RUN_LIMIT_S = 170.0  # a run never outlives this, whatever --seconds asks
SEED_STRIDE = 1000  # experiment i of a run uses data seed `seed + SEED_STRIDE * i`
WARMUP_S = 2.0

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS, Workload  # noqa: E402

END_TO_END = {"exp_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    if name.endswith((".calls", ".errors")) or name == "harness.members":
        return "count"
    if name.endswith(("_ms", ".ms")):
        return "ms"
    if name.endswith("frac"):
        return "fraction"
    if name.endswith("mb_computed"):
        return "MB"
    return "s"


def nproc() -> int:
    return len(os.sched_getaffinity(0))


# ---------------------------------------------------------------------------
# one experiment


@dataclass
class Sample:
    traced: bool
    setup_s: float | None = None
    exp_s: float | None = None
    cpu_s: float | None = None
    peak_rss_mb: float | None = None
    errors: list = field(default_factory=list)  # no result: raised, died, member error
    wrong: list = field(default_factory=list)  # a result that fails its check
    layers: dict | None = None
    step_shares: dict | None = None


def spawn(request: dict, workdir: Path, deadline: float) -> tuple[dict | None, float, list]:
    """Run child.py on `request`; returns (result, peak RSS in MB, errors)."""
    request = dict(request, result=str(workdir / "result.json"))
    req_path = workdir / "request.json"
    req_path.write_text(json.dumps(request))
    env = dict(os.environ, STRAT2D_THREADS=str(nproc()))
    t_spawn = time.monotonic()
    with open(workdir / "child.log", "wb") as log:
        proc = subprocess.Popen([sys.executable, str(CHILD), str(req_path)],
                                stdout=log, stderr=subprocess.STDOUT, env=env, cwd=workdir)
    errors = []
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            pid, status, usage = os.wait4(proc.pid, 0)
            errors.append("child killed at the run's time limit")
            break
        time.sleep(0.01)
    proc.returncode = os.waitstatus_to_exitcode(status)
    rss_mb = usage.ru_maxrss / 1024.0  # kilobytes on Linux
    result = None
    try:
        result = json.loads((workdir / "result.json").read_text())
        result["setup_s"] = result["t_ready"] - t_spawn if "t_ready" in result else None
    except (OSError, json.JSONDecodeError):
        log_tail = (workdir / "child.log").read_text(errors="replace")[-400:]
        errors.append(f"child exited with code {proc.returncode} and no result: {log_tail}")
    if result is not None and "error" in result:
        errors.append("run_experiment raised: " + result["error"].strip().splitlines()[-1])
    return result, rss_mb, errors


def run_once(workload: Workload, seed: int, workdir: Path, deadline: float,
             trace: bool = False, setup_only: bool = False) -> Sample:
    """One fresh-process experiment in `workdir`; its outputs are checked and left there."""
    workdir.mkdir(parents=True)
    outdir = workdir / "out"
    config = dict(workload.make_config(seed), output_dir=str(outdir))
    config_path = workdir / "config.json"
    config_path.write_text(json.dumps(config, indent=2))
    request = {"config": str(config_path), "trace": trace, "setup_only": setup_only,
               "spans": str(workdir / "spans.csv")}
    result, rss_mb, errors = spawn(request, workdir, deadline)
    sample = Sample(traced=trace, peak_rss_mb=rss_mb, errors=errors)
    if result is None:
        return sample
    sample.setup_s = result.get("setup_s")
    sample.exp_s = result.get("exp_s")
    sample.cpu_s = result.get("cpu_s")
    sample.layers = result.get("layers")
    sample.step_shares = result.get("step_shares")
    manifest = result.get("manifest")
    if manifest is None:
        return sample
    sample.errors += [f"member {r.get('tag', r.get('kappa'))}: {r.get('error', r.get('status'))}"
                      for r in manifest["runs"] if r.get("status") != "ok"]
    try:
        sample.wrong += workload.check(outdir, manifest, seed)
    except (OSError, KeyError, ValueError, TypeError) as exc:
        sample.wrong.append(f"check could not read the outputs: {exc!r}")
    return sample


# ---------------------------------------------------------------------------
# one run of one workload


def warm_up(seconds: float = WARMUP_S) -> None:
    """Keep every core busy for `seconds` before timing starts.

    On an idle virtual machine the first seconds of two-thread work run
    markedly slower (one core lags); without this the first experiment of a
    run reads up to a third slower than the next ones on the same data.
    """
    import numpy as np

    block = np.ones((256, 256), complex)
    stop = time.monotonic() + seconds

    def spin():
        while time.monotonic() < stop:
            np.fft.ifft2(block)

    threads = [threading.Thread(target=spin) for _ in range(nproc())]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def median_of(samples, attr):
    values = [getattr(s, attr) for s in samples if getattr(s, attr) is not None]
    return statistics.median(values) if values else None


def tail(values):
    """(percentile, value) of the highest percentile with >= 10 samples beyond it."""
    n = len(values)
    if n < 20:  # below 20 samples that percentile is the median or lower
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


def measure(workload: Workload, seed: int, seconds: float, trace: bool,
            rundir: Path, spans_to: Path | None = None) -> dict:
    """Closed-loop run of one workload for `seconds`; returns the run report.

    With tracing, the spans of the last traced experiment are moved to `spans_to`.
    """
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    experiments, setups, seeds = [], [], []
    index = 0

    def once(data_seed, **kwargs):
        nonlocal index
        workdir = rundir / f"exp{index:03d}"
        index += 1
        sample = run_once(workload, data_seed, workdir, deadline, **kwargs)
        if spans_to is not None and (workdir / "spans.csv").exists():
            shutil.move(workdir / "spans.csv", spans_to)
        shutil.rmtree(workdir, ignore_errors=True)
        return sample

    if not trace:
        setups = [once(seed, setup_only=True) for _ in range(SETUP_STARTS)]
    warm_up()
    minimum = 1 if trace else workload.min_experiments
    while len(seeds) < minimum or time.monotonic() - started < seconds:
        # experiment i of a run gets its own data, derived from the run's seed
        seeds.append(seed + SEED_STRIDE * len(seeds))
        experiments.append(once(seeds[-1]))
        if trace:
            experiments.append(once(seeds[-1], trace=True))
    plain = [s for s in experiments if not s.traced]
    # an experiment that ended in an error did only part of the work: time the others
    timed = [s for s in plain if not s.errors]
    traced = [s for s in experiments if s.traced and s.layers]
    failed = len([s for s in experiments if s.errors or s.wrong])
    report = {
        "workload": workload.name,
        "seed": seed,
        "data_seeds": seeds,
        "trace": int(trace),
        "attempted": len(experiments),
        "failed": failed,
        "fail_frac": failed / len(experiments),
        "errors": [e for s in experiments + setups for e in s.errors],
        "wrong": [w for s in experiments for w in s.wrong],
        "samples": [s.__dict__ for s in experiments + setups],
        "wall_s": time.monotonic() - started,
    }
    exp_values = [s.exp_s for s in timed]
    if trace:
        metrics = {}
        names = traced[0].layers.keys() if traced else ()
        for name in names:
            metrics[name] = statistics.median(s.layers[name] for s in traced)
        overhead = None
        if exp_values and median_of(traced, "exp_s") is not None:
            overhead = median_of(traced, "exp_s") - statistics.median(exp_values)
        metrics["bench.trace_overhead_s"] = overhead
        counts = {name: {s.layers[name] for s in traced}
                  for name in names if layer_unit(name) == "count"}
        report["counts_repeat"] = all(len(v) == 1 for v in counts.values())
        report["step_shares"] = traced[0].step_shares if traced else None
        report["metrics"] = {k: {"value": v, "unit": layer_unit(k)} for k, v in metrics.items()}
    else:
        values = {
            "exp_s": median_of(timed, "exp_s"),
            "cpu_s": median_of(timed, "cpu_s"),
            "setup_s": median_of(plain + setups, "setup_s"),
            "peak_rss_mb": median_of(timed, "peak_rss_mb"),
        }
        report["timed"] = len(timed)
        report["exp_s_tail"] = tail(exp_values)
        report["metrics"] = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    return report


# ---------------------------------------------------------------------------
# provenance and printing


def _cache_sizes() -> dict:
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                sizes[f"L{level}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return sizes


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():  # an exported checkout: the source digest identifies it
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def provenance() -> dict:
    return {
        "nproc": nproc(),
        "cpu_model": _cpu_model(),
        "caches": _cache_sizes(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "STRAT2D_THREADS": nproc(),
    }


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def print_report(report: dict) -> None:
    print(f"== {report['workload']}  data seeds {report['data_seeds']}  trace {report['trace']}  "
          f"attempted {report['attempted']}  failed {report['failed']}  "
          f"fail_frac {report['fail_frac']:.3g}  ({report['wall_s']:.1f} s)")
    for name, m in report["metrics"].items():
        print(f"   {name:32s} {_fmt(m['value']):>14s} {m['unit']}")
    if not report["trace"]:
        tail_ = report["exp_s_tail"]
        print(f"   exp_s: median of {report['timed']} completed experiment(s); "
              + (f"p{tail_[0]:.0f} = {tail_[1]:.6g} s" if tail_ else
                 "a tail percentile needs >= 20 samples"))
    else:
        print(f"   counts repeat exactly across traced experiments: {report['counts_repeat']}")
        if report["step_shares"]:
            print("   shares of solver.step time: " + ", ".join(
                f"{k} {v:.1%}" for k, v in report["step_shares"].items()))
    for error in report["errors"]:
        print(f"   FAILED (no result): {error}")
    for wrong in report["wrong"]:
        print(f"   FAILED (wrong result): {wrong}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=None,
                        help="data seed (default: the workload's acceptance-criterion seed)")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "strat2d" / "__init__.py").is_file():
        print(f"error: no strat2d sources under {ROOT / 'src'}; run from a strat2d checkout",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    prov = provenance()
    print("provenance: " + json.dumps(prov, sort_keys=True))
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    reports = []
    for name in names:
        workload = WORKLOADS[name]
        seed = workload.default_seed if args.seed is None else args.seed
        rundir = OUT / "runs" / f"{name}-seed{seed}-trace{args.trace}-{os.getpid()}"
        shutil.rmtree(rundir, ignore_errors=True)
        try:
            report = measure(workload, seed, args.seconds, bool(args.trace), rundir,
                             spans_to=results_dir / f"{name}-seed{seed}-spans.csv")
        finally:
            shutil.rmtree(rundir, ignore_errors=True)
        report["provenance"] = prov
        (results_dir / f"{name}-seed{seed}-trace{args.trace}.json").write_text(
            json.dumps(report, indent=1, sort_keys=True))
        print_report(report)
        reports.append(report)
    if len(reports) == 1:
        metrics = reports[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in reports for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": not any(r["wrong"] for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One experiment in a fresh process, the way the ``strat2d`` CLI runs it.

    python3 child.py REQUEST.json

The request names the config file, whether to trace, and where to write
the spans and the result.  The child imports strat2d from the
checkout's ``src/``, loads the config with ``harness.load_config`` and calls
``harness.run_experiment``.  It writes a JSON result with the monotonic time
at which set-up ended, the call's wall and CPU seconds, the error if one was
raised, and, when tracing, the per-layer metrics.  Exceptions are reported in the
result, never raised, so a failing experiment cannot stop the benchmark.
"""

import json
import resource
import sys
import time
import traceback
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main(request_path: str) -> int:
    with open(request_path) as fh:
        req = json.load(fh)
    result = {}
    try:
        sys.path.insert(0, str(SRC))
        import strat2d.harness as harness

        if Path(harness.__file__).resolve().parent.parent != SRC:
            raise ImportError(f"strat2d imported from {harness.__file__}, not {SRC}")
        config = harness.load_config(req["config"])
        result["t_ready"] = time.monotonic()
        if req.get("setup_only"):
            return _write(req, result)
        tracer = None
        if req.get("trace"):
            sys.path.insert(0, str(Path(__file__).resolve().parent))
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
        cpu0, t0 = _cpu_s(), time.perf_counter()
        try:
            manifest = harness.run_experiment(config)
        finally:
            result["exp_s"] = time.perf_counter() - t0
            result["cpu_s"] = _cpu_s() - cpu0
            if tracer is not None:
                tracer.uninstall()
                result["layers"] = tracer.layer_metrics()
                result["step_shares"] = tracer.step_shares()
                tracer.write_spans(req["spans"])
        result["manifest"] = {"runs": manifest.runs, "flags": manifest.flags,
                              "config": manifest.config, "outputs": manifest.outputs}
    except Exception:
        result["error"] = traceback.format_exc()
    return _write(req, result)


def _write(req: dict, result: dict) -> int:
    import numpy as np

    def default(obj):
        if isinstance(obj, (np.floating, np.integer, np.bool_)):
            return obj.item()
        raise TypeError(f"not JSON-serializable: {type(obj)}")

    with open(req["result"], "w") as fh:
        json.dump(result, fh, default=default)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))

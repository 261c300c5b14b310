"""Span tracing of strat2d from outside the package.

`Tracer.install()` replaces every binding of the wrapped callables: the
public functions of each strat2d module wherever another module imported
them (``from .grid import advect`` copies the name into ``solver``,
``dispersive`` and ``estimates``), a few methods on their classes, the
numpy / scipy 2-D FFT entry points and ``numpy.linalg.norm``.  Each call
records one span (name, parent, start, end, error flag, bytes) in memory;
spans are aggregated into per-layer metrics and written out when the run
ends.  Nothing inside ``src/`` is touched.

Layers are named after strat2d's modules, plus ``fft`` for the FFT entry
points below ``grid`` and ``linalg`` for ``numpy.linalg.norm``.
"""

from __future__ import annotations

import csv
import functools
import inspect
import itertools
import sys
import threading
from time import perf_counter

import numpy.fft
import numpy.linalg
import scipy.fft

MODULES = ("grid", "bands", "fields", "solver", "picard", "dispersive", "estimates", "harness")
LAYERS = ("fft", "grid", "bands", "fields", "solver", "picard", "dispersive", "harness")
FFT_NAMES = ("fft2", "ifft2", "rfft2", "irfft2")

# (module, class, method) -> span name
METHODS = {
    ("grid", "SpectralField", "hermitian_defect"): "grid.hermitian_defect",
    ("bands", "DyadicBank", "__init__"): "bands.DyadicBank",
    ("picard", "FrozenVelocity", "__init__"): "picard.frozen_fit",
    ("picard", "FrozenVelocity", "__call__"): "picard.frozen_eval",
}

WRITE_SPANS = ("harness.write_csv", "harness.write_json")


class Tracer:
    """In-memory span recorder with a per-thread parent stack."""

    def __init__(self):
        self.spans = []  # (id, parent, name, t0, t1, error, nbytes)
        self.members = []  # (wait_s, busy_s) per sweep member
        self.pools = []  # (workers, wall_s) per _parallel_map call
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched = []  # (owner, attribute, original)

    # -- recording ---------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int:
        stack = self._stack()
        return stack[-1] if stack else 0

    def wrap(self, name: str, fn, count_bytes: bool = False):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            error = False
            nbytes = 0
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
                if count_bytes:
                    nbytes = getattr(args[0], "nbytes", 0) + getattr(out, "nbytes", 0)
                return out
            except BaseException:
                error = True
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                tracer.spans.append((sid, parent, name, t0, t1, error, nbytes))

        return traced

    def _wrap_parallel_map(self, original, thread_count):
        """Sweep members get a span whose parent is the pool call, in any thread."""
        tracer = self

        def parallel_map(fn, items):
            items = list(items)
            parent = tracer.current()
            workers = min(thread_count(), max(len(items), 1))
            submitted = perf_counter()
            member_span = tracer.wrap("harness.member", fn)

            def member(item):
                started = perf_counter()
                stack = tracer._stack()
                stack.append(parent)
                try:
                    return member_span(item)
                finally:
                    stack.pop()
                    tracer.members.append((started - submitted, perf_counter() - started))

            try:
                return original(member, items)
            finally:
                tracer.pools.append((workers, perf_counter() - submitted))

        return parallel_map

    # -- installation ------------------------------------------------------
    def _patch(self, owner, attribute, replacement) -> None:
        self._patched.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, replacement)

    def install(self) -> None:
        """Wrap every binding of the traced callables in loaded strat2d modules."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        mods = {m: sys.modules[f"strat2d.{m}"] for m in MODULES if f"strat2d.{m}" in sys.modules}
        harness = mods.get("harness")
        wrappers = {}  # id(original) -> (original, wrapper)

        def add(fn, wrapper):
            wrappers[id(fn)] = (fn, wrapper)

        for short, mod in mods.items():
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    add(fn, self.wrap(f"{short}.{attr}", fn))
        if harness is not None:
            inner = self._wrap_parallel_map(harness._parallel_map, harness.thread_count)
            add(harness._parallel_map, self.wrap("harness._parallel_map", inner))
        fft_owners = (numpy.fft, scipy.fft)
        for owner in fft_owners:
            for attr in FFT_NAMES:
                fn = getattr(owner, attr)
                label = owner.__name__.split(".")[0]
                add(fn, self.wrap(f"fft.{label}.{attr}", fn, count_bytes=True))
        add(numpy.linalg.norm, self.wrap("linalg.norm", numpy.linalg.norm))

        # every namespace that may hold a binding of a wrapped callable
        namespaces = list(mods.values()) + [numpy.fft, scipy.fft, numpy.linalg]
        for owner in namespaces:
            for attr, value in list(vars(owner).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(owner, attr, hit[1])
        for (short, cls_name, attr), name in METHODS.items():
            if short in mods:
                cls = getattr(mods[short], cls_name)
                self._patch(cls, attr, self.wrap(name, vars(cls)[attr]))

    def uninstall(self) -> None:
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    # -- output ------------------------------------------------------------
    def write_spans(self, path) -> None:
        origin = min((s[3] for s in self.spans), default=0.0)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(("id", "parent", "name", "start_ms", "end_ms", "error", "bytes"))
            for sid, parent, name, t0, t1, error, nbytes in sorted(self.spans):
                writer.writerow((sid, parent, name, f"{(t0 - origin) * 1e3:.6f}",
                                 f"{(t1 - origin) * 1e3:.6f}", int(error), nbytes))

    def layer_metrics(self) -> dict:
        """Aggregate spans into the per-layer metrics of BENCHMARK.json."""
        calls, secs, errors = {}, {}, dict.fromkeys(LAYERS, 0)
        child_secs = {}
        fft_bytes = 0
        for sid, parent, name, t0, t1, error, nbytes in self.spans:
            dur = t1 - t0
            key = "fft" if name.startswith("fft.") else name
            calls[key] = calls.get(key, 0) + 1
            secs[key] = secs.get(key, 0.0) + dur
            child_secs[parent] = child_secs.get(parent, 0.0) + dur
            fft_bytes += nbytes
            layer = name.split(".", 1)[0]
            if error and layer in errors:
                errors[layer] += 1
        solver_self = sum(
            (t1 - t0) - child_secs.get(sid, 0.0)
            for sid, _, name, t0, t1, _, _ in self.spans if name.startswith("solver.")
        )

        def ms(key):
            return 1e3 * secs.get(key, 0.0)

        out = {"fft.calls": calls.get("fft", 0), "fft.ms": ms("fft"),
               "fft.mb_computed": fft_bytes / 1e6}
        for key in ("grid.advect", "grid.biot_savart", "grid.inverse_transform",
                    "grid.hermitian_defect", "grid.require_mean_zero", "solver.step",
                    "solver.diagnostics", "bands.besov_norm", "picard.frozen_eval",
                    "linalg.norm"):
            out[f"{key}.calls"] = calls.get(key, 0)
            out[f"{key}.ms"] = ms(key)
        out["solver.cfl_dt.ms"] = ms("solver.cfl_dt")
        out["solver.self_s"] = solver_self
        nodes = calls.get("dispersive.g_operator", 0)
        out["dispersive.g_operator.calls"] = nodes
        out["dispersive.node_ms"] = ms("dispersive.strichartz_measure") / nodes if nodes else 0.0
        out["picard.frozen_fit.s"] = secs.get("picard.frozen_fit", 0.0)
        out["fields.make_initial_data.s"] = secs.get("fields.make_initial_data", 0.0)
        out["bands.DyadicBank.s"] = secs.get("bands.DyadicBank", 0.0)
        busy = sum(b for _, b in self.members)
        capacity = sum(w * wall for w, wall in self.pools)
        out["harness.members"] = len(self.members)
        out["harness.member_busy_s"] = busy
        out["harness.member_wait_s"] = sum(w for w, _ in self.members)
        out["harness.pool_busy_frac"] = busy / capacity if capacity > 0 else 0.0
        out["harness.write_s"] = sum(secs.get(k, 0.0) for k in WRITE_SPANS)
        for layer, count in errors.items():
            out[f"{layer}.errors"] = count
        return out

    def step_shares(self) -> dict:
        """Shares of time inside solver.step spent in FFTs and in linalg.norm."""
        by_id = {s[0]: s for s in self.spans}
        step_s = sum(s[4] - s[3] for s in self.spans if s[2] == "solver.step")
        if step_s == 0.0:
            return {}
        inside = {"fft": 0.0, "linalg.norm": 0.0}
        for sid, parent, name, t0, t1, _, _ in self.spans:
            key = "fft" if name.startswith("fft.") else name
            if key not in inside:
                continue
            while parent and by_id[parent][2] != "solver.step":
                parent = by_id[parent][1]
            if parent:
                inside[key] += t1 - t0
        return {f"{k}_share_of_step": v / step_s for k, v in inside.items()}

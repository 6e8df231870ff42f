"""Span tracing of a benchmark operation, and the per-layer metrics.

Tracing wraps public functions under the name each calling module bound
them to (`sglab.transport.solve_sg_potential`, `sglab.experiments.
w2_sinkhorn`, `numpy.fft.fft2`, ...), so no file of the program changes
and untraced runs carry no wrappers. A span records its name, start, end,
parent and operation id, plus a few values read from the call's
arguments or result (Picard sweeps from the MASolveReport that transport
discards, Sinkhorn iterations, ...). Spans stay in memory until the run
writes them out. A thread with no open span of its own (a pool worker)
hangs its spans under the innermost open span of the thread that opened
the operation.
"""

import contextlib
import importlib
import json
import math
import sys
import threading
import time
from collections import defaultdict

import numpy as np

# defining module -> traced public functions; numpy.fft is traced under its
# own name, which is how sglab.spectral calls it
TRACED = {
    "numpy.fft": ("fft2", "ifft2"),
    "sglab.spectral": ("derivative", "inv_laplacian", "dealias", "norm"),
    "sglab.elliptic": ("solve_sg_potential", "hessian_linf", "hessian_det",
                       "solve_corrector_potential", "bootstrap_status"),
    "sglab.transport": ("run_simulation", "step_rk4", "cfl_limit", "advect_scalar"),
    "sglab.lagrangian": ("paired_gap_series", "advect_flow", "backward_flow"),
    "sglab.wasserstein": ("w2_sinkhorn", "w2_exact_small", "gronwall_w2_bound"),
    "sglab.inequalities": ("run_suite",),
    "sglab.experiments": ("run_experiment", "emit_report"),
    "sglab.config": ("parse_config",),
    "sglab.cli": ("main",),
}


OPERATION = "perfbench.operation"


def _arg(args, kwargs, i, name):
    return kwargs[name] if name in kwargs else args[i]


# function key -> (args, kwargs, result) -> info dict stored on the span
def _fft_info(args, kwargs, result):
    return {"n": int(np.shape(args[0])[-1])}


def _advect_flow_info(args, kwargs, result):
    t0, t1, dt = (_arg(args, kwargs, i, k) for i, k in ((2, "t0"), (3, "t1"), (4, "dt")))
    return {"steps": max(1, int(np.ceil(abs(t1 - t0) / dt - 1e-12)))}


def _sinkhorn_info(args, kwargs, result):
    a, b = _arg(args, kwargs, 0, "a"), _arg(args, kwargs, 1, "b")
    return {"iters": result.iterations,
            "identical": bool(np.array_equal(a.weights, b.weights))}


INFO = {
    "numpy.fft.fft2": _fft_info,
    "numpy.fft.ifft2": _fft_info,
    "sglab.elliptic.solve_sg_potential": lambda a, k, r: {"sweeps": r[1].iterations},
    "sglab.transport.step_rk4": lambda a, k, r: {"dt": float(_arg(a, k, 1, "dt"))},
    "sglab.transport.cfl_limit": lambda a, k, r: {"limit": float(r)},
    "sglab.transport.run_simulation": lambda a, k, r: {"exit": r.exit_reason},
    "sglab.lagrangian.advect_flow": _advect_flow_info,
    "sglab.wasserstein.w2_sinkhorn": _sinkhorn_info,
    "sglab.wasserstein.w2_exact_small": lambda a, k, r: {"nonzero": r.distance > 0},
    "sglab.inequalities.run_suite": lambda a, k, r: {"checks": len(r.results),
                                                     "errors": len(r.errors)},
    "sglab.experiments.run_experiment": lambda a, k, r: {
        "failed": len(r.failed_assertions()),
        "threads": int(k.get("threads", a[1] if len(a) > 1 else 1))},
    "sglab.experiments.emit_report": lambda a, k, r: {
        "bytes": sum(p.stat().st_size for p in r)},
}


class Tracer:
    """Installs span-recording wrappers and restores the originals on exit."""

    def __init__(self):
        self.spans = []  # [name, key, start, end, parent, op, info]
        self.op = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._owner_stack = None
        self._patched = []
        self._t0 = time.perf_counter()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name, key):
        stack = self._stack()
        try:
            parent = (stack or self._owner_stack)[-1]
        except (IndexError, TypeError):  # no open span anywhere
            parent = None
        span = [name, key, time.perf_counter(), None, parent, self.op, None]
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        return span

    def _close(self, span):
        span[3] = time.perf_counter()
        self._stack().pop()

    @contextlib.contextmanager
    def span(self, name, op):
        """A benchmark-level span that starts operation `op`."""
        self.op = op
        self._owner_stack = self._stack()
        span = self._open(name, name)
        try:
            yield
        finally:
            self._close(span)

    def _wrap(self, fn, name, key):
        info = INFO.get(key)
        tracer = self

        def traced(*args, **kwargs):
            span = tracer._open(name, key)
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                span[6] = {"raised": type(err).__name__}
                raise
            finally:
                tracer._close(span)
            if info is not None:
                span[6] = info(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    def __enter__(self):
        callers = [m for name, m in sorted(sys.modules.items())
                   if name == "sglab" or name.startswith("sglab.")]
        for module_name, functions in TRACED.items():
            home = importlib.import_module(module_name)
            scan = [home] if module_name == "numpy.fft" else callers
            for fn_name in functions:
                original = getattr(home, fn_name)
                key = f"{module_name}.{fn_name}"
                for caller in scan:
                    if getattr(caller, fn_name, None) is original:
                        wrapper = self._wrap(original, f"{caller.__name__}.{fn_name}", key)
                        setattr(caller, fn_name, wrapper)
                        self._patched.append((caller, fn_name, original))
        return self

    def __exit__(self, *exc):
        for caller, fn_name, original in reversed(self._patched):
            setattr(caller, fn_name, original)
        self._patched.clear()
        return False

    def write(self, path):
        """Write every span as one NDJSON line, times relative to the tracer start."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, _, start, end, parent, op, info) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name, "start": start - self._t0,
                    "end": end - self._t0, "parent": parent, "op": op,
                    "info": info}, separators=(",", ":")) + "\n")


def _covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the intervals."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def layer_metrics(spans, speedup=0.0):
    """Per-layer metrics over the recorded spans, keyed as in BENCHMARK.json.

    A span's self time is its duration minus the part of it that its
    children cover. Ratios whose denominator is 0 read 0, and so do the
    pool metrics of a workload without an experiment pool.
    """
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span[4] is not None:
            children[span[4]].append(i)
    calls = defaultdict(int)
    self_s = defaultdict(float)
    total_s = defaultdict(float)
    infos = defaultdict(list)
    by_name = defaultdict(list)
    for i, (name, key, start, end, parent, op, info) in enumerate(spans):
        kids = [(spans[j][2], spans[j][3]) for j in children[i]]
        calls[key] += 1
        self_s[key] += (end - start) - _covered(kids, start, end)
        total_s[key] += end - start
        infos[key].append(info or {})
        by_name[name].append(i)

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for module, functions in TRACED.items():
        layer = module.split(".")[-1]  # sglab.elliptic -> elliptic
        for fn_name in functions:
            m[f"{layer}.{fn_name}.calls"] = calls[f"{module}.{fn_name}"]
            m[f"{layer}.{fn_name}.self_s"] = self_s[f"{module}.{fn_name}"]
    m["elliptic.solve_sg_potential.total_s"] = total_s["sglab.elliptic.solve_sg_potential"]
    m["wasserstein.w2_sinkhorn.total_s"] = total_s["sglab.wasserstein.w2_sinkhorn"]
    m["trace.spans"] = len(spans)
    m["trace.covered_share"] = 1.0 - ratio(self_s[OPERATION], total_s[OPERATION])
    ffts = infos["numpy.fft.fft2"] + infos["numpy.fft.ifft2"]
    m["spectral.fft.calls"] = len(ffts)
    m["spectral.fft.self_s"] = self_s["numpy.fft.fft2"] + self_s["numpy.fft.ifft2"]
    m["spectral.fft.bytes_computed"] = sum(32 * i["n"] ** 2 for i in ffts)
    m["spectral.fft.flops_computed"] = sum(
        5 * i["n"] ** 2 * math.log2(i["n"] ** 2) for i in ffts)

    solves = infos["sglab.elliptic.solve_sg_potential"]
    sweeps = sum(i.get("sweeps", 0) for i in solves)
    m["elliptic.picard_sweeps"] = sweeps
    m["elliptic.sweeps_per_solve"] = ratio(sweeps, len(solves))

    m["transport.cfl_limit.calls_per_step"] = ratio(
        calls["sglab.transport.cfl_limit"], calls["sglab.transport.step_rk4"])
    dt_ratios = []
    for i, span in enumerate(spans):
        if span[1] != "sglab.transport.step_rk4" or not span[6] or "dt" not in span[6]:
            continue
        limits = [spans[j][6]["limit"] for j in children[i]
                  if spans[j][1] == "sglab.transport.cfl_limit" and spans[j][6]]
        if limits:
            dt_ratios.append(span[6]["dt"] / limits[0])
    m["transport.dt_cfl_ratio"] = ratio(sum(dt_ratios), len(dt_ratios))
    m["transport.elliptic_failures"] = sum(
        i.get("exit") in ("elliptic_divergence", "elliptic_stall")
        for i in infos["sglab.transport.run_simulation"])

    m["lagrangian.particle_steps"] = sum(
        i.get("steps", 0) for i in infos["sglab.lagrangian.advect_flow"])

    sinkhorn = infos["sglab.wasserstein.w2_sinkhorn"]
    iters = sum(i.get("iters", 0) for i in sinkhorn)
    m["wasserstein.sinkhorn_iterations"] = iters
    m["wasserstein.sinkhorn_iters_per_call"] = ratio(iters, len(sinkhorn))
    m["wasserstein.sinkhorn_identical_share"] = ratio(
        sum(i.get("identical", False) for i in sinkhorn), len(sinkhorn))
    m["wasserstein.convergence_errors"] = sum(
        i.get("raised") == "W2ConvergenceError" for i in sinkhorn)
    lp = infos["sglab.wasserstein.w2_exact_small"]
    m["wasserstein.lp_nonzero_ratio"] = ratio(sum(i.get("nonzero", False) for i in lp), len(lp))

    suites = infos["sglab.inequalities.run_suite"]
    m["inequalities.checks"] = sum(i.get("checks", 0) for i in suites)
    m["inequalities.checker_errors"] = sum(i.get("errors", 0) for i in suites)
    m["inequalities.hessian_linf.calls"] = len(by_name["sglab.inequalities.hessian_linf"])

    m["experiments.emit_bytes"] = sum(
        i.get("bytes", 0) for i in infos["sglab.experiments.emit_report"])
    runs = infos["sglab.experiments.run_experiment"]
    m["experiments.assertions_failed"] = sum(i.get("failed", 0) for i in runs)
    pool = [spans[i] for i in by_name["sglab.experiments.run_simulation"]]
    busy = sum(s[3] - s[2] for s in pool)
    window = (max(s[3] for s in pool) - min(s[2] for s in pool)) if pool else 0.0
    threads = max((i.get("threads", 1) for i in runs), default=1)
    m["experiments.pool.busy_s"] = busy
    m["experiments.pool.utilization"] = ratio(busy, threads * window)
    m["experiments.pool.speedup"] = speedup
    return m

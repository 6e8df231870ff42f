"""Experiment drivers: scaling studies, bound checks, and report emission.

Five experiment kinds share one harness:

  stability     one Euler reference plus an SG run per eps from the same
                datum; records the particle-flow and velocity gaps and
                fits the log-log rate of sup_t ||grad phibar - grad psi||.
  wasserstein   stability plus W2 distances between the physical
                densities at coarse sample times, the integrated
                Gronwall-type bound B(t), and an exact-LP calibration of
                the entropic solver on 16^2 downsamples.
  corrector     SG against the first-order fields of one Corrector
                run; fits the second-order rate and closes the
                elliptic consistency identity to roundoff.
  lifespan      SG runs with stop_on_exit from the steep datum; records
                bootstrap-exit times and fits the logarithmic Riccati
                envelope to the Hoelder-norm growth.
  inequalities  delegates to the randomized checker suite.

Each eps driver maps one worker over eps_list, smallest eps first: it does
all of one eps's work and returns its summary row and runs. An error the
datum causes there becomes that eps's failed row and keeps its finished
runs. A per-eps run in report.runs carries its records, times, dt history
and exit fields but no states, at every thread count: every number read
from states is made in the worker. The parent makes only a rate
experiment's eps-free reference (Euler with its particle flows, or
Corrector), which finishes before the pool forks, keeps its states and
reaches each worker as a copy; then the fits and the eps_list merge.

Slope fits use ordinary least squares on log eps vs log metric and only
include runs that stayed inside the bootstrap window the whole way; the
standard error is s / sqrt(sum (x - xbar)^2) with s^2 the residual
variance over n - 2 degrees of freedom (reported as 0 when there are no
spare degrees of freedom).

Each driver evaluates its acceptance gates and stores them as assertion
rows, and puts the rows of every file it owns beyond the common ones
(W2 streams, plot-ready CSVs, suite records) in report.tables. emit_report
writes, for every kind alike, each run's NDJSON diagnostics, summary.csv,
every table and report.json, all through fieldio. Outputs are
byte-deterministic for a fixed spec and seed.
"""

import importlib
import json
import math
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path

import numpy as np

from .config import ExperimentSpec
from .elliptic import cofactor_contract, hessian_det
from .fieldio import json_value, write_table, write_text
from .inequalities import SuiteReport, run_suite
from .lagrangian import paired_gap_series, sample_flows
from .spectral import NormKind, derivative, norm
from .transport import run_simulation
from .wasserstein import (
    downsample,
    gronwall_w2_bound,
    physical_density,
    w2_exact_small,
    w2_sinkhorn,
)

__all__ = ["ExperimentReport", "run_experiment", "emit_report", "ols_loglog",
           "riccati_fit"]

W2_SAMPLE_SPACING = 0.1
W2_GRID = 32
CALIBRATION_GRID = 16
SINKHORN_REG = 5e-4
SUITE_SEEDS = 10
SUITE_COUNT = 20

# acceptance gates: kind -> (target slope, tolerance)
SLOPE_GATES = {
    "stability": (1.0, 0.15),
    "wasserstein": (1.0, 0.2),
    "corrector": (2.0, 0.25),
}
LP_AGREEMENT_TOL = 2e-3
CONSISTENCY_TOL = 1e-10
RICCATI_R2_MIN = 0.9

# the per-eps columns summary.csv and report.json write; a row also
# carries the fit inputs in_window and metric, and a worker's datum
# error, which stay internal
SUMMARY_COLUMNS = ("eps", "sup_velocity_gap", "sup_w2", "exit_time", "slope",
                   "slope_stderr", "status")

# what a datum can raise in a per-eps worker besides a run's elliptic
# exits: a negative physical density, a stalled Sinkhorn solve, a failed LP
DATUM_ERRORS = (ValueError, RuntimeError, ArithmeticError)

LIFESPAN_NOTE = (
    "The eps^-1 * log log(1/eps) lifespan asymptotic is not reproducible at "
    "desk scale: log log(1/eps) varies by less than 15% over any affordable "
    "eps range. Only monotonicity of the exit times and the quality of the "
    "logarithmic Riccati fit are asserted."
)


@dataclass
class ExperimentReport:
    """Everything run_experiment learned, ready for emission."""

    kind: str
    eps_list: list
    status: str = "passed"
    summary_rows: list = field(default_factory=list)
    fit: dict | None = None
    assertions: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    runs: dict = field(default_factory=dict)  # tag -> Trajectory, per-eps runs without states
    tables: dict = field(default_factory=dict)  # file name -> rows (fieldio.write_table)
    extras: dict = field(default_factory=dict)

    def failed_assertions(self):
        return [a for a in self.assertions if not a["ok"]]


# ------------------------------------------------------------------ fits

def ols_loglog(eps_values, metric_values):
    """OLS slope of log metric against log eps with its standard error."""
    e = np.asarray(eps_values, dtype=float)
    m = np.asarray(metric_values, dtype=float)
    if len(e) < 2 or len(e) != len(m):
        raise ValueError("need at least two (eps, metric) pairs")
    if np.any(e <= 0) or np.any(m <= 0):
        raise ValueError("log-log fit needs positive values")
    x = np.log(e)
    y = np.log(m)
    xc = x - x.mean()
    sxx = float(np.sum(xc**2))
    slope = float(np.sum(xc * (y - y.mean())) / sxx)
    intercept = float(y.mean() - slope * x.mean())
    resid = y - (intercept + slope * x)
    df = len(e) - 2
    stderr = float(np.sqrt(np.sum(resid**2) / df / sxx)) if df > 0 else 0.0
    return slope, stderr


def riccati_fit(times, y_values):
    """Fit the growth law y' = C * M0 * y * (1 + log+(y / M0)) to y(t).

    The law integrates exactly to log(1 + log+(y/M0)) = C * M0 * t +
    const, so an OLS line through the transformed series estimates C
    robustly; differencing y instead would regress sampling noise on a
    near-constant predictor whenever y moves slowly. M0 = y(0). Returns
    (C, stderr, r_squared).
    """
    t = np.asarray(times, dtype=float)
    y = np.asarray(y_values, dtype=float)
    if len(y) < 4:
        raise ValueError("need at least 4 samples for the Riccati fit")
    if np.any(y <= 0):
        raise ValueError("Riccati fit needs positive samples")
    m0 = float(y[0])
    r = np.log(y / m0)
    z = np.where(r >= 0, np.log1p(np.maximum(r, 0.0)), r)
    xc = t - t.mean()
    sxx = float(np.sum(xc**2))
    slope = float(np.sum(xc * (z - z.mean())) / sxx)
    resid = z - (z.mean() + slope * xc)
    df = len(t) - 2
    stderr = float(np.sqrt(np.sum(resid**2) / df / sxx)) if df > 0 else 0.0
    ss_tot = float(np.sum((z - z.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 1.0
    return slope / m0, stderr / m0, r2


# ------------------------------------------------------------- helpers

def _fresh_row(eps):
    return dict.fromkeys(SUMMARY_COLUMNS) | {"eps": eps, "status": "ok", "in_window": False,
                                             "metric": None, "error": None}


_worker = {}  # in a forked pool worker, "fn": the function it maps, set by its initializer


def _call_worker_fn(item):
    return _worker["fn"](item)


def _map_runs(items, fn, threads):
    """Run fn(item) for each item, returning the results in input order.

    With threads > 1 the runs go to min(threads, len(items)) worker
    processes. They are forked, so they inherit the imported modules and
    the warm `spectral.kernel` caches; a fork-context pool starts every
    worker before its manager thread, so no thread is alive at fork
    time. fn reaches each worker once, as the argument of the pool's
    initializer, which a forked worker inherits rather than unpickles, so
    fn and whatever it holds (a reference run) need not pickle.
    The items, the results and anything fn raises must pickle.
    """
    workers = min(threads, len(items))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers,
                                 mp_context=multiprocessing.get_context("fork"),
                                 initializer=_worker.__setitem__, initargs=("fn", fn)) as pool:
            return list(pool.map(_call_worker_fn, items))
    return [fn(item) for item in items]


def _run_suite_seed(seed):
    return run_suite(seed, count=SUITE_COUNT)


def _stayed_inside(traj):
    return traj.exit_reason is None and all(r.inside for r in traj.diagnostics)


def _eps_tag(eps: float) -> str:
    """eps as file names and report keys show it; distinct for distinct eps."""
    return repr(eps)


def _apply_fit(report, gate_name):
    """Shared slope-fit + gate logic for the three rate experiments: the
    fit takes the rows that stayed inside the bootstrap window with a
    positive metric."""
    rows = report.summary_rows
    usable = [r for r in rows if r["in_window"] and r["metric"] is not None
              and r["metric"] > 0]
    target, tol = SLOPE_GATES[report.kind]
    if len(usable) < 2:
        report.notes.append(
            "fewer than two in-window runs with a positive metric; no fit")
        report.assertions.append({
            "name": gate_name, "ok": False,
            "detail": "insufficient in-window runs for a slope fit",
        })
        return
    slope, stderr = ols_loglog([r["eps"] for r in usable],
                               [r["metric"] for r in usable])
    report.fit = {
        "slope": slope,
        "stderr": stderr,
        "eps_used": [r["eps"] for r in usable],
        "target": target,
        "tolerance": tol,
    }
    report.tables["rate_loglog.csv"] = [("eps", "log_eps", "metric", "log_metric", "in_fit")] + [
        (r["eps"], math.log(r["eps"]), r["metric"], math.log(r["metric"]), r in usable)
        for r in rows if r["metric"]]
    excluded = [r["eps"] for r in rows if r not in usable]
    if excluded:
        report.notes.append(
            f"runs excluded from the fit (left the bootstrap window or no "
            f"metric): eps = {excluded}")
    report.assertions.append({
        "name": gate_name,
        "ok": abs(slope - target) <= tol,
        "detail": f"slope {slope:.4f} vs {target} +/- {tol}",
    })


def _finalize(report):
    failed = [r["status"].startswith("failed") for r in report.summary_rows]
    if report.failed_assertions() or (failed and all(failed)):
        report.status = "failed"
    elif any(failed):
        report.status = "partial"
    return report


def _guarded(worker, *args):
    """worker(*args, runs) -> (row, extra) as (row, runs, extra), the worker
    adding each run to runs as it finishes. A datum error becomes a failed
    row with extra None that keeps the finished runs; others propagate.
    Each run comes back with its states emptied: the worker has made
    every number that reads them, and the parent keeps only records."""
    runs = {}
    try:
        row, extra = worker(*args, runs)
    except DATUM_ERRORS as err:
        row, extra = _fresh_row(args[-1]), None
        row["error"] = f"{type(err).__name__}: {err}"
        row["status"] = f"failed: {row['error']}"
    for traj in runs.values():
        traj.states = []
    return row, runs, extra


def _per_eps(spec, threads, report, worker, *args):
    """Map worker(spec.base, *args, eps, runs) -> (row, extra) over
    eps_list through _guarded, add each row and its runs to the report in
    eps_list order, and return the extras in that order.

    The smallest eps goes out first: it lives longest in a lifespan run,
    and a wasserstein worker calibrates every W2 time of a run that stays
    inside the bootstrap window, which small eps do.
    """
    ascending = sorted(spec.eps_list)
    done = dict(zip(ascending, _map_runs(ascending, partial(_guarded, worker, spec.base,
                                                            *args), threads)))
    extras = []
    for eps in spec.eps_list:
        row, runs, extra = done[eps]
        report.summary_rows.append(row)
        report.runs.update(runs)
        extras.append(extra)
    return extras


# ------------------------------------------------------ rate experiments

def _reference(spec, report, model):
    """A rate experiment's eps-free reference run, tagged by its model; it keeps its states."""
    ref = report.runs[model.lower()] = run_simulation(replace(spec.base, model=model))
    if ref.exit_reason is not None:
        raise RuntimeError(f"{model} reference run ended early: {ref.exit_reason}")
    return ref


def _euler_reference(spec, report):
    """The Euler reference and its particle flows on (n/2)^2 labels; workers take m from them."""
    euler = _reference(spec, report, "Euler")
    return euler, sample_flows(euler, euler.grid.n // 2)


def _stability_one(base, euler, euler_flows, eps, runs):
    """One eps of the stability experiment: the SG run, with its gaps to
    the Euler reference patched into its records."""
    traj = runs[f"sg_eps{_eps_tag(eps)}"] = run_simulation(replace(base, model="SGeps", eps=eps))
    row = _fresh_row(eps)
    if traj.exit_reason is not None:
        row["status"] = f"failed: {traj.exit_reason}"
    else:
        gaps = paired_gap_series(traj, euler, sample_flows(traj, euler_flows[0].m), euler_flows)
        for i, rec in enumerate(traj.diagnostics):
            rec.velocity_gap = float(gaps.velocity_gap[i])
            rec.flow_gap = float(gaps.flow_gap[i])
            rec.hminus1_gap = float(gaps.hminus1_gap[i])
        row["in_window"] = _stayed_inside(traj)
        row["metric"] = row["sup_velocity_gap"] = float(np.max(gaps.velocity_gap))
        if not row["in_window"]:
            row["status"] = "outside_window"
    return row, None


def _gap_table(report):
    """velocity_gap_vs_t.csv: the velocity gaps of the SG runs, by tag."""
    rows = [(traj.eps, rec.t, rec.velocity_gap) for tag, traj in sorted(report.runs.items())
            if tag.startswith("sg_eps") for rec in traj.diagnostics
            if rec.velocity_gap is not None]
    if rows:
        report.tables["velocity_gap_vs_t.csv"] = [("eps", "t", "velocity_gap"), *rows]


def _run_stability(spec, threads, report):
    _per_eps(spec, threads, report, _stability_one, *_euler_reference(spec, report))
    _gap_table(report)
    _apply_fit(report, "velocity_slope")


def _coarse_density(state, eps, m):
    return downsample(physical_density(state.rho, eps), m)


def _w2_sample_indices(times):
    """Indices of the samples at multiples of W2_SAMPLE_SPACING, and of
    the last sample (t_final), which the rate fit reads."""
    last = len(times) - 1
    return [i for i, t in enumerate(times) if i == last
            or abs(t - round(t / W2_SAMPLE_SPACING) * W2_SAMPLE_SPACING) <= 1e-9]


def _wasserstein_one(base, euler, euler_flows, eps, runs):
    """One eps of the wasserstein experiment: the stability worker's work,
    then the Gronwall bound and the W2 stream. Its extra is (stream,
    w2_vs_t.csv rows, calibration rows, bound-check rows), None for a
    failed run."""
    row, _ = _stability_one(base, euler, euler_flows, eps, runs)
    (traj,) = runs.values()
    if traj.exit_reason is not None:
        return row, None
    bound = gronwall_w2_bound(traj, euler)
    idxs = _w2_sample_indices(traj.times)
    stream, plot, calibration, w2_check = [], [], [], []
    for i, rec in enumerate(traj.diagnostics):
        rec.gronwall_bound = float(bound.bound[i])
    for i in idxs:
        t, b_t = float(traj.times[i]), float(bound.bound[i])
        a = _coarse_density(traj.states[i], eps, W2_GRID)
        b = _coarse_density(euler.states[i], eps, W2_GRID)
        res = w2_sinkhorn(a, b, reg=SINKHORN_REG)
        traj.diagnostics[i].w2 = res.distance
        stream.append({
            "t": t,
            "w2": res.distance,
            "method": res.method,
            "reg": res.reg,
            "marginal_error": res.marginal_error,
            "iterations": res.iterations,
        })
        plot.append((eps, t, res.distance, b_t))
        # the exact-LP oracle is affordable on 16^2 downsamples. Runs
        # that stay inside the bootstrap window get calibrated at
        # every W2 time, feeding the bias-budgeted bound check below
        # (the Gronwall bound only covers the window); the rest are
        # calibrated at the final time so the oracle comparison still
        # sees them. The coarse solve keeps reg / dx^2 matched to the
        # production lattice: the entropic iteration count blows up
        # like exp(dx^2 / reg) otherwise, and the bias is
        # scale-equivariant.
        if row["in_window"] or i == idxs[-1]:
            reg16 = SINKHORN_REG * (W2_GRID / CALIBRATION_GRID) ** 2
            a16 = _coarse_density(traj.states[i], eps, CALIBRATION_GRID)
            b16 = _coarse_density(euler.states[i], eps, CALIBRATION_GRID)
            sink16 = w2_sinkhorn(a16, b16, reg=reg16).distance
            lp16 = w2_exact_small(a16, b16).distance
            calibration.append({
                "eps": eps, "t": t, "sinkhorn": sink16, "lp": lp16,
                "abs_diff": abs(sink16 - lp16),
            })
            if row["in_window"]:
                budget = abs(sink16**2 - lp16**2)
                w2_check.append({
                    "eps": eps,
                    "t": t,
                    "w2_squared": res.distance**2,
                    "bias_budget": budget,
                    "bound": b_t,
                    "ok": res.distance**2 + budget <= b_t,
                })
    row["sup_w2"] = max((r["w2"] for r in stream), default=None)
    final = [r for r in stream if abs(r["t"] - base.t_final) <= 1e-9]
    row["metric"] = final[-1]["w2"] if final and final[-1]["w2"] > 0 else None
    return row, (stream, plot, calibration, w2_check)


def _run_wasserstein(spec, threads, report):
    plot, calibration, w2_check = [], [], []
    for eps, extra in zip(spec.eps_list, _per_eps(spec, threads, report, _wasserstein_one,
                                                  *_euler_reference(spec, report))):
        if extra is not None:
            report.tables[f"w2_eps{_eps_tag(eps)}.ndjson"] = extra[0]
            plot += extra[1]
            calibration += extra[2]
            w2_check += extra[3]
    _gap_table(report)
    if plot:
        report.tables["w2_vs_t.csv"] = [("eps", "t", "w2", "gronwall_bound"), *plot]
    report.extras["lp_calibration"] = calibration
    report.extras["w2_bound_check"] = w2_check
    _apply_fit(report, "w2_slope")
    max_diff = max((c["abs_diff"] for c in calibration), default=float("inf"))
    report.assertions.append({
        "name": "lp_agreement",
        "ok": max_diff <= LP_AGREEMENT_TOL,
        "detail": f"max |sinkhorn - lp| = {max_diff:.3e} on "
                  f"{CALIBRATION_GRID}^2 downsamples",
    })
    checked = sorted({c["eps"] for c in w2_check}, reverse=True)
    report.assertions.append({
        "name": "w2_bound",
        "ok": bool(w2_check) and all(c["ok"] for c in w2_check),
        "detail": f"{sum(c['ok'] for c in w2_check)}/{len(w2_check)} sample "
                  f"times satisfy W2^2 + bias <= B(t) at eps in {checked}",
    })


def _consistency_residual(corr_state, eps):
    """Max-norm gap between the measured elliptic defect of the corrected
    fields and its closed quadratic form."""
    bg = corr_state.background
    psi_t = bg.potential + eps * corr_state.potential
    rho_t = bg.rho + eps * corr_state.rho
    lap = derivative(psi_t, (2, 0)) + derivative(psi_t, (0, 2))
    direct = lap - rho_t + eps * hessian_det(psi_t)
    closed = (eps**2 * cofactor_contract(bg.potential, corr_state.potential)
              + eps**3 * hessian_det(corr_state.potential))
    return float(np.max(np.abs((direct - closed).values)))


def _corrector_one(base, corr, eps, runs):
    """One eps of the corrector experiment: the SG run and its H^1 gap to
    the potential corrected by the shared Corrector run. Its extra is the
    largest consistency residual, None for a failed run."""
    sg = runs[f"sg_eps{_eps_tag(eps)}"] = run_simulation(replace(base, model="SGeps", eps=eps))
    row = _fresh_row(eps)
    if sg.exit_reason is not None:
        row["status"] = f"failed: {sg.exit_reason}"
        return row, None
    gaps = []
    for s_sg, s_c in zip(sg.states, corr.states):
        corrected = s_c.background.potential + eps * s_c.potential
        gaps.append(norm(s_sg.potential - corrected, NormKind.Hs(1.0)))
    row["metric"] = row["sup_velocity_gap"] = float(np.max(gaps))
    row["in_window"] = _stayed_inside(sg)
    if not row["in_window"]:
        row["status"] = "outside_window"
    return row, max(_consistency_residual(s, eps) for s in corr.states)


def _run_corrector(spec, threads, report):
    resids = [r for r in _per_eps(spec, threads, report, _corrector_one,
                                  _reference(spec, report, "Corrector")) if r is not None]
    worst_resid = report.extras["consistency_residual"] = max(resids, default=None)
    _apply_fit(report, "corrector_slope")
    report.assertions.append({
        "name": "elliptic_consistency",
        "ok": bool(resids) and worst_resid <= CONSISTENCY_TOL,
        "detail": f"max |defect - closed form| = {worst_resid:.3e}" if resids
                  else "no eps produced a residual: every eps failed",
    })


# ------------------------------------------------------------- lifespan

def _lifespan_one(base, eps, runs):
    """One eps of the lifespan experiment: the run to its bootstrap exit,
    its Hoelder-norm series and the Riccati fit to it. Its extra is
    (times, series, fit), fit None below four samples."""
    traj = runs[f"lifespan_eps{_eps_tag(eps)}"] = run_simulation(
        replace(base, model="SGeps", eps=eps, stop_on_exit=True))
    y = [s.calpha for s in traj.states]
    row = _fresh_row(eps)
    if traj.exit_reason == "bootstrap_exit":
        row["exit_time"] = traj.exit_time
    elif traj.exit_reason is None:
        row["status"] = "no_exit"
    else:
        row["status"] = f"failed: {traj.exit_reason}"
    fit = None
    if len(y) >= 4:
        c, stderr, r2 = riccati_fit(traj.times, y)
        fit = {"C": c, "stderr": stderr, "r2": r2}
        row["slope"] = c
        row["slope_stderr"] = stderr
    return row, (list(traj.times), y, fit)


def _run_lifespan(spec, threads, report):
    report.notes.append(LIFESPAN_NOTE)
    series = {e: s for e, s in zip(spec.eps_list, _per_eps(spec, threads, report,
                                                           _lifespan_one)) if s is not None}
    report.notes += [f"eps = {r['eps']} never left the bootstrap window by "
                     f"t = {spec.base.t_final}; raise t_final"
                     for r in report.summary_rows if r["status"] == "no_exit"]
    riccati = {e: fit for e, (_, _, fit) in series.items() if fit is not None}
    ordered = [r["exit_time"] for r in report.summary_rows]
    report.extras["exit_times"] = {_eps_tag(e): t for e, t in zip(spec.eps_list, ordered)
                                   if t is not None}
    report.extras["riccati"] = {_eps_tag(e): v for e, v in riccati.items()}
    report.extras["calpha_series"] = {
        _eps_tag(e): {"t": t, "calpha": y} for e, (t, y, _) in series.items()
    }
    report.tables["calpha_vs_t.csv"] = [("eps", "t", "calpha")] + [
        (e, t, y) for e, (times, ys, _) in series.items() for t, y in zip(times, ys)]
    monotone = (all(t is not None for t in ordered)
                and all(a < b for a, b in zip(ordered, ordered[1:])))
    report.assertions.append({
        "name": "exit_monotone",
        "ok": monotone,
        "detail": f"exit times {ordered} for eps {spec.eps_list} "
                  "(must increase as eps decreases)",
    })
    fits_ok = (len(riccati) == len(spec.eps_list)
               and all(np.isfinite(v["C"]) and v["r2"] >= RICCATI_R2_MIN
                       for v in riccati.values()))
    report.assertions.append({
        "name": "riccati_fit",
        "ok": fits_ok,
        "detail": {k: {"C": round(v["C"], 6), "r2": round(v["r2"], 6)}
                   for k, v in riccati.items()},
    })


# --------------------------------------------------------- inequalities

def _run_inequalities(spec, threads, report):
    seeds = [spec.base.seed + k for k in range(SUITE_SEEDS)]
    suites = _map_runs(seeds, _run_suite_seed, threads)
    for rep in suites:
        row = _fresh_row(None)
        row["status"] = "ok" if not rep.errors and all(
            r.passed for r in rep.results) else "failed: checker violations"
        report.summary_rows.append(row)
    merged = SuiteReport(seed=seeds[0], count=SUITE_COUNT,
                         results=[r for rep in suites for r in rep.results],
                         errors=[e for rep in suites for e in rep.errors])
    records = merged.records()
    report.tables["suite.ndjson"] = records
    report.extras["max_ratios"] = merged.max_ratios()
    report.tables["max_ratios.csv"] = [("name", "max_ratio", "bound")] + [
        tuple(r.values()) for r in report.extras["max_ratios"]]
    report.extras["checker_errors"] = [list(e) for e in merged.errors]
    report.assertions.append({
        "name": "suite_all_pass",
        "ok": not merged.errors and all(r["pass"] for r in records),
        "detail": f"{sum(r['pass'] for r in records)}/{len(records)} checks passed, "
                  f"{len(merged.errors)} errors, seeds {seeds[0]}..{seeds[-1]}",
    })


# ------------------------------------------------------------- dispatch

_DRIVERS = {
    "stability": _run_stability,
    "wasserstein": _run_wasserstein,
    "corrector": _run_corrector,
    "lifespan": _run_lifespan,
    "inequalities": _run_inequalities,
}

# the scipy modules only a driver's workers load (the exact LP, the check
# bundle's flows); imported before a pool forks, the workers share them
_WORKER_SCIPY = {
    "wasserstein": ("scipy.optimize", "scipy.sparse"),
    "inequalities": ("scipy.ndimage",),
}


def run_experiment(spec: ExperimentSpec, threads: int = 1) -> ExperimentReport:
    """Execute one experiment and evaluate its acceptance gates."""
    if not isinstance(spec, ExperimentSpec):
        raise TypeError("run_experiment needs an ExperimentSpec")
    if threads < 1:
        raise ValueError("threads must be >= 1")
    report = ExperimentReport(kind=spec.kind, eps_list=list(spec.eps_list))
    if threads > 1:
        for name in _WORKER_SCIPY.get(spec.kind, ()):
            importlib.import_module(name)
    _DRIVERS[spec.kind](spec, threads, report)
    return _finalize(report)


# ------------------------------------------------------------- emission

def emit_report(report: ExperimentReport, out_dir) -> list:
    """Write each run's NDJSON diagnostics, summary.csv, every table of the
    report and report.json, for every kind alike.

    Returns the list of paths written. Identical reports produce
    byte-identical files.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    summary = [SUMMARY_COLUMNS] + [[r[k] for k in SUMMARY_COLUMNS] for r in report.summary_rows]
    if report.fit is not None:
        summary.append(["fit", None, None, None, report.fit["slope"],
                        report.fit["stderr"], report.status])
    elif not report.summary_rows:
        summary.append([None, None, None, None, None, None, "failed"])
    tables = {f"{tag}.ndjson": [vars(rec) for rec in traj.diagnostics]
              for tag, traj in report.runs.items()}
    written = []
    for name, rows in (tables | {"summary.csv": summary} | report.tables).items():
        write_table(out / name, rows)
        written.append(out / name)
    payload = {
        "kind": report.kind,
        "eps_list": report.eps_list,
        "status": report.status,
        "fit": report.fit,
        "assertions": report.assertions,
        "notes": report.notes,
        "summary": [{k: r[k] for k in SUMMARY_COLUMNS} for r in report.summary_rows],
        "extras": report.extras,
    }
    write_text(out / "report.json", json.dumps(json_value(payload), indent=2) + "\n")
    return written + [out / "report.json"]

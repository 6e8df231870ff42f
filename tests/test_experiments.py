"""Experiment driver tests at small scale: fits, window exclusion,
emission schema, and byte determinism."""

import csv
import json
import pickle
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from sglab import experiments
from sglab import inequalities as ineq
from sglab.config import EXPERIMENT_KINDS, ConfigError, ExperimentSpec, RunConfig
from sglab.elliptic import EllipticConvergenceError, EllipticDivergenceError
from sglab.experiments import (
    ExperimentReport,
    LIFESPAN_NOTE,
    SUMMARY_COLUMNS,
    _eps_tag,
    _map_runs,
    _w2_sample_indices,
    emit_report,
    ols_loglog,
    riccati_fit,
    run_experiment,
)
from sglab.spectral import MeanViolationError
from sglab.transport import StepSizeError, run_simulation
from sglab.wasserstein import W2ConvergenceError

SUMMARY_HEADER = "eps,sup_velocity_gap,sup_w2,exit_time,slope,slope_stderr,status"


def small_base(datum, **kw):
    return RunConfig(n=32, t_final=0.1, sample_interval=0.05,
                     initial_data=datum, **kw)


SMALL_LIFESPAN_BASE = RunConfig(n=32, t_final=2.0, sample_interval=0.5, model="SGeps",
                                initial_data="steep", stop_on_exit=True)


def emitted_bytes(report, out_dir):
    return {Path(p).name: Path(p).read_bytes() for p in emit_report(report, out_dir)}


def assert_thread_counts_agree(spec, tmp_path, reports):
    """Every file emit_report writes is byte-identical at threads 1, 2, 3."""
    for threads in (1, 2, 3):
        if threads not in reports:
            reports[threads] = run_experiment(spec, threads=threads)
    files = {t: emitted_bytes(rep, tmp_path / f"threads{t}")
             for t, rep in reports.items()}
    assert files[1]
    assert files[1] == files[2] == files[3]


def w2_streams(report):
    """The report's w2_eps<tag>.ndjson tables, file name -> rows."""
    return {name: rows for name, rows in report.tables.items() if name.startswith("w2_eps")}


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture(scope="module")
def mild_stability():
    spec = ExperimentSpec(kind="stability", eps_list=[0.04, 0.02, 0.01],
                          base=small_base("mild"))
    return spec, run_experiment(spec, threads=2)


@pytest.fixture(scope="module")
def kind_reports(mild_stability):
    """One small report of each experiment kind; the inequality suite runs
    one seed with one round per checker."""
    reports = {"stability": mild_stability[1]}
    for kind in ("wasserstein", "corrector"):
        spec = ExperimentSpec(kind=kind, eps_list=[0.04, 0.02, 0.01],
                              base=small_base("mild"))
        reports[kind] = run_experiment(spec, threads=2)
    reports["lifespan"] = run_experiment(
        ExperimentSpec(kind="lifespan", eps_list=[0.2, 0.1, 0.05],
                       base=SMALL_LIFESPAN_BASE), threads=2)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(experiments, "SUITE_SEEDS", 1)
        mp.setattr(experiments, "SUITE_COUNT", 1)
        reports["inequalities"] = run_experiment(
            ExperimentSpec(kind="inequalities", base=small_base("mild")))
    return reports


class TestOlsLoglog:
    def test_exact_power_law(self):
        eps = [0.08, 0.04, 0.02]
        slope, stderr = ols_loglog(eps, [3.0 * e ** 1.7 for e in eps])
        assert abs(slope - 1.7) < 1e-12
        assert stderr < 1e-10

    def test_two_points_zero_stderr(self):
        slope, stderr = ols_loglog([0.04, 0.02], [0.04, 0.02])
        assert abs(slope - 1.0) < 1e-12
        assert stderr == 0.0

    def test_rejects_short_or_nonpositive(self):
        with pytest.raises(ValueError):
            ols_loglog([0.04], [1.0])
        with pytest.raises(ValueError):
            ols_loglog([0.04, 0.02], [1.0, 0.0])


class TestRiccatiFit:
    def test_recovers_planted_rate(self):
        # exact solution of y' = C m0 y (1 + log(y/m0)) for y >= m0:
        # log(1 + log(y/m0)) is linear in t with slope C*m0
        m0, c = 2.0, 0.3
        t = np.linspace(0.0, 1.5, 25)
        y = m0 * np.exp(np.exp(c * m0 * t) - 1.0)
        c_fit, stderr, r2 = riccati_fit(t, y)
        assert abs(c_fit - c) < 1e-9
        assert stderr < 1e-9
        assert r2 > 1.0 - 1e-10

    def test_decaying_series_finite(self):
        t = np.linspace(0.0, 2.0, 30)
        y = 2.0 * np.exp(-0.4 * t)
        c_fit, _, r2 = riccati_fit(t, y)
        assert abs(c_fit + 0.2) < 1e-9
        assert r2 > 1.0 - 1e-10

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            riccati_fit([0.0, 0.1, 0.2], [1.0, 1.1, 1.2])
        with pytest.raises(ValueError):
            riccati_fit([0.0, 0.1, 0.2, 0.3], [1.0, -1.0, 1.0, 1.0])


class TestStabilityDriver:
    def test_all_in_window(self, mild_stability):
        _, rep = mild_stability
        assert rep.status == "passed"
        assert rep.fit["eps_used"] == [0.04, 0.02, 0.01]
        assert rep.fit["stderr"] > 0.0
        assert [a["name"] for a in rep.assertions] == ["velocity_slope"]
        gaps = [r["sup_velocity_gap"] for r in rep.summary_rows]
        assert gaps[0] > gaps[1] > gaps[2] > 0.0

    def test_window_exclusion(self):
        # the default datum has grad_linf ~ 11, so eps = 0.04 starts outside
        spec = ExperimentSpec(kind="stability", eps_list=[0.04, 0.02, 0.01],
                              base=small_base("default"))
        rep = run_experiment(spec, threads=2)
        assert [r["status"] for r in rep.summary_rows] == \
            ["outside_window", "ok", "ok"]
        assert rep.fit["eps_used"] == [0.02, 0.01]
        assert rep.fit["stderr"] == 0.0
        assert any("excluded" in note for note in rep.notes)

    def test_threads_do_not_change_results(self, mild_stability, tmp_path):
        # SG runs from worker processes meet the parent's Euler run
        spec, rep2 = mild_stability
        assert_thread_counts_agree(spec, tmp_path, {2: rep2})


class TestLifespanDriver:
    def test_no_exit_fails_monotonicity(self, kind_reports):
        rep = kind_reports["lifespan"]
        assert rep.status == "failed"
        assert any(r["status"] == "no_exit" for r in rep.summary_rows)
        mono = {a["name"]: a for a in rep.assertions}["exit_monotone"]
        assert not mono["ok"]
        assert LIFESPAN_NOTE in rep.notes
        assert set(rep.runs) == {"lifespan_eps0.2", "lifespan_eps0.1",
                                 "lifespan_eps0.05"}

    def test_runs_go_out_smallest_eps_first(self, kind_reports, monkeypatch):
        # the longest-lived run starts first; neither the order of eps_list
        # nor the thread count changes a per-eps row or run. Every eps
        # driver sends its eps out in the same order
        submitted = []
        map_runs = experiments._map_runs

        def recording(items, fn, threads):
            submitted.append(list(items))
            return map_runs(items, fn, threads)

        monkeypatch.setattr(experiments, "_map_runs", recording)
        spec = ExperimentSpec(kind="lifespan", eps_list=[0.2, 0.1, 0.05],
                              base=SMALL_LIFESPAN_BASE)
        flipped = ExperimentSpec(kind="lifespan", eps_list=[0.2, 0.1, 0.05],
                                 base=SMALL_LIFESPAN_BASE)
        flipped.eps_list = [0.05, 0.1, 0.2]  # past the decreasing-order check
        want = kind_reports["lifespan"]
        reports = [run_experiment(spec, threads=1)] + [
            run_experiment(flipped, threads=t) for t in (1, 2)]
        assert submitted == [[0.05, 0.1, 0.2]] * 3
        want_rows = {r["eps"]: r for r in want.summary_rows}
        for rep in reports:
            assert {r["eps"]: r for r in rep.summary_rows} == want_rows
            assert [r["eps"] for r in rep.summary_rows] == rep.eps_list
            assert rep.extras["calpha_series"] == want.extras["calpha_series"]
            assert set(rep.runs) == set(want.runs)
            for name, traj in rep.runs.items():
                ref = want.runs[name]
                assert traj.diagnostics == ref.diagnostics
                assert (traj.times, traj.dt_history, traj.exit_reason, traj.exit_time) == (
                    ref.times, ref.dt_history, ref.exit_reason, ref.exit_time)
        for kind in ("stability", "wasserstein", "corrector"):
            submitted.clear()
            rep = run_experiment(ExperimentSpec(kind=kind, eps_list=[0.04, 0.02, 0.01],
                                                base=small_base("mild")), threads=1)
            assert submitted == [[0.01, 0.02, 0.04]]
            assert rep.summary_rows == kind_reports[kind].summary_rows


def _raise_on_odd(k):
    # module level, so pool workers can unpickle it by name
    if k % 2:
        raise W2ConvergenceError(f"item {k}", 0.5)
    return k


class _Unpicklable:
    def __init__(self, offset):
        self.offset = offset

    def __reduce__(self):
        raise TypeError("this object does not pickle")


def _add_offset(held, k):
    return k + held.offset


class TestWorkerPool:
    @pytest.mark.parametrize("spec", [
        ExperimentSpec(kind=kind, eps_list=[0.04, 0.02, 0.01], base=small_base("mild"))
        for kind in ("stability", "wasserstein", "corrector")
    ] + [
        ExperimentSpec(kind="lifespan", eps_list=[0.2, 0.1, 0.05],
                       base=SMALL_LIFESPAN_BASE),
    ], ids=["stability", "wasserstein", "corrector", "lifespan"])
    def test_threads_do_not_change_emitted_files(self, spec, tmp_path):
        assert_thread_counts_agree(spec, tmp_path, {})

    @pytest.mark.parametrize("kind", ["stability", "wasserstein", "corrector", "lifespan"])
    def test_per_eps_runs_come_back_without_states(self, kind_reports, kind):
        # at one thread and in forked workers alike, the parent gets each
        # per-eps run's records and exit fields, and no states; only the
        # Euler or Corrector reference the parent ran itself keeps them
        forked = kind_reports[kind]
        serial = run_experiment(ExperimentSpec(
            kind=kind, eps_list=forked.eps_list,
            base=SMALL_LIFESPAN_BASE if kind == "lifespan" else small_base("mild")), threads=1)
        assert set(serial.runs) == set(forked.runs)
        for name, traj in serial.runs.items():
            other = forked.runs[name]
            if name in ("euler", "corrector"):
                assert traj.states and other.states
                continue
            assert traj.states == [] and other.states == []
            assert traj.diagnostics == other.diagnostics
            assert (traj.times, traj.dt_history, traj.exit_reason, traj.exit_time) == (
                other.times, other.dt_history, other.exit_reason, other.exit_time)
            assert (traj.eps, traj.model, traj.grid, traj.m0) == (
                other.eps, other.model, other.grid, other.m0)

    def test_per_eps_analysis_runs_in_the_workers(self, monkeypatch):
        # forked workers call their own copies of these wrappers, so `seen`
        # only records the calls made in this process
        seen = []

        def recording(fn):
            def wrapper(*args, **kwargs):
                seen.append(fn.__name__)
                return fn(*args, **kwargs)
            return wrapper

        for name in ("paired_gap_series", "w2_sinkhorn"):
            monkeypatch.setattr(experiments, name, recording(getattr(experiments, name)))
        spec = ExperimentSpec(kind="wasserstein", eps_list=[0.04, 0.02, 0.01],
                              base=small_base("mild"))
        assert w2_streams(run_experiment(spec, threads=2))
        assert seen == []
        run_experiment(spec, threads=1)
        assert seen.count("paired_gap_series") == 3 and "w2_sinkhorn" in seen

    def test_worker_error_reaches_caller_with_its_type(self):
        with pytest.raises(W2ConvergenceError) as exc:
            _map_runs([0, 1, 2], _raise_on_odd, threads=2)
        assert exc.value.marginal_error == 0.5

    @pytest.mark.parametrize("err", [W2ConvergenceError("stalled", 0.5),
                                     ValueError("negative density"),
                                     ZeroDivisionError("division by zero")])
    def test_datum_error_becomes_a_failed_row_that_keeps_its_runs(self, err):
        finished = run_simulation(small_base("mild"))
        records, times = list(finished.diagnostics), list(finished.times)
        assert finished.states

        def worker(eps, runs):
            runs["sg"] = finished
            raise err

        row, runs, extra = experiments._guarded(worker, 0.03)
        name = type(err).__name__
        assert row["status"] == f"failed: {name}: {err}" and row["eps"] == 0.03
        assert runs == {"sg": finished} and extra is None
        assert finished.states == []
        assert finished.diagnostics == records and finished.times == times

    @pytest.mark.parametrize("err", [TypeError("bad call"), AttributeError("no field")])
    def test_programming_error_in_a_worker_propagates(self, err):
        def worker(eps, runs):
            raise err

        with pytest.raises(type(err)):
            experiments._guarded(worker, 0.03)

    def test_worker_function_reaches_forked_workers_unpickled(self):
        # the pool hands fn to each worker once, through its initializer;
        # under fork that is inherited, so fn itself never pickles
        fn = partial(_add_offset, _Unpicklable(10))
        with pytest.raises(TypeError):
            pickle.dumps(fn)
        assert _map_runs([0, 1, 2], fn, threads=2) == _map_runs([0, 1, 2], fn, threads=1)
        assert _map_runs([0, 1, 2], fn, threads=1) == [10, 11, 12]

    def test_pool_starts_at_most_one_worker_per_item(self, monkeypatch):
        started = []

        class RecordingPool:
            def __init__(self, max_workers, mp_context, initializer, initargs):
                started.append((max_workers, mp_context.get_start_method()))
                initializer(*initargs)  # what each forked worker runs first

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(experiments, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(experiments, "_worker", {})
        assert _map_runs([0, 2, 4], _raise_on_odd, threads=8) == [0, 2, 4]
        assert started == [(3, "fork")]
        # one worker's worth of work runs in this process
        assert _map_runs([0, 2], _raise_on_odd, threads=1) == [0, 2]
        assert _map_runs([2], _raise_on_odd, threads=8) == [2]
        assert started == [(3, "fork")]

    @pytest.mark.parametrize("err", [
        ConfigError("key 'n': bad"),
        EllipticDivergenceError("eps*||D^2 psi|| > 1/2"),
        EllipticConvergenceError("no convergence"),
        MeanViolationError("field mean 1e-3", 1e-3),
        StepSizeError("dt exceeds CFL limit"),
        W2ConvergenceError("marginal error 1e-3", 1e-3),
    ], ids=lambda err: type(err).__name__)
    def test_errors_survive_pickle(self, err):
        # a worker's error reaches the caller pickled
        back = pickle.loads(pickle.dumps(err))
        assert type(back) is type(err)
        assert back.args == err.args
        assert vars(back) == vars(err)
        assert str(back) == err.args[0]  # the CLI prints str(err)


class TestEmission:
    def test_summary_schema(self, mild_stability, tmp_path):
        _, rep = mild_stability
        written = emit_report(rep, tmp_path)
        assert all(Path(p).exists() for p in written)
        lines = (tmp_path / "summary.csv").read_text().splitlines()
        assert lines[0] == SUMMARY_HEADER
        assert len(lines) == 1 + 3 + 1  # header, one row per eps, fit row
        assert lines[-1].startswith("fit,")
        meta = json.loads((tmp_path / "report.json").read_text())
        assert meta["kind"] == "stability"
        assert meta["status"] == "passed"
        fig = (tmp_path / "velocity_gap_vs_t.csv").read_text().splitlines()
        assert fig[0] == "eps,t,velocity_gap"
        rate = (tmp_path / "rate_loglog.csv").read_text().splitlines()
        assert rate[0] == "eps,log_eps,metric,log_metric,in_fit"

    def test_rerun_is_byte_identical(self, mild_stability, tmp_path):
        spec, rep1 = mild_stability
        rep2 = run_experiment(spec, threads=2)
        d1, d2 = tmp_path / "a", tmp_path / "b"
        w1 = emit_report(rep1, d1)
        w2 = emit_report(rep2, d2)
        assert [Path(p).name for p in w1] == [Path(p).name for p in w2]
        for p1, p2 in zip(w1, w2):
            assert Path(p1).read_bytes() == Path(p2).read_bytes()

    @pytest.mark.parametrize("kind", EXPERIMENT_KINDS)
    def test_report_summary_has_only_the_summary_columns(self, kind_reports, kind,
                                                         tmp_path):
        emit_report(kind_reports[kind], tmp_path)
        summary = json.loads((tmp_path / "report.json").read_text())["summary"]
        assert summary
        assert all(list(row) == list(SUMMARY_COLUMNS) for row in summary)
        header = (tmp_path / "summary.csv").read_text().splitlines()[0]
        assert header == SUMMARY_HEADER

    @pytest.mark.parametrize("kind", ["stability", "wasserstein", "corrector"])
    def test_rate_loglog_plots_the_fitted_metric(self, kind_reports, kind, tmp_path):
        rep = kind_reports[kind]
        emit_report(rep, tmp_path)
        metric = {r["eps"]: r["metric"] for r in rep.summary_rows}
        in_fit = [r for r in read_csv(tmp_path / "rate_loglog.csv")
                  if r["in_fit"] == "True"]
        assert [float(r["eps"]) for r in in_fit] == rep.fit["eps_used"]
        for r in in_fit:
            assert float(r["metric"]) == metric[float(r["eps"])]

    def test_w2_vs_t_bound_is_the_gronwall_record(self, kind_reports, tmp_path):
        emit_report(kind_reports["wasserstein"], tmp_path)
        rows = read_csv(tmp_path / "w2_vs_t.csv")
        assert rows
        for r in rows:
            lines = (tmp_path / f"sg_eps{r['eps']}.ndjson").read_text().splitlines()
            bound = {rec["t"]: rec["gronwall_bound"] for rec in map(json.loads, lines)}
            assert float(r["gronwall_bound"]) == bound[float(r["t"])]

    def test_w2_stream_records_the_solver_iterations(self, kind_reports, tmp_path):
        rep = kind_reports["wasserstein"]
        emit_report(rep, tmp_path)
        for name, rows in w2_streams(rep).items():
            path = tmp_path / name
            recs = [json.loads(x) for x in path.read_text().splitlines()]
            assert [r["iterations"] for r in recs] == [r["iterations"] for r in rows]
            for rec in recs:
                assert list(rec) == ["t", "w2", "method", "reg", "marginal_error",
                                     "iterations"]
                assert isinstance(rec["iterations"], int) and rec["iterations"] >= 1

    @pytest.mark.parametrize("kind", EXPERIMENT_KINDS)
    def test_writes_runs_summary_tables_and_report(self, kind_reports, kind, tmp_path):
        rep = kind_reports[kind]
        names = sorted(Path(p).name for p in emit_report(rep, tmp_path))
        assert names == sorted([f"{tag}.ndjson" for tag in rep.runs] + list(rep.tables)
                               + ["summary.csv", "report.json"])
        assert names == sorted(p.name for p in tmp_path.iterdir())

    def test_empty_report_gets_failed_row(self, tmp_path):
        rep = ExperimentReport(kind="stability", eps_list=[0.04, 0.02, 0.01],
                               status="failed")
        emit_report(rep, tmp_path)
        lines = (tmp_path / "summary.csv").read_text().splitlines()
        assert lines[0] == SUMMARY_HEADER
        assert len(lines) == 2
        assert lines[1].endswith(",failed")


def test_non_finite_max_ratio_keeps_its_row(tmp_path, monkeypatch):
    # report.json holds JSON: the NaN max ratio is null there, and
    # max_ratios.csv writes its repr
    monkeypatch.setattr(experiments, "SUITE_SEEDS", 1)
    monkeypatch.setattr(experiments, "SUITE_COUNT", 1)
    monkeypatch.setitem(ineq.FIELD_CHECKS, "wente", (lambda f: float("nan"), 1.0, (0,)))
    rep = run_experiment(ExperimentSpec(kind="inequalities", base=small_base("mild")))
    emit_report(rep, tmp_path)

    def no_constant(token):
        raise AssertionError(f"{token} in report.json")

    payload = json.loads((tmp_path / "report.json").read_text(), parse_constant=no_constant)
    assert {"name": "wente", "max_ratio": None, "bound": 1.0} in payload["extras"]["max_ratios"]
    assert {"name": "wente", "max_ratio": "nan", "bound": "1.0"} in read_csv(
        tmp_path / "max_ratios.csv")
    assert payload["status"] == "failed"


def test_corrector_experiment_runs_one_corrector(monkeypatch):
    # the corrector pair is eps-free: the parent runs it once, at eps 0,
    # and every eps's worker reads its states
    made = []
    original = experiments.run_simulation

    def counting(cfg):
        made.append(cfg.model)
        return original(cfg)

    monkeypatch.setattr(experiments, "run_simulation", counting)
    base = small_base("mild")
    rep = run_experiment(ExperimentSpec(kind="corrector", eps_list=[0.04, 0.02, 0.01],
                                        base=base), threads=1)
    assert {m: made.count(m) for m in set(made)} == {"SGeps": 3, "Corrector": 1}
    corr = rep.runs["corrector"]
    fresh = original(replace(base, model="Corrector"))
    assert corr.states and corr.eps == 0.0
    assert corr.diagnostics == fresh.diagnostics
    assert (corr.times, corr.dt_history) == (fresh.times, fresh.dt_history)
    assert all(d.grad_margin == 0.25 for d in corr.diagnostics)


@pytest.mark.parametrize("kind", ["stability", "wasserstein"])
@pytest.mark.parametrize("threads", [1, 2])
def test_euler_labels_are_advected_once_per_experiment(kind, threads, monkeypatch):
    # the parent advects the Euler reference's labels before the pool
    # forks, and each eps's worker only its own SG run's; forked workers
    # record into their own copies of `models`
    models = []
    original = experiments.sample_flows

    def recording(traj, m, dt=None):
        models.append(traj.model)
        return original(traj, m, dt)

    monkeypatch.setattr(experiments, "sample_flows", recording)
    run_experiment(ExperimentSpec(kind=kind, eps_list=[0.04, 0.02, 0.01],
                                  base=small_base("mild")), threads=threads)
    expected = {"Euler": 1, "SGeps": 3} if threads == 1 else {"Euler": 1}
    assert {m: models.count(m) for m in set(models)} == expected


def test_every_eps_reads_the_same_euler_flows(monkeypatch):
    # fast flows whose particle CFL limit (about 3.5e-2) is below the 0.1
    # sample interval: each run steps at its own limit, so the Euler flow
    # is one flow, whatever SG run it is compared with
    flows = []
    original = experiments.paired_gap_series

    def recording(traj_a, traj_b, flows_a, flows_b):
        flows.append(flows_b)
        return original(traj_a, traj_b, flows_a, flows_b)

    monkeypatch.setattr(experiments, "paired_gap_series", recording)
    base = RunConfig(n=32, t_final=1, sample_interval=0.1,
                     initial_data=[[1, 1, 4.0, 0.0], [1, -1, 4.0, 0.0], [2, 1, 5.6, 0.0]])
    rep = run_experiment(ExperimentSpec(kind="stability", eps_list=[0.043, 0.02, 0.01],
                                        base=base), threads=1)
    assert rep.summary_rows[0]["status"].startswith("failed")
    own = experiments.sample_flows(rep.runs["euler"], 16)
    assert len(flows) == 2 and len(own) == 11
    for got in flows:
        for a, b in zip(got, own, strict=True):
            assert a.time == b.time
            assert a.positions_x.tobytes() == b.positions_x.tobytes()
            assert a.positions_y.tobytes() == b.positions_y.tobytes()


def test_consistency_gate_needs_a_residual():
    # at eps >= 1 every SG run ends in elliptic_divergence at t = 0, so no
    # eps closes the consistency identity; the gate used to pass on an
    # empty max's default of 0.0
    base = RunConfig(n=32, t_final=0.1, sample_interval=0.05)
    rep = run_experiment(ExperimentSpec(kind="corrector", eps_list=[3.0, 2.0, 1.0], base=base))
    assert all(r["status"] == "failed: elliptic_divergence" for r in rep.summary_rows)
    gate = next(a for a in rep.assertions if a["name"] == "elliptic_consistency")
    assert not gate["ok"]
    assert gate["detail"] == "no eps produced a residual: every eps failed"
    assert rep.extras["consistency_residual"] is None


class TestEpsTags:
    def test_tags_read_as_g_on_short_eps(self):
        for eps in (0.2, 0.1, 0.05, 0.21, 0.19, 0.08, 0.04, 0.02, 0.01):
            assert _eps_tag(eps) == f"{eps:g}"
        assert _eps_tag(0.2000001) != _eps_tag(0.2)

    def test_close_eps_keep_their_own_runs(self, tmp_path):
        # 0.04000001 and 0.04 agree to six significant digits
        eps_list = [0.04000001, 0.04, 0.02]
        base = RunConfig(n=32, t_final=0.05, sample_interval=0.05, initial_data="mild")
        rep = run_experiment(ExperimentSpec(kind="corrector", eps_list=eps_list, base=base))
        names = {Path(p).name for p in emit_report(rep, tmp_path)}
        assert {n for n in names if n.startswith("sg_eps")} == {
            f"sg_eps{_eps_tag(e)}.ndjson" for e in eps_list}
        assert [rep.runs[f"sg_eps{_eps_tag(e)}"].eps for e in eps_list] == eps_list
        assert {n for n in names if n.startswith("corrector")} == {"corrector.ndjson"}
        assert [r["eps"] for r in rep.summary_rows] == eps_list

    def test_close_eps_keep_their_own_lifespan_extras(self, tmp_path):
        eps_list = [0.2000001, 0.2, 0.19]
        rep = run_experiment(ExperimentSpec(kind="lifespan", eps_list=eps_list,
                                            base=SMALL_LIFESPAN_BASE))
        emit_report(rep, tmp_path)
        tags = [_eps_tag(e) for e in eps_list]
        assert list(rep.extras["calpha_series"]) == tags
        assert sorted(rep.extras["riccati"]) == sorted(tags)
        rows = read_csv(tmp_path / "calpha_vs_t.csv")
        for eps in eps_list:
            series = [float(r["calpha"]) for r in rows if float(r["eps"]) == eps]
            fresh = run_simulation(replace(SMALL_LIFESPAN_BASE, eps=eps))
            assert series == [s.calpha for s in fresh.states]
        assert rep.extras["calpha_series"][tags[0]] != rep.extras["calpha_series"][tags[1]]


class TestSampleIndices:
    def test_picks_tenth_multiples(self):
        times = [0.05 * k for k in range(11)]
        idx = _w2_sample_indices(times)
        assert idx == [0, 2, 4, 6, 8, 10]

    def test_skips_offgrid_times(self):
        assert _w2_sample_indices([0.0, 0.07, 0.13, 0.2]) == [0, 3]

    def test_keeps_the_final_sample(self):
        assert _w2_sample_indices([0.05 * k for k in range(6)]) == [0, 2, 4, 5]

    def test_final_time_off_the_grid_is_fitted(self):
        # t_final 0.25 is no multiple of the W2 spacing: its W2 is still
        # measured, so the in-window runs (eps 0.02, 0.01) get a metric
        base = RunConfig(n=32, t_final=0.25, sample_interval=0.05,
                         initial_data="default")
        rep = run_experiment(ExperimentSpec(kind="wasserstein",
                                            eps_list=[0.04, 0.02, 0.01], base=base))
        assert [[r["t"] for r in s] for s in w2_streams(rep).values()] == [
            [0.0, 0.1, 0.2, 0.25]] * 3
        assert rep.fit["eps_used"] == [0.02, 0.01]
        assert all(r["metric"] > 0 for r in rep.summary_rows)
        gate = next(a for a in rep.assertions if a["name"] == "w2_slope")
        assert gate["detail"].startswith("slope ")


def test_run_experiment_validates_inputs(mild_stability):
    spec, _ = mild_stability
    with pytest.raises(TypeError):
        run_experiment(spec.base)
    with pytest.raises(ValueError):
        run_experiment(spec, threads=0)

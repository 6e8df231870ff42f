"""CLI verb coverage: exit codes, emitted files, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sglab.experiments as experiments
import sglab.inequalities as ineq
from sglab.cli import EXIT_ASSERTION, EXIT_INFRA, EXIT_OK, main


def write_json(path, obj):
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


@pytest.fixture()
def run_cfg(tmp_path):
    return write_json(tmp_path / "run.json", {
        "n": 32, "model": "SGeps", "eps": 0.05, "t_final": 0.1,
        "sample_interval": 0.05, "initial_data": "mild",
        "output_dir": str(tmp_path / "out"),
    })


@pytest.fixture()
def exp_cfg(tmp_path):
    return write_json(tmp_path / "exp.json", {
        "kind": "stability", "eps_list": [0.04, 0.02, 0.01],
        "base": {"n": 32, "model": "Euler", "eps": 0.0, "t_final": 0.1,
                 "sample_interval": 0.05, "initial_data": "mild",
                 "output_dir": str(tmp_path / "exp_out")},
    })


def assert_failed_row(out, eps, reason):
    """out holds a full report whose eps row failed with reason."""
    rows = {r["eps"]: r["status"] for r in
            json.loads((out / "report.json").read_text())["summary"]}
    assert rows[eps] == f"failed: {reason}"
    assert f"{eps!r},,,,,,failed: {reason}" in (out / "summary.csv").read_text().splitlines()


class TestRunVerb:
    def test_writes_diagnostics(self, run_cfg, tmp_path):
        assert main(["run", "--config", run_cfg]) == EXIT_OK
        lines = (tmp_path / "out" / "run.ndjson").read_text().splitlines()
        first = json.loads(lines[0])
        assert first["t"] == 0.0
        assert first["inside"] is True
        meta = json.loads((tmp_path / "out" / "run.json").read_text())
        assert meta["model"] == "SGeps"
        assert meta["exit_reason"] is None

    def test_out_and_seed_flags(self, run_cfg, tmp_path, capsys):
        out = tmp_path / "elsewhere"
        assert main(["run", "--config", run_cfg, "--out", str(out)]) == EXIT_OK
        assert (out / "run.ndjson").exists()
        # the run verbs have no seed to set: run_simulation draws nothing
        for verb in ("run", "dump"):
            assert main([verb, "--config", run_cfg, "--seed", "7"]) == EXIT_INFRA
            assert "unrecognized arguments: --seed 7" in capsys.readouterr().err

    def test_rejects_experiment_config(self, exp_cfg):
        assert main(["run", "--config", exp_cfg]) == EXIT_INFRA

    def test_divergence_at_t0_leaves_summary(self, tmp_path, capsys):
        # ||D^2 psi||_Linf of the Poisson seed is 1, so eps = 0.6 trips the
        # divergence guard in the t = 0 solve
        out = tmp_path / "div0"
        cfg = write_json(tmp_path / "div0.json", {
            "n": 32, "model": "SGeps", "eps": 0.6, "t_final": 0.1,
            "sample_interval": 0.05, "initial_data": "default",
            "output_dir": str(out),
        })
        for verb in ("run", "dump"):
            assert main([verb, "--config", cfg, "--out", str(out / verb)]) == EXIT_INFRA
            assert (out / verb / "run.ndjson").read_text() == ""
            meta = json.loads((out / verb / "run.json").read_text())
            assert meta["samples"] == 0 and meta["steps"] == 0
            assert meta["exit_reason"] == "elliptic_divergence"
            assert meta["exit_time"] == 0.0
            assert meta["final_t"] is meta["final_l2_rho"] is meta["final_grad_margin"] is None
        assert "elliptic_divergence" in capsys.readouterr().out

    def test_divergence_mid_run_leaves_partial_ndjson(self, tmp_path):
        # a fast-straining datum at eps * ||D^2 psi||_Linf ~ 0.47: the
        # Hessian grows until the solve leaves its contraction region
        out = tmp_path / "div"
        cfg = write_json(tmp_path / "div.json", {
            "n": 32, "model": "SGeps", "eps": 0.043, "t_final": 1.0,
            "sample_interval": 0.1,
            "initial_data": [[1, 1, 4.0, 0.0], [1, -1, 4.0, 0.0], [2, 1, 5.6, 0.0]],
            "output_dir": str(out),
        })
        assert main(["run", "--config", cfg]) == EXIT_INFRA
        meta = json.loads((out / "run.json").read_text())
        assert meta["exit_reason"] == "elliptic_divergence"
        assert 0.0 < meta["exit_time"] < 1.0
        lines = (out / "run.ndjson").read_text().splitlines()
        assert 1 < len(lines) == meta["samples"] < 11
        times = [json.loads(line)["t"] for line in lines]
        assert times == sorted(times) and times[-1] <= meta["exit_time"]
        assert meta["final_t"] == times[-1]

    def test_aborted_dump_checkpoints_the_exit_state(self, tmp_path):
        # the divergence above; the checkpoint is the last completed state
        cfg = write_json(tmp_path / "div.json", {
            "n": 32, "model": "SGeps", "eps": 0.043, "t_final": 1.0,
            "sample_interval": 0.1,
            "initial_data": [[1, 1, 4.0, 0.0], [1, -1, 4.0, 0.0], [2, 1, 5.6, 0.0]],
        })
        run, ckpt = tmp_path / "run", tmp_path / "ckpt"
        assert main(["run", "--config", cfg, "--out", str(run)]) == EXIT_INFRA
        assert main(["dump", "--config", cfg, "--out", str(ckpt)]) == EXIT_INFRA
        meta = json.loads((run / "run.json").read_text())
        sidecar = json.loads((ckpt / "checkpoint.json").read_text())
        assert sidecar["time"] == meta["exit_time"] == meta["final_t"]
        assert sidecar["step"] == meta["steps"]
        last = json.loads((run / "run.ndjson").read_text().splitlines()[-1])
        assert last["t"] == meta["exit_time"]

    def test_stall_after_t0_leaves_partial_ndjson(self, run_cfg, tmp_path, monkeypatch):
        # the t = 0 solve, the first call, runs as usual; every RK4 stage
        # solve after it gets one Picard sweep, which cannot reach the
        # tolerance, so the first step stalls
        from sglab import transport
        from dataclasses import fields

        from sglab.transport import DiagnosticsRecord

        picard, calls = transport._picard, []

        def one_sweep_after_t0(*a, **k):
            calls.append(k.get("start"))
            return picard(*a, **(k if len(calls) == 1 else {**k, "max_iter": 1}))

        monkeypatch.setattr(transport, "_picard", one_sweep_after_t0)
        out = tmp_path / "out"
        assert main(["run", "--config", run_cfg]) == EXIT_INFRA
        assert calls[0] is None and len(calls) == 2  # the cold t = 0 solve, one stage
        meta = json.loads((out / "run.json").read_text())
        assert meta["exit_reason"] == "elliptic_stall"
        assert meta["exit_time"] == 0.0 and meta["steps"] == 0
        lines = (out / "run.ndjson").read_text().splitlines()
        assert len(lines) == meta["samples"] == 1  # a full run has 3
        rec = json.loads(lines[0])
        assert list(rec) == [f.name for f in fields(DiagnosticsRecord)]
        assert rec["t"] == meta["final_t"] == 0.0
        assert rec["l2_rho"] == meta["final_l2_rho"] > 0

    def test_rejects_bad_config(self, tmp_path):
        bad = write_json(tmp_path / "bad.json", {"n": 48, "model": "Euler"})
        assert main(["run", "--config", bad]) == EXIT_INFRA
        assert main(["run", "--config", str(tmp_path / "nope.json")]) == EXIT_INFRA

    # Python's json reads NaN, Infinity and integers beyond float range;
    # each used to be accepted or to end in a traceback
    @pytest.mark.parametrize("text", [
        '{"eps": NaN}',
        '{"t_final": Infinity}',
        '{"sample_interval": Infinity}',
        '{"eps": 1%s}' % ("0" * 400),
        '{"initial_data": [[1, 0, NaN, 0]]}',
        '{"initial_data": [[Infinity, 0, 1, 0]]}',
        '{"initial_data": [[NaN, 0, 1, 0]]}',
        '{"initial_data": [[1, 0, 1%s, 0]]}' % ("0" * 400),
        '{"kind": "stability", "eps_list": [1%s, 0.2, 0.1]}' % ("0" * 400),
        '{"kind": "inequalities", "eps_list": [NaN]}',
    ])
    def test_rejects_non_finite_numbers(self, tmp_path, capsys, text):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text, encoding="utf-8")
        verb = "experiment" if "kind" in text else "run"
        assert main([verb, "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_INFRA
        assert "finite" in capsys.readouterr().err

    def test_mode_row_above_the_band_is_rejected(self, tmp_path, capsys):
        # p = 40 > 64/3: dealiasing used to zero the row and the run went on
        # from a roundoff datum (l2_rho 7.9e-17)
        out = tmp_path / "band"
        cfg = write_json(tmp_path / "band.json", {"n": 64, "initial_data": [[40, 0, 1.0, 0.0]]})
        assert main(["run", "--config", cfg, "--out", str(out)]) == EXIT_INFRA
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: key 'initial_data': mode row [40, 0, 1.0, 0.0]")
        assert "2/3 band" in err
        assert not (out / "run.ndjson").exists()

    @pytest.mark.parametrize("verb, kind", [("run", None), ("dump", None),
                                            ("experiment", "corrector"),
                                            ("experiment", "stability")])
    @pytest.mark.parametrize("datum, message", [
        ([[20, 0, 1.0, 0.0]], "mode row [20, 0, 1.0, 0.0] lies above the 2/3 band"),
        ("nonsense", "unknown preset 'nonsense'"),
    ])
    def test_bad_datum_fails_when_parsed(self, tmp_path, capfd, verb, kind, datum, message):
        # a corrector experiment used to fork a worker per eps, print one
        # error per eps and write a failed report; every verb now stops at
        # the config with one line and writes nothing
        run = {"n": 32, "t_final": 0.1, "sample_interval": 0.05, "initial_data": datum}
        obj = run if kind is None else {"kind": kind, "eps_list": [0.08, 0.04, 0.02],
                                        "base": run}
        cfg = write_json(tmp_path / "bad.json", obj)
        out = tmp_path / "out"
        threads = ["--threads", "3"] if kind else []
        assert main([verb, "--config", cfg, "--out", str(out), *threads]) == EXIT_INFRA
        std = capfd.readouterr()
        assert std.out == ""
        assert std.err.count("\n") == 1
        assert std.err.startswith(f"error: key 'initial_data': {message}")
        assert not out.exists()


# Runs in a fresh interpreter: the run verb and a lifespan experiment load
# no scipy module; a particle flow loads scipy.ndimage and the exact LP
# scipy.optimize, each on its first call.
SCIPY_ON_DEMAND = """
import json, sys
from pathlib import Path
import numpy as np

def loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

from sglab.cli import main
tmp = Path(sys.argv[1])
(tmp / "run.json").write_text(json.dumps({
    "n": 32, "model": "SGeps", "eps": 0.05, "t_final": 0.1,
    "sample_interval": 0.05, "initial_data": "mild"}))
(tmp / "life.json").write_text(json.dumps({
    "kind": "lifespan", "eps_list": [0.2, 0.1, 0.05],
    "base": {"n": 32, "model": "SGeps", "t_final": 0.5, "sample_interval": 0.25,
             "initial_data": "steep", "stop_on_exit": True}}))
assert main(["run", "--config", str(tmp / "run.json"), "--out", str(tmp / "r")]) == 0
main(["experiment", "--config", str(tmp / "life.json"), "--out", str(tmp / "l"),
      "--threads", "1"])
assert loaded() == [], loaded()

from sglab.config import RunConfig
from sglab.lagrangian import TrajectoryVelocity, advect_flow, label_flow
from sglab.transport import run_simulation
from sglab.wasserstein import DensityOnTorus, w2_exact_small
traj = run_simulation(RunConfig(n=32, t_final=0.1, sample_interval=0.05,
                                initial_data="mild"))
advect_flow(TrajectoryVelocity(traj), label_flow(4), 0.0, 0.05, 0.01)
assert "scipy.ndimage" in sys.modules, loaded()
w = np.ones((8, 8))
w2_exact_small(DensityOnTorus(8, w / w.sum()), DensityOnTorus(8, (w + np.eye(8)) / (w.sum() + 8)))
assert "scipy.optimize" in sys.modules, loaded()
"""


def test_scipy_loads_only_for_particles_and_the_lp(tmp_path):
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-c", SCIPY_ON_DEMAND, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


class TestUsage:
    @pytest.mark.parametrize("argv", [
        [],
        ["run"],
        ["frobnicate"],
        ["check", "--bogus"],
        ["experiment", "--config", "x.json", "--threads", "two"],
    ])
    def test_usage_error_exits_3_with_one_error_line(self, capsys, argv):
        assert main(argv) == EXIT_INFRA
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: sglab")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("argv", [["--help"], ["run", "--help"]])
    def test_help_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_OK
        assert "usage: sglab" in capsys.readouterr().out

    def test_interrupt_exits_3(self, run_cfg, capsys, monkeypatch):
        def interrupted(cfg):
            raise KeyboardInterrupt

        monkeypatch.setattr("sglab.cli.run_simulation", interrupted)
        assert main(["run", "--config", run_cfg]) == EXIT_INFRA
        assert capsys.readouterr().err == "error: interrupted\n"


class TestExperimentVerb:
    def test_passing_experiment(self, exp_cfg, tmp_path, capsys):
        assert main(["experiment", "--config", exp_cfg, "--threads", "2"]) == EXIT_OK
        out = tmp_path / "exp_out"
        header = (out / "summary.csv").read_text().splitlines()[0]
        assert header == "eps,sup_velocity_gap,sup_w2,exit_time,slope,slope_stderr,status"
        assert json.loads((out / "report.json").read_text())["status"] == "passed"
        assert "[pass] velocity_slope" in capsys.readouterr().out

    def test_failed_assertion_exits_2(self, tmp_path):
        # too-short lifespan horizon: no bootstrap exits, monotonicity fails
        cfg = write_json(tmp_path / "life.json", {
            "kind": "lifespan", "eps_list": [0.2, 0.1, 0.05],
            "base": {"n": 32, "model": "SGeps", "t_final": 2.0,
                     "sample_interval": 0.5, "initial_data": "steep",
                     "stop_on_exit": True,
                     "output_dir": str(tmp_path / "life_out")},
        })
        assert main(["experiment", "--config", cfg, "--threads", "2"]) == EXIT_ASSERTION

    def test_byte_identical_rerun(self, exp_cfg, tmp_path):
        a, b = tmp_path / "r1", tmp_path / "r2"
        assert main(["experiment", "--config", exp_cfg, "--out", str(a)]) == EXIT_OK
        assert main(["experiment", "--config", exp_cfg, "--out", str(b)]) == EXIT_OK
        names = sorted(p.name for p in a.iterdir())
        assert names == sorted(p.name for p in b.iterdir())
        for name in names:
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_rejects_run_config(self, run_cfg):
        assert main(["experiment", "--config", run_cfg]) == EXIT_INFRA

    def test_rejects_slope_window(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "win.json", {
            "kind": "stability", "eps_list": [0.04, 0.02, 0.01],
            "slope_window": [0, 1]})
        assert main(["experiment", "--config", cfg]) == EXIT_INFRA
        assert "unknown key(s) ['slope_window']" in capsys.readouterr().err

    # the inequality suite fixes its own eps, grid and runs; it reads only
    # base.seed and base.output_dir
    @pytest.mark.parametrize("extra, named", [
        ({"eps_list": [0.02]}, "key 'eps_list'"),
        ({"base": {"seed": 1, "n": 32}}, "base key(s) ['n']"),
        ({"base": {"model": "SGeps", "eps": 0.1}}, "base key(s) ['eps', 'model']"),
    ])
    def test_inequalities_rejects_keys_it_ignores(self, tmp_path, capsys, extra, named):
        cfg = write_json(tmp_path / "ineq.json", {"kind": "inequalities", **extra})
        assert main(["experiment", "--config", cfg, "--out", str(tmp_path)]) == EXIT_INFRA
        assert named in capsys.readouterr().err

    def test_divergence_at_t0_is_infra_error(self, tmp_path):
        cfg = write_json(tmp_path / "life0.json", {
            "kind": "lifespan", "eps_list": [0.6, 0.5, 0.4],
            "base": {"n": 32, "model": "SGeps", "t_final": 0.1,
                     "sample_interval": 0.05, "initial_data": "default",
                     "output_dir": str(tmp_path / "life0_out")},
        })
        assert main(["experiment", "--config", cfg]) == EXIT_INFRA
        assert_failed_row(tmp_path / "life0_out", 0.6, "elliptic_divergence")

    def test_divergence_at_t0_in_worker_is_infra_error(self, tmp_path, capfd):
        # the solve diverges inside a worker process; its error must
        # reach main() with its own type, not as a broken pool
        cfg = write_json(tmp_path / "life0.json", {
            "kind": "lifespan", "eps_list": [0.6, 0.5, 0.4],
            "base": {"n": 32, "model": "SGeps", "t_final": 0.1,
                     "sample_interval": 0.05, "initial_data": "default",
                     "output_dir": str(tmp_path / "life0_out")},
        })
        assert main(["experiment", "--config", cfg, "--threads", "2"]) == EXIT_INFRA
        err = capfd.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err
        assert_failed_row(tmp_path / "life0_out", 0.6, "elliptic_divergence")

    def test_failed_eps_keeps_the_others(self, tmp_path, capfd):
        # eps 3.0 fails its t = 0 solve; eps 0.04 and 0.02 still get their
        # runs and W2 streams, byte for byte as in a spec without eps 3.0
        def spec(eps_list):
            return write_json(tmp_path / "w2.json", {
                "kind": "wasserstein", "eps_list": eps_list,
                "base": {"n": 32, "t_final": 0.2, "sample_interval": 0.05,
                         "initial_data": "default"}})

        ref = tmp_path / "ref"
        main(["experiment", "--config", spec([0.04, 0.02, 0.01]), "--out", str(ref)])
        cfg = spec([3.0, 0.04, 0.02])
        files = {}
        for threads in ("1", "3"):
            out = tmp_path / f"threads{threads}"
            capfd.readouterr()
            assert main(["experiment", "--config", cfg, "--out", str(out),
                         "--threads", threads]) == EXIT_INFRA
            err = capfd.readouterr().err
            assert err == "error: sg_eps3.0: elliptic_divergence at t=0\n"
            assert_failed_row(out, 3.0, "elliptic_divergence")
            files[threads] = {p.name: p.read_bytes() for p in out.iterdir()}
        assert files["1"] == files["3"]
        assert (out / "sg_eps3.0.ndjson").read_text() == ""
        same = ["euler.ndjson"] + [f"{kind}_eps{eps}.ndjson" for kind in ("sg", "w2")
                                   for eps in (0.04, 0.02)]
        for name in same:
            assert files["1"][name] == (ref / name).read_bytes()
        assert "w2_eps3.0.ndjson" not in files["1"]

    def test_datum_error_in_a_worker_is_a_failed_row(self, tmp_path, capfd):
        # 1 + eps * rho of the shear datum (amplitude 4 pi^2) is negative at
        # eps 0.03, so that worker's W2 densities raise ValueError after its
        # SG run finished; eps 0.002 and 0.001 keep their rows and streams.
        # eps 0.002 leaves the bootstrap window (eps ||grad rho|| = 0.50)
        cfg = write_json(tmp_path / "neg.json", {
            "kind": "wasserstein", "eps_list": [0.03, 0.002, 0.001],
            "base": {"n": 32, "t_final": 0.1, "sample_interval": 0.05,
                     "initial_data": "shear"}})
        reason = "ValueError: 1 + eps*rho reaches -1.844e-01 < 0; density is not a measure"
        files = {}
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            capfd.readouterr()
            assert main(["experiment", "--config", cfg, "--out", str(out),
                         "--threads", threads]) == EXIT_INFRA
            assert capfd.readouterr().err == f"error: eps0.03: {reason}\n"
            assert_failed_row(out, 0.03, reason)
            files[threads] = {p.name: p.read_bytes() for p in out.iterdir()}
        assert files["1"] == files["2"]
        assert {"report.json", "summary.csv", "sg_eps0.03.ndjson"} <= set(files["1"])
        rows = {r["eps"]: r["status"] for r in
                json.loads((out / "report.json").read_text())["summary"]}
        assert rows == {0.03: f"failed: {reason}", 0.002: "outside_window", 0.001: "ok"}
        assert {"w2_eps0.002.ndjson", "w2_eps0.001.ndjson"} <= set(files["1"])

    def test_mid_run_abort_outranks_a_failed_gate(self, tmp_path, capfd):
        # the eps 0.043 SG run diverges near t = 0.88 (see
        # test_divergence_mid_run_leaves_partial_ndjson), and too few runs
        # stay in the window for the slope gate: the abort sets the exit code
        cfg = write_json(tmp_path / "corr.json", {
            "kind": "corrector", "eps_list": [0.043, 0.02, 0.01],
            "base": {"n": 32, "t_final": 0.9, "sample_interval": 0.3,
                     "initial_data": [[1, 1, 4.0, 0.0], [1, -1, 4.0, 0.0], [2, 1, 5.6, 0.0]],
                     "output_dir": str(tmp_path / "corr_out")},
        })
        capfd.readouterr()
        assert main(["experiment", "--config", cfg]) == EXIT_INFRA
        captured = capfd.readouterr()
        assert "[FAIL] corrector_slope" in captured.out
        (line,) = captured.err.splitlines()
        assert line.startswith("error: sg_eps0.043: elliptic_divergence at t=0.8")
        assert_failed_row(tmp_path / "corr_out", 0.043, "elliptic_divergence")

    def test_fast_flow_gaps_step_within_the_particle_cfl_limit(self, tmp_path, capfd):
        # the sample interval, 0.1, exceeds the particle CFL limit of these
        # fast flows (about 3.5e-2); the gap series steps within the limit
        # instead, so only the eps 0.043 abort reaches stderr
        out = tmp_path / "fast_out"
        cfg = write_json(tmp_path / "fast.json", {
            "kind": "stability", "eps_list": [0.043, 0.02, 0.01],
            "base": {"n": 32, "t_final": 1, "sample_interval": 0.1,
                     "initial_data": [[1, 1, 4.0, 0.0], [1, -1, 4.0, 0.0], [2, 1, 5.6, 0.0]],
                     "output_dir": str(out)},
        })
        capfd.readouterr()
        assert main(["experiment", "--config", cfg]) == EXIT_INFRA
        (line,) = capfd.readouterr().err.splitlines()
        assert line.startswith("error: sg_eps0.043: elliptic_divergence at t=0.8")
        assert_failed_row(out, 0.043, "elliptic_divergence")
        rows = {r["eps"]: r for r in json.loads((out / "report.json").read_text())["summary"]}
        for eps in (0.02, 0.01):
            assert rows[eps]["sup_velocity_gap"] > 0
            records = [json.loads(s) for s in
                       (out / f"sg_eps{eps}.ndjson").read_text().splitlines()]
            assert len(records) == 11
            assert all(r["flow_gap"] >= 0 for r in records)
            assert records[-1]["flow_gap"] > 0


class TestCheckVerb:
    def test_single_seed_suite(self, tmp_path, capsys):
        code = main(["check", "--seed", "3", "--out", str(tmp_path / "chk")])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "0 violations, 0 errors" in out
        lines = (tmp_path / "chk" / "suite.ndjson").read_text().splitlines()
        assert len(lines) == 400  # 20 samples x 20 checkers
        rec = json.loads(lines[0])
        assert set(rec) == {"name", "ratio", "bound", "pass", "seed", "digest"}
        assert rec["seed"] == 3

    def test_violation_exits_2(self, capsys, monkeypatch):
        monkeypatch.setitem(ineq.FIELD_CHECKS, "wente", (ineq.check_wente, 0.0, (0,)))
        assert main(["check", "--seed", "1"]) == EXIT_ASSERTION
        captured = capsys.readouterr()
        assert "\nwente: max ratio " in captured.out and "(bound 0)\n" in captured.out
        assert "400 checks, 20 violations, 0 errors (seed 1)" in captured.out
        assert captured.err == ""

    def test_non_finite_check_keeps_its_line(self, tmp_path, capsys, monkeypatch):
        # a check whose every ratio is NaN is a violation, and its line
        # names it; its records write the ratio as null
        monkeypatch.setitem(ineq.FIELD_CHECKS, "wente", (lambda f: float("nan"), 1.0, (0,)))
        assert main(["check", "--seed", "1", "--out", str(tmp_path / "chk")]) == EXIT_ASSERTION
        captured = capsys.readouterr()
        assert "\nwente: max ratio nan (bound 1)\n" in captured.out
        assert "400 checks, 20 violations, 0 errors (seed 1)" in captured.out
        assert captured.err == ""
        records = [json.loads(line) for line in
                   (tmp_path / "chk" / "suite.ndjson").read_text().splitlines()]
        wente = [r for r in records if r["name"] == "wente"]
        assert len(wente) == 20 and all(r["ratio"] is None and not r["pass"] for r in wente)

    def test_checker_error_exits_3(self, tmp_path, capsys, monkeypatch):
        def boom(f):
            raise ValueError("synthetic failure")

        monkeypatch.setitem(ineq.FIELD_CHECKS, "wente", (boom, 1.0, (0,)))
        assert main(["check", "--seed", "1", "--out", str(tmp_path / "chk")]) == EXIT_INFRA
        captured = capsys.readouterr()
        assert "380 checks, 0 violations, 20 errors (seed 1)" in captured.out
        assert captured.err.splitlines() == ["error: wente: synthetic failure"] * 20
        lines = (tmp_path / "chk" / "suite.ndjson").read_text().splitlines()
        assert len(lines) == 380

    def test_check_writes_the_experiments_records(self, tmp_path, monkeypatch):
        # two suite seeds, 5 and 6, keep the experiment small; check --seed 5
        # must write its seed-5 rows byte for byte, in order
        monkeypatch.setattr(experiments, "SUITE_SEEDS", 2)
        cfg = write_json(tmp_path / "ineq.json", {"kind": "inequalities"})
        assert main(["check", "--seed", "5", "--out", str(tmp_path / "chk")]) == EXIT_OK
        assert main(["experiment", "--config", cfg, "--seed", "5",
                     "--out", str(tmp_path / "exp")]) == EXIT_OK
        check = (tmp_path / "chk" / "suite.ndjson").read_text().splitlines()
        exp = (tmp_path / "exp" / "suite.ndjson").read_text().splitlines()
        assert {json.loads(line)["seed"] for line in exp} == {5, 6}
        assert check == [line for line in exp if json.loads(line)["seed"] == 5]
        assert len(check) == 400

    @pytest.mark.parametrize("verb", ["check", "experiment"])
    def test_negative_seed_is_named(self, tmp_path, capsys, verb):
        cfg = write_json(tmp_path / "ineq.json", {"kind": "inequalities"})
        argv = {"check": ["check"], "experiment": ["experiment", "--config", cfg]}[verb]
        out = tmp_path / "chk"
        assert main(argv + ["--seed", "-2", "--out", str(out)]) == EXIT_INFRA
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
        assert "seed" in captured.err and "got -2" in captured.err
        assert not (out / "suite.ndjson").exists()


class TestDumpLoad:
    def test_round_trip(self, run_cfg, tmp_path, capsys):
        ckpt = tmp_path / "ckpt"
        assert main(["dump", "--config", run_cfg, "--out", str(ckpt)]) == EXIT_OK
        assert main(["load", str(ckpt)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "model=SGeps" in out
        assert main(["load", str(ckpt / "rho.field")]) == EXIT_OK

    def test_truncated_field_is_infra_error(self, run_cfg, tmp_path):
        ckpt = tmp_path / "ckpt"
        main(["dump", "--config", run_cfg, "--out", str(ckpt)])
        blob = (ckpt / "rho.field").read_bytes()
        (ckpt / "rho.field").write_bytes(blob[:-16])
        assert main(["load", str(ckpt / "rho.field")]) == EXIT_INFRA

    def test_missing_path(self, tmp_path):
        assert main(["load", str(tmp_path / "absent")]) == EXIT_INFRA

    @pytest.mark.parametrize("header", [b'{"kind": "rho", "time": 0.0}', b"[32]"],
                             ids=["no_n", "list_header"])
    def test_bad_field_header_is_infra_error(self, tmp_path, header):
        path = tmp_path / "bad.field"
        path.write_bytes(header + b"\n" + bytes(8 * 32 * 32))
        assert main(["load", str(path)]) == EXIT_INFRA

    @pytest.mark.parametrize("n", [64, 32], ids=["other_grid", "other_time_eps"])
    def test_torn_checkpoint_is_infra_error(self, run_cfg, tmp_path, capsys, n):
        ckpt, donor = tmp_path / "ckpt", tmp_path / "donor"
        assert main(["dump", "--config", run_cfg, "--out", str(ckpt)]) == EXIT_OK
        donor_cfg = write_json(tmp_path / "donor.json", {
            "n": n, "model": "SGeps", "eps": 0.02, "t_final": 0.05,
            "sample_interval": 0.05, "initial_data": "mild"})
        assert main(["dump", "--config", donor_cfg, "--out", str(donor)]) == EXIT_OK
        (ckpt / "potential.field").write_bytes((donor / "potential.field").read_bytes())
        capsys.readouterr()
        assert main(["load", str(ckpt)]) == EXIT_INFRA
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and err.startswith("error:")
        assert "Traceback" not in err

    def test_sidecar_without_model_is_infra_error(self, run_cfg, tmp_path):
        ckpt = tmp_path / "ckpt"
        main(["dump", "--config", run_cfg, "--out", str(ckpt)])
        meta = json.loads((ckpt / "checkpoint.json").read_text())
        del meta["model"]
        (ckpt / "checkpoint.json").write_text(json.dumps(meta))
        assert main(["load", str(ckpt)]) == EXIT_INFRA

    def test_sidecar_with_unknown_model_is_infra_error(self, run_cfg, tmp_path):
        ckpt = tmp_path / "ckpt"
        main(["dump", "--config", run_cfg, "--out", str(ckpt)])
        meta = json.loads((ckpt / "checkpoint.json").read_text())
        meta["model"] = "QG"
        (ckpt / "checkpoint.json").write_text(json.dumps(meta))
        assert main(["load", str(ckpt)]) == EXIT_INFRA

    @pytest.mark.parametrize("model, eps, kind", [("SGeps", 0.05, "psi_sg"),
                                                  ("Euler", 0.0, "phibar"),
                                                  ("Corrector", 0.0, "phi1")])
    def test_potential_kind_follows_model(self, tmp_path, capsys, model, eps, kind):
        ckpt = tmp_path / "ckpt"
        cfg = write_json(tmp_path / "m.json", {
            "n": 32, "model": model, "eps": eps, "t_final": 0.05,
            "sample_interval": 0.05, "initial_data": "mild"})
        assert main(["dump", "--config", cfg, "--out", str(ckpt)]) == EXIT_OK
        header = json.loads((ckpt / "potential.field").read_bytes().split(b"\n")[0])
        assert header["kind"] == kind
        assert main(["load", str(ckpt)]) == EXIT_OK
        assert f"model={model}" in capsys.readouterr().out

    def test_swapped_fields_are_infra_error(self, run_cfg, tmp_path, capsys):
        ckpt = tmp_path / "ckpt"
        assert main(["dump", "--config", run_cfg, "--out", str(ckpt)]) == EXIT_OK
        rho, pot = (ckpt / "rho.field").read_bytes(), (ckpt / "potential.field").read_bytes()
        (ckpt / "rho.field").write_bytes(pot)
        (ckpt / "potential.field").write_bytes(rho)
        capsys.readouterr()
        assert main(["load", str(ckpt)]) == EXIT_INFRA
        captured = capsys.readouterr()
        assert "rho: n=" not in captured.out
        assert captured.err.count("error:") == 1 and captured.err.startswith("error:")
        assert "kind 'psi_sg'" in captured.err

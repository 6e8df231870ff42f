"""The benchmark's workloads: seeded inputs, one operation each, and the
values an operation's correctness is judged by.

Every workload drives sglab through its public API. Seed 0 is the preset
of each workload. Any other seed moves the preset datum by a seeded whole
number of grid cells and hands it to the program as an `initial_data`
mode list; the dynamics are translation-equivariant, so every checked
value stays the same up to roundoff and one seed-0 reference serves all
seeds. Shifts are multiples of n/16 cells so that the 16^2 block-sum
downsamples of `w2-calibration-n64` commute with them. `check-suite`
passes the seed to the `check` verb directly.
"""

import contextlib
import hashlib
import io
import json
import math
import random
import re
from dataclasses import replace
from pathlib import Path

SHIFT_STEPS = 16

# Fourier mode rows [p, q, cos, sin] of the presets in sglab.transport
DATUM_MODES = {
    "default": [[1, 1, 0.5, 0.0], [1, -1, 0.5, 0.0], [0, 2, 0.5, 0.0]],
    "steep": [[1, 1, 0.04, 0.0], [1, -1, 0.04, 0.0], [2, 1, 0.056, 0.0]],
}

CHECK_SUITE = "check-suite"
W2_CALIBRATION = "w2-calibration-n64"
LIFESPAN = "lifespan-n64-t2"
NAMES = (CHECK_SUITE, W2_CALIBRATION, LIFESPAN)

# eps 0.21, 0.2, 0.19 leave the bootstrap window after 15, 23 and 29
# samples, so one operation takes a few seconds; at eps 0.22 the steep
# datum starts outside the window, and eps 0.1, 0.05 take 73 and 121 steps
LIFESPAN_SPEC = {"kind": "lifespan", "eps_list": [0.21, 0.2, 0.19],
                 "base": {"n": 64, "model": "SGeps", "t_final": 120.0,
                          "sample_interval": 0.5, "initial_data": "steep",
                          "stop_on_exit": True}}

# base run and eps list of the wasserstein experiment this workload calibrates
W2_BASE = {"n": 64, "t_final": 0.1, "sample_interval": 0.05, "initial_data": "default"}
W2_EPS = (0.04, 0.02, 0.01)

_CHECK_LINE = re.compile(r"(\d+) checks, (\d+) violations, (\d+) errors")


def shifted_modes(datum, n, seed):
    """Mode list of `datum` moved by a seeded multiple of n/16 cells per axis."""
    rng = random.Random(seed)
    a = rng.randrange(SHIFT_STEPS) * (n // SHIFT_STEPS)
    b = rng.randrange(SHIFT_STEPS) * (n // SHIFT_STEPS)
    rows = []
    for p, q, c, s in DATUM_MODES[datum]:
        # f(x - a/n, y - b/n): rotate each mode's phase by 2 pi (p a + q b) / n
        phi = 2 * math.pi * (p * a + q * b) / n
        rows.append([p, q, c * math.cos(phi) - s * math.sin(phi),
                     c * math.sin(phi) + s * math.cos(phi)])
    return rows


def _seeded(base, seed):
    base = dict(base)
    if seed != 0:
        base["initial_data"] = shifted_modes(base["initial_data"], base["n"], seed)
    return base


def output_digest(paths):
    """sha256 over the NDJSON and CSV files an operation wrote."""
    h = hashlib.sha256()
    for path in sorted(Path(p) for p in paths):
        if path.suffix in (".ndjson", ".csv"):
            h.update(path.name.encode())
            h.update(path.read_bytes())
    return h.hexdigest()


class Lifespan:
    """One `run_experiment` plus `emit_report` of the lifespan spec."""

    threads = 2

    def __init__(self, name, seed):
        from sglab import config, experiments

        self.experiments = experiments
        spec = dict(LIFESPAN_SPEC, base=_seeded(LIFESPAN_SPEC["base"], seed))
        self.spec = config.parse_config(json.dumps(spec))
        self.grid_sizes = (self.spec.base.n,)

    def run(self, out_dir, threads=None):
        report = self.experiments.run_experiment(
            self.spec, threads=self.threads if threads is None else threads)
        written = self.experiments.emit_report(report, out_dir)
        verdict = {
            "status": report.status,
            "gates": {a["name"]: bool(a["ok"]) for a in report.assertions},
            "exit_times": dict(report.extras["exit_times"]),
        }
        return verdict, written


class W2Calibration:
    """The 16^2 calibration pass of the wasserstein experiment.

    One Euler run and one SG run per eps, their Gronwall W2 bound, then
    the debiased Sinkhorn W2 and the exact LP between their physical
    densities, downsampled to 16^2, at every W2 sample time.
    Regularization and grids are the experiment's own constants. The
    t = 0 pairs are bitwise identical, as in the experiment.
    """

    threads = 1
    grid_sizes = (W2_BASE["n"],)

    def __init__(self, name, seed):
        from sglab import config, experiments, transport, wasserstein

        self.experiments = experiments
        self.transport = transport
        self.wasserstein = wasserstein
        self.base = config.parse_config(json.dumps(_seeded(W2_BASE, seed)))

    def run(self, out_dir, threads=None):
        ex, w2 = self.experiments, self.wasserstein
        m = ex.CALIBRATION_GRID
        reg = ex.SINKHORN_REG * (ex.W2_GRID / m) ** 2
        euler = self.transport.run_simulation(replace(self.base, model="Euler", eps=0.0))
        rows = []
        for eps in W2_EPS:
            sg = self.transport.run_simulation(replace(self.base, model="SGeps", eps=eps))
            bound = w2.gronwall_w2_bound(sg, euler).bound
            for i, t in enumerate(sg.times):
                if abs(t - round(t / ex.W2_SAMPLE_SPACING) * ex.W2_SAMPLE_SPACING) > 1e-9:
                    continue
                a = w2.downsample(w2.physical_density(sg.states[i].rho, eps), m)
                b = w2.downsample(w2.physical_density(euler.states[i].rho, eps), m)
                rows.append({"eps": eps, "t": float(t),
                             "sinkhorn": w2.w2_sinkhorn(a, b, reg=reg).distance,
                             "lp": w2.w2_exact_small(a, b).distance,
                             "bound": float(bound[i])})
        path = Path(out_dir) / "w2_calibration.ndjson"
        path.write_text("".join(json.dumps(r) + "\n" for r in rows))
        worst = max(abs(r["sinkhorn"] - r["lp"]) for r in rows)
        verdict = {
            "gates": {"lp_agreement": worst <= ex.LP_AGREEMENT_TOL},
            "w2": {f"{eps:g}": [[r["t"], r["sinkhorn"], r["lp"], r["bound"]] for r in rows
                                if r["eps"] == eps] for eps in W2_EPS},
        }
        return verdict, [path]


class CheckSuite:
    """One `sglab check --seed S --out DIR`."""

    threads = 1
    grid_sizes = (64,)

    def __init__(self, name, seed):
        from sglab import cli

        self.cli = cli
        self.seed = seed

    def run(self, out_dir, threads=None):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = self.cli.main(["check", "--seed", str(self.seed), "--out", str(out_dir)])
        match = _CHECK_LINE.search(out.getvalue())
        checks, violations, errors = (int(g) for g in match.groups()) if match else (0, -1, -1)
        verdict = {"exit_code": code, "checks": checks, "violations": violations,
                   "errors": errors}
        return verdict, list(Path(out_dir).glob("*"))


def build(name, seed):
    """Import the sglab modules the workload calls, build its inputs and warm
    the per-n grid caches."""
    from sglab.spectral import TorusGrid

    cls = {CHECK_SUITE: CheckSuite, W2_CALIBRATION: W2Calibration, LIFESPAN: Lifespan}[name]
    workload = cls(name, seed)
    for n in workload.grid_sizes:
        grid = TorusGrid(n)
        grid.k_mag, grid.dealias_mask(), grid.freq_pair()
    return workload


def _close(value, ref, abs_tol=0.0, rel_tol=0.0):
    if value is None or ref is None:
        return value is ref
    return abs(value - ref) <= max(abs_tol, rel_tol * abs(ref))


def mismatches(verdict, reference, tol):
    """Reasons an operation's verdict fails against the seed-0 reference.

    Every gate must pass; counts and statuses must match exactly; exit
    times and W2 values must lie within the tolerances.
    """
    out = [f"gate {g} reads FAIL" for g, ok in verdict.get("gates", {}).items() if not ok]
    if set(verdict.get("gates", {})) != set(reference.get("gates", {})):
        out.append(f"gates {sorted(verdict.get('gates', {}))} differ from the reference")
    for key in ("status", "exit_code", "checks", "violations", "errors"):
        if key in reference and verdict.get(key) != reference[key]:
            out.append(f"{key} {verdict.get(key)!r} != reference {reference[key]!r}")
    if "exit_times" in reference:
        got, ref = verdict.get("exit_times", {}), reference["exit_times"]
        if set(got) != set(ref):
            out.append(f"exit_times eps set {sorted(got)} != reference {sorted(ref)}")
        out += [f"exit_times[{eps}] {got.get(eps)} != reference {value}"
                for eps, value in ref.items()
                if not _close(got.get(eps), value, abs_tol=tol["exit_time_abs"])]
    for eps, rows in reference.get("w2", {}).items():
        got = verdict.get("w2", {}).get(eps, [])
        if len(got) != len(rows) or not all(
                len(g) == len(r) and _close(g[0], r[0], abs_tol=1e-9)
                and all(_close(x, y, rel_tol=tol["w2_rel"]) for x, y in zip(g[1:], r[1:]))
                for g, r in zip(got, rows)):
            out.append(f"w2[{eps}] {got} != reference {rows}")
    return out

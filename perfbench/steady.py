"""Steadiness check for the benchmark.

    python3 perfbench/steady.py

Runs `run.py --trace 0` once per seed in SEEDS on each workload of
BENCHMARK.json and reports, for each end-to-end metric, the median and
the spread: the distance between the first and third quartiles
(statistics.quantiles, n=4) as a share of the median. A spread above a
third of the metric's bound is flagged. Then it makes two traced runs
per workload on TRACE_SEED, asserts that the exact counters repeat
exactly, and reports the tracing overhead. Exits 1 if a run fails its
correctness check, a counter differs or a spread exceeds its bound.
The summary goes to `.perfbench-out/steady-<time>.json`.
"""

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"
SEEDS = range(1, 11)
TRACE_SEED = 0

# counts that must repeat exactly between two traced runs of one seed
EXACT_COUNTERS = (
    "spectral.fft.calls",
    "elliptic.picard_sweeps",
    "wasserstein.sinkhorn_iterations",
    "transport.step_rk4.calls",
    "transport.cfl_limit.calls_per_step",
    "wasserstein.lp_nonzero_ratio",
    "wasserstein.sinkhorn_identical_share",
    "trace.spans",
)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {k: v["value"] for k, v in result["metrics"].items()}, result


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = True
    summary = {"seeds": list(SEEDS), "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        entry = summary["workloads"][workload] = {"runs": [], "spread": {}}
        for seed in SEEDS:
            metrics, result = run_once(workload, seed, bench["run_seconds"], 0)
            entry["runs"].append({"seed": seed, **metrics, "correct": result["correct"]})
            ok &= result["correct"]
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v:.4f}" for k, v in metrics.items())
                + ("" if result["correct"] else " INCORRECT"), flush=True)
        for metric in bench["end_to_end"]:
            values = [r[metric["name"]] for r in entry["runs"]]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            steady = spread <= metric["bound"] / 3
            ok &= spread <= metric["bound"]
            entry["spread"][metric["name"]] = {"median": median, "spread": spread,
                                               "bound": metric["bound"], "steady": steady}
            print(f"  {metric['name']}: median {median:.4f} {metric['unit']}, "
                  f"spread {spread:.4f} (bound {metric['bound']})"
                  + ("" if steady else "  NOT STEADY"), flush=True)
        traced = []
        for _ in range(2):
            metrics, result = run_once(workload, TRACE_SEED, bench["run_seconds"], 1)
            traced.append(metrics)
            ok &= result["correct"]
        differ = [c for c in EXACT_COUNTERS if traced[0][c] != traced[1][c]]
        ok &= not differ
        entry["trace"] = {"counters": {c: traced[0][c] for c in EXACT_COUNTERS},
                          "counters_differ": differ,
                          "wall_s": [t["trace.wall_s"] for t in traced],
                          "overhead_s": [t["trace.overhead_s"] for t in traced]}
        print(f"  exact counters {'repeat' if not differ else 'DIFFER: ' + str(differ)}; "
              f"tracing overhead {entry['trace']['overhead_s']} s", flush=True)
    out = ROOT / ".perfbench-out"
    out.mkdir(exist_ok=True)
    path = out / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    path.write_text(json.dumps(summary, indent=2) + "\n")
    print(f"{'steady' if ok else 'NOT STEADY'}; summary in {path}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

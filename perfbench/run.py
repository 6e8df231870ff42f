"""sglab benchmark: one workload, one client, closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports sglab from `src/` there
and exits with status 1, printing no result, when the sources are
missing. It builds the workload's inputs from the seed, runs one
operation after another while the next one is expected to end within
`--seconds` of the start (at least one), checks every operation's
output against the seed-0 reference in `perfbench/reference.json`,
prints each metric by name with its unit, and prints one JSON result
object as the last line of stdout.

--trace 0 measures the end-to-end metrics with no wrappers installed:
  setup_s      median over fresh interpreters, SETUP_PER_OPERATION after
               each operation and at least MIN_SETUP_SAMPLES, of the time
               from process start until the first operation is ready
  wall_s       median wall seconds of one operation
  cpu_s        median process CPU seconds of one operation
  peak_rss_mb  peak resident memory of this process
--trace 1 runs the operation once untraced, then once under span
tracing (see spans.py), and reports the per-layer metrics, among them
the tracing overhead (traced minus untraced wall time). The spans go to
`.perfbench-out/trace-<workload>-seed<N>.ndjson`. A workload with a
worker pool also runs its operation untraced at one thread, for
`experiments.pool.speedup`.

Failed operations (raised, wrong gate verdict, values off the reference,
or outputs not byte-identical to the run's first operation) count in
`failed`; error_rate = failed / attempted.
"""

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench-out"
REFERENCE = HERE / "reference.json"
SETUP_PER_OPERATION = 2
MIN_SETUP_SAMPLES = 8
PROBE_TIMEOUT_S = 60


def import_program():
    """Put the checkout's `src/` first on sys.path and import sglab from it."""
    src = ROOT / "src"
    if not (src / "sglab" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no sglab sources under {src}")
    sys.path.insert(0, str(src))
    import sglab

    if Path(sglab.__file__).resolve().parent != (src / "sglab").resolve():
        raise SystemExit(f"perfbench: imported sglab from {sglab.__file__}, not {src}")


def setup_sample(args):
    """Seconds from spawning a fresh interpreter until it has set up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--probe-setup", repr(time.time())]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=PROBE_TIMEOUT_S, check=True)
    return float(proc.stdout.split()[-1])


class Checker:
    """Judges each operation against the reference and the run's first output."""

    def __init__(self, name):
        data = json.loads(REFERENCE.read_text())
        self.reference = data["workloads"].get(name)
        self.tolerances = data["tolerances"]
        self.first_digest = None
        self.attempted = 0
        self.failed = 0
        self.first_verdict = None

    def judge(self, label, outcome):
        """Check one operation's outcome: (verdict, digest) or the exception it raised."""
        self.attempted += 1
        if isinstance(outcome, Exception):
            problems = [f"raised {type(outcome).__name__}: {outcome}"]
        else:
            verdict, digest = outcome
            if self.first_verdict is None:
                self.first_verdict = verdict
            problems = []
            if self.reference is None:
                problems.append("no seed-0 reference for this workload")
            else:
                problems += workloads.mismatches(verdict, self.reference, self.tolerances)
            if self.first_digest is None:
                self.first_digest = digest
            elif digest != self.first_digest:
                problems.append("outputs differ from the run's first operation")
        if problems:
            self.failed += 1
            for p in problems:
                print(f"FAILED {label}: {p}", file=sys.stderr)


def timed(workload, threads=None):
    """Run one operation in a scratch directory.

    Returns (wall, cpu, outcome); outcome is (verdict, output digest) or
    the exception the operation raised.
    """
    OUT.mkdir(exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(prefix="op-", dir=OUT))
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        verdict, paths = workload.run(out_dir, threads=threads)
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        outcome = verdict, workloads.output_digest(paths)
    except Exception as err:  # judged as a failed operation
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        outcome = err
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    return wall, cpu, outcome


def measure(args, checker):
    """Time operations, each followed by SETUP_PER_OPERATION set-up samples,
    while the next round is expected to end within `--seconds`; then top
    up the set-up samples to MIN_SETUP_SAMPLES."""
    deadline = time.perf_counter() + args.seconds
    workload = workloads.build(args.workload, args.seed)
    walls, cpus, setups = [], [], []
    while not walls or time.perf_counter() + statistics.median(walls) \
            + SETUP_PER_OPERATION * statistics.median(setups) < deadline:
        wall, cpu, outcome = timed(workload)
        checker.judge(f"operation {len(walls) + 1}", outcome)
        walls.append(wall)
        cpus.append(cpu)
        setups += [setup_sample(args) for _ in range(SETUP_PER_OPERATION)]
    while len(setups) < MIN_SETUP_SAMPLES:
        setups.append(setup_sample(args))
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def trace(args, checker):
    import spans

    workload = workloads.build(args.workload, args.seed)
    untraced, _, outcome = timed(workload)
    checker.judge("untraced operation", outcome)
    speedup = 0.0
    if workload.threads > 1:
        single, _, outcome = timed(workload, threads=1)
        checker.judge("untraced operation at threads=1", outcome)
        speedup = single / untraced
    with spans.Tracer() as tracer:
        with tracer.span("perfbench.setup", 0):
            workload = workloads.build(args.workload, args.seed)
        with tracer.span(spans.OPERATION, 1):
            wall, _, outcome = timed(workload)
    checker.judge("traced operation", outcome)
    metrics = spans.layer_metrics(tracer.spans, speedup=speedup)
    metrics["trace.wall_s"] = wall
    metrics["trace.overhead_s"] = wall - untraced
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.ndjson")
    return metrics


def write_reference(name, verdict):
    data = json.loads(REFERENCE.read_text())
    data["workloads"][name] = verdict
    REFERENCE.write_text(json.dumps(data, indent=2) + "\n")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe-setup", type=float, metavar="SPAWN_TIME",
                   help="set up, print the seconds since SPAWN_TIME (time.time() "
                        "when the parent spawned this process) and exit")
    p.add_argument("--write-reference", action="store_true",
                   help="store the first operation's verdict as the seed-0 reference")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    import_program()
    if args.probe_setup is not None:
        workloads.build(args.workload, args.seed)
        print(time.time() - args.probe_setup)
        return 0
    if args.write_reference and args.seed != 0:
        raise SystemExit("perfbench: the reference is written from seed 0")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = bench["per_layer" if args.trace else "end_to_end"]
    checker = Checker(args.workload)
    measured = (trace if args.trace else measure)(args, checker)
    if args.write_reference:
        write_reference(args.workload, checker.first_verdict)
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        raise SystemExit(f"perfbench: metrics not measured: {missing}")
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}
    print(f"{args.workload} seed {args.seed} trace {args.trace}: "
          f"{checker.attempted} operations, {checker.failed} failed, "
          f"error_rate {checker.failed / checker.attempted:g}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": checker.failed == 0, "attempted": checker.attempted,
                      "failed": checker.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Verbs:
    run         integrate one configuration, write NDJSON diagnostics
    experiment  drive a multi-epsilon experiment and emit its report
    check       functional-inequality suite for a single seed
    dump        integrate a configuration and checkpoint the final state
    load        read a checkpoint directory or field file, print a summary

Exit codes: 0 all passes, 2 an acceptance assertion failed, 3
infrastructure error (bad command line or config, I/O failure, solver
abort, interrupt).
"""

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .config import ConfigError, ExperimentSpec, RunConfig, parse_config
from .experiments import SUITE_COUNT, _record_line, emit_report, run_experiment
from .fieldio import load_field, read_checkpoint, write_checkpoint, write_text
from .inequalities import run_suite
from .spectral import NormKind, norm
from .transport import run_simulation

EXIT_OK = 0
EXIT_ASSERTION = 2
EXIT_INFRA = 3

# a run that leaves the bootstrap window is a recorded outcome, not a failure
_CLEAN_EXITS = (None, "bootstrap_exit")


def _read_config(path):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from None
    return parse_config(text)


def _want_run_config(cfg, verb):
    if not isinstance(cfg, RunConfig):
        raise ConfigError(f"verb {verb!r} needs a run config, got an experiment config")
    return cfg


def _field_line(label, f):
    l2 = norm(f, NormKind.L2)
    linf = norm(f, NormKind.Linf)
    return f"  {label}: n={f.grid.n} mean={f.mean():+.3e} l2={l2:.6e} linf={linf:.6e}"


def _write_run(out, cfg, traj):
    """Write run.ndjson (one record per sample) and run.json (summary)."""
    out.mkdir(parents=True, exist_ok=True)
    nd = out / "run.ndjson"
    write_text(nd, "".join(_record_line(r) + "\n" for r in traj.diagnostics))
    last = traj.diagnostics[-1] if traj.diagnostics else None
    summary = {
        "model": cfg.model,
        "eps": cfg.eps,
        "n": cfg.n,
        "samples": len(traj.times),
        "steps": len(traj.dt_history),
        "exit_reason": traj.exit_reason,
        "exit_time": traj.exit_time,
        "final_t": None if last is None else last.t,
        "final_l2_rho": None if last is None else last.l2_rho,
        "final_grad_margin": None if last is None else last.grad_margin,
    }
    write_text(out / "run.json", json.dumps(summary, indent=2) + "\n")
    return nd


def _exit_code(traj):
    return EXIT_OK if traj.exit_reason in _CLEAN_EXITS else EXIT_INFRA


def _cmd_run(args):
    cfg = _want_run_config(_read_config(args.config), "run")
    traj = run_simulation(cfg)
    nd = _write_run(Path(args.out or cfg.output_dir), cfg, traj)
    if traj.times:
        print(f"{cfg.model} eps={cfg.eps:g} n={cfg.n}: "
              f"{len(traj.times)} samples to t={traj.times[-1]:g}")
    if traj.exit_reason is not None:
        print(f"exit: {traj.exit_reason} at t={traj.exit_time:g}")
    print(f"wrote {nd}")
    return _exit_code(traj)


def _cmd_experiment(args):
    spec = _read_config(args.config)
    if not isinstance(spec, ExperimentSpec):
        raise ConfigError("verb 'experiment' needs an experiment config, got a run config")
    if args.seed is not None:
        spec = replace(spec, base=replace(spec.base, seed=args.seed))
    report = run_experiment(spec, threads=args.threads)
    out = Path(args.out or spec.base.output_dir)
    written = emit_report(report, out)
    for a in report.assertions:
        flag = "pass" if a["ok"] else "FAIL"
        print(f"[{flag}] {a['name']}: {a['detail']}")
    if report.fit is not None:
        print(f"fit: slope {report.fit['slope']:.4f} "
              f"stderr {report.fit['stderr']:.3g} over eps {report.fit['eps_used']}")
    for note in report.notes:
        print(f"note: {note}")
    print(f"status: {report.status}; wrote {len(written)} files under {out}")
    aborted = [(tag, traj) for tag, traj in report.runs.items() if _exit_code(traj) != EXIT_OK]
    for tag, traj in aborted:
        print(f"error: {tag}: {traj.exit_reason} at t={traj.exit_time:g}", file=sys.stderr)
    if aborted:
        return EXIT_INFRA
    if report.failed_assertions():
        return EXIT_ASSERTION
    if report.status != "passed":
        return EXIT_INFRA
    return EXIT_OK


def _cmd_check(args):
    rep = run_suite(args.seed, count=SUITE_COUNT)
    bounds = {r.name: r.bound for r in rep.results}
    for name, ratio in sorted(rep.max_ratios().items()):
        bound = bounds[name]
        gate = "unbounded" if bound is None else f"bound {bound:g}"
        print(f"{name}: max ratio {ratio:.6g} ({gate})")
    failures = [r for r in rep.results if not r.passed]
    print(f"{len(rep.results)} checks, {len(failures)} violations, "
          f"{len(rep.errors)} errors (seed {args.seed})")
    for name, msg in rep.errors:
        print(f"error in {name}: {msg}", file=sys.stderr)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        lines = [json.dumps({"name": r.name, "ratio": r.ratio, "bound": r.bound,
                             "passed": r.passed, "seed": r.seed,
                             "digest": r.inputs_digest},
                            separators=(",", ":"))
                 for r in rep.results]
        write_text(out / "suite.ndjson", "".join(s + "\n" for s in lines))
        print(f"wrote {out / 'suite.ndjson'}")
    if rep.errors:
        return EXIT_INFRA
    if failures:
        return EXIT_ASSERTION
    return EXIT_OK


def _cmd_dump(args):
    cfg = _want_run_config(_read_config(args.config), "dump")
    traj = run_simulation(cfg)
    out = Path(args.out or cfg.output_dir)
    if not traj.states:
        nd = _write_run(out, cfg, traj)
        print(f"exit: {traj.exit_reason} at t={traj.exit_time:g}; no state to checkpoint")
        print(f"wrote {nd}")
        return _exit_code(traj)
    state = traj.states[-1]
    files = write_checkpoint(out, state.rho, state.potential,
                             time=traj.times[-1], model=cfg.model, eps=cfg.eps,
                             step=len(traj.dt_history))
    print(f"checkpoint at t={traj.times[-1]:g} ({cfg.model}, eps={cfg.eps:g})")
    for kind, path in files.items():
        print(f"  {kind}: {path}")
    return _exit_code(traj)


def _cmd_load(args):
    path = Path(args.path)
    if path.is_dir():
        data = read_checkpoint(path)
        meta = data["meta"]
        print(f"checkpoint: model={meta['model']} eps={meta['eps']:g} "
              f"t={meta['time']:g} step={meta['step']}")
        print(_field_line("rho", data["rho"]))
        print(_field_line("potential", data["potential"]))
    else:
        f, header = load_field(path)
        print(f"field: {json.dumps(header, sort_keys=True)}")
        print(_field_line(header["kind"], f))
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    # argparse would print the usage and exit 2, the code of a failed
    # acceptance assertion; a usage error is bad input like a bad config
    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="sglab",
        description="Spectral simulation lab for the eps-regularized "
                    "semigeostrophic system and 2D Euler on the torus.")
    sub = p.add_subparsers(dest="verb", required=True)

    run = sub.add_parser("run", help="integrate a single run config")
    run.add_argument("--config", required=True, help="run config JSON path")
    run.add_argument("--out", help="output directory (default: config output_dir)")
    run.set_defaults(func=_cmd_run)

    exp = sub.add_parser("experiment", help="drive a multi-epsilon experiment")
    exp.add_argument("--config", required=True, help="experiment config JSON path")
    exp.add_argument("--out", help="output directory (default: base output_dir)")
    exp.add_argument("--seed", type=int, help="override base config seed")
    exp.add_argument("--threads", type=int, default=1,
                     help="worker processes (fork)")
    exp.set_defaults(func=_cmd_experiment)

    chk = sub.add_parser("check", help="run the inequality suite for one seed")
    chk.add_argument("--seed", type=int, default=0, help="suite seed (default 0)")
    chk.add_argument("--out", help="optional directory for suite.ndjson")
    chk.set_defaults(func=_cmd_check)

    dmp = sub.add_parser("dump", help="integrate and checkpoint the final state")
    dmp.add_argument("--config", required=True, help="run config JSON path")
    dmp.add_argument("--out", help="checkpoint directory (default: config output_dir)")
    dmp.set_defaults(func=_cmd_dump)

    lod = sub.add_parser("load", help="inspect a checkpoint directory or field file")
    lod.add_argument("path", help="checkpoint directory or .field file")
    lod.set_defaults(func=_cmd_load)
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (OSError, RuntimeError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INFRA
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return EXIT_INFRA


if __name__ == "__main__":
    sys.exit(main())

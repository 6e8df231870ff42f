"""Binary field dumps and checkpoint sidecars.

Field dump layout: one UTF-8 JSON header line terminated by '\n' with keys
{"n", "kind", "time", "epsilon"}, then n^2 little-endian float64 values,
row-major with the x index outer and the y index inner. Round-trips are
bit-exact. Loading rejects a header that is not a JSON object with an
integer "n" and a string "kind", a checkpoint sidecar that lacks a
known "model", numeric "time" and "eps", or an integer "step", and a
checkpoint whose two fields differ in "n", whose field headers disagree
with the sidecar on "time" or "epsilon", or whose field kinds are not
"rho" and the model's potential kind (POTENTIAL_KINDS).

Every output file of the package is written through atomic_open: a
temp file in the target directory, renamed over the target once it is
complete, so a failed write leaves neither a partial target nor a temp.
"""

from __future__ import annotations

import contextlib
import json
import os
from pathlib import Path

import numpy as np

from .spectral import ScalarField, TorusGrid

__all__ = [
    "atomic_open",
    "write_text",
    "dump_field",
    "load_field",
    "write_checkpoint",
    "read_checkpoint",
    "POTENTIAL_KINDS",
]

# the kind of each model's SimState.potential, as its checkpoint labels it
POTENTIAL_KINDS = {"SGeps": "psi_sg", "Euler": "phibar", "Corrector": "phi1"}


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    return _is_int(v) or isinstance(v, float)


@contextlib.contextmanager
def atomic_open(path, mode="w", **kwargs):
    """open() for writing that replaces path only when the block completes.

    Writes go to a hidden temp file next to path, which os.replace moves
    over path after the block exits normally; if the block or the write
    raises, the temp file is removed and path is left as it was.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write_text(path, text: str) -> None:
    """Write UTF-8 text to path through atomic_open."""
    with atomic_open(path, encoding="utf-8") as fh:
        fh.write(text)


def dump_field(path, f: ScalarField, kind: str, time: float, epsilon: float | None) -> None:
    header = {
        "n": f.grid.n,
        "kind": kind,
        "time": float(time),
        "epsilon": None if epsilon is None else float(epsilon),
    }
    with atomic_open(path, "wb") as fh:
        fh.write((json.dumps(header, sort_keys=True) + "\n").encode("utf-8"))
        fh.write(np.ascontiguousarray(f.values, dtype="<f8").tobytes())


def load_field(path) -> tuple[ScalarField, dict]:
    with open(path, "rb") as fh:
        header_line = fh.readline()
        header = json.loads(header_line.decode("utf-8"))
        n = header.get("n") if isinstance(header, dict) else None
        if not _is_int(n) or not isinstance(header.get("kind"), str):
            raise ValueError(f"{path}: field header needs an integer 'n' and a string 'kind'")
        grid = TorusGrid(n)
        raw = fh.read()
    if len(raw) < 8 * n * n:
        raise IOError(f"{path}: truncated field payload ({len(raw)} bytes for n={n})")
    if len(raw) > 8 * n * n:
        raise IOError(f"{path}: trailing bytes after field payload")
    values = np.frombuffer(raw, dtype="<f8").reshape(n, n)
    return ScalarField(grid, values), header


def write_checkpoint(dir_path, rho: ScalarField, potential: ScalarField, *, time: float,
                     model: str, eps: float, step: int) -> dict:
    """Write rho + potential dumps and a JSON sidecar; returns the file map."""
    os.makedirs(dir_path, exist_ok=True)
    rho_path = os.path.join(dir_path, "rho.field")
    pot_path = os.path.join(dir_path, "potential.field")
    dump_field(rho_path, rho, "rho", time, eps)
    dump_field(pot_path, potential, POTENTIAL_KINDS[model], time, eps)
    sidecar = {"time": float(time), "model": model, "eps": float(eps), "step": int(step)}
    sidecar_path = os.path.join(dir_path, "checkpoint.json")
    with atomic_open(sidecar_path, "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, sort_keys=True)
        fh.write("\n")
    return {"rho": rho_path, "potential": pot_path, "meta": sidecar_path}


def read_checkpoint(dir_path) -> dict:
    rho, rho_header = load_field(os.path.join(dir_path, "rho.field"))
    pot, pot_header = load_field(os.path.join(dir_path, "potential.field"))
    with open(os.path.join(dir_path, "checkpoint.json"), encoding="utf-8") as fh:
        sidecar = json.load(fh)
    ok = (isinstance(sidecar, dict) and isinstance(sidecar.get("model"), str)
          and sidecar["model"] in POTENTIAL_KINDS
          and all(_is_number(sidecar.get(k)) for k in ("time", "eps"))
          and _is_int(sidecar.get("step")))
    if not ok:
        raise ValueError(f"{dir_path}: checkpoint.json needs 'model' one of "
                         f"{tuple(POTENTIAL_KINDS)}, numeric 'time' and 'eps', and "
                         "integer 'step'")
    if rho.grid.n != pot.grid.n:
        raise ValueError(f"{dir_path}: rho.field has n={rho.grid.n} but "
                         f"potential.field has n={pot.grid.n}")
    model = sidecar["model"]
    for name, header, kind in (("rho.field", rho_header, "rho"),
                               ("potential.field", pot_header, POTENTIAL_KINDS[model])):
        if header["kind"] != kind:
            raise ValueError(f"{dir_path}: {name} holds kind {header['kind']!r}, but a "
                             f"{model} checkpoint needs {kind!r}")
        if (header.get("time"), header.get("epsilon")) != (sidecar["time"], sidecar["eps"]):
            raise ValueError(f"{dir_path}: {name} header (time {header.get('time')}, eps "
                             f"{header.get('epsilon')}) disagrees with checkpoint.json")
    return {"rho": rho, "potential": pot, "meta": sidecar}

"""Round-trip tests for the binary field dump format and checkpoints."""

import builtins
import json

import numpy as np
import pytest

from sglab import fieldio
from sglab.spectral import TorusGrid, ScalarField
from sglab.fieldio import (
    atomic_open,
    dump_field,
    load_field,
    write_checkpoint,
    read_checkpoint,
    write_table,
)


def test_field_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    g = TorusGrid(32)
    f = ScalarField(g, rng.standard_normal((32, 32)))
    path = tmp_path / "rho.field"
    dump_field(path, f, kind="rho", time=0.25, epsilon=0.05)
    loaded, header = load_field(path)
    assert np.array_equal(loaded.values, f.values)
    assert header["n"] == 32
    assert header["kind"] == "rho"
    assert header["time"] == 0.25
    assert header["epsilon"] == 0.05


def test_field_header_is_json_line(tmp_path):
    g = TorusGrid(32)
    f = ScalarField.zeros(g)
    path = tmp_path / "z.field"
    dump_field(path, f, kind="psi_sg", time=0.0, epsilon=0.0)
    with open(path, "rb") as fh:
        first = fh.readline()
    header = json.loads(first)
    assert set(header) == {"n", "kind", "time", "epsilon"}


def test_field_truncation_detected(tmp_path):
    g = TorusGrid(32)
    f = ScalarField.zeros(g)
    path = tmp_path / "t.field"
    dump_field(path, f, kind="rho", time=0.0, epsilon=0.0)
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(IOError):
        load_field(path)


def test_field_trailing_bytes_detected(tmp_path):
    g = TorusGrid(32)
    f = ScalarField.zeros(g)
    path = tmp_path / "t2.field"
    dump_field(path, f, kind="rho", time=0.0, epsilon=0.0)
    with open(path, "ab") as fh:
        fh.write(b"\x00" * 4)
    with pytest.raises(IOError):
        load_field(path)


def test_checkpoint_roundtrip(tmp_path):
    rng = np.random.default_rng(2)
    g = TorusGrid(32)
    rho = ScalarField(g, rng.standard_normal((32, 32)))
    psi = ScalarField(g, rng.standard_normal((32, 32)))
    files = write_checkpoint(
        tmp_path, rho, psi, time=0.5, model="SGeps", eps=0.02, step=17
    )
    assert set(files) == {"rho", "potential", "meta"}
    out = read_checkpoint(tmp_path)
    assert np.array_equal(out["rho"].values, rho.values)
    assert np.array_equal(out["potential"].values, psi.values)
    assert out["meta"]["time"] == 0.5
    assert out["meta"]["model"] == "SGeps"
    assert out["meta"]["eps"] == 0.02
    assert out["meta"]["step"] == 17


# --- atomic writes ---------------------------------------------------------

class _DiskFullAfterFirstWrite:
    """File wrapper whose second write raises, as on a full disk."""

    def __init__(self, fh):
        self.fh = fh
        self.writes = 0

    def write(self, data):
        self.writes += 1
        if self.writes > 1:
            raise OSError(28, "No space left on device")
        return self.fh.write(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


def _fail_second_write(monkeypatch):
    monkeypatch.setattr(fieldio, "open", raising=False, value=lambda *a, **k:
                        _DiskFullAfterFirstWrite(builtins.open(*a, **k)))


def test_failed_field_dump_leaves_nothing(tmp_path, monkeypatch):
    f = ScalarField(TorusGrid(32), np.ones((32, 32)))
    _fail_second_write(monkeypatch)
    with pytest.raises(OSError, match="No space"):
        dump_field(tmp_path / "rho.field", f, kind="rho", time=0.0, epsilon=0.0)
    assert list(tmp_path.iterdir()) == []


def test_failed_checkpoint_keeps_previous_files(tmp_path, monkeypatch):
    g = TorusGrid(32)
    rng = np.random.default_rng(3)
    rho = ScalarField(g, rng.standard_normal((32, 32)))
    write_checkpoint(tmp_path, rho, rho, time=0.5, model="Euler", eps=0.0, step=4)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    _fail_second_write(monkeypatch)
    with pytest.raises(OSError):
        write_checkpoint(tmp_path, ScalarField.zeros(g), ScalarField.zeros(g),
                         time=1.0, model="Euler", eps=0.0, step=8)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_failed_csv_row_leaves_nothing(tmp_path):
    class Unprintable:
        def __str__(self):
            raise RuntimeError("cell cannot be formatted")

    with pytest.raises(RuntimeError):
        write_table(tmp_path / "summary.csv", [["a", "b"], [1, 2], [3, Unprintable()]])
    assert list(tmp_path.iterdir()) == []


def test_atomic_open_replaces_on_success(tmp_path):
    target = tmp_path / "out.txt"
    target.write_text("old\n")
    with atomic_open(target) as fh:
        fh.write("new\n")
        assert target.read_text() == "old\n"
    assert target.read_text() == "new\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

"""Round-trip tests for the binary field dump format and checkpoints."""

import json

import numpy as np
import pytest

from sglab.spectral import TorusGrid, ScalarField
from sglab.fieldio import (
    dump_field,
    load_field,
    write_checkpoint,
    read_checkpoint,
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

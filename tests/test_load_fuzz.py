"""`sglab load` on corrupted checkpoints, by property: it exits 0 or 3
and never raises."""

import json
import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from sglab.cli import EXIT_INFRA, EXIT_OK, main  # noqa: E402

FIELDS = ("rho.field", "potential.field")
HEADER_KEYS = ("n", "kind", "time", "epsilon")
SIDECAR_KEYS = ("time", "model", "eps", "step")
DELETE = object()

# JSON numbers, including the NaN and Infinity Python's json module
# reads and integers too large for a float, and JSON values of every kind
numbers = st.floats() | st.integers(-10 ** 400, 10 ** 400)
json_values = st.recursive(
    st.none() | st.booleans() | numbers
    | st.sampled_from([8, 16, 32, 64, 2 ** 40, "rho", "psi_sg", "phi1", "SGeps", "Euler"])
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=8)


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    """A dumped n = 32 SGeps checkpoint: file name -> bytes."""
    tmp = tmp_path_factory.mktemp("load_fuzz")
    cfg = tmp / "run.json"
    cfg.write_text(json.dumps({"n": 32, "model": "SGeps", "eps": 0.05, "t_final": 0.05,
                               "sample_interval": 0.05, "initial_data": "mild"}))
    assert main(["dump", "--config", str(cfg), "--out", str(tmp / "ckpt")]) == EXIT_OK
    return {p.name: p.read_bytes() for p in (tmp / "ckpt").iterdir()}


def split_field(blob):
    header, payload = blob.split(b"\n", 1)
    return json.loads(header), payload


def join_field(header, payload):
    return json.dumps(header, sort_keys=True).encode() + b"\n" + payload


def with_value(obj, key, value):
    obj = dict(obj)
    if value is DELETE:
        del obj[key]
    else:
        obj[key] = value
    return obj


@st.composite
def corruptions(draw):
    """(what, edit, must_fail): edit maps the checkpoint's file bytes to
    corrupted ones; must_fail marks a corruption `load` has to reject."""
    what = draw(st.sampled_from(["payload", "header_bytes", "header_value",
                                 "agreed_value", "sidecar_value", "sidecar"]))
    name = draw(st.sampled_from(FIELDS))
    value = draw(st.just(DELETE) | numbers | json_values)
    if what == "payload":
        cut = draw(st.integers(1, 8 * 32 * 32))
        extra = draw(st.binary(max_size=16))

        def edit(files):
            header, payload = split_field(files[name])
            return {name: join_field(header, payload[:-cut] + extra)}
        return what, edit, cut != len(extra)
    if what == "header_bytes":
        i = draw(st.integers(0, 80))
        j = draw(st.integers(i, i + 8))
        insert = draw(st.binary(max_size=8))

        def edit(files):
            blob = files[name]
            end = blob.index(b"\n")
            return {name: blob[:min(i, end)] + insert + blob[min(j, end):]}
        return what, edit, False
    if what == "header_value":
        key = draw(st.sampled_from(HEADER_KEYS))

        def edit(files):
            header, payload = split_field(files[name])
            return {name: join_field(with_value(header, key, value), payload)}
        return what, edit, value is DELETE
    if what == "agreed_value":
        # the sidecar and both headers agree, so the value passes the
        # cross-checks and reaches whatever reads it after them
        key = draw(st.sampled_from(["time", "eps"]))

        def edit(files):
            out = {"checkpoint.json": json.dumps(with_value(
                json.loads(files["checkpoint.json"]), key, value)).encode()}
            for field in FIELDS:
                header, payload = split_field(files[field])
                out[field] = join_field(with_value(
                    header, "time" if key == "time" else "epsilon", value), payload)
            return out
        return what, edit, value is DELETE
    if what == "sidecar_value":
        key = draw(st.sampled_from(SIDECAR_KEYS))

        def edit(files):
            meta = with_value(json.loads(files["checkpoint.json"]), key, value)
            return {"checkpoint.json": json.dumps(meta).encode()}
        return what, edit, value is DELETE
    # the whole sidecar: a string stands for its raw text, any other value
    # for its JSON
    text = value if value is not DELETE else ""

    def edit(files):
        return {"checkpoint.json": (text if isinstance(text, str)
                                    else json.dumps(text)).encode()}
    return what, edit, False


@given(corruptions())
def test_corrupt_checkpoint_exits_0_or_3(checkpoint, corruption):
    what, edit, must_fail = corruption
    with tempfile.TemporaryDirectory() as tmp:
        ckpt = Path(tmp) / "ckpt"
        ckpt.mkdir()
        for name, blob in {**checkpoint, **edit(checkpoint)}.items():
            (ckpt / name).write_bytes(blob)
        code = main(["load", str(ckpt)])
        assert code in (EXIT_OK, EXIT_INFRA)
        if must_fail:
            assert code == EXIT_INFRA, what
        for name in FIELDS:
            assert main(["load", str(ckpt / name)]) in (EXIT_OK, EXIT_INFRA)


@pytest.mark.parametrize("time, code", [(0.05, EXIT_OK), (10 ** 400, EXIT_INFRA)],
                         ids=["untouched", "int_beyond_float_range"])
def test_agreed_time(checkpoint, tmp_path, time, code):
    # 10**400 in the sidecar and both headers used to pass the checks and
    # end in an OverflowError when `load` printed it
    files = dict(checkpoint)
    files["checkpoint.json"] = json.dumps(
        {**json.loads(checkpoint["checkpoint.json"]), "time": time}).encode()
    for name in FIELDS:
        header, payload = split_field(checkpoint[name])
        files[name] = join_field({**header, "time": time}, payload)
    for name, blob in files.items():
        (tmp_path / name).write_bytes(blob)
    assert main(["load", str(tmp_path)]) == code

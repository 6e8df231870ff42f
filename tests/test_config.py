"""Config parsing: round trips and corrupt input, by property."""

import json
import tempfile
from dataclasses import asdict
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, strategies as st  # noqa: E402

from sglab.cli import EXIT_INFRA, main  # noqa: E402
from sglab.config import (  # noqa: E402
    EXPERIMENT_KINDS,
    MODELS,
    ConfigError,
    ExperimentSpec,
    RunConfig,
    parse_config,
)

positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
coefficient = st.floats(allow_nan=False, allow_infinity=False, width=64)
mode_row = st.tuples(st.integers(-200, 200), st.integers(-200, 200),
                     coefficient, coefficient).filter(lambda r: r[:2] != (0, 0))

run_objects = st.fixed_dictionaries({}, optional={
    "n": st.sampled_from([32, 64, 128, 1024]),
    "model": st.sampled_from(MODELS),
    "eps": st.floats(min_value=0.0, allow_infinity=False) | st.integers(0, 10),
    "t_final": positive | st.integers(1, 10),
    "cfl": st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
    "sample_interval": positive,
    "initial_data": (st.sampled_from(["default", "steep", "shear"])
                     | st.lists(mode_row.map(list), min_size=1, max_size=6)),
    "stop_on_exit": st.booleans(),
    "seed": st.integers(),
    "output_dir": st.text(),
})


@st.composite
def experiment_objects(draw):
    kind = draw(st.sampled_from(EXPERIMENT_KINDS))
    eps = draw(st.lists(st.floats(min_value=1e-6, max_value=1.0), unique=True,
                        min_size=0 if kind == "inequalities" else 3, max_size=6))
    obj = {"kind": kind, "eps_list": sorted(eps, reverse=True)}
    if draw(st.booleans()):
        obj["base"] = draw(run_objects)
    return obj


def dumped(cfg) -> str:
    """The JSON text of a parsed config's fields."""
    return json.dumps(asdict(cfg))


@given(run_objects | experiment_objects())
def test_serialize_round_trips(obj):
    cfg = parse_config(json.dumps(obj))
    assert isinstance(cfg, ExperimentSpec if "kind" in obj else RunConfig)
    text = dumped(cfg)
    assert parse_config(text) == cfg
    assert dumped(parse_config(text)) == text


# JSON values of every kind, including the NaN and Infinity Python's
# json module reads, and integers too large for a float
json_values = st.recursive(
    st.none() | st.booleans() | st.floats() | st.integers(-10 ** 400, 10 ** 400)
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12)


@st.composite
def corrupted_texts(draw):
    """A valid config with one key's value replaced, or its text cut or
    spliced."""
    obj = draw(run_objects | experiment_objects())
    how = draw(st.sampled_from(["value", "row", "cut", "splice"]))
    if how == "value":
        keys = sorted(set(RunConfig.__dataclass_fields__)
                      | set(ExperimentSpec.__dataclass_fields__))
        obj[draw(st.sampled_from(keys))] = draw(json_values)
        return json.dumps(obj)
    if how == "row":
        rows = draw(st.lists(st.lists(json_values, max_size=5), min_size=1, max_size=3))
        target = obj.setdefault("base", {}) if "kind" in obj else obj
        target["initial_data"] = rows
        return json.dumps(obj)
    text = json.dumps(obj)
    i = draw(st.integers(0, len(text)))
    j = draw(st.integers(i, len(text)))
    insert = "" if how == "cut" else draw(st.text(max_size=12))
    return text[:i] + insert + text[j:]


@given(corrupted_texts())
def test_corrupt_config_is_config_error(text):
    try:
        cfg = parse_config(text)
    except ConfigError:
        return
    assert isinstance(cfg, (RunConfig, ExperimentSpec))
    assert parse_config(dumped(cfg)) == cfg


@given(corrupted_texts())
def test_corrupt_config_exits_3(text):
    try:
        parse_config(text)
    except ConfigError:
        pass
    else:
        assume(False)  # a config that still parses would start a run
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(text, encoding="utf-8")
        for verb in ("run", "experiment", "dump"):
            assert main([verb, "--config", str(path), "--out", tmp]) == EXIT_INFRA

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
    SUITE_BASE_KEYS,
    ConfigError,
    ExperimentSpec,
    RunConfig,
    parse_config,
)

positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
coefficient = st.floats(allow_nan=False, allow_infinity=False, width=64)
GRID_SIZES = [32, 64, 128, 1024]


def rows_in_band(n):
    """1-6 mode rows whose indices, reduced mod n, lie in the 2/3 band and
    are not (0, 0); some are shifted by n into aliased rows."""
    index = st.integers(-(n // 3), n // 3)
    shift = st.sampled_from([-n, 0, 0, n])
    row = st.tuples(index, index, shift, shift, coefficient, coefficient).filter(
        lambda r: r[:2] != (0, 0)).map(lambda r: [r[0] + r[2], r[1] + r[3], r[4], r[5]])
    return st.lists(row, min_size=1, max_size=6)


run_keys = st.fixed_dictionaries({}, optional={
    "n": st.sampled_from(GRID_SIZES),
    "model": st.sampled_from(MODELS),
    "t_final": positive | st.integers(1, 10),
    "cfl": st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
    "sample_interval": positive,
    "stop_on_exit": st.booleans(),
    "seed": st.integers(min_value=0),
    "output_dir": st.text(),
})


@st.composite
def run_objects(draw, eps_free=False):
    """A run config object; its mode rows lie in the band of its n, and its
    eps is nonzero only for an SGeps run, never with eps_free."""
    obj = draw(run_keys)
    if draw(st.booleans()):
        nonzero = obj.get("model") == "SGeps" and not eps_free
        obj["eps"] = draw(st.floats(min_value=0.0, allow_infinity=False) | st.integers(0, 10)
                          if nonzero else st.sampled_from([0, 0.0]))
    if draw(st.booleans()):
        obj["initial_data"] = draw(st.sampled_from(["default", "steep", "shear"])
                                   | rows_in_band(obj.get("n", 128)))
    return obj


@st.composite
def experiment_objects(draw):
    kind = draw(st.sampled_from(EXPERIMENT_KINDS))
    if kind == "inequalities":  # the suite reads no eps and two base keys
        obj = {"kind": kind, "eps_list": []}
        if draw(st.booleans()):
            obj["base"] = draw(run_objects().map(
                lambda base: {k: v for k, v in base.items() if k in SUITE_BASE_KEYS}))
        return obj
    eps = draw(st.lists(st.floats(min_value=1e-6, max_value=1.0), unique=True,
                        min_size=3, max_size=6))
    obj = {"kind": kind, "eps_list": sorted(eps, reverse=True)}
    if draw(st.booleans()):
        obj["base"] = draw(run_objects(eps_free=True))  # eps_list sets each run's eps
    return obj


def dumped(cfg) -> str:
    """The JSON text of a parsed config's fields, less the base keys an
    inequalities experiment rejects."""
    obj = asdict(cfg)
    if obj.get("kind") == "inequalities":
        obj["base"] = {k: obj["base"][k] for k in sorted(SUITE_BASE_KEYS)}
    return json.dumps(obj)


@given(run_objects() | experiment_objects())
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
    obj = draw(run_objects() | experiment_objects())
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


@given(st.sampled_from([None] + GRID_SIZES), st.booleans(), st.data())
def test_mode_row_above_the_band_is_config_error(n, in_experiment, data):
    # reduced mod n into [-n/2, n/2), an index beyond n/3 lies above the
    # 2/3 band, where dealiasing would zero its row; the check is made when
    # the config is parsed, before any run starts
    grid = 128 if n is None else n
    k = data.draw(st.integers(grid // 3 + 1, grid // 2))
    above = data.draw(st.sampled_from([k, -k])) + grid * data.draw(st.integers(-2, 2))
    other = data.draw(st.integers(-200, 200))
    row = data.draw(st.sampled_from([[above, other, 1.0, 0.0], [other, above, 0.0, 1.0]]))
    base = {"initial_data": [[1, 0, 1.0, 0.0], row]} | ({} if n is None else {"n": n})
    obj = {"kind": "stability", "eps_list": [0.04, 0.02, 0.01], "base": base} \
        if in_experiment else base
    with pytest.raises(ConfigError, match=r"^key 'initial_data': mode row .* lies above "
                                          r"the 2/3 band"):
        parse_config(json.dumps(obj))


# numpy's generators take no negative seed; a config must say which key is
# wrong before any run starts, not end in numpy's bare message
@pytest.mark.parametrize("obj", [
    {"seed": -1},
    {"kind": "inequalities", "base": {"seed": -3}},
    {"kind": "stability", "eps_list": [0.04, 0.02, 0.01], "base": {"seed": -1}},
])
def test_negative_seed_is_named(obj, tmp_path, capsys):
    with pytest.raises(ConfigError, match=r"key 'seed': must be >= 0, got -\d"):
        parse_config(json.dumps(obj))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    verb = "experiment" if "kind" in obj else "run"
    out = tmp_path / "out"
    assert main([verb, "--config", str(path), "--out", str(out)]) == EXIT_INFRA
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "key 'seed'" in err
    assert not out.exists()


# eps is SGeps's alone: Euler and Corrector runs are eps-free, and an
# experiment's eps_list sets each run's eps
@pytest.mark.parametrize("model", ["Euler", "Corrector"])
def test_eps_free_model_rejects_eps(model):
    with pytest.raises(ConfigError,
                       match=rf"^key 'eps': only SGeps reads eps, a {model} run is eps-free$"):
        RunConfig(n=32, model=model, eps=0.3)
    assert RunConfig(n=32, model=model, eps=0.0).eps == 0.0
    assert RunConfig(n=32, model="SGeps", eps=0.3).eps == 0.3


@pytest.mark.parametrize("obj", [
    {"n": 32, "model": "Euler", "eps": 0.3, "stop_on_exit": True},
    {"n": 32, "model": "Corrector", "eps": 0.05},
    {"kind": "stability", "eps_list": [0.04, 0.02, 0.01],
     "base": {"model": "SGeps", "eps": 0.3}},
    {"kind": "corrector", "eps_list": [0.08, 0.04, 0.02], "base": {"model": "Corrector",
                                                                   "eps": 0.02}},
])
def test_stray_eps_exits_3_naming_eps(obj, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    verbs = ["experiment"] if "kind" in obj else ["run", "dump"]
    out = tmp_path / "out"
    for verb in verbs:
        assert main([verb, "--config", str(path), "--out", str(out)]) == EXIT_INFRA
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: key 'eps': ")
    assert not out.exists()
    if "kind" in obj and obj["base"]["model"] == "SGeps":
        assert "eps_list sets each run's eps" in err
    with pytest.raises(ConfigError, match=r"^key 'eps': "):
        parse_config(json.dumps(obj))

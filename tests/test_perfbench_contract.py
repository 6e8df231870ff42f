"""The benchmark's workloads and its span tracer still find every name
they look up in sglab: building each workload and entering the tracer
fail here, in tier 1, when a deletion removes one of them. The
benchmark's premise holds too: its seed-0 runs start from the preset
names and its other seeds from the mode lists `DATUM_MODES`, so the two
must be the same rows and build the same datum bit for bit. And one
seed-0 operation of each workload passes the check the benchmark judges
every operation by."""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from perfbench import spans, workloads  # noqa: E402
from sglab.spectral import TorusGrid  # noqa: E402
from sglab.transport import PRESETS, initial_data_field  # noqa: E402


def test_every_workload_builds():
    for name in workloads.NAMES:
        workloads.build(name, 0)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_seed0_operation_matches_the_reference(name, tmp_path):
    ref = json.loads((ROOT / "perfbench" / "reference.json").read_text())
    verdict, _ = workloads.build(name, 0).run(tmp_path)
    assert workloads.mismatches(verdict, ref["workloads"][name], ref["tolerances"]) == []


def test_tracer_wraps_its_targets():
    with spans.Tracer():
        pass


@pytest.mark.parametrize("name", sorted(workloads.DATUM_MODES))
def test_datum_modes_match_the_presets(name):
    assert workloads.DATUM_MODES[name] == PRESETS[name]
    for n in (32, 64, 128):
        grid = TorusGrid(n)
        preset = initial_data_field(grid, name).values
        modes = initial_data_field(grid, workloads.DATUM_MODES[name]).values
        assert np.array_equal(preset, modes)

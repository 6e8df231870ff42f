"""The benchmark's workloads and its span tracer still find every name
they look up in sglab: building each workload and entering the tracer
fail here, in tier 1, when a deletion removes one of them. The
benchmark's premise holds too: its seed-0 runs start from the preset
names and its other seeds from the mode lists `DATUM_MODES`, so the two
must describe the same datum."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from perfbench import spans, workloads  # noqa: E402
from sglab.spectral import TorusGrid  # noqa: E402
from sglab.transport import initial_data_field  # noqa: E402


def test_every_workload_builds():
    for name in workloads.NAMES:
        workloads.build(name, 0)


def test_tracer_wraps_its_targets():
    with spans.Tracer():
        pass


@pytest.mark.parametrize("name", sorted(workloads.DATUM_MODES))
def test_datum_modes_match_the_presets(name):
    grid = TorusGrid(64)
    preset = initial_data_field(grid, name).values
    modes = initial_data_field(grid, workloads.DATUM_MODES[name]).values
    assert np.max(np.abs(preset - modes)) <= 1e-14

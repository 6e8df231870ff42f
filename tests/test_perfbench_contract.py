"""The benchmark's workloads and its span tracer still find every name
they look up in sglab: building each workload and entering the tracer
fail here, in tier 1, when a deletion removes one of them."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import spans, workloads  # noqa: E402


def test_every_workload_builds():
    for name in workloads.NAMES:
        workloads.build(name, 0)


def test_tracer_wraps_its_targets():
    with spans.Tracer():
        pass

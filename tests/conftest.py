"""Shared pytest plumbing: collected acceptance verdicts are printed
as one block after the normal test summary, property tests draw the
same Hypothesis examples on every run, `field_from` samples a
function on a grid, and `bundle` is the inequality suite's trajectory
bundle of seeds 0 and 3, built once per session."""

import pytest

from sglab.inequalities import _Bundle
from sglab.spectral import ScalarField

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    # derandomized, with no example database: tier-1 stays reproducible
    settings.register_profile("sglab", derandomize=True, database=None,
                              deadline=None, max_examples=200)
    settings.load_profile("sglab")

_ACCEPTANCE = []


def field_from(grid, fn):
    """The field of fn(x, y) sampled at the grid points."""
    return ScalarField(grid, fn(*grid.points()))


@pytest.fixture(scope="session", params=[0, 3])
def bundle(request):
    return _Bundle(request.param, count=20)


def record_acceptance(number, name, passed, detail=""):
    _ACCEPTANCE.append((number, name, bool(passed), detail))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for number, name, passed, detail in sorted(_ACCEPTANCE):
        line = f"ACCEPTANCE {number} {name}: {'PASS' if passed else 'FAIL'}"
        if detail:
            line += f"  [{detail}]"
        terminalreporter.write_line(line)

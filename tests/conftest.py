"""Shared pytest hooks: collects acceptance-criterion verdict lines and
sets the hypothesis profile."""

import pytest
from hypothesis import settings

# Property tests draw the same examples on every run, so a failure
# reproduces; their examples simulate whole runs, so no deadline.
settings.register_profile("tespovm", derandomize=True, deadline=None)
settings.load_profile("tespovm")

_criterion_lines = []


@pytest.fixture(scope="session")
def criterion_log():
    """Append one 'criterion N: PASS/FAIL (...)' line per criterion."""
    return _criterion_lines


def pytest_terminal_summary(terminalreporter):
    if _criterion_lines:
        terminalreporter.section("acceptance criteria")
        for line in _criterion_lines:
            terminalreporter.write_line(line)

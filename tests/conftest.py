"""Shared fixtures: fields and the construction contexts used across files.

Contexts are session-scoped because several files share them; the largest,
(q=4, k=3, s=3), builds its two certified Singer orbits of 4,161 members
in under a second.  The terminal-summary hook at the bottom turns the
test_acceptance results into one PASS/FAIL line per criterion.
"""

import re

import pytest

from flagcodes import (build_full_type_context, build_spread_context,
                       extend_field, make_field)


@pytest.fixture(scope="session")
def F2():
    return make_field(2, 1)


@pytest.fixture(scope="session")
def F3():
    return make_field(3, 1)


@pytest.fixture(scope="session")
def F4():
    return make_field(2, 2)


@pytest.fixture(scope="session")
def F8(F2):
    return extend_field(F2, 3)


@pytest.fixture(scope="session")
def F27(F3):
    return extend_field(F3, 3)


@pytest.fixture(scope="session")
def ctx_q2k2s2(F2):
    return build_spread_context(F2, 2, 2)


@pytest.fixture(scope="session")
def ctx_q2k3s2(F2):
    return build_spread_context(F2, 3, 2)


@pytest.fixture(scope="session")
def ctx_q3k3s2(F3):
    return build_spread_context(F3, 3, 2)


@pytest.fixture(scope="session")
def ctx_q4k3s3(F4):
    return build_spread_context(F4, 3, 3)


@pytest.fixture(scope="session")
def ftx_q2k2(F2):
    return build_full_type_context(F2, 2)


@pytest.fixture(scope="session")
def ftx_q3k2(F3):
    return build_full_type_context(F3, 2)


_CRITERION = re.compile(r"test_acceptance\.py::test_criterion_(\d+)_(\w+)")
_criterion_results = {}


def pytest_runtest_logreport(report):
    m = _CRITERION.search(report.nodeid)
    if not m:
        return
    num, label = int(m.group(1)), m.group(2)
    if report.when == "call":
        _criterion_results[num] = (label, report.outcome == "passed")
    elif report.outcome != "passed":
        # setup or teardown crash counts as a failure of the criterion
        _criterion_results[num] = (label, False)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _criterion_results:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(_criterion_results):
        label, ok = _criterion_results[num]
        terminalreporter.write_line(
            "criterion %2d  %-40s %s" % (num, label.replace("_", " "),
                                         "PASS" if ok else "FAIL"))

"""Shared fixtures.

Key generation costs ~1 ms per entity; the fixtures below are
module/session scoped where reuse is safe (entities are immutable), so
the suite stays fast without stubbing any cryptography.
"""

import pytest
from hypothesis import settings

from repro.core import Role, SimClock, create_principal
from repro.workloads import (
    build_case_study,
    build_distributed_case_study,
    build_table1,
)


# -- Hypothesis budgets ------------------------------------------------------
#
# A property that leaves ``max_examples`` (a state machine:
# ``stateful_step_count``) unset follows the loaded profile: the tier-1
# budget by default, ``--hypothesis-profile=long`` for CI's long step.
# This file is imported before the Hypothesis plugin reads that flag, so
# the flag wins.

settings.register_profile("tier1", max_examples=10, stateful_step_count=15,
                          deadline=None)
settings.register_profile("long", max_examples=200, stateful_step_count=30,
                          deadline=None)
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def alice():
    return create_principal("Alice")


@pytest.fixture(scope="session")
def bob():
    return create_principal("Bob")


@pytest.fixture(scope="session")
def carol():
    return create_principal("Carol")


@pytest.fixture(scope="session")
def org():
    return create_principal("Org")


@pytest.fixture(scope="session")
def org_role(org):
    return Role(org.entity, "staff")


@pytest.fixture()
def clock():
    return SimClock()


@pytest.fixture(scope="session")
def table1():
    """The immutable Table 1 scenario (shared; contains no mutable state)."""
    return build_table1()


@pytest.fixture(scope="session")
def case_study():
    """The immutable Table 3 delegation set."""
    return build_case_study()


@pytest.fixture()
def distributed_case():
    """A fresh Figure 2 deployment per test (wallets are mutable)."""
    return build_distributed_case_study()


# -- runtime lockset sanitizer (pytest --sanitize) --------------------------


def pytest_addoption(parser):
    parser.addoption(
        "--sanitize", action="store_true", default=False,
        help="instrument threading.Lock/RLock with the Eraser-style "
             "lockset sanitizer for the whole session; reports "
             "acquisition-order stats and fails (exit 3) on observed "
             "violations")


def pytest_configure(config):
    if not config.getoption("--sanitize"):
        return
    from repro.analysis.concurrency.sanitizer import LockSanitizer
    sanitizer = LockSanitizer()
    sanitizer.install()
    config._lock_sanitizer = sanitizer


def pytest_sessionfinish(session, exitstatus):
    sanitizer = getattr(session.config, "_lock_sanitizer", None)
    if sanitizer is None:
        return
    session.config._lock_sanitizer = None
    report = sanitizer.report()
    sanitizer.uninstall()
    reporter = session.config.pluginmanager.getplugin("terminalreporter")
    write = reporter.write_line if reporter is not None else print
    write(f"lock sanitizer: {report.locks_created} lock(s), "
          f"{report.acquires} acquire(s), {report.order_edges} order "
          f"edge(s), max held depth {report.max_held_depth}, "
          f"{len(report.violations)} violation(s)")
    for violation in report.violations:
        write(f"lock sanitizer VIOLATION [{violation.kind}] "
              f"{violation.message}")
    if report.violations:
        session.exitstatus = 3

from __future__ import annotations

import functools
import os
import subprocess
import sys
from pathlib import Path

import pytest

from _oracles import brute_trust_problem

SRC = str(Path(__file__).resolve().parent.parent / "src")

#: Tests that build groups violating the trust rule on purpose, with how many
#: the trust audit flags in each case of the test and why they are built:
#: 8 in all, 2 here and 2 in each of the three cases below.
AUDIT_ALLOWLIST = {
    "test_fiber_product_hints_that_do_not_generate_are_internal": (
        2,
        "drops the quaternion factor's y, once through the library and once through the CLI, "
        "to check that the fiber product refuses hints that do not generate",
    ),
    "test_walked_rows_match_groups_no_family_builds": (
        2,
        "builds FiniteGroup(rows, ()) on S4, A5 or a UT(7,2) group, plain and relabelled, "
        "to compare the inverses it reads off with the oracle's; no names generate",
    ),
}

_flagged: list[str] = []  # what the audit found since the last test ended


def pytest_addoption(parser):
    parser.addoption(
        "--audit-trusted",
        action="store_true",
        help="check every group built by the trusted FiniteGroup constructor with the brute oracles",
    )


def _audited(init):
    """FiniteGroup.__init__, then the trust audit of the new group, unless
    validation built it: the oracles alone check what a builder vouches for,
    and what they find goes to ``_flagged``.  Only fields the constructor
    set are read, so no package code runs and no work counter moves."""

    @functools.wraps(init)
    def audited_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        if sys._getframe(1).f_code.co_name != "from_multiplication_table":
            gens = [g for _, g in self.generator_names]
            problem = brute_trust_problem(self.table, self.identity, self.inverse, gens)
            if problem is not None:
                _flagged.append(f"order {self.order}, generators {gens}: {problem}")

    return audited_init


def pytest_configure(config):
    if config.getoption("--audit-trusted"):
        from centlat.core import FiniteGroup

        FiniteGroup.__init__ = _audited(FiniteGroup.__init__)


@pytest.fixture(autouse=True)
def _trust_audit_gate(request):
    """Under --audit-trusted, fail a test when the audit flags a group it
    built (fixtures included), unless the allowlist expects that many or it
    checks them itself through ``trust_audit``."""
    yield
    found = list(_flagged)
    _flagged.clear()
    if not request.config.getoption("--audit-trusted") or "trust_audit" in request.fixturenames:
        return
    expected = AUDIT_ALLOWLIST.get(request.node.originalname, (0, ""))[0]
    if len(found) != expected:
        pytest.fail(f"the trust audit flagged {len(found)} groups, {expected} expected: {found[:3]}", pytrace=False)


@pytest.fixture
def trust_audit(monkeypatch):
    """The problems the trust audit finds in the groups the test builds,
    with or without --audit-trusted; the test checks them itself."""
    from centlat.core import FiniteGroup

    if not hasattr(FiniteGroup.__init__, "__wrapped__"):
        monkeypatch.setattr(FiniteGroup, "__init__", _audited(FiniteGroup.__init__))
    _flagged.clear()
    yield _flagged
    _flagged.clear()


def run_cli(*args: str, cwd: str | None = None) -> subprocess.CompletedProcess:
    """Run the CLI in a fresh interpreter, returning the completed process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "centlat", *args],
        capture_output=True,
        text=True,
        encoding="utf-8",
        env=env,
        cwd=cwd,
        timeout=600,
    )


@pytest.fixture(scope="session")
def cli():
    return run_cli


@pytest.fixture(scope="session")
def sweep_records():
    """Central-quotient sweep over the catalog, shared by the tests that
    audit it (computed once per session)."""
    from centlat.verify import central_quotient_sweep

    return central_quotient_sweep()

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")


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

"""Golden CLI outputs: stdout, stderr and the exit code of a fixed set of
fast commands, checked byte for byte in-process.

The files under ``tests/golden/`` were produced by ``python -m centlat``
before the simplifications they guard; ``cases.json`` lists each case's
argv, exit code and stderr, and ``<name>.out`` holds its stdout.  A change
that alters any of them changes user-visible output.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from centlat import cli as centlat_cli

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_cli_output_matches_golden(case, capsys):
    code = centlat_cli.main(case["argv"])
    out, err = capsys.readouterr()
    assert code == case["exit"]
    assert err == case["stderr"]
    assert out == (GOLDEN / f"{case['name']}.out").read_text(encoding="utf-8")

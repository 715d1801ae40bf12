from __future__ import annotations

import ast
import importlib.util
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location("mutate", Path(__file__).resolve().parent.parent / "tools" / "mutate.py")
mutate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutate)

SOURCE = '''\
import os


class Box:
    def f(self, a: int | None, b: "set[int]" = None) -> int | None:
        """a | b, a < b and not a."""
        x: int | None = a & b  # trailing comment
        if not a < b and a in b:
            x ^= a + b << 1
        return x


def g(a):
    return a >= 0 or a is None
'''


def test_mutants_swap_each_operator_once_and_skip_annotations_and_docstrings():
    found = mutate.mutants(SOURCE, "Box.f")
    assert [(m.line, m.change) for m in found] == [
        (7, "& -> |"),
        (7, "& -> ^"),
        (8, "and -> or"),
        (8, "not dropped"),
        (8, "< -> <="),
        (8, "in -> not in"),
        (9, "^ -> &"),
        (9, "^ -> |"),
        (9, "<< -> >>"),
        (9, "+ -> -"),
    ]
    for m in found:
        tree = ast.parse(m.source)  # every mutant is a whole module that parses
        f = tree.body[1].body[0]
        assert ast.unparse(f.returns) == "int | None" and ast.get_docstring(f) == "a | b, a < b and not a."
        # only Box.f changes: the lines around it are kept byte for byte
        assert m.source.startswith("import os\n\n\nclass Box:\n") and m.source.endswith(SOURCE[SOURCE.index("\n\ndef g"):])
    assert [m.column for m in found if m.line == 9] == [12, 12, 17, 17]  # x ^= ..., then a + b << 1
    dropped = next(m for m in found if m.change == "not dropped")
    assert "if not not a < b and a in b:" in dropped.source
    assert [m.change for m in mutate.mutants(SOURCE, "g")] == ["or -> and", ">= -> >", "is -> is not"]


def test_sigterm_stops_the_running_tests_and_removes_the_copy(tmp_path):
    # the unmutated run of a tiny target is still in its test when the tool
    # gets SIGTERM: it must end that pytest's session and remove its copy
    repo, scratch, pid_file = tmp_path / "repo", tmp_path / "tmp", tmp_path / "pytest.pid"
    (repo / "src").mkdir(parents=True)
    (repo / "tests").mkdir()
    scratch.mkdir()
    (repo / "src" / "tiny.py").write_text("def f(a):\n    return a + 1\n", encoding="utf-8")
    (repo / "tests" / "test_tiny.py").write_text(
        "import os, time\n\n\ndef test_slow():\n"
        f"    open({str(pid_file)!r}, 'w').write(str(os.getpid()))\n"
        "    time.sleep(60)\n",
        encoding="utf-8",
    )
    env = dict(os.environ, TMPDIR=str(scratch))
    tool = subprocess.Popen(
        [sys.executable, str(Path(_spec.origin)), "src/tiny.py:f", "--tests", "tests/test_tiny.py"],
        cwd=repo, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        deadline = time.monotonic() + 30
        while not pid_file.exists() or not pid_file.read_text():
            assert tool.poll() is None and time.monotonic() < deadline
            time.sleep(0.05)
        child = int(pid_file.read_text())
        assert [p.name for p in scratch.iterdir()][0].startswith("mutate-")
        tool.send_signal(signal.SIGTERM)
        assert tool.wait(timeout=30) == 128 + signal.SIGTERM
    finally:
        if tool.poll() is None:
            tool.kill()
            tool.wait()
    assert list(scratch.iterdir()) == []
    with pytest.raises(ProcessLookupError):
        os.kill(child, 0)

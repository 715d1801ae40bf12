"""Operator mutation testing for selected functions, stdlib only.

Each mutant changes one operator inside one selected function:

- a comparison: ``<`` and ``<=``, ``>`` and ``>=``, ``==`` and ``!=``,
  ``in`` and ``not in``, ``is`` and ``is not`` swap;
- a bitwise operator (also augmented): ``&``, ``|`` and ``^`` each become
  either of the other two;
- ``+`` and ``-`` swap, ``<<`` and ``>>`` swap, ``and`` and ``or`` swap;
- a ``not`` is dropped: ``not x`` becomes ``not not x``, the truth value of x.

Annotations are never mutated (``int | None`` is no expression the
function computes), nor are docstrings.  The mutated function is written
back from its syntax tree, so its comments are lost, which changes nothing
that runs.

The checkout is copied to a temporary directory once and each mutant is
written into that copy, so the checkout itself is never touched.  The
unmutated tests run first, timed, under the same memory cap.  Mutants then
run one at a time, each as a fresh ``pytest -x`` over the named test
modules with a wall-clock timeout of ``TIMEOUT_FACTOR`` times that first
run and a 1 GiB memory cap (``RLIMIT_AS``) set in the child only: a mutated
closure loop can grow without bound.  A mutant is killed when pytest fails
or times out, and survives when every test passes.

Usage, from the root of the repository::

    python tools/mutate.py src/centlat/lattice.py:CentralizerLattice.__init__ \\
        src/centlat/core.py:_centralizer_mask \\
        --tests tests/test_lattice.py tests/test_core.py > survivors.json

Progress goes to stderr.  The JSON report on stdout counts the mutants, the killed and the timed out, and lists
each survivor with its file, function, line, column and change.
"""

from __future__ import annotations

import argparse
import ast
import copy
import json
import os
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

COMPARE_SWAPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.In: ast.NotIn, ast.NotIn: ast.In,
    ast.Is: ast.IsNot, ast.IsNot: ast.Is,
}
BINOP_SWAPS = {
    ast.BitAnd: (ast.BitOr, ast.BitXor), ast.BitOr: (ast.BitAnd, ast.BitXor),
    ast.BitXor: (ast.BitAnd, ast.BitOr), ast.Add: (ast.Sub,), ast.Sub: (ast.Add,),
    ast.LShift: (ast.RShift,), ast.RShift: (ast.LShift,),
}
BOOLOP_SWAPS = {ast.And: ast.Or, ast.Or: ast.And}
SYMBOLS = {
    ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=",
    ast.In: "in", ast.NotIn: "not in", ast.Is: "is", ast.IsNot: "is not",
    ast.BitAnd: "&", ast.BitOr: "|", ast.BitXor: "^", ast.Add: "+", ast.Sub: "-",
    ast.LShift: "<<", ast.RShift: ">>", ast.And: "and", ast.Or: "or",
}
NO_TESTS_COLLECTED = 5  # pytest's exit code when it found no test to run
MEMORY_LIMIT = 1 << 30  # RLIMIT_AS per mutant run, enough for the real tests
TIMEOUT_FACTOR = 5  # a mutant's time limit, in multiples of the unmutated run


class Mutant(NamedTuple):
    function: str
    line: int
    column: int
    change: str
    source: str  # the whole mutated module


def _find_function(tree: ast.Module, qualname: str) -> ast.FunctionDef:
    scope: ast.AST = tree
    for part in qualname.split("."):
        found = [
            node for node in getattr(scope, "body", ())
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == part
        ]
        if not found:
            raise SystemExit(f"mutate: no {qualname!r} (missing {part!r})")
        scope = found[0]
    if not isinstance(scope, ast.FunctionDef):
        raise SystemExit(f"mutate: {qualname!r} is not a function")
    return scope


def _annotation_nodes(func: ast.AST) -> set[int]:
    """ids of every node inside an annotation of ``func`` or of anything nested in it."""
    roots = []
    for node in ast.walk(func):
        if isinstance(node, ast.arg) and node.annotation is not None:
            roots.append(node.annotation)
        elif isinstance(node, ast.FunctionDef) and node.returns is not None:
            roots.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            roots.append(node.annotation)
    return {id(sub) for root in roots for sub in ast.walk(root)}


def _changes(node: ast.AST) -> list[tuple[str, object]]:
    """(change, how) for each mutation of ``node`` itself."""
    if isinstance(node, ast.Compare):
        return [
            (f"{SYMBOLS[type(op)]} -> {SYMBOLS[COMPARE_SWAPS[type(op)]]}", (i, COMPARE_SWAPS[type(op)]))
            for i, op in enumerate(node.ops)
        ]
    if isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in BINOP_SWAPS:
        return [(f"{SYMBOLS[type(node.op)]} -> {SYMBOLS[new]}", new) for new in BINOP_SWAPS[type(node.op)]]
    if isinstance(node, ast.BoolOp):
        new = BOOLOP_SWAPS[type(node.op)]
        return [(f"{SYMBOLS[type(node.op)]} -> {SYMBOLS[new]}", new)]
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
        return [("not dropped", None)]
    return []


def _points(func: ast.AST) -> list[tuple[int, int, int, str, object]]:
    """(walk index, line, column, change, how) for each mutation in ``func``, in
    source order (an enclosing expression before the ones inside it)."""
    skip = _annotation_nodes(func)
    out = []
    for k, node in enumerate(ast.walk(func)):
        if id(node) not in skip:
            out.extend(((node.lineno, node.col_offset, k), change, how) for change, how in _changes(node))
    out.sort(key=lambda point: point[0])  # stable: a node's own changes keep their order
    return [(k, line, column, change, how) for (line, column, k), change, how in out]


def _apply(node: ast.AST, how: object) -> None:
    """Mutate ``node`` in place."""
    if isinstance(node, ast.Compare):
        i, new = how
        node.ops[i] = new()
    elif isinstance(node, ast.UnaryOp):  # not x becomes not not x: x wherever a truth value is read
        node.operand = ast.UnaryOp(ast.Not(), node.operand)
    else:
        node.op = how()


def mutants(source: str, qualname: str) -> list[Mutant]:
    """Every single-operator mutant of function ``qualname`` in ``source``,
    each as the whole module with that function rewritten."""
    tree = ast.parse(source)
    func = _find_function(tree, qualname)
    lines = source.splitlines(keepends=True)
    first = min([func.lineno, *(d.lineno for d in func.decorator_list)]) - 1
    before, after = "".join(lines[:first]), "".join(lines[func.end_lineno:])
    indent = " " * func.col_offset
    out = []
    for k, line, column, change, how in _points(func):
        clone = copy.deepcopy(func)
        _apply(list(ast.walk(clone))[k], how)
        body = "".join(indent + row + "\n" for row in ast.unparse(clone).splitlines())
        out.append(Mutant(qualname, line, column, change, before + body + after))
    return out


def _limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def _run_tests(root: Path, tests: list[str], timeout: float | None) -> str:
    """'passed', 'failed' or 'timeout' for one pytest run in ``root``."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    proc = subprocess.Popen(
        cmd, cwd=root, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        start_new_session=True, preexec_fn=_limit_memory,
    )
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return "timeout"
    if code == NO_TESTS_COLLECTED:
        raise SystemExit(f"mutate: pytest collected no test from {tests}")
    return "passed" if code == 0 else "failed"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("selectors", nargs="+", help="path:function, e.g. src/pkg/mod.py:Class.method")
    parser.add_argument("--tests", nargs="+", required=True, help="test modules pytest runs per mutant")
    args = parser.parse_args(argv)

    root = Path.cwd()
    work: list[tuple[str, Mutant]] = []
    for selector in args.selectors:
        path, _, qualname = selector.partition(":")
        source = (root / path).read_text(encoding="utf-8")
        work.extend((path, m) for m in mutants(source, qualname))

    report = {"mutants": len(work), "killed": 0, "timeouts": 0, "survivors": []}
    with tempfile.TemporaryDirectory(prefix="mutate-") as tmp:
        copy_root = Path(tmp) / "repo"
        shutil.copytree(root, copy_root, ignore=shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache"))
        start = time.perf_counter()
        if _run_tests(copy_root, args.tests, None) != "passed":
            raise SystemExit("mutate: the unmutated tests do not pass under the memory cap")
        elapsed = time.perf_counter() - start
        timeout = TIMEOUT_FACTOR * elapsed
        print(f"unmutated run passed in {elapsed:.1f} s; time limit per mutant {timeout:.1f} s", file=sys.stderr)
        for n, (path, m) in enumerate(work, 1):
            target = copy_root / path
            original = target.read_text(encoding="utf-8")
            target.write_text(m.source, encoding="utf-8")
            start = time.perf_counter()
            try:
                outcome = _run_tests(copy_root, args.tests, timeout)
            finally:
                target.write_text(original, encoding="utf-8")
            print(f"[{n}/{len(work)}] {path}:{m.function}:{m.line}:{m.column} {m.change}: "
                  f"{outcome} ({time.perf_counter() - start:.1f} s)", file=sys.stderr)
            if outcome == "passed":
                survivor = {"path": path, "function": m.function, "line": m.line, "column": m.column, "change": m.change}
                report["survivors"].append(survivor)
            else:
                report["killed"] += 1
                report["timeouts"] += outcome == "timeout"
    sys.stdout.write(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

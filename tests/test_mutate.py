from __future__ import annotations

import ast
import importlib.util
from pathlib import Path

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

"""An outside oracle: sympy's permutation groups against the package.

``tests/_oracles.py`` shares no code with the package, but it was written
alongside it, so one misreading of a definition could sit on both sides.
sympy computes orders, centers, centralizers and derived subgroups by
Schreier-Sims and shares nothing with this repository.

Each group becomes its left-regular permutation group: a generator s is
the permutation y -> s*y of the n elements, read off its table row, so every
element g of the permutation group is y -> g*y and is named by its image of
the identity.  Budget: the order and Z(G) over catalog(64), about 3 s; G'
and C(x) for every element over catalog(32), about 7 s on a 2-vCPU machine.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from centlat import catalog, center, centralizer, closure, commutator_set

pytest.importorskip("sympy")
from sympy.combinatorics import Permutation, PermutationGroup

SRC = Path(__file__).resolve().parent.parent / "src" / "centlat"


def _regular(group):
    """The left-regular permutation group of ``group``."""
    return PermutationGroup([Permutation(list(group.table[s])) for _, s in group.generator_names])


def _named(group, perms) -> list[int]:
    """The elements of ``group`` the permutations are, by their image of the identity."""
    return sorted(p.array_form[group.identity] for p in perms)


def test_order_and_center_match_sympy():
    for entry in catalog(64):
        g, perm = entry.group, _regular(entry.group)
        assert perm.order() == g.order, entry.name
        assert _named(g, perm.center().generate()) == list(center(g).members), entry.name


def test_derived_subgroup_and_every_centralizer_match_sympy():
    for entry in catalog(32):
        g, perm = entry.group, _regular(entry.group)
        derived = list(closure(g, commutator_set(g)).members)
        assert _named(g, perm.derived_subgroup().generate()) == derived, entry.name
        for x in range(g.order):
            c = perm.centralizer(Permutation(list(g.table[x])))
            assert _named(g, c.generate()) == list(centralizer(g, [x]).members), (entry.name, x)


def test_src_imports_neither_sympy_nor_networkx():
    imported = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                imported.add(node.module.split(".")[0])
    assert imported and not imported & {"sympy", "networkx"}

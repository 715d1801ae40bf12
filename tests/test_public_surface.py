"""The package's public surface: ``centlat.__all__``, the README tour, and
the functions the benchmark harness wraps by name."""

from __future__ import annotations

import ast
import importlib
import re
import sys
import types
from collections import Counter
from pathlib import Path

import centlat

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
SPANS = ROOT / "perfbench" / "spans.py"


def _readme_tour() -> str:
    text = README.read_text(encoding="utf-8")
    tour = text[text.index("## Library tour"):]
    return re.search(r"```python\n(.*?)```", tour, re.DOTALL).group(1)


def test_every_public_name_resolves_once():
    assert [n for n, k in Counter(centlat.__all__).items() if k > 1] == []
    namespace: dict = {}
    exec("from centlat import *", namespace)
    assert set(centlat.__all__) <= namespace.keys()


def test_all_is_the_import_block():
    # __all__ is read off the names __init__ imports: no module, nothing
    # private, and everything the README tour imports from centlat
    assert [n for n in centlat.__all__ if n.startswith("_")] == []
    assert [n for n in centlat.__all__ if isinstance(getattr(centlat, n), types.ModuleType)] == []
    tour = ast.parse(_readme_tour())
    imported = [
        alias.name
        for node in ast.walk(tour)
        if isinstance(node, ast.ImportFrom) and node.module == "centlat"
        for alias in node.names
    ]
    assert imported and set(imported) <= set(centlat.__all__)


def test_readme_tour_runs():
    exec(compile(_readme_tour(), str(README), "exec"), {})


def test_benchmark_wrapped_functions_have_one_name():
    # perfbench/spans.py replaces each function LAYERS names wherever a
    # centlat module holds it, so each must exist on its module and be bound
    # under no other name: hom_from_map = GroupHom would turn the class
    # GroupHom into a timing wrapper in every module
    tree = ast.parse(SPANS.read_text(encoding="utf-8"))
    (layers,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["LAYERS"]
    ]
    importlib.import_module("centlat.cli")  # loads every module that re-imports the names
    modules = [m for name, m in sys.modules.items() if name == "centlat" or name.startswith("centlat.")]
    for module_name, functions in layers.values():
        home = importlib.import_module(module_name)
        for fn_name in functions:
            assert hasattr(home, fn_name), f"{module_name}.{fn_name}"
            fn = getattr(home, fn_name)
            aliases = [
                f"{m.__name__}.{attr}" for m in modules for attr, v in vars(m).items() if v is fn and attr != fn_name
            ]
            assert aliases == [], f"{module_name}.{fn_name} is also bound as {aliases}"


def test_each_package_type_has_a_short_repr():
    d8 = centlat.make_family("dihedral", 8)
    z = centlat.center(d8)
    _, proj = centlat.quotient(d8, z)
    lattice = centlat.lattice_of(d8)
    got = [repr(v) for v in (d8, z, proj, lattice, centlat.induced_map(centlat.identity_hom(d8)))]
    assert got == [
        "FiniteGroup(order=8, generators=[x,y])",
        "SubgroupSet(order=2, members=[0, 2])",
        "GroupHom(8 -> 4)",
        "CentralizerLattice(group_order=8, nodes=5)",
        "LatticeMap(5 -> 5 nodes)",
    ]

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


def _one_record_of_each_kind():
    from centlat import expr, homs, verify

    d8 = centlat.make_family("dihedral", 8)
    z = centlat.center(d8)
    _, proj = centlat.quotient(d8, z)
    ident = centlat.identity_hom(d8)
    lattice_map = centlat.induced_map(ident)
    verdict = centlat.is_centralizer_respecting(proj)
    q = centlat.parse_group_expr("quotient(product(cyclic(2), semidirect(4,4,3)), [x^2*y^-1])")
    return [
        verdict.witness,
        verdict,
        centlat.crh_central_kernel_criterion(proj),
        homs._crh_routes(proj),
        lattice_map,
        centlat.is_lattice_hom(lattice_map),
        centlat.verify_functoriality(ident, ident),
        centlat.cover_group("dihedral_quaternion", 3),
        centlat.catalog(4)[1],
        q.inner.left,
        q.inner,
        q.inner.right,
        q.words[0][1],
        q,
        centlat.parse_group_expr('table("g.json")'),
        expr._lex("cyclic(4)")[0],
        centlat.eval_group_expr(centlat.parse_group_expr("quotient(dihedral(8),[x^2])")),
        next(verify._projections("dihedral(8)", d8, [z])),
    ]


_WITNESS = "CrhWitness(subgroup=(0, 4), image_of_centralizer=(0, 2), centralizer_of_image=(0, 1, 2, 3))"
_CRH = f"CrhVerdict(ok=False, witness={_WITNESS})"
_CRITERION = "CentralKernelVerdict(ok=False, witness_pair=(1, 4), witness_commutator=2)"
_PRODUCT = "ProductExpr(left=FamilyExpr(kind='cyclic', param=2), right=SemidirectExpr(m=4, k=4, a=3))"
_D8 = "FiniteGroup(order=8, generators=[x,y])"

#: (module, name, fields, defaults, repr) of each record, as the package
#: defined them with ``typing.NamedTuple``
_RECORDS = [
    ("homs", "CrhWitness", ("subgroup", "image_of_centralizer", "centralizer_of_image"), {}, _WITNESS),
    ("homs", "CrhVerdict", ("ok", "witness"), {"witness": None}, _CRH),
    (
        "homs", "CentralKernelVerdict", ("ok", "witness_pair", "witness_commutator"),
        {"witness_pair": None, "witness_commutator": None}, _CRITERION,
    ),
    (
        "homs", "_CrhRoutes", ("definitional", "criterion", "reason", "agree"), {},
        f"_CrhRoutes(definitional={_CRH}, criterion={_CRITERION}, reason=None, agree=True)",
    ),
    ("lattice", "LatticeMap", ("source", "target", "node_map"), {}, "LatticeMap(5 -> 5 nodes)"),
    (
        "lattice", "LatticeHomVerdict", ("ok", "law", "witness", "preserves_top", "preserves_bottom"),
        {"law": None, "witness": None, "preserves_top": True, "preserves_bottom": True},
        "LatticeHomVerdict(ok=True, law=None, witness=None, preserves_top=True, preserves_bottom=True)",
    ),
    ("lattice", "FunctorialityVerdict", ("ok", "failures"), {"failures": ()}, "FunctorialityVerdict(ok=True, failures=())"),
    (
        "families", "CoverGroup", ("kind", "n", "group", "z_first", "z_second"), {},
        "CoverGroup(kind='dihedral_quaternion', n=3, group=FiniteGroup(order=16, generators=[x,y]), "
        "z_first=SubgroupSet(order=2, members=[0, 8]), z_second=SubgroupSet(order=2, members=[0, 10]))",
    ),
    ("families", "CatalogEntry", ("name", "group"), {}, "CatalogEntry(name='cyclic(2)', group=FiniteGroup(order=2, generators=[x]))"),
    ("expr", "FamilyExpr", ("kind", "param"), {}, "FamilyExpr(kind='cyclic', param=2)"),
    ("expr", "ProductExpr", ("left", "right"), {}, _PRODUCT),
    ("expr", "SemidirectExpr", ("m", "k", "a"), {}, "SemidirectExpr(m=4, k=4, a=3)"),
    ("expr", "WordTerm", ("name", "exponent"), {"exponent": 1}, "WordTerm(name='y', exponent=-1)"),
    (
        "expr", "QuotientExpr", ("inner", "words"), {},
        f"QuotientExpr(inner={_PRODUCT}, words=((WordTerm(name='x', exponent=2), WordTerm(name='y', exponent=-1)),))",
    ),
    ("expr", "TableExpr", ("path",), {}, "TableExpr(path='g.json')"),
    ("expr", "_Token", ("kind", "value", "line", "col"), {}, "_Token(kind='ident', value='cyclic', line=1, col=0)"),
    (
        "expr", "EvalResult", ("group", "projection"), {"projection": None},
        "EvalResult(group=FiniteGroup(order=4, generators=[x,y]), projection=GroupHom(8 -> 4))",
    ),
    (
        "verify", "ProjectionRecord", ("group_name", "kernel", "projection", "definitional", "criterion"), {},
        f"ProjectionRecord(group_name='dihedral(8)', kernel=SubgroupSet(order=2, members=[0, 2]), "
        f"projection=GroupHom(8 -> 4), definitional={_CRH}, criterion={_CRITERION})",
    ),
]


def test_every_record_keeps_its_fields_repr_and_pickle():
    # one instance of each of the 18 record kinds: fields, defaults and repr
    # as written down, a pickle round-trip to the same class and repr (a
    # group compares by identity, so a record holding one cannot compare
    # equal after it), and no instance __dict__
    import pickle

    got = _one_record_of_each_kind()
    assert len(got) == len(_RECORDS) == 18
    for record, (module, name, fields, defaults, text) in zip(got, _RECORDS):
        cls = type(record)
        assert (cls.__module__, cls.__name__) == (f"centlat.{module}", name)
        assert (cls._fields, cls._field_defaults, repr(record)) == (fields, defaults, text)
        back = pickle.loads(pickle.dumps(record))
        assert (type(back), repr(back)) == (cls, text)
        assert not hasattr(record, "__dict__"), name

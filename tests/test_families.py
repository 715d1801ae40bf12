from __future__ import annotations

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import centlat
from centlat import (
    CoverGroup,
    all_subgroups,
    catalog,
    center,
    cli,
    closure,
    commutator_set,
    cover_group,
    direct_product,
    families,
    from_multiplication_table,
    group_isomorphic,
    make_family,
    quotient,
    semidirect_cyclic,
)
from centlat.core import FiniteGroup
from centlat.errors import (
    DomainMismatchError,
    InternalInconsistencyError,
    InvalidActionError,
    OrderCapExceededError,
    TableValidationError,
    UnsupportedParameterError,
)
from centlat.expr import eval_group_expr, parse_group_expr, pretty

from _oracles import relabel


def gen(g, name):
    return dict(g.generator_names)[name]


def order_census(g):
    return Counter(g.element_orders())


# ------------------------------------------------------------- four families


def test_cyclic():
    z1 = make_family("cyclic", 1)
    assert z1.order == 1 and center(z1).mask == z1.full_mask
    z12 = make_family("cyclic", 12)
    assert order_census(z12) == Counter({1: 1, 2: 1, 3: 2, 4: 2, 6: 2, 12: 4})
    assert center(z12).mask == z12.full_mask


def test_dihedral_4_is_klein_four():
    g = make_family("dihedral", 4)
    assert center(g).mask == g.full_mask
    assert order_census(g) == Counter({1: 1, 2: 3})


def test_dihedral_relations():
    g = make_family("dihedral", 8)
    x, y = gen(g, "x"), gen(g, "y")
    assert order_census(g) == Counter({1: 1, 2: 5, 4: 2})
    assert g.element_orders()[x] == 4 and g.element_orders()[y] == 2
    # y * x = x^-1 * y
    assert g.mul(y, x) == g.mul(g.inverse[x], y)


def test_quaternion_relations():
    g = make_family("quaternion", 8)
    x, y = gen(g, "x"), gen(g, "y")
    assert order_census(g) == Counter({1: 1, 2: 1, 4: 6})
    assert g.power(y, 2) == g.power(x, 2)  # y^2 = x^2
    assert g.mul(y, x) == g.mul(g.inverse[x], y)
    # unique involution
    assert sum(1 for a in range(8) if g.element_orders()[a] == 2) == 1


def test_quaternion_16():
    g = make_family("quaternion", 16)
    assert order_census(g) == Counter({1: 1, 2: 1, 4: 10, 8: 4})


def test_semidihedral_relations():
    g = make_family("semidihedral", 16)
    x, y = gen(g, "x"), gen(g, "y")
    assert order_census(g) == Counter({1: 1, 2: 5, 4: 6, 8: 4})
    assert g.element_orders()[y] == 2
    # y * x = x^(m/2 - 1) * y with m = 8
    assert g.mul(y, x) == g.mul(g.power(x, 3), y)


@pytest.mark.parametrize(
    "kind,order",
    [
        ("cyclic", 0),
        ("dihedral", 5),
        ("dihedral", 2),
        ("quaternion", 4),
        ("quaternion", 12),
        ("semidihedral", 8),
        ("semidihedral", 24),
        ("octahedral", 24),
    ],
)
def test_family_parameter_validation(kind, order):
    with pytest.raises(UnsupportedParameterError):
        make_family(kind, order)


# ----------------------------------------------------------------- products


def test_direct_product_structure():
    a = make_family("cyclic", 2)
    b = make_family("cyclic", 3)
    g = direct_product(a, b)
    assert g.order == 6 and center(g).mask == g.full_mask
    # index convention: (ia, ib) -> ia*|b| + ib
    assert g.mul(1 * 3 + 0, 0 * 3 + 1) == 1 * 3 + 1
    assert dict(g.generator_names) == {"l.x": 3, "r.x": 1}
    assert g.label(4) == "(x,x)"
    assert group_isomorphic(g, make_family("cyclic", 6)) is not None


def test_semidirect_cyclic():
    g = semidirect_cyclic(4, 4, 3)
    assert g.order == 16
    x, y = gen(g, "x"), gen(g, "y")
    assert g.element_orders()[x] == 4 and g.element_orders()[y] == 4
    # y acts on x by x -> x^3
    assert g.mul(g.mul(y, x), g.inverse[y]) == g.power(x, 3)
    assert len(center(g)) == 4
    assert set(commutator_set(g)) == {g.identity, g.power(x, 2)}


def test_semidirect_rejects_bad_action():
    # the builder checks the action conditions itself, after
    # semidirect_cyclic's integer and cap checks, so both refuse alike
    for build in (semidirect_cyclic, families._cyclic_by_cyclic):
        with pytest.raises(InvalidActionError) as info:
            build(4, 2, 2)  # gcd(2, 4) != 1
        assert str(info.value) == "action parameter 2 is not invertible mod 4"
        with pytest.raises(InvalidActionError) as info:
            build(5, 2, 3)  # 3^2 = 4 != 1 mod 5
        assert str(info.value) == "3^2 != 1 (mod 5); the action does not close"
    with pytest.raises(UnsupportedParameterError):
        semidirect_cyclic(0, 2, 1)
    with pytest.raises(OrderCapExceededError):
        semidirect_cyclic(4, 2, 2, cap=4)


def test_an_action_that_does_not_fix_y_to_the_k_is_internal():
    # y^2 = x, but x -> x^3 sends it to x^3: no group has these relations;
    # only family code passes a power of x, so this is a package fault
    with pytest.raises(InternalInconsistencyError) as info:
        families._cyclic_by_cyclic(8, 2, 3, square=1)
    assert str(info.value) == "x -> x^3 does not fix y^2 = x^1 (mod 8)"


def test_cyclic_extension_conditions_hold_exactly_for_groups():
    # for every small (m, k, a, square) with k >= 2, the builder accepts the
    # parameters exactly when the table they describe validates, and then
    # builds that validated group field by field (with k = 1 the table is
    # Z_m whatever a is, and the builder asks a = 1 mod m, as y = x^square)
    built = 0
    for m in range(1, 9):
        for k in range(2, 5):
            for a in range(m):
                for square in range(m):
                    try:
                        reference = from_multiplication_table(*_reference_semidirect(m, k, a, square))
                    except TableValidationError:
                        reference = None
                    try:
                        g = families._cyclic_by_cyclic(m, k, a, square)
                    except (InvalidActionError, InternalInconsistencyError):
                        g = None
                    assert (g is None) == (reference is None), (m, k, a, square)
                    if g is not None:
                        _assert_same_group(g, reference)
                        built += 1
    assert built == 142


def test_semidirect_trivial_action_is_product():
    g = semidirect_cyclic(3, 2, 1)
    h = direct_product(make_family("cyclic", 3), make_family("cyclic", 2))
    assert group_isomorphic(g, h) is not None


# The three tables the families used to write out separately, kept here as
# plain loops: the cyclic table, the dihedral/quaternion/semidihedral table on
# pairs (i, e) with e in {0, 1}, and the semidirect_cyclic table.  Each returns
# the arguments it passed to from_multiplication_table; the shared builder
# must pass the same ones, and so build the same group.


def _reference_label(i, j):
    parts = []
    if i:
        parts.append("x" if i == 1 else f"x^{i}")
    if j:
        parts.append("y" if j == 1 else f"y^{j}")
    return "*".join(parts) if parts else "1"


def _reference_cyclic(n):
    table = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            table[a][b] = (a + b) % n
    return n, table, (("x", 1 % n),), [_reference_label(i, 0) for i in range(n)]


def _reference_twisted_pair(m, twist, square):
    # x^m = 1, y*x = x^twist*y, y^2 = x^square; x^i*y^e at index e*m + i
    order = 2 * m
    table = [[0] * order for _ in range(order)]
    for e1 in (0, 1):
        coef = twist if e1 else 1
        for i1 in range(m):
            for e2 in (0, 1):
                for i2 in range(m):
                    i = (i1 + coef * i2 + (square if e1 and e2 else 0)) % m
                    table[e1 * m + i1][e2 * m + i2] = (e1 ^ e2) * m + i
    labels = [_reference_label(i, e) for e in (0, 1) for i in range(m)]
    return order, table, (("x", 1), ("y", m)), labels


def _reference_semidirect(m, k, a, square=0):
    # y acts on x by x -> x^a and y^k = x^square; x^i*y^j at index j*m + i
    order = m * k
    table = [[0] * order for _ in range(order)]
    for j1 in range(k):
        for i1 in range(m):
            for j2 in range(k):
                for i2 in range(m):
                    i = (i1 + pow(a, j1, m) * i2 + (square if j1 + j2 >= k else 0)) % m
                    table[j1 * m + i1][j2 * m + i2] = ((j1 + j2) % k) * m + i
    labels = [_reference_label(i, j) for j in range(k) for i in range(m)]
    return order, table, (("x", 1 % m), ("y", m if k > 1 else 0)), labels


def _family_references(max_order):
    for n in range(1, max_order + 1):
        yield ("cyclic", n), _reference_cyclic(n)
    for n in range(4, max_order + 1, 2):
        yield ("dihedral", n), _reference_twisted_pair(n // 2, n // 2 - 1, 0)
    for n in (8, 16, 32, 64, 128, 256):
        m = n // 2
        if n <= max_order:
            yield ("quaternion", n), _reference_twisted_pair(m, m - 1, m // 2)
        if 16 <= n <= max_order:
            yield ("semidihedral", n), _reference_twisted_pair(m, m // 2 - 1, 0)


def _assert_same_group(g, h):
    assert g.table == h.table
    assert (g.identity, g.inverse) == (h.identity, h.inverse)
    assert g.generator_names == h.generator_names
    assert g.element_labels == h.element_labels


def test_direct_products_equal_their_validated_tables():
    # every catalog group and cover is built by construction; validating its
    # own table, generator names and labels gives the same group, field by
    # field, so a wrong row formula shows here
    groups = [e.group for e in catalog(128)]
    assert len(groups) == 991
    for kind, first in (("dihedral_quaternion", 3), ("quaternion_semidihedral", 4)):
        groups += [cover_group(kind, n).group for n in range(first, 8)]
    d8, q8, s3 = make_family("dihedral", 8), make_family("quaternion", 8), semidirect_cyclic(3, 2, 2)
    # Q8 relabelled by a rotation, so its identity sits at index 3
    perm = [(a + 3) % 8 for a in range(8)]
    labels = [""] * 8
    for a in range(8):
        labels[perm[a]] = q8.label(a)
    hints = [(f"s{name}", perm[i]) for name, i in q8.generator_names]
    shifted = from_multiplication_table(8, relabel(q8.table, perm), hints, labels)
    assert shifted.identity == 3
    groups += [
        direct_product(d8, q8),
        direct_product(s3, d8),
        direct_product(shifted, s3),
        direct_product(d8, shifted),
        direct_product(shifted, shifted),
    ]
    for g in groups:
        validated = from_multiplication_table(g.order, g.table, g.generator_names, g.element_labels)
        _assert_same_group(g, validated)
    assert groups[-1].identity == 3 * 8 + 3


def test_family_tables_match_the_separate_constructions():
    # up to order 256, each family group equals its separately written,
    # validated table in full
    kinds = Counter()
    for (kind, n), args in _family_references(256):
        _assert_same_group(make_family(kind, n), from_multiplication_table(*args))
        kinds[kind] += 1
    assert kinds == {"cyclic": 256, "dihedral": 127, "quaternion": 6, "semidihedral": 5}


def test_semidirect_tables_match_the_separate_construction():
    params = [
        tuple(map(int, e.name[len("semidirect(") : -1].split(",")))
        for e in catalog(64)
        if e.name.startswith("semidirect(")
    ]
    assert len(params) > 50
    for m, k, a in params + [(5, 1, 1), (1, 1, 1), (6, 2, 1)]:
        reference = from_multiplication_table(*_reference_semidirect(m, k, a))
        _assert_same_group(semidirect_cyclic(m, k, a), reference)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_dihedral_quaternion_cover_matches_the_semidirect_construction(n):
    # the cover used to be semidirect_cyclic(m, 4, m - 1) with the cap lifted
    m = 1 << (n - 1)
    cov = cover_group("dihedral_quaternion", n)
    _assert_same_group(cov.group, from_multiplication_table(*_reference_semidirect(m, 4, m - 1)))
    assert cov.z_first == closure(cov.group, [2 * m])  # y^2
    assert cov.z_second == closure(cov.group, [2 * m + m // 2])  # x^(m/2)*y^2


# ------------------------------------------------------------------- covers


def _check_cover(kind, n, first_family, second_family):
    cov = cover_group(kind, n)
    g = cov.group
    assert g.order == 1 << (n + 1)
    assert cov.z_first != cov.z_second
    for z, family in ((cov.z_first, first_family), (cov.z_second, second_family)):
        assert len(z) == 2
        assert z.mask & ~center(g).mask == 0
        assert not any(
            c in z and c != g.identity for c in commutator_set(g)
        )
        q, _ = quotient(g, z)
        expected = make_family(family, 1 << n)
        assert group_isomorphic(q, expected) is not None


@pytest.mark.parametrize("n", [3, 4, 5])
def test_dihedral_quaternion_cover(n):
    _check_cover("dihedral_quaternion", n, "dihedral", "quaternion")


@pytest.mark.parametrize("n", [4, 5])
def test_quaternion_semidihedral_cover(n):
    _check_cover("quaternion_semidihedral", n, "quaternion", "semidihedral")


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_quaternion_semidihedral_cover_generator_names(n):
    # the quaternion factor's x and y, each with its lowest-index partner
    g = cover_group("quaternion_semidihedral", n).group
    assert g.generator_names == (("x", 2), ("y", 1 << n))


def test_fiber_product_hints_that_do_not_generate_are_internal(monkeypatch):
    # the cover's hints are the quaternion factor's generators; drop its y
    real = families.make_family

    def drop_y(kind, order):
        g = real(kind, order)
        if kind == "quaternion":
            x_only = g.generator_names[:1]
            g = FiniteGroup(g.order, g.table, g.identity, g.inverse, x_only, g.element_labels)
        return g

    monkeypatch.setattr(families, "make_family", drop_y)
    with pytest.raises(InternalInconsistencyError, match="do not generate"):
        cover_group("quaternion_semidihedral", 4)
    assert cli.main(["lattice", "cover_qsd(4)"]) == 2


def _fiber_product_by_quotients(a, b, n):
    # The fiber product built the long way: quotient both factors by
    # x^(2^(n-2)), find an isomorphism between the quotients, and pair the
    # elements whose images agree under it.
    z = 1 << (n - 2)
    qa, pa = quotient(a, closure(a, [z]))
    qb, pb = quotient(b, closure(b, [z]))
    iota = group_isomorphic(qb, qa)
    pairs = [
        (u, v)
        for u in range(a.order)
        for v in range(b.order)
        if pa.mapping[u] == iota.mapping[pb.mapping[v]]
    ]
    index = {pair: i for i, pair in enumerate(pairs)}
    table = [
        [index[(a.table[u1][u2], b.table[v1][v2])] for (u2, v2) in pairs]
        for (u1, v1) in pairs
    ]
    labels = [f"({a.label(u)},{b.label(v)})" for u, v in pairs]
    hints = [
        (name, next(i for i, (u, _) in enumerate(pairs) if u == ga)) for name, ga in a.generator_names
    ]
    g = from_multiplication_table(len(pairs), table, hints, labels)
    return g, closure(g, [index[(a.identity, z)]]), closure(g, [index[(z, b.identity)]])


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_fiber_product_matches_quotient_construction(n):
    q, sd = make_family("quaternion", 1 << n), make_family("semidihedral", 1 << n)
    g, z_first, z_second = families._fiber_product_over_central_quotients(q, sd)
    h, expected_first, expected_second = _fiber_product_by_quotients(q, sd, n)
    assert g.table == h.table
    assert g.generator_names == h.generator_names
    assert g.element_labels == h.element_labels
    assert (z_first.mask, z_second.mask) == (expected_first.mask, expected_second.mask)


def test_fiber_product_of_mismatched_factors_is_internal():
    # a cyclic factor does not share the quaternion factor's encoding
    with pytest.raises(InternalInconsistencyError):
        families._fiber_product_over_central_quotients(
            make_family("quaternion", 16), make_family("cyclic", 16)
        )


def test_package_has_no_function_level_imports():
    # and families builds on core and errors alone, never on homs or above
    for path in sorted(Path(centlat.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested = [n.lineno for n in ast.walk(func) if isinstance(n, (ast.Import, ast.ImportFrom))]
                assert not nested, f"{path.name} imports inside {func.name} at lines {nested}"
    tree = ast.parse(Path(families.__file__).read_text(encoding="utf-8"))
    package_imports = {
        node.module for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1
    }
    assert package_imports == {"core", "errors"}
    # and builds every group by construction: it never names the validator
    assert "from_multiplication_table" not in Path(families.__file__).read_text(encoding="utf-8")
    assert not any(
        alias.name.startswith("centlat")
        for node in tree.body
        if isinstance(node, ast.Import)
        for alias in node.names
    )


def test_finite_group_caches_have_one_owner():
    # every lazy cache FiniteGroup.__init__ declares is named only in core,
    # which fills it; the lattice cache is not declared there, and only
    # lattice names it
    core_path = Path(centlat.core.__file__)
    tree = ast.parse(core_path.read_text(encoding="utf-8"))
    cls = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "FiniteGroup")
    init = next(n for n in cls.body if isinstance(n, ast.FunctionDef) and n.name == "__init__")
    caches = {
        target.attr
        for node in ast.walk(init)
        if isinstance(node, ast.AnnAssign | ast.Assign)
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Attribute) and target.attr.startswith("_")
    }
    assert {"_centralizers", "_subgroups"} <= caches and "_lattice" not in caches
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(core_path.parent.glob("*.py"))
    }
    named = {
        (name, node.attr)
        for name, tree in trees.items()
        if name != core_path.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in caches
    }
    assert named == set()
    lattice_named = {
        name
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "_lattice"
        or isinstance(node, ast.Constant) and node.value == "_lattice"  # getattr's name
    }
    assert lattice_named == {"lattice.py"}


def test_catalog_validates_no_table(monkeypatch):
    # work counter: every validation grows a magma generating set once, and
    # an uncached catalog(64) validates none of its 373 tables
    calls = []
    grow = centlat.core._magma_generators
    monkeypatch.setattr(centlat.core, "_magma_generators", lambda *args: calls.append(1) or grow(*args))
    entries = families._catalog.__wrapped__(64)  # uncached: build it afresh
    assert len(entries) == 373 and calls == []
    g = entries[-1].group
    from_multiplication_table(g.order, g.table)
    assert calls == [1]  # the counter counts


def test_cover_parameter_validation():
    with pytest.raises(UnsupportedParameterError):
        cover_group("dihedral_quaternion", 2)
    with pytest.raises(UnsupportedParameterError):
        cover_group("quaternion_semidihedral", 3)
    with pytest.raises(UnsupportedParameterError):
        cover_group("nonsense", 4)


def test_cover_rejects_non_central_subgroup():
    d8 = make_family("dihedral", 8)
    reflection, centre = closure(d8, [4]), closure(d8, [2])  # {1, y}, {1, x^2}
    with pytest.raises(InternalInconsistencyError, match="must be central"):
        CoverGroup("dihedral_quaternion", 3, d8, reflection, centre)
    # _replace checks as the constructor does
    cover = cover_group("dihedral_quaternion", 3)
    with pytest.raises(InternalInconsistencyError, match="must have order 2"):
        cover._replace(z_second=closure(cover.group, []))
    with pytest.raises(InternalInconsistencyError, match="must be central"):
        cover._replace(group=d8, z_first=reflection, z_second=centre)
    swapped = cover._replace(z_first=cover.z_second, z_second=cover.z_first)
    assert (swapped.z_first, swapped.z_second) == (cover.z_second, cover.z_first)
    # the group and both subgroups are gated by type, and a subgroup of
    # another table is refused even when its mask equals the cover's own
    with pytest.raises(DomainMismatchError, match="needs a FiniteGroup, not list"):
        CoverGroup("k", 3, [[0]], cover.z_first, cover.z_second)
    with pytest.raises(DomainMismatchError, match="needs a SubgroupSet, not NoneType"):
        cover._replace(z_first=None)
    twin = next(s for s in all_subgroups(make_family("dihedral", 16)) if s.mask == cover.z_second.mask)
    assert len(twin) == 2 and not twin.group.same_table(cover.group)
    with pytest.raises(DomainMismatchError, match="different group"):
        cover._replace(z_second=twin)


def test_family_parameters_must_be_integers():
    # a bool or a float is no group parameter, not even one equal to an int
    catalog(1)  # catalog(True) must not be answered from this cache entry
    calls = [
        (make_family, ("cyclic", True)),
        (make_family, ("cyclic", 2.5)),
        (semidirect_cyclic, (4, 2, True)),
        (semidirect_cyclic, (4, 2, 1.5)),
        (cover_group, ("dihedral_quaternion", 3.0)),
        (catalog, (2.5,)),
        (catalog, (True,)),
    ]
    for call, args in calls:
        with pytest.raises(UnsupportedParameterError, match="must be an integer"):
            call(*args)


def test_structural_checks_survive_python_O():
    # the same check as above, in an interpreter that strips asserts
    code = (
        "from centlat import CoverGroup, closure, make_family\n"
        "from centlat.errors import InternalInconsistencyError\n"
        "d8 = make_family('dihedral', 8)\n"
        "try:\n"
        "    CoverGroup('dihedral_quaternion', 3, d8, closure(d8, [4]), closure(d8, [2]))\n"
        "except InternalInconsistencyError as e:\n"
        "    print(e)\n"
    )
    src = str(Path(centlat.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True, text=True, encoding="utf-8", env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "distinguished subgroups must be central\n"


def test_package_has_no_assert_statements():
    # `python -O` strips asserts, so structural checks must raise instead
    for path in sorted(Path(centlat.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not lines, f"{path.name} has assert statements at lines {lines}"


def test_cover_quotients_are_not_isomorphic_to_each_other():
    cov = cover_group("quaternion_semidihedral", 4)
    qa, _ = quotient(cov.group, cov.z_first)
    qb, _ = quotient(cov.group, cov.z_second)
    assert group_isomorphic(qa, qb) is None


# ------------------------------------------------------------------ catalog


def test_catalog_is_deterministic_and_complete():
    entries = catalog(32)
    assert len(entries) == 136
    names = [e.name for e in entries]
    assert len(set(names)) == len(names)
    assert names == [e.name for e in catalog(32)]  # cached, stable
    for expected in (
        "cyclic(1)",
        "cyclic(32)",
        "dihedral(8)",
        "quaternion(32)",
        "semidihedral(16)",
        "product(cyclic(2),cyclic(2))",
        "product(cyclic(2),product(cyclic(2),cyclic(2)))",
        "semidirect(4,4,3)",
    ):
        assert expected in names
    for entry in entries:
        assert 1 <= entry.group.order <= 32


def test_catalog_refuses_an_oversize_order_before_building(monkeypatch):
    # work counter: the cap is checked before any group is built, where an
    # unchecked catalog(300) builds for seconds before a product passes it
    calls = []
    monkeypatch.setattr(families, "make_family", lambda *args: calls.append(args))
    with pytest.raises(OrderCapExceededError, match=r"^catalog order 300 exceeds cap 256$"):
        catalog(300)
    with pytest.raises(OrderCapExceededError, match=r"^catalog order 257 exceeds cap 256$"):
        catalog(257)
    assert calls == []


def test_catalog_names_evaluate_to_their_groups():
    for entry in catalog(32)[::7]:  # a spread-out sample
        expr = parse_group_expr(entry.name)
        result = eval_group_expr(expr)
        assert result.group.same_table(entry.group)
        assert pretty(expr) == entry.name

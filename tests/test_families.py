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
    catalog,
    center,
    cli,
    closure,
    commutator_set,
    cover_group,
    direct_product,
    families,
    group_isomorphic,
    make_family,
    quotient,
    semidirect_cyclic,
)
from centlat.errors import (
    InternalInconsistencyError,
    InvalidActionError,
    UnsupportedParameterError,
)
from centlat.expr import eval_group_expr, parse_group_expr, pretty


def gen(g, name):
    return dict(g.generator_names)[name]


def order_census(g):
    return Counter(g.element_orders())


# ------------------------------------------------------------- four families


def test_cyclic():
    z1 = make_family("cyclic", 1)
    assert z1.order == 1 and z1.is_abelian()
    z12 = make_family("cyclic", 12)
    assert order_census(z12) == Counter({1: 1, 2: 1, 3: 2, 4: 2, 6: 2, 12: 4})
    assert z12.is_abelian()


def test_dihedral_4_is_klein_four():
    g = make_family("dihedral", 4)
    assert g.is_abelian()
    assert order_census(g) == Counter({1: 1, 2: 3})


def test_dihedral_relations():
    g = make_family("dihedral", 8)
    x, y = gen(g, "x"), gen(g, "y")
    assert order_census(g) == Counter({1: 1, 2: 5, 4: 2})
    assert g.element_order(x) == 4 and g.element_order(y) == 2
    # y * x = x^-1 * y
    assert g.mul(y, x) == g.mul(g.inverse[x], y)


def test_quaternion_relations():
    g = make_family("quaternion", 8)
    x, y = gen(g, "x"), gen(g, "y")
    assert order_census(g) == Counter({1: 1, 2: 1, 4: 6})
    assert g.power(y, 2) == g.power(x, 2)  # y^2 = x^2
    assert g.mul(y, x) == g.mul(g.inverse[x], y)
    # unique involution
    assert sum(1 for a in range(8) if g.element_order(a) == 2) == 1


def test_quaternion_16():
    g = make_family("quaternion", 16)
    assert order_census(g) == Counter({1: 1, 2: 1, 4: 10, 8: 4})


def test_semidihedral_relations():
    g = make_family("semidihedral", 16)
    x, y = gen(g, "x"), gen(g, "y")
    assert order_census(g) == Counter({1: 1, 2: 5, 4: 6, 8: 4})
    assert g.element_order(y) == 2
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
    assert g.order == 6 and g.is_abelian()
    # index convention: (ia, ib) -> ia*|b| + ib
    assert g.mul(1 * 3 + 0, 0 * 3 + 1) == 1 * 3 + 1
    assert dict(g.generator_names) == {"l.x": 3, "r.x": 1}
    assert g.label(4) == "(x,x)"
    assert group_isomorphic(g, make_family("cyclic", 6)) is not None


def test_semidirect_cyclic():
    g = semidirect_cyclic(4, 4, 3)
    assert g.order == 16
    x, y = gen(g, "x"), gen(g, "y")
    assert g.element_order(x) == 4 and g.element_order(y) == 4
    # y acts on x by x -> x^3
    assert g.mul(g.mul(y, x), g.inverse[y]) == g.power(x, 3)
    assert len(center(g)) == 4
    assert set(commutator_set(g)) == {g.identity, g.power(x, 2)}


def test_semidirect_rejects_bad_action():
    with pytest.raises(InvalidActionError):
        semidirect_cyclic(4, 2, 2)  # gcd(2, 4) != 1
    with pytest.raises(InvalidActionError):
        semidirect_cyclic(5, 2, 3)  # 3^2 = 4 != 1 mod 5
    with pytest.raises(UnsupportedParameterError):
        semidirect_cyclic(0, 2, 1)


def test_semidirect_trivial_action_is_product():
    g = semidirect_cyclic(3, 2, 1)
    h = direct_product(make_family("cyclic", 3), make_family("cyclic", 2))
    assert group_isomorphic(g, h) is not None


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
    real = families.from_multiplication_table

    def drop_last_hint(order, table, hints=None, labels=None):
        if order == 32:  # the cover itself, not its order-16 factors
            hints = hints[:-1]
        return real(order, table, hints, labels)

    monkeypatch.setattr(families, "from_multiplication_table", drop_last_hint)
    with pytest.raises(InternalInconsistencyError, match="do not generate"):
        cover_group("quaternion_semidihedral", 4)
    assert cli.main(["lattice", "cover_qsd(4)"]) == 2


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
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, timeout=120
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


def test_catalog_names_evaluate_to_their_groups():
    for entry in catalog(32)[::7]:  # a spread-out sample
        expr = parse_group_expr(entry.name)
        result = eval_group_expr(expr)
        assert result.group.same_table(entry.group)
        assert pretty(expr) == entry.name

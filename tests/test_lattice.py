from __future__ import annotations

import pytest

from centlat import (
    closure,
    identity_hom,
    make_family,
    quotient,
    semidirect_cyclic,
)
from centlat.errors import NotCrhError, OrderCapExceededError
from centlat.lattice import (
    build_centralizer_lattice,
    cl_involution,
    cl_join,
    cl_meet,
    compose_lattice_maps,
    identity_lattice_map,
    induced_map,
    invert_lattice_map,
    is_lattice_hom,
    lattice_of,
    lattice_to_dot,
    lattice_to_json,
    lattices_isomorphic,
    verify_functoriality,
)

Q8_DOT = """digraph centralizer_lattice {
  rankdir=TB;
  node [shape=box];
  N0 [label="N0 (|.|=2)"];
  N1 [label="N1 (|.|=4)"];
  N2 [label="N2 (|.|=4)"];
  N3 [label="N3 (|.|=4)"];
  N4 [label="N4 (|.|=8)"];
  N1 -> N0;
  N2 -> N0;
  N3 -> N0;
  N4 -> N1;
  N4 -> N2;
  N4 -> N3;
  N0 -> N4 [style=dashed, dir=none, constraint=false];
}
"""


@pytest.fixture(scope="module")
def q8_lattice():
    return lattice_of(make_family("quaternion", 8))


# ---------------------------------------------------------------- structure


def test_quaternion_lattice_structure(q8_lattice):
    lat = q8_lattice
    assert lat.node_orders() == (2, 4, 4, 4, 8)
    assert [n.members for n in lat.nodes] == [
        (0, 2),
        (0, 1, 2, 3),
        (0, 2, 4, 6),
        (0, 2, 5, 7),
        (0, 1, 2, 3, 4, 5, 6, 7),
    ]
    assert lat.top == 4 and lat.bottom == 0
    assert lat.involution == (4, 1, 2, 3, 0)
    assert lat.covers() == ((1, 0), (2, 0), (3, 0), (4, 1), (4, 2), (4, 3))


def test_meet_join_involution(q8_lattice):
    lat = q8_lattice
    # the three four-element nodes are pairwise incomparable atoms over the
    # bottom; meets drop to the center, joins rise to the whole group
    for s, t in ((1, 2), (1, 3), (2, 3)):
        assert cl_meet(lat, s, t) == 0
        assert cl_join(lat, s, t) == 4
        assert not lat.leq(s, t) and not lat.leq(t, s)
    for s in range(5):
        assert cl_meet(lat, s, s) == s == cl_join(lat, s, s)
        assert cl_meet(lat, s, lat.top) == s
        assert cl_join(lat, s, lat.bottom) == s
        # involution is its own inverse and antitone
        assert cl_involution(lat, cl_involution(lat, s)) == s
    assert cl_involution(lat, lat.top) == lat.bottom


def test_every_node_is_a_centralizer(q8_lattice):
    from centlat import centralizer

    g = q8_lattice.group
    for node in q8_lattice.nodes:
        again = centralizer(g, centralizer(g, node))
        assert set(again) == set(node)


def test_abelian_lattice_is_a_point():
    lat = lattice_of(make_family("cyclic", 12))
    assert lat.node_orders() == (12,)
    assert lat.top == lat.bottom == 0
    assert lat.covers() == ()


def test_join_can_exceed_generated_subgroup():
    # in dihedral(16) two centralizer nodes generate a subgroup of order 8
    # that is NOT itself a centralizer: their lattice join jumps to the top
    g = make_family("dihedral", 16)
    lat = lattice_of(g)
    assert lat.node_orders() == (2, 4, 4, 4, 4, 8, 16)
    s, t = 1, 3
    join = cl_join(lat, s, t)
    assert join == 6 and len(lat.nodes[join]) == 16
    generated = closure(g, list(lat.nodes[s].members) + list(lat.nodes[t].members))
    assert len(generated) == 8
    assert generated.mask not in lat.index_of_mask


def test_build_matches_cached(q8_lattice):
    g = q8_lattice.group
    fresh = build_centralizer_lattice(g)
    assert [n.members for n in fresh.nodes] == [n.members for n in q8_lattice.nodes]
    assert lattice_of(g) is lattice_of(g)  # cached per group


def test_cap_holds_on_cached_lattice():
    d16 = make_family("dihedral", 16)
    lattice_of(d16)
    with pytest.raises(OrderCapExceededError):
        lattice_of(d16, cap=8)
    with pytest.raises(OrderCapExceededError):
        build_centralizer_lattice(d16, cap=8)


# ------------------------------------------------------------- induced maps


def test_induced_map_of_worked_quotient():
    g = semidirect_cyclic(4, 4, 3)
    q, proj = quotient(g, closure(g, [10]))
    m = induced_map(proj)
    assert m.is_bijective()
    assert m.node_map == (0, 1, 2, 3, 4)
    assert lattice_of(g).node_orders() == (4, 8, 8, 8, 16)
    assert lattice_of(q).node_orders() == (2, 4, 4, 4, 8)
    verdict = is_lattice_hom(m)
    assert verdict.ok and verdict.preserves_top and verdict.preserves_bottom

    # inverting and composing gives the identity node map
    back = invert_lattice_map(m)
    assert compose_lattice_maps(back, m).node_map == identity_lattice_map(m.source).node_map


def test_induced_map_rejects_non_crh():
    d8 = make_family("dihedral", 8)
    q, proj = quotient(d8, closure(d8, [2]))
    with pytest.raises(NotCrhError) as exc:
        induced_map(proj)
    assert exc.value.witness.subgroup == (0, 4)


def test_identity_induces_identity():
    g = make_family("semidihedral", 16)
    lat = lattice_of(g)
    m = induced_map(identity_hom(g))
    assert m.node_map == tuple(range(len(lat.nodes)))


def test_functor_laws_on_abelian_tower():
    # Z8 -> Z4 -> Z2: quotients of abelian groups always respect centralizers
    z8 = make_family("cyclic", 8)
    q4, p1 = quotient(z8, closure(z8, [4]))
    q2, p2 = quotient(q4, closure(q4, [2]))
    verdict = verify_functoriality(p1, p2)
    assert verdict.ok and verdict.failures == ()


def test_functoriality_rejects_non_composable():
    from centlat.errors import DomainMismatchError

    z8 = make_family("cyclic", 8)
    q4, p1 = quotient(z8, closure(z8, [4]))
    with pytest.raises(DomainMismatchError):
        verify_functoriality(p1, p1)


# ------------------------------------------------------- lattice isomorphism


def test_lattices_isomorphic_across_nonisomorphic_groups(q8_lattice):
    # dihedral(8) and quaternion(8) share the same lattice shape
    d8 = lattice_of(make_family("dihedral", 8))
    m = lattices_isomorphic(d8, q8_lattice)
    assert m is not None and m.node_map == (0, 1, 2, 3, 4)
    assert is_lattice_hom(m).ok

    # node orders differ (4,8,8,8,16) vs (2,4,4,4,8): the comparison is
    # deliberately blind to subgroup sizes, only order structure counts
    g16 = lattice_of(semidirect_cyclic(4, 4, 3))
    assert lattices_isomorphic(g16, q8_lattice) is not None


def test_one_point_lattices_isomorphic():
    a = lattice_of(make_family("cyclic", 4))
    b = lattice_of(make_family("cyclic", 6))
    m = lattices_isomorphic(a, b)
    assert m is not None and m.node_map == (0,)


def test_lattices_not_isomorphic(q8_lattice):
    d12 = lattice_of(make_family("dihedral", 12))
    assert lattices_isomorphic(d12, q8_lattice) is None
    point = lattice_of(make_family("cyclic", 4))
    assert lattices_isomorphic(point, q8_lattice) is None


def test_lattice_iso_is_order_and_involution_faithful():
    a = lattice_of(make_family("dihedral", 16))
    b = lattice_of(make_family("quaternion", 16))
    m = lattices_isomorphic(a, b)
    assert m is not None
    f = m.node_map
    for s in range(len(a.nodes)):
        assert b.involution[f[s]] == f[a.involution[s]]
        for t in range(len(a.nodes)):
            assert a.leq(s, t) == b.leq(f[s], f[t])


# ------------------------------------------------------------------- export


def test_lattice_json(q8_lattice):
    doc = lattice_to_json(q8_lattice)
    assert set(doc) == {"group_order", "nodes", "leq", "involution", "top", "bottom"}
    assert doc["group_order"] == 8
    assert [n["order"] for n in doc["nodes"]] == [2, 4, 4, 4, 8]
    assert doc["nodes"][0]["members"] == [0, 2]
    assert doc["involution"] == [4, 1, 2, 3, 0]
    assert [0, 4] in doc["leq"] and [4, 0] not in doc["leq"]
    assert doc["top"] == 4 and doc["bottom"] == 0


def test_lattice_dot(q8_lattice):
    assert lattice_to_dot(q8_lattice) == Q8_DOT

from __future__ import annotations

import random

import pytest

from centlat import (
    catalog,
    closure,
    crh_central_kernel_criterion,
    from_multiplication_table,
    identity_hom,
    is_centralizer_respecting,
    make_family,
    quotient,
    semidirect_cyclic,
)
from centlat.errors import DomainMismatchError, NodeCapExceededError, NotCrhError, OrderCapExceededError
from centlat.lattice import (
    DEFAULT_NODE_CAP,
    CentralizerLattice,
    LatticeMap,
    build_centralizer_lattice,
    compose_lattice_maps,
    induced_map,
    invert_lattice_map,
    is_lattice_hom,
    lattice_of,
    lattice_to_dot,
    lattice_to_json,
    lattices_isomorphic,
    verify_functoriality,
)

from _oracles import (
    brute_lattice_covers,
    brute_lattice_isomorphism,
    brute_lattice_join,
    relabel,
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
    meet, join, inv = lat.meet_table, lat.join_table, lat.involution
    for s, t in ((1, 2), (1, 3), (2, 3)):
        assert meet[s][t] == 0
        assert join[s][t] == 4
        assert not lat.leq(s, t) and not lat.leq(t, s)
    for s in range(5):
        assert meet[s][s] == s == join[s][s]
        assert meet[s][lat.top] == s
        assert join[s][lat.bottom] == s
        # involution is its own inverse and antitone
        assert inv[inv[s]] == s
    assert inv[lat.top] == lat.bottom


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
    join = lat.join_table[s][t]
    assert join == 6 and len(lat.nodes[join]) == 16
    generated = closure(g, list(lat.nodes[s].members) + list(lat.nodes[t].members))
    assert len(generated) == 8
    assert generated.mask not in lat.index_of_mask


def test_covers_and_joins_match_brute_oracle():
    # covers come from the order masks and joins from the meet table and the
    # involution; the oracle works on member sets alone
    for entry in catalog(32):
        lat = build_centralizer_lattice(entry.group)
        nodes = [frozenset(n.members) for n in lat.nodes]
        assert lat.covers() == tuple(sorted(brute_lattice_covers(nodes))), entry.name
        count = len(nodes)
        joins = tuple(tuple(brute_lattice_join(nodes, i, j) for j in range(count)) for i in range(count))
        assert lat.join_table == joins, entry.name


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
    assert compose_lattice_maps(back, m).node_map == tuple(range(len(m.source.nodes)))


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
    z8 = make_family("cyclic", 8)
    q4, p1 = quotient(z8, closure(z8, [4]))
    with pytest.raises(DomainMismatchError):
        verify_functoriality(p1, p1)


@pytest.mark.parametrize(
    "group, node_map, law, witness, top, bottom",
    [
        # images that break the involution: node 1 is self-paired and its image,
        # the bottom, is not; the bottom and the top's image are not partners
        ("q8", (0, 0, 0, 0, 4), "involution", (1,), True, True),
        ("q8", (1, 0, 0, 0, 4), "involution", (0,), True, False),
        ("q8", (0, 0, 0, 0, 0), "involution", (0,), False, True),
        ("q8", (1, 0, 0, 0, 0), "involution", (0,), False, False),
        # atoms 1 and 2 meet in the bottom, their images in atom 1
        ("q8", (0, 1, 1, 1, 4), "meet", (1, 2), True, True),
        ("q8", (1, 1, 1, 2, 1), "meet", (0, 3), False, False),
        # the join of atoms 1 and 2 is node 5; sending it to node 4 keeps the
        # involution and every meet scanned before the pair (1, 2)
        ("sd64", (0, 1, 2, 3, 4, 4, 6, 7, 8, 9, 10, 11, 12, 13, 14), "join", (1, 2), True, True),
        # a constant map onto a self-paired node keeps every law but neither bound
        ("q8", (1, 1, 1, 1, 1), None, None, False, False),
    ],
)
def test_is_lattice_hom_reports_the_first_broken_law(group, node_map, law, witness, top, bottom):
    groups = {"q8": lambda: make_family("quaternion", 8), "sd64": lambda: semidirect_cyclic(16, 4, 5)}
    lat = lattice_of(groups[group]())
    verdict = is_lattice_hom(LatticeMap(lat, lat, node_map))
    assert verdict.ok == (law is None)
    assert (verdict.law, verdict.witness) == (law, witness)
    assert (verdict.preserves_top, verdict.preserves_bottom) == (top, bottom)


def test_lattice_map_rejects_malformed_node_maps():
    # one entry per source node, each a node of the target; a short map
    # once passed is_bijective, and an entry out of range reached
    # is_lattice_hom and compose_lattice_maps as a bare IndexError
    lat = lattice_of(make_family("dihedral", 8))
    point = lattice_of(make_family("cyclic", 2))  # one node
    assert (lat.node_count(), point.node_count()) == (5, 1)
    for target, node_map in [
        (lat, (0, 1)),
        (lat, (0, 1, 2, 3, 4, 0)),
        (lat, (0, 1, 2, 3, 7)),
        (lat, (-1, 1, 2, 3, 4)),
        (lat, (0, 1.0, 2, 3, 4)),
        (lat, (0, True, 2, 3, 4)),
        (point, (0, 0, 0, 0, 1)),
        (point, (0,)),
    ]:
        with pytest.raises(DomainMismatchError):
            LatticeMap(lat, target, node_map)
        with pytest.raises(DomainMismatchError):  # _replace checks as the constructor does
            LatticeMap(lat, lat, tuple(range(5)))._replace(target=target, node_map=node_map)
    collapse = LatticeMap(lat, point, (0,) * 5)
    assert not collapse.is_bijective()
    identity = invert_lattice_map(LatticeMap(lat, lat, tuple(range(5))))
    assert compose_lattice_maps(collapse, identity).node_map == (0,) * 5
    assert identity._replace(node_map=(4, 1, 2, 3, 0)).node_map == (4, 1, 2, 3, 0)


def test_verdicts_are_immutable_records_true_exactly_when_ok():
    # each verdict is a tuple, which would always be true without the
    # shared __bool__; one passing and one failing verdict of each type
    d8 = make_family("dihedral", 8)
    _, fails = quotient(d8, closure(d8, [2]))  # D8 -> C2^2, not crh
    _, passes = quotient(d8, closure(d8, []))
    lat = lattice_of(d8)
    swap = LatticeMap(lat, lat, (0, 2, 1, 3, 4))  # swaps two order-4 nodes
    pairs = [
        (is_centralizer_respecting(passes), is_centralizer_respecting(fails)),
        (crh_central_kernel_criterion(passes), crh_central_kernel_criterion(fails)),
        (is_lattice_hom(swap), is_lattice_hom(LatticeMap(lat, lat, (0, 0, 2, 3, 4)))),
        (verify_functoriality(passes, identity_hom(passes.target)), None),
    ]
    for ok, failed in pairs:
        if failed is None:
            failed = ok._replace(ok=False, failures=("a law fails",))
        assert (ok.ok, failed.ok) == (True, False) and type(ok) is type(failed)
        for v in (ok, failed):
            assert bool(v) is v.ok
            flipped = v._replace(ok=not v.ok)
            assert bool(flipped) is flipped.ok is not v.ok
            assert type(flipped) is type(v) and flipped[1:] == v[1:]
            with pytest.raises(AttributeError):
                v.ok = not v.ok
            with pytest.raises(AttributeError):
                v.note = "a new attribute"


# ------------------------------------------------------- lattice isomorphism


class _AbstractLattice(CentralizerLattice):
    """A bounded involution lattice that is no group's centralizer lattice:
    nodes are sets ordered by inclusion, meet and join found by search.  It
    carries only the fields lattices_isomorphic and is_lattice_hom read; it
    subclasses CentralizerLattice to pass their type gates, and its own
    __init__ builds no group."""

    def __init__(self, nodes: list[frozenset], involution: list[int]) -> None:
        count = len(nodes)
        self.nodes, self.involution = nodes, tuple(involution)
        self.leq_masks = tuple(
            sum(1 << j for j in range(count) if nodes[i] <= nodes[j]) for i in range(count)
        )
        by_size = sorted(range(count), key=lambda k: len(nodes[k]))
        self.bottom, self.top = by_size[0], by_size[-1]

        def below(x):  # the largest node inside x
            return [k for k in by_size if nodes[k] <= x][-1]

        def above(x):  # the smallest node containing x
            return [k for k in by_size if x <= nodes[k]][0]

        self.meet_table = tuple(tuple(below(x & y) for y in nodes) for x in nodes)
        self.join_table = tuple(tuple(above(x | y) for y in nodes) for x in nodes)


def _sets(*members: str) -> list[frozenset]:
    return [frozenset(m) for m in members]


# (nodes, involution): nodes that share fingerprints without being
# interchangeable make the search reject candidates and backtrack
ABSTRACT_LATTICES = [
    # hexagon 0 < a < c < 1, 0 < b < d < 1: complements paired, or each chain reversed
    (_sets("", "a", "b", "ac", "bd", "abcd"), [5, 4, 3, 2, 1, 0]),
    (_sets("", "a", "b", "ac", "bd", "abcd"), [5, 3, 4, 1, 2, 0]),
    # the hexagon with a self-paired middle node m
    (_sets("", "a", "b", "m", "ac", "bd", "abcdm"), [6, 5, 4, 3, 2, 1, 0]),
    (_sets("", "a", "b", "m", "ac", "bd", "abcdm"), [6, 4, 5, 3, 1, 2, 0]),
    # pentagon 0 < a < c < 1, 0 < b < 1, and three atoms with two of them paired
    (_sets("", "a", "ac", "b", "abc"), [4, 2, 1, 3, 0]),
    (_sets("", "a", "b", "c", "abc"), [4, 2, 1, 3, 0]),
    # four atoms in two couples: b may take the image that c, a's partner,
    # needs, and the search must give it back when it retreats
    (_sets("", "a", "b", "c", "d", "abcd"), [5, 3, 4, 1, 2, 0]),
]


def _relabel_nodes(nodes, involution, rng):
    perm = list(range(len(nodes)))
    rng.shuffle(perm)
    out, out_inv = [None] * len(nodes), [0] * len(nodes)
    for i, node in enumerate(nodes):
        out[perm[i]], out_inv[perm[i]] = node, perm[involution[i]]
    return out, out_inv


def test_lattices_isomorphic_matches_brute_oracle():
    # catalog lattices of at most 7 nodes, each with a copy of its group under
    # seeded element relabelling, and abstract lattices with node relabellings
    rng = random.Random(2410)
    lattices = []
    for entry in catalog(24):
        g = entry.group
        if len(lattice_of(g).nodes) > 7:
            continue
        perm = list(range(g.order))
        rng.shuffle(perm)
        twin = from_multiplication_table(g.order, relabel([list(r) for r in g.table], perm))
        for lat in (lattice_of(g), lattice_of(twin)):
            lattices.append((lat, ([frozenset(n.members) for n in lat.nodes], list(lat.involution))))
    for nodes, involution in ABSTRACT_LATTICES:
        for plain in [(nodes, involution)] + [_relabel_nodes(nodes, involution, rng) for _ in range(3)]:
            lattices.append((_AbstractLattice(*plain), plain))
    found = 0
    for i, (a, plain_a) in enumerate(lattices):
        for b, plain_b in lattices[i:]:
            m = lattices_isomorphic(a, b)
            assert (m.node_map if m else None) == brute_lattice_isomorphism(plain_a, plain_b)
            found += m is not None
    assert found and found < len(lattices) * (len(lattices) + 1) // 2


def test_lattices_isomorphic_refuses_oversized_lattices(q8_lattice):
    big = object.__new__(CentralizerLattice)  # the cap reads only the node count
    big.nodes = range(DEFAULT_NODE_CAP + 1)
    with pytest.raises(NodeCapExceededError, match="513 exceeds cap 512"):
        lattices_isomorphic(q8_lattice, big)


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

from __future__ import annotations

import ast
import itertools
import random
from collections import Counter
from pathlib import Path

import pytest

from centlat import (
    CrhVerdict,
    GroupHom,
    all_subgroups,
    catalog,
    center,
    closure,
    crh_central_kernel_criterion,
    direct_product,
    from_multiplication_table,
    identity_hom,
    is_centralizer_respecting,
    make_family,
    quotient,
    semidirect_cyclic,
)
from centlat import lattice as lattice_module
from centlat.core import _bits
from centlat.errors import (
    DomainMismatchError,
    InternalInconsistencyError,
    NodeCapExceededError,
    NotCrhError,
    OrderCapExceededError,
)
from centlat.lattice import (
    DEFAULT_NODE_CAP,
    CentralizerLattice,
    LatticeHomVerdict,
    LatticeMap,
    _order_fingerprints,
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
    alternating_group_table,
    brute_centralizer,
    brute_lattice_covers,
    brute_lattice_isomorphism,
    brute_lattice_join,
    brute_lattice_meet,
    brute_lattice_nodes,
    brute_lattice_ranks,
    relabel,
    symmetric_group_table,
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
    assert [tuple(_bits(m)) for m in lat.nodes] == [
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
    meet, join, inv = lat.meet, lat.join, lat.involution
    for s, t in ((1, 2), (1, 3), (2, 3)):
        assert meet(s, t) == 0
        assert join(s, t) == 4
        assert not lat.leq(s, t) and not lat.leq(t, s)
    for s in range(5):
        assert meet(s, s) == s == join(s, s)
        assert meet(s, lat.top) == s
        assert join(s, lat.bottom) == s
        # involution is its own inverse and antitone
        assert inv[inv[s]] == s
    assert inv[lat.top] == lat.bottom


def test_every_node_is_a_centralizer(q8_lattice):
    from centlat import centralizer

    g = q8_lattice.group
    for mask in q8_lattice.nodes:
        again = centralizer(g, centralizer(g, _bits(mask)))
        assert set(again) == set(_bits(mask))


def test_lattice_nodes_match_brute_closure():
    # the one-pass build against the oracle's closure to a fixed point, on
    # catalog(64), S4 and A4 and a seeded relabelled copy of each: 750
    # lattices in about 2.5 s; each involution image is checked as a centralizer
    rng = random.Random(2929)
    tables = [[list(row) for row in entry.group.table] for entry in catalog(64)]
    tables += [symmetric_group_table(4), alternating_group_table(4)]
    for table in tables:
        perm = list(range(len(table)))
        rng.shuffle(perm)
        for t in (table, relabel(table, perm)):
            lat = CentralizerLattice(from_multiplication_table(len(t), t))
            members = [frozenset(_bits(m)) for m in lat.nodes]
            assert len(set(members)) == len(members) and set(members) == brute_lattice_nodes(t)
            assert [members[v] for v in lat.involution] == [frozenset(brute_centralizer(t, m)) for m in members]


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
    join = lat.join(s, t)
    assert join == 6 and lat.nodes[join].bit_count() == 16
    generated = closure(g, _bits(lat.nodes[s]) + _bits(lat.nodes[t]))
    assert len(generated) == 8
    assert generated.mask not in lat.index_of_mask


def test_covers_and_joins_match_brute_oracle():
    # covers come from the order masks, meets from the node masks and joins
    # from meets and the involution; the oracle works on member sets alone.
    # Nodes sort by (order, members), which the mask values do not follow on
    # six of these groups
    for entry in catalog(32):
        lat = build_centralizer_lattice(entry.group)
        members = [tuple(_bits(m)) for m in lat.nodes]
        assert members == sorted(members, key=lambda t: (len(t), t)), entry.name
        nodes = [frozenset(t) for t in members]
        assert lat.covers() == tuple(sorted(brute_lattice_covers(nodes))), entry.name
        count = len(nodes)
        joins = [[brute_lattice_join(nodes, i, j) for j in range(count)] for i in range(count)]
        assert [[lat.join(i, j) for j in range(count)] for i in range(count)] == joins, entry.name
        meets = [[brute_lattice_meet(nodes, i, j) for j in range(count)] for i in range(count)]
        assert [[lat.meet(i, j) for j in range(count)] for i in range(count)] == meets, entry.name
        subset_order = tuple(sum(1 << j for j, t in enumerate(nodes) if s <= t) for s in nodes)
        assert lat.leq_masks == subset_order, entry.name


def test_product_lattice_is_the_product_of_the_factor_lattices():
    # C(A) = C(pi1 A) x C(pi2 A) for every subset A of a x b, so the nodes of
    # L(a x b) are the products X x Y of the factors' nodes, and meets are
    # taken factor by factor; the product numbers (ia, ib) as ia*|b| + ib
    pairs = 0
    for ea, eb in itertools.product(catalog(16), repeat=2):
        a, b = ea.group, eb.group
        if a.order * b.order > 64:
            continue
        pairs += 1
        la, lb, lp = lattice_of(a), lattice_of(b), lattice_of(direct_product(a, b))
        products = [
            [sum(y << ia * b.order for ia in _bits(x)) for y in lb.nodes] for x in la.nodes
        ]
        assert sorted(lp.nodes) == sorted(m for row in products for m in row), (ea.name, eb.name)
        index = [[lp.index_of_mask[m] for m in row] for row in products]
        for (i, j), (k, l) in itertools.product(
            itertools.product(range(la.node_count()), range(lb.node_count())), repeat=2
        ):
            assert lp.meet(index[i][j], index[k][l]) == index[la.meet(i, k)][lb.meet(j, l)]
    assert pairs == 788


def test_validate_refuses_a_corrupt_involution():
    lat = build_centralizer_lattice(make_family("dihedral", 16))
    count = len(lat.nodes)
    assert count > 2
    lat.involution = tuple((i + 1) % count for i in range(count))
    with pytest.raises(InternalInconsistencyError, match="involutive"):
        lat._validate()
    lat.involution = tuple(range(count))
    with pytest.raises(InternalInconsistencyError, match="reverse order"):
        lat._validate()


def test_build_refuses_a_bottom_node_that_is_not_the_center():
    # the same centralizer rows, but a center mask that leaves out only the
    # generator y: C(G) computed from it is C(y), not the bottom node Z(G)
    g = make_family("dihedral", 8)
    rows = g.centralizer_masks()  # fills g._centralizers
    y = dict(g.generator_names)["y"]
    g._centralizers = (rows, g.full_mask & ~(1 << y), g._centralizers[2])
    with pytest.raises(InternalInconsistencyError, match="bottom node must be the center"):
        CentralizerLattice(g)


def test_build_matches_cached(q8_lattice):
    g = q8_lattice.group
    fresh = build_centralizer_lattice(g)
    assert [tuple(_bits(m)) for m in fresh.nodes] == [tuple(_bits(m)) for m in q8_lattice.nodes]
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


def test_induced_map_names_an_image_that_is_no_node(monkeypatch):
    # D6 -> D6/C3 is not crh; with the definitional check forced to pass,
    # the center's image {0} is no node of the abelian quotient's lattice
    d6 = make_family("dihedral", 6)
    _, proj = quotient(d6, next(h for h in all_subgroups(d6) if len(h) == 3))
    assert not is_centralizer_respecting(proj)
    monkeypatch.setattr("centlat.lattice.is_centralizer_respecting", lambda phi: CrhVerdict(True))
    with pytest.raises(InternalInconsistencyError) as exc:
        induced_map(proj)
    assert str(exc.value) == "image [0] of lattice node [0] is not a node of the target lattice"


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


def _crh_central_step(g):
    """The first projection of ``g`` by a central subgroup of order 2 that
    respects centralizers and has a non-abelian target."""
    z = center(g)
    for sub in all_subgroups(g):
        if len(sub) == 2 and sub <= z:
            q, proj = quotient(g, sub)
            if is_centralizer_respecting(proj) and len(center(q)) < q.order:
                return proj
    raise AssertionError("no crh central step")


@pytest.fixture
def crh_chain():
    """D8 x C2 x C2 -> order 16 -> order 8: two composable crh surjections,
    neither an identity, between lattices of more than one node."""
    c2 = make_family("cyclic", 2)
    phi = _crh_central_step(direct_product(make_family("dihedral", 8), direct_product(c2, c2)))
    psi = _crh_central_step(phi.target)
    assert (phi.source.order, phi.target.order, psi.target.order) == (32, 16, 8)
    assert verify_functoriality(phi, psi) == (True, ())
    return phi, psi


def test_functoriality_names_each_group_where_the_identity_law_fails(monkeypatch, crh_chain):
    # an identity sent to the constant map onto the top fails the identity
    # law on each of the three lattices, and no other law
    induced = lattice_module.induced_map

    def constant_on_identities(phi):
        m = induced(phi)
        if phi.mapping != tuple(range(phi.source.order)):
            return m
        return LatticeMap(m.source, m.target, [m.target.top] * len(m.source.nodes))

    monkeypatch.setattr(lattice_module, "induced_map", constant_on_identities)
    assert verify_functoriality(*crh_chain) == (
        False,
        (
            "identity law fails on lattice of order-32 group",
            "identity law fails on lattice of order-16 group",
            "identity law fails on lattice of order-8 group",
        ),
    )


def test_functoriality_names_a_composition_that_fails(monkeypatch, crh_chain):
    def constant(outer, inner):
        return LatticeMap(inner.source, outer.target, [outer.target.top] * len(inner.source.nodes))

    monkeypatch.setattr(lattice_module, "compose_lattice_maps", constant)
    assert verify_functoriality(*crh_chain) == (
        False,
        ("composition law fails: induced(psi o phi) != induced(psi) o induced(phi)",),
    )


def test_functoriality_names_each_induced_map_that_is_no_lattice_hom(monkeypatch, crh_chain):
    monkeypatch.setattr(lattice_module, "is_lattice_hom", lambda m: LatticeHomVerdict(False, "meet", (0, 1)))
    assert verify_functoriality(*crh_chain) == (
        False,
        (
            "induced map of phi breaks the meet law",
            "induced map of psi breaks the meet law",
            "induced map of psi o phi breaks the meet law",
        ),
    )


def test_a_cover_route_without_a_bridge_fails_and_the_combined_case_is_skipped(monkeypatch):
    # with no isomorphism from a cover's quotient to its family group, each
    # cover route stops after its first leg, and family_lattice_report(4)
    # then has no combined dihedral ~ semidihedral case
    from centlat import verify

    names = [c["name"] for c in verify.family_lattice_report(4)["cases"]]
    assert names[-1] == "composite dihedral(16) ~ semidihedral(16) through both covers"
    monkeypatch.setattr(verify, "group_isomorphic", lambda a, b: None)
    report = verify.family_lattice_report(4)
    assert not report["pass"]
    assert report["cases"][3:] == [
        {
            "name": "dihedral_quaternion(n=4): projection mod y^2 passes the commutator criterion",
            "pass": True,
            "detail": "kernel ['1', 'y^2']",
        },
        {"name": "dihedral_quaternion(n=4): quotient is dihedral(16)", "pass": False, "detail": "no isomorphism"},
        {
            "name": "quaternion_semidihedral(n=4): projection mod (1,x^4) passes the commutator criterion",
            "pass": True,
            "detail": "kernel ['(1,1)', '(1,x^4)']",
        },
        {"name": "quaternion_semidihedral(n=4): quotient is quaternion(16)", "pass": False, "detail": "no isomorphism"},
    ]


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
        # the join of atoms 1 and 2 is node 5; the map sends it to node 4 and
        # keeps the involution, so a meet with node 5 breaks: nodes 2 and 5
        # meet in node 2, nodes 2 and 4 in the bottom
        ("sd64", (0, 1, 2, 3, 4, 4, 6, 7, 8, 9, 10, 11, 12, 13, 14), "meet", (2, 5), True, True),
        # a constant map onto a self-paired node keeps every law but neither bound
        ("q8", (1, 1, 1, 1, 1), None, None, False, False),
        # the involution commutes with itself but reverses the order: the
        # bottom and atom 1 meet in the bottom, their images in atom 1; the
        # bottom and the top break the law too, and come later in the scan
        ("q8", (4, 1, 2, 3, 0), "meet", (0, 1), False, False),
    ],
)
def test_is_lattice_hom_reports_the_first_broken_law(group, node_map, law, witness, top, bottom):
    groups = {"q8": lambda: make_family("quaternion", 8), "sd64": lambda: semidirect_cyclic(16, 4, 5)}
    lat = lattice_of(groups[group]())
    verdict = is_lattice_hom(LatticeMap(lat, lat, node_map))
    assert verdict.ok == (law is None)
    assert (verdict.law, verdict.witness) == (law, witness)
    assert (verdict.preserves_top, verdict.preserves_bottom) == (top, bottom)


def _brute_laws(lat):
    """The involution, meet and join tables of ``lat``, read off member sets."""
    table = [list(r) for r in lat.group.table]
    nodes = [frozenset(_bits(m)) for m in lat.nodes]
    count = len(nodes)
    inv = [nodes.index(frozenset(brute_centralizer(table, s))) for s in nodes]
    meet = [[brute_lattice_meet(nodes, i, j) for j in range(count)] for i in range(count)]
    join = [[brute_lattice_join(nodes, i, j) for j in range(count)] for i in range(count)]
    return inv, meet, join


def _brute_hom_verdict(laws, f) -> bool:
    """Whether the self-map ``f`` keeps the involution, every meet and every join."""
    inv, meet, join = laws
    count = len(inv)
    return all(f[inv[s]] == inv[f[s]] for s in range(count)) and all(
        f[meet[s][t]] == meet[f[s]][f[t]] and f[join[s][t]] == join[f[s]][f[t]]
        for s in range(count)
        for t in range(count)
    )


def test_dropped_join_law_changes_no_verdict():
    # is_lattice_hom checks the involution and the meets, not the joins; the
    # oracle checks all three laws on member sets.  Every self-map of the
    # catalog(16) lattices of at most 5 nodes, then every self-map of
    # dihedral(16) that commutes with the involution (7 nodes: each pair of
    # partners picks one image, each self-paired node a self-paired image)
    cases = []
    for entry in catalog(16):
        lat = lattice_of(entry.group)
        count = lat.node_count()
        if count <= 5:
            cases.append((lat, _brute_laws(lat), itertools.product(range(count), repeat=count)))
    d16 = lattice_of(make_family("dihedral", 16))
    laws = _brute_laws(d16)
    inv, count = laws[0], d16.node_count()
    firsts = [s for s in range(count) if s <= inv[s]]
    choices = [[t for t in range(count) if s != inv[s] or t == inv[t]] for s in firsts]

    def commuting():
        for images in itertools.product(*choices):
            f = [0] * count
            for s, t in zip(firsts, images):
                f[s], f[inv[s]] = t, inv[t]
            yield tuple(f)

    cases.append((d16, laws, commuting()))
    for lat, laws, node_maps in cases:
        verdicts = {f: _brute_hom_verdict(laws, f) for f in node_maps}
        assert [f for f, want in verdicts.items() if is_lattice_hom(LatticeMap(lat, lat, f)).ok != want] == [], lat
        if lat is d16:
            assert len(verdicts) == 7 * 5**5 and 0 < sum(verdicts.values()) < len(verdicts)


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
        (lat, None),
        (lat, 5),
    ]:
        with pytest.raises(DomainMismatchError):
            LatticeMap(lat, target, node_map)
        with pytest.raises(DomainMismatchError):  # _replace checks as the constructor does
            LatticeMap(lat, lat, tuple(range(5)))._replace(target=target, node_map=node_map)
    collapse = LatticeMap(lat, point, (0,) * 5)
    assert not collapse.is_bijective()
    with pytest.raises(DomainMismatchError, match="only bijective lattice maps can be inverted"):
        invert_lattice_map(collapse)
    identity = invert_lattice_map(LatticeMap(lat, lat, tuple(range(5))))
    assert compose_lattice_maps(collapse, identity).node_map == (0,) * 5
    assert identity._replace(node_map=(4, 1, 2, 3, 0)).node_map == (4, 1, 2, 3, 0)
    # any iterable is taken and kept as a tuple, so equal maps compare equal
    for make in (lambda: [0, 1, 2, 3, 4], lambda: (v for v in range(5))):
        assert LatticeMap(lat, lat, make()).node_map == tuple(range(5))
        assert identity._replace(node_map=make()) == identity


def test_compose_lattice_maps_refuses_a_different_middle_lattice():
    # Z4 and Z2^2 are abelian, so each lattice is the one node {0, 1, 2, 3}:
    # equal node masks, different tables
    c4 = lattice_of(make_family("cyclic", 4))
    v4 = lattice_of(direct_product(make_family("cyclic", 2), make_family("cyclic", 2)))
    assert c4.nodes == v4.nodes == (0b1111,)
    inner, outer = LatticeMap(c4, c4, (0,)), LatticeMap(v4, v4, (0,))
    assert compose_lattice_maps(inner, inner).node_map == (0,)
    with pytest.raises(DomainMismatchError, match="inner target lattice differs"):
        compose_lattice_maps(outer, inner)


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
    nodes are sets ordered by inclusion, meet found by search.  It
    carries only the fields and the meet query that lattices_isomorphic and
    is_lattice_hom read; it subclasses CentralizerLattice to pass their type
    gates, and its own __init__ builds no group."""

    def __init__(self, nodes: list[frozenset], involution: list[int]) -> None:
        count = len(nodes)
        self.nodes, self.involution = nodes, tuple(involution)
        self.leq_masks = tuple(
            sum(1 << j for j in range(count) if nodes[i] <= nodes[j]) for i in range(count)
        )
        self._by_size = by_size = sorted(range(count), key=lambda k: len(nodes[k]))
        self.bottom, self.top = by_size[0], by_size[-1]

    def meet(self, s: int, t: int) -> int:
        """The largest node inside nodes s and t."""
        x = self.nodes[s] & self.nodes[t]
        return [k for k in self._by_size if self.nodes[k] <= x][-1]


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


def test_order_fingerprints_match_brute_ranks():
    # down-set sizes and heights against the oracle's, on catalog lattices
    # (numbered by subgroup order) and on abstract lattices under node
    # relabellings that number them in no linear extension of the order
    rng = random.Random(2424)
    lattices = []
    for entry in catalog(32):
        lat = build_centralizer_lattice(entry.group)
        lattices.append((lat, [frozenset(_bits(m)) for m in lat.nodes]))
    for nodes, involution in ABSTRACT_LATTICES:
        for plain in [(nodes, involution)] + [_relabel_nodes(nodes, involution, rng) for _ in range(3)]:
            lattices.append((_AbstractLattice(*plain), plain[0]))
    for k, (lat, nodes) in enumerate(lattices):
        ranks = brute_lattice_ranks(nodes)
        inv = lat.involution
        base = [(*ranks[i], inv[i] == i) for i in range(len(ranks))]
        assert _order_fingerprints(lat) == [(base[i], base[inv[i]]) for i in range(len(base))], k


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
            lattices.append((lat, ([frozenset(_bits(m)) for m in lat.nodes], list(lat.involution))))
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


def test_lattices_isomorphic_refuses_a_map_that_fails_its_final_check(monkeypatch, q8_lattice):
    # the found map must pass is_lattice_hom and be a bijection, each on its
    # own: a failure of either is an internal inconsistency, never a result
    d8 = lattice_of(make_family("dihedral", 8))
    for owner, name, broken in (
        (lattice_module, "is_lattice_hom", lambda m: LatticeHomVerdict(False, "meet", (0, 1))),
        (LatticeMap, "is_bijective", lambda m: False),
    ):
        with monkeypatch.context() as patch:
            patch.setattr(owner, name, broken)
            with pytest.raises(InternalInconsistencyError, match="verified isomorphism"):
                lattices_isomorphic(d8, q8_lattice)
    assert lattices_isomorphic(d8, q8_lattice).node_map == (0, 1, 2, 3, 4)


def test_lattices_isomorphic_refuses_oversized_lattices(q8_lattice):
    big = object.__new__(CentralizerLattice)  # the cap reads only the node count
    big.nodes = range(DEFAULT_NODE_CAP + 1)
    for a, b in ((q8_lattice, big), (big, q8_lattice)):
        with pytest.raises(NodeCapExceededError, match="513 exceeds cap 512"):
            lattices_isomorphic(a, b)
    # a chain of exactly 512 nodes, paired top to bottom, is within the cap;
    # node i holds the elements 0..i, so the meet of two nodes is the lower
    chain = object.__new__(CentralizerLattice)
    chain.nodes = tuple((1 << i + 1) - 1 for i in range(DEFAULT_NODE_CAP))
    chain.index_of_mask = {m: i for i, m in enumerate(chain.nodes)}
    chain.top, chain.bottom = DEFAULT_NODE_CAP - 1, 0
    chain.leq_masks = tuple(((1 << DEFAULT_NODE_CAP) - 1) >> i << i for i in range(DEFAULT_NODE_CAP))
    chain.involution = tuple(reversed(range(DEFAULT_NODE_CAP)))
    assert lattices_isomorphic(q8_lattice, chain) is None and lattices_isomorphic(chain, q8_lattice) is None
    # against itself: the deepest search the cap allows, one candidate a node
    assert lattices_isomorphic(chain, chain).node_map == tuple(range(DEFAULT_NODE_CAP))


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


def test_oracle_self_checks_are_explicit_raises():
    # pytest does not rewrite the asserts of the helper module _oracles, and
    # python -O strips plain asserts, so an assert there would leave the
    # oracles unchecked in an optimised run
    source = Path(__file__).with_name("_oracles.py")
    tree = ast.parse(source.read_text(encoding="utf-8"))
    assert [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)] == []
    # two incomparable upper bounds of {0, 1} and {0, 2}: no least one, and
    # two incomparable lower bounds of {0, 1, 2, 3} and {0, 1, 2, 4}
    nodes = [frozenset(s) for s in ({0}, {0, 1}, {0, 2}, {0, 1, 2, 3}, {0, 1, 2, 4}, set(range(5)))]
    with pytest.raises(AssertionError, match="oracle: no least upper bound"):
        brute_lattice_join(nodes, 1, 2)
    with pytest.raises(AssertionError, match="oracle: no greatest lower bound"):
        brute_lattice_meet(nodes, 3, 4)


def test_induced_map_sends_the_top_node_by_surjectivity(monkeypatch):
    # differential against the image of every node, over every crh central
    # projection of catalog(64); and a work counter: the top node G goes to
    # the target's top without an image, so an abelian source, whose one
    # node is its top, takes none
    original, images = GroupHom._image_of_mask, Counter()

    def counting(h, mask):
        images["taken"] += 1
        return original(h, mask)

    monkeypatch.setattr(GroupHom, "_image_of_mask", counting)
    counts = Counter()
    for entry in catalog(64):
        g = entry.group
        nodes = lattice_of(g).nodes
        for sub in all_subgroups(g):
            if not sub <= center(g):
                continue
            q, proj = quotient(g, sub)
            if not is_centralizer_respecting(proj):
                continue
            index = lattice_of(q).index_of_mask
            want = tuple(index[original(proj, node)] for node in nodes)
            images.clear()
            assert induced_map(proj).node_map == want, (entry.name, sub)
            assert images["taken"] == len(nodes) - 1, (entry.name, sub)
            counts["crh"] += 1
            counts["nodes"] += len(nodes)
    assert counts == Counter(crh=2588, nodes=5822)

from __future__ import annotations

import itertools
import random
import re
import sys
from collections import Counter

import pytest

from centlat import (
    GroupHom,
    all_subgroups,
    catalog,
    center,
    centralizer,
    closure,
    commutator_set,
    compose,
    crh_central_kernel_criterion,
    direct_product,
    eval_group_expr,
    from_multiplication_table,
    group_isomorphic,
    hom_from_json,
    hom_from_map,
    hom_to_json,
    identity_hom,
    induced_map,
    is_centralizer_respecting,
    is_lattice_hom,
    is_surjective,
    kernel,
    lattice_of,
    make_family,
    parse_group_expr,
    quotient,
    semidirect_cyclic,
)
from centlat.errors import (
    DomainMismatchError,
    KernelNotCentralError,
    NotHomomorphismError,
    NotNormalError,
    NotSurjectiveError,
    OrderCapExceededError,
    TableJsonError,
)

from centlat import core
from centlat.verify import COMPOSABLE_PAIRS_TARGET, composable_pairs

from _oracles import (
    brute_center,
    brute_centralizer,
    brute_closure,
    brute_commutator_set,
    brute_crh_verdict,
    brute_first_commutator_in,
    brute_identity,
    brute_inverse,
    brute_left_cosets,
    brute_quotient,
    relabel,
    symmetric_group_table,
    unitriangular_group_table,
)


@pytest.fixture(scope="module")
def d8():
    return make_family("dihedral", 8)


@pytest.fixture(scope="module")
def g16():
    # Z4 twisted by Z4 acting by inversion; elements (i, j) at index j*4 + i
    return semidirect_cyclic(4, 4, 3)


# ------------------------------------------------------------ basic plumbing


def test_hom_from_map_validates(d8):
    z2 = make_family("cyclic", 2)
    # x^i y^e  |->  e mod 2 (the sign map) is a homomorphism
    sign = [0, 0, 0, 0, 1, 1, 1, 1]
    h = hom_from_map(d8, z2, sign)
    assert is_surjective(h)
    assert set(kernel(h)) == {0, 1, 2, 3}
    # corrupt one value: no longer multiplicative
    bad = list(sign)
    bad[3] = 1
    with pytest.raises(NotHomomorphismError) as exc:
        hom_from_map(d8, z2, bad)
    assert exc.value.got != exc.value.expected
    with pytest.raises(NotHomomorphismError):
        hom_from_map(d8, z2, sign[:-1])  # wrong length
    with pytest.raises(NotHomomorphismError):
        hom_from_map(d8, z2, [0, 0, 0, 0, 1, 1, 1, 9])  # out of range
    # non-integral entries are reported like out-of-range ones, never
    # truncated or coerced to 1 (nor, for None, a bare TypeError)
    z4 = make_family("cyclic", 4)
    assert hom_from_map(z4, z2, [0, 1, 0, 1]).mapping == (0, 1, 0, 1)
    for entry in (1.9, 1.0, True, "1", None):
        with pytest.raises(NotHomomorphismError) as exc:
            hom_from_map(z4, z2, [0, 1, 0, entry])
        assert exc.value.pair == (0, 0) and exc.value.got is entry and exc.value.expected == -1


def test_hom_from_map_names_what_is_wrong_with_the_map():
    # a map rejected before any product is compared says why, rather than
    # describing a product phi(0*0) that was never computed; the public
    # GroupHom constructor runs the same check as hom_from_map
    z4, z2 = make_family("cyclic", 4), make_family("cyclic", 2)
    d8 = make_family("dihedral", 8)
    cases = [
        (z4, [0, 1], "it has 2 entries but the source has order 4"),
        (z4, None, "NoneType is not a sequence of element indices"),
        (z4, 7, "int is not a sequence of element indices"),
        (z4, [0, 1, 0, 2], "entry 3 is 2, not an element index of the order-2 target"),
        (z4, [0, 1, 0, 9], "entry 3 is 9, not an element index of the order-2 target"),
        (z4, [0, 1, 0, "1"], "entry 3 is '1', not an element index of the order-2 target"),
        (d8, (0, 1), "it has 2 entries but the source has order 8"),
        (d8, (0, 1, 2, 3) * 2, "entry 2 is 2, not an element index of the order-2 target"),
    ]
    for door in (hom_from_map, GroupHom):
        for source, mapping, problem in cases:
            with pytest.raises(NotHomomorphismError, match=re.escape(problem)) as exc:
                door(source, z2, mapping)
            assert "phi(" not in str(exc.value)
            assert exc.value.pair == (0, 0) and exc.value.expected == -1
        # onto, right length and range, but not a homomorphism: rejected at
        # construction, so no crh route can give it a verdict
        with pytest.raises(NotHomomorphismError, match=re.escape("phi(1*1) = 1 but phi(1)*phi(1) = 0")) as exc:
            door(d8, z2, (0, 1, 1, 0, 0, 0, 0, 0))
        assert exc.value.pair == (1, 1)


def test_identity_and_compose(d8):
    ident = identity_hom(d8)
    assert ident.is_bijective()
    q, proj = quotient(d8, closure(d8, [2]))
    both = compose(proj, ident)
    assert both.mapping == proj.mapping
    z2 = make_family("cyclic", 2)
    with pytest.raises(DomainMismatchError):
        compose(hom_from_map(z2, z2, [0, 1]), proj)


def test_is_bijective_needs_both_equal_orders_and_onto(d8):
    _, proj = quotient(d8, center(d8))
    assert is_surjective(proj) and not proj.is_bijective()  # onto, but smaller
    z2 = make_family("cyclic", 2)
    trivial = hom_from_map(z2, z2, [z2.identity] * 2)
    assert not is_surjective(trivial) and not trivial.is_bijective()  # same order, not onto


def test_image_and_kernel(d8):
    z4 = make_family("cyclic", 4)
    z2 = make_family("cyclic", 2)
    inclusion = hom_from_map(z2, z4, [0, 2])
    assert not is_surjective(inclusion)
    assert inclusion.image_mask(range(z2.order)) == 1 << 0 | 1 << 2
    assert kernel(inclusion).is_trivial()
    with pytest.raises(NotSurjectiveError) as exc:
        is_centralizer_respecting(inclusion)
    assert exc.value.missed in {1, 3}


def _first_missed(h):
    """The least target element outside the image, by a scan of the map."""
    return min(set(range(h.target.order)) - set(h.mapping))


def test_maps_built_outside_the_package_are_not_trusted_onto(d8):
    # neither public door nor compose records a kernel, so every route that
    # needs a surjection scans the map and names the same first missing element
    z2, z4 = make_family("cyclic", 2), make_family("cyclic", 4)
    maps = [
        hom_from_map(z2, z4, [0, 2]),
        GroupHom(z2, z4, [0, 2]),
        hom_from_map(d8, d8, [d8.identity] * 8),
        GroupHom(d8, d8, [d8.identity] * 8),
        compose(identity_hom(z4), hom_from_map(z2, z4, [0, 2])),
    ]
    for h in maps:
        missed = _first_missed(h)
        for route in (is_centralizer_respecting, crh_central_kernel_criterion, induced_map):
            with pytest.raises(NotSurjectiveError) as exc:
                route(h)
            assert exc.value.missed == missed, (h, route)
    assert [_first_missed(h) for h in maps] == [1, 1, 1, 1, 1]


def test_kernel_of_a_composite_scans_its_map(d8):
    # compose records no kernel: the composite of two projections has a
    # larger kernel than the inner one, and kernel() finds it by a scan
    g = make_family("dihedral", 16)
    q, inner = quotient(g, closure(g, [4]))
    _, outer = quotient(q, center(q))
    both = compose(outer, inner)
    scan = sum(1 << a for a, v in enumerate(both.mapping) if v == both.target.identity)
    assert kernel(both).mask == scan and len(kernel(both)) == 4 > len(kernel(inner)) == 2
    non_onto = compose(identity_hom(d8), hom_from_map(d8, d8, [d8.identity] * 8))
    assert kernel(non_onto).mask == d8.full_mask and not is_surjective(non_onto)


# ------------------------------------------------------------------ quotient


def test_quotient_by_center_of_dihedral(d8):
    q, proj = quotient(d8, closure(d8, [2]))
    assert q.order == 4
    assert center(q).mask == q.full_mask  # abelian
    # cosets named by least element: {0,2},{1,3},{4,6},{5,7}
    assert proj.mapping == (0, 1, 0, 1, 2, 3, 2, 3)
    # projection is a genuine homomorphism
    hom_from_map(d8, q, proj.mapping)


def test_quotient_rejects_non_normal(d8):
    # the reflection subgroup {e, y} is not normal in dihedral(8)
    with pytest.raises(NotNormalError) as exc:
        quotient(d8, closure(d8, [4]))
    g, x, conj = exc.value.conjugator, exc.value.element, exc.value.conjugate
    assert d8.mul(d8.mul(d8.inverse[g], x), g) == conj
    assert conj not in {0, 4}


def test_quotient_whole_and_trivial(d8):
    q, proj = quotient(d8, closure(d8, list(range(8))))
    assert q.order == 1
    q2, proj2 = quotient(d8, closure(d8, []))
    assert q2.order == 8 and proj2.is_bijective()


def test_quotient_of_domain_mismatch(d8):
    other = make_family("dihedral", 8)  # same table, distinct object is fine
    q, _ = quotient(other, closure(other, [2]))
    assert q.order == 4
    z4 = make_family("cyclic", 4)
    with pytest.raises(DomainMismatchError):
        quotient(d8, closure(z4, [2]))


def test_quotient_rejects_a_plain_index_list(d8):
    # a list is not a validated subgroup: refused by type, before any member is read
    with pytest.raises(DomainMismatchError, match="not list"):
        quotient(d8, [0, 2])


def _quotient_or_witness(g, sub):
    try:
        q, proj = quotient(g, sub)
    except NotNormalError as e:
        return ("not normal", e.conjugator, e.element, e.conjugate)
    return list(proj.mapping), [list(row) for row in q.table]


def _relabelled(g, rng):
    perm = list(range(g.order))
    rng.shuffle(perm)
    return from_multiplication_table(g.order, relabel([list(r) for r in g.table], perm))


@pytest.fixture(scope="module")
def quotient_groups():
    """The catalog, two relabelled copies of each group (where both the
    identity and the coset numbering differ from the catalog's, and there
    are no labels) and S4."""
    rng = random.Random(7)
    groups = [from_multiplication_table(24, symmetric_group_table(4))]
    for entry in catalog(32):
        groups += [entry.group, _relabelled(entry.group, rng), _relabelled(entry.group, rng)]
    return groups


def test_quotient_matches_brute_oracle(quotient_groups):
    # coset numbering and the first non-normal witness on every subgroup
    for g in quotient_groups:
        table = [list(r) for r in g.table]
        for sub in all_subgroups(g):
            assert _quotient_or_witness(g, sub) == brute_quotient(table, set(sub.members))


def test_left_cosets_match_brute_oracle(quotient_groups):
    # the package's one coset walk, which quotient and the centralizer table
    # share, on every subgroup, normal or not
    for g in quotient_groups:
        table = [list(r) for r in g.table]
        for sub in all_subgroups(g):
            assert core._left_cosets(g, sub.members) == brute_left_cosets(table, set(sub.members))


def _assert_quotient_fields(g, q, proj):
    """q = g/N, built without validation, has exactly the fields that
    from_multiplication_table gives its table; the generator names and
    labels, which validation only echoes, match the parent's directly."""
    again = from_multiplication_table(q.order, q.table, q.generator_names or None, q.element_labels)
    fields = ("order", "table", "identity", "inverse", "generator_names", "element_labels")
    assert [getattr(q, f) for f in fields] == [getattr(again, f) for f in fields]
    assert type(q.table) is tuple and all(type(row) is tuple for row in q.table)
    least, first_name = {}, {}
    for x, c in enumerate(proj.mapping):
        least.setdefault(c, x)
    for name, x in g.generator_names:
        first_name.setdefault(proj.mapping[x], name)
    assert q.generator_names == tuple((name, c) for c, name in first_name.items())
    labels = tuple(g.label(least[c]) for c in range(q.order))
    assert q.element_labels == (labels if g.element_labels is not None else None)


def test_quotient_fields_match_validation(quotient_groups):
    # every normal subgroup of the oracle set, and two levels deep, so that
    # the generator names of derived groups are shown to generate them
    levels = Counter()

    def descend(g, depth):
        for sub in all_subgroups(g):
            try:
                q, proj = quotient(g, sub)
            except NotNormalError:
                continue
            _assert_quotient_fields(g, q, proj)
            levels[depth] += 1
            if depth < 2:
                descend(q, depth + 1)

    for g in quotient_groups:
        descend(g, 1)
    assert levels == Counter({1: 3199, 2: 13231})


def test_quotient_fields_of_trivial_and_whole(d8):
    trivial = from_multiplication_table(1, [[0]])
    assert trivial.generator_names == ()
    for g in (trivial, make_family("cyclic", 1), d8):
        q, proj = quotient(g, closure(g, range(g.order)))
        _assert_quotient_fields(g, q, proj)
        assert q.order == 1 and q.table == ((0,),) and q.identity == 0 and q.inverse == (0,)
    q, _ = quotient(trivial, closure(trivial, []))
    assert q.generator_names == () and q.element_labels is None
    q, _ = quotient(d8, closure(d8, range(8)))
    assert q.generator_names == (("x", 0),) and q.element_labels == (d8.label(0),)


def test_quotient_by_the_trivial_subgroup_is_the_group_itself():
    # differential against the brute oracle: G/1 is G, with the identity
    # projection, over the catalog and a relabelled copy of each group,
    # whose identity is seldom 0
    rng = random.Random(3211)
    groups = [g for entry in catalog(32) for g in (entry.group, _relabelled(entry.group, rng))]
    assert len(groups) == 272 and sum(g.identity != 0 for g in groups) == 127
    for g in groups:
        trivial = closure(g, [])
        q, proj = quotient(g, trivial)
        assert q is g and proj.source is g and proj.target is g
        assert proj.mapping == tuple(range(g.order))
        table = [list(r) for r in g.table]
        assert brute_quotient(table, set(trivial.members)) == (list(proj.mapping), [list(r) for r in q.table])
        assert q.identity == brute_identity(table)
        assert list(q.inverse) == [brute_inverse(table, a) for a in range(g.order)]
        assert kernel(proj).mask == 1 << brute_identity(table) and is_surjective(proj)
        assert quotient(g, trivial)[1] is not proj  # a fresh projection, no cached verdict


def test_quotient_by_the_trivial_subgroup_drops_a_repeated_hint():
    # hints naming one element twice keep the general path: a new group,
    # with the repeat dropped, equal to what validation gives
    z4 = make_family("cyclic", 4)
    g = from_multiplication_table(4, z4.table, {"a": 1, "b": 1}.items())
    assert g.generator_names == (("a", 1), ("b", 1))
    q, proj = quotient(g, closure(g, []))
    assert q is not g and q.generator_names == (("a", 1),)
    assert q.table == g.table and q.identity == g.identity and q.inverse == g.inverse
    assert proj.mapping == tuple(range(4)) and kernel(proj).mask == 1 << g.identity
    _assert_quotient_fields(g, q, proj)


def test_projections_record_their_kernel():
    # the recorded kernel equals a scan of the map for every normal
    # subgroup of catalog(16), and the projection is onto
    count = 0
    for entry in catalog(16):
        g = entry.group
        for sub in all_subgroups(g):
            try:
                q, proj = quotient(g, sub)
            except NotNormalError:
                continue
            scan = sum(1 << a for a, v in enumerate(proj.mapping) if v == q.identity)
            assert kernel(proj).mask == scan == sub.mask, (entry.name, sub)
            assert is_surjective(proj)
            count += 1
    assert count == 295


def _nested_quotient_table(g, proj):
    """The quotient table built element by element, as a nested generator
    expression over the least element of each coset."""
    t, reps, seen = g.table, [], set()
    for x, c in enumerate(proj):
        if c not in seen:
            seen.add(c)
            reps.append(x)
    return tuple(tuple(proj[t[ra][rb]] for rb in reps) for ra in reps)


def test_quotient_tables_match_the_nested_formula():
    # differential against the element-by-element table that gathering whole
    # rows replaced: every central quotient of catalog(32) and of a relabelled
    # copy of each group, whose identity and coset numbering differ
    rng = random.Random(1432)
    count = 0
    for entry in catalog(32):
        for g in (entry.group, _relabelled(entry.group, rng)):
            for sub in all_subgroups(g):
                if sub <= center(g):
                    q, proj = quotient(g, sub)
                    assert q.table == _nested_quotient_table(g, proj.mapping), (entry.name, sub)
                    count += 1
    assert count == 2 * 779


def _first_failed_product(source, target, m):
    """(a, b, got, expected) for the first a, then b, with phi(a)*phi(b) !=
    phi(a*b), by a double loop over single products; None for a homomorphism."""
    ts, tt = source.table, target.table
    for a in range(source.order):
        for b in range(source.order):
            got, expected = tt[m[a]][m[b]], m[ts[a][b]]
            if got != expected:
                return a, b, got, expected
    return None


def test_hom_from_map_witness_matches_the_double_loop():
    # valid maps over catalog(16) -- every projection onto a quotient and an
    # isomorphism onto a relabelled copy -- with one entry overwritten; the
    # row-at-a-time check must name the product a double loop finds first
    rng = random.Random(1433)
    maps = []
    for entry in catalog(16):
        g = entry.group
        for sub in all_subgroups(g):
            try:
                q, proj = quotient(g, sub)
            except NotNormalError:
                continue
            maps.append((g, q, proj.mapping))
        perm = list(range(g.order))
        rng.shuffle(perm)
        maps.append((g, from_multiplication_table(g.order, relabel([list(r) for r in g.table], perm)), perm))
    outcomes = Counter()
    for source, target, mapping in maps:
        assert hom_from_map(source, target, mapping).mapping == tuple(mapping)
        for _ in range(3):
            m = list(mapping)
            m[rng.randrange(source.order)] = rng.randrange(target.order)
            want = _first_failed_product(source, target, m)
            try:
                hom_from_map(source, target, m)
            except NotHomomorphismError as e:
                assert (*e.pair, e.got, e.expected) == want, (source, target, m)
                outcomes["rejected"] += 1
            else:
                assert want is None
                outcomes["accepted"] += 1
    assert outcomes == Counter(rejected=663, accepted=372)


def test_one_element_rows_are_gathered_as_tuples():
    # each gather site on a row of one entry: validation of the order-1 table,
    # a Dimino step from the trivial subgroup, the quotient of a group by
    # itself, and maps out of the trivial group
    trivial = from_multiplication_table(1, [[0]])
    assert (trivial.table, trivial.identity, trivial.inverse) == (((0,),), 0, (0,))
    c3 = make_family("cyclic", 3)
    assert closure(c3, [2]).members == (0, 1, 2)
    q, proj = quotient(c3, closure(c3, [1]))
    assert q.table == ((0,),) and proj.mapping == (0, 0, 0)
    assert hom_from_map(trivial, c3, [0]).mapping == (0,)
    with pytest.raises(NotHomomorphismError) as exc:
        hom_from_map(trivial, c3, [1])
    assert (exc.value.pair, exc.value.got, exc.value.expected) == ((0, 0), 2, 1)


# ------------------------------------------------- centralizer-respecting maps


def test_worked_quotient_respects_centralizers(g16):
    # kernel {e, x^2 y^2}: central, misses the commutator x^2
    ker = closure(g16, [10])
    assert set(ker) == {0, 10}
    q, proj = quotient(g16, ker)
    assert group_isomorphic(q, make_family("quaternion", 8)) is not None

    definitional = is_centralizer_respecting(proj)
    assert definitional.ok and definitional.witness is None

    criterion = crh_central_kernel_criterion(proj)
    assert criterion.ok
    assert kernel(proj).members == (0, 10)
    assert criterion.witness_pair is None


def test_negative_control_fails_both_routes(d8):
    # kernel {e, x^2} IS the derived subgroup: the quotient flattens
    # genuinely non-commuting pairs, so centralizers are not respected
    q, proj = quotient(d8, closure(d8, [2]))

    definitional = is_centralizer_respecting(proj)
    assert not definitional.ok
    w = definitional.witness
    assert w.subgroup == (0, 4)
    assert w.image_of_centralizer == (0, 2)
    assert w.centralizer_of_image == (0, 1, 2, 3)
    # the witness exhibits strict one-sided containment
    assert set(w.image_of_centralizer) < set(w.centralizer_of_image)

    criterion = crh_central_kernel_criterion(proj)
    assert not criterion.ok
    assert criterion.witness_pair == (1, 4)
    assert criterion.witness_commutator == 2
    a, b = criterion.witness_pair
    comm = d8.mul(
        d8.mul(d8.mul(d8.inverse[a], d8.inverse[b]), a), b
    )
    assert comm == criterion.witness_commutator and comm in kernel(proj)


def test_crh_quotient_of_order_256_that_is_not_an_isoclinism():
    # G < UT(7, 2) has a commutator subgroup G' larger than its commutator
    # set K(G); the one element d of G' outside K(G) is central, so G -> G/<d>
    # is crh (<d> misses K(G)) without being an isoclinism (<d> meets G')
    table = unitriangular_group_table([(49, 98, 60, 8, 112, 32, 64), (41, 126, 124, 104, 16, 96, 64)])
    g = from_multiplication_table(len(table), table)
    center_set, commutators = brute_center(table), brute_commutator_set(table)
    derived = brute_closure(table, commutators)
    assert (g.order, len(center_set), len(derived), len(commutators)) == (256, 8, 16, 15)
    (d,) = derived - commutators
    assert d in center_set
    q, proj = quotient(g, closure(g, [d]))
    assert q.order == 128
    assert is_centralizer_respecting(proj).ok and crh_central_kernel_criterion(proj).ok
    lattice_map = induced_map(proj)
    assert len(lattice_map.node_map) == 21 and lattice_map.is_bijective()
    assert is_lattice_hom(lattice_map).ok
    q_table = [list(r) for r in q.table]
    assert len(brute_closure(q_table, brute_commutator_set(q_table))) == 8
    # of the nontrivial normal subgroups only <d> and G are crh kernels
    normal, crh_kernels = 0, []
    for sub in all_subgroups(g)[1:]:
        try:
            _, proj = quotient(g, sub)
        except NotNormalError:
            continue
        normal += 1
        if is_centralizer_respecting(proj):
            crh_kernels.append(set(sub))
    assert normal == 68
    assert crh_kernels == [{g.identity, d}, set(range(g.order))]


def test_criterion_requires_central_kernel(d8):
    # the rotation subgroup is normal but not central
    q, proj = quotient(d8, closure(d8, [1]))
    assert q.order == 2
    with pytest.raises(KernelNotCentralError) as exc:
        crh_central_kernel_criterion(proj)
    k, witness = exc.value.kernel_element, exc.value.witness
    assert k in kernel(proj) and k not in center(d8)
    assert d8.mul(k, witness) != d8.mul(witness, k)
    # the definitional route is still available and disagrees with nothing:
    # this projection simply fails the definitional check too
    assert not is_centralizer_respecting(proj).ok


def test_criterion_witness_matches_row_major_scan(sweep_records):
    # the criterion reads its witness off a per-group commutator map; it
    # must be the pair a plain row-major scan of all n^2 pairs finds first
    failing = [r for r in sweep_records if not r.criterion.ok]
    assert len(failing) == 40
    for r in failing:
        table = [list(row) for row in r.projection.source.table]
        expected = brute_first_commutator_in(table, set(r.kernel.members))
        got = (*r.criterion.witness_pair, r.criterion.witness_commutator)
        assert got == expected, r.group_name


def test_composable_pairs_skip_what_fails_either_step(sweep_records):
    # the last 60 records hold 23 that are not crh and second quotients
    # that fail the criterion; their 29 pairs stay under the target, so the
    # walk runs to the end; the expected pairs are read off brute oracles
    records = sweep_records[-60:]
    assert sum(not r.definitional.ok for r in records) == 23
    pairs = composable_pairs(records)
    assert len(pairs) == 29 < COMPOSABLE_PAIRS_TARGET
    expected, failing = [], 0
    for r in records:
        if not r.definitional.ok:
            continue
        h = r.projection.target
        table = [list(row) for row in h.table]
        central = brute_center(table)
        for sub in all_subgroups(h):
            if not set(sub) <= central or r.kernel.is_trivial() and sub.is_trivial():
                continue
            if brute_first_commutator_in(table, set(sub)) is None:
                expected.append((r, sub))
            else:
                failing += 1
    assert failing > 0
    assert [(r, sub) for r, sub, _ in pairs] == expected
    for r, sub, proj2 in pairs:
        table = [list(row) for row in r.projection.target.table]
        assert proj2.source is r.projection.target
        got = (list(proj2.mapping), [list(row) for row in proj2.target.table])
        assert brute_quotient(table, set(sub)) == got


def test_crh_cap_holds_on_cached_verdict():
    d16 = make_family("dihedral", 16)
    q, proj = quotient(d16, center(d16))
    assert not is_centralizer_respecting(proj).ok  # now cached on proj
    with pytest.raises(OrderCapExceededError):
        is_centralizer_respecting(proj, cap=8)
    # a fresh projection has no cached verdict, but d16 has a cached subgroup
    # table; the cap holds on that path too.  d16/1 is d16 itself, and each
    # call gives a fresh identity projection, with or without a cached verdict
    trivial_quotient, fresh = quotient(d16, closure(d16, []))
    assert trivial_quotient is d16
    with pytest.raises(OrderCapExceededError):
        is_centralizer_respecting(fresh, cap=8)
    assert is_centralizer_respecting(fresh).ok
    _, again = quotient(d16, closure(d16, []))
    assert again is not fresh
    for h in (fresh, again):
        with pytest.raises(OrderCapExceededError):
            is_centralizer_respecting(h, cap=8)
    with pytest.raises(OrderCapExceededError):
        all_subgroups(d16, cap=8)


def test_crh_verdict_not_cached_when_the_sweep_is_cut_short(monkeypatch):
    # an error partway through the sweep must not leave a verdict behind:
    # the next call sweeps again and finds the witness
    d16 = make_family("dihedral", 16)
    _, proj = quotient(d16, center(d16))
    calls = []

    def failing(group, mask):
        calls.append(mask)
        raise RuntimeError("cut short")

    with monkeypatch.context() as patch:
        patch.setattr("centlat.homs._centralizer_mask", failing)
        with pytest.raises(RuntimeError, match="cut short"):
            is_centralizer_respecting(proj)
    assert len(calls) == 1
    verdict = is_centralizer_respecting(proj)
    assert not verdict.ok and verdict.witness.subgroup == (0, 8)


def _witness_tuple(verdict):
    w = verdict.witness
    return None if w is None else (w.subgroup, w.image_of_centralizer, w.centralizer_of_image)


def test_definitional_sweep_matches_brute_oracle():
    # every central projection of the catalog up to order 16, relabelled so
    # the identity moves, against an oracle sharing no code with the package
    rng = random.Random(4)
    outcomes = Counter()
    for entry in catalog(16):
        perm = list(range(entry.group.order))
        rng.shuffle(perm)
        table = relabel([list(r) for r in entry.group.table], perm)
        g = from_multiplication_table(len(table), table)
        for sub in all_subgroups(g):
            if not sub <= center(g):
                continue
            q, proj = quotient(g, sub)
            witness, one_sided = brute_crh_verdict(table, [list(r) for r in q.table], proj.mapping)
            verdict = is_centralizer_respecting(proj)
            assert verdict.ok == (witness is None), (entry.name, sub.members)
            assert _witness_tuple(verdict) == witness, (entry.name, sub.members)
            assert one_sided, (entry.name, sub.members)
            outcomes[verdict.ok] += 1
    assert outcomes[True] and outcomes[False]


def test_generator_derived_values_match_brute_oracles():
    # the stored generating sets, and everything derived from them instead
    # of from members (C(A), Z(G), C(phi(A)) in the definitional sweep), on
    # catalog(32) and a seeded relabelling of each group, against oracles
    # that walk every member; the subgroup list itself is checked against
    # the brute and pairwise-join enumerations in test_core
    rng = random.Random(11)
    outcomes = Counter()
    for entry in catalog(32):
        perm = list(range(entry.group.order))
        rng.shuffle(perm)
        relabelled = relabel([list(r) for r in entry.group.table], perm)
        for g in (entry.group, from_multiplication_table(len(relabelled), relabelled)):
            table = [list(r) for r in g.table]
            subs = all_subgroups(g)
            _, gens, cents = core._subgroup_table(g)
            assert len(gens) == len(cents) == len(subs), entry.name
            for sub, m, c in zip(subs, gens, cents):
                assert brute_closure(table, set(m)) == set(sub), (entry.name, sub.members)
                assert set(core._bits(c)) == brute_centralizer(table, set(sub)), (entry.name, sub.members)
            assert set(center(g)) == brute_center(table), entry.name
            members = [sub.members for sub in subs]
            for sub in subs:
                if not sub <= center(g):
                    continue
                q, proj = quotient(g, sub)
                witness, _ = brute_crh_verdict(table, [list(r) for r in q.table], proj.mapping, members)
                verdict = is_centralizer_respecting(proj)
                assert verdict.ok == (witness is None), (entry.name, sub.members)
                assert _witness_tuple(verdict) == witness, (entry.name, sub.members)
                outcomes[verdict.ok] += 1
    assert outcomes == Counter({True: 2 * 779 - 2 * 40, False: 2 * 40})


def _per_subgroup_sweep(h):
    """The definitional check as it was before subgroup centralizers were
    cached: C(A), phi(C(A)), phi(A) and C(phi(A)) computed afresh for every
    subgroup A.  Returns (witness tuple or None, one-sided inclusion)."""
    witness, one_sided = None, True
    for a_sub in all_subgroups(h.source):
        lhs = {h.mapping[g] for g in centralizer(h.source, a_sub)}
        rhs = set(centralizer(h.target, {h.mapping[a] for a in a_sub}))
        if witness is None and lhs != rhs:
            witness = (a_sub.members, tuple(sorted(lhs)), tuple(sorted(rhs)))
        one_sided = one_sided and lhs <= rhs
    return witness, one_sided


def test_definitional_sweep_matches_per_subgroup_sweep(sweep_records):
    assert len(sweep_records) == 779
    for r in sweep_records:
        witness, one_sided = _per_subgroup_sweep(r.projection)
        assert r.definitional.ok == (witness is None), r.group_name
        assert _witness_tuple(r.definitional) == witness, r.group_name
        assert one_sided, r.group_name


def test_center_cosets_walked_once_per_group(monkeypatch):
    # work counter: the centralizer masks, the center, the commutator walk,
    # the commutator criterion and the lattice all read Z and its least
    # coset representatives off the one centralizer table, which walks the
    # cosets of Z once; the quotient walks its kernel's cosets with the same
    # function
    g = _relabelled(semidirect_cyclic(4, 4, 3), random.Random(1))  # fresh: no cache filled
    calls = Counter()
    original = core._left_cosets

    def counting(group, members):
        calls[group is g, tuple(members)] += 1
        return original(group, members)

    monkeypatch.setattr(core, "_left_cosets", counting)
    masks = g.centralizer_masks()
    z = center(g)
    assert len(commutator_set(g)) == 2
    n = next(s for s in all_subgroups(g) if len(s) == 2 and s <= z)
    _, proj = quotient(g, n)
    crh_central_kernel_criterion(proj)
    lattice = lattice_of(g)
    assert len(z) == 4 and lattice.nodes[lattice.bottom] == z.mask and g.centralizer_masks() is masks
    assert calls == Counter({(True, z.members): 1, (True, n.members): 1})


def test_subgroup_centralizers_computed_once_per_group(monkeypatch):
    # work counter: C(A) for the source's subgroups A is computed once per
    # group, from A's stored generating set, in the pass that enumerates
    # them, and no projection recomputes it
    g = eval_group_expr(parse_group_expr("product(cyclic(4),product(cyclic(4),cyclic(4)))")).group
    calls = Counter()
    original = core._centralizer_mask

    def counting(group, mask):
        calls[group is g, mask] += 1
        return original(group, mask)

    monkeypatch.setattr(core, "_centralizer_mask", counting)
    subgroups = all_subgroups(g)
    # one call per subgroup, on a generating set of at most 3 elements
    # (243 in all) instead of its 1347 members
    _, gens, _ = core._subgroup_table(g)
    assert [closure(g, m) for m in gens] == list(subgroups)
    assert max(map(len, gens)) == 3 and sum(map(len, gens)) == 243
    assert calls == Counter((True, sum(1 << a for a in m)) for m in gens)
    projections = [quotient(g, s)[1] for s in subgroups if s <= center(g)]
    assert len(projections) == len(subgroups) == 129  # abelian: every subgroup is central
    calls.clear()
    images = Counter()
    image_mask = GroupHom.image_mask

    def counting_images(h, members):
        images[h.source is g] += 1
        return image_mask(h, members)

    monkeypatch.setattr(GroupHom, "image_mask", counting_images)
    assert all(is_centralizer_respecting(p).ok for p in projections)
    assert not calls  # the 129 sweeps reuse the table
    # every subgroup is central, so no sweep computes a phi(C(A)), and the
    # surjectivity checks read the mapping without taking an image
    assert images == Counter()


def test_quotients_are_not_revalidated(monkeypatch):
    # work counter: once the source group is built, quotienting it,
    # deciding its projections by both routes and inducing their lattice
    # maps validates no table and checks no homomorphism
    g = eval_group_expr(parse_group_expr("product(cyclic(4),product(cyclic(4),cyclic(4)))")).group
    central = [s for s in all_subgroups(g) if s <= center(g)]
    assert len(central) == 129
    calls = Counter()
    modules = [m for n, m in sys.modules.items() if n == "centlat" or n.startswith("centlat.")]
    for name in ("from_multiplication_table", "_magma_generators"):
        original = getattr(core, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        # patch every binding, so a name another module imported is counted too
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting)
    check = GroupHom.__init__

    def counting_checks(*args, **kwargs):
        calls["GroupHom.__init__"] += 1
        return check(*args, **kwargs)

    monkeypatch.setattr(GroupHom, "__init__", counting_checks)
    hom_from_map(g, g, range(g.order))  # the public door is counted
    assert calls.pop("GroupHom.__init__") == 1
    for s in central:
        q, proj = quotient(g, s)
        assert is_centralizer_respecting(proj).ok
        assert crh_central_kernel_criterion(proj).ok
        assert len(induced_map(proj).node_map) == len(lattice_of(g).nodes)
    assert calls == Counter()


class _CountingMapping(tuple):
    """A mapping that counts the scans of it; indexing is not counted."""

    scans = 0

    def __iter__(self):
        type(self).scans += 1
        return super().__iter__()


def test_projections_are_not_rescanned(monkeypatch):
    # work counter: a projection from quotient or identity_hom carries its
    # kernel, so neither crh route, the induced map nor kernel() walks its map
    g = make_family("quaternion", 16)
    subs = [closure(g, []), center(g), closure(g, [g.mul(2, 2)])]
    homs = [quotient(g, s)[1] for s in subs] + [identity_hom(g)]
    monkeypatch.setattr(_CountingMapping, "scans", 0)
    for h in homs:
        h.mapping = _CountingMapping(h.mapping)
        crh_central_kernel_criterion(h)
        if is_centralizer_respecting(h):
            induced_map(h)
        kernel(h)
    assert _CountingMapping.scans == 0
    assert is_surjective(homs[1]) and _CountingMapping.scans == 1  # the public check still scans


def test_isomorphisms_respect_centralizers(d8):
    ident = identity_hom(d8)
    assert is_centralizer_respecting(ident).ok
    assert crh_central_kernel_criterion(ident).ok


# -------------------------------------------------------------- isomorphism


def test_group_isomorphic_positive():
    a = make_family("dihedral", 8)
    b = semidirect_cyclic(4, 2, 3)  # another construction of the same group
    h = group_isomorphic(a, b)
    assert h is not None and h.is_bijective()
    hom_from_map(a, b, h.mapping)  # really is a homomorphism
    # symmetric direction works too
    assert group_isomorphic(b, a) is not None


def test_group_isomorphic_checks_every_forced_map():
    # generators a = b^2 (order 3) and b (order 6); the first candidate
    # images a -> (0,1) and b -> (1,1) force a bijection that breaks a = b^2,
    # so only the homomorphism check can reject it
    c6 = make_family("cyclic", 6)
    a = from_multiplication_table(6, c6.table, [("a", 2), ("b", 1)])
    b = direct_product(make_family("cyclic", 2), make_family("cyclic", 3))
    h = group_isomorphic(a, b)
    assert h is not None and h.is_bijective()
    hom_from_map(a, b, h.mapping)
    assert (h.mapping[2], h.mapping[1]) == (1, 5)  # the next candidate: (0,1) = (1,2)^2


def test_group_isomorphic_ignores_repeated_generators():
    # C2 whose two named generators are the same element: searching both
    # names would give them distinct images, and C2 has only one involution
    a = from_multiplication_table(2, [[0, 1], [1, 0]], [("a", 1), ("b", 1)])
    b = from_multiplication_table(2, [[1, 0], [0, 1]])  # identity at index 1
    h = group_isomorphic(a, b)
    assert h is not None and h.mapping == (1, 0)


def test_group_isomorphic_distinguishes_equal_fingerprints():
    # same order profile, centralizer profile and center size -- only the
    # backtracking search can tell these apart
    a = semidirect_cyclic(4, 4, 3)
    b = direct_product(make_family("quaternion", 8), make_family("cyclic", 2))
    assert sorted(a.element_orders()) == sorted(b.element_orders())
    assert len(center(a)) == len(center(b))
    assert group_isomorphic(a, b) is None


def test_group_isomorphic_rejects_different_censuses():
    assert group_isomorphic(make_family("dihedral", 8), make_family("quaternion", 8)) is None
    assert (
        group_isomorphic(
            semidirect_cyclic(8, 2, 5),
            direct_product(make_family("cyclic", 8), make_family("cyclic", 2)),
        )
        is None
    )


def test_group_isomorphic_is_deterministic():
    a = make_family("quaternion", 16)
    b = make_family("quaternion", 16)
    h1 = group_isomorphic(a, b)
    h2 = group_isomorphic(a, b)
    assert h1.mapping == h2.mapping


def test_group_isomorphic_walks_each_group_once(monkeypatch):
    # work counter: the fingerprint and the candidate lists read the
    # element orders of one cyclic-subgroup walk per group per call
    walk, walks = core._cyclic_subgroups, Counter()

    def counting(group):
        walks[id(group)] += 1
        return walk(group)

    monkeypatch.setattr(core, "_cyclic_subgroups", counting)
    q16 = make_family("quaternion", 16)
    cases = [
        (q16, _relabelled(q16, random.Random(19))),  # isomorphic
        (make_family("dihedral", 8), make_family("quaternion", 8)),  # fingerprints differ
        (semidirect_cyclic(4, 4, 3), direct_product(make_family("quaternion", 8), make_family("cyclic", 2))),
    ]
    for a, b in cases:
        walks.clear()
        group_isomorphic(a, b)
        assert walks == Counter({id(a): 1, id(b): 1})


def _forced_maps(a, b):
    """group_isomorphic(a, b), and how many generator images it forced into
    a full map: calls of its nested ``extend``, counted by a profile hook."""
    extend = next(c for c in group_isomorphic.__code__.co_consts if getattr(c, "co_name", None) == "extend")
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code is extend:
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        h = group_isomorphic(a, b)
    finally:
        sys.setprofile(previous)
    return h, calls


def _injective_images_up_to(a, b, h):
    """Distinct-image tuples for a's distinct named generators, each image of
    the generator's order, in ascending order up to h's (all without h)."""
    gens = list(dict.fromkeys(g for _, g in a.generator_names))
    a_orders, b_orders = a.element_orders(), b.element_orders()
    candidates = [[x for x in range(b.order) if b_orders[x] == a_orders[g]] for g in gens]
    found = None if h is None else tuple(h.mapping[g] for g in gens)
    count = 0
    for images in itertools.product(*candidates):
        if len(set(images)) == len(images):
            count += 1
            if images == found:
                break
    return count


def test_group_isomorphic_forces_only_injective_generator_images():
    # work counter: the search never forces a map from generator images
    # that repeat an element (no such map is a bijection), so it forces
    # exactly the injective image tuples up to the one that succeeds.
    # Q8's two generators share an order, so repeated images are candidates.
    rng = random.Random(1434)
    cases = [(semidirect_cyclic(4, 4, 3), direct_product(make_family("quaternion", 8), make_family("cyclic", 2)))]
    for family in ("quaternion", "dihedral"):
        g = make_family(family, 8)
        cases += [(g, _relabelled(g, rng)) for _ in range(4)]
    repeats = 0
    for a, b in cases:
        h, calls = _forced_maps(a, b)
        assert (h is None) == (a.order == 16)
        assert calls == _injective_images_up_to(a, b, h), (a, b)
        gens = list(dict.fromkeys(g for _, g in a.generator_names))
        repeats += len({a.element_orders()[g] for g in gens}) < len(gens)
    assert repeats == 5

# --------------------------------------------------------------------- JSON


def test_hom_json_round_trip(d8):
    q, proj = quotient(d8, closure(d8, [2]))
    doc = hom_to_json(proj)
    assert set(doc) == {"source", "target", "map"}
    back = hom_from_json(doc)
    assert back.mapping == proj.mapping
    assert back.source.same_table(d8) and back.target.same_table(q)


def test_hom_json_rejects_bad_payloads(d8):
    q, proj = quotient(d8, closure(d8, [2]))
    doc = hom_to_json(proj)
    broken = dict(doc)
    broken["map"] = list(doc["map"][:-1]) + [99]
    with pytest.raises((TableJsonError, NotHomomorphismError)):
        hom_from_json(broken)
    with pytest.raises(TableJsonError):
        hom_from_json({"source": doc["source"]})
    with pytest.raises(TableJsonError):  # JSON false is not index 0
        hom_from_json(dict(doc, map=[False] * 8))

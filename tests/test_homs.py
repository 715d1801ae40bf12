from __future__ import annotations

import gc
import itertools
import random
import re
import sys
import time
import weakref
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

from centlat import core, families
from centlat.homs import _injective_assignments
from centlat.verify import COMPOSABLE_PAIRS_TARGET, _projections, composable_pairs

from _oracles import (
    brute_center,
    brute_centralizer,
    brute_closure,
    brute_commutator_set,
    brute_crh_verdict,
    brute_first_commutator_in,
    brute_first_group_isomorphism,
    brute_identity,
    brute_inverse,
    brute_is_normal,
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
    assert inclusion.image_mask([1, 1, 0]) == 1 << 0 | 1 << 2  # a repeated member counts once
    assert kernel(inclusion).is_trivial()
    with pytest.raises(NotSurjectiveError) as exc:
        is_centralizer_respecting(inclusion)
    assert exc.value.missed in {1, 3}


@pytest.mark.parametrize("bad", [-1, 32, True, 1.5])
def test_image_mask_refuses_what_is_not_an_element_index(bad):
    # -1 once mapped the last element, True element 1, and the order ended
    # in a bare IndexError
    h = identity_hom(make_family("dihedral", 32))
    with pytest.raises(ValueError, match="is not an element index of a group of order 32"):
        h.image_mask([0, bad])


def test_image_mask_maps_each_member():
    # the mask of the images, one member at a time, for index lists, a
    # range and a subgroup of the source; another group's subgroup is refused
    rng = random.Random(1)
    for entry in catalog(16)[::5]:
        g = entry.group
        for s in all_subgroups(g):
            if s <= center(g):
                _, proj = quotient(g, s)
                for members in ([], [g.identity], rng.choices(range(g.order), k=5), range(g.order), s):
                    want = 0
                    for a in members:
                        want |= 1 << proj.mapping[a]
                    assert proj.image_mask(members) == want
    z4 = make_family("cyclic", 4)
    with pytest.raises(DomainMismatchError):
        identity_hom(z4).image_mask(center(make_family("dihedral", 8)))


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


def _representative_scan(g, sub):
    """The normality check before conjugation by generators came first:
    every coset representative, ascending, conjugates every member; the
    first (g, x, g^-1 x g) outside the subgroup, or None."""
    t, inverse = g.table, g.inverse
    for r in core._left_cosets(g, sub.members)[1]:
        for x in sub.members:
            conj = t[t[inverse[r]][x]][r]
            if conj not in sub:
                return r, x, conj
    return None


def test_normality_by_generators_matches_the_oracle_and_the_representative_scan():
    # differential over every subgroup of catalog(16) and of a relabelled
    # copy of each group: the verdict is the brute oracle's, and each
    # NotNormalError witness is the one the representative scan finds first.
    # The copy keeps the catalog's generators, relabelled, so they are seldom
    # the least elements: for most non-normal subgroups the first generator
    # that fails gives another witness than the scan
    rng = random.Random(3302)
    outcomes = Counter()
    for entry in catalog(16):
        g = entry.group
        perm = list(range(g.order))
        rng.shuffle(perm)
        table = relabel([list(r) for r in g.table], perm)
        hints = [(name, perm[i]) for name, i in g.generator_names]
        for g in (g, from_multiplication_table(g.order, table, hints)):
            table = [list(r) for r in g.table]
            for sub in all_subgroups(g):
                want = brute_quotient(table, set(sub.members))
                try:
                    quotient(g, sub)
                except NotNormalError as e:
                    got = (e.conjugator, e.element, e.conjugate)
                    assert want == ("not normal", *got) and got == _representative_scan(g, sub), (entry.name, sub)
                    outcomes["not normal"] += 1
                else:
                    assert want[0] != "not normal" and _representative_scan(g, sub) is None, (entry.name, sub)
                    outcomes["normal"] += 1
    assert outcomes == Counter({"normal": 2 * 295, "not normal": 218})


def _assert_quotient_fields(g, q, proj):
    """q = g/N, built without validation, has exactly the fields that
    from_multiplication_table gives its table; the generator names and
    labels, which validation only echoes, match the parent's directly."""
    again = from_multiplication_table(q.order, q.table, q.generator_names or None, q.element_labels)
    fields = ("order", "table", "identity", "inverse", "generator_names", "element_labels")
    assert [getattr(q, f) for f in fields] == [getattr(again, f) for f in fields]
    assert type(q.table) is tuple and all(type(row) is bytes for row in q.table)  # order <= 256
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
        assert q.order == 1 and q.table == (b"\x00",) and q.identity == 0 and q.inverse == (0,)
    q, _ = quotient(trivial, closure(trivial, []))
    assert q.generator_names == () and q.element_labels is None
    q, _ = quotient(d8, closure(d8, range(8)))
    assert q.generator_names == (("x", 0),) and q.element_labels == (d8.label(0),)


def _two_gather_quotient(g, sub):
    """The quotient as built before a central kernel skipped the conjugation
    test and each row became two compositions: every kernel
    is conjugated by the named generators, the first representative that
    fails gives the witness, and row a is proj[ra*rb] over the
    representatives rb, gathered twice.  Returns the fields a quotient
    carries, or ("not normal", g, x, conj)."""
    t, inverse, members = g.table, g.inverse, sub.members
    proj, reps = core._left_cosets(g, members)

    def escape(conjugators):
        for c in conjugators:
            for x in members:
                conj = t[t[inverse[c]][x]][c]
                if conj not in sub:
                    return c, x, conj
        return None

    if escape(c for _, c in g.generator_names) is not None:
        return ("not normal", *escape(reps))
    at_reps = lambda row: tuple(row[r] for r in reps)  # noqa: E731
    table = tuple(tuple(proj[x] for x in at_reps(t[ra])) for ra in reps)
    first_name = {}
    for name, x in g.generator_names:
        first_name.setdefault(proj[x], name)
    labels = None if g.element_labels is None else at_reps(g.element_labels)
    return {
        "table": table,
        "identity": proj[g.identity],
        "inverse": tuple(proj[inverse[r]] for r in reps),
        "generator_names": tuple((name, c) for c, name in first_name.items()),
        "element_labels": labels,
        "mapping": tuple(proj),
        "kernel": sub.mask,
    }


def _quotient_fields(g, sub):
    try:
        q, proj = quotient(g, sub)
    except NotNormalError as e:
        return ("not normal", e.conjugator, e.element, e.conjugate)
    return {
        "table": tuple(map(tuple, q.table)),
        "identity": q.identity,
        "inverse": q.inverse,
        "generator_names": q.generator_names,
        "element_labels": q.element_labels,
        "mapping": proj.mapping,
        "kernel": kernel(proj).mask,
    }


def test_quotient_matches_the_two_gather_formula():
    # differential: every subgroup of a seeded relabelling of catalog(64),
    # with the catalog's generator names and labels carried over, and normal
    # and non-normal subgroups of two groups of order above 256, whose rows
    # are tuples; central kernels, which now skip the conjugation test,
    # other normal kernels and non-normal subgroups each give the fields, or
    # the NotNormalError witness, of the parent's formula
    rng = random.Random(4601)
    outcomes = Counter()

    def compare(g, subgroups):
        z = core._center_mask(g)
        for sub in subgroups:
            want = _two_gather_quotient(g, sub)
            assert _quotient_fields(g, sub) == want, (g, sub)
            kind = "not normal" if isinstance(want, tuple) else "normal" if sub.mask & ~z else "central"
            outcomes[g.order > 256, kind] += 1

    for entry in catalog(64):
        g = entry.group
        perm = list(range(g.order))
        rng.shuffle(perm)
        moved = [0] * g.order
        for a, b in enumerate(perm):
            moved[b] = a
        hints = [(name, perm[i]) for name, i in g.generator_names]
        labels = [g.label(moved[b]) for b in range(g.order)]
        copy = from_multiplication_table(g.order, relabel([list(r) for r in g.table], perm), hints, labels)
        compare(copy, all_subgroups(copy))
    dihedral = make_family("dihedral", 300, cap=512)
    x, y = (i for _, i in dihedral.generator_names)
    seeds = [[dihedral.power(x, k)] for k in (1, 2, 3, 5, 6, 10, 15, 25, 30, 50, 75, 150)]
    seeds += [[y], [dihedral.power(x, 3), y], [dihedral.power(x, 2), y]]  # two of them not normal
    product = direct_product(make_family("cyclic", 17), make_family("cyclic", 16), cap=512)
    big = [(dihedral, seeds), (product, [[a] for a in (0, 1, 16, 17, 34, 255)])]
    for g, gens in big:
        assert type(g.table[0]) is tuple
        compare(g, [closure(g, s) for s in gens])
    assert outcomes == Counter(
        {
            (False, "central"): 2724,
            (False, "normal"): 1158,
            (False, "not normal"): 3465,
            (True, "central"): 8,
            (True, "normal"): 11,
            (True, "not normal"): 2,
        }
    )


def test_a_quotient_of_a_fresh_group_leaves_its_centralizer_table_unfilled():
    # Z(G) is read only off a centralizer table that is filled already:
    # filling one walks (n/|Z|)^2 pairs, more than conjugating N by the
    # generator names costs; a central, a non-central normal and a
    # non-normal subgroup each give the same quotient, or witness, before
    # the table is filled and after
    for g in (make_family("dihedral", 256), make_family("quaternion", 256)):
        x, y = (i for _, i in g.generator_names)
        kernels = [closure(g, [g.power(x, 64)]), closure(g, [x]), closure(g, [y])]
        assert g._centralizers is None
        fresh = [_quotient_fields(g, k) for k in kernels]
        assert g._centralizers is None
        z = center(g)
        assert [k <= z for k in kernels] == [True, False, False]
        assert [_quotient_fields(g, k) for k in kernels] == fresh
        assert [isinstance(f, tuple) for f in fresh] == [False, False, True]  # the last is a witness


def test_a_quotient_does_not_keep_its_source_alive():
    # the quotient's labels are read off the source's when it is built, so
    # once the projection is gone nothing refers to the source: a weak
    # reference to a product of order 256 dies with it
    g = direct_product(make_family("dihedral", 16), make_family("cyclic", 16))
    labels = [g.label(a) for a in range(g.order)]
    source = weakref.ref(g)
    q, proj = quotient(g, center(g))
    least = [proj.mapping.index(c) for c in range(q.order)]  # each coset's least element
    del g, proj
    gc.collect()
    assert source() is None
    assert q.order == 8 and q.element_labels == tuple(labels[a] for a in least)


def test_quotienting_a_fresh_family_group_formats_none_of_its_labels(monkeypatch):
    # work counter: a quotient picks its labels off its source's only when
    # its own are first read, so quotienting each group of a fresh
    # catalog(64) by its center formats no label, where reading the
    # source's labels at once formatted those of 322 of the 373; once read,
    # each coset is labelled by its least element, as before
    calls = Counter()
    pair_label, label = families._pair_label, core.FiniteGroup.label

    def counting_pair_label(i, j):
        calls["_pair_label"] += 1
        return pair_label(i, j)

    def counting_label(g, a):
        calls["label"] += 1
        return label(g, a)

    monkeypatch.setattr(families, "_pair_label", counting_pair_label)
    monkeypatch.setattr(core.FiniteGroup, "label", counting_label)
    entries = families._catalog.__wrapped__(64)  # uncached: nothing has read a label
    quotients = [quotient(entry.group, center(entry.group)) for entry in entries]
    assert len(quotients) == 373 and calls == Counter()
    monkeypatch.undo()
    for entry, (q, proj) in zip(entries, quotients):
        least = [proj.mapping.index(c) for c in range(q.order)]
        assert q.element_labels == tuple(entry.group.label(a) for a in least), entry.name
    # a source whose label function gives None gives a quotient without labels
    d8 = make_family("dihedral", 8)
    q, _ = quotient(core.FiniteGroup(d8.table, d8.generator_names, lambda: None), center(d8))
    assert q.order == 4 and q.element_labels is None


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
    expression over the least element of each coset; a bytes row each, as
    every quotient here has order <= 256."""
    t, reps, seen = g.table, [], set()
    for x, c in enumerate(proj):
        if c not in seen:
            seen.add(c)
            reps.append(x)
    return tuple(bytes(proj[t[ra][rb]] for rb in reps) for ra in reps)


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
    assert (trivial.table, trivial.identity, trivial.inverse) == ((b"\x00",), 0, (0,))
    c3 = make_family("cyclic", 3)
    assert closure(c3, [2]).members == (0, 1, 2)
    q, proj = quotient(c3, closure(c3, [1]))
    assert q.table == (b"\x00",) and proj.mapping == (0, 0, 0)
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
    # over the whole sweep the walk stops at the target exactly, and every
    # second leg passes the definitional check as well as the criterion
    pairs = composable_pairs(sweep_records)
    assert len(pairs) == COMPOSABLE_PAIRS_TARGET
    assert all(is_centralizer_respecting(proj2) for _, _, proj2 in pairs)


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


class _Walks(tuple):
    """A column of a table that counts the walks over it."""

    walks = 0

    def __iter__(self):
        self.walks += 1
        return super().__iter__()


def test_the_sweep_walks_no_subgroup_of_an_abelian_source():
    # work counter: every subgroup of an abelian group is central, so the
    # definitional sweep of its projections walks none of its subgroup
    # table; the table of a non-abelian source is walked once a projection
    cyclic = make_family("cyclic", 4), make_family("cyclic", 8)
    for g, abelian in ((direct_product(*cyclic), True), (make_family("dihedral", 16), False)):
        subs, gens, cents = core._subgroup_table(g)
        g._subgroups = (subs, gens, _Walks(cents))
        z, swept = center(g), 0
        for sub in all_subgroups(g):
            if sub <= z:
                assert is_centralizer_respecting(quotient(g, sub)[1]).ok is (abelian or len(sub) == 1)
                swept += 1
        assert g._subgroups[2].walks == (0 if abelian else swept) and swept == (len(subs) if abelian else 2)


def test_an_abelian_source_is_decided_before_its_subgroups_are_enumerated():
    # work counter: Z(G) = G decides the sweep of an abelian source, so its
    # subgroup table stays unfilled, even for C2^8 with its 417,199
    # subgroups; a non-abelian source still fills it
    c2 = "product(cyclic(2),cyclic(2))"
    c2_8 = f"product(product({c2},{c2}),product({c2},{c2}))"
    for text, abelian in (
        (f"quotient({c2_8},[l.l.l.x])", True),
        ("quotient(product(cyclic(4),cyclic(8)),[l.x^2])", True),
        ("quotient(dihedral(16),[x^4])", False),
    ):
        proj = eval_group_expr(parse_group_expr(text)).projection
        assert proj.source._subgroups is None
        assert is_centralizer_respecting(proj).ok is abelian
        assert (proj.source._subgroups is None) is abelian, text

def functor_on_normal_kernels(max_order: int) -> Counter:
    """Run the kernel sweep over every normal subgroup of every group of
    catalog(max_order), normality read off the oracle, and check the
    paper's functor on each crh projection: its induced map is a lattice
    homomorphism keeping top and bottom, and a bijection exactly when the
    kernel is central.  For n in N outside Z(G), C(n) != G, yet both go to
    the top, phi(C(n)) = C(1) = Q = phi(G).  Returns the counts."""
    counts = Counter()
    for name, g in catalog(max_order):
        gens, z = [x for _, x in g.generator_names], center(g)
        normal = [sub for sub in all_subgroups(g) if brute_is_normal(g.table, gens, set(sub.members))]
        for r in _projections(name, g, normal):
            central = r.kernel <= z
            assert (r.criterion is not None) == central, (name, r.kernel)
            counts["projections"] += 1
            counts["non-central"] += not central
            if not r.definitional:
                continue
            ind = induced_map(r.projection)
            verdict = is_lattice_hom(ind)
            assert verdict and verdict.preserves_top and verdict.preserves_bottom, (name, r.kernel)
            assert ind.is_bijective() == central, (name, r.kernel)
            counts["crh"] += 1
            if not central:
                n = min(set(r.kernel.members) - set(z.members))
                c_n = ind.source.index_of_mask[centralizer(g, [n]).mask]
                assert c_n != ind.source.top and ind.node_map[c_n] == ind.node_map[ind.source.top], (name, n)
                counts["non-central crh"] += 1
    return counts


def test_the_functor_on_every_normal_kernel_of_catalog_128():
    # the first check of induced_map on crh maps whose kernel is not
    # central; budget 60 s, about 3 s on a 2-vCPU Xeon VM (Python 3.11)
    t0 = time.perf_counter()
    counts = functor_on_normal_kernels(128)
    elapsed = time.perf_counter() - t0
    assert counts == {"projections": 13533, "crh": 9886, "non-central": 4379, "non-central crh": 1198}
    assert elapsed < 60, f"took {elapsed:.1f} s, budget 60 s"


def test_mask_images_match_member_images():
    # differential against images taken member by member: every central
    # quotient of catalog(32) and of a relabelled copy of each group maps
    # each centralizer-lattice node, walked as a mask, to the image that
    # image_mask gives its member list, and each crh one induces the node
    # map those images name
    rng = random.Random(3301)
    counts = Counter()
    for entry in catalog(32):
        for g in (entry.group, _relabelled(entry.group, rng)):
            nodes = lattice_of(g).nodes
            for sub in all_subgroups(g):
                if not sub <= center(g):
                    continue
                q, proj = quotient(g, sub)
                images = []
                for node in nodes:
                    members = core._bits(node)
                    want = sum({1 << proj.mapping[a] for a in members})
                    assert proj._image_of_mask(node) == proj.image_mask(members) == want, (entry.name, sub)
                    images.append(want)
                counts["nodes"] += len(nodes)
                if is_centralizer_respecting(proj):
                    index = lattice_of(q).index_of_mask
                    assert induced_map(proj).node_map == tuple(index[m] for m in images), (entry.name, sub)
                    counts["crh"] += 1
    assert counts == Counter(crh=2 * (779 - 40), nodes=3288)


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


class _RowReads(tuple):
    """A table that counts the rows read from it, by index or by iteration."""

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)

    def __iter__(self):
        self.reads += len(self)
        return super().__iter__()


def test_commutator_walk_fills_the_centralizer_table():
    # work counter: once the centralizer table is filled, the commutator set
    # and the criterion on every central projection read no row of the
    # table; the commutators come from the same walk as the centralizers
    s4 = from_multiplication_table(24, symmetric_group_table(4))
    g = _relabelled(semidirect_cyclic(4, 4, 3), random.Random(35))
    assert len(center(s4)) == 1 and len(center(g)) == 4
    for group in (s4, g):
        table = [list(r) for r in group.table]
        projections = [quotient(group, s)[1] for s in all_subgroups(group) if s <= center(group)]
        group.centralizer_masks()
        group.table = _RowReads(group.table)
        group.table.reads = 0
        assert commutator_set(group) == brute_commutator_set(table)
        verdicts = [crh_central_kernel_criterion(p) for p in projections]
        assert group.table.reads == 0
        expected = [brute_first_commutator_in(table, set(kernel(p))) for p in projections]
        assert [(v.ok, v.witness_pair, v.witness_commutator) for v in verdicts] == [
            (True, None, None) if w is None else (False, w[:2], w[2]) for w in expected
        ]
        assert len(projections) == (1 if group is s4 else 5)
        assert any(expected) is (group is g)  # only g has a kernel that meets a commutator


def test_a_central_kernel_is_not_conjugated():
    # work counter: once the centralizer table is filled, a quotient by a
    # nontrivial kernel inside the center reads two rows of the table per
    # coset, one in the coset walk and one composed into a quotient row;
    # any other normal kernel is conjugated by the generator names as well
    g = _relabelled(semidirect_cyclic(4, 4, 3), random.Random(4603))
    subgroups, z = all_subgroups(g), center(g)
    g.table = _RowReads(g.table)
    counts = Counter()
    for sub in subgroups[1:]:
        g.table.reads = 0
        try:
            q, _ = quotient(g, sub)
        except NotNormalError:
            continue
        central = sub <= z
        assert (g.table.reads == 2 * q.order) is central, sub
        counts[central] += 1
    assert counts == Counter({True: 4, False: 6})


def _walked_centralizer_table(group):
    """The centralizer table by the commutator walk over the center-coset
    representatives, taken for every group: the reference for the tables
    read off commuting generators."""
    t, inverse, e, z = group.table, group.inverse, group.identity, group.full_mask
    for _, g in group.generator_names:
        tg, m = t[g], 0
        for x, tx in enumerate(t):
            if tx[g] == tg[x]:
                m |= 1 << x
        z &= m
    zs = core._bits(z)
    coset, reps = core._left_cosets(group, zs)
    coset_of = core._gather(zs)
    columns = [(b, inverse[b], sum(map((1).__lshift__, coset_of(t[b])))) for b in reps]
    rows, first = [], {}
    for a in reps:
        row_ia, m = t[inverse[a]], 0
        for b, ib, bz in columns:
            c = t[t[row_ia[ib]][a]][b]
            if c == e:
                m |= bz
            if c not in first:
                first[c] = (a, b)
        rows.append(m)
    return tuple(rows[c] for c in coset), z, first


def test_abelian_centralizer_tables_are_read_off_the_generators():
    # differential against the walk on catalog(64), a relabelled copy of each
    # group and every central quotient; and a work counter: when the named
    # generators commute, the table takes at most 2 |gens|^2 row reads, where
    # the walk reads |gens| n rows for the center alone
    rng = random.Random(3601)
    groups = []
    for entry in catalog(64):
        g = entry.group
        groups += [g, _relabelled(g, rng)] + [quotient(g, s)[0] for s in all_subgroups(g) if s <= center(g)]
    counts = Counter()
    for g in groups:
        fresh = core.FiniteGroup(g.table, g.generator_names)  # no cache
        want = _walked_centralizer_table(fresh)
        fresh.table = _RowReads(fresh.table)
        fresh.table.reads = 0
        got = core._centralizer_table(fresh)
        assert (got[0], got[1], list(got[2].items())) == (want[0], want[1], list(want[2].items()))
        if got[1] == fresh.full_mask:
            assert fresh.table.reads <= 2 * len(fresh.generator_names) ** 2
            counts["abelian"] += 1
        counts["groups"] += 1
    assert counts == Counter(groups=2 * 373 + 2724, abelian=2656)


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
    image_mask, image_of_mask = GroupHom.image_mask, GroupHom._image_of_mask

    def counting_images(h, members):
        images[h.source is g] += 1
        return image_mask(h, members)

    def counting_mask_images(h, mask):
        images[h.source is g] += 1
        return image_of_mask(h, mask)

    monkeypatch.setattr(GroupHom, "image_mask", counting_images)
    monkeypatch.setattr(GroupHom, "_image_of_mask", counting_mask_images)
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


def test_injective_assignments_walk_the_injective_product_in_order():
    # the shared search against its definition: the tuples of
    # itertools.product that repeat no entry and whose every pick fits the
    # picks before it, in product order; no lists give the one empty tuple
    rng = random.Random(4242)

    def fits(prefix, x):
        return (sum(prefix) + x) % 3 != 1

    for _ in range(300):
        lists = [rng.sample(range(6), rng.randint(0, 4)) for _ in range(rng.randint(0, 4))]
        injective = [t for t in itertools.product(*lists) if len(set(t)) == len(t)]
        assert list(_injective_assignments(lists)) == injective, lists
        fitting = [t for t in injective if all(fits(list(t[:k]), t[k]) for k in range(len(t)))]
        assert list(_injective_assignments(lists, fits)) == fitting, lists
    assert list(_injective_assignments([])) == [()]


def test_group_isomorphic_matches_brute_oracle():
    # differential: every ordered pair of distinct tables of one order among
    # catalog(24) and a seeded relabelled copy of each group (2234 pairs)
    # returns the oracle's first isomorphism, the one whose generator images
    # come first in ascending product order; about 1.5 s on a 2-vCPU
    # container, budget 10 s
    rng = random.Random(4224)
    groups = [entry.group for entry in catalog(24)]
    groups += [_relabelled(g, rng) for g in groups]
    t, pairs, found = time.perf_counter(), 0, 0
    for a in groups:
        for b in groups:
            if a.order != b.order or a.same_table(b):
                continue  # the identity shortcut answers a table against itself
            h = group_isomorphic(a, b)
            expected = brute_first_group_isomorphism(
                [list(r) for r in a.table], [g for _, g in a.generator_names], [list(r) for r in b.table]
            )
            assert (h.mapping if h else None) == expected, (a, b)
            pairs, found = pairs + 1, found + (h is not None)
    assert pairs == 2234 and 0 < found < pairs
    assert time.perf_counter() - t < 10.0


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


if __name__ == "__main__":  # python tests/test_homs.py ORDER: the functor check at a larger order
    t0 = time.perf_counter()
    found = functor_on_normal_kernels(int(sys.argv[1]))
    print(dict(found), f"in {time.perf_counter() - t0:.1f} s")

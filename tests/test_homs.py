from __future__ import annotations

import random
from collections import Counter

import pytest

from centlat import (
    all_subgroups,
    catalog,
    center,
    centralizer,
    closure,
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
    image,
    is_central,
    is_centralizer_respecting,
    is_surjective,
    kernel,
    make_family,
    one_sided_inclusion_holds,
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

from centlat import core, homs

from _oracles import brute_crh_verdict, brute_first_commutator_in, relabel


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


def test_identity_and_compose(d8):
    ident = identity_hom(d8)
    assert ident.is_bijective()
    q, proj = quotient(d8, closure(d8, [2]))
    both = compose(proj, ident)
    assert both.mapping == proj.mapping
    z2 = make_family("cyclic", 2)
    with pytest.raises(DomainMismatchError):
        compose(hom_from_map(z2, z2, [0, 1]), proj)


def test_image_and_kernel(d8):
    z4 = make_family("cyclic", 4)
    z2 = make_family("cyclic", 2)
    inclusion = hom_from_map(z2, z4, [0, 2])
    assert not is_surjective(inclusion)
    assert set(image(inclusion)) == {0, 2}
    assert kernel(inclusion).is_trivial()
    with pytest.raises(NotSurjectiveError) as exc:
        is_centralizer_respecting(inclusion)
    assert exc.value.missed in {1, 3}


# ------------------------------------------------------------------ quotient


def test_quotient_by_center_of_dihedral(d8):
    q, proj = quotient(d8, closure(d8, [2]))
    assert q.order == 4
    assert q.is_abelian()
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
    assert criterion.kernel == (0, 10)
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

    # ... while the universal one-sided inclusion still holds
    assert one_sided_inclusion_holds(proj)


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
        table = [list(row) for row in r.group.table]
        expected = brute_first_commutator_in(table, set(r.kernel.members))
        got = (*r.criterion.witness_pair, r.criterion.witness_commutator)
        assert got == expected, r.group_name


def test_crh_cap_holds_on_cached_verdict():
    d16 = make_family("dihedral", 16)
    q, proj = quotient(d16, center(d16))
    assert not is_centralizer_respecting(proj).ok  # now cached on proj
    with pytest.raises(OrderCapExceededError):
        is_centralizer_respecting(proj, cap=8)
    with pytest.raises(OrderCapExceededError):
        one_sided_inclusion_holds(proj, cap=8)
    # a fresh projection has no cached verdict, but d16 has cached subgroup
    # centralizers; the cap holds on that path too
    _, fresh = quotient(d16, closure(d16, []))
    with pytest.raises(OrderCapExceededError):
        is_centralizer_respecting(fresh, cap=8)
    with pytest.raises(OrderCapExceededError):
        one_sided_inclusion_holds(fresh, cap=8)
    with pytest.raises(OrderCapExceededError):
        core._subgroup_centralizer_masks(d16, cap=8)


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
            if not is_central(g, sub):
                continue
            q, proj = quotient(g, sub)
            witness, one_sided = brute_crh_verdict(table, [list(r) for r in q.table], proj.mapping)
            verdict = is_centralizer_respecting(proj)
            assert verdict.ok == (witness is None), (entry.name, sub.members)
            assert _witness_tuple(verdict) == witness, (entry.name, sub.members)
            assert one_sided_inclusion_holds(proj) == one_sided, (entry.name, sub.members)
            outcomes[verdict.ok] += 1
    assert outcomes[True] and outcomes[False]


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
        assert one_sided_inclusion_holds(r.projection) == one_sided, r.group_name


def test_subgroup_centralizers_computed_once_per_group(monkeypatch):
    # work counter: C(A) for the source's subgroups A must not be recomputed
    # for every projection of the same group
    g = eval_group_expr(parse_group_expr("product(cyclic(4),product(cyclic(4),cyclic(4)))")).group
    subgroups = all_subgroups(g)
    projections = [quotient(g, s)[1] for s in subgroups if is_central(g, s)]
    assert len(projections) == len(subgroups) == 129  # abelian: every subgroup is central
    calls = Counter()
    original = core._centralizer_mask

    def counting(group, mask):
        if group is g:
            calls[mask] += 1
        return original(group, mask)

    monkeypatch.setattr(core, "_centralizer_mask", counting)
    monkeypatch.setattr(homs, "_centralizer_mask", counting)
    assert all(is_centralizer_respecting(p).ok for p in projections)
    assert all(one_sided_inclusion_holds(p) for p in projections)
    assert calls == Counter(s.mask for s in subgroups)


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
    assert (h.apply(2), h.apply(1)) == (1, 5)  # the next candidate: (0,1) = (1,2)^2


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

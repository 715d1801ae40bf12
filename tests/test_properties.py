"""Law-level checks: the identities the rest of the package leans on,
exercised exhaustively on small groups and at random on larger ones."""

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
    crh_central_kernel_criterion,
    is_centralizer_respecting,
    quotient,
)
from centlat.errors import KernelNotCentralError, NotNormalError
from centlat.homs import _crh_routes
from centlat.lattice import induced_map, is_lattice_hom
from centlat.errors import NotCrhError

from _oracles import brute_crh_verdict

SEED = 20260817


def law_antitone(g, xs, ys):
    # X within Y forces C(Y) within C(X)
    assert set(xs) <= set(ys)
    cx, cy = centralizer(g, xs), centralizer(g, ys)
    assert cy <= cx


def law_triple(g, xs):
    # C(C(C(X))) = C(X)
    cx = centralizer(g, xs)
    ccx = centralizer(g, cx)
    assert centralizer(g, ccx) == cx


def law_double_extensive(g, xs):
    # X lies inside C(C(X))
    ccx = centralizer(g, centralizer(g, xs))
    assert set(xs) <= set(ccx)


def law_union(g, xs, ys):
    # C(X u Y) = C(X) n C(Y)
    both = centralizer(g, list(xs) + list(ys))
    assert both == (centralizer(g, xs) & centralizer(g, ys))


def law_closure_invariant(g, xs):
    # C(<X>) = C(X)
    assert centralizer(g, closure(g, xs)) == centralizer(g, xs)


def law_center_below(g, xs):
    assert center(g) <= centralizer(g, xs)


@pytest.fixture(scope="module")
def small_groups():
    return [e.group for e in catalog(16)]


@pytest.fixture(scope="module")
def medium_groups():
    return [e.group for e in catalog(64) if e.group.order <= 64]


def test_laws_on_all_subgroup_pairs_of_small_groups(small_groups):
    pairs = 0
    for g in small_groups:
        subs = all_subgroups(g)
        for a in subs:
            law_triple(g, a)
            law_double_extensive(g, a)
            law_closure_invariant(g, a)
            law_center_below(g, a)
            for b in subs:
                law_union(g, a, b)
                if a <= b:
                    law_antitone(g, a, b)
                pairs += 1
    assert pairs >= 2000  # the battery really ran at scale


def test_laws_on_random_subsets_of_medium_groups(medium_groups):
    rng = random.Random(SEED)
    checked = 0
    while checked < 1000:
        g = rng.choice(medium_groups)
        n = g.order
        ys = rng.sample(range(n), rng.randint(0, n))
        xs = [a for a in ys if rng.random() < 0.5]
        law_antitone(g, xs, ys)
        law_triple(g, xs)
        law_double_extensive(g, xs)
        law_union(g, xs, ys)
        law_closure_invariant(g, xs)
        law_center_below(g, xs)
        checked += 1
    assert checked == 1000


def test_centralizer_of_whole_group_is_center(small_groups):
    for g in small_groups:
        assert centralizer(g, range(g.order)) == center(g)


def _normal_subgroups(g):
    out = []
    for h in all_subgroups(g):
        try:
            out.append((h, quotient(g, h)))
        except NotNormalError:
            continue
    return out


def test_definitional_sweep_matches_oracle_on_every_normal_kernel(small_groups):
    # every quotient of catalog(16), central kernel or not, against an
    # oracle sharing no code with the package; phi(C(A)) within C(phi(A))
    # holds for EVERY surjection, centralizer respecting or not, so a
    # failing witness shows strict containment.  The record of every route,
    # run on a fresh projection, holds the same verdict, the criterion
    # exactly on a central kernel, and the criterion's refusal otherwise
    outcomes = Counter()
    for g in small_groups[:40]:
        table = [list(r) for r in g.table]
        for h, (q, proj) in _normal_subgroups(g):
            witness, one_sided = brute_crh_verdict(table, [list(r) for r in q.table], proj.mapping)
            verdict = is_centralizer_respecting(proj)
            assert (None if verdict.ok else tuple(verdict.witness)) == witness, h.members
            assert one_sided, h.members
            if not verdict.ok:
                w = verdict.witness
                assert set(w.image_of_centralizer) < set(w.centralizer_of_image), h.members
            routes = _crh_routes(quotient(g, h)[1])
            try:
                criterion, reason = crh_central_kernel_criterion(proj), None
            except KernelNotCentralError as e:
                criterion, reason = None, str(e)
            assert routes.definitional == verdict, h.members
            assert (routes.criterion is None) is not (h <= center(g)), h.members
            assert (routes.criterion, routes.reason) == (criterion, reason), h.members
            assert routes.agree, h.members
            outcomes[h <= center(g), verdict.ok] += 1
    # (central kernel, crh): 234 projections, 34 with non-central kernels
    assert outcomes == Counter({(True, True): 195, (True, False): 5, (False, True): 11, (False, False): 23})


def test_dual_routes_agree_on_central_kernels(small_groups):
    # on every central-kernel quotient the definitional sweep and the
    # commutator criterion must return the same verdict
    agreements = disagreements = 0
    for g in small_groups:
        for h in all_subgroups(g):
            if not h <= center(g):
                continue
            q, proj = quotient(g, h)
            definitional = is_centralizer_respecting(proj)
            criterion = crh_central_kernel_criterion(proj)
            if definitional.ok == criterion.ok:
                agreements += 1
            else:
                disagreements += 1
    assert disagreements == 0
    assert agreements >= 200


def test_crh_projections_induce_bijective_lattice_homs(small_groups):
    # the central-kernel equivalence at work: when both routes say yes the
    # induced node map is a bijective lattice homomorphism; when they say
    # no, building the induced map must fail with the definitional witness
    bijective = refused = 0
    for g in small_groups:
        for h in all_subgroups(g):
            if not h <= center(g):
                continue
            q, proj = quotient(g, h)
            if is_centralizer_respecting(proj).ok:
                m = induced_map(proj)
                assert m.is_bijective()
                assert is_lattice_hom(m).ok
                bijective += 1
            else:
                with pytest.raises(NotCrhError):
                    induced_map(proj)
                refused += 1
    assert bijective >= 200 and refused >= 2

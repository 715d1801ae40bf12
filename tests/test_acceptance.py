"""Acceptance gate: ten numbered criteria, one test each.

Every test times its own work against the stated budget and prints a
single ``[PASS] acceptance N: ...`` line on success (visible with
``pytest -s``; the per-test PASSED/FAILED line carries the verdict
either way).
"""

from __future__ import annotations

import random
import time

import pytest

from centlat import (
    all_subgroups,
    catalog,
    center,
    centralizer,
    closure,
    crh_central_kernel_criterion,
    direct_product,
    group_isomorphic,
    identity_hom,
    is_centralizer_respecting,
    make_family,
    quotient,
    semidirect_cyclic,
)
from centlat.core import _bits
from centlat.lattice import (
    induced_map,
    is_lattice_hom,
    lattice_of,
    lattices_isomorphic,
)
from centlat.verify import (
    central_quotient_sweep,
    composable_pairs,
    family_lattice_report,
    functor_law_report,
    worked_example_report,
)

from _oracles import brute_all_subgroups, brute_crh_verdict


def _announce(number: int, message: str, elapsed: float, budget: float | None) -> None:
    if budget is not None:
        assert elapsed < budget, f"criterion {number} took {elapsed:.2f}s, budget {budget}s"
        timing = f" ({elapsed:.2f}s < {budget:g}s)"
    else:
        timing = f" ({elapsed:.2f}s)"
    print(f"[PASS] acceptance {number}: {message}{timing}", flush=True)


def test_acceptance_1_worked_example():
    t0 = time.perf_counter()
    g = semidirect_cyclic(4, 4, 3)
    lat = lattice_of(g)
    assert sorted(lat.node_orders(), reverse=True) == [16, 8, 8, 8, 4]
    assert len(lat.nodes) == 5

    k = closure(g, [g.mul(g.power(1, 2), g.power(4, 2))])  # x^2 * y^2
    assert len(k) == 2 and k <= center(g)
    q, proj = quotient(g, k)
    assert q.order == 8
    assert group_isomorphic(q, make_family("quaternion", 8)) is not None
    assert len(lattice_of(q).nodes) == 5

    assert is_centralizer_respecting(proj).ok
    assert crh_central_kernel_criterion(proj).ok
    m = induced_map(proj)
    assert m.is_bijective() and is_lattice_hom(m).ok

    report = worked_example_report()
    assert report["pass"] and all(c["pass"] for c in report["cases"])
    _announce(
        1,
        "worked example reproduced exactly (5-node lattice, Q8 quotient, both crh routes)",
        time.perf_counter() - t0,
        1.0,
    )


def test_acceptance_2_family_lattices_via_both_routes():
    t0 = time.perf_counter()
    # direct route, stated explicitly
    assert (
        lattices_isomorphic(
            lattice_of(make_family("dihedral", 8)), lattice_of(make_family("quaternion", 8))
        )
        is not None
    )
    for n in (4, 5, 6):
        order = 1 << n
        lats = [
            lattice_of(make_family(kind, order))
            for kind in ("dihedral", "quaternion", "semidihedral")
        ]
        for i in range(3):
            for j in range(i + 1, 3):
                assert lattices_isomorphic(lats[i], lats[j]) is not None
    # cover route plus the packaged report (covers, crh criteria, bridges)
    for n in (3, 4, 5, 6):
        report = family_lattice_report(n)
        assert report["pass"], [c for c in report["cases"] if not c["pass"]]
    _announce(
        2,
        "maximal-class lattice isomorphisms established directly and via covers (n=3..6)",
        time.perf_counter() - t0,
        30.0,
    )


def test_acceptance_3_dual_route_sweep():
    t0 = time.perf_counter()
    records = central_quotient_sweep()  # first consumer: timed cold here
    disagreements = [
        r for r in records if r.definitional.ok != r.criterion.ok
    ]
    assert disagreements == []
    assert len(records) == 779
    crh_count = sum(1 for r in records if r.definitional.ok)
    assert crh_count == 739
    # the sweep covered every catalog group and every central subgroup
    assert {r.group_name for r in records} == {e.name for e in catalog(32)}
    for entry in catalog(32):
        centrals = [h for h in all_subgroups(entry.group) if h <= center(entry.group)]
        assert sum(1 for r in records if r.group_name == entry.name) == len(centrals)
    _announce(
        3,
        f"definitional and commutator-criterion verdicts agree on all {len(records)} "
        "central quotients across the order<=32 catalog",
        time.perf_counter() - t0,
        300.0,
    )


def test_acceptance_4_functor_laws(sweep_records):
    t0 = time.perf_counter()
    # identity law on every catalog group
    for entry in catalog(32):
        lat = lattice_of(entry.group)
        ident = induced_map(identity_hom(entry.group))
        assert ident.node_map == tuple(range(len(lat.nodes)))
    # every crh projection from criterion 3 induces a lattice homomorphism
    checked = 0
    for record in sweep_records:
        if record.definitional.ok:
            m = induced_map(record.projection)
            assert is_lattice_hom(m).ok
            checked += 1
    assert checked == 739
    # composition law on chained central quotients
    pairs = composable_pairs(sweep_records)
    assert len(pairs) >= 25
    from centlat.lattice import verify_functoriality

    for record, _sub, second in pairs:
        assert verify_functoriality(record.projection, second).ok
    report = functor_law_report()
    assert report["pass"]
    _announce(
        4,
        f"functor laws hold: identity on 136 lattices, {checked} induced lattice "
        f"homomorphisms, composition on {len(pairs)} chained pairs",
        time.perf_counter() - t0,
        120.0,
    )


def test_acceptance_5_centralizer_laws():
    t0 = time.perf_counter()
    subgroup_pairs = 0
    for entry in catalog(16):
        g = entry.group
        subs = all_subgroups(g)
        for a in subs:
            ca = centralizer(g, a)
            assert centralizer(g, centralizer(g, ca)) == ca  # triple law
            for b in subs:
                cb = centralizer(g, b)
                if a <= b:
                    assert cb <= ca  # antitone
                both = centralizer(g, list(a) + list(b))
                assert both == (ca & cb)  # intersection law
                subgroup_pairs += 1
    assert subgroup_pairs >= 2000

    rng = random.Random(20260817)
    groups = [e.group for e in catalog(64)]
    for _ in range(1000):
        g = rng.choice(groups)
        ys = rng.sample(range(g.order), rng.randint(0, g.order))
        xs = [a for a in ys if rng.random() < 0.5]
        cx, cy = centralizer(g, xs), centralizer(g, ys)
        assert cy <= cx
        assert centralizer(g, centralizer(g, cx)) == cx
        assert centralizer(g, list(xs) + list(ys)) == (cx & cy)
    _announce(
        5,
        f"antitone, triple-centralizer and intersection laws hold on {subgroup_pairs} "
        "subgroup pairs (order<=16) and 1000 random subset pairs (order<=64)",
        time.perf_counter() - t0,
        120.0,
    )


def test_acceptance_6_negative_control():
    t0 = time.perf_counter()
    d8 = make_family("dihedral", 8)
    rotation_square = d8.power(1, 2)  # r^2, the nontrivial commutator
    q, proj = quotient(d8, closure(d8, [rotation_square]))

    definitional = is_centralizer_respecting(proj)
    assert not definitional.ok and definitional.witness is not None
    w = definitional.witness
    img = {proj.mapping[a] for a in centralizer(d8, w.subgroup)}
    assert img == set(w.image_of_centralizer)
    assert set(w.image_of_centralizer) < set(w.centralizer_of_image)

    criterion = crh_central_kernel_criterion(proj)
    assert not criterion.ok
    assert criterion.witness_commutator == rotation_square

    _, one_sided = brute_crh_verdict([list(r) for r in d8.table], [list(r) for r in q.table], proj.mapping)
    assert one_sided
    _announce(
        6,
        "quotient of dihedral(8) by its derived subgroup fails both crh routes with "
        "witnesses while the one-sided inclusion holds",
        time.perf_counter() - t0,
        None,
    )


def test_acceptance_7_subgroup_enumeration_oracle():
    t0 = time.perf_counter()
    checked = 0
    for entry in catalog(16):
        g = entry.group
        expected = brute_all_subgroups([list(row) for row in g.table])
        got = {frozenset(h) for h in all_subgroups(g)}
        assert got == expected, entry.name
        checked += 1
    counts = {
        "quaternion(8)": 6,
        "dihedral(8)": 10,
        "product(cyclic(2),product(cyclic(2),cyclic(2)))": 16,
    }
    by_name = {e.name: e.group for e in catalog(16)}
    for name, count in counts.items():
        assert len(all_subgroups(by_name[name])) == count, name
    _announce(
        7,
        f"all_subgroups matches the all-subsets oracle on {checked} groups of "
        "order<=16 (Q8:6, D8:10, Z2^3:16)",
        time.perf_counter() - t0,
        60.0,
    )


def test_acceptance_8_join_is_not_generated_subgroup():
    t0 = time.perf_counter()
    g = make_family("dihedral", 16)
    lat = lattice_of(g)
    s, t = 1, 3
    join_node = _bits(lat.nodes[lat.join(s, t)])
    generated = closure(g, _bits(lat.nodes[s]) + _bits(lat.nodes[t]))
    assert set(generated) < set(join_node)
    assert len(generated) == 8 and len(join_node) == 16
    assert generated.mask not in lat.index_of_mask
    _announce(
        8,
        "dihedral(16) witnesses join escape: nodes of orders 4 and 4 generate an "
        "order-8 subgroup but their lattice join is the whole group",
        time.perf_counter() - t0,
        None,
    )


def test_acceptance_9_cli_determinism(cli):
    t0 = time.perf_counter()
    commands = [
        ("verify", "figure3"),
        ("verify", "corollary", "--n", "4"),
        ("verify", "theoremc-sweep"),
        ("verify", "functor-laws"),
    ]
    for args in commands:
        first = cli(*args)
        second = cli(*args)
        assert first.returncode == 0, (args, first.stderr)
        assert second.returncode == 0, (args, second.stderr)
        assert first.stdout == second.stdout, args
        assert first.stdout.strip(), args
    _announce(
        9,
        "all four verification suites exit 0 with byte-identical output across "
        "two consecutive runs",
        time.perf_counter() - t0,
        None,
    )


def test_acceptance_10_elementary_abelian_enumeration():
    # C2^6 has 2825 subgroups (sum of the Gaussian binomials [6 choose k]_2);
    # the pairwise-join enumeration this replaced took about 70 s on it
    g = make_family("cyclic", 2)
    for _ in range(5):
        g = direct_product(g, make_family("cyclic", 2))
    t0 = time.perf_counter()
    subs = all_subgroups(g)
    elapsed = time.perf_counter() - t0
    assert len(subs) == 2825
    assert [len(h) for h in subs].count(8) == 1395  # [6 choose 3]_2
    _announce(
        10,
        "all_subgroups enumerates the 2825 subgroups of C2^6",
        elapsed,
        5.0,
    )

from __future__ import annotations

import hashlib
import random
import re
from collections import Counter

import pytest

from centlat import (
    CentralizerLattice,
    GroupHom,
    LatticeMap,
    SubgroupSet,
    build_centralizer_lattice,
    compose,
    compose_lattice_maps,
    crh_central_kernel_criterion,
    group_isomorphic,
    hom_to_json,
    identity_hom,
    induced_map,
    invert_lattice_map,
    is_centralizer_respecting,
    is_lattice_hom,
    is_surjective,
    kernel,
    lattice_of,
    lattice_to_dot,
    lattice_to_json,
    lattices_isomorphic,
    verify_functoriality,
    core,
    centralizer,
    center,
    closure,
    commutator_set,
    from_multiplication_table,
    group_from_json,
    group_to_json,
    all_subgroups,
    catalog,
    make_family,
    direct_product,
    quotient,
)
from centlat.errors import (
    DomainMismatchError,
    InternalInconsistencyError,
    NoIdentityError,
    NoInverseError,
    NotAssociativeError,
    NotClosedError,
    OrderCapExceededError,
    TableJsonError,
    TableValidationError,
    UnsupportedParameterError,
)

from _oracles import (
    alternating_group_table,
    brute_all_subgroups,
    brute_greedy_generators,
    brute_table_verdict,
    brute_center,
    brute_centralizer,
    brute_closure,
    brute_commutator_set,
    relabel,
    symmetric_group_table,
)


# ---------------------------------------------------------------- validation


def test_rejects_wrong_shape():
    with pytest.raises(TableValidationError):
        from_multiplication_table(2, [[0, 1]])
    with pytest.raises(NotClosedError) as exc:  # a short row, every entry in range
        from_multiplication_table(2, [[0, 1], [1]])
    assert (exc.value.row, exc.value.col, exc.value.value) == (1, 0, "row of length 1")
    # rows that are not sequences are a table error, not a TypeError
    with pytest.raises(NotClosedError) as exc:
        from_multiplication_table(2, [[0, 1], 2])
    assert exc.value.row == 1
    # and so is a table that is not iterable at all
    with pytest.raises(NotClosedError) as exc:
        from_multiplication_table(3, 5)
    assert (exc.value.row, exc.value.col, exc.value.value) == (0, 0, "table of type int")


def test_rejects_out_of_range_entry():
    with pytest.raises(NotClosedError) as exc:
        from_multiplication_table(2, [[0, 1], [1, 2]])
    assert exc.value.row == 1 and exc.value.col == 1 and exc.value.value == 2


def test_rejects_no_identity():
    # x*y = y for all y, but y*x != y: no two-sided identity.
    table = [[1, 0], [1, 0]]
    with pytest.raises(NoIdentityError):
        from_multiplication_table(2, table)


def test_rejects_no_inverse():
    # Identity at 0, but 1 is idempotent: 1*1 = 1, so 1 never reaches 0.
    table = [[0, 1, 2], [1, 1, 1], [2, 1, 2]]
    with pytest.raises(NoInverseError) as exc:
        from_multiplication_table(3, table)
    assert exc.value.element == 1


def test_rejects_non_associative():
    # A quasigroup (Latin square) with identity that fails associativity:
    # the cyclic-looking table with one transposition.
    table = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(NotAssociativeError) as exc:
        from_multiplication_table(5, table)
    a, b, c = exc.value.triple
    assert table[table[a][b]][c] == exc.value.lhs
    assert table[a][table[b][c]] == exc.value.rhs
    assert exc.value.lhs != exc.value.rhs


def test_light_test_checks_every_generator():
    # C2 x C2 with three products of 2 and 3 overwritten.  The greedy
    # generators are 1 and 2; (x*1)*y == x*(1*y) still holds for all x, y,
    # so only the check on the second generator finds the failure.
    table = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 2], [3, 2, 2, 0]]
    for hints in (None, [("x", 1)]):
        # hints that do not generate are reported only after associativity
        with pytest.raises(NotAssociativeError) as exc:
            from_multiplication_table(4, table, generator_hints=hints)
        assert (exc.value.triple, exc.value.lhs, exc.value.rhs) == ((1, 2, 2), 2, 1)


def test_order_cap():
    with pytest.raises(OrderCapExceededError) as exc:
        direct_product(make_family("cyclic", 4), make_family("cyclic", 4), cap=8)
    assert exc.value.order == 16 and exc.value.cap == 8


def test_identity_not_at_zero():
    # Z3 with relabelled elements so the identity sits at index 2.
    table = [[1, 2, 0], [2, 0, 1], [0, 1, 2]]
    g = from_multiplication_table(3, table)
    assert g.identity == 2
    assert g.inverse[g.identity] == g.identity
    assert g.mul(0, g.inverse[0]) == g.identity


def test_generator_hints_must_generate():
    z4 = make_family("cyclic", 4)
    with pytest.raises(ValueError):
        # the identity generates nothing
        from_multiplication_table(4, z4.table, generator_hints=[("x", z4.identity)])
    with pytest.raises(ValueError):
        from_multiplication_table(4, z4.table, generator_hints=[("x", 17)])
    with pytest.raises(ValueError):
        from_multiplication_table(4, z4.table, element_labels=["a", "b"])
    with pytest.raises(ValueError, match="element labels"):
        from_multiplication_table(1, [[0]], element_labels=5)  # not iterable
    # a hint that is not a (name, integral index) pair is named in the error
    for hint in (("x", None), ("x",), "xy", ("x", "1"), ("x", 1.0), ("x", True), 3):
        with pytest.raises(ValueError, match="generator hint") as exc:
            from_multiplication_table(4, z4.table, generator_hints=[hint])
        assert repr(hint) in str(exc.value)


def test_a_hint_at_the_order_is_out_of_range():
    # the index equal to the order is the first one out of range, also when
    # the other hints generate the group
    z3 = make_family("cyclic", 3)
    with pytest.raises(ValueError, match=r"^generator 'y' index 3 out of range$"):
        from_multiplication_table(3, z3.table, generator_hints=[("x", 1), ("y", 3)])


def _verdict(table: list[list[int]]) -> tuple:
    """from_multiplication_table's answer, in brute_table_verdict's terms."""
    try:
        g = from_multiplication_table(len(table), table)
    except NoIdentityError:
        return ("no identity",)
    except NoInverseError as e:
        return ("no inverse", e.element)
    except NotAssociativeError as e:
        return ("not associative", e.triple, e.lhs, e.rhs)
    return ("group", g.identity)


def test_validation_matches_brute_oracle_on_perturbed_tables():
    # Differential against the O(n^3) row-major scan: relabelled catalog
    # tables with one or two entries swapped or overwritten.  Light's test
    # only detects a failure; the reported triple must still be the first.
    rng = random.Random(20261017)
    groups = [e.group for e in catalog(32)]
    seen = Counter()
    for _ in range(400):
        g = rng.choice(groups)
        n = g.order
        perm = list(range(n))
        rng.shuffle(perm)
        table = relabel([list(r) for r in g.table], perm)
        for _ in range(rng.randint(1, 2)):
            a, b, c, d = (rng.randrange(n) for _ in range(4))
            if rng.random() < 0.5:
                table[a][b], table[c][d] = table[c][d], table[a][b]
            else:
                table[a][b] = c
        verdict = brute_table_verdict(table)
        assert _verdict(table) == verdict, table
        seen[verdict[0]] += 1
    assert set(seen) == {"no identity", "no inverse", "not associative", "group"}, seen


def test_greedy_generators_match_oracle():
    # Without hints the generators are the lowest elements outside the
    # subgroup spanned so far, on tables whose identity is not index 0.
    rng = random.Random(64)
    for entry in catalog(64):
        g = entry.group
        perm = list(range(g.order))
        rng.shuffle(perm)
        table = relabel([list(r) for r in g.table], perm)
        names = from_multiplication_table(g.order, table).generator_names
        assert [i for _, i in names] == brute_greedy_generators(table), entry.name
        assert [name for name, _ in names] == [f"g{k}" for k in range(len(names))]


def test_numpy_integer_rows_validate_to_the_same_group():
    np = pytest.importorskip("numpy")
    q = make_family("quaternion", 8)
    plain = from_multiplication_table(8, q.table)
    rows = [list(r) for r in q.table]  # NumPy reads a bytes row as one string, not as ints
    for table in (np.array(rows, dtype=np.int64), [np.array(r) for r in rows]):
        g = from_multiplication_table(8, table)
        assert (g.table, g.identity, g.inverse, g.generator_names) == (
            plain.table, plain.identity, plain.inverse, plain.generator_names,
        )
        assert {type(row) for row in g.table} == {bytes}
        assert {type(v) for row in g.table for v in row} == {int}
    with pytest.raises(NotClosedError) as exc:
        from_multiplication_table(2, np.array([[0, 1], [1, 0]], dtype=bool))
    assert (exc.value.row, exc.value.col) == (0, 0)
    # a NumPy order is stored as an int: full_mask was 1 << np.int64(64) - 1,
    # which wraps to -1, and center() then overflowed
    c64 = make_family("cyclic", 64)
    g = from_multiplication_table(np.int64(64), c64.table)
    assert type(g.order) is int and g.full_mask == c64.full_mask == center(g).mask


@pytest.mark.parametrize("order", [True, False, "2", 1.5, 1.0, None, 0])
def test_group_order_must_be_a_positive_integer(order):
    # refused like order < 1, before the table is read: True was taken as
    # order 1, "2" ended in a bare TypeError and 1.5 reported "expected 1.5 rows"
    with pytest.raises(NotClosedError) as exc:
        from_multiplication_table(order, [[0]])
    assert (exc.value.row, exc.value.col, exc.value.value) == (0, 0, order)


# ------------------------------------------------------- oracle comparisons


@pytest.fixture(scope="module")
def s3():
    return from_multiplication_table(6, symmetric_group_table(3))


@pytest.fixture(scope="module")
def a4():
    return from_multiplication_table(12, alternating_group_table(4))


def test_s3_element_orders(s3):
    assert sorted(s3.element_orders()) == [1, 2, 2, 2, 3, 3]


def test_closure_matches_oracle(s3):
    table = [list(row) for row in s3.table]
    for a in range(6):
        for b in range(6):
            got = set(closure(s3, [a, b]))
            assert got == brute_closure(table, {a, b})


def test_closure_matches_oracle_on_random_seeds():
    # several Dimino steps per closure, non-normal ones included, on tables
    # whose identity is not index 0
    rng = random.Random(2026)
    groups = [e.group for e in catalog(32)] + [from_multiplication_table(24, symmetric_group_table(4))]
    for _ in range(150):
        g = _relabelled(rng.choice(groups), rng)
        seed = rng.sample(range(g.order), rng.randint(1, 3))
        got = set(closure(g, seed))
        assert got == brute_closure([list(r) for r in g.table], set(seed)), seed


def test_closure_takes_one_dimino_step_per_seed_not_yet_reached(monkeypatch):
    # work counter: a seed element already in the subgroup built so far
    # adds no generator and no step; a step per seed element took 11 here
    steps = []
    original = core._dimino_step
    monkeypatch.setattr(core, "_dimino_step", lambda *args: steps.append(1) or original(*args))
    g = make_family("cyclic", 12)
    assert closure(g, range(12)).mask == g.full_mask and len(steps) == 1
    d = make_family("dihedral", 12)  # x has order 6: <x> holds 1..5, then y (6) is a second step
    assert closure(d, range(12)).mask == d.full_mask and len(steps) == 3


def test_centralizer_matches_oracle(s3):
    table = [list(row) for row in s3.table]
    for a in range(6):
        got = set(centralizer(s3, [a]))
        assert got == brute_centralizer(table, {a})
    assert set(center(s3)) == brute_center(table)
    assert len(center(s3)) == 1  # S3 is centerless


def test_centralizer_of_empty_is_whole_group(s3):
    assert centralizer(s3, []).mask == s3.full_mask


def test_commutator_set_matches_oracle(s3, a4):
    for g in (s3, a4):
        table = [list(row) for row in g.table]
        assert set(commutator_set(g)) == brute_commutator_set(table)


@pytest.fixture(scope="module")
def center_groups():
    """catalog(64), a seeded relabelling of each group, every central
    quotient of catalog(32), and the centerless S4 and A5 (Z = {1}, so no
    centralizer row or commutator pair is shared across a coset)."""
    rng = random.Random(12)
    groups = []
    for entry in catalog(64):
        groups += [(entry.name, entry.group), (f"{entry.name} relabelled", _relabelled(entry.group, rng))]
    for entry in catalog(32):
        for sub in all_subgroups(entry.group):
            if sub <= center(entry.group):
                groups.append((f"{entry.name} mod {sub.members}", quotient(entry.group, sub)[0]))
    groups.append(("S4", from_multiplication_table(24, symmetric_group_table(4))))
    groups.append(("A5", from_multiplication_table(60, alternating_group_table(5))))
    return groups


def test_centralizer_masks_match_brute_oracle(center_groups):
    # one row per center coset, copied to the rest of the coset, against an
    # oracle that tests every element against every other
    assert len(center_groups) == 2 * 373 + 779 + 2
    for name, g in center_groups:
        table = [list(r) for r in g.table]
        got = [set(core._bits(m)) for m in g.centralizer_masks()]
        assert got == [brute_centralizer(table, {x}) for x in range(g.order)], name


def _row_major_first_commutator_pairs(g) -> dict[int, tuple[int, int]]:
    """The first-pair map as a plain row-major walk of all n^2 pairs."""
    t, inverse = g.table, g.inverse
    first: dict[int, tuple[int, int]] = {}
    for a in range(g.order):
        ia = inverse[a]
        for b in range(g.order):
            c = t[t[t[ia][inverse[b]]][a]][b]
            if c not in first:
                first[c] = (a, b)
    return first


def test_commutator_pairs_match_row_major_walk(center_groups):
    # the walk over pairs of least center-coset representatives finds the
    # same first pair for every commutator as the walk over all n^2 pairs
    for name, g in center_groups:
        assert core._first_commutator_pairs(g) == _row_major_first_commutator_pairs(g), name


def test_derived_subgroup_is_closure_of_commutator_set():
    for g in (make_family("quaternion", 8), make_family("semidihedral", 16)):
        s = commutator_set(g)
        d = closure(g, s)
        assert set(s) <= set(d)
        assert set(d) == brute_closure([list(r) for r in g.table], set(s))


def test_derived_subgroup_values():
    d8 = make_family("dihedral", 8)
    assert len(closure(d8, commutator_set(d8))) == 2
    q8 = make_family("quaternion", 8)
    assert len(closure(q8, commutator_set(q8))) == 2
    z6 = make_family("cyclic", 6)
    assert closure(z6, commutator_set(z6)).is_trivial()


def test_subgroup_inside_the_center(s3):
    assert closure(s3, []) <= center(s3)
    assert not closure(s3, [1]) <= center(s3)


# ----------------------------------------------------------- all_subgroups


def brute_masks(g):
    return {
        frozenset(m) for m in brute_all_subgroups([list(row) for row in g.table])
    }


@pytest.mark.parametrize(
    "builder,expected_count",
    [
        (lambda: make_family("cyclic", 12), 6),
        (lambda: make_family("dihedral", 8), 10),
        (lambda: make_family("quaternion", 8), 6),
        (
            lambda: direct_product(
                direct_product(make_family("cyclic", 2), make_family("cyclic", 2)),
                make_family("cyclic", 2),
            ),
            16,
        ),
        (lambda: from_multiplication_table(6, symmetric_group_table(3)), 6),
        (lambda: from_multiplication_table(12, alternating_group_table(4)), 10),
    ],
)
def test_all_subgroups_against_enumeration(builder, expected_count):
    g = builder()
    got = all_subgroups(g)
    assert len(got) == expected_count
    assert {frozenset(h) for h in got} == brute_masks(g)
    # sorted by (order, members), no duplicates
    keys = [(len(h), h.members) for h in got]
    assert keys == sorted(keys) and len(set(keys)) == len(keys)


def test_subgroup_orders_frozen():
    assert [len(h) for h in all_subgroups(make_family("quaternion", 8))] == [
        1, 2, 4, 4, 4, 8,
    ]
    assert [len(h) for h in all_subgroups(make_family("dihedral", 8))] == [
        1, 2, 2, 2, 2, 2, 4, 4, 4, 8,
    ]


def test_every_reported_subgroup_validates():
    g = make_family("dihedral", 16)
    for h in all_subgroups(g):
        h.validate()
        assert g.order % len(h) == 0  # Lagrange


def _pairwise_join_masks(table: list[list[int]], identity: int) -> list[int]:
    """Subgroup masks as all_subgroups found them before zuppo extension,
    in plain loops: every cyclic subgroup, then saturation under pairwise
    joins (the whole group once the union passes half of it, else the
    closure of the union by right-coset extension), sorted by (order,
    members).  The reference the enumerator is compared with."""
    n = len(table)

    def members(mask: int) -> list[int]:
        return [i for i in range(n) if mask >> i & 1]

    def close(seed: int) -> int:
        mask, gens = 1 << identity, []
        for s in members(seed):
            if mask >> s & 1:
                continue
            h_elems = members(mask)
            gens.append(s)
            new_mask = mask
            for h in h_elems:
                new_mask |= 1 << table[h][s]
            reps = [s]
            i = 0
            while i < len(reps):
                row = table[reps[i]]
                for g in gens:
                    x = row[g]
                    if not new_mask >> x & 1:
                        reps.append(x)
                        for h in h_elems:
                            new_mask |= 1 << table[h][x]
                i += 1
            mask = new_mask
        return mask

    seen, masks = set(), []
    for g in range(n):
        m, x = 1 << identity, g
        while not m >> x & 1:
            m |= 1 << x
            x = table[x][g]
        if m not in seen:
            seen.add(m)
            masks.append(m)
    i = 0
    while i < len(masks):
        for j in range(i):
            a, b = masks[i], masks[j]
            union = a | b
            if union == a or union == b:
                continue
            m = (1 << n) - 1 if 2 * bin(union).count("1") > n else close(union)
            if m not in seen:
                seen.add(m)
                masks.append(m)
        i += 1
    return sorted(masks, key=lambda m: (bin(m).count("1"), members(m)))


def _relabelled(g, rng):
    perm = list(range(g.order))
    rng.shuffle(perm)
    return from_multiplication_table(g.order, relabel([list(r) for r in g.table], perm))


def test_all_subgroups_matches_pairwise_joins():
    # Differential against the enumerator zuppo extension replaced: the same
    # masks in the same order, on the catalog and on relabelled copies whose
    # zuppo numbering (by least generator) differs.
    rng = random.Random(6)
    for entry in catalog(32):
        for g in (entry.group, _relabelled(entry.group, rng), _relabelled(entry.group, rng)):
            expected = _pairwise_join_masks([list(r) for r in g.table], g.identity)
            assert [h.mask for h in all_subgroups(g)] == expected, entry.name


def test_all_subgroups_matches_brute_oracle_in_order():
    for entry in catalog(16):
        g = entry.group
        expected = sorted(
            (len(s), tuple(sorted(s))) for s in brute_all_subgroups([list(r) for r in g.table])
        )
        assert [(len(h), h.members) for h in all_subgroups(g)] == expected, entry.name


def test_all_subgroups_on_catalog64_is_frozen():
    # every subgroup mask of every catalog(64) group, in order, hashed from
    # the enumerator as it was before joins bounded above n/2 were skipped;
    # the brute oracle cannot reach these orders
    digest = hashlib.sha256()
    count = 0
    for entry in catalog(64):
        subs = all_subgroups(entry.group)
        count += len(subs)
        digest.update(f"{entry.name}:{','.join(format(h.mask, 'x') for h in subs)};".encode())
    assert count == 7347
    assert digest.hexdigest() == "fcc1451a45c7121a528644947c70efec563beef9c971111b2c5815fef9e0bf16"


def test_subgroup_table_matches_the_enumerator_before_canonical_parents():
    # every subgroup mask, in order, and every stored C(A) mask of
    # relabelled catalog(64) groups, S4, A5 and S5, hashed from the
    # enumerator as it was before each subgroup was kept only from its
    # canonical parent (which re-closed each new subgroup along its zuppos)
    rng = random.Random(17)
    named = [(e.name, _relabelled(e.group, rng)) for e in catalog(64)]
    named += [
        ("S4", _relabelled(from_multiplication_table(24, symmetric_group_table(4)), rng)),
        ("A5", _relabelled(from_multiplication_table(60, alternating_group_table(5)), rng)),
        ("S5", _relabelled(from_multiplication_table(120, symmetric_group_table(5)), rng)),
    ]
    digest = hashlib.sha256()
    count = 0
    for name, g in named:
        subs, _, cents = core._subgroup_table(g)
        count += len(subs)
        masks, cs = ",".join(format(h.mask, "x") for h in subs), ",".join(format(c, "x") for c in cents)
        digest.update(f"{name}:{masks}|{cs};".encode())
    assert count == 7592
    assert digest.hexdigest() == "19f317c3649c14673e3dfbad07096a43c9916dabb20e11c5957b65c482c2d9c9"


def _prime_power(k: int) -> bool:
    if k < 2:
        return False
    p = next(d for d in range(2, k + 1) if k % d == 0)  # least prime factor
    while k % p == 0:
        k //= p
    return k == 1


def _brute_canonical_index(table, zuppos: list[int], target: set[int]) -> int:
    """Least i such that the zuppos (given by generators, in index order)
    inside ``target`` with index <= i generate it."""
    inside, closed = [], set()
    for i, z in enumerate(zuppos):
        if z in target and z not in closed:  # a zuppo already inside leaves the closure as it is
            inside.append(z)
            closed = brute_closure(table, set(inside))
            if closed == target:
                return i
    raise AssertionError("zuppos do not generate the subgroup")


def test_kept_generators_follow_the_canonical_parent():
    # every subgroup J but {1}, G and the zuppos is kept from its canonical
    # parent P(J), the closure of its zuppos below z_f(J): its kept
    # generators are P(J)'s followed by z_f(J), with f(J) the least index
    # (a larger one drops joins that the completeness argument relies on)
    rng = random.Random(11)
    groups = [e.group for e in catalog(16)] + [
        from_multiplication_table(24, symmetric_group_table(4)),
        from_multiplication_table(120, symmetric_group_table(5)),
    ]
    for g0 in groups:
        g = _relabelled(g0, rng)
        table = [list(r) for r in g.table]
        orders = g.element_orders()
        cyclics, cyclic = core._cyclic_subgroups(g)
        zuppos = [c for c in cyclics if _prime_power(len(c[2]))]
        assert [set(core._bits(m)) for m in cyclic] == [brute_closure(table, {a}) for a in range(g.order)]
        zgens = [z for z, _, _ in zuppos]
        by_generator = {}
        for a in range(g.order):  # least generator of each prime-power cyclic subgroup
            if _prime_power(orders[a]):
                by_generator.setdefault(frozenset(brute_closure(table, {a})), a)
        assert zgens == sorted(by_generator.values())
        subs, gens, _ = core._subgroup_table(g)
        for h, h_gens in zip(subs[1:-1], gens[1:-1]):
            members = set(h)
            assert brute_closure(table, set(h_gens)) == members
            if frozenset(members) in by_generator:
                assert h_gens == (by_generator[frozenset(members)],)
                continue
            f = _brute_canonical_index(table, zgens, members)
            assert h_gens[-1] == zgens[f]
            parent = brute_closure(table, {z for z in zgens[:f] if z in members})
            assert brute_closure(table, set(h_gens[:-1])) == parent != members


@pytest.mark.parametrize(
    "builder,subgroups,steps,whole",
    [
        # 20,492 steps before the G bound, 9,824 before the canonical-parent test
        (lambda: make_family("dihedral", 256), 263, 126, 0),
        # 1,146 steps before the canonical-parent test; 9 of the 257 return
        # G, joins that only the Dimino step's exit finds to be the whole group
        (lambda: direct_product(make_family("cyclic", 4), direct_product(*[make_family("cyclic", 4)] * 2)), 129, 257, 9),
        # 3,342 steps before the canonical-parent test; 89 of the 368 still
        # return G, joins the bounds cannot see to be the whole group
        (lambda: from_multiplication_table(120, symmetric_group_table(5)), 156, 368, 89),
        # relabelled, the zuppos come in another order, and two joins pass
        # half the group only by the union: 4 steps, 2 of them G, without it
        (lambda: from_multiplication_table(8, relabel(make_family("dihedral", 8).table, [1, 6, 5, 4, 7, 0, 2, 3])), 10, 2, 0),
    ],
    ids=["dihedral(256)", "C4^3", "S5", "relabelled dihedral(8)"],
)
def test_joins_that_must_be_the_whole_group_are_skipped(monkeypatch, builder, subgroups, steps, whole):
    # work counter: a join whose union of K, <z> and every <gz> over K's
    # generators g passes half the group is G, and a join that holds a
    # zuppo below z outside K is not kept from K (it is built from its
    # canonical parent), so no Dimino step is run for either
    orders = []
    original = core._dimino_step

    def counting(table, mask, elems, gens):
        out = original(table, mask, elems, gens)
        orders.append(len(out[1]))
        return out

    monkeypatch.setattr(core, "_dimino_step", counting)
    g = builder()
    assert len(all_subgroups(g)) == subgroups
    assert len(orders) == steps
    assert orders.count(g.order) == whole


def _elementary_abelian(rank: int):
    g = make_family("cyclic", 2)
    for _ in range(rank - 1):
        g = direct_product(g, make_family("cyclic", 2))
    return g


@pytest.mark.parametrize(
    "builder,expected_count",
    [
        # sum of Gaussian binomials [5 choose k]_2
        (lambda: _elementary_abelian(5), 374),
        # D_2m has tau(m) + sigma(m) subgroups
        (lambda: make_family("dihedral", 256), 263),
        (lambda: from_multiplication_table(24, symmetric_group_table(4)), 30),
        (lambda: from_multiplication_table(60, alternating_group_table(5)), 59),
        (lambda: from_multiplication_table(120, symmetric_group_table(5)), 156),
    ],
    ids=["C2^5", "dihedral(256)", "S4", "A5", "S5"],
)
def test_subgroup_counts_known(builder, expected_count):
    g = _relabelled(builder(), random.Random(expected_count))
    subs = all_subgroups(g)
    assert len(subs) == expected_count
    if g.order == 120:
        # A5 is perfect, so it is no H<z> with H a proper normal subgroup
        # (K/H cyclic forces K' <= H): extension inside normalisers misses it
        (a5,) = [h for h in subs if len(h) == 60]
        assert closure(g, commutator_set(g)) == a5



def test_the_first_nonassociative_triple_of_an_associative_table_is_internal():
    # Light's test and the full scan disagree only if one of them is wrong
    rows = list(make_family("dihedral", 8).table)
    with pytest.raises(InternalInconsistencyError) as exc:
        core._first_nonassociative_triple(rows)
    assert str(exc.value) == "Light's test failed on an associative table"


# ------------------------------------------------------------- SubgroupSet


def test_mask_key_sorts_as_subgroups_sort():
    # the mask-only sort key of subgroup tables and lattice nodes against
    # (order, members): every subgroup of catalog(64), shuffled, and seeded
    # random masks of mixed bit lengths, dense and sparse
    rng = random.Random(3603)
    for entry in catalog(64):
        subs = list(all_subgroups(entry.group))
        rng.shuffle(subs)
        by_mask = sorted(subs, key=lambda s: core._mask_key(s.mask))
        assert by_mask == sorted(subs, key=lambda h: (len(h), h.members)) == list(all_subgroups(entry.group))
    masks = [0, 1, 2, 3]
    for _ in range(3000):
        width = rng.randrange(1, 300)
        masks.append(rng.getrandbits(width))
        masks.append(sum(1 << rng.randrange(width) for _ in range(rng.randrange(1, 6))))
    assert sorted(masks, key=core._mask_key) == sorted(masks, key=lambda m: (m.bit_count(), core._bits(m)))


def test_subgroupset_ops(s3):
    subs = all_subgroups(s3)
    whole = subs[-1]
    triv = subs[0]
    assert triv.is_trivial() and whole.mask == s3.full_mask
    for h in subs:
        assert triv <= h <= whole
        assert (h & whole) == h
    with pytest.raises(ValueError):
        SubgroupSet(s3, [1])  # a transposition alone is not closed


def test_subgroupset_rejects_a_set_missing_an_inverse():
    c6 = make_family("cyclic", 6)  # element k is k mod 6
    with pytest.raises(ValueError, match="missing the inverse of 1"):
        SubgroupSet(c6, [0, 1])


def test_subgroupset_rejects_a_set_that_is_not_closed():
    # inverses are all present (2 and 4 pair up, 3 is its own), 2+3 is not
    c6 = make_family("cyclic", 6)
    with pytest.raises(ValueError, match=re.escape("not closed: 2*3 escapes")):
        SubgroupSet(c6, [0, 2, 3, 4])


@pytest.mark.parametrize("index", [99, 8, -1, 1.5, 2.0, True, "1", None])
def test_element_indices_are_checked_at_the_boundary(index):
    # one check for closure, centralizer and SubgroupSet: an index that is
    # not an integral element of the group raises ValueError naming it,
    # never IndexError, TypeError, a negative shift or True taken as 1
    g = make_family("dihedral", 8)
    calls = (
        lambda: closure(g, [index]),
        lambda: centralizer(g, [0, index]),
        lambda: SubgroupSet(g, [0, index]),
    )
    for call in calls:
        with pytest.raises(ValueError, match=re.escape(repr(index))):
            call()


def test_entry_points_reject_what_is_not_a_group():
    # every public function taking a group, homomorphism, lattice or lattice
    # map raises DomainMismatchError naming itself, the type it needs and
    # the type it got, before reading any attribute of it (a bare
    # AttributeError before); the first four of each list and the last two
    # of the second are reported calls
    d8 = make_family("dihedral", 8)
    calls = [
        ("direct_product", "list", lambda: direct_product(d8, [[0]])),
        ("GroupHom", "str", lambda: GroupHom(d8, "x", range(8))),
        ("center", "list", lambda: center([[0]])),
        ("all_subgroups", "list", lambda: all_subgroups([[0]])),
        ("direct_product", "tuple", lambda: direct_product((), d8)),
        ("closure", "list", lambda: closure([[0]], [0])),
        ("centralizer", "list", lambda: centralizer([[0]], [0])),
        ("commutator_set", "NoneType", lambda: commutator_set(None)),
        ("group_to_json", "dict", lambda: group_to_json(group_to_json(d8))),
        ("SubgroupSet", "list", lambda: SubgroupSet([[0]], [0])),
        ("identity_hom", "list", lambda: identity_hom([[0]])),
        ("quotient", "list", lambda: quotient([[0]], all_subgroups(d8)[0])),
        ("group_isomorphic", "int", lambda: group_isomorphic(d8, 8)),
        ("CentralizerLattice", "list", lambda: CentralizerLattice([[0]])),
        ("build_centralizer_lattice", "list", lambda: build_centralizer_lattice([[0]])),
        ("lattice_of", "list", lambda: lattice_of([[0]])),
    ]
    for where, type_name, call in calls:
        with pytest.raises(DomainMismatchError, match=f"^{where} needs a FiniteGroup, not {type_name}$"):
            call()
    h, lat = identity_hom(d8), lattice_of(d8)
    m = induced_map(h)
    calls = [
        ("is_centralizer_respecting", "GroupHom", "FiniteGroup", lambda: is_centralizer_respecting(d8)),
        ("induced_map", "GroupHom", "FiniteGroup", lambda: induced_map(d8)),
        ("is_lattice_hom", "LatticeMap", "CentralizerLattice", lambda: is_lattice_hom(lat)),
        ("quotient", "SubgroupSet", "list", lambda: quotient(d8, [0, 4])),
        ("kernel", "GroupHom", "FiniteGroup", lambda: kernel(d8)),
        ("is_surjective", "GroupHom", "tuple", lambda: is_surjective(h.mapping)),
        ("compose", "GroupHom", "FiniteGroup", lambda: compose(h, d8)),
        ("crh_central_kernel_criterion", "GroupHom", "NoneType", lambda: crh_central_kernel_criterion(None)),
        ("hom_to_json", "GroupHom", "dict", lambda: hom_to_json(group_to_json(d8))),
        ("verify_functoriality", "GroupHom", "LatticeMap", lambda: verify_functoriality(h, m)),
        ("compose_lattice_maps", "LatticeMap", "GroupHom", lambda: compose_lattice_maps(m, h)),
        ("invert_lattice_map", "LatticeMap", "CentralizerLattice", lambda: invert_lattice_map(lat)),
        ("lattice_to_json", "CentralizerLattice", "FiniteGroup", lambda: lattice_to_json(d8)),
        ("lattice_to_dot", "CentralizerLattice", "LatticeMap", lambda: lattice_to_dot(m)),
        ("lattices_isomorphic", "CentralizerLattice", "FiniteGroup", lambda: lattices_isomorphic(d8, d8)),
        ("LatticeMap", "CentralizerLattice", "FiniteGroup", lambda: LatticeMap(d8, d8, ())),
    ]
    for where, kind, type_name, call in calls:
        with pytest.raises(DomainMismatchError, match=f"^{where} needs a {kind}, not {type_name}$"):
            call()


@pytest.mark.parametrize("cap", ["x", None, 2.5, True, 8.0])
def test_caps_must_be_integers(cap):
    # the reported calls: "x" and None ended in a bare TypeError, 2.5 was
    # taken as a cap, and True gave "exceeds cap True"; a cap of None no
    # longer switches the check off where a group is checked directly
    d8 = make_family("dihedral", 8)
    h = identity_hom(d8)
    calls = (
        lambda: all_subgroups(d8, cap=cap),
        lambda: direct_product(d8, d8, cap=cap),
        lambda: is_centralizer_respecting(h, cap=cap),
        lambda: lattice_of(d8, cap=cap),
        lambda: build_centralizer_lattice(d8, cap=cap),
    )
    for call in calls:
        with pytest.raises(UnsupportedParameterError, match=re.escape(f"cap must be an integer, got {cap!r}")):
            call()


def test_element_sets_must_be_iterable():
    # closure(d8, 5), centralizer(d8, 5) and SubgroupSet(d8, 5) ended in a
    # bare TypeError; they raise the ValueError of a bad element index
    d8 = make_family("dihedral", 8)
    for call in (closure, centralizer, SubgroupSet):
        with pytest.raises(ValueError, match="^int is not an iterable of element indices$"):
            call(d8, 5)


def test_a_subgroup_of_another_group_is_rejected():
    # closure, centralizer and SubgroupSet share one check: a
    # SubgroupSet of a group with another table raises DomainMismatchError,
    # never an IndexError or an answer read off the other group's mask
    d8 = make_family("dihedral", 8)
    others = (
        closure(make_family("cyclic", 16), [15]),
        closure(make_family("cyclic", 4), [1]),
        all_subgroups(make_family("quaternion", 8))[3],  # same order, other table
    )
    for other in others:
        for call in (centralizer, closure, SubgroupSet):
            with pytest.raises(DomainMismatchError, match="different group"):
                call(d8, other)
    # a subgroup of an equal table is as good as its members
    twin = make_family("dihedral", 8)
    assert centralizer(d8, closure(twin, [1])) == centralizer(d8, [0, 1, 2, 3])
    assert closure(d8, closure(twin, [4])) == SubgroupSet(d8, closure(twin, [4])) == closure(d8, [4])


def test_subgroup_operators_reject_a_subgroup_of_another_group():
    # & and <= read the other mask only for a subgroup of the same table:
    # S3 & C6's {0, 2, 4} would be a trusted "subgroup" of S3 that the
    # public constructor rejects; & takes no plain index list either, as
    # its meet with a subgroup need not be one
    s3, c6 = all_subgroups(make_family("dihedral", 6)), all_subgroups(make_family("cyclic", 6))
    with pytest.raises(DomainMismatchError, match="different group"):
        s3[-1] & c6[2]
    with pytest.raises(DomainMismatchError, match="different group"):
        s3[1] <= c6[1]
    with pytest.raises(TypeError):
        s3[-1] & [0, 2, 4]
    twin = all_subgroups(make_family("dihedral", 6))
    assert s3[1] <= twin[-1] and (s3[-1] & twin[2]) == s3[2]


def test_numpy_integer_indices_give_the_same_subsets():
    # NumPy shifts wrap at 64 bits: 1 << np.int64(100) is 0
    np = pytest.importorskip("numpy")
    g = make_family("dihedral", 128)
    x100 = closure(g, [100])
    assert closure(g, [np.int64(100)]) == x100
    assert centralizer(g, [np.int64(100)]) == centralizer(g, [100])
    assert SubgroupSet(g, np.array(x100.members)) == x100
    with pytest.raises(ValueError):
        closure(g, [np.bool_(True)])


def test_subgroupset_hash_and_eq(s3):
    a = closure(s3, [1])
    b = closure(s3, [1])
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    # a subgroup equals no value of another type, not even its member list
    for other in (list(a.members), a.members, a.mask, None):
        assert a.__eq__(other) is NotImplemented
        assert a != other and other != a


# ------------------------------------------------------------------- JSON


def test_group_json_round_trip():
    g = make_family("semidihedral", 16)
    blob = group_to_json(g)
    h = group_from_json(blob)
    assert h.same_table(g)
    assert h.generator_names == g.generator_names
    assert [h.label(i) for i in range(16)] == [g.label(i) for i in range(16)]


def test_group_json_rejects_bad_payloads():
    with pytest.raises(TableJsonError):
        group_from_json("not json at all {")
    with pytest.raises(TableJsonError):
        group_from_json('{"order": 1}')
    with pytest.raises(TableJsonError):
        group_from_json('{"order": 2, "table": [[0, 1], [1, 0]], "extra": 1}')
    with pytest.raises(TableValidationError):
        # a structurally valid document whose table is not a group
        group_from_json('{"order": 2, "table": [[0, 1], [1, 2]]}')
    with pytest.raises(TableJsonError):  # rows must be lists
        group_from_json('{"order": 2, "table": [1, 2]}')
    with pytest.raises(TableJsonError):  # a bool is not an order
        group_from_json('{"order": true, "table": [[0]]}')
    z3 = '"order": 3, "table": [[1, 2, 0], [2, 0, 1], [0, 1, 2]]'
    assert group_from_json('{%s, "generators": {"x": 1}}' % z3).generator_names == (("x", 1),)
    for index in ("true", "false", "null", "1.0", '"1"'):  # nor a generator index
        with pytest.raises(TableJsonError):
            group_from_json('{%s, "generators": {"x": %s}}' % (z3, index))
    with pytest.raises(TableJsonError, match="'labels' must be a list of strings"):
        group_from_json('{%s, "labels": ["e", 1, "x^2"]}' % z3)
    with pytest.raises(TableJsonError):  # bytes that are not UTF-8
        group_from_json(b'\xff\xfe{')

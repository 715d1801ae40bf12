from __future__ import annotations

import random
from collections import Counter

import pytest

from centlat import (
    SubgroupSet,
    centralizer,
    center,
    closure,
    commutator_set,
    derived_subgroup,
    from_multiplication_table,
    group_from_json,
    group_to_json,
    is_central,
    all_subgroups,
    catalog,
    make_family,
    direct_product,
)
from centlat.errors import (
    NoIdentityError,
    NoInverseError,
    NotAssociativeError,
    NotClosedError,
    OrderCapExceededError,
    TableJsonError,
    TableValidationError,
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
    with pytest.raises(TableValidationError):
        from_multiplication_table(2, [[0, 1], [1]])
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
    for table in (np.array(q.table, dtype=np.int64), [np.array(r) for r in q.table]):
        g = from_multiplication_table(8, table)
        assert (g.table, g.identity, g.inverse, g.generator_names) == (
            plain.table, plain.identity, plain.inverse, plain.generator_names,
        )
        assert {type(v) for row in g.table for v in row} == {int}
    with pytest.raises(NotClosedError) as exc:
        from_multiplication_table(2, np.array([[0, 1], [1, 0]], dtype=bool))
    assert (exc.value.row, exc.value.col) == (0, 0)


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


def test_centralizer_matches_oracle(s3):
    table = [list(row) for row in s3.table]
    for a in range(6):
        got = set(centralizer(s3, [a]))
        assert got == brute_centralizer(table, {a})
    assert set(center(s3)) == brute_center(table)
    assert len(center(s3)) == 1  # S3 is centerless


def test_centralizer_of_empty_is_whole_group(s3):
    assert centralizer(s3, []).is_whole_group()


def test_commutator_set_matches_oracle(s3, a4):
    for g in (s3, a4):
        table = [list(row) for row in g.table]
        assert set(commutator_set(g)) == brute_commutator_set(table)


def test_derived_subgroup_is_closure_of_commutator_set():
    for g in (make_family("quaternion", 8), make_family("semidihedral", 16)):
        s = commutator_set(g)
        d = derived_subgroup(g)
        assert set(s) <= set(d)
        assert set(d) == brute_closure([list(r) for r in g.table], set(s))


def test_derived_subgroup_values():
    d8 = make_family("dihedral", 8)
    assert len(derived_subgroup(d8)) == 2
    q8 = make_family("quaternion", 8)
    assert len(derived_subgroup(q8)) == 2
    z6 = make_family("cyclic", 6)
    assert derived_subgroup(z6).is_trivial()


def test_is_central(s3):
    assert is_central(s3, closure(s3, []))
    assert not is_central(s3, closure(s3, [1]))


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
    keys = [h.sort_key() for h in got]
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


# ------------------------------------------------------------- SubgroupSet


def test_subgroupset_ops(s3):
    subs = all_subgroups(s3)
    whole = subs[-1]
    triv = subs[0]
    assert triv.is_trivial() and whole.is_whole_group()
    for h in subs:
        assert triv <= h <= whole
        assert (h & whole) == h
    with pytest.raises(ValueError):
        SubgroupSet(s3, [1])  # a transposition alone is not closed


def test_subgroupset_hash_and_eq(s3):
    a = closure(s3, [1])
    b = closure(s3, [1])
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


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
    with pytest.raises(TableJsonError):  # bytes that are not UTF-8
        group_from_json(b'\xff\xfe{')

"""Random input on the readers of outside data (tables, element maps,
group and homomorphism documents, group expressions): whatever arrives, the only
exceptions are the package's own (and the documented ``ValueError`` of
``from_multiplication_table`` for labels and generator hints).  The CLI,
driven in-process, ends every such input in a documented exit code."""

from __future__ import annotations

import contextlib
import io
import json
import re

import pytest

from centlat import (
    catalog,
    core,
    cli,
    from_multiplication_table,
    group_from_json,
    group_to_json,
    hom_from_json,
    hom_from_map,
    make_family,
    parse_group_expr,
)
from centlat.expr import FAMILY_TOKENS, MAX_NESTING, TableExpr, pretty
from centlat.errors import (
    CentlatError,
    NoIdentityError,
    NoInverseError,
    NotAssociativeError,
    NotClosedError,
)

from _oracles import brute_first_nonassociative_triple, brute_table_verdict

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
given, settings = hypothesis.given, hypothesis.settings

# Deterministic and bounded, so the suite stays fast and repeatable.
FUZZ = settings(max_examples=100, deadline=None, derandomize=True, database=None)

cells = st.one_of(
    st.integers(-2, 9),
    st.booleans(),
    st.none(),
    st.floats(allow_nan=False),
    st.text(max_size=2),
    st.lists(st.integers(0, 3), max_size=2),
)
rows = st.one_of(
    st.lists(cells, max_size=6),
    st.lists(st.integers(0, 5), max_size=6),
    st.integers(),
    st.none(),
    st.text(max_size=3),
)
tables = st.lists(rows, max_size=6) | st.integers() | st.none()  # the last two are not iterable
hint_pairs = st.tuples(st.text(max_size=2), st.integers(-2, 9) | st.none() | st.text(max_size=2))
hints = st.none() | st.lists(
    hint_pairs | st.tuples(st.text(max_size=2)) | st.text(max_size=3), max_size=3
)
labels = st.none() | st.lists(st.text(max_size=2), max_size=6)

SMALL_TABLES = [[list(r) for r in e.group.table] for e in catalog(8)]


@st.composite
def perturbed_group_tables(draw):
    """A small group table with a few entries overwritten by valid indices,
    so inputs reach the identity, inverse and associativity checks."""
    table = [row[:] for row in draw(st.sampled_from(SMALL_TABLES))]
    n = len(table)
    for _ in range(draw(st.integers(0, 3))):
        a, b, v = (draw(st.integers(0, n - 1)) for _ in range(3))
        table[a][b] = v
    return table


def _check_table(order, table, generator_hints=None, element_labels=None):
    try:
        g = from_multiplication_table(order, table, generator_hints, element_labels)
    except NotAssociativeError as e:
        # only tables of valid indices get this far, so the oracle applies
        assert (e.triple, e.lhs, e.rhs) == brute_first_nonassociative_triple(table)
    except CentlatError:
        pass
    except ValueError:
        assert generator_hints is not None or element_labels is not None
    else:
        assert brute_table_verdict([list(r) for r in g.table]) == ("group", g.identity)


@FUZZ
@given(st.integers(-1, 6), tables, hints, labels)
def test_from_multiplication_table_raises_only_documented_errors(order, table, hints, labels):
    _check_table(order, table, hints, labels)


@FUZZ
@given(perturbed_group_tables(), hints)
def test_perturbed_tables_get_the_oracle_verdict(table, hints):
    _check_table(len(table), table, hints)


def _tuple_path_checks(order, table):
    """The table checks as they were before rows were validated as bytes, kept
    as the reference for the bytes path: range on tuple rows by min/max or per
    cell, identity and inverses on tuples, Light's test by gathering, and the
    first failing triple over the tuples.  Returns (identity, inverse,
    generators, rows) or raises what validation raised."""
    if not core._is_integral(order) or order < 1:
        raise NotClosedError(0, 0, order)
    order = int(order)
    try:
        table_rows = iter(table)
    except TypeError:
        raise NotClosedError(0, 0, f"table of type {type(table).__name__}") from None
    rows = []
    for a, r in enumerate(table_rows):
        try:
            rows.append(tuple(r))
        except TypeError:
            raise NotClosedError(a, 0, f"row of type {type(r).__name__}") from None
    if len(rows) != order:
        raise NotClosedError(0, 0, f"expected {order} rows, got {len(rows)}")
    for a, row in enumerate(rows):
        if len(row) == order and set(map(type, row)) == {int} and min(row) >= 0 and max(row) < order:
            continue
        if len(row) != order:
            raise NotClosedError(a, 0, f"row of length {len(row)}")
        for b, v in enumerate(row):
            if not core._is_integral(v) or not 0 <= v < order:
                raise NotClosedError(a, b, v)
        rows[a] = tuple(map(int, row))
    natural = tuple(range(order))
    for identity, row in enumerate(rows):
        if row == natural and tuple(r[identity] for r in rows) == natural:
            break
    else:
        raise NoIdentityError()
    inverse = []
    for a, row in enumerate(rows):
        try:
            b = row.index(identity)
        except ValueError:
            raise NoInverseError(a) from None
        if rows[b][a] != identity:
            raise NoInverseError(a)
        inverse.append(b)
    gens, _ = core._magma_generators(rows, identity, [])
    for s in gens:
        right = core._gather(rows[s])
        for rx in rows:
            if right(rx) != rows[rx[s]]:
                gathers = [core._gather(r) for r in rows]
                for a, ra in enumerate(rows):
                    for b, ab in enumerate(ra):
                        left, right = rows[ab], gathers[b](ra)
                        if left != right:
                            c = next(c for c, (u, v) in enumerate(zip(left, right)) if u != v)
                            raise NotAssociativeError(a, b, c, left[c], right[c])
    return identity, tuple(inverse), tuple(gens), [list(r) for r in rows]


def _outcome(check, order, table):
    """What a table check returns, or the type, args and fields of what it raises."""
    try:
        return check(order, table)
    except Exception as e:  # compared whole, so any difference shows
        return type(e), e.args, vars(e)


def _validated(order, table):
    g = from_multiplication_table(order, table)
    return g.identity, g.inverse, tuple(i for _, i in g.generator_names), [list(r) for r in g.table]


def _check_against_tuple_path(order, table):
    """Validation agrees with the tuple-path reference, error for error, and
    a table of in-range indices with the brute-force oracle (up to order 64,
    as the oracle is cubic)."""
    got = _outcome(_validated, order, table)
    assert got == _outcome(_tuple_path_checks, order, table)
    if got[0] is NotClosedError or len(table) > 64:
        return
    verdict, fields = brute_table_verdict(table), got[-1]
    if got[0] is NoIdentityError:
        assert verdict == ("no identity",)
    elif got[0] is NoInverseError:
        assert verdict == ("no inverse", fields["element"])
    elif got[0] is NotAssociativeError:
        assert verdict == ("not associative", fields["triple"], fields["lhs"], fields["rhs"])
    else:
        assert verdict == ("group", got[0])


@FUZZ
@given(st.integers(-1, 6), tables)
def test_validation_matches_the_tuple_path(order, table):
    _check_against_tuple_path(order, table)


@FUZZ
@given(perturbed_group_tables())
def test_validation_matches_the_tuple_path_on_perturbed_tables(table):
    _check_against_tuple_path(len(table), table)


def _cyclic_table(n, *changes):
    """Z_n's table, (a + b) mod n, with each (a, b, v) of ``changes`` written in."""
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    for a, b, v in changes:
        table[a][b] = v
    return table


def _swapped(n):
    """Z_n's table with two entries of row 1 swapped, away from the identity
    and from 1's inverse: identity and inverses pass, associativity fails."""
    return _cyclic_table(n, (1, 2, 4 % n), (1, 3, 3))


NON_ASSOCIATIVE_LOOP = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]


@pytest.mark.parametrize(
    "table",
    [
        [[0, 1, 2], [1, 2], [2, 0, 1]],  # a short row of in-range ints
        _cyclic_table(4, (1, 2, True)),  # a bool equals 3 but is refused
        _cyclic_table(5, (2, 3, -1)),
        _cyclic_table(5, (2, 3, 5)),  # the order
        _cyclic_table(5, (2, 3, 255)),  # fits a byte, outside range(5)
        _cyclic_table(5, (2, 3, 256)),  # past a byte
        _cyclic_table(5, (2, 3, 2**64)),  # past a machine word
        _cyclic_table(256),  # 255 is an entry
        _cyclic_table(256, (7, 9, 256)),
        _cyclic_table(256, (7, 9, -1)),
        _cyclic_table(257),  # tuple rows: 256 is an entry
        _cyclic_table(257, (7, 9, 257)),
        _cyclic_table(6, (0, 0, 1)),  # no identity
        _cyclic_table(6, (2, 4, 3)),  # 2 has no inverse
        NON_ASSOCIATIVE_LOOP,
        _swapped(7),
        _swapped(256),
        _swapped(257),
    ],
    ids=lambda t: f"order{len(t)}",
)
def test_validation_matches_the_tuple_path_at_the_edges(table):
    _check_against_tuple_path(len(table), table)


SMALL_GROUPS = [e.group for e in catalog(8)]


@st.composite
def element_maps(draw):
    """A source, a target and the trivial map between them with a few
    entries overwritten by arbitrary cells, or any short list of cells."""
    source, target = draw(st.sampled_from(SMALL_GROUPS)), draw(st.sampled_from(SMALL_GROUPS))
    mapping = [target.identity] * source.order
    for _ in range(draw(st.integers(0, 2))):
        mapping[draw(st.integers(0, source.order - 1))] = draw(cells)
    return source, target, draw(st.just(mapping) | st.lists(cells, max_size=9))


@FUZZ
@given(element_maps())
def test_hom_from_map_raises_only_package_errors(case):
    source, target, mapping = case
    try:
        h = hom_from_map(source, target, mapping)
    except CentlatError:
        return
    assert all(type(v) is int for v in mapping) and h.mapping == tuple(mapping)
    pairs = [(a, b) for a in range(source.order) for b in range(source.order)]
    assert all(target.mul(h.mapping[a], h.mapping[b]) == h.mapping[source.mul(a, b)] for a, b in pairs)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 9) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=12,
)
group_docs = st.fixed_dictionaries(
    {"order": json_values | st.integers(0, 8), "table": json_values | st.lists(rows, max_size=8)},
    optional={
        "generators": json_values | st.dictionaries(st.text(max_size=2), st.integers(-2, 9), max_size=3),
        "labels": json_values | labels,
        "extra": json_values,
    },
)


@FUZZ
@given(st.one_of(json_values, group_docs, group_docs.map(json.dumps), st.text(), st.binary()))
def test_group_from_json_raises_only_package_errors(doc):
    try:
        group_from_json(doc)
    except CentlatError:
        pass


SMALL_GROUP_DOCS = [group_to_json(e.group) for e in catalog(8)]
hom_docs = st.fixed_dictionaries(
    {
        "source": json_values | group_docs | st.sampled_from(SMALL_GROUP_DOCS),
        "target": json_values | group_docs | st.sampled_from(SMALL_GROUP_DOCS),
        "map": json_values | st.lists(st.integers(-1, 8) | st.booleans(), max_size=8),
    },
    optional={"extra": json_values},
)


@FUZZ
@given(st.one_of(json_values, hom_docs, hom_docs.map(json.dumps), st.text(), st.binary()))
def test_hom_from_json_raises_only_package_errors(doc):
    try:
        hom_from_json(doc)
    except CentlatError:
        pass


VALID_EXPRS = (
    "cyclic(8)",
    "product(dihedral(8), cyclic(2))",
    "semidirect(4,4,3)",
    "quotient(quaternion(8), [x^2])",
    "quotient(product(cyclic(4),cyclic(2)), [x*y^-1, y])",
    'table("g.json")',
)
# grammar pieces, plus characters that str.isdigit or str.isalpha accepts
# but int() or the grammar does not
EXPR_PIECES = FAMILY_TOKENS + ("product", "semidirect", "quotient", "table", "x", "y_1", "a.b", "")
EXPR_PIECES += tuple("()[],*^-") + ("0", "16", "007", "\u00b2", "\u0663", "\u00e9", '"', "\\", "\n")


@st.composite
def expr_texts(draw):
    """A valid expression with a few pieces replaced or inserted, or random text."""
    if draw(st.booleans()):
        return draw(st.text(max_size=30))
    pieces = re.findall(r'\w+|"[^"]*"|.', draw(st.sampled_from(VALID_EXPRS)))
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(pieces)))
        piece = draw(st.sampled_from(EXPR_PIECES))
        if draw(st.booleans()) and i < len(pieces):
            pieces[i] = piece
        else:
            pieces.insert(i, piece)
    return "".join(pieces)


@FUZZ
@given(expr_texts())
def test_parse_group_expr_raises_only_package_errors(text):
    try:
        expr = parse_group_expr(text)
    except CentlatError:
        return
    assert parse_group_expr(pretty(expr)) == expr


MALFORMED_TABLES = {
    "truncated.json": b'{"order": 3, "table": [[0, 1',
    "not_utf8.json": b'{"labels": ["\xe9"]}',
    "array.json": b"[[0]]",
    "unknown_key.json": b'{"order": 1, "table": [[0]], "extra": 1}',
    "no_identity.json": b'{"order": 2, "table": [[1, 1], [1, 1]]}',
    "bad_generators.json": b'{"order": 2, "table": [[0, 1], [1, 0]], "generators": {"x": 0}}',
    "cyclic64.json": json.dumps(group_to_json(make_family("cyclic", 64))).encode(),  # over small caps
}


@pytest.fixture(scope="module")
def table_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("tables")
    for name, data in MALFORMED_TABLES.items():
        (d / name).write_bytes(data)
    return d


def _cli_expr(data, table_dir) -> str:
    kind = data.draw(st.sampled_from(("perturbed", "nested", "table")))
    if kind == "perturbed":
        return data.draw(expr_texts())
    if kind == "nested":
        # thousands of levels: Hypothesis raises the recursion limit while it runs
        depths = st.sampled_from((MAX_NESTING - 1, MAX_NESTING, 5000)) | st.integers(0, 5000)
        depth = data.draw(depths)
        if data.draw(st.booleans()):
            return "product(cyclic(1)," * depth + "cyclic(2)" + ")" * depth
        return "product(" * depth
    # a malformed file, a missing one, or the directory itself
    name = data.draw(st.sampled_from(sorted(MALFORMED_TABLES) + ["missing.json", ""]))
    return pretty(TableExpr(str(table_dir / name)))


@FUZZ
@given(st.data())
def test_cli_exits_only_with_documented_codes(table_dir, data):
    command = data.draw(st.sampled_from(("lattice", "check-crh", "iso", "export", "verify")))
    if command == "verify":
        argv = [command, data.draw(st.sampled_from(("figure3", "corollary", "functor-laws", "x")))]
    else:
        argv = [command] + [_cli_expr(data, table_dir) for _ in range(1 + (command == "iso"))]
    for _ in range(data.draw(st.integers(0, 3))):
        flag = data.draw(st.sampled_from(("--json", "--dot", "--n", "--cap", "--bogus")))
        argv.append(flag)
        if flag == "--n":  # a valid n above 4 only makes the run slow
            argv.append(str(data.draw(st.integers(-1, 4) | st.integers(8, 10))))
        elif flag == "--cap":
            argv.append(data.draw(st.integers(-2, 64).map(str) | st.sampled_from(("", "x", "2.5"))))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 64, 74), (argv, err.getvalue())

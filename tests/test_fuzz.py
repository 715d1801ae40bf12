"""Random input on the readers of outside data (tables, group and
homomorphism documents, group expressions): whatever arrives, the only
exceptions are the package's own (and the documented ``ValueError`` of
``from_multiplication_table`` for labels and generator hints)."""

from __future__ import annotations

import json
import re

import pytest

from centlat import (
    catalog,
    from_multiplication_table,
    group_from_json,
    group_to_json,
    hom_from_json,
    parse_group_expr,
)
from centlat.expr import FAMILY_TOKENS, pretty
from centlat.errors import CentlatError, NotAssociativeError

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

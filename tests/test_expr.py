from __future__ import annotations

import json

import pytest

from centlat import group_to_json, make_family
from centlat.errors import (
    ExprParseError,
    OrderCapExceededError,
    UnknownGeneratorError,
)
from centlat.expr import (
    MAX_NESTING,
    FamilyExpr,
    ProductExpr,
    QuotientExpr,
    SemidirectExpr,
    TableExpr,
    WordTerm,
    eval_group_expr,
    parse_group_expr,
    pretty,
    resolve_word,
)


def ev(text: str, **kw):
    return eval_group_expr(parse_group_expr(text), **kw)


# ------------------------------------------------------------------ parsing


def test_parse_family():
    assert parse_group_expr("cyclic(12)") == FamilyExpr("cyclic", 12)
    assert parse_group_expr(" dihedral ( 8 ) ") == FamilyExpr("dihedral", 8)
    assert parse_group_expr("cover_dq(3)") == FamilyExpr("cover_dq", 3)
    assert parse_group_expr("cover_qsd(4)") == FamilyExpr("cover_qsd", 4)


def test_parse_nested():
    expr = parse_group_expr("product(cyclic(2),product(cyclic(3),dihedral(8)))")
    assert expr == ProductExpr(
        FamilyExpr("cyclic", 2),
        ProductExpr(FamilyExpr("cyclic", 3), FamilyExpr("dihedral", 8)),
    )
    assert parse_group_expr("semidirect(4,4,3)") == SemidirectExpr(4, 4, 3)


def test_parse_quotient_words():
    expr = parse_group_expr("quotient(quaternion(8),[x^2, x*y^-1])")
    assert isinstance(expr, QuotientExpr)
    assert expr.words == (
        (WordTerm("x", 2),),
        (WordTerm("x", 1), WordTerm("y", -1)),
    )
    # empty relator list: quotient by the trivial subgroup
    empty = parse_group_expr("quotient(cyclic(4),[])")
    assert empty.words == ()


def test_parse_table_path():
    expr = parse_group_expr('table("some/dir/g.json")')
    assert expr == TableExpr("some/dir/g.json")
    escaped = parse_group_expr('table("we\\"ird.json")')
    assert escaped.path == 'we"ird.json'


def test_parse_dotted_generator_names():
    expr = parse_group_expr("quotient(product(cyclic(2),cyclic(2)),[l.x*r.x])")
    assert expr.words == ((WordTerm("l.x", 1), WordTerm("r.x", 1)),)


@pytest.mark.parametrize(
    "text,line,col",
    [
        ("dihedral(", 1, 9),        # eof where an integer belongs
        ("cyclic(4) extra", 1, 10), # trailing input
        ("wedge(4)", 1, 0),         # unknown constructor
        ("cyclic(x)", 1, 7),        # non-integer parameter
        ("cyclic 4", 1, 7),         # missing parenthesis
        ("quotient(cyclic(4),[x^])", 1, 22),  # dangling caret
        ('table("unclosed', 1, 6),  # unterminated string
        ("cyclic(4)!", 1, 9),       # stray character
        ("\n  cyclic(!)", 2, 9),    # position tracking across newlines
        ("cyclic(\u00b2)", 1, 7),   # a digit to str.isdigit, not to int()
        pytest.param("cyclic(" + "9" * 5000 + ")", 1, 7, id="more-digits-than-int-converts"),
        # the first constructor past the nesting limit, not a RecursionError
        pytest.param(
            "product(" * 1200, 1, len("product(") * MAX_NESTING, id="nested-past-the-limit"
        ),
    ],
)
def test_parse_error_positions(text, line, col):
    with pytest.raises(ExprParseError) as exc:
        parse_group_expr(text)
    assert (exc.value.line, exc.value.col) == (line, col)


def test_parse_error_mentions_expectations():
    with pytest.raises(ExprParseError) as exc:
        parse_group_expr("product(cyclic(2) cyclic(3))")
    assert exc.value.expected  # non-empty hint


# ------------------------------------------------------------ pretty-printing


@pytest.mark.parametrize(
    "text",
    [
        "cyclic(12)",
        "dihedral(8)",
        "cover_qsd(4)",
        "product(cyclic(2),product(cyclic(3),dihedral(8)))",
        "semidirect(4,4,3)",
        "quotient(semidirect(4,4,3),[x^2*y^2])",
        "quotient(quaternion(8),[x^2,y^-1])",
        "quotient(cyclic(4),[])",
        'table("g.json")',
    ],
)
def test_pretty_round_trip(text):
    expr = parse_group_expr(text)
    canon = pretty(expr)
    assert parse_group_expr(canon) == expr
    assert pretty(parse_group_expr(canon)) == canon


# --------------------------------------------------------------- evaluation


def test_eval_families_and_covers():
    assert ev("cyclic(5)").group.order == 5
    assert ev("cover_dq(3)").group.order == 16
    assert ev("cover_qsd(4)").group.order == 32


def test_eval_word_resolution():
    g = make_family("quaternion", 8)
    assert resolve_word(g, (WordTerm("x", 2),)) == 2
    assert resolve_word(g, (WordTerm("x", -1),)) == g.inverse[1]
    assert resolve_word(g, (WordTerm("x", 1), WordTerm("y", 1))) == g.mul(1, 4)
    assert resolve_word(g, ()) == g.identity
    with pytest.raises(UnknownGeneratorError) as exc:
        resolve_word(g, (WordTerm("z", 1),))
    assert exc.value.known == ("x", "y")


def test_eval_quotient_carries_projection():
    result = ev("quotient(semidirect(4,4,3),[x^2*y^2])")
    assert result.projection is not None
    assert result.group.order == 8
    assert result.projection.source.order == 16
    # trivial quotient: projection is a bijection
    full = ev("quotient(cyclic(6),[])")
    assert full.group.order == 6 and full.projection.is_bijective()


def test_eval_nested_exactly_to_the_limit():
    text = "cyclic(1)"
    for _ in range(MAX_NESTING - 1):
        text = f"product(cyclic(1),{text})"
    assert ev(text).group.order == 1


def test_eval_non_quotient_has_no_projection():
    assert ev("dihedral(8)").projection is None


def test_eval_cap_applies_everywhere():
    with pytest.raises(OrderCapExceededError):
        ev("cyclic(12)", cap=8)
    with pytest.raises(OrderCapExceededError):
        ev("product(cyclic(4),cyclic(4))", cap=8)
    with pytest.raises(OrderCapExceededError):
        ev("semidirect(8,2,3)", cap=8)
    with pytest.raises(OrderCapExceededError):
        ev("cover_qsd(4)", cap=16)
    # the quotient itself may be small, but the inner group must fit the cap
    with pytest.raises(OrderCapExceededError):
        ev("quotient(cyclic(32),[x])", cap=16)


def test_eval_table_round_trip(tmp_path):
    g = make_family("semidihedral", 16)
    path = tmp_path / "sd16.json"
    path.write_text(json.dumps(group_to_json(g)), encoding="utf-8")
    loaded = ev(f'table("{path}")').group
    assert loaded.same_table(g)
    # relative paths resolve against base_dir
    rel = eval_group_expr(parse_group_expr('table("sd16.json")'), base_dir=tmp_path)
    assert rel.group.same_table(g)
    # and a loaded table can feed any constructor
    quot = eval_group_expr(
        parse_group_expr(f'quotient(table("{path}"),[x^4])')
    )
    assert quot.group.order == 8


def test_eval_table_missing_file(tmp_path):
    with pytest.raises(OSError):
        ev(f'table("{tmp_path}/nope.json")')

from __future__ import annotations

import json
import re
import tracemalloc

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


@pytest.mark.parametrize(
    "text,message",
    [
        # a backslash with no next character to take leaves the string open
        ('table("abc\\', "line 1, column 6: unterminated string"),
        ('table("g.json") x', "line 1, column 16: trailing input 'x' (expected end of input)"),
        ("quotient(cyclic(4),[x", "line 1, column 21: unexpected end of input (expected ])"),
        # nesting counts through every expression argument
        ("quotient(" * 201, "line 1, column 1800: expression nested deeper than 200 levels"),
        ("product(cyclic(1)," * 201, "line 1, column 3590: expression nested deeper than 200 levels"),
        # a column on a later line, for each kind of token
        ("cyclic(4)\n )", "line 2, column 1: trailing input ')' (expected end of input)"),
        ("cyclic(\n 4 4)", "line 2, column 3: unexpected int '4' (expected ))"),
        ("cyclic(4)\n x", "line 2, column 1: trailing input 'x' (expected end of input)"),
        ('cyclic(4)\n "x"', "line 2, column 1: trailing input 'x' (expected end of input)"),
        ('table(\n "x', "line 2, column 1: unterminated string"),
        ("cyclic(\n  ", "line 2, column 2: unexpected end of input (expected an integer)"),
        # after a string that holds a newline, lines and columns count from it
        ('table("a\nb") x', "line 2, column 4: trailing input 'x' (expected end of input)"),
        ('table("a\\\nb") x', "line 2, column 4: trailing input 'x' (expected end of input)"),
        ('table("a\nb\nc")\n  x', "line 4, column 2: trailing input 'x' (expected end of input)"),
        ('product(table("a\nb") cyclic(2))', "line 2, column 4: unexpected ident 'cyclic' (expected ,)"),
        ('quotient(table("a\nb"),[x', "line 2, column 6: unexpected end of input (expected ])"),
        # the string token itself keeps its opening quote's position
        ('cyclic(4) "a\nb"', "line 1, column 10: trailing input 'a\\nb' (expected end of input)"),
        ('table("a\nb', "line 1, column 6: unterminated string"),
    ],
)
def test_parse_error_messages(text, message):
    with pytest.raises(ExprParseError) as exc:
        parse_group_expr(text)
    assert str(exc.value) == f"parse error at {message}"


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


def test_pretty_and_eval_refuse_what_is_not_an_expression():
    # the one deliberate TypeError of the package (see centlat.errors)
    with pytest.raises(TypeError, match=r"^not an expression: \('cyclic', 4\)$"):
        pretty(("cyclic", 4))
    with pytest.raises(TypeError, match=r"^not an expression: 'cyclic\(4\)'$"):
        eval_group_expr("cyclic(4)")


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


def test_eval_cap_refuses_huge_covers_without_building_them():
    # a cover's order 2^(n+1) is built only below 2^14 bits or the cap's bit
    # length; a larger one is named by its power, as is a built order with
    # more digits than int-to-str conversion allows
    tracemalloc.start()
    try:
        with pytest.raises(OrderCapExceededError, match=r"^cover group order 2\^100000001 exceeds cap 256$"):
            ev("cover_dq(100000000)")
        assert tracemalloc.get_traced_memory()[1] < 1 << 20  # 2^100000001 takes 12.5 MB
    finally:
        tracemalloc.stop()
    big = 1 << 20000  # a cap of 20001 bits, itself too long to print
    cases = [
        ("cover_dq(10000)", 256, f"{1 << 10001} exceeds cap 256"),
        ("cover_qsd(16383)", 256, "2^16384 exceeds cap 256"),  # built, and too long to print
        ("cover_qsd(16384)", 256, "2^16385 exceeds cap 256"),  # not built
        ("cover_dq(20000)", big, "2^20001 exceeds cap 2^20000"),  # built: 20000 < 20001 cap bits
        ("cover_dq(20001)", big, "2^20002 exceeds cap 2^20000"),
        ("cover_dq(20001)", big + 1, "2^20002 exceeds cap above 2^20000"),
        ("cover_dq(100000000000000000000)", 64, "2^100000000000000000001 exceeds cap 64"),
    ]
    for text, cap, message in cases:
        with pytest.raises(OrderCapExceededError, match=f"^cover group order {re.escape(message)}$"):
            ev(text, cap=cap)


def test_eval_table_round_trip(tmp_path, monkeypatch):
    g = make_family("semidihedral", 16)
    path = tmp_path / "sd16.json"
    path.write_text(json.dumps(group_to_json(g)), encoding="utf-8")
    loaded = ev(f'table("{path}")').group
    assert loaded.same_table(g)
    # relative paths resolve against the working directory
    monkeypatch.chdir(tmp_path)
    rel = ev('table("sd16.json")')
    assert rel.group.same_table(g)
    # and a loaded table can feed any constructor
    quot = eval_group_expr(
        parse_group_expr(f'quotient(table("{path}"),[x^4])')
    )
    assert quot.group.order == 8


def test_eval_table_missing_file(tmp_path):
    with pytest.raises(OSError):
        ev(f'table("{tmp_path}/nope.json")')

"""The small expression language the CLI uses to name groups.

    expr  := FAMILY "(" INT ")" | "product" "(" expr "," expr ")"
           | "semidirect" "(" INT "," INT "," INT ")"
           | "quotient" "(" expr "," "[" [word ("," word)*] "]" ")"
           | "table" "(" STRING ")"
    word  := term ("*" term)*
    term  := IDENT ("^" "-"? INT)?

with FAMILY one of cyclic, dihedral, quaternion, semidihedral, cover_dq,
cover_qsd.  For the two covers the argument is the index n (group order
2^(n+1)); for the other families it is the group order.  Words name
generators of the group being quotiented; an empty word list quotients by
the trivial subgroup.  Parse errors carry 1-based line and 0-based column;
an expression nested more than ``MAX_NESTING`` constructors deep is one.
"""

from __future__ import annotations

from pathlib import Path
from typing import NamedTuple, Union

from .core import (
    _GROUP_KEYS,
    DEFAULT_ORDER_CAP,
    FiniteGroup,
    _is_integral,
    _json_object,
    _require_order_at_most,
    closure,
    group_from_json,
)
from .errors import ExprParseError, TableJsonError, UnknownGeneratorError
from .families import cover_group, direct_product, make_family, semidirect_cyclic
from .homs import GroupHom, quotient

FAMILY_TOKENS = ("cyclic", "dihedral", "quaternion", "semidihedral", "cover_dq", "cover_qsd")
_CONSTRUCTOR_TOKENS = FAMILY_TOKENS + ("product", "semidirect", "quotient", "table")

#: Deepest nesting of constructors an expression may have; deeper input is a
#: parse error rather than a recursion overflow.
MAX_NESTING = 200


class FamilyExpr(NamedTuple):
    kind: str
    param: int


class ProductExpr(NamedTuple):
    left: "Expr"
    right: "Expr"


class SemidirectExpr(NamedTuple):
    m: int
    k: int
    a: int


class WordTerm(NamedTuple):
    name: str
    exponent: int = 1


class QuotientExpr(NamedTuple):
    inner: "Expr"
    words: tuple[tuple[WordTerm, ...], ...]


class TableExpr(NamedTuple):
    path: str


Expr = Union[FamilyExpr, ProductExpr, SemidirectExpr, QuotientExpr, TableExpr]


# ---------------------------------------------------------------------------
# lexer

_SYMBOLS = "()[],*^-"


class _Token(NamedTuple):
    kind: str  # "ident" | "int" | "string" | one of _SYMBOLS | "eof"
    value: str
    line: int
    col: int


def _lex(text: str) -> list[_Token]:
    tokens = []
    line, col, i = 1, 0, 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line, col, i = line + 1, 0, i + 1
            continue
        if ch in " \t\r":
            col, i = col + 1, i + 1
            continue
        if ch in _SYMBOLS:
            tokens.append(_Token(ch, ch, line, col))
            col, i = col + 1, i + 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(_Token("int", text[i:j], line, col))
            col, i = col + (j - i), j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] in "_."):
                j += 1
            tokens.append(_Token("ident", text[i:j], line, col))
            col, i = col + (j - i), j
            continue
        if ch == '"':
            j, out = i + 1, []
            while j < len(text) and text[j] != '"':
                if text[j] == "\\" and j + 1 < len(text):
                    out.append(text[j + 1])
                    j += 2
                else:
                    out.append(text[j])
                    j += 1
            if j >= len(text):
                raise ExprParseError("unterminated string", line, col)
            tokens.append(_Token("string", "".join(out), line, col))
            col, i = col + (j + 1 - i), j + 1
            continue
        raise ExprParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("eof", "", line, col))
    return tokens


# ---------------------------------------------------------------------------
# parser


class _Parser:
    def __init__(self, tokens: list[_Token]) -> None:
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self, kind: str, expected: tuple[str, ...] = ()) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != kind:
            what = expected or (kind,)
            raise ExprParseError(
                f"unexpected {tok.kind} {tok.value!r}" if tok.kind != "eof" else "unexpected end of input",
                tok.line,
                tok.col,
                what,
            )
        self.pos += 1
        return tok

    def parse_int(self) -> int:
        tok = self.take("int", ("an integer",))
        try:
            return int(tok.value)
        except ValueError:  # a digit int() rejects ("²"), or too many digits
            raise ExprParseError(
                f"invalid integer {tok.value[:20]!r}", tok.line, tok.col, ("an integer",)
            ) from None

    def parse_expr(self, depth: int = 1) -> Expr:
        if depth > MAX_NESTING:
            tok = self.peek()
            raise ExprParseError(
                f"expression nested deeper than {MAX_NESTING} levels", tok.line, tok.col
            )
        tok = self.take("ident", _CONSTRUCTOR_TOKENS)
        name = tok.value
        if name in FAMILY_TOKENS:
            self.take("(")
            n = self.parse_int()
            self.take(")")
            return FamilyExpr(name, n)
        if name == "product":
            self.take("(")
            left = self.parse_expr(depth + 1)
            self.take(",")
            right = self.parse_expr(depth + 1)
            self.take(")")
            return ProductExpr(left, right)
        if name == "semidirect":
            self.take("(")
            m = self.parse_int()
            self.take(",")
            k = self.parse_int()
            self.take(",")
            a = self.parse_int()
            self.take(")")
            return SemidirectExpr(m, k, a)
        if name == "quotient":
            self.take("(")
            inner = self.parse_expr(depth + 1)
            self.take(",")
            self.take("[")
            words: list[tuple[WordTerm, ...]] = []
            if self.peek().kind != "]":
                words.append(self.parse_word())
                while self.peek().kind == ",":
                    self.take(",")
                    words.append(self.parse_word())
            self.take("]")
            self.take(")")
            return QuotientExpr(inner, tuple(words))
        if name == "table":
            self.take("(")
            path = self.take("string", ("a quoted file path",)).value
            self.take(")")
            return TableExpr(path)
        raise ExprParseError(
            f"unknown constructor {name!r}", tok.line, tok.col, _CONSTRUCTOR_TOKENS
        )

    def parse_word(self) -> tuple[WordTerm, ...]:
        terms = [self.parse_term()]
        while self.peek().kind == "*":
            self.take("*")
            terms.append(self.parse_term())
        return tuple(terms)

    def parse_term(self) -> WordTerm:
        name = self.take("ident", ("a generator name",)).value
        exponent = 1
        if self.peek().kind == "^":
            self.take("^")
            sign = 1
            if self.peek().kind == "-":
                self.take("-")
                sign = -1
            exponent = sign * self.parse_int()
        return WordTerm(name, exponent)


def parse_group_expr(text: str) -> Expr:
    parser = _Parser(_lex(text))
    expr = parser.parse_expr()
    tok = parser.peek()
    if tok.kind != "eof":
        raise ExprParseError(f"trailing input {tok.value!r}", tok.line, tok.col, ("end of input",))
    return expr


def pretty(expr: Expr) -> str:
    """Canonical text form; parsing it yields an equal expression."""
    if isinstance(expr, FamilyExpr):
        return f"{expr.kind}({expr.param})"
    if isinstance(expr, ProductExpr):
        return f"product({pretty(expr.left)},{pretty(expr.right)})"
    if isinstance(expr, SemidirectExpr):
        return f"semidirect({expr.m},{expr.k},{expr.a})"
    if isinstance(expr, QuotientExpr):
        words = ",".join(
            "*".join(t.name if t.exponent == 1 else f"{t.name}^{t.exponent}" for t in word)
            for word in expr.words
        )
        return f"quotient({pretty(expr.inner)},[{words}])"
    if isinstance(expr, TableExpr):
        escaped = expr.path.replace("\\", "\\\\").replace('"', '\\"')
        return f'table("{escaped}")'
    raise TypeError(f"not an expression: {expr!r}")


# ---------------------------------------------------------------------------
# evaluation


class EvalResult(NamedTuple):
    """A constructed group, plus the quotient projection when the top-level
    expression was a quotient."""

    group: FiniteGroup
    projection: GroupHom | None = None


def resolve_word(group: FiniteGroup, word: tuple[WordTerm, ...]) -> int:
    """Element named by a product of generator powers."""
    gens = dict(group.generator_names)
    value = group.identity
    for term in word:
        if term.name not in gens:
            raise UnknownGeneratorError(term.name, tuple(name for name, _ in group.generator_names))
        value = group.mul(value, group.power(gens[term.name], term.exponent))
    return value


def eval_group_expr(expr: Expr, cap: int = DEFAULT_ORDER_CAP) -> EvalResult:
    """Evaluate an expression to a group (plus projection for quotients).

    ``cap`` bounds the order of every group constructed along the way; a
    relative table() path resolves against the working directory.
    """
    if isinstance(expr, FamilyExpr):
        if expr.kind in ("cover_dq", "cover_qsd"):
            order = 1 << (expr.param + 1) if expr.param >= 0 else 0
            _require_order_at_most(order, cap, "cover group")
            kind = "dihedral_quaternion" if expr.kind == "cover_dq" else "quaternion_semidihedral"
            return EvalResult(cover_group(kind, expr.param).group)
        _require_order_at_most(expr.param, cap, f"{expr.kind} group")
        return EvalResult(make_family(expr.kind, expr.param))
    if isinstance(expr, ProductExpr):
        left = eval_group_expr(expr.left, cap).group
        right = eval_group_expr(expr.right, cap).group
        return EvalResult(direct_product(left, right, cap))
    if isinstance(expr, SemidirectExpr):
        return EvalResult(semidirect_cyclic(expr.m, expr.k, expr.a, cap))
    if isinstance(expr, QuotientExpr):
        inner = eval_group_expr(expr.inner, cap).group
        elements = [resolve_word(inner, word) for word in expr.words]
        sub = closure(inner, elements)
        q, proj = quotient(inner, sub)
        return EvalResult(q, proj)
    if isinstance(expr, TableExpr):
        path = Path(expr.path)
        try:
            text = path.read_text(encoding="utf-8")
        except UnicodeDecodeError as e:
            raise TableJsonError(f"{path} is not UTF-8 text: {e}") from e
        doc = _json_object(text, "group", _GROUP_KEYS)
        if _is_integral(doc.get("order")):  # refuse before the table is validated
            _require_order_at_most(doc["order"], cap, "loaded group")
        return EvalResult(group_from_json(doc))
    raise TypeError(f"not an expression: {expr!r}")

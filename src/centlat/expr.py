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

from functools import partial
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

#: Each constructor's record and the kinds of the arguments it takes between
#: parentheses, separated by commas: "int", "expr", "words" (a bracketed word
#: list) or "string"; a family's record takes its token first.
_GRAMMAR = {
    **{name: (partial(FamilyExpr, name), ("int",)) for name in FAMILY_TOKENS},
    "product": (ProductExpr, ("expr", "expr")),
    "semidirect": (SemidirectExpr, ("int", "int", "int")),
    "quotient": (QuotientExpr, ("expr", "words")),
    "table": (TableExpr, ("string",)),
}
_CONSTRUCTOR_TOKENS = tuple(_GRAMMAR)


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
    line, start, i = 1, 0, 0  # start: the index where the current line starts
    while i < len(text):
        ch, j = text[i], i + 1
        if ch == "\n":
            line, start = line + 1, j
        elif ch in _SYMBOLS:
            tokens.append(_Token(ch, ch, line, i - start))
        elif ch.isdigit():
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(_Token("int", text[i:j], line, i - start))
        elif ch.isalpha() or ch == "_":
            while j < len(text) and (text[j].isalnum() or text[j] in "_."):
                j += 1
            tokens.append(_Token("ident", text[i:j], line, i - start))
        elif ch == '"':
            out, at = [], (line, i - start)  # the token keeps its opening quote's position
            while j < len(text) and text[j] != '"':
                if text[j] == "\\" and j + 1 < len(text):
                    j += 1
                if text[j] == "\n":
                    line, start = line + 1, j + 1
                out.append(text[j])
                j += 1
            if j >= len(text):
                raise ExprParseError("unterminated string", *at)
            tokens.append(_Token("string", "".join(out), *at))
            j += 1
        elif ch not in " \t\r":
            raise ExprParseError(f"unexpected character {ch!r}", line, i - start)
        i = j
    tokens.append(_Token("eof", "", line, i - start))
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
            raise ExprParseError(f"expression nested deeper than {MAX_NESTING} levels", tok.line, tok.col)
        tok = self.take("ident", _CONSTRUCTOR_TOKENS)
        if tok.value not in _GRAMMAR:
            raise ExprParseError(f"unknown constructor {tok.value!r}", tok.line, tok.col, _CONSTRUCTOR_TOKENS)
        record, kinds = _GRAMMAR[tok.value]
        args: list = []
        self.take("(")
        for kind in kinds:
            if args:
                self.take(",")
            if kind == "int":
                args.append(self.parse_int())
            elif kind == "expr":
                args.append(self.parse_expr(depth + 1))
            elif kind == "words":
                args.append(self.parse_words())
            else:
                args.append(self.take("string", ("a quoted file path",)).value)
        self.take(")")
        return record(*args)

    def parse_words(self) -> tuple[tuple[WordTerm, ...], ...]:
        self.take("[")
        words: list[tuple[WordTerm, ...]] = []
        if self.peek().kind != "]":
            words.append(self.parse_word())
            while self.peek().kind == ",":
                self.take(",")
                words.append(self.parse_word())
        self.take("]")
        return tuple(words)

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
            kind = "dihedral_quaternion" if expr.kind == "cover_dq" else "quaternion_semidihedral"
            return EvalResult(cover_group(kind, expr.param, cap).group)
        return EvalResult(make_family(expr.kind, expr.param, cap))
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

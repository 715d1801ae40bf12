"""Exception hierarchy used across the package.

Every error raised on purpose derives from :class:`CentlatError`, so callers
(notably the CLI) can separate expected failures from genuine bugs.  Errors
carry the offending indices/values as attributes; the message is rendered
from them so diagnostics stay deterministic.
"""

from __future__ import annotations


class CentlatError(Exception):
    """Base class for all package errors."""


# ---------------------------------------------------------------------------
# multiplication-table validation


class TableValidationError(CentlatError):
    """A proposed multiplication table is not a group table."""


class NotClosedError(TableValidationError):
    def __init__(self, row: int, col: int, value: object) -> None:
        self.row, self.col, self.value = row, col, value
        super().__init__(
            f"table entry at ({row}, {col}) is {value!r}, not an element index"
        )


class NoIdentityError(TableValidationError):
    def __init__(self) -> None:
        super().__init__("table has no two-sided identity element")


class NoInverseError(TableValidationError):
    def __init__(self, element: int) -> None:
        self.element = element
        super().__init__(f"element {element} has no two-sided inverse")


class NotAssociativeError(TableValidationError):
    def __init__(self, a: int, b: int, c: int, lhs: int, rhs: int) -> None:
        self.triple = (a, b, c)
        self.lhs, self.rhs = lhs, rhs
        super().__init__(
            f"associativity fails at ({a}, {b}, {c}): "
            f"({a}*{b})*{c} = {lhs} but {a}*({b}*{c}) = {rhs}"
        )


# ---------------------------------------------------------------------------
# size guards and constructor parameter checks


class OrderCapExceededError(CentlatError):
    def __init__(self, order: int, cap: int, what: str = "group") -> None:
        self.order, self.cap = order, cap
        super().__init__(f"{what} order {order} exceeds cap {cap}")


class NodeCapExceededError(CentlatError):
    def __init__(self, count: int, cap: int) -> None:
        self.count, self.cap = count, cap
        super().__init__(f"lattice node count {count} exceeds cap {cap}")


class UnsupportedParameterError(CentlatError):
    """A family/cover constructor was called with parameters outside its domain."""


class InvalidActionError(CentlatError):
    """The twisting parameter of a semidirect product is not a valid action."""


# ---------------------------------------------------------------------------
# homomorphisms and quotients


class NotHomomorphismError(CentlatError):
    def __init__(self, a: int, b: int, got: int, expected: int) -> None:
        self.pair = (a, b)
        self.got, self.expected = got, expected
        super().__init__(
            f"map is not a homomorphism: phi({a}*{b}) = {expected} "
            f"but phi({a})*phi({b}) = {got}"
        )

    @classmethod
    def _bad_map(cls, problem: str, got: object = -1) -> "NotHomomorphismError":
        """A map rejected before any product: pair (0, 0), expected -1."""
        self = cls.__new__(cls)
        CentlatError.__init__(self, f"map is not a homomorphism: {problem}")
        self.pair, self.got, self.expected = (0, 0), got, -1
        return self


class NotNormalError(CentlatError):
    def __init__(self, conjugator: int, element: int, conjugate: int) -> None:
        self.conjugator, self.element, self.conjugate = conjugator, element, conjugate
        super().__init__(
            f"subgroup is not normal: conjugating {element} by {conjugator} "
            f"gives {conjugate}, which is outside the subgroup"
        )


class NotSurjectiveError(CentlatError):
    def __init__(self, missed: int) -> None:
        self.missed = missed
        super().__init__(f"homomorphism is not surjective: {missed} has no preimage")


class KernelNotCentralError(CentlatError):
    def __init__(self, kernel_element: int, witness: int) -> None:
        self.kernel_element, self.witness = kernel_element, witness
        super().__init__(
            f"kernel element {kernel_element} does not commute with {witness}"
        )


class DomainMismatchError(CentlatError):
    """Two maps were combined whose source/target groups do not line up."""


class NotCrhError(CentlatError):
    """An operation required a centralizer-respecting homomorphism but got one
    that fails the definitional check."""

    def __init__(self, message: str, witness=None) -> None:
        self.witness = witness
        super().__init__(message)


class ImageNotANodeError(CentlatError):
    def __init__(self, node_members: tuple[int, ...], image: tuple[int, ...]) -> None:
        self.node_members, self.image = node_members, image
        super().__init__(
            f"image {list(image)} of lattice node {list(node_members)} "
            "is not a node of the target lattice"
        )


# ---------------------------------------------------------------------------
# expression language and I/O


class ExprParseError(CentlatError):
    def __init__(self, message: str, line: int, col: int, expected: tuple[str, ...] = ()) -> None:
        self.line, self.col, self.expected = line, col, expected
        hint = f" (expected {', '.join(expected)})" if expected else ""
        super().__init__(f"parse error at line {line}, column {col}: {message}{hint}")


class UnknownGeneratorError(CentlatError):
    def __init__(self, name: str, known: tuple[str, ...]) -> None:
        self.name, self.known = name, known
        super().__init__(
            f"unknown generator {name!r}; group provides {', '.join(known) or '(none)'}"
        )


class TableJsonError(CentlatError):
    """A JSON document does not match the expected schema."""


class InternalInconsistencyError(CentlatError):
    """Two independent computations of the same fact disagreed, or a
    structural self-check failed.

    This is never expected to fire; it exists so that disagreement is loud
    instead of silently picking one answer.
    """


def _ensure(ok: bool, message: str) -> None:
    """A structural self-check that, unlike ``assert``, survives ``python -O``."""
    if not ok:
        raise InternalInconsistencyError(message)

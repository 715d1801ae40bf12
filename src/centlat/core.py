"""Finite groups as validated multiplication tables.

Elements of a group of order n are the indices 0..n-1.  A group is stored
as its full multiplication table, one row per element: a ``bytes`` object
when n <= 256, so each entry takes one byte, else a tuple of ints (see
:class:`FiniteGroup`); this module alone stores and composes rows
(:func:`_row_ops`, :func:`_walk_rows`, :func:`_rows_through`).
Construction from a table validates the four group axioms and locates the
identity (which need not be index 0).  One trust rule holds for every type:
a public constructor (:func:`from_multiplication_table`, ``SubgroupSet``,
``homs.GroupHom``) establishes its type's invariant, and package code that
builds a value by construction skips the check through a private path: the
bare :class:`FiniteGroup` constructor for quotients (G/1 is G itself) and
``families``' groups, whose builders vouch only that their rows form a
group table and that their generator names generate it,
``SubgroupSet._from_mask`` for a subgroup just closed,
``GroupHom._trusted`` for projections, composites and identities, of which
projections and identities are onto by construction and carry their kernel,
and ``lattice.LatticeMap._trusted`` for induced maps.
Subsets of a group are :class:`SubgroupSet` values backed by an integer
bitmask, so intersection, union and containment are single machine-word
operations for the orders this package targets (a few hundred elements).
"""

from __future__ import annotations

import json
import math
import numbers
import operator
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Sequence

from .errors import (
    DomainMismatchError,
    InternalInconsistencyError,
    NoIdentityError,
    NoInverseError,
    NotAssociativeError,
    NotClosedError,
    OrderCapExceededError,
    TableJsonError,
    UnsupportedParameterError,
)

#: Default ceiling on group order for the expensive enumerations.
DEFAULT_ORDER_CAP = 256


def _bits(mask: int) -> list[int]:
    """Indices of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _mask_key(mask: int, _flip=str.maketrans("01", "10")) -> tuple[int, str]:
    """Sorts masks as (order, members) sorts subgroups: at one popcount, the
    mask holding the first differing bit comes first, so the bits, from bit
    0 on, are compared flipped."""
    return mask.bit_count(), bin(mask)[:1:-1].translate(_flip)


def _gather(indices: Sequence[int]) -> Callable[[Sequence[int]], tuple[int, ...]]:
    """A function taking a row to the tuple of its entries at ``indices``,
    in order: ``operator.itemgetter(*indices)``, which picks them at C
    speed, wrapped so that one index still gives a 1-tuple."""
    if len(indices) == 1:
        (i,) = indices
        return lambda row: (row[i],)
    return operator.itemgetter(*indices)


def _is_integral(v) -> bool:
    """An integer index: any ``numbers.Integral`` (NumPy integers included)
    except ``bool``, which Python counts as an int; plain ints skip the ABC."""
    return type(v) is int or isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _require_integers(**params) -> None:
    """Refuse the first parameter that :func:`_is_integral` rejects."""
    for name, v in params.items():
        if not _is_integral(v):
            raise UnsupportedParameterError(f"{name} must be an integer, got {v!r}")


def _mask_of(group: FiniteGroup, indices: Iterable[int]) -> int:
    """Bitmask of ``indices``; the one check of element indices passed in
    from outside the package.  ``indices`` must be iterable and each index
    integral and in range for ``group``, else ``ValueError`` naming the
    first that is not.  A :class:`SubgroupSet` gives its mask if it belongs
    to a group with the same table, else :class:`DomainMismatchError`."""
    if isinstance(indices, SubgroupSet):
        if not indices.group.same_table(group):
            raise DomainMismatchError("subgroup belongs to a different group")
        return indices.mask
    try:
        indices = iter(indices)
    except TypeError:
        raise ValueError(f"{type(indices).__name__} is not an iterable of element indices") from None
    mask = 0
    for i in indices:
        if not _is_integral(i) or not 0 <= i < group.order:
            raise ValueError(f"{i!r} is not an element index of a group of order {group.order}")
        mask |= 1 << int(i)
    return mask


def _require(where: str, kind: type, *values) -> None:
    """The first check of a public function taking a package type: any
    other value raises :class:`DomainMismatchError` naming the function,
    the type it needs and the type it got."""
    for value in values:
        if not isinstance(value, kind):
            raise DomainMismatchError(f"{where} needs a {kind.__name__}, not {type(value).__name__}")


@lru_cache(maxsize=512)  # every order up to 256, and room for some above
def _row_ops(order: int) -> tuple:
    """(row type, checked, pad, compose) for order ``order``, cached:
    ``checked(row)`` is a tuple of ints as the row type, or None when an
    entry lies outside range(order), and ``compose(u)(pad(v))`` is row v
    read at the entries of row u, (v[u[0]], v[u[1]], ...).  Up to order
    256, ``bytes`` rows, range checked by deleting range(order)'s bytes and
    composed in C by ``u.translate`` through v padded to 256 bytes; above,
    tuples, checked by ``min``/``max`` and composed by :func:`_gather`."""
    if order > 256:
        return tuple, lambda row: row if min(row) >= 0 and max(row) < order else None, tuple, _gather
    in_range = bytes(range(order))

    def checked(row):
        try:
            row = bytes(row)
        except ValueError:  # an entry outside range(256)
            return None
        return None if row.translate(None, in_range) else row

    return bytes, checked, operator.methodcaller("ljust", 256), operator.attrgetter("translate")


def _walk_rows(order: int, identity: int, generators: dict[int, Sequence[int]]) -> list:
    """Rows of the group generated by the rows ``generators`` (s -> row of
    s*y over y), walked breadth-first from ``identity``: row g*s is row g
    read at the entries of row s, one :func:`_row_ops` composition per
    element.  A builder hands them to :class:`FiniteGroup`, which reads the
    identity and the inverses off them.
    :class:`InternalInconsistencyError` if fewer than ``order`` are reached."""
    row_type, _, pad, compose = _row_ops(order)
    steps = [(s, compose(row_type(row))) for s, row in generators.items()]
    rows = [None] * order
    rows[identity] = row_type(range(order))
    reached = [identity]
    for g in reached:
        row, padded = rows[g], pad(rows[g])
        for s, step in steps:
            gs = row[s]
            if rows[gs] is None:
                rows[gs] = step(padded)
                reached.append(gs)
    if len(reached) < order:
        raise InternalInconsistencyError(f"generators reach {len(reached)} of {order} elements: they do not generate")
    return rows


def _rows_through(rows: Iterable[Sequence[int]], values: Sequence[int], at: Sequence[int]) -> list:
    """For each row u of ``rows``, rows of a group of order len(values),
    ``values`` read at the entries of u, then read at the positions ``at``:
    (values[u[at[0]]], values[u[at[1]]], ...).  Two :func:`_row_ops`
    compositions per row and no gather: up to order 256 each is one
    ``translate`` and the rows come out as ``bytes``, so every value and
    position must fit a byte; above, each is a :func:`_gather`."""
    row_type, _, pad, compose = _row_ops(len(values))
    padded, pick = pad(row_type(values)), compose(row_type(at))
    return [pick(pad(compose(u)(padded))) for u in rows]


class FiniteGroup:
    """A finite group given by its multiplication table.

    Instances are immutable once built; derived data is computed lazily,
    each value in one field that only this module fills: the centralizer
    table (centralizers, center, first commutator pairs) of
    :func:`_centralizer_table` and the subgroup table of :func:`_subgroup_table`.

    ``table[a][b]`` is the index of a*b.  Each row is a ``bytes`` object
    when the order is at most 256 and a tuple of ints above, where an index
    no longer fits a byte; both index, gather, iterate and compare as
    sequences of ints, so every reader is the same for both.  Use
    :func:`group_to_json` for plain lists of ints.  :func:`_row_ops` is the
    one place that chooses the row type: builders hand the constructor a
    sequence of rows of ints of any sequence type, converted once each.  The
    order is the number of rows; the identity is the row equal to
    range(order), in a group the one row fixing every element, and each
    inverse is where that element's row holds the identity.

    ``element_labels`` is a tuple of strings, None, or a function of no
    arguments returning one of these; a function is called on the first
    read of ``element_labels`` (or :meth:`label`) and its tuple kept, so a
    group whose labels are never read never formats them.  Until then the
    function holds what it reads them from, such as a product's factors.

    The constructor checks nothing (the trusted path of the module's trust
    rule): use :func:`from_multiplication_table` for untrusted data.  Only
    :func:`centlat.homs.quotient` and the builders of :mod:`centlat.families`
    call it otherwise, each vouching that its rows form a group table and
    that the elements of ``generator_names`` generate the group, which
    :func:`center` and :func:`all_subgroups` rely on.
    """

    def __init__(
        self,
        table: Sequence[Iterable[int]],
        generator_names: tuple[tuple[str, int], ...],
        element_labels: tuple[str, ...] | Callable[[], tuple[str, ...] | None] | None = None,
    ) -> None:
        self.order = order = len(table)
        row_type = _row_ops(order)[0]  # either returns a row of its type as it is
        self.table: tuple[bytes, ...] | tuple[tuple[int, ...], ...] = tuple(map(row_type, table))
        self.identity = self.table.index(row_type(range(order)))
        self.inverse = tuple([row.index(self.identity) for row in self.table])
        self.generator_names = generator_names
        self._labels = element_labels  # a function until element_labels first reads it
        self.full_mask = (1 << order) - 1
        # lazy caches
        self._centralizers: tuple | None = None  # the centralizer table, see _centralizer_table
        self._subgroups: tuple | None = None  # the subgroup table, see _subgroup_table

    # -- basic operations ---------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def power(self, a: int, k: int) -> int:
        if k < 0:
            a, k = self.inverse[a], -k
        result = self.identity
        base = a
        while k:
            if k & 1:
                result = self.table[result][base]
            base = self.table[base][base]
            k >>= 1
        return result

    def element_orders(self) -> tuple[int, ...]:
        """The order of each element g, |<g>|, read off :func:`_cyclic_subgroups`."""
        return tuple(m.bit_count() for m in _cyclic_subgroups(self)[1])

    @property
    def element_labels(self) -> tuple[str, ...] | None:
        """One label per element, or None; formatted on first read."""
        if callable(self._labels):
            self._labels = self._labels()
        return self._labels

    def label(self, a: int) -> str:
        labels = self.element_labels
        return str(a) if labels is None else labels[a]

    def __getstate__(self) -> dict:
        """Pickled with its labels formatted, as a builder's function does not pickle."""
        return {**self.__dict__, "_labels": self.element_labels}

    # -- plumbing -----------------------------------------------------------

    def centralizer_masks(self) -> tuple[int, ...]:
        """For each element x, the bitmask of elements commuting with x: the
        first column of :func:`_centralizer_table`."""
        return _centralizer_table(self)[0]

    def same_table(self, other: "FiniteGroup") -> bool:
        """True when the two objects describe literally the same table."""
        return self is other or (self.order == other.order and self.table == other.table)

    def __repr__(self) -> str:
        gens = ",".join(name for name, _ in self.generator_names)
        return f"FiniteGroup(order={self.order}, generators=[{gens}])"


def _labels_at(group: FiniteGroup, at: Callable[[Sequence[str]], tuple[str, ...]]):
    """The labels of ``group`` picked by ``at`` (a :func:`_gather`): None or a
    tuple when ``group``'s are formatted, else a function that holds only
    ``group``'s label function and ``at``, so nothing formats them unread."""
    labels = group._labels
    if not callable(labels):
        return None if labels is None else at(labels)
    return lambda: None if (read := labels()) is None else at(read)


class SubgroupSet:
    """A subgroup of a fixed :class:`FiniteGroup`, stored as a bitmask;
    ``members``, ascending, is read off it on first use.

    The public constructor validates that the members actually form a
    subgroup (identity, closure and inverses).  Code inside the package that
    has just produced a closed set goes through :meth:`_from_mask` to skip
    the re-check.
    """

    __slots__ = ("group", "mask", "_members")

    def __init__(self, group: FiniteGroup, members: Iterable[int]) -> None:
        _require("SubgroupSet", FiniteGroup, group)
        self.group, self.mask, self._members = group, _mask_of(group, members), None
        self.validate()

    @classmethod
    def _from_mask(cls, group: FiniteGroup, mask: int) -> "SubgroupSet":
        self = object.__new__(cls)
        self.group, self.mask, self._members = group, mask, None
        return self

    @property
    def members(self) -> tuple[int, ...]:
        """The elements, ascending, read off the mask on first use."""
        if self._members is None:
            self._members = tuple(_bits(self.mask))
        return self._members

    def validate(self) -> None:
        g = self.group
        if not self.mask >> g.identity & 1:
            raise ValueError("subgroup set does not contain the identity")
        t, inverse, mask, members = g.table, g.inverse, self.mask, self.members
        for a in members:
            if not mask >> inverse[a] & 1:
                raise ValueError(f"subgroup set is missing the inverse of {a}")
            row = t[a]
            for b in members:
                if not mask >> row[b] & 1:
                    raise ValueError(f"subgroup set is not closed: {a}*{b} escapes")

    # -- set behaviour --------------------------------------------------------

    def __contains__(self, element: int) -> bool:
        return bool(self.mask >> element & 1)

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SubgroupSet):
            return NotImplemented
        return self.mask == other.mask and self.group.same_table(other.group)

    def __hash__(self) -> int:
        return hash((self.mask, self.group.order))

    def __le__(self, other: "SubgroupSet") -> bool:
        return self.mask & ~_mask_of(self.group, other) == 0

    def __and__(self, other: "SubgroupSet") -> "SubgroupSet":
        if not isinstance(other, SubgroupSet):
            return NotImplemented  # the meet with a mere index set need not be a subgroup
        return SubgroupSet._from_mask(self.group, self.mask & _mask_of(self.group, other))

    def sort_key(self) -> tuple[int, tuple[int, ...]]:
        return (len(self), self.members)

    def is_trivial(self) -> bool:
        return self.mask == 1 << self.group.identity

    def __repr__(self) -> str:
        return f"SubgroupSet(order={len(self)}, members={list(self.members)})"


# ---------------------------------------------------------------------------
# construction and validation


def from_multiplication_table(
    order: int,
    table: Iterable[Iterable[int]],
    generator_hints: Iterable[tuple[str, int]] | None = None,
    element_labels: Iterable[str] | None = None,
) -> FiniteGroup:
    """Validate a multiplication table and wrap it as a :class:`FiniteGroup`.

    Checks run in a fixed order so error reporting is deterministic: entry
    range (closure), identity, inverses, associativity.  ``generator_hints``
    names distinguished elements; when omitted a small generating set is
    chosen greedily.  The validated table is a Latin square as a consequence
    of the group axioms; no separate check is needed.

    Associativity uses Light's test (Clifford & Preston, *The Algebraic
    Theory of Semigroups*, vol. 1, section 1.2): ``(x*s)*y == x*(s*y)`` is
    checked for every x and y but only for s in a generating set S, which is
    O(n^2 |S|) work instead of O(n^3).  It is sound because the elements s
    that pass form a set closed under the product.  S must generate the
    table as a magma, so it is grown by right-multiplication closure on the
    raw table (:func:`_magma_generators`), never by :func:`_close_mask`,
    which assumes the table is already a group.  Row x of x*(s*y) is row x
    read at the entries of row s, composed at C speed (``translate`` for
    order <= 256, see :func:`_row_ops`) and compared whole with row x*s.
    On failure every triple is scanned in row-major order and the first
    failing one is reported.  Each row of plain ints is converted to the
    row type and range checked once, at C speed, and the checks and the
    group read it as it is; any other row, or one that fails, takes the
    per-cell loop, which names the first bad cell.
    """
    if not _is_integral(order) or order < 1:
        raise NotClosedError(0, 0, order)
    order = int(order)  # e.g. a NumPy integer
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
    row_type, checked, pad, compose = _row_ops(order)
    for a, row in enumerate(rows):
        if len(row) == order and set(map(type, row)) == {int}:
            rows[a] = checked(row)
            if rows[a] is not None:
                continue
        if len(row) != order:
            raise NotClosedError(a, 0, f"row of length {len(row)}")
        for b, v in enumerate(row):
            if not _is_integral(v) or not 0 <= v < order:
                raise NotClosedError(a, b, v)
        rows[a] = checked(tuple(map(int, row)))  # e.g. NumPy integers

    natural = row_type(range(order))
    for identity, row in enumerate(rows):
        if row == natural and row_type(r[identity] for r in rows) == natural:
            break
    else:
        raise NoIdentityError()

    for a, row in enumerate(rows):
        try:
            b = row.index(identity)
        except ValueError:
            raise NoInverseError(a) from None
        if rows[b][a] != identity:
            raise NoInverseError(a)

    hints = None
    if generator_hints is not None:
        hints = tuple(map(_parse_hint, generator_hints))
    seeds = [i for _, i in hints or () if 0 <= i < order]
    gens, hints_generate = _magma_generators(rows, identity, seeds)
    padded = list(map(pad, rows))
    for s in gens:
        right = compose(rows[s])  # right(padded[x])[y] = x*(s*y)
        for rx, px in zip(rows, padded):
            if right(px) != rows[rx[s]]:  # rows[x*s][y] = (x*s)*y
                raise _first_nonassociative_triple(rows)

    labels = None
    if element_labels is not None:
        try:
            labels = tuple(map(str, element_labels))
        except TypeError:
            kind = type(element_labels).__name__
            raise ValueError(f"element labels of type {kind} are not iterable") from None
        if len(labels) != order:
            raise ValueError(f"expected {order} element labels, got {len(labels)}")

    if hints is not None:
        for name, i in hints:
            if not 0 <= i < order:
                raise ValueError(f"generator {name!r} index {i} out of range")
        if not hints_generate:
            raise ValueError("generator hints do not generate the group")
    else:
        hints = tuple((f"g{k}", g) for k, g in enumerate(gens))
    return FiniteGroup(rows, hints, labels)


def _parse_hint(hint) -> tuple[str, int]:
    """A generator hint as a (name, index) pair; ``ValueError`` naming the
    hint when it is not a pair with an integral index."""
    try:
        name, i = hint
    except (TypeError, ValueError):
        i = None
    if not _is_integral(i):
        raise ValueError(f"generator hint {hint!r} is not a (name, integral index) pair")
    return str(name), int(i)


def _magma_generators(
    rows: list[Sequence[int]], identity: int, seeds: Iterable[int]
) -> tuple[list[int], bool]:
    """A generating set of the table as a magma, and whether ``seeds``
    alone generate it.

    Takes the seeds first, then repeatedly the lowest element not yet
    reached.  The reached elements are the identity and its left-bracketed
    products ``((e*s1)*s2)*...`` with generators, computed on the raw table;
    each lies in the magma the generators span, whatever the table.  On a
    group this is the subgroup the generators span, so without seeds the
    result is the greedy generating set ``g0, g1, ...``.
    """
    reached = bytearray(len(rows))
    reached[identity] = 1
    elems = [identity]
    gens: list[int] = []

    def add(g: int) -> None:
        gens.append(g)
        i = 0
        while i < len(elems):
            row = rows[elems[i]]
            for s in gens:
                x = row[s]
                if not reached[x]:
                    reached[x] = 1
                    elems.append(x)
            i += 1

    for g in seeds:
        if not reached[g]:
            add(g)
    seeds_generate = len(elems) == len(rows)
    while len(elems) < len(rows):
        add(reached.index(0))
    return gens, seeds_generate


def _first_nonassociative_triple(rows: list[Sequence[int]]) -> NotAssociativeError:
    """The error for the first (a, b, c) in row-major order with
    (a*b)*c != a*(b*c), over tuple copies of the rows; the caller knows one exists."""
    rows = list(map(tuple, rows))
    gathers = [_gather(r) for r in rows]  # gathers[b](rows[a])[c] = a*(b*c)
    for a, ra in enumerate(rows):
        for b, ab in enumerate(ra):
            left = rows[ab]  # left[c] = (a*b)*c
            right = gathers[b](ra)
            if left != right:
                c = next(c for c, (u, v) in enumerate(zip(left, right)) if u != v)
                return NotAssociativeError(a, b, c, left[c], right[c])
    raise InternalInconsistencyError("Light's test failed on an associative table")


# ---------------------------------------------------------------------------
# closure, centralizers, commutators


def _dimino_step(
    table: Sequence[Sequence[int]], mask: int, elems: list[int], gens: Sequence[int]
) -> tuple[int, list[int]]:
    """Mask and element list of <H, s>, one step of Dimino's inductive
    coset extension.

    H is the subgroup with bitmask ``mask`` and element list ``elems``,
    generated by ``gens[:-1]``; s = ``gens[-1]`` lies outside H.  <H, s> is
    the union of the left cosets xH, starting from sH; each new coset
    representative is a generator times a known one.  The union is closed
    under left multiplication by all of ``gens``, so it is the subgroup they
    generate only when ``gens[:-1]`` generate H.  Each coset xH is row x of
    the table read at H's elements, picked by one :func:`_gather` built from
    ``elems``.  Linear in |<H, s>|; it stops with the whole group once the
    union passes half of it, since no proper subgroup is that large.
    """
    n = len(table)
    out = list(elems)
    rows = [table[g] for g in gens]
    coset_of = _gather(elems)  # coset_of(table[x]) = xH
    reps = [gens[-1]]
    for x in reps:  # reps grows while it is walked
        if mask >> x & 1:
            continue  # xH was added through another representative
        coset = coset_of(table[x])
        mask |= sum(map((1).__lshift__, coset))  # xH is disjoint from the union
        out += coset
        if 2 * len(out) > n:
            return (1 << n) - 1, list(range(n))
        for row in rows:
            y = row[x]
            if not mask >> y & 1:
                reps.append(y)
    return mask, out


def _close_mask(group: FiniteGroup, seed_mask: int) -> int:
    """Smallest subgroup mask containing ``seed_mask``: a Dimino step for
    each seed element not yet reached.  Roughly linear in the result size,
    where naive pair saturation is quadratic."""
    mask, elems, gens = 1 << group.identity, [group.identity], []
    for s in _bits(seed_mask):
        if not mask >> s & 1:
            gens.append(s)
            mask, elems = _dimino_step(group.table, mask, elems, gens)
    return mask


def closure(group: FiniteGroup, seed: Iterable[int]) -> SubgroupSet:
    """Subgroup generated by ``seed`` (which may be empty: the trivial subgroup)."""
    _require("closure", FiniteGroup, group)
    return SubgroupSet._from_mask(group, _close_mask(group, _mask_of(group, seed)))


def _centralizer_mask(group: FiniteGroup, mask: int) -> int:
    """Bitmask of the elements commuting with every element of ``mask``;
    C(X) = C(X - Z(G)), so the central bits of ``mask`` are dropped first."""
    masks, z, _ = _centralizer_table(group)
    mask &= ~z
    out = group.full_mask
    while mask:  # set bits in place, without _bits' list
        low = mask & -mask
        out &= masks[low.bit_length() - 1]
        mask ^= low
    return out


def centralizer(group: FiniteGroup, target) -> SubgroupSet:
    """Elements commuting with everything in ``target``.

    ``target`` may be any iterable of element indices or a
    :class:`SubgroupSet` of ``group``; the empty set yields the whole group.
    """
    _require("centralizer", FiniteGroup, group)
    return SubgroupSet._from_mask(group, _centralizer_mask(group, _mask_of(group, target)))


def _left_cosets(group: FiniteGroup, members: Sequence[int]) -> tuple[list[int], list[int]]:
    """Each element's number among the left cosets of the subgroup with
    elements ``members``, and their representatives, in one ascending pass:
    the first element not yet in a coset is its least, so the cosets are
    numbered by least element."""
    coset, reps = [-1] * group.order, []
    for g in range(group.order):
        if coset[g] < 0:
            row = group.table[g]
            number = len(reps)
            for x in members:
                coset[row[x]] = number
            reps.append(g)
    return coset, reps


def _centralizer_table(group: FiniteGroup) -> tuple[tuple[int, ...], int, dict[int, tuple[int, int]]]:
    """The centralizer table of ``group``, cached: each element's centralizer
    as a mask, the center Z as a mask, and each commutator a^-1 b^-1 a b
    mapped to its first pair (a, b) in row-major order.  Z is the
    intersection of the centralizers of the named generators, which generate
    the group; one walk over the pairs of least representatives of the
    cosets xZ gives the rest, (n/|Z|)^2 pairs instead of n^2: C(xz) = C(x)
    for z in Z, so one row is computed per coset and shared by all of it;
    [az, bz'] = [a, b], so the first pair of a commutator is a pair of
    representatives, as (min aZ, min bZ) comes no later; and C(a) is the
    union of the cosets bZ with [a, b] = 1.  Named generators that commute
    pairwise make G abelian, and the table is read off them: C(x) = Z = G,
    and the one commutator is 1, first at (0, 0), as the walk would find."""
    if group._centralizers is None:
        t, inverse, e, z = group.table, group.inverse, group.identity, group.full_mask
        gens = [g for _, g in group.generator_names]
        if all(t[g][h] == t[h][g] for g in gens for h in gens):
            group._centralizers = ((z,) * group.order, z, {e: (0, 0)})
            return group._centralizers
        for g in gens:
            tg, m = t[g], 0
            for x, tx in enumerate(t):
                if tx[g] == tg[x]:
                    m |= 1 << x
            z &= m  # C(g)
        zs = _bits(z)
        coset, reps = _left_cosets(group, zs)
        coset_of = _gather(zs)  # coset_of(t[b]) = bZ
        columns = [(b, inverse[b], sum(map((1).__lshift__, coset_of(t[b])))) for b in reps]
        rows, first = [], {}
        for a in reps:
            row_ia, m = t[inverse[a]], 0
            for b, ib, bz in columns:
                c = t[t[row_ia[ib]][a]][b]
                if c == e:
                    m |= bz
                if c not in first:
                    first[c] = (a, b)
            rows.append(m)
        group._centralizers = (tuple(rows[c] for c in coset), z, first)
    return group._centralizers


def _center_mask(group: FiniteGroup) -> int:
    """Z(G) as a mask, read off the centralizer table."""
    return _centralizer_table(group)[1]


def _known_center_mask(group: FiniteGroup) -> int | None:
    """Z(G) as a mask if G's centralizer table is filled already, else None:
    filling it costs more than a caller that only needs Z might save."""
    return None if group._centralizers is None else group._centralizers[1]


def center(group: FiniteGroup) -> SubgroupSet:
    """Z(G), the centralizer of the named generators, as a subgroup."""
    _require("center", FiniteGroup, group)
    return SubgroupSet._from_mask(group, _center_mask(group))


def _first_commutator_pairs(group: FiniteGroup) -> dict[int, tuple[int, int]]:
    """Each commutator mapped to its first pair, read off the centralizer table."""
    return _centralizer_table(group)[2]


def commutator_set(group: FiniteGroup) -> frozenset[int]:
    """The set of commutators a^-1 b^-1 a b — the set itself, not its closure."""
    _require("commutator_set", FiniteGroup, group)
    return frozenset(_first_commutator_pairs(group))


# ---------------------------------------------------------------------------
# subgroup enumeration


def _require_order_at_most(order: int, cap: int, what: str = "group") -> None:
    """The order cap, checked before anything of that order is built or any
    cached result is returned; the one place that raises the cap error,
    after refusing a cap that is not an integer."""
    if not _is_integral(cap):
        raise UnsupportedParameterError(f"cap must be an integer, got {cap!r}")
    if order > cap:
        raise OrderCapExceededError(order, cap, what)


def _cyclic_subgroups(group: FiniteGroup) -> tuple[list[tuple[int, int, list[int]]], list[int]]:
    """The cyclic subgroups of ``group``, {1} included, as (least generator,
    mask, elements), ascending by least generator; and the mask of <g> for
    every element g, whose popcount is the order of g.  Each cyclic subgroup
    is walked once, from its least generator, and fills the entry of every
    generator g^k, gcd(k, |g|) = 1."""
    n, t, e = group.order, group.table, group.identity
    out, cyclic = [], [0] * n
    for g in range(n):
        if cyclic[g]:
            continue  # g generates a cyclic subgroup already walked
        elems, x = [e], g
        while x != e:
            elems.append(x)
            x = t[x][g]
        mask, m = sum(map((1).__lshift__, elems)), len(elems)
        for x in (x for k, x in enumerate(elems) if math.gcd(k, m) == 1):  # the generators of <g>
            cyclic[x] = mask
        out.append((g, mask, elems))
    return out, cyclic


def all_subgroups(group: FiniteGroup, cap: int = DEFAULT_ORDER_CAP) -> tuple[SubgroupSet, ...]:
    """Every subgroup of ``group``, sorted by (order, members): the first
    column of the group's subgroup table (:func:`_subgroup_table`), which
    is built on the first call and cached.  The cap is checked on every
    call, cached ones included."""
    _require("all_subgroups", FiniteGroup, group)
    _require_order_at_most(group.order, cap)
    return _subgroup_table(group)[0]


def _subgroup_table(group: FiniteGroup) -> tuple:
    """The subgroup table of ``group``, cached: three aligned tuples, the
    subgroups sorted by (order, members), a generating set of each, and
    each one's centralizer C(A) as a mask.

    Cyclic extension over zuppos (Neubüser, *Numer. Math.* 2, 1960), each
    subgroup built once, from its canonical parent (McKay, *J. Algorithms*
    26, 1998).  Every subgroup is generated by its zuppos, the cyclic
    subgroups of prime-power order, numbered z_0, z_1, ... by least
    generator.  f(J) is the least i such that the zuppos of J with index
    <= i generate J; those below z_f(J) generate its parent P(J), and
    J = <P(J), z_f(J)>.  K is extended only by z_i with i > f(K), one Dimino
    step reusing K's generators and elements, and J = <K, z_i> is kept only
    when no zuppo of J below z_i lies outside K (``bad`` holds their least
    generators): those zuppos then lie in K and include the ones that
    generate K, so K = P(J) and i = f(J).  Complete: for J != {1}, P(J) !=
    J has the zuppos of J below z_f(J), so f(P(J)) < f(J); by induction
    P(J) is reached and extended by z_f(J), from the zuppos, which are
    seeded with f(<z_i>) = i.  No normality or solvability is used, so
    perfect subgroups such as A5 in S5 are found too.  A zuppo can come
    back as <K, z> with K inside <z>, so kept joins are looked up.

    Joins are skipped before their Dimino step when the union of K, <z>
    and every <gz> over K's generators g, which lies in the join, meets
    ``bad``; or when it or the product set K<z> (|K| |<z>| / |K & <z>|
    elements) passes n/2, which makes the join G.  When <K, z_i> has prime
    index over K, <K, z> = <K, z_i> for every later zuppo z inside it.
    Dihedral(256) takes 126 Dimino steps and 0.02 s, C2^6 0.07-0.10 s and
    C2^7 1.3-1.8 s (Python 3.11, 2-vCPU Xeon VM).

    The generating set kept is none for {1}, the least generator for a
    zuppo, the generator names for G, and the parent's set plus z_f(J)
    otherwise.  C(A) is the centralizer of that set, as of any generating
    set; no map out of the group changes it, so all projections reuse it.
    """
    if group._subgroups is None:
        t, n = group.table, group.order
        primes = {p for p in range(2, n + 1) if n % p == 0 and all(p % q for q in range(2, p))}
        prime_powers = {p**k for p in primes for k in range(1, n.bit_length()) if n % p**k == 0}
        cyclics, cyclic = _cyclic_subgroups(group)
        zuppos = [c for c in cyclics if len(c[2]) in prime_powers]
        # subgroup mask -> a generating set
        gens_of = {1 << group.identity: (), group.full_mask: tuple(g for _, g in group.generator_names)}
        todo, below = [], [0]  # below[i]: the least generators of z_0 .. z_{i-1}
        for i, (z, z_mask, z_elems) in enumerate(zuppos):
            below.append(below[-1] | 1 << z)
            if z_mask not in gens_of:  # seen already when G is a cyclic p-group
                gens_of[z_mask] = (z,)
                todo.append((z_mask, z_elems, (z,), i))
        for k_mask, k_elems, k_gens, f in todo:  # todo grows while it is walked
            done = k_mask  # z in done: <K, z> is K or an extension already made
            for i, (z, z_mask, _) in enumerate(zuppos[f + 1 :], f + 1):
                if done >> z & 1:
                    continue
                bad = below[i] & ~k_mask  # K is the canonical parent of <K, z> iff it holds none
                union = k_mask | z_mask
                for g in k_gens:
                    union |= cyclic[t[g][z]]
                if union & bad:
                    continue
                product = len(k_elems) * z_mask.bit_count() // (k_mask & z_mask).bit_count()
                if 2 * max(product, union.bit_count()) > n:
                    j_mask, j_order = group.full_mask, n
                else:
                    j_gens = (*k_gens, z)
                    j_mask, j_elems = _dimino_step(t, k_mask, k_elems, j_gens)
                    j_order = len(j_elems)
                if j_order // len(k_elems) in primes:
                    done |= j_mask  # nothing lies strictly between K and J
                if j_mask not in gens_of and not j_mask & bad:
                    gens_of[j_mask] = j_gens
                    todo.append((j_mask, j_elems, j_gens, i))
        masks = sorted(gens_of, key=_mask_key)
        subs = tuple(SubgroupSet._from_mask(group, m) for m in masks)
        gens = tuple(map(gens_of.__getitem__, masks))
        cents = tuple(_centralizer_mask(group, sum({1 << g for g in a})) for a in gens)
        group._subgroups = (subs, gens, cents)
    return group._subgroups


# ---------------------------------------------------------------------------
# JSON round-trip

_GROUP_KEYS = {"order", "table", "generators", "labels"}


def group_to_json(group: FiniteGroup) -> dict:
    _require("group_to_json", FiniteGroup, group)
    doc: dict = {"order": group.order, "table": [list(r) for r in group.table]}
    if group.generator_names:
        doc["generators"] = {name: i for name, i in group.generator_names}
    if group.element_labels is not None:
        doc["labels"] = list(group.element_labels)
    return doc


def _json_object(doc, what: str, keys: set[str]) -> dict:
    """Parse ``doc`` (text or an already-parsed dict) as a JSON object
    describing a ``what``, with no keys outside ``keys``."""
    if isinstance(doc, (str, bytes)):
        try:
            doc = json.loads(doc)
        except ValueError as e:  # malformed JSON, or bytes that are not UTF-8
            raise TableJsonError(f"invalid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise TableJsonError(f"expected a JSON object describing a {what}")
    unknown = set(doc) - keys
    if unknown:
        raise TableJsonError(f"unknown keys in {what} document: {sorted(unknown)}")
    return doc


def group_from_json(doc) -> FiniteGroup:
    """Load a group from a JSON document (text or already-parsed dict)."""
    doc = _json_object(doc, "group", _GROUP_KEYS)
    if "order" not in doc or "table" not in doc:
        raise TableJsonError("group document requires 'order' and 'table'")
    order, table = doc["order"], doc["table"]
    rows_ok = isinstance(table, list) and all(isinstance(row, list) for row in table)
    if not _is_integral(order) or not rows_ok:
        raise TableJsonError("'order' must be an int and 'table' a list of rows")
    gens = None
    if "generators" in doc:
        g = doc["generators"]
        if not isinstance(g, dict) or not all(map(_is_integral, g.values())):
            raise TableJsonError("'generators' must map names to element indices")
        gens = tuple(sorted(g.items()))
    labels = doc.get("labels")
    if labels is not None and (not isinstance(labels, list) or not all(isinstance(s, str) for s in labels)):
        raise TableJsonError("'labels' must be a list of strings")
    try:
        return from_multiplication_table(order, table, gens, labels)
    except ValueError as e:  # label/generator problems are document problems here
        raise TableJsonError(str(e)) from e

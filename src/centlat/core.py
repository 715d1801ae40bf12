"""Finite groups as validated multiplication tables.

Elements of a group of order n are the indices 0..n-1.  A group is stored as
its full multiplication table; construction validates the four group axioms
and locates the identity (which need not be index 0).  Subsets of a group are
:class:`SubgroupSet` values backed by an integer bitmask, so intersection,
union and containment are single machine-word operations for the orders this
package targets (a few hundred elements at most).
"""

from __future__ import annotations

import json
import numbers
from typing import Iterable, Iterator

from .errors import (
    InternalInconsistencyError,
    NoIdentityError,
    NoInverseError,
    NotAssociativeError,
    NotClosedError,
    OrderCapExceededError,
    TableJsonError,
    _ensure,
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


def _is_integral(v) -> bool:
    """An integer index: any ``numbers.Integral`` (NumPy integers included)
    except ``bool``, which Python counts as an int."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _mask_of(indices: Iterable[int]) -> int:
    mask = 0
    for i in indices:
        mask |= 1 << i
    return mask


class FiniteGroup:
    """A finite group given by its multiplication table.

    Instances are immutable once built; derived data (centralizer masks,
    element orders, the subgroup list, ...) is computed lazily and cached on
    the instance.  Use :func:`from_multiplication_table` to construct one
    from untrusted data.
    """

    def __init__(
        self,
        order: int,
        table: tuple[tuple[int, ...], ...],
        identity: int,
        inverse: tuple[int, ...],
        generator_names: tuple[tuple[str, int], ...],
        element_labels: tuple[str, ...] | None = None,
    ) -> None:
        self.order = order
        self.table = table
        self.identity = identity
        self.inverse = inverse
        self.generator_names = generator_names
        self.element_labels = element_labels
        self.full_mask = (1 << order) - 1
        # lazy caches
        self._cent_masks: tuple[int, ...] | None = None
        self._element_orders: tuple[int, ...] | None = None
        self._subgroups: tuple[SubgroupSet, ...] | None = None
        self._subgroup_centralizers: tuple[int, ...] | None = None
        self._commutator_pairs: dict[int, tuple[int, int]] | None = None
        self._lattice = None  # set by centlat.lattice

    # -- basic operations ---------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverse[a]

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

    def element_order(self, a: int) -> int:
        return self.element_orders()[a]

    def element_orders(self) -> tuple[int, ...]:
        if self._element_orders is None:
            orders = []
            for a in range(self.order):
                k, x = 1, a
                while x != self.identity:
                    x = self.table[x][a]
                    k += 1
                orders.append(k)
            self._element_orders = tuple(orders)
        return self._element_orders

    def label(self, a: int) -> str:
        if self.element_labels is not None:
            return self.element_labels[a]
        return str(a)

    def is_abelian(self) -> bool:
        return center(self).mask == self.full_mask

    # -- plumbing -----------------------------------------------------------

    def centralizer_masks(self) -> tuple[int, ...]:
        """For each element x, the bitmask of elements commuting with x."""
        if self._cent_masks is None:
            t = self.table
            masks = []
            for x in range(self.order):
                row = t[x]
                m = 0
                for g in range(self.order):
                    if t[g][x] == row[g]:
                        m |= 1 << g
                masks.append(m)
            self._cent_masks = tuple(masks)
        return self._cent_masks

    def same_table(self, other: "FiniteGroup") -> bool:
        """True when the two objects describe literally the same table."""
        return self is other or (self.order == other.order and self.table == other.table)

    def __repr__(self) -> str:
        gens = ",".join(name for name, _ in self.generator_names)
        return f"FiniteGroup(order={self.order}, generators=[{gens}])"


class SubgroupSet:
    """A subgroup of a fixed :class:`FiniteGroup`, stored as a bitmask.

    The public constructor validates that the members actually form a
    subgroup (identity, closure, inverses, and Lagrange divisibility as a
    final sanity check).  Code inside the package that has just produced a
    closed set goes through :meth:`_from_mask` to skip the re-check.
    """

    __slots__ = ("group", "mask", "members")

    def __init__(self, group: FiniteGroup, members: Iterable[int]) -> None:
        mask = 0
        for m in members:
            if not 0 <= m < group.order:
                raise ValueError(f"element index {m} out of range for order {group.order}")
            mask |= 1 << m
        self.group = group
        self.mask = mask
        self.members = tuple(_bits(mask))
        self.validate()

    @classmethod
    def _from_mask(cls, group: FiniteGroup, mask: int) -> "SubgroupSet":
        self = object.__new__(cls)
        self.group = group
        self.mask = mask
        self.members = tuple(_bits(mask))
        return self

    def validate(self) -> None:
        g = self.group
        if not self.mask >> g.identity & 1:
            raise ValueError("subgroup set does not contain the identity")
        t, inverse, mask = g.table, g.inverse, self.mask
        for a in self.members:
            if not mask >> inverse[a] & 1:
                raise ValueError(f"subgroup set is missing the inverse of {a}")
            row = t[a]
            for b in self.members:
                if not mask >> row[b] & 1:
                    raise ValueError(f"subgroup set is not closed: {a}*{b} escapes")
        _ensure(g.order % len(self.members) == 0, "subgroup order must divide group order")

    # -- set behaviour --------------------------------------------------------

    def __contains__(self, element: int) -> bool:
        return bool(self.mask >> element & 1)

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SubgroupSet):
            return NotImplemented
        return self.mask == other.mask and self.group.same_table(other.group)

    def __hash__(self) -> int:
        return hash((self.mask, self.group.order))

    def __le__(self, other: "SubgroupSet") -> bool:
        return self.mask & ~other.mask == 0

    def __and__(self, other: "SubgroupSet") -> "SubgroupSet":
        return SubgroupSet._from_mask(self.group, self.mask & other.mask)

    def sort_key(self) -> tuple[int, tuple[int, ...]]:
        return (len(self.members), self.members)

    def is_trivial(self) -> bool:
        return self.members == (self.group.identity,)

    def is_whole_group(self) -> bool:
        return self.mask == self.group.full_mask

    def __repr__(self) -> str:
        return f"SubgroupSet(order={len(self.members)}, members={list(self.members)})"


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
    which assumes the table is already a group.  On failure every triple is
    scanned in row-major order and the first failing one is reported.
    """
    if order < 1:
        raise NotClosedError(0, 0, order)
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
        # A row of plain ints is checked at C speed; any other row takes the
        # per-cell loop, which names the first bad cell.
        if len(row) == order and set(map(type, row)) == {int} and min(row) >= 0 and max(row) < order:
            continue
        if len(row) != order:
            raise NotClosedError(a, 0, f"row of length {len(row)}")
        for b, v in enumerate(row):
            if not _is_integral(v) or not 0 <= v < order:
                raise NotClosedError(a, b, v)
        rows[a] = tuple(map(int, row))  # e.g. NumPy integers

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

    hints = None
    if generator_hints is not None:
        hints = tuple(map(_parse_hint, generator_hints))
    seeds = [i for _, i in hints or () if 0 <= i < order]
    gens, hints_generate = _magma_generators(rows, identity, seeds)
    for s in gens:
        row_s = rows[s]
        for rx in rows:
            if tuple(map(rx.__getitem__, row_s)) != rows[rx[s]]:
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
    return FiniteGroup(order, tuple(rows), identity, tuple(inverse), hints, labels)


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
    rows: list[tuple[int, ...]], identity: int, seeds: Iterable[int]
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


def _first_nonassociative_triple(rows: list[tuple[int, ...]]) -> NotAssociativeError:
    """The error for the first (a, b, c) in row-major order with
    (a*b)*c != a*(b*c); the caller knows that one exists."""
    for a, ra in enumerate(rows):
        for b, ab in enumerate(ra):
            left = rows[ab]  # left[c] = (a*b)*c
            right = tuple(map(ra.__getitem__, rows[b]))  # right[c] = a*(b*c)
            if left != right:
                c = next(c for c, (u, v) in enumerate(zip(left, right)) if u != v)
                return NotAssociativeError(a, b, c, left[c], right[c])
    raise InternalInconsistencyError("Light's test failed on an associative table")


# ---------------------------------------------------------------------------
# closure, centralizers, commutators


def _close_mask(group: FiniteGroup, seed_mask: int) -> int:
    """Smallest subgroup mask containing ``seed_mask``.

    Inductive coset extension (Dimino): grow a subgroup H one generator at a
    time; the extension by s is the union of right cosets H*r, with new coset
    representatives found by multiplying known ones by the generators so far.
    Roughly linear in the result size, where naive pair saturation is
    quadratic.
    """
    t = group.table
    mask = 1 << group.identity
    gens: list[int] = []
    for s in _bits(seed_mask):
        if mask >> s & 1:
            continue
        h_elems = _bits(mask)
        gens.append(s)
        new_mask = mask
        reps = [s]
        for h in h_elems:
            new_mask |= 1 << t[h][s]
        i = 0
        while i < len(reps):
            row = t[reps[i]]
            for g in gens:
                x = row[g]
                if not new_mask >> x & 1:
                    reps.append(x)
                    for h in h_elems:
                        new_mask |= 1 << t[h][x]
            i += 1
        mask = new_mask
    return mask


def closure(group: FiniteGroup, seed: Iterable[int]) -> SubgroupSet:
    """Subgroup generated by ``seed`` (which may be empty: the trivial subgroup)."""
    return SubgroupSet._from_mask(group, _close_mask(group, _mask_of(seed)))


def _centralizer_mask(group: FiniteGroup, mask: int) -> int:
    """Bitmask of the elements commuting with every element of ``mask``."""
    masks = group.centralizer_masks()
    out = group.full_mask
    while mask:  # set bits in place, without _bits' list: this is the sweep's inner loop
        low = mask & -mask
        out &= masks[low.bit_length() - 1]
        mask ^= low
    return out


def centralizer(group: FiniteGroup, target) -> SubgroupSet:
    """Elements commuting with everything in ``target``.

    ``target`` may be any iterable of element indices or a
    :class:`SubgroupSet`; the empty set yields the whole group.
    """
    mask = target.mask if isinstance(target, SubgroupSet) else _mask_of(target)
    return SubgroupSet._from_mask(group, _centralizer_mask(group, mask))


def center(group: FiniteGroup) -> SubgroupSet:
    return SubgroupSet._from_mask(group, _centralizer_mask(group, group.full_mask))


def _first_commutator_pairs(group: FiniteGroup) -> dict[int, tuple[int, int]]:
    """Each commutator a^-1 b^-1 a b, mapped to its first pair (a, b) in
    row-major order.  Walks all n^2 pairs once per group, cached."""
    if group._commutator_pairs is None:
        t, inverse = group.table, group.inverse
        first: dict[int, tuple[int, int]] = {}
        for a in range(group.order):
            ia = inverse[a]
            for b in range(group.order):
                c = t[t[t[ia][inverse[b]]][a]][b]
                if c not in first:
                    first[c] = (a, b)
        group._commutator_pairs = first
    return group._commutator_pairs


def commutator_set(group: FiniteGroup) -> frozenset[int]:
    """The set of commutators a^-1 b^-1 a b — the set itself, not its closure."""
    return frozenset(_first_commutator_pairs(group))


def derived_subgroup(group: FiniteGroup) -> SubgroupSet:
    """Closure of the commutator set."""
    return closure(group, commutator_set(group))


def is_central(group: FiniteGroup, s: SubgroupSet) -> bool:
    return s.mask & ~center(group).mask == 0


# ---------------------------------------------------------------------------
# subgroup enumeration


def _require_order_at_most(order: int, cap: int, what: str = "group") -> None:
    """The order cap, checked before anything of that order is built or any
    cached result is returned; the one place that raises the cap error."""
    if order > cap:
        raise OrderCapExceededError(order, cap, what)


def all_subgroups(group: FiniteGroup, cap: int = DEFAULT_ORDER_CAP) -> tuple[SubgroupSet, ...]:
    """Every subgroup of ``group``, sorted by (order, members), cached.

    Seeds with all cyclic subgroups, then saturates under pairwise join
    (closure of union); this reaches every subgroup because any subgroup is
    the join of the cyclic subgroups of its members.
    """
    _require_order_at_most(group.order, cap)
    if group._subgroups is None:
        t = group.table
        seen: set[int] = set()
        masks: list[int] = []
        for g in range(group.order):
            m = 1 << group.identity
            x = g
            while not m >> x & 1:
                m |= 1 << x
                x = t[x][g]
            if m not in seen:
                seen.add(m)
                masks.append(m)
        i = 0
        while i < len(masks):
            a = masks[i]
            for j in range(i):
                b = masks[j]
                union = a | b
                if union == a or union == b:  # one contains the other
                    continue
                if 2 * union.bit_count() > group.order:
                    m = group.full_mask  # no proper subgroup exceeds index 2
                else:
                    m = _close_mask(group, union)
                if m not in seen:
                    seen.add(m)
                    masks.append(m)
            i += 1
        subs = [SubgroupSet._from_mask(group, m) for m in masks]
        subs.sort(key=SubgroupSet.sort_key)
        group._subgroups = tuple(subs)
    return group._subgroups


def _subgroup_centralizer_masks(group: FiniteGroup, cap: int = DEFAULT_ORDER_CAP) -> tuple[int, ...]:
    """C(A) as a mask for every subgroup A of ``all_subgroups(group, cap)``,
    in the same order, cached: it does not depend on any map out of the
    group, so every projection of the group reuses it."""
    _require_order_at_most(group.order, cap)
    if group._subgroup_centralizers is None:
        group._subgroup_centralizers = tuple(
            _centralizer_mask(group, s.mask) for s in all_subgroups(group, cap)
        )
    return group._subgroup_centralizers


# ---------------------------------------------------------------------------
# JSON round-trip

_GROUP_KEYS = {"order", "table", "generators", "labels"}


def group_to_json(group: FiniteGroup) -> dict:
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
    if labels is not None and (
        not isinstance(labels, list) or not all(isinstance(s, str) for s in labels)
    ):
        raise TableJsonError("'labels' must be a list of strings")
    try:
        return from_multiplication_table(order, table, gens, labels)
    except ValueError as e:  # label/generator problems are document problems here
        raise TableJsonError(str(e)) from e

"""Constructors for the standard group families and the two cover groups.

All constructors produce :class:`~centlat.core.FiniteGroup` values with
named generators and human-readable element labels, each a group by
construction: builders check parameters, never tables.  Encodings are
fixed, so element indices are stable across runs: every family,
:func:`semidirect_cyclic` and the ``dihedral_quaternion`` cover come from one
table builder, :func:`_cyclic_by_cyclic`, with x^i*y^j at index j*m + i.

Each builder writes out only the rows of its generators and hands them to
:func:`~centlat.core._walk_rows`, which composes every other row, one
composition per element (C speed for ``bytes`` rows), with no Python step
per table entry; how rows are stored is left to :mod:`centlat.core`.  The
group gets those rows, its generator names and a function that formats the
labels, so a label is formatted only once something reads it; the
constructor reads the identity and inverses off the rows.
"""

from __future__ import annotations

import math
from functools import cache
from typing import NamedTuple

from .core import (
    DEFAULT_ORDER_CAP,
    FiniteGroup,
    SubgroupSet,
    _center_mask,
    _mask_of,
    _require,
    _require_integers,
    _require_order_at_most,
    _walk_rows,
    closure,
    commutator_set,
)
from .errors import InternalInconsistencyError, InvalidActionError, OrderCapExceededError
from .errors import UnsupportedParameterError, _ensure, _int_text


def _pair_label(i: int, j: int) -> str:
    """x^i*y^j with zero powers dropped and exponent 1 unwritten; "1" if both are 0."""
    return "*".join(sym if e == 1 else f"{sym}^{e}" for sym, e in (("x", i), ("y", j)) if e) or "1"


def make_family(kind: str, order: int, cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """One of the four supported families, by total order.

    cyclic(n), n >= 1; dihedral(2m), m >= 2; quaternion(2^k), k >= 3;
    semidihedral(2^k), k >= 4; an order above ``cap`` is refused first.
    """
    _require_integers(order=order)
    _require_order_at_most(order, cap, f"{kind} group")
    if kind == "cyclic":
        if order < 1:
            raise UnsupportedParameterError(f"cyclic group order must be >= 1, got {order}")
        return _cyclic_by_cyclic(order, 1, 1, named_y=False)
    if kind == "dihedral":
        if order < 4 or order % 2:
            raise UnsupportedParameterError(f"dihedral group order must be even and >= 4, got {order}")
        return _cyclic_by_cyclic(order // 2, 2, order // 2 - 1)
    if kind == "quaternion":
        if order < 8 or order & (order - 1):
            raise UnsupportedParameterError(f"quaternion group order must be 2^k with k >= 3, got {order}")
        m = order // 2
        return _cyclic_by_cyclic(m, 2, m - 1, square=m // 2)
    if kind == "semidihedral":
        if order < 16 or order & (order - 1):
            raise UnsupportedParameterError(f"semidihedral group order must be 2^k with k >= 4, got {order}")
        m = order // 2
        return _cyclic_by_cyclic(m, 2, m // 2 - 1)
    raise UnsupportedParameterError(f"unknown family kind {kind!r}")


def _cyclic_by_cyclic(m: int, k: int, a: int, square: int = 0, named_y: bool = True) -> FiniteGroup:
    """Group on pairs (i mod m, j mod k) for x^i*y^j, at index j*m + i.

    Relations: x^m = 1, y*x = x^a*y, y^k = x^square; x = 1 and y = m (0 when
    k = 1; named only if ``named_y``).  A group exactly when gcd(a, m) = 1,
    a^k = 1 and a*square = square (mod m) (Holt, Eick & O'Brien, *Handbook of
    Computational Group Theory*, 2005), so those are checked, not the table.

    Only the rows of x and y are written out: x*x^i*y^j = x^(i+1)*y^j and
    y*x^i*y^j = x^(a*i)*y^(j+1), with y^k = x^square; :func:`_walk_rows`
    composes the rest.
    """
    if math.gcd(a, m) != 1:
        raise InvalidActionError(f"action parameter {a} is not invertible mod {m}")
    if pow(a, k, m) != 1 % m:
        raise InvalidActionError(f"{a}^{k} != 1 (mod {m}); the action does not close")
    _ensure(a * square % m == square % m, "x -> x^{} does not fix y^{} = x^{} (mod {})", a, k, square, m)
    gens = (("x", 1 % m), ("y", m if k > 1 else 0))
    x_row = [j * m + (i + 1) % m for j in range(k) for i in range(m)]
    y_row = [(j + 1) % k * m + (a * i + (j + 1 == k) * square) % m for j in range(k) for i in range(m)]
    table = _walk_rows(m * k, 0, {gens[0][1]: x_row, gens[1][1]: y_row})
    labels = lambda: tuple(_pair_label(i, j) for j in range(k) for i in range(m))
    return FiniteGroup(table, gens if named_y else gens[:1], labels)


def direct_product(a: FiniteGroup, b: FiniteGroup, cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """Componentwise product on pairs; (ia, ib) has index ia*|b| + ib.

    Generator names from the factors are prefixed ``l.`` and ``r.``.  The
    product of two groups is a group, so it is built by construction, not
    validated: its generators are the factors' paired with the other
    factor's identity.  Only the generators' rows are written out,
    (ga, gb)*(x, y) = (ga*x, gb*y); :func:`_walk_rows` composes the rest.
    """
    _require("direct_product", FiniteGroup, a, b)
    order = a.order * b.order
    _require_order_at_most(order, cap, "direct product")
    nb = b.order
    gens = tuple(
        [(f"l.{name}", i * nb + b.identity) for name, i in a.generator_names]
        + [(f"r.{name}", a.identity * nb + i) for name, i in b.generator_names]
    )
    rows = {g: [x * nb + y for x in a.table[g // nb] for y in b.table[g % nb]] for _, g in gens}
    labels = lambda: tuple(f"({a.label(ia)},{b.label(ib)})" for ia in range(a.order) for ib in range(nb))
    return FiniteGroup(_walk_rows(order, a.identity * nb + b.identity, rows), gens, labels)


def semidirect_cyclic(m: int, k: int, a: int, cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """Z_m twisted by Z_k, where y acts on x by x |-> x^a.

    Built by :func:`_cyclic_by_cyclic`: x^i*y^j has index j*m + i.  Requires
    gcd(a, m) = 1 and a^k = 1 (mod m) so the action is by an automorphism of
    order dividing k, else :class:`InvalidActionError`.  x = (1, 0), y = (0, 1).
    """
    _require_integers(m=m, k=k, a=a)
    if m < 1 or k < 1:
        raise UnsupportedParameterError(f"cyclic orders must be >= 1, got m={m}, k={k}")
    _require_order_at_most(m * k, cap, "semidirect product")
    return _cyclic_by_cyclic(m, k, a)


class _CoverGroupFields(NamedTuple):
    kind: str
    n: int
    group: FiniteGroup
    z_first: SubgroupSet
    z_second: SubgroupSet


class CoverGroup(_CoverGroupFields):
    """A group with two distinguished central order-2 subgroups.

    Quotienting by one central subgroup or the other lands in two different
    families; both subgroups belong to its table and avoid every nontrivial
    commutator, which the constructor and ``_replace`` check.
    """

    __slots__ = ()

    def __new__(cls, *fields, **named) -> "CoverGroup":
        self = super().__new__(cls, *fields, **named)
        g = self.group
        _require("CoverGroup", FiniteGroup, g)
        _require("CoverGroup", SubgroupSet, self.z_first, self.z_second)
        zmask = _center_mask(g)
        comms = commutator_set(g)
        for z in (self.z_first, self.z_second):
            _ensure(len(z) == 2, "distinguished subgroups must have order 2")
            _ensure(_mask_of(g, z) & ~zmask == 0, "distinguished subgroups must be central")
            misses = all(c == g.identity or c not in z for c in comms)
            _ensure(misses, "distinguished subgroups must miss every nontrivial commutator")
        return self

    @classmethod
    def _make(cls, fields) -> "CoverGroup":
        return cls(*fields)


def cover_group(kind: str, n: int, cap: int = DEFAULT_ORDER_CAP) -> CoverGroup:
    """The order-2^(n+1) cover whose two central quotients are:

    - ``dihedral_quaternion`` (n >= 3): dihedral(2^n) and quaternion(2^n);
    - ``quaternion_semidihedral`` (n >= 4): quaternion(2^n) and semidihedral(2^n).

    The first is Z_{2^(n-1)} twisted by a Z_4 acting by inversion, built by
    :func:`_cyclic_by_cyclic` with m = 2^(n-1), so its distinguished
    subgroups, generated by y^2 and x^(m/2)*y^2, sit at indices 2m and
    2m + m/2.  The second is the fiber product of the two families over
    their common dihedral quotient of order 2^(n-1): no split extension of
    Z_{2^(n-1)} by Z_4 has a quaternion quotient except the inversion one,
    so the pair (quaternion, semidihedral) forces this shape.  The order is
    checked against ``cap`` first, and named, not built, once n is past 2^14
    and the cap's bit length.
    """
    _require_integers(n=n, cap=cap)
    if n >= max(int(cap).bit_length(), 1 << 14):
        exponent = _int_text(n + 1)  # "above 2^k" past int-to-str's digit limit
        order = f"2^{exponent}" if exponent.isdigit() else f"2^({exponent})"
        raise OrderCapExceededError(order, cap, "cover group")
    _require_order_at_most(1 << (n + 1) if n >= 0 else 0, cap, "cover group")
    if kind == "dihedral_quaternion":
        if n < 3:
            raise UnsupportedParameterError(f"dihedral_quaternion cover needs n >= 3, got {n}")
        m = 1 << (n - 1)
        g = _cyclic_by_cyclic(m, 4, m - 1)
        z_dihedral = closure(g, [2 * m])  # y^2
        z_quaternion = closure(g, [2 * m + m // 2])  # x^(m/2) * y^2
        return CoverGroup(kind, n, g, z_dihedral, z_quaternion)
    if kind == "quaternion_semidihedral":
        if n < 4:
            raise UnsupportedParameterError(f"quaternion_semidihedral cover needs n >= 4, got {n}")
        q = make_family("quaternion", 1 << n, cap)
        sd = make_family("semidihedral", 1 << n, cap)
        g, z_quaternion, z_semidihedral = _fiber_product_over_central_quotients(q, sd)
        return CoverGroup(kind, n, g, z_quaternion, z_semidihedral)
    raise UnsupportedParameterError(f"unknown cover kind {kind!r}")


def _fiber_product_over_central_quotients(
    a: FiniteGroup, b: FiniteGroup
) -> tuple[FiniteGroup, SubgroupSet, SubgroupSet]:
    """Pairs (u, v) whose images agree in the common quotient by the central
    involution x^(m/2) of each factor.

    Both factors are :func:`_cyclic_by_cyclic` groups with k = 2 (x^i*y^j at
    index j*m + i), and the quotient by x^(m/2) keeps j and i mod m/2 in
    either, so the fibres come straight from that shared encoding.
    Quotienting the result by 1 x ker lands in ``a``; by ker x 1 in ``b``.
    :func:`_walk_rows` composes the table from the hints' rows: hint rows
    that keep to the pairs and reach them all make it a group.
    """
    m = a.order // 2
    half = m // 2  # x^(m/2), central of order 2 in either factor
    pairs = [
        (u, v)
        for u in range(a.order)
        for v in range(b.order)
        if u // m == v // m and u % half == v % half
    ]
    index = {pair: i for i, pair in enumerate(pairs)}
    labels = lambda: tuple(f"({a.label(u)},{b.label(v)})" for u, v in pairs)
    # x and y are a's generators, each paired with its lowest-index partner;
    # they generate the fiber product, as CoverGroup and center rely on
    hints = tuple(
        (name, next(i for i, (u, _) in enumerate(pairs) if u == ga)) for name, ga in a.generator_names
    )
    try:
        row = lambda u1, v1: [index[(a.table[u1][u], b.table[v1][v])] for u, v in pairs]
        rows = {h: row(*pairs[h]) for _, h in hints}
        identity = index[(a.identity, b.identity)]
    except KeyError as e:
        raise InternalInconsistencyError(f"fiber product is not closed: {e.args[0]}") from e
    g = FiniteGroup(_walk_rows(len(pairs), identity, rows), hints, labels)
    z_first = closure(g, [index[(a.identity, half)]])
    z_second = closure(g, [index[(half, b.identity)]])
    return g, z_first, z_second


class CatalogEntry(NamedTuple):
    name: str
    group: FiniteGroup


def catalog(max_order: int) -> tuple[CatalogEntry, ...]:
    """A deterministic list of named groups of order <= max_order.

    Contains all cyclic, dihedral, quaternion and semidihedral groups, all
    products of two or three cyclic factors (factors >= 2, ascending), and
    every valid semidirect_cyclic(m, k, a) with m, k >= 2 and 2 <= a < m.
    Entry names are expressions the CLI accepts.  Groups are cached, so the
    lazy per-group data is shared by everything in one process; each cyclic
    group and each product of two is built once and reused as a factor.
    ``max_order`` is checked before the cache, where True and 1 are one key,
    and refused above the order cap before any group is built.
    """
    _require_integers(max_order=max_order)
    _require_order_at_most(max_order, DEFAULT_ORDER_CAP, "catalog")
    return _catalog(max_order)


@cache
def _catalog(max_order: int) -> tuple[CatalogEntry, ...]:
    cyclic = {n: make_family("cyclic", n) for n in range(1, max_order + 1)}
    entries = [CatalogEntry(f"cyclic({n})", g) for n, g in cyclic.items()]
    for n in range(4, max_order + 1, 2):
        entries.append(CatalogEntry(f"dihedral({n})", make_family("dihedral", n)))
    n = 8
    while n <= max_order:
        entries.append(CatalogEntry(f"quaternion({n})", make_family("quaternion", n)))
        n *= 2
    n = 16
    while n <= max_order:
        entries.append(CatalogEntry(f"semidihedral({n})", make_family("semidihedral", n)))
        n *= 2
    pairs = {}
    for a in range(2, max_order + 1):
        for b in range(a, max_order // a + 1):
            pairs[a, b] = direct_product(cyclic[a], cyclic[b])
            entries.append(CatalogEntry(f"product(cyclic({a}),cyclic({b}))", pairs[a, b]))
    for a in range(2, max_order + 1):
        for b in range(a, max_order + 1):
            for c in range(b, max_order // (a * b) + 1):
                g = direct_product(cyclic[a], pairs[b, c])
                entries.append(CatalogEntry(f"product(cyclic({a}),product(cyclic({b}),cyclic({c})))", g))
    for m in range(2, max_order + 1):
        for k in range(2, max_order // m + 1):
            for a in range(2, m):
                if math.gcd(a, m) == 1 and pow(a, k, m) == 1:
                    entries.append(CatalogEntry(f"semidirect({m},{k},{a})", semidirect_cyclic(m, k, a)))
    return tuple(entries)

"""Constructors for the standard group families and the two cover groups.

All constructors produce validated :class:`~centlat.core.FiniteGroup` values
with named generators and human-readable element labels.  Encodings are
fixed and documented per family, so element indices are stable across runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .core import (
    DEFAULT_ORDER_CAP,
    FiniteGroup,
    SubgroupSet,
    _require_order_at_most,
    center,
    closure,
    commutator_set,
    from_multiplication_table,
)
from .errors import InternalInconsistencyError, InvalidActionError, UnsupportedParameterError, _ensure

FAMILY_KINDS = ("cyclic", "dihedral", "quaternion", "semidihedral")
COVER_KINDS = ("dihedral_quaternion", "quaternion_semidihedral")


def _power_label(sym: str, e: int) -> str:
    return sym if e == 1 else f"{sym}^{e}"


def _pair_label(i: int, j: int, xsym: str = "x", ysym: str = "y") -> str:
    parts = []
    if i:
        parts.append(_power_label(xsym, i))
    if j:
        parts.append(_power_label(ysym, j))
    return "*".join(parts) if parts else "1"


def make_family(kind: str, order: int) -> FiniteGroup:
    """One of the four supported families, by total order.

    cyclic(n), n >= 1; dihedral(2m), m >= 2; quaternion(2^k), k >= 3;
    semidihedral(2^k), k >= 4.
    """
    if kind == "cyclic":
        if order < 1:
            raise UnsupportedParameterError(f"cyclic group order must be >= 1, got {order}")
        table = [[(a + b) % order for b in range(order)] for a in range(order)]
        labels = [_pair_label(i, 0) for i in range(order)]
        gens = (("x", 1 % order),)
        return from_multiplication_table(order, table, gens, labels)
    if kind == "dihedral":
        if order < 4 or order % 2:
            raise UnsupportedParameterError(f"dihedral group order must be even and >= 4, got {order}")
        return _twisted_pair(order // 2, twist=order // 2 - 1, square=0)
    if kind == "quaternion":
        if order < 8 or order & (order - 1):
            raise UnsupportedParameterError(f"quaternion group order must be 2^k with k >= 3, got {order}")
        m = order // 2
        return _twisted_pair(m, twist=m - 1, square=m // 2)
    if kind == "semidihedral":
        if order < 16 or order & (order - 1):
            raise UnsupportedParameterError(f"semidihedral group order must be 2^k with k >= 4, got {order}")
        m = order // 2
        return _twisted_pair(m, twist=m // 2 - 1, square=0)
    raise UnsupportedParameterError(f"unknown family kind {kind!r}")


def _twisted_pair(m: int, twist: int, square: int) -> FiniteGroup:
    """Group on pairs (i, e) with i mod m, e in {0,1}, index e*m + i.

    Relations: x^m = 1, y*x = x^twist*y, y^2 = x^square.  Covers the
    dihedral, (generalised) quaternion and semidihedral presentations.
    """
    order = 2 * m
    table = [[0] * order for _ in range(order)]
    for e1 in (0, 1):
        coef = twist if e1 else 1
        for i1 in range(m):
            row = table[e1 * m + i1]
            for e2 in (0, 1):
                for i2 in range(m):
                    i = (i1 + coef * i2 + (square if e1 and e2 else 0)) % m
                    row[e2 * m + i2] = (e1 ^ e2) * m + i
    labels = [_pair_label(i, e) for e in (0, 1) for i in range(m)]
    return from_multiplication_table(order, table, (("x", 1), ("y", m)), labels)


def direct_product(a: FiniteGroup, b: FiniteGroup, cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """Componentwise product on pairs; (ia, ib) has index ia*|b| + ib.

    Generator names from the factors are prefixed ``l.`` and ``r.``.
    """
    order = a.order * b.order
    _require_order_at_most(order, cap, "direct product")
    nb = b.order
    table = [
        [a.table[ia][ja] * nb + b.table[ib][jb] for ja in range(a.order) for jb in range(nb)]
        for ia in range(a.order)
        for ib in range(nb)
    ]
    labels = [
        f"({a.label(ia)},{b.label(ib)})" for ia in range(a.order) for ib in range(nb)
    ]
    gens = tuple(
        [(f"l.{name}", i * nb + b.identity) for name, i in a.generator_names]
        + [(f"r.{name}", a.identity * nb + i) for name, i in b.generator_names]
    )
    return from_multiplication_table(order, table, gens, labels)


def semidirect_cyclic(m: int, k: int, a: int, cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """Z_m twisted by Z_k, where y acts on x by x |-> x^a.

    Pairs (i, j) with index j*m + i; requires gcd(a, m) = 1 and
    a^k = 1 (mod m) so the action is by an automorphism of order dividing k.
    Generators: x = (1, 0), y = (0, 1).
    """
    if m < 1 or k < 1:
        raise UnsupportedParameterError(f"cyclic orders must be >= 1, got m={m}, k={k}")
    order = m * k
    _require_order_at_most(order, cap, "semidirect product")
    if math.gcd(a, m) != 1:
        raise InvalidActionError(f"action parameter {a} is not invertible mod {m}")
    if pow(a, k, m) != 1 % m:
        raise InvalidActionError(f"{a}^{k} != 1 (mod {m}); the action does not close")
    apow = [pow(a, j, m) for j in range(k)]
    table = [
        [((j1 + j2) % k) * m + (i1 + apow[j1] * i2) % m for j2 in range(k) for i2 in range(m)]
        for j1 in range(k)
        for i1 in range(m)
    ]
    labels = [_pair_label(i, j) for j in range(k) for i in range(m)]
    gens = (("x", 1 % m), ("y", (m if k > 1 else 0)))
    return from_multiplication_table(order, table, gens, labels)


@dataclass(frozen=True)
class CoverGroup:
    """A group with two distinguished central order-2 subgroups.

    Quotienting by one central subgroup or the other lands in two different
    families; both subgroups avoid every nontrivial commutator, which is
    checked at construction time.
    """

    kind: str
    n: int
    group: FiniteGroup
    z_first: SubgroupSet
    z_second: SubgroupSet

    def __post_init__(self) -> None:
        g = self.group
        zmask = center(g).mask
        comms = commutator_set(g)
        for z in (self.z_first, self.z_second):
            _ensure(len(z) == 2, "distinguished subgroups must have order 2")
            _ensure(z.mask & ~zmask == 0, "distinguished subgroups must be central")
            misses = all(c == g.identity or c not in z for c in comms)
            _ensure(misses, "distinguished subgroups must miss every nontrivial commutator")


def cover_group(kind: str, n: int) -> CoverGroup:
    """The order-2^(n+1) cover whose two central quotients are:

    - ``dihedral_quaternion`` (n >= 3): dihedral(2^n) and quaternion(2^n);
    - ``quaternion_semidihedral`` (n >= 4): quaternion(2^n) and semidihedral(2^n).

    The first is Z_{2^(n-1)} twisted by a Z_4 acting by inversion, with
    distinguished subgroups generated by y^2 and x^(2^(n-2))*y^2.  The second
    is the fiber product of the two families over their common dihedral
    quotient of order 2^(n-1): no split extension of Z_{2^(n-1)} by Z_4 has a
    quaternion quotient except the inversion one, so the pair (quaternion,
    semidihedral) forces this shape.
    """
    if kind == "dihedral_quaternion":
        if n < 3:
            raise UnsupportedParameterError(f"dihedral_quaternion cover needs n >= 3, got {n}")
        m = 1 << (n - 1)
        g = semidirect_cyclic(m, 4, m - 1, cap=2 * m * 4)
        z_dihedral = closure(g, [2 * m])  # y^2
        z_quaternion = closure(g, [2 * m + m // 2])  # x^(m/2) * y^2
        return CoverGroup(kind, n, g, z_dihedral, z_quaternion)
    if kind == "quaternion_semidihedral":
        if n < 4:
            raise UnsupportedParameterError(f"quaternion_semidihedral cover needs n >= 4, got {n}")
        q = make_family("quaternion", 1 << n)
        sd = make_family("semidihedral", 1 << n)
        g, z_quaternion, z_semidihedral = _fiber_product_over_central_quotients(q, sd, n)
        return CoverGroup(kind, n, g, z_quaternion, z_semidihedral)
    raise UnsupportedParameterError(f"unknown cover kind {kind!r}")


def _fiber_product_over_central_quotients(
    a: FiniteGroup, b: FiniteGroup, n: int
) -> tuple[FiniteGroup, SubgroupSet, SubgroupSet]:
    """Pairs (u, v) whose images agree in the common quotient by the central
    involution x^(2^(n-2)) of each factor.

    Quotienting the result by 1 x ker lands in ``a``; by ker x 1 in ``b``.
    """
    from .homs import group_isomorphic, quotient  # deferred: homs builds on core only

    zb_gen = 1 << (n - 2)  # x^(2^(n-2)) in either factor, central of order 2
    qa, pa = quotient(a, closure(a, [zb_gen]))
    qb, pb = quotient(b, closure(b, [zb_gen]))
    iota = group_isomorphic(qb, qa)
    _ensure(iota is not None, "both central quotients must be the same dihedral group")
    pairs = [
        (u, v)
        for u in range(a.order)
        for v in range(b.order)
        if pa.mapping[u] == iota.mapping[pb.mapping[v]]
    ]
    index = {pair: i for i, pair in enumerate(pairs)}
    table = [
        [index[(a.table[u1][u2], b.table[v1][v2])] for (u2, v2) in pairs]
        for (u1, v1) in pairs
    ]
    labels = [f"({a.label(u)},{b.label(v)})" for u, v in pairs]
    # x and y are a's generators, each paired with its lowest-index partner;
    # for the family factors here they generate the fiber product
    hints = [
        (name, next(i for i, (u, _) in enumerate(pairs) if u == ga)) for name, ga in a.generator_names
    ]
    try:
        g = from_multiplication_table(len(pairs), table, hints, labels)
    except ValueError as e:
        raise InternalInconsistencyError(f"fiber product generator hints: {e}") from e
    z_first = closure(g, [index[(a.identity, zb_gen)]])
    z_second = closure(g, [index[(zb_gen, b.identity)]])
    return g, z_first, z_second


class CatalogEntry(NamedTuple):
    name: str
    group: FiniteGroup


_catalog_cache: dict[int, tuple[CatalogEntry, ...]] = {}


def catalog(max_order: int = 32) -> tuple[CatalogEntry, ...]:
    """A deterministic list of named groups of order <= max_order.

    Contains all cyclic, dihedral, quaternion and semidihedral groups, all
    products of two or three cyclic factors (factors >= 2, ascending), and
    every valid semidirect_cyclic(m, k, a) with m, k >= 2 and 2 <= a < m.
    Entry names are expressions the CLI accepts.  Groups are cached, so the
    lazy per-group data is shared by everything in one process.
    """
    if max_order in _catalog_cache:
        return _catalog_cache[max_order]
    entries: list[CatalogEntry] = []
    for n in range(1, max_order + 1):
        entries.append(CatalogEntry(f"cyclic({n})", make_family("cyclic", n)))
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
    for a in range(2, max_order + 1):
        for b in range(a, max_order // a + 1):
            g = direct_product(make_family("cyclic", a), make_family("cyclic", b))
            entries.append(CatalogEntry(f"product(cyclic({a}),cyclic({b}))", g))
    for a in range(2, max_order + 1):
        for b in range(a, max_order + 1):
            for c in range(b, max_order // (a * b) + 1):
                inner = direct_product(make_family("cyclic", b), make_family("cyclic", c))
                g = direct_product(make_family("cyclic", a), inner)
                entries.append(
                    CatalogEntry(f"product(cyclic({a}),product(cyclic({b}),cyclic({c})))", g)
                )
    for m in range(2, max_order + 1):
        for k in range(2, max_order // m + 1):
            for a in range(2, m):
                if math.gcd(a, m) == 1 and pow(a, k, m) == 1:
                    entries.append(
                        CatalogEntry(f"semidirect({m},{k},{a})", semidirect_cyclic(m, k, a))
                    )
    result = tuple(entries)
    _catalog_cache[max_order] = result
    return result

"""Group homomorphisms, quotients, and the two centralizer-respecting checks.

A homomorphism is stored as the full element map of a validated
:class:`GroupHom`.  The two routes for deciding whether a surjection
respects centralizers — the definitional subgroup sweep and the
central-kernel commutator criterion — are deliberately kept independent;
callers that run both treat disagreement as an internal error.

Verdicts here and in :mod:`centlat.lattice` are immutable ``NamedTuple``
records, each true exactly when its first field ``ok`` is (the one
:func:`_verdict_ok`; a bare tuple is always true).  A record equals a plain
tuple of its values, so the package dispatches on records by ``isinstance``.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .core import (
    DEFAULT_ORDER_CAP,
    FiniteGroup,
    SubgroupSet,
    _bits,
    _center_mask,
    _centralizer_mask,
    _first_commutator_pairs,
    _gather,
    _is_integral,
    _require,
    _require_order_at_most,
    _subgroup_table,
    all_subgroups,
)
from .errors import (
    DomainMismatchError,
    KernelNotCentralError,
    NotHomomorphismError,
    NotNormalError,
    NotSurjectiveError,
    TableJsonError,
)
from . import core as _core


class GroupHom:
    """A homomorphism between two finite groups, as its full element map.

    The constructor checks ``mapping``: one entry per source element, each
    an integral element index of ``target`` (not a bool, float or string),
    else a :class:`NotHomomorphismError` that names the problem; then
    phi(a)*phi(b) = phi(a*b) a whole row at a time, each row picked at C
    speed by :func:`~centlat.core._gather`, with the first differing b of
    the first failing a as the witness.  Maps that the package builds as
    homomorphisms (projections, composites, identities) go through
    :meth:`_trusted` instead.
    """

    def __init__(self, source: FiniteGroup, target: FiniteGroup, mapping) -> None:
        _require("GroupHom", FiniteGroup, source, target)
        bad = NotHomomorphismError._bad_map
        try:
            m = tuple(mapping)
        except TypeError:
            raise bad(f"{type(mapping).__name__} is not a sequence of element indices", mapping) from None
        if len(m) != source.order:
            raise bad(f"it has {len(m)} entries but the source has order {source.order}")
        for i, v in enumerate(m):
            if not _is_integral(v) or not 0 <= v < target.order:
                raise bad(f"entry {i} is {v!r}, not an element index of the order-{target.order} target", v)
        m = tuple(map(int, m))  # e.g. NumPy integers
        ts, tt = source.table, target.table
        images = _gather(m)  # images(tt[v])[b] = v*phi(b)
        for a in range(source.order):
            got = images(tt[m[a]])  # got[b] = phi(a)*phi(b)
            expected = _gather(ts[a])(m)  # expected[b] = phi(a*b)
            if got != expected:
                b = next(b for b, (u, v) in enumerate(zip(got, expected)) if u != v)
                raise NotHomomorphismError(a, b, got[b], expected[b])
        self.source, self.target, self.mapping = source, target, m
        self._crh_verdict: "CrhVerdict | None" = None
        self._kernel: int | None = None  # the kernel mask, recorded only for maps onto by construction

    @classmethod
    def _trusted(cls, source: FiniteGroup, target: FiniteGroup, mapping: tuple, kernel: int | None = None):
        """A map the package built as a homomorphism, taken unchecked.  A
        ``kernel`` mask is given only for a map onto ``target`` by
        construction (a projection, an identity); :func:`kernel` then returns
        it and :func:`_require_surjective` trusts it without a scan."""
        self = object.__new__(cls)
        self.source, self.target, self.mapping, self._crh_verdict = source, target, mapping, None
        self._kernel = kernel
        return self

    def image_mask(self, members: Iterable[int]) -> int:
        """Bitmask of the image of ``members``."""
        m, mapping = 0, self.mapping
        for a in members:
            m |= 1 << mapping[a]
        return m

    def is_bijective(self) -> bool:
        return self.source.order == self.target.order and is_surjective(self)

    def __repr__(self) -> str:
        return f"GroupHom({self.source.order} -> {self.target.order})"


def hom_from_map(source: FiniteGroup, target: FiniteGroup, mapping) -> GroupHom:
    """``GroupHom(source, target, mapping)``: the checked homomorphism."""
    return GroupHom(source, target, mapping)


def identity_hom(group: FiniteGroup) -> GroupHom:
    _require("identity_hom", FiniteGroup, group)
    return GroupHom._trusted(group, group, tuple(range(group.order)), 1 << group.identity)


def compose(outer: GroupHom, inner: GroupHom) -> GroupHom:
    """outer after inner; requires inner.target and outer.source to agree."""
    _require("compose", GroupHom, outer, inner)
    if not inner.target.same_table(outer.source):
        raise DomainMismatchError("cannot compose: inner target differs from outer source")
    return GroupHom._trusted(inner.source, outer.target, tuple(outer.mapping[v] for v in inner.mapping))


def kernel(h: GroupHom) -> SubgroupSet:
    """The elements mapped to the identity: the mask the map recorded, else a scan."""
    _require("kernel", GroupHom, h)
    mask, e = h._kernel, h.target.identity
    if mask is None:
        mask = sum(1 << a for a, v in enumerate(h.mapping) if v == e)
    return SubgroupSet._from_mask(h.source, mask)


def is_surjective(h: GroupHom) -> bool:
    _require("is_surjective", GroupHom, h)
    return len(set(h.mapping)) == h.target.order


def _require_surjective(where: str, h: GroupHom) -> None:
    _require(where, GroupHom, h)
    if h._kernel is None and not is_surjective(h):
        raise NotSurjectiveError(min(set(range(h.target.order)).difference(h.mapping)))


def quotient(group: FiniteGroup, n: SubgroupSet) -> tuple[FiniteGroup, GroupHom]:
    """The quotient by a normal subgroup, plus the projection onto it.

    Left cosets are numbered by :func:`~centlat.core._left_cosets`, the
    package's one coset walk, so the cosets come out sorted by least element
    and quotient tables are deterministic.  The left cosets of any subgroup
    partition G, normal or not, so normality is checked afterwards, on the
    representatives only, in ascending order: g^-1 N g = N holds for g
    exactly when it holds for gy (y in N), so the first failing element is a
    representative and the :class:`NotNormalError` witness is the one a
    check of every element would find.

    The quotient is trusted by construction (see :mod:`centlat.core`): G
    is associative and N is normal (just checked), so the coset product is
    well defined and associative; N is the identity coset and g^-1 N is the
    inverse of gN.  Every group carries generator names that generate it,
    so their de-duplicated images generate the quotient.  Every field read
    off the projection, itself a homomorphism by construction, is the one
    validation would have produced.  Row a of the quotient table is
    proj[ra*rb] over the representatives rb, two :func:`~centlat.core._gather`
    steps at C speed.  The projection records N's mask as its kernel.

    G/1 is G itself, projected by a fresh :func:`identity_hom`: the cosets {g},
    numbered by least element, give G's own fields, so G's caches are shared.
    Only hints naming one element twice take the general path, which drops
    the repeat.
    """
    _require("quotient", FiniteGroup, group)
    _require("quotient", SubgroupSet, n)
    t, inverse, mask = group.table, group.inverse, _core._mask_of(group, n)  # n of another group raises
    if mask == 1 << group.identity and len({g for _, g in group.generator_names}) == len(group.generator_names):
        return group, identity_hom(group)
    proj, reps = _core._left_cosets(group, n.members)
    for g in reps:  # g is the least element of gN, so the conjugation check runs once per coset
        ig = inverse[g]
        for x in n.members:
            conj = t[t[ig][x]][g]
            if not mask >> conj & 1:
                raise NotNormalError(g, x, conj)
    at_reps, proj = _gather(reps), tuple(proj)
    qtable = tuple(_gather(at_reps(t[ra]))(proj) for ra in reps)  # proj[ra*rb] over rb
    first_name: dict[int, str] = {}  # image -> the first generator name mapped to it
    for name, g in group.generator_names:
        first_name.setdefault(proj[g], name)
    qlabels = tuple(group.label(r) for r in reps) if group.element_labels else None
    qinverse = tuple(proj[inverse[r]] for r in reps)
    qgens = tuple((name, v) for v, name in first_name.items())
    q = FiniteGroup(len(reps), qtable, proj[group.identity], qinverse, qgens, qlabels)
    return q, GroupHom._trusted(group, q, proj, mask)


# ---------------------------------------------------------------------------
# centralizer-respecting checks


def _verdict_ok(verdict) -> bool:
    """``__bool__`` of every verdict: true exactly when ``ok``."""
    return verdict.ok


class CrhWitness(NamedTuple):
    """A subgroup on which phi(C(A)) != C(phi(A)), with both sides."""

    subgroup: tuple[int, ...]
    image_of_centralizer: tuple[int, ...]
    centralizer_of_image: tuple[int, ...]


class CrhVerdict(NamedTuple):
    ok: bool
    witness: CrhWitness | None = None
    __bool__ = _verdict_ok


def is_centralizer_respecting(h: GroupHom, cap: int = DEFAULT_ORDER_CAP) -> CrhVerdict:
    """Definitional check: phi(C(A)) = C(phi(A)) for every subgroup A.

    Requires surjectivity.  Sweeps the subgroups of the source in (order,
    members) order, so the cap applies (cached verdicts included), and the
    first A where the two sides differ is the witness.  A central subgroup
    A (C(A) = G) is skipped, as it can never fail: phi(C(A)) = phi(G) = Q
    since phi is onto, and C(phi(A)) contains phi(C(A)), so both sides are
    Q.  The subgroups, a generating set of each and C(A) come from the
    source group's subgroup table (:func:`~centlat.core._subgroup_table`),
    filled once per group, so every projection of one group shares them.
    phi(C(A)) depends only on C(A), so it is computed once per distinct
    C(A) within the sweep; the images of A's generators generate phi(A),
    so C(phi(A)) is the centralizer of their image in the target.  The
    verdict is cached on the homomorphism only once the sweep is complete,
    so an error partway through caches nothing.
    """
    _require_surjective("is_centralizer_respecting", h)
    _require_order_at_most(h.source.order, cap)
    if h._crh_verdict is None:
        verdict = CrhVerdict(True)
        image_of: dict[int, int] = {}  # C(A) -> phi(C(A))
        subgroups = all_subgroups(h.source, cap)
        _, generators, centralizers = _subgroup_table(h.source)
        for a_sub, gens, c in zip(subgroups, generators, centralizers):
            if c == h.source.full_mask:
                continue
            lhs = image_of.get(c)
            if lhs is None:
                lhs = image_of[c] = h.image_mask(_bits(c))
            rhs = _centralizer_mask(h.target, h.image_mask(gens))
            if lhs != rhs:
                verdict = CrhVerdict(False, CrhWitness(a_sub.members, tuple(_bits(lhs)), tuple(_bits(rhs))))
                break
        h._crh_verdict = verdict
    return h._crh_verdict


class CentralKernelVerdict(NamedTuple):
    """Outcome of the commutator criterion for a central-kernel surjection.

    ``ok`` means: kernel is central and contains no nontrivial commutator.
    When a commutator lands in the kernel, the witnessing pair (a, b) and
    the commutator value are recorded.
    """

    ok: bool
    witness_pair: tuple[int, int] | None = None
    witness_commutator: int | None = None
    __bool__ = _verdict_ok


def crh_central_kernel_criterion(h: GroupHom) -> CentralKernelVerdict:
    """Commutator criterion: a central-kernel surjection respects centralizers
    exactly when the kernel meets the commutator set only at the identity.

    Raises :class:`KernelNotCentralError` when the kernel is not central
    (the criterion does not apply), and :class:`NotSurjectiveError` when the
    map is not onto.
    """
    _require_surjective("crh_central_kernel_criterion", h)
    g = h.source
    ker = kernel(h)
    stray = ker.mask & ~_center_mask(g)
    if stray:
        k = _bits(stray)[0]
        witness = _bits(g.full_mask & ~g.centralizer_masks()[k])[0]
        raise KernelNotCentralError(k, witness)
    # The first pair in row-major order whose commutator is a nontrivial
    # kernel element: the least of the first pairs of those commutators.
    first = _first_commutator_pairs(g)
    hits = [(first[c], c) for c in ker.members if c != g.identity and c in first]
    if hits:
        pair, c = min(hits)
        return CentralKernelVerdict(False, pair, c)
    return CentralKernelVerdict(True)


# ---------------------------------------------------------------------------
# isomorphism testing


def _iso_fingerprint(g: FiniteGroup, orders: tuple[int, ...]) -> tuple:
    cents = sorted(m.bit_count() for m in g.centralizer_masks())
    # |G| is the length of each tuple, |Z(G)| the count of centralizers of size |G|
    return (tuple(sorted(orders)), tuple(cents))


def group_isomorphic(a: FiniteGroup, b: FiniteGroup) -> GroupHom | None:
    """An isomorphism a -> b as a :class:`GroupHom`, or None.

    Backtracks over images of a generating set, forcing the rest of the map
    along generator edges and keeping the first bijection that
    :func:`hom_from_map` accepts; the search is deterministic (ascending
    candidate order), so the returned isomorphism is stable run to run.
    """
    _require("group_isomorphic", FiniteGroup, a, b)
    a_orders, b_orders = a.element_orders(), b.element_orders()  # one walk of each group
    if _iso_fingerprint(a, a_orders) != _iso_fingerprint(b, b_orders):
        return None
    if a.same_table(b):
        return GroupHom._trusted(a, b, tuple(range(a.order)))
    gens = list(dict.fromkeys(g for _, g in a.generator_names))
    candidates = [[x for x in range(b.order) if b_orders[x] == a_orders[g]] for g in gens]

    def extend(mapping: list[int]) -> GroupHom | None:
        """Force the map along generator edges, full[x*g] = full[x]*v, from
        the identity; hom_from_map then decides whether it is a homomorphism."""
        full = [-1] * a.order
        full[a.identity] = b.identity
        known = [a.identity]
        for x in known:  # grows as elements are reached
            row, image_row = a.table[x], b.table[full[x]]
            for g, v in zip(gens, mapping):
                if full[row[g]] == -1:
                    full[row[g]] = image_row[v]
                    known.append(row[g])
        if len(set(full)) != b.order:
            return None  # not a bijection (an unreached -1 fails hom_from_map)
        try:
            return hom_from_map(a, b, full)
        except NotHomomorphismError:
            return None

    def search(k: int, mapping: list[int], used: int) -> GroupHom | None:
        if k == len(gens):
            return extend(mapping)
        for x in candidates[k]:
            if used >> x & 1:
                continue
            mapping.append(x)
            result = search(k + 1, mapping, used | 1 << x)
            if result is not None:
                return result
            mapping.pop()
        return None

    return search(0, [], 0)


# ---------------------------------------------------------------------------
# JSON round-trip

_HOM_KEYS = {"source", "target", "map"}


def hom_to_json(h: GroupHom) -> dict:
    _require("hom_to_json", GroupHom, h)
    return {
        "source": _core.group_to_json(h.source),
        "target": _core.group_to_json(h.target),
        "map": list(h.mapping),
    }


def hom_from_json(doc) -> GroupHom:
    doc = _core._json_object(doc, "homomorphism", _HOM_KEYS)
    if _HOM_KEYS - set(doc):
        raise TableJsonError("homomorphism document requires 'source', 'target', 'map'")
    source = _core.group_from_json(doc["source"])
    target = _core.group_from_json(doc["target"])
    mapping = doc["map"]
    if not isinstance(mapping, list) or not all(map(_is_integral, mapping)):
        raise TableJsonError("'map' must be a list of target element indices")
    return hom_from_map(source, target, mapping)

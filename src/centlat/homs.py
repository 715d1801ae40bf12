"""Group homomorphisms, quotients, and the two centralizer-respecting checks.

A homomorphism is stored as the full element map of a validated
:class:`GroupHom`.  The two routes for deciding whether a surjection
respects centralizers — the definitional subgroup sweep and the
central-kernel commutator criterion — are deliberately kept independent.
They meet in one place, :func:`_crh_routes`, which runs each route that
applies and records whether they agree; its callers treat disagreement as
an internal error.

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
        """Bitmask of the image of ``members``: element indices of the
        source, each checked, else ``ValueError``, or a subgroup of it."""
        return self._image_of_mask(_core._mask_of(self.source, members))

    def _image_of_mask(self, mask: int) -> int:
        """Bitmask of the image of the elements of ``mask``, walked over its
        set bits in place, without :func:`_bits`' list."""
        m, mapping = 0, self.mapping
        while mask:
            low = mask & -mask
            m |= 1 << mapping[low.bit_length() - 1]
            mask ^= low
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
    partition G, normal or not, so normality is checked afterwards.  An N
    inside the center Z(G) is normal; Z(G) is read off G's centralizer
    table only when that table is filled already, as filling it costs more
    than the test it would spare.  Any other N is conjugated by the named
    generators: they generate G, so N is normal exactly when each of them
    maps N into N.  Only when one does not are the representatives scanned,
    in ascending order, for the witness:
    g^-1 N g = N holds for g exactly when it holds for gy (y in N), so the
    first failing element is a representative and the
    :class:`NotNormalError` witness is the one a check of every element
    would find.

    The quotient is trusted by construction (see :mod:`centlat.core`): G
    is associative and N is normal (just checked), so the coset product is
    well defined and associative, and its table is a group table.  Every
    group carries generator names that generate it, so their de-duplicated
    images generate the quotient.  Row a of the quotient table is
    proj[ra*rb] over the representatives rb: row ra of G read through proj,
    then read at the representatives, two compositions at C speed
    (:func:`~centlat.core._rows_through`), handed to the constructor, which
    stores it as the quotient's row type and reads the identity (N) and the
    inverses off it.
    The projection records N's mask as its kernel.  Each coset is labelled
    by its least element's label, picked off G's by
    :func:`~centlat.core._labels_at`: G's labels are formatted only when
    something reads them, and the quotient holds no reference to G.

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
    members = n.members
    proj, reps = _core._left_cosets(group, members)

    def escape(conjugators: Iterable[int]) -> tuple[int, int, int] | None:
        """The first (g, x, g^-1 x g) with the conjugate outside N, or None."""
        for g in conjugators:
            ig = inverse[g]
            for x in members:
                conj = t[t[ig][x]][g]
                if not mask >> conj & 1:
                    return g, x, conj
        return None

    z = _core._known_center_mask(group)
    if (z is None or mask & ~z) and escape(g for _, g in group.generator_names) is not None:
        raise NotNormalError(*escape(reps))
    at_reps, proj = _gather(reps), tuple(proj)
    qtable = _core._rows_through(at_reps(t), proj, reps)  # proj[ra*rb] over rb
    first_name: dict[int, str] = {}  # image -> the first generator name mapped to it
    for name, g in group.generator_names:
        first_name.setdefault(proj[g], name)
    qgens = tuple((name, v) for v, name in first_name.items())
    q = FiniteGroup(qtable, qgens, _core._labels_at(group, at_reps))
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
    Q.  When G is abelian (Z(G) = G) every subgroup is, so the map passes
    and no subgroup is enumerated.  The subgroups, a generating set
    of each and C(A) come from the source group's subgroup table
    (:func:`~centlat.core._subgroup_table`), filled once per group, so
    every projection of one group shares them.
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
        mapping = h.mapping
        abelian = _center_mask(h.source) == h.source.full_mask  # then every subgroup is central
        subgroups = () if abelian else all_subgroups(h.source, cap)
        _, generators, centralizers = ((),) * 3 if abelian else _subgroup_table(h.source)
        for a_sub, gens, c in zip(subgroups, generators, centralizers):
            if c == h.source.full_mask:
                continue
            lhs = image_of.get(c)
            if lhs is None:
                lhs = image_of[c] = h._image_of_mask(c)
            image = 0  # of A's generators, a trusted tuple of the table, mapped unchecked
            for x in gens:
                image |= 1 << mapping[x]
            rhs = _centralizer_mask(h.target, image)
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
    first, nontrivial = _first_commutator_pairs(g), ker.mask & ~(1 << g.identity)
    hits = [(pair, c) for c, pair in first.items() if nontrivial >> c & 1]
    if hits:
        pair, c = min(hits)
        return CentralKernelVerdict(False, pair, c)
    return CentralKernelVerdict(True)


class _CrhRoutes(NamedTuple):
    """Every crh route run on one surjection, by :func:`_crh_routes`.
    ``criterion`` is None when the kernel is not central, and ``reason`` is
    then the :class:`KernelNotCentralError` text; ``agree`` is false exactly
    when both routes ran and their verdicts differ."""

    definitional: CrhVerdict
    criterion: CentralKernelVerdict | None
    reason: str | None
    agree: bool


def _crh_routes(h: GroupHom, cap: int = DEFAULT_ORDER_CAP) -> _CrhRoutes:
    """The one place the crh routes meet: the definitional sweep, then the
    commutator criterion where it applies.  Raises nothing about
    disagreement; each caller decides when to."""
    definitional = is_centralizer_respecting(h, cap)
    try:
        criterion, reason = crh_central_kernel_criterion(h), None
    except KernelNotCentralError as e:
        criterion, reason = None, str(e)
    return _CrhRoutes(definitional, criterion, reason, criterion is None or criterion.ok == definitional.ok)


# ---------------------------------------------------------------------------
# isomorphism testing


def _iso_fingerprint(g: FiniteGroup, orders: tuple[int, ...]) -> tuple:
    cents = sorted(m.bit_count() for m in g.centralizer_masks())
    # |G| is the length of each tuple, |Z(G)| the count of centralizers of size |G|
    return (tuple(sorted(orders)), tuple(cents))


def _injective_assignments(candidates: list[list[int]], fits=None):
    """Every tuple with one entry of each candidate list and no entry twice,
    depth first in list order, where ``fits(prefix, x)`` holds for each pick
    x after the picks ``prefix`` (a live list: read it only).  The one
    backtracking search of group_isomorphic and lattice.lattices_isomorphic."""
    prefix, used, stack = [], set(), [iter(c) for c in candidates[:1]]
    if not candidates:
        yield ()
    while stack:
        x = next((x for x in stack[-1] if x not in used and (fits is None or fits(prefix, x))), None)
        if x is None:  # this level is exhausted: take back the pick below it
            stack.pop()
            if prefix:
                used.remove(prefix.pop())
        elif len(stack) == len(candidates):
            yield (*prefix, x)
        else:
            prefix.append(x)
            used.add(x)
            stack.append(iter(candidates[len(stack)]))


def group_isomorphic(a: FiniteGroup, b: FiniteGroup) -> GroupHom | None:
    """An isomorphism a -> b as a :class:`GroupHom`, or None.

    Walks the injective tuples of generator images of
    :func:`_injective_assignments`, forcing the rest of the map along
    generator edges and keeping the first bijection that
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

    def extend(images: tuple[int, ...]) -> GroupHom | None:
        """Force the map along generator edges, full[x*g] = full[x]*v, from
        the identity; hom_from_map then decides whether it is a homomorphism."""
        full = [-1] * a.order
        full[a.identity] = b.identity
        known = [a.identity]
        for x in known:  # grows as elements are reached
            row, image_row = a.table[x], b.table[full[x]]
            for g, v in zip(gens, images):
                if full[row[g]] == -1:
                    full[row[g]] = image_row[v]
                    known.append(row[g])
        if len(set(full)) != b.order:
            return None  # not a bijection (an unreached -1 fails hom_from_map)
        try:
            return hom_from_map(a, b, full)
        except NotHomomorphismError:
            return None

    return next((h for h in map(extend, _injective_assignments(candidates)) if h is not None), None)


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

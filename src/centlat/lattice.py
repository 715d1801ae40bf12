"""Centralizer lattices, induced maps between them, and lattice isomorphism.

The nodes of a group's centralizer lattice are the centralizers of subsets:
the whole group (centralizer of the empty set) together with the closure of
the single-element centralizers under intersection.  Order is set inclusion;
meet is intersection, join is the centralizer of the intersection of
centralizers, and taking centralizers once more is an order-reversing
involution of the node set.  The build stores the nodes as bitmasks, the
order (i <= j when node i lies inside node j) and the involution, and checks
two facts: the involution is involutive, and it reverses the order.
``meet(s, t)`` looks the intersection up among the nodes, which the build
closes under intersection.  ``join(s, t)`` derives joins from meets: an
order-reversing bijection turns the meet of C(X) and C(Y), their greatest
lower bound, into the least upper bound of X and Y.
"""

from __future__ import annotations

from typing import NamedTuple

from .core import (
    DEFAULT_ORDER_CAP,
    FiniteGroup,
    _bits,
    _centralizer_mask,
    _is_integral,
    _mask_key,
    _require,
    _require_order_at_most,
)
from .errors import (
    DomainMismatchError,
    InternalInconsistencyError,
    NodeCapExceededError,
    NotCrhError,
    _ensure,
)
from .homs import GroupHom, _injective_assignments, _verdict_ok, compose, identity_hom, is_centralizer_respecting

DEFAULT_NODE_CAP = 512


class CentralizerLattice:
    """The centralizer lattice of a finite group, built from the group
    alone in one pass: starting from {G}, each distinct centralizer C(x)
    other than G adds its intersection with every node found so far.

    ``nodes`` holds one bitmask per node, with bit e set when element e
    lies in it, sorted by (subgroup order, members); node 0 is the bottom
    (the center) and the last node is the top (the whole group).  The
    order (``leq_masks``) and the ``involution`` are stored over node
    indices; ``meet(s, t)`` reads a meet off the node masks and
    ``join(s, t)`` derives a join from a meet and the involution.
    """

    def __init__(self, group: FiniteGroup) -> None:
        _require("CentralizerLattice", FiniteGroup, group)
        self.group = group
        closed = {group.full_mask}  # every meet of G and the C(x) so far
        for c in set(group.centralizer_masks()) - {group.full_mask}:  # m & G = m adds nothing
            closed |= {c & m for m in closed}
        nodes = sorted(closed, key=_mask_key)
        self.nodes: tuple[int, ...] = tuple(nodes)
        self.index_of_mask = index_of = {m: i for i, m in enumerate(nodes)}

        self.top = len(nodes) - 1  # the full mask is the one node of order |G|, so it sorts last
        self.bottom = 0
        cents = [_centralizer_mask(group, m) for m in nodes]
        _ensure(nodes[self.bottom] == cents[self.top], "bottom node must be the center")
        self.involution = tuple(index_of[c] for c in cents)
        # i <= j exactly when node i lies inside node j
        self.leq_masks = tuple(sum(1 << j for j, mj in enumerate(nodes) if mi & mj == mi) for mi in nodes)
        self._validate()

    def _validate(self) -> None:
        inv, leq = self.involution, self.leq_masks
        _ensure(all(inv[v] == i for i, v in enumerate(inv)), "involution must be involutive")
        reverses = all(leq[inv[j]] >> inv[i] & 1 for i in range(len(inv)) for j in _bits(leq[i]))
        _ensure(reverses, "involution must reverse order")

    # -- queries ------------------------------------------------------------

    def leq(self, s: int, t: int) -> bool:
        return bool(self.leq_masks[s] >> t & 1)

    def meet(self, s: int, t: int) -> int:
        """The intersection of nodes s and t: the build closes the nodes under it."""
        return self.index_of_mask[self.nodes[s] & self.nodes[t]]

    def join(self, s: int, t: int) -> int:
        """C(meet(C(s), C(t))): the involution reverses the order (checked
        in _validate), so it turns that greatest lower bound into the least
        upper bound of s and t."""
        inv = self.involution
        return inv[self.meet(inv[s], inv[t])]

    def node_count(self) -> int:
        return len(self.nodes)

    def node_orders(self) -> tuple[int, ...]:
        return tuple(m.bit_count() for m in self.nodes)

    def covers(self) -> tuple[tuple[int, int], ...]:
        """(parent, child) pairs of the Hasse diagram, sorted: the parents of
        a child are the minimal elements of its strict up-set."""
        out = []
        for c, up in enumerate(self.leq_masks):
            minimal = strict = up & ~(1 << c)
            for k in _bits(strict):
                minimal &= ~self.leq_masks[k] | 1 << k  # drop what lies strictly above k
            out.extend((p, c) for p in _bits(minimal))
        out.sort()
        return tuple(out)

    def __repr__(self) -> str:
        return f"CentralizerLattice(group_order={self.group.order}, nodes={len(self.nodes)})"


def build_centralizer_lattice(group: FiniteGroup, cap: int = DEFAULT_ORDER_CAP) -> CentralizerLattice:
    """The centralizer lattice of ``group``, after the order cap check."""
    _require("build_centralizer_lattice", FiniteGroup, group)
    _require_order_at_most(group.order, cap)
    return CentralizerLattice(group)


def lattice_of(group: FiniteGroup, cap: int = DEFAULT_ORDER_CAP) -> CentralizerLattice:
    """Per-group cached lattice (the lattice is canonical, so sharing is
    safe), kept in ``group._lattice``, which only this function sets."""
    _require("lattice_of", FiniteGroup, group)
    _require_order_at_most(group.order, cap)
    lattice = getattr(group, "_lattice", None)
    if lattice is None:
        lattice = group._lattice = build_centralizer_lattice(group, cap)
    return lattice


# ---------------------------------------------------------------------------
# maps between lattices


class _LatticeMapFields(NamedTuple):
    source: CentralizerLattice
    target: CentralizerLattice
    node_map: tuple[int, ...]


class LatticeMap(_LatticeMapFields):
    """A node map between two centralizer lattices: any iterable of one
    target node index per source node, stored as a tuple of ints, else
    :class:`DomainMismatchError`, on ``_replace`` too."""

    __slots__ = ()

    def __new__(cls, *fields, **named) -> "LatticeMap":
        source, target, node_map = super().__new__(cls, *fields, **named)
        _require("LatticeMap", CentralizerLattice, source, target)
        try:
            node_map = tuple(node_map)
        except TypeError:
            raise DomainMismatchError(f"{type(node_map).__name__} is not an iterable of node indices") from None
        n, m = len(source.nodes), len(target.nodes)
        if len(node_map) != n or not all(_is_integral(v) and 0 <= v < m for v in node_map):
            raise DomainMismatchError(f"node map {list(node_map)} does not send {n} nodes into {m}")
        return super().__new__(cls, source, target, tuple(map(int, node_map)))

    @classmethod
    def _make(cls, fields) -> "LatticeMap":
        return cls(*fields)

    @classmethod
    def _trusted(cls, source: CentralizerLattice, target: CentralizerLattice, node_map: tuple) -> "LatticeMap":
        """A tuple node map read off the target's nodes, unchecked (see :mod:`centlat.core`)."""
        return tuple.__new__(cls, (source, target, node_map))

    def is_bijective(self) -> bool:
        return len(set(self.node_map)) == len(self.node_map) == len(self.target.nodes)

    def __repr__(self) -> str:
        return f"LatticeMap({len(self.source.nodes)} -> {len(self.target.nodes)} nodes)"


def induced_map(phi: GroupHom) -> LatticeMap:
    """The node map sending C(A) to phi(C(A)), defined for crh surjections.

    Verifies the definitional centralizer-respecting property first and
    raises :class:`NotCrhError` (with the witness subgroup) when it fails.
    The verdict requires phi onto, so the top node G goes to the target's
    top unmapped; the rest are looked up among the target's nodes.
    """
    _require("induced_map", GroupHom, phi)
    source_lattice = lattice_of(phi.source)
    target_lattice = lattice_of(phi.target)
    verdict = is_centralizer_respecting(phi)
    if not verdict:
        w = verdict.witness
        raise NotCrhError(
            "homomorphism does not respect centralizers "
            f"(witness subgroup {list(w.subgroup)})",
            witness=w,
        )
    mapping = []
    for node in source_lattice.nodes[: source_lattice.top]:
        img = phi._image_of_mask(node)
        idx = target_lattice.index_of_mask.get(img)
        if idx is None:  # cannot happen: a crh phi maps C(A) onto C(phi(A)), a node
            where = f"image {_bits(img)} of lattice node {_bits(node)}"
            raise InternalInconsistencyError(f"{where} is not a node of the target lattice")
        mapping.append(idx)
    mapping.append(target_lattice.top)
    return LatticeMap._trusted(source_lattice, target_lattice, tuple(mapping))


def _same_lattice(a: CentralizerLattice, b: CentralizerLattice) -> bool:
    return a.group.same_table(b.group) and a.nodes == b.nodes


def compose_lattice_maps(outer: LatticeMap, inner: LatticeMap) -> LatticeMap:
    _require("compose_lattice_maps", LatticeMap, outer, inner)
    if not _same_lattice(inner.target, outer.source):
        raise DomainMismatchError("cannot compose: inner target lattice differs from outer source")
    return LatticeMap(inner.source, outer.target, tuple(outer.node_map[v] for v in inner.node_map))


def invert_lattice_map(m: LatticeMap) -> LatticeMap:
    _require("invert_lattice_map", LatticeMap, m)
    if not m.is_bijective():
        raise DomainMismatchError("only bijective lattice maps can be inverted")
    inverse = [0] * len(m.node_map)
    for s, t in enumerate(m.node_map):
        inverse[t] = s
    return LatticeMap(m.target, m.source, tuple(inverse))


class LatticeHomVerdict(NamedTuple):
    """Whether a lattice map preserves the involution and every meet; it
    then preserves every join, C(C(s) meet C(t)), which is not checked.

    ``law``/``witness`` describe the first failure (pairs scanned in
    ascending order).  Top/bottom preservation is reported but does not by
    itself fail the verdict; for the maps this package builds it always
    holds when the laws do.
    """

    ok: bool
    law: str | None = None
    witness: tuple[int, ...] | None = None
    preserves_top: bool = True
    preserves_bottom: bool = True
    __bool__ = _verdict_ok


def is_lattice_hom(m: LatticeMap) -> LatticeHomVerdict:
    _require("is_lattice_hom", LatticeMap, m)
    src, dst, f = m.source, m.target, m.node_map
    count = len(src.nodes)
    preserves_top = f[src.top] == dst.top
    preserves_bottom = f[src.bottom] == dst.bottom
    for s in range(count):
        if dst.involution[f[s]] != f[src.involution[s]]:
            return LatticeHomVerdict(False, "involution", (s,), preserves_top, preserves_bottom)
    for s in range(count):
        for t in range(s + 1, count):  # meet(s, s) is s on both sides
            if f[src.meet(s, t)] != dst.meet(f[s], f[t]):
                return LatticeHomVerdict(False, "meet", (s, t), preserves_top, preserves_bottom)
    return LatticeHomVerdict(True, None, None, preserves_top, preserves_bottom)


# ---------------------------------------------------------------------------
# lattice isomorphism


def _order_fingerprints(lattice: CentralizerLattice) -> list[tuple]:
    """Per-node invariants of the abstract (lattice + involution) structure.

    Deliberately ignores subgroup sizes: different groups can carry the same
    abstract lattice on subgroups of different orders.  The involution
    reverses the order, so the nodes below i are the images of the nodes
    above involution[i], and the pair for i holds the count of nodes above i.
    """
    count = len(lattice.nodes)
    leq, inv = lattice.leq_masks, lattice.involution
    down = [leq[inv[i]].bit_count() for i in range(count)]
    heights = [0] * count
    for i in sorted(range(count), key=lambda v: down[v]):
        below = [inv[k] for k in _bits(leq[inv[i]]) if k != inv[i]]
        heights[i] = 1 + max((heights[j] for j in below), default=-1)
    base = [(down[i], heights[i], inv[i] == i) for i in range(count)]
    return [(base[i], base[inv[i]]) for i in range(count)]


def lattices_isomorphic(a: CentralizerLattice, b: CentralizerLattice) -> LatticeMap | None:
    """An isomorphism of bounded involution lattices a -> b, or None.

    Matches only order structure (and the induced meet/join/involution),
    never the underlying subgroup sizes.  The first map, in index order, of
    the backtracking search ``homs._injective_assignments`` over
    fingerprint-compatible candidates; the found map is verified in full
    before being returned.  Lattices of more than ``DEFAULT_NODE_CAP``
    nodes are refused.
    """
    _require("lattices_isomorphic", CentralizerLattice, a, b)
    count = len(a.nodes)
    if count > DEFAULT_NODE_CAP or len(b.nodes) > DEFAULT_NODE_CAP:
        raise NodeCapExceededError(max(count, len(b.nodes)), DEFAULT_NODE_CAP)
    fa, fb = _order_fingerprints(a), _order_fingerprints(b)
    if sorted(fa) != sorted(fb):
        return None
    candidates = [[j for j in range(count) if fb[j] == fa[i]] for i in range(count)]
    leq_a, leq_b = a.leq_masks, b.leq_masks

    def consistent(mapping: list[int], j: int) -> bool:
        i = len(mapping)  # nodes are assigned in index order
        for s, t in enumerate(mapping):
            if (leq_a[s] >> i & 1) != (leq_b[t] >> j & 1):
                return False
            if (leq_a[i] >> s & 1) != (leq_b[j] >> t & 1):
                return False
        w = a.involution[i]
        if w < i and b.involution[j] != mapping[w]:
            return False
        return True

    mapping = next(_injective_assignments(candidates, consistent), None)
    if mapping is None:
        return None
    result = LatticeMap(a, b, mapping)
    verdict = is_lattice_hom(result)
    _ensure(verdict and result.is_bijective(), "search must return a verified isomorphism")
    return result


# ---------------------------------------------------------------------------
# functor laws


class FunctorialityVerdict(NamedTuple):
    ok: bool
    failures: tuple[str, ...] = ()
    __bool__ = _verdict_ok


def verify_functoriality(phi: GroupHom, psi: GroupHom) -> FunctorialityVerdict:
    """Check the functor laws on a composable pair of crh surjections.

    Verifies that identities induce identities on all three lattices, that
    the induced map of ``psi o phi`` equals the composite of the induced
    maps, and that every induced map involved is a lattice homomorphism.
    """
    _require("verify_functoriality", GroupHom, phi, psi)
    if not phi.target.same_table(psi.source):
        raise DomainMismatchError("pair is not composable: phi.target differs from psi.source")
    failures = []
    for g in (phi.source, phi.target, psi.target):
        ind = induced_map(identity_hom(g))
        if ind.node_map != tuple(range(len(ind.source.nodes))):
            failures.append(f"identity law fails on lattice of order-{g.order} group")
    m_phi = induced_map(phi)
    m_psi = induced_map(psi)
    m_comp = induced_map(compose(psi, phi))
    if m_comp.node_map != compose_lattice_maps(m_psi, m_phi).node_map:
        failures.append("composition law fails: induced(psi o phi) != induced(psi) o induced(phi)")
    for name, m in (("phi", m_phi), ("psi", m_psi), ("psi o phi", m_comp)):
        verdict = is_lattice_hom(m)
        if not verdict:
            failures.append(f"induced map of {name} breaks the {verdict.law} law")
    return FunctorialityVerdict(not failures, tuple(failures))


# ---------------------------------------------------------------------------
# export


def lattice_to_json(lattice: CentralizerLattice) -> dict:
    _require("lattice_to_json", CentralizerLattice, lattice)
    pairs = [[i, j] for i, up in enumerate(lattice.leq_masks) for j in _bits(up)]
    return {
        "group_order": lattice.group.order,
        "nodes": [
            {"id": i, "order": m.bit_count(), "members": _bits(m)}
            for i, m in enumerate(lattice.nodes)
        ],
        "leq": pairs,
        "involution": list(lattice.involution),
        "top": lattice.top,
        "bottom": lattice.bottom,
    }


def lattice_to_dot(lattice: CentralizerLattice) -> str:
    """Graphviz source for the Hasse diagram.

    Edges point from covering node to covered node, so the top sits at rank
    0; the involution is drawn as dashed undirected edges between paired
    nodes (self-paired nodes get none).
    """
    _require("lattice_to_dot", CentralizerLattice, lattice)
    lines = ["digraph centralizer_lattice {", "  rankdir=TB;", '  node [shape=box];']
    for i, m in enumerate(lattice.nodes):
        lines.append(f'  N{i} [label="N{i} (|.|={m.bit_count()})"];')
    for parent, child in lattice.covers():
        lines.append(f"  N{parent} -> N{child};")
    for i, j in enumerate(lattice.involution):
        if i < j:
            lines.append(f"  N{i} -> N{j} [style=dashed, dir=none, constraint=false];")
    lines.append("}")
    return "\n".join(lines) + "\n"

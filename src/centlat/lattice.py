"""Centralizer lattices, induced maps between them, and lattice isomorphism.

The nodes of a group's centralizer lattice are the centralizers of subsets:
the whole group (centralizer of the empty set) together with the closure of
the single-element centralizers under intersection.  Order is set inclusion;
meet is intersection, join is the centralizer of the intersection of
centralizers, and taking centralizers once more is an order-reversing
involution of the node set.  All of that structure is recomputed and checked
at build time rather than assumed.
"""

from __future__ import annotations

from typing import NamedTuple

from .core import (
    DEFAULT_ORDER_CAP,
    FiniteGroup,
    SubgroupSet,
    _bits,
    _center_mask,
    _centralizer_mask,
    _is_integral,
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
from .homs import GroupHom, _verdict_ok, compose, identity_hom, is_centralizer_respecting

DEFAULT_NODE_CAP = 512


class CentralizerLattice:
    """The centralizer lattice of a finite group, built from the group
    alone: its nodes are the whole group and the single-element
    centralizers, saturated under intersection.

    ``nodes`` is sorted by (subgroup order, members); node 0 is the bottom
    (the center) and the last node is the top (the whole group).  ``leq``,
    ``meet``, ``join`` and ``involution`` are precomputed tables over node
    indices.
    """

    def __init__(self, group: FiniteGroup) -> None:
        _require("CentralizerLattice", FiniteGroup, group)
        self.group = group
        node_masks = list(dict.fromkeys((group.full_mask, *group.centralizer_masks())))
        seen = set(node_masks)
        for i, mi in enumerate(node_masks):  # node_masks grows while it is walked
            for mj in node_masks[:i]:
                if mi & mj not in seen:
                    seen.add(mi & mj)
                    node_masks.append(mi & mj)
        nodes = sorted((SubgroupSet._from_mask(group, m) for m in node_masks), key=SubgroupSet.sort_key)
        self.nodes: tuple[SubgroupSet, ...] = tuple(nodes)
        self.node_masks = node_masks = tuple(s.mask for s in nodes)
        self.index_of_mask = index_of = {m: i for i, m in enumerate(node_masks)}
        count = len(node_masks)

        self.leq_masks = tuple(
            sum(1 << j for j, mj in enumerate(node_masks) if mi & ~mj == 0)
            for mi in node_masks
        )
        self.top = count - 1
        self.bottom = 0
        # C(X) = C(X - Z): central elements commute with everything
        non_central = group.full_mask & ~_center_mask(group)
        cents = [_centralizer_mask(group, m & non_central) for m in node_masks]
        _ensure(node_masks[self.top] == group.full_mask, "top node must be the whole group")
        _ensure(node_masks[self.bottom] == cents[self.top], "bottom node must be the center")
        self.involution = tuple(index_of[c] for c in cents)
        self.meet_table = tuple(
            tuple(index_of[mi & mj] for mj in node_masks) for mi in node_masks
        )
        # join(X, Y) = C(C(X) meet C(Y)): the involution of a meet of involutions
        inv, meet = self.involution, self.meet_table
        self.join_table = tuple(
            tuple(inv[meet[inv[i]][inv[j]]] for j in range(count)) for i in range(count)
        )
        self._validate()

    def _validate(self) -> None:
        count = len(self.nodes)
        inv, leq = self.involution, self.leq_masks
        swapped = inv[self.top] == self.bottom and inv[self.bottom] == self.top
        _ensure(swapped, "involution must swap top and bottom")
        for i in range(count):
            _ensure(inv[inv[i]] == i, "involution must be involutive")
        for i in range(count):
            for j in range(count):
                if leq[i] >> j & 1:
                    _ensure(leq[inv[j]] >> inv[i] & 1, "involution must reverse order")
                # meet is the intersection, hence automatically the greatest
                # lower bound; the join formula is only trusted after this check.
                jn = self.join_table[i][j]
                _ensure(leq[i] >> jn & 1 and leq[j] >> jn & 1, "join must bound both")
                above_both = leq[i] & leq[j]
                _ensure(above_both & ~leq[jn] == 0, "join must be the least upper bound")

    # -- queries ------------------------------------------------------------

    def leq(self, s: int, t: int) -> bool:
        return bool(self.leq_masks[s] >> t & 1)

    def node_count(self) -> int:
        return len(self.nodes)

    def node_orders(self) -> tuple[int, ...]:
        return tuple(len(n) for n in self.nodes)

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
    """A node map between two centralizer lattices: one target node index
    per source node, else :class:`DomainMismatchError`, on ``_replace`` too."""

    __slots__ = ()

    def __new__(cls, *fields, **named) -> "LatticeMap":
        self = super().__new__(cls, *fields, **named)
        _require("LatticeMap", CentralizerLattice, self.source, self.target)
        n, m = len(self.source.nodes), len(self.target.nodes)
        if len(self.node_map) != n or not all(_is_integral(v) and 0 <= v < m for v in self.node_map):
            raise DomainMismatchError(f"node map {list(self.node_map)} does not send {n} nodes into {m}")
        return self

    @classmethod
    def _make(cls, fields) -> "LatticeMap":
        return cls(*fields)

    def is_bijective(self) -> bool:
        return len(set(self.node_map)) == len(self.node_map) == len(self.target.nodes)

    def __repr__(self) -> str:
        return f"LatticeMap({len(self.source.nodes)} -> {len(self.target.nodes)} nodes)"


def induced_map(phi: GroupHom) -> LatticeMap:
    """The node map sending C(A) to phi(C(A)), defined for crh surjections.

    Verifies the definitional centralizer-respecting property first and
    raises :class:`NotCrhError` (with the witness subgroup) when it fails.
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
    for node in source_lattice.nodes:
        img = phi.image_mask(node.members)
        idx = target_lattice.index_of_mask.get(img)
        if idx is None:  # cannot happen: a crh phi maps C(A) onto C(phi(A)), a node
            raise InternalInconsistencyError(
                f"image {_bits(img)} of lattice node {list(node.members)} "
                "is not a node of the target lattice"
            )
        mapping.append(idx)
    return LatticeMap(source_lattice, target_lattice, tuple(mapping))


def _same_lattice(a: CentralizerLattice, b: CentralizerLattice) -> bool:
    return a.group.same_table(b.group) and a.node_masks == b.node_masks


def compose_lattice_maps(outer: LatticeMap, inner: LatticeMap) -> LatticeMap:
    _require("compose_lattice_maps", LatticeMap, outer, inner)
    if not _same_lattice(inner.target, outer.source):
        raise DomainMismatchError("cannot compose: inner target lattice differs from outer source")
    return LatticeMap(
        inner.source, outer.target, tuple(outer.node_map[v] for v in inner.node_map)
    )


def invert_lattice_map(m: LatticeMap) -> LatticeMap:
    _require("invert_lattice_map", LatticeMap, m)
    if not m.is_bijective():
        raise DomainMismatchError("only bijective lattice maps can be inverted")
    inverse = [0] * len(m.node_map)
    for s, t in enumerate(m.node_map):
        inverse[t] = s
    return LatticeMap(m.target, m.source, tuple(inverse))


class LatticeHomVerdict(NamedTuple):
    """Whether a lattice map preserves meet, join and the involution.

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
        for t in range(s, count):
            if f[src.meet_table[s][t]] != dst.meet_table[f[s]][f[t]]:
                return LatticeHomVerdict(False, "meet", (s, t), preserves_top, preserves_bottom)
            if f[src.join_table[s][t]] != dst.join_table[f[s]][f[t]]:
                return LatticeHomVerdict(False, "join", (s, t), preserves_top, preserves_bottom)
    return LatticeHomVerdict(True, None, None, preserves_top, preserves_bottom)


# ---------------------------------------------------------------------------
# lattice isomorphism


def _order_fingerprints(lattice: CentralizerLattice) -> list[tuple]:
    """Per-node invariants of the abstract (lattice + involution) structure.

    Deliberately ignores subgroup sizes: different groups can carry the same
    abstract lattice on subgroups of different orders.
    """
    count = len(lattice.nodes)
    leq = lattice.leq_masks
    down = [sum(1 for j in range(count) if leq[j] >> i & 1) for i in range(count)]
    up = [leq[i].bit_count() for i in range(count)]
    heights = [0] * count
    for i in sorted(range(count), key=lambda v: down[v]):
        below = [j for j in range(count) if j != i and leq[j] >> i & 1]
        heights[i] = 1 + max((heights[j] for j in below), default=-1)
    fixed = [lattice.involution[i] == i for i in range(count)]
    base = [
        (down[i], up[i], heights[i], fixed[i])
        for i in range(count)
    ]
    return [(base[i], base[lattice.involution[i]]) for i in range(count)]


def lattices_isomorphic(a: CentralizerLattice, b: CentralizerLattice) -> LatticeMap | None:
    """An isomorphism of bounded involution lattices a -> b, or None.

    Matches only order structure (and the induced meet/join/involution),
    never the underlying subgroup sizes.  Deterministic backtracking over
    fingerprint-compatible candidates; the found map is verified in full
    before being returned.  Lattices of more than ``DEFAULT_NODE_CAP``
    nodes are refused.
    """
    _require("lattices_isomorphic", CentralizerLattice, a, b)
    count = len(a.nodes)
    if count > DEFAULT_NODE_CAP or len(b.nodes) > DEFAULT_NODE_CAP:
        raise NodeCapExceededError(max(count, len(b.nodes)), DEFAULT_NODE_CAP)
    if count != len(b.nodes):
        return None
    fa, fb = _order_fingerprints(a), _order_fingerprints(b)
    if sorted(fa) != sorted(fb):
        return None
    candidates = [[j for j in range(count) if fb[j] == fa[i]] for i in range(count)]
    leq_a, leq_b = a.leq_masks, b.leq_masks
    mapping = [-1] * count
    used = [False] * count

    def consistent(i: int, j: int) -> bool:
        for s in range(i):
            t = mapping[s]
            if (leq_a[s] >> i & 1) != (leq_b[t] >> j & 1):
                return False
            if (leq_a[i] >> s & 1) != (leq_b[j] >> t & 1):
                return False
        w = a.involution[i]
        if w < i and mapping[w] != -1 and b.involution[j] != mapping[w]:
            return False
        return True

    def search(i: int) -> bool:
        if i == count:
            return True
        for j in candidates[i]:
            if used[j] or not consistent(i, j):
                continue
            mapping[i] = j
            used[j] = True
            if search(i + 1):
                return True
            mapping[i] = -1
            used[j] = False
        return False

    if not search(0):
        return None
    result = LatticeMap(a, b, tuple(mapping))
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
    pairs = [
        [i, j]
        for i in range(len(lattice.nodes))
        for j in range(len(lattice.nodes))
        if lattice.leq(i, j)
    ]
    return {
        "group_order": lattice.group.order,
        "nodes": [
            {"id": i, "order": len(n), "members": list(n.members)}
            for i, n in enumerate(lattice.nodes)
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
    for i, node in enumerate(lattice.nodes):
        lines.append(f'  N{i} [label="N{i} (|.|={len(node)})"];')
    for parent, child in lattice.covers():
        lines.append(f"  N{parent} -> N{child};")
    for i, j in enumerate(lattice.involution):
        if i < j:
            lines.append(f"  N{i} -> N{j} [style=dashed, dir=none, constraint=false];")
    lines.append("}")
    return "\n".join(lines) + "\n"

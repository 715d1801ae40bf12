"""Independent brute-force oracles for the test suite.

Everything here is deliberately naive and shares no code with the package:
subset saturation instead of coset extension, all-subsets enumeration
instead of generation, permutation composition instead of table
constructors.  Slow but obviously correct on small groups.  Self-checks
raise ``AssertionError`` explicitly: pytest does not rewrite the asserts of
a helper module, and ``python -O`` strips plain ones.
"""

from __future__ import annotations

import functools
import itertools


def perm_table(perms: list[tuple[int, ...]]) -> list[list[int]]:
    """Multiplication table of a list of permutations under composition
    (apply right first), indexed by position in the list."""
    index = {p: i for i, p in enumerate(perms)}
    table = []
    for p in perms:
        row = []
        for q in perms:
            composed = tuple(p[q[k]] for k in range(len(p)))
            row.append(index[composed])
        table.append(row)
    return table


def symmetric_group_table(n: int) -> list[list[int]]:
    return perm_table(sorted(itertools.permutations(range(n))))


def alternating_group_table(n: int) -> list[list[int]]:
    def parity(p) -> int:
        inv = sum(
            1 for i in range(len(p)) for j in range(i + 1, len(p)) if p[i] > p[j]
        )
        return inv % 2

    return perm_table(sorted(p for p in itertools.permutations(range(n)) if parity(p) == 0))


def brute_identity(table: list[list[int]]) -> int:
    n = len(table)
    for e in range(n):
        if all(table[e][a] == a and table[a][e] == a for a in range(n)):
            return e
    raise AssertionError("oracle: no identity")


def brute_inverse(table: list[list[int]], a: int) -> int:
    e = brute_identity(table)
    for b in range(len(table)):
        if table[a][b] == e and table[b][a] == e:
            return b
    raise AssertionError("oracle: no inverse")


def brute_closure(table: list[list[int]], seed: set[int]) -> set[int]:
    """Saturate under products and inverses, the quadratic way."""
    current = set(seed) | {brute_identity(table)}
    while True:
        extra = set()
        for a in current:
            extra.add(brute_inverse(table, a))
            for b in current:
                extra.add(table[a][b])
        if extra <= current:
            return current
        current |= extra


def brute_centralizer(table: list[list[int]], xs: set[int]) -> set[int]:
    return {g for g in range(len(table)) if all(table[g][x] == table[x][g] for x in xs)}


def brute_center(table: list[list[int]]) -> set[int]:
    return brute_centralizer(table, set(range(len(table))))


def brute_commutator_set(table: list[list[int]]) -> set[int]:
    n = len(table)
    out = set()
    for a in range(n):
        ia = brute_inverse(table, a)
        for b in range(n):
            ib = brute_inverse(table, b)
            out.add(table[table[table[ia][ib]][a]][b])
    return out


def is_subgroup(table: list[list[int]], members: set[int]) -> bool:
    e = brute_identity(table)
    if e not in members:
        return False
    return all(table[a][b] in members for a in members for b in members)


def brute_all_subgroups(table: list[list[int]]) -> set[frozenset[int]]:
    """Every subgroup by checking all element subsets of divisor size.
    Only sane for order <= 16."""
    n = len(table)
    e = brute_identity(table)
    rest = [a for a in range(n) if a != e]
    found = set()
    for size in range(1, n + 1):
        if n % size:
            continue
        for combo in itertools.combinations(rest, size - 1):
            members = set(combo) | {e}
            if is_subgroup(table, members):
                found.add(frozenset(members))
    return found


@functools.lru_cache(maxsize=4)
def _sorted_brute_subgroups(table: tuple[tuple[int, ...], ...]) -> list[tuple[int, tuple[int, ...]]]:
    """(order, sorted members) of every subgroup, ascending; cached because
    callers check every quotient of one group in a row."""
    return sorted((len(s), tuple(sorted(s))) for s in brute_all_subgroups(table))


def brute_crh_verdict(
    table: list[list[int]], target_table: list[list[int]], mapping, subgroups=None
) -> tuple[tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]] | None, bool]:
    """The definitional centralizer check of the map ``mapping`` from the
    group of ``table`` onto the group of ``target_table``, subgroup by
    subgroup in (order, sorted members) order.  Returns ``(witness,
    one_sided)``: witness is (A, phi(C(A)), C(phi(A))) as sorted tuples for
    the first A where the two sides differ, or None; one_sided says whether
    phi(C(A)) is contained in C(phi(A)) for every A.  The subgroups come
    from brute_all_subgroups, only sane for order <= 16, unless given as
    ``subgroups``, sorted member tuples in that order; both sides are then
    still computed member by member."""
    witness, one_sided = None, True
    if subgroups is None:
        subgroups = [a for _, a in _sorted_brute_subgroups(tuple(map(tuple, table)))]
    for a in subgroups:
        lhs = {mapping[g] for g in brute_centralizer(table, set(a))}
        rhs = brute_centralizer(target_table, {mapping[x] for x in a})
        if witness is None and lhs != rhs:
            witness = (a, tuple(sorted(lhs)), tuple(sorted(rhs)))
        one_sided = one_sided and lhs <= rhs
    return witness, one_sided


def brute_first_commutator_in(
    table: list[list[int]], members: set[int]
) -> tuple[int, int, int] | None:
    """(a, b, c) for the first pair (a, b) in row-major order whose
    commutator c = a^-1 b^-1 a b is a non-identity element of ``members``,
    or None."""
    n = len(table)
    e = brute_identity(table)
    inv = [brute_inverse(table, a) for a in range(n)]
    for a in range(n):
        for b in range(n):
            c = table[table[table[inv[a]][inv[b]]][a]][b]
            if c != e and c in members:
                return (a, b, c)
    return None


def brute_first_nonassociative_triple(
    table: list[list[int]],
) -> tuple[tuple[int, int, int], int, int] | None:
    """((a, b, c), (a*b)*c, a*(b*c)) for the first triple in row-major order
    where the two differ, or None for an associative table.  Checks all n^3
    triples."""
    n = len(table)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                lhs = table[table[a][b]][c]
                rhs = table[a][table[b][c]]
                if lhs != rhs:
                    return (a, b, c), lhs, rhs
    return None


def brute_table_verdict(table: list[list[int]]) -> tuple:
    """What is wrong with an n x n table of element indices, checked in the
    order identity, inverses, associativity: ``("no identity",)``;
    ``("no inverse", a)`` for the first element a whose first right inverse
    b (in index order) has b*a != e; ``("not associative", (a, b, c), lhs,
    rhs)``; or ``("group", identity)``."""
    n = len(table)
    identities = [
        e for e in range(n) if all(table[e][a] == a and table[a][e] == a for a in range(n))
    ]
    if not identities:
        return ("no identity",)
    e = identities[0]
    for a in range(n):
        row = table[a]
        if e not in row or table[row.index(e)][a] != e:
            return ("no inverse", a)
    bad = brute_first_nonassociative_triple(table)
    if bad is not None:
        return ("not associative",) + bad
    return ("group", e)


def brute_greedy_generators(table: list[list[int]]) -> list[int]:
    """Generators picked greedily: repeatedly the lowest element outside the
    subgroup spanned so far, that subgroup found by saturating under
    products (enough in a finite group)."""
    n = len(table)
    span = {brute_identity(table)}
    gens = []
    while len(span) < n:
        g = min(set(range(n)) - span)
        gens.append(g)
        span.add(g)
        while True:
            products = {table[a][b] for a in span for b in span}
            if products <= span:
                break
            span |= products
    return gens


def relabel(table: list[list[int]], perm: list[int]) -> list[list[int]]:
    """The table with element a renamed perm[a]."""
    n = len(table)
    out = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            out[perm[a]][perm[b]] = perm[table[a][b]]
    return out


def brute_lattice_covers(nodes: list[frozenset[int]]) -> set[tuple[int, int]]:
    """(parent, child) index pairs of the Hasse diagram of ``nodes`` under
    inclusion: child strictly inside parent with no node strictly between."""
    return {
        (p, c)
        for c, small in enumerate(nodes)
        for p, big in enumerate(nodes)
        if small < big and not any(small < mid < big for mid in nodes)
    }


def brute_lattice_join(nodes: list[frozenset[int]], i: int, j: int) -> int:
    """Index of the least node containing nodes i and j: the smallest of
    the nodes that contain both, checked to lie inside every one of them."""
    above = [k for k, s in enumerate(nodes) if nodes[i] | nodes[j] <= s]
    least = min(above, key=lambda k: len(nodes[k]))
    if not all(nodes[least] <= nodes[k] for k in above):
        raise AssertionError("oracle: no least upper bound")
    return least


def brute_lattice_meet(nodes: list[frozenset[int]], i: int, j: int) -> int:
    """Index of the greatest node inside nodes i and j: the largest of the
    nodes inside both, checked to contain every one of them."""
    below = [k for k, s in enumerate(nodes) if s <= nodes[i] & nodes[j]]
    greatest = max(below, key=lambda k: len(nodes[k]))
    if not all(nodes[k] <= nodes[greatest] for k in below):
        raise AssertionError("oracle: no greatest lower bound")
    return greatest


def brute_lattice_ranks(nodes: list[frozenset[int]]) -> list[tuple[int, int]]:
    """Each node's (down-set size, height) under inclusion: the number of
    nodes inside it, itself included, and the length of the longest chain
    of nodes strictly inside it, found by recursion on member sets."""

    @functools.cache
    def height(i: int) -> int:
        return max((1 + height(j) for j, s in enumerate(nodes) if s < nodes[i]), default=0)

    return [(sum(1 for t in nodes if t <= s), height(i)) for i, s in enumerate(nodes)]


def brute_left_cosets(table: list[list[int]], members: set[int]) -> tuple[list[int], list[int]]:
    """Each element's left coset number and the coset representatives, the
    cosets gH found as sets and numbered by least element."""
    cosets = sorted({frozenset(table[g][x] for x in members) for g in range(len(table))}, key=min)
    return [next(i for i, c in enumerate(cosets) if g in c) for g in range(len(table))], [min(c) for c in cosets]


def brute_quotient(table: list[list[int]], members: set[int]):
    """The quotient by ``members`` as (projection, quotient table), cosets
    numbered by least element; or, when the subgroup is not normal,
    ("not normal", g, x, conj) for the first g, then x, in ascending order
    with conj = g^-1 x g outside it."""
    n = len(table)
    e = brute_identity(table)
    inverse = [next(b for b in range(n) if table[a][b] == e) for a in range(n)]
    for g in range(n):
        for x in sorted(members):
            conj = table[table[inverse[g]][x]][g]
            if conj not in members:
                return ("not normal", g, x, conj)
    proj, reps = brute_left_cosets(table, members)
    return proj, [[proj[table[a][b]] for b in reps] for a in reps]


def brute_lattice_isomorphism(
    a: tuple[list[frozenset], list[int]], b: tuple[list[frozenset], list[int]]
) -> tuple[int, ...] | None:
    """The lexicographically least isomorphism between two lattices of at
    most 7 nodes, or None.  Each lattice is (nodes, involution) with the
    nodes ordered by inclusion; every permutation of the nodes is tried in
    lexicographic order, and the first that preserves inclusion both ways
    and commutes with the involutions is returned."""
    (a_nodes, a_inv), (b_nodes, b_inv) = a, b
    n = len(a_nodes)
    if n > 7 or len(b_nodes) > 7:
        raise AssertionError("oracle: too many nodes")
    if n != len(b_nodes):
        return None
    for f in itertools.permutations(range(n)):
        if all(
            (a_nodes[s] <= a_nodes[t]) == (b_nodes[f[s]] <= b_nodes[f[t]])
            for s in range(n)
            for t in range(n)
        ) and all(f[a_inv[s]] == b_inv[f[s]] for s in range(n)):
            return f
    return None

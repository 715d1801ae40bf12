"""Seeded relabelling of multiplication tables.

A relabelling is a permutation ``perm`` of the element indices: element
``a`` of the source table becomes element ``perm[a]`` of the new one, so
``perm`` is a group isomorphism from the source onto the relabelled table.
The permutation never leaves the identity at index 0 (except in the trivial
group), so code that assumes the identity is element 0 shows up as wrong
answers rather than passing by accident.
"""

from __future__ import annotations

import random


def permutation(order: int, identity: int, rng: random.Random) -> list[int]:
    """A random permutation of ``range(order)`` that sends ``identity`` off 0."""
    perm = list(range(order))
    rng.shuffle(perm)
    if order > 1 and perm[identity] == 0:
        other = rng.randrange(order - 1)
        other += other >= identity
        perm[identity], perm[other] = perm[other], perm[identity]
    return perm


def relabel_table(table, perm: list[int]) -> list[list[int]]:
    """The table with every element renamed through ``perm``."""
    n = len(perm)
    out = [[0] * n for _ in range(n)]
    for a in range(n):
        row, pa = table[a], out[perm[a]]
        for b in range(n):
            pa[perm[b]] = perm[row[b]]
    return out


def relabel_group(group, rng: random.Random) -> tuple[list[list[int]], list[int]]:
    """Relabel a built group's table; returns the new table and ``perm``."""
    perm = permutation(group.order, group.identity, rng)
    return relabel_table(group.table, perm), perm


def derive_rng(seed: int, *path) -> random.Random:
    """An independent, reproducible stream for one input of one workload."""
    return random.Random(repr((seed,) + tuple(path)))


def pack(table) -> bytes:
    """A table of order <= 256 as n*n bytes, to hold many passes' inputs compactly."""
    return bytes(v for row in table for v in row)


def unpack(packed: bytes) -> list[list[int]]:
    """The plain list-of-rows table that ``pack`` stored."""
    n = int(len(packed) ** 0.5)
    return [list(packed[i * n : (i + 1) * n]) for i in range(n)]

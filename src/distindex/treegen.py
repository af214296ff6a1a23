"""Exhaustive free-tree enumeration and random labeled tree sampling.

Rooted trees are generated through the classic level-sequence successor
rule (Beyer and Hedetniemi 1980), which walks all canonical level
sequences in decreasing lexicographic order without repetition.  A free
tree is its canonical sequence rooted at a centre (Wright, Richmond,
Odlyzko and McKay 1986), so free trees come from the same walk by a test
on each sequence: its root must be a centre, and when the tree has two
centres the rooting with the larger half below the root is the one
kept.  No graph is built and nothing is stored for a rejected sequence.
"""

from __future__ import annotations

import heapq
import random
from typing import Iterator

from .errors import NotATreeError, OrderTooLargeError
from .graphs import Graph, from_edge_list

#: Orders above this make exhaustive enumeration unreasonably large.
MAX_ORDER = 16


def rooted_level_sequences(n: int) -> Iterator[list[int]]:
    """All canonical level sequences of rooted trees on n vertices, in
    decreasing lexicographic order."""
    if n < 1:
        raise ValueError("needs n >= 1")
    seq = list(range(1, n + 1))
    while True:
        yield seq[:]
        p = -1
        for i in range(n - 1, -1, -1):
            if seq[i] > 2:
                p = i
                break
        if p < 0:
            return
        q = p - 1
        while seq[q] != seq[p] - 1:
            q -= 1
        nxt = seq[:p]
        seg = seq[q:p]
        while len(nxt) < n:
            nxt.extend(seg[: n - len(nxt)])
        seq = nxt


def _sequence_to_edges(seq: list[int]) -> list[tuple[int, int]]:
    """Edges of the rooted tree a level sequence encodes: vertex i hangs
    off the most recent vertex one level up."""
    last_at = {}
    edges = []
    for i, lvl in enumerate(seq):
        if i:
            edges.append((last_at[lvl - 1], i))
        last_at[lvl] = i
    return edges


def tree_centers(g: Graph) -> list[int]:
    """The one or two middle vertices of a tree, by leaf stripping.

    The stripping also certifies the tree.  A graph with n >= 1 vertices
    and n - 1 edges that is not a tree is disconnected and so has a
    cycle; the cycle's vertices never become leaves, and neither does an
    isolated vertex, so some round finds no leaves while more than two
    vertices remain.
    """
    n = g.n
    if n < 1 or g.m != n - 1:
        raise NotATreeError("centers are defined for trees")
    if n <= 2:
        return list(range(n))
    deg = g.degrees()
    layer = [v for v in range(n) if deg[v] == 1]
    remaining = n
    while remaining > 2:
        if not layer:
            raise NotATreeError("centers are defined for trees")
        remaining -= len(layer)
        nxt = []
        for v in layer:
            deg[v] = 0
            for u in g.adj[v]:
                if deg[u] > 1:
                    deg[u] -= 1
                    if deg[u] == 1:
                        nxt.append(u)
        layer = nxt
    return sorted(layer)


def _rooted_string(adj: tuple[tuple[int, ...], ...], root: int) -> str:
    """Parenthesis string of the tree hung from root: each vertex wraps
    its children's strings, sorted, in one pair of parentheses.  Built
    bottom-up over a BFS order, so depth costs no recursion."""
    parent = [-1] * len(adj)
    order = [root]
    for v in order:
        for u in adj[v]:
            if u != parent[v]:
                parent[u] = v
                order.append(u)
    subs: list[list[str]] = [[] for _ in adj]
    for v in reversed(order[1:]):
        subs[parent[v]].append("(" + "".join(sorted(subs[v])) + ")")
        subs[v] = []
    return "(" + "".join(sorted(subs[root])) + ")"


def canonical_form(g: Graph) -> str:
    """Labeling-independent string identity of a tree: the smaller
    center-rooted parenthesis encoding."""
    centers = tree_centers(g)
    return min(_rooted_string(g.adj, c) for c in centers)


def _free_sequences(n: int) -> Iterator[list[int]]:
    """The centre-rooted level sequences of the unlabeled trees on n
    vertices, one per tree, for n up to MAX_ORDER, in decreasing
    lexicographic order.

    In a canonical sequence the root's first branch is its deepest, and
    the second branch starts at the next level-2 entry.  The root is the
    only centre when another branch is as deep as the first.  When the
    first branch is one level deeper, the root and its first child are
    the two centres; both halves are canonical, so keeping the rooting
    whose child half is at least the root half keeps the tree once.
    """
    if n < 1 or n > MAX_ORDER:
        raise OrderTooLargeError(f"supported orders are 1..{MAX_ORDER}, got {n}")
    for seq in rooted_level_sequences(n):
        cut = seq.index(2, 2) if 2 in seq[2:] else n
        gap = max(seq[:cut]) - max(seq[cut:], default=1)
        if gap == 0 or (gap == 1 and [lvl - 1 for lvl in seq[1:cut]] >= seq[:1] + seq[cut:]):
            yield seq


def all_free_trees(n: int) -> Iterator[Graph]:
    """Every unlabeled tree on n vertices exactly once, for n up to
    MAX_ORDER, with vertex 0 a centre.  Trees come in decreasing
    lexicographic order of their centre-rooted level sequences."""
    for seq in _free_sequences(n):
        yield from_edge_list(n, _sequence_to_edges(seq))


def free_tree_count(n: int) -> int:
    """How many unlabeled trees have n vertices, counted without
    building them."""
    return sum(1 for _ in _free_sequences(n))


def prufer_to_tree(seq: list[int], n: int) -> Graph:
    """Decode a length n-2 code over 0..n-1 into its labeled tree."""
    if n < 2:
        raise ValueError("needs n >= 2")
    if len(seq) != n - 2:
        raise ValueError(f"code length must be {n - 2}")
    degree = [1] * n
    for x in seq:
        if not 0 <= x < n:
            raise ValueError(f"code entry {x} outside 0..{n - 1}")
        degree[x] += 1
    edges = []
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((u, v))
    return from_edge_list(n, edges)


def random_tree(n: int, rng: random.Random) -> Graph:
    """Uniform random labeled tree on n vertices."""
    if n < 1:
        raise ValueError("needs n >= 1")
    if n == 1:
        return from_edge_list(1, [])
    if n == 2:
        return from_edge_list(2, [(0, 1)])
    return prufer_to_tree([rng.randrange(n) for _ in range(n - 2)], n)

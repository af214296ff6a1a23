"""Pair counts by distance in a tree, from packed subtree rows.

The tree is rooted and every vertex v keeps a row a[v] where a[v][i]
counts the vertices of v's subtree exactly i levels below v.  A row is
stored as one integer whose digit i holds a[v][i]; each digit is
bits = 3 * n.bit_length() + 1 bits wide, so a digit holds n**3 and no
sum below ever carries into the next digit.  One pass in reverse
preorder builds every row with a shift and an add:
row[parent] += row[v] << bits.

Squaring a row counts the ordered pairs of v's subtree by the sum of
their depths below v.  Charging each distance-k pair to the top vertex
of its path then gives, with D = sum of row[v]**2 over all v,
R = row[root]**2 and X[i] for digit i of X:

    2 * W_k = D[k] - D[k - 2] + R[k - 2]        (k >= 1)

A single W_k needs digits 0..k only, so its rows are truncated to k + 1
digits; the whole Wiener polynomial keeps every digit.

All traversals use explicit stacks, so paths with millions of vertices
do not exhaust the interpreter stack.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotATreeError, VertexOutOfRangeError
from .graphs import Graph
from .indices import WienerPolynomial, zagreb_m1, zagreb_m2

#: Parent marker for the root.
NO_PARENT = -1


@dataclass(frozen=True)
class RootedTree:
    """A tree with a chosen root, its parent array and a preorder."""

    graph: Graph
    root: int
    parent: tuple[int, ...]
    order: tuple[int, ...]

    @classmethod
    def build(cls, g: Graph, root: int = 0) -> "RootedTree":
        """Root g at root; a graph with n >= 1 vertices, n - 1 edges and a
        traversal reaching every vertex is a tree."""
        if g.n < 1 or g.m != g.n - 1:
            raise NotATreeError("input graph is not a tree")
        if not 0 <= root < g.n:
            raise VertexOutOfRangeError(f"root {root} outside 0..{g.n - 1}")
        parent = [NO_PARENT] * g.n
        order = []
        stack = [root]
        seen = [False] * g.n
        seen[root] = True
        adj = g.adj
        while stack:
            v = stack.pop()
            order.append(v)
            for u in adj[v]:
                if not seen[u]:
                    seen[u] = True
                    parent[u] = v
                    stack.append(u)
        if len(order) != g.n:
            raise NotATreeError("input graph is not a tree")
        return cls(graph=g, root=root, parent=tuple(parent), order=tuple(order))


def _pair_counts(t: RootedTree, k: int | None) -> list[int]:
    """[W_k] for the given k, or W_1..W_top when k is None, where top is
    twice the height of the tree (past the diameter the counts are 0)."""
    bits = 3 * t.graph.n.bit_length() + 1
    keep = -1 if k is None else (1 << ((k + 1) * bits)) - 1  # -1 keeps every digit
    row = [1] * t.graph.n
    parent = t.parent
    squares = 0
    for v in t.order[:0:-1]:
        r = row[v]
        squares += r * r
        row[parent[v]] += (r << bits) & keep
    root_square = row[t.root] * row[t.root]
    squares += root_square

    digit = (1 << bits) - 1

    def at(x: int, i: int) -> int:
        return (x >> (i * bits)) & digit if i >= 0 else 0

    top = (root_square.bit_length() - 1) // bits
    counts = []
    for j in (k,) if k is not None else range(1, top + 1):
        doubled = at(squares, j) - at(squares, j - 2) + at(root_square, j - 2)
        if doubled % 2:
            raise RuntimeError("doubled pair count must be even")
        counts.append(doubled // 2)
    return counts


def wk_linear(t: RootedTree | Graph, k: int) -> int:
    """Number of unordered vertex pairs at distance exactly k in a tree.

    Accepts a Graph (rooted at 0 internally) or a prebuilt RootedTree.
    """
    if isinstance(t, Graph):
        t = RootedTree.build(t)
    if k < 1:
        raise ValueError("k must be >= 1")
    if k >= t.graph.n:  # no tree path is that long; also bounds the row width
        return 0
    return _pair_counts(t, k)[0]


def wiener_polynomial_linear(t: RootedTree | Graph) -> WienerPolynomial:
    """Pair counts of a tree by distance, up to its diameter.

    Accepts a Graph (rooted at 0 internally) or a prebuilt RootedTree.
    """
    if isinstance(t, Graph):
        t = RootedTree.build(t)
    coeffs = [0] + _pair_counts(t, None)
    while len(coeffs) > 1 and not coeffs[-1]:
        coeffs.pop()
    return WienerPolynomial(tuple(coeffs))


def wk3_from_zagreb(g: Graph) -> int:
    """Distance-3 pair count of a tree from its Zagreb indices."""
    RootedTree.build(g)  # raises NotATreeError unless g is a tree
    return zagreb_m2(g) - zagreb_m1(g) + g.m

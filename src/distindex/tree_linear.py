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
    return _read_pair_counts(squares + root_square, root_square, bits, k)


def _read_pair_counts(squares: int, root_square: int, bits: int, k: int | None) -> list[int]:
    """Digits of the row squares turned into pair counts: [W_k] for the
    given k, or W_1..W_top when k is None, where top is the highest
    digit of the root's square."""
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


def level_sequence_counts(seq: list[int], k: int) -> tuple[WienerPolynomial, int, int]:
    """The Wiener polynomial, TW_k and the number of degree-k vertices of
    the rooted tree a level sequence encodes, from one reverse pass.

    The sequence is a preorder in which vertex i hangs off the last
    vertex before it one level up (root at level 1).  So, read backwards,
    the children of a vertex at level l are the level-(l + 1) vertices
    passed since the last vertex at level l or above; one running total
    per level collects them, with no parent array.  The rows and the
    read-out are those of wiener_polynomial_linear, and TW_k is
    twk_cut_tree's sum of c_v * (K - c_v), kept as
    K * sum(c_v) - sum(c_v ** 2) because K is known only at the end.
    """
    bits = 3 * len(seq).bit_length() + 1
    depth = max(seq) + 2
    rows = [0] * depth  # rows[l]: summed rows of level-l vertices awaiting their parent
    kids = [0] * depth  # how many such vertices
    marks = [0] * depth  # degree-k vertices in their subtrees
    squares = c_sum = c_squares = 0
    for lvl in reversed(seq):
        below = lvl + 1
        r = 1 + (rows[below] << bits)
        c = marks[below] + (kids[below] + (lvl > 1) == k)
        rows[below] = kids[below] = marks[below] = 0
        squares += r * r
        rows[lvl] += r
        kids[lvl] += 1
        marks[lvl] += c
        c_sum += c
        c_squares += c * c
    # the loop ends at the root, so r is its row and c is K; the root's
    # own term, K * K - K ** 2, is zero
    coeffs = [0] + _read_pair_counts(squares, r * r, bits, None)
    while len(coeffs) > 1 and not coeffs[-1]:
        coeffs.pop()
    return WienerPolynomial(tuple(coeffs)), c * c_sum - c_squares, c


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

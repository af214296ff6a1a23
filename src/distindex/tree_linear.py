"""The tree route: pair counts by distance and degree-restricted
distance sums, from one reverse pass over a preorder level sequence.

A rooted tree is read as its level sequence: the levels of its vertices
in a depth-first preorder, root at level 1, so each vertex hangs off
the last vertex before it one level up (Beyer and Hedetniemi 1980;
Wright, Richmond, Odlyzko and McKay 1986).  Read backwards, the
children of a vertex at level l are the level-(l + 1) vertices passed
since the last vertex at level l or above, so one running total per
level collects them and no parent array is kept.  RootedTree.build
records this sequence for any tree; the free-tree walk yields it
directly.  Two kernels read it.

level_sequence_polynomial keeps for every vertex v a row a[v] where
a[v][i] counts the vertices of v's subtree exactly i levels below v.  A
row is one integer whose digit i holds a[v][i]; each digit is
bits = 3 * n.bit_length() + 1 bits wide, so a digit holds n**3 and no
sum below ever carries into the next digit.  A vertex's row is 1 plus
its children's summed rows shifted up one digit.  Squaring a row counts
the ordered pairs of v's subtree by the sum of their depths below v.
Charging each distance-k pair to the top vertex of its path then gives,
with D = sum of row[v]**2 over all v, R = row[root]**2 and X[i] for
digit i of X:

    2 * W_k = D[k] - D[k - 2] + R[k - 2]        (k >= 1)

W_1..W_top need digits 0..top only, so the rows are truncated to
top + 1 digits when top is given; the whole polynomial keeps them all.

level_sequence_twk sums c_v * (K - c_v) over the non-root v, where c_v
counts the degree-k vertices of v's subtree and K those of the tree:
every edge of a tree is an edge class of its own, and the edge above v
separates v's subtree from the rest.

Nothing recurses, so paths with millions of vertices do not exhaust the
interpreter stack.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from .errors import NotATreeError, VertexOutOfRangeError
from .graphs import Graph
from .indices import WienerPolynomial, zagreb_m1, zagreb_m2


@dataclass(frozen=True)
class RootedTree:
    """A tree with a chosen root and its level sequence: levels[i] is the
    level, root at 1, of the i-th vertex of a depth-first preorder."""

    graph: Graph
    root: int
    levels: tuple[int, ...]

    @classmethod
    def build(cls, g: Graph, root: int = 0) -> "RootedTree":
        """Root g at root; a graph with n >= 1 vertices, n - 1 edges and a
        traversal reaching every vertex is a tree."""
        if g.n < 1 or g.m != g.n - 1:
            raise NotATreeError("input graph is not a tree")
        if not 0 <= root < g.n:
            raise VertexOutOfRangeError(f"root {root} outside 0..{g.n - 1}")
        level = [0] * g.n  # 0 until the vertex is reached
        level[root] = 1
        levels: list[int] = []
        stack = [root]
        adj, push, pop, record = g.adj, stack.append, stack.pop, levels.append
        while stack:
            v = pop()
            lv = level[v]
            record(lv)
            lv += 1
            for u in adj[v]:
                if not level[u]:
                    level[u] = lv
                    push(u)
        if len(levels) != g.n:
            raise NotATreeError("input graph is not a tree")
        return cls(graph=g, root=root, levels=tuple(levels))


def level_sequence_polynomial(seq: Sequence[int], top: int | None = None) -> WienerPolynomial:
    """Pair counts by distance of the tree a level sequence encodes:
    W_1..W_top when top is given, else up to the diameter, trimmed of
    trailing zeros.  An odd doubled count, which only a malformed
    sequence gives, raises RuntimeError."""
    bits = 3 * len(seq).bit_length() + 1
    keep = -1 if top is None else (1 << ((top + 1) * bits)) - 1  # -1 keeps every digit
    # rows[l]: the row so far of the vertex the pending level-l vertices
    # hang off, 1 plus their shifted rows; reset to 1 once it is read
    rows = [1] * (len(seq) + 2)  # no level exceeds n; cheaper than max(seq)
    squares = 0
    for lvl in reversed(seq):
        below = lvl + 1
        r = rows[below]
        rows[below] = 1
        squares += r * r
        rows[lvl] += (r << bits) & keep
    # the loop ends at the root, so r is its row
    root_square = r * r
    digit = (1 << bits) - 1

    def at(x: int, i: int) -> int:
        return (x >> (i * bits)) & digit if i >= 0 else 0

    # two digits past the squares' highest, every count reads 0
    last = (squares.bit_length() - 1) // bits + 2
    if top is not None:
        last = min(top, last)
    coeffs = [0]
    for j in range(1, last + 1):
        doubled = at(squares, j) - at(squares, j - 2) + at(root_square, j - 2)
        if doubled % 2:
            raise RuntimeError("doubled pair count must be even")
        coeffs.append(doubled // 2)
    while len(coeffs) > 1 and not coeffs[-1]:
        coeffs.pop()
    return WienerPolynomial(tuple(coeffs))


def level_sequence_twk(seq: Sequence[int], k: int) -> tuple[int, int]:
    """TW_k and the number of degree-k vertices of the tree a level
    sequence encodes.

    A vertex's degree is its child count, plus one unless it is the
    root.  The sum of c_v * (K - c_v) is kept as
    K * sum(c_v) - sum(c_v ** 2), because K is known only at the end.
    """
    depth = len(seq) + 2  # no level exceeds n; cheaper than max(seq)
    kids = [0] * depth  # kids[l]: level-l vertices awaiting their parent
    marks = [0] * depth  # degree-k vertices in their subtrees
    c_sum = c_squares = 0
    for lvl in reversed(seq):
        below = lvl + 1
        c = marks[below] + (kids[below] + (lvl > 1) == k)
        kids[below] = marks[below] = 0
        kids[lvl] += 1
        marks[lvl] += c
        c_sum += c
        c_squares += c * c
    # the loop ends at the root, so c is K; the root's own term,
    # K * K - K ** 2, is zero
    return c * c_sum - c_squares, c


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
    return level_sequence_polynomial(t.levels, k).coefficient(k)


def wiener_polynomial_linear(t: RootedTree | Graph) -> WienerPolynomial:
    """Pair counts of a tree by distance, up to its diameter.

    Accepts a Graph (rooted at 0 internally) or a prebuilt RootedTree.
    """
    if isinstance(t, Graph):
        t = RootedTree.build(t)
    return level_sequence_polynomial(t.levels)


def wk3_from_zagreb(g: Graph) -> int:
    """Distance-3 pair count of a tree from its Zagreb indices."""
    RootedTree.build(g)  # raises NotATreeError unless g is a tree
    return zagreb_m2(g) - zagreb_m1(g) + g.m

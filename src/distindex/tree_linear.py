"""The tree route: pair counts by distance and degree-restricted
distance sums, from one children-first pass over a parent array.

RootedTree.build certifies and roots a tree straight from the edge
ends, with no Graph and no adjacency lists.  It takes them in chunks of
whole pairs: the slices of graphs.edge_slices one at a time, each freed
once its ends are counted, or one flat list such as
graphs.parse_edge_ends returns.  Each chunk's count and range are
checked before it is indexed.  It keeps two ints per vertex, its degree
and the XOR of its neighbours, and strips leaves first in, first out,
using the order list itself as the queue.  A leaf's only neighbour is
its XOR, so that is its parent; removing the leaf XORs it out of the
parent's entry, so when the strip ends the XOR list is the parent
array.  The order is children-first and ends at the last vertex left,
a centre of the tree, which is the root.  When n - 1 vertices are stripped the
input is exactly a simple tree: a loop, a repeated edge or a cycle
keeps its vertices above degree 1 for good, so the strip stops short.
The input's leaves open the order, and RootedTree.leaves counts them
(one of the two when n = 2, since the other is the root).
The free-tree walk reaches the same form through
treegen.level_sequence_parents, with the reversed preorder as order.

The kernels read (parent, order), each in one pass over the non-root
vertices of order.  They assume that (parent, order) is a rooted tree:
every vertex comes before its parent and the root, last, is its own
parent.  They do not check it.  wk_linear and wiener_polynomial_linear
run tree_wk and tree_polynomial on a RootedTree and take nothing else: a
Graph is rooted first by RootedTree.of.

The row pass (_rows) keeps for every vertex v a row a[v] where a[v][i]
counts the vertices of v's subtree exactly i levels below v.  A row is
one integer whose digit i holds a[v][i], in bits = 2 * n.bit_length()
bits.  A vertex's row is 1 plus its children's summed rows shifted up
one digit.  Squaring a row counts the ordered pairs of v's subtree by
the sum of their depths below v.  Charging each distance-k pair to the
top vertex of its path then gives, with D = sum of row[v]**2 over all v,
R = row[root]**2 and X[i] for digit i of X:

    2 * W_k = D[k] - D[k - 2] + R[k - 2]        (k >= 1)

No digit carries into the next.  A row digit is at most n.  Digit i of D
counts the triples (v, x, y) with v a common ancestor of x and y and
depth_v(x) + depth_v(y) = i.  Along the ancestors of lca(x, y) that sum
grows by 2 a level, so each (x, y, i) has at most one such v, and digit i
is at most n**2 < 2**bits.  The digits of R, of any one square and of a
truncated square count subsets of the same triples.

The pass has two readers.  tree_polynomial reads every digit up to top
into a WienerPolynomial; tree_wk reads only digits k and k - 2 for the
one count W_k, which is what the claim scans over every free tree need.

W_1..W_top need digits 0..top only, so the rows are truncated to
top + 1 digits when top is given, with top clamped to n - 1 since no
pair is farther apart; the whole polynomial keeps them all,
and rooting at a centre keeps them as short as any root can.  Two kinds
of vertex cost no big-integer product:
- a leaf's row is 1, so the first `leaves` vertices of order, which
  RootedTree.build puts there, each add one constant to the parent's
  row and 1 to D;
- with top given, a vertex with one descendant at each depth 1..top has
  the row full = 1 + x + ... + x**top.  It adds full shifted (a second
  constant) to its parent's row and is counted, and D gains
  chains * full**2 once at the end.  This catches paths, spines and
  broom handles.

The cut pass (_cut_sum) is the cut method on a tree (Klavzar, Gutman
and Mohar 1995).  Each edge is a class of its own, and the edge above v
splits the marked vertices into the c_v of v's subtree and the K - c_v
of the rest, so the distance sum over the marked pairs is the sum of
c_v * (K - c_v) over the non-root v, in small ints with no row.  A
vertex is marked by a 0/1 table of its degree, learned in the same
pass: tree_twk marks degree k (TW_k), and tree_wiener every degree (W).
tree_zagreb counts the same degrees and hands them, with the edges to
the parents, to indices.zagreb.

Nothing recurses, so paths with millions of vertices do not exhaust the
interpreter stack.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from itertools import chain, islice
from typing import NamedTuple

from .errors import NotATreeError
from .graphs import MAX_GRAPH_ORDER, Graph, edge_pairs
from .indices import WienerPolynomial, zagreb


class RootedTree(NamedTuple):
    """A tree as a parent array and a children-first vertex order:
    every vertex comes before its parent, and the root comes last and is
    its own parent."""

    parent: Sequence[int]
    order: Sequence[int]
    leaves: int = 0  # order[:leaves] are leaves other than the root

    @property
    def root(self) -> int:
        return self.order[-1]

    @classmethod
    def build(cls, n: int, chunks: Iterable[list[int]]) -> "RootedTree":
        """Certify and root the graph on 0..n-1 whose edges are the pairs
        of the chunks' ends (u then v; each chunk holds whole pairs) by
        leaf stripping; the root is a centre.  A flat list, as
        graphs.parse_edge_ends returns it, is one chunk; the slices of
        graphs.edge_slices, the one edge-list reader, are read one at a
        time, each dropped once counted, and a format error they raise
        passes through.  Raises NotATreeError unless the pairs are
        exactly the edges of a tree, that is also on a loop, a repeat, an
        end outside 0..n-1 or an order above MAX_GRAPH_ORDER, which
        from_edge_list names more precisely."""
        if not 1 <= n <= MAX_GRAPH_ORDER:
            raise NotATreeError("input graph is not a tree")
        deg = [0] * n
        acc = [0] * n  # XOR of the neighbours not yet stripped
        left = 2 * (n - 1)  # ends still to come
        for part in chunks:
            left -= len(part)
            # checked before any indexing, since a negative end would wrap
            if left < 0 or part and (min(part) < 0 or max(part) >= n):
                raise NotATreeError("input graph is not a tree")
            for u, v in edge_pairs(part):
                deg[u] += 1
                deg[v] += 1
                acc[u] ^= v
                acc[v] ^= u
            del part  # its ints are freed before the next chunk is read
        if left:
            raise NotATreeError("input graph is not a tree")
        if n == 1:
            return cls(parent=[0], order=[0])
        order = [v for v, d in enumerate(deg) if d == 1]
        leaves = min(len(order), n - 1)  # for n = 2 one leaf is the root
        push = order.append
        for v in order:  # the list grows as it is read: a FIFO queue
            p = acc[v]
            d = deg[p] - 1
            deg[p] = d
            acc[p] ^= v
            if d == 1:
                push(p)
            elif not d:
                # p has no edge left: in a tree that is the last strip.
                # Stopping here also keeps every strip exact, so a
                # vertex on a cycle, loop or repeat is never queued.
                break
        if len(order) != n:
            raise NotATreeError("input graph is not a tree")
        acc[order[-1]] = order[-1]
        return cls(parent=acc, order=order, leaves=leaves)

    @classmethod
    def of(cls, g: Graph) -> "RootedTree":
        """RootedTree.build on a Graph's edges, as one chunk."""
        return cls.build(g.n, [list(chain.from_iterable(g.edges()))])


def _rows(
    parent: Sequence[int], order: Sequence[int], top: int | None, leaves: int
) -> tuple[int, int, int]:
    """The row pass of the tree (parent, order) describes, rows
    truncated to digits 0..top unless top is None: D, the sum of every
    row squared, R, the root's row squared, and the digit width in
    bits."""
    n = len(order)
    bits = 2 * n.bit_length()
    keep = -1 if top is None else (1 << ((top + 1) * bits)) - 1  # -1 keeps every digit
    rows = [1] * n  # 1 plus the shifted rows of the children seen so far
    if leaves:  # skipped by the free-tree walk's many small calls, which pass none
        one = (1 << bits) & keep  # a leaf's row, shifted
        for p in map(parent.__getitem__, islice(order, leaves)):
            rows[p] += one
    # 1 + x + ... + x**top: the row of a vertex with one descendant at
    # each depth up to top.  -1 when top is None, which no row equals.
    full = keep // ((1 << bits) - 1)
    step = (full << bits) & keep
    squares = leaves
    chains = 0
    for v in islice(order, leaves, n - 1):
        r = rows[v]
        rows[v] = 1  # frees the row, which nothing reads again
        if r == full:
            chains += 1
            rows[parent[v]] += step
        else:
            squares += r * r
            rows[parent[v]] += (r << bits) & keep
    r = rows[order[-1]]
    root_square = r * r
    return squares + root_square + chains * full * full, root_square, bits


def _count(squares: int, root_square: int, bits: int, k: int) -> int:
    """W_k (k >= 1) from the row pass's D and R: half of
    D[k] - D[k - 2] + R[k - 2].  An odd doubled count, which only a
    malformed tree gives, raises RuntimeError."""
    digit = (1 << bits) - 1
    doubled = squares >> (k * bits) & digit
    if k > 1:  # digit k - 2 exists
        low = (k - 2) * bits
        doubled += (root_square >> low & digit) - (squares >> low & digit)
    if doubled % 2:
        raise RuntimeError("doubled pair count must be even")
    return doubled // 2


def tree_polynomial(
    parent: Sequence[int], order: Sequence[int], top: int | None = None, leaves: int = 0
) -> WienerPolynomial:
    """Pair counts by distance of the tree (parent, order) describes:
    W_1..W_top when top is given, else up to the diameter, trimmed of
    trailing zeros.  The first leaves vertices of order must be leaves
    other than the root (RootedTree.leaves counts them).  An odd doubled
    count, which only a malformed tree gives, raises RuntimeError."""
    n = len(order)
    if top is not None:
        top = min(top, n - 1)  # no pair is farther apart
    squares, root_square, bits = _rows(parent, order, top, leaves)
    # two digits past the squares' highest, every count reads 0
    last = (squares.bit_length() - 1) // bits + 2
    if top is not None:
        last = min(top, last)
    coeffs = [0] + [_count(squares, root_square, bits, j) for j in range(1, last + 1)]
    while len(coeffs) > 1 and not coeffs[-1]:
        coeffs.pop()
    return WienerPolynomial(tuple(coeffs))


def tree_wk(parent: Sequence[int], order: Sequence[int], k: int, leaves: int = 0) -> int:
    """W_k (k >= 1) of the tree (parent, order) describes, from the
    row pass of tree_polynomial truncated at k; 0 with no row built when
    k >= n.  leaves and the RuntimeError are as in tree_polynomial."""
    if k >= len(order):  # no pair is that far apart, and rows of k digits could be huge
        return 0
    return _count(*_rows(parent, order, k, leaves), k)


def _cut_sum(parent: Sequence[int], order: Sequence[int], weight: Sequence[int]) -> tuple[int, int]:
    """The cut pass over the tree (parent, order) describes: the sum of
    c_v * (K - c_v) over the non-root v, and K, where a vertex of degree
    d is marked when weight[d] is 1 (weight covers degrees 0..n - 1).

    A vertex's degree is its child count, plus one unless it is the
    root.  The sum is kept as K * sum(c_v) - sum(c_v ** 2), because K is
    known only at the end.
    """
    n = len(order)
    kids = [0] * n
    marks = [0] * n  # marked vertices in the subtree
    c_sum = c_squares = 0
    for v in islice(order, n - 1):
        c = marks[v] + weight[kids[v] + 1]
        p = parent[v]
        kids[p] += 1
        marks[p] += c
        c_sum += c
        c_squares += c * c
    root = order[-1]
    total = marks[root] + weight[kids[root]]
    return total * c_sum - c_squares, total


def tree_wiener(parent: Sequence[int], order: Sequence[int]) -> int:
    """The Wiener index W of the tree (parent, order) describes: the cut
    pass with every vertex marked."""
    return _cut_sum(parent, order, [1] * len(order))[0]


def tree_twk(parent: Sequence[int], order: Sequence[int], k: int) -> tuple[int, int]:
    """TW_k and the number of degree-k vertices of the tree (parent,
    order) describes: the cut pass with degree k alone marked.  A k
    outside 0..n - 1 marks nothing."""
    weight = [0] * len(order)
    if 0 <= k < len(weight):  # a negative k would wrap the index
        weight[k] = 1
    return _cut_sum(parent, order, weight)


def wk_linear(t: RootedTree, k: int) -> int:
    """Number of unordered vertex pairs at distance exactly k in a tree
    (RootedTree.of roots a Graph)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return tree_wk(t.parent, t.order, k, t.leaves)


def wiener_polynomial_linear(t: RootedTree) -> WienerPolynomial:
    """Pair counts of a tree by distance, up to its diameter
    (RootedTree.of roots a Graph)."""
    return tree_polynomial(t.parent, t.order, leaves=t.leaves)


def tree_zagreb(t: RootedTree) -> tuple[int, int]:
    """The Zagreb indices M1 and M2 of a tree (indices.zagreb), over the
    edges from each non-root vertex to its parent: a vertex's degree is
    its child count, plus one unless it is the root."""
    kids = t.order[:-1]
    ups = list(map(t.parent.__getitem__, kids))
    deg = [1] * len(t.order)
    deg[t.root] = 0
    for p in ups:
        deg[p] += 1
    return zagreb(deg, zip(kids, ups))

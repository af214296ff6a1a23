"""Exhaustive free-tree enumeration and random labeled tree sampling.

A rooted tree is written as its level sequence: the levels of its
vertices in preorder, root at level 1, children visited deepest subtree
first, so vertex i hangs off the last vertex before it one level up;
level_sequence_parents reads the parents off in one loop, the form
the tree kernels take.
The Beyer and Hedetniemi (1980) successor walks every canonical level
sequence in decreasing lexicographic order: take the last entry p above
level 2, find the last entry q before it one level up, keep seq[:p] and
fill the rest by repeating seq[q:p].

Free trees follow the rule of Wright, Richmond, Odlyzko and McKay
(1986), which visits a sequence per free tree and skips the others in
bulk.  Split a sequence at its second level-2 entry into the root's
first subtree and the rest of the tree (the root with its other
subtrees).  The sequence is the tree rooted at a centre, once, when the
first subtree is no higher than the rest; when the two heights tie, the
root and its first child are both centres, and the first subtree must
also be no larger than the rest and, at equal size, not
lexicographically greater.  From any other sequence the walk jumps: it
takes the successor at the split point, the last entry of the first
subtree, and when that entry sat above level 3 it resets the suffix to
a path as high as the new first subtree, so the rest is high enough
again.  The walk starts at the path rooted at its centre and ends at the
star.  No graph is built and nothing is stored for a skipped sequence.
free_tree_parents memoises the walk per order: each order is walked once
per process, and every later caller (the claim scans, their tie forms,
free_tree_count and the enumerate listing) reads that order's parent
arrays, kept as bytes.

A tree's canonical form is its parenthesis string (Aho, Hopcroft and
Ullman 1974) rooted at a centre, the smaller one when there are two.
_form builds it from a centre-rooted parent array in one children-first
pass: the free-tree walk's parent arrays as they are, and a Graph's
through RootedTree.of, whose leaf strip certifies the tree and roots it
at a centre.  Nothing recurses.

A random labeled tree is the decoded Prufer code random_prufer_code
draws; random_tree and the seeded suites of verify share that one draw.
"""

from __future__ import annotations

import heapq
import random
from collections.abc import Iterator, Sequence
from functools import cache
from itertools import islice

from .errors import OrderTooLargeError
from .graphs import Graph, check_order, from_edge_list
from .tree_linear import RootedTree

#: Orders above this make exhaustive enumeration unreasonably large.
MAX_ORDER = 16


def _successor(seq: list[int], p: int) -> list[int]:
    """The Beyer-Hedetniemi step at p: keep seq[:p] and fill the rest by
    repeating seq[q:p], where q is the last entry before p one level up.
    Returns a new list."""
    n = len(seq)
    q = p - 1
    while seq[q] != seq[p] - 1:
        q -= 1
    nxt = seq[:p]
    seg = seq[q:p]
    while len(nxt) < n:
        nxt.extend(seg[: n - len(nxt)])
    return nxt


def _next_rooted(seq: list[int]) -> list[int] | None:
    """The rooted walk's step: the successor at the last entry above
    level 2, or None after the star."""
    p = len(seq) - 1
    while seq[p] <= 2:
        if p == 0:
            return None
        p -= 1
    return _successor(seq, p)


def level_sequence_parents(seq: Sequence[int]) -> list[int]:
    """Parent array of the rooted tree a level sequence encodes: vertex
    i hangs off the most recent vertex one level up, and the root, 0,
    is its own parent.  With range(n - 1, -1, -1) as the order, which
    is children-first, it is the form tree_linear's kernels read."""
    last_at = [0] * (len(seq) + 1)  # last_at[l]: latest vertex at level l
    parent = []
    push = parent.append
    for i, lvl in enumerate(seq):
        push(last_at[lvl - 1])
        last_at[lvl] = i
    return parent


def _form(parent: Sequence[int], order: Sequence[int]) -> str:
    """Canonical form of the tree (parent, order) describes, rooted at a
    centre (every vertex before its parent, the root last): the smaller
    parenthesis string over its one or two centres.

    One children-first pass sorts each vertex's child strings, wraps
    them in one pair of parentheses and keeps its subtree height.  The
    tree has a second centre exactly when one child of the root, and
    only one, is one level lower than the root; rooted there, the old
    root is one more child, built from the root's other children."""
    n = len(order)
    root = order[-1]
    subs: list[list[str]] = [[] for _ in range(n)]
    height = [0] * n
    for v in islice(order, n - 1):
        p = parent[v]
        kids = subs[v]
        kids.sort()
        subs[p].append("(" + "".join(kids) + ")")
        if p != root:
            subs[v] = []  # freed: only the root's children are read again
        if height[p] <= height[v]:
            height[p] = height[v] + 1
    own = subs[root]
    own.sort()
    form = "(" + "".join(own) + ")"
    low = height[root] - 1
    second = [v for v in islice(order, n - 1) if parent[v] == root and height[v] == low]
    if len(second) != 1:
        return form
    kids = subs[second[0]]
    own.remove("(" + "".join(kids) + ")")
    kids.append("(" + "".join(own) + ")")
    kids.sort()
    return min(form, "(" + "".join(kids) + ")")


def canonical_form(g: Graph) -> str:
    """Labeling-independent string identity of a tree: the smaller
    centre-rooted parenthesis encoding.  Raises NotATreeError unless g
    is a tree."""
    t = RootedTree.of(g)
    return _form(t.parent, t.order)


def _split(seq: list[int]) -> int:
    """Where the root's second subtree starts: the second level-2 entry,
    or the end when the root has one child."""
    try:
        return seq.index(2, 2)
    except ValueError:
        return len(seq)


def free_level_sequences(n: int) -> Iterator[list[int]]:
    """The centre-rooted level sequences of the unlabeled trees on n
    vertices, one per tree, for n up to MAX_ORDER, in decreasing
    lexicographic order."""
    if n < 1 or n > MAX_ORDER:
        raise OrderTooLargeError(f"supported orders are 1..{MAX_ORDER}, got {n}")
    seq = list(range(1, n // 2 + 2)) + list(range(2, (n + 1) // 2 + 1))
    while seq is not None:
        split = _split(seq)
        first = [lvl - 1 for lvl in seq[1:split]]  # the first subtree as a rooted tree
        rest = seq[:1] + seq[split:]
        high = max(first, default=0)
        if high < max(rest) or (high == max(rest) and (len(first), first) <= (len(rest), rest)):
            nxt = _next_rooted(seq)
            yield seq
            seq = nxt
        else:
            p = split - 1
            seq = _successor(seq, p) if seq[p] <= 3 else _reset_suffix(_successor(seq, p))


def _reset_suffix(seq: list[int]) -> list[int]:
    """End seq with a path from the root as high as its first subtree, so
    the rest of the tree is high enough again; changes seq in place."""
    high = max(seq[1 : _split(seq)])
    seq[len(seq) - high + 1 :] = range(2, high + 1)
    return seq


@cache
def free_tree_parents(n: int) -> tuple[bytes, ...]:
    """The parent arrays (level_sequence_parents) of
    free_level_sequences(n), as bytes, in walk order.  Memoised: the
    order is walked once per process, so at most MAX_ORDER tuples are
    kept, about 1.8 MB for every order up to 16."""
    return tuple(bytes(level_sequence_parents(seq)) for seq in free_level_sequences(n))


def _edge_texts(n: int, sep: str) -> Iterator[str]:
    """The sorted edges of each free tree on n vertices, read off the
    memoised parent arrays in walk order, as JSON text: [u, v] pairs
    with u < v, items separated by sep.  Each text is made when it is
    asked for, so a listing need not hold the trees."""
    edge = {(u, v): f"[{u}{sep}{v}]" for v in range(1, n) for u in range(v)}
    for parent in free_tree_parents(n):
        yield "[" + sep.join([edge[e] for e in sorted(zip(parent[1:], range(1, n)))]) + "]"


def free_tree_count(n: int) -> int:
    """How many unlabeled trees have n vertices: the length of the
    order's memoised parent arrays, so no tree is built as a graph."""
    return len(free_tree_parents(n))


def prufer_to_tree(code: Sequence[int]) -> Graph:
    """The labeled tree on len(code) + 2 vertices a Prufer code encodes."""
    n = len(code) + 2
    degree = [1] * n
    for x in code:
        if not 0 <= x < n:
            raise ValueError(f"code entry {x} outside 0..{n - 1}")
        degree[x] += 1
    edges = []
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    for x in code:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((u, v))
    return from_edge_list(n, edges)


def random_prufer_code(n: int, rng: random.Random) -> list[int]:
    """The n - 2 entries, each rng.randrange(n), of a uniform random
    Prufer code of order n."""
    return [rng.randrange(n) for _ in range(n - 2)]


def random_tree(n: int, rng: random.Random) -> Graph:
    """Uniform random labeled tree on n vertices."""
    check_order(n)  # before the n - 2 code entries are drawn
    if n < 1:
        raise ValueError("needs n >= 1")
    if n == 1:
        return from_edge_list(1, [])
    return prufer_to_tree(random_prufer_code(n, rng))

"""Shared test utilities."""

import math
import random
import resource
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

from distindex import (
    ClassRemovalError,
    CubeCoordinates,
    CubeVerdict,
    DisconnectedError,
    DuplicateEdgeError,
    EdgeListFormatError,
    InfeasibleSpecError,
    Graph,
    LoopEdgeError,
    MAX_GRAPH_ORDER,
    NotBipartiteError,
    OrderTooLargeError,
    RootedTree,
    ThetaPartition,
    UNREACHABLE,
    VertexOutOfRangeError,
    WienerPolynomial,
    bfs_distances,
    canonical_form,
    free_level_sequences,
    from_edge_list,
    parse_edge_ends,
    tree_zagreb,
    random_tree,
    two_coloring,
)
from distindex.graphs import edge_pairs
from distindex.treegen import _next_rooted, level_sequence_edges


@dataclass(frozen=True)
class DistanceMatrix:
    """All-pairs distance table; row u is the BFS distance vector of u."""

    n: int
    d: tuple[tuple[int, ...], ...]

    def dist(self, u: int, v: int) -> int:
        return self.d[u][v]

    def diameter(self) -> int:
        """Largest pairwise distance; requires a connected graph."""
        best = 0
        for row in self.d:
            for x in row:
                if x == UNREACHABLE:
                    raise DisconnectedError("diameter of a disconnected graph")
                if x > best:
                    best = x
        return best


def path_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("path needs n >= 1")
    return from_edge_list(n, ((i, i + 1) for i in range(n - 1)))


def star_graph(n: int) -> Graph:
    """Star on n vertices with center 0."""
    if n < 1:
        raise ValueError("star needs n >= 1")
    return from_edge_list(n, ((0, i) for i in range(1, n)))


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("complete graph needs n >= 1")
    return from_edge_list(n, ((u, v) for u in range(n) for v in range(u + 1, n)))


def is_connected(g: Graph) -> bool:
    """Whether one BFS from vertex 0 reaches every vertex."""
    return g.n <= 1 or UNREACHABLE not in bfs_distances(g, 0)


def is_tree(g: Graph) -> bool:
    """Connected with exactly n - 1 edges."""
    return g.n >= 1 and g.m == g.n - 1 and is_connected(g)


def is_bipartite(g: Graph) -> bool:
    return two_coloring(g) is not None


def all_pairs_distances(g: Graph) -> DistanceMatrix:
    """One BFS row per vertex; a test-only reference table."""
    return DistanceMatrix(g.n, tuple(tuple(bfs_distances(g, s)) for s in range(g.n)))


def random_connected_graph(rng: random.Random, n: int, extra: int) -> Graph:
    """Random tree plus up to `extra` additional random edges."""
    tree = random_tree(n, rng)
    edges = set(tree.edges())
    for _ in range(extra):
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v:
            continue
        edges.add((min(u, v), max(u, v)))
    return from_edge_list(n, sorted(edges))


def rooted_at(g: Graph, root: int) -> RootedTree:
    """Tree g hung from any root, by BFS: the reversed BFS order is
    children-first and ends at the root, the form the tree kernels read,
    whereas RootedTree.build always roots at a centre."""
    parent = [-1] * g.n
    parent[root] = root
    order = [root]
    for v in order:
        for u in g.adj[v]:
            if parent[u] < 0:
                parent[u] = v
                order.append(u)
    assert len(order) == g.n, "not a tree"
    return RootedTree(parent=parent, order=order[::-1])


def relabel(g: Graph, perm: list[int]) -> Graph:
    """Copy of g with vertex v renamed perm[v]."""
    return from_edge_list(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def reference_wiener_polynomial(g: Graph) -> WienerPolynomial:
    """Pair counts by distance from one BFS per vertex, up to the
    diameter; a test-only reference for the oracle's ball sweep."""
    if g.n > 1 and bfs_distances(g, 0).count(UNREACHABLE):
        raise DisconnectedError("graph is not connected")
    hist = [0] * max(g.n, 1)
    for u in range(g.n):
        row = bfs_distances(g, u)
        for v in range(u + 1, g.n):
            hist[row[v]] += 1
    top = max((k for k, c in enumerate(hist) if c), default=0)
    return WienerPolynomial(tuple(hist[: top + 1]))


def _reference_restricted_sum(g: Graph, sources: list[int]) -> int:
    if g.n > 1 and bfs_distances(g, 0).count(UNREACHABLE):
        raise DisconnectedError("graph is not connected")
    total = 0
    for i, u in enumerate(sources):
        row = bfs_distances(g, u)
        total += sum(row[v] for v in sources[i + 1:])
    return total


def reference_twk(g: Graph, k: int) -> int:
    """TW_k from one BFS per degree-k vertex; a test-only reference for
    the oracle's sweeps."""
    return _reference_restricted_sum(g, [v for v in range(g.n) if g.degree(v) == k])


def reference_twk_star(g: Graph, k: int) -> int:
    """TW_k* from one BFS per vertex of degree at most k; a test-only
    reference for the oracle's sweeps."""
    return _reference_restricted_sum(g, [v for v in range(g.n) if g.degree(v) <= k])


def _reference_find(parent: list[int], x: int) -> int:
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def reference_edge_classes(g: Graph) -> list[list[int]]:
    """Edge classes by the textbook route, as lists of indices into
    g.edges() ordered by their first edge: test every pair of edges for
    d(x,u) + d(y,v) != d(x,v) + d(y,u) on the all-pairs matrix and close
    the relation with union-find.  O(m^2) pair tests; a test-only
    reference."""
    if not is_connected(g):
        raise DisconnectedError("edge classes need a connected graph")
    if two_coloring(g) is None:
        raise NotBipartiteError("edge classes need a bipartite graph")

    edges = g.edges()
    me = len(edges)
    rows = all_pairs_distances(g).d
    parent = list(range(me))
    for i in range(me):
        x, y = edges[i]
        dx = rows[x]
        dy = rows[y]
        ri = _reference_find(parent, i)
        for j in range(i + 1, me):
            u, v = edges[j]
            if dx[u] + dy[v] != dx[v] + dy[u]:
                rj = _reference_find(parent, j)
                if ri != rj:
                    parent[rj] = ri

    by_root: dict[int, list[int]] = {}
    for i in range(me):
        by_root.setdefault(_reference_find(parent, i), []).append(i)
    return sorted(by_root.values(), key=lambda ids: ids[0])


def reference_theta_classes(g: Graph) -> ThetaPartition:
    """The classes of reference_edge_classes, with the vertices split by
    BFS with each class removed."""
    class_ids = reference_edge_classes(g)
    edges = g.edges()
    class_of = [0] * len(edges)
    for ci, ids in enumerate(class_ids):
        for i in ids:
            class_of[i] = ci

    classes = []
    side0 = []
    side1 = []
    for ci, ids in enumerate(class_ids):
        comp = _reference_components(g, edges, class_of, ci)
        if len(comp) != 2:
            raise ClassRemovalError(
                f"removing class {ci} leaves {len(comp)} components, expected 2"
            )
        a, b = comp
        lo, hi = (a, b) if 0 in a else (b, a)
        for i in ids:
            u, v = edges[i]
            if (u in lo) == (v in lo):
                raise ClassRemovalError(
                    f"class {ci} edge ({u}, {v}) does not cross the split"
                )
        classes.append(tuple(edges[i] for i in ids))
        side0.append(sum(1 << v for v in lo))
        side1.append(sum(1 << v for v in hi))
    return ThetaPartition(
        n=g.n, classes=tuple(classes), side0=tuple(side0), side1=tuple(side1)
    )


def _reference_components(g: Graph, edges, class_of, ci) -> list[set[int]]:
    edge_id = {e: i for i, e in enumerate(edges)}
    seen = [False] * g.n
    comps = []
    for start in range(g.n):
        if seen[start]:
            continue
        seen[start] = True
        comp = {start}
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v in g.adj[u]:
                e = (u, v) if u < v else (v, u)
                if seen[v] or class_of[edge_id[e]] == ci:
                    continue
                seen[v] = True
                comp.add(v)
                queue.append(v)
        comps.append(comp)
    return comps


def reference_is_partial_cube(g: Graph) -> CubeVerdict:
    """Partial-cube verdict from reference_theta_classes and a Hamming
    versus all-pairs-distance comparison of every vertex pair."""
    try:
        part = reference_theta_classes(g)
    except DisconnectedError as exc:
        return CubeVerdict(False, "disconnected", str(exc), None, None)
    except NotBipartiteError as exc:
        return CubeVerdict(False, "not_bipartite", str(exc), None, None)
    except ClassRemovalError as exc:
        return CubeVerdict(
            False, "class_removal_not_two_components", str(exc), None, None
        )
    masks = [0] * g.n
    for i, hi in enumerate(part.side1):
        for v in range(g.n):
            masks[v] |= (hi >> v & 1) << i
    rows = all_pairs_distances(g).d
    for u in range(g.n):
        for v in range(u + 1, g.n):
            hd = (masks[u] ^ masks[v]).bit_count()
            if hd != rows[u][v]:
                return CubeVerdict(
                    False,
                    "not_isometric",
                    f"pair ({u}, {v}): Hamming {hd} vs distance {rows[u][v]}",
                    None,
                    part,
                )
    coords = CubeCoordinates(length=part.class_count, masks=tuple(masks))
    return CubeVerdict(True, None, None, coords, part)


def limit_memory() -> None:
    """A child process's preexec_fn: cap its address space at 1 GiB, so
    that an input a bound fails to refuse ends in a MemoryError in the
    child alone."""
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def rooted_level_sequences(n: int) -> Iterator[list[int]]:
    """All canonical level sequences of rooted trees on n vertices, in
    decreasing lexicographic order: the Beyer-Hedetniemi walk the
    free-tree walk takes its steps from."""
    if n < 1:
        raise ValueError("needs n >= 1")
    seq = list(range(1, n + 1))
    while seq is not None:
        nxt = _next_rooted(seq)  # built first, so a caller may change what it gets
        yield seq
        seq = nxt


def all_free_trees(n: int) -> Iterator[Graph]:
    """Every unlabeled tree on n vertices exactly once, for n up to
    MAX_ORDER, with vertex 0 a centre, in the order of
    free_level_sequences."""
    for seq in free_level_sequences(n):
        yield from_edge_list(n, level_sequence_edges(seq))


def parse_edge_list(text: str) -> Graph:
    """The validated graph of an edge-list text: parse_edge_ends, then
    from_edge_list, as compute builds every graph it does not strip as a
    tree."""
    n, ends = parse_edge_ends(text)
    return from_edge_list(n, edge_pairs(ends))


def reference_free_trees(n: int) -> Iterator[Graph]:
    """Every unlabeled tree on n vertices once, by building the tree of
    every rooted level sequence and dropping repeats of its canonical
    form; a test-only reference for all_free_trees."""
    seen: set[str] = set()
    for seq in rooted_level_sequences(n):
        g = from_edge_list(n, level_sequence_edges(seq))
        key = canonical_form(g)
        if key not in seen:
            seen.add(key)
            yield g


def reference_from_edge_list(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """The graph builder with the collector left running and a pairwise
    scan of every sorted neighbour list for repeats; a test-only
    reference for from_edge_list.

    Raises LoopEdgeError, DuplicateEdgeError or VertexOutOfRangeError
    when the input is not a simple graph on 0..n-1, and
    OrderTooLargeError when n exceeds MAX_GRAPH_ORDER.
    """
    if n < 0:
        raise VertexOutOfRangeError("vertex count must be non-negative")
    if n > MAX_GRAPH_ORDER:
        raise OrderTooLargeError(f"vertex count must be <= {MAX_GRAPH_ORDER}, got {n}")
    lists: list[list[int]] = [[] for _ in range(n)]
    m = 0
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise VertexOutOfRangeError(f"edge ({u}, {v}) outside 0..{n - 1}")
        if u == v:
            raise LoopEdgeError(f"loop at vertex {u}")
        lists[u].append(v)
        lists[v].append(u)
        m += 1
    for u, nbrs in enumerate(lists):
        nbrs.sort()
        for a, b in zip(nbrs, nbrs[1:]):
            if a == b:
                raise DuplicateEdgeError(f"edge ({min(u, a)}, {max(u, a)}) repeated")
    return Graph(n=n, adj=tuple(tuple(nbrs) for nbrs in lists), m=m)


def reference_parse_edge_ends(text: str) -> tuple[int, list[int]]:
    """The edge-list parser that splits and converts one line at a time;
    a test-only reference for parse_edge_ends."""
    rows = [ln for ln in (raw.strip() for raw in text.splitlines())
            if ln and not ln.startswith("#")]
    if not rows:
        raise EdgeListFormatError("empty input")
    head = rows[0].split()
    if len(head) != 2:
        raise EdgeListFormatError(f"header must be 'n m', got {rows[0]!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError as exc:
        raise EdgeListFormatError(f"non-integer header {rows[0]!r}") from exc
    if n < 1:
        raise EdgeListFormatError(f"vertex count must be >= 1, got {n}")
    if m < 0:
        raise EdgeListFormatError("negative edge count")
    body = rows[1:]
    if len(body) != m:
        raise EdgeListFormatError(f"expected {m} edge lines, found {len(body)}")
    ends = []
    for ln in body:
        parts = ln.split()
        if len(parts) != 2:
            raise EdgeListFormatError(f"edge line must be 'u v', got {ln!r}")
        try:
            ends += [int(parts[0]), int(parts[1])]
        except ValueError as exc:
            raise EdgeListFormatError(f"non-integer edge line {ln!r}") from exc
    return n, ends


def reference_parse_edge_list(text: str) -> Graph:
    """reference_parse_edge_ends, then reference_from_edge_list; a
    test-only reference for parse_edge_list."""
    n, ends = reference_parse_edge_ends(text)
    return reference_from_edge_list(n, list(zip(ends[::2], ends[1::2])))


def wk3_from_zagreb(g: Graph) -> int:
    """Distance-3 pair count of a tree from its Zagreb indices,
    W_3 = M2 - M1 + m: a tested identity, not a route of the package."""
    m1, m2 = tree_zagreb(RootedTree.of(g))  # raises NotATreeError unless g is a tree
    return m2 - m1 + g.m


def even_group_bound(n: int, k: int, p: int) -> Fraction:
    """Value of the relaxed even-k objective at real-valued balance:
    (1/2) (n - 1 - pk/2 + p)^2 (1 - 1/p)."""
    if k < 4 or k % 2:
        raise InfeasibleSpecError("even-case bound needs even k >= 4")
    if not 2 <= p <= 2 * (n - 1) / k:
        raise ValueError(f"p={p} outside 2..2(n-1)/k")
    q = Fraction(n - 1 - p * k // 2 + p)
    return Fraction(1, 2) * q * q * (1 - Fraction(1, p))


def even_group_peak(n: int, k: int) -> float:
    """Real maximizer of the relaxed even-k objective
    (even_group_bound): 1/4 + sqrt((16n + k - 18) / (k - 2)) / 4."""
    if k < 4 or k % 2:
        raise InfeasibleSpecError("even-case peak needs even k >= 4")
    return 0.25 + math.sqrt((16 * n + k - 18) / (k - 2)) / 4

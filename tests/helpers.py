"""Shared test utilities."""

import random
from collections import deque
from dataclasses import dataclass
from typing import Iterator

from distindex import (
    ClassRemovalError,
    CubeCoordinates,
    CubeVerdict,
    DisconnectedError,
    Graph,
    NotBipartiteError,
    ThetaPartition,
    UNREACHABLE,
    WienerPolynomial,
    bfs_distances,
    canonical_form,
    from_edge_list,
    is_connected,
    random_tree,
    rooted_level_sequences,
    two_coloring,
)
from distindex.treegen import _sequence_to_edges


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


def reference_free_trees(n: int) -> Iterator[Graph]:
    """Every unlabeled tree on n vertices once, by building the tree of
    every rooted level sequence and dropping repeats of its canonical
    form; a test-only reference for all_free_trees."""
    seen: set[str] = set()
    for seq in rooted_level_sequences(n):
        g = from_edge_list(n, _sequence_to_edges(seq))
        key = canonical_form(g)
        if key not in seen:
            seen.add(key)
            yield g

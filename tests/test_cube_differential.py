"""Differential tests for the partial-cube verifier: the edge classes
that distindex.partial_cube reads from the cut labels of the ball sweep
must be the same, and give the same verdict, as the O(m^2) pair-closure
reference in tests/helpers.py, reason, partition, coordinates and
exception type included.  The detail is compared too, except on
class-removal rejections: there the verifier names two edges, and BFS
must confirm that they are related and cut the graph differently.

Inputs come from four seeded generators: non-tree partial cubes grown by
isometric expansion (Chepoi 1988), subgraphs of grids with holes, random
bipartite graphs with a planted K_{2,3}, and odd-cycle or disconnected
graphs.  The verifier runs at the sweep's default bit budget and at
small ones that sweep the sources in many blocks.  On the accepted
non-tree partial cubes the cut route to TW_k must also match the oracle
and networkx for every degree present, and every partition's side
bitmasks must split the vertices along each class.
"""

import random
import re

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import distindex.indices
from distindex import (
    ClassRemovalError,
    DisconnectedError,
    GraphError,
    NotBipartiteError,
    bfs_distances,
    cycle_graph,
    from_edge_list,
    is_partial_cube,
    theta_classes,
    twk,
    twk_cut,
    wiener,
)
from distindex.partial_cube import _first_mismatch
from helpers import (
    path_graph,
    reference_edge_classes,
    reference_is_partial_cube,
    reference_theta_classes,
    relabel,
)

#: Keeps the O(m^2) reference quick.
MAX_VERTICES = 48


def shuffled(rng: random.Random, n: int, edges):
    perm = list(range(n))
    rng.shuffle(perm)
    return relabel(from_edge_list(n, sorted(set(edges))), perm)


def _geodesic(g, rng: random.Random) -> set[int]:
    """Vertices of a random shortest path: an isometric subgraph."""
    u, v = rng.randrange(g.n), rng.randrange(g.n)
    du = bfs_distances(g, u)
    path = {v}
    while v != u:
        v = rng.choice([w for w in g.adj[v] if du[w] == du[v] - 1])
        path.add(v)
    return path


def _halfspaces(g, rng: random.Random) -> set[int]:
    """Intersection of one or two sets W_xy: convex in a partial cube,
    so an isometric subgraph whenever it is not empty."""
    edges = g.edges()
    keep = set(range(g.n))
    for _ in range(rng.randint(1, 2)):
        x, y = rng.choice(edges)
        if rng.random() < 0.5:
            x, y = y, x
        dx, dy = bfs_distances(g, x), bfs_distances(g, y)
        keep &= {w for w in range(g.n) if dx[w] < dy[w]}
    return keep or {rng.randrange(g.n)}


def expanded_partial_cube(rng: random.Random):
    """A non-tree partial cube: the 4-cycle (K2 expanded along itself),
    then isometric expansions of G along an isometric subgraph S, each
    s in S gaining a twin s' with edges ss' and s't' for st inside S."""
    g = cycle_graph(4)
    for _ in range(rng.randint(0, 6)):
        pick = rng.random()
        if pick < 0.15:
            subset = {rng.randrange(g.n)}
        elif pick < 0.3:
            subset = set(rng.choice(g.edges()))
        elif pick < 0.65:
            subset = _geodesic(g, rng)
        elif pick < 0.95:
            subset = _halfspaces(g, rng)
        else:
            subset = set(range(g.n))
        if g.n + len(subset) > MAX_VERTICES:
            break
        twin = {s: g.n + i for i, s in enumerate(sorted(subset))}
        edges = g.edges() + [(s, t) for s, t in twin.items()]
        edges += [(twin[s], twin[t]) for s, t in g.edges() if s in twin and t in twin]
        g = from_edge_list(g.n + len(twin), edges)
    return shuffled(rng, g.n, g.edges())


def grid_subgraph(rng: random.Random):
    """Induced subgraph of an a x b grid with random cells removed; it
    may be disconnected or have holes."""
    a, b = rng.randint(1, 6), rng.randint(1, 7)
    cells = [(i, j) for i in range(a) for j in range(b) if rng.random() > 0.25]
    if not cells:
        cells = [(0, 0)]
    index = {c: t for t, c in enumerate(cells)}
    edges = [(index[(i, j)], index[c]) for i, j in cells
             for c in ((i + 1, j), (i, j + 1)) if c in index]
    return shuffled(rng, len(cells), edges)


def planted_bipartite(rng: random.Random):
    """Connected random bipartite graph around a planted K_{2,3}."""
    a, b = rng.randint(2, 7), rng.randint(3, 8)
    left, right = list(range(a)), list(range(a, a + b))
    hub, leaves = rng.sample(left, 2), rng.sample(right, 3)
    edges = {(u, v) for u in hub for v in leaves}
    # spanning tree: each vertex joins a placed vertex of the other side
    placed = [[0], [a]]
    edges.add((0, a))
    rest = left[1:] + right[1:]
    rng.shuffle(rest)
    for v in rest:
        side = v >= a
        u = rng.choice(placed[not side])
        edges.add((min(u, v), max(u, v)))
        placed[side].append(v)
    for _ in range(rng.randint(0, a + b)):
        edges.add((rng.choice(left), rng.choice(right)))
    return shuffled(rng, a + b, edges)


def odd_or_disconnected(rng: random.Random):
    """An odd cycle with pendant paths and chords, or two disjoint
    pieces (which may themselves be non-bipartite)."""
    if rng.random() < 0.5:
        c = 2 * rng.randint(1, 6) + 1
        n = c + rng.randint(0, 6)
        edges = [(i, (i + 1) % c) for i in range(c)]
        edges += [(rng.randrange(v), v) for v in range(c, n)]
        for _ in range(rng.randint(0, 2)):
            u, v = rng.sample(range(n), 2)
            edges.append((u, v))
        return shuffled(rng, n, [(min(e), max(e)) for e in edges])
    first = rng.choice((grid_subgraph, planted_bipartite, expanded_partial_cube))(rng)
    second = path_graph(rng.randint(1, 4)) if rng.random() < 0.5 else cycle_graph(3)
    edges = first.edges() + [(first.n + u, first.n + v) for u, v in second.edges()]
    return shuffled(rng, first.n + second.n, edges)


GENERATORS = (expanded_partial_cube, grid_subgraph, planted_bipartite, odd_or_disconnected)


def outcome(fn, g):
    try:
        return fn(g)
    except GraphError as exc:
        return type(exc), str(exc)


def _bfs_cut(g, x: int, y: int) -> int:
    """The side of edge xy's cut W_xy | W_yx that holds vertex 0."""
    dx, dy = bfs_distances(g, x), bfs_distances(g, y)
    side = sum(1 << w for w in range(g.n) if dx[w] < dy[w])
    return side if side & 1 else ((1 << g.n) - 1) ^ side


WITNESS = re.compile(
    r"edges \((\d+), (\d+)\) and \((\d+), (\d+)\) are related but cut the graph differently"
)


def assert_witness(g, detail: str) -> None:
    """The two edges a class-removal detail names are edges of g, are
    related by BFS distances and have different BFS cuts."""
    x, y, u, v = map(int, WITNESS.fullmatch(detail).groups())
    assert {(x, y), (u, v)} <= set(g.edges())
    dx, dy = bfs_distances(g, x), bfs_distances(g, y)
    assert dx[u] + dy[v] != dx[v] + dy[u]
    assert _bfs_cut(g, x, y) != _bfs_cut(g, u, v)


def assert_matches_reference(g, verdict) -> None:
    want = reference_is_partial_cube(g)
    if want.reason == "class_removal_not_two_components":
        assert_witness(g, verdict.detail)
        verdict = verdict._replace(detail=want.detail)
    assert verdict == want


@settings(derandomize=True, deadline=None, max_examples=300)
@given(
    st.sampled_from(GENERATORS),
    st.integers(0, 2**32 - 1),
    st.sampled_from((distindex.indices._SWEEP_BITS, 7, 120)),
)
def test_verifier_matches_reference(generator, seed, sweep_bits):
    """A small bit budget sweeps the sources in many blocks (of
    sweep_bits // n sources, at least one), each stopping at its own
    round."""
    g = generator(random.Random(seed))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(distindex.indices, "_SWEEP_BITS", sweep_bits)
        assert_matches_reference(g, is_partial_cube(g))
        got = outcome(theta_classes, g)
    want = outcome(reference_theta_classes, g)
    if type(want) is tuple and want[0] is ClassRemovalError:
        assert type(got) is tuple and got[0] is ClassRemovalError
        assert_witness(g, got[1])
    else:
        assert got == want


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.sampled_from(GENERATORS), st.integers(0, 2**32 - 1))
def test_partition_sides_are_complementary_bitmasks(generator, seed):
    g = generator(random.Random(seed))
    verdict = is_partial_cube(g)
    part = verdict.partition
    if part is None:
        return
    full = (1 << g.n) - 1
    for cls, lo, hi in zip(part.classes, part.side0, part.side1):
        assert lo & hi == 0
        assert lo | hi == full
        assert lo & 1
        for u, v in cls:
            assert (lo >> u & 1) != (lo >> v & 1)
    if verdict.accepted:
        assert sum(lo.bit_count() * hi.bit_count()
                   for lo, hi in zip(part.side0, part.side1)) == wiener(g)
        assert verdict.coordinates.masks == tuple(
            sum((hi >> v & 1) << i for i, hi in enumerate(part.side1))
            for v in range(g.n)
        )


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.integers(0, 2**32 - 1))
def test_expansions_are_non_tree_partial_cubes(seed):
    g = expanded_partial_cube(random.Random(seed))
    assert g.m >= g.n
    assert is_partial_cube(g).accepted


@settings(derandomize=True, deadline=None, max_examples=120)
@given(st.sampled_from((expanded_partial_cube, grid_subgraph)), st.integers(0, 2**32 - 1))
def test_cut_twk_matches_oracle_on_partial_cubes(generator, seed):
    g = generator(random.Random(seed))
    verdict = is_partial_cube(g)
    if not verdict.accepted or g.m < g.n:
        return
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    rows = dict(nx.all_pairs_shortest_path_length(h))
    for k in sorted(set(g.degrees())):
        members = [v for v in range(g.n) if g.degree(v) == k]
        want = sum(rows[u][v] for i, u in enumerate(members) for v in members[i + 1:])
        assert twk_cut(g, k, verdict.partition) == twk(g, k) == want


def test_generators_reach_every_reachable_reason():
    """Every rejection reason but not_isometric shows up.  By Graham and
    Winkler's canonical embedding, a graph whose classes each split it
    into exactly two parts is already isometric in the hypercube, so that
    reason is a guard the class-removal check leaves unreachable."""
    seen = {}
    for generator in GENERATORS:
        reasons = set()
        for seed in range(40):
            g = generator(random.Random(seed))
            verdict = is_partial_cube(g)
            assert_matches_reference(g, verdict)
            reasons.add(verdict.reason)
        seen[generator.__name__] = reasons
    assert seen["expanded_partial_cube"] == {None}
    assert seen["planted_bipartite"] == {"class_removal_not_two_components"}
    assert {"disconnected", None} <= seen["grid_subgraph"]
    assert {"not_bipartite", "disconnected"} <= seen["odd_or_disconnected"]
    assert not any("not_isometric" in reasons for reasons in seen.values())


def test_merged_classes_are_always_rejected():
    """A class whose edges cut the graph differently is rejected, and a
    connected bipartite graph without one is accepted.  If every class
    split the graph in two, Graham and Winkler's embedding would make it
    a partial cube, where the relation is transitive (Winkler 1984) and
    each class is one cut; so a merged class never survives to a
    returned partition."""
    tally = {True: 0, False: 0}
    for generator in GENERATORS:
        for seed in range(40):
            g = generator(random.Random(seed))
            try:
                class_ids = reference_edge_classes(g)
            except (DisconnectedError, NotBipartiteError):
                continue
            edges = g.edges()
            merged = any(len({_bfs_cut(g, *edges[i]) for i in ids}) > 1 for ids in class_ids)
            tally[merged] += 1
            want = "class_removal_not_two_components" if merged else None
            assert is_partial_cube(g).reason == want
    assert tally[True] and tally[False]


def test_first_mismatch_names_first_pair():
    # path 0-1-2 with vertex 2 given vertex 1's coordinates
    assert _first_mismatch(path_graph(3), [0, 1, 1]) == "pair (0, 2): Hamming 1 vs distance 2"

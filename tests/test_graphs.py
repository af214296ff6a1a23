import gc
import random

import pytest

from distindex import (
    MAX_GRAPH_ORDER,
    MAX_HYPERCUBE_DIM,
    UNREACHABLE,
    DisconnectedError,
    DuplicateEdgeError,
    EdgeListFormatError,
    LoopEdgeError,
    OrderTooLargeError,
    VertexOutOfRangeError,
    bfs_distances,
    cycle_graph,
    format_edge_list,
    from_edge_list,
    hypercube_graph,
    random_tree,
    two_coloring,
)
from helpers import all_pairs_distances, complete_graph, parse_edge_list, path_graph, star_graph


def test_from_edge_list_basic():
    g = from_edge_list(2, [(0, 1)])
    assert g.n == 2 and g.m == 1
    assert g.adj == ((1,), (0,))
    assert g.edges() == [(0, 1)]


def test_adjacency_is_sorted():
    g = from_edge_list(4, [(2, 0), (3, 0), (0, 1)])
    assert g.adj[0] == (1, 2, 3)


def test_loop_rejected():
    with pytest.raises(LoopEdgeError):
        from_edge_list(3, [(0, 1), (2, 2)])


@pytest.mark.parametrize("edges", [[(0, 1), (0, 1)], [(0, 1), (1, 0)]])
def test_duplicate_rejected(edges):
    with pytest.raises(DuplicateEdgeError):
        from_edge_list(3, edges)


@pytest.mark.parametrize("edge", [(0, 3), (-1, 0), (5, 1)])
def test_out_of_range_rejected(edge):
    with pytest.raises(VertexOutOfRangeError):
        from_edge_list(3, [edge])


@pytest.mark.parametrize("collecting", [True, False])
@pytest.mark.parametrize(
    "edges, error",
    [
        ([(0, 1), (1, 2)], None),
        ([(0, 1), (1, 3)], VertexOutOfRangeError),
        ([(0, 1), (2, 2)], LoopEdgeError),
        ([(0, 1), (1, 0)], DuplicateEdgeError),
    ],
)
def test_from_edge_list_restores_collector_state(collecting, edges, error):
    was_collecting = gc.isenabled()
    try:
        gc.enable() if collecting else gc.disable()
        if error is None:
            assert from_edge_list(3, edges).m == 2
        else:
            with pytest.raises(error):
                from_edge_list(3, edges)
        assert gc.isenabled() is collecting
    finally:
        gc.enable() if was_collecting else gc.disable()


def test_bfs_distances_path():
    assert bfs_distances(path_graph(4), 0) == [0, 1, 2, 3]
    assert bfs_distances(path_graph(4), 2) == [2, 1, 0, 1]


def test_bfs_distances_star_center():
    assert bfs_distances(star_graph(5), 0) == [0, 1, 1, 1, 1]


def test_bfs_source_out_of_range():
    with pytest.raises(VertexOutOfRangeError):
        bfs_distances(path_graph(3), 3)


def test_bfs_unreachable_sentinel():
    g = from_edge_list(4, [(0, 1), (2, 3)])
    assert bfs_distances(g, 0) == [0, 1, UNREACHABLE, UNREACHABLE]


def test_all_pairs_matches_bfs():
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randint(1, 30)
        edges = set()
        for _ in range(rng.randint(0, 2 * n)):
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                edges.add((min(u, v), max(u, v)))
        g = from_edge_list(n, sorted(edges))
        d = all_pairs_distances(g)
        for s in range(n):
            assert list(d.d[s]) == bfs_distances(g, s)


def test_distance_matrix_symmetric_and_triangle():
    g = cycle_graph(7)
    d = all_pairs_distances(g)
    for u in range(7):
        assert d.dist(u, u) == 0
        for v in range(7):
            assert d.dist(u, v) == d.dist(v, u)
            for w in range(7):
                assert d.dist(u, w) <= d.dist(u, v) + d.dist(v, w)


def test_diameter():
    assert all_pairs_distances(path_graph(6)).diameter() == 5
    assert all_pairs_distances(cycle_graph(6)).diameter() == 3
    assert all_pairs_distances(path_graph(1)).diameter() == 0
    with pytest.raises(DisconnectedError):
        all_pairs_distances(from_edge_list(3, [(0, 1)])).diameter()


def test_two_coloring():
    color = two_coloring(cycle_graph(6))
    assert color is not None
    for u, v in cycle_graph(6).edges():
        assert color[u] != color[v]
    assert two_coloring(cycle_graph(5)) is None
    assert two_coloring(hypercube_graph(4)) is not None
    assert two_coloring(complete_graph(3)) is None


def test_parse_edge_list_with_comments():
    text = "# a triangle with a tail\n4 4\n0 1\n1 2\n\n0 2\n2 3\n"
    g = parse_edge_list(text)
    assert g.n == 4 and g.m == 4
    assert g.edges() == [(0, 1), (0, 2), (1, 2), (2, 3)]


@pytest.mark.parametrize(
    "text",
    [
        "",
        "# only comments\n",
        "3\n0 1\n",
        "a b\n",
        "3 2\n0 1\n",
        "3 1\n0 1\n1 2\n",
        "3 1\n0 1 2\n",
        "3 1\nx y\n",
        "3 -1\n",
        "0 0\n",
        "-2 0\n",
    ],
)
def test_parse_edge_list_malformed(text):
    with pytest.raises(EdgeListFormatError):
        parse_edge_list(text)


def test_parse_edge_list_propagates_validation():
    with pytest.raises(LoopEdgeError):
        parse_edge_list("2 1\n1 1\n")


def test_format_round_trip():
    tree = random_tree(300, random.Random(11))
    for g in [path_graph(1), path_graph(7), star_graph(5), cycle_graph(8), hypercube_graph(3), tree]:
        text = format_edge_list(g)
        # the header, then one line per edge in Graph.edges() order
        assert text.splitlines() == [f"{g.n} {g.m}"] + [f"{u} {v}" for u, v in g.edges()]
        assert text.endswith("\n")
        back = parse_edge_list(text)
        assert back.n == g.n and back.adj == g.adj
        assert format_edge_list(back) == text


def test_format_single_vertex():
    assert format_edge_list(path_graph(1)) == "1 0\n"


def test_constructors():
    assert path_graph(1).m == 0
    assert star_graph(1).m == 0
    assert star_graph(6).degree(0) == 5
    assert cycle_graph(3).m == 3
    assert complete_graph(5).m == 10
    q4 = hypercube_graph(4)
    assert q4.n == 16 and q4.m == 32
    assert hypercube_graph(0).n == 1
    for bad in (path_graph, star_graph, complete_graph):
        with pytest.raises(ValueError):
            bad(0)
    with pytest.raises(ValueError):
        cycle_graph(2)


def test_hypercube_dimension_bounds():
    assert MAX_HYPERCUBE_DIM == 20
    with pytest.raises(OrderTooLargeError):
        hypercube_graph(MAX_HYPERCUBE_DIM + 1)
    with pytest.raises(OrderTooLargeError):
        hypercube_graph(40)
    with pytest.raises(ValueError):
        hypercube_graph(-1)


def test_graph_order_bound():
    assert MAX_GRAPH_ORDER >= 10**6
    with pytest.raises(OrderTooLargeError):
        from_edge_list(MAX_GRAPH_ORDER + 1, [])
    with pytest.raises(OrderTooLargeError):
        parse_edge_list("3000000000 0\n")
    with pytest.raises(OrderTooLargeError):
        path_graph(MAX_GRAPH_ORDER + 1)


def test_hypercube_distance_is_bit_count():
    g = hypercube_graph(4)
    d = all_pairs_distances(g)
    for u in range(16):
        for v in range(16):
            assert d.dist(u, v) == (u ^ v).bit_count()

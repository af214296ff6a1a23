import random

import pytest

import distindex.indices
from distindex import (
    ClassRemovalError,
    DisconnectedError,
    NotBipartiteError,
    NotPartialCubeError,
    bfs_distances,
    gen_coronene,
    cycle_graph,
    from_edge_list,
    halfspace_degree_counts,
    hypercube_graph,
    is_partial_cube,
    random_tree,
    theta_classes,
    twk,
    twk_cut,
    wiener,
)
from distindex.indices import _sweep
from distindex.partial_cube import _transpose
from helpers import all_pairs_distances, complete_graph, path_graph, star_graph

K23 = from_edge_list(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)])


def test_theta_classes_single_edge():
    part = theta_classes(path_graph(2))
    assert part.class_count == 1
    assert part.classes == (((0, 1),),)
    assert part.side0 == (0b01,)
    assert part.side1 == (0b10,)


def test_theta_classes_tree_one_per_edge():
    rng = random.Random(3)
    for _ in range(10):
        g = random_tree(rng.randint(2, 40), rng)
        part = theta_classes(g)
        assert part.class_count == g.m
        for cls, lo, hi in zip(part.classes, part.side0, part.side1):
            assert len(cls) == 1
            assert lo & hi == 0
            assert lo | hi == (1 << g.n) - 1
            assert lo & 1


def test_theta_classes_even_cycle_opposite_edges():
    part = theta_classes(cycle_graph(6))
    assert part.class_count == 3
    assert set(part.classes[0]) == {(0, 1), (3, 4)}
    assert set(part.classes[1]) == {(0, 5), (2, 3)}
    assert set(part.classes[2]) == {(1, 2), (4, 5)}
    for lo, hi in zip(part.side0, part.side1):
        assert lo.bit_count() == hi.bit_count() == 3


def test_theta_classes_hypercube_directions():
    d = 4
    part = theta_classes(hypercube_graph(d))
    assert part.class_count == d
    for cls in part.classes:
        assert len(cls) == 1 << (d - 1)
        bits = {u ^ v for u, v in cls}
        assert len(bits) == 1


def test_theta_classes_errors():
    with pytest.raises(DisconnectedError):
        theta_classes(from_edge_list(4, [(0, 1), (2, 3)]))
    with pytest.raises(NotBipartiteError):
        theta_classes(cycle_graph(5))
    with pytest.raises(ClassRemovalError):
        theta_classes(K23)


def test_class_removal_names_the_first_related_pair():
    verdict = is_partial_cube(K23)
    assert verdict.detail == "edges (0, 2) and (1, 3) are related but cut the graph differently"


def test_is_partial_cube_accepts_classics():
    rng = random.Random(7)
    graphs = [path_graph(1), path_graph(2), cycle_graph(6), cycle_graph(10)]
    graphs += [hypercube_graph(d) for d in range(5)]
    graphs += [random_tree(rng.randint(2, 30), rng) for _ in range(10)]
    for g in graphs:
        verdict = is_partial_cube(g)
        assert verdict.accepted, verdict.reason
        assert verdict.reason is None
        assert verdict.coordinates is not None


def test_is_partial_cube_rejections():
    assert is_partial_cube(cycle_graph(5)).reason == "not_bipartite"
    assert is_partial_cube(K23).reason == "class_removal_not_two_components"
    assert is_partial_cube(from_edge_list(3, [(0, 1)])).reason == "disconnected"
    for verdict in (is_partial_cube(cycle_graph(5)), is_partial_cube(K23)):
        assert not verdict.accepted
        assert verdict.detail


def test_rejects_bipartite_non_partial_cube():
    # two 6-cycles sharing a 2-edge path: bipartite, but the edge
    # classes collapse and removal shatters the graph
    g = from_edge_list(
        9,
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5),
         (2, 6), (6, 7), (7, 8), (0, 8)],
    )
    verdict = is_partial_cube(g)
    assert not verdict.accepted
    assert verdict.reason == "class_removal_not_two_components"
    assert verdict.detail


def test_coordinates_reproduce_distances():
    for g in [path_graph(6), cycle_graph(8), hypercube_graph(4)]:
        verdict = is_partial_cube(g)
        coords = verdict.coordinates
        d = all_pairs_distances(g)
        for u in range(g.n):
            for v in range(g.n):
                assert coords.hamming(u, v) == d.dist(u, v)
        strings = coords.strings()
        assert len(set(strings)) == g.n
        assert all(len(s) == verdict.partition.class_count for s in strings)


def test_coordinate_strings():
    verdict = is_partial_cube(path_graph(3))
    assert verdict.coordinates.string(0) == "00"
    got = set(verdict.coordinates.strings())
    assert got == {"00", "10", "11"} or got == {"00", "01", "11"}


def test_halfspace_degree_counts():
    part = theta_classes(path_graph(4))
    assert halfspace_degree_counts(path_graph(4), part, 1) == [(1, 1), (1, 1), (1, 1)]
    part6 = theta_classes(cycle_graph(6))
    assert halfspace_degree_counts(cycle_graph(6), part6, 2) == [(3, 3)] * 3
    with pytest.raises(ValueError):
        halfspace_degree_counts(path_graph(4), part, -1)


def test_twk_cut_frozen():
    assert twk_cut(cycle_graph(6), 2) == 27
    assert twk_cut(hypercube_graph(3), 3) == 48
    assert twk_cut(path_graph(5), 1) == 4


def test_twk_cut_even_cycles_closed_form():
    for half in range(2, 9):
        assert twk_cut(cycle_graph(2 * half), 2) == half ** 3


def test_twk_cut_hypercubes_closed_form():
    for d in range(1, 6):
        assert twk_cut(hypercube_graph(d), d) == d * 4 ** (d - 1)


def test_twk_cut_matches_oracle_on_trees():
    rng = random.Random(11)
    for _ in range(20):
        g = random_tree(rng.randint(2, 50), rng)
        part = theta_classes(g)
        for k in sorted(set(g.degrees())):
            assert twk_cut(g, k, part) == twk(g, k)


def test_twk_cut_rejects_non_partial_cubes():
    with pytest.raises(NotPartialCubeError):
        twk_cut(cycle_graph(5), 2)
    with pytest.raises(NotPartialCubeError):
        twk_cut(K23, 3)
    with pytest.raises(NotPartialCubeError):
        twk_cut(complete_graph(4), 3)


def test_twk_cut_full_degree_equals_wiener():
    # summing both sides over all classes counts every pair's distance
    g = cycle_graph(8)
    assert twk_cut(g, 2) == wiener(g)
    q = hypercube_graph(4)
    assert twk_cut(q, 4) == wiener(q)


def test_star_is_partial_cube():
    verdict = is_partial_cube(star_graph(7))
    assert verdict.accepted
    assert verdict.partition.class_count == 6


def test_accepting_builds_no_distance_matrix(monkeypatch):
    import distindex.graphs
    import distindex.partial_cube

    calls = {"bfs": 0}
    bfs = distindex.graphs.bfs_distances

    def counting_bfs(g, source):
        calls["bfs"] += 1
        return bfs(g, source)

    monkeypatch.setattr(distindex.graphs, "bfs_distances", counting_bfs)
    monkeypatch.setattr(distindex.partial_cube, "bfs_distances", counting_bfs)
    for g in (hypercube_graph(6), gen_coronene(3).graph, cycle_graph(12)):
        calls.update(bfs=0)
        assert is_partial_cube(g).accepted
        assert calls["bfs"] <= 1


def _grid(a: int, b: int):
    return from_edge_list(
        a * b,
        [(b * i + j, b * i + j + 1) for i in range(a) for j in range(b - 1)]
        + [(b * i + j, b * i + j + b) for i in range(a - 1) for j in range(b)],
    )


def _trees_with_even_chords(rng: random.Random, count: int):
    """Random trees plus chords between vertices of opposite colours, so
    each chord closes an even cycle and the graph stays bipartite."""
    for _ in range(count):
        t = random_tree(rng.randint(2, 30), rng)
        colour = bfs_distances(t, 0)
        edges = set(t.edges())
        for _ in range(rng.randint(0, 4)):
            u, v = sorted(rng.sample(range(t.n), 2))
            if (colour[u] ^ colour[v]) & 1:
                edges.add((u, v))
        yield from_edge_list(t.n, sorted(edges))


@pytest.mark.parametrize("sweep_bits", [distindex.indices._SWEEP_BITS, 1, 7, 120])
def test_sweep_parities_give_min_distance_parity_labels(monkeypatch, sweep_bits):
    """Bit w of parities[x] ^ parities[y] is the parity of
    min(d(w, x), d(w, y)) on every edge of a bipartite graph, however the
    sources are split into blocks: a budget of 1 or 7 bits sweeps one
    source per block, 120 bits several per block with a shorter last one."""
    monkeypatch.setattr(distindex.indices, "_SWEEP_BITS", sweep_bits)
    graphs = [cycle_graph(n) for n in (4, 6, 10, 14)]
    graphs += [_grid(a, b) for a, b in ((1, 2), (2, 3), (3, 5), (4, 4), (5, 6))]
    graphs += [hypercube_graph(d) for d in (1, 2, 3, 4, 5)]
    graphs += [K23, *_trees_with_even_chords(random.Random(15), 12)]
    for g in graphs:
        parities = [0] * g.n
        _sweep(g, range(g.n), (), parities)
        rows = [bfs_distances(g, v) for v in range(g.n)]
        for x, y in g.edges():
            want = sum((min(rows[x][w], rows[y][w]) & 1) << w for w in range(g.n))
            assert parities[x] ^ parities[y] == want


@pytest.mark.parametrize("count, n", [(0, 6), (0, 1), (1, 1), (5, 1), (40, 7), (3, 64), (9, 9)])
def test_transpose_matches_per_bit_reference(count, n):
    """No masks, one vertex, more masks than vertices and fewer."""
    rng = random.Random(count * 100 + n)
    masks = [rng.getrandbits(n) for _ in range(count)]
    want = [sum((mask >> v & 1) << j for j, mask in enumerate(masks)) for v in range(n)]
    assert _transpose(masks, n) == want

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
import distindex.partial_cube
from distindex.partial_cube import ThetaPartition, _cut_labels, _isometric, _transpose
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


def _near_sides(g):
    """For every edge (x, y), x at even distance from vertex 0: the
    vertices closer to x than to y, from one BFS per vertex."""
    rows = [bfs_distances(g, v) for v in range(g.n)]
    out = {}
    for x, y in g.edges():
        if rows[0][x] & 1:
            x, y = y, x
        out[x, y] = sum((rows[x][w] < rows[y][w]) << w for w in range(g.n))
    return out


@pytest.mark.parametrize("sweep_bits", [distindex.indices._SWEEP_BITS, 1, 7, 120])
def test_cut_labels_give_the_near_side_of_every_edge(monkeypatch, sweep_bits):
    """Bit w of labels[x] ^ labels[y] is set exactly when w is closer to
    x than to y, x being the end at even distance from vertex 0, on every
    edge of a bipartite graph, however the sources are split into blocks:
    a budget of 1 or 7 bits sweeps one source per block, 120 bits several
    per block with a shorter last one."""
    monkeypatch.setattr(distindex.indices, "_SWEEP_BITS", sweep_bits)
    graphs = [cycle_graph(n) for n in (4, 6, 10, 14)]
    graphs += [_grid(a, b) for a, b in ((1, 2), (2, 3), (3, 5), (4, 4), (5, 6))]
    graphs += [hypercube_graph(d) for d in (1, 2, 3, 4, 5)]
    graphs += [K23, *_trees_with_even_chords(random.Random(15), 12)]
    for g in graphs:
        labels = _cut_labels(g, bfs_distances(g, 0))
        for (x, y), want in _near_sides(g).items():
            assert labels[x] ^ labels[y] == want


def _last_rounds(g):
    """The round at which a block holding source w alone stops: the first
    r whose colour class (even BFS layers from vertex 0 for even r, odd
    ones for odd r) lies within r of w."""
    colour = [d & 1 for d in bfs_distances(g, 0)]
    out = []
    for w in range(g.n):
        row = bfs_distances(g, w)
        r = 0
        while any(colour[v] == r & 1 and row[v] > r for v in range(g.n)):
            r += 1
        out.append(r)
    return out


LABEL_BLOCK_GRAPHS = {
    "p4": path_graph(4),
    "c6": cycle_graph(6),
    "c8": cycle_graph(8),
    "q3": hypercube_graph(3),
    "coronene2": gen_coronene(2).graph,
    "grid20x30": _grid(20, 30),
}


@pytest.mark.parametrize("name", sorted(LABEL_BLOCK_GRAPHS))
def test_cut_labels_agree_across_block_sizes(monkeypatch, name):
    """Blocks that stop on odd rounds and blocks that stop on even ones
    give the same side of every edge, so the edge labels do not depend on
    how the sources are split: one source a block (both parities occur),
    a few, and all in one block."""
    g = LABEL_BLOCK_GRAPHS[name]
    assert {r & 1 for r in _last_rounds(g)} == {0, 1}
    dist = bfs_distances(g, 0)
    want = _near_sides(g)
    for bits in (distindex.indices._SWEEP_BITS, 1, 2 * g.n, 3 * g.n, 7 * g.n):
        monkeypatch.setattr(distindex.indices, "_SWEEP_BITS", bits)
        labels = _cut_labels(g, dist)
        assert {(x, y): labels[x] ^ labels[y] for x, y in want} == want


def _c6_false_partition():
    """C_6 cut into classes {01, 23}, {12, 45} and {34, 05}: every edge
    changes its own class's coordinate alone, yet vertices 0 and 3, at
    distance 3, differ in one coordinate."""
    classes = (((0, 1), (2, 3)), ((1, 2), (4, 5)), ((3, 4), (0, 5)))
    masks = [0b000, 0b001, 0b011, 0b010, 0b110, 0b100]
    side1 = tuple(sum((m >> c & 1) << v for v, m in enumerate(masks)) for c in range(3))
    part = ThetaPartition(n=6, classes=classes, side0=tuple(0b111111 ^ s for s in side1), side1=side1)
    return part, masks


def test_certificate_rejects_a_partition_that_is_not_isometric(monkeypatch):
    g = cycle_graph(6)
    part, masks = _c6_false_partition()
    for c, cls in enumerate(part.classes):
        for x, y in cls:
            assert masks[x] ^ masks[y] == 1 << c
    assert not _isometric(part, masks)
    assert _isometric(*distindex.partial_cube._partition(g))
    monkeypatch.setattr(distindex.partial_cube, "_partition", lambda _: (part, masks))
    verdict = is_partial_cube(g)
    assert verdict == (False, "not_isometric", "pair (0, 3): Hamming 1 vs distance 3", None, part)


def test_verifier_runs_no_pair_count_sweep(monkeypatch):
    """The verifier reads its edge classes from its own colour-class
    sweep, never from the oracle's pair-counting one."""

    def refuse(*args, **kwargs):
        raise AssertionError("the verifier called indices._sweep")

    monkeypatch.setattr(distindex.indices, "_sweep", refuse)
    monkeypatch.setattr(distindex.partial_cube, "_sweep", refuse, raising=False)
    for g in (hypercube_graph(4), cycle_graph(8), gen_coronene(2).graph, _grid(3, 5)):
        assert is_partial_cube(g).accepted
        assert theta_classes(g).n == g.n
    assert is_partial_cube(K23).reason == "class_removal_not_two_components"
    with pytest.raises(ClassRemovalError):
        theta_classes(K23)


@pytest.mark.parametrize("count, n", [(0, 6), (0, 1), (1, 1), (5, 1), (40, 7), (3, 64), (9, 9)])
def test_transpose_matches_per_bit_reference(count, n):
    """No masks, one vertex, more masks than vertices and fewer."""
    rng = random.Random(count * 100 + n)
    masks = [rng.getrandbits(n) for _ in range(count)]
    want = [sum((mask >> v & 1) << j for j, mask in enumerate(masks)) for v in range(n)]
    assert _transpose(masks, n) == want

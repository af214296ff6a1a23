import math
import random
import subprocess
import sys

import pytest

import distindex.indices
from distindex import (
    DisconnectedError,
    coronene_tw3,
    gen_coronene,
    cycle_graph,
    from_edge_list,
    hypercube_graph,
    index_report,
    random_tree,
    theta_classes,
    twk,
    twk_star,
    wiener,
    wiener_polynomial,
    wk,
    wk_star,
    zagreb,
)
from distindex.graphs import Graph, bfs_distances
from distindex.indices import _sweep
from distindex.partial_cube import _cut_labels
from helpers import (
    all_free_trees,
    complete_graph,
    is_bipartite,
    path_graph,
    random_connected_graph,
    reference_twk,
    reference_twk_star,
    reference_wiener_polynomial,
    star_graph,
)


def test_wiener_small():
    assert wiener(path_graph(1)) == 0
    assert wiener(path_graph(2)) == 1
    assert wiener(path_graph(4)) == 10
    assert wiener(star_graph(4)) == 9
    assert wiener(cycle_graph(6)) == 27


def test_wiener_path_closed_form():
    for n in range(1, 30):
        assert wiener(path_graph(n)) == (n + 1) * n * (n - 1) // 6


def test_wiener_star_closed_form():
    for n in range(1, 30):
        assert wiener(star_graph(n)) == (n - 1) * (n - 1)


def test_wiener_disconnected():
    with pytest.raises(DisconnectedError):
        wiener(from_edge_list(4, [(0, 1), (2, 3)]))


def test_wk_path():
    for n in range(2, 12):
        for k in range(1, n + 2):
            assert wk(path_graph(n), k) == max(n - k, 0)


def test_wk_basic():
    assert wk(star_graph(6), 1) == 5
    assert wk(star_graph(6), 2) == 10
    assert wk(cycle_graph(6), 3) == 3
    with pytest.raises(ValueError):
        wk(path_graph(3), 0)


def test_wk_equals_edge_count_at_one():
    rng = random.Random(5)
    for _ in range(20):
        g = random_connected_graph(rng, rng.randint(2, 40), rng.randint(0, 20))
        assert wk(g, 1) == g.m


def test_wiener_polynomial_frozen():
    assert wiener_polynomial(path_graph(2)).coeffs == (0, 1)
    assert wiener_polynomial(path_graph(4)).coeffs == (0, 3, 2, 1)
    assert wiener_polynomial(cycle_graph(6)).coeffs == (0, 6, 6, 3)
    assert wiener_polynomial(path_graph(1)).coeffs == (0,)


def test_wiener_polynomial_consistency():
    rng = random.Random(17)
    for _ in range(25):
        g = random_connected_graph(rng, rng.randint(1, 35), rng.randint(0, 15))
        poly = wiener_polynomial(g)
        assert poly.coeffs[0] == 0
        assert poly.pair_total() == g.n * (g.n - 1) // 2
        assert poly.wiener() == wiener(g)
        assert poly.coefficient(1) == g.m
        for k in range(1, len(poly.coeffs)):
            assert poly.coefficient(k) == wk(g, k)
        assert poly.coefficient(poly.degree() + 1) == 0


def test_twk_basic():
    assert twk(star_graph(4), 1) == 6
    assert twk(path_graph(5), 2) == 4
    assert twk(path_graph(5), 1) == 4
    assert twk(path_graph(2), 1) == 1
    assert twk(path_graph(3), 7) == 0
    assert twk(star_graph(5), 0) == 0
    with pytest.raises(ValueError):
        twk(path_graph(3), -1)


def test_twk_regular_graph_equals_wiener():
    # in a k-regular graph every vertex counts, so the sum is the full one
    for g, k in [(cycle_graph(8), 2), (hypercube_graph(3), 3), (complete_graph(5), 4)]:
        assert twk(g, k) == wiener(g)
        assert twk(g, k + 1) == 0


def test_zagreb_frozen():
    for g, want in [(path_graph(5), (14, 12)), (star_graph(4), (12, 9)), (path_graph(2), (2, 1))]:
        assert zagreb(g.degrees(), g.edges()) == want


def test_zagreb_on_disconnected_is_fine():
    g = from_edge_list(4, [(0, 1), (2, 3)])
    assert zagreb(g.degrees(), g.edges()) == (4, 2)


def test_identities_on_trees():
    # W_1 = m, W_2 = M_1/2 - m, W_3 = M_2 - M_1 + m for every tree
    rng = random.Random(23)
    for _ in range(60):
        t = random_tree(rng.randint(2, 60), rng)
        m1, m2 = zagreb(t.degrees(), t.edges())
        poly = wiener_polynomial(t)
        assert poly.coefficient(1) == t.m
        assert poly.coefficient(2) == m1 // 2 - t.m
        assert m1 % 2 == 0
        assert poly.coefficient(3) == m2 - m1 + t.m


def test_identities_fail_off_trees():
    g = cycle_graph(4)
    assert wk(g, 2) != zagreb(g.degrees(), g.edges())[0] // 2 - g.m


def test_wk_star_frozen():
    assert wk_star(path_graph(4), 2) == 5
    assert wk_star(cycle_graph(6), 2) == 12
    with pytest.raises(ValueError):
        wk_star(path_graph(3), 0)


def test_wk_star_cumulative():
    rng = random.Random(31)
    for _ in range(15):
        g = random_connected_graph(rng, rng.randint(2, 30), rng.randint(0, 10))
        poly = wiener_polynomial(g)
        for k in range(1, poly.degree() + 2):
            assert wk_star(g, k) == sum(poly.coefficient(j) for j in range(1, k + 1))
        assert wk_star(g, poly.degree()) == g.n * (g.n - 1) // 2


def test_twk_star_frozen():
    assert twk_star(path_graph(4), 1) == 3
    assert twk_star(path_graph(4), 2) == 10
    assert twk_star(star_graph(4), 1) == 6


def test_twk_star_dominates_summed_twk():
    # pairs with equal degree <= k are a subset of pairs with both degrees <= k
    rng = random.Random(37)
    for _ in range(15):
        g = random_connected_graph(rng, rng.randint(2, 25), rng.randint(0, 8))
        top = max(g.degrees())
        for k in range(1, top + 1):
            assert twk_star(g, k) >= sum(twk(g, j) for j in range(1, k + 1))
        assert twk_star(g, top) == wiener(g)


def test_path_shift_increases_wiener():
    # lengthening the longer pendent path at the expense of the shorter
    # strictly increases the distance sum
    base = cycle_graph(5)

    def with_paths(p, q):
        edges = list(base.edges())
        nxt = 5
        prev = 0
        for _ in range(p):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
        prev = 2
        for _ in range(q):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
        return from_edge_list(nxt, edges)

    for p in range(1, 5):
        for q in range(1, p + 1):
            assert wiener(with_paths(p + 1, q - 1)) > wiener(with_paths(p, q))


def test_tree_wiener_bounds_enumerated():
    for n in range(2, 11):
        lo = (n - 1) * (n - 1)
        hi = (n + 1) * n * (n - 1) // 6
        for t in all_free_trees(n):
            assert lo <= wiener(t) <= hi


def count_work(monkeypatch):
    """Wrap the oracle's BFS and sweep; returns the lists their calls
    append to (BFS sources, and the source count of each sweep)."""
    import distindex.graphs
    import distindex.indices

    searches, sweeps = [], []
    search = distindex.graphs.bfs_distances
    sweep = distindex.indices._sweep

    def counting_search(g, source):
        searches.append(source)
        return search(g, source)

    def counting_sweep(g, sources, *args, **kwargs):
        sweeps.append(len(sources))
        return sweep(g, sources, *args, **kwargs)

    monkeypatch.setattr(distindex.graphs, "bfs_distances", counting_search)
    monkeypatch.setattr(distindex.indices, "bfs_distances", counting_search)
    monkeypatch.setattr(distindex.indices, "_sweep", counting_sweep)
    return searches, sweeps


@pytest.mark.parametrize("name", ["coronene3", "q5"])
def test_pair_counts_run_no_bfs(monkeypatch, name):
    """The full polynomial and W run no BFS.  W_k and W_k* stop the
    sweep at radius k and then run the one connectivity BFS, from vertex
    0, when k is below the diameter; at or past it the balls fill first
    and no BFS runs."""
    g = {"coronene3": gen_coronene(3).graph, "q5": hypercube_graph(5)}[name]
    searches, _ = count_work(monkeypatch)
    poly = wiener_polynomial(g)
    assert wiener(g) == poly.wiener()
    assert searches == []
    for k in range(1, poly.degree() + 2):
        searches.clear()
        assert wk(g, k) == poly.coefficient(k)
        assert wk_star(g, k) == sum(poly.coeffs[:k + 1])
        assert searches == ([0, 0] if k < poly.degree() else [])


def capped_read_graphs() -> dict[str, Graph]:
    rng = random.Random(83)
    graphs = {f"tree-{n}": random_tree(n, rng) for n in (2, 9, 30, 60)}
    graphs.update({f"graph-{n}-{e}": random_connected_graph(rng, n, e) for n, e in ((12, 3), (25, 10), (40, 2))})
    graphs.update({f"c{n}": cycle_graph(n) for n in (3, 4, 11, 20)})
    graphs.update({f"q{d}": hypercube_graph(d) for d in (1, 3, 5)})
    graphs.update({f"coronene{k}": gen_coronene(k).graph for k in (1, 2, 3)})
    graphs["k1"] = from_edge_list(1, [])
    return graphs


CAPPED_READ_GRAPHS = capped_read_graphs()


@pytest.mark.parametrize("sweep_bits", [distindex.indices._SWEEP_BITS, 7])
@pytest.mark.parametrize("name", sorted(CAPPED_READ_GRAPHS))
def test_capped_polynomial_is_the_full_one_cut_at_top(monkeypatch, name, sweep_bits):
    """wiener_polynomial(g, top) is the full polynomial cut at top, for
    every top from 1 to past the diameter, in one block of sources or in
    blocks of 7 // n (at least one); W_k and W_k* read the same counts.
    A top of 0 or below keeps coeffs[0] alone, as tree_polynomial does."""
    monkeypatch.setattr(distindex.indices, "_SWEEP_BITS", sweep_bits)
    g = CAPPED_READ_GRAPHS[name]
    full = reference_wiener_polynomial(g)
    assert wiener_polynomial(g) == full
    assert wiener_polynomial(g, 0).coeffs == wiener_polynomial(g, -1).coeffs == (0,)
    for top in range(1, full.degree() + 3):
        assert wiener_polynomial(g, top).coeffs == full.coeffs[:top + 1]
        assert wk(g, top) == full.coefficient(top)
        assert wk_star(g, top) == sum(full.coeffs[:top + 1])


@pytest.mark.parametrize("sweep_bits", [distindex.indices._SWEEP_BITS, 7])
@pytest.mark.parametrize("first", [3, 6, 9])
def test_capped_reads_refuse_a_disconnected_graph(monkeypatch, first, sweep_bits):
    """Two paths, of `first` and of 7 vertices (diameters first - 1 and
    6): W_k and W_k* raise DisconnectedError for every k, below the
    diameters (the limit stops the sweep and the BFS from vertex 0 finds
    the other path unreached) and at or past them (a round grows no
    ball)."""
    monkeypatch.setattr(distindex.indices, "_SWEEP_BITS", sweep_bits)
    n = first + 7
    g = from_edge_list(n, [(v, v + 1) for v in range(n - 1) if v != first - 1])
    for k in range(1, n + 1):
        for read in (wk, wk_star, wiener_polynomial):
            with pytest.raises(DisconnectedError, match="^graph is not connected$"):
                read(g, k)


def test_capped_sweep_runs_k_rounds(monkeypatch):
    """W_5* of a 4000-vertex path sweeps 5 rounds, not the 3,999 of the
    full polynomial: the doubled counts the sweep returns gain one entry
    per round it runs."""
    rounds = []
    sweep = distindex.indices._sweep

    def counting(g, *args, **kwargs):
        doubled, sums = sweep(g, *args, **kwargs)
        rounds.append(len(doubled) - 1)
        return doubled, sums

    monkeypatch.setattr(distindex.indices, "_sweep", counting)
    assert wk_star(path_graph(4000), 5) == 5 * 4000 - 15
    assert rounds == [5]


def test_index_report_sweeps_once(monkeypatch):
    searches, sweeps = count_work(monkeypatch)
    rep = index_report(gen_coronene(2).graph, star_k=3)
    assert sweeps == [24]
    assert searches == []
    assert rep.wk_star == sum(rep.poly[1:4])
    assert dict(rep.twk_by_degree) == {2: 300, 3: 174}
    assert rep.twk_star == rep.wiener


def test_twk_sweep_branch_runs_one_bfs(monkeypatch):
    """Coronene k = 3 has 36 degree-3 vertices among 54: one sweep from
    them, after the single connectivity BFS from the first of them."""
    g = gen_coronene(3).graph
    first = g.degrees().index(3)
    searches, sweeps = count_work(monkeypatch)
    assert twk(g, 3) == coronene_tw3(3)
    assert searches == [first]
    assert sweeps == [36]


@pytest.mark.parametrize(
    "g, k, want",
    [
        (star_graph(10), 9, 0),
        (from_edge_list(10, [(0, 1)] + [(0, v) for v in range(2, 6)] + [(1, v) for v in range(6, 10)]), 5, 1),
    ],
    ids=["star-centre", "double-star-centres"],
)
def test_one_or_two_members_need_no_sweep(monkeypatch, g, k, want):
    """The connectivity BFS from the first member already holds the
    distance sum of one or two members, so no sweep runs, even from
    centres of eccentricity 1 and 2, where a sweep round is cheap."""
    searches, sweeps = count_work(monkeypatch)
    assert twk(g, k) == want
    assert searches == [0]
    assert sweeps == []


def test_twk_bfs_branch_on_grid(monkeypatch):
    """The 20 x 30 grid has only its 4 corners of degree 2: one BFS per
    corner is cheaper than a sweep.  Vertex 0 is a corner, so its
    connectivity BFS is reused, and the last corner needs no BFS."""
    g = from_edge_list(
        600,
        [(30 * i + j, 30 * i + j + 1) for i in range(20) for j in range(29)]
        + [(30 * i + j, 30 * i + j + 30) for i in range(19) for j in range(30)],
    )
    searches, sweeps = count_work(monkeypatch)
    # corner pairs: two at 29, two at 19, two at 48
    assert twk(g, 2) == 2 * (29 + 19 + 48)
    assert searches == [0, 29, 570]
    assert sweeps == []


@pytest.mark.parametrize("legs", [0, 1, 2, 3, 5])
def test_restricted_sum_roots_its_first_bfs_at_a_member(monkeypatch, legs):
    """A caterpillar whose vertex 0 is a leaf: spine 1..40, with a leg
    on `legs` spine vertices, which are then its degree-3 vertices.  Few
    members take the BFS branch, and its connectivity BFS starts at the
    first member, so that row is summed too: max(1, |members| - 1) BFS
    runs in all, from vertex 0 only when there is no member."""
    spine = list(range(1, 41))
    feet = [5, 12, 20, 27, 33][:legs]
    edges = [(0, 1)] + list(zip(spine, spine[1:])) + [(v, 41 + i) for i, v in enumerate(feet)]
    g = from_edge_list(41 + legs, edges)
    members = [v for v in range(g.n) if g.degree(v) == 3]
    assert members == feet
    searches, sweeps = count_work(monkeypatch)
    assert twk(g, 3) == reference_twk(g, 3)
    assert searches == (members[:-1] if legs > 1 else members or [0])
    assert len(searches) == max(1, legs - 1)
    assert sweeps == []


def test_index_report():
    rep = index_report(path_graph(4), star_k=2)
    assert rep.wiener == 10
    assert rep.poly == (0, 3, 2, 1)
    assert dict(rep.twk_by_degree) == {1: 3, 2: 1}
    assert (rep.m1, rep.m2) == (10, 8)
    assert rep.wk_star == 5 and rep.twk_star == 10
    d = rep.as_dict()
    assert d["n"] == 4 and d["m"] == 3
    assert d["twk_by_degree"] == {"1": 3, "2": 1}
    plain = index_report(path_graph(4))
    assert plain.wk_star is None and "wk_star" not in plain.as_dict()


def test_index_report_internally_consistent():
    rng = random.Random(41)
    for _ in range(10):
        g = random_connected_graph(rng, rng.randint(2, 20), rng.randint(0, 6))
        rep = index_report(g)
        assert rep.wiener == sum(k * c for k, c in enumerate(rep.poly))
        assert sum(rep.poly) == math.comb(g.n, 2)
        for k, value in rep.twk_by_degree:
            assert value == twk(g, k)


#: Graphs at the edges of the sweep's round rule (a round copies each
#: vertex's first neighbour's ball and ORs in its other arcs, two per
#: step): an odd count of those other arcs (P3: one; K_{1,3} with a leaf
#: extended: three), leaves next to a degree-3 vertex (the extended
#: K_{1,3}, and a triangle with a pendant vertex), one vertex, and an
#: even count (K_{1,3}, C6, K_{2,3}).
ROUND_RULE_GRAPHS = {
    "p3": path_graph(3),
    "k13-extended": from_edge_list(5, [(0, 1), (0, 2), (0, 3), (3, 4)]),
    "triangle-pendant": from_edge_list(4, [(0, 1), (0, 2), (1, 2), (2, 3)]),
    "k1": from_edge_list(1, []),
    "k13": star_graph(4),
    "c6": cycle_graph(6),
    "k23": from_edge_list(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)]),
}


@pytest.mark.parametrize("sweep_bits", [distindex.indices._SWEEP_BITS, 1, 7])
@pytest.mark.parametrize("name", sorted(ROUND_RULE_GRAPHS))
def test_sweep_round_rule_against_bfs(monkeypatch, name, sweep_bits):
    """The sweep from every vertex, index_report's degree spans, a
    restricted sweep per degree class and, on a bipartite graph, the
    verifier's cut labels agree with one BFS per vertex, with all sources
    in one block or a budget of 7 bits (7 // n sources a block, at least
    one) or 1 bit (one source a block)."""
    monkeypatch.setattr(distindex.indices, "_SWEEP_BITS", sweep_bits)
    g = ROUND_RULE_GRAPHS[name]
    rows = [bfs_distances(g, v) for v in range(g.n)]
    poly = reference_wiener_polynomial(g)

    doubled, sums = _sweep(g, range(g.n), ())
    assert doubled == [2 * c for c in poly.coeffs] and sums == []
    if is_bipartite(g):
        labels = _cut_labels(g, rows[0])
        for x, y in g.edges():
            if rows[0][x] & 1:
                x, y = y, x
            want = sum((rows[x][w] < rows[y][w]) << w for w in range(g.n))
            assert labels[x] ^ labels[y] == want

    rep = index_report(g, star_k=2)
    assert rep.poly == poly.coeffs
    assert dict(rep.twk_by_degree) == {k: reference_twk(g, k) for k in set(g.degrees())}
    assert rep.twk_star == reference_twk_star(g, 2)

    for k in set(g.degrees()):
        members = [v for v in range(g.n) if g.degree(v) == k]
        _, (doubled,) = _sweep(g, members, [(0, len(members))])
        assert doubled == 2 * reference_twk(g, k)


@pytest.mark.parametrize("sweep_bits", [distindex.indices._SWEEP_BITS, 1, 7])
@pytest.mark.parametrize(
    "edges, n", [([(0, 1)], 3), ([(1, 2)], 3), ([(0, 1), (1, 2), (2, 3)], 5), ([], 2)]
)
def test_isolated_vertex_disconnects_every_sweep_mode(monkeypatch, edges, n, sweep_bits):
    """An isolated vertex keeps its own ball, which no round grows: the
    sweep from every vertex, each index built on the sweep and the edge
    classes raise DisconnectedError."""
    monkeypatch.setattr(distindex.indices, "_SWEEP_BITS", sweep_bits)
    g = from_edge_list(n, edges)
    with pytest.raises(DisconnectedError):
        _sweep(g, range(n), ())
    with pytest.raises(DisconnectedError):
        theta_classes(g)
    with pytest.raises(DisconnectedError):
        index_report(g, star_k=1)
    with pytest.raises(DisconnectedError):
        wiener_polynomial(g)
    with pytest.raises(DisconnectedError):
        twk(g, 0)
    with pytest.raises(DisconnectedError):
        twk_star(g, 1)


_RESTRICTED_DISCONNECTED = """
import distindex.indices
from distindex import DisconnectedError, from_edge_list
from distindex.indices import _sweep

for bits in (distindex.indices._SWEEP_BITS, 1):
    distindex.indices._SWEEP_BITS = bits
    for n, edges, sources in (
        (3, [(0, 1)], [0, 2]),
        (3, [(0, 1)], [2, 0]),
        (2, [], [0, 1]),
        (6, [(0, 1), (1, 2), (3, 4), (4, 5)], [0, 5, 1]),
    ):
        try:
            _sweep(from_edge_list(n, edges), sources, [(0, len(sources))])
        except DisconnectedError as exc:
            print(exc)
        else:
            print("no error")
"""


def test_restricted_sweep_ends_on_a_disconnected_graph():
    """A sweep from fewer sources than vertices raises DisconnectedError
    once a span is still live at round n, past every distance of a
    connected graph, rather than running on.  It runs in a child so that
    a sweep that never ends fails the test by timeout."""
    proc = subprocess.run(
        [sys.executable, "-c", _RESTRICTED_DISCONNECTED],
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "graph is not connected\n" * 8


@pytest.mark.parametrize("n", range(2, 9))
def test_restricted_sweep_reaches_distance_n_minus_one(n):
    """The ends of a path sit at distance n - 1, the largest a connected
    graph has, and the restricted sweep counts them without raising."""
    _, (doubled,) = _sweep(path_graph(n), [0, n - 1], [(0, 2)])
    assert doubled == 2 * (n - 1)


def test_distance_indices_build_no_edge_list(monkeypatch):
    """The sweep reads the adjacency lists, so neither the full sweep
    nor the restricted one (coronene k = 3, TW_3 and TW_3*: the sweep
    branch; the 2 x 30 grid's corners: the BFS branch) calls
    Graph.edges."""
    calls = []
    edges = Graph.edges

    def counting(g):
        calls.append(g.n)
        return edges(g)

    coronene = gen_coronene(3).graph
    grid = from_edge_list(
        60,
        [(j, j + 1) for j in range(29)]
        + [(j + 30, j + 31) for j in range(29)]
        + [(j, j + 30) for j in range(30)],
    )
    monkeypatch.setattr(Graph, "edges", counting)
    assert wiener_polynomial(coronene).wiener() == wiener(coronene)
    assert twk(coronene, 3) == coronene_tw3(3)
    assert twk_star(coronene, 3) == wiener(coronene)
    assert twk(grid, 2) == 2 * (29 + 1 + 30)
    assert twk_star(grid, 2) == reference_twk_star(grid, 2)
    assert calls == []

import random
import tracemalloc
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distindex import (
    MAX_GRAPH_ORDER,
    UNREACHABLE,
    GraphError,
    NotATreeError,
    RootedTree,
    TreeSpec,
    bfs_distances,
    cycle_graph,
    from_edge_list,
    free_level_sequences,
    gen_tree,
    level_sequence_parents,
    random_tree,
    tree_polynomial,
    tree_twk,
    tree_wiener,
    tree_wk,
    tree_zagreb,
    twk,
    wiener,
    wiener_polynomial,
    wiener_polynomial_linear,
    wk_linear,
    zagreb,
)
from helpers import (
    level_sequence_edges,
    path_graph,
    rooted_at,
    rooted_level_sequences,
    star_graph,
    wk3_from_zagreb,
)


def test_rooted_tree_build():
    # leaves are stripped first in, first out, each XOR naming its parent
    t = RootedTree.build(4, [[0, 1, 1, 2, 2, 3]])
    assert list(t.order) == [0, 3, 1, 2]
    assert list(t.parent) == [1, 2, 2, 2]
    assert t.root == 2
    star = RootedTree.of(star_graph(6))
    assert list(star.order) == [1, 2, 3, 4, 5, 0]
    assert list(star.parent) == [0] * 6
    assert RootedTree.build(1, [[]]) == RootedTree(parent=[0], order=[0])
    assert RootedTree.build(1, []) == RootedTree(parent=[0], order=[0])
    assert RootedTree.build(2, [[1, 0]]).order == [0, 1]
    assert (t.leaves, star.leaves, RootedTree.build(2, [[1, 0]]).leaves) == (2, 5, 1)
    # the same tree in chunks of whole pairs, one of them empty
    assert RootedTree.build(4, [[0, 1], [], [1, 2, 2, 3]]) == t


def test_rooted_tree_leaf_prefix():
    # order[:leaves] are exactly the degree-1 vertices other than the root
    rng = random.Random(59)
    for n in [1, 2, 3] + [rng.randint(4, 60) for _ in range(60)]:
        g = random_tree(n, rng) if n > 1 else from_edge_list(1, [])
        t = RootedTree.of(g)
        want = [v for v in range(n) if g.degree(v) == 1 and v != t.root]
        assert sorted(t.order[:t.leaves]) == want


def test_rooted_tree_rejects_non_trees():
    with pytest.raises(NotATreeError):
        RootedTree.of(cycle_graph(4))


def test_rooted_tree_rejects_disconnected_with_tree_edge_count():
    # a triangle plus an isolated vertex has m = n - 1 but is no tree
    g = from_edge_list(4, [(0, 1), (1, 2), (0, 2)])
    with pytest.raises(NotATreeError):
        RootedTree.of(g)
    with pytest.raises(NotATreeError):
        wk_linear(RootedTree.of(g), 1)


@pytest.mark.parametrize(
    "n, chunks",
    [
        (3, [[0, 1, 1, -1]]),  # a negative end, which would index from the back
        (3, [[0, 1], [1, -1]]),  # the same in a later chunk
        (3, [[0, 1, 1, 3]]),
        (3, [[0, 0, 1, 2]]),  # a loop
        (3, [[0, 1, 0, 1]]),  # a repeat
        (4, [[0, 1, 1, 2, 0, 2]]),  # a triangle and an isolated vertex
        (5, [[0, 1, 2, 3, 3, 4, 4, 2]]),  # an edge and a triangle
        (6, [[0, 1, 2, 3, 3, 4, 4, 5, 5, 2]]),  # an edge and a 4-cycle
        (4, [[0, 1, 1, 2]]),  # too few edges
        (2, [[0, 1, 0, 1]]),  # too many
        (2, [[0, 1], [0, 5]]),  # too many, and out of range past the count
        (1, [[0, 0]]),
        (MAX_GRAPH_ORDER + 1, [[]]),
    ],
)
def test_strip_rejects_every_non_tree(n, chunks):
    with pytest.raises(NotATreeError):
        RootedTree.build(n, chunks)


def graph_is_tree(n, ends):
    try:
        g = from_edge_list(n, zip(ends[::2], ends[1::2]))
    except GraphError:
        return False
    return UNREACHABLE not in bfs_distances(g, 0)


def test_strip_certifies_exactly_the_trees():
    # n - 1 random pairs over -1..n, so loops, repeats, cycles and
    # out-of-range ends all occur; the strip must accept just the trees,
    # and give the same tree whether the ends come as one chunk or cut
    # into chunks of whole pairs at random
    rng = random.Random(53)
    accepted = 0
    for _ in range(4000):
        n = rng.randint(1, 7)
        ends = [rng.randint(-1, n) if rng.random() < 0.05 else rng.randrange(n)
                for _ in range(2 * (n - 1))]
        cuts = sorted(rng.randrange(0, len(ends) + 1, 2) for _ in range(rng.randint(0, 3)))
        chunks = [ends[a:b] for a, b in zip([0] + cuts, cuts + [len(ends)])]
        want = graph_is_tree(n, ends)
        try:
            t = RootedTree.build(n, [ends])
        except NotATreeError:
            assert not want, (n, ends)
            with pytest.raises(NotATreeError):
                RootedTree.build(n, chunks)
            continue
        assert want, (n, ends)
        assert RootedTree.build(n, chunks) == t
        accepted += 1
        g = from_edge_list(n, zip(ends[::2], ends[1::2]))
        assert sorted(t.order) == list(range(n))
        assert t.parent[t.root] == t.root
        seen = set()
        for v in t.order[:-1]:
            assert t.parent[v] in g.adj[v] and t.parent[v] not in seen
            seen.add(v)
    assert accepted > 500


def test_wiener_polynomial_linear_small():
    assert wiener_polynomial_linear(RootedTree.of(path_graph(1))).coeffs == (0,)
    assert wiener_polynomial_linear(RootedTree.of(path_graph(2))).coeffs == (0, 1)
    assert wiener_polynomial_linear(RootedTree.of(path_graph(4))).coeffs == (0, 3, 2, 1)
    assert wiener_polynomial_linear(RootedTree.of(star_graph(5))).coeffs == (0, 4, 6)


def test_wiener_polynomial_linear_matches_oracle():
    rng = random.Random(3)
    for _ in range(60):
        g = random_tree(rng.randint(1, 80), rng)
        t = rooted_at(g, rng.randrange(g.n))
        assert wiener_polynomial_linear(t) == wiener_polynomial(g)


def test_tree_polynomial_clamps_top_to_the_order():
    # no pair is farther apart than n - 1, so a larger top builds no
    # wider rows: unclamped, top = 10**7 peaked at 30.5 MiB here
    t = RootedTree.of(path_graph(5))
    want = tree_polynomial(t.parent, t.order, 4, t.leaves).coeffs
    tracemalloc.start()
    try:
        got = tree_polynomial(t.parent, t.order, 10**7, t.leaves).coeffs
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == want == (0, 4, 3, 2, 1)
    assert peak < 1 << 20


def test_wk_linear_small():
    assert wk_linear(RootedTree.of(path_graph(5)), 3) == 2
    assert wk_linear(RootedTree.of(star_graph(6)), 2) == 10
    assert wk_linear(RootedTree.of(path_graph(2)), 1) == 1
    assert wk_linear(RootedTree.of(path_graph(5)), 9) == 0
    assert wk_linear(RootedTree.of(path_graph(5)), 10**12) == 0


def test_wk_linear_past_the_order_builds_no_rows():
    # k >= n reads 0 without the whole polynomial the clamp of top
    # would leave to build: its row list alone is 8n bytes
    t = RootedTree.of(path_graph(3000))
    tracemalloc.start()
    try:
        got = [wk_linear(t, k) for k in (3000, 10**12)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == [0, 0]
    assert peak < 1 << 12


def test_wk_linear_k_validation():
    with pytest.raises(ValueError):
        wk_linear(RootedTree.of(path_graph(4)), 0)


def test_wk_linear_matches_oracle():
    rng = random.Random(7)
    for _ in range(40):
        g = random_tree(rng.randint(2, 80), rng)
        poly = wiener_polynomial(g)
        for k in range(1, 8):
            assert wk_linear(RootedTree.of(g), k) == poly.coefficient(k)


def test_wk_linear_root_independent():
    rng = random.Random(9)
    for _ in range(10):
        g = random_tree(rng.randint(2, 40), rng)
        k = rng.randint(1, 6)
        values = {wk_linear(rooted_at(g, r), k) for r in range(g.n)}
        assert len(values) == 1


def test_doubled_counts_even():
    # every doubled count of a real tree is even, whatever the root
    rng = random.Random(19)
    for _ in range(20):
        g = random_tree(rng.randint(2, 40), rng)
        t = rooted_at(g, rng.randrange(g.n))
        poly = wiener_polynomial(g)
        assert tree_polynomial(t.parent, t.order) == poly
        for k in range(1, 6):
            assert tree_polynomial(t.parent, t.order, k).coeffs == poly.coeffs[: k + 1]
    # an order that reads vertex 1 before its child 2 leaves the doubled
    # count for k = 2 odd
    with pytest.raises(RuntimeError):
        tree_polynomial([0, 0, 1], [1, 2, 0], 2)
    with pytest.raises(RuntimeError):
        tree_wk([0, 0, 1], [1, 2, 0], 2)


def test_wk_linear_degree_identities():
    rng = random.Random(29)
    for _ in range(15):
        g = random_tree(rng.randint(2, 60), rng)
        assert wk_linear(RootedTree.of(g), 1) == g.m
        assert wk_linear(RootedTree.of(g), 2) == zagreb(g.degrees(), g.edges())[0] // 2 - g.m


def test_wk3_from_zagreb():
    assert wk3_from_zagreb(path_graph(5)) == 2
    assert wk3_from_zagreb(star_graph(6)) == 0
    db = gen_tree(TreeSpec.double_broom(3, 4, 4))
    assert wk3_from_zagreb(db) == 16
    with pytest.raises(NotATreeError):
        wk3_from_zagreb(cycle_graph(5))


def test_wk3_from_zagreb_matches_other_routes():
    rng = random.Random(43)
    for _ in range(25):
        g = random_tree(rng.randint(2, 70), rng)
        want = wiener_polynomial(g).coefficient(3)
        assert wk3_from_zagreb(g) == want
        assert wk_linear(RootedTree.of(g), 3) == want


def test_deep_path_no_recursion_limit():
    # explicit stacks must survive a path far deeper than the default
    # interpreter recursion limit
    g = path_graph(50_000)
    assert wk_linear(RootedTree.of(g), 5) == 50_000 - 5


def check_kernels(g, parent, order):
    poly = wiener_polynomial(g)
    assert tree_polynomial(parent, order) == poly
    degrees = g.degrees()
    for k in range(1, 5):
        assert tree_polynomial(parent, order, k).coeffs == poly.coeffs[: k + 1]
        assert tree_twk(parent, order, k) == (twk(g, k), degrees.count(k))
    # tree_wk reads two digits of the same row pass, past the order too
    for k in range(1, g.n + 2):
        assert tree_wk(parent, order, k) == tree_polynomial(parent, order, k).coefficient(k)
    assert tree_wiener(parent, order) == wiener(g)


def check_level_sequence_kernels(seq):
    g = from_edge_list(len(seq), level_sequence_edges(seq))
    check_kernels(g, level_sequence_parents(seq), range(len(seq) - 1, -1, -1))


def test_level_sequence_counts_match_oracle_on_every_free_tree():
    for n in range(1, 13):
        for seq in free_level_sequences(n):
            check_level_sequence_kernels(seq)


def test_level_sequence_counts_match_oracle_at_every_root():
    # the kernels need a children-first order, not a centre at the root
    for n in range(1, 10):
        for seq in rooted_level_sequences(n):
            check_level_sequence_kernels(seq)
    # and parent arrays hung from every root, and the strip's
    rng = random.Random(47)
    for _ in range(4):
        g = random_tree(rng.randint(2, 30), rng)
        for r in range(g.n):
            t = rooted_at(g, r)
            check_kernels(g, t.parent, t.order)
        t = RootedTree.of(g)
        check_kernels(g, t.parent, t.order)


def test_level_sequence_parents():
    assert level_sequence_parents([1]) == [0]
    assert level_sequence_parents([1, 2, 3, 2, 3, 3]) == [0, 0, 1, 0, 3, 3]
    for n in range(1, 9):
        for seq in rooted_level_sequences(n):
            parent = level_sequence_parents(seq)
            assert all(parent[i] < i and seq[parent[i]] == seq[i] - 1 for i in range(1, n))


def tree_edges(kind, n, rng):
    """Edges of a random tree, path, caterpillar or broom on n vertices
    (before relabelling); paths and broom handles give chains longer than
    small tops."""
    if kind == "random":
        return random_tree(n, rng).edges()
    if kind == "path":
        return [(v, v + 1) for v in range(n - 1)]
    if kind == "caterpillar":
        spine = rng.randint(1, n)
        feet = [rng.randrange(spine) for _ in range(n - spine)]
        return [(v, v + 1) for v in range(spine - 1)] + [
            (spine + i, s) for i, s in enumerate(feet)
        ]
    # a broom: a handle with the remaining vertices hung on one or both ends
    handle = rng.randint(1, n)
    ends = (0, handle - 1) if rng.random() < 0.5 else (handle - 1,)
    return [(v, v + 1) for v in range(handle - 1)] + [
        (v, rng.choice(ends)) for v in range(handle, n)
    ]


@st.composite
def shaped_trees(draw):
    kind = draw(st.sampled_from(["random", "path", "caterpillar", "broom"]))
    n = draw(st.integers(1, 70))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    edges = tree_edges(kind, n, rng)
    perm = list(range(n))
    rng.shuffle(perm)
    edges = [(perm[u], perm[v]) for u, v in edges]
    rng.shuffle(edges)
    return from_edge_list(n, edges), rng.randrange(n)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(shaped_trees())
def test_tree_polynomial_leaf_prefix_and_chain_rows(gr):
    """With and without the leaf prefix, at every top up to the diameter
    plus one and at None, the kernel gives the oracle's counts."""
    g, root = gr
    poly = wiener_polynomial(g)
    t = RootedTree.of(g)
    hung = rooted_at(g, root)
    diameter = len(poly.coeffs) - 1
    for top in [None, *range(1, diameter + 2)]:
        # the oracle has no zero coefficient up to the diameter
        want = poly.coeffs[: None if top is None else top + 1]
        assert tree_polynomial(t.parent, t.order, top, t.leaves).coeffs == want
        assert tree_polynomial(t.parent, t.order, top).coeffs == want
        assert tree_polynomial(hung.parent, hung.order, top).coeffs == want
    for k in range(1, diameter + 2):
        want = poly.coefficient(k)
        assert tree_wk(t.parent, t.order, k, t.leaves) == want
        assert tree_wk(t.parent, t.order, k) == want
        assert tree_wk(hung.parent, hung.order, k) == want
    assert tree_wiener(t.parent, t.order) == tree_wiener(hung.parent, hung.order) == wiener(g)


@pytest.mark.parametrize("n", [1, 2, 3] + [(1 << b) + d for b in (8, 10, 12) for d in (-1, 0)])
def test_tree_polynomial_digit_width_on_stars(n):
    """A star's centre squares to (n - 1)**2 in digit 2, which fits the
    2 * bit_length(n)-bit digits with least room when n = 2**b - 1: one
    bit fewer would carry there."""
    want = (0, n - 1, comb(n - 1, 2))[: min(n, 3)]
    g = star_graph(n)
    t = RootedTree.of(g)
    # the centre-first level sequence of a star, read leaves first
    parent, order = [0] * n, range(n - 1, -1, -1)
    for top in (None, 1, 2, 3):
        cut = want[: None if top is None else top + 1]
        assert tree_polynomial(t.parent, t.order, top, t.leaves).coeffs == cut
        assert tree_polynomial(t.parent, t.order, top).coeffs == cut
        assert tree_polynomial(parent, order, top).coeffs == cut
    for k in (1, 2, 3):
        count = want[k] if k < len(want) else 0
        assert tree_wk(t.parent, t.order, k, t.leaves) == count
        assert tree_wk(t.parent, t.order, k) == count
        assert tree_wk(parent, order, k) == count
    assert wiener_polynomial_linear(t).coeffs == want
    assert tree_wiener(t.parent, t.order) == tree_wiener(parent, order) == (n - 1) ** 2


@settings(derandomize=True, deadline=None, max_examples=100)
@given(shaped_trees())
def test_tree_zagreb_matches_graph(gr):
    g, root = gr
    want = zagreb(g.degrees(), g.edges())
    assert tree_zagreb(RootedTree.of(g)) == want
    assert tree_zagreb(rooted_at(g, root)) == want

import random

import pytest

from distindex import (
    NotATreeError,
    RootedTree,
    TreeSpec,
    cycle_graph,
    from_edge_list,
    free_level_sequences,
    gen_tree,
    level_sequence_edges,
    level_sequence_polynomial,
    level_sequence_twk,
    path_graph,
    random_tree,
    rooted_level_sequences,
    star_graph,
    twk,
    wiener_polynomial,
    wiener_polynomial_linear,
    wk_linear,
    wk3_from_zagreb,
    zagreb_m1,
)


def test_rooted_tree_build():
    t = RootedTree.build(path_graph(4))
    assert t.root == 0
    assert t.levels == (1, 2, 3, 4)
    assert RootedTree.build(path_graph(4), 1).levels in ((1, 2, 2, 3), (1, 2, 3, 2))
    assert RootedTree.build(star_graph(6)).levels == (1, 2, 2, 2, 2, 2)
    assert RootedTree.build(star_graph(6), 3).levels == (1, 2, 3, 3, 3, 3)


def test_rooted_tree_rejects_non_trees():
    with pytest.raises(NotATreeError):
        RootedTree.build(cycle_graph(4))


def test_rooted_tree_rejects_disconnected_with_tree_edge_count():
    # a triangle plus an isolated vertex has m = n - 1 but is no tree
    g = from_edge_list(4, [(0, 1), (1, 2), (0, 2)])
    with pytest.raises(NotATreeError):
        RootedTree.build(g)
    with pytest.raises(NotATreeError):
        wk_linear(g, 1)


def test_wiener_polynomial_linear_small():
    assert wiener_polynomial_linear(path_graph(1)).coeffs == (0,)
    assert wiener_polynomial_linear(path_graph(2)).coeffs == (0, 1)
    assert wiener_polynomial_linear(path_graph(4)).coeffs == (0, 3, 2, 1)
    assert wiener_polynomial_linear(star_graph(5)).coeffs == (0, 4, 6)


def test_wiener_polynomial_linear_matches_oracle():
    rng = random.Random(3)
    for _ in range(60):
        g = random_tree(rng.randint(1, 80), rng)
        t = RootedTree.build(g, rng.randrange(g.n))
        assert wiener_polynomial_linear(t) == wiener_polynomial(g)


def test_wk_linear_small():
    assert wk_linear(path_graph(5), 3) == 2
    assert wk_linear(star_graph(6), 2) == 10
    assert wk_linear(path_graph(2), 1) == 1
    assert wk_linear(path_graph(5), 9) == 0
    assert wk_linear(path_graph(5), 10**12) == 0


def test_wk_linear_k_validation():
    with pytest.raises(ValueError):
        wk_linear(path_graph(4), 0)


def test_wk_linear_matches_oracle():
    rng = random.Random(7)
    for _ in range(40):
        g = random_tree(rng.randint(2, 80), rng)
        poly = wiener_polynomial(g)
        for k in range(1, 8):
            assert wk_linear(g, k) == poly.coefficient(k)


def test_wk_linear_root_independent():
    rng = random.Random(9)
    for _ in range(10):
        g = random_tree(rng.randint(2, 40), rng)
        k = rng.randint(1, 6)
        values = {wk_linear(RootedTree.build(g, r), k) for r in range(g.n)}
        assert len(values) == 1


def test_doubled_counts_even():
    # every doubled count of a real tree is even, whatever the root
    rng = random.Random(19)
    for _ in range(20):
        g = random_tree(rng.randint(2, 40), rng)
        levels = RootedTree.build(g, rng.randrange(g.n)).levels
        poly = wiener_polynomial(g)
        assert level_sequence_polynomial(levels) == poly
        for k in range(1, 6):
            assert level_sequence_polynomial(levels, k).coeffs == poly.coeffs[: k + 1]
    # a vertex two levels below the root leaves the doubled count for k = 2 odd
    with pytest.raises(RuntimeError):
        level_sequence_polynomial([1, 3, 2], 2)


def test_wk_linear_degree_identities():
    rng = random.Random(29)
    for _ in range(15):
        g = random_tree(rng.randint(2, 60), rng)
        assert wk_linear(g, 1) == g.m
        assert wk_linear(g, 2) == zagreb_m1(g) // 2 - g.m


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
        assert wk_linear(g, 3) == want


def test_deep_path_no_recursion_limit():
    # explicit stacks must survive a path far deeper than the default
    # interpreter recursion limit
    g = path_graph(50_000)
    assert wk_linear(g, 5) == 50_000 - 5


def check_level_sequence_kernels(seq):
    g = from_edge_list(len(seq), level_sequence_edges(seq))
    poly = wiener_polynomial(g)
    assert level_sequence_polynomial(seq) == poly
    degrees = g.degrees()
    for k in range(1, 5):
        assert level_sequence_polynomial(seq, k).coeffs == poly.coeffs[: k + 1]
        assert level_sequence_twk(seq, k) == (twk(g, k), degrees.count(k))


def test_level_sequence_counts_match_oracle_on_every_free_tree():
    for n in range(1, 13):
        for seq in free_level_sequences(n):
            check_level_sequence_kernels(seq)


def test_level_sequence_counts_match_oracle_at_every_root():
    # the kernels need a level sequence, not a centre at the root
    for n in range(1, 10):
        for seq in rooted_level_sequences(n):
            check_level_sequence_kernels(seq)
    # and the preorder levels RootedTree.build records, at every root
    rng = random.Random(47)
    for _ in range(4):
        g = random_tree(rng.randint(2, 30), rng)
        for r in range(g.n):
            check_level_sequence_kernels(RootedTree.build(g, r).levels)

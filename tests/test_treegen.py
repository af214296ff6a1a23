import random
import signal
import subprocess
import sys

import pytest

from distindex import (
    MAX_ORDER,
    NotATreeError,
    OrderTooLargeError,
    RootedTree,
    canonical_form,
    cycle_graph,
    free_level_sequences,
    free_tree_count,
    free_tree_parents,
    from_edge_list,
    level_sequence_parents,
    prufer_to_tree,
    random_tree,
)
from helpers import (
    all_free_trees,
    is_tree,
    level_sequence_edges,
    limit_memory,
    path_graph,
    reference_free_trees,
    relabel,
    rooted_level_sequences,
    star_graph,
)

ROOTED_COUNTS = [1, 1, 2, 4, 9, 20, 48, 115, 286, 719]
#: OEIS A000055 for n = 1..MAX_ORDER.
FREE_COUNTS = [1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551, 1301, 3159, 7741, 19320]


def test_rooted_sequence_counts():
    for n, want in enumerate(ROOTED_COUNTS, start=1):
        assert sum(1 for _ in rooted_level_sequences(n)) == want


def test_rooted_sequences_strictly_decreasing():
    seqs = list(rooted_level_sequences(6))
    assert all(a > b for a, b in zip(seqs, seqs[1:]))
    assert seqs[0] == [1, 2, 3, 4, 5, 6]
    assert seqs[-1] == [1, 2, 2, 2, 2, 2]


def test_free_counts():
    assert len(FREE_COUNTS) == MAX_ORDER
    for n, want in enumerate(FREE_COUNTS, start=1):
        assert free_tree_count(n) == want
        seqs = list(free_level_sequences(n))
        assert all(a > b for a, b in zip(seqs, seqs[1:]))


def test_free_walk_yields_canonical_rooted_sequences():
    for n in range(1, 11):
        rooted = {tuple(seq) for seq in rooted_level_sequences(n)}
        assert all(tuple(seq) in rooted for seq in free_level_sequences(n))


def test_free_walk_skips_in_bulk(monkeypatch):
    # the jump and its suffix reset keep the walk near one step per tree:
    # 20,541 steps for the 19,320 trees of order 16, against 117,637
    # without the reset and 235,380 for a filter over the rooted walk
    import distindex.treegen

    steps = []
    successor = distindex.treegen._successor

    def counting_successor(seq, p):
        steps.append(p)
        return successor(seq, p)

    monkeypatch.setattr(distindex.treegen, "_successor", counting_successor)
    assert sum(1 for _ in free_level_sequences(16)) == 19320
    assert len(steps) < 1.1 * 19320


def test_free_walk_roots_bicentral_trees_at_the_smaller_child_half():
    # the spider with legs 2, 1, 1 has centres at its hub and the hub's
    # long-leg neighbour; the kept rooting hangs the 2-vertex half below
    assert list(free_level_sequences(5)) == [[1, 2, 3, 2, 3], [1, 2, 3, 2, 2], [1, 2, 2, 2, 2]]
    assert list(free_level_sequences(2)) == [[1, 2]]
    assert list(free_level_sequences(1)) == [[1]]


def test_free_tree_parents_memoise_the_walk():
    for n in range(1, MAX_ORDER + 1):
        parents = free_tree_parents(n)
        assert parents == tuple(bytes(level_sequence_parents(s)) for s in free_level_sequences(n))
        assert free_tree_parents(n) is parents


def test_one_walk_per_order_per_process(monkeypatch, capsys):
    # every claim scan, tie form, count and listing of one order reads
    # the order's cached parent arrays: one walk serves them all
    import distindex.cli
    import distindex.fanout
    import distindex.treegen
    import distindex.verify

    walks = []
    walk = distindex.treegen.free_level_sequences

    def counting_walk(n):
        walks.append(n)
        return walk(n)

    for module in (distindex.treegen, distindex.verify, distindex.cli):
        monkeypatch.setattr(module, "free_level_sequences", counting_walk, raising=False)
    monkeypatch.setattr(distindex.fanout, "_cpus", lambda: 1)  # every call in this process
    free_tree_parents.cache_clear()
    for argv in (
        ["verify", "--claim", "max-wk", "--n", "9", "--k", "3"],
        ["verify", "--claim", "max-wk", "--n", "9", "--k", "4"],
        ["verify", "--claim", "max-tw3", "--n", "9"],
        ["verify", "--claim", "degree-count", "--n", "9", "--k", "3"],
        ["verify", "--claim", "wiener-bounds", "--n", "9"],
        ["enumerate", "--n", "9", "--count-only"],
        ["enumerate", "--n", "9"],
    ):
        assert distindex.cli.main(argv) == 0
    assert walks == [9]
    assert capsys.readouterr().out.count("\n") == 7


def test_level_sequence_edges_match_graph_edges():
    for n in range(1, 10):
        for seq in rooted_level_sequences(n):
            edges = level_sequence_edges(seq)
            assert edges == from_edge_list(n, edges).edges()


def test_enumeration_yields_trees_deterministically():
    first = [t.edges() for t in all_free_trees(7)]
    second = [t.edges() for t in all_free_trees(7)]
    assert first == second
    for t in all_free_trees(7):
        assert is_tree(t) and t.n == 7


def test_enumeration_n4():
    forms = {canonical_form(t) for t in all_free_trees(4)}
    assert forms == {canonical_form(path_graph(4)), canonical_form(star_graph(4))}


def test_enumeration_pairwise_distinct_forms():
    for n in range(1, 11):
        forms = [canonical_form(t) for t in all_free_trees(n)]
        assert len(forms) == len(set(forms))


def test_enumeration_matches_dedup_reference():
    for n in range(1, 13):
        forms = [canonical_form(t) for t in all_free_trees(n)]
        assert len(forms) == len(set(forms))
        assert set(forms) == {canonical_form(t) for t in reference_free_trees(n)}


def nx_centers(t) -> list[int]:
    nx = pytest.importorskip("networkx")
    g = nx.Graph(t.edges())
    g.add_nodes_from(range(t.n))
    return nx.center(g)


def recursive_rooted_string(adj, root: int) -> str:
    def label(v: int, parent: int) -> str:
        subs = sorted(label(u, v) for u in adj[v] if u != parent)
        return "(" + "".join(subs) + ")"

    return label(root, -1)


def test_enumeration_roots_every_tree_at_a_centre():
    for n in range(1, 13):
        for t in all_free_trees(n):
            assert 0 in nx_centers(t)


def test_enumeration_matches_networkx_nonisomorphic():
    nx = pytest.importorskip("networkx")
    for n in range(2, 9):
        ours = list(all_free_trees(n))
        theirs = list(nx.nonisomorphic_trees(n))
        assert len(ours) == len(theirs)
        matched = set()
        for t in ours:
            gt = nx.Graph(t.edges())
            gt.add_nodes_from(range(t.n))
            hit = None
            for i, ref in enumerate(theirs):
                if i not in matched and nx.is_isomorphic(gt, ref):
                    hit = i
                    break
            assert hit is not None
            matched.add(hit)


def test_order_bounds():
    with pytest.raises(OrderTooLargeError):
        list(all_free_trees(0))
    with pytest.raises(OrderTooLargeError):
        list(all_free_trees(MAX_ORDER + 1))


def test_prufer_dedup_cross_count():
    # decoding every code and deduplicating must reach the same counts
    import itertools

    for n in range(3, 8):
        forms = set()
        for code in itertools.product(range(n), repeat=n - 2):
            forms.add(canonical_form(prufer_to_tree(list(code), n)))
        assert len(forms) == FREE_COUNTS[n - 1]


def test_tree_centers():
    # the strip roots at a centre, and the canonical form is the smaller
    # string over the one or two centres networkx finds
    trees = [path_graph(n) for n in range(1, 9)] + [star_graph(7)]
    trees += [t for n in range(1, 13) for t in all_free_trees(n)]
    for t in trees:
        centers = nx_centers(t)
        assert RootedTree.of(t).root in centers
        assert canonical_form(t) == min(recursive_rooted_string(t.adj, c) for c in centers)


def test_non_tree_with_tree_edge_count_is_refused():
    # n - 1 edges but a cycle plus an isolated vertex: leaf stripping
    # stalls and must raise; the alarm turns a loop into a failure
    def hung(signum, frame):
        raise AssertionError("leaf stripping did not stop")

    cycles = [
        from_edge_list(4, [(0, 1), (0, 2), (1, 2)]),
        from_edge_list(5, [(0, 1), (1, 2), (2, 3), (0, 3)]),
    ]
    assert all(g.m == g.n - 1 for g in cycles)
    two_paths = from_edge_list(6, [(0, 1), (1, 2), (3, 4), (4, 5)])  # one edge short of a tree
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(5)
    try:
        for g in cycles + [two_paths]:
            with pytest.raises(NotATreeError, match="input graph is not a tree"):
                canonical_form(g)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_canonical_form_invariant_under_relabeling():
    rng = random.Random(7)
    for _ in range(30):
        t = random_tree(rng.randint(1, 14), rng)
        perm = list(range(t.n))
        rng.shuffle(perm)
        assert canonical_form(relabel(t, perm)) == canonical_form(t)


def test_canonical_form_separates():
    assert canonical_form(path_graph(4)) != canonical_form(star_graph(4))
    with pytest.raises(NotATreeError):
        canonical_form(cycle_graph(4))


def test_rooted_string_matches_recursive_reference():
    for n in range(1, 11):
        for t in all_free_trees(n):
            want = min(recursive_rooted_string(t.adj, c) for c in nx_centers(t))
            assert canonical_form(t) == want


def test_canonical_form_long_path():
    # centers 1499 and 1500 hang chains of 1500 and 1499 vertices
    def chain(k: int) -> str:
        return "(" * k + ")" * k

    assert canonical_form(path_graph(3000)) == "(" + chain(1500) + chain(1499) + ")"


def test_prufer_frozen():
    g = prufer_to_tree([3, 3], 4)
    assert g.degree(3) == 3
    assert sorted(g.edges()) == [(0, 3), (1, 3), (2, 3)]
    assert prufer_to_tree([], 2).edges() == [(0, 1)]
    with pytest.raises(ValueError):
        prufer_to_tree([0], 4)
    with pytest.raises(ValueError):
        prufer_to_tree([9, 0], 4)


def test_random_tree_properties():
    rng = random.Random(5)
    for _ in range(25):
        t = random_tree(rng.randint(1, 60), rng)
        assert is_tree(t)
    assert random_tree(1, rng).n == 1
    assert random_tree(2, rng).m == 1


def test_random_tree_reproducible():
    a = random_tree(20, random.Random(99)).edges()
    b = random_tree(20, random.Random(99)).edges()
    assert a == b


def test_random_tree_checks_the_order_first():
    # the order is refused before the n - 2 code entries are drawn; in a
    # child capped at 1 GiB, drawing them first ends in a MemoryError
    code = (
        "import random\n"
        "from distindex import OrderTooLargeError, random_tree\n"
        "try:\n"
        "    random_tree(10**12, random.Random(1))\n"
        "except OrderTooLargeError as exc:\n"
        "    print(exc)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=60,
        preexec_fn=limit_memory,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "vertex count must be <= 2097152, got 1000000000000\n"


def test_random_tree_covers_all_shapes():
    rng = random.Random(13)
    seen = set()
    for _ in range(400):
        seen.add(canonical_form(random_tree(6, rng)))
    assert len(seen) == FREE_COUNTS[5]

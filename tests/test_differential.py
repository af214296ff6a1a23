"""Differential tests: the tree routes, the oracle and networkx must
agree on trees drawn from Prüfer codes; the oracle's ball sweep must
agree with one BFS per vertex (tests/helpers.py) and networkx on
connected graphs of several shapes, in one block or many, and so must
its degree-class distance sums (TW_k, TW_k*) on either side of the
sweep-or-BFS cost choice; and the CLI
documents of the tree route must validate against schema/report.json."""

import io
import json
import random
from contextlib import redirect_stdout
from pathlib import Path

import jsonschema
import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import distindex.indices
from distindex import (
    DisconnectedError,
    Graph,
    RootedTree,
    cycle_graph,
    format_edge_list,
    from_edge_list,
    index_report,
    prufer_to_tree,
    random_tree,
    tree_twk,
    twk,
    twk_cut,
    twk_star,
    wiener,
    wiener_polynomial,
    wiener_polynomial_linear,
    wk,
    wk_linear,
    wk_star,
)
from distindex.cli import main
from helpers import (
    random_connected_graph,
    reference_twk,
    reference_twk_star,
    reference_wiener_polynomial,
    relabel,
    rooted_at,
)

SCHEMA = json.loads(
    (Path(__file__).resolve().parents[1] / "schema" / "report.json").read_text()
)


@st.composite
def rooted_trees(draw):
    n = draw(st.integers(min_value=2, max_value=40))
    code = draw(st.lists(st.integers(0, n - 1), min_size=n - 2, max_size=n - 2))
    root = draw(st.integers(0, n - 1))
    g = prufer_to_tree(code)
    return g, rooted_at(g, root)


@st.composite
def connected_graphs(draw):
    """Trees, odd cycles with chords, sparse and dense graphs, and the
    single vertex, with shuffled labels."""
    kind = draw(st.sampled_from(["tree", "odd_cycle", "dense", "sparse", "single"]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if kind == "single":
        return from_edge_list(1, [])
    if kind == "tree":
        g = random_tree(draw(st.integers(2, 40)), rng)
    elif kind == "odd_cycle":
        n = 2 * draw(st.integers(1, 20)) + 1
        chords = draw(st.integers(0, 3))
        edges = set(cycle_graph(n).edges())
        for _ in range(chords):
            u, v = sorted(rng.sample(range(n), 2))
            edges.add((u, v))
        g = from_edge_list(n, sorted(edges))
    elif kind == "dense":
        n = draw(st.integers(2, 20))
        g = random_connected_graph(rng, n, n * n)
    else:
        n = draw(st.integers(2, 40))
        g = random_connected_graph(rng, n, draw(st.integers(1, n)))
    perm = list(range(g.n))
    rng.shuffle(perm)
    return relabel(g, perm)


def disjoint_union(a: Graph, b: Graph) -> Graph:
    return from_edge_list(
        a.n + b.n, a.edges() + [(u + a.n, v + a.n) for u, v in b.edges()]
    )


def networkx_graph(g) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


def networkx_histogram(g) -> list[int]:
    hist = [0] * g.n
    for u, row in nx.all_pairs_shortest_path_length(networkx_graph(g)):
        for v, d in row.items():
            if u < v:
                hist[d] += 1
    while len(hist) > 1 and not hist[-1]:
        hist.pop()
    return hist


def cli_document(path: Path, *argv: str) -> dict:
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(["compute", "--input", str(path), *argv])
    assert code == 0
    doc = json.loads(out.getvalue())
    jsonschema.validate(doc, SCHEMA)
    return doc


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("differential")


@settings(derandomize=True, deadline=None, max_examples=150)
@given(rooted_trees())
def test_tree_routes_agree(gt):
    g, t = gt
    want = networkx_histogram(g)
    assert list(wiener_polynomial(g).coeffs) == want
    assert list(wiener_polynomial_linear(t).coeffs) == want
    for k in range(1, g.n + 1):
        assert wk_linear(t, k) == (want[k] if k < len(want) else 0)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(rooted_trees())
def test_tree_route_cli_documents(workdir, gt):
    g, _ = gt
    path = workdir / "tree.txt"
    path.write_text(format_edge_list(g))
    want = networkx_histogram(g)
    poly = cli_document(path, "--index", "poly", "--no-timing")
    assert poly == {"n": g.n, "m": g.m, "index": "poly", "method": "linear", "poly": want}
    k = len(want) - 1
    wk = cli_document(path, "--index", "wk", "--k", str(k))
    assert wk["method"] == "linear" and wk["wk"] == want[k]
    assert wk["elapsed_ms"] >= 0


def cli_bytes(path: Path, *argv: str) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(["compute", "--input", str(path), *argv, "--no-timing"])
    assert code == 0
    return out.getvalue()


def test_strip_route_matches_oracle_documents(workdir):
    """Random trees with shuffled labels, edge order and orientation: the
    tree route (the leaf strip and its parent array) prints the oracle's
    --no-timing bytes but for the method field, for every k <= 8, and
    the strip roots each tree at a centre."""
    rng = random.Random(61)
    path = workdir / "shuffled.txt"
    for n in [1, 2, 3, 4, 5, 6] + [rng.randint(7, 300) for _ in range(14)]:
        perm = list(range(n))
        rng.shuffle(perm)
        edges = relabel(random_tree(n, rng), perm).edges()
        edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]
        rng.shuffle(edges)
        path.write_text(f"{n} {n - 1}\n" + "".join(f"{u} {v}\n" for u, v in edges))
        requests = [("linear", ["--index", "poly"])]
        requests += [("linear", ["--index", "wk", "--k", str(k)]) for k in range(1, 9)]
        requests += [("cut", ["--index", "twk", "--k", str(k)]) for k in range(0, 9)]
        for route, argv in requests:
            got = cli_bytes(path, *argv)
            want = cli_bytes(path, *argv, "--method", "oracle")
            assert got.replace(f'"method":"{route}"', '"method":"oracle"') == want, (n, argv)

        t = RootedTree.build(n, [[x for e in edges for x in e]])
        depth = [0] * n
        for v in reversed(t.order[:-1]):  # parents before children
            depth[v] = depth[t.parent[v]] + 1
        g = from_edge_list(n, edges)
        assert max(depth) == (nx.radius(networkx_graph(g)) if n > 1 else 0)


def check_pair_counts(g):
    want = networkx_histogram(g)
    poly = wiener_polynomial(g)
    assert poly == reference_wiener_polynomial(g)
    assert list(poly.coeffs) == want
    assert wiener(g) == sum(k * c for k, c in enumerate(want))
    for k in range(1, len(want) + 2):
        count = want[k] if k < len(want) else 0
        assert wiener_polynomial(g, k).coeffs == tuple(want[:k + 1])
        assert wk(g, k) == count
        assert wk_star(g, k) == sum(want[1:k + 1])
    report = index_report(g, star_k=2)
    assert report.poly == poly.coeffs
    assert report.wk_star == sum(want[1:3])


def check_disconnected(g):
    """Every read raises, the capped ones for every k up to n: below
    the components' diameters the limit stops the sweep, past them a
    round grows no ball."""
    calls = [wiener_polynomial, wiener]
    for k in range(1, g.n + 1):
        calls += [lambda g, k=k: wiener_polynomial(g, k), lambda g, k=k: wk(g, k), lambda g, k=k: wk_star(g, k)]
    for call in calls:
        with pytest.raises(DisconnectedError, match="^graph is not connected$"):
            call(g)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(connected_graphs(), connected_graphs())
def test_oracle_pair_counts_agree(g, other):
    check_pair_counts(g)
    check_disconnected(disjoint_union(g, other))


@settings(derandomize=True, deadline=None, max_examples=100)
@given(connected_graphs(), connected_graphs(), st.integers(1, 120))
def test_oracle_pair_counts_agree_in_blocks(g, other, sweep_bits):
    """With a small bit budget the sources are swept in many blocks (of
    sweep_bits // n sources, at least one)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(distindex.indices, "_SWEEP_BITS", sweep_bits)
        check_pair_counts(g)
        check_disconnected(disjoint_union(g, other))


@settings(derandomize=True, deadline=None, max_examples=100)
@given(rooted_trees())
def test_tree_twk_agrees(gt):
    g, t = gt
    for k in sorted(set(g.degrees())):
        want = twk(g, k)
        assert tree_twk(t.parent, t.order, k) == (want, g.degrees().count(k))
        assert twk_cut(g, k) == want
    assert tree_twk(t.parent, t.order, max(g.degrees()) + 1) == (0, 0)


def networkx_pair_sum(g, keep) -> int:
    """Distance sum over the unordered pairs of vertices whose degree
    passes `keep`."""
    members = {v for v in range(g.n) if keep(g.degree(v))}
    return sum(
        d
        for u, row in nx.all_pairs_shortest_path_length(networkx_graph(g))
        if u in members
        for v, d in row.items()
        if u < v and v in members
    )


def sweep_chosen(g, members) -> bool:
    """The oracle's cost rule: sweep from the members when one BFS from
    each member but the first (whose connectivity BFS is summed) and the
    last would cost more than eccentricity rounds over the edges, the
    eccentricity of the first member (of vertex 0 when there is none)."""
    first = members[0] if members else 0
    return (len(members) - 2) * (g.n + g.m) > nx.eccentricity(networkx_graph(g), first) * 2 * g.m


def check_restricted_sums(g, patch):
    """twk and twk_star against the BFS references and networkx for
    every degree present (and one past the largest), with the branch the
    cost rule picks; the restricted sweep itself is checked on every
    class, whichever branch the rule picks; index_report must agree."""
    sweeps = []
    sweep = distindex.indices._sweep

    def counting(g, sources, *args, **kwargs):
        sweeps.append(len(sources))
        return sweep(g, sources, *args, **kwargs)

    patch.setattr(distindex.indices, "_sweep", counting)
    top = max(g.degrees())
    by_degree = {}
    for k in range(top + 2):
        members = [v for v in range(g.n) if g.degree(v) == k]
        want = networkx_pair_sum(g, lambda d: d == k)
        assert reference_twk(g, k) == want
        sweeps.clear()
        assert twk(g, k) == want
        assert sweeps == ([len(members)] if g.n > 1 and sweep_chosen(g, members) else [])
        _, (doubled,) = sweep(g, members, [(0, len(members))])
        assert doubled == 2 * want
        if members:
            by_degree[k] = want
    for k in range(1, top + 2):
        members = [v for v in range(g.n) if g.degree(v) <= k]
        want = networkx_pair_sum(g, lambda d: d <= k)
        assert reference_twk_star(g, k) == want
        sweeps.clear()
        assert twk_star(g, k) == want
        assert sweeps == ([len(members)] if g.n > 1 and sweep_chosen(g, members) else [])
        sweeps.clear()
        report = index_report(g, star_k=k)
        assert sweeps == [g.n]
        assert dict(report.twk_by_degree) == by_degree
        assert report.twk_star == want
    assert index_report(g).twk_by_degree == tuple(sorted(by_degree.items()))


def check_restricted_disconnected(g):
    for call in (
        lambda g: twk(g, 1),
        lambda g: twk(g, g.n),
        lambda g: twk_star(g, 2),
        lambda g: index_report(g),
        lambda g: index_report(g, star_k=1),
    ):
        with pytest.raises(DisconnectedError, match="^graph is not connected$"):
            call(g)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(connected_graphs(), connected_graphs())
def test_oracle_restricted_sums_agree(g, other):
    with pytest.MonkeyPatch.context() as patch:
        check_restricted_sums(g, patch)
    check_restricted_disconnected(disjoint_union(g, other))


@settings(derandomize=True, deadline=None, max_examples=100)
@given(connected_graphs(), connected_graphs(), st.integers(1, 120))
def test_oracle_restricted_sums_agree_in_blocks(g, other, sweep_bits):
    """With a small bit budget both the full and the restricted sweeps
    run in many blocks, and a class may straddle a block boundary."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(distindex.indices, "_SWEEP_BITS", sweep_bits)
        check_restricted_sums(g, patch)
        check_restricted_disconnected(disjoint_union(g, other))

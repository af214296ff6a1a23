"""Differential tests: the tree routes, the BFS oracle and networkx must
agree on trees drawn from Prüfer codes, and the CLI documents of the
tree route must validate against schema/report.json."""

import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import jsonschema
import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distindex import (
    RootedTree,
    format_edge_list,
    prufer_to_tree,
    wiener_polynomial,
    wiener_polynomial_linear,
    wk_linear,
)
from distindex.cli import main

SCHEMA = json.loads(
    (Path(__file__).resolve().parents[1] / "schema" / "report.json").read_text()
)


@st.composite
def rooted_trees(draw):
    n = draw(st.integers(min_value=2, max_value=40))
    code = draw(st.lists(st.integers(0, n - 1), min_size=n - 2, max_size=n - 2))
    root = draw(st.integers(0, n - 1))
    return RootedTree.build(prufer_to_tree(code, n), root)


def networkx_histogram(g) -> list[int]:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    hist = [0] * g.n
    for u, row in nx.all_pairs_shortest_path_length(h):
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
def test_tree_routes_agree(t):
    g = t.graph
    want = networkx_histogram(g)
    assert list(wiener_polynomial(g).coeffs) == want
    assert list(wiener_polynomial_linear(t).coeffs) == want
    for k in range(1, g.n + 1):
        assert wk_linear(t, k) == (want[k] if k < len(want) else 0)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(rooted_trees())
def test_tree_route_cli_documents(workdir, t):
    g = t.graph
    path = workdir / "tree.txt"
    path.write_text(format_edge_list(g))
    want = networkx_histogram(g)
    poly = cli_document(path, "--index", "poly", "--no-timing")
    assert poly == {"n": g.n, "m": g.m, "index": "poly", "method": "linear", "poly": want}
    k = len(want) - 1
    wk = cli_document(path, "--index", "wk", "--k", str(k))
    assert wk["method"] == "linear" and wk["wk"] == want[k]
    assert wk["elapsed_ms"] >= 0

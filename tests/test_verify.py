import json
from pathlib import Path

import pytest

from distindex import (
    InfeasibleSpecError,
    caterpillar_twk,
    twk,
    verify_coronene,
    verify_cut_vs_oracle,
    verify_degree_count,
    verify_eq1,
    verify_linear_vs_oracle,
    verify_max_tw3,
    verify_max_wk,
    verify_wiener_bounds,
)
from helpers import all_free_trees


def test_verify_max_wk_odd():
    report = verify_max_wk(10, 3)
    assert report["pass"]
    assert report["predicted"] == report["observed"] == 16
    assert report["witness"]["kind"] == "double_broom"


def test_verify_max_wk_even():
    report = verify_max_wk(10, 4)
    assert report["pass"]
    assert report["observed"] == 12
    report = verify_max_wk(12, 4)
    assert report["pass"]
    assert report["observed"] == 21
    assert report["witness"]["kind"] == "starlike_broom"


def test_verify_max_wk_rejects_small_k():
    with pytest.raises(InfeasibleSpecError):
        verify_max_wk(8, 2)


def test_verify_max_tw3_pass():
    report = verify_max_tw3(8)
    assert report["pass"]
    assert report["observed"] == 4
    assert report["unique"] and report["witness_is_maximizer"]


def test_verify_max_tw3_degenerate_order_five():
    # at n = 5 the maximum 0 is shared by all three trees, so the
    # uniqueness requirement cannot hold and the verifier reports it
    report = verify_max_tw3(5)
    assert report["observed"] == report["predicted"] == 0
    assert report["maximizer_count"] == 3
    assert not report["unique"]
    assert not report["pass"]


def test_verify_degree_count():
    report = verify_degree_count(12, 3)
    assert report["pass"] and report["observed"] == 5
    report = verify_degree_count(9, 4)
    assert report["pass"] and report["observed"] == 2


def test_verify_wiener_bounds():
    report = verify_wiener_bounds(6)
    assert report["pass"]
    assert report["min_observed"] == 25 and report["max_observed"] == 35
    assert report["min_unique_star"] and report["max_unique_path"]
    assert verify_wiener_bounds(2)["pass"]


def test_verify_eq1_small():
    report = verify_eq1(30)
    assert report["pass"]
    assert report["cases"] > 500
    assert report["mismatch_count"] == 0


def test_verify_coronene():
    report = verify_coronene(2)
    assert report["pass"]
    assert report["formula"] == report["cut"] == report["oracle"] == 174
    assert report["profile_ok"]


def test_verify_coronene_builds_the_partition_once(monkeypatch):
    import distindex.partial_cube

    calls = []
    partition = distindex.partial_cube._partition

    def counting_partition(g):
        calls.append(g.n)
        return partition(g)

    monkeypatch.setattr(distindex.partial_cube, "_partition", counting_partition)
    assert verify_coronene(4)["pass"]
    assert calls == [96]


@pytest.mark.parametrize(
    "verifier, args, graphs",
    [
        (verify_max_wk, (10, 3), 1),
        (verify_max_tw3, (10,), 1),
        (verify_degree_count, (10, 3), 0),
        (verify_wiener_bounds, (10,), 2),
    ],
    ids=["max-wk-3-1", "max-tw3-None-1", "degree-count-3-0", "wiener-bounds-None-2"],
)
def test_extremal_claims_build_graphs_only_for_the_witnesses(monkeypatch, verifier, args, graphs):
    # Of the 106 trees of order 10, graphs are built only for the
    # witnesses: the maximizers (and minimizers) are named from their
    # parent arrays, and the oracle runs on the witness alone
    import distindex.graphs
    import distindex.indices

    built, swept = [], []
    graph = distindex.graphs.Graph
    bfs, sweep = distindex.indices.bfs_distances, distindex.indices._sweep

    def counting_graph(**fields):
        built.append(graph(**fields))
        return built[-1]

    def counting_bfs(g, source):
        swept.append(g)
        return bfs(g, source)

    def counting_sweep(g, *args):
        swept.append(g)
        return sweep(g, *args)

    monkeypatch.setattr(distindex.graphs, "Graph", counting_graph)
    monkeypatch.setattr(distindex.indices, "bfs_distances", counting_bfs)
    monkeypatch.setattr(distindex.indices, "_sweep", counting_sweep)
    assert verifier(*args)["pass"]
    assert len(built) == graphs
    assert len({id(g) for g in swept}) <= 1


@pytest.mark.parametrize(
    "claim, verifier, args",
    [
        ("verify --claim max-wk --n 12 --k 4", verify_max_wk, (12, 4)),
        ("verify --claim max-wk --n 11 --k 3", verify_max_wk, (11, 3)),
        ("verify --claim wiener-bounds --n 11", verify_wiener_bounds, (11,)),
    ],
    ids=["max-wk-12-4", "max-wk-11-3", "wiener-bounds-11"],
)
def test_scans_read_one_number_per_tree(monkeypatch, claim, verifier, args):
    # W_k comes from two digits of the row pass (tree_wk) and W from the
    # subtree sizes (tree_wiener): no tree gets a whole polynomial, and
    # the documents are the recorded ones
    import distindex.tree_linear
    import distindex.verify

    calls = []
    polynomial = distindex.tree_linear.tree_polynomial

    def counting_polynomial(*args, **kwargs):
        calls.append(args)
        return polynomial(*args, **kwargs)

    for module in (distindex.tree_linear, distindex.verify):
        monkeypatch.setattr(module, "tree_polynomial", counting_polynomial, raising=False)
    doc = json.dumps(verifier(*args), sort_keys=True, separators=(",", ":")) + "\n"
    assert calls == []
    recorded = Path(__file__).resolve().parents[1] / "bench" / "expected_claims.json"
    assert doc == json.loads(recorded.read_text())[claim]["stdout"]


def test_verify_linear_vs_oracle_seeded():
    report = verify_linear_vs_oracle(trials=60, seed=7)
    assert report["pass"]
    assert report["mismatch_count"] == 0
    again = verify_linear_vs_oracle(trials=60, seed=7)
    assert report == again


def test_verify_cut_vs_oracle_seeded():
    report = verify_cut_vs_oracle(trials=25, seed=7, include_families=False)
    assert report["pass"]
    assert report["graphs_checked"] == 25


def test_caterpillar_family_attains_tree_maximum():
    # for degrees 4 and 5 the family maximum over p matches the true
    # maximum over all trees (scanned exhaustively)
    for k in (4, 5):
        for n in range(6, 13):
            best_family = 0
            p = 0
            while True:
                try:
                    best_family = max(best_family, caterpillar_twk(n, k, p))
                except InfeasibleSpecError:
                    break
                p += 1
            best_tree = max(twk(t, k) for t in all_free_trees(n))
            assert best_tree == best_family


def test_verify_cut_vs_oracle_without_evidence_fails():
    report = verify_cut_vs_oracle(trials=0, include_families=False)
    assert report["comparisons"] == 0 and report["mismatch_count"] == 0
    assert not report["pass"]

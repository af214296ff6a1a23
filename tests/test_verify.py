import json
import os
import random
from pathlib import Path

import pytest

import distindex.verify

from distindex import (
    InfeasibleSpecError,
    caterpillar_twk,
    prufer_to_tree,
    random_tree,
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
from distindex.verify import LINEAR_N_RANGE, _tree_codes
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

    def counting_sweep(g, *args, **kwargs):
        swept.append(g)
        return sweep(g, *args, **kwargs)

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


@pytest.mark.parametrize("seed", [1, 7, 1729, 7919])
def test_suite_codes_are_the_random_tree_draw(seed):
    # the seeded suites decode random_tree's own draw, replayed from
    # Random(seed): the trees the benchmark's expected cut-vs-oracle
    # document counts its comparisons on
    rng = random.Random(seed)
    want = [random_tree(rng.randint(*LINEAR_N_RANGE), rng).edges() for _ in range(200)]
    assert [prufer_to_tree(code).edges() for code in _tree_codes(200, seed)] == want
    # an order-2 tree is decoded from the empty code and draws nothing
    state = rng.getstate()
    assert random_tree(2, rng).edges() == [(0, 1)]
    assert rng.getstate() == state


def test_verify_cut_vs_oracle_seeded(monkeypatch):
    monkeypatch.setattr(distindex.verify, "CUT_FAMILIES", ())
    report = verify_cut_vs_oracle(trials=25, seed=7)
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


def test_verify_cut_vs_oracle_without_evidence_fails(monkeypatch):
    monkeypatch.setattr(distindex.verify, "CUT_FAMILIES", ())
    report = verify_cut_vs_oracle(trials=0)
    assert report["comparisons"] == 0 and report["mismatch_count"] == 0
    assert not report["pass"]


def canonical(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


@pytest.mark.parametrize(
    "verifier, args, doc",
    [
        (
            verify_max_wk,
            (16, 3),
            '{"claim":"max-wk","k":3,"maximizer_count":15,"n":16,"observed":49,"parity":"odd",'
            '"pass":true,"predicted":49,"witness":{"a1":7,"a2":7,"k":3,"kind":"double_broom","n":16},'
            '"witness_value":49}',
        ),
        (
            verify_max_tw3,
            (16,),
            '{"claim":"max-tw3","maximizer_count":1,"n":16,"observed":56,"p":7,"pass":true,'
            '"predicted":56,"unique":true,"witness":{"k":3,"kind":"caterpillar","n":16,"p":7},'
            '"witness_is_maximizer":true,"witness_value":56}',
        ),
        (
            verify_wiener_bounds,
            (16,),
            '{"claim":"wiener-bounds","max_observed":680,"max_predicted":680,"max_unique_path":true,'
            '"min_observed":225,"min_predicted":225,"min_unique_star":true,"n":16,"pass":true}',
        ),
        (
            verify_degree_count,
            (16, 3),
            '{"claim":"degree-count","k":3,"n":16,"observed":7,"pass":true,"predicted":7}',
        ),
        (
            verify_degree_count,
            (16, 4),
            '{"claim":"degree-count","k":4,"n":16,"observed":4,"pass":true,"predicted":4}',
        ),
    ],
    ids=["max-wk-16-3", "max-tw3-16", "wiener-bounds-16", "degree-count-16-3", "degree-count-16-4"],
)
def test_largest_scans_run_in_this_process(monkeypatch, verifier, args, doc):
    # the 19,320 trees of order 16 are scanned one after another in the
    # calling process, with no child, and give the recorded documents
    def no_fork():
        raise AssertionError("a claim scan forked")

    monkeypatch.setattr(os, "fork", no_fork)
    assert canonical(verifier(*args)) == doc


@pytest.mark.parametrize(
    "verifier, args, route, wrong, mismatches",
    [
        (
            verify_eq1,
            (6,),
            "twk",
            lambda value, g, k: value + (g.n == 5),
            [{"n": 5, "k": k, "p": p, "formula": 0, "oracle": 1} for k in (3, 4) for p in (0, 1)],
        ),
        (
            verify_linear_vs_oracle,
            (3, 1),
            "wk_linear",
            lambda value, rt, k: value + (k == 10),
            [
                {"trial": 0, "n": 36, "k": 10, "linear": 28, "oracle": 27},
                {"trial": 1, "n": 90, "k": 10, "linear": 260, "oracle": 259},
                {"trial": 2, "n": 147, "k": 10, "linear": 598, "oracle": 597},
            ],
        ),
        (
            verify_cut_vs_oracle,
            (2, 1),
            "twk_cut",
            lambda value, g, k, partition: value + (g.n == 6),
            [{"graph": "C6", "k": 2, "cut": 28, "oracle": 27}],
        ),
    ],
    ids=["eq1", "linear-vs-oracle", "cut-vs-oracle"],
)
def test_suites_report_each_mismatch(monkeypatch, verifier, args, route, wrong, mismatches):
    # a route made wrong on some items: each suite names every item it
    # disagrees on, in item order, and fails (cut-vs-oracle's families
    # cut down to C_4 and C_6)
    monkeypatch.setattr(distindex.verify, "CUT_FAMILIES", (("C", 4), ("C", 6)))
    right = getattr(distindex.verify, route)
    monkeypatch.setattr(distindex.verify, route, lambda *a: wrong(right(*a), *a))
    report = verifier(*args)
    assert report["mismatches"] == mismatches
    assert report["mismatch_count"] == len(mismatches)
    assert not report["pass"]

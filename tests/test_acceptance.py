"""Acceptance suite: nine numbered criteria, one printed verdict line each.

Each test prints exactly one line of the form

    CRITERION <i> (<label>): PASS|FAIL

to the real terminal (bypassing capture) before asserting, so the verdicts
survive in piped output; a criterion may append findings to that line even
when it passes.  Criteria with runtime budgets measure and enforce them.

Criterion 7 checks the claim that the symmetric caterpillar is the unique
TW_3 maximizer once n > 4, and expects the verifier to refute it wherever a
tree of order n cannot hold two vertices of degree 3.  A tree on n vertices
has degree sum 2n - 2, so it has at most floor((n - 2) / 2) vertices of
degree 3; at n = 5 that is one, every tree has TW_3 = 0, and all three
trees of order 5 tie.  There the verifier's "pass": false is the expected
verdict; at every other order the claim must hold.
"""

import random
import time

import pytest

from distindex import (
    DEFAULT_SEED,
    RootedTree,
    caterpillar_twk,
    coronene_tw3,
    cycle_graph,
    free_tree_count,
    gen_coronene,
    horizontal_cut_profile,
    hypercube_graph,
    is_partial_cube,
    max_degree_count,
    random_tree,
    theta_classes,
    twk,
    twk_cut,
    verify_coronene,
    verify_cut_vs_oracle,
    verify_degree_count,
    verify_eq1,
    verify_linear_vs_oracle,
    verify_max_tw3,
    verify_max_wk,
    verify_wiener_bounds,
    wiener_polynomial,
    wk_linear,
    zagreb,
)
from helpers import all_free_trees, all_pairs_distances, path_graph

FREE_TREE_COUNTS_1_TO_12 = [1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551]


def report(capsys, number: int, label: str, ok: bool, detail: str = "",
           note: str = ""):
    line = f"CRITERION {number} ({label}): {'PASS' if ok else 'FAIL'}"
    if detail and not ok:
        line += f" -- {detail}"
    if note:
        line += f" -- {note}"
    with capsys.disabled():
        print(line)
    assert ok, line


def test_criterion_1_linear_equals_oracle(capsys):
    t0 = time.perf_counter()
    rep = verify_linear_vs_oracle(trials=1000, seed=DEFAULT_SEED)
    elapsed = time.perf_counter() - t0
    ok = (
        rep["pass"]
        and rep["trials"] == 1000
        and rep["n_range"] == [2, 200]
        and rep["k_max"] == 10
        and elapsed < 30.0
    )
    report(capsys, 1, "linear algorithm equals oracle on 1000 trees", ok,
           f"mismatches={rep['mismatches']} elapsed={elapsed:.1f}s")


def test_criterion_2_linear_scales_to_a_million(capsys):
    g = path_graph(10**6)
    t0 = time.perf_counter()
    value = wk_linear(RootedTree.of(g), 5)
    elapsed = time.perf_counter() - t0
    ok = value == 999995 and elapsed < 5.0
    report(capsys, 2, "million-vertex path under five seconds", ok,
           f"value={value} elapsed={elapsed:.2f}s")


def test_criterion_3_degree_identities(capsys):
    rng = random.Random(DEFAULT_SEED)
    bad = []
    for _ in range(1000):
        n = rng.randint(2, 200)
        g = random_tree(n, rng)
        poly = wiener_polynomial(g)
        m = g.m
        m1, m2 = zagreb(g.degrees(), g.edges())
        if poly.coefficient(1) != m:
            bad.append((n, 1))
        if 2 * poly.coefficient(2) != m1 - 2 * m:
            bad.append((n, 2))
        if poly.coefficient(3) != m2 - m1 + m:
            bad.append((n, 3))
    report(capsys, 3, "distance-one/two/three degree identities", not bad,
           f"failures={bad[:5]}")


def test_criterion_4_cut_equals_oracle(capsys):
    t0 = time.perf_counter()
    rep = verify_cut_vs_oracle(trials=200, seed=DEFAULT_SEED)
    elapsed = time.perf_counter() - t0
    ok = rep["pass"] and elapsed < 60.0
    report(capsys, 4, "cut method equals oracle on trees/cycles/cubes/coronenes", ok,
           f"mismatches={rep['mismatches']} elapsed={elapsed:.1f}s")


def test_criterion_5_coronene_formula(capsys):
    frozen = {1: 0, 2: 174, 3: 2838}
    problems = []
    for k in range(1, 6):
        rep = verify_coronene(k)
        if not rep["pass"]:
            problems.append((k, "routes disagree"))
        if k in frozen and rep["formula"] != frozen[k]:
            problems.append((k, f"formula={rep['formula']}"))
    for k in range(1, 9):
        h = gen_coronene(k)
        profile = horizontal_cut_profile(h, theta_classes(h.graph))
        expected = [(i * (2 * k + i), k + 2 * i) for i in range(1, k + 1)]
        if profile != expected:
            problems.append((k, "profile"))
    report(capsys, 5, "coronene formula, cut method, and cut profiles", not problems,
           f"problems={problems}")


def test_criterion_6_caterpillar_formula(capsys):
    rep = verify_eq1(60)
    worked_instance = caterpillar_twk(20, 4, 5)
    ok = rep["pass"] and worked_instance == 38
    report(capsys, 6, "caterpillar formula matches oracle for n<=60", ok,
           f"mismatches={rep['mismatches']} instance={worked_instance}")


def test_criterion_7_extremal_claims_by_enumeration(capsys):
    t0 = time.perf_counter()
    failures = []
    findings = []
    for n in range(2, 13):
        rep = verify_max_tw3(n)
        # Below two possible degree-3 vertices every tree has TW_3 = 0, so
        # all free trees of order n tie and the uniqueness clause is false.
        refuted = n > 4 and max_degree_count(n, 3) < 2
        tie = FREE_TREE_COUNTS_1_TO_12[n - 1]
        if not refuted:
            if not rep["pass"]:
                failures.append(
                    f"max-tw3 n={n} maximizers={rep['maximizer_count']}")
        elif (rep["pass"] or rep["observed"] != 0
                or rep["maximizer_count"] != tie):
            failures.append(
                f"max-tw3 n={n} refutation not reported: pass={rep['pass']} "
                f"observed={rep['observed']} maximizers={rep['maximizer_count']}"
                f" (expected {tie} trees tied at 0)")
        else:
            findings.append(f"max-tw3 n={n} uniqueness refuted: "
                            f"{tie} trees tie at TW_3 = 0")
    for n in range(4, 13):
        for k in range(3, n):
            rep = verify_max_wk(n, k)
            if not rep["pass"]:
                failures.append(f"max-wk n={n} k={k}")
            rep = verify_degree_count(n, k)
            if not rep["pass"]:
                failures.append(f"degree-count n={n} k={k}")
    for n in range(2, 13):
        rep = verify_wiener_bounds(n)
        if not rep["pass"]:
            failures.append(f"wiener-bounds n={n}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 300.0:
        failures.append(f"elapsed={elapsed:.0f}s")
    # A tree on 5 vertices has degree sum 8, so at most one vertex of
    # degree 3: all three trees of order 5 have TW_3 = 0 and tie.  The
    # verifier refuting uniqueness there is a finding, printed on PASS.
    report(capsys, 7, "extremal values by exhaustive tree enumeration",
           not failures, f"failures={failures}",
           f"findings={findings}" if findings else "")


def test_criterion_8_enumerator_integrity(capsys):
    nx = pytest.importorskip("networkx")
    counts = [free_tree_count(n) for n in range(1, 13)]
    ok = counts == FREE_TREE_COUNTS_1_TO_12
    detail = f"counts={counts}"
    if ok:
        for n in range(1, 11):
            graphs = [
                nx.Graph(tree.edges()) if tree.m else nx.empty_graph(1)
                for tree in all_free_trees(n)
            ]
            for i in range(len(graphs)):
                for j in range(i + 1, len(graphs)):
                    if nx.is_isomorphic(graphs[i], graphs[j]):
                        ok = False
                        detail = f"isomorphic pair at n={n}: {i},{j}"
                        break
                if not ok:
                    break
            if not ok:
                break
    report(capsys, 8, "free-tree counts and pairwise non-isomorphism", ok, detail)


def test_criterion_9_partial_cube_verifier(capsys):
    problems = []
    accepted_graphs = []
    rng = random.Random(DEFAULT_SEED)
    for n in range(1, 9):
        accepted_graphs += [(f"tree-n{n}", t) for t in all_free_trees(n)]
    accepted_graphs += [
        (f"random-tree-{i}", random_tree(rng.randint(10, 60), rng)) for i in range(20)
    ]
    accepted_graphs += [(f"C{n}", cycle_graph(n)) for n in range(4, 21, 2)]
    accepted_graphs += [(f"Q{d}", hypercube_graph(d)) for d in range(1, 7)]
    accepted_graphs += [(f"H{k}", gen_coronene(k).graph) for k in range(1, 5)]

    for label, g in accepted_graphs:
        verdict = is_partial_cube(g)
        if not verdict.accepted:
            problems.append(f"{label} rejected: {verdict.reason}")
            continue
        dist = all_pairs_distances(g)
        coords = verdict.coordinates
        for u in range(g.n):
            for v in range(u + 1, g.n):
                if coords.hamming(u, v) != dist.dist(u, v):
                    problems.append(f"{label} hamming != bfs at ({u},{v})")
                    break

    c5 = is_partial_cube(cycle_graph(5))
    if c5.accepted or c5.reason != "not_bipartite":
        problems.append(f"C5 verdict {c5.reason}")
    from distindex import from_edge_list

    k23 = from_edge_list(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)])
    v23 = is_partial_cube(k23)
    if v23.accepted or not v23.reason:
        problems.append(f"K23 verdict {v23.reason}")
    report(capsys, 9, "partial-cube verifier accepts/rejects with coordinates",
           not problems, f"problems={problems[:5]}")


def test_coronene_predictions_documented_values():
    # direct spot checks of the numbers quoted alongside the criteria
    assert coronene_tw3(1) == 0
    assert coronene_tw3(2) == 174
    assert coronene_tw3(3) == 2838
    h2 = gen_coronene(2)
    assert twk_cut(h2.graph, 3) == twk(h2.graph, 3) == 174

"""Claim verifiers: exhaustive enumeration checks and randomized
equivalence suites.

Each function returns a JSON-friendly dict with a boolean "pass" plus
the evidence behind the verdict, so the CLI can print it unchanged and
callers can drill into failures.  A run that checks nothing does not
pass.  Randomized suites take an explicit
seed and are fully reproducible.

The extremal claims build no graph per tree.  One scan, _scan, runs
the one kernel a claim needs over the parent array of every tree's
centre-rooted level sequence, read in reversed preorder (tree_wk for
W_k, tree_wiener for W, tree_twk for TW_3 and the degree-k count), and
each claim is a max, a min, a count or a filter over the values.  The
parent arrays are the order's cached ones (treegen.free_tree_parents),
so the claims of one process share one walk per order.  Each kernel
computes only the number its claim reads, so no tree gets a whole
WienerPolynomial.  tree_wk and tree_twk are the tree route of compute,
which the linear-vs-oracle and cut-vs-oracle suites tie to the oracle.
_forms names the tied trees from the same cached parent arrays
(treegen._form), with no graph; only the witnesses are built as graphs.

Every suite and scan is a map of one check over independent items (a
case, a tree's Prufer code, a graph's spec, a parent array), run by
fanout.fanout, which splits the checks across the CPUs the process may
use once a claim has run for a few milliseconds.  Checks return
marshallable values, small when the routes agree; the documents are
the same however the checks were split.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Sequence

from .benzenoid import coronene_tw3, gen_coronene, horizontal_cut_profile
from .errors import InfeasibleSpecError
from .extremal import (
    TreeSpec,
    gen_tree,
    max_degree_count,
    max_tw3,
    max_wk_even,
    max_wk_odd,
)
from .fanout import fanout
from .graphs import Graph, cycle_graph, hypercube_graph
from .indices import index_report, twk, wiener_polynomial
from .partial_cube import theta_classes, twk_cut
from .tree_linear import RootedTree, tree_twk, tree_wiener, tree_wk, wk_linear
from .treegen import _form, canonical_form, free_tree_parents, prufer_to_tree

#: Seed used by every randomized suite unless the caller overrides it.
DEFAULT_SEED = 1729
#: Largest order verify_eq1 checks, and the trial counts of the
#: cut-vs-oracle and linear-vs-oracle suites, unless the caller overrides them.
DEFAULT_EQ1_N = 60
DEFAULT_CUT_TRIALS = 200
DEFAULT_LINEAR_TRIALS = 1000
#: The orders of linear-vs-oracle's random trees, and the largest
#: distance it compares on each.
LINEAR_N_RANGE = (2, 200)
LINEAR_K_MAX = 10


def _tree_codes(trials: int, seed: int) -> list[bytes]:
    """The Prufer codes of trials random trees with orders in
    LINEAR_N_RANGE, drawn from Random(seed) as random_tree draws them
    (the order, then n - 2 entries), so each decodes (_code_tree) to the
    tree random_tree(rng.randint(*LINEAR_N_RANGE), rng) would build.
    Kept as bytes: every entry is below the order, at most 200."""
    rng = random.Random(seed)
    codes = []
    for _ in range(trials):
        n = rng.randint(*LINEAR_N_RANGE)
        codes.append(bytes(rng.randrange(n) for _ in range(n - 2)))
    return codes


def _code_tree(code: bytes) -> Graph:
    """The labelled tree a Prufer code encodes."""
    return prufer_to_tree(code, len(code) + 2)


def _scan(
    n: int, kernel: Callable[[Sequence[int], range], int]
) -> tuple[list[int], tuple[bytes, ...]]:
    """kernel(parent, order) of every free tree on n vertices, on the
    parent array of its centre-rooted level sequence in reversed
    preorder: the values, and the order's cached parent arrays they
    came from."""
    order = range(n - 1, -1, -1)
    parents = free_tree_parents(n)
    return fanout(lambda parent: kernel(parent, order), parents), parents


def _forms(values: list[int], parents: tuple[bytes, ...], value: int) -> list[str]:
    """Canonical forms of the scanned trees whose value is value, named
    from their parent arrays, in walk order."""
    order = range(len(parents[0]) - 1, -1, -1)
    return [_form(parent, order) for parent, v in zip(parents, values) if v == value]


def verify_max_wk(n: int, k: int) -> dict:
    """Scan all trees on n vertices and compare the largest distance-k
    pair count with the closed form (odd k) or the balanced-group
    search (even k)."""
    if k < 3:
        raise InfeasibleSpecError("extremal distance claims need k >= 3")
    if k % 2:
        predicted, spec = max_wk_odd(n, k)
    else:
        predicted, spec = max_wk_even(n, k)
    values, _ = _scan(n, lambda parent, order: tree_wk(parent, order, k))
    observed = max(values)
    witness_value = wiener_polynomial(gen_tree(spec)).coefficient(k)
    return {
        "claim": "max-wk",
        "n": n,
        "k": k,
        "parity": "odd" if k % 2 else "even",
        "predicted": predicted,
        "observed": observed,
        "maximizer_count": values.count(observed),
        "witness": spec.describe(),
        "witness_value": witness_value,
        "pass": observed == predicted == witness_value,
    }


def verify_max_tw3(n: int) -> dict:
    """Scan all trees on n vertices for the largest distance sum over
    degree-3 pairs; the symmetric caterpillar must attain it, and must
    be the unique maximizer once n > 4.

    The uniqueness clause is false at n = 5: a 5-vertex tree has at most
    one vertex of degree 3, so all three trees of that order have
    TW_3 = 0 and tie.  The claim is checked as stated, so the report for
    n = 5 has "pass": false on purpose."""
    predicted, spec = max_tw3(n)
    values, parents = _scan(n, lambda parent, order: tree_twk(parent, order, 3)[0])
    observed = max(values)
    maximizers = _forms(values, parents, observed)
    witness_tree = gen_tree(spec)
    witness_value = twk(witness_tree, 3)
    witness_is_max = canonical_form(witness_tree) in maximizers
    unique = len(maximizers) == 1
    return {
        "claim": "max-tw3",
        "n": n,
        "p": spec.p,
        "predicted": predicted,
        "observed": observed,
        "maximizer_count": len(maximizers),
        "unique": unique,
        "witness": spec.describe(),
        "witness_value": witness_value,
        "witness_is_maximizer": witness_is_max,
        "pass": (
            observed == predicted == witness_value
            and (n <= 4 or (unique and witness_is_max))
        ),
    }


def verify_degree_count(n: int, k: int) -> dict:
    """Scan all trees on n vertices for the largest number of degree-k
    vertices and compare with floor((n-2)/(k-1))."""
    predicted = max_degree_count(n, k)
    observed = max(_scan(n, lambda parent, order: tree_twk(parent, order, k)[1])[0])
    return {
        "claim": "degree-count",
        "n": n,
        "k": k,
        "predicted": predicted,
        "observed": observed,
        "pass": observed == predicted,
    }


def verify_wiener_bounds(n: int) -> dict:
    """Scan all trees on n vertices: the distance sum must range from
    (n-1)^2 (star, uniquely) to binomial(n+1, 3) (path, uniquely)."""
    values, parents = _scan(n, tree_wiener)
    star, path = TreeSpec.star(n), TreeSpec.path(n)
    lo_pred, hi_pred = star.predicted()["wiener"], path.predicted()["wiener"]
    lo, hi = min(values), max(values)
    lo_forms, hi_forms = _forms(values, parents, lo), _forms(values, parents, hi)
    star_form = canonical_form(gen_tree(star))
    path_form = canonical_form(gen_tree(path))
    return {
        "claim": "wiener-bounds",
        "n": n,
        "min_predicted": lo_pred,
        "min_observed": lo,
        "min_unique_star": lo_forms == [star_form],
        "max_predicted": hi_pred,
        "max_observed": hi,
        "max_unique_path": hi_forms == [path_form],
        "pass": (
            lo == lo_pred
            and hi == hi_pred
            and lo_forms == [star_form]
            and hi_forms == [path_form]
        ),
    }


def verify_eq1(max_n: int = DEFAULT_EQ1_N) -> dict:
    """Compare the caterpillar closed form against the oracle on every
    feasible (n, k, p) with n up to max_n."""
    cases = [
        (n, k, p)
        for n in range(2, max_n + 1)
        for k in range(3, n)
        for p in range((n - 2) // (k - 1) + 1)
    ]

    def check(case: tuple[int, int, int]) -> tuple[int, int] | None:
        n, k, p = case
        spec = TreeSpec.caterpillar(n, k, p)
        formula = spec.predicted()["twk"]
        oracle = twk(gen_tree(spec), k)
        return None if formula == oracle else (formula, oracle)

    mismatches = [
        {"n": n, "k": k, "p": p, "formula": diff[0], "oracle": diff[1]}
        for (n, k, p), diff in zip(cases, fanout(check, cases))
        if diff
    ]
    return {
        "claim": "eq1",
        "max_n": max_n,
        "cases": len(cases),
        "mismatch_count": len(mismatches),
        "mismatches": mismatches[:10],
        "pass": bool(cases) and not mismatches,
    }


def verify_coronene(k: int) -> dict:
    """Check the three routes to the coronene degree-3 distance sum
    (closed form, cut decomposition, oracle) and the cut profile."""
    h = gen_coronene(k)
    formula = coronene_tw3(k)
    partition = theta_classes(h.graph)
    cut = twk_cut(h.graph, 3, partition)
    oracle = twk(h.graph, 3)
    try:
        horizontal_cut_profile(h, partition)
        profile_ok = True
        profile_err = None
    except RuntimeError as exc:
        profile_ok = False
        profile_err = str(exc)
    report = {
        "claim": "coronene",
        "k": k,
        "n": h.graph.n,
        "formula": formula,
        "cut": cut,
        "oracle": oracle,
        "profile_ok": profile_ok,
        "pass": formula == cut == oracle and profile_ok,
    }
    if profile_err:
        report["profile_error"] = profile_err
    return report


def verify_linear_vs_oracle(trials: int = DEFAULT_LINEAR_TRIALS, seed: int = DEFAULT_SEED) -> dict:
    """Random labeled trees with orders in LINEAR_N_RANGE: the tree
    route must match the pair counts of the oracle's distance histogram
    for every k up to LINEAR_K_MAX."""
    codes = _tree_codes(trials, seed)

    def check(code: bytes) -> list[tuple[int, int, int]] | None:
        g = _code_tree(code)
        poly = wiener_polynomial(g)
        rt = RootedTree.of(g)
        diffs = []
        for k in range(1, LINEAR_K_MAX + 1):
            got, want = wk_linear(rt, k), poly.coefficient(k)
            if got != want:
                diffs.append((k, got, want))
        return diffs or None

    mismatches = [
        {"trial": trial, "n": len(code) + 2, "k": k, "linear": got, "oracle": want}
        for trial, (code, diffs) in enumerate(zip(codes, fanout(check, codes)))
        for k, got, want in diffs or ()
    ]
    return {
        "claim": "linear-vs-oracle",
        "trials": trials,
        "seed": seed,
        "n_range": list(LINEAR_N_RANGE),
        "k_max": LINEAR_K_MAX,
        "mismatch_count": len(mismatches),
        "mismatches": mismatches[:10],
        "pass": trials > 0 and not mismatches,
    }


def verify_cut_vs_oracle(
    trials: int = DEFAULT_CUT_TRIALS, seed: int = DEFAULT_SEED, include_families: bool = True
) -> dict:
    """Random trees (drawn as linear-vs-oracle draws them) plus the
    classic partial-cube families: the cut route must match the oracle
    for every degree present, all read from one index_report sweep per
    graph."""
    specs = [("tree", code) for code in _tree_codes(trials, seed)]
    if include_families:
        specs += [("C", n) for n in range(4, 41, 2)]
        specs += [("Q", d) for d in range(1, 7)]
        specs += [("H", k) for k in range(1, 5)]
    build = {"tree": _code_tree, "C": cycle_graph, "Q": hypercube_graph,
             "H": lambda k: gen_coronene(k).graph}

    def check(spec: tuple) -> tuple[int, list[tuple[int, int, int]]]:
        g = build[spec[0]](spec[1])
        partition = theta_classes(g)
        diffs = []
        by_degree = index_report(g).twk_by_degree
        for k, b in by_degree:
            a = twk_cut(g, k, partition)
            if a != b:
                diffs.append((k, a, b))
        return len(by_degree), diffs

    results = fanout(check, specs)
    comparisons = sum(count for count, _ in results)
    mismatches = [
        {"graph": f"tree-{i}" if kind == "tree" else f"{kind}{x}", "k": k, "cut": a, "oracle": b}
        for i, ((kind, x), (_, diffs)) in enumerate(zip(specs, results))
        for k, a, b in diffs
    ]
    return {
        "claim": "cut-vs-oracle",
        "trials": trials,
        "seed": seed,
        "families": include_families,
        "graphs_checked": len(specs),
        "comparisons": comparisons,
        "mismatch_count": len(mismatches),
        "mismatches": mismatches[:10],
        "pass": comparisons > 0 and not mismatches,
    }

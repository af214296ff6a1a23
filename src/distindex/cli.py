"""Command-line front end: compute indices, generate families, run
claim verifiers, enumerate trees.  All structured output is JSON on
stdout; --pretty switches to aligned key/value lines.

Exit codes: 0 success, 1 verification failure, 2 input error, 3 method
precondition failure, 4 disconnected input; errors.py gives each error
type its code.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from pathlib import Path

from .benzenoid import coronene_tw3, gen_coronene
from .errors import GraphError, NotATreeError
from .extremal import TreeSpec, gen_tree
from .graphs import (
    cycle_graph,
    dump_edge_list,
    edge_pairs,
    edge_slices,
    from_edge_list,
    hypercube_graph,
    parse_edge_ends,
)
from .indices import (
    index_report,
    twk,
    wiener,
    wiener_polynomial,
    wk,
    wk_star,
    twk_star,
    zagreb,
)
from .partial_cube import is_partial_cube, twk_cut
from .tree_linear import RootedTree, tree_twk, tree_zagreb, wiener_polynomial_linear, wk_linear
from .treegen import free_tree_count, free_tree_parents
from .verify import (
    DEFAULT_CUT_TRIALS,
    DEFAULT_EQ1_N,
    DEFAULT_LINEAR_TRIALS,
    DEFAULT_SEED,
    verify_coronene,
    verify_cut_vs_oracle,
    verify_degree_count,
    verify_eq1,
    verify_linear_vs_oracle,
    verify_max_tw3,
    verify_max_wk,
    verify_wiener_bounds,
)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parse_args reads
    it without changing it, so every main() call can share it."""
    ap = argparse.ArgumentParser(
        prog="distindex",
        description="Distance-based graph indices: computation, generation, verification.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    c = sub.add_parser("compute", help="compute indices of an edge-list graph")
    src = c.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", metavar="FILE", help="edge-list file")
    src.add_argument("--stdin", action="store_true", help="read edge list from stdin")
    c.add_argument(
        "--index",
        required=True,
        choices=["wk", "twk", "wiener", "poly", "zagreb", "wk-star", "twk-star", "all"],
    )
    c.add_argument("--k", type=int, help="distance (wk, wk-star) or degree (twk, twk-star)")
    c.add_argument("--method", choices=["oracle", "linear", "cut", "auto"], default="auto")
    c.add_argument("--pretty", action="store_true")
    c.add_argument("--no-timing", action="store_true", help="omit the elapsed_ms field")

    g = sub.add_parser("gen", help="generate a named graph family")
    g.add_argument(
        "--family",
        required=True,
        choices=[
            "path", "star", "cycle", "hypercube",
            "double-broom", "starlike-broom", "caterpillar", "coronene",
        ],
    )
    g.add_argument("--out", required=True, metavar="FILE")
    g.add_argument("--n", type=int, help="vertex count")
    g.add_argument("--k", type=int, help="distance (brooms) or rings (coronene)")
    g.add_argument("--kdeg", type=int, help="target degree (caterpillar)")
    g.add_argument("--p", type=int, help="number of degree-kdeg vertices (caterpillar)")
    g.add_argument("--a1", type=int, help="first pendant group size (double-broom)")
    g.add_argument("--a2", type=int, help="second pendant group size (double-broom)")
    g.add_argument("--parts", help="comma-separated pendant group sizes (starlike-broom)")
    g.add_argument("--d", type=int, help="dimension (hypercube)")
    g.add_argument("--pretty", action="store_true")

    v = sub.add_parser("verify", help="run a claim verifier")
    v.add_argument(
        "--claim",
        required=True,
        choices=[
            "max-wk", "max-tw3", "degree-count", "wiener-bounds",
            "eq1", "coronene", "cut-vs-oracle", "linear-vs-oracle",
        ],
    )
    v.add_argument("--n", type=int)
    v.add_argument("--k", type=int)
    v.add_argument("--trials", type=int)
    v.add_argument("--seed", type=int, default=DEFAULT_SEED)
    v.add_argument("--pretty", action="store_true")

    e = sub.add_parser("enumerate", help="list all free trees of one order")
    e.add_argument("--n", type=int, required=True)
    e.add_argument("--count-only", action="store_true")
    e.add_argument("--pretty", action="store_true")

    return ap


def _emit(payload: dict, pretty: bool) -> None:
    if pretty:
        width = max(len(key) for key in payload)
        for key in sorted(payload):
            value = payload[key]
            if isinstance(value, (dict, list)):
                value = json.dumps(value, sort_keys=True)
            print(f"{key:<{width}}  {value}")
    else:
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))


def _need(value, flag: str):
    if value is None:
        raise ValueError(f"missing required flag {flag}")
    return value


#: The indices with a tree kernel: the method each reports on a tree,
#: and the kernel, which reads the rooted tree and --k and returns the
#: document's index fields.  A tree is a partial cube whose classes are
#: its single edges, so its TW_k is the cut route's sum with no
#: verification.  --method linear and --method cut apply only to the
#: indices listed with them.
_TREE_METHOD = {
    "wk": ("linear", lambda t, k: {"wk": wk_linear(t, k)}),
    "poly": ("linear", lambda t, k: {"poly": list(wiener_polynomial_linear(t).coeffs)}),
    "twk": ("cut", lambda t, k: {"twk": tree_twk(t.parent, t.order, k)[0]}),
    "zagreb": ("oracle", lambda t, k: dict(zip(("m1", "m2"), tree_zagreb(t)))),
}


def _read_tree(text: str) -> RootedTree | None:
    """The rooted tree of an edge-list text, or None when its header has
    m != n - 1 or the leaf strip refuses it.

    The slices are stripped one at a time, so the flat list is never
    held.  A format error they raise passes through.  On None the caller
    reads the text again with parse_edge_ends, once the strip's tables
    and the slice iterator have gone with this frame, so that a format
    error in a later slice still comes before the graph error: every
    error is the one parse_edge_ends and from_edge_list raise, in the
    same order."""
    n, m, slices = edge_slices(text)
    if m != n - 1:
        return None
    try:
        return RootedTree.build(n, slices)
    except NotATreeError:
        return None


def _cmd_compute(args) -> dict:
    t0 = time.perf_counter()
    text = sys.stdin.read() if args.stdin else Path(args.input).read_text()
    index, k, method = args.index, args.k, args.method

    # A tree needs no Graph: the strip certifies and roots it.  Anything
    # else is built, so a bad input raises the error it always has, and
    # before any flag is checked.
    tree = g = None
    if index in _TREE_METHOD and method != "oracle":
        tree = _read_tree(text)
    if tree is not None:
        n = len(tree.order)
        del text  # freed before the kernel allocates
    else:
        n, ends = parse_edge_ends(text)
        del text  # freed before the Graph build allocates
        g = from_edge_list(n, edge_pairs(ends))
        del ends

    if index in ("wk", "wk-star", "twk-star") and (k is None or k < 1):
        raise ValueError(f"--index {index} needs --k >= 1")
    if index == "twk" and (k is None or k < 0):
        raise ValueError("--index twk needs --k >= 0")
    if method in ("linear", "cut"):
        served = [i for i, (m, _) in _TREE_METHOD.items() if m == method]
        if index not in served:
            raise ValueError(f"--method {method} applies to --index {' or '.join(served)}")
    if index in ("wiener", "poly", "zagreb") and k is not None and k < 0:
        raise ValueError(f"--index {index} needs --k >= 0")
    if method == "linear" and tree is None:
        raise NotATreeError("input graph is not a tree")

    partition = None
    if tree is not None:
        method, kernel = _TREE_METHOD[index]
    elif method == "auto" and index == "twk":
        verdict = is_partial_cube(g)
        method = "cut" if verdict.accepted else "oracle"
        partition = verdict.partition
    elif method == "auto":
        method = "oracle"

    payload: dict = {"n": n, "m": n - 1 if g is None else g.m, "index": index, "method": method}
    if k is not None:
        payload["k"] = k
    if tree is not None:
        payload.update(kernel(tree, k))
    elif index == "wiener":
        payload["wiener"] = wiener(g)
    elif index == "wk":
        payload["wk"] = wk(g, k)
    elif index == "poly":
        payload["poly"] = list(wiener_polynomial(g).coeffs)
    elif index == "twk":
        payload["twk"] = twk_cut(g, k, partition) if method == "cut" else twk(g, k)
    elif index == "zagreb":
        payload["m1"], payload["m2"] = zagreb(g.degrees(), g.edges())
    elif index == "wk-star":
        payload["wk_star"] = wk_star(g, k)
    elif index == "twk-star":
        payload["twk_star"] = twk_star(g, k)
    else:
        payload.update(index_report(g, star_k=k).as_dict())
    if not args.no_timing:
        payload["elapsed_ms"] = round((time.perf_counter() - t0) * 1000, 3)
    return payload


#: The families gen builds from a TreeSpec: the constructor and the
#: flags it reads, in argument order.  The payload's params are those
#: flags and predicted is TreeSpec.predicted().
_TREE_FAMILIES = {
    "path": (TreeSpec.path, ("n",)),
    "star": (TreeSpec.star, ("n",)),
    "double-broom": (TreeSpec.double_broom, ("k", "a1", "a2")),
    "starlike-broom": (TreeSpec.starlike_broom, ("k", "parts")),
    "caterpillar": (TreeSpec.caterpillar, ("n", "kdeg", "p")),
}


def _cmd_gen(args) -> dict:
    family = args.family
    predicted: dict = {}
    if family in _TREE_FAMILIES:
        build, flags = _TREE_FAMILIES[family]
        params = {flag: _need(getattr(args, flag), f"--{flag}") for flag in flags}
        if "parts" in params:
            raw = params["parts"]
            try:
                params["parts"] = [int(x) for x in raw.split(",")]
            except ValueError as exc:
                raise ValueError(f"--parts must be comma-separated integers, got {raw!r}") from exc
        spec = build(*params.values())
        graph = gen_tree(spec)
        predicted = spec.predicted()
    elif family == "cycle":
        n = _need(args.n, "--n")
        graph = cycle_graph(n)
        params = {"n": n}
    elif family == "hypercube":
        d = _need(args.d, "--d")
        graph = hypercube_graph(d)
        params = {"d": d}
    else:
        k = _need(args.k, "--k")
        graph = gen_coronene(k).graph
        params = {"k": k}
        predicted = {"tw3": coronene_tw3(k)}

    dump_edge_list(graph, args.out)
    payload = {
        "family": family,
        "params": params,
        "n": graph.n,
        "m": graph.m,
        "out": args.out,
    }
    if predicted:
        payload["predicted"] = predicted
    return payload


def _cmd_verify(args) -> dict:
    for value, flag in ((args.trials, "--trials"), (args.n, "--n")):
        if value is not None and value < 0:
            raise ValueError(f"{flag} must be >= 0")
    claim = args.claim
    if claim == "max-wk":
        return verify_max_wk(_need(args.n, "--n"), _need(args.k, "--k"))
    if claim == "max-tw3":
        return verify_max_tw3(_need(args.n, "--n"))
    if claim == "degree-count":
        return verify_degree_count(_need(args.n, "--n"), _need(args.k, "--k"))
    if claim == "wiener-bounds":
        return verify_wiener_bounds(_need(args.n, "--n"))
    if claim == "eq1":
        return verify_eq1(args.n if args.n is not None else DEFAULT_EQ1_N)
    if claim == "coronene":
        return verify_coronene(_need(args.k, "--k"))
    if claim == "cut-vs-oracle":
        trials = args.trials if args.trials is not None else DEFAULT_CUT_TRIALS
        return verify_cut_vs_oracle(trials=trials, seed=args.seed)
    trials = args.trials if args.trials is not None else DEFAULT_LINEAR_TRIALS
    return verify_linear_vs_oracle(trials=trials, seed=args.seed)


def _cmd_enumerate(args) -> dict:
    payload: dict = {"n": args.n}
    if args.count_only:
        payload["count"] = free_tree_count(args.n)
    else:
        edges: dict = {}  # one tuple per edge, shared by every tree that has it
        trees = [
            sorted(edges.setdefault(e, e) for e in zip(parent[1:], range(1, args.n)))
            for parent in free_tree_parents(args.n)
        ]
        payload["count"] = len(trees)
        payload["trees"] = trees
    return payload


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "compute": _cmd_compute,
        "gen": _cmd_gen,
        "verify": _cmd_verify,
        "enumerate": _cmd_enumerate,
    }
    try:
        payload = handlers[args.command](args)
    except (GraphError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", 2)
    _emit(payload, args.pretty)
    if args.command == "verify" and not payload.get("pass", False):
        return 1
    return 0


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()

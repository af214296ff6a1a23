"""In-memory span recorder for the traced run, and the layer metrics
derived from it.

The traced child wraps the package's public functions, in the module
namespaces where the CLI and the verifiers look them up, so a request
replays exactly the calls ``cli.main`` makes and each call sits inside a
span named ``<module>.<what>``.  Spans record request id, span id, parent
id, name, start and end; counters sit beside them.  A counter marked
"computed" is derived from input sizes under the current algorithm, one
marked "observed" is counted as it happens.
"""

from __future__ import annotations

import functools
import importlib
import statistics
from collections import Counter, defaultdict
from time import perf_counter

REQUEST = "cli.request"
VERDICTS = "partial_cube.verdicts"

#: Counter name -> how it is obtained.
COUNTERS = {
    "graphs.bytes_parsed": "observed",
    "tree_linear.table_cells": "computed: n * (k + 1) per distance_count_table",
    "partial_cube.theta_pairs": "computed: m * (m - 1) / 2 per verification that reaches the pair stage",
    VERDICTS: "observed, one count per CubeVerdict.reason",
    "indices.bfs_sources": "computed: BFS sweeps of the definitional oracle (sources + connectivity check)",
    "treegen.rooted_count": "observed: rooted level sequences generated",
    "treegen.free_count": "observed: free trees yielded",
    "verify.trees_scanned": "observed: trees a verify claim generated or enumerated",
}


class Tracer:
    """Spans of one replay, kept in memory until the replay ends."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.request: int = -1
        self.counters: Counter = Counter()
        self.claim_depth = 0

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([self.request, sid, parent, name, perf_counter(), None, None])
        self.stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][5] = perf_counter()
        self.stack.pop()

    def tag(self, sid: int, value: str) -> None:
        self.spans[sid][6] = value


def _wrap(tracer: Tracer, name: str, fn, after=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        sid = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(sid)
        if after is not None:
            after(sid, args, kwargs, result)
        return result

    return traced


def _wrap_generator(tracer: Tracer, name: str | None, counter: str, fn):
    """Each next() of the generator is one span (none when name is None);
    counter counts the items.  Free trees yielded inside a verify claim
    also count as scanned."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        it = fn(*args, **kwargs)
        while True:
            sid = tracer.open(name) if name else None
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                if sid is not None:
                    tracer.close(sid)
            tracer.counters[counter] += 1
            if tracer.claim_depth and counter == "treegen.free_count":
                tracer.counters["verify.trees_scanned"] += 1
            yield item

    return traced


def install(tracer: Tracer) -> None:
    """Wrap the package's layer functions for one traced process."""
    mods = {name: importlib.import_module(f"distindex.{name}") for name in (
        "graphs", "extremal", "benzenoid", "treegen", "tree_linear",
        "partial_cube", "indices", "verify", "cli")}
    c = tracer.counters

    def scanned(sid, args, kwargs, result):
        if tracer.claim_depth:
            c["verify.trees_scanned"] += 1

    def parsed(sid, args, kwargs, result):
        c["graphs.bytes_parsed"] += len(args[0])

    def cells(sid, args, kwargs, result):
        c["tree_linear.table_cells"] += args[0].graph.n * (args[1] + 1)

    def verdict(sid, args, kwargs, result):
        reason = result.reason or "accepted"
        c[f"{VERDICTS}.{reason}"] += 1
        if not result.accepted:
            tracer.tag(sid, "reject")
        if reason not in ("disconnected", "not_bipartite"):
            c["partial_cube.theta_pairs"] += args[0].m * (args[0].m - 1) // 2

    def classes(sid, args, kwargs, result):
        c["partial_cube.theta_pairs"] += args[0].m * (args[0].m - 1) // 2

    def bfs(fn_name):
        def count(sid, args, kwargs, result):
            g = args[0]
            if fn_name == "twk":
                sources = sum(1 for d in g.degrees() if d == args[1])
            elif fn_name == "twk_star":
                sources = sum(1 for d in g.degrees() if d <= args[1])
            else:
                sources = g.n
            c["indices.bfs_sources"] += sources + (g.n > 1)
        return count

    def claim(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            tracer.claim_depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.claim_depth -= 1
        return inner

    # (home module, attribute, namespaces to patch, span name, hook)
    plain = [
        ("graphs", "parse_edge_list", ("graphs", "cli"), "graphs.parse", parsed),
        ("graphs", "from_edge_list", ("graphs",), "graphs.build", None),
        ("graphs", "is_tree", ("cli",), "graphs.is_tree", None),
        ("graphs", "dump_edge_list", ("graphs", "cli"), "graphs.dump", None),
        ("extremal", "gen_tree", ("extremal", "cli", "verify"), "extremal.gen_tree", scanned),
        ("benzenoid", "gen_coronene", ("benzenoid", "cli", "verify"), "benzenoid.gen", None),
        ("treegen", "random_tree", ("treegen", "verify"), "treegen.random_tree", scanned),
        ("tree_linear", "distance_count_table", ("tree_linear", "cli", "verify"),
         "tree_linear.table", cells),
        ("tree_linear", "wk_linear", ("tree_linear", "cli", "verify"), "tree_linear.count", None),
        ("cli", "_tree_diameter", ("cli",), "tree_linear.diameter", None),
        ("partial_cube", "is_partial_cube", ("partial_cube", "cli"), "partial_cube.verify", verdict),
        ("partial_cube", "theta_classes", ("verify", "benzenoid"), "partial_cube.classes", classes),
        ("partial_cube", "twk_cut", ("cli", "verify"), "partial_cube.cut", None),
        ("indices", "zagreb_m1", ("indices", "cli"), "indices.zagreb", None),
        ("indices", "zagreb_m2", ("indices", "cli"), "indices.zagreb", None),
        ("indices", "index_report", ("indices", "cli"), "indices.report", None),
        ("treegen", "canonical_form", ("treegen", "verify"), "treegen.canon", None),
        ("cli", "_emit", ("cli",), "cli.emit", None),
    ]
    plain += [("indices", fn, ("indices", "cli", "verify"), "indices.oracle", bfs(fn))
              for fn in ("wiener", "wk", "wiener_polynomial", "twk", "wk_star", "twk_star")]
    plain += [("verify", fn, ("verify", "cli"), "verify.claim", None)
              for fn in ("verify_extremal", "verify_eq1", "verify_coronene",
                         "verify_cut_vs_oracle", "verify_linear_vs_oracle")]
    for home, attr, spaces, name, hook in plain:
        fn = getattr(mods[home], attr, None)
        if fn is None:
            continue
        traced = _wrap(tracer, name, fn, hook)
        if name == "verify.claim":
            traced = claim(traced)
        for space in spaces:
            if getattr(mods[space], attr, None) is fn:
                setattr(mods[space], attr, traced)

    generators = [
        ("all_free_trees", ("treegen", "cli", "verify"), "treegen.enum", "treegen.free_count"),
        ("rooted_level_sequences", ("treegen",), None, "treegen.rooted_count"),
    ]
    for attr, spaces, name, counter in generators:
        fn = getattr(mods["treegen"], attr, None)
        if fn is None:
            continue
        traced = _wrap_generator(tracer, name, counter, fn)
        for space in spaces:
            if getattr(mods[space], attr, None) is fn:
                setattr(mods[space], attr, traced)

    rooted = mods["tree_linear"].RootedTree
    rooted.build = staticmethod(_wrap(tracer, "tree_linear.root", rooted.build))


# --- layer metrics from recorded spans ---

#: Layer time metric -> span name whose summed self time it reports.
SELF_TIME = {
    "graphs.parse_s": "graphs.parse",
    "graphs.build_s": "graphs.build",
    "graphs.is_tree_s": "graphs.is_tree",
    "tree_linear.root_s": "tree_linear.root",
    "tree_linear.table_s": "tree_linear.table",
    "tree_linear.count_s": "tree_linear.count",
    "partial_cube.verify_s": "partial_cube.verify",
    "partial_cube.classes_s": "partial_cube.classes",
    "indices.oracle_s": "indices.oracle",
    "indices.report_s": "indices.report",
    "indices.zagreb_s": "indices.zagreb",
    "treegen.enum_s": "treegen.enum",
    "treegen.canon_s": "treegen.canon",
    "verify.claim_s": "verify.claim",
    "cli.emit_s": "cli.emit",
    "cli.dispatch_s": REQUEST,
}

#: Layer time metrics of the set-up phase.
SETUP_TIME = {
    "graphs.dump_s": "graphs.dump",
    "extremal.gen_tree_s": "extremal.gen_tree",
    "benzenoid.gen_s": "benzenoid.gen",
    "treegen.random_tree_s": "treegen.random_tree",
}

#: Pipeline stages of a request: parse -> build -> certify -> compute -> emit.
CERTIFY = {"graphs.is_tree", "partial_cube.verify"}
NOT_COMPUTE = CERTIFY | {"graphs.parse", "graphs.build", "cli.emit", REQUEST}

POLY_ROUTE = {"tree_linear.root", "tree_linear.table", "tree_linear.count", "tree_linear.diameter"}


def self_times(spans: list[list]) -> list[float]:
    """Per span: its duration minus the time its direct children cover."""
    own = [s[5] - s[4] for s in spans]
    for s in spans:
        if s[2] is not None:
            own[s[2]] -= s[5] - s[4]
    return own


def _self_time_by_name(spans: list[list]) -> tuple[list[float], dict[str, float]]:
    own = self_times(spans)
    by_name: dict[str, float] = defaultdict(float)
    for s, t in zip(spans, own):
        by_name[s[3]] += t
    return own, by_name


def setup_metrics(spans: list[list]) -> dict:
    """Summed self times of the set-up layers (seconds)."""
    by_name = _self_time_by_name(spans)[1]
    return {metric: by_name.get(name, 0.0) for metric, name in SETUP_TIME.items()}


def layer_metrics(spans: list[list], counters: dict, requests: list[dict]) -> dict:
    """Summed self times per layer of one replay (seconds) plus the counters."""
    own, by_name = _self_time_by_name(spans)
    out = {metric: by_name.get(name, 0.0) for metric, name in SELF_TIME.items()}
    out["partial_cube.reject_s"] = sum(
        t for s, t in zip(spans, own) if s[3] == "partial_cube.verify" and s[6] == "reject")
    out["partial_cube.cut_s"] = sum(s[5] - s[4] for s in spans if s[3] == "partial_cube.cut")
    poly = {i for i, r in enumerate(requests) if "poly" in r["argv"]}
    out["tree_linear.poly_s"] = sum(
        t for s, t in zip(spans, own) if s[3] in POLY_ROUTE and s[0] in poly)
    out["stage.certify_s"] = sum(by_name.get(name, 0.0) for name in CERTIFY)
    out["stage.compute_s"] = sum(t for name, t in by_name.items() if name not in NOT_COMPUTE)
    for name in COUNTERS:
        if name != VERDICTS:
            out[name] = counters.get(name, 0)
    verdicts = {k: v for k, v in counters.items() if k.startswith(VERDICTS + ".")}
    out.update(verdicts)
    total = sum(verdicts.values())
    out["partial_cube.accept_ratio"] = (
        counters.get(VERDICTS + ".accepted", 0) / total if total else 0.0)
    rooted = counters.get("treegen.rooted_count", 0)
    out["treegen.useful_ratio"] = counters.get("treegen.free_count", 0) / rooted if rooted else 0.0
    return out


def bases(metrics: dict) -> dict:
    """The denominator behind each ratio metric."""
    verdicts = sum(v for k, v in metrics.items() if k.startswith(VERDICTS + "."))
    return {"partial_cube.accept_ratio": f"accepted / {verdicts} verdicts",
            "treegen.useful_ratio": f"free / {metrics.get('treegen.rooted_count', 0)} rooted"}


def median_metrics(runs: list[dict]) -> dict:
    keys = sorted({k for run in runs for k in run})
    return {k: statistics.median(run.get(k, 0) for run in runs) for k in keys}

"""Seeded request streams for the three benchmark workloads.

A plan is plain JSON: ``inputs`` maps a file name to the generator spec
that produces it, and ``requests`` is the ordered list of CLI argument
vectors one client sends, each naming at most one input.  The sizes, the
mix, the k values and the order of each stream are fixed; the seed only
draws the random trees and graphs and the family parameters that leave
the cost unchanged, so two seeds cost about the same to serve.

``materialize`` turns the specs into edge-list files using the package's
own generators and ``dump_edge_list``; it is what set-up time measures.
"""

from __future__ import annotations

import random
from collections.abc import Iterator
from pathlib import Path

WORKLOADS = ("tree-stream", "cube-stream", "claim-scan")

#: Input files live here, relative to the directory requests run in.
INPUT_DIR = "in"

#: Deterministic verify claims of claim-scan; their documents are recorded
#: in expected_claims.json.  Order is shuffled per seed.  Every claim runs
#: at n = 5..11; max-wk and max-tw3 also run at n = 12.  A claim costs
#: about three times more per step in n, so larger orders would leave too
#: few replays in a run for steady medians.  The tail percentile falls
#: among the six claims of 100-130 ms at n = 11.
CLAIM_ARGVS = (
    [["verify", "--claim", "max-wk", "--n", str(n), "--k", str(k)]
     for n in range(5, 13) for k in (3, 4)]
    + [["verify", "--claim", "max-tw3", "--n", str(n)] for n in range(5, 13)]
    + [["verify", "--claim", "degree-count", "--n", str(n), "--k", "3"]
       for n in range(5, 12)]
    + [["verify", "--claim", "wiener-bounds", "--n", str(n)] for n in range(5, 12)]
    + [["verify", "--claim", "eq1", "--n", str(n)] for n in (20, 30)]
    + [["verify", "--claim", "coronene", "--k", str(k)] for k in range(3, 7)]
)

#: Trials for the seeded equivalence suites in claim-scan.
LINEAR_TRIALS = 20
CUT_TRIALS = 10

#: enumerate --count-only orders, and the order of the one full listing.
ENUM_COUNT_ORDERS = (11, 12)
ENUM_LIST_ORDER = 12


class _Plan:
    def __init__(self, workload: str, seed: int):
        self.rng = random.Random(f"{workload}:{seed}")
        self.workload = workload
        self.seed = seed
        self.inputs: dict[str, dict] = {}
        self.requests: list[dict] = []

    def add_input(self, spec: dict) -> str:
        name = f"g{len(self.inputs):03d}.txt"
        if "seed" in spec:
            spec["seed"] = f"{self.workload}:{self.seed}:{name}"
        self.inputs[name] = spec
        return name

    def compute(self, name: str, index: str, k: int | None = None,
                method: str | None = None) -> None:
        argv = ["compute", "--input", f"{INPUT_DIR}/{name}", "--index", index]
        if k is not None:
            argv += ["--k", str(k)]
        if method is not None:
            argv += ["--method", method]
        self.requests.append({"argv": argv + ["--no-timing"], "input": name})

    def command(self, argv: list[str]) -> None:
        self.requests.append({"argv": list(argv), "input": None})

    def done(self) -> dict:
        random.Random(self.workload).shuffle(self.requests)
        return {"workload": self.workload, "seed": self.seed,
                "inputs": self.inputs, "requests": self.requests}


def _tree_spec(rng: random.Random, n: int, family: str, k: int) -> dict:
    """A tree with n vertices from one of the benchmark families; k is the
    broom distance.  The seed draws only what leaves the cost unchanged."""
    if family == "random":
        return {"kind": "random_tree", "n": n, "seed": None}
    if family == "path":
        return {"kind": "path", "n": n}
    if family == "caterpillar":
        kdeg = 3 + k % 4
        p = rng.randint(1, (n - 2) // (kdeg - 1))
        return {"kind": "caterpillar", "n": n, "kdeg": kdeg, "p": p}
    if family == "double_broom":
        a1 = rng.randint(1, n - k)
        return {"kind": "double_broom", "k": k, "a1": a1, "a2": n - k + 1 - a1}
    k += k % 2
    arms = 3 + k % 4
    q = n - 1 - arms * (k // 2 - 1)
    cuts = sorted(rng.sample(range(1, q), arms - 1))
    parts = [b - a for a, b in zip([0] + cuts, cuts + [q])]
    return {"kind": "starlike_broom", "k": k, "parts": parts}


#: Tree families in the order tree-stream cycles through them.
TREE_FAMILIES = ("random", "path", "random", "caterpillar", "double_broom",
                 "random", "starlike_broom")


def tree_stream(seed: int) -> dict:
    """W_k (k = 2..8) on trees of 10^3 to 2*10^5 vertices, Zagreb requests
    on some of the same files, and polynomial requests on 200-400
    vertices.  Files up to 10^4 vertices get two requests, as a caller
    asking a tree for several indices sends them.  A replay takes about
    4 s, so a 30-s run holds seven or more replays."""
    plan = _Plan("tree-stream", seed)
    rng = plan.rng
    plan.compute(plan.add_input({"kind": "path", "n": 200_000}), "wk", 5)
    plan.compute(plan.add_input(_tree_spec(rng, 50_000, "random", 3)), "wk", 3)
    # Ten near-equal requests (k = 4..6) on 10^4 vertices: the tail
    # percentile falls among them rather than between unlike requests.
    for i, family in enumerate(TREE_FAMILIES[:5]):
        spec = _tree_spec(rng, 10_000, family, 4 + i % 3)
        name = plan.add_input(spec)
        plan.compute(name, "wk", spec.get("k", 4 + i % 3))
        plan.compute(name, "wk", 4 + (i + 1) % 3)
    # Eighty requests on 10^3..5*10^3 vertices, spread through the stream,
    # so that the median samples the whole replay rather than a few moments.
    for i in range(40):
        n = round(1000 * 5 ** (i / 39))
        family = TREE_FAMILIES[i % len(TREE_FAMILIES)]
        spec = _tree_spec(rng, n, family, 3 + i % 6)
        name = plan.add_input(spec)
        k = spec["k"] if "broom" in family else 2 + i % 7
        plan.compute(name, "wk", k)
        if i % 4 == 1:
            plan.compute(name, "zagreb")
        else:
            plan.compute(name, "wk", 2 + (k + 3) % 7)
    for n in (200, 300, 400):
        plan.compute(plan.add_input({"kind": "random_tree", "n": n, "seed": None}), "poly")
    # Long-diameter trees: the linear polynomial route costs n * diam^2.
    for spec in ({"kind": "double_broom", "k": 60, "a1": 50, "a2": 51},
                 {"kind": "caterpillar", "n": 250, "kdeg": 3, "p": 60},
                 {"kind": "starlike_broom", "k": 60, "parts": [20, 20, 21]}):
        plan.compute(plan.add_input(spec), "poly")
    return plan.done()


def cube_stream(seed: int) -> dict:
    """Mid-size graphs, about half partial cubes (auto picks cut) and half
    not (the verifier rejects and auto falls back to the oracle)."""
    plan = _Plan("cube-stream", seed)
    rng = plan.rng

    def twk(name: str, k: int, method: str | None = None) -> None:
        plan.compute(name, "twk", k, method)

    for k in (4, 6, 8, 10, 12):
        twk(plan.add_input({"kind": "coronene", "k": k}), 2 + k % 4 // 2)
    plan.compute(plan.add_input({"kind": "coronene", "k": 8}), "all", 3)
    plan.compute(plan.add_input({"kind": "coronene", "k": 14}), "wiener")
    plan.compute(plan.add_input({"kind": "coronene", "k": 16}), "poly")
    for d in (5, 6, 7, 8, 9):
        twk(plan.add_input({"kind": "hypercube", "d": d}), d)
    for a, b in ((10, 12), (15, 20), (20, 30)):
        twk(plan.add_input({"kind": "grid", "a": a, "b": b}), 2 + a % 4 // 2)
    for n in (100, 200, 300, 400):
        twk(plan.add_input({"kind": "cycle", "n": n}), 2)
    for n in (200, 300):
        spec = {"kind": "caterpillar", "n": n, "kdeg": 3, "p": rng.randint(20, 60)}
        twk(plan.add_input(spec), 3)

    for i, n in enumerate((101, 201, 301, 401)):
        name = plan.add_input({"kind": "cycle", "n": n})
        twk(name, 2)
        plan.compute(name, ("wiener", "all")[i % 2], 2)
    # Twenty random graphs of one size, two near-equal requests each: the
    # median latency falls among them rather than between unlike requests.
    for kind in ("random_bipartite", "random_graph"):
        for i in range(10):
            name = plan.add_input({"kind": kind, "n": 300, "extra": 100, "seed": None})
            twk(name, 2 + i % 2)
            plan.compute(name, ("poly", "wiener")[i % 2], 2)
            if i < 2:
                twk(name, 2, "cut")
    return plan.done()


def claim_scan(seed: int) -> dict:
    """verify claims at n = 5..12, the seeded equivalence suites,
    enumeration counts at n = 11..12, one full listing, and the extremal
    witnesses of each order run through compute."""
    from distindex.extremal import max_wk_odd

    plan = _Plan("claim-scan", seed)
    for argv in CLAIM_ARGVS:
        plan.command(argv)
    plan.command(["verify", "--claim", "linear-vs-oracle",
                  "--trials", str(LINEAR_TRIALS), "--seed", str(seed)])
    plan.command(["verify", "--claim", "cut-vs-oracle",
                  "--trials", str(CUT_TRIALS), "--seed", str(seed)])
    for n in ENUM_COUNT_ORDERS:
        plan.command(["enumerate", "--n", str(n), "--count-only"])
    plan.command(["enumerate", "--n", str(ENUM_LIST_ORDER)])
    for n in range(5, 13):
        broom = max_wk_odd(n, 3)[1]
        plan.compute(plan.add_input({"kind": "double_broom", "k": 3,
                                     "a1": broom.a1, "a2": broom.a2}), "wk", 3)
        plan.compute(plan.add_input({"kind": "caterpillar", "n": n, "kdeg": 3,
                                     "p": n // 2 - 1}), "twk", 3)
    return plan.done()


def build(workload: str, seed: int) -> dict:
    return {"tree-stream": tree_stream, "cube-stream": cube_stream,
            "claim-scan": claim_scan}[workload](seed)


# --- input generation (runs in the set-up child, inside the timed region) ---

def _grid(a: int, b: int):
    from distindex.graphs import from_edge_list

    edges = [(i * b + j, i * b + j + 1) for i in range(a) for j in range(b - 1)]
    edges += [(i * b + j, (i + 1) * b + j) for i in range(a - 1) for j in range(b)]
    return from_edge_list(a * b, edges)


def _random_graph(n: int, extra: int, rng: random.Random, bipartite: bool):
    """A random labelled tree plus extra edges.  Bipartite graphs keep the
    tree's 2-colouring and get a planted K_{2,3}, which no partial cube
    contains; the others get at least one edge inside a colour class."""
    from distindex.graphs import from_edge_list, two_coloring
    from distindex.treegen import random_tree

    tree = random_tree(n, rng)
    color = two_coloring(tree)
    sides = ([v for v in range(n) if color[v] == 0], [v for v in range(n) if color[v] == 1])
    edges = set(tree.edges())

    def add(u: int, v: int) -> None:
        edges.add((min(u, v), max(u, v)))

    if bipartite:
        a, b = rng.sample(sides[0], 2)
        for c in rng.sample(sides[1], 3):
            add(a, c)
            add(b, c)
        while len(edges) < n - 1 + extra:
            add(rng.choice(sides[0]), rng.choice(sides[1]))
    else:
        add(*rng.sample(sides[0], 2))
        while len(edges) < n - 1 + extra:
            add(*rng.sample(range(n), 2))
    return from_edge_list(n, sorted(edges))


def make_graph(spec: dict):
    """The graph a spec describes, built by the package's generators."""
    from distindex import extremal, graphs, treegen
    from distindex.benzenoid import gen_coronene

    kind = spec["kind"]
    if kind == "random_tree":
        return treegen.random_tree(spec["n"], random.Random(spec["seed"]))
    if kind == "path":
        return extremal.gen_tree(extremal.TreeSpec.path(spec["n"]))
    if kind == "caterpillar":
        return extremal.gen_tree(extremal.TreeSpec.caterpillar(spec["n"], spec["kdeg"], spec["p"]))
    if kind == "double_broom":
        return extremal.gen_tree(extremal.TreeSpec.double_broom(spec["k"], spec["a1"], spec["a2"]))
    if kind == "starlike_broom":
        return extremal.gen_tree(extremal.TreeSpec.starlike_broom(spec["k"], tuple(spec["parts"])))
    if kind == "coronene":
        return gen_coronene(spec["k"]).graph
    if kind == "hypercube":
        return graphs.hypercube_graph(spec["d"])
    if kind == "cycle":
        return graphs.cycle_graph(spec["n"])
    if kind == "grid":
        return _grid(spec["a"], spec["b"])
    if kind in ("random_bipartite", "random_graph"):
        return _random_graph(spec["n"], spec["extra"], random.Random(spec["seed"]),
                             kind == "random_bipartite")
    raise ValueError(f"unknown input kind {kind!r}")


def materialize(plan: dict, workdir: Path) -> Iterator[str]:
    """Generate and write every input file of a plan, yielding each name
    once its file is written."""
    from distindex import graphs

    out = workdir / INPUT_DIR
    out.mkdir(parents=True, exist_ok=True)
    for name, spec in plan["inputs"].items():
        graphs.dump_edge_list(make_graph(spec), out / name)
        yield name

"""Expected outputs for every request, from references that share no code
with the routes under test.

- Graph indices come from the input files, read with numpy and measured
  with scipy: all-pairs BFS distances for graphs of a few thousand
  vertices, and for trees of any size W_k from ancestor columns
  (col_i[v] = descendants of v exactly i levels down), using
  2 W_k = 2 sum col_k + sum_{i=1}^{k-1} (sum_v col_i[v] col_{k-i}[v]
  - sum_{c != root} col_{i-1}[c] col_{k-1-i}[c]).
- Partial-cube status is known by construction: trees, even cycles,
  grids, hypercubes and coronenes are partial cubes; odd cycles and the
  random non-bipartite graphs are not bipartite, and every random
  bipartite graph contains K_{2,3}, which no partial cube does.  Both
  certificates are re-checked here.
- Deterministic verify documents are the recorded ones in
  expected_claims.json; the seeded suites' documents are rebuilt from the
  seed; enumeration counts are the known free-tree counts (OEIS A000055),
  and the full listing is checked by check.py.

A compute document is expected byte for byte: the reference values are
laid out the way the CLI documents them, with sorted keys.  This module
runs in a child process of its own, so the numpy and scipy memory never
reaches the processes whose peak RSS is measured.
"""

from __future__ import annotations

import json
import random
from functools import lru_cache
from pathlib import Path

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import breadth_first_order, connected_components, shortest_path

import streams
from check import FREE_TREES

#: All-pairs references are used up to this order (an n x n int64 matrix).
ALL_PAIRS_LIMIT = 2000

PARTIAL_CUBE_KINDS = {"random_tree", "path", "caterpillar", "double_broom",
                      "starlike_broom", "coronene", "hypercube", "grid"}

HERE = Path(__file__).resolve().parent


def dumps(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


class InputGraph:
    """One input file, read independently of the package's parser."""

    def __init__(self, path: Path, spec: dict):
        data = np.fromstring(path.read_text(), dtype=np.int64, sep=" ")
        self.n, self.m = int(data[0]), int(data[1])
        self.edges = data[2:].reshape(self.m, 2)
        self.spec = spec
        u, v = self.edges[:, 0], self.edges[:, 1]
        ones = np.ones(self.m, dtype=np.int8)
        self.adj = coo_matrix((np.concatenate([ones, ones]),
                               (np.concatenate([u, v]), np.concatenate([v, u]))),
                              shape=(self.n, self.n)).tocsr()
        self.deg = np.bincount(self.edges.ravel(), minlength=self.n)
        self.is_tree = (self.m == self.n - 1
                        and connected_components(self.adj, directed=False)[0] == 1)
        self._dist = None
        self._upper = None
        self._cols = None

    # -- partial-cube status, by construction, with its certificate --
    def is_partial_cube(self) -> bool:
        kind = self.spec["kind"]
        if kind in PARTIAL_CUBE_KINDS or (kind == "cycle" and self.n % 2 == 0):
            return True
        if kind == "random_bipartite":
            common = (self.adj.astype(np.int32) @ self.adj.astype(np.int32)).toarray()
            np.fill_diagonal(common, 0)
            if common.max() < 3 or not self._bipartite():
                raise AssertionError(f"{kind} input lacks its K_2,3 certificate")
            return False
        if self._bipartite():
            raise AssertionError(f"{kind} input is bipartite")
        return False

    def _bipartite(self) -> bool:
        d0 = shortest_path(self.adj, directed=False, unweighted=True, indices=0)
        parity = d0.astype(np.int64) % 2
        return bool(np.all(parity[self.edges[:, 0]] != parity[self.edges[:, 1]]))

    # -- distances --
    def dist(self) -> np.ndarray:
        if self._dist is None:
            if self.n > ALL_PAIRS_LIMIT:
                raise AssertionError(f"no all-pairs reference for n={self.n}")
            self._dist = shortest_path(self.adj, directed=False, unweighted=True).astype(np.int64)
        return self._dist

    def upper(self) -> np.ndarray:
        if self._upper is None:
            self._upper = self.dist()[np.triu_indices(self.n, 1)]
        return self._upper

    def poly(self) -> list[int]:
        return [int(x) for x in np.bincount(self.upper(), minlength=1)] if self.n > 1 else [0]

    def wk(self, k: int) -> int:
        if self.is_tree:
            return self.tree_wk(k)
        return int(np.count_nonzero(self.upper() == k))

    def tree_wk(self, k: int) -> int:
        cols = self._columns(k)
        root = self._root_mask
        total = 2 * int(cols[k].sum())
        for i in range(1, k):
            total += int(np.dot(cols[i], cols[k - i]))
            total -= int(np.dot(cols[i - 1][~root], cols[k - 1 - i][~root]))
        return total // 2

    def _columns(self, k: int) -> list[np.ndarray]:
        if self._cols is None or len(self._cols) <= k:
            n = self.n
            _, pred = breadth_first_order(self.adj, 0, directed=False, return_predecessors=True)
            parent = np.where(pred < 0, n, pred).astype(np.int64)
            parent = np.append(parent, n)
            self._root_mask = np.zeros(n, dtype=bool)
            self._root_mask[0] = True
            anc = np.arange(n, dtype=np.int64)
            cols = [np.ones(n, dtype=np.int64)]
            for _ in range(k):
                anc = parent[anc]
                cols.append(np.bincount(anc, minlength=n + 1)[:n].astype(np.int64))
            self._cols = cols
        return self._cols

    def wiener(self) -> int:
        return int(self.upper().sum())

    def twk(self, k: int, at_most: bool = False) -> int:
        chosen = np.flatnonzero(self.deg <= k if at_most else self.deg == k)
        return int(self.dist()[np.ix_(chosen, chosen)].sum()) // 2

    def wk_star(self, k: int) -> int:
        return int(np.count_nonzero(self.upper() <= k))

    def zagreb(self) -> tuple[int, int]:
        d = self.deg
        return int((d * d).sum()), int((d[self.edges[:, 0]] * d[self.edges[:, 1]]).sum())


def _option(argv: list[str], flag: str) -> str | None:
    return argv[argv.index(flag) + 1] if flag in argv else None


def compute_expectation(argv: list[str], g: InputGraph) -> dict:
    """Exit code and exact stdout the CLI must produce for one compute."""
    index = _option(argv, "--index")
    k = _option(argv, "--k")
    k = None if k is None else int(k)
    method = _option(argv, "--method") or "auto"
    if method == "auto":
        if index in ("wk", "poly"):
            method = "linear" if g.is_tree else "oracle"
        elif index == "twk":
            method = "cut" if g.is_partial_cube() else "oracle"
        else:
            method = "oracle"
    elif method == "cut" and not g.is_partial_cube():
        return {"rc": 3, "stdout": "", "stderr_prefix": "error: "}
    doc: dict = {"n": g.n, "m": g.m, "index": index, "method": method}
    if k is not None:
        doc["k"] = k
    if index == "wk":
        doc["wk"] = g.wk(k)
    elif index == "poly":
        doc["poly"] = g.poly()
    elif index == "wiener":
        doc["wiener"] = g.wiener()
    elif index == "twk":
        doc["twk"] = g.twk(k)
    elif index == "zagreb":
        doc["m1"], doc["m2"] = g.zagreb()
    elif index == "all":
        poly = g.poly()
        doc.update(wiener=g.wiener(), poly=poly,
                   twk_by_degree={str(d): g.twk(int(d)) for d in sorted(set(g.deg.tolist()))})
        doc["m1"], doc["m2"] = g.zagreb()
        if k is not None:
            doc.update(star_k=k, wk_star=g.wk_star(k), twk_star=g.twk(k, at_most=True))
    else:
        raise AssertionError(f"no reference for --index {index}")
    return {"rc": 0, "stdout": dumps(doc)}


def linear_vs_oracle_doc(trials: int, seed: int) -> dict:
    return {"claim": "linear-vs-oracle", "trials": trials, "seed": seed, "n_range": [2, 200],
            "k_max": 10, "mismatch_count": 0, "mismatches": [], "pass": True}


def cut_vs_oracle_doc(trials: int, seed: int) -> dict:
    """The suite draws its random trees from the package's generator; the
    comparison count is one per distinct degree of each graph."""
    from distindex.treegen import random_tree

    rng = random.Random(seed)
    comparisons = 0
    for _ in range(trials):
        comparisons += len(set(random_tree(rng.randint(2, 200), rng).degrees()))
    cycles, cubes = 19, 6                      # C_4..C_40 even, Q_1..Q_6: one degree each
    coronenes = [1, 2, 2, 2]                   # H_1 is a hexagon; H_2..H_4 have degrees 2, 3
    comparisons += cycles + cubes + sum(coronenes)
    return {"claim": "cut-vs-oracle", "trials": trials, "seed": seed, "families": True,
            "graphs_checked": trials + cycles + cubes + len(coronenes),
            "comparisons": comparisons, "mismatch_count": 0, "mismatches": [], "pass": True}


@lru_cache(maxsize=1)
def recorded_claims() -> dict:
    return json.loads((HERE / "expected_claims.json").read_text())


def command_expectation(argv: list[str]) -> dict:
    key = " ".join(argv)
    if argv[0] == "enumerate":
        n = int(_option(argv, "--n"))
        if "--count-only" in argv:
            return {"rc": 0, "stdout": dumps({"n": n, "count": FREE_TREES[n]})}
        return {"rc": 0, "listing": n}
    claim = _option(argv, "--claim")
    if claim == "linear-vs-oracle":
        doc = linear_vs_oracle_doc(int(_option(argv, "--trials")), int(_option(argv, "--seed")))
        return {"rc": 0, "stdout": dumps(doc)}
    if claim == "cut-vs-oracle":
        doc = cut_vs_oracle_doc(int(_option(argv, "--trials")), int(_option(argv, "--seed")))
        return {"rc": 0, "stdout": dumps(doc)}
    return dict(recorded_claims()[key])


def expectations(plan: dict, workdir: Path) -> list[dict]:
    """One expectation per request of the plan."""
    graphs: dict[str, InputGraph] = {}
    out = []
    for req in plan["requests"]:
        name = req["input"]
        if name is None:
            out.append(command_expectation(req["argv"]))
            continue
        if name not in graphs:
            graphs[name] = InputGraph(workdir / streams.INPUT_DIR / name, plan["inputs"][name])
        out.append(compute_expectation(req["argv"], graphs[name]))
    return out

"""Record the expected documents of claim-scan's deterministic verify
claims into expected_claims.json.

Each claim runs through ``distindex.cli.main`` as the benchmark runs it.
Before anything is written, the observed values in every document are
checked against networkx: its own free-tree generator and BFS distances,
which share no code with the package.  Run from the repository root:

    python3 bench/record_claims.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import networkx as nx

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(1, str(HERE))

import streams  # noqa: E402
from distindex import cli  # noqa: E402
from distindex.benzenoid import gen_coronene  # noqa: E402


def tree_stats(n: int) -> list[dict]:
    """Per free tree on n vertices: W_k by k, Wiener index, TW_3 and
    degree counts."""
    rows = []
    for t in nx.nonisomorphic_trees(n):
        dist = dict(nx.all_pairs_shortest_path_length(t))
        pairs = [dist[u][v] for u in t for v in t if u < v]
        deg3 = [v for v in t if t.degree(v) == 3]
        rows.append({
            "wk": {k: pairs.count(k) for k in range(1, n)},
            "wiener": sum(pairs),
            "tw3": sum(dist[u][v] for u in deg3 for v in deg3 if u < v),
            "deg": [t.degree(v) for v in t],
        })
    return rows


def independent(argv: list[str], doc: dict) -> list[str]:
    """Mismatches between a claim document and the networkx values."""
    claim = argv[argv.index("--claim") + 1]
    bad = []

    def expect(field, value):
        if doc[field] != value:
            bad.append(f"{field}={doc[field]} but networkx gives {value}")

    if claim == "coronene":
        g = nx.Graph(gen_coronene(doc["k"]).graph.edges())
        dist = dict(nx.all_pairs_shortest_path_length(g))
        deg3 = [v for v in g if g.degree(v) == 3]
        expect("oracle", sum(dist[u][v] for u in deg3 for v in deg3 if u < v))
        return bad
    if claim == "eq1":
        return [] if doc["mismatch_count"] == 0 else ["eq1 reports mismatches"]
    rows = tree_stats(doc["n"])
    if claim == "max-wk":
        values = [r["wk"][doc["k"]] for r in rows]
        expect("observed", max(values))
        expect("maximizer_count", values.count(max(values)))
    elif claim == "max-tw3":
        values = [r["tw3"] for r in rows]
        expect("observed", max(values))
        expect("maximizer_count", values.count(max(values)))
    elif claim == "degree-count":
        expect("observed", max(r["deg"].count(doc["k"]) for r in rows))
    elif claim == "wiener-bounds":
        values = [r["wiener"] for r in rows]
        expect("min_observed", min(values))
        expect("max_observed", max(values))
    return bad


def main() -> int:
    recorded = {}
    problems = []
    for argv in streams.CLAIM_ARGVS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli.main(argv)
        doc = json.loads(out.getvalue())
        if rc != (0 if doc["pass"] else 1):
            problems.append(f"{argv}: exit {rc} disagrees with pass={doc['pass']}")
        problems += [f"{' '.join(argv)}: {p}" for p in independent(argv, doc)]
        recorded[" ".join(argv)] = {"rc": rc, "stdout": out.getvalue()}
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    (HERE / "expected_claims.json").write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    failing = [k for k, v in recorded.items() if v["rc"]]
    print(f"recorded {len(recorded)} claims; expected to fail: {failing}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

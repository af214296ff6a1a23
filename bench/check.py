"""Checks a CLI result against its expectation and schema/report.json.

A full enumeration listing is checked rather than compared: it must hold
the known number of free trees (OEIS A000055), each a tree on n vertices,
pairwise non-isomorphic by an independent canonical form.
"""

from __future__ import annotations

import json
from pathlib import Path

import jsonschema

#: Free trees on n vertices, n = 0..16 (OEIS A000055).
FREE_TREES = (1, 1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551, 1301, 3159, 7741, 19320)


def _tree_form(n: int, edges: list) -> str | None:
    """Canonical string of a free tree: the smaller AHU encoding over its
    centres, computed bottom-up without recursion.  None if not a tree."""
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    if len(edges) != n - 1 or len(_bfs(adj, 0)[0]) != n:
        return None
    deg = [len(a) for a in adj]
    layer = [v for v in range(n) if deg[v] <= 1]
    left = n
    while left > 2:
        left -= len(layer)
        nxt = []
        for v in layer:
            for u in adj[v]:
                deg[u] -= 1
                if deg[u] == 1:
                    nxt.append(u)
        layer = nxt
    forms = []
    for root in layer:
        order, parent = _bfs(adj, root)
        label: dict[int, str] = {}
        for v in reversed(order):
            label[v] = "(" + "".join(sorted(label[u] for u in adj[v] if u != parent[v])) + ")"
        forms.append(label[root])
    return min(forms)


def _bfs(adj: list[list[int]], root: int) -> tuple[list[int], dict[int, int]]:
    order, parent = [root], {root: -1}
    for v in order:
        for u in adj[v]:
            if u not in parent:
                parent[u] = v
                order.append(u)
    return order, parent


class Checker:
    """Checks CLI results against expectations and the report schema."""

    def __init__(self, root: Path):
        schema = json.loads((root / "schema" / "report.json").read_text())
        self.validator = jsonschema.Draft202012Validator(schema)
        self.valid: dict[str, str | None] = {}

    def _schema_error(self, stdout: str) -> str | None:
        if stdout not in self.valid:
            try:
                doc = json.loads(stdout)
            except json.JSONDecodeError as exc:
                self.valid[stdout] = f"not JSON: {exc}"
            else:
                err = next(iter(self.validator.iter_errors(doc)), None)
                self.valid[stdout] = None if err is None else f"schema: {err.message}"
        return self.valid[stdout]

    def check(self, expect: dict, rc, stdout: str, stderr: str) -> str | None:
        """None when the result is right, else the reason it is not."""
        if rc != expect["rc"]:
            return f"exit {rc!r}, expected {expect['rc']} ({stderr.strip()[:200]})"
        if "stderr_prefix" in expect:
            if stdout or not stderr.startswith(expect["stderr_prefix"]):
                return "documented error exit without its error message"
            return None
        err = self._schema_error(stdout)
        if err:
            return err
        if "listing" in expect:
            return self._check_listing(expect["listing"], json.loads(stdout))
        if stdout != expect["stdout"]:
            return f"document differs: got {stdout[:200]!r}, expected {expect['stdout'][:200]!r}"
        return None

    @staticmethod
    def _check_listing(n: int, doc: dict) -> str | None:
        trees = doc.get("trees", [])
        if doc["n"] != n or doc["count"] != FREE_TREES[n] or len(trees) != FREE_TREES[n]:
            return f"listing of n={n} has {len(trees)} trees, expected {FREE_TREES[n]}"
        forms = set()
        for edges in trees:
            form = None
            if all(0 <= x < n for e in edges for x in e):
                form = _tree_form(n, edges)
            if form is None:
                return "listing holds a non-tree"
            forms.add(form)
        if len(forms) != len(trees):
            return "listing holds isomorphic trees"
        return None

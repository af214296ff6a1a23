"""Definitional implementations of the distance and degree based indices.

This module is the oracle that the faster tree and cut routes are tested
against, so every function works on any connected graph and recomputes
from scratch on each call.

The pair counts by distance (W_k, the Wiener index, the Wiener
polynomial and the cumulative W_k*) all read one distance histogram,
filled by a bit-parallel ball sweep: each vertex keeps the set of
sources within radius r as an integer bitset, and one round of ORs over
the edges takes every ball from radius r to r + 1.  The degree-restricted
sums (TW_k, TW_k*) run one breadth-first search per source of the
restricted degree, since their cost should grow with the number of such
vertices, not with the whole graph.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DisconnectedError
from .graphs import UNREACHABLE, Graph, bfs_distances

#: Bits of ball held at once by the sweep: the sources are swept in
#: blocks of at most this many bits divided by n, so memory stays bounded
#: on large graphs while every graph up to 2^13 vertices is one block.
_SWEEP_BITS = 1 << 26


def _histogram(g: Graph) -> list[int]:
    """Unordered pair counts by distance: entry r counts the pairs at
    distance r, up to the diameter (entry 0 is always 0).

    For a block of sources, ball[w] holds bit s when source s lies within
    radius r of w.  B_{r+1}(w) is B_r(w) OR-ed with the balls of w's
    neighbours, so one round costs one OR per edge end, and the growth
    of the summed ball sizes in round r counts the ordered pairs at
    distance r.  A round in which no ball grows before all are full
    means the graph is disconnected.  The sweep runs diameter rounds
    over n-bit balls, so on a long path it is slower than one BFS per
    vertex (2000-vertex path: about 1.4 s against 0.8 s); the CLI's
    `auto` sends W_k and the polynomial of a tree to the tree route.
    """
    n = g.n
    edges = g.edges()
    block = max(1, _SWEEP_BITS // max(n, 1))
    doubled = [0]
    for first in range(0, n, block):
        size = min(block, n - first)
        balls = [0] * n
        for s in range(size):
            balls[first + s] = 1 << s
        reached = size
        r = 0
        while reached < n * size:
            grown = balls[:]
            for x, y in edges:
                grown[x] |= balls[y]
                grown[y] |= balls[x]
            balls = grown
            now = sum(map(int.bit_count, balls))
            if now == reached:
                raise DisconnectedError("graph is not connected")
            r += 1
            if r == len(doubled):
                doubled.append(0)
            doubled[r] += now - reached
            reached = now
    return [c // 2 for c in doubled]


def _require_connected(g: Graph) -> None:
    if g.n > 1 and bfs_distances(g, 0).count(UNREACHABLE):
        raise DisconnectedError("graph is not connected")


def wiener(g: Graph) -> int:
    """Sum of distances over all unordered vertex pairs."""
    return wiener_polynomial(g).wiener()


def wk(g: Graph, k: int) -> int:
    """Number of unordered vertex pairs at distance exactly k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return wiener_polynomial(g).coefficient(k)


@dataclass(frozen=True)
class WienerPolynomial:
    """Pair counts by distance; coeffs[k] pairs lie at distance k."""

    coeffs: tuple[int, ...]

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, k: int) -> int:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def pair_total(self) -> int:
        return sum(self.coeffs)

    def wiener(self) -> int:
        return sum(k * c for k, c in enumerate(self.coeffs))


def wiener_polynomial(g: Graph) -> WienerPolynomial:
    """Distance distribution of the unordered pairs, as coefficients up
    to the diameter.  coeffs[0] is always 0."""
    return WienerPolynomial(tuple(_histogram(g)))


def twk(g: Graph, k: int) -> int:
    """Sum of distances over unordered pairs of degree-k vertices."""
    if k < 0:
        raise ValueError("k must be >= 0")
    _require_connected(g)
    sources = [v for v in range(g.n) if g.degree(v) == k]
    total = 0
    for i, u in enumerate(sources):
        row = bfs_distances(g, u)
        total += sum(row[v] for v in sources[i + 1:])
    return total


def zagreb_m1(g: Graph) -> int:
    """Sum of squared degrees."""
    return sum(d * d for d in g.degrees())


def zagreb_m2(g: Graph) -> int:
    """Sum of degree products over the edges."""
    deg = g.degrees()
    return sum(deg[u] * deg[v] for u, v in g.edges())


def wk_star(g: Graph, k: int) -> int:
    """Number of unordered pairs at distance at most k (and at least 1)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return sum(wiener_polynomial(g).coeffs[1:k + 1])


def twk_star(g: Graph, k: int) -> int:
    """Sum of distances over unordered pairs of vertices whose degrees
    are both at most k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    _require_connected(g)
    sources = [v for v in range(g.n) if g.degree(v) <= k]
    total = 0
    for i, u in enumerate(sources):
        row = bfs_distances(g, u)
        total += sum(row[v] for v in sources[i + 1:])
    return total


@dataclass(frozen=True)
class IndexReport:
    """One-shot summary of every index this package computes."""

    n: int
    m: int
    wiener: int
    poly: tuple[int, ...]
    twk_by_degree: tuple[tuple[int, int], ...]
    m1: int
    m2: int
    star_k: int | None = None
    wk_star: int | None = None
    twk_star: int | None = None

    def as_dict(self) -> dict:
        out = {
            "n": self.n,
            "m": self.m,
            "wiener": self.wiener,
            "poly": list(self.poly),
            "twk_by_degree": {str(k): v for k, v in self.twk_by_degree},
            "m1": self.m1,
            "m2": self.m2,
        }
        if self.star_k is not None:
            out["star_k"] = self.star_k
            out["wk_star"] = self.wk_star
            out["twk_star"] = self.twk_star
        return out


def index_report(g: Graph, star_k: int | None = None) -> IndexReport:
    """Compute every index in one pass; the cumulative variants are
    included when star_k is given."""
    poly = wiener_polynomial(g)
    degrees_present = sorted(set(g.degrees()))
    return IndexReport(
        n=g.n,
        m=g.m,
        wiener=poly.wiener(),
        poly=poly.coeffs,
        twk_by_degree=tuple((k, twk(g, k)) for k in degrees_present),
        m1=zagreb_m1(g),
        m2=zagreb_m2(g),
        star_k=star_k,
        wk_star=None if star_k is None else sum(poly.coeffs[1:star_k + 1]),
        twk_star=None if star_k is None else twk_star(g, star_k),
    )

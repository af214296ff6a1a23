"""Definitional implementations of the distance and degree based indices.

This module is the oracle that the faster tree and cut routes are tested
against, so every function works on any connected graph and recomputes
from scratch on each call.

It also holds the oracle's ball sweep, `_sweep` (the partial-cube
verifier runs its own, `partial_cube._cut_labels`): each vertex keeps
the set of sources within radius r as an integer bitset, and one round
takes every ball from radius r to r + 1.  From radius 1 on a ball is the
union of its neighbours' balls, so a round copies one neighbour's ball
and ORs in the others, 2m - n ORs over the adjacency lists.  The
growth of the balls gives the pair counts by distance (W_k, the Wiener
index, the Wiener polynomial and the cumulative W_k*), and the pairs of
one degree class not yet reached give that class's distance sum (TW_k,
TW_k*), so `index_report` runs a single sweep.  W_k and W_k* stop the
sweep at radius k, plus one BFS for connectivity when the limit stops
it.  A lone `twk` or `twk_star` sweeps from the restricted
vertices only, or runs one breadth-first search per restricted vertex
when there are so few of them that this costs less.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from operator import or_
from typing import Iterable, NamedTuple, Sequence

from .errors import DisconnectedError
from .graphs import UNREACHABLE, Graph, bfs_distances

#: Bits of ball held at once by the sweep: the sources are swept in
#: blocks of at most this many bits divided by n, so memory stays bounded
#: on large graphs while every graph up to 2^13 vertices is one block.
_SWEEP_BITS = 1 << 26


def _steps(ends: list[int]) -> list[tuple[int, int, int, int]]:
    """Arcs x <- y (x takes y's ball), given as flat ends x, y, x, y, ...,
    two arcs to a step.  An odd count repeats its last arc, appended to
    ends in place, since OR is idempotent."""
    if len(ends) & 2:
        ends += ends[-2:]
    return list(zip(*[iter(ends)] * 4))


def _sweep(
    g: Graph,
    sources: Sequence[int],
    spans: Sequence[tuple[int, int]],
    top: int | None = None,
) -> tuple[list[int], list[int]]:
    """Ball sweep from `sources` over g.adj.  Returns the doubled pair
    counts by distance (entry r counts the ordered pairs at distance r,
    up to the diameter; filled only when `sources` holds every vertex)
    and, for each span (lo, hi) of `sources`, the distance sum over the
    ordered pairs of sources[lo:hi].

    For a block of sources, ball[w] holds bit s when source s lies within
    radius r of w.  B_1(w) is B_0(w) OR-ed with the balls of w's
    neighbours.  From radius 1 on, B_{r+1}(w) is the union of B_r(y) over
    w's neighbours y alone: w lies in B_1(y), and any other source within
    r + 1 of w lies within r of the next vertex on a shortest path from w.
    So each round copies the ball of w's first neighbour (w's own ball when
    w is isolated) and ORs in the rest, 2m - n ORs a round (about half the
    edge ends on a tree; the first round also ORs in w's own ball), and
    the growth of the summed ball sizes in round r counts the ordered
    pairs at distance r.  A pair at distance d is still unreached before
    each of the rounds 0..d-1, so before every round each span member v
    adds the span's sources of the block missing from ball[v]; a span is
    done once no member misses any.  A sweep from every vertex runs each
    block until every ball holds the whole block, and a round in which
    no ball grows before that means the graph is disconnected; a sweep
    from fewer sources stops once every span is done, and a span still
    live at round n, past every distance of a connected graph, means the
    graph is disconnected.

    `top`, when given with every vertex as a source and no spans, stops
    each block after round top, so the pair counts run to distance top
    at most; if a block stops before every ball holds the whole block,
    one BFS from vertex 0 decides connectivity.

    A block runs as many rounds as its sources' largest eccentricity,
    or top when that is smaller, over n-bit balls, so on a long path the
    full sweep is slower than one BFS per vertex; the CLI's `auto` sends
    W_k and the polynomial of a tree to the tree route.
    """
    n = g.n
    every = len(sources) == n
    block = max(1, _SWEEP_BITS // max(n, 1))
    adj = g.adj
    lead = [nbrs[0] if nbrs else x for x, nbrs in enumerate(adj)]
    steps = _steps([v for x, nbrs in enumerate(adj) for y in nbrs[1:] for v in (x, y)])
    members = [sources[lo:hi] for lo, hi in spans]
    doubled = [0]
    sums = [0] * len(spans)
    stopped = False
    for first in range(0, len(sources), block):
        size = min(block, len(sources) - first)
        balls = [0] * n
        for s in range(size):
            balls[sources[first + s]] = 1 << s
        live = []
        for j, (lo, hi) in enumerate(spans):
            a, b = max(lo, first), min(hi, first + size)
            if a < b:
                # no mask when the span holds every source of the block
                mask = ((1 << (b - a)) - 1) << (a - first) if b - a < size else 0
                live.append((j, (b - a) * (hi - lo), mask))
        reached = size
        r = 0
        while True:
            still = []
            for j, want, mask in live:
                if every and len(members[j]) == n:
                    got = reached
                else:
                    held = map(balls.__getitem__, members[j])
                    got = sum(map(int.bit_count, map(mask.__and__, held) if mask else held))
                missing = want - got
                if missing:
                    sums[j] += missing
                    still.append((j, want, mask))
            live = still
            if reached == n * size if every else not live:
                break
            if r == top:
                stopped = True
                break
            if r == n:
                raise DisconnectedError("graph is not connected")
            grown = list(map(balls.__getitem__, lead))
            if not r:
                grown = list(map(or_, grown, balls))
            for x, y, u, v in steps:
                grown[x] |= balls[y]
                grown[u] |= balls[v]
            balls = grown
            r += 1
            if every:
                now = sum(map(int.bit_count, balls))
                if now == reached:
                    raise DisconnectedError("graph is not connected")
                if r == len(doubled):
                    doubled.append(0)
                doubled[r] += now - reached
                reached = now
    if stopped and UNREACHABLE in bfs_distances(g, 0):
        raise DisconnectedError("graph is not connected")
    return doubled, sums


def _restricted_sum(g: Graph, members: list[int]) -> int:
    """Distance sum over the unordered pairs of `members`.

    One BFS from the first member (vertex 0 when there are none) checks
    connectivity and gives its eccentricity, and its row is summed.  A
    sweep from the members costs at most eccentricity x 2m (2m - n ORs
    per round, taken as 2m); the rest of one BFS per member, a BFS from
    each member but the first and the last, about (|members| - 2) x
    (n + m).  The cheaper runs.
    """
    if g.n < 2:
        return 0
    row0 = bfs_distances(g, members[0] if members else 0)
    if UNREACHABLE in row0:
        raise DisconnectedError("graph is not connected")
    if (len(members) - 2) * (g.n + g.m) > max(row0) * 2 * g.m:
        _, (doubled,) = _sweep(g, members, [(0, len(members))])
        return doubled // 2
    total = 0
    for i, u in enumerate(members[:-1]):
        row = bfs_distances(g, u) if i else row0
        total += sum(map(row.__getitem__, members[i + 1:]))
    return total


def wiener(g: Graph) -> int:
    """Sum of distances over all unordered vertex pairs."""
    return wiener_polynomial(g).wiener()


def wk(g: Graph, k: int) -> int:
    """Number of unordered vertex pairs at distance exactly k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return wiener_polynomial(g, k).coefficient(k)


class WienerPolynomial(NamedTuple):
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


def wiener_polynomial(g: Graph, top: int | None = None) -> WienerPolynomial:
    """Distance distribution of the unordered pairs, as coefficients up
    to the diameter, or up to top when top is smaller; coeffs[0] is
    always 0.  As with tree_polynomial(top), a polynomial cut at top
    gives partial wiener() and pair_total()."""
    if top is not None:
        top = max(top, 0)  # as in tree_polynomial, a top below 0 keeps coeffs[0] alone
    doubled, _ = _sweep(g, range(g.n), (), top=top)
    return WienerPolynomial(tuple(c // 2 for c in doubled))


def twk(g: Graph, k: int) -> int:
    """Sum of distances over unordered pairs of degree-k vertices."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return _restricted_sum(g, [v for v, d in enumerate(g.degrees()) if d == k])


def zagreb(deg: Sequence[int], edges: Iterable[tuple[int, int]]) -> tuple[int, int]:
    """The Zagreb indices M1 and M2 of the graph with degrees deg and
    edge pairs edges: the sum of squared degrees, and the sum of degree
    products over the edges."""
    return sum(d * d for d in deg), sum(deg[u] * deg[v] for u, v in edges)


def wk_star(g: Graph, k: int) -> int:
    """Number of unordered pairs at distance at most k (and at least 1)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return wiener_polynomial(g, k).pair_total()


def twk_star(g: Graph, k: int) -> int:
    """Sum of distances over unordered pairs of vertices whose degrees
    are both at most k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return _restricted_sum(g, [v for v, d in enumerate(g.degrees()) if d <= k])


class IndexReport(NamedTuple):
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
    """Compute every index in one sweep; the cumulative variants are
    included when star_k is given.

    The sources are ordered by degree, so each degree class, and the
    vertices of degree at most star_k, are one span of them."""
    if star_k is not None and star_k < 1:
        raise ValueError("k must be >= 1")
    deg = g.degrees()
    order = sorted(range(g.n), key=deg.__getitem__)
    ranked = [deg[v] for v in order]
    present = sorted(set(deg))
    spans = [(bisect_left(ranked, k), bisect_right(ranked, k)) for k in present]
    if star_k is not None:
        spans.append((0, bisect_right(ranked, star_k)))
    doubled, sums = _sweep(g, order, spans)
    poly = WienerPolynomial(tuple(c // 2 for c in doubled))
    m1, m2 = zagreb(deg, g.edges())
    return IndexReport(
        n=g.n,
        m=g.m,
        wiener=poly.wiener(),
        poly=poly.coeffs,
        twk_by_degree=tuple((k, s // 2) for k, s in zip(present, sums)),
        m1=m1,
        m2=m2,
        star_k=star_k,
        wk_star=None if star_k is None else sum(poly.coeffs[1:star_k + 1]),
        twk_star=None if star_k is None else sums[-1] // 2,
    )

"""Core graph type, traversal primitives and edge-list serialization.

Vertices are the contiguous integers 0..n-1.  Graphs are undirected and
simple (no loops, no parallel edges).  Instances are frozen after
construction and adjacency lists are kept sorted, so every derived
output is deterministic and instances are safe to share across threads.

from_edge_list pauses the cyclic garbage collector while it allocates
the n neighbour lists and tuples.  They hold only ints, so they cannot
form a cycle, yet every allocation counts towards the collector's
thresholds: it would run a pass about every 700 of them, and its full
passes would rescan every list built so far.  The collector is switched
back on afterwards, on success and on error alike, but only if it was
on when the call began.  The switch is process-wide: a thread that
flips it while another thread builds may see its change undone.

Ingest drops each input once it has read it, so a large file is not
held in several forms at once.  edge_slices is the one reader.  It reads
the header at once and the body lazily, by slices of _SLICE characters
run on to the next newline.  A canonical slice, the form that
format_edge_list, gen and the bench inputs write (every line two ASCII
tokens over 0-9, '+' and '-' joined by one space and ended by '\n'), is
checked and converted with bytes.translate, a comparison and one
json.loads, so no Python code runs per line.  Any other slice (comments,
blank lines, CR or other line breaks, tabs, non-ASCII, tokens such as
'+2' or '07' that int() reads and JSON does not, no final newline) is
read in place by the line rule: each line stripped, blank and '#' lines
skipped, and two tokens read by int().  The loop then goes on with the
next slice, so no text is read again from its first line.  A header that
is not canonical is the first row the line rule finds.  Errors keep the
order of a line-by-line read: the header's, the edge count's, then the
first bad edge line's.  So at the first bad line, or once the lines run
past m, the rows of the rest of the text are counted and a wrong count
is named first; the earlier slices held no bad line.  A header whose m
exceeds a quarter of the text's length (a header and m edge lines take
more) gets that count error before anything is allocated.  Only the
format is checked.  parse_edge_ends joins the slices into one list
allocated at its final size, 2m, and a tree request (cli) hands them one
at a time to tree_linear.RootedTree.build, which frees each once
counted, so the flat list is never held and no Graph is built.  Any
other request hands the flat list to from_edge_list, which pops each
neighbour list as its tuple is built, so the lists are freed one by one
while the tuples grow.  On a 2*10^5-vertex path parse_edge_ends takes
45 ms and peaks at 14.9 MiB of traced memory, 71-75 ms with a tab in the
last line and 108-117 ms with CRLF line ends.  compute --index wk --k 5
on it, a tree request, peaks at 13.4 MiB with the file's text, the strip
and the kernel, with a comment line or without, and parse_edge_ends
then from_edge_list peak at 32.0 MiB against 22.9 MiB for the finished
Graph (Python 3.11).
"""

from __future__ import annotations

import gc
import json
from collections import deque
from itertools import repeat
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

from .errors import (
    DuplicateEdgeError,
    EdgeListFormatError,
    LoopEdgeError,
    OrderTooLargeError,
    VertexOutOfRangeError,
)

#: Distance value reported for vertices a BFS cannot reach.
UNREACHABLE = -1

#: Largest vertex count a graph may have: 2^21 covers the million-vertex
#: path the tree route is checked on, and a larger header is refused
#: before any adjacency list is allocated.
MAX_GRAPH_ORDER = 1 << 21

#: Characters of edge lines checked and converted per batch by
#: edge_slices; a slice runs on to the next newline.
_SLICE = 1 << 18

#: The characters of canonical tokens, and the table that turns the
#: separators of canonical lines into JSON commas.
_TOKEN_CHARS = b"0123456789+-"
_TO_COMMAS = bytes.maketrans(b" \n", b",,")

#: Largest hypercube dimension built: 2^20 vertices, the scale of the
#: million-vertex path the tree route is checked on.
MAX_HYPERCUBE_DIM = 20


class Graph(NamedTuple):
    """Immutable undirected simple graph on vertices 0..n-1."""

    n: int
    adj: tuple[tuple[int, ...], ...]
    m: int

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def degrees(self) -> list[int]:
        return [len(nbrs) for nbrs in self.adj]

    def edges(self) -> list[tuple[int, int]]:
        """Edges as (u, v) pairs with u < v, in lexicographic order."""
        return [(u, v) for u in range(self.n) for v in self.adj[u] if u < v]


def check_order(n: int) -> None:
    """Raise OrderTooLargeError when n exceeds MAX_GRAPH_ORDER; generators
    call it before they build an edge list."""
    if n > MAX_GRAPH_ORDER:
        raise OrderTooLargeError(f"vertex count must be <= {MAX_GRAPH_ORDER}, got {n}")


def from_edge_list(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a validated graph from an iterable of endpoint pairs.

    Raises LoopEdgeError, DuplicateEdgeError or VertexOutOfRangeError
    when the input is not a simple graph on 0..n-1, and
    OrderTooLargeError when n exceeds MAX_GRAPH_ORDER.
    """
    if n < 0:
        raise VertexOutOfRangeError("vertex count must be non-negative")
    check_order(n)
    collecting = gc.isenabled()
    gc.disable()
    try:
        lists: list[list[int]] = [[] for _ in range(n)]
        m = 0
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise VertexOutOfRangeError(f"edge ({u}, {v}) outside 0..{n - 1}")
            if u == v:
                raise LoopEdgeError(f"loop at vertex {u}")
            lists[u].append(v)
            lists[v].append(u)
            m += 1
        for nbrs in lists:
            nbrs.sort()
        if sum(map(len, map(set, lists))) != 2 * m:
            # Some list holds a repeat; name the first one.
            for u, nbrs in enumerate(lists):
                for a, b in zip(nbrs, nbrs[1:]):
                    if a == b:
                        raise DuplicateEdgeError(f"edge ({min(u, a)}, {max(u, a)}) repeated")
        # Pop each list as its tuple is built, so it is freed at once.
        lists.reverse()
        adj = tuple(map(tuple, map(list.pop, repeat(lists, n))))
    finally:
        if collecting:
            gc.enable()
    return Graph(n=n, adj=adj, m=m)


def bfs_distances(g: Graph, source: int) -> list[int]:
    """Distances from source to every vertex; UNREACHABLE where there is
    no path."""
    if not 0 <= source < g.n:
        raise VertexOutOfRangeError(f"source {source} outside 0..{g.n - 1}")
    dist = [UNREACHABLE] * g.n
    dist[source] = 0
    queue = deque([source])
    adj = g.adj
    while queue:
        u = queue.popleft()
        du = dist[u] + 1
        for v in adj[u]:
            if dist[v] == UNREACHABLE:
                dist[v] = du
                queue.append(v)
    return dist


def two_coloring(g: Graph) -> list[int] | None:
    """A proper 2-coloring as a 0/1 list, or None if an odd cycle exists.

    Works per component; vertex 0 of each component gets color 0.
    """
    color = [-1] * g.n
    for start in range(g.n):
        if color[start] != -1:
            continue
        color[start] = 0
        queue = deque([start])
        while queue:
            u = queue.popleft()
            cu = color[u]
            for v in g.adj[u]:
                if color[v] == -1:
                    color[v] = 1 - cu
                    queue.append(v)
                elif color[v] == cu:
                    return None
    return color


def parse_edge_ends(text: str) -> tuple[int, list[int]]:
    """Parse the plain text format: a header line "n m" followed by m
    lines "u v".  Blank lines and lines starting with '#' are ignored.

    Returns n and the edges' endpoints as one flat list, u then v for
    each line in order; only the format is checked, not the graph.
    """
    n, m, slices = edge_slices(text)
    ends = [0] * (2 * m)  # filled in place, so it holds no spare slots
    filled = 0
    for part in slices:
        ends[filled:filled + len(part)] = part
        filled += len(part)
    return n, ends


def edge_slices(text: str) -> tuple[int, int, Iterator[list[int]]]:
    """The header n, m of an edge-list text and the ends of its edge
    lines, one slice at a time.

    Raises the header's format error at once, and the count's before
    anything is allocated when m edge lines cannot fit in the text.
    Each slice is read as it is asked for.  The iterator raises the
    count's error, or else the first bad edge line's, at the first slice
    that holds a bad line or takes the ends past 2m, and the count's
    after the last slice when the ends fall short."""
    stop = text.find("\n") + 1
    head = _canonical_ints(text[:stop])
    if head is None:
        row, stop = _first_row(text)
        tokens = row.split()
        if len(tokens) != 2:
            raise EdgeListFormatError(f"header must be 'n m', got {row!r}")
        try:
            head = [int(tokens[0]), int(tokens[1])]
        except ValueError as exc:
            raise EdgeListFormatError(f"non-integer header {row!r}") from exc
    n, m = head
    if n < 1:
        raise EdgeListFormatError(f"vertex count must be >= 1, got {n}")
    if m < 0:
        raise EdgeListFormatError("negative edge count")
    if 4 * m > len(text):  # a header and m edge lines take over 4m characters
        _check_count(m, _count_rows(text, stop))
    return n, m, _slices(text, stop, m)


def _slices(text: str, body: int, m: int) -> Iterator[list[int]]:
    """The edge_slices iterator over text[body:], which must hold
    exactly m edge lines."""
    seen = 0  # edge lines read
    for start, stop in _spans(text, body):
        lines = text[start:stop]
        part = _canonical_ints(lines)
        if part is None:
            try:
                part = _line_ints(lines)
            except EdgeListFormatError:
                # a wrong count comes first; earlier slices held no bad line
                _check_count(m, seen + _count_rows(text, start))
                raise
        del lines
        seen += len(part) // 2
        if seen > m:
            _check_count(m, seen + _count_rows(text, stop))
        yield part
        del part  # the consumer is done with it: freed before the next is read
    _check_count(m, seen)


def _spans(text: str, start: int) -> Iterator[tuple[int, int]]:
    """The bounds of the slices of text[start:]: _SLICE characters, run
    on to the next newline, so no line is cut."""
    size = len(text)
    while start < size:
        stop = text.find("\n", start + _SLICE - 1) + 1 or size
        yield start, stop
        start = stop


def _canonical_ints(lines: str) -> list[int] | None:
    """The tokens of lines that are each two tokens joined by one space
    and ended by '\n', as ints; None for any other text, the empty one
    and one whose last line has no '\n' included.  A token is
    what JSON reads as an integer: an optional '-', then digits without
    a leading zero.  JSON also refuses the empty token that a leading or
    trailing space leaves."""
    try:
        raw = lines.encode("ascii")
        rest = raw.translate(None, _TOKEN_CHARS)
        if not raw.endswith(b"\n") or rest != b" \n" * (len(rest) // 2):
            return None
        return json.loads(b"[" + raw.translate(_TO_COMMAS)[:-1] + b"]")
    except ValueError:  # not ASCII, or a token JSON refuses
        return None


def _rows(lines: str) -> list[str]:
    """The rows of a text by the line rule: its lines stripped, without
    the blank ones and those starting with '#'."""
    return [ln for ln in map(str.strip, lines.splitlines()) if ln and ln[0] != "#"]


def _line_ints(lines: str) -> list[int]:
    """The ends of a text's rows, each two tokens that int() reads;
    raises the format error of the first row that is not."""
    ends: list[int] = []
    for row in _rows(lines):
        try:
            u, v = row.split()
            ends += (int(u), int(v))
        except ValueError:
            if len(row.split()) != 2:
                raise EdgeListFormatError(f"edge line must be 'u v', got {row!r}") from None
            raise EdgeListFormatError(f"non-integer edge line {row!r}") from None
    return ends


def _first_row(text: str) -> tuple[str, int]:
    """The first row of a text, its header, and the offset just past
    its line; raises on a text with no row."""
    for pos, stop in _spans(text, 0):
        for line in text[pos:stop].splitlines(keepends=True):
            pos += len(line)
            row = line.strip()  # line breaks are whitespace too
            if row and row[0] != "#":
                return row, pos
    raise EdgeListFormatError("empty input")


def _count_rows(text: str, start: int) -> int:
    """The number of rows in text[start:], counted a slice at a time."""
    return sum(len(_rows(text[a:b])) for a, b in _spans(text, start))


def _check_count(m: int, found: int) -> None:
    if found != m:
        raise EdgeListFormatError(f"expected {m} edge lines, found {found}")


def edge_pairs(ends: list[int]) -> Iterator[tuple[int, int]]:
    """The (u, v) pairs of a flat endpoint list, in order."""
    it = iter(ends)
    return zip(it, it)


def format_edge_list(g: Graph) -> str:
    """Canonical text form: header then edges sorted with u < v, read
    straight off the sorted adjacency lists."""
    return f"{g.n} {g.m}\n" + "".join(
        [f"{u} {v}\n" for u, nbrs in enumerate(g.adj) for v in nbrs if u < v]
    )


def dump_edge_list(g: Graph, path: str | Path) -> None:
    Path(path).write_text(format_edge_list(g))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return from_edge_list(n, ((i, (i + 1) % n) for i in range(n)))


def hypercube_graph(d: int) -> Graph:
    """The d-dimensional hypercube; vertex v is its coordinate bitmask."""
    if d < 0:
        raise ValueError("hypercube needs d >= 0")
    if d > MAX_HYPERCUBE_DIM:
        raise OrderTooLargeError(
            f"hypercube dimension must be <= {MAX_HYPERCUBE_DIM}, got {d}"
        )
    n = 1 << d
    edges: Iterator[tuple[int, int]] = (
        (v, v | (1 << b)) for v in range(n) for b in range(d) if not v >> b & 1
    )
    return from_edge_list(n, edges)

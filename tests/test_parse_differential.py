"""Differential tests for edge-list input: parse_edge_list and
from_edge_list must give the same Graph, or raise the same exception type
with the same message, as the line-at-a-time references in
tests/helpers.py, on generated texts and on large files with faults
deep inside."""

import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from distindex import GraphError, from_edge_list, parse_edge_list
from distindex.graphs import _CHUNK
from helpers import reference_from_edge_list, reference_parse_edge_list

LINE_BREAKS = ("\n", "\r\n", "\r", "\x0c")
#: Separators inside a line; "\xa0" and "\x1f" are whitespace to
#: str.split that do not end a line.
SPACES = (" ", "\t", "  ", "\xa0", "\x1f")
#: Tokens int() accepts or refuses that a plain digit string does not show.
ODD_TOKENS = ("+2", "1_0", "-1", "x", "٣", "07", "2.0", "1__0")


def outcome(build, *args):
    """The graph built, or the type and message of the error raised."""
    try:
        return build(*args)
    except GraphError as exc:
        return type(exc), str(exc)


@st.composite
def tokens(draw, n):
    kind = draw(st.integers(0, 19))
    if kind == 0:
        return draw(st.sampled_from(ODD_TOKENS))
    if kind == 1:
        return draw(st.sampled_from(("-1", str(n))))
    return str(draw(st.integers(0, n - 1)))


@st.composite
def edge_tokens(draw, n):
    """Mostly two distinct vertices, so repeated edges are common too;
    otherwise any two tokens."""
    if n == 1 or draw(st.integers(0, 4)) == 0:
        return [draw(tokens(n)), draw(tokens(n))]
    u = draw(st.integers(0, n - 1))
    return [str(u), str((u + draw(st.integers(1, n - 1))) % n)]


@st.composite
def edge_list_texts(draw):
    """Mostly well-formed texts on n <= 6 vertices, so loops and repeated
    edges are common, with odd tokens, 1- and 3-token lines, comments,
    blank lines, every line break and a header that may not fit."""
    n = draw(st.integers(1, 6))
    lines = []
    m = 0
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.integers(0, 29))
        if kind == 0:
            lines.append(draw(st.sampled_from(("#", "# 1 2", "", "\t"))))
            continue
        if kind in (1, 2):
            parts = [draw(tokens(n)) for _ in range(2 * kind - 1)]
        else:
            parts = draw(edge_tokens(n))
        line = draw(st.sampled_from(SPACES)).join(parts)
        if draw(st.integers(0, 4)) == 0:
            line = draw(st.sampled_from(SPACES)) + line + draw(st.sampled_from(SPACES))
        lines.append(line)
        m += 1
    header = draw(st.sampled_from((f"{n} {m}",) * 24 + (
        f"{n}", f"{n} {m} 0", f"x {m}", f"{n} +{m}", f"{n} {m + 1}", f"{n} {m - 1}",
    )))
    lead = draw(st.sampled_from(([], [], ["# c"], [""])))
    lines = lead + [header] + lines
    breaks = [draw(st.sampled_from(LINE_BREAKS)) for _ in lines]
    text = "".join(ln + br for ln, br in zip(lines, breaks))
    if draw(st.booleans()):
        text = text.removesuffix(breaks[-1])
    return text


@settings(derandomize=True, deadline=None, max_examples=600)
@given(edge_list_texts())
@example("1 0\n")
def test_parse_matches_reference(text):
    assert outcome(parse_edge_list, text) == outcome(reference_parse_edge_list, text)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.integers(-1, 6), st.lists(st.tuples(st.integers(-1, 6), st.integers(-1, 6)), max_size=10))
def test_build_matches_reference(n, edges):
    assert outcome(from_edge_list, n, edges) == outcome(reference_from_edge_list, n, edges)


#: A path on 200 000 vertices; faults go in at file line 150 000 (the
#: header is line 1) and, for two faults, at line 190 000 or 120 000,
#: and at the edges of parse_edge_list's chunks: edge line j is file
#: line j + 1, so chunk c starts at file line c * _CHUNK + 2.
PATH_N = 200_000
PATH_LINES = [f"{PATH_N} {PATH_N - 1}"] + [f"{i} {i + 1}" for i in range(PATH_N - 1)]


@pytest.mark.parametrize(
    "faults",
    [
        {150_000: "x y"},
        {150_000: "1 2 3"},
        {150_000: "7 7"},
        {150_000: f"{PATH_N} 0"},
        {150_000: "1 0"},
        {150_000: "7 7", 190_000: "x y"},
        {150_000: "1 2 3", 120_000: "x 1"},
        {150_000: f"0 {PATH_N}", 190_000: "7 7"},
        {150_000: "1 0", 190_000: "7 7"},
        # first and last edge line of a chunk, and the last line of the
        # file, which falls in the short final chunk
        {5 * _CHUNK + 2: "x y"},
        {6 * _CHUNK + 1: "1 2 3"},
        {PATH_N: "1 x"},
        # a graph fault at the end of one chunk, a format fault at the
        # start of the next: the format fault still wins
        {8 * _CHUNK + 1: "7 7", 8 * _CHUNK + 2: "x y"},
    ],
    ids=lambda faults: " + ".join(f"{line}:{text}" for line, text in faults.items()),
)
def test_first_fault_reported_at_scale(faults):
    lines = list(PATH_LINES)
    for line, text in faults.items():
        lines[line - 1] = text
    text = "\n".join(lines) + "\n"
    got = outcome(parse_edge_list, text)
    assert isinstance(got, tuple)
    assert got == outcome(reference_parse_edge_list, text)


def test_parse_peak_with_chunked_conversion_and_lists_freed():
    # Edge lines are converted a chunk at a time and dropped as they go,
    # and each neighbour list is freed once its tuple exists.  On Python
    # 3.11 tracemalloc read a 32.4 MiB peak with both, 44.8 MiB with
    # chunking alone, and 52.4 MiB with one batch and every list kept.
    text = "\n".join(PATH_LINES) + "\n"
    tracemalloc.start()
    try:
        g = parse_edge_list(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.n == PATH_N and g.m == PATH_N - 1
    assert peak < 40 * 2**20

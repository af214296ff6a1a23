"""Differential tests for edge-list input: parse_edge_ends,
parse_edge_list and from_edge_list must give the same result, or raise
the same exception type with the same message, as the line-at-a-time
references in tests/helpers.py, on generated texts, on canonical texts
with one fault that sends a slice to the line rule, and on large files
with faults deep inside and at the slice boundaries.  The CLI's tree
route, which strips a text slice by slice, must answer as reading the
whole text first does."""

import io
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from distindex import (
    Graph,
    GraphError,
    NotATreeError,
    RootedTree,
    cli,
    from_edge_list,
    graphs,
    parse_edge_ends,
)
from distindex.graphs import _SLICE
from helpers import (
    parse_edge_list,
    reference_from_edge_list,
    reference_parse_edge_ends,
    reference_parse_edge_list,
)

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


#: Characters str.splitlines breaks a line at, besides "\n".
BREAKS = ("\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029", "\r")
#: Stand-ins for the one space between two tokens.
SEPARATORS = ("\t", "\xa0", "\x1f", "\u3000", "  ")
#: Tokens JSON does not read as the integer int() reads, if any.
FALLBACK_TOKENS = ("+2", "07", "00", "1_0", "٣", "-", "+", "1-2", "--1", "2.0", "x", "")
#: A token JSON and int() both read, as 0.
NEGATIVE_ZERO = "-0"


@st.composite
def canonical_texts(draw):
    """The lines (without "\n") of a canonical text on n <= 6 vertices:
    the header "n m", then m lines of two vertices, sometimes -1 or n."""
    n = draw(st.integers(1, 6))
    vertex = st.one_of(st.integers(0, n - 1), st.sampled_from((-1, n)))
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=8))
    return [f"{n} {len(edges)}"] + [f"{u} {v}" for u, v in edges]


@st.composite
def faulted_texts(draw):
    """A canonical text with one fault; returns the text and whether the
    line rule must read a line of it."""
    lines = draw(canonical_texts())
    return draw(one_fault(lines, draw(st.integers(0, len(lines) - 1))))


@st.composite
def one_fault(draw, lines, i):
    """The canonical lines (header first, without "\n") with one fault in
    line i, as a text, and whether the line rule must read a line of it:
    every fault but a wrong count or a -0 makes its slice not canonical."""
    lines = list(lines)
    a, b = lines[i].split(" ")
    kind = draw(st.sampled_from(("break", "separator", "token", "final", "count", "insert")))
    ending = "\n"
    if kind == "break":
        ch = draw(st.sampled_from(BREAKS))
        where = draw(st.sampled_from(("space", "end", "token")))
        if where == "space":
            lines[i] = a + ch + b
        elif where == "end":
            lines[i] += ch
        else:
            cut = draw(st.integers(0, len(a)))
            lines[i] = a[:cut] + ch + a[cut:] + " " + b
    elif kind == "separator":
        sep = draw(st.sampled_from(SEPARATORS + ("lead", "trail")))
        if sep == "lead":
            lines[i] = " " + lines[i]
        elif sep == "trail":
            lines[i] += " "
        else:
            lines[i] = a + sep + b
    elif kind == "token":
        token = draw(st.sampled_from(FALLBACK_TOKENS + (NEGATIVE_ZERO,)))
        first = draw(st.booleans())
        lines[i] = f"{token} {b}" if first else f"{a} {token}"
        if token == NEGATIVE_ZERO:
            # read as 0 by JSON and int() alike
            return "\n".join(lines) + ending, False
    elif kind == "final":
        ending = ""
    elif kind == "count":
        n, m = lines[0].split(" ")
        lines[0] = f"{n} {int(m) + draw(st.sampled_from((-1, 1)))}"
    else:
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(("# c", "#", "", " "))))
    return "\n".join(lines) + ending, kind != "count"


@settings(derandomize=True, deadline=None, max_examples=200)
@given(canonical_texts())
def test_canonical_text_skips_line_reader(lines):
    text = "\n".join(lines) + "\n"
    ran = AssertionError("line rule ran")
    with mock.patch.object(graphs, "_first_row", side_effect=ran), \
            mock.patch.object(graphs, "_line_ints", side_effect=ran), \
            mock.patch.object(graphs, "_count_rows", side_effect=ran):
        got = outcome(parse_edge_ends, text)
    assert got == outcome(reference_parse_edge_ends, text)


@settings(derandomize=True, deadline=None, max_examples=800)
@given(faulted_texts())
@example(("3\x0c2\n0 1\n1 2\n", True))
@example(("3 2\n0 +1\n1 02\n", True))
@example(("3 2\n0 -0\n1 2\n", False))
@example(("2 1\n0 1", True))
def test_one_fault_matches_reference(case):
    text, refused = case
    with mock.patch.object(graphs, "_first_row", wraps=graphs._first_row) as header_read, \
            mock.patch.object(graphs, "_line_ints", wraps=graphs._line_ints) as lines_read:
        got = outcome(parse_edge_ends, text)
    assert got == outcome(reference_parse_edge_ends, text)
    assert (header_read.called or lines_read.called) == refused
    assert outcome(parse_edge_list, text) == outcome(reference_parse_edge_list, text)


@settings(derandomize=True, deadline=None, max_examples=400)
@given(st.integers(1, 12), st.one_of(edge_list_texts(), faulted_texts().map(lambda case: case[0])))
@example(1, "1 1\n#\n0")  # a last slice with no '\n' is no canonical slice
@example(4, "3 2\n12 3\n45")
def test_parse_in_small_slices_matches_reference(width, text):
    # slices of a few characters, so that headers, comments, faults and
    # the line rule's slices fall on every side of a slice boundary
    with mock.patch.object(graphs, "_SLICE", width):
        got = outcome(parse_edge_list, text)
    assert got == outcome(reference_parse_edge_list, text)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.integers(-1, 6), st.lists(st.tuples(st.integers(-1, 6), st.integers(-1, 6)), max_size=10))
def test_build_matches_reference(n, edges):
    assert outcome(from_edge_list, n, edges) == outcome(reference_from_edge_list, n, edges)


def whole_text_read(text):
    """cli._read_tree as it was before the tree route read by slices:
    parse the whole text, then strip its flat list."""
    n, ends = parse_edge_ends(text)
    try:
        return RootedTree.build(n, [ends])
    except NotATreeError:
        return None


def compute(text, *argv):
    """Exit code, stdout and stderr of compute --stdin on text."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(text)), redirect_stdout(out), redirect_stderr(err):
        code = cli.main(["compute", "--stdin", *argv, "--no-timing"])
    return code, out.getvalue(), err.getvalue()


@st.composite
def sliced_tree_texts(draw):
    """A slice width of 1..48 characters and the canonical text of a tree
    on at most 60 vertices, so that it spans several slices.  At lines
    that open or close a slice, the tree may get an out-of-range end, a
    loop, a repeat or an edge moved (often closing a cycle), and the
    text may get one fault of faulted_texts' list."""
    n = draw(st.integers(1, 60))
    labels = draw(st.permutations(range(n)))
    edges = [(labels[v], labels[draw(st.integers(0, v - 1))]) for v in range(1, n)]
    edges = [(v, u) if draw(st.booleans()) else (u, v) for u, v in edges]
    width = draw(st.integers(1, 48))
    lines = [f"{n} {n - 1}"] + [f"{u} {v}" for u, v in edges]
    firsts = slice_first_lines("\n".join(lines) + "\n", width)
    edge_lines = sorted({line - 1 for first in firsts for line in (first - 1, first)}) or [0]
    if edges and draw(st.booleans()):
        i = draw(st.sampled_from([i for i in edge_lines if i] or [1]))
        u, v = edges[i - 1]
        kind = draw(st.sampled_from(("range", "loop", "repeat", "move")))
        if kind == "range":
            edge = (u, draw(st.sampled_from((-1, n))))
        elif kind == "loop":
            edge = (u, u)
        elif kind == "repeat":
            edge = draw(st.sampled_from(edges))
        else:
            edge = (u, draw(st.integers(0, n - 1)))
        lines[i] = "%d %d" % edge
    if draw(st.integers(0, 3)):
        return width, draw(one_fault(lines, draw(st.sampled_from(edge_lines))))[0]
    return width, "\n".join(lines) + "\n"


@settings(derandomize=True, deadline=None, max_examples=500)
@given(sliced_tree_texts())
@example((8, "4 3\n0 1\n1 2\n0 2\n"))
@example((4, "3 2\n0 1\n1 -1\n"))
@example((4, "4 3\n0 1\n1 -1\n2 3\n\x0c\n"))  # out of range, then a form fault
def test_sliced_tree_route_matches_whole_text_read(case):
    width, text = case
    with mock.patch.object(graphs, "_SLICE", width):
        for argv in (["--index", "wk", "--k", "2"], ["--index", "poly"], ["--index", "twk", "--k", "1"]):
            got = compute(text, *argv)
            with mock.patch.object(cli, "_read_tree", whole_text_read):
                assert got == compute(text, *argv), argv


#: A path on 200 000 vertices; faults go in at file line 150 000 (the
#: header is line 1) and, for two faults, at line 190 000 or 120 000,
#: and around the canonical reader's slice boundaries.
PATH_N = 200_000
PATH_LINES = [f"{PATH_N} {PATH_N - 1}"] + [f"{i} {i + 1}" for i in range(PATH_N - 1)]


def slice_first_lines(text, width=_SLICE):
    """The file line that opens each slice of the canonical reader: a
    slice runs from the line after the last one's end for width - 1
    characters, then on to the end of that line."""
    firsts, stop = [], text.index("\n") + 1
    while stop < len(text):
        firsts.append(text.count("\n", 0, stop) + 1)
        stop = text.find("\n", stop + width - 1) + 1 or len(text)
    return firsts


#: The first lines of the path's 4th and 7th slices.
SLICE_A, SLICE_B = (slice_first_lines("\n".join(PATH_LINES) + "\n")[i] for i in (3, 6))


def same_length(line, kind):
    """A fault in file line `line` of the path that keeps the line's
    length, so no slice boundary moves: a non-integer token, a loop, a
    tab or a form feed for the space."""
    u, v = PATH_LINES[line - 1].split(" ")
    fault = {"x": f"{u} {v[:-1]}x", "loop": f"{u} {u}", "tab": f"{u}\t{v}", "ff": f"{u}\x0c{v}"}[kind]
    assert len(fault) == len(u) + 1 + len(v)
    return fault


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
        # the first edge line, the last line of a slice, the first and
        # second line of the next, and the last line of the file, which
        # falls in the short final slice
        {2: same_length(2, "x")},
        {SLICE_A - 1: same_length(SLICE_A - 1, "x")},
        {SLICE_A: same_length(SLICE_A, "x")},
        {SLICE_A + 1: same_length(SLICE_A + 1, "x")},
        {PATH_N: "1 x"},
        # a line break for the space at a slice's edge: one line too many
        {SLICE_A - 1: same_length(SLICE_A - 1, "ff")},
        {SLICE_A: same_length(SLICE_A, "ff")},
        # a graph fault at the end of one slice, a format fault at the
        # start of the next: the format fault still wins; and the other
        # way round
        {SLICE_A - 1: same_length(SLICE_A - 1, "loop"), SLICE_A: same_length(SLICE_A, "x")},
        {SLICE_A - 1: same_length(SLICE_A - 1, "x"), SLICE_A: same_length(SLICE_A, "loop")},
        # a tab at a slice boundary, which the line rule takes in place,
        # then a loop slices later: the loop is named
        {SLICE_A: same_length(SLICE_A, "tab"), SLICE_B: same_length(SLICE_B, "loop")},
        # a tab that sends the end of one slice to the line rule, then a
        # bad line at the start of the next
        {SLICE_A - 1: same_length(SLICE_A - 1, "tab"), SLICE_A: same_length(SLICE_A, "x")},
        # a graph fault and, on the next line, a format fault, both
        # inside one slice that the line rule reads
        {131_073: "7 7", 131_074: "x y"},
    ],
    ids=lambda faults: " + ".join(f"{line}:{text}" for line, text in faults.items()),
)
def test_first_fault_reported_at_scale(faults):
    lines = list(PATH_LINES)
    for line, text in faults.items():
        lines[line - 1] = text
    text = "\n".join(lines) + "\n"
    got = outcome(parse_edge_list, text)
    assert not isinstance(got, Graph)
    assert got == outcome(reference_parse_edge_list, text)


def test_overstated_edge_count_reaches_line_reader_unallocated():
    # canonical lines, but a header m that four characters a line cannot
    # reach: the flat list is never allocated, and the line rule counts
    # the rows to name the count
    text = "3 1000000\n0 1\n1 2\n"
    tracemalloc.start()
    try:
        with mock.patch.object(graphs, "_count_rows", wraps=graphs._count_rows) as lines_read:
            got = outcome(parse_edge_ends, text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == outcome(reference_parse_edge_ends, text)
    assert got[1] == "expected 1000000 edge lines, found 2" and lines_read.called
    assert peak < 2**20


def test_canonical_ends_hold_no_spare_slots():
    text = "\n".join(PATH_LINES) + "\n"
    n, ends = parse_edge_ends(text)
    assert len(ends) == 2 * (n - 1)
    assert sys.getsizeof(ends) == sys.getsizeof([0] * len(ends))


def test_parse_peak_with_chunked_conversion_and_lists_freed():
    # The canonical text is converted a slice at a time, and each
    # neighbour list is freed once its tuple exists.  On Python 3.11
    # tracemalloc read a 32.0 MiB peak (32.1 MiB with a tab in the last
    # line, whose slice the line rule reads), 44.8 MiB with chunking
    # alone, and 52.4 MiB with one batch and every list kept.
    text = "\n".join(PATH_LINES) + "\n"
    tracemalloc.start()
    try:
        g = parse_edge_list(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.n == PATH_N and g.m == PATH_N - 1
    assert peak < 40 * 2**20


def traced_wk5_peak(tmp_path, text):
    """The traced peak of compute --index wk --k 5 on text, in bytes."""
    path = tmp_path / "path.txt"
    path.write_text(text)
    out = io.StringIO()
    tracemalloc.start()
    try:
        with redirect_stdout(out):
            code = cli.main(["compute", "--input", str(path), "--index", "wk", "--k", "5", "--no-timing"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert out.getvalue() == (
        '{"index":"wk","k":5,"m":199999,"method":"linear","n":200000,"wk":199995}\n'
    )
    return peak


def test_tree_request_peak_holds_no_flat_list(tmp_path):
    # The tree route strips the text slice by slice and frees each
    # slice's ints once counted, so the 2*(n - 1) ends are never held at
    # once.  On Python 3.11 tracemalloc read 13.2 MiB, against 24.4 MiB
    # when the whole flat list was parsed before the strip.
    assert traced_wk5_peak(tmp_path, "\n".join(PATH_LINES) + "\n") < 18 * 2**20


def first_lines(calls):
    """The first line of each text a converter was called on."""
    return [call.args[0].partition("\n")[0] for call in calls.call_args_list]


def test_late_line_rule_slice_is_read_in_place():
    # a tab in the last line: every slice before it is converted once as
    # canonical, and the line rule reads the last slice only, with no
    # second pass from the first line
    text = "\n".join(PATH_LINES[:-1] + [PATH_LINES[-1].replace(" ", "\t")]) + "\n"
    with mock.patch.object(graphs, "_canonical_ints", wraps=graphs._canonical_ints) as canonical, \
            mock.patch.object(graphs, "_line_ints", wraps=graphs._line_ints) as lines_read, \
            mock.patch.object(graphs, "_count_rows", wraps=graphs._count_rows) as counted:
        n, ends = parse_edge_ends(text)
    assert (n, ends) == reference_parse_edge_ends(text)
    firsts = [PATH_LINES[0]] + [PATH_LINES[line - 1] for line in slice_first_lines(text)]
    assert first_lines(canonical) == firsts
    assert first_lines(lines_read) == firsts[-1:]
    assert not counted.called


def test_tree_request_peak_with_a_comment_line(tmp_path):
    # the slice holding the comment goes through the line rule in place,
    # so the request holds what a canonical text's does; on Python 3.11
    # tracemalloc read 27.0 MiB against 13.4 MiB when the comment sent
    # the whole text to a second, line-by-line read
    lines = list(PATH_LINES)
    lines.insert(100_000, "# comment")  # file line 100 001
    canonical = traced_wk5_peak(tmp_path, "\n".join(PATH_LINES) + "\n")
    commented = traced_wk5_peak(tmp_path, "\n".join(lines) + "\n")
    assert commented < 1.1 * canonical

import json
import random
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from distindex import (
    GraphError,
    TreeSpec,
    caterpillar_twk,
    cycle_graph,
    format_edge_list,
    gen_coronene,
    gen_tree,
    hypercube_graph,
    random_tree,
    zagreb,
)
from distindex.cli import build_parser, main
from helpers import all_free_trees, limit_memory, parse_edge_list, path_graph

ROOT = Path(__file__).resolve().parents[1]
SCHEMA = json.loads((ROOT / "schema" / "report.json").read_text())


def document(out: str) -> dict:
    """Parse one JSON document from stdout and validate it against the
    report schema."""
    doc = json.loads(out)
    jsonschema.validate(doc, SCHEMA)
    return doc


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_graph(tmp_path, g, name="g.txt"):
    path = tmp_path / name
    path.write_text(format_edge_list(g))
    return str(path)


def test_compute_poly_p4(tmp_path, capsys):
    path = write_graph(tmp_path, path_graph(4))
    code, out, _ = run_cli(capsys, "compute", "--input", path, "--index", "poly")
    assert code == 0
    payload = document(out)
    assert payload["poly"] == [0, 3, 2, 1]
    assert payload["n"] == 4 and payload["m"] == 3
    assert payload["method"] == "linear"
    assert "elapsed_ms" in payload


def test_compute_poly_oracle_matches_linear(tmp_path, capsys):
    path = write_graph(tmp_path, path_graph(6))
    _, out_lin, _ = run_cli(
        capsys, "compute", "--input", path, "--index", "poly",
        "--method", "linear", "--no-timing",
    )
    _, out_orc, _ = run_cli(
        capsys, "compute", "--input", path, "--index", "poly",
        "--method", "oracle", "--no-timing",
    )
    lin = document(out_lin)
    orc = document(out_orc)
    assert lin["poly"] == orc["poly"]
    assert lin["method"] == "linear" and orc["method"] == "oracle"


def test_compute_poly_long_path(tmp_path, capsys):
    n = 1000
    path = write_graph(tmp_path, path_graph(n))
    code, out, _ = run_cli(
        capsys, "compute", "--input", path, "--index", "poly", "--no-timing"
    )
    assert code == 0
    payload = document(out)
    assert payload["method"] == "linear"
    assert payload["poly"] == [0] + [n - k for k in range(1, n)]


def test_compute_stdin(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("2 1\n0 1\n"))
    code, out, _ = run_cli(capsys, "compute", "--stdin", "--index", "wiener")
    assert code == 0
    assert document(out)["wiener"] == 1


def test_compute_no_timing_deterministic(tmp_path, capsys):
    path = write_graph(tmp_path, path_graph(8))
    args = ("compute", "--input", path, "--index", "all", "--k", "2", "--no-timing")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second
    payload = document(first)
    assert payload["wiener"] == 84
    assert payload["wk_star"] == 13
    assert "elapsed_ms" not in payload


def test_compute_elapsed_counts_reading_and_parsing(capsys, monkeypatch):
    """The clock starts before the input is read, so elapsed_ms covers
    reading and parsing as well as the index itself."""
    import time

    import distindex.cli

    class SlowStdin:
        def read(self):
            time.sleep(0.03)
            return "2 1\n0 1\n"

    parse = distindex.cli.parse_edge_ends

    def slow_parse(text):
        time.sleep(0.03)
        return parse(text)

    monkeypatch.setattr("sys.stdin", SlowStdin())
    monkeypatch.setattr(distindex.cli, "parse_edge_ends", slow_parse)
    code, out, _ = run_cli(capsys, "compute", "--stdin", "--index", "wiener")
    assert code == 0
    assert document(out)["elapsed_ms"] >= 60


def test_compute_twk_cut_on_coronene(tmp_path, capsys):
    path = write_graph(tmp_path, gen_coronene(2).graph)
    code, out, _ = run_cli(
        capsys, "compute", "--input", path, "--index", "twk",
        "--k", "3", "--method", "cut",
    )
    assert code == 0
    assert document(out)["twk"] == 174


def test_compute_auto_picks_cut_for_partial_cube(tmp_path, capsys):
    path = write_graph(tmp_path, gen_coronene(1).graph)
    code, out, _ = run_cli(capsys, "compute", "--input", path, "--index", "twk", "--k", "2")
    assert code == 0
    payload = document(out)
    assert payload["method"] == "cut"
    assert payload["twk"] == 27


@pytest.fixture
def verifier_calls(monkeypatch):
    """The order of each graph is_partial_cube verifies, in call order."""
    import distindex.cli
    import distindex.partial_cube

    calls = []
    verify = distindex.partial_cube.is_partial_cube

    def counting(g):
        calls.append(g.n)
        return verify(g)

    monkeypatch.setattr(distindex.cli, "is_partial_cube", counting)
    monkeypatch.setattr(distindex.partial_cube, "is_partial_cube", counting)
    return calls


def test_compute_auto_twk_verifies_once(tmp_path, capsys, verifier_calls):
    path = write_graph(tmp_path, gen_coronene(2).graph)
    code, out, _ = run_cli(capsys, "compute", "--input", path, "--index", "twk", "--k", "3")
    assert code == 0
    assert document(out)["twk"] == 174
    assert verifier_calls == [24]


def _twk_on_caterpillar(tmp_path, capsys, *method):
    path = write_graph(tmp_path, gen_tree(TreeSpec.caterpillar(40, 4, 6)))
    code, out, _ = run_cli(
        capsys, "compute", "--input", path, "--index", "twk", "--k", "4", *method, "--no-timing"
    )
    assert code == 0
    payload = document(out)
    assert payload["method"] == "cut"
    assert payload["twk"] == caterpillar_twk(40, 4, 6)


def test_compute_auto_twk_on_tree_skips_verification(tmp_path, capsys, verifier_calls):
    _twk_on_caterpillar(tmp_path, capsys)
    assert verifier_calls == []


def test_compute_cut_twk_on_tree_skips_verification(tmp_path, capsys, verifier_calls):
    _twk_on_caterpillar(tmp_path, capsys, "--method", "cut")
    assert verifier_calls == []


@pytest.mark.parametrize("index", [["--index", "poly"], ["--index", "wk", "--k", "3"]])
def test_compute_auto_tree_certified_once(tmp_path, capsys, monkeypatch, index):
    import distindex.graphs
    import distindex.tree_linear

    builds = []
    searches = []
    build = distindex.tree_linear.RootedTree.build
    search = distindex.graphs.bfs_distances

    def counting_build(n, chunks):
        builds.append(n)
        return build(n, chunks)

    def counting_search(g, source):
        searches.append(source)
        return search(g, source)

    monkeypatch.setattr(distindex.tree_linear.RootedTree, "build", staticmethod(counting_build))
    monkeypatch.setattr(distindex.graphs, "bfs_distances", counting_search)
    g = random_tree(30, random.Random(4))
    path = write_graph(tmp_path, g)
    code, out, _ = run_cli(capsys, "compute", "--input", path, *index)
    assert code == 0
    assert document(out)["method"] == "linear"
    assert builds == [30]
    assert searches == []


#: A 40-vertex path in canonical form: a header and four slices of 64
#: characters, which open at edge lines 1, 15, 26 and 37.
PATH40 = format_edge_list(path_graph(40))
#: n - 1 edges but no tree: a triangle and an isolated vertex.
TRIANGLE = "4 3\n0 1\n1 2\n0 2\n"
WK2 = ("wk", "--k", "2")
LINEAR = ("--method", "linear")
NOT_A_TREE = "error: input graph is not a tree\n"


@pytest.mark.parametrize(
    "text, args, want, reads",
    [
        # a comment line in the second slice: the line rule reads that
        # slice in place, and the strip goes on to the end
        (PATH40.replace("\n20 21\n", "\n# c\n20 21\n"), WK2, (0, 38), (5, 1, 0, 1, 0)),
        # a tab in the last line: each slice is read once, and the line
        # rule reads the last one after the canonical check refuses it
        (PATH40[:-3] + "\t39\n", WK2, (0, 38), (5, 1, 0, 1, 0)),
        # n - 1 edges but no tree: read again (header and one slice) by
        # parse_edge_ends, with no second strip; the oracle names the
        # fault
        (TRIANGLE, WK2, (4, "error: graph is not connected\n"), (4, 0, 1, 1, 1)),
        # the same text with --method linear: the strip's refusal is the
        # error, and no kernel strips the Graph again
        (TRIANGLE, WK2 + LINEAR, (3, NOT_A_TREE), (4, 0, 1, 1, 1)),
        (TRIANGLE, ("poly",) + LINEAR, (3, NOT_A_TREE), (4, 0, 1, 1, 1)),
        # a header with m != n - 1: no strip; parse_edge_ends reads the
        # header again and joins the slices
        ("4 2\n0 1\n2 3\n", WK2, (4, "error: graph is not connected\n"), (3, 0, 1, 0, 1)),
    ],
    ids=[
        "comment", "tab-last-line", "triangle-and-vertex", "triangle-linear-wk",
        "triangle-linear-poly", "two-edges",
    ],
)
def test_compute_tree_route_reads_each_text_at_most_twice(
    capsys, monkeypatch, text, args, want, reads
):
    """Counts, per request, canonical slice conversions (header
    included), line-rule slice conversions, parse_edge_ends calls,
    strips and Graph builds."""
    import io

    import distindex.cli
    import distindex.graphs
    import distindex.tree_linear

    counts = dict.fromkeys(("slices", "lines", "ends", "strips", "graphs"), 0)

    def counting(key, fn):
        def call(*args):
            counts[key] += 1
            return fn(*args)
        return call

    graphs, cli = distindex.graphs, distindex.cli
    monkeypatch.setattr(graphs, "_SLICE", 64)
    monkeypatch.setattr(graphs, "_canonical_ints", counting("slices", graphs._canonical_ints))
    monkeypatch.setattr(graphs, "_line_ints", counting("lines", graphs._line_ints))
    monkeypatch.setattr(cli, "parse_edge_ends", counting("ends", cli.parse_edge_ends))
    rooted = distindex.tree_linear.RootedTree
    monkeypatch.setattr(rooted, "build", staticmethod(counting("strips", rooted.build)))
    monkeypatch.setattr(cli, "from_edge_list", counting("graphs", cli.from_edge_list))
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, err = run_cli(capsys, "compute", "--stdin", "--index", *args, "--no-timing")
    assert (code, document(out)[args[0]] if out else err) == want
    assert tuple(counts.values()) == reads


def test_compute_refused_tree_reads_each_slice_at_most_twice(capsys, monkeypatch):
    """An end out of range in the first slice and a tab in the last: the
    strip stops at the bad end, parse_edge_ends reads the text once
    more, the line rule takes the last slice in place, and no line pass
    runs over the whole text."""
    import collections
    import io

    import distindex.graphs

    graphs = distindex.graphs
    text = PATH40.replace("\n1 2\n", "\n1 -1\n")[:-3] + "\t39\n"
    reads = collections.Counter()

    def counting(fn):
        def call(lines):
            reads[lines] += 1
            return fn(lines)
        return call

    monkeypatch.setattr(graphs, "_SLICE", 64)
    monkeypatch.setattr(graphs, "_canonical_ints", counting(graphs._canonical_ints))
    line_ints = counting(graphs._line_ints)
    monkeypatch.setattr(graphs, "_line_ints", line_ints)
    for name in ("_first_row", "_count_rows"):
        monkeypatch.setattr(graphs, name, lambda *args: pytest.fail("line pass over the text"))
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    got = run_cli(capsys, "compute", "--stdin", "--index", "wk", "--k", "2", "--no-timing")
    assert got == (2, "", "error: edge (1, -1) outside 0..39\n")
    assert max(reads.values()) == 2
    assert "".join(reads) == text  # header and slices, each counted once
    # the header and first slice by the strip and by the re-read, the
    # next two once, the last by both converters
    assert sum(reads.values()) == 8


@pytest.mark.parametrize("index", [["wk", "--k", "2"], ["poly"], ["twk", "--k", "1"]])
@pytest.mark.parametrize(
    "text, code, err",
    [
        ("3 2\n0 1\n1 -1\n", 2, "error: edge (1, -1) outside 0..2\n"),
        ("3 2\n0 1\n1 3\n", 2, "error: edge (1, 3) outside 0..2\n"),
        ("3 2\n0 0\n1 2\n", 2, "error: loop at vertex 0\n"),
        ("3 2\n0 1\n0 1\n", 2, "error: edge (0, 1) repeated\n"),
        ("4 3\n0 1\n1 2\n0 2\n", 4, "error: graph is not connected\n"),
    ],
)
def test_compute_tree_shaped_bad_inputs(tmp_path, capsys, index, text, code, err):
    """n - 1 edges that are no tree: the leaf strip refuses them and the
    Graph build or the oracle reports the same error as ever."""
    path = tmp_path / "bad.txt"
    path.write_text(text)
    got = run_cli(capsys, "compute", "--input", str(path), "--index", *index, "--no-timing")
    assert got == (code, "", err)


def test_compute_single_vertex_on_the_tree_route(tmp_path, capsys):
    path = tmp_path / "one.txt"
    path.write_text("1 0\n")
    for index, want in ((["poly"], '"poly":[0]'), (["wk", "--k", "2"], '"wk":0')):
        code, out, _ = run_cli(
            capsys, "compute", "--input", str(path), "--index", *index, "--no-timing"
        )
        assert code == 0
        assert document(out)["method"] == "linear" and want in out


def test_compute_method_cut_rejects_odd_cycle(tmp_path, capsys):
    text = "5 5\n0 1\n1 2\n2 3\n3 4\n0 4\n"
    path = tmp_path / "c5.txt"
    path.write_text(text)
    code, _, err = run_cli(
        capsys, "compute", "--input", str(path), "--index", "twk",
        "--k", "2", "--method", "cut",
    )
    assert code == 3
    assert "not_bipartite" in err


def test_compute_method_linear_rejects_cycle(tmp_path, capsys):
    text = "4 4\n0 1\n1 2\n2 3\n0 3\n"
    path = tmp_path / "c4.txt"
    path.write_text(text)
    code, _, err = run_cli(
        capsys, "compute", "--input", str(path), "--index", "wk",
        "--k", "2", "--method", "linear",
    )
    assert code == 3
    assert "tree" in err


TWO_EDGES = "4 2\n0 1\n2 3\n"
TWO_P4 = "8 6\n0 1\n1 2\n2 3\n4 5\n5 6\n6 7\n"


@pytest.mark.parametrize("text, args", [
    (TWO_EDGES, ["--index", "wiener"]),
    (TWO_EDGES, ["--index", "twk", "--k", "1"]),
    (TWO_EDGES, ["--index", "twk", "--k", "1", "--method", "cut"]),
    (TWO_EDGES, ["--index", "wk", "--k", "2"]),
    (TWO_P4, ["--index", "wk", "--k", "2"]),
    (TWO_P4, ["--index", "wk-star", "--k", "2"]),
    (TWO_P4, ["--index", "wk", "--k", "2", "--method", "oracle"]),
], ids=["wiener", "twk", "twk-cut", "wk-past-diameters", "wk", "wk-star", "wk-oracle"])
def test_compute_disconnected_exit_code(tmp_path, capsys, text, args):
    # W_k and W_k* at k = 2 stop the sweep at radius 2 on the two paths
    # of diameter 3, and a BFS finds the graph disconnected; past the
    # two edges' diameters a round grows no ball
    path = tmp_path / "dis.txt"
    path.write_text(text)
    code, _, err = run_cli(capsys, "compute", "--input", str(path), *args)
    assert code == 4
    assert "connected" in err


@pytest.mark.parametrize("index", [["--index", "poly"], ["--index", "wk", "--k", "1"], ["--index", "twk", "--k", "1"]])
def test_compute_auto_disconnected_with_tree_edge_count(tmp_path, capsys, index):
    path = tmp_path / "dis.txt"
    path.write_text("5 4\n0 1\n1 2\n0 2\n3 4\n")
    code, out, err = run_cli(capsys, "compute", "--input", str(path), *index)
    assert (code, out, err) == (4, "", "error: graph is not connected\n")


@pytest.mark.parametrize(
    "text, builds",
    [
        ("1 0\n", 0),
        ("2 1\n1 0\n", 0),
        ("5 4\n0 1\n1 2\n1 3\n3 4\n", 0),
        (format_edge_list(random_tree(40, random.Random(61))), 0),
        (format_edge_list(gen_tree(TreeSpec.caterpillar(40, 4, 6))), 0),
        (format_edge_list(cycle_graph(6)), 1),
        ("4 3\n0 1\n1 2\n0 2\n", 1),  # n - 1 edges, not connected
        ("4 2\n0 1\n2 3\n", 1),
        ("3 2\n0 1\n1 -1\n", 1),
        ("3 2\n0 0\n1 2\n", 1),
        ("3 2\n0 1\n0 1\n", 1),
        ("3 2\n0 1\n", 0),  # a format error, before any build
    ],
)
def test_compute_zagreb_tree_route_matches_graph(tmp_path, capsys, monkeypatch, text, builds):
    """auto zagreb reads a tree's degrees off the leaf strip and builds no
    Graph; its bytes, and its errors on anything else, are those of the
    Graph route (--method oracle), and so are the flag errors' order."""
    import distindex.cli

    path = tmp_path / "g.txt"
    path.write_text(text)
    argv = ("compute", "--input", str(path), "--index", "zagreb", "--no-timing")
    want = run_cli(capsys, *argv, "--method", "oracle")
    try:
        g = parse_edge_list(text)
    except GraphError:
        g = None
    else:
        doc = document(want[1])
        assert (doc["m1"], doc["m2"]) == zagreb(g.degrees(), g.edges())
    built = []
    build = distindex.cli.from_edge_list

    def counting_build(n, edges):
        built.append(n)
        return build(n, edges)

    monkeypatch.setattr(distindex.cli, "from_edge_list", counting_build)
    assert run_cli(capsys, *argv) == want
    assert len(built) == builds
    # a flag error comes after the input's own error, as ever
    for method, applies in (("linear", "wk or poly"), ("cut", "twk")):
        flag_error = (2, "", f"error: --method {method} applies to --index {applies}\n")
        assert run_cli(capsys, *argv, "--method", method) == (want if g is None else flag_error)


def test_compute_oversized_header_exits_two():
    proc = subprocess.run(
        [sys.executable, "-m", "distindex.cli", "compute", "--stdin", "--index", "wiener"],
        input="3000000000 0\n",
        capture_output=True,
        text=True,
        timeout=30,
        preexec_fn=limit_memory,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: vertex count must be <= 2097152, got 3000000000\n"


@pytest.mark.parametrize(
    "family, params, order",
    [
        ("coronene", ["--k", "100000"], 6 * 100000**2),
        ("cycle", ["--n", "1000000000"], 10**9),
        ("caterpillar", ["--n", "1000000000", "--kdeg", "3", "--p", "1"], 10**9),
    ],
)
def test_gen_oversized_order_exits_two(tmp_path, family, params, order):
    # the order is refused before any edge list is built
    out = tmp_path / "big.txt"
    proc = subprocess.run(
        [sys.executable, "-m", "distindex.cli", "gen", "--family", family, *params,
         "--out", str(out)],
        capture_output=True,
        text=True,
        timeout=10,
        preexec_fn=limit_memory,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"error: vertex count must be <= 2097152, got {order}\n"
    assert not out.exists()


#: compute --no-timing documents of the oracle, frozen from the per-source
#: BFS implementation the ball sweep replaced.
ORACLE_DOCUMENTS = {
    ("c5", "all"): '{"index":"all","m":5,"m1":20,"m2":20,"method":"oracle","n":5,"poly":[0,5,5],"twk_by_degree":{"2":15},"wiener":15}',
    ("c5", "all --k 2"): '{"index":"all","k":2,"m":5,"m1":20,"m2":20,"method":"oracle","n":5,"poly":[0,5,5],"star_k":2,"twk_by_degree":{"2":15},"twk_star":15,"wiener":15,"wk_star":10}',
    ("c5", "wiener"): '{"index":"wiener","m":5,"method":"oracle","n":5,"wiener":15}',
    ("c5", "poly"): '{"index":"poly","m":5,"method":"oracle","n":5,"poly":[0,5,5]}',
    ("c5", "wk-star --k 2"): '{"index":"wk-star","k":2,"m":5,"method":"oracle","n":5,"wk_star":10}',
    ("coronene2", "all"): '{"index":"all","m":30,"m1":156,"m2":204,"method":"oracle","n":24,"poly":[0,30,48,57,54,45,30,12],"twk_by_degree":{"2":300,"3":174},"wiener":1002}',
    ("coronene2", "all --k 2"): '{"index":"all","k":2,"m":30,"m1":156,"m2":204,"method":"oracle","n":24,"poly":[0,30,48,57,54,45,30,12],"star_k":2,"twk_by_degree":{"2":300,"3":174},"twk_star":300,"wiener":1002,"wk_star":78}',
    ("coronene2", "wiener"): '{"index":"wiener","m":30,"method":"oracle","n":24,"wiener":1002}',
    ("coronene2", "poly"): '{"index":"poly","m":30,"method":"oracle","n":24,"poly":[0,30,48,57,54,45,30,12]}',
    ("coronene2", "wk-star --k 2"): '{"index":"wk-star","k":2,"m":30,"method":"oracle","n":24,"wk_star":78}',
    ("q4", "all"): '{"index":"all","m":32,"m1":256,"m2":512,"method":"oracle","n":16,"poly":[0,32,48,32,8],"twk_by_degree":{"4":256},"wiener":256}',
    ("q4", "all --k 2"): '{"index":"all","k":2,"m":32,"m1":256,"m2":512,"method":"oracle","n":16,"poly":[0,32,48,32,8],"star_k":2,"twk_by_degree":{"4":256},"twk_star":0,"wiener":256,"wk_star":80}',
    ("q4", "wiener"): '{"index":"wiener","m":32,"method":"oracle","n":16,"wiener":256}',
    ("q4", "poly"): '{"index":"poly","m":32,"method":"oracle","n":16,"poly":[0,32,48,32,8]}',
    ("q4", "wk-star --k 2"): '{"index":"wk-star","k":2,"m":32,"method":"oracle","n":16,"wk_star":80}',
}


@pytest.mark.parametrize("name, argv", sorted(ORACLE_DOCUMENTS))
def test_compute_oracle_documents_frozen(tmp_path, capsys, name, argv):
    g = {"c5": cycle_graph(5), "coronene2": gen_coronene(2).graph, "q4": hypercube_graph(4)}[name]
    path = write_graph(tmp_path, g)
    code, out, err = run_cli(
        capsys, "compute", "--input", path, "--index", *argv.split(), "--no-timing"
    )
    assert (code, err) == (0, "")
    assert out == ORACLE_DOCUMENTS[name, argv] + "\n"
    document(out)


def test_compute_zagreb_on_disconnected_is_fine(tmp_path, capsys):
    path = tmp_path / "dis.txt"
    path.write_text("4 2\n0 1\n2 3\n")
    code, out, _ = run_cli(capsys, "compute", "--input", str(path), "--index", "zagreb")
    assert code == 0
    payload = document(out)
    assert payload["m1"] == 4 and payload["m2"] == 2


def test_compute_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("3 9\n0 1\n")
    code, _, err = run_cli(capsys, "compute", "--input", str(path), "--index", "wiener")
    assert code == 2
    assert err


def test_compute_empty_vertex_set_exit_code(tmp_path, capsys):
    path = tmp_path / "empty.txt"
    path.write_text("0 0\n")
    code, out, err = run_cli(capsys, "compute", "--input", str(path), "--index", "wiener")
    assert code == 2
    assert not out
    assert "vertex count" in err


def test_compute_missing_file_exit_code(capsys):
    code, _, err = run_cli(capsys, "compute", "--input", "/no/such/file", "--index", "wiener")
    assert code == 2


#: README's exit code for every error type that reaches main.
README_EXIT_CODES = {
    "GraphError": 2,
    "LoopEdgeError": 2,
    "DuplicateEdgeError": 2,
    "VertexOutOfRangeError": 2,
    "EdgeListFormatError": 2,
    "InfeasibleSpecError": 2,
    "OrderTooLargeError": 2,
    "ValueError": 2,
    "OSError": 2,
    "NotATreeError": 3,
    "NotBipartiteError": 3,
    "NotPartialCubeError": 3,
    "ClassRemovalError": 3,
    "DisconnectedError": 4,
}


def _error_types():
    """GraphError, every subclass of it at any depth, ValueError and OSError."""
    found = [GraphError]
    for cls in found:  # breadth first: the list grows as it is read
        found.extend(cls.__subclasses__())
    return found + [ValueError, OSError]


@pytest.mark.parametrize("error", _error_types(), ids=lambda cls: cls.__name__)
def test_error_types_carry_readme_exit_codes(capsys, monkeypatch, error):
    """main catches one base class and returns the code the type
    carries; a new GraphError subclass must be given its code here."""
    assert error.__name__ in README_EXIT_CODES
    want = README_EXIT_CODES[error.__name__]
    if issubclass(error, GraphError):
        assert error.exit_code == want

    def raising(args):
        raise error(f"{error.__name__} raised")

    monkeypatch.setattr("distindex.cli._cmd_verify", raising)
    assert run_cli(capsys, "verify", "--claim", "eq1") == (want, "", f"error: {error.__name__} raised\n")


def test_compute_wk_requires_k(tmp_path, capsys):
    path = write_graph(tmp_path, path_graph(4))
    code, _, err = run_cli(capsys, "compute", "--input", path, "--index", "wk")
    assert code == 2
    assert "--k" in err


def test_compute_invalid_method_combo(tmp_path, capsys):
    path = write_graph(tmp_path, path_graph(4))
    code, _, err = run_cli(
        capsys, "compute", "--input", path, "--index", "wiener", "--method", "cut"
    )
    assert code == 2


@pytest.mark.parametrize("text", ["2 1\n0 1\n", TRIANGLE, "6 6\n0 1\n1 2\n2 3\n3 4\n4 5\n0 5\n"])
@pytest.mark.parametrize("index", ["wiener", "poly", "zagreb"])
def test_compute_negative_k_refused(capsys, monkeypatch, text, index):
    """A document's k is never negative: the flag is refused (exit 2),
    after input errors and the other flag checks."""
    import io

    def compute(text, *args):
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        return run_cli(capsys, "compute", "--stdin", "--index", *args, "--no-timing")

    want = (2, "", f"error: --index {index} needs --k >= 0\n")
    assert compute(text, index, "--k", "-1") == want
    assert compute(text, index, "--k", "-1", "--method", "oracle") == want
    assert compute(text, index, "--k", "-1", "--method", "cut")[2] == (
        "error: --method cut applies to --index twk\n"
    )
    assert compute("3 2\n0 1\n1 -1\n", index, "--k", "-1") == (
        2, "", "error: edge (1, -1) outside 0..2\n"
    )
    code, out, _ = compute("2 1\n0 1\n", index, "--k", "0")
    assert code == 0 and document(out)["k"] == 0
    # all has index_report's message, checked before its sweep
    assert compute("2 1\n0 1\n", "all", "--k", "-1")[2] == "error: k must be >= 1\n"


@pytest.mark.parametrize("text", ["2 1\n0 1\n", TRIANGLE])
@pytest.mark.parametrize("k", ["0", "-1"])
def test_compute_all_small_k_refused_before_the_sweep(capsys, monkeypatch, text, k):
    """--index all with --k below 1 is refused by index_report before
    its distance sweep (exit 2), so a disconnected input gets that error
    too; an input error still comes first."""
    import io

    import distindex.indices

    calls = []
    sweep = distindex.indices._sweep

    def counting(*args, **kwargs):
        calls.append(args[0].n)
        return sweep(*args, **kwargs)

    monkeypatch.setattr(distindex.indices, "_sweep", counting)

    def compute(text, k):
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        return run_cli(capsys, "compute", "--stdin", "--index", "all", "--k", k, "--no-timing")

    assert compute(text, k) == (2, "", "error: k must be >= 1\n")
    assert compute("3 2\n0 1\n1 -1\n", k) == (2, "", "error: edge (1, -1) outside 0..2\n")
    assert calls == []
    # the counter sees the sweep once k is valid (exit 4 on the triangle
    # plus a vertex, which the sweep finds disconnected)
    assert compute(text, "1")[0] == (0 if text != TRIANGLE else 4)
    assert len(calls) == 1


#: Exit code and method, or exit code and error line, of compute under
#: --method auto, oracle, linear and cut, per input and index.
ORACLE = (0, "oracle")
CUT_ONLY = (2, "error: --method cut applies to --index twk")
LINEAR_ONLY = (2, "error: --method linear applies to --index wk or poly")
SPLIT = (4, "error: graph is not connected")
ROUTES = {
    "tree": ("5 4\n0 1\n1 2\n1 3\n3 4\n", {
        "wk": ((0, "linear"), ORACLE, (0, "linear"), CUT_ONLY),
        "twk": ((0, "cut"), ORACLE, LINEAR_ONLY, (0, "cut")),
        "zagreb": (ORACLE, ORACLE, LINEAR_ONLY, CUT_ONLY),
        "wiener": (ORACLE, ORACLE, LINEAR_ONLY, CUT_ONLY),
    }),
    "triangle-and-vertex": (TRIANGLE, {
        "wk": (SPLIT, SPLIT, (3, NOT_A_TREE.strip()), CUT_ONLY),
        "twk": (SPLIT, SPLIT, LINEAR_ONLY, (4, "error: edge classes need a connected graph")),
        "zagreb": (ORACLE, ORACLE, LINEAR_ONLY, CUT_ONLY),
        "wiener": (SPLIT, SPLIT, LINEAR_ONLY, CUT_ONLY),
    }),
    "two-edges": ("4 2\n0 1\n2 3\n", {
        "wk": (SPLIT, SPLIT, (3, NOT_A_TREE.strip()), CUT_ONLY),
        "twk": (SPLIT, SPLIT, LINEAR_ONLY, (4, "error: edge classes need a connected graph")),
        "zagreb": (ORACLE, ORACLE, LINEAR_ONLY, CUT_ONLY),
        "wiener": (SPLIT, SPLIT, LINEAR_ONLY, CUT_ONLY),
    }),
    "c6": ("6 6\n0 1\n1 2\n2 3\n3 4\n4 5\n0 5\n", {
        "wk": (ORACLE, ORACLE, (3, NOT_A_TREE.strip()), CUT_ONLY),
        "twk": ((0, "cut"), ORACLE, LINEAR_ONLY, (0, "cut")),
        "zagreb": (ORACLE, ORACLE, LINEAR_ONLY, CUT_ONLY),
        "wiener": (ORACLE, ORACLE, LINEAR_ONLY, CUT_ONLY),
    }),
    "k23": ("5 6\n0 2\n0 3\n0 4\n1 2\n1 3\n1 4\n", {
        "wk": (ORACLE, ORACLE, (3, NOT_A_TREE.strip()), CUT_ONLY),
        "twk": (ORACLE, ORACLE, LINEAR_ONLY, (3, (
            "error: class_removal_not_two_components: "
            "edges (0, 2) and (1, 3) are related but cut the graph differently"
        ))),
        "zagreb": (ORACLE, ORACLE, LINEAR_ONLY, CUT_ONLY),
        "wiener": (ORACLE, ORACLE, LINEAR_ONLY, CUT_ONLY),
    }),
}
ROUTE_ARGS = {"wk": ("wk", "--k", "2"), "twk": ("twk", "--k", "1"), "zagreb": ("zagreb",), "wiener": ("wiener",)}


@pytest.mark.parametrize("index", list(ROUTE_ARGS))
@pytest.mark.parametrize("name", list(ROUTES))
def test_compute_route_matrix(capsys, monkeypatch, name, index):
    import io

    text, rows = ROUTES[name]
    for method, want in zip(("auto", "oracle", "linear", "cut"), rows[index]):
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, out, err = run_cli(
            capsys, "compute", "--stdin", "--index", *ROUTE_ARGS[index],
            "--method", method, "--no-timing",
        )
        assert (code, document(out)["method"] if code == 0 else err.strip()) == want, method


def test_compute_pretty_output(tmp_path, capsys):
    path = write_graph(tmp_path, path_graph(4))
    code, out, _ = run_cli(
        capsys, "compute", "--input", path, "--index", "poly",
        "--pretty", "--no-timing",
    )
    assert code == 0
    assert "poly" in out and "[0, 3, 2, 1]" in out
    with pytest.raises(json.JSONDecodeError):
        json.loads(out)


def test_gen_caterpillar(tmp_path, capsys):
    out_file = tmp_path / "cat.txt"
    code, out, _ = run_cli(
        capsys, "gen", "--family", "caterpillar", "--n", "20",
        "--kdeg", "4", "--p", "5", "--out", str(out_file),
    )
    assert code == 0
    payload = document(out)
    assert payload["n"] == 20 and payload["m"] == 19
    assert payload["predicted"] == {"twk": 38, "k": 4}
    g = parse_edge_list(out_file.read_text())
    assert g.n == 20 and g.m == 19


def test_gen_coronene(tmp_path, capsys):
    out_file = tmp_path / "h3.txt"
    code, out, _ = run_cli(
        capsys, "gen", "--family", "coronene", "--k", "3", "--out", str(out_file)
    )
    assert code == 0
    payload = document(out)
    assert payload["n"] == 54
    assert payload["predicted"] == {"tw3": 2838}
    assert parse_edge_list(out_file.read_text()).n == 54


def test_gen_single_vertex_path(tmp_path, capsys):
    out_file = tmp_path / "p1.txt"
    code, out, _ = run_cli(capsys, "gen", "--family", "path", "--n", "1", "--out", str(out_file))
    assert code == 0
    assert document(out)["m"] == 0
    assert out_file.read_text() == "1 0\n"


def test_gen_double_broom_prediction(tmp_path, capsys):
    out_file = tmp_path / "db.txt"
    code, out, _ = run_cli(
        capsys, "gen", "--family", "double-broom", "--k", "5",
        "--a1", "3", "--a2", "4", "--out", str(out_file),
    )
    assert code == 0
    assert document(out)["predicted"] == {"wk": 12, "k": 5}


def test_gen_starlike_broom_parts(tmp_path, capsys):
    out_file = tmp_path / "sb.txt"
    code, out, _ = run_cli(
        capsys, "gen", "--family", "starlike-broom", "--k", "6",
        "--parts", "5,5,5", "--out", str(out_file),
    )
    assert code == 0
    payload = document(out)
    assert payload["n"] == 22
    assert payload["predicted"]["wk"] == 75


def test_gen_infeasible_exit_code(tmp_path, capsys):
    out_file = tmp_path / "x.txt"
    code, _, err = run_cli(
        capsys, "gen", "--family", "caterpillar", "--n", "10",
        "--kdeg", "4", "--p", "4", "--out", str(out_file),
    )
    assert code == 2
    assert not out_file.exists()


def test_gen_missing_param_exit_code(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "gen", "--family", "path", "--out", str(tmp_path / "p.txt")
    )
    assert code == 2
    assert "--n" in err


def test_verify_max_tw3_cli(capsys):
    code, out, _ = run_cli(capsys, "verify", "--claim", "max-tw3", "--n", "8")
    assert code == 0
    payload = document(out)
    assert payload["pass"] and payload["observed"] == 4


def test_verify_failing_claim_exits_one(capsys):
    # order 5 has a three-way tie for the maximum, so uniqueness fails
    code, out, _ = run_cli(capsys, "verify", "--claim", "max-tw3", "--n", "5")
    assert code == 1
    assert not document(out)["pass"]


def test_verify_linear_vs_oracle_cli(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--claim", "linear-vs-oracle", "--trials", "20", "--seed", "7"
    )
    assert code == 0
    payload = document(out)
    assert payload["pass"] and payload["trials"] == 20 and payload["seed"] == 7


@pytest.mark.parametrize(
    "argv",
    [
        ("--claim", "eq1", "--n", "3"),
        ("--claim", "linear-vs-oracle", "--trials", "0"),
    ],
)
def test_verify_without_evidence_exits_one(capsys, argv):
    code, out, _ = run_cli(capsys, "verify", *argv)
    assert code == 1
    payload = document(out)
    assert payload["mismatch_count"] == 0 and not payload["pass"]


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("--claim", "cut-vs-oracle", "--trials", "-3"), "--trials"),
        (("--claim", "linear-vs-oracle", "--trials", "-3"), "--trials"),
        (("--claim", "eq1", "--n", "-5"), "--n"),
    ],
)
def test_verify_refuses_negative_counts(capsys, argv, flag):
    """A negative --trials or --n is refused before any claim runs."""
    assert run_cli(capsys, "verify", *argv) == (2, "", f"error: {flag} must be >= 0\n")


@pytest.mark.parametrize(
    "argv, err",
    [
        (("wiener-bounds", "--n", "0"), "supported orders are 1..16, got 0"),
        (("max-tw3", "--n", "0"), "n=0 too small for p=0 groups of degree 3"),
        (("max-tw3", "--n", "1"), "n=1 too small for p=0 groups of degree 3"),
        (("max-wk", "--n", "2", "--k", "4"), "need n >= k+1 to realize distance 4"),
        (("degree-count", "--n", "0", "--k", "3"), "needs n >= 2"),
        (("max-wk", "--n", "17", "--k", "3"), "supported orders are 1..16, got 17"),
        (("max-tw3", "--n", "17"), "supported orders are 1..16, got 17"),
        (("degree-count", "--n", "17", "--k", "3"), "supported orders are 1..16, got 17"),
        (("wiener-bounds", "--n", "17"), "supported orders are 1..16, got 17"),
        (("max-wk", "--n", "8"), "missing required flag --k"),
        (("degree-count", "--n", "8"), "missing required flag --k"),
        (("max-wk", "--k", "3"), "missing required flag --n"),
        (("wiener-bounds",), "missing required flag --n"),
    ],
)
def test_verify_extremal_refusals(capsys, argv, err):
    """An extremal claim outside its orders, or missing a flag it needs,
    exits 2 with the first error its checks meet, and prints no
    document: the scan's order check comes before the star and path
    forms of wiener-bounds are read."""
    assert run_cli(capsys, "verify", "--claim", *argv) == (2, "", f"error: {err}\n")


@pytest.mark.parametrize("n", [2, 3, 4])
def test_verify_max_tw3_small_orders(capsys, n):
    """max_tw3 serves the orders below 5 too: p = max(n // 2 - 1, 0), no
    TW_3 above 0, and a two-way tie at n = 4 that the claim allows."""
    code, out, _ = run_cli(capsys, "verify", "--claim", "max-tw3", "--n", str(n))
    p, count = (1, 2) if n == 4 else (0, 1)
    assert code == 0
    assert out == (
        f'{{"claim":"max-tw3","maximizer_count":{count},"n":{n},"observed":0,"p":{p},'
        f'"pass":true,"predicted":0,"unique":{"true" if count == 1 else "false"},'
        f'"witness":{{"k":3,"kind":"caterpillar","n":{n},"p":{p}}},'
        f'"witness_is_maximizer":true,"witness_value":0}}\n'
    )


def test_verify_coronene_cli(capsys):
    code, out, _ = run_cli(capsys, "verify", "--claim", "coronene", "--k", "2")
    assert code == 0
    assert document(out)["formula"] == 174


def test_enumerate_counts(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--n", "7", "--count-only")
    assert code == 0
    assert document(out) == {"count": 11, "n": 7}


def test_enumerate_trees_listed(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--n", "4")
    assert code == 0
    payload = document(out)
    assert payload["count"] == 2
    assert len(payload["trees"]) == 2
    for edges in payload["trees"]:
        assert len(edges) == 3


def test_enumerate_lists_the_enumerated_trees(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--n", "8")
    assert code == 0
    want = [[list(edge) for edge in t.edges()] for t in all_free_trees(8)]
    assert document(out) == {"count": 23, "n": 8, "trees": want}


@pytest.mark.parametrize("n", [1, 2, 5, 9])
@pytest.mark.parametrize("pretty", [False, True], ids=["compact", "pretty"])
def test_enumerate_listing_streams_the_bytes_emit_prints(capsys, n, pretty):
    # the listing is written tree by tree, byte for byte the document
    # _emit prints for the whole payload
    from distindex.cli import _emit

    trees = [[list(edge) for edge in t.edges()] for t in all_free_trees(n)]
    _emit({"count": len(trees), "n": n, "trees": trees}, pretty)
    want = capsys.readouterr().out
    assert run_cli(capsys, "enumerate", "--n", str(n), *(["--pretty"] if pretty else [])) == (0, want, "")


def test_enumerate_listing_streams_in_bounded_memory(monkeypatch):
    # neither the trees' edge lists nor an encoder buffer of the whole
    # document is held: listing the 3,159 trees of order 14 (269,076
    # bytes) allocates a few kilobytes past the walk's cached parent
    # arrays, where the built payload and json.dumps peaked at 3.25 MB
    import tracemalloc

    from distindex import free_tree_parents

    class Sink:
        size = 0

        def write(self, text):
            self.size += len(text)

    sink = Sink()
    build_parser()
    free_tree_parents(14)
    monkeypatch.setattr(sys, "stdout", sink)
    tracemalloc.start()
    try:
        assert main(["enumerate", "--n", "14"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.size == 269_076
    assert peak < 100_000


def test_main_calls_share_no_state(tmp_path, capsys):
    """The parser is built once per process; flags, defaults and errors
    of one main() call must not reach the next."""
    assert build_parser() is build_parser()
    path = write_graph(tmp_path, path_graph(4))
    compute = ("compute", "--input", path, "--no-timing")
    calls = [
        (compute + ("--index", "wk", "--k", "2", "--pretty"), 0),
        (compute + ("--index", "poly"), 0),
        (compute + ("--index", "wk"), 2),  # --k from the first call must not linger
        (("verify", "--claim", "max-tw3", "--n", "6", "--pretty"), 0),
        (("enumerate", "--n", "4", "--count-only"), 0),
        (compute + ("--index", "wk", "--k", "3"), 0),
    ]
    first = []
    for argv, want in calls:
        code, out, err = run_cli(capsys, *argv)
        assert code == want
        first.append((out, err))
    assert json.loads(first[1][0]) == {
        "index": "poly", "m": 3, "method": "linear", "n": 4, "poly": [0, 3, 2, 1]}
    assert first[2] == ("", "error: --index wk needs --k >= 1\n")
    assert first[3][0].startswith("claim ") and "witness_is_maximizer" in first[3][0]
    assert json.loads(first[5][0])["wk"] == 1
    # an argparse error exits from inside the shared parser
    with pytest.raises(SystemExit) as exc:
        main(["compute", "--index", "wk", "--k", "2", "--pretty"])
    assert exc.value.code == 2
    assert "one of the arguments --input --stdin is required" in capsys.readouterr().err
    # the same calls in reverse order give the same bytes
    for (argv, want), (out, err) in zip(reversed(calls), reversed(first)):
        assert run_cli(capsys, *argv) == (want, out, err)


def test_enumerate_too_large(capsys):
    code, _, err = run_cli(capsys, "enumerate", "--n", "40")
    assert code == 2


def test_gen_hypercube_too_large(tmp_path, capsys):
    out = tmp_path / "q40.txt"
    code, stdout, err = run_cli(
        capsys, "gen", "--family", "hypercube", "--d", "40", "--out", str(out)
    )
    assert code == 2
    assert stdout == ""
    assert err == "error: hypercube dimension must be <= 20, got 40\n"
    assert not out.exists()


def test_cli_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "distindex.cli"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2


def test_recorded_claim_documents_replay(capsys):
    """Every verify document the benchmark's claim stream checks comes
    out of cli.main with the recorded exit code and the same bytes."""
    recorded = json.loads((ROOT / "bench" / "expected_claims.json").read_text())
    assert len(recorded) == 44
    differ = []
    for request, want in recorded.items():
        code, out, _ = run_cli(capsys, *request.split())
        if (code, out) != (want["rc"], want["stdout"]):
            differ.append(request)
    assert differ == []

import json

import pytest

from distindex import format_edge_list, gen_coronene, parse_edge_list, path_graph
from distindex.cli import main


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
    payload = json.loads(out)
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
    lin = json.loads(out_lin)
    orc = json.loads(out_orc)
    assert lin["poly"] == orc["poly"]
    assert lin["method"] == "linear" and orc["method"] == "oracle"


def test_compute_poly_long_path(tmp_path, capsys):
    n = 1000
    path = write_graph(tmp_path, path_graph(n))
    code, out, _ = run_cli(
        capsys, "compute", "--input", path, "--index", "poly", "--no-timing"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["method"] == "linear"
    assert payload["poly"] == [0] + [n - k for k in range(1, n)]


def test_compute_stdin(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("2 1\n0 1\n"))
    code, out, _ = run_cli(capsys, "compute", "--stdin", "--index", "wiener")
    assert code == 0
    assert json.loads(out)["wiener"] == 1


def test_compute_no_timing_deterministic(tmp_path, capsys):
    path = write_graph(tmp_path, path_graph(8))
    args = ("compute", "--input", path, "--index", "all", "--k", "2", "--no-timing")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second
    payload = json.loads(first)
    assert payload["wiener"] == 84
    assert payload["wk_star"] == 13
    assert "elapsed_ms" not in payload


def test_compute_twk_cut_on_coronene(tmp_path, capsys):
    path = write_graph(tmp_path, gen_coronene(2).graph)
    code, out, _ = run_cli(
        capsys, "compute", "--input", path, "--index", "twk",
        "--k", "3", "--method", "cut",
    )
    assert code == 0
    assert json.loads(out)["twk"] == 174


def test_compute_auto_picks_cut_for_partial_cube(tmp_path, capsys):
    path = write_graph(tmp_path, gen_coronene(1).graph)
    code, out, _ = run_cli(capsys, "compute", "--input", path, "--index", "twk", "--k", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["method"] == "cut"
    assert payload["twk"] == 27


def test_compute_auto_twk_verifies_once(tmp_path, capsys, monkeypatch):
    import distindex.cli
    import distindex.partial_cube

    calls = []
    verify = distindex.partial_cube.is_partial_cube

    def counting(g):
        calls.append(g.n)
        return verify(g)

    monkeypatch.setattr(distindex.cli, "is_partial_cube", counting)
    monkeypatch.setattr(distindex.partial_cube, "is_partial_cube", counting)
    path = write_graph(tmp_path, gen_coronene(2).graph)
    code, out, _ = run_cli(capsys, "compute", "--input", path, "--index", "twk", "--k", "3")
    assert code == 0
    assert json.loads(out)["twk"] == 174
    assert calls == [24]


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


def test_compute_disconnected_exit_code(tmp_path, capsys):
    path = tmp_path / "dis.txt"
    path.write_text("4 2\n0 1\n2 3\n")
    code, _, err = run_cli(capsys, "compute", "--input", str(path), "--index", "wiener")
    assert code == 4
    assert "connected" in err


def test_compute_zagreb_on_disconnected_is_fine(tmp_path, capsys):
    path = tmp_path / "dis.txt"
    path.write_text("4 2\n0 1\n2 3\n")
    code, out, _ = run_cli(capsys, "compute", "--input", str(path), "--index", "zagreb")
    assert code == 0
    payload = json.loads(out)
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
    payload = json.loads(out)
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
    payload = json.loads(out)
    assert payload["n"] == 54
    assert payload["predicted"] == {"tw3": 2838}
    assert parse_edge_list(out_file.read_text()).n == 54


def test_gen_single_vertex_path(tmp_path, capsys):
    out_file = tmp_path / "p1.txt"
    code, out, _ = run_cli(capsys, "gen", "--family", "path", "--n", "1", "--out", str(out_file))
    assert code == 0
    assert json.loads(out)["m"] == 0
    assert out_file.read_text() == "1 0\n"


def test_gen_double_broom_prediction(tmp_path, capsys):
    out_file = tmp_path / "db.txt"
    code, out, _ = run_cli(
        capsys, "gen", "--family", "double-broom", "--k", "5",
        "--a1", "3", "--a2", "4", "--out", str(out_file),
    )
    assert code == 0
    assert json.loads(out)["predicted"] == {"wk": 12, "k": 5}


def test_gen_starlike_broom_parts(tmp_path, capsys):
    out_file = tmp_path / "sb.txt"
    code, out, _ = run_cli(
        capsys, "gen", "--family", "starlike-broom", "--k", "6",
        "--parts", "5,5,5", "--out", str(out_file),
    )
    assert code == 0
    payload = json.loads(out)
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
    payload = json.loads(out)
    assert payload["pass"] and payload["observed"] == 4


def test_verify_failing_claim_exits_one(capsys):
    # order 5 has a three-way tie for the maximum, so uniqueness fails
    code, out, _ = run_cli(capsys, "verify", "--claim", "max-tw3", "--n", "5")
    assert code == 1
    assert not json.loads(out)["pass"]


def test_verify_linear_vs_oracle_cli(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--claim", "linear-vs-oracle", "--trials", "20", "--seed", "7"
    )
    assert code == 0
    payload = json.loads(out)
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
    payload = json.loads(out)
    assert payload["mismatch_count"] == 0 and not payload["pass"]


def test_verify_coronene_cli(capsys):
    code, out, _ = run_cli(capsys, "verify", "--claim", "coronene", "--k", "2")
    assert code == 0
    assert json.loads(out)["formula"] == 174


def test_enumerate_counts(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--n", "7", "--count-only")
    assert code == 0
    assert json.loads(out) == {"count": 11, "n": 7}


def test_enumerate_trees_listed(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--n", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 2
    assert len(payload["trees"]) == 2
    for edges in payload["trees"]:
        assert len(edges) == 3


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
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "distindex.cli"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2

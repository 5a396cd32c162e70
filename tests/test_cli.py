import csv
import json

import pytest

from conftest import refuse_graph_build
from decycle.cigraph import build_ci
from decycle.cigraph import to_dot as ci_to_dot
from decycle.cli import main
from decycle.decompose import CycleDecomposition, enumerate_decompositions
from decycle.families import build_family
from decycle.multigraph import parse_edge_list
from decycle.multigraph import to_dot as graph_to_dot


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_family(capsys):
    code, out, _ = run(capsys, "analyze", "--family", "doubled_cycle", "--k", "3")
    assert code == 0
    assert "exact (oracle)   : 2" in out
    assert "general bound    : 2" in out


def test_analyze_json(capsys):
    code, out, _ = run(
        capsys, "analyze", "--family", "theta", "--lengths", "1,2,2,2", "--json"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["bounds"]["exact"] == 1
    assert obj["bounds"]["general"] == 1
    assert obj["ci"]["simple"] is False


def test_analyze_flower(capsys):
    code, out, _ = run(
        capsys, "analyze", "--family", "flower", "--petals", "3", "--core", "4"
    )
    assert code == 0
    assert "tree exact       : 3" in out


def test_analyze_rejects_odd_graph(tmp_path, capsys):
    p = tmp_path / "path.txt"
    p.write_text("3 2\n0 1\n1 2\n")
    code, _, err = run(capsys, "analyze", str(p))
    assert code == 2
    assert "even" in err


def test_analyze_reads_file_and_stdin_dash_is_file_only(tmp_path, capsys):
    p = tmp_path / "dt.txt"
    p.write_text("3 6\n0 1\n0 1\n1 2\n1 2\n0 2\n0 2\n")
    code, out, _ = run(capsys, "analyze", str(p))
    assert code == 0 and "exact (oracle)   : 2" in out


def test_analyze_parse_error_is_usage_exit(tmp_path, capsys):
    p = tmp_path / "bad.txt"
    p.write_text("2 1\n0 0\n")
    code, _, err = run(capsys, "analyze", str(p))
    assert code == 1
    assert "self-loop" in err


def test_analyze_huge_header_is_usage_exit(tmp_path, capsys, monkeypatch):
    refuse_graph_build(monkeypatch)
    p = tmp_path / "huge.txt"
    p.write_text("1000000000000 0\n")
    code, _, err = run(capsys, "analyze", str(p))
    assert code == 1
    assert err.startswith("error:") and "over the limit" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--family", "cycle", "--k", "1000001"],
        ["optimize", "--family", "random_even", "--n", "1000", "--cycles", "1001"],
        ["exact", "--family", "cycle_tree", "--nodes", "200001"],  # max_len 5
        ["gen", "--family", "theta", "--lengths", "1000000,1"],
        ["gen", "--family", "flower", "--petals", "2", "--core", "1000001"],
    ],
)
def test_family_size_over_limit_is_usage_exit(capsys, monkeypatch, argv):
    # sizes just over the cap, so a missing cap allocates at most about
    # a million edges before the refusing stub stops it
    refuse_graph_build(monkeypatch)
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert err.startswith("error:") and "over the limit" in err
    assert "Traceback" not in err


def test_bench_family_size_over_limit_is_usage_exit(tmp_path, capsys, monkeypatch):
    refuse_graph_build(monkeypatch)
    spec_path = tmp_path / "bench.json"
    spec_path.write_text(json.dumps(
        {"instances": [{"family": "cycle", "params": {"k": 1000001}}]}
    ))
    code, _, err = run(capsys, "bench", str(spec_path))
    assert code == 1
    assert err.startswith("error:") and "over the limit" in err


def test_analyze_requires_exactly_one_input(capsys):
    code, _, err = run(capsys, "analyze")
    assert code == 1
    code, _, err = run(
        capsys, "analyze", "nosuch.txt", "--family", "cycle", "--k", "3"
    )
    assert code == 1


def test_analyze_unknown_flag_usage_error(capsys):
    code, _, _ = run(capsys, "analyze", "--family", "cycle", "--bogus", "1")
    assert code == 1


def test_analyze_disconnected_summed_vs_rejected(tmp_path, capsys):
    p = tmp_path / "two.txt"
    p.write_text("6 6\n0 1\n1 2\n0 2\n3 4\n4 5\n3 5\n")
    code, out, _ = run(capsys, "analyze", str(p))
    assert code == 0
    assert "component 0" in out and "total" in out
    assert "exact (oracle)   : 2" in out
    code, _, err = run(capsys, "analyze", str(p), "--connected-only")
    assert code == 2 and "disconnected" in err


def test_analyze_pinned_decomposition(tmp_path, capsys):
    g = build_family("doubled_cycle", k=3)
    digons = next(d for d in enumerate_decompositions(g) if len(d.cycles) == 3)
    p = tmp_path / "digons.json"
    p.write_text(json.dumps(digons.to_json_obj()))
    code, out, _ = run(
        capsys,
        "analyze", "--family", "doubled_cycle", "--k", "3",
        "--decomposition", str(p), "--json",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["ci"]["simple"] is True and obj["ci"]["rank"] == 1


def test_analyze_dot_export(tmp_path, capsys):
    out_dir = tmp_path / "dots"
    code, _, _ = run(
        capsys,
        "analyze", "--family", "doubled_cycle", "--k", "3", "--dot", str(out_dir),
    )
    assert code == 0
    graph_dot = (out_dir / "graph.dot").read_text()
    ci_dot = (out_dir / "ci.dot").read_text()
    assert graph_dot.startswith("graph G {")
    assert "label=" in ci_dot


def test_optimize_dot_export(tmp_path, capsys):
    out_dir = tmp_path / "dots"
    code, out, _ = run(
        capsys, "optimize", "--family", "doubled_cycle", "--k", "3",
        "--method", "exhaustive", "--json", "--dot", str(out_dir),
    )
    assert code == 0
    best = CycleDecomposition.from_json_obj(json.loads(out)["decomposition"])
    g = build_family("doubled_cycle", k=3)
    assert (out_dir / "graph.dot").read_text() == graph_to_dot(g)
    assert (out_dir / "ci.dot").read_text() == ci_to_dot(build_ci(g, best))


def test_optimize(capsys):
    code, out, _ = run(
        capsys, "optimize", "--family", "doubled_cycle", "--k", "3",
        "--method", "exhaustive", "--json",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["best_rank"] == 1 and obj["evaluations"] == 5


def test_optimize_local_search(capsys):
    code, out, _ = run(
        capsys, "optimize", "--family", "theta", "--lengths", "1,2,2,2",
        "--method", "local_search", "--budget", "100", "--seed", "1",
    )
    assert code == 0
    assert "best rank: 1" in out


@pytest.mark.parametrize("header", ["0 0", "1 0"])
@pytest.mark.parametrize("method", ["exhaustive", "local_search"])
def test_optimize_edgeless_graph(tmp_path, capsys, header, method):
    p = tmp_path / "edgeless.txt"
    p.write_text(header + "\n")
    code, out, _ = run(
        capsys, "optimize", str(p), "--method", method, "--budget", "5", "--json"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["best_rank"] == 0 and obj["ci"] == {"links": [], "nodes": 0}


def test_optimize_budget_zero_is_usage_error(capsys):
    code, _, err = run(
        capsys, "optimize", "--family", "cycle", "--k", "5", "--budget", "0"
    )
    assert code == 1 and "budget" in err


def test_exact(capsys):
    code, out, _ = run(capsys, "exact", "--family", "cycle", "--k", "7")
    assert code == 0 and "exact decycling number: 1" in out


def test_exact_over_limit(capsys):
    code, _, err = run(capsys, "exact", "--family", "cycle", "--k", "25")
    assert code == 2 and "limit of 20" in err
    code, out, _ = run(
        capsys, "exact", "--family", "cycle", "--k", "25", "--oracle-limit", "25"
    )
    assert code == 0 and "exact decycling number: 1" in out


def test_gen_round_trips(capsys, tmp_path):
    code, out, _ = run(capsys, "gen", "--family", "flower", "--petals", "2", "--core", "3")
    assert code == 0
    g = parse_edge_list(out)
    assert g == build_family("flower", petals=2, core=3)
    target = tmp_path / "g.txt"
    code, _, _ = run(capsys, "gen", "--family", "cycle", "--k", "4", "-o", str(target))
    assert code == 0 and target.read_text().startswith("4 4\n")


def test_gen_random_even_uses_seed(capsys):
    _, out_a, _ = run(capsys, "gen", "--family", "random_even",
                      "--n", "7", "--cycles", "3", "--seed", "5")
    _, out_b, _ = run(capsys, "gen", "--family", "random_even",
                      "--n", "7", "--cycles", "3", "--seed", "5")
    assert out_a == out_b


def test_outputs_are_deterministic(capsys):
    args = ("analyze", "--family", "random_even", "--n", "8", "--cycles", "3",
            "--seed", "3", "--json")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_bench(tmp_path, capsys):
    spec = {
        "instances": [
            {"id": "chain3", "family": "triangle_chain", "params": {"k": 3}},
            {"id": "dt", "family": "doubled_cycle", "params": {"k": 3}},
            {"id": "big", "family": "cycle", "params": {"k": 25}},
        ],
        "strategies": ["greedy", "exhaustive"],
        "oracle_limit": 20,
    }
    spec_path = tmp_path / "bench.json"
    spec_path.write_text(json.dumps(spec))
    out_csv = tmp_path / "rows.csv"
    code, out, _ = run(capsys, "bench", str(spec_path), "--output", str(out_csv))
    assert code == 0
    assert "rows with exact > general: 0" in out
    with open(out_csv) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 6
    by_id = {(r["graph_id"], r["strategy"]): r for r in rows}
    assert by_id[("chain3", "greedy")]["gap"] == "0"
    assert by_id[("big", "greedy")]["exact"] == "NA"
    assert by_id[("dt", "exhaustive")]["rank"] == "1"
    # rows stay in instance-file order
    assert [r["graph_id"] for r in rows[:2]] == ["chain3", "chain3"]


def test_bench_bad_strategy(tmp_path, capsys):
    spec_path = tmp_path / "bench.json"
    spec_path.write_text(json.dumps({"instances": [], "strategies": ["x"]}))
    code, _, err = run(capsys, "bench", str(spec_path))
    assert code == 1 and "strategy" in err


def test_bench_unknown_family_parameter_is_domain_exit(tmp_path, capsys):
    spec_path = tmp_path / "bench.json"
    params = {"n": 4, "cycles": 1, "max_tries": 3}
    spec_path.write_text(json.dumps(
        {"instances": [{"family": "random_even", "params": params}]}
    ))
    code, _, err = run(capsys, "bench", str(spec_path))
    assert code == 2
    assert err.startswith("error: bad parameters") and "max_tries" in err


def test_decomposition_missing_key_is_usage_error(tmp_path, capsys):
    p = tmp_path / "empty.json"
    p.write_text("{}")
    code, _, err = run(
        capsys, "analyze", "--family", "cycle", "--k", "3", "--decomposition", str(p)
    )
    assert code == 1
    assert err.startswith("error:") and "'cycles'" in err
    p.write_text("[]")
    code, _, err = run(
        capsys, "analyze", "--family", "cycle", "--k", "3", "--decomposition", str(p)
    )
    assert code == 1
    assert err.startswith("error:") and "JSON object" in err
    for bad in ({"cycles": [1], "edge_ids": [1]}, {"cycles": 5, "edge_ids": 5}):
        p.write_text(json.dumps(bad))
        code, _, err = run(
            capsys, "analyze", "--family", "cycle", "--k", "3", "--decomposition", str(p)
        )
        assert code == 1
        assert err.startswith("error:") and "integer lists" in err


def test_bench_instance_missing_key_is_usage_error(tmp_path, capsys):
    spec_path = tmp_path / "bench.json"
    spec_path.write_text(json.dumps({"instances": [{"id": "x"}]}))
    code, _, err = run(capsys, "bench", str(spec_path))
    assert code == 1
    assert err.startswith("error:") and "'family'" in err
    instance = {"family": "cycle", "params": {"k": 3}}
    for bad, key in (
        ({"instances": 5}, "'instances'"),
        ({"instances": [{"family": "cycle", "params": 5}]}, "'params'"),
        ({"instances": [instance], "strategies": 5}, "'strategies'"),
        ({"instances": [instance], "oracle_limit": "x"}, "'oracle_limit'"),
    ):
        spec_path.write_text(json.dumps(bad))
        code, _, err = run(capsys, "bench", str(spec_path))
        assert code == 1
        assert err.startswith("error:") and key in err


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "definitely-not-here.txt"],
        ["analyze", "{dir}"],
        ["analyze", "--family", "cycle", "--k", "4", "--decomposition", "{dir}"],
        ["analyze", "--family", "cycle", "--k", "4", "--dot", "{file}/sub"],
        ["gen", "--family", "cycle", "--k", "4", "-o", "{dir}/missing/x"],
    ],
    ids=[
        "missing_input",
        "input_is_dir",
        "decomposition_is_dir",
        "dot_under_file",
        "gen_output_in_missing_dir",
    ],
)
def test_missing_file_reports_usage_error(capsys, tmp_path, argv):
    a_file = tmp_path / "a_file"
    a_file.write_text("")
    code, _, err = run(
        capsys, *(arg.format(dir=tmp_path, file=a_file) for arg in argv)
    )
    assert code == 1
    assert err.startswith("error:") and "Traceback" not in err

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import Index, Small, refuse_graph_build
from decycle import bench, cli, multigraph
from decycle.cigraph import build_ci
from decycle.cigraph import to_dot as ci_to_dot
from decycle.cli import main
from decycle.decompose import CycleDecomposition, enumerate_decompositions
from decycle.decycling import analyze_components, merge_reports
from decycle.errors import (
    DisconnectedError,
    InvalidDecompositionError,
    InvariantError,
    NotEvenError,
    OracleLimitError,
    ParseError,
)
from decycle.families import FAMILY_NAMES, build_family, family_params
from decycle.multigraph import parse_edge_list, to_edge_list
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


def test_package_runs_as_a_module(capsys):
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}

    def module(*argv):
        return subprocess.run(
            [sys.executable, "-m", "decycle", *argv],
            env=env, capture_output=True, text=True, timeout=60,
        )

    assert module("--help").returncode == 0
    argv = ("analyze", "--family", "cycle", "--k", "5")
    proc = module(*argv)
    assert (proc.returncode, proc.stdout) == run(capsys, *argv)[:2]


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
    assert err == "error: graph is not even: some vertex has odd degree\n"


def test_analyze_reads_file_and_stdin_dash_is_file_only(tmp_path, capsys):
    p = tmp_path / "dt.txt"
    p.write_text("3 6\n0 1\n0 1\n1 2\n1 2\n0 2\n0 2\n")
    code, out, _ = run(capsys, "analyze", str(p))
    assert code == 0 and "exact (oracle)   : 2" in out


def test_analyze_dash_reads_stdin(tmp_path, capsys, monkeypatch):
    text = "3 6\n0 1\n0 1\n1 2\n1 2\n0 2\n0 2\n"
    p = tmp_path / "dt.txt"
    p.write_text(text)
    from_file = run(capsys, "analyze", str(p), "--json")
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    assert run(capsys, "analyze", "-", "--json") == from_file
    assert from_file[0] == 0 and json.loads(from_file[1])["bounds"]["exact"] == 2


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


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["analyze", "--family", "cycle", "--k", "3", "--n", "5", "--nodes", "9"],
            "--n does not apply to family cycle",
        ),
        (
            ["optimize", "--family", "cycle_tree", "--nodes", "3", "--max-len", "4",
             "--lengths", "1,1"],
            "--lengths does not apply to family cycle_tree",
        ),
        (["analyze", "{file}", "--k", "3"], "--k applies only with --family"),
        (["gen", "{file}", "--min-len", "3"], "--min-len applies only with --family"),
    ],
    ids=["family_analyze", "family_optimize", "file_analyze", "file_gen"],
)
def test_a_family_flag_the_input_does_not_take_is_a_usage_error(
    tmp_path, capsys, argv, message
):
    # such a flag used to be dropped without a word
    p = tmp_path / "triangle.txt"
    p.write_text("3 3\n0 1\n1 2\n2 0\n")
    code, out, err = run(capsys, *(a.replace("{file}", str(p)) for a in argv))
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_seed_is_taken_with_any_input(tmp_path, capsys):
    p = tmp_path / "triangle.txt"
    p.write_text("3 3\n0 1\n1 2\n2 0\n")
    assert run(capsys, "analyze", str(p), "--seed", "4")[0] == 0
    assert run(capsys, "gen", "--family", "cycle", "--k", "3", "--seed", "4")[0] == 0


def test_analyze_disconnected_summed_vs_rejected(tmp_path, capsys):
    p = tmp_path / "two.txt"
    p.write_text("6 6\n0 1\n1 2\n0 2\n3 4\n4 5\n3 5\n")
    code, out, _ = run(capsys, "analyze", str(p))
    assert code == 0
    assert "component 0" in out and "total" in out
    assert "exact (oracle)   : 2" in out
    code, _, err = run(capsys, "analyze", str(p), "--connected-only")
    assert code == 2
    assert err == "error: graph is disconnected; analyze components separately\n"


def test_analyze_json_lists_the_components_of_a_disconnected_graph(
    tmp_path, capsys
):
    text = "6 6\n0 1\n1 2\n0 2\n3 4\n4 5\n3 5\n"
    p = tmp_path / "two.txt"
    p.write_text(text)
    code, out, _ = run(capsys, "analyze", str(p), "--json")
    assert code == 0
    obj = json.loads(out)
    reports = analyze_components(parse_edge_list(text))
    assert len(reports) == 2
    parts = obj.pop("components")
    assert parts == [json.loads(json.dumps(r.to_json_obj())) for r in reports]
    assert obj == json.loads(json.dumps(merge_reports(reports).to_json_obj()))


@pytest.mark.parametrize(
    "argv",
    [
        ["--family", "doubled_cycle", "--k", "3"],
        ["--family", "random_even", "--n", "12", "--cycles", "5", "--seed", "3"],
        ["--family", "cycle_tree", "--nodes", "40", "--seed", "2"],
    ],
    ids=["doubled_cycle", "random_even", "cycle_tree"],
)
@pytest.mark.parametrize("fmt", [[], ["--json"]], ids=["text", "json"])
def test_analyze_connected_only_matches_default_on_connected_graph(
    capsys, argv, fmt
):
    code, out, _ = run(capsys, "analyze", *argv, *fmt)
    assert code == 0
    assert run(capsys, "analyze", *argv, *fmt, "--connected-only") == (code, out, "")


@pytest.mark.parametrize("flags", [[], ["--connected-only"]], ids=["default", "connected_only"])
def test_analyze_checks_evenness_once(monkeypatch, capsys, flags):
    # the library is the only domain gate on the CLI path
    calls = []
    is_even = multigraph.is_even

    def counted(g):
        calls.append(g)
        return is_even(g)

    for name, module in list(sys.modules.items()):
        if name.startswith("decycle") and getattr(module, "is_even", None) is is_even:
            monkeypatch.setattr(module, "is_even", counted)
    argv = ["analyze", "--family", "random_even", "--n", "7", "--cycles", "3"]
    assert run(capsys, *argv, *flags)[0] == 0
    assert len(calls) == 1


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
def test_analyze_edgeless_graph(tmp_path, capsys, header):
    p = tmp_path / "edgeless.txt"
    p.write_text(header + "\n")
    code, out, _ = run(capsys, "analyze", str(p))
    assert code == 0
    assert "decomposition: 0 cycles: \n" in out
    assert "diagnostic rank/cover gap: 0\n" in out
    code, out, _ = run(capsys, "analyze", str(p), "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["decomposition"] == {"cycles": [], "edge_ids": []}
    assert obj["rank_cover_gap"] == 0 and "components" not in obj


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


def test_a_negative_oracle_limit_is_a_usage_error(capsys, tmp_path):
    # analyze used to drop the exact value and exit 0, and exact to call
    # the 3-vertex graph over the limit (exit 2)
    for argv in (
        ["analyze", "--family", "cycle", "--k", "3", "--oracle-limit", "-1"],
        ["analyze", "--family", "cycle", "--k", "3", "--oracle-limit", "-1",
         "--connected-only"],
        ["exact", "--family", "cycle", "--k", "3", "--oracle-limit", "-1"],
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == "error: oracle limit must be at least 0, not -1\n"
    spec_path = tmp_path / "bench.json"
    instance = {"family": "cycle", "params": {"k": 3}}
    spec_path.write_text(json.dumps({"instances": [instance], "oracle_limit": -1}))
    code, _, err = run(capsys, "bench", str(spec_path))
    assert code == 1 and "'oracle_limit' must be at least 0" in err


def test_gen_round_trips(capsys, tmp_path):
    code, out, _ = run(capsys, "gen", "--family", "flower", "--petals", "2", "--core", "3")
    assert code == 0
    g = parse_edge_list(out)
    assert g == build_family("flower", petals=2, core=3)
    target = tmp_path / "g.txt"
    code, _, _ = run(capsys, "gen", "--family", "cycle", "--k", "4", "-o", str(target))
    assert code == 0 and target.read_text().startswith("4 4\n")


# one value for every generator parameter, none of them its default
FAMILY_ARGS = {
    "cycle": {"k": 5},
    "doubled_cycle": {"k": 3},
    "triangle_chain": {"k": 3},
    "flower": {"petals": 2, "core": 4},
    "theta": {"lengths": (1, 2, 3, 2)},
    "random_even": {"n": 8, "cycles": 3, "seed": 5},
    "cycle_tree": {"nodes": 6, "seed": 2, "min_len": 4, "max_len": 7},
}


def _family_argv(family):
    argv = ["--family", family]
    for name, value in FAMILY_ARGS[family].items():
        text = ",".join(map(str, value)) if isinstance(value, tuple) else str(value)
        argv += ["--" + name.replace("_", "-"), text]
    return argv


def test_family_args_cover_every_generator_parameter():
    assert sorted(FAMILY_ARGS) == sorted(FAMILY_NAMES)
    for family, params in FAMILY_ARGS.items():
        assert tuple(params) == family_params(family)


@pytest.mark.parametrize("family", FAMILY_NAMES)
def test_every_family_parameter_is_a_flag(family):
    for command in ("analyze", "optimize", "exact", "gen"):
        args = cli.build_parser().parse_args([command, *_family_argv(family)])
        for name in family_params(family):
            assert getattr(args, name) is not None


@pytest.mark.parametrize("family", FAMILY_NAMES)
def test_gen_passes_every_family_flag(capsys, family):
    code, out, _ = run(capsys, "gen", *_family_argv(family))
    assert code == 0
    assert out == to_edge_list(build_family(family, **FAMILY_ARGS[family]))


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
    # a JSON number is not a list of theta lengths
    spec_path.write_text(json.dumps(
        {"instances": [{"family": "theta", "params": {"lengths": 5}}]}
    ))
    code, _, err = run(capsys, "bench", str(spec_path))
    assert code == 2
    assert err.startswith("error: bad parameters for family 'theta'")


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


@pytest.mark.parametrize(
    "bad",
    [
        # each string read as its digits: the digons 0-1, 1-2 and 0-2
        {"cycles": ["01", "12", "02"], "edge_ids": ["01", "23", "45"]},
        {"cycles": [[0, 1.9], [1, 2], [0, 2]], "edge_ids": [[0, 1], [2, 3], [4, 5]]},
        {"cycles": [[0, True], [1, 2], [0, 2]], "edge_ids": [[0, 1], [2, 3], [4, 5]]},
    ],
    ids=["strings", "float", "bool"],
)
def test_decomposition_ids_must_be_json_integers(tmp_path, capsys, bad):
    p = tmp_path / "digons.json"
    p.write_text(json.dumps(bad))
    code, _, err = run(
        capsys,
        "analyze", "--family", "doubled_cycle", "--k", "3", "--decomposition", str(p),
    )
    assert code == 1
    assert err.startswith("error: cycle 0: id ") and " is not an int" in err


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
        ({"instances": [instance], "seed": 2.9}, "'seed' must be an integer"),
        ({"instances": [instance], "budget": "7"}, "'budget' must be an integer"),
        (
            {"instances": [instance], "oracle_limit": True},
            "'oracle_limit' must be an integer",
        ),
    ):
        spec_path.write_text(json.dumps(bad))
        code, _, err = run(capsys, "bench", str(spec_path))
        assert code == 1
        assert err.startswith("error:") and key in err


@pytest.mark.parametrize("key", ["seed", "budget", "oracle_limit"])
@pytest.mark.parametrize(
    "value", [Index(3), Small.THREE], ids=["index", "intenum"]
)
def test_bench_spec_values_must_be_exact_ints(key, value):
    # a spec built in Python can hold what JSON cannot
    spec = {"instances": [{"family": "cycle", "params": {"k": 3}}], key: value}
    with pytest.raises(ParseError, match=f"^bench spec '{key}' must be an integer$"):
        bench.run_bench(spec)


def test_bench_unknown_key_is_usage_error(tmp_path, capsys, monkeypatch):
    # a misspelt key used to be dropped and its default used; the spec is
    # refused before its instance runs
    monkeypatch.setattr(bench, "run_instance", None)
    spec_path = tmp_path / "bench.json"
    instance = {"family": "cycle", "params": {"k": 3}}
    for bad, key in (
        ({"instances": [instance], "budgett": 5}, "bench spec has unknown key 'budgett'"),
        ({"instances": [instance], "strategy": ["greedy"]}, "unknown key 'strategy'"),
        (
            {"instances": [dict(instance, k=3)]},
            "bench instance 0 has unknown key 'k'",
        ),
    ):
        spec_path.write_text(json.dumps(bad))
        code, out, err = run(capsys, "bench", str(spec_path))
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and key in err


def count_bench_runs(monkeypatch) -> list:
    """The names of the ``bench.analyze`` and
    ``bench.optimize_decomposition`` calls made from now on."""
    calls = []

    def counting(name):
        real = getattr(bench, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        return wrapper

    for name in ("optimize_decomposition", "analyze"):
        monkeypatch.setattr(bench, name, counting(name))
    return calls


def test_bench_checks_every_instance_before_running_any(
    tmp_path, capsys, monkeypatch
):
    # a bad instance 1 used to be found only after instance 0 had run
    calls = count_bench_runs(monkeypatch)
    spec_path = tmp_path / "bench.json"
    good = {"family": "random_even", "params": {"n": 8, "cycles": 4, "seed": 11}}
    for bad, exit_code, message in (
        ({"family": "cycle", "paramz": {"k": 3}}, 1, "unknown key 'paramz'"),
        ({"family": "cycle", "params": {"k": 1}}, 2, "cycle needs k >= 2"),
        ({"family": "cycle", "params": {"k": True}}, 2, "k must be an integer"),
    ):
        spec_path.write_text(json.dumps(
            {"instances": [good, bad], "strategies": ["exhaustive"]}
        ))
        code, out, err = run(capsys, "bench", str(spec_path))
        assert (code, out) == (exit_code, "")
        assert err.startswith("error: ") and message in err
        assert calls == []


def test_bench_refuses_a_budget_below_1_before_running_any(
    tmp_path, capsys, monkeypatch
):
    # budget -7 used to give a greedy-only table, and budget 0 ran
    # instance 0's analyze before the optimizer refused it
    calls = count_bench_runs(monkeypatch)
    spec_path = tmp_path / "bench.json"
    good = {"family": "random_even", "params": {"n": 8, "cycles": 4, "seed": 11}}
    for budget, strategies in ((-7, ["greedy"]), (0, list(bench.STRATEGIES))):
        spec_path.write_text(json.dumps(
            {"instances": [good], "strategies": strategies, "budget": budget}
        ))
        code, out, err = run(capsys, "bench", str(spec_path))
        assert (code, out) == (1, "")
        assert err == "error: bench spec 'budget' must be at least 1\n"
        assert calls == []


@pytest.mark.parametrize(
    "family, params, name",
    [
        ("random_even", {"n": 7, "cycles": 3, "seed": True}, "seed"),
        ("random_even", {"n": 7, "cycles": 3, "seed": 1.0}, "seed"),
        ("cycle_tree", {"nodes": 4, "seed": "abc"}, "seed"),
        ("cycle", {"k": 3.0}, "k"),
        ("theta", {"lengths": [1, 2, True, 2]}, "lengths"),
        ("theta", {"lengths": [1, 2, 2.0, 2]}, "lengths"),
        ("theta", {"lengths": "1,2"}, "lengths"),
    ],
)
def test_bench_family_parameters_must_be_integers(
    tmp_path, capsys, family, params, name
):
    # these once ran: seed true and 1.0 as seed 1, "abc" seeded by its hash
    spec_path = tmp_path / "bench.json"
    spec_path.write_text(json.dumps(
        {"instances": [{"family": family, "params": params}]}
    ))
    code, out, err = run(capsys, "bench", str(spec_path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: bad parameters for family '{family}': {name} ")


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "definitely-not-here.txt"],
        ["analyze", "{dir}"],
        ["analyze", "--family", "cycle", "--k", "4", "--decomposition", "{dir}"],
        # the decomposition file is read before the library's domain check
        ["analyze", "{odd}", "--decomposition", "{dir}/missing.json"],
        ["analyze", "--family", "cycle", "--k", "4", "--dot", "{file}/sub"],
        ["gen", "--family", "cycle", "--k", "4", "-o", "{dir}/missing/x"],
    ],
    ids=[
        "missing_input",
        "input_is_dir",
        "decomposition_is_dir",
        "odd_graph_decomposition_missing",
        "dot_under_file",
        "gen_output_in_missing_dir",
    ],
)
def test_missing_file_reports_usage_error(capsys, tmp_path, argv):
    a_file = tmp_path / "a_file"
    a_file.write_text("")
    odd = tmp_path / "path.txt"
    odd.write_text("3 2\n0 1\n1 2\n")
    code, _, err = run(
        capsys, *(arg.format(dir=tmp_path, file=a_file, odd=odd) for arg in argv)
    )
    assert code == 1
    assert err.startswith("error:") and "Traceback" not in err


# every exception class a subcommand can raise, with its exit code and
# stderr prefix
ERROR_EXITS = [
    (ParseError, 1, "error: "),
    (InvalidDecompositionError, 1, "error: "),
    (NotEvenError, 2, "error: "),
    (DisconnectedError, 2, "error: "),
    (OracleLimitError, 2, "error: "),
    (InvariantError, 1, "internal error: "),
    (ValueError, 1, "error: "),
    (OSError, 1, "error: "),
]


@pytest.mark.parametrize(
    "exc_type, code, prefix", ERROR_EXITS, ids=[e.__name__ for e, _, _ in ERROR_EXITS]
)
def test_error_exit_codes(capsys, monkeypatch, exc_type, code, prefix):
    def fail(args):
        raise exc_type("boom")

    monkeypatch.setattr(cli, "_cmd_exact", fail)
    assert run(capsys, "exact", "--family", "cycle", "--k", "3") == (
        code, "", f"{prefix}boom\n"
    )

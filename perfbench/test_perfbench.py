"""Tests of the benchmark's own code: the output checker, span arithmetic
and tracing. Run from the repository root with

    python3 -m pytest -q perfbench
"""

import shutil
import subprocess
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import decycle  # noqa: E402

import check  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def edges_of(g):
    return {eid: (u, v) for eid, u, v in g.edges()}


def small_instances():
    return [
        workloads.make_instance("triangle_chain", {"k": 3}, 5),
        workloads.make_instance("random_even", {"n": 8, "cycles": 3, "seed": 4}, 9),
        workloads.make_instance("cycle_tree", {"nodes": 3, "seed": 2}, 1),
    ]


def test_checker_accepts_library_output():
    for inst in small_instances():
        report = decycle.analyze(inst.graph, seed=inst.op_seed).to_json_obj()
        assert check.check_analyze(edges_of(inst.graph), report) == []


def test_checker_rejects_witness_that_does_not_decycle():
    g = decycle.build_family("triangle_chain", k=3)  # triangles 012, 234, 456
    report = decycle.analyze(g).to_json_obj()
    assert report["bounds"]["general"] == 2
    report["witnesses"]["general"] = [1, 5]  # right size, misses triangle 234
    assert check.check_analyze(edges_of(g), report) == [
        "general witness does not decycle the graph"
    ]


def test_checker_rejects_witness_of_wrong_size():
    g = decycle.build_family("triangle_chain", k=3)
    report = decycle.analyze(g).to_json_obj()
    extra = min(set(g.vertices) - set(report["witnesses"]["general"]))
    report["witnesses"]["general"] = sorted(report["witnesses"]["general"] + [extra])
    assert check.check_analyze(edges_of(g), report) == [
        "general witness has 3 vertices, bound 2"
    ]


def test_checker_rejects_wrong_local_search_rank_and_bound():
    g = decycle.build_family("triangle_chain", k=3)
    result = decycle.optimize_decomposition(g, method="local_search", budget=20)
    obj = result.to_json_obj()
    witness = decycle.decycle_general(
        g, result.best_decomposition, result.best_ci
    ).sorted_vertices()
    assert check.check_local_search(edges_of(g), obj, witness, 20) == []
    obj["best_rank"] += 1
    obj["best_bound"] += 1
    problems = check.check_local_search(edges_of(g), obj, witness, 20)
    assert [p.split()[0] for p in problems] == ["best_rank", "best_bound"]


def test_self_times_on_synthetic_span_tree():
    names = ["decycling.analyze", "cigraph.msf", "cigraph.max_matching",
             "cigraph.msf", "cigraph.max_matching"]
    trace = spans.Trace(
        name=array("i", [spans.NAMES.index(n) for n in names]),
        parent=array("i", [-1, 0, 0, 2, -1]),
        start=array("d", [0.0, 1.0, 5.0, 6.0, 12.0]),
        end=array("d", [10.0, 4.0, 9.0, 7.0, 13.0]),
        counters=Counter(),
    )
    own = spans.self_times(trace)
    assert own["decycling.analyze"] == 3.0  # 10 - 3 - 4
    assert own["cigraph.msf"] == 4.0  # 3 + 1
    assert own["cigraph.max_matching"] == 4.0  # (4 - 1) + 1
    assert spans.root_time(trace) == 11.0
    assert spans.inclusive_time(trace, "cigraph.max_matching") == 5.0


def test_tracing_keeps_digest_and_restores_originals():
    originals = (decycle.cigraph.msf, decycle.decycling.analyze,
                 decycle.Multigraph.__dict__["delete_vertices"])
    insts = small_instances()
    tracer = spans.Tracer()
    for kind in ("analyze", "local_search"):
        plain = run.run_pass(kind, insts)
        traced = run.run_pass(kind, insts, tracer)
        assert plain.errors == traced.errors == [None] * len(insts)
        assert None not in plain.digests and plain.digests == traced.digests
        metrics = traced.layer
        root = "decycling.analyze" if kind == "analyze" else "optimize.optimize_decomposition"
        assert metrics[root + ".calls"] == len(insts)
        assert metrics["cigraph.msf.calls"] > 0
        assert 0.9 < metrics["trace.coverage"] <= 1.0
    assert (decycle.cigraph.msf, decycle.decycling.analyze,
            decycle.Multigraph.__dict__["delete_vertices"]) == originals


def test_install_replaces_every_copied_binding():
    original = decycle.cigraph.msf
    with spans.Tracer():
        wrapped = decycle.cigraph.msf
        assert wrapped is not original
        assert decycle.decycling.msf is wrapped and decycle.msf is wrapped
        assert decycle.Multigraph.__dict__["delete_vertices"].__name__ == "traced"
    assert decycle.decycling.msf is original and decycle.msf is original


def test_generator_is_timed_only_inside_next():
    g = decycle.build_family("theta", lengths=(1, 2, 2, 2))
    tracer = spans.Tracer()
    with tracer:
        items = decycle.enumerate_decompositions(g)
        first = next(items)
        time.sleep(0.05)
        rest = list(items)
    metrics = spans.layer_metrics(tracer.take())
    assert [first] + rest == list(decycle.enumerate_decompositions(g))
    assert metrics["decompose.enumerate_decompositions.calls"] == 1
    assert metrics["decompose.enumerate_decompositions.yielded"] == 1 + len(rest)
    assert metrics["decompose.enumerate_decompositions.self_s"] < 0.05


def test_instances_follow_the_seed():
    def edge_lists(seed):
        return [list(i.graph.edges()) + [i.op_seed]
                for i in workloads.build_instances("local_search", seed)]

    assert edge_lists(3) == edge_lists(3)
    assert edge_lists(3) != edge_lists(4)


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail([float(i) for i in range(1, 57)]) == (75.0, 42.0)
    assert run.tail([float(i) for i in range(1, 321)]) == (95.0, 304.0)


def test_refuses_to_run_without_library_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "analyze",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""

import gc
import hashlib
import json
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import Index, Small
from decycle import decompose, multigraph, optimize
from decycle.cigraph import build_ci, cycle_rank
from decycle.decompose import CycleDecomposition
from decycle.decycling import analyze, exact_decycling_number
from decycle.errors import DisconnectedError, InvariantError, NotEvenError
from decycle.families import build_family, random_even
from decycle.multigraph import Multigraph
from decycle.optimize import METHODS, optimize_decomposition
from oracles import oracle_best_decomposition


def test_exhaustive_doubled_triangle(doubled_triangle):
    res = optimize_decomposition(doubled_triangle, method="exhaustive")
    assert res.best_rank == 1
    assert res.best_bound == 2
    assert res.evaluations == 5
    assert len(res.best_decomposition.cycles) == 3  # the digon decomposition
    assert res.best_ci == build_ci(doubled_triangle, res.best_decomposition)
    assert cycle_rank(res.best_ci) == res.best_rank


def test_exhaustive_single_cycle(c5):
    res = optimize_decomposition(c5, method="exhaustive")
    assert res.best_rank == 0 and res.evaluations == 1


@pytest.mark.parametrize("vertices", [[], [0]])
@pytest.mark.parametrize("method", ["exhaustive", "local_search"])
def test_edgeless_graph_has_rank_zero(vertices, method):
    # the empty decomposition: its CI has no node, so no component
    res = optimize_decomposition(Multigraph(vertices, []), method=method, budget=5)
    assert res.best_decomposition.cycles == ()
    assert res.best_rank == 0 == cycle_rank(res.best_ci)


def test_exhaustive_theta_never_simple(theta_graph):
    res = optimize_decomposition(theta_graph, method="exhaustive")
    assert res.best_rank == 1 and res.best_bound == 1
    pairs = [l.pair() for l in res.best_ci.links]
    assert len(pairs) != len(set(pairs))  # still a multigraph CI


def test_local_search_matches_exhaustive_on_theta(theta_graph):
    exh = optimize_decomposition(theta_graph, method="exhaustive")
    loc = optimize_decomposition(
        theta_graph, method="local_search", budget=100, seed=1
    )
    assert loc.best_rank == exh.best_rank
    assert loc.evaluations <= 100


def test_local_search_finds_digons(doubled_triangle):
    loc = optimize_decomposition(
        doubled_triangle, method="local_search", budget=50, seed=0
    )
    assert loc.best_rank == 1


def test_errors(doubled_triangle):
    with pytest.raises(ValueError, match="budget"):
        optimize_decomposition(doubled_triangle, method="local_search", budget=0)
    with pytest.raises(ValueError, match="method"):
        optimize_decomposition(doubled_triangle, method="magic")
    path = Multigraph.from_edges(3, [(0, 1), (1, 2)])
    with pytest.raises(NotEvenError):
        optimize_decomposition(path)


@pytest.mark.parametrize("method", METHODS)
def test_rejects_disconnected_graph(method):
    two = Multigraph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    with pytest.raises(DisconnectedError, match="optimize per component"):
        optimize_decomposition(two, method=method)


@pytest.mark.parametrize(
    "budget",
    [0, -3, 2.5, True, "7", None,
     pytest.param(Index(7), id="index"), pytest.param(Small.THREE, id="intenum")],
)
@pytest.mark.parametrize("method", METHODS)
def test_budget_must_be_a_positive_integer(doubled_triangle, method, budget):
    with pytest.raises(ValueError, match="budget"):
        optimize_decomposition(doubled_triangle, method=method, budget=budget)


def test_result_json(doubled_triangle):
    res = optimize_decomposition(doubled_triangle, method="exhaustive")
    obj = res.to_json_obj()
    assert obj["best_rank"] == 1 and obj["method"] == "exhaustive"
    assert obj["evaluations"] == 5


@settings(max_examples=40, deadline=None)
@given(n=st.integers(4, 8), cycles=st.integers(1, 3), seed=st.integers(0, 20_000))
def test_exhaustive_matches_eager_oracle(n, cycles, seed):
    g = random_even(n, cycles, seed=seed)
    # the decomposition count grows exponentially with the edges: over
    # 16 edges one graph can have hundreds of thousands
    assume(g.n_edges <= 16)
    res = optimize_decomposition(g, method="exhaustive")
    rank, bound, d, count = oracle_best_decomposition(g)
    assert (res.best_rank, res.best_bound, res.evaluations) == (rank, bound, count)
    assert res.best_decomposition == d


@settings(max_examples=15, deadline=None)
@given(n=st.integers(4, 7), cycles=st.integers(1, 3), seed=st.integers(0, 20_000))
def test_local_never_beats_exhaustive(n, cycles, seed):
    g = random_even(n, cycles, seed=seed)
    exh = optimize_decomposition(g, method="exhaustive")
    loc = optimize_decomposition(g, method="local_search", budget=60, seed=seed)
    assert loc.best_rank >= exh.best_rank
    for res in (exh, loc):
        assert res.best_ci == build_ci(g, res.best_decomposition)
        assert res.best_rank == cycle_rank(res.best_ci)


def test_objective_invariant_under_relabeling(theta_graph, doubled_triangle):
    rng = random.Random(11)
    for g in (theta_graph, doubled_triangle, build_family("flower", petals=2, core=4)):
        base = optimize_decomposition(g, method="exhaustive").best_rank
        verts = list(g.vertices)
        for _ in range(3):
            perm = verts[:]
            rng.shuffle(perm)
            mapping = dict(zip(verts, perm))
            permuted = Multigraph.from_edges(
                g.n_vertices,
                [(mapping[u], mapping[v]) for _, u, v in g.edges()],
            )
            res = optimize_decomposition(permuted, method="exhaustive")
            assert res.best_rank == base


def assert_no_cyclic_garbage(run):
    # A search that leaves reference cycles keeps each of its states alive
    # until the cyclic collector runs, which shows as peak memory.
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        run()
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("method", METHODS)
def test_optimize_leaves_no_reference_cycles(method):
    g = random_even(7, 3, seed=0)
    assert_no_cyclic_garbage(
        lambda: optimize_decomposition(g, method=method, budget=200)
    )


@pytest.mark.parametrize("run", [analyze, exact_decycling_number], ids=["analyze", "exact"])
def test_bounds_leave_no_reference_cycles(run):
    g = random_even(12, 5, seed=0)
    assert_no_cyclic_garbage(lambda: run(g))


def test_local_search_keys_each_greedy_start_once(monkeypatch):
    # moves come with their sort keys, so only a greedy start is keyed
    counts = {"sort_key": 0, "greedy": 0}
    sort_key = CycleDecomposition.sort_key.fget

    def counted_sort_key(d):
        counts["sort_key"] += 1
        return sort_key(d)

    def counted_greedy(g, seed):
        counts["greedy"] += 1
        return decompose._decompose_greedy(g, seed)

    monkeypatch.setattr(CycleDecomposition, "sort_key", property(counted_sort_key))
    monkeypatch.setattr(optimize, "_decompose_greedy", counted_greedy)
    g = random_even(7, 3, seed=12)
    res = optimize_decomposition(g, method="local_search", budget=200)
    assert res.evaluations == 200 and counts["greedy"] > 1
    assert counts["sort_key"] == counts["greedy"]


@pytest.mark.parametrize(
    "g, calls",
    [(random_even(7, 3, seed=1), 3), (build_family("triangle_chain", k=4), 1)],
    ids=["random_even", "triangle_chain"],
)
def test_local_search_builds_each_neighbourhood_once(monkeypatch, g, calls):
    # one _moves call per distinct current decomposition; every
    # neighbourhood but the last is evaluated in full, so the moves
    # built stay within budget + the largest neighbourhood
    built = []
    moves = optimize._moves

    def counted(*args):
        built.append(moves(*args))
        return built[-1]

    monkeypatch.setattr(optimize, "_moves", counted)
    res = optimize_decomposition(g, method="local_search", budget=200, seed=0)
    assert (res.evaluations, len(built)) == (200, calls)
    sizes = [len(m) for m in built]
    assert sum(sizes) <= 200 + max(sizes)


def optimizer_sweep():
    """Every random_even with n 4-9, 1-4 cycles and seeds 0-1, then
    triangle_chain 2-5, doubled_cycle 2-4 and cycle_tree 2-4."""
    for n in range(4, 10):
        for cycles in range(1, 5):
            for seed in range(2):
                yield random_even(n, cycles, seed=seed)
    yield from (build_family("triangle_chain", k=k) for k in range(2, 6))
    yield from (build_family("doubled_cycle", k=k) for k in range(2, 5))
    yield from (build_family("cycle_tree", nodes=k) for k in range(2, 5))


# sha256 over the JSON of every result of ``optimizer_sweep``: local
# search at budgets 7, 60 and 200 and seeds 0 and 3, then exhaustive
# search where the graph has at most 14 edges. It pins the winner, its
# rank, bound and CI, and the evaluation count, so a faster objective
# must pick exactly the same decompositions.
OPTIMIZER_SWEEP_DIGEST = (
    "9867e0f0e7aafcce0cab6ebe2210e49d13e7284a344e4d52955a54d36ca1e14a"
)


def test_optimizer_output_is_pinned():
    h = hashlib.sha256()
    for g in optimizer_sweep():
        runs = [
            ("local_search", budget, seed)
            for budget in (7, 60, 200)
            for seed in (0, 3)
        ]
        if g.n_edges <= 14:
            runs.append(("exhaustive", 1000, 0))
        for method, budget, seed in runs:
            res = optimize_decomposition(g, method=method, budget=budget, seed=seed)
            h.update(json.dumps(res.to_json_obj()).encode())
    assert h.hexdigest() == OPTIMIZER_SWEEP_DIGEST


@pytest.mark.parametrize(
    "graph, method, budget, evaluations, built",
    [
        ((8, 4, 11), "exhaustive", 1000, 17_301, 234),
        ((12, 5, 0), "local_search", 200, 200, 4),
    ],
    ids=["exhaustive", "local_search"],
)
def test_bound_is_built_only_where_rank_ties(
    monkeypatch, graph, method, budget, evaluations, built
):
    # the rank comes from |d|; a bound is built only for a decomposition
    # that ties or beats the best rank, or that local search steps to
    calls = []
    construct = optimize._construct_decycling

    def counted(*args):
        calls.append(args)
        return construct(*args)

    monkeypatch.setattr(optimize, "_construct_decycling", counted)
    n, cycles, seed = graph
    g = random_even(n, cycles, seed=seed)
    res = optimize_decomposition(g, method=method, budget=budget)
    assert (res.evaluations, len(calls)) == (evaluations, built)


def test_evenness_is_checked_once_per_call(monkeypatch):
    calls = []
    is_even = multigraph.is_even

    def counted(g):
        calls.append(g)
        return is_even(g)

    # every evenness gate goes through multigraph's is_even
    monkeypatch.setattr(multigraph, "is_even", counted)
    g = random_even(7, 3, seed=12)
    res = optimize_decomposition(g, method="local_search", budget=200)
    assert res.evaluations == 200 and len(calls) == 1
    calls.clear()
    analyze(g)
    assert len(calls) == 1


def test_rank_from_size_is_checked_against_the_ci(monkeypatch):
    # the rank comes from the degrees and |d|; a CI rank that disagrees
    # with that rule at the end is an invariant failure
    calls = []

    def skewed(ci):
        calls.append(ci)
        return cycle_rank(ci) + 1

    monkeypatch.setattr(optimize, "cycle_rank", skewed)
    with pytest.raises(InvariantError, match="rank"):
        optimize_decomposition(random_even(7, 3, seed=12), method="exhaustive")
    assert len(calls) == 1

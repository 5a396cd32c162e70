import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decycle.cigraph import build_ci, cycle_rank
from decycle.errors import NotEvenError
from decycle.families import build_family, random_even
from decycle.multigraph import Multigraph
from decycle.optimize import optimize_decomposition


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


def test_result_json(doubled_triangle):
    res = optimize_decomposition(doubled_triangle, method="exhaustive")
    obj = res.to_json_obj()
    assert obj["best_rank"] == 1 and obj["method"] == "exhaustive"
    assert obj["evaluations"] == 5


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

"""Reported numbers that must not change when a graph is renamed or an
edge subdivided, with the decomposition mapped along with the graph.

The general bound is checked only where it must hold: the strip breaks
ties by label, so renaming vertices can move it, while renaming edges
renumbers the cycles but keeps every label.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import greedy_graphs
from decycle.decompose import (
    Cycle,
    CycleDecomposition,
    _sorted_cycles,
    decompose_greedy,
)
from decycle.decycling import analyze
from decycle.families import cycle_tree
from decycle.multigraph import Multigraph

# the oracle's vertex limit: it covers every random_even graph drawn
LIMIT = 14

KEPT_BY_RENAMING = (
    "exact",
    "tree_exact",
    "ci_nodes",
    "ci_links",
    "ci_rank",
    "ci_simple",
    "edge_count_bound",
)


def facts(report, names):
    return {name: getattr(report, name) for name in names}


@settings(max_examples=60, deadline=None)
@given(g=greedy_graphs(), seed=st.integers(0, 10_000), data=st.data())
def test_a_vertex_permutation_keeps_the_ci_and_the_exact_values(g, seed, data):
    new = dict(zip(g.vertices, data.draw(st.permutations(g.vertices))))
    h = Multigraph(g.vertices, {e: (new[u], new[v]) for e, u, v in g.edges()})
    d = decompose_greedy(g, seed)
    mapped = CycleDecomposition(
        tuple(Cycle(tuple(new[v] for v in c.vertices), c.edges) for c in d.cycles)
    )
    before = analyze(g, d, oracle_limit=LIMIT)
    after = analyze(h, mapped, oracle_limit=LIMIT)
    assert facts(after, KEPT_BY_RENAMING) == facts(before, KEPT_BY_RENAMING)


@settings(max_examples=60, deadline=None)
@given(g=greedy_graphs(), seed=st.integers(0, 10_000), data=st.data())
def test_an_edge_permutation_keeps_the_general_bound_too(g, seed, data):
    new = dict(zip(g.edge_ids, data.draw(st.permutations(g.edge_ids))))
    h = Multigraph(g.vertices, {new[e]: (u, v) for e, u, v in g.edges()})
    d = decompose_greedy(g, seed)
    # the cycles take the order of their new edge ids, as greedy's do
    mapped = CycleDecomposition(
        _sorted_cycles(
            Cycle(c.vertices, tuple(new[e] for e in c.edges)) for c in d.cycles
        )
    )
    names = KEPT_BY_RENAMING + ("general_bound",)
    before = analyze(g, d, oracle_limit=LIMIT)
    after = analyze(h, mapped, oracle_limit=LIMIT)
    assert facts(after, names) == facts(before, names)


def check_subdivision(g, seed, e):
    # edge e = (u, v) becomes e = (u, w) and a new edge (w, v), where w is
    # a new vertex of degree 2
    u, v = g.endpoints(e)
    w, f = max(g.vertices) + 1, max(g.edge_ids) + 1
    edges = {i: ends for i, *ends in g.edges()}
    edges[e], edges[f] = (u, w), (w, v)
    h = Multigraph(g.vertices + (w,), edges)
    d = decompose_greedy(g, seed)
    cycles = []
    for c in d.cycles:
        if e in c.edges:
            i = c.edges.index(e)
            # the walk crosses e from vertices[i] to the next vertex
            first, second = (e, f) if c.vertices[i] == u else (f, e)
            c = Cycle(
                c.vertices[: i + 1] + (w,) + c.vertices[i + 1 :],
                c.edges[:i] + (first, second) + c.edges[i + 1 :],
            )
        cycles.append(c)
    mapped = CycleDecomposition(_sorted_cycles(cycles))
    names = ("exact", "ci_links", "ci_rank", "general_bound")
    # h has one vertex more than g, so a limit one higher lets the oracle
    # run on both or on neither
    before = analyze(g, d, oracle_limit=LIMIT)
    after = analyze(h, mapped, oracle_limit=LIMIT + 1)
    assert facts(after, names) == facts(before, names)


@settings(max_examples=60, deadline=None)
@given(g=greedy_graphs(), seed=st.integers(0, 10_000), data=st.data())
def test_subdividing_an_edge_keeps_the_counts_and_the_bounds(g, seed, data):
    check_subdivision(g, seed, data.draw(st.sampled_from(g.edge_ids)))


def test_subdividing_a_graph_one_over_the_limit_keeps_exact_unset():
    # 15 vertices: the oracle skips it, and must skip its 16-vertex subdivision
    g = cycle_tree(nodes=4, seed=5)
    assert g.n_vertices == LIMIT + 1
    check_subdivision(g, 0, 0)

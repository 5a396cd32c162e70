from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decycle.cigraph import build_ci, is_simple
from decycle.decompose import (
    Cycle,
    CycleDecomposition,
    _moves,
    decompose_greedy,
    decomposition_violations,
    enumerate_decompositions,
    neighbors,
    validate_decomposition,
)
from decycle.errors import InvalidDecompositionError, NotEvenError
from decycle.families import build_family, random_even
from decycle.multigraph import Multigraph
from oracles import oracle_count_decompositions, oracle_neighbor_keys


def keys(decos):
    return {d.canonical_key for d in decos}


def shape(d):
    return tuple(sorted(len(c) for c in d.cycles))


# -- validation -------------------------------------------------------------


def test_validate_triangle(triangle):
    d = CycleDecomposition((Cycle((0, 1, 2), (0, 1, 2)),))
    assert validate_decomposition(triangle, d)


def test_validate_three_digons(doubled_triangle):
    d = CycleDecomposition(
        (
            Cycle((0, 1), (0, 1)),
            Cycle((1, 2), (2, 3)),
            Cycle((0, 2), (4, 5)),
        )
    )
    assert validate_decomposition(doubled_triangle, d)


def test_validate_empty_is_uncovered(triangle):
    d = CycleDecomposition(())
    assert not validate_decomposition(triangle, d)
    assert any("not covered" in p for p in decomposition_violations(triangle, d))


def test_validate_catches_bad_cycles(triangle):
    repeated = CycleDecomposition((Cycle((0, 1, 0), (0, 1, 2)),))
    assert any("repeated" in p for p in decomposition_violations(triangle, repeated))
    misaligned = CycleDecomposition((Cycle((0, 2, 1), (0, 1, 2)),))
    assert not validate_decomposition(triangle, misaligned)
    unknown = CycleDecomposition((Cycle((0, 1, 2), (0, 1, 9)),))
    assert any("unknown edge" in p for p in decomposition_violations(triangle, unknown))
    short = CycleDecomposition((Cycle((0,), (0,)),))
    assert any("length" in p for p in decomposition_violations(triangle, short))


def test_decomposition_json_round_trip(doubled_triangle):
    d = decompose_greedy(doubled_triangle, seed=3)
    again = CycleDecomposition.from_json_obj(d.to_json_obj())
    assert again.canonical_key == d.canonical_key
    assert validate_decomposition(doubled_triangle, again)


# -- greedy -----------------------------------------------------------------


def test_greedy_single_cycle(c5):
    d = decompose_greedy(c5)
    assert len(d.cycles) == 1
    assert set(d.cycles[0].vertices) == {0, 1, 2, 3, 4}
    assert validate_decomposition(c5, d)


def test_greedy_doubled_triangle_all_seeds(doubled_triangle):
    shapes = set()
    for seed in range(40):
        d = decompose_greedy(doubled_triangle, seed=seed)
        assert validate_decomposition(doubled_triangle, d)
        shapes.add(shape(d))
    assert shapes <= {(2, 2, 2), (3, 3)}


def test_greedy_theta_is_enumerated_member(theta_graph):
    everything = keys(enumerate_decompositions(theta_graph))
    for seed in range(20):
        d = decompose_greedy(theta_graph, seed=seed)
        assert d.canonical_key in everything


def test_greedy_rejects_odd_graph():
    path = Multigraph.from_edges(3, [(0, 1), (1, 2)])
    with pytest.raises(NotEvenError, match="not even"):
        decompose_greedy(path)


def test_greedy_deterministic(doubled_triangle):
    assert decompose_greedy(doubled_triangle, 9) == decompose_greedy(doubled_triangle, 9)


# -- exhaustive enumeration ---------------------------------------------------


def test_enumerate_triangle(triangle):
    assert len(list(enumerate_decompositions(triangle))) == 1


def test_enumerate_doubled_triangle(doubled_triangle):
    decos = list(enumerate_decompositions(doubled_triangle))
    # one decomposition into three digons, four ways to split the six
    # edges into two triangles (each triangle takes one edge per pair)
    assert len(decos) == 5
    assert sorted(shape(d) for d in decos) == [
        (2, 2, 2), (3, 3), (3, 3), (3, 3), (3, 3),
    ]
    assert len(keys(decos)) == 5
    assert all(validate_decomposition(doubled_triangle, d) for d in decos)


def test_enumerate_theta(theta_graph):
    decos = list(enumerate_decompositions(theta_graph))
    assert len(decos) == 3
    for d in decos:
        assert shape(d) == (3, 4)
        pair_shares = [
            len(a.vertex_set & b.vertex_set)
            for i, a in enumerate(d.cycles)
            for b in d.cycles[i + 1 :]
        ]
        assert max(pair_shares) >= 2


def test_enumerate_limit(doubled_triangle):
    assert len(list(enumerate_decompositions(doubled_triangle, limit=2))) == 2
    assert list(enumerate_decompositions(doubled_triangle, limit=0)) == []


def test_enumerate_rejects_odd_graph():
    path = Multigraph.from_edges(3, [(0, 1), (1, 2)])
    with pytest.raises(NotEvenError):
        list(enumerate_decompositions(path))


def test_enumerate_count_matches_partition_oracle(
    triangle, doubled_triangle, theta_graph, c5
):
    samples = [
        triangle,
        doubled_triangle,
        theta_graph,
        c5,
        build_family("flower", petals=2, core=3),
        build_family("triangle_chain", k=3),
    ]
    for g in samples:
        got = len(list(enumerate_decompositions(g)))
        want = oracle_count_decompositions([(u, v) for _, u, v in g.edges()])
        assert got == want


@settings(max_examples=30, deadline=None)
@given(n=st.integers(3, 7), cycles=st.integers(1, 3), seed=st.integers(0, 50_000))
def test_enumerate_count_matches_partition_oracle_random(n, cycles, seed):
    g = random_even(n, cycles, seed=seed)
    if g.n_edges > 10:
        return
    decos = list(enumerate_decompositions(g))
    want = oracle_count_decompositions([(u, v) for _, u, v in g.edges()])
    assert len(decos) == want
    assert len(keys(decos)) == len(decos)
    for d in decos:
        assert validate_decomposition(g, d)
        for c in d.cycles:
            # written from the lower endpoint of the lowest edge, along it
            assert c.edges[0] == min(c.edges)
            assert c.vertices[0] == min(g.endpoints(c.edges[0]))


def test_simple_ci_filter_matches_is_simple(doubled_triangle, theta_graph):
    # a decomposition where all cycle pairs share <= 1 vertex is exactly
    # a decomposition with a simple CI graph
    for g, expect_any in ((doubled_triangle, True), (theta_graph, False)):
        found = False
        for d in enumerate_decompositions(g):
            pairwise_ok = all(
                len(a.vertex_set & b.vertex_set) <= 1
                for i, a in enumerate(d.cycles)
                for b in d.cycles[i + 1 :]
            )
            assert pairwise_ok == is_simple(build_ci(g, d))
            found = found or pairwise_ok
        assert found == expect_any


# -- neighbors ----------------------------------------------------------------


def test_neighbors_doubled_triangle(doubled_triangle):
    decos = list(enumerate_decompositions(doubled_triangle))
    by_shape = {shape(d): d for d in decos}
    digons = by_shape[(2, 2, 2)]
    ns = neighbors(doubled_triangle, digons)
    assert len(ns) == 4 and all(shape(n) == (3, 3) for n in ns)
    split = by_shape[(3, 3)]
    ns2 = neighbors(doubled_triangle, split)
    assert digons.canonical_key in keys(ns2)
    assert len(ns2) == 4


def test_neighbors_single_cycle_has_none(c5):
    assert neighbors(c5, decompose_greedy(c5)) == []


def test_neighbors_theta_connects_all(theta_graph):
    decos = list(enumerate_decompositions(theta_graph))
    for d in decos:
        ns = neighbors(theta_graph, d)
        assert keys(ns) == keys(decos) - {d.canonical_key}


def test_neighbors_rejects_invalid(triangle):
    with pytest.raises(InvalidDecompositionError):
        neighbors(triangle, CycleDecomposition(()))


@settings(max_examples=25, deadline=None)
@given(n=st.integers(4, 7), cycles=st.integers(1, 3), seed=st.integers(0, 5_000))
def test_greedy_valid_and_covers_all_edges(n, cycles, seed):
    g = random_even(n, cycles, seed=seed)
    d = decompose_greedy(g, seed=seed)
    assert validate_decomposition(g, d)
    assert sum(len(c) for c in d.cycles) == g.n_edges


@settings(max_examples=15, deadline=None)
@given(n=st.integers(4, 6), cycles=st.integers(1, 2), seed=st.integers(0, 5_000))
def test_neighbors_symmetric(n, cycles, seed):
    g = random_even(n, cycles, seed=seed)
    d = decompose_greedy(g, seed=0)
    for nd in neighbors(g, d):
        assert d.canonical_key in keys(neighbors(g, nd))


def assert_neighbors_match_partition_oracle(g, limit=None):
    edges = [(u, v) for _, u, v in g.edges()]
    for d in islice(enumerate_decompositions(g), limit):
        want = oracle_neighbor_keys(edges, d.canonical_key)
        assert keys(neighbors(g, d)) == want


def test_neighbors_match_partition_oracle_families(theta_graph):
    # doubled cycles need merges of four or more digons into two cycles
    assert_neighbors_match_partition_oracle(theta_graph)
    for k in (4, 5):
        assert_neighbors_match_partition_oracle(build_family("doubled_cycle", k=k))


@settings(max_examples=20, deadline=None)
@given(n=st.integers(3, 6), cycles=st.integers(2, 4), seed=st.integers(0, 50_000))
def test_neighbors_match_partition_oracle_random(n, cycles, seed):
    g = random_even(n, cycles, seed=seed)
    if g.n_edges <= 10:
        assert_neighbors_match_partition_oracle(g, limit=20)


def assert_shared_splits_match_fresh_neighbors(g, limit=20):
    """One ``splits`` memo over many decompositions gives the same moves,
    whole ``Cycle`` tuples in order, as a fresh ``neighbors`` call."""
    edges = [(u, v) for _, u, v in g.edges()]
    splits = {}
    for d in islice(enumerate_decompositions(g), limit):
        moves = _moves(g, d, splits)
        assert moves == neighbors(g, d)
        assert keys(moves) == oracle_neighbor_keys(edges, d.canonical_key)


def test_shared_splits_match_fresh_neighbors_families(theta_graph):
    assert_shared_splits_match_fresh_neighbors(theta_graph)
    assert_shared_splits_match_fresh_neighbors(build_family("doubled_cycle", k=4))


@settings(max_examples=20, deadline=None)
@given(n=st.integers(3, 6), cycles=st.integers(2, 4), seed=st.integers(0, 50_000))
def test_shared_splits_match_fresh_neighbors_random(n, cycles, seed):
    g = random_even(n, cycles, seed=seed)
    if g.n_edges <= 10:
        assert_shared_splits_match_fresh_neighbors(g)

import hashlib
import json
import random
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decycle.cigraph import build_ci, is_simple
from decycle.decompose import (
    Cycle,
    CycleDecomposition,
    _first_after_shuffle,
    _movable_subsets,
    _moves,
    _sorted_cycles,
    decompose_greedy,
    decomposition_violations,
    enumerate_decompositions,
    neighbors,
)
from decycle.errors import InvalidDecompositionError, NotEvenError
from decycle.families import build_family, random_even
from decycle.multigraph import Multigraph
from conftest import greedy_graphs
from oracles import (
    oracle_count_decompositions,
    oracle_greedy,
    oracle_movable_subsets,
    oracle_neighbor_keys,
)


def key(d):
    """Identity of ``d`` built apart from ``sort_key``: its edge-id sets."""
    return frozenset(frozenset(c.edges) for c in d.cycles)


def keys(decos):
    return {key(d) for d in decos}


def shape(d):
    return tuple(sorted(len(c) for c in d.cycles))


# -- validation -------------------------------------------------------------


def test_validate_triangle(triangle):
    d = CycleDecomposition((Cycle((0, 1, 2), (0, 1, 2)),))
    assert not decomposition_violations(triangle, d)


def test_validate_three_digons(doubled_triangle):
    d = CycleDecomposition(
        (
            Cycle((0, 1), (0, 1)),
            Cycle((1, 2), (2, 3)),
            Cycle((0, 2), (4, 5)),
        )
    )
    assert not decomposition_violations(doubled_triangle, d)


def test_validate_empty_is_uncovered(triangle):
    d = CycleDecomposition(())
    assert any("not covered" in p for p in decomposition_violations(triangle, d))


def test_validate_catches_bad_cycles(triangle):
    repeated = CycleDecomposition((Cycle((0, 1, 0), (0, 1, 2)),))
    assert any("repeated" in p for p in decomposition_violations(triangle, repeated))
    misaligned = CycleDecomposition((Cycle((0, 2, 1), (0, 1, 2)),))
    assert any(
        "does not join" in p for p in decomposition_violations(triangle, misaligned)
    )
    unknown = CycleDecomposition((Cycle((0, 1, 2), (0, 1, 9)),))
    assert any("unknown edge" in p for p in decomposition_violations(triangle, unknown))
    short = CycleDecomposition((Cycle((0,), (0,)),))
    assert any("length" in p for p in decomposition_violations(triangle, short))


def test_validate_catches_count_mismatch_and_reused_edges(triangle):
    mismatch = CycleDecomposition((Cycle((0, 1, 2), (0, 1)),))
    assert decomposition_violations(triangle, mismatch)[0] == (
        "cycle 0: vertex and edge counts differ"
    )
    twice = CycleDecomposition((Cycle((0, 1, 2), (0, 1, 2)),) * 2)
    assert decomposition_violations(triangle, twice) == [
        f"cycle 1: edge {e} already used by cycle 0" for e in (0, 1, 2)
    ]


def test_from_json_obj_rejects_lists_of_different_lengths():
    obj = {"cycles": [[0, 1, 2]], "edge_ids": [[0, 1, 2], [3, 4]]}
    with pytest.raises(InvalidDecompositionError, match="differ in length"):
        CycleDecomposition.from_json_obj(obj)


def test_decomposition_json_round_trip(doubled_triangle):
    d = decompose_greedy(doubled_triangle, seed=3)
    again = CycleDecomposition.from_json_obj(d.to_json_obj())
    assert again.sort_key == d.sort_key
    assert not decomposition_violations(doubled_triangle, again)


# -- greedy -----------------------------------------------------------------


def test_greedy_single_cycle(c5):
    d = decompose_greedy(c5)
    assert len(d.cycles) == 1
    assert set(d.cycles[0].vertices) == {0, 1, 2, 3, 4}
    assert not decomposition_violations(c5, d)


def test_greedy_doubled_triangle_all_seeds(doubled_triangle):
    shapes = set()
    for seed in range(40):
        d = decompose_greedy(doubled_triangle, seed=seed)
        assert not decomposition_violations(doubled_triangle, d)
        shapes.add(shape(d))
    assert shapes <= {(2, 2, 2), (3, 3)}


def test_greedy_theta_is_enumerated_member(theta_graph):
    everything = keys(enumerate_decompositions(theta_graph))
    for seed in range(20):
        d = decompose_greedy(theta_graph, seed=seed)
        assert key(d) in everything


def test_greedy_rejects_odd_graph():
    path = Multigraph.from_edges(3, [(0, 1), (1, 2)])
    with pytest.raises(NotEvenError, match="not even"):
        decompose_greedy(path)


def test_greedy_deterministic(doubled_triangle):
    assert decompose_greedy(doubled_triangle, 9) == decompose_greedy(doubled_triangle, 9)


def test_greedy_default_seed_is_zero(doubled_triangle):
    # seeds 0 and 1 give different decompositions here, so a changed
    # default would show
    g = doubled_triangle
    assert decompose_greedy(g, 0) != decompose_greedy(g, 1)
    assert decompose_greedy(g) == decompose_greedy(g, 0)


# sha256 over the JSON of every decomposition of ``greedy_sweep``. The
# seed fixes each greedy decomposition, and through it the CLI output for
# a given --seed, so a change to the walk's random draws shows up here.
GREEDY_SWEEP_DIGEST = (
    "1ca86c05ebb1a19b31a440bf48aa62aaf297aaccd3893c677653f359800362ac"
)


def greedy_sweep():
    for n in range(2, 12):
        for cycles in range(1, 6):
            for seed in range(5):
                yield random_even(n, cycles, seed), seed
    for seed in range(10):
        yield build_family("cycle_tree", nodes=50, seed=seed), seed
    fixed = [build_family("doubled_cycle", k=k) for k in range(2, 8)]
    fixed += [
        build_family("theta", lengths=lengths)
        for lengths in [(1, 1), (1, 2, 2, 2), (2, 3, 1, 4), (1, 1, 2, 2, 3, 3)]
    ]
    fixed += [build_family("flower", petals=p, core=5) for p in range(6)]
    for g in fixed:
        for seed in range(5):
            yield g, seed


def test_greedy_output_is_pinned():
    h = hashlib.sha256()
    for g, seed in greedy_sweep():
        h.update(json.dumps(decompose_greedy(g, seed).to_json_obj()).encode())
    assert h.hexdigest() == GREEDY_SWEEP_DIGEST


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
    assert not any(decomposition_violations(doubled_triangle, d) for d in decos)


def test_enumerate_theta(theta_graph):
    decos = list(enumerate_decompositions(theta_graph))
    assert len(decos) == 3
    for d in decos:
        assert shape(d) == (3, 4)
        pair_shares = [
            len(set(a.vertices) & set(b.vertices))
            for i, a in enumerate(d.cycles)
            for b in d.cycles[i + 1 :]
        ]
        assert max(pair_shares) >= 2


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


def assert_written_from_its_lowest_edge(g, c):
    """A cycle the peeling search finds starts at the lower endpoint of
    its lowest edge and goes along that edge, whatever order the
    adjacency it walked lists the edges in."""
    assert c.edges[0] == min(c.edges)
    assert c.vertices[0] == g.endpoints(c.edges[0])[0]


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
        assert not decomposition_violations(g, d)
        # the cycles come in the order of their sorted edge ids
        assert d.cycles == _sorted_cycles(d.cycles)
        for c in d.cycles:
            assert_written_from_its_lowest_edge(g, c)


def test_simple_ci_filter_matches_is_simple(doubled_triangle, theta_graph):
    # a decomposition where all cycle pairs share <= 1 vertex is exactly
    # a decomposition with a simple CI graph
    for g, expect_any in ((doubled_triangle, True), (theta_graph, False)):
        found = False
        for d in enumerate_decompositions(g):
            pairwise_ok = all(
                len(set(a.vertices) & set(b.vertices)) <= 1
                for i, a in enumerate(d.cycles)
                for b in d.cycles[i + 1 :]
            )
            assert pairwise_ok == is_simple(build_ci(g, d))
            found = found or pairwise_ok
        assert found == expect_any


# -- identity -----------------------------------------------------------------


def assert_sort_key_is_identity(g, rng):
    """Distinct decompositions have distinct sort keys, one per oracle
    decomposition, and reordering or re-writing cycles keeps the key."""
    decos = list(enumerate_decompositions(g))
    want = oracle_count_decompositions([(u, v) for _, u, v in g.edges()])
    assert len({d.sort_key for d in decos}) == len(decos) == want
    for d in decos:
        moved = []
        for c in d.cycles:
            r = rng.randrange(len(c))
            vs, es = c.vertices[r:] + c.vertices[:r], c.edges[r:] + c.edges[:r]
            # reversed, edges[i] still joins vertices[i] and vertices[i + 1]
            moved.append(Cycle(vs[:1] + vs[:0:-1], es[::-1]))
        rng.shuffle(moved)
        again = CycleDecomposition(tuple(moved))
        assert not decomposition_violations(g, again)
        assert again.sort_key == d.sort_key


def test_sort_key_is_identity_families(theta_graph):
    rng = random.Random(5)
    assert_sort_key_is_identity(theta_graph, rng)
    for k in (3, 4):
        assert_sort_key_is_identity(build_family("doubled_cycle", k=k), rng)


@settings(max_examples=20, deadline=None)
@given(n=st.integers(3, 6), cycles=st.integers(1, 3), seed=st.integers(0, 50_000))
def test_sort_key_is_identity_random(n, cycles, seed):
    g = random_even(n, cycles, seed=seed)
    if g.n_edges <= 10:
        assert_sort_key_is_identity(g, random.Random(seed))


# -- neighbors ----------------------------------------------------------------


def test_neighbors_doubled_triangle(doubled_triangle):
    decos = list(enumerate_decompositions(doubled_triangle))
    by_shape = {shape(d): d for d in decos}
    digons = by_shape[(2, 2, 2)]
    ns = neighbors(doubled_triangle, digons)
    assert len(ns) == 4 and all(shape(n) == (3, 3) for n in ns)
    split = by_shape[(3, 3)]
    ns2 = neighbors(doubled_triangle, split)
    assert key(digons) in keys(ns2)
    assert len(ns2) == 4


def test_neighbors_single_cycle_has_none(c5):
    assert neighbors(c5, decompose_greedy(c5)) == []


def test_neighbors_theta_connects_all(theta_graph):
    decos = list(enumerate_decompositions(theta_graph))
    for d in decos:
        ns = neighbors(theta_graph, d)
        assert keys(ns) == keys(decos) - {key(d)}


def test_neighbors_rejects_invalid(triangle):
    with pytest.raises(InvalidDecompositionError):
        neighbors(triangle, CycleDecomposition(()))


@settings(max_examples=25, deadline=None)
@given(n=st.integers(4, 7), cycles=st.integers(1, 3), seed=st.integers(0, 5_000))
def test_greedy_valid_and_covers_all_edges(n, cycles, seed):
    g = random_even(n, cycles, seed=seed)
    d = decompose_greedy(g, seed=seed)
    assert not decomposition_violations(g, d)
    assert sum(len(c) for c in d.cycles) == g.n_edges


@settings(max_examples=15, deadline=None)
@given(n=st.integers(4, 6), cycles=st.integers(1, 2), seed=st.integers(0, 5_000))
def test_neighbors_symmetric(n, cycles, seed):
    g = random_even(n, cycles, seed=seed)
    d = decompose_greedy(g, seed=0)
    for nd in neighbors(g, d):
        assert key(d) in keys(neighbors(g, nd))


def assert_neighbors_match_partition_oracle(g, limit=None):
    edges = [(u, v) for _, u, v in g.edges()]
    for d in islice(enumerate_decompositions(g), limit):
        want = oracle_neighbor_keys(edges, key(d))
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


@settings(max_examples=30, deadline=None)
@given(n=st.integers(6, 12), cycles=st.integers(3, 5), seed=st.integers(0, 50_000))
def test_moves_are_valid_and_follow_the_rule_random(n, cycles, seed):
    # graphs past the partition oracle's reach: each move is a valid
    # decomposition, two cycles away from d one way or the other
    g = random_even(n, cycles, seed=seed)
    d = decompose_greedy(g, seed)
    if len(d) > 12:
        return
    for sk, nd in _moves(g, d, {}):
        assert sk == nd.sort_key
        assert not decomposition_violations(g, nd)
        assert min(len(key(d) - key(nd)), len(key(nd) - key(d))) == 2
        # the re-split walks the whole graph, restricted to the union's
        # edges, and still writes each new cycle the one way
        for c in set(nd.cycles) - set(d.cycles):
            assert_written_from_its_lowest_edge(g, c)


def assert_shared_splits_match_fresh_neighbors(g, limit=20):
    """One ``splits`` memo over many decompositions gives the same moves,
    whole ``Cycle`` tuples in order, as a fresh ``neighbors`` call."""
    edges = [(u, v) for _, u, v in g.edges()]
    splits = {}
    for d in islice(enumerate_decompositions(g), limit):
        moves = [nd for _, nd in _moves(g, d, splits)]
        assert moves == neighbors(g, d)
        assert keys(moves) == oracle_neighbor_keys(edges, key(d))


def test_shared_splits_match_fresh_neighbors_families(theta_graph):
    assert_shared_splits_match_fresh_neighbors(theta_graph)
    assert_shared_splits_match_fresh_neighbors(build_family("doubled_cycle", k=4))


@settings(max_examples=20, deadline=None)
@given(n=st.integers(3, 6), cycles=st.integers(2, 4), seed=st.integers(0, 50_000))
def test_shared_splits_match_fresh_neighbors_random(n, cycles, seed):
    g = random_even(n, cycles, seed=seed)
    if g.n_edges <= 10:
        assert_shared_splits_match_fresh_neighbors(g)


# sha256 over the JSON of the full ordered move list from the greedy
# decomposition (seed 0): each move's cycles as (vertices, edges). This
# pins the moves themselves, their order and how each cycle is written,
# so a faster neighbourhood must give back exactly the same list.
MOVE_DIGESTS = {
    "random_even(12,5,0)": (
        612, "53ce409fa132aea5ed4a6b28370df20793abd2c24ffd86b3886593ae9875196e"
    ),
    "random_even(7,3,0)": (
        8, "2e8e98e52a557b3f32c4ed50c81936d463a00b00cd241a9e59578fc50918637c"
    ),
    "random_even(7,3,1)": (
        2, "d3c56c0cf278da5bf5af5cbc6bea14a441b1941a2c33e72d92d8411fd5ec15e5"
    ),
    "random_even(7,3,2)": (
        10, "84dffb04c60471715d3445f9ed3d47d96b0267dbace593bd64c9f509df8ae3d5"
    ),
    "triangle_chain(4)": (
        0, "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"
    ),
    "doubled_cycle(4)": (
        8, "16787493097ea849fc474b367bfd661aa3ee8862f5da014fd2d773a82d10fb23"
    ),
    "theta": (
        2, "fb255c59e8c93628ad3aa7d6b5e1e8e5fe16f3b90f244bf0c04f8ab291160b6b"
    ),
}


def move_graph(name, theta_graph):
    if name == "theta":
        return theta_graph
    if name.startswith("random_even"):
        return random_even(*map(int, name[len("random_even("):-1].split(",")))
    family, k = name[:-1].split("(")
    return build_family(family, k=int(k))


@pytest.mark.parametrize("name", sorted(MOVE_DIGESTS))
def test_greedy_moves_are_pinned(name, theta_graph):
    g = move_graph(name, theta_graph)
    moves = [nd for _, nd in _moves(g, decompose_greedy(g, 0), {})]
    listed = [[[list(c.vertices), list(c.edges)] for c in m.cycles] for m in moves]
    digest = hashlib.sha256(json.dumps(listed).encode()).hexdigest()
    assert (len(moves), digest) == MOVE_DIGESTS[name]


@pytest.mark.parametrize(
    "g",
    [
        build_family("cycle_tree", nodes=16, seed=0),
        build_family("triangle_chain", k=16),
    ],
    ids=["cycle_tree(16)", "triangle_chain(16)"],
)
def test_no_moves_among_sixteen_cycles(g):
    # 2^16 cycle subsets, none of which can re-split: a loop over every
    # subset takes seconds here, growing only movable ones milliseconds
    d = decompose_greedy(g, 0)
    assert len(d) == 16
    assert _moves(g, d, {}) == []


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(3, 10),
    cycles=st.integers(1, 6),
    seed=st.integers(0, 50_000),
    pick=st.integers(0, 3),
)
def test_movable_subsets_match_oracle_random(n, cycles, seed, pick):
    g = random_even(n, cycles, seed=seed)
    d = next(
        islice(enumerate_decompositions(g), pick, None), decompose_greedy(g, seed)
    )
    if len(d) > 11:
        return
    grown = [tuple(sorted(chosen)) for chosen, _ in _movable_subsets(d.cycles)]
    assert len(set(grown)) == len(grown)  # each subset reached once
    assert sorted(grown) == sorted(oracle_movable_subsets(g, d.cycles))


# -- greedy against the shuffling walk ----------------------------------------


@settings(max_examples=150, deadline=None)
@given(g=greedy_graphs(), seed=st.integers(0, 2**64))
def test_greedy_matches_the_shuffling_walk(g, seed):
    # the walk draws what a shuffle of the sorted options would draw, so
    # it picks the same edges at every step, digons and lone options too
    d = decompose_greedy(g, seed)
    assert [(c.vertices, c.edges) for c in d.cycles] == oracle_greedy(g, seed)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**64))
def test_first_after_shuffle_is_the_front_of_a_shuffle(seed):
    # the same item as the shuffle's front, from the same draws: the
    # generator ends in the same state
    for size in range(1, 41):
        rng, shuffled = random.Random(seed), random.Random(seed)
        items = list(range(size))
        shuffled.shuffle(items)
        assert _first_after_shuffle(rng.getrandbits, size) == items[0]
        assert rng.getstate() == shuffled.getstate()

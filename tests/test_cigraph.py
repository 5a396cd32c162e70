import copy
import math
import pickle
import random
from itertools import combinations, islice

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import Index, Small
from decycle.cigraph import (
    CIGraph,
    Link,
    build_ci,
    cover_size,
    cycle_rank,
    is_simple,
    max_matching,
    msf,
    restrict_ci,
)
from decycle.decompose import decompose_greedy, enumerate_decompositions
from decycle.families import build_family, cycle_tree, random_even
from decycle.multigraph import Multigraph
from decycle.optimize import optimize_decomposition
from oracles import (
    oracle_ci_links,
    oracle_lex_first_matching,
    oracle_max_matching,
    oracle_min_forest_cover,
)


def path_ci(n_links):
    links = tuple(Link(i, i + 1, 100 + i) for i in range(n_links))
    return CIGraph.from_links(n_links + 1, links)


def star_ci(n_links):
    links = tuple(Link(0, i + 1, 200 + i) for i in range(n_links))
    return CIGraph.from_links(n_links + 1, links)


# -- construction -------------------------------------------------------------


def test_build_ci_single_cycle(c5):
    ci = build_ci(c5, decompose_greedy(c5))
    assert ci.node_count == 1 and ci.links == ()
    assert cycle_rank(ci) == 0
    assert is_simple(ci)


def test_build_ci_digons(doubled_triangle):
    decos = list(enumerate_decompositions(doubled_triangle))
    digons = next(d for d in decos if len(d.cycles) == 3)
    ci = build_ci(doubled_triangle, digons)
    assert ci.node_count == 3 and len(ci.links) == 3
    assert sorted(l.label for l in ci.links) == [0, 1, 2]
    assert is_simple(ci) and cycle_rank(ci) == 1


def test_build_ci_two_triangles(doubled_triangle):
    decos = list(enumerate_decompositions(doubled_triangle))
    split = next(d for d in decos if len(d.cycles) == 2)
    ci = build_ci(doubled_triangle, split)
    assert ci.node_count == 2 and len(ci.links) == 3
    assert sorted(l.label for l in ci.links) == [0, 1, 2]
    assert all(l.pair() == (0, 1) for l in ci.links)
    assert not is_simple(ci) and cycle_rank(ci) == 2


def test_shared_vertex_induces_clique():
    # three triangles glued at one vertex: the shared vertex shows up as
    # a link for every one of the C(3,2) cycle pairs
    g = Multigraph.from_edges(
        7,
        [(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (0, 4), (0, 5), (5, 6), (0, 6)],
    )
    ci = build_ci(g, decompose_greedy(g))
    assert ci.node_count == 3
    assert [l.label for l in ci.links] == [0, 0, 0]
    assert {l.pair() for l in ci.links} == {(0, 1), (0, 2), (1, 2)}


@settings(max_examples=60, deadline=None)
@given(
    family=st.sampled_from(["random_even", "cycle_tree", "theta"]),
    n=st.integers(3, 8),
    seed=st.integers(0, 10_000),
)
def test_ci_label_soundness_and_completeness(family, n, seed):
    # the per-vertex build gives the all-pairs intersection exactly, in
    # the same (a, b, label) order
    if family == "random_even":
        g = random_even(n, 3, seed=seed)
        decos = islice(enumerate_decompositions(g), 20)
    elif family == "cycle_tree":
        g = cycle_tree(n, seed=seed)
        decos = [decompose_greedy(g)]
    else:
        g = build_family("theta", lengths=(1, 2, 2, 2))
        decos = enumerate_decompositions(g)
    for d in decos:
        links = tuple((l.a, l.b, l.label) for l in build_ci(g, d).links)
        assert links == oracle_ci_links([c.vertices for c in d.cycles])


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 8), cycles=st.integers(1, 4), seed=st.integers(0, 10_000))
def test_ci_rank_is_a_cycle_count(n, cycles, seed):
    # each cycle through v uses two of its edges, so every decomposition
    # puts deg(v)/2 cycles through v: the link count is fixed, and on a
    # connected graph the rank falls by one per extra cycle
    g = random_even(n, cycles, seed=seed)
    if g.n_edges > 14:
        return
    links = sum(math.comb(g.degree(v) // 2, 2) for v in g.vertices)
    for d in enumerate_decompositions(g):
        ci = build_ci(g, d)
        assert len(ci.links) == links
        assert cycle_rank(ci) == links - len(d.cycles) + 1


def test_cycle_rank_values():
    assert cycle_rank(path_ci(3)) == 0
    three_cycle = CIGraph.from_links(3, (Link(0, 1, 5), Link(0, 2, 6), Link(1, 2, 7)))
    assert cycle_rank(three_cycle) == 1
    two_nodes = CIGraph.from_links(2, (Link(0, 1, 1), Link(0, 1, 2), Link(0, 1, 3)))
    assert cycle_rank(two_nodes) == 2
    assert cycle_rank(CIGraph.from_links(4, ())) == 0


def test_rank_zero_iff_forest():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(1, 6)
        pairs = [
            (a, b)
            for a, b in combinations(range(n), 2)
            if rng.random() < 0.4
        ]
        links = tuple(Link(a, b, 0) for a, b in pairs)
        ci = restrict_ci(CIGraph.from_links(n, links), list(range(n)))
        forest = _is_forest_pairs(n, pairs)
        assert (cycle_rank(ci) == 0) == forest


def _is_forest_pairs(n, pairs):
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra == rb:
            return False
        parent[ra] = rb
    return True


def test_restrict_ci():
    ci = path_ci(3)
    sub = restrict_ci(ci, [0, 1, 3])
    assert sub.node_count == 3
    assert [l.pair() for l in sub.links] == [(0, 1)]
    # new node i is the i-th smallest kept node
    assert restrict_ci(ci, [3, 1, 2]).links == (Link(0, 1, 101), Link(1, 2, 102))
    assert restrict_ci(ci, iter([3, 1, 2])) == restrict_ci(ci, [3, 1, 2])
    assert cycle_rank(sub) == 0


def test_restrict_ci_rejects_repeated_or_unknown_nodes():
    # a repeated node used to count twice: [0, 0, 1] gave three nodes.
    # True and 1.0 acted as 1, 0.5 made a node that stood for no cycle,
    # and "1" raised a bare TypeError from sorting
    ci = path_ci(3)
    for keep in (
        [0, 0, 1], [0, 4], [-1, 2], [True, 2], [1.0, 2], [0.5, 2], ["1", 2],
        [Index(1), 2], [Small.ONE, 2],
    ):
        with pytest.raises(ValueError):
            restrict_ci(ci, keep)


def built_ci(n, cycles, seed):
    """The CI of a greedy decomposition of a random even multigraph,
    digons included."""
    g = random_even(n, cycles, seed=seed)
    return build_ci(g, decompose_greedy(g, seed=seed))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 9), cycles=st.integers(1, 6), seed=st.integers(0, 10_000))
def test_links_round_trip_keeps_the_bundles(n, cycles, seed):
    # the build makes bundles, not links; the links derived from them
    # are sorted and give back an equal CI with the same bundles
    ci = built_ci(n, cycles, seed)
    assert ci.links == tuple(sorted(ci.links))
    again = CIGraph.from_links(ci.node_count, ci.links)
    assert again == ci and hash(again) == hash(ci)
    assert dict(again.bundles) == dict(ci.bundles)
    assert all(list(ls) == sorted(set(ls)) for ls in ci.bundles.values())


def test_a_later_change_to_the_bundles_dict_leaves_the_ci_alone():
    bundles = {(0, 1): (4, 7), (1, 2): (5,)}
    ci = CIGraph(3, bundles)
    before = hash(ci)
    bundles[(0, 1)] = (4,)
    bundles[(0, 2)] = (9,)
    links = (Link(0, 1, 4), Link(0, 1, 7), Link(1, 2, 5))
    assert ci == CIGraph.from_links(3, links) and hash(ci) == before
    assert ci.links == links


@pytest.mark.parametrize(
    "node_count, bundles",
    [
        (2, {(0, 1): ()}),  # an empty bundle gave cycle_rank -1
        (2, {(0, 3): (5,)}),  # a node out of range gave an IndexError
        (2, {(0, 1): (7, 5)}),  # unequal to from_links of the same links
        (2, {(0, 1): (5, 5)}),
        (2, {(1, 0): (5,)}),
        (2, {(0, 1): [5]}),  # a list bundle made hash raise TypeError
        (2, {(0, 1): (5.0,)}),
        (2, {(0.0, 1): (5,)}),
        (-1, {}),
        (True, {}),
        (Index(2), {}),
        (Small.THREE, {}),
        (2, {(0, Index(1)): (5,)}),
        (2, {(0, 1): (Small.ONE,)}),
    ],
    ids=[
        "empty", "node-out-of-range", "descending", "repeated-label",
        "reversed-pair", "list-bundle", "float-label", "float-node",
        "negative-node-count", "bool-node-count", "index-node-count",
        "intenum-node-count", "index-node", "intenum-label",
    ],
)
def test_a_malformed_ci_is_refused(node_count, bundles):
    with pytest.raises(ValueError):
        CIGraph(node_count, bundles)


def test_from_links_refuses_a_node_out_of_range_or_a_repeated_link():
    with pytest.raises(ValueError):
        CIGraph.from_links(2, (Link(0, 2, 5),))
    with pytest.raises(ValueError):
        CIGraph.from_links(2, (Link(0, 1, 5), Link(0, 1, 5)))
    # nodes and labels that are only usable as ints
    for link in ((0, Index(1), 5), (Small.ZERO, 1, 5), (0, 1, Index(5))):
        with pytest.raises(ValueError):
            CIGraph.from_links(2, [link])


@pytest.mark.parametrize(
    "link", [(0,), (0, 1), (0, 1, 5, 9)], ids=["one", "two", "four"]
)
def test_from_links_refuses_a_link_that_is_not_three_fields(link):
    # one or two fields raised a bare IndexError, and a fourth was dropped
    with pytest.raises(ValueError):
        CIGraph.from_links(2, [link])


@st.composite
def small_even_graphs(draw):
    """Even graphs small enough to enumerate every decomposition of."""
    family = draw(st.sampled_from(["random_even", "theta", "doubled_cycle"]))
    if family == "random_even":
        n, cycles = draw(st.integers(2, 7)), draw(st.integers(1, 2))
        return random_even(n, cycles, seed=draw(st.integers(0, 10_000)))
    if family == "theta":
        lengths = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
        return build_family("theta", lengths=tuple(lengths * 2))
    return build_family("doubled_cycle", k=draw(st.integers(2, 5)))


@settings(max_examples=60, deadline=None)
@given(g=small_even_graphs(), data=st.data())
def test_the_caller_check_accepts_every_ci_the_library_builds(g, data):
    # the CIs that build_ci, restrict_ci and the optimizer make skip the
    # check a caller's bundles get; it must pass them all the same
    built = [build_ci(g, d) for d in enumerate_decompositions(g)]
    ci = data.draw(st.sampled_from(built))
    keep = data.draw(st.lists(st.integers(0, ci.node_count - 1), unique=True))
    built.append(restrict_ci(ci, keep))
    method = data.draw(st.sampled_from(["exhaustive", "local_search"]))
    built.append(optimize_decomposition(g, method, budget=20).best_ci)
    for ci in built:
        assert CIGraph(ci.node_count, dict(ci.bundles)) == ci
        assert type(ci.bundles.copy()) is dict


def test_a_built_cis_bundles_are_checked_when_handed_back(doubled_triangle):
    decos = enumerate_decompositions(doubled_triangle)
    ci = build_ci(doubled_triangle, next(d for d in decos if len(d.cycles) == 3))
    with pytest.raises(ValueError):
        CIGraph(1, ci.bundles)


@pytest.mark.parametrize(
    "copy_of", [lambda ci: pickle.loads(pickle.dumps(ci)), copy.deepcopy],
    ids=["pickle", "deepcopy"],
)
def test_copies_keep_the_bundles_and_links(copy_of):
    for ci in (built_ci(8, 4, 2), CIGraph(3, {(0, 1): (4, 7), (1, 2): (5,)})):
        assert not is_simple(ci)  # parallel bundles make the trip too
        links = ci.links  # cached on ci, rebuilt on the copy
        again = copy_of(ci)
        assert again == ci and hash(again) == hash(ci)
        assert dict(again.bundles) == dict(ci.bundles)
        assert again.links == links


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 9),
    cycles=st.integers(1, 6),
    seed=st.integers(0, 10_000),
    data=st.data(),
)
def test_restrict_ci_agrees_with_restricting_the_links(n, cycles, seed, data):
    ci = built_ci(n, cycles, seed)
    keep = data.draw(st.lists(st.integers(0, ci.node_count - 1), unique=True))
    index = {old: new for new, old in enumerate(sorted(keep))}
    links = tuple(
        Link(index[a], index[b], label)
        for a, b, label in ci.links
        if a in index and b in index
    )
    sub = restrict_ci(ci, keep)
    assert sub == CIGraph.from_links(len(keep), links)
    assert sub.links == links


# -- matching -----------------------------------------------------------------


def test_matching_examples():
    assert len(max_matching(path_ci(3))) == 2
    three_cycle = CIGraph.from_links(3, (Link(0, 1, 5), Link(0, 2, 6), Link(1, 2, 7)))
    assert len(max_matching(three_cycle)) == 1
    for n in (1, 3, 6):
        assert len(max_matching(star_ci(n))) == (1 if n else 0)


def test_matching_is_valid_and_lexicographic():
    m = max_matching(path_ci(2))
    assert [l.pair() for l in m] == [(0, 1)]
    used = set()
    for link in max_matching(path_ci(7)):
        assert not ({link.a, link.b} & used)
        used |= {link.a, link.b}
    # the path 2-0-1-3-4-5-6: keeping 0-1 frees 2 and 3, and only the
    # search from 3 finds the augmenting path 3-4-5-6
    pairs = [(0, 1), (0, 2), (1, 3), (3, 4), (4, 5), (5, 6)]
    ci = CIGraph.from_links(7, tuple(Link(a, b, i) for i, (a, b) in enumerate(pairs)))
    m = [l.pair() for l in max_matching(ci)]
    assert m == oracle_lex_first_matching(pairs) == [(0, 1), (3, 4), (5, 6)]


def test_matching_collapses_parallel_links():
    ci = CIGraph.from_links(2, (Link(0, 1, 4), Link(0, 1, 9)))
    m = max_matching(ci)
    assert len(m) == 1 and m[0].label == 4  # first link of the bundle


def test_matching_needs_blossoms():
    # two triangles joined by a bridge: augmenting through odd cycles
    pairs = [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)]
    links = tuple(Link(a, b, i) for i, (a, b) in enumerate(pairs))
    ci = CIGraph.from_links(6, links)
    m = [l.pair() for l in max_matching(ci)]
    assert len(m) == oracle_max_matching(pairs) == 3
    assert m == oracle_lex_first_matching(pairs)


@settings(max_examples=120, deadline=None)
@given(n=st.integers(1, 8), seed=st.integers(0, 100_000))
def test_matching_matches_exhaustive_oracle(n, seed):
    rng = random.Random(seed)
    pairs = [
        (a, b) for a, b in combinations(range(n), 2) if rng.random() < 0.45
    ]
    links = tuple(Link(a, b, 1000 + i) for i, (a, b) in enumerate(pairs))
    ci = CIGraph.from_links(n, links)
    m = [l.pair() for l in max_matching(ci)]
    assert len(m) == oracle_max_matching(pairs)
    assert m == oracle_lex_first_matching(pairs)


@st.composite
def ci_graphs(draw):
    """CI graphs on 0 to 6 nodes with parallel links, links in any order,
    isolated nodes and several components; labels are distinct."""
    n = draw(st.integers(0, 6))
    pairs = list(combinations(range(n), 2))
    drawn = draw(st.lists(st.sampled_from(pairs), max_size=12)) if pairs else []
    links = [Link(a, b, 100 + i) for i, (a, b) in enumerate(drawn)]
    return CIGraph.from_links(n, tuple(draw(st.permutations(links))))


def on_ci_graphs(test):
    """Run ``test`` on drawn CI graphs, always with 0 and 1 nodes too."""
    for n in (0, 1):
        test = example(ci=CIGraph.from_links(n, ()))(test)
    return settings(max_examples=150, deadline=None)(given(ci=ci_graphs())(test))


def _components(n, pairs):
    """Connected components of nodes 0..n-1 and ``pairs``, by search."""
    adj = {v: set() for v in range(n)}
    for a, b in pairs:
        adj[a].add(b)
        adj[b].add(a)
    seen, count = set(), 0
    for v in range(n):
        if v not in seen:
            count += 1
            stack = [v]
            while stack:
                x = stack.pop()
                if x not in seen:
                    seen.add(x)
                    stack.extend(adj[x])
    return count


@on_ci_graphs
def test_bundles_group_links_by_pair_in_link_order(ci):
    pairs = list(dict.fromkeys(l.pair() for l in ci.links))
    assert list(ci.bundles) == pairs
    for pair in pairs:
        assert ci.bundles[pair] == tuple(l.label for l in ci.links if l.pair() == pair)
    assert is_simple(ci) == (len(pairs) == len(ci.links))


@on_ci_graphs
def test_cycle_rank_is_links_minus_nodes_plus_components(ci):
    pairs = [l.pair() for l in ci.links]
    assert cycle_rank(ci) == len(pairs) - ci.node_count + _components(
        ci.node_count, pairs
    )


@on_ci_graphs
def test_warm_started_matching_is_the_lex_first_one(ci):
    pairs = [l.pair() for l in ci.links]
    m = max_matching(ci)
    assert [l.pair() for l in m] == oracle_lex_first_matching(pairs)
    # each pair is represented by its first link in link order
    assert all(l == ci.links[pairs.index(l.pair())] for l in m)


@on_ci_graphs
def test_cover_size_is_the_forest_cover_size(ci):
    pairs = {l.pair() for l in ci.links}
    size = oracle_min_forest_cover(ci.node_count, pairs)
    assert cover_size(ci) == sum(map(len, msf(ci))) == size


# -- forest cover -------------------------------------------------------------


def test_msf_examples():
    assert sum(map(len, msf(path_ci(3)))) == 2
    for n in range(1, 7):
        assert sum(map(len, msf(star_ci(n)))) == n
    lone = CIGraph.from_links(1, ())
    assert msf(lone) == ((), (0,))


def test_msf_cover_properties(doubled_triangle, theta_graph):
    for g in (doubled_triangle, theta_graph):
        for d in enumerate_decompositions(g):
            ci = build_ci(g, d)
            matching, isolated = msf(ci)
            touched = {v for l in matching for v in l.pair()}
            assert touched.isdisjoint(isolated)
            assert touched | set(isolated) == set(range(ci.node_count))
            assert _is_forest_pairs(ci.node_count, [l.pair() for l in matching])
            assert len(matching) + len(isolated) == ci.node_count - len(max_matching(ci))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(4, 8), cycles=st.integers(1, 3), seed=st.integers(0, 50_000))
def test_msf_matches_brute_force_on_real_ci_graphs(n, cycles, seed):
    g = random_even(n, cycles, seed=seed)
    ci = build_ci(g, decompose_greedy(g, seed=seed))
    if ci.node_count > 7:
        return
    pairs = {l.pair() for l in ci.links}
    assert sum(map(len, msf(ci))) == oracle_min_forest_cover(ci.node_count, pairs)


def test_tree_ci_labels_pairwise_distinct():
    for seed in range(25):
        g = cycle_tree(5, seed=seed, min_len=3, max_len=5)
        ci = build_ci(g, decompose_greedy(g))
        assert cycle_rank(ci) == 0
        labels = [l.label for l in ci.links]
        assert len(labels) == len(set(labels))


def test_ci_json(doubled_triangle):
    d = next(iter(enumerate_decompositions(doubled_triangle)))
    ci = build_ci(doubled_triangle, d)
    obj = ci.to_json_obj()
    assert obj["nodes"] == ci.node_count
    assert len(obj["links"]) == len(ci.links)


def test_family_ci_shapes():
    # chains give path CIs, flowers give star CIs
    g = build_family("triangle_chain", k=5)
    ci = build_ci(g, decompose_greedy(g))
    assert ci.node_count == 5 and len(ci.links) == 4 and cycle_rank(ci) == 0
    degs = [0] * ci.node_count
    for l in ci.links:
        degs[l.a] += 1
        degs[l.b] += 1
    assert sorted(degs) == [1, 1, 2, 2, 2]

    g = build_family("flower", petals=4, core=5)
    ci = build_ci(g, decompose_greedy(g))
    assert ci.node_count == 5 and len(ci.links) == 4
    degs = [0] * ci.node_count
    for l in ci.links:
        degs[l.a] += 1
        degs[l.b] += 1
    assert sorted(degs) == [1, 1, 1, 1, 4]

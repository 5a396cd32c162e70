import hashlib
import json
from itertools import combinations, islice

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import greedy_graphs, raw
from decycle.cigraph import CIGraph, Link, build_ci, cycle_rank, max_matching, msf
from decycle.decompose import (
    CycleDecomposition,
    decompose_greedy,
    enumerate_decompositions,
)
from decycle.decycling import (
    _ci_link_count,
    _strip_to_forest,
    analyze,
    analyze_components,
    decycle_general,
    decycle_tree_ci,
    exact_decycling_number,
    merge_reports,
    verify_decycling,
)
from decycle.errors import (
    DisconnectedError,
    InvalidDecompositionError,
    NotEvenError,
    OracleLimitError,
)
from decycle.families import build_family, cycle_tree, random_even
from decycle.multigraph import DecyclingSet, Multigraph
from decycle.optimize import optimize_decomposition
from oracles import oracle_acyclic, oracle_decycling, oracle_strip


def test_verify_decycling(triangle, doubled_triangle):
    assert verify_decycling(triangle, {0})
    assert verify_decycling(doubled_triangle, {0, 2})
    assert not verify_decycling(doubled_triangle, {1})
    with pytest.raises(ValueError, match="unknown vertex"):
        verify_decycling(triangle, {9})


@pytest.mark.parametrize(
    "s", [[0.7], ["1"], [False]], ids=["float", "str", "bool"]
)
def test_verify_decycling_rejects_non_integer_ids(s):
    # 0.7 and False are not vertex 0, whose deletion would decycle the cycle
    with pytest.raises(TypeError):
        verify_decycling(build_family("cycle", k=3), s)


@pytest.mark.parametrize(
    "entry",
    [
        analyze,
        analyze_components,
        optimize_decomposition,
        decompose_greedy,
        lambda g: next(enumerate_decompositions(g)),
    ],
    ids=["analyze", "analyze_components", "optimize_decomposition",
         "decompose_greedy", "enumerate_decompositions"],
)
def test_every_library_entry_gives_the_same_evenness_error(entry):
    path = Multigraph.from_edges(3, [(0, 1), (1, 2)])
    with pytest.raises(
        NotEvenError, match="^graph is not even: some vertex has odd degree$"
    ):
        entry(path)


def test_bound_edge_count(doubled_triangle):
    digons = next(
        d for d in enumerate_decompositions(doubled_triangle) if len(d.cycles) == 3
    )
    ci = build_ci(doubled_triangle, digons)
    assert analyze(doubled_triangle, digons).edge_count_bound == len(ci.links) == 3
    assert verify_decycling(doubled_triangle, {l.label for l in ci.links})


def test_decycle_tree_ci_values(c5):
    d = decompose_greedy(c5)
    s = decycle_tree_ci(c5, d, build_ci(c5, d))
    assert len(s) == 1 and s.certified

    chain = build_family("triangle_chain", k=4)
    d = decompose_greedy(chain)
    s = decycle_tree_ci(chain, d, build_ci(chain, d))
    assert len(s) == 2
    assert oracle_acyclic(*raw(chain.delete_vertices(s.vertices)))

    fl = build_family("flower", petals=3, core=4)
    d = decompose_greedy(fl)
    s = decycle_tree_ci(fl, d, build_ci(fl, d))
    assert len(s) == 3


def test_decycle_tree_ci_rejects_cyclic_ci(doubled_triangle):
    d = decompose_greedy(doubled_triangle)
    ci = build_ci(doubled_triangle, d)
    assert cycle_rank(ci) != 0
    with pytest.raises(InvalidDecompositionError, match="use decycle_general"):
        decycle_tree_ci(doubled_triangle, d, ci)


def test_decycle_tree_ci_rejects_invalid_decomposition(theta_graph):
    # the empty decomposition has a forest CI but covers no edge
    with pytest.raises(InvalidDecompositionError, match="not covered"):
        decycle_tree_ci(theta_graph, CycleDecomposition(()), CIGraph.from_links(0, ()))


def test_decycle_general_doubled_triangle(doubled_triangle):
    for d in enumerate_decompositions(doubled_triangle):
        ci = build_ci(doubled_triangle, d)
        s = decycle_general(doubled_triangle, d, ci)
        assert len(s) == 2 and s.certified
        assert oracle_acyclic(*raw(doubled_triangle.delete_vertices(s.vertices)))


def test_decycle_general_theta(theta_graph):
    for d in enumerate_decompositions(theta_graph):
        ci = build_ci(theta_graph, d)
        s = decycle_general(theta_graph, d, ci)
        assert len(s) == 1 and s.certified


@pytest.mark.parametrize("construct", [decycle_general, decycle_tree_ci])
@pytest.mark.parametrize("nodes", [2, 4])
def test_construction_rejects_a_ci_of_another_decomposition(
    theta_graph, construct, nodes
):
    # neither is d's CI; unchecked, the first gave a set that failed
    # certification (an InvariantError) and the second an IndexError
    d = decompose_greedy(theta_graph)
    assert len(d.cycles) == 2
    with pytest.raises(InvalidDecompositionError, match="not the CI graph"):
        construct(theta_graph, d, CIGraph.from_links(nodes))


def test_decycle_general_equals_tree_on_forest_ci():
    for seed in range(10):
        g = cycle_tree(4, seed=seed)
        d = decompose_greedy(g)
        ci = build_ci(g, d)
        assert decycle_general(g, d, ci) == decycle_tree_ci(g, d, ci)


def test_exact_on_forest():
    tree = Multigraph.from_edges(4, [(0, 1), (1, 2), (1, 3)])
    value, witness = exact_decycling_number(tree)
    assert value == 0 and witness.vertices == frozenset() and witness.certified


def test_exact_values(doubled_triangle, theta_graph):
    assert exact_decycling_number(doubled_triangle)[0] == 2
    value, witness = exact_decycling_number(theta_graph)
    assert value == 1 and witness.vertices <= {0, 1}


def test_exact_limit_refusal():
    g = build_family("cycle", k=25)
    with pytest.raises(OracleLimitError, match="limit of 20"):
        exact_decycling_number(g)
    value, _ = exact_decycling_number(g, limit=25)
    assert value == 1


@settings(max_examples=40, deadline=None)
@given(n=st.integers(4, 7), cycles=st.integers(1, 3), seed=st.integers(0, 50_000))
def test_exact_matches_independent_oracle(n, cycles, seed):
    g = random_even(n, cycles, seed=seed)
    value, witness = exact_decycling_number(g)
    oracle_value, oracle_witness = oracle_decycling(*raw(g))
    assert value == oracle_value
    # both scan the sorted vertices by size, then lexicographically
    assert witness.vertices == frozenset(oracle_witness)
    assert oracle_acyclic(*raw(g.delete_vertices(witness.vertices)))


@st.composite
def multigraphs(draw):
    """Up to 10 vertices with parallel edges, odd degrees and isolated
    vertices; deleting some leaves ids that are not 0..n-1."""
    n = draw(st.integers(0, 10))
    pairs = []
    if n >= 2:
        for u, step, times in draw(
            st.lists(
                st.tuples(
                    st.integers(0, n - 1), st.integers(1, n - 1), st.integers(1, 3)
                ),
                max_size=20,
            )
        ):
            pairs += [(u, (u + step) % n)] * times
    g = Multigraph.from_edges(n, pairs)
    return g.delete_vertices(draw(st.sets(st.sampled_from(range(n))))) if n else g


@settings(max_examples=200, deadline=None)
@given(g=multigraphs())
def test_exact_matches_independent_oracle_on_multigraphs(g):
    value, witness = exact_decycling_number(g)
    oracle_value, oracle_witness = oracle_decycling(*raw(g))
    assert (value, witness.vertices) == (oracle_value, frozenset(oracle_witness))
    assert witness.certified


def test_exact_pinned_cases():
    # the witness an unpruned scan of every subset returns, in about 5 s
    value, witness = exact_decycling_number(random_even(20, 8, seed=0))
    assert (value, witness.vertices) == (10, {0, 1, 4, 8, 9, 10, 12, 13, 15, 19})
    assert exact_decycling_number(Multigraph([], [])) == (
        0,
        DecyclingSet(frozenset(), certified=True),
    )
    assert exact_decycling_number(build_family("doubled_cycle", k=2))[0] == 1


# -- analyze -------------------------------------------------------------------


def test_analyze_c5(c5):
    rep = analyze(c5)
    assert rep.edge_count_bound is None
    assert rep.tree_exact == 1 and rep.general_bound == 1 and rep.exact == 1
    assert rep.ci_nodes == 1 and rep.ci_links == 0 and rep.ci_rank == 0


def test_analyze_doubled_triangle_pinned_digons(doubled_triangle):
    digons = next(
        d for d in enumerate_decompositions(doubled_triangle) if len(d.cycles) == 3
    )
    rep = analyze(doubled_triangle, digons)
    assert rep.edge_count_bound == 3
    assert rep.tree_exact is None
    assert rep.general_bound == 2 and rep.exact == 2
    assert rep.ci_simple and rep.ci_rank == 1
    assert rep.rank_cover_gap == 1 - 2  # the naive estimate goes negative


def test_analyze_chain(doubled_triangle):
    chain = build_family("triangle_chain", k=4)
    rep = analyze(chain)
    assert rep.edge_count_bound == 3
    assert rep.tree_exact == 2 and rep.general_bound == 2 and rep.exact == 2


def test_analyze_witnesses_are_certified(theta_graph):
    rep = analyze(theta_graph)
    for name, witness in rep.witness_sets.items():
        assert witness.certified, name
        assert oracle_acyclic(*raw(theta_graph.delete_vertices(witness.vertices)))


def test_analyze_rejects_bad_input(theta_graph):
    path = Multigraph.from_edges(3, [(0, 1), (1, 2)])
    with pytest.raises(NotEvenError):
        analyze(path)
    two = Multigraph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    with pytest.raises(DisconnectedError):
        analyze(two)
    with pytest.raises(InvalidDecompositionError):
        analyze(theta_graph, CycleDecomposition(()))


def test_analyze_components_and_merge():
    two = Multigraph.from_edges(8, [(0, 1), (1, 2), (0, 2),
                                    (3, 4), (4, 5), (5, 6), (6, 7), (3, 7)])
    reports = analyze_components(two)
    assert len(reports) == 2
    total = merge_reports(reports)
    assert total.exact == 2 and total.general_bound == 2 and total.tree_exact == 2
    assert total.edge_count_bound is None  # lone cycles have no linked CI
    assert total.witness_sets["exact"].certified
    assert len(total.witness_sets["general"].vertices) == 2


def test_analyze_components_splits_a_given_decomposition():
    # three graphs with interleaved vertex and edge ids, their greedy
    # decompositions listed last part first
    graphs = [
        build_family("theta", lengths=(1, 2, 2, 2)),
        build_family("doubled_cycle", k=3),
        random_even(7, 3, seed=0),
    ]
    vertices, edges = [], []
    for t, h in enumerate(graphs):
        vertices += [3 * v + t for v in h.vertices]
        edges += [(3 * e + t, (3 * u + t, 3 * v + t)) for e, u, v in h.edges()]
    g = Multigraph(vertices, edges)
    greedy = analyze_components(g, seed=4)
    d = CycleDecomposition(
        tuple(c for r in reversed(greedy) for c in r.decomposition.cycles)
    )
    assert len(greedy) == 3
    assert analyze_components(g, d, seed=4) == greedy


@settings(max_examples=40, deadline=None)
@given(
    parts=st.lists(
        st.tuples(st.integers(3, 7), st.integers(1, 3), st.integers(0, 50_000)),
        min_size=2,
        max_size=3,
    ),
    oracle_limit=st.integers(3, 20),
)
def test_merged_bounds_are_the_componentwise_sums(parts, oracle_limit):
    # a disjoint union of small even graphs; a low oracle limit leaves
    # the exact value to some parts only
    vertices, edges = [], []
    for n, cycles, seed in parts:
        h = random_even(n, cycles, seed=seed)
        base, ebase = len(vertices), len(edges)
        assert h.vertices == tuple(range(h.n_vertices))
        vertices += [base + v for v in h.vertices]
        edges += [(ebase + e, (base + u, base + v)) for e, u, v in h.edges()]
    reports = analyze_components(Multigraph(vertices, edges), oracle_limit=oracle_limit)
    total = merge_reports(reports)
    for name in ("edge_count_bound", "tree_exact", "general_bound", "exact"):
        values = [getattr(r, name) for r in reports]
        assert getattr(total, name) == (None if None in values else sum(values))
    for rep in reports + [total]:
        if "edge_count" in rep.witness_sets:
            assert rep.edge_count_bound == rep.ci_links
        else:
            assert rep.edge_count_bound is None


@pytest.mark.parametrize("vertices", [[], [0]])
def test_analyze_components_of_edgeless_graph(vertices):
    # the vertexless graph has no component, yet is analysed as one part
    g = Multigraph(vertices, [])
    (report,) = analyze_components(g)
    assert report == analyze(g)
    assert report.decomposition == CycleDecomposition(())
    assert report.rank_cover_gap == 0 and report.general_bound == 0

def test_closed_forms_up_to_eight():
    # path-CI chains: ceil((n+1)/2); star-CI flowers: n; up to n = 8
    for n in range(1, 9):
        chain = build_family("triangle_chain", k=n + 1)
        rep = analyze(chain)
        want = (n + 2) // 2
        assert rep.tree_exact == rep.general_bound == want
        if rep.exact is not None:
            assert rep.exact == want
        fl = build_family("flower", petals=n, core=max(3, n))
        rep = analyze(fl)
        assert rep.tree_exact == rep.general_bound == n
        if rep.exact is not None:
            assert rep.exact == n


def test_tree_case_equalities():
    # whenever the CI graph is a forest, the general bound, the tree
    # value, the cover size, and the oracle all coincide
    for seed in range(15):
        g = cycle_tree(4, seed=seed, min_len=3, max_len=4)
        rep = analyze(g)
        assert rep.tree_exact is not None
        assert rep.tree_exact == rep.general_bound == rep.exact
        assert len(rep.witness_sets["tree"]) == rep.tree_exact


def test_minimum_sets_cover_tree_ci():
    # any minimum decycling set of a tree-CI instance induces an acyclic
    # cover of all CI nodes: links whose labels were picked, plus one
    # isolated node per cycle that was hit on a private vertex
    for seed in range(10):
        g = cycle_tree(4, seed=seed, min_len=3, max_len=4)
        d = decompose_greedy(g)
        ci = build_ci(g, d)
        value, witness = exact_decycling_number(g)
        picked = witness.vertices
        links = [l for l in ci.links if l.label in picked]
        covered = {v for l in links for v in l.pair()}
        on_cycles = lambda v: [
            i for i, c in enumerate(d.cycles) if v in c.vertices
        ]
        isolated = set()
        for node, cyc in enumerate(d.cycles):
            hits = picked & set(cyc.vertices)
            assert hits, "a decycling set must hit every cycle"
            if node not in covered:
                assert any(len(on_cycles(v)) == 1 for v in hits)
                isolated.add(node)
        # the structure is a forest cover, so it is at least msf-sized,
        # and it cannot exceed the set that induced it
        assert sum(map(len, msf(ci))) <= len(links) + len(isolated) <= value
        assert sum(map(len, msf(ci))) == value


@settings(max_examples=40, deadline=None)
@given(n=st.integers(4, 8), cycles=st.integers(1, 3), seed=st.integers(0, 50_000))
def test_bounds_sound_on_random_even_graphs(n, cycles, seed):
    g = random_even(n, cycles, seed=seed)
    rep = analyze(g, seed=seed)
    assert rep.exact is not None
    assert rep.exact <= rep.general_bound
    if rep.edge_count_bound is not None:
        assert rep.exact <= rep.edge_count_bound
    if rep.tree_exact is not None:
        assert rep.tree_exact == rep.exact
    for witness in rep.witness_sets.values():
        assert oracle_acyclic(*raw(g.delete_vertices(witness.vertices)))


def _reference_report(g, seed, oracle_limit):
    """The bounds, witnesses and rank/cover gap of ``analyze``, rebuilt by
    running every route separately through the public functions."""
    d = decompose_greedy(g, seed)
    ci = build_ci(g, d)
    rank, cover = cycle_rank(ci), sum(map(len, msf(ci)))
    bounds = {"edge_count": None, "tree_exact": None, "general": None, "exact": None}
    witnesses = {}
    if {v for l in ci.links for v in l.pair()} == set(range(ci.node_count)):
        bounds["edge_count"] = len(ci.links)
        witnesses["edge_count"] = sorted({l.label for l in ci.links})
    if rank == 0:
        bounds["tree_exact"] = cover
        witnesses["tree"] = decycle_tree_ci(g, d, ci).sorted_vertices()
    general = decycle_general(g, d, ci)
    bounds["general"] = len(general)
    witnesses["general"] = general.sorted_vertices()
    if g.n_vertices <= oracle_limit:
        bounds["exact"], exact = exact_decycling_number(g, oracle_limit)
        witnesses["exact"] = exact.sorted_vertices()
    return bounds, witnesses, rank - cover


@settings(max_examples=40, deadline=None)
@given(
    family=st.sampled_from(["random_even", "cycle_tree"]),
    size=st.integers(3, 9),
    seed=st.integers(0, 50_000),
)
def test_analyze_matches_separate_routes(family, size, seed):
    if family == "random_even":
        g = random_even(size, 3, seed=seed)
    else:
        g = cycle_tree(size, seed=seed)
    limit = 12
    obj = analyze(g, seed=seed, oracle_limit=limit).to_json_obj()
    bounds, witnesses, gap = _reference_report(g, seed, limit)
    assert obj["bounds"] == bounds
    assert obj["witnesses"] == witnesses
    assert obj["rank_cover_gap"] == gap


@settings(max_examples=60, deadline=None)
@given(n=st.integers(4, 12), cycles=st.integers(2, 6), seed=st.integers(0, 50_000))
def test_strip_ignores_the_bundle_order(n, cycles, seed):
    # the build lists pairs by their smallest shared vertex, the
    # constructor in link order; the strip gives the same labels for both
    g = random_even(n, cycles, seed=seed)
    built = build_ci(g, decompose_greedy(g, seed))
    in_link_order = CIGraph.from_links(built.node_count, built.links)
    assert list(in_link_order.bundles) == sorted(built.bundles)
    assert _strip_to_forest(built) == _strip_to_forest(in_link_order)


@st.composite
def strip_cis(draw):
    """CI graphs on 0 to 7 nodes whose labels come from a pool of six,
    so bundles run parallel and one label sits on many pairs."""
    n = draw(st.integers(0, 7))
    pairs = list(combinations(range(n), 2))
    if not pairs:
        return CIGraph.from_links(n)
    links = draw(
        st.lists(
            st.tuples(st.sampled_from(pairs), st.integers(0, 5)),
            max_size=30,
            unique=True,
        )
    )
    return CIGraph.from_links(n, [Link(a, b, label) for (a, b), label in links])


@settings(max_examples=200, deadline=None)
@given(ci=strip_cis())
def test_strip_matches_the_oracle_on_parallel_cis(ci):
    assert _strip_to_forest(ci) == oracle_strip(ci)


@settings(max_examples=100, deadline=None)
@given(g=greedy_graphs(), seed=st.integers(0, 10_000))
def test_strip_matches_the_oracle_on_greedy_cis(g, seed):
    ci = build_ci(g, decompose_greedy(g, seed))
    assert _strip_to_forest(ci) == oracle_strip(ci)


@settings(max_examples=100, deadline=None)
@given(g=greedy_graphs(), seed=st.integers(0, 10_000), pick=st.integers(0, 20))
@example(g=Multigraph([], []), seed=0, pick=0)
@example(g=Multigraph([0], []), seed=0, pick=0)
@example(g=build_family("cycle", k=3), seed=0, pick=0)
@example(g=build_family("doubled_cycle", k=2), seed=0, pick=0)
def test_ci_counts_follow_from_the_degrees(g, seed, pick):
    # every decomposition puts v on deg(v)/2 cycles, so the links, the
    # rank of a connected graph's CI and the link labels do not depend
    # on which decomposition is taken
    d = next(
        islice(enumerate_decompositions(g), pick, None), decompose_greedy(g, seed)
    )
    ci = build_ci(g, d)
    report = analyze(g, d, oracle_limit=0)
    assert report.ci_links == _ci_link_count(g) == len(ci.links)
    assert report.ci_rank == cycle_rank(ci)
    linked = {v for link in ci.links for v in link.pair()}
    has_witness = "edge_count" in report.witness_sets
    assert has_witness == (linked == set(range(len(d)))) == (len(d) != 1)
    if has_witness:
        labels = {link.label for link in ci.links}
        assert report.witness_sets["edge_count"].vertices == labels
        assert labels == {v for v in g.vertices if g.degree(v) >= 4}


@pytest.mark.parametrize(
    "limit, message",
    [
        (-1, "at least 0, not -1"),
        (-20, "at least 0, not -20"),
        # True ran as a limit of 1, and 2.5 and 3.0 as numbers
        (True, "an integer, not True"),
        (2.5, "an integer, not 2.5"),
        (3.0, "an integer, not 3.0"),
    ],
    ids=["-1", "-20", "True", "2.5", "3.0"],
)
def test_a_negative_oracle_limit_is_refused(limit, message):
    g = build_family("cycle", k=3)
    for call in (analyze, analyze_components):
        with pytest.raises(ValueError, match=message):
            call(g, oracle_limit=limit)
    with pytest.raises(ValueError, match=message):
        exact_decycling_number(g, limit)
    # a limit of 0 still leaves the exact value out
    assert analyze(g, oracle_limit=0).exact is None


def test_analyze_never_derives_the_links(monkeypatch):
    # every bound reads the bundles; only output and tests need the
    # sorted links, and a dense CI has over a thousand of them
    derived = []
    links = CIGraph.links

    def counted(ci):
        derived.append(ci)
        return links.func(ci)

    monkeypatch.setattr(CIGraph, "links", property(counted))
    g = random_even(40, 16, seed=3)
    report = analyze(g, seed=3)
    assert derived == [] and report.ci_links > 1000
    assert len(build_ci(g, report.decomposition).links) == report.ci_links
    assert len(derived) == 1


# sha256 over the JSON of every report of ``analyze_sweep`` and the
# maximum matching of its CI. The dense graphs have CIs of over a
# thousand links, many parallel, which no golden file reaches; the
# forests and the small graphs take the tree and oracle routes.
ANALYZE_SWEEP_DIGEST = (
    "2177d19ef6cb3b56db99e38d65ce57ce0e3d0912d089dbfd5bacdcf14537df4b"
)


def analyze_sweep():
    for seed in range(8):
        yield random_even(40, 16, seed=seed), seed
    for seed in range(5):
        yield cycle_tree(100, seed=seed), seed
    for seed in range(12):
        yield random_even(12, 5, seed=seed), seed


def test_analyze_output_is_pinned():
    runs = [(g, analyze(g, seed=seed)) for g, seed in analyze_sweep()]
    # one disconnected graph: three parts with interleaved vertex and
    # edge ids, analysed per component
    parts = [random_even(12, 5, seed=9), cycle_tree(8, seed=1),
             build_family("doubled_cycle", k=3)]
    vertices, edges = [], []
    for t, part in enumerate(parts):
        vertices += [3 * v + t for v in part.vertices]
        edges += [(3 * e + t, (3 * u + t, 3 * v + t)) for e, u, v in part.edges()]
    g = Multigraph(vertices, edges)
    runs += zip(g.components(), analyze_components(g, seed=2))
    h = hashlib.sha256()
    for g, rep in runs:
        matching = max_matching(build_ci(g, rep.decomposition))
        h.update(json.dumps(rep.to_json_obj()).encode())
        h.update(json.dumps([[l.a, l.b, l.label] for l in matching]).encode())
    assert len(runs) == 28
    assert h.hexdigest() == ANALYZE_SWEEP_DIGEST

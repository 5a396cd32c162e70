import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import Index, Small, raw, refuse_graph_build
from decycle.errors import ParseError
from decycle.families import random_even
from decycle.multigraph import (
    MAX_HEADER_VERTICES,
    Multigraph,
    is_acyclic,
    is_connected,
    is_even,
    parse_edge_list,
    to_dot,
    to_edge_list,
)
from oracles import oracle_acyclic

TRIANGLE_TEXT = "3 3\n0 1\n1 2\n0 2\n"
DOUBLED_TRIANGLE_TEXT = "3 6\n0 1\n0 1\n1 2\n1 2\n0 2\n0 2\n"


def test_parse_triangle():
    g = parse_edge_list(TRIANGLE_TEXT)
    assert g.n_vertices == 3 and g.n_edges == 3
    assert g.endpoints(0) == (0, 1)
    assert [g.degree(v) for v in g.vertices] == [2, 2, 2]


def test_parse_doubled_triangle():
    g = parse_edge_list(DOUBLED_TRIANGLE_TEXT)
    assert g.n_vertices == 3 and g.n_edges == 6
    assert all(g.degree(v) == 4 for v in g.vertices)
    assert is_even(g)


def test_parse_accepts_bytes_and_comments():
    g = parse_edge_list(b"# a triangle\n3 3\n0 1\n# middle\n1 2\n0 2\n")
    assert g.n_edges == 3


def test_parse_self_loop_names_line():
    with pytest.raises(ParseError, match="line 3") as exc:
        parse_edge_list("2 1\n0 1\n0 0\n")
    assert "self-loop" in str(exc.value)


def test_parse_out_of_range_endpoint():
    with pytest.raises(ParseError, match="line 2"):
        parse_edge_list("2 1\n0 5\n")


def test_parse_malformed_line():
    with pytest.raises(ParseError, match="line 2"):
        parse_edge_list("2 1\n0 one\n")


def test_parse_edge_count_mismatch():
    with pytest.raises(ParseError, match="declares 3"):
        parse_edge_list("3 3\n0 1\n1 2\n")


def test_parse_header_vertex_limit(monkeypatch):
    g = parse_edge_list("5 0\n")
    assert g.vertices == (0, 1, 2, 3, 4) and g.n_edges == 0
    refuse_graph_build(monkeypatch)
    for n in (MAX_HEADER_VERTICES + 1, 10**12):
        with pytest.raises(ParseError, match=f"line 1: header declares {n} vertices"):
            parse_edge_list(f"{n} 0\n")


@pytest.mark.parametrize(
    "text, message",
    [
        ("3\n", "line 1: expected header 'n m'"),
        ("# c\n3 x\n", "line 2: expected header 'n m'"),
        ("-1 0\n", "line 1: negative count in header"),
        ("3 -2\n", "line 1: negative count in header"),
        ("3 3 3\n", "line 1: expected header 'n m'"),
        ("3 1\n0 1 2\n", "line 2: expected edge 'u v'"),
        ("3 1\n0\n", "line 2: expected edge 'u v'"),
    ],
)
def test_parse_rejects_bad_header_and_edge_lines(text, message):
    with pytest.raises(ParseError, match=f"^{message}$"):
        parse_edge_list(text)


def test_parse_empty_input():
    with pytest.raises(ParseError):
        parse_edge_list("# nothing here\n")


def test_constructor_rejects_self_loop_and_bad_vertex():
    with pytest.raises(ValueError, match="self-loop"):
        Multigraph.from_edges(2, [(0, 0)])
    with pytest.raises(ValueError, match="unknown vertex"):
        Multigraph.from_edges(2, [(0, 5)])


def test_constructor_rejects_duplicate_edge_id():
    with pytest.raises(ValueError, match="^duplicate edge id 0$"):
        Multigraph(range(3), [(0, (0, 1)), (0, (1, 2))])


@pytest.mark.parametrize(
    "vertices, edges",
    [
        ([0, 1.9], {}),
        (["2"], {}),
        ([0, 1], {0.0: (0, 1)}),
        ([0, 1], {0: (0, 1.9)}),
        ([1, 2], [(0, ("1", 2))]),
        ([True, 0], {}),
        ([0, 1], {False: (0, 1)}),
        ([0, 1], {0: (True, 0), 1: (0, 1)}),
        ([Index(0), 1], {}),
        ([0, 1], {Index(0): (0, 1)}),
        ([0, 1], {0: (0, Index(1))}),
        ([Small.ONE, 0], {}),
        ([0, 1], {Small.ZERO: (0, 1)}),
        ([0, 1], {0: (Small.ZERO, 1)}),
    ],
    ids=["float_vertex", "str_vertex", "float_edge_id", "float_end", "str_end",
         "bool_vertex", "bool_edge_id", "bool_end", "index_vertex",
         "index_edge_id", "index_end", "intenum_vertex", "intenum_edge_id",
         "intenum_end"],
)
def test_constructor_rejects_non_integer_ids(vertices, edges):
    # 1.9 is not vertex 1, "2" is not vertex 2, and True is not vertex 1;
    # an id that is only usable as an int is not one either
    with pytest.raises(TypeError):
        Multigraph(vertices, edges)


def test_unknown_vertex_and_edge_ids_are_refused(triangle):
    with pytest.raises(ValueError, match="^unknown vertex id 7$"):
        triangle.degree(7)
    with pytest.raises(ValueError, match="^unknown edge id 5$"):
        triangle.restricted_to_edges([0, 5])


def test_is_even(doubled_triangle, theta_graph):
    assert is_even(doubled_triangle)
    assert is_even(theta_graph)
    path = Multigraph.from_edges(2, [(0, 1)])
    assert not is_even(path)


def test_is_connected(triangle, theta_graph):
    assert is_connected(triangle)
    assert is_connected(theta_graph)
    assert is_connected(Multigraph([], []))  # empty graph, by convention
    two = Multigraph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert not is_connected(two)


def test_is_acyclic(doubled_triangle):
    tree = Multigraph.from_edges(4, [(0, 1), (1, 2), (1, 3)])
    assert is_acyclic(tree)
    digon = Multigraph.from_edges(2, [(0, 1), (0, 1)])
    assert not is_acyclic(digon)
    assert is_acyclic(doubled_triangle.delete_vertices({0, 1}))
    assert is_acyclic(doubled_triangle, {0, 1})
    assert not is_acyclic(doubled_triangle, {2})


def test_delete_vertices_identity_and_examples(triangle, doubled_triangle):
    assert triangle.delete_vertices(()) == triangle
    left = doubled_triangle.delete_vertices({1, 0})
    assert left.vertices == (2,) and left.n_edges == 0
    assert is_acyclic(left)
    rest = triangle.delete_vertices({0})
    assert rest.n_edges == 1 and rest.endpoints(1) == (1, 2)


def test_delete_vertices_unknown_vertex(triangle):
    with pytest.raises(ValueError, match="unknown vertex"):
        triangle.delete_vertices({7})


@pytest.mark.parametrize(
    "remove",
    [[2.2], ["1"], [True], [Index(1)], [Small.ONE]],
    ids=["float", "str", "bool", "index", "intenum"],
)
def test_delete_vertices_rejects_non_integer_ids(triangle, remove):
    with pytest.raises(TypeError):
        triangle.delete_vertices(remove)


def test_edge_ids_stable_under_deletion(doubled_triangle):
    g = doubled_triangle.delete_vertices({2})
    assert set(g.edge_ids) == {0, 1}
    assert g.endpoints(0) == (0, 1) and g.endpoints(1) == (0, 1)


def test_components_preserve_ids():
    g = Multigraph.from_edges(7, [(0, 1), (1, 2), (0, 2), (4, 5), (5, 6), (4, 6)])
    parts = g.components()
    assert [p.vertices for p in parts] == [(0, 1, 2), (3,), (4, 5, 6)]
    assert set(parts[2].edge_ids) == {3, 4, 5}
    # ids interleaved across four components: the parts partition both
    # the vertex set and the edge-id set
    g = Multigraph([9, 1, 5, 7, 3, 8, 2], {
        10: (9, 1), 4: (5, 3), 11: (1, 9), 2: (3, 5), 6: (8, 2), 0: (2, 8),
    })
    parts = g.components()
    assert [p.vertices for p in parts] == [(1, 9), (2, 8), (3, 5), (7,)]
    assert [set(p.edge_ids) for p in parts] == [{10, 11}, {0, 6}, {2, 4}, set()]
    assert sorted(v for p in parts for v in p.vertices) == list(g.vertices)
    assert sorted(e for p in parts for e in p.edge_ids) == sorted(g.edge_ids)
    assert all(p.endpoints(e) == g.endpoints(e) for p in parts for e in p.edge_ids)
    assert not is_connected(g) and is_connected(parts[0])


def test_restricted_to_edges(doubled_triangle):
    sub = doubled_triangle.restricted_to_edges([0, 1])
    assert sub.vertices == (0, 1) and sub.n_edges == 2


def test_serialize_round_trip(doubled_triangle):
    again = parse_edge_list(to_edge_list(doubled_triangle))
    assert again == doubled_triangle


def test_json_and_dot(triangle):
    dot = to_dot(triangle)
    assert dot.startswith("graph G {") and "0 -- 1" in dot


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(4, 9),
    cycles=st.integers(1, 3),
    seed=st.integers(0, 10_000),
    drop=st.sets(st.integers(0, 8), max_size=4),
)
def test_degree_sum_is_twice_edges(n, cycles, seed, drop):
    g = random_even(n, cycles, seed=seed)
    assert sum(g.degree(v) for v in g.vertices) == 2 * g.n_edges
    h = g.delete_vertices({v for v in drop if v < n})
    assert sum(h.degree(v) for v in h.vertices) == 2 * h.n_edges


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(4, 9),
    cycles=st.integers(1, 3),
    seed=st.integers(0, 10_000),
    drop=st.sets(st.integers(0, 8), max_size=4),
)
def test_is_acyclic_with_deleted_matches_leaf_peeling(n, cycles, seed, drop):
    g = random_even(n, cycles, seed=seed)
    drop = {v for v in drop if v < n}
    assert is_acyclic(g, drop) == oracle_acyclic(*raw(g.delete_vertices(drop)))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 9), cycles=st.integers(1, 3), seed=st.integers(0, 10_000))
def test_parse_serialize_identity(n, cycles, seed):
    g = random_even(n, cycles, seed=seed)
    assert parse_edge_list(to_edge_list(g)) == g

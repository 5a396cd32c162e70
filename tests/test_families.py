import csv

import pytest

from conftest import refuse_graph_build
from decycle.cigraph import build_ci, cycle_rank
from decycle.decompose import decompose_greedy
from decycle.errors import DomainError, ParseError
from decycle import families
from decycle.bench import run_bench
from decycle.families import (
    build_family,
    cycle,
    cycle_tree,
    doubled_cycle,
    flower,
    random_even,
    theta,
    triangle_chain,
)
from decycle.multigraph import is_connected, is_even


@pytest.mark.parametrize(
    "g",
    [
        cycle(2),
        cycle(7),
        doubled_cycle(3),
        doubled_cycle(5),
        theta((1, 2, 2, 2)),
        theta((2, 2)),
        triangle_chain(1),
        triangle_chain(6),
        flower(0, 3),
        flower(4, 5),
        random_even(8, 3, seed=4),
        cycle_tree(5, seed=2),
    ],
)
def test_families_are_even_and_connected(g):
    assert is_even(g)
    assert is_connected(g)


def test_cycle_counts():
    g = cycle(5)
    assert g.n_vertices == 5 and g.n_edges == 5
    d = doubled_cycle(3)
    assert d.n_vertices == 3 and d.n_edges == 6
    assert all(d.degree(v) == 4 for v in d.vertices)


def test_theta_structure():
    g = theta((1, 2, 2, 2))
    assert g.n_vertices == 5 and g.n_edges == 7
    assert g.degree(0) == 4 and g.degree(1) == 4
    assert sorted(g.degree(v) for v in g.vertices) == [2, 2, 2, 4, 4]
    assert theta((1, 1)).n_edges == 2  # a digon


def test_triangle_chain_counts():
    g = triangle_chain(4)
    assert g.n_vertices == 9 and g.n_edges == 12


def test_flower_counts():
    g = flower(3, 4)
    assert g.n_vertices == 4 + 6 and g.n_edges == 4 + 9


def test_cycle_tree_is_tree_ci():
    for seed in range(10):
        g = cycle_tree(5, seed=seed, min_len=3, max_len=4)
        ci = build_ci(g, decompose_greedy(g))
        assert ci.node_count == 5
        assert cycle_rank(ci) == 0
        assert len(ci.links) == 4  # a tree on five nodes


def test_random_even_deterministic():
    a = random_even(7, 3, seed=42)
    b = random_even(7, 3, seed=42)
    assert a == b


def test_family_validation_errors():
    with pytest.raises(DomainError):
        cycle(1)
    with pytest.raises(DomainError):
        theta((1, 2, 2))  # odd path count leaves hubs odd
    with pytest.raises(DomainError):
        theta((0, 2))
    with pytest.raises(DomainError):
        flower(5, 4)
    with pytest.raises(DomainError):
        cycle_tree(0)
    with pytest.raises(DomainError):
        build_family("nonesuch")
    with pytest.raises(DomainError):
        build_family("cycle", wrong=3)


@pytest.mark.parametrize(
    "family, params, message",
    [
        ("doubled_cycle", {"k": 1}, "doubled_cycle needs k >= 2"),
        ("triangle_chain", {"k": 0}, "triangle_chain needs k >= 1"),
        ("flower", {"petals": 0, "core": 2}, "flower needs core >= 3"),
        ("random_even", {"n": 1, "cycles": 1}, "random_even needs n >= 2"),
        ("random_even", {"n": 4, "cycles": 0}, "random_even needs cycles >= 1"),
        ("cycle_tree", {"nodes": 2, "min_len": 2}, "cycle_tree needs 3 <= min_len"),
        ("cycle_tree", {"nodes": 2, "min_len": 4, "max_len": 3}, "cycle_tree needs 3"),
        # a parameter that is not an exact int, refused before the generator
        # runs, which would take a seed of True as 1
        (
            "random_even",
            {"n": 7, "cycles": 3, "seed": True},
            "bad parameters for family 'random_even': seed must be an integer",
        ),
        (
            "random_even",
            {"n": 7, "cycles": 3.0},
            "bad parameters for family 'random_even': cycles must be an integer",
        ),
        (
            "theta",
            {"lengths": (1, 2, 2, False)},
            "bad parameters for family 'theta': lengths must be a list of integers",
        ),
        (
            "theta",
            {"lengths": 4},
            "bad parameters for family 'theta': lengths must be a list of integers",
        ),
    ],
)
def test_family_guards_refuse_out_of_domain_params(family, params, message):
    with pytest.raises(DomainError, match=f"^{message}"):
        build_family(family, **params)


def test_random_even_gives_up_after_max_tries(monkeypatch):
    monkeypatch.setattr(families, "MAX_TRIES", 0)
    with pytest.raises(DomainError, match="in 0 tries$"):
        random_even(4, 2, seed=1)


def test_build_family_builds_and_bench_labels(tmp_path):
    params = {"petals": 2, "core": 4}
    assert is_even(build_family("flower", **params))
    spec = {"instances": [{"family": "flower", "params": params}],
            "strategies": ["greedy"]}
    out = tmp_path / "rows.csv"
    run_bench(spec, str(out))
    # the default graph id: instance index, family, params sorted by key
    with open(out) as fh:
        (row,) = csv.DictReader(fh)
    assert row["graph_id"] == "0:flower(core=4,petals=2)"


# The generators read the cap at call time, so the tests below lower it
# to LIMIT: every size is then built for real when it is allowed, and a
# missing cap costs a tiny graph, not a huge one.
LIMIT = 12


@pytest.mark.parametrize(
    "family, params",
    [
        ("cycle", {"k": 13}),
        ("doubled_cycle", {"k": 13}),
        ("triangle_chain", {"k": 13}),
        ("flower", {"petals": 3, "core": 13}),
        ("theta", {"lengths": [12, 1]}),
        ("theta", {"lengths": [7, 6]}),
        ("random_even", {"n": 13, "cycles": 1}),
        ("random_even", {"n": 2, "cycles": 7}),
        ("random_even", {"n": 7, "cycles": 2}),
        ("cycle_tree", {"nodes": 13}),
        ("cycle_tree", {"nodes": 1, "max_len": 13}),
        ("cycle_tree", {"nodes": 3}),  # max_len 5
    ],
)
def test_family_size_over_limit_is_refused(monkeypatch, family, params):
    refuse_graph_build(monkeypatch)
    monkeypatch.setattr(families, "MAX_HEADER_VERTICES", LIMIT)
    with pytest.raises(ParseError, match=f"over the limit of {LIMIT}$"):
        build_family(family, **params)
    with pytest.raises(ParseError, match="over the limit"):
        run_bench({"instances": [{"family": family, "params": params}]})


@pytest.mark.parametrize(
    "family, params",
    [
        ("cycle", {"k": 12}),
        ("doubled_cycle", {"k": 12}),
        ("triangle_chain", {"k": 12}),
        ("flower", {"petals": 12, "core": 12}),
        ("theta", {"lengths": [6, 6]}),
        ("random_even", {"n": 12, "cycles": 1}),
        ("random_even", {"n": 4, "cycles": 3}),
        ("cycle_tree", {"nodes": 2, "max_len": 6}),
    ],
)
def test_family_size_at_limit_is_built(monkeypatch, family, params):
    monkeypatch.setattr(families, "MAX_HEADER_VERTICES", LIMIT)
    g = build_family(family, **params)
    assert is_even(g) and is_connected(g)

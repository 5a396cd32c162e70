import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from decycle.families import build_family
from decycle.multigraph import Multigraph


@pytest.fixture
def triangle():
    return Multigraph.from_edges(3, [(0, 1), (1, 2), (0, 2)])


@pytest.fixture
def doubled_triangle():
    """Three vertices, every pair joined by two parallel edges."""
    return build_family("doubled_cycle", k=3)


@pytest.fixture
def theta_graph():
    """Two degree-4 hubs joined by a direct edge and three 2-paths; no
    decomposition of this graph gives a simple CI."""
    return build_family("theta", lengths=(1, 2, 2, 2))


@pytest.fixture
def c5():
    return build_family("cycle", k=5)


def raw(g: Multigraph):
    """Plain data view consumed by the brute-force oracles."""
    return list(g.vertices), [(u, v) for _, u, v in g.edges()]


def refuse_graph_build(monkeypatch):
    """Make ``Multigraph.from_edges`` fail, so a parse or a family build
    that must stop at a size check cannot go on to build the graph."""

    def refuse(*args):
        raise AssertionError("graph built from a size that should be refused")

    monkeypatch.setattr(Multigraph, "from_edges", staticmethod(refuse))

import faulthandler
import os
import sys
from pathlib import Path

import pytest
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent))

from decycle.families import build_family, random_even
from decycle.multigraph import Multigraph


# The slowest test takes about a second; a test still running after this
# many seconds hangs, and the run stops with every thread's traceback.
HANG_SECONDS = 60
real_stderr = pytest.StashKey[int]()


def pytest_configure(config):
    # output capture is suspended here, so fd 2 is the run's own stderr;
    # a dump into the captured one would be lost when the run exits
    config.stash[real_stderr] = os.dup(2)


@pytest.fixture(autouse=True)
def hang_guard(request):
    stderr = request.config.stash[real_stderr]
    faulthandler.dump_traceback_later(HANG_SECONDS, exit=True, file=stderr)
    yield
    faulthandler.cancel_dump_traceback_later()


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


@st.composite
def greedy_graphs(draw):
    """Connected even multigraphs of four families, digons included."""
    family = draw(
        st.sampled_from(["random_even", "doubled_cycle", "theta", "cycle_tree"])
    )
    seed = draw(st.integers(0, 10_000))
    if family == "random_even":
        n, cycles = draw(st.integers(2, 14)), draw(st.integers(1, 6))
        return random_even(n, cycles, seed=seed)
    if family == "doubled_cycle":
        return build_family("doubled_cycle", k=draw(st.integers(2, 6)))
    if family == "theta":
        # an even number of hub-to-hub paths; length-1 paths give digons
        lengths = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
        return build_family("theta", lengths=tuple(lengths * 2))
    return build_family("cycle_tree", nodes=draw(st.integers(1, 12)), seed=seed)

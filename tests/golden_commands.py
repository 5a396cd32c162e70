"""The CLI commands whose stdout is pinned in ``tests/golden/``.

Each file ``tests/golden/<name>.txt`` holds the stdout of
``COMMANDS[name]``. The module needs only the standard library and the
package, so any interpreter the package supports can replay the files
without pytest:

    PYTHONPATH=src python tests/golden_commands.py

It prints one line per command and exits 1 if any output differs.
"""

import contextlib
import io
import sys
from pathlib import Path

from decycle.cli import main

GOLDEN = Path(__file__).parent / "golden"

# three components, vertex ids offset in this order: doubled_cycle k=3,
# theta 1,2,2,2 and cycle_tree nodes=8 seed=0 (33 vertices, 45 edges);
# the total keeps the edge-count and general bounds and drops the others
THREE_COMPONENTS = str(GOLDEN / "three_components.edges")

# the edgeless graph on one vertex: no cycle, yet an empty edge-count
# witness, unlike the lone cycle (``cycle --k 3``), which has none
ONE_VERTEX = str(GOLDEN / "one_vertex.edges")

COMMANDS = {
    "analyze_doubled_cycle": ["analyze", "--family", "doubled_cycle", "--k", "3"],
    "analyze_theta_json": [
        "analyze", "--family", "theta", "--lengths", "1,2,2,2", "--json",
    ],
    "analyze_random_even": [
        "analyze", "--family", "random_even", "--n", "12", "--cycles", "5",
        "--seed", "3",
    ],
    "analyze_cycle_tree_json": [
        "analyze", "--family", "cycle_tree", "--nodes", "40", "--seed", "2",
        "--json",
    ],
    "analyze_one_vertex": ["analyze", ONE_VERTEX],
    "analyze_one_vertex_json": ["analyze", ONE_VERTEX, "--json"],
    "analyze_cycle": ["analyze", "--family", "cycle", "--k", "3"],
    "analyze_cycle_json": ["analyze", "--family", "cycle", "--k", "3", "--json"],
    "analyze_three_components": ["analyze", THREE_COMPONENTS],
    "analyze_three_components_json": ["analyze", THREE_COMPONENTS, "--json"],
    "optimize_exhaustive": [
        "optimize", "--family", "doubled_cycle", "--k", "3",
        "--method", "exhaustive",
    ],
    "optimize_local_search_json": [
        "optimize", "--family", "triangle_chain", "--k", "4",
        "--method", "local_search", "--budget", "60", "--json",
    ],
    # the whole local-search trajectory at the benchmark's budget of 200;
    # the random_even run takes plateau escapes
    "optimize_local_search_budget200_json": [
        "optimize", "--family", "triangle_chain", "--k", "4",
        "--method", "local_search", "--budget", "200", "--json",
    ],
    "optimize_local_search_random_even_json": [
        "optimize", "--family", "random_even", "--n", "7", "--cycles", "3",
        "--seed", "12", "--method", "local_search", "--budget", "200", "--json",
    ],
    "exact_random_even_json": [
        "exact", "--family", "random_even", "--n", "10", "--cycles", "4",
        "--seed", "1", "--json",
    ],
}


def replay() -> int:
    """Run every command and compare its stdout with its golden file;
    return the number of commands that differ."""
    bad = 0
    for name in sorted(COMMANDS):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(COMMANDS[name])
        want = (GOLDEN / f"{name}.txt").read_bytes()
        same = code == 0 and out.getvalue().encode() == want
        bad += not same
        print(f"{'ok  ' if same else 'DIFF'} {name}")
    return bad


if __name__ == "__main__":
    sys.exit(1 if replay() else 0)

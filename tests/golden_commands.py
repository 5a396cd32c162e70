"""The CLI commands whose output is pinned in ``tests/golden/``.

Each file ``tests/golden/<name>.txt`` holds the stdout of
``COMMANDS[name]``. ``BENCH_COMMANDS`` lists the ``bench`` runs, each
with the golden files it reproduces, its CSV tables among them. The
module needs only the standard library and the package, so any
interpreter the package supports can replay the files without pytest:

    PYTHONPATH=src python tests/golden_commands.py

It prints one line per golden file and exits 1 if any output differs.
"""

import contextlib
import io
import sys
import tempfile
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


# `decycle bench` over the specs here: name -> (arguments, the golden
# files of the run). A ``.txt`` file pins the run's stdout, and a
# ``.csv`` file the table of that name that it writes into "{tmp}", a
# temporary directory.
BENCH_SPEC = str(GOLDEN / "bench_spec.json")
TIGHTNESS_SPEC = str(GOLDEN / "tightness_spec.json")
OPTIMIZE_SPEC = str(GOLDEN / "optimize_spec.json")

BENCH_COMMANDS = {
    # eight instances (an upper-case and an integer id, lone cycles with
    # NA edge bounds, a cycle over the oracle limit, ids that need CSV
    # quoting) under all three strategies
    "bench": (
        ["bench", BENCH_SPEC, "--output", "{tmp}/bench.csv"],
        ("bench.txt", "bench.csv"),
    ),
    "bench_json": (["bench", BENCH_SPEC, "--json"], ("bench_json.txt",)),
    # the tightness table: greedy `analyze` over 193 seeded graphs
    # (random_even n 6-12, cycles 2-5, seeds 0-5; cycle_tree 3, 5 and 8
    # nodes, seeds 0-3; a flower; triangle_chain and doubled_cycle 2-7)
    "tightness": (
        ["bench", TIGHTNESS_SPEC, "--output", "{tmp}/tightness.csv"],
        ("tightness.csv",),
    ),
    # the optimization table: the 108 random_even graphs with n 5-8,
    # cycles 2-4 and seeds 0-11 that have at most 16 edges (chosen by
    # edge count alone), under greedy, local search (budget 200) and
    # exhaustive search
    "optimize": (
        ["bench", OPTIMIZE_SPEC, "--output", "{tmp}/optimize.csv"],
        ("optimize.csv",),
    ),
}


def run_bench(name: str, tmp: Path) -> tuple[int, dict[str, bytes]]:
    """Run ``BENCH_COMMANDS[name]`` with ``tmp`` as its "{tmp}". Returns
    the exit code and each golden file name of the run mapped to what the
    run gave: its stdout for a ``.txt`` file, else the table of that name
    (empty if none was written)."""
    argv, files = BENCH_COMMANDS[name]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([arg.replace("{tmp}", str(tmp)) for arg in argv])
    got = {}
    for file in files:
        if file.endswith(".txt"):
            got[file] = out.getvalue().encode()
        else:
            table = tmp / file
            got[file] = table.read_bytes() if table.exists() else b""
    return code, got


def replay() -> int:
    """Run every command and compare its output with its golden files;
    return the number of golden files that differ."""
    results = []  # (same as the golden file, its name)
    for name in sorted(COMMANDS):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(COMMANDS[name])
        want = (GOLDEN / f"{name}.txt").read_bytes()
        results.append((code == 0 and out.getvalue().encode() == want, name))
    with tempfile.TemporaryDirectory() as tmp:
        for name in BENCH_COMMANDS:
            code, got = run_bench(name, Path(tmp))
            results += [
                (code == 0 and data == (GOLDEN / file).read_bytes(), file)
                for file, data in got.items()
            ]
    for same, label in results:
        print(f"{'ok  ' if same else 'DIFF'} {label}")
    return sum(not same for same, _ in results)


if __name__ == "__main__":
    sys.exit(1 if replay() else 0)

"""Byte-for-byte CLI output against the files in ``tests/golden/``.

Each file holds the stdout of the command of the same name in
``golden_commands.COMMANDS``. The README promises the same output for
the same flags and seeds, so a change to these files is a change to
that promise.
"""

import csv

import pytest

from decycle.cli import main
from golden_commands import COMMANDS, GOLDEN


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_cli_output_matches_golden(capsys, name):
    code = main(COMMANDS[name])
    assert code == 0
    out = capsys.readouterr().out
    assert out.encode() == (GOLDEN / f"{name}.txt").read_bytes()


# `decycle bench` over bench_spec.json: eight instances (an upper-case and
# an integer id, lone cycles with NA edge bounds, a cycle over the oracle
# limit, ids that need CSV quoting) under all three strategies
BENCH_SPEC = GOLDEN / "bench_spec.json"


def test_bench_output_matches_golden(capsys, tmp_path):
    csv_path = tmp_path / "bench.csv"
    assert main(["bench", str(BENCH_SPEC), "--output", str(csv_path)]) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / "bench.txt").read_bytes()
    assert csv_path.read_bytes() == (GOLDEN / "bench.csv").read_bytes()
    assert main(["bench", str(BENCH_SPEC), "--json"]) == 0
    out = capsys.readouterr().out
    assert out.encode() == (GOLDEN / "bench_json.txt").read_bytes()


# the tightness table: greedy `analyze` over 193 seeded graphs (random_even
# n 6-12, cycles 2-5, seeds 0-5; cycle_tree 3, 5 and 8 nodes, seeds 0-3; a
# flower; triangle_chain and doubled_cycle 2-7)
TIGHTNESS_SPEC = GOLDEN / "tightness_spec.json"


def test_tightness_table_matches_golden(capsys, tmp_path):
    csv_path = tmp_path / "tightness.csv"
    assert main(["bench", str(TIGHTNESS_SPEC), "--output", str(csv_path)]) == 0
    capsys.readouterr()
    assert csv_path.read_bytes() == (GOLDEN / "tightness.csv").read_bytes()
    with open(csv_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 193
    for row in rows:
        if row["exact"] == "NA":
            assert int(row["n_vertices"]) > 20  # over the oracle limit
            continue
        exact = int(row["exact"])
        assert exact <= int(row["general"])
        if row["edge_bound"] != "NA":
            assert exact <= int(row["edge_bound"])
        if row["rank"] == "0":  # a forest CI: the bound is the exact value
            assert int(row["general"]) == exact


# the optimization table: the 108 random_even graphs with n 5-8, cycles
# 2-4 and seeds 0-11 that have at most 16 edges (chosen by edge count
# alone), under greedy, local search (budget 200) and exhaustive search
OPTIMIZE_SPEC = GOLDEN / "optimize_spec.json"


def test_optimize_table_matches_golden(capsys, tmp_path):
    csv_path = tmp_path / "optimize.csv"
    assert main(["bench", str(OPTIMIZE_SPEC), "--output", str(csv_path)]) == 0
    capsys.readouterr()
    assert csv_path.read_bytes() == (GOLDEN / "optimize.csv").read_bytes()
    with open(csv_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3 * 108
    for row in rows:
        assert int(row["n_edges"]) <= 16
        assert int(row["exact"]) <= int(row["general"])

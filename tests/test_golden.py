"""Byte-for-byte CLI output against the files in ``tests/golden/``.

Each ``.txt`` file holds the stdout of the command of the same name in
``golden_commands.COMMANDS``, or of a ``bench`` run in
``golden_commands.BENCH_COMMANDS``, which also lists the CSV tables.
The README promises the same output for the same flags and seeds, so a
change to these files is a change to that promise.
"""

import csv
import io

import pytest

from decycle.cli import main
from golden_commands import BENCH_COMMANDS, COMMANDS, GOLDEN, run_bench


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_cli_output_matches_golden(capsys, name):
    code = main(COMMANDS[name])
    assert code == 0
    out = capsys.readouterr().out
    assert out.encode() == (GOLDEN / f"{name}.txt").read_bytes()


def bench_matches_golden(name, tmp_path) -> dict[str, bytes]:
    """Run ``BENCH_COMMANDS[name]``, check every golden file of the run,
    and return what the run gave, by golden file name."""
    code, got = run_bench(name, tmp_path)
    assert code == 0
    for file, data in got.items():
        assert data == (GOLDEN / file).read_bytes(), file
    return got


def test_bench_output_matches_golden(tmp_path):
    bench_matches_golden("bench", tmp_path)
    bench_matches_golden("bench_json", tmp_path)


def test_every_golden_output_is_replayed():
    # the other files (.json specs, .edges graphs) are inputs
    outputs = {p.name for p in GOLDEN.iterdir() if p.suffix in (".txt", ".csv")}
    pinned = {f"{name}.txt" for name in COMMANDS}
    for _, files in BENCH_COMMANDS.values():
        pinned.update(files)
    assert pinned == outputs


def table_rows(table: bytes) -> list[dict]:
    return list(csv.DictReader(io.StringIO(table.decode(), newline="")))


def test_tightness_table_matches_golden(tmp_path):
    rows = table_rows(bench_matches_golden("tightness", tmp_path)["tightness.csv"])
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


def test_optimize_table_matches_golden(tmp_path):
    rows = table_rows(bench_matches_golden("optimize", tmp_path)["optimize.csv"])
    assert len(rows) == 3 * 108
    for row in rows:
        assert int(row["n_edges"]) <= 16
        assert int(row["exact"]) <= int(row["general"])

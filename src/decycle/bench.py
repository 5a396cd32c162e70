"""Bound-tightness benchmark: run the analysis pipeline over instance
lists and record how close each bound gets to the exact value."""

from __future__ import annotations

import csv
from typing import Optional

from .decycling import analyze
from .errors import ParseError
from .families import build_family
from .multigraph import Multigraph
from .optimize import METHODS, optimize_decomposition

STRATEGIES = ("greedy",) + METHODS

CSV_COLUMNS = (
    "graph_id",
    "n_vertices",
    "n_edges",
    "strategy",
    "ci_simple",
    "rank",
    "edge_bound",
    "general",
    "exact",
    "gap",
)


def _cell(value) -> str:
    if value is None:
        return "NA"
    if isinstance(value, bool):
        return str(value).lower()
    return str(value)


def run_instance(
    graph_id: str,
    g: Multigraph,
    strategy: str,
    seed: int,
    budget: int,
    oracle_limit: Optional[int],
) -> dict:
    """One bench row, keyed by ``CSV_COLUMNS``."""
    d = None  # analyze falls back to the greedy decomposition
    if strategy != "greedy":
        d = optimize_decomposition(
            g, method=strategy, budget=budget, seed=seed
        ).best_decomposition
    report = analyze(g, d, seed=seed, oracle_limit=oracle_limit)
    exact = report.exact
    return {
        "graph_id": graph_id,
        "n_vertices": report.n_vertices,
        "n_edges": report.n_edges,
        "strategy": strategy,
        "ci_simple": report.ci_simple,
        "rank": report.ci_rank,
        "edge_bound": report.edge_count_bound,
        "general": report.general_bound,
        "exact": exact,
        "gap": None if exact is None else report.general_bound - exact,
    }


def _spec_int(spec: dict, key: str, default: Optional[int]) -> Optional[int]:
    value = spec.get(key, default)
    if value is None and default is None:
        return None
    # JSON true, 2.9 and "7" are not integers, and int() would take them
    if type(value) is not int:
        raise ParseError(f"bench spec '{key}' must be an integer")
    return value


_SPEC_KEYS = ("instances", "strategies", "seed", "budget", "oracle_limit")
_INSTANCE_KEYS = ("id", "family", "params")


def _refuse_unknown_keys(obj: dict, known: tuple[str, ...], where: str) -> None:
    """A misspelt key would otherwise be ignored and its default used."""
    for key in obj:
        if key not in known:
            raise ParseError(
                f"{where} has unknown key {key!r}; expected one of {', '.join(known)}"
            )


def run_bench(spec: dict, csv_path: Optional[str] = None) -> dict:
    """Run every instance under every strategy; returns the summary.

    ``spec`` schema::

        {"instances": [{"id": "...", "family": "...", "params": {...}}, ...],
         "strategies": ["greedy", ...],      # optional, default all three
         "seed": 0, "budget": 200, "oracle_limit": 20}
    """
    if not isinstance(spec, dict) or not isinstance(spec.get("instances"), list):
        raise ParseError("bench spec must be a JSON object with an 'instances' list")
    _refuse_unknown_keys(spec, _SPEC_KEYS, "bench spec")
    strategies = spec.get("strategies", list(STRATEGIES))
    if not isinstance(strategies, list):
        raise ParseError("bench spec 'strategies' must be a list")
    for s in strategies:
        if s not in STRATEGIES:
            raise ValueError(f"unknown strategy {s!r}")
    seed = _spec_int(spec, "seed", 0)
    budget = _spec_int(spec, "budget", 200)
    if budget < 1:
        raise ParseError("bench spec 'budget' must be at least 1")
    oracle_limit = _spec_int(spec, "oracle_limit", None)
    if oracle_limit is not None and oracle_limit < 0:
        raise ParseError("bench spec 'oracle_limit' must be at least 0")
    # every instance is checked and built before any runs, so a bad one
    # fails up front, not after the instances before it
    graphs: list[tuple[str, Multigraph]] = []
    for idx, inst in enumerate(spec["instances"]):
        if not isinstance(inst, dict) or "family" not in inst:
            raise ParseError(
                f"bench instance {idx} must be a JSON object with a 'family'"
            )
        _refuse_unknown_keys(inst, _INSTANCE_KEYS, f"bench instance {idx}")
        params = inst.get("params", {})
        if not isinstance(params, dict):
            raise ParseError(f"bench instance {idx} 'params' must be a JSON object")
        family = inst["family"]
        label = ",".join(f"{k}={v}" for k, v in sorted(params.items()))
        graph_id = str(inst.get("id", f"{idx}:{family}({label})"))
        graphs.append((graph_id, build_family(family, **params)))
    rows = [
        run_instance(
            graph_id, g, strategy,
            seed=seed, budget=budget, oracle_limit=oracle_limit,
        )
        for graph_id, g in graphs
        for strategy in strategies
    ]
    if csv_path is not None:
        with open(csv_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)
            for row in rows:
                writer.writerow([_cell(row[c]) for c in CSV_COLUMNS])
    return summarize(rows)


def summarize(rows: list[dict]) -> dict:
    """Per-strategy gap statistics plus global soundness counters."""
    summary: dict = {"strategies": {}, "rows": len(rows)}
    for strategy in sorted({r["strategy"] for r in rows}):
        mine = [r for r in rows if r["strategy"] == strategy]
        gaps = [r["gap"] for r in mine if r["gap"] is not None]
        summary["strategies"][strategy] = {
            "rows": len(mine),
            "exact_na": sum(1 for r in mine if r["exact"] is None),
            "mean_gap": (sum(gaps) / len(gaps)) if gaps else None,
            "max_gap": max(gaps) if gaps else None,
        }
    summary["exact_over_general"] = sum(
        1 for r in rows if r["exact"] is not None and r["exact"] > r["general"]
    )
    summary["general_over_edge_bound"] = sum(
        1
        for r in rows
        if r["edge_bound"] is not None and r["general"] > r["edge_bound"]
    )
    return summary

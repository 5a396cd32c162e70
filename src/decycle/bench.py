"""Bound-tightness benchmark: run the analysis pipeline over instance
lists and record how close each bound gets to the exact value."""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Optional

from .decycling import analyze
from .errors import ParseError
from .families import FamilySpec
from .multigraph import Multigraph
from .optimize import optimize_decomposition

STRATEGIES = ("greedy", "exhaustive", "local_search")

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


@dataclass
class BenchRow:
    graph_id: str
    n_vertices: int
    n_edges: int
    strategy: str
    ci_simple: bool
    rank: int
    edge_bound: Optional[int]
    general: int
    exact: Optional[int]

    @property
    def gap(self) -> Optional[int]:
        if self.exact is None:
            return None
        return self.general - self.exact

    def as_csv(self) -> list[str]:
        def cell(v):
            return "NA" if v is None else str(v)

        return [
            self.graph_id,
            str(self.n_vertices),
            str(self.n_edges),
            self.strategy,
            str(self.ci_simple).lower(),
            str(self.rank),
            cell(self.edge_bound),
            cell(self.general),
            cell(self.exact),
            cell(self.gap),
        ]


def _pick_decomposition(g: Multigraph, strategy: str, seed: int, budget: int):
    if strategy == "greedy":
        return None  # analyze falls back to the greedy decomposition
    result = optimize_decomposition(g, method=strategy, budget=budget, seed=seed)
    return result.best_decomposition


def run_instance(
    graph_id: str,
    g: Multigraph,
    strategy: str,
    seed: int = 0,
    budget: int = 200,
    oracle_limit: Optional[int] = None,
) -> BenchRow:
    d = _pick_decomposition(g, strategy, seed, budget)
    report = analyze(g, d, seed=seed, oracle_limit=oracle_limit)
    return BenchRow(
        graph_id=graph_id,
        n_vertices=report.n_vertices,
        n_edges=report.n_edges,
        strategy=strategy,
        ci_simple=report.ci_simple,
        rank=report.ci_rank,
        edge_bound=report.edge_count_bound,
        general=report.general_bound,
        exact=report.exact,
    )


def _spec_int(spec: dict, key: str, default: Optional[int]) -> Optional[int]:
    value = spec.get(key, default)
    if value is None and default is None:
        return None
    try:
        return int(value)
    except (TypeError, ValueError):
        raise ParseError(f"bench spec '{key}' must be an integer") from None


def run_bench(spec: dict, csv_path: Optional[str] = None) -> dict:
    """Run every instance under every strategy; returns the summary.

    ``spec`` schema::

        {"instances": [{"id": "...", "family": "...", "params": {...}}, ...],
         "strategies": ["greedy", ...],      # optional, default all three
         "seed": 0, "budget": 200, "oracle_limit": 20}
    """
    if not isinstance(spec, dict) or not isinstance(spec.get("instances"), list):
        raise ParseError("bench spec must be a JSON object with an 'instances' list")
    strategies = spec.get("strategies", list(STRATEGIES))
    if not isinstance(strategies, list):
        raise ParseError("bench spec 'strategies' must be a list")
    for s in strategies:
        if s not in STRATEGIES:
            raise ValueError(f"unknown strategy {s!r}")
    seed = _spec_int(spec, "seed", 0)
    budget = _spec_int(spec, "budget", 200)
    oracle_limit = _spec_int(spec, "oracle_limit", None)
    rows: list[BenchRow] = []
    for idx, inst in enumerate(spec["instances"]):
        if not isinstance(inst, dict) or "family" not in inst:
            raise ParseError(
                f"bench instance {idx} must be a JSON object with a 'family'"
            )
        params = inst.get("params", {})
        if not isinstance(params, dict):
            raise ParseError(f"bench instance {idx} 'params' must be a JSON object")
        fam = FamilySpec(inst["family"], dict(params))
        graph_id = str(inst.get("id", f"{idx}:{fam.label()}"))
        g = fam.build()
        for strategy in strategies:
            rows.append(
                run_instance(
                    graph_id, g, strategy,
                    seed=seed, budget=budget, oracle_limit=oracle_limit,
                )
            )
    if csv_path is not None:
        with open(csv_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)
            for row in rows:
                writer.writerow(row.as_csv())
    return summarize(rows)


def summarize(rows: list[BenchRow]) -> dict:
    """Per-strategy gap statistics plus global soundness counters."""
    summary: dict = {"strategies": {}, "rows": len(rows)}
    for strategy in sorted({r.strategy for r in rows}):
        mine = [r for r in rows if r.strategy == strategy]
        gaps = [r.gap for r in mine if r.gap is not None]
        summary["strategies"][strategy] = {
            "rows": len(mine),
            "exact_na": sum(1 for r in mine if r.exact is None),
            "mean_gap": (sum(gaps) / len(gaps)) if gaps else None,
            "max_gap": max(gaps) if gaps else None,
        }
    summary["exact_over_general"] = sum(
        1 for r in rows if r.exact is not None and r.exact > r.general
    )
    summary["general_over_edge_bound"] = sum(
        1
        for r in rows
        if r.edge_bound is not None and r.general > r.edge_bound
    )
    return summary

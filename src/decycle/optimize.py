"""Search the decomposition space for a CI graph of minimum cycle rank.

The objective is (cycle rank, general bound) lexicographically: rank is
what the theory asks to minimize, the bound tie-break makes the winner
directly useful for decycling. Exhaustive search enumerates the whole
space; local search hill-climbs over merge/re-split moves with one
random plateau escape per restart.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from .cigraph import CIGraph, _build_ci, cycle_rank
from .decompose import (
    CycleDecomposition,
    _moves,
    decompose_greedy,
    enumerate_decompositions,
)
from .decycling import _construct_decycling
from .errors import DisconnectedError, NotEvenError
from .multigraph import Multigraph, is_connected, is_even


@dataclass
class OptimizationResult:
    best_decomposition: CycleDecomposition
    best_ci: CIGraph
    best_rank: int
    best_bound: int
    evaluations: int
    method: str

    def to_json_obj(self) -> dict:
        return {
            "method": self.method,
            "best_rank": self.best_rank,
            "best_bound": self.best_bound,
            "evaluations": self.evaluations,
            "ci": self.best_ci.to_json_obj(),
            "decomposition": self.best_decomposition.to_json_obj(),
        }


def _evaluate(g: Multigraph, d: CycleDecomposition):
    """Objective key of a decomposition this module generated."""
    ci = _build_ci(d)
    bound = len(_construct_decycling(g, d, ci)[0])
    return (cycle_rank(ci), bound, d.sort_key)


def optimize_decomposition(
    g: Multigraph,
    method: str = "exhaustive",
    budget: int = 1000,
    seed: int = 0,
) -> OptimizationResult:
    """Find a decomposition minimizing the CI cycle rank.

    ``exhaustive`` scans every decomposition (desk-scale graphs only);
    ``local_search`` restarts greedy decompositions and walks improving
    neighbor moves until the evaluation budget runs out.
    """
    if budget <= 0:
        raise ValueError("budget must be positive")
    if method not in ("exhaustive", "local_search"):
        raise ValueError(f"unknown method {method!r}")
    if not is_even(g):
        raise NotEvenError("graph is not even: some vertex has odd degree")
    if not is_connected(g):
        raise DisconnectedError("graph is disconnected; optimize per component")

    best: Optional[tuple[tuple, CycleDecomposition]] = None
    evaluations = 0

    def consider(d: CycleDecomposition, key: tuple) -> tuple:
        nonlocal best, evaluations
        evaluations += 1
        if best is None or key < best[0]:
            best = (key, d)
        return key

    if method == "exhaustive":
        for d in enumerate_decompositions(g):
            consider(d, _evaluate(g, d))
    else:
        # Local search meets the same decompositions and cycle unions
        # over and over: evaluate and re-split each one once per call.
        # A decomposition's edge sets fix its key, and sort_key lists them.
        keys: dict[tuple[tuple[int, ...], ...], tuple] = {}
        splits: dict = {}

        def key_of(d: CycleDecomposition) -> tuple:
            sk = d.sort_key
            if sk not in keys:
                keys[sk] = _evaluate(g, d)
            return keys[sk]

        rng = random.Random(seed)
        restart = 0
        while evaluations < budget:
            current = decompose_greedy(g, seed + restart)
            restart += 1
            current_key = consider(current, key_of(current))
            escaped = False
            while evaluations < budget:
                moves = _moves(g, current, splits)
                if not moves:
                    break
                move_keys = []
                for nd in moves:
                    if evaluations >= budget:
                        break
                    move_keys.append((consider(nd, key_of(nd)), nd))
                improving = [
                    (key, nd)
                    for key, nd in move_keys
                    if key[:2] < current_key[:2]
                ]
                if improving:
                    current_key, current = min(improving)
                elif move_keys and not escaped:
                    current_key, current = move_keys[
                        rng.randrange(len(move_keys))
                    ]
                    escaped = True
                else:
                    break

    if best is None:
        raise ValueError("graph has no cycle decomposition to evaluate")
    (rank, bound, _), d = best
    return OptimizationResult(
        best_decomposition=d,
        best_ci=_build_ci(d),
        best_rank=rank,
        best_bound=bound,
        evaluations=evaluations,
        method=method,
    )

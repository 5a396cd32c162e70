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
    _decompose_greedy,
    _moves,
    enumerate_decompositions,
)
from .decycling import _ci_link_count, _construct_decycling
from .errors import DisconnectedError, InvariantError
from .multigraph import Multigraph, _require_even, is_connected

METHODS = ("exhaustive", "local_search")


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
    if type(budget) is not int or budget <= 0:
        raise ValueError(f"budget must be a positive integer, not {budget!r}")
    if type(seed) is not int:  # seed + restart would take True as 1
        raise ValueError(f"seed must be an int, not {seed!r}")
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    _require_even(g)
    if not is_connected(g):
        raise DisconnectedError("graph is disconnected; optimize per component")

    # A connected even graph's CI has rank
    # sum_v C(deg(v)/2, 2) - |d| + 1 (0 with no edge), so every rank
    # follows from |d|, and the bound is built only for a candidate that
    # could tie or beat the best on rank. Keys stay (rank, bound, sort_key).
    base = _ci_link_count(g) + 1 if g.n_edges else 0
    bounds: dict[tuple[tuple[int, ...], ...], int] = {}
    best: Optional[tuple[tuple, CycleDecomposition]] = None
    evaluations = 0

    def key_of(sk: Optional[tuple], d: CycleDecomposition) -> tuple:
        """The full key of ``d``; ``sk`` is its sort_key, or None to
        compute it here."""
        if sk is None:
            sk = d.sort_key
        if sk not in bounds:
            bounds[sk] = len(_construct_decycling(g, d, _build_ci(d)))
        return base - len(d), bounds[sk], sk

    def consider(sk: Optional[tuple], d: CycleDecomposition) -> int:
        """Count an evaluation and return the rank of ``d``."""
        nonlocal best, evaluations
        evaluations += 1
        rank = base - len(d)
        if best is None or rank <= best[0][0]:
            key = key_of(sk, d)
            if best is None or key < best[0]:
                best = (key, d)
        return rank

    if method == "exhaustive":
        # most decompositions lose on rank and never need a sort_key
        for d in enumerate_decompositions(g):
            consider(None, d)
    else:
        # Local search meets the same decompositions and cycle unions
        # over and over: bound, re-split and build the neighbourhood of
        # each one once per call. A move comes with its sort_key, which
        # indexes the bound and neighbourhood memos. A neighbourhood is
        # cut to the budget only where it is used, and every one built
        # before the last is evaluated in full, so ``neighbourhoods``
        # holds at most budget + one neighbourhood's moves, like
        # ``bounds``.
        splits: dict = {}
        neighbourhoods: dict = {}
        rng = random.Random(seed)
        restart = 0
        while evaluations < budget:
            current = _decompose_greedy(g, seed + restart)
            restart += 1
            sk = current.sort_key
            consider(sk, current)
            current_key = key_of(sk, current)
            escaped = False
            while evaluations < budget:
                if current_key[2] not in neighbourhoods:
                    neighbourhoods[current_key[2]] = _moves(g, current, splits)
                moves = neighbourhoods[current_key[2]][: budget - evaluations]
                if not moves:
                    break
                ranks = [consider(sk, nd) for sk, nd in moves]
                low = min(ranks)
                # only the lowest-rank moves can improve on current; sort
                # keys are unique among them, so min never compares two
                # decompositions
                if low <= current_key[0]:
                    step = min(
                        (key_of(sk, nd), nd)
                        for (sk, nd), rank in zip(moves, ranks)
                        if rank == low
                    )
                    if step[0][:2] < current_key[:2]:
                        current_key, current = step
                        continue
                if escaped:
                    break
                sk, current = moves[rng.randrange(len(moves))]
                current_key = key_of(sk, current)
                escaped = True

    (rank, bound, _), d = best
    best_ci = _build_ci(d)
    if cycle_rank(best_ci) != rank:
        raise InvariantError("CI rank differs from the rank given by |d|")
    return OptimizationResult(
        best_decomposition=d,
        best_ci=best_ci,
        best_rank=rank,
        best_bound=bound,
        evaluations=evaluations,
        method=method,
    )

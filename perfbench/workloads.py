"""Seeded workloads of the decycle performance benchmark.

A workload turns its workload seed into a fixed list of instances (the
set-up phase) and runs one library call per instance (an op). Every
instance seed and every analyze or optimizer seed is drawn from the
workload seed, so the same seed always gives the same inputs. The
library only ever sees the generated graphs.

Library functions are reached through the ``decycle`` package attribute
at call time, never bound here at import, so that the traced run's
wrappers (see ``spans.py``) see every op.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Callable, Optional

import decycle

LOCAL_SEARCH_BUDGET = 200


@dataclass(frozen=True)
class Instance:
    op_seed: int
    graph: decycle.Multigraph


@dataclass(frozen=True)
class Workload:
    kind: str  # "analyze" or "local_search"
    # (family, params, edge-count window or None) per instance
    specs: Callable[[random.Random], list[tuple[str, dict, Optional[tuple[int, int]]]]]


def _seeds(rng: random.Random, count: int) -> list[int]:
    return [rng.randrange(2**31) for _ in range(count)]


# Sizes: one pass over a set takes 4 to 7 s on a 2-core Xeon at the seed
# commit, so a 50 s run holds about ten passes and each op's median over
# them damps interference from other tenants of the machine. Instance
# cost varies a lot from graph to graph; random_even instances are kept
# only when their edge count falls in the middle half of its spread,
# which keeps per-seed totals steady without changing the graph family.


def _analyze_specs(rng):
    """Three kinds of graph, so one workload reaches every analyze route:
    cycle_tree (forest CI, tree route, maximum matching dominates), dense
    random_even (small CI with over a thousand mostly parallel links) and
    random_even under the oracle cap (exact_decycling_number runs)."""
    return (
        [("cycle_tree", {"nodes": 100, "seed": s, "min_len": 3, "max_len": 5}, None)
         for s in _seeds(rng, 20)]
        + [("random_even", {"n": 40, "cycles": 16, "seed": s}, (320, 365))
           for s in _seeds(rng, 40)]
        + [("random_even", {"n": 12, "cycles": 5, "seed": s}, (34, 41))
           for s in _seeds(rng, 40)]
    )


def _local_search_specs(rng):
    return [("triangle_chain", {"k": 4}, None)] + [
        ("random_even", {"n": 7, "cycles": 3, "seed": s}, (12, 17))
        for s in _seeds(rng, 45)
    ]


WORKLOADS = {
    "analyze": Workload("analyze", _analyze_specs),
    "local_search": Workload("local_search", _local_search_specs),
}


def make_instance(family: str, params: dict, op_seed: int) -> Instance:
    return Instance(op_seed, decycle.build_family(family, **params))


def build_instances(workload: str, seed: int) -> list[Instance]:
    """Every instance of one run; the set-up phase of the benchmark.

    A spec with an edge-count window is redrawn with the next graph seed
    until its graph falls inside the window.
    """
    rng = random.Random(f"{workload}:{seed}")
    out = []
    for family, params, window in WORKLOADS[workload].specs(rng):
        inst = make_instance(family, params, rng.randrange(2**31))
        while window and not window[0] <= inst.graph.n_edges <= window[1]:
            params = dict(params, seed=params["seed"] + 1)
            inst = make_instance(family, params, inst.op_seed)
        out.append(inst)
    return out


def run_op(kind: str, inst: Instance):
    """One op: the library call the workload times."""
    if kind == "analyze":
        return decycle.analyze(inst.graph, seed=inst.op_seed)
    return decycle.optimize_decomposition(
        inst.graph, method="local_search", budget=LOCAL_SEARCH_BUDGET, seed=inst.op_seed
    )


def digest(summaries: list[dict]) -> str:
    """SHA-256 of the canonical JSON of op outputs (``to_json_obj()``:
    bounds, witnesses and decomposition for analyze; best rank, bound and
    decomposition for local search)."""
    text = json.dumps(summaries, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()

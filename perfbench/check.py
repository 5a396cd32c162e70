"""Independent output checker of the benchmark.

Works on raw data only: the graph as ``{edge id: (u, v)}`` and each op's
JSON summary. Its acyclicity test and CI rank are its own, so a bug in
``decycle.is_acyclic``, ``Multigraph.delete_vertices`` or ``build_ci``
cannot hide a wrong answer. Every function returns a list of problems;
an empty list means the output passed.
"""

from __future__ import annotations

from itertools import combinations


def _find(parent: dict, x):
    while parent.setdefault(x, x) != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def decycles(edges: dict, removed) -> bool:
    """True iff deleting ``removed`` leaves no cycle; parallel edges count
    as a 2-cycle."""
    gone = set(removed)
    parent: dict = {}
    for u, v in edges.values():
        if u in gone or v in gone:
            continue
        ru, rv = _find(parent, u), _find(parent, v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


def ci_rank(cycles: list[list[int]]) -> int:
    """Cycle rank of the CI graph: one node per cycle, one link per vertex
    shared by a pair of cycles."""
    parent: dict = {}
    links = 0
    components = len(cycles)
    for i, j in combinations(range(len(cycles)), 2):
        shared = len(set(cycles[i]) & set(cycles[j]))
        if shared:
            links += shared
            ri, rj = _find(parent, i), _find(parent, j)
            if ri != rj:
                parent[ri] = rj
                components -= 1
    return links - len(cycles) + components


def decomposition_problems(edges: dict, decomposition: dict) -> list[str]:
    """Ways the decomposition fails to split the edge set into simple
    cycles."""
    problems = []
    used: set[int] = set()
    for idx, (verts, eids) in enumerate(
        zip(decomposition["cycles"], decomposition["edge_ids"])
    ):
        if len(verts) != len(eids) or len(verts) < 2 or len(set(verts)) != len(verts):
            problems.append(f"cycle {idx} is not a simple cycle")
            continue
        for i, eid in enumerate(eids):
            ends = {verts[i], verts[(i + 1) % len(verts)]}
            if eid not in edges or set(edges[eid]) != ends or eid in used:
                problems.append(f"cycle {idx}: edge {eid} misplaced or reused")
            used.add(eid)
    if used != set(edges):
        problems.append("decomposition does not cover every edge exactly once")
    return problems


def check_analyze(edges: dict, report: dict) -> list[str]:
    """Check one ``BoundReport.to_json_obj()`` against its graph."""
    bounds, witnesses = report["bounds"], report["witnesses"]
    problems = decomposition_problems(edges, report["decomposition"])
    named = {"edge_count": "edge_count", "tree": "tree_exact",
             "general": "general", "exact": "exact"}
    for wname, bname in named.items():
        if (wname in witnesses) != (bounds[bname] is not None):
            problems.append(f"{bname} bound and {wname} witness disagree on presence")
    for wname, vertices in witnesses.items():
        if not decycles(edges, vertices):
            problems.append(f"{wname} witness does not decycle the graph")
        bound = bounds[named[wname]]
        # the edge-count witness is the set of link labels, which can be
        # smaller than the link count it bounds; the others are exact
        if bound is not None and (
            len(vertices) > bound if wname == "edge_count" else len(vertices) != bound
        ):
            problems.append(f"{wname} witness has {len(vertices)} vertices, bound {bound}")
    chain = [bounds[k] for k in ("exact", "general", "edge_count") if bounds[k] is not None]
    if chain != sorted(chain):
        problems.append(f"bounds out of order: exact <= general <= edge_count fails on {chain}")
    rank = ci_rank(report["decomposition"]["cycles"])
    if rank != report["ci"]["rank"]:
        problems.append(f"reported CI rank {report['ci']['rank']}, recomputed {rank}")
    if rank == 0 and bounds["tree_exact"] != bounds["general"]:
        problems.append("rank-0 CI but tree_exact != general")
    if None not in (bounds["tree_exact"], bounds["exact"]) and bounds["tree_exact"] != bounds["exact"]:
        problems.append("tree_exact != exact")
    return problems


def check_local_search(edges: dict, result: dict, witness: list[int], budget: int) -> list[str]:
    """Check one ``OptimizationResult.to_json_obj()``; ``witness`` is the
    general-bound set recomputed from its best decomposition."""
    decomposition = result["decomposition"]
    problems = decomposition_problems(edges, decomposition)
    rank = ci_rank(decomposition["cycles"])
    if rank != result["best_rank"]:
        problems.append(f"best_rank {result['best_rank']}, recomputed {rank}")
    if len(witness) != result["best_bound"]:
        problems.append(f"best_bound {result['best_bound']}, recomputed {len(witness)}")
    if not decycles(edges, witness):
        problems.append("best decomposition's general witness does not decycle the graph")
    if not 0 < result["evaluations"] <= budget:
        problems.append(f"{result['evaluations']} evaluations with budget {budget}")
    return problems

"""Decycling sets and decycling-number bounds derived from CI graphs.

Three bound routes, each returning a vertex set that is re-certified by
an acyclicity check before being reported:

* edge-count bound: the label set of all CI links;
* tree-exact value: forest cover of a tree CI, which is the exact
  decycling number in that case;
* general bound: break the CI graph down to a simple forest first (drop
  all but one link of every parallel bundle plus a feedback link set),
  collect the dropped labels, then cover the surviving cycles as in the
  tree case.

An exhaustive oracle computes the exact decycling number for small
graphs and anchors every bound in the tests.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import accumulate, chain
from operator import itemgetter
from typing import Iterable, Optional

from .cigraph import CIGraph, _build_ci, _closing_links, _link_count
from .cigraph import cover_size, cycle_rank, is_simple, msf, restrict_ci
from .decompose import CycleDecomposition, _decompose_greedy, _require_valid
from .errors import (
    DisconnectedError,
    InvalidDecompositionError,
    InvariantError,
    NotEvenError,
    OracleLimitError,
)
from .multigraph import DecyclingSet, Multigraph, is_acyclic
from .multigraph import is_connected, is_even

DEFAULT_ORACLE_LIMIT = 20


def verify_decycling(g: Multigraph, s: Iterable[int]) -> bool:
    """True iff deleting ``s`` leaves an acyclic graph; ``ValueError``
    for a vertex id not in ``g``."""
    gone = {int(v) for v in s}
    unknown = gone.difference(g.vertices)
    if unknown:
        raise ValueError(f"unknown vertex id {min(unknown)}")
    return is_acyclic(g, gone)


def certify(g: Multigraph, vertices: Iterable[int]) -> DecyclingSet:
    """Wrap a vertex set after checking it really decycles ``g``."""
    vs = frozenset(vertices)
    if not verify_decycling(g, vs):
        raise InvariantError(f"constructed set {sorted(vs)} does not decycle the graph")
    return DecyclingSet(vs, certified=True)


def bound_edge_count(ci: CIGraph) -> int:
    """Upper bound on the decycling number: the CI link count."""
    return _link_count(ci)


# -- construction from CI structure ------------------------------------------


def _strip_to_forest(ci: CIGraph) -> set[int]:
    """Labels of a link set whose removal leaves the CI graph a simple
    forest: the surplus of every parallel bundle plus a feedback set.

    Labels that recur across bundles are dropped preferentially so the
    same graph vertex pays for several removals.
    """
    parallel: dict[int, int] = {}  # label -> its links in parallel bundles
    for labels in ci.bundles.values():
        if len(labels) > 1:
            for label in labels:
                parallel[label] = parallel.get(label, 0) + 1
    count = parallel.__getitem__
    removed: set[int] = set()
    survivors: list[tuple[int, int, int]] = []
    for (a, b), labels in ci.bundles.items():
        if len(labels) > 1:
            # labels ascend, so ties go to the smallest label
            keep = min(labels, key=count)
            removed.update(label for label in labels if label != keep)
        else:
            keep = labels[0]
        survivors.append((a, b, keep))
    # feedback links of the remaining simple graph: grow a spanning
    # forest, preferring to keep links whose labels are not yet paid for
    survivors.sort(key=itemgetter(2, 0, 1))
    unpaid = [link for link in survivors if link[2] not in removed]
    paid = [link for link in survivors if link[2] in removed]
    closing = _closing_links(ci.node_count, chain(unpaid, paid))
    removed.update(label for _, _, label in closing)
    return removed


def _construct_decycling(
    g: Multigraph, d: CycleDecomposition, ci: CIGraph
) -> DecyclingSet:
    """The general construction: strip ``ci`` to a forest, cover the
    surviving cycles, certify.

    A matched cover link contributes its label (killing both endpoint
    cycles); an isolated node contributes one vertex of its cycle,
    preferably one lying on no other surviving cycle.
    """
    stripped_labels = _strip_to_forest(ci)
    alive = [
        i
        for i, cyc in enumerate(d.cycles)
        if stripped_labels.isdisjoint(cyc.vertices)
    ]
    if not stripped_labels:
        sub_ci = ci
    else:
        sub_ci = restrict_ci(ci, alive) if alive else CIGraph(0)
    if cycle_rank(sub_ci) != 0:
        raise InvariantError("surviving cycles still form a cyclic CI graph")
    if not alive:
        return certify(g, stripped_labels)
    cover = msf(sub_ci)
    on_alive = Counter(v for i in alive for v in d.cycles[i].vertices)
    picks = {link.label for link in cover.chosen_links}
    for node in cover.isolated_nodes:
        cyc = d.cycles[alive[node]]
        picks.add(min(cyc.vertices, key=lambda v: (on_alive[v] > 1, v)))
    return certify(g, stripped_labels | picks)


def decycle_tree_ci(
    g: Multigraph, d: CycleDecomposition, ci: CIGraph
) -> DecyclingSet:
    """Certified decycling set of forest-cover size; requires a forest CI
    and, like ``decycle_general``, a valid ``d``."""
    if cycle_rank(ci) != 0:
        raise InvalidDecompositionError("CI graph is cyclic; use decycle_general")
    return decycle_general(g, d, ci)


def decycle_general(
    g: Multigraph, d: CycleDecomposition, ci: CIGraph
) -> DecyclingSet:
    """Certified decycling set for an arbitrary CI graph.

    On a forest CI this degenerates to ``decycle_tree_ci`` exactly: the
    strip step removes nothing and only the cover picks remain. Raises
    ``InvalidDecompositionError`` unless ``d`` decomposes ``g``.
    """
    _require_valid(g, d)
    return _construct_decycling(g, d, ci)


# -- exhaustive oracle --------------------------------------------------------


def exact_decycling_number(
    g: Multigraph, limit: Optional[int] = None
) -> tuple[int, DecyclingSet]:
    """Smallest decycling set by exhaustive search over vertex subsets.

    Tries sizes 0, 1, 2, ... and returns the lexicographically first
    witness of the minimum size. Refuses graphs over ``limit`` vertices
    (default 20); pass a higher limit at your own risk.

    Subsets are walked depth first in ``combinations`` order. A forest
    on r vertices has at most r - 1 edges, so a k-subset is tested for
    acyclicity only if it removes at least ``m - max(n - k - 1, 0)``
    edges, and a branch is dropped once even the largest degrees left
    to pick cannot reach that count. Only subsets that cannot be
    decycling are skipped, so the first witness is unchanged.
    """
    cap = DEFAULT_ORACLE_LIMIT if limit is None else limit
    if g.n_vertices > cap:
        raise OracleLimitError(
            f"graph has {g.n_vertices} vertices, over the exhaustive-search "
            f"limit of {cap}"
        )
    verts = g.vertices
    n, m = len(verts), g.n_edges
    index = {v: i for i, v in enumerate(verts)}
    deg = [g.degree(v) for v in verts]
    mult = [[0] * n for _ in range(n)]  # parallel edges between i and j
    for _, u, v in g.edges():
        i, j = index[u], index[v]
        mult[i][j] += 1
        mult[j][i] += 1
    # reach[i][r]: the r largest degrees among vertices i.. summed; it
    # bounds what r more picks from i on can remove, and falls as i grows
    reach = [
        list(accumulate(sorted(deg[i:], reverse=True), initial=0))
        for i in range(n + 1)
    ]
    for k in range(n + 1):
        need = m - max(n - k - 1, 0)
        # an explicit stack: a nested function that calls itself is a
        # reference cycle, which lives until the cyclic collector runs
        chosen: list[int] = []
        removed = [0]  # edges removed by each prefix of chosen
        i = 0  # the next candidate for the next pick
        while True:
            left = k - len(chosen)
            if left and i <= n - left and removed[-1] + reach[i][left] >= need:
                removed.append(
                    removed[-1] + deg[i] - sum(mult[i][j] for j in chosen)
                )
                chosen.append(i)
                i += 1
                continue
            if not left and removed[-1] >= need:
                subset = frozenset(verts[j] for j in chosen)
                if is_acyclic(g, subset):
                    return k, DecyclingSet(subset, certified=True)
            if not chosen:
                break
            removed.pop()
            i = chosen.pop() + 1
    raise InvariantError("subset search exhausted without an acyclic remainder")


# -- full report --------------------------------------------------------------


@dataclass
class BoundReport:
    """All bounds for one connected even graph, with certified witnesses.

    ``edge_count_bound`` is omitted (None) when some decomposition cycle
    meets no other cycle, because the link-label witness cannot break
    such a cycle; the tree route covers that case. ``rank_cover_gap`` is
    a diagnostic only (CI cycle rank minus forest-cover size); it can go
    negative and is never used as a bound.
    """

    general_bound: int
    edge_count_bound: Optional[int] = None
    tree_exact: Optional[int] = None
    exact: Optional[int] = None
    witness_sets: dict[str, DecyclingSet] = field(default_factory=dict)
    n_vertices: int = 0
    n_edges: int = 0
    ci_nodes: int = 0
    ci_links: int = 0
    ci_rank: int = 0
    ci_simple: bool = True
    rank_cover_gap: Optional[int] = None
    decomposition: Optional[CycleDecomposition] = None

    def to_json_obj(self) -> dict:
        obj = {
            "graph": {"vertices": self.n_vertices, "edges": self.n_edges},
            "ci": {
                "nodes": self.ci_nodes,
                "links": self.ci_links,
                "rank": self.ci_rank,
                "simple": self.ci_simple,
            },
            "bounds": {
                "edge_count": self.edge_count_bound,
                "tree_exact": self.tree_exact,
                "general": self.general_bound,
                "exact": self.exact,
            },
            "rank_cover_gap": self.rank_cover_gap,
            "witnesses": {
                name: ds.sorted_vertices()
                for name, ds in sorted(self.witness_sets.items())
            },
        }
        if self.decomposition is not None:
            obj["decomposition"] = self.decomposition.to_json_obj()
        return obj


def analyze(
    g: Multigraph,
    d: Optional[CycleDecomposition] = None,
    *,
    seed: int = 0,
    oracle_limit: Optional[int] = None,
) -> BoundReport:
    """Full bound report for a connected even graph.

    Uses the greedy decomposition when none is given. The exact value is
    filled in only when the graph fits under the oracle limit.
    """
    if not is_even(g):
        raise NotEvenError("graph is not even: some vertex has odd degree")
    if not is_connected(g):
        raise DisconnectedError(
            "graph is disconnected; analyze components separately"
        )
    if d is None:
        d = _decompose_greedy(g, seed)
    else:
        _require_valid(g, d)
    return _report(g, d, oracle_limit)


def _report(
    g: Multigraph, d: CycleDecomposition, oracle_limit: Optional[int]
) -> BoundReport:
    """``analyze`` of a connected even graph and a valid decomposition."""
    ci = _build_ci(d)
    rank = cycle_rank(ci)
    n_links = bound_edge_count(ci)
    witnesses: dict[str, DecyclingSet] = {}

    linked = set(chain.from_iterable(ci.bundles))
    edge_count_bound = None
    if len(linked) == ci.node_count:  # every cycle meets another one
        edge_count_bound = n_links
        witnesses["edge_count"] = certify(g, chain.from_iterable(ci.bundles.values()))

    # on a forest CI the general construction is the tree construction,
    # and its witness has the size of a minimum forest cover (nothing is
    # stripped, no vertex picked twice); otherwise only that size is needed
    general_set = _construct_decycling(g, d, ci)
    tree_exact = None
    if rank == 0:
        witnesses["tree"] = general_set
        tree_exact = min_cover = len(general_set)
    else:
        min_cover = cover_size(ci)
    witnesses["general"] = general_set

    exact = None
    cap = DEFAULT_ORACLE_LIMIT if oracle_limit is None else oracle_limit
    if g.n_vertices <= cap:
        exact, exact_set = exact_decycling_number(g, cap)
        witnesses["exact"] = exact_set

    return BoundReport(
        general_bound=len(general_set),
        edge_count_bound=edge_count_bound,
        tree_exact=tree_exact,
        exact=exact,
        witness_sets=witnesses,
        n_vertices=g.n_vertices,
        n_edges=g.n_edges,
        ci_nodes=ci.node_count,
        ci_links=n_links,
        ci_rank=rank,
        ci_simple=is_simple(ci),
        rank_cover_gap=rank - min_cover,
        decomposition=d,
    )


def analyze_components(
    g: Multigraph,
    d: Optional[CycleDecomposition] = None,
    *,
    seed: int = 0,
    oracle_limit: Optional[int] = None,
) -> list[BoundReport]:
    """Analyze each connected component; bounds add across components."""
    if not is_even(g):
        raise NotEvenError("graph is not even: some vertex has odd degree")
    if d is not None:
        _require_valid(g, d)
    # a graph with no vertex has no component but is still one part
    parts = g.components() or [g]
    if d is None:
        part_ds = [_decompose_greedy(part, seed) for part in parts]
    else:
        # a cycle lies in the part of any of its edges
        part_of = {e: i for i, part in enumerate(parts) for e in part.edge_ids}
        cycles: list[list] = [[] for _ in parts]
        for c in d.cycles:
            cycles[part_of[c.edges[0]]].append(c)
        part_ds = [CycleDecomposition(tuple(cs)) for cs in cycles]
    return [_report(p, pd, oracle_limit) for p, pd in zip(parts, part_ds)]


def merge_reports(reports: list[BoundReport]) -> BoundReport:
    """Componentwise sum of reports; optional fields survive only when
    present in every part."""

    def opt_sum(values):
        vals = list(values)
        if any(v is None for v in vals):
            return None
        return sum(vals)

    witnesses: dict[str, DecyclingSet] = {}
    for name in ("edge_count", "tree", "general", "exact"):
        if all(name in r.witness_sets for r in reports):
            union = frozenset().union(
                *(r.witness_sets[name].vertices for r in reports)
            )
            certified = all(r.witness_sets[name].certified for r in reports)
            witnesses[name] = DecyclingSet(union, certified=certified)
    return BoundReport(
        general_bound=sum(r.general_bound for r in reports),
        edge_count_bound=opt_sum(r.edge_count_bound for r in reports),
        tree_exact=opt_sum(r.tree_exact for r in reports),
        exact=opt_sum(r.exact for r in reports),
        witness_sets=witnesses,
        n_vertices=sum(r.n_vertices for r in reports),
        n_edges=sum(r.n_edges for r in reports),
        ci_nodes=sum(r.ci_nodes for r in reports),
        ci_links=sum(r.ci_links for r in reports),
        ci_rank=sum(r.ci_rank for r in reports),
        ci_simple=all(r.ci_simple for r in reports),
        rank_cover_gap=None,
        decomposition=None,
    )

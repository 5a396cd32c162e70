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
from itertools import accumulate
from operator import itemgetter
from typing import Iterable, Optional

from .cigraph import CIGraph, _build_ci, _closing_links
from .cigraph import cover_size, cycle_rank, is_simple, msf, restrict_ci
from .decompose import CycleDecomposition, _decompose_greedy, _require_valid
from .errors import (
    DisconnectedError,
    InvalidDecompositionError,
    InvariantError,
    OracleLimitError,
)
from .multigraph import DecyclingSet, Multigraph, _id_set, _require_even
from .multigraph import is_acyclic, is_connected

DEFAULT_ORACLE_LIMIT = 20


def verify_decycling(g: Multigraph, s: Iterable[int]) -> bool:
    """True iff deleting ``s`` leaves an acyclic graph; ``ValueError``
    for a vertex id not in ``g``, ``TypeError`` for one not an integer
    or a bool."""
    gone = _id_set(s)
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
    # forest over the links whose labels are not yet paid for; a paid
    # link that closes a cycle would add a label already removed
    unpaid = [link for link in survivors if link[2] not in removed]
    unpaid.sort(key=itemgetter(2, 0, 1))
    removed.update(label for _, _, label in _closing_links(ci.node_count, unpaid))
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
    if not alive:
        return certify(g, stripped_labels)
    sub_ci = restrict_ci(ci, alive) if stripped_labels else ci
    if cycle_rank(sub_ci) != 0:
        raise InvariantError("surviving cycles still form a cyclic CI graph")
    matching, isolated = msf(sub_ci)
    on_alive = Counter(v for i in alive for v in d.cycles[i].vertices)
    picks = {link.label for link in matching}
    for node in isolated:
        cyc = d.cycles[alive[node]]
        picks.add(min(cyc.vertices, key=lambda v: (on_alive[v] > 1, v)))
    return certify(g, stripped_labels | picks)


def decycle_tree_ci(
    g: Multigraph, d: CycleDecomposition, ci: CIGraph
) -> DecyclingSet:
    """Certified decycling set of forest-cover size; requires a forest CI
    and, like ``decycle_general``, a valid ``d`` and its ``ci``."""
    if cycle_rank(ci) != 0:
        raise InvalidDecompositionError("CI graph is cyclic; use decycle_general")
    return decycle_general(g, d, ci)


def decycle_general(
    g: Multigraph, d: CycleDecomposition, ci: CIGraph
) -> DecyclingSet:
    """Certified decycling set for an arbitrary CI graph.

    On a forest CI this degenerates to ``decycle_tree_ci`` exactly: the
    strip step removes nothing and only the cover picks remain. Raises
    ``InvalidDecompositionError`` unless ``d`` decomposes ``g`` and
    ``ci`` is its CI graph.
    """
    _require_valid(g, d)
    if ci != _build_ci(d):
        raise InvalidDecompositionError("ci is not the CI graph of the decomposition")
    return _construct_decycling(g, d, ci)


# -- exhaustive oracle --------------------------------------------------------


def _oracle_cap(limit: Optional[int]) -> int:
    """The oracle's vertex limit, the default for None; refuses one that
    is not an integer or is below 0."""
    if limit is None:
        return DEFAULT_ORACLE_LIMIT
    if type(limit) is not int:  # a bool is an int, but not a limit
        raise ValueError(f"oracle limit must be an integer, not {limit!r}")
    if limit < 0:
        raise ValueError(f"oracle limit must be at least 0, not {limit}")
    return limit


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
    cap = _oracle_cap(limit)
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


def _witness_size(name: str) -> property:
    """A bound read off the witness ``name``: its size, None without one."""
    return property(
        lambda r: len(r.witness_sets[name]) if name in r.witness_sets else None
    )


@dataclass
class BoundReport:
    """All bounds for one connected even graph, with certified witnesses.

    Each bound is read off its witness, so the two cannot disagree:
    ``general_bound``, ``tree_exact`` and ``exact`` are the sizes of the
    ``general``, ``tree`` and ``exact`` witnesses. ``edge_count_bound``
    is ``ci_links``, parallel links counted one by one, while its
    witness holds each label once. A bound is None when its witness is
    absent: there is no ``edge_count`` witness when some decomposition
    cycle meets no other cycle, because the link-label set cannot break
    such a cycle; the tree route covers that case. ``rank_cover_gap`` is
    a diagnostic only (CI cycle rank minus forest-cover size); it can go
    negative and is never used as a bound.
    """

    witness_sets: dict[str, DecyclingSet] = field(default_factory=dict)
    n_vertices: int = 0
    n_edges: int = 0
    ci_nodes: int = 0
    ci_links: int = 0
    ci_rank: int = 0
    ci_simple: bool = True
    rank_cover_gap: Optional[int] = None
    decomposition: Optional[CycleDecomposition] = None

    general_bound = _witness_size("general")
    tree_exact = _witness_size("tree")
    exact = _witness_size("exact")

    @property
    def edge_count_bound(self) -> Optional[int]:
        return self.ci_links if "edge_count" in self.witness_sets else None

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
    cap = _oracle_cap(oracle_limit)
    _require_even(g)
    if not is_connected(g):
        raise DisconnectedError(
            "graph is disconnected; analyze components separately"
        )
    if d is None:
        d = _decompose_greedy(g, seed)
    else:
        _require_valid(g, d)
    return _report(g, d, cap)


def _ci_link_count(g: Multigraph) -> int:
    """The link count of the CI graph of every decomposition of ``g``:
    a cycle through v uses two of its edges, so v lies on deg(v)/2
    cycles of any decomposition and adds C(deg(v)/2, 2) links."""
    return sum(k * (k - 1) // 2 for k in (g.degree(v) // 2 for v in g.vertices))


def _report(g: Multigraph, d: CycleDecomposition, cap: int) -> BoundReport:
    """``analyze`` of a connected even graph and a valid decomposition,
    with the oracle run up to ``cap`` vertices. The CI of a connected
    graph is connected: its rank is links - nodes + 1 (0 with no node)."""
    ci = _build_ci(d)
    links = _ci_link_count(g)
    rank = links - len(d) + 1 if len(d) else 0
    witnesses: dict[str, DecyclingSet] = {}

    if len(d) != 1:  # every cycle meets another; labels lie on 2+ cycles
        witnesses["edge_count"] = certify(g, (v for v in g.vertices if g.degree(v) > 2))

    # on a forest CI the general construction is the tree construction,
    # and its witness has the size of a minimum forest cover (nothing is
    # stripped, no vertex picked twice); otherwise only that size is needed
    general_set = _construct_decycling(g, d, ci)
    if rank == 0:
        witnesses["tree"] = general_set
    witnesses["general"] = general_set
    min_cover = len(general_set) if rank == 0 else cover_size(ci)

    if g.n_vertices <= cap:
        witnesses["exact"] = exact_decycling_number(g, cap)[1]

    return BoundReport(
        witness_sets=witnesses,
        n_vertices=g.n_vertices,
        n_edges=g.n_edges,
        ci_nodes=ci.node_count,
        ci_links=links,
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
    cap = _oracle_cap(oracle_limit)
    _require_even(g)
    # a graph with no vertex has no component but is still one part
    parts = g.components() or [g]
    if d is None:
        part_ds = [_decompose_greedy(part, seed) for part in parts]
    else:
        _require_valid(g, d)
        # a cycle lies in the part of any of its edges
        part_of = {e: i for i, part in enumerate(parts) for e in part.edge_ids}
        cycles: list[list] = [[] for _ in parts]
        for c in d.cycles:
            cycles[part_of[c.edges[0]]].append(c)
        part_ds = [CycleDecomposition(tuple(cs)) for cs in cycles]
    return [_report(p, pd, cap) for p, pd in zip(parts, part_ds)]


def merge_reports(reports: list[BoundReport]) -> BoundReport:
    """Componentwise sum of reports. A witness, and with it its bound,
    survives only when every part has one; the parts are vertex-disjoint,
    so the union's size is the sum of the parts' bounds."""
    witnesses: dict[str, DecyclingSet] = {}
    for name in ("edge_count", "tree", "general", "exact"):
        parts = [r.witness_sets.get(name) for r in reports]
        if None not in parts:
            union = frozenset().union(*(w.vertices for w in parts))
            witnesses[name] = DecyclingSet(union, all(w.certified for w in parts))
    return BoundReport(
        witness_sets=witnesses,
        n_vertices=sum(r.n_vertices for r in reports),
        n_edges=sum(r.n_edges for r in reports),
        ci_nodes=sum(r.ci_nodes for r in reports),
        ci_links=sum(r.ci_links for r in reports),
        ci_rank=sum(r.ci_rank for r in reports),
        ci_simple=all(r.ci_simple for r in reports),
    )

"""Cycle intersection graphs and their structural quantities.

The cycle intersection graph of a decomposition has one node per cycle
and one labeled link per graph vertex shared by a pair of cycles; a
vertex lying on k cycles therefore contributes a clique of C(k,2) links
all carrying its label. On top of the graph itself this module computes
simplicity, cycle rank, exact maximum matchings, and the minimum forest
cover (edges plus isolated nodes) that drives the decycling bounds.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, groupby
from operator import itemgetter
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple

from .decompose import CycleDecomposition, _require_valid
from .multigraph import Multigraph, find_root


class Link(NamedTuple):
    """Labeled link between two cycle nodes; ``label`` is the shared
    graph vertex. A named tuple, about half the cost of a frozen
    dataclass to build, and a CI of a dense graph has thousands."""

    a: int
    b: int
    label: int

    def pair(self) -> tuple[int, int]:
        return (self.a, self.b)


@dataclass(frozen=True, init=False)
class CIGraph:
    """A node per cycle and, per node pair that shares graph vertices,
    its bundle: the labels of those vertices in ascending order. A
    bundle of k labels stands for k parallel links. Compared by value;
    ``bundles`` is read-only and every other quantity derives from it.

    ``CIGraph(node_count, links)`` takes the links in any order.
    """

    node_count: int
    bundles: Mapping[tuple[int, int], tuple[int, ...]]

    def __init__(self, node_count: int, links: Iterable[Link] = ()) -> None:
        grouped = groupby(sorted(links), itemgetter(0, 1))
        bundles = {pair: tuple(l[2] for l in group) for pair, group in grouped}
        _init_ci(self, node_count, bundles)

    def __hash__(self) -> int:
        return hash((self.node_count, frozenset(self.bundles.items())))

    def __reduce__(self):  # a mapping proxy cannot be pickled or copied
        return _ci_of, (self.node_count, dict(self.bundles))

    @cached_property
    def links(self) -> tuple[Link, ...]:
        """Every link, sorted by (a, b, label). Derived on first use:
        the bounds read the bundles and never need it."""
        return tuple(
            Link(a, b, label)
            for (a, b), labels in sorted(self.bundles.items())
            for label in labels
        )

    def to_json_obj(self) -> dict:
        return {
            "nodes": self.node_count,
            "links": [[l.a, l.b, l.label] for l in self.links],
        }


def _init_ci(ci: CIGraph, node_count: int, bundles: dict) -> CIGraph:
    """Set the fields of ``ci``. ``bundles`` maps each pair to a tuple
    of its labels in ascending order; it is wrapped, not copied."""
    object.__setattr__(ci, "node_count", node_count)
    object.__setattr__(ci, "bundles", MappingProxyType(bundles))
    return ci


def _ci_of(node_count: int, bundles: dict) -> CIGraph:
    """A ``CIGraph`` made straight from its bundles, with no links."""
    return _init_ci(object.__new__(CIGraph), node_count, bundles)


def _link_count(ci: CIGraph) -> int:
    """The number of links, parallel ones counted one by one."""
    return sum(map(len, ci.bundles.values()))


@dataclass(frozen=True)
class ForestCover:
    """Acyclic links plus isolated nodes covering every CI node.

    ``size`` counts chosen links and isolated nodes alike, one unit each.
    """

    chosen_links: tuple[Link, ...]
    isolated_nodes: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.chosen_links) + len(self.isolated_nodes)


def build_ci(g: Multigraph, d: CycleDecomposition) -> CIGraph:
    """Cycle intersection graph of ``d``: a node per cycle, a link per
    shared vertex per cycle pair. Raises ``InvalidDecompositionError``
    unless ``d`` is a cycle decomposition of ``g``."""
    _require_valid(g, d)
    return _build_ci(d)


def _build_ci(d: CycleDecomposition) -> CIGraph:
    """``build_ci`` for a decomposition already known to be valid: each
    vertex, in ascending order, adds its label to the bundle of every
    pair of the cycles through it."""
    through: dict[int, list[int]] = {}
    for i, cyc in enumerate(d.cycles):
        for v in cyc.vertices:
            if v in through:
                through[v].append(i)
            else:
                through[v] = [i]
    bundles: dict[tuple[int, int], tuple[int, ...]] = {}
    get = bundles.get
    for v in sorted(through):
        on = through[v]
        if len(on) > 1:
            for pair in combinations(on, 2):
                bundles[pair] = get(pair, ()) + (v,)
    return _ci_of(len(d.cycles), bundles)


def _closing_links(node_count: int, links) -> list:
    """The links that close a cycle with the links before them in the
    given order; the others form a spanning forest. A link is any
    sequence that starts with its two end nodes."""
    parent = list(range(node_count))
    joins_left = node_count - 1
    closing = []
    links = iter(links)
    for link in links:
        ra, rb = find_root(parent, link[0]), find_root(parent, link[1])
        if ra == rb:
            closing.append(link)
            continue
        parent[ra] = rb
        joins_left -= 1
        if not joins_left:  # a spanning tree: every later link closes
            closing.extend(links)
            break
    return closing


def is_simple(ci: CIGraph) -> bool:
    """True iff no two links join the same node pair."""
    return max(map(len, ci.bundles.values()), default=1) == 1


def cycle_rank(ci: CIGraph) -> int:
    """First Betti number: links - nodes + components. Parallel links
    close a cycle each, so only the node pairs need a union-find."""
    pairs = ci.bundles
    return _link_count(ci) - len(pairs) + len(_closing_links(ci.node_count, pairs))


def restrict_ci(ci: CIGraph, keep: list[int]) -> CIGraph:
    """CI subgraph induced on ``keep``; node i of the subgraph is the
    i-th smallest node of ``keep``. ``ValueError`` for a repeated node
    or one not in ``ci``."""
    keep = sorted(keep)
    index = {old: new for new, old in enumerate(keep)}
    if len(index) < len(keep):
        raise ValueError("keep repeats a node")
    if keep and not (0 <= keep[0] and keep[-1] < ci.node_count):
        raise ValueError(f"keep has a node outside 0..{ci.node_count - 1}")
    bundles = {
        (index[a], index[b]): labels
        for (a, b), labels in ci.bundles.items()
        if a in index and b in index
    }
    return _ci_of(len(keep), bundles)


# -- exact maximum matching -------------------------------------------------


def _augment(
    adj: list[list[int]], match: list[int], gone: list[bool], root: int
) -> bool:
    """One augmenting-path BFS with blossom contraction from the free
    vertex ``root``, ignoring vertices marked ``gone``. Flips the path
    into ``match`` (the mate array, -1 unmatched) and returns whether one
    was found."""
    n = len(adj)
    p = [-1] * n
    base = list(range(n))
    used = [False] * n

    def lca(a: int, b: int) -> int:
        seen = [False] * n
        while True:
            a = base[a]
            seen[a] = True
            if match[a] == -1:
                break
            a = p[match[a]]
        while True:
            b = base[b]
            if seen[b]:
                return b
            b = p[match[b]]

    def mark_path(v: int, b: int, child: int, blossom: list[bool]) -> None:
        while base[v] != b:
            blossom[base[v]] = True
            blossom[base[match[v]]] = True
            p[v] = child
            child = match[v]
            v = p[match[v]]

    used[root] = True
    queue = deque([root])
    while queue:
        v = queue.popleft()
        for to in adj[v]:
            if gone[to] or base[v] == base[to] or match[v] == to:
                continue
            if to == root or (match[to] != -1 and p[match[to]] != -1):
                curbase = lca(v, to)
                blossom = [False] * n
                mark_path(v, curbase, to, blossom)
                mark_path(to, curbase, v, blossom)
                for i in range(n):
                    if blossom[base[i]]:
                        base[i] = curbase
                        if not used[i]:
                            used[i] = True
                            queue.append(i)
            elif p[to] == -1:
                p[to] = v
                if match[to] == -1:
                    u = to
                    while u != -1:
                        pv = p[u]
                        ppv = match[pv]
                        match[u] = pv
                        match[pv] = u
                        u = ppv
                    return True
                used[match[to]] = True
                queue.append(match[to])
    return False


def _max_mates(ci: CIGraph) -> tuple[list[list[int]], list[int]]:
    """Adjacency lists of the collapsed simple graph and a maximum
    matching of it as a mate array (-1 unmatched): a greedy maximal
    matching in bundle order, then one augmenting search from each free
    node. No later augmentation can start from a node that had none."""
    n = ci.node_count
    adj: list[list[int]] = [[] for _ in range(n)]
    match = [-1] * n
    for a, b in ci.bundles:
        adj[a].append(b)
        adj[b].append(a)
        if match[a] == match[b] == -1:
            match[a], match[b] = b, a
    gone = [False] * n
    for v in range(n):
        if match[v] == -1:
            _augment(adj, match, gone, v)
    return adj, match


def max_matching(ci: CIGraph) -> tuple[Link, ...]:
    """A maximum-cardinality matching of the collapsed simple graph.

    Exact on non-bipartite graphs. Among all maximum matchings the one
    chosen is lexicographically first in pair order, so results are
    reproducible run to run. Each pair is represented by the link of
    the smallest label in its bundle.
    """
    bundles = ci.bundles
    adj, match = _max_mates(ci)
    gone = [False] * ci.node_count
    # ``match`` stays a maximum matching of the nodes not ``gone``, and a
    # pair (a, b) is kept iff dropping a and b costs it exactly one edge.
    # That depends on the graph alone, not on the matching it starts from.
    # It holds at once if a-b is matched or one end is free (both
    # cannot be: a-b would augment). Otherwise a and b are matched to c
    # and d, dropping both edges costs two, and the pair is kept iff one
    # augmenting path appears. It must end at c or d: a path between two
    # vertices free before the drop would have augmented ``match``.
    chosen: list[Link] = []
    for a, b in sorted(bundles):
        if gone[a] or gone[b]:
            continue
        c, d = match[a], match[b]
        for v in (a, b, c, d):
            if v != -1:
                match[v] = -1
        gone[a] = gone[b] = True
        if c not in (b, -1) and d != -1 and not (
            _augment(adj, match, gone, c) or _augment(adj, match, gone, d)
        ):
            match[a], match[c], match[b], match[d] = c, a, d, b
            gone[a] = gone[b] = False
            continue
        chosen.append(Link(a, b, bundles[(a, b)][0]))
    return tuple(chosen)


def cover_size(ci: CIGraph) -> int:
    """``msf(ci).size`` without choosing the cover: node count minus the
    size of a maximum matching, any maximum matching."""
    unmatched = _max_mates(ci)[1].count(-1)
    return ci.node_count - (ci.node_count - unmatched) // 2


def msf(ci: CIGraph) -> ForestCover:
    """Minimum forest cover: a maximum matching plus isolated nodes.

    Leaving every unsaturated node isolated costs one unit either way,
    so the cover size always equals node count minus matching size.
    """
    matching = max_matching(ci)
    saturated = {v for link in matching for v in link.pair()}
    isolated = tuple(v for v in range(ci.node_count) if v not in saturated)
    return ForestCover(matching, isolated)


def to_dot(ci: CIGraph) -> str:
    lines = ["graph CI {"]
    for v in range(ci.node_count):
        lines.append(f'  {v} [label="cycle {v}"];')
    for link in ci.links:
        lines.append(f'  {link.a} -- {link.b} [label="v{link.label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"

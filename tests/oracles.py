"""Independent brute-force references used to anchor the package.

Everything here works on raw data (vertex lists, endpoint pairs) and
avoids the package's own data structures and algorithms: acyclicity is
decided by leaf peeling instead of union-find, matchings and covers by
exhaustive search. Two oracles are exceptions. ``oracle_movable_subsets``
tests every cycle subset on the package's ``Multigraph``
(``restricted_to_edges`` and ``is_connected``), as the reference for the
subset growth in ``decompose``. ``oracle_best_decomposition`` scores every
enumerated decomposition with the package's CI and bound, as the
reference for the optimizer's lazy objective.
``oracle_greedy`` reads the package's ``Multigraph`` to walk it.
"""

import random
from itertools import combinations

from decycle.cigraph import build_ci, cycle_rank
from decycle.decompose import enumerate_decompositions
from decycle.decycling import decycle_general
from decycle.multigraph import is_connected


def oracle_acyclic(vertices, edges) -> bool:
    """Leaf peeling: keep deleting degree <= 1 vertices; a cycle is
    whatever survives. ``edges`` is a list of (u, v) pairs, parallels
    allowed."""
    deg = {v: 0 for v in vertices}
    inc = {v: [] for v in vertices}
    for idx, (u, v) in enumerate(edges):
        deg[u] += 1
        deg[v] += 1
        inc[u].append(idx)
        inc[v].append(idx)
    alive = [True] * len(edges)
    stack = [v for v in vertices if deg[v] <= 1]
    removed = set()
    while stack:
        v = stack.pop()
        if v in removed:
            continue
        removed.add(v)
        for idx in inc[v]:
            if alive[idx]:
                alive[idx] = False
                u, w = edges[idx]
                other = w if v == u else u
                deg[other] -= 1
                if other not in removed and deg[other] <= 1:
                    stack.append(other)
    return not any(alive)


def oracle_decycling(vertices, edges):
    """Smallest vertex set whose removal kills all cycles, by scanning
    subsets in ascending size. Returns (size, one witness set)."""
    vs = sorted(vertices)
    for k in range(len(vs) + 1):
        for sub in combinations(vs, k):
            s = set(sub)
            kept = [(u, v) for u, v in edges if u not in s and v not in s]
            rest = [v for v in vs if v not in s]
            if oracle_acyclic(rest, kept):
                return k, s
    raise AssertionError("unreachable: empty graph is acyclic")


def oracle_greedy(g, seed) -> list:
    """The seeded greedy walk the plain way: from the lowest vertex with
    edges left, sort the unused edges at the walk's end, less the edge
    it came by, ``random.Random(seed).shuffle`` them and take the first;
    peel the cycle once the walk meets its own path. Returns each cycle
    as (vertices, edge ids), ordered by sorted edge ids."""
    rng = random.Random(seed)
    ends = {eid: (u, v) for eid, u, v in g.edges()}
    unused = set(ends)
    cycles = []
    for start in sorted(g.vertices):
        while any(start in ends[e] for e in unused):
            path, edges, v, last = [], [], start, None
            while v not in path:
                path.append(v)
                options = sorted(
                    e for e in unused if v in ends[e] and e != last
                )
                rng.shuffle(options)
                last = options[0]
                edges.append(last)
                u, w = ends[last]
                v = w if v == u else u
            i = path.index(v)
            cycles.append((tuple(path[i:]), tuple(edges[i:])))
            unused -= set(edges[i:])
    return sorted(cycles, key=lambda c: sorted(c[1]))


def oracle_ci_links(cycles) -> tuple:
    """CI links as (a, b, label) triples, by intersecting the vertex sets
    of every cycle pair in turn; ``cycles`` holds each cycle's vertices."""
    return tuple(
        (i, j, v)
        for i, j in combinations(range(len(cycles)), 2)
        for v in sorted(set(cycles[i]) & set(cycles[j]))
    )


def oracle_max_matching(pairs) -> int:
    """Maximum matching size by branch and bound over the pair list."""
    pairs = sorted(set(pairs))
    best = 0

    def rec(i, used, size):
        nonlocal best
        if size > best:
            best = size
        if i == len(pairs) or size + len(pairs) - i <= best:
            return
        a, b = pairs[i]
        if a not in used and b not in used:
            rec(i + 1, used | {a, b}, size + 1)
        rec(i + 1, used, size)

    rec(0, frozenset(), 0)
    return best


def oracle_lex_first_matching(pairs) -> list:
    """Smallest sorted pair list among all maximum matchings, found by
    listing every matching."""
    matchings = [[]]
    for a, b in sorted(set(pairs)):
        matchings += [
            m + [(a, b)] for m in matchings if not any({a, b} & set(p) for p in m)
        ]
    size = max(map(len, matchings))
    return min(m for m in matchings if len(m) == size)


def _is_forest(pairs) -> bool:
    parent = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra == rb:
            return False
        parent[ra] = rb
    return True


def oracle_min_forest_cover(n_nodes, pairs) -> int:
    """Minimum of (chosen links + untouched nodes) over all acyclic link
    subsets; the untouched nodes count as isolated cover members."""
    pairs = sorted(set(pairs))
    best = n_nodes  # choosing nothing leaves every node isolated
    max_links = min(len(pairs), max(n_nodes - 1, 0))
    for k in range(1, max_links + 1):
        for sub in combinations(pairs, k):
            if not _is_forest(sub):
                continue
            touched = {x for p in sub for x in p}
            best = min(best, k + n_nodes - len(touched))
    return best


def _is_single_simple_cycle(pairs) -> bool:
    """True iff the edges form one cycle visiting each vertex once; two
    parallel edges count as a 2-cycle."""
    if len(pairs) < 2:
        return False
    deg = {}
    adj = {}
    for u, v in pairs:
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    if any(d != 2 for d in deg.values()):
        return False
    start = next(iter(adj))
    seen = {start}
    stack = [start]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return len(seen) == len(adj)


def oracle_count_decompositions(edges) -> int:
    """Number of partitions of the edge list (by index) into simple
    cycles, counted by direct set partitioning."""
    memo = {}

    def rec(remaining: frozenset) -> int:
        if not remaining:
            return 1
        if remaining in memo:
            return memo[remaining]
        lowest = min(remaining)
        rest = sorted(remaining - {lowest})
        total = 0
        for k in range(1, len(rest) + 1):
            for sub in combinations(rest, k):
                group = (lowest,) + sub
                if _is_single_simple_cycle([edges[i] for i in group]):
                    total += rec(remaining - set(group))
        memo[remaining] = total
        return total

    return rec(frozenset(range(len(edges))))


def _cycle_partitions(edges, remaining: frozenset):
    """Every partition of the edge indices ``remaining`` into simple
    cycles, each given as a set of edge-index sets."""
    if not remaining:
        yield frozenset()
        return
    lowest = min(remaining)
    rest = sorted(remaining - {lowest})
    for k in range(1, len(rest) + 1):
        for sub in combinations(rest, k):
            group = frozenset((lowest,) + sub)
            if _is_single_simple_cycle([edges[i] for i in group]):
                for tail in _cycle_partitions(edges, remaining - group):
                    yield tail | {group}


def oracle_neighbor_keys(edges, key) -> set:
    """Decompositions (as sets of edge-index sets) that differ from
    ``key`` by a swap of two cycles for others, or of others for two:
    ``min(|d - d'|, |d' - d|) == 2``."""
    return {
        other
        for other in _cycle_partitions(edges, frozenset(range(len(edges))))
        if min(len(key - other), len(other - key)) == 2
    }


def oracle_movable_subsets(g, cycles) -> list:
    """Index tuples, in ``combinations`` order, of every set of two or more
    of ``cycles`` whose edge union has no vertex of degree over 4 and is
    connected: each of the 2^|d| - |d| - 1 sets is tested in turn."""
    found = []
    for size in range(2, len(cycles) + 1):
        for subset in combinations(range(len(cycles)), size):
            union = g.restricted_to_edges(
                eid for i in subset for eid in cycles[i].edges
            )
            low_degree = all(union.degree(v) <= 4 for v in union.vertices)
            if low_degree and is_connected(union):
                found.append(subset)
    return found


def oracle_best_decomposition(g):
    """(rank, bound, decomposition, count): the first decomposition of
    least (CI cycle rank, general bound, sort_key) over
    ``enumerate_decompositions``, every key computed in full, and the
    number of decompositions scored."""
    best = None
    count = 0
    for d in enumerate_decompositions(g):
        count += 1
        ci = build_ci(g, d)
        key = (cycle_rank(ci), len(decycle_general(g, d, ci)), d.sort_key)
        if best is None or key < best[0]:
            best = (key, d)
    (rank, bound, _), d = best
    return rank, bound, d, count

"""Cycle decompositions of even graphs.

A cycle decomposition partitions the edge set into simple cycles of
length >= 2 (length 2 is a digon made of two parallel edges). Every even
graph has at least one; this module produces them greedily, enumerates
all of them exhaustively by peeling cycles through the lowest uncovered
edge, and generates the local moves used by the decomposition optimizer.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

from .errors import InvalidDecompositionError, NotEvenError, ParseError
from .multigraph import Multigraph, is_even


@dataclass(frozen=True, slots=True)
class Cycle:
    """A simple cycle: ``edges[i]`` joins ``vertices[i]`` and ``vertices[i+1]``
    (cyclically)."""

    vertices: tuple[int, ...]
    edges: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.edges)


@dataclass(frozen=True, slots=True)
class CycleDecomposition:
    cycles: tuple[Cycle, ...]

    def __len__(self) -> int:
        return len(self.cycles)

    @property
    def sort_key(self) -> tuple[tuple[int, ...], ...]:
        """Identity and total order: the sorted edge ids of each cycle,
        sorted. Invariant under cycle order, rotation and reflection."""
        return tuple(sorted(tuple(sorted(c.edges)) for c in self.cycles))

    def to_json_obj(self) -> dict:
        return {
            "cycles": [list(c.vertices) for c in self.cycles],
            "edge_ids": [list(c.edges) for c in self.cycles],
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "CycleDecomposition":
        if not isinstance(obj, dict) or not {"cycles", "edge_ids"} <= obj.keys():
            raise ParseError(
                "decomposition must be a JSON object with 'cycles' and 'edge_ids'"
            )
        verts = obj["cycles"]
        eids = obj["edge_ids"]
        try:
            same_length = len(verts) == len(eids)
            cycles = tuple(
                Cycle(_json_ints(vs), _json_ints(es)) for vs, es in zip(verts, eids)
            )
        except TypeError:
            raise ParseError(
                "decomposition 'cycles' and 'edge_ids' must be lists of integer lists"
            ) from None
        if not same_length:
            raise InvalidDecompositionError(
                "cycles and edge_ids lists differ in length"
            )
        return cls(cycles)


def _json_ints(values) -> tuple[int, ...]:
    out = tuple(values)
    # JSON true, 1.9 and "01" are not integers, and int() would take them
    if not all(isinstance(x, int) and not isinstance(x, bool) for x in out):
        raise TypeError
    return out


def _sorted_cycles(cycles) -> tuple[Cycle, ...]:
    return tuple(sorted(cycles, key=lambda c: tuple(sorted(c.edges))))


# -- validation -----------------------------------------------------------


def decomposition_violations(g: Multigraph, d: CycleDecomposition) -> list[str]:
    """All ways ``d`` fails to be a cycle decomposition of ``g``."""
    problems: list[str] = []
    used: dict[int, int] = {}
    for idx, cyc in enumerate(d.cycles):
        k = len(cyc.vertices)
        if k != len(cyc.edges):
            problems.append(f"cycle {idx}: vertex and edge counts differ")
            continue
        if k < 2:
            problems.append(f"cycle {idx}: length {k} < 2")
            continue
        if len(set(cyc.vertices)) != k:
            problems.append(f"cycle {idx}: repeated vertex")
        for i, eid in enumerate(cyc.edges):
            a, b = cyc.vertices[i], cyc.vertices[(i + 1) % k]
            try:
                ends = g.endpoints(eid)
            except ValueError:
                problems.append(f"cycle {idx}: unknown edge id {eid}")
                continue
            if {a, b} != set(ends):
                problems.append(
                    f"cycle {idx}: edge {eid} does not join {a} and {b}"
                )
            if eid in used:
                problems.append(
                    f"cycle {idx}: edge {eid} already used by cycle {used[eid]}"
                )
            else:
                used[eid] = idx
    missing = set(g.edge_ids) - set(used)
    if missing:
        problems.append(f"edges not covered: {sorted(missing)}")
    return problems


def _require_valid(g: Multigraph, d: CycleDecomposition) -> None:
    problems = decomposition_violations(g, d)
    if problems:
        raise InvalidDecompositionError("; ".join(problems))


# -- greedy extraction -----------------------------------------------------


def decompose_greedy(g: Multigraph, seed: int = 0) -> CycleDecomposition:
    """Peel simple cycles off the graph until no edges remain.

    Walks from the lowest-id vertex with residual degree, choosing among
    incident edges in an order shuffled by ``seed``; the walk closes as
    soon as it revisits a vertex and that cycle is extracted. Evenness
    guarantees the walk never gets stuck, so all edges get covered.
    """
    if not is_even(g):
        raise NotEvenError("graph is not even")
    return _decompose_greedy(g, seed)


def _decompose_greedy(g: Multigraph, seed: int) -> CycleDecomposition:
    """``decompose_greedy`` of a graph already known to be even."""
    getrandbits = random.Random(seed).getrandbits
    # the residual edges at each vertex, in id order
    incident: dict[int, list[int]] = {v: [] for v in g.vertices}
    ends: dict[int, tuple[int, int]] = {}
    for eid, u, v in g.edges():
        incident[u].append(eid)
        incident[v].append(eid)
        ends[eid] = (u, v)
    cycles: list[Cycle] = []
    # removing edges never gives a lower vertex residual edges back, so
    # one ascending sweep finds the start of every walk
    for start in g.vertices:
        while incident[start]:
            position: dict[int, int] = {}  # path vertex -> its index
            path_edges: list[int] = []
            v, last = start, None
            while v not in position:
                position[v] = len(position)
                # a simple path touches its end only through its last
                # edge: draw over the other options, stepping past it
                options = incident[v]
                size = len(options) if last is None else len(options) - 1
                j = _first_after_shuffle(getrandbits, size) if size > 1 else 0
                if last is not None and j >= options.index(last):
                    j += 1
                last = options[j]
                path_edges.append(last)
                u, w = ends[last]
                v = w if v == u else u
            i = position[v]
            cyc_edges = tuple(path_edges[i:])
            for e in cyc_edges:
                for x in ends[e]:
                    incident[x].remove(e)
            cycles.append(Cycle(tuple(position)[i:], cyc_edges))
    return CycleDecomposition(_sorted_cycles(cycles))


def _first_after_shuffle(getrandbits, size: int) -> int:
    """The index of the item that ``random.shuffle`` of a list of
    ``size`` items moves to the front, drawing the same random numbers.

    The shuffle swaps item i with item j_i, for i from size - 1 down to
    1, with j_i drawn below i + 1 by ``getrandbits`` and rejection. Read
    back from the front: swap i moves position j_i's item to i, so
    following the swaps with j_i equal to the position tracked, for i
    going up, finds where the front item started.
    """
    draws = []
    for n in range(size, 1, -1):
        k = n.bit_length()
        j = getrandbits(k)
        while j >= n:
            j = getrandbits(k)
        draws.append(j)
    front = 0
    for i, j in enumerate(reversed(draws), 1):
        if j == front:
            front = i
    return front


# -- exhaustive enumeration by cycle peeling ---------------------------------
#
# The searches below keep their own stacks of iterators instead of
# recursing through nested generator functions: a nested function that
# calls itself is a reference cycle, which keeps every search alive until
# the cyclic garbage collector runs.

Adjacency = dict[int, list[tuple[int, int]]]  # vertex -> [(edge id, other end)]


def _cycles_through(
    adjacency: Adjacency,
    uncovered: set[int],
    e: int,
    start: int,
    first: int,
) -> Iterator[Cycle]:
    """Every simple cycle of the ``uncovered`` edges through edge ``e``,
    written from its endpoint ``start`` along ``e`` to ``first``."""
    verts = [start, first]
    eids = [e]
    on_path = {start, first}
    branches = [iter(adjacency[first])]  # the untried edges at each path vertex
    while branches:
        for f, w in branches[-1]:
            if f not in uncovered or f == eids[-1]:
                continue
            if w == start:
                yield Cycle(tuple(verts), tuple(eids) + (f,))
            elif w not in on_path:
                verts.append(w)
                eids.append(f)
                on_path.add(w)
                branches.append(iter(adjacency[w]))
                break
        else:
            branches.pop()
            on_path.discard(verts.pop())
            eids.pop()


def _peel(
    adjacency: Adjacency, endpoints, uncovered: set[int]
) -> Iterator[list[Cycle]]:
    """Every decomposition of the ``uncovered`` edges into simple cycles,
    once each, as the list of its cycles (valid until the next one).

    The lowest uncovered edge lies on exactly one cycle of any
    decomposition, so branching over every cycle through it and peeling
    on reaches each decomposition once. ``endpoints(e)`` gives an edge's
    ends lower first; each cycle is written from the lower end of its
    lowest edge, along that edge. ``uncovered`` is restored on exhaustion.
    """
    if not uncovered:
        yield []
        return
    chosen: list[Cycle] = []

    def branch() -> Iterator[Cycle]:
        # every edge below e is covered, so e is the lowest edge of each
        # cycle through it
        e = min(uncovered)
        return _cycles_through(adjacency, uncovered, e, *endpoints(e))

    levels = [branch()]
    while levels:
        if len(chosen) == len(levels):  # put back the top level's last cycle
            uncovered.update(chosen.pop().edges)
        cyc = next(levels[-1], None)
        if cyc is None:
            levels.pop()
            continue
        uncovered.difference_update(cyc.edges)
        chosen.append(cyc)
        if uncovered:
            levels.append(branch())
        else:
            yield chosen


def enumerate_decompositions(g: Multigraph) -> Iterator[CycleDecomposition]:
    """Yield every cycle decomposition of ``g`` exactly once.

    Peels cycles through the lowest uncovered edge. Removing a cycle
    leaves an even graph, so no branch dead-ends and the cost grows with
    the number of decompositions. Each cycle starts at the lower endpoint
    of its lowest edge id, along that edge.
    """
    if not is_even(g):
        raise NotEvenError("graph is not even")
    adjacency: Adjacency = {v: [] for v in g.vertices}
    for eid, u, v in g.edges():
        adjacency[u].append((eid, v))
        adjacency[v].append((eid, u))
    for chosen in _peel(adjacency, g.endpoints, set(g.edge_ids)):
        yield CycleDecomposition(_sorted_cycles(chosen))


# -- local moves ------------------------------------------------------------

KeyedCycle = tuple[tuple[int, ...], Cycle]  # (sorted edge ids, cycle)


def neighbors(g: Multigraph, d: CycleDecomposition) -> list[CycleDecomposition]:
    """Decompositions one merge/re-split move away from ``d``.

    A move replaces some cycles of ``d`` by another decomposition of
    their edge union. ``d'`` is a neighbour iff
    ``min(|d - d'|, |d' - d|) == 2``: two cycles re-split in any other
    way, or three or more cycles re-split into exactly two. The rule is
    symmetric.
    """
    _require_valid(g, d)
    return [nd for _, nd in _moves(g, d, {})]


def _movable_subsets(
    cycles: tuple[Cycle, ...],
) -> Iterator[tuple[list[int], dict[int, int]]]:
    """Each set of two or more of ``cycles`` whose edge union is connected
    and has no vertex of degree over 4, reached exactly once.

    Every move starts or ends with two cycles. Two simple cycles give
    each vertex degree at most 4, and two vertex-disjoint ones decompose
    only as themselves, so no other union has a move. The union is
    connected iff the chosen cycles are connected in the CI graph (two
    cycles are adjacent iff they share a vertex), and it has degree at
    most 4 iff no vertex lies on three chosen cycles. Sets grow along CI
    adjacency by ESU (Wernicke 2006): from each root, only cycles of
    higher index join, each through the first chosen cycle it meets. The
    degree filter is monotone, so a branch stops at the first cycle that
    would break it.

    Yields the chosen indices and the number of chosen cycles through
    each vertex; both are live and change at the next step.
    """
    through: dict[int, list[int]] = {}
    for i, c in enumerate(cycles):
        for v in c.vertices:
            through.setdefault(v, []).append(i)
    adjacent = [
        sorted({j for v in c.vertices for j in through[v]} - {i})
        for i, c in enumerate(cycles)
    ]
    on = dict.fromkeys(through, 0)
    near = [0] * len(cycles)  # chosen cycles each cycle is or meets

    def mark(i: int, step: int) -> None:
        for v in cycles[i].vertices:
            on[v] += step
        near[i] += step
        for j in adjacent[i]:
            near[j] += step

    for root in range(len(cycles)):
        mark(root, 1)
        chosen = [root]
        extensions = [[j for j in adjacent[root] if j > root]]
        while extensions:
            ext = extensions[-1]
            if not ext:
                extensions.pop()
                mark(chosen.pop(), -1)
                continue
            w = ext.pop()
            if any(on[v] == 2 for v in cycles[w].vertices):
                continue
            extensions.append(
                ext + [j for j in adjacent[w] if j > root and not near[j]]
            )
            mark(w, 1)
            chosen.append(w)
            yield chosen, on


def _resplits(
    g: Multigraph, union: list[Cycle], shared: set[int]
) -> tuple[tuple[KeyedCycle, ...], ...]:
    """The decompositions of the edge union of ``union`` that the move rule
    allows: every one from two cycles, only the two-cycle ones from three
    or more. ``shared`` holds the vertices on two of the cycles."""
    adjacency: Adjacency = {}
    for c in union:
        vs = c.vertices
        for u, w, e in zip(vs, vs[1:] + vs[:1], c.edges):
            adjacency.setdefault(u, []).append((e, w))
            adjacency.setdefault(w, []).append((e, u))
    uncovered = {e for c in union for e in c.edges}
    if len(union) == 2:
        return tuple(
            tuple((tuple(sorted(c.edges)), c) for c in split)
            for split in _peel(adjacency, g.endpoints, uncovered)
        )
    # Each cycle of a two-cycle split passes every shared (degree-4)
    # vertex once, so the cycle through the lowest edge must meet them
    # all, and what it leaves, where every vertex has degree 0 or 2, must
    # be a single cycle: the one through its lowest edge, if that takes
    # every edge left.
    found = []
    e = min(uncovered)
    for first in _cycles_through(adjacency, uncovered, e, *g.endpoints(e)):
        if not shared.issubset(first.vertices):
            continue
        left = uncovered.difference(first.edges)
        low = min(left)
        for second in _cycles_through(adjacency, left, low, *g.endpoints(low)):
            if len(second) == len(left):
                found.append(
                    tuple((tuple(sorted(c.edges)), c) for c in (first, second))
                )
    return tuple(found)


def _moves(
    g: Multigraph,
    d: CycleDecomposition,
    splits: dict[tuple[frozenset[int], bool], tuple[tuple[KeyedCycle, ...], ...]],
) -> list[tuple[tuple[tuple[int, ...], ...], CycleDecomposition]]:
    """``neighbors`` of a valid ``d`` with their ``sort_key``s, in key
    order, re-splitting each cycle union once.

    ``splits`` maps a union's edge ids, and whether it was reached from
    exactly two cycles, to the decompositions of it the move rule allows
    from there, each cycle with its sorted edge ids. A caller may share
    it across steps, since a re-split depends only on that key.
    """
    cycles = d.cycles
    keyed = [(tuple(sorted(c.edges)), c) for c in cycles]
    base_key = tuple(sorted(k for k, _ in keyed))
    found: dict[tuple[tuple[int, ...], ...], list[KeyedCycle]] = {}
    for chosen, on in _movable_subsets(cycles):
        # A chosen cycle meeting the others in one vertex is cut off there,
        # so it is a cycle of every decomposition of the union: the only
        # one of a pair, and none of a two-cycle split of three or more.
        if any(sum(on[v] == 2 for v in cycles[i].vertices) < 2 for i in chosen):
            continue
        eids = frozenset(e for i in chosen for e in cycles[i].edges)
        memo_key = (eids, len(chosen) == 2)
        resplits = splits.get(memo_key)
        if resplits is None:
            union = [cycles[i] for i in chosen]
            shared = {v for c in union for v in c.vertices if on[v] == 2}
            resplits = splits[memo_key] = _resplits(g, union, shared)
        if not resplits:
            continue
        rest = tuple(kc for i, kc in enumerate(keyed) if i not in chosen)
        for split in resplits:
            merged = sorted(rest + split)
            key = tuple(k for k, _ in merged)
            if key != base_key:
                found[key] = merged
    return [
        (k, CycleDecomposition(tuple(c for _, c in found[k])))
        for k in sorted(found)
    ]

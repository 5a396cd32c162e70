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

from .errors import InvalidDecompositionError, ParseError
from .multigraph import Multigraph, _require_even


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
        try:  # the ids are checked with the rest of the decomposition
            same_length = len(verts) == len(eids)
            cycles = tuple(Cycle(tuple(vs), tuple(es)) for vs, es in zip(verts, eids))
        except TypeError:
            raise ParseError(
                "decomposition 'cycles' and 'edge_ids' must be lists of integer lists"
            ) from None
        if not same_length:
            raise InvalidDecompositionError(
                "cycles and edge_ids lists differ in length"
            )
        return cls(cycles)


def _sorted_cycles(cycles) -> tuple[Cycle, ...]:
    return tuple(sorted(cycles, key=lambda c: tuple(sorted(c.edges))))


# -- validation -----------------------------------------------------------


def decomposition_violations(g: Multigraph, d: CycleDecomposition) -> list[str]:
    """All ways ``d`` fails to be a cycle decomposition of ``g``."""
    problems: list[str] = []
    used: dict[int, int] = {}
    for idx, cyc in enumerate(d.cycles):
        # 1.0 and True would pass for the id 1 below, and a report would
        # echo them where its JSON reader refuses them
        odd = [x for x in (*cyc.vertices, *cyc.edges) if type(x) is not int]
        if odd:
            problems.append(f"cycle {idx}: id {odd[0]!r} is not an int")
            continue
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
    _require_even(g)
    return _decompose_greedy(g, seed)


def _decompose_greedy(g: Multigraph, seed: int) -> CycleDecomposition:
    """``decompose_greedy`` of a graph already known to be even;
    ``ValueError`` for a seed that is not exactly an ``int``."""
    if type(seed) is not int:  # random.Random would take True as 1
        raise ValueError(f"seed must be an int, not {seed!r}")
    getrandbits = random.Random(seed).getrandbits
    # the residual edges at each vertex, in id order
    incident = {v: list(flat[::2]) for v, flat in g._adjacency.items()}
    ends = g._edges
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

    The shuffle swaps position i with position j_i, for i from size - 1
    down to 1, with j_i drawn below i + 1 by ``getrandbits`` and
    rejection. No later swap touches position i, so ``at`` need only
    track the item that moves into position j_i.
    """
    at = list(range(size))
    for n in range(size, 1, -1):
        k = n.bit_length()
        j = getrandbits(k)
        while j >= n:
            j = getrandbits(k)
        at[j] = at[n - 1]
    return at[0]


# -- exhaustive enumeration by cycle peeling ---------------------------------
#
# The searches below keep their own stacks of iterators instead of
# recursing through nested generator functions: a nested function that
# calls itself is a reference cycle, which keeps every search alive until
# the cyclic garbage collector runs.

def _cycles_through(g: Multigraph, uncovered: set[int], e: int) -> Iterator[Cycle]:
    """Every simple cycle of the ``uncovered`` edges of ``g`` through edge
    ``e``, written from the lower end of ``e`` along it."""
    adjacency = g._adjacency
    start, first = g._edges[e]
    verts = [start, first]
    eids = [e]
    on_path = {start, first}
    branches = [iter(adjacency[first])]  # the untried edges at each path vertex
    while branches:
        untried = branches[-1]
        for f in untried:
            w = next(untried)  # the other end of edge f
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


def _peel(g: Multigraph, uncovered: set[int]) -> Iterator[list[Cycle]]:
    """Every decomposition of the ``uncovered`` edges of ``g`` into simple
    cycles, once each, as the list of its cycles (valid until the next one).

    The lowest uncovered edge lies on exactly one cycle of any
    decomposition, so branching over every cycle through it and peeling
    on reaches each decomposition once. Every edge below it is covered,
    so it is the lowest edge of each cycle through it, and each cycle is
    written from the lower end of its lowest edge, along that edge.
    ``uncovered`` is restored on exhaustion.
    """
    if not uncovered:
        yield []
        return
    chosen: list[Cycle] = []
    levels = [_cycles_through(g, uncovered, min(uncovered))]
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
            levels.append(_cycles_through(g, uncovered, min(uncovered)))
        else:
            yield chosen


def enumerate_decompositions(g: Multigraph) -> Iterator[CycleDecomposition]:
    """Yield every cycle decomposition of ``g`` exactly once.

    Peels cycles through the lowest uncovered edge. Removing a cycle
    leaves an even graph, so no branch dead-ends and the cost grows with
    the number of decompositions. Each cycle starts at the lower endpoint
    of its lowest edge id, along that edge. The cycles come in ascending
    order of their lowest edge, which for disjoint cycles is the order of
    their sorted edge ids.
    """
    _require_even(g)
    for chosen in _peel(g, set(g.edge_ids)):
        yield CycleDecomposition(tuple(chosen))


# -- local moves ------------------------------------------------------------


def _vertex_cycles(cycles: tuple[Cycle, ...]) -> dict[int, list[int]]:
    """Each vertex on ``cycles`` mapped to the ascending indices of the
    cycles through it: the incidence the CI graph is read off."""
    through: dict[int, list[int]] = {}
    for i, c in enumerate(cycles):
        for v in c.vertices:
            if v in through:
                through[v].append(i)
            else:
                through[v] = [i]
    return through


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
    through = _vertex_cycles(cycles)
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
    g: Multigraph, key: tuple[frozenset[int], bool], shared: set[int]
) -> tuple[tuple[KeyedCycle, ...], ...]:
    """The decompositions of a union of cycles, keyed by its edge ids and
    whether it has exactly two cycles, that the move rule allows: every
    one from two cycles, only the two-cycle ones from three or more.
    ``shared`` holds the vertices on two of the cycles."""
    eids, two = key
    uncovered = set(eids)
    if two:
        return tuple(
            tuple((tuple(sorted(c.edges)), c) for c in split)
            for split in _peel(g, uncovered)
        )
    # Each cycle of a two-cycle split passes every shared (degree-4)
    # vertex once, so the cycle through the lowest edge must meet them
    # all, and what it leaves, where every vertex has degree 0 or 2, must
    # be a single cycle: the one through its lowest edge, if that takes
    # every edge left.
    found = []
    for first in _cycles_through(g, uncovered, min(uncovered)):
        if not shared.issubset(first.vertices):
            continue
        left = uncovered.difference(first.edges)
        for second in _cycles_through(g, left, min(left)):
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
            shared = {v for i in chosen for v in cycles[i].vertices if on[v] == 2}
            resplits = splits[memo_key] = _resplits(g, memo_key, shared)
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

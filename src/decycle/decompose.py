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
from itertools import combinations
from typing import Iterator

from .errors import InvalidDecompositionError, NotEvenError, ParseError
from .multigraph import Multigraph, is_connected, is_even


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
                Cycle(tuple(int(v) for v in vs), tuple(int(e) for e in es))
                for vs, es in zip(verts, eids)
            )
        except (TypeError, ValueError):
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
    rng = random.Random(seed)
    incident: dict[int, set[int]] = {v: set() for v in g.vertices}
    for eid, u, v in g.edges():
        incident[u].add(eid)
        incident[v].add(eid)
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
                # a simple path touches its end only through its last edge
                options = sorted(e for e in incident[v] if e != last)
                rng.shuffle(options)
                last = options[0]
                path_edges.append(last)
                u, w = g.endpoints(last)
                v = w if v == u else u
            i = position[v]
            cyc_edges = tuple(path_edges[i:])
            for e in cyc_edges:
                for x in g.endpoints(e):
                    incident[x].discard(e)
            cycles.append(Cycle(tuple(position)[i:], cyc_edges))
    return CycleDecomposition(_sorted_cycles(cycles))


# -- exhaustive enumeration by cycle peeling ---------------------------------


def _cycles_through(
    adjacency: dict[int, list[tuple[int, int]]],
    uncovered: set[int],
    e: int,
    start: int,
    first: int,
) -> Iterator[Cycle]:
    """Every simple cycle of the ``uncovered`` edges through edge ``e``,
    written from its endpoint ``start`` along ``e`` to ``first``."""
    verts = [start]
    eids = [e]
    on_path = {start}

    def extend(v: int) -> Iterator[Cycle]:
        verts.append(v)
        on_path.add(v)
        for f, w in adjacency[v]:
            if f not in uncovered or f == eids[-1]:
                continue
            if w == start:
                yield Cycle(tuple(verts), tuple(eids) + (f,))
            elif w not in on_path:
                eids.append(f)
                yield from extend(w)
                eids.pop()
        on_path.discard(v)
        verts.pop()

    return extend(first)


def enumerate_decompositions(g: Multigraph) -> Iterator[CycleDecomposition]:
    """Yield every cycle decomposition of ``g`` exactly once.

    Peels cycles: the lowest uncovered edge lies on exactly one cycle of
    any decomposition, so branching over every simple cycle of the
    uncovered edges through it, and recursing on the rest, reaches each
    decomposition once. Removing a cycle leaves an even graph, so no
    branch dead-ends and the cost grows with the number of
    decompositions. Each cycle starts at the lower endpoint of its lowest
    edge id, along that edge.
    """
    if not is_even(g):
        raise NotEvenError("graph is not even")
    adjacency: dict[int, list[tuple[int, int]]] = {v: [] for v in g.vertices}
    for eid, u, v in g.edges():
        adjacency[u].append((eid, v))
        adjacency[v].append((eid, u))
    uncovered = set(g.edge_ids)
    chosen: list[Cycle] = []

    def rec() -> Iterator[CycleDecomposition]:
        if not uncovered:
            yield CycleDecomposition(_sorted_cycles(chosen))
            return
        # every edge below e is covered, so e is the lowest edge of each
        # cycle through it; endpoints are stored lower first
        e = min(uncovered)
        for cyc in _cycles_through(adjacency, uncovered, e, *g.endpoints(e)):
            uncovered.difference_update(cyc.edges)
            chosen.append(cyc)
            yield from rec()
            chosen.pop()
            uncovered.update(cyc.edges)

    yield from rec()


# -- local moves ------------------------------------------------------------


def neighbors(g: Multigraph, d: CycleDecomposition) -> list[CycleDecomposition]:
    """Decompositions one merge/re-split move away from ``d``.

    A move replaces some cycles of ``d`` by another decomposition of
    their edge union. ``d'`` is a neighbour iff
    ``min(|d - d'|, |d' - d|) == 2``: two cycles re-split in any other
    way, or three or more cycles re-split into exactly two. The rule is
    symmetric.
    """
    _require_valid(g, d)
    return _moves(g, d, {})


def _moves(
    g: Multigraph,
    d: CycleDecomposition,
    splits: dict[tuple[frozenset[int], bool], tuple[CycleDecomposition, ...]],
) -> list[CycleDecomposition]:
    """``neighbors`` of a valid ``d``, re-splitting each cycle union once.

    ``splits`` maps a union's edge ids, and whether it was reached from
    exactly two cycles, to the decompositions of it the move rule allows
    from there: every one from two cycles, only the two-cycle ones from
    three or more. A caller may share it across steps, since a re-split
    depends only on that key.
    """
    found: dict[tuple[tuple[int, ...], ...], CycleDecomposition] = {}
    base_key = d.sort_key
    cycles = d.cycles
    for size in range(2, len(cycles) + 1):
        for subset in combinations(range(len(cycles)), size):
            eids = frozenset(eid for i in subset for eid in cycles[i].edges)
            memo_key = (eids, size == 2)
            resplits = splits.get(memo_key)
            if resplits is None:
                union = g.restricted_to_edges(eids)
                # Every move starts or ends with two cycles. Two simple
                # cycles give each vertex degree at most 4, and two
                # vertex-disjoint ones decompose only as themselves. So a
                # union with a vertex of degree > 4, or in two parts, has
                # no move.
                movable = all(
                    union.degree(v) <= 4 for v in union.vertices
                ) and is_connected(union)
                resplits = splits[memo_key] = (
                    tuple(
                        split
                        for split in enumerate_decompositions(union)
                        if min(size, len(split.cycles)) == 2
                    )
                    if movable
                    else ()
                )
            if not resplits:
                continue
            rest = tuple(c for i, c in enumerate(cycles) if i not in subset)
            for split in resplits:
                nd = CycleDecomposition(_sorted_cycles(rest + split.cycles))
                key = nd.sort_key
                if key != base_key:
                    found.setdefault(key, nd)
    return [found[k] for k in sorted(found)]

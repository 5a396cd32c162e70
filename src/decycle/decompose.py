"""Cycle decompositions of even graphs.

A cycle decomposition partitions the edge set into simple cycles of
length >= 2 (length 2 is a digon made of two parallel edges). Every even
graph has at least one; this module produces them greedily, enumerates
all of them exhaustively through transition systems, and generates the
local moves used by the decomposition optimizer.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from typing import Iterator, Optional

from .errors import InvalidDecompositionError, NotEvenError, ParseError
from .multigraph import Multigraph, is_connected, is_even


@dataclass(frozen=True)
class Cycle:
    """A simple cycle: ``edges[i]`` joins ``vertices[i]`` and ``vertices[i+1]``
    (cyclically)."""

    vertices: tuple[int, ...]
    edges: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.edges)

    @property
    def vertex_set(self) -> frozenset[int]:
        return frozenset(self.vertices)

    @property
    def edge_key(self) -> frozenset[int]:
        return frozenset(self.edges)


@dataclass(frozen=True)
class CycleDecomposition:
    cycles: tuple[Cycle, ...]

    def __len__(self) -> int:
        return len(self.cycles)

    @property
    def canonical_key(self) -> frozenset[frozenset[int]]:
        """Rotation/reflection-invariant identity: the set of edge-id sets."""
        return frozenset(c.edge_key for c in self.cycles)

    @property
    def sort_key(self) -> tuple[tuple[int, ...], ...]:
        """Deterministic total order compatible with ``canonical_key``."""
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
        if len(verts) != len(eids):
            raise InvalidDecompositionError(
                "cycles and edge_ids lists differ in length"
            )
        cycles = tuple(
            Cycle(tuple(int(v) for v in vs), tuple(int(e) for e in es))
            for vs, es in zip(verts, eids)
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


def validate_decomposition(g: Multigraph, d: CycleDecomposition) -> bool:
    return not decomposition_violations(g, d)


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
    residual: dict[int, tuple[int, int]] = dict(
        (eid, (u, v)) for eid, u, v in g.edges()
    )
    incident: dict[int, set[int]] = {v: set() for v in g.vertices}
    for eid, (u, v) in residual.items():
        incident[u].add(eid)
        incident[v].add(eid)
    cycles: list[Cycle] = []
    while residual:
        start = min(v for v, eids in incident.items() if eids)
        path_vertices = [start]
        path_edges: list[int] = []
        position = {start: 0}
        v = start
        while True:
            options = sorted(e for e in incident[v] if e not in path_edges)
            rng.shuffle(options)
            eid = options[0]
            u, w = residual[eid]
            nxt = w if v == u else u
            if nxt in position:
                i = position[nxt]
                cyc_vertices = tuple(path_vertices[i:])
                cyc_edges = tuple(path_edges[i:] + [eid])
                for ce in cyc_edges:
                    a, b = residual.pop(ce)
                    incident[a].discard(ce)
                    incident[b].discard(ce)
                cycles.append(Cycle(cyc_vertices, cyc_edges))
                break
            position[nxt] = len(path_vertices)
            path_vertices.append(nxt)
            path_edges.append(eid)
            v = nxt
    return CycleDecomposition(_sorted_cycles(cycles))


# -- exhaustive enumeration via transition systems -------------------------


def _pairings(items: list[int]) -> Iterator[tuple[tuple[int, int], ...]]:
    """All perfect pairings of an even-sized list, deterministically."""
    if not items:
        yield ()
        return
    first = items[0]
    for i in range(1, len(items)):
        partner = items[i]
        rest = items[1:i] + items[i + 1 :]
        for sub in _pairings(rest):
            yield ((first, partner),) + sub


def _chains_conflict(g: Multigraph, transition: dict[int, dict[int, int]]) -> bool:
    """Check the walk fragments induced by the pairings assigned so far.

    Edges linked at assigned vertices form fragments: open chains ending
    at unassigned vertices, or closed loops. A fragment that passes the
    same assigned vertex twice can never become a simple cycle, whatever
    the remaining vertices choose, so the whole branch can be pruned.
    """
    visited: set[int] = set()

    def walk(start_edge: int, start_from: int) -> bool:
        """Follow links from ``(edge, entering side)``; True iff some
        transition vertex repeats."""
        transits: set[int] = set()
        cur, frm = start_edge, start_from
        while True:
            visited.add(cur)
            to = g.other_endpoint(cur, frm)
            pairing = transition.get(to)
            if pairing is None:
                return False  # open end reached
            if to in transits:
                return True
            transits.add(to)
            cur, frm = pairing[cur], to
            if cur == start_edge and frm == start_from:
                return False  # closed loop, all transits distinct

    # open chains first, walked from a free end so they are covered whole
    for eid in g.edge_ids:
        if eid in visited:
            continue
        u, v = g.endpoints(eid)
        for side in (u, v):
            if side not in transition:
                if walk(eid, side):
                    return True
                break
    # whatever remains sits on closed loops
    for eid in g.edge_ids:
        if eid not in visited:
            if walk(eid, g.endpoints(eid)[0]):
                return True
    return False


def _loops_to_cycles(
    g: Multigraph, transition: dict[int, dict[int, int]]
) -> Optional[list[Cycle]]:
    """Turn a fully assigned transition system into simple cycles.

    Returns None when some closed walk revisits a vertex.
    """
    seen: set[int] = set()
    cycles: list[Cycle] = []
    for start_edge in g.edge_ids:
        if start_edge in seen:
            continue
        u, v = g.endpoints(start_edge)
        start_vertex = min(u, v)
        verts = [start_vertex]
        eids = [start_edge]
        seen.add(start_edge)
        cur_edge = start_edge
        cur_vertex = g.other_endpoint(start_edge, start_vertex)
        while cur_vertex != start_vertex:
            if cur_vertex in verts:
                return None
            verts.append(cur_vertex)
            nxt = transition[cur_vertex][cur_edge]
            eids.append(nxt)
            seen.add(nxt)
            cur_vertex = g.other_endpoint(nxt, cur_vertex)
            cur_edge = nxt
        if transition[start_vertex][cur_edge] != start_edge:
            return None
        cycles.append(Cycle(tuple(verts), tuple(eids)))
    return cycles


def enumerate_decompositions(
    g: Multigraph, limit: Optional[int] = None
) -> Iterator[CycleDecomposition]:
    """Yield every cycle decomposition of ``g`` exactly once.

    Backtracks over transition systems: each vertex of degree 2k picks a
    perfect pairing of its incident edges, every full assignment induces
    closed walks, and only assignments whose walks are all vertex-simple
    survive. Intended for desk-scale graphs (|E| up to roughly 16).
    """
    if not is_even(g):
        raise NotEvenError("graph is not even")
    if limit is not None and limit <= 0:
        return
    verts = sorted(
        (v for v in g.vertices if g.degree(v) > 0),
        key=lambda v: (-g.degree(v), v),
    )
    emitted: set[frozenset[frozenset[int]]] = set()
    transition: dict[int, dict[int, int]] = {}

    def rec(idx: int) -> Iterator[CycleDecomposition]:
        if idx == len(verts):
            loops = _loops_to_cycles(g, transition)
            if loops is not None:
                d = CycleDecomposition(_sorted_cycles(loops))
                key = d.canonical_key
                if key not in emitted:
                    emitted.add(key)
                    yield d
            return
        v = verts[idx]
        incident = sorted(g.incident_edges(v))
        for pairing in _pairings(incident):
            table: dict[int, int] = {}
            for a, b in pairing:
                table[a] = b
                table[b] = a
            transition[v] = table
            if not _chains_conflict(g, transition):
                yield from rec(idx + 1)
            del transition[v]

    count = 0
    for d in rec(0):
        yield d
        count += 1
        if limit is not None and count >= limit:
            return


# -- local moves ------------------------------------------------------------


def neighbors(g: Multigraph, d: CycleDecomposition) -> list[CycleDecomposition]:
    """Decompositions one merge/re-split move away from ``d``.

    Forward move: merge two cycles that share a vertex and re-decompose
    their edge union in every other way. Reverse move: merge three or
    more cycles whose union re-decomposes into exactly two cycles. The
    two directions together make the relation symmetric.
    """
    _require_valid(g, d)
    found: dict[frozenset[frozenset[int]], CycleDecomposition] = {}
    base_key = d.canonical_key
    cycles = d.cycles

    def add(replaced: tuple[int, ...], replacement: tuple[Cycle, ...]) -> None:
        rest = [c for i, c in enumerate(cycles) if i not in replaced]
        nd = CycleDecomposition(_sorted_cycles(tuple(rest) + replacement))
        key = nd.canonical_key
        if key != base_key and key not in found:
            found[key] = nd

    # pair merges, re-split into anything different
    for i, j in combinations(range(len(cycles)), 2):
        ci, cj = cycles[i], cycles[j]
        if not (ci.vertex_set & cj.vertex_set):
            continue
        union = g.restricted_to_edges(ci.edges + cj.edges)
        original = frozenset((ci.edge_key, cj.edge_key))
        for nd in enumerate_decompositions(union):
            if nd.canonical_key != original:
                add((i, j), nd.cycles)

    # merges of three or more cycles that re-split into exactly two
    for size in range(3, len(cycles) + 1):
        for subset in combinations(range(len(cycles)), size):
            eids: list[int] = []
            for i in subset:
                eids.extend(cycles[i].edges)
            union = g.restricted_to_edges(eids)
            if any(union.degree(v) > 4 for v in union.vertices):
                continue
            if not is_connected(union):
                continue
            for nd in enumerate_decompositions(union):
                if len(nd.cycles) == 2:
                    add(subset, nd.cycles)

    return sorted(found.values(), key=lambda nd: nd.sort_key)

"""Undirected multigraph with stable vertex and edge identities.

Vertices are integers. Edges carry integer ids that survive vertex
deletion unchanged, so cycle decompositions and intersection labels
computed on a graph remain meaningful on its subgraphs. Parallel edges
are allowed, self-loops are not: a loop would be a length-1 cycle and
every cycle handled here is simple of length >= 2.

Instances are immutable after construction and safe to share across
threads; every operation returns a new graph.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Collection, Iterable, Iterator, Mapping

from .errors import NotEvenError, ParseError

MAX_HEADER_VERTICES = 1_000_000


@dataclass(frozen=True)
class DecyclingSet:
    """A vertex subset meant to break every cycle of some graph.

    ``certified`` is set only after an acyclicity check of the graph
    minus ``vertices`` has actually been run.
    """

    vertices: frozenset[int]
    certified: bool = False

    def __len__(self) -> int:
        return len(self.vertices)

    def sorted_vertices(self) -> list[int]:
        return sorted(self.vertices)


def _as_id(x) -> int:
    """``x`` as an integer id; ``TypeError`` for a bool or a non-integer."""
    if isinstance(x, bool):
        raise TypeError(f"id {x!r} is a bool, not an integer")
    return operator.index(x)


def _id_set(ids: Iterable) -> set[int]:
    """The set of ``ids`` as integers, checked as by ``_as_id``; ids that
    are exactly ``int``, the usual case, are taken as they are."""
    return {x if x.__class__ is int else _as_id(x) for x in ids}


class Multigraph:
    """Immutable undirected multigraph."""

    __slots__ = ("_vertices", "_edges", "_adjacency")

    def __init__(self, vertices: Iterable[int], edges) -> None:
        """Build a graph from explicit vertex ids and identified edges.

        ``edges`` is either a mapping ``edge id -> (u, v)`` or an iterable
        of ``(edge id, (u, v))`` pairs. Endpoints must be distinct existing
        vertices; edge ids must be unique. Ids that are not integers, or
        are bools, raise ``TypeError``.
        """
        vertex_set = _id_set(vertices)
        items = edges.items() if isinstance(edges, Mapping) else edges
        store: dict[int, tuple[int, int]] = {}
        for eid, (u, v) in items:
            if not eid.__class__ is u.__class__ is v.__class__ is int:
                eid, u, v = _as_id(eid), _as_id(u), _as_id(v)
            if eid in store:
                raise ValueError(f"duplicate edge id {eid}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u} (edge {eid})")
            if u not in vertex_set or v not in vertex_set:
                raise ValueError(f"edge {eid} references unknown vertex")
            store[eid] = (u, v) if u < v else (v, u)
        self._vertices = tuple(sorted(vertex_set))
        self._edges = dict(sorted(store.items()))
        # each vertex's edges in id order, flat: edge id, other end,
        # edge id, other end, ... (a tuple per pair would make a graph
        # about half as large again)
        adjacency: dict[int, list[int]] = {v: [] for v in vertex_set}
        for eid, (u, v) in self._edges.items():
            adjacency[u].extend((eid, v))
            adjacency[v].extend((eid, u))
        self._adjacency = {v: tuple(flat) for v, flat in adjacency.items()}

    @classmethod
    def from_edges(cls, n_vertices: int, pairs: Iterable[tuple[int, int]]) -> "Multigraph":
        """Graph on vertices ``0..n_vertices-1`` with edge ids in list order."""
        return cls(range(n_vertices), enumerate(pairs))

    # -- basic accessors ------------------------------------------------

    @property
    def vertices(self) -> tuple[int, ...]:
        return self._vertices

    @property
    def edge_ids(self) -> tuple[int, ...]:
        return tuple(self._edges)

    @property
    def n_vertices(self) -> int:
        return len(self._vertices)

    @property
    def n_edges(self) -> int:
        return len(self._edges)

    def endpoints(self, eid: int) -> tuple[int, int]:
        try:
            return self._edges[eid]
        except KeyError:
            raise ValueError(f"unknown edge id {eid}") from None

    def degree(self, v: int) -> int:
        try:
            return len(self._adjacency[v]) // 2
        except KeyError:
            raise ValueError(f"unknown vertex id {v}") from None

    def edges(self) -> Iterator[tuple[int, int, int]]:
        """Yield ``(edge id, u, v)`` in edge-id order."""
        for eid, (u, v) in self._edges.items():
            yield eid, u, v

    # -- derived graphs -------------------------------------------------

    def delete_vertices(self, remove: Iterable[int]) -> "Multigraph":
        """Remove the given vertices and all incident edges.

        Surviving vertex and edge ids are unchanged.
        """
        gone = _id_set(remove)
        unknown = gone - set(self._vertices)
        if unknown:
            raise ValueError(f"unknown vertex id {min(unknown)}")
        keep = [v for v in self._vertices if v not in gone]
        edges = {
            eid: (u, v)
            for eid, (u, v) in self._edges.items()
            if u not in gone and v not in gone
        }
        return Multigraph(keep, edges)

    def restricted_to_edges(self, eids: Iterable[int]) -> "Multigraph":
        """Subgraph holding the given edges and exactly their endpoints."""
        wanted = set(eids)
        unknown = wanted - set(self._edges)
        if unknown:
            raise ValueError(f"unknown edge id {min(unknown)}")
        edges = {eid: self._edges[eid] for eid in wanted}
        verts = {v for pair in edges.values() for v in pair}
        return Multigraph(verts, edges)

    def _component_labels(self) -> dict[int, int]:
        """The least vertex of each vertex's connected component."""
        label: dict[int, int] = {}
        for start in self._vertices:
            if start in label:
                continue
            label[start] = start
            stack = [start]
            while stack:
                v = stack.pop()
                for x in self._adjacency[v][1::2]:
                    if x not in label:
                        label[x] = start
                        stack.append(x)
        return label

    def components(self) -> list["Multigraph"]:
        """Connected components as id-preserving subgraphs, by least vertex."""
        label = self._component_labels()
        parts: dict[int, tuple[list[int], dict[int, tuple[int, int]]]] = {}
        for v in self._vertices:  # ascending, so parts go by least vertex
            parts.setdefault(label[v], ([], {}))[0].append(v)
        for eid, (u, v) in self._edges.items():
            parts[label[u]][1][eid] = (u, v)
        return [Multigraph(vs, es) for vs, es in parts.values()]

    # -- dunder ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Multigraph):
            return NotImplemented
        return self._vertices == other._vertices and self._edges == other._edges

    def __repr__(self) -> str:
        return f"Multigraph(|V|={self.n_vertices}, |E|={self.n_edges})"


# -- structural predicates ----------------------------------------------


def is_even(g: Multigraph) -> bool:
    """True iff every vertex has even degree (parallel edges counted)."""
    return all(g.degree(v) % 2 == 0 for v in g.vertices)


def _require_even(g: Multigraph) -> None:
    """The library's evenness gate: ``NotEvenError`` unless ``g`` is even."""
    if not is_even(g):
        raise NotEvenError("graph is not even: some vertex has odd degree")


def is_connected(g: Multigraph) -> bool:
    """Standard connectivity; the empty graph counts as connected."""
    return len(set(g._component_labels().values())) <= 1


def find_root(parent, x: int) -> int:
    """Root of ``x`` in the union-find forest ``parent`` (a list or a
    dict mapping each element to its parent), halving the path walked."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def is_acyclic(g: Multigraph, deleted: Collection[int] = ()) -> bool:
    """True iff ``g`` minus the vertices in ``deleted`` has no cycle; a
    parallel pair counts as a 2-cycle.

    Edges with an end in ``deleted`` are skipped, so no subgraph is
    built. Ids in ``deleted`` are not checked against ``g``.
    """
    parent = {v: v for v in g.vertices}
    for u, v in g._edges.values():
        if u in deleted or v in deleted:
            continue
        ru, rv = find_root(parent, u), find_root(parent, v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


# -- text formats ---------------------------------------------------------


def parse_edge_list(source) -> Multigraph:
    """Parse the plain edge-list format.

    First non-comment line is ``n m`` with ``n`` at most
    ``MAX_HEADER_VERTICES``; each following line is an edge ``u v`` with
    ``0 <= u, v < n`` and ``u != v``. Lines starting with ``#`` are
    comments. ``source`` is text or UTF-8 bytes.
    """
    if isinstance(source, (bytes, bytearray)):
        source = source.decode("utf-8")
    n = m = None
    what = "header 'n m'"
    pairs: list[tuple[int, int]] = []
    for lineno, raw in enumerate(source.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:  # a field too many or too few fails the unpacking
            u, v = map(int, line.split())
        except ValueError:
            raise ParseError(f"expected {what}", line=lineno) from None
        if n is None:
            n, m, what = u, v, "edge 'u v'"
            if n < 0 or m < 0:
                raise ParseError("negative count in header", line=lineno)
            if n > MAX_HEADER_VERTICES:
                raise ParseError(
                    f"header declares {n} vertices, over the limit of "
                    f"{MAX_HEADER_VERTICES}",
                    line=lineno,
                )
            continue
        if not (0 <= u < n) or not (0 <= v < n):
            raise ParseError(f"endpoint out of range 0..{n - 1}", line=lineno)
        if u == v:
            raise ParseError(f"self-loop at vertex {u}", line=lineno)
        pairs.append((u, v))
    if n is None:
        raise ParseError("empty input")
    if len(pairs) != m:
        raise ParseError(f"header declares {m} edges, found {len(pairs)}")
    return Multigraph.from_edges(n, pairs)


def to_edge_list(g: Multigraph) -> str:
    """Serialize back to the edge-list format.

    Graphs whose vertex ids are not dense ``0..n-1`` (after deletions)
    are written with remapped dense ids, so those ids are not kept.
    """
    remap = {v: i for i, v in enumerate(g.vertices)}
    lines = [f"{g.n_vertices} {g.n_edges}"]
    for _, u, v in g.edges():
        lines.append(f"{remap[u]} {remap[v]}")
    return "\n".join(lines) + "\n"


def to_dot(g: Multigraph) -> str:
    lines = ["graph G {"]
    for v in g.vertices:
        lines.append(f"  {v};")
    for eid, u, v in g.edges():
        lines.append(f'  {u} -- {v} [label="e{eid}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"

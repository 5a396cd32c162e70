"""Generators for the even-graph families used by the CLI and benches.

Every generator returns a connected even multigraph. ``random_even``
takes edge-unions of random simple cycles, which are even by
construction, and resamples until the union is connected.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .errors import DomainError, ParseError
from .multigraph import MAX_HEADER_VERTICES, Multigraph, is_connected


@dataclass(frozen=True)
class FamilySpec:
    family: str
    params: dict = field(default_factory=dict)

    def build(self) -> Multigraph:
        return build_family(self.family, **self.params)

    def label(self) -> str:
        inner = ",".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return f"{self.family}({inner})"


def _cap(family: str, size: str, value: int) -> None:
    """Refuse a size over ``MAX_HEADER_VERTICES``, the edge-list header
    limit, before a generator allocates in proportion to it."""
    if value > MAX_HEADER_VERTICES:
        raise ParseError(
            f"{family} {size} = {value} is over the limit of {MAX_HEADER_VERTICES}"
        )


def cycle(k: int) -> Multigraph:
    """Single cycle on k vertices; k = 2 is a digon."""
    if k < 2:
        raise DomainError("cycle needs k >= 2")
    _cap("cycle", "k", k)
    return Multigraph.from_edges(k, [(i, (i + 1) % k) for i in range(k)])


def doubled_cycle(k: int) -> Multigraph:
    """Cycle on k vertices with every edge doubled; all degrees 4."""
    if k < 2:
        raise DomainError("doubled_cycle needs k >= 2")
    _cap("doubled_cycle", "k", k)
    pairs = []
    for i in range(k):
        pairs.append((i, (i + 1) % k))
        pairs.append((i, (i + 1) % k))
    return Multigraph.from_edges(k, pairs)


def theta(lengths: tuple[int, ...]) -> Multigraph:
    """Two hub vertices joined by internally disjoint paths.

    ``lengths`` gives the edge count of each path; an even number of
    paths keeps the hubs at even degree. Length-1 paths are direct hub
    edges, so (1, 1) is a digon.
    """
    if len(lengths) < 2 or len(lengths) % 2 != 0:
        raise DomainError("theta needs an even number of paths, at least 2")
    if any(l < 1 for l in lengths):
        raise DomainError("theta path lengths must be >= 1")
    _cap("theta", "sum of lengths", sum(lengths))
    hub_a, hub_b = 0, 1
    pairs: list[tuple[int, int]] = []
    nxt = 2
    for length in lengths:
        prev = hub_a
        for _ in range(length - 1):
            pairs.append((prev, nxt))
            prev = nxt
            nxt += 1
        pairs.append((prev, hub_b))
    return Multigraph.from_edges(nxt, pairs)


def triangle_chain(k: int) -> Multigraph:
    """k triangles in a path, consecutive ones sharing a single vertex."""
    if k < 1:
        raise DomainError("triangle_chain needs k >= 1")
    _cap("triangle_chain", "k", k)
    pairs = []
    for i in range(k):
        a, b, c = 2 * i, 2 * i + 1, 2 * i + 2
        pairs.extend([(a, b), (b, c), (a, c)])
    return Multigraph.from_edges(2 * k + 1, pairs)


def flower(petals: int, core: int) -> Multigraph:
    """Core cycle with triangle petals attached at distinct core vertices."""
    if core < 3:
        raise DomainError("flower needs core >= 3")
    if petals < 0 or petals > core:
        raise DomainError("flower needs 0 <= petals <= core")
    _cap("flower", "core", core)
    pairs = [(i, (i + 1) % core) for i in range(core)]
    nxt = core
    for p in range(petals):
        pairs.extend([(p, nxt), (nxt, nxt + 1), (p, nxt + 1)])
        nxt += 2
    return Multigraph.from_edges(nxt, pairs)


# samples random_even draws before it gives up on a connected union
MAX_TRIES = 2000


def random_even(n: int, cycles: int, seed: int = 0) -> Multigraph:
    """Connected even graph: the edge-union of random simple cycles.

    Cycle lengths are drawn in 2..n (2 gives a digon). Resamples until
    the union is connected and touches all n vertices.
    """
    if n < 2:
        raise DomainError("random_even needs n >= 2")
    if cycles < 1:
        raise DomainError("random_even needs cycles >= 1")
    # n bounds the vertices, n * cycles the edges
    _cap("random_even", "n * cycles", n * cycles)
    rng = random.Random(seed)
    for _ in range(MAX_TRIES):
        pairs: list[tuple[int, int]] = []
        for _ in range(cycles):
            length = rng.randint(2, n)
            verts = rng.sample(range(n), length)
            for i in range(length):
                pairs.append((verts[i], verts[(i + 1) % length]))
        g = Multigraph.from_edges(n, pairs)
        if is_connected(g):
            return g
    raise DomainError(
        f"could not sample a connected union of {cycles} cycles on {n} "
        f"vertices in {MAX_TRIES} tries"
    )


def cycle_tree(
    nodes: int,
    seed: int = 0,
    min_len: int = 3,
    max_len: int = 5,
) -> Multigraph:
    """Random tree of cycles: each cycle shares exactly one vertex with
    its parent, every attachment on a distinct vertex.

    The CI graph of the (unique) decomposition is then exactly the
    sampled tree, so chains, stars and caterpillars all come out of the
    same sampler.
    """
    if nodes < 1:
        raise DomainError("cycle_tree needs nodes >= 1")
    if min_len < 3 or max_len < min_len:
        raise DomainError("cycle_tree needs 3 <= min_len <= max_len")
    _cap("cycle_tree", "nodes * max_len", nodes * max_len)
    rng = random.Random(seed)
    parent = [0] * nodes
    for i in range(1, nodes):
        parent[i] = rng.randrange(i)
    child_count = [0] * nodes
    for i in range(1, nodes):
        child_count[parent[i]] += 1
    lengths = []
    for i in range(nodes):
        slots = child_count[i] + (1 if i > 0 else 0)
        lengths.append(max(min_len, slots, rng.randint(min_len, max_len)))
    cycle_vertices: list[list[int]] = []
    free: list[list[int]] = []
    pairs: list[tuple[int, int]] = []
    nxt = 0
    for i in range(nodes):
        if i == 0:
            verts = list(range(nxt, nxt + lengths[i]))
            nxt += lengths[i]
        else:
            attach = free[parent[i]].pop(rng.randrange(len(free[parent[i]])))
            verts = [attach] + list(range(nxt, nxt + lengths[i] - 1))
            nxt += lengths[i] - 1
        cycle_vertices.append(verts)
        free.append(verts[1:] if i > 0 else verts[:])
        for j in range(len(verts)):
            pairs.append((verts[j], verts[(j + 1) % len(verts)]))
    return Multigraph.from_edges(nxt, pairs)


_BUILDERS = {
    "cycle": cycle,
    "doubled_cycle": doubled_cycle,
    "theta": theta,
    "triangle_chain": triangle_chain,
    "flower": flower,
    "random_even": random_even,
    "cycle_tree": cycle_tree,
}

FAMILY_NAMES = tuple(sorted(_BUILDERS))


def build_family(family: str, **params) -> Multigraph:
    try:
        builder = _BUILDERS[family]
    except KeyError:
        raise DomainError(
            f"unknown family {family!r}; choose from {', '.join(FAMILY_NAMES)}"
        ) from None
    try:
        if family == "theta" and "lengths" in params:
            params = dict(params, lengths=tuple(params["lengths"]))
        return builder(**params)
    except TypeError as exc:
        raise DomainError(f"bad parameters for family {family!r}: {exc}") from None

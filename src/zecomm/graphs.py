"""Confusability graphs, exact independence numbers, strong products and
one-shot zero-error capacity.

A graph is one bitmask row per vertex, and every graph is validated when it
is constructed: the row count, no bit beyond the last vertex, no self-loop
and symmetry, checked on the whole n x n bit matrix at once.  The builders
work on whole rows too: the confusability graph ORs, per input, the masks of
the inputs that reach each of its outputs, and a strong product row is one
product of a row of the second factor with a spread neighbourhood of the
first.

The independence number is decided by one exact solver: branch and bound for
a maximum clique of the complement graph, with greedy coloring upper bounds.
A subset-enumeration brute force is kept as an independent oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from .channels import Channel

#: exact-solver vertex limit (branch and bound)
DEFAULT_VERTEX_LIMIT = 40
#: brute force is unconditional up to this many vertices
BRUTE_FORCE_LIMIT = 24


@dataclass(frozen=True)
class ConfusabilityGraph:
    """Undirected graph on channel inputs with bitset adjacency rows."""

    vertex_count: int
    adjacency: tuple[int, ...]  # adjacency[v] = bitmask of neighbors
    labels: Optional[tuple] = None  # vertex labels carried from the input space

    def __post_init__(self):
        n = self.vertex_count
        if len(self.adjacency) != n:
            raise ValueError("adjacency length mismatch")
        if any(row >> n for row in self.adjacency):  # a negative row included
            raise ValueError("adjacency bits beyond vertex range")
        width = (n + 7) // 8
        packed = np.frombuffer(b"".join(row.to_bytes(width, "little") for row in self.adjacency), np.uint8)
        matrix = np.unpackbits(packed.reshape(n, width), axis=1, count=n, bitorder="little")
        loops = np.flatnonzero(matrix.diagonal())
        if loops.size:
            raise ValueError(f"self-loop at vertex {loops[0]}")
        if not np.array_equal(matrix, matrix.T):
            raise ValueError("adjacency not symmetric")

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.adjacency[u] >> v) & 1)

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adjacency) // 2

    def is_complete(self) -> bool:
        n = self.vertex_count
        return self.edge_count() == n * (n - 1) // 2


def graph_from_edges(n: int, edges: Sequence[tuple[int, int]]) -> ConfusabilityGraph:
    adj = [0] * n
    for u, v in edges:
        if u == v:
            raise ValueError("self-loops not allowed")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return ConfusabilityGraph(n, tuple(adj))


def complete_graph(n: int) -> ConfusabilityGraph:
    full = (1 << n) - 1
    return ConfusabilityGraph(n, tuple(full & ~(1 << v) for v in range(n)))


def cycle_graph(n: int) -> ConfusabilityGraph:
    return graph_from_edges(n, [(v, (v + 1) % n) for v in range(n)])


def _members(mask: int) -> Iterator[int]:
    """The positions of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def confusability_graph(c: Channel) -> ConfusabilityGraph:
    """Edge between two inputs iff some output is positively probable under
    both."""
    reached_by = [0] * c.n_outputs  # reached_by[o] = mask of the inputs that reach o
    for i, support in enumerate(c.supports):
        for o in support:
            reached_by[o] |= 1 << i
    adj = []
    for i, support in enumerate(c.supports):
        row = 0
        for o in support:
            row |= reached_by[o]
        adj.append(row & ~(1 << i))
    labels = tuple(c.input_space.labels())
    return ConfusabilityGraph(c.n_inputs, tuple(adj), labels)


def _max_clique_size(n: int, adj: list[int]) -> int:
    """Size of a maximum clique; ``adj[v]`` is the neighbor bitmask of v."""
    if n == 0:
        return 0
    best = 0

    def color_bound(cand: int) -> tuple[list[int], list[int]]:
        # Greedy coloring: vertices in one color class are pairwise
        # non-adjacent, so a clique takes at most one per class.
        order: list[int] = []
        bounds: list[int] = []
        color = 0
        uncolored = cand
        while uncolored:
            color += 1
            avail = uncolored
            while avail:
                v = (avail & -avail).bit_length() - 1
                avail &= ~(adj[v] | (1 << v))
                uncolored &= ~(1 << v)
                order.append(v)
                bounds.append(color)
        return order, bounds

    def expand(cand: int, size: int) -> None:
        nonlocal best
        order, bounds = color_bound(cand)
        for idx in range(len(order) - 1, -1, -1):
            if size + bounds[idx] <= best:
                return
            v = order[idx]
            if size + 1 > best:
                best = size + 1
            nxt = cand & adj[v]
            if nxt:
                expand(nxt, size + 1)
            cand &= ~(1 << v)

    expand((1 << n) - 1, 0)
    return best


def _max_independent_set_size(n: int, adj: list[int]) -> int:
    """Independence number via maximum clique of the complement."""
    full = (1 << n) - 1
    comp = [full & ~(adj[v] | (1 << v)) for v in range(n)]
    return _max_clique_size(n, comp)


def independence_number(g: ConfusabilityGraph, limit: int = DEFAULT_VERTEX_LIMIT) -> int:
    """Exact independence number via branch and bound with coloring bounds."""
    if g.vertex_count > limit:
        raise ValueError(f"graph has {g.vertex_count} vertices, limit is {limit}")
    return _max_independent_set_size(g.vertex_count, list(g.adjacency))


def independence_number_bruteforce(g: ConfusabilityGraph) -> int:
    """Subset-enumeration oracle, unconditional for <= 24 vertices."""
    n = g.vertex_count
    if n > BRUTE_FORCE_LIMIT:
        raise ValueError(f"brute force limited to {BRUTE_FORCE_LIMIT} vertices")
    adj = g.adjacency
    best = 0
    for mask in range(1 << n):
        size = mask.bit_count()
        if size <= best:
            continue
        m = mask
        ok = True
        while m:
            v = (m & -m).bit_length() - 1
            if adj[v] & mask:
                ok = False
                break
            m &= m - 1
        if ok:
            best = size
    return best


def strong_product(g1: ConfusabilityGraph, g2: ConfusabilityGraph) -> ConfusabilityGraph:
    """(u1,u2) ~ (v1,v2) iff both coordinates are equal-or-adjacent and the
    pairs differ.  Pair (i, j) maps to vertex i * n2 + j."""
    n1, n2 = g1.vertex_count, g2.vertex_count
    closed2 = [row | 1 << u2 for u2, row in enumerate(g2.adjacency)]
    adj = []
    for u1, row1 in enumerate(g1.adjacency):
        # One bit at v1 * n2 for each v1 in the closed neighbourhood of u1.
        # A closed row of g2 is at most n2 bits wide, so times this it lands
        # in disjoint blocks: the product is the OR of the row << v1 * n2.
        spread = sum(1 << v1 * n2 for v1 in _members(row1 | 1 << u1))
        adj.extend(closed * spread & ~(1 << u1 * n2 + u2) for u2, closed in enumerate(closed2))
    labels = None
    if g1.labels is not None and g2.labels is not None:
        labels = tuple((l1, l2) for l1 in g1.labels for l2 in g2.labels)
    return ConfusabilityGraph(n1 * n2, tuple(adj), labels)


def zero_error_capacity_oneshot(c: Channel):
    """One-shot zero-error capacity log2(alpha) of the confusability graph.

    Returns ``(alpha, capacity_bits, exact_bits)`` where ``exact_bits`` is the
    integer bit count when alpha is a power of two, else None.  Raises
    ValueError above ``DEFAULT_VERTEX_LIMIT`` inputs.
    """
    g = confusability_graph(c)
    alpha = independence_number(g)
    capacity = math.log2(alpha)
    exact_bits = alpha.bit_length() - 1 if alpha & (alpha - 1) == 0 else None
    return alpha, capacity, exact_bits


# --- export -----------------------------------------------------------------

def graph_to_dimacs(g: ConfusabilityGraph) -> str:
    lines = [f"p edge {g.vertex_count} {g.edge_count()}"]
    for u in range(g.vertex_count):
        for v in range(u + 1, g.vertex_count):
            if g.has_edge(u, v):
                lines.append(f"e {u + 1} {v + 1}")
    return "\n".join(lines) + "\n"


def graph_to_json(g: ConfusabilityGraph) -> dict:
    return {
        "vertex_count": g.vertex_count,
        "labels": [list(l) if isinstance(l, tuple) else l for l in g.labels] if g.labels else None,
        "adjacency": [
            [v for v in range(g.vertex_count) if g.has_edge(u, v)] for u in range(g.vertex_count)
        ],
    }


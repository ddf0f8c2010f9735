"""Confusability graphs, exact independence numbers, strong products and
one-shot zero-error capacity.

A graph is one bitmask row per vertex, and every graph is validated when it
is constructed: the row count, no bit beyond the last vertex, no self-loop
and symmetry, checked on the whole n x n bit matrix at once.  The builders
work on whole rows too: the confusability graph ORs, per input, the masks of
the inputs that reach each of its outputs, and a strong product row is one
product of a row of the second factor with a spread neighbourhood of the
first.

The independence number is decided by one exact solver: branch and bound on
bitmask rows, in the bitboard style of San Segundo's BBMC and Tomita's MCQ.
Each node covers its candidates with cliques of the graph, grown greedily
from the lowest vertex and kept as one bitmask each; an independent set
takes at most one vertex per clique, so the number of cliques bounds the
branch.  As in both papers, the vertices are first put in a good initial
order, once per call: a greedy clique partition, each clique started at the
vertex with the most uncovered neighbours, with the rows relabelled through
the bit matrix.  So the covers the search starts from depend on the input
labelling only through ties.  A subset-enumeration brute force is kept as an
independent oracle.
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
        matrix = _bit_matrix(n, self.adjacency)
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
    try:
        for u, v in edges:
            # Both rows are indexed before either shift, so an endpoint far
            # beyond n is refused before 1 << v allocates a huge integer.
            row_u, row_v = adj[u], adj[v]
            if u == v:
                break
            adj[u], adj[v] = row_u | 1 << v, row_v | 1 << u
        else:
            return ConfusabilityGraph(n, tuple(adj))
    except (IndexError, ValueError):  # an endpoint >= n, or a negative one (a negative shift count)
        raise ValueError(f"edge endpoint out of range for {n} vertices") from None
    raise ValueError("self-loops not allowed")


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


def _bit_matrix(n: int, rows: Sequence[int]) -> np.ndarray:
    """The n x n 0/1 matrix whose entry [v, u] is bit u of ``rows[v]``."""
    width = (n + 7) // 8
    packed = np.frombuffer(b"".join(row.to_bytes(width, "little") for row in rows), np.uint8)
    return np.unpackbits(packed.reshape(n, width), axis=1, count=n, bitorder="little")


def _bit_rows(matrix: np.ndarray) -> list[int]:
    """The bitmask rows of a 0/1 matrix, the inverse of ``_bit_matrix``."""
    n, width = len(matrix), (matrix.shape[1] + 7) // 8
    packed = np.packbits(matrix, axis=1, bitorder="little").tobytes()
    return [int.from_bytes(packed[v * width:(v + 1) * width], "little") for v in range(n)]


def _clique_order(n: int, adj: Sequence[int]) -> list[int]:
    """The vertices as a greedy partition into cliques, clique after clique.

    Each clique starts at the uncovered vertex with the most uncovered
    neighbours and takes those neighbours in decreasing order of their
    degree among them, each one that is adjacent to the whole clique so far.
    Ties go to the lowest label.
    """
    order = []
    uncovered = (1 << n) - 1
    left = list(range(n))  # the uncovered vertices, lowest first
    while left:
        degrees = [(adj[u] & uncovered).bit_count() for u in left]
        v = left[degrees.index(max(degrees))]
        avail = adj[v] & uncovered
        common = avail  # the candidates adjacent to the whole clique
        order.append(v)
        uncovered ^= 1 << v
        for u in sorted([u for u in left if avail >> u & 1], key=lambda u: (adj[u] & avail).bit_count(),
                        reverse=True):
            if common >> u & 1:
                order.append(u)
                common &= adj[u]
                uncovered ^= 1 << u
        left = [u for u in left if uncovered >> u & 1]
    return order


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


def _max_independent_set_size(n: int, adj: Sequence[int]) -> int:
    """Size of a maximum independent set; ``adj[v]`` is the neighbor bitmask
    of v."""
    nonadj = [~row for row in adj]
    best = 0

    def expand(cand: int, size: int) -> None:
        nonlocal best
        # Cover cand with cliques of G, each grown greedily from its lowest
        # vertex: an independent set takes at most one vertex per clique.
        cliques = []
        uncovered = cand
        while uncovered:
            low = uncovered & -uncovered
            clique = low
            avail = uncovered & adj[low.bit_length() - 1]
            while avail:
                low = avail & -avail
                clique |= low
                avail &= adj[low.bit_length() - 1]
            uncovered ^= clique
            cliques.append(clique)
        # Branch from the last clique down: a vertex of the k-th clique can
        # start a set of at most k vertices among those not yet branched on.
        for k in range(len(cliques), 0, -1):
            clique = cliques[k - 1]
            while clique:
                if size + k <= best:
                    return
                v = clique.bit_length() - 1
                clique ^= 1 << v
                cand ^= 1 << v
                if size >= best:
                    best = size + 1
                nxt = cand & nonadj[v]
                if nxt:
                    expand(nxt, size + 1)

    expand((1 << n) - 1, 0)
    return best


def independence_number(g: ConfusabilityGraph, limit: int = DEFAULT_VERTEX_LIMIT) -> int:
    """Exact independence number via branch and bound with clique-cover
    bounds."""
    n = g.vertex_count
    if n > limit:
        raise ValueError(f"graph has {n} vertices, limit is {limit}")
    # Relabel along a greedy clique partition, so that the solver's
    # lowest-vertex-first covers start from its cliques.  matrix[:, order][order]
    # is matrix[np.ix_(order, order)] in under half the time, and unlike
    # matrix[order][:, order] it comes out C-contiguous, which packbits needs.
    order = _clique_order(n, g.adjacency)
    return _max_independent_set_size(n, _bit_rows(_bit_matrix(n, g.adjacency)[:, order][order]))


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
    for u, row in enumerate(g.adjacency):
        lines.extend(f"e {u + 1} {v + 1}" for v in _members(row >> u + 1 << u + 1))
    return "\n".join(lines) + "\n"


def graph_to_json(g: ConfusabilityGraph) -> dict:
    return {
        "vertex_count": g.vertex_count,
        "labels": [list(l) if isinstance(l, tuple) else l for l in g.labels] if g.labels else None,
        "adjacency": [list(_members(row)) for row in g.adjacency],
    }

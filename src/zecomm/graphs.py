"""Confusability graphs, exact independence numbers, strong products and
one-shot zero-error capacity.

A graph is one bitmask row per vertex.  A graph constructed directly is
validated: the row count, no bit beyond the last vertex, no self-loop and
symmetry.  The last two are checked on the whole n x n bit matrix at once,
held as one string of n * n "0"/"1" characters: the rows written most
significant bit first, row n - 1 first, so that the string is the binary
numeral of the sum of row v << v * n.  Its diagonal is the slice [::n + 1]
(vertex n - 1 first) and column u, written like a row, is the slice
[n - 1 - u::n].  The builders work on whole rows: the confusability graph
ORs, per input, the masks of the inputs that reach each of its outputs, and
a strong product row is one product of a row of the second factor with a
spread neighbourhood of the first.  An edge list is the exception: it is
filled bit by bit, into one byte string of "0"/"1" characters per vertex
(character v of row u is bit v), two byte stores per edge, and each row is
parsed once; only the validation and the relabelling before α use the
one-string layout.  Every builder (confusability graph, edge list and strong
product) makes symmetric, loop-free rows by construction, so its graphs skip
the check.

The independence number of a complete or an edgeless graph is read off the
edge count.  Every other graph goes to one exact solver: branch and bound
on bitmask rows, in the bitboard style of San Segundo's BBMC and Tomita's
MCQ.  Each node covers its candidates with cliques of the graph, grown greedily
from the highest vertex and kept as one bitmask each; an independent set
takes at most one vertex per clique, so the number of cliques bounds the
branch, which takes each clique's vertices lowest first.  As in both papers,
the vertices are first put in a good initial order, once per call: a greedy
clique partition, each clique started at the vertex with the most uncovered
neighbours, with the rows relabelled through the bit matrix in reversed
clique order, the first clique on the highest labels.  So the covers the
search starts from depend on the input labelling only through ties.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .channels import Channel

#: exact-solver vertex limit (branch and bound)
DEFAULT_VERTEX_LIMIT = 40


@dataclass(frozen=True)
class ConfusabilityGraph:
    """Undirected graph on channel inputs with bitset adjacency rows."""

    vertex_count: int
    adjacency: tuple[int, ...]  # adjacency[v] = bitmask of neighbors
    labels: Optional[tuple] = None  # vertex labels carried from the input space

    def __post_init__(self):
        n = self.vertex_count
        _check_vertex_count(n)
        if len(self.adjacency) != n:
            raise ValueError("adjacency length mismatch")
        if self.labels is not None and len(self.labels) != n:
            raise ValueError("labels length mismatch")
        if any(row >> n for row in self.adjacency):  # a negative row included
            raise ValueError("adjacency bits beyond vertex range")
        rows = _bit_strings(n, self.adjacency)
        cells = "".join(reversed(rows))
        loop = cells[::n + 1].rfind("1")  # the diagonal, vertex n - 1 first
        if loop >= 0:
            raise ValueError(f"self-loop at vertex {n - 1 - loop}")
        if any(cells[n - 1 - u::n] != row for u, row in enumerate(rows)):
            raise ValueError("adjacency not symmetric")

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adjacency) // 2

    def is_complete(self) -> bool:
        n = self.vertex_count
        return self.edge_count() == n * (n - 1) // 2


def _check_vertex_count(n) -> None:
    if type(n) is not int:
        raise TypeError(f"vertex count {n!r} is not an int")
    if n < 0:
        raise ValueError(f"vertex count {n} is negative")


def _built(n: int, adjacency: tuple[int, ...], labels: Optional[tuple] = None) -> ConfusabilityGraph:
    """The graph with these rows, which a builder made symmetric, loop-free
    and within range, constructed without the check."""
    g = object.__new__(ConfusabilityGraph)
    g.__dict__.update(vertex_count=n, adjacency=adjacency, labels=labels)
    return g


def graph_from_edges(n: int, edges: Sequence[tuple[int, int]]) -> ConfusabilityGraph:
    """The graph on ``n`` vertices with the given undirected edges.

    Duplicate edges and both orientations of an edge are allowed.  Each
    vertex u has its own row of n bytes b"0"/b"1", least significant bit
    first, so byte v of row u is bit v.  Each edge makes two byte stores
    (bit v of row u and bit u of row v), so the rows come out symmetric, and
    each row is parsed, reversed, into its int once at the end.

    Refusals: first a vertex count that is not an int (``TypeError``, a bool
    included) or is negative (``ValueError``); then the first faulty edge in
    list order decides:
    - an endpoint that is not an int raises ``TypeError``;
    - an endpoint that is negative or at least ``n``, or an edge that is not
      a pair, raises ``ValueError("edge endpoint out of range for n
      vertices")``; no row is shifted, so a far endpoint such as 10**8 costs
      no large allocation;
    - an edge (v, v) with v in range raises ``ValueError("self-loops not
      allowed")``.
    """
    _check_vertex_count(n)
    rows = [bytearray(b"0" * n) for _ in range(n)]  # rows[u][v] is bit v of row u
    try:
        for u, v in edges:
            if (u | v) < 0:  # list indexing would wrap a negative endpoint
                raise IndexError
            rows[u][v] = rows[v][u] = 49  # b"1"; both endpoints are looked up before the first store
    except (IndexError, TypeError, ValueError) as fault:
        # Edges store nothing past a fault, and a self-loop stores only its
        # diagonal cell, so a set diagonal cell means a self-loop came first.
        if not any(row[v] == 49 for v, row in enumerate(rows)):
            if isinstance(fault, TypeError):
                raise
            raise ValueError(f"edge endpoint out of range for {n} vertices") from None
    if any(row[v] == 49 for v, row in enumerate(rows)):
        raise ValueError("self-loops not allowed")
    return _built(n, tuple(int(row[::-1], 2) for row in rows))


def cycle_graph(n: int) -> ConfusabilityGraph:
    return graph_from_edges(n, [(v, (v + 1) % n) for v in range(n)])


def _members(mask: int) -> Iterator[int]:
    """The positions of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _bit_strings(n: int, rows: Sequence[int]) -> list[str]:
    """Each row as n "0"/"1" characters, most significant bit first."""
    spec = f"0{n}b"
    return [format(row, spec) for row in rows]


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
    return _built(c.n_inputs, tuple(adj), tuple(c.input_space.labels()))


def _max_independent_set_size(n: int, adj: Sequence[int]) -> int:
    """Size of a maximum independent set; ``adj[v]`` is the neighbor bitmask
    of v."""
    bit = [1 << v for v in range(n)]
    nonadj = [~row for row in adj]
    best = 0

    def expand(cand: int, size: int) -> None:
        nonlocal best
        # Cover cand with cliques of G, each grown greedily from its highest
        # vertex: an independent set takes at most one vertex per clique.
        # Finding the highest vertex allocates nothing, so each step of a
        # clique makes two big ints, the OR and the AND.
        cliques = []
        uncovered = cand
        while uncovered:
            v = uncovered.bit_length() - 1
            clique = bit[v]
            avail = uncovered & adj[v]
            while avail:
                v = avail.bit_length() - 1
                clique |= bit[v]
                avail &= adj[v]
            uncovered ^= clique
            cliques.append(clique)
        # Branch from the last clique down, lowest vertex first: a vertex of
        # the k-th clique can start a set of at most k vertices among those
        # not yet branched on.
        for k in range(len(cliques), 0, -1):
            clique = cliques[k - 1]
            while clique:
                if size + k <= best:
                    return
                low = clique & -clique
                clique ^= low
                cand ^= low
                if size >= best:
                    best = size + 1
                nxt = cand & nonadj[low.bit_length() - 1]
                if nxt:
                    expand(nxt, size + 1)

    expand((1 << n) - 1, 0)
    return best


def independence_number(g: ConfusabilityGraph, limit: int = DEFAULT_VERTEX_LIMIT) -> int:
    """Exact independence number: read off the edge count for a complete or
    an edgeless graph of any size, else by branch and bound with
    clique-cover bounds, which refuses a graph of more than ``limit``
    vertices."""
    n = g.vertex_count
    edges = g.edge_count()
    if edges == n * (n - 1) // 2:  # complete, the empty graph and K_1 included
        return min(n, 1)
    if edges == 0:
        return n
    if n > limit:
        raise ValueError(f"graph has {n} vertices, limit is {limit}")
    # Relabel along a greedy clique partition, in reverse, so that the
    # solver's highest-vertex-first covers start from its cliques: new vertex
    # v is order[v], the first clique on top.  With the rows joined in
    # reversed order, column u read as a row has bit w set iff order[w] ~ u,
    # so it is the new row of u.
    order = _clique_order(n, g.adjacency)
    order.reverse()
    cells = "".join(_bit_strings(n, [g.adjacency[u] for u in reversed(order)]))
    return _max_independent_set_size(n, [int(cells[n - 1 - u::n], 2) for u in order])


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
    return _built(n1 * n2, tuple(adj), labels)


def zero_error_capacity_oneshot(c: Channel):
    """One-shot zero-error capacity log2(alpha) of the confusability graph.

    Returns ``(alpha, capacity_bits, exact_bits)`` where ``exact_bits`` is the
    integer bit count when alpha is a power of two, else None.  Raises
    ValueError above ``DEFAULT_VERTEX_LIMIT`` inputs unless the graph is
    complete or edgeless.
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

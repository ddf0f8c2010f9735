import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import flatten, independence_number_bruteforce
from zecomm import graphs
from zecomm.channels import IndexSpace, identity_channel, make_channel, make_mm, make_nm, tensor_channels
from zecomm.graphs import (
    DEFAULT_VERTEX_LIMIT,
    ConfusabilityGraph,
    _clique_order,
    confusability_graph,
    cycle_graph,
    graph_from_edges,
    graph_to_dimacs,
    graph_to_json,
    independence_number,
    strong_product,
    zero_error_capacity_oneshot,
)


def has_edge(g: ConfusabilityGraph, u: int, v: int) -> bool:
    return bool((g.adjacency[u] >> v) & 1)


def complete_graph(n: int) -> ConfusabilityGraph:
    full = (1 << n) - 1
    return ConfusabilityGraph(n, tuple(full & ~(1 << v) for v in range(n)))


def random_graph(rng: random.Random, n: int, p: float) -> ConfusabilityGraph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return graph_from_edges(n, edges)


# --- pair-loop references: the definitions, checked one vertex pair at a time


def strong_product_pairs(g1: ConfusabilityGraph, g2: ConfusabilityGraph) -> tuple[tuple[int, ...], tuple]:
    n1, n2 = g1.vertex_count, g2.vertex_count
    adj = [0] * (n1 * n2)
    for u1 in range(n1):
        for u2 in range(n2):
            u = u1 * n2 + u2
            for v1 in range(n1):
                if v1 != u1 and not has_edge(g1, u1, v1):
                    continue
                for v2 in range(n2):
                    if v2 != u2 and not has_edge(g2, u2, v2):
                        continue
                    v = v1 * n2 + v2
                    if v != u:
                        adj[u] |= 1 << v
    labels = None
    if g1.labels is not None and g2.labels is not None:
        labels = tuple((l1, l2) for l1 in g1.labels for l2 in g2.labels)
    return tuple(adj), labels


def confusability_pairs(c) -> tuple[tuple[int, ...], tuple]:
    n = c.n_inputs
    supports = [sum(1 << o for o in support) for support in c.supports]
    adj = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if supports[u] & supports[v]:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    return tuple(adj), tuple(c.input_space.labels())


def reference_graph_from_edges(n: int, edges) -> ConfusabilityGraph:
    """Reference: the earlier build, two big-integer ORs per edge.  Both rows
    are indexed before either shift, so a far endpoint is refused before it
    is shifted by."""
    adj = [0] * n
    try:
        for u, v in edges:
            row_u, row_v = adj[u], adj[v]
            if u == v:
                break
            adj[u], adj[v] = row_u | 1 << v, row_v | 1 << u
        else:
            return ConfusabilityGraph(n, tuple(adj))
    except (IndexError, ValueError):  # an endpoint >= n, or a negative one (a negative shift count)
        raise ValueError(f"edge endpoint out of range for {n} vertices") from None
    raise ValueError("self-loops not allowed")


def independence_number_complement_coloring(g: ConfusabilityGraph) -> int:
    """Maximum clique of the complement graph, branching on greedy coloring
    bounds built vertex by vertex."""
    n = g.vertex_count
    full = (1 << n) - 1
    comp = [full & ~(row | 1 << v) for v, row in enumerate(g.adjacency)]
    best = 0

    def color_bound(cand: int) -> tuple[list[int], list[int]]:
        order, bounds = [], []
        color = 0
        uncolored = cand
        while uncolored:
            color += 1
            avail = uncolored
            while avail:
                v = (avail & -avail).bit_length() - 1
                avail &= ~(comp[v] | 1 << v)
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
            best = max(best, size + 1)
            nxt = cand & comp[v]
            if nxt:
                expand(nxt, size + 1)
            cand &= ~(1 << v)

    expand(full, 0)
    return best


def permuted_edges(g: ConfusabilityGraph, perm: list[int]) -> list[tuple[int, int]]:
    """The edges of ``g``, each once, with vertex u renamed perm[u]."""
    return [(perm[u], perm[v]) for u in range(g.vertex_count) for v in range(u + 1, g.vertex_count)
            if has_edge(g, u, v)]


def relabelled(g: ConfusabilityGraph, seed: int) -> ConfusabilityGraph:
    perm = list(range(g.vertex_count))
    random.Random(seed).shuffle(perm)
    return graph_from_edges(g.vertex_count, permuted_edges(g, perm))


def assert_same_graph(g: ConfusabilityGraph, reference: tuple[tuple[int, ...], tuple]) -> None:
    adjacency, labels = reference
    assert g.vertex_count == len(adjacency)
    for u, (row, expected) in enumerate(zip(g.adjacency, adjacency)):
        assert row == expected, f"row {u}"
    assert g.labels == labels


def nm_graph(m: int) -> ConfusabilityGraph:
    return confusability_graph(make_nm(m))


@pytest.mark.parametrize("g1, g2", [
    (cycle_graph(5), cycle_graph(5)),
    (cycle_graph(5), cycle_graph(9)),
    (nm_graph(4), cycle_graph(7)),
    (cycle_graph(7), nm_graph(4)),
], ids=["C5xC5", "C5xC9", "Nm4xC7", "C7xNm4"])
def test_strong_product_matches_pair_loop(g1, g2):
    assert_same_graph(strong_product(g1, g2), strong_product_pairs(g1, g2))


def test_strong_product_cube_matches_pair_loop_at_every_step():
    nm4 = nm_graph(4)
    square = strong_product(nm4, nm4)
    assert_same_graph(square, strong_product_pairs(nm4, nm4))
    cube = strong_product(square, nm4)
    assert cube.vertex_count == 512 and cube.labels[1] == ((nm4.labels[0], nm4.labels[0]), nm4.labels[1])
    assert_same_graph(cube, strong_product_pairs(square, nm4))


@pytest.mark.parametrize("m", range(2, 9))
@pytest.mark.parametrize("family", [make_nm, make_mm], ids=["Nm", "Mm"])
def test_confusability_graph_matches_pair_loop(family, m):
    c = family(m)
    assert_same_graph(confusability_graph(c), confusability_pairs(c))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_strong_product_matches_pair_loop_on_random_graphs(data):
    factors = []
    for _ in range(2):
        n = data.draw(st.integers(0, 7))
        possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = data.draw(st.lists(st.sampled_from(possible), unique=True)) if possible else []
        factors.append(ConfusabilityGraph(n, graph_from_edges(n, edges).adjacency, tuple(range(n))))
    assert_same_graph(strong_product(*factors), strong_product_pairs(*factors))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_confusability_graph_matches_pair_loop_on_random_channels(data):
    n_in, n_out = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 8))
    columns = [data.draw(st.lists(st.integers(0, 3), min_size=n_out, max_size=n_out).filter(any))
               for _ in range(n_in)]
    c = make_channel([[Fraction(w, sum(column)) for w in column] for column in columns],
                     IndexSpace((n_in,)), IndexSpace((n_out,)))
    g = confusability_graph(c)
    assert_same_graph(g, confusability_pairs(c))
    assert ConfusabilityGraph(n_in, g.adjacency, g.labels) == g  # the validation accepts the unchecked rows


def test_graph_validation():
    def rejects(n, rows, message):
        with pytest.raises(ValueError) as info:
            ConfusabilityGraph(n, tuple(rows))
        assert str(info.value) == message

    for n in (1, 8, 9, 64, 65, 512):  # the validation reads each row as n "0"/"1" characters
        full = (1 << n) - 1
        complete = [full & ~(1 << v) for v in range(n)]
        assert ConfusabilityGraph(n, tuple(complete)).is_complete()
        assert ConfusabilityGraph(n, (0,) * n).edge_count() == 0
        rejects(n, complete[:-1], "adjacency length mismatch")
        rejects(n, complete + [0], "adjacency length mismatch")
        last = n - 1
        for rows in ([0] * last + [1 << n], complete[:last] + [complete[last] | 1 << n], [-1] + [0] * last,
                     complete[:last] + [-1]):
            rejects(n, rows, "adjacency bits beyond vertex range")
        for v in {0, n // 2, last}:
            rows = list(complete)
            rows[v] |= 1 << v
            rejects(n, rows, f"self-loop at vertex {v}")
        if n > 1:
            rows = list(complete)
            rows[last] &= ~1  # vertex 0 still lists vertex n - 1
            rejects(n, rows, "adjacency not symmetric")
            rows = [0] * n
            rows[n // 2] = 1 << last
            rejects(n, rows, "adjacency not symmetric")
    with pytest.raises(ValueError, match="self-loops not allowed"):
        graph_from_edges(2, [(0, 0)])
    with pytest.raises(ValueError):  # a negative endpoint
        graph_from_edges(3, [(0, -1)])


@pytest.mark.parametrize("labels", [(), (1,), (1, 2, 3)])
def test_graph_refuses_labels_that_are_not_one_per_vertex(labels):
    with pytest.raises(ValueError, match="^labels length mismatch$"):
        ConfusabilityGraph(2, (0, 0), labels)
    with pytest.raises(ValueError, match="^labels length mismatch$"):
        ConfusabilityGraph(len(labels) + 1, (0,) * (len(labels) + 1), labels)
    assert ConfusabilityGraph(len(labels), (0,) * len(labels), labels).labels == labels


@pytest.mark.parametrize("n, edges", [
    (3, [(0, 3)]),
    (3, [(3, 0)]),
    (3, [(0, 1), (1, 7)]),
    (0, [(0, 1)]),
    (3, [(0, -1)]),
    (3, [(-1, 0)]),
    (3, [(0, 2**70)]),
    (3, [(0, 1, 2)]),
    (3, [(0,)]),
])
def test_graph_from_edges_refuses_endpoints_out_of_range(n, edges):
    with pytest.raises(ValueError, match=f"edge endpoint out of range for {n} vertices"):
        graph_from_edges(n, edges)


@pytest.mark.parametrize("edge", [(0, 1.5), (0, "1"), (1.0, 2)])
def test_graph_from_edges_refuses_endpoints_that_are_not_ints(edge):
    with pytest.raises(TypeError):
        graph_from_edges(3, [edge])


@pytest.mark.parametrize("n, error", [(True, TypeError), (2.0, TypeError), ("3", TypeError),
                                      (-1, ValueError), (-3, ValueError)])
def test_a_vertex_count_that_is_not_a_count_is_refused(n, error):
    with pytest.raises(error, match="^vertex count"):
        graph_from_edges(n, [])
    with pytest.raises(error, match="^vertex count"):
        ConfusabilityGraph(n, (0,))
    if error is ValueError:
        with pytest.raises(ValueError, match=f"^vertex count {n} is negative$"):
            cycle_graph(n)


def test_graph_from_edges_refuses_a_far_endpoint_before_shifting_by_it():
    # 1 << 10**8 alone would take 12 MiB.
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="edge endpoint out of range for 3 vertices"):
            graph_from_edges(3, [(0, 10**8)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def build_outcome(build, n, edges):
    """The adjacency ``build`` gives, or the type of what it raises, with the
    message of a ValueError."""
    try:
        return build(n, edges).adjacency
    except ValueError as fault:
        return ValueError, str(fault)
    except TypeError:
        return TypeError


@pytest.mark.parametrize("n", [0, 1, 2, 64, 65, 512])
def test_graph_from_edges_matches_reference_on_random_edge_lists(n):
    rng = random.Random(20261019 + n)
    isolated = set(rng.sample(range(n), n // 4))
    linked = [v for v in range(n) if v not in isolated]
    for density in (0.02, 0.3, 0.9):
        edges = [(u, v) if rng.random() < 0.5 else (v, u)
                 for i, u in enumerate(linked) for v in linked[i + 1:] if rng.random() < density]
        edges += [(v, u) for u, v in rng.sample(edges, len(edges) // 3)]  # duplicates, in both orientations
        edges += rng.sample(edges, len(edges) // 3)
        rng.shuffle(edges)
        g = graph_from_edges(n, edges)
        assert g.adjacency == reference_graph_from_edges(n, edges).adjacency
        assert not any(g.adjacency[v] for v in isolated)


def revalidated(g: ConfusabilityGraph) -> ConfusabilityGraph:
    """``g`` constructed again through the checking constructor."""
    return ConfusabilityGraph(g.vertex_count, g.adjacency, g.labels)


@pytest.mark.parametrize("n", [0, 1, 64, 65, 512])
def test_graphs_built_from_edges_pass_the_check_they_skip(n):
    rng = random.Random(20261119 + n)
    for density in (0.0, 0.05, 0.5, 1.0):
        edges = [(u, v) if rng.random() < 0.5 else (v, u)
                 for u in range(n) for v in range(u + 1, n) if rng.random() < density]
        g = graph_from_edges(n, edges)
        assert revalidated(g) == g


def test_strong_products_pass_the_check_they_skip():
    rng = random.Random(20261119)
    for _ in range(40):
        factors = []
        for _ in range(2):
            n, density = rng.randrange(0, 23), rng.random()
            edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density]
            labels = tuple(range(n)) if rng.random() < 0.5 else None
            factors.append(ConfusabilityGraph(n, graph_from_edges(n, edges).adjacency, labels))
        g = strong_product(*factors)
        assert revalidated(g) == g


def nm4_cube_relabelled() -> tuple[ConfusabilityGraph, list[int], list[tuple[int, int]]]:
    nm4 = nm_graph(4)
    cube = strong_product(strong_product(nm4, nm4), nm4)
    perm = list(range(cube.vertex_count))
    random.Random(3).shuffle(perm)
    return cube, perm, permuted_edges(cube, perm)


def test_graph_from_edges_builds_the_relabelled_nm4_cube():
    cube, perm, edges = nm4_cube_relabelled()
    assert len(edges) == 97300
    permuted = [0] * cube.vertex_count
    for u, row in enumerate(cube.adjacency):
        permuted[perm[u]] = sum(1 << perm[v] for v in range(cube.vertex_count) if row >> v & 1)
    assert graph_from_edges(512, edges).adjacency == tuple(permuted)
    assert reference_graph_from_edges(512, edges).adjacency == tuple(permuted)


def test_graph_from_edges_reads_a_one_pass_generator_like_the_list():
    _, _, edges = nm4_cube_relabelled()
    assert graph_from_edges(512, (edge for edge in edges)).adjacency == graph_from_edges(512, edges).adjacency


@pytest.mark.parametrize("n, edges", [
    (3, [(0, 0), (0, 5)]),
    (3, [(0, 5), (0, 0)]),
    (3, [(0, 4)]),  # cell 0 * 3 + 4 is the diagonal cell of vertex 1
    (3, [(1, 5)]),  # cell 1 * 3 + 5 is the diagonal cell of vertex 2
    (3, [(4, 0)]),
    (3, [(1, 1), (0, 4)]),
    (3, [(0, 4), (1, 1)]),
    (3, [(0, 1), (2, 2), (0, 1, 2)]),
    (3, [(0, 1), (0, 1, 2), (2, 2)]),
    (3, [(2, 2), (0, 1.5)]),
    (3, [(0, 1.5), (2, 2)]),
    (3, [(1, 1), (0, -1)]),
    (3, [(0, -1), (1, 1)]),
    (3, [(0, 1), (1, 2), (2, 0), (2, 10**8)]),
    (3, [(0, 1), (1, 2), (2, 0), (1, 1)]),
    (3, [(0, 1), (1, 2), (2, 0)]),
    (0, [(0, 0)]),
    (3, [(2, 3), (1, 1)]),  # row 2 exists, so the far endpoint fails at its column
    (3, [(3, 2), (1, 1)]),
    (3, [(1, 1), (2, 3)]),
    (3, [(True, 2)]),  # a bool indexes like the int it equals, in both builds
], ids=str)
def test_graph_from_edges_first_faulty_edge_decides_as_in_reference(n, edges):
    assert build_outcome(graph_from_edges, n, edges) == build_outcome(reference_graph_from_edges, n, edges)


@pytest.mark.parametrize("loop", [(-1, -1), (3, 3)])
def test_graph_from_edges_refuses_a_self_loop_out_of_range_as_out_of_range(loop):
    # The reference named (-1, -1) a self-loop: it indexed a row from the end.
    with pytest.raises(ValueError, match="^edge endpoint out of range for 3 vertices$"):
        graph_from_edges(3, [loop])


def traced_peak(build) -> int:
    tracemalloc.start()
    try:
        build()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_graph_from_edges_peak_memory_stays_near_the_validation():
    # The build holds one n-byte row per vertex, n * n bytes in all, and the
    # rows it parses from them, no more than the validation's own n * n
    # string and row strings.
    _, _, edges = nm4_cube_relabelled()
    rows = graph_from_edges(512, edges).adjacency
    validation = traced_peak(lambda: ConfusabilityGraph(512, rows))
    assert traced_peak(lambda: graph_from_edges(512, edges)) <= 1.5 * validation


def test_basic_graphs():
    assert independence_number(complete_graph(6)) == 1
    assert complete_graph(6).is_complete()
    assert independence_number(cycle_graph(5)) == 2
    assert independence_number(cycle_graph(7)) == 3
    empty = graph_from_edges(9, [])
    assert independence_number(empty) == 9
    assert empty.edge_count() == 0


@pytest.mark.parametrize("n", [0, 1, 2, 7, 40, 64])
def test_empty_and_complete_graphs(n):
    limit = max(n, DEFAULT_VERTEX_LIMIT)
    assert independence_number(graph_from_edges(n, []), limit=limit) == n
    assert independence_number(complete_graph(n), limit=limit) == min(n, 1)


def test_alpha_of_complete_and_edgeless_graphs_is_read_off_the_edge_count(monkeypatch):
    clique_order = graphs._clique_order
    ordered = []
    monkeypatch.setattr(graphs, "_clique_order", lambda n, adj: ordered.append(n) or clique_order(n, adj))
    for n in range(65):
        limit = max(n, DEFAULT_VERTEX_LIMIT)
        assert independence_number(complete_graph(n), limit=limit) == min(n, 1)
        assert independence_number(graph_from_edges(n, []), limit=limit) == n
    for m in range(2, 9):
        assert independence_number(confusability_graph(make_mm(m))) == 1
    assert ordered == []
    assert independence_number(nm_graph(4)) == 2 and ordered == [8]
    # the limit guards branch and bound only: past it, the two shortcuts still answer
    assert independence_number(complete_graph(41)) == 1
    assert independence_number(graph_from_edges(41, [])) == 41
    with pytest.raises(ValueError, match="^graph has 41 vertices, limit is 40$"):
        independence_number(cycle_graph(41))


def test_confusability_identity_channel():
    g = confusability_graph(identity_channel(6))
    assert g.edge_count() == 0
    assert independence_number(g) == 6


@pytest.mark.parametrize("m", [2, 3])
def test_confusability_nm_small_complete(m):
    g = confusability_graph(make_nm(m))
    assert g.is_complete()
    assert independence_number(g) == 1


@pytest.mark.parametrize("m", [4, 5, 6])
def test_confusability_nm_large_not_complete(m):
    # the shifted-permutation rule double-covers some cross pairs and misses
    # others once m >= 4, e.g. inputs (0,1) and (1,2) share no output
    c = make_nm(m)
    g = confusability_graph(c)
    assert not g.is_complete()
    assert independence_number(g) == 2
    u = flatten(c.input_space, (0, 1))
    v = flatten(c.input_space, (1, 2))
    assert not has_edge(g, u, v)
    assert not set(c.supports[u]) & set(c.supports[v])


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_confusability_mm_complete(m):
    g = confusability_graph(make_mm(m))
    assert g.is_complete()
    assert independence_number(g) == 1


def test_solver_matches_bruteforce_on_200_random_graphs():
    rng = random.Random(20260823)
    for trial in range(200):
        n = rng.randint(2, 16) if trial < 190 else rng.randint(17, 22)
        g = random_graph(rng, n, rng.choice([0.1, 0.3, 0.5, 0.8]))
        assert independence_number(g) == independence_number_bruteforce(g)


def test_solver_matches_bruteforce_on_every_graph_up_to_6_vertices():
    # every labelled graph: one per subset of the n * (n - 1) / 2 pairs,
    # 33,868 graphs for n = 0..6
    count = 0
    for n in range(7):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        for subset in range(1 << len(pairs)):
            g = graph_from_edges(n, [pair for i, pair in enumerate(pairs) if subset >> i & 1])
            assert independence_number(g) == independence_number_bruteforce(g), (n, subset)
            count += 1
    assert count == 33868


def test_clique_order_is_a_permutation():
    rng = random.Random(20261018)
    for n in range(65):
        g = random_graph(rng, n, rng.choice([0.1, 0.3, 0.5, 0.8]))
        assert sorted(_clique_order(n, g.adjacency)) == list(range(n))


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_alpha_does_not_depend_on_the_labelling(data):
    n = data.draw(st.integers(0, 20))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = data.draw(st.lists(st.sampled_from(possible), unique=True)) if possible else []
    perm = data.draw(st.permutations(range(n)))
    g = graph_from_edges(n, edges)
    h = graph_from_edges(n, [(perm[u], perm[v]) for u, v in edges])
    assert independence_number(g) == independence_number(h) == independence_number_bruteforce(g)


def test_solver_matches_complement_coloring_on_random_graphs():
    # 25 to 60 vertices: beyond the brute force, checked against the
    # complement-coloring solver instead.
    rng = random.Random(20261018)
    for _ in range(120):
        n = rng.randint(25, 60)
        g = random_graph(rng, n, rng.choice([0.1, 0.3, 0.5, 0.8]))
        assert independence_number(g, limit=n) == independence_number_complement_coloring(g)


# alpha(C_{2k+1} x C_{2l+1}) = floor((2l+1) k / 2) for k <= l (Hales 1973);
# alpha(Nm(m)^k) = 2^k for m >= 4, as alpha*(Nm(m)) = 2 is multiplicative;
# alpha(C5^3) = 10 (Baumert et al. 1971).  C5^3 takes 0.4 to 0.9 s per
# relabelling, so it gets three.
@pytest.mark.parametrize("factors, alpha, relabellings", [
    ((cycle_graph(5), cycle_graph(9)), 9, 8),
    ((cycle_graph(7), cycle_graph(7)), 10, 8),
    ((cycle_graph(7), cycle_graph(9)), 13, 8),
    ((cycle_graph(9), cycle_graph(9)), 18, 8),
    ((nm_graph(4), nm_graph(4)), 4, 8),
    ((nm_graph(5), nm_graph(5)), 4, 8),
    ((nm_graph(6), nm_graph(6)), 4, 8),
    ((nm_graph(4), nm_graph(4), nm_graph(4)), 8, 8),
    pytest.param((cycle_graph(5),) * 3, 10, 3, marks=pytest.mark.slow),
], ids=["C5xC9", "C7xC7", "C7xC9", "C9xC9", "Nm4^2", "Nm5^2", "Nm6^2", "Nm4^3", "C5^3"])
def test_alpha_of_relabelled_strong_products(factors, alpha, relabellings):
    power = factors[0]
    for factor in factors[1:]:
        power = strong_product(power, factor)
    for seed in range(relabellings):
        g = relabelled(power, seed)
        assert independence_number(g, limit=g.vertex_count) == alpha


def test_raised_limit_solves_graphs_above_default():
    # alpha(C7 x C7) = floor(7 * 3 / 2) = 10 (Hales 1973); 49 vertices is
    # above the default limit, so only a raised limit reaches the solver.
    c7_squared = strong_product(cycle_graph(7), cycle_graph(7))
    assert c7_squared.vertex_count == 49 > DEFAULT_VERTEX_LIMIT
    assert independence_number(c7_squared, limit=49) == 10
    with pytest.raises(ValueError):
        independence_number(c7_squared)


def test_strong_product_pentagon():
    c5 = cycle_graph(5)
    sq = strong_product(c5, c5)
    assert sq.vertex_count == 25
    assert independence_number(sq) == 5


def test_strong_product_commutes_with_tensor_channels():
    n2 = make_nm(2)
    g1 = confusability_graph(n2)
    product_graph = strong_product(g1, g1)
    tensored_graph = confusability_graph(tensor_channels(n2, n2))
    assert product_graph.vertex_count == tensored_graph.vertex_count == 16
    assert product_graph.adjacency == tensored_graph.adjacency


def test_capacity_oneshot():
    alpha, capacity, exact_bits = zero_error_capacity_oneshot(identity_channel(8))
    assert (alpha, capacity, exact_bits) == (8, 3.0, 3)
    alpha, capacity, exact_bits = zero_error_capacity_oneshot(make_nm(3))
    assert (alpha, capacity, exact_bits) == (1, 0.0, 0)
    alpha, capacity, exact_bits = zero_error_capacity_oneshot(identity_channel(6))
    assert alpha == 6 and math.isclose(capacity, math.log2(6)) and exact_bits is None


def test_vertex_limits():
    big = cycle_graph(41)  # neither complete nor edgeless, so it needs branch and bound
    with pytest.raises(ValueError):
        independence_number(big)
    with pytest.raises(ValueError):
        independence_number_bruteforce(graph_from_edges(25, []))


def test_dimacs_export():
    text = graph_to_dimacs(cycle_graph(4))
    lines = text.strip().splitlines()
    assert lines[0] == "p edge 4 4"
    assert "e 1 2" in lines


def test_json_roundtrip():
    g = confusability_graph(make_nm(3))
    data = graph_to_json(g)
    assert data["vertex_count"] == 6
    assert data["labels"] == [[i1, i2] for i1 in range(2) for i2 in range(3)]
    assert data["adjacency"] == [[v for v in range(6) if v != u] for u in range(6)]  # complete K_6
    edges = [(u, v) for u, nbrs in enumerate(data["adjacency"]) for v in nbrs if u < v]
    n = data["vertex_count"]
    again = ConfusabilityGraph(n, graph_from_edges(n, edges).adjacency, tuple(map(tuple, data["labels"])))
    assert again.adjacency == g.adjacency and again.labels == g.labels
    data = graph_to_json(cycle_graph(4))
    assert data["labels"] is None and data["adjacency"] == [[1, 3], [0, 2], [1, 3], [0, 2]]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_solver_matches_bruteforce_property(data):
    n = data.draw(st.integers(1, 12))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = data.draw(st.lists(st.sampled_from(possible), unique=True)) if possible else []
    g = graph_from_edges(n, edges)
    assert independence_number(g) == independence_number_bruteforce(g)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_strong_product_alpha_superadditive(data):
    n = data.draw(st.integers(2, 5))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = data.draw(st.lists(st.sampled_from(possible), unique=True))
    g = graph_from_edges(n, edges)
    a = independence_number(g)
    assert independence_number(strong_product(g, g)) >= a * a

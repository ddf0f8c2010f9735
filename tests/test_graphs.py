import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zecomm.channels import identity_channel, make_mm, make_nm, tensor_channels
from zecomm.graphs import (
    DEFAULT_VERTEX_LIMIT,
    ConfusabilityGraph,
    complete_graph,
    confusability_graph,
    cycle_graph,
    graph_from_edges,
    graph_from_json,
    graph_to_dimacs,
    graph_to_json,
    independence_number,
    independence_number_bruteforce,
    strong_product,
    zero_error_capacity_oneshot,
)


def random_graph(rng: random.Random, n: int, p: float) -> ConfusabilityGraph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return graph_from_edges(n, edges)


def test_graph_validation():
    with pytest.raises(ValueError):
        ConfusabilityGraph(2, (0b10,))  # wrong length
    with pytest.raises(ValueError):
        ConfusabilityGraph(1, (0b1,))  # self-loop
    with pytest.raises(ValueError):
        ConfusabilityGraph(2, (0b10, 0b00))  # asymmetric
    with pytest.raises(ValueError):
        graph_from_edges(2, [(0, 0)])


def test_basic_graphs():
    assert independence_number(complete_graph(6)) == 1
    assert complete_graph(6).is_complete()
    assert independence_number(cycle_graph(5)) == 2
    assert independence_number(cycle_graph(7)) == 3
    empty = graph_from_edges(9, [])
    assert independence_number(empty) == 9
    assert empty.edge_count() == 0


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
    u = c.input_space.flatten((0, 1))
    v = c.input_space.flatten((1, 2))
    assert not g.has_edge(u, v)
    assert not set(c.support(u)) & set(c.support(v))


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
    big = graph_from_edges(41, [])
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
    again = graph_from_json(graph_to_json(g))
    assert again.adjacency == g.adjacency
    assert again.labels == g.labels


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

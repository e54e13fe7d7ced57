"""Fan containment, witnesses, and saturation."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fanfree.enumeration import EnumerationTask, enumerate_graphs
from fanfree.fans import (common_neighbor_check, contains_fan,
                          fan_saturation_gap, is_fan_free, is_fan_saturated)
from fanfree.graphs import (complete_bipartite, complete_graph, cycle_graph,
                            empty_graph, from_edges, induced_subgraph,
                            make_fan, make_split, path_graph)
from fanfree.matching import matching_number

from helpers import brute_lex_matching, naive_contains_fan, random_graph


def test_fan_contains_itself():
    for k in (1, 2, 3):
        w = contains_fan(make_fan(k), k)
        assert w is not None and w.center == 0
        assert len(w.pairs) == k


def test_split_graphs_fan_free():
    for n in range(5, 12):
        for k in range(1, 4):
            if k < n:
                assert is_fan_free(make_split(n, k), k)


def test_known_containments():
    # neighbourhood of any K_5 vertex is K_4, which has two disjoint edges
    w = contains_fan(complete_graph(5), 2)
    assert w is not None and w.center == 0 and w.pairs == ((1, 2), (3, 4))
    assert not is_fan_free(complete_graph(3), 1)
    assert is_fan_free(complete_bipartite(4, 4), 1)  # no triangles at all
    # bowtie missing one edge has no two disjoint neighbourhood edges
    bowtie_minus = from_edges(5, [(0, 1), (0, 2), (1, 2), (0, 3), (3, 4)])
    assert is_fan_free(bowtie_minus, 2)
    assert not is_fan_free(bowtie_minus.with_edge(0, 4), 2)


def test_witness_determinism_and_validity():
    rng = random.Random(17)
    for _ in range(200):
        g = random_graph(rng, rng.randint(3, 9), rng.choice([0.4, 0.7]))
        for k in (1, 2, 3):
            w = contains_fan(g, k)
            assert (w is None) == is_fan_free(g, k)
            if w is None:
                continue
            # no smaller centre admits a fan
            for v in range(w.center):
                nb = sorted(g.neighbors(v))
                if len(nb) >= 2 * k:
                    sub, _ = induced_subgraph(g, nb)
                    assert matching_number(sub).size < k
            # the pairs are the lexicographically smallest k disjoint
            # edges of the centre's neighbourhood
            sub, keep = induced_subgraph(g, g.neighbors(w.center))
            assert matching_number(sub).size >= k
            assert w.pairs == tuple((keep[a], keep[b]) for a, b in
                                    brute_lex_matching(sub, k))
            used = set()
            for u, v in w.pairs:
                assert g.has_edge(u, v)
                assert g.has_edge(w.center, u) and g.has_edge(w.center, v)
                assert u not in used and v not in used
                used.update((u, v))


def test_agrees_with_naive_embedding_search():
    rng = random.Random(29)
    for _ in range(300):
        g = random_graph(rng, rng.randint(1, 7), rng.random())
        for k in (1, 2):
            assert is_fan_free(g, k) == (not naive_contains_fan(g, k))


def test_monotone_in_k():
    rng = random.Random(31)
    for _ in range(100):
        g = random_graph(rng, rng.randint(3, 9), 0.6)
        hits = [not is_fan_free(g, k) for k in range(1, 5)]
        # containment for k implies containment for every smaller k
        for small, big in zip(hits, hits[1:]):
            assert small or not big


def test_invalid_k():
    with pytest.raises(ValueError):
        contains_fan(complete_graph(3), 0)
    with pytest.raises(ValueError):
        is_fan_free(complete_graph(3), -1)


def test_common_neighbor_check():
    assert common_neighbor_check(make_split(8, 2))
    assert common_neighbor_check(cycle_graph(5))
    assert not common_neighbor_check(path_graph(4))
    assert not common_neighbor_check(empty_graph(3))
    assert common_neighbor_check(complete_graph(4))


def test_saturation():
    # the split graph is saturated: each added edge joins two independent
    # vertices, whose common neighbourhood holds the clique plus shared edges
    assert is_fan_saturated(make_split(6, 2), 2)
    assert fan_saturation_gap(make_split(6, 2), 2) is None
    # an empty graph cannot become a fan with one added edge
    assert not is_fan_saturated(empty_graph(5), 2)
    assert fan_saturation_gap(empty_graph(5), 2) == (0, 1)
    # complete graphs are vacuously saturated whenever fan-free
    assert is_fan_saturated(complete_graph(4), 2)
    with pytest.raises(ValueError):
        is_fan_saturated(complete_graph(5), 2)  # already contains a 2-fan
    with pytest.raises(ValueError):
        fan_saturation_gap(make_fan(2), 2)


def test_saturation_against_definition():
    # direct definitional check on every 5-vertex class
    for g in enumerate_graphs(EnumerationTask(5)):
        if not is_fan_free(g, 2):
            continue
        expect = all(not is_fan_free(g.with_edge(u, v), 2)
                     for u in range(5) for v in range(u + 1, 5)
                     if not g.has_edge(u, v))
        assert is_fan_saturated(g, 2) == expect


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_fan_free_closed_under_edge_deletion(data):
    seed = data.draw(st.integers(0, 10 ** 6))
    rng = random.Random(seed)
    g = random_graph(rng, data.draw(st.integers(2, 9)), rng.random())
    k = data.draw(st.integers(1, 3))
    if is_fan_free(g, k) and g.edge_count():
        u, v = rng.choice(g.edges())
        assert is_fan_free(g.without_edge(u, v), k)

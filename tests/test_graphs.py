"""Bitset graph core: construction, builders, graph6 codec."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fanfree.enumeration import EnumerationTask, canonical_form, enumerate_graphs
from fanfree.graphs import (MAX_VERTICES, Graph, Graph6Error,
                            complete_bipartite, complete_graph, circulant_graph,
                            cut_edges, cycle_graph, disjoint_union, empty_graph,
                            from_edges, graph6_decode, graph6_encode,
                            induced_subgraph, join, make_fan, make_split,
                            path_graph, second_neighborhood, split_parameter)

from helpers import permuted, random_graph, reference_graph6_encode


def test_graph_validation_rejects_bad_input():
    with pytest.raises(ValueError):
        Graph(0, ())
    with pytest.raises(ValueError):
        Graph(MAX_VERTICES + 1, tuple([0] * (MAX_VERTICES + 1)))
    with pytest.raises(ValueError):
        Graph(2, (0,))  # row count mismatch
    with pytest.raises(ValueError):
        Graph(2, (1, 0))  # loop at vertex 0
    with pytest.raises(ValueError):
        Graph(2, (2, 0))  # asymmetric
    with pytest.raises(ValueError):
        Graph(2, (4, 0))  # bit outside vertex range
    with pytest.raises(ValueError):
        Graph(2, (-1, 0))


def test_basic_accessors():
    g = from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert g.edge_count() == 3
    assert g.edges() == ((0, 1), (1, 2), (2, 3))
    assert g.degree_sequence() == (2, 2, 1, 1)
    assert g.has_edge(1, 2) and not g.has_edge(0, 3)
    assert g.neighbors(1) == {0, 2}
    assert g.is_connected()
    h = g.without_edge(1, 2)
    assert not h.is_connected()
    assert h.with_edge(1, 2) == g
    with pytest.raises(ValueError):
        g.with_edge(1, 1)
    with pytest.raises(ValueError):
        from_edges(3, [(0, 5)])


def test_builders_shapes():
    assert complete_graph(5).edge_count() == 10
    assert empty_graph(4).edge_count() == 0
    assert path_graph(6).degree_sequence() == (2, 2, 2, 2, 1, 1)
    assert cycle_graph(6).degree_sequence() == (2,) * 6
    kb = complete_bipartite(3, 4)
    assert kb.edge_count() == 12
    assert sorted(kb.degree_sequence()) == [3, 3, 3, 3, 4, 4, 4]
    with pytest.raises(ValueError):
        cycle_graph(2)


def test_make_split_shape():
    # k-clique joined to an independent set: clique degrees n-1, rest k
    for n, k in [(6, 2), (10, 3), (5, 4)]:
        g = make_split(n, k)
        degs = sorted(g.degree(v) for v in range(n))
        assert degs == sorted([k] * (n - k) + [n - 1] * k)
        assert g.edge_count() == k * (k - 1) // 2 + k * (n - k)
    assert make_split(4, 3) == complete_graph(4)
    with pytest.raises(ValueError):
        make_split(4, 4)
    with pytest.raises(ValueError):
        make_split(4, 0)


def test_split_recognition_exhaustive():
    # the degree test alone must name exactly the k whose S(n, k) is the
    # graph's class
    for n in range(1, 8):
        splits = {canonical_form(make_split(n, k)): k for k in range(1, n)}
        for g in enumerate_graphs(EnumerationTask(n)):
            assert split_parameter(g) == splits.get(canonical_form(g)), \
                graph6_encode(g)


def test_make_fan_shape():
    # k triangles sharing exactly the hub vertex 0
    for k in [1, 2, 3]:
        f = make_fan(k)
        assert f.n == 2 * k + 1
        assert f.edge_count() == 3 * k
        assert f.degree(0) == 2 * k
        assert all(f.degree(v) == 2 for v in range(1, f.n))
    assert make_fan(1) == complete_graph(3)


def test_join_and_union():
    g = join(empty_graph(2), empty_graph(3))
    assert g == complete_bipartite(2, 3)
    h = disjoint_union(complete_graph(3), complete_graph(3))
    assert h.n == 6 and h.edge_count() == 6 and not h.is_connected()
    assert join(complete_graph(2), empty_graph(4)) == make_split(6, 2)


def test_circulant():
    assert circulant_graph(7, (1,)) == cycle_graph(7)
    g = circulant_graph(8, (1, 2))
    assert all(g.degree(v) == 4 for v in range(8))
    assert circulant_graph(4, (1, 2)).edge_count() == 6  # offset n/2 pairs once


def test_induced_subgraph_and_second_neighborhood():
    g = path_graph(5)
    sub, mapping = induced_subgraph(g, [0, 1, 3])
    assert sub.n == 3 and sub.edge_count() == 1
    assert mapping == (0, 1, 3)
    assert second_neighborhood(g, 0) == frozenset({2})
    assert second_neighborhood(g, 2) == frozenset({0, 4})
    star = make_split(6, 1)
    assert second_neighborhood(star, 1) == frozenset({2, 3, 4, 5})


def test_cut_edges():
    g = complete_bipartite(2, 3)
    assert cut_edges(g, [0, 1], [2, 3, 4]) == 6
    assert cut_edges(path_graph(4), [0, 1], [2, 3]) == 1
    with pytest.raises(ValueError):
        cut_edges(g, [0, 1], [1, 2])  # overlapping sides


KNOWN_GRAPH6 = [
    ("@", empty_graph(1)),
    ("A?", empty_graph(2)),
    ("A_", complete_graph(2)),
    ("Bw", complete_graph(3)),
    ("DhC", path_graph(5)),
    ("Dhc", cycle_graph(5)),
    ("D~{", complete_graph(5)),
]


@pytest.mark.parametrize("text,graph", KNOWN_GRAPH6)
def test_graph6_known_values(text, graph):
    assert graph6_encode(graph) == text
    assert graph6_decode(text) == graph


def test_graph6_long_form_boundary():
    # orders 63 and 64 use the '~' prefix with an 18-bit size field
    for n in (62, 63, 64):
        g = make_split(n, 3)
        text = graph6_encode(g)
        assert text.startswith("~") == (n >= 63)
        assert graph6_decode(text) == g


def test_graph6_rejects_malformed():
    for bad in ["", "B", "Bww", "B\x1f", "hello world", "~", "~??",
                "\x7fA?", "B" + chr(200)]:
        with pytest.raises(Graph6Error):
            graph6_decode(bad)
    # nonzero padding bits after the triangle data
    with pytest.raises(Graph6Error):
        graph6_decode("A" + chr(63 + 16))


def test_graph6_roundtrip_random():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(1, MAX_VERTICES)
        g = random_graph(rng, n, rng.choice([0.1, 0.5, 0.9]))
        assert graph6_decode(graph6_encode(g)) == g


def test_graph6_encode_matches_bitwise_reference():
    # the column-packed encoder gives the bytes of the bit-at-a-time one,
    # at every order, the '~' header orders 63 and 64 included
    rng = random.Random(29)
    for n in range(1, MAX_VERTICES + 1):
        for p in (0.0, 0.3, 0.7, 1.0):
            g = random_graph(rng, n, p)
            assert graph6_encode(g) == reference_graph6_encode(g), (n, p)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_graph_properties(data):
    n = data.draw(st.integers(1, 12))
    seed = data.draw(st.integers(0, 10 ** 6))
    rng = random.Random(seed)
    g = random_graph(rng, n, rng.random())
    # handshake: degree sum is twice the edge count
    assert sum(g.degree(v) for v in range(n)) == 2 * g.edge_count()
    # encoding is permutation-sensitive but decoding inverts encoding
    assert graph6_decode(graph6_encode(g)) == g
    perm = list(range(n))
    rng.shuffle(perm)
    h = permuted(g, perm)
    assert h.edge_count() == g.edge_count()
    assert sorted(h.degree_sequence()) == sorted(g.degree_sequence())



def _union(n):
    return disjoint_union(empty_graph(n // 2), complete_graph(n - n // 2))


def _join(n):
    return join(complete_graph(n // 2), empty_graph(n - n // 2))


@pytest.mark.parametrize("build,n", [
    *((f, n) for f in (empty_graph, complete_graph) for n in (0, -1, 65)),
    *((f, n) for f in (_union, _join) for n in (65, 128)),
])
def test_builders_reject_order_through_graph(build, n):
    # the builders construct through Graph, whose error names the order
    with pytest.raises(ValueError, match=f"vertex count must be in 1..64, got {n}$"):
        build(n)

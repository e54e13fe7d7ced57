"""Exact matching solver and the bounded-matching edge-maximum formulas."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fanfree.graphs import (Graph, complete_bipartite, complete_graph,
                            cycle_graph, disjoint_union, empty_graph,
                            from_edges, make_split, path_graph)
from fanfree.matching import (ForbiddenPattern, Regime, is_kk2_free,
                              matching_number, max_edges_matching, turan_kk2)
from fanfree.search import efgg_construction

from helpers import (all_labeled_graphs, brute_lex_matching,
                     brute_matching_number, permuted, random_graph)


def _check_witness(g: Graph, result):
    used = 0
    for u, v in result.pairs:
        assert g.has_edge(u, v)
        m = 1 << u | 1 << v
        assert not used & m
        used |= m
    assert len(result.pairs) == result.size


def _petersen() -> Graph:
    return from_edges(10, [(i, (i + 1) % 5) for i in range(5)]
                      + [(i, i + 5) for i in range(5)]
                      + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])


def _triangles(count: int) -> Graph:
    g = complete_graph(3)
    for _ in range(count - 1):
        g = disjoint_union(g, complete_graph(3))
    return g


def test_matching_known_values():
    assert matching_number(complete_graph(4)).size == 2
    assert matching_number(complete_graph(5)).size == 2
    assert matching_number(cycle_graph(5)).size == 2
    assert matching_number(cycle_graph(6)).size == 3
    assert matching_number(path_graph(7)).size == 3
    assert matching_number(empty_graph(6)).size == 0
    assert matching_number(make_split(9, 2)).size == 2
    assert matching_number(complete_graph(4)).pairs == ((0, 1), (2, 3))
    # large and blossom-heavy graphs with closed-form matching numbers; the
    # seeded relabellings leave the greedy seed short on odd cycles and the
    # Petersen graph, so augmenting paths through blossoms close the gap
    rng = random.Random(41)
    cases = [(complete_bipartite(15, 16), 15), (_petersen(), 5),
             (_triangles(21), 21), (efgg_construction(32, 3)[0], 16)]
    cases += [(cycle_graph(2 * m + 1), m) for m in range(1, 32)]
    for g, nu in cases:
        for h in (g, permuted(g, rng.sample(range(g.n), g.n))):
            r = matching_number(h)
            assert r.size == nu, (h, nu)
            _check_witness(h, r)
            assert not is_kk2_free(h, nu) and is_kk2_free(h, nu + 1)


def test_matching_vs_bruteforce_exhaustive_small():
    # the witness is the lexicographically smallest maximum matching
    for n in range(1, 7):
        for g in all_labeled_graphs(n):
            r = matching_number(g)
            assert r.size == brute_matching_number(g)
            assert r.pairs == brute_lex_matching(g)


def test_matching_vs_bruteforce_random():
    rng = random.Random(23)
    for _ in range(250):
        n = rng.randint(2, 9)
        g = random_graph(rng, n, rng.choice([0.15, 0.4, 0.7]))
        r = matching_number(g)
        assert r.size == brute_matching_number(g)
        _check_witness(g, r)


def test_is_kk2_free_matches_matching_number():
    rng = random.Random(5)
    for _ in range(150):
        g = random_graph(rng, rng.randint(1, 8), rng.random())
        nu = matching_number(g).size
        for k in range(1, 5):
            assert is_kk2_free(g, k) == (nu < k)
    with pytest.raises(ValueError):
        is_kk2_free(complete_graph(3), 0)


def test_max_edges_matching_formula_vs_bruteforce():
    # exact maxima over all labelled graphs with the given matching number;
    # the solver itself is validated against the subset oracle separately
    for n in range(1, 7):
        best: dict[int, int] = {}
        for g in all_labeled_graphs(n):
            nu = matching_number(g).size
            best[nu] = max(best.get(nu, -1), g.edge_count())
        for alpha, edges in best.items():
            if n >= 2 * alpha + 1:
                value, _ = max_edges_matching(n, alpha)
                assert value == edges, (n, alpha)


def test_max_edges_matching_trichotomy():
    # clique regime below the boundary, split regime above, both at it
    assert max_edges_matching(4, 1) == (3, Regime.BOUNDARY)  # 2n = 5a+3
    assert max_edges_matching(3, 1) == (3, Regime.CLIQUE)
    assert max_edges_matching(5, 1) == (4, Regime.SPLIT)
    assert max_edges_matching(9, 3) == (21, Regime.BOUNDARY)  # 2n = 5a+3
    assert max_edges_matching(9, 4) == (36, Regime.CLIQUE)
    assert max_edges_matching(20, 3) == (54, Regime.SPLIT)
    assert max_edges_matching(7, 3) == (21, Regime.CLIQUE)
    with pytest.raises(ValueError):
        max_edges_matching(2, 1)  # needs n >= 2a+1
    with pytest.raises(ValueError):
        max_edges_matching(3, -1)


def test_turan_kk2_values():
    assert turan_kk2(7, 2) == (6, Regime.SPLIT)
    assert turan_kk2(4, 2) == (3, Regime.BOUNDARY)
    assert turan_kk2(3, 2) == (3, Regime.CLIQUE)
    assert turan_kk2(5, 3) == (10, Regime.CLIQUE)
    assert turan_kk2(50, 3) == (2 * 50 - 3, Regime.SPLIT)
    with pytest.raises(ValueError):
        turan_kk2(5, 1)
    with pytest.raises(ValueError):
        turan_kk2(2, 2)


def test_forbidden_pattern_labels():
    assert ForbiddenPattern("kk2", 3).label() == "3K2"
    assert ForbiddenPattern("fan", 2).label() == "F2"
    with pytest.raises(ValueError):
        ForbiddenPattern("clique", 2)
    with pytest.raises(ValueError):
        ForbiddenPattern("fan", 0)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_matching_properties(data):
    seed = data.draw(st.integers(0, 10 ** 6))
    rng = random.Random(seed)
    n = data.draw(st.integers(1, 9))
    g = random_graph(rng, n, rng.random())
    nu = matching_number(g).size
    # bounded by half the order, monotone under edge addition
    assert 0 <= nu <= n // 2
    nonedges = [(u, v) for u in range(n) for v in range(u + 1, n)
                if not g.has_edge(u, v)]
    if nonedges:
        u, v = rng.choice(nonedges)
        assert nu <= matching_number(g.with_edge(u, v)).size <= nu + 1
    # additive over disjoint union
    h = random_graph(rng, data.draw(st.integers(1, 6)), rng.random())
    assert matching_number(disjoint_union(g, h)).size == \
        nu + matching_number(h).size

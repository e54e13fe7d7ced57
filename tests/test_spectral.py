"""Eigensolver, signless Laplacian, closed forms, quotients, degree bound."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fanfree.enumeration import EnumerationTask, enumerate_graphs
from fanfree.graphs import (complete_bipartite, complete_graph, cycle_graph,
                            disjoint_union, empty_graph, graph6_decode,
                            graph6_encode, make_split, path_graph)
from fanfree.spectral import (EIGEN_ACCURACY, JACOBI_OFF_FACTOR,
                              JACOBI_SWEEP_BUDGET, QuotientMatrix,
                              SpectrumResult, SymMatrix, VertexPartition,
                              _degree_bound,
                              eq1_identity, merris_bound, perron_dominance, q1,
                              q1_split_closed_form, q1_split_lower_bound,
                              quotient, quotient_eigenvalues,
                              rayleigh_power_lambda1, signless_laplacian,
                              spectrum, split_quotient)

from helpers import (numpy_q1, numpy_spectrum, random_connected_graph,
                     random_graph, random_regular_graph)


def test_sym_matrix_validation():
    with pytest.raises(ValueError):
        SymMatrix(np.array([[0.0, 1.0], [2.0, 0.0]]))  # not symmetric
    with pytest.raises(ValueError):
        SymMatrix(np.array([[np.nan]]))
    with pytest.raises(ValueError):
        SymMatrix(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        SymMatrix(np.zeros((0, 0)))
    m = SymMatrix(np.eye(3))
    assert m.order == 3 and m.is_integer_valued()


def test_spectrum_against_numpy():
    rng = np.random.default_rng(42)
    for n in [1, 2, 3, 5, 10, 25, 40]:
        a = rng.standard_normal((n, n))
        a = (a + a.T) / 2
        got = spectrum(SymMatrix(a)).eigenvalues
        want = numpy_spectrum(a)
        assert np.allclose(got, want, atol=1e-9)


def test_spectrum_known_closed_forms():
    # Q(K_n) has eigenvalues 2n-2 and n-2; Q(C_n) = 2I + A(C_n)
    s = spectrum(signless_laplacian(complete_graph(6))).eigenvalues
    assert abs(s[0] - 10) < 1e-10
    assert all(abs(x - 4) < 1e-10 for x in s[1:])
    c = spectrum(signless_laplacian(cycle_graph(8))).eigenvalues
    want = sorted((2 + 2 * math.cos(2 * math.pi * j / 8) for j in range(8)),
                  reverse=True)
    assert np.allclose(c, want, atol=1e-10)


def test_spectrum_convergence_reporting():
    # D{O: already diagonal after a few sweeps; its off-diagonal norm must
    # not be lost to cancellation against the diagonal.  A 1x1 matrix is
    # diagonal from the start.
    for m in (signless_laplacian(complete_graph(5)),
              signless_laplacian(graph6_decode("D{O")),
              SymMatrix(np.array([[2.5]]))):
        res = spectrum(m)
        assert res.offdiag_residual <= JACOBI_OFF_FACTOR * m.order
        assert res.sweeps <= JACOBI_SWEEP_BUDGET
        expected = np.linalg.eigvalsh(m.entries)[::-1]
        assert np.max(np.abs(np.array(res.eigenvalues) - expected)) < 1e-12
    assert spectrum(SymMatrix(np.array([[2.5]]))) == SpectrumResult((2.5,), 0.0, 0)


def test_rayleigh_power_matches_jacobi():
    rng = random.Random(3)
    for _ in range(40):
        g = random_connected_graph(rng, rng.randint(2, 20))
        m = signless_laplacian(g)
        assert abs(rayleigh_power_lambda1(m) - q1(g)) < 1e-8


def test_q1_known_values():
    assert abs(q1(complete_graph(4)) - 6) < 1e-10
    assert abs(q1(complete_bipartite(2, 3)) - 5) < 1e-10
    assert abs(q1(make_split(10, 2)) - (6 + 4 * math.sqrt(2))) < 1e-10
    assert abs(q1(empty_graph(5))) < 1e-12
    # spectral radius of a union is the max over components
    u = disjoint_union(complete_graph(4), cycle_graph(5))
    assert abs(q1(u) - 6) < 1e-10


def test_q1_matches_numpy_oracle():
    rng = random.Random(9)
    for _ in range(60):
        g = random_graph(rng, rng.randint(1, 24), rng.random())
        assert abs(q1(g) - numpy_q1(g)) < 1e-9


def test_split_closed_form():
    # (n + 2k - 2 + sqrt((n + 2k - 2)^2 - 8k(k-1))) / 2 against eigensolver
    assert abs(q1_split_closed_form(8, 2) - (5 + math.sqrt(21))) < 1e-12
    assert abs(q1_split_closed_form(9, 2) - (11 + math.sqrt(105)) / 2) < 1e-12
    for n, k in [(5, 1), (12, 3), (30, 4), (64, 13)]:
        assert abs(q1_split_closed_form(n, k) - q1(make_split(n, k))) < 1e-9
    assert abs(q1_split_closed_form(6, 1) - q1(make_split(6, 1))) < 1e-10
    with pytest.raises(ValueError):
        q1_split_closed_form(4, 4)
    with pytest.raises(ValueError):
        q1_split_closed_form(4, 0)


def test_split_lower_bound():
    for n, k in [(8, 2), (20, 2), (15, 3), (40, 5), (64, 5)]:
        if n >= 2 * k * k - 4 * k + 3:
            low = q1_split_lower_bound(n, k)
            assert low <= q1_split_closed_form(n, k) + 1e-12
    with pytest.raises(ValueError):
        q1_split_lower_bound(10, 4)  # below the n >= 2k^2-4k+3 threshold


def test_merris_bound():
    # regular: bound = 2d = q1; complete bipartite: bound = a + b = q1
    value, vertex = merris_bound(cycle_graph(5))
    assert abs(value - 4) < 1e-12 and vertex == 0
    value, _ = merris_bound(complete_bipartite(3, 4))
    assert abs(value - 7) < 1e-12
    value, vertex = merris_bound(make_split(8, 2))
    assert abs(value - (7 + 19 / 7)) < 1e-12
    assert vertex == 0  # clique vertices maximise, smallest index reported
    rng = random.Random(77)
    for _ in range(100):
        g = random_connected_graph(rng, rng.randint(2, 20))
        bound, _ = merris_bound(g)
        assert q1(g) <= bound + 1e-9
    with pytest.raises(ValueError):
        merris_bound(disjoint_union(empty_graph(1), complete_graph(3)))


def test_degree_bound_covers_every_small_class():
    # every class up to order 7, isolated vertices and the edgeless graph
    # included; where merris_bound is defined the two agree exactly
    for n in range(1, 8):
        for g in enumerate_graphs(EnumerationTask(n)):
            bound = _degree_bound(g)
            assert q1(g) <= bound + EIGEN_ACCURACY, graph6_encode(g)
            if all(g.degree(v) for v in range(n)):
                assert bound == merris_bound(g)[0]
    assert _degree_bound(empty_graph(4)) == 0.0
    isolated = disjoint_union(empty_graph(1), complete_graph(3))
    assert _degree_bound(isolated) == 4.0
    assert abs(q1(isolated) - 4.0) < 1e-9


def test_merris_equality_cases():
    rng = random.Random(88)
    for _ in range(30):
        g = random_regular_graph(rng, rng.randint(4, 16))
        bound, _ = merris_bound(g)
        assert abs(bound - q1(g)) < 1e-9
    for a in range(1, 6):
        for b in range(a, 6):
            bound, _ = merris_bound(complete_bipartite(a, b))
            assert abs(bound - q1(complete_bipartite(a, b))) < 1e-9


def test_vertex_partition_validation():
    VertexPartition(((0, 1), (2,)))
    with pytest.raises(ValueError):
        VertexPartition(((0, 1), (1, 2)))  # overlap
    with pytest.raises(ValueError):
        VertexPartition(((0, 2),))  # hole
    with pytest.raises(ValueError):
        VertexPartition(((),))


def test_split_quotient_values():
    # clique/independent partition gives [[n+k-2, n-k], [k, k]]
    q = split_quotient(10, 2)
    assert q.equitable
    assert np.array_equal(q.b, np.array([[10.0, 8.0], [2.0, 2.0]]))
    assert q.block_sizes == (2, 8)
    top = quotient_eigenvalues(q)[0]
    assert abs(top - q1_split_closed_form(10, 2)) < 1e-8


def test_quotient_equitable_detection():
    g = cycle_graph(6)
    m = signless_laplacian(g)
    p = VertexPartition(((0, 2, 4), (1, 3, 5)))
    q = quotient(m, p)
    assert q.equitable
    assert abs(quotient_eigenvalues(q)[0] - 4) < 1e-10
    bad = VertexPartition(((0, 1, 2), (3, 4, 5)))
    assert not quotient(m, bad).equitable
    path = quotient(signless_laplacian(path_graph(4)),
                    VertexPartition(((0, 3), (1, 2))))
    assert path.equitable  # end vertices vs middle vertices


def test_quotient_random_non_equitable():
    rng = random.Random(101)
    found_flags = []
    for _ in range(60):
        g = random_connected_graph(rng, rng.randint(4, 10))
        m = signless_laplacian(g)
        # random 2-block partition; reject only the rare equitable draw
        cut = rng.randint(1, g.n - 1)
        verts = list(range(g.n))
        rng.shuffle(verts)
        p = VertexPartition((tuple(sorted(verts[:cut])),
                             tuple(sorted(verts[cut:]))))
        found_flags.append(quotient(m, p).equitable)
    assert found_flags.count(True) < 10  # random partitions are rarely equitable


def test_perron_dominance():
    g = complete_graph(5)
    h = g.without_edge(0, 1)
    assert perron_dominance(signless_laplacian(g), signless_laplacian(h))
    with pytest.raises(ValueError):
        perron_dominance(signless_laplacian(h), signless_laplacian(g))
    neg = SymMatrix(np.array([[0.0, -1.0], [-1.0, 0.0]]))
    with pytest.raises(ValueError):
        perron_dominance(neg, SymMatrix(np.zeros((2, 2))))


def test_eq1_identity_examples():
    g = cycle_graph(5)
    for v in range(5):
        lhs, rhs, equal = eq1_identity(g, v)
        assert equal and lhs == rhs == 4
    s = make_split(8, 2)
    for v in range(8):
        lhs, rhs, equal = eq1_identity(s, v)
        assert equal


def test_eq1_identity_random():
    rng = random.Random(55)
    for _ in range(100):
        g = random_graph(rng, rng.randint(2, 12), rng.random())
        for v in range(g.n):
            if g.degree(v) == 0:
                continue
            lhs, rhs, equal = eq1_identity(g, v)
            assert equal and lhs == rhs


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_spectrum_properties(data):
    seed = data.draw(st.integers(0, 10 ** 6))
    rng = random.Random(seed)
    g = random_graph(rng, data.draw(st.integers(1, 12)), rng.random())
    m = signless_laplacian(g)
    eigs = spectrum(m).eigenvalues
    # trace equals eigenvalue sum; Q is positive semidefinite
    assert abs(sum(eigs) - 2 * g.edge_count()) < 1e-8
    assert eigs[-1] >= -1e-9
    assert all(a >= b - 1e-12 for a, b in zip(eigs, eigs[1:]))

"""Eigensolver, signless Laplacian, closed forms, quotients, degree bound."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fanfree import spectral
from fanfree.enumeration import EnumerationTask, enumerate_graphs
from fanfree.graphs import (complete_bipartite, complete_graph, cycle_graph,
                            disjoint_union, empty_graph, graph6_decode,
                            graph6_encode, make_split, path_graph)
from fanfree.search import efgg_construction
from fanfree.spectral import (EIGEN_ACCURACY, JACOBI_OFF_FACTOR,
                              JACOBI_SWEEP_BUDGET, QuotientMatrix,
                              POWER_STEPS, SpectrumResult, SymMatrix,
                              VertexPartition, _adjacency_bits, _power_bounds,
                              eq1_identity, merris_bound, perron_dominance, q1,
                              q1_split_closed_form, q1_split_lower_bound,
                              quotient, quotient_eigenvalues,
                              rayleigh_power_lambda1, signless_laplacian,
                              spectrum, split_quotient)

from helpers import (_reference_jacobi, numpy_q1, numpy_spectrum, permuted,
                     random_connected_graph, random_graph, random_regular_graph,
                     reference_merris_bound, reference_power_bound,
                     reference_spectrum, reference_vertex_bounds)


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


def _assert_same_bits_as_reference(m: SymMatrix, off_factor: float = JACOBI_OFF_FACTOR):
    got = spectrum(m, _off_factor=off_factor)
    eig, off, sweeps = reference_spectrum(m.entries, off_factor, JACOBI_SWEEP_BUDGET)
    assert [x.hex() for x in got.eigenvalues] == [x.hex() for x in eig]
    assert got.offdiag_residual.hex() == off.hex()
    assert got.sweeps == sweeps
    # the whole final matrix too: no scratch diagonal slot or stale
    # column-p entry of the two-row kernel may survive a sweep
    a, b = np.array(m.entries), np.array(m.entries)
    off_target = off_factor * m.order
    assert (spectral._jacobi(a, off_target, JACOBI_SWEEP_BUDGET)
            == _reference_jacobi(b, off_target, JACOBI_SWEEP_BUDGET))
    assert a.tobytes() == b.tobytes()
    return got


def test_spectrum_bits_match_whole_row_kernel():
    # the certify-n8 near-maximal graphs, whose q1 digits are pinned by
    # the benchmark, and D{O
    for text in ("G}rEE?", "G}rE@{", "G}rEC?", "G}rE@w", "G}rE@o", "D{O"):
        m = signless_laplacian(graph6_decode(text))
        _assert_same_bits_as_reference(m)
        _assert_same_bits_as_reference(m, 1e-14)  # the certificate's tie re-check
    # a labelling of efgg_construction(31, 2) in the clustered slow tail
    g, _ = efgg_construction(31, 2)
    g = permuted(g, random.Random(0).sample(range(31), 31))
    assert _assert_same_bits_as_reference(signless_laplacian(g)).sweeps >= 19
    for entries in ([[2.5]], [[0.0]], [[1.0, 1.0], [1.0, 1.0]],
                    [[-0.5, 3e-300], [3e-300, 7.0]], [[0.0, -2.0], [-2.0, 0.0]]):
        _assert_same_bits_as_reference(SymMatrix(entries))
        _assert_same_bits_as_reference(SymMatrix(entries), 1e-14)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_spectrum_bits_match_whole_row_kernel_random(data):
    seed = data.draw(st.integers(0, 10 ** 6))
    rng = random.Random(seed)
    n = data.draw(st.integers(1, 20))
    g = random_graph(rng, n, rng.random())
    _assert_same_bits_as_reference(signless_laplacian(g))
    # float matrices, as quotient_eigenvalues passes to spectrum
    a = np.random.default_rng(seed).standard_normal((n, n))
    if data.draw(st.booleans()):
        a[np.random.default_rng(seed + 1).random((n, n)) < 0.5] = 0.0
    _assert_same_bits_as_reference(SymMatrix((a + a.T) / 2.0))
    # scaled near overflow and to where squares underflow: a scratch slot
    # that grew or was squared would raise a warning, an error under pytest
    for scale in (1e150, 1e-300):
        for off_factor in (JACOBI_OFF_FACTOR, 1e-14):
            _assert_same_bits_as_reference(SymMatrix((a + a.T) * (scale / 2.0)), off_factor)


def test_rayleigh_power_raises_when_budget_runs_out():
    # P3 would not do: Q(P3) maps the all-ones start to its Perron vector
    # (1, 2, 1) in one step.  Q(P4) needs about 45 steps.
    p3 = signless_laplacian(path_graph(3))
    assert abs(rayleigh_power_lambda1(p3, max_iter=2) - 3) < 1e-12
    with pytest.raises(RuntimeError, match=r"2 iterations \(residual [0-9.e+-]+, "):
        rayleigh_power_lambda1(signless_laplacian(path_graph(4)), max_iter=2)


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


def test_degree_bound_covers_every_small_class(monkeypatch):
    # every class up to order 7, isolated vertices and the edgeless graph
    # included: q1 lies below the degree bound and below every power
    # step's bound, each up to the eigensolver's accuracy
    for n in range(1, 8):
        graphs = list(enumerate_graphs(EnumerationTask(n)))
        values = [q1(g) for g in graphs]
        adj, deg = _adjacency_bits(graphs)
        degree = [max(b or 0.0 for b in reference_vertex_bounds(g)) for g in graphs]
        steps = []
        for s in range(POWER_STEPS + 1):
            monkeypatch.setattr(spectral, "POWER_STEPS", s)
            steps.append(_power_bounds(adj, deg).tolist())
        for i, g in enumerate(graphs):
            bounds = [step[i] for step in steps]
            assert values[i] <= degree[i] + EIGEN_ACCURACY, graph6_encode(g)
            assert all(values[i] <= b + EIGEN_ACCURACY for b in bounds), graph6_encode(g)
            # step 0 is the degree bound up to rounding, and no step rises
            assert abs(bounds[0] - degree[i]) <= 1e-12 * degree[i]
            assert all(b <= a * (1 + 1e-12) for a, b in zip(bounds, bounds[1:]))
    monkeypatch.undo()
    for g, bound in [(empty_graph(4), 0.0),
                     (disjoint_union(empty_graph(1), complete_graph(3)), 4.0)]:
        adj, deg = _adjacency_bits([g])
        assert max(b or 0.0 for b in reference_vertex_bounds(g)) == bound
        assert _power_bounds(adj, deg).tolist() == [bound]
        assert abs(q1(g) - bound) < 1e-9


def _random_graphs():
    rng = random.Random(64)
    return [random_graph(rng, n, rng.random()) for n in range(1, 65) for _ in range(3)]


def test_power_bounds_match_one_graph_float_loop():
    # the batch returns the bits of a float64 power iteration on one graph
    # at a time: every class up to order 7, and random graphs up to order
    # 64 with K64, whose last step reaches 63 * 126**6, the largest entry
    # at any order
    random_graphs = _random_graphs() + [complete_graph(64)]
    for n in range(1, 65):
        graphs = (list(enumerate_graphs(EnumerationTask(n))) if n <= 7 else
                  [g for g in random_graphs if g.n == n])
        expect = [reference_power_bound(g, POWER_STEPS) for g in graphs]
        assert _power_bounds(*_adjacency_bits(graphs)).tolist() == expect, n


def test_vertex_bounds_match_scalar_loop():
    # merris_bound's per-vertex degree bounds have the scalar loop's bits:
    # every class up to order 8, and random graphs up to order 64, where
    # vertex 63 sets bit 63 of its neighbours' rows
    random_graphs = _random_graphs()
    for n in range(1, 65):
        graphs = (list(enumerate_graphs(EnumerationTask(n))) if n <= 8 else
                  [g for g in random_graphs if g.n == n])
        for g in graphs:
            expect = reference_vertex_bounds(g)
            if None in expect:
                with pytest.raises(ValueError, match=f"^vertex {expect.index(None)} is isolated"):
                    merris_bound(g)
                continue
            best = max(expect)
            assert merris_bound(g) == (best, expect.index(best)), graph6_encode(g)


def test_merris_bound_matches_scalar_loop():
    # value, smallest argmax and the isolated-vertex error as before
    graphs = _random_graphs() + [make_split(8, 2), cycle_graph(5),
                                 disjoint_union(complete_graph(3), empty_graph(2))]
    for g in graphs:
        try:
            expect = reference_merris_bound(g)
        except ValueError as exc:
            with pytest.raises(ValueError, match=f"^{exc}$"):
                merris_bound(g)
            continue
        value, vertex = merris_bound(g)
        assert type(value) is float and type(vertex) is int
        assert (value, vertex) == expect, graph6_encode(g)


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


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_quotient_equitable_is_exact_on_integer_matrices(data):
    # one slack decides every matrix; on integers it must equal row-sum
    # equality in Python ints, also where entries near 2**40 make a
    # spread of 1 tiny relative to the sums
    seed = data.draw(st.integers(0, 10 ** 6))
    rng = random.Random(seed)
    n = rng.randint(1, 8)
    offset = rng.choice((0, -1, 2 ** 40))
    entries = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            entries[i][j] = entries[j][i] = offset + rng.randint(0, 1)
    labels = [rng.randrange(rng.randint(1, n)) for _ in range(n)]
    blocks = [tuple(v for v in range(n) if labels[v] == b) for b in sorted(set(labels))]
    expect = all(
        len({sum(entries[r][c] for c in bj) for r in bi}) == 1
        for bi in blocks for bj in blocks)
    q = quotient(SymMatrix(np.array(entries, dtype=np.float64)), VertexPartition(blocks))
    assert q.equitable == expect


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

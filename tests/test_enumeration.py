"""Isomorph-free generation, canonical forms, graph6 streaming."""

import hashlib
import io
import itertools
import random

import pytest

from fanfree.cli import main
from fanfree.enumeration import (ENUMERATION_MAX_N, EnumerationTask,
                                 _greater_order, _identity_groups, _twins,
                                 are_isomorphic, canonical_form,
                                 canonical_label, enumerate_graphs,
                                 stream_graph6, write_graph6)
from fanfree.graphs import (Graph, Graph6Error, circulant_graph,
                            complete_bipartite, complete_graph, cycle_graph,
                            graph6_encode, make_fan, make_split, path_graph)

from helpers import all_labeled_graphs, permuted, random_graph

# numbers of isomorphism classes; 1..6 re-derived by the labelled-dedup
# oracle below, 7..9 pinned from standard enumeration tooling
ALL_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044, 8: 12346}
CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}
# sha256 of the output of `fanfree enumerate --n 8`: pins emission order and bytes
N8_SHA256 = "4fed1af583c626faf9e832a5ec677004651e18d7ee777a1a8be50b0cee9ba321"


def test_counts_small():
    for n, want in ALL_COUNTS.items():
        if n <= 7:
            got = sum(1 for _ in enumerate_graphs(EnumerationTask(n)))
            assert got == want, n


def test_counts_connected():
    for n, want in CONNECTED_COUNTS.items():
        got = sum(1 for _ in enumerate_graphs(
            EnumerationTask(n, connected_only=True)))
        assert got == want, n
        assert all(g.is_connected() for g in
                   enumerate_graphs(EnumerationTask(n, connected_only=True)))


def test_labeled_dedup_oracle():
    # every labelled graph collapses to an enumerated representative
    for n in range(1, 6):
        enumerated = {graph6_encode(g)
                      for g in enumerate_graphs(EnumerationTask(n))}
        collapsed = {canonical_form(g).text for g in all_labeled_graphs(n)}
        assert enumerated == collapsed


def test_emitted_representatives_are_canonical():
    for n in range(1, 7):
        seen = set()
        for g in enumerate_graphs(EnumerationTask(n)):
            text = graph6_encode(g)
            assert canonical_form(g).text == text
            assert text not in seen
            seen.add(text)


def test_emission_is_deterministic():
    a = [graph6_encode(g) for g in enumerate_graphs(EnumerationTask(6))]
    b = [graph6_encode(g) for g in enumerate_graphs(EnumerationTask(6))]
    assert a == b


def test_shard_partition():
    full = sorted(graph6_encode(g) for g in enumerate_graphs(EnumerationTask(7)))
    for count in (2, 5):
        pieces = []
        for index in range(count):
            pieces.extend(graph6_encode(g) for g in enumerate_graphs(
                EnumerationTask(7, shard=(index, count))))
        assert sorted(pieces) == full
        assert len(pieces) == len(set(pieces))
    # order one: only shard zero emits
    assert sum(1 for _ in enumerate_graphs(EnumerationTask(1, shard=(0, 3)))) == 1
    assert sum(1 for _ in enumerate_graphs(EnumerationTask(1, shard=(1, 3)))) == 0


def test_task_validation():
    with pytest.raises(ValueError):
        EnumerationTask(0)
    with pytest.raises(ValueError):
        EnumerationTask(ENUMERATION_MAX_N + 1)
    with pytest.raises(ValueError):
        EnumerationTask(5, shard=(3, 3))
    with pytest.raises(ValueError):
        EnumerationTask(5, shard=(-1, 2))
    # a non-integer order would never reach its last level
    for n in (3.5, 4.0, "4"):
        with pytest.raises(ValueError, match="integer"):
            EnumerationTask(n)


def test_canonical_form_invariance():
    rng = random.Random(13)
    for _ in range(200):
        n = rng.randint(1, 9)
        g = random_graph(rng, n, rng.choice([0.2, 0.5, 0.8]))
        perm = list(range(n))
        rng.shuffle(perm)
        assert canonical_form(g) == canonical_form(permuted(g, perm))


def test_canonical_label_idempotent():
    rng = random.Random(19)
    for _ in range(50):
        g = random_graph(rng, rng.randint(1, 9), 0.5)
        c = canonical_label(g)
        assert canonical_label(c) == c
        assert canonical_form(g).text == graph6_encode(c)


def test_canonical_form_large_order():
    # far past the enumeration cap: canonicalisation alone has no such limit
    g = make_split(64, 7)
    h = permuted(g, list(reversed(range(64))))
    assert canonical_form(g) == canonical_form(h)
    # vertex-transitive and twin-free, so twin pruning cannot shorten the climb
    g = circulant_graph(64, [1, 5, 9])
    perm = list(range(64))
    random.Random(29).shuffle(perm)
    assert canonical_form(g) == canonical_form(permuted(g, perm))


def test_are_isomorphic():
    assert are_isomorphic(complete_bipartite(2, 4), complete_bipartite(4, 2))
    assert are_isomorphic(make_fan(1), complete_graph(3))
    assert not are_isomorphic(path_graph(4), cycle_graph(4))
    assert not are_isomorphic(path_graph(4), path_graph(5))
    c6 = cycle_graph(6)
    two_triangles = Graph(6, (0b000110, 0b000101, 0b000011,
                              0b110000, 0b101000, 0b011000))
    assert not are_isomorphic(c6, two_triangles)


def _colex_code(adj, n, order):
    """Upper-triangle bit code of the relabelling placing ``order[j]`` at
    position j, read column by column, first bit most significant."""
    code = 0
    for j in range(1, n):
        for i in range(j):
            code = (code << 1) | (adj[order[j]] >> order[i] & 1)
    return code


def test_canonicity_kernel_matches_brute_force():
    # canonical means no relabelling has a greater code: try all n! of them
    for n in range(1, 6):
        orders = list(itertools.permutations(range(n)))
        for g in all_labeled_graphs(n):
            adj = list(g.adj)
            identity = _colex_code(adj, n, range(n))
            best = max(_colex_code(adj, n, order) for order in orders)
            order = _greater_order(adj, n, _identity_groups(adj, n))
            assert (order is None) == (identity == best), (n, adj)
            if order is not None:
                assert sorted(order) == list(range(n))
                assert _colex_code(adj, n, order) > identity, (n, adj)


def test_canonical_label_matches_brute_force():
    # the canonical labelling carries the greatest code over all n! orders
    rng = random.Random(23)
    graphs = [g for n in range(1, 6) for g in all_labeled_graphs(n)]
    graphs += [random_graph(rng, n, rng.choice([0.2, 0.5, 0.8]))
               for n in (6, 7) for _ in range(12)]
    for g in graphs:
        n, adj = g.n, list(g.adj)
        best = max(_colex_code(adj, n, order)
                   for order in itertools.permutations(range(n)))
        c = canonical_label(g)
        assert _colex_code(list(c.adj), n, range(n)) == best, (n, adj)


def test_twins_are_the_automorphic_transpositions():
    for n in range(1, 6):
        for g in all_labeled_graphs(n):
            adj = list(g.adj)
            twins = _twins(adj, n)
            for u, w in itertools.product(range(n), repeat=2):
                swap = list(range(n))
                swap[u], swap[w] = w, u
                assert bool(twins[u] >> w & 1) == (permuted(g, swap) == g), \
                    (n, adj, u, w)


def test_enumerate_n8_output_pinned(tmp_path):
    out = tmp_path / "n8.g6"
    assert main(["enumerate", "--n", "8", "-o", str(out)]) == 0
    data = out.read_bytes()
    assert data.count(b"\n") == 12346
    assert len(data) == 86422
    assert hashlib.sha256(data).hexdigest() == N8_SHA256


def test_stream_graph6_roundtrip():
    graphs = list(enumerate_graphs(EnumerationTask(5)))
    buf = io.StringIO()
    count = write_graph6(buf, graphs)
    assert count == 34
    back = list(stream_graph6(io.StringIO(buf.getvalue())))
    assert back == graphs


def test_stream_graph6_skips_blank_lines():
    text = "Bw\n\n  \nA_\n"
    assert len(list(stream_graph6(io.StringIO(text)))) == 2


def test_stream_graph6_error_reporting():
    text = "Bw\n???!bad\nA_\n"
    with pytest.raises(Graph6Error) as err:
        list(stream_graph6(io.StringIO(text)))
    assert "line 2" in str(err.value)
    # permissive mode: the bad line is skipped, the rest decodes
    out = list(stream_graph6(io.StringIO(text), fail_fast=False))
    assert [g.n for g in out] == [3, 2]

"""Isomorph-free generation, canonical forms, graph6 streaming."""

import hashlib
import io
import itertools
import random

import pytest

from fanfree.cli import main
from fanfree import enumeration
from fanfree.enumeration import (ENUMERATION_MAX_N, EnumerationTask,
                                 _canonical_child, _child_twins, _children,
                                 _greater_order, _identity_groups, _twins,
                                 are_isomorphic, canonical_form,
                                 canonical_label, count_classes,
                                 enumerate_graphs, stream_graph6,
                                 write_graph6)
from fanfree.fans import _extension_fan_free, is_fan_free
from fanfree.graphs import (Graph, Graph6Error, circulant_graph,
                            complete_bipartite, complete_graph, cycle_graph,
                            graph6_decode, graph6_encode, make_fan, make_split,
                            path_graph)

from helpers import all_labeled_graphs, permuted, random_graph

# numbers of isomorphism classes; 1..6 re-derived by the labelled-dedup
# oracle below, 7..9 pinned from standard enumeration tooling
ALL_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044, 8: 12346}
CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}
# OEIS A000088, orders 1..11
CLASS_COUNTS = [1, 2, 4, 11, 34, 156, 1044, 12346, 274668, 12005168, 1018997864]
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


def _is_equal_prefix(adj, prefix):
    """Whether each vertex of ``prefix`` has the identity's group value at
    its level: the relabelling agrees with the identity on those levels."""
    return all(adj[prefix[j]] >> prefix[i] & 1 == adj[j] >> i & 1
               for j in range(len(prefix)) for i in range(j))


def test_canonicity_kernel_matches_brute_force():
    # canonical means no relabelling has a greater code: try all n! of
    # them, and from each equal prefix every order that extends it
    for n in range(1, 6):
        orders = list(itertools.permutations(range(n)))
        for g in all_labeled_graphs(n):
            adj = list(g.adj)
            twins = _twins(adj, n)
            identity = _colex_code(adj, n, range(n))
            best = {}
            for order in orders:
                code = _colex_code(adj, n, order)
                for length in range(n):
                    best[order[:length]] = max(best.get(order[:length], code), code)
            assert _greater_order(adj, n, twins) == _greater_order(adj, n, twins, [])
            for prefix, most in best.items():
                if not _is_equal_prefix(adj, prefix):
                    continue
                order = _greater_order(adj, n, twins, list(prefix))
                assert (order is None) == (most <= identity), (n, adj, prefix)
                if order is not None:
                    assert sorted(order) == list(range(n))
                    assert tuple(order[:len(prefix)]) == prefix
                    assert _colex_code(adj, n, order) > identity, (n, adj, prefix)


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


def _extensions(g):
    """Every one-vertex extension of ``g``, with the new vertex's neighbour set."""
    m = g.n
    for s in range(1 << m):
        rows = [row | (s >> i & 1) << m for i, row in enumerate(g.adj)] + [s]
        yield s, rows


def test_child_twins_equal_recomputed_twins():
    for n in range(1, 7):
        for g in enumerate_graphs(EnumerationTask(n)):
            twins = _twins(g.adj, n)
            for s, rows in _extensions(g):
                assert _child_twins(list(g.adj), twins, s) == _twins(rows, n + 1), \
                    (graph6_encode(g), s)


def test_canonical_child_equals_full_search():
    # the parent's prefix trees decide as the child's own search does: on
    # every extension of every class with n <= 6, not only those the
    # prefilters pass, and on the first extensions, of order 8, that only
    # the search placing the new vertex first rejects
    cases = [(g, range(1 << n)) for n in range(1, 7)
             for g in enumerate_graphs(EnumerationTask(n))]
    cases += [(graph6_decode(text), [0b1111000]) for text in ("F{`P?", "F{`PO", "F{`QO")]
    verdicts = []
    trees_built = 0
    for g, neighbour_sets in cases:
        n = g.n
        twins = _twins(g.adj, n)
        trees = {}
        for s in neighbour_sets:
            rows = [row | (s >> i & 1) << n for i, row in enumerate(g.adj)] + [s]
            child = Graph._from_trusted(n + 1, tuple(rows))
            canonical = _greater_order(rows, n + 1, _twins(rows, n + 1)) is None
            assert _canonical_child(g.adj, trees, child,
                                    _child_twins(g.adj, twins, s)) == canonical, \
                (graph6_encode(g), s)
            verdicts.append(canonical)
        trees_built += len(trees)
    assert len(verdicts) == 11290 + 3
    assert verdicts[-3:] == [False] * 3
    assert trees_built < len(verdicts)  # each tree serves several neighbour sets


def test_children_search_only_what_the_prefilters_cannot_reject(monkeypatch):
    # every extension a parent rejects without a search is not canonical,
    # and the twin-order rule rejects some the identity prefix cannot
    searched = []

    def recording(rows, trees, child, child_twins):
        searched.append(child.adj[-1])
        return _canonical_child(rows, trees, child, child_twins)

    monkeypatch.setattr(enumeration, "_canonical_child", recording)
    by_twins = 0
    for n in range(1, 7):
        for g in enumerate_graphs(EnumerationTask(n)):
            adj = list(g.adj)
            t = _identity_groups(adj, n)
            searched.clear()
            kept = [child.adj[-1] for child, _ in _children(g, _twins(adj, n))]
            for s, rows in _extensions(g):
                child_t = _identity_groups(rows, n + 1)
                canonical = _greater_order(rows, n + 1, _twins(rows, n + 1)) is None
                assert (s in kept) == canonical, (graph6_encode(g), s)
                if s not in searched:
                    assert not canonical, (graph6_encode(g), s)
                    # the identity prefilter: a prefix of the new group value
                    # beats the group value at that level
                    g_new = child_t[n]
                    by_twins += not any(g_new >> (n - level) > t[level]
                                        for level in range(1, n))
    assert by_twins > 0


@pytest.mark.parametrize("k", [1, 2, 3])
def test_extension_fan_test_equals_full_fan_test(k):
    for n in range(1, 7):
        for g in enumerate_graphs(EnumerationTask(n)):
            if not is_fan_free(g, k):
                continue
            for s, rows in _extensions(g):
                child = Graph(n + 1, tuple(rows))
                assert _extension_fan_free(child, k) == is_fan_free(child, k), \
                    (graph6_encode(g), s)


def test_enumerate_n8_output_pinned(tmp_path):
    out = tmp_path / "n8.g6"
    assert main(["enumerate", "--n", "8", "-o", str(out)]) == 0
    data = out.read_bytes()
    assert data.count(b"\n") == 12346
    assert len(data) == 86422
    assert hashlib.sha256(data).hexdigest() == N8_SHA256


@pytest.fixture(scope="module")
def classes_to_8():
    return {n: list(enumerate_graphs(EnumerationTask(n))) for n in range(1, 9)}


def test_count_classes(classes_to_8):
    for n, graphs in classes_to_8.items():
        assert count_classes(n) == len(graphs), n
    assert [count_classes(n) for n in range(1, 12)] == CLASS_COUNTS


@pytest.mark.parametrize("k", [2, 3])
def test_hereditary_prune_keeps_every_free_class(classes_to_8, k):
    # the full enumeration filtered afterwards is the oracle: the pruned
    # walk must keep every fan-free class, in the same emission order
    free = lambda g: is_fan_free(g, k)
    for n, graphs in classes_to_8.items():
        seen = []
        pruned = list(enumerate_graphs(EnumerationTask(n),
                                       hereditary=lambda g: seen.append(g) or free(g)))
        assert ([graph6_encode(g) for g in pruned if free(g)]
                == [graph6_encode(g) for g in graphs if free(g)]), n
        # each graph yielded is the object the hook saw, not a copy
        assert {id(g) for g in pruned} <= {id(g) for g in seen}, n
        if n == 8:
            assert sum(map(free, pruned)) == {2: 2290, 3: 8820}[k]
            assert len(pruned) < len(graphs)  # fan-containing parents pruned
    full = sorted(graph6_encode(g) for g in enumerate_graphs(
        EnumerationTask(7), hereditary=free))
    pieces = sorted(graph6_encode(g) for index in range(3) for g in enumerate_graphs(
        EnumerationTask(7, shard=(index, 3)), hereditary=free))
    assert pieces == full
    # a property the one-vertex graph lacks is had by no graph
    for n, shard in itertools.product((1, 4), (None, (0, 2), (1, 2))):
        assert not list(enumerate_graphs(EnumerationTask(n, shard=shard),
                                         hereditary=lambda g: False)), (n, shard)


def test_hereditary_prune_count_n9():
    free = lambda g: is_fan_free(g, 2)
    assert sum(map(free, enumerate_graphs(EnumerationTask(9), hereditary=free))) == 17642


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

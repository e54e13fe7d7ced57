"""Isomorph-free generation, canonical forms, graph6 streaming."""

import hashlib
import io
import itertools
import random
import sys
from collections import Counter

import numpy as np
import pytest

from fanfree.cli import main
from fanfree import enumeration
from fanfree.enumeration import (ENUMERATION_MAX_N, EnumerationTask,
                                 _canonical_child, _child_twins, _children,
                                 _greater_order, _merged_tree, _pack,
                                 _prefix_tree, _reverse_bits, _twins,
                                 are_isomorphic, canonical_form,
                                 canonical_label, count_classes,
                                 enumerate_graphs, stream_graph6,
                                 write_graph6)
from fanfree.fans import _extension_fan_free, is_fan_free
from fanfree.graphs import (Graph, Graph6Error, circulant_graph,
                            complete_bipartite, complete_graph, cycle_graph,
                            graph6_decode, graph6_encode, make_fan, make_split,
                            path_graph)

from helpers import all_labeled_graphs, permuted, random_graph, reference_pack

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


@pytest.mark.parametrize("n", [7, 8])
def test_shards_build_each_class_once(n):
    # the hook sees every child the walk builds: over all shards, the
    # children of orders n-1 and n are the unsharded walk's, each once
    def built(shard, keep):
        seen = Counter()

        def hook(g):
            if g.n >= n - 1:
                seen[graph6_encode(g)] += 1
            return keep(g)

        for _ in enumerate_graphs(EnumerationTask(n, shard=shard), hereditary=hook):
            pass
        return seen

    for keep in (lambda g: True, lambda g: _extension_fan_free(g, 2)):
        whole = built(None, keep)
        for count in (2, 3, 6):
            parts = sum((built((index, count), keep) for index in range(count)),
                        Counter())
            assert parts == whole, count


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
            assert _greater_order(adj, n, twins, [()]) == _greater_order(adj, n, twins, [[]])
            for prefix, most in best.items():
                if not _is_equal_prefix(adj, prefix):
                    continue
                order = _greater_order(adj, n, twins, [list(prefix)])
                assert (order is None) == (most <= identity), (n, adj, prefix)
                if order is not None:
                    assert sorted(order) == list(range(n))
                    assert tuple(order[:len(prefix)]) == prefix
                    assert _colex_code(adj, n, order) > identity, (n, adj, prefix)


def test_multi_start_search_returns_the_first_start_with_a_greater_order():
    # one pass over many equal starts answers as the single-start passes
    # do, taken in turn: None when none has a greater order, else the
    # order the first start that has one returns
    rng = random.Random(31)
    for n in range(1, 6):
        for g in all_labeled_graphs(n):
            adj = list(g.adj)
            twins = _twins(adj, n)
            starts = [prefix for length in range(n)
                      for prefix in itertools.permutations(range(n), length)
                      if _is_equal_prefix(adj, prefix)]
            single = {prefix: _greater_order(adj, n, twins, [prefix]) for prefix in starts}
            for sequence in (starts, starts[::-1], rng.sample(starts, len(starts)),
                             rng.sample(starts, rng.randint(1, len(starts)))):
                want = next((single[p] for p in sequence if single[p] is not None), None)
                assert _greater_order(adj, n, twins, sequence) == want, (n, adj, sequence)
            assert _greater_order(adj, n, twins, []) is None


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


def test_reverse_bits_matches_the_bit_loop():
    # the low m bits of s, last first; higher bits of s are ignored
    for m in range(12):
        for s in range(1 << m):
            want = 0
            for i in range(m):
                want = want << 1 | s >> i & 1
            assert _reverse_bits(s, m) == _reverse_bits(s | 5 << m, m) == want, (s, m)


def _fields_by_prefix(tree):
    """The prefixes of ``tree`` in byte order, with each one's field of
    vertex marks, identity bits and complete bit in the same order, and
    the tree's identity fields: an order-free map from each prefix to
    its fields, so two trees give equal values iff they are equal up to
    the order of their fields.  The tree must hold one field per prefix,
    every guard and nothing else at or past its last field."""
    width = ENUMERATION_MAX_N + 1
    count = len(tree.prefixes)
    assert len(set(tree.prefixes)) == count
    assert tree.guards == int(("1" + "0" * (width - 1)) * count, 2)
    packed = [*tree.at, tree.ident, tree.complete]
    assert all(bits >> count * width == 0 for bits in packed)
    size = (count * width + 7) // 8
    octets = np.frombuffer(b"".join([bits.to_bytes(size, "little") for bits in packed]),
                           dtype=np.uint8).reshape(len(packed), size)
    # fields[i, k]: the field of prefix k in packed[i], lowest bit first
    fields = np.unpackbits(octets, axis=1, count=count * width, bitorder="little"
                           ).reshape(len(packed), count, width)
    order = sorted(range(count), key=tree.prefixes.__getitem__)
    return [tree.prefixes[k] for k in order], fields[:, order].tobytes(), tree.levels


def _beats_on_a_short_prefix(adj, tree, s):
    """Whether a new vertex adjacent to ``s`` beats the identity along a
    recorded prefix of the tree shorter than the parent, bit by bit."""
    m = len(adj)
    return any([s >> v & 1 for v in prefix] > [adj[len(prefix)] >> i & 1
                                               for i in range(len(prefix))]
               for prefix in tree.prefixes if len(prefix) < m)


def test_child_twins_equal_recomputed_twins():
    for n in range(1, 7):
        for g in enumerate_graphs(EnumerationTask(n)):
            twins = _twins(g.adj, n)
            for s, rows in _extensions(g):
                assert _child_twins(list(g.adj), twins, s) == _twins(rows, n + 1), \
                    (graph6_encode(g), s)


def test_canonical_child_equals_full_search():
    # the parent's one prefix tree decides as the child's own search does:
    # on every extension of every class with n <= 6 that obeys the
    # twin-order rule, not only those the other prefilters pass, and on
    # the first extensions, of order 8, that only the search placing the
    # new vertex first rejects; every extension that breaks the rule is
    # not canonical, so no extension goes unchecked
    cases = [(g, range(1 << n)) for n in range(1, 7)
             for g in enumerate_graphs(EnumerationTask(n))]
    cases += [(graph6_decode(text), [0b1111000]) for text in ("F{`P?", "F{`PO", "F{`QO")]
    verdicts = []
    broken = 0
    for g, neighbour_sets in cases:
        n = g.n
        twins = _twins(g.adj, n)
        lower = [tw & ((1 << v) - 1) for v, tw in enumerate(twins)]
        tree = _prefix_tree(g.adj, twins)  # one tree per class serves all its children
        for s in neighbour_sets:
            rows = [row | (s >> i & 1) << n for i, row in enumerate(g.adj)] + [s]
            canonical = _greater_order(rows, n + 1, _twins(rows, n + 1), [()]) is None
            if any(s >> v & 1 and lower[v] & ~s for v in range(n)):
                assert not canonical, (graph6_encode(g), s)
                broken += 1
                continue
            child = Graph._from_trusted(n + 1, tuple(rows))
            mine = 0
            for v in range(n):
                if s >> v & 1:
                    mine |= tree.at[v]
            assert (_canonical_child(g.adj, twins, tree, child, _reverse_bits(s, n), mine,
                                     False) is not None) == canonical, \
                (graph6_encode(g), s)
            verdicts.append(canonical)
    assert (len(verdicts), broken) == (7194 + 3, 4096)
    assert verdicts[-3:] == [False] * 3


def test_walk_builds_one_tree_per_parent(monkeypatch):
    # every parent of orders 1..7 builds exactly one prefix tree, under
    # its own twin masks: the root and each child that splits a twin
    # class of its parent by a search, every other child by a merge that
    # holds the searched tree's prefixes, each with the same fields
    searched, merged = [], []

    def searching(rows, twins, parent=None):
        searched.append(twins == _twins(rows, len(rows)))
        return _prefix_tree(rows, twins, parent)

    def merging(rows, parent, own):
        tree = _merged_tree(rows, parent, own)
        merged.append(_fields_by_prefix(tree) ==
                      _fields_by_prefix(_prefix_tree(rows, _twins(rows, len(rows)))))
        return tree

    monkeypatch.setattr(enumeration, "_prefix_tree", searching)
    monkeypatch.setattr(enumeration, "_merged_tree", merging)
    assert sum(1 for _ in enumerate_graphs(EnumerationTask(8))) == 12346
    assert (len(searched), len(merged)) == (351, 901)
    assert len(searched) + len(merged) == sum(count_classes(j) for j in range(1, 8)) == 1252
    assert all(searched) and all(merged)


def test_walk_derives_twin_masks_only_past_the_packed_comparison(monkeypatch):
    # at n = 8 the pruned pass over the neighbour sets leaves 16,118
    # children to test, and only the 13,970 that the packed comparison
    # passes on the complete prefixes too get twin masks and one engine
    # pass each; the trees stay one per parent, and only the searched
    # ones run the engine
    calls = Counter()

    def counted(name):
        original = getattr(enumeration, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(enumeration, name, wrapper)

    for name in ("_canonical_child", "_child_twins", "_prefix_tree", "_merged_tree",
                 "_greater_order"):
        counted(name)
    assert sum(1 for _ in enumerate_graphs(EnumerationTask(8))) == 12346
    assert calls == {"_canonical_child": 16118, "_child_twins": 13970,
                     "_prefix_tree": 351, "_merged_tree": 901,
                     "_greater_order": 13970 + 351}


def test_searched_trees_come_in_byte_order():
    # the search takes candidates lowest first and records each prefix
    # when it reaches it: each before its extensions, siblings by vertex
    for n in range(1, 8):
        for g in enumerate_graphs(EnumerationTask(n)):
            prefixes = _prefix_tree(g.adj, _twins(g.adj, n)).prefixes
            assert prefixes == sorted(prefixes), graph6_encode(g)
            assert prefixes[0] == b"" and len(set(prefixes)) == len(prefixes)


def test_unsplit_children_merge_their_parents_tree():
    # every accepted child of every class with n <= 7 whose new vertex
    # splits no parent twin class gets, by the merge, its searched tree's
    # prefixes, each with the same fields; on a child that splits a
    # class the parent's prefixes are not the child's, so the same merge
    # would be wrong
    merged = split = 0
    for n in range(1, 8):
        for g in enumerate_graphs(EnumerationTask(n)):
            twins = _twins(g.adj, n)
            tree = _prefix_tree(g.adj, twins)
            for child, child_twins, own in _children(g, twins, tree, grow=True):
                searched = _prefix_tree(child.adj, child_twins)
                unsplit = [tw & (1 << n) - 1 for tw in child_twins[:n]] == twins
                assert (own is not None) == unsplit, graph6_encode(child)
                if unsplit:
                    assert _fields_by_prefix(_merged_tree(child.adj, tree, own)) == \
                        _fields_by_prefix(searched), graph6_encode(child)
                    merged += 1
                else:
                    holding_m = [p for p in searched.prefixes if n in p]
                    assert set(tree.prefixes + holding_m) != set(searched.prefixes)
                    split += 1
    assert merged + split == sum(count_classes(j) for j in range(2, 9))
    assert (merged, split) == (10512, 3085)
    # without grow no child records its prefixes
    g = graph6_decode("F{`P?")
    twins = _twins(g.adj, g.n)
    assert all(own is None for _, _, own in _children(g, twins, _prefix_tree(g.adj, twins)))


def _assert_packed_as_the_bit_loop(rows, tree):
    groups = [_reverse_bits(rows[level], level) for level in range(len(rows))]
    assert (tree.at, tree.ident, tree.complete, tree.guards, tree.levels) == \
        reference_pack(tree.prefixes, groups), rows


def test_byte_packer_matches_the_bit_loop(monkeypatch):
    # on the searched tree of every class with n <= 7, and on every tree,
    # searched or merged, that the walk to n = 8 builds, each with one
    # call of the packer: a merge's fields extend its parent's fields
    for n in range(1, 8):
        for g in enumerate_graphs(EnumerationTask(n)):
            _assert_packed_as_the_bit_loop(g.adj, _prefix_tree(g.adj, _twins(g.adj, n)))
    searched, merged, packed = Counter(), Counter(), Counter()

    def checking(name, built):
        original = getattr(enumeration, name)

        def wrapper(rows, *args):
            tree = original(rows, *args)
            _assert_packed_as_the_bit_loop(rows, tree)
            built[len(rows)] += 1
            return tree
        monkeypatch.setattr(enumeration, name, wrapper)

    def packing(prefixes, levels):
        packed[len(levels)] += 1
        return _pack(prefixes, levels)

    checking("_prefix_tree", searched)
    checking("_merged_tree", merged)
    monkeypatch.setattr(enumeration, "_pack", packing)
    assert sum(1 for _ in enumerate_graphs(EnumerationTask(8))) == 12346
    assert searched + merged == packed == {j: count_classes(j) for j in range(1, 8)}
    assert sum(merged.values()) == 901


def test_trees_at_the_deepest_order_match_the_bit_loop():
    # a walk to ENUMERATION_MAX_N = 11 builds trees up to order 10.
    # Along K1, ..., K10 each new vertex is a twin of every parent
    # vertex, so each tree is merged from its parent's; K10 minus an
    # edge, a child of K9 that splits its one twin class, searches for
    # its tree.  Each tree sets the bit loop's bits, equals its searched
    # tree up to order, and decides the canonicity of each of its
    # children of order 11 as a fresh search does
    top = ENUMERATION_MAX_N - 1
    g = complete_graph(1)
    twins = [1]
    tree = _prefix_tree(g.adj, twins)
    _assert_packed_as_the_bit_loop(g.adj, tree)
    for n in range(1, top):
        children = {child.adj[-1]: (child, child_twins, own)
                    for child, child_twins, own in _children(g, twins, tree, grow=True)}
        if n == top - 1:
            split, split_twins, own = children[(1 << n - 1) - 1]
            assert own is None
            split_tree = _prefix_tree(split.adj, split_twins, tree)
            _assert_packed_as_the_bit_loop(split.adj, split_tree)
        child, twins, own = children[(1 << n) - 1]
        assert child.adj == complete_graph(n + 1).adj
        merged = _merged_tree(child.adj, tree, own)
        _assert_packed_as_the_bit_loop(child.adj, merged)
        assert _fields_by_prefix(merged) == _fields_by_prefix(_prefix_tree(child.adj, twins))
        g, tree = child, merged
    for parent, parent_twins, parent_tree in ((g, twins, tree),
                                              (split, split_twins, split_tree)):
        assert parent.n == top
        kept = {child.adj[-1] for child, _, _ in _children(parent, parent_twins, parent_tree)}
        for s, rows in _extensions(parent):
            canonical = _greater_order(rows, top + 1, _twins(rows, top + 1), [()]) is None
            assert (s in kept) == canonical, (graph6_encode(parent), s)
        assert kept


def test_shards_build_trees_only_for_the_classes_they_extend(monkeypatch):
    # a child's tree is built when the walk extends it, so neither a
    # leaf nor a class dealt to another shard gets one: each shard builds
    # as many trees, searched plus merged, as when every tree was searched
    built = []
    for name in ("_prefix_tree", "_merged_tree"):
        original = getattr(enumeration, name)
        monkeypatch.setattr(enumeration, name,
                            lambda *args, original=original: built.append(1) or original(*args))
    counts = {}
    for shards in (2, 3):
        for index in range(shards):
            built.clear()
            for _ in enumerate_graphs(EnumerationTask(8, shard=(index, shards))):
                pass
            counts[index, shards] = len(built)
    assert counts == {(0, 2): 642, (1, 2): 662, (0, 3): 445, (1, 3): 439, (2, 3): 472}


def test_children_reach_the_test_exactly_where_the_tree_allows(monkeypatch):
    # for every class with n <= 6, the pruned pass hands ``keep``, and
    # then the canonicity test, exactly the neighbour sets that obey the
    # twin-order rule and lose on no recorded prefix short of the new
    # vertex's level, in ascending group value: the hook never sees a
    # child the tree rejects, and a child the hook refuses is not tested
    tested = []

    def recording(rows, twins, tree, child, g, mine, grow):
        tested.append(child.adj[-1])
        return _canonical_child(rows, twins, tree, child, g, mine, grow)

    monkeypatch.setattr(enumeration, "_canonical_child", recording)
    for n in range(1, 7):
        for g in enumerate_graphs(EnumerationTask(n)):
            twins = _twins(g.adj, n)
            lower = [tw & ((1 << v) - 1) for v, tw in enumerate(twins)]
            tree = _prefix_tree(g.adj, twins)
            ascending = sorted(range(1 << n), key=lambda s: [s >> v & 1 for v in range(n)])
            want = [s for s in ascending
                    if not any(s >> v & 1 and lower[v] & ~s for v in range(n))
                    and not _beats_on_a_short_prefix(g.adj, tree, s)]
            hooked = []
            tested.clear()
            list(_children(g, twins, tree, lambda child: hooked.append(child.adj[-1]) or True))
            assert hooked == tested == want, graph6_encode(g)
            tested.clear()
            list(_children(g, twins, tree, lambda child: child.adj[-1] % 3 != 1))
            assert tested == [s for s in want if s % 3 != 1], graph6_encode(g)


def test_children_search_only_what_the_prefilters_cannot_reject(monkeypatch):
    # every extension a parent rejects without a search is not canonical,
    # and the twin-order rule rejects some the tree comparison cannot
    searched = []

    def recording(rows, twins, tree, child, g, mine, grow):
        searched.append(child.adj[-1])
        return _canonical_child(rows, twins, tree, child, g, mine, grow)

    monkeypatch.setattr(enumeration, "_canonical_child", recording)
    by_twins = 0
    for n in range(1, 7):
        for g in enumerate_graphs(EnumerationTask(n)):
            adj = list(g.adj)
            twins = _twins(adj, n)
            tree = _prefix_tree(adj, twins)
            searched.clear()
            kept = [child.adj[-1] for child, _, _ in _children(g, twins, tree)]
            for s, rows in _extensions(g):
                canonical = _greater_order(rows, n + 1, _twins(rows, n + 1), [()]) is None
                assert (s in kept) == canonical, (graph6_encode(g), s)
                if s not in searched:
                    assert not canonical, (graph6_encode(g), s)
                    by_twins += not _beats_on_a_short_prefix(adj, tree, s)
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
    # fan-free classes of order 9; the k=4 count is summed over two
    # shards, so the shard deal is checked at n=9 as well
    for k, shards, count in ((2, [None], 17642), (3, [None], 123685),
                             (4, [(0, 2), (1, 2)], 264255)):
        free = lambda g: is_fan_free(g, k)
        assert sum(sum(map(free, enumerate_graphs(EnumerationTask(9, shard=shard),
                                                  hereditary=free)))
                   for shard in shards) == count, k


def test_walk_resumes_one_frame_per_graph():
    # past the root, the hook runs at one frame depth at every order: the
    # walk keeps one frame per order on its own stack, so no graph passes
    # up through a generator per level
    depths = {}

    def hook(g):
        frame, depth = sys._getframe(), 0
        while frame is not None:
            frame, depth = frame.f_back, depth + 1
        depths.setdefault(g.n, set()).add(depth)
        return True

    assert sum(1 for _ in enumerate_graphs(EnumerationTask(7), hereditary=hook)) == 1044
    assert sorted(depths) == list(range(1, 8))
    assert len(set().union(*(depths[n] for n in range(2, 8)))) == 1


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


def test_stream_graph6_strips_only_ascii_whitespace():
    # a non-breaking space (0xa0) or NEL (0x85) is whitespace to str.strip,
    # but not part of graph6: it stays in the line and the decoder names it
    for ch in ("\xa0", "\x85"):
        with pytest.raises(Graph6Error, match=f"line 1: byte {ord(ch)} outside"):
            list(stream_graph6(["C~" + ch + "\n"]))
    assert len(list(stream_graph6([" \tC~\r\n", "\x0b\x0c\n"]))) == 1

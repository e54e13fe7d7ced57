"""Certification pipeline, brute-force edge maxima, constructions, emission."""

import hashlib
import io
import json
import logging
import math
import random

import numpy as np
import pytest

from fanfree import fans, search
from fanfree.enumeration import EnumerationTask, canonical_form, enumerate_graphs
from fanfree.fans import is_fan_free
from fanfree.graphs import (complete_bipartite, complete_graph, graph6_decode,
                            graph6_encode, make_split)
from fanfree.matching import ForbiddenPattern, Regime, turan_kk2
from fanfree.search import (MARGIN, MARGIN_TIGHT, ConstructionSpec,
                            certify_max_q1, certificate_payload,
                            efgg_construction, efgg_in_regime, efgg_value,
                            emit_certificate, theorem_regime, turan_bruteforce)
from fanfree.spectral import EIGEN_ACCURACY, q1_split_closed_form

from helpers import naive_contains_fan, numpy_q1


def test_theorem_regime_boundary():
    assert not theorem_regime(7, 2) and theorem_regime(8, 2)
    assert not theorem_regime(64, 5) and theorem_regime(68, 5)
    assert not theorem_regime(100, 1)  # k = 1 is exploration only


def test_certify_small_below_regime():
    cert = certify_max_q1(7, 2)
    assert cert.winner == canonical_form(make_split(7, 2)).text
    assert cert.unique and cert.winner_is_split
    assert not cert.in_theorem_regime
    assert cert.total == 1044
    assert cert.margin is not None and cert.margin > 1e-6
    assert abs(cert.winner_q1 - q1_split_closed_form(7, 2)) < 1e-9
    assert abs(cert.winner_q1 - numpy_q1(graph6_decode(cert.winner))) < 1e-9
    assert cert.scanned < cert.total


def test_certify_tie_not_unique():
    # with k = 1, every complete bipartite graph of order n attains q1 = n,
    # so the top is a genuine tie and uniqueness must be refused
    cert = certify_max_q1(5, 1)
    assert abs(cert.winner_q1 - 5) < 1e-9
    assert not cert.unique
    assert not cert.winner_is_split
    assert cert.margin is not None and cert.margin < 1e-9
    tied = [t for t, v in cert.near_maximal if abs(v - 5) < 1e-9]
    assert len(tied) == 2  # K_{1,4} and K_{2,3}


def test_certify_re_solves_only_ties(monkeypatch):
    solved = []
    tight = search._tight_q1
    monkeypatch.setattr(search, "_tight_q1",
                        lambda g: solved.append(graph6_encode(g)) or tight(g))
    # a lone winner keeps its first value, which the certify-n8 bytes pin
    assert certify_max_q1(8, 2).unique
    assert solved == []
    # every graph within MARGIN of the best is re-solved once
    cert = certify_max_q1(5, 2)
    best = cert.near_maximal[0][1]
    tied = [t for t, v in cert.near_maximal if best - v <= MARGIN]
    assert not cert.unique and len(tied) > 1
    assert sorted(solved) == sorted(tied)


def test_certify_stream_source():
    graphs = list(enumerate_graphs(EnumerationTask(6)))
    cert = certify_max_q1(6, 2, graphs)
    assert cert.total == 156
    assert cert.winner == canonical_form(make_split(6, 2)).text
    with pytest.raises(ValueError):
        certify_max_q1(5, 2, graphs)  # order mismatch
    # a stream is scanned in one process: sharding it is an error, not ignored
    for jobs in (2, 4):
        with pytest.raises(ValueError, match="source"):
            certify_max_q1(6, 2, graphs, jobs=jobs)


def test_certify_shard_merge_determinism():
    a = certificate_payload(certify_max_q1(7, 2))
    b = certificate_payload(certify_max_q1(7, 2, jobs=4))
    a.pop("elapsed")
    b.pop("elapsed")
    assert a == b


@pytest.mark.parametrize("n,k", [(1, 1), (2, 1), (5, 1), (7, 2)])
def test_certify_jobs_matches_serial(n, k):
    # (1, 1) and (2, 1) leave shard 1 empty; (5, 1) is a tie that goes
    # through the tightened re-check
    a = certificate_payload(certify_max_q1(n, k))
    b = certificate_payload(certify_max_q1(n, k, jobs=2))
    a.pop("elapsed")
    b.pop("elapsed")
    assert a == b


@pytest.mark.parametrize(
    "n,k", [(n, k) for n in range(1, 8) for k in (1, 2, 3)] + [(8, 2)])
def test_certify_fan_free_walk_matches_full_enumeration(classes_7_8, n, k):
    # the full enumeration as a source is the oracle for the pruned walk,
    # its class count included
    graphs = classes_7_8.get(n) or enumerate_graphs(EnumerationTask(n))
    full = certificate_payload(certify_max_q1(n, k, graphs))
    full.pop("elapsed")
    for jobs in (1, 2):
        pruned = certificate_payload(certify_max_q1(n, k, jobs=jobs))
        pruned.pop("elapsed")
        assert pruned == full, jobs


def test_default_walk_yields_only_fan_free_graphs(classes_7_8, monkeypatch):
    # the walk's graphs reach the scan untested, so it must yield exactly
    # the fan-free classes
    seen = []

    def recording(graphs):
        graphs = list(graphs)
        seen.extend(graphs)
        return scan(graphs)

    scan = search._scan
    monkeypatch.setattr(search, "_scan", recording)
    for n, k in [(5, 1), (7, 2), (7, 3), (8, 2)]:
        seen.clear()
        cert = certify_max_q1(n, k)
        assert all(is_fan_free(g, k) for g in seen), (n, k)
        graphs = classes_7_8.get(n) or enumerate_graphs(EnumerationTask(n))
        free = [g for g in graphs if is_fan_free(g, k)]
        assert cert.scanned == len(seen) == len(free), (n, k)


def test_fan_hook_runs_only_where_the_prefix_tree_passes(monkeypatch):
    # the walk calls the fan test on the one-vertex graph and on each
    # child that the twin-order rule and its parent's prefix tree pass
    calls = []

    def counting(g, k):
        calls.append(g.n)
        return fans._extension_fan_free(g, k)

    monkeypatch.setattr(search, "_extension_fan_free", counting)
    assert certify_max_q1(8, 2).scanned == 2290
    assert len(calls) == 3464


def test_certify_rejects_bad_jobs():
    for jobs in (0, -3):
        with pytest.raises(ValueError, match="jobs"):
            certify_max_q1(5, 2, jobs=jobs)


def test_tolerances_are_what_the_certificate_records():
    payload = certificate_payload(certify_max_q1(4, 2))
    assert list(payload["tolerances"].items()) == [
        ("eigen", EIGEN_ACCURACY), ("margin", MARGIN), ("margin_tight", MARGIN_TIGHT)]


@pytest.fixture(scope="module")
def classes_7_8():
    return {n: list(enumerate_graphs(EnumerationTask(n))) for n in (7, 8)}


def _full_scan(graphs, monkeypatch):
    """``_scan`` with bounds that exclude nothing, and its q1 call count."""
    calls = []
    solve = search.q1
    with monkeypatch.context() as m:
        m.setattr(search, "_power_bounds", lambda adj, deg: np.full(len(deg), math.inf))
        m.setattr(search, "q1", lambda g: calls.append(g) or solve(g))
        return search._scan(graphs), len(calls)


@pytest.mark.parametrize("n,k", [(7, 2), (7, 3), (8, 2), (8, 3)])
def test_bound_pruned_scan_matches_full_scan(classes_7_8, monkeypatch, n, k):
    free = [g for g in classes_7_8[n] if is_fan_free(g, k)]
    # the reference eigensolves every graph
    full, solves = _full_scan(free, monkeypatch)
    assert solves == len(free)
    assert full[1] == len(free)
    assert len(full[0]) >= 5
    # blocks of 7 cross many block boundaries, carry entries across them
    # and raise the floor block by block
    for block in (search.SCAN_BLOCK, 7):
        monkeypatch.setattr(search, "SCAN_BLOCK", block)
        assert search._scan(free) == full, block


def test_scan_stop_rule_allows_eigensolver_error(monkeypatch):
    # every graph of order 8 is 4-fan-free.  First come the four graphs
    # of order 8 with at least 26 edges: K8 and its complements of one
    # edge, of a path P3 and of two disjoint edges.  Then two cubic
    # graphs, both of power bound exactly 6 (every ratio of a regular
    # graph is 2d), whose q1 the eigensolver returns a few ulps above 6,
    # the second one higher.  After five solves the floor is the first
    # cubic q1, above the second's bound: only the EIGEN_ACCURACY slack
    # lets the scan solve the second and keep it as fifth.
    k8_minus = complete_graph(8).without_edge(0, 1)
    dense = [complete_graph(8), k8_minus, k8_minus.without_edge(1, 2),
             k8_minus.without_edge(2, 3)]
    cubic = [graph6_decode("G{O_ww"), graph6_decode("GsXP_[")]
    assert all(g.degree_sequence() == (3,) * 8 for g in cubic)
    graphs = dense + cubic
    pruned = search._scan(graphs)
    full, solves = _full_scan(graphs, monkeypatch)
    assert solves == len(graphs)
    assert pruned == full
    assert full[0][4][1] == canonical_form(cubic[1]).text


@pytest.mark.parametrize("n,k,solves", [(8, 2, 5), (8, 3, 16), (8, 4, 21), (9, 2, 18)])
def test_scan_solves_by_power_bound_down_to_floor(monkeypatch, n, k, solves):
    # each block is eigensolved in non-increasing power bound order, and
    # a graph only while its bound plus EIGEN_ACCURACY reaches the floor
    # then in force; the solve counts pin that rule
    blocks = [[]]
    power_bounds, solve = search._power_bounds, search.q1

    def solve_in_block(g):
        value = solve(g)
        blocks[-1].append((g, value))
        return value

    monkeypatch.setattr(search, "_power_bounds",
                        lambda adj, deg: blocks.append([]) or power_bounds(adj, deg))
    monkeypatch.setattr(search, "q1", solve_in_block)
    certify_max_q1(n, k)
    assert blocks[0] == []  # nothing is solved before a block is bounded
    values = []
    for block in blocks[1:]:
        bounds = [power_bounds(*search._adjacency_bits([g]))[0] for g, _ in block]
        assert bounds == sorted(bounds, reverse=True)
        for bound, (_, value) in zip(bounds, block):
            top = sorted(values, reverse=True)[:5]
            floor = min(top[4], top[0] - MARGIN) if len(top) == 5 else -math.inf
            assert bound + EIGEN_ACCURACY >= floor
            values.append(value)
    assert len(values) == solves


def test_scan_progress_only_past_one_block(classes_7_8, monkeypatch, caplog):
    free = [g for g in classes_7_8[7] if is_fan_free(g, 2)]
    caplog.set_level(logging.INFO, logger="fanfree")
    search._scan(free)
    assert caplog.records == []  # one block writes nothing
    # without the throttle every block after the first reports
    monkeypatch.setattr(search, "SCAN_BLOCK", 100)
    monkeypatch.setattr(search, "PROGRESS_EVERY_S", 0.0)
    search._scan(free)
    lines = [r.getMessage() for r in caplog.records]
    assert len(lines) == -(-len(free) // 100) - 1
    assert lines[-1].startswith(f"scan: {len(free)} classes scanned, ")
    # the throttle keeps a fast scan of many blocks quiet
    caplog.clear()
    monkeypatch.setattr(search, "PROGRESS_EVERY_S", 10.0)
    search._scan(free)
    assert caplog.records == []


def test_scan_keeps_near_ties_beyond_five(monkeypatch):
    # seven triangle-free graphs within MARGIN of the best: all seven stay,
    # including the two below the fifth-best value
    graphs = [complete_bipartite(a, 14 - a) for a in range(1, 8)]
    values = {g: 14 - i * MARGIN / 10 for i, g in enumerate(graphs)}
    monkeypatch.setattr(search, "q1", values.__getitem__)
    entries, scanned = search._scan(graphs)
    assert [v for v, _ in entries] == sorted(values.values(), reverse=True)
    assert scanned == 7


def test_certify_rejects_bad_k():
    with pytest.raises(ValueError):
        certify_max_q1(6, 0)


def test_turan_bruteforce_examples():
    r = turan_bruteforce(7, ForbiddenPattern("kk2", 2))
    assert r.max_edges == 6
    assert r.regime is Regime.SPLIT
    assert r.extremal == (canonical_form(make_split(7, 1)).text,)

    r = turan_bruteforce(5, ForbiddenPattern("kk2", 3))
    assert r.max_edges == 10
    assert r.regime is Regime.CLIQUE
    assert len(r.extremal) == 1  # K_5 alone

    r = turan_bruteforce(4, ForbiddenPattern("kk2", 2))
    assert r.max_edges == 3
    assert r.regime is Regime.BOUNDARY
    assert len(r.extremal) == 2  # triangle plus isolate, and the star

    r = turan_bruteforce(6, ForbiddenPattern("fan", 1))
    assert r.max_edges == 9 and r.regime is None
    assert len(r.extremal) == 1  # the balanced complete bipartite graph

    assert turan_bruteforce(7, ForbiddenPattern("fan", 1)).max_edges == 12



# both consumers of a graph stream report its errors in one wording
STREAM_CONSUMERS = {
    "certify": lambda graphs: certify_max_q1(5, 2, graphs),
    "turan": lambda graphs: turan_bruteforce(5, ForbiddenPattern("fan", 2), graphs),
}


@pytest.mark.parametrize("consumer", sorted(STREAM_CONSUMERS))
@pytest.mark.parametrize("graphs,error,message", [
    ([complete_graph(4)], ValueError,
     "source produced a graph of order 4, expected 5"),
    ([], RuntimeError, "the source yielded no graphs"),
    ([complete_graph(5)], RuntimeError, "none of the 1 graphs read is F2-free"),
], ids=["wrong-order", "empty", "none-free"])
def test_stream_errors_shared_by_both_consumers(consumer, graphs, error, message):
    with pytest.raises(error) as exc:
        STREAM_CONSUMERS[consumer](iter(graphs))
    assert str(exc.value) == message

# sha256 of the JSON list of turan payloads for n = 2..8 and k = 1..3:
# the records every change to the pruned walk must keep
TURAN_GRID_SHA256 = {
    "fan": "c73d8ccdf67832f60ea60f4409a6e38d72cd3413e391749bdeb1b1db837a2b27",
    "kk2": "f92502c416e7beb39ab22f9c9987669b88f0dbd80d24014295c327e5487447c5",
}


@pytest.mark.parametrize("kind", ["fan", "kk2"])
def test_turan_bruteforce_pruned_walk_matches_full_enumeration(classes_7_8, kind):
    payloads = []
    for n in range(2, 9):
        graphs = classes_7_8.get(n) or list(enumerate_graphs(EnumerationTask(n)))
        for k in (1, 2, 3):
            pattern = ForbiddenPattern(kind, k)
            record = turan_bruteforce(n, pattern)
            assert record == turan_bruteforce(n, pattern, graphs), (n, k)
            payloads.append(certificate_payload(record))
    digest = hashlib.sha256(json.dumps(payloads).encode()).hexdigest()
    assert digest == TURAN_GRID_SHA256[kind]


def test_turan_bruteforce_matches_formula_grid():
    for k, ns in [(2, range(3, 7)), (3, range(5, 7))]:
        for n in ns:
            r = turan_bruteforce(n, ForbiddenPattern("kk2", k))
            value, regime = turan_kk2(n, k)
            assert r.max_edges == value and r.regime is regime


def test_efgg_value():
    assert efgg_value(100, 1) == 2500
    assert efgg_value(100, 2) == 2501
    assert efgg_value(101, 3) == 2556
    assert efgg_value(9, 4) == 30  # even branch: 20 + 16 - 6
    with pytest.raises(ValueError):
        efgg_value(10, 0)
    assert efgg_in_regime(50, 1) and not efgg_in_regime(49, 1)
    assert efgg_in_regime(200, 2) and not efgg_in_regime(199, 2)


def test_efgg_construction_odd():
    g, spec = efgg_construction(11, 3)
    assert g.edge_count() == efgg_value(11, 3) == 36
    assert spec.parity == "odd"
    assert spec.embedded_vertex_count == 6
    assert spec.embedded_edge_count == 6
    assert spec.embedded_max_degree == 2
    assert is_fan_free(g, 3)


def test_efgg_construction_even():
    g, spec = efgg_construction(7, 2)
    assert g.edge_count() == 13
    assert spec.parity == "even"
    assert (spec.embedded_vertex_count, spec.embedded_edge_count) == (3, 1)
    assert spec.embedded_max_degree == 1
    assert is_fan_free(g, 2)
    g, spec = efgg_construction(14, 4)
    assert g.edge_count() == efgg_value(14, 4) == 49 + 10
    assert spec.embedded_vertex_count == 7
    assert spec.embedded_edge_count == 10
    assert spec.embedded_max_degree == 3


def test_efgg_construction_verified_against_naive_search():
    for n, k in [(7, 2), (8, 1), (9, 2)]:
        g, _ = efgg_construction(n, k)
        assert not naive_contains_fan(g, k)


def test_efgg_construction_thresholds():
    with pytest.raises(ValueError):
        efgg_construction(10, 3)  # odd needs n >= 4k-1 = 11
    with pytest.raises(ValueError):
        efgg_construction(4, 2)  # even needs n >= 4k-3 = 5
    efgg_construction(11, 3)
    efgg_construction(5, 2)


def test_construction_spec_validation():
    with pytest.raises(ValueError):
        ConstructionSpec(n=11, k=3, parity="odd", embedded="x",
                         embedded_vertex_count=5, embedded_edge_count=6,
                         embedded_max_degree=2)
    with pytest.raises(ValueError):
        ConstructionSpec(n=7, k=2, parity="even", embedded="x",
                         embedded_vertex_count=3, embedded_edge_count=1,
                         embedded_max_degree=2)
    with pytest.raises(ValueError):
        ConstructionSpec(n=7, k=2, parity="sideways", embedded="x",
                         embedded_vertex_count=3, embedded_edge_count=1,
                         embedded_max_degree=1)


def test_emit_certificate_roundtrip():
    cert = certify_max_q1(6, 2)
    buf = io.StringIO()
    emit_certificate(cert, buf)
    data = json.loads(buf.getvalue())
    assert list(data)[:6] == ["n", "k", "winner", "winner_q1",
                              "winner_is_split", "unique"]
    winner = graph6_decode(data["winner"])
    assert abs(numpy_q1(winner) - data["winner_q1"]) < 1e-9
    assert data["scanned"] <= data["total"] == 156
    # all reals survive a parse/emit cycle unchanged (15 significant digits)
    buf2 = io.StringIO()
    emit_certificate(cert, buf2)
    assert buf.getvalue() == buf2.getvalue()


def test_emit_turan_record():
    record = turan_bruteforce(6, ForbiddenPattern("kk2", 2))
    buf = io.StringIO()
    emit_certificate(record, buf)
    data = json.loads(buf.getvalue())
    assert data["pattern"] == "2K2"
    assert data["max_edges"] == 5
    assert data["regime"] == "split-regime"
    assert all(graph6_decode(t).n == 6 for t in data["extremal"])


def test_emit_rejects_unknown_type():
    with pytest.raises(TypeError):
        emit_certificate({"not": "a certificate"}, io.StringIO())

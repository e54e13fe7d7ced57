"""Certification pipeline, brute-force edge maxima, constructions, emission."""

import io
import json
import math
import random

import pytest

from fanfree import search
from fanfree.enumeration import EnumerationTask, canonical_form, enumerate_graphs
from fanfree.fans import is_fan_free
from fanfree.graphs import graph6_decode, make_split
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


@pytest.mark.parametrize("n,k", [(7, 2), (7, 3), (8, 2), (8, 3)])
def test_bound_pruned_scan_matches_full_scan(classes_7_8, monkeypatch, n, k):
    pruned, scanned, total = search._scan(classes_7_8[n], n, k)
    # an infinite bound never excludes anything: every survivor is solved
    monkeypatch.setattr(search, "_degree_bound", lambda g: math.inf)
    full, full_scanned, full_total = search._scan(classes_7_8[n], n, k)
    assert pruned == full
    assert (scanned, total) == (full_scanned, full_total)
    assert len(full) >= 5


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

"""Exhaustive extremal certification, brute-force edge maxima, and
closed-form extremal constructions with self-checked builders.

The flagship routine scans every isomorphism class of a given order,
keeps the fan-free ones, eigensolves those whose degree bound does not
already rule them out of the top values, and certifies the
spectral-radius maximiser together with a uniqueness margin.  The
certified claim: for k >= 2 and n >= 3k^2 - k - 2 the complete split
graph is the unique maximiser; below that threshold the certificate
still reports the winner but flags itself as outside the regime where
uniqueness is asserted.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, TextIO

from .enumeration import EnumerationTask, canonical_form, enumerate_graphs
from .fans import is_fan_free
from .graphs import Graph, complete_bipartite, graph6_decode, make_split
from .matching import ForbiddenPattern, Regime, TuranRecord, is_kk2_free, turan_kk2
from .spectral import (EIGEN_ACCURACY, _degree_bound, q1,
                       rayleigh_power_lambda1, signless_laplacian, spectrum)

# Two spectral radii closer than MARGIN are an apparent tie and are
# re-verified; a re-verified tie closer than MARGIN_TIGHT stands.
MARGIN = 1e-6
MARGIN_TIGHT = 1e-12


@dataclass(frozen=True)
class SearchCertificate:
    """Outcome of one exhaustive spectral-maximum scan.

    ``winner`` is the canonical graph6 form of the argmax; ``margin`` is
    the gap to the runner-up (None when only one survivor exists);
    ``near_maximal`` keeps the top values, canonical forms included, so
    the margin is auditable; ``unique`` is set only when the winner
    stands alone after re-verification at the tightened tolerance.
    """

    n: int
    k: int
    winner: str
    winner_q1: float
    winner_is_split: bool
    unique: bool
    runner_up_q1: float | None
    margin: float | None
    near_maximal: tuple[tuple[str, float], ...]
    scanned: int
    total: int
    elapsed: float
    in_theorem_regime: bool

    def __post_init__(self) -> None:
        if self.margin is not None and self.margin < 0:
            raise ValueError("margin must be nonnegative")
        if self.scanned > self.total:
            raise ValueError("scanned cannot exceed total")


@dataclass(frozen=True)
class ConstructionSpec:
    """What was embedded into one side of the complete bipartite base.

    For odd ``k`` the embedded part is two disjoint copies of the
    complete graph K_k; for even ``k`` it is a (2k-1)-vertex graph with
    k^2 - 3k/2 edges and maximum degree k-1.  The counts are checked
    here so a bad builder cannot produce a silently wrong witness.
    """

    n: int
    k: int
    parity: str
    embedded: str
    embedded_vertex_count: int
    embedded_edge_count: int
    embedded_max_degree: int

    def __post_init__(self) -> None:
        k = self.k
        if self.parity not in ("odd", "even"):
            raise ValueError("parity must be 'odd' or 'even'")
        if self.parity == "odd":
            expect = (2 * k, k * (k - 1), k - 1)
        else:
            expect = (2 * k - 1, k * k - 3 * k // 2, k - 1)
        got = (self.embedded_vertex_count, self.embedded_edge_count,
               self.embedded_max_degree)
        if got[0] != expect[0] or got[1] != expect[1] or got[2] > expect[2]:
            raise ValueError(
                f"embedded part {got} violates required (vertices, edges, "
                f"max degree <=) = {expect}")


def theorem_regime(n: int, k: int) -> bool:
    """Whether (n, k) meets k >= 2 and n >= 3k^2 - k - 2."""
    return k >= 2 and n >= 3 * k * k - k - 2


# -- scan --------------------------------------------------------------


class _TopList:
    """Descending (q1, canonical graph6) entries: the best five plus any
    further entries within MARGIN of the best."""

    def __init__(self) -> None:
        self.entries: list[tuple[float, str]] = []

    def excludes(self, value: float) -> bool:
        """Whether an offer of ``value``, or of anything smaller, is
        dropped now and at every later point."""
        e = self.entries
        return len(e) >= 5 and value < e[-1][0] and value < e[0][0] - MARGIN

    def offer(self, value: float, make_text) -> None:
        if self.excludes(value):
            return
        self.entries.append((value, make_text()))
        self._trim()

    def merge(self, entries: list[tuple[float, str]]) -> None:
        if entries:
            self.entries.extend(entries)
            self._trim()

    def _trim(self) -> None:
        self.entries.sort(key=lambda t: (-t[0], t[1]))
        top = self.entries[0][0]
        keep = [t for i, t in enumerate(self.entries)
                if i < 5 or t[0] >= top - MARGIN]
        self.entries = keep


def _scan(graphs: Iterable[Graph], n: int,
          k: int) -> tuple[list[tuple[float, str]], int, int]:
    """Top-list entries of the fan-free graphs, with the fan-free and
    total counts.

    The fan-free graphs are eigensolved in descending order of their
    degree bound, stopping at the first whose bound (plus the
    eigensolver's accuracy) the list already excludes, since every later
    bound is no larger.  The final list does not depend on the order of
    offers, so it equals that of a scan that eigensolves every graph.
    """
    survivors: list[tuple[float, Graph]] = []
    total = 0
    for g in graphs:
        if g.n != n:
            raise ValueError(f"source produced a graph of order {g.n}, expected {n}")
        total += 1
        if is_fan_free(g, k):
            survivors.append((_degree_bound(g), g))
    survivors.sort(key=itemgetter(0), reverse=True)
    top = _TopList()
    for bound, g in survivors:
        if top.excludes(bound + EIGEN_ACCURACY):
            break
        top.offer(q1(g), lambda g=g: canonical_form(g).text)
    return top.entries, len(survivors), total


def _scan_shard(args: tuple[int, int, int, int]):
    n, k, index, count = args
    task = EnumerationTask(n, shard=(index, count))
    return _scan(enumerate_graphs(task), n, k)


def _tight_q1(g: Graph) -> float:
    return spectrum(signless_laplacian(g), _off_factor=1e-14).eigenvalues[0]


def certify_max_q1(n: int, k: int, source: Iterable[Graph] | None = None, *,
                   jobs: int = 1) -> SearchCertificate:
    """Scan every isomorphism class of order ``n``, keep the fan-free
    ones, and certify the signless-Laplacian spectral-radius maximiser.

    ``source`` may be an iterable of graphs of order ``n`` (for example
    a decoded graph6 stream), or None for the default exhaustive run over
    every class.  The default run is split into ``jobs`` round-robin
    enumeration shards, one per worker process (scanned in this process
    when ``jobs`` is 1), and the parts are merged deterministically, so
    the certificate does not depend on ``jobs`` apart from ``elapsed``.
    A ``source`` is scanned in one process, so it cannot be combined
    with ``jobs`` above 1.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    if source is not None and jobs != 1:
        raise ValueError("a graph source cannot be combined with jobs above "
                         "1: a stream is scanned in one process")
    t0 = time.perf_counter()

    if source is not None:
        parts = [_scan(source, n, k)]
    elif jobs == 1:
        parts = [_scan_shard((n, k, 0, 1))]
    else:
        import multiprocessing

        with multiprocessing.Pool(jobs) as pool:
            parts = pool.map(_scan_shard, [(n, k, i, jobs) for i in range(jobs)])
    top = _TopList()
    scanned = total = 0
    for entries, part_scanned, part_total in parts:
        top.merge(entries)
        scanned += part_scanned
        total += part_total

    if total == 0:
        raise RuntimeError("empty survivor set: the source yielded no graphs")
    if not top.entries:
        raise RuntimeError(f"empty survivor set: none of the {total} graphs "
                           f"read is {k}-fan-free")

    entries = top.entries
    best_value = entries[0][0]
    tied = [e for e in entries if best_value - e[0] <= MARGIN]
    if len(tied) == 1:
        unique = True
        winner_text, winner_value = tied[0][1], tied[0][0]
    else:
        # re-verify apparent ties at tightened tolerance before
        # conceding or claiming uniqueness
        refined = sorted(
            ((_tight_q1(graph6_decode(text)), text) for _, text in tied),
            key=lambda t: (-t[0], t[1]))
        tight_best = refined[0][0]
        survivors = [e for e in refined if tight_best - e[0] <= MARGIN_TIGHT]
        unique = len(survivors) == 1
        winner_value, winner_text = survivors[0]

    winner_graph = graph6_decode(winner_text)
    if not is_fan_free(winner_graph, k):
        raise RuntimeError("internal error: winner failed the fan-free re-check")
    independent = rayleigh_power_lambda1(signless_laplacian(winner_graph))
    if abs(independent - winner_value) > EIGEN_ACCURACY:
        raise RuntimeError(
            f"eigensolver disagreement on winner: {winner_value} vs "
            f"power-iteration {independent}")

    runner_up = next((v for v, t in entries if t != winner_text), None)
    margin = None if runner_up is None else max(winner_value - runner_up, 0.0)
    split_form = canonical_form(make_split(n, k)).text if k < n else None
    winner_is_split = unique and winner_text == split_form

    return SearchCertificate(
        n=n, k=k, winner=winner_text, winner_q1=winner_value,
        winner_is_split=winner_is_split, unique=unique,
        runner_up_q1=runner_up, margin=margin,
        near_maximal=tuple((t, v) for v, t in entries),
        scanned=scanned, total=total,
        elapsed=time.perf_counter() - t0,
        in_theorem_regime=theorem_regime(n, k))


# -- brute-force edge maxima -------------------------------------------


def turan_bruteforce(n: int, pattern: ForbiddenPattern,
                     source: Iterable[Graph] | None = None) -> TuranRecord:
    """Exact pattern-free edge maximum with every extremal class listed.

    ``source`` may be an iterable of graphs of order ``n``, or None for
    every class of that order.  For kK2 patterns the result carries the
    clique/split regime from the closed formula; fan patterns have no
    such trichotomy and get None.
    """
    if source is None:
        source = enumerate_graphs(EnumerationTask(n))
    if pattern.kind == "kk2":
        free = lambda g: is_kk2_free(g, pattern.k)
    else:
        free = lambda g: is_fan_free(g, pattern.k)

    best = -1
    extremal: list[str] = []
    for g in source:
        if g.n != n:
            raise ValueError(f"source produced a graph of order {g.n}, expected {n}")
        e = g.edge_count()
        if e < best or not free(g):
            continue
        if e > best:
            best = e
            extremal = []
        extremal.append(canonical_form(g).text)
    if best < 0:
        raise RuntimeError("source yielded no graphs")

    regime: Regime | None = None
    if pattern.kind == "kk2" and pattern.k >= 2 and n >= 2 * pattern.k - 1:
        value, regime = turan_kk2(n, pattern.k)
        if value != best:
            raise RuntimeError(
                f"closed formula {value} disagrees with brute force {best}")
    return TuranRecord(n=n, pattern=pattern, max_edges=best,
                       extremal=tuple(sorted(extremal)), regime=regime)


# -- closed-form fan-free constructions --------------------------------


def efgg_value(n: int, k: int) -> int:
    """Largest size of a fan-free graph of order n, per the closed
    formula: n^2/4 rounded down, plus k^2-k for odd k or k^2-3k/2 for
    even k.  The formula is guaranteed only for n >= 50k^2 (see
    efgg_in_regime); the value is computed for any n."""
    if k < 1:
        raise ValueError("k must be positive")
    if n < 1:
        raise ValueError("n must be positive")
    extra = k * k - k if k % 2 else k * k - 3 * k // 2
    return n * n // 4 + extra


def efgg_in_regime(n: int, k: int) -> bool:
    """Whether n >= 50k^2, where the edge-maximum formula is guaranteed."""
    if k < 1:
        raise ValueError("k must be positive")
    return n >= 50 * k * k


def efgg_construction(n: int, k: int) -> tuple[Graph, ConstructionSpec]:
    """A fan-free graph of order n with exactly efgg_value(n, k) edges.

    Complete bipartite base with near-equal sides; the larger side hosts
    the embedded part: two disjoint K_k for odd k (needs n >= 4k-1), or
    a (2k-1)-vertex, k^2-3k/2-edge, max-degree-(k-1) graph for even k
    (needs n >= 4k-3), realised as a circulant layer plus a near-perfect
    matching.  Edge count, fan-freeness, and the embedded constraints
    are all re-verified before returning.
    """
    if k < 1:
        raise ValueError("k must be positive")
    odd = bool(k % 2)
    threshold = 4 * k - 1 if odd else 4 * k - 3
    if n < threshold:
        raise ValueError(
            f"{'odd' if odd else 'even'} k={k} requires n >= {threshold}, got {n}")

    small = n // 2
    g = complete_bipartite(small, n - small)  # larger side is small..n-1
    host = list(range(small, n))

    embedded_edges: list[tuple[int, int]] = []
    if odd:
        size = 2 * k
        for block in (host[:k], host[k:2 * k]):
            for i in range(k):
                for j in range(i + 1, k):
                    embedded_edges.append((block[i], block[j]))
        label = f"two disjoint K_{k} copies"
    else:
        size = 2 * k - 1
        part = host[:size]
        for off in range(1, (k - 2) // 2 + 1):
            for i in range(size):
                a, b = part[i], part[(i + off) % size]
                embedded_edges.append((min(a, b), max(a, b)))
        for i in range(k - 1):
            embedded_edges.append((part[i], part[i + k - 1]))
        label = (f"near-regular graph on {size} vertices: circulant layer "
                 f"plus a matching, one vertex of degree {k - 2}")

    for a, b in embedded_edges:
        g = g.with_edge(a, b)

    degree = {v: 0 for v in host[:size]}
    for a, b in embedded_edges:
        degree[a] += 1
        degree[b] += 1
    spec = ConstructionSpec(
        n=n, k=k, parity="odd" if odd else "even", embedded=label,
        embedded_vertex_count=size,
        embedded_edge_count=len(embedded_edges),
        embedded_max_degree=max(degree.values()) if degree else 0)

    expect = efgg_value(n, k)
    if g.edge_count() != expect:
        raise RuntimeError(
            f"internal error: built {g.edge_count()} edges, expected {expect}")
    if not is_fan_free(g, k):
        raise RuntimeError("internal error: construction is not fan-free")
    return g, spec


# -- certificate emission ----------------------------------------------


def _sig15(x: float) -> float:
    return float(f"{x:.15g}")


def _certificate_payload(cert: SearchCertificate) -> dict:
    return {
        "n": cert.n,
        "k": cert.k,
        "winner": cert.winner,
        "winner_q1": _sig15(cert.winner_q1),
        "winner_is_split": cert.winner_is_split,
        "unique": cert.unique,
        "runner_up_q1": None if cert.runner_up_q1 is None else _sig15(cert.runner_up_q1),
        "margin": None if cert.margin is None else _sig15(cert.margin),
        "near_maximal": [
            {"graph6": text, "q1": _sig15(value)}
            for text, value in cert.near_maximal
        ],
        "scanned": cert.scanned,
        "total": cert.total,
        "elapsed": _sig15(cert.elapsed),
        "in_theorem_regime": cert.in_theorem_regime,
        "tolerances": {
            "eigen": _sig15(EIGEN_ACCURACY),
            "margin": _sig15(MARGIN),
            "margin_tight": _sig15(MARGIN_TIGHT),
        },
    }


def _turan_payload(record: TuranRecord) -> dict:
    return {
        "n": record.n,
        "pattern": record.pattern.label(),
        "k": record.pattern.k,
        "max_edges": record.max_edges,
        "extremal": list(record.extremal),
        "regime": None if record.regime is None else record.regime.value,
    }


def certificate_payload(cert: SearchCertificate | TuranRecord) -> dict:
    """JSON-ready dict with a fixed key order and 15-significant-digit reals."""
    if isinstance(cert, SearchCertificate):
        return _certificate_payload(cert)
    if isinstance(cert, TuranRecord):
        return _turan_payload(cert)
    raise TypeError(f"cannot emit {type(cert).__name__}")


def emit_certificate(cert: SearchCertificate | TuranRecord, sink: TextIO) -> None:
    """Write the certificate as a single JSON document."""
    json.dump(certificate_payload(cert), sink, indent=2)
    sink.write("\n")

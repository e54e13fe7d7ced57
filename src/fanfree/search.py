"""Exhaustive extremal certification, brute-force edge maxima, and
closed-form extremal constructions with self-checked builders.

The flagship routine builds the fan-free isomorphism classes of a given
order, pruning every class that contains a fan together with all its
extensions, eigensolves those whose power bounds do not rule them out
of the top values, and certifies the spectral-radius maximiser
together with a uniqueness margin.  The certified claim: for k >= 2 and
n >= 3k^2 - k - 2 the complete split graph is the unique maximiser;
below that threshold the certificate still reports the winner but flags
itself as outside the regime where uniqueness is asserted.

Only the scan computes with numpy, and it imports numpy in its own body,
so that ``turan`` and ``construct`` run without loading it.
"""

from __future__ import annotations

import itertools
import json
import logging
import math
import time
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Iterator, TextIO

from .enumeration import (EnumerationTask, canonical_form, count_classes,
                          enumerate_graphs)
from .fans import _extension_fan_free, is_fan_free
from .graphs import (MAX_VERTICES, Graph, circulant_graph, complete_graph,
                     disjoint_union, empty_graph, graph6_decode, join,
                     split_parameter)
from .matching import ForbiddenPattern, TuranRecord, is_kk2_free, turan_kk2
from .spectral import (EIGEN_ACCURACY, _adjacency_bits, _power_bounds, q1,
                       rayleigh_power_lambda1, signless_laplacian, spectrum)

logger = logging.getLogger("fanfree")

# Two spectral radii closer than MARGIN are an apparent tie and are
# re-verified; a re-verified tie closer than MARGIN_TIGHT stands.
MARGIN = 1e-6
MARGIN_TIGHT = 1e-12
# The scan pulls this many graphs at a time: enough that its numpy calls
# cost little per graph, few enough that a block's graphs and arrays
# (about 0.6 KB per graph at n=9) stay small beside the process.
SCAN_BLOCK = 1 << 12
# Least wall time between two progress lines of one scan.
PROGRESS_EVERY_S = 10.0


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


def _defined(f, *args):
    """``f(*args)``, or None where ``f`` rejects its arguments with
    ValueError, so that only ``f`` states where it is defined."""
    try:
        return f(*args)
    except ValueError:
        return None


# -- scan --------------------------------------------------------------


def _trim(entries: list[tuple[float, str]]) -> list[tuple[float, str]]:
    """(q1, canonical graph6) entries sorted by descending q1, then text:
    the first five plus every further entry within MARGIN of the best."""
    ranked = sorted(entries, key=lambda t: (-t[0], t[1]))
    return [t for i, t in enumerate(ranked)
            if i < 5 or t[0] >= ranked[0][0] - MARGIN]


def _pattern_free(n: int, pattern: ForbiddenPattern,
                  source: Iterable[Graph] | None,
                  shard: tuple[int, int] | None = None) -> Iterator[Graph]:
    """The ``pattern``-free graphs of order ``n``, each tested once.

    With no ``source``, the classes of the orderly walk (or of one
    ``shard`` of it), which tests each child before its canonicity test,
    for fans only in its new vertex, and extends no child that holds the
    pattern; else the graphs of ``source``, each checked to have order
    ``n`` and tested in full.  A source with no free graph is an error.
    """
    k = pattern.k
    if pattern.kind == "kk2":
        walk_test = full_test = is_kk2_free
    else:
        walk_test, full_test = _extension_fan_free, is_fan_free
    if source is None:
        yield from enumerate_graphs(EnumerationTask(n, shard=shard),
                                    hereditary=lambda g: walk_test(g, k))
        return
    read = free = 0
    for g in source:
        if g.n != n:
            raise ValueError(f"source produced a graph of order {g.n}, expected {n}")
        read += 1
        if full_test(g, k):
            free += 1
            yield g
    if read == 0:
        raise RuntimeError("the source yielded no graphs")
    if free == 0:
        raise RuntimeError(f"none of the {read} graphs read is {pattern.label()}-free")


def _scan(graphs: Iterable[Graph]) -> tuple[list[tuple[float, str]], int]:
    """``_trim`` of the entries of ``graphs``, which are all fan-free and
    of one order, and their number.

    Each solved graph is held under its canonical graph6, with the
    largest q1 solved for it, so copies of one class count once.  Let
    floor be -inf until five classes are held, then the smaller of the
    fifth-best held q1 and the best minus MARGIN: ``_trim`` drops every
    entry below it, and it never falls.  The graphs come in blocks of
    SCAN_BLOCK, each taken in descending order of its power bounds (one
    ``_power_bounds`` call per block) and eigensolved up to the first
    graph whose bound plus the eigensolver's accuracy is below floor.
    After each block only the entries at or above floor are held.  Every
    graph skipped has a q1 below a floor no higher than the final one,
    so the result equals that of a scan that eigensolves every graph.  A
    scan of more than one block logs progress at most every
    PROGRESS_EVERY_S seconds.
    """
    import numpy as np

    held: dict[str, float] = {}
    floor = -math.inf
    scanned = solves = 0
    graphs = iter(graphs)
    reported = time.monotonic()
    while block := list(itertools.islice(graphs, SCAN_BLOCK)):
        bounds = _power_bounds(*_adjacency_bits(block))
        order = np.argsort(-bounds, kind="stable")
        for i, bound in zip(order.tolist(), bounds[order].tolist()):
            if bound + EIGEN_ACCURACY < floor:
                break
            value = q1(block[i])
            solves += 1
            text = canonical_form(block[i]).text
            held[text] = max(value, held.get(text, value))
            if len(held) >= 5 and value >= floor:
                top = sorted(held.values())[-5:]
                floor = min(top[0], top[4] - MARGIN)
        held = {text: value for text, value in held.items() if value >= floor}
        scanned += len(block)
        if scanned > len(block) and time.monotonic() - reported >= PROGRESS_EVERY_S:
            reported = time.monotonic()
            logger.info("scan: %d classes scanned, %d classes held, %d eigensolves, "
                        "floor %.6f", scanned, len(held), solves, floor)
    return _trim([(value, text) for text, value in held.items()]), scanned


def _scan_shard(args: tuple[int, ForbiddenPattern, tuple[int, int] | None]):
    n, pattern, shard = args
    return _scan(_pattern_free(n, pattern, None, shard))


def _tight_q1(g: Graph) -> float:
    return spectrum(signless_laplacian(g), _off_factor=1e-14).eigenvalues[0]


def certify_max_q1(n: int, k: int, source: Iterable[Graph] | None = None, *,
                   jobs: int = 1) -> SearchCertificate:
    """Certify the signless-Laplacian spectral-radius maximiser among
    the k-fan-free graphs of order ``n``.

    ``source`` may be an iterable of graphs of order ``n`` (for example
    a decoded graph6 stream), or None for the default exhaustive run over
    the fan-free classes (see ``_pattern_free``).  The default run's
    ``total`` is the number of isomorphism classes of order ``n``,
    counted by ``count_classes``; with a ``source`` it is the number of
    graphs read.  The default run is split into ``jobs`` round-robin
    enumeration shards, one per worker process (scanned in this process
    when ``jobs`` is 1), and the parts are merged deterministically, so
    the certificate does not depend on ``jobs`` apart from ``elapsed``.
    A ``source`` is scanned in one process, so it cannot be combined
    with ``jobs`` above 1.
    """
    pattern = ForbiddenPattern("fan", k)
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    if source is not None and jobs != 1:
        raise ValueError("a graph source cannot be combined with jobs above "
                         "1: a stream is scanned in one process")
    t0 = time.perf_counter()

    if source is not None:
        # zip draws from ``read`` once per graph the source yields
        read = itertools.count()
        parts = [_scan(_pattern_free(n, pattern, map(itemgetter(0), zip(source, read))))]
        total = next(read)
    else:
        total = count_classes(n)
        if jobs == 1:
            parts = [_scan_shard((n, pattern, None))]
        else:
            import multiprocessing

            with multiprocessing.Pool(jobs) as pool:
                parts = pool.map(_scan_shard, [(n, pattern, (i, jobs)) for i in range(jobs)])
    entries = _trim([e for part_entries, _ in parts for e in part_entries])
    scanned = sum(part[1] for part in parts)

    tied = [e for e in entries if entries[0][0] - e[0] <= MARGIN]
    if len(tied) > 1:
        # re-verify apparent ties at tightened tolerance; a lone winner
        # keeps its value, so its printed digits do not move
        tied = sorted(((_tight_q1(graph6_decode(text)), text) for _, text in tied),
                      key=lambda t: (-t[0], t[1]))
    survivors = [e for e in tied if tied[0][0] - e[0] <= MARGIN_TIGHT]
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
    winner_is_split = unique and split_parameter(winner_graph) == k

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
    every pattern-free class of that order (see ``_pattern_free``).
    For kK2 patterns in ``turan_kk2``'s range the result carries the
    regime of that formula; fan patterns have no such trichotomy.
    """
    best = -1
    extremal: set[str] = set()
    for g in _pattern_free(n, pattern, source):
        e = g.edge_count()
        if e > best:
            best, extremal = e, set()
        if e == best:
            extremal.add(canonical_form(g).text)

    # fans, and kK2 outside turan_kk2's range, have no formula to check
    formula = _defined(turan_kk2, n, pattern.k) if pattern.kind == "kk2" else None
    value, regime = formula or (best, None)
    if value != best:
        raise RuntimeError(f"closed formula {value} disagrees with brute force {best}")
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
    if not threshold <= n <= MAX_VERTICES:
        raise ValueError(f"{'odd' if odd else 'even'} k={k} requires "
                         f"{threshold} <= n <= {MAX_VERTICES}, got {n}")

    if odd:
        embedded = disjoint_union(complete_graph(k), complete_graph(k))
        label = f"two disjoint K_{k} copies"
    else:
        embedded = circulant_graph(2 * k - 1, range(1, (k - 2) // 2 + 1))
        for i in range(k - 1):
            embedded = embedded.with_edge(i, i + k - 1)
        label = (f"near-regular graph on {2 * k - 1} vertices: circulant layer "
                 f"plus a matching, one vertex of degree {k - 2}")
    spec = ConstructionSpec(
        n=n, k=k, parity="odd" if odd else "even", embedded=label,
        embedded_vertex_count=embedded.n,
        embedded_edge_count=embedded.edge_count(),
        embedded_max_degree=embedded.degree_sequence()[0])

    # the embedded part opens the larger side of the near-equal bipartition
    small = n // 2
    rest = n - small - embedded.n
    larger = embedded if rest == 0 else disjoint_union(embedded, empty_graph(rest))
    g = join(empty_graph(small), larger)

    expect = efgg_value(n, k)
    if g.edge_count() != expect:
        raise RuntimeError(
            f"internal error: built {g.edge_count()} edges, expected {expect}")
    if not is_fan_free(g, k):
        raise RuntimeError("internal error: construction is not fan-free")
    return g, spec


# -- certificate emission ----------------------------------------------


def _sig15(x: float | None) -> float | None:
    return None if x is None else float(f"{x:.15g}")


def _certificate_payload(cert: SearchCertificate) -> dict:
    return {
        "n": cert.n,
        "k": cert.k,
        "winner": cert.winner,
        "winner_q1": _sig15(cert.winner_q1),
        "winner_is_split": cert.winner_is_split,
        "unique": cert.unique,
        "runner_up_q1": _sig15(cert.runner_up_q1),
        "margin": _sig15(cert.margin),
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
    n, k = record.n, record.pattern.k
    payload = {
        "n": n,
        "pattern": record.pattern.label(),
        "k": k,
        "max_edges": record.max_edges,
        "extremal": list(record.extremal),
        "regime": None if record.regime is None else record.regime.value,
    }
    if record.pattern.kind == "fan":
        return payload | {"formula_value": efgg_value(n, k),
                          "formula_guaranteed": efgg_in_regime(n, k)}
    # turan_bruteforce sets a regime only where the formula matched it
    return payload | {"formula_value": None if record.regime is None else record.max_edges}


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

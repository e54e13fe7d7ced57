"""k-fan containment, witnesses, and saturation.

A k-fan (k triangles sharing exactly one common vertex) centred at ``v``
is the same thing as k pairwise disjoint edges inside the induced
neighbourhood of ``v``, so detection reduces to per-vertex neighbourhood
matching.  That criterion is exact and polynomial; no generic subgraph
isomorphism is needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .graphs import Graph
from .matching import _lex_witness, _matching_size


@dataclass(frozen=True)
class FanWitness:
    """Embedding of a k-fan: a centre and k disjoint edges in its neighbourhood."""

    center: int
    pairs: tuple[tuple[int, int], ...]


def _validate_witness(g: Graph, k: int, w: FanWitness) -> None:
    nb = g.adj[w.center]
    used = 0
    if len(w.pairs) != k:
        raise RuntimeError("fan witness has the wrong number of edges")
    for u, v in w.pairs:
        if not g.has_edge(u, v):
            raise RuntimeError(f"fan witness pair ({u},{v}) is not an edge")
        if not (nb >> u & 1 and nb >> v & 1):
            raise RuntimeError(f"fan witness pair ({u},{v}) leaves the neighbourhood")
        pair_mask = 1 << u | 1 << v
        if used & pair_mask:
            raise RuntimeError("fan witness pairs are not disjoint")
        used |= pair_mask


def _fan_centres(g: Graph, k: int) -> Iterator[int]:
    """Yield, in increasing order, every vertex at which a k-fan is centred."""
    if k < 1:
        raise ValueError("k must be positive")
    for v in range(g.n):
        nb = g.adj[v]
        if nb.bit_count() >= 2 * k and _matching_size(g.adj, nb, k) >= k:
            yield v


def contains_fan(g: Graph, k: int) -> FanWitness | None:
    """Smallest-centre witness of a k-fan subgraph, or None.

    A witness exists iff some vertex's induced neighbourhood has matching
    number at least ``k``.  Ties break to the smallest centre index, then
    to the lexicographically smallest pair set, so the result is
    deterministic.
    """
    for v in _fan_centres(g, k):
        witness = FanWitness(v, _lex_witness(g.adj, g.adj[v], k))
        _validate_witness(g, k, witness)
        return witness
    return None


def is_fan_free(g: Graph, k: int) -> bool:
    """True iff ``g`` contains no k-fan subgraph."""
    return next(_fan_centres(g, k), None) is None


def _extension_fan_free(g: Graph, k: int) -> bool:
    """``is_fan_free(g, k)`` for a ``g`` whose last vertex v is new: g
    minus v must be k-fan-free.

    Every k-fan of g then uses v, as its centre, so ν(N(v)) >= k, or as
    a leaf next to a centre u in N(v), so ν(N(u)) >= k and v has a
    neighbour in N(u).
    """
    v = g.n - 1
    adj = g.adj
    nb = adj[v]
    if nb.bit_count() >= 2 * k and _matching_size(adj, nb, k) >= k:
        return False
    x = nb
    while x:
        low = x & -x
        nu = adj[low.bit_length() - 1]
        if nu & nb and nu.bit_count() >= 2 * k and _matching_size(adj, nu, k) >= k:
            return False
        x ^= low
    return True


def common_neighbor_check(g: Graph) -> bool:
    """True iff every non-adjacent pair of vertices shares a neighbour.

    On connected input this is the same as diameter at most 2, and it
    means each vertex's closed neighbourhood plus second neighbourhood
    covers the whole vertex set.
    """
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if not g.adj[u] >> v & 1 and not g.adj[u] & g.adj[v]:
                return False
    return True


def fan_saturation_gap(g: Graph, k: int) -> tuple[int, int] | None:
    """First non-edge whose addition creates no k-fan, or None.

    None means ``g`` is k-fan-saturated: it is fan-free but adding any
    missing edge creates a k-fan.  Raises if ``g`` already contains one.
    Non-edges are scanned in lexicographic order, so the reported gap is
    deterministic.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if not is_fan_free(g, k):
        raise ValueError("graph already contains a k-fan")
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if g.adj[u] >> v & 1:
                continue
            if is_fan_free(g.with_edge(u, v), k):
                return (u, v)
    return None


def is_fan_saturated(g: Graph, k: int) -> bool:
    """True iff ``g`` is k-fan-free and every added edge creates a k-fan."""
    return fan_saturation_gap(g, k) is None

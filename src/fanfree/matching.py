"""Exact maximum matching and the edge-maximum formulas for bounded matching number.

Every matching number here comes from one kernel on vertex bitmasks:
the lexicographic greedy matching grown along augmenting paths with
blossom contraction (Edmonds, "Paths, trees, and flowers", 1965).  It is
polynomial and stops once a requested size is reached, which is all a
fan test or a feasibility step of witness extraction needs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .graphs import Graph, bits


class Regime(enum.Enum):
    """Which extremal family attains an edge-maximum formula."""

    CLIQUE = "clique-regime"
    SPLIT = "split-regime"
    BOUNDARY = "boundary"


@dataclass(frozen=True)
class MatchingResult:
    """Matching number together with a witness.

    ``pairs`` is the lexicographically smallest maximum matching, as
    sorted pairs ``(u, v)`` with ``u < v``; the size is exact because
    no augmenting path is left.
    """

    size: int
    pairs: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class ForbiddenPattern:
    """Forbidden-subgraph descriptor: ``kind`` is ``"kk2"`` or ``"fan"``."""

    kind: str
    k: int

    def __post_init__(self) -> None:
        if self.kind not in ("kk2", "fan"):
            raise ValueError(f"unknown pattern kind {self.kind!r}")
        if self.k < 1:
            raise ValueError("pattern parameter k must be positive")

    def label(self) -> str:
        return f"{self.k}K2" if self.kind == "kk2" else f"F{self.k}"


@dataclass(frozen=True)
class TuranRecord:
    """Edge-maximum over pattern-free graphs of a fixed order.

    ``extremal`` lists the canonical graph6 forms of every graph
    attaining ``max_edges``.  ``regime`` carries the clique/split
    trichotomy for kK2 patterns and is None for fan patterns, where no
    such trichotomy applies.
    """

    n: int
    pattern: ForbiddenPattern
    max_edges: int
    extremal: tuple[str, ...]
    regime: Regime | None


def _matching_size(adj: tuple[int, ...], mask: int, need: int) -> int:
    """``min(need, matching number of the subgraph induced on mask)``.

    Each vertex the lexicographic greedy seed leaves exposed roots one
    search for an augmenting path; a root without one keeps none after
    later augmentations, so one pass over the roots is exact.
    """
    mate = [-1] * len(adj)
    size = 0
    avail = mask
    exposed = 0
    while avail and size < need:
        u = (avail & -avail).bit_length() - 1
        avail ^= 1 << u
        nb = adj[u] & avail
        if nb:
            v = (nb & -nb).bit_length() - 1
            avail ^= 1 << v
            mate[u], mate[v] = v, u
            size += 1
        elif adj[u] & mask:
            exposed |= 1 << u
    for root in bits(exposed):
        if size >= need:
            break
        if mate[root] < 0 and _augment(adj, mask, mate, root):
            size += 1
    return size


def _augment(adj: tuple[int, ...], mask: int, mate: list[int], root: int) -> bool:
    """Grow ``mate`` along one augmenting path from the exposed ``root``.

    ``outer`` holds the queued vertices, at even distance from the root;
    an edge between two of them closes a blossom, contracted to its base.
    """
    base = list(range(len(adj)))
    parent = [-1] * len(adj)
    outer = 1 << root
    queue = [root]

    def lca(a: int, b: int) -> int:
        seen = 0
        while a >= 0:
            a = base[a]
            seen |= 1 << a
            a = parent[mate[a]] if mate[a] >= 0 else -1
        while not seen >> base[b] & 1:
            b = parent[mate[base[b]]]
        return base[b]

    def mark(v: int, b: int, child: int) -> int:
        blossom = 0
        while base[v] != b:
            blossom |= 1 << base[v] | 1 << base[mate[v]]
            parent[v] = child
            child = mate[v]
            v = parent[child]
        return blossom

    for v in queue:
        for u in bits(adj[v] & mask):
            if base[v] == base[u] or mate[v] == u:
                continue
            if outer >> u & 1:
                b = lca(v, u)
                blossom = mark(v, b, u) | mark(u, b, v)
                for w in bits(mask):
                    if blossom >> base[w] & 1:
                        base[w] = b
                        if not outer >> w & 1:
                            outer |= 1 << w
                            queue.append(w)
            elif parent[u] < 0:
                parent[u] = v
                if mate[u] < 0:
                    while u >= 0:
                        p = parent[u]
                        mate[u], mate[p], u = p, u, mate[p]
                    return True
                outer |= 1 << mate[u]
                queue.append(mate[u])
    return False


def _lex_witness(adj: tuple[int, ...], mask: int,
                 size: int) -> tuple[tuple[int, int], ...]:
    """Lexicographically smallest set of ``size`` disjoint edges in ``mask``:
    the smallest edge whose removal leaves room for the rest, repeatedly."""
    pairs = []
    avail = mask
    for left in range(size - 1, -1, -1):
        pair = next(((u, v) for u in bits(avail) for v in bits(adj[u] & avail)
                     if _matching_size(adj, avail & ~(1 << u | 1 << v), left) >= left),
                    None)
        if pair is None:  # cannot happen when size is the true matching number
            raise RuntimeError("witness extraction lost feasibility")
        pairs.append(pair)
        avail &= ~(1 << pair[0] | 1 << pair[1])
    return tuple(pairs)


def matching_number(g: Graph) -> MatchingResult:
    """Exact matching number with a lexicographically smallest witness."""
    full = (1 << g.n) - 1
    size = _matching_size(g.adj, full, g.n)
    return MatchingResult(size, _lex_witness(g.adj, full, size))


def is_kk2_free(g: Graph, k: int) -> bool:
    """True iff ``g`` contains no k pairwise disjoint edges."""
    if k < 1:
        raise ValueError("k must be positive")
    return _matching_size(g.adj, (1 << g.n) - 1, k) < k


def max_edges_matching(n: int, alpha: int) -> tuple[int, Regime]:
    """Maximum size of a graph of order ``n`` with matching number ``alpha``.

    The value is ``max(C(2a+1, 2), a*n - a(a+1)/2)``; the regime reports
    which family attains it: the clique ``K_{2a+1}`` plus isolated
    vertices below the boundary ``n = (5a+3)/2``, the complete split
    graph above it, and both exactly at the boundary.
    """
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    if n < 2 * alpha + 1:
        raise ValueError(f"requires n >= 2*alpha+1 = {2 * alpha + 1}, got n={n}")
    clique = (2 * alpha + 1) * alpha  # C(2a+1, 2)
    split = alpha * n - alpha * (alpha + 1) // 2
    # trichotomy boundary at n = (5*alpha+3)/2, compared in integers
    lhs = 2 * n
    rhs = 5 * alpha + 3
    if lhs > rhs:
        return split, Regime.SPLIT
    if lhs == rhs:
        return clique, Regime.BOUNDARY  # both formulas agree here
    return clique, Regime.CLIQUE


def turan_kk2(n: int, k: int) -> tuple[int, Regime]:
    """Edge-maximum over kK2-free graphs of order ``n``.

    A graph is kK2-free iff its matching number is at most ``k-1``, so
    this is the bounded-matching maximum at ``alpha = k-1``: the value is
    ``(k-1)n - k(k-1)/2`` from ``n >= (5k-2)/2`` and ``C(2k-1, 2)``
    below, with both extremal families meeting at ``n = (5k-2)/2``.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    if n < 2 * k - 1:
        raise ValueError(f"requires n >= 2k-1 = {2 * k - 1}, got n={n}")
    return max_edges_matching(n, k - 1)

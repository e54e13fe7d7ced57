"""Isomorph-free exhaustive graph generation, canonical forms, graph6 streaming.

Generation is orderly: a labelling is *canonical* when its column-major
upper-triangle bit code (x(0,1), x(0,2), x(1,2), x(0,3), ...) is
lexicographically maximal over all relabellings.  Deleting the last
vertex of a canonical code leaves a canonical code, so extending each
canonical representative on n-1 vertices by one new last vertex over all
neighbour subsets, and keeping exactly the extensions whose identity
labelling is canonical, enumerates every isomorphism class once with no
global dedup table.

One search serves both the canonicity test and the canonical form: a
depth-first search for a lexicographically greater relabelling over
candidate bitmasks, pruned by interchangeable-vertex (twin) classes.
The canonicity test asks whether it finds none; the canonical form
relabels by each greater order it finds until it finds none.  Each
parent first rejects the extensions that already lose on the identity
labelling, which is most of them, before any search runs.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Iterable, Iterator, TextIO

from .graphs import Graph, Graph6Error, graph6_decode, graph6_encode

logger = logging.getLogger("fanfree")

ENUMERATION_MAX_N = 11


@dataclass(frozen=True)
class CanonicalForm:
    """Canonical graph6 text: equal forms iff isomorphic graphs."""

    text: str


@dataclass(frozen=True)
class EnumerationTask:
    """Parameters for one exhaustive generation run.

    ``shard`` splits the run by round-robin over the parents on ``n-1``
    vertices; the union of all shards equals the unsharded run.
    """

    n: int
    connected_only: bool = False
    shard: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.n, int):
            raise ValueError(f"enumeration order must be an integer, got {self.n!r}")
        if not 1 <= self.n <= ENUMERATION_MAX_N:
            raise ValueError(
                f"enumeration order must be in 1..{ENUMERATION_MAX_N}, got {self.n}")
        if self.shard is not None:
            index, count = self.shard
            if count < 1 or not 0 <= index < count:
                raise ValueError(f"invalid shard {self.shard}")


# -- vertex-order search ----------------------------------------------
#
# Group value of vertex order (v_0, ..., v_{j-1}) at level j: the j bits
# of adjacency between the level-j candidate and the placed vertices,
# most significant bit first.  A labelling is lexicographically greater
# than the identity iff some placement makes a group value exceed the
# identity's group value at the first differing level.


def _twins(adj, n: int) -> list[int]:
    """Per vertex, the mask of vertices whose transposition with it is an
    automorphism: non-adjacent vertices with equal open neighbourhoods, or
    adjacent ones with equal closed neighbourhoods.  Each relation is an
    equivalence and no vertex has twins of both kinds, so the mask is the
    union of the vertex's two classes."""
    open_nb: dict[int, int] = {}
    closed_nb: dict[int, int] = {}
    for v in range(n):
        open_nb[adj[v]] = open_nb.get(adj[v], 0) | 1 << v
        closed = adj[v] | 1 << v
        closed_nb[closed] = closed_nb.get(closed, 0) | 1 << v
    return [open_nb[adj[v]] | closed_nb[adj[v] | 1 << v] for v in range(n)]


def _identity_groups(adj, n: int) -> list[int]:
    """Group values of the identity labelling, level by level."""
    groups = [0] * n
    for j in range(1, n):
        val = 0
        for i in range(j):
            val = (val << 1) | (adj[j] >> i & 1)
        groups[j] = val
    return groups


def _greater_order(adj, n: int, t: list[int]) -> list[int] | None:
    """A vertex order whose code beats the identity's, or None when the
    identity labelling of ``adj`` is canonical.

    ``t`` holds the identity's group values.  The search places vertices
    level by level; the candidates for the next level are the unplaced
    vertices whose group value equals the identity's, kept as a bitmask,
    and any unplaced vertex whose group value exceeds it proves a greater
    relabelling: the placed vertices, that vertex, then the rest in
    ascending order.  Candidates are taken lowest first, one per twin
    class.
    """
    if n <= 1:
        return None
    twins = _twins(adj, n)
    full = (1 << n) - 1
    chosen = [0] * n
    placed_adj = [0] * n  # adjacency of the vertex placed at each position
    cand = [0] * n
    cand[0] = full
    placed = 0
    level = 0
    while True:
        c = cand[level]
        if not c:
            level -= 1
            if level < 0:
                return None
            placed &= ~(1 << chosen[level])
            continue
        u = (c & -c).bit_length() - 1
        cand[level] = c & ~twins[u]
        chosen[level] = u
        placed_adj[level] = adj[u]
        placed |= 1 << u
        level += 1
        # bit level-1-i of t[level] is the identity's adjacency to the
        # vertex placed at position i
        eq = full & ~placed
        bit = 1 << level
        tl = t[level]
        for a in placed_adj[:level]:
            bit >>= 1
            if tl & bit:
                eq &= a
            elif eq & a:
                w = (eq & a & -(eq & a)).bit_length() - 1
                placed |= 1 << w
                return chosen[:level] + [w] + [
                    v for v in range(n) if not placed >> v & 1]
        if level == n - 1:
            # the last vertex is forced: a complete equal relabelling,
            # which is an automorphism
            level -= 1
            placed &= ~(1 << u)
        else:
            cand[level] = eq


def _children(rows: list[int], t: list[int]) -> Iterator[tuple[list[int], list[int]]]:
    """Canonical one-vertex extensions of a canonical parent, with their
    identity groups, in ascending order of the new vertex's group value.

    The new vertex m has group value g, its neighbour set bit-reversed.
    The full search walks the identity labelling first, where the top
    ``nl`` bits of g exceeding ``t[nl]`` at some level ``nl`` prove a
    greater relabelling.  That is checked without building the child and
    skips every g sharing those top bits; only the rest get the search.
    """
    m = len(rows)
    top = 1 << m
    g = 0
    while g < top:
        for nl in range(1, m):
            shift = m - nl
            if g >> shift > t[nl]:
                g = ((g >> shift) + 1) << shift
                break
        else:
            s = _reverse_bits(g, m)
            child = [rows[i] | ((s >> i & 1) << m) for i in range(m)]
            child.append(s)
            child_t = t + [g]
            if _greater_order(child, m + 1, child_t) is None:
                yield child, child_t
            g += 1


def _reverse_bits(s: int, m: int) -> int:
    out = 0
    for i in range(m):
        out = (out << 1) | (s >> i & 1)
    return out


# -- canonical form ----------------------------------------------------


def _relabel(g: Graph, order: list[int]) -> Graph:
    pos = {old: new for new, old in enumerate(order)}
    rows = [0] * g.n
    for new, old in enumerate(order):
        for u_old in range(g.n):
            if g.adj[old] >> u_old & 1:
                rows[new] |= 1 << pos[u_old]
    return Graph._from_trusted(g.n, tuple(rows))


def canonical_label(g: Graph) -> Graph:
    """Relabelled copy in canonical vertex order.

    Each step relabels by an order whose code is strictly greater, so the
    climb ends, and it ends at the unique labelling with the greatest code.
    """
    while True:
        order = _greater_order(g.adj, g.n, _identity_groups(g.adj, g.n))
        if order is None:
            return g
        g = _relabel(g, order)


def canonical_form(g: Graph) -> CanonicalForm:
    """Canonical graph6 text; isomorphic inputs map to identical output."""
    return CanonicalForm(graph6_encode(canonical_label(g)))


def are_isomorphic(g: Graph, h: Graph) -> bool:
    return g.n == h.n and canonical_form(g) == canonical_form(h)


# -- exhaustive generation ---------------------------------------------


def enumerate_graphs(task: EnumerationTask) -> Iterator[Graph]:
    """One canonically labelled representative per isomorphism class.

    Emission order is deterministic: depth-first over parents, children
    in ascending canonical-code order within each parent.  With a shard
    plan, parents on ``n-1`` vertices are distributed round-robin.
    """
    n = task.n
    if n == 1:
        if task.shard is None or task.shard[0] == 0:
            yield Graph._from_trusted(1, (0,))  # one vertex is connected
        return

    shard = task.shard
    parent_counter = 0

    def walk(rows: list[int], t: list[int]) -> Iterator[list[int]]:
        nonlocal parent_counter
        m = len(rows)
        if m == n:
            yield rows
            return
        if m == n - 1 and shard is not None:
            idx = parent_counter
            parent_counter += 1
            if idx % shard[1] != shard[0]:
                return
        for child, child_t in _children(rows, t):
            yield from walk(child, child_t)

    for rows in walk([0], [0]):
        g = Graph._from_trusted(n, tuple(rows))
        if not task.connected_only or g.is_connected():
            yield g


# -- graph6 streaming --------------------------------------------------


def stream_graph6(lines: Iterable[str], *, fail_fast: bool = True) -> Iterator[Graph]:
    """Decode graph6 lines into graphs; blank lines are skipped.

    Malformed lines raise ``Graph6Error`` tagged with the line number, or
    are logged and skipped when ``fail_fast`` is off.
    """
    for lineno, line in enumerate(lines, start=1):
        text = line.strip()
        if not text:
            continue
        try:
            yield graph6_decode(text)
        except Graph6Error as exc:
            if fail_fast:
                raise Graph6Error(f"line {lineno}: {exc}") from exc
            logger.warning("skipping malformed graph6 line %d: %s", lineno, exc)


def write_graph6(sink: TextIO, graphs: Iterable[Graph]) -> int:
    """Write one graph6 line per graph; returns the number written."""
    count = 0
    for g in graphs:
        sink.write(graph6_encode(g))
        sink.write("\n")
        count += 1
    return count

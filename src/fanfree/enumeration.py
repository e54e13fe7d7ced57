"""Isomorph-free exhaustive graph generation, canonical forms, graph6 streaming.

Generation is orderly: a labelling is *canonical* when its column-major
upper-triangle bit code (x(0,1), x(0,2), x(1,2), x(0,3), ...) is
lexicographically maximal over all relabellings.  Deleting the last
vertex of a canonical code leaves a canonical code, so extending each
canonical representative on n-1 vertices by one new last vertex over all
neighbour subsets, and keeping exactly the extensions whose identity
labelling is canonical, enumerates every isomorphism class once with no
global dedup table.  The parent of a canonical class is that class minus
its last vertex, so a walk restricted to a hereditary property (one
closed under vertex deletion) may drop every child that lacks it
together with all its descendants: the PRUNE hook of orderly generation
(McKay, "Isomorph-free exhaustive generation", J. Algorithms 26, 1998).
The hook runs on each child before its canonicity test, so only children
with the property are searched, and every leaf has it.

One search engine serves the canonical form and every canonicity test:
a depth-first search for a lexicographically greater relabelling over
candidate bitmasks, pruned by interchangeable-vertex (twin) classes,
that can start from a given equal prefix and record the equal prefixes
it reaches.  The canonical form relabels by each greater order it finds
until it finds none.  A child's canonicity test starts from its
parent's search: the parent is canonical, so along a prefix of parent
vertices only the new vertex can beat or tie the identity.  A parent
records the equal prefixes of its own search once per pattern of twin
classes that its children split, each child compares its new vertex
along all of them with a few integer operations, and the engine
searches on only from the prefixes where the new vertex ties.  Before
that, each parent rejects the extensions that already lose on the
identity labelling, which is most of them, and those whose new vertex
is adjacent to a parent vertex but not to a lower twin of it, since
swapping the two twins gives a greater code (Read's orderly scheme,
"Every one a winner", Ann. Discrete Math. 2, 1978).  The walk carries
a graph and its twin masks, nothing else: a child's masks follow from
its parent's, and the hook, the tests and the output share one graph.

``count_classes`` counts the classes of an order without building them,
so a pruned walk can still report how many classes exist.
"""

from __future__ import annotations

import itertools
import logging
import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence, TextIO

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
    return [_reverse_bits(adj[j], j) for j in range(n)]


def _greater_order(adj, n: int, twins: list[int], prefix: Sequence[int] = (),
                   record: list | None = None) -> list[int] | None:
    """A vertex order starting with ``prefix`` whose code beats the
    identity's, or None when there is none.

    ``twins[v]`` holds v and vertices whose transposition with v is an
    automorphism: the ``_twins`` masks or a refinement of them.  Bit i of
    ``adj[j]`` is the identity's adjacency at level j to position i.  ``prefix``, shorter than n, must
    be equal: every vertex in it has the identity's group value at its
    level.  From the empty prefix, None means the identity labelling is
    canonical.  The search places vertices level by level; the
    candidates for the next level are the unplaced vertices whose group
    value equals the identity's, kept as a bitmask, and any unplaced
    vertex whose group value exceeds it proves a greater relabelling: the
    placed vertices, that vertex, then the rest in ascending order.
    Candidates are taken lowest first, one per twin class.  ``record``,
    when given, receives every equal prefix reached, as bytes, in the
    order the search reaches them, and after each prefix of length n-1
    its complete order when that is equal too.
    """
    full = (1 << n) - 1
    base = level = len(prefix)
    chosen = list(prefix) + [0] * (n - base)
    placed_adj = [adj[v] for v in chosen]  # adjacency of the vertex at each position
    placed = 0
    for v in prefix:
        placed |= 1 << v
    cand = [0] * n
    while True:
        eq = full & ~placed
        row = adj[level]
        for a in placed_adj[:level]:
            if row & 1:
                eq &= a
            elif eq & a:
                w = (eq & a & -(eq & a)).bit_length() - 1
                placed |= 1 << w
                return chosen[:level] + [w] + [
                    v for v in range(n) if not placed >> v & 1]
            row >>= 1
        if record is not None:
            record.append(bytes(chosen[:level]))
            if level == n - 1 and eq:
                record.append(record[-1] + bytes((eq.bit_length() - 1,)))
        # the last vertex is forced: an equal one completes an automorphism
        cand[level] = eq if level < n - 1 else 0
        while not cand[level]:
            if level == base:
                return None
            level -= 1
            placed &= ~(1 << chosen[level])
        c = cand[level]
        u = (c & -c).bit_length() - 1
        cand[level] = c & ~twins[u]
        chosen[level] = u
        placed_adj[level] = adj[u]
        placed |= 1 << u
        level += 1


def _child_twins(rows: tuple[int, ...], twins: list[int], s: int) -> list[int]:
    """``_twins`` of the parent ``rows`` extended by a vertex m adjacent to ``s``.

    Two parent vertices stay twins iff both lie on the same side of s.
    The new vertex is an open twin of each v outside s with N(v) = s and
    a closed twin of each v in s with N[v] = s + m; it has no other.
    """
    m = len(rows)
    new = 1 << m
    out = []
    for v, (row, tw) in enumerate(zip(rows, twins)):
        inside = s >> v & 1
        tw &= s if inside else ~s
        if row | inside << v == s:
            tw |= 1 << m
            new |= 1 << v
        out.append(tw)
    out.append(new)
    return out


class _PrefixTree(NamedTuple):
    """The equal prefixes of a canonical parent's search, packed one field
    of m+1 bits per prefix: prefix k's field starts at bit k(m+1), and
    position i is bit m-1-i of a field, so fields compare as group values.
    ``at[v]`` marks v at its position in every prefix that holds it, and
    ``ident`` holds the identity's group value at each prefix's level.
    ``complete`` has bit 0 of each field of full length, whose level is
    the new vertex's own, and ``guards`` bit m of every field."""

    prefixes: list[bytes]
    at: list[int]
    ident: int
    complete: int
    guards: int


def _prefix_tree(rows: tuple[int, ...], twins: list[int]) -> _PrefixTree:
    """Every equal prefix that the search of the canonical parent ``rows``
    reaches under the twin masks ``twins``, the complete orders included.

    The search reaches them depth first, so the prefixes that extend a
    prefix follow it in one block, and each prefix marks its last vertex
    in all of them at once.
    """
    m = len(rows)
    width = m + 1
    prefixes: list[bytes] = []
    _greater_order(rows, m, twins, record=prefixes)
    ones = ((1 << len(prefixes) * width) - 1) // ((1 << width) - 1)
    groups = [t << m - level for level, t in enumerate(_identity_groups(rows, m))]
    at = [0] * m
    ident = complete = 0
    open_blocks: list[tuple[int, int, int]] = []  # (level, first bit, last vertex)
    # the empty prefix appended last closes every block still open
    for k, prefix in enumerate(prefixes + [b""]):
        base = k * width
        level = len(prefix)
        while open_blocks and open_blocks[-1][0] >= level:
            closed, start, v = open_blocks.pop()
            at[v] |= (ones & (1 << base) - (1 << start)) << m - closed
        if level:
            open_blocks.append((level, base, prefix[-1]))
        if level == m:
            complete |= 1 << base
        else:
            ident |= groups[level] << base
    return _PrefixTree(prefixes, at, ident, complete, ones << m)


def _canonical_child(rows: tuple[int, ...], trees: dict, child: Graph,
                     child_twins: list[int]) -> bool:
    """Whether the identity labelling of ``child``, the canonical parent
    ``rows`` plus a last vertex m, is canonical.

    On a prefix of parent vertices no parent vertex beats the identity,
    since the parent is canonical, so the child's search over such
    prefixes is the parent's search under the child's twin masks, and
    only m can win or tie there.  Its group value along a prefix is the
    bits of its neighbour set s at the prefix's vertices.  ``trees``
    caches one ``_PrefixTree`` per twin pattern, and m is compared along
    all of its prefixes at once.  A win rejects the child; from each tie
    the search goes on with m placed next, unless an unplaced twin of m
    stands in for it.  The empty prefix is a tie, so this includes the
    search that places m first.
    """
    m = len(rows)
    parent = (1 << m) - 1
    pattern = tuple(tw & parent for tw in child_twins[:m])
    tree = trees.get(pattern)
    if tree is None:
        tree = trees[pattern] = _prefix_tree(rows, list(pattern))
    s = child.adj[m]
    mine = 0
    for v in range(m):
        if s >> v & 1:
            mine |= tree.at[v]
    ident = tree.ident | tree.complete * _reverse_bits(s, m)
    guards = tree.guards
    if ((ident | guards) - mine) & guards != guards:
        return False
    # m ties where it does not lose; on a complete prefix that is an automorphism
    ties = ((mine | guards) - ident) & guards & ~(tree.complete << m)
    stand_ins = child_twins[m] & parent
    while ties:
        low = ties & -ties
        ties ^= low
        prefix = tree.prefixes[(low.bit_length() - 1) // (m + 1)]
        if stand_ins and stand_ins & ~sum(1 << v for v in prefix):
            continue
        if _greater_order(child.adj, m + 1, child_twins, [*prefix, m]) is not None:
            return False
    return True


def _children(parent: Graph, twins: list[int],
              keep: Callable[[Graph], bool] | None = None
              ) -> Iterator[tuple[Graph, list[int]]]:
    """Canonical one-vertex extensions of a canonical parent that pass
    ``keep``, with their twin masks, in ascending order of the new
    vertex's group value.

    The new vertex m has group value g, its neighbour set s bit-reversed.
    Each g meets the cheap tests first and the canonicity test last:

    - the child's search walks the identity labelling first, where the
      top ``nl`` bits of g exceeding the parent's group value at some
      level ``nl`` prove a greater relabelling; that skips every g
      sharing them;
    - swapping parent twins u < w fixes the parent's code and, when s
      holds w but not u, raises g, so s must hold every lower twin of
      each of its vertices;
    - ``keep`` then sees the child, whose parent passed it;
    - only the rest get ``_canonical_child``, on the graph ``keep`` saw,
      with the prefix trees of this parent shared among them.
    """
    m, rows = parent.n, parent.adj
    t = _identity_groups(rows, m)
    lower = [tw & ((1 << v) - 1) for v, tw in enumerate(twins)]
    trees: dict = {}
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
            need = 0
            x = s
            while x:
                low = x & -x
                need |= lower[low.bit_length() - 1]
                x ^= low
            if not need & ~s:
                child = Graph._from_trusted(m + 1, tuple(
                    [rows[i] | ((s >> i & 1) << m) for i in range(m)] + [s]))
                if keep is None or keep(child):
                    child_twins = _child_twins(rows, twins, s)
                    if _canonical_child(rows, trees, child, child_twins):
                        yield child, child_twins
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
        order = _greater_order(g.adj, g.n, _twins(g.adj, g.n))
        if order is None:
            return g
        g = _relabel(g, order)


def canonical_form(g: Graph) -> CanonicalForm:
    """Canonical graph6 text; isomorphic inputs map to identical output."""
    return CanonicalForm(graph6_encode(canonical_label(g)))


def are_isomorphic(g: Graph, h: Graph) -> bool:
    return g.n == h.n and canonical_form(g) == canonical_form(h)


# -- exhaustive generation ---------------------------------------------


def enumerate_graphs(task: EnumerationTask, *,
                     hereditary: Callable[[Graph], bool] | None = None) -> Iterator[Graph]:
    """One canonically labelled representative per isomorphism class.

    Emission order is deterministic: depth-first over parents, children
    in ascending canonical-code order within each parent.  With a shard
    plan, the parents on ``max(n-1, 1)`` vertices are dealt out round-robin.

    The walk carries a graph and its twin masks from the one-vertex
    graph.  ``hereditary``, when given, is a property closed under
    vertex deletion.  It is called on the one-vertex graph and then on
    every child, before the child's canonicity test, at every order up
    to ``n``; it may assume that the child minus its last vertex has the
    property.  A child that lacks it is neither extended nor yielded, so
    every graph yielded has the property and is the graph it was called on.
    """
    n = task.n
    shard = task.shard
    root = Graph._from_trusted(1, (0,))
    if hereditary is not None and not hereditary(root):
        return
    parent_counter = 0

    def walk(g: Graph, twins: list[int]) -> Iterator[Graph]:
        nonlocal parent_counter
        if g.n == max(n - 1, 1) and shard is not None:
            idx = parent_counter
            parent_counter += 1
            if idx % shard[1] != shard[0]:
                return
        if g.n == n:
            yield g
            return
        for child, child_twins in _children(g, twins, hereditary):
            yield from walk(child, child_twins)

    for g in walk(root, [1]):
        if not task.connected_only or g.is_connected():
            yield g


def count_classes(n: int) -> int:
    """Number of isomorphism classes of graphs of order ``n``.

    Burnside's lemma over S_n acting on vertex pairs (Harary and Palmer,
    Graphical Enumeration, 1973): the classes are the average over
    permutations of 2 to the number of pair cycles, and that number
    depends only on the cycle type.  A cycle of length a contributes a//2
    pair cycles, and two cycles of lengths a and b contribute gcd(a, b).
    """
    weighted = 0
    for parts in _partitions(n, n):
        pair_cycles = sum(a // 2 for a in parts) + sum(
            math.gcd(a, b) for a, b in itertools.combinations(parts, 2))
        centraliser = 1
        for length, mult in Counter(parts).items():
            centraliser *= length ** mult * math.factorial(mult)
        weighted += (math.factorial(n) // centraliser) << pair_cycles
    return weighted // math.factorial(n)


def _partitions(n: int, largest: int) -> Iterator[tuple[int, ...]]:
    """Partitions of ``n`` into parts of at most ``largest``, largest first."""
    if n == 0:
        yield ()
        return
    for part in range(min(n, largest), 0, -1):
        for rest in _partitions(n - part, part):
            yield (part,) + rest


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

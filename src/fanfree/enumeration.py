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
The hook runs on each child that its parent's prefix tree does not
reject, before its canonicity search, so only children with the
property are searched, and every leaf has it.

One search engine serves the canonical form and every canonicity test:
a depth-first search for a lexicographically greater relabelling over
candidate bitmasks, pruned by interchangeable-vertex (twin) classes,
that runs from each of a sequence of equal start prefixes in turn and
can record the equal prefixes it reaches.  The canonical form relabels
by each greater order it finds from the empty start until it finds
none.  A child's canonicity test starts from its parent's search: the
parent is canonical, so along a prefix of parent vertices only the new
vertex can beat or tie the identity.  A child whose new vertex is
adjacent to a parent vertex but not to a lower twin of it is never
canonical, since swapping the two twins gives a greater code (Read's
orderly scheme, "Every one a winner", Ann. Discrete Math. 2, 1978).
Under that twin-order rule one search of the parent, under its own
twin masks, decides every child: the parent records its equal prefixes
once, in one prefix tree, and the new vertex is compared along all of
them at once with a few integer operations.  Each parent builds its
tree first and then decides the new vertex's neighbours one parent
vertex at a time, depth first; a branch that breaks the rule, or on
which the new vertex beats the identity along a prefix, is cut with
every child below it.  Only a child whose new vertex never beats the
identity gets its twin masks and one engine pass, started from every
prefix where the new vertex ties.  Every tree packs its prefixes in
fields of one width, so a vertex's mark and each level's identity
value sit at the same bits in a parent's tree and in its child's.  A
child that splits no parent twin class, whose search reaches the
parent's prefixes again, keeps its parent's packed fields as they are
and appends those of the prefixes its engine pass reaches; only the
root and the children that split a class search for theirs, and a
child's tree formats only its own level.  The walk is one loop over a
stack of frames, each a parent's tree and its children's iterator, and
builds a tree only for a graph it extends: a child's masks follow from
its parent's, and the hook, the tests and the output share one graph.

``count_classes`` counts the classes of an order without building them,
so a pruned walk can still report how many classes exist.
"""

from __future__ import annotations

import itertools
import logging
import math
import string
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

    ``shard`` splits the run by round-robin over the classes on
    ``max(n-2, 1)`` vertices, so each shard builds only their subtrees;
    the union of all shards equals the unsharded run.
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


def _greater_order(adj, n: int, twins: list[int], starts: Iterable[Sequence[int]],
                   record: list | None = None) -> list[int] | None:
    """A vertex order starting with one of ``starts`` whose code beats the
    identity's, or None when there is none.

    ``twins[v]`` holds v and vertices whose transposition with v is an
    automorphism: the ``_twins`` masks or a refinement of them.  Bit i of
    ``adj[j]`` is the identity's adjacency at level j to position i.
    Each start prefix, shorter than n, must be equal: every vertex in it
    has the identity's group value at its level.  The starts are
    searched in turn, each from a fresh state in the same buffers, and
    the first greater order found is returned; from the single empty
    start, None means the identity labelling is canonical.  The search
    places vertices level by level; the candidates for the next level
    are the unplaced vertices whose group value equals the identity's,
    kept as a bitmask, and any unplaced vertex whose group value exceeds
    it proves a greater relabelling: the placed vertices, that vertex,
    then the rest in ascending order.  Candidates are taken lowest
    first, one per twin class.  ``record``, when given, receives every
    equal prefix reached, as bytes, in the order the search reaches
    them, and after each prefix of length n-1 its complete order when
    that is equal too.
    """
    full = (1 << n) - 1
    chosen = [0] * n
    placed_adj = [0] * n  # adjacency of the vertex at each position
    cand = [0] * n
    for prefix in starts:
        base = level = len(prefix)
        placed = 0
        for j, v in enumerate(prefix):
            chosen[j] = v
            placed_adj[j] = adj[v]
            placed |= 1 << v
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
            while not cand[level] and level > base:
                level -= 1
                placed &= ~(1 << chosen[level])
            c = cand[level]
            if not c:
                break
            u = (c & -c).bit_length() - 1
            cand[level] = c & ~twins[u]
            chosen[level] = u
            placed_adj[level] = adj[u]
            placed |= 1 << u
            level += 1
    return None


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


# One field width for every tree: a guard bit above room for a prefix of
# any enumeration order.
_WIDTH = ENUMERATION_MAX_N + 1


class _PrefixTree(NamedTuple):
    """The equal prefixes of a canonical parent's search on m vertices,
    packed one field of ``_WIDTH`` bits per prefix whatever m is: prefix
    k's field starts at bit k*_WIDTH, the field's top bit is its guard,
    and position i is the i-th bit below the guard.  So fields compare as
    group values, and a bit means the same in a parent's tree and in its
    child's.  ``at[v]`` marks v at its position in every prefix that
    holds it; ``ident`` holds the identity's group value at each prefix's
    level.  A prefix of full length m has the new vertex's own level:
    ``complete`` has the bit m below its guard, so ``complete * g``
    places the new vertex's group value g there.  ``guards`` has every
    guard, and ``levels[j]`` the identity's field at level j as binary
    text, which a child's tree reuses.  A searched tree's prefixes come
    in byte order; a merged tree's come in its parent's order, then its
    own."""

    prefixes: list[bytes]
    at: list[int]
    ident: int
    complete: int
    guards: int
    levels: list[str]


# translation tables: byte b to "1", every other byte to "0"
_ONE = [b"0" * b + b"1" + b"0" * (255 - b) for b in range(256)]


def _field(group: int, level: int) -> str:
    """The field of ``group``, the group value at ``level``, as binary text."""
    return format(group << _WIDTH - 1 - level, f"0{_WIDTH}b")


def _pack(prefixes: list[bytes], levels: list[str]) -> _PrefixTree:
    """The tree of the equal ``prefixes``, the first in the lowest field,
    of a canonical graph on m vertices whose identity fields are
    ``levels``, m of them.  Each field is written as ``_WIDTH`` bytes,
    most significant first: a guard byte 0xFE, then the prefix padded
    with 0xFF, so one byte translation and one base-2 parse give the
    guards and each vertex's marks.
    """
    m = len(levels)
    text = b"\xfe".join([b""] + [p.ljust(_WIDTH - 1, b"\xff") for p in reversed(prefixes)])
    fields = levels + [_field(1, m)]
    marks = int("".join([fields[len(p)] for p in reversed(prefixes)]), 2)
    guards = int(text.translate(_ONE[0xFE]), 2)
    complete = marks & guards >> m
    return _PrefixTree(prefixes, [int(text.translate(_ONE[v]), 2) for v in range(m)],
                       marks ^ complete, complete, guards, levels)


def _prefix_tree(rows: tuple[int, ...], twins: list[int],
                 parent: _PrefixTree | None = None) -> _PrefixTree:
    """Every equal prefix that the search of the canonical graph ``rows``
    reaches under the twin masks ``twins``, the complete orders included.
    A child's tree takes its identity fields from its ``parent``'s, so
    only its last level is formatted.

    The search takes candidates lowest first and records each prefix
    when it reaches it, so the prefixes come in byte order: each before
    its extensions, and siblings by their last vertex.
    """
    prefixes: list[bytes] = []
    _greater_order(rows, len(rows), twins, [()], record=prefixes)
    levels = [] if parent is None else parent.levels
    return _pack(prefixes, levels + [_field(_reverse_bits(rows[j], j), j)
                                     for j in range(len(levels), len(rows))])


def _merged_tree(rows: tuple[int, ...], parent: _PrefixTree, own: list[bytes]) -> _PrefixTree:
    """The ``_prefix_tree`` of an accepted child ``rows``, up to the order
    of its prefixes, when its new vertex m, the last candidate, splits no
    twin class of its parent: along parent vertices its search reaches
    the parent's prefixes, and ``own``, from ``_canonical_child``, holds
    those with m.

    The parent's fields stay as they are and ``own``'s are packed after
    them.  A parent's complete prefix has level m in the child, where the
    identity's group value is m's own, g, which ``parent.complete`` times
    g places; the child's complete prefixes are all in ``own``.  The
    prefixes come in the parent's order, then ``own``'s.
    """
    m = len(parent.at)
    g = _reverse_bits(rows[m], m)
    own_tree = _pack(own, parent.levels + [_field(g, m)])
    shift = len(parent.prefixes) * _WIDTH
    return _PrefixTree(
        parent.prefixes + own,
        [a | b << shift for a, b in zip(parent.at + [0], own_tree.at)],
        parent.ident | parent.complete * g | own_tree.ident << shift,
        own_tree.complete << shift, parent.guards | own_tree.guards << shift,
        own_tree.levels)


def _canonical_child(rows: tuple[int, ...], twins: list[int], tree: _PrefixTree,
                     child: Graph, g: int, mine: int, grow: bool
                     ) -> tuple[list[int], list[bytes] | None] | None:
    """The twin masks of ``child``, the canonical parent ``rows`` plus a
    last vertex m of group value ``g``, when its identity labelling is
    canonical, else None.  With ``grow``, the masks come with the
    prefixes holding m that the child's own search reaches, for
    ``_merged_tree``, when m's neighbour set splits no twin class of
    the parent; else with None, and the child's tree needs a search.

    ``tree`` is the parent's ``_prefix_tree`` under its own twin masks
    ``twins``, and m's neighbour set s must obey the twin-order rule: s
    holds every lower parent twin of each of its vertices.  ``mine`` is
    m's group value along every prefix of the tree, the union of
    ``tree.at[v]`` over v in s.  On a prefix of parent vertices no
    parent vertex beats the identity, since the parent is canonical, so
    only m can win or tie there.  The child's own search splits the
    parent's twin classes by s, but one tree serves it:

    - the search places the members of each twin class lowest first, so
      every recorded prefix holds the lowest members of each class;
    - by the rule, s meets each class C in its lowest members, so along
      a recorded prefix m's group value is the greatest over all twin
      images of that prefix;
    - a win on any image is therefore a win on the prefix, and a tie on
      an image is the image of a tie on the prefix under a permutation
      inside the child's own twin classes.

    A win on any prefix rejects the child before its twin masks are
    derived; along a complete prefix, an automorphism of the parent,
    the identity's group value is m's own, ``g``.  Each tie, with m
    placed next, is a start of one ``_greater_order`` pass over the
    child, unless an unplaced twin of m stands in for m there.  The
    empty prefix is a tie, so this includes the search that places m
    first.  The child's search reaches exactly the prefixes holding m
    that this pass records, and a tie on a complete prefix p, where it
    reaches p plus m.
    """
    m = len(rows)
    ident = tree.ident | tree.complete * g
    guards = tree.guards
    if ((ident | guards) - mine) & guards != guards:
        return None
    child_twins = _child_twins(rows, twins, child.adj[m])
    ties = ((mine | guards) - ident) & guards  # m ties where it does not lose
    for w in range(m):  # keep the fields that hold each stand-in for m
        if child_twins[m] >> w & 1:
            ties &= (tree.at[w] | guards) - (guards >> _WIDTH - 1)
    last = bytes((m,))
    starts, own = [], []  # own: the complete orders, which start no search
    while ties:
        low = ties & -ties
        ties ^= low
        start = tree.prefixes[(low.bit_length() - 1) // _WIDTH] + last
        (own if len(start) > m else starts).append(start)
    if not grow or [tw & (1 << m) - 1 for tw in child_twins[:m]] != twins:
        own = None
    if _greater_order(child.adj, m + 1, child_twins, starts, own) is not None:
        return None
    return child_twins, own


def _children(parent: Graph, twins: list[int], tree: _PrefixTree,
              keep: Callable[[Graph], bool] | None = None, grow: bool = False
              ) -> Iterator[tuple[Graph, list[int], list[bytes] | None]]:
    """Canonical one-vertex extensions of a canonical parent that pass
    ``keep``, with their twin masks and the prefixes ``_merged_tree``
    needs, or None without ``grow`` or for a child that splits a parent
    twin class, in ascending order of the new vertex's group value.

    The new vertex m has neighbour set s and group value g, s
    bit-reversed, so vertex 0 decides g's top bit.  One depth-first pass
    over the parent's vertices decides s a bit at a time, the 0-branch
    first, so the leaves come in ascending g.  Along a branch it builds
    g and ``mine``, m's group value along every prefix of ``tree``, the
    parent's tree under its own twin masks.  The 1-branch of a vertex v
    is taken only when:

    - s already holds v's lower twins: swapping parent twins u < v fixes
      the parent's code and, when s holds v but not u, raises g (the
      twin-order rule);
    - m beats the identity along no prefix of the tree short of m's own
      level, whose identity group value is g itself, known only at a
      leaf.

    Adding a neighbour only raises m's group value along a prefix, so
    each cut drops a whole subtree of children that are not canonical.
    At a leaf, ``keep`` sees the child, whose parent passed it, and
    ``_canonical_child`` tests the graph ``keep`` saw with its g and
    ``mine``.
    """
    m, rows = parent.n, parent.adj
    at = tree.at
    guards = tree.guards
    # the complete fields are at m's own level, compared with g at a leaf
    bound = tree.ident | guards | tree.complete * ((1 << m) - 1)
    lower = [tw & ((1 << v) - 1) for v, tw in enumerate(twins)]
    # (next vertex, s, g over the vertices before it, mine)
    stack = [(0, 0, 0, 0)]
    while stack:
        v, s, g, mine = stack.pop()
        # down the 0-branches to a leaf, leaving each 1-branch to come back to
        for u in range(v, m):
            g <<= 1
            with_u = mine | at[u]
            if not lower[u] & ~s and (bound - with_u) & guards == guards:
                stack.append((u + 1, s | 1 << u, g | 1, with_u))
        child = Graph._from_trusted(m + 1, tuple(
            [rows[i] | ((s >> i & 1) << m) for i in range(m)] + [s]))
        if keep is None or keep(child):
            verdict = _canonical_child(rows, twins, tree, child, g, mine, grow)
            if verdict is not None:
                yield child, *verdict


def _reverse_bits(s: int, m: int) -> int:
    """The low ``m`` bits of ``s`` in reverse order."""
    return int(format(s & (1 << m) - 1, f"0{m}b")[::-1], 2)


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
        order = _greater_order(g.adj, g.n, _twins(g.adj, g.n), [()])
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
    plan, the classes on ``max(n-2, 1)`` vertices are dealt out
    round-robin, and a shard extends only the classes dealt to it.

    One loop drives the walk over a stack of frames, each a parent's
    prefix tree and its children's iterator, and builds a tree only for
    a graph it extends, so no leaf and no class dealt to another shard
    gets one.  ``hereditary``, when given, is a property closed under
    vertex deletion.  It is called on the one-vertex graph and then on
    every child that the parent's prefix tree does not reject, before
    its engine pass, at every order up to ``n``; it may assume that the
    child minus its last vertex has the property.  A child that lacks it
    is neither extended nor yielded, so every graph yielded has the
    property and is the graph it was called on.
    """
    n = task.n
    shard = task.shard
    root = Graph._from_trusted(1, (0,))
    if hereditary is not None and not hereditary(root):
        return
    deal = itertools.count()
    frames = [(None, iter([(root, [1], None)]))]
    while frames:
        parent, children = frames[-1]
        for g, twins, own in children:
            if shard and g.n == max(n - 2, 1) and next(deal) % shard[1] != shard[0]:
                continue
            if g.n == n:
                if not task.connected_only or g.is_connected():
                    yield g
                continue
            tree = (_prefix_tree(g.adj, twins, parent) if own is None
                    else _merged_tree(g.adj, parent, own))
            frames.append((tree, _children(g, twins, tree, hereditary, g.n + 1 < n)))
            break
        else:
            frames.pop()


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

    Only ASCII whitespace is stripped, so any other character stays in
    the line for the decoder to reject.  Malformed lines raise
    ``Graph6Error`` tagged with the line number, or are logged and
    skipped when ``fail_fast`` is off.
    """
    for lineno, line in enumerate(lines, start=1):
        text = line.strip(string.whitespace)
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

"""Bitset-backed simple graphs, named constructions, and the graph6 codec.

Vertices are contiguous integers ``0..n-1``.  Each adjacency row is a
single Python int used as a bitmask, which keeps neighbourhood
intersections and matching kernels branch-free; the backend is capped at
64 vertices (``MAX_VERTICES``), comfortably above every desk-scale
target in this package.

Graphs are immutable after construction and safe to share between
concurrent workers; every operation here is a pure function.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

MAX_VERTICES = 64


class Graph6Error(ValueError):
    """Raised for malformed graph6 text."""


def mask_of(vertices: Iterable[int]) -> int:
    """Pack an iterable of vertex indices into a bitmask."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices ``0..n-1``.

    ``adj[v]`` is the neighbour set of ``v`` as a bitmask.  Symmetry and
    the no-loop invariant are enforced on construction.
    """

    n: int
    adj: tuple[int, ...]

    def __post_init__(self) -> None:
        if not 1 <= self.n <= MAX_VERTICES:
            raise ValueError(
                f"vertex count must be in 1..{MAX_VERTICES}, got {self.n}")
        if len(self.adj) != self.n:
            raise ValueError("adjacency row count does not match n")
        full = (1 << self.n) - 1
        for v, row in enumerate(self.adj):
            if row & ~full:
                raise ValueError(f"row {v} references vertices beyond n-1")
            if row >> v & 1:
                raise ValueError(f"loop at vertex {v}")
        for v in range(self.n):
            for u in bits(self.adj[v]):
                if not self.adj[u] >> v & 1:
                    raise ValueError(f"asymmetric adjacency between {u} and {v}")

    @classmethod
    def _from_trusted(cls, n: int, adj: tuple[int, ...]) -> "Graph":
        """Build without invariant checks; for internal generators only."""
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "adj", adj)
        return g

    # -- basic queries -------------------------------------------------

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def degree_sequence(self) -> tuple[int, ...]:
        return tuple(sorted((row.bit_count() for row in self.adj), reverse=True))

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def neighbors(self, v: int) -> frozenset[int]:
        return frozenset(bits(self.adj[v]))

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def edges(self) -> tuple[tuple[int, int], ...]:
        """Edges ``(u, v)`` with ``u < v`` in lexicographic order."""
        return tuple((u, v) for u in range(self.n)
                     for v in bits(self.adj[u] >> (u + 1) << (u + 1)))

    def with_edge(self, u: int, v: int) -> "Graph":
        """Return a copy with edge ``uv`` added (idempotent)."""
        if u == v:
            raise ValueError("cannot add a loop")
        rows = list(self.adj)
        rows[u] |= 1 << v
        rows[v] |= 1 << u
        return Graph._from_trusted(self.n, tuple(rows))

    def without_edge(self, u: int, v: int) -> "Graph":
        rows = list(self.adj)
        rows[u] &= ~(1 << v)
        rows[v] &= ~(1 << u)
        return Graph._from_trusted(self.n, tuple(rows))

    def is_connected(self) -> bool:
        seen = 1
        frontier = 1
        while frontier:
            reach = 0
            for v in bits(frontier):
                reach |= self.adj[v]
            frontier = reach & ~seen
            seen |= reach
        return seen == (1 << self.n) - 1


def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph on ``n`` vertices from an edge list."""
    rows = [0] * n
    for u, v in edges:
        if u == v:
            raise ValueError(f"loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) out of range for n={n}")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, tuple(rows))


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """Induced subgraph relabelled to ``0..m-1``.

    Returns the subgraph and the relabelling map: entry ``i`` is the
    original index of new vertex ``i``.  Vertices are taken in increasing
    order.
    """
    keep = sorted(set(vertices))
    if not keep:
        raise ValueError("induced subgraph needs at least one vertex")
    pos = {v: i for i, v in enumerate(keep)}
    rows = [0] * len(keep)
    for i, v in enumerate(keep):
        for u in bits(g.adj[v]):
            j = pos.get(u)
            if j is not None:
                rows[i] |= 1 << j
    return Graph._from_trusted(len(keep), tuple(rows)), tuple(keep)


# -- named constructions ----------------------------------------------


def empty_graph(n: int) -> Graph:
    return Graph(n, (0,) * n)


def complete_graph(n: int) -> Graph:
    return Graph(n, tuple(((1 << n) - 1) ^ (1 << v) for v in range(n)))


def path_graph(n: int) -> Graph:
    return from_edges(n, ((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_bipartite(a: int, b: int) -> Graph:
    if a < 1 or b < 1:
        raise ValueError("both sides must be nonempty")
    return join(empty_graph(a), empty_graph(b))


def circulant_graph(n: int, offsets: Iterable[int]) -> Graph:
    """Circulant graph: ``i ~ j`` iff ``(i - j) mod n`` is in +-offsets."""
    offs = sorted({d % n for d in offsets} - {0})
    edges = [(i, (i + d) % n) for d in offs for i in range(n)]
    return from_edges(n, edges)


def disjoint_union(g: Graph, h: Graph) -> Graph:
    return Graph(g.n + h.n, g.adj + tuple(row << g.n for row in h.adj))


def join(g: Graph, h: Graph) -> Graph:
    """Disjoint union plus every edge between the two parts."""
    hmask = ((1 << h.n) - 1) << g.n
    gmask = (1 << g.n) - 1
    return Graph(g.n + h.n, tuple(row | hmask for row in g.adj)
                 + tuple((row << g.n) | gmask for row in h.adj))


def make_split(n: int, k: int) -> Graph:
    """Complete split graph: a k-clique fully joined to n-k isolated vertices.

    Vertices ``0..k-1`` form the clique, ``k..n-1`` the independent set.
    """
    if k < 1:
        raise ValueError("clique size k must be positive")
    if n <= k:
        raise ValueError("complete split graph requires n > k")
    if n > MAX_VERTICES:
        raise ValueError(f"n must be at most {MAX_VERTICES}")
    return join(complete_graph(k), empty_graph(n - k))


def split_parameter(g: Graph) -> int | None:
    """k such that the graph is the complete split graph S(n, k), else None.

    Degrees decide it: when k vertices have degree n-1 and the other n-k
    have degree k, each of the n-k is adjacent to the k full vertices and
    to nothing else.
    """
    n = g.n
    if n < 2:
        return None
    degs = sorted(g.degree(v) for v in range(n))
    full = sum(1 for d in degs if d == n - 1)
    if full == 0:
        return None
    k = n - 1 if full == n else full
    if degs != sorted([k] * (n - k) + [n - 1] * k):
        return None
    return k


def make_fan(k: int) -> Graph:
    """k-fan: k triangles sharing exactly one common vertex.

    Vertex 0 is the centre; the graph has ``2k+1`` vertices and ``3k``
    edges.
    """
    if k < 1:
        raise ValueError("fan parameter k must be positive")
    if 2 * k + 1 > MAX_VERTICES:
        raise ValueError("fan order exceeds the vertex cap")
    blades = empty_graph(2 * k)
    for i in range(k):
        blades = blades.with_edge(2 * i, 2 * i + 1)
    return join(complete_graph(1), blades)


# -- structural queries ------------------------------------------------


def second_neighborhood(g: Graph, v: int) -> frozenset[int]:
    """Vertices at graph distance exactly 2 from ``v``."""
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} out of range")
    nb = g.adj[v]
    reach = 0
    for u in bits(nb):
        reach |= g.adj[u]
    return frozenset(bits(reach & ~nb & ~(1 << v)))


def cut_edges(g: Graph, s: Iterable[int], t: Iterable[int]) -> int:
    """Number of edges with one end in ``s`` and the other in ``t``.

    The two sets must be disjoint.
    """
    smask = mask_of(s)
    tmask = mask_of(t)
    if smask & tmask:
        raise ValueError("the two vertex sets overlap")
    return sum((g.adj[u] & tmask).bit_count() for u in bits(smask))


# -- graph6 codec ------------------------------------------------------
#
# Standard format: header byte n+63 for n <= 62, else '~' plus three
# bytes carrying n in 18 bits; then the upper-triangle bits x(0,1),
# x(0,2), x(1,2), x(0,3), ... packed big-endian into 6-bit chunks, each
# chunk +63, zero-padded.

# the graph6 character of each 6-bit chunk read least significant bit first
_G6_REVERSED = [chr(int(f"{x:06b}"[::-1], 2) + 63) for x in range(64)]


def graph6_encode(g: Graph) -> str:
    """graph6 text of ``g``.

    The upper triangle is packed as one integer with x(i,j) at bit
    j(j-1)/2+i, one shift per column, so bit order is emission order,
    and each 6-bit chunk is emitted through ``_G6_REVERSED``.
    """
    n = g.n
    if n <= 62:
        out = [chr(n + 63)]
    else:
        out = ["~", chr((n >> 12 & 0x3F) + 63), chr((n >> 6 & 0x3F) + 63),
               chr((n & 0x3F) + 63)]
    code = 0
    shift = 0
    for j, row in enumerate(g.adj):
        code |= (row & ((1 << j) - 1)) << shift
        shift += j
    out += [_G6_REVERSED[code >> k & 63] for k in range(0, shift, 6)]
    return "".join(out)


def graph6_decode(text: str) -> Graph:
    data = text.rstrip("\n")
    if not data:
        raise Graph6Error("empty graph6 string")
    vals = []
    for ch in data:
        code = ord(ch)
        if not 63 <= code <= 126:
            raise Graph6Error(f"byte {code} outside the graph6 range 63..126")
        vals.append(code - 63)
    if data[0] == "~":
        if len(vals) < 4:
            raise Graph6Error("truncated extended-order header")
        if data[1] == "~":
            raise Graph6Error("orders above 258047 are not supported")
        n = vals[1] << 12 | vals[2] << 6 | vals[3]
        body = vals[4:]
    else:
        n = vals[0]
        body = vals[1:]
    if not 1 <= n <= MAX_VERTICES:
        raise Graph6Error(f"order {n} outside the supported range 1..{MAX_VERTICES}")
    need_bits = n * (n - 1) // 2
    need_bytes = (need_bits + 5) // 6
    if len(body) < need_bytes:
        raise Graph6Error(f"expected {need_bytes} data bytes, got {len(body)}")
    if len(body) > need_bytes:
        raise Graph6Error("trailing garbage after adjacency data")
    rows = [0] * n
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if body[idx // 6] >> (5 - idx % 6) & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            idx += 1
    # remaining pad bits must be zero
    if need_bytes and body[-1] & ((1 << (need_bytes * 6 - need_bits)) - 1):
        raise Graph6Error("nonzero padding bits")
    return Graph._from_trusted(n, tuple(rows))

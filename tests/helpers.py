"""Shared generators and independent oracles for the test suite.

Oracles here deliberately avoid the package's own algorithms: eigenvalues
come from numpy.linalg, fan containment from a literal subset-embedding
search, and matching numbers from exhaustive edge-subset search, so
agreement is meaningful.  The exceptions are ``reference_spectrum``,
``reference_graph6_encode``, ``reference_pack``, ``reference_vertex_bounds``,
``reference_merris_bound`` and ``reference_power_bound``, earlier versions
of the package's own Jacobi kernel, graph6 encoder, prefix-tree packer,
degree-bound loop and one-graph power bound kept only to check that the
current ones return the very same bits.
"""

from __future__ import annotations

import itertools
import math
import random

import numpy as np

from fanfree.enumeration import ENUMERATION_MAX_N
from fanfree.graphs import Graph, from_edges


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    rows = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return Graph(n, tuple(rows))


def random_connected_graph(rng: random.Random, n: int, extra: float = 0.2) -> Graph:
    """Random spanning tree plus each remaining pair with probability ``extra``."""
    order = list(range(n))
    rng.shuffle(order)
    edges = set()
    for i in range(1, n):
        anchor = rng.choice(order[:i])
        edges.add((min(order[i], anchor), max(order[i], anchor)))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < extra:
                edges.add((i, j))
    return from_edges(n, sorted(edges))


def random_regular_graph(rng: random.Random, n: int) -> Graph:
    """Connected circulant: regular by construction; offset 1 keeps it connected."""
    half = (n - 1) // 2
    others = list(range(2, half + 1))
    rng.shuffle(others)
    offsets = [1] + others[:rng.randint(0, len(others))]
    rows = [0] * n
    for v in range(n):
        for off in offsets:
            rows[v] |= 1 << ((v + off) % n)
            rows[v] |= 1 << ((v - off) % n)
    if n % 2 == 0 and rng.random() < 0.5:
        for v in range(n):
            rows[v] |= 1 << ((v + n // 2) % n)
    return Graph(n, tuple(rows))


def numpy_q1(g: Graph) -> float:
    """Largest signless-Laplacian eigenvalue via numpy, built from scratch."""
    n = g.n
    q = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j and g.adj[i] >> j & 1:
                q[i, j] = 1.0
        q[i, i] = float(g.degree(i))
    return float(np.linalg.eigvalsh(q)[-1])


def reference_vertex_bounds(g: Graph) -> list[float | None]:
    """Per vertex, ``d_v + (sum of neighbour degrees)/d_v``, or None if isolated."""
    deg = [row.bit_count() for row in g.adj]
    out: list[float | None] = []
    for d, row in zip(deg, g.adj):
        total = 0
        while row:
            low = row & -row
            total += deg[low.bit_length() - 1]
            row ^= low
        out.append(d + total / d if d else None)
    return out


def reference_merris_bound(g: Graph) -> tuple[float, int]:
    best = -math.inf
    argmax = -1
    for v, value in enumerate(reference_vertex_bounds(g)):
        if value is None:
            raise ValueError(f"vertex {v} is isolated; bound undefined")
        if value > best:
            best = value
            argmax = v
    return best, argmax


def reference_power_bound(g: Graph, steps: int) -> float:
    """Collatz-Wielandt bound on q1 after ``steps`` float64 power steps
    x <- Qx from the degree vector, over the non-isolated vertices."""
    adj = np.array([[(row >> u) & 1 for u in range(g.n)] for row in g.adj], dtype=np.float64)
    x = adj.sum(axis=1)
    live = x > 0
    if not live.any():
        return 0.0
    q = adj + np.diag(x)
    for _ in range(steps):
        x = q @ x
    return float(np.max((q @ x)[live] / x[live]))


def numpy_spectrum(a: np.ndarray) -> np.ndarray:
    return np.linalg.eigvalsh(a)[::-1]


def _reference_offdiag_norm(a: np.ndarray) -> float:
    sq = a * a
    np.fill_diagonal(sq, 0.0)
    return math.sqrt(float(np.sum(sq)))


def _reference_jacobi(a: np.ndarray, off_target: float, max_sweeps: int):
    n = a.shape[0]
    sweeps = 0
    off = _reference_offdiag_norm(a)
    while off > off_target and sweeps < max_sweeps:
        for p in range(n - 1):
            for q in range(p + 1, n):
                # Scalar rotation in Python floats: an overflowing tau
                # becomes inf silently and gives t = 0 (no rotation).
                apq = float(a[p, q])
                if apq == 0.0:
                    continue
                app = float(a[p, p])
                aqq = float(a[q, q])
                tau = (aqq - app) / (2.0 * apq)
                if tau >= 0.0:
                    t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                # Rotate whole rows p and q (columns too, by symmetry), then
                # set the four entries of the 2x2 pivot block.
                rp = c * a[p] - s * a[q]
                rq = s * a[p] + c * a[q]
                rp[p] = app - t * apq
                rq[q] = aqq + t * apq
                rp[q] = rq[p] = 0.0
                a[p, :] = a[:, p] = rp
                a[q, :] = a[:, q] = rq
        sweeps += 1
        off = _reference_offdiag_norm(a)
    return off, sweeps


def reference_spectrum(entries: np.ndarray, off_factor: float,
                       max_sweeps: int) -> tuple[tuple[float, ...], float, int]:
    """(eigenvalues, residual, sweeps) of the whole-row Jacobi kernel.

    This is ``spectral._jacobi`` as it was before it rotated a two-row
    buffer: each rotation recomputes rows p and q of the matrix with
    separate numpy multiplies and a subtract or add, and writes both rows
    and columns back at once.
    """
    a = np.array(entries, dtype=np.float64)
    off, sweeps = _reference_jacobi(a, off_factor * a.shape[0], max_sweeps)
    eig = tuple(sorted((float(x) for x in np.diag(a)), reverse=True))
    return eig, float(off), int(sweeps)


def reference_graph6_encode(g: Graph) -> str:
    """graph6 text of ``g``, one upper-triangle bit at a time.

    This is ``graphs.graph6_encode`` as it was before it packed whole
    columns: it shifts each bit x(i,j), column by column, into a 6-bit
    chunk and emits the chunk once full, zero-padding the last one.
    """
    n = g.n
    if n <= 62:
        out = [chr(n + 63)]
    else:
        out = ["~", chr((n >> 12 & 0x3F) + 63), chr((n >> 6 & 0x3F) + 63),
               chr((n & 0x3F) + 63)]
    chunk = 0
    nbits = 0
    for j in range(1, n):
        for i in range(j):
            chunk = chunk << 1 | (g.adj[j] >> i & 1)
            nbits += 1
            if nbits == 6:
                out.append(chr(chunk + 63))
                chunk = 0
                nbits = 0
    if nbits:
        out.append(chr((chunk << (6 - nbits)) + 63))
    return "".join(out)


def reference_pack(prefixes: list[bytes], groups: list[int]
                   ) -> tuple[list[int], int, int, int, list[str]]:
    """(at, ident, complete, guards, levels) of a prefix tree, one bit at a time.

    ``groups[level]`` is the identity's group value at each level of a
    graph on m = len(groups) vertices.  Every field is w =
    ENUMERATION_MAX_N + 1 bits wide, whatever m is, and prefix k, in the
    order given, owns the field from bit k*w: the guard at bit w-1,
    position i at bit w-2-i, the identity's group value at the prefix's
    level top-aligned below the guard, or bit w-1-m alone for a prefix
    of full length.  ``levels[j]`` is level j's group value as a field,
    in w binary digits.  This is ``enumeration._pack`` as a per-prefix
    loop, kept only to check that the byte packer, and the merge that
    extends a parent's fields, set the very same bits.
    """
    m = len(groups)
    width = ENUMERATION_MAX_N + 1
    at = [0] * m
    ident = complete = guards = 0
    for k, prefix in enumerate(prefixes):
        base = k * width
        guards |= 1 << base + width - 1
        for i, v in enumerate(prefix):
            at[v] |= 1 << base + width - 2 - i
        level = len(prefix)
        if level == m:
            complete |= 1 << base + width - 1 - m
        else:
            for i in range(level):
                if groups[level] >> level - 1 - i & 1:
                    ident |= 1 << base + width - 2 - i
    levels = []
    for level, group in enumerate(groups):
        digits = ["0"] * width
        for i in range(level):
            if group >> level - 1 - i & 1:
                digits[1 + i] = "1"
        levels.append("".join(digits))
    return at, ident, complete, guards, levels


def brute_matching_number(g: Graph) -> int:
    """Largest set of pairwise disjoint edges, by exhaustive subset search."""
    edges = g.edges()
    best = 0
    for r in range(min(len(edges), g.n // 2), 0, -1):
        if r <= best:
            break
        for combo in itertools.combinations(edges, r):
            used = 0
            ok = True
            for u, v in combo:
                m = 1 << u | 1 << v
                if used & m:
                    ok = False
                    break
                used |= m
            if ok:
                best = r
                break
    return best


def brute_lex_matching(g: Graph, size: int | None = None
                       ) -> tuple[tuple[int, int], ...] | None:
    """Lexicographically smallest sorted tuple of ``size`` disjoint edges
    (default: of a maximum matching), or None if there is none; by
    exhaustive subset search."""
    edges = g.edges()
    sizes = [size] if size is not None else range(g.n // 2, -1, -1)
    for r in sizes:
        # combinations of the sorted edge list come out in lexicographic order
        for combo in itertools.combinations(edges, r):
            covered = [x for e in combo for x in e]
            if len(set(covered)) == 2 * r:
                return combo
    return None


def _has_perfect_pairing(g: Graph, center: int, rest: tuple[int, ...]) -> bool:
    """Can ``rest`` be split into adjacent pairs, all inside N(center)?"""
    if not rest:
        return True
    a = rest[0]
    for i in range(1, len(rest)):
        b = rest[i]
        if g.has_edge(a, b):
            remainder = rest[1:i] + rest[i + 1:]
            if _has_perfect_pairing(g, center, remainder):
                return True
    return False


def naive_contains_fan(g: Graph, k: int) -> bool:
    """Literal embedding search: every (2k+1)-subset, every centre choice."""
    size = 2 * k + 1
    if g.n < size:
        return False
    for subset in itertools.combinations(range(g.n), size):
        for center in subset:
            rest = tuple(v for v in subset if v != center)
            if all(g.has_edge(center, v) for v in rest) and \
                    _has_perfect_pairing(g, center, rest):
                return True
    return False


def all_labeled_graphs(n: int):
    """Every labelled graph on n vertices, one Graph per adjacency choice."""
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        rows = [0] * n
        for b, (i, j) in enumerate(pairs):
            if mask >> b & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
        yield Graph(n, tuple(rows))


def permuted(g: Graph, perm: list[int]) -> Graph:
    rows = [0] * g.n
    for i in range(g.n):
        for j in range(g.n):
            if g.adj[i] >> j & 1:
                rows[perm[i]] |= 1 << perm[j]
    return Graph(g.n, tuple(rows))

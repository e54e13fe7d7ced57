"""Reference code the benchmark uses to build inputs and check outputs.

Nothing here imports fanfree: graphs are lists of adjacency bitmasks,
the graph6 codec, the graph families and the fan test are written out
again so that a defect in the program cannot hide in its own checks.
"""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np

STREAM_ORDERS = range(8, 33)
STREAM_P = (0.15, 0.3, 0.5, 0.7)
CORPUS_SEED = 2009_04738
CANONICAL_MAX_N = 11
"""canonical_form is only timed up to this order: on dense graphs it costs
0.3-1.6 s at n=14 and more than 20 s at n=16, p=0.9."""


# -- graph6 -------------------------------------------------------------


def graph6_encode(n: int, adj: list[int]) -> str:
    """graph6 text of a graph of order 1..62 (the one-byte order header)."""
    bits = [adj[j] >> i & 1 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    body = (int("".join(map(str, bits[i:i + 6])), 2) for i in range(0, len(bits), 6))
    return chr(n + 63) + "".join(chr(v + 63) for v in body)


def graph6_decode(text: str) -> tuple[int, list[int]]:
    n = ord(text[0]) - 63
    if not 1 <= n <= 62:
        raise ValueError(f"order byte {text[0]!r} out of range")
    need = n * (n - 1) // 2
    if len(text) != 1 + (need + 5) // 6:
        raise ValueError(f"graph6 text of length {len(text)} for order {n}")
    bits = "".join(format(ord(c) - 63, "06b") for c in text[1:])
    adj = [0] * n
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if bits[idx] == "1":
                adj[i] |= 1 << j
                adj[j] |= 1 << i
            idx += 1
    if "1" in bits[need:]:
        raise ValueError("nonzero padding bits")
    return n, adj


# -- graph families -----------------------------------------------------


def _add(adj: list[int], u: int, v: int) -> None:
    adj[u] |= 1 << v
    adj[v] |= 1 << u


def gnp(n: int, p: float, rng: random.Random) -> list[int]:
    adj = [0] * n
    for j in range(1, n):
        for i in range(j):
            if rng.random() < p:
                _add(adj, i, j)
    return adj


def split_graph(n: int, k: int) -> list[int]:
    """S(n,k): a k-clique joined to an independent set of n-k vertices."""
    adj = [0] * n
    for u in range(k):
        for v in range(u + 1, n):
            _add(adj, u, v)
    return adj


def efgg_graph(n: int, k: int) -> list[int]:
    """Edge-extremal k-fan-free graph: K_{n//2, n-n//2} with an embedded
    part in the larger side (two disjoint K_k for odd k; for even k a
    (2k-1)-vertex graph with k^2-3k/2 edges and maximum degree k-1)."""
    small = n // 2
    adj = [0] * n
    for u in range(small):
        for v in range(small, n):
            _add(adj, u, v)
    host = list(range(small, n))
    if k % 2:
        for block in (host[:k], host[k:2 * k]):
            for i in range(k):
                for j in range(i + 1, k):
                    _add(adj, block[i], block[j])
    else:
        size = 2 * k - 1
        part = host[:size]
        for off in range(1, (k - 2) // 2 + 1):
            for i in range(size):
                _add(adj, part[i], part[(i + off) % size])
        for i in range(k - 1):
            _add(adj, part[i], part[i + k - 1])
    return adj


def efgg_fits(n: int, k: int) -> bool:
    return n >= (4 * k - 1 if k % 2 else 4 * k - 3)


def circulant(n: int, offsets: list[int]) -> list[int]:
    adj = [0] * n
    for v in range(n):
        for d in offsets:
            _add(adj, v, (v + d) % n)
    return adj


def relabel(adj: list[int], perm: list[int]) -> list[int]:
    """Vertex v becomes perm[v]."""
    out = [0] * len(adj)
    for v, row in enumerate(adj):
        for u in range(len(adj)):
            if row >> u & 1:
                out[perm[v]] |= 1 << perm[u]
    return out


def make_stream(seed: int, blocks: int) -> list[dict]:
    """The stream-mixed input: per block and order 8..32, four G(n,p) (one
    per p) and three of the paper's families, S(n,k), the efgg
    construction and a circulant, each under a random labelling.

    The graphs come from the fixed CORPUS_SEED; ``seed`` orders the
    stream and draws the relabelled copy each canonical form is checked
    against.  At the seed commit, whether q1 fails to converge on a
    graph depends on the rounding of that labelled input, and a failing
    order-32 graph costs about fifteen passing ones, so drawing the
    graphs from ``seed`` spread the pass time by 17% (quartile distance
    over median, 8 seeds timed interleaved in one process) before any
    machine noise.  With a fixed corpus every run does the same work.
    """
    corpus = random.Random(CORPUS_SEED)
    rng = random.Random(seed)
    items = []
    for _ in range(blocks):
        for n in STREAM_ORDERS:
            graphs = [(f"gnp(p={p})", gnp(n, p, corpus)) for p in STREAM_P]
            k = corpus.randint(1, min(5, n - 1))
            graphs.append((f"split(k={k})", split_graph(n, k)))
            k = corpus.choice([k for k in (2, 3, 4, 5) if efgg_fits(n, k)])
            graphs.append((f"efgg(k={k})", efgg_graph(n, k)))
            offsets = corpus.sample(range(1, n // 2 + 1), corpus.randint(1, 3))
            graphs.append((f"circulant{sorted(offsets)}", circulant(n, offsets)))
            for family, adj in graphs:
                if not family.startswith("gnp"):
                    adj = relabel(adj, corpus.sample(range(n), n))
                items.append({
                    "family": family,
                    "g6": graph6_encode(n, adj),
                    "relabelled": graph6_encode(n, relabel(adj, rng.sample(range(n), n))),
                    "merris": all(adj),
                    "canonical": n <= CANONICAL_MAX_N,
                })
    rng.shuffle(items)
    return items


# -- checks -------------------------------------------------------------


def signless_q1(n: int, adj: list[int]) -> float:
    q = np.zeros((n, n))
    for v in range(n):
        q[v, v] = adj[v].bit_count()
        for u in range(n):
            if adj[v] >> u & 1:
                q[v, u] = 1.0
    return float(np.linalg.eigvalsh(q)[-1])


def _has_matching(edges: list[tuple[int, int]], k: int) -> bool:
    if k == 0:
        return True
    for i, (a, b) in enumerate(edges):
        rest = [e for e in edges[i + 1:] if a not in e and b not in e]
        if _has_matching(rest, k - 1):
            return True
    return False


def neighbourhood_edges(n: int, adj: list[int], v: int) -> list[tuple[int, int]]:
    nb = [u for u in range(n) if adj[v] >> u & 1]
    return [(a, b) for i, a in enumerate(nb) for b in nb[i + 1:] if adj[a] >> b & 1]


def fan_centre(n: int, adj: list[int], k: int) -> int | None:
    """Smallest vertex whose neighbourhood holds k disjoint edges (a k-fan
    centred there), or None when the graph is k-fan-free."""
    for v in range(n):
        if _has_matching(neighbourhood_edges(n, adj, v), k):
            return v
    return None


def merris_max(n: int, adj: list[int]) -> tuple[Fraction, set[int]]:
    """Exact max over v of d_v + (sum of neighbour degrees)/d_v, and the
    vertices attaining it."""
    deg = [row.bit_count() for row in adj]
    values = [deg[v] + Fraction(sum(deg[u] for u in range(n) if adj[v] >> u & 1), deg[v])
              for v in range(n)]
    best = max(values)
    return best, {v for v in range(n) if values[v] == best}

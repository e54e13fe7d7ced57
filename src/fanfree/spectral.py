"""Dense symmetric eigensolving and every spectral formula and bound in the toolkit.

The eigensolver is cyclic Jacobi on the full dense matrix: orders are at
most 64, so the O(n^3)-per-sweep cost is negligible, and Jacobi is
backward-stable and easy to make deterministic.  Row p of each (p, q)
pass stays in a two-row buffer beside row q, so a rotation is one numpy
multiply and one numpy add on that buffer, and the diagonal stays in
Python floats, where the pivot arithmetic already runs.  Its bits are
those of rotating whole rows: the buffer's stale and diagonal slots feed
only entries the pivot block overwrites, so they need no store, and the
diagonal is written back before each sweep's norm.
``rayleigh_power_lambda1`` provides an algorithmically independent
cross-check of the dominant eigenvalue for tests.

Each function that computes with numpy imports it in its own body, so
that importing the package and running the integer commands never load
numpy; once loaded, each such import is a cached lookup.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from .graphs import Graph, bits, induced_subgraph, second_neighborhood

if TYPE_CHECKING:
    import numpy as np

# Jacobi sweeps stop once the off-diagonal Frobenius norm drops below
# JACOBI_OFF_FACTOR * order; exceeding the sweep budget on symmetric
# input is an internal error, not a user-facing condition.
JACOBI_OFF_FACTOR = 1e-12
JACOBI_SWEEP_BUDGET = 100
# Absolute accuracy demanded of a returned eigenvalue: the slack of
# eigenvalue comparisons and of the certificate's bound pruning and
# independent cross-check of the winner.
EIGEN_ACCURACY = 1e-9
# Largest spread of block row sums that still counts as equitable.
EQUITABLE_SLACK = 1e-12
# Power steps behind ``_power_bounds``.  Its vectors hold integers below
# 126**(POWER_STEPS + 1) * 63 < 2**53 at every order up to 64, so each
# float64 product and partial sum is an exact integer, in any order of
# summation.
POWER_STEPS = 5


@dataclass(frozen=True, eq=False)
class SymMatrix:
    """Dense real symmetric matrix with exact symmetry enforced."""

    entries: np.ndarray

    def __init__(self, entries) -> None:
        import numpy as np
        arr = np.array(entries, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("matrix must be square")
        if arr.shape[0] == 0:
            raise ValueError("matrix must be nonempty")
        if not np.all(np.isfinite(arr)):
            raise ValueError("matrix entries must be finite")
        if not np.array_equal(arr, arr.T):
            raise ValueError("matrix is not exactly symmetric")
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @property
    def order(self) -> int:
        return self.entries.shape[0]

    def is_integer_valued(self) -> bool:
        import numpy as np
        return bool(np.array_equal(self.entries, np.round(self.entries)))


@dataclass(frozen=True)
class SpectrumResult:
    """Eigenvalues in non-increasing order plus solver convergence metadata."""

    eigenvalues: tuple[float, ...]
    offdiag_residual: float
    sweeps: int


@dataclass(frozen=True)
class VertexPartition:
    """Ordered partition of ``0..n-1`` into disjoint nonempty blocks."""

    blocks: tuple[tuple[int, ...], ...]

    def __init__(self, blocks) -> None:
        norm = tuple(tuple(sorted(b)) for b in blocks)
        seen: set[int] = set()
        for b in norm:
            if not b:
                raise ValueError("partition blocks must be nonempty")
            for v in b:
                if v in seen:
                    raise ValueError(f"vertex {v} appears in two blocks")
                seen.add(v)
        if seen != set(range(len(seen))) or not seen:
            raise ValueError("blocks must cover a contiguous range 0..n-1")
        object.__setattr__(self, "blocks", norm)

    @property
    def order(self) -> int:
        return sum(len(b) for b in self.blocks)


@dataclass(frozen=True, eq=False)
class QuotientMatrix:
    """Block-averaged row sums of a partitioned matrix.

    ``equitable`` is True when every block of the partitioned matrix has
    constant row sums, in which case the quotient's eigenvalues are
    eigenvalues of the full matrix.
    """

    b: np.ndarray
    equitable: bool
    block_sizes: tuple[int, ...]


# -- Jacobi kernel -----------------------------------------------------


def _offdiag_norm(a: np.ndarray) -> float:
    """Off-diagonal Frobenius norm, summed from the off-diagonal squares.

    Subtracting the diagonal squares from the full sum instead would
    cancel catastrophically and leave a floor far above the Jacobi target.
    """
    import numpy as np
    sq = a * a
    np.fill_diagonal(sq, 0.0)
    return math.sqrt(float(np.sum(sq)))


def _jacobi(a: np.ndarray, off_target: float, max_sweeps: int):
    """Cyclic Jacobi sweeps on ``a`` in place; returns (residual, sweeps).

    The pass over q for one p keeps row p in ``pair[0]`` and loads row q
    into ``pair[1]``; the diagonal lives in the Python list ``d``.  Four
    things keep every bit equal to rotating whole rows of ``a`` with
    ``c*x - s*y``.  The products and the sums are separate numpy calls,
    never a fused multiply-add: ``c*x + (-s)*y`` rounds like ``c*x -
    s*y``, since negation is exact.  The pivots ``app - t*apq`` and
    ``aqq + t*apq`` are the same Python float expressions on the same
    values, kept in ``d`` rather than stored into the rows.  Inside a
    sweep the diagonal slots of ``a`` and of the buffer are scratch: like
    the stale column-p entry of each loaded row q, they feed only entries
    that the pivot block overwrites, and ``d`` is written back over them
    before each norm, so no scratch value is squared and ``a`` is exact
    at every sweep boundary.  And row and column p are written back to
    ``a`` once per pass, from the buffer, so the entry ``rq[p]`` that row
    q carries back is dead and is never stored.
    """
    import numpy as np
    n = a.shape[0]
    rows, cols = list(a), list(a.T)
    d = a.diagonal().tolist()
    pair = np.empty((2, n))
    rp, rq = pair
    # terms[j, i] = rot[j, i] * pair[j]: the share of row j in the new row
    # i, so the new pair is terms[0] + terms[1].  coef is a flat view of
    # rot, because integer-indexed stores into it are the cheapest.
    rot = np.empty((2, 2, 1))
    coef = rot.reshape(4)
    terms = np.empty((2, 2, n))
    from_p, from_q = terms
    by_source = pair[:, None, :]
    sweeps = 0
    off = _offdiag_norm(a)
    while off > off_target and sweeps < max_sweeps:
        for p in range(n - 1):
            rp[:] = rows[p]
            app = d[p]
            for q in range(p + 1, n):
                # Scalar rotation in Python floats: an overflowing tau
                # becomes inf silently and gives t = 0 (no rotation).
                apq = rp.item(q)
                if apq == 0.0:
                    continue
                aqq = d[q]
                tau = (aqq - app) / (2.0 * apq)
                if tau >= 0.0:
                    t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                # rp, rq = c*rp + (-s)*rq, s*rp + c*rq, then the pivot
                # block: its diagonal goes to d and rp[q] to 0; row q goes
                # back to a as row and column q at once, row p after the
                # pass.
                rq[:] = rows[q]
                coef[0] = coef[3] = c
                coef[1] = s
                coef[2] = -s
                np.multiply(rot, by_source, terms)
                np.add(from_p, from_q, pair)
                app = app - t * apq
                d[q] = aqq + t * apq
                rp[q] = 0.0
                rows[q][:] = cols[q][:] = rq
            d[p] = app
            rows[p][:] = cols[p][:] = rp
        sweeps += 1
        np.fill_diagonal(a, d)
        off = _offdiag_norm(a)
    return off, sweeps


def spectrum(m: SymMatrix, *, _off_factor: float = JACOBI_OFF_FACTOR) -> SpectrumResult:
    """All eigenvalues of a symmetric matrix, non-increasing, via cyclic Jacobi.

    Deterministic for identical input.  Convergence below
    ``JACOBI_OFF_FACTOR * order`` within the sweep budget is guaranteed
    for symmetric input; failure to converge is an internal error.  The
    private ``_off_factor`` lets the certification tie re-check demand a
    tighter target.
    """
    import numpy as np
    a = np.array(m.entries, dtype=np.float64)
    n = a.shape[0]
    off_target = _off_factor * n
    off, sweeps = _jacobi(a, off_target, JACOBI_SWEEP_BUDGET)
    if off > off_target:
        raise RuntimeError(
            f"Jacobi failed to converge in {JACOBI_SWEEP_BUDGET} sweeps "
            f"(residual {off:.3e})")
    eig = tuple(sorted((float(x) for x in np.diag(a)), reverse=True))
    return SpectrumResult(eig, float(off), int(sweeps))


def rayleigh_power_lambda1(m: SymMatrix, tol: float = 1e-10,
                           max_iter: int = 500_000) -> float:
    """Dominant eigenvalue via power iteration with Rayleigh quotients.

    Independent of the Jacobi path; intended as a cross-check oracle.
    Valid for positive semidefinite input (where the dominant eigenvalue
    is the largest one), which covers every signless Laplacian.  Raises
    RuntimeError if the residual is still above ``tol`` after
    ``max_iter`` iterations.
    """
    import numpy as np
    a = m.entries
    n = m.order
    x = np.ones(n) / math.sqrt(n)
    lam = 0.0
    residual = math.inf
    for _ in range(max_iter):
        y = a @ x
        norm = float(np.linalg.norm(y))
        if norm == 0.0:
            return 0.0
        x = y / norm
        lam = float(x @ (a @ x))
        residual = float(np.linalg.norm(a @ x - lam * x))
        if residual <= tol * max(1.0, abs(lam)):
            return lam
    raise RuntimeError(
        f"power iteration failed to converge in {max_iter} iterations "
        f"(residual {residual:.3e}, last estimate {lam!r})")


# -- signless Laplacian and formulas ----------------------------------


def signless_laplacian(g: Graph) -> SymMatrix:
    """Degree-diagonal plus adjacency matrix; integer-valued and PSD."""
    import numpy as np
    adj, deg = _adjacency_bits([g])
    arr = adj[0].astype(np.float64)
    np.fill_diagonal(arr, deg[0])
    return SymMatrix(arr)


def q1(g: Graph) -> float:
    """Signless Laplacian spectral radius: the largest eigenvalue of D+A.

    The literature writes this quantity as either q1(G) or rho_Q(G); this
    package uses the single name ``q1`` throughout.
    """
    return spectrum(signless_laplacian(g)).eigenvalues[0]


def q1_split_closed_form(n: int, k: int) -> float:
    """Closed-form spectral radius of the complete split graph.

    ``(n+2k-2 + sqrt((n+2k-2)^2 - 8k(k-1))) / 2``; for ``k = 1`` (a star)
    this collapses to ``n``.
    """
    if k < 1 or n <= k:
        raise ValueError("requires n > k >= 1")
    b = n + 2 * k - 2
    return (b + math.sqrt(b * b - 8 * k * (k - 1))) / 2.0


def q1_split_lower_bound(n: int, k: int) -> float:
    """Radical-free lower bound ``n+2k-2 - 2k(k-1)/(n+2k-3)``.

    Valid from ``n >= 2k^2 - 4k + 3``; below that threshold the bound is
    not asserted and the call is rejected.
    """
    if k < 1 or n <= k:
        raise ValueError("requires n > k >= 1")
    if n < 2 * k * k - 4 * k + 3:
        raise ValueError(
            f"lower bound requires n >= 2k^2-4k+3 = {2 * k * k - 4 * k + 3}")
    return n + 2 * k - 2 - (2 * k * (k - 1)) / (n + 2 * k - 3)


def merris_bound(g: Graph) -> tuple[float, int]:
    """Degree/average-neighbour-degree upper bound on the spectral radius.

    Returns ``max_v (d_v + (sum of neighbour degrees)/d_v)`` and the
    smallest vertex attaining it.  For connected graphs, equality with
    the spectral radius holds exactly on regular and semiregular
    bipartite graphs.  Isolated vertices are rejected (the average is
    undefined).
    """
    import numpy as np
    (adj,), (deg,) = _adjacency_bits([g])
    # neighbour-degree sums, at most 63 * 63, are exact in uint16; then a
    # correctly rounded quotient and one rounded sum, as in the formula
    bounds = (np.einsum("vu,u->v", adj, deg, dtype=np.uint16) / np.maximum(deg, 1)
              + deg).tolist()
    # a vertex with a neighbour has a bound of at least 2
    if 0.0 in bounds:
        raise ValueError(f"vertex {bounds.index(0.0)} is isolated; bound undefined")
    best = max(bounds)
    return best, bounds.index(best)


def _adjacency_bits(graphs: Sequence[Graph]) -> tuple[np.ndarray, np.ndarray]:
    """The adjacency matrices and degrees of ``graphs``, at least one and
    all of one order n: a ``(graphs, n, n)`` and a ``(graphs, n)`` uint8
    array.

    The rows, read in one pass over the graphs' adjacency tuples, are
    unpacked from uint64 (a graph of order 64 sets bit 63), one byte per
    bit, and the degrees are their sums, at most 63.  ``_power_bounds``
    takes this pair.
    """
    import numpy as np
    n = graphs[0].n
    rows = np.fromiter(itertools.chain.from_iterable(g.adj for g in graphs), dtype="<u8",
                       count=len(graphs) * n)
    octets = rows.view(np.uint8).reshape(len(graphs), n, 8)[:, :, :(n + 7) // 8]
    adj = np.unpackbits(octets, axis=-1, count=n, bitorder="little")
    return adj, adj.sum(axis=-1, dtype=np.uint8)


def _power_bounds(adj: np.ndarray, deg: np.ndarray) -> np.ndarray:
    """Per graph, the Collatz-Wielandt bound on q1 after POWER_STEPS
    power steps, from ``_adjacency_bits``.

    Starting from the degree vector, x <- Qx is iterated exactly in
    float64 (see POWER_STEPS) on the uint8 ``adj``, which is never copied
    to float64: at order 64 a block's copy would be eight times its size.
    The bound is the largest ratio (Qx)_v/x_v of Q = D + A over the
    non-isolated vertices, the only ones where x stays positive, and 0
    for an edgeless graph; isolated vertices add only zero eigenvalues
    (Wielandt 1950).  For nonnegative Q the bound never rises from one
    step to the next, and step 0 is ``merris_bound``'s value up to
    rounding.
    """
    import numpy as np

    def step(x: np.ndarray) -> np.ndarray:
        return np.einsum("gvu,gu->gv", adj, x) + deg * x

    x = deg.astype(np.float64)
    for _ in range(POWER_STEPS):
        x = step(x)
    # an isolated vertex has x = Qx = 0, so its ratio is 0
    return (step(x) / np.maximum(x, 1)).max(axis=1, initial=0.0)


def quotient(m: SymMatrix, p: VertexPartition) -> QuotientMatrix:
    """Block-averaged quotient matrix plus equitability flag.

    A block pair is equitable when its row sums spread by at most
    ``EQUITABLE_SLACK``.  For an integer-valued matrix, such as a signless
    Laplacian, the row sums are exact integers while they stay below
    2**53, so their spread is 0 or at least 1 and the test is exact.
    """
    import numpy as np
    if p.order != m.order:
        raise ValueError("partition does not match matrix order")
    k = len(p.blocks)
    arr = m.entries
    b = np.zeros((k, k))
    equitable = True
    for i, bi in enumerate(p.blocks):
        for j, bj in enumerate(p.blocks):
            rows = arr[np.ix_(bi, bj)].sum(axis=1)
            b[i, j] = float(rows.mean())
            if float(np.max(rows) - np.min(rows)) > EQUITABLE_SLACK:
                equitable = False
    return QuotientMatrix(b, equitable, tuple(len(x) for x in p.blocks))


def quotient_eigenvalues(q: QuotientMatrix) -> tuple[float, ...]:
    """Eigenvalues of a quotient matrix, non-increasing.

    The quotient of a symmetric matrix is diagonally similar to a
    symmetric matrix (conjugate by sqrt of block sizes), so its spectrum
    is real and can be computed with the same Jacobi solver.
    """
    import numpy as np
    sizes = np.sqrt(np.array(q.block_sizes, dtype=np.float64))
    sym = q.b * sizes[:, None] / sizes[None, :]
    sym = (sym + sym.T) / 2.0  # kill roundoff asymmetry
    return spectrum(SymMatrix(sym)).eigenvalues


def split_quotient(n: int, k: int) -> QuotientMatrix:
    """Quotient of the split graph's signless Laplacian over clique/independent blocks."""
    from .graphs import make_split

    g = make_split(n, k)
    part = VertexPartition((tuple(range(k)), tuple(range(k, n))))
    return quotient(signless_laplacian(g), part)


def perron_dominance(m1: SymMatrix, m2: SymMatrix) -> bool:
    """Monotonicity of the dominant eigenvalue under entrywise domination.

    For nonnegative symmetric matrices with ``m1 - m2`` nonnegative, the
    standard monotonicity result (Horn and Johnson, Corollary 8.1.19)
    gives ``lambda_1(m1) >= lambda_1(m2)``; this evaluates both sides and
    returns the comparison within ``EIGEN_ACCURACY``.  Precondition
    violations report the offending entry.
    """
    import numpy as np
    if m1.order != m2.order:
        raise ValueError("matrix orders differ")
    for name, m in (("m1", m1), ("m2", m2)):
        idx = np.argwhere(m.entries < 0)
        if idx.size:
            i, j = idx[0]
            raise ValueError(f"{name}[{i},{j}] = {m.entries[i, j]} is negative")
    diff = m1.entries - m2.entries
    idx = np.argwhere(diff < 0)
    if idx.size:
        i, j = idx[0]
        raise ValueError(
            f"m1-m2 is negative at [{i},{j}]: {m1.entries[i, j]} < {m2.entries[i, j]}")
    lam1 = spectrum(m1).eigenvalues[0]
    lam2 = spectrum(m2).eigenvalues[0]
    return lam1 >= lam2 - EIGEN_ACCURACY


def eq1_identity(g: Graph, v: int) -> tuple[int, int, bool]:
    """Exact integer decomposition of the neighbourhood degree sum.

    For any vertex with positive degree, the sum of its neighbours'
    degrees equals ``d_v + 2 e(G[N(v)]) + e(N(v), N_2(v))``: each edge at
    a neighbour goes back to ``v``, stays inside the neighbourhood, or
    leaves to the second neighbourhood.  Returns (lhs, rhs, equal).
    """
    d = g.degree(v)
    if d == 0:
        raise ValueError(f"vertex {v} is isolated")
    nb = list(bits(g.adj[v]))
    lhs = sum(g.degree(u) for u in nb)
    sub, _ = induced_subgraph(g, nb)
    n2 = second_neighborhood(g, v)
    from .graphs import cut_edges

    rhs = d + 2 * sub.edge_count() + cut_edges(g, nb, n2)
    return lhs, rhs, lhs == rhs

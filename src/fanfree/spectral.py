"""Dense symmetric eigensolving and every spectral formula and bound in the toolkit.

The eigensolver is cyclic Jacobi on the full dense matrix: orders are at
most 64, so the O(n^3)-per-sweep cost is negligible, and Jacobi is
backward-stable and easy to make deterministic.  Each rotation works on
whole rows in numpy; ``rayleigh_power_lambda1`` provides an
algorithmically independent cross-check of the dominant eigenvalue for
tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import Graph, bits, induced_subgraph, second_neighborhood

# Jacobi sweeps stop once the off-diagonal Frobenius norm drops below
# JACOBI_OFF_FACTOR * order; exceeding the sweep budget on symmetric
# input is an internal error, not a user-facing condition.
JACOBI_OFF_FACTOR = 1e-12
JACOBI_SWEEP_BUDGET = 100
# Absolute accuracy demanded of a returned eigenvalue: the slack of
# eigenvalue comparisons and of the certificate's bound pruning and
# independent cross-check of the winner.
EIGEN_ACCURACY = 1e-9
# Slack for testing equitability of float-valued matrices (integer
# matrices are compared exactly).
EQUITABLE_SLACK = 1e-12


@dataclass(frozen=True, eq=False)
class SymMatrix:
    """Dense real symmetric matrix with exact symmetry enforced."""

    entries: np.ndarray

    def __init__(self, entries) -> None:
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
    sq = a * a
    np.fill_diagonal(sq, 0.0)
    return math.sqrt(float(np.sum(sq)))


def _jacobi(a: np.ndarray, off_target: float, max_sweeps: int):
    n = a.shape[0]
    sweeps = 0
    off = _offdiag_norm(a)
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
    is the largest one), which covers every signless Laplacian.
    """
    a = m.entries
    n = m.order
    x = np.ones(n) / math.sqrt(n)
    lam = 0.0
    for _ in range(max_iter):
        y = a @ x
        norm = float(np.linalg.norm(y))
        if norm == 0.0:
            return 0.0
        x = y / norm
        lam = float(x @ (a @ x))
        if float(np.linalg.norm(a @ x - lam * x)) <= tol * max(1.0, abs(lam)):
            return lam
    return lam


# -- signless Laplacian and formulas ----------------------------------


def signless_laplacian(g: Graph) -> SymMatrix:
    """Degree-diagonal plus adjacency matrix; integer-valued and PSD."""
    n = g.n
    arr = np.zeros((n, n))
    for v in range(n):
        arr[v, v] = g.degree(v)
        for u in bits(g.adj[v]):
            arr[v, u] = 1.0
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
    best = -math.inf
    argmax = -1
    for v, value in enumerate(_vertex_bounds(g)):
        if value is None:
            raise ValueError(f"vertex {v} is isolated; bound undefined")
        if value > best:
            best = value
            argmax = v
    return best, argmax


def _degree_bound(g: Graph) -> float:
    """The ``merris_bound`` value over the non-isolated vertices only, and
    0 for an edgeless graph.

    Isolated vertices add only zero eigenvalues, so the maximum over the
    other vertices still bounds q1 from above.
    """
    return max((b for b in _vertex_bounds(g) if b is not None), default=0.0)


def _vertex_bounds(g: Graph) -> list[float | None]:
    """Per vertex, ``d_v + (sum of neighbour degrees)/d_v``, or None if isolated."""
    deg = [row.bit_count() for row in g.adj]
    return [d + sum(deg[u] for u in bits(row)) / d if d else None
            for d, row in zip(deg, g.adj)]


def quotient(m: SymMatrix, p: VertexPartition) -> QuotientMatrix:
    """Block-averaged quotient matrix plus equitability flag.

    Equitability is decided with exact integer row sums whenever the
    matrix is integer-valued (always true for a signless Laplacian), and
    with ``EQUITABLE_SLACK`` otherwise.
    """
    if p.order != m.order:
        raise ValueError("partition does not match matrix order")
    k = len(p.blocks)
    arr = m.entries
    b = np.zeros((k, k))
    equitable = True
    integer = m.is_integer_valued()
    for i, bi in enumerate(p.blocks):
        for j, bj in enumerate(p.blocks):
            rows = arr[np.ix_(bi, bj)].sum(axis=1)
            b[i, j] = float(rows.mean())
            if integer:
                if not np.all(rows == rows[0]):
                    equitable = False
            elif float(np.max(rows) - np.min(rows)) > EQUITABLE_SLACK:
                equitable = False
    return QuotientMatrix(b, equitable, tuple(len(x) for x in p.blocks))


def quotient_eigenvalues(q: QuotientMatrix) -> tuple[float, ...]:
    """Eigenvalues of a quotient matrix, non-increasing.

    The quotient of a symmetric matrix is diagonally similar to a
    symmetric matrix (conjugate by sqrt of block sizes), so its spectrum
    is real and can be computed with the same Jacobi solver.
    """
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

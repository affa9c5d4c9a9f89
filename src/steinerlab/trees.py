"""Weighted counting of simplicial spanning trees.

A d-dimensional spanning tree of a complex with complete (d-1)-skeleton is a
set of C(n-1, d) top faces whose boundary columns are linearly independent
over the rationals; its weight is the squared order of the codimension-one
torsion group.  By the simplicial matrix-tree theorem (Kalai 1983;
Duval-Klivans-Martin 2009) the weighted total is the determinant of the
reduced Laplacian: L with the rows and columns of the C(n-1, d-1)
(d-1)-faces through vertex 1 deleted.  Those faces form a torsion-free
(d-1)-tree of the complete skeleton, and in lexicographic order they are
the first rows of L.  The same total is the product of the non-trivial
eigenvalues of L divided by n^C(n-2, d-1).

The count needs no spectrum.  L delta = 0 is checked exactly, and for a
power of two c with c n above the Gershgorin bound of L the spectrum of
M = L + c delta delta^T is the non-trivial spectrum of L plus c n repeated
C(n-1, d-1) times (see `spectra`).  So the smallest eigenvalue of M, found
by Lanczos, is the spectral floor that decides an extra kernel (count 0).
Otherwise the reduced Laplacian is positive definite and its log-determinant
comes from a Cholesky factorization in two phases (George and Liu, "The
evolution of the minimum degree ordering algorithm", SIAM Review 1989).
Phase 1 eliminates low-degree rows sparsely, an independent set per round,
each round one sparse Schur-complement update; the pivots add their logs.
Phase 2 scatters the lower triangle of the denser remainder into LAPACK
rectangular full packed storage, half a dense matrix, and factors it in
place (`dpftrf`), adding 2 sum log diag of the factor.  At d = 2, k = 5,
n = 111 phase 1 cuts the dense order from 5995 to about 3930, which leaves
under a third of the dense flops.  The enumeration oracle instead sums squared
Smith-normal-form torsion over candidate trees.  Spectral arithmetic stays
in the log domain because counts grow like exp(Theta(n^d)).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations
from math import comb, exp, frexp, log
from typing import Sequence

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dpftrf
from scipy.sparse.linalg import LinearOperator, eigsh

from .complexes import PureComplex
from .spectra import (
    boundary_matrix,
    coboundary_matrix,
    exact_rank,
    require_memory,
    sparse_laplacian,
    trivial_zero_count,
    warn_ambiguous_zeros,
    zero_threshold,
)

__all__ = [
    "SnfDiagonal",
    "TreeCount",
    "smith_normal_form",
    "pseudodet_from_eigenvalues",
    "growth_rate_from_eigenvalues",
    "tree_count_from_laplacian",
    "weighted_tree_count",
    "tree_growth_rate",
    "tree_count_exact",
]

ORACLE_MAX_SUBSETS = 10**6
# fixed Lanczos start vector: reproducible, and never in ker L (ones is, at d = 1)
LANCZOS_SEED = 20090601
ORACLE_LOG_RTOL = 1e-6
# largest N with N(N+1) below 2**31, the packed length check in scipy's dpftrf wrapper
MAX_PACKED_ORDER = 46340
# Phase 1 of the count stops once the Schur complement is denser than this.
# Sparse updates run far below BLAS speed and their fill grows with every
# round, so near 2% density one more sparse pivot costs about as much as it
# saves in the dense factor (measured at d = 2, k = 5, n = 111 and 159).
SPARSE_FILL_LIMIT = 0.02
# ... or once a round would eliminate fewer than this share of the rows left
SPARSE_ROUND_MIN = 0.005


@dataclass(frozen=True)
class SnfDiagonal:
    """Invariant factors s_1 | s_2 | ... | s_r of an integer matrix."""

    factors: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.factors)

    def torsion(self) -> int:
        """Order of the torsion part of the cokernel: product of the factors."""
        out = 1
        for s in self.factors:
            out *= s
        return out


def smith_normal_form(M: Sequence[Sequence[int]] | np.ndarray) -> SnfDiagonal:
    """Diagonalize an integer matrix over Z by row/column operations.

    Pivots on the smallest nonzero entry and re-reduces until the pivot
    divides its row and column, which keeps coefficient growth in check.
    Entries are Python ints, so there is no overflow.
    """
    A = [[int(v) for v in row] for row in M]
    rows = len(A)
    cols = len(A[0]) if rows else 0
    factors: list[int] = []
    top = 0
    while top < min(rows, cols):
        # locate smallest nonzero entry in the remaining block
        best = None
        for i in range(top, rows):
            for j in range(top, cols):
                v = abs(A[i][j])
                if v and (best is None or v < best[0]):
                    best = (v, i, j)
        if best is None:
            break
        _, pi, pj = best
        A[top], A[pi] = A[pi], A[top]
        for row in A:
            row[top], row[pj] = row[pj], row[top]
        pivot = A[top][top]

        dirty = False
        for i in range(top + 1, rows):
            if A[i][top]:
                q = A[i][top] // pivot
                for j in range(top, cols):
                    A[i][j] -= q * A[top][j]
                if A[i][top]:
                    dirty = True
        for j in range(top + 1, cols):
            if A[top][j]:
                q = A[top][j] // pivot
                for i in range(top, rows):
                    A[i][j] -= q * A[i][top]
                if A[top][j]:
                    dirty = True
        if dirty:
            continue  # remainders became new, smaller candidates

        # pivot must divide the rest of the block for the divisibility chain
        offender = None
        for i in range(top + 1, rows):
            for j in range(top + 1, cols):
                if A[i][j] % pivot:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            for j in range(top, cols):
                A[top][j] += A[offender][j]
            continue

        factors.append(abs(pivot))
        top += 1

    return SnfDiagonal(tuple(factors))


def pseudodet_from_eigenvalues(eigs: np.ndarray, trivial_zeros: int) -> tuple[float, bool]:
    """Log-product of the non-trivial Laplacian eigenvalues (test oracle for the Cholesky route).

    The lowest `trivial_zeros` eigenvalues must be numerical zeros (hard
    failure otherwise); any further zero among the rest is a genuine extra
    kernel vector and flags the product as 0.
    """
    eigs = np.sort(np.asarray(eigs, dtype=float))
    eps = zero_threshold(eigs)
    warn_ambiguous_zeros(eigs, eps)
    if trivial_zeros and float(eigs[trivial_zeros - 1]) > eps:
        raise RuntimeError(
            f"expected {trivial_zeros} trivial zeros but eigenvalue "
            f"{float(eigs[trivial_zeros - 1]):.3e} exceeds {eps:.3e}"
        )
    rest = eigs[trivial_zeros:]
    if len(rest) and float(rest[0]) < eps:
        return 0.0, True
    return float(np.sum(np.log(rest))) if len(rest) else 0.0, False


@dataclass(frozen=True)
class TreeCount:
    """Weighted spanning-tree count of a complex, in the log domain.

    log_count is the log-determinant of the reduced Laplacian; pseudodet_log
    is the log-product of the non-trivial Laplacian eigenvalues, which is
    log_count + C(n-2, d-1) log n.  zero_flag means the complex has a
    non-trivial Laplacian kernel and the count is exactly 0; log_count is
    then -inf and pseudodet_log is 0.  floor is the smallest non-trivial
    Laplacian eigenvalue; the flag is set exactly when it is below
    zero_threshold, so the two give the margin.  A flagged floor is recorded
    as 0.0: it is a Lanczos estimate of a true zero, and its digits are
    round-off that differs between identical runs.  exact_count is filled
    only when the enumeration oracle was run.
    """

    log_count: float
    pseudodet_log: float
    trivial_zeros: int
    zero_flag: bool
    floor: float
    zero_threshold: float
    exact_count: int | None = None

    @property
    def count(self) -> float:
        return 0.0 if self.zero_flag else exp(self.log_count)


def _lanczos_extreme(op, which: str) -> float:
    v0 = np.random.default_rng(LANCZOS_SEED).standard_normal(op.shape[0])
    return float(eigsh(op, k=1, which=which, v0=v0, return_eigenvectors=False)[0])


def _rfp_offsets(i: np.ndarray, j: np.ndarray, N: int) -> np.ndarray:
    """Positions of lower-triangle entries (i >= j) of an N x N matrix in LAPACK
    rectangular full packed storage with TRANSR='N', UPLO='L'.

    The N(N+1)/2 array is column-major with leading dimension lda (N+1 for
    even N, N for odd N).  Columns j < h = ceil(N/2) are kept in place, one
    row lower for even N; the trailing triangle (i >= j >= h) is stored
    transposed in the rows above them.
    """
    # int64: sparse indices may be int32, and j * lda comes within 0.01% of 2**31 at MAX_PACKED_ORDER
    i = np.asarray(i, dtype=np.int64)
    j = np.asarray(j, dtype=np.int64)
    h = (N + 1) // 2
    lda = N + 1 - N % 2
    shift = lda - N
    return np.where(j < h, i + shift + j * lda, (j - h) + (i - h + 1 - shift) * lda)


def _reduced_log_det(R: sp.csr_matrix) -> tuple[float, int]:
    """(log det R, order of the dense phase) of a symmetric positive definite sparse R, by Cholesky.

    Phase 1 works in rounds on the Schur complement S, starting at R.  The
    candidates are the rows with at most the mean row nnz; ranked by (row
    nnz, index), a candidate is a pivot when it ranks below every neighbour,
    so the pivots I are independent, S[I, I] is its diagonal D and the round
    is one sparse update S <- S[K, K] - C^T diag(1/D) C with C = S[I, K] and
    K the other rows.  It stops when S is denser than SPARSE_FILL_LIMIT or a
    round would take fewer than SPARSE_ROUND_MIN of its rows.  Phase 2
    factors the remainder in packed storage.  A pivot <= 0, in either phase,
    raises np.linalg.LinAlgError with the 1-based row of R it belongs to.
    """
    S = R.tocsr()
    rows = np.arange(S.shape[0])
    log_det = 0.0
    unranked = np.iinfo(np.int64).max
    while S.shape[0] and S.nnz <= SPARSE_FILL_LIMIT * S.shape[0] ** 2:
        N = S.shape[0]
        nnz = np.diff(S.indptr).astype(np.int64)
        rank = nnz * N + np.arange(N)
        at = np.repeat(np.arange(N), nnz)
        lowest = np.full(N, unranked)
        np.minimum.at(lowest, at, np.where(S.indices == at, unranked, rank[S.indices]))
        pivots = np.flatnonzero((nnz * N <= S.nnz) & (rank < lowest))
        if len(pivots) < SPARSE_ROUND_MIN * N:
            break
        D = S.diagonal()[pivots]
        if not (D > 0).all():
            raise np.linalg.LinAlgError(int(rows[pivots[np.argmin(D > 0)]]) + 1)
        rest = np.ones(N, dtype=bool)
        rest[pivots] = False
        # entries (a, b) and (b, a) of W^T W, W = diag(D)^(-1/2) C, sum the same
        # products in the same order, so S stays exactly symmetric
        W = sp.diags(1.0 / np.sqrt(D)) @ S[pivots][:, rest]
        S = (S[rest][:, rest] - W.T @ W).tocsr()
        rows = rows[rest]
        log_det += float(np.log(D).sum())
    lower = sp.tril(S, format="coo")
    N = S.shape[0]
    packed = np.zeros(N * (N + 1) // 2)
    packed[_rfp_offsets(lower.row, lower.col, N)] = lower.data
    packed, info = dpftrf(N, packed, transr="N", uplo="L", overwrite_a=1)
    if info > 0:
        raise np.linalg.LinAlgError(int(rows[info - 1]) + 1)
    diag = np.arange(N)
    return log_det + 2.0 * float(np.log(packed[_rfp_offsets(diag, diag, N)]).sum()), N


def require_tree_count_fits(n: int, d: int) -> None:
    """Refuse, with ValueError, a tree count of a d-complex on [n] that cannot run here.

    The memory guard counts the packed factor of the whole reduced
    Laplacian, N(N+1)/2 doubles with N = C(n-1, d) (`spectra.require_memory`):
    phase 1 of the count may eliminate no row at all.  The
    packed order is capped at MAX_PACKED_ORDER because scipy's `dpftrf`
    wrapper checks the packed length as N(N+1)/2 in a C int.
    """
    N = comb(n - 1, d)
    require_memory(8 * (N * (N + 1) // 2), f"the packed Cholesky factor of the order-{N} reduced Laplacian")
    if N > MAX_PACKED_ORDER:
        raise ValueError(
            f"the reduced Laplacian of order {N} is above {MAX_PACKED_ORDER}, the largest "
            "packed order scipy's dpftrf accepts (it checks N(N+1)/2 in a 32-bit int)"
        )


def tree_count_from_laplacian(X: PureComplex, L: sp.csr_matrix) -> TreeCount:
    """Tree count of X from its sparse Laplacian L (as from `sparse_laplacian`), without a full spectrum.

    Takes L so a caller that also needs L, such as a converge row's moments,
    builds it once.  The log-count is the log-determinant of the reduced
    Laplacian L[t:, t:], t = C(n-1, d-1), by sparse elimination of its
    low-degree rows and then a packed Cholesky factor of the remainder
    (`_reduced_log_det`).  Refuses (ValueError) before any work when the
    packed factor of the whole reduced Laplacian, C(n-1, d)(C(n-1, d)+1)/2
    doubles, would not fit in memory or its order is too large for `dpftrf`
    (`require_tree_count_fits`).  A pivot <= 0 in either phase after the
    floor cleared the zero threshold raises RuntimeError naming the pivot's
    row of the reduced Laplacian.
    """
    require_tree_count_fits(X.n, X.d)
    n, d = X.n, X.d
    delta = coboundary_matrix(n, d)
    if (L @ delta).count_nonzero():
        raise RuntimeError("coboundary image is not in the Laplacian kernel: L delta != 0")
    trivial = trivial_zero_count(X)
    # c n above the Gershgorin bound (d+1) max deg of L puts the shifted trivial
    # eigenvalues above the rest; a power of two keeps c * (delta delta^T x) exact
    gershgorin = (d + 1) * float(L.diagonal().max(initial=0.0))
    c = 2.0 ** frexp((gershgorin + 1) / n)[1]
    delta_t = delta.T.tocsr()
    shifted = LinearOperator(L.shape, matvec=lambda x: L @ x + c * (delta @ (delta_t @ x)), dtype=float)
    floor = _lanczos_extreme(shifted, "SA")
    eps = zero_threshold(_lanczos_extreme(L, "LA"))
    warn_ambiguous_zeros(floor, eps)
    flag = floor < eps
    log_count = float("-inf")
    if flag:
        floor = 0.0
    else:
        # the first `trivial` rows are the faces through vertex 1
        try:
            log_count, _ = _reduced_log_det(L[trivial:, trivial:])
        except np.linalg.LinAlgError as exc:
            raise RuntimeError(
                f"spectral floor {floor:.3e} is above the zero threshold {eps:.3e}, but the "
                f"Cholesky factor of the reduced Laplacian fails at pivot {exc.args[0]} of "
                f"{L.shape[0] - trivial}"
            ) from None
    return TreeCount(
        log_count=log_count,
        pseudodet_log=0.0 if flag else log_count + comb(n - 2, d - 1) * log(n),
        trivial_zeros=trivial,
        zero_flag=flag,
        floor=floor,
        zero_threshold=eps,
    )


def weighted_tree_count(X: PureComplex, oracle: bool = False) -> TreeCount:
    """Weighted number of d-dimensional spanning trees.

    Matrix-tree route: the non-trivial Laplacian eigenvalue product equals
    the tree count times n^C(n-2, d-1) (the closed-form count of the
    complete skeleton one level down, whose codimension-two torsion is
    trivial).  With oracle=True the enumeration result is attached and
    cross-checked.
    """
    result = tree_count_from_laplacian(X, sparse_laplacian(X))
    if not oracle:
        return result
    exact = tree_count_exact(X)
    flag, log_count = result.zero_flag, result.log_count
    if flag != (exact == 0):
        raise RuntimeError(f"oracle disagreement: zero_flag={flag} but exact count {exact}")
    if not flag and abs(log(exact) - log_count) > ORACLE_LOG_RTOL * max(1.0, abs(log_count)):
        raise RuntimeError(
            f"oracle disagreement: log exact {log(exact):.12f} vs spectral {log_count:.12f}"
        )
    return replace(result, exact_count=exact)


def growth_rate_from_eigenvalues(eigs: np.ndarray, trivial_zeros: int, n: int, d: int) -> float:
    """Per-face normalized tree count from a precomputed Laplacian spectrum (test oracle)."""
    pseudodet_log, flag = pseudodet_from_eigenvalues(eigs, trivial_zeros)
    if flag:
        return 0.0
    log_count = pseudodet_log - comb(n - 2, d - 1) * log(n)
    return exp(log_count / comb(n, d))


def tree_growth_rate(X: PureComplex) -> float:
    """Per-face normalized count: (weighted tree count)^(1/C(n, d)); 0 if flagged."""
    return exp(weighted_tree_count(X).log_count / comb(X.n, X.d))


def tree_count_exact(X: PureComplex) -> int:
    """Enumeration oracle: sum of squared torsion orders over all spanning trees.

    A candidate is any C(n-1, d)-subset of the d-faces; it is a tree exactly
    when its boundary columns are independent over the rationals, and its
    weight is the squared product of the Smith invariant factors.
    """
    tree_size = comb(X.n - 1, X.d)
    m = X.num_dfaces
    if m < tree_size:
        return 0
    if comb(m, tree_size) > ORACLE_MAX_SUBSETS:
        raise ValueError(
            f"C({m}, {tree_size}) = {comb(m, tree_size)} subsets exceeds the "
            f"enumeration guard {ORACLE_MAX_SUBSETS}"
        )
    full = boundary_matrix(X).toarray().astype(np.int64)
    total = 0
    for subset in combinations(range(m), tree_size):
        cols = full[:, subset].tolist()
        if exact_rank(cols) != tree_size:
            continue
        torsion = smith_normal_form(cols).torsion()
        total += torsion * torsion
    return total

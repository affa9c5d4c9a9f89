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

The count, `weighted_tree_count`, needs no spectrum and reads X.laplacian.
The smallest eigenvalue of L on ker delta^T (`spectra.restricted_extreme`:
one dense LAPACK call up to DENSE_EXTREME_MAX rows, above a plain Lanczos
recurrence stopped at the operator's rounding level) is the spectral floor
that decides an extra kernel (count 0) by this module's zero rule: a zero
below `zero_threshold`, ZERO_RTOL max(1, (d+1) max degree), a warning
below AMBIGUOUS_FACTOR times that.  Two distinct (d-1)-faces lie in at
most one common d-face, so row sigma of L holds deg(sigma) on the diagonal
and d deg(sigma) off-diagonal entries of +-1: (d+1) max degree is
||L||_inf, a closed-form bound on the top eigenvalue, and the count runs
one eigensolve.  Otherwise the reduced Laplacian is positive definite and
its log-determinant comes from a Cholesky factorization in two phases
(George and Liu, "The evolution of the minimum degree ordering algorithm",
SIAM Review 1989).  In each round of phase 1 the rows that rank below
every neighbour by (row nnz, index), an independent set, are the pivots of
one sparse Schur-complement update and add their logs.  It stops when a
round would take too few rows, as on a d = 1 path, whose only such rows
are its two ends, or the remainder is too dense.  Phase 2 scatters
the lower triangle of the denser remainder into LAPACK rectangular full
packed storage, half a dense matrix, and factors it in place (`dpftrf`),
adding 2 sum log diag of the factor.  At d = 2, k = 5, n = 111 phase 1 cuts
the dense order from 5995 to about 3960, which leaves under a third of the
dense flops.  The enumeration oracle instead sums the squared torsion over
candidate trees.  It walks the prefix tree of candidate face subsets
depth-first: a node holds its fraction-free (Bareiss) eliminated trailing
block, each child is one batched Bareiss step on a later face's column, and
a dependent prefix drops its subtree, so every prefix is eliminated once.
Pieces of about ORACLE_CHUNK_BYTES of node states bound its memory, which
the guard counts before any work.  At a leaf a unit maximal minor gives
torsion 1, and any other tree gets its torsion as the determinant of an
integer triangular form of its columns.  Spectral arithmetic stays in the
log domain because counts grow like exp(Theta(n^d)).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from math import comb, log

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dpftrf

from .complexes import PureComplex
from .spectra import (
    NumericalFailure,
    dense_extreme_bytes,
    power_width,
    require_memory,
    restricted_extreme,
    trivial_zero_count,
)

__all__ = [
    "TreeCount",
    "weighted_tree_count",
    "tree_count_exact",
]

ZERO_RTOL = 1e-8
AMBIGUOUS_FACTOR = 1e3
ORACLE_MAX_SUBSETS = 10**6
# the oracle walks its prefix tree in pieces of about this many bytes of node states
ORACLE_CHUNK_BYTES = 2**20
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


def _torsion(M: np.ndarray) -> int:
    """Order of the torsion of coker M, for an integer matrix M of full column rank.

    Unimodular row operations bring M to [T; 0], T upper triangular, a
    column at a time: Euclid on the smallest nonzero entry below the rows
    already placed leaves one nonzero entry, and a swap moves it into
    place.  coker M is Z^r / T Z^r plus a free part, so the torsion order
    is |det T|, the product of the diagonal.  Entries are Python ints.
    """
    A = M.tolist()
    torsion = 1
    for j in range(len(A[0])):
        live = [i for i in range(j, len(A)) if A[i][j]]
        while len(live) > 1:
            p = min(live, key=lambda i: abs(A[i][j]))
            for i in live:
                if i != p:
                    q = A[i][j] // A[p][j]
                    A[i] = [a - q * b for a, b in zip(A[i], A[p])]
            live = [i for i in live if A[i][j]]
        A[j], A[live[0]] = A[live[0]], A[j]
        torsion *= A[j][j]
    return abs(torsion)


@dataclass(frozen=True)
class TreeCount:
    """Weighted spanning-tree count of a complex, in the log domain.

    log_count is the log-determinant of the reduced Laplacian.  zero_flag
    means the complex has a non-trivial Laplacian kernel and the count is
    exactly 0; log_count is then -inf.  floor is the smallest non-trivial
    Laplacian eigenvalue; the flag is set exactly when it is below
    zero_threshold, ZERO_RTOL max(1, (d+1) max degree) (`zero_threshold`),
    so the two give the margin; (d+1) max degree is ||L||_inf, at least the
    top eigenvalue.  A flagged floor is recorded as 0.0: it is a
    floating-point estimate of a true zero (`spectra.restricted_extreme`,
    dense or by Lanczos), and its digits are round-off that may differ
    between identical runs.  An unflagged floor above the dense cap is a
    Ritz value whose estimated residual is at the operator's rounding level,
    eps c n (`spectra`).  exact_count is filled only when the enumeration
    oracle was run.
    """

    log_count: float
    trivial_zeros: int
    zero_flag: bool
    floor: float
    zero_threshold: float
    exact_count: int | None = None


def zero_threshold(top: float) -> float:
    """Threshold ZERO_RTOL max(1, top) for numerical zeros; the count's top is ||L||_inf = (d+1) max degree."""
    return ZERO_RTOL * max(1.0, top)


def warn_ambiguous_zeros(value: float, eps: float) -> None:
    """Warn when an eigenvalue lands in the gray zone (eps, AMBIGUOUS_FACTOR * eps)."""
    if eps < value < AMBIGUOUS_FACTOR * eps:
        warnings.warn(f"eigenvalue {value:.3e} is in the ambiguous zone ({eps:.3e}, {AMBIGUOUS_FACTOR * eps:.3e}); "
                      "zero classification may be unreliable", RuntimeWarning, stacklevel=3)


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

    Phase 1 works in rounds on the Schur complement S, starting at R.  Ranked
    by (row nnz, index), a row is a pivot when it ranks below every
    neighbour.  Local minima of a strict order are never adjacent, so the
    pivots I are independent, S[I, I] is its diagonal D and the round is one
    sparse update S <- S[K, K] - C^T diag(1/D) C with C = S[I, K] and K the
    other rows.  It stops when S is denser than SPARSE_FILL_LIMIT or a round
    would take fewer than SPARSE_ROUND_MIN of its rows: a d = 1 path has only
    its two end rows as pivots, so each round would be a whole sparse update
    for two rows.  Phase 2 factors the remainder in packed storage.  A pivot
    <= 0, in either phase, raises np.linalg.LinAlgError with the 1-based row
    of R it belongs to.
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
        pivots = np.flatnonzero(rank < lowest)
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

    The memory guard (`spectra.require_memory`) counts the larger of the
    floor's dense solve (`spectra.dense_extreme_bytes`, up to
    DENSE_EXTREME_MAX rows), which is freed before the factor is built, and
    the packed factor of the whole reduced Laplacian, N(N+1)/2 doubles with
    N = C(n-1, d): phase 1 of the count may eliminate no row at all.  The
    packed order is capped at MAX_PACKED_ORDER because scipy's `dpftrf`
    wrapper checks the packed length as N(N+1)/2 in a C int.
    """
    N = comb(n - 1, d)
    packed, dense = 8 * (N * (N + 1) // 2), dense_extreme_bytes(comb(n, d))
    require_memory(max(packed, dense), f"a tree count at n={n} (its dense floor solve or the packed "
                   f"Cholesky factor of the order-{N} reduced Laplacian)")
    if N > MAX_PACKED_ORDER:
        raise ValueError(
            f"the reduced Laplacian of order {N} is above {MAX_PACKED_ORDER}, the largest "
            "packed order scipy's dpftrf accepts (it checks N(N+1)/2 in a 32-bit int)"
        )


def weighted_tree_count(X: PureComplex, oracle: bool = False) -> TreeCount:
    """Weighted number of d-dimensional spanning trees, without a full spectrum.

    The log-count is the log-determinant of the reduced Laplacian L[t:, t:],
    t = C(n-1, d-1), of L = `X.laplacian`: sparse elimination of its
    low-degree rows, then a packed Cholesky factor of the rest
    (`_reduced_log_det`).  With oracle=True the enumeration result is
    attached and cross-checked.  The oracle's guard, then the count's
    (`require_tree_count_fits`), refuse with ValueError before any operator
    is built.  The floor is a zero below `zero_threshold`((d+1) max degree)
    and warns below AMBIGUOUS_FACTOR times that (`warn_ambiguous_zeros`).
    A pivot <= 0 after the floor cleared the zero threshold raises
    `spectra.NumericalFailure`, a RuntimeError, naming its row of the reduced
    Laplacian; so does an oracle disagreement.
    """
    if oracle:
        require_oracle_fits(X)
    require_tree_count_fits(X.n, X.d)
    L = X.laplacian
    trivial = trivial_zero_count(X)
    floor = restricted_extreme(L, X.n, X.d)
    eps = zero_threshold((X.d + 1) * float(L.diagonal().max()))
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
            raise NumericalFailure(
                f"spectral floor {floor:.3e} is above the zero threshold {eps:.3e}, but the "
                f"Cholesky factor of the reduced Laplacian fails at pivot {exc.args[0]} of "
                f"{L.shape[0] - trivial}"
            ) from None
    result = TreeCount(
        log_count=log_count,
        trivial_zeros=trivial,
        zero_flag=flag,
        floor=floor,
        zero_threshold=eps,
    )
    if not oracle:
        return result
    exact = tree_count_exact(X)
    if flag != (exact == 0):
        raise NumericalFailure(f"oracle disagreement: zero_flag={flag} but exact count {exact}")
    if not flag and abs(log(exact) - log_count) > ORACLE_LOG_RTOL * max(1.0, abs(log_count)):
        raise NumericalFailure(
            f"oracle disagreement: log exact {log(exact):.12f} vs spectral {log_count:.12f}"
        )
    return replace(result, exact_count=exact)


def _node_bytes(R: int, F: int, r: int, j: int, width: int) -> int:
    """Bytes a node at depth j of the oracle's walk holds: its (R - j) x (F - j)
    block and its pivot at `width` bytes an entry, and as 8-byte indices its
    j faces and (node, column, pivot row) for each of its at most F - r + 1
    children."""
    return width * ((R - j) * (F - j) + 1) + 8 * (j + 3 * (F - r + 1))


def _piece_nodes(R: int, F: int, r: int, j: int, width: int) -> int:
    """Nodes in one piece at depth j of the oracle's walk: about ORACLE_CHUNK_BYTES of them, at least one."""
    return max(1, ORACLE_CHUNK_BYTES // _node_bytes(R, F, r, j, width))


def _walk_bytes(R: int, F: int, r: int, width: int) -> int:
    """The most bytes the oracle's walk holds at once besides its R x F boundary block, the root.

    Expanding a piece at depth j holds the piece, its next piece of children
    three times over (the children, and the step's product temporary or the
    pivot search's gathered columns), and every piece lower on the stack
    that still has children to walk.  A piece at depth j has at most
    min(C(F - r + j, j), `_piece_nodes`) nodes, each with at most F - r + 1
    children, and it stays on the stack only when its children can fill
    more than one piece.  Pieces at depth r - 1 have leaves, pivots only.
    """
    spare = F - r
    held = peak = 0
    nodes = 1
    for j in range(r - 1):
        piece = nodes * _node_bytes(R, F, r, j, width) if j else 0
        children = min(comb(spare + j + 1, j + 1), nodes * (spare + 1))
        cap = _piece_nodes(R, F, r, j + 1, width)
        nodes = min(children, cap)
        peak = max(peak, held + piece + 3 * nodes * _node_bytes(R, F, r, j + 1, width))
        if children > cap:
            held += piece
    return peak


def require_oracle_fits(X: PureComplex) -> np.dtype:
    """Refuse, with ValueError, an enumeration of more than ORACLE_MAX_SUBSETS candidate
    trees, or one whose arrays exceed `usable_memory`; else return the walk's width.

    The oracle holds the dense C(n, d) x #d-faces boundary block, the root
    of its walk, and at most the walk's pieces that `_walk_bytes` counts
    from the shape: the piece being expanded, three times its next piece of
    children, and every lower piece with children still to walk, a piece
    being about ORACLE_CHUNK_BYTES of node states or one node.  Each block
    entry takes the bytes of the walk's width, `power_width` of the bound
    2 (d + 1)^r that `tree_count_exact` proves, 2 at d = 1: 1 byte at
    d = 1; at d = 2, 2 up to r = 8 and 4 up to r = 18; 8, a pointer, on the
    Python-int path.
    """
    r = comb(X.n - 1, X.d)
    subsets = comb(X.num_dfaces, r)
    if subsets > ORACLE_MAX_SUBSETS:
        raise ValueError(
            f"C({X.num_dfaces}, {r}) = {subsets} subsets exceeds the "
            f"enumeration guard {ORACLE_MAX_SUBSETS}"
        )
    R = comb(X.n, X.d)
    dtype = power_width(1 if X.d == 1 else X.d + 1, r, 2)
    walk = _walk_bytes(R, X.num_dfaces, r, dtype.itemsize) if subsets else 0
    require_memory(
        dtype.itemsize * R * X.num_dfaces + walk,
        f"the oracle's dense {R} x {X.num_dfaces} boundary block and the pieces of its walk",
    )
    return dtype


def _children(states: np.ndarray, faces: np.ndarray, spare: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(node, column, pivot row) of every child of a piece at depth j, in lexicographic order.

    Node i may take any face after its last one up to face j + spare: at
    depth j face c is column c - j of the block, so these are among its
    first spare + 1 columns.  The pivot row is the first nonzero row of the
    face's column, and a column with none is dependent.
    """
    j = faces.shape[1]
    last = faces[:, -1] - j if j else np.full(len(faces), -1)
    node, col = np.nonzero(np.arange(spare + 1) > last[:, None])
    nonzero = states[node, :, col] != 0
    row = nonzero.argmax(axis=1)
    found = nonzero[np.arange(len(row)), row]
    return node[found], col[found], row[found]


def _bareiss_step(
    states: np.ndarray, prev: np.ndarray, node: np.ndarray, col: np.ndarray, row: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """One fraction-free (Bareiss 1968) step per child: its trailing block and its pivot.

    The pivot row of node's block is swapped into row 0 and made positive
    by negating it, which only flips the sign of the minors, and then
    block <- (p block - a b) // p_prev on rows 1.. and columns 1.., an exact
    division by the parent's pivot.  Most pivots of +-1 columns are 1, so
    only children whose own pivot is not 1 are multiplied, and only those
    whose parent's is not 1 divided.
    """
    child = states[node, 1:, 1:]
    below = states[node, 1:, col]
    moved = np.flatnonzero(row)
    child[moved, row[moved] - 1] = states[node[moved], 0, 1:]
    below[moved, row[moved] - 1] = states[node[moved], 0, col[moved]]
    pivot = states[node, row, col]
    sign = np.where(pivot < 0, -1, 1).astype(states.dtype)
    pivot = pivot * sign
    scaled = np.flatnonzero(pivot != 1)
    child[scaled] *= pivot[scaled, None, None]
    child -= below[:, :, None] * (states[node, row, 1:] * sign[:, None])[:, None, :]
    prev = prev[node]
    divided = np.flatnonzero(prev != 1)
    child[divided] //= prev[divided, None, None]
    return child, pivot


def tree_count_exact(X: PureComplex) -> int:
    """Enumeration oracle: sum of squared torsion orders over all spanning trees.

    A candidate is any C(n-1, d)-subset of the d-faces; it is a tree exactly
    when its boundary columns are independent over the rationals, and its
    weight is the squared torsion of the cokernel of those columns, the gcd
    of their r x r minors, r = C(n-1, d).  The candidates are the leaves of
    a prefix tree, faces in increasing order.  A node at depth j holds its
    fraction-free (Bareiss) eliminated trailing block, rows j.. and columns
    j.. of the C(n, d) x #d-faces boundary, and each child takes a later
    face c with one Bareiss step on column c (`_bareiss_step`), pivoting on
    the first nonzero row; a prefix with no pivot is dependent and drops its
    subtree, so every prefix is eliminated once.  The walk is depth-first,
    one batched step per piece of about ORACLE_CHUNK_BYTES of children, so
    memory does not grow with the subset count.  At depth r the pivot is a
    maximal minor: 1 gives torsion 1, and any other tree gets its torsion
    from `_torsion`, an integer triangular form of its columns.  Every
    Bareiss entry is a minor of columns with d + 1 entries of +-1, so by
    Hadamard's inequality no product exceeds (d + 1)^r and no step's value
    2 (d + 1)^r; the block is built directly at the narrowest integer width
    holding that (`power_width`, from `require_oracle_fits`), int32 at d = 2
    for 9 <= r <= 18, and past int64 the same code runs on Python ints.  At d = 1 the boundary is an
    oriented incidence matrix, totally unimodular, so every entry is 0 or
    +-1, no value exceeds 2 and every r runs in int8.  Fewer d-faces than r
    give 0 at once; otherwise more than ORACLE_MAX_SUBSETS candidates, or
    arrays above usable memory, are refused (ValueError) before any work
    (`require_oracle_fits`).
    """
    r = comb(X.n - 1, X.d)
    if X.num_dfaces < r:
        return 0
    width = require_oracle_fits(X)
    B = X.boundary.tocoo()
    block = np.zeros(B.shape, dtype=width)  # column c: the boundary of d-face c
    block[B.row, B.col] = B.data.astype(np.int8)
    R, F = block.shape
    spare = F - r
    root = (block[None], np.empty((1, 0), dtype=np.intp))
    stack = [(*root, np.ones(1, dtype=block.dtype), _children(*root, spare), 0)]
    total = 0
    while stack:
        states, faces, prev, (node, col, row), start = stack.pop()
        j = faces.shape[1]
        if j + 1 == r:  # the children are leaves, and their pivots maximal minors
            pivot = abs(states[node, row, col])
            unit = pivot == 1
            total += int(unit.sum())
            for i in np.flatnonzero(~unit):
                total += _torsion(block[:, [*faces[node[i]], j + col[i]]]) ** 2
            continue
        stop = start + _piece_nodes(R, F, r, j + 1, block.itemsize)
        if stop < len(node):
            stack.append((states, faces, prev, (node, col, row), stop))
        node, col, row = node[start:stop], col[start:stop], row[start:stop]
        child, pivot = _bareiss_step(states, prev, node, col, row)
        child_faces = np.column_stack([faces[node], j + col])
        stack.append((child, child_faces, pivot, _children(child, child_faces, spare), 0))
    return total

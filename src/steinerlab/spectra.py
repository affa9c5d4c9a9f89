"""Signed boundary, upper Laplacian and adjacency operators on (d-1)-forms.

Skew-symmetric forms on oriented (d-1)-faces have an orthonormal basis
indexed by one chosen orientation per face (sorted representative, sign +1),
ordered lexicographically.  In that basis the signed boundary B of the
d-faces (one column per d-face, entry (-1)**i on the facet omitting vertex i)
is a sparse integer matrix, the upper Laplacian is L = B B^T and the signed
adjacency is A = diag(L) - L.

Reversing a face's orientation is -1 on forms, so the signed count of
closed l-walks at a face on the oriented line-graph, phi_l(s+, s+) -
phi_l(s+, s-), is the diagonal entry (A^l)_ss, and their sum over faces is
the exact trace of an integer power of A (`signed_trace`).  On the
arboreal complex the walk counts have a closed recursion instead
(`arboreal.signed_walk_count`).

The trivial kernel of L is the image of the coboundary delta from the
(d-2)-forms of the complete skeleton; its dimension is C(n-1, d-1).  On the
complete skeleton delta delta^T / n projects onto that image, so for a
symmetric M and P = I - delta delta^T / n, P M P + c delta delta^T has the
spectrum of M on ker delta^T and c n, C(n-1, d-1) times.  With c n beyond
the wanted end, `restricted_extreme` is the one such solve, by Lanczos: the
tree count's spectral floor is its smallest of L, where L delta = 0 makes
P L P = L (see `trees`), and the gap statistic its largest of A (see
`experiments`).  The floor's zero threshold needs no solve: it is scaled
to ||L||_inf = (d+1) max degree (`zero_threshold`), the same row-sum bound
as the shift.  `spectral_summary` is the one dense solve.
"""

from __future__ import annotations

import os
import resource
import warnings
from dataclasses import dataclass
from math import comb, frexp

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

from .complexes import PureComplex, face_array, facet_ranks

__all__ = [
    "SpectralSummary",
    "boundary_matrix",
    "sparse_laplacian",
    "signed_adjacency",
    "coboundary_matrix",
    "adjacency_matrix",
    "laplacian_matrix",
    "trivial_zero_count",
    "moments",
    "spectral_summary",
    "signed_trace",
]

ZERO_RTOL = 1e-8
AMBIGUOUS_FACTOR = 1e3


def _signed_incidence(faces: np.ndarray, n: int) -> sp.csr_matrix:
    """Signed incidence of faces (rows of w sorted vertex ids) to their facets.

    The C(n, w-1) x len(faces) matrix whose column j holds (-1)**i in the
    row of the facet that omits faces[j][i].
    """
    width = faces.shape[1]
    facet_rows = facet_ranks(faces, n).T.ravel()
    cols = np.tile(np.arange(len(faces)), width)
    signs = np.repeat([(-1.0) ** i for i in range(width)], len(faces))
    return sp.csr_matrix((signs, (facet_rows, cols)), shape=(comb(n, width - 1), len(faces)))


def boundary_matrix(X: PureComplex) -> sp.csr_matrix:
    """Signed boundary B of the d-faces: C(n, d) rows in form-basis order, columns in X.faces order."""
    return _signed_incidence(X.faces, X.n)


def sparse_laplacian(X: PureComplex) -> sp.csr_matrix:
    """Upper Laplacian L = B B^T: deg(sigma) on the diagonal, (-1)**(i+j) per shared d-face."""
    B = boundary_matrix(X)
    return (B @ B.T).tocsr()


def signed_adjacency(L: sp.spmatrix) -> sp.csr_matrix:
    """Signed adjacency diag(L) - L of the upper Laplacian L (`sparse_laplacian`), in its dtype.

    Each d-face and facet pair (i, j) contributes (-1)**(i+j+1) to the entry
    of the two facets: the sign is +1 exactly when the orientation of facet
    j induced alongside +facet i is the negative representative.  For d = 1
    this is the ordinary graph adjacency matrix.
    """
    return (sp.diags(L.diagonal(), dtype=L.dtype) - L).tocsr()


def coboundary_matrix(n: int, d: int) -> sp.csr_matrix:
    """Coboundary delta from (d-2)-forms of the complete skeleton, C(n, d) x C(n, d-1).

    Row sigma holds (-1)**i in the column of the (d-2)-face omitting sigma's
    i-th vertex; for d = 1 the single column is the empty face and every
    entry is +1.
    """
    return _signed_incidence(face_array(n, d - 1), n).T.tocsr()


# fixed Lanczos start vector: reproducible, and never in ker L (ones is, at d = 1)
LANCZOS_SEED = 20090601


class NumericalFailure(RuntimeError):
    """A solve that gave no number to trust: a Lanczos run that did not converge, or a failed check."""


def restricted_extreme(M: sp.csr_matrix, n: int, d: int, which: str) -> float:
    """The smallest ("SA") or largest ("LA") eigenvalue of a symmetric sparse M on ker delta^T.

    Lanczos runs on P M P + c delta delta^T, c a power of two (so c delta
    delta^T x is exact) with c n above the largest absolute row sum of M,
    negative for "LA", from a seeded start vector; NumericalFailure if
    ARPACK stops short.  When M delta = 0, as for L, P M P = M and no
    projection is formed.  The row sums come from a copy: `abs(M)` sorts M's
    indices in place, and with them the rounding of every later M @ x.
    """
    delta = coboundary_matrix(n, d)
    delta_t = delta.T.tocsr()
    bound = float(abs(M.copy()).sum(axis=1).max())
    c = 2.0 ** frexp((bound + 1) / n)[1] * {"SA": 1.0, "LA": -1.0}[which]
    projected = bool((M @ delta).count_nonzero())

    def matvec(x):
        trivial = delta @ (delta_t @ x)  # n (I - P) x
        if not projected:
            return M @ x + c * trivial
        y = M @ (x - trivial / n)
        return y - delta @ (delta_t @ y) / n + c * trivial

    op = LinearOperator(M.shape, matvec=matvec, dtype=float)
    v0 = np.random.default_rng(LANCZOS_SEED).standard_normal(M.shape[0])
    try:
        return float(eigsh(op, k=1, which=which, v0=v0, return_eigenvectors=False)[0])
    except ArpackNoConvergence as exc:
        raise NumericalFailure(f"Lanczos ({which}) did not converge: {exc}") from None


# memory limits of this process's cgroup (v2, then v1); "max" or a missing
# file means no limit there
CGROUP_MEMORY_LIMITS = ("/sys/fs/cgroup/memory.max", "/sys/fs/cgroup/memory/memory.limit_in_bytes")


def usable_memory() -> int:
    """Bytes one array may take: physical memory, capped by cgroup and address-space limits."""
    limits = [os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")]
    for path in CGROUP_MEMORY_LIMITS:
        try:
            with open(path) as fh:
                text = fh.read().strip()
        except OSError:
            continue
        if text.isdigit():
            limits.append(int(text))
    soft, _ = resource.getrlimit(resource.RLIMIT_AS)
    if soft != resource.RLIM_INFINITY:
        limits.append(soft)
    return min(limits)


def resident_memory() -> int:
    """Bytes this process holds now: resident pages from /proc/self/statm, else peak RSS."""
    try:
        with open("/proc/self/statm") as fh:
            return int(fh.read().split()[1]) * resource.getpagesize()
    except OSError:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def fits_memory(need: int) -> bool:
    """Whether `need` more bytes and the resident set fit in `usable_memory`."""
    return need + resident_memory() <= usable_memory()


def require_memory(need: int, what: str) -> None:
    """Refuse, with ValueError, `what` when its `need` bytes and the resident set exceed `usable_memory`."""
    have = usable_memory()
    held = resident_memory()
    if need + held > have:
        raise ValueError(
            f"{what} needs {need / 2**30:.1f} GiB; with the {held / 2**30:.1f} GiB this process holds "
            f"that is more than the {have / 2**30:.1f} GiB it may use "
            "(physical memory, cgroup and address-space limits)"
        )


def require_dense_fits(m: int) -> None:
    """Refuse, with ValueError, an m x m float64 array that does not fit beside the process in `usable_memory`."""
    require_memory(8 * m * m, f"a dense {m} x {m} matrix")


def laplacian_matrix(X: PureComplex) -> np.ndarray:
    """Dense upper Laplacian, rows and columns in lexicographic face order; size-checked first."""
    require_dense_fits(comb(X.n, X.d))
    return sparse_laplacian(X).toarray()


def adjacency_matrix(X: PureComplex) -> np.ndarray:
    """Dense signed adjacency diag(L) - L, in lexicographic face order; size-checked first."""
    require_dense_fits(comb(X.n, X.d))
    return signed_adjacency(sparse_laplacian(X)).toarray()


def trivial_zero_count(X: PureComplex) -> int:
    """Dimension C(n-1, d-1) of the trivial Laplacian kernel (coboundary image from below).

    The coboundary from (d-2)-forms of the complete skeleton has this rank;
    tests confirm the closed form against the exact rank of its tuple-built rows.
    """
    return comb(X.n - 1, X.d - 1)


@dataclass(frozen=True)
class SpectralSummary:
    """Eigenvalues, trivial-zero count, moments and histogram of a spectrum."""

    eigenvalues: np.ndarray
    moments: tuple[float, ...]
    hist_edges: np.ndarray
    hist_masses: np.ndarray
    trivial_zero_count: int | None = None


def power_width(base: int, exp: int, scale: int = 1) -> np.dtype:
    """The narrowest signed integer dtype that holds scale * base^exp, or object (Python ints) past int64.

    Exact integer kernels run at the width of a proven bound on every
    intermediate value, so each product moves as few bytes as the bound
    allows.  For base, exp >= 0 and scale >= 1; with base >= 2 and
    exp >= 63 the bound is past int64 and no power is formed.
    """
    if base >= 2 and exp >= 63:
        return np.dtype(object)
    bound = scale * base**exp
    for dtype in (np.int8, np.int16, np.int32, np.int64):
        if bound <= np.iinfo(dtype).max:
            return np.dtype(dtype)
    return np.dtype(object)


# the fill from which `_traces` makes a power dense, inside the measured cross-over
DENSE_POWER_FILL = 1 / 9
# `_traces` forms its last power from a dense one this many bytes of rows at a
# time.  Timed as `_traces(A, [5])` plus `[6]` against the whole power,
# interleaved: at m = 465 (d = 2, k = 5, int32, a dense power 865 KB) 128 KiB
# blocks took 0.80 to 0.83 of its time, 256 KiB 0.83 to 1.0 and 512 KiB 1.0 to
# 1.05 (a block and the dense power then outgrow one core's 2 MiB L2); at
# m = 210 to 1953, int32 and int64, 128 KiB took 0.96 to 1.18 of its time.
TRACE_BLOCK_BYTES = 2**17


def _row_dots(P, Q) -> int:
    """The sum of P * Q, for rows of two powers of one shape: each row summed at their width, the rows as Python ints."""
    if not sp.issparse(P):
        P, Q = Q, P
    if not sp.issparse(P):
        rows = np.einsum("ij,ij->i", P, Q)
    elif P is Q:  # no duplicate entries: the squares of the stored ones, without the sort `P.power` does
        rows = sp.csr_matrix((P.data * P.data, P.indices, P.indptr), shape=P.shape).sum(axis=1)
    else:
        rows = P.multiply(Q).sum(axis=1)
    return sum(np.asarray(rows).ravel().tolist())


def _traces(M: sp.spmatrix, lengths: list[int]) -> list[int]:
    """Exact tr(M^l) as Python ints for each l in `lengths`, of a symmetric integer matrix.

    Walks j = 0, 1, 2, ... up to last = ceil(top/2), top the longest
    length, holding only M^(j-1) and M^j: tr(M^2j) is the sum of the
    squares of M^j and tr(M^(2j-1)) the sum of M^(j-1) * M^j.  With R the
    largest absolute row sum of M, every entry of a power, every partial sum
    forming it and every row sum of such a product is at most R^top in
    absolute value, so the powers run at `power_width(R, top)`: int32 for
    the signed adjacency at d = 2, k = 5 up to length 9.  With R at most 1,
    M has at most one +-1 a row, so M^3 = M and a length l >= 3 is taken as
    2 - l mod 2.  Refuses (ValueError) a matrix that is not integer, or,
    before any product, one whose powers could leave int64.  Duplicate
    entries are summed in a copy of M.  Each row of a product sums at the
    width, the rows as Python ints.

    M^j with 2 <= j < last is made a dense array before M^(j+1) is formed
    once it fills DENSE_POWER_FILL of its m^2 entries and two dense powers
    at the width fit beside the process in `usable_memory`.  Timed as
    `moments(M, 2j + 2)` with M^j the first dense power, against all-sparse
    powers, on 31 sampled operators of order 465 to 6105, the switch was no
    faster at any fill of M^j up to 10% (0.4 to 1.0 times the speed), 0.9 to
    1.24 times as fast from 11.4% to 12.5%, and faster from 13% at every
    order (1.02 to 2.5 times); at m = 465 (d = 2, k = 5) M^2 fills 12.5% to
    13.4%.  The order sets only the memory: a dense int64 power at m = 6105
    takes 298 MB.  When M^(last-1) is dense, M^last is never formed whole:
    it is formed TRACE_BLOCK_BYTES of rows at a time, and each block is
    reduced to its row dots with itself and with M^(last-1) at once.
    """
    M = sp.csr_matrix(M, copy=True)
    M.sum_duplicates()
    ints = M.astype(np.int64)
    if (ints.data != M.data).any():
        raise ValueError("exact traces need an integer matrix")
    R = int(abs(ints).sum(axis=1).max())
    if R <= 1:
        lengths = [ell if ell < 3 else 2 - ell % 2 for ell in lengths]
    top = max(lengths, default=0)
    width = power_width(R, top)
    if width == object:
        raise ValueError(f"power {top} of a matrix with absolute row sum {R} can leave int64 ({R}^{top} >= 2^63)")
    ints = ints.astype(width)
    m = M.shape[0]
    last = (top + 1) // 2
    traces = dict.fromkeys(lengths, 0)
    prev, power = None, sp.identity(m, dtype=width, format="csr")
    for j in range(last + 1):
        wanted = traces.keys() & {2 * j - 1, 2 * j}
        if j:
            prev = power  # M^(j-2) is dropped before M^j is formed
            if j == last and not sp.issparse(prev):
                step = max(1, TRACE_BLOCK_BYTES // (width.itemsize * m))
                for a in range(0, m, step):
                    block = ints[a : a + step] @ prev
                    for ell in wanted:
                        traces[ell] += _row_dots(block, prev[a : a + step] if ell % 2 else block)
                break
            power = ints if j == 1 else ints @ prev
        filled = 2 <= j < last and sp.issparse(power) and power.nnz >= DENSE_POWER_FILL * m * m
        if filled and fits_memory(2 * width.itemsize * m * m):
            power = power.toarray()
        for ell in wanted:
            traces[ell] = _row_dots(power, prev if ell % 2 else power)
    return [traces[ell] for ell in lengths]


def moments(M: np.ndarray | sp.spmatrix, lmax: int) -> list[float]:
    """Spectral moments (1/m) tr(M^l) for l = 0..lmax of a symmetric integer matrix, from exact traces.

    The traces come from one walk over the powers (`_traces`), which holds
    at most two of them, at the narrowest integer width that R^lmax allows
    (R the largest absolute row sum of M), so memory does not grow with
    lmax.  Refuses (ValueError) a matrix that is not symmetric: the traces
    pair M^a with M^b, which is M^a with the transpose of M^b only when M is,
    or one whose powers up to lmax could leave int64.
    """
    M = sp.csr_matrix(M)
    if (M != M.T).nnz:
        raise ValueError("moments need a symmetric matrix")
    return [t / M.shape[0] for t in _traces(M, list(range(lmax + 1)))]


def _summary_from_eigs(
    eigs: np.ndarray, bins: int, lmax: int, trivial_zeros: int | None
) -> SpectralSummary:
    mom = tuple(float(np.mean(eigs**ell)) for ell in range(lmax + 1))
    lo, hi = float(eigs.min()), float(eigs.max())
    if hi <= lo:
        hi = lo + 1.0
    masses, edges = np.histogram(eigs, bins=bins, range=(lo, hi))
    return SpectralSummary(
        eigenvalues=eigs,
        moments=mom,
        hist_edges=edges,
        hist_masses=masses / len(eigs),
        trivial_zero_count=trivial_zeros,
    )


def spectral_summary(
    X: PureComplex, operator: str = "laplacian", bins: int = 40, lmax: int = 8
) -> SpectralSummary:
    """ESD of the complex's Laplacian or adjacency, with trivial-zero accounting.

    M is symmetric by construction and M.T is its Fortran-order view, so
    LAPACK `dsyevd` solves it in place, with no second m x m array.
    """
    builders = {"laplacian": laplacian_matrix, "adjacency": adjacency_matrix}
    if operator not in builders:
        raise ValueError(f"unknown operator {operator!r}")
    if bins < 1:
        raise ValueError(f"need bins >= 1, got {bins}")
    if lmax < 0:
        raise ValueError(f"need lmax >= 0, got {lmax}")
    M = builders[operator](X)
    eigs = scipy.linalg.eigvalsh(M.T, overwrite_a=True, check_finite=False, driver="evd")
    return _summary_from_eigs(eigs, bins, lmax, trivial_zero_count(X))


def zero_threshold(top: float) -> float:
    """Threshold ZERO_RTOL max(1, top) for numerical zeros, top the top eigenvalue or a bound on it.

    The tree count passes ||L||_inf = (d+1) max degree (see `trees`).
    """
    return ZERO_RTOL * max(1.0, top)


def warn_ambiguous_zeros(value: float, eps: float) -> None:
    """Warn when an eigenvalue lands in the gray zone (eps, AMBIGUOUS_FACTOR * eps)."""
    if eps < value < AMBIGUOUS_FACTOR * eps:
        warnings.warn(
            f"eigenvalue {value:.3e} is in the ambiguous zone ({eps:.3e}, {AMBIGUOUS_FACTOR * eps:.3e}); "
            "zero classification may be unreliable",
            RuntimeWarning,
            stacklevel=3,
        )


def signed_trace(X: PureComplex, length: int) -> int:
    """Exact integer tr(A^l) of the signed adjacency A: signed closed l-walks summed over faces.

    A = diag(L) - L with L = B B^T is symmetric, as `_traces` needs; it is
    built here, so unlike `moments` this does not check it.  The powers run
    at `power_width(R, l)`, R the largest absolute row sum of A (at most d
    times the largest degree): int32 for d = 2, k = 5 up to l = 9.  Raises
    ValueError before any product whose entries could leave int64.  A
    matching (d = 1, k = 1) has absolute row sums at most 1, so A^3 = A and
    `_traces` forms no power past A.
    """
    if length < 0:
        raise ValueError("walk length must be >= 0")
    return _traces(signed_adjacency(sparse_laplacian(X)), [length])[0]

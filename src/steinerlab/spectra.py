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
complete skeleton delta delta^T has the single non-zero eigenvalue n on that
image and L delta = 0, so for c > 0 the spectrum of L + c delta delta^T is
the non-trivial spectrum of L together with c n repeated C(n-1, d-1) times.
That identity lets the spectral floor skip the full spectrum, and tree
counts take the determinant of a reduced Laplacian instead (see `trees`);
delta delta^T / n projects onto that image, which gives the gap statistic
by Lanczos (see `experiments`).  `spectral_summary` is the one dense solve.
"""

from __future__ import annotations

import os
import resource
import warnings
from dataclasses import dataclass
from math import comb, factorial

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import eigsh

from .complexes import PureComplex, all_faces

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


def _binom(x: np.ndarray, k: int) -> np.ndarray:
    """Elementwise C(x, k) for non-negative integer arrays (0 where x < k)."""
    out = np.ones_like(x)
    for j in range(k):
        out = out * (x - j)
    return out // factorial(k)


def _lex_ranks(faces: np.ndarray, n: int) -> np.ndarray:
    """Positions of sorted faces (rows of vertex ids in [1, n]) in all_faces order.

    With a_i = n - v_i the lexicographic rank is C(n, r) - 1 - sum_i C(a_i, r - i).
    """
    r = faces.shape[1]
    rank = np.full(len(faces), comb(n, r) - 1, dtype=np.int64)
    for i in range(r):
        rank -= _binom(n - faces[:, i], r - i)
    return rank


def _signed_incidence(faces: np.ndarray, n: int) -> sp.csr_matrix:
    """Signed incidence of faces (rows of w sorted vertex ids) to their facets.

    The C(n, w-1) x len(faces) matrix whose column j holds (-1)**i in the
    row of the facet that omits faces[j][i].
    """
    width = faces.shape[1]
    facet_rows = np.concatenate([_lex_ranks(np.delete(faces, i, axis=1), n) for i in range(width)])
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
    sigmas = np.array(list(all_faces(n, d - 1)), dtype=np.int64).reshape(-1, d)
    return _signed_incidence(sigmas, n).T.tocsr()


# fixed Lanczos start vector: reproducible, and never in ker L (ones is, at d = 1)
LANCZOS_SEED = 20090601


def _lanczos_extreme(op, which: str) -> float:
    v0 = np.random.default_rng(LANCZOS_SEED).standard_normal(op.shape[0])
    return float(eigsh(op, k=1, which=which, v0=v0, return_eigenvectors=False)[0])


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


def int64_power_overflows(R: int, lmax: int) -> bool:
    """Whether R^lmax >= 2^63, for R, lmax >= 0; without the power when R >= 2 and lmax >= 63."""
    return (R >= 2 and lmax >= 63) or R**lmax >= 2**63


def require_int64_powers(M: sp.spmatrix, lmax: int) -> None:
    """Refuse, with ValueError, powers up to M^lmax whose entries could leave int64.

    With R the largest absolute row sum of M, every entry of M^l, every
    partial sum forming it, and every row sum of the elementwise product
    M^a * (M^b)^T with a + b = l is at most R^l in absolute value.
    """
    R = int(abs(M).sum(axis=1).max())
    if int64_power_overflows(R, lmax):
        raise ValueError(
            f"power {lmax} of a matrix with absolute row sum {R} can leave int64 "
            f"({R}^{lmax} >= 2^63)"
        )


def _int64_powers(M: np.ndarray | sp.spmatrix, lmax: int) -> list[sp.csr_matrix]:
    """M^0 .. M^ceil(lmax/2) of an integer matrix, in int64, for exact traces up to tr(M^lmax).

    Refuses (ValueError) a matrix that is not integer, or one whose powers
    or trace sums up to lmax could leave int64 (`require_int64_powers`).
    """
    M = sp.csr_matrix(M)
    ints = M.astype(np.int64)
    if (ints != M).nnz:
        raise ValueError("exact traces need an integer matrix")
    require_int64_powers(ints, lmax)
    powers = [sp.identity(M.shape[0], dtype=np.int64, format="csr"), ints]
    while len(powers) <= (lmax + 1) // 2:
        powers.append(powers[-1] @ ints)
    return powers


def _trace(powers: list[sp.csr_matrix], ell: int) -> int:
    """Exact tr(M^ell) as a Python int from `_int64_powers`.

    tr(M^ell) = sum(M^a * (M^b)^T) with a = ceil(ell/2), b = ell - a; each
    row of that product sums within int64 and the rows are summed as
    Python ints.
    """
    a = (ell + 1) // 2
    rows = powers[a].multiply(powers[ell - a].T).sum(axis=1)
    return sum(np.asarray(rows).ravel().tolist())


def moments(M: np.ndarray | sp.spmatrix, lmax: int) -> list[float]:
    """Spectral moments (1/m) tr(M^l) for l = 0..lmax of an integer matrix, from exact traces."""
    powers = _int64_powers(M, lmax)
    return [_trace(powers, ell) / M.shape[0] for ell in range(lmax + 1)]


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
    """Classification threshold for numerical zeros, scaled to the top eigenvalue."""
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

    Raises ValueError before any product whose entries could leave int64
    (`require_int64_powers`).  With absolute row sums at most 1 (a matching
    at d = 1, k = 1), A is symmetric with at most one +-1 a row and a zero
    diagonal, so A^3 = A and a length l >= 3 has the trace of 2 - l mod 2.
    """
    if length < 0:
        raise ValueError("walk length must be >= 0")
    A = signed_adjacency(sparse_laplacian(X))
    if length >= 3 and abs(A).sum(axis=1).max() <= 1:
        length = 2 - length % 2
    return _trace(_int64_powers(A, length), length)

"""Solves and traces of the operators of a complex on (d-1)-forms.

Skew-symmetric forms on oriented (d-1)-faces have an orthonormal basis
indexed by one chosen orientation per face (sorted representative, sign +1),
ordered lexicographically.  In that basis the signed boundary B of the
d-faces (one column per d-face, entry (-1)**i on the facet omitting vertex i)
the upper Laplacian L = B B^T and the signed adjacency A = diag(L) - L are
sparse integer matrices that the complex owns (`PureComplex`).

Reversing a face's orientation is -1 on forms, so the signed count of
closed l-walks at a face on the oriented line-graph, phi_l(s+, s+) -
phi_l(s+, s-), is the diagonal entry (A^l)_ss, and their sum over faces is
the exact trace of an integer power of A (`signed_trace`: the complex
keeps each trace, and one walk of the powers answers both lengths that end
on the same power).  On the arboreal complex the walk counts have a closed
recursion instead (`arboreal.signed_walk_count`).

The trivial kernel of L is the image of the coboundary delta from the
(d-2)-forms of the complete skeleton; its dimension is C(n-1, d-1).  On the
complete skeleton delta delta^T / n projects onto that image, so for a
symmetric M and P = I - delta delta^T / n, P M P + c delta delta^T has the
spectrum of M on ker delta^T and c n, C(n-1, d-1) times.  With c n above
the spectrum, `restricted_extreme` is the one such solve, of the smallest
eigenvalue, and it defines that operator once: above DENSE_EXTREME_MAX rows
a plain Lanczos recurrence applies it, stopped at the operator's rounding
level, and up to the cap the dense path solves the operator the Lanczos
path applies, by one LAPACK call.  The tree count's spectral floor is its
smallest of L, where L delta = 0 makes P L P = L (see `trees`), and the gap
statistic minus its smallest of -A (see `experiments`).  `spectral_summary`
is the one full spectrum.
"""

from __future__ import annotations

import os
import resource
from array import array
from dataclasses import dataclass
from math import comb, frexp

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .complexes import PureComplex, _complete_coboundary

__all__ = [
    "NumericalFailure",
    "SpectralSummary",
    "coboundary_matrix",
    "adjacency_matrix",
    "laplacian_matrix",
    "trivial_zero_count",
    "moments",
    "spectral_summary",
    "signed_trace",
]

def coboundary_matrix(n: int, d: int) -> sp.csr_matrix:
    """Coboundary delta from (d-2)-forms of the complete skeleton, C(n, d) x C(n, d-1).

    Row sigma holds (-1)**i in the column of the (d-2)-face omitting sigma's
    i-th vertex; for d = 1 the single column is the empty face and every
    entry is +1.  Built once per (n, d), canonical and read-only (`complexes`).
    """
    return _complete_coboundary(n, d)


# fixed Lanczos start vector: reproducible, and never in ker L (ones is, at d = 1)
LANCZOS_SEED = 20090601
# `restricted_extreme` solves an operator of order m up to this by one dense
# LAPACK call (`eigvalsh`, every eigenvalue: asked for one, `dsyevr`'s bisection
# failed on the degenerate top of A at d = 2, k = 2, m = 105) and a larger one
# by Lanczos.  Median ms of the whole call at d = 2, k = 5 (m = 10: d = 1,
# k = 4), the range of two warmed-up runs on a 2-vCPU Xeon VM with OpenBLAS at
# 2 threads, delta built once per (n, d):
#   m                 10         21         105        210      465       990
#   smallest of L  0.13-0.14  0.15-0.16  0.58-0.65  2.4-2.5  11-12     50-51   dense
#                  1.3        3.4        1.6-1.8    2.6-2.7  4.4       9.1-9.8 Lanczos
#   smallest of -A 0.16-0.18  0.16-0.17  0.64-0.68  2.3-2.4  12        53-57   dense
#                  1.6-1.7    1.9        1.9-2.0    3.0-3.1  5.7-5.9   13      Lanczos
# The cross-over lies near m = 210; at 465 the dense solve costs up to about
# 7 ms more.  The cap stays at 500 for degenerate spectra, not for speed:
# a dense solve returns every eigenvalue, while a Krylov method from one start
# vector has no such guarantee; ARPACK's Lanczos settled on a wrong eigenvalue at
# d = 2, k = 2, m = 105 (a nonzero floor of a singular reduced Laplacian).
DENSE_EXTREME_MAX = 500


def dense_extreme_bytes(m: int) -> int:
    """Bytes of the m x m float64 arrays `restricted_extreme` holds at once for m rows: 0 above the cap.

    Up to DENSE_EXTREME_MAX rows its matvec of the identity updates one
    result array in place and holds at most four such arrays: the identity,
    n (I - P) x and, when M delta != 0 (as for -A), (I - P) x and M's
    product of it, or that product and delta delta^T of it; three when
    M delta = 0, as for L.  A delta^T product, C(n, d-1) x m, comes on top,
    at most one more array when C(n, d-1) <= C(n, d), that is 2d <= n + 1.
    tracemalloc read a peak of 4.17 such arrays for -A and 3.02 for L at
    d = 2, k = 5, m = 105, and 4.07 and 3.00 at m = 465.
    """
    return 5 * 8 * m * m if m <= DENSE_EXTREME_MAX else 0


# the Lanczos recurrence reads its Ritz estimate every LANCZOS_CHECK steps and
# gives up after LANCZOS_STEPS times the operator's order: the hardest rows seen,
# d = 2, k = 3, seed 11, took up to 1,070 steps at m = 990 and 2,150 at m = 1953
# (k = 5 rows at m = 6105 take 430-560)
LANCZOS_CHECK = 10
LANCZOS_STEPS = 10


class NumericalFailure(RuntimeError):
    """A solve that gave no number to trust: a dense or Lanczos eigensolve that failed, or a failed check."""


def _lanczos_extreme(matvec, v: np.ndarray, tol: float, noise: float, steps: int) -> float:
    """The smallest eigenvalue of a symmetric operator, by plain Lanczos from v.

    The three-term recurrence runs without restarts or reorthogonalization:
    it holds three vectors and the diagonal alpha and off-diagonal beta of
    the tridiagonal T, 8 bytes a step each.  Lost orthogonality only repeats
    converged Ritz values, and none falls below the smallest eigenvalue by
    more than O(eps ||op||) (Paige 1980).  Every LANCZOS_CHECK steps the
    smallest Ritz value of T and the last entry s of its vector are read
    (`eigh_tridiagonal`), and the value is returned once its estimate
    |beta s| is at most tol.  A beta at most `noise`, the rounding of one
    matvec, closes an invariant Krylov subspace: the value is returned at
    once, and no vector is divided by a vanishing beta.  NumericalFailure
    after `steps` steps.
    """
    v = v / np.linalg.norm(v)
    v_prev = None
    alpha, beta = array("d"), array("d")
    for step in range(1, steps + 1):
        w = matvec(v)
        if v_prev is not None:
            w -= beta[-1] * v_prev
        alpha.append(float(v @ w))
        w -= alpha[-1] * v
        beta.append(float(np.linalg.norm(w)))
        invariant = beta[-1] <= noise
        if invariant or step % LANCZOS_CHECK == 0 or step == steps:
            theta, s = scipy.linalg.eigh_tridiagonal(alpha, beta[:-1], select="i", select_range=(0, 0))
            if invariant or beta[-1] * abs(s[-1, 0]) <= tol:
                return float(theta[0])
        v_prev, v = v, w
        v /= beta[-1]
    raise NumericalFailure(f"Lanczos did not converge in {steps} steps")


def restricted_extreme(M: sp.csr_matrix, n: int, d: int) -> float:
    """The smallest eigenvalue of a symmetric sparse M on ker delta^T; the largest is minus that of -M.

    The solve is of P M P + c delta delta^T, c a power of two (so c delta
    delta^T x is exact) with c n above the largest absolute row sum of M;
    when M delta = 0, as for L, P M P = M and no projection is formed.  The
    operator is one `matvec`: above DENSE_EXTREME_MAX rows a plain Lanczos
    recurrence applies it from a seeded start vector until the Ritz
    estimate is at the operator's rounding level, eps c n
    (`_lanczos_extreme`); up to the cap the dense path solves the operator
    the Lanczos path applies, `matvec` of the identity, whole spectrum and
    in place, by one LAPACK call.  NumericalFailure if LAPACK fails or
    Lanczos stops short.  A complex's operators are canonical and
    read-only, as is delta.
    """
    delta = coboundary_matrix(n, d)
    bound = float(abs(M).sum(axis=1).max())
    c = 2.0 ** frexp((bound + 1) / n)[1]
    m = M.shape[0]
    delta_t = delta.T
    projected = bool((M @ delta).count_nonzero())

    # the matvec updates the arrays it makes in place, so the dense path holds at most four
    # m x m arrays (`dense_extreme_bytes`); each step is the same operation, in the same
    # order, as in (M x) + c trivial and (y - (delta delta^T y) / n) + c trivial
    def matvec(x):
        trivial = delta @ (delta_t @ x)  # n (I - P) x
        if projected:
            y = trivial / n
            np.subtract(x, y, out=y)
            y = M @ y
            z = delta @ (delta_t @ y)
            z /= n
            y -= z
        else:
            y = M @ x
        trivial *= c
        y += trivial
        return y

    if m <= DENSE_EXTREME_MAX:
        try:
            eigs = scipy.linalg.eigvalsh(matvec(np.eye(m)).T, overwrite_a=True, check_finite=False, driver="evd")
        except np.linalg.LinAlgError as exc:
            raise NumericalFailure(f"dense eigensolve failed: {exc}") from None
        return float(eigs[0])

    v0 = np.random.default_rng(LANCZOS_SEED).standard_normal(m)
    # ||op|| is at most c n, which exceeds `bound`; a sum in one matvec has at most
    # `width` terms (a row of M or of delta^T), so it rounds by at most about width eps ||op||
    tol = np.finfo(float).eps * c * n
    width = max(int(np.diff(M.indptr).max()), n)
    return _lanczos_extreme(matvec, v0, tol, width * tol, steps=LANCZOS_STEPS * m)


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
    return X.laplacian.toarray()


def adjacency_matrix(X: PureComplex) -> np.ndarray:
    """Dense signed adjacency diag(L) - L, in lexicographic face order; size-checked first."""
    require_dense_fits(comb(X.n, X.d))
    return X.adjacency.toarray()


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
        if filled and 2 * width.itemsize * m * m + resident_memory() <= usable_memory():
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


def signed_trace(X: PureComplex, length: int) -> int:
    """Exact integer tr(A^l) of the signed adjacency A: signed closed l-walks summed over faces.

    A = diag(L) - L of the complex's L = B B^T is symmetric, as `_traces`
    needs, so unlike `moments` this does not check it.  `_traces` runs the
    powers at `power_width(R, l)`, R the largest absolute row sum of A (at
    most d times the largest degree), and raises ValueError before any
    product whose entries could leave int64.  The complex keeps each trace
    it computes (`PureComplex`), and a miss computes the length with its
    partner, whose last power M^ceil(l/2) is the same: l - 1 for an even l,
    and l + 1 for an odd l when `power_width(R, l + 1)` is l's own width,
    so a partner never widens the powers or refuses a length.  So lengths
    1..2j take j walks, not 2j.
    """
    if length < 0:
        raise ValueError("walk length must be >= 0")
    memo = X._signed_traces
    if length not in memo:
        lengths = [length]
        if length % 2:
            R = int(abs(X.adjacency).sum(axis=1).max())
            width = power_width(R, length)
            if width != object and power_width(R, length + 1) == width:
                lengths.append(length + 1)
        elif length:
            lengths.append(length - 1)
        memo.update(zip(lengths, _traces(X.adjacency, lengths)))
    return memo[length]

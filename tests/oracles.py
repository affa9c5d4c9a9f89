"""Reference routines the tests check the package against; the package never calls them.

Each is an independent or slower route to a value the pipeline computes,
or a helper only the tests need (the complete complex, extreme degrees from
the tuple index, the law's Laplacian moments, mass and adjacency support):
the eigenvalue pseudodeterminant of the tree count and its exact
multi-modular determinant, the Smith normal form whose factors give a
tree's torsion, the dense top of the adjacency spectrum on ker delta^T,
the exact rank of an integer matrix, exact traces of its powers from
one product at a time, expectations against the limit law
and Chebyshev coefficients by adaptive quadrature, the closed-form
coefficients and their truncated log-series, whose sum the Chebyshev
growth constant takes in closed form, the block-inclusion
frequency of a sampler, layer totals of a neighbourhood census, explicit
truncations of the arboreal complex and the signed walk counts read off
their adjacency powers, and per-n means of converge rows.
Tests import this module the way they import `conftest`.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, comb, cos, exp, gcd, log, log10, pi, prod, sin, sqrt
from typing import Sequence

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.integrate import quad

from steinerlab.arboreal import layer_sizes
from steinerlab.complexes import Face, NeighborhoodComplex, PureComplex, complex_from_dfaces, face_array, facets_of
from steinerlab.experiments import ConvergenceResult
from steinerlab.limitlaw import MOMENT_EPSABS, MOMENT_MAX, QUAD_EPSABS, LimitLaw
from steinerlab.sampling import SeededRng, sample_system
from steinerlab.spectra import (
    SpectralSummary,
    _summary_from_eigs,
    adjacency_matrix,
    coboundary_matrix,
    power_width,
)
from steinerlab.trees import warn_ambiguous_zeros, zero_threshold


# -- complexes -----------------------------------------------------------------
def complete_complex(n: int, d: int) -> PureComplex:
    """The complete d-complex on n vertices."""
    return PureComplex(n, d, face_array(n, d))


def min_degree(X: PureComplex) -> int:
    """Smallest degree of a (d-1)-face, from the tuple index: 0 when one lies in no d-face."""
    return min(X.degree(face) for face in X.facet_iter())


def max_degree(X: PureComplex) -> int:
    """Largest degree of a (d-1)-face, from the tuple index."""
    return max((X.degree(face) for face in X.facet_iter()), default=0)


# -- spectra -------------------------------------------------------------------
def exact_rank(rows: list[list[int]]) -> int:
    """Rank over the rationals of an integer matrix, by fraction-free elimination.

    Incremental row reduction with cross-multiplication and gcd normalization;
    no floating point is involved, so the result is exact.
    """
    basis: list[tuple[int, list[int]]] = []  # (pivot column, normalized row)
    rank = 0
    for row in rows:
        row = list(row)
        for pivot_col, pivot_row in basis:
            coeff = row[pivot_col]
            if coeff:
                lead = pivot_row[pivot_col]
                for c in range(len(row)):
                    row[c] = row[c] * lead - coeff * pivot_row[c]
        lead_col = next((c for c, v in enumerate(row) if v), None)
        if lead_col is None:
            continue
        g = 0
        for v in row:
            g = gcd(g, abs(v))
        if g > 1:
            row = [v // g for v in row]
        basis.append((lead_col, row))
        basis.sort(key=lambda item: item[0])
        rank += 1
    return rank


def trace_oracle(M: np.ndarray | sp.spmatrix, lmax: int) -> list[int]:
    """Exact tr(M^l) for l = 0..lmax as Python ints, from lmax sparse-times-dense int64 products.

    Starts at the dense identity and multiplies by M from the left, so it
    pairs no powers, squares none and needs no symmetry.  Every entry of
    M^l is at most R^l with R the largest absolute row sum of M, asserted
    below 2^63.
    """
    M = sp.csr_matrix(M).astype(np.int64)
    R = int(abs(M).sum(axis=1).max())
    assert R**lmax < 2**63
    power = np.eye(M.shape[0], dtype=np.int64)
    traces = [M.shape[0]]
    for _ in range(lmax):
        power = M @ power
        traces.append(sum(power.diagonal().tolist()))
    return traces


def esd(M: np.ndarray, bins: int = 40, lmax: int = 8) -> SpectralSummary:
    """Empirical spectral distribution of a symmetric matrix."""
    return _summary_from_eigs(np.linalg.eigvalsh(M), bins, lmax, None)


def gap_top_oracle(X) -> float:
    """Top adjacency eigenvalue on ker delta^T, by a dense solve in an orthonormal basis Q of it.

    The oracle of the gap statistic: the largest eigenvalue of Q^T A Q with
    Q = null_space(delta^T) from an SVD, independent of the projector and
    the Lanczos shift the pipeline uses.
    """
    Q = scipy.linalg.null_space(coboundary_matrix(X.n, X.d).T.toarray())
    return float(np.linalg.eigvalsh(Q.T @ adjacency_matrix(X) @ Q)[-1])


# -- trees ---------------------------------------------------------------------
def pseudodet_from_eigenvalues(eigs: np.ndarray, trivial_zeros: int) -> tuple[float, bool]:
    """Log-product of the non-trivial Laplacian eigenvalues, the oracle of the Cholesky route.

    The lowest `trivial_zeros` eigenvalues must be numerical zeros (hard
    failure otherwise); any further zero among the rest is a genuine extra
    kernel vector and flags the product as 0.  Like the Cholesky route it
    warns when the smallest non-trivial eigenvalue is in the ambiguous zone.
    """
    eigs = np.sort(np.asarray(eigs, dtype=float))
    eps = zero_threshold(float(eigs[-1]) if len(eigs) else 0.0)
    if trivial_zeros and float(eigs[trivial_zeros - 1]) > eps:
        raise RuntimeError(
            f"expected {trivial_zeros} trivial zeros but eigenvalue "
            f"{float(eigs[trivial_zeros - 1]):.3e} exceeds {eps:.3e}"
        )
    rest = eigs[trivial_zeros:]
    if not len(rest):
        return 0.0, False
    warn_ambiguous_zeros(float(rest[0]), eps)
    if float(rest[0]) < eps:
        return 0.0, True
    return float(np.sum(np.log(rest))), False


def growth_rate_from_eigenvalues(eigs: np.ndarray, trivial_zeros: int, n: int, d: int) -> float:
    """Per-face normalized tree count (tree count)^(1/C(n, d)) from a full Laplacian spectrum."""
    pseudodet_log, flag = pseudodet_from_eigenvalues(eigs, trivial_zeros)
    if flag:
        return 0.0
    log_count = pseudodet_log - comb(n - 2, d - 1) * log(n)
    return exp(log_count / comb(n, d))


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

    Pivots on the smallest nonzero entry (the first in row-major order; the
    scan stops at the first unit) and re-reduces until the pivot divides its
    row and column, which keeps coefficient growth in check.  A unit pivot
    divides the rest of the block, so only a larger one is checked for it.
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
                    if v == 1:
                        break  # no later entry is strictly smaller
            if best is not None and best[0] == 1:
                break
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

        # pivot must divide the rest of the block for the divisibility chain; a unit divides all
        offender = None
        if abs(pivot) > 1:
            offender = next(
                (i for i in range(top + 1, rows) if any(A[i][j] % pivot for j in range(top + 1, cols))), None
            )
        if offender is not None:
            for j in range(top, cols):
                A[top][j] += A[offender][j]
            continue

        factors.append(abs(pivot))
        top += 1

    return SnfDiagonal(tuple(factors))


def _is_prime(q: int) -> bool:
    """Primality of an odd q with 7 < q < 3,215,031,751, by Miller-Rabin on bases 2, 3, 5, 7 (exact there)."""
    s, e = q - 1, 0
    while s % 2 == 0:
        s, e = s // 2, e + 1
    for a in (2, 3, 5, 7):
        x = pow(a, s, q)
        if x in (1, q - 1):
            continue
        for _ in range(e - 1):
            x = x * x % q
            if x == q - 1:
                break
        else:
            return False
    return True


def _det_mod(A: np.ndarray, p: int) -> int:
    """det A mod p of a square int64 matrix, for a prime p < 2^31, by Gaussian elimination in int64.

    Entries are kept in [0, p), so a product of two is below 2^62.
    """
    A = A % p
    det = 1
    for j in range(len(A)):
        nonzero = np.flatnonzero(A[j:, j])
        if not len(nonzero):
            return 0
        i = j + int(nonzero[0])
        if i != j:
            A[[i, j]] = A[[j, i]]
            det = -det
        pivot = int(A[j, j])
        det = det * pivot % p
        row = A[j, j + 1:] * pow(pivot, -1, p) % p
        A[j + 1:, j + 1:] = (A[j + 1:, j + 1:] - A[j + 1:, j, None] * row) % p
    return det % p


# the blocked determinant's primes are below 2^25, so its residues are at most 2^24 in
# absolute value: a float64 product of two is below 2^48 and a sum of DET_BLOCK = 16
# of them below 2^52, exact
DET_PRIME_BITS = 25
DET_BLOCK = 16
DET_BATCH = 16  # primes eliminated side by side, about 24 MB at order 435


def _mod(x: np.ndarray, q: np.ndarray) -> np.ndarray:
    """x less the nearest multiple of q, in place; exact on integers below 2^53, at most q/2 + 1 in size."""
    t = x / q
    np.rint(t, out=t)
    t *= q
    x -= t
    return x


def _dets_mod(R: np.ndarray, primes: list[int]) -> list[int]:
    """det R mod each prime below 2^25, by one blocked LU without pivoting for all primes at once.

    The primes run side by side on a leading axis of float64 residues.  Each
    block of DET_BLOCK columns is eliminated a column at a time, and its
    trailing update is one float64 matmul a prime, exact at these sizes
    (Dumas, Giorgi and Pernet, ACM TOMS 2008).  A prime that meets a zero
    pivot is redone by `_det_mod`, which pivots.
    """
    q = np.array(primes, dtype=np.float64)[:, None, None]
    A = _mod(np.repeat(R[None].astype(np.float64), len(primes), axis=0), q)
    dets, stuck = [1] * len(primes), set()
    for k0 in range(0, len(R), DET_BLOCK):
        k1 = min(k0 + DET_BLOCK, len(R))
        for j in range(k0, k1):
            pivots = [int(v) % p for v, p in zip(A[:, j, j].tolist(), primes)]
            stuck.update(i for i, v in enumerate(pivots) if v == 0)
            dets = [det * v % p for det, v, p in zip(dets, pivots, primes)]
            inverse = np.array([pow(v, -1, p) if v else 0 for v, p in zip(pivots, primes)], dtype=np.float64)
            col = A[:, j + 1:, j] = _mod(A[:, j + 1:, j] * inverse[:, None], q[:, 0])
            panel = A[:, j + 1:, j + 1:k1]
            panel -= col[:, :, None] * A[:, j, None, j + 1:k1]
            _mod(panel, q)
            rows = A[:, j + 1:k1, k1:]
            rows -= col[:, :k1 - j - 1, None] * A[:, j, None, k1:]
            _mod(rows, q)
        trailing = A[:, k1:, k1:]
        trailing -= A[:, k1:, k0:k1] @ A[:, k0:k1, k1:]
        _mod(trailing, q)
    return [_det_mod(R, p) if i in stuck else det for i, (det, p) in enumerate(zip(dets, primes))]


def exact_reduced_det(X: PureComplex) -> int:
    """det of the integer reduced Laplacian R = L[t:, t:], t = C(n-1, d-1): the weighted tree count.

    Multi-modular (Abbott, Bronstein and Mulders, ISSAC 1999): det R mod the
    primes below 2^25, largest first, by a blocked elimination (`_dets_mod`),
    combined by the CRT until their product M passes twice the Hadamard bound
    H.  R is the Gram matrix of rows of the boundary B, so it is positive
    semidefinite and 0 <= det R <= H, the product of its diagonal.  The
    result is the residue in (-M/2, M/2].  No bound is taken from the float
    count this checks.
    """
    t = comb(X.n - 1, X.d - 1)
    R = np.rint(X.laplacian[t:, t:].toarray()).astype(np.int64)
    hadamard = prod(int(v) for v in R.diagonal())
    primes, modulus, p = [], 1, 2**DET_PRIME_BITS
    while modulus <= 2 * hadamard:
        p -= 1
        while not _is_prime(p):
            p -= 1
        primes.append(p)
        modulus *= p
    value, modulus = 0, 1
    for start in range(0, len(primes), DET_BATCH):
        batch = primes[start:start + DET_BATCH]
        for p, det in zip(batch, _dets_mod(R, batch)):
            value += modulus * ((det - value) * pow(modulus, -1, p) % p)
            modulus *= p
    return value if 2 * value <= modulus else value - modulus


# -- limitlaw ------------------------------------------------------------------
def chebyshev_t(m: int, x):
    """Chebyshev polynomial of the first kind by the three-term recurrence."""
    if m < 0:
        raise ValueError("order must be >= 0")
    x = np.asarray(x, dtype=float) if not np.isscalar(x) else x
    prev = np.ones_like(x) if not np.isscalar(x) else 1.0
    if m == 0:
        return prev
    cur = x
    for _ in range(m - 1):
        prev, cur = cur, 2.0 * x * cur - prev
    return cur


def laplacian_moment(law: LimitLaw, ell: int) -> float:
    """Moment of the Laplacian law by the law's own midpoint rule."""
    if not 0 <= ell <= MOMENT_MAX:
        raise ValueError(f"moment order must be in [0, {MOMENT_MAX}]")
    return law.expectation(lambda x: x**ell, epsabs=MOMENT_EPSABS)


def normalization(law: LimitLaw) -> float:
    """Total mass of the Laplacian law; 1 up to quadrature error."""
    return law.expectation(np.ones_like)


def adjacency_support(law: LimitLaw) -> tuple[float, float]:
    """Support of the adjacency law, the Laplacian support reflected through x -> k - x."""
    lo, hi = law.laplacian_support
    return (law.k - hi, law.k - lo)


def expectation_by_quad(law: LimitLaw, f, epsabs: float = QUAD_EPSABS) -> float:
    """Integral of a scalar f against the Laplacian law by adaptive quadrature.

    The reference of `LimitLaw.expectation`'s midpoint rule: the same
    substitution x = center - half_width*cos(theta), integrated by QUADPACK.
    """
    d, k, center, w = law.d, law.k, law.center, law.half_width

    def integrand(theta: float) -> float:
        x = center - w * cos(theta)
        s = sin(theta)
        return f(x) * k * w * w * s * s / (2.0 * pi * x * ((d + 1) * k - x))

    value, _ = quad(integrand, 0.0, pi, epsabs=epsabs, limit=400)
    return value


def series_coefficient(law: LimitLaw, n: int) -> float:
    """Closed-form Chebyshev coefficient of the weighted density h = g*sqrt(1-x^2).

    Odd orders: (-weight_zero * ratio_zero^n + weight_upper * ratio_upper^n) / (pi (d+1));
    even orders n >= 2 take the negated sum instead.  Decay is geometric with
    ratio max(ratio_zero, ratio_upper).
    """
    if n < 1:
        raise ValueError("coefficients are defined for n >= 1")
    if law.k < law.d + 2:
        raise ValueError("need k >= d+2 for the series expansion")
    scale = pi * (law.d + 1)
    a = law.weight_zero * law.ratio_zero**n
    b = law.weight_upper * law.ratio_upper**n
    return (-a + b) / scale if n % 2 == 1 else -(a + b) / scale


def chebyshev_truncation(law: LimitLaw) -> int:
    """Terms of the log series whose geometric tail, ratio max(ratio_zero, ratio_upper), is below 1e-15."""
    return ceil(15.0 / -log10(max(law.ratio_zero, law.ratio_upper))) + 5


def series_log_moment(law: LimitLaw) -> float:
    """log(center) - log(1 + t^2) - pi * sum_n alpha_n t^n / n at t = ratio_zero, term by term.

    The coefficient series, to `chebyshev_truncation(law)` terms, that
    `limitlaw.growth_constant_chebyshev` sums in closed form.
    """
    t = law.ratio_zero
    tail, t_pow = 0.0, 1.0
    for n in range(1, chebyshev_truncation(law) + 1):
        t_pow *= t
        tail += series_coefficient(law, n) * t_pow / n
    return log(law.center) - log(1.0 + t * t) - pi * tail


def series_coefficient_projection(law: LimitLaw, n: int) -> float:
    """Chebyshev coefficient by its defining projection integral (2/pi) int T_n g.

    Independent of the closed form `series_coefficient`.
    """
    if n < 1:
        raise ValueError("coefficients are defined for n >= 1")
    k, w, center, upper = law.k, law.half_width, law.center, law.upper_gap

    def integrand(theta: float) -> float:
        c = cos(theta)
        s = sin(theta)
        g_times_sin = k * w * w * s * s / (2.0 * pi * (center - w * c) * (upper + w * c))
        return cos(n * theta) * g_times_sin

    value, _ = quad(integrand, 0.0, pi, epsabs=QUAD_EPSABS, limit=400)
    return 2.0 / pi * value


# -- sampling ------------------------------------------------------------------
@dataclass(frozen=True)
class InclusionReport:
    """Empirical block-inclusion frequency over repeated system draws."""

    n: int
    d: int
    trials: int
    block: Face
    hits: int
    empirical: float
    stderr: float
    expected: float | None
    deviation_sigmas: float | None
    passed: bool | None


def inclusion_frequency_test(n: int, d: int, trials: int, rng: SeededRng) -> InclusionReport:
    """Monte Carlo estimate of P(block in S) for the block (1, ..., d+1).

    For d = 1 the matching sampler is exactly uniform, so the report carries
    the target 1/(n-d) and a pass flag at the 4-sigma binomial level; other
    dimensions are report-only (the hill-climbing law has no closed form).
    """
    if trials < 1000:
        raise ValueError("need at least 1000 trials for a stable frequency")
    gen = rng.generator()
    block = tuple(range(1, d + 2))
    hits = sum(block in frozenset(map(tuple, sample_system(n, d, gen).tolist())) for _ in range(trials))
    empirical = hits / trials
    if d == 1 and n > 2:
        expected = 1.0 / (n - d)
        sigma = sqrt(expected * (1.0 - expected) / trials)
        deviation = abs(empirical - expected) / sigma
        passed = deviation <= 4.0
    elif d == 1:
        expected, sigma, deviation, passed = 1.0, 0.0, 0.0, hits == trials
    else:
        expected = None
        sigma = sqrt(max(empirical * (1.0 - empirical), 1e-12) / trials)
        deviation = None
        passed = None
    return InclusionReport(n, d, trials, block, hits, empirical, sigma, expected, deviation, passed)


# -- complexes -----------------------------------------------------------------
def total_vertices(b: NeighborhoodComplex) -> int:
    """Vertices of the ball: within its radius of the centre."""
    return sum(map(len, b.vertex_layers))


def total_facets(b: NeighborhoodComplex) -> int:
    """(d-1)-faces within the ball's radius of the centre."""
    return sum(map(len, b.facet_layers))


def total_dfaces(b: NeighborhoodComplex) -> int:
    """d-faces whose whole boundary lies within the ball's radius."""
    return sum(map(len, b.dface_layers))


def facet_distances(b: NeighborhoodComplex) -> dict[Face, int]:
    """Line-graph distance from the centre of every (d-1)-face in the ball."""
    return {f: rho for rho, layer in enumerate(b.facet_layers) for f in layer}


# -- arboreal ------------------------------------------------------------------
# arboreal_ball refuses radii above this: the truncation grows like (d(k-1))^r
MAX_RADIUS = 12


@dataclass(frozen=True)
class ArborealBall:
    """Explicit radius-r truncation with its layer inventories."""

    d: int
    k: int
    r: int
    complex: PureComplex
    root: Face
    vertex_layers: tuple[tuple[int, ...], ...]
    facet_layers: tuple[tuple[Face, ...], ...]
    dface_layers: tuple[tuple[Face, ...], ...]


def arboreal_ball(d: int, k: int, r: int) -> ArborealBall:
    """Construct the radius-r truncation explicitly, fresh vertex per d-face.

    Layer 1 attaches k d-faces to the root; deeper layers attach k-1 to each
    boundary (d-1)-face.  Growth is (d(k-1))^r, hence the radius guard MAX_RADIUS.
    """
    if r > MAX_RADIUS:
        raise ValueError(f"radius {r} exceeds guard {MAX_RADIUS}; growth is (d(k-1))^r")
    layer_sizes(d, k, r)  # raises on k < 2, d < 1 or r < 0

    root: Face = tuple(range(1, d + 1))
    next_vertex = d + 1
    dfaces: list[Face] = []
    vertex_layers: list[tuple[int, ...]] = [root]
    facet_layers: list[tuple[Face, ...]] = [(root,)]
    dface_layers: list[tuple[Face, ...]] = [()]
    frontier: list[Face] = [root]

    for rho in range(1, r + 1):
        growth = k if rho == 1 else k - 1
        new_vertices: list[int] = []
        new_facets: list[Face] = []
        new_dfaces: list[Face] = []
        for sigma in frontier:
            for _ in range(growth):
                v = next_vertex
                next_vertex += 1
                tau = tuple(sorted(sigma + (v,)))
                new_vertices.append(v)
                new_dfaces.append(tau)
                for facet in facets_of(tau):
                    if facet != sigma:
                        new_facets.append(facet)
        dfaces.extend(new_dfaces)
        vertex_layers.append(tuple(new_vertices))
        facet_layers.append(tuple(new_facets))
        dface_layers.append(tuple(new_dfaces))
        frontier = new_facets

    n = next_vertex - 1 if r > 0 else d
    cx = complex_from_dfaces(max(n, d + 1), d, dfaces) if dfaces else complex_from_dfaces(d + 1, d, [])
    return ArborealBall(
        d=d,
        k=k,
        r=r,
        complex=cx,
        root=root,
        vertex_layers=tuple(vertex_layers),
        facet_layers=tuple(facet_layers),
        dface_layers=tuple(dface_layers),
    )


def walk_count_oracle(d: int, k: int, length: int) -> int:
    """Signed closed length-l walks at the root, as the root's diagonal entry of A^l.

    A is the signed adjacency of the radius-floor(l/2) truncation, which
    holds every closed l-walk, from l sparse int64 products; B is indexed by
    the truncation's own facets, in layer order, so the root is row 0.
    """
    if length < 0:
        raise ValueError("walk length must be >= 0")
    tree = arboreal_ball(d, k, length // 2)
    index = {face: i for i, face in enumerate(f for layer in tree.facet_layers for f in layer)}
    taus = [tau for layer in tree.dface_layers for tau in layer]
    rows = [index[facet] for tau in taus for facet in facets_of(tau)]
    cols = np.repeat(np.arange(len(taus)), d + 1)
    signs = np.tile([(-1) ** i for i in range(d + 1)], len(taus))
    B = sp.csr_matrix((signs, (rows, cols)), shape=(len(index), len(taus)), dtype=np.int64)
    L = (B @ B.T).tocsr()
    A = (sp.diags(L.diagonal(), dtype=L.dtype) - L).tocsr()
    R = int(abs(A).sum(axis=1).max())
    if power_width(R, length) == object:
        raise ValueError(f"power {length} of a matrix with absolute row sum {R} can leave int64")
    walks = np.zeros(len(index), dtype=np.int64)
    walks[0] = 1
    for _ in range(length):
        walks = A @ walks
    return int(walks[0])


# -- experiments ---------------------------------------------------------------
def mean_growth_rate(result: ConvergenceResult, n: int) -> float:
    return _row_mean([row.growth_rate for row in result.rows if row.n == n])


def mean_fraction(result: ConvergenceResult, n: int, r: int) -> float:
    return _row_mean([row.fractions[r] for row in result.rows if row.n == n])


def mean_moment(result: ConvergenceResult, n: int, ell: int) -> float:
    return _row_mean([row.moments[ell] for row in result.rows if row.n == n])


def _row_mean(values: list[float]) -> float:
    return float(np.mean(values)) if values else float("nan")

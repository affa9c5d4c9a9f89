"""The k-regular d-dimensional arboreal complex and its local statistics.

The arboreal complex generalizes the k-regular tree: start from one
(d-1)-face, attach k d-faces to it (one fresh vertex each), then keep
attaching k-1 fresh-vertex d-faces to every boundary (d-1)-face, layer by
layer.  This module gives the closed-form layer counts, tests whether a
neighborhood in an arbitrary complex is isomorphic to a radius-r
truncation, and counts the signed closed walks at a (d-1)-face, the
moments of the limiting adjacency law, by the first-return recursion on
the tree of (d+1)-cliques that is the complex's line graph.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from math import comb

import numpy as np
import scipy.sparse as sp

from .complexes import Face, PureComplex, ball, face_array
from .spectra import boundary_matrix

__all__ = [
    "LayerProfile",
    "layer_sizes",
    "is_arboreal_ball",
    "arboreal_fractions",
    "signed_walk_count",
]


@dataclass(frozen=True)
class LayerProfile:
    """Closed-form layer counts for the radius-r truncation.

    new_* sequences are indexed by the layer rho = 0..r; total_vertices is
    cumulative.
    """

    d: int
    k: int
    r: int
    new_vertices: tuple[int, ...]
    new_dfaces: tuple[int, ...]
    total_vertices: tuple[int, ...]


def layer_sizes(d: int, k: int, r: int) -> LayerProfile:
    """Per-layer face counts of the k-regular arboreal complex.

    For rho >= 1 the d-face layer is k(k-1)^(rho-1) d^(rho-1); each new
    d-face brings one fresh vertex and d new (d-1)-faces.
    """
    if k < 2:
        raise ValueError("arboreal complexes need k >= 2")
    if d < 1 or r < 0:
        raise ValueError("need d >= 1 and r >= 0")
    new_dfaces = [0]
    new_vertices = [d]
    for rho in range(1, r + 1):
        dfaces = k * (k - 1) ** (rho - 1) * d ** (rho - 1)
        new_dfaces.append(dfaces)
        new_vertices.append(dfaces)
    totals = []
    running = 0
    for c in new_vertices:
        running += c
        totals.append(running)
    return LayerProfile(
        d=d,
        k=k,
        r=r,
        new_vertices=tuple(new_vertices),
        new_dfaces=tuple(new_dfaces),
        total_vertices=tuple(totals),
    )


def is_arboreal_ball(X: PureComplex, sigma0: Face, k: int, r: int) -> bool:
    """Whether the radius-r neighborhood of sigma0 matches the arboreal truncation.

    Equivalent to simplicial isomorphism with the truncation: cumulative
    vertex counts and d-face layer counts must match the closed forms, and
    every (d-1)-face within distance r-1 must have full degree k.
    """
    if len(sigma0) != X.d:
        raise ValueError(f"{sigma0} is not a (d-1)-face")
    if r == 0:
        return True
    profile = layer_sizes(X.d, k, r)
    nbhd = ball(X, sigma0, r)
    total_vertices = 0
    for rho in range(r + 1):
        total_vertices += len(nbhd.vertex_layers[rho])
        if total_vertices != profile.total_vertices[rho]:
            return False
        if len(nbhd.dface_layers[rho]) != profile.new_dfaces[rho]:
            return False
    for rho in range(r):
        for face in nbhd.facet_layers[rho]:
            if X.degree(face) != k:
                return False
    return True


def arboreal_fractions(X: PureComplex, k: int, radii: Sequence[int]) -> tuple[float, ...]:
    """Fraction of all C(n, d) faces of dimension d-1 whose r-ball is arboreal, per r in `radii`.

    The census of `is_arboreal_ball` for every centre at once.  Row c of the
    0/1 matrix reach_rho marks the (d-1)-faces within line-graph distance rho
    of face c: reach_0 = I and reach_rho = pattern(reach_{rho-1} G), with G
    the pattern of I + P P^T and P = |B| the facet x d-face incidence.  The
    row nnz of reach_rho V (V the facet x vertex incidence) is the cumulative
    vertex count, the entries d+1 of reach_rho P are the d-faces whose whole
    boundary lies within rho, and reach_rho [deg != k] = 0 is the degree
    check below the largest radius.  The fraction at radius rho is the share of rows
    left after the vertex and d-face checks at rho, before its degree check.
    A centre's row is dropped once it fails, so reach holds at most one
    closed-form ball per surviving centre.
    """
    d, n = X.d, X.n
    lowest = min(radii, default=0)
    if lowest < 0:
        layer_sizes(d, k, lowest)  # raises the ValueError is_arboreal_ball raises
    top = max(radii, default=0)
    if top == 0:
        return tuple(1.0 for _ in radii)
    profile = layer_sizes(d, k, top)
    dfaces_within = np.cumsum(profile.new_dfaces)
    P = abs(boundary_matrix(X))
    m = P.shape[0]
    G = _pattern(sp.identity(m, format="csr") + P @ P.T)
    V = sp.csr_matrix((np.ones(m * d), face_array(n, d - 1).ravel() - 1, np.arange(0, m * d + 1, d)), shape=(m, n))
    off_degree = (np.diff(P.indptr) != k).astype(float)
    survivors = [0] * (top + 1)
    reach = sp.identity(m, format="csr")
    for rho in range(top + 1):
        if rho:
            reach = _pattern(reach @ G)
        ok = np.diff((reach @ V).indptr) == profile.total_vertices[rho]
        ok &= np.asarray((reach @ P == d + 1).sum(axis=1)).ravel() == dfaces_within[rho]
        survivors[rho] = int(ok.sum())
        if rho < top:
            ok &= reach @ off_degree == 0
        reach = reach[ok]
        if not reach.shape[0]:
            break
    return tuple(survivors[r] / comb(n, d) for r in radii)


def _pattern(M: sp.spmatrix) -> sp.csr_matrix:
    """0/1 sparsity pattern of a matrix with non-negative entries."""
    M = M.tocsr()
    M.data[:] = 1.0
    return M




def signed_walk_count(d: int, k: int, length: int) -> int:
    """Signed count of closed length-l walks at a (d-1)-face of the arboreal complex.

    This integer is the l-th moment of the limiting adjacency spectral law;
    walks returning with flipped orientation count negatively.  l = 1 gives 0
    (neighbors have distinct underlying faces) and l = 2 gives d*k.

    The line graph is a tree of (d+1)-cliques, k at every vertex, and a
    diagonal of signs carries the signed adjacency to minus the clique
    tree's adjacency, so the count is (-1)^l g_l with G = sum g_l z^l the
    closed walks at a vertex of the clique tree.  By first return,
    G = 1 + kEG and H = 1 + (k-1)EH, where E counts the excursions into one
    clique and H the closed walks that avoid one clique; an excursion steps to one of the d
    other clique vertices, then alternates H-walks with steps inside the
    clique until it steps home: E = d z^2 H + (d-1) z H E.  The
    coefficients are taken in order, in Python ints, so l is unbounded.
    """
    if length < 0:
        raise ValueError("walk length must be >= 0")
    layer_sizes(d, k, 0)  # raises on k < 2 or d < 1
    E, H, G = [0, 0], [1, 0], [1, 0]  # z^0 and z^1 terms: an excursion takes >= 2 steps
    for n in range(2, length + 1):
        E.append(d * H[n - 2] + (d - 1) * sum(H[i] * E[n - 1 - i] for i in range(n - 2)))
        H.append((k - 1) * sum(E[i] * H[n - i] for i in range(2, n + 1)))
        G.append(k * sum(E[i] * G[n - i] for i in range(2, n + 1)))
    return (-1) ** length * G[length]

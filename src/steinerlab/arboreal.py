"""Truncations of the k-regular d-dimensional arboreal complex.

The arboreal complex generalizes the k-regular tree: start from one
(d-1)-face, attach k d-faces to it (one fresh vertex each), then keep
attaching k-1 fresh-vertex d-faces to every boundary (d-1)-face, layer by
layer.  This module builds explicit radius-r truncations, gives the closed
form layer counts, tests whether a neighborhood in an arbitrary complex is
isomorphic to such a truncation, and counts the signed closed walks at the
root, the moments of the limiting adjacency law, as diagonal entries of
powers of the truncation's signed adjacency (see `spectra`).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from math import comb

import numpy as np
import scipy.sparse as sp

from .complexes import Face, PureComplex, ball, complex_from_dfaces, facets_of
from .spectra import boundary_matrix, require_int64_powers, signed_adjacency

__all__ = [
    "LayerProfile",
    "ArborealBall",
    "layer_sizes",
    "arboreal_ball",
    "is_arboreal_ball",
    "arboreal_fraction",
    "arboreal_fractions",
    "signed_walk_count",
]

DEFAULT_MAX_RADIUS = 12


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
    new_facets: tuple[int, ...]
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
    new_facets = [1]
    for rho in range(1, r + 1):
        dfaces = k * (k - 1) ** (rho - 1) * d ** (rho - 1)
        new_dfaces.append(dfaces)
        new_vertices.append(dfaces)
        new_facets.append(d * dfaces)
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
        new_facets=tuple(new_facets),
        new_dfaces=tuple(new_dfaces),
        total_vertices=tuple(totals),
    )


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


def arboreal_ball(d: int, k: int, r: int, max_radius: int = DEFAULT_MAX_RADIUS) -> ArborealBall:
    """Construct the radius-r truncation explicitly, fresh vertex per d-face.

    Layer 1 attaches k d-faces to the root; deeper layers attach k-1 to each
    boundary (d-1)-face.  Growth is (d(k-1))^r, hence the radius guard.
    """
    if r > max_radius:
        raise ValueError(f"radius {r} exceeds guard {max_radius}; growth is (d(k-1))^r")
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


def arboreal_fraction(X: PureComplex, k: int, r: int) -> float:
    """Fraction of all C(n, d) faces of dimension d-1 whose r-ball is arboreal."""
    return arboreal_fractions(X, k, (r,))[0]


def arboreal_fractions(
    X: PureComplex, k: int, radii: Sequence[int], B: sp.csr_matrix | None = None
) -> tuple[float, ...]:
    """`arboreal_fraction` for every radius in `radii`, from one expansion.

    B is X's signed boundary (`boundary_matrix`) when the caller already
    built it, as a converge row does for its Laplacian; it is built here
    otherwise.

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
    P = abs(boundary_matrix(X) if B is None else B)
    m = P.shape[0]
    G = _pattern(sp.identity(m, format="csr") + P @ P.T)
    faces = np.array(list(X.facet_iter()), dtype=np.int64).reshape(m, d)
    V = sp.csr_matrix((np.ones(m * d), faces.ravel() - 1, np.arange(0, m * d + 1, d)), shape=(m, n))
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
    (neighbors have distinct underlying faces) and l = 2 gives d*k.  It is
    the root's diagonal entry of A^l, from l sparse products on the
    radius-floor(l/2) truncation, which holds every closed l-walk; B is
    indexed by the truncation's own facets, in layer order, so the root is
    row 0.
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
    A = signed_adjacency(B)
    require_int64_powers(A, length)
    walks = np.zeros(len(index), dtype=np.int64)
    walks[0] = 1
    for _ in range(length):
        walks = A @ walks
    return int(walks[0])

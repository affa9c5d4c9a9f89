"""Pure d-dimensional complexes with a complete (d-1)-skeleton.

A complex is stored as its top-dimensional faces over the vertex set
{1, ..., n}; all lower faces are implicit.  The d-faces are one read-only
int64 array of strictly increasing vertex ids, a row per face, the rows
distinct and in lexicographic order, as are a sampled Steiner system's
blocks (`sampling`).  That order is the one face order: `face_array` lists
a dimension's faces in it and `lex_ranks` gives a face's place in it, for
B's rows and delta's columns (`spectra`), the census (`arboreal`) and the
sampler's exact-cover check.  A complex owns its operators B, L = B B^T and
A = diag(L) - L (`PureComplex`), which every layer reads.  Vertex tuples
appear only in the text format and in the per-face neighbourhoods (`ball`)
that are the oracle of the census in `arboreal`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb, factorial
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np
import scipy.sparse as sp

Face = tuple[int, ...]

__all__ = [
    "Face",
    "PureComplex",
    "NeighborhoodComplex",
    "complex_from_dfaces",
    "all_faces",
    "facets_of",
    "ball",
    "write_complex",
    "read_complex",
]


def all_faces(n: int, dim: int) -> Iterator[Face]:
    """Yield every dim-face of the complete complex on [n] in lexicographic order."""
    return combinations(range(1, n + 1), dim + 1)


def face_array(n: int, dim: int) -> np.ndarray:
    """Every dim-face of the complete complex on [n], one int64 row each, in all_faces order."""
    return np.array(list(all_faces(n, dim)), dtype=np.int64).reshape(-1, dim + 1)


def lex_ranks(faces: np.ndarray, n: int) -> np.ndarray:
    """Positions of sorted faces (rows of vertex ids in [1, n]) in all_faces order.

    With a_i = n - v_i the lexicographic rank is C(n, r) - 1 - sum_i C(a_i, r - i).
    """
    r = faces.shape[1]
    rank = np.full(len(faces), comb(n, r) - 1, dtype=np.int64)
    for i in range(r):
        a = n - faces[:, i]
        falling = a
        for j in range(1, r - i):
            falling = falling * (a - j)
        rank -= falling // factorial(r - i)  # C(a, r - i): 0 for 0 <= a < r - i
    return rank


def facet_ranks(faces: np.ndarray, n: int) -> np.ndarray:
    """Ranks of the facets of sorted faces: entry [j, i] ranks faces[j] without its i-th vertex."""
    width = faces.shape[1]
    keep = [[c for c in range(width) if c != i] for i in range(width)]
    return lex_ranks(faces[:, keep].reshape(len(faces) * width, width - 1), n).reshape(-1, width)


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


def _canonical_read_only(M: sp.csr_matrix) -> sp.csr_matrix:
    """M made canonical, so scipy's in-place sorts (`abs`, `sort_indices`) find nothing to do, then read-only."""
    M.sum_duplicates()
    for array in (M.data, M.indices, M.indptr):
        array.flags.writeable = False
    return M


@lru_cache(maxsize=16)
def _complete_coboundary(n: int, d: int) -> sp.csr_matrix:
    """Coboundary from the (d-2)-forms of the complete skeleton on [n], built once per (n, d), canonical and read-only."""
    return _canonical_read_only(_signed_incidence(face_array(n, d - 1), n).T.tocsr())


def facets_of(face: Face) -> list[Face]:
    """Codimension-one subfaces, indexed by the omitted position.

    Position i in the result omits face[i]; that index is what carries the
    induced-orientation sign (-1)**i.
    """
    return [face[:i] + face[i + 1 :] for i in range(len(face))]


class PureComplex:
    """A finite pure d-complex on [n] with complete (d-1)-skeleton.

    Only the d-faces are materialized, as the array `faces`.  `boundary` B,
    `laplacian` L = B B^T, `adjacency` A = diag(L) - L and the tuple index
    `cofacets` and `degree` read are each built once, on first use.  B, L
    and A are canonical CSR (sorted indices, no duplicates) and read-only.
    `_signed_traces` is the memo of `spectra.signed_trace`: the exact
    tr(A^l) it has computed, as Python ints keyed by l.
    Instances are immutable and safe to share across threads; two threads may
    both build an operator, and either identical copy is kept; two threads
    that miss the same trace both compute it, and store the same int.
    """

    __slots__ = ("n", "d", "faces", "_index", "_boundary", "_laplacian", "_adjacency", "_signed_traces")

    def __init__(self, n: int, d: int, faces: np.ndarray):
        self.n, self.d, self.faces = n, d, faces
        self._index = self._boundary = self._laplacian = self._adjacency = None
        self._signed_traces: dict[int, int] = {}
        faces.flags.writeable = False

    @property
    def num_dfaces(self) -> int:
        return len(self.faces)

    @property
    def d_faces(self) -> frozenset[Face]:
        return frozenset(map(tuple, self.faces.tolist()))

    @property
    def boundary(self) -> sp.csr_matrix:
        """Signed boundary B: C(n, d) rows in form-basis order, a column per d-face in `faces` order."""
        if self._boundary is None:
            self._boundary = _canonical_read_only(_signed_incidence(self.faces, self.n))
        return self._boundary

    @property
    def laplacian(self) -> sp.csr_matrix:
        """Upper Laplacian L = B B^T: deg(sigma) on the diagonal, (-1)**(i+j) per shared d-face."""
        if self._laplacian is None:
            self._laplacian = _canonical_read_only((self.boundary @ self.boundary.T).tocsr())
        return self._laplacian

    @property
    def adjacency(self) -> sp.csr_matrix:
        """Signed adjacency A = diag(L) - L, in L's dtype.

        Each d-face and facet pair (i, j) contributes (-1)**(i+j+1) to the entry
        of the two facets: the sign is +1 exactly when the orientation of facet
        j induced alongside +facet i is the negative representative.  For d = 1
        this is the ordinary graph adjacency matrix.
        """
        if self._adjacency is None:
            L = self.laplacian
            self._adjacency = _canonical_read_only((sp.diags(L.diagonal(), dtype=L.dtype) - L).tocsr())
        return self._adjacency

    def _cofacet_index(self) -> dict[Face, tuple[Face, ...]]:
        if self._index is None:
            index: dict[Face, list[Face]] = {}
            for face in map(tuple, self.faces.tolist()):
                for facet in facets_of(face):
                    index.setdefault(facet, []).append(face)
            self._index = {facet: tuple(cofs) for facet, cofs in index.items()}
        return self._index

    def degree(self, face: Face) -> int:
        return len(self.cofacets(face))

    def cofacets(self, face: Face) -> tuple[Face, ...]:
        """The d-faces containing a given (d-1)-face, lexicographically."""
        return self._cofacet_index().get(face, ())

    def facet_iter(self) -> Iterator[Face]:
        """All C(n, d) faces of dimension d-1, lexicographically."""
        return all_faces(self.n, self.d - 1)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PureComplex):
            return NotImplemented
        return (self.n, self.d) == (other.n, other.d) and np.array_equal(self.faces, other.faces)

    def __hash__(self) -> int:
        return hash((self.n, self.d, self.faces.tobytes()))

    def __repr__(self) -> str:
        return f"PureComplex(n={self.n}, d={self.d}, dfaces={self.num_dfaces})"


class _FaceError(ValueError):
    """A refused top face; `at` is its position in the input."""

    def __init__(self, message: str, at: int) -> None:
        super().__init__(message)
        self.at = at


def complex_from_dfaces(n: int, d: int, faces: Iterable[Sequence[int]]) -> PureComplex:
    """Build a PureComplex from its top faces, sorted, rejecting malformed input.

    Raises ValueError naming the first face, in input order, that has the
    wrong dimension, has a vertex that is not an integer (Python or numpy,
    not a bool), is not strictly increasing, has a vertex outside [1, n] or
    repeats an earlier face, checked in that order, as whole-array steps.
    """
    if d < 1:
        raise ValueError("dimension d must be >= 1")
    if n < d + 1:
        raise ValueError(f"need n >= d+1 = {d + 1} vertices, got {n}")
    faces = list(faces)
    widths = np.fromiter(map(len, faces), np.int64, len(faces))
    end = int(np.append(widths != d + 1, True).argmax())  # the first face of the wrong width
    rows = np.array(faces[:end])
    exact = rows.dtype.kind in "iu" and rows.ndim == 2  # else a non-integer, or a Python int past int64
    # numpy reads a bool among ints as 0 or 1, so in an integer array only a face holding 0 or 1 can hide one
    suspects = np.flatnonzero((rows <= 1).any(axis=1)) if exact else range(end)
    end = next((int(at) for at in suspects
                if not all(isinstance(v, (int, np.integer)) and not isinstance(v, bool) for v in faces[at])), end)
    rows = rows[:end] if exact else np.array(faces[:end], dtype=object).reshape(end, d + 1)
    keys = np.clip(rows, 0, n + 1).astype(np.int64)  # alters only rows with an id outside [1, n]
    order = np.lexsort(keys.T[::-1])  # stable: a repeat sorts right after an earlier copy
    repeats = np.zeros(end, dtype=bool)
    repeats[order[1:]] = (keys[order[1:]] == keys[order[:-1]]).all(axis=1)
    offences = np.array(
        [(rows[:, 1:] <= rows[:, :-1]).any(axis=1), (rows[:, 0] < 1) | (rows[:, -1] > n), repeats],
        dtype=bool,
    )
    bad = np.flatnonzero(offences.any(axis=0))
    if len(bad) or end < len(faces):
        at, kind = (bad[0], 2 + offences[:, bad[0]].argmax()) if len(bad) else (end, int(widths[end] == d + 1))
        face = tuple(faces[at])
        raise _FaceError((
            f"face {face} has dimension {len(face) - 1}, expected {d}",
            f"face {face} has a vertex that is not an integer",
            f"face {face} is not strictly increasing",
            f"face {face} has vertices outside [1, {n}]",
            f"duplicate d-face {face}",
        )[kind], int(at))
    return PureComplex(n, d, keys[order])


@dataclass(frozen=True)
class NeighborhoodComplex:
    """Layered census of the radius-r neighborhood of a (d-1)-face.

    Layer rho holds exactly the items first reached at line-graph distance
    rho: vertices, (d-1)-faces, and the d-faces whose whole boundary lies
    within distance rho.  Faces below dimension d-1 stay implicit.
    """

    center: Face
    radius: int
    vertex_layers: tuple[frozenset[int], ...]
    facet_layers: tuple[frozenset[Face], ...]
    dface_layers: tuple[frozenset[Face], ...]


def ball(X: PureComplex, sigma0: Face, r: int) -> NeighborhoodComplex:
    """Breadth-first neighborhood of sigma0 in the line-graph, out to radius r."""
    if len(sigma0) != X.d:
        raise ValueError(f"center {sigma0} is not a (d-1)-face of a {X.d}-complex")
    if r < 0:
        raise ValueError("radius must be >= 0")

    dist: dict[Face, int] = {sigma0: 0}
    frontier = [sigma0]
    facet_layers: list[set[Face]] = [{sigma0}]
    for rho in range(1, r + 1):
        nxt: list[Face] = []
        layer: set[Face] = set()
        for face in frontier:
            for tau in X.cofacets(face):
                for other in facets_of(tau):
                    if other not in dist:
                        dist[other] = rho
                        layer.add(other)
                        nxt.append(other)
        facet_layers.append(layer)
        frontier = nxt

    vertex_layers: list[set[int]] = []
    seen_vertices: set[int] = set()
    for layer in facet_layers:
        fresh = {v for face in layer for v in face} - seen_vertices
        vertex_layers.append(fresh)
        seen_vertices |= fresh

    dface_layers: list[set[Face]] = [set() for _ in range(r + 1)]
    candidates: set[Face] = set()
    for face in dist:
        candidates.update(X.cofacets(face))
    for tau in candidates:
        depths = [dist.get(facet) for facet in facets_of(tau)]
        if all(depth is not None for depth in depths):
            dface_layers[max(depths)].add(tau)  # type: ignore[type-var]

    return NeighborhoodComplex(
        center=sigma0,
        radius=r,
        vertex_layers=tuple(frozenset(s) for s in vertex_layers),
        facet_layers=tuple(frozenset(s) for s in facet_layers),
        dface_layers=tuple(frozenset(s) for s in dface_layers),
    )


def write_complex(X: PureComplex, path: str | Path) -> None:
    """Write the canonical text format: header "n d", then one d-face per line."""
    row = " ".join(["%d"] * (X.d + 1)) + "\n"
    Path(path).write_text(f"{X.n} {X.d}\n" + (row * X.num_dfaces) % tuple(X.faces.ravel().tolist()))


def read_complex(path: str | Path) -> PureComplex:
    """Parse the canonical text format produced by write_complex; a refused row names path:line."""
    rows, numbers = [], []
    for number, line in enumerate(Path(path).read_text().splitlines(), start=1):
        if line.strip():
            try:
                rows.append(tuple(int(v) for v in line.split()))
            except ValueError:
                raise ValueError(f"{path}:{number}: non-integer token in {line.strip()!r}") from None
            numbers.append(number)
    if not rows or len(rows[0]) != 2:
        raise ValueError(f"{path}: missing 'n d' header line")
    (n, d), faces = rows[0], rows[1:]
    try:
        return complex_from_dfaces(n, d, faces)
    except ValueError as exc:  # a face names its own line, any other error the header's
        line = numbers[exc.at + 1] if isinstance(exc, _FaceError) else numbers[0]
        raise ValueError(f"{path}:{line}: {exc}") from None

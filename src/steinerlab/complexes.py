"""Pure d-dimensional complexes with a complete (d-1)-skeleton.

A complex is stored as its set of top-dimensional faces over the vertex set
{1, ..., n}; all lower faces are implicit.  Faces are canonically represented
as strictly increasing tuples of vertex ids.  Orientations, signs and
everything derived from them live in `spectra`, which builds the signed
boundary matrix from these tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb
from pathlib import Path
from typing import Iterable, Iterator, Sequence

Face = tuple[int, ...]

__all__ = [
    "Face",
    "PureComplex",
    "NeighborhoodComplex",
    "complex_from_dfaces",
    "complete_complex",
    "all_faces",
    "facets_of",
    "ball",
    "write_complex",
    "read_complex",
]


def all_faces(n: int, dim: int) -> Iterator[Face]:
    """Yield every dim-face of the complete complex on [n] in lexicographic order."""
    return combinations(range(1, n + 1), dim + 1)


def facets_of(face: Face) -> list[Face]:
    """Codimension-one subfaces, indexed by the omitted position.

    Position i in the result omits face[i]; that index is what carries the
    induced-orientation sign (-1)**i.
    """
    return [face[:i] + face[i + 1 :] for i in range(len(face))]


def _normalize_face(raw: Sequence[int], n: int, dim: int) -> Face:
    face = tuple(raw)
    if len(face) != dim + 1:
        raise ValueError(f"face {face} has dimension {len(face) - 1}, expected {dim}")
    if any(face[i] >= face[i + 1] for i in range(len(face) - 1)):
        raise ValueError(f"face {face} is not strictly increasing")
    if face[0] < 1 or face[-1] > n:
        raise ValueError(f"face {face} has vertices outside [1, {n}]")
    return face


class PureComplex:
    """A finite pure d-complex on [n] with complete (d-1)-skeleton.

    Only the d-faces are materialized; every subset of [n] of size <= d is
    implicitly a face.  Instances are immutable after construction and safe
    to share across threads.
    """

    __slots__ = ("n", "d", "d_faces", "_cofacets")

    def __init__(self, n: int, d: int, d_faces: frozenset[Face], cofacets: dict[Face, tuple[Face, ...]]):
        self.n = n
        self.d = d
        self.d_faces = d_faces
        self._cofacets = cofacets

    @property
    def num_dfaces(self) -> int:
        return len(self.d_faces)

    @property
    def num_facets(self) -> int:
        """Number of (d-1)-faces, always C(n, d) by the complete skeleton."""
        return comb(self.n, self.d)

    def degree(self, face: Face) -> int:
        return len(self._cofacets.get(face, ()))

    def cofacets(self, face: Face) -> tuple[Face, ...]:
        """The d-faces containing a given (d-1)-face."""
        return self._cofacets.get(face, ())

    def facet_iter(self) -> Iterator[Face]:
        """All C(n, d) faces of dimension d-1, lexicographically."""
        return all_faces(self.n, self.d - 1)

    def min_degree(self) -> int:
        if len(self._cofacets) < self.num_facets:
            return 0
        return min(len(c) for c in self._cofacets.values())

    def max_degree(self) -> int:
        if not self._cofacets:
            return 0
        return max(len(c) for c in self._cofacets.values())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PureComplex):
            return NotImplemented
        return (self.n, self.d, self.d_faces) == (other.n, other.d, other.d_faces)

    def __hash__(self) -> int:
        return hash((self.n, self.d, self.d_faces))

    def __repr__(self) -> str:
        return f"PureComplex(n={self.n}, d={self.d}, dfaces={len(self.d_faces)})"


def complex_from_dfaces(n: int, d: int, faces: Iterable[Sequence[int]]) -> PureComplex:
    """Build a PureComplex from its top faces, rejecting malformed input.

    Raises ValueError on dimension mismatch, out-of-range vertices, or a
    repeated face in the input.
    """
    if d < 1:
        raise ValueError("dimension d must be >= 1")
    if n < d + 1:
        raise ValueError(f"need n >= d+1 = {d + 1} vertices, got {n}")
    seen: set[Face] = set()
    cofacets: dict[Face, list[Face]] = {}
    for raw in faces:
        face = _normalize_face(raw, n, d)
        if face in seen:
            raise ValueError(f"duplicate d-face {face}")
        seen.add(face)
        for facet in facets_of(face):
            cofacets.setdefault(facet, []).append(face)
    frozen = {facet: tuple(cofs) for facet, cofs in cofacets.items()}
    return PureComplex(n, d, frozenset(seen), frozen)


def complete_complex(n: int, d: int) -> PureComplex:
    """The complete d-complex on n vertices."""
    return complex_from_dfaces(n, d, all_faces(n, d))


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

    def total_vertices(self, rho: int | None = None) -> int:
        rho = self.radius if rho is None else rho
        return sum(len(layer) for layer in self.vertex_layers[: rho + 1])

    def total_facets(self, rho: int | None = None) -> int:
        rho = self.radius if rho is None else rho
        return sum(len(layer) for layer in self.facet_layers[: rho + 1])

    def total_dfaces(self, rho: int | None = None) -> int:
        rho = self.radius if rho is None else rho
        return sum(len(layer) for layer in self.dface_layers[: rho + 1])

    def facet_distances(self) -> dict[Face, int]:
        return {f: rho for rho, layer in enumerate(self.facet_layers) for f in layer}


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
    lines = [f"{X.n} {X.d}"]
    for face in sorted(X.d_faces):
        lines.append(" ".join(str(v) for v in face))
    Path(path).write_text("\n".join(lines) + "\n")


def read_complex(path: str | Path) -> PureComplex:
    """Parse the canonical text format produced by write_complex."""
    text = Path(path).read_text()
    rows = [line.split() for line in text.splitlines() if line.strip()]
    if not rows or len(rows[0]) != 2:
        raise ValueError(f"{path}: missing 'n d' header line")
    n, d = int(rows[0][0]), int(rows[0][1])
    faces = [tuple(int(v) for v in row) for row in rows[1:]]
    return complex_from_dfaces(n, d, faces)

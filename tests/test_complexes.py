import re
from math import comb

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from steinerlab import (
    ball,
    complexes,
    complex_from_dfaces,
    facets_of,
    read_complex,
    spectra,
    write_complex,
)
from conftest import random_complex
from oracles import (
    complete_complex,
    facet_distances,
    max_degree,
    min_degree,
    total_dfaces,
    total_facets,
    total_vertices,
)


# The tuple representation the integer-array complex replaced, kept as the
# reference: a frozenset of d-face tuples, a cofacet dict built face by face,
# and the text format written from the sorted tuples.
def reference_normalize_face(raw, n, dim):
    face = tuple(raw)
    if len(face) != dim + 1:
        raise ValueError(f"face {face} has dimension {len(face) - 1}, expected {dim}")
    if not all(isinstance(v, (int, np.integer)) and not isinstance(v, bool) for v in face):
        raise ValueError(f"face {face} has a vertex that is not an integer")
    if any(face[i] >= face[i + 1] for i in range(len(face) - 1)):
        raise ValueError(f"face {face} is not strictly increasing")
    if face[0] < 1 or face[-1] > n:
        raise ValueError(f"face {face} has vertices outside [1, {n}]")
    return face


class ReferenceComplex:
    def __init__(self, n, d, d_faces, cofacets):
        self.n, self.d, self.d_faces, self._cofacets = n, d, d_faces, cofacets

    def degree(self, face):
        return len(self._cofacets.get(face, ()))

    def cofacets(self, face):
        return self._cofacets.get(face, ())

    def min_degree(self):
        if len(self._cofacets) < comb(self.n, self.d):
            return 0
        return min(len(c) for c in self._cofacets.values())

    def max_degree(self):
        if not self._cofacets:
            return 0
        return max(len(c) for c in self._cofacets.values())


def reference_complex_from_dfaces(n, d, faces):
    seen = set()
    cofacets = {}
    for raw in faces:
        face = reference_normalize_face(raw, n, d)
        if face in seen:
            raise ValueError(f"duplicate d-face {face}")
        seen.add(face)
        for facet in facets_of(face):
            cofacets.setdefault(facet, []).append(face)
    frozen = {facet: tuple(cofs) for facet, cofs in cofacets.items()}
    return ReferenceComplex(n, d, frozenset(seen), frozen)


def reference_complex_text(X):
    lines = [f"{X.n} {X.d}"]
    for face in sorted(X.d_faces):
        lines.append(" ".join(str(v) for v in face))
    return "\n".join(lines) + "\n"


@st.composite
def face_lists(draw):
    """(n, d, faces): distinct valid faces, and sometimes repeats and malformed rows, shuffled."""
    d = draw(st.integers(1, 3))
    n = draw(st.integers(d + 1, 8))
    valid = st.lists(st.integers(1, n), min_size=d + 1, max_size=d + 1, unique=True).map(
        lambda face: tuple(sorted(face))
    )
    faces = draw(st.lists(valid, max_size=20, unique=True))
    if draw(st.booleans()):
        vertex = (st.integers(1, n) | st.integers(1, n).map(np.int64)
                  | st.sampled_from([0, -1, n + 1, 10**20, -(10**20), 1.5, 2.0, "1", True, np.True_]))
        malformed = st.lists(vertex, min_size=d, max_size=d + 2).map(tuple)
        faces += draw(st.lists(malformed | st.sampled_from(faces) if faces else malformed, max_size=3))
    return n, d, draw(st.permutations(faces))


def row(X, face):
    """Entries of A in the row of `face`, keyed by the neighbouring face."""
    faces = list(X.facet_iter())
    A = X.adjacency
    i = faces.index(face)
    return {faces[j]: A[i, j] for j in A[i].indices}


class TestConstruction:
    def test_complete_k4_triangles(self):
        X = complete_complex(4, 2)
        assert X.num_dfaces == 4
        assert all(X.degree(f) == 2 for f in X.facet_iter())

    def test_triangle_graph_degrees(self):
        X = complex_from_dfaces(3, 1, [(1, 2), (2, 3), (1, 3)])
        assert {f: X.degree(f) for f in X.facet_iter()} == {(1,): 2, (2,): 2, (3,): 2}

    def test_duplicate_face_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            complex_from_dfaces(4, 2, [(1, 2, 3), (1, 2, 3)])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            complex_from_dfaces(4, 2, [(1, 2)])

    def test_vertex_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            complex_from_dfaces(4, 2, [(2, 3, 5)])
        with pytest.raises(ValueError, match="increasing"):
            complex_from_dfaces(4, 2, [(3, 2, 1)])

    def test_too_few_vertices_rejected(self):
        with pytest.raises(ValueError):
            complex_from_dfaces(2, 2, [])

    def test_degree_of_uncovered_face_is_zero(self):
        X = complex_from_dfaces(5, 2, [(1, 2, 3)])
        assert X.degree((4, 5)) == 0
        assert min_degree(X) == 0


class TestLineGraph:
    """The line graph is the sparsity pattern of the signed adjacency A."""

    def test_complete_k4_edge_count(self):
        # each of the 4 triangles contributes C(3,2)=3 line-graph edges
        A = complete_complex(4, 2).adjacency
        assert A.shape == (comb(4, 2), comb(4, 2))
        assert A.count_nonzero() // 2 == 12

    def test_no_dfaces_gives_edgeless_graph(self):
        A = complex_from_dfaces(5, 2, []).adjacency
        assert A.shape == (comb(5, 2), comb(5, 2))
        assert A.count_nonzero() == 0

    def test_d1_triangle_reduction(self):
        X = complex_from_dfaces(3, 1, [(1, 2), (2, 3), (1, 3)])
        assert {f: set(row(X, f)) for f in X.facet_iter()} == {
            (1,): {(2,), (3,)}, (2,): {(1,), (3,)}, (3,): {(1,), (2,)}
        }

    def test_edge_count_identity(self, gen):
        # two facets share at most one d-face, so no entry of A cancels
        for _ in range(20):
            d = int(gen.integers(1, 4))
            n = int(gen.integers(d + 2, 9))
            X = random_complex(n, d, gen)
            assert X.adjacency.count_nonzero() // 2 == comb(d + 1, 2) * X.num_dfaces


class TestOrientedLineGraph:
    """Reversing an orientation negates a form, so A's signs are the oriented line-graph's."""

    def test_d1_path_graph(self):
        X = complex_from_dfaces(3, 1, [(1, 2), (2, 3)])
        assert row(X, (2,)) == {(1,): 1, (3,): 1}

    def test_single_2face_pattern(self):
        X = complex_from_dfaces(3, 2, [(1, 2, 3)])
        assert row(X, (1, 2)) == {(1, 3): 1, (2, 3): -1}
        assert all(len(row(X, f)) == 2 * X.degree(f) for f in X.facet_iter())

    def test_degree_identity_random(self, gen):
        for _ in range(10):
            d = int(gen.integers(1, 4))
            n = int(gen.integers(d + 2, 9))
            X = random_complex(n, d, gen)
            nnz = np.diff(X.adjacency.indptr)
            assert nnz.tolist() == [d * X.degree(f) for f in X.facet_iter()]

    def test_sign_symmetry(self, gen):
        for _ in range(10):
            d = int(gen.integers(2, 4))
            n = int(gen.integers(d + 2, 8))
            A = random_complex(n, d, gen).adjacency
            assert (A != A.T).nnz == 0


class TestBall:
    def test_radius_zero(self):
        X = complete_complex(4, 2)
        b = ball(X, (1, 2), 0)
        assert b.facet_layers == (frozenset({(1, 2)}),)
        assert b.vertex_layers == (frozenset({1, 2}),)
        assert total_dfaces(b) == 0

    def test_refuses_a_centre_of_the_wrong_dimension_and_a_negative_radius(self):
        X = complete_complex(4, 2)
        with pytest.raises(ValueError, match=r"center \(1,\) is not a \(d-1\)-face of a 2-complex"):
            ball(X, (1,), 1)
        with pytest.raises(ValueError, match="radius must be >= 0"):
            ball(X, (1, 2), -1)

    def test_isolated_center_never_grows(self):
        X = complex_from_dfaces(6, 2, [(1, 2, 3)])
        b0 = ball(X, (5, 6), 0)
        b3 = ball(X, (5, 6), 3)
        assert total_vertices(b3) == total_vertices(b0) == 2
        assert total_facets(b3) == 1
        assert total_dfaces(b3) == 0

    def test_k4_radius_one_layers(self):
        X = complete_complex(4, 2)
        b = ball(X, (1, 2), 1)
        assert b.vertex_layers[1] == frozenset({3, 4})
        assert b.dface_layers[1] == frozenset({(1, 2, 3), (1, 2, 4)})

    def test_vertex_dface_layer_inequality(self, gen):
        # layered vertex count never exceeds layered d-face count (r >= 1)
        for _ in range(25):
            d = int(gen.integers(1, 3))
            n = int(gen.integers(d + 2, 9))
            X = random_complex(n, d, gen)
            centers = [f for f in X.facet_iter() if X.degree(f) >= 1]
            if not centers:
                continue
            sigma0 = centers[int(gen.integers(0, len(centers)))]
            b = ball(X, sigma0, 3)
            for rho in range(1, 4):
                nv, nd = len(b.vertex_layers[rho]), len(b.dface_layers[rho])
                assert nv <= nd
                if nv == nd and nv:
                    for tau in b.dface_layers[rho]:
                        assert len(set(tau) & b.vertex_layers[rho]) == 1

    def test_degree_monotonicity_inside_ball(self, gen):
        # a face at distance < r keeps its full degree within the ball
        for _ in range(15):
            d = int(gen.integers(1, 3))
            n = int(gen.integers(d + 2, 8))
            X = random_complex(n, d, gen)
            centers = [f for f in X.facet_iter() if X.degree(f) >= 1]
            if not centers:
                continue
            sigma0 = centers[0]
            r = 3
            b = ball(X, sigma0, r)
            ball_dfaces = set()
            for layer in b.dface_layers:
                ball_dfaces |= layer
            for face, rho in facet_distances(b).items():
                if rho < r:
                    inside = sum(1 for tau in ball_dfaces if set(face) <= set(tau))
                    assert inside == X.degree(face)


class TestTextFormat:
    def test_roundtrip(self, tmp_path, gen):
        X = random_complex(7, 2, gen)
        path = tmp_path / "cx.txt"
        write_complex(X, path)
        Y = read_complex(path)
        assert X == Y

    def test_header_required(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("")
        with pytest.raises(ValueError, match="header"):
            read_complex(p)

    def test_non_integer_token_names_file_and_line(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("4 2\n1 2 3\n\n1 x 4\n")
        with pytest.raises(ValueError, match=re.escape(f"{p}:4: non-integer token in '1 x 4'")):
            read_complex(p)

    @pytest.mark.parametrize("header, message", [("4 0", "dimension d must be >= 1"), ("2 2", "need n >= d+1")])
    def test_bad_header_names_file_and_line(self, header, message, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text(f"\n{header}\n1 2 3\n")
        with pytest.raises(ValueError, match=re.escape(f"{p}:2: {message}")):
            read_complex(p)

    def test_format_shape(self, tmp_path):
        X = complex_from_dfaces(4, 2, [(1, 2, 4)])
        path = tmp_path / "cx.txt"
        write_complex(X, path)
        assert path.read_text() == "4 2\n1 2 4\n"


class TestTupleReference:
    """The integer-array complex against the tuple representation it replaced."""

    @settings(max_examples=300, deadline=None)
    @given(case=face_lists())
    def test_matches_tuple_reference(self, case, tmp_path_factory):
        n, d, faces = case
        try:
            ref = reference_complex_from_dfaces(n, d, faces)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                complex_from_dfaces(n, d, faces)
            assert str(got.value) == str(exc)
            return
        X = complex_from_dfaces(n, d, faces)
        assert X.d_faces == ref.d_faces
        assert X.faces.dtype == np.int64 and not X.faces.flags.writeable
        for facet in X.facet_iter():
            assert X.degree(facet) == ref.degree(facet)
            assert sorted(X.cofacets(facet)) == sorted(ref.cofacets(facet))
        assert (min_degree(X), max_degree(X)) == (ref.min_degree(), ref.max_degree())
        path = tmp_path_factory.mktemp("cx") / "cx.txt"
        write_complex(X, path)
        assert path.read_text() == reference_complex_text(ref)
        assert read_complex(path) == X
        B = X.boundary
        taus = np.array(sorted(ref.d_faces), dtype=np.int64).reshape(-1, d + 1)
        want = complexes._signed_incidence(taus, n)
        for attr in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(B, attr), getattr(want, attr)), attr

    def test_vertex_beyond_int64_is_out_of_range(self):
        with pytest.raises(ValueError, match=r"face \(1, 2, 100000000000000000000\) has vertices outside"):
            complex_from_dfaces(4, 2, [(1, 2, 10**20)])
        with pytest.raises(ValueError, match="not strictly increasing"):
            complex_from_dfaces(4, 2, [(1, 2, 3), (1, 10**20, 2)])

    def test_non_integer_vertex_rejected(self):
        # np.array(..., dtype=np.int64) would read 1.5 as 1 and "1" as 1
        with pytest.raises(ValueError, match=r"face \(1\.5, 2\) has a vertex that is not an integer"):
            complex_from_dfaces(4, 1, [(1.5, 2), (2, 3)])
        with pytest.raises(ValueError, match=r"face \('1', 2\) has a vertex that is not an integer"):
            complex_from_dfaces(4, 1, [("1", 2)])
        with pytest.raises(ValueError, match=r"face \(2\.0, 3\) has a vertex that is not an integer"):
            complex_from_dfaces(4, 1, [(2.0, 3)])
        # numpy reads a bool among ints as 0 or 1
        with pytest.raises(ValueError, match=r"face \(True, 2\) has a vertex that is not an integer"):
            complex_from_dfaces(4, 1, [(True, 2)])
        with pytest.raises(ValueError, match=r"face \(np\.True_, 2\) has a vertex that is not an integer"):
            complex_from_dfaces(4, 1, [(np.True_, 2), (3, 4)])
        # the dimension is checked first, then integrality, then order
        with pytest.raises(ValueError, match="dimension 2"):
            complex_from_dfaces(4, 1, [(1.5, 2, 3)])
        with pytest.raises(ValueError, match="not an integer"):
            complex_from_dfaces(4, 1, [(2.5, 1)])

    def test_numpy_integer_vertices_accepted(self):
        X = complex_from_dfaces(4, 1, [np.array([2, 3], dtype=np.int64), (np.int64(1), np.int64(2))])
        assert X.faces.tolist() == [[1, 2], [2, 3]] and X.faces.dtype == np.int64

    def test_first_offending_face_wins(self):
        # a malformed face after a duplicate: the duplicate is reported, as face by face
        with pytest.raises(ValueError, match=r"duplicate d-face \(1, 2, 3\)"):
            complex_from_dfaces(5, 2, [(1, 2, 3), (1, 2, 3), (1, 2)])
        with pytest.raises(ValueError, match="dimension 1"):
            complex_from_dfaces(5, 2, [(1, 2, 3), (1, 2), (1, 2, 3)])

    def test_cofacet_index_built_on_first_use(self):
        X = complex_from_dfaces(5, 2, [(1, 2, 3), (2, 3, 4)])
        X.boundary
        assert X._index is None
        assert X.cofacets((2, 3)) == ((1, 2, 3), (2, 3, 4))
        assert X._index is not None


class TestOwnOperators:
    """B, L and A are built once per complex, canonical and read-only, and no consumer changes them."""

    @staticmethod
    def arrays(M):
        return [M.data, M.indices, M.indptr]

    def test_consumers_leave_the_operators_unchanged(self, monkeypatch):
        from steinerlab import SeededRng, experiments, steiner_complex
        from steinerlab.arboreal import arboreal_fractions
        from steinerlab.spectra import _traces, moments, signed_trace, spectral_summary
        from steinerlab.trees import weighted_tree_count

        X = steiner_complex(7, 2, 3, SeededRng(1))  # 17 d-faces: 136 candidate trees, count 103
        B, L, A = X.boundary, X.laplacian, X.adjacency
        assert X.laplacian is L and X.boundary is B and X.adjacency is A
        assert all(M.has_canonical_format for M in (B, L, A))
        owned = self.arrays(B) + self.arrays(L) + self.arrays(A)
        before = [array.copy() for array in owned]
        assert weighted_tree_count(X).log_count == pytest.approx(np.log(103))
        assert weighted_tree_count(X, oracle=True).exact_count == 103
        arboreal_fractions(X, 3, (1, 2))
        moments(X, 4)
        monkeypatch.setattr(experiments, "steiner_complex", lambda *args: X)
        config = experiments.ExperimentConfig(d=2, k=3, n_values=(7,), trials=1)
        with pytest.warns(RuntimeWarning, match="proven regime threshold"):
            assert len(experiments.run_gap_report(config, epsilon=0.1).rows) == 1
        for operator in ("laplacian", "adjacency"):
            spectral_summary(X, operator=operator)
        signed_trace(X, 5)
        _traces(A, list(range(5)))
        assert X.boundary is B and X.laplacian is L and X.adjacency is A
        for M in (B, L, A):  # scipy's in-place sorts find a canonical operator with nothing to do
            abs(M)
            M.count_nonzero()
            M.sum_duplicates()
            M.sort_indices()
        for array, copy in zip(owned, before):
            assert np.array_equal(array, copy) and not array.flags.writeable
        for M in (B, L, A):
            with pytest.raises(ValueError, match="read-only"):
                M.data[0] = 0.0

    def test_a_verify_item_builds_the_adjacency_once(self, monkeypatch):
        # six traces, the dense A of their check and a gap row read one A = diag(L) - L
        from steinerlab import SeededRng, experiments, spectra, steiner_complex

        X = steiner_complex(31, 2, 5, SeededRng(1))
        L = X.laplacian
        built = []
        diags = sp.diags

        def counted(*args, **kwargs):
            built.append(1)
            return diags(*args, **kwargs)

        monkeypatch.setattr(sp, "diags", counted)
        traces = [spectra.signed_trace(X, ell) for ell in range(1, 7)]
        dense = spectra.adjacency_matrix(X)
        monkeypatch.setattr(experiments, "steiner_complex", lambda *args: X)
        config = experiments.ExperimentConfig(d=2, k=5, n_values=(31,), trials=1)
        with pytest.warns(RuntimeWarning, match="proven regime threshold"):
            assert len(experiments.run_gap_report(config, epsilon=0.1).rows) == 1
        assert built == [1]
        assert np.array_equal(dense, np.diag(L.diagonal()) - L.toarray())
        assert traces[1] == int((dense * dense).sum())

    def test_converge_row_builds_the_incidence_once(self, monkeypatch):
        from steinerlab import SeededRng, experiments, steiner_complex

        X = steiner_complex(15, 2, 5, SeededRng(3))
        complexes._complete_coboundary(15, 2)  # delta is cached per (n, d): built before the spy, as earlier tests do
        built = []
        incidence = complexes._signed_incidence

        def counted(faces, n):
            built.append(faces is X.faces)
            return incidence(faces, n)

        monkeypatch.setattr(complexes, "_signed_incidence", counted)
        config = experiments.ExperimentConfig(d=2, k=5, n_values=(15,), trials=1, radii=(1, 2))
        experiments._converge_row(config, X, 15, 0)
        assert built == [True]

    def test_threads_share_one_read_only_laplacian(self):
        # a race on the first build may build twice; every thread still reads an
        # identical read-only L, and the complex keeps one of them
        import sys
        import threading

        from steinerlab import SeededRng, steiner_complex

        X = steiner_complex(31, 2, 5, SeededRng(2))
        want = complexes._signed_incidence(X.faces, X.n)
        want = (want @ want.T).tocsr()
        want.sum_duplicates()  # the canonical product
        got = [None] * 8

        def read(i):
            got[i] = X.laplacian

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read, args=(i,)) for i in range(len(got))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert any(L is X.laplacian for L in got)
        for L in got:
            assert all(np.array_equal(a, b) for a, b in zip(self.arrays(L), self.arrays(want)))
            assert not any(array.flags.writeable for array in self.arrays(L))

import io
import time
import tracemalloc
from math import comb

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackNoConvergence

from steinerlab import (
    SeededRng,
    adjacency_matrix,
    all_faces,
    complete_complex,
    complex_from_dfaces,
    facets_of,
    laplacian_matrix,
    moments,
    signed_trace,
    spectral_summary,
    steiner_complex,
    trivial_zero_count,
)
from steinerlab import spectra
from conftest import random_complex
from oracles import esd, exact_rank, trace_oracle


def triangle():
    return complex_from_dfaces(3, 1, [(1, 2), (2, 3), (1, 3)])


def spy_products(monkeypatch) -> list[tuple[bool, int, np.dtype]]:
    """From now on, record (whether the right factor is dense, rows, dtype) for each sparse-times-matrix product."""
    products = []
    matmul = sp.csr_matrix.__matmul__

    def spy(self, other):
        product = matmul(self, other)
        products.append((isinstance(other, np.ndarray), self.shape[0], product.dtype))
        return product

    monkeypatch.setattr(sp.csr_matrix, "__matmul__", spy)
    return products


def row_blocks(m: int, width: int) -> list[int]:
    """Rows of each block in which `_traces` forms a last power of order m at `width` bytes an entry."""
    step = spectra.TRACE_BLOCK_BYTES // (width * m)
    return [min(step, m - a) for a in range(0, m, step)]


class TestAdjacency:
    def test_d1_reduction(self):
        A = adjacency_matrix(triangle())
        assert np.array_equal(A, np.ones((3, 3)) - np.eye(3))

    def test_single_2face_pattern(self):
        # basis order (1,2), (1,3), (2,3); signs fixed by induced orientations
        A = adjacency_matrix(complex_from_dfaces(3, 2, [(1, 2, 3)]))
        expected = np.array([[0, 1, -1], [1, 0, 1], [-1, 1, 0]], dtype=float)
        assert np.array_equal(A, expected)
        assert np.allclose(np.sort(np.linalg.eigvalsh(A)), [-2, 1, 1])

    def test_row_sums_bounded_by_d_deg(self, gen):
        for _ in range(10):
            d = int(gen.integers(1, 3))
            n = int(gen.integers(d + 2, 9))
            X = random_complex(n, d, gen)
            A = adjacency_matrix(X)
            for i, face in enumerate(X.facet_iter()):
                assert abs(A[i].sum()) <= d * X.degree(face) + 1e-12

    def test_zero_diagonal_symmetric(self, gen):
        X = random_complex(7, 2, gen)
        A = adjacency_matrix(X)
        assert np.array_equal(A, A.T)
        assert np.array_equal(np.diag(A), np.zeros(len(A)))


class TestLaplacian:
    def test_triangle_spectrum(self):
        eigs = np.linalg.eigvalsh(laplacian_matrix(triangle()))
        assert np.allclose(eigs, [0, 3, 3], atol=1e-10)

    def test_k4_trace_is_degree_sum(self):
        L = laplacian_matrix(complete_complex(4, 2))
        assert L.shape == (6, 6)
        assert np.trace(L) == pytest.approx(12.0)

    def test_plus_adjacency_is_degree_diagonal(self, gen):
        X = random_complex(8, 2, gen)
        D = laplacian_matrix(X) + adjacency_matrix(X)
        expected = np.diag([X.degree(f) for f in X.facet_iter()])
        assert np.array_equal(D, expected)

    def test_psd_and_support_bound(self, gen):
        # spectrum within [0, (d+1)k] for degree-bounded complexes
        for seed in range(3):
            X = steiner_complex(9, 2, 3, SeededRng(100 + seed))
            eigs = np.linalg.eigvalsh(laplacian_matrix(X))
            bound = (X.d + 1) * 3
            eps = 1e-8 * bound
            assert eigs[0] >= -eps
            assert eigs[-1] <= bound + eps


def tuple_laplacian(X):
    """Reference Laplacian from the face tuples: degree diagonal, (-1)**(i+j) per shared d-face."""
    index = {face: i for i, face in enumerate(X.facet_iter())}
    L = np.zeros((len(index), len(index)))
    for tau in X.d_faces:
        facets = [tau[:i] + tau[i + 1 :] for i in range(len(tau))]
        for i, fi in enumerate(facets):
            for j, fj in enumerate(facets):
                L[index[fi], index[fj]] += 1.0 if i == j else (-1.0) ** (i + j)
    return L


def tuple_boundary(X):
    """Reference signed boundary from the face tuples: (-1)**i where a sorted d-face omits vertex i."""
    index = {face: i for i, face in enumerate(X.facet_iter())}
    B = np.zeros((len(index), X.num_dfaces), dtype=np.int64)
    for col, tau in enumerate(sorted(X.d_faces)):
        for i in range(len(tau)):
            B[index[tau[:i] + tau[i + 1 :]], col] = 1 if i % 2 == 0 else -1
    return B


def coboundary_rows(n, d):
    """Reference coboundary from (d-2)-forms of the complete skeleton, one row per (d-1)-face.

    Row sigma holds (-1)**i in the column of the (d-2)-face omitting sigma's
    i-th vertex; for d = 1 the single column is the empty face.
    """
    cols = {face: idx for idx, face in enumerate(all_faces(n, d - 2))}
    for sigma in all_faces(n, d - 1):
        row = [0] * len(cols)
        for i, sub in enumerate(facets_of(sigma)):
            row[cols[sub]] = 1 if i % 2 == 0 else -1
        yield row


class TestSparseOperators:
    def test_laplacian_matches_tuple_construction(self, gen):
        for _ in range(12):
            d = int(gen.integers(1, 4))
            n = int(gen.integers(d + 2, 10 - d))
            X = random_complex(n, d, gen)
            assert np.array_equal(laplacian_matrix(X), tuple_laplacian(X))
            L = spectra.sparse_laplacian(X)
            B = spectra.boundary_matrix(X)
            assert B.shape == (comb(n, d), X.num_dfaces)
            assert np.array_equal(B.toarray(), tuple_boundary(X))
            assert np.array_equal(L.toarray(), tuple_laplacian(X))

    @pytest.mark.parametrize("n,d", [(4, 1), (5, 2), (7, 2), (6, 3)])
    def test_coboundary_matches_tuple_rows(self, n, d):
        delta = spectra.coboundary_matrix(n, d)
        assert np.array_equal(delta.toarray(), np.array(list(coboundary_rows(n, d))))

    def test_coboundary_image_in_kernel(self, gen):
        for d in (1, 2, 3):
            X = random_complex(d + 4, d, gen)
            product = spectra.sparse_laplacian(X) @ spectra.coboundary_matrix(X.n, d)
            assert product.count_nonzero() == 0


def dense_restricted(M: sp.spmatrix, n: int, d: int) -> np.ndarray:
    """Spectrum of M on ker delta^T, by a dense solve in an orthonormal basis of it."""
    Q = scipy.linalg.null_space(spectra.coboundary_matrix(n, d).T.toarray())
    return np.linalg.eigvalsh(Q.T @ M.toarray() @ Q)


class TestRestrictedExtreme:
    """`restricted_extreme` is the one Lanczos solve on ker delta^T, for L and A at either end."""

    def test_both_ends_of_both_operators_match_dense(self, gen):
        for d in (1, 2, 3):
            for _ in range(3):
                X = random_complex(d + 5, d, gen, min_faces=comb(d + 4, d))
                L = spectra.sparse_laplacian(X)
                for M in (L, spectra.signed_adjacency(L)):
                    eigs = dense_restricted(M, X.n, d)
                    scale = max(1.0, float(abs(eigs).max()))
                    assert spectra.restricted_extreme(M, X.n, d, "SA") == pytest.approx(eigs[0], abs=1e-9 * scale)
                    assert spectra.restricted_extreme(M, X.n, d, "LA") == pytest.approx(eigs[-1], abs=1e-9 * scale)

    def test_leaves_the_matrix_as_it_was(self):
        # abs(M) would sort M's indices in place; on this input the count's floor
        # then moves from a flagged zero to 0.108 and its Cholesky fails
        X = steiner_complex(13, 2, 2, SeededRng(5).substream(13, 0))
        L = spectra.sparse_laplacian(X)
        for M, which in ((L, "SA"), (spectra.signed_adjacency(L), "LA")):
            indices, data, indptr = M.indices.copy(), M.data.copy(), M.indptr.copy()
            assert not M.has_sorted_indices
            spectra.restricted_extreme(M, X.n, X.d, which)
            assert not M.has_sorted_indices
            assert np.array_equal(M.indices, indices) and np.array_equal(M.indptr, indptr)
            assert np.array_equal(M.data, data)

    def test_no_convergence_is_a_numerical_failure(self, monkeypatch):
        def stall(*args, **kwargs):
            message = "No convergence (106 iterations, 0/1 eigenvectors converged)"
            raise ArpackNoConvergence(message, np.zeros(0), np.zeros((0, 0)))

        monkeypatch.setattr(spectra, "eigsh", stall)
        L = spectra.sparse_laplacian(triangle())
        with pytest.raises(spectra.NumericalFailure, match=r"Lanczos \(SA\) did not converge"):
            spectra.restricted_extreme(L, 3, 1, "SA")


class TestEigenvalues:
    """spectral_summary's in-place solve gives eigvalsh's spectrum of the dense operator, bit for bit."""

    @staticmethod
    def assert_bit_equal_at_31():
        X = steiner_complex(31, 2, 5, SeededRng(7).substream(31, 0))
        for operator, build in (("laplacian", laplacian_matrix), ("adjacency", adjacency_matrix)):
            got = spectral_summary(X, operator=operator).eigenvalues
            assert np.array_equal(got, np.linalg.eigvalsh(build(X))), operator

    def test_diagonal(self):
        # no d-face: both operators are the zero matrix, the one diagonal case
        X = complex_from_dfaces(5, 2, [])
        for operator in ("laplacian", "adjacency"):
            assert np.array_equal(spectral_summary(X, operator=operator).eigenvalues, np.zeros(10))
        self.assert_bit_equal_at_31()

    def test_trace_invariance(self, gen):
        X = random_complex(8, 2, gen)
        for operator, build in (("laplacian", laplacian_matrix), ("adjacency", adjacency_matrix)):
            M = build(X)
            eigs = spectral_summary(X, operator=operator).eigenvalues
            assert np.trace(M) == pytest.approx(eigs.sum(), abs=1e-9 * max(1, abs(np.trace(M))) * len(M))
        self.assert_bit_equal_at_31()


class TestTrivialZeros:
    @pytest.mark.parametrize(
        "n,d,expected",
        [(4, 1, 1), (8, 1, 1), (5, 2, 4), (7, 2, 6), (6, 3, 10)],
    )
    def test_equals_closed_form(self, n, d, expected):
        X = complex_from_dfaces(n, d, [tuple(range(1, d + 2))])
        assert trivial_zero_count(X) == expected == comb(n - 1, d - 1)

    @pytest.mark.parametrize("n,d", [(4, 1), (8, 1), (5, 2), (7, 2), (6, 3), (6, 2)])
    def test_exact_rank_agrees_with_closed_form(self, n, d):
        # the closed form against the exact rank of the complete skeleton's coboundary
        rows = list(coboundary_rows(n, d))
        X = complex_from_dfaces(n, d, [tuple(range(1, d + 2))])
        assert exact_rank(rows) == trivial_zero_count(X)

    def test_zero_count_lower_bounds_kernel(self, gen):
        for _ in range(5):
            X = random_complex(6, 2, gen)
            eigs = np.linalg.eigvalsh(laplacian_matrix(X))
            eps = spectra.zero_threshold(float(eigs[-1]))
            assert int(np.sum(eigs < eps)) >= trivial_zero_count(X)


class TestEsdMoments:
    def test_moment_zero_is_one(self, gen):
        X = random_complex(7, 2, gen)
        assert moments(laplacian_matrix(X), 3)[0] == pytest.approx(1.0)

    def test_first_laplacian_moment_is_degree_mean(self):
        X = steiner_complex(8, 1, 3, SeededRng(17))
        m = moments(laplacian_matrix(X), 1)
        mean_deg = sum(X.degree(f) for f in X.facet_iter()) / comb(X.n, X.d)
        assert m[1] == pytest.approx(mean_deg)

    def test_second_adjacency_moment_regular_graph(self):
        # disjoint matchings happen fast for n=8, k=2; retry streams until regular
        for t in range(50):
            X = steiner_complex(8, 1, 2, SeededRng(23, t))
            if X.min_degree() == 2:
                m = moments(adjacency_matrix(X), 2)
                assert m[2] == pytest.approx(2.0)
                return
        pytest.fail("no regular sample found")

    def test_exact_traces_match_eigenvalues(self, gen):
        for d in (1, 2, 3):
            for _ in range(3):
                X = random_complex(int(gen.integers(d + 3, 10 - d)), d, gen)
                L = spectra.sparse_laplacian(X)
                dense = L.toarray().astype(np.int64)
                eigs = np.linalg.eigvalsh(L.toarray())
                m = len(eigs)
                got = moments(L, 7)
                power = np.eye(m, dtype=np.int64)
                for ell in range(8):
                    assert got[ell] == int(np.trace(power)) / m  # exact integer trace over m
                    assert got[ell] == pytest.approx(np.mean(eigs**ell), rel=1e-12)
                    power = power @ dense

    def test_moments_need_an_integer_matrix(self):
        with pytest.raises(ValueError, match="integer"):
            moments(np.array([[0.5, 0.0], [0.0, 1.0]]), 2)

    def test_moments_need_a_symmetric_matrix(self):
        # the traces pair M^a with M^b in place of (M^b)^T
        with pytest.raises(ValueError, match="symmetric"):
            moments(np.array([[0, 1], [0, 0]]), 2)

    def test_duplicate_entries_are_summed_before_squares(self):
        def doubled():  # [[0, 2], [2, 0]] with each 2 stored as 1 + 1
            return sp.csr_matrix((np.ones(4, dtype=np.int64), [1, 1, 0, 0], [0, 2, 4]), shape=(2, 2))

        M = doubled()
        assert moments(M, 4) == [1, 0, 4, 0, 16]
        assert M.indptr.tolist() == [0, 2, 4] and M.data.tolist() == [1, 1, 1, 1]  # summed in a copy
        assert spectra._traces(doubled(), [2]) == [8]

    @pytest.mark.parametrize(
        "n,room,dense_from",
        [(486, True, 2), (488, True, 3), (486, False, 5)],
        ids=["dense-powers", "sparse-powers", "no-room"],
    )
    def test_traces_on_both_sides_of_the_dense_rule(self, monkeypatch, n, room, dense_from):
        # d = 1, k = 8: A^2 fills 11.13% of its entries at n = 486 and 11.02% at n = 488, just above
        # and just below DENSE_POWER_FILL, and A^3 fills 56%; with no room for dense powers none is made
        if not room:
            monkeypatch.setattr(spectra, "usable_memory", spectra.resident_memory)
        X = steiner_complex(n, 1, 8, SeededRng(5))
        A = spectra.signed_adjacency(spectra.sparse_laplacian(X))
        expected = trace_oracle(A, 8)
        assert [signed_trace(X, ell) for ell in range(9)] == expected
        assert moments(A, 8) == [t / n for t in expected]
        products = spy_products(monkeypatch)
        assert spectra._traces(A, list(range(9))) == expected
        # A^2, A^3 and A^4 are A times A, A^2 and A^3, each dense from A^dense_from on, all in
        # int32 (8^8 < 2^31); the last, A^4, is formed in blocks of rows when A^3 is dense
        int32 = np.dtype(np.int32)
        whole = [(j >= dense_from, n, int32) for j in range(1, 3)]
        if dense_from <= 3:
            assert products == whole + [(True, rows, int32) for rows in row_blocks(n, 4)]
        else:
            assert products == whole + [(False, n, int32)]

    @pytest.mark.parametrize("length, width", [(5, np.int32), (6, np.int64)])
    def test_traces_on_both_sides_of_the_width(self, monkeypatch, length, width):
        # K_21^(2): each facet lies in n - d = 19 d-faces with d = 2 other facets each, so the
        # absolute row sums of A are 38, and 38^5 < 2^31 <= 38^6
        X = complete_complex(21, 2)
        A = spectra.signed_adjacency(spectra.sparse_laplacian(X))
        m = comb(21, 2)
        assert int(abs(A).sum(axis=1).max()) == 38
        expected = trace_oracle(A, length)[length]
        products = spy_products(monkeypatch)
        assert spectra._traces(A, [length]) == [expected]
        # A^2 is made dense, and A^3, the last power, comes in blocks of rows, none of them all m
        dtype = np.dtype(width)
        blocks = row_blocks(m, dtype.itemsize)
        assert products == [(False, m, dtype)] + [(True, rows, dtype) for rows in blocks]
        assert len(blocks) > 1

    def test_at_most_two_dense_powers_are_live(self):
        # d = 1, k = 8, n = 488: A^3 is the first dense power, and lmax = 16 reaches A^8
        X = steiner_complex(488, 1, 8, SeededRng(5))
        A = spectra.signed_adjacency(spectra.sparse_laplacian(X))
        tracemalloc.start()
        try:
            got = moments(A, 16)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * 8 * 488**2
        assert got == [t / 488 for t in trace_oracle(A, 16)]

    def test_matching_moments_form_no_power(self, monkeypatch):
        # absolute row sums <= 1: A^3 = A, so every trace comes from the identity and A itself
        A = spectra.signed_adjacency(spectra.sparse_laplacian(steiner_complex(12, 1, 1, SeededRng(5))))
        expected = trace_oracle(A, 8)
        products = spy_products(monkeypatch)
        assert moments(A, 8) == [t / 12 for t in expected]
        assert moments(A, 10**4)[-2:] == [0.0, 1.0]
        assert products == []

    def test_histogram_masses_sum_to_one(self, gen):
        X = random_complex(7, 2, gen)
        s = esd(laplacian_matrix(X), bins=7, lmax=2)
        assert s.hist_masses.sum() == pytest.approx(1.0)
        assert len(s.eigenvalues) == comb(7, 2)

    def test_spectral_summary_carries_trivial_zeros(self):
        X = complete_complex(5, 2)
        s = spectral_summary(X, "laplacian", bins=5, lmax=2)
        assert s.trivial_zero_count == 4
        with pytest.raises(ValueError):
            spectral_summary(X, "hodge")


class TestSignedTrace:
    def test_length_zero(self, gen):
        X = random_complex(7, 2, gen)
        assert signed_trace(X, 0) == comb(7, 2)

    def test_triangle_two_walks(self):
        assert signed_trace(triangle(), 2) == 6

    def test_length_past_ten_matches_dense_trace(self):
        # no fixed length cap: only the int64 guard refuses a length
        A = np.asarray(adjacency_matrix(triangle())).astype(np.int64)
        assert signed_trace(triangle(), 11) == np.trace(np.linalg.matrix_power(A, 11))

    def test_matches_matrix_power(self, gen):
        for _ in range(12):
            d = int(gen.integers(1, 3))
            n = int(gen.integers(d + 2, 11))
            X = random_complex(n, d, gen)
            A = adjacency_matrix(X)
            P = np.eye(len(A))
            for ell in range(7):
                assert signed_trace(X, ell) == pytest.approx(np.trace(P), abs=1e-6)
                P = P @ A

    @pytest.mark.parametrize("n,d,ell", [(8, 2, 6), (12, 3, 10), (40, 1, 10), (41, 2, 10)])
    def test_complete_complex_closed_form(self, n, d, ell):
        # L has eigenvalue n on C(n-1, d) forms and 0 on C(n-1, d-1), and A = (n-d) I - L;
        # (41, 2) is just inside int64: the absolute row sum of A is 78 and 78^10 < 2^63
        expected = comb(n - 1, d - 1) * (n - d) ** ell + comb(n - 1, d) * (-d) ** ell
        value = signed_trace(complete_complex(n, d), ell)
        assert type(value) is int and value == expected

    def test_int64_guard(self):
        # absolute row sum 80 and 80^10 > 2^63: refused before any product
        with pytest.raises(ValueError, match="int64"):
            signed_trace(complete_complex(42, 2), 10)

    def test_huge_length_refused_at_once(self):
        # absolute row sum 2: refused without building 2^(10^9)
        start = time.perf_counter()
        with pytest.raises(ValueError, match=r"2\^1000000000 >= 2\^63"):
            signed_trace(triangle(), 10**9)
        assert time.perf_counter() - start < 2.0

    @pytest.mark.parametrize(
        "X", [steiner_complex(12, 1, 1, SeededRng(5)), complex_from_dfaces(2, 1, [(1, 2)])], ids=["matching", "edge"]
    )
    def test_matching_traces_have_period_two(self, X):
        # absolute row sums <= 1: the int64 guard admits every length, and A^3 = A
        expected = trace_oracle(spectra.signed_adjacency(spectra.sparse_laplacian(X)), 9)
        for ell in range(10):
            assert signed_trace(X, ell) == expected[ell]
        start = time.perf_counter()
        assert signed_trace(X, 10**9) == signed_trace(X, 2) == X.n
        assert signed_trace(X, 10**9 + 1) == 0
        assert time.perf_counter() - start < 1.0

    def test_overflow_test_matches_the_power(self):
        for R in range(5):
            for lmax in range(70):
                assert spectra.int64_power_overflows(R, lmax) == (R**lmax >= 2**63)


class TestDenseGuard:
    """m x m dense arrays are refused, before allocation, when 8 m^2 and the resident set exceed usable memory."""

    @pytest.fixture
    def no_resident(self, monkeypatch):
        # the byte boundaries below count the array alone
        monkeypatch.setattr(spectra, "resident_memory", lambda: 0)

    @pytest.fixture
    def tiny_memory(self, monkeypatch, no_resident):
        # 1000 bytes of "physical memory": m = 11 fits (968 B), m = 12 does not
        sizes = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": 1000}
        monkeypatch.setattr(spectra.os, "sysconf", lambda name: sizes[name])

    def test_threshold(self, tiny_memory):
        spectra.require_dense_fits(11)
        with pytest.raises(ValueError, match="physical memory"):
            spectra.require_dense_fits(12)

    def test_dense_operators_refuse(self, tiny_memory):
        laplacian_matrix(complete_complex(5, 2))  # m = 10
        X = complete_complex(6, 2)  # m = 15
        for build in (laplacian_matrix, adjacency_matrix):
            with pytest.raises(ValueError, match="physical memory"):
                build(X)
        with pytest.raises(ValueError, match="physical memory"):
            spectral_summary(X)

    def test_tree_count_refuses(self, tiny_memory):
        from steinerlab import weighted_tree_count

        # the packed factor of the order-C(7, 2) reduced Laplacian takes 8 * 231 = 1848 B
        with pytest.raises(ValueError, match="physical memory"):
            weighted_tree_count(complete_complex(8, 2))

    def test_cgroup_limit_caps_physical_memory(self, tmp_path, monkeypatch, no_resident):
        v2, v1 = tmp_path / "memory.max", tmp_path / "memory.limit_in_bytes"
        monkeypatch.setattr(spectra, "CGROUP_MEMORY_LIMITS", (str(v2), str(v1)))
        physical = spectra.usable_memory()
        v2.write_text("max\n")
        v1.write_text("500\n")
        assert spectra.usable_memory() == 500
        spectra.require_dense_fits(7)  # 392 B
        with pytest.raises(ValueError, match="cgroup"):
            spectra.require_dense_fits(8)  # 512 B
        v1.unlink()
        assert spectra.usable_memory() == physical

    def test_address_space_limit_caps_physical_memory(self, monkeypatch, no_resident):
        monkeypatch.setattr(spectra.resource, "getrlimit", lambda _: (4096, spectra.resource.RLIM_INFINITY))
        assert spectra.usable_memory() == 4096

    def test_resident_set_counts_against_the_limit(self, monkeypatch, no_resident):
        # d = 2, n = 255: the 8.39 GB matrix fits an 8,029 MiB host only if the process holds nothing
        m = comb(255, 2)
        monkeypatch.setattr(spectra, "usable_memory", lambda: 8 * m * m + 1)
        spectra.require_dense_fits(m)
        monkeypatch.setattr(spectra, "resident_memory", lambda: 85 * 2**20)
        with pytest.raises(ValueError, match="physical memory"):
            spectra.require_dense_fits(m)

    def test_resident_memory_reads_the_process(self, monkeypatch):
        # the real read is only checked positive: statm can run a few pages above
        # ru_maxrss, whose peak is summed from counters that lag
        peak = spectra.resource.getrusage(spectra.resource.RUSAGE_SELF).ru_maxrss * 1024
        assert spectra.resident_memory() > 0

        def statm(path, *args, **kwargs):
            assert path == "/proc/self/statm"
            return io.StringIO("52000 1234 800 300 0 9000 0\n")  # size resident shared text lib data dt

        monkeypatch.setattr(spectra, "open", statm, raising=False)
        assert spectra.resident_memory() == 1234 * spectra.resource.getpagesize()

        def no_proc(*args, **kwargs):
            raise OSError("no /proc")

        monkeypatch.setattr(spectra, "open", no_proc, raising=False)
        assert spectra.resident_memory() >= peak

    def test_real_memory_admits_bench_sizes(self):
        spectra.require_dense_fits(comb(111, 2))
        with pytest.raises(ValueError, match="physical memory"):
            spectra.require_dense_fits(comb(997, 2))

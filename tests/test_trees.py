import tracemalloc
from math import comb, exp, log

import numpy as np
import pytest
import scipy.sparse as sp

from steinerlab import (
    SeededRng,
    complete_complex,
    complex_from_dfaces,
    laplacian_pseudodet,
    smith_normal_form,
    spectra,
    steiner_complex,
    tree_count_exact,
    tree_growth_rate,
    trees,
    weighted_tree_count,
)
from steinerlab.spectra import eigenvalues, laplacian_matrix, sparse_laplacian, trivial_zero_count
from steinerlab.trees import growth_rate_from_eigenvalues, pseudodet_from_eigenvalues
from conftest import random_complex


def triangle():
    return complex_from_dfaces(3, 1, [(1, 2), (2, 3), (1, 3)])


# minimal 6-vertex triangulation of the real projective plane
RP2 = [(1, 2, 4), (1, 2, 5), (1, 3, 4), (1, 3, 6), (1, 5, 6),
       (2, 3, 5), (2, 3, 6), (2, 4, 6), (3, 4, 5), (4, 5, 6)]


class TestPseudodet:
    def test_triangle_log_nine(self):
        value, flag = laplacian_pseudodet(triangle())
        assert not flag
        assert value == pytest.approx(log(9), abs=1e-9)

    def test_k4_2_is_64(self):
        value, flag = laplacian_pseudodet(complete_complex(4, 2))
        assert not flag
        assert exp(value) == pytest.approx(64.0, rel=1e-9)

    def test_hole_sets_flag(self):
        X = complex_from_dfaces(4, 2, [(1, 2, 3), (1, 2, 4)])
        _, flag = laplacian_pseudodet(X)
        assert flag

    def test_missing_trivial_zero_is_hard_failure(self):
        with pytest.raises(RuntimeError, match="trivial"):
            pseudodet_from_eigenvalues(np.array([0.5, 1.0, 2.0]), 1)

    def test_ambiguous_zone_warns(self):
        eigs = np.array([0.0, 5e-6, 1.0])
        with pytest.warns(RuntimeWarning, match="ambiguous"):
            pseudodet_from_eigenvalues(eigs, 1)


class TestWeightedTreeCount:
    def test_cayley_k4(self):
        r = weighted_tree_count(complete_complex(4, 1))
        assert exp(r.log_count) == pytest.approx(16.0, rel=1e-9)

    def test_kalai_grid(self):
        for n, d in [(4, 1), (5, 1), (6, 1), (4, 2), (5, 2)]:
            r = weighted_tree_count(complete_complex(n, d))
            expected = comb(n - 2, d) * log(n)
            assert r.log_count == pytest.approx(expected, abs=1e-8 * max(1, expected))

    def test_flag_propagates_to_zero_count(self):
        X = complex_from_dfaces(4, 2, [(1, 2, 3), (1, 2, 4)])
        r = weighted_tree_count(X)
        assert r.zero_flag and r.count == 0.0

    def test_oracle_cross_check_attached(self):
        r = weighted_tree_count(complete_complex(4, 2), oracle=True)
        assert r.exact_count == 4


class TestGrowthRate:
    def test_k4_graph_is_two(self):
        assert tree_growth_rate(complete_complex(4, 1)) == pytest.approx(2.0, abs=1e-10)

    def test_triangle(self):
        assert tree_growth_rate(triangle()) == pytest.approx(3 ** (1 / 3), abs=1e-12)

    def test_flagged_complex_returns_zero(self):
        X = complex_from_dfaces(4, 2, [(1, 2, 3), (1, 2, 4)])
        assert tree_growth_rate(X) == 0.0


class TestSmithNormalForm:
    def test_identity(self):
        assert smith_normal_form(np.eye(3, dtype=int)).factors == (1, 1, 1)

    def test_diagonal_kept(self):
        assert smith_normal_form([[2, 0], [0, 4]]).factors == (2, 4)

    def test_divisibility_chain_enforced(self):
        snf = smith_normal_form([[2, 0], [0, 3]])
        assert snf.factors == (1, 6)
        assert snf.torsion() == 6

    def test_zero_matrix(self):
        assert smith_normal_form([[0, 0], [0, 0]]).factors == ()

    def test_projective_plane_torsion(self):
        snf = smith_normal_form(spectra.boundary_matrix(complex_from_dfaces(6, 2, RP2)).toarray())
        assert snf.rank == 10
        assert snf.torsion() == 2

    def test_random_chain_property(self, gen):
        for _ in range(20):
            M = gen.integers(-5, 6, size=(4, 5))
            factors = smith_normal_form(M).factors
            for a, b in zip(factors, factors[1:]):
                assert b % a == 0
            assert smith_normal_form(M.T).factors == factors


class TestExactOracle:
    def test_triangle_three_trees(self):
        assert tree_count_exact(triangle()) == 3

    def test_cayley_k4(self):
        assert tree_count_exact(complete_complex(4, 1)) == 16

    def test_k4_2(self):
        assert tree_count_exact(complete_complex(4, 2)) == 4

    def test_k5_2(self):
        assert tree_count_exact(complete_complex(5, 2)) == 125

    def test_too_few_faces_is_zero(self):
        assert tree_count_exact(complex_from_dfaces(4, 2, [(1, 2, 3)])) == 0

    def test_guard(self):
        with pytest.raises(ValueError, match="guard"):
            tree_count_exact(complete_complex(9, 1))

    def test_matches_spectral_on_random_complexes(self, gen):
        positive_seen = 0
        for _ in range(12):
            d = int(gen.integers(1, 3))
            n = int(gen.integers(d + 2, 7))
            X = random_complex(n, d, gen, max_faces=12)
            exact = tree_count_exact(X)
            r = weighted_tree_count(X)
            if r.zero_flag:
                assert exact == 0
            else:
                positive_seen += 1
                assert log(exact) == pytest.approx(r.log_count, abs=1e-6)
        assert positive_seen >= 3

    def test_basis_order_invariance(self, gen):
        X = random_complex(5, 2, gen, min_faces=7)
        L = laplacian_matrix(X)
        perm = gen.permutation(len(L))
        e1 = eigenvalues(L)
        e2 = eigenvalues(L[np.ix_(perm, perm)])
        assert np.allclose(e1, e2, atol=1e-9)
        p1, f1 = pseudodet_from_eigenvalues(e1, trivial_zero_count(X))
        p2, f2 = pseudodet_from_eigenvalues(e2, trivial_zero_count(X))
        assert f1 == f2
        if not f1:
            assert p1 == pytest.approx(p2, abs=1e-8)


def eigenvalue_oracle(X):
    """Full spectrum, trivial-zero count and (pseudodet log, flag) by the eigenvalue route."""
    eigs = eigenvalues(laplacian_matrix(X))
    tz = trivial_zero_count(X)
    return eigs, tz, *pseudodet_from_eigenvalues(eigs, tz)


def cycle_graph(n):
    return complex_from_dfaces(n, 1, [(i, i + 1) for i in range(1, n)] + [(1, n)])


class TestMatrixTreeRoute:
    """The Cholesky / Lanczos route against the full-spectrum oracle."""

    def assert_agrees(self, X):
        eigs, tz, pseudodet, flag = eigenvalue_oracle(X)
        r = weighted_tree_count(X)
        assert r.zero_flag == flag
        assert r.trivial_zeros == tz
        assert r.zero_threshold == pytest.approx(1e-8 * max(1.0, eigs[-1]), rel=1e-10)
        assert r.floor == pytest.approx(eigs[tz], abs=1e-10 * max(1.0, eigs[-1]))
        if flag:
            assert r.count == 0.0 and r.log_count == float("-inf")
            assert tree_growth_rate(X) == 0.0
        else:
            assert r.pseudodet_log == pytest.approx(pseudodet, rel=1e-10, abs=1e-12)
            expected = growth_rate_from_eigenvalues(eigs, tz, X.n, X.d)
            assert tree_growth_rate(X) == pytest.approx(expected, rel=1e-10)
        return r

    def test_random_grid_d123(self, gen):
        flags = set()
        for d in (1, 2, 3):
            for _ in range(6):
                n = int(gen.integers(d + 2, 11 - d))
                X = random_complex(n, d, gen, min_faces=comb(n - 1, d) - 1)
                flags.add(self.assert_agrees(X).zero_flag)
        assert flags == {True, False}

    @pytest.mark.parametrize("n,d,k,seed", [(20, 1, 3, 1), (16, 1, 8, 2), (15, 2, 5, 3), (19, 2, 3, 4), (8, 3, 4, 5)])
    def test_steiner_complexes(self, n, d, k, seed):
        self.assert_agrees(steiner_complex(n, d, k, SeededRng(seed)))

    def test_hole_complex_zero_flag(self):
        r = self.assert_agrees(complex_from_dfaces(4, 2, [(1, 2, 3), (1, 2, 4)]))
        assert r.zero_flag and r.count == 0.0
        assert r.floor == 0.0  # a flagged floor is recorded as 0, not its round-off

    def test_projective_plane_torsion(self):
        r = weighted_tree_count(complex_from_dfaces(6, 2, RP2), oracle=True)
        assert r.exact_count == 4  # one tree, the whole complex, with H_1 = Z/2
        assert r.count == pytest.approx(4.0, rel=1e-10)
        self.assert_agrees(complex_from_dfaces(6, 2, RP2))

    @pytest.mark.parametrize("n,d", [(4, 1), (7, 1), (4, 2), (6, 2), (8, 2), (5, 3), (7, 3)])
    def test_kalai_complete_complexes(self, n, d):
        r = self.assert_agrees(complete_complex(n, d))
        expected = comb(n - 2, d) * log(n)
        assert r.log_count == pytest.approx(expected, rel=1e-10, abs=1e-12)
        assert r.floor == pytest.approx(n, rel=1e-10)

    @pytest.mark.parametrize(
        "X",
        [complex_from_dfaces(2, 1, [(1, 2)]), triangle(), complex_from_dfaces(3, 2, [(1, 2, 3)])],
        ids=["edge", "triangle", "single-2-face"],
    )
    def test_tiny_form_spaces(self, X):
        assert comb(X.n, X.d) <= 3
        self.assert_agrees(X)

    @pytest.mark.parametrize("n", [5, 9, 16])
    def test_d1_floor_with_ones_in_kernel(self, n):
        # ones spans ker L at d = 1; a start vector there would stall Lanczos at c n
        r = self.assert_agrees(cycle_graph(n))
        assert r.floor == pytest.approx(2 - 2 * np.cos(2 * np.pi / n), rel=1e-10)

    def test_ambiguous_floor_warns(self, monkeypatch):
        from steinerlab import spectra

        # triangle: floor = top = 3, so eps = 0.3 puts the floor inside (eps, 1e3 eps)
        monkeypatch.setattr(spectra, "ZERO_RTOL", 0.1)
        with pytest.warns(RuntimeWarning, match="ambiguous"):
            r = weighted_tree_count(triangle())
        assert not r.zero_flag and r.zero_threshold == pytest.approx(0.3)


class TestPackedFactor:
    """The reduced Laplacian is factored in rectangular full packed storage."""

    @pytest.mark.parametrize("N", range(1, 13))
    def test_rfp_offsets_match_lapack(self, N):
        from scipy.linalg.lapack import dtrttf

        A = np.tril(np.arange(1.0, N * N + 1).reshape(N, N))
        want, info = dtrttf(np.asfortranarray(A), transr="N", uplo="L")
        assert info == 0
        i, j = np.tril_indices(N)
        got = np.zeros(N * (N + 1) // 2)
        got[trees._rfp_offsets(i, j, N)] = A[i, j]
        assert np.array_equal(got, want)

    def test_factor_failure_above_threshold_raises(self, monkeypatch):
        # hole complex: edge (3, 4) lies in no 2-face, so the reduced Laplacian
        # diag(1, 1, 0) fails at its last pivot; a floor reported above the
        # threshold must not let that pass as a count
        monkeypatch.setattr(trees, "_lanczos_extreme", lambda op, which: 1.0)
        with pytest.raises(RuntimeError, match=r"floor 1\.000e\+00.*threshold 1\.000e-08.*pivot 3 of 3"):
            weighted_tree_count(complex_from_dfaces(4, 2, [(1, 2, 3), (1, 2, 4)]))

    def test_peak_memory_below_dense_matrix(self):
        X = steiner_complex(63, 2, 5, SeededRng(1))
        L = sparse_laplacian(X)
        m = L.shape[0]
        assert m == 1953
        tracemalloc.start()
        try:
            r = trees.tree_count_from_laplacian(X, L)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not r.zero_flag
        # the packed factor of the C(62, 2)-row reduced Laplacian is 0.47 of 8 m^2
        assert peak < 0.6 * 8 * m * m

    def test_packed_order_cap_refused_before_work(self, monkeypatch):
        # admit the 17 GB dense guard at n = 306 so only the dpftrf order cap can refuse;
        # nothing of that size is allocated
        monkeypatch.setattr(spectra, "usable_memory", lambda: 2**40)
        trees.require_tree_count_fits(305, 2)  # order C(304, 2) = 46056
        m = comb(306, 2)
        with pytest.raises(ValueError, match="order 46360 is above 46340"):
            trees.tree_count_from_laplacian(complex_from_dfaces(306, 2, []), sp.csr_matrix((m, m)))

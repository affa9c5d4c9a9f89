import tracemalloc
from itertools import combinations
from math import comb, exp, log, prod

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from steinerlab import (
    NumericalFailure,
    SeededRng,
    complexes,
    complex_from_dfaces,
    spectra,
    steiner_complex,
    tree_count_exact,
    trees,
    weighted_tree_count,
)
from steinerlab.spectra import laplacian_matrix, trivial_zero_count
from conftest import random_complex
from oracles import (
    complete_complex,
    exact_rank,
    exact_reduced_det,
    growth_rate_from_eigenvalues,
    max_degree,
    pseudodet_from_eigenvalues,
    smith_normal_form,
)


def growth_rate(X):
    """(weighted tree count)^(1/C(n, d)), 0 when flagged: a converge row's growth_rate."""
    return exp(weighted_tree_count(X).log_count / comb(X.n, X.d))


def triangle():
    return complex_from_dfaces(3, 1, [(1, 2), (2, 3), (1, 3)])


# minimal 6-vertex triangulation of the real projective plane
RP2 = [(1, 2, 4), (1, 2, 5), (1, 3, 4), (1, 3, 6), (1, 5, 6),
       (2, 3, 5), (2, 3, 6), (2, 4, 6), (3, 4, 5), (4, 5, 6)]


class TestPseudodet:
    def test_triangle_log_nine(self):
        r = weighted_tree_count(triangle())
        assert not r.zero_flag
        # the pseudodeterminant is the count times n^C(n-2, d-1)
        assert r.log_count + log(3) == pytest.approx(log(9), abs=1e-9)

    def test_k4_2_is_64(self):
        r = weighted_tree_count(complete_complex(4, 2))
        assert not r.zero_flag
        assert exp(r.log_count + comb(2, 1) * log(4)) == pytest.approx(64.0, rel=1e-9)

    def test_hole_sets_flag(self):
        X = complex_from_dfaces(4, 2, [(1, 2, 3), (1, 2, 4)])
        assert weighted_tree_count(X).zero_flag

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
        assert r.zero_flag and r.log_count == float("-inf")

    def test_oracle_cross_check_attached(self):
        r = weighted_tree_count(complete_complex(4, 2), oracle=True)
        assert r.exact_count == 4

    def test_oracle_disagreeing_on_zero_raises(self, monkeypatch):
        monkeypatch.setattr(trees, "tree_count_exact", lambda X: 0)
        with pytest.raises(NumericalFailure, match="zero_flag=False but exact count 0"):
            weighted_tree_count(complete_complex(4, 2), oracle=True)

    def test_oracle_disagreeing_on_the_count_raises(self, monkeypatch):
        monkeypatch.setattr(trees, "tree_count_exact", lambda X: 5)  # the count is 4
        with pytest.raises(NumericalFailure, match=r"log exact 1\.609437912434 vs spectral 1\.386294361120"):
            weighted_tree_count(complete_complex(4, 2), oracle=True)


class TestGrowthRate:
    def test_k4_graph_is_two(self):
        assert growth_rate(complete_complex(4, 1)) == pytest.approx(2.0, abs=1e-10)

    def test_triangle(self):
        assert growth_rate(triangle()) == pytest.approx(3 ** (1 / 3), abs=1e-12)

    def test_flagged_complex_returns_zero(self):
        X = complex_from_dfaces(4, 2, [(1, 2, 3), (1, 2, 4)])
        assert growth_rate(X) == 0.0


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
        snf = smith_normal_form(complex_from_dfaces(6, 2, RP2).boundary.toarray())
        assert snf.rank == 10
        assert snf.torsion() == 2

    def test_random_chain_property(self, gen):
        for _ in range(20):
            M = gen.integers(-5, 6, size=(4, 5))
            factors = smith_normal_form(M).factors
            for a, b in zip(factors, factors[1:]):
                assert b % a == 0
            assert smith_normal_form(M.T).factors == factors

    @settings(max_examples=200, deadline=None)
    @given(
        rows=st.integers(1, 5),
        cols=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
        spread=st.sampled_from([1, 2, 6]),
    )
    def test_random_factors_rank_and_det(self, rows, cols, seed, spread):
        M = np.random.default_rng(seed).integers(-spread, spread + 1, size=(rows, cols)).tolist()
        factors = smith_normal_form(M).factors
        assert all(a > 0 and b % a == 0 for a, b in zip(factors, factors[1:]))
        assert len(factors) == exact_rank(M)
        if rows == cols and len(factors) == rows:
            product = 1
            for s in factors:
                product *= s
            assert product == abs(exact_det(M))


def unimodular(size, steps, rng):
    """A product of `steps` random elementary integer matrices: row additions, swaps and negations."""
    U = np.eye(size, dtype=np.int64).astype(object)
    for _ in range(steps):
        a, b = rng.integers(size, size=2)
        kind = int(rng.integers(3)) if a != b else 2
        if kind == 0:
            U[a] += int(rng.integers(-3, 4)) * U[b]
        elif kind == 1:
            U[[a, b]] = U[[b, a]]
        else:
            U[a] *= -1
    return U


class TestTorsion:
    """The oracle's torsion at a leaf: |det T| of a triangular form U M = [T; 0]."""

    @settings(max_examples=200, deadline=None)
    @given(
        diagonal=st.lists(st.integers(1, 12), min_size=1, max_size=6),
        extra_rows=st.integers(0, 4),
        steps=st.integers(0, 12),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_unimodular_conjugate_of_a_diagonal(self, diagonal, extra_rows, steps, seed):
        rng = np.random.default_rng(seed)
        r = len(diagonal)
        D = np.zeros((r + extra_rows, r), dtype=object)
        D[range(r), range(r)] = diagonal
        M = unimodular(r + extra_rows, steps, rng) @ D @ unimodular(r, steps, rng)
        assert trees._torsion(M) == prod(diagonal) == smith_normal_form(M).torsion()

    def test_projective_plane(self):
        B = complex_from_dfaces(6, 2, RP2).boundary.toarray()
        assert trees._torsion(B) == 2


def exact_det(M):
    """Integer determinant by cofactor expansion along the first row (small matrices only)."""
    if len(M) == 1:
        return M[0][0]
    return sum(
        (-1) ** j * M[0][j] * exact_det([row[:j] + row[j + 1:] for row in M[1:]])
        for j in range(len(M)) if M[0][j]
    )


def eliminate_columns(A):
    """Walk a stack of (R, r) matrices through the oracle's pivot search and Bareiss steps.

    With no spare column every node's one child takes its next column, so
    the walk eliminates each matrix's columns in order.  Returns the
    positions of the matrices of rank r and their last pivots.
    """
    states, faces, prev = A, np.empty((len(A), 0), dtype=np.intp), np.ones(len(A), dtype=A.dtype)
    kept = np.arange(len(A))
    for j in range(A.shape[2]):
        node, col, row = trees._children(states, faces, 0)
        kept = kept[node]
        if j + 1 == A.shape[2]:
            return kept, abs(states[node, row, col])
        states, prev = trees._bareiss_step(states, prev, node, col, row)
        faces = np.column_stack([faces[node], j + col])


class TestBareiss:
    """The oracle's batched elimination, on random stacks of +-1 columns."""

    @settings(max_examples=100, deadline=None)
    @given(
        size=st.integers(1, 7),
        extra_rows=st.integers(0, 3),
        nonzeros=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
        python_ints=st.booleans(),
    )
    def test_rank_and_last_pivot(self, size, extra_rows, nonzeros, seed, python_ints):
        rng = np.random.default_rng(seed)
        rows = size + extra_rows
        A = np.zeros((40, rows, size), dtype=np.int64)
        for M in A:
            for j in range(size):
                at = rng.choice(rows, size=min(nonzeros, rows), replace=False)
                M[at, j] = rng.choice([-1, 1], size=len(at))
        mats = [M.tolist() for M in A]
        kept, last = eliminate_columns(A.astype(object) if python_ints else A)
        trees_at = set(kept.tolist())
        assert [exact_rank(M) == size for M in mats] == [i in trees_at for i in range(len(mats))]
        if not extra_rows:
            assert [abs(exact_det(mats[i])) for i in kept] == last.tolist()


def per_subset_tree_count(X):
    """The enumeration one subset at a time: exact rank, then a Smith form for every tree."""
    tree_size = comb(X.n - 1, X.d)
    full = X.boundary.toarray().astype(np.int64)
    total = 0
    for subset in combinations(range(X.num_dfaces), tree_size):
        cols = full[:, subset].tolist()
        if exact_rank(cols) != tree_size:
            continue
        torsion = smith_normal_form(cols).torsion()
        total += torsion * torsion
    return total


def object_path_only(mp):
    """Send the oracle's walk through Python-int blocks, by a width rule that admits no
    fixed width, and check that every piece is one."""
    find_pivots = trees._children

    def spy(states, faces, spare):
        assert states.dtype == object
        return find_pivots(states, faces, spare)

    mp.setattr(trees, "power_width", lambda base, exp, scale=1: np.dtype(object))
    mp.setattr(trees, "_children", spy)


def record_steps(mp, R):
    """Record (depth, dtype, children) of every Bareiss step of the oracle's walk on C(n, d) = R rows."""
    step, steps = trees._bareiss_step, []

    def spy(states, prev, node, col, row):
        steps.append((R - states.shape[1], states.dtype, len(node)))
        return step(states, prev, node, col, row)

    mp.setattr(trees, "_bareiss_step", spy)
    return steps


ORACLE_MAX_N = {1: 8, 2: 7, 3: 6}


class TestExactOracle:
    def test_triangle_three_trees(self):
        assert tree_count_exact(triangle()) == 3

    def test_cayley_k4(self):
        assert tree_count_exact(complete_complex(4, 1)) == 16

    def test_k4_2(self):
        assert tree_count_exact(complete_complex(4, 2)) == 4

    def test_k5_2(self):
        assert tree_count_exact(complete_complex(5, 2)) == 125

    def test_too_few_faces_is_zero(self, monkeypatch):
        def no_elimination(*args):
            raise AssertionError("the oracle built or eliminated a block with fewer faces than r")

        monkeypatch.setattr(complexes, "_signed_incidence", no_elimination)
        for name in ("_children", "_bareiss_step"):
            monkeypatch.setattr(trees, name, no_elimination)
        assert tree_count_exact(complex_from_dfaces(4, 2, [(1, 2, 3)])) == 0
        assert tree_count_exact(complex_from_dfaces(2, 1, [])) == 0

    @pytest.mark.parametrize("n, d", [(2, 1), (3, 2), (4, 3)])
    def test_one_face_is_one_tree(self, n, d, monkeypatch):
        # r = C(n - 1, d) = 1: the root's pivot search finds the leaf, and no step runs
        steps = record_steps(monkeypatch, comb(n, d))
        assert tree_count_exact(complete_complex(n, d)) == 1
        assert steps == []

    def test_torsion_once_per_non_unit_minor(self, monkeypatch):
        calls, torsion = [], trees._torsion
        monkeypatch.setattr(trees, "_torsion", lambda M: (calls.append(1), torsion(M))[1])
        assert tree_count_exact(complete_complex(5, 2)) == 125
        assert calls == []  # the last pivot of each of its trees is 1
        assert tree_count_exact(complex_from_dfaces(6, 2, RP2)) == 4
        assert calls == [1]  # RP^2 is its one tree, with torsion 2: every maximal minor is even

    @settings(max_examples=60, deadline=None)
    @given(
        d=st.sampled_from([1, 2, 3]),
        data=st.data(),
        extra=st.integers(0, 4),
        seed=st.integers(0, 2**32 - 1),
        chunk=st.sampled_from([1, 2**9, 2**11]),
    )
    def test_small_pieces_match_per_subset(self, d, data, extra, seed, chunk):
        # pieces of one or a few nodes split the walk at several depths
        n = data.draw(st.integers(d + 1, ORACLE_MAX_N[d]))
        r = comb(n - 1, d)
        faces = min(r + extra, comb(n, d + 1))
        assume(comb(faces, r) <= 1000)
        X = random_complex(n, d, np.random.default_rng(seed), min_faces=faces, max_faces=faces)
        expected = per_subset_tree_count(X)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(trees, "ORACLE_CHUNK_BYTES", chunk)
            assert tree_count_exact(X) == expected
            object_path_only(mp)
            assert tree_count_exact(X) == expected

    def test_guard(self):
        with pytest.raises(ValueError, match="guard"):
            tree_count_exact(complete_complex(9, 1))

    def test_guard_before_spectral_count(self, monkeypatch):
        def no_spectral_count(*args):
            raise AssertionError("the spectral count ran before the oracle guard")

        monkeypatch.setattr(complexes, "_signed_incidence", no_spectral_count)
        with pytest.raises(ValueError, match="guard"):
            weighted_tree_count(complete_complex(9, 1), oracle=True)

    def test_one_oracle_guard_per_oracle_count(self, monkeypatch):
        # the count's guard runs first; then tree_count_exact guards itself, once
        calls = []
        guard = trees.require_oracle_fits
        monkeypatch.setattr(trees, "require_oracle_fits", lambda X: calls.append(X) or guard(X))
        X = complete_complex(5, 2)
        assert weighted_tree_count(X, oracle=True).exact_count == 5**3
        assert calls == [X]

    @settings(max_examples=80, deadline=None)
    @given(
        d=st.sampled_from([1, 2, 3]),
        data=st.data(),
        extra=st.integers(-1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_batched_matches_per_subset(self, d, data, extra, seed):
        n = data.draw(st.integers(d + 1, ORACLE_MAX_N[d]))
        r = comb(n - 1, d)
        faces = max(1, min(r + extra, comb(n, d + 1)))
        assume(comb(faces, r) <= 1000)
        X = random_complex(n, d, np.random.default_rng(seed), min_faces=faces, max_faces=faces)
        expected = per_subset_tree_count(X)
        assert tree_count_exact(X) == expected
        with pytest.MonkeyPatch.context() as mp:
            object_path_only(mp)
            assert tree_count_exact(X) == expected

    @pytest.mark.parametrize("python_ints", [False, True], ids=["int64", "object"])
    def test_projective_plane_weight_four(self, python_ints, monkeypatch):
        X = complex_from_dfaces(6, 2, RP2)
        if python_ints:
            object_path_only(monkeypatch)
        assert tree_count_exact(X) == per_subset_tree_count(X) == 4

    def test_zero_counts_match_per_subset(self, gen):
        zeros = 0
        for _ in range(10):
            X = random_complex(6, 2, gen, min_faces=10, max_faces=11)
            exact = tree_count_exact(X)
            assert exact == per_subset_tree_count(X)
            zeros += exact == 0
        assert 0 < zeros < 10

    def test_several_chunks_with_a_partial_last(self, monkeypatch):
        X = complete_complex(5, 2)  # C(10, 6) = 210 candidate subsets of 10 x 6 columns
        monkeypatch.setattr(trees, "ORACLE_CHUNK_BYTES", 16 * 2 * 10 * 6)
        steps = record_steps(monkeypatch, 10)
        assert tree_count_exact(X) == per_subset_tree_count(X) == 125
        # 2 (d + 1)^r = 1458: the walk runs in int16, and a piece holds about as many bytes of it
        assert {dtype for _, dtype, _ in steps} == {np.dtype(np.int16)}
        caps = [trees._piece_nodes(10, 10, 6, j, 2) for j in range(6)]
        assert caps == [5, 6, 7, 7, 8, 9]
        for depth in range(1, 5):
            sizes = [children for j, _, children in steps if j == depth]
            # a piece's children fill several pieces here: full ones, then a partial last
            assert max(sizes) == caps[depth + 1] and min(sizes) < caps[depth + 1]

    def test_chunked_peak_memory(self, gen):
        # the verify-exact workload's d = 1 complex: 16 edges on 10 vertices, C(16, 9) = 11440
        # subsets; in int8 each depth of its walk fits one 1 MiB piece, and the count peaks near 0.6 MiB
        X = random_complex(10, 1, gen, min_faces=16, max_faces=16)
        tracemalloc.start()
        try:
            exact = tree_count_exact(X)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert exact == round(exp(weighted_tree_count(X).log_count))
        assert peak < 6 * 2**20

    @pytest.mark.parametrize("chunk", [2**16, 2**18])
    def test_held_pieces_peak_within_guard(self, chunk, gen, monkeypatch):
        # small pieces make pieces wait on the stack while their first children are
        # walked; the guard counts them, and the traced peak stays below its count
        X = random_complex(10, 1, gen, min_faces=16, max_faces=16)
        monkeypatch.setattr(trees, "ORACLE_CHUNK_BYTES", chunk)
        needs, require = [], trees.require_memory
        monkeypatch.setattr(trees, "require_memory", lambda need, what: (needs.append(need), require(need, what)))
        tracemalloc.start()
        try:
            exact = tree_count_exact(X)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert exact == round(exp(weighted_tree_count(X).log_count))
        assert peak < needs[0]

    def test_d1_path_runs_in_int64_past_r_62(self, monkeypatch):
        # r = 399: the Hadamard bound 2^399 would send it to Python ints, but a graph's
        # incidence matrix is totally unimodular, so every value stays within 2: the
        # fixed-width path, at its narrowest width, int8
        steps = record_steps(monkeypatch, 400)
        assert tree_count_exact(path_graph(400)) == 1
        # one child per node: a step at every depth but the last, all in int8
        assert steps == [(j, np.dtype(np.int8), 1) for j in range(398)]

    def test_d2_runs_in_int32(self, gen, monkeypatch):
        # n = 7, as the verify-exact d = 2 complexes: r = C(6, 2) = 15 and 2 * 3^15 < 2^31
        steps = record_steps(monkeypatch, 21)
        counts = []
        for _ in range(5):
            X = random_complex(7, 2, gen, min_faces=17, max_faces=17)  # C(17, 15) = 136 subsets
            counts.append(tree_count_exact(X))
            assert counts[-1] == per_subset_tree_count(X)
        assert any(counts) and not all(counts)
        assert {dtype for _, dtype, _ in steps} == {np.dtype(np.int32)}

    def test_d1_path_peak_memory_within_guard(self, monkeypatch):
        X = path_graph(400)
        needs, require = [], trees.require_memory
        monkeypatch.setattr(trees, "require_memory", lambda need, what: (needs.append(need), require(need, what)))
        tracemalloc.start()
        try:
            assert tree_count_exact(X) == 1
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one node a depth, none held: the boundary block, the depth-1 node, and three times
        # its child (the child, the step's product temporary), one byte an entry in int8;
        # a node also keeps a pivot, and j faces and three indices for its one child at 8 bytes
        block, node1, node2 = 400 * 399, 399 * 398 + 1 + 8 * (1 + 3), 398 * 397 + 1 + 8 * (2 + 3)
        assert needs == [block + node1 + 3 * node2]
        assert block + node1 + 2 * node2 < peak < needs[0]

    @settings(max_examples=6, deadline=None)
    @given(n=st.integers(64, 70), seed=st.integers(0, 2**32 - 1))
    def test_d1_unicyclic_int64_matches_object_path(self, n, seed):
        # a random spanning tree plus one edge: its spanning trees are the cycle's length
        rng = np.random.default_rng(seed)
        order = rng.permutation(n) + 1
        edges = {tuple(sorted((int(order[i]), int(order[rng.integers(0, i)])))) for i in range(1, n)}
        extra = tuple(sorted(int(v) for v in rng.choice(n, size=2, replace=False) + 1))
        assume(extra not in edges)
        X = complex_from_dfaces(n, 1, edges | {extra})
        cycle = round(exp(weighted_tree_count(X).log_count))
        assert 3 <= cycle <= n
        assert tree_count_exact(X) == cycle
        with pytest.MonkeyPatch.context() as mp:
            object_path_only(mp)
            assert tree_count_exact(X) == cycle

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
        e1 = np.linalg.eigvalsh(L)
        e2 = np.linalg.eigvalsh(L[np.ix_(perm, perm)])
        assert np.allclose(e1, e2, atol=1e-9)
        p1, f1 = pseudodet_from_eigenvalues(e1, trivial_zero_count(X))
        p2, f2 = pseudodet_from_eigenvalues(e2, trivial_zero_count(X))
        assert f1 == f2
        if not f1:
            assert p1 == pytest.approx(p2, abs=1e-8)


def eigenvalue_oracle(X):
    """Full spectrum, trivial-zero count and (pseudodet log, flag) by the eigenvalue route."""
    eigs = np.linalg.eigvalsh(laplacian_matrix(X))
    tz = trivial_zero_count(X)
    return eigs, tz, *pseudodet_from_eigenvalues(eigs, tz)


def cycle_graph(n):
    return complex_from_dfaces(n, 1, [(i, i + 1) for i in range(1, n)] + [(1, n)])


def path_graph(n):
    return complex_from_dfaces(n, 1, [(i, i + 1) for i in range(1, n)])


class TestMatrixTreeRoute:
    """The Cholesky / Lanczos route against the full-spectrum oracle."""

    def assert_agrees(self, X):
        eigs, tz, pseudodet, flag = eigenvalue_oracle(X)
        r = weighted_tree_count(X)
        assert r.zero_flag == flag
        assert r.trivial_zeros == tz
        # scaled to ||L||_inf = (d + 1) max degree >= the top eigenvalue, from the tuple index
        assert r.zero_threshold == pytest.approx(1e-8 * max(1, (X.d + 1) * max_degree(X)), rel=1e-10)
        assert r.floor == pytest.approx(eigs[tz], abs=1e-10 * max(1.0, eigs[-1]))
        if flag:
            assert r.log_count == float("-inf")
            assert growth_rate(X) == 0.0
        else:
            # the pseudodeterminant is the count times n^C(n-2, d-1)
            closed = comb(X.n - 2, X.d - 1) * log(X.n)
            assert r.log_count + closed == pytest.approx(pseudodet, rel=1e-10, abs=1e-12)
            expected = growth_rate_from_eigenvalues(eigs, tz, X.n, X.d)
            assert growth_rate(X) == pytest.approx(expected, rel=1e-10)
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
        assert r.zero_flag and r.log_count == float("-inf")
        assert r.floor == 0.0  # a flagged floor is recorded as 0, not its round-off

    def test_projective_plane_torsion(self):
        r = weighted_tree_count(complex_from_dfaces(6, 2, RP2), oracle=True)
        assert r.exact_count == 4  # one tree, the whole complex, with H_1 = Z/2
        assert exp(r.log_count) == pytest.approx(4.0, rel=1e-10)
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
        # triangle: floor 3, max degree 2, so eps = 0.1 * 2 * 2 = 0.4 puts the floor inside (eps, 1e3 eps)
        monkeypatch.setattr(trees, "ZERO_RTOL", 0.1)
        with pytest.warns(RuntimeWarning, match="ambiguous"):
            r = weighted_tree_count(triangle())
        assert not r.zero_flag and r.zero_threshold == pytest.approx(0.4)


class TestThresholdScale:
    """The zero threshold's scale (d + 1) max degree is ||L||_inf, and bounds the top eigenvalue."""

    @staticmethod
    def scale(X):
        # max degree from the tuple index, independent of L; every row of L holds
        # deg on the diagonal and d deg off-diagonal entries of +-1
        bound = (X.d + 1) * max_degree(X)
        assert abs(X.laplacian).sum(axis=1).max() == bound
        return bound

    def test_random_complexes_d123(self, gen):
        for d in (1, 2, 3):
            for _ in range(8):
                n = int(gen.integers(d + 2, 11 - d))
                X = random_complex(n, d, gen)
                assert np.linalg.eigvalsh(laplacian_matrix(X))[-1] <= self.scale(X) + 1e-9

    @pytest.mark.parametrize("n,d", [(4, 1), (7, 1), (4, 2), (6, 2), (8, 2), (5, 3), (7, 3)])
    def test_complete_complexes(self, n, d):
        X = complete_complex(n, d)
        top = np.linalg.eigvalsh(laplacian_matrix(X))[-1]
        assert top == pytest.approx(n) and self.scale(X) == (d + 1) * (n - d) >= n

    def test_converge_d2_sample(self):
        # the seed-1 d = 2, k = 5, n = 111 sample: bound I - L is positive definite exactly
        # when the bound is above the top eigenvalue, and a dense Cholesky decides that
        # at about a fifth of the cost of a dense eigensolve
        X = steiner_complex(111, 2, 5, SeededRng(1))
        bound = self.scale(X)
        assert bound == 15
        M = laplacian_matrix(X)
        M *= -1
        M.flat[:: M.shape[0] + 1] += bound  # in place: one 298 MB array
        scipy.linalg.cholesky(M, lower=True, overwrite_a=True, check_finite=False)


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
        # threshold must not let that pass as a count; edge (1, 2) has degree 2, so eps = 1e-8 * 3 * 2
        monkeypatch.setattr(trees, "restricted_extreme", lambda M, n, d: 1.0)
        with pytest.raises(RuntimeError, match=r"floor 1\.000e\+00.*threshold 6\.000e-08.*pivot 3 of 3"):
            weighted_tree_count(complex_from_dfaces(4, 2, [(1, 2, 3), (1, 2, 4)]))

    def test_peak_memory_below_dense_matrix(self):
        X = steiner_complex(63, 2, 5, SeededRng(1))
        m = comb(63, 2)
        tracemalloc.start()
        try:
            r = weighted_tree_count(X)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not r.zero_flag
        # phase 1 leaves an order-1401 remainder of the C(62, 2)-row reduced Laplacian;
        # its packed factor is 0.26 of 8 m^2 and the whole count peaks near 0.36
        assert peak < 0.4 * 8 * m * m

    @pytest.mark.parametrize("k,n", [(3, 1000), (8, 2000)])
    def test_count_stays_under_its_degree_guard(self, k, n, monkeypatch):
        # d = 1: the guard counts the floor's solve at 1 + k entries a row, so the packed factor
        # of the order-(n - 1) reduced Laplacian, not the floor, sets it; L is built in the span
        X = steiner_complex(n, 1, k, SeededRng(1))
        needs, require = [], trees.require_memory
        monkeypatch.setattr(trees, "require_memory", lambda need, what: (needs.append(need), require(need, what)))
        tracemalloc.start()
        try:
            weighted_tree_count(X)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert needs == [8 * (n - 1) * n // 2]
        assert peak <= needs[0]

    def test_packed_order_cap_refused_before_work(self, monkeypatch):
        # admit the 17 GB dense guard at n = 306 so only the dpftrf order cap can refuse;
        # nothing of that size is allocated
        monkeypatch.setattr(spectra, "usable_memory", lambda: 2**40)
        trees.require_tree_count_fits(305, 2, 0)  # order C(304, 2) = 46056, no d-face
        with pytest.raises(ValueError, match="order 46360 is above 46340"):
            weighted_tree_count(complex_from_dfaces(306, 2, []))


def dense_reduced_log_det(X):
    """log det of the reduced Laplacian by a dense LU (numpy slogdet)."""
    t = trivial_zero_count(X)
    sign, value = np.linalg.slogdet(laplacian_matrix(X)[t:, t:])
    assert sign == 1
    return value


class TestTwoPhaseCount:
    """Sparse elimination of low-degree rows, then the packed factor of the rest."""

    def test_random_grid_d123_matches_slogdet(self, gen):
        counted = 0
        for d in (1, 2, 3):
            for _ in range(6):
                n = int(gen.integers(d + 2, 11 - d))
                X = random_complex(n, d, gen, min_faces=comb(n - 1, d) - 1)
                r = weighted_tree_count(X)
                if not r.zero_flag:
                    counted += 1
                    assert r.log_count == pytest.approx(dense_reduced_log_det(X), rel=1e-12, abs=1e-12)
        assert counted >= 6

    # phase 1 starts only below 2% density: at d = 1, k = 8 that needs order above ~450
    @pytest.mark.parametrize("n,d,k,order", [(1000, 1, 8, 999), (63, 2, 5, 1891)])
    def test_steiner_complexes_shrink_and_match_slogdet(self, n, d, k, order):
        X = steiner_complex(n, d, k, SeededRng(1))
        L = X.laplacian
        t = trivial_zero_count(X)
        R = L[t:, t:]
        assert R.shape[0] == order
        log_det, dense_order = trees._reduced_log_det(R)
        assert dense_order < 0.9 * order
        assert trees._reduced_log_det(R) == (log_det, dense_order)  # bit-equal on a second call
        r = weighted_tree_count(X)
        assert r.log_count == log_det
        assert log_det == pytest.approx(dense_reduced_log_det(X), rel=1e-12)

    def test_path_stops_phase_one_at_round_zero(self):
        # a path's only rows below every neighbour are its two ends: 2 of 999 rows is under SPARSE_ROUND_MIN
        R = path_graph(1000).laplacian[1:, 1:]
        log_det, dense_order = trees._reduced_log_det(R)
        assert dense_order == 999
        assert log_det == pytest.approx(0.0, abs=1e-9)  # one spanning tree

    def test_near_regular_rows_do_not_stall_phase_one(self):
        # trial 0 of `converge --d 1 --k 3 --n 1000 --seed 1`: 996 of its 999 rows hold 4
        # entries, just above the mean row nnz, so only a pivot rule by rank alone finds them
        X = steiner_complex(1000, 1, 3, SeededRng(1).substream(1000, 0))
        R = X.laplacian[1:, 1:]
        log_det, dense_order = trees._reduced_log_det(R)
        assert dense_order < 999
        assert log_det == pytest.approx(dense_reduced_log_det(X), rel=1e-12)

    def test_small_and_dense_orders_skip_phase_one(self):
        # densities above SPARSE_FILL_LIMIT go straight to the packed factor
        for X in (complete_complex(7, 2), steiner_complex(31, 2, 5, SeededRng(1))):
            t = trivial_zero_count(X)
            R = X.laplacian[t:, t:]
            assert trees._reduced_log_det(R)[1] == R.shape[0]

    def test_bad_sparse_pivot_raises(self, monkeypatch):
        # vertex 1000 lies in no edge, so its row of the order-999 reduced Laplacian has
        # no stored entry; phase 1 ranks it first and must refuse its zero pivot.  Its max
        # degree is 8, so eps = 1e-8 * 2 * 8
        X = steiner_complex(1000, 1, 8, SeededRng(1))
        X = complex_from_dfaces(1000, 1, [e for e in X.d_faces if 1000 not in e])
        assert max_degree(X) == 8
        monkeypatch.setattr(trees, "restricted_extreme", lambda M, n, d: 1.0)
        with pytest.raises(RuntimeError, match=r"floor 1\.000e\+00.*threshold 1\.600e-07.*pivot 999 of 999"):
            weighted_tree_count(X)


class TestExactReducedDet:
    """The multi-modular det of the integer reduced Laplacian against the enumeration and the count."""

    def test_matches_enumeration(self, gen):
        zeros = positive = 0
        for d in (1, 2, 3):
            for _ in range(12):
                n = int(gen.integers(d + 1, ORACLE_MAX_N[d] + 1))
                r = comb(n - 1, d)
                faces = min(r + int(gen.integers(-1, 4)), comb(n, d + 1))
                if faces < 1 or comb(faces, r) > 2000:
                    continue
                X = random_complex(n, d, gen, min_faces=faces, max_faces=faces)
                det = exact_reduced_det(X)
                assert det == tree_count_exact(X)
                zeros += det == 0
                positive += det > 0
        assert zeros >= 3 and positive >= 10

    @staticmethod
    def check_count(X):
        det = exact_reduced_det(X)
        r = weighted_tree_count(X)
        assert r.zero_flag == (det == 0)
        if det:
            assert log(det) == pytest.approx(r.log_count, rel=1e-12)
        return det

    def test_count_on_criterion_3_complexes(self):
        gen = np.random.default_rng(123)  # the 25 random complexes of acceptance criterion 3
        dets = []
        for i in range(25):
            d = 1 if i % 2 == 0 else 2
            n = int(gen.integers(d + 2, 7))
            dets.append(self.check_count(random_complex(n, d, gen, max_faces=12 if d == 2 else None)))
        assert 0 < sum(det > 0 for det in dets) < 25

    @pytest.mark.parametrize("trial", [0, 1])
    def test_count_on_golden_input(self, trial):
        # the d = 1, k = 3, n = 100, seed 7 golden converge rows: order 99
        X = steiner_complex(100, 1, 3, SeededRng(7).substream(100, trial))
        assert self.check_count(X) > 0

    def test_count_on_d2_golden_input(self):
        # trial 0 of the d = 2, k = 5, n = 31, seed 7 golden converge rows: order 435
        X = steiner_complex(31, 2, 5, SeededRng(7).substream(31, 0))
        assert self.check_count(X) > 0

    def test_flagged_d3_rows_have_det_zero(self):
        # converge --d 3 --k 2 --n 8 --seed 3: every row is flagged, with floors
        # that were round-off of a true zero
        for trial in range(4):
            assert self.check_count(steiner_complex(8, 3, 2, SeededRng(3).substream(8, trial))) == 0

from itertools import permutations
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import random_complex
from oracles import arboreal_ball, complete_complex, laplacian_moment, walk_count_oracle

from steinerlab import (
    LimitLaw,
    SeededRng,
    arboreal_fractions,
    ball,
    complex_from_dfaces,
    is_arboreal_ball,
    layer_sizes,
    signed_walk_count,
    steiner_complex,
)


def cycle_graph(n):
    edges = [(i, i + 1) for i in range(1, n)] + [(1, n)]
    return complex_from_dfaces(n, 1, edges)


def simplicially_isomorphic(dfaces_a, dfaces_b):
    """Brute-force search for a vertex bijection carrying one d-face set onto the other."""
    verts_a = sorted({v for f in dfaces_a for v in f})
    verts_b = sorted({v for f in dfaces_b for v in f})
    if len(verts_a) != len(verts_b) or len(dfaces_a) != len(dfaces_b):
        return False
    target = {frozenset(f) for f in dfaces_b}
    for image in permutations(verts_b):
        lookup = dict(zip(verts_a, image))
        if {frozenset(lookup[v] for v in f) for f in dfaces_a} == target:
            return True
    return False


class TestLayerSizes:
    def test_2_3_profile(self):
        p = layer_sizes(2, 3, 2)
        assert p.new_dfaces == (0, 3, 12)
        assert p.total_vertices == (2, 5, 17)

    def test_first_layer_is_k(self):
        for d, k in [(1, 3), (2, 4), (3, 2)]:
            p = layer_sizes(d, k, 1)
            assert p.new_vertices[1] == k
            assert p.new_dfaces[1] == k

    def test_regular_tree_layers(self):
        p = layer_sizes(1, 3, 4)
        assert p.new_vertices[1:] == (3, 6, 12, 24)

    def test_matches_explicit_construction(self):
        for d, k, r in [(1, 2, 4), (1, 4, 3), (2, 2, 3), (2, 3, 2), (3, 2, 2), (3, 3, 2)]:
            p = layer_sizes(d, k, r)
            b = arboreal_ball(d, k, r)
            for rho in range(r + 1):
                assert len(b.vertex_layers[rho]) == p.new_vertices[rho]
                assert len(b.facet_layers[rho]) == (d * p.new_dfaces[rho] if rho else 1)
                assert len(b.dface_layers[rho]) == p.new_dfaces[rho]

    def test_k1_rejected(self):
        with pytest.raises(ValueError):
            layer_sizes(2, 1, 3)


class TestArborealBall:
    def test_2_2_1_census(self):
        b = arboreal_ball(2, 2, 1)
        assert b.complex.num_dfaces == 2
        assert len(b.vertex_layers[0]) == 2 and len(b.vertex_layers[1]) == 2
        assert len(b.facet_layers[1]) == 4

    def test_radius_zero(self):
        b = arboreal_ball(3, 5, 0)
        assert b.complex.num_dfaces == 0
        assert b.vertex_layers == ((1, 2, 3),)
        assert b.facet_layers == (((1, 2, 3),),)

    def test_1_3_2_is_three_regular_tree_ball(self):
        b = arboreal_ball(1, 3, 2)
        assert b.complex.n == 10
        assert b.complex.degree(b.root) == 3

    def test_radius_guard(self, monkeypatch):
        with pytest.raises(ValueError, match="guard"):
            arboreal_ball(2, 3, 13)
        monkeypatch.setattr(oracles, "MAX_RADIUS", 13)
        arboreal_ball(1, 2, 13)

    def test_interior_degrees_are_k(self):
        b = arboreal_ball(2, 3, 3)
        for layer in b.facet_layers[:3]:
            for face in layer:
                assert b.complex.degree(face) == 3


class TestIsArborealBall:
    def test_self_test(self):
        for d, k, r in [(1, 3, 2), (2, 2, 2), (2, 3, 2)]:
            b = arboreal_ball(d, k, r)
            assert is_arboreal_ball(b.complex, b.root, k, r)

    def test_k4_complete(self):
        X = complete_complex(4, 2)
        assert is_arboreal_ball(X, (1, 2), 2, 1)
        assert not is_arboreal_ball(X, (1, 2), 2, 2)

    def test_cycle_locally_a_line(self):
        X = cycle_graph(12)
        assert is_arboreal_ball(X, (3,), 2, 5)
        assert not is_arboreal_ball(X, (3,), 2, 6)

    def test_refuses_a_centre_of_the_wrong_dimension(self):
        with pytest.raises(ValueError, match=r"\(1, 2, 3\) is not a \(d-1\)-face"):
            is_arboreal_ball(complete_complex(4, 2), (1, 2, 3), 2, 1)

    def test_radius_zero_always_true(self):
        X = complex_from_dfaces(5, 2, [(1, 2, 3)])
        assert is_arboreal_ball(X, (4, 5), 2, 0)

    def test_isolated_face_fails_positive_radius(self):
        X = complex_from_dfaces(5, 2, [(1, 2, 3)])
        assert not is_arboreal_ball(X, (4, 5), 2, 1)

    def test_true_verdict_means_actual_isomorphism(self):
        # cross-check the census criterion against an explicit bijection search
        cases = [
            (complete_complex(4, 2), (1, 2), 2, 1),
            (cycle_graph(8), (3,), 2, 3),
            (steiner_complex(9, 2, 2, SeededRng(21)), (1, 2), 2, 1),
        ]
        for X, sigma0, k, r in cases:
            nbhd = ball(X, sigma0, r)
            ball_dfaces = set()
            for layer in nbhd.dface_layers:
                ball_dfaces |= layer
            tree = arboreal_ball(X.d, k, r)
            claimed = is_arboreal_ball(X, sigma0, k, r)
            found = simplicially_isomorphic(ball_dfaces, tree.complex.d_faces)
            assert claimed == found, (sigma0, k, r, claimed, found)
            if claimed:
                assert found


class TestArborealFraction:
    def test_tree_interior_is_one(self):
        b = arboreal_ball(1, 3, 3)
        # root sees a perfect tree out to radius 2
        assert is_arboreal_ball(b.complex, b.root, 3, 2)

    def test_cycle_fraction_one(self):
        X = cycle_graph(10)
        assert arboreal_fractions(X, 2, (2,))[0] == 1.0

    def test_radius_zero_fraction_one(self, gen):
        X = steiner_complex(9, 2, 2, SeededRng(3))
        assert arboreal_fractions(X, 2, (0,))[0] == 1.0

    def test_matching_ensemble_mean(self):
        # d=1, k=3, r=2: local convergence at rate 1 - C/n with C ~ 30
        # (measured 0.72 at n=100, 0.93 at n=500 over 20 seeds)
        def mean_fraction(n, trials):
            total = 0.0
            for t in range(trials):
                X = steiner_complex(n, 1, 3, SeededRng(55, t))
                total += arboreal_fractions(X, 3, (2,))[0]
            return total / trials

        at_100 = mean_fraction(100, 20)
        assert at_100 >= 0.65
        at_500 = mean_fraction(500, 10)
        assert at_500 >= 0.9
        assert at_500 > at_100

    def test_local_convergence_rises_with_n(self):
        # the converge streams of seed 4 at d = 1, k = 3, five trials per n; the means
        # are 0.734, 0.915, 0.971 at r = 2 and 0.116, 0.637, 0.893 at r = 3
        radii = (2, 3)
        means = []
        for n in (100, 400, 1600):
            rows = [arboreal_fractions(steiner_complex(n, 1, 3, SeededRng(4).substream(n, t)), 3, radii)
                    for t in range(5)]
            means.append(np.mean(rows, axis=0))
        for series in zip(*means):
            assert series[0] < series[1] < series[2]
        assert means[-1][0] >= 0.95 and means[-1][1] >= 0.85


def census_oracle(X, k, r):
    """Per-face census: the share of centres whose ball passes is_arboreal_ball."""
    return sum(is_arboreal_ball(X, face, k, r) for face in X.facet_iter()) / comb(X.n, X.d)


MAX_N = {1: 10, 2: 8, 3: 7}


class TestBatchedCensus:
    """arboreal_fractions (one sparse expansion over all centres) against the per-face oracle."""

    @settings(max_examples=150, deadline=None)
    @given(
        d=st.sampled_from([1, 2, 3]),
        extra=st.integers(0, 8),
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(2, 6),
        radii=st.lists(st.integers(0, 3), min_size=1, max_size=4),
    )
    def test_random_subcomplexes(self, d, extra, seed, k, radii):
        n = min(d + 1 + extra, MAX_N[d])
        X = random_complex(n, d, np.random.default_rng(seed))
        expected = tuple(census_oracle(X, k, r) for r in radii)
        assert arboreal_fractions(X, k, radii) == expected
        assert arboreal_fractions(X, k, (radii[0],))[0] == expected[0]

    @pytest.mark.parametrize("n", [3, 5, 8, 12])
    def test_cycles(self, n):
        X = cycle_graph(n)
        for k in (2, 3):
            for r in range(7):
                assert arboreal_fractions(X, k, (r,))[0] == census_oracle(X, k, r)

    @pytest.mark.parametrize("n,d", [(3, 1), (6, 1), (4, 2), (6, 2), (5, 3), (6, 3)])
    def test_complete_complexes(self, n, d):
        X = complete_complex(n, d)
        for k in (2, n - d, n - d + 1):
            for r in range(4):
                assert arboreal_fractions(X, k, (r,))[0] == census_oracle(X, k, r)

    def test_triangle(self):
        X = complete_complex(3, 1)
        assert arboreal_fractions(X, 2, (1,))[0] == 0.0
        assert arboreal_fractions(X, 2, (1,))[0] == census_oracle(X, 2, 1)

    @pytest.mark.parametrize("d,k,r", [(1, 2, 3), (1, 3, 2), (2, 2, 2), (2, 3, 2), (3, 2, 2)])
    def test_arboreal_truncations(self, d, k, r):
        X = arboreal_ball(d, k, r).complex
        for kk in (k, k + 1):
            for rr in range(r + 2):
                assert arboreal_fractions(X, kk, (rr,))[0] == census_oracle(X, kk, rr)

    @pytest.mark.parametrize("n,d,k", [(40, 1, 3), (60, 1, 4), (15, 2, 3), (19, 2, 5), (8, 3, 2)])
    def test_steiner_complexes(self, n, d, k):
        X = steiner_complex(n, d, k, SeededRng(11))
        for r in range(4):
            assert arboreal_fractions(X, k, (r,))[0] == census_oracle(X, k, r)

    def test_one_expansion_for_all_radii(self):
        X = steiner_complex(40, 1, 3, SeededRng(11))
        radii = (3, 1, 1, 0, 2, 5)
        assert arboreal_fractions(X, 3, radii) == tuple(arboreal_fractions(X, 3, (r,))[0] for r in radii)
        assert arboreal_fractions(X, 3, ()) == ()

    def test_radius_zero_is_one_for_any_k(self):
        X = cycle_graph(6)
        assert arboreal_fractions(X, 1, (0,))[0] == 1.0
        assert arboreal_fractions(X, 0, (0,))[0] == 1.0
        assert arboreal_fractions(X, 1, (0, 0)) == (1.0, 1.0)

    @pytest.mark.parametrize("k,r", [(3, -1), (1, -1), (1, 1), (0, 2)])
    def test_same_errors_as_oracle(self, k, r):
        X = cycle_graph(6)
        with pytest.raises(ValueError) as batched:
            arboreal_fractions(X, k, (r,))[0]
        with pytest.raises(ValueError) as oracle:
            census_oracle(X, k, r)
        with pytest.raises(ValueError) as several:
            arboreal_fractions(X, k, (0, r, 0))
        assert str(batched.value) == str(oracle.value) == str(several.value)


# the oracle's outer layer has about (d(k-1))^(l/2) d-faces; the full grid
# (l <= 10 for every d <= 4, k <= 7) agrees too, but its largest truncations
# take about 90 s and 4 GB on a 2-vCPU host
ORACLE_LAYER_BUDGET = 50_000


class TestSignedWalkCount:
    def test_length_zero_and_one(self):
        for d, k in [(1, 3), (2, 3), (3, 4)]:
            assert signed_walk_count(d, k, 0) == 1
            assert signed_walk_count(d, k, 1) == 0

    def test_length_two_is_dk(self):
        for d, k in [(1, 3), (1, 5), (2, 3), (2, 5), (3, 5)]:
            value = signed_walk_count(d, k, 2)
            assert type(value) is int and value == d * k

    def test_length_three_single_cell_cycles(self):
        # closed 3-walks live inside one d-face and return orientation-flipped
        for d, k in [(1, 3), (2, 3), (2, 5), (3, 5)]:
            assert signed_walk_count(d, k, 3) == -k * d * (d - 1)

    def test_moment_identity_vs_quadrature(self):
        for d, k in [(1, 3), (2, 3)]:
            law = LimitLaw(d, k)
            for ell in range(9):
                assert signed_walk_count(d, k, ell) == pytest.approx(
                    law.adjacency_moment(ell), abs=1e-6
                )

    def test_laplacian_moment_transform(self):
        # Laplacian = k*Id - adjacency on the k-regular complex
        from math import comb

        for d, k in [(1, 3), (2, 3)]:
            law = LimitLaw(d, k)
            for ell in range(5):
                transformed = sum(
                    comb(ell, j) * k ** (ell - j) * (-1) ** j * signed_walk_count(d, k, j)
                    for j in range(ell + 1)
                )
                assert transformed == pytest.approx(laplacian_moment(law, ell), abs=1e-6)

    def test_matches_truncation_oracle(self):
        for d in range(1, 5):
            for k in range(2, 8):
                for ell in range(11):
                    if (d * (k - 1)) ** (ell // 2) <= ORACLE_LAYER_BUDGET:
                        assert signed_walk_count(d, k, ell) == walk_count_oracle(d, k, ell), (d, k, ell)

    @pytest.mark.parametrize("d,k,ell", [(2, 5, 30), (1, 8, 30), (3, 4, 26)])
    def test_long_walks_match_law_moment(self, d, k, ell):
        # beyond the truncation's radius guard and int64
        value = signed_walk_count(d, k, ell)
        assert value > 2**63
        moment = LimitLaw(d, k).expectation(lambda x: (k - x) ** ell)
        assert abs(value - moment) <= 1e-12 * abs(moment)

    def test_odd_lengths_vanish_on_trees(self):
        for k in (2, 3, 8):
            for ell in range(1, 42, 2):
                assert signed_walk_count(1, k, ell) == 0

    def test_same_errors(self):
        for d, k, ell in [(2, 3, -1), (2, 1, 4), (0, 3, 4), (2, 1, 0)]:
            with pytest.raises(ValueError) as new:
                signed_walk_count(d, k, ell)
            with pytest.raises(ValueError) as old:
                walk_count_oracle(d, k, ell)
            assert str(new.value) == str(old.value)

from math import comb, cos, isclose, log, pi, sqrt

import numpy as np
import pytest
from scipy.integrate import quad

from steinerlab import (
    LimitLaw,
    growth_constant_chebyshev,
    growth_constant_closed,
    growth_constant_quadrature,
    limitlaw,
)
from oracles import (
    adjacency_support,
    chebyshev_t,
    chebyshev_truncation,
    expectation_by_quad,
    laplacian_moment,
    normalization,
    series_coefficient,
    series_coefficient_projection,
    series_log_moment,
)


class TestLimitLawParams:
    def test_derived_identities(self):
        for d, k in [(1, 3), (2, 5), (3, 7), (2, 21)]:
            law = LimitLaw(d, k)
            assert law.weight_zero == k - 1 - d
            assert law.weight_upper == d * (k - 1) - 1
            assert isclose(sqrt(law.center**2 - law.half_width**2), law.weight_zero)
            assert isclose(sqrt(law.upper_gap**2 - law.half_width**2), law.weight_upper)
            assert 0 < law.ratio_zero < 1
            assert 0 < law.ratio_upper < 1

    def test_supports_reflect_through_k(self):
        law = LimitLaw(2, 5)
        lo, hi = law.laplacian_support
        alo, ahi = adjacency_support(law)
        assert alo == pytest.approx(law.k - hi)
        assert ahi == pytest.approx(law.k - lo)

    def test_1_3_support_endpoints(self):
        lo, hi = LimitLaw(1, 3).laplacian_support
        assert lo == pytest.approx(0.17157287525381, abs=1e-10)
        assert hi == pytest.approx(5.82842712474619, abs=1e-10)

    def test_k_below_d_plus_one_rejected(self):
        with pytest.raises(ValueError):
            LimitLaw(2, 2)

    def test_d_below_one_rejected(self):
        with pytest.raises(ValueError, match="need d >= 1"):
            LimitLaw(0, 3)


class TestDensities:
    def test_normalization(self):
        for d, k in [(1, 3), (2, 5), (3, 5)]:
            assert normalization(LimitLaw(d, k)) == pytest.approx(1.0, abs=1e-10)

    def test_zero_outside_support(self):
        law = LimitLaw(1, 3)
        assert law.laplacian_density(0.1) == 0.0
        assert law.laplacian_density(6.0) == 0.0
        assert law.laplacian_density(3.0) > 0.0

    def test_adjacency_is_reflection(self):
        law = LimitLaw(2, 5)
        for x in np.linspace(-6, 5, 23):
            assert law.adjacency_density(x) == pytest.approx(law.laplacian_density(5 - x))

    def test_nonnegative(self):
        law = LimitLaw(2, 4)
        lo, hi = law.laplacian_support
        for x in np.linspace(lo - 1, hi + 1, 50):
            assert law.laplacian_density(x) >= 0.0


class TestMoments:
    def test_moment_zero(self):
        assert laplacian_moment(LimitLaw(2, 5), 0) == pytest.approx(1.0, abs=1e-10)

    def test_first_moment_is_k(self):
        for d, k in [(1, 3), (2, 5), (3, 5)]:
            assert laplacian_moment(LimitLaw(d, k), 1) == pytest.approx(k, abs=1e-9)

    def test_second_moment(self):
        for d, k in [(1, 3), (2, 5)]:
            assert laplacian_moment(LimitLaw(d, k), 2) == pytest.approx(k * k + d * k, abs=1e-8)

    def test_adjacency_second_moment_is_dk(self):
        for d, k in [(1, 3), (2, 5)]:
            assert LimitLaw(d, k).adjacency_moment(2) == pytest.approx(d * k, abs=1e-8)

    def test_order_guard(self):
        with pytest.raises(ValueError):
            laplacian_moment(LimitLaw(1, 3), 13)
        with pytest.raises(ValueError, match=r"moment order must be in \[0, 12\]"):
            LimitLaw(1, 3).adjacency_moment(13)


class TestMidpointRule:
    @pytest.mark.parametrize("d,k", [(1, 2), (2, 3), (2, 5), (3, 40)])
    def test_moments_match_adaptive_quadrature(self, d, k):
        # k = d+1 puts the density's pole at the lower edge of the support
        law = LimitLaw(d, k)
        for ell in range(limitlaw.MOMENT_MAX + 1):
            lap = expectation_by_quad(law, lambda x: x**ell, limitlaw.MOMENT_EPSABS)
            adj = expectation_by_quad(law, lambda x: (k - x) ** ell, limitlaw.MOMENT_EPSABS)
            # odd adjacency moments can vanish; compare them on the scale of E|k - x|^ell
            scale = expectation_by_quad(law, lambda x: abs(k - x) ** ell, limitlaw.MOMENT_EPSABS)
            assert laplacian_moment(law, ell) == pytest.approx(lap, rel=1e-9)
            assert law.adjacency_moment(ell) == pytest.approx(adj, abs=1e-9 * scale)

    def test_point_cap_raises(self, monkeypatch):
        # (10, 12) needs 512 points: the support's lower edge is 0.024 from the zero of log
        monkeypatch.setattr(limitlaw, "QUAD_MAX_POINTS", 32)
        with pytest.raises(RuntimeError, match="within 32 points"):
            growth_constant_quadrature(10, 12)


class TestChebyshevPolynomials:
    def test_t2_at_half(self):
        assert chebyshev_t(2, 0.5) == pytest.approx(-0.5)

    def test_cosine_identity(self):
        thetas = np.linspace(0, pi, 40)
        for m in range(0, 51, 5):
            for theta in thetas:
                assert chebyshev_t(m, cos(theta)) == pytest.approx(cos(m * theta), abs=1e-12)

    @pytest.mark.parametrize("n,m", [(0, 0), (1, 1), (2, 2), (3, 5), (0, 4), (2, 6)])
    def test_orthogonality(self, n, m):
        value, _ = quad(
            lambda theta: cos(n * theta) * cos(m * theta), 0, pi, epsabs=1e-12
        )  # substituted x = cos(theta) form of int T_n T_m / sqrt(1-x^2)
        if n != m:
            assert value == pytest.approx(0.0, abs=1e-8)
        elif n == 0:
            assert value == pytest.approx(pi, abs=1e-8)
        else:
            assert value == pytest.approx(pi / 2, abs=1e-8)

    def test_power_expansions(self):
        # odd: x^(2n+1) = 2^(-2n) sum_m C(2n+1, n-m) T_{2m+1}
        # even: x^(2n) = 2^(1-2n) sum_{m>=1} C(2n, n-m) T_{2m} + 2^(-2n) C(2n, n)
        xs = np.linspace(-1, 1, 21)
        for n in range(7):
            for x in xs:
                odd = 2.0 ** (-2 * n) * sum(
                    comb(2 * n + 1, n - m) * chebyshev_t(2 * m + 1, x) for m in range(n + 1)
                )
                assert odd == pytest.approx(x ** (2 * n + 1), abs=1e-10)
                even = 2.0 ** (1 - 2 * n) * sum(
                    comb(2 * n, n - m) * chebyshev_t(2 * m, x) for m in range(1, n + 1)
                ) + 2.0 ** (-2 * n) * comb(2 * n, n)
                assert even == pytest.approx(x ** (2 * n), abs=1e-10)


class TestSeriesCoefficients:
    @pytest.mark.parametrize("d,k,n", [(1, 3, 1), (2, 5, 2), (2, 5, 3), (2, 5, 4), (3, 6, 5)])
    def test_closed_form_vs_projection(self, d, k, n):
        law = LimitLaw(d, k)
        assert series_coefficient(law, n) == pytest.approx(
            series_coefficient_projection(law, n), abs=1e-8
        )

    def test_geometric_decay_bound(self):
        law = LimitLaw(2, 5)
        ratio = max(law.ratio_zero, law.ratio_upper)
        c = (law.weight_zero + law.weight_upper) / (pi * (law.d + 1))
        for n in range(1, 30):
            assert abs(series_coefficient(law, n)) <= c * ratio**n + 1e-15

    def test_truncation_reaches_tail_target(self):
        law = LimitLaw(1, 3)
        ratio = max(law.ratio_zero, law.ratio_upper)
        assert ratio**chebyshev_truncation(law) < 1e-15

    def test_n_zero_rejected(self):
        with pytest.raises(ValueError):
            series_coefficient(LimitLaw(1, 3), 0)


class TestGrowthConstant:
    def test_1_3_value(self):
        assert growth_constant_closed(1, 3) == pytest.approx(4 / sqrt(3), rel=1e-13)

    def test_mckay_reduction(self):
        for k in range(3, 13):
            mckay = (k - 1) ** (k - 1) / (k * k - 2 * k) ** ((k - 2) / 2)
            assert growth_constant_closed(1, k) == pytest.approx(mckay, rel=1e-12)

    def test_2_21_value(self):
        assert growth_constant_closed(2, 21) == pytest.approx(
            20**20 / (18**6 * 21**13), rel=1e-12
        )

    def test_quadrature_route(self):
        for d, k in [(1, 3), (1, 8), (2, 4), (2, 5), (2, 21), (3, 5), (3, 40), (10, 12)]:
            assert growth_constant_quadrature(d, k) == pytest.approx(growth_constant_closed(d, k), rel=1e-12)

    def test_chebyshev_route(self):
        for d, k in [(1, 3), (2, 5), (3, 9), (2, 21)]:
            assert growth_constant_chebyshev(d, k) == pytest.approx(
                growth_constant_closed(d, k), rel=1e-10
            )

    @pytest.mark.parametrize("d,k", [(1, 3), (1, 8), (2, 5), (2, 21), (3, 9)])
    def test_chebyshev_closed_form_sums_the_coefficient_series(self, d, k):
        assert abs(series_log_moment(LimitLaw(d, k)) - log(growth_constant_chebyshev(d, k))) <= 1e-12

    def test_series_self_truncation_stability(self):
        # halving the truncation moves the series by less than 1e-9
        law = LimitLaw(2, 5)
        truncation = chebyshev_truncation(law)
        t = law.ratio_zero

        def series_sum(upto):
            total, t_pow = 0.0, 1.0
            for n in range(1, upto + 1):
                t_pow *= t
                total += series_coefficient(law, n) * t_pow / n
            return total

        assert abs(series_sum(truncation) - series_sum(truncation // 2)) < 1e-9

    def test_k_too_small_rejected(self):
        for fn in (growth_constant_closed, growth_constant_quadrature, growth_constant_chebyshev):
            with pytest.raises(ValueError):
                fn(2, 3)

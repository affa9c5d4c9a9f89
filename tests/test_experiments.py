import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from steinerlab import SeededRng, complex_from_dfaces, complexes, experiments, read_complex, spectra, steiner_complex
from steinerlab.experiments import (
    ExperimentConfig,
    converge_csv,
    converge_json,
    gap_csv,
    run_converge,
    run_gap_report,
)
from steinerlab.spectra import adjacency_matrix, laplacian_matrix, trivial_zero_count
from conftest import random_complex
from oracles import (
    complete_complex,
    gap_top_oracle,
    growth_rate_from_eigenvalues,
    max_degree,
    mean_growth_rate,
    min_degree,
)


def never(*args, **kwargs):
    raise AssertionError("sampled a complex the guard should refuse")


def small_config(**overrides):
    base = dict(
        d=1, k=3, n_values=(20,), trials=2, radii=(1,), seed=5, lmax=3, deterministic=True
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfig:
    def test_inadmissible_n_rejected(self):
        with pytest.raises(ValueError, match="admissible"):
            small_config(n_values=(21,))

    def test_negative_trials_rejected(self):
        with pytest.raises(ValueError):
            small_config(trials=-1)

    def test_negative_lmax_and_radius_rejected(self):
        with pytest.raises(ValueError, match="lmax must be >= 0"):
            small_config(lmax=-1)
        with pytest.raises(ValueError, match="radii must be >= 0"):
            small_config(radii=(-1,))

    def test_k_below_two_rejected_with_a_radius(self):
        with pytest.raises(ValueError, match="k >= 2"):
            small_config(k=1, radii=(0, 1))
        small_config(k=1, radii=(0,))
        small_config(k=1, radii=())

    def test_oversized_n_rejected(self, monkeypatch):
        # the reduced Laplacian of order C(996, 2) = 495,510 would need about 1 TB packed;
        # converge refuses before sampling, and the config, which gap shares, holds no size guard
        cfg = small_config(d=2, k=5, n_values=(7, 997))
        monkeypatch.setattr(experiments, "steiner_complex", never)
        with pytest.raises(ValueError, match="physical memory"):
            run_converge(cfg)

    def test_packed_order_cap_rejected(self, monkeypatch):
        # n = 307 passes a 1 TB memory guard, but its reduced Laplacian order
        # C(306, 2) = 46665 is above what dpftrf accepts
        monkeypatch.setattr(spectra, "usable_memory", lambda: 2**40)
        monkeypatch.setattr(experiments, "steiner_complex", never)
        with pytest.raises(ValueError, match="order 46665"):
            run_converge(small_config(d=2, k=5, n_values=(7, 307)))

    def test_lmax_bounded_by_int64_traces(self):
        # d = 1, k = 3: |L| has row sums at most 6, and 6^24 < 2^63 <= 6^25
        small_config(lmax=24)
        with pytest.raises(ValueError, match="lmax=25"):
            small_config(lmax=25)

    def test_zero_trials_gives_empty_table(self):
        res = run_converge(small_config(trials=0))
        assert res.rows == () and res.failures == ()


class TestRunConverge:
    def test_row_fields(self):
        res = run_converge(small_config())
        assert len(res.rows) == 2
        for row in res.rows:
            assert row.n == 20
            assert 0.0 <= row.fractions[1] <= 1.0
            assert row.moments[0] == pytest.approx(1.0)
            assert 1 <= row.min_degree <= 3
            assert row.growth_rate >= 0.0

    def test_min_degree_matches_tuple_index(self):
        # the row reads degrees from B's row counts; the tuple cofacet index is the reference
        for cfg in (small_config(trials=4), small_config(d=2, k=2, n_values=(9, 13), trials=3)):
            for row in run_converge(cfg).rows:
                X = steiner_complex(row.n, cfg.d, cfg.k, cfg.stream(row.n, row.trial))
                assert row.min_degree == min_degree(X) and type(row.min_degree) is int

    def test_deterministic_bytes(self):
        cfg = small_config()
        a = converge_csv(run_converge(cfg), cfg)
        b = converge_csv(run_converge(cfg), cfg)
        assert a == b
        assert a.startswith("# schema=1\n")

    def test_timestamp_suppressed_only_when_deterministic(self):
        cfg = small_config(deterministic=False)
        text = converge_csv(run_converge(cfg), cfg)
        assert "# generated=" in text
        cfg2 = small_config()
        assert "# generated=" not in converge_csv(run_converge(cfg2), cfg2)

    def test_adding_n_values_keeps_existing_rows(self):
        res1 = run_converge(small_config(n_values=(20,)))
        res2 = run_converge(small_config(n_values=(20, 30)))
        first = [r for r in res2.rows if r.n == 20]
        assert first == list(res1.rows)

    def test_rows_recomputable_from_persisted_complexes(self, tmp_path):
        cfg = small_config(complex_dir=tmp_path)
        res = run_converge(cfg)
        for row in res.rows:
            X = read_complex(tmp_path / f"complex_n{row.n}_t{row.trial}.txt")
            eigs = np.linalg.eigvalsh(laplacian_matrix(X))
            rate = growth_rate_from_eigenvalues(eigs, trivial_zero_count(X), X.n, X.d)
            assert rate == pytest.approx(row.growth_rate, abs=1e-12)
            for ell in range(cfg.lmax + 1):
                assert float((eigs**ell).mean()) == pytest.approx(row.moments[ell], abs=1e-12)

    def test_persisted_complex_matches_stream(self, tmp_path):
        cfg = small_config(complex_dir=tmp_path)
        run_converge(cfg)
        X = read_complex(tmp_path / "complex_n20_t1.txt")
        assert X == steiner_complex(20, 1, 3, cfg.stream(20, 1))

    def test_json_output_parses(self):
        import json

        cfg = small_config()
        payload = json.loads(converge_json(run_converge(cfg), cfg))
        assert payload["schema"] == 1
        assert len(payload["rows"]) == 2

    def test_growth_rate_approaches_limit_constant(self):
        # d=1, k=3: the systematic finite-size gap is ~4.8% at n=100 (thin
        # margin under 5%, seed-sensitive) and ~2.8% at n=200
        from steinerlab.limitlaw import growth_constant_closed

        xi = growth_constant_closed(1, 3)
        gaps = {}
        for n in (100, 200):
            cfg = small_config(n_values=(n,), trials=20, radii=(), lmax=0, seed=42)
            mean = mean_growth_rate(run_converge(cfg), n)
            gaps[n] = abs(mean - xi) / xi
        assert gaps[100] <= 0.05
        assert gaps[200] <= 0.03
        assert gaps[200] < gaps[100]


# pinned --deterministic converge output, produced with the per-face census
# (is_arboreal_ball on every centre); the fractions, degrees and moments are
# exact rationals, growth_rate and spectral_floor come from the Cholesky and
# Lanczos routes, whose last digits depend on the BLAS build and CPU
GOLDEN_CSV = {
    (2, 5, 31, (1, 2), 3): """\
# schema=1
n,trial,growth_rate,min_degree,spectral_floor,frac_r1,frac_r2,moment_0,moment_1,moment_2,moment_3,moment_4
31,0,2.9493128854799773,3,0.45922715890526206,0.7440860215053764,0.0,1.0,4.7290322580645165,32.049462365591395,250.04516129032257,2108.3849462365592
31,1,2.8694854797744607,2,0.39678695656086616,0.6817204301075269,0.0,1.0,4.638709677419355,31.116129032258065,241.1290322580645,2024.7075268817205
31,2,2.839403114716221,3,0.38928436107261516,0.632258064516129,0.0,1.0,4.606451612903226,30.72258064516129,236.18064516129033,1963.1354838709678
""",
    (1, 3, 100, (1, 2, 3), 2): """\
# schema=1
n,trial,growth_rate,min_degree,spectral_floor,frac_r1,frac_r2,frac_r3,moment_0,moment_1,moment_2,moment_3,moment_4
100,0,2.207309860415598,2,0.22961328983370724,0.92,0.59,0.18,1.0,2.98,11.88,53.2,253.0
100,1,2.1531950535469773,2,0.16809858577118472,0.88,0.56,0.08,1.0,2.94,11.64,51.84,245.32
""",
}


@pytest.mark.parametrize("key", list(GOLDEN_CSV))
def test_converge_csv_matches_golden(key):
    d, k, n, radii, trials = key
    cfg = ExperimentConfig(
        d=d, k=k, n_values=(n,), trials=trials, radii=radii, seed=7, lmax=4, deterministic=True
    )
    got = [line.split(",") for line in converge_csv(run_converge(cfg), cfg).splitlines()]
    want = [line.split(",") for line in GOLDEN_CSV[key].splitlines()]
    assert got[:2] == want[:2]  # schema line and header
    header = want[1]
    assert len(got) == len(want)
    for got_row, want_row in zip(got[2:], want[2:]):
        assert len(got_row) == len(header)
        for col, g, w in zip(header, got_row, want_row):
            if col in ("growth_rate", "spectral_floor"):
                assert float(g) == pytest.approx(float(w), rel=1e-12), col
            else:
                assert g == w, col


class TestGapReport:
    def test_all_pass_with_the_largest_epsilon(self):
        cfg = small_config(k=3)
        with pytest.warns(RuntimeWarning):
            report = run_gap_report(cfg, epsilon=sys.float_info.max)
        assert report.pass_fraction == 1.0

    @pytest.mark.parametrize("epsilon", [math.nan, math.inf, -math.inf])
    def test_non_finite_epsilon_refused_before_sampling(self, epsilon, monkeypatch):
        monkeypatch.setattr(experiments, "steiner_complex", never)
        with pytest.raises(ValueError, match="eps must be finite"):
            run_gap_report(small_config(k=3), epsilon=epsilon)

    @pytest.mark.parametrize("k", [5, 21])
    @pytest.mark.parametrize("n", [15, 31, 63, 111])
    def test_row_stays_within_its_guard(self, n, k, monkeypatch):
        # d = 2: a row builds B, L, A, -A and delta and solves -A, dense at m = 105 and 465 and
        # by Lanczos at m = 1953 and 6105; the complex is drawn before the trace, since the
        # guard counts the row's operators and solve, not the sampler
        X = steiner_complex(n, 2, k, SeededRng(1))
        needs = []
        monkeypatch.setattr(experiments, "steiner_complex", lambda *args: X)
        monkeypatch.setattr(experiments, "require_memory", lambda need, what: needs.append(need))
        complexes._complete_coboundary.cache_clear()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # k = 5 is at or below the proven regime
            tracemalloc.start()
            try:
                run_gap_report(ExperimentConfig(d=2, k=k, n_values=(n,), trials=1), epsilon=0.5)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak <= needs[0]

    def test_warns_below_regularity_threshold(self):
        cfg = small_config(k=3)
        with pytest.warns(RuntimeWarning, match="threshold"):
            run_gap_report(cfg, epsilon=0.5)

    def test_no_warning_above_threshold(self, recwarn):
        cfg = small_config(k=8, n_values=(20,))
        run_gap_report(cfg, epsilon=0.5)
        assert not [w for w in recwarn.list if "threshold" in str(w.message)]

    def test_csv_shape(self):
        cfg = small_config(k=8, n_values=(20,))
        report = run_gap_report(cfg, epsilon=0.5)
        text = gap_csv(report, cfg)
        lines = [l for l in text.splitlines() if not l.startswith("#")]
        assert lines[0] == "n,trial,top_nontrivial,passed"
        assert len(lines) == 1 + len(report.rows)


def gap_statistic(X, monkeypatch):
    """run_gap_report's top_nontrivial on X, handed out by a patched sampler."""
    cfg = ExperimentConfig(d=X.d, k=2, n_values=(X.n,), trials=1, radii=())
    with monkeypatch.context() as patch, pytest.warns(RuntimeWarning, match="threshold"):
        patch.setattr(experiments, "steiner_complex", lambda n, d, k, rng: X)
        (row,) = run_gap_report(cfg, epsilon=0.5).rows
    return row.top_nontrivial


def descending_adjacency_statistic(X):
    """The (t+1)-th largest adjacency eigenvalue, t = C(n-1, d-1): the statistic on k-regular complexes."""
    return float(np.linalg.eigvalsh(adjacency_matrix(X))[::-1][trivial_zero_count(X)])


class TestGapStatistic:
    """top_nontrivial is the top of the adjacency spectrum on ker delta^T."""

    # d-admissible n: n even at d = 1, n = 1, 3 mod 6 at d = 2, n = 2, 4 mod 6 at d = 3
    ADMISSIBLE = {1: (2, 4, 6, 8), 2: (3, 7, 9), 3: (4, 8)}

    def test_matches_dense_oracle_on_random_complexes(self, gen, monkeypatch):
        for d, sizes in self.ADMISSIBLE.items():
            for _ in range(4):
                X = random_complex(int(gen.choice(sizes)), d, gen)
                assert gap_statistic(X, monkeypatch) == pytest.approx(gap_top_oracle(X), abs=1e-9)

    def test_matches_dense_oracle_on_steiner_complexes(self):
        # (2, 5, 31) and (2, 21, 33) merge repeated blocks, so they are not k-regular
        for d, k, n in ((1, 3, 40), (2, 5, 31), (2, 21, 33)):
            cfg = small_config(d=d, k=k, n_values=(n,), trials=3, seed=0, radii=())
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                rows = run_gap_report(cfg, epsilon=0.5).rows
            moved = 0.0
            for row in rows:
                X = steiner_complex(n, d, k, cfg.stream(n, row.trial))
                assert row.top_nontrivial == pytest.approx(gap_top_oracle(X), abs=1e-9)
                moved = max(moved, row.top_nontrivial - descending_adjacency_statistic(X))
            if d == 2:
                assert moved > 1e-3  # the (t+1)-th largest eigenvalue of A is not the statistic here

    def test_equals_descending_statistic_on_regular_complexes(self, monkeypatch):
        for d, sizes in self.ADMISSIBLE.items():
            for n in sizes:
                X = complete_complex(n, d)
                assert gap_statistic(X, monkeypatch) == pytest.approx(descending_adjacency_statistic(X), abs=1e-9)
        # trial 2 of d = 2, k = 2, n = 15, seed 0 shares no block between its two systems
        cfg = small_config(d=2, k=2, n_values=(15,), trials=3, seed=0, radii=())
        with pytest.warns(RuntimeWarning, match="threshold"):
            rows = run_gap_report(cfg, epsilon=0.5).rows
        for row in rows:
            X = steiner_complex(15, 2, 2, cfg.stream(15, row.trial))
            if min_degree(X) == max_degree(X) == 2:
                assert row.top_nontrivial == pytest.approx(descending_adjacency_statistic(X), abs=1e-9)
                return
        pytest.fail("no 2-regular sample found")

    def test_smallest_complexes(self, monkeypatch):
        # n = d + 1: the operator has order d + 1 and ker delta^T is one-dimensional
        for d in (1, 2, 3):
            for X in (complete_complex(d + 1, d), complex_from_dfaces(d + 1, d, [])):
                top = gap_statistic(X, monkeypatch)
                assert top == pytest.approx(gap_top_oracle(X), abs=1e-9)
                assert top == pytest.approx(-d if X.num_dfaces else 0.0, abs=1e-9)

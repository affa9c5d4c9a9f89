"""Acceptance suite: one test per release criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -s` to see the verdict lines live.
Statistical criteria use pinned seeds, so the whole suite is deterministic.
"""

import time
from math import comb, log

import numpy as np

from steinerlab import (
    LimitLaw,
    SeededRng,
    adjacency_matrix,
    complete_complex,
    growth_constant_chebyshev,
    growth_constant_closed,
    growth_constant_quadrature,
    layer_sizes,
    sample_greedy,
    sample_matching,
    sample_sts,
    signed_trace,
    signed_walk_count,
    steiner_complex,
    tree_count_exact,
    weighted_tree_count,
)
from steinerlab.experiments import ExperimentConfig, run_converge
from conftest import random_complex
from oracles import arboreal_ball, inclusion_frequency_test, mean_fraction, mean_moment


def verdict(num, name, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num} ({name}): {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_01_growth_constant_triple_agreement():
    t0 = time.time()
    worst = 0.0
    pairs = 0
    for d in (1, 2, 3):
        for k in range(d + 2, 31):
            closed = growth_constant_closed(d, k)
            quadrature = growth_constant_quadrature(d, k)
            chebyshev = growth_constant_chebyshev(d, k)
            rel = max(abs(quadrature - closed), abs(chebyshev - closed)) / closed
            worst = max(worst, rel)
            pairs += 1
    elapsed = time.time() - t0
    verdict(
        1,
        "three-route agreement",
        worst <= 1e-7 and elapsed < 10,
        f"{pairs} (d,k) pairs, worst relative spread {worst:.2e}, {elapsed:.1f} s",
    )


def test_criterion_02_mckay_reduction():
    worst = 0.0
    for k in range(3, 13):
        mckay = (k - 1) ** (k - 1) / (k * k - 2 * k) ** ((k - 2) / 2)
        rel = abs(growth_constant_closed(1, k) - mckay) / mckay
        worst = max(worst, rel)
    verdict(2, "d=1 reduction", worst <= 1e-12, f"k=3..12, worst relative error {worst:.2e}")


def test_criterion_03_matrix_tree_vs_oracle():
    t0 = time.time()
    worst = 0.0
    named = {
        (4, 1): 16,
        (5, 1): 125,
        (6, 1): 1296,
        (4, 2): 4,
        (5, 2): 125,
    }
    for (n, d), expected in named.items():
        r = weighted_tree_count(complete_complex(n, d), oracle=True)
        assert r.exact_count == expected == n ** comb(n - 2, d)
        worst = max(worst, abs(log(r.exact_count) - r.log_count))
    gen = np.random.default_rng(123)
    positive = 0
    for i in range(25):
        d = 1 if i % 2 == 0 else 2
        n = int(gen.integers(d + 2, 7))
        X = random_complex(n, d, gen, max_faces=12 if d == 2 else None)
        exact = tree_count_exact(X)
        r = weighted_tree_count(X)
        if r.zero_flag:
            assert exact == 0
        else:
            positive += 1
            worst = max(worst, abs(log(exact) - r.log_count))
    elapsed = time.time() - t0
    verdict(
        3,
        "matrix-tree vs enumeration",
        worst <= 1e-6 and positive >= 8 and elapsed < 120,
        f"5 complete + 25 random complexes ({positive} with positive count), "
        f"worst |log gap| {worst:.2e}, {elapsed:.1f} s",
    )


def test_criterion_04_signed_trace_identity():
    t0 = time.time()
    gen = np.random.default_rng(4242)
    worst = 0.0
    for _ in range(50):
        d = int(gen.integers(1, 3))
        n = int(gen.integers(d + 2, 13))
        X = random_complex(n, d, gen)
        A = adjacency_matrix(X)
        power = np.eye(len(A))
        for ell in range(7):
            worst = max(worst, abs(signed_trace(X, ell) - float(np.trace(power))))
            power = power @ A
    elapsed = time.time() - t0
    verdict(
        4,
        "signed-trace identity",
        worst <= 1e-6 and elapsed < 60,
        f"50 complexes, ell <= 6, worst |gap| {worst:.2e}, {elapsed:.1f} s",
    )


def test_criterion_05_moment_transfer():
    t0 = time.time()
    worst = 0.0
    for d, k in [(1, 3), (2, 3), (2, 5), (3, 5)]:
        law = LimitLaw(d, k)
        assert signed_walk_count(d, k, 1) == 0
        assert signed_walk_count(d, k, 2) == d * k
        for ell in range(9):
            gap = abs(law.adjacency_moment(ell) - signed_walk_count(d, k, ell))
            worst = max(worst, gap)
    elapsed = time.time() - t0
    verdict(
        5,
        "tree-walk moment transfer",
        worst <= 1e-6 and elapsed < 60,
        f"(d,k) in (1,3),(2,3),(2,5),(3,5), ell <= 8, worst |gap| {worst:.2e}, {elapsed:.1f} s",
    )


def test_criterion_06_spectral_convergence():
    t0 = time.time()
    law = LimitLaw(2, 5)
    targets = [law.laplacian_moment(ell) for ell in range(5)]
    cfg = ExperimentConfig(d=2, k=5, n_values=(31, 63), trials=5, radii=(), seed=99, lmax=4)
    res = run_converge(cfg)
    errors = {
        n: [abs(mean_moment(res, n, ell) - targets[ell]) / abs(targets[ell]) for ell in range(1, 5)]
        for n in (31, 63)
    }
    within = all(err <= 0.10 for err in errors[63])
    monotone = all(e63 <= e31 for e63, e31 in zip(errors[63], errors[31]))
    elapsed = time.time() - t0
    verdict(
        6,
        "spectral convergence",
        within and monotone and elapsed < 900,
        f"relative moment errors at n=63: {[f'{e:.3f}' for e in errors[63]]} "
        f"(n=31: {[f'{e:.3f}' for e in errors[31]]}), {elapsed:.1f} s",
    )


def test_criterion_07_local_convergence():
    t0 = time.time()
    cfg = ExperimentConfig(d=2, k=5, n_values=(31, 45, 63), trials=5, radii=(1, 2), seed=4, lmax=0)
    res = run_converge(cfg)
    means = {r: [mean_fraction(res, n, r) for n in (31, 45, 63)] for r in (1, 2)}
    threshold = means[1][2] >= 0.8
    monotone = all(m[0] <= m[1] <= m[2] for m in means.values())
    elapsed = time.time() - t0
    verdict(
        7,
        "local convergence",
        threshold and monotone and elapsed < 600,
        f"r=1 means over n=31,45,63: {[f'{m:.3f}' for m in means[1]]}, "
        f"r=2 means: {[f'{m:.3f}' for m in means[2]]}, {elapsed:.1f} s",
    )


def test_criterion_08_tree_count_growth():
    t0 = time.time()
    log_xi_18 = log(growth_constant_closed(1, 8))
    cfg = ExperimentConfig(d=1, k=8, n_values=(50, 100, 200), trials=10, radii=(), seed=2024, lmax=0)
    res = run_converge(cfg)
    errs1 = []
    for n in (50, 100, 200):
        rates = [log(row.growth_rate) for row in res.rows if row.n == n]
        errs1.append(abs(sum(rates) / len(rates) - log_xi_18))
    part1 = errs1[0] > errs1[1] > errs1[2] and errs1[2] <= 0.05

    log_xi_221 = log(growth_constant_closed(2, 21))
    cfg2 = ExperimentConfig(d=2, k=21, n_values=(33, 63), trials=3, radii=(), seed=2024, lmax=0)
    res2 = run_converge(cfg2)
    errs2 = []
    for n in (33, 63):
        rates = [log(row.growth_rate) for row in res2.rows if row.n == n]
        errs2.append(abs(sum(rates) / len(rates) - log_xi_221))
    part2 = errs2[0] > errs2[1]
    elapsed = time.time() - t0
    verdict(
        8,
        "tree-count growth",
        part1 and part2 and elapsed < 1800,
        f"d=1,k=8 log errors over n=50,100,200: {[f'{e:.4f}' for e in errs1]}; "
        f"d=2,k=21 over n=33,63: {[f'{e:.4f}' for e in errs2]}, {elapsed:.1f} s",
    )


def test_criterion_09_sampler_statistics():
    t0 = time.time()
    report = inclusion_frequency_test(10, 1, 100_000, SeededRng(9))
    elapsed = time.time() - t0
    verdict(
        9,
        "matching inclusion frequency",
        bool(report.passed) and elapsed < 30,
        f"empirical {report.empirical:.6f} vs 1/9, deviation {report.deviation_sigmas:.2f} sigma, "
        f"{elapsed:.1f} s",
    )


def test_criterion_10_structural_invariants():
    t0 = time.time()
    checks = 0
    # every emitted system passes exact cover validation (sampling._exact_cover raises otherwise)
    gen = SeededRng(31).generator()
    for n in (8, 12):
        sample_matching(n, gen)
        checks += 1
    for n in (7, 9, 13):
        sample_sts(n, gen)
        checks += 1
    sample_greedy(8, 3, gen)
    checks += 1
    # every union complex has degrees within [1, k]
    for n, d, k in [(12, 1, 3), (9, 2, 2), (21, 2, 5)]:
        X = steiner_complex(n, d, k, gen)
        assert X.min_degree() >= 1 and X.max_degree() <= k
        checks += 1
    # every explicit truncation matches the closed-form census
    for d, k, r in [(1, 2, 5), (1, 4, 3), (2, 2, 3), (2, 3, 2), (2, 5, 2), (3, 2, 2), (3, 5, 1)]:
        profile = layer_sizes(d, k, r)
        tree = arboreal_ball(d, k, r)
        for rho in range(r + 1):
            assert len(tree.vertex_layers[rho]) == profile.new_vertices[rho]
            assert len(tree.facet_layers[rho]) == (d * profile.new_dfaces[rho] if rho else 1)
            assert len(tree.dface_layers[rho]) == profile.new_dfaces[rho]
        checks += 1
    elapsed = time.time() - t0
    verdict(10, "structural invariants", True, f"{checks} construction checks, {elapsed:.1f} s")

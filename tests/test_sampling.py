from collections import Counter
from itertools import combinations
from math import comb, sqrt
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steinerlab import (
    SamplerExhausted,
    SeededRng,
    complex_from_dfaces,
    is_admissible,
    sample_greedy,
    sample_matching,
    sample_sts,
    steiner_complex,
)
from steinerlab import sampling
from steinerlab.sampling import _bounded_draws
from oracles import inclusion_frequency_test, max_degree, min_degree

# bounds on numpy's 32-bit path: no rejection (1, 2**32), rare rejection,
# and rejection of about a quarter (3 * 2**30 + 7) and a half (2**31 + 1)
BOUNDS = [1, 2, 3, 7, 110, 2**31 + 1, 3 * 2**30 + 7, 2**32 - 1, 2**32]


def philox(key, buffered_half_word):
    gen = np.random.Generator(np.random.Philox(key=np.array(key, dtype=np.uint64)))
    if buffered_half_word:
        gen.integers(0, 3)  # one 32-bit word from a 64-bit output: the other half waits
    return gen


def reference_hill_climb(n, gen, max_iterations):
    """The hill-climb with one scalar `gen.integers` call per draw."""
    pair_block = {}
    live = [set() for _ in range(n + 1)]
    for x in range(1, n + 1):
        live[x] = set(range(1, n + 1)) - {x}
    points = list(range(1, n + 1))
    num_covered = 0
    target = comb(n, 2)

    for _ in range(max_iterations):
        if num_covered == target:
            return sorted(pair_block.values())
        while True:
            x = points[int(gen.integers(0, n))]
            if live[x]:
                break
        partners = sorted(live[x])
        i = int(gen.integers(0, len(partners)))
        j = int(gen.integers(0, len(partners) - 1))
        if j >= i:
            j += 1
        y, z = partners[i], partners[j]

        new_block = tuple(sorted((x, y, z)))
        yz = (y, z) if y < z else (z, y)
        old = pair_block.get(yz)
        if old is not None:
            for pair in combinations(old, 2):
                del pair_block[pair]
                live[pair[0]].add(pair[1])
                live[pair[1]].add(pair[0])
            num_covered -= 3
        for pair in combinations(new_block, 2):
            pair_block[pair] = new_block
            live[pair[0]].discard(pair[1])
            live[pair[1]].discard(pair[0])
        num_covered += 3

    return None


def reference_greedy_once(n, d, gen):
    """One random greedy attempt with one scalar `gen.integers` call per draw."""
    uncovered = set(combinations(range(1, n + 1), d))
    blocks = []
    pool = sorted(uncovered)
    while uncovered:
        while True:
            sigma = pool[int(gen.integers(0, len(pool)))]
            if sigma in uncovered:
                break
        candidates = []
        for v in range(1, n + 1):
            if v in sigma:
                continue
            block = tuple(sorted(sigma + (v,)))
            if all(sub in uncovered for sub in combinations(block, d)):
                candidates.append(v)
        if not candidates:
            return None
        v = candidates[int(gen.integers(0, len(candidates)))]
        block = tuple(sorted(sigma + (v,)))
        blocks.append(block)
        for sub in combinations(block, d):
            uncovered.discard(sub)
    return blocks


def reference_system(n, d, gen, attempt, cap, max_restarts=100):
    """`sample_sts` / `sample_greedy` around a reference attempt, as a set of blocks."""
    for _ in range(max_restarts):
        blocks = attempt(gen, cap)
        if blocks is not None:
            perm = [0, *(gen.permutation(n) + 1).tolist()]  # perm[v]: the new label of vertex v
            return frozenset(tuple(sorted(perm[v] for v in b)) for b in blocks)
    raise SamplerExhausted


def reference_draw(n, d, gen):
    """`sample_system` by the reference routes, as a set of blocks."""
    if d == 1:
        order = gen.permutation(n) + 1
        return frozenset(tuple(sorted((int(order[2 * i]), int(order[2 * i + 1])))) for i in range(n // 2))
    if d == 2:
        return reference_system(n, 2, gen, lambda g, cap: reference_hill_climb(n, g, cap), 50 * n * n)
    return reference_greedy(n, d, gen)


def reference_greedy(n, d, gen):
    """`sample_greedy` by the reference route for d >= 2, as a set of blocks."""
    return reference_system(n, d, gen, lambda g, _: reference_greedy_once(n, d, g), None)


def block_set(system):
    """The rows of a sampled system as a frozenset of vertex tuples."""
    return frozenset(map(tuple, system.tolist()))


def state(gen):
    return repr(gen.bit_generator.state)


class TestAdmissibility:
    @pytest.mark.parametrize(
        "n,d,expected",
        [
            (7, 2, True),
            (9, 2, True),
            (6, 2, False),
            (8, 2, False),
            (6, 1, True),
            (5, 1, False),
            (2, 1, True),
            (4, 3, True),
            (8, 3, True),
            (63, 2, True),
            (31, 2, True),
            (2, 2, False),  # fewer than d + 1 vertices
        ],
    )
    def test_table(self, n, d, expected):
        assert is_admissible(n, d) is expected

    def test_d2_is_one_or_three_mod_six(self):
        admissible = [n for n in range(3, 40) if is_admissible(n, 2)]
        assert admissible == [n for n in range(3, 40) if n % 6 in (1, 3)]

    def test_d1_is_even(self):
        assert [n for n in range(2, 12) if is_admissible(n, 1)] == [2, 4, 6, 8, 10]


class TestMatching:
    def test_n2_unique(self):
        assert block_set(sample_matching(2, SeededRng(0))) == frozenset({(1, 2)})

    def test_odd_n_rejected(self):
        with pytest.raises(ValueError):
            sample_matching(5, SeededRng(0))

    def test_every_vertex_covered(self):
        s = sample_matching(12, SeededRng(3))
        assert sorted(v for b in block_set(s) for v in b) == list(range(1, 13))

    def test_n4_uniform_over_three_matchings(self):
        # exact count of perfect matchings on 4 points is 3
        gen = SeededRng(11).generator()
        counts = Counter()
        trials = 30000
        for _ in range(trials):
            counts[block_set(sample_matching(4, gen))] += 1
        assert len(counts) == 3
        p = 1 / 3
        tol = 4 * sqrt(trials * p * (1 - p))
        for c in counts.values():
            assert abs(c - trials * p) <= tol


def forced_restart_sts(n, gen):
    """`sample_sts` whose first climb is capped at n steps, so it fails and the sampler restarts."""
    climb, runs = sampling._hill_climb_triples, []

    def first_capped(n_, g, cap):
        runs.append(climb(n_, g, n_ if not runs else cap))
        return runs[-1]

    with mock.patch.object(sampling, "_hill_climb_triples", first_capped):
        system = sample_sts(n, gen)
    assert runs[0] is None and len(runs) > 1
    return system


def reference_forced_restart(n, gen):
    assert reference_hill_climb(n, gen, n) is None
    return reference_draw(n, 2, gen)


class TestSystemArrays:
    @pytest.mark.parametrize("n,d,draw,reference", [
        pytest.param(12, 1, sample_matching, lambda n, g: reference_draw(n, 1, g), id="matching"),
        pytest.param(31, 2, sample_sts, lambda n, g: reference_draw(n, 2, g), id="sts"),
        pytest.param(111, 2, sample_sts, lambda n, g: reference_draw(n, 2, g), id="sts111"),
        pytest.param(9, 2, lambda n, g: sample_greedy(n, 2, g), lambda n, g: reference_greedy(n, 2, g), id="greedy-d2"),
        pytest.param(8, 3, lambda n, g: sample_greedy(n, 3, g), lambda n, g: reference_greedy(n, 3, g), id="greedy-d3"),
        pytest.param(15, 2, forced_restart_sts, reference_forced_restart, id="sts-restart"),
    ])
    def test_sorted_int64_rows_and_reference_stream(self, n, d, draw, reference):
        for seed in range(3):
            gen, ref = SeededRng(seed, 4).generator(), SeededRng(seed, 4).generator()
            system = draw(n, gen)
            assert isinstance(system, np.ndarray) and system.dtype == np.int64
            assert system.flags.c_contiguous and not system.flags.writeable
            assert system.shape == (comb(n, d) // (d + 1), d + 1)
            assert (np.diff(system, axis=1) > 0).all()
            rows = system.tolist()
            assert rows == sorted(rows) and len(set(map(tuple, rows))) == len(rows)
            assert block_set(system) == reference(n, ref)
            assert state(gen) == state(ref)


MATCHING = [(1, 2), (3, 4), (5, 6)]
FANO = [(1, 2, 3), (1, 4, 5), (1, 6, 7), (2, 4, 6), (2, 5, 7), (3, 4, 7), (3, 5, 6)]


class TestTripleSystems:
    def test_sts7_block_count(self):
        s = sample_sts(7, SeededRng(1))
        assert len(block_set(s)) == 7

    def test_sts9_block_count(self):
        s = sample_sts(9, SeededRng(2))
        assert len(block_set(s)) == comb(9, 2) // 3

    def test_inadmissible_rejected(self):
        with pytest.raises(ValueError, match="admissible"):
            sample_sts(6, SeededRng(0))

    def test_exact_cover_validation_catches_bad_blocks(self):
        with pytest.raises(ValueError):
            sampling._exact_cover(7, 2, np.array([(1, 2, 3)] * 7))
        with pytest.raises(ValueError, match="blocks"):
            sampling._exact_cover(7, 2, np.array([(1, 2, 3)]))

    @pytest.mark.parametrize("n, d, blocks, message", [
        (6, 1, MATCHING[1:], "expected 3 blocks, got 2"),
        (6, 1, [(1, 2), (1, 2), (5, 6)], "2 d-subsets covered more than once"),  # a repeated block
        (6, 1, [(1, 2), (1, 3), (5, 6)], "1 d-subsets covered more than once"),  # vertex 4 uncovered
        (7, 2, FANO[1:], "expected 7 blocks, got 6"),
        (7, 2, FANO[:-1] + [(1, 2, 3)], "3 d-subsets covered more than once"),
        (7, 2, FANO[:-1] + [(3, 5, 7)], "2 d-subsets covered more than once"),  # {5, 6} uncovered
    ], ids=["d1-count", "d1-repeat", "d1-overlap", "d2-count", "d2-repeat", "d2-overlap"])
    def test_exact_cover_refusals(self, n, d, blocks, message):
        # the three refusals, on a perfect matching and on the Fano plane, each valid as given
        valid = MATCHING if d == 1 else FANO
        assert sampling._exact_cover(n, d, np.array(valid[::-1])).tolist() == sorted(map(list, valid))
        with pytest.raises(ValueError, match=f"^{message}$"):
            sampling._exact_cover(n, d, np.array(blocks))

    def test_permutation_invariance_orbit_statistics(self):
        # uniform relabeling makes P(B in S) = #blocks / #triples = 1/7 for
        # every block of STS(9); compare two orbit representatives at 4 sigma
        gen = SeededRng(5).generator()
        trials = 3000
        hits = Counter()
        probes = [(1, 2, 3), (4, 7, 9)]
        for _ in range(trials):
            s = sample_sts(9, gen)
            for b in probes:
                hits[b] += b in block_set(s)
        p = 12 / comb(9, 3)
        sigma = sqrt(trials * p * (1 - p))
        for b in probes:
            assert abs(hits[b] - trials * p) <= 4 * sigma
        assert abs(hits[probes[0]] - hits[probes[1]]) <= 4 * sqrt(2) * sigma

    def test_sts13_law_is_not_uniform(self):
        # STS(13) has two isomorphism classes: the cyclic one (13 Pasch configurations,
        # automorphism group of order 39) and the other (8, order 6), so the uniform law on
        # labelled systems puts (1/39) / (1/39 + 1/6) = 6/45 on the cyclic class; the
        # hill-climb then relabel is permutation-invariant but draws it less often
        gen = SeededRng(11).substream(13).generator()
        trials = 2000
        paschs = Counter(pasch_count(sample_sts(13, gen)) for _ in range(trials))
        assert set(paschs) <= {8, 13}, paschs
        cyclic = paschs[13]
        p = 182 / trials  # measured on this stream
        assert abs(cyclic - 182) <= 4 * sqrt(trials * p * (1 - p))
        uniform = 6 / 45
        assert cyclic < trials * uniform - 4 * sqrt(trials * uniform * (1 - uniform))


def pasch_count(blocks: np.ndarray) -> int:
    """Pasch configurations of a triple system: four blocks on six points, every two meeting once.

    Two blocks {a, b, c} and {a, d, e} through a point lie in one when the blocks
    through {b, d} and {c, e}, or through {b, e} and {c, d}, share their third
    point; each configuration holds six such pairs.
    """
    third = {}
    for block in blocks.tolist():
        for i, j, k in ((0, 1, 2), (0, 2, 1), (1, 2, 0)):
            third[block[i], block[j]] = third[block[j], block[i]] = block[k]
    through = {}
    for block in blocks.tolist():
        for point in block:
            through.setdefault(point, []).append([q for q in block if q != point])
    seen = 0
    for pairs in through.values():
        for (b, c), (d, e) in combinations(pairs, 2):
            seen += (third[b, d] == third[c, e]) + (third[b, e] == third[c, d])
    assert seen % 6 == 0
    return seen // 6


class TestBoundedDraws:
    @settings(max_examples=200, deadline=None)
    @given(
        key=st.tuples(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1)),
        buffered_half_word=st.booleans(),
        bounds=st.lists(st.one_of(st.sampled_from(BOUNDS), st.integers(1, 200)), max_size=60),
        block=st.sampled_from([1, 3, 1024]),
    )
    def test_equals_scalar_integers(self, key, buffered_half_word, bounds, block):
        gen, ref = philox(key, buffered_half_word), philox(key, buffered_half_word)
        with mock.patch.object(sampling, "_DRAW_BLOCK", block):
            with _bounded_draws(gen) as below:
                drawn = [below(b) for b in bounds]
        assert drawn == [int(ref.integers(0, b)) for b in bounds]
        assert state(gen) == state(ref)

    @pytest.mark.parametrize("buffered_half_word", [False, True])
    def test_bound_one_draws_nothing(self, buffered_half_word):
        gen, ref = philox((5, 6), buffered_half_word), philox((5, 6), buffered_half_word)
        with _bounded_draws(gen) as below:
            assert [below(1) for _ in range(10)] == [0] * 10
        assert state(gen) == state(ref)

    @pytest.mark.parametrize("bad", [2**32 + 1, 2**40, 0, -3])
    def test_bound_outside_32_bit_path_refused(self, bad):
        gen, ref = philox((7, 8), True), philox((7, 8), True)
        with pytest.raises(ValueError, match="bounded draw"):
            with _bounded_draws(gen) as below:
                first = below(110)
                below(bad)
        # the exception still replays what was used, so the stream reads on
        assert first == int(ref.integers(0, 110))
        assert state(gen) == state(ref)


class TestHillClimbReference:
    @pytest.mark.parametrize("n", [7, 9, 13, 15, 31, 63, 111])
    def test_blocks_and_stream_equal_reference(self, n):
        for seed in range(2 if n == 111 else 4):  # odd seeds start on a buffered half word
            gen, ref = SeededRng(seed, n).generator(), SeededRng(seed, n).generator()
            if seed % 2:
                gen.integers(0, 3), ref.integers(0, 3)
            blocks = sampling._hill_climb_triples(n, gen, 50 * n * n)
            assert blocks is not None
            assert sorted(blocks) == sorted(frozenset(reference_hill_climb(n, ref, 50 * n * n)))
            assert state(gen) == state(ref)

    @pytest.mark.parametrize("n", [7, 9, 13, 15])
    def test_cap_returns_none_and_same_stream(self, n):
        for seed in range(5):
            gen, ref = SeededRng(seed, 1).generator(), SeededRng(seed, 1).generator()
            assert sampling._hill_climb_triples(n, gen, n) is None
            assert reference_hill_climb(n, ref, n) is None
            assert state(gen) == state(ref)

    @pytest.mark.parametrize("n,cap", [(9, 27), (13, 78), (15, 90)])
    def test_failed_and_found_runs_on_one_stream(self, n, cap):
        # caps near the iterations a run needs: some runs hit the cap, some finish
        gen, ref = SeededRng(1, 2).generator(), SeededRng(1, 2).generator()
        results = [sampling._hill_climb_triples(n, gen, cap) for _ in range(20)]
        references = [reference_hill_climb(n, ref, cap) for _ in range(20)]
        assert [r and sorted(r) for r in results] == [r and sorted(frozenset(r)) for r in references]
        assert None in results and any(results)
        assert state(gen) == state(ref)

    @pytest.mark.parametrize("n,cap", [(9, 27), (13, 78), (15, 90)])
    def test_restarts_equal_reference(self, n, cap):
        climb, runs = sampling._hill_climb_triples, []

        def short(n_, g, _):
            runs.append(climb(n_, g, cap))
            return runs[-1]

        for seed in range(3):
            gen, ref = SeededRng(seed, 2).generator(), SeededRng(seed, 2).generator()
            with mock.patch.object(sampling, "_hill_climb_triples", short):
                system = sample_sts(n, gen)
            assert block_set(system) == reference_system(n, 2, ref, lambda g, _: reference_hill_climb(n, g, cap), None)
            assert state(gen) == state(ref)
        assert None in runs  # sample_sts restarted

    def test_exhausted_leaves_same_stream(self, monkeypatch):
        gen, ref = SeededRng(3, 3).generator(), SeededRng(3, 3).generator()
        monkeypatch.setattr(sampling, "MAX_RESTARTS", 4)
        monkeypatch.setattr(sampling, "ITERATION_FACTOR", 0)
        with pytest.raises(SamplerExhausted, match="exceeded 4 restarts"):
            sample_sts(31, gen)
        for _ in range(4):
            assert reference_hill_climb(31, ref, 0) is None
        assert state(gen) == state(ref)

    @pytest.mark.parametrize("n,d,k,seed", [
        pytest.param(111, 2, 5, 1, id="1"),
        pytest.param(111, 2, 5, 2, id="2"),
        pytest.param(111, 2, 5, 3, id="3"),
        pytest.param(2000, 1, 8, 1, id="n2000-d1-k8"),
        pytest.param(63, 2, 21, 1, id="n63-d2-k21"),  # many blocks merge
        pytest.param(8, 3, 2, 1, id="n8-d3-k2"),  # both systems equal: every block merges
    ])
    def test_steiner_complex_n111(self, n, d, k, seed):
        gen, ref = SeededRng(seed).generator(), SeededRng(seed).generator()
        X = steiner_complex(n, d, k, gen)
        faces = set()
        for _ in range(k):
            faces |= reference_draw(n, d, ref)
        assert X.d_faces == complex_from_dfaces(n, d, faces).d_faces
        assert state(gen) == state(ref)


class TestGreedy:
    def test_d1_delegates_to_matching(self):
        s = sample_greedy(8, 1, SeededRng(4))
        assert s.shape[1] == 2 and len(block_set(s)) == 4

    def test_small_triple_system(self):
        s = sample_greedy(7, 2, SeededRng(6))
        assert len(block_set(s)) == 7

    def test_quadruple_system(self):
        s = sample_greedy(8, 3, SeededRng(7))
        assert len(block_set(s)) == comb(8, 3) // 4

    @pytest.mark.parametrize("n,d", [(8, 3), (7, 2), (9, 2)])
    def test_systems_and_stream_equal_reference(self, n, d):
        for seed in range(20 if d == 3 else 5):
            gen, ref = SeededRng(seed, 3).generator(), SeededRng(seed, 3).generator()
            assert block_set(sample_greedy(n, d, gen)) == reference_greedy(n, d, ref)
            assert state(gen) == state(ref)

    def test_restart_cap_surfaces_typed_failure(self, monkeypatch):
        monkeypatch.setattr(sampling, "MAX_RESTARTS", 0)
        with pytest.raises(SamplerExhausted):
            sample_greedy(9, 2, SeededRng(8))


class TestSteinerComplex:
    def test_degree_bounds_d1(self):
        X = steiner_complex(4, 1, 2, SeededRng(9))
        assert {X.degree(f) for f in X.facet_iter()} <= {1, 2}

    def test_degree_bounds_d2(self):
        X = steiner_complex(7, 2, 3, SeededRng(10))
        assert 1 <= min_degree(X) and max_degree(X) <= 3

    def test_regular_iff_disjoint_systems(self):
        from steinerlab import complex_from_dfaces

        gen = SeededRng(12).generator()
        seen_both = set()
        for _ in range(30):
            systems = [block_set(sample_matching(6, gen)) for _ in range(2)]
            X = complex_from_dfaces(6, 1, systems[0] | systems[1])
            disjoint = not (systems[0] & systems[1])
            regular = all(X.degree(f) == 2 for f in X.facet_iter())
            assert disjoint == regular
            seen_both.add(disjoint)
        assert seen_both == {True, False}

    def test_determinism(self):
        a = steiner_complex(9, 2, 3, SeededRng(77, 5))
        b = steiner_complex(9, 2, 3, SeededRng(77, 5))
        c = steiner_complex(9, 2, 3, SeededRng(77, 6))
        assert a.d_faces == b.d_faces
        assert a.d_faces != c.d_faces

    def test_k_zero_rejected(self):
        with pytest.raises(ValueError):
            steiner_complex(6, 1, 0, SeededRng(0))


class TestInclusionFrequency:
    def test_d1_n2_always_included(self):
        rep = inclusion_frequency_test(2, 1, 1000, SeededRng(13))
        assert rep.empirical == 1.0 and rep.passed

    def test_d1_matches_1_over_n_minus_1(self):
        rep = inclusion_frequency_test(10, 1, 20000, SeededRng(14))
        assert rep.expected == pytest.approx(1 / 9)
        assert rep.passed

    def test_d2_report_only(self):
        rep = inclusion_frequency_test(7, 2, 1000, SeededRng(15))
        assert rep.expected is None and rep.passed is None
        assert 0.0 <= rep.empirical <= 1.0

    def test_trials_floor(self):
        with pytest.raises(ValueError):
            inclusion_frequency_test(10, 1, 10, SeededRng(0))

"""Randomized generation of Steiner systems and random Steiner complexes.

An (n, d)-Steiner system is a set of (d+1)-subsets of [n] covering every
d-subset exactly once; d = 1 gives perfect matchings, d = 2 Steiner triple
systems.  A sampled system has a complex's face format (`complexes`): a
read-only int64 array, one strictly increasing row per block, rows in
lexicographic order, checked as an exact cover over the ranks of its
d-subsets.  A random Steiner complex is the union of k independent systems
on top of the complete (d-1)-skeleton.

Matchings are sampled exactly uniformly.  Triple systems come from Stinson-
style hill-climbing and a uniform vertex relabeling: a permutation-invariant
law, not uniform on labelled systems (STS(13)'s cyclic class, 6/45 of them,
is drawn about 0.09 of the time).  d >= 3 falls back to a restarting random
greedy and is best effort only.  Both draw their bounded integers from
blocks of raw Philox words by numpy's own rule and replay the words they
used (`_bounded_draws`), so their systems and the generator they leave are
those of one `Generator.integers` call per draw.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from contextlib import contextmanager
from dataclasses import dataclass
from math import comb
from itertools import combinations
from typing import Callable, Iterator

import numpy as np

from .complexes import Face, PureComplex, facet_ranks

__all__ = [
    "SeededRng",
    "SamplerExhausted",
    "is_admissible",
    "sample_matching",
    "sample_sts",
    "sample_greedy",
    "steiner_complex",
]

_MASK64 = (1 << 64) - 1
_WORD = 1 << 32
_WORD_MASK = _WORD - 1
# raw 32-bit words per refill in _bounded_draws.  An STS(111) run uses 30 to
# 60 blocks; a much larger block made short runs (STS(7) uses about 30 words)
# slower, as each run draws a whole block before it replays what it used
_DRAW_BLOCK = 1024
# attempts of the triple-system and greedy samplers before SamplerExhausted
MAX_RESTARTS = 100
# a hill-climbing attempt on [n] gives up after ITERATION_FACTOR * n^2 steps
ITERATION_FACTOR = 50


class SamplerExhausted(RuntimeError):
    """Raised when a sampler fails to produce a valid system within its restart cap."""


@dataclass(frozen=True)
class SeededRng:
    """Counter-based random stream addressed by (master_seed, stream_id).

    Identical pairs give bit-identical streams; distinct stream ids give
    statistically independent streams (Philox keyed by the pair), so ensemble
    trials can run in any order or in parallel.
    """

    master_seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        key = np.array(
            [self.master_seed & _MASK64, self.stream_id & _MASK64], dtype=np.uint64
        )
        return np.random.Generator(np.random.Philox(key=key))

    def substream(self, *parts: int) -> "SeededRng":
        """Derive a stream id by mixing integer coordinates (order-sensitive)."""
        h = self.stream_id
        for part in parts:
            h = (h ^ (part & _MASK64)) * 0x9E3779B97F4A7C15 & _MASK64
            h ^= h >> 29
        return SeededRng(self.master_seed, h)


def _exact_cover(n: int, d: int, blocks: np.ndarray) -> np.ndarray:
    """Blocks, strictly increasing rows in [1, n], as a read-only system in lexicographic order.

    Raises ValueError unless there are C(n, d)/(d+1) rows whose C(n, d)
    d-subsets have distinct ranks, that is, cover every d-subset once.  At
    d = 1 a vertex is its own key, one more than its rank, so a matching
    takes none of `facet_ranks`' numpy calls, whose fixed cost would be most
    of its check.
    """
    expected = comb(n, d) // (d + 1)
    if len(blocks) != expected:
        raise ValueError(f"expected {expected} blocks, got {len(blocks)}")
    covers = np.bincount((blocks if d == 1 else facet_ranks(blocks, n)).ravel())
    if covers.max() > 1:
        raise ValueError(f"{np.count_nonzero(covers > 1)} d-subsets covered more than once")
    system = blocks[np.lexsort(blocks.T[::-1])]
    system.flags.writeable = False
    return system


def is_admissible(n: int, d: int) -> bool:
    """Divisibility conditions necessary for an (n, d)-Steiner system.

    Requires (d-j) | C(n-j-1, d-j-1) for 0 <= j <= d-1 together with the
    block-count condition (d+1) | C(n, d); the latter also forces n even
    when d = 1.
    """
    if d < 1 or n < d + 1:
        return False
    if comb(n, d) % (d + 1) != 0:
        return False
    for j in range(d):
        if comb(n - j - 1, d - j - 1) % (d - j) != 0:
            return False
    return True


def _require_admissible(n: int, d: int) -> None:
    if not is_admissible(n, d):
        raise ValueError(f"n={n} is not {d}-admissible")


@contextmanager
def _bounded_draws(gen: np.random.Generator) -> Iterator[Callable[[int], int]]:
    """Yield `below(b)`, equal draw for draw to `int(gen.integers(0, b))`.

    For 1 < b <= 2**32 numpy turns 32-bit words of the bit generator into an
    integer below b by Lemire's rule (ACM TOMACS 2019): m = word * b, drawn
    again while the low 32 bits of m fall below (2**32 - b) % b, then m >> 32;
    b = 1 gives 0 without a draw.  `below` applies the same rule to a list of
    raw words taken in blocks, which costs a fraction of a scalar `integers`
    call.  On exit, an exception included, the generator goes back to its
    entry state and draws exactly the words `below` used, so the stream after
    the block reads on as scalar calls would have left it.
    """
    entry = gen.bit_generator.state
    words: list[int] = []
    fetched = 0

    def refill() -> None:
        nonlocal words, fetched
        words = gen.integers(0, _WORD, size=_DRAW_BLOCK, dtype=np.uint32).tolist()
        words.reverse()  # pop() then serves the block in stream order
        fetched += _DRAW_BLOCK

    def below(b: int) -> int:
        if not 1 < b <= _WORD:
            if b == 1:
                return 0
            raise ValueError(f"bounded draw needs 1 <= b <= 2**32, got {b}")
        if not words:
            refill()
        m = words.pop() * b
        if m & _WORD_MASK >= b:  # the threshold is below b: most words skip the modulo
            return m >> 32
        threshold = (_WORD - b) % b
        while m & _WORD_MASK < threshold:
            if not words:
                refill()
            m = words.pop() * b
        return m >> 32

    try:
        yield below
    finally:
        gen.bit_generator.state = entry
        gen.integers(0, _WORD, size=fetched - len(words), dtype=np.uint32)


def _restarting(
    n: int, d: int, gen: np.random.Generator, attempt: Callable[[], list[Face] | None], name: str
) -> np.ndarray:
    """Up to MAX_RESTARTS calls of `attempt`; its first block list, uniformly relabeled and checked."""
    for _ in range(MAX_RESTARTS):
        blocks = attempt()
        if blocks is not None:
            perm = np.append(0, gen.permutation(n) + 1)  # perm[v]: the new label of vertex v
            return _exact_cover(n, d, np.sort(perm[np.array(blocks)], axis=1))
    raise SamplerExhausted(f"{name} exceeded {MAX_RESTARTS} restarts")


def sample_matching(n: int, rng: SeededRng | np.random.Generator) -> np.ndarray:
    """Uniformly random perfect matching on [n] (n even)."""
    if n % 2 != 0 or n < 2:
        raise ValueError(f"perfect matching needs even n >= 2, got {n}")
    gen = rng.generator() if isinstance(rng, SeededRng) else rng
    return _exact_cover(n, 1, np.sort((gen.permutation(n) + 1).reshape(-1, 2), axis=1))


def _hill_climb_triples(n: int, gen: np.random.Generator, max_iterations: int) -> list[Face] | None:
    """One Stinson hill-climbing run; returns its blocks, once each, or None on cap.

    Its bounded integers come from `_bounded_draws`, so the run and the
    generator it leaves equal those of one `gen.integers(0, b)` per draw.
    live[x] is the sorted list of x's uncovered partners, and block_of maps
    each covered pair a < b, at a (n + 1) + b, to its block (None if live).

    A step covers the live pairs xy and xz with the block {x, y, z}.  If yz
    is covered, by {y, z, w}, that block is evicted: w != x because xy is
    live, so yz stays covered and only yw and zw go live.  y and z leave
    live[x] by the indices they were drawn at, the larger first: the
    eviction touches only the lists of y, z and w, so those indices still
    hold.
    """
    key = n + 1
    block_of: list[Face | None] = [None] * (key * key)
    live = [[y for y in range(1, n + 1) if y != x] for x in range(n + 1)]
    covered, target = 0, comb(n, 2)

    with _bounded_draws(gen) as below:
        for _ in range(max_iterations):
            if covered == target:
                return list(set(filter(None, block_of)))
            # pick a point with uncovered pairs, then two distinct live partners
            while True:
                x = below(n) + 1
                partners = live[x]
                if partners:
                    break
            i = below(len(partners))
            j = below(len(partners) - 1)
            if j >= i:
                i, j = j + 1, i
            y, z = partners[j], partners[i]  # j < i, so y < z
            del partners[i], partners[j]

            old = block_of[y * key + z]
            if old is None:
                covered += 3
                del live[y][bisect_left(live[y], z)]
                del live[z][bisect_left(live[z], y)]
            else:
                w = sum(old) - y - z
                block_of[y * key + w if y < w else w * key + y] = None
                block_of[z * key + w if z < w else w * key + z] = None
                insort(live[y], w)
                insort(live[z], w)
                insort(live[w], y)
                insort(live[w], z)
            a, b, c = block = (x, y, z) if x < y else (y, x, z) if x < z else (y, z, x)
            block_of[a * key + b] = block_of[a * key + c] = block_of[b * key + c] = block
            del live[y][bisect_left(live[y], x)]
            del live[z][bisect_left(live[z], x)]

    return None


def sample_sts(n: int, rng: SeededRng | np.random.Generator) -> np.ndarray:
    """Random Steiner triple system on [n] (n = 1 or 3 mod 6).

    Hill-climbing resolves one uncovered pair per step, evicting any
    conflicting block, and never decreases the covered-pair count; a uniform
    vertex relabeling afterwards makes the law permutation invariant.
    """
    _require_admissible(n, 2)
    gen = rng.generator() if isinstance(rng, SeededRng) else rng
    cap = ITERATION_FACTOR * n * n
    return _restarting(n, 2, gen, lambda: _hill_climb_triples(n, gen, cap), f"sample_sts(n={n})")


def _greedy_once(n: int, d: int, gen: np.random.Generator) -> list[Face] | None:
    uncovered = set(combinations(range(1, n + 1), d))
    blocks: list[Face] = []
    pool = sorted(uncovered)
    with _bounded_draws(gen) as below:
        while uncovered:
            # draw a random still-uncovered d-subset
            while True:
                sigma = pool[below(len(pool))]
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
            v = candidates[below(len(candidates))]
            block = tuple(sorted(sigma + (v,)))
            blocks.append(block)
            for sub in combinations(block, d):
                uncovered.discard(sub)
    return blocks


def sample_greedy(n: int, d: int, rng: SeededRng | np.random.Generator) -> np.ndarray:
    """Best-effort random greedy Steiner system, restarting on dead ends.

    Delegates to the exact matching sampler for d = 1.  For d >= 3 success
    at a given admissible n is not guaranteed; SamplerExhausted signals the
    caller to retry with another stream or reduce scope.
    """
    _require_admissible(n, d)
    gen = rng.generator() if isinstance(rng, SeededRng) else rng
    if d == 1:
        return sample_matching(n, gen)
    return _restarting(n, d, gen, lambda: _greedy_once(n, d, gen), f"sample_greedy(n={n}, d={d})")


def sample_system(n: int, d: int, rng: SeededRng | np.random.Generator) -> np.ndarray:
    """Dispatch to the strongest sampler available for the dimension."""
    if d == 1:
        return sample_matching(n, rng)
    if d == 2:
        return sample_sts(n, rng)
    return sample_greedy(n, d, rng)


def steiner_complex(n: int, d: int, k: int, rng: SeededRng | np.random.Generator) -> PureComplex:
    """Union of k independent (n, d)-Steiner systems as a pure d-complex.

    Duplicate blocks across systems collapse, so every (d-1)-face ends up
    with degree between 1 and k: the stacked rows are lexsorted and a row
    equal to the one before it dropped.
    """
    if k < 1:
        raise ValueError("need k >= 1 systems")
    _require_admissible(n, d)
    gen = rng.generator() if isinstance(rng, SeededRng) else rng
    blocks = np.concatenate([sample_system(n, d, gen) for _ in range(k)])
    blocks = blocks[np.lexsort(blocks.T[::-1])]
    return PureComplex(n, d, blocks[np.append(True, (blocks[1:] != blocks[:-1]).any(axis=1))])

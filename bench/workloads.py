"""The benchmark's workloads: inputs from a seed, one timed item, output checks.

Every workload is a closed loop of items.  `make_inputs` runs during set-up
and returns plain inputs; `run_item` is the only timed call and reaches the
program through module attributes (so the tracer's wrappers are seen);
`check` re-derives what it can by an independent route and returns a list of
problems; `digest` fingerprints the science output, so a traced replay can be
compared with the untraced run.  README.md gives the reason for each
workload and the layer metrics each one should move.
"""

from __future__ import annotations

import csv
import hashlib
import io
import random
from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from math import comb, isfinite, sqrt
from pathlib import Path
from typing import Any, Callable

import numpy as np
from steinerlab import arboreal, complexes, experiments, limitlaw, sampling, spectra, trees

# centres re-tested with is_arboreal_ball per converge row, evenly spaced
CENTRE_SAMPLE = 200
# a sampled fraction may miss the row's by this many binomial sigmas (plus 1/s)
CENTRE_SIGMAS = 5.0
ORACLE_TRIES = 2000


@dataclass(frozen=True)
class Workload:
    name: str
    params: dict
    smoke_params: dict
    min_item_s: float  # lower bound on one item's time; sizes the input list
    reference: str  # the reference.py kernel that reads host speed for this workload
    make_inputs: Callable[[random.Random, int, dict], list]
    run_item: Callable[[Any, dict, Path], Any]
    check: Callable[[Any, Any, dict], list[str]]
    digest: Callable[[Any], str]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# -- converge ------------------------------------------------------------------
def _converge_inputs(rng: random.Random, count: int, p: dict) -> list:
    return [
        experiments.ExperimentConfig(
            d=p["d"], k=p["k"], n_values=(p["n"],), trials=1, radii=tuple(p["radii"]),
            seed=rng.getrandbits(63), lmax=p["lmax"], deterministic=True,
        )
        for _ in range(count)
    ]


def _converge_item(config, p: dict, workdir: Path):
    result = experiments.run_converge(config)
    return result, experiments.converge_csv(result, config)


def _converge_check(config, out, p: dict) -> list[str]:
    result, text = out
    d, k, n = p["d"], p["k"], p["n"]
    rows = list(csv.DictReader(io.StringIO("".join(
        line + "\n" for line in text.splitlines() if not line.startswith("#")))))
    if result.failures or len(rows) != 1:
        return [f"expected one row, got {len(rows)} rows and failures {result.failures}"]
    row = rows[0]
    problems = []
    X = sampling.steiner_complex(n, d, k, config.stream(n, 0))
    m = comb(n, d)
    if float(row["moment_0"]) != 1.0:
        problems.append(f"moment_0 = {row['moment_0']}")
    trace_mean = (d + 1) * X.num_dfaces / m  # tr L / m from the face count
    if abs(float(row["moment_1"]) - trace_mean) > 1e-9 * trace_mean:
        problems.append(f"moment_1 = {row['moment_1']}, tr L / m = {trace_mean!r}")
    rate = float(row["growth_rate"])
    if not (isfinite(rate) and rate > 0):
        problems.append(f"growth_rate = {rate!r}")
    faces = list(X.facet_iter())
    sample = [faces[i * len(faces) // CENTRE_SAMPLE] for i in range(min(CENTRE_SAMPLE, len(faces)))]
    for r in config.radii:
        frac = float(row[f"frac_r{r}"])
        hits = frac * m
        if abs(hits - round(hits)) > 1e-6:
            problems.append(f"frac_r{r} = {frac!r} is not a count over {m} faces")
        sampled = sum(arboreal.is_arboreal_ball(X, face, k, r) for face in sample) / len(sample)
        tol = CENTRE_SIGMAS * sqrt(frac * (1 - frac) / len(sample)) + 1 / len(sample)
        if abs(sampled - frac) > tol:
            problems.append(f"frac_r{r} = {frac!r} but {sampled!r} on {len(sample)} sampled centres")
    return problems


def _converge_digest(out) -> str:
    return _sha(out[1])


# -- verify-exact ----------------------------------------------------------------
@dataclass(frozen=True)
class VerifyInput:
    oracle_complexes: tuple
    walk_complex: Any
    law: tuple[int, int]


def _complex_with(rng: random.Random, n: int, d: int, k: int, faces: int):
    """A sampled complex with exactly `faces` d-faces, so the oracle's work is fixed."""
    for _ in range(ORACLE_TRIES):
        X = sampling.steiner_complex(n, d, k, sampling.SeededRng(rng.getrandbits(63)))
        if X.num_dfaces == faces:
            return X
    raise RuntimeError(f"no ({d}, {k}, {n}) complex with {faces} d-faces in {ORACLE_TRIES} draws")


def _verify_inputs(rng: random.Random, count: int, p: dict) -> list:
    inputs = []
    for i in range(count):
        oracle = tuple(_complex_with(rng, *spec) for spec in p["oracle"])
        n, d, k = p["walk_complex"]
        walk = sampling.steiner_complex(n, d, k, sampling.SeededRng(rng.getrandbits(63)))
        inputs.append(VerifyInput(oracle, walk, tuple(p["laws"][i % len(p["laws"])])))
    return inputs


def _verify_item(inp: VerifyInput, p: dict, workdir: Path):
    counts = [trees.weighted_tree_count(X, oracle=True) for X in inp.oracle_complexes]
    lengths = range(1, p["max_length"] + 1)
    traces = [spectra.signed_trace(inp.walk_complex, ell) for ell in lengths]
    d, k = inp.law
    walks = [arboreal.signed_walk_count(d, k, ell) for ell in lengths]
    constants = (
        limitlaw.growth_constant_closed(d, k),
        limitlaw.growth_constant_quadrature(d, k),
        limitlaw.growth_constant_chebyshev(d, k),
    )
    return counts, traces, walks, constants


def _verify_check(inp: VerifyInput, out, p: dict) -> list[str]:
    counts, traces, walks, constants = out
    problems = []
    for X, count in zip(inp.oracle_complexes, counts):
        # weighted_tree_count raises on a log-count disagreement; a complex may have no trees
        if count.exact_count is None or (count.exact_count == 0) != count.zero_flag:
            problems.append(f"{X!r}: oracle count {count.exact_count}, zero flag {count.zero_flag}")
    A = spectra.adjacency_matrix(inp.walk_complex).astype(np.int64)
    power = np.eye(A.shape[0], dtype=np.int64)
    for ell, value in enumerate(traces, start=1):
        power = power @ A
        if value != int(np.trace(power)):
            problems.append(f"signed_trace({ell}) = {value}, tr A^{ell} = {int(np.trace(power))}")
    d, k = inp.law
    law = limitlaw.LimitLaw(d, k)
    for ell, value in enumerate(walks, start=1):
        moment = law.adjacency_moment(ell)
        if abs(value - moment) > 1e-6 * max(1.0, abs(moment)):
            problems.append(f"signed_walk_count({d}, {k}, {ell}) = {value}, law moment {moment!r}")
    closed = constants[0]
    if max(abs(c - closed) for c in constants) > 1e-7 * closed:
        problems.append(f"growth-constant routes disagree for ({d}, {k}): {constants}")
    return problems


def _verify_digest(out) -> str:
    counts, traces, walks, constants = out
    summary = [(c.exact_count, repr(c.log_count)) for c in counts]
    return _sha(repr((summary, traces, walks, [repr(c) for c in constants])))


# -- sample-io ---------------------------------------------------------------------
def _sample_inputs(rng: random.Random, count: int, p: dict) -> list:
    return [rng.getrandbits(63) for _ in range(count)]


def _sample_item(seed: int, p: dict, workdir: Path):
    X = sampling.steiner_complex(p["n"], p["d"], p["k"], sampling.SeededRng(seed))
    path = workdir / "complex.txt"
    complexes.write_complex(X, path)
    return X, complexes.read_complex(path), path


def _sample_check(seed: int, out, p: dict) -> list[str]:
    X, Y, _path = out
    d, k, n = p["d"], p["k"], p["n"]
    problems = []
    if Y != X:
        problems.append("read_complex(write_complex(X)) != X")
    degrees = Counter(facet for tau in X.d_faces for facet in combinations(tau, d))
    if len(degrees) != comb(n, d):
        problems.append(f"{comb(n, d) - len(degrees)} (d-1)-faces have degree 0")
    if degrees and max(degrees.values()) > k:
        problems.append(f"a (d-1)-face has degree {max(degrees.values())} > k = {k}")
    return problems


def _sample_digest(out) -> str:
    return hashlib.sha256(out[2].read_bytes()).hexdigest()


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "converge-d2-solve",
            params=dict(d=2, k=5, n=111, radii=[1], lmax=4),
            smoke_params=dict(d=2, k=5, n=15, radii=[1], lmax=4),
            min_item_s=5.0,
            reference="blas",
            make_inputs=_converge_inputs, run_item=_converge_item,
            check=_converge_check, digest=_converge_digest,
        ),
        Workload(
            "converge-d1-local",
            params=dict(d=1, k=8, n=2000, radii=[1, 2], lmax=4),
            smoke_params=dict(d=1, k=8, n=50, radii=[1, 2], lmax=4),
            min_item_s=1.0,
            reference="python",
            make_inputs=_converge_inputs, run_item=_converge_item,
            check=_converge_check, digest=_converge_digest,
        ),
        Workload(
            "verify-exact",
            # oracle specs are (n, d, k, d-faces); the face count fixes the subsets tried
            params=dict(oracle=[[7, 2, 4, 19], [10, 1, 4, 16]], walk_complex=[31, 2, 5],
                        max_length=6, laws=[[2, 5], [1, 8]]),
            smoke_params=dict(oracle=[[7, 2, 4, 17], [10, 1, 4, 15]], walk_complex=[9, 2, 3],
                              max_length=4, laws=[[2, 5], [1, 8]]),
            min_item_s=4.0,
            reference="python",
            make_inputs=_verify_inputs, run_item=_verify_item,
            check=_verify_check, digest=_verify_digest,
        ),
        Workload(
            "sample-io",
            params=dict(d=2, k=5, n=111),
            smoke_params=dict(d=2, k=5, n=15),
            min_item_s=0.25,
            reference="python",
            make_inputs=_sample_inputs, run_item=_sample_item,
            check=_sample_check, digest=_sample_digest,
        ),
    )
}

"""Ensemble experiments over random Steiner complexes.

Each trial samples one complex from a seed stream derived from
(master seed, n, trial index), so enlarging the n-grid or adding trials
never perturbs existing rows, and computes the per-complex convergence
statistics: normalized spanning-tree count, Laplacian spectral moments,
arboreal-neighborhood fractions, minimum degree and spectral floor.  A row
takes no full spectrum: the count and floor come from the Cholesky and
Lanczos route in `trees`, the moments from exact sparse traces of L.
Rows come back in deterministic (n, trial) order regardless of how the
trials were scheduled.
"""

from __future__ import annotations

import csv
import io
import json
import warnings
from dataclasses import dataclass
from datetime import datetime, timezone
from math import comb, exp, sqrt
from pathlib import Path

import numpy as np

from .arboreal import arboreal_fractions
from .complexes import PureComplex, write_complex
from .sampling import SamplerExhausted, SeededRng, is_admissible, steiner_complex
from .spectra import (
    adjacency_matrix,
    boundary_matrix,
    eigenvalues,
    moments,
    require_dense_fits,
    trivial_zero_count,
)
from .trees import require_tree_count_fits, tree_count_from_laplacian

__all__ = [
    "ExperimentConfig",
    "ConvergenceRow",
    "RowFailure",
    "ConvergenceResult",
    "GapRow",
    "GapReport",
    "run_converge",
    "run_gap_report",
    "converge_csv",
    "converge_json",
    "gap_csv",
]

CSV_SCHEMA = 1


def regularity_threshold(d: int) -> int:
    """Degree bound 4d^2 + d + 2 above which the spectral-gap regime is proven."""
    return 4 * d * d + d + 2


@dataclass(frozen=True)
class ExperimentConfig:
    """Shared knobs for ensemble runs.

    Every n must be d-admissible with its tree count's packed factor within
    usable memory, arboreal radii >= 1 need k >= 2, and the exact int64
    moment traces need ((d+1) k)^lmax below 2^63 ((d+1) k bounds the
    absolute row sums of L); all are checked here, before anything is
    sampled.
    """

    d: int
    k: int
    n_values: tuple[int, ...]
    trials: int
    radii: tuple[int, ...] = (1,)
    seed: int = 0
    lmax: int = 4
    deterministic: bool = False
    complex_dir: Path | None = None

    def __post_init__(self) -> None:
        if self.trials < 0:
            raise ValueError("trials must be >= 0")
        if self.lmax < 0:
            raise ValueError("lmax must be >= 0")
        if ((self.d + 1) * self.k) ** self.lmax >= 2**63:
            raise ValueError(
                f"lmax={self.lmax} is too large for exact int64 moments at d={self.d}, k={self.k}"
            )
        if any(r < 0 for r in self.radii):
            raise ValueError("radii must be >= 0")
        if self.k < 2 and any(r >= 1 for r in self.radii):
            raise ValueError("arboreal radii >= 1 need k >= 2")
        for n in self.n_values:
            if not is_admissible(n, self.d):
                raise ValueError(f"n={n} is not {self.d}-admissible")
            require_tree_count_fits(n, self.d)

    def stream(self, n: int, trial: int) -> SeededRng:
        return SeededRng(self.seed).substream(n, trial)


@dataclass(frozen=True)
class ConvergenceRow:
    n: int
    trial: int
    growth_rate: float
    min_degree: int
    spectral_floor: float
    fractions: dict[int, float]
    moments: tuple[float, ...]


@dataclass(frozen=True)
class RowFailure:
    n: int
    trial: int
    reason: str


@dataclass(frozen=True)
class ConvergenceResult:
    rows: tuple[ConvergenceRow, ...]
    failures: tuple[RowFailure, ...] = ()

    def mean_growth_rate(self, n: int) -> float:
        values = [row.growth_rate for row in self.rows if row.n == n]
        return float(np.mean(values)) if values else float("nan")

    def mean_fraction(self, n: int, r: int) -> float:
        values = [row.fractions[r] for row in self.rows if row.n == n]
        return float(np.mean(values)) if values else float("nan")

    def mean_moment(self, n: int, ell: int) -> float:
        values = [row.moments[ell] for row in self.rows if row.n == n]
        return float(np.mean(values)) if values else float("nan")


def _converge_row(config: ExperimentConfig, X: PureComplex, n: int, trial: int) -> ConvergenceRow:
    B = boundary_matrix(X)
    L = (B @ B.T).tocsr()
    count = tree_count_from_laplacian(X, L)
    return ConvergenceRow(
        n=n,
        trial=trial,
        growth_rate=exp(count.log_count / comb(X.n, X.d)),
        min_degree=X.min_degree(),
        spectral_floor=count.floor,
        fractions=dict(zip(config.radii, arboreal_fractions(X, config.k, config.radii, B))),
        moments=tuple(moments(L, config.lmax)),
    )


def run_converge(config: ExperimentConfig) -> ConvergenceResult:
    """Sample and summarize trials for every (n, trial) pair, in order."""
    rows: list[ConvergenceRow] = []
    failures: list[RowFailure] = []
    if config.complex_dir is not None:
        config.complex_dir.mkdir(parents=True, exist_ok=True)
    for n in config.n_values:
        for trial in range(config.trials):
            try:
                X = steiner_complex(n, config.d, config.k, config.stream(n, trial))
            except SamplerExhausted as exc:
                failures.append(RowFailure(n=n, trial=trial, reason=str(exc)))
                continue
            if config.complex_dir is not None:
                write_complex(X, config.complex_dir / f"complex_n{n}_t{trial}.txt")
            rows.append(_converge_row(config, X, n, trial))
    return ConvergenceResult(rows=tuple(rows), failures=tuple(failures))


@dataclass(frozen=True)
class GapRow:
    n: int
    trial: int
    top_nontrivial: float
    passed: bool


@dataclass(frozen=True)
class GapReport:
    """Non-binding per-trial check of the adjacency spectral-gap threshold."""

    threshold_base: float
    epsilon: float
    rows: tuple[GapRow, ...]

    @property
    def pass_fraction(self) -> float:
        if not self.rows:
            return float("nan")
        return sum(row.passed for row in self.rows) / len(self.rows)


def run_gap_report(config: ExperimentConfig, epsilon: float = 0.5) -> GapReport:
    """Largest non-trivial adjacency eigenvalue per trial vs 2d sqrt(k-1) + eps.

    The statistic takes the (t+1)-th largest adjacency eigenvalue where t is
    the trivial-zero dimension; for k-regular complexes the top t eigenvalues
    are exactly the trivial ones.  Probabilistic, so reported, not asserted.
    """
    for n in config.n_values:
        require_dense_fits(comb(n, config.d))  # the dense eigensolve, before sampling
    if config.k <= regularity_threshold(config.d):
        warnings.warn(
            f"k={config.k} is at or below the proven regime threshold "
            f"{regularity_threshold(config.d)} for d={config.d}; the gap "
            "statistic is exploratory here",
            RuntimeWarning,
            stacklevel=2,
        )
    base = 2.0 * config.d * sqrt(config.k - 1)
    rows: list[GapRow] = []
    for n in config.n_values:
        for trial in range(config.trials):
            X = steiner_complex(n, config.d, config.k, config.stream(n, trial))
            eigs = eigenvalues(adjacency_matrix(X))
            tzc = trivial_zero_count(X)
            descending = eigs[::-1]
            top = float(descending[tzc]) if tzc < len(descending) else float("nan")
            rows.append(GapRow(n=n, trial=trial, top_nontrivial=top, passed=top <= base + epsilon))
    return GapReport(threshold_base=base, epsilon=epsilon, rows=tuple(rows))


def _csv_header(config: ExperimentConfig) -> list[str]:
    lines = [f"# schema={CSV_SCHEMA}"]
    if not config.deterministic:
        lines.append(f"# generated={datetime.now(timezone.utc).isoformat()}")
    return lines


def converge_csv(result: ConvergenceResult, config: ExperimentConfig) -> str:
    """Render rows as CSV; byte-stable under config.deterministic."""
    buf = io.StringIO()
    for line in _csv_header(config):
        buf.write(line + "\n")
    frac_cols = [f"frac_r{r}" for r in config.radii]
    mom_cols = [f"moment_{ell}" for ell in range(config.lmax + 1)]
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["n", "trial", "growth_rate", "min_degree", "spectral_floor", *frac_cols, *mom_cols])
    for row in result.rows:
        writer.writerow(
            [
                row.n,
                row.trial,
                repr(row.growth_rate),
                row.min_degree,
                repr(row.spectral_floor),
                *[repr(row.fractions[r]) for r in config.radii],
                *[repr(m) for m in row.moments],
            ]
        )
    return buf.getvalue()


def converge_json(result: ConvergenceResult, config: ExperimentConfig) -> str:
    payload = {
        "schema": CSV_SCHEMA,
        "rows": [
            {
                "n": row.n,
                "trial": row.trial,
                "growth_rate": row.growth_rate,
                "min_degree": row.min_degree,
                "spectral_floor": row.spectral_floor,
                "fractions": {str(r): v for r, v in row.fractions.items()},
                "moments": list(row.moments),
            }
            for row in result.rows
        ],
        "failures": [
            {"n": f.n, "trial": f.trial, "reason": f.reason} for f in result.failures
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def gap_csv(report: GapReport, config: ExperimentConfig) -> str:
    buf = io.StringIO()
    for line in _csv_header(config):
        buf.write(line + "\n")
    buf.write(f"# threshold={report.threshold_base!r} epsilon={report.epsilon!r}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["n", "trial", "top_nontrivial", "passed"])
    for row in report.rows:
        writer.writerow([row.n, row.trial, repr(row.top_nontrivial), int(row.passed)])
    return buf.getvalue()

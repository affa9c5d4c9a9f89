"""Ensemble experiments over random Steiner complexes.

Each trial samples one complex from a seed stream derived from
(master seed, n, trial index), so enlarging the n-grid or adding trials
never perturbs existing rows, and computes the per-complex convergence
statistics: normalized spanning-tree count, Laplacian spectral moments,
arboreal-neighborhood fractions, minimum degree and spectral floor.  A row
takes no full spectrum: the count and floor come from the Cholesky
factor and the restricted eigensolve in `trees`, the moments from exact
sparse traces of L, and the gap statistic is minus the smallest eigenvalue
of -A on ker delta^T (`spectra.restricted_extreme`, dense up to its cap,
Lanczos above).  Every stage reads the L and A the complex owns
(`PureComplex.laplacian`, `PureComplex.adjacency`), built once per trial.
`ExperimentConfig.run` is the one loop over (n, trial): a trial whose
sampler gives up (`SamplerExhausted`) or whose solve fails
(`spectra.NumericalFailure`) is recorded as a `RowFailure` and the run goes
on.  Rows come back in deterministic (n, trial) order regardless of how the
trials were scheduled.
"""

from __future__ import annotations

import csv
import io
import json
import warnings
from collections.abc import Callable, Iterable, Sequence
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from math import comb, exp, sqrt
from pathlib import Path
from typing import TypeVar

from .arboreal import arboreal_fractions
from .complexes import PureComplex, write_complex
from .sampling import SamplerExhausted, SeededRng, is_admissible, steiner_complex
from .spectra import (
    NumericalFailure,
    dense_extreme_bytes,
    moments,
    power_width,
    require_memory,
    restricted_extreme,
)
from .trees import require_tree_count_fits, weighted_tree_count

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
    "csv_table",
]

CSV_SCHEMA = 1
Row = TypeVar("Row")


def regularity_threshold(d: int) -> int:
    """Degree bound 4d^2 + d + 2 above which the spectral-gap regime is proven."""
    return 4 * d * d + d + 2


@dataclass(frozen=True)
class ExperimentConfig:
    """Shared knobs for ensemble runs.

    Every n must be d-admissible, k >= 1 (k >= 2 with an arboreal radius
    >= 1), the n values and the radii distinct, and the exact moment
    traces need a fixed `power_width((d+1) k, lmax)` ((d+1) k bounds L's
    absolute row sums).  Memory is checked by each run.
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
        if self.k < 1:
            raise ValueError("need k >= 1 systems")
        if self.lmax < 0:
            raise ValueError("lmax must be >= 0")
        if power_width((self.d + 1) * self.k, self.lmax) == object:
            raise ValueError(
                f"lmax={self.lmax} is too large for exact int64 moments at d={self.d}, k={self.k}"
            )
        if any(r < 0 for r in self.radii):
            raise ValueError("radii must be >= 0")
        for name, values in (("radii", self.radii), ("n values", self.n_values)):
            repeated = sorted({v for v in values if values.count(v) > 1})
            if repeated:
                raise ValueError(f"{name} must be distinct; repeated: {', '.join(map(str, repeated))}")
        if self.k < 2 and any(r >= 1 for r in self.radii):
            raise ValueError("arboreal radii >= 1 need k >= 2")
        for n in self.n_values:
            if not is_admissible(n, self.d):
                raise ValueError(f"n={n} is not {self.d}-admissible")

    def stream(self, n: int, trial: int) -> SeededRng:
        return SeededRng(self.seed).substream(n, trial)

    def draw(self, n: int, trial: int) -> PureComplex:
        """Trial (n, trial) from `stream(n, trial)`, written into complex_dir (which must exist) when set."""
        X = steiner_complex(n, self.d, self.k, self.stream(n, trial))
        if self.complex_dir is not None:
            write_complex(X, self.complex_dir / f"complex_n{n}_t{trial}.txt")
        return X

    def run(self, row: Callable[[PureComplex, int, int], Row]) -> tuple[tuple[Row, ...], tuple[RowFailure, ...]]:
        """(rows, failures): `row(X, n, trial)` of each trial in (n, trial) order, complex_dir made first.

        A trial whose sampler gives up or whose solve fails is a `RowFailure` with the error's text.
        """
        if self.complex_dir is not None:
            self.complex_dir.mkdir(parents=True, exist_ok=True)
        rows, failures = [], []
        for n in self.n_values:
            for trial in range(self.trials):
                try:
                    rows.append(row(self.draw(n, trial), n, trial))
                except (SamplerExhausted, NumericalFailure) as exc:
                    failures.append(RowFailure(n=n, trial=trial, reason=str(exc)))
        return tuple(rows), tuple(failures)


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


def _converge_row(config: ExperimentConfig, X: PureComplex, n: int, trial: int) -> ConvergenceRow:
    count = weighted_tree_count(X)
    return ConvergenceRow(
        n=n,
        trial=trial,
        growth_rate=exp(count.log_count / comb(X.n, X.d)),
        min_degree=int(X.laplacian.diagonal().min()),  # the diagonal of L is the degree
        spectral_floor=count.floor,
        fractions=dict(zip(config.radii, arboreal_fractions(X, config.k, config.radii))),
        moments=tuple(moments(X.laplacian, config.lmax)),
    )


def run_converge(config: ExperimentConfig) -> ConvergenceResult:
    """Sample and summarize trials for every (n, trial) pair, in order, once every n's count fits."""
    for n in config.n_values:
        require_tree_count_fits(n, config.d)
    return ConvergenceResult(*config.run(lambda X, n, trial: _converge_row(config, X, n, trial)))


@dataclass(frozen=True)
class GapRow:
    n: int
    trial: int
    top_nontrivial: float
    passed: bool


@dataclass(frozen=True)
class GapReport:
    """Non-binding per-trial check of the adjacency spectral-gap threshold.

    failures are the trials whose sampler gave up or whose solve failed
    (`ExperimentConfig.run`).
    """

    threshold_base: float
    epsilon: float
    rows: tuple[GapRow, ...]
    failures: tuple[RowFailure, ...] = ()

    @property
    def pass_fraction(self) -> float:
        if not self.rows:
            return float("nan")
        return sum(row.passed for row in self.rows) / len(self.rows)


def run_gap_report(config: ExperimentConfig, epsilon: float) -> GapReport:
    """Largest non-trivial adjacency eigenvalue per trial vs 2d sqrt(k-1) + eps.

    The statistic, the top of A on ker delta^T, is minus the smallest
    eigenvalue there of -A (`spectra.restricted_extreme`).  On a k-regular
    complex it is the (t+1)-th largest eigenvalue of A, t = C(n-1, d-1);
    merged duplicate blocks break k-regularity.  Probabilistic, so reported,
    not asserted.  Before anything is sampled each n is checked against
    usable memory for what a row holds, m = C(n, d): 16 bytes (value and
    index) an entry of B (at most k a row), of L, A and the solve's -A
    (d k + 1 a row each) and of delta (d a row), and 32 vectors of order m,
    a conservative bound: the Lanczos recurrence holds three, the matvec a
    few temporaries, and T's coefficients at most 20 at the step cap of
    10 m; up to `spectra.DENSE_EXTREME_MAX` rows the dense solve adds five
    m x m arrays (`spectra.dense_extreme_bytes`), 10 MB at the cap.  A trial
    whose sampler gives up or whose solve fails is a failure, not a row.
    """
    d, k = config.d, config.k
    for n in config.n_values:
        m = comb(n, d)
        need = 8 * m * (2 * (k + 3 * (d * k + 1) + d) + 32) + dense_extreme_bytes(m)
        require_memory(need, f"a gap row at n={n}")
    if k <= regularity_threshold(d):
        warnings.warn(f"k={k} is at or below the proven regime threshold {regularity_threshold(d)} "
                      f"for d={d}; the gap statistic is exploratory here", RuntimeWarning, stacklevel=2)
    base = 2.0 * d * sqrt(k - 1)

    def gap_row(X: PureComplex, n: int, trial: int) -> GapRow:
        top = -restricted_extreme(-X.adjacency, n, d)
        return GapRow(n=n, trial=trial, top_nontrivial=top, passed=top <= base + epsilon)

    return GapReport(base, epsilon, *config.run(gap_row))


def csv_table(columns: Sequence[str], rows: Iterable[Sequence], comments: Sequence[str] = ()) -> str:
    """CSV text: the comment lines as given, a header row of `columns`, then `rows`."""
    buf = io.StringIO()
    buf.writelines(f"{line}\n" for line in comments)
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)
    return buf.getvalue()


def _csv_header(config: ExperimentConfig) -> list[str]:
    lines = [f"# schema={CSV_SCHEMA}"]
    if not config.deterministic:
        lines.append(f"# generated={datetime.now(timezone.utc).isoformat()}")
    return lines


def converge_csv(result: ConvergenceResult, config: ExperimentConfig) -> str:
    """Render rows as CSV; byte-stable under config.deterministic."""
    frac_cols = [f"frac_r{r}" for r in config.radii]
    mom_cols = [f"moment_{ell}" for ell in range(config.lmax + 1)]
    columns = ["n", "trial", "growth_rate", "min_degree", "spectral_floor", *frac_cols, *mom_cols]
    rows = (
        [
            row.n,
            row.trial,
            repr(row.growth_rate),
            row.min_degree,
            repr(row.spectral_floor),
            *[repr(row.fractions[r]) for r in config.radii],
            *[repr(m) for m in row.moments],
        ]
        for row in result.rows
    )
    return csv_table(columns, rows, _csv_header(config))


def _json_fields(fields: list[tuple[str, object]]) -> dict:
    """`asdict` factory giving dict-valued fields str keys, as JSON objects have (so radii sort as text)."""
    return {name: {str(key): v for key, v in value.items()} if isinstance(value, dict) else value
            for name, value in fields}


def converge_json(result: ConvergenceResult, config: ExperimentConfig) -> str:
    payload = {
        "schema": CSV_SCHEMA,
        "rows": [asdict(row, dict_factory=_json_fields) for row in result.rows],
        "failures": [asdict(failure) for failure in result.failures],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def gap_csv(report: GapReport, config: ExperimentConfig) -> str:
    comments = [*_csv_header(config), f"# threshold={report.threshold_base!r} epsilon={report.epsilon!r}"]
    rows = ([row.n, row.trial, repr(row.top_nontrivial), int(row.passed)] for row in report.rows)
    return csv_table(["n", "trial", "top_nontrivial", "passed"], rows, comments)

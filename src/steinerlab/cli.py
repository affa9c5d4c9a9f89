"""Command-line workbench.

Subcommands: sample, spectrum, sst, limit, local, converge, gap, oracle.
Complexes travel in the canonical text format (header "n d", one d-face per
line).  Exit codes: 0 success, 2 validation error, 3 sampler exhaustion,
4 numerical failure.  sample, local, converge and gap skip a trial whose sampler
gives up or whose solve fails (`ExperimentConfig.run`), so only spectrum and sst exit 3.
A RuntimeWarning a command raises prints where it occurs as one "warning:" line.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from collections.abc import Callable, Iterable
from math import comb, exp, log
from pathlib import Path

import numpy as np

from .arboreal import arboreal_fractions
from .complexes import PureComplex, read_complex
from .experiments import (
    ConvergenceResult,
    ExperimentConfig,
    RowFailure,
    converge_csv,
    converge_json,
    csv_table,
    gap_csv,
    run_converge,
    run_gap_report,
)
from .limitlaw import (
    LimitLaw,
    growth_constant_chebyshev,
    growth_constant_closed,
    growth_constant_quadrature,
)
from .sampling import SamplerExhausted
from .spectra import NumericalFailure, require_dense_fits, spectral_summary
from .trees import require_tree_count_fits, tree_count_exact, weighted_tree_count

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SAMPLER = 3
EXIT_NUMERICAL = 4


def _add_sample_source(parser: argparse.ArgumentParser) -> None:
    """One complex: the file --in, or trial --trial of the ensemble --d/--k/--n/--seed."""
    parser.add_argument("--in", dest="infile", type=Path, help="complex file to load")
    parser.add_argument("--d", type=int, help="complex dimension")
    parser.add_argument("--k", type=int, help="number of Steiner systems in the union")
    parser.add_argument("--n", type=int, help="vertex count")
    parser.add_argument("--seed", type=int, default=0, help="master seed")
    parser.add_argument("--trial", type=int, default=0, help="stream index when sampling")


def _add_ensemble(parser: argparse.ArgumentParser) -> None:
    """--d/--k/--n/--seed/--trials of a sampled ensemble, --n repeatable."""
    parser.add_argument("--d", type=int, required=True, help="complex dimension")
    parser.add_argument("--k", type=int, required=True, help="number of Steiner systems in the union")
    parser.add_argument("--n", type=int, required=True, action="append", help="vertex count (repeatable)")
    parser.add_argument("--seed", type=int, default=0, help="master seed")
    parser.add_argument("--trials", type=int, default=1, help="trials per vertex count")


def _config_from_args(args: argparse.Namespace, **fields) -> ExperimentConfig:
    """The --d/--k/--n/--seed/--trials ensemble as a validated config; `fields` give the rest."""
    return ExperimentConfig(d=args.d, k=args.k, n_values=tuple(args.n), trials=args.trials, seed=args.seed, **fields)


def _resolve_complex(args: argparse.Namespace, require_fits: Callable[[int, int], None]) -> PureComplex:
    """Load --in, or sample from --d/--k/--n once `require_fits(n, d)` admits the size."""
    if args.infile is not None:
        return read_complex(args.infile)
    if args.d is None or args.k is None or args.n is None:
        raise ValueError("either --in or all of --d/--k/--n are required")
    require_fits(args.n, args.d)
    config = ExperimentConfig(d=args.d, k=args.k, n_values=(args.n,), trials=0, radii=(), seed=args.seed, lmax=0)
    return config.draw(args.n, args.trial)


def _write_text(path: Path | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)


def _report_skipped(failures: Iterable[RowFailure]) -> None:
    for failure in failures:
        print(f"skipped n={failure.n} trial={failure.trial}: {failure.reason}", file=sys.stderr)


def _cmd_sample(args: argparse.Namespace) -> int:
    config = _config_from_args(args, radii=(), lmax=0, complex_dir=args.out)
    written, failures = config.run(lambda X, n, trial: None)  # draw writes each complex
    _report_skipped(failures)
    print(f"wrote {len(written)} complex(es) to {args.out}")
    return EXIT_OK


def _cmd_spectrum(args: argparse.Namespace) -> int:
    if args.out is not None and args.out.suffix == ".json":
        raise ValueError(f"--out {args.out} would be overwritten by its own JSON sidecar; use another suffix")
    X = _resolve_complex(args, lambda n, d: require_dense_fits(comb(n, d)))
    summary = spectral_summary(X, operator=args.op, bins=args.bins, lmax=args.lmax)
    edges = [repr(float(edge)) for edge in summary.hist_edges]
    rows = zip(edges, edges[1:], (repr(float(mass)) for mass in summary.hist_masses))
    _write_text(args.out, csv_table(["bin_lo", "bin_hi", "mass"], rows))
    sidecar = {
        "operator": args.op,
        "n": X.n,
        "d": X.d,
        "moments": list(summary.moments),
        "trivial_zero_count": summary.trivial_zero_count,
    }
    sidecar_out = None if args.out is None else args.out.with_suffix(".json")
    _write_text(sidecar_out, json.dumps(sidecar, indent=2) + "\n")
    return EXIT_OK


def _cmd_sst(args: argparse.Namespace) -> int:
    X = _resolve_complex(args, require_tree_count_fits)
    result = weighted_tree_count(X, oracle=args.oracle)
    payload = {
        "log_kappa": None if result.zero_flag else result.log_count,
        "kappa_root": exp(result.log_count / comb(X.n, X.d)),
        "trivial_zeros": result.trivial_zeros,
        "flag": result.zero_flag,
        "floor": result.floor,
        "zero_threshold": result.zero_threshold,
    }
    if result.exact_count is not None:
        payload["exact"] = result.exact_count
    _write_text(args.out, json.dumps(payload, indent=2) + "\n")
    return EXIT_OK


def _cmd_limit(args: argparse.Namespace) -> int:
    closed = growth_constant_closed(args.d, args.k)
    quadrature = growth_constant_quadrature(args.d, args.k)
    chebyshev = growth_constant_chebyshev(args.d, args.k)
    print(f"growth constant, d={args.d} k={args.k}")
    print(f"  closed form : {closed!r}")
    print(f"  quadrature  : {quadrature!r}")
    print(f"  chebyshev   : {chebyshev!r}")
    if args.table:
        lo, hi, steps = args.table
        law = LimitLaw(args.d, args.k)
        xs = np.linspace(lo, hi, steps).tolist()
        rows = ([repr(x), repr(law.laplacian_density(x)), repr(law.adjacency_density(x))] for x in xs)
        _write_text(args.out, csv_table(["x", "nu", "mu"], rows))
    return EXIT_OK


def _cmd_local(args: argparse.Namespace) -> int:
    config = _config_from_args(args, radii=tuple(args.r or [1]), lmax=0)
    census, failures = config.run(lambda X, n, trial: (trial, n, arboreal_fractions(X, config.k, config.radii)))
    rows = ([trial, n, r, repr(f)] for trial, n, fractions in census for r, f in zip(config.radii, fractions))
    _write_text(args.out, csv_table(["trial", "n", "r", "fraction"], rows))
    _report_skipped(failures)
    return EXIT_OK


def _report_distance(result: ConvergenceResult, config: ExperimentConfig) -> None:
    """One stderr line per n: the mean growth_rate of its unflagged rows and, for k >= d+2, the
    mean log(growth_rate / xi), also net of the exact term -C(n-2, d-1) log(n) / C(n, d) that the
    count's n^C(n-2, d-1) normalization puts in log(growth_rate).

    A flagged row's count is 0, so its growth_rate is 0.0: it is left out and counted.
    """
    d, k = config.d, config.k
    log_xi = log(growth_constant_closed(d, k)) if k >= d + 2 else None
    for n in config.n_values:
        rows = [row for row in result.rows if row.n == n]
        rates = [row.growth_rate for row in rows if row.growth_rate > 0.0]
        line = f"n={n}: {len(rates)} unflagged rows, {len(rows) - len(rates)} flagged left out"
        if rates:
            line += f"; mean growth_rate {sum(rates) / len(rates):.6f}"
            if log_xi is not None:
                error = sum(map(log, rates)) / len(rates) - log_xi
                net = error + comb(n - 2, d - 1) * log(n) / comb(n, d)
                line += f", log(rate/xi) {error:+.6f}, net of the exact term {net:+.6f}"
        print(line, file=sys.stderr)


def _cmd_converge(args: argparse.Namespace) -> int:
    config = _config_from_args(args, deterministic=args.deterministic, radii=tuple(args.r or (1,)),
                               lmax=args.lmax, complex_dir=args.keep_complexes)
    result = run_converge(config)
    text = converge_json(result, config) if args.format == "json" else converge_csv(result, config)
    _write_text(args.out, text)
    _report_skipped(result.failures)
    _report_distance(result, config)
    return EXIT_OK


def _cmd_gap(args: argparse.Namespace) -> int:
    config = _config_from_args(args, deterministic=args.deterministic, radii=())  # the gap statistic takes no radius
    report = run_gap_report(config, epsilon=args.eps)
    _write_text(args.out, gap_csv(report, config))
    _report_skipped(report.failures)
    print(f"pass fraction: {report.pass_fraction:.3f} "
          f"(threshold {report.threshold_base:.4f} + eps {report.epsilon})", file=sys.stderr)
    return EXIT_OK


def _cmd_oracle(args: argparse.Namespace) -> int:
    X = read_complex(args.infile)
    exact = tree_count_exact(X)
    payload = {"n": X.n, "d": X.d, "exact_kappa": exact}
    _write_text(args.out, json.dumps(payload, indent=2) + "\n")
    return EXIT_OK


def _parse_table(raw: str) -> tuple[float, float, int]:
    parts = raw.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("expected lo:hi:steps")
    if int(parts[2]) < 1:
        raise argparse.ArgumentTypeError(f"steps must be >= 1, got {parts[2]}")
    return (float(parts[0]), float(parts[1]), int(parts[2]))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="steinerlab",
        description="Random Steiner complexes: sampling, spectra, spanning-tree counts, limit laws.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="sample complexes to text files, one per trial")
    _add_ensemble(p)
    p.add_argument("--out", type=Path, required=True, help="output directory")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("spectrum", help="eigenvalue histogram and moments of an operator")
    _add_sample_source(p)
    p.add_argument("--op", choices=["laplacian", "adjacency"], default="laplacian")
    p.add_argument("--bins", type=int, default=40)
    p.add_argument("--lmax", type=int, default=8)
    p.add_argument("--out", type=Path, default=None, help="histogram CSV (JSON sidecar alongside)")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("sst", help="weighted spanning-tree count of a complex")
    _add_sample_source(p)
    p.add_argument("--oracle", action="store_true", help="also run the exact enumeration oracle")
    p.add_argument("--out", type=Path, default=None)
    p.set_defaults(func=_cmd_sst)

    p = sub.add_parser("limit", help="growth constant by three routes; optional density table")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--table", type=_parse_table, default=None, metavar="LO:HI:STEPS")
    p.add_argument("--out", type=Path, default=None, help="density table CSV")
    p.set_defaults(func=_cmd_limit)

    p = sub.add_parser("local", help="arboreal-neighborhood fractions per trial")
    _add_ensemble(p)
    p.add_argument("--r", type=int, action="append", help="radius (repeatable)")
    p.add_argument("--out", type=Path, default=None)
    p.set_defaults(func=_cmd_local)

    p = sub.add_parser("converge", help="full convergence ensemble over an n-grid")
    _add_ensemble(p)
    p.add_argument("--r", type=int, action="append", help="arboreal radius (repeatable)")
    p.add_argument("--lmax", type=int, default=4)
    p.add_argument("--out", type=Path, default=None)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--deterministic", action="store_true", help="suppress the timestamp header")
    p.add_argument("--keep-complexes", type=Path, default=None, help="persist sampled complexes here")
    p.set_defaults(func=_cmd_converge)

    p = sub.add_parser("gap", help="adjacency spectral-gap statistic per trial")
    _add_ensemble(p)
    p.add_argument("--eps", type=float, default=0.5)
    p.add_argument("--out", type=Path, default=None)
    p.add_argument("--deterministic", action="store_true")
    p.set_defaults(func=_cmd_gap)

    p = sub.add_parser("oracle", help="exact enumeration count for a complex file")
    p.add_argument("--in", dest="infile", type=Path, required=True)
    p.add_argument("--out", type=Path, default=None)
    p.set_defaults(func=_cmd_oracle)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    plain = warnings.formatwarning  # the filters stay as they are; only the text of a shown warning changes
    warnings.formatwarning = lambda message, category, *where: (
        f"warning: {message}\n" if issubclass(category, RuntimeWarning) else plain(message, category, *where))
    try:
        return args.func(args)
    except SamplerExhausted as exc:
        print(f"sampler exhausted: {exc}", file=sys.stderr)
        return EXIT_SAMPLER
    except (NumericalFailure, np.linalg.LinAlgError) as exc:  # LinAlgError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    finally:
        warnings.formatwarning = plain


if __name__ == "__main__":
    sys.exit(main())

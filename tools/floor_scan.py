"""Scan of degenerate spectra: the tree count's floor and the gap top against dense solves.

    python3 tools/floor_scan.py [TREE]

TREE is a checkout of steinerlab, this one by default; the scan imports
steinerlab from TREE/src, so the same scan can run against a parent tree
whose `restricted_extreme` takes (M, n, d).
It draws the complexes of `converge --d 2 --n 63 --seed 11` at k = 2 and 3,
trials 0 to 19 (m = C(63, 2) = 1953, above the dense cap, so every solve is
the Lanczos one).  At k = 2 every reduced Laplacian is singular and A's top
eigenvalue 2 is degenerate, and k = 3 holds the rows that took Lanczos the
most steps.  For each row it compares:

- the zero flag of `weighted_tree_count` with the dense floor, the smallest
  eigenvalue of L above its C(62, 1) trivial zeros (`eigvalsh` of L), read
  against the count's own zero threshold;
- an unflagged floor with the dense floor, within FLOOR_ATOL;
- the gap top, minus the smallest eigenvalue of -A on ker delta^T
  (`-restricted_extreme(-A, n, d)`), with the largest eigenvalue of Q^T A Q,
  Q an orthonormal basis of ker delta^T (`null_space`), within TOP_RTOL.

It prints one line a row and a summary with each k's zero flags, and exits
0 when every row agrees and 1 otherwise.  A solve that raises is a
disagreement.  It takes about a minute on a 2-vCPU host.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from math import comb
from pathlib import Path

import numpy as np
import scipy.linalg

N, D, SEED, TRIALS, KS = 63, 2, 11, 20, (2, 3)
FLOOR_ATOL = 1e-12
TOP_RTOL = 1e-12


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("tree", type=Path, nargs="?", default=Path(__file__).resolve().parent.parent,
                    help="the steinerlab checkout whose src to scan (default: this one)")
    tree = ap.parse_args(argv).tree.resolve()
    sys.path.insert(0, str(tree / "src"))
    from steinerlab import experiments, spectra, trees

    trivial = comb(N - 1, D - 1)
    Q = scipy.linalg.null_space(spectra.coboundary_matrix(N, D).T.toarray())
    bad = 0
    flags = {}
    for k in KS:
        config = experiments.ExperimentConfig(d=D, k=k, n_values=(N,), trials=TRIALS, seed=SEED)
        flags[k] = ""
        for trial in range(TRIALS):
            X = config.draw(N, trial)
            dense_floor = float(np.linalg.eigvalsh(X.laplacian.toarray())[trivial])
            dense_top = float(np.linalg.eigvalsh(Q.T @ X.adjacency.toarray() @ Q)[-1])
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    count = trees.weighted_tree_count(X)
                top = -spectra.restricted_extreme(-X.adjacency, N, D)
            except spectra.NumericalFailure as exc:
                bad += 1
                flags[k] += "!"
                print(f"DISAGREES  k={k} trial={trial}: {exc}", flush=True)
                continue
            flags[k] += "Z" if count.zero_flag else "."
            problems = []
            if count.zero_flag != (dense_floor < count.zero_threshold):
                problems.append(f"zero flag {count.zero_flag}, dense floor {dense_floor:.3e} "
                                f"against threshold {count.zero_threshold:.3e}")
            if not count.zero_flag and abs(count.floor - dense_floor) > FLOOR_ATOL:
                problems.append(f"floor {count.floor!r}, dense {dense_floor!r}")
            if abs(top - dense_top) > TOP_RTOL * abs(dense_top):
                problems.append(f"gap top {top!r}, dense {dense_top!r}")
            bad += bool(problems)
            print(f"{'DISAGREES' if problems else 'agrees   '}  k={k} trial={trial:2d}: zero {count.zero_flag!s:5} "
                  f"floor {count.floor!r} (dense {dense_floor:.17g}), top {top!r} (dense {dense_top!r})"
                  + "".join(f"\n           {problem}" for problem in problems), flush=True)
    for k, row in flags.items():
        print(f"k={k} zero flags, trials 0-{TRIALS - 1} (Z zero, . not, ! failed): {row}")
    print(f"{2 * TRIALS - bad} of {2 * TRIALS} rows agree with the dense solves ({tree})")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

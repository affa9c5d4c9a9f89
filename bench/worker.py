"""One benchmark process: set up a workload, run its closed loop, report JSON.

Started by run.py with BLAS threads pinned in the environment.  The last
line on standard output is one JSON object.  `--spawned-at` is the parent's
CLOCK_MONOTONIC reading just before it started this process, so `setup_s`
covers interpreter start, `import steinerlab` and input generation;
`setup_adj_s` is the same time at nominal host speed (see reference.py).
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path
from statistics import median


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _blas_name(np) -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy without structured build info
        return "unknown"
    return f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--items", type=int, help="run exactly this many items instead of --seconds")
    ap.add_argument("--baseline-s", type=float, default=0.0,
                    help="untraced adjusted time of the same items, for trace.overhead_s")
    ap.add_argument("--spans", type=Path, help="write the traced run's spans here")
    args = ap.parse_args()

    bench_dir = Path(__file__).resolve().parent
    src = bench_dir.parent / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(1, str(bench_dir))
    import numpy as np
    import scipy
    import steinerlab
    from reference import Reference
    from workloads import WORKLOADS

    if Path(steinerlab.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"imported steinerlab from {steinerlab.__file__}, not from {src}")
    workload = WORKLOADS[args.workload]
    params = workload.smoke_params if args.smoke else workload.params
    count = args.items or max(1, int(args.seconds / workload.min_item_s) + 1)
    inputs = workload.make_inputs(random.Random(f"{workload.name}:{args.seed}"), count, params)
    setup_s = _now() - args.spawned_at
    # set-up is interpreter start and imports whatever the workload, so the integer loop reads it
    setup_reference = Reference("python")
    setup_reference.measure()
    setup_reference.measure()
    setups = {"setup_s": setup_s, "setup_adj_s": setup_reference.adjusted([setup_s])[0]}
    if args.setup_only:
        print(json.dumps(setups))
        return 0

    reference = Reference(workload.reference)  # its kernel's set-up is not the program's
    tracer = None
    if args.trace:
        from tracer import Tracer, layer_metrics

        tracer = Tracer()
        tracer.install()

    durations: list[float] = []  # the timed item calls
    walls: list[float] = []  # whole iterations, checks and reference included
    digests: list[str] = []
    problems: list[str] = []
    failed = 0
    loop_start = _now()
    reference.measure()
    with tempfile.TemporaryDirectory(dir=bench_dir / "out") as workdir:
        for i, inp in enumerate(inputs):
            # closed loop: start another item only if it should end within --seconds
            if args.items is None and walls and _now() - loop_start + median(walls) > args.seconds:
                break
            iteration_start = _now()
            t0 = time.perf_counter()
            error = None
            try:
                with tracer.item() if tracer is not None else nullcontext():
                    out = workload.run_item(inp, params, Path(workdir))
            except Exception as exc:  # a failed item is counted, the loop goes on
                error = exc
            durations.append(time.perf_counter() - t0)
            if error is None:
                item_problems = workload.check(inp, out, params)
                digests.append(workload.digest(out))
            else:
                item_problems = [f"{type(error).__name__}: {error}"]
                digests.append(f"error:{type(error).__name__}")
            if item_problems:
                failed += 1
                problems.extend(f"item {i}: {p}" for p in item_problems)
            reference.measure()
            walls.append(_now() - iteration_start)

    adjusted = reference.adjusted(durations)
    report = {
        **setups,
        "durations": durations,
        "adjusted": adjusted,
        "reference": {"kind": reference.kind, "nominal_s": reference.nominal_s,
                      "seconds": reference.seconds},
        "digests": digests,
        "failed": failed,
        "problems": problems,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "params": params,
        "steinerlab_version": steinerlab.__version__,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_name(np),
    }
    if tracer is not None:
        tracer.uninstall()
        report["dropped_spans"] = tracer.dropped
        overhead_s = sum(adjusted) - args.baseline_s
        report["layer_metrics"] = layer_metrics(tracer, max(1, len(durations)), overhead_s)
        if args.spans is not None:
            tracer.write_spans(args.spans)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())

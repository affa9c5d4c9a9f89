"""steinerlab pipeline benchmark: one workload per invocation, in fresh processes.

    python3 bench/run.py --workload converge-d2-solve --seed 1 --seconds 56 --trace 0
    python3 bench/run.py --smoke        # every workload at tiny sizes, traced and not

Run from the repository root; the program is imported from ./src, never
installed.  Each run starts worker.py processes with BLAS threads pinned to
min(BLAS_THREADS, CPUs available).  With --trace 0 one worker runs the
closed loop for --seconds and SETUP_SAMPLES workers in all measure set-up;
with --trace 1 an untraced worker runs the loop, then a traced worker replays
the same items, and the two science outputs must be identical.  Metrics,
provenance and checks go to bench/out/; the last stdout line is the JSON
result.  README.md explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from tracer import PER_LAYER

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
WORKER = BENCH_DIR / "worker.py"

DEFAULT_SEED = 1
HELD_OUT_SEED = 7411  # confirm claims on this seed too; never tune against it
DEFAULT_SECONDS = 56
BLAS_THREADS = 2
SETUP_SAMPLES = 3
RUN_DEADLINE_S = 170.0
SMOKE_SECONDS = 1.0
# runnable by name and smoke-tested, but left out of BENCHMARK.json (README.md says why)
EXTRA_WORKLOADS = ("sample-io", "converge-d1-local")
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")

END_TO_END_UNITS = {"setup_s": "s", "setup_raw_s": "s", "adj_items_per_s": "1/s", "items_per_s": "1/s",
                    "first_item_s": "s", "peak_rss_mb": "MB", "failed_frac": "ratio"}


class BenchError(RuntimeError):
    pass


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _blas_threads() -> int:
    return max(1, min(BLAS_THREADS, len(os.sched_getaffinity(0))))


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Runner:
    """Starts workers under one deadline and collects their JSON reports."""

    def __init__(self, workload: str, seed: int, seconds: float, smoke: bool) -> None:
        self.workload, self.seed, self.seconds, self.smoke = workload, seed, seconds, smoke
        self.deadline = _now() + RUN_DEADLINE_S
        self.threads = _blas_threads()
        self.env = dict(os.environ, **{name: str(self.threads) for name in BLAS_ENV})

    def worker(self, *extra: str) -> dict:
        spawned_at = _now()
        cmd = [sys.executable, str(WORKER), "--workload", self.workload, "--seed", str(self.seed),
               "--seconds", str(self.seconds), "--spawned-at", repr(spawned_at), *extra]
        if self.smoke:
            cmd.append("--smoke")
        remaining = self.deadline - spawned_at
        if remaining <= 0:
            raise BenchError("run deadline passed before starting a worker")
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=self.env,
                                  cwd=ROOT, timeout=remaining)
        except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the worker
            raise BenchError(f"worker exceeded the {RUN_DEADLINE_S:.0f} s run deadline") from exc
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"worker exited with code {proc.returncode}")
        return json.loads(lines[-1])

    def untraced(self) -> tuple[dict, dict]:
        main = self.worker()
        setups = [main] + [self.worker("--setup-only") for _ in range(SETUP_SAMPLES - 1)]
        durations = main["durations"]
        completed = len(durations) - main["failed"]
        metrics = {
            "setup_s": (median(w["setup_adj_s"] for w in setups), len(setups)),
            "setup_raw_s": (median(w["setup_s"] for w in setups), len(setups)),
            "adj_items_per_s": (completed / sum(main["adjusted"]), len(durations)),
            "items_per_s": (completed / sum(durations), len(durations)),
            "first_item_s": (durations[0], 1),
            "peak_rss_mb": (main["peak_rss_mb"], 1),
            "failed_frac": (main["failed"] / len(durations), len(durations)),
        }
        units = {name: END_TO_END_UNITS[name] for name in metrics}
        return main, {"metrics": metrics, "units": units, "correct": main["failed"] == 0,
                      "attempted": len(durations), "failed": main["failed"],
                      "problems": main["problems"],
                      "setup_samples": [(w["setup_s"], w["setup_adj_s"]) for w in setups],
                      "item_seconds": durations, "reference": main["reference"]}

    def traced(self) -> tuple[dict, dict]:
        plain = self.worker()
        spans = OUT_DIR / f"spans-{self.workload}-seed{self.seed}.jsonl"
        traced = self.worker("--trace", "--items", str(len(plain["durations"])),
                             "--baseline-s", repr(sum(plain["adjusted"])), "--spans", str(spans))
        items = len(traced["durations"])
        metrics = {name: (traced["layer_metrics"][name], items) for name, _ in PER_LAYER}
        same = plain["digests"] == traced["digests"]
        problems = plain["problems"] + traced["problems"]
        if not same:
            problems.append("traced science outputs differ from the untraced run's")
        failed = plain["failed"] + traced["failed"]
        return traced, {"metrics": metrics, "units": dict(PER_LAYER),
                        "correct": failed == 0 and same, "science_outputs_identical": same,
                        "attempted": len(plain["durations"]) + items, "failed": failed,
                        "problems": problems, "spans_file": str(spans.relative_to(ROOT)),
                        "dropped_spans": traced["dropped_spans"]}

    def provenance(self, report: dict) -> dict:
        return {
            "steinerlab_version": report["steinerlab_version"],
            "git_commit": _git_commit(),
            "python": platform.python_version(),
            "numpy": report["numpy"],
            "scipy": report["scipy"],
            "blas": report["blas"],
            "blas_threads_pinned": self.threads,
            "nproc": os.cpu_count(),
            "cpus_available": len(os.sched_getaffinity(0)),
            "seed": self.seed,
            "seconds": self.seconds,
            "smoke": self.smoke,
            "workload": self.workload,
            "params": report["params"],
            "loop": "closed, one caller",
        }


def run_once(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    runner = Runner(workload, seed, seconds, smoke)
    report, result = runner.traced() if trace else runner.untraced()
    units = result.pop("units")
    record = {"provenance": runner.provenance(report), **result,
              "metrics": {name: {"value": value, "unit": units[name], "samples": n}
                          for name, (value, n) in result["metrics"].items()}}
    suffix = "-smoke" if smoke else ""
    path = OUT_DIR / f"result-{workload}-seed{seed}-trace{int(trace)}{suffix}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    for name, metric in record["metrics"].items():
        print(f"{workload} {name} = {metric['value']:.6g} {metric['unit']} (samples {metric['samples']})")
    for problem in record["problems"]:
        print(f"{workload} CHECK FAILED: {problem}")
    print(json.dumps({"provenance": record["provenance"]}))
    return record


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _listed_metrics(spec: dict, trace: bool) -> set[str]:
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def smoke(seed: int) -> int:
    """Every workload at tiny sizes, untraced and traced; every metric must appear."""
    spec = _spec()
    bad = []
    for workload in [w["name"] for w in spec["workloads"]] + list(EXTRA_WORKLOADS):
        for trace in (False, True):
            record = run_once(workload, seed, SMOKE_SECONDS, trace, smoke=True)
            wanted = _listed_metrics(spec, trace) | (set() if trace else set(END_TO_END_UNITS))
            missing = wanted - set(record["metrics"])
            if missing or not record["correct"]:
                bad.append(f"{workload} trace={int(trace)}: missing {sorted(missing)}, "
                           f"correct={record['correct']}")
    for line in bad:
        print(f"SMOKE FAILED: {line}")
    print("smoke ok" if not bad else "smoke failed")
    return 1 if bad else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help=f"workload seed; {HELD_OUT_SEED} is held out for confirming claims")
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if not (ROOT / "src" / "steinerlab" / "__init__.py").is_file():
        print(f"bench: no program at {ROOT / 'src' / 'steinerlab'}; run from a full checkout",
              file=sys.stderr)
        return 2
    if not args.smoke and not args.workload:
        ap.error("--workload is required unless --smoke is given")
    OUT_DIR.mkdir(exist_ok=True)
    try:
        if args.smoke:
            return smoke(args.seed)
        record = run_once(args.workload, args.seed, args.seconds, bool(args.trace), smoke=False)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    # the result line holds the metrics BENCHMARK.json lists; README.md says why the others are not
    listed = _listed_metrics(_spec(), bool(args.trace))
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in record["metrics"].items() if name in listed},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

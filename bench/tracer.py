"""Span tracer for the benchmark: wraps steinerlab's public layer functions.

`Tracer.install` replaces every function listed in a layer module's
`__all__`, except the tiny helpers in UNTRACED, with a wrapper in every
`steinerlab` module namespace that holds it, so calls the program makes
between its own modules are traced too.
Each call becomes a span (name, start, end, parent).  Spans are kept in
memory up to a cap and written out by `write_spans`; calls, total time and
self time (duration minus the time covered by child spans) are aggregated
for every call, whether or not its span record was kept.  Wrapper
bookkeeping falls outside both the span and its parent's self time.

Nothing in `src/` is edited; `uninstall` puts the original functions back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import resource
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from math import comb
from pathlib import Path
from time import perf_counter

LAYERS = ("sampling", "complexes", "spectra", "trees", "arboreal", "limitlaw", "experiments")
SPAN_CAP = 50_000
# O(d) tuple helpers called about a million times per converge-d1-local item.
# A span costs more than their work: wrapping them doubled that item's time
# and charged the wrapper cost to their callers' self time.
UNTRACED = {"complexes.facets_of", "complexes.all_faces", "complexes.flip"}
ROOT_SPAN = "bench.item"

# spans whose end records the process's ru_maxrss high-water mark
RSS_SPANS = (
    "experiments.run_converge",
    "spectra.laplacian_matrix",
    "spectra.eigenvalues",
    "trees.weighted_tree_count",
    "sampling.steiner_complex",
    "complexes.read_complex",
)


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _eigenvalues_hook(tracer: "Tracer", args: dict, result) -> None:
    import numpy as np  # here, not at the top: run.py imports this module without numpy

    M = np.asarray(args["M"])
    m = M.shape[0]
    c = tracer.counters
    c["eig.calls"] += 1
    c["eig.m"] += m
    c["eig.nnz"] += int(np.count_nonzero(M))
    c["eig.dense_bytes"] += 8.0 * m * m
    c["eig.flops"] += 4.0 / 3.0 * m**3


def _steiner_complex_hook(tracer: "Tracer", args: dict, result) -> None:
    n, d, k = args["n"], args["d"], args["k"]
    tracer.counters["blocks.distinct"] += result.num_dfaces
    tracer.counters["blocks.drawn"] += k * comb(n, d) // (d + 1)


def _write_complex_hook(tracer: "Tracer", args: dict, result) -> None:
    tracer.counters["file_bytes"] += Path(args["path"]).stat().st_size


HOOKS = {
    "spectra.eigenvalues": _eigenvalues_hook,
    "sampling.steiner_complex": _steiner_complex_hook,
    "complexes.write_complex": _write_complex_hook,
}


class Tracer:
    """In-memory spans and per-name aggregates for the wrapped layer functions."""

    def __init__(self) -> None:
        self.active = False
        self.stack: list[list] = []  # [name, child seconds, span id]
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.edges: Counter = Counter()  # (parent name, name) -> calls
        self.errors: Counter = Counter()  # (name, exception type) -> count
        self.counters: defaultdict = defaultdict(float)
        self.rss_hwm_mb: dict[str, float] = {}
        self.spans: list[tuple] = []
        self.dropped = 0
        self._next_id = 0
        self._restore: list[tuple] = []

    # -- rebinding ---------------------------------------------------------
    def install(self) -> None:
        """Wrap every public layer function in every namespace that holds it."""
        package = [mod for name, mod in sorted(sys.modules.items())
                   if name == "steinerlab" or name.startswith("steinerlab.")]
        for layer in LAYERS:
            module = importlib.import_module(f"steinerlab.{layer}")
            for attr in module.__all__:
                fn = getattr(module, attr)
                if (not inspect.isfunction(fn) or fn.__module__ != module.__name__
                        or f"{layer}.{attr}" in UNTRACED):
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                for mod in package:
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, key, wrapper)
                            self._restore.append((mod, key, fn))

    def uninstall(self) -> None:
        for mod, key, fn in reversed(self._restore):
            setattr(mod, key, fn)
        self._restore.clear()

    def _wrap(self, name: str, fn):
        hook = HOOKS.get(name)
        signature = inspect.signature(fn) if hook else None
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            entered = perf_counter()
            tracer._open(name)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(start, entered, type(exc).__name__)
                raise
            end = perf_counter()
            if hook is not None:
                hook(tracer, signature.bind(*args, **kwargs).arguments, result)
            tracer._close(start, entered, None, end)
            return result

        return traced

    # -- spans -------------------------------------------------------------
    def _open(self, name: str) -> None:
        self._next_id += 1
        self.stack.append([name, 0.0, self._next_id])

    def _close(self, start: float, entered: float, error: str | None, end: float | None = None) -> None:
        if end is None:
            end = perf_counter()
        name, child_s, span_id = self.stack.pop()
        duration = end - start
        parent = self.stack[-1] if self.stack else None
        self.calls[name] += 1
        self.self_s[name] += duration - child_s
        self.edges[(parent[0] if parent else None, name)] += 1
        if error is not None:
            self.errors[(name, error)] += 1
        if name in RSS_SPANS:
            self.rss_hwm_mb[name] = max(self.rss_hwm_mb.get(name, 0.0), _rss_mb())
        if len(self.spans) < SPAN_CAP:
            self.spans.append((span_id, parent[2] if parent else 0, name, start, end))
        else:
            self.dropped += 1
        if parent is not None:
            parent[1] += perf_counter() - entered

    @contextmanager
    def item(self):
        """The root span around one workload item; layer calls are traced only inside it."""
        entered = perf_counter()
        self._open(ROOT_SPAN)
        self.active = True
        start = perf_counter()
        error = None
        try:
            yield
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            self.active = False
            self._close(start, entered, error)

    def write_spans(self, path: Path) -> None:
        with open(path, "w") as fh:
            for span_id, parent_id, name, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent_id, "name": name,
                                     "start": start, "end": end}) + "\n")
            fh.write(json.dumps({"dropped_spans": self.dropped}) + "\n")


# name and unit of every per-layer metric; layer_metrics computes the values
PER_LAYER = [
    ("spectra.eigenvalues.self_s", "s"),
    ("spectra.eigensolve_flops_computed", "flop"),
    ("spectra.laplacian_matrix.self_s", "s"),
    ("spectra.adjacency_matrix.self_s", "s"),
    ("spectra.m", "count"),
    ("spectra.nnz", "count"),
    ("spectra.dense_bytes_computed", "B"),
    ("spectra.trivial_zero_count.self_s", "s"),
    ("spectra.exact_rank.self_s", "s"),
    ("spectra.exact_rank.calls", "count"),
    ("trees.growth_rate_from_eigenvalues.self_s", "s"),
    ("trees.weighted_tree_count.self_s", "s"),
    ("trees.tree_count_exact.self_s", "s"),
    ("trees.smith_normal_form.self_s", "s"),
    ("trees.smith_normal_form.calls", "count"),
    ("trees.oracle_tree_ratio", "ratio"),
    ("spectra.signed_trace.self_s", "s"),
    ("arboreal.signed_walk_count.self_s", "s"),
    ("limitlaw.growth_constant_closed.self_s", "s"),
    ("limitlaw.growth_constant_quadrature.self_s", "s"),
    ("limitlaw.growth_constant_chebyshev.self_s", "s"),
    ("arboreal.arboreal_fraction.self_s", "s"),
    ("arboreal.is_arboreal_ball.self_s", "s"),
    ("arboreal.is_arboreal_ball.calls", "count"),
    ("complexes.ball.self_s", "s"),
    ("complexes.ball.calls", "count"),
    ("complexes.complex_from_dfaces.self_s", "s"),
    ("sampling.steiner_complex.self_s", "s"),
    ("sampling.sample_sts.self_s", "s"),
    ("sampling.sample_matching.self_s", "s"),
    ("sampling.distinct_block_ratio", "ratio"),
    ("sampling.exhausted", "count"),
    ("complexes.write_complex.self_s", "s"),
    ("complexes.read_complex.self_s", "s"),
    ("complexes.file_bytes", "B"),
    ("experiments.run_converge.self_s", "s"),
    ("experiments.converge_csv.self_s", "s"),
    *[(f"{layer}.self_s", "s") for layer in LAYERS],
    *[(f"{name}.rss_hwm_mb", "MB") for name in RSS_SPANS],
    ("trace.spans", "count"),
    ("trace.overhead_s", "s"),
]


def layer_metrics(tracer: Tracer, items: int, overhead_s: float) -> dict[str, float]:
    """Per-layer values, each per workload item unless it is a ratio, mean or high-water mark.

    `overhead_s` is the traced minus the untraced wall time of the same items.
    """
    per = 1.0 / items
    c = tracer.counters
    eig_calls = c["eig.calls"] or 1.0
    values: dict[str, float] = {
        "spectra.eigensolve_flops_computed": c["eig.flops"] * per,
        "spectra.m": c["eig.m"] / eig_calls,
        "spectra.nnz": c["eig.nnz"] / eig_calls,
        "spectra.dense_bytes_computed": c["eig.dense_bytes"] / eig_calls,
        "trees.oracle_tree_ratio": (
            tracer.edges[("trees.tree_count_exact", "trees.smith_normal_form")]
            / max(1, tracer.edges[("trees.tree_count_exact", "spectra.exact_rank")])
        ),
        "sampling.distinct_block_ratio": c["blocks.distinct"] / (c["blocks.drawn"] or 1.0),
        "sampling.exhausted": float(tracer.errors[("sampling.steiner_complex", "SamplerExhausted")]),
        "complexes.file_bytes": c["file_bytes"] * per,
        "trace.spans": sum(tracer.calls.values()) * per,
        "trace.overhead_s": overhead_s * per,
    }
    for layer in LAYERS:
        values[f"{layer}.self_s"] = per * sum(
            t for name, t in tracer.self_s.items() if name.startswith(layer + ".")
        )
    for name in RSS_SPANS:
        values[f"{name}.rss_hwm_mb"] = tracer.rss_hwm_mb.get(name, 0.0)
    for metric, _unit in PER_LAYER:
        if metric in values:
            continue
        span, _, kind = metric.rpartition(".")
        source = tracer.self_s if kind == "self_s" else tracer.calls
        values[metric] = float(source.get(span, 0.0)) * per
    return values

"""Which program functions the traced run wraps, and the per-layer
metrics computed from the spans they record.

Each wrapped call becomes a span named after its layer (the module's
place in ``repro``).  The benchmark's own root spans, ``setup`` and
``rep``, enclose every library span; a layer's figures are taken per
rep (median over the traced reps), so they do not depend on how many
reps fit in the time budget.
"""

from __future__ import annotations

import inspect
import math
import statistics
from typing import Dict, List

from spans import SpanRecorder
from workloads import percentile, tail

#: Span name → the layer its self time and calls count towards.
#: Multi-method layers name their spans ``<layer>.<method>``.
PREFIX_LAYERS = (
    "serving.pool",
    "serving.cache",
    "serving.batcher",
    "serving.metrics",
    "backends",
    "mining.knn",
    "accelerator.dac_adc",
    "analog.build",
)
EXACT_LAYERS = (
    "check.erc",
    "accelerator.compute",
    "accelerator.batch",
    "accelerator.batch_pairs",
    "accelerator.compute_many",
    "analog.bind",
    "analog.solve",
    "analog.dc_solve",
    "analog.transient",
)
MEASURE = "analog.transient.measure"


def layer_of(name: str) -> str:
    if name in EXACT_LAYERS:
        return name
    if name == MEASURE:
        # Convergence bookkeeping around the transient belongs to it.
        return "analog.transient"
    for layer in PREFIX_LAYERS:
        if name.startswith(layer + "."):
            return layer
    return name


def install(rec: SpanRecorder) -> None:
    """Wrap every traced entry point; ``rec.close()`` undoes it."""
    import repro.accelerator.pe as pe
    import repro.analog.engine as engine
    import repro.check.config_check as config_check
    import repro.mining.knn as knn
    from repro.accelerator import DistanceAccelerator
    from repro.accelerator.dac_adc import AdcArray, DacArray
    from repro.analog.graph import BlockGraph, FrozenGraph
    from repro.backends import AcceleratorBackend
    from repro.serving.batcher import DynamicBatcher
    from repro.serving.cache import ResultCache
    from repro.serving.metrics import Counter, LatencyHistogram, MetricsRegistry
    from repro.serving.pool import AcceleratorPool

    methods = [
        (AcceleratorPool, ("submit", "drain"), "serving.pool"),
        (ResultCache, ("key", "get", "put"), "serving.cache"),
        (
            DynamicBatcher,
            ("add", "due", "flush", "dispatch_time"),
            "serving.batcher",
        ),
        (Counter, ("inc",), "serving.metrics.counter"),
        (LatencyHistogram, ("record",), "serving.metrics.histogram"),
        (MetricsRegistry, ("counter", "histogram"), "serving.metrics.registry"),
        (AcceleratorBackend, ("compute", "batch"), "backends"),
        (knn.KnnClassifier, ("fit", "predict_one"), "mining.knn"),
        (DacArray, ("convert",), "accelerator.dac_adc.dac"),
        (AdcArray, ("convert",), "accelerator.dac_adc.adc"),
        (BlockGraph, ("freeze",), "analog.build"),
    ]
    for cls, attrs, layer in methods:
        for attr in attrs:
            rec.wrap_method(cls, attr, f"{layer}.{attr}")
    for attr in ("compute", "batch", "compute_many"):
        rec.wrap_method(DistanceAccelerator, attr, f"accelerator.{attr}")

    def count_pairs(index, args, kwargs, result):
        pairs = kwargs["pairs"] if "pairs" in kwargs else args[2]
        rec.attrs[index] = {"pairs": len(pairs)}

    rec.wrap_method(
        DistanceAccelerator, "batch_pairs", "accelerator.batch_pairs", count_pairs
    )
    rec.wrap_method(FrozenGraph, "bind", "analog.bind")
    rec.wrap_method(FrozenGraph, "solve", "analog.solve")

    for attr in sorted(vars(pe)):
        if attr.startswith("build_") and attr.endswith("_graph"):
            rec.wrap_function(pe, attr, f"analog.build.{attr}")
    rec.wrap_function(config_check, "check_accelerator", "check.erc")
    rec.wrap_function(knn, "leave_one_out_accuracy", "mining.knn.loo")
    rec.wrap_function(engine, "dc_solve", "analog.dc_solve")

    signature = inspect.signature(engine.transient)

    def count_steps(index, args, kwargs, result):
        bound = signature.bind(*args, **kwargs).arguments
        dt = float(bound["dt"])
        rec.attrs[index] = {
            "steps": int(math.ceil(float(bound["t_stop"]) / dt)),
            "dt": dt,
        }

    def keep_convergence(index, args, kwargs, result):
        if result is None:
            return
        found = result.values() if isinstance(result, dict) else [result]
        rec.attrs[index] = {"t_conv": max(t for t, _final in found)}

    rec.wrap_function(engine, "transient", "analog.transient", count_steps)
    for attr in ("measure_convergence", "measure_convergence_many"):
        rec.wrap_function(engine, attr, MEASURE, keep_convergence)


#: Per-layer metric names and units, in report order.
PER_LAYER = (
    ("serving.pool.self_s", "s"),
    ("serving.pool.queue_wait_ns_p50", "ns"),
    ("serving.pool.queue_wait_ns_p99", "ns"),
    ("serving.pool.batches", "count"),
    ("serving.pool.batch_size_mean", "count"),
    ("serving.pool.reconfigurations", "count"),
    ("serving.pool.util_min", "ratio"),
    ("serving.pool.util_max", "ratio"),
    ("serving.pool.shed", "count"),
    ("serving.cache.self_s", "s"),
    ("serving.cache.calls", "count"),
    ("serving.cache.hit_ratio", "ratio"),
    ("serving.batcher.self_s", "s"),
    ("serving.batcher.calls", "count"),
    ("serving.metrics.self_s", "s"),
    ("serving.metrics.calls", "count"),
    ("check.erc_s", "s"),
    ("backends.self_s", "s"),
    ("backends.calls", "count"),
    ("mining.knn.self_s", "s"),
    ("accelerator.compute.calls", "count"),
    ("accelerator.compute.self_s", "s"),
    ("accelerator.compute.call_p50_us", "us"),
    ("accelerator.compute.call_tail_us", "us"),
    ("accelerator.batch.calls", "count"),
    ("accelerator.batch.self_s", "s"),
    ("accelerator.batch_pairs.calls", "count"),
    ("accelerator.batch_pairs.self_s", "s"),
    ("accelerator.batch_pairs.pairs_per_call", "count"),
    ("accelerator.compute_many.calls", "count"),
    ("accelerator.compute_many.self_s", "s"),
    ("accelerator.template.hit_ratio", "ratio"),
    ("accelerator.template.misses", "count"),
    ("accelerator.dac_adc.self_s", "s"),
    ("accelerator.dac_adc.calls", "count"),
    ("analog.build.self_s", "s"),
    ("analog.build.calls", "count"),
    ("analog.bind.self_s", "s"),
    ("analog.bind.calls", "count"),
    ("analog.solve.self_s", "s"),
    ("analog.solve.calls", "count"),
    ("analog.dc_solve.self_s", "s"),
    ("analog.dc_solve.calls", "count"),
    ("analog.transient.self_s", "s"),
    ("analog.transient.calls", "count"),
    ("analog.transient.steps", "count"),
    ("analog.transient.useful_step_ratio", "ratio"),
    ("analog.transient.window_retries", "count"),
    ("trace.overhead_ratio", "ratio"),
)

def span_metrics(rec: SpanRecorder) -> Dict[str, float]:
    """Layer self times, call counts and transient step accounting, per
    ``rep`` root (median over reps); ERC time per ``setup`` root."""
    own = rec.self_times()
    root = rec.roots()
    layers = [layer_of(name) for name in rec.names]
    per_root: Dict[int, Dict[str, float]] = {}
    kind: Dict[int, str] = {}
    compute_us: List[float] = []
    top_measure: Dict[int, int] = {}  # outermost measure span -> its root
    last_dt: Dict[int, float] = {}  # outermost measure span -> dt of last transient
    for index in range(len(rec)):
        name = rec.names[rec.name_id[index]]
        if rec.parent[index] < 0:
            if name in ("rep", "setup"):
                kind[index] = name
                per_root[index] = {}
            continue
        if root[index] not in per_root:
            continue
        figures = per_root[root[index]]
        layer = layers[rec.name_id[index]]
        figures[layer + ".self_s"] = figures.get(layer + ".self_s", 0.0) + own[index]
        if name != MEASURE:
            figures[layer + ".calls"] = figures.get(layer + ".calls", 0) + 1
        if name == "accelerator.compute" and kind[root[index]] == "rep":
            compute_us.append((rec.end[index] - rec.start[index]) * 1e6)
        elif name == "accelerator.batch_pairs":
            figures["pairs"] = figures.get("pairs", 0) + rec.attrs[index]["pairs"]
        elif name == "analog.transient":
            attrs = rec.attrs[index]
            figures["steps"] = figures.get("steps", 0) + attrs["steps"]
            outer = _outermost(rec, index, MEASURE)
            if outer is not None:
                last_dt[outer] = attrs["dt"]
        elif name == MEASURE:
            parent = rec.parent[index]
            if parent < 0 or rec.name_of(parent) != MEASURE:
                top_measure[index] = root[index]
                figures["measures"] = figures.get("measures", 0) + 1

    useful: Dict[int, float] = {}
    for index, r in top_measure.items():
        t_conv = rec.attrs.get(index, {}).get("t_conv")
        if t_conv is not None and index in last_dt:
            useful[r] = useful.get(r, 0.0) + t_conv / last_dt[index]

    reps = [r for r, k in kind.items() if k == "rep"]
    setups = [r for r, k in kind.items() if k == "setup"]

    def median_over(roots: List[int], fn) -> float:
        return statistics.median(fn(r) for r in roots) if roots else 0.0

    out: Dict[str, float] = {}
    for metric, _unit in PER_LAYER:
        if metric.endswith((".self_s", ".calls")):
            out[metric] = median_over(reps, lambda r: per_root[r].get(metric, 0))
    out["check.erc_s"] = median_over(
        setups, lambda r: per_root[r].get("check.erc.self_s", 0.0)
    )
    out["accelerator.batch_pairs.pairs_per_call"] = median_over(
        reps,
        lambda r: per_root[r].get("pairs", 0)
        / max(per_root[r].get("accelerator.batch_pairs.calls", 0), 1),
    )
    out["analog.transient.steps"] = median_over(
        reps, lambda r: per_root[r].get("steps", 0)
    )
    out["analog.transient.useful_step_ratio"] = median_over(
        reps,
        lambda r: useful.get(r, 0.0) / per_root[r]["steps"]
        if per_root[r].get("steps")
        else 0.0,
    )
    out["analog.transient.window_retries"] = median_over(
        reps,
        lambda r: per_root[r].get("analog.transient.calls", 0)
        - per_root[r].get("measures", 0),
    )
    out["accelerator.compute.call_p50_us"] = 0.0
    out["accelerator.compute.call_tail_us"] = 0.0
    if compute_us:
        out["accelerator.compute.call_p50_us"] = percentile(compute_us, 50.0)
        found = tail(compute_us)
        if found is not None:
            out["accelerator.compute.call_tail_us"] = found[1]
            out["_compute_tail_percentile"] = found[0]
        out["_compute_call_samples"] = len(compute_us)
    return out


def _outermost(rec: SpanRecorder, index: int, name: str):
    """The outermost ancestor of ``index`` named ``name``, if any."""
    found = None
    parent = rec.parent[index]
    while parent >= 0:
        if rec.name_of(parent) == name:
            found = parent
        parent = rec.parent[parent]
    return found

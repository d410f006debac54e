"""The four benchmark workloads: inputs, timed repetitions, checks.

Every workload draws its inputs from the ``--seed`` argument with its
own generator code and hands the program only those inputs.  A run
repeats one deterministic unit of work (a *rep*) until the measured
host time reaches the time budget:

* ``serve_repeat`` / ``serve_unique`` — one rep replays the seeded
  request stream through a freshly set up 4-shard pool (open loop in
  virtual time: arrivals are Poisson at a fixed virtual rate);
* ``knn_dtw`` — one rep is a leave-one-out 1-NN DTW pass (closed loop,
  one op per classified query);
* ``fig5_converge`` — one rep is a pass over the Fig. 5 convergence
  measurements (closed loop, one op per measurement).

Because a rep is deterministic, every rep must produce the same output
digest; the first rep's outputs are checked against the software
distances in :mod:`repro.distances` before anything is reported.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import struct
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import distances as software
from repro.accelerator import DistanceAccelerator
from repro.accelerator.configurations import get_config
from repro.backends import AcceleratorBackend
from repro.datacenter.workload import DEFAULT_MIX
from repro.datasets import UCR_SPECS, formalise, generate_dataset, sample_pairs
from repro.mining import knn as knn_module
from repro.serving import AcceleratorPool, PoolConfig

#: Threshold (sequence units) of the thresholded functions, as in the
#: repository's Fig. 5 harness and serve bench.
THRESHOLD = 0.5
THRESHOLDED = ("hamming", "lcs", "edit")
FUNCTIONS = ("dtw", "edit", "hamming", "hausdorff", "lcs", "manhattan")

#: Per-workload salt mixed into the seed, so two workloads given the
#: same ``--seed`` still draw unrelated inputs.
_SALT = {
    "serve_repeat": 11,
    "serve_unique": 12,
    "knn_dtw": 13,
    "fig5_converge": 14,
}


def kwargs_for(function: str) -> Dict[str, float]:
    return {"threshold": THRESHOLD} if function in THRESHOLDED else {}


def znorm(x: np.ndarray) -> np.ndarray:
    """Zero mean, unit variance along the last axis.

    A z-normalised pair of length n has a Manhattan distance of at most
    2n, which keeps row settles of up to 12 elements below the ADC's
    25.6-unit full scale, so no request overflows.
    """
    x = np.asarray(x, dtype=np.float64)
    centred = x - x.mean(axis=-1, keepdims=True)
    return centred / centred.std(axis=-1, keepdims=True)


# -- statistics ---------------------------------------------------------------
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def percentile(values: Sequence[float], p: float) -> float:
    """Exact nearest-rank percentile: an element of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def tail(values: Sequence[float]) -> Optional[Tuple[float, float]]:
    """``(p, value)`` for the highest percentile with at least ten
    samples above its rank, or None when the sample is too small."""
    n = len(values)
    for p in TAIL_PERCENTILES:
        if n - max(1, math.ceil(p / 100.0 * n)) >= 10:
            return p, percentile(values, p)
    return None


# -- correctness ----------------------------------------------------------------
#: DAC step in sequence units (1 mV DAC LSB / 20 mV per unit).
LSB_UNITS = 0.05
#: ADC step in sequence units (2 mV ADC LSB / 20 mV per unit).
ADC_LSB_UNITS = 0.1
#: Rounding margin for values that sit exactly on a limit.
_EPS = 1e-9


def bounds(function: str, p, q) -> Tuple[float, float, float]:
    """``(reference, low, high)``: the software value and the range the
    accelerator's error model allows around it.

    The model: each of the n + m inputs enters through the DAC with up
    to one DAC LSB of quantisation and analog drift, so a distance may
    deviate by (n + m) DAC LSB from the software value.  A thresholded
    function counts comparisons instead: it may resolve any comparison
    that lies within 2 DAC LSB of its threshold either way, so its value
    may sit anywhere between the software values at threshold -/+ 2 DAC
    LSB, give or take two ADC LSBs of analog offset and rounding (well
    under one count, so an off-by-one count falls outside).  An
    overflowed settle (output clipped at the ADC full scale) falls
    outside.
    """
    fn = getattr(software, function)
    ref = float(fn(p, q, **kwargs_for(function)))
    if function in THRESHOLDED:
        a = float(fn(p, q, threshold=THRESHOLD - 2 * LSB_UNITS))
        b = float(fn(p, q, threshold=THRESHOLD + 2 * LSB_UNITS))
        slack = 2 * ADC_LSB_UNITS + _EPS
        return ref, min(a, b) - slack, max(a, b) + slack
    slack = (len(p) + len(q)) * LSB_UNITS
    return ref, ref - slack, ref + slack


def violation(
    label: str, value: float, limits: Tuple[float, float, float]
) -> Optional[str]:
    """None if ``value`` lies within ``limits`` (see :func:`bounds`)."""
    _ref, low, high = limits
    if math.isfinite(value) and low <= value <= high:
        return None
    return f"{label}: {value!r} outside [{low:.6g}, {high:.6g}]"


def relative_error(value: float, ref: float) -> float:
    """Fig. 5's error: absolute below one distance unit, else relative."""
    return abs(value - ref) / max(abs(ref), 1.0)


class Digest:
    """SHA-256 over the exact bits of every simulated output."""

    def __init__(self) -> None:
        self._h = hashlib.sha256()

    def floats(self, *values: Optional[float]) -> None:
        for v in values:
            self._h.update(
                b"N" if v is None else struct.pack("<d", float(v))
            )

    def text(self, *values: str) -> None:
        for v in values:
            self._h.update(v.encode() + b"\0")

    def hexdigest(self) -> str:
        return self._h.hexdigest()


# -- results ----------------------------------------------------------------------
@dataclasses.dataclass
class Rep:
    """One timed repetition."""

    #: Ops attempted, and those of them that raised, were shed or expired.
    ops: int
    failed: int
    seconds: float
    digest: str
    #: Host seconds of each op (closed loops only).
    op_seconds: List[float] = dataclasses.field(default_factory=list)


@dataclasses.dataclass
class Checked:
    """Correctness verdict and quality figures of one rep's outputs."""

    violations: List[str]
    rel_errors: List[float]
    #: Workload-specific deterministic figures (virtual time, quality).
    figures: Dict[str, Tuple[float, str]]


class Workload:
    """Set-up plus a repeatable, timed unit of work."""

    name = ""
    why = ""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rng = np.random.default_rng([seed, _SALT[self.name]])

    def setup(self) -> None:
        """Build the system under test, ready to run a rep."""
        raise NotImplementedError

    def run_rep(self) -> Tuple[Rep, object]:
        """Run one rep on the current set-up; returns it and its outputs."""
        raise NotImplementedError

    def check(self, outputs) -> Checked:
        raise NotImplementedError

    def layer_figures(self, outputs) -> Dict[str, float]:
        """Per-layer figures the outputs determine (no host timing)."""
        hits, misses = outputs["template"]
        return {
            "accelerator.template.hit_ratio": hits / max(hits + misses, 1),
            "accelerator.template.misses": misses,
        }

    #: Whether every rep needs a fresh :meth:`setup` (serve workloads:
    #: a reused pool would answer the replayed stream from its cache).
    setup_per_rep = False


# -- serving ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class Request:
    function: str
    p: np.ndarray
    q: np.ndarray
    arrival_s: float


class _ServeWorkload(Workload):
    """Open-loop Poisson stream into a 4-shard default-config pool."""

    shards = 4
    setup_per_rep = True
    #: Shapes of the template bank and of the chips' warm-up.
    row_length = 12
    matrix_length = 8

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.requests = self.make_requests()
        self.pool: Optional[AcceleratorPool] = None
        self._warm_rng = np.random.default_rng([seed, _SALT[self.name], 1])

    def _functions(self, n: int) -> List[str]:
        """``n`` function names in seeded random order, each exactly its
        ``DEFAULT_MIX`` share (largest remainder), so every seed asks for
        the same amount of work of each kind."""
        names = sorted(DEFAULT_MIX)
        total = sum(DEFAULT_MIX.values())
        quotas = [n * DEFAULT_MIX[f] / total for f in names]
        counts = [int(q) for q in quotas]
        by_remainder = sorted(range(len(names)), key=lambda k: counts[k] - quotas[k])
        for k in by_remainder[: n - sum(counts)]:
            counts[k] += 1
        picks = [f for f, c in zip(names, counts) for _ in range(c)]
        return [picks[k] for k in self.rng.permutation(n)]

    def _arrivals(self, n: int, rate_hz: float) -> np.ndarray:
        return np.cumsum(self.rng.exponential(1.0 / rate_hz, size=n))

    def make_requests(self) -> List[Request]:
        raise NotImplementedError

    def warm_chip(self) -> DistanceAccelerator:
        """A chip whose graph templates for the bank shapes are built,
        using other series than the stream's."""
        chip = DistanceAccelerator()
        for function in FUNCTIONS:
            kw = kwargs_for(function)
            if get_config(function).structure == "row":
                p, q = znorm(self._warm_rng.normal(size=(2, self.row_length)))
                chip.batch_pairs(function, [(p, q)], **kw)
            else:
                p, q = znorm(
                    self._warm_rng.normal(size=(2, self.matrix_length))
                )
                chip.compute(function, p, q, **kw)
        return chip

    def setup(self) -> None:
        self.pool = AcceleratorPool(
            n_shards=self.shards,
            config=PoolConfig(),
            accelerator_factory=self.warm_chip,
        )

    def run_rep(self) -> Tuple[Rep, object]:
        pool = self.pool
        assert pool is not None, "setup() must run first"
        before = _template_totals([s.accelerator for s in pool.shards])
        failed = 0
        ids: List[Optional[int]] = []
        started = time.perf_counter()
        for r in self.requests:
            try:
                ids.append(
                    pool.submit(
                        r.function,
                        r.p,
                        r.q,
                        arrival_s=r.arrival_s,
                        **kwargs_for(r.function),
                    )
                )
            except Exception:  # noqa: BLE001 - a raised error is a failed op
                ids.append(None)
                failed += 1
        responses = pool.drain()
        seconds = time.perf_counter() - started
        after = _template_totals([s.accelerator for s in pool.shards])
        failed += sum(1 for r in responses if r.status != "ok")
        outputs = {
            "ids": ids,
            "responses": responses,
            "makespan_s": pool.makespan_s,
            "energy_j": pool.energy_j,
            "utilisations": pool.utilisations(),
            "counters": dict(pool.metrics.as_dict()["counters"]),
            "template": (after[0] - before[0], after[1] - before[1]),
            "cache": (pool.cache.hits, pool.cache.misses),
        }
        digest = Digest()
        digest.floats(pool.makespan_s, pool.energy_j)
        for resp in responses:
            digest.text(resp.status, resp.function)
            digest.floats(
                resp.request_id,
                resp.value,
                resp.arrival_s,
                resp.start_s,
                resp.finish_s,
                resp.shard,
                resp.batch_size,
            )
        rep = Rep(
            ops=len(self.requests),
            failed=failed,
            seconds=seconds,
            digest=digest.hexdigest(),
        )
        return rep, outputs

    def check(self, outputs) -> Checked:
        responses = outputs["responses"]
        problems: List[str] = []
        submitted = [i for i in outputs["ids"] if i is not None]
        answered = [r.request_id for r in responses]
        if sorted(answered) != sorted(submitted) or len(
            set(answered)
        ) != len(answered):
            problems.append(
                f"{len(answered)} responses for {len(submitted)} "
                "submitted requests (need exactly one each)"
            )
        by_id = dict(zip(outputs["ids"], self.requests))
        rel: List[float] = []
        limits: Dict[Tuple, Tuple[float, float, float]] = {}
        for resp in responses:
            if resp.status != "ok":
                continue
            req = by_id[resp.request_id]
            key = (req.function, req.p.tobytes(), req.q.tobytes())
            if key not in limits:
                limits[key] = bounds(req.function, req.p, req.q)
            bad = violation(
                f"request {resp.request_id} ({req.function} "
                f"n={len(req.p)} m={len(req.q)})",
                resp.value,
                limits[key],
            )
            if bad is not None:
                problems.append(bad)
            rel.append(relative_error(resp.value, limits[key][0]))
        ok = [r for r in responses if r.status == "ok"]
        # A shed or expired request misses any latency limit: it stays
        # in the sample as an infinite latency.
        latency_ns = [
            (r.finish_s - r.arrival_s) * 1e9 if r.status == "ok" else math.inf
            for r in responses
        ]
        counters = outputs["counters"]
        makespan = outputs["makespan_s"]
        figures: Dict[str, Tuple[float, str]] = {
            "virt_qps": (
                len(ok) / makespan if makespan > 0 else 0.0,
                "q/s",
            ),
            "virt_energy_nj_per_op": (
                outputs["energy_j"] / len(ok) * 1e9 if ok else 0.0,
                "nJ",
            ),
            "virt_latency_samples": (len(latency_ns), "count"),
        }
        if latency_ns:
            figures["virt_latency_p50_ns"] = (
                percentile(latency_ns, 50.0),
                "ns",
            )
            figures["virt_latency_p99_ns"] = (
                percentile(latency_ns, 99.0),
                "ns",
            )
        figures["overflow"] = (counters.get("overflow", 0), "count")
        return Checked(problems, rel, figures)

    def layer_figures(self, outputs) -> Dict[str, float]:
        responses = outputs["responses"]
        counters = outputs["counters"]
        waits = [(r.start_s - r.arrival_s) * 1e9 for r in responses]
        hits, misses = outputs["cache"]
        batches = counters.get("batches", 0)
        utilisations = outputs["utilisations"]
        figures = super().layer_figures(outputs)
        figures.update(
            {
                "serving.pool.queue_wait_ns_p50": percentile(waits, 50.0),
                "serving.pool.queue_wait_ns_p99": percentile(waits, 99.0),
                "serving.pool.batches": batches,
                "serving.pool.batch_size_mean": (
                    counters.get("batched_requests", 0) / batches
                    if batches
                    else 0.0
                ),
                "serving.pool.reconfigurations": counters.get(
                    "reconfigurations", 0
                ),
                "serving.pool.util_min": min(utilisations),
                "serving.pool.util_max": max(utilisations),
                "serving.pool.shed": counters.get("shed", 0),
                "serving.cache.hit_ratio": hits / max(hits + misses, 1),
            }
        )
        return figures


def _template_totals(chips: Sequence[DistanceAccelerator]) -> Tuple[int, int]:
    """Summed template-cache (hits, misses) of ``chips``."""
    infos = [chip.template_cache_info() for chip in chips]
    return (
        sum(int(i["hits"]) for i in infos),
        sum(int(i["misses"]) for i in infos),
    )


class ServeRepeat(_ServeWorkload):
    name = "serve_repeat"
    why = (
        "repeated pairs from a small bank: ~90% result-cache hits on warm "
        "templates, so host time goes to the pool's front end"
    )
    n_requests = 4000
    bank_size = 8
    rate_hz = 5.0e7

    def make_requests(self) -> List[Request]:
        n = self.n_requests
        banks = {
            f: znorm(
                self.rng.normal(
                    size=(
                        self.bank_size,
                        self.row_length
                        if get_config(f).structure == "row"
                        else self.matrix_length,
                    )
                )
            )
            for f in FUNCTIONS
        }
        functions = self._functions(n)
        arrivals = self._arrivals(n, self.rate_hz)
        pairs = self.rng.integers(0, self.bank_size, size=(n, 2))
        return [
            Request(f, banks[f][i], banks[f][j], float(t))
            for f, (i, j), t in zip(functions, pairs, arrivals)
        ]


class ServeUnique(_ServeWorkload):
    name = "serve_unique"
    why = (
        "every pair fresh, shapes outnumber the 256-entry template cache: "
        "cache writes only, template builds, settles and batching under load"
    )
    n_requests = 600
    #: Busy shards (utilisation ~0.4) without shedding.
    rate_hz = 1.0e8
    row_lengths = (4, 12)
    matrix_lengths = (3, 12)

    def _shapes(self, function: str):
        """Endless ``(n, m)`` shapes for ``function``: seeded shuffles of
        the whole shape grid, one after another, so every seed spreads a
        function's requests evenly over the grid."""
        if get_config(function).structure == "row":
            low, high = self.row_lengths
            grid = [(n, n) for n in range(low, high + 1)]
        else:
            low, high = self.matrix_lengths
            sizes = range(low, high + 1)
            grid = [(n, m) for n in sizes for m in sizes]
        while True:
            for k in self.rng.permutation(len(grid)):
                yield grid[k]

    def make_requests(self) -> List[Request]:
        n = self.n_requests
        functions = self._functions(n)
        arrivals = self._arrivals(n, self.rate_hz)
        shapes = {f: self._shapes(f) for f in FUNCTIONS}
        requests = []
        for f, t in zip(functions, arrivals):
            n_p, n_q = next(shapes[f])
            p = znorm(self.rng.normal(size=n_p))
            q = znorm(self.rng.normal(size=n_q))
            requests.append(Request(f, p, q, float(t)))
        return requests


# -- knn ----------------------------------------------------------------------------
class _RecordingBackend(AcceleratorBackend):
    """Accelerator backend that keeps each 1-vs-rest distance row and
    the host instant it was returned (one row per classified query)."""

    def __init__(self, accelerator: DistanceAccelerator) -> None:
        super().__init__(accelerator)
        self.rows: List[np.ndarray] = []
        self.done: List[float] = []

    def batch(self, function, query, candidates, **kwargs):
        row = super().batch(function, query, candidates, **kwargs)
        self.rows.append(np.array(row, dtype=np.float64))
        self.done.append(time.perf_counter())
        return row


class KnnDtw(Workload):
    name = "knn_dtw"
    why = (
        "leave-one-out 1-NN DTW on one warm chip: mining, backends and "
        "single-tile compute, no pool and no transient"
    )
    n_series = 60
    #: Formalised (z-normalised) series of length n have a DTW distance
    #: of at most 2n along the diagonal, so n = 12 stays below the ADC's
    #: 25.6-unit full scale for every pair.
    length = 12

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        spec = dataclasses.replace(
            UCR_SPECS["OSULeaf"], seed=int(self.rng.integers(2**31))
        )
        data = generate_dataset(spec)
        x = np.concatenate([data.train_x, data.test_x])
        y = np.concatenate([data.train_y, data.test_y])
        pick = self.rng.choice(len(x), size=self.n_series, replace=False)
        self.x = [formalise(x[i], self.length) for i in pick]
        self.y = y[pick]
        self.backend: Optional[_RecordingBackend] = None

    def setup(self) -> None:
        chip = DistanceAccelerator()
        other = znorm(self.rng.normal(size=(2, self.length)))
        chip.compute("dtw", other[0], other[1])
        self.backend = _RecordingBackend(chip)

    def run_rep(self) -> Tuple[Rep, object]:
        backend = self.backend
        assert backend is not None, "setup() must run first"
        backend.rows, backend.done = [], []
        before = _template_totals([backend.accelerator])
        failed = 0
        started = time.perf_counter()
        try:
            accuracy = knn_module.leave_one_out_accuracy(
                self.x, self.y, "dtw", backend=backend
            )
        except Exception:  # noqa: BLE001 - a raised error fails the pass
            accuracy = float("nan")
            failed = len(self.x)
        seconds = time.perf_counter() - started
        after = _template_totals([backend.accelerator])
        marks = [started] + backend.done
        op_seconds = [b - a for a, b in zip(marks, marks[1:])]
        digest = Digest()
        digest.floats(accuracy)
        for row in backend.rows:
            digest.floats(*row)
        rep = Rep(
            ops=len(self.x),
            failed=failed,
            seconds=seconds,
            digest=digest.hexdigest(),
            op_seconds=op_seconds,
        )
        return rep, {
            "accuracy": accuracy,
            "rows": list(backend.rows),
            "template": (after[0] - before[0], after[1] - before[1]),
        }

    def check(self, outputs) -> Checked:
        n = len(self.x)
        rows = outputs["rows"]
        problems: List[str] = []
        if len(rows) != n or any(len(r) != n - 1 for r in rows):
            problems.append(
                f"{len(rows)} distance rows for {n} queries"
            )
            return Checked(problems, [], {})
        limits = {}
        soft = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                limits[i, j] = limits[j, i] = bounds("dtw", self.x[i], self.x[j])
                soft[i, j] = soft[j, i] = limits[i, j][0]
        rel: List[float] = []
        agree = accel_ok = soft_ok = 0
        for i, row in enumerate(rows):
            others = [j for j in range(n) if j != i]
            for j, value in zip(others, row):
                bad = violation(f"query {i} vs {j}", float(value), limits[i, j])
                if bad is not None:
                    problems.append(bad)
                rel.append(relative_error(float(value), soft[i, j]))
            accel_nn = others[int(np.argmin(row))]
            soft_nn = others[int(np.argmin(soft[i, others]))]
            agree += accel_nn == soft_nn
            accel_ok += self.y[accel_nn] == self.y[i]
            soft_ok += self.y[soft_nn] == self.y[i]
        if not math.isclose(outputs["accuracy"], accel_ok / n):
            problems.append(
                f"leave-one-out accuracy {outputs['accuracy']!r} does not "
                f"match the returned distances ({accel_ok / n!r})"
            )
        figures = {
            "nn_agreement": (agree / n, "ratio"),
            "knn_accuracy_gap": ((soft_ok - accel_ok) / n, "ratio"),
            "knn_accuracy": (accel_ok / n, "ratio"),
        }
        return Checked(problems, rel, figures)


# -- Fig. 5 ---------------------------------------------------------------------------
class Fig5Converge(Workload):
    name = "fig5_converge"
    why = (
        "Fig. 5 convergence-time measurements, all six functions: the only "
        "workload that runs the transient engine"
    )
    length = 4

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        spec = dataclasses.replace(
            UCR_SPECS["OSULeaf"], seed=int(self.rng.integers(2**31))
        )
        same, different = sample_pairs(
            generate_dataset(spec),
            self.length,
            seed=int(self.rng.integers(2**31)),
        )
        # One measurement per function, alternating the same-class and
        # the different-class pair: a short rep, so a run holds enough
        # reps for a steady median.
        self.ops = [
            (f, *(same, different)[k % 2][:2]) for k, f in enumerate(FUNCTIONS)
        ]
        self.chip: Optional[DistanceAccelerator] = None

    def setup(self) -> None:
        # The paper's Fig. 5 setting: computation only, no converters.
        chip = DistanceAccelerator(quantise_io=False)
        for function in FUNCTIONS:
            p, q = znorm(self.rng.normal(size=(2, self.length)))
            chip.compute(function, p, q, **kwargs_for(function))
        self.chip = chip

    def run_rep(self) -> Tuple[Rep, object]:
        chip = self.chip
        assert chip is not None, "setup() must run first"
        results: List[Tuple[Optional[float], Optional[float]]] = []
        op_seconds: List[float] = []
        failed = 0
        before = _template_totals([chip])
        started = time.perf_counter()
        for function, p, q in self.ops:
            t0 = time.perf_counter()
            try:
                res = chip.compute(
                    function, p, q, measure_time=True, **kwargs_for(function)
                )
                results.append((res.value, res.convergence_time_s))
            except Exception:  # noqa: BLE001 - a raised error is a failed op
                results.append((None, None))
                failed += 1
            op_seconds.append(time.perf_counter() - t0)
        seconds = time.perf_counter() - started
        after = _template_totals([chip])
        digest = Digest()
        for value, t_conv in results:
            digest.floats(value, t_conv)
        rep = Rep(
            ops=len(self.ops),
            failed=failed,
            seconds=seconds,
            digest=digest.hexdigest(),
            op_seconds=op_seconds,
        )
        return rep, {
            "results": results,
            "template": (after[0] - before[0], after[1] - before[1]),
        }

    def check(self, outputs) -> Checked:
        problems: List[str] = []
        rel: List[float] = []
        times: List[float] = []
        for (function, p, q), (value, t_conv) in zip(
            self.ops, outputs["results"]
        ):
            if value is None:
                problems.append(f"{function}: the measurement raised an error")
                continue
            limits = bounds(function, p, q)
            bad = violation(function, value, limits)
            if bad is not None:
                problems.append(bad)
            rel.append(relative_error(value, limits[0]))
            if t_conv is None or not (math.isfinite(t_conv) and t_conv > 0):
                problems.append(
                    f"{function}: convergence time {t_conv!r} is not a "
                    "finite positive time"
                )
            else:
                times.append(t_conv)
        figures = {
            "virt_convergence_ns_mean": (
                float(np.mean(times)) * 1e9 if times else 0.0,
                "ns",
            )
        }
        return Checked(problems, rel, figures)


WORKLOADS: Dict[str, Callable[..., Workload]] = {
    cls.name: cls for cls in (ServeRepeat, ServeUnique, KnnDtw, Fig5Converge)
}

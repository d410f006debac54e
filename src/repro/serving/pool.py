"""Sharded accelerator pool: the data-center request path.

``AcceleratorPool`` is the serving layer the paper's Section 1 scenario
implies but never builds: N reconfigurable accelerator chips behind one
submit/drain interface, with

* **sharding** — least-loaded placement with same-function affinity
  (reconfiguration costs transmission-gate and memristor writes, so
  keeping a function resident on a shard is free throughput);
* **dynamic batching** — row-structure queries (hamming/manhattan)
  arriving within a window coalesce into one
  :meth:`DistanceAccelerator.batch_pairs` settle, the architecture's
  1-vs-many parallelism;
* **result caching** — an LRU keyed on (function, quantised inputs,
  weights) absorbs repeated queries before they touch a shard;
* **bounded queues** — per-shard admission control sheds load instead
  of queueing unboundedly (overload protection);
* **online BIST & failover** — shards are periodically probed with
  golden vectors (:mod:`repro.faults.bist`); a shard whose measured
  error exceeds the health thresholds is quarantined, its in-flight
  batch re-admitted to healthy shards (rerouted through the retry
  policy), the result cache dropped (it may hold faulted values),
  and — when auto-repair is on — the chip is recalibrated
  (:mod:`repro.faults.repair`) and requalified before it serves
  again;
* **resilience** (:mod:`repro.serving.resilience`) — per-request
  virtual-time **deadlines** that propagate into batching windows and
  fail fast instead of settling doomed work; per-shard **circuit
  breakers** that rate-limit re-admission of flapping shards;
  optional **hedged requests** that race a second shard once the
  queue wait crosses a latency percentile and cancel the loser; and a
  seeded **retry policy** giving shed or quarantine-displaced
  requests exponential-backoff re-arrival times instead of hammering
  the same congested instant;
* **metrics** — counters, latency histograms and per-shard utilisation
  exported as dict/JSON (including the ``faults_*`` reliability
  counters, ``deadline_exceeded``, ``degraded_requests``, hedging
  counters and per-shard breaker states).

Scheduling runs in *virtual time*: every request carries an arrival
timestamp, service durations come from the accelerator's calibrated
(or measured) timing model, and the event loop replays the stream
deterministically.  The computations themselves are real — every
settle executes on the shard's simulated analog array — so the pool
returns true distance values while modelling data-center latency.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from ..accelerator import DistanceAccelerator, ReconfigurationCost
from ..accelerator.array import check_options
from ..accelerator.controller import operating_point
from ..accelerator.configurations import get_config
from ..accelerator.power import accelerator_power
from ..baselines.literature import CALIBRATED_OURS_PER_ELEMENT_S
from ..errors import (
    CapacityError,
    CircuitOpenError,
    ConfigurationError,
    DeadlineExceededError,
    ShardUnhealthyError,
)
from ..validation import as_sequence, require_same_length
from .batcher import DynamicBatcher
from .cache import ResultCache
from .metrics import MetricsRegistry
from .resilience import BreakerConfig, CircuitBreaker, RetryPolicy


@dataclasses.dataclass(frozen=True)
class PoolConfig:
    """Tuning knobs of one pool deployment.

    Attributes
    ----------
    queue_depth:
        Maximum unfinished requests a shard accepts before shedding.
    batch_window_s:
        Virtual seconds a row-structure query waits for companions.
    max_batch:
        Flush a batch early once this many queries coalesced.
    enable_batching:
        Route row-structure queries through the dynamic batcher.
    cache_capacity:
        LRU entries (0 disables caching).
    cache_resolution:
        Input quantisation grid of the cache key, in sequence units.
    latency_model:
        ``"calibrated"`` (per-element constants; fast) or
        ``"measured"`` (probe analog convergence per operating point).
    bist_interval_s:
        Virtual seconds between periodic BIST sweeps during ``drain``
        (0 disables scheduling; :meth:`AcceleratorPool.run_bist` can
        still be called explicitly).
    bist_vectors, bist_length:
        Probe-set size forwarded to the :class:`~repro.faults.bist.
        BistRunner`.
    bist_degraded_threshold, bist_failed_threshold:
        Relative-error health classification bounds.
    auto_repair:
        Recalibrate a flagged shard (re-tune drifted ratios, remap
        dead PEs, trim converter offsets) and requalify it before it
        serves again.  A shard still *failed* after repair stays
        quarantined.
    fault_max_retries:
        Times one in-flight request may be re-admitted to another
        shard *immediately* after its shard is quarantined.  Past
        that, re-admission is delayed through ``retry`` backoff — a
        request is only shed outright when no healthy shard exists.
    default_deadline_s:
        Optional per-request completion budget, in virtual seconds
        from arrival, applied when :meth:`AcceleratorPool.submit` is
        not given an explicit ``deadline_s`` (``None`` leaves
        requests deadline-free).
    retry:
        :class:`~repro.serving.resilience.RetryPolicy` spacing the
        re-arrival of quarantine-displaced requests.
    breaker:
        :class:`~repro.serving.resilience.BreakerConfig` applied to
        every shard's circuit breaker.  The default reproduces the
        pre-breaker behaviour (requalification re-admits at once);
        raise ``cooldown_s`` to rate-limit flapping shards.
    enable_hedging:
        Race a second shard when a request's projected queue wait
        exceeds the ``hedge_percentile`` of observed latency, taking
        the earlier projected finish and cancelling the loser before
        it settles.
    hedge_percentile, hedge_min_samples:
        The trigger percentile, and the minimum latency-histogram
        population before hedging activates (percentiles of a nearly
        empty histogram are noise).
    """

    queue_depth: int = 64
    batch_window_s: float = 2.0e-6
    max_batch: int = 32
    enable_batching: bool = True
    cache_capacity: int = 4096
    cache_resolution: float = 1.0e-6
    latency_model: str = "calibrated"
    bist_interval_s: float = 0.0
    bist_vectors: int = 2
    bist_length: int = 8
    bist_degraded_threshold: float = 0.01
    bist_failed_threshold: float = 0.10
    auto_repair: bool = True
    fault_max_retries: int = 3
    default_deadline_s: Optional[float] = None
    retry: RetryPolicy = dataclasses.field(default_factory=RetryPolicy)
    breaker: BreakerConfig = dataclasses.field(
        default_factory=BreakerConfig
    )
    enable_hedging: bool = False
    hedge_percentile: float = 95.0
    hedge_min_samples: int = 32

    def __post_init__(self) -> None:
        if self.queue_depth < 1:
            raise ConfigurationError("queue_depth must be >= 1")
        if self.batch_window_s < 0:
            raise ConfigurationError("batch window must be >= 0")
        if self.max_batch < 1:
            raise ConfigurationError("max_batch must be >= 1")
        if self.latency_model not in ("calibrated", "measured"):
            raise ConfigurationError(
                "latency_model must be 'calibrated' or 'measured'"
            )
        if self.bist_interval_s < 0:
            raise ConfigurationError("bist_interval_s must be >= 0")
        if not (
            0.0
            < self.bist_degraded_threshold
            < self.bist_failed_threshold
        ):
            raise ConfigurationError(
                "need 0 < bist_degraded_threshold "
                "< bist_failed_threshold"
            )
        if self.fault_max_retries < 0:
            raise ConfigurationError(
                "fault_max_retries must be >= 0"
            )
        if (
            self.default_deadline_s is not None
            and self.default_deadline_s <= 0
        ):
            raise ConfigurationError(
                "default_deadline_s must be > 0"
            )
        if not 50.0 <= self.hedge_percentile <= 100.0:
            raise ConfigurationError(
                "hedge_percentile must be in [50, 100]"
            )
        if self.hedge_min_samples < 1:
            raise ConfigurationError(
                "hedge_min_samples must be >= 1"
            )


@dataclasses.dataclass
class PoolRequest:
    """One queued distance query.

    ``deadline_s`` is an absolute virtual-time completion deadline
    (``None`` = unbounded); the pool fails requests fast once it is
    unreachable rather than settling doomed work.
    """

    id: int
    function: str
    p: np.ndarray
    q: np.ndarray
    arrival_s: float
    weights: Optional[np.ndarray] = None
    kwargs: Dict = dataclasses.field(default_factory=dict)
    deadline_s: Optional[float] = None
    #: Batching hint derived from the deadline: latest instant this
    #: request's bucket may flush and still finish in time.
    flush_by_s: Optional[float] = None


@dataclasses.dataclass
class PoolResponse:
    """Outcome of one request.

    ``status`` is ``"ok"``, ``"shed"`` (rejected by admission
    control) or ``"deadline"`` (virtual-time deadline passed before a
    value could be delivered); ``value`` is ``None`` unless ``"ok"``.
    Cached responses complete at their arrival instant.  ``hedged``
    marks responses whose placement raced two shards.
    """

    request_id: int
    function: str
    status: str
    value: Optional[float]
    arrival_s: float
    start_s: float
    finish_s: float
    shard: Optional[int] = None
    cached: bool = False
    batched: bool = False
    batch_size: int = 1
    hedged: bool = False

    @property
    def latency_s(self) -> float:
        return self.finish_s - self.arrival_s


class _Shard:
    """One accelerator chip plus its queue-state bookkeeping."""

    def __init__(
        self,
        index: int,
        accelerator: DistanceAccelerator,
        config: PoolConfig,
    ) -> None:
        self.index = index
        self.accelerator = accelerator
        self.batcher = DynamicBatcher(
            window_s=config.batch_window_s,
            max_batch=min(
                config.max_batch, accelerator.params.array_rows
            ),
        )
        self.busy_until = 0.0
        self.busy_s = 0.0
        self.current_function: Optional[str] = None
        self.served = 0
        self.batches = 0
        self.health = "healthy"
        self.quarantined = False
        self.breaker = CircuitBreaker(config.breaker)
        self.last_bist_s: Optional[float] = None
        self._unfinished: List[float] = []

    def depth_at(self, now: float) -> int:
        """Unfinished work assigned to this shard at instant ``now``."""
        self._unfinished = [f for f in self._unfinished if f > now]
        return len(self._unfinished) + self.batcher.pending()

    def assign(self, finish_s: float, count: int = 1) -> None:
        self._unfinished.extend([finish_s] * count)


class AcceleratorPool:
    """N sharded accelerators behind one batching/caching front end."""

    def __init__(
        self,
        n_shards: int = 4,
        config: Optional[PoolConfig] = None,
        accelerator_factory: Optional[
            Callable[[], DistanceAccelerator]
        ] = None,
        reconfiguration: Optional[ReconfigurationCost] = None,
    ) -> None:
        if n_shards < 1:
            raise ConfigurationError("need at least one shard")
        self.config = config if config is not None else PoolConfig()
        self._factory = (
            accelerator_factory
            if accelerator_factory is not None
            else DistanceAccelerator
        )
        self.shards = [
            _Shard(i, self._factory(), self.config)
            for i in range(n_shards)
        ]
        # Startup ERC: a shard that passes construction may still have
        # been built by a custom factory with validation disabled, or
        # mutated afterwards — re-verify every chip before it serves.
        from ..check import check_accelerator

        for shard in self.shards:
            check_accelerator(shard.accelerator).raise_if_errors(
                f"AcceleratorPool startup (shard {shard.index})"
            )
        self.reconfiguration = (
            reconfiguration
            if reconfiguration is not None
            else ReconfigurationCost()
        )
        self.cache = ResultCache(
            capacity=self.config.cache_capacity,
            resolution=self.config.cache_resolution,
        )
        self.metrics = MetricsRegistry()
        self.responses: Dict[int, PoolResponse] = {}
        self._pending: List[PoolRequest] = []
        self._next_id = 0
        self._virtual_now = 0.0
        self._first_arrival: Optional[float] = None
        self._last_finish = 0.0
        self._settle_cache: Dict[Tuple, float] = {}
        self._energy_j = 0.0
        self._row_busy_s = 0.0
        self._bist_runner = None
        self._last_bist_s = 0.0
        self._retries: Dict[int, int] = {}
        self._retry_rng = self.config.retry.rng()
        self.last_reports: Dict[int, object] = {}
        self.last_repairs: Dict[int, object] = {}
        # Reliability counters exist (at zero) from the first
        # snapshot, so dashboards see the series before any fault.
        for name in (
            "faults_bist_runs",
            "faults_bist_detections",
            "faults_quarantined",
            "faults_requalified",
            "faults_retried",
            "faults_repaired_sites",
            "faults_dead_sites",
            "retry_backoffs",
            "deadline_exceeded",
            "degraded_requests",
            "hedges",
            "hedges_won",
            "shards_replaced",
        ):
            self.metrics.counter(name)

    # -- client API ----------------------------------------------------------
    def submit(
        self,
        function: str,
        p,
        q,
        weights=None,
        arrival_s: Optional[float] = None,
        deadline_s: Optional[float] = None,
        **kwargs,
    ) -> int:
        """Queue one query; returns its request id.

        ``arrival_s`` defaults to the pool's current virtual time, so
        offline callers can ignore timestamps entirely.  ``deadline_s``
        is an *absolute* virtual instant by which the answer must be
        ready; omitted, it falls back to arrival plus the pool's
        ``default_deadline_s`` budget (when configured).
        """
        config = get_config(function)
        # Admission runs the accelerator's own argument check: a request
        # no shard can run is refused here, not failed inside drain().
        check_options(config, **kwargs)
        p_arr = as_sequence(p, "p")
        q_arr = as_sequence(q, "q")
        if not config.supports_unequal_lengths:
            require_same_length(p_arr, q_arr)
        arrival = (
            float(arrival_s)
            if arrival_s is not None
            else self._virtual_now
        )
        if arrival < 0:
            raise ConfigurationError("arrival time must be >= 0")
        if deadline_s is not None:
            deadline: Optional[float] = float(deadline_s)
        elif self.config.default_deadline_s is not None:
            deadline = arrival + self.config.default_deadline_s
        else:
            deadline = None
        request = PoolRequest(
            id=self._next_id,
            function=config.name,
            p=p_arr,
            q=q_arr,
            arrival_s=arrival,
            weights=(
                None
                if weights is None
                else np.asarray(weights, dtype=np.float64)
            ),
            kwargs=dict(kwargs),
            deadline_s=deadline,
        )
        self._next_id += 1
        self._pending.append(request)
        self.metrics.counter("requests").inc()
        return request.id

    def drain(self) -> List[PoolResponse]:
        """Serve every pending request; returns their responses."""
        requests = sorted(
            self._pending, key=lambda r: (r.arrival_s, r.id)
        )
        self._pending = []
        for request in requests:
            if self._first_arrival is None:
                self._first_arrival = request.arrival_s
            self._maybe_bist(request.arrival_s)
            self._flush(request.arrival_s)
            self._admit(request)
        self._flush()
        self._virtual_now = max(self._virtual_now, self._last_finish)
        done = [self.responses[r.id] for r in requests]
        return sorted(done, key=lambda resp: resp.request_id)

    def serve(self, queries: Sequence[Tuple]) -> List[PoolResponse]:
        """Submit ``(function, p, q)``-style tuples and drain."""
        for query in queries:
            self.submit(*query)
        return self.drain()

    @property
    def virtual_now(self) -> float:
        return self._virtual_now

    # -- scheduling ----------------------------------------------------------
    def _admit(self, request: PoolRequest) -> None:
        key = self._cache_key(request)
        cached = self.cache.get(key)
        self.metrics.counter(
            "cache_hits" if cached is not None else "cache_misses"
        ).inc()
        if cached is not None:
            self._respond(request, "ok", value=cached, cached=True)
            return

        shard = self._pick_shard(request)
        flush_by = None
        if request.deadline_s is not None:
            # Deadline fail-fast: when even the optimistic single-settle
            # estimate cannot land before the deadline, expire now
            # instead of burning a settle on a doomed request.
            estimate = _estimate_service(request, shard.accelerator)
            earliest = max(request.arrival_s, shard.busy_until) + estimate
            if (
                request.deadline_s < request.arrival_s
                or earliest > request.deadline_s
            ):
                self._respond(request, "deadline", shard=shard)
                return
            flush_by = request.deadline_s - estimate
        if shard.depth_at(request.arrival_s) >= self.config.queue_depth:
            self._respond(request, "shed", shard=shard)
            return

        if not self._batchable(request, shard):
            self._execute_single(shard, request)
            return
        shard.breaker.acquire_probe(request.arrival_s)
        request.flush_by_s = flush_by
        full = shard.batcher.add(
            self._batch_key(request),
            request,
            request.arrival_s,
            flush_by=flush_by,
        )
        if full is not None:
            self._execute_batch(shard, full, request.arrival_s)

    def _batchable(self, request: PoolRequest, shard: _Shard) -> bool:
        if not self.config.enable_batching:
            return False
        if not shard.accelerator.fits_row(
            request.function, request.p.shape[0]
        ):
            return False
        # Only kwargs the batched settle understands may coalesce.
        return set(request.kwargs) <= {"threshold"}

    def _batch_key(self, request: PoolRequest) -> Hashable:
        return (
            request.function,
            tuple(sorted(request.kwargs.items())),
        )

    def _cache_key(self, request: PoolRequest) -> Hashable:
        return self.cache.key(
            request.function,
            request.p,
            request.q,
            weights=request.weights,
            extra=tuple(sorted(request.kwargs.items())),
        )

    def _active_shards(self) -> List[_Shard]:
        return [s for s in self.shards if not s.quarantined]

    def _placeable_shards(self, now: float) -> List[_Shard]:
        """Active shards whose breaker admits a request at ``now``."""
        return [
            s
            for s in self._active_shards()
            if s.breaker.available(now)
        ]

    def _pick_shard(self, request: PoolRequest) -> _Shard:
        """Least-loaded healthy shard; function affinity breaks ties."""
        placeable = self._placeable_shards(request.arrival_s)
        if not placeable:
            active = self._active_shards()
            if not active:
                raise ShardUnhealthyError(
                    f"all {len(self.shards)} shards are quarantined; "
                    f"request {request.id} ({request.function}) cannot "
                    "be served — repair or replace the pool"
                )
            raise CircuitOpenError(
                f"all {len(active)} active shards sit behind open "
                f"circuit breakers at t={request.arrival_s:.3g}s; "
                f"request {request.id} ({request.function}) must "
                "wait out the cooldown or degrade to the digital "
                "fallback"
            )
        batch_key = self._batch_key(request)

        def score(shard: _Shard) -> Tuple:
            affinity = (
                0
                if (
                    shard.batcher.pending_for(batch_key) > 0
                    or shard.current_function == request.function
                )
                else 1
            )
            return (
                shard.depth_at(request.arrival_s),
                affinity,
                shard.busy_until,
                shard.index,
            )

        return min(placeable, key=score)

    def _flush(self, now: Optional[float] = None) -> None:
        """Execute every batch due at ``now``; with no ``now`` (end of
        stream), every batch still open."""
        for shard in self.shards:
            batcher = shard.batcher
            ready = batcher.flush() if now is None else batcher.due(now)
            for _, items in ready:
                dispatch = batcher.dispatch_time(
                    items, items[0].arrival_s
                )
                self._execute_batch(shard, items, dispatch)

    # -- reliability ---------------------------------------------------------
    def inject_faults(self, injector, indices=None) -> Dict[int, object]:
        """Stamp the injector's fault scenario onto shards.

        ``indices`` selects shards (default: all).  This is the
        experiment harness's act — it simulates nature degrading the
        chips — so nothing is quarantined here; detection is BIST's
        job.  Returns the attached fault states by shard index.
        """
        targets = (
            self.shards
            if indices is None
            else [self.shards[i] for i in indices]
        )
        return {
            shard.index: injector.inject(
                shard.accelerator, index=shard.index
            )
            for shard in targets
        }

    def _bist(self):
        if self._bist_runner is None:
            from ..faults.bist import BistRunner

            self._bist_runner = BistRunner(
                n_vectors=self.config.bist_vectors,
                length=self.config.bist_length,
                degraded_threshold=self.config.bist_degraded_threshold,
                failed_threshold=self.config.bist_failed_threshold,
            )
        return self._bist_runner

    def _maybe_bist(self, now: float) -> None:
        interval = self.config.bist_interval_s
        if interval <= 0:
            return
        if now - self._last_bist_s >= interval:
            self._flush(now)
            self.run_bist(now=now)

    def run_bist(self, now: Optional[float] = None) -> Dict[int, object]:
        """One golden-vector health sweep over the active shards.

        Flagged shards are quarantined (in-flight batches re-admitted
        to healthy shards, result cache dropped) and, with
        ``auto_repair``, recalibrated and requalified.  Returns the
        *detection* reports by shard index; post-repair status lands
        in ``shard.health`` and ``last_reports``.
        """
        now = self._virtual_now if now is None else float(now)
        self._last_bist_s = now
        runner = self._bist()
        reports: Dict[int, object] = {}
        for shard in self.shards:
            if shard.quarantined:
                continue
            report = runner.probe(shard.accelerator)
            self.metrics.counter("faults_bist_runs").inc()
            shard.last_bist_s = now
            shard.busy_until = (
                max(shard.busy_until, now) + report.modelled_time_s
            )
            shard.busy_s += report.modelled_time_s
            shard.health = report.status
            reports[shard.index] = report
            self.last_reports[shard.index] = report
            if report.is_healthy:
                shard.breaker.on_success(now)
                continue
            self.metrics.counter("faults_bist_detections").inc()
            self._quarantine(shard, now)
            if not self.config.auto_repair:
                continue
            if shard.accelerator.fault_state is None:
                continue
            self._repair(shard, runner, now)
        return reports

    def _repair(self, shard: _Shard, runner, now: float) -> None:
        """Recalibrate one quarantined shard and requalify it."""
        from ..faults.bist import FAILED
        from ..faults.repair import recalibrate

        repair = recalibrate(shard.accelerator)
        self.last_repairs[shard.index] = repair
        self.metrics.counter("faults_repaired_sites").inc(
            repair.n_retuned
        )
        self.metrics.counter("faults_dead_sites").inc(repair.n_dead)
        verdict = runner.probe(shard.accelerator)
        self.metrics.counter("faults_bist_runs").inc()
        shard.busy_until += verdict.modelled_time_s
        shard.busy_s += verdict.modelled_time_s
        shard.health = verdict.status
        self.last_reports[shard.index] = verdict
        if verdict.status != FAILED:
            shard.quarantined = False
            # The requalification verdict is the breaker's half-open
            # probe.  With the default zero cooldown this closes the
            # breaker at once (PR-3 behaviour); with a configured
            # cooldown the shard stays gated until it expires — the
            # flapping rate limit.
            shard.breaker.on_success(now)
            self.metrics.counter("faults_requalified").inc()

    def _quarantine(
        self, shard: _Shard, now: Optional[float] = None
    ) -> None:
        """Pull one shard out of service and drain its batcher.

        In-flight requests are re-admitted to other shards: the first
        ``fault_max_retries`` displacements of one request re-arrive
        immediately; later ones re-arrive after the pool's seeded
        ``retry`` backoff (so a flapping shard cannot make its
        displaced work hammer one congested instant).  A request is
        shed only when no active shard remains or the backoff budget
        is exhausted too.  The result cache is dropped wholesale — it
        may hold values the faulted chip produced.
        """
        if shard.quarantined:
            return
        now = self._virtual_now if now is None else float(now)
        shard.quarantined = True
        shard.breaker.trip(now)
        self.metrics.counter("faults_quarantined").inc()
        self.cache.clear()
        pending = [
            request
            for _, items in shard.batcher.flush()
            for request in items
        ]
        policy = self.config.retry
        for request in pending:
            retries = self._retries.get(request.id, 0)
            backoff_attempt = retries - self.config.fault_max_retries
            if not self._active_shards() or (
                backoff_attempt >= policy.max_retries
            ):
                self._respond(request, "shed", shard=shard)
                continue
            self._retries[request.id] = retries + 1
            self.metrics.counter("faults_retried").inc()
            if backoff_attempt >= 0:
                # Immediate-retry budget spent: delay the re-arrival.
                delay = policy.backoff_s(
                    backoff_attempt, self._retry_rng
                )
                request.arrival_s = max(request.arrival_s, now) + delay
                self.metrics.counter("retry_backoffs").inc()
            try:
                self._admit(request)
            except ShardUnhealthyError:
                self._respond(request, "shed", shard=shard)

    def replace_shard(
        self,
        index: int,
        accelerator: Optional[DistanceAccelerator] = None,
    ) -> _Shard:
        """Swap a fresh chip into one shard slot (hardware failover).

        Models the operator action a FAILED verdict calls for: the
        condemned chip comes out, a factory-fresh one (or the given
        ``accelerator``) goes in, and the slot re-enters rotation.
        The slot's circuit breaker deliberately survives replacement —
        a slot that keeps condemning chips points at the slot (socket,
        board, cooling), so its grown cooldown keeps rate-limiting
        re-admission until probes prove the new chip out.
        """
        from ..check import check_accelerator

        shard = self.shards[index]
        chip = (
            accelerator
            if accelerator is not None
            else self._factory()
        )
        check_accelerator(chip).raise_if_errors(
            f"AcceleratorPool.replace_shard (shard {index})"
        )
        shard.accelerator = chip
        shard.health = "healthy"
        shard.quarantined = False
        shard.current_function = None
        # Values and settle probes from the old chip are stale.
        self.cache.clear()
        self._settle_cache.clear()
        self.metrics.counter("shards_replaced").inc()
        return shard

    # -- execution -----------------------------------------------------------
    def _reconfigure(self, shard: _Shard, function: str) -> float:
        if shard.current_function == function:
            return 0.0
        shard.current_function = function
        self.metrics.counter("reconfigurations").inc()
        return self.reconfiguration.switch_time(0)

    def _settle_time(
        self, shard: _Shard, request: PoolRequest
    ) -> float:
        """One analog settle at this request's operating point."""
        if self.config.latency_model == "calibrated":
            return _calibrated_settle(request)
        key = operating_point(
            request.function,
            request.p,
            request.q,
            request.weights,
            request.kwargs,
        )
        if key not in self._settle_cache:
            probe = shard.accelerator.compute(
                request.function,
                request.p,
                request.q,
                weights=request.weights,
                measure_time=True,
                **request.kwargs,
            )
            self._settle_cache[key] = probe.convergence_time_s
        return self._settle_cache[key]

    def _maybe_hedge(
        self, shard: _Shard, request: PoolRequest
    ) -> Tuple[_Shard, bool]:
        """Race a second shard when the queue wait looks pathological.

        The race is analytic: both shards' projected start instants
        are known exactly in virtual time, so the pool places the
        settle on the winner and "cancels" the loser before it does
        any work (no energy, no busy time) — the modelled equivalent
        of a hedged RPC whose losing leg is torn down on first byte.
        Returns the shard that runs the settle and whether a hedge
        fired.
        """
        if not self.config.enable_hedging:
            return shard, False
        hist = self.metrics.histogram("latency")
        if hist.count < self.config.hedge_min_samples:
            return shard, False
        threshold = hist.percentile(self.config.hedge_percentile)
        projected = (
            max(request.arrival_s, shard.busy_until)
            - request.arrival_s
            + _estimate_service(request, shard.accelerator)
        )
        if projected <= threshold:
            return shard, False
        self.metrics.counter("hedges").inc()
        rivals = [
            s
            for s in self._placeable_shards(request.arrival_s)
            if s.index != shard.index
            and s.depth_at(request.arrival_s)
            < self.config.queue_depth
        ]
        if not rivals:
            return shard, True
        rival = min(
            rivals, key=lambda s: (s.busy_until, s.index)
        )
        if rival.busy_until < shard.busy_until:
            self.metrics.counter("hedges_won").inc()
            return rival, True
        return shard, True

    def _execute_single(
        self, shard: _Shard, request: PoolRequest
    ) -> None:
        shard, hedged = self._maybe_hedge(shard, request)
        # Only the shard that runs the settle holds a half-open probe:
        # the breaker verdict lands on it alone.
        shard.breaker.acquire_probe(request.arrival_s)
        start = max(request.arrival_s, shard.busy_until)
        reconfig = self._reconfigure(shard, request.function)
        result = shard.accelerator.compute(
            request.function,
            request.p,
            request.q,
            weights=request.weights,
            **request.kwargs,
        )
        service = _estimate_service(
            request,
            shard.accelerator,
            reconfig + self._settle_time(shard, request),
        )
        self._complete(
            shard,
            [request],
            [result.value],
            result.overflow,
            start,
            service,
            hedged=hedged,
        )

    def _execute_batch(
        self,
        shard: _Shard,
        requests: List[PoolRequest],
        dispatch_s: float,
    ) -> None:
        start = max(dispatch_s, shard.busy_until)
        function = requests[0].function
        reconfig = self._reconfigure(shard, function)
        weights = (
            None
            if all(r.weights is None for r in requests)
            else [r.weights for r in requests]
        )
        result = shard.accelerator.batch_pairs(
            function,
            [(r.p, r.q) for r in requests],
            weights=weights,
            threshold=float(requests[0].kwargs.get("threshold", 0.0)),
        )
        settle = self._settle_time(
            shard, max(requests, key=lambda r: r.p.shape[0])
        )
        service = (
            reconfig
            + result.passes * settle
            + result.conversion_time_s
        )
        shard.batches += 1
        self.metrics.counter("batches").inc()
        self.metrics.counter("batched_requests").inc(len(requests))
        self.metrics.histogram(
            "batch_size", low=1.0, high=512.0, n_buckets=32
        ).record(len(requests))
        self._complete(
            shard,
            requests,
            result.values,
            result.overflow,
            start,
            service,
            batched=True,
        )

    def _complete(
        self,
        shard: _Shard,
        requests: List[PoolRequest],
        values: Sequence[float],
        overflow: bool,
        start: float,
        service: float,
        batched: bool = False,
        hedged: bool = False,
    ) -> None:
        """Account one settle on ``shard`` and answer its requests.

        Busy time, energy and row-busy time, the breaker verdict
        (overflow, or the worst latency past the SLO), the cache
        writes, and per request an ``"ok"`` answer or a
        ``"deadline"`` one when the finish overran its deadline.
        """
        function = requests[0].function
        finish = start + service
        shard.busy_until = finish
        shard.busy_s += service
        shard.served += len(requests)
        shard.assign(finish, len(requests))
        self._last_finish = max(self._last_finish, finish)
        self._energy_j += service * accelerator_power(function).total_w
        if get_config(function).structure == "row":
            self._row_busy_s += service
        if overflow:
            self.metrics.counter("overflow").inc()
        slo = self.config.breaker.latency_slo_s
        worst_latency = finish - min(r.arrival_s for r in requests)
        if overflow or (slo is not None and worst_latency > slo):
            shard.breaker.on_failure(finish)
        else:
            shard.breaker.on_success(finish)
        for request, value in zip(requests, values):
            self.cache.put(self._cache_key(request), float(value))
            if (
                request.deadline_s is not None
                and finish > request.deadline_s
            ):
                self._respond(
                    request,
                    "deadline",
                    shard=shard,
                    start_s=start,
                    finish_s=finish,
                )
                continue
            self._respond(
                request,
                "ok",
                shard=shard,
                value=float(value),
                start_s=start,
                finish_s=finish,
                batched=batched,
                batch_size=len(requests),
                hedged=hedged,
            )

    def _respond(
        self,
        request: PoolRequest,
        status: str,
        shard: Optional[_Shard] = None,
        value: Optional[float] = None,
        start_s: Optional[float] = None,
        finish_s: Optional[float] = None,
        cached: bool = False,
        batched: bool = False,
        batch_size: int = 1,
        hedged: bool = False,
    ) -> None:
        """Record the one terminal response of ``request``.

        Answers without a settle (cache hits, shedding, admission-time
        expiry) start and finish at the arrival instant.
        """
        arrival = request.arrival_s
        response = PoolResponse(
            request_id=request.id,
            function=request.function,
            status=status,
            value=value,
            arrival_s=arrival,
            start_s=arrival if start_s is None else start_s,
            finish_s=arrival if finish_s is None else finish_s,
            shard=None if shard is None else shard.index,
            cached=cached,
            batched=batched,
            batch_size=batch_size,
            hedged=hedged,
        )
        self.responses[request.id] = response
        if status == "ok":
            self.metrics.counter("served").inc()
            self.metrics.histogram("latency").record(
                response.latency_s
            )
            self.metrics.histogram(
                f"latency.{request.function}"
            ).record(response.latency_s)
        elif status == "shed":
            self.metrics.counter("shed").inc()
        else:
            self.metrics.counter("deadline_exceeded").inc()

    # -- reporting -----------------------------------------------------------
    @property
    def makespan_s(self) -> float:
        if self._first_arrival is None:
            return 0.0
        return max(self._last_finish - self._first_arrival, 0.0)

    @property
    def energy_j(self) -> float:
        return self._energy_j

    @property
    def row_busy_s(self) -> float:
        """Busy seconds spent in row-structure settles (batch or not)."""
        return self._row_busy_s

    def utilisations(self) -> List[float]:
        makespan = self.makespan_s
        if makespan <= 0:
            return [0.0 for _ in self.shards]
        return [
            min(shard.busy_s / makespan, 1.0) for shard in self.shards
        ]

    def snapshot(self) -> Dict:
        """Full metrics export (counters, histograms, shards, cache)."""
        now = self._virtual_now
        for shard, utilisation in zip(
            self.shards, self.utilisations()
        ):
            gauge = self.metrics.gauge(
                f"shard{shard.index}.utilisation"
            )
            gauge.set(utilisation)
            self.metrics.state(f"shard{shard.index}.breaker").set(
                shard.breaker.state(now)
            )
        self.metrics.gauge("faults_healthy_shards").set(
            len(self._active_shards())
        )
        data = self.metrics.as_dict()
        data["shards"] = [
            {
                "index": shard.index,
                "served": shard.served,
                "batches": shard.batches,
                "busy_s": shard.busy_s,
                "current_function": shard.current_function,
                "health": shard.health,
                "quarantined": shard.quarantined,
                "breaker": shard.breaker.snapshot(now),
                "last_bist_s": shard.last_bist_s,
                "faults": (
                    shard.accelerator.fault_state.summary()
                    if shard.accelerator.fault_state is not None
                    else None
                ),
                "template_cache": (
                    shard.accelerator.template_cache_info()
                ),
            }
            for shard in self.shards
        ]
        data["cache"] = self.cache.as_dict()
        data["makespan_s"] = self.makespan_s
        data["energy_j"] = self._energy_j
        return data

    def to_json(self, indent: Optional[int] = None) -> str:
        import json

        return json.dumps(self.snapshot(), indent=indent)


def _calibrated_settle(request: PoolRequest) -> float:
    """Calibrated analog settle: per-element constant times length."""
    n = int(max(request.p.shape[0], request.q.shape[0]))
    return CALIBRATED_OURS_PER_ELEMENT_S[request.function] * n


def _estimate_service(
    request: PoolRequest,
    accelerator: DistanceAccelerator,
    head_s: Optional[float] = None,
) -> float:
    """One single-query service: ``head_s``, then the DAC load of both
    operands, then one ADC read, summed in that order (virtual time is
    compared bit for bit, so the association is part of the model).

    ``head_s`` defaults to the calibrated settle — the cheap estimate
    behind admission fail-fast, batch flush hints, hedging and the
    serial-loop baseline.  A served single request passes its
    reconfiguration plus its (calibrated or measured) settle.
    """
    if head_s is None:
        head_s = _calibrated_settle(request)
    return (
        head_s
        + accelerator.dac.load_time(request.p.size + request.q.size)
        + accelerator.adc.read_time(1)
    )


def serial_loop_time(
    requests: Sequence[PoolRequest],
    accelerator: Optional[DistanceAccelerator] = None,
    reconfiguration: Optional[ReconfigurationCost] = None,
) -> float:
    """Modelled time of the naive per-query loop on ONE accelerator.

    The baseline the pool's batching is judged against: same stream,
    same calibrated timing model, but every query pays its own settle
    and conversion, serialised in arrival order.
    """
    if accelerator is None:
        accelerator = DistanceAccelerator()
    if reconfiguration is None:
        reconfiguration = ReconfigurationCost()
    total = 0.0
    current: Optional[str] = None
    for request in requests:
        if request.function != current:
            total += reconfiguration.switch_time(0)
            current = request.function
        total += _estimate_service(request, accelerator)
    return total


class PoolBackend:
    """:class:`AcceleratorPool` behind the DistanceBackend protocol.

    Lets the mining layer route template-bank searches through the
    pool: a ``batch`` call submits one request per candidate, and the
    dynamic batcher coalesces them into row settles.  Requests shed by
    admission control are re-submitted with seeded exponential-backoff
    re-arrival times (``retry_policy``); a request whose deadline
    passes raises :class:`~repro.errors.DeadlineExceededError`.

    ``pacing_s`` spaces the virtual arrivals of a multi-request call
    (0 submits everything at one instant, the legacy behaviour);
    ``deadline_s`` attaches a per-request completion budget, measured
    from each request's own arrival.
    """

    name = "pool"

    def __init__(
        self,
        pool: Optional[AcceleratorPool] = None,
        max_retries: int = 32,
        retry_policy: Optional[RetryPolicy] = None,
        pacing_s: float = 0.0,
        deadline_s: Optional[float] = None,
    ) -> None:
        self.pool = pool if pool is not None else AcceleratorPool()
        if max_retries < 0:
            raise ConfigurationError("max_retries must be >= 0")
        if pacing_s < 0:
            raise ConfigurationError("pacing_s must be >= 0")
        if deadline_s is not None and deadline_s <= 0:
            raise ConfigurationError("deadline_s must be > 0")
        self.retry_policy = (
            retry_policy
            if retry_policy is not None
            else dataclasses.replace(
                self.pool.config.retry, max_retries=max_retries
            )
        )
        self.max_retries = self.retry_policy.max_retries
        self.pacing_s = float(pacing_s)
        self.deadline_s = deadline_s
        self._rng = self.retry_policy.rng()

    def _submit(
        self, function, p, q, weights, kwargs, arrival_s: float
    ) -> int:
        deadline = (
            None
            if self.deadline_s is None
            else arrival_s + self.deadline_s
        )
        return self.pool.submit(
            function,
            p,
            q,
            weights=weights,
            arrival_s=arrival_s,
            deadline_s=deadline,
            **kwargs,
        )

    def _resolve(self, submitted: List[Tuple[int, Tuple]]) -> np.ndarray:
        """Drain; retry shed requests until all values materialise.

        Each retry round re-submits the shed requests with a fresh
        backoff-delayed arrival, so they land after the congestion
        that shed them has drained rather than at the same instant.
        """
        values: Dict[int, float] = {}
        pending = dict(submitted)
        policy = self.retry_policy
        for attempt in range(policy.max_retries + 1):
            responses = self.pool.drain()
            shed: Dict[int, Tuple] = {}
            for response in responses:
                if response.request_id not in pending:
                    continue
                slot = pending.pop(response.request_id)
                if response.status == "ok":
                    values[slot[0]] = response.value
                elif response.status == "deadline":
                    raise DeadlineExceededError(
                        f"request {response.request_id} "
                        f"({response.function}) missed its "
                        "virtual-time deadline "
                        f"(arrival {response.arrival_s:.3g}s)"
                    )
                else:
                    shed[slot[0]] = slot[1]
            if not shed and not pending:
                break
            for slot, args in shed.items():
                function, p, q, weights, kwargs = args
                delay = policy.backoff_s(
                    min(attempt, policy.max_retries), self._rng
                )
                rid = self._submit(
                    function,
                    p,
                    q,
                    weights,
                    kwargs,
                    arrival_s=self.pool.virtual_now + delay,
                )
                pending[rid] = (slot, args)
        if pending:
            raise CapacityError(
                f"{len(pending)} requests still shed after "
                f"{self.max_retries} retries; deepen the pool queues"
            )
        return np.array(
            [values[i] for i in range(len(submitted))]
        )

    def compute(
        self, function: str, p, q, *, weights=None, **kwargs
    ) -> float:
        rid = self._submit(
            function, p, q, weights, kwargs, self.pool.virtual_now
        )
        args = (function, p, q, weights, kwargs)
        return float(self._resolve([(rid, (0, args))])[0])

    def batch(
        self,
        function: str,
        query,
        candidates: Sequence,
        *,
        weights=None,
        **kwargs,
    ) -> np.ndarray:
        submitted = []
        base = self.pool.virtual_now
        for index, candidate in enumerate(candidates):
            rid = self._submit(
                function,
                query,
                candidate,
                weights,
                kwargs,
                arrival_s=base + index * self.pacing_s,
            )
            args = (function, query, candidate, weights, kwargs)
            submitted.append((rid, (index, args)))
        return self._resolve(submitted)

    def pairwise(
        self, function: str, series: Sequence, **kwargs
    ) -> np.ndarray:
        arrays = [
            as_sequence(s, f"series[{i}]")
            for i, s in enumerate(series)
        ]
        k = len(arrays)
        submitted = []
        slots = []
        base = self.pool.virtual_now
        for i in range(k):
            for j in range(i + 1, k):
                arrival = base + len(slots) * self.pacing_s
                rid = self._submit(
                    function,
                    arrays[i],
                    arrays[j],
                    None,
                    kwargs,
                    arrival_s=arrival,
                )
                args = (function, arrays[i], arrays[j], None, kwargs)
                submitted.append((rid, (len(slots), args)))
                slots.append((i, j))
        values = self._resolve(submitted) if submitted else []
        out = np.zeros((k, k))
        for (i, j), value in zip(slots, values):
            out[i, j] = out[j, i] = value
        return out

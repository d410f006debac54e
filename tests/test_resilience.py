"""Tests for the serving resilience layer.

Covers the seeded retry policy, the per-shard circuit breaker state
machine, virtual-time deadlines end to end (admission fail-fast,
post-execution expiry, batcher flush hints, the backend's typed
error), hedged requests, quarantine rerouting under backoff, shard
replacement, and the ResilientBackend's exact digital fallback —
including the ISSUE acceptance contract: with every shard
quarantined, a 1-NN workload completes with zero errors and results
bit-identical to the software reference.
"""

import dataclasses

import numpy as np
import pytest

from repro.accelerator import DistanceAccelerator
from repro.accelerator.params import PAPER_PARAMS
from repro.backends import SoftwareBackend, resolve_backend
from repro.errors import (
    CapacityError,
    CircuitOpenError,
    ConfigurationError,
    DeadlineExceededError,
    ShardUnhealthyError,
)
from repro.faults import DriftFault, FaultInjector, StuckAtFault
from repro.serving import (
    AcceleratorPool,
    BreakerConfig,
    CircuitBreaker,
    PoolBackend,
    PoolConfig,
    ResilientBackend,
    RetryPolicy,
)

from .test_serving_pool import assert_drain_invariants

SMALL = dataclasses.replace(PAPER_PARAMS, array_rows=12, array_cols=12)

KILLER = FaultInjector(
    [
        StuckAtFault(rate=0.05),
        DriftFault(rate=1.0, age_s=3.0e7, scale_per_decade=0.003),
    ],
    seed=3,
)


def small_chip() -> DistanceAccelerator:
    return DistanceAccelerator(params=SMALL, validate=False)


def make_pool(n_shards=2, **config_kwargs) -> AcceleratorPool:
    return AcceleratorPool(
        n_shards=n_shards,
        config=PoolConfig(cache_capacity=0, **config_kwargs),
        accelerator_factory=small_chip,
    )


class TestRetryPolicy:
    def test_exponential_growth_without_jitter(self):
        policy = RetryPolicy(
            base_backoff_s=1e-6, multiplier=2.0, jitter=0.0
        )
        assert policy.backoff_s(0) == pytest.approx(1e-6)
        assert policy.backoff_s(3) == pytest.approx(8e-6)

    def test_backoff_capped(self):
        policy = RetryPolicy(
            base_backoff_s=1e-6, max_backoff_s=4e-6, jitter=0.0
        )
        assert policy.backoff_s(10) == pytest.approx(4e-6)

    def test_jitter_is_seeded_and_bounded(self):
        policy = RetryPolicy(jitter=0.5, seed=42)
        assert policy.schedule() == policy.schedule()
        raw = dataclasses.replace(policy, jitter=0.0)
        for attempt, delay in enumerate(policy.schedule()):
            base = raw.backoff_s(attempt)
            assert base <= delay < base * 1.5

    def test_different_seeds_decorrelate(self):
        a = RetryPolicy(seed=1).schedule()
        b = RetryPolicy(seed=2).schedule()
        assert a != b

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ConfigurationError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ConfigurationError):
            RetryPolicy(base_backoff_s=1e-3, max_backoff_s=1e-6)
        with pytest.raises(ConfigurationError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ConfigurationError):
            RetryPolicy().backoff_s(-1)


class TestCircuitBreaker:
    CONFIG = BreakerConfig(
        window=4,
        failure_threshold=0.5,
        min_samples=2,
        cooldown_s=1.0,
        cooldown_multiplier=2.0,
        max_cooldown_s=3.0,
    )

    def test_starts_closed(self):
        breaker = CircuitBreaker(self.CONFIG)
        assert breaker.state(0.0) == "closed"
        assert breaker.available(0.0)
        assert breaker.trips == 0

    def test_failure_rate_trips(self):
        breaker = CircuitBreaker(self.CONFIG)
        breaker.on_failure(0.0)
        assert breaker.state(0.0) == "closed"  # min_samples unmet
        breaker.on_failure(0.0)
        assert breaker.state(0.0) == "open"
        assert not breaker.available(0.0)
        assert breaker.trips == 1

    def test_open_resolves_to_half_open_after_cooldown(self):
        breaker = CircuitBreaker(self.CONFIG)
        breaker.trip(0.0)
        assert breaker.state(0.5) == "open"
        assert breaker.state(1.0) == "half_open"
        assert breaker.available(1.0)

    def test_half_open_probe_budget(self):
        breaker = CircuitBreaker(self.CONFIG)
        breaker.trip(0.0)
        assert breaker.acquire_probe(1.0)
        # One probe in flight exhausts the default budget of 1.
        assert not breaker.available(1.0)
        assert not breaker.acquire_probe(1.0)

    def test_probe_success_closes(self):
        breaker = CircuitBreaker(self.CONFIG)
        breaker.trip(0.0)
        breaker.acquire_probe(1.0)
        breaker.on_success(1.0)
        assert breaker.state(1.0) == "closed"
        assert breaker.trips == 1  # history retained

    def test_probe_failure_retrips(self):
        breaker = CircuitBreaker(self.CONFIG)
        breaker.trip(0.0)
        breaker.acquire_probe(1.0)
        breaker.on_failure(1.0)
        assert breaker.state(1.0) == "open"
        assert breaker.trips == 2

    def test_cooldown_doubles_per_trip_and_caps(self):
        breaker = CircuitBreaker(self.CONFIG)
        cooldowns = []
        now = 0.0
        for _ in range(4):
            breaker.trip(now)
            cooldowns.append(breaker.cooldown_s())
            now += breaker.cooldown_s() + 1.0
            breaker.acquire_probe(now)
            breaker.on_success(now)
        assert cooldowns == [1.0, 2.0, 3.0, 3.0]  # capped at max

    def test_default_config_requalifies_immediately(self):
        # Zero cooldown + single probe success reproduces the PR-3
        # repair path: requalified shards serve again at once.
        breaker = CircuitBreaker()
        breaker.trip(0.0)
        assert breaker.state(0.0) == "half_open"
        breaker.acquire_probe(0.0)
        breaker.on_success(0.0)
        assert breaker.state(0.0) == "closed"

    def test_latency_slo_failures_trip_in_pool(self):
        pool = make_pool(
            n_shards=2,
            enable_batching=False,
            breaker=BreakerConfig(
                window=4,
                failure_threshold=0.5,
                min_samples=2,
                latency_slo_s=1e-12,  # everything is "too slow"
            ),
        )
        for _ in range(4):
            pool.submit("manhattan", [1.0, 2.0], [2.0, 4.0])
        pool.drain()
        assert any(
            shard.breaker.trips > 0 for shard in pool.shards
        )

    def test_snapshot_shape(self):
        breaker = CircuitBreaker(self.CONFIG)
        breaker.trip(0.0)
        snap = breaker.snapshot(0.5)
        assert snap["state"] == "open"
        assert snap["trips"] == 1
        assert snap["cooldown_s"] == 1.0

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            BreakerConfig(window=0)
        with pytest.raises(ConfigurationError):
            BreakerConfig(failure_threshold=0.0)
        with pytest.raises(ConfigurationError):
            BreakerConfig(cooldown_s=2.0, max_cooldown_s=1.0)
        with pytest.raises(ConfigurationError):
            BreakerConfig(latency_slo_s=0.0)


class TestBreakerGating:
    def test_all_breakers_open_raises_circuit_open(self):
        pool = make_pool(
            n_shards=2,
            breaker=BreakerConfig(
                cooldown_s=10.0, max_cooldown_s=10.0
            ),
        )
        for shard in pool.shards:
            shard.breaker.trip(0.0)
        pool.submit("manhattan", [1.0], [2.0])
        with pytest.raises(CircuitOpenError):
            pool.drain()

    def test_circuit_open_is_shard_unhealthy(self):
        # Campaign-era `except ShardUnhealthyError` still catches it.
        assert issubclass(CircuitOpenError, ShardUnhealthyError)

    def test_open_breaker_shifts_placement(self):
        pool = make_pool(n_shards=2, breaker=BreakerConfig(
            cooldown_s=10.0, max_cooldown_s=10.0
        ))
        pool.shards[0].breaker.trip(0.0)
        for _ in range(3):
            pool.submit("manhattan", [1.0, 2.0], [2.0, 4.0])
        responses = pool.drain()
        assert {r.shard for r in responses} == {1}


class TestDeadlines:
    def test_infeasible_deadline_expires_at_admission(self):
        pool = make_pool(n_shards=1)
        pool.submit(
            "manhattan", [1.0, 2.0], [2.0, 4.0], deadline_s=1e-12
        )
        (response,) = pool.drain()
        assert response.status == "deadline"
        assert response.value is None
        assert pool.metrics.counter("deadline_exceeded").value == 1
        assert_drain_invariants(pool)

    def test_generous_deadline_serves(self):
        pool = make_pool(n_shards=1)
        pool.submit(
            "manhattan", [1.0, 2.0], [2.0, 4.0], deadline_s=1.0
        )
        (response,) = pool.drain()
        assert response.status == "ok"
        assert response.value == pytest.approx(3.0, rel=0.1)
        assert_drain_invariants(pool)

    def test_default_deadline_budget_is_relative(self):
        pool = make_pool(n_shards=1, default_deadline_s=1.0)
        pool.submit(
            "manhattan", [1.0, 2.0], [2.0, 4.0], arrival_s=5.0
        )
        (request,) = pool._pending
        assert request.deadline_s == pytest.approx(6.0)

    def test_queue_wait_can_expire_deadline(self):
        # One slow shard, no batching: the second request's projected
        # start sits behind the first settle and misses its budget.
        pool = make_pool(
            n_shards=1, enable_batching=False, latency_model="measured"
        )
        p, q = np.arange(8.0), np.arange(8.0) + 1.0
        pool.submit("manhattan", p, q, arrival_s=0.0)
        pool.submit(
            "manhattan", p, q + 1.0, arrival_s=0.0, deadline_s=1e-9
        )
        statuses = sorted(r.status for r in pool.drain())
        assert statuses == ["deadline", "ok"]
        assert_drain_invariants(pool)

    def test_batched_deadline_sets_flush_hint(self):
        pool = make_pool(
            n_shards=1, batch_window_s=1.0, max_batch=64
        )
        pool.submit(
            "manhattan", [1.0, 2.0], [2.0, 4.0], deadline_s=0.5
        )
        request = pool._pending.pop()
        pool._admit(request)
        shard = pool.shards[0]
        assert shard.batcher.pending() == 1
        assert request.flush_by_s is not None
        assert request.flush_by_s < 0.5

    def test_backend_raises_typed_error(self):
        backend = PoolBackend(
            pool=make_pool(n_shards=1), deadline_s=1e-12
        )
        with pytest.raises(DeadlineExceededError):
            backend.compute("manhattan", [1.0, 2.0], [2.0, 4.0])

    def test_backend_deadline_validation(self):
        with pytest.raises(ConfigurationError):
            PoolBackend(pool=make_pool(), deadline_s=0.0)


class TestHedging:
    def config(self):
        return dict(
            enable_batching=False,
            enable_hedging=True,
            hedge_min_samples=4,
            hedge_percentile=50.0,
        )

    def test_hedge_moves_to_idle_shard(self):
        pool = make_pool(n_shards=2, **self.config())
        p, q = np.arange(8.0), np.arange(8.0) + 1.0
        # Warm the latency histogram with short requests.
        for i in range(4):
            pool.submit("manhattan", [1.0, 2.0], [2.0, 4.0])
            pool.drain()
        # Pile work on shard 0 so its queue wait breaches the p50.
        busy = max(s.busy_until for s in pool.shards)
        pool.shards[0].busy_until = busy + 1.0
        pool.shards[0].index  # placement prefers shard 1 already;
        pool.shards[1].busy_until = busy + 2.0
        rid = pool.submit("manhattan", p, q, arrival_s=busy)
        (response,) = [
            r for r in pool.drain() if r.request_id == rid
        ]
        assert response.status == "ok"
        assert pool.metrics.counter("hedges").value >= 1
        if pool.metrics.counter("hedges_won").value:
            assert response.hedged
        assert_drain_invariants(pool)

    def test_hedge_leaves_no_probe_on_the_shard_it_leaves(self):
        # Regression: admission claimed a half-open probe slot on the
        # picked shard before the hedge moved the request, and the
        # breaker verdict went to the rival, so the slot leaked and
        # the shard was never placeable again.
        pool = make_pool(
            n_shards=2, enable_hedging=True, hedge_min_samples=1
        )
        pool.submit("dtw", [1.0, 2.0], [2.0, 4.0])
        pool.drain()
        first, second = pool.shards
        first.breaker.trip(0.0)  # zero cooldown: half-open at once
        first.busy_until = 1e-3
        second.assign(1.0)  # idle, but one deep, so placement picks 0
        rid = pool.submit("dtw", [1.0, 2.0], [3.0, 4.0])
        pool.drain()
        response = pool.responses[rid]
        assert response.status == "ok"
        assert response.shard == 1 and response.hedged
        assert first.breaker.state(2.0) == "half_open"
        assert first.breaker.available(2.0)
        assert_drain_invariants(pool)

    def test_hedging_off_by_default(self):
        pool = make_pool(n_shards=2)
        assert not pool.config.enable_hedging
        pool.submit("manhattan", [1.0], [2.0])
        pool.drain()
        assert pool.metrics.counter("hedges").value == 0
        assert_drain_invariants(pool)


class TestQuarantineReroute:
    def test_mid_batch_quarantine_reroutes_not_sheds(self):
        # Regression for the PR-3 inconsistency: BIST firing while
        # batchers hold items used to shed work even though a healthy
        # shard remained.
        pool = make_pool(
            n_shards=2,
            batch_window_s=1e-5,
            max_batch=64,
            bist_interval_s=1e-6,
            auto_repair=False,
        )
        pool.inject_faults(KILLER, indices=[0])
        backend = PoolBackend(pool=pool, pacing_s=2e-6)
        query = np.arange(6.0)
        candidates = [query + i for i in range(1, 7)]
        # Completes without CapacityError; requests the quarantine
        # displaced re-route to the healthy shard instead of being
        # shed (values served by the sick chip *before* detection are
        # legitimately wrong — the reroute is what's under test).
        values = backend.batch("manhattan", query, candidates)
        assert np.all(np.isfinite(values))
        assert pool.metrics.counter("faults_quarantined").value == 1
        assert pool.metrics.counter("faults_retried").value > 0
        assert pool.metrics.counter("shed").value == 0
        assert_drain_invariants(pool)

    def test_backoff_pushes_rearrival_after_budget(self):
        # fault_max_retries=0 means the very first displacement is
        # already past the immediate-retry budget: it must re-arrive
        # backoff-delayed, not at the quarantine instant.
        pool = make_pool(
            n_shards=2,
            fault_max_retries=0,
            retry=RetryPolicy(
                base_backoff_s=1e-4, jitter=0.0, seed=0
            ),
        )
        rid = pool.submit(
            "manhattan", [1.0, 2.0], [2.0, 4.0], arrival_s=0.0
        )
        request = pool._pending.pop()
        pool._admit(request)
        holder = next(
            s for s in pool.shards if s.batcher.pending()
        )
        pool._quarantine(holder, now=0.0)
        assert pool.metrics.counter("retry_backoffs").value == 1
        assert request.arrival_s >= 1e-4
        pool.drain()  # flushes the rerouted request
        assert pool.responses[rid].status == "ok"
        assert_drain_invariants(pool)

    def test_last_shard_quarantine_sheds(self):
        pool = make_pool(n_shards=1)
        rid = pool.submit("manhattan", [1.0, 2.0], [2.0, 4.0])
        request = pool._pending.pop()
        pool._admit(request)
        pool._quarantine(pool.shards[0])
        assert pool.responses[rid].status == "shed"
        assert_drain_invariants(pool)


class TestReplaceShard:
    def test_replacement_restores_service(self):
        pool = make_pool(n_shards=1, auto_repair=False)
        pool.inject_faults(KILLER, indices=[0])
        pool.run_bist()
        assert pool.shards[0].quarantined
        pool.replace_shard(0)
        assert not pool.shards[0].quarantined
        assert pool.shards[0].health == "healthy"
        pool.submit("manhattan", [1.0, 2.0], [2.0, 4.0])
        (response,) = pool.drain()
        assert response.status == "ok"
        assert pool.metrics.counter("shards_replaced").value == 1

    def test_breaker_history_survives_replacement(self):
        pool = make_pool(
            n_shards=1,
            auto_repair=False,
            breaker=BreakerConfig(cooldown_s=1e-3),
        )
        pool.inject_faults(KILLER, indices=[0])
        pool.run_bist()
        trips_before = pool.shards[0].breaker.trips
        shard = pool.replace_shard(0)
        assert shard.breaker.trips == trips_before >= 1


class TestResilientBackend:
    def quarantined_stack(self, **backend_kwargs):
        pool = make_pool(n_shards=2)
        for shard in pool.shards:
            pool._quarantine(shard)
        return pool, ResilientBackend(
            primary=PoolBackend(pool=pool), **backend_kwargs
        )

    def test_fallback_bit_identical_to_software(self):
        _, backend = self.quarantined_stack()
        reference = SoftwareBackend()
        rng = np.random.default_rng(0)
        query = rng.normal(size=8)
        candidates = [rng.normal(size=8) for _ in range(5)]
        got = backend.batch("manhattan", query, candidates)
        want = reference.batch("manhattan", query, candidates)
        np.testing.assert_array_equal(got, want)
        assert backend.compute(
            "dtw", query, candidates[0]
        ) == reference.compute("dtw", query, candidates[0])

    def test_all_shards_down_one_nn_zero_errors(self):
        # The ISSUE acceptance scenario: full-pool quarantine, 1-NN
        # still answers every query exactly.
        pool, backend = self.quarantined_stack()
        rng = np.random.default_rng(1)
        candidates = [rng.normal(size=8) for _ in range(6)]
        reference = SoftwareBackend()
        for _ in range(4):
            query = rng.normal(size=8)
            got = backend.batch("manhattan", query, candidates)
            want = reference.batch("manhattan", query, candidates)
            assert int(np.argmin(got)) == int(np.argmin(want))
        assert backend.degraded_requests == backend.served_requests
        assert (
            pool.metrics.counter("degraded_requests").value
            == backend.degraded_requests
        )

    def test_fallback_disabled_raises(self):
        _, backend = self.quarantined_stack(enable_fallback=False)
        with pytest.raises(ShardUnhealthyError):
            backend.compute("manhattan", [1.0], [2.0])
        assert backend.degraded_requests == 0
        assert backend.primary_errors  # still tallied

    def test_deadline_fallback_opt_in(self):
        pool = make_pool(n_shards=1)
        primary = PoolBackend(pool=pool, deadline_s=1e-12)
        strict = ResilientBackend(primary=primary)
        with pytest.raises(DeadlineExceededError):
            strict.compute("manhattan", [1.0, 2.0], [2.0, 4.0])
        lenient = ResilientBackend(
            primary=PoolBackend(
                pool=make_pool(n_shards=1), deadline_s=1e-12
            ),
            fallback_on_deadline=True,
        )
        value = lenient.compute("manhattan", [1.0, 2.0], [2.0, 4.0])
        assert value == pytest.approx(3.0)
        assert lenient.last_degraded

    def test_healthy_primary_not_degraded(self):
        pool = make_pool(n_shards=2)
        backend = ResilientBackend(primary=PoolBackend(pool=pool))
        backend.batch(
            "manhattan", [1.0, 2.0], [[2.0, 4.0], [0.0, 1.0]]
        )
        assert backend.degraded_requests == 0
        assert backend.degraded_fraction == 0.0
        assert not backend.last_degraded

    def test_snapshot_reports_breakers_and_quarantine(self):
        pool, backend = self.quarantined_stack()
        backend.batch("manhattan", [1.0], [[2.0]])
        snap = backend.snapshot()
        assert snap["degraded_requests"] == 1
        assert snap["primary_errors"]["ShardUnhealthyError"] == 1
        assert sorted(snap["quarantined_shards"]) == [0, 1]
        assert snap["breakers"][0]["trips"] >= 1
        pool_snap = pool.snapshot()
        assert pool_snap["counters"]["degraded_requests"] == 1
        assert "breaker" in pool_snap["shards"][0]

    def test_pairwise_counts_pairs(self):
        _, backend = self.quarantined_stack()
        series = [np.arange(4.0) + i for i in range(4)]
        matrix = backend.pairwise("manhattan", series)
        assert matrix.shape == (4, 4)
        assert backend.degraded_requests == 6  # 4 choose 2


class TestResolveBackend:
    def test_resilient_by_name(self):
        backend = resolve_backend("resilient")
        assert isinstance(backend, ResilientBackend)
        assert backend.name == "resilient"

    def test_pool_by_name(self):
        backend = resolve_backend("pool")
        assert backend.name == "pool"

    def test_unknown_name_lists_options(self):
        with pytest.raises(ConfigurationError, match="resilient"):
            resolve_backend("quantum")

"""Tests for the serving layer: pool, batcher, cache, metrics, bench."""

import json

import numpy as np
import pytest

from repro import distances as sw
from repro.accelerator import DistanceAccelerator
from repro.analog import IDEAL
from repro.datacenter import (
    WorkloadSpec,
    comparison_table,
    generate_workload,
    simulate_pool,
)
from repro.errors import CapacityError, ConfigurationError
from repro.serving import (
    AcceleratorPool,
    DynamicBatcher,
    LatencyHistogram,
    MetricsRegistry,
    PoolBackend,
    PoolConfig,
    ResultCache,
    run_serve_bench,
)
from repro.serving.pool import PoolRequest, serial_loop_time


def ideal_chip():
    return DistanceAccelerator(nonideality=IDEAL, quantise_io=False)


def make_pool(n_shards=1, **config_kwargs) -> AcceleratorPool:
    return AcceleratorPool(
        n_shards=n_shards,
        config=PoolConfig(**config_kwargs),
        accelerator_factory=ideal_chip,
    )


def assert_drain_invariants(pool: AcceleratorPool) -> None:
    """What every drain must leave behind, whatever went wrong.

    Exactly one terminal response per submitted id, with a legal
    status and a value exactly when it is ``"ok"``; ``arrival <= start
    <= finish``, and answers that never settled (cache hits, shedding)
    start and finish at their arrival; the ``served`` counter counts
    the ok answers (an answer recorded twice would overcount it).
    """
    counters = pool.metrics.as_dict()["counters"]
    assert sorted(pool.responses) == list(range(counters["requests"]))
    ok = 0
    for request_id, response in pool.responses.items():
        assert response.request_id == request_id
        assert response.status in ("ok", "shed", "deadline")
        assert (response.value is not None) == (response.status == "ok")
        assert (
            response.arrival_s <= response.start_s <= response.finish_s
        )
        if response.cached or response.status == "shed":
            assert (
                response.start_s == response.finish_s == response.arrival_s
            )
        assert response.latency_s == response.finish_s - response.arrival_s
        ok += response.status == "ok"
    assert counters.get("served", 0) == ok


class TestMetrics:
    def test_counter_monotone(self):
        registry = MetricsRegistry()
        registry.counter("served").inc()
        registry.counter("served").inc(3)
        assert registry.counter("served").value == 4

    def test_counter_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            MetricsRegistry().counter("x").inc(-1)

    def test_gauge_set(self):
        registry = MetricsRegistry()
        registry.gauge("util").set(0.5)
        assert registry.gauge("util").value == 0.5

    def test_histogram_percentiles_bracket_data(self):
        hist = LatencyHistogram("latency")
        for value in np.linspace(1e-6, 1e-3, 500):
            hist.record(value)
        assert hist.count == 500
        assert 1e-6 <= hist.percentile(50.0) <= 1e-3
        assert hist.percentile(99.0) >= hist.percentile(50.0)
        assert hist.percentile(100.0) <= 1e-3 * 1.01

    def test_histogram_empty(self):
        hist = LatencyHistogram("latency")
        assert hist.mean == 0.0
        assert hist.percentile(99.0) == 0.0

    def test_registry_round_trips_json(self):
        registry = MetricsRegistry()
        registry.counter("served").inc()
        registry.histogram("latency").record(1e-6)
        data = json.loads(registry.to_json())
        assert data["counters"]["served"] == 1
        assert data["histograms"]["latency"]["count"] == 1


class TestResultCache:
    def test_hit_after_put(self):
        cache = ResultCache(capacity=4)
        key = cache.key("manhattan", [1.0, 2.0], [3.0, 4.0])
        assert cache.get(key) is None
        cache.put(key, 4.0)
        assert cache.get(key) == 4.0
        assert cache.hits == 1 and cache.misses == 1

    def test_quantisation_merges_nearby_inputs(self):
        cache = ResultCache(capacity=4, resolution=1e-6)
        a = cache.key("manhattan", [1.0, 2.0], [3.0, 4.0])
        b = cache.key(
            "manhattan", [1.0 + 1e-9, 2.0], [3.0, 4.0 - 1e-9]
        )
        assert a == b

    def test_distinct_weights_distinct_keys(self):
        cache = ResultCache()
        a = cache.key("manhattan", [1.0], [2.0])
        b = cache.key("manhattan", [1.0], [2.0], weights=[2.0])
        assert a != b

    def test_lru_evicts_oldest(self):
        cache = ResultCache(capacity=2)
        keys = [cache.key("manhattan", [i], [0.0]) for i in range(3)]
        cache.put(keys[0], 0.0)
        cache.put(keys[1], 1.0)
        cache.get(keys[0])  # refresh 0 -> 1 is now oldest
        cache.put(keys[2], 2.0)
        assert cache.get(keys[0]) == 0.0
        assert cache.get(keys[1]) is None
        assert cache.evictions == 1

    def test_capacity_zero_disables(self):
        cache = ResultCache(capacity=0)
        key = cache.key("manhattan", [1.0], [2.0])
        cache.put(key, 1.0)
        assert cache.get(key) is None
        assert len(cache) == 0


class TestDynamicBatcher:
    def test_fills_at_max_batch(self):
        batcher = DynamicBatcher(window_s=1.0, max_batch=3)
        assert batcher.add("k", 1, 0.0) is None
        assert batcher.add("k", 2, 0.0) is None
        assert batcher.add("k", 3, 0.0) == [1, 2, 3]
        assert batcher.pending() == 0

    def test_due_after_window(self):
        batcher = DynamicBatcher(window_s=1.0, max_batch=10)
        batcher.add("k", 1, 0.0)
        assert batcher.due(0.5) == []
        [(key, items)] = batcher.due(1.0)
        assert key == "k" and items == [1]

    def test_keys_partition_buckets(self):
        batcher = DynamicBatcher(window_s=1.0, max_batch=10)
        batcher.add("a", 1, 0.0)
        batcher.add("b", 2, 0.0)
        assert batcher.pending_for("a") == 1
        assert batcher.pending() == 2
        assert len(batcher.flush()) == 2


class TestPoolServing:
    def test_values_match_software(self, rng):
        pool = make_pool(n_shards=2)
        p, q = rng.normal(size=8), rng.normal(size=8)
        pool.submit("manhattan", p, q)
        pool.submit("dtw", p, q)
        responses = pool.drain()
        assert responses[0].value == pytest.approx(
            sw.manhattan(p, q), abs=1e-8
        )
        assert responses[1].value == pytest.approx(
            sw.dtw(p, q), abs=1e-8
        )

    def test_unrunnable_request_refused_at_admission(self, rng):
        pool = make_pool(n_shards=1)
        p, q = rng.normal(size=6), rng.normal(size=6)
        with pytest.raises(ConfigurationError, match="bogus"):
            pool.submit("dtw", p, q, bogus=1)
        with pytest.raises(ConfigurationError, match="threshold"):
            pool.submit("manhattan", p, q, threshold=0.5)
        rid = pool.submit("dtw", p, q)
        responses = pool.drain()
        assert [r.request_id for r in responses] == [rid]
        assert responses[0].status == "ok"
        assert responses[0].value == pytest.approx(sw.dtw(p, q), abs=1e-8)

    def test_requests_spread_across_shards(self, rng):
        pool = make_pool(n_shards=4, enable_batching=False)
        for _ in range(4):
            pool.submit(
                "dtw",
                rng.normal(size=6),
                rng.normal(size=6),
                arrival_s=0.0,
            )
        responses = pool.drain()
        assert {r.shard for r in responses} == {0, 1, 2, 3}

    def test_burst_coalesces_into_one_batch(self, rng):
        pool = make_pool(n_shards=1, max_batch=8, cache_capacity=0)
        pairs = [
            (rng.normal(size=8), rng.normal(size=8)) for _ in range(8)
        ]
        for p, q in pairs:
            pool.submit("manhattan", p, q, arrival_s=0.0)
        responses = pool.drain()
        assert all(r.batched and r.batch_size == 8 for r in responses)
        assert pool.metrics.counter("batches").value == 1
        for response, (p, q) in zip(responses, pairs):
            assert response.value == pytest.approx(
                sw.manhattan(p, q), abs=1e-8
            )

    def test_window_expiry_splits_batches(self, rng):
        pool = make_pool(
            n_shards=1, batch_window_s=2e-6, cache_capacity=0
        )
        p, q = rng.normal(size=8), rng.normal(size=8)
        pool.submit("manhattan", p, q, arrival_s=0.0)
        pool.submit("manhattan", q, p, arrival_s=1e-6)
        pool.submit("manhattan", p, p, arrival_s=10e-6)
        responses = pool.drain()
        assert responses[0].batch_size == 2
        assert responses[1].batch_size == 2
        assert responses[2].batch_size == 1

    def test_matrix_functions_bypass_batcher(self, rng):
        pool = make_pool(n_shards=1)
        pool.submit(
            "dtw", rng.normal(size=6), rng.normal(size=6),
            arrival_s=0.0,
        )
        response = pool.drain()[0]
        assert not response.batched
        assert pool.metrics.counter("batches").value == 0

    def test_cache_hit_on_repeat(self, rng):
        pool = make_pool(n_shards=1, enable_batching=False)
        p, q = rng.normal(size=8), rng.normal(size=8)
        pool.submit("manhattan", p, q, arrival_s=0.0)
        pool.submit("manhattan", p, q, arrival_s=1e-3)
        first, second = pool.drain()
        assert not first.cached and second.cached
        assert second.value == first.value
        assert second.latency_s == 0.0
        assert pool.cache.hits == 1
        assert_drain_invariants(pool)

    def test_cached_results_also_come_from_batches(self, rng):
        pool = make_pool(n_shards=1, max_batch=2)
        p, q = rng.normal(size=8), rng.normal(size=8)
        pool.submit("manhattan", p, q, arrival_s=0.0)
        pool.submit("manhattan", q, p, arrival_s=0.0)
        pool.submit("manhattan", p, q, arrival_s=1e-3)
        responses = pool.drain()
        assert responses[2].cached
        assert responses[2].value == responses[0].value

    def test_backpressure_sheds_excess_load(self, rng):
        pool = make_pool(
            n_shards=1,
            queue_depth=1,
            enable_batching=False,
            cache_capacity=0,
        )
        for _ in range(5):
            pool.submit(
                "manhattan",
                rng.normal(size=8),
                rng.normal(size=8),
                arrival_s=0.0,
            )
        responses = pool.drain()
        statuses = [r.status for r in responses]
        assert statuses.count("ok") == 1
        assert statuses.count("shed") == 4
        assert pool.metrics.counter("shed").value == 4
        assert all(
            r.value is None
            for r in responses
            if r.status == "shed"
        )
        assert_drain_invariants(pool)

    def test_counters_are_consistent(self, rng):
        pool = make_pool(n_shards=2)
        for _ in range(6):
            pool.submit(
                "hamming",
                rng.normal(size=8),
                rng.normal(size=8),
                threshold=0.5,
                arrival_s=0.0,
            )
        pool.drain()
        counters = pool.metrics.as_dict()["counters"]
        assert counters["requests"] == 6
        assert (
            counters["served"] + counters.get("shed", 0)
            == counters["requests"]
        )
        assert (
            counters.get("cache_hits", 0)
            + counters.get("cache_misses", 0)
            == counters["requests"]
        )

    def test_snapshot_exports_shards_and_cache(self, rng):
        pool = make_pool(n_shards=2)
        pool.submit("manhattan", rng.normal(size=8), rng.normal(size=8))
        pool.drain()
        snapshot = json.loads(pool.to_json())
        assert len(snapshot["shards"]) == 2
        assert "hit_rate" in snapshot["cache"]
        assert "latency" in snapshot["histograms"]
        assert any(
            name.startswith("shard0") for name in snapshot["gauges"]
        )

    def test_utilisations_bounded(self, rng):
        pool = make_pool(n_shards=2)
        for _ in range(4):
            pool.submit(
                "dtw",
                rng.normal(size=6),
                rng.normal(size=6),
                arrival_s=0.0,
            )
        pool.drain()
        for utilisation in pool.utilisations():
            assert 0.0 <= utilisation <= 1.0

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            PoolConfig(queue_depth=0)
        with pytest.raises(ConfigurationError):
            PoolConfig(latency_model="psychic")
        with pytest.raises(ConfigurationError):
            AcceleratorPool(n_shards=0)

    def test_measured_latency_model_runs(self, rng):
        pool = make_pool(n_shards=1, latency_model="measured")
        p, q = rng.normal(size=6), rng.normal(size=6)
        pool.submit("manhattan", p, q)
        response = pool.drain()[0]
        assert response.status == "ok"
        assert response.finish_s > response.start_s


class TestBatchingSpeedup:
    @pytest.mark.parametrize("function", ["hamming", "manhattan"])
    def test_row_throughput_at_least_3x_serial(self, function, rng):
        """The acceptance benchmark: batched row serving vs a naive
        per-query loop on the same stream, same timing model."""
        kwargs = {"threshold": 0.5} if function == "hamming" else {}
        pairs = [
            (rng.normal(size=16), rng.normal(size=16))
            for _ in range(64)
        ]
        pool = make_pool(n_shards=1, cache_capacity=0, max_batch=32)
        for p, q in pairs:
            pool.submit(function, p, q, arrival_s=0.0, **kwargs)
        responses = pool.drain()
        assert all(r.status == "ok" for r in responses)
        requests = [
            PoolRequest(
                id=i,
                function=function,
                p=p,
                q=q,
                arrival_s=0.0,
                kwargs=dict(kwargs),
            )
            for i, (p, q) in enumerate(pairs)
        ]
        serial_s = serial_loop_time(
            requests, accelerator=pool.shards[0].accelerator
        )
        assert pool.row_busy_s > 0
        speedup = serial_s / pool.row_busy_s
        assert speedup >= 3.0


class TestPoolBackend:
    def test_batch_matches_software(self, rng):
        backend = PoolBackend(make_pool(n_shards=2))
        query = rng.normal(size=8)
        candidates = [rng.normal(size=8) for _ in range(5)]
        out = backend.batch("manhattan", query, candidates)
        expected = [sw.manhattan(query, c) for c in candidates]
        np.testing.assert_allclose(out, expected, atol=1e-8)

    def test_compute_and_pairwise(self, rng):
        backend = PoolBackend(make_pool(n_shards=1))
        p, q = rng.normal(size=6), rng.normal(size=6)
        assert backend.compute("dtw", p, q) == pytest.approx(
            sw.dtw(p, q), abs=1e-8
        )
        series = [rng.normal(size=5) for _ in range(3)]
        matrix = backend.pairwise("manhattan", series)
        assert matrix.shape == (3, 3)
        np.testing.assert_allclose(matrix, matrix.T)

    def test_shed_requests_are_retried(self, rng):
        pool = make_pool(
            n_shards=1,
            queue_depth=1,
            enable_batching=False,
            cache_capacity=0,
        )
        backend = PoolBackend(pool)
        query = rng.normal(size=8)
        candidates = [rng.normal(size=8) for _ in range(5)]
        out = backend.batch("manhattan", query, candidates)
        expected = [sw.manhattan(query, c) for c in candidates]
        np.testing.assert_allclose(out, expected, atol=1e-8)
        assert pool.metrics.counter("shed").value > 0
        assert_drain_invariants(pool)

    def test_capacity_error_when_retries_exhausted(self, rng):
        pool = make_pool(
            n_shards=1,
            queue_depth=1,
            enable_batching=False,
            cache_capacity=0,
        )
        backend = PoolBackend(pool, max_retries=0)
        with pytest.raises(CapacityError):
            backend.batch(
                "manhattan",
                rng.normal(size=8),
                [rng.normal(size=8) for _ in range(6)],
            )


class TestBenchAndDatacenter:
    def test_serve_bench_report(self):
        report = run_serve_bench(n_queries=80, n_shards=2, seed=7)
        assert report.served + report.shed == 80
        assert report.throughput_qps > 0
        assert report.p99_latency_s >= report.mean_latency_s * 0.1
        assert 0.0 <= report.cache_hit_rate <= 1.0
        assert len(report.utilisations) == 2
        assert report.batches > 0
        assert report.row_speedup > 1.0
        text = report.table()
        assert "throughput" in text and "row speedup" in text
        parsed = json.loads(report.to_json())
        assert parsed["n_queries"] == 80

    def test_simulate_pool_in_comparison(self):
        spec = WorkloadSpec(
            arrival_rate_hz=2e7,
            duration_s=4e-6,
            length_choices=(8, 16),
            seed=5,
        )
        queries = generate_workload(spec)
        result = simulate_pool(queries, n_shards=2)
        assert result.served + result.dropped == len(queries)
        assert result.deployment.startswith("pooled accelerators")
        assert result.makespan_s > 0
        assert "pooled accelerators" in comparison_table([result])


class TestCli:
    def test_serve_bench_command(self, capsys):
        from repro.cli import main

        code = main(
            [
                "serve-bench",
                "--queries",
                "40",
                "--shards",
                "2",
                "--seed",
                "3",
                "--json",
            ]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["n_queries"] == 40
        assert data["served"] + data["shed"] == 40

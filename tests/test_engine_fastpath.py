"""Equivalence and regression tests for the vectorized engine.

The levelized solver, the graph-template cache, the batched solves and
the transient's stop at the bitwise fixed point are all *pure
optimisations*: every path must produce bit-identical voltages to the
reference behaviour (Jacobi sweeps over a freshly rebuilt graph, and
the full-window transient loop kept here as the oracle).  These tests pin that contract, plus the hot-path
bugfixes that landed with the engine (pool settle-time cache key,
batched timing/overflow, convergence retry loop).
"""

from __future__ import annotations

import copy
import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro.accelerator.array as array_module
import repro.accelerator.early as early_module
import repro.analog.engine as engine_module
from repro.accelerator import (
    AcceleratorParameters,
    DistanceAccelerator,
    early_rank,
    get_config,
)
from repro.analog import (
    IDEAL,
    AnalogTransientResult,
    BlockGraph,
    dc_solve,
    measure_convergence_many,
    suggest_dt,
    transient,
)
from repro.errors import ConfigurationError, ConvergenceError
from repro.faults import (
    DriftFault,
    FaultInjector,
    FaultState,
    StuckAtFault,
    recalibrate,
)
from repro.serving import AcceleratorPool, PoolConfig

ALL_FUNCTIONS = (
    "dtw", "lcs", "edit", "hausdorff", "hamming", "manhattan"
)


def _kwargs(function: str) -> dict:
    if function in ("lcs", "edit", "hamming"):
        return {"threshold": 0.5}
    return {}


def _smoke_graph() -> "BlockGraph":
    """A small graph exercising every block kind (the ERC smoke mix)."""
    g = BlockGraph()
    a = g.const(0.3)
    b = g.const(0.7)
    d = g.absdiff(a, b)
    s = g.lin([(a, 1.0), (d, 0.5)])
    mx = g.maximum([a, b, d, s])
    mn = g.minimum([s, d, b])
    sel = g.mux(a, b, mx, mn, threshold=0.4)
    gated = g.gate(sel, d, threshold=0.2, v_high=0.9)
    g.mark_output("out", g.lin([(sel, 1.0), (gated, 0.25)]))
    g.mark_output("gated", gated)
    return g


class TestLevelizedEquivalence:
    def test_smoke_graph_levelized_matches_jacobi(self):
        frozen = _smoke_graph().freeze()
        levelized = dc_solve(frozen, method="levelized")
        jacobi = dc_solve(frozen, method="jacobi")
        assert np.array_equal(levelized, jacobi)

    @pytest.mark.parametrize("function", ALL_FUNCTIONS)
    def test_accelerator_values_bit_identical(self, function, rng):
        p = rng.normal(size=10)
        q = rng.normal(size=10)
        fast = DistanceAccelerator()
        reference = DistanceAccelerator(
            use_template_cache=False, solver="jacobi"
        )
        kwargs = _kwargs(function)
        a = fast.compute(function, p, q, **kwargs)
        b = reference.compute(function, p, q, **kwargs)
        assert a.value == b.value
        assert a.raw_voltage == b.raw_voltage
        assert a.adc_voltage == b.adc_voltage

    def test_tiled_values_bit_identical(self, rng):
        params = AcceleratorParameters(array_rows=4, array_cols=4)
        p = rng.normal(size=9)
        q = rng.normal(size=9)
        fast = DistanceAccelerator(params=params, validate=False)
        reference = DistanceAccelerator(
            params=params,
            validate=False,
            use_template_cache=False,
            solver="jacobi",
        )
        for function in ("dtw", "hausdorff", "manhattan"):
            a = fast.compute(function, p, q)
            b = reference.compute(function, p, q)
            assert a.value == b.value, function
            assert a.tiles == b.tiles and a.tiles > 1

    def test_unknown_method_and_solver_rejected(self):
        frozen = _smoke_graph().freeze()
        with pytest.raises(ConfigurationError):
            dc_solve(frozen, method="gauss-seidel")
        with pytest.raises(ConfigurationError):
            DistanceAccelerator(solver="spice")


class TestTemplateCache:
    def test_warm_cache_hits_and_identical_values(self, rng):
        chip = DistanceAccelerator()
        p = rng.normal(size=12)
        q = rng.normal(size=12)
        first = chip.compute("dtw", p, q).value
        info = chip.template_cache_info()
        assert info["enabled"] and info["active"]
        assert info["solver"] == "levelized"
        assert info["misses"] >= 1 and info["size"] >= 1
        second = chip.compute("dtw", p, q).value
        assert chip.template_cache_info()["hits"] >= 1
        assert first == second

    def test_rebind_serves_new_inputs(self, rng):
        chip = DistanceAccelerator()
        p1, q1 = rng.normal(size=10), rng.normal(size=10)
        p2, q2 = rng.normal(size=10), rng.normal(size=10)
        chip.compute("manhattan", p1, q1)
        cached = chip.compute("manhattan", p2, q2).value
        fresh = DistanceAccelerator(use_template_cache=False).compute(
            "manhattan", p2, q2
        ).value
        assert cached == fresh

    def test_fault_transitions_invalidate(self, rng):
        chip = DistanceAccelerator()
        p, q = rng.normal(size=8), rng.normal(size=8)
        chip.compute("manhattan", p, q)
        assert chip.template_cache_info()["size"] >= 1
        epoch = chip.fault_epoch
        FaultInjector([StuckAtFault(rate=0.05)], seed=3).inject(chip)
        assert chip.fault_epoch == epoch + 1
        assert chip.template_cache_info()["size"] == 0
        chip.compute("manhattan", p, q)
        chip.clear_faults()
        assert chip.fault_epoch == epoch + 2
        assert chip.template_cache_info()["size"] == 0

    def test_faulted_and_repaired_values_match_uncached(self, rng):
        p, q = rng.normal(size=8), rng.normal(size=8)
        cached = DistanceAccelerator()
        uncached = DistanceAccelerator(
            use_template_cache=False, solver="jacobi"
        )
        clean = cached.compute("manhattan", p, q).value
        for chip in (cached, uncached):
            FaultInjector(
                [StuckAtFault(rate=0.05)], seed=11
            ).inject(chip)
        # Warm the cached chip's faulted template, then compare.
        cached.compute("manhattan", p, q)
        assert (
            cached.compute("manhattan", p, q).value
            == uncached.compute("manhattan", p, q).value
        )
        for chip in (cached, uncached):
            recalibrate(chip)
        assert (
            cached.compute("manhattan", p, q).value
            == uncached.compute("manhattan", p, q).value
        )
        for chip in (cached, uncached):
            chip.clear_faults()
        restored = cached.compute("manhattan", p, q).value
        assert restored == clean
        assert restored == uncached.compute("manhattan", p, q).value

    def test_recalibrate_bumps_epoch(self, rng):
        chip = DistanceAccelerator()
        FaultInjector([StuckAtFault(rate=0.05)], seed=5).inject(chip)
        chip.compute("manhattan", rng.normal(size=6), rng.normal(size=6))
        epoch = chip.fault_epoch
        recalibrate(chip)
        assert chip.fault_epoch == epoch + 1
        assert chip.template_cache_info()["size"] == 0

    def test_read_disturb_bypasses_cache(self, rng):
        chip = DistanceAccelerator()
        chip.inject_faults(
            FaultState(
                array_rows=chip.params.array_rows,
                array_cols=chip.params.array_cols,
                read_disturb_sigma=0.01,
            )
        )
        assert not chip.template_cache_info()["active"]
        chip.compute("manhattan", rng.normal(size=6), rng.normal(size=6))
        # Nothing may be pinned: every settle draws fresh read noise.
        assert chip.template_cache_info()["size"] == 0

    def test_lru_eviction_bounds_size(self, rng):
        chip = DistanceAccelerator()
        chip._template_capacity = 2
        for n in (4, 5, 6, 7):
            chip.compute(
                "manhattan", rng.normal(size=n), rng.normal(size=n)
            )
        assert chip.template_cache_info()["size"] <= 2


class TestBatchedSolve:
    def test_batched_rows_match_per_vector_solves(self):
        frozen = _smoke_graph().freeze()
        base = frozen.const_values
        batch = np.stack([base, base * 0.5, base * -0.25])
        solved = dc_solve(frozen.bind(batch))
        assert solved.shape == (3, frozen.n_blocks)
        for row in range(3):
            single = dc_solve(frozen.bind(batch[row]))
            assert np.array_equal(solved[row], single)

    def test_bind_rejects_wrong_width(self):
        frozen = _smoke_graph().freeze()
        with pytest.raises(ConfigurationError):
            frozen.bind(np.zeros(frozen.const_ids.size + 1))

    @pytest.mark.parametrize("function", ALL_FUNCTIONS)
    def test_compute_many_matches_sequential(self, function, rng):
        pairs = [
            (rng.normal(size=10), rng.normal(size=10))
            for _ in range(3)
        ]
        chip = DistanceAccelerator()
        kwargs = _kwargs(function)
        many = chip.compute_many(function, pairs, **kwargs)
        for (p, q), result in zip(pairs, many):
            single = chip.compute(function, p, q, **kwargs)
            assert result.value == single.value
            assert result.raw_voltage == single.raw_voltage
            assert result.adc_voltage == single.adc_voltage
            assert result.overflow == single.overflow

    def test_compute_many_heterogeneous_falls_back(self, rng):
        chip = DistanceAccelerator()
        pairs = [
            (rng.normal(size=6), rng.normal(size=6)),
            (rng.normal(size=9), rng.normal(size=9)),
        ]
        many = chip.compute_many("manhattan", pairs)
        for (p, q), result in zip(pairs, many):
            assert result.value == chip.compute(
                "manhattan", p, q
            ).value

    def test_batch_pairs_reports_template_reuse(self, rng):
        chip = DistanceAccelerator()
        pairs = [
            (rng.normal(size=8), rng.normal(size=8)) for _ in range(4)
        ]
        cold = chip.batch_pairs("manhattan", pairs)
        warm = chip.batch_pairs("manhattan", pairs)
        assert not cold.template_cached
        assert warm.template_cached
        assert np.array_equal(cold.values, warm.values)


class TestPoolSettleKey:
    """Regression: the settle-time memo must key on the programmed
    weights and the request kwargs, not just the operand lengths."""

    def _pool(self) -> AcceleratorPool:
        return AcceleratorPool(
            n_shards=1,
            config=PoolConfig(
                enable_batching=False,
                cache_capacity=0,
                latency_model="measured",
            ),
        )

    def test_weights_digest_in_key(self, rng):
        pool = self._pool()
        p, q = rng.normal(size=6), rng.normal(size=6)
        pool.submit("manhattan", p, q)
        pool.submit("manhattan", p, q, weights=np.full(6, 2.0))
        pool.drain()
        assert len(pool._settle_cache) == 2

    def test_kwargs_in_key(self, rng):
        pool = self._pool()
        p, q = rng.normal(size=6), rng.normal(size=6)
        pool.submit("hamming", p, q, threshold=0.2)
        pool.submit("hamming", p, q, threshold=0.8)
        pool.drain()
        assert len(pool._settle_cache) == 2

    def test_identical_requests_share_one_probe(self, rng):
        pool = self._pool()
        p, q = rng.normal(size=6), rng.normal(size=6)
        pool.submit("manhattan", p, q)
        pool.submit("manhattan", p, q)
        pool.drain()
        assert len(pool._settle_cache) == 1


class TestBatchTimingAndOverflow:
    def test_batch_timing_takes_slowest_tap_in_one_transient(
        self, rng, monkeypatch
    ):
        calls = []

        def fake_many(bound, outputs, **kwargs):
            calls.append(list(outputs))
            return {
                name: (float(k + 1) * 1e-9, 0.0)
                for k, name in enumerate(outputs)
            }

        monkeypatch.setattr(
            array_module, "measure_convergence_many", fake_many
        )
        chip = DistanceAccelerator()
        pairs = [
            (rng.normal(size=6), rng.normal(size=6)) for _ in range(3)
        ]
        result = chip.batch_pairs(
            "manhattan", pairs, measure_time=True
        )
        # One transient records every candidate tap; the strobe waits
        # for the slowest one.
        assert calls == [["cand0", "cand1", "cand2"]]
        assert result.convergence_time_s == pytest.approx(3e-9)

    def test_overflow_checks_both_rails(self):
        chip = DistanceAccelerator()
        rail = chip.params.vcc * 1.05
        ok = np.array([0.0, 0.2, -0.3])
        assert not chip._overflowed(ok, 0.1)
        assert chip._overflowed(np.array([0.0, rail * 1.01]), 0.1)
        assert chip._overflowed(np.array([0.0, -rail * 1.01]), 0.1)
        clip = chip.adc.spec.full_scale
        assert chip._overflowed(ok, clip)
        assert chip._overflowed(ok, np.array([0.1, clip]))


class TestConvergenceRetry:
    def test_retry_coarsens_dt_with_window(self, monkeypatch):
        attempts = []

        def always_fails(g, t_stop, dt, record=None, **kwargs):
            attempts.append((t_stop, dt))
            raise ConvergenceError("window too small")

        monkeypatch.setattr(engine_module, "transient", always_fails)
        frozen = _smoke_graph().freeze()
        with pytest.raises(ConvergenceError) as excinfo:
            measure_convergence_many(frozen, ["out"])
        assert len(attempts) == 6
        windows = [a[0] for a in attempts]
        dts = [a[1] for a in attempts]
        for k in range(1, 6):
            assert windows[k] == pytest.approx(4.0 * windows[k - 1])
            assert dts[k] == pytest.approx(4.0 * dts[k - 1])
        # The error reports the largest window actually attempted,
        # not the never-run next one.
        assert f"{windows[-1]:.3e}" in str(excinfo.value)

    def test_retry_recovers_and_returns(self, monkeypatch):
        real_transient = engine_module.transient
        state = {"failures": 2, "calls": 0}

        def flaky(g, t_stop, dt, record=None, **kwargs):
            state["calls"] += 1
            if state["calls"] <= state["failures"]:
                raise ConvergenceError("not yet")
            return real_transient(
                g, t_stop=t_stop, dt=dt, record=record, **kwargs
            )

        monkeypatch.setattr(engine_module, "transient", flaky)
        frozen = _smoke_graph().freeze()
        results = measure_convergence_many(frozen, ["out", "gated"])
        assert state["calls"] == 3
        assert set(results) == {"out", "gated"}
        for t_conv, final in results.values():
            assert t_conv >= 0.0
            assert np.isfinite(final)


# -- transient early exit ------------------------------------------------------
def _full_window_transient(graph, t_stop, dt, record=None, v0=None):
    """Reference transient: every block, every step of the window.

    The engine's loop before it learned to stop at the bitwise fixed
    point; the fast path must return exactly these bits.
    """
    g = graph.freeze() if isinstance(graph, BlockGraph) else graph
    if record is None:
        record = list(g.outputs)
    steps = int(np.ceil(t_stop / dt))
    time = np.linspace(0.0, steps * dt, steps + 1)
    decay = np.exp(-dt / g.tau)
    v = (
        np.zeros(g.batch_shape + (g.n_blocks,))
        if v0 is None
        else np.asarray(v0, dtype=np.float64).copy()
    )
    taps = {name: g.outputs[name] for name in record}
    waves = {
        name: np.zeros(v.shape[:-1] + (steps + 1,)) for name in record
    }
    for name, tap in taps.items():
        waves[name][..., 0] = v[..., tap]
    t = np.zeros_like(v)
    cv = g.const_values
    if g.const_ids.size:
        const_t = cv * g.gain[g.const_ids] + g.offset[g.const_ids]
        if g.supply_rail is not None:
            np.clip(const_t, -g.supply_rail, g.supply_rail, out=const_t)
        t[..., g.const_ids] = const_t
    ops = g._nonconst_ops()
    for k in range(1, steps + 1):
        t[..., ops.ids] = ops.eval(v, cv)
        v = t + (v - t) * decay
        for name, tap in taps.items():
            waves[name][..., k] = v[..., tap]
    settled = dc_solve(g)
    final = {
        name: float(settled[tap]) if settled.ndim == 1 else settled[..., tap]
        for name, tap in taps.items()
    }
    return AnalogTransientResult(
        time=time, waves=waves, final=final, steps_run=steps
    )


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(
        a.view(np.uint64), b.view(np.uint64)
    )


def _assert_same_result(fast, reference) -> None:
    assert _same_bits(fast.time, reference.time)
    assert fast.waves.keys() == reference.waves.keys()
    for name in reference.waves:
        assert _same_bits(fast.waves[name], reference.waves[name]), name
        assert _same_bits(fast.final[name], reference.final[name]), name


def _timed_graphs(function, pairs, **kwargs):
    """The bound graphs ``compute(measure_time=True)`` hands to the
    convergence measurement, one per pair, from one chip (so they share
    one template): the very graphs ``compute`` settles."""
    seen = []

    def capture(bound, *args, **kw):
        seen.append(bound)
        return dc_solve(bound, *args, **kw)

    chip = DistanceAccelerator(quantise_io=False)
    with mock.patch.object(array_module, "dc_solve", capture):
        for p, q in pairs:
            chip.compute(function, p, q, **kwargs)
    return seen


def _window(g) -> float:
    """The first window :func:`measure_convergence_many` tries."""
    return max(
        14.0 * float(np.max(g.critical_tau)),
        30.0 * float(np.max(g.tau)) * 4.0,
    )


@st.composite
def _accelerator_graphs(draw):
    """A timed accelerator graph, optionally ``bind``-batched, with two
    extra taps at random depths."""
    function = draw(st.sampled_from(ALL_FUNCTIONS))
    config = get_config(function)
    n = draw(st.integers(2, 4))
    m = draw(st.integers(2, 4)) if config.supports_unequal_lengths else n
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    kwargs = {}
    if draw(st.booleans()):
        shape = (n,) if config.structure == "row" else (n, m)
        kwargs["weights"] = rng.uniform(0.5, 1.5, size=shape)
    if function in ("lcs", "edit", "hamming"):
        kwargs["threshold"] = draw(st.floats(0.1, 1.0))
    if function == "dtw" and draw(st.booleans()):
        kwargs["band"] = draw(st.integers(max(1, abs(n - m)), max(n, m)))
    batch = draw(st.sampled_from([0, 2, 3]))
    pairs = [
        (rng.normal(size=n), rng.normal(size=m))
        for _ in range(max(batch, 1))
    ]
    graphs = _timed_graphs(function, pairs, **kwargs)
    g = graphs[0]
    if batch:
        g = g.bind(np.stack([b.const_values for b in graphs]))
    g = copy.copy(g)
    g.outputs = dict(
        g.outputs,
        tap_a=draw(st.integers(0, g.n_blocks - 1)),
        tap_b=draw(st.integers(0, g.n_blocks - 1)),
    )
    return g, rng


class TestTransientEarlyExit:
    """``transient`` stops at the bitwise fixed point and steps only
    the levels still moving; every returned bit must equal the
    full-window reference."""

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        case=_accelerator_graphs(),
        record=st.sampled_from([None, ("out",), ("tap_a",), ("tap_a", "tap_b")]),
        nonzero_v0=st.booleans(),
        window_share=st.sampled_from([1.0, 1.0, 0.4, 0.02]),
    )
    def test_matches_full_window_reference(
        self, case, record, nonzero_v0, window_share
    ):
        g, rng = case
        v0 = (
            rng.uniform(-0.5, 0.5, size=g.batch_shape + (g.n_blocks,))
            if nonzero_v0
            else None
        )
        dt = 4.0 * suggest_dt(g)
        t_stop = window_share * _window(g)
        fast = transient(g, t_stop=t_stop, dt=dt, record=record, v0=v0)
        reference = _full_window_transient(
            g, t_stop=t_stop, dt=dt, record=record, v0=v0
        )
        _assert_same_result(fast, reference)
        assert fast.steps_run <= reference.steps_run

    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        case=_accelerator_graphs(),
        tolerance=st.sampled_from([1e-3, 1e-12, 0.0]),
    )
    def test_measure_convergence_many_same_outcome(self, case, tolerance):
        # tolerance 0 or 1e-12 often never converges: both engines must
        # then raise the same error after the same retries.
        g, _ = case

        def outcome(engine):
            calls = []

            def counted(*args, **kwargs):
                calls.append(kwargs["t_stop"])
                return engine(*args, **kwargs)

            with mock.patch.object(engine_module, "transient", counted):
                try:
                    got = measure_convergence_many(
                        g, ["out", "tap_a"], safety_factor=4.0,
                        tolerance=tolerance,
                    )
                except ConvergenceError as exc:
                    got = str(exc)
            return got, calls

        fast, fast_calls = outcome(transient)
        reference, reference_calls = outcome(_full_window_transient)
        assert fast_calls == reference_calls
        if isinstance(reference, str):
            assert fast == reference
        else:
            assert fast.keys() == reference.keys()
            for name, (t_conv, final) in reference.items():
                assert fast[name][0] == t_conv
                assert _same_bits(fast[name][1], final)

    def test_too_short_window_raises_like_reference(self):
        (g,) = _timed_graphs(
            "dtw", [(np.array([0.3, -1.2, 0.8]), np.array([1.0, 0.1, -0.4]))]
        )
        dt = suggest_dt(g)
        fast = transient(g, t_stop=0.05 * _window(g), dt=dt)
        reference = _full_window_transient(
            g, t_stop=0.05 * _window(g), dt=dt
        )
        _assert_same_result(fast, reference)
        assert fast.steps_run == reference.steps_run
        for result in (fast, reference):
            with pytest.raises(ConvergenceError, match="did not converge"):
                result.convergence_time("out")

    def test_early_rank_reads_the_same_samples(self, rng):
        query = rng.normal(size=5)
        candidates = [rng.normal(size=5) for _ in range(4)]
        for function, kwargs in (
            ("manhattan", {}),
            ("hamming", {"threshold": 0.5}),
        ):
            fast = early_rank(query, candidates, function=function, **kwargs)
            with mock.patch.object(
                early_module, "transient", _full_window_transient
            ):
                reference = early_rank(
                    query, candidates, function=function, **kwargs
                )
            assert fast.early_ranking == reference.early_ranking
            assert fast.final_ranking == reference.final_ranking
            assert fast.early_time_s == reference.early_time_s
            assert fast.full_time_s == reference.full_time_s
            assert _same_bits(fast.early_values, reference.early_values)
            assert _same_bits(fast.final_values, reference.final_values)

    def test_buffer_chain_stops_well_inside_the_window(self):
        g = BlockGraph(nonideality=IDEAL)
        node = g.const(0.2)
        for _ in range(4):
            node = g.buffer(node)
        g.mark_output("out", node)
        frozen = g.freeze()
        dt = suggest_dt(frozen)
        t_stop = 60.0 * float(np.max(frozen.critical_tau))
        steps = int(np.ceil(t_stop / dt))
        result = transient(frozen, t_stop=t_stop, dt=dt)
        assert result.steps_run < steps // 2
        assert result.convergence_time("out") < t_stop
        # A window too short to settle is integrated to its end and
        # still fails the measurement.
        short = transient(frozen, t_stop=t_stop / 50.0, dt=dt)
        assert short.steps_run == int(np.ceil((t_stop / 50.0) / dt))
        with pytest.raises(ConvergenceError):
            short.convergence_time("out")

    @pytest.mark.parametrize("function", ALL_FUNCTIONS)
    def test_fig5_measurements_stop_early(self, function, monkeypatch):
        runs = []
        real = engine_module.transient

        def spy(g, t_stop, dt, **kwargs):
            result = real(g, t_stop=t_stop, dt=dt, **kwargs)
            runs.append((result.steps_run, int(np.ceil(t_stop / dt))))
            return result

        monkeypatch.setattr(engine_module, "transient", spy)
        p = np.array([0.4, -1.1, 0.9, 0.2])
        q = np.array([-0.3, 1.2, 0.5, -0.8])
        DistanceAccelerator(quantise_io=False).compute(
            function, p, q, measure_time=True, **_kwargs(function)
        )
        assert runs
        for steps_run, steps in runs:
            assert steps_run < steps

    def test_suffix_plans_lazy_and_shared_by_bound_views(self):
        frozen = _smoke_graph().freeze()
        assert not any(
            key.startswith("suffix") for key in frozen._ops_cache
        )
        bound = frozen.bind(np.stack([frozen.const_values] * 3))
        for depth in range(1, frozen.n_levels):
            plan = bound._suffix_ops(depth)
            assert plan is frozen._suffix_ops(depth)
            # A plan may start shallower than asked, never deeper.
            covered = set(plan.ids.tolist())
            assert covered >= set(
                np.flatnonzero(frozen.depth >= depth).tolist()
            )
            assert covered <= set(
                np.flatnonzero(frozen.depth >= 1).tolist()
            )


# -- differential suite over the public entry points ---------------------------
_SMALL = AcceleratorParameters(array_rows=4, array_cols=4)


def _chip(small: bool, fault: "str | None") -> DistanceAccelerator:
    """A fresh chip: default or 4x4 (forces row segments, dp tiles and
    Hausdorff tiles), optionally carrying a deterministic fault map."""
    chip = (
        DistanceAccelerator(params=_SMALL, validate=False)
        if small
        else DistanceAccelerator()
    )
    if fault == "stuck":
        FaultInjector([StuckAtFault(rate=0.1)], seed=7).inject(chip)
    elif fault == "drift":
        FaultInjector([DriftFault(age_s=1.0e6)], seed=7).inject(chip)
    return chip


@st.composite
def _entry_cases(draw):
    """Function, operands, weights and every argument it reads."""
    function = draw(st.sampled_from(ALL_FUNCTIONS))
    config = get_config(function)
    small = draw(st.booleans())
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 6)) if config.supports_unequal_lengths else n
    k = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    shape = (n,) if config.structure == "row" else (n, m)
    weights = (
        rng.uniform(0.5, 1.5, size=shape) if draw(st.booleans()) else None
    )
    kwargs = {}
    if config.uses_threshold:
        kwargs["threshold"] = draw(st.floats(0.0, 1.0))
    # Band-constrained DTW cannot tile; the mixed-shape pair is one
    # longer on each side.
    tiled = small and max(n, m) + 1 > _SMALL.array_rows
    if function == "dtw" and not tiled and draw(st.booleans()):
        kwargs["band"] = draw(st.integers(max(1, abs(n - m)), max(n, m)))
    if function == "edit":
        kwargs["paper_errata"] = draw(st.booleans())
    query = rng.normal(size=n)
    candidates = [rng.normal(size=m) for _ in range(k)]
    if draw(st.booleans()):
        # Drive one row into the rails, so overflow differs by pair.
        candidates[-1] = candidates[-1] * 40.0
    return {
        "function": function,
        "small": small,
        "fault": draw(st.sampled_from([None, "stuck", "drift"])),
        "query": query,
        "candidates": candidates,
        # A pair of another shape, for the mixed-shape compute_many.
        "other": (rng.normal(size=n + 1), rng.normal(size=m + 1)),
        "weights": weights,
        "kwargs": kwargs,
    }


def _read(results) -> list:
    return [(r.value, r.overflow) for r in results]


def _run_entry_points(chip: DistanceAccelerator, case) -> dict:
    """Every public entry point on ``chip`` over the case's pairs."""
    from repro.backends import AcceleratorBackend

    f, w, kw = case["function"], case["weights"], case["kwargs"]
    query, cands = case["query"], case["candidates"]
    pairs = [(query, c) for c in cands]
    out = {
        "compute": _read(
            chip.compute(f, p, q, weights=w, **kw) for p, q in pairs
        ),
        "compute_many": _read(
            chip.compute_many(f, pairs, weights=w, **kw)
        ),
        "compute_many_mixed": _read(
            chip.compute_many(f, pairs + [case["other"]], **kw)
        ),
        "compute_unweighted": _read(
            chip.compute(f, p, q, **kw) for p, q in pairs + [case["other"]]
        ),
    }
    backend = AcceleratorBackend(chip)
    out["backend_batch"] = list(
        backend.batch(f, query, cands, weights=w, **kw)
    )
    fits_row = (
        get_config(f).structure == "row"
        and query.shape[0] <= chip.usable_cols
    )
    if fits_row:
        batch_kw = dict(kw, weights=w)
        many = chip.batch(f, query, cands, **batch_kw)
        out["batch"] = (list(many.values), many.overflow)
        one = chip.batch(f, query, cands[:1], **batch_kw)
        out["batch_1"] = (list(one.values), one.overflow)
        pw = None if w is None else [w] * len(pairs)
        threshold = kw.get("threshold", 0.0)
        many = chip.batch_pairs(f, pairs, weights=pw, threshold=threshold)
        out["batch_pairs"] = (list(many.values), many.overflow)
        one = chip.batch_pairs(
            f, pairs[:1], weights=pw and pw[:1], threshold=threshold
        )
        out["batch_pairs_1"] = (list(one.values), one.overflow)
    if fits_row or get_config(f).structure == "matrix":
        series = [query] + cands
        # Matrix weights fit every pair of the series only when square.
        square = w is not None and (w.ndim == 1 or w.shape[0] == w.shape[1])
        pw_kw = dict(kw, weights=w) if square else dict(kw)
        matrix = backend.pairwise(f, series, **pw_kw)
        rows = [
            list(backend.batch(f, series[i], series[i + 1 :], **pw_kw))
            for i in range(len(series) - 1)
        ]
        out["pairwise"] = (matrix, rows)
    return out


class TestEntryPointsAgree:
    """Every public way into the chip returns the same bits for the
    same pair on the same chip: single, batched, tiled, cold and warm,
    with and without a fault map."""

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(case=_entry_cases())
    def test_bitwise_equal_across_entry_points(self, case):
        chip = _chip(case["small"], case["fault"])
        cold = _run_entry_points(chip, case)
        warm = _run_entry_points(chip, case)
        uncached = _chip(case["small"], case["fault"])
        uncached.use_template_cache = False
        for name, got in _run_entry_points(uncached, case).items():
            if name == "pairwise":
                continue
            assert got == cold[name], name
        for name in cold:
            if name == "pairwise":
                assert np.array_equal(warm[name][0], cold[name][0])
                continue
            assert warm[name] == cold[name], name

        singles = cold["compute"]
        assert cold["compute_many"] == singles
        assert cold["compute_many_mixed"] == cold["compute_unweighted"]
        if "batch" in cold:
            # One candidate is one row of the array: the compute graph.
            assert cold["batch_1"] == (
                [singles[0][0]], singles[0][1]
            )
            assert cold["batch_pairs_1"] == cold["batch_1"]
            # k candidates: one row per pair, whichever way they arrive.
            assert cold["batch_pairs"] == cold["batch"]
            assert cold["backend_batch"] == cold["batch"][0]
        else:
            assert cold["backend_batch"] == [v for v, _ in singles]
        if "pairwise" in cold:
            matrix, rows = cold["pairwise"]
            for i, row in enumerate(rows):
                assert list(matrix[i, i + 1 :]) == row
                assert list(matrix[i + 1 :, i]) == row
            assert np.all(np.diag(matrix) == 0.0)

    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(case=_entry_cases())
    def test_pool_paths_match_the_chip(self, case):
        """A 1-shard pool on a copy of the reference chip answers with
        the chip's bits: unbatched requests as ``compute``, a window of
        row requests as one ``batch_pairs`` (each row settles on its
        own PEs, so on a nonideal chip only row 0 is ``compute``'s
        graph), and a resubmission from the cache as the first
        answer."""
        f, w, kw = case["function"], case["weights"], case["kwargs"]
        pairs = [(case["query"], c) for c in case["candidates"]]
        chip = _chip(case["small"], case["fault"])
        singles = [chip.compute(f, p, q, weights=w, **kw).value for p, q in pairs]

        def serve(pool):
            for p, q in pairs:
                pool.submit(f, p, q, weights=w, arrival_s=0.0, **kw)
            return pool.drain()

        def pool(**config):
            return AcceleratorPool(
                n_shards=1,
                config=PoolConfig(**config),
                accelerator_factory=lambda: _chip(case["small"], case["fault"]),
            )

        unbatched = pool(enable_batching=False)
        first = serve(unbatched)
        assert [r.value for r in first] == singles
        assert not any(r.cached or r.batched for r in first)
        again = serve(unbatched)
        assert all(r.cached for r in again)
        assert [r.value for r in again] == singles

        batched = serve(pool(batch_window_s=1.0))
        if chip.fits_row(f, case["query"].shape[0]):
            rows = chip.batch_pairs(
                f,
                pairs,
                weights=None if w is None else [w] * len(pairs),
                threshold=kw.get("threshold", 0.0),
            )
            assert all(r.batch_size == len(pairs) for r in batched)
            assert [r.value for r in batched] == list(rows.values)
            assert batched[0].value == singles[0]
        else:
            assert not any(r.batched for r in batched)
            assert [r.value for r in batched] == singles

    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        function=st.sampled_from(["hamming", "manhattan"]),
        n=st.integers(1, 6),
        seed=st.integers(0, 2**16),
        weighted=st.booleans(),
    )
    def test_timed_compute_matches_one_candidate_batch(
        self, function, n, seed, weighted
    ):
        rng = np.random.default_rng(seed)
        p, q = rng.normal(size=n), rng.normal(size=n)
        w = rng.uniform(0.5, 1.5, size=n) if weighted else None
        chip = DistanceAccelerator(quantise_io=False)
        single = chip.compute(
            function, p, q, weights=w, measure_time=True, **_kwargs(function)
        )
        batch = chip.batch(
            function, p, [q], weights=w, measure_time=True, **_kwargs(function)
        )
        assert single.convergence_time_s == batch.convergence_time_s
        assert [single.value] == list(batch.values)

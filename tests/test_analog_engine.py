"""Tests for the analog transient engine and convergence metric."""

import numpy as np
import pytest

from repro.analog import (
    BlockGraph,
    IDEAL,
    dc_solve,
    measure_convergence,
    suggest_dt,
    transient,
)
from repro.errors import ConfigurationError, ConvergenceError


def chain_graph(depth: int) -> BlockGraph:
    g = BlockGraph(nonideality=IDEAL)
    node = g.const(0.2)
    for _ in range(depth):
        node = g.buffer(node)
    g.mark_output("out", node)
    return g


class TestTransient:
    def test_final_matches_dc(self):
        g = chain_graph(4)
        frozen = g.freeze()
        window = 20 * float(np.max(frozen.critical_tau))
        result = transient(frozen, t_stop=window, dt=suggest_dt(frozen))
        assert result.final["out"] == pytest.approx(0.2, rel=1e-6)
        assert result.waves["out"][-1] == pytest.approx(0.2, rel=1e-3)

    def test_waveform_monotone_rise_for_buffer_chain(self):
        g = chain_graph(3)
        frozen = g.freeze()
        result = transient(frozen, t_stop=30e-9, dt=0.05e-9)
        wave = result.waves["out"]
        assert np.all(np.diff(wave) >= -1e-12)

    def test_unmarked_graph_rejected(self):
        g = BlockGraph(nonideality=IDEAL)
        g.const(1.0)
        with pytest.raises(ConvergenceError, match="no marked outputs"):
            transient(g, t_stop=1e-9, dt=1e-11)

    def test_unknown_output_rejected(self):
        g = chain_graph(1)
        with pytest.raises(ConvergenceError, match="unknown"):
            transient(g, t_stop=1e-9, dt=1e-11, record=["nope"])

    @pytest.mark.parametrize(
        "dt", [0.0, -1e-11, float("nan"), float("inf")]
    )
    def test_bad_dt_rejected(self, dt):
        with pytest.raises(ConfigurationError, match="dt"):
            transient(chain_graph(1), t_stop=1e-9, dt=dt)

    @pytest.mark.parametrize(
        "t_stop", [-1e-9, float("nan"), float("inf")]
    )
    def test_bad_t_stop_rejected(self, t_stop):
        with pytest.raises(ConfigurationError, match="t_stop"):
            transient(chain_graph(1), t_stop=t_stop, dt=1e-11)

    def test_zero_window_is_just_the_initial_sample(self):
        result = transient(chain_graph(2), t_stop=0.0, dt=1e-11)
        assert result.time.tolist() == [0.0]
        assert result.waves["out"].tolist() == [0.0]
        assert result.steps_run == 0


class TestConvergenceTime:
    def test_deeper_chain_converges_slower(self):
        t2, _ = measure_convergence(chain_graph(2), "out")
        t8, _ = measure_convergence(chain_graph(8), "out")
        assert t8 > t2

    def test_convergence_value_matches_dc(self):
        g = chain_graph(5)
        _, final = measure_convergence(g, "out")
        assert final == pytest.approx(0.2, rel=1e-9)

    def test_single_stage_settles_in_about_7_tau(self):
        g = BlockGraph(nonideality=IDEAL)
        a = g.const(0.2)
        b = g.buffer(a)
        g.mark_output("out", b)
        tau = g.block(b).tau
        t_conv, _ = measure_convergence(g, "out")
        assert 4 * tau < t_conv < 12 * tau

    def test_did_not_converge_raises(self):
        g = chain_graph(3)
        frozen = g.freeze()
        result = transient(frozen, t_stop=0.5e-9, dt=0.01e-9)
        with pytest.raises(ConvergenceError):
            result.convergence_time("out")


class TestDcSolve:
    def test_fixed_point_idempotent(self):
        g = chain_graph(6)
        frozen = g.freeze()
        v = dc_solve(frozen)
        np.testing.assert_allclose(frozen.targets(v), v, atol=1e-12)

    def test_suggest_dt_resolves_slow_stages(self):
        g = chain_graph(3)
        frozen = g.freeze()
        dt = suggest_dt(frozen)
        slow = frozen.tau[frozen.tau > 1e-11]
        assert dt <= float(np.min(slow))

"""Tests for the behavioural block graph and its DC evaluation."""

import numpy as np
import pytest

from repro.analog import (
    BlockGraph,
    IDEAL,
    NonidealityModel,
    dc_solve,
)
from repro.errors import ConfigurationError, ConvergenceError


def ideal_graph() -> BlockGraph:
    return BlockGraph(nonideality=IDEAL)


class TestBuilders:
    def test_const_value(self):
        g = ideal_graph()
        a = g.const(0.25)
        v = dc_solve(g)
        assert v[a] == pytest.approx(0.25)

    def test_lin_weighted_sum(self):
        g = ideal_graph()
        a, b = g.const(0.1), g.const(0.2)
        s = g.lin([(a, 2.0), (b, -1.0)], constant=0.05)
        v = dc_solve(g)
        assert v[s] == pytest.approx(0.05 + 0.2 - 0.2 + 0.05 - 0.05)
        assert v[s] == pytest.approx(2 * 0.1 - 0.2 + 0.05)

    def test_absdiff(self):
        g = ideal_graph()
        a, b = g.const(0.1), g.const(0.34)
        d = g.absdiff(a, b, weight=0.5)
        v = dc_solve(g)
        assert v[d] == pytest.approx(0.12)

    def test_max_min(self):
        g = ideal_graph()
        xs = [g.const(x) for x in (0.1, 0.5, 0.3)]
        hi = g.maximum(xs)
        lo = g.minimum(xs)
        v = dc_solve(g)
        assert v[hi] == pytest.approx(0.5)
        assert v[lo] == pytest.approx(0.1)

    def test_mux_close_and_far(self):
        g = ideal_graph()
        a, b = g.const(0.10), g.const(0.12)
        t, f = g.const(1.0), g.const(2.0)
        close = g.mux(a, b, t, f, threshold=0.05)
        far = g.mux(a, b, t, f, threshold=0.01)
        v = dc_solve(g)
        assert v[close] == pytest.approx(1.0)
        assert v[far] == pytest.approx(2.0)

    def test_gate_eq6_semantics(self):
        g = ideal_graph()
        a, b = g.const(0.1), g.const(0.4)
        differs = g.gate(a, b, threshold=0.1, v_high=0.01)
        matches = g.gate(a, b, threshold=0.5, v_high=0.01)
        v = dc_solve(g)
        assert v[differs] == pytest.approx(0.01)
        assert v[matches] == pytest.approx(0.0)

    def test_buffer_passthrough(self):
        g = ideal_graph()
        a = g.const(0.3)
        b = g.buffer(a)
        v = dc_solve(g)
        assert v[b] == pytest.approx(0.3)

    def test_forward_reference_rejected(self):
        g = ideal_graph()
        with pytest.raises(ConfigurationError):
            g.lin([(5, 1.0)])
        a = g.const(0.3)
        # The message names the first input out of range.
        with pytest.raises(ConfigurationError, match="input -1 "):
            g.maximum([a, -1, 7])
        with pytest.raises(ConfigurationError, match="input 1 "):
            g.maximum([a, 1])
        assert len(g) == 1

    def test_empty_inputs_rejected(self):
        g = ideal_graph()
        with pytest.raises(ConfigurationError):
            g.maximum([])
        with pytest.raises(ConfigurationError):
            g.lin([])

    def test_mark_output_validates_id(self):
        g = ideal_graph()
        g.const(1.0)
        with pytest.raises(ConfigurationError):
            g.mark_output("out", 10)


class TestNonidealities:
    def test_finite_gain_shrinks_output(self):
        model = NonidealityModel(
            open_loop_gain=100.0,
            offset_sigma=0.0,
            diode_drop=0.0,
            comparator_offset_sigma=0.0,
            weight_tolerance=0.0,
        )
        g = BlockGraph(nonideality=model)
        a = g.const(0.1)
        s = g.lin([(a, 1.0)])
        v = dc_solve(g)
        assert v[s] == pytest.approx(0.1 * 100.0 / 102.0)

    def test_offsets_deterministic_per_seed(self):
        def build(seed):
            g = BlockGraph(
                nonideality=NonidealityModel(seed=seed)
            )
            a, b = g.const(0.1), g.const(0.3)
            out = g.absdiff(a, b)
            return dc_solve(g)[out]

        assert build(1) == build(1)
        assert build(1) != build(2)

    def test_diode_drop_appears_in_max(self):
        model = NonidealityModel(
            open_loop_gain=1e12,
            offset_sigma=0.0,
            diode_drop=1e-3,
            comparator_offset_sigma=0.0,
            weight_tolerance=0.0,
        )
        g = BlockGraph(nonideality=model)
        xs = [g.const(0.2), g.const(0.4)]
        m = g.maximum(xs)
        v = dc_solve(g)
        assert v[m] == pytest.approx(0.4 - 1e-3)

    def test_weight_tolerance_perturbs_weights(self):
        model = NonidealityModel(
            offset_sigma=0.0,
            diode_drop=0.0,
            comparator_offset_sigma=0.0,
            weight_tolerance=0.05,
            open_loop_gain=1e12,
        )
        g = BlockGraph(nonideality=model)
        a = g.const(1.0)
        s = g.lin([(a, 1.0)])
        v = dc_solve(g)
        assert v[s] != pytest.approx(1.0, abs=1e-6)
        assert v[s] == pytest.approx(1.0, abs=0.06)


class TestFrozenGraph:
    def test_critical_tau_monotone_along_chain(self):
        g = ideal_graph()
        a = g.const(0.1)
        b = g.buffer(a)
        c = g.buffer(b)
        frozen = g.freeze()
        assert frozen.critical_tau[c] > frozen.critical_tau[b]
        assert frozen.critical_tau[b] > frozen.critical_tau[a]

    def test_adder_tau_grows_with_fan_in(self):
        g = ideal_graph()
        xs = [g.const(0.01) for _ in range(20)]
        small = g.lin([(xs[0], 1.0), (xs[1], 1.0)], is_adder=True)
        big = g.lin([(x, 1.0) for x in xs], is_adder=True)
        assert g.block(big).tau > g.block(small).tau

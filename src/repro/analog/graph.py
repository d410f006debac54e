"""Typed analog block graph.

A :class:`BlockGraph` is a feedforward DAG of analog stages.  Each block
has one output voltage, a *target* function of its input voltages, and
a first-order settling time constant ``tau``: the output obeys
``dv/dt = (target(inputs) - v) / tau``.  This is exactly the behaviour
of the single-pole op-amp stages validated in :mod:`repro.spice`, and it
is what lets full 40x40 PE arrays simulate in milliseconds instead of
the 20 SPICE-hours the paper reports.

Block kinds
-----------
``const``    fixed source voltage (DAC output).
``lin``      weighted sum + constant:  ``sum_k w_k v_k + c``  (subtractor,
             adder, buffer, the HauD converter ``Vcc - x`` ...).
``absdiff``  ``w * |a - b|``  (the absolution module).
``max``      diode maximum of its inputs.
``min``      minimum (realised in hardware via the Vcc-complement trick
             of Eq. (8); modelled directly, with the same error knobs).
``mux``      comparator + transmission gates: ``t`` if ``|a-b| <= thr``
             else ``f`` (the LCS/EdD selecting module).
``gate``     comparator to a rail: ``v_high`` if ``|a-b| > thr`` else
             ``v_low`` (the HamD PE).

Builder methods return integer block ids; inputs must already exist, so
the graph is topologically ordered by construction.
"""

from __future__ import annotations

import copy
import dataclasses
import itertools
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigurationError
from .nonideal import (
    DEFAULT_NONIDEALITY,
    DEFAULT_TIMING,
    NonidealityModel,
    TimingModel,
)

KIND_CONST = 0
KIND_LIN = 1
KIND_ABSDIFF = 2
KIND_MAX = 3
KIND_MIN = 4
KIND_MUX = 5
KIND_GATE = 6

KIND_NAMES = {
    KIND_CONST: "const",
    KIND_LIN: "lin",
    KIND_ABSDIFF: "absdiff",
    KIND_MAX: "max",
    KIND_MIN: "min",
    KIND_MUX: "mux",
    KIND_GATE: "gate",
}


@dataclasses.dataclass
class _Block:
    kind: int
    inputs: Tuple[int, ...]
    weights: Tuple[float, ...] = ()
    constant: float = 0.0
    threshold: float = 0.0
    v_high: float = 0.0
    v_low: float = 0.0
    tau: float = 1.0e-9
    gain: float = 1.0
    offset: float = 0.0
    label: str = ""


class BlockGraph:
    """Mutable builder for an analog block DAG.

    Parameters
    ----------
    nonideality:
        Error model; per-block systematic gain/offset/threshold errors
        are drawn from it at build time (one draw per block — the same
        chip behaves the same across runs).
    timing:
        Stage time-constant model.
    ideal:
        Shortcut: ``True`` builds a mathematically exact graph.
    """

    def __init__(
        self,
        nonideality: NonidealityModel = DEFAULT_NONIDEALITY,
        timing: TimingModel = DEFAULT_TIMING,
    ) -> None:
        self.nonideality = nonideality
        self.timing = timing
        self._rng = nonideality.rng()
        self._blocks: List[_Block] = []
        self._outputs: Dict[str, int] = {}

    # -- internals ---------------------------------------------------------
    def _add(self, block: _Block) -> int:
        n = len(self._blocks)
        if block.inputs and not (
            0 <= min(block.inputs) and max(block.inputs) < n
        ):
            for src in block.inputs:
                if not 0 <= src < n:
                    raise ConfigurationError(
                        f"block input {src} does not exist yet"
                    )
        self._blocks.append(block)
        return n

    def _amp_errors(self, noise_gain: float) -> Tuple[float, float]:
        """Systematic (gain, offset) pair for one amplifier stage."""
        gain = self.nonideality.gain_factor(noise_gain)
        offset = float(
            self._rng.normal(0.0, self.nonideality.offset_sigma)
        )
        return gain, offset

    def _weight_error(self, w: float, precision: bool = False) -> float:
        """Apply the post-tuning memristor ratio tolerance to a weight.

        ``precision=True`` marks ratios whose error multiplies a
        supply-scale common-mode signal (the HauD Vcc-complement
        stages); the Section 3.3 tuning loop is iterated further on
        those, buying an extra 10x (bounded below by the verify
        measurement noise).
        """
        tol = self.nonideality.weight_tolerance
        if precision:
            tol = max(tol / 10.0, 1.0e-4 if tol > 0 else 0.0)
        if tol == 0.0 or w == 0.0:
            return w
        return w * (1.0 + float(self._rng.uniform(-tol, tol)))

    # -- builders ----------------------------------------------------------
    def const(self, value: float, label: str = "") -> int:
        """A source node (DAC output or reference rail)."""
        return self._add(
            _Block(
                kind=KIND_CONST,
                inputs=(),
                constant=float(value),
                tau=1.0e-12,
                label=label,
            )
        )

    def lin(
        self,
        terms: Sequence[Tuple[int, float]],
        constant: float = 0.0,
        label: str = "",
        is_adder: bool = False,
        precision: bool = False,
    ) -> int:
        """Weighted-sum amplifier stage ``sum w_k v_k + constant``.

        ``is_adder=True`` marks a row-structure summing stage whose
        virtual-ground net carries one parasitic per input (fan-in
        dependent tau); other lin stages are fixed-fan-in subtractors.
        ``precision=True`` marks stages whose ratio is tuned to the
        verify floor (see :meth:`_weight_error`).
        """
        if len(terms) == 0:
            raise ConfigurationError("lin block needs at least one term")
        inputs = tuple(t[0] for t in terms)
        weights = tuple(
            self._weight_error(float(t[1]), precision=precision)
            for t in terms
        )
        noise_gain = 1.0 + float(np.sum(np.abs(weights)))
        gain, offset = self._amp_errors(noise_gain)
        if is_adder:
            tau = self.timing.adder_tau(len(inputs), noise_gain)
        else:
            tau = self.timing.opamp_tau(noise_gain)
        return self._add(
            _Block(
                kind=KIND_LIN,
                inputs=inputs,
                weights=weights,
                constant=float(constant),
                tau=tau,
                gain=gain,
                offset=offset,
                label=label,
            )
        )

    def absdiff(
        self, a: int, b: int, weight: float = 1.0, label: str = ""
    ) -> int:
        """Absolution module: ``w |V(a) - V(b)|``.

        Hardware: two subtractors + two diodes; modelled as one stage
        with the subtractor's settling and the diode's selection error.
        """
        w = self._weight_error(float(weight))
        gain, offset = self._amp_errors(noise_gain=2.0)
        offset += self.nonideality.diode_drop
        return self._add(
            _Block(
                kind=KIND_ABSDIFF,
                inputs=(a, b),
                weights=(w,),
                tau=self.timing.opamp_tau(2.0),
                gain=gain,
                offset=offset,
                label=label,
            )
        )

    def maximum(self, inputs: Sequence[int], label: str = "") -> int:
        """Diode max selector."""
        if len(inputs) == 0:
            raise ConfigurationError("max block needs inputs")
        return self._add(
            _Block(
                kind=KIND_MAX,
                inputs=tuple(inputs),
                tau=self.timing.diode_tau(len(inputs)),
                gain=1.0,
                offset=-self.nonideality.diode_drop,
                label=label,
            )
        )

    def minimum(self, inputs: Sequence[int], label: str = "") -> int:
        """Minimum selector (Eq. (8) complement trick in hardware).

        The hardware spends two extra subtractor inversions around the
        diode stage, so the settling is op-amp-class, not diode-class.
        """
        if len(inputs) == 0:
            raise ConfigurationError("min block needs inputs")
        gain, offset = self._amp_errors(noise_gain=2.0)
        offset += self.nonideality.diode_drop
        return self._add(
            _Block(
                kind=KIND_MIN,
                inputs=tuple(inputs),
                tau=self.timing.opamp_tau(2.0),
                gain=gain,
                offset=offset,
                label=label,
            )
        )

    def mux(
        self,
        a: int,
        b: int,
        when_close: int,
        when_far: int,
        threshold: float,
        label: str = "",
    ) -> int:
        """Selecting module: comparator on ``|V(a)-V(b)|`` vs threshold
        drives two transmission gates (Fig. 2(b))."""
        thr = float(threshold) + float(
            self._rng.normal(
                0.0, self.nonideality.comparator_offset_sigma
            )
        )
        return self._add(
            _Block(
                kind=KIND_MUX,
                inputs=(a, b, when_close, when_far),
                threshold=thr,
                tau=self.timing.comparator_tau,
                label=label,
            )
        )

    def gate(
        self,
        a: int,
        b: int,
        threshold: float,
        v_high: float,
        v_low: float = 0.0,
        label: str = "",
    ) -> int:
        """HamD PE: ``v_high`` when ``|V(a)-V(b)| > threshold`` else
        ``v_low`` (Eq. (6) semantics)."""
        thr = float(threshold) + float(
            self._rng.normal(
                0.0, self.nonideality.comparator_offset_sigma
            )
        )
        return self._add(
            _Block(
                kind=KIND_GATE,
                inputs=(a, b),
                threshold=thr,
                v_high=float(v_high),
                v_low=float(v_low),
                tau=self.timing.comparator_tau,
                label=label,
            )
        )

    def buffer(self, src: int, label: str = "") -> int:
        """Unity-gain buffer stage."""
        return self.lin([(src, 1.0)], label=label)

    # -- outputs and freezing ----------------------------------------------
    def mark_output(self, name: str, block_id: int) -> None:
        """Name a block as an observable output (ADC tap point)."""
        if not 0 <= block_id < len(self._blocks):
            raise ConfigurationError(f"no block {block_id}")
        self._outputs[name] = block_id

    @property
    def outputs(self) -> Dict[str, int]:
        return dict(self._outputs)

    def __len__(self) -> int:
        return len(self._blocks)

    def block(self, block_id: int) -> _Block:
        return self._blocks[block_id]

    def freeze(self) -> "FrozenGraph":
        """Compile to the vectorised form the engine consumes."""
        return FrozenGraph(self)


def _csr_gather(
    starts: np.ndarray, counts: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Flat indices of the ranges ``[starts[k], starts[k] + counts[k])``
    laid back to back, and the offset of each range in them
    (``counts.size + 1`` entries, the last one the total)."""
    ptr = np.zeros(counts.size + 1, dtype=np.intp)
    np.cumsum(counts, out=ptr[1:])
    idx = np.repeat(starts - ptr[:-1], counts) + np.arange(
        ptr[-1], dtype=np.intp
    )
    return idx, ptr


#: Per block kind: the plan-field prefix, and the suffixes of the
#: per-member :class:`FrozenGraph` arrays a plan carries its share of.
_PLAN_KINDS = (
    (KIND_CONST, "const", ()),
    (KIND_LIN, "lin", ("const",)),
    (KIND_ABSDIFF, "abs", ("a", "b", "w")),
    (KIND_MAX, "max", ()),
    (KIND_MIN, "min", ()),
    (KIND_MUX, "mux", ("a", "b", "t", "f", "thr")),
    (KIND_GATE, "gate", ("a", "b", "thr", "high", "low")),
)
#: Variable-arity kinds: edges packed for ``reduceat``.
_EDGE_PREFIXES = ("lin", "max", "min")


def _pack_plans(
    frozen: "FrozenGraph", ids: np.ndarray, sizes: Sequence[int]
) -> "List[_SubsetOps]":
    """Evaluation plans for consecutive groups of ``ids``.

    Group ``g`` is the next ``sizes[g]`` entries of ``ids``, ascending
    inside the group.  Each kind's arrays are gathered once for every
    group together; a plan holds slices of them (views, never written),
    and only the lin/max/min ``reduceat`` offsets are rebased per group.
    """
    n_groups = len(sizes)
    group = np.repeat(np.arange(n_groups), sizes)
    starts = np.zeros(n_groups + 1, dtype=np.intp)
    np.cumsum(sizes, out=starts[1:])
    pos = np.arange(ids.size, dtype=np.intp) - starts[group]
    kinds = frozen.kind[ids]
    gain = frozen.gain[ids]
    offset = frozen.offset[ids]
    cuts = starts.tolist()
    plans = []
    for a, b in zip(cuts, cuts[1:]):
        plan = _SubsetOps()
        plan.ids = ids[a:b]
        plan.gain = gain[a:b]
        plan.offset = offset[a:b]
        plan.rail = frozen.supply_rail
        plans.append(plan)
    for kind, prefix, fields in _PLAN_KINDS:
        mask = kinds == kind
        sel = ids[mask]
        rank = np.searchsorted(getattr(frozen, f"{prefix}_ids"), sel)
        members = [(f"{prefix}_pos", pos[mask])] + [
            (f"{prefix}_{f}", getattr(frozen, f"{prefix}_{f}")[rank])
            for f in fields
        ]
        if kind == KIND_CONST:
            members.append(("const_take", rank))
        edges = []
        if prefix in _EDGE_PREFIXES:
            idx, edge_ptr = _csr_gather(
                getattr(frozen, f"{prefix}_ptr")[rank],
                frozen.input_ptr[sel + 1] - frozen.input_ptr[sel],
            )
            edges.append(
                (f"{prefix}_src", getattr(frozen, f"{prefix}_src")[idx])
            )
            if kind == KIND_LIN:
                edges.append(("lin_w", frozen.lin_w[idx]))
            edge_cuts = edge_ptr.tolist()
        # Most groups hold no member of a kind: they share one empty
        # array per field.
        empty = [(name, values[:0]) for name, values in members + edges]
        if edges:
            empty.append((f"{prefix}_ptr", edge_ptr[:0]))
        kind_cuts = np.zeros(n_groups + 1, dtype=np.intp)
        np.cumsum(
            np.bincount(group[mask], minlength=n_groups),
            out=kind_cuts[1:],
        )
        cuts = kind_cuts.tolist()
        for plan, a, b in zip(plans, cuts, cuts[1:]):
            if a == b:
                for name, values in empty:
                    setattr(plan, name, values)
                continue
            for name, values in members:
                setattr(plan, name, values[a:b])
            if edges:
                e0, e1 = edge_cuts[a], edge_cuts[b]
                for name, values in edges:
                    setattr(plan, name, values[e0:e1])
                setattr(plan, f"{prefix}_ptr", edge_ptr[a:b] - e0)
    return plans


class _SubsetOps:
    """Evaluation plan for a subset of a :class:`FrozenGraph`'s blocks.

    Packs the subset's blocks by kind (mirroring the full-graph packed
    arrays) so one levelized pass — or the per-step transient update —
    touches only those blocks.  Source indices still address the full
    voltage vector; only the *written* positions are subset-local.
    Built by :func:`_pack_plans`.
    """

    __slots__ = (
        "ids",
        "gain",
        "offset",
        "rail",
        "const_pos",
        "const_take",
        "lin_pos",
        "lin_src",
        "lin_w",
        "lin_ptr",
        "lin_const",
        "abs_pos",
        "abs_a",
        "abs_b",
        "abs_w",
        "max_pos",
        "max_src",
        "max_ptr",
        "min_pos",
        "min_src",
        "min_ptr",
        "mux_pos",
        "mux_a",
        "mux_b",
        "mux_t",
        "mux_f",
        "mux_thr",
        "gate_pos",
        "gate_a",
        "gate_b",
        "gate_thr",
        "gate_high",
        "gate_low",
    )

    def eval(self, v: np.ndarray, const_values: np.ndarray) -> np.ndarray:
        """The subset's settled targets, ``(*batch, ids.size)``.

        Reads input voltages from ``v``; the caller writes the result
        to ``[..., ids]`` of ``v`` itself during a levelized pass (safe:
        a block's inputs are always at a strictly smaller depth, never
        in its own level).  Batched when ``v``/``const_values`` carry
        leading axes.
        """
        raw = np.zeros(v.shape[:-1] + (self.ids.size,))
        if self.const_pos.size:
            raw[..., self.const_pos] = const_values[..., self.const_take]
        if self.lin_pos.size:
            contrib = v[..., self.lin_src] * self.lin_w
            raw[..., self.lin_pos] = (
                np.add.reduceat(contrib, self.lin_ptr, axis=-1)
                + self.lin_const
            )
        if self.abs_pos.size:
            raw[..., self.abs_pos] = self.abs_w * np.abs(
                v[..., self.abs_a] - v[..., self.abs_b]
            )
        if self.max_pos.size:
            raw[..., self.max_pos] = np.maximum.reduceat(
                v[..., self.max_src], self.max_ptr, axis=-1
            )
        if self.min_pos.size:
            raw[..., self.min_pos] = np.minimum.reduceat(
                v[..., self.min_src], self.min_ptr, axis=-1
            )
        if self.mux_pos.size:
            close = (
                np.abs(v[..., self.mux_a] - v[..., self.mux_b])
                <= self.mux_thr
            )
            raw[..., self.mux_pos] = np.where(
                close, v[..., self.mux_t], v[..., self.mux_f]
            )
        if self.gate_pos.size:
            far = (
                np.abs(v[..., self.gate_a] - v[..., self.gate_b])
                > self.gate_thr
            )
            raw[..., self.gate_pos] = np.where(
                far, self.gate_high, self.gate_low
            )
        raw = raw * self.gain + self.offset
        if self.rail is not None:
            np.clip(raw, -self.rail, self.rail, out=raw)
        return raw


class FrozenGraph:
    """Immutable, array-packed view of a :class:`BlockGraph`.

    Blocks are grouped by kind; variable-arity kinds (lin/max/min) store
    their edges contiguously for ``reduceat``-style evaluation.

    Two execution strategies share these arrays: the reference Jacobi
    sweep (:func:`repro.analog.dc_solve` with ``method="jacobi"``) and
    the levelized pass (:meth:`solve`), which exploits the topological
    ``depth`` precomputed here to settle in exactly ``n_levels`` subset
    evaluations.  :meth:`bind` rebinds ``const_values`` without
    repacking, which is what the accelerator's graph-template cache
    builds on; a bound view with a ``(batch, n_const)`` matrix solves
    every row in one vectorized pass.
    """

    def __init__(self, graph: BlockGraph) -> None:
        blocks = graph._blocks
        n = len(blocks)
        self.n_blocks = n
        self.outputs = dict(graph._outputs)
        taus = [b.tau for b in blocks]
        inputs = [b.inputs for b in blocks]
        self.tau = np.array(taus)
        self.kind = np.array([b.kind for b in blocks])
        self.gain = np.array([b.gain for b in blocks])
        self.offset = np.array([b.offset for b in blocks])
        self.labels = [b.label for b in blocks]
        self.supply_rail = graph.nonideality.supply_rail

        #: Every block's inputs as one CSR: block ``i`` reads
        #: ``input_src[input_ptr[i]:input_ptr[i + 1]]``.
        arity = np.fromiter(map(len, inputs), dtype=np.intp, count=n)
        self.input_ptr = np.zeros(n + 1, dtype=np.intp)
        np.cumsum(arity, out=self.input_ptr[1:])
        self.input_src = np.fromiter(
            itertools.chain.from_iterable(inputs),
            dtype=np.intp,
            count=int(self.input_ptr[-1]),
        )

        # Critical-path settling budget: the sum of taus along the
        # slowest input chain of each block.  Cascaded first-order
        # stages settle in roughly ln(1/tol) times this, which sizes
        # the transient window without trial and error.
        critical = [0.0] * n
        depth = [0] * n
        critical_of, depth_of = critical.__getitem__, depth.__getitem__
        for i, ins in enumerate(inputs):
            if ins:
                critical[i] = taus[i] + max(map(critical_of, ins))
                depth[i] = 1 + max(map(depth_of, ins))
            else:
                critical[i] = taus[i] + 0.0
        self.critical_tau = np.array(critical, dtype=np.float64)
        #: Topological depth per block (0 = sources); the levelized
        #: solver settles the graph in exactly ``n_levels`` passes.
        self.depth = np.array(depth, dtype=np.intp)
        self.n_levels = max(depth) + 1 if n else 0
        # Lazily-built _SubsetOps, shared (by reference) with every
        # bound view so rebinding const_values never repacks edges.
        self._ops_cache: Dict[str, object] = {}

        def field(name: str, ids: np.ndarray) -> np.ndarray:
            return np.array([getattr(blocks[i], name) for i in ids.tolist()])

        def edges(ids: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
            idx, ptr = _csr_gather(self.input_ptr[ids], arity[ids])
            return self.input_src[idx], ptr[:-1]

        def operand(ids: np.ndarray, k: int) -> np.ndarray:
            return self.input_src[self.input_ptr[ids] + k]

        # const
        self.const_ids = np.flatnonzero(self.kind == KIND_CONST)
        self.const_values = field("constant", self.const_ids)

        # lin: flat edge arrays + reduce offsets
        self.lin_ids = np.flatnonzero(self.kind == KIND_LIN)
        self.lin_src, self.lin_ptr = edges(self.lin_ids)
        self.lin_w = np.fromiter(
            itertools.chain.from_iterable(
                blocks[i].weights for i in self.lin_ids.tolist()
            ),
            dtype=np.float64,
            count=self.lin_src.size,
        )
        self.lin_const = field("constant", self.lin_ids)

        # absdiff
        self.abs_ids = np.flatnonzero(self.kind == KIND_ABSDIFF)
        self.abs_a = operand(self.abs_ids, 0)
        self.abs_b = operand(self.abs_ids, 1)
        self.abs_w = np.array(
            [blocks[i].weights[0] for i in self.abs_ids.tolist()]
        )

        # max / min
        self.max_ids = np.flatnonzero(self.kind == KIND_MAX)
        self.max_src, self.max_ptr = edges(self.max_ids)
        self.min_ids = np.flatnonzero(self.kind == KIND_MIN)
        self.min_src, self.min_ptr = edges(self.min_ids)

        # mux
        self.mux_ids = np.flatnonzero(self.kind == KIND_MUX)
        self.mux_a = operand(self.mux_ids, 0)
        self.mux_b = operand(self.mux_ids, 1)
        self.mux_t = operand(self.mux_ids, 2)
        self.mux_f = operand(self.mux_ids, 3)
        self.mux_thr = field("threshold", self.mux_ids)

        # gate
        self.gate_ids = np.flatnonzero(self.kind == KIND_GATE)
        self.gate_a = operand(self.gate_ids, 0)
        self.gate_b = operand(self.gate_ids, 1)
        self.gate_thr = field("threshold", self.gate_ids)
        self.gate_high = field("v_high", self.gate_ids)
        self.gate_low = field("v_low", self.gate_ids)

    def stats(self) -> Dict[str, int]:
        """Block counts per kind plus depth — the analog resource view.

        ``depth`` is the longest dependency chain (stages on the
        critical path), the quantity the convergence time scales with.
        """
        from collections import Counter

        counts = Counter(KIND_NAMES[int(k)] for k in self.kind)
        out: Dict[str, int] = dict(sorted(counts.items()))
        out["total"] = self.n_blocks
        # Depth: longest dependency chain (ids are topological by
        # construction), precomputed at freeze time for the solver.
        out["depth"] = self.n_levels - 1 if self.n_blocks else 0
        return out

    @property
    def batch_shape(self) -> Tuple[int, ...]:
        """Leading axes of the bound ``const_values`` (``()`` = one
        operating point; ``(B,)`` = B vectorized solves)."""
        return tuple(self.const_values.shape[:-1])

    def bind(self, const_values: np.ndarray) -> "FrozenGraph":
        """A view of this graph with different source voltages.

        ``const_values`` replaces the packed const-block values (last
        axis must match; leading axes batch the solve).  The packed
        structure — including the lazily-built levelized plans — is
        shared by reference, so rebinding is O(1): this is the template
        re-use primitive behind the accelerator's graph cache.
        """
        cv = np.asarray(const_values, dtype=np.float64)
        if cv.shape[-1:] != (self.const_ids.size,):
            raise ConfigurationError(
                f"const_values last axis must be {self.const_ids.size}; "
                f"got shape {cv.shape}"
            )
        bound = copy.copy(self)
        bound.const_values = cv
        return bound

    def _level_ops(self) -> "List[_SubsetOps]":
        ops = self._ops_cache.get("levels")
        if ops is None:
            # A stable sort keeps the ids ascending inside each level.
            ops = _pack_plans(
                self,
                np.argsort(self.depth, kind="stable"),
                np.bincount(self.depth, minlength=self.n_levels).tolist(),
            )
            self._ops_cache["levels"] = ops
        return ops  # type: ignore[return-value]

    def _nonconst_ops(self) -> "_SubsetOps":
        ops = self._ops_cache.get("nonconst")
        if ops is None:
            ids = np.flatnonzero(self.kind != KIND_CONST)
            ops = _pack_plans(self, ids, [ids.size])[0]
            self._ops_cache["nonconst"] = ops
        return ops  # type: ignore[return-value]

    def _suffix_ops(self, depth: int) -> "_SubsetOps":
        """Plan for every block at topological depth ``>= depth``.

        The transient steps only this suffix once the shallower levels
        are bitwise stationary.  Plans exist only at the depths where
        the suffix holds at most half the blocks of the previous plan
        (starting from the non-const plan at depth 1), and ``depth``
        is rounded down to the nearest one: the cache then holds
        O(log n_blocks) plans however the freeze front moves, at most
        twice the non-const plan's size in total.
        """
        starts = self._ops_cache.get("suffix_starts")
        if starts is None:
            remaining = np.cumsum(
                np.bincount(self.depth, minlength=self.n_levels)[::-1]
            )[::-1]
            found = [1]
            for d in range(2, self.n_levels):
                if 2 * remaining[d] <= remaining[found[-1]]:
                    found.append(d)
            starts = np.array(found)
            self._ops_cache["suffix_starts"] = starts
        at = np.searchsorted(starts, max(depth, 1), side="right") - 1
        start = int(starts[at])
        if start == 1:
            return self._nonconst_ops()
        key = f"suffix{start}"
        ops = self._ops_cache.get(key)
        if ops is None:
            ids = np.flatnonzero(self.depth >= start)
            ops = _pack_plans(self, ids, [ids.size])[0]
            self._ops_cache[key] = ops
        return ops  # type: ignore[return-value]

    def solve(self, const_values: Optional[np.ndarray] = None) -> np.ndarray:
        """Settled voltages via one levelized pass per depth level.

        Builders only reference earlier blocks, so the graph is a
        feedforward DAG: evaluating level ``d`` after levels
        ``0..d-1`` uses only already-final inputs, making one pass per
        level an *exact* fixed point — bit-identical to the Jacobi
        reference sweep, in ``n_levels`` subset evaluations instead of
        up to ``n_blocks + 2`` full-graph sweeps.

        ``const_values`` (default: the bound values) may carry leading
        batch axes; the result then has shape ``(*batch, n_blocks)``.
        """
        cv = (
            self.const_values
            if const_values is None
            else np.asarray(const_values, dtype=np.float64)
        )
        v = np.zeros(cv.shape[:-1] + (self.n_blocks,))
        for level in self._level_ops():
            v[..., level.ids] = level.eval(v, cv)
        return v

    def targets(
        self,
        v: np.ndarray,
        const_values: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Evaluate every block's target from the current voltages.

        Batched when ``v`` is ``(*batch, n_blocks)`` (and
        ``const_values``, if given, is ``(*batch, n_const)``).
        """
        cv = self.const_values if const_values is None else const_values
        out = np.zeros(v.shape[:-1] + (self.n_blocks,))
        if self.const_ids.size:
            out[..., self.const_ids] = cv
        if self.lin_ids.size:
            contrib = v[..., self.lin_src] * self.lin_w
            sums = np.add.reduceat(contrib, self.lin_ptr, axis=-1)
            out[..., self.lin_ids] = sums + self.lin_const
        if self.abs_ids.size:
            out[..., self.abs_ids] = self.abs_w * np.abs(
                v[..., self.abs_a] - v[..., self.abs_b]
            )
        if self.max_ids.size:
            out[..., self.max_ids] = np.maximum.reduceat(
                v[..., self.max_src], self.max_ptr, axis=-1
            )
        if self.min_ids.size:
            out[..., self.min_ids] = np.minimum.reduceat(
                v[..., self.min_src], self.min_ptr, axis=-1
            )
        if self.mux_ids.size:
            close = (
                np.abs(v[..., self.mux_a] - v[..., self.mux_b])
                <= self.mux_thr
            )
            out[..., self.mux_ids] = np.where(
                close, v[..., self.mux_t], v[..., self.mux_f]
            )
        if self.gate_ids.size:
            far = (
                np.abs(v[..., self.gate_a] - v[..., self.gate_b])
                > self.gate_thr
            )
            out[..., self.gate_ids] = np.where(
                far, self.gate_high, self.gate_low
            )
        out = out * self.gain + self.offset
        if self.supply_rail is not None:
            np.clip(out, -self.supply_rail, self.supply_rail, out=out)
        return out

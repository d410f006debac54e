"""The reconfigurable distance accelerator (Fig. 1) — public API.

:class:`DistanceAccelerator` glues the four architecture modules
together: the DAC array quantising inputs, the computation module (PE
block graphs from :mod:`repro.accelerator.pe`, configured through the
configuration library), the control/configuration module (this class:
dataflow, tiling, overflow monitoring), and the ADC array reading the
result.

Like the chip, which programs one configuration and streams query
voltages through it, every entry point runs through one core: a
template factory that builds, freezes and caches each array
configuration, and one settle step that rebinds the inputs, solves and
reads the taps through the ADC.

>>> from repro.accelerator import DistanceAccelerator
>>> acc = DistanceAccelerator()
>>> acc.compute("dtw", [0.0, 1.0, 2.0], [0.0, 1.0, 2.0]).value
0.0...
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Hashable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..check import CheckReport
    from ..faults.state import FaultState

from ..analog import (
    BlockGraph,
    DEFAULT_NONIDEALITY,
    DEFAULT_TIMING,
    FrozenGraph,
    NonidealityModel,
    TimingModel,
    dc_solve,
    measure_convergence_many,
)
from ..errors import CapacityError, ConfigurationError
from ..validation import (
    as_sequence,
    as_weight_matrix,
    as_weight_vector,
    require_same_length,
)
from .batch import BatchResult
from .configurations import FunctionConfig, get_config
from .dac_adc import AdcArray, DacArray
from .params import AcceleratorParameters, PAPER_PARAMS
from .pe import (
    build_dtw_graph,
    build_edit_graph,
    build_hamming_graph,
    build_hausdorff_graph,
    build_lcs_graph,
    build_manhattan_graph,
)
from .tiling import plan_matrix_tiles, plan_row_segments


@dataclasses.dataclass
class AcceleratorResult:
    """Everything one accelerator invocation produces.

    Attributes
    ----------
    value:
        The decoded distance, in the same units as the software
        reference implementations.
    raw_voltage:
        Settled analog output before the ADC.
    adc_voltage:
        Output after ADC quantisation (equals ``raw_voltage`` when
        quantisation is disabled).
    convergence_time_s:
        Analog convergence time (the paper's Section 4.2 metric);
        ``None`` unless ``measure_time=True``.
    conversion_time_s:
        DAC load + ADC read latency.
    total_time_s:
        ``convergence + conversion`` when timing was measured.
    tiles:
        Number of array passes (1 = fits the array).
    overflow:
        True when any analog voltage approached the supply rail or the
        ADC clipped — the result is untrustworthy.
    n_blocks:
        Total analog stages simulated (proxy for active PE resources).
    """

    function: str
    value: float
    raw_voltage: float
    adc_voltage: float
    convergence_time_s: Optional[float]
    conversion_time_s: float
    total_time_s: Optional[float]
    tiles: int
    overflow: bool
    n_blocks: int


#: The one comparison of an unbatched graph: input 0 against input 1.
_ONE_PAIR: Tuple[Tuple[int, int], ...] = ((0, 1),)

#: Keyword arguments that may select or shape a function's graph.
_OPTIONS = ("threshold", "band", "paper_errata")


def check_options(config: FunctionConfig, **options) -> None:
    """Reject an argument ``config``'s graph builder would not read.

    Only DTW takes a ``band``, only the comparator functions
    (``uses_threshold``) a non-zero ``threshold``, and only edit the
    ``paper_errata`` variant.  An ignored argument would otherwise
    return a plausible value and key a duplicate graph template.
    ``threshold=0.0``, ``band=None`` and ``paper_errata=False`` are
    the defaults and legal everywhere.
    """
    unknown = sorted(set(options) - set(_OPTIONS))
    if unknown:
        raise ConfigurationError(
            f"{config.name!r} takes no argument {unknown[0]!r}; "
            f"known: {', '.join(_OPTIONS)}"
        )
    if options.get("band") is not None and config.name != "dtw":
        raise ConfigurationError(
            f"band applies to DTW only, not {config.name!r}"
        )
    threshold = options.get("threshold", 0.0)
    if not config.uses_threshold and float(threshold) != 0.0:
        raise ConfigurationError(
            f"{config.name!r} has no comparator; threshold must be 0, "
            f"got {threshold!r}"
        )
    if options.get("paper_errata") and config.name != "edit":
        raise ConfigurationError(
            f"paper_errata applies to edit only, not {config.name!r}"
        )


@dataclasses.dataclass
class _GraphTemplate:
    """A frozen, reusable block graph plus its rebind metadata.

    ``slots[k]`` holds the positions of input ``k``'s sources inside
    the frozen graph's ``const_values`` (the operand rows first, then
    a DP tile's top/left/corner edges); a query copies ``base_const``,
    writes its voltages into those positions and solves the rebound
    view — no Python graph rebuild, no repacking.  ``outs``/``names``
    are the output tap of each pair, ``cells`` and ``minima`` the DP
    cells and Hausdorff column minima the tiling loops read.
    """

    frozen: FrozenGraph
    n_blocks: int
    base_const: np.ndarray
    slots: List[np.ndarray]
    outs: np.ndarray
    names: List[str]
    cells: Dict[Tuple[int, int], int]
    minima: np.ndarray

    def bind(self, inputs: Sequence[np.ndarray]) -> FrozenGraph:
        """Frozen view with ``inputs`` written into the input slots.

        Values may carry a leading batch axis; the bound view then
        solves the whole batch in one vectorized pass.
        """
        batch: Tuple[int, ...] = ()
        for value in inputs:
            value = np.asarray(value)
            if value.ndim > 1:
                batch = value.shape[:-1]
        cv = np.broadcast_to(
            self.base_const, batch + self.base_const.shape
        ).copy()
        for positions, value in zip(self.slots, inputs):
            if positions.size:
                cv[..., positions] = value
        return self.frozen.bind(cv)


class _Settled(NamedTuple):
    """One settle of a bound template, read out."""

    voltages: np.ndarray  # every block, (..., n_blocks)
    raw: np.ndarray  # each pair's output tap, (..., n_pairs)
    read: np.ndarray  # the ADC reading of the read taps
    overflow: np.ndarray  # per leading batch row
    t_conv: Optional[float]


class DistanceAccelerator:
    """A configured accelerator chip instance.

    Parameters
    ----------
    params:
        Electrical/architectural constants (default: Table 1 values).
    nonideality:
        Analog error model; one instance = one fabricated chip.
    timing:
        Stage time-constant model.
    dac, adc:
        Converter arrays; defaults follow the Section 4.3 designs.
    quantise_io:
        Model DAC/ADC quantisation (disable for ideal-converter
        ablations).
    use_template_cache:
        Reuse frozen graph templates across queries that share a
        graph structure (function, lengths, sharing pattern, weights
        and the arguments the builder reads), rebinding only the
        source voltages per query.  Disable to
        rebuild every graph from scratch (the pre-cache behaviour;
        results are bit-identical either way).  The cache is bypassed
        automatically when an attached fault map draws time-varying
        read disturb, and invalidated (fault epoch bump) on
        ``inject_faults``/``clear_faults``/recalibration.
    solver:
        ``"levelized"`` (default) settles in one pass per topological
        depth level; ``"jacobi"`` is the reference full-graph sweep.
        Bit-identical results.
    validate:
        Run the static electrical rule checker (:mod:`repro.check`)
        over the parameters and the configuration library at
        construction, raising
        :class:`~repro.errors.ElectricalRuleError` on any
        error-severity diagnostic.  A mis-configured chip would not
        crash — it would return plausible wrong distances — so the
        default is fail-fast.
    """

    def __init__(
        self,
        params: AcceleratorParameters = PAPER_PARAMS,
        nonideality: NonidealityModel = DEFAULT_NONIDEALITY,
        timing: TimingModel = DEFAULT_TIMING,
        dac: Optional[DacArray] = None,
        adc: Optional[AdcArray] = None,
        quantise_io: bool = True,
        use_template_cache: bool = True,
        solver: str = "levelized",
        validate: bool = True,
    ) -> None:
        self.params = params
        self.nonideality = nonideality
        self.timing = timing
        self.dac = dac if dac is not None else DacArray()
        self.adc = adc if adc is not None else AdcArray()
        self.quantise_io = quantise_io
        if solver not in ("levelized", "jacobi"):
            raise ConfigurationError(
                f"unknown solver {solver!r}; "
                "expected 'levelized' or 'jacobi'"
            )
        self.solver = solver
        self.use_template_cache = use_template_cache
        self._templates: "OrderedDict[Hashable, _GraphTemplate]" = (
            OrderedDict()
        )
        self._template_capacity = 256
        self._template_hits = 0
        self._template_misses = 0
        self.fault_epoch = 0
        self.fault_state: "Optional[FaultState]" = None
        if validate:
            self.self_check().raise_if_errors(
                "DistanceAccelerator construction"
            )

    def self_check(self, deep: bool = False) -> "CheckReport":
        """Static ERC report for this instance (see :mod:`repro.check`).

        ``deep=True`` additionally smoke-builds every function's block
        graph and runs the graph-level rules — the same pass the
        ``repro check`` CLI performs.
        """
        from ..check import check_accelerator

        return check_accelerator(self, deep=deep)

    # -- runtime faults ----------------------------------------------------
    def inject_faults(self, state: "FaultState") -> None:
        """Attach a runtime fault map (see :mod:`repro.faults`).

        Subsequent computations build fault-aware block graphs; the
        usable array shrinks to the fault map's repacked healthy rows.
        Cached graph templates are invalidated: a template frozen
        before the fault map attached would silently serve fault-free
        voltages.
        """
        self.fault_state = state
        self.invalidate_templates()

    def clear_faults(self) -> None:
        """Detach the fault map (chip replaced / faults healed).

        Invalidates cached templates — they embed the faulted weights.
        """
        self.fault_state = None
        self.invalidate_templates()

    def invalidate_templates(self) -> None:
        """Drop every cached graph template and bump the fault epoch.

        Called automatically on ``inject_faults``/``clear_faults`` and
        by :func:`repro.faults.repair.recalibrate`.  Call it manually
        after mutating an attached :class:`FaultState` in place
        (``disable_site``, offset tuning, ...) outside those paths.
        """
        self._templates.clear()
        self.fault_epoch += 1

    def template_cache_info(self) -> Dict[str, object]:
        """Cache observability: hit/miss counters and the fault epoch."""
        return {
            "enabled": self.use_template_cache,
            "active": self._template_cache_active(),
            "solver": self.solver,
            "size": len(self._templates),
            "capacity": self._template_capacity,
            "hits": self._template_hits,
            "misses": self._template_misses,
            "fault_epoch": self.fault_epoch,
        }

    @property
    def usable_rows(self) -> int:
        """Addressable PE rows after remapping around dead sites."""
        if self.fault_state is None:
            return self.params.array_rows
        return self.fault_state.usable_rows()

    @property
    def usable_cols(self) -> int:
        """Addressable PE columns (full width; rows absorb dead sites)."""
        if self.fault_state is None:
            return self.params.array_cols
        return self.fault_state.usable_cols()

    def _fault_adc_offset(self) -> float:
        """Additive ADC-reference offset of the attached fault map."""
        if self.fault_state is None:
            return 0.0
        return self.fault_state.adc_offset_v

    # -- helpers -----------------------------------------------------------
    def _new_graph(self) -> BlockGraph:
        if self.fault_state is not None:
            from ..faults.graph import FaultedBlockGraph

            return FaultedBlockGraph(
                self.fault_state,
                nonideality=self.nonideality,
                timing=self.timing,
            )
        return BlockGraph(
            nonideality=self.nonideality, timing=self.timing
        )

    def _encode_inputs(self, values: np.ndarray) -> np.ndarray:
        volts = self.params.encode(values)
        if self.quantise_io:
            volts = self.dac.convert(volts)
        return volts

    def _requantise(self, voltage: float) -> float:
        """Model a value crossing the ADC -> DAC boundary (tiling).

        Boundary cells sitting at the infinity rail are wired to the
        rail by the control module rather than converted (the ADC's
        full scale is far below the supply), so they pass through.
        """
        if not self.quantise_io:
            return voltage
        if voltage >= self.params.infinity_rail * 0.99:
            return voltage
        sampled = float(
            self.adc.convert([voltage + self._fault_adc_offset()])[0]
        )
        return float(self.dac.convert([sampled])[0]) if abs(
            sampled
        ) <= self.dac.spec.full_scale else sampled

    def _decode(self, config: FunctionConfig, voltage: float) -> float:
        if config.decode == "steps":
            return self.params.decode_steps(voltage)
        return self.params.decode(voltage)

    def _overflowed(self, voltages: np.ndarray, raw) -> np.ndarray:
        """True when the ADC clipped or any internal node ran into a
        supply rail — either rail: subtractor chains can be driven
        *below* the negative rail just as adders saturate the positive
        one, and both invalidate the settled value.  ``raw`` may be a
        scalar tap or an array of taps; a leading batch axis on both
        gives one flag per batch row.
        """
        rail = self.params.vcc * 1.05
        clipped = np.any(
            np.atleast_1d(raw)
            > self.adc.spec.full_scale - self.adc.spec.lsb,
            axis=-1,
        )
        return (
            clipped
            | (np.max(voltages, axis=-1) > rail)
            | (np.min(voltages, axis=-1) < -rail)
        )

    def fits_row(self, function: str, length: int) -> bool:
        """Whether a length-``length`` comparison of ``function`` fits
        one array row — the precondition of the row-batched settle
        (:meth:`batch`, :meth:`batch_pairs`).  Measured on the usable
        width, so a chip remapped around dead sites decides for itself.
        """
        return (
            get_config(function).structure == "row"
            and length <= self.usable_cols
        )

    # -- the execution core: one template factory, one settle ----------------
    def _template_cache_active(self) -> bool:
        """Cache usable now?  Time-varying read disturb draws fresh
        noise per *build* (stateful RNG), so a frozen template would
        pin one noise sample forever — bypass the cache entirely."""
        if not self.use_template_cache:
            return False
        state = self.fault_state
        return state is None or state.read_disturb_sigma == 0.0

    def _template(
        self,
        config: FunctionConfig,
        inputs: Sequence[np.ndarray],
        pairs: Tuple[Tuple[int, int], ...],
        weights: Sequence[np.ndarray],
        threshold_v: float = 0.0,
        band: Optional[float] = None,
        paper_errata: bool = False,
        boundary: Optional[Tuple[list, list, float]] = None,
    ) -> _GraphTemplate:
        """Fetch or build, freeze and cache one array configuration.

        ``inputs`` are the encoded voltages of the distinct operands,
        one DAC row each; ``pairs`` holds each comparison's
        ``(p_slot, q_slot)`` into them (the DAC sharing pattern: a
        1-vs-many query loads one row driving every comparison) and
        ``weights`` its weights.  Every pair owns one array row, and
        one run of fault sites.  ``boundary`` (top, left, corner
        voltages) builds a DP tile whose edges are rebindable sources
        instead of the cold-start conditions.  The key holds exactly
        what shapes the graph; the LRU cache is per chip.
        """
        key = None
        if self._template_cache_active():
            # An LCS tile with a 0 V corner shares the zero rail instead
            # of a dedicated const: a different structure (see
            # build_lcs_graph).
            edges = None
            if boundary is not None:
                edges = config.name == "lcs" and boundary[2] == 0.0
            key = (
                config.name,
                tuple(v.shape[0] for v in inputs),
                pairs,
                tuple(w.tobytes() for w in weights),
                threshold_v,
                band,
                paper_errata,
                edges,
            )
            cached = self._templates.get(key)
            if cached is not None:
                self._templates.move_to_end(key)
                self._template_hits += 1
                return cached
            self._template_misses += 1

        # Sources first, then each pair's PEs: a FaultedBlockGraph maps
        # stages to fault sites in creation order.
        graph = self._new_graph()
        input_ids = [[graph.const(v) for v in volts] for volts in inputs]
        cells: Dict[Tuple[int, int], int] = {}
        edge_ids: Dict[str, list] = {}
        minima: List[int] = []
        # A DP tile takes rebindable edges and reports its cells.
        dp: Dict[str, object] = {}
        if boundary is not None:
            dp = {
                "boundary_top": boundary[0],
                "boundary_left": boundary[1],
                "boundary_corner": boundary[2],
                "cells_out": cells,
                "boundary_ids_out": edge_ids,
            }
        names = (
            ["out"]
            if len(pairs) == 1
            else [f"cand{k}" for k in range(len(pairs))]
        )
        outs = []
        # Builders are called by their module-level names, which is
        # where tracing tools rebind them.
        for (ps, qs), w, name in zip(pairs, weights, names):
            p_ids, q_ids = input_ids[ps], input_ids[qs]
            if config.name == "hamming":
                out = build_hamming_graph(
                    graph, p_ids, q_ids, w, self.params,
                    threshold_v=threshold_v,
                )
            elif config.name == "manhattan":
                out = build_manhattan_graph(
                    graph, p_ids, q_ids, w, self.params
                )
            elif config.name == "hausdorff":
                out = build_hausdorff_graph(
                    graph, p_ids, q_ids, w, self.params,
                    column_minima_out=minima,
                )
            elif config.name == "dtw":
                out = build_dtw_graph(
                    graph, p_ids, q_ids, w, self.params, band=band, **dp
                )
            elif config.name == "lcs":
                out = build_lcs_graph(
                    graph, p_ids, q_ids, w, self.params,
                    threshold_v=threshold_v, **dp,
                )
            elif config.name == "edit":
                out = build_edit_graph(
                    graph, p_ids, q_ids, w, self.params,
                    threshold_v=threshold_v, paper_errata=paper_errata,
                    **dp,
                )
            else:
                raise ConfigurationError(
                    f"no PE builder for {config.name!r}"
                )
            graph.mark_output(name, out)
            outs.append(out)
        frozen = graph.freeze()
        if boundary is not None:
            input_ids += [
                edge_ids.get(edge, []) for edge in ("top", "left", "corner")
            ]
        template = _GraphTemplate(
            frozen=frozen,
            n_blocks=len(graph),
            base_const=frozen.const_values.copy(),
            slots=[
                np.searchsorted(
                    frozen.const_ids, np.asarray(ids, dtype=np.intp)
                )
                for ids in input_ids
            ],
            outs=np.array(outs, dtype=np.intp),
            names=names,
            cells=cells,
            minima=np.array(minima, dtype=np.intp),
        )
        if key is not None:
            self._templates[key] = template
            if len(self._templates) > self._template_capacity:
                self._templates.popitem(last=False)
        return template

    def _settle(
        self,
        template: _GraphTemplate,
        inputs: Sequence[np.ndarray],
        measure_time: bool = False,
        taps: Optional[np.ndarray] = None,
    ) -> _Settled:
        """Bind, solve, read through the ADC and check overflow.

        ``taps`` are the blocks the ADC reads (default: every pair's
        output).  Decoding stays with the caller: a row segment or a
        Hausdorff tile reads a partial result whose decoded value only
        exists after the digital accumulation.  With ``measure_time``
        one transient records every pair's tap; the strobe waits for
        the slowest row, so the convergence time is their max.
        """
        bound = template.bind(inputs)
        voltages = dc_solve(bound, method=self.solver)
        raw = voltages[..., template.outs]
        read = raw if taps is None else voltages[..., taps]
        if self.quantise_io:
            read = self.adc.convert(read + self._fault_adc_offset())
        t_conv = None
        if measure_time:
            times = measure_convergence_many(bound, template.names)
            t_conv = max(t for t, _ in times.values())
        return _Settled(
            voltages, raw, read, self._overflowed(voltages, raw), t_conv
        )

    # -- public API ----------------------------------------------------------
    def compute(
        self,
        function: str,
        p,
        q,
        weights=None,
        threshold: float = 0.0,
        band: Optional[float] = None,
        measure_time: bool = False,
        paper_errata: bool = False,
    ) -> AcceleratorResult:
        """Run one distance computation on the accelerator.

        Parameters mirror the software reference functions; ``threshold``
        is given in sequence-value units and converted to the comparator
        voltage internally.  Arguments the function does not read raise
        :class:`~repro.errors.ConfigurationError` (see
        :func:`check_options`).
        """
        config = get_config(function)
        check_options(
            config, threshold=threshold, band=band, paper_errata=paper_errata
        )
        p_arr = as_sequence(p, "p")
        q_arr = as_sequence(q, "q")
        if not config.supports_unequal_lengths:
            require_same_length(p_arr, q_arr)
        n, m = p_arr.shape[0], q_arr.shape[0]
        threshold_v = float(threshold) * self.params.voltage_resolution
        if config.structure == "row":
            w = as_weight_vector(weights, n)
            spans = [
                slice(start - 1, end)
                for start, end in plan_row_segments(n, self.usable_cols)
            ]
        else:
            w = as_weight_matrix(weights, n, m)
            if n > self.usable_rows or m > self.usable_cols:
                return self._compute_tiled(
                    config, p_arr, q_arr, w, threshold_v, band,
                    measure_time, paper_errata,
                )
            spans = [slice(None)]
        return self._compute_spans(
            config, p_arr, q_arr, w, spans, threshold_v, band,
            measure_time, paper_errata,
        )

    def distance(self, function: str, **fixed) -> Callable[..., float]:
        """A plain ``fn(p, q, **kw) -> float`` view of one function.

        Drop-in replacement for the :mod:`repro.distances` callables, so
        the mining layer can run on hardware by swapping one argument.
        """

        def fn(p, q, **kwargs) -> float:
            merged = dict(fixed)
            merged.update(kwargs)
            return self.compute(function, p, q, **merged).value

        fn.__name__ = f"accelerated_{function}"
        return fn

    # -- row-structure batching ------------------------------------------------
    def batch(
        self,
        function: str,
        query,
        candidates: Sequence,
        weights=None,
        threshold: float = 0.0,
        measure_time: bool = False,
    ) -> BatchResult:
        """Distances from ``query`` to every candidate, batched by rows.

        All candidates must share the query's length (row structure).
        Up to ``array_rows`` candidates settle per pass; more
        candidates cost additional passes (counted in ``passes`` and
        the time model).
        """
        config = self._row_config(function, threshold)
        if len(candidates) == 0:
            raise ConfigurationError("no candidates")
        q_arr = as_sequence(query, "query")
        n = q_arr.shape[0]
        pairs = []
        for k, c in enumerate(candidates):
            arr = as_sequence(c, f"candidates[{k}]")
            require_same_length(q_arr, arr)
            pairs.append((q_arr, arr))
        w = as_weight_vector(weights, n)
        # The query loads once; every candidate loads its own row.
        dac_samples = n * (1 + len(pairs))
        return self._batch(
            config,
            pairs,
            [w] * len(pairs),
            threshold,
            measure_time,
            dac_samples,
        )

    def batch_pairs(
        self,
        function: str,
        pairs: Sequence,
        weights=None,
        threshold: float = 0.0,
        measure_time: bool = False,
    ) -> BatchResult:
        """Independent ``(p, q)`` comparisons sharing one settle.

        The array rows are electrically independent for the row
        structure, so arbitrary same-function pairs — even of
        different lengths — settle together.  ``weights`` is either
        ``None`` or one weight vector per pair.  This is the primitive
        the serving layer's dynamic batcher coalesces concurrent
        queries into.
        """
        config = self._row_config(function, threshold)
        if len(pairs) == 0:
            raise ConfigurationError("no pairs")
        checked = []
        for k, (p, q) in enumerate(pairs):
            p_arr = as_sequence(p, f"pairs[{k}][0]")
            q_arr = as_sequence(q, f"pairs[{k}][1]")
            require_same_length(p_arr, q_arr)
            checked.append((p_arr, q_arr))
        if weights is None:
            weight_vectors = [
                as_weight_vector(None, p.shape[0]) for p, _ in checked
            ]
        else:
            if len(weights) != len(checked):
                raise ConfigurationError(
                    "need one weight vector per pair; got "
                    f"{len(weights)} for {len(checked)} pairs"
                )
            weight_vectors = [
                as_weight_vector(w, p.shape[0])
                for w, (p, _) in zip(weights, checked)
            ]
        dac_samples = sum(2 * p.shape[0] for p, _ in checked)
        return self._batch(
            config,
            checked,
            weight_vectors,
            threshold,
            measure_time,
            dac_samples,
        )

    def compute_many(
        self,
        function: str,
        pairs: Sequence,
        weights=None,
        threshold: float = 0.0,
        band: Optional[float] = None,
        paper_errata: bool = False,
    ) -> "List[AcceleratorResult]":
        """:meth:`compute` over many ``(p, q)`` pairs, one per result.

        When every pair shares one graph structure — same lengths, one
        ``weights`` argument, and the workload fits the array without
        tiling — all pairs solve in a single vectorized settle of the
        shared template (a ``(batch, n_const)`` rebind: the same array
        row, B times).  Each row of the batched solve is bit-identical
        to the sequential :meth:`compute` result; heterogeneous or tiled
        workloads fall back to the sequential loop transparently.  This
        is the primitive the BIST golden/probe runs and Monte-Carlo
        sweeps amortize their settles with.  (Timing is never measured
        here; use :meth:`compute` with ``measure_time=True`` for that.)
        """
        config = get_config(function)
        check_options(
            config, threshold=threshold, band=band, paper_errata=paper_errata
        )
        checked = []
        for k, (p, q) in enumerate(pairs):
            p_arr = as_sequence(p, f"pairs[{k}][0]")
            q_arr = as_sequence(q, f"pairs[{k}][1]")
            if not config.supports_unequal_lengths:
                require_same_length(p_arr, q_arr)
            checked.append((p_arr, q_arr))
        if not checked:
            return []
        shapes = {
            (p_arr.shape[0], q_arr.shape[0]) for p_arr, q_arr in checked
        }
        n, m = next(iter(shapes))
        row = config.structure == "row"
        fits = (
            n <= self.usable_cols
            if row
            else n <= self.usable_rows and m <= self.usable_cols
        )
        if len(shapes) != 1 or not fits:
            return [
                self.compute(
                    function,
                    p_arr,
                    q_arr,
                    weights=weights,
                    threshold=threshold,
                    band=band,
                    paper_errata=paper_errata,
                )
                for p_arr, q_arr in checked
            ]
        w = (
            as_weight_vector(weights, n)
            if row
            else as_weight_matrix(weights, n, m)
        )
        inputs = [
            np.stack([self._encode_inputs(p_arr) for p_arr, _ in checked]),
            np.stack([self._encode_inputs(q_arr) for _, q_arr in checked]),
        ]
        threshold_v = float(threshold) * self.params.voltage_resolution
        template = self._template(
            config, [v[0] for v in inputs], _ONE_PAIR, [w], threshold_v,
            band, paper_errata,
        )
        settled = self._settle(template, inputs)
        conversion = self.dac.load_time(n + m) + self.adc.read_time(1)
        results: "List[AcceleratorResult]" = []
        for b in range(len(checked)):
            adc_v = float(settled.read[b, 0])
            results.append(
                AcceleratorResult(
                    function=config.name,
                    value=self._decode(config, adc_v),
                    # Row structure reports the post-ADC segment sum as
                    # its raw voltage, as compute does.
                    raw_voltage=(
                        adc_v if row else float(settled.raw[b, 0])
                    ),
                    adc_voltage=adc_v,
                    convergence_time_s=None,
                    conversion_time_s=conversion,
                    total_time_s=None,
                    tiles=1,
                    overflow=bool(settled.overflow[b]),
                    n_blocks=template.n_blocks,
                )
            )
        return results

    def _row_config(self, function: str, threshold: float) -> FunctionConfig:
        config = get_config(function)
        if config.structure != "row":
            raise ConfigurationError(
                "batch mode targets the row structure "
                "(hamming/manhattan); "
                f"{config.name!r} uses the matrix structure"
            )
        check_options(config, threshold=threshold)
        return config

    def _batch(
        self,
        config: FunctionConfig,
        pairs: "List[tuple]",
        weight_vectors: "List[np.ndarray]",
        threshold: float,
        measure_time: bool,
        dac_samples: int,
    ) -> BatchResult:
        """One multi-row graph, one settle, one result per pair."""
        longest = max(p_arr.shape[0] for p_arr, _ in pairs)
        if not self.fits_row(config.name, longest):
            raise ConfigurationError(
                "batch mode requires the sequence to fit one array "
                f"row; {longest} > {self.usable_cols} "
                "(use DistanceAccelerator.compute, which tiles)"
            )
        # Distinct input arrays, first-seen order, and each pair's
        # (p, q) as indices into them: the DAC sharing pattern.
        slot_of: Dict[int, int] = {}
        arrays: List[np.ndarray] = []
        pair_slots: List[Tuple[int, int]] = []
        for p_arr, q_arr in pairs:
            for arr in (p_arr, q_arr):
                if id(arr) not in slot_of:
                    slot_of[id(arr)] = len(arrays)
                    arrays.append(arr)
            pair_slots.append((slot_of[id(p_arr)], slot_of[id(q_arr)]))
        inputs = [self._encode_inputs(arr) for arr in arrays]
        hits = self._template_hits
        template = self._template(
            config,
            inputs,
            tuple(pair_slots),
            weight_vectors,
            float(threshold) * self.params.voltage_resolution,
        )
        settled = self._settle(template, inputs, measure_time)
        conversion = self.dac.load_time(
            dac_samples
        ) + self.adc.read_time(len(pairs))
        return BatchResult(
            function=config.name,
            values=np.array(
                [self._decode(config, float(v)) for v in settled.read]
            ),
            convergence_time_s=settled.t_conv,
            conversion_time_s=conversion,
            passes=int(np.ceil(len(pairs) / self.usable_rows)),
            overflow=bool(settled.overflow),
            template_cached=self._template_hits > hits,
        )

    # -- single pass and row segments --------------------------------------------
    def _compute_spans(
        self,
        config: FunctionConfig,
        p_arr: np.ndarray,
        q_arr: np.ndarray,
        w: np.ndarray,
        spans: "List[slice]",
        threshold_v: float,
        band: Optional[float],
        measure_time: bool,
        paper_errata: bool,
    ) -> AcceleratorResult:
        """One array pass per span: the whole pair when it fits, or the
        row structure's array-width segments, whose ADC readings add up
        digitally."""
        total = t_conv = conversion = 0.0
        overflow = False
        blocks = 0
        for span in spans:
            inputs = [
                self._encode_inputs(p_arr[span]),
                self._encode_inputs(q_arr[span]),
            ]
            template = self._template(
                config, inputs, _ONE_PAIR, [w[span]], threshold_v, band,
                paper_errata,
            )
            settled = self._settle(template, inputs, measure_time)
            adc_v = float(settled.read[0])
            total += adc_v
            overflow = overflow or bool(settled.overflow)
            blocks += template.n_blocks
            conversion += self.dac.load_time(
                inputs[0].size + inputs[1].size
            ) + self.adc.read_time(1)
            if measure_time:
                t_conv += settled.t_conv
        if config.structure == "row":
            # Segment readings add up digitally; the sum is the reading.
            adc_v = raw = total
        else:
            raw = float(settled.raw[0])
        return AcceleratorResult(
            function=config.name,
            value=self._decode(config, adc_v),
            raw_voltage=raw,
            adc_voltage=adc_v,
            convergence_time_s=t_conv if measure_time else None,
            conversion_time_s=conversion,
            total_time_s=t_conv + conversion if measure_time else None,
            tiles=len(spans),
            overflow=overflow,
            n_blocks=blocks,
        )

    # -- tiled matrix structure ---------------------------------------------------
    def _compute_tiled(
        self,
        config: FunctionConfig,
        p_arr: np.ndarray,
        q_arr: np.ndarray,
        w: np.ndarray,
        threshold_v: float,
        band: Optional[float],
        measure_time: bool,
        paper_errata: bool,
    ) -> AcceleratorResult:
        """Array-sized tiles in row-major order.

        DP functions carry each tile's bottom row and right column to
        its neighbours across the ADC -> DAC boundary; Hausdorff reads
        each tile's column minima and keeps the running minimum per
        column digitally.
        """
        if band is not None:
            raise CapacityError(
                "band-constrained DTW is only supported when the "
                "sequences fit the PE array; enlarge array_rows/cols "
                "or drop the band"
            )
        n, m = p_arr.shape[0], q_arr.shape[0]
        hausdorff = config.name == "hausdorff"
        col_min = np.full(m, np.inf)
        dp = np.zeros((n + 1, m + 1))
        if config.name == "dtw":
            dp[0, 1:] = self.params.infinity_rail
            dp[1:, 0] = self.params.infinity_rail
        elif config.name == "edit":
            dp[0, :] = np.arange(m + 1) * self.params.v_step
            dp[:, 0] = np.arange(n + 1) * self.params.v_step

        tiles = plan_matrix_tiles(
            n, m, self.usable_rows, self.usable_cols
        )
        t_conv = conversion = 0.0
        overflow = False
        blocks = 0
        for tile in tiles:
            i0, i1 = tile.row_start, tile.row_end
            j0, j1 = tile.col_start, tile.col_end
            inputs = [
                self._encode_inputs(p_arr[i0 - 1 : i1]),
                self._encode_inputs(q_arr[j0 - 1 : j1]),
            ]
            boundary = None
            if not hausdorff:
                top = [
                    self._requantise(dp[i0 - 1, j])
                    for j in range(j0, j1 + 1)
                ]
                left = [
                    self._requantise(dp[i, j0 - 1])
                    for i in range(i0, i1 + 1)
                ]
                corner = self._requantise(dp[i0 - 1, j0 - 1])
                boundary = (top, left, corner)
            template = self._template(
                config, inputs, _ONE_PAIR, [w[i0 - 1 : i1, j0 - 1 : j1]],
                threshold_v, None, paper_errata, boundary,
            )
            if hausdorff:
                settled = self._settle(
                    template, inputs, measure_time, taps=template.minima
                )
                for k, measured in enumerate(settled.read):
                    j = j0 - 1 + k
                    col_min[j] = min(col_min[j], float(measured))
                loaded, exported = tile.n_rows + tile.n_cols, tile.n_cols
            else:
                edges = [np.asarray(top), np.asarray(left), [corner]]
                settled = self._settle(
                    template, inputs + edges, measure_time
                )
                # Export the bottom row and right column (what
                # neighbours and the final readout need).
                voltages, cells = settled.voltages, template.cells
                for j in range(1, tile.n_cols + 1):
                    dp[i1, j0 + j - 1] = voltages[cells[(tile.n_rows, j)]]
                for i in range(1, tile.n_rows + 1):
                    dp[i0 + i - 1, j1] = voltages[cells[(i, tile.n_cols)]]
                exported = tile.n_rows + tile.n_cols - 1
                loaded = tile.n_rows + tile.n_cols + exported
            overflow = overflow or bool(settled.overflow)
            blocks += template.n_blocks
            conversion += self.dac.load_time(loaded) + self.adc.read_time(
                exported
            )
            if measure_time:
                t_conv += settled.t_conv
        if hausdorff:
            raw = adc_v = float(np.max(col_min))
        else:
            # The last tile in row-major order ends at cell (n, m).
            raw, adc_v = float(dp[n, m]), float(settled.read[0])
        return AcceleratorResult(
            function=config.name,
            value=self._decode(config, adc_v),
            raw_voltage=raw,
            adc_voltage=adc_v,
            convergence_time_s=t_conv if measure_time else None,
            conversion_time_s=conversion,
            total_time_s=t_conv + conversion if measure_time else None,
            tiles=len(tiles),
            overflow=overflow,
            n_blocks=blocks,
        )

"""Simulation engine for analog block graphs.

Two analyses, mirroring :mod:`repro.spice`:

* :func:`dc_solve` — the settled operating point, found by sweeping the
  (topologically ordered) graph until a fixed point; this is the value
  an ideal infinitely-patient ADC would read.
* :func:`transient` — synchronous exponential integration of every
  block's first-order settling, producing the output waveform the
  paper's convergence-time metric is defined on ("the interval between
  the rising edge of the input and the timestamp when the output is
  within 0.1% of the final value").
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Sequence, Union

import numpy as np

from ..errors import ConfigurationError, ConvergenceError
from .graph import BlockGraph, FrozenGraph

#: The paper's convergence criterion: within 0.1 % of the final value.
CONVERGENCE_TOLERANCE = 1.0e-3


def _freeze(graph: Union[BlockGraph, FrozenGraph]) -> FrozenGraph:
    if isinstance(graph, BlockGraph):
        return graph.freeze()
    return graph


def dc_solve(
    graph: Union[BlockGraph, FrozenGraph],
    max_sweeps: Optional[int] = None,
    method: str = "levelized",
) -> np.ndarray:
    """Fixed point of the target map (the settled voltages).

    Because builders only reference earlier blocks, the graph is a
    feedforward DAG, so the fixed point is unique and exact — and
    reachable two ways:

    * ``method="levelized"`` (default) evaluates each topological depth
      level once, using only already-final inputs: exactly ``depth``
      subset passes (see :meth:`FrozenGraph.solve`).
    * ``method="jacobi"`` is the reference full-graph sweep, iterated
      to an exact fixed point.  Exact equality is required — an
      absolute tolerance would let sub-tolerance inputs fail to
      propagate through comparators, silently mis-deciding thresholds.

    Both are bit-identical (the per-level arithmetic is the same
    elementwise sequence of operations).  Passing ``max_sweeps``
    selects the Jacobi path, since a sweep limit only means something
    there.  When the graph's bound ``const_values`` carry leading batch
    axes the result is ``(*batch, n_blocks)`` — one vectorized settle
    for the whole batch.
    """
    g = _freeze(graph)
    if method == "levelized" and max_sweeps is None:
        return g.solve()
    if method not in ("levelized", "jacobi"):
        raise ConfigurationError(
            f"unknown dc_solve method {method!r}"
        )
    if max_sweeps is None:
        max_sweeps = g.n_blocks + 2
    v = np.zeros(g.batch_shape + (g.n_blocks,))
    for _ in range(max_sweeps):
        new = g.targets(v)
        if np.array_equal(new, v):
            return new
        v = new
    raise ConvergenceError(
        "DC sweep did not reach a fixed point; the graph may contain "
        "a comparator oscillating across its threshold"
    )


@dataclasses.dataclass
class AnalogTransientResult:
    """Waveforms and convergence measurements of one transient run.

    ``steps_run`` is the number of steps actually integrated: the run
    stops once the recorded state repeats bit for bit, and the samples
    after that hold the frozen value (see :func:`transient`).
    """

    time: np.ndarray
    waves: Dict[str, np.ndarray]
    final: Dict[str, float]
    steps_run: int

    def convergence_time(
        self,
        name: str,
        tolerance: float = CONVERGENCE_TOLERANCE,
    ) -> float:
        """Paper metric: first instant after which the output stays
        within ``tolerance`` (relative) of its final settled value.

        For a batched run (waves with leading axes) the worst row
        governs: the returned time is the max across the batch, since
        the ADC strobe must wait for the slowest comparison.
        """
        wave = np.asarray(self.waves[name])
        target = np.asarray(self.final[name])
        scale = np.maximum(np.abs(target), 1.0e-9)
        outside = (
            np.abs(wave - target[..., None]) > tolerance * scale[..., None]
        )
        if not np.any(outside):
            return float(self.time[0])
        last = int(np.max(np.nonzero(np.any(
            outside.reshape(-1, outside.shape[-1]), axis=0
        ))))
        if last + 1 >= self.time.size:
            raise ConvergenceError(
                f"output {name!r} did not converge within the simulated "
                f"window ({self.time[-1]:.3e} s)"
            )
        return float(self.time[last + 1])


#: Steps between stationarity checks.  A check costs about one step;
#: the stop it finds comes at most this many steps late.
_CHECK_EVERY = 32


def transient(
    graph: Union[BlockGraph, FrozenGraph],
    t_stop: float,
    dt: float,
    record: Optional[Sequence[str]] = None,
    v0: Optional[np.ndarray] = None,
) -> AnalogTransientResult:
    """Integrate ``dv/dt = (target - v)/tau`` from ``v0`` (default 0 V).

    Uses the exact exponential update for frozen inputs,
    ``v <- target + (v - target) exp(-dt/tau)``, which is
    unconditionally stable for any ``dt``; accuracy requires
    ``dt`` below the smallest interesting tau, which callers size via
    :func:`suggest_dt`.

    The step is a deterministic function of the state, so a state
    that repeats bit for bit once repeats forever.  The run therefore
    stops early without changing a single returned bit:

    * once the whole state (every batch row) repeats, the remaining
      samples are the frozen value;
    * once every block up to some depth repeats, those levels are
      frozen for good (their inputs are frozen too), and only the
      deeper blocks are stepped;
    * once every recorded tap's inputs are frozen, the taps' targets
      are constants and each tap alone is stepped, as a Python float,
      until it repeats.

    Stationarity is bitwise, not a tolerance: an output that settles
    to 0 V has a 1e-12 V band in :meth:`~AnalogTransientResult.convergence_time`.
    """
    g = _freeze(graph)
    if not g.outputs:
        raise ConvergenceError("graph has no marked outputs to record")
    if record is None:
        record = list(g.outputs)
    unknown = [name for name in record if name not in g.outputs]
    if unknown:
        raise ConvergenceError(f"unknown outputs: {unknown}")
    if not (np.isfinite(dt) and dt > 0.0):
        raise ConfigurationError(
            f"transient dt must be finite and positive; got {dt!r}"
        )
    if not (np.isfinite(t_stop) and t_stop >= 0.0):
        raise ConfigurationError(
            f"transient t_stop must be finite and non-negative; "
            f"got {t_stop!r}"
        )

    steps = int(np.ceil(t_stop / dt))
    time = np.linspace(0.0, steps * dt, steps + 1)
    decay = np.exp(-dt / g.tau)
    batch = g.batch_shape
    v = (
        np.zeros(batch + (g.n_blocks,))
        if v0 is None
        else np.asarray(v0, dtype=np.float64).copy()
    )

    waves = {
        name: np.zeros(v.shape[:-1] + (steps + 1,)) for name in record
    }
    taps = {name: g.outputs[name] for name in record}
    for name, tap in taps.items():
        waves[name][..., 0] = v[..., tap]

    # Const targets never depend on v: evaluate them once and reuse the
    # buffer, stepping only the non-const blocks per timestep.  The
    # const slots carry gain 1 / offset 0, so this is bit-identical to
    # re-evaluating the full target map every step.
    t = np.zeros_like(v)
    cv = g.const_values
    if g.const_ids.size:
        const_t = cv * g.gain[g.const_ids] + g.offset[g.const_ids]
        if g.supply_rail is not None:
            np.clip(
                const_t, -g.supply_rail, g.supply_rail, out=const_t
            )
        t[..., g.const_ids] = const_t
    ops = g._nonconst_ops()
    # The whole vector steps (ids is None) until a suffix plan takes
    # over; ``start`` is the shallowest depth still moving.
    ids: Optional[np.ndarray] = None
    start = 0
    depth = g.depth
    tap_depth = max((int(depth[tap]) for tap in taps.values()), default=0)
    steps_run = steps
    for k in range(1, steps + 1):
        if ids is None:
            t[..., ops.ids] = ops.eval(v, cv)
            old, v = v, t + (v - t) * decay
            new, target = v, t
        else:
            target = ops.eval(v, cv)
            old = v[..., ids]
            new = target + (old - target) * step_decay
            v[..., ids] = new
        for name, tap in taps.items():
            waves[name][..., k] = v[..., tap]
        if k % _CHECK_EVERY:
            continue
        changed = old.view(np.uint64) != new.view(np.uint64)
        moved = changed.reshape(-1, changed.shape[-1]).any(axis=0)
        if not moved.any():
            for name, tap in taps.items():
                waves[name][..., k + 1 :] = v[..., tap, None]
            steps_run = k
            break
        first = int(depth[moved].min())
        if first >= tap_depth:
            # Every tap is frozen or reads only frozen levels.
            stepped = np.arange(g.n_blocks) if ids is None else ids
            steps_run = k + _settle_taps(
                waves, taps, v, target, stepped, decay, k
            )
            break
        if first > start:
            start = first
            plan = g._suffix_ops(first)
            if plan is not ops:
                ops, ids = plan, plan.ids
                step_decay = decay[ids]
                depth = g.depth[ids]

    settled = dc_solve(g)
    final = {
        name: (
            float(settled[tap])
            if settled.ndim == 1
            else settled[..., tap]
        )
        for name, tap in taps.items()
    }
    return AnalogTransientResult(
        time=time, waves=waves, final=final, steps_run=steps_run
    )


def _settle_taps(
    waves: Dict[str, np.ndarray],
    taps: Dict[str, int],
    v: np.ndarray,
    target: np.ndarray,
    stepped: np.ndarray,
    decay: np.ndarray,
    k: int,
) -> int:
    """Finish ``waves`` after step ``k`` once every tap's target is fixed.

    ``target[..., j]`` is the target of block ``stepped[j]`` (taps not
    stepped any more are frozen).  Each tap element runs its own
    scalar recurrence until it repeats; returns the most steps any
    element needed.  Python floats round each ``+ - *`` exactly as
    numpy float64 does, and ``x -> T + (x - T) d`` maps +0 and -0 to
    the same bits, so numeric equality marks a true fixed point.
    """
    extra = 0
    for name, tap in taps.items():
        wave = waves[name]
        j = int(np.searchsorted(stepped, tap))
        if j == stepped.size or stepped[j] != tap:
            wave[..., k + 1 :] = v[..., tap, None]
            continue
        d = float(decay[tap])
        for idx in np.ndindex(v.shape[:-1]):
            x, goal = float(v[idx + (tap,)]), float(target[idx + (j,)])
            row = wave[idx]
            n = k
            while n + 1 < row.size:
                x_next = goal + (x - goal) * d
                n += 1
                row[n] = x_next
                if x_next == x:
                    break
                x = x_next
            row[n + 1 :] = row[n]
            extra = max(extra, n - k)
    return extra


def suggest_dt(graph: Union[BlockGraph, FrozenGraph]) -> float:
    """A dt resolving the median stage tau (fast stages may be treated
    as instantaneous without hurting the convergence-time estimate)."""
    g = _freeze(graph)
    slow = g.tau[g.tau > 1.0e-11]
    if slow.size == 0:
        return 1.0e-11
    return float(np.median(slow) / 20.0)


def measure_convergence(
    graph: Union[BlockGraph, FrozenGraph],
    output: str,
    safety_factor: float = 30.0,
    tolerance: float = CONVERGENCE_TOLERANCE,
) -> "tuple[float, float]":
    """Convenience: simulate long enough and return
    ``(convergence_time_s, final_value_v)`` for one output."""
    results = measure_convergence_many(
        graph,
        [output],
        safety_factor=safety_factor,
        tolerance=tolerance,
    )
    return results[output]


def measure_convergence_many(
    graph: Union[BlockGraph, FrozenGraph],
    outputs: Sequence[str],
    safety_factor: float = 30.0,
    tolerance: float = CONVERGENCE_TOLERANCE,
) -> "Dict[str, tuple[float, float]]":
    """One transient, many tap points: ``{name: (t_conv_s, final_v)}``.

    A batched settle (e.g. ``batch_pairs``) carries one candidate per
    output tap; recording them all in a single transient costs the same
    integration as recording one, so per-candidate convergence times
    come for free.

    The window is sized from the graph's total tau budget (a
    ``safety_factor`` times the max tau times a depth estimate, floored
    by the critical-path heuristic), growing geometrically on failure.
    Each retry also coarsens ``dt`` by the same factor so the total
    step count stays bounded — a fixed ``dt`` would multiply the work
    4096x across the six attempts.
    """
    g = _freeze(graph)
    dt = suggest_dt(g)
    # Cascaded first-order stages settle to 0.1 % in about
    # ln(1000) ~ 7 critical-path taus; double that for comparator
    # re-selections, floored by the per-stage heuristic.
    window = max(
        14.0 * float(np.max(g.critical_tau)),
        safety_factor * float(np.max(g.tau)) * 4.0,
    )
    attempted = window
    for _ in range(6):
        attempted = window
        try:
            result = transient(
                g, t_stop=window, dt=dt, record=list(outputs)
            )
            return {
                name: (
                    result.convergence_time(name, tolerance),
                    result.final[name],
                )
                for name in outputs
            }
        except ConvergenceError:
            window *= 4.0
            dt *= 4.0
    raise ConvergenceError(
        f"output(s) {list(outputs)!r} failed to converge even in a "
        f"{attempted:.3e} s window"
    )

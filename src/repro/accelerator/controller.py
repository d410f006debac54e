"""Control & configuration module: job scheduling and reconfiguration.

Fig. 1 gives the control module two responsibilities: dataflow control
and circuit reconfiguration from the configuration lib.  This module
models the *data-center* consequence of that design: a stream of
distance jobs using different functions (the paper's motivating mixed
workload — healthcare HamD/LCS next to smart-city DTW) runs fastest
when jobs are grouped by configuration, because switching functions
costs transmission-gate updates and — for weighted variants —
memristor write pulses (~1 us each, Section 4.2's transition time).

:class:`AcceleratorController` schedules a job list, accounts
reconfiguration and compute time (caching measured convergence times
per :func:`operating_point`), and executes everything on an
underlying :class:`~repro.accelerator.DistanceAccelerator`.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..validation import as_sequence
from .array import AcceleratorResult, DistanceAccelerator
from .configurations import get_config


def operating_point(
    function: str,
    p: np.ndarray,
    q: np.ndarray,
    weights=None,
    kwargs: Optional[Dict] = None,
) -> Tuple:
    """Memo key of one measured settle time.

    Settle time depends on the programmed conductance pattern, not
    just the operand lengths: a weighted request builds a different
    graph than an unweighted one of the same lengths, and kwargs
    (threshold, band) change the comparator network.
    """
    digest = None
    if weights is not None:
        w = np.asarray(weights, dtype=np.float64)
        digest = (w.shape, w.tobytes())
    return (
        function,
        p.shape[0],
        q.shape[0],
        digest,
        tuple(sorted((kwargs or {}).items())),
    )


@dataclasses.dataclass(frozen=True)
class ReconfigurationCost:
    """Time model for switching the array between configurations.

    Attributes
    ----------
    tg_switch_s:
        Updating the transmission-gate pattern of every PE (digital
        control lines; one broadcast).
    memristor_write_s:
        One programming pulse (Section 4.2: ~1 us transition time).
    writes_per_weighted_pe:
        Modulate/verify iterations per reprogrammed ratio (see
        :mod:`repro.memristor.tuning`).
    """

    tg_switch_s: float = 10.0e-9
    memristor_write_s: float = 1.0e-6
    writes_per_weighted_pe: int = 3

    def switch_time(self, weighted_pes: int = 0) -> float:
        """Cost of one reconfiguration touching ``weighted_pes`` PEs."""
        if weighted_pes < 0:
            raise ConfigurationError("weighted_pes must be >= 0")
        return (
            self.tg_switch_s
            + weighted_pes
            * self.writes_per_weighted_pe
            * self.memristor_write_s
        )


@dataclasses.dataclass
class Job:
    """One distance computation request."""

    function: str
    p: np.ndarray
    q: np.ndarray
    kwargs: Dict

    def __init__(self, function: str, p, q, **kwargs) -> None:
        self.function = get_config(function).name
        self.p = as_sequence(p, "p")
        self.q = as_sequence(q, "q")
        self.kwargs = kwargs


@dataclasses.dataclass
class ControllerReport:
    """Outcome of a scheduled run."""

    results: List[AcceleratorResult]
    order: List[int]
    reconfigurations: int
    reconfiguration_time_s: float
    compute_time_s: float

    @property
    def total_time_s(self) -> float:
        return self.reconfiguration_time_s + self.compute_time_s


class AcceleratorController:
    """Schedules jobs onto one accelerator instance."""

    def __init__(
        self,
        accelerator: Optional[DistanceAccelerator] = None,
        reconfiguration: ReconfigurationCost = ReconfigurationCost(),
    ) -> None:
        self.accelerator = (
            accelerator
            if accelerator is not None
            else DistanceAccelerator()
        )
        self.reconfiguration = reconfiguration
        self._latency_cache: Dict[Tuple, float] = {}
        self.current_function: Optional[str] = None

    # -- latency model -----------------------------------------------------
    def _latency(self, job: Job) -> float:
        """Convergence + conversion latency for a job's operating point.

        Measured once per :func:`operating_point` and cached — the
        control module knows its own timing closure.
        """
        kwargs = dict(job.kwargs)
        weights = kwargs.pop("weights", None)
        key = operating_point(job.function, job.p, job.q, weights, kwargs)
        if key not in self._latency_cache:
            probe = self.accelerator.compute(
                job.function,
                job.p,
                job.q,
                measure_time=True,
                **job.kwargs,
            )
            self._latency_cache[key] = probe.total_time_s
        return self._latency_cache[key]

    # -- scheduling ----------------------------------------------------------
    @staticmethod
    def plan(jobs: Sequence[Job], reorder: bool = True) -> List[int]:
        """Execution order: group by function when ``reorder`` is set.

        Grouping is stable (jobs of one function keep their relative
        order) and starts with the function of the first job, so a
        half-configured array is reused.
        """
        if not reorder:
            return list(range(len(jobs)))
        first_seen: Dict[str, int] = {}
        for index, job in enumerate(jobs):
            first_seen.setdefault(job.function, index)
        return sorted(
            range(len(jobs)),
            key=lambda i: (first_seen[jobs[i].function], i),
        )

    def run(
        self,
        jobs: Sequence[Job],
        reorder: bool = True,
        weighted_pes_per_switch: int = 0,
    ) -> ControllerReport:
        """Execute all jobs; account reconfiguration + compute time."""
        if len(jobs) == 0:
            raise ConfigurationError("no jobs to run")
        order = self.plan(jobs, reorder=reorder)
        results: List[Optional[AcceleratorResult]] = [None] * len(jobs)
        reconfigurations = 0
        reconfig_time = 0.0
        compute_time = 0.0
        for index in order:
            job = jobs[index]
            if job.function != self.current_function:
                reconfigurations += 1
                reconfig_time += self.reconfiguration.switch_time(
                    weighted_pes_per_switch
                )
                self.current_function = job.function
            compute_time += self._latency(job)
            results[index] = self.accelerator.compute(
                job.function, job.p, job.q, **job.kwargs
            )
        return ControllerReport(
            results=results,
            order=order,
            reconfigurations=reconfigurations,
            reconfiguration_time_s=reconfig_time,
            compute_time_s=compute_time,
        )

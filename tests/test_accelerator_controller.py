"""Tests for the control/configuration module's job scheduler."""

import pytest

from repro.accelerator import (
    AcceleratorController,
    DistanceAccelerator,
    Job,
    ReconfigurationCost,
)
from repro.analog import IDEAL
from repro.errors import ConfigurationError


@pytest.fixture
def controller():
    return AcceleratorController(
        DistanceAccelerator(nonideality=IDEAL, quantise_io=False)
    )


def mixed_jobs(rng, lengths=(8, 8, 8, 8, 8)):
    functions = ["dtw", "manhattan", "dtw", "hamming", "manhattan"]
    jobs = []
    for function, n in zip(functions, lengths):
        kwargs = {"threshold": 0.5} if function == "hamming" else {}
        jobs.append(
            Job(function, rng.normal(size=n), rng.normal(size=n), **kwargs)
        )
    return jobs


class TestReconfigurationCost:
    def test_tg_only_switch_is_fast(self):
        cost = ReconfigurationCost()
        assert cost.switch_time(0) == pytest.approx(10e-9)

    def test_weighted_switch_dominated_by_writes(self):
        cost = ReconfigurationCost()
        t = cost.switch_time(weighted_pes=100)
        assert t == pytest.approx(10e-9 + 100 * 3 * 1e-6)

    def test_negative_pes_rejected(self):
        with pytest.raises(ConfigurationError):
            ReconfigurationCost().switch_time(-1)


class TestScheduling:
    def test_grouping_minimises_reconfigurations(self, controller, rng):
        jobs = mixed_jobs(rng)
        report = controller.run(jobs, reorder=True)
        # dtw, manhattan, hamming -> 3 configuration loads.
        assert report.reconfigurations == 3

    def test_fifo_order_costs_more_switches(self, rng):
        ctl = AcceleratorController(
            DistanceAccelerator(nonideality=IDEAL, quantise_io=False)
        )
        jobs = mixed_jobs(rng)
        report = ctl.run(jobs, reorder=False)
        assert report.reconfigurations == 5
        assert report.order == list(range(5))

    def test_results_stay_in_submission_order(self, controller, rng):
        jobs = mixed_jobs(rng)
        report = controller.run(jobs)
        from repro import distances as sw

        for job, result in zip(jobs, report.results):
            expected = getattr(sw, job.function)(
                job.p, job.q, **job.kwargs
            )
            assert result.value == pytest.approx(expected, abs=1e-8)
            assert result.function == job.function

    def test_latency_cache_reused(self, controller, rng):
        jobs = [
            Job("dtw", rng.normal(size=8), rng.normal(size=8))
            for _ in range(4)
        ]
        controller.run(jobs)
        assert len(controller._latency_cache) == 1

    def test_sticky_configuration_across_runs(self, controller, rng):
        jobs = [Job("dtw", rng.normal(size=6), rng.normal(size=6))]
        first = controller.run(jobs)
        second = controller.run(jobs)
        assert first.reconfigurations == 1
        assert second.reconfigurations == 0

    def test_empty_jobs_rejected(self, controller):
        with pytest.raises(ConfigurationError):
            controller.run([])

    def test_total_time_composition(self, controller, rng):
        report = controller.run(mixed_jobs(rng))
        assert report.total_time_s == pytest.approx(
            report.reconfiguration_time_s + report.compute_time_s
        )
        assert report.compute_time_s > 0

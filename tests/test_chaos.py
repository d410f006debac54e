"""Tests for the chaos harness and its CLI command.

The harness's whole value is that its SLO gates are deterministic
assertions, so the tests lean on exact replays: the same seed must
produce byte-identical JSON reports, every scenario must pass its
SLOs, and each scenario must actually exercise the failure mode it
advertises (quarantine counters for shard death, shed + backoff for
saturation, breaker trips for flapping, and so on).
"""

import json

import pytest

import repro.serving.chaos as chaos
from repro.cli import main
from repro.errors import ConfigurationError
from repro.serving import (
    SCENARIOS,
    ChaosReport,
    ScenarioResult,
    SloSpec,
    run_chaos,
)

from .test_serving_pool import assert_drain_invariants


@pytest.fixture(scope="module")
def smoke_report() -> ChaosReport:
    return run_chaos(smoke=True, seed=0)


class TestSloSpec:
    def test_defaults_match_issue_contract(self):
        slo = SloSpec()
        assert slo.availability_min == 0.999
        assert slo.p99_latency_max_s == 1.0e-3
        assert slo.accuracy_gap_max == 0.01

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SloSpec(availability_min=0.0)
        with pytest.raises(ConfigurationError):
            SloSpec(p99_latency_max_s=0.0)
        with pytest.raises(ConfigurationError):
            SloSpec(accuracy_gap_max=2.0)


class TestScenarioResult:
    def make(self, **overrides) -> ScenarioResult:
        base = dict(
            name="x",
            seed=0,
            total_requests=100,
            answered_requests=100,
            degraded_requests=0,
            p99_latency_s=1e-6,
            accuracy=1.0,
            counters={},
        )
        base.update(overrides)
        return ScenarioResult(**base)

    def test_clean_result_has_no_violations(self):
        assert self.make().violations(SloSpec()) == []

    def test_each_gate_fires(self):
        slo = SloSpec()
        low_avail = self.make(answered_requests=90)
        assert "availability" in low_avail.violations(slo)[0]
        slow = self.make(p99_latency_s=1.0)
        assert "p99 latency" in slow.violations(slo)[0]
        wrong = self.make(accuracy=0.5)
        assert "accuracy gap" in wrong.violations(slo)[0]

    def test_empty_scenario_counts_as_available(self):
        empty = self.make(total_requests=0, answered_requests=0)
        assert empty.availability == 1.0


class TestRunChaos:
    def test_all_five_scenarios_pass(self, smoke_report):
        assert smoke_report.ok
        assert [s.name for s in smoke_report.scenarios] == list(
            SCENARIOS
        )
        for scenario in smoke_report.scenarios:
            assert scenario.violations(smoke_report.slo) == []

    def test_deterministic_under_fixed_seed(self, smoke_report):
        replay = run_chaos(smoke=True, seed=0)
        assert replay.to_json() == smoke_report.to_json()

    def test_scenarios_exercise_their_failure_modes(
        self, smoke_report
    ):
        by_name = {s.name: s for s in smoke_report.scenarios}
        death = by_name["shard_death"]
        assert death.counters["faults_quarantined"] == 2
        assert death.counters["faults_retried"] > 0
        assert death.degraded_requests > 0  # full-pool fallback
        drift = by_name["drift_storm"]
        assert "requalified" in drift.notes
        saturation = by_name["queue_saturation"]
        assert saturation.counters["shed"] > 0
        assert saturation.counters["deadline_exceeded"] > 0
        storm = by_name["cache_storm"]
        assert storm.counters["cache_hits"] > 0
        assert storm.counters["faults_quarantined"] == 2
        flapping = by_name["flapping_shard"]
        assert "trips=3" in flapping.notes

    def test_flapping_shard_drains_keep_invariants(self, monkeypatch):
        stacks = []
        make_stack = chaos._make_stack

        def recording(*args, **kwargs):
            stacks.append(make_stack(*args, **kwargs))
            return stacks[-1]

        monkeypatch.setattr(chaos, "_make_stack", recording)
        run_chaos(["flapping_shard"], smoke=True, seed=0)
        (backend,) = stacks
        pool = backend.primary.pool
        assert pool.shards[0].breaker.trips == 3
        assert_drain_invariants(pool)

    def test_scenario_subset(self):
        report = run_chaos(
            scenarios=["drift_storm"], smoke=True, seed=1
        )
        assert [s.name for s in report.scenarios] == ["drift_storm"]
        assert report.seed == 1

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown chaos"):
            run_chaos(scenarios=["meteor_strike"])

    def test_tight_slo_flips_verdict(self):
        report = run_chaos(
            scenarios=["drift_storm"],
            smoke=True,
            slo=SloSpec(p99_latency_max_s=1e-12),
        )
        assert not report.ok
        assert any(
            "p99 latency" in v
            for s in report.scenarios
            for v in s.violations(report.slo)
        )

    def test_report_json_round_trips(self, smoke_report):
        payload = json.loads(smoke_report.to_json(indent=2))
        assert payload["ok"] is True
        assert len(payload["scenarios"]) == 5
        for scenario in payload["scenarios"]:
            assert scenario["violations"] == []
            assert 0.0 <= scenario["availability"] <= 1.0

    def test_table_lists_verdicts(self, smoke_report):
        table = smoke_report.table()
        for name in SCENARIOS:
            assert name in table
        assert "PASS" in table
        assert "all SLOs met" in table


class TestChaosCli:
    def test_smoke_run_writes_artifact(self, tmp_path, capsys):
        out = tmp_path / "chaos.json"
        code = main(
            [
                "chaos",
                "--smoke",
                "--scenarios",
                "drift_storm",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["ok"] is True
        assert "drift_storm" in capsys.readouterr().out

    def test_json_flag_prints_report(self, capsys):
        code = main(
            ["chaos", "--smoke", "--scenarios", "drift_storm",
             "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["scenarios"][0]["name"] == "drift_storm"

    def test_unknown_scenario_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit):
            main(["chaos", "--scenarios", "meteor_strike"])

"""End-to-end fleet telemetry tests: fingerprint neutrality, worker-count
determinism, SLO-gated rollout rollback, quarantine, and the whole-fleet
OpenMetrics exposition."""

import json

import pytest

from repro.faults.chaos import run_chaos
from repro.fleet.bundle import BundleSigner, make_bundle
from repro.fleet.orchestrator import Fleet, FleetConfig
from repro.fleet.rollout import RolloutState
from repro.fleet.telemetry import SloSpec, parse_slo
from repro.vehicle.ivi import DEFAULT_SACK_POLICY

KEY = b"sack-fleet-signing-key"

#: Pre-telemetry fingerprints, hard-coded: a telemetry-disabled fleet
#: (and chaos run) must stay byte-identical to builds that predate the
#: pipeline.  If one of these moves, the feature leaked into the
#: default path.  Re-pinned once when the stack AVC and decision table
#: were removed: their counters left the metrics and chaos reports and
#: the epoch series were renamed; nothing else moved.
BASELINE_FLEET_10x7 = \
    "ee3a35ef759d4965895eaf844af830cbf403495d04df8158eddd641472b4e044"
BASELINE_FLEET_4x3_W2 = \
    "ebb803531b6384916f0811768c3bbb37599403d2b346f0986ed5c8f113f0eb3b"
BASELINE_CHAOS_1 = \
    "de8fff1bcf1ca3a9d132c8bf7756f89f4b52500ac43949aed055a8b7db609b3b"

#: An objective a cruising fleet can never meet (it has no 1 MHz
#: heartbeat): measured 0 -> clamped burn in every window -> the
#: deterministic way to force a breach in tests.
IMPOSSIBLE_SLO = "heartbeat_rate>=1000000"


def _bundle(version=1):
    return make_bundle(version, DEFAULT_SACK_POLICY,
                       signer=BundleSigner(KEY))


class TestFingerprintNeutrality:
    def test_disabled_fleet_matches_pre_telemetry_baseline(self):
        fleet = Fleet(FleetConfig(n_vehicles=10, seed=7, workers=1,
                                  epoch_ticks=10))
        assert fleet.run(10).fingerprint == BASELINE_FLEET_10x7

    def test_disabled_multiworker_fleet_matches_baseline(self):
        fleet = Fleet(FleetConfig(n_vehicles=4, seed=3, workers=2))
        assert fleet.run(6).fingerprint == BASELINE_FLEET_4x3_W2

    def test_chaos_fingerprint_unchanged(self):
        report = run_chaos(1, ticks=120, mode="independent",
                           intensity=0.05)
        assert report.fingerprint() == BASELINE_CHAOS_1

    def test_report_has_no_telemetry_section_when_disabled(self):
        fleet = Fleet(FleetConfig(n_vehicles=2, seed=0))
        result = fleet.run(3)
        assert result.report.telemetry == {}


class TestWorkerIndependence:
    def test_rollups_identical_at_any_worker_count(self):
        # The acceptance soak: a seeded 100-vehicle fleet, telemetry on,
        # must produce bit-identical windowed rollups at 1 vs 4 workers.
        digests, fingerprints = set(), set()
        for workers in (1, 4):
            fleet = Fleet(FleetConfig(
                n_vehicles=100, seed=11, workers=workers,
                telemetry=True, telemetry_short_window_epochs=2,
                telemetry_long_window_epochs=4))
            result = fleet.run(8)
            assert result.ok, result.report.violations
            digests.add(fleet.telemetry.aggregator.rollup_digest())
            fingerprints.add(result.fingerprint)
        assert len(digests) == 1
        assert len(fingerprints) == 1

    def test_enabled_report_carries_telemetry_section(self):
        fleet = Fleet(FleetConfig(n_vehicles=4, seed=7, telemetry=True))
        report = fleet.run(6).report
        tel = report.telemetry
        assert tel["epochs"] == 6
        assert tel["frames"] == 24
        assert tel["series_tracked"] > 0
        assert len(tel["rollup_digest"]) == 64
        assert "cpu_ns_total" in tel["overhead"]
        json.dumps(report.to_dict())

    def test_fingerprint_strips_host_timing_overhead(self):
        fleet = Fleet(FleetConfig(n_vehicles=2, seed=5, telemetry=True))
        report = fleet.run(4).report
        doc = json.loads(report.to_json()) if hasattr(report, "to_json") \
            else report.to_dict()
        assert "overhead" in doc["telemetry"]
        # Same seed, fresh run: fingerprints match even though host CPU
        # timings differ run to run.
        fleet2 = Fleet(FleetConfig(n_vehicles=2, seed=5, telemetry=True))
        assert fleet2.run(4).fingerprint == report.fingerprint()

    def test_healthy_fleet_never_alerts_on_default_slos(self):
        fleet = Fleet(FleetConfig(n_vehicles=6, seed=7, telemetry=True))
        report = fleet.run(14).report
        assert report.telemetry["slo"]["alerts_total"] == 0


class TestSloGatedRollout:
    def test_burning_slo_aborts_canary(self):
        # The acceptance scenario: an armed burn-rate breach during the
        # canary wave must trip the existing health-gate rollback.
        fleet = Fleet(FleetConfig(
            n_vehicles=25, seed=7, telemetry=True,
            slos=(parse_slo(IMPOSSIBLE_SLO),),
            telemetry_short_window_epochs=2,
            telemetry_long_window_epochs=3))
        fleet.stage_rollout(_bundle())
        result = fleet.run(14)
        assert fleet.controller.state is RolloutState.ROLLED_BACK
        assert any("blew its error budget" in line
                   for _, line in fleet.controller.history)
        tel = result.report.telemetry
        assert tel["slo"]["alerts_total"] > 0
        alerts = tel["slo"]["alerts"]
        assert alerts and alerts[0]["slo"] == "heartbeat_rate"

    def test_gate_on_slo_false_opts_out(self):
        import dataclasses
        from repro.fleet.rollout import default_rollout_plan
        plan = dataclasses.replace(default_rollout_plan(),
                                   gate_on_slo=False)
        fleet = Fleet(FleetConfig(
            n_vehicles=25, seed=7, telemetry=True,
            slos=(parse_slo(IMPOSSIBLE_SLO),),
            telemetry_short_window_epochs=2,
            telemetry_long_window_epochs=3,
            rollout_plan=plan))
        fleet.stage_rollout(_bundle())
        result = fleet.run(14)
        assert fleet.controller.state is RolloutState.COMPLETE
        assert result.report.telemetry["slo"]["alerts_total"] > 0


class TestSloQuarantine:
    def _per_vehicle_impossible(self):
        return SloSpec("hb", "rate", "min", 1e9,
                       series="sackfs_heartbeats_received_total",
                       per_vehicle=True)

    def test_consecutive_breaches_quarantine_vehicle(self):
        fleet = Fleet(FleetConfig(
            n_vehicles=4, seed=7, telemetry=True,
            slos=(self._per_vehicle_impossible(),),
            telemetry_short_window_epochs=2,
            telemetry_long_window_epochs=3,
            slo_quarantine_epochs=2))
        fleet.run(8)
        assert fleet.supervisor.quarantined_ids() == \
            ["veh000", "veh001", "veh002", "veh003"]

    def test_zero_threshold_disables_quarantine(self):
        fleet = Fleet(FleetConfig(
            n_vehicles=4, seed=7, telemetry=True,
            slos=(self._per_vehicle_impossible(),),
            telemetry_short_window_epochs=2,
            telemetry_long_window_epochs=3,
            slo_quarantine_epochs=0))
        report = fleet.run(8).report
        assert fleet.supervisor.quarantined_ids() == []
        assert report.telemetry["slo"]["alerts_total"] > 0


class TestOpenMetricsFleetScope:
    def test_empty_fleet_exposition(self):
        from repro.fleet.telemetry import TelemetryAggregator
        agg = TelemetryAggregator(epoch_duration_ns=10 ** 9)
        text = agg.to_openmetrics()
        assert "telemetry_frames_total 0" in text
        assert "telemetry_series_tracked 0" in text
        assert "metrics_series_dropped" not in text

    def test_quarantined_vehicle_series_retained(self):
        fleet = Fleet(FleetConfig(
            n_vehicles=3, seed=7, telemetry=True,
            slos=(SloSpec("hb", "rate", "min", 1e9,
                          series="sackfs_heartbeats_received_total",
                          per_vehicle=True),),
            telemetry_short_window_epochs=2,
            telemetry_long_window_epochs=3,
            slo_quarantine_epochs=2))
        fleet.run(8)
        assert fleet.supervisor.quarantined_ids()
        text = fleet.telemetry.aggregator.to_openmetrics()
        # Quarantined vehicles stop reporting but their last-seen series
        # stay exported — operators can still see what they died doing.
        for vid in fleet.supervisor.quarantined_ids():
            assert f'vehicle="{vid}"' in text

    def test_vehicle_label_escaping(self):
        from repro.fleet.telemetry import TelemetryAggregator
        from repro.obs.telemetry import TELEMETRY_SCHEMA, TelemetryFrame
        agg = TelemetryAggregator(epoch_duration_ns=10 ** 9)
        hostile = 'veh"0\\a\n'
        agg.ingest(TelemetryFrame(
            schema=TELEMETRY_SCHEMA, vehicle_id=hostile, epoch=0,
            at_ns=0, counters={"c_total": 1.0}, gauges={},
            histograms={}))
        text = agg.to_openmetrics()
        assert 'vehicle="veh\\"0\\\\a\\n"' in text
        assert hostile not in text

    def test_fleet_sums_and_vehicle_series_agree(self):
        fleet = Fleet(FleetConfig(n_vehicles=3, seed=7, telemetry=True))
        fleet.run(4)
        text = fleet.telemetry.aggregator.to_openmetrics()
        per_vehicle, fleet_sum = 0, None
        for line in text.splitlines():
            if line.startswith("sackfs_heartbeats_received_total{"):
                per_vehicle += int(float(line.rsplit(" ", 1)[1]))
            elif line.startswith("fleet_sackfs_heartbeats_received_total"):
                fleet_sum = int(float(line.rsplit(" ", 1)[1]))
        assert fleet_sum is not None and fleet_sum > 0
        assert per_vehicle == fleet_sum

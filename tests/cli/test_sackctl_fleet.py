"""Tests for sackctl's fleet subcommands and the --kernel selector."""

import json
import re

import pytest

from repro.cli.sackctl import main

POLICY = """
policy fleet_cli_test;
initial normal;
states {
  normal = 0;
  emergency = 1;
}
transitions {
  normal -> emergency on crash_detected;
  emergency -> normal on emergency_cleared;
}
permissions {
  DOORS;
}
state_per {
  emergency: DOORS;
}
per_rules {
  DOORS {
    allow ioctl /dev/car/door cmd=DOOR_UNLOCK subject=rescue_daemon;
    allow write /dev/car/door subject=rescue_daemon;
  }
}
guard /dev/car/**;
"""


@pytest.fixture
def policy_file(tmp_path):
    path = tmp_path / "fleet.sack"
    path.write_text(POLICY)
    return str(path)


class TestFleetStatus:
    def test_status_runs_and_reports(self, capsys):
        assert main(["fleet", "status", "--vehicles", "3",
                     "--epochs", "4"]) == 0
        out = capsys.readouterr().out
        assert "fleet seed 0: 3 vehicle(s)" in out
        assert "virtual time 4.0s" in out
        assert "makespan" not in out
        assert "veh000" in out and "veh002" in out
        assert "fingerprint" in out
        assert "all fleet invariants held" in out

    def test_status_json_round_trips(self, capsys):
        assert main(["fleet", "status", "--vehicles", "3",
                     "--epochs", "4", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["vehicles"] == 3
        assert not [key for key in doc if "makespan" in key]
        assert doc["violations"] == []
        assert len(doc["fingerprint"]) == 64

    def test_status_fingerprint_is_stable(self, capsys):
        prints = []
        for _ in range(2):
            assert main(["fleet", "status", "--vehicles", "4",
                         "--epochs", "4", "--json"]) == 0
            prints.append(
                json.loads(capsys.readouterr().out)["fingerprint"])
        assert prints[0] == prints[1]

    def test_kernel_filters_vehicle_rows(self, capsys):
        assert main(["fleet", "status", "--vehicles", "3",
                     "--epochs", "2", "--kernel", "veh001"]) == 0
        out = capsys.readouterr().out
        assert "veh001" in out
        assert "veh000" not in out

    def test_unknown_kernel_errors(self, capsys):
        assert main(["fleet", "status", "--vehicles", "3",
                     "--epochs", "2", "--kernel", "veh999"]) == 1
        assert "no vehicle 'veh999'" in capsys.readouterr().out

    def test_policy_file_is_loaded(self, policy_file, capsys):
        assert main(["fleet", "status", "--vehicles", "2",
                     "--epochs", "2", "--policy", policy_file]) == 0


class TestFleetRollout:
    def test_rollout_completes(self, capsys):
        assert main(["fleet", "rollout", "--vehicles", "4",
                     "--epochs", "14"]) == 0
        out = capsys.readouterr().out
        assert "staged bundle fleet-policy v1" in out
        assert "wave 'canary' complete" in out
        assert "final: complete" in out
        assert "v1" in out

    def test_fail_canary_rolls_back(self, capsys):
        assert main(["fleet", "rollout", "--vehicles", "4",
                     "--epochs", "14", "--fail-canary"]) == 0
        out = capsys.readouterr().out
        assert "ROLLBACK" in out
        assert "final: rolled_back" in out


class TestFleetRollback:
    def test_operator_abort_reverts(self, capsys):
        assert main(["fleet", "rollback", "--vehicles", "4",
                     "--epochs", "12"]) == 0
        out = capsys.readouterr().out
        assert "aborting rollout at epoch" in out
        assert "operator abort" in out
        assert "final: rolled_back" in out


class TestFleetBus:
    def test_bus_tail_shows_traffic(self, capsys):
        assert main(["fleet", "bus", "--vehicles", "3",
                     "--epochs", "6"]) == 0
        out = capsys.readouterr().out
        assert "crash" in out
        assert "published" in out
        assert "bus: " in out


class TestKernelSelector:
    def test_audit_runs_against_fleet_vehicle(self, policy_file, capsys):
        assert main(["audit", policy_file, "-e", "emergency_cleared",
                     "--kernel", "veh001", "--fleet-size", "3",
                     "--fleet-epochs", "2"]) == 0
        out = capsys.readouterr().out
        assert "event emergency_cleared:" in out

    def test_audit_unknown_vehicle_errors(self, policy_file, capsys):
        assert main(["audit", policy_file, "--kernel", "nope",
                     "--fleet-size", "2"]) == 1
        assert "no vehicle 'nope'" in capsys.readouterr().out

    def test_trace_selected_vehicle(self, policy_file, capsys):
        assert main(["trace", policy_file,
                     "--access", "read:/dev/car/door",
                     "--kernel", "veh000", "--fleet-size", "2",
                     "--fleet-epochs", "1"]) == 0
        assert "access read:/dev/car/door" in capsys.readouterr().out

    def test_standalone_path_still_works(self, policy_file, capsys):
        assert main(["audit", policy_file,
                     "-e", "crash_detected"]) == 0
        assert "event crash_detected: delivered" \
            in capsys.readouterr().out


class TestFleetCheckpoint:
    def test_checkpoint_prints_store(self, capsys):
        assert main(["fleet", "checkpoint", "--vehicles", "3",
                     "--epochs", "8", "--interval", "2"]) == 0
        out = capsys.readouterr().out
        assert "3 vehicle checkpoint(s)" in out
        for vid in ("veh000", "veh001", "veh002"):
            assert vid in out
        # Interval 2 over 8 epochs: latest generation is epoch 7.
        assert " 7 " in out


class TestFleetRestore:
    def test_restore_prints_recovery_timeline(self, capsys):
        assert main(["fleet", "restore", "--vehicles", "4",
                     "--epochs", "10", "--crash-epoch", "3"]) == 0
        out = capsys.readouterr().out
        assert "recovery timeline:" in out
        assert "fleet:vehicle_crash" in out
        assert "fleet:restore" in out
        assert "resilience: 1 crash(es), 1 restore(s)" in out
        assert "all fleet invariants held" in out

    def test_restore_double_run_is_deterministic(self, capsys):
        assert main(["fleet", "restore", "--vehicles", "4",
                     "--epochs", "10", "--crash-epoch", "3",
                     "--double-run"]) == 0
        out = capsys.readouterr().out
        assert "fingerprints identical: recovery is deterministic" in out

    def test_restore_status_column_shows_crash_count(self, capsys):
        assert main(["fleet", "restore", "--vehicles", "3",
                     "--epochs", "8", "--vehicle", "veh002"]) == 0
        out = capsys.readouterr().out
        rows = [line for line in out.splitlines()
                if line.startswith("veh002")]
        assert rows and " running " in rows[0]

    def test_restore_unknown_vehicle_errors(self, capsys):
        assert main(["fleet", "restore", "--vehicles", "2",
                     "--vehicle", "veh999"]) == 1
        assert "no vehicle 'veh999'" in capsys.readouterr().out

    def test_repeat_crashes_reach_quarantine(self, capsys):
        # max-restarts 0 quarantines on the very first crash: there is
        # no restore, and the status column says so.
        assert main(["fleet", "restore", "--vehicles", "3",
                     "--epochs", "8", "--crash-epoch", "2",
                     "--max-restarts", "0"]) == 0
        out = capsys.readouterr().out
        assert "fleet:quarantine" in out
        assert "quarantined" in out


class TestFleetStatusEnvelope:
    def test_format_json_wraps_report_in_envelope(self, capsys):
        assert main(["fleet", "status", "--vehicles", "3",
                     "--epochs", "4", "--seed", "5",
                     "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "sack-bench/v1"
        assert doc["kind"] == "fleet-status"
        assert doc["seed"] == 5
        assert doc["data"]["vehicles"] == 3
        assert len(doc["data"]["fingerprint"]) == 64

    def test_telemetry_flag_adds_report_section(self, capsys):
        assert main(["fleet", "status", "--vehicles", "3",
                     "--epochs", "4", "--telemetry",
                     "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        tel = doc["data"]["telemetry"]
        assert tel["frames"] == 12
        assert len(tel["rollup_digest"]) == 64

    def test_no_telemetry_section_by_default(self, capsys):
        assert main(["fleet", "status", "--vehicles", "2",
                     "--epochs", "3", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["data"]["telemetry"] == {}


class TestFleetTop:
    def test_once_renders_dashboard(self, capsys):
        assert main(["fleet", "top", "--vehicles", "4",
                     "--epochs", "6", "--once"]) == 0
        out = capsys.readouterr().out
        assert "sack fleet top — epoch 6" in out
        # Host time around the fleet.run calls, not a modelled rate.
        assert re.search(r"epoch wall \d+\.\d ms \(host\)", out)
        assert "telemetry" in out and "series" in out
        assert "SLO" in out and "burn s/l" in out
        assert "denial_rate <= 200" in out
        assert "veh000" in out

    def test_custom_slo_breach_reported(self, capsys):
        assert main(["fleet", "top", "--vehicles", "3",
                     "--epochs", "6", "--once",
                     "--short-window", "2", "--long-window", "3",
                     "--slo", "heartbeat_rate>=1000000"]) == 0
        out = capsys.readouterr().out
        assert "heartbeat_rate >= 1e+06" in out
        assert "ALERT" in out
        assert "SLO alert(s) fired" in out

    def test_rejects_unknown_slo_alias(self, capsys):
        assert main(["fleet", "top", "--vehicles", "2",
                     "--epochs", "2", "--once",
                     "--slo", "bogus<=1"]) == 1
        assert "unknown SLO alias" in capsys.readouterr().out


class TestFleetMetrics:
    def test_openmetrics_dump(self, capsys):
        assert main(["fleet", "metrics", "--vehicles", "3",
                     "--epochs", "4"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE sackfs_heartbeats_received_total counter" in out
        assert 'vehicle="veh000"' in out
        assert "fleet_sackfs_heartbeats_received_total" in out
        assert "telemetry_frames_total 12" in out
        assert "telemetry_series_tracked" in out


class TestFleetRolloutSloBreach:
    def test_slo_breach_aborts_canary(self, capsys):
        assert main(["fleet", "rollout", "--vehicles", "25",
                     "--epochs", "14", "--slo-breach"]) == 0
        out = capsys.readouterr().out
        assert "ROLLBACK" in out
        assert "final: rolled_back" in out
        assert "telemetry:" in out and "SLO alert(s)" in out

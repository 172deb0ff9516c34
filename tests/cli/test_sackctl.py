"""Tests for the sackctl command-line tool."""

import pytest

from repro.cli.sackctl import main

GOOD_POLICY = """
policy cli_test;
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
  normal: ;
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

BAD_POLICY = """
policy broken;
initial ghost;
states {
  normal = 0;
}
transitions {
  normal -> normal on noop;
}
permissions {
  P;
}
state_per {
  normal: P;
}
per_rules {
  P {
    allow read /dev/car/**;
  }
}
guard /dev/car/**;
"""


@pytest.fixture
def good_policy(tmp_path):
    path = tmp_path / "good.sack"
    # state_per with empty rhs is invalid; write a valid variant.
    path.write_text(GOOD_POLICY.replace("  normal: ;\n", ""))
    return str(path)


@pytest.fixture
def bad_policy(tmp_path):
    path = tmp_path / "bad.sack"
    path.write_text(BAD_POLICY)
    return str(path)


class TestCheck:
    def test_good_policy_ok(self, good_policy, capsys):
        assert main(["check", good_policy]) == 0
        assert "OK" in capsys.readouterr().out

    def test_bad_policy_fails(self, bad_policy, capsys):
        assert main(["check", bad_policy]) == 1
        out = capsys.readouterr().out
        assert "E001" in out
        assert "FAILED" in out

    def test_missing_file(self, capsys):
        assert main(["check", "/no/such/file.sack"]) == 2

    def test_parse_error_reported(self, tmp_path, capsys):
        path = tmp_path / "syntax.sack"
        path.write_text("initial x\n")
        assert main(["check", str(path)]) == 1
        assert "error" in capsys.readouterr().out


class TestFormat:
    def test_canonical_output_reparses(self, good_policy, capsys):
        assert main(["format", good_policy]) == 0
        from repro.sack import parse_policy
        out = capsys.readouterr().out
        assert parse_policy(out).name == "cli_test"


class TestCompile:
    def test_shows_states_and_rules(self, good_policy, capsys):
        assert main(["compile", good_policy]) == 0
        out = capsys.readouterr().out
        assert "state normal (initial): 0 rules" in out
        assert "state emergency: 2 rules" in out
        assert "allow ioctl /dev/car/door" in out


class TestSimulate:
    def test_event_trace(self, good_policy, capsys):
        rc = main(["simulate", good_policy, "-e", "crash_detected",
                   "-e", "bogus", "-e", "emergency_cleared"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "normal -> emergency" in out
        assert "bogus: ignored" in out
        assert "final: normal (2 transitions, 1 ignored)" in out


class TestQuery:
    def test_allowed_access(self, good_policy, capsys):
        rc = main(["query", good_policy, "--state", "emergency",
                   "--op", "ioctl", "--path", "/dev/car/door",
                   "--subject", "rescue_daemon", "--cmd", "DOOR_UNLOCK"])
        assert rc == 0
        assert "ALLOW" in capsys.readouterr().out

    def test_denied_access(self, good_policy, capsys):
        rc = main(["query", good_policy, "--op", "write",
                   "--path", "/dev/car/door",
                   "--subject", "rescue_daemon"])
        assert rc == 1  # initial state 'normal' grants nothing
        assert "DENY" in capsys.readouterr().out

    def test_unknown_state(self, good_policy, capsys):
        assert main(["query", good_policy, "--state", "ghost",
                     "--op", "read", "--path", "/x"]) == 2

    def test_unknown_cmd_name(self, good_policy, capsys):
        assert main(["query", good_policy, "--op", "ioctl",
                     "--path", "/dev/car/door", "--cmd", "WARP"]) == 2

    def test_numeric_cmd(self, good_policy, capsys):
        rc = main(["query", good_policy, "--state", "emergency",
                   "--op", "ioctl", "--path", "/dev/car/door",
                   "--subject", "rescue_daemon", "--cmd",
                   str((1 << 30) | 0x102)])
        assert rc == 0


class TestBenchCli:
    def test_census_runs(self, capsys):
        from repro.cli.benchcli import main as bench_main
        assert bench_main(["census", "--scale", "0.02"]) == 0
        out = capsys.readouterr().out
        assert "Hook census" in out
        assert "sack-independent" in out

    def test_latency_runs(self, capsys):
        from repro.cli.benchcli import main as bench_main
        # monkey-free quick run: the latency experiment has a fixed small
        # sample count per event internally scaled by its own default.
        assert bench_main(["abac", "--scale", "0.02"]) == 0
        assert "ABAC baseline" in capsys.readouterr().out


class TestGraph:
    def test_dot_output(self, good_policy, capsys):
        assert main(["graph", good_policy]) == 0
        out = capsys.readouterr().out
        assert out.startswith('digraph "cli_test"')
        assert '"normal" -> "emergency" [label="crash_detected"]' in out
        assert "__start" in out

"""Chaos harness tests: determinism, invariants, and the soak driver."""

import pytest

from repro.faults import chaos


class TestDeterminism:
    def test_same_seed_same_fingerprint(self):
        a = chaos.run_chaos(seed=1, ticks=120)
        b = chaos.run_chaos(seed=1, ticks=120)
        assert a.fingerprint() == b.fingerprint()
        assert a.transitions == b.transitions
        assert a.audit_text == b.audit_text
        assert a.actions == b.actions
        assert a.stats == b.stats
        # Span-ID sequences are counter-driven: a seeded rerun must
        # reproduce every (trace_id, root, span count) triple exactly.
        assert a.spans == b.spans
        assert a.spans, "chaos runs should record spans"

    def test_different_seeds_differ(self):
        prints = {chaos.run_chaos(seed=s, ticks=120).fingerprint()
                  for s in range(1, 5)}
        assert len(prints) > 1

    def test_apparmor_mode_deterministic_too(self):
        a = chaos.run_chaos(seed=7, ticks=120, mode="apparmor")
        b = chaos.run_chaos(seed=7, ticks=120, mode="apparmor")
        assert a.fingerprint() == b.fingerprint()
        assert a.spans == b.spans

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            chaos.run_chaos(seed=1, ticks=10, mode="selinux")


class TestInvariants:
    def test_soak_holds_fail_closed_invariants(self):
        reports = chaos.run_soak(range(1, 21), ticks=150)
        assert all(r.ok for r in reports), [
            v for r in reports for v in r.violations]

    def test_soak_apparmor_mode(self):
        reports = chaos.run_soak(range(1, 6), ticks=150, mode="apparmor")
        assert all(r.ok for r in reports), [
            v for r in reports for v in r.violations]

    def test_faults_actually_fire(self):
        # The harness is pointless if the plans never inject anything.
        fired = 0
        for seed in range(1, 11):
            report = chaos.run_chaos(seed=seed, ticks=150)
            fired += sum(p["injected"]
                         for p in report.fault_report.values())
        assert fired > 0

    def test_report_shape(self):
        report = chaos.run_chaos(seed=3, ticks=80)
        d = report.to_dict()
        assert d["seed"] == 3
        assert d["ticks"] == 80
        assert d["mode"] == "independent"
        assert "final_state" in d
        assert isinstance(d["violations"], list)
        assert d["traces"] == len(report.spans)
        lines = report.summary_lines()
        assert any("seed" in line for line in lines)


class TestRegressions:
    @pytest.mark.parametrize("seed", [4, 15])
    def test_bridge_reload_fault_on_policy_write(self, seed):
        # These seeds inject a bridge profile-reload fault into a SACKfs
        # policy reload (seed 15 also into the boot-time load, which the
        # harness boots again); the write must fail cleanly with EIO and
        # the old policy left in force.
        report = chaos.run_chaos(seed, ticks=600, mode="apparmor")
        assert report.ok, [str(v) for v in report.violations]
        assert "policy_reload_failed" in report.actions
        assert report.fault_report["bridge:profile_reload_fail"][
            "injected"] >= 1


class TestMutations:
    def test_i7_catches_a_transition_that_skips_the_epoch_bump(
            self, monkeypatch):
        from repro.sack.module import SackModule

        monkeypatch.setattr(SackModule, "_on_transition_bump_epoch",
                            lambda self, transition: None)
        report = chaos.run_chaos(seed=1, ticks=600)
        fired = [v for v in report.violations
                 if v.invariant.startswith("I7:")]
        assert fired, "I7 must flag transitions that leave the epoch"
        assert report.transitions

    def test_i7_catches_a_bridged_transition_that_skips_the_epoch_bump(
            self, monkeypatch):
        # The front end's transition bump is a bridged transition's only
        # one: the AppArmor bridge's profile swap makes none of its own.
        from repro.sack.module import SackModule

        monkeypatch.setattr(SackModule, "_on_transition_bump_epoch",
                            lambda self, transition: None)
        report = chaos.run_chaos(seed=1, ticks=600, mode="apparmor")
        assert [v for v in report.violations
                if v.invariant.startswith("I7:")]
        assert report.transitions

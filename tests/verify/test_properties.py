"""The shared property registry, and the chaos harness consuming it."""

import pytest

from repro.verify.properties import (RUNTIME_INVARIANTS,
                                     STATIC_PROPERTIES, runtime_checks,
                                     runtime_invariant, static_properties,
                                     static_property)


class TestRuntimeRegistry:
    def test_all_ten_invariants_registered(self):
        assert [inv.inv_id for inv in RUNTIME_INVARIANTS] == [
            f"I{i}" for i in range(1, 11)]

    def test_chaos_checks_cover_the_chaos_invariants(self):
        chaos = [inv for inv in RUNTIME_INVARIANTS
                 if inv.location == "chaos"]
        assert all(inv.check is not None for inv in chaos)
        assert runtime_checks("chaos") == [inv.check for inv in chaos]

    def test_fleet_and_supervisor_invariants_carry_no_check(self):
        for inv_id in ("I8", "I9", "I10"):
            inv = runtime_invariant(inv_id)
            assert inv.check is None
            assert inv.location in ("fleet", "supervisor")

    def test_lookup_by_id_and_label(self):
        assert runtime_invariant("I4").label == "I4:fail-closed"
        assert runtime_invariant("I4:fail-closed").inv_id == "I4"
        with pytest.raises(KeyError):
            runtime_invariant("I99")

    def test_cross_references_are_bidirectional(self):
        static_by_id = {p.prop_id: p for p in STATIC_PROPERTIES}
        for inv in RUNTIME_INVARIANTS:
            for sid in inv.static_ids:
                assert sid in static_by_id
                assert inv.inv_id in static_by_id[sid].runtime_ids
        for prop in STATIC_PROPERTIES:
            for rid in prop.runtime_ids:
                assert prop.prop_id in \
                    runtime_invariant(rid).static_ids


class TestStaticRegistry:
    def test_five_properties_in_order(self):
        assert [p.prop_id.split(":")[0] for p in STATIC_PROPERTIES] == \
            ["P1", "P2", "P3", "P4", "P5"]

    def test_lookup_full_and_short(self):
        assert static_property("P2").prop_id == "P2:koffee-unreachable"
        assert static_property("P2:koffee-unreachable") is \
            static_property("P2")
        with pytest.raises(KeyError):
            static_property("P9")

    def test_static_properties_returns_a_copy(self):
        listed = static_properties()
        listed.clear()
        assert len(static_properties()) == 5

    def test_p4_catches_an_ape_that_skips_the_remap(self, monkeypatch):
        from repro.sack.ape import AdaptivePolicyEnforcer
        from repro.vehicle.ivi import DEFAULT_SACK_POLICY
        from repro.verify.checker import verify_policies

        monkeypatch.setattr(AdaptivePolicyEnforcer, "_on_transition",
                            lambda self, transition: None)
        report = verify_policies(DEFAULT_SACK_POLICY)
        assert report.failed_properties == ["P4:cache-coherence"]


class TestChaosConsumesRegistry:
    def test_chaos_checker_uses_registry_functions(self):
        from repro.faults.chaos import _InvariantChecker

        class _World:
            sack = None
            bridge = None
            sackfs = None

        checker = _InvariantChecker(_World())
        assert checker._checks == runtime_checks("chaos")

    def test_chaos_run_still_fingerprints_clean(self):
        # The registry refactor must not move the chaos harness's
        # behavior: a short seeded run holds every invariant.
        from repro.faults.chaos import run_chaos
        report = run_chaos(3, ticks=60, mode="independent",
                           intensity=0.05)
        assert report.ok, report.violations

"""E7 — the KOFFEE command-injection attack across configurations.

The paper's security claim: attacks that bypass user-space checks are
stopped in the kernel.  We verify the full matrix: without kernel MAC the
attack lands; with SACK (either prototype) it is blocked in every
situation state.
"""

import pytest

from repro.vehicle import (EnforcementConfig, KoffeeAttack, VolumeMaxAttack,
                           build_ivi_world)


class TestAttackMatrix:
    def test_matrix(self):
        outcomes = {}
        for config in EnforcementConfig:
            world = build_ivi_world(config)
            world.drive_to_speed(60)
            koffee = KoffeeAttack(world).run()
            volume = VolumeMaxAttack(world).run()
            outcomes[config] = (koffee.blocked, volume.blocked)

        # User-space only: both attacks succeed (the motivation).
        assert outcomes[EnforcementConfig.NO_LSM] == (False, False)
        # Any kernel MAC blocks both while driving.
        for config in (EnforcementConfig.APPARMOR,
                       EnforcementConfig.SACK_INDEPENDENT,
                       EnforcementConfig.SACK_APPARMOR):
            assert outcomes[config] == (True, True), config

    def test_sack_blocks_attack_but_permits_rescue(self):
        """Static MAC cannot do both; situation-aware MAC can."""
        world = build_ivi_world(EnforcementConfig.SACK_INDEPENDENT)
        world.drive_to_speed(50)
        world.trigger_crash()
        # Attacker still blocked in the emergency...
        assert KoffeeAttack(world).run().blocked
        # ...while the legitimate rescue path works.
        world.rescue_unlock_doors()
        assert not world.devices["door"].all_locked

    def test_attack_leaves_audit_trail(self):
        world = build_ivi_world(EnforcementConfig.SACK_INDEPENDENT)
        KoffeeAttack(world).run()
        denials = world.kernel.obs.audit.query(kind="avc", module="sack")
        assert any(r.path == "/dev/car/door" and r.comm == "media_app"
                   for r in denials)

    def test_attacker_cannot_write_sack_events(self):
        """An attacker must not be able to forge situation events."""
        from repro.kernel import KernelError
        world = build_ivi_world(EnforcementConfig.SACK_INDEPENDENT)
        attacker = world.task("media_app")
        with pytest.raises(KernelError):
            world.kernel.write_file(attacker,
                                    "/sys/kernel/security/SACK/events",
                                    b"crash_detected\n", create=False)
        assert world.situation == "parking_with_driver"

    def test_attacker_cannot_load_policy(self):
        from repro.kernel import KernelError
        world = build_ivi_world(EnforcementConfig.SACK_INDEPENDENT)
        attacker = world.task("media_app")
        with pytest.raises(KernelError):
            world.kernel.write_file(attacker,
                                    "/sys/kernel/security/SACK/policy",
                                    b"policy evil;", create=False)

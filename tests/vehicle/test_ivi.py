"""Tests for the IVI world builder and its high-level flows."""

import pytest

from repro.kernel import KernelError
from repro.vehicle import (EnforcementConfig, PermissionDenied,
                           build_ivi_world)
from repro.vehicle.ivi import DEFAULT_SACK_POLICY


class TestBuildAllConfigs:
    @pytest.mark.parametrize("config", list(EnforcementConfig))
    def test_world_boots(self, config):
        world = build_ivi_world(config)
        assert set(world.tasks) == {"media_app", "nav_app",
                                    "volume_service", "ignition_service",
                                    "rescue_daemon", "sds"}
        assert world.kernel.vfs.exists("/dev/car/door")

    def test_no_lsm_has_no_situation(self):
        world = build_ivi_world(EnforcementConfig.NO_LSM)
        assert world.situation is None
        assert world.sackfs is None

    def test_sack_worlds_start_parked(self):
        for config in (EnforcementConfig.SACK_INDEPENDENT,
                       EnforcementConfig.SACK_APPARMOR):
            world = build_ivi_world(config)
            assert world.situation == "parking_with_driver"

    def test_apparmor_profiles_attached(self):
        world = build_ivi_world(EnforcementConfig.SACK_APPARMOR)
        blob = world.tasks["media_app"].security.get("apparmor")
        assert blob == "media_app"

    def test_lsm_stack_order(self):
        world = build_ivi_world(EnforcementConfig.SACK_APPARMOR)
        assert world.framework.config_lsm == "capability,sack,apparmor"


class TestSituationFlow:
    @pytest.fixture
    def world(self):
        return build_ivi_world(EnforcementConfig.SACK_INDEPENDENT)

    def test_drive_park_cycle(self, world):
        world.drive_to_speed(50)
        assert world.situation == "driving"
        assert world.dynamics.speed_kmh >= 50
        world.park()
        assert world.situation == "parking_with_driver"

    def test_crash_from_driving(self, world):
        world.drive_to_speed(60)
        world.trigger_crash()
        assert world.situation == "emergency"
        world.clear_emergency()
        assert world.situation == "parking_with_driver"

    def test_driver_leaves(self, world):
        world.run_sds(1)
        world.dynamics.set_driver_present(False)
        world.run_sds(2)
        assert world.situation == "parking_without_driver"


class TestPolicyReload:
    @pytest.mark.parametrize("config", [EnforcementConfig.SACK_INDEPENDENT,
                                        EnforcementConfig.SACK_APPARMOR])
    def test_reload_while_driving_catches_up(self, config):
        # A load restarts the SSM in the policy's initial state; the
        # world resyncs its SDS so the next sweep re-emits "driving".
        world = build_ivi_world(config)
        world.drive_to_speed(60)
        assert world.situation == "driving"
        world.load_policy(DEFAULT_SACK_POLICY)
        assert world.situation == "parking_with_driver"
        world.run_sds(1)
        assert world.situation == "driving"
        world.run_sds(50)
        assert world.situation == "driving"

    def test_refused_reload_keeps_the_situation(self):
        world = build_ivi_world(EnforcementConfig.SACK_INDEPENDENT)
        world.drive_to_speed(60)
        ssm = world.sack.ssm
        with pytest.raises(KernelError):
            world.load_policy("policy broken;")
        assert world.sack.ssm is ssm
        assert world.situation == "driving"


class TestAccessPaths:
    def test_request_volume_parked(self):
        world = build_ivi_world(EnforcementConfig.SACK_INDEPENDENT)
        assert world.request_volume("media_app", 42) == 42
        assert world.devices["audio"].volume == 42

    def test_request_volume_without_userspace_grant(self):
        world = build_ivi_world(EnforcementConfig.SACK_INDEPENDENT)
        world.permissions.revoke("media_app", "SET_VOLUME")
        with pytest.raises(PermissionDenied):
            world.request_volume("media_app", 42)

    def test_request_volume_denied_by_kernel_while_driving(self):
        world = build_ivi_world(EnforcementConfig.SACK_INDEPENDENT)
        world.drive_to_speed(60)
        with pytest.raises(KernelError):
            world.request_volume("media_app", 90)

    def test_rescue_unlock_only_in_emergency(self):
        world = build_ivi_world(EnforcementConfig.SACK_INDEPENDENT)
        with pytest.raises(KernelError):
            world.rescue_unlock_doors()
        world.trigger_crash()
        world.rescue_unlock_doors()
        assert not world.devices["door"].all_locked
        assert world.devices["window"].position == 100

    def test_permission_framework_counters(self):
        world = build_ivi_world(EnforcementConfig.NO_LSM)
        world.request_volume("media_app", 10)
        with pytest.raises(PermissionDenied):
            world.permissions.check("media_app", "CONTROL_CAR_DOORS")
        assert world.permissions.checks == 2
        assert world.permissions.denials == 1

    def test_grant_and_revoke(self):
        world = build_ivi_world(EnforcementConfig.NO_LSM)
        world.permissions.grant("nav_app", "SET_VOLUME")
        world.permissions.check("nav_app", "SET_VOLUME")
        world.permissions.revoke("nav_app", "SET_VOLUME")
        with pytest.raises(PermissionDenied):
            world.permissions.check("nav_app", "SET_VOLUME")


class TestSdsIntegration:
    def test_sds_task_is_authorized_writer(self):
        world = build_ivi_world(EnforcementConfig.SACK_INDEPENDENT)
        world.drive_to_speed(30)
        assert world.sds.stats.events_sent >= 1
        assert world.sds.stats.events_failed == 0

    def test_world_without_sds(self):
        world = build_ivi_world(EnforcementConfig.SACK_INDEPENDENT,
                                with_sds=False)
        assert world.sds is None
        world.run_sds(3)  # still advances dynamics/clock without error

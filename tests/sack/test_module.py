"""Tests for the independent SACK LSM in the live kernel."""

import pytest

from repro.kernel import (Capability, Errno, KernelError, OpenFlags,
                          user_credentials)
from repro.lsm import boot_kernel
from repro.sack import SackLsm, parse_policy
from repro.sack.events import SituationEvent

POLICY = """
policy mod_test;
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
  BASE;
  DOORS;
}
state_per {
  normal: BASE;
  emergency: BASE, DOORS;
}
per_rules {
  BASE {
    allow read /dev/car/**;
  }
  DOORS {
    allow write /dev/car/door subject=rescue_daemon;
    allow ioctl /dev/car/door cmd=258 subject=rescue_daemon;
  }
}
guard /dev/car/**;
"""


@pytest.fixture
def world():
    sack = SackLsm()
    kernel, _ = boot_kernel([sack])
    sack.load_policy(parse_policy(POLICY))
    kernel.vfs.makedirs("/dev/car")
    kernel.vfs.create_file("/dev/car/door", mode=0o666)
    kernel.vfs.create_file("/dev/car/speed", mode=0o666)
    return kernel, sack


def make_task(kernel, comm, uid=1000):
    task = kernel.sys_fork(kernel.procs.init)
    task.comm = comm
    task.cred = user_credentials(uid)
    return task


class TestNoPolicy:
    def test_everything_allowed_without_policy(self):
        sack = SackLsm()
        kernel, _ = boot_kernel([sack])
        kernel.vfs.create_file("/dev/thing", mode=0o666)
        kernel.read_file(kernel.procs.init, "/dev/thing")
        assert sack.current_state is None


class TestEnforcement:
    def test_read_allowed_in_normal(self, world):
        kernel, _ = world
        task = make_task(kernel, "media_app")
        kernel.read_file(task, "/dev/car/speed")

    def test_write_denied_in_normal(self, world):
        kernel, sack = world
        task = make_task(kernel, "rescue_daemon")
        with pytest.raises(KernelError) as exc:
            kernel.write_file(task, "/dev/car/door", b"unlock",
                              create=False)
        assert exc.value.errno is Errno.EACCES
        assert kernel.obs.metrics.counter(
            "lsm_denials_total",
            {"module": "sack", "hook": "file_open"}).value == 1

    def test_write_allowed_in_emergency_for_subject(self, world):
        kernel, sack = world
        sack.ssm.process_event(SituationEvent(name="crash_detected"))
        task = make_task(kernel, "rescue_daemon")
        kernel.write_file(task, "/dev/car/door", b"unlock", create=False)

    def test_wrong_subject_denied_even_in_emergency(self, world):
        kernel, sack = world
        sack.ssm.process_event(SituationEvent(name="crash_detected"))
        task = make_task(kernel, "media_app")
        with pytest.raises(KernelError):
            kernel.write_file(task, "/dev/car/door", b"unlock",
                              create=False)

    def test_rights_revoked_after_clear(self, world):
        kernel, sack = world
        sack.ssm.process_event(SituationEvent(name="crash_detected"))
        sack.ssm.process_event(SituationEvent(name="emergency_cleared"))
        task = make_task(kernel, "rescue_daemon")
        with pytest.raises(KernelError):
            kernel.write_file(task, "/dev/car/door", b"x", create=False)

    def test_ungoverned_paths_untouched(self, world):
        kernel, _ = world
        task = make_task(kernel, "media_app")
        kernel.vfs.create_file("/tmp/scratch", mode=0o666)
        kernel.write_file(task, "/tmp/scratch", b"fine", create=False)

    def test_create_under_guard_denied(self, world):
        kernel, _ = world
        task = make_task(kernel, "media_app")
        with pytest.raises(KernelError):
            kernel.sys_open(task, "/dev/car/new",
                            OpenFlags.O_CREAT | OpenFlags.O_WRONLY)

    def test_unlink_under_guard_denied(self, world):
        kernel, _ = world
        task = make_task(kernel, "media_app")
        with pytest.raises(KernelError):
            kernel.sys_unlink(task, "/dev/car/door")

    def test_denials_audited(self, world):
        kernel, _ = world
        task = make_task(kernel, "media_app")
        with pytest.raises(KernelError):
            kernel.write_file(task, "/dev/car/door", b"x", create=False)
        records = kernel.obs.audit.by_kind("avc")
        assert [(r.module, r.path, r.situation) for r in records] == \
            [("sack", "/dev/car/door", "normal")]


class TestMacOverride:
    def test_cap_mac_override_bypasses_sack(self, world):
        kernel, _ = world
        task = make_task(kernel, "trusted")
        task.cred = task.cred.with_caps([Capability.CAP_MAC_OVERRIDE])
        kernel.write_file(task, "/dev/car/door", b"x", create=False)

    def test_root_without_override_still_confined(self, world):
        kernel, _ = world
        task = kernel.sys_fork(kernel.procs.init)
        task.comm = "rootish"
        task.cred = task.cred.dropping_caps(Capability.CAP_MAC_OVERRIDE)
        with pytest.raises(KernelError):
            kernel.write_file(task, "/dev/car/door", b"x", create=False)


class TestPolicyReload:
    def test_load_policy_resets_state_machine(self, world):
        kernel, sack = world
        sack.ssm.process_event(SituationEvent(name="crash_detected"))
        assert sack.current_state == "emergency"
        sack.load_policy(parse_policy(POLICY))
        assert sack.current_state == "normal"

    def test_load_audited(self, world):
        kernel, _ = world
        assert kernel.obs.audit.query(kind="policy_load", module="sack")

"""The LSM stack's situation epoch, and decisions with no cache behind them.

Every access walks the modules: there is no stack-level decision cache.
The framework keeps one monotone situation epoch, advanced once on every
committed transition, SACK policy load and admin AppArmor profile reload.

The class and test names date from the stack access vector cache, which
is gone.  Each test now checks the same behaviour with every access
walking the modules.
"""

import pytest

from repro.apparmor import AppArmorLsm
from repro.kernel import KernelError, OpenFlags, user_credentials
from repro.lsm import Hook, HOOK_BIT, boot_kernel
from repro.sack import SackLsm, parse_policy
from repro.sack.events import SituationEvent

POLICY = """
policy epoch_test;
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
  }
}
guard /dev/car/**;
"""

PROFILES = """
profile confined /usr/bin/confined {
  /usr/bin/confined rm,
  /data/** rw,
}

profile noisy /usr/bin/noisy flags=(complain) {
  /usr/bin/noisy rm,
}
"""


# -- the situation epoch ------------------------------------------------------

@pytest.fixture
def world():
    sack = SackLsm()
    kernel, framework = boot_kernel([sack])
    sack.load_policy(parse_policy(POLICY))
    kernel.vfs.makedirs("/dev/car")
    kernel.vfs.create_file("/dev/car/door", mode=0o666)
    kernel.vfs.create_file("/dev/car/speed", mode=0o666)
    return kernel, framework, sack


def make_task(kernel, comm, uid=1000):
    task = kernel.sys_fork(kernel.procs.init)
    task.comm = comm
    task.cred = user_credentials(uid)
    return task


def read_once(kernel, task, path):
    fd = kernel.sys_open(task, path, OpenFlags.O_RDONLY)
    kernel.sys_read(task, fd, 4)
    kernel.sys_close(task, fd)


class TestFrameworkAvc:
    """The SACK stack: the epoch advances, and every access walks."""

    def test_transition_bumps_epoch_and_invalidates(self, world):
        kernel, framework, sack = world
        epoch = framework.epoch
        sack.ssm.process_event(SituationEvent(name="crash_detected"))
        assert framework.epoch == epoch + 1
        assert framework.epoch_bumps == framework.epoch
        assert framework.bump_reasons["transition"] == 1

    def test_ignored_event_leaves_epoch(self, world):
        kernel, framework, sack = world
        epoch = framework.epoch
        sack.ssm.process_event(SituationEvent(name="emergency_cleared"))
        assert framework.epoch == epoch

    def test_policy_load_bumps_epoch(self, world):
        kernel, framework, sack = world
        epoch = framework.epoch
        sack.load_policy(parse_policy(POLICY))
        assert framework.epoch > epoch
        assert framework.bump_reasons["policy-load"] == 2

    def test_epoch_is_exported(self, world):
        kernel, framework, sack = world
        sack.ssm.process_event(SituationEvent(name="crash_detected"))
        metrics = kernel.obs.metrics.to_prometheus()
        assert f"lsm_situation_epoch {framework.epoch}" in metrics
        assert ('lsm_situation_epoch_bumps_total{reason="transition"} 1'
                in metrics)

    def test_repeated_allow_hits(self, world):
        kernel, framework, sack = world
        task = make_task(kernel, "app")
        read_once(kernel, task, "/dev/car/speed")
        checks = sack.ape.check_count
        read_once(kernel, task, "/dev/car/speed")
        assert sack.ape.check_count == 2 * checks

    def test_denials_are_never_cached(self, world):
        kernel, framework, sack = world
        task = make_task(kernel, "app")
        for expected in (1, 2):
            with pytest.raises(KernelError):
                kernel.sys_open(task, "/dev/car/door", OpenFlags.O_WRONLY)
            # Every denial reached the module's ruleset (side effects
            # intact).
            assert sack.ape.deny_count == expected

    def test_decisions_identical_after_transition(self, world):
        kernel, framework, sack = world
        rescue = make_task(kernel, "rescue_daemon")
        # normal: rescue_daemon may not write the door...
        with pytest.raises(KernelError):
            kernel.sys_open(rescue, "/dev/car/door", OpenFlags.O_WRONLY)
        sack.ssm.process_event(SituationEvent(name="crash_detected"))
        # ...but may after the crash.
        fd = kernel.sys_open(rescue, "/dev/car/door", OpenFlags.O_WRONLY)
        kernel.sys_write(rescue, fd, b"x")
        sack.ssm.process_event(SituationEvent(name="emergency_cleared"))
        # And the revocation direction: the allow must not outlive the
        # emergency (sys_write consults file_permission on the open fd).
        with pytest.raises(KernelError):
            kernel.sys_write(rescue, fd, b"x")

    def test_mac_override_gets_its_own_cache_line(self, world):
        kernel, framework, _ = world
        app = make_task(kernel, "app")
        root = kernel.sys_fork(kernel.procs.init)
        root.comm = "app"  # same comm, different privilege
        fd = kernel.sys_open(root, "/dev/car/door", OpenFlags.O_WRONLY)
        kernel.sys_close(root, fd)
        with pytest.raises(KernelError):
            kernel.sys_open(app, "/dev/car/door", OpenFlags.O_WRONLY)


# -- AppArmor profiles: reloads advance the epoch, complain mode audits -------

class TestCacheabilityGates:
    """What once kept an allow out of the cache now simply re-decides."""

    def test_profile_reload_bumps_epoch(self):
        apparmor = AppArmorLsm()
        apparmor.policy.load_text(PROFILES)
        kernel, framework = boot_kernel([apparmor])
        epoch = framework.epoch
        apparmor.policy.load_text(PROFILES)
        assert framework.epoch > epoch
        assert framework.bump_reasons["profile-reload"] >= 1

    def test_complain_mode_vetoes_caching(self):
        apparmor = AppArmorLsm()
        apparmor.policy.load_text(PROFILES)
        kernel, framework = boot_kernel([apparmor])
        kernel.vfs.create_file("/data", mode=0o666)
        task = make_task(kernel, "noisy")
        apparmor.confine(task, "noisy")
        before = len(kernel.obs.audit.by_kind("complain"))
        for _ in range(3):
            read_once(kernel, task, "/data")
        # Every complain-mode access produced its audit side effect —
        # two per read (file_open and file_permission).
        assert len(kernel.obs.audit.by_kind("complain")) == before + 6

    def test_profile_reload_revokes_cached_allow(self):
        apparmor = AppArmorLsm()
        apparmor.policy.load_text(PROFILES)
        kernel, framework = boot_kernel([apparmor])
        kernel.vfs.makedirs("/data")
        kernel.vfs.create_file("/data/f", mode=0o666)
        task = make_task(kernel, "confined")
        apparmor.confine(task, "confined")
        read_once(kernel, task, "/data/f")
        read_once(kernel, task, "/data/f")
        tightened = PROFILES.replace("/data/** rw,", "/tmp/** rw,")
        apparmor.policy.load_text(tightened)
        with pytest.raises(KernelError):
            kernel.sys_open(task, "/data/f", OpenFlags.O_RDONLY)


# -- the implemented-hook bitmap ----------------------------------------------

class TestHookBitmap:
    def test_bitmap_reflects_implemented_hooks(self):
        sack = SackLsm()
        _, framework = boot_kernel([sack])
        assert framework.hook_bitmap & HOOK_BIT[Hook.FILE_OPEN]
        assert framework.hook_bitmap & HOOK_BIT[Hook.CAPABLE]
        # Nobody in this stack implements socket hooks.
        assert not framework.hook_bitmap & HOOK_BIT[Hook.SOCKET_SENDMSG]

    def test_unimplemented_hook_allows_without_dispatch(self):
        sack = SackLsm()
        kernel, framework = boot_kernel([sack])
        task = make_task(kernel, "app")
        assert framework.task_kill(task, task) == 0

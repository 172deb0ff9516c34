"""End-to-end tests for AppArmor as an LSM in the simulated kernel."""

import pytest

from repro.apparmor import AppArmorLsm
from repro.apparmor.profile import ProfileMode
from repro.kernel import (Capability, Errno, KernelError, OpenFlags,
                          SocketFamily, user_credentials)
from repro.lsm import boot_kernel


PROFILES = """
profile worker /usr/bin/worker {
  /usr/bin/worker rm,
  /usr/bin/helper px,
  /usr/bin/free ux,
  /data/** rw,
  deny /data/secret/** w,
  capability kill,
  network unix stream,
}

profile helper /usr/bin/helper {
  /usr/bin/helper rm,
  /helper-data/** r,
}

profile noisy /usr/bin/noisy flags=(complain) {
  /usr/bin/noisy rm,
}
"""


@pytest.fixture
def world():
    aa = AppArmorLsm()
    aa.policy.load_text(PROFILES)
    kernel, fw = boot_kernel([aa])
    for exe in ("worker", "helper", "free", "noisy"):
        kernel.vfs.create_file(f"/usr/bin/{exe}", mode=0o755)
    kernel.vfs.makedirs("/data/secret")
    kernel.vfs.makedirs("/helper-data")
    kernel.vfs.create_file("/data/f", mode=0o666)
    kernel.vfs.create_file("/data/secret/s", mode=0o666)
    kernel.vfs.create_file("/helper-data/h", mode=0o666)
    kernel.vfs.create_file("/etc/other", mode=0o666)
    return kernel, aa


def spawn_confined(kernel, exe="worker"):
    task = kernel.sys_fork(kernel.procs.init)
    kernel.sys_execve(task, f"/usr/bin/{exe}")
    return task


class TestAttachment:
    def test_profile_attached_on_exec(self, world):
        kernel, aa = world
        task = spawn_confined(kernel)
        assert aa.profile_of(task).name == "worker"

    def test_unmatched_exe_stays_unconfined(self, world):
        kernel, aa = world
        kernel.vfs.create_file("/usr/bin/unknown", mode=0o755)
        task = kernel.sys_fork(kernel.procs.init)
        kernel.sys_execve(task, "/usr/bin/unknown")
        assert aa.profile_of(task) is None

    def test_fork_inherits_confinement(self, world):
        kernel, aa = world
        parent = spawn_confined(kernel)
        child = kernel.sys_fork(parent)
        assert aa.profile_of(child).name == "worker"


class TestFileMediation:
    def test_allowed_write(self, world):
        kernel, _ = world
        task = spawn_confined(kernel)
        kernel.write_file(task, "/data/f", b"ok", create=False)

    def test_unlisted_path_denied(self, world):
        kernel, _ = world
        task = spawn_confined(kernel)
        with pytest.raises(KernelError) as exc:
            kernel.read_file(task, "/etc/other")
        assert exc.value.errno is Errno.EACCES

    def test_deny_rule_beats_allow(self, world):
        kernel, _ = world
        task = spawn_confined(kernel)
        # /data/** rw is granted, but /data/secret/** w is denied.
        with pytest.raises(KernelError):
            kernel.write_file(task, "/data/secret/s", b"x", create=False)
        # Reading the secret is still allowed (only w was denied).
        kernel.read_file(task, "/data/secret/s")

    def test_create_requires_write(self, world):
        kernel, _ = world
        task = spawn_confined(kernel)
        fd = kernel.sys_open(task, "/data/new",
                             OpenFlags.O_CREAT | OpenFlags.O_WRONLY)
        kernel.sys_close(task, fd)
        with pytest.raises(KernelError):
            kernel.sys_open(task, "/etc/new",
                            OpenFlags.O_CREAT | OpenFlags.O_WRONLY)

    def test_unlink_requires_write(self, world):
        kernel, _ = world
        task = spawn_confined(kernel)
        kernel.sys_unlink(task, "/data/f")
        with pytest.raises(KernelError):
            kernel.sys_unlink(task, "/etc/other")

    def test_one_denial_one_count_one_record(self, world):
        kernel, _ = world
        task = spawn_confined(kernel)
        denials = kernel.obs.metrics.counter(
            "lsm_denials_total", {"module": "apparmor", "hook": "file_open"})
        before, records = denials.value, len(kernel.obs.audit)
        with pytest.raises(KernelError):
            kernel.read_file(task, "/etc/other")
        assert denials.value == before + 1
        assert len(kernel.obs.audit) == records + 1
        record = kernel.obs.audit.tail(1)[0]
        assert (record.kind, record.module, record.path) == \
            ("avc", "apparmor", "/etc/other")


class TestExecTransitions:
    def test_px_transitions_to_target_profile(self, world):
        kernel, aa = world
        task = spawn_confined(kernel)
        kernel.sys_execve(task, "/usr/bin/helper")
        assert aa.profile_of(task).name == "helper"
        # helper's rules now apply
        kernel.read_file(task, "/helper-data/h")
        with pytest.raises(KernelError):
            kernel.write_file(task, "/data/f", b"x", create=False)

    def test_ux_drops_confinement(self, world):
        kernel, aa = world
        task = spawn_confined(kernel)
        kernel.sys_execve(task, "/usr/bin/free")
        assert aa.profile_of(task) is None
        kernel.read_file(task, "/etc/other")  # unconfined now

    def test_unlisted_exec_denied(self, world):
        kernel, _ = world
        task = spawn_confined(kernel)
        kernel.vfs.create_file("/usr/bin/evil", mode=0o755)
        with pytest.raises(KernelError) as exc:
            kernel.sys_execve(task, "/usr/bin/evil")
        assert exc.value.errno is Errno.EACCES


class TestCapabilityMediation:
    def test_listed_capability_allowed(self, world):
        kernel, _ = world
        task = spawn_confined(kernel)
        victim = kernel.sys_fork(kernel.procs.init)
        victim.cred = user_credentials(0)
        # worker profile allows capability kill; root creds hold it.
        kernel.sys_kill(task, victim.pid)

    def test_unlisted_capability_denied(self, world):
        kernel, _ = world
        task = spawn_confined(kernel)
        assert not kernel.capable(task, Capability.CAP_SYS_ADMIN)

    def test_unconfined_root_keeps_caps(self, world):
        kernel, _ = world
        assert kernel.capable(kernel.procs.init, Capability.CAP_SYS_ADMIN)


class TestNetworkMediation:
    def test_allowed_family(self, world):
        kernel, _ = world
        task = spawn_confined(kernel)
        fd = kernel.sys_socket(task, SocketFamily.AF_UNIX)
        kernel.sys_close(task, fd)

    def test_denied_family(self, world):
        kernel, _ = world
        task = spawn_confined(kernel)
        with pytest.raises(KernelError):
            kernel.sys_socket(task, SocketFamily.AF_INET)


class TestComplainMode:
    def test_complain_allows_but_logs(self, world):
        kernel, aa = world
        task = spawn_confined(kernel, "noisy")
        assert aa.profile_of(task).mode is ProfileMode.COMPLAIN
        kernel.read_file(task, "/etc/other")  # would be denied in enforce
        complaints = kernel.obs.audit.query(kind="complain",
                                            module="apparmor")
        assert any("/etc/other" in r.detail for r in complaints)
        assert not kernel.obs.audit.by_kind("avc")

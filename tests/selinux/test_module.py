"""End-to-end tests for the SELinux LSM in the simulated kernel."""

import pytest

from repro.kernel import (Errno, KernelError, OpenFlags, SocketFamily,
                          user_credentials)
from repro.lsm import boot_kernel
from repro.selinux import AvRule, SelinuxLsm, parse_te_policy
from repro.selinux.context import parse_context
from repro.selinux.policy import FileContext

TE_POLICY = """
type media_t;
type media_exec_t;
type media_file_t;
type car_audio_t;
type car_door_t;
type shared_exec_t;

allow media_t media_exec_t : file { read execute };
allow media_t media_file_t : file { read write create unlink };
allow media_t car_audio_t : chr_file { read ioctl };
allow media_t car_audio_t : file { read ioctl };
allow media_t media_t : socket { create connect };
type_transition init_t media_exec_t : process media_t;

filecon /usr/bin/media_app system_u:object_r:media_exec_t;
filecon /var/media/** system_u:object_r:media_file_t;
filecon /dev/car/audio system_u:object_r:car_audio_t;
filecon /dev/car/door system_u:object_r:car_door_t;
"""


@pytest.fixture
def world():
    selinux = SelinuxLsm(parse_te_policy(TE_POLICY))
    kernel, _ = boot_kernel([selinux])
    kernel.vfs.makedirs("/dev/car")
    kernel.vfs.makedirs("/var/media")
    kernel.vfs.create_file("/usr/bin/media_app", mode=0o755)
    kernel.vfs.create_file("/var/media/song.mp3", mode=0o666)
    kernel.vfs.create_file("/dev/car/audio", mode=0o666)
    kernel.vfs.create_file("/dev/car/door", mode=0o666)
    kernel.vfs.create_file("/etc/other", mode=0o666)
    return kernel, selinux


def confined(kernel, selinux):
    task = kernel.sys_fork(kernel.procs.init)
    task.cred = user_credentials(0, caps=())
    kernel.sys_execve(task, "/usr/bin/media_app")
    assert selinux.context_of(task).type == "media_t"
    return task


class TestDomainTransition:
    def test_exec_transitions_domain(self, world):
        kernel, selinux = world
        task = confined(kernel, selinux)
        assert selinux.context_of(task).type == "media_t"

    def test_fork_inherits_domain(self, world):
        kernel, selinux = world
        parent = confined(kernel, selinux)
        child = kernel.sys_fork(parent)
        assert selinux.context_of(child).type == "media_t"

    def test_init_is_unconfined(self, world):
        kernel, selinux = world
        kernel.read_file(kernel.procs.init, "/etc/other")

    def test_exec_without_execute_perm_denied(self, world):
        kernel, selinux = world
        kernel.vfs.create_file("/usr/bin/other_app", mode=0o755)
        task = confined(kernel, selinux)
        with pytest.raises(KernelError):
            kernel.sys_execve(task, "/usr/bin/other_app")


class TestTeEnforcement:
    def test_allowed_accesses(self, world):
        kernel, selinux = world
        task = confined(kernel, selinux)
        kernel.read_file(task, "/var/media/song.mp3")
        kernel.write_file(task, "/var/media/new.mp3", b"x")
        kernel.sys_unlink(task, "/var/media/new.mp3")
        kernel.read_file(task, "/dev/car/audio")

    def test_default_deny_unlisted_type(self, world):
        kernel, selinux = world
        task = confined(kernel, selinux)
        with pytest.raises(KernelError) as exc:
            kernel.read_file(task, "/etc/other")
        assert exc.value.errno is Errno.EACCES
        assert kernel.obs.metrics.counter(
            "lsm_denials_total",
            {"module": "selinux", "hook": "file_open"}).value == 1

    def test_write_denied_where_only_read_allowed(self, world):
        kernel, selinux = world
        task = confined(kernel, selinux)
        with pytest.raises(KernelError):
            kernel.write_file(task, "/dev/car/audio", b"x", create=False)

    def test_door_fully_denied(self, world):
        kernel, selinux = world
        task = confined(kernel, selinux)
        with pytest.raises(KernelError):
            kernel.read_file(task, "/dev/car/door")

    def test_socket_mediation(self, world):
        kernel, selinux = world
        task = confined(kernel, selinux)
        fd = kernel.sys_socket(task, SocketFamily.AF_UNIX)
        kernel.sys_close(task, fd)

    def test_denials_audited(self, world):
        kernel, selinux = world
        task = confined(kernel, selinux)
        with pytest.raises(KernelError):
            kernel.read_file(task, "/etc/other")
        records = kernel.obs.audit.query(kind="avc", module="selinux")
        assert [(r.comm, r.path) for r in records] == \
            [(task.comm, "/etc/other")]


class TestPermissiveMode:
    def test_permissive_allows_and_logs(self, world):
        kernel, selinux = world
        selinux.enforcing = False
        task = confined(kernel, selinux)
        kernel.read_file(task, "/etc/other")  # would be denied enforcing
        permitted = kernel.obs.audit.query(kind="permissive",
                                           module="selinux")
        assert any("media_t" in r.detail for r in permitted)
        assert not kernel.obs.audit.by_kind("avc")


class TestLabeling:
    def test_lazy_labels_assigned(self, world):
        kernel, selinux = world
        task = confined(kernel, selinux)
        kernel.read_file(task, "/var/media/song.mp3")
        dentry = kernel.vfs.resolve("/var/media/song.mp3")
        assert dentry.inode.security["selinux"].type == "media_file_t"

    def test_relabel_tree_after_policy_change(self, world):
        kernel, selinux = world
        task = confined(kernel, selinux)
        kernel.read_file(task, "/var/media/song.mp3")
        from repro.selinux import FileContext, parse_context
        selinux.policy.add_file_context(FileContext(
            "/var/media/song.mp3",
            parse_context("system_u:object_r:car_door_t")))
        changed = selinux.relabel_tree(kernel)
        assert changed == 1
        dentry = kernel.vfs.resolve("/var/media/song.mp3")
        assert dentry.inode.security["selinux"].type == "car_door_t"


class TestPolicyChanges:
    """Every check reads the live AV table: a change applies to the very
    next access, with no cache to flush."""

    DOOR_WRITE = AvRule("media_t", "car_door_t", "file",
                        frozenset({"write"}), origin="sack")

    def test_policy_change_applies_to_next_check(self, world):
        kernel, selinux = world
        task = confined(kernel, selinux)
        with pytest.raises(KernelError):
            kernel.write_file(task, "/dev/car/door", b"x", create=False)
        selinux.policy.add_rule(self.DOOR_WRITE)
        kernel.write_file(task, "/dev/car/door", b"x", create=False)

    def test_retraction_applies_to_next_check(self, world):
        kernel, selinux = world
        task = confined(kernel, selinux)
        selinux.policy.replace_origin("sack", [self.DOOR_WRITE])
        kernel.write_file(task, "/dev/car/door", b"x", create=False)
        selinux.policy.replace_origin("sack", [])
        with pytest.raises(KernelError):
            kernel.write_file(task, "/dev/car/door", b"x", create=False)


class TestAdminEditsMoveTheEpoch:
    """An admin TE edit after boot is one situation-epoch bump, as an
    admin AppArmor load is; the bridge's origin swap is none."""

    DOOR_WRITE = TestPolicyChanges.DOOR_WRITE

    def test_add_rule_bumps_once(self, world):
        kernel, selinux = world
        framework = kernel.security
        epoch, revision = framework.epoch, selinux.policy.revision
        selinux.policy.add_rule(self.DOOR_WRITE)
        assert selinux.policy.revision == revision + 1
        assert framework.epoch == epoch + 1
        assert framework.bump_reasons["te-policy-edit"] == 1

    def test_neverallow_and_file_context_bump_once_each(self, world):
        kernel, selinux = world
        framework = kernel.security
        epoch = framework.epoch
        selinux.policy.add_neverallow(AvRule(
            "media_t", "car_door_t", "file", frozenset({"execute"})))
        selinux.policy.add_file_context(FileContext(
            "/dev/car/window",
            parse_context("system_u:object_r:car_door_t")))
        assert framework.epoch == epoch + 2

    def test_replace_origin_bumps_nothing(self, world):
        kernel, selinux = world
        epoch = kernel.security.epoch
        selinux.policy.replace_origin("sack", [self.DOOR_WRITE])
        assert kernel.security.epoch == epoch

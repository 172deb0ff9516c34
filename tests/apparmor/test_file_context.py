"""Differential test: AppArmor's file context against per-check recomputation.

``AppArmorLsm.file_open`` stores ``(profile, revision, bits)`` on the open
file, and later checks on that file decide from the stored bits while
the task's profile and the policy revision are unchanged (Linux's
``aa_file_perm()`` fast path).  The file hooks below are the ones it
replaced, kept here only as the oracle: every check recomputes from the
live profile.  Two worlds, identical but for those hooks, run the same
access trace; the verdicts, the audit trail and the hook spans' status
and annotations must be identical.  The trace changes what an open file
may do between its open and its later checks in every way the context
must notice: bridged situation transitions, an admin ``load_text``
that replaces, adds and complain-flags profiles, and an inherited fd
used after ``fork`` + ``exec`` into another profile.
"""

from __future__ import annotations

import pytest

from repro.apparmor import AppArmorLsm
from repro.apparmor.module import (MODULE_NAME, _MMAP, _PROT_EXEC, _READ,
                                   _WRITE, _mask_to_perms)
from repro.apparmor.profile import FilePerm, PathRule, Profile
from repro.kernel import KernelError, MapProt, OpenFlags
from repro.kernel.credentials import user_credentials
from repro.kernel.devices import ioctl_is_write
from repro.obs.audit import AUDIT_AVC, AUDIT_COMPLAIN
from repro.vehicle import EnforcementConfig, ivi
from repro.vehicle.devices import DOOR_UNLOCK, VOLUME_GET, VOLUME_SET

MEDIA = "/var/media/song.ogg"
LIB = "/usr/lib/libcodec.so"

#: Loaded by an admin mid-trace: media_app loses /var/media writes and
#: goes to complain mode; two new profiles arrive, one of them able to
#: exec nav_app into its own profile.
ADMIN_PROFILES = """
profile media_app /usr/bin/media_app flags=(complain) {
  /usr/bin/media_app rm,
  /usr/lib/** rm,
  /var/media/** r,
  /dev/car/audio r,
}

profile launcher /usr/bin/launcher {
  /usr/bin/launcher rm,
  /usr/bin/nav_app px,
  /var/media/** rw,
}

profile noisy /usr/bin/noisy flags=(complain) {
  /usr/bin/noisy rm,
  /var/media/** r,
}
"""


class RecomputingAppArmor(AppArmorLsm):
    """AppArmor whose file hooks recompute on every check (the oracle)."""

    def _legacy_check_path(self, task, path, perms, what):
        profile = self.profile_of(task)
        if profile is None or not perms:
            return 0
        ok = profile.allows_file(path, perms)
        return self._decide(profile, ok, task, f"{what} {path}")

    def file_open(self, task, file):
        if task.security.get(MODULE_NAME) is None:
            return 0
        perms = ((_READ if file.wants_read else 0)
                 | (_WRITE if file.wants_write else 0))
        return self._legacy_check_path(task, file.path, perms, "open")

    def file_permission(self, task, file, mask):
        if task.security.get(MODULE_NAME) is None:
            return 0
        return self._legacy_check_path(task, file.path,
                                       _mask_to_perms(mask), "access")

    def file_ioctl(self, task, file, cmd, arg):
        if task.security.get(MODULE_NAME) is None:
            return 0
        perm = _WRITE if ioctl_is_write(cmd) else _READ
        return self._legacy_check_path(task, file.path, perm,
                                       f"ioctl[{cmd:#x}]")

    def mmap_file(self, task, file, prot):
        if file is None:
            return 0
        if task.security.get(MODULE_NAME) is None:
            return 0
        if prot & _PROT_EXEC:
            return self._legacy_check_path(task, file.path, _MMAP, "mmap")
        return 0


def boot(monkeypatch, apparmor_cls):
    """The SACK-enhanced AppArmor IVI world, with *apparmor_cls* as its
    AppArmor module, span-tracing every hook."""
    with monkeypatch.context() as patch:
        patch.setattr(ivi, "AppArmorLsm", apparmor_cls)
        world = ivi.build_ivi_world(EnforcementConfig.SACK_APPARMOR)
    assert type(world.apparmor) is apparmor_cls
    vfs = world.kernel.vfs
    vfs.create_file(MEDIA, mode=0o666)
    vfs.create_file(LIB, mode=0o755)
    for exe in ("launcher", "noisy"):
        vfs.create_file(f"/usr/bin/{exe}", mode=0o755)
    spans = world.kernel.obs.spans
    spans.keep_empty_roots = True
    spans.enable()
    spans.trace_all_hooks()
    return world


class Trace:
    """Runs syscalls and records each one's result or errno."""

    def __init__(self, world):
        self.world = world
        self.kernel = world.kernel
        self.log = []

    def __call__(self, label, fn, *args):
        try:
            result = fn(*args)
        except KernelError as err:
            self.log.append((label, err.errno.name))
            return None
        self.log.append((label, result if isinstance(result, (int, bytes))
                         else "ok"))
        return result

    def spawn(self, exe, uid=1000):
        kernel = self.kernel
        task = kernel.sys_fork(kernel.procs.init)
        task.cred = user_credentials(uid)
        kernel.sys_execve(task, f"/usr/bin/{exe}", comm=exe)
        return task


def run_trace(world):
    """The access trace; returns its ``(label, result or errno)`` log."""
    k = world.kernel
    t = Trace(world)
    rescue = world.tasks["rescue_daemon"]
    media = world.tasks["media_app"]
    volume = world.tasks["volume_service"]

    # Plain reuse: one open, many checks under an unchanged profile.
    audio = t("volume open", k.sys_open, volume, "/dev/car/audio",
              OpenFlags.O_RDONLY)
    for i in range(3):
        t(f"volume read {i}", k.sys_read, volume, audio, 8)
        t(f"volume get {i}", k.sys_ioctl, volume, audio, VOLUME_GET)
        t(f"volume set {i}", k.sys_ioctl, volume, audio, VOLUME_SET, 30)
    song = t("media open rw", k.sys_open, media, MEDIA, OpenFlags.O_RDWR)
    t("media write", k.sys_write, media, song, b"frame")
    lib = t("media open lib", k.sys_open, media, LIB, OpenFlags.O_RDONLY)
    t("media mmap lib", k.sys_mmap, media, 4096, MapProt.PROT_READ
      | MapProt.PROT_EXEC, lib)
    t("media mmap song", k.sys_mmap, media, 4096, MapProt.PROT_EXEC, song)

    # A bridged transition between open and the later checks: the door
    # opened while parked may be unlocked only in the emergency.
    door_ro = t("rescue open door r", k.sys_open, rescue, "/dev/car/door",
                OpenFlags.O_RDONLY)
    t("rescue unlock parked", k.sys_ioctl, rescue, door_ro, DOOR_UNLOCK)
    world.trigger_crash()
    assert world.situation == "emergency"
    t("rescue unlock emergency", k.sys_ioctl, rescue, door_ro, DOOR_UNLOCK)
    t("rescue read emergency", k.sys_read, rescue, door_ro, 8)
    door_rw = t("rescue open door rw", k.sys_open, rescue, "/dev/car/door",
                OpenFlags.O_RDWR)
    t("rescue write emergency", k.sys_write, rescue, door_rw, b"unlock")
    world.clear_emergency()
    assert world.situation == "parking_with_driver"
    t("rescue write parked", k.sys_write, rescue, door_rw, b"lock")
    t("rescue read parked", k.sys_read, rescue, door_rw, 8)
    t("rescue unlock parked again", k.sys_ioctl, rescue, door_ro,
      DOOR_UNLOCK)
    t("volume set after transitions", k.sys_ioctl, volume, audio,
      VOLUME_SET, 40)

    # An admin load between open and the later checks: media_app loses
    # its media writes and becomes a complain-mode profile.
    world.apparmor.policy.load_text(ADMIN_PROFILES)
    t("media write complain", k.sys_write, media, song, b"frame")
    t("media read complain", k.sys_read, media, song, 8)
    t("media mmap song complain", k.sys_mmap, media, 4096,
      MapProt.PROT_EXEC, song)
    noisy = t.spawn("noisy")
    loud = t("noisy open rw", k.sys_open, noisy, MEDIA, OpenFlags.O_RDWR)
    t("noisy write", k.sys_write, noisy, loud, b"x")
    t("noisy read", k.sys_read, noisy, loud, 8)

    # An inherited fd used after fork + exec into another profile, then
    # by parent and child in turn.
    launcher = t.spawn("launcher")
    shared = t("launcher open rw", k.sys_open, launcher, MEDIA,
               OpenFlags.O_RDWR)
    t("launcher read", k.sys_read, launcher, shared, 8)
    child = k.sys_fork(launcher)
    t("child read before exec", k.sys_read, child, shared, 8)
    t("child exec nav_app", k.sys_execve, child, "/usr/bin/nav_app",
      "nav_app")
    assert world.apparmor.profile_of(child).name == "nav_app"
    for i in range(2):
        t(f"child read {i}", k.sys_read, child, shared, 8)
        t(f"child write {i}", k.sys_write, child, shared, b"y")
        t(f"parent read {i}", k.sys_read, launcher, shared, 8)
        t(f"parent write {i}", k.sys_write, launcher, shared, b"z")

    # A profile edited in place and loaded again: the same object, a new
    # revision, so only the revision can tell the stored bits are stale.
    profile = world.apparmor.policy.get("launcher")
    profile.add_rule(PathRule("/var/media/**", FilePerm.WRITE, deny=True))
    world.apparmor.policy.load_profile(profile)
    t("parent write after edit", k.sys_write, launcher, shared, b"z")
    t("parent read after edit", k.sys_read, launcher, shared, 8)
    for fd, task in ((audio, volume), (song, media), (lib, media),
                     (door_ro, rescue), (door_rw, rescue), (loud, noisy),
                     (shared, launcher)):
        if fd is not None:
            t("close", k.sys_close, task, fd)
    return t.log


def observed(world):
    audit = world.kernel.obs.audit.records()
    spans = [(root.name, root.status, sorted(root.attributes.items()))
             for root in world.kernel.obs.spans.roots()]
    return audit, spans


def count_perm_bits(monkeypatch, world_fn):
    calls = []
    original = Profile._perm_bits

    def counting(self, path):
        calls.append(path)
        return original(self, path)

    with monkeypatch.context() as patch:
        patch.setattr(Profile, "_perm_bits", counting)
        result = world_fn()
    return result, len(calls)


@pytest.fixture
def runs(monkeypatch):
    def run(cls):
        world = boot(monkeypatch, cls)
        log, computed = count_perm_bits(monkeypatch,
                                        lambda: run_trace(world))
        return world, log, computed
    return run(RecomputingAppArmor), run(AppArmorLsm)


def test_verdicts_audits_and_spans_match_recomputation(runs):
    (old_world, old_log, _), (new_world, new_log, _) = runs
    assert new_log == old_log
    old_audit, old_spans = observed(old_world)
    new_audit, new_spans = observed(new_world)
    assert new_audit == old_audit
    assert new_spans == old_spans


def test_trace_exercises_every_outcome(runs):
    world, log, _ = runs[1]
    results = dict(log)
    # The transition flips the stored verdict both ways.
    assert results["rescue unlock parked"] == "EACCES"
    assert results["rescue unlock emergency"] == 0
    assert results["rescue write emergency"] == 6
    assert results["rescue write parked"] == "EACCES"
    assert results["rescue unlock parked again"] == "EACCES"
    # The admin load's complain mode allows with an audit record.
    assert results["media write complain"] == 5
    assert results["noisy write"] == 1
    complaints = world.kernel.obs.audit.by_kind(AUDIT_COMPLAIN)
    assert {r.comm for r in complaints} >= {"media_app", "noisy"}
    # The exec'd child is judged by nav_app, the parent by launcher.
    assert isinstance(results["child read before exec"], bytes)
    assert results["child read 0"] == "EACCES"
    assert isinstance(results["parent read 1"], bytes)
    assert results["parent write 1"] == 1
    assert results["parent write after edit"] == "EACCES"
    assert results["media mmap song"] == "EACCES"
    assert results["media mmap lib"] == "ok"
    # Denials reached the audit trail and the hook spans.
    assert world.kernel.obs.audit.by_kind(AUDIT_AVC)
    assert any(status == "denied" for _name, status, _attrs
               in observed(world)[1])


def test_context_saves_recomputation(runs):
    (_, _, old_computed), (_, _, new_computed) = runs
    assert new_computed < old_computed

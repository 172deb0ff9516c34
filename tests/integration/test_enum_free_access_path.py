"""Regression guard: the file access path runs no enum.py code.

On the interpreters this project supports, ``&``, ``|``, ``^`` and ``~``
on an ``IntFlag`` (``OpenFlags``, ``FilePerm``) run as Python code in
enum.py and build a new member, which made them the largest cost of a
single access.  Masks are plain ints from ``sys_open`` to the AppArmor
verdict; the first guard counts calls into those operators while a mixed
batch of allowed and denied accesses runs, and requires none.

The second guard holds allowed accesses to one lookup each: the open's
one path walk hands the resolved path to the open file (no
``Dentry.path()`` rebuild), and the hook tables, the APE's per-op tables
and the capability sets hash their enum keys in C (no ``Enum.__hash__``
frame).  It counts every Python frame from enum.py and from
``Dentry.path`` while an AppArmor-confined task and an independent-SACK
task make allowed open → read/write/ioctl → close sequences, and requires
none.

The third guard holds denied accesses to the same rule: building the
``KernelError``, the AVC audit record and the span annotation reads
precomputed names, so a batch of denials by an AppArmor-confined task
and by an independent-SACK task runs no enum.py frame either.
"""

import enum
import sys

import pytest

from repro.kernel import Errno, KernelError, OpenFlags
from repro.kernel.vfs import VirtualFileSystem
from repro.kernel.vfs.dentry import Dentry
from repro.kernel.vfs.inode import FileType
from repro.vehicle import EnforcementConfig, build_ivi_world
from repro.vehicle.devices import DOOR_LOCK, VOLUME_GET, VOLUME_SET

READ, WRITE, IOCTL = "read", "write", "ioctl"

MEDIA = "/var/media/a000/t000.ogg"

#: ``(task, path, open flags, action, ioctl cmd)``: plain ints and
#: ``OpenFlags`` members both, as callers pass either.
BATCH = [
    ("media_app", MEDIA, OpenFlags.O_RDONLY, READ, 0),
    ("media_app", MEDIA, 0x1, WRITE, 0),
    ("media_app", MEDIA, OpenFlags.O_RDWR, WRITE, 0),
    ("media_app", "/dev/car/door", OpenFlags.O_WRONLY, WRITE, 0),
    ("media_app", "/dev/car/door", 0, IOCTL, DOOR_LOCK),
    ("media_app", "/dev/car/audio", OpenFlags.O_RDONLY, IOCTL, VOLUME_SET),
    ("volume_service", "/dev/car/audio", 0, IOCTL, VOLUME_GET),
    ("volume_service", "/dev/car/audio", OpenFlags.O_RDONLY, IOCTL,
     VOLUME_SET),
    ("nav_app", "/dev/car/speedometer", 0, READ, 0),
    ("rescue_daemon", "/dev/car/door", OpenFlags.O_RDONLY, READ, 0),
    ("rescue_daemon", "/dev/car/door", 0x1, WRITE, 0),
]

_OPERATORS = ("__and__", "__or__", "__xor__", "__invert__")
FLAG_OPERATOR_CODES = {getattr(cls, name).__code__
                       for cls in (enum.Flag, enum.IntFlag)
                       for name in _OPERATORS
                       if hasattr(getattr(cls, name), "__code__")}


class FlagOperatorCounter:
    """Counts Python-level calls into enum.py's flag operators."""

    def __init__(self):
        self.calls = 0

    def _profile(self, frame, event, arg):
        if event == "call" and frame.f_code in FLAG_OPERATOR_CODES:
            self.calls += 1

    def __enter__(self):
        self._previous = sys.getprofile()
        sys.setprofile(self._profile)
        return self

    def __exit__(self, *exc):
        sys.setprofile(self._previous)
        return False


def access(kernel, task, path, flags, action, cmd):
    """open -> action -> close; True when allowed, False when denied."""
    try:
        fd = kernel.sys_open(task, path, flags)
    except KernelError as exc:
        if exc.errno in (Errno.EACCES, Errno.EPERM):
            return False
        raise
    try:
        if action == READ:
            kernel.sys_read(task, fd, 16)
        elif action == WRITE:
            kernel.sys_write(task, fd, b"lock")
        else:
            kernel.sys_ioctl(task, fd, cmd, 1)
        return True
    except KernelError as exc:
        if exc.errno in (Errno.EACCES, Errno.EPERM):
            return False
        raise
    finally:
        kernel.sys_close(task, fd)


def test_counter_sees_flag_arithmetic():
    with FlagOperatorCounter() as counter:
        OpenFlags.O_WRONLY | OpenFlags.O_CREAT
    assert counter.calls >= 1


@pytest.mark.parametrize("config", [EnforcementConfig.SACK_APPARMOR,
                                    EnforcementConfig.SACK_INDEPENDENT],
                         ids=lambda c: c.value)
def test_access_batch_does_no_flag_arithmetic(config):
    world = build_ivi_world(config)
    world.kernel.vfs.makedirs(MEDIA.rsplit("/", 1)[0])
    world.kernel.vfs.create_file(MEDIA, mode=0o666)
    kernel = world.kernel
    batch = [(world.tasks[name], path, flags, action, cmd)
             for name, path, flags, action, cmd in BATCH]
    with FlagOperatorCounter() as counter:
        verdicts = [access(kernel, *entry) for entry in batch * 3]
    assert counter.calls == 0
    # The batch is mixed: every action kind runs, and both verdicts occur.
    assert True in verdicts and False in verdicts
    actions = {entry[3] for entry, ok in zip(batch * 3, verdicts) if ok}
    assert actions == {READ, WRITE, IOCTL}


class LookupFrameCounter:
    """Counts Python-level calls into enum.py and ``Dentry.path``."""

    def __init__(self):
        self.calls = []

    def _profile(self, frame, event, arg):
        if event != "call":
            return
        code = frame.f_code
        if code.co_filename == enum.__file__ or code is Dentry.path.__code__:
            self.calls.append(code.co_name)

    def __enter__(self):
        self._previous = sys.getprofile()
        sys.setprofile(self._profile)
        return self

    def __exit__(self, *exc):
        sys.setprofile(self._previous)
        return False


def test_counter_sees_enum_hash_and_path_rebuild():
    root = VirtualFileSystem().root
    with LookupFrameCounter() as counter:
        {FileType.REGULAR: 1}.get(FileType.DIRECTORY)
        root.path()
    assert "__hash__" in counter.calls and "path" in counter.calls


@pytest.mark.parametrize("config", [EnforcementConfig.SACK_APPARMOR,
                                    EnforcementConfig.SACK_INDEPENDENT],
                         ids=lambda c: c.value)
def test_allowed_accesses_do_one_lookup_each(config):
    world = build_ivi_world(config)
    kernel = world.kernel
    kernel.vfs.makedirs(MEDIA.rsplit("/", 1)[0])
    kernel.vfs.create_file(MEDIA, mode=0o666)
    volume = world.tasks["volume_service"]
    media = world.tasks["media_app"]
    if config is EnforcementConfig.SACK_APPARMOR:
        assert world.apparmor.profile_of(volume).name == "volume_service"
    with LookupFrameCounter() as counter:
        for _ in range(3):
            fd = kernel.sys_open(volume, "/dev/car/audio", OpenFlags.O_RDONLY)
            kernel.sys_read(volume, fd, 8)
            kernel.sys_ioctl(volume, fd, VOLUME_GET)
            kernel.sys_close(volume, fd)
            fd = kernel.sys_open(media, MEDIA, OpenFlags.O_RDWR)
            kernel.sys_write(media, fd, b"frame")
            kernel.sys_read(media, fd, 8)
            kernel.sys_close(media, fd)
    assert counter.calls == []


#: The accesses in :data:`BATCH` that every SACK configuration denies.
DENIED = [
    ("media_app", "/dev/car/door", OpenFlags.O_WRONLY, WRITE, 0),
    ("media_app", "/dev/car/door", 0, IOCTL, DOOR_LOCK),
    ("media_app", "/dev/car/audio", OpenFlags.O_RDONLY, IOCTL, VOLUME_SET),
    ("rescue_daemon", "/dev/car/door", 0x1, WRITE, 0),
]


@pytest.mark.parametrize("config", [EnforcementConfig.SACK_APPARMOR,
                                    EnforcementConfig.SACK_INDEPENDENT],
                         ids=lambda c: c.value)
def test_denied_accesses_run_no_enum_code(config):
    world = build_ivi_world(config)
    kernel = world.kernel
    batch = [(world.tasks[name], path, flags, action, cmd)
             for name, path, flags, action, cmd in DENIED]
    records = len(kernel.obs.audit.records())
    with LookupFrameCounter() as counter:
        verdicts = [access(kernel, *entry) for entry in batch * 3]
    assert verdicts == [False] * len(verdicts)
    assert counter.calls == [], sorted(set(counter.calls))
    # Each denial still wrote its one AVC record.
    assert len(kernel.obs.audit.records()) - records == len(verdicts)

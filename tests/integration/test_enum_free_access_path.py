"""Regression guard: the file access path does no ``enum.Flag`` arithmetic.

On the interpreters this project supports, ``&``, ``|``, ``^`` and ``~``
on an ``IntFlag`` (``OpenFlags``, ``FilePerm``) run as Python code in
enum.py and build a new member, which made them the largest cost of a
single access.  Masks are plain ints from ``sys_open`` to the AppArmor
verdict; this test counts calls into those operators while a mixed batch
of allowed and denied accesses runs, and requires none.
"""

import enum
import sys

import pytest

from repro.kernel import Errno, KernelError, OpenFlags
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

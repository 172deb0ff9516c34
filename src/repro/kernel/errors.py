"""Kernel error numbers and the exception type used by the syscall layer.

The simulated kernel mirrors the Linux convention: syscalls either return a
value or fail with a well-known errno.  In Python we raise
:class:`KernelError` carrying an :class:`Errno`; the syscall wrappers in
:mod:`repro.kernel.syscalls` translate that into the ``-errno`` style return
codes where callers want them.
"""

from __future__ import annotations

import enum


class Errno(enum.IntEnum):
    """Subset of Linux errno values used by the simulator."""

    EPERM = 1
    ENOENT = 2
    ESRCH = 3
    EINTR = 4
    EIO = 5
    ENXIO = 6
    EBADF = 9
    ECHILD = 10
    EAGAIN = 11
    ENOMEM = 12
    EACCES = 13
    EFAULT = 14
    EBUSY = 16
    EEXIST = 17
    EXDEV = 18
    ENODEV = 19
    ENOTDIR = 20
    EISDIR = 21
    EINVAL = 22
    ENFILE = 23
    EMFILE = 24
    ENOTTY = 25
    EFBIG = 27
    ENOSPC = 28
    ESPIPE = 29
    EROFS = 30
    EMLINK = 31
    EPIPE = 32
    ERANGE = 34
    ENAMETOOLONG = 36
    ENOSYS = 38
    ENOTEMPTY = 39
    ELOOP = 40
    ENODATA = 61
    EBADMSG = 74
    EOPNOTSUPP = 95
    EADDRINUSE = 98
    ENETUNREACH = 101
    ECONNRESET = 104
    ENOBUFS = 105
    EISCONN = 106
    ENOTCONN = 107
    ETIMEDOUT = 110
    ECONNREFUSED = 111
    EALREADY = 114
    EINPROGRESS = 115


#: ``(member, name)`` by errno value: every denial builds a
#: :class:`KernelError`, and ``Errno(n)`` and ``.name`` run Python code
#: in enum.py where this is one dict lookup.
_ERRNOS = {int(errno): (errno, errno.name) for errno in Errno}


class KernelError(Exception):
    """Raised by kernel internals when an operation fails with an errno."""

    def __init__(self, errno: Errno, message: str = ""):
        entry = _ERRNOS.get(errno)
        if entry is None:
            entry = _ERRNOS[Errno(errno)]   # ValueError for an unknown errno
        self.errno, name = entry
        super().__init__(f"[{name}] {message or name}")

    def __int__(self) -> int:
        return -int(self.errno)


def require(condition: bool, errno: Errno, message: str = "") -> None:
    """Raise :class:`KernelError` with *errno* unless *condition* holds."""
    if not condition:
        raise KernelError(errno, message)

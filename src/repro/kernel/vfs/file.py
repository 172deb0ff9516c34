"""Open-file objects and open flags."""

from __future__ import annotations

import enum
import itertools
from typing import Dict, Optional

from ..errors import Errno, KernelError
from .dentry import Dentry
from .inode import Inode


class OpenFlags(enum.IntFlag):
    """Subset of Linux ``open(2)`` flags."""

    O_RDONLY = 0x0
    O_WRONLY = 0x1
    O_RDWR = 0x2
    O_CREAT = 0x40
    O_EXCL = 0x80
    O_TRUNC = 0x200
    O_APPEND = 0x400
    O_DIRECTORY = 0x10000


class OpenFile:
    """A ``struct file``: an open instance of an inode.

    Carries the position, the access mode it was opened with, and a
    per-open security blob (``file->f_security``).  Device files also get a
    reference to their driver at open time, mirroring how Linux swaps in the
    driver's ``file_operations``.
    """

    _id_counter = itertools.count(1)

    def __init__(self, dentry: Optional[Dentry], inode: Inode,
                 flags: OpenFlags | int, path: str,
                 driver: Optional[object] = None,
                 fid: Optional[int] = None):
        self.id = fid if fid is not None else next(OpenFile._id_counter)
        self.dentry = dentry
        self.inode = inode
        self.flags = flags
        self.pos = 0
        self.driver = driver
        self.closed = False
        # Hot-path caches, fixed at open time (like f_mode / f_path):
        # access-mode bools avoid flag arithmetic per read/write, and the
        # path string, the one the open's path walk resolved, avoids a
        # dentry walk per LSM check.  The bools come from the plain int,
        # as ``OpenFlags`` bit tests run in enum.py.
        raw = int(flags)
        self.wants_read = not raw & 0x1             # not O_WRONLY
        self.wants_write = bool(raw & 0x3)          # O_WRONLY or O_RDWR
        self.path = path
        #: Per-LSM state, keyed by module name (``file->f_security``).
        self.security: Dict[str, object] = {}
        #: Device-driver private state (``file->private_data``).
        self.private_data: object = None

    def require_open(self) -> None:
        if self.closed:
            raise KernelError(Errno.EBADF, "file already closed")

    def require_readable(self) -> None:
        self.require_open()
        if not self.wants_read:
            raise KernelError(Errno.EBADF, f"{self.path} not open for read")

    def require_writable(self) -> None:
        self.require_open()
        if not self.wants_write:
            raise KernelError(Errno.EBADF, f"{self.path} not open for write")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"OpenFile({self.path!r}, flags={self.flags!r})"
